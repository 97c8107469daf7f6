//! Layer replay: time the public `flux-kvs`, `flux-value` and
//! `flux-hash` functions on the object payloads the traced run sampled,
//! and scale the per-byte costs up to every payload the run handled.

use crate::trace::PayloadSamples;
use flux_hash::Sha1;
use flux_kvs::KvsObject;
use flux_value::Value;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Replays per sampled payload; the median is kept.
const REPS: usize = 5;

/// Distinct payloads replayed per run at most.
const MAX_REPLAYED: usize = 64;

/// Per-byte costs measured on one family of payloads, and the time they
/// explain across the whole run.
#[derive(Default, Clone, Copy, Debug)]
pub struct Replay {
    /// Approximate payload bytes replayed (one pass).
    pub payload_bytes: u64,
    /// Canonical object bytes encoded and hashed (one pass).
    pub encoded_bytes: u64,
    /// `KvsObject::from_value` time (one pass), ns.
    pub decode_ns: u64,
    /// `KvsObject::encode` (canonical encoding) time, ns.
    pub encode_ns: u64,
    /// SHA1 time over the encoded bytes, ns.
    pub sha1_ns: u64,
    /// Payload bytes the run handled in total.
    pub run_payload_bytes: u64,
}

impl Replay {
    /// Decode plus verify (encode + SHA1) time the run's payloads
    /// would take at the replayed per-byte cost, ns.
    pub fn explained_ns(&self) -> f64 {
        if self.payload_bytes == 0 {
            return 0.0;
        }
        let per_byte =
            (self.decode_ns + self.encode_ns + self.sha1_ns) as f64 / self.payload_bytes as f64;
        per_byte * self.run_payload_bytes as f64
    }

    /// Bytes SHA1 would hash over the whole run (computed, not counted).
    pub fn run_sha1_bytes(&self) -> f64 {
        if self.payload_bytes == 0 {
            return 0.0;
        }
        self.encoded_bytes as f64 / self.payload_bytes as f64 * self.run_payload_bytes as f64
    }

    /// Folds another replay into this one.
    pub fn add(&mut self, other: &Replay) {
        self.payload_bytes += other.payload_bytes;
        self.encoded_bytes += other.encoded_bytes;
        self.decode_ns += other.decode_ns;
        self.encode_ns += other.encode_ns;
        self.sha1_ns += other.sha1_ns;
        self.run_payload_bytes += other.run_payload_bytes;
    }
}

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Times decode, canonical encode and SHA1 of one embedded object.
fn replay_object(objv: &Value) -> Option<(u64, u64, u64, u64)> {
    let (mut dec, mut enc, mut sha) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        let obj = KvsObject::from_value(black_box(objv)).ok()?;
        dec.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let encoded = black_box(&obj).encode();
        enc.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        black_box(Sha1::digest(black_box(&encoded)));
        sha.push(t.elapsed().as_nanos() as u64);
        bytes = encoded.len() as u64;
    }
    Some((median(dec), median(enc), median(sha), bytes))
}

/// Replays every payload sampled in `samples`: objects embedded under
/// `"obj"` (load replies) or in the `"objects"` map (pushes).
pub fn replay(samples: &[PayloadSamples]) -> Replay {
    let mut total = Replay::default();
    // The simulator shares one payload among every receiver of a
    // fan-out, so module instances keep the same allocation: replay it
    // once.
    let mut seen: HashSet<*const Value> = HashSet::new();
    for s in samples {
        let mut r = Replay {
            run_payload_bytes: s.bytes,
            ..Replay::default()
        };
        for p in &s.kept {
            if seen.len() >= MAX_REPLAYED || !seen.insert(p.value() as *const Value) {
                continue;
            }
            let objs: Vec<&Value> =
                match (p.get("obj"), p.get("objects").and_then(Value::as_object)) {
                    (Some(o), _) => vec![o],
                    (None, Some(m)) => m.values().collect(),
                    _ => Vec::new(),
                };
            r.payload_bytes += p.approx_size() as u64;
            for o in objs {
                if let Some((d, e, h, b)) = replay_object(o) {
                    r.decode_ns += d;
                    r.encode_ns += e;
                    r.sha1_ns += h;
                    r.encoded_bytes += b;
                }
            }
        }
        total.add(&r);
    }
    total
}
