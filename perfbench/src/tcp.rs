//! The reactor workloads: live loopback-TCP sessions driven from one
//! thread over nonblocking socket clients.
//!
//! * [`kvs_session`] — a master plus a caching slave with the standard
//!   module set; two pipelined connections on the slave run a seeded,
//!   closed-loop mix of put+commit and get at a fixed window.
//! * [`ping_session`] — one broker, one connection, `cmb.ping` open-loop at
//!   a fixed rate, each request timed from the moment it was due.
//!
//! Driver-side spans (frame encode, frame decode, request to reply) are
//! keyed by [`MsgId`] so the traced run can subtract the module handler
//! spans carrying the same id.

use crate::stats::Lat;
use crate::trace::Tracer;
use flux_broker::client::{ClientCore, Delivery};
use flux_broker::CommsModule;
use flux_kvs::history::{check, ClientHistory, Event};
use flux_modules::standard_modules;
use flux_proto::{CmbMethod, KvsMethod};
use flux_rt::tcp::{connect_socket_client, TcpSession};
use flux_value::Value;
use flux_wire::frame::{write_frame_into, FrameDecoder, MAX_FRAME};
use flux_wire::{Message, MsgId, Rank};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's seeded generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Driver-side wire counters and per-request spans.
#[derive(Default)]
pub struct WireStats {
    /// Frames written.
    pub frames_out: u64,
    /// Frames decoded.
    pub frames_in: u64,
    /// Bytes written (length prefixes included).
    pub bytes_out: u64,
    /// Bytes read.
    pub bytes_in: u64,
    /// Summed `write_frame_into` time, ns.
    pub encode_ns: u64,
    /// Summed `FrameDecoder::next_message` time for decoded frames, ns.
    pub decode_ns: u64,
    /// Completed requests: (id, request-to-reply span, encode, decode), ns.
    pub spans: Vec<(MsgId, u64, u64, u64)>,
}

/// One nonblocking client connection with its framing state.
pub struct Conn {
    stream: TcpStream,
    /// Request id allocation and reply matching.
    pub core: ClientCore,
    dec: FrameDecoder,
    out: Vec<u8>,
    sent: usize,
    scratch: Vec<u8>,
    buf: Vec<u8>,
    trace: bool,
}

impl Conn {
    /// Connects a socket client to the broker of `rank` at `addr`.
    ///
    /// # Errors
    /// Propagates connect and handshake failures.
    pub fn connect(addr: SocketAddr, rank: Rank, trace: bool) -> io::Result<Conn> {
        let (stream, id) = connect_socket_client(addr, Duration::from_secs(10))?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            core: ClientCore::new(rank, id),
            dec: FrameDecoder::new(),
            out: Vec::new(),
            sent: 0,
            scratch: Vec::new(),
            buf: vec![0; 64 * 1024],
            trace,
        })
    }

    /// Frames a request into the send queue; returns its id and encode
    /// time (0 when not tracing).
    pub fn queue(&mut self, msg: &Message, wire: &mut WireStats) -> io::Result<(MsgId, u64)> {
        let before = self.out.len();
        let t = self.trace.then(Instant::now);
        write_frame_into(&mut self.out, msg, MAX_FRAME, &mut self.scratch)?;
        let ns = t.map_or(0, |t| t.elapsed().as_nanos() as u64);
        wire.frames_out += 1;
        wire.bytes_out += (self.out.len() - before) as u64;
        wire.encode_ns += ns;
        Ok((msg.header.id, ns))
    }

    /// Writes as much of the send queue as the socket takes; true if
    /// anything was written.
    pub fn flush(&mut self) -> io::Result<bool> {
        let mut wrote = false;
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "broker closed")),
                Ok(n) => {
                    self.sent += n;
                    wrote = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        Ok(wrote)
    }

    /// Reads what the socket has and hands every complete reply to `f`
    /// with its decode time; true if anything arrived.
    pub fn poll(
        &mut self,
        wire: &mut WireStats,
        mut f: impl FnMut(&mut ClientCore, Message, u64),
    ) -> io::Result<bool> {
        let mut got = false;
        loop {
            match self.stream.read(&mut self.buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "broker hung up",
                    ))
                }
                Ok(n) => {
                    self.dec.feed(&self.buf[..n]);
                    wire.bytes_in += n as u64;
                    got = true;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        loop {
            let t = self.trace.then(Instant::now);
            let Some(msg) = self.dec.next_message(MAX_FRAME)? else {
                break;
            };
            let ns = t.map_or(0, |t| t.elapsed().as_nanos() as u64);
            wire.frames_in += 1;
            wire.decode_ns += ns;
            f(&mut self.core, msg, ns);
        }
        Ok(got)
    }
}

/// The module factory of a live session, traced when asked.
fn modules(tracer: Option<&Tracer>) -> impl Fn(Rank) -> Vec<Box<dyn CommsModule>> + '_ {
    move |_| match tracer {
        Some(t) => standard_modules()
            .into_iter()
            .map(|m| t.wrap_module(m))
            .collect(),
        None => standard_modules(),
    }
}

/// Sends one request and waits for its reply (set-up probes).
fn round_trip(conn: &mut Conn, msg: Message) -> io::Result<Message> {
    let mut wire = WireStats::default();
    conn.queue(&msg, &mut wire)?;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut reply = None;
    loop {
        conn.flush()?;
        conn.poll(&mut wire, |core, m, _| {
            if let Delivery::Response { msg, .. } = core.deliver(m) {
                reply = Some(msg);
            }
        })?;
        if let Some(r) = reply {
            return Ok(r);
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "set-up probe unanswered",
            ));
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// A started live session with its attached connections.
pub struct Live {
    /// The session.
    pub session: TcpSession,
    /// Socket clients.
    pub conns: Vec<Conn>,
}

/// Builds and starts a `size`-broker session and connects `nconns`
/// socket clients to rank `size - 1`; returns the session and that
/// set-up time. Then completes one probe per connection, so measured
/// requests never wait for the overlay to wire up.
///
/// # Errors
/// Propagates connect and probe failures.
pub fn start_live(
    size: u32,
    nconns: usize,
    tracer: Option<&Tracer>,
    trace_wire: bool,
) -> io::Result<(Live, u64)> {
    let t = Instant::now();
    let session = TcpSession::builder(size, 2, modules(tracer)).start();
    let rank = Rank(size - 1);
    let addr = session.addrs()[rank.index()];
    let mut conns = (0..nconns)
        .map(|_| Conn::connect(addr, rank, trace_wire))
        .collect::<io::Result<Vec<Conn>>>()?;
    let setup = t.elapsed().as_nanos() as u64;
    for c in &mut conns {
        let probe = if size > 1 {
            // A commit reaches the master: the tree link is up.
            c.core
                .request(KvsMethod::Commit.topic(), Value::object(), 0)
        } else {
            c.core.request(CmbMethod::Ping.topic(), Value::object(), 0)
        };
        let reply = round_trip(c, probe)?;
        if reply.header.errnum != 0 {
            return Err(io::Error::other(format!(
                "set-up probe failed: {}",
                reply.header.errnum
            )));
        }
    }
    Ok((Live { session, conns }, setup))
}

// ---------------------------------------------------------------- kvs_tcp

/// Connections on the slave, each its own client history.
pub const KVS_CONNS: usize = 2;
/// Requests in flight per connection (a put+commit pair holds two).
const KVS_WINDOW: usize = 8;
/// Directories in the key space.
const KVS_DIRS: u64 = 64;
/// Keys in the key space, 32 per directory: bounded, and spread so no
/// commit rewrites one huge directory object.
const KVS_KEYS: u64 = 2048;
/// Share of logical ops that are writes, in percent.
const KVS_WRITE_PCT: u64 = 25;
/// Smallest value size, bytes.
const VALUE_MIN: usize = 64;
/// Largest value size, bytes.
const VALUE_MAX: usize = 4096;

/// Faults planted into a run to prove the oracles catch them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Plant {
    /// Corrupt the value of the n-th get reply (0-based).
    pub corrupt_get: Option<u64>,
    /// Ignore the n-th ping reply (0-based).
    pub drop_reply: Option<u64>,
}

/// The key of slot `i`.
pub fn key_name(i: u64) -> String {
    format!("pb.d{:02}.k{:04}", i % KVS_DIRS, i)
}

/// The value written as generation `gen` of key slot `i`: it names the
/// key and generation, and its size and fill follow from the seed.
pub fn value_of(seed: u64, i: u64, gen: u64) -> String {
    let mut r = Rng::new(seed ^ i.wrapping_mul(0x9e37_79b9) ^ gen.wrapping_mul(0x85eb_ca6b) << 20);
    let span = (VALUE_MAX - VALUE_MIN + 1) as u64;
    let size = VALUE_MIN + r.below(span) as usize;
    let mut s = format!("{}#{gen}#", key_name(i));
    let fill = char::from(b'a' + (gen % 26) as u8);
    while s.len() < size {
        s.push(fill);
    }
    s
}

/// What a kvs request in flight is.
#[derive(Clone, Copy)]
enum Pending {
    Put,
    Commit { slot: u64, gen: u64 },
    Get { slot: u64 },
}

/// Results of the `kvs_tcp` workload.
#[derive(Default)]
pub struct KvsResult {
    /// Per-session completed requests per second.
    pub ops_per_s: Vec<f64>,
    /// Latency of every request, ns.
    pub all: Lat,
    /// Put latency.
    pub put: Lat,
    /// Commit latency.
    pub commit: Lat,
    /// Get latency.
    pub get: Lat,
    /// Requests issued, failed, and the violations.
    pub tally: Tally,
    /// Driver-side wire counters and spans.
    pub wire: WireStats,
}

/// Operations attempted and failed, with the first few violations.
#[derive(Default, Debug)]
pub struct Tally {
    /// Requests issued.
    pub attempted: u64,
    /// Requests failed, unanswered, or answered wrongly.
    pub failed: u64,
    /// Oracle violations (first few).
    pub violations: Vec<String>,
}

impl Tally {
    /// Counts one failure and keeps its description.
    pub fn violation(&mut self, v: String) {
        self.failed += 1;
        if self.violations.len() < 8 {
            self.violations.push(v);
        }
    }
}

/// One connection's seeded op sequence: `(is_write, key slot)` pairs,
/// the same for the same seed whatever the timing. A get of a key the
/// sequence has not written yet becomes a write.
struct OpGen {
    rng: Rng,
    conn: u64,
    written: Vec<bool>,
    next: Option<(bool, u64)>,
}

impl OpGen {
    fn new(seed: u64, session: u64, conn: usize) -> OpGen {
        let stream = (session << 8 | conn as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        OpGen {
            rng: Rng::new(seed ^ stream),
            conn: conn as u64,
            written: vec![false; KVS_KEYS as usize],
            next: None,
        }
    }

    /// The next op, drawn once and kept until it is issued.
    fn peek(&mut self) -> (bool, u64) {
        match self.next {
            Some(op) => op,
            None => {
                let op = self.draw();
                self.next = Some(op);
                op
            }
        }
    }

    fn draw(&mut self) -> (bool, u64) {
        let conns = KVS_CONNS as u64;
        let write = self.rng.below(100) < KVS_WRITE_PCT;
        let slot = self.rng.below(KVS_KEYS / conns) * conns + self.conn;
        let write = write || !self.written[slot as usize];
        self.written[slot as usize] = true;
        (write, slot)
    }
}

/// Per-slot state of the key space.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Last acknowledged generation (0 = never written).
    gen: u64,
    /// An op on this key is in flight.
    busy: bool,
}

/// One measured session of `kvs_tcp`: set up, warm up for `warm`, then
/// drive for `measure` and drain. Results accumulate into `res`.
///
/// # Errors
/// Propagates socket failures.
pub fn kvs_session(
    seed: u64,
    session: u64,
    warm: Duration,
    measure: Duration,
    tracer: Option<&Tracer>,
    plant: Plant,
    res: &mut KvsResult,
) -> io::Result<()> {
    let trace = tracer.is_some();
    let (mut live, _) = start_live(2, KVS_CONNS, tracer, trace)?;
    let mut slots = vec![Slot::default(); KVS_KEYS as usize];
    let mut histories: Vec<ClientHistory> = (0..KVS_CONNS)
        .map(|c| ClientHistory {
            client: format!("conn{c}"),
            events: Vec::new(),
        })
        .collect();
    let mut gens: Vec<OpGen> = (0..KVS_CONNS)
        .map(|c| OpGen::new(seed, session, c))
        .collect();
    // Per connection: tag -> (kind, issued at, encode ns).
    let mut inflight: Vec<HashMap<u64, (Pending, Instant, u64)>> =
        (0..KVS_CONNS).map(|_| HashMap::new()).collect();
    let mut next_tag = 1u64;
    let mut gets_seen = 0u64;
    let start = Instant::now();
    let measure_from = start + warm;
    let stop_at = measure_from + measure;
    let drain_until = stop_at + Duration::from_secs(10);
    let mut done_in_window = 0u64;
    loop {
        let now = Instant::now();
        let issuing = now < stop_at;
        let open: usize = inflight.iter().map(HashMap::len).sum();
        if !issuing && open == 0 {
            break;
        }
        if now > drain_until {
            break;
        }
        let mut progressed = false;
        for (ci, conn) in live.conns.iter_mut().enumerate() {
            // Top up the window with seeded logical ops on this
            // connection's own keys.
            while issuing && inflight[ci].len() + 2 <= KVS_WINDOW {
                // The next op of this connection's seeded sequence waits
                // while its key has an op in flight, so a get always
                // follows its key's acknowledged commit.
                let (write, s) = gens[ci].peek();
                if slots[s as usize].busy {
                    break;
                }
                gens[ci].next = None;
                let slot = (!write).then_some(s);
                let (msgs, kinds): (Vec<Message>, Vec<Pending>) = match slot {
                    Some(s) => {
                        let key = key_name(s);
                        let m = conn.core.request(
                            KvsMethod::Get.topic(),
                            Value::from_pairs([("k", Value::from(key))]),
                            next_tag,
                        );
                        (vec![m], vec![Pending::Get { slot: s }])
                    }
                    None => {
                        let gen = slots[s as usize].gen + 1;
                        let put = conn.core.request(
                            KvsMethod::Put.topic(),
                            Value::from_pairs([
                                ("k", Value::from(key_name(s))),
                                ("v", Value::from(value_of(seed, s, gen))),
                            ]),
                            next_tag,
                        );
                        let commit = conn.core.request(
                            KvsMethod::Commit.topic(),
                            Value::object(),
                            next_tag + 1,
                        );
                        (
                            vec![put, commit],
                            vec![Pending::Put, Pending::Commit { slot: s, gen }],
                        )
                    }
                };
                for (m, k) in msgs.iter().zip(kinds) {
                    if let Pending::Get { slot } | Pending::Commit { slot, .. } = k {
                        slots[slot as usize].busy = true;
                    }
                    let (_, enc) = conn.queue(m, &mut res.wire)?;
                    inflight[ci].insert(next_tag, (k, Instant::now(), enc));
                    next_tag += 1;
                    res.tally.attempted += 1;
                }
                progressed = true;
            }
            progressed |= conn.flush()?;
            let mut replies = Vec::new();
            progressed |= conn.poll(&mut res.wire, |core, m, dec| {
                if let Delivery::Response { tag, msg } = core.deliver(m) {
                    replies.push((tag, msg, dec));
                }
            })?;
            let now = Instant::now();
            for (tag, msg, dec) in replies {
                let Some((kind, sent, enc)) = inflight[ci].remove(&tag) else {
                    res.tally
                        .violation(format!("conn{ci}: reply for unknown tag {tag}"));
                    continue;
                };
                let ns = now.duration_since(sent).as_nanos() as u64;
                let in_window = sent >= measure_from && sent < stop_at;
                if in_window {
                    res.all.push(ns);
                    done_in_window += 1;
                    if trace {
                        res.wire.spans.push((msg.header.id, ns, enc, dec));
                    }
                }
                let err = msg.header.errnum;
                match kind {
                    Pending::Put => {
                        if in_window {
                            res.put.push(ns);
                        }
                        if err != 0 {
                            res.tally
                                .violation(format!("conn{ci}: put failed with {err}"));
                        }
                    }
                    Pending::Commit { slot, gen } => {
                        if in_window {
                            res.commit.push(ns);
                        }
                        let key = key_name(slot);
                        slots[slot as usize].busy = false;
                        let version = msg.payload.get("version").and_then(Value::as_uint);
                        match (err, version) {
                            (0, Some(version)) => {
                                slots[slot as usize].gen = gen;
                                histories[ci]
                                    .events
                                    .push(Event::Committed { key, gen, version });
                            }
                            _ => {
                                res.tally
                                    .violation(format!("conn{ci}: commit of {key} failed ({err})"));
                                histories[ci].events.push(Event::StagedOnly { key, gen });
                            }
                        }
                    }
                    Pending::Get { slot } => {
                        if in_window {
                            res.get.push(ns);
                        }
                        slots[slot as usize].busy = false;
                        let key = key_name(slot);
                        let mut got = msg
                            .payload
                            .get("v")
                            .and_then(Value::as_str)
                            .map(str::to_owned);
                        if plant.corrupt_get == Some(gets_seen) {
                            got = got.map(|s| s.replace('#', "!"));
                        }
                        gets_seen += 1;
                        let want_gen = slots[slot as usize].gen;
                        let seen_gen = got.as_deref().and_then(|v| {
                            let rest = v.strip_prefix(&key)?.strip_prefix('#')?;
                            rest.split('#').next()?.parse::<u64>().ok()
                        });
                        histories[ci].events.push(Event::Read {
                            key: key.clone(),
                            gen: seen_gen,
                        });
                        let exact = seen_gen
                            .is_some_and(|g| got.as_deref() == Some(&value_of(seed, slot, g)));
                        if err != 0 || !exact || seen_gen != Some(want_gen) {
                            res.tally.violation(format!(
                                "conn{ci}: get {key} saw generation {seen_gen:?} (err {err}), \
                                 acknowledged {want_gen}"
                            ));
                        }
                    }
                }
            }
        }
        if !progressed {
            // Every connection waits on the session: leave the cores to
            // the reactors.
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    res.ops_per_s
        .push(done_in_window as f64 / measure.as_secs_f64());
    let unanswered: usize = inflight.iter().map(HashMap::len).sum();
    for _ in 0..unanswered {
        res.tally
            .violation("request unanswered at session end".into());
    }
    for v in check(&histories) {
        res.tally.violation(format!("history: {v}"));
    }
    drop(live.conns);
    live.session.shutdown();
    Ok(())
}

// ---------------------------------------------------------------- rpc_paced

/// Results of the `rpc_paced` workload.
#[derive(Default)]
pub struct PingResult {
    /// Latency from each ping's due time to its reply, ns.
    pub lat: Lat,
    /// How late the generator sent each ping, ns.
    pub late: Lat,
    /// Most pings in flight at once.
    pub backlog_max: u64,
    /// Answered pings per second, per session.
    pub rate: Vec<f64>,
    /// Pings sent; pings unanswered, answered with an error or more
    /// than once.
    pub tally: Tally,
    /// Driver-side wire counters and spans.
    pub wire: WireStats,
}

/// Longest idle sleep of the ping generator between socket polls.
const POLL: Duration = Duration::from_micros(20);

/// One measured session of `rpc_paced`: `count` pings at `rate_hz`.
///
/// # Errors
/// Propagates socket failures.
pub fn ping_session(
    rate_hz: u64,
    count: u64,
    tracer: Option<&Tracer>,
    plant: Plant,
    res: &mut PingResult,
) -> io::Result<()> {
    let trace = tracer.is_some();
    let (mut live, _) = start_live(1, 1, tracer, trace)?;
    let conn = &mut live.conns[0];
    let period = Duration::from_nanos(1_000_000_000 / rate_hz);
    let t0 = Instant::now() + period;
    let due = |k: u64| t0 + period * k as u32;
    let mut answers = vec![0u8; count as usize];
    res.lat.ns.reserve(count as usize);
    res.late.ns.reserve(count as usize);
    // tag -> (id, encode ns, sent at)
    let mut inflight: HashMap<u64, (MsgId, u64, Instant)> = HashMap::new();
    let mut next = 0u64;
    let mut replies_seen = 0u64;
    let drain_until = due(count) + Duration::from_secs(5);
    let mut last_reply = t0;
    loop {
        let now = Instant::now();
        while next < count && due(next) <= now {
            let msg = conn
                .core
                .request(CmbMethod::Ping.topic(), Value::object(), next);
            let (id, enc) = conn.queue(&msg, &mut res.wire)?;
            res.late
                .push(now.duration_since(due(next)).as_nanos() as u64);
            inflight.insert(next, (id, enc, Instant::now()));
            res.backlog_max = res.backlog_max.max(inflight.len() as u64);
            res.tally.attempted += 1;
            next += 1;
        }
        conn.flush()?;
        if next == count && inflight.is_empty() {
            break;
        }
        if now > drain_until {
            break;
        }
        let wake = if next < count { due(next) } else { drain_until };
        let mut got = Vec::new();
        conn.poll(&mut res.wire, |core, m, dec| {
            got.push((core.deliver(m), dec))
        })?;
        if got.is_empty() {
            // Socket timeouts round to the kernel tick; a short sleep
            // keeps both the send schedule and reply timing to tens of
            // microseconds.
            std::thread::sleep(wake.saturating_duration_since(Instant::now()).min(POLL));
            continue;
        }
        let now = Instant::now();
        for (d, dec) in got {
            let tag = match d {
                Delivery::Response { tag, msg } => {
                    if msg.header.errnum != 0 {
                        // Answered, but wrongly: the exactly-once count
                        // below still sees the answer.
                        res.tally
                            .violation(format!("ping {tag} answered with an error"));
                    }
                    tag
                }
                Delivery::Unmatched(m) => {
                    // A second reply to an answered ping no longer
                    // matches an outstanding request.
                    res.tally
                        .violation(format!("unmatched reply {}", m.header.id));
                    continue;
                }
                Delivery::Event(_) => continue,
            };
            let dropped = plant.drop_reply == Some(replies_seen);
            replies_seen += 1;
            if dropped {
                continue;
            }
            answers[tag as usize] = answers[tag as usize].saturating_add(1);
            last_reply = now;
            if let Some((id, enc, sent)) = inflight.remove(&tag) {
                res.lat.push(now.duration_since(due(tag)).as_nanos() as u64);
                if trace {
                    let span = now.duration_since(sent).as_nanos() as u64;
                    res.wire.spans.push((id, span, enc, dec));
                }
            }
        }
    }
    // Achieved rate: answered pings over the wall from the first due
    // time to the last reply.
    let window = last_reply.duration_since(t0).as_secs_f64();
    let answered = answers.iter().filter(|&&a| a > 0).count() as f64;
    res.rate
        .push(if window > 0.0 { answered / window } else { 0.0 });
    for (tag, &a) in answers.iter().enumerate() {
        if a != 1 {
            res.tally
                .violation(format!("ping {tag} answered {a} times"));
        }
    }
    drop(live.conns);
    live.session.shutdown();
    Ok(())
}
