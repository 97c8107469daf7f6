//! Namespace sharding: key → shard → master rank.
//!
//! With `shards = N > 1` the KVS namespace is split across N
//! independent masters (ranks `0..N`, one hash-tree root, version
//! stream, and commit-batching window each). The split is by key hash:
//! the SHA1 of the **validated canonical path** decides the shard, so
//! routing is stable under any client-side spelling that validation
//! would reject anyway (`a..b` never hashes differently from `a.b` —
//! it never hashes at all).
//!
//! Everything here is pure: the module and clients share one function
//! so a commit's partitioning and a reader's routing can never
//! disagree.
//!
//! The KVS module runs one pipeline for every shard count; the
//! single-master store is simply `N = 1`. Exactly two decisions depend
//! on `N`, and each lives in one function here: [`route`] (how a
//! commit part reaches its shard master) and [`shape`] (whether
//! payloads name a shard).

use crate::path::{key_components, KeyError};
use flux_hash::ObjectId;
use flux_value::Value;
use flux_wire::Rank;
use std::collections::BTreeMap;

/// `(version, root)` per shard: the cut a commit or fence observed.
pub type Frontier = BTreeMap<u32, (u64, ObjectId)>;

/// Computes the shard owning `key` among `shards` shards.
///
/// A single shard owns every key, so nothing is validated or hashed.
/// Otherwise the key is validated first (`EINVAL`/`ENAMETOOLONG` shapes
/// are rejected, not hashed) and then canonicalized — components
/// re-joined with `'.'` — before hashing, so only canonical spellings
/// ever reach the hash. The first four digest bytes, read big-endian,
/// are reduced modulo `shards`.
pub fn shard_of_key(key: &str, shards: u32) -> Result<u32, KeyError> {
    if shards <= 1 {
        return Ok(0);
    }
    let components = key_components(key)?;
    let canonical = components.join(".");
    let digest = ObjectId::hash(canonical.as_bytes()).0;
    let h = u32::from_be_bytes([digest[0], digest[1], digest[2], digest[3]]);
    Ok(h % shards)
}

/// The rank mastering `shard`: shard *s* lives on rank *s*. Sessions
/// must therefore be at least `shards` brokers wide.
pub fn master_of(shard: u32) -> Rank {
    Rank(shard)
}

/// How a commit part reaches the master of its shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `kvs.push` up the tree, the paper's route: every interior relay
    /// adopts the new root as the reply unwinds.
    Up,
    /// A rank-addressed `kvs.shard.push` straight to the shard master.
    Rank(Rank),
}

impl Route {
    /// Whether a part still awaiting its answer may be sent again.
    ///
    /// Up the tree, never: every relay re-issues the part under its own
    /// request id, so the master could not tell a copy from a new
    /// commit, and a copy applied after another writer's commit would
    /// rewind that write. Errors on this route come only from a hop that
    /// could not forward, so a part is re-sent only when its send failed
    /// or it was answered with a transient error. A rank-addressed part
    /// sent to a master that dies before liveness notices vanishes
    /// without an error, so it is re-sent after a heartbeat epoch in
    /// flight. The master sees the committer's own request id, and a
    /// re-send keeps it, so the master's push dedup applies the part
    /// once.
    pub fn resends_in_flight(self) -> bool {
        matches!(self, Route::Rank(_))
    }
}

/// Route, the first shard-count decision: with one shard a part climbs
/// the tree to the root; with more it goes rank-addressed to
/// [`master_of`] its shard.
pub fn route(shards: u32, shard: u32) -> Route {
    if shards > 1 {
        Route::Rank(master_of(shard))
    } else {
        Route::Up
    }
}

/// How payloads spell a shard's `(version, root)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One shard: every cut is `{version, root}` and no payload names a
    /// shard — the paper's single-master wire format.
    Flat,
    /// `N` shards: single-shard payloads carry `shard`, and commit and
    /// fence results carry the whole frontier.
    Sharded(u32),
}

/// Payload shape, the second shard-count decision.
pub fn shape(shards: u32) -> Shape {
    if shards > 1 {
        Shape::Sharded(shards)
    } else {
        Shape::Flat
    }
}

fn cut(version: u64, root: ObjectId) -> Value {
    Value::from_pairs([
        ("version", Value::from(version as i64)),
        ("root", Value::from(root.to_hex())),
    ])
}

fn frontier_entries(frontier: &Frontier) -> Value {
    Value::Array(
        frontier
            .iter()
            .map(|(s, (v, r))| {
                let mut e = cut(*v, *r);
                e.insert("shard", Value::from(*s as i64));
                e
            })
            .collect(),
    )
}

impl Shape {
    /// Names `shard` in a single-shard payload — a commit part, a load,
    /// a push ack, a commit's `kvs.setroot` — unless the session has
    /// one shard.
    pub fn tag(self, payload: &mut Value, shard: u32) {
        if let Shape::Sharded(_) = self {
            payload.insert("shard", Value::from(shard as i64));
        }
    }

    /// One shard's `(version, root)`: a push ack or a version reply.
    pub fn ack(self, shard: u32, version: u64, root: ObjectId) -> Value {
        let mut v = cut(version, root);
        self.tag(&mut v, shard);
        v
    }

    /// What a commit or fence answers with: the `{version, root}` of the
    /// single shard, or `{shards, frontier: [{shard, version, root}…]}`.
    pub fn result(self, frontier: &Frontier) -> Value {
        match self {
            Shape::Flat => Self::flat(frontier),
            Shape::Sharded(n) => Value::from_pairs([
                ("shards", Value::from(n as i64)),
                ("frontier", frontier_entries(frontier)),
            ]),
        }
    }

    /// The `kvs.setroot` event that releases fence `name`: the flat cut,
    /// or every shard's entry under `shards` so slaves adopt the whole
    /// frontier before they answer a waiter.
    pub fn fence_event(self, frontier: &Frontier, name: &str) -> Value {
        let mut ev = match self {
            Shape::Flat => Self::flat(frontier),
            Shape::Sharded(_) => Value::from_pairs([("shards", frontier_entries(frontier))]),
        };
        ev.insert("fences", Value::Array(vec![Value::from(name)]));
        ev
    }

    fn flat(frontier: &Frontier) -> Value {
        frontier.values().next().map_or_else(Value::object, |&(version, root)| cut(version, root))
    }
}

/// Reads the cut a `kvs.setroot` event or a push ack carries, in either
/// shape: a `shards` entry list, or one `{version, root[, shard]}`
/// (shard 0 when unnamed). Entries whose root does not parse are
/// skipped.
pub fn frontier_of(payload: &Value) -> Frontier {
    let one = |e: &Value| {
        let shard = e.get("shard").and_then(Value::as_uint).unwrap_or(0) as u32;
        let version = e.get("version").and_then(Value::as_uint).unwrap_or(0);
        let root = ObjectId::from_hex(e.get("root")?.as_str()?).ok()?;
        Some((shard, (version, root)))
    };
    match payload.get("shards").and_then(Value::as_array) {
        Some(entries) => entries.iter().filter_map(one).collect(),
        None => one(payload).into_iter().collect(),
    }
}

/// Splits a tuple batch by shard, preserving per-shard arrival order
/// (the per-shard applications then equal applying the original batch
/// sequentially, shard by shard). Tuples whose key fails validation
/// land on shard 0 — the shard-0 master's own `apply_tuples` treats
/// them as ordinary (unresolvable) keys, exactly like the unsharded
/// path would.
pub fn partition_tuples(
    tuples: Vec<(String, Option<ObjectId>)>,
    shards: u32,
) -> Vec<Vec<(String, Option<ObjectId>)>> {
    let mut parts: Vec<Vec<(String, Option<ObjectId>)>> =
        (0..shards.max(1)).map(|_| Vec::new()).collect();
    for (key, id) in tuples {
        let s = shard_of_key(&key, shards).unwrap_or(0);
        parts[s as usize].push((key, id));
    }
    parts
}

/// Picks a key of the form `{prefix}{i}` landing on `shard` (for tests
/// and scenario builders that need keys with a known placement).
pub fn key_on_shard(prefix: &str, shard: u32, shards: u32) -> String {
    for i in 0..10_000u32 {
        let k = format!("{prefix}{i}");
        if shard_of_key(&k, shards) == Ok(shard) {
            return k;
        }
    }
    // flux-lint: allow(panic) — test/scenario helper; 10k draws missing
    // a shard of a uniform hash means the hash itself is broken.
    panic!("no key with prefix {prefix} lands on shard {shard}/{shards}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::MAX_KEY_LEN;

    #[test]
    fn single_shard_is_always_zero() {
        assert_eq!(shard_of_key("a.b.c", 1), Ok(0));
        assert_eq!(shard_of_key("anything", 0), Ok(0));
    }

    #[test]
    fn sharding_is_deterministic_and_in_range() {
        for shards in [2u32, 3, 4, 8] {
            for i in 0..64 {
                let key = format!("bench.k{i}");
                let s = shard_of_key(&key, shards).unwrap();
                assert!(s < shards);
                assert_eq!(shard_of_key(&key, shards), Ok(s));
            }
        }
    }

    #[test]
    fn all_shards_are_reachable() {
        // A uniform hash over a few dozen keys must hit every shard.
        for shards in [2u32, 4, 8] {
            let mut hit = vec![false; shards as usize];
            for i in 0..256 {
                let s = shard_of_key(&format!("spread.k{i}"), shards).unwrap();
                hit[s as usize] = true;
            }
            assert!(hit.iter().all(|&h| h), "shards {shards}: {hit:?}");
        }
    }

    #[test]
    fn invalid_keys_are_rejected_not_hashed() {
        // The normalization fix: `a.b` hashes, a rejected spelling like
        // `a..b` must never reach the hash and land somewhere else — it
        // is refused with the same errnum the write path reports.
        assert!(shard_of_key("a.b", 4).is_ok());
        let err = shard_of_key("a..b", 4).unwrap_err();
        assert_eq!(err, KeyError::EmptyComponent);
        assert_eq!(err.errnum(), flux_wire::errnum::EINVAL);
        assert!(matches!(shard_of_key("", 4), Err(KeyError::Empty)));
        assert!(matches!(shard_of_key(".a", 4), Err(KeyError::EmptyComponent)));
        assert!(matches!(
            shard_of_key(&"x".repeat(MAX_KEY_LEN + 1), 4),
            Err(KeyError::TooLong(_))
        ));
    }

    #[test]
    fn canonical_hashing_matches_component_join() {
        // shard_of_key hashes the validated canonical path — identical
        // to hashing the component join, for every valid key.
        for key in ["a", "a.b", "deep.a.b.c.d"] {
            let canonical = key_components(key).unwrap().join(".");
            let digest = ObjectId::hash(canonical.as_bytes()).0;
            let h = u32::from_be_bytes([digest[0], digest[1], digest[2], digest[3]]);
            assert_eq!(shard_of_key(key, 5), Ok(h % 5));
        }
    }

    #[test]
    fn partition_preserves_order_and_covers_all_tuples() {
        let tuples: Vec<(String, Option<ObjectId>)> =
            (0..32).map(|i| (format!("p.k{i}"), None)).collect();
        let parts = partition_tuples(tuples.clone(), 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 32);
        for (s, part) in parts.iter().enumerate() {
            let mut last = None;
            for (key, _) in part {
                assert_eq!(shard_of_key(key, 4), Ok(s as u32));
                // Order within a shard follows the original batch order.
                let idx: u32 = key.trim_start_matches("p.k").parse().unwrap();
                assert!(last.is_none_or(|l| l < idx));
                last = Some(idx);
            }
        }
    }

    #[test]
    fn key_on_shard_lands_where_asked() {
        for shard in 0..4 {
            let k = key_on_shard("t.s", shard, 4);
            assert_eq!(shard_of_key(&k, 4), Ok(shard));
        }
    }

    #[test]
    fn one_shard_routes_up_the_tree() {
        assert_eq!(route(1, 0), Route::Up);
        assert_eq!(route(0, 0), Route::Up);
        assert_eq!(route(2, 1), Route::Rank(Rank(1)));
        assert_eq!(route(4, 0), Route::Rank(Rank(0)));
        assert!(
            !route(1, 0).resends_in_flight(),
            "relays hide a re-send's identity"
        );
        assert!(route(2, 1).resends_in_flight());
    }

    fn frontier(entries: &[(u32, u64)]) -> Frontier {
        entries.iter().map(|&(s, v)| (s, (v, ObjectId::hash(b"r")))).collect()
    }

    #[test]
    fn one_shard_payloads_name_no_shard() {
        let flat = shape(1);
        assert_eq!(flat, Shape::Flat);
        let root = ObjectId::hash(b"r");
        let ack = flat.ack(0, 3, root);
        assert_eq!(ack.get("version").and_then(Value::as_uint), Some(3));
        assert_eq!(ack.get("root").and_then(Value::as_str), Some(root.to_hex().as_str()));
        assert!(ack.get("shard").is_none());
        let result = flat.result(&frontier(&[(0, 3)]));
        assert_eq!(result, ack);
        let ev = flat.fence_event(&frontier(&[(0, 3)]), "f");
        assert!(ev.get("shard").is_none() && ev.get("shards").is_none());
        assert_eq!(ev.get("version").and_then(Value::as_uint), Some(3));
        let mut load = Value::from_pairs([("id", Value::from("x"))]);
        flat.tag(&mut load, 0);
        assert!(load.get("shard").is_none());
        assert_eq!(frontier_of(&ev), frontier(&[(0, 3)]));
    }

    #[test]
    fn sharded_payloads_name_their_shard() {
        let sharded = shape(4);
        assert_eq!(sharded, Shape::Sharded(4));
        let ack = sharded.ack(2, 5, ObjectId::hash(b"r"));
        assert_eq!(ack.get("shard").and_then(Value::as_uint), Some(2));
        assert_eq!(frontier_of(&ack), frontier(&[(2, 5)]));
        let f = frontier(&[(0, 1), (3, 7)]);
        let result = sharded.result(&f);
        assert_eq!(result.get("shards").and_then(Value::as_uint), Some(4));
        let entries = result.get("frontier").and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.get("shard").is_some()));
        let ev = sharded.fence_event(&f, "f");
        assert_eq!(frontier_of(&ev), f);
        assert_eq!(ev.get("fences"), Some(&Value::Array(vec![Value::from("f")])));
        let mut load = Value::from_pairs([("id", Value::from("x"))]);
        sharded.tag(&mut load, 3);
        assert_eq!(load.get("shard").and_then(Value::as_uint), Some(3));
    }

    #[test]
    fn master_mapping_is_identity() {
        assert_eq!(master_of(0), Rank(0));
        assert_eq!(master_of(3), Rank(3));
    }
}
