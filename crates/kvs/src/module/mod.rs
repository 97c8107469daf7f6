//! The `kvs` comms module: shard masters hold the authoritative trees,
//! every other broker is a caching slave.
//!
//! Protocol topics (all under the `kvs` service):
//!
//! | topic              | payload                               | behaviour |
//! |--------------------|---------------------------------------|-----------|
//! | `kvs.put`          | `{k, v}`                              | write-back: store value object locally, queue `(key, SHA1)` tuple |
//! | `kvs.unlink`       | `{k}`                                 | queue an unlink tuple |
//! | `kvs.commit`       | `{}`                                  | flush the caller's tuples+objects to the shard masters; the response carries the new cut, applied locally before the caller is answered (read-your-writes) |
//! | `kvs.push`         | `{tuples, objects}`                   | internal: a commit part travelling up the tree (one shard) |
//! | `kvs.shard.push`   | `{shard, tuples, objects[, fence]}`   | internal: a rank-addressed commit part for one shard master (N > 1) |
//! | `kvs.fence`        | `{name, nprocs}`                      | collective commit: contributions merge upstream (objects dedup, tuples concatenate); completion is the `kvs.setroot` event naming the fence |
//! | `kvs.fence.up`     | `{name, nprocs, count, tuples, objects}` | internal: merged fence contributions travelling up |
//! | `kvs.get`          | `{k}` / `{k, dir:true}`               | recursive lookup with fault-in through the cache chain |
//! | `kvs.load`         | `{id[, shard]}`                       | internal: fault one object from the parent cache |
//! | `kvs.get_version`  | `{[shard]}`                           | current root version |
//! | `kvs.wait_version` | `{version[, shard]}`                  | respond once the root version reaches the target (causal consistency) |
//! | `kvs.watch`        | `{k}`                                 | respond now and on every change of `k` (streaming) |
//! | `kvs.unwatch`      | `{k}`                                 | cancel this requester's watch |
//! | `kvs.stats`        | `{}`                                  | cache statistics (tooling) |
//!
//! One pipeline serves every shard count `N`; the paper's single
//! master is the case `N = 1`. The namespace splits by key hash across
//! masters on ranks `0..N` (one hash-tree root, version stream and
//! batching window each; see [`crate::shard`]). A commit partitions its
//! write set per shard, applies the parts this broker masters inline,
//! and sends the others to their masters; the committer is answered
//! once every part acknowledged. Fences reduce up the tree and the
//! root, which masters shard 0, runs the same partition-and-join.
//! Exactly two decisions depend on `N`: [`shard::route`] (a part climbs
//! the tree as `kvs.push` at `N = 1`, goes rank-addressed as
//! `kvs.shard.push` otherwise) and [`shard::shape`] (payloads carry a
//! `shard` key or a frontier only at `N > 1`).
//!
//! The code splits by role: `apply` holds the authoritative apply,
//! push batching and the dedup memos; `read` the walks, loads, lookup
//! memo, watches and `wait_version`; `coord` the commit and fence
//! joins, the fence reduction and the heartbeat retry.

mod apply;
mod coord;
mod read;

use crate::master::Tuple;
use crate::object::KvsObject;
use crate::shard::{self, Shape};
use crate::store::ObjectCache;
use apply::ParkedPush;
use coord::{FenceAcc, Join, PartReply, PendingWrites};
use flux_broker::{CommsModule, ModuleCtx};
use flux_hash::ObjectId;
use flux_proto::{Event, KvsMethod};
use flux_value::{Map, Value};
use flux_wire::{errnum, Message, MsgId, Payload};
use read::{Walk, Watcher};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// KVS tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct KvsConfig {
    /// Slave-cache entries unused for this many heartbeat epochs expire.
    pub expiry_epochs: u64,
    /// Fence aggregation window: contributions arriving within this
    /// window merge into one upstream message (the tree reduction).
    pub window_ns: u64,
    /// At-most-once dedup of transport-duplicated `kvs.push` requests and
    /// `kvs.fence.up` batches. Always `true` in production configurations;
    /// the model checker's mutation smoke-test sets it to `false` to
    /// re-introduce the historical fence/push double-apply bug and prove
    /// the explorer still catches that bug class.
    pub dedup: bool,
    /// Master-side commit batching window: concurrent pushes arriving
    /// within this window coalesce into **one** hash-tree walk, one
    /// version bump, and one `kvs.setroot` broadcast (tuples concatenate
    /// in arrival order, so the result equals applying them
    /// sequentially; content-addressed objects dedup in the merge). `0`
    /// disables batching — every push applies immediately.
    pub batch_window_ns: u64,
    /// Pushes parked in the batch before it flushes without waiting for
    /// the window timer.
    pub batch_max: usize,
    /// Slave-side key→object lookup memo: a successful `kvs.get`
    /// resolution is remembered and served directly (no tree walk)
    /// until the root changes. Invalidated on every root switch — the
    /// same path that wakes `wait_version` waiters, so a get after
    /// `wait_version` can never see a stale memo.
    pub lookup_cache: bool,
    /// Number of namespace shards. `1` (the default) is the paper's
    /// single-master KVS. `N > 1` splits the namespace by key hash
    /// across masters on ranks `0..N` (the session must be at least `N`
    /// brokers wide; the value is clamped to the session size on start).
    pub shards: u32,
}

impl Default for KvsConfig {
    fn default() -> Self {
        KvsConfig {
            expiry_epochs: 16,
            window_ns: 20_000,
            dedup: true,
            batch_window_ns: 5_000,
            batch_max: 64,
            lookup_cache: true,
            shards: 1,
        }
    }
}

/// A requester identity local to this broker: the bottom hop entry
/// (client hop for local clients, absent for module-local requests).
type Requester = Option<flux_wire::Rank>;

fn requester_of(msg: &Message) -> Requester {
    msg.header.hops.first().copied()
}

/// Per-shard replicated state: one independent root, version stream,
/// `wait_version` parking lot, and lookup memo.
struct ShardSlot {
    version: u64,
    root: ObjectId,
    version_waiters: Vec<(u64, Message)>,
    /// `(key, want_dir)` → resolved object id, valid for this slot's
    /// current root only (cleared on every root switch).
    lookup: HashMap<(String, bool), ObjectId>,
}

impl ShardSlot {
    fn new(root: ObjectId) -> ShardSlot {
        ShardSlot { version: 0, root, version_waiters: Vec::new(), lookup: HashMap::new() }
    }
}

/// The KVS comms module. Instantiate one per broker; the instances on
/// ranks `0..shards` become the shard masters automatically.
pub struct KvsModule {
    cfg: KvsConfig,
    cache: ObjectCache,
    /// The shard this broker masters (`rank < shards`), if any. Rank 0,
    /// the tree root, masters shard 0 and coordinates fences.
    master_shard: Option<u32>,
    /// Per-shard root/version/waiter/memo state.
    slots: Vec<ShardSlot>,
    pending: HashMap<Requester, PendingWrites>,
    walks: HashMap<u64, Walk>,
    next_walk: u64,
    /// Object id → (walks parked on it, child `kvs.load` requests for it).
    load_waiters: HashMap<ObjectId, (Vec<u64>, Vec<Message>)>,
    /// Outstanding load RPCs: response id → (object id, shard whose
    /// tree wants it).
    inflight_loads: HashMap<MsgId, (ObjectId, u32)>,
    /// Loads that failed transiently (e.g. the shard master is blacked
    /// out): retried on the next heartbeat instead of reporting a false
    /// ENOENT, preserving monotonic reads across restarts.
    load_retries: Vec<(ObjectId, u32)>,
    /// Outstanding relayed `kvs.push` requests: our upstream request id
    /// → the original request to answer when the response unwinds.
    push_relays: HashMap<MsgId, Message>,
    /// Commits and fences awaiting per-shard acknowledgements, keyed in
    /// creation order (the heartbeat retry iterates them).
    joins: BTreeMap<u64, Join>,
    next_join: u64,
    /// Outstanding part sends: response id → (join, shard).
    join_parts: HashMap<MsgId, (u64, u32)>,
    /// Heartbeat epoch last seen; rank-addressed parts in flight for more
    /// than a full epoch are re-sent.
    epoch: u64,
    /// Shard-master memo of applied fence batches: fence name →
    /// (version, root). A coordinator retry (its first push or our
    /// reply was lost in a blackout window) is answered from here
    /// instead of double-applying. Bounded FIFO.
    fence_applied: HashMap<String, (u64, ObjectId)>,
    fence_applied_order: VecDeque<String>,
    fences: HashMap<String, FenceAcc>,
    /// Fence window timer tokens.
    fence_tokens: HashMap<u64, String>,
    /// Monotonic id stamped on every flushed fence batch, so parents can
    /// recognise (and discard) transport-duplicated batches.
    next_fence_batch: u64,
    /// Recently handled push request ids, so a transport-duplicated or
    /// re-sent push is applied (and relayed) at most once. Bounded FIFO.
    seen_pushes: HashSet<MsgId>,
    seen_push_order: VecDeque<MsgId>,
    next_token: u64,
    /// Watchers in a deterministic (BTreeMap) order: root switches
    /// re-walk them in insertion-id order, never HashMap order.
    watchers: BTreeMap<u64, Watcher>,
    next_watcher: u64,
    /// Commits applied at this master (for stats/tests). With batching,
    /// one application may cover many coalesced pushes.
    commits_applied: u64,
    /// Push batch: parked `(request, tuples, objects)` entries awaiting
    /// one coalesced hash-tree walk.
    batch: Vec<ParkedPush>,
    /// Request ids currently parked in `batch`: a duplicate or re-sent
    /// push whose original is still parked must be dropped (the parked
    /// copy carries the reply obligation) rather than answered with the
    /// current — pre-apply — version.
    batch_ids: HashSet<MsgId>,
    /// A batch flush window timer is pending.
    batch_armed: bool,
    /// Timer tokens that mean "flush the push batch".
    batch_tokens: HashSet<u64>,
    /// Pushes that went through the batch path (stats/tests).
    pushes_batched: u64,
    /// Lookup-memo hits (stats/tests; the memos live in the slots).
    lookup_hits: u64,
    /// Serialized `kvs.load` reply payloads by object id. Objects are
    /// content-addressed and immutable, so a reply built once is valid
    /// forever; memoizing it turns the per-child re-serialization of a
    /// fan-out (each level of the cache chain answering every child with
    /// a fresh `to_value` of the same directory) into one build plus
    /// refcount bumps. Capped to bound memory on long-lived brokers.
    load_replies: HashMap<ObjectId, Payload>,
}

impl KvsModule {
    /// Creates a module with default tuning.
    pub fn new() -> KvsModule {
        Self::with_config(KvsConfig::default())
    }

    /// Creates a module with explicit tuning.
    pub fn with_config(cfg: KvsConfig) -> KvsModule {
        let cache = ObjectCache::new();
        let root = KvsObject::empty_dir().id();
        let slots = (0..cfg.shards.max(1)).map(|_| ShardSlot::new(root)).collect();
        KvsModule {
            cfg,
            cache,
            master_shard: None,
            slots,
            pending: HashMap::new(),
            walks: HashMap::new(),
            next_walk: 0,
            load_waiters: HashMap::new(),
            inflight_loads: HashMap::new(),
            load_retries: Vec::new(),
            push_relays: HashMap::new(),
            joins: BTreeMap::new(),
            next_join: 0,
            join_parts: HashMap::new(),
            epoch: 0,
            fence_applied: HashMap::new(),
            fence_applied_order: VecDeque::new(),
            fences: HashMap::new(),
            fence_tokens: HashMap::new(),
            next_fence_batch: 0,
            seen_pushes: HashSet::new(),
            seen_push_order: VecDeque::new(),
            next_token: 0,
            watchers: BTreeMap::new(),
            next_watcher: 0,
            commits_applied: 0,
            batch: Vec::new(),
            batch_ids: HashSet::new(),
            batch_armed: false,
            batch_tokens: HashSet::new(),
            pushes_batched: 0,
            lookup_hits: 0,
            load_replies: HashMap::new(),
        }
    }

    // ----- shard helpers ---------------------------------------------------

    fn shape(&self) -> Shape {
        shard::shape(self.cfg.shards)
    }

    /// Whether this broker is the authoritative store for `shard`.
    fn is_authoritative(&self, shard: u32) -> bool {
        self.master_shard == Some(shard)
    }

    /// Shard owning `key` (0 for keys validation will reject anyway —
    /// those error out before touching shard state).
    fn shard_of(&self, key: &str) -> u32 {
        shard::shard_of_key(key, self.cfg.shards).unwrap_or(0)
    }

    /// Parses an optional `shard` request parameter (absent → 0).
    fn shard_param(&self, msg: &Message) -> Result<u32, ()> {
        match msg.payload.get("shard") {
            None => Ok(0),
            Some(v) => match v.as_uint() {
                Some(s) if s < u64::from(self.cfg.shards.max(1)) => Ok(s as u32),
                _ => Err(()),
            },
        }
    }

    /// Answers `req` with `shard`'s current `(version, root)`.
    fn respond_slot_version(&self, ctx: &mut ModuleCtx<'_>, shard: u32, req: &Message) {
        // Shard indices are validated before they reach here; clamping
        // (slots is never empty) keeps this total — a reply is always
        // produced.
        let slot = &self.slots[(shard as usize).min(self.slots.len() - 1)];
        ctx.respond(req, self.shape().ack(shard, slot.version, slot.root));
    }

    // ----- payload helpers -------------------------------------------------

    fn tuples_to_value(tuples: &[Tuple]) -> Value {
        Value::Array(
            tuples
                .iter()
                .map(|(k, id)| {
                    Value::from_pairs([
                        ("k", Value::from(k.as_str())),
                        ("s", id.map(|i| Value::from(i.to_hex())).unwrap_or(Value::Null)),
                    ])
                })
                .collect(),
        )
    }

    fn tuples_from_value(v: Option<&Value>) -> Option<Vec<Tuple>> {
        let arr = v?.as_array()?;
        let mut out = Vec::with_capacity(arr.len());
        for t in arr {
            // flux-lint: allow(hotalloc) — decodes the wire batch into
            // the owned tuple list the apply walk consumes; the tuples
            // outlive the message, so the keys must be owned.
            let k = t.get("k")?.as_str()?.to_owned();
            let s = match t.get("s") {
                Some(Value::Null) | None => None,
                Some(sv) => Some(ObjectId::from_hex(sv.as_str()?).ok()?),
            };
            out.push((k, s));
        }
        Some(out)
    }

    fn objects_to_value(objects: &BTreeMap<ObjectId, Arc<KvsObject>>) -> Value {
        let mut m = Map::new();
        for (id, obj) in objects {
            m.insert(id.to_hex(), obj.to_value());
        }
        Value::Object(m)
    }

    fn objects_from_value(v: Option<&Value>) -> Option<BTreeMap<ObjectId, Arc<KvsObject>>> {
        let m = v?.as_object()?;
        let mut out = BTreeMap::new();
        for (hex, objv) in m {
            let id = ObjectId::from_hex(hex).ok()?;
            let obj = KvsObject::from_value(objv).ok()?;
            if obj.id() != id {
                return None;
            }
            out.insert(id, Arc::new(obj));
        }
        Some(out)
    }
}

impl Default for KvsModule {
    fn default() -> Self {
        Self::new()
    }
}

impl CommsModule for KvsModule {
    fn name(&self) -> &'static str {
        "kvs"
    }

    fn subscriptions(&self) -> Vec<String> {
        vec![Event::KvsSetroot.topic_str().to_owned()]
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        // A session narrower than the shard count degrades gracefully:
        // clamp, so every shard master actually exists.
        self.cfg.shards = self.cfg.shards.max(1).min(ctx.size());
        if self.slots.len() != self.cfg.shards as usize {
            let root = KvsObject::empty_dir().id();
            self.slots = (0..self.cfg.shards).map(|_| ShardSlot::new(root)).collect();
        }
        let rank = ctx.rank().0;
        self.master_shard = (rank < self.cfg.shards).then_some(rank);
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        match KvsMethod::from_method(msg.header.topic.method()) {
            Some(KvsMethod::Put) => self.handle_put(ctx, msg, false),
            Some(KvsMethod::Unlink) => self.handle_put(ctx, msg, true),
            Some(KvsMethod::Commit) => self.handle_commit(ctx, msg),
            // The tree route: a `kvs.push` climbs to shard 0's master.
            Some(KvsMethod::Push) if !self.is_authoritative(0) => self.relay_push(ctx, msg),
            Some(KvsMethod::Push) => self.handle_push(ctx, msg, false),
            Some(KvsMethod::ShardPush) => self.handle_push(ctx, msg, true),
            Some(KvsMethod::Fence) => self.handle_fence(ctx, msg),
            Some(KvsMethod::FenceUp) => self.handle_fence_up(ctx, msg),
            Some(KvsMethod::Get) => self.handle_get(ctx, msg),
            Some(KvsMethod::Load) => self.handle_load(ctx, msg),
            Some(KvsMethod::GetVersion) => match self.shard_param(msg) {
                Ok(shard) => self.respond_slot_version(ctx, shard, msg),
                Err(()) => ctx.respond_err(msg, errnum::EINVAL),
            },
            Some(KvsMethod::WaitVersion) => self.handle_wait_version(ctx, msg),
            Some(KvsMethod::Watch) => self.handle_watch(ctx, msg),
            Some(KvsMethod::Unwatch) => self.handle_unwatch(ctx, msg),
            Some(KvsMethod::Stats) => {
                let s = self.cache.stats();
                let mut stats = Value::from_pairs([
                    ("entries", Value::from(s.entries)),
                    ("bytes", Value::from(s.bytes)),
                    ("hits", Value::from(s.hits as i64)),
                    ("misses", Value::from(s.misses as i64)),
                    ("expired", Value::from(s.expired as i64)),
                    ("version", Value::from(self.slots[0].version as i64)),
                    ("commits", Value::from(self.commits_applied as i64)),
                    ("pushes_batched", Value::from(self.pushes_batched as i64)),
                    ("lookup_hits", Value::from(self.lookup_hits as i64)),
                ]);
                if let Shape::Sharded(n) = self.shape() {
                    stats.insert("shards", Value::from(n as i64));
                }
                ctx.respond(msg, stats);
            }
            None => ctx.respond_err(msg, errnum::ENOSYS),
        }
    }

    fn handle_response(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let id = msg.header.id;
        if let Some((obj_id, shard)) = self.inflight_loads.remove(&id) {
            if msg.is_error() && msg.header.errnum != errnum::ENOENT {
                // Transient failure (e.g. the shard master is blacked
                // out): a false ENOENT here would violate monotonic
                // reads, so keep the waiters parked and retry on the
                // next heartbeat.
                self.load_retries.push((obj_id, shard));
                return;
            }
            self.load_response(ctx, msg, obj_id);
            return;
        }
        if let Some(original) = self.push_relays.remove(&id) {
            self.relay_response(ctx, msg, &original);
            return;
        }
        if let Some((join_id, shard)) = self.join_parts.remove(&id) {
            let reply = if !msg.is_error() {
                PartReply::Acked(shard::frontier_of(&msg.payload))
            } else if msg.header.errnum == errnum::EINVAL {
                // Validation failure (e.g. the rank does not master the
                // shard): re-sending the same part can never succeed.
                PartReply::Failed(msg.header.errnum)
            } else {
                // Transient failure (e.g. the master is blacked out):
                // the heartbeat re-sends the part.
                PartReply::Retry
            };
            self.join_reply(ctx, join_id, shard, reply);
        }
    }

    fn handle_event(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.header.topic.as_str() != Event::KvsSetroot.topic_str() {
            return;
        }
        // A fence failed at the coordinator (a master answered a part
        // with the permanent wrong-master EINVAL): fail local waiters
        // with its code instead of leaving them parked forever.
        if let Some(failed) = msg.payload.get("fences_failed").and_then(Value::as_array) {
            let code = msg.payload.get("errnum").and_then(Value::as_uint);
            let code = code.unwrap_or(u64::from(errnum::EINVAL)) as u32;
            self.answer_fence_waiters(ctx, failed, &Err(code));
            return;
        }
        // Adopt every announced root first, then release fence waiters
        // with the announced cut — waiters always read an applied cut.
        let cut = shard::frontier_of(&msg.payload);
        self.adopt_cut(ctx, &cut);
        let fences = msg.payload.get("fences").and_then(Value::as_array);
        if let Some(fences) = fences.filter(|f| !f.is_empty()) {
            let answer = Ok(self.shape().result(&cut));
            self.answer_fence_waiters(ctx, fences, &answer);
        }
    }

    fn on_heartbeat(&mut self, ctx: &mut ModuleCtx<'_>, epoch: u64) {
        self.cache.set_epoch(epoch);
        self.epoch = epoch;
        // Masters are authoritative for their slot's whole tree: they
        // never expire. Everyone else pins the current roots.
        if self.master_shard.is_none() {
            let pinned: Vec<ObjectId> = self.slots.iter().map(|s| s.root).collect();
            let expiry = ctx.config().kvs_expiry_epochs.max(self.cfg.expiry_epochs);
            self.cache.expire(expiry, &pinned);
        }
        self.retry_loads(ctx);
        self.retry_joins(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        if self.batch_tokens.remove(&token) {
            self.flush_batch(ctx);
            return;
        }
        if let Some(name) = self.fence_tokens.remove(&token) {
            self.flush_fence(ctx, &name);
        }
    }
}
