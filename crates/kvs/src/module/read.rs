//! The read side: root switches, hash-tree walks with fault-in through
//! the cache chain, the slave lookup memo, watches and `wait_version`.

use super::{requester_of, KvsModule};
use crate::object::KvsObject;
use crate::shard::{self, Frontier};
use flux_broker::ModuleCtx;
use flux_hash::ObjectId;
use flux_proto::KvsMethod;
use flux_value::{Map, Value};
use flux_wire::{errnum, Message, Payload};

/// One parked lookup walking the hash tree.
pub(super) struct Walk {
    kind: WalkKind,
    components: Vec<String>,
    /// Next component index to consume.
    idx: usize,
    /// Object id to load next.
    cur: ObjectId,
    /// Directory listing requested instead of a value.
    want_dir: bool,
    /// Store version the walk started under. A walk can park on a
    /// fault-in and resume after a root switch; its (correct, but old)
    /// resolution must then not poison the lookup memo.
    version: u64,
    /// Shard whose tree this walk descends.
    shard: u32,
}

enum WalkKind {
    /// Answer this request with the final value.
    Get(Message),
    /// Re-check a watcher after a root switch.
    WatchCheck(u64),
}

/// How a walk ended.
enum WalkEnd {
    Value(Value),
    DirListing(Value),
    Err(u32),
}

pub(super) struct Watcher {
    req: Message,
    key: String,
    requester: super::Requester,
    last: Option<Value>,
    /// Shard owning the watched key: only that slot's root switches
    /// re-walk this watcher.
    shard: u32,
}

fn dir_listing(entries: &std::collections::BTreeMap<String, ObjectId>) -> Value {
    let mut listing = Map::new();
    for (name, child) in entries {
        listing.insert(name.clone(), Value::from(child.to_hex()));
    }
    Value::Object(listing)
}

impl KvsModule {
    /// Adopts a newer root for `shard`; stale/duplicate versions are
    /// ignored, which (with the total event order) gives per-shard
    /// monotonic reads.
    pub(super) fn adopt_root(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        shard: u32,
        version: u64,
        root: ObjectId,
    ) {
        let Some(slot) = self.slots.get_mut(shard as usize) else { return };
        if version <= slot.version {
            return;
        }
        slot.version = version;
        slot.root = root;
        // Root switch invalidates the key→object memo *before* any
        // wait_version waiter wakes below: a get issued after a
        // satisfied wait_version can never observe a stale memo entry.
        slot.lookup.clear();
        // Causal consistency: wake wait_version callers on this slot.
        let (ready, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut slot.version_waiters)
            .into_iter()
            .partition(|(v, _)| *v <= version);
        slot.version_waiters = rest;
        for (_, req) in ready {
            self.respond_slot_version(ctx, shard, &req);
        }
        // Re-check this shard's watchers against the new tree
        // (deterministic insertion-id order).
        // flux-lint: allow(hotalloc) — watcher-id snapshot, once per
        // root switch (per flushed batch, not per message): start_walk
        // below re-enters &mut self, so iterating the map directly
        // would hold its borrow across the walk.
        let ids: Vec<u64> = self
            .watchers
            .iter()
            .filter(|(_, w)| w.shard == shard)
            .map(|(id, _)| *id)
            .collect();
        for w in ids {
            let key = match self.watchers.get(&w) {
                // flux-lint: allow(hotalloc) — watched keys are short
                // and this runs once per watcher per root switch; the
                // walk parks the key in its own state.
                Some(watcher) => watcher.key.clone(),
                None => continue,
            };
            self.start_walk(ctx, WalkKind::WatchCheck(w), &key, false);
        }
    }

    /// Adopts every root a cut names.
    pub(super) fn adopt_cut(&mut self, ctx: &mut ModuleCtx<'_>, cut: &Frontier) {
        for (&shard, &(version, root)) in cut {
            self.adopt_root(ctx, shard, version, root);
        }
    }

    pub(super) fn handle_wait_version(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let (Some(v), Ok(shard)) =
            (msg.payload.get("version").and_then(Value::as_uint), self.shard_param(msg))
        else {
            ctx.respond_err(msg, errnum::EINVAL);
            return;
        };
        let Some(slot) = self.slots.get_mut(shard as usize) else {
            ctx.respond_err(msg, errnum::EINVAL);
            return;
        };
        if slot.version >= v {
            self.respond_slot_version(ctx, shard, msg);
        } else {
            slot.version_waiters.push((v, msg.clone()));
        }
    }

    /// Builds (or reuses) the shared `kvs.load` reply payload for `id`.
    fn load_reply(&mut self, id: ObjectId, obj: &KvsObject) -> Payload {
        if self.load_replies.len() > 8192 {
            self.load_replies.clear();
        }
        self.load_replies
            .entry(id)
            .or_insert_with(|| {
                Payload::from(Value::from_pairs([
                    ("id", Value::from(id.to_hex())),
                    ("obj", obj.to_value()),
                ]))
            })
            .clone()
    }

    fn start_walk(&mut self, ctx: &mut ModuleCtx<'_>, kind: WalkKind, key: &str, want_dir: bool) {
        let components = match crate::path::key_components(key) {
            Ok(c) => c,
            Err(e) => {
                if let WalkKind::Get(req) = kind {
                    ctx.respond_err(&req, e.errnum());
                }
                return;
            }
        };
        let shard = self.shard_of(key);
        let (cur, version) = match self.slots.get(shard as usize) {
            Some(slot) => (slot.root, slot.version),
            None => return,
        };
        self.next_walk += 1;
        let id = self.next_walk;
        self.walks.insert(id, Walk { kind, components, idx: 0, cur, want_dir, version, shard });
        self.step_walk(ctx, id);
    }

    /// Advances a walk until it finishes or parks on a missing object.
    fn step_walk(&mut self, ctx: &mut ModuleCtx<'_>, walk_id: u64) {
        loop {
            let Some(walk) = self.walks.get(&walk_id) else { return };
            let cur = walk.cur;
            let Some(obj) = self.cache.get(cur) else {
                self.park_walk(ctx, walk_id, cur);
                return;
            };
            let Some(walk) = self.walks.get_mut(&walk_id) else { return };
            if walk.idx == walk.components.len() {
                // Watch checks accept either kind: a watched directory's
                // listing changes whenever any key under it (at any path
                // depth) changes, because child hashes cascade upward —
                // the paper's directory-watch semantics for free.
                let watching = matches!(walk.kind, WalkKind::WatchCheck(_));
                let end = match (&*obj, walk.want_dir || watching) {
                    (KvsObject::Val(v), _) if !walk.want_dir => WalkEnd::Value(v.clone()),
                    (KvsObject::Val(_), _) => WalkEnd::Err(errnum::ENOTDIR),
                    (KvsObject::Dir(_), false) => WalkEnd::Err(errnum::EISDIR),
                    (KvsObject::Dir(entries), true) => WalkEnd::DirListing(dir_listing(entries)),
                };
                // Memoize successful get resolutions under the current
                // root: repeat gets of the same key skip the walk. A walk
                // that parked across a root switch resolved against the
                // old tree — its answer is legal for the caller (the get
                // predates the switch) but must not enter the memo, or a
                // get issued *after* a satisfied wait_version could read
                // the stale object.
                let shard = walk.shard;
                let walk_version = walk.version;
                let memo_key = (matches!(walk.kind, WalkKind::Get(_))
                    && matches!(end, WalkEnd::Value(_) | WalkEnd::DirListing(_)))
                .then(|| (walk.components.join("."), walk.want_dir));
                let slot_version =
                    self.slots.get(shard as usize).map(|s| s.version).unwrap_or(0);
                if let Some(memo) = memo_key {
                    if self.cfg.lookup_cache
                        && !self.is_authoritative(shard)
                        && walk_version == slot_version
                    {
                        if let Some(slot) = self.slots.get_mut(shard as usize) {
                            slot.lookup.insert(memo, cur);
                        }
                    }
                }
                self.finish_walk(ctx, walk_id, end);
                return;
            }
            match &*obj {
                KvsObject::Dir(entries) => {
                    let comp = &walk.components[walk.idx];
                    match entries.get(comp) {
                        Some(next) => {
                            walk.cur = *next;
                            walk.idx += 1;
                        }
                        None => {
                            self.finish_walk(ctx, walk_id, WalkEnd::Err(errnum::ENOENT));
                            return;
                        }
                    }
                }
                KvsObject::Val(_) => {
                    self.finish_walk(ctx, walk_id, WalkEnd::Err(errnum::ENOTDIR));
                    return;
                }
            }
        }
    }

    fn park_walk(&mut self, ctx: &mut ModuleCtx<'_>, walk_id: u64, missing: ObjectId) {
        let shard = match self.walks.get(&walk_id) {
            Some(w) => w.shard,
            None => return,
        };
        if self.is_authoritative(shard) {
            // Authoritative store: a miss is a hard ENOENT.
            self.finish_walk(ctx, walk_id, WalkEnd::Err(errnum::ENOENT));
            return;
        }
        let entry = self.load_waiters.entry(missing).or_default();
        entry.0.push(walk_id);
        let need_request = entry.0.len() == 1 && entry.1.is_empty();
        if need_request {
            self.request_load(ctx, missing, shard);
        }
    }

    /// Faults one object in through the layered read path: up the tree,
    /// so every ancestor is a cache tier. The root, which has no parent,
    /// asks the shard's master rank-addressed.
    fn request_load(&mut self, ctx: &mut ModuleCtx<'_>, id: ObjectId, shard: u32) {
        let mut payload = Value::from_pairs([("id", Value::from(id.to_hex()))]);
        self.shape().tag(&mut payload, shard);
        if ctx.parent().is_none() && !self.is_authoritative(shard) {
            let req_id =
                ctx.request_to_rank(shard::master_of(shard), KvsMethod::Load.topic(), payload);
            self.inflight_loads.insert(req_id, (id, shard));
            return;
        }
        match ctx.request_upstream(KvsMethod::Load.topic(), payload) {
            Ok(req_id) => {
                self.inflight_loads.insert(req_id, (id, shard));
            }
            // The shard's own master has no parent: the object does not
            // exist.
            Err(_) => self.complete_load(ctx, id, None),
        }
    }

    /// Heartbeat: re-requests transiently failed loads whose waiters are
    /// still parked, in the order they failed.
    pub(super) fn retry_loads(&mut self, ctx: &mut ModuleCtx<'_>) {
        for (id, shard) in std::mem::take(&mut self.load_retries) {
            if self.load_waiters.contains_key(&id) {
                self.request_load(ctx, id, shard);
            }
        }
    }

    /// A load reply (an object, or ENOENT) for `obj_id`.
    pub(super) fn load_response(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        msg: &Message,
        obj_id: ObjectId,
    ) {
        let obj = if msg.is_error() {
            None
        } else {
            msg.payload.get("obj").and_then(|v| KvsObject::from_value(v).ok())
        };
        // Verify the content address before trusting a loaded object.
        let obj = obj.filter(|o| o.id() == obj_id);
        if obj.is_some() {
            // The upstream reply payload is exactly the reply this
            // broker would build for its own children — seed the memo
            // with it so the object is serialized once session-wide
            // (at the master), not once per level of the cache chain.
            self.load_replies.entry(obj_id).or_insert_with(|| msg.payload.clone());
        }
        self.complete_load(ctx, obj_id, obj);
    }

    /// Resolves a load: `obj = None` means the object does not exist.
    fn complete_load(&mut self, ctx: &mut ModuleCtx<'_>, id: ObjectId, obj: Option<KvsObject>) {
        if let Some(obj) = obj {
            // Read-path caching at every level of the chain: this is what
            // lets C consumers share log2(C) transfers (Fig. 4 model).
            self.cache.insert_with_id(id, obj);
        }
        let Some((walks, requests)) = self.load_waiters.remove(&id) else { return };
        let available = self.cache.contains(id);
        // One shared reply payload answers every child waiting on this id.
        let reply = self.cache.get(id).map(|obj| self.load_reply(id, &obj));
        for req in requests {
            match &reply {
                Some(payload) => ctx.respond(&req, payload.clone()),
                None => ctx.respond_err(&req, errnum::ENOENT),
            }
        }
        for walk_id in walks {
            if available {
                self.step_walk(ctx, walk_id);
            } else {
                self.finish_walk(ctx, walk_id, WalkEnd::Err(errnum::ENOENT));
            }
        }
    }

    fn finish_walk(&mut self, ctx: &mut ModuleCtx<'_>, walk_id: u64, end: WalkEnd) {
        let Some(walk) = self.walks.remove(&walk_id) else { return };
        match walk.kind {
            WalkKind::Get(req) => match end {
                WalkEnd::Value(v) => ctx.respond(&req, Value::from_pairs([("v", v)])),
                WalkEnd::DirListing(l) => ctx.respond(&req, Value::from_pairs([("dir", l)])),
                WalkEnd::Err(e) => ctx.respond_err(&req, e),
            },
            WalkKind::WatchCheck(watcher_id) => {
                let new_val = match end {
                    WalkEnd::Value(v) => Some(v),
                    WalkEnd::DirListing(l) => Some(l),
                    WalkEnd::Err(_) => None,
                };
                let Some(w) = self.watchers.get_mut(&watcher_id) else { return };
                if w.last != new_val {
                    w.last = new_val.clone();
                    let payload = Value::from_pairs([
                        ("k", Value::from(w.key.as_str())),
                        ("v", new_val.unwrap_or(Value::Null)),
                    ]);
                    let req = w.req.clone();
                    ctx.respond(&req, payload);
                }
            }
        }
    }

    pub(super) fn handle_get(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let Some(key) = msg.payload.get("k").and_then(Value::as_str).map(str::to_owned) else {
            ctx.respond_err(msg, errnum::EINVAL);
            return;
        };
        let want_dir = msg.payload.get("dir").and_then(Value::as_bool).unwrap_or(false);
        let shard = self.shard_of(&key);
        // Memo fast path: a prior resolution under the current root maps
        // the key straight to its object — no per-component tree walk.
        if self.cfg.lookup_cache && !self.is_authoritative(shard) {
            let memo = (key.clone(), want_dir);
            let hit = self.slots.get(shard as usize).and_then(|s| s.lookup.get(&memo).copied());
            if let Some(id) = hit {
                if let Some(obj) = self.cache.get(id) {
                    let payload = match (&*obj, want_dir) {
                        (KvsObject::Val(v), false) => Some(Value::from_pairs([("v", v.clone())])),
                        (KvsObject::Dir(entries), true) => {
                            Some(Value::from_pairs([("dir", dir_listing(entries))]))
                        }
                        _ => None,
                    };
                    if let Some(p) = payload {
                        self.lookup_hits += 1;
                        ctx.respond(msg, p);
                        return;
                    }
                }
                // The memoized object expired from the cache (or shape
                // mismatch): drop the entry and fault it back in through
                // the normal walk.
                if let Some(slot) = self.slots.get_mut(shard as usize) {
                    slot.lookup.remove(&memo);
                }
            }
        }
        self.start_walk(ctx, WalkKind::Get(msg.clone()), &key, want_dir);
    }

    pub(super) fn handle_load(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let id = msg
            .payload
            .get("id")
            .and_then(Value::as_str)
            .and_then(|h| ObjectId::from_hex(h).ok());
        let Some(id) = id else {
            ctx.respond_err(msg, errnum::EINVAL);
            return;
        };
        if let Some(obj) = self.cache.get(id) {
            let payload = self.load_reply(id, &obj);
            ctx.respond(msg, payload);
            return;
        }
        let shard = msg.payload.get("shard").and_then(Value::as_uint).unwrap_or(0) as u32;
        if self.is_authoritative(shard) {
            ctx.respond_err(msg, errnum::ENOENT);
            return;
        }
        let entry = self.load_waiters.entry(id).or_default();
        entry.1.push(msg.clone());
        let need_request = entry.0.is_empty() && entry.1.len() == 1;
        if need_request {
            self.request_load(ctx, id, shard);
        }
    }

    pub(super) fn handle_watch(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let Some(key) = msg.payload.get("k").and_then(Value::as_str).map(str::to_owned) else {
            ctx.respond_err(msg, errnum::EINVAL);
            return;
        };
        self.next_watcher += 1;
        let id = self.next_watcher;
        let shard = self.shard_of(&key);
        self.watchers.insert(
            id,
            Watcher {
                req: msg.clone(),
                key: key.clone(),
                requester: requester_of(msg),
                // Sentinel distinct from any real state so the initial
                // check always responds (even for a missing key -> null).
                last: Some(Value::from("\u{0}__kvs_unset__")),
                shard,
            },
        );
        self.start_walk(ctx, WalkKind::WatchCheck(id), &key, false);
    }

    pub(super) fn handle_unwatch(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let Some(key) = msg.payload.get("k").and_then(Value::as_str) else {
            ctx.respond_err(msg, errnum::EINVAL);
            return;
        };
        let requester = requester_of(msg);
        self.watchers.retain(|_, w| !(w.key == key && w.requester == requester));
        ctx.respond(msg, Value::object());
    }
}
