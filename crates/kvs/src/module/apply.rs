//! Authoritative apply: the shard master's side of a commit. Pushes
//! park in a batching window and apply in one hash-tree walk; the
//! dedup memos make transport duplicates and coordinator retries
//! harmless.

use super::KvsModule;
use crate::master::{apply_tuples, Tuple};
use crate::object::KvsObject;
use crate::shard::{self, Route};
use flux_broker::ModuleCtx;
use flux_hash::ObjectId;
use flux_proto::Event;
use flux_value::Value;
use flux_wire::{errnum, Message, MsgId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One push parked at a master awaiting a coalesced apply: the request
/// to answer, its tuples, and its value objects.
pub(super) type ParkedPush = (Message, Vec<Tuple>, BTreeMap<ObjectId, Arc<KvsObject>>);

impl KvsModule {
    /// Applies a batch to the shard this broker masters and returns the
    /// new `(version, root)`. A commit apply announces the root with a
    /// `kvs.setroot`; a fence part (`fence = Some(name)`) applies quietly
    /// and is memoized — the coordinator announces the fence's whole cut
    /// in one event once every part committed.
    pub(super) fn apply(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        tuples: &[Tuple],
        objects: BTreeMap<ObjectId, Arc<KvsObject>>,
        fence: Option<&str>,
    ) -> (u64, ObjectId) {
        let shard = self.master_shard.unwrap_or(0);
        for (id, obj) in objects {
            // Decoded objects are usually uniquely held here, so this is
            // a move, not a copy; the clone only runs for a shared Arc.
            self.cache.insert_with_id(id, Arc::try_unwrap(obj).unwrap_or_else(|a| (*a).clone()));
        }
        let si = shard as usize;
        let root = apply_tuples(&mut self.cache, self.slots[si].root, tuples);
        let version = self.slots[si].version + 1;
        self.commits_applied += 1;
        self.adopt_root(ctx, shard, version, root);
        match fence {
            Some(name) => self.note_fence_applied(name, version, root),
            None => {
                let mut ev = self.shape().ack(shard, version, root);
                ev.insert("fences", Value::array());
                ctx.publish(Event::KvsSetroot.topic(), ev);
            }
        }
        (version, root)
    }

    fn note_fence_applied(&mut self, name: &str, version: u64, root: ObjectId) {
        // flux-lint: allow(hotalloc) — once per collective fence, not
        // per commit; the applied-fence dedup memo owns its keys.
        if self.fence_applied.insert(name.to_owned(), (version, root)).is_none() {
            // flux-lint: allow(hotalloc) — same: eviction order needs
            // its own owned copy of the fence name.
            self.fence_applied_order.push_back(name.to_owned());
            if self.fence_applied_order.len() > 64 {
                if let Some(old) = self.fence_applied_order.pop_front() {
                    self.fence_applied.remove(&old);
                }
            }
        }
    }

    /// Records a push request id; returns false if it was already seen
    /// (a transport-level duplicate or a coordinator re-send, which keeps
    /// its id — the fault layer can duplicate frames, and a late copy
    /// re-applying an old batch after newer commits would silently rewind
    /// keys).
    pub(super) fn note_push(&mut self, id: MsgId) -> bool {
        if !self.seen_pushes.insert(id) {
            return false;
        }
        self.seen_push_order.push_back(id);
        if self.seen_push_order.len() > 4096 {
            if let Some(old) = self.seen_push_order.pop_front() {
                self.seen_pushes.remove(&old);
            }
        }
        true
    }

    /// A commit part for a shard this broker masters: a `kvs.push` that
    /// climbed the tree (shard 0 unless it names one), or a
    /// `kvs.shard.push`, which must name a shard whose route leads here.
    pub(super) fn handle_push(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        msg: &Message,
        rank_addressed: bool,
    ) {
        // A rank-addressed part must name its shard, and that shard's
        // route must lead here (it never does at one shard).
        let named = msg.payload.get("shard").is_some();
        let here = Route::Rank(ctx.rank());
        let shard = self.shard_param(msg).ok().filter(|&s| {
            if rank_addressed {
                named && shard::route(self.cfg.shards, s) == here
            } else {
                self.is_authoritative(s)
            }
        });
        // Parts addressed to a rank that does not master their shard are
        // rejected, not silently applied to the wrong tree.
        let Some(shard) = shard else {
            ctx.respond_err(msg, errnum::EINVAL);
            return;
        };
        let fence = msg.payload.get("fence").and_then(Value::as_str);
        if let Some(&(version, root)) = fence.and_then(|name| self.fence_applied.get(name)) {
            // A coordinator retry of an already-applied fence part (our
            // reply, or its first push, was lost to a blackout):
            // re-answer the recorded result, never double-apply.
            ctx.respond(msg, self.shape().ack(shard, version, root));
            return;
        }
        if self.cfg.dedup && !self.note_push(msg.header.id) {
            if self.batch_ids.contains(&msg.header.id) {
                // The original is still parked in the push batch; its
                // reply, to the same request id, comes with the batch
                // flush. Answering the copy now would expose the
                // pre-apply version (a read-your-writes violation for the
                // committer).
                // flux-lint: allow(reply)
                return;
            }
            // Re-answer with the current version: the response to the
            // first copy may itself have been lost in transit.
            self.respond_slot_version(ctx, shard, msg);
            return;
        }
        let (Some(tuples), Some(objects)) = (
            Self::tuples_from_value(msg.payload.get("tuples")),
            Self::objects_from_value(msg.payload.get("objects")),
        ) else {
            ctx.respond_err(msg, errnum::EINVAL);
            return;
        };
        if fence.is_some() || self.cfg.batch_window_ns == 0 {
            // Fence parts apply immediately (the coordinator's combined
            // event is their one announcement, so a fence is never
            // released against a half-applied cut); with batching off
            // every push does.
            self.apply(ctx, &tuples, objects, fence);
            self.respond_slot_version(ctx, shard, msg);
            return;
        }
        // Park the push: concurrent pushes inside the window share one
        // hash-tree walk, one version bump, and one setroot broadcast.
        // Tuples later concatenate in arrival order, so the merged
        // application equals applying them sequentially.
        self.pushes_batched += 1;
        self.batch_ids.insert(msg.header.id);
        // flux-lint: allow(hotalloc) — parks the request so the batch
        // flush can answer it; Message clones are header-shallow (Arc'd
        // topic and payload), so this is refcount bumps, not a copy.
        self.batch.push((msg.clone(), tuples, objects));
        if self.batch.len() >= self.cfg.batch_max {
            self.flush_batch(ctx);
        } else if !self.batch_armed {
            self.batch_armed = true;
            self.next_token += 1;
            let token = self.next_token;
            self.batch_tokens.insert(token);
            ctx.set_timer(self.cfg.batch_window_ns, token);
        }
    }

    /// Applies every parked push in one hash-tree walk and answers each
    /// committer with the single resulting version.
    pub(super) fn flush_batch(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.batch_armed = false;
        if self.batch.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.batch);
        self.batch_ids.clear();
        let mut tuples = Vec::new();
        let mut objects: BTreeMap<ObjectId, Arc<KvsObject>> = BTreeMap::new();
        let mut reqs = Vec::with_capacity(parked.len());
        for (req, t, o) in parked {
            tuples.extend(t);
            // Content-addressed objects: identical values across pushes
            // merge to one entry, exactly like the fence-side dedup.
            objects.extend(o);
            reqs.push(req);
        }
        self.apply(ctx, &tuples, objects, None);
        let shard = self.master_shard.unwrap_or(0);
        for req in reqs {
            self.respond_slot_version(ctx, shard, &req);
        }
    }
}
