//! Write coordination: staged puts, commit and fence joins, the fence
//! reduction up the tree, and the heartbeat retry of unacknowledged
//! parts.
//!
//! A commit (at the committer's broker) and a fence (at the root, once
//! every participant contributed) run the same join: partition the
//! write set per shard, apply the parts this broker masters, send the
//! others along [`shard::route`], and answer the owner with the
//! assembled frontier once every part acknowledged.

use super::{requester_of, KvsModule};
use crate::master::Tuple;
use crate::object::KvsObject;
use crate::path::validate_key;
use crate::shard::{self, Frontier, Route};
use flux_broker::ModuleCtx;
use flux_hash::ObjectId;
use flux_proto::{Event, KvsMethod};
use flux_value::Value;
use flux_wire::{errnum, Message, MsgId, Payload};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Per-requester write-back state (puts not yet committed/fenced).
#[derive(Default)]
pub(super) struct PendingWrites {
    tuples: Vec<Tuple>,
    objects: BTreeMap<ObjectId, Arc<KvsObject>>,
}

/// Fence accumulation state at one broker.
#[derive(Default)]
pub(super) struct FenceAcc {
    nprocs: u64,
    /// Total contributions seen here (at the root: session-wide total).
    count: u64,
    /// Contributions not yet flushed upstream (non-root brokers only).
    unflushed_count: u64,
    tuples: Vec<Tuple>,
    objects: BTreeMap<ObjectId, Arc<KvsObject>>,
    /// Local client fence requests awaiting completion.
    waiters: Vec<Message>,
    /// Local requesters that already contributed: a process fencing the
    /// same name twice must not count as two of `nprocs` participants.
    contributors: HashSet<super::Requester>,
    /// `(source rank, batch id)` of child batches already merged here:
    /// a transport-duplicated `kvs.fence.up` frame must not double-count
    /// its contributions and complete the fence early.
    seen_batches: HashSet<(u32, u64)>,
    /// A flush window timer is pending.
    window_armed: bool,
}

/// Who a join answers once its frontier is complete.
pub(super) enum Owner {
    /// A `kvs.commit` request.
    Committer(Message),
    /// A fence at the root coordinator: its name and local waiters.
    Fence(String, Vec<Message>),
}

/// How a shard master answered one part.
#[derive(Debug, PartialEq)]
pub(super) enum PartReply {
    /// Applied: the cut the master's reply names.
    Acked(Frontier),
    /// Lost to a transient failure (e.g. the master is blacked out):
    /// the heartbeat re-sends it.
    Retry,
    /// A validation failure: re-sending cannot succeed, so the whole
    /// join fails with this code.
    Failed(u32),
}

/// Where a join stands after a reply.
#[derive(Debug, PartialEq)]
pub(super) enum Step {
    Pending,
    Done,
    Failed(u32),
}

/// One unacknowledged part.
struct Part {
    route: Route,
    payload: Payload,
    /// Request id of the latest send. Kept after a transient failure: a
    /// rank-addressed part is always re-sent under the same id.
    id: Option<MsgId>,
    /// Heartbeat epoch of the send awaiting an answer; `None` while
    /// unsent or after a transient failure.
    in_flight: Option<u64>,
}

/// One commit or fence split into per-shard parts. Pure bookkeeping:
/// the module applies local parts, sends the due ones, and answers the
/// owner when [`Join::reply`] says so.
pub(super) struct Join {
    owner: Owner,
    /// shard → `(version, root)` committed so far.
    frontier: Frontier,
    /// shard → part not yet acknowledged.
    parts: BTreeMap<u32, Part>,
}

impl Join {
    pub(super) fn new(owner: Owner) -> Join {
        Join { owner, frontier: Frontier::new(), parts: BTreeMap::new() }
    }

    /// Records a part applied at `(version, root)`.
    pub(super) fn record(&mut self, shard: u32, version: u64, root: ObjectId) {
        self.parts.remove(&shard);
        self.frontier.insert(shard, (version, root));
    }

    /// Adds a part that must travel to its shard master along `route`.
    pub(super) fn stage(&mut self, shard: u32, route: Route, payload: Payload) {
        self.parts.insert(shard, Part { route, payload, id: None, in_flight: None });
    }

    /// Whether every part has been acknowledged.
    pub(super) fn is_done(&self) -> bool {
        self.parts.is_empty()
    }

    /// The parts to (re-)send at heartbeat `epoch`: unsent parts, parts
    /// answered with a transient error, and — on a route that
    /// [`Route::resends_in_flight`] — parts in flight since before the
    /// previous epoch, a full heartbeat period without an answer. Each
    /// comes with its route and, for a rank-addressed part sent before,
    /// the request id to send it under again. The module reports each
    /// send with [`Join::sent`].
    pub(super) fn due(&self, epoch: u64) -> Vec<(u32, Route, Payload, Option<MsgId>)> {
        let mut due = Vec::with_capacity(self.parts.len());
        for (shard, part) in &self.parts {
            let resend = part.route.resends_in_flight();
            if part.in_flight.is_some_and(|at| !resend || at + 1 >= epoch) {
                continue;
            }
            let reuse = part.id.filter(|_| resend);
            due.push((*shard, part.route, part.payload.clone(), reuse));
        }
        due
    }

    /// Records that `shard`'s part went out as request `id`.
    pub(super) fn sent(&mut self, shard: u32, id: MsgId, epoch: u64) {
        if let Some(part) = self.parts.get_mut(&shard) {
            part.id = Some(id);
            part.in_flight = Some(epoch);
        }
    }

    /// Folds in a master's answer for `shard`'s part.
    pub(super) fn reply(&mut self, shard: u32, reply: PartReply) -> Step {
        match reply {
            // A reply that names no outstanding part (a malformed ack)
            // leaves the part in flight until the retry re-sends it.
            PartReply::Acked(cut) => {
                for (s, (version, root)) in cut {
                    if self.parts.contains_key(&s) {
                        self.record(s, version, root);
                    }
                }
            }
            PartReply::Retry => {
                if let Some(part) = self.parts.get_mut(&shard) {
                    part.in_flight = None;
                }
            }
            PartReply::Failed(code) => return Step::Failed(code),
        }
        if self.is_done() {
            Step::Done
        } else {
            Step::Pending
        }
    }
}

impl KvsModule {
    pub(super) fn handle_put(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message, unlink: bool) {
        let Some(key) = msg.payload.get("k").and_then(Value::as_str) else {
            ctx.respond_err(msg, errnum::EINVAL);
            return;
        };
        if let Err(e) = validate_key(key) {
            // Registry-aligned rejection: size/depth violations are
            // ENAMETOOLONG, shape violations EINVAL.
            ctx.respond_err(msg, e.errnum());
            return;
        }
        let pend = self.pending.entry(requester_of(msg)).or_default();
        if unlink {
            pend.tuples.push((key.to_owned(), None));
        } else {
            let val = msg.payload.get("v").cloned().unwrap_or(Value::Null);
            let obj = KvsObject::Val(val);
            let id = obj.id();
            pend.objects.insert(id, Arc::new(obj));
            pend.tuples.push((key.to_owned(), Some(id)));
        }
        ctx.respond(msg, Value::object());
    }

    pub(super) fn handle_commit(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let pend = self.pending.remove(&requester_of(msg)).unwrap_or_default();
        self.start_join(ctx, Owner::Committer(msg.clone()), pend.tuples, &pend.objects, None);
    }

    /// Partitions a write set by key hash and starts its join: parts
    /// this broker masters apply inline, the rest go to their masters.
    fn start_join(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        owner: Owner,
        tuples: Vec<Tuple>,
        objects: &BTreeMap<ObjectId, Arc<KvsObject>>,
        fence: Option<&str>,
    ) {
        let parts = shard::partition_tuples(tuples, self.cfg.shards);
        let any = parts.iter().any(|p| !p.is_empty());
        let mut join = Join::new(owner);
        for (s, part) in (0u32..).zip(parts) {
            // A write set with no tuples still bumps shard 0, as the
            // single master bumps its version for an empty commit.
            if part.is_empty() && (any || s != 0) {
                continue;
            }
            let ids: HashSet<ObjectId> = part.iter().filter_map(|(_, id)| *id).collect();
            let objs: BTreeMap<ObjectId, Arc<KvsObject>> = objects
                .iter()
                .filter(|(id, _)| ids.contains(id))
                .map(|(id, obj)| (*id, obj.clone()))
                .collect();
            if self.is_authoritative(s) {
                let (version, root) = self.apply(ctx, &part, objs, fence);
                join.record(s, version, root);
            } else {
                let mut payload = Value::from_pairs([
                    ("tuples", Self::tuples_to_value(&part)),
                    ("objects", Self::objects_to_value(&objs)),
                ]);
                self.shape().tag(&mut payload, s);
                if let Some(name) = fence {
                    payload.insert("fence", Value::from(name));
                }
                join.stage(s, shard::route(self.cfg.shards, s), Payload::from(payload));
            }
        }
        self.next_join += 1;
        let join_id = self.next_join;
        self.joins.insert(join_id, join);
        self.send_join(ctx, join_id);
    }

    /// Sends a join's due parts along their routes, or answers its
    /// owner when nothing is left outstanding. Safe to call repeatedly:
    /// a tree-route part is only sent again when no hop forwarded it, and
    /// a rank-addressed re-send keeps its request id, so the master's
    /// push dedup answers a copy whose first send already landed instead
    /// of applying it twice.
    fn send_join(&mut self, ctx: &mut ModuleCtx<'_>, join_id: u64) {
        let due = match self.joins.get(&join_id) {
            Some(join) if join.is_done() => return self.close_join(ctx, join_id, Ok(())),
            Some(join) => join.due(self.epoch),
            None => return,
        };
        let mut sent = Vec::with_capacity(due.len());
        for (s, route, payload, reuse) in due {
            let Route::Rank(rank) = route else {
                // Up the tree. Without a live parent the part stays
                // unsent until the next heartbeat.
                if let Ok(id) = ctx.request_upstream(KvsMethod::Push.topic(), payload) {
                    self.join_parts.insert(id, (join_id, s));
                    sent.push((s, id));
                }
                continue;
            };
            if let Some(id) = reuse {
                // Whichever answer arrives first completes the part.
                ctx.resend_to_rank(id, rank, KvsMethod::ShardPush.topic(), payload);
                self.join_parts.insert(id, (join_id, s));
                sent.push((s, id));
                continue;
            }
            let id = ctx.request_to_rank(rank, KvsMethod::ShardPush.topic(), payload);
            self.join_parts.insert(id, (join_id, s));
            sent.push((s, id));
        }
        if let Some(join) = self.joins.get_mut(&join_id) {
            for (s, id) in sent {
                join.sent(s, id, self.epoch);
            }
        }
    }

    /// Heartbeat: every broker re-sends the due parts of its own joins,
    /// so a part lost to a blacked-out master completes once the master
    /// is back, wherever the commit was issued.
    pub(super) fn retry_joins(&mut self, ctx: &mut ModuleCtx<'_>) {
        let ids: Vec<u64> = self.joins.keys().copied().collect();
        for join_id in ids {
            self.send_join(ctx, join_id);
        }
    }

    /// A master answered `shard`'s part of join `join_id`.
    pub(super) fn join_reply(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        join_id: u64,
        shard: u32,
        reply: PartReply,
    ) {
        if let PartReply::Acked(cut) = &reply {
            // Read-your-writes: adopt the shard's new root before the
            // owner can be answered.
            self.adopt_cut(ctx, cut);
        }
        let Some(join) = self.joins.get_mut(&join_id) else { return };
        match join.reply(shard, reply) {
            Step::Pending => {}
            Step::Done => self.close_join(ctx, join_id, Ok(())),
            Step::Failed(code) => self.close_join(ctx, join_id, Err(code)),
        }
    }

    /// Ends a join: every part committed (`Ok`), or one failed
    /// permanently (`Err(code)`; parts already applied stay applied, and
    /// a client treats an errored commit as staged-uncertain). A fence's
    /// outcome is announced in one `kvs.setroot` — slaves adopt the cut
    /// and answer their waiters — before the root answers its own.
    fn close_join(&mut self, ctx: &mut ModuleCtx<'_>, join_id: u64, outcome: Result<(), u32>) {
        let Some(join) = self.joins.remove(&join_id) else { return };
        let shape = self.shape();
        let answer = outcome.map(|()| shape.result(&join.frontier));
        match join.owner {
            Owner::Committer(req) => respond_with(ctx, &req, &answer),
            Owner::Fence(name, waiters) => {
                let event = match outcome {
                    Ok(()) => shape.fence_event(&join.frontier, &name),
                    Err(code) => Value::from_pairs([
                        ("fences_failed", Value::Array(vec![Value::from(name)])),
                        ("errnum", Value::from(code as i64)),
                    ]),
                };
                ctx.publish(Event::KvsSetroot.topic(), event);
                for req in waiters {
                    respond_with(ctx, &req, &answer);
                }
            }
        }
    }

    /// An interior broker on the tree route forwards a `kvs.push` to
    /// its parent.
    pub(super) fn relay_push(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if self.cfg.dedup && !self.note_push(msg.header.id) {
            // A duplicate at a relay is dropped without a reply on
            // purpose: the first copy's forwarded request already
            // carries the response obligation.
            // flux-lint: allow(reply)
            return;
        }
        match ctx.request_upstream(KvsMethod::Push.topic(), msg.payload.clone()) {
            Ok(id) => {
                self.push_relays.insert(id, msg.clone());
            }
            Err(e) => ctx.respond_err(msg, e),
        }
    }

    /// The master's answer unwinding through a relay: the new root is
    /// adopted here before it travels on, so every broker on the path
    /// is at least as new as the committer.
    pub(super) fn relay_response(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        msg: &Message,
        original: &Message,
    ) {
        if msg.is_error() {
            ctx.respond_err(original, msg.header.errnum);
            return;
        }
        self.adopt_cut(ctx, &shard::frontier_of(&msg.payload));
        ctx.respond(original, msg.payload.clone());
    }

    // ----- fence reduction --------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn fence_contribute(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        name: &str,
        nprocs: u64,
        count: u64,
        tuples: Vec<Tuple>,
        objects: BTreeMap<ObjectId, Arc<KvsObject>>,
        waiter: Option<Message>,
    ) {
        let acc = self.fences.entry(name.to_owned()).or_default();
        if acc.nprocs == 0 {
            acc.nprocs = nprocs;
        }
        acc.count += count;
        acc.unflushed_count += count;
        acc.tuples.extend(tuples);
        // Objects dedup here: identical (redundant) values merge to one
        // entry at every hop of the tree — the paper's Fig. 3 effect.
        acc.objects.extend(objects);
        if let Some(w) = waiter {
            acc.waiters.push(w);
        }
        // The root (master of shard 0) coordinates; everyone else
        // flushes upstream after the aggregation window.
        if self.is_authoritative(0) {
            self.check_fence_complete(ctx, name);
        } else {
            self.next_token += 1;
            let token = self.next_token;
            if let Some(acc) = self.fences.get_mut(name) {
                if !acc.window_armed {
                    acc.window_armed = true;
                    self.fence_tokens.insert(token, name.to_owned());
                    ctx.set_timer(self.cfg.window_ns, token);
                }
            }
        }
    }

    fn check_fence_complete(&mut self, ctx: &mut ModuleCtx<'_>, name: &str) {
        let Some(acc) = self.fences.get(name) else { return };
        if acc.nprocs == 0 || acc.count < acc.nprocs {
            return;
        }
        let Some(acc) = self.fences.remove(name) else { return };
        // Waiters release only when every shard's contribution
        // committed — never against a partial cut, even across master
        // blackouts.
        let owner = Owner::Fence(name.to_owned(), acc.waiters);
        self.start_join(ctx, owner, acc.tuples, &acc.objects, Some(name));
    }

    pub(super) fn flush_fence(&mut self, ctx: &mut ModuleCtx<'_>, name: &str) {
        self.next_fence_batch += 1;
        let batch = self.next_fence_batch;
        let Some(acc) = self.fences.get_mut(name) else { return };
        acc.window_armed = false;
        if acc.unflushed_count == 0 {
            return;
        }
        let count = std::mem::take(&mut acc.unflushed_count);
        let tuples = std::mem::take(&mut acc.tuples);
        let objects = std::mem::take(&mut acc.objects);
        let payload = Value::from_pairs([
            ("name", Value::from(name)),
            ("nprocs", Value::from(acc.nprocs as i64)),
            ("count", Value::from(count as i64)),
            ("src", Value::from(ctx.rank().0)),
            ("batch", Value::from(batch as i64)),
            ("tuples", Self::tuples_to_value(&tuples)),
            ("objects", Self::objects_to_value(&objects)),
        ]);
        let _ = ctx.notify_upstream(KvsMethod::FenceUp.topic(), payload);
    }

    pub(super) fn handle_fence(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        // nprocs == 0 can never be satisfied (`count < nprocs` starts
        // false but the accumulator is skipped while nprocs is 0): the
        // caller would hang forever, so reject it up front.
        let (Some(name), Some(nprocs)) = (
            msg.payload.get("name").and_then(Value::as_str).map(str::to_owned),
            msg.payload.get("nprocs").and_then(Value::as_uint).filter(|&n| n > 0),
        ) else {
            ctx.respond_err(msg, errnum::EINVAL);
            return;
        };
        let requester = requester_of(msg);
        let acc = self.fences.entry(name.clone()).or_default();
        if acc.nprocs != 0 && acc.nprocs != nprocs {
            ctx.respond_err(msg, errnum::EINVAL);
            return;
        }
        if !acc.contributors.insert(requester) {
            // A duplicate contribution from the same process would
            // complete the fence one real participant early.
            ctx.respond_err(msg, errnum::EINVAL);
            return;
        }
        let pend = self.pending.remove(&requester).unwrap_or_default();
        self.fence_contribute(ctx, &name, nprocs, 1, pend.tuples, pend.objects, Some(msg.clone()));
    }

    pub(super) fn handle_fence_up(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let (Some(name), Some(nprocs), Some(count), Some(tuples), Some(objects)) = (
            msg.payload.get("name").and_then(Value::as_str).map(str::to_owned),
            msg.payload.get("nprocs").and_then(Value::as_uint),
            msg.payload.get("count").and_then(Value::as_uint),
            Self::tuples_from_value(msg.payload.get("tuples")),
            Self::objects_from_value(msg.payload.get("objects")),
        ) else {
            // One-way message: nothing to answer; drop.
            return;
        };
        if nprocs == 0 {
            // Malformed child batch; merging it would park forever.
            return;
        }
        // Idempotence under duplicated frames: each flushed batch is
        // stamped (src, batch); merge any given batch at most once.
        if let (true, Some(src), Some(batch)) = (
            self.cfg.dedup,
            msg.payload.get("src").and_then(Value::as_uint),
            msg.payload.get("batch").and_then(Value::as_uint),
        ) {
            let acc = self.fences.entry(name.clone()).or_default();
            if !acc.seen_batches.insert((src as u32, batch)) {
                return; // already merged this batch
            }
        }
        self.fence_contribute(ctx, &name, nprocs, count, tuples, objects, None);
    }

    /// A `kvs.setroot` naming fences: answer their local waiters with
    /// the fence's announced cut, or with the coordinator's error.
    pub(super) fn answer_fence_waiters(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        fences: &[Value],
        answer: &Result<Value, u32>,
    ) {
        for name in fences.iter().filter_map(Value::as_str) {
            if let Some(acc) = self.fences.remove(name) {
                for req in acc.waiters {
                    respond_with(ctx, &req, answer);
                }
            }
        }
    }
}

fn respond_with(ctx: &mut ModuleCtx<'_>, req: &Message, answer: &Result<Value, u32>) {
    match answer {
        Ok(reply) => ctx.respond(req, reply.clone()),
        Err(code) => ctx.respond_err(req, *code),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_wire::Rank;

    fn id(seq: u64) -> MsgId {
        MsgId { origin: Rank(5), seq }
    }

    fn acked(shard: u32, version: u64) -> PartReply {
        PartReply::Acked([(shard, (version, ObjectId::hash(b"r")))].into_iter().collect())
    }

    fn part(shard: u32) -> Payload {
        Payload::from(Value::from_pairs([("shard", Value::from(shard as i64))]))
    }

    /// `(shard, request id to send under again)` of each due part.
    fn sends(due: &[(u32, Route, Payload, Option<MsgId>)]) -> Vec<(u32, Option<MsgId>)> {
        due.iter().map(|(s, _, _, reuse)| (*s, *reuse)).collect()
    }

    /// A fence join with local shard 0 applied and rank-addressed parts
    /// for shards 1 and 2 staged.
    fn two_part_join() -> Join {
        let mut join = Join::new(Owner::Fence("f".into(), Vec::new()));
        join.record(0, 4, ObjectId::hash(b"r0"));
        join.stage(1, Route::Rank(Rank(1)), part(1));
        join.stage(2, Route::Rank(Rank(2)), part(2));
        join
    }

    #[test]
    fn acks_complete_the_frontier() {
        let mut join = two_part_join();
        assert_eq!(sends(&join.due(0)), [(1, None), (2, None)]);
        join.sent(1, id(1), 0);
        join.sent(2, id(2), 0);
        assert!(join.due(0).is_empty(), "parts in flight are not due again");
        assert_eq!(join.reply(1, acked(1, 7)), Step::Pending);
        assert_eq!(join.reply(2, acked(2, 3)), Step::Done);
        let frontier: Vec<_> = join.frontier.iter().map(|(s, (v, _))| (*s, *v)).collect();
        assert_eq!(frontier, [(0, 4), (1, 7), (2, 3)]);
    }

    #[test]
    fn transient_nack_makes_the_part_due_again() {
        let mut join = two_part_join();
        join.due(0);
        join.sent(1, id(1), 0);
        join.sent(2, id(2), 0);
        assert_eq!(join.reply(1, PartReply::Retry), Step::Pending);
        let due = join.due(0);
        assert_eq!(sends(&due), [(1, Some(id(1)))], "a re-send keeps its request id");
        assert_eq!(due[0].2.get("shard").and_then(Value::as_uint), Some(1));
        join.sent(1, id(1), 0);
        assert_eq!(join.reply(1, acked(1, 1)), Step::Pending);
        assert_eq!(join.reply(2, acked(2, 1)), Step::Done);
    }

    #[test]
    fn rank_addressed_parts_in_flight_for_a_full_epoch_are_resent() {
        let mut join = two_part_join();
        join.due(3);
        join.sent(1, id(1), 3);
        join.sent(2, id(2), 3);
        assert!(join.due(4).is_empty(), "sent during this epoch: give it a full period");
        assert_eq!(sends(&join.due(5)), [(1, Some(id(1))), (2, Some(id(2)))]);
    }

    #[test]
    fn tree_route_parts_in_flight_are_never_resent() {
        let mut join = Join::new(Owner::Fence("f".into(), Vec::new()));
        join.stage(0, Route::Up, part(0));
        join.due(0);
        join.sent(0, id(1), 0);
        assert!(join.due(50).is_empty(), "a relayed copy could be applied twice");
        // A transient error means no hop forwarded it: send it again,
        // under a fresh id.
        assert_eq!(join.reply(0, PartReply::Retry), Step::Pending);
        assert_eq!(sends(&join.due(50)), [(0, None)]);
    }

    #[test]
    fn einval_fails_the_join() {
        let mut join = two_part_join();
        join.due(0);
        join.sent(1, id(1), 0);
        assert_eq!(join.reply(1, PartReply::Failed(errnum::EINVAL)), Step::Failed(errnum::EINVAL));
    }

    #[test]
    fn a_join_with_only_local_parts_is_done_at_once() {
        let mut join = Join::new(Owner::Fence("f".into(), Vec::new()));
        assert!(join.is_done());
        join.record(0, 1, ObjectId::hash(b"r"));
        assert!(join.is_done() && join.due(0).is_empty());
    }

    #[test]
    fn an_ack_naming_no_outstanding_part_changes_nothing() {
        let mut join = two_part_join();
        assert_eq!(join.reply(1, PartReply::Acked(Frontier::new())), Step::Pending);
        assert_eq!(join.reply(1, acked(0, 9)), Step::Pending, "shard 0 already applied");
        assert_eq!(join.frontier.get(&0), Some(&(4, ObjectId::hash(b"r0"))));
        assert_eq!(join.due(0).len(), 2);
    }
}
