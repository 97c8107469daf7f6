//! The comms-module plugin interface.
//!
//! Paper §IV-A: *"The various service components of Flux have been
//! implemented as comms modules, plugins which are loaded into the CMB
//! address space and pass messages over shared memory."* A module owns a
//! service name (`kvs`, `barrier`, …); requests whose topic service
//! matches are dispatched to it at the first broker along the upstream
//! path where the module is loaded.

use crate::broker::Core;
use flux_wire::{errnum, Message, MsgId, Payload, Rank, Topic};

/// A service plugin loaded into a broker.
///
/// All handlers receive a [`ModuleCtx`] through which they reply, issue
/// their own upstream or rank-addressed RPCs, publish events, and set
/// timers. Handlers run to completion; long-running work is expressed as
/// state machines driven by responses, events, heartbeats, and timers.
///
/// `Send` is required so the threaded runtime can host brokers on their
/// own threads; module state is owned by exactly one broker at a time.
pub trait CommsModule: Send {
    /// The service name this module answers to (`kvs` handles `kvs.*`).
    fn name(&self) -> &'static str;

    /// Event-topic prefixes this module wants delivered to
    /// [`CommsModule::handle_event`].
    fn subscriptions(&self) -> Vec<String> {
        Vec::new()
    }

    /// Called once when the broker starts.
    fn on_start(&mut self, _ctx: &mut ModuleCtx<'_>) {}

    /// A request addressed to this module.
    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message);

    /// The response to an RPC this module issued via
    /// [`ModuleCtx::request_upstream`] or [`ModuleCtx::request_to_rank`].
    fn handle_response(&mut self, _ctx: &mut ModuleCtx<'_>, _msg: &Message) {}

    /// An event matching one of this module's subscriptions.
    fn handle_event(&mut self, _ctx: &mut ModuleCtx<'_>, _msg: &Message) {}

    /// The session heartbeat (delivered on every broker when the `hb`
    /// event arrives). Modules synchronize background activity to this
    /// pulse to reduce scheduling jitter.
    fn on_heartbeat(&mut self, _ctx: &mut ModuleCtx<'_>, _epoch: u64) {}

    /// A timer set through [`ModuleCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut ModuleCtx<'_>, _token: u64) {}
}

/// Handler context handed to module callbacks.
///
/// Wraps the broker core with the identity of the module being dispatched
/// (used to namespace timers and route RPC responses back to the issuing
/// module).
pub struct ModuleCtx<'a> {
    pub(crate) core: &'a mut Core,
    pub(crate) module_idx: usize,
}

impl<'a> ModuleCtx<'a> {
    /// This broker's rank.
    pub fn rank(&self) -> Rank {
        self.core.rank()
    }

    /// Session size in brokers.
    pub fn size(&self) -> u32 {
        self.core.size()
    }

    /// True on the session root (rank 0).
    pub fn is_root(&self) -> bool {
        self.core.rank().is_root()
    }

    /// Current time in nanoseconds (virtual or real depending on runtime).
    pub fn now_ns(&self) -> u64 {
        self.core.now_ns
    }

    /// The effective (live) tree parent, `None` at the root.
    pub fn parent(&self) -> Option<Rank> {
        self.core.effective_parent()
    }

    /// The effective (live) tree children.
    pub fn children(&self) -> Vec<Rank> {
        self.core.effective_children()
    }

    /// This broker's depth in the tree plane.
    pub fn depth(&self) -> u32 {
        self.core.depth()
    }

    /// The height of the session's tree plane (max depth over all ranks).
    pub fn tree_height(&self) -> u32 {
        self.core.tree_height()
    }

    /// True if `r` is currently believed alive.
    pub fn is_up(&self, r: Rank) -> bool {
        self.core.live.is_up(r)
    }

    /// Sends a successful response to `req` (routed back along its hops).
    ///
    /// May be called more than once for the same request — `kvs.watch`
    /// uses repeated responses to stream updates to a client.
    pub fn respond(&mut self, req: &Message, payload: impl Into<Payload>) {
        let resp = Message::response_to(req, payload);
        self.core.route_response(resp);
    }

    /// Sends an error response to `req`.
    pub fn respond_err(&mut self, req: &Message, errnum: u32) {
        let resp = Message::error_response_to(req, errnum);
        self.core.route_response(resp);
    }

    /// Issues an RPC to this module's counterpart on the upstream path.
    /// The request starts at the effective parent (it does not match
    /// locally), and the response is delivered to
    /// [`CommsModule::handle_response`].
    ///
    /// Returns the request id for correlating the response, or an
    /// `Err(errnum)` at the root where there is no upstream.
    pub fn request_upstream(&mut self, topic: Topic, payload: impl Into<Payload>) -> Result<MsgId, u32> {
        let Some(parent) = self.core.effective_parent() else {
            return Err(errnum::ENOENT);
        };
        let id = self.core.next_msg_id();
        let msg = Message::request(topic, id, self.core.rank(), payload);
        self.core.register_pending(id, self.module_idx);
        self.core.send_tree(parent, msg);
        Ok(id)
    }

    /// Sends a one-way request upstream (no response expected, nothing
    /// registered). Used for reduction flows whose completion is signalled
    /// out-of-band — e.g. `kvs.fence` contributions, whose completion
    /// arrives as the `kvs.setroot` event.
    ///
    /// Returns `Err(errnum)` at the root where there is no upstream.
    pub fn notify_upstream(&mut self, topic: Topic, payload: impl Into<Payload>) -> Result<(), u32> {
        let Some(parent) = self.core.effective_parent() else {
            return Err(errnum::ENOENT);
        };
        let id = self.core.next_msg_id();
        let msg = Message::request(topic, id, self.core.rank(), payload);
        self.core.send_tree(parent, msg);
        Ok(())
    }

    /// Issues a rank-addressed RPC over the ring plane. The response is
    /// delivered to [`CommsModule::handle_response`].
    pub fn request_to_rank(&mut self, to: Rank, topic: Topic, payload: impl Into<Payload>) -> MsgId {
        let id = self.core.next_msg_id();
        let msg = Message::request_to(topic, id, self.core.rank(), to, payload);
        self.core.register_pending(id, self.module_idx);
        self.core.route_ring(msg);
        id
    }

    /// Sends rank-addressed RPC `id`, first issued by
    /// [`ModuleCtx::request_to_rank`], again under the same id. The
    /// receiver sees the same request id, so its duplicate detection
    /// recognises the copy; the first response to arrive — to either
    /// send — is delivered to [`CommsModule::handle_response`].
    pub fn resend_to_rank(&mut self, id: MsgId, to: Rank, topic: Topic, payload: impl Into<Payload>) {
        let msg = Message::request_to(topic, id, self.core.rank(), to, payload);
        self.core.register_pending(id, self.module_idx);
        self.core.route_ring(msg);
    }

    /// Publishes an event session-wide. Events are sequenced through the
    /// root, so all brokers observe all events in one total order.
    pub fn publish(&mut self, topic: Topic, payload: impl Into<Payload>) {
        self.core.publish(topic, payload);
    }

    /// Sets a module-private timer; `token` comes back in
    /// [`CommsModule::on_timer`].
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.core.set_module_timer(self.module_idx, delay_ns, token);
    }

    /// Broker configuration (heartbeat period, liveness limits, …).
    pub fn config(&self) -> &crate::BrokerConfig {
        self.core.config()
    }

    /// Submits a locally originated request into this broker's routing
    /// (e.g. the `wexec` module storing output via `kvs.put`). Dispatched
    /// after the current handler returns; any response is routed to this
    /// module's [`CommsModule::handle_response`].
    pub fn local_request(&mut self, topic: Topic, payload: impl Into<Payload>) -> MsgId {
        let id = self.core.next_msg_id();
        let msg = Message::request(topic, id, self.core.rank(), payload);
        self.core.register_pending(id, self.module_idx);
        self.core.raise(msg);
        id
    }
}
