//! The live (wall-clock) runtime: one session type for both wires.
//!
//! A [`LiveSession<W>`] hosts one thread per broker. The wire `W` is
//! either [`Channels`](crate::threads::Channels) (in-process channels)
//! or [`Tcp`](crate::tcp::Tcp) (loopback sockets driven by the reactor),
//! and it owns the only two things that differ between them:
//! session-level set-up (TCP binds every listener before any broker
//! starts) and the per-rank peer link plus the loop that drives it.
//! Everything else lives here: the builder, the per-broker host with its
//! timer heap, the client attachment model (clients are in-process and
//! talk to their local broker over a channel, the moral equivalent of
//! the prototype's IPC sockets), and the event type flowing into a
//! broker thread.

use crate::faults::{FaultPlan, LinkFaults};
use crate::sim::plane_of;
use flux_broker::{Broker, BrokerConfig, ClientId, CommsModule, Input, Output};
use flux_wire::{Message, Plane, Rank};
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::net::SocketAddr;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What flows into a broker thread.
pub enum Event {
    /// A message from a peer broker.
    FromBroker {
        /// Sending rank.
        from: Rank,
        /// The message.
        msg: Message,
    },
    /// A request from a locally attached client.
    FromClient {
        /// Broker-local client id.
        client: ClientId,
        /// The request.
        msg: Message,
    },
    /// Stop the broker thread.
    Shutdown,
}

/// A client connection to a broker in a live session.
///
/// Clients are in-process on every live transport: they exchange
/// messages with their local broker over a channel (the prototype's
/// local IPC socket), while broker↔broker traffic rides the transport's
/// own links.
pub struct LiveClient {
    /// The rank this client is attached to.
    pub rank: Rank,
    /// The broker-local client id.
    pub client_id: ClientId,
    pub(crate) tx: Sender<Event>,
    pub(crate) rx: Receiver<Message>,
}

impl LiveClient {
    /// Sends a request to the local broker.
    pub fn send(&self, msg: Message) {
        let _ = self.tx.send(Event::FromClient { client: self.client_id, msg });
    }

    /// Receives the next message (response or subscribed event), waiting
    /// up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.rx.try_recv().ok()
    }
}

/// How a broker host delivers a message to a peer broker: the per-rank
/// half of a [`Wire`].
pub trait PeerSender {
    /// Delivers `msg` to the broker at `to`. `plane` is the plane the
    /// message travels on: the reactor keeps the event plane on its own
    /// link per peer to preserve its per-link FIFO contract.
    fn send_to(&mut self, to: Rank, plane: Plane, msg: Message);

    /// Delivers a broker→client message to a wire-owned client
    /// connection (a reactor socket client); channel-attached clients are
    /// handled by the host itself before this hook is consulted. A
    /// message for a client the wire does not know is dropped.
    fn deliver_client(&mut self, _client: ClientId, _msg: Message) {}
}

/// In-process peer delivery over channels (the [`Channels`](crate::threads::Channels)
/// wire): every peer's command channel.
pub struct ChannelPeers {
    pub(crate) rank: Rank,
    pub(crate) peers: Vec<Sender<Event>>,
}

impl PeerSender for ChannelPeers {
    fn send_to(&mut self, to: Rank, _plane: Plane, msg: Message) {
        let _ = self.peers[to.index()].send(Event::FromBroker { from: self.rank, msg });
    }
}

/// A fault-delayed outbound message awaiting release. Ordered by
/// `(at, seq)` so the host's `BinaryHeap` acts as a min-heap with FIFO
/// tie-breaking.
struct Delayed {
    at: Instant,
    seq: u64,
    to: Rank,
    plane: Plane,
    msg: Message,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the earliest release time is the heap maximum.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One broker thread's state: the sans-io broker, its command channel,
/// the wire's peer link, and a local timer heap. The wire's loop
/// ([`sealed::Link::run`]) drives it through the `pub(crate)` steps below.
///
/// With `faults` set, every outbound broker message consults the link's
/// fault stream (drop/dup/delay), inbound traffic is discarded while
/// this rank is inside a blackout window, and delayed copies sit in
/// `delayed` until their release time.
pub struct BrokerHost<P: PeerSender> {
    broker: Broker,
    pub(crate) rx: Receiver<Event>,
    pub(crate) peers: P,
    clients: Vec<Sender<Message>>,
    epoch: Instant,
    timers: BinaryHeap<std::cmp::Reverse<(Instant, u64)>>,
    faults: Option<LinkFaults>,
    delayed: BinaryHeap<Delayed>,
    delay_seq: u64,
}

impl<P: PeerSender> BrokerHost<P> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn silenced(&self, now_ns: u64) -> bool {
        self.faults.as_ref().is_some_and(|f| f.silenced(now_ns))
    }

    fn send_to_broker(&mut self, now_ns: u64, plane: Plane, to: Rank, msg: Message) {
        let Some(f) = &mut self.faults else {
            self.peers.send_to(to, plane, msg);
            return;
        };
        // The event plane needs per-link FIFO (its seq dedup drops
        // reordered events), so delays are suppressed there.
        let fate = if matches!(plane, Plane::Event) {
            f.fate_ordered(now_ns, to)
        } else {
            f.fate(now_ns, to)
        };
        for &extra in &fate.copies {
            if extra == 0 {
                self.peers.send_to(to, plane, msg.clone());
            } else {
                self.delay_seq += 1;
                self.delayed.push(Delayed {
                    at: Instant::now() + Duration::from_nanos(extra),
                    seq: self.delay_seq,
                    to,
                    plane,
                    msg: msg.clone(),
                });
            }
        }
    }

    fn absorb(&mut self, outs: Vec<Output>) {
        let now_ns = self.now_ns();
        for out in outs {
            match out {
                Output::ToBroker { plane, to, msg } => {
                    self.send_to_broker(now_ns, plane, to, msg)
                }
                Output::ToClient { client, msg } => {
                    // A blacked-out broker cannot answer its clients.
                    if self.silenced(now_ns) {
                        continue;
                    }
                    if let Some(tx) = self.clients.get(client as usize) {
                        let _ = tx.send(msg);
                    } else {
                        // Not channel-attached: a transport-owned client
                        // connection (reactor socket client).
                        self.peers.deliver_client(client, msg);
                    }
                }
                Output::SetTimer { delay_ns, token } => {
                    let at = Instant::now() + Duration::from_nanos(delay_ns);
                    self.timers.push(std::cmp::Reverse((at, token)));
                }
            }
        }
    }

    /// Runs `Broker::start` and routes its outputs. Call exactly once,
    /// before the first loop iteration.
    pub(crate) fn start_broker(&mut self) {
        let outs = self.broker.start(self.now_ns());
        self.absorb(outs);
    }

    /// Fires every due timer. (Timers run even during a blackout —
    /// `absorb` suppresses their outputs — so periodic re-arm chains
    /// survive a simulated crash/restart.)
    pub(crate) fn service_timers(&mut self) {
        let now = Instant::now();
        while let Some(&std::cmp::Reverse((at, token))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            let now_ns = self.now_ns();
            let outs = self.broker.handle(now_ns, Input::Timer { token });
            self.absorb(outs);
        }
    }

    /// Releases fault-delayed messages that have come due.
    pub(crate) fn release_delayed(&mut self) {
        while let Some(d) = self.delayed.peek() {
            if d.at > Instant::now() {
                break;
            }
            let Some(d) = self.delayed.pop() else { break };
            self.peers.send_to(d.to, d.plane, d.msg);
        }
    }

    /// When the host next has scheduled work (timer fire or delayed
    /// release), or `None` if it can sleep until traffic arrives.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let timer = self.timers.peek().map(|&std::cmp::Reverse((at, _))| at);
        let release = self.delayed.peek().map(|d| d.at);
        match (timer, release) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Feeds one event into the broker; returns `false` on `Shutdown`.
    pub(crate) fn handle_event(&mut self, ev: Event) -> bool {
        match ev {
            Event::Shutdown => return false,
            Event::FromBroker { from, msg } => {
                let now_ns = self.now_ns();
                if self.silenced(now_ns) {
                    return true; // crashed: inbound traffic is lost
                }
                let input = Input::FromBroker { plane: plane_of(&msg), from, msg };
                let outs = self.broker.handle(now_ns, input);
                self.absorb(outs);
            }
            Event::FromClient { client, msg } => {
                let now_ns = self.now_ns();
                if self.silenced(now_ns) {
                    return true; // crashed: local clients get no service
                }
                let outs = self.broker.handle(now_ns, Input::FromClient { client, msg });
                self.absorb(outs);
            }
        }
        true
    }
}

/// The wire a [`LiveSession`] runs on: [`Channels`](crate::threads::Channels)
/// or [`Tcp`](crate::tcp::Tcp). Sealed — what a wire supplies is
/// crate-internal. (The types it names are `pub` inside this
/// crate-private module only so the sealed trait may mention them.)
pub trait Wire: sealed::Link {
    /// Short name ("threads", "tcp").
    const NAME: &'static str;
}

pub(crate) mod sealed {
    use super::{BrokerHost, Event, PeerSender};
    use std::net::SocketAddr;
    use std::sync::mpsc::Sender;

    /// What a wire supplies to the shared session code.
    pub trait Link: Send + Sync + 'static {
        /// The per-rank peer link a broker host routes through.
        type Peers: PeerSender + Send + 'static;
        /// Session-level set-up, before any broker starts: one peer link
        /// per rank, plus each rank's listener address (empty when the
        /// wire has none). `senders` are the brokers' command channels;
        /// `channel_clients[r]` counts rank `r`'s channel-attached
        /// clients.
        fn links(
            senders: &[Sender<Event>],
            channel_clients: &[usize],
        ) -> (Vec<SocketAddr>, Vec<Self::Peers>);
        /// The broker thread's event loop.
        fn run(host: BrokerHost<Self::Peers>);
    }
}

/// A comms session of live brokers, one thread each: call
/// [`LiveSession::builder`], attach clients, then
/// [`LiveSessionBuilder::start`].
pub struct LiveSession<W: Wire> {
    pub(crate) addrs: Vec<SocketAddr>,
    senders: Vec<Sender<Event>>,
    handles: Vec<JoinHandle<()>>,
    wire: PhantomData<W>,
}

/// Builder collecting brokers and client attachments before the session
/// goes live.
pub struct LiveSessionBuilder<W: Wire> {
    configs: Vec<BrokerConfig>,
    modules: Vec<Vec<Box<dyn CommsModule>>>,
    senders: Vec<Sender<Event>>,
    receivers: Vec<Receiver<Event>>,
    clients: Vec<Vec<Sender<Message>>>,
    faults: Option<FaultPlan>,
    wire: PhantomData<W>,
}

impl<W: Wire> LiveSession<W> {
    /// Starts building a session of `size` brokers with tree `arity`;
    /// `factory` produces each rank's modules.
    pub fn builder<F>(size: u32, arity: u32, factory: F) -> LiveSessionBuilder<W>
    where
        F: Fn(Rank) -> Vec<Box<dyn CommsModule>>,
    {
        let (senders, receivers) = (0..size).map(|_| channel()).unzip();
        LiveSessionBuilder {
            configs: (0..size)
                .map(|r| BrokerConfig::new(Rank(r), size).with_arity(arity))
                .collect(),
            modules: (0..size).map(|r| factory(Rank(r))).collect(),
            senders,
            receivers,
            clients: (0..size).map(|_| Vec::new()).collect(),
            faults: None,
            wire: PhantomData,
        }
    }

    /// Session size in brokers.
    pub fn size(&self) -> u32 {
        self.senders.len() as u32
    }

    /// Stops every broker thread and joins it. Each broker drains its
    /// channel up to `Shutdown`; on TCP it then flushes what it can
    /// without blocking and closes its sockets (socket clients observe
    /// EOF).
    pub fn shutdown(self) {
        for tx in &self.senders {
            let _ = tx.send(Event::Shutdown);
        }
        for h in self.handles {
            // flux-lint: allow(block) — ordered teardown: every broker
            // was just sent Shutdown, so each join only waits for its
            // thread to drain and exit.
            let _ = h.join();
        }
    }
}

impl<W: Wire> LiveSessionBuilder<W> {
    /// Overrides one rank's broker config (e.g. a faster heartbeat).
    pub fn set_config(&mut self, rank: Rank, config: BrokerConfig) -> &mut Self {
        self.configs[rank.index()] = config;
        self
    }

    /// Applies a fault-injection plan to every broker's links.
    pub fn set_faults(&mut self, plan: &FaultPlan) -> &mut Self {
        self.faults = Some(plan.clone()).filter(|p| !p.is_empty());
        self
    }

    /// Attaches an in-process channel client to `rank`'s broker,
    /// returning its handle. On TCP, socket clients instead connect to
    /// the session's `addrs()` after start and are assigned ids above
    /// the channel-attached range.
    pub fn attach_client(&mut self, rank: Rank) -> LiveClient {
        let (tx, rx) = channel();
        let client_id = self.clients[rank.index()].len() as ClientId;
        self.clients[rank.index()].push(tx);
        LiveClient { rank, client_id, tx: self.senders[rank.index()].clone(), rx }
    }

    /// Sets up the wire, then launches one thread per broker. The session
    /// epoch (t = 0) is shared.
    ///
    /// # Panics
    /// Panics if the wire cannot be set up (e.g. a loopback listener
    /// cannot be bound) or a thread cannot be spawned.
    pub fn start(self) -> LiveSession<W> {
        let channel_clients: Vec<usize> = self.clients.iter().map(Vec::len).collect();
        let (addrs, links) = W::links(&self.senders, &channel_clients);
        let epoch = Instant::now();
        let ranks = self.configs.into_iter().zip(self.modules).zip(self.receivers);
        let handles = ranks
            .zip(links.into_iter().zip(self.clients))
            .enumerate()
            .map(|(idx, (((config, modules), rx), (peers, clients)))| {
                let host = BrokerHost {
                    broker: Broker::new(config, modules),
                    rx,
                    peers,
                    clients,
                    epoch,
                    timers: BinaryHeap::new(),
                    faults: self.faults.as_ref().map(|p| p.for_sender(Rank::from(idx))),
                    delayed: BinaryHeap::new(),
                    delay_seq: 0,
                };
                std::thread::Builder::new()
                    .name(format!("flux-broker-{idx}"))
                    .spawn(move || W::run(host))
                    // flux-lint: allow(panic) — setup-time thread spawn;
                    // a session that cannot start has nothing to degrade
                    // to, and the documented `# Panics` contract covers it.
                    .expect("spawn broker thread")
            })
            .collect();
        LiveSession { addrs, senders: self.senders, handles, wire: PhantomData }
    }
}
