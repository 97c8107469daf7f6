//! Comms sessions over real loopback TCP sockets, driven by the
//! poll-based reactor ([`crate::reactor`], ROADMAP item 3).
//!
//! The closest live analogue of the prototype's ØMQ TCP overlay: one
//! *reactor thread* per rank hosting the sans-io [`flux_broker::Broker`]
//! and every socket that rank owns. All sockets are nonblocking; the
//! reactor discovers readiness by level-triggered scanning and parks in
//! the broker's command channel when idle. There are no acceptor or
//! reader threads — a 1024-broker session costs 1024 threads, not
//! `O(links)`.
//!
//! Wire-up: every rank binds a listener on `127.0.0.1:0` *before* any
//! broker starts, so the full address map is known up front — the moral
//! equivalent of the paper's PMI exchange of broker endpoints. Outbound
//! broker→broker traffic rides a small per-destination pool of
//! connections ([`TcpConfig::pool_size`]) established lazily on first
//! send; connects never block the reactor — a refused connect is
//! rescheduled by [`RetrySchedule`] with jittered exponential backoff.
//! Each direction of a broker pair is its own connection; a link opens
//! with a 4-byte little-endian rank handshake so the accepting side can
//! attribute inbound frames.
//!
//! Clients come in two flavors: in-process channel attachments
//! ([`TcpSessionBuilder::attach_client`], the prototype's local IPC
//! sockets), and *socket clients* — any process that connects to a
//! broker's listener, sends the [`CLIENT_HELLO`] sentinel, reads back
//! its assigned client id, and then speaks length-prefixed
//! [`flux_wire::frame`]s. Socket clients may pipeline arbitrarily many
//! requests on one stream; replies are matched by `MsgId` (see
//! [`flux_broker::client::ClientCore`]).
//!
//! Shutdown is ordered: each broker drains its channel, gets `Shutdown`,
//! flushes what it can without blocking, closes every socket, and its
//! reactor thread is joined before `shutdown()` returns.

use crate::faults::FaultPlan;
use crate::live::{BrokerHost, Event, LiveClient};
use crate::reactor::{run_reactor, ReactorPeers};
use flux_broker::{Broker, BrokerConfig, ClientId, CommsModule};
use flux_core::rng::Rng;
use flux_wire::{frame, Message, Rank};
use std::collections::BinaryHeap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// Handshake sentinel a socket client sends instead of a broker rank
/// (4 bytes, little-endian). The broker replies with the client's
/// assigned broker-local id — also 4 raw little-endian bytes — before
/// any frames. Real ranks are always below the session size, so the
/// sentinel cannot collide.
pub const CLIENT_HELLO: u32 = u32::MAX;

/// Tuning for TCP links.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Connect attempts per link burst before giving up (≥ 1).
    pub max_connect_attempts: u32,
    /// Backoff before the second connect attempt; doubles per attempt.
    pub initial_backoff: Duration,
    /// Ceiling on the per-attempt backoff (also the cool-down after a
    /// burst's budget is spent).
    pub max_backoff: Duration,
    /// Total time budget across one burst of connect attempts: once
    /// exceeded the link gives up, drops its queue, and cools down.
    pub retry_deadline: Duration,
    /// Deadline for an accepted connection to complete its 4-byte
    /// handshake (guards against a connector that never identifies
    /// itself).
    pub handshake_timeout: Duration,
    /// Size cap on a single frame, bytes (see [`frame::MAX_FRAME`]).
    pub max_frame: usize,
    /// Outbound connections per peer broker. The event plane is pinned
    /// to slot 0 (it needs per-link FIFO); tree/ring traffic
    /// round-robins the remaining slots.
    pub pool_size: usize,
    /// Per-connection outbound buffer cap, bytes. A peer this far
    /// behind gets new frames dropped (frame-aligned) rather than
    /// buffering without bound.
    pub max_outbuf: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(5),
            max_connect_attempts: 6,
            initial_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            retry_deadline: Duration::from_secs(15),
            handshake_timeout: Duration::from_secs(5),
            max_frame: frame::MAX_FRAME,
            pool_size: 2,
            max_outbuf: 64 * 1024 * 1024,
        }
    }
}

/// Nonblocking connect-retry state for one outbound link: when the next
/// attempt is allowed, how the backoff grows, and when a burst's budget
/// (attempt count or wall-clock deadline) is spent. Pure state machine —
/// it never sleeps; the reactor simply skips links whose next attempt
/// isn't [`due`](RetrySchedule::due) yet. Backoff sleeps are jittered
/// uniform in `[backoff/2, backoff]` so a session's worth of brokers
/// retrying the same slow peer don't synchronize into connect storms.
#[derive(Clone, Debug, Default)]
pub struct RetrySchedule {
    attempts: u32,
    backoff: Duration,
    window_start: Option<Instant>,
    next_at: Option<Instant>,
}

impl RetrySchedule {
    /// A fresh schedule: the first attempt is due immediately.
    pub fn new() -> RetrySchedule {
        RetrySchedule::default()
    }

    /// Whether an attempt is allowed at `now`.
    pub fn due(&self, now: Instant) -> bool {
        self.next_at.is_none_or(|at| now >= at)
    }

    /// Records a successful connect: the schedule resets fully.
    pub fn succeeded(&mut self) {
        *self = RetrySchedule::new();
    }

    /// Records a failed attempt at `now`. Returns `true` if the burst
    /// may continue (a later attempt is scheduled), `false` when the
    /// budget — `max_connect_attempts` or `retry_deadline`, whichever
    /// trips first — is spent: the caller should drop queued traffic and
    /// the schedule enters a `max_backoff` cool-down before the next
    /// burst.
    pub fn failed(&mut self, now: Instant, config: &TcpConfig, jitter: &mut Rng) -> bool {
        self.attempts += 1;
        let window = *self.window_start.get_or_insert(now);
        let spent = self.attempts >= config.max_connect_attempts.max(1)
            || now.duration_since(window) >= config.retry_deadline;
        if spent {
            self.attempts = 0;
            self.backoff = Duration::ZERO;
            self.window_start = None;
            self.next_at = Some(now + config.max_backoff);
            return false;
        }
        if self.backoff.is_zero() {
            self.backoff = config.initial_backoff;
        }
        let base = self.backoff.as_nanos() as u64;
        let wait = Duration::from_nanos(base / 2 + jitter.gen_range(0..=base.div_ceil(2)));
        self.next_at = Some(now + wait);
        self.backoff = (self.backoff * 2).min(config.max_backoff);
        true
    }
}

/// Connects a *socket client* to a broker listening at `addr`: performs
/// the [`CLIENT_HELLO`] handshake and returns the stream plus the
/// broker-assigned client id (feed it to
/// [`flux_broker::client::ClientCore::new`] so request ids are
/// collision-free). The stream is left in blocking mode with `timeout`
/// as its read timeout; callers pipelining nonblocking I/O can flip it
/// with `set_nonblocking`.
///
/// # Errors
/// Propagates connect, write, and read failures; times out if the broker
/// does not answer the hello within `timeout`.
pub fn connect_socket_client(
    addr: SocketAddr,
    timeout: Duration,
) -> io::Result<(TcpStream, ClientId)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.write_all(&CLIENT_HELLO.to_le_bytes())?;
    let mut raw = [0u8; 4];
    stream.read_exact(&mut raw)?;
    Ok((stream, ClientId::from_le_bytes(raw)))
}

/// A client connection to a broker in a [`TcpSession`].
pub type TcpClient = LiveClient;

/// A comms session whose brokers are wired over loopback TCP: call
/// [`TcpSession::builder`], attach clients, then
/// [`TcpSessionBuilder::start`]. One reactor thread per broker drives
/// all of that broker's sockets (see [`crate::reactor`]).
pub struct TcpSession {
    size: u32,
    addrs: Vec<SocketAddr>,
    senders: Vec<Sender<Event>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Builder collecting brokers and client attachments before the session
/// goes live.
pub struct TcpSessionBuilder {
    config: TcpConfig,
    configs: Vec<BrokerConfig>,
    modules: Vec<Vec<Box<dyn CommsModule>>>,
    senders: Vec<Sender<Event>>,
    receivers: Vec<Option<Receiver<Event>>>,
    clients: Vec<Vec<Sender<Message>>>,
    faults: Option<FaultPlan>,
}

impl TcpSession {
    /// Starts building a session of `size` brokers with tree `arity`;
    /// `factory` produces each rank's modules.
    pub fn builder<F>(size: u32, arity: u32, factory: F) -> TcpSessionBuilder
    where
        F: Fn(Rank) -> Vec<Box<dyn CommsModule>>,
    {
        let mut b = TcpSessionBuilder {
            config: TcpConfig::default(),
            configs: Vec::new(),
            modules: Vec::new(),
            senders: Vec::new(),
            receivers: Vec::new(),
            clients: Vec::new(),
            faults: None,
        };
        for r in 0..size {
            let rank = Rank(r);
            let (tx, rx) = channel();
            b.configs.push(BrokerConfig::new(rank, size).with_arity(arity));
            b.modules.push(factory(rank));
            b.senders.push(tx);
            b.receivers.push(Some(rx));
            b.clients.push(Vec::new());
        }
        b
    }

    /// Session size in brokers.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The loopback address each rank's broker listens on. Socket
    /// clients connect here (see [`connect_socket_client`]).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Stops every reactor thread and joins it. Each reactor flushes
    /// what it can without blocking and closes its sockets on the way
    /// out; socket clients observe EOF.
    pub fn shutdown(self) {
        for tx in &self.senders {
            let _ = tx.send(Event::Shutdown);
        }
        for h in self.handles {
            // flux-lint: allow(block) — ordered teardown: shutdown()
            // consumes the session off the hot path and each joined
            // reactor has already been told to exit.
            let _ = h.join();
        }
    }
}

impl TcpSessionBuilder {
    /// Overrides the link tuning (timeouts, retry, pooling, frame cap).
    pub fn with_config(mut self, config: TcpConfig) -> Self {
        self.config = config;
        self
    }

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
    /// returning its handle. Socket clients instead connect to the
    /// session's [`addrs`](TcpSession::addrs) after start and are
    /// assigned ids above the channel-attached range.
    pub fn attach_client(&mut self, rank: Rank) -> TcpClient {
        let (tx, rx) = channel();
        let client_id = self.clients[rank.index()].len() as ClientId;
        self.clients[rank.index()].push(tx);
        LiveClient { rank, client_id, tx: self.senders[rank.index()].clone(), rx }
    }

    /// Binds every rank's listener, then launches one reactor thread per
    /// broker. The session epoch (t = 0) is shared.
    ///
    /// # Panics
    /// Panics if a loopback listener cannot be bound or a thread cannot
    /// be spawned.
    pub fn start(mut self) -> TcpSession {
        let size = self.configs.len() as u32;
        // Bind all listeners before any broker runs, so every rank's
        // first outbound connect finds a live (if not yet accepting)
        // socket: the kernel backlog absorbs early connects.
        // flux-lint: allow(panic) — session construction: without a bound
        // loopback listener per rank there is no session to run, and the
        // documented `# Panics` contract covers it.
        let listeners: Vec<TcpListener> = (0..size)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener"))
            .collect();
        // flux-lint: allow(panic) — same setup-time contract as above.
        let addrs: Vec<SocketAddr> =
            listeners.iter().map(|l| l.local_addr().expect("listener addr")).collect();

        let epoch = Instant::now();
        let mut handles = Vec::new();
        for (idx, listener) in listeners.into_iter().enumerate() {
            let rank = Rank::from(idx);
            let first_socket_client = self.clients[idx].len() as ClientId;
            let peers = ReactorPeers::new(
                rank,
                addrs.clone(),
                listener,
                self.config.clone(),
                first_socket_client,
            )
            // flux-lint: allow(panic) — setup-time socket configuration,
            // covered by the documented `# Panics` contract.
            .expect("nonblocking listener");
            let host = BrokerHost {
                broker: Broker::new(
                    self.configs[idx].clone(),
                    std::mem::take(&mut self.modules[idx]),
                ),
                // flux-lint: allow(panic) — each receiver is taken exactly
                // once here; a second take is a builder bug.
                rx: self.receivers[idx].take().expect("receiver present"),
                peers,
                clients: std::mem::take(&mut self.clients[idx]),
                epoch,
                timers: BinaryHeap::new(),
                faults: self.faults.as_ref().map(|p| p.for_sender(rank)),
                delayed: BinaryHeap::new(),
                delay_seq: 0,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("flux-reactor-{idx}"))
                    .spawn(move || run_reactor(host))
                    // flux-lint: allow(panic) — setup-time thread spawn,
                    // covered by the documented `# Panics` contract.
                    .expect("spawn reactor thread"),
            );
        }
        TcpSession { size, addrs, senders: self.senders, handles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> TcpConfig {
        TcpConfig {
            connect_timeout: Duration::from_millis(500),
            max_connect_attempts: 3,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(50),
            retry_deadline: Duration::from_millis(400),
            ..TcpConfig::default()
        }
    }

    // RetrySchedule is a pure state machine, so every timing property is
    // tested with synthetic instants — no sleeps, no flakes (the old
    // connect_with_retry tests raced the wall clock).

    #[test]
    fn fresh_schedule_is_due_immediately() {
        let s = RetrySchedule::new();
        assert!(s.due(Instant::now()));
    }

    #[test]
    fn failure_schedules_a_jittered_backoff() {
        let config = quick_config();
        let mut jitter = Rng::seeded(7);
        let mut s = RetrySchedule::new();
        let now = Instant::now();
        assert!(s.failed(now, &config, &mut jitter), "burst continues");
        // The wait is uniform in [backoff/2, backoff].
        assert!(!s.due(now), "not due at the instant of failure");
        assert!(!s.due(now + config.initial_backoff / 2 - Duration::from_nanos(1)));
        assert!(s.due(now + config.initial_backoff), "due once the full backoff has passed");
    }

    #[test]
    fn backoff_doubles_up_to_the_ceiling() {
        let config = quick_config();
        let mut jitter = Rng::seeded(7);
        let mut s = RetrySchedule::new();
        let mut now = Instant::now();
        let mut waits = Vec::new();
        // Wide budget so we observe growth, not give-up.
        let mut wide = config.clone();
        wide.max_connect_attempts = 100;
        wide.retry_deadline = Duration::from_secs(3600);
        for _ in 0..5 {
            assert!(s.failed(now, &wide, &mut jitter));
            let next = s.next_at.unwrap();
            waits.push(next.duration_since(now));
            now = next;
        }
        // Ceiling: never above max_backoff.
        for w in &waits {
            assert!(*w <= wide.max_backoff, "wait {w:?} under ceiling");
        }
        // Growth: the last waits sit at the ceiling's jitter band.
        assert!(waits[4] >= wide.max_backoff / 2, "backoff reached the ceiling band");
    }

    #[test]
    fn attempt_budget_spends_the_burst_and_cools_down() {
        let config = quick_config(); // 3 attempts
        let mut jitter = Rng::seeded(7);
        let mut s = RetrySchedule::new();
        let now = Instant::now();
        assert!(s.failed(now, &config, &mut jitter));
        assert!(s.failed(now, &config, &mut jitter));
        assert!(!s.failed(now, &config, &mut jitter), "third failure spends the budget");
        // Cool-down: not due until max_backoff has passed.
        assert!(!s.due(now + config.max_backoff - Duration::from_nanos(1)));
        assert!(s.due(now + config.max_backoff));
    }

    #[test]
    fn deadline_budget_spends_the_burst_even_with_attempts_left() {
        let mut config = quick_config();
        config.max_connect_attempts = u32::MAX;
        let mut jitter = Rng::seeded(7);
        let mut s = RetrySchedule::new();
        let t0 = Instant::now();
        assert!(s.failed(t0, &config, &mut jitter));
        // Next failure lands after the retry deadline: burst over.
        assert!(!s.failed(t0 + config.retry_deadline, &config, &mut jitter));
    }

    #[test]
    fn success_resets_the_schedule() {
        let config = quick_config();
        let mut jitter = Rng::seeded(7);
        let mut s = RetrySchedule::new();
        let now = Instant::now();
        assert!(s.failed(now, &config, &mut jitter));
        s.succeeded();
        assert!(s.due(now), "fresh after success");
        assert_eq!(s.attempts, 0);
    }

    #[test]
    fn client_hello_cannot_collide_with_a_rank() {
        // Ranks are u32 indices below the session size; a session of
        // u32::MAX brokers is unrepresentable (the tree parent math
        // alone overflows), so the sentinel is safe.
        assert_eq!(CLIENT_HELLO, u32::MAX);
    }
}
