//! The poll-based reactor behind [`crate::tcp`]: one thread per broker,
//! every socket nonblocking, readiness discovered by level-triggered
//! scanning (ROADMAP item 3).
//!
//! ## Shape
//!
//! `#![forbid(unsafe_code)]` rules out a raw `poll(2)`/`epoll` wrapper,
//! so the reactor uses the portable safe equivalent: every stream and
//! the listener run with `set_nonblocking(true)`, and one loop per
//! broker drains whatever is ready — `WouldBlock` means "move on". When
//! a full pass makes no progress the loop parks in the broker's command
//! channel (`recv_timeout`), which doubles as the timer/fault-release
//! alarm: a channel event ends the park at once, socket readiness does
//! not. How long it parks is [`park_budget`], a pure function of the
//! time since the last pass that did work: a short tick while traffic
//! is recent, so a request arriving on a socket waits tens of
//! microseconds rather than a full park, then a park that grows with
//! idle time up to a ceiling, so a quiet broker wakes rarely.
//!
//! ## State machines
//!
//! *Inbound* connections (accepted from the listener) step through
//! `Handshake → Broker | Client`: four raw little-endian bytes name the
//! peer — a rank below the session size for a broker link, the
//! [`crate::tcp::CLIENT_HELLO`] sentinel for a socket client, anything
//! else is dropped. Frames then reassemble through
//! [`flux_wire::frame::FrameDecoder`], which tolerates arbitrary tearing
//! (a frame may arrive one byte at a time). Socket clients are assigned
//! a broker-local client id on arrival, echoed back as four raw LE bytes
//! before any frames, so their [`flux_broker::client::ClientCore`] mints
//! collision-free request ids.
//!
//! *Outbound* broker→broker traffic rides a small pool of connections
//! per destination ([`crate::tcp::TcpConfig::pool_size`]): the event
//! plane is pinned to slot 0 — its seq-dedup requires per-link FIFO —
//! while tree/ring traffic round-robins the remaining slots, so bulk
//! frames cannot head-of-line-block liveness events. Writes buffer in a
//! per-connection out-queue flushed to `WouldBlock` each pass; connects
//! and reconnects follow the nonblocking
//! [`crate::tcp::RetrySchedule`] (jittered exponential backoff, never a
//! sleep).

use crate::live::{BrokerHost, Event};
use crate::tcp::{RetrySchedule, TcpConfig, CLIENT_HELLO};
use flux_broker::ClientId;
use flux_core::rng::Rng;
use flux_wire::frame::{self, FrameDecoder};
use flux_wire::{Message, Plane, Rank};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// Bytes read from a ready stream per `read()` call.
const READ_CHUNK: usize = 16 * 1024;

/// Chunks read from one connection per pass before yielding to the next
/// (fairness under a firehose peer).
const READS_PER_PASS: usize = 4;

/// Connections accepted per pass.
const ACCEPTS_PER_PASS: usize = 128;

/// How long after the last pass that did work the reactor stays hot,
/// re-scanning every [`TICK`]. A 1 kHz request stream (one arrival per
/// millisecond) stays inside it, so its requests never meet a long park.
/// The cost is idle CPU: the 100 ms heartbeat keeps every broker hot for
/// 2 ms of every 100, which measured as ~0.10 of a core for an idle
/// 16-broker session on a 2-vCPU host, against ~0.05 with no hot window.
const HOT: Duration = Duration::from_millis(2);

/// Park length while hot. The kernel's timer slack stretches a 20 µs
/// `recv_timeout` to ~70 µs on Linux, and that sets the low-load
/// round-trip floor: a 1 kHz `cmb.ping` stream against one broker
/// measures p50 ~120 µs on a 2-vCPU host, against ~600 µs when the
/// first idle park is 1 ms.
const TICK: Duration = Duration::from_micros(20);

/// Ceiling on a cold park: the worst-case delay before a quiet broker
/// notices socket traffic, and at most 100 cold wakeups a second.
const MAX_PARK: Duration = Duration::from_millis(10);

/// How long the reactor may park after `idle` without work: [`TICK`]
/// inside the [`HOT`] window, then `idle` itself (so the park length
/// doubles with each park) up to [`MAX_PARK`]. Never decreases as
/// `idle` grows. The caller still caps it by the next broker deadline.
fn park_budget(idle: Duration) -> Duration {
    if idle < HOT {
        TICK
    } else {
        idle.min(MAX_PARK)
    }
}

/// Flushes `buf[*sent..]` into a nonblocking stream. Returns whether any
/// bytes moved; resets the buffer once fully drained.
fn flush_buf(stream: &mut TcpStream, buf: &mut Vec<u8>, sent: &mut usize) -> io::Result<bool> {
    let mut progressed = false;
    while *sent < buf.len() {
        match stream.write(&buf[*sent..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                *sent += n;
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if *sent == buf.len() && !buf.is_empty() {
        buf.clear();
        *sent = 0;
    }
    Ok(progressed)
}

/// Where an inbound connection is in its lifecycle.
enum ConnState {
    /// Collecting the 4-byte peer-identification prefix.
    Handshake { got: usize, raw: [u8; 4] },
    /// An attributed broker→broker link.
    Broker(Rank),
    /// A socket client with its assigned broker-local id.
    Client(ClientId),
}

/// One accepted connection: read state machine + buffered writes.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    decoder: FrameDecoder,
    out: Vec<u8>,
    sent: usize,
    opened: Instant,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            state: ConnState::Handshake { got: 0, raw: [0; 4] },
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            sent: 0,
            opened: Instant::now(),
            dead: true, // armed by the caller once setup succeeds
        }
    }
}

/// One slot of an outbound pool: a lazily-(re)connected nonblocking
/// stream with its write queue and retry schedule. The 4 handshake bytes
/// are staged separately so they always precede queued frames on a fresh
/// connection.
struct Uplink {
    stream: Option<TcpStream>,
    hs: [u8; 4],
    hs_left: usize,
    out: Vec<u8>,
    sent: usize,
    retry: RetrySchedule,
}

impl Uplink {
    fn new(rank: Rank) -> Uplink {
        Uplink {
            stream: None,
            hs: rank.0.to_le_bytes(),
            hs_left: 0,
            out: Vec::new(),
            sent: 0,
            retry: RetrySchedule::new(),
        }
    }

    /// Drops the stream and every queued byte (a reconnected stream
    /// cannot resume mid-frame), leaving the retry schedule as-is.
    fn reset(&mut self) {
        self.stream = None;
        self.hs_left = 0;
        self.out.clear();
        self.sent = 0;
    }

    fn try_connect(&mut self, addr: SocketAddr, config: &TcpConfig, jitter: &mut Rng) {
        if self.stream.is_some() || !self.retry.due(Instant::now()) {
            return;
        }
        // `connect_timeout` is bounded by the configured per-attempt
        // deadline; on loopback it resolves immediately either way.
        match TcpStream::connect_timeout(&addr, config.connect_timeout) {
            Ok(stream) => {
                if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                    self.record_failure(config, jitter);
                    return;
                }
                self.stream = Some(stream);
                self.hs_left = 4;
                self.retry.succeeded();
            }
            Err(_) => self.record_failure(config, jitter),
        }
    }

    fn record_failure(&mut self, config: &TcpConfig, jitter: &mut Rng) {
        if !self.retry.failed(Instant::now(), config, jitter) {
            // Burst budget spent: this peer is gone for now. Queued
            // frames are dropped — the liveness layer repairs overlay
            // routes, the transport does not queue forever.
            self.out.clear();
            self.sent = 0;
        }
    }

    /// Flushes handshake bytes then queued frames. On a write error the
    /// link resets and the frames are dropped (same contract as the
    /// pre-reactor transport: a dead link loses what was in flight).
    fn flush(&mut self) -> bool {
        let Some(stream) = self.stream.as_mut() else { return false };
        let mut progressed = false;
        while self.hs_left > 0 {
            match stream.write(&self.hs[4 - self.hs_left..]) {
                Ok(0) => {
                    self.reset();
                    return progressed;
                }
                Ok(n) => {
                    self.hs_left -= n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return progressed,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.reset();
                    return progressed;
                }
            }
        }
        match flush_buf(stream, &mut self.out, &mut self.sent) {
            Ok(p) => progressed || p,
            Err(_) => {
                self.reset();
                progressed
            }
        }
    }
}

/// All sockets of one broker: the listener, accepted connections
/// (broker links and socket clients), and the per-destination outbound
/// pools. Implements [`crate::live::PeerSender`] so the shared
/// [`BrokerHost`] routes outputs through it.
pub(crate) struct ReactorPeers {
    size: u32,
    addrs: Vec<SocketAddr>,
    listener: TcpListener,
    config: TcpConfig,
    /// `uplinks[to] = pool` for each destination rank.
    uplinks: Vec<Vec<Uplink>>,
    /// Round-robin cursor over the bulk (non-event) pool slots.
    next_bulk: usize,
    /// Accepted-connection slab; `None` slots are free.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Socket-client id → slab index.
    client_conn: HashMap<ClientId, usize>,
    /// Next socket-client id (starts above the channel-attached range).
    next_client: ClientId,
    /// Encode scratch shared by every outbound frame.
    scratch: Vec<u8>,
    /// Read scratch shared by every connection.
    read_buf: Vec<u8>,
    /// Backoff jitter (decorrelates concurrent retriers; never replayed).
    jitter: Rng,
}

impl ReactorPeers {
    pub(crate) fn new(
        rank: Rank,
        addrs: Vec<SocketAddr>,
        listener: TcpListener,
        config: TcpConfig,
        first_socket_client: ClientId,
    ) -> io::Result<ReactorPeers> {
        listener.set_nonblocking(true)?;
        let size = addrs.len() as u32;
        let pool = config.pool_size.max(1);
        let clock_seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        Ok(ReactorPeers {
            size,
            addrs,
            listener,
            config,
            uplinks: (0..size).map(|_| (0..pool).map(|_| Uplink::new(rank)).collect()).collect(),
            next_bulk: 0,
            conns: Vec::new(),
            free: Vec::new(),
            client_conn: HashMap::new(),
            next_client: first_socket_client,
            scratch: Vec::with_capacity(256),
            read_buf: vec![0u8; READ_CHUNK],
            jitter: Rng::seeded(clock_seed ^ (u64::from(rank.0) << 32)),
        })
    }

    /// Queues `msg` on the pool slot for `(to, plane)`. Event-plane
    /// traffic is pinned to slot 0 (per-link FIFO); everything else
    /// round-robins the remaining slots.
    fn queue_to(&mut self, to: Rank, plane: Plane, msg: &Message) {
        let pool_len = self.uplinks[to.index()].len();
        let slot = if pool_len == 1 || matches!(plane, Plane::Event) {
            0
        } else {
            self.next_bulk = self.next_bulk.wrapping_add(1);
            1 + self.next_bulk % (pool_len - 1)
        };
        let link = &mut self.uplinks[to.index()][slot];
        if link.stream.is_none() {
            let addr = self.addrs[to.index()];
            link.try_connect(addr, &self.config, &mut self.jitter);
            if link.stream.is_none() {
                return; // unreachable right now: dropped, liveness repairs
            }
        }
        if link.out.len() - link.sent > self.config.max_outbuf {
            return; // backpressure: peer too far behind, drop the frame
        }
        let _ = frame::write_frame_into(&mut link.out, msg, self.config.max_frame, &mut self.scratch);
        let _ = link.flush();
    }

    /// One readiness pass: due reconnects, accepts, reads (decoded
    /// frames land in `batch`), and write flushes. Returns whether any
    /// I/O progressed.
    pub(crate) fn poll_io(&mut self, batch: &mut Vec<Event>) -> bool {
        let mut progress = false;
        progress |= self.service_uplinks();
        progress |= self.accept_ready();
        progress |= self.read_ready(batch);
        progress |= self.flush_conns();
        progress
    }

    /// Reconnects pools whose retry came due and flushes pending bytes.
    fn service_uplinks(&mut self) -> bool {
        let mut progress = false;
        for to in 0..self.uplinks.len() {
            let addr = self.addrs[to];
            for slot in 0..self.uplinks[to].len() {
                let link = &mut self.uplinks[to][slot];
                if link.stream.is_none() && !link.out.is_empty() {
                    link.try_connect(addr, &self.config, &mut self.jitter);
                }
                if link.stream.is_some() && (link.hs_left > 0 || link.out.len() > link.sent) {
                    progress |= link.flush();
                }
            }
        }
        progress
    }

    fn accept_ready(&mut self) -> bool {
        let mut progress = false;
        for _ in 0..ACCEPTS_PER_PASS {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    let mut conn = Conn::new(stream);
                    if conn.stream.set_nonblocking(true).is_ok() {
                        let _ = conn.stream.set_nodelay(true);
                        conn.dead = false;
                        match self.free.pop() {
                            Some(i) => self.conns[i] = Some(conn),
                            None => self.conns.push(Some(conn)),
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        progress
    }

    /// Reads every connection with ready bytes, stepping handshakes and
    /// decoding frames into `batch`.
    fn read_ready(&mut self, batch: &mut Vec<Event>) -> bool {
        let mut progress = false;
        let mut chunk = std::mem::take(&mut self.read_buf);
        for i in 0..self.conns.len() {
            // Take the connection out of its slot so handshake completion
            // can borrow `self` (id assignment and registration) without
            // aliasing.
            let Some(mut conn) = self.conns[i].take() else { continue };
            progress |= self.service_conn(i, &mut conn, &mut chunk, batch);
            if conn.dead {
                if let ConnState::Client(id) = conn.state {
                    self.client_conn.remove(&id);
                }
                self.free.push(i);
            } else {
                self.conns[i] = Some(conn);
            }
        }
        self.read_buf = chunk;
        progress
    }

    /// Reads the connection in slab slot `slot` to `WouldBlock` (bounded
    /// per pass), feeding the handshake then the frame decoder. A
    /// completed client handshake registers the slot in `client_conn`.
    fn service_conn(
        &mut self,
        slot: usize,
        conn: &mut Conn,
        chunk: &mut [u8],
        batch: &mut Vec<Event>,
    ) -> bool {
        // A half-open peer that never finishes identifying itself is
        // dropped at the handshake deadline.
        if matches!(conn.state, ConnState::Handshake { .. })
            && conn.opened.elapsed() > self.config.handshake_timeout
        {
            conn.dead = true;
            return false;
        }
        let mut progress = false;
        for _ in 0..READS_PER_PASS {
            let n = match conn.stream.read(chunk) {
                Ok(0) => {
                    conn.dead = true; // clean EOF
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            };
            progress = true;
            let mut bytes = &chunk[..n];
            if let ConnState::Handshake { got, raw } = &mut conn.state {
                let take = bytes.len().min(4 - *got);
                raw[*got..*got + take].copy_from_slice(&bytes[..take]);
                *got += take;
                bytes = &bytes[take..];
                if *got == 4 {
                    let id = u32::from_le_bytes(*raw);
                    if id == CLIENT_HELLO {
                        let assigned = self.next_client;
                        self.next_client += 1;
                        conn.state = ConnState::Client(assigned);
                        self.client_conn.insert(assigned, slot);
                        // Echo the assigned id (4 raw LE bytes) ahead of
                        // any frames so the client can namespace its
                        // request ids.
                        conn.out.extend_from_slice(&assigned.to_le_bytes());
                    } else if id < self.size {
                        conn.state = ConnState::Broker(Rank(id));
                    } else {
                        conn.dead = true; // garbage handshake
                        break;
                    }
                }
            }
            if !bytes.is_empty() {
                conn.decoder.feed(bytes);
            }
            loop {
                match conn.decoder.next_message(self.config.max_frame) {
                    Ok(Some(msg)) => match conn.state {
                        ConnState::Broker(from) => batch.push(Event::FromBroker { from, msg }),
                        ConnState::Client(client) => {
                            batch.push(Event::FromClient { client, msg })
                        }
                        // Unreachable: bytes are only fed post-handshake.
                        ConnState::Handshake { .. } => {}
                    },
                    Ok(None) => break,
                    Err(_) => {
                        // Unframeable stream: resynchronization is
                        // impossible, drop the connection.
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.dead || n < chunk.len() {
                break; // drained (short read) or condemned
            }
        }
        progress
    }

    /// Flushes buffered writes on accepted connections.
    fn flush_conns(&mut self) -> bool {
        let mut progress = false;
        for i in 0..self.conns.len() {
            let Some(conn) = self.conns[i].as_mut() else { continue };
            if conn.out.len() > conn.sent {
                match flush_buf(&mut conn.stream, &mut conn.out, &mut conn.sent) {
                    Ok(p) => progress |= p,
                    Err(_) => {
                        let dead = self.conns[i].take();
                        if let Some(c) = dead {
                            if let ConnState::Client(id) = c.state {
                                self.client_conn.remove(&id);
                            }
                        }
                        self.free.push(i);
                    }
                }
            }
        }
        progress
    }

    /// Closes every socket (best-effort final flush first).
    pub(crate) fn close_all(&mut self) {
        for pool in &mut self.uplinks {
            for link in pool {
                link.flush();
                if let Some(stream) = link.stream.take() {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
            }
        }
        for conn in self.conns.iter_mut().filter_map(Option::take) {
            let mut conn = conn;
            let _ = flush_buf(&mut conn.stream, &mut conn.out, &mut conn.sent);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        self.client_conn.clear();
    }
}

impl crate::live::PeerSender for ReactorPeers {
    fn send_to(&mut self, to: Rank, plane: Plane, msg: Message) {
        self.queue_to(to, plane, &msg);
    }

    fn deliver_client(&mut self, client: ClientId, msg: Message) -> bool {
        let Some(&slot) = self.client_conn.get(&client) else {
            // Disconnected (or never existed): the reply has nowhere to
            // go. Report handled so the host does not retry.
            return true;
        };
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            if conn.out.len() - conn.sent <= self.config.max_outbuf {
                let _ =
                    frame::write_frame_into(&mut conn.out, &msg, self.config.max_frame, &mut self.scratch);
            }
        }
        true
    }

    fn close(&mut self) {
        self.close_all();
    }
}

/// The reactor event loop: drives the shared [`BrokerHost`] steps
/// (timers, fault releases, channel events) interleaved with socket
/// readiness passes, parking only when a full pass made no progress.
pub(crate) fn run_reactor(mut host: BrokerHost<ReactorPeers>) {
    host.start_broker();
    let mut batch: Vec<Event> = Vec::new();
    let mut last_work = Instant::now();
    'outer: loop {
        host.service_timers();
        host.release_delayed();
        // Drain the command channel (local clients, shutdown).
        let mut channel_work = false;
        loop {
            match host.rx.try_recv() {
                Ok(ev) => {
                    channel_work = true;
                    if !host.handle_event(ev) {
                        break 'outer;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'outer,
            }
        }
        // Socket readiness: accept, read, reconnect, flush.
        let io_progress = host.peers.poll_io(&mut batch);
        let had_frames = !batch.is_empty();
        for ev in batch.drain(..) {
            if !host.handle_event(ev) {
                break 'outer;
            }
        }
        if had_frames || channel_work {
            // Replies produced this pass should hit the wire now, not a
            // park later.
            host.peers.poll_io(&mut batch);
            for ev in batch.drain(..) {
                if !host.handle_event(ev) {
                    break 'outer;
                }
            }
        }
        if io_progress || had_frames || channel_work {
            last_work = Instant::now();
            continue;
        }
        // Nothing moved: park in the channel until the next deadline or
        // the idle policy's budget, whichever is sooner.
        let now = Instant::now();
        let budget = park_budget(now.saturating_duration_since(last_work));
        let timeout = match host.next_deadline() {
            Some(at) => at.saturating_duration_since(now).min(budget),
            None => budget,
        };
        match host.rx.recv_timeout(timeout) {
            Ok(ev) => {
                last_work = Instant::now();
                if !host.handle_event(ev) {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    host.peers.close_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    // park_budget is a pure function of idle time, so the policy is
    // tested with synthetic durations — no sleeps, no flakes.

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn hot_window_ticks() {
        for idle in [Duration::ZERO, us(1), us(500), us(1999), HOT - Duration::from_nanos(1)] {
            assert_eq!(park_budget(idle), TICK, "idle {idle:?} is inside the hot window");
        }
    }

    #[test]
    fn past_the_window_the_park_equals_idle_time() {
        for idle in [HOT, us(2001), us(4000), us(9999), MAX_PARK] {
            assert_eq!(park_budget(idle), idle, "idle {idle:?}");
        }
    }

    #[test]
    fn park_never_exceeds_the_ceiling() {
        for idle in [MAX_PARK, us(10_001), Duration::from_secs(1), Duration::MAX] {
            assert_eq!(park_budget(idle), MAX_PARK, "idle {idle:?}");
        }
    }

    #[test]
    fn park_never_shrinks_as_idle_time_grows() {
        let mut prev = Duration::ZERO;
        for step in 0..=30_000u64 {
            let budget = park_budget(us(step));
            assert!(budget >= prev, "budget fell at {step} µs: {prev:?} -> {budget:?}");
            assert!(budget <= MAX_PARK);
            prev = budget;
        }
    }
}
