//! Thread-per-link baseline server for the RPC benchmark.
//!
//! Before the poll-based reactor landed, `flux_rt::tcp` ran one reader
//! and one writer OS thread per TCP connection. This module keeps that
//! architecture alive as a measurable baseline: a single sans-io
//! [`Broker`] serviced by an acceptor thread plus two blocking threads
//! per accepted client, speaking the exact wire protocol the reactor
//! speaks (`CLIENT_HELLO` handshake, length-prefixed frames). The RPC
//! bench drives both servers with the identical client load so the
//! committed `BENCH_rpc.json` comparison isolates the I/O architecture.
//!
//! Deliberately *not* a [`flux_rt::Wire`]: it hosts a single broker
//! with socket clients only, which is all the sustained RPC benchmark
//! needs.

use flux_broker::{Broker, BrokerConfig, ClientId, CommsModule, Input, Output};
use flux_rt::tcp::CLIENT_HELLO;
use flux_wire::frame::{write_frame_into, FrameDecoder, MAX_FRAME};
use flux_wire::{Message, Rank};
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocking conn threads wake to check the stop flag.
const POLL: Duration = Duration::from_millis(100);

/// Events funnelled into the single broker thread.
enum Ev {
    /// A frame arrived from socket client `0`.
    FromClient(ClientId, Message),
    /// A freshly accepted client registered its writer channel.
    NewClient(ClientId, Sender<Message>),
    /// Tear the server down.
    Shutdown,
}

/// A running thread-per-link broker server. Dropping without calling
/// [`ThreadLinkServer::shutdown`] leaks its threads; tests and benches
/// must shut it down explicitly.
pub struct ThreadLinkServer {
    addr: SocketAddr,
    tx: Sender<Ev>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadLinkServer {
    /// Binds a loopback listener and starts the broker + acceptor
    /// threads. The broker is rank 0 of a size-1 session running
    /// `modules`.
    ///
    /// # Panics
    /// Panics if the listener cannot bind (benchmark setup, not a
    /// recoverable path).
    pub fn start(modules: Vec<Box<dyn CommsModule>>) -> ThreadLinkServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener addr");
        let (tx, rx) = channel();
        let stop = Arc::new(AtomicBool::new(false));

        let broker = Broker::new(BrokerConfig::new(Rank(0), 1), modules);
        let h_broker = std::thread::Builder::new()
            .name("threadlink-broker".into())
            .spawn(move || broker_loop(broker, rx))
            .expect("spawn broker thread");

        let a_tx = tx.clone();
        let a_stop = Arc::clone(&stop);
        let h_accept = std::thread::Builder::new()
            .name("threadlink-accept".into())
            .spawn(move || accept_loop(listener, a_tx, a_stop))
            .expect("spawn acceptor thread");

        ThreadLinkServer { addr, tx, stop, handles: vec![h_broker, h_accept] }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the broker and acceptor and joins them. Per-connection
    /// threads notice the stop flag (or their closed streams) within
    /// [`POLL`] and exit on their own.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.tx.send(Ev::Shutdown);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, POLL);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The single broker thread: applies timers and client frames to the
/// sans-io core and routes `ToClient` outputs to per-connection writer
/// channels. `ToBroker` outputs cannot occur in a size-1 session and
/// are dropped.
fn broker_loop(mut broker: Broker, rx: Receiver<Ev>) {
    let epoch = Instant::now();
    let mut timers: BinaryHeap<std::cmp::Reverse<(Instant, u64)>> = BinaryHeap::new();
    let mut writers: HashMap<ClientId, Sender<Message>> = HashMap::new();
    let now_ns = |epoch: Instant| epoch.elapsed().as_nanos() as u64;

    let outs = broker.start(now_ns(epoch));
    apply(&mut writers, &mut timers, outs);

    loop {
        // Snapshot `now` once per pass (mirroring BrokerHost::
        // service_timers): a timer re-armed during this pass lands
        // strictly after the snapshot and waits for the next pass.
        let pass = Instant::now();
        while let Some(&std::cmp::Reverse((at, token))) = timers.peek() {
            if at > pass {
                break;
            }
            timers.pop();
            let outs = broker.handle(now_ns(epoch), Input::Timer { token });
            apply(&mut writers, &mut timers, outs);
        }
        let wait = timers
            .peek()
            .map(|&std::cmp::Reverse((at, _))| at.saturating_duration_since(Instant::now()))
            .unwrap_or(POLL)
            .min(POLL);
        match rx.recv_timeout(wait) {
            Ok(Ev::FromClient(client, msg)) => {
                let outs = broker.handle(now_ns(epoch), Input::FromClient { client, msg });
                apply(&mut writers, &mut timers, outs);
            }
            Ok(Ev::NewClient(id, tx)) => {
                writers.insert(id, tx);
            }
            Ok(Ev::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
    // Dropping the writer channels unblocks every writer thread.
}

fn apply(
    writers: &mut HashMap<ClientId, Sender<Message>>,
    timers: &mut BinaryHeap<std::cmp::Reverse<(Instant, u64)>>,
    outs: Vec<Output>,
) {
    for out in outs {
        match out {
            Output::ToClient { client, msg } => {
                // A disconnected client's channel is gone; drop, exactly
                // like the reactor drops writes to dead conns.
                if let Some(tx) = writers.get(&client) {
                    if tx.send(msg).is_err() {
                        writers.remove(&client);
                    }
                }
            }
            Output::SetTimer { delay_ns, token } => {
                // `delay_ns` is relative to now, exactly as BrokerHost
                // treats it. (Anchoring it to `epoch` instead pins every
                // heartbeat re-arm to one fixed past instant, and the
                // timer pass spins forever without ever reaching the
                // channel — a bug this baseline shipped with once.)
                let at = Instant::now() + Duration::from_nanos(delay_ns);
                timers.push(std::cmp::Reverse((at, token)));
            }
            Output::ToBroker { .. } => {}
        }
    }
}

/// Accepts connections, performs the 4-byte hello handshake, and spawns
/// the per-connection reader and writer threads — the thread-per-link
/// architecture under measurement.
fn accept_loop(listener: TcpListener, tx: Sender<Ev>, stop: Arc<AtomicBool>) {
    let mut next_client: ClientId = 0;
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_nodelay(true);
        if handshake(&stream, &tx, &stop, &mut next_client).is_err() {
            // Bad hello or I/O error mid-handshake: drop the conn.
            continue;
        }
    }
}

/// Reads the client hello, assigns an id, replies with it, registers
/// the writer channel, and spawns the two service threads.
fn handshake(
    stream: &TcpStream,
    tx: &Sender<Ev>,
    stop: &Arc<AtomicBool>,
    next_client: &mut ClientId,
) -> io::Result<()> {
    let mut s = stream.try_clone()?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut raw = [0u8; 4];
    s.read_exact(&mut raw)?;
    if u32::from_le_bytes(raw) != CLIENT_HELLO {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a client hello"));
    }
    let id = *next_client;
    *next_client += 1;
    s.write_all(&id.to_le_bytes())?;

    let (wtx, wrx) = channel::<Message>();
    let _ = tx.send(Ev::NewClient(id, wtx));

    let r_stream = stream.try_clone()?;
    let r_tx = tx.clone();
    let r_stop = Arc::clone(stop);
    std::thread::Builder::new()
        .name(format!("threadlink-r{id}"))
        .spawn(move || reader_loop(r_stream, id, r_tx, r_stop))
        .expect("spawn reader thread");

    let w_stream = stream.try_clone()?;
    let w_stop = Arc::clone(stop);
    std::thread::Builder::new()
        .name(format!("threadlink-w{id}"))
        .spawn(move || writer_loop(w_stream, wrx, w_stop))
        .expect("spawn writer thread");
    Ok(())
}

/// Blocking read half of one connection: decode frames, forward them to
/// the broker thread.
fn reader_loop(mut stream: TcpStream, id: ClientId, tx: Sender<Ev>, stop: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    while !stop.load(Ordering::SeqCst) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                dec.feed(&buf[..n]);
                loop {
                    match dec.next_message(MAX_FRAME) {
                        Ok(Some(msg)) => {
                            if tx.send(Ev::FromClient(id, msg)).is_err() {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => return,
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Blocking write half of one connection: frames messages queued by the
/// broker thread onto the socket.
fn writer_loop(mut stream: TcpStream, rx: Receiver<Message>, stop: Arc<AtomicBool>) {
    let mut scratch = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match rx.recv_timeout(POLL) {
            Ok(msg) => {
                let mut out = Vec::new();
                if write_frame_into(&mut out, &msg, MAX_FRAME, &mut scratch).is_err() {
                    break;
                }
                if stream.write_all(&out).is_err() {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}
