//! Comms sessions on real OS threads linked by channels.
//!
//! One thread per broker; std mpsc channels stand in for the prototype's
//! ØMQ TCP/IPC sockets (same guarantees: reliable, per-link FIFO). The
//! session, builder and per-broker host are shared with the TCP wire —
//! see [`crate::live`]; this module supplies only the peer link and the
//! loop that drives it.

use crate::live::{sealed::Link, BrokerHost, ChannelPeers, Event, LiveSession, Wire};
use flux_wire::Rank;
use std::net::SocketAddr;
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// The in-process channel wire: brokers deliver to each other's command
/// channels.
#[derive(Clone, Copy, Debug)]
pub enum Channels {}

/// A comms session on OS threads linked by channels.
pub type ThreadSession = LiveSession<Channels>;

impl Wire for Channels {
    const NAME: &'static str = "threads";
}

impl Link for Channels {
    type Peers = ChannelPeers;

    fn links(senders: &[Sender<Event>], _: &[usize]) -> (Vec<SocketAddr>, Vec<ChannelPeers>) {
        let peers = (0..senders.len())
            .map(|idx| ChannelPeers { rank: Rank::from(idx), peers: senders.to_vec() })
            .collect();
        (Vec::new(), peers)
    }

    /// Services due timers and releases, otherwise sleeps in
    /// `recv_timeout` until traffic arrives, so a broker thread is quiet
    /// when the session is quiet (the low-noise design goal).
    fn run(mut host: BrokerHost<ChannelPeers>) {
        host.start_broker();
        loop {
            host.service_timers();
            host.release_delayed();
            // Sleep until traffic, the next timer, or the next release.
            let timeout = host
                .next_deadline()
                .map(|at| at.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(250));
            match host.rx.recv_timeout(timeout) {
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => continue,
                Ok(ev) => {
                    if !host.handle_event(ev) {
                        break;
                    }
                }
            }
        }
    }
}
