//! # flux-rt
//!
//! Runtimes that host the sans-io CMB brokers:
//!
//! * [`sim::SimSession`] — a comms session on the deterministic
//!   discrete-event simulator (`flux-sim`). One actor per broker, one
//!   actor per attached client process, the paper's cost model on every
//!   link. This is where paper-scale runs (512 nodes × 16 processes)
//!   happen, measured in virtual time.
//! * [`LiveSession<W>`] — the same brokers live, one OS thread each,
//!   measured in wall-clock time. It demonstrates that the protocol
//!   stack is runtime-agnostic (nothing in broker/module/KVS code knows
//!   which runtime it is on). The wire `W` is the only thing that
//!   varies:
//!   - [`threads::Channels`] ([`threads::ThreadSession`]) links brokers
//!     by std mpsc channels; used by integration tests and small live
//!     demos.
//!   - [`tcp::Tcp`] ([`tcp::TcpSession`]) wires them over real loopback
//!     TCP sockets carrying length-prefixed `flux-wire` frames. One
//!     poll-based reactor thread per broker drives every socket
//!     nonblocking: an event link and a bulk link per peer, pipelined
//!     socket clients, jittered nonblocking connect retry. The closest
//!     analogue of the prototype's ØMQ TCP overlay.
//!
//! [`transport::ScriptTransport`] runs scripted client workloads on any
//! of the three runtimes: [`transport::SimTransport`] on the simulator,
//! [`transport::LiveTransport<W>`] on either wire.
//!
//! All runtimes load arbitrary [`flux_broker::CommsModule`] sets, attach
//! any number of clients per broker, and reconstruct message planes from
//! message shape (events → event plane, rank-addressed → ring, otherwise
//! tree), so the wire behaviour matches the paper's three-plane wire-up.
//!
//! Fault injection ([`faults::FaultPlan`]) rides below all of this: the
//! simulator applies a plan natively in virtual time, and the live
//! runtimes apply the same plan per broker host, so one seeded fault
//! schedule drives chaos tests on every backend (see [`chaos`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub mod chaos;
pub mod conformance;
pub mod faults;
pub(crate) mod live;
pub(crate) mod reactor;
pub mod script;
pub mod sim;
pub mod tcp;
pub mod threads;
pub mod transport;

pub use faults::FaultPlan;
pub use live::{LiveClient, LiveSession, LiveSessionBuilder, Wire};
