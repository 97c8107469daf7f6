//! The shared transport-conformance battery, instantiated per runtime.
//!
//! Every live transport must pass the identical behavioural checks
//! (`flux_rt::conformance`): handshake + rank-addressed RPC, KVS
//! put/commit/get + barrier, watch streams, a 32-deep pipelined request
//! window, a 16-broker fence, the stale-read guard, and ordered
//! shutdown under load. `tcp` here is the poll-based reactor runtime —
//! this file is the proof it is a drop-in replacement for the
//! thread-per-link transport it replaced.

flux_rt::transport_conformance!(threads, flux_rt::threads::Channels);
flux_rt::transport_conformance!(reactor_tcp, flux_rt::tcp::Tcp);
