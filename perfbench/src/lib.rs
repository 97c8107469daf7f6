//! The repository benchmark: one command, four workloads, every output
//! checked (see `README.md` in this directory).

pub mod des;
pub mod replay;
pub mod stats;
pub mod tcp;
pub mod trace;
pub mod workloads;
