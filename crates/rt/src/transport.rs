//! Runtime-selectable transports.
//!
//! [`ScriptTransport`] runs a batch of scripted client workloads ([`Op`]
//! sequences) to completion and reports per-op results. All three
//! runtimes implement it: [`SimTransport`] in virtual time, and
//! [`LiveTransport<W>`] over either live wire, driving each script on
//! its own thread. The KAP benchmark runner is written against this
//! trait, so the same workload runs on the simulator or over real
//! sockets. [`TransportKind`] names a runtime for CLI flags and test
//! environment variables; callers match it once into a generic function
//! over the wire.

use crate::faults::FaultPlan;
use crate::live::{LiveClient, LiveSession, Wire};
use crate::script::{Op, ScriptClient};
use crate::sim::SimSession;
use flux_broker::client::{ClientCore, Delivery};
use flux_broker::{BrokerConfig, CommsModule, RankOverlay};
use flux_sim::{NetParams, SimTime};
use flux_wire::{errnum, Rank};
use std::marker::PhantomData;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// The per-rank module factory every transport consumes.
pub type ModuleFactory<'a> = &'a (dyn Fn(Rank) -> Vec<Box<dyn CommsModule>> + 'a);

/// Which runtime hosts a session. Parsed from CLI flags and test
/// environment variables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Discrete-event simulator, virtual time.
    Sim,
    /// OS threads with channel links.
    Threads,
    /// One poll-based reactor thread per broker over loopback TCP links
    /// (also parses as `"reactor"`).
    Tcp,
}

impl TransportKind {
    /// Stable short name ("sim", "threads", "tcp").
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Sim => "sim",
            TransportKind::Threads => "threads",
            TransportKind::Tcp => "tcp",
        }
    }
}

impl FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(TransportKind::Sim),
            "threads" => Ok(TransportKind::Threads),
            // "reactor" names the implementation, "tcp" the wire; the
            // TCP transport *is* the reactor since ROADMAP item 3 landed.
            "tcp" | "reactor" => Ok(TransportKind::Tcp),
            other => {
                Err(format!("unknown transport {other:?} (want sim, threads, tcp, or reactor)"))
            }
        }
    }
}

/// Per-script results from a [`ScriptTransport`] run, mirroring the
/// simulator's [`crate::script::Outcome`] in plain nanoseconds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ScriptOutcome {
    /// Completion time of each op (ns since the session epoch).
    pub op_done_ns: Vec<u64>,
    /// Error number per op (0 = success).
    pub op_err: Vec<u32>,
    /// Raw reply payloads per op.
    pub replies: Vec<flux_value::Value>,
    /// True once every op completed.
    pub finished: bool,
}

/// What a scripted run produced, across all scripts.
///
/// Equality compares the *observable* results (outcomes, virtual-time
/// makespan, event and byte counts). The wall-clock diagnostics
/// (`wall_ns`, `events_per_sec`) are excluded — they vary run to run on
/// the same input, and determinism tests compare whole reports.
#[derive(Debug, Default, Clone)]
pub struct ScriptReport {
    /// One outcome per submitted script, in submission order.
    pub outcomes: Vec<ScriptOutcome>,
    /// When the run finished (ns since the session epoch; virtual or
    /// wall-clock depending on the transport).
    pub makespan_ns: u64,
    /// Engine events processed (simulator only; 0 on live transports).
    pub events: u64,
    /// Bytes moved over all links (simulator only; 0 on live transports).
    pub bytes: u64,
    /// Host wall-clock the engine spent dispatching, ns (simulator only;
    /// live transports' makespan *is* wall time, so this stays 0).
    pub wall_ns: u64,
    /// The engine's self-reported dispatch rate, events per wall-clock
    /// second (simulator only). Diagnostic — never compare across hosts.
    pub events_per_sec: f64,
}

impl PartialEq for ScriptReport {
    fn eq(&self, other: &Self) -> bool {
        self.outcomes == other.outcomes
            && self.makespan_ns == other.makespan_ns
            && self.events == other.events
            && self.bytes == other.bytes
    }
}

/// Runs batches of scripted clients to completion. The abstraction the
/// KAP runner targets: one workload definition, any runtime.
pub trait ScriptTransport {
    /// Short name ("sim", "threads", "tcp").
    fn name(&self) -> &'static str;

    /// Builds a session, runs every `(rank, ops)` script against it, and
    /// tears the session down.
    fn run_scripts(
        &self,
        size: u32,
        arity: u32,
        factory: ModuleFactory<'_>,
        scripts: Vec<(Rank, Vec<Op>)>,
    ) -> ScriptReport;
}

/// The discrete-event simulator as a script runner.
#[derive(Clone, Debug, Default)]
pub struct SimTransport {
    /// Simulated network parameters.
    pub net: NetParams,
    /// Fault-injection plan applied to every broker link.
    pub faults: Option<FaultPlan>,
    /// Virtual-time deadline for the run. Required when the module set
    /// generates periodic traffic forever (e.g. heartbeats), since the
    /// event heap never drains on its own then.
    pub deadline_ns: Option<u64>,
    /// Topology of the rank-addressed RPC overlay. The default ring is
    /// the paper prototype's debugging choice; sharded KVS sessions
    /// route commit parts rank-addressed on the hot path and should run
    /// the O(log N) tree overlay instead.
    pub overlay: RankOverlay,
}

impl ScriptTransport for SimTransport {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run_scripts(
        &self,
        size: u32,
        arity: u32,
        factory: ModuleFactory<'_>,
        scripts: Vec<(Rank, Vec<Op>)>,
    ) -> ScriptReport {
        let overlay = self.overlay;
        let config =
            move |r: Rank| BrokerConfig::new(r, size).with_arity(arity).with_rank_overlay(overlay);
        let mut session = match &self.faults {
            Some(plan) => {
                SimSession::with_config_and_faults(size, self.net, config, factory, plan)
            }
            None => SimSession::with_config(size, self.net, config, factory),
        };
        let handles: Vec<_> = scripts
            .into_iter()
            .map(|(rank, ops)| ScriptClient::spawn(&mut session, rank, ops))
            .collect();
        let end = match self.deadline_ns {
            Some(ns) => session.run_until(SimTime::from_nanos(ns)),
            // Unbudgeted quiescence runs cannot livelock-error; fall back
            // to the error's timestamp rather than panicking if they ever
            // could.
            None => match session.run_until_quiet(None) {
                Ok(t) => t,
                Err(e) => e.at,
            },
        };
        let stats = session.engine().stats();
        let outcomes = handles
            .into_iter()
            .map(|h| {
                let o = h.borrow();
                ScriptOutcome {
                    op_done_ns: o.op_done.iter().map(|t| t.as_nanos()).collect(),
                    op_err: o.op_err.clone(),
                    replies: o.replies.clone(),
                    finished: o.finished,
                }
            })
            .collect();
        let throughput = session.engine().throughput();
        ScriptReport {
            outcomes,
            makespan_ns: end.as_nanos(),
            events: stats.events,
            bytes: stats.bytes_delivered,
            wall_ns: throughput.wall.as_nanos() as u64,
            events_per_sec: throughput.events_per_sec,
        }
    }
}

/// How long a live script driver waits for any single op's reply before
/// recording `ETIMEDOUT` and abandoning the script.
pub const LIVE_OP_TIMEOUT: Duration = Duration::from_secs(30);

/// The per-op wait under a fault plan: lossy links make lost ops
/// routine, and waiting the full [`LIVE_OP_TIMEOUT`] for each would stall
/// a chaos sweep (its ops are answered within milliseconds or never).
pub const FAULTY_OP_TIMEOUT: Duration = Duration::from_millis(200);

/// A live session as a script runner, over the wire `W`
/// ([`Channels`](crate::threads::Channels) or [`Tcp`](crate::tcp::Tcp)),
/// optionally under a [`FaultPlan`] — the same seeded fault schedule that
/// drives a simulator run.
pub struct LiveTransport<W: Wire> {
    faults: Option<FaultPlan>,
    wire: PhantomData<W>,
}

impl<W: Wire> LiveTransport<W> {
    /// A transport whose sessions run under `faults`, if any. Each op
    /// waits [`FAULTY_OP_TIMEOUT`] with a plan, [`LIVE_OP_TIMEOUT`]
    /// without one.
    pub fn new(faults: Option<FaultPlan>) -> LiveTransport<W> {
        LiveTransport { faults, wire: PhantomData }
    }
}

impl<W: Wire> Default for LiveTransport<W> {
    fn default() -> Self {
        LiveTransport::new(None)
    }
}

/// Drives one op script synchronously over a live client, stamping
/// completion times relative to `epoch`. Any single op left unanswered
/// for `op_timeout` records `ETIMEDOUT` and abandons the script.
pub fn drive_script(
    client: &LiveClient,
    ops: &[Op],
    epoch: Instant,
    op_timeout: Duration,
) -> ScriptOutcome {
    let mut core = ClientCore::new(client.rank, client.client_id);
    let mut out = ScriptOutcome::default();
    for (idx, op) in ops.iter().enumerate() {
        let tag = idx as u64;
        if let Op::Pause(ns) = op {
            // flux-lint: allow(block) — script drivers run on their own
            // benchmark-harness threads; Pause *means* wall-clock sleep
            // (it models client think time between ops).
            std::thread::sleep(Duration::from_nanos(*ns));
            out.op_done_ns.push(epoch.elapsed().as_nanos() as u64);
            out.op_err.push(0);
            out.replies.push(flux_value::Value::Null);
            continue;
        }
        client.send(op.to_request(&mut core, tag));
        let deadline = Instant::now() + op_timeout;
        let reply = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break None;
            }
            let Some(msg) = client.recv_timeout(left) else { continue };
            match core.deliver(msg) {
                Delivery::Response { tag: t, msg } if t == tag => break Some(msg),
                Delivery::Response { .. } | Delivery::Event(_) | Delivery::Unmatched(_) => continue,
            }
        };
        match reply {
            Some(msg) => {
                out.op_done_ns.push(epoch.elapsed().as_nanos() as u64);
                out.op_err.push(msg.header.errnum);
                out.replies.push(msg.payload.into_value());
            }
            None => {
                out.op_done_ns.push(epoch.elapsed().as_nanos() as u64);
                out.op_err.push(errnum::ETIMEDOUT);
                out.replies.push(flux_value::Value::Null);
                return out; // abandoned: finished stays false
            }
        }
    }
    out.finished = true;
    out
}

impl<W: Wire> ScriptTransport for LiveTransport<W> {
    fn name(&self) -> &'static str {
        W::NAME
    }

    fn run_scripts(
        &self,
        size: u32,
        arity: u32,
        factory: ModuleFactory<'_>,
        scripts: Vec<(Rank, Vec<Op>)>,
    ) -> ScriptReport {
        let mut builder = LiveSession::<W>::builder(size, arity, factory);
        let op_timeout = match &self.faults {
            Some(plan) => {
                builder.set_faults(plan);
                FAULTY_OP_TIMEOUT
            }
            None => LIVE_OP_TIMEOUT,
        };
        let clients: Vec<LiveClient> =
            scripts.iter().map(|(rank, _)| builder.attach_client(*rank)).collect();
        let epoch = Instant::now();
        let session = builder.start();
        let drivers: Vec<_> = clients
            .into_iter()
            .zip(scripts)
            .map(|(client, (_, ops))| {
                std::thread::Builder::new()
                    .name(format!("flux-script-{}", client.rank.0))
                    .spawn(move || drive_script(&client, &ops, epoch, op_timeout))
                    // flux-lint: allow(panic) — benchmark-harness setup;
                    // failing to spawn a driver invalidates the run.
                    .expect("spawn script driver")
            })
            .collect();
        // flux-lint: allow(panic) — propagating a driver thread's panic
        // into the harness is the point: a crashed script must fail the
        // benchmark run, not produce a partial report.
        // flux-lint: allow(block) — harness barrier: run_scripts *is*
        // the wait for every script driver to finish; nothing else runs
        // on this thread until they do.
        let outcomes: Vec<ScriptOutcome> =
            drivers.into_iter().map(|d| d.join().expect("script driver panicked")).collect();
        let makespan_ns = epoch.elapsed().as_nanos() as u64;
        session.shutdown();
        ScriptReport { outcomes, makespan_ns, ..ScriptReport::default() }
    }
}
