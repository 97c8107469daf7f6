//! The simulator workloads: KAP cells of the committed scale sweep,
//! run to quiescence with every event's dispatch timed.
//!
//! [`SteppedSim`] is the simulator as a [`ScriptTransport`], like
//! `flux_rt::transport::SimTransport`, except that it builds the
//! session several times (the set-up samples), steps the engine one
//! event at a time (the per-event wall samples) and keeps the scripts
//! and replies for the output oracle.

use crate::trace::{TracedTransport, Tracer};
use flux_broker::{BrokerConfig, RankOverlay};
use flux_kap::bench::{scale_sweep_cells, Cell};
use flux_kap::layout::value_for;
use flux_kap::{run_kap_full, KapParams};
use flux_rt::script::{Op, ScriptClient};
use flux_rt::sim::SimSession;
use flux_rt::transport::{ModuleFactory, ScriptOutcome, ScriptReport, ScriptTransport};
use flux_sim::NetParams;
use flux_value::Value;
use flux_wire::Rank;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What one simulated session produced.
pub struct DesSession {
    /// Session-build plus client-attach time of each build, ns.
    pub setup_ns: Vec<u64>,
    /// Wall time of each dispatched event, ns (empty unless stepped).
    pub event_ns: Vec<u64>,
    /// Wall time from the first dispatched event to quiescence, ns.
    pub sim_wall_ns: u64,
    /// The engine's own dispatch wall (`Engine::throughput`), ns.
    pub dispatch_ns: u64,
    /// Events dispatched.
    pub events: u64,
    /// Bytes delivered over all links.
    pub bytes: u64,
    /// Virtual time at quiescence, ns.
    pub makespan_ns: u64,
    /// The scripts the session ran.
    pub scripts: Vec<(Rank, Vec<Op>)>,
    /// Their outcomes.
    pub report: ScriptReport,
}

/// The simulator as a script runner that captures what the benchmark
/// measures and checks.
pub struct SteppedSim {
    /// Simulated network parameters.
    pub net: NetParams,
    /// Session builds per run; all but the last are dropped unrun.
    pub setup_reps: usize,
    /// Time every event (one `run_budgeted(1)` per event) instead of
    /// running to quiescence in one call.
    pub per_event: bool,
    /// The last session run.
    pub last: RefCell<Option<DesSession>>,
}

type Handles = Vec<flux_rt::script::OutcomeHandle>;

fn build(
    size: u32,
    arity: u32,
    net: NetParams,
    factory: ModuleFactory<'_>,
    scripts: Vec<(Rank, Vec<Op>)>,
) -> (SimSession, Handles) {
    // The committed unsharded KAP cells run the ring overlay.
    let config = move |r: Rank| {
        BrokerConfig::new(r, size)
            .with_arity(arity)
            .with_rank_overlay(RankOverlay::Ring)
    };
    let mut session = SimSession::with_config(size, net, config, factory);
    let handles = scripts
        .into_iter()
        .map(|(rank, ops)| ScriptClient::spawn(&mut session, rank, ops))
        .collect();
    (session, handles)
}

impl ScriptTransport for SteppedSim {
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
        let mut setup_ns = Vec::new();
        for _ in 1..self.setup_reps.max(1) {
            let copy = scripts.clone();
            let t = Instant::now();
            let built = build(size, arity, self.net, factory, copy);
            setup_ns.push(t.elapsed().as_nanos() as u64);
            drop(built);
        }
        let kept = scripts.clone();
        let t = Instant::now();
        let (mut session, handles) = build(size, arity, self.net, factory, scripts);
        setup_ns.push(t.elapsed().as_nanos() as u64);

        let mut event_ns = Vec::new();
        let start = Instant::now();
        if self.per_event {
            let engine = session.engine_mut();
            loop {
                let before = engine.stats().events;
                let t = Instant::now();
                let (_, quiet) = engine.run_budgeted(1);
                let ns = t.elapsed().as_nanos() as u64;
                if engine.stats().events > before {
                    event_ns.push(ns);
                }
                if quiet {
                    break;
                }
            }
        } else {
            session.engine_mut().run();
        }
        let sim_wall_ns = start.elapsed().as_nanos() as u64;

        let engine = session.engine();
        let stats = engine.stats();
        let outcomes = handles
            .iter()
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
        let report = ScriptReport {
            outcomes,
            makespan_ns: engine.now().as_nanos(),
            events: stats.events,
            bytes: stats.bytes_delivered,
            wall_ns: engine.throughput().wall.as_nanos() as u64,
            events_per_sec: engine.throughput().events_per_sec,
        };
        *self.last.borrow_mut() = Some(DesSession {
            setup_ns,
            event_ns,
            sim_wall_ns,
            dispatch_ns: report.wall_ns,
            events: report.events,
            bytes: report.bytes,
            makespan_ns: report.makespan_ns,
            scripts: kept,
            report: report.clone(),
        });
        report
    }
}

/// The committed scale-sweep cell named `name`.
///
/// # Panics
/// Panics if the sweep has no such cell.
pub fn sweep_cell(name: &str) -> Cell {
    scale_sweep_cells()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no scale-sweep cell {name}"))
}

/// Runs one KAP session of `params`, traced when `tracer` is given.
/// Returns the captured session and whether the KAP runner completed
/// (it panics on any op error; the replies are kept either way).
pub fn run_session(
    params: &KapParams,
    sim: &SteppedSim,
    tracer: Option<&Tracer>,
) -> (DesSession, bool) {
    let transport = TracedTransport { inner: sim, tracer };
    let ok = catch_unwind(AssertUnwindSafe(|| run_kap_full(params, &transport))).is_ok();
    let session = sim
        .last
        .borrow_mut()
        .take()
        .expect("the KAP runner ran no session");
    (session, ok)
}

/// The object number a KAP key names (`kap.k<obj>` or
/// `kap.d<dir>.k<obj>`).
pub fn object_of(key: &str) -> Option<u64> {
    key.rsplit_once(".k").and_then(|(_, n)| n.parse().ok())
}

/// Output oracle: every op answered without error, and every get
/// returned `value_for` of the key's producer. Returns (ops attempted,
/// ops failed, first few violations).
pub fn check_gets(params: &KapParams, session: &DesSession) -> (u64, u64, Vec<String>) {
    let mut attempted = 0;
    let mut failed = 0;
    let mut errs = Vec::new();
    let fail = |errs: &mut Vec<String>, msg: String| {
        if errs.len() < 5 {
            errs.push(msg);
        }
    };
    for (si, (_, ops)) in session.scripts.iter().enumerate() {
        let out = session.report.outcomes.get(si);
        for (i, op) in ops.iter().enumerate() {
            attempted += 1;
            let err = out.and_then(|o| o.op_err.get(i).copied());
            if err != Some(0) {
                failed += 1;
                fail(&mut errs, format!("process {si} op {i}: error {err:?}"));
                continue;
            }
            if let Op::Get { key } = op {
                let want =
                    object_of(key).map(|obj| value_for(obj, params.value_size, params.redundant));
                let got = out.and_then(|o| o.replies.get(i)).and_then(|r| r.get("v"));
                if want.is_none() || got != want.as_ref() {
                    failed += 1;
                    fail(&mut errs, format!("process {si} get {key}: wrong value"));
                }
            }
        }
    }
    (attempted, failed, errs)
}

/// The deterministic counts of one session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimCounts {
    /// Events dispatched.
    pub events: u64,
    /// Bytes delivered.
    pub bytes: u64,
    /// Virtual makespan, ns.
    pub makespan_ns: u64,
}

impl SimCounts {
    /// The counts of a session.
    pub fn of(s: &DesSession) -> SimCounts {
        SimCounts {
            events: s.events,
            bytes: s.bytes,
            makespan_ns: s.makespan_ns,
        }
    }
}

/// Reads the committed counts of cell `name` from a `BENCH_kap.json`
/// document.
pub fn committed_counts(doc: &Value, name: &str) -> Option<SimCounts> {
    let cells = doc.get("scale_sweep")?.get("cells")?.as_array()?;
    let cell = cells
        .iter()
        .find(|c| c.get("name").and_then(Value::as_str) == Some(name))?;
    Some(SimCounts {
        events: cell.get("events")?.as_uint()?,
        bytes: cell.get("bytes_on_wire")?.as_uint()?,
        makespan_ns: cell.get("makespan_ns")?.as_uint()?,
    })
}

/// Determinism cross-check: every repetition's counts equal the
/// committed cell's. Returns the mismatches.
pub fn cross_check(name: &str, observed: &[SimCounts], committed: SimCounts) -> Vec<String> {
    observed
        .iter()
        .enumerate()
        .filter(|(_, c)| **c != committed)
        .map(|(i, c)| format!("{name} repetition {i}: {c:?} != committed {committed:?}"))
        .collect()
}
