//! The four workloads, their oracles, and the metrics they report.

use crate::des::{
    check_gets, committed_counts, cross_check, run_session, sweep_cell, SimCounts, SteppedSim,
};
use crate::replay::{replay, Replay};
use crate::stats::{median, percentile, Lat};
use crate::tcp::{
    kvs_session, ping_session, start_live, KvsResult, PingResult, Plant, WireStats, KVS_CONNS,
};
use crate::trace::{Callback, Folded, Tracer};
use flux_wire::MsgId;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Every workload this benchmark runs (`BENCHMARK.json` declares all
/// but `kap_fence_8k`; see `README.md`).
pub const WORKLOADS: [&str; 4] = ["kap_fence_8k", "kap_waitver_8k", "kvs_tcp", "rpc_paced"];

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs (the simulator workloads have none).
    pub seed: u64,
    /// Measured wall time.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny sizes for the benchmark's own tests.
    pub small: bool,
    /// Path of the committed `BENCH_kap.json`.
    pub bench_kap: String,
    /// Faults planted to prove the oracles.
    pub plant: Plant,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: u64,
}

/// The result of one run.
#[derive(Default, Debug)]
pub struct Outcome {
    /// Every output passed its oracle.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (errors, unanswered, wrong answers).
    pub failed: u64,
    /// End-to-end metrics (the `BENCHMARK.json` set), untraced runs only.
    pub end_to_end: Vec<Metric>,
    /// The workload's own named end-to-end metrics, printed for reading.
    pub named: Vec<Metric>,
    /// Per-layer metrics, traced runs only.
    pub per_layer: Vec<Metric>,
    /// Oracle violations (first few).
    pub violations: Vec<String>,
    /// Whether the inputs depend on the seed.
    pub seeded: bool,
}

impl Outcome {
    fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str, n: u64) {
        list.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            n,
        });
    }

    fn e2e(&mut self, name: &str, value: f64, unit: &'static str, n: u64) {
        Self::push(&mut self.end_to_end, name, value, unit, n);
    }

    fn named(&mut self, name: &str, value: f64, unit: &'static str, n: u64) {
        Self::push(&mut self.named, name, value, unit, n);
    }

    fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        Self::push(&mut self.per_layer, name, value, unit, 1);
    }

    fn violate(&mut self, v: impl IntoIterator<Item = String>) {
        for v in v {
            if self.violations.len() < 16 {
                self.violations.push(v);
            }
        }
    }

    fn finish(&mut self) {
        self.correct = self.failed == 0 && self.violations.is_empty() && self.attempted > 0;
        let frac = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        self.named("ops_failed_frac", frac, "ratio", self.attempted);
    }
}

/// The process's peak resident set, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one configured workload.
///
/// # Errors
/// Returns a message for an unknown workload or a failed session.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = match cfg.workload.as_str() {
        "kap_fence_8k" => des(
            cfg,
            if cfg.small {
                "scale/fence/unique/r128"
            } else {
                "scale/fence/unique/r8192"
            },
        ),
        "kap_waitver_8k" => des(
            cfg,
            if cfg.small {
                "scale/wait_version/r128"
            } else {
                "scale/wait_version/r8192"
            },
        ),
        "kvs_tcp" => kvs(cfg).map_err(|e| format!("kvs_tcp: {e}"))?,
        "rpc_paced" => ping(cfg).map_err(|e| format!("rpc_paced: {e}"))?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (want one of {WORKLOADS:?})"
            ))
        }
    };
    if !cfg.trace {
        out.e2e("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    }
    out.finish();
    Ok(out)
}

/// Folds module traces into per-layer metrics common to every workload.
fn module_layers(out: &mut Outcome, f: &Folded) {
    let cell = |out: &mut Outcome, prefix: String, s: &crate::trace::CallStat, p50: bool| {
        out.layer(&format!("{prefix}.calls"), s.calls as f64, "count");
        out.layer(&format!("{prefix}.self_s"), s.self_ns as f64 / 1e9, "s");
        if p50 {
            let mut v = s.samples.clone();
            out.layer(
                &format!("{prefix}.p50_us"),
                percentile(&mut v, 50.0) as f64 / 1e3,
                "us",
            );
        }
    };
    for cb in [
        Callback::Request,
        Callback::Response,
        Callback::Event,
        Callback::Heartbeat,
        Callback::Timer,
    ] {
        cell(
            out,
            format!("kvs.{}", cb.name()),
            &f.callback("kvs", cb),
            true,
        );
    }
    for m in KVS_METHODS {
        let s = f
            .methods
            .get(&("kvs", (*m).to_owned()))
            .cloned()
            .unwrap_or_default();
        cell(out, format!("kvs.request.{m}"), &s, false);
    }
    for cb in [Callback::Request, Callback::Response, Callback::Event] {
        cell(
            out,
            format!("barrier.{}", cb.name()),
            &f.callback("barrier", cb),
            true,
        );
    }
    for module in OTHER_MODULES {
        let mut total = crate::trace::CallStat::default();
        for cb in Callback::ALL {
            total.merge(&f.callback(module, cb));
        }
        cell(out, (*module).to_owned(), &total, false);
    }
    out.layer("modules.self_s", f.total_self_ns() as f64 / 1e9, "s");
}

/// `kvs` request methods reported one by one.
pub const KVS_METHODS: &[&str] = &[
    "get",
    "put",
    "commit",
    "fence",
    "fence.up",
    "load",
    "push",
    "wait_version",
];

/// Modules reported as one total each.
pub const OTHER_MODULES: &[&str] = &["hb", "live", "log", "mon", "group", "wexec", "resvc"];

/// Per-byte costs and explained shares from the layer replay.
fn replay_layers(out: &mut Outcome, f: &Folded) {
    let resp = replay(&f.response_objects);
    let req = replay(&f.request_objects);
    let mut both = Replay::default();
    both.add(&resp);
    both.add(&req);
    let per_kib = |ns: u64, bytes: u64| {
        if bytes == 0 {
            0.0
        } else {
            ns as f64 * 1024.0 / bytes as f64
        }
    };
    out.layer(
        "hash.sha1_ns_per_kib",
        per_kib(both.sha1_ns, both.encoded_bytes),
        "ns/KiB",
    );
    out.layer(
        "value.canonical_encode_ns_per_kib",
        per_kib(both.encode_ns, both.encoded_bytes),
        "ns/KiB",
    );
    out.layer(
        "kvs.object.from_value_ns_per_kib",
        per_kib(both.decode_ns, both.payload_bytes),
        "ns/KiB",
    );
    out.layer(
        "hash.sha1_bytes",
        resp.run_sha1_bytes() + req.run_sha1_bytes(),
        "bytes",
    );
    let share = |explained: f64, s: u64| if s == 0 { 0.0 } else { explained / s as f64 };
    let resp_self = f.callback("kvs", Callback::Response).self_ns;
    let req_self = f.callback("kvs", Callback::Request).self_ns;
    out.layer(
        "kvs.response.replay_share",
        share(resp.explained_ns(), resp_self),
        "ratio",
    );
    out.layer(
        "kvs.request.replay_share",
        share(req.explained_ns(), req_self),
        "ratio",
    );
}

/// Driver-side wire metrics and span attribution (zero on the simulator).
fn wire_layers(out: &mut Outcome, w: &WireStats, handler: &HashMap<MsgId, u64>) {
    let frames = w.frames_in + w.frames_out;
    out.layer("wire.frames", frames as f64, "count");
    out.layer("wire.bytes_in", w.bytes_in as f64, "bytes");
    out.layer("wire.bytes_out", w.bytes_out as f64, "bytes");
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    out.layer(
        "wire.encode_ns_per_frame",
        per(w.encode_ns, w.frames_out),
        "ns",
    );
    out.layer(
        "wire.decode_ns_per_frame",
        per(w.decode_ns, w.frames_in),
        "ns",
    );
    let mut span: Vec<u64> = w.spans.iter().map(|s| s.1).collect();
    let mut hand: Vec<u64> = w
        .spans
        .iter()
        .map(|s| handler.get(&s.0).copied().unwrap_or(0))
        .collect();
    let mut server: Vec<u64> = w
        .spans
        .iter()
        .map(|&(id, span, enc, dec)| {
            span.saturating_sub(handler.get(&id).copied().unwrap_or(0) + enc + dec)
        })
        .collect();
    out.layer(
        "rt.rpc_span_p50_us",
        percentile(&mut span, 50.0) as f64 / 1e3,
        "us",
    );
    out.layer(
        "rt.handler_self_p50_us",
        percentile(&mut hand, 50.0) as f64 / 1e3,
        "us",
    );
    out.layer(
        "rt.server_self_p50_us",
        percentile(&mut server, 50.0) as f64 / 1e3,
        "us",
    );
}

fn sim_layers(out: &mut Outcome, counts: Option<SimCounts>, dispatch_ns: u64, modules_ns: u64) {
    let c = counts.unwrap_or(SimCounts {
        events: 0,
        bytes: 0,
        makespan_ns: 0,
    });
    out.layer("sim.events", c.events as f64, "count");
    out.layer("sim.bytes", c.bytes as f64, "bytes");
    out.layer("sim.virtual_makespan_ns", c.makespan_ns as f64, "ns");
    out.layer("sim.dispatch_s", dispatch_ns as f64 / 1e9, "s");
    let engine_ns = dispatch_ns.saturating_sub(modules_ns);
    out.layer("sim.engine_broker_self_s", engine_ns as f64 / 1e9, "s");
    let per = if c.events == 0 {
        0.0
    } else {
        engine_ns as f64 / c.events as f64
    };
    out.layer("sim.ns_per_event", per, "ns");
}

fn tail_layers(out: &mut Outcome, lat: &mut Lat, overhead: f64) {
    out.layer("tail.op_p99_us", lat.pct_us(99.0), "us");
    out.layer("tail.op_p999_us", lat.pct_us(99.9), "us");
    out.layer("tail.op_max_us", lat.pct_us(100.0), "us");
    out.layer("trace.overhead_frac", overhead, "ratio");
}

fn gen_layers(out: &mut Outcome, late: &mut Lat, backlog: u64) {
    out.layer("gen.late_p99_us", late.pct_us(99.0), "us");
    out.layer("gen.backlog_max", backlog as f64, "count");
}

fn secs(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e9).collect()
}

// ------------------------------------------------------------- simulator

/// Set-up builds per simulated session.
const DES_SETUP_REPS: usize = 5;

fn des(cfg: &Config, cell_name: &str) -> Outcome {
    let mut out = Outcome::default();
    let params = sweep_cell(cell_name).params;
    let committed = std::fs::read_to_string(&cfg.bench_kap)
        .ok()
        .and_then(|t| flux_value::Value::parse(&t).ok())
        .and_then(|doc| committed_counts(&doc, cell_name));
    if committed.is_none() {
        out.violate([format!(
            "no committed counts for {cell_name} in {}",
            cfg.bench_kap
        )]);
    }
    let start = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut counts = Vec::new();
    let mut setup = Vec::new();
    let mut events = Lat::default();
    let mut eps = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut folded = Folded::default();
    let mut traced_dispatch = 0;
    let mut last = Duration::ZERO;
    // Sessions fill the budget, at least one. A traced run alternates
    // untraced and traced sessions, at least two untraced (the first
    // runs cold) and one traced, so the tracing overhead compares like
    // with like.
    loop {
        let enough = if cfg.trace {
            walls.len() >= 2 && !traced_walls.is_empty()
        } else {
            !walls.is_empty()
        };
        if enough && start.elapsed() + last > budget {
            break;
        }
        let traced = cfg.trace && walls.len() > traced_walls.len();
        let sim = SteppedSim {
            net: params.net,
            setup_reps: if cfg.trace { 1 } else { DES_SETUP_REPS },
            per_event: !cfg.trace,
            last: Default::default(),
        };
        let tracer = Tracer::default();
        let t = Instant::now();
        let (session, _) = run_session(&params, &sim, traced.then_some(&tracer));
        last = t.elapsed();
        let (a, f, errs) = check_gets(&params, &session);
        out.attempted += a;
        out.failed += f;
        out.violate(errs);
        counts.push(SimCounts::of(&session));
        setup.extend(secs(&session.setup_ns));
        events.ns.extend_from_slice(&session.event_ns);
        eps.push(session.events as f64 / (session.sim_wall_ns as f64 / 1e9));
        if traced {
            traced_walls.push(session.sim_wall_ns as f64);
            traced_dispatch = session.dispatch_ns;
            folded = Folded::default();
            folded.fold(tracer.drain());
        } else {
            walls.push(session.sim_wall_ns as f64);
        }
    }
    if let Some(c) = committed {
        out.violate(cross_check(cell_name, &counts, c));
    }
    let n = walls.len() as u64;
    if cfg.trace {
        sim_layers(
            &mut out,
            counts.last().copied(),
            traced_dispatch,
            folded.total_self_ns(),
        );
        module_layers(&mut out, &folded);
        replay_layers(&mut out, &folded);
        wire_layers(&mut out, &WireStats::default(), &HashMap::new());
        // The first session pays the cold start; leave it out when
        // there are others to compare.
        let warm = if walls.len() > 1 {
            &walls[1..]
        } else {
            &walls[..]
        };
        let overhead = median(&traced_walls) / median(warm) - 1.0;
        tail_layers(&mut out, &mut Lat::default(), overhead);
        gen_layers(&mut out, &mut Lat::default(), 0);
    } else {
        out.e2e("setup_s", median(&setup), "s", setup.len() as u64);
        out.e2e("ops_per_s", median(&eps), "1/s", n);
        let samples = events.len() as u64;
        out.e2e("op_p50_us", events.pct_us(50.0), "us", samples);
        out.e2e("op_p90_us", events.pct_us(90.0), "us", samples);
        out.named("setup_s", median(&setup), "s", setup.len() as u64);
        out.named("sim_wall_s", median(&walls) / 1e9, "s", n);
    }
    out
}

// ------------------------------------------------------------- reactor

/// Wall time of one measured live session.
const SESSION: Duration = Duration::from_secs(5);
/// Warm-up before each live session's measurement.
const WARM: Duration = Duration::from_millis(500);
/// Set-up-only builds per live run. A live set-up takes well under a
/// millisecond to a few, with a long scheduling tail, so the builds are
/// spread over the run (a share before each measured session) to
/// sample the host as the run goes.
const LIVE_SETUP_REPS: usize = 64;

/// How many measured live sessions fit the budget, and their length.
fn live_sessions(cfg: &Config) -> (usize, Duration) {
    if cfg.small {
        return (if cfg.trace { 2 } else { 1 }, Duration::from_millis(300));
    }
    let n = (cfg.seconds / SESSION.as_secs_f64())
        .round()
        .max(if cfg.trace { 2.0 } else { 1.0 });
    (n as usize, Duration::from_secs_f64(cfg.seconds / n))
}

/// Times `reps` set-ups of a live session of `size` brokers with
/// `conns` clients, in seconds.
fn setup_only(size: u32, conns: usize, reps: usize) -> std::io::Result<Vec<f64>> {
    let mut v = Vec::new();
    for _ in 0..reps {
        let (live, ns) = start_live(size, conns, None, false)?;
        v.push(ns as f64 / 1e9);
        drop(live.conns);
        live.session.shutdown();
    }
    Ok(v)
}

fn handler_spans(f: &Folded) -> HashMap<MsgId, u64> {
    let mut m = HashMap::new();
    for &(id, ns) in &f.request_ids {
        *m.entry(id).or_insert(0) += ns;
    }
    m
}

fn kvs(cfg: &Config) -> std::io::Result<Outcome> {
    let mut out = Outcome {
        seeded: true,
        ..Outcome::default()
    };
    let (n, len) = live_sessions(cfg);
    let mut setup = Vec::new();
    let mut plain = KvsResult::default();
    let mut traced = KvsResult::default();
    let tracer = Tracer::default();
    for i in 0..n {
        let with_trace = cfg.trace && i >= n / 2;
        let res = if with_trace { &mut traced } else { &mut plain };
        if !cfg.trace {
            setup.extend(setup_only(2, KVS_CONNS, LIVE_SETUP_REPS.div_ceil(n))?);
        }
        let t = with_trace.then_some(&tracer);
        kvs_session(cfg.seed, i as u64, WARM.min(len), len, t, cfg.plant, res)?;
    }
    for r in [&plain, &traced] {
        out.attempted += r.tally.attempted;
        out.failed += r.tally.failed;
        out.violate(r.tally.violations.iter().cloned());
    }
    if cfg.trace {
        let mut folded = Folded::default();
        folded.fold(tracer.drain());
        sim_layers(&mut out, None, 0, 0);
        module_layers(&mut out, &folded);
        replay_layers(&mut out, &folded);
        wire_layers(&mut out, &traced.wire, &handler_spans(&folded));
        let overhead = median(&plain.ops_per_s) / median(&traced.ops_per_s) - 1.0;
        tail_layers(&mut out, &mut plain.all, overhead);
        gen_layers(&mut out, &mut Lat::default(), 0);
    } else {
        let k = plain.ops_per_s.len() as u64;
        out.e2e("setup_s", median(&setup), "s", setup.len() as u64);
        out.e2e("ops_per_s", median(&plain.ops_per_s), "1/s", k);
        let samples = plain.all.len() as u64;
        out.e2e("op_p50_us", plain.all.pct_us(50.0), "us", samples);
        out.e2e("op_p90_us", plain.all.pct_us(90.0), "us", samples);
        out.named("setup_s", median(&setup), "s", setup.len() as u64);
        out.named("kvs_ops_per_s", median(&plain.ops_per_s), "1/s", k);
        let (nc, ng) = (plain.commit.len() as u64, plain.get.len() as u64);
        out.named("kvs_commit_p50_us", plain.commit.pct_us(50.0), "us", nc);
        out.named("kvs_commit_p90_us", plain.commit.pct_us(90.0), "us", nc);
        out.named("kvs_get_p50_us", plain.get.pct_us(50.0), "us", ng);
        out.named("kvs_get_p90_us", plain.get.pct_us(90.0), "us", ng);
        let np = plain.put.len() as u64;
        out.named("kvs_put_p50_us", plain.put.pct_us(50.0), "us", np);
    }
    Ok(out)
}

/// Offered `cmb.ping` rate.
pub const PING_HZ: u64 = 1000;

fn ping(cfg: &Config) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let (n, len) = live_sessions(cfg);
    let count = (len.as_secs_f64() * PING_HZ as f64) as u64;
    let mut setup = Vec::new();
    let mut plain = PingResult::default();
    let mut traced = PingResult::default();
    let tracer = Tracer::default();
    for i in 0..n {
        let with_trace = cfg.trace && i >= n / 2;
        let res = if with_trace { &mut traced } else { &mut plain };
        if !cfg.trace {
            setup.extend(setup_only(1, 1, LIVE_SETUP_REPS.div_ceil(n))?);
        }
        ping_session(
            PING_HZ,
            count,
            with_trace.then_some(&tracer),
            cfg.plant,
            res,
        )?;
    }
    for r in [&plain, &traced] {
        out.attempted += r.tally.attempted;
        out.failed += r.tally.failed;
        out.violate(r.tally.violations.iter().cloned());
    }
    if cfg.trace {
        let mut folded = Folded::default();
        folded.fold(tracer.drain());
        sim_layers(&mut out, None, 0, 0);
        module_layers(&mut out, &folded);
        replay_layers(&mut out, &folded);
        wire_layers(&mut out, &traced.wire, &handler_spans(&folded));
        let overhead = traced.lat.pct_us(50.0) / plain.lat.pct_us(50.0) - 1.0;
        let backlog = traced.backlog_max.max(plain.backlog_max);
        tail_layers(&mut out, &mut plain.lat, overhead);
        plain.late.extend(&traced.late);
        gen_layers(&mut out, &mut plain.late, backlog);
    } else {
        let samples = plain.lat.len() as u64;
        out.e2e("setup_s", median(&setup), "s", setup.len() as u64);
        out.e2e(
            "ops_per_s",
            median(&plain.rate),
            "1/s",
            plain.rate.len() as u64,
        );
        out.e2e("op_p50_us", plain.lat.pct_us(50.0), "us", samples);
        out.e2e("op_p90_us", plain.lat.pct_us(90.0), "us", samples);
        out.named("setup_s", median(&setup), "s", setup.len() as u64);
        out.named("ping_p50_us", plain.lat.pct_us(50.0), "us", samples);
        out.named("ping_p90_us", plain.lat.pct_us(90.0), "us", samples);
        out.named(
            "gen_late_p50_us",
            plain.late.pct_us(50.0),
            "us",
            plain.late.len() as u64,
        );
        out.named(
            "gen_late_p99_us",
            plain.late.pct_us(99.0),
            "us",
            plain.late.len() as u64,
        );
    }
    Ok(out)
}
