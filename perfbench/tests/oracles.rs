//! The benchmark's own tests: a tiny-size smoke of every workload that
//! runs every oracle, the metric names against `BENCHMARK.json`, and
//! planted faults each oracle must catch.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use flux_perfbench::des::{
    check_gets, committed_counts, cross_check, run_session, sweep_cell, SimCounts, SteppedSim,
};
use flux_perfbench::tcp::Plant;
use flux_perfbench::workloads::{run, Config, Outcome, WORKLOADS};
use flux_rt::script::Op;
use flux_value::Value;
use std::collections::BTreeSet;

fn root_file(name: &str) -> String {
    format!("{}/../{name}", env!("CARGO_MANIFEST_DIR"))
}

fn small(workload: &str, trace: bool, plant: Plant) -> Outcome {
    let cfg = Config {
        workload: workload.into(),
        seed: 7,
        seconds: 1.0,
        trace,
        small: true,
        bench_kap: root_file("BENCH_kap.json"),
        plant,
    };
    run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(root_file("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

#[test]
fn every_workload_passes_its_oracles_and_reports_the_declared_metrics() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = small(w, trace, Plant::default());
            assert!(out.correct, "{w} trace={trace}: {:?}", out.violations);
            assert!(out.attempted > 0 && out.failed == 0, "{w}: {out:?}");
            let (got, want) = if trace {
                (&out.per_layer, &layers)
            } else {
                (&out.end_to_end, &e2e)
            };
            let names: BTreeSet<String> = got.iter().map(|m| m.name.clone()).collect();
            assert_eq!(&names, want, "{w} trace={trace}: metric names");
            if !trace {
                for m in got {
                    assert!(
                        m.value > 0.0 && m.value.is_finite(),
                        "{w}: {} = {}",
                        m.name,
                        m.value
                    );
                }
            }
        }
    }
}

#[test]
fn module_self_time_accounts_for_simulator_dispatch() {
    let out = small("kap_fence_8k", true, Plant::default());
    let get = |n: &str| {
        out.per_layer
            .iter()
            .find(|m| m.name == n)
            .map(|m| m.value)
            .expect(n)
    };
    let dispatch = get("sim.dispatch_s");
    let explained = get("modules.self_s") + get("sim.engine_broker_self_s");
    assert!(
        (explained - dispatch).abs() <= dispatch * 1e-6,
        "{explained} vs {dispatch}"
    );
    assert!(get("kvs.response.calls") > 0.0 && get("sim.events") > 0.0);
}

#[test]
fn planted_corrupt_get_value_is_caught_on_the_simulator() {
    let cell = sweep_cell("scale/fence/unique/r128");
    let sim = SteppedSim {
        net: cell.params.net,
        setup_reps: 1,
        per_event: false,
        last: Default::default(),
    };
    let (mut session, ok) = run_session(&cell.params, &sim, None);
    assert!(ok);
    assert_eq!(check_gets(&cell.params, &session).1, 0);
    let (si, i) = session
        .scripts
        .iter()
        .enumerate()
        .find_map(|(si, (_, ops))| {
            ops.iter()
                .position(|o| matches!(o, Op::Get { .. }))
                .map(|i| (si, i))
        })
        .expect("a get");
    session.report.outcomes[si].replies[i] = Value::from_pairs([("v", Value::from("00000000:xx"))]);
    let (_, failed, errs) = check_gets(&cell.params, &session);
    assert_eq!(failed, 1, "{errs:?}");
}

#[test]
fn planted_corrupt_get_value_is_caught_over_tcp() {
    let out = small(
        "kvs_tcp",
        false,
        Plant {
            corrupt_get: Some(3),
            ..Plant::default()
        },
    );
    assert!(!out.correct);
    assert!(out.failed >= 1, "{out:?}");
    assert!(
        out.violations.iter().any(|v| v.contains("get")),
        "{:?}",
        out.violations
    );
}

#[test]
fn planted_dropped_ping_reply_is_caught() {
    let out = small(
        "rpc_paced",
        false,
        Plant {
            drop_reply: Some(5),
            ..Plant::default()
        },
    );
    assert!(!out.correct);
    assert_eq!(out.failed, 1, "{:?}", out.violations);
    assert!(
        out.violations
            .iter()
            .any(|v| v.contains("answered 0 times")),
        "{:?}",
        out.violations
    );
}

#[test]
fn altered_expected_makespan_fails_the_determinism_cross_check() {
    let name = "scale/wait_version/r128";
    let text = std::fs::read_to_string(root_file("BENCH_kap.json")).expect("BENCH_kap.json");
    let committed = committed_counts(&Value::parse(&text).expect("parses"), name).expect("cell");
    let cell = sweep_cell(name);
    let sim = SteppedSim {
        net: cell.params.net,
        setup_reps: 1,
        per_event: true,
        last: Default::default(),
    };
    let runs: Vec<SimCounts> = (0..2)
        .map(|_| SimCounts::of(&run_session(&cell.params, &sim, None).0))
        .collect();
    assert!(cross_check(name, &runs, committed).is_empty());
    let altered = SimCounts {
        makespan_ns: committed.makespan_ns + 1,
        ..committed
    };
    assert_eq!(cross_check(name, &runs, altered).len(), 2);
}
