//! Harness-level guarantees for the sustained-RPC bench matrix.
//!
//! Every cell is wall-clock (live sockets), so nothing is pinned to
//! absolute numbers. What the committed `BENCH_rpc.json` must always
//! show — and what a regenerated file must reproduce — are the
//! *relations* the reactor exists for:
//!
//! * at the ≥1k-client head-to-head, the pipelined reactor's throughput
//!   is strictly above the thread-per-link baseline's;
//! * deep request windows are strictly above window 1 (pipelining pays);
//! * the 4k-client scale point exists and completed every RPC —
//!   a population the thread-per-link architecture would need 8k OS
//!   threads to serve;
//! * at one client and window 1 — the low-load latency floor — the
//!   reactor's median round trip is within 1.5× the thread-per-link
//!   baseline's, whose blocked reader thread wakes on the first byte.
//!
//! Plus a live smoke: a small cell of each architecture actually runs.

use flux_bench::rpc::{self, RpcParams, ServerKind};
use flux_value::Value;

fn golden() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rpc.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_rpc.json");
    Value::parse(&text).expect("BENCH_rpc.json parses")
}

fn cell<'a>(doc: &'a Value, name: &str) -> &'a Value {
    doc.get("cells")
        .and_then(Value::as_array)
        .and_then(|cells| {
            cells.iter().find(|c| c.get("name").and_then(Value::as_str) == Some(name))
        })
        .unwrap_or_else(|| panic!("cell {name} missing from BENCH_rpc.json"))
}

fn tput(doc: &Value, name: &str) -> f64 {
    cell(doc, name)
        .get("throughput_rpc_per_s")
        .and_then(Value::as_float)
        .unwrap_or_else(|| panic!("cell {name}: no throughput"))
}

fn p50_ns(doc: &Value, name: &str) -> i64 {
    cell(doc, name)
        .get("latency")
        .and_then(|l| l.get("p50_ns"))
        .and_then(Value::as_int)
        .unwrap_or_else(|| panic!("cell {name}: no latency.p50_ns"))
}

#[test]
fn golden_file_passes_the_schema_check() {
    let doc = golden();
    let errs = rpc::check_schema(&doc);
    assert!(errs.is_empty(), "{errs:?}");
    assert_eq!(
        doc.get("smoke").and_then(Value::as_bool),
        Some(false),
        "committed file must be the full matrix, not a CI smoke run"
    );
}

#[test]
fn schema_check_requires_the_low_load_cells_in_a_full_matrix() {
    let doc = golden();
    let cells = doc.get("cells").and_then(Value::as_array).expect("cells array");
    let without: Vec<Value> = cells
        .iter()
        .filter(|c| c.get("name").and_then(Value::as_str) != Some("tcpthreads/8c/w1"))
        .cloned()
        .collect();
    let doc_without = |smoke: bool| {
        Value::from_pairs([
            ("schema", Value::from(rpc::SCHEMA)),
            ("smoke", Value::from(smoke)),
            ("cells", Value::Array(without.clone())),
        ])
    };
    assert_eq!(
        rpc::check_schema(&doc_without(false)),
        vec!["full matrix lacks low-load cell tcpthreads/8c/w1".to_string()]
    );
    assert!(rpc::check_schema(&doc_without(true)).is_empty(), "a smoke run may omit it");
}

#[test]
fn reactor_beats_thread_per_link_at_1k_clients() {
    let doc = golden();
    let reactor = tput(&doc, "reactor/1024c/w32");
    let threads = tput(&doc, "tcpthreads/1024c/w32");
    assert!(
        reactor > threads,
        "pipelined reactor throughput ({reactor:.0}/s) must be strictly above \
         thread-per-link ({threads:.0}/s) — regenerate with `rpc_bench --out BENCH_rpc.json`"
    );
    let margin = doc
        .get("architecture")
        .and_then(|a| a.get("reactor_over_threadlink"))
        .and_then(Value::as_float)
        .expect("architecture.reactor_over_threadlink");
    assert!(margin > 1.0);
    assert!(
        (margin - reactor / threads).abs() < 1e-9,
        "derived margin disagrees with its cells"
    );
}

#[test]
fn pipelining_beats_window_one() {
    let doc = golden();
    let deep = tput(&doc, "reactor/1024c/w32");
    let w1 = tput(&doc, "reactor/1024c/w1");
    assert!(
        deep > w1,
        "window-32 throughput ({deep:.0}/s) must beat window-1 ({w1:.0}/s)"
    );
    let speedup = doc
        .get("pipelining")
        .and_then(|p| p.get("speedup_deep_over_w1"))
        .and_then(Value::as_float)
        .expect("pipelining.speedup_deep_over_w1");
    assert!(speedup > 1.0);
}

#[test]
fn reactor_latency_floor_matches_thread_per_link_at_one_client() {
    let doc = golden();
    let reactor = p50_ns(&doc, "reactor/1c/w1");
    let threads = p50_ns(&doc, "tcpthreads/1c/w1");
    assert!(
        reactor as f64 <= 1.5 * threads as f64,
        "reactor p50 at 1 client ({reactor} ns) must be within 1.5x of \
         thread-per-link ({threads} ns) — an idle reactor's park sits on every request"
    );
}

#[test]
fn four_thousand_client_scale_point_is_committed() {
    let doc = golden();
    let c = cell(&doc, "reactor/4096c/w32");
    assert_eq!(c.get("clients").and_then(Value::as_int), Some(4096));
    let total = c.get("total_rpcs").and_then(Value::as_int).expect("total_rpcs");
    let per_client = c.get("per_client").and_then(Value::as_int).expect("per_client");
    assert_eq!(total, 4096 * per_client, "4k cell lost replies");
}

/// Both server architectures still run end to end: a small live cell
/// each, every RPC answered. Wall-clock — nothing about relative speed
/// is asserted here (machine load would make that flaky).
#[test]
fn live_smoke_both_architectures_complete_all_rpcs() {
    let p = RpcParams { clients: 16, window: 8, per_client: 16 };
    for kind in [ServerKind::Reactor, ServerKind::ThreadLink] {
        let r = rpc::run_server_cell(kind, &p)
            .unwrap_or_else(|e| panic!("{} smoke failed: {e}", kind.name()));
        assert_eq!(r.total_rpcs, p.total(), "{} lost replies", kind.name());
        assert!(r.p50_ns > 0 && r.p50_ns <= r.p99_ns && r.p99_ns <= r.max_ns);
    }
}
