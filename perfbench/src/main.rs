//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric by name and unit, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! The full result (host stamp, named metrics, violations, module
//! table) is also written under `.bench_out/` in the working directory.

use flux_perfbench::workloads::{run, Config, Metric, Outcome};
use flux_value::Value;
use std::process::ExitCode;

fn usage() -> String {
    "usage: perfbench --workload <kap_fence_8k|kap_waitver_8k|kvs_tcp|rpc_paced> --seed <n> \
     --seconds <s> --trace <0|1> [--bench-kap <path>]"
        .into()
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        small: false,
        bench_kap: "BENCH_kap.json".into(),
        plant: Default::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--workload" => cfg.workload = val()?,
            "--seed" => cfg.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                cfg.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--bench-kap" => cfg.bench_kap = val()?,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if cfg.workload.is_empty() {
        return Err(usage());
    }
    Ok(cfg)
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into())
}

/// nproc, CPU model, kernel, rustc, commit and seed of this result.
fn host_stamp(cfg: &Config, seeded: bool) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as i64);
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Value::from_pairs([
        ("nproc", Value::from(nproc)),
        ("cpu", Value::from(cpu)),
        (
            "kernel",
            Value::from(read_trim("/proc/sys/kernel/osrelease")),
        ),
        ("rustc", Value::from(env("PERFBENCH_RUSTC"))),
        ("commit", Value::from(env("PERFBENCH_COMMIT"))),
        ("seed", Value::from(cfg.seed as i64)),
        (
            "inputs",
            Value::from(if seeded {
                "seeded: the seed drives the op mix, value sizes and key choice"
            } else {
                "seed-free: the workload is fixed by construction"
            }),
        ),
    ])
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

fn metric_map(list: &[Metric]) -> Value {
    Value::Object(
        list.iter()
            .map(|m| {
                let v = Value::from_pairs([
                    ("value", Value::Float(finite(m.value))),
                    ("unit", Value::from(m.unit)),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

fn print_metrics(tag: &str, list: &[Metric]) {
    for m in list {
        println!(
            "{tag} {:<36} {:>16.4} {:<7} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
}

fn write_result(cfg: &Config, out: &Outcome, host: Value) {
    let doc = Value::from_pairs([
        ("workload", Value::from(cfg.workload.as_str())),
        ("seconds", Value::Float(cfg.seconds)),
        ("trace", Value::from(cfg.trace)),
        ("host", host),
        ("correct", Value::from(out.correct)),
        ("attempted", Value::from(out.attempted as i64)),
        ("failed", Value::from(out.failed as i64)),
        ("end_to_end", metric_map(&out.end_to_end)),
        ("named", metric_map(&out.named)),
        ("per_layer", metric_map(&out.per_layer)),
        (
            "violations",
            Value::Array(
                out.violations
                    .iter()
                    .map(|v| Value::from(v.as_str()))
                    .collect(),
            ),
        ),
    ]);
    let dir = std::path::Path::new(".bench_out");
    let name = format!(
        "{}-seed{}-trace{}.json",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(&name), doc.to_json_pretty()));
    if let Err(e) = written {
        eprintln!("perfbench: could not write .bench_out/{name}: {e}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let host = host_stamp(&cfg, out.seeded);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("# host {}", host.to_json());
    print_metrics("e2e  ", &out.end_to_end);
    print_metrics("named", &out.named);
    print_metrics("layer", &out.per_layer);
    for v in &out.violations {
        println!("# violation: {v}");
    }
    write_result(&cfg, &out, host);
    let metrics = if cfg.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let line = Value::from_pairs([
        ("correct", Value::from(out.correct)),
        ("attempted", Value::from(out.attempted as i64)),
        ("failed", Value::from(out.failed as i64)),
        ("metrics", metric_map(metrics)),
    ]);
    println!("{}", line.to_json());
    ExitCode::SUCCESS
}
