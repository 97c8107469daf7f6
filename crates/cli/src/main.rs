//! The `flux` utility.
//!
//! Paper §IV-A: *"A flux utility wraps command line access to about two
//! dozen modular Flux sub-commands."* This binary hosts an ephemeral
//! live comms session (there are no long-running daemons in the
//! reproduction) and runs one or more sub-commands against it:
//!
//! ```text
//! flux [--size N] [--arity K] [--transport threads|tcp] <command> [; <command>]...
//!
//! commands:
//!   start                        wire up the session and ping every rank
//!   info                         broker/session facts (from a leaf)
//!   ping <rank>                  rank-addressed ping over the ring
//!   kvs put <key> <json>         write-back put
//!   kvs get <key>                read a value
//!   kvs dir <key>                list a directory
//!   kvs unlink <key>             delete a key
//!   kvs commit                   flush this client's puts
//!   kvs version                  current root version
//!   kvs stats                    local cache statistics
//!   barrier <name> <nprocs>      enter a collective barrier
//!   run <jobid> <cmd...>         wexec bulk-launch on all ranks
//!   wait-job <jobid>             watch until a job's completion record lands
//!   ps                           local wexec process table
//!   log msg <level> <text...>    append to the session log
//!   log query                    dump the root session log
//!   log dump <rank>              a rank's circular debug buffer
//!   mon add <name> <metric>      register a sampler
//!   group join|info|leave <name> group membership
//!   resvc status|alloc|free ...  resource service
//!   up                           liveness view
//!   kap [--json] [--full]        KAP evaluation-harness matrix
//! ```
//!
//! `flux kap` is special: it runs the KAP benchmark harness (producers
//! `put`/`commit`, fence or `wait_version` sync, consumer `get`s) over
//! its own transports instead of the hosted session. `--json` emits the
//! machine-readable `flux-kap-bench/v1` document (the `BENCH_kap.json`
//! schema); the default is a human summary. `--full` adds the live
//! threads/tcp cells to the deterministic sim matrix.
//!
//! Multiple commands separated by `;` run against the *same* session, so
//! `flux kvs put a.b 42 ; kvs commit ; kvs get a.b` round-trips.
//!
//! `--transport` selects the wire of the one `flux_rt::LiveSession`
//! type hosting the ephemeral session: `threads` (in-process channels,
//! the default) or `tcp` (brokers linked over loopback TCP sockets;
//! `reactor` is an accepted alias — each broker runs one poll-based
//! reactor thread driving all of its nonblocking sockets, see DESIGN.md
//! §19). The flag is matched once into a function generic over the
//! wire; `sim` is rejected (exit 2), since the simulator runs in virtual
//! time. `flux --transport tcp start` wires up a real-socket session and
//! pings every rank.
//!
//! `--faults SEED:SPEC` runs the session under a deterministic fault
//! plan (see `flux_rt::FaultPlan::parse`): e.g.
//! `flux --faults 7:drop=0.01,delay=0.05/2ms,kill=3@6..14 start` drops
//! 1% of messages, delays 5% by up to 2 ms, and silences rank 3 for
//! heartbeat epochs 6..14. The same `SEED:SPEC` reproduces the same
//! per-link fault decisions run to run.

#![forbid(unsafe_code)]

use flux_broker::client::{ClientCore, Delivery};
use flux_modules::{standard_modules, standard_modules_with_kvs};
use flux_proto::{
    keys, BarrierMethod, CmbMethod, GroupMethod, KvsMethod, LiveMethod, LogMethod, MonMethod,
    ResvcMethod, WexecMethod,
};
use flux_rt::tcp::Tcp;
use flux_rt::threads::Channels;
use flux_rt::transport::TransportKind;
use flux_rt::{FaultPlan, LiveClient, LiveSession, Wire};
use flux_value::Value;
use flux_wire::{Message, Rank, Topic};
use std::process::ExitCode;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

struct Cli {
    conn: LiveClient,
    core: ClientCore,
    tag: u64,
    size: u32,
    transport: &'static str,
}

impl Cli {
    fn rpc(&mut self, topic: Topic, payload: Value) -> Result<Message, String> {
        self.tag += 1;
        self.conn.send(self.core.request(topic, payload, self.tag));
        self.wait_reply()
    }

    fn rpc_to(&mut self, rank: Rank, topic: Topic, payload: Value) -> Result<Message, String> {
        self.tag += 1;
        self.conn.send(self.core.request_to(rank, topic, payload, self.tag));
        self.wait_reply()
    }

    /// Blocks until `key` holds a value, without polling: the KVS watch
    /// protocol answers with an immediate snapshot (`Null` for a missing
    /// key) and then streams one update per root change, so the client
    /// parks in `recv_timeout` instead of a sleep/re-get loop.
    fn wait_key(&mut self, key: &str) -> Result<Value, String> {
        self.tag += 1;
        let req = self.core.request(
            KvsMethod::Watch.topic(),
            Value::from_pairs([("k", Value::from(key))]),
            self.tag,
        );
        let watch_id = req.header.id;
        self.core.expect_stream(watch_id);
        self.conn.send(req);
        let deadline = std::time::Instant::now() + TIMEOUT;
        let result = loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                break Err("timed out waiting for the key".into());
            }
            let Some(msg) = self.conn.recv_timeout(left) else { continue };
            match self.core.deliver(msg) {
                Delivery::Response { msg, .. } => {
                    if msg.is_error() {
                        break Err(format!(
                            "{} ({})",
                            flux_wire::errnum::strerror(msg.header.errnum),
                            msg.header.errnum
                        ));
                    }
                    let v = msg.payload.get("v").cloned().unwrap_or(Value::Null);
                    if v != Value::Null {
                        break Ok(v);
                    }
                    // Initial snapshot of a missing key — keep waiting.
                }
                Delivery::Event(_) | Delivery::Unmatched(_) => continue,
            }
        };
        // Tear down the stream and the broker-side watcher either way.
        self.core.cancel(watch_id);
        let _ = self.rpc(
            KvsMethod::Unwatch.topic(),
            Value::from_pairs([("k", Value::from(key))]),
        );
        result
    }

    fn wait_reply(&mut self) -> Result<Message, String> {
        let deadline = std::time::Instant::now() + TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err("timed out waiting for a reply".into());
            }
            let Some(msg) = self.conn.recv_timeout(left) else { continue };
            match self.core.deliver(msg) {
                Delivery::Response { msg, .. } => {
                    if msg.is_error() {
                        return Err(format!(
                            "{} ({})",
                            flux_wire::errnum::strerror(msg.header.errnum),
                            msg.header.errnum
                        ));
                    }
                    return Ok(msg);
                }
                Delivery::Event(_) | Delivery::Unmatched(_) => continue,
            }
        }
    }
}

fn parse_json_arg(s: &str) -> Value {
    Value::parse(s).unwrap_or_else(|_| Value::from(s))
}

fn run_command(cli: &mut Cli, cmd: &[String]) -> Result<String, String> {
    let words: Vec<&str> = cmd.iter().map(String::as_str).collect();
    match words.as_slice() {
        ["start"] => {
            // Prove the overlay is wired end to end: a rank-addressed
            // ping makes a full trip over the ring to every broker.
            for r in 0..cli.size {
                cli.rpc_to(Rank(r), CmbMethod::Ping.topic(), Value::object())
                    .map_err(|e| format!("rank {r} unreachable: {e}"))?;
            }
            Ok(format!(
                "session of {} brokers up over {} (all ranks answered ping)",
                cli.size, cli.transport
            ))
        }
        ["info"] => {
            let m = cli.rpc(CmbMethod::Info.topic(), Value::Null)?;
            Ok(m.payload.to_json_pretty())
        }
        ["ping", rank] => {
            let r: u32 = rank.parse().map_err(|_| "bad rank".to_string())?;
            let t0 = std::time::Instant::now();
            let m = cli.rpc_to(Rank(r), CmbMethod::Ping.topic(), Value::object())?;
            Ok(format!(
                "pong from rank {} in {:?}",
                m.payload.get("pong").cloned().unwrap_or(Value::Null),
                t0.elapsed()
            ))
        }
        ["kvs", "put", key, json] => {
            let payload = Value::from_pairs([("k", Value::from(*key)), ("v", parse_json_arg(json))]);
            cli.rpc(KvsMethod::Put.topic(), payload)?;
            Ok(format!("{key} staged (commit to publish)"))
        }
        ["kvs", "get", key] => {
            let m = cli.rpc(KvsMethod::Get.topic(), Value::from_pairs([("k", Value::from(*key))]))?;
            Ok(m.payload.get("v").cloned().unwrap_or(Value::Null).to_json_pretty())
        }
        ["kvs", "dir", key] => {
            let m = cli.rpc(
                KvsMethod::Get.topic(),
                Value::from_pairs([("k", Value::from(*key)), ("dir", Value::Bool(true))]),
            )?;
            let listing = m.payload.get("dir").cloned().unwrap_or(Value::object());
            let names: Vec<String> = listing
                .as_object()
                .map(|o| o.keys().cloned().collect())
                .unwrap_or_default();
            Ok(names.join("\n"))
        }
        ["kvs", "unlink", key] => {
            cli.rpc(KvsMethod::Unlink.topic(), Value::from_pairs([("k", Value::from(*key))]))?;
            Ok(format!("{key} unlink staged"))
        }
        ["kvs", "commit"] => {
            let m = cli.rpc(KvsMethod::Commit.topic(), Value::object())?;
            // A sharded session answers with the per-shard frontier
            // instead of a single version/root pair.
            if let Some(frontier) = m.payload.get("frontier").and_then(Value::as_array) {
                let slots: Vec<String> = frontier
                    .iter()
                    .map(|s| {
                        format!(
                            "shard {} version {}",
                            s.get("shard").cloned().unwrap_or(Value::Null),
                            s.get("version").cloned().unwrap_or(Value::Null),
                        )
                    })
                    .collect();
                return Ok(format!("committed: {}", slots.join(", ")));
            }
            Ok(format!(
                "committed: version {} root {}",
                m.payload.get("version").cloned().unwrap_or(Value::Null),
                m.payload.get("root").and_then(Value::as_str).unwrap_or("?")
            ))
        }
        ["kvs", "version"] => {
            let m = cli.rpc(KvsMethod::GetVersion.topic(), Value::object())?;
            Ok(m.payload.to_json())
        }
        ["kvs", "stats"] => {
            let m = cli.rpc(KvsMethod::Stats.topic(), Value::object())?;
            Ok(m.payload.to_json_pretty())
        }
        ["barrier", name, nprocs] => {
            let n: i64 = nprocs.parse().map_err(|_| "bad nprocs".to_string())?;
            let m = cli.rpc(
                BarrierMethod::Enter.topic(),
                Value::from_pairs([("name", Value::from(*name)), ("nprocs", Value::Int(n))]),
            )?;
            Ok(format!("barrier {} released", m.payload.get("name").unwrap_or(&Value::Null)))
        }
        ["run", jobid, rest @ ..] if !rest.is_empty() => {
            let id: i64 = jobid.parse().map_err(|_| "bad jobid".to_string())?;
            let m = cli.rpc(
                WexecMethod::Run.topic(),
                Value::from_pairs([
                    ("jobid", Value::Int(id)),
                    ("cmd", Value::from(rest.join(" "))),
                    ("targets", Value::from("all")),
                ]),
            )?;
            Ok(format!(
                "job {id}: {} tasks launched (stdout in lwj.{id}.<rank>.stdout)",
                m.payload.get("ntasks").cloned().unwrap_or(Value::Null)
            ))
        }
        ["wait-job", jobid] => {
            let id: i64 = jobid.parse().map_err(|_| "bad jobid".to_string())?;
            let key = keys::lwj::complete_key(id as u64);
            let v = cli
                .wait_key(&key)
                .map_err(|e| format!("job {id} did not complete: {e}"))?;
            Ok(format!("job {id} complete: {}", v.to_json()))
        }
        ["ps"] => {
            let m = cli.rpc(WexecMethod::Ps.topic(), Value::object())?;
            Ok(m.payload.to_json_pretty())
        }
        ["log", "msg", level, rest @ ..] if !rest.is_empty() => {
            let lvl: i64 = level.parse().map_err(|_| "bad level".to_string())?;
            cli.rpc(
                LogMethod::Msg.topic(),
                Value::from_pairs([
                    ("level", Value::Int(lvl)),
                    ("text", Value::from(rest.join(" "))),
                ]),
            )?;
            Ok("logged".into())
        }
        ["log", "query"] => {
            let m = cli.rpc(LogMethod::Query.topic(), Value::object())?;
            let entries = m.payload.get("entries").cloned().unwrap_or(Value::array());
            let mut out = String::new();
            for e in entries.as_array().unwrap_or(&[]) {
                out.push_str(&format!(
                    "[{}] r{}: {}\n",
                    e.get("level").cloned().unwrap_or(Value::Null),
                    e.get("rank").cloned().unwrap_or(Value::Null),
                    e.get("text").and_then(Value::as_str).unwrap_or("")
                ));
            }
            Ok(out.trim_end().to_owned())
        }
        ["log", "dump", rank] => {
            let r: u32 = rank.parse().map_err(|_| "bad rank".to_string())?;
            let m = cli.rpc_to(Rank(r), LogMethod::Dump.topic(), Value::object())?;
            Ok(m.payload.to_json_pretty())
        }
        ["mon", "add", name, metric] => {
            cli.rpc(
                MonMethod::Add.topic(),
                Value::from_pairs([
                    ("name", Value::from(*name)),
                    ("metric", Value::from(*metric)),
                    ("period", Value::Int(1)),
                ]),
            )?;
            Ok(format!("sampler {name} registered (data under mon.data.{name}.*)"))
        }
        ["group", verb @ ("join" | "leave" | "info"), name] => {
            let method = match *verb {
                "join" => GroupMethod::Join,
                "leave" => GroupMethod::Leave,
                _ => GroupMethod::Info,
            };
            let m = cli.rpc(method.topic(), Value::from_pairs([("name", Value::from(*name))]))?;
            Ok(m.payload.to_json())
        }
        ["resvc", "status"] => {
            let m = cli.rpc(ResvcMethod::Status.topic(), Value::object())?;
            Ok(m.payload.to_json())
        }
        ["resvc", "alloc", jobid, nnodes] => {
            let id: i64 = jobid.parse().map_err(|_| "bad jobid".to_string())?;
            let n: i64 = nnodes.parse().map_err(|_| "bad nnodes".to_string())?;
            let m = cli.rpc(
                ResvcMethod::Alloc.topic(),
                Value::from_pairs([("jobid", Value::Int(id)), ("nnodes", Value::Int(n))]),
            )?;
            Ok(m.payload.to_json())
        }
        ["resvc", "free", jobid] => {
            let id: i64 = jobid.parse().map_err(|_| "bad jobid".to_string())?;
            let m = cli.rpc(ResvcMethod::Free.topic(), Value::from_pairs([("jobid", Value::Int(id))]))?;
            Ok(m.payload.to_json())
        }
        ["up"] => {
            let m = cli.rpc(LiveMethod::Status.topic(), Value::object())?;
            Ok(m.payload.to_json())
        }
        _ => Err(format!("unknown command: {}", words.join(" "))),
    }
}

/// `flux kap [--json] [--full]`: the KAP evaluation harness, run
/// directly (the harness drives its own transports).
fn kap_cmd(args: &[String]) -> ExitCode {
    let json = args.iter().any(|a| a == "--json");
    let quick = !args.iter().any(|a| a == "--full");
    let doc = flux_kap::bench::run_matrix(quick);
    if json {
        println!("{}", doc.to_json_pretty());
        return ExitCode::SUCCESS;
    }
    let cells = doc.get("cells").and_then(Value::as_array).map(<[Value]>::len).unwrap_or(0);
    println!("KAP bench: {cells} cells ({} matrix)", if quick { "quick" } else { "full" });
    for c in doc.get("cells").and_then(Value::as_array).unwrap_or(&[]) {
        println!(
            "  {:<28} makespan {:>10} ns  bytes {:>9}",
            c.get("name").and_then(Value::as_str).unwrap_or("?"),
            c.get("makespan_ns").and_then(Value::as_int).unwrap_or(0),
            c.get("bytes_on_wire").and_then(Value::as_int).unwrap_or(0),
        );
    }
    if let Some(opt) = doc.get("optimization") {
        println!(
            "optimization ({}): makespan x{:.3}, {} wire bytes saved",
            opt.get("cell").and_then(Value::as_str).unwrap_or("?"),
            opt.get("makespan_speedup").and_then(Value::as_float).unwrap_or(0.0),
            opt.get("bytes_saved").and_then(Value::as_int).unwrap_or(0),
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut size = 8u32;
    let mut arity = 2u32;
    let mut shards = 1u32;
    let mut transport = TransportKind::Threads;
    let mut faults: Option<String> = None;
    while let Some(flag) = args.first().filter(|a| a.starts_with("--")).cloned() {
        args.remove(0);
        match flag.as_str() {
            "--size" => size = args.remove(0).parse().unwrap_or(8),
            "--arity" => arity = args.remove(0).parse().unwrap_or(2),
            "--shards" => shards = args.remove(0).parse().unwrap_or(1),
            "--transport" => match args.remove(0).parse() {
                Ok(t) => transport = t,
                Err(e) => {
                    eprintln!("flux: {e}");
                    return ExitCode::from(2);
                }
            },
            "--faults" => faults = Some(args.remove(0)),
            "--help" => {
                eprintln!("see `flux` module docs; e.g. flux kvs put a.b 42 \\; kvs commit \\; kvs get a.b");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    if args.is_empty() {
        eprintln!(
            "usage: flux [--size N] [--arity K] [--shards N] [--transport threads|tcp] \
             [--faults SEED:SPEC] <command> [; <command>]..."
        );
        return ExitCode::from(2);
    }
    // The KAP harness drives its own transports; no hosted session.
    if args[0] == "kap" {
        return kap_cmd(&args[1..]);
    }
    if size == 0 || arity == 0 {
        eprintln!("flux: --size and --arity must be at least 1");
        return ExitCode::from(2);
    }
    if shards == 0 || shards > size {
        eprintln!("flux: --shards must be 1..=size (shard masters live on ranks 0..shards)");
        return ExitCode::from(2);
    }

    // Epoch windows in the spec are scaled by the default heartbeat
    // period (the CLI does not override broker configs).
    let hb = flux_broker::BrokerConfig::new(Rank(0), size).hb_period_ns;
    let plan = match faults.map(|flag| FaultPlan::parse_flag(&flag, hb)).transpose() {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("flux: {e}");
            return ExitCode::from(2);
        }
    };
    match transport {
        TransportKind::Sim => {
            eprintln!("flux: the sim transport runs in virtual time; use threads or tcp");
            ExitCode::from(2)
        }
        TransportKind::Threads => host::<Channels>(size, arity, shards, plan, &args),
        TransportKind::Tcp => host::<Tcp>(size, arity, shards, plan, &args),
    }
}

/// Hosts an ephemeral session over the wire `W`, attaches at the last
/// rank (a leaf), and runs every `;`-separated command against it.
fn host<W: Wire>(
    size: u32,
    arity: u32,
    shards: u32,
    plan: Option<FaultPlan>,
    args: &[String],
) -> ExitCode {
    let mut builder = LiveSession::<W>::builder(size, arity, |_| {
        if shards > 1 {
            standard_modules_with_kvs(flux_kvs::KvsConfig { shards, ..Default::default() })
        } else {
            standard_modules()
        }
    });
    if let Some(plan) = &plan {
        builder.set_faults(plan);
    }
    let leaf = Rank(size - 1);
    let conn = builder.attach_client(leaf);
    let session = builder.start();
    let core = ClientCore::new(leaf, conn.client_id);
    let mut cli = Cli { conn, core, tag: 0, size, transport: W::NAME };

    let mut status = ExitCode::SUCCESS;
    for cmd in args.split(|a| a == ";") {
        if cmd.is_empty() {
            continue;
        }
        match run_command(&mut cli, cmd) {
            Ok(out) => {
                if !out.is_empty() {
                    println!("{out}");
                }
            }
            Err(e) => {
                eprintln!("flux: {}: {e}", cmd.join(" "));
                status = ExitCode::FAILURE;
            }
        }
    }
    session.shutdown();
    status
}
