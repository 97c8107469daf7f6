//! Transport-conformance battery: one set of checks, every live wire.
//!
//! Each `check_*` function drives a full behavioural scenario —
//! handshake RPC, KVS put/commit/get + barrier, watch streams, pipelined
//! requests, a 16-broker fence, the stale-read guard, ordered shutdown
//! under load — against a [`LiveSession`] over the wire `W` (or any
//! [`ScriptTransport`] for the scripted scenarios, the simulator
//! included). A wire that passes the battery is interchangeable with the
//! other for every workload in the tree.
//!
//! Tests instantiate the battery with [`transport_conformance!`]:
//!
//! ```ignore
//! flux_rt::transport_conformance!(reactor_tcp, flux_rt::tcp::Tcp);
//! ```
//!
//! which expands to one `#[test]` per check inside a `mod reactor_tcp`.

use crate::live::{LiveClient, LiveSession, Wire};
use crate::script::Op;
use crate::transport::ScriptTransport;
use flux_broker::client::{ClientCore, Delivery};
use flux_broker::CommsModule;
use flux_modules::{standard_modules, BarrierModule};
use flux_proto::{BarrierMethod, CmbMethod, KvsMethod};
use flux_value::Value;
use flux_wire::{Message, Rank, Topic};
use std::time::{Duration, Instant};

/// How long any single conformance step may wait for a reply.
pub const CONFORMANCE_TIMEOUT: Duration = Duration::from_secs(10);

fn kvs_modules(_r: Rank) -> Vec<Box<dyn CommsModule>> {
    vec![
        Box::new(flux_kvs::KvsModule::new()) as Box<dyn CommsModule>,
        Box::new(BarrierModule::new()),
    ]
}

/// Waits for the response carrying `tag`, delivering (and discarding)
/// interleaved events and other responses through `core` — the MsgId
/// matching path pipelined clients rely on.
fn await_reply(client: &LiveClient, core: &mut ClientCore, tag: u64, what: &str) -> Message {
    let deadline = Instant::now() + CONFORMANCE_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(!left.is_zero(), "conformance: timed out waiting for {what}");
        let Some(msg) = client.recv_timeout(left) else { continue };
        match core.deliver(msg) {
            Delivery::Response { tag: t, msg } if t == tag => return msg,
            Delivery::Response { .. } | Delivery::Event(_) | Delivery::Unmatched(_) => continue,
        }
    }
}

/// One synchronous RPC: send, then wait for the matching reply.
fn rpc(
    client: &LiveClient,
    core: &mut ClientCore,
    topic: Topic,
    payload: Value,
    tag: u64,
    what: &str,
) -> Message {
    client.send(core.request(topic, payload, tag));
    await_reply(client, core, tag, what)
}

/// Handshake + RPC reachability: a client attached to one broker pings
/// its local broker and then, rank-addressed, every other broker in the
/// session. Every pong must name the broker that answered.
pub fn check_handshake_rpc<W: Wire>() {
    let name = W::NAME;
    let size = 4u32;
    let mut builder = LiveSession::<W>::builder(size, 2, |_| standard_modules());
    let client = builder.attach_client(Rank(1));
    let session = builder.start();
    let mut core = ClientCore::new(Rank(1), client.client_id);

    let local =
        rpc(&client, &mut core, CmbMethod::Ping.topic(), Value::object(), 0, "local ping");
    assert!(!local.is_error(), "{name}: local ping errored");
    assert_eq!(local.payload.get("pong").and_then(Value::as_uint), Some(1), "{name}");

    for to in 0..size {
        let tag = 100 + u64::from(to);
        client.send(core.request_to(Rank(to), CmbMethod::Ping.topic(), Value::object(), tag));
        let resp = await_reply(&client, &mut core, tag, "rank-addressed ping");
        assert!(!resp.is_error(), "{name}: ping to rank {to} errored");
        assert_eq!(
            resp.payload.get("pong").and_then(Value::as_uint),
            Some(u64::from(to)),
            "{name}: wrong broker answered the ping to rank {to}"
        );
    }
    session.shutdown();
}

/// The core KVS flow across brokers — put + commit on one leaf, a
/// version-waited read on another — plus a two-party barrier.
pub fn check_put_commit_get_and_barrier<W: Wire>() {
    let name = W::NAME;
    let size = 8u32;
    let mut builder = LiveSession::<W>::builder(size, 2, kvs_modules);
    let writer = builder.attach_client(Rank(5));
    let reader = builder.attach_client(Rank(2));
    let b1 = builder.attach_client(Rank(0));
    let b2 = builder.attach_client(Rank(7));
    let session = builder.start();

    let mut wc = ClientCore::new(Rank(5), writer.client_id);
    let put = rpc(
        &writer,
        &mut wc,
        KvsMethod::Put.topic(),
        Value::from_pairs([("k", Value::from("t.x")), ("v", Value::Int(11))]),
        1,
        "put ack",
    );
    assert!(!put.is_error(), "{name}: put");
    let commit =
        rpc(&writer, &mut wc, KvsMethod::Commit.topic(), Value::object(), 2, "commit reply");
    assert!(!commit.is_error(), "{name}: commit");
    let version = commit.payload.get("version").and_then(Value::as_uint).unwrap_or(0);
    assert!(version >= 1, "{name}: commit version {version}");

    let mut rc = ClientCore::new(Rank(2), reader.client_id);
    let wait = rpc(
        &reader,
        &mut rc,
        KvsMethod::WaitVersion.topic(),
        Value::from_pairs([("version", Value::from(version as i64))]),
        1,
        "wait_version reply",
    );
    assert!(!wait.is_error(), "{name}: wait_version");
    let get = rpc(
        &reader,
        &mut rc,
        KvsMethod::Get.topic(),
        Value::from_pairs([("k", Value::from("t.x"))]),
        2,
        "get reply",
    );
    assert_eq!(get.payload.get("v"), Some(&Value::Int(11)), "{name}");

    // Barrier across two clients on different brokers: neither can be
    // released until both have entered.
    let mut c1 = ClientCore::new(Rank(0), b1.client_id);
    let mut c2 = ClientCore::new(Rank(7), b2.client_id);
    let enter = Value::from_pairs([("name", Value::from("tb")), ("nprocs", Value::Int(2))]);
    b1.send(c1.request(BarrierMethod::Enter.topic(), enter.clone(), 3));
    b2.send(c2.request(BarrierMethod::Enter.topic(), enter, 3));
    assert!(!await_reply(&b1, &mut c1, 3, "b1 released").is_error(), "{name}");
    assert!(!await_reply(&b2, &mut c2, 3, "b2 released").is_error(), "{name}");

    session.shutdown();
}

/// Watch streams: a watcher gets the initial snapshot, then an update
/// pushed by a commit on a different broker.
pub fn check_watch_streams<W: Wire>() {
    let name = W::NAME;
    let mut builder = LiveSession::<W>::builder(4, 2, |_r| {
        vec![Box::new(flux_kvs::KvsModule::new()) as Box<dyn CommsModule>]
    });
    let watcher = builder.attach_client(Rank(3));
    let writer = builder.attach_client(Rank(1));
    let session = builder.start();

    let mut wcli = flux_kvs::client::KvsClient::new(Rank(3), watcher.client_id);
    let (wreq, _) = wcli.watch("tw.key", 1);
    watcher.send(wreq);
    let snap = watcher.recv_timeout(CONFORMANCE_TIMEOUT);
    assert!(snap.is_some(), "{name}: no initial snapshot");
    assert_eq!(
        snap.and_then(|m| m.payload.get("v").cloned()),
        Some(Value::Null),
        "{name}"
    );

    let mut pcli = flux_kvs::client::KvsClient::new(Rank(1), writer.client_id);
    writer.send(pcli.put("tw.key", Value::Int(5), 1));
    assert!(writer.recv_timeout(CONFORMANCE_TIMEOUT).is_some(), "{name}: put ack");
    writer.send(pcli.commit(2));
    assert!(writer.recv_timeout(CONFORMANCE_TIMEOUT).is_some(), "{name}: commit ack");

    let update = watcher.recv_timeout(CONFORMANCE_TIMEOUT);
    assert_eq!(
        update.and_then(|m| m.payload.get("v").cloned()),
        Some(Value::Int(5)),
        "{name}: watch update"
    );
    session.shutdown();
}

/// Pipelining: a client fires a window of requests back-to-back without
/// reading a single reply, then collects them all — every tag answered
/// exactly once, matched by MsgId regardless of arrival order.
pub fn check_pipelined_rpcs<W: Wire>() {
    let name = W::NAME;
    let window = 32u64;
    let mut builder = LiveSession::<W>::builder(4, 2, kvs_modules);
    let client = builder.attach_client(Rank(3));
    let session = builder.start();
    let mut core = ClientCore::new(Rank(3), client.client_id);

    for tag in 0..window {
        // Alternate local pings, rank-addressed pings, and KVS puts so
        // the in-flight window spans services and planes.
        let msg = match tag % 3 {
            0 => core.request(CmbMethod::Ping.topic(), Value::object(), tag),
            1 => core.request_to(
                Rank((tag % 4) as u32),
                CmbMethod::Ping.topic(),
                Value::object(),
                tag,
            ),
            _ => core.request(
                KvsMethod::Put.topic(),
                Value::from_pairs([
                    ("k", Value::from(format!("p.k{tag}"))),
                    ("v", Value::Int(tag as i64)),
                ]),
                tag,
            ),
        };
        client.send(msg);
    }

    let mut seen = vec![false; window as usize];
    let deadline = Instant::now() + CONFORMANCE_TIMEOUT;
    let mut answered = 0u64;
    while answered < window {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(
            !left.is_zero(),
            "{name}: pipelined window stalled at {answered}/{window} replies"
        );
        let Some(msg) = client.recv_timeout(left) else { continue };
        match core.deliver(msg) {
            Delivery::Response { tag, msg } => {
                assert!(!msg.is_error(), "{name}: tag {tag} errored");
                let idx = tag as usize;
                assert!(idx < seen.len(), "{name}: unknown tag {tag}");
                assert!(!seen[idx], "{name}: tag {tag} answered twice");
                seen[idx] = true;
                answered += 1;
            }
            Delivery::Event(_) | Delivery::Unmatched(_) => continue,
        }
    }
    assert!(seen.iter().all(|&s| s), "{name}: every tag answered");
    session.shutdown();
}

/// A 16-broker session running a fence across sixteen writers, one per
/// rank — the all-to-all synchronization shape from the paper's KAP
/// benchmark, via the scripted driver.
pub fn check_sixteen_broker_fence(t: &dyn ScriptTransport) {
    let name = t.name();
    let size = 16u32;
    let scripts: Vec<(Rank, Vec<Op>)> = (0..size)
        .map(|r| {
            (
                Rank(r),
                vec![
                    Op::Put { key: format!("c16.k{r}"), val: Value::Int(i64::from(r)) },
                    Op::Fence { name: "c16".into(), nprocs: u64::from(size) },
                    Op::Get { key: format!("c16.k{}", (r + 1) % size) },
                ],
            )
        })
        .collect();
    let report = t.run_scripts(size, 2, &kvs_modules, scripts);
    for (r, o) in report.outcomes.iter().enumerate() {
        assert!(o.finished, "{name}: rank {r} unfinished");
        assert_eq!(o.op_err, [0, 0, 0], "{name}: rank {r}");
        let want = ((r + 1) % size as usize) as i64;
        assert_eq!(
            o.replies[2].get("v"),
            Some(&Value::Int(want)),
            "{name}: rank {r} read its neighbour's pre-fence write"
        );
    }
}

/// No stale reads after `wait_version`: the slave-side lookup memo must
/// be invalidated on root switch before any waiter is answered. A reader
/// that waits for version N and then gets a key must see at least the
/// version-N value, never a memoized older object.
pub fn check_no_stale_reads(t: &dyn ScriptTransport) {
    let name = t.name();
    let writer = vec![
        Op::Put { key: "sr.k".into(), val: Value::Int(1) },
        Op::Commit,
        Op::Pause(200_000),
        Op::Put { key: "sr.k".into(), val: Value::Int(2) },
        Op::Commit,
    ];
    let reader = vec![
        Op::WaitVersion(1),
        Op::Get { key: "sr.k".into() }, // populates the lookup memo
        Op::Get { key: "sr.k".into() }, // served from the memo
        Op::WaitVersion(2),
        Op::Get { key: "sr.k".into() }, // must NOT be the memoized v1
    ];
    let scripts = vec![(Rank(1), writer), (Rank(3), reader)];
    let report = t.run_scripts(4, 2, &kvs_modules, scripts);
    for (i, o) in report.outcomes.iter().enumerate() {
        assert!(o.finished, "{name}: script {i} unfinished");
        assert!(
            o.op_err.iter().all(|&e| e == 0),
            "{name}: script {i} errors {:?}",
            o.op_err
        );
    }
    let reader = &report.outcomes[1];
    // The first read happens at version >= 1: value 1 or 2 are both
    // legal (the second commit may already have landed).
    let first = reader.replies[1].get("v").and_then(Value::as_int).unwrap_or(-1);
    assert!(first == 1 || first == 2, "{name}: first read {first}");
    // The memoized re-read must agree with the first (monotonic reads).
    let second = reader.replies[2].get("v").and_then(Value::as_int).unwrap_or(-1);
    assert!(second >= first, "{name}: re-read went backwards");
    // After wait_version(2) only v2 is acceptable.
    let last = reader.replies[4].get("v").and_then(Value::as_int).unwrap_or(-1);
    assert_eq!(last, 2, "{name}: stale read after wait_version(2)");
}

/// Ordered shutdown under load: clients fire a burst of requests and the
/// session is torn down without ever reading the replies. The check is
/// that `shutdown()` returns — every broker thread joins — with traffic
/// still in flight, and does not panic.
pub fn check_ordered_shutdown_under_load<W: Wire>() {
    let mut builder = LiveSession::<W>::builder(8, 2, kvs_modules);
    let clients: Vec<LiveClient> = (0..4).map(|r| builder.attach_client(Rank(2 * r))).collect();
    let session = builder.start();
    for client in &clients {
        let mut core = ClientCore::new(client.rank, client.client_id);
        for tag in 0..50u64 {
            let msg = if tag % 2 == 0 {
                core.request(
                    KvsMethod::Put.topic(),
                    Value::from_pairs([
                        ("k", Value::from(format!("sd.{}.{tag}", client.rank.0))),
                        ("v", Value::Int(tag as i64)),
                    ]),
                    tag,
                )
            } else {
                core.request(KvsMethod::Commit.topic(), Value::object(), tag)
            };
            client.send(msg);
        }
    }
    // No draining: shutdown must cope with a full inbound queue and
    // replies still buffered outbound.
    session.shutdown();
}

/// Instantiates the full conformance battery as a `mod $name` of
/// `#[test]` functions, each driving one `check_*` over the wire `$wire`.
///
/// ```ignore
/// flux_rt::transport_conformance!(threads, flux_rt::threads::Channels);
/// flux_rt::transport_conformance!(reactor_tcp, flux_rt::tcp::Tcp);
/// ```
#[macro_export]
macro_rules! transport_conformance {
    ($name:ident, $wire:ty) => {
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            #[test]
            fn handshake_rpc() {
                $crate::conformance::check_handshake_rpc::<$wire>();
            }

            #[test]
            fn put_commit_get_and_barrier() {
                $crate::conformance::check_put_commit_get_and_barrier::<$wire>();
            }

            #[test]
            fn watch_streams() {
                $crate::conformance::check_watch_streams::<$wire>();
            }

            #[test]
            fn pipelined_rpcs() {
                $crate::conformance::check_pipelined_rpcs::<$wire>();
            }

            #[test]
            fn sixteen_broker_fence() {
                $crate::conformance::check_sixteen_broker_fence(
                    &$crate::transport::LiveTransport::<$wire>::default(),
                );
            }

            #[test]
            fn no_stale_reads() {
                $crate::conformance::check_no_stale_reads(
                    &$crate::transport::LiveTransport::<$wire>::default(),
                );
            }

            #[test]
            fn ordered_shutdown_under_load() {
                $crate::conformance::check_ordered_shutdown_under_load::<$wire>();
            }
        }
    };
}
