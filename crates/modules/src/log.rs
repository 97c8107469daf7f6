//! The `log` module: reduced, filtered session logging.
//!
//! `log.msg {level, text}` appends to a per-broker circular debug buffer;
//! entries at or above the forwarding level are batched and flushed
//! upstream on each heartbeat, merging with other brokers' batches on the
//! way (the reduction), until they land in the session log at the root.
//! A `log.fault` event makes every broker dump its circular buffer
//! upstream — the paper's "circular debug buffer provides log context in
//! response to a fault event". `log.dump` returns the local buffer
//! (rank-addressable for debugging); `log.query` returns the root log.

use flux_broker::{CommsModule, ModuleCtx};
use flux_proto::{Event, LogMethod};
use flux_value::Value;
use flux_wire::{errnum, Message, MsgId};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Severity levels, syslog-flavoured: lower is more severe.
pub mod level {
    /// Unrecoverable errors.
    pub const ERR: i64 = 3;
    /// Warnings.
    pub const WARN: i64 = 4;
    /// Informational.
    pub const INFO: i64 = 6;
    /// Debug chatter (kept in the circular buffer, not forwarded).
    pub const DEBUG: i64 = 7;
}

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Originating broker rank.
    pub rank: u32,
    /// Severity (see [`level`]).
    pub level: i64,
    /// Message text.
    pub text: String,
    /// Origin timestamp in nanoseconds.
    pub time_ns: u64,
}

impl LogEntry {
    fn to_value(&self) -> Value {
        Value::from_pairs([
            ("rank", Value::from(self.rank)),
            ("level", Value::Int(self.level)),
            ("text", Value::from(self.text.as_str())),
            ("time_ns", Value::Int(self.time_ns as i64)),
        ])
    }

    fn from_value(v: &Value) -> Option<LogEntry> {
        Some(LogEntry {
            rank: v.get("rank")?.as_uint()? as u32,
            level: v.get("level")?.as_int()?,
            text: v.get("text")?.as_str()?.to_owned(),
            time_ns: v.get("time_ns")?.as_int()? as u64,
        })
    }
}

/// Circular debug buffer capacity per broker: enough context around a
/// fault for a `log.dump` without growing with session length.
const RING_CAPACITY: usize = 256;

/// Only entries at or above (numerically ≤) this level forward to the
/// root on heartbeats; debug chatter stays in the local ring.
const FORWARD_LEVEL: i64 = level::INFO;

/// Root session log capacity (oldest entries drop beyond this), so a
/// chatty long-running session cannot grow the root without bound.
const ROOT_CAPACITY: usize = 65536;

/// The log module.
pub struct LogModule {
    /// Circular debug buffer (all levels).
    ring: VecDeque<LogEntry>,
    /// Entries awaiting the next heartbeat flush.
    batch: Vec<LogEntry>,
    /// Root only: the session log.
    session_log: VecDeque<LogEntry>,
    /// Outstanding relayed queries: upstream id → original request.
    query_relays: HashMap<MsgId, Message>,
}

impl LogModule {
    /// Creates the module.
    pub fn new() -> LogModule {
        LogModule {
            ring: VecDeque::new(),
            batch: Vec::new(),
            session_log: VecDeque::new(),
            query_relays: HashMap::new(),
        }
    }

    fn append(&mut self, ctx: &mut ModuleCtx<'_>, entry: LogEntry) {
        if self.ring.len() == RING_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back(entry.clone());
        if entry.level <= FORWARD_LEVEL {
            if ctx.is_root() {
                self.root_store(entry);
            } else {
                self.batch.push(entry);
            }
        }
    }

    fn root_store(&mut self, entry: LogEntry) {
        if self.session_log.len() == ROOT_CAPACITY {
            self.session_log.pop_front();
        }
        self.session_log.push_back(entry);
    }

    fn entries_value(entries: impl Iterator<Item = LogEntry>) -> Value {
        Value::Array(entries.map(|e| e.to_value()).collect())
    }

    fn flush_batch(&mut self, ctx: &mut ModuleCtx<'_>) {
        if self.batch.is_empty() || ctx.is_root() {
            return;
        }
        let entries = std::mem::take(&mut self.batch);
        let payload = Value::from_pairs([(
            "entries",
            Self::entries_value(entries.into_iter()),
        )]);
        let _ = ctx.notify_upstream(LogMethod::Batch.topic(), payload);
    }
}

impl Default for LogModule {
    fn default() -> Self {
        Self::new()
    }
}

impl CommsModule for LogModule {
    fn name(&self) -> &'static str {
        "log"
    }

    fn subscriptions(&self) -> Vec<String> {
        vec![Event::LogFault.topic_str().to_owned()]
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        match LogMethod::from_method(msg.header.topic.method()) {
            Some(LogMethod::Msg) => {
                let level = msg.payload.get("level").and_then(Value::as_int).unwrap_or(level::INFO);
                let Some(text) = msg.payload.get("text").and_then(Value::as_str) else {
                    ctx.respond_err(msg, errnum::EINVAL);
                    return;
                };
                let entry = LogEntry {
                    rank: ctx.rank().0,
                    level,
                    text: text.to_owned(),
                    time_ns: ctx.now_ns(),
                };
                self.append(ctx, entry);
                ctx.respond(msg, Value::object());
            }
            Some(LogMethod::Batch) => {
                // Merged entries climbing the tree (one-way). Interior
                // brokers re-batch; the root stores.
                let Some(arr) = msg.payload.get("entries").and_then(Value::as_array) else {
                    return;
                };
                let entries: Vec<LogEntry> =
                    arr.iter().filter_map(LogEntry::from_value).collect();
                if ctx.is_root() {
                    for e in entries {
                        self.root_store(e);
                    }
                } else {
                    self.batch.extend(entries);
                }
            }
            Some(LogMethod::Dump) => {
                // Local circular buffer (rank-addressable for debugging).
                ctx.respond(
                    msg,
                    Value::from_pairs([(
                        "entries",
                        Self::entries_value(self.ring.iter().cloned()),
                    )]),
                );
            }
            Some(LogMethod::Query) => {
                if ctx.is_root() {
                    let min_level =
                        msg.payload.get("level").and_then(Value::as_int).unwrap_or(i64::MAX);
                    let entries = self
                        .session_log
                        .iter()
                        .filter(|e| e.level <= min_level)
                        .cloned();
                    ctx.respond(
                        msg,
                        Value::from_pairs([("entries", Self::entries_value(entries))]),
                    );
                } else {
                    // Relay to the root's instance.
                    match ctx.request_upstream(LogMethod::Query.topic(), msg.payload.clone()) {
                        Ok(id) => {
                            self.query_relays.insert(id, msg.clone());
                        }
                        Err(e) => ctx.respond_err(msg, e),
                    }
                }
            }
            None => ctx.respond_err(msg, errnum::ENOSYS),
        }
    }

    fn handle_response(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if let Some(original) = self.query_relays.remove(&msg.header.id) {
            if msg.is_error() {
                ctx.respond_err(&original, msg.header.errnum);
            } else {
                ctx.respond(&original, msg.payload.clone());
            }
        }
    }

    fn handle_event(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.header.topic.as_str() != Event::LogFault.topic_str() {
            return;
        }
        // Fault: every broker dumps its debug ring to the root for
        // post-mortem context, regardless of forward level.
        if !ctx.is_root() && !self.ring.is_empty() {
            let payload = Value::from_pairs([(
                "entries",
                Self::entries_value(self.ring.iter().cloned()),
            )]);
            let _ = ctx.notify_upstream(LogMethod::Batch.topic(), payload);
        }
    }

    fn on_heartbeat(&mut self, ctx: &mut ModuleCtx<'_>, _epoch: u64) {
        self.flush_batch(ctx);
    }
}
