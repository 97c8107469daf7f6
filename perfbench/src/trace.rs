//! The traced run: a decorator that times every [`CommsModule`]
//! callback from outside the program.
//!
//! [`Tracer::wrap`] turns any per-rank module factory into one whose
//! modules are [`TracedModule`]s, so the simulator and the reactor are
//! traced the same way ([`TracedTransport`] applies it to any
//! [`ScriptTransport`]). Each callback's *self* time is its duration
//! minus the callbacks nested inside it on the same thread. Everything
//! stays in memory until the run ends.

use flux_broker::{CommsModule, ModuleCtx};
use flux_rt::script::Op;
use flux_rt::transport::{ModuleFactory, ScriptReport, ScriptTransport};
use flux_wire::{Message, MsgId, Payload, Rank};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The module callbacks the decorator times.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Callback {
    /// `on_start`.
    Start,
    /// `handle_request`.
    Request,
    /// `handle_response`.
    Response,
    /// `handle_event`.
    Event,
    /// `on_heartbeat`.
    Heartbeat,
    /// `on_timer`.
    Timer,
}

impl Callback {
    /// Every callback, in report order.
    pub const ALL: [Callback; 6] = [
        Callback::Start,
        Callback::Request,
        Callback::Response,
        Callback::Event,
        Callback::Heartbeat,
        Callback::Timer,
    ];

    /// Metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            Callback::Start => "start",
            Callback::Request => "request",
            Callback::Response => "response",
            Callback::Event => "event",
            Callback::Heartbeat => "heartbeat",
            Callback::Timer => "timer",
        }
    }
}

/// Calls and self time of one (module, callback[, topic]) cell.
#[derive(Default, Clone, Debug)]
pub struct CallStat {
    /// Invocations.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Per-call self time, ns.
    pub samples: Vec<u64>,
}

impl CallStat {
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.self_ns += ns;
        self.samples.push(ns);
    }

    /// Folds another cell into this one.
    pub fn merge(&mut self, other: &CallStat) {
        self.calls += other.calls;
        self.self_ns += other.self_ns;
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Payloads that carry KVS objects, kept for the layer replay.
#[derive(Default)]
pub struct PayloadSamples {
    /// Calls whose payload carried objects.
    pub calls: u64,
    /// Summed approximate payload size over those calls, bytes.
    pub bytes: u64,
    /// Sampled payloads (at most [`MAX_SAMPLES`], one per distinct
    /// shared payload).
    pub kept: Vec<Payload>,
    stride: u64,
}

/// Cap on payloads kept per module instance and callback.
pub const MAX_SAMPLES: usize = 32;

impl PayloadSamples {
    fn offer(&mut self, payload: &Payload) {
        self.calls += 1;
        self.bytes += payload.approx_size() as u64;
        // The simulator shares one payload among every receiver of a
        // fan-out; replaying it once per distinct allocation suffices.
        let ptr = payload.value() as *const flux_value::Value;
        if self.kept.iter().any(|k| std::ptr::eq(k.value(), ptr)) {
            return;
        }
        self.stride = self.stride.max(1);
        if !self.calls.is_multiple_of(self.stride) {
            return;
        }
        if self.kept.len() == MAX_SAMPLES {
            // Halve the sample and double the stride: a deterministic
            // systematic sample over the whole run.
            let mut i = 0;
            self.kept.retain(|_| {
                i += 1;
                i % 2 == 0
            });
            self.stride *= 2;
        }
        self.kept.push(payload.clone());
    }
}

/// Everything recorded for one module instance.
pub struct ModuleTrace {
    /// The module's service name.
    pub module: &'static str,
    /// Per-callback totals.
    pub by_callback: BTreeMap<Callback, CallStat>,
    /// Requests split by method (`get`, `put`, ...).
    pub by_method: BTreeMap<String, CallStat>,
    /// Request self time keyed by the request's id.
    pub request_ids: Vec<(MsgId, u64)>,
    /// `kvs` responses carrying a loaded object.
    pub response_objects: PayloadSamples,
    /// `kvs` requests carrying objects (commit and fence pushes).
    pub request_objects: PayloadSamples,
}

thread_local! {
    /// Child time accumulated by each active traced callback on this
    /// thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` and returns its result with its self time in ns: the
/// elapsed time minus what traced callbacks nested inside it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    STACK.with(|s| s.borrow_mut().push(0));
    let t = Instant::now();
    let r = f();
    let total = t.elapsed().as_nanos() as u64;
    let child = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let child = s.pop().unwrap_or(0);
        if let Some(parent) = s.last_mut() {
            *parent += total;
        }
        child
    });
    (r, total.saturating_sub(child))
}

/// A module wrapped so each callback is timed.
pub struct TracedModule {
    inner: Box<dyn CommsModule>,
    trace: Arc<Mutex<ModuleTrace>>,
}

impl TracedModule {
    fn note(&self, cb: Callback, ns: u64) {
        let mut t = self.trace.lock().expect("trace lock poisoned");
        t.by_callback.entry(cb).or_default().record(ns);
    }
}

impl CommsModule for TracedModule {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn subscriptions(&self) -> Vec<String> {
        self.inner.subscriptions()
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        let ((), ns) = timed(|| self.inner.on_start(ctx));
        self.note(Callback::Start, ns);
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let ((), ns) = timed(|| self.inner.handle_request(ctx, msg));
        let mut t = self.trace.lock().expect("trace lock poisoned");
        t.by_callback
            .entry(Callback::Request)
            .or_default()
            .record(ns);
        let method = msg.header.topic.method();
        match t.by_method.get_mut(method) {
            Some(s) => s.record(ns),
            None => {
                let mut s = CallStat::default();
                s.record(ns);
                t.by_method.insert(method.to_owned(), s);
            }
        }
        t.request_ids.push((msg.header.id, ns));
        if t.module == "kvs" && msg.payload.get("objects").is_some() {
            t.request_objects.offer(&msg.payload);
        }
    }

    fn handle_response(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let ((), ns) = timed(|| self.inner.handle_response(ctx, msg));
        let mut t = self.trace.lock().expect("trace lock poisoned");
        t.by_callback
            .entry(Callback::Response)
            .or_default()
            .record(ns);
        if t.module == "kvs" && msg.payload.get("obj").is_some() {
            t.response_objects.offer(&msg.payload);
        }
    }

    fn handle_event(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let ((), ns) = timed(|| self.inner.handle_event(ctx, msg));
        self.note(Callback::Event, ns);
    }

    fn on_heartbeat(&mut self, ctx: &mut ModuleCtx<'_>, epoch: u64) {
        let ((), ns) = timed(|| self.inner.on_heartbeat(ctx, epoch));
        self.note(Callback::Heartbeat, ns);
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        let ((), ns) = timed(|| self.inner.on_timer(ctx, token));
        self.note(Callback::Timer, ns);
    }
}

/// Collects the traces of every module a wrapped factory builds.
#[derive(Clone, Default)]
pub struct Tracer {
    modules: Arc<Mutex<Vec<Arc<Mutex<ModuleTrace>>>>>,
}

impl Tracer {
    /// Wraps one module.
    pub fn wrap_module(&self, inner: Box<dyn CommsModule>) -> Box<dyn CommsModule> {
        let trace = Arc::new(Mutex::new(ModuleTrace {
            module: inner.name(),
            by_callback: BTreeMap::new(),
            by_method: BTreeMap::new(),
            request_ids: Vec::new(),
            response_objects: PayloadSamples::default(),
            request_objects: PayloadSamples::default(),
        }));
        self.modules
            .lock()
            .expect("tracer lock poisoned")
            .push(Arc::clone(&trace));
        Box::new(TracedModule { inner, trace })
    }

    /// Wraps a per-rank module factory.
    pub fn wrap<'a>(
        &'a self,
        factory: ModuleFactory<'a>,
    ) -> impl Fn(Rank) -> Vec<Box<dyn CommsModule>> + 'a {
        move |rank| {
            factory(rank)
                .into_iter()
                .map(|m| self.wrap_module(m))
                .collect()
        }
    }

    /// Takes every module trace recorded so far, leaving the tracer empty.
    pub fn drain(&self) -> Vec<Arc<Mutex<ModuleTrace>>> {
        std::mem::take(&mut *self.modules.lock().expect("tracer lock poisoned"))
    }
}

/// A [`ScriptTransport`] decorator that traces the modules of every
/// session it runs; with no tracer it is a plain pass-through.
pub struct TracedTransport<'t, T> {
    /// The transport that runs the scripts.
    pub inner: &'t T,
    /// The tracer, or `None` for an untraced run.
    pub tracer: Option<&'t Tracer>,
}

impl<T: ScriptTransport> ScriptTransport for TracedTransport<'_, T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_scripts(
        &self,
        size: u32,
        arity: u32,
        factory: ModuleFactory<'_>,
        scripts: Vec<(Rank, Vec<Op>)>,
    ) -> ScriptReport {
        match self.tracer {
            Some(tracer) => {
                let wrapped = tracer.wrap(factory);
                self.inner.run_scripts(size, arity, &wrapped, scripts)
            }
            None => self.inner.run_scripts(size, arity, factory, scripts),
        }
    }
}

/// Module traces folded across instances: per (module, callback) and,
/// for requests, per (module, method).
#[derive(Default)]
pub struct Folded {
    /// `(module, callback)` totals.
    pub callbacks: BTreeMap<(&'static str, Callback), CallStat>,
    /// `(module, method)` request totals.
    pub methods: BTreeMap<(&'static str, String), CallStat>,
    /// Request self time per id, across all modules.
    pub request_ids: Vec<(MsgId, u64)>,
    /// `kvs` object-carrying responses.
    pub response_objects: Vec<PayloadSamples>,
    /// `kvs` object-carrying requests.
    pub request_objects: Vec<PayloadSamples>,
}

impl Folded {
    /// Folds drained module traces.
    pub fn fold(&mut self, traces: Vec<Arc<Mutex<ModuleTrace>>>) {
        for t in traces {
            let mut t = t.lock().expect("trace lock poisoned");
            let module = t.module;
            for (cb, s) in &t.by_callback {
                self.callbacks.entry((module, *cb)).or_default().merge(s);
            }
            for (m, s) in &t.by_method {
                self.methods
                    .entry((module, m.clone()))
                    .or_default()
                    .merge(s);
            }
            self.request_ids.append(&mut t.request_ids);
            self.response_objects
                .push(std::mem::take(&mut t.response_objects));
            self.request_objects
                .push(std::mem::take(&mut t.request_objects));
        }
    }

    /// Self time of every module callback, ns.
    pub fn total_self_ns(&self) -> u64 {
        self.callbacks.values().map(|s| s.self_ns).sum()
    }

    /// One cell, empty if never called.
    pub fn callback(&self, module: &'static str, cb: Callback) -> CallStat {
        self.callbacks
            .get(&(module, cb))
            .cloned()
            .unwrap_or_default()
    }
}
