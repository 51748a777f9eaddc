//! Outside-in tracing: spans around the public calls into each layer,
//! and an [`Agent`] decorator the harness wraps around every stack
//! layer. Nothing here touches the engine; the in-engine ledger is a
//! later change that this benchmark will measure.

use crate::alloc::PerThread;
use macedon_core::{Agent, Bytes, Ctx, DownCall, ForwardInfo, NodeId, ProtocolId, UpCall};
use std::any::Any;
use std::time::Instant;

/// Named spans kept in memory until the child reports: `(name, start,
/// end)` in seconds since the first span's clock origin.
pub struct Spans {
    origin: Instant,
    pub records: Vec<(&'static str, f64, f64)>,
}

impl Spans {
    /// `origin` is the child's `main` entry, so span coverage can be
    /// checked against the child's own wall time.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            records: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed().as_secs_f64();
        let out = f();
        self.records
            .push((name, start, self.origin.elapsed().as_secs_f64()));
        out
    }

    /// Total duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.records
            .iter()
            .filter(|r| r.0 == name)
            .map(|r| r.2 - r.1)
            .sum()
    }
}

/// Stack layers the workloads run (pastry, scribe, splitstream).
pub const LAYERS: usize = 3;

/// Busy nanoseconds and call count of one traced thing, read after the
/// run's threads have been joined.
pub struct Counter(PerThread);

impl Counter {
    const fn new() -> Counter {
        Counter(PerThread::new())
    }

    fn add(&self, since: Instant) {
        self.0.add(since.elapsed().as_nanos() as u64, 1);
    }

    pub fn busy_s(&self) -> f64 {
        self.0.totals().0 as f64 / 1e9
    }

    pub fn calls(&self) -> u64 {
        self.0.totals().1
    }
}

/// Per-layer agent callbacks, process-wide (sweep cells and shard
/// workers on any thread add to the same counters).
pub static AGENT: [Counter; LAYERS] = [Counter::new(), Counter::new(), Counter::new()];
/// The stack factory.
pub static STACK_BUILD: Counter = Counter::new();

/// Build a stack through `build`, timing it, and wrap every layer in
/// the tracing decorator.
pub fn traced_stack(build: impl FnOnce() -> Vec<Box<dyn Agent>>) -> Vec<Box<dyn Agent>> {
    let start = Instant::now();
    let stack = build();
    STACK_BUILD.add(start);
    stack
        .into_iter()
        .enumerate()
        .map(|(layer, inner)| {
            Box::new(Traced {
                inner,
                counter: &AGENT[layer.min(LAYERS - 1)],
            }) as Box<dyn Agent>
        })
        .collect()
}

/// An [`Agent`] that times every callback of the agent it wraps. The
/// dispatcher drains buffered ops only after a callback returns, so
/// callbacks never nest and the per-layer times add up.
struct Traced {
    inner: Box<dyn Agent>,
    counter: &'static Counter,
}

impl Traced {
    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn Agent) -> T) -> T {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        self.counter.add(start);
        out
    }
}

impl Agent for Traced {
    fn protocol_id(&self) -> ProtocolId {
        self.inner.protocol_id()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn init(&mut self, ctx: &mut Ctx) {
        self.timed(|a| a.init(ctx))
    }
    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        self.timed(|a| a.downcall(ctx, call))
    }
    fn upcall(&mut self, ctx: &mut Ctx, up: UpCall) {
        self.timed(|a| a.upcall(ctx, up))
    }
    fn on_forward(&mut self, ctx: &mut Ctx, fwd: &mut ForwardInfo) {
        self.timed(|a| a.on_forward(ctx, fwd))
    }
    fn forward_resolved(&mut self, ctx: &mut Ctx, fwd: ForwardInfo) {
        self.timed(|a| a.forward_resolved(ctx, fwd))
    }
    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {
        self.timed(|a| a.recv(ctx, from, msg))
    }
    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
        self.timed(|a| a.timer(ctx, timer))
    }
    fn neighbor_failed(&mut self, ctx: &mut Ctx, peer: NodeId) {
        self.timed(|a| a.neighbor_failed(ctx, peer))
    }
    // State inspection sees through the decorator.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
