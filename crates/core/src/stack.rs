//! The per-node protocol stack and its effect dispatcher.
//!
//! A node runs a linear chain of [`Agent`]s — e.g. SplitStream over
//! Scribe over Pastry (Figure 2) — with an [`AppHandler`] on top. Only
//! layer 0 talks to the transport subsystem; only the top layer talks to
//! the application (Figure 5). Transitions buffer [`Op`]s, and the
//! dispatcher here drains them in FIFO order, invoking neighbor layers
//! until the queue settles. Effects that escape the stack (sends, timers,
//! failure-detector registrations, traces) are returned to the world.
//! The queue is not the node's: each dispatch borrows one from this
//! thread's pool and hands it back drained ([`crate::scratch`]).

use crate::agent::{Agent, AppHandler, Ctx, Locking, Op};
use crate::api::{DownCall, UpCall};
use crate::key::{Addressing, MacedonKey};
use crate::measure::MeasureLedger;
use crate::scratch::{self, OpQueue};
use crate::trace::{SpanId, TraceEvent, TraceLevel};
use bytes::Bytes;
use macedon_net::NodeId;
use macedon_sim::{Duration, SimRng, Time};
use macedon_transport::ChannelId;

/// Cap on ops processed per external event — a runaway upcall/downcall
/// cycle trips this instead of hanging the simulation.
const OP_BUDGET: usize = 100_000;

/// An effect escaping the stack, handled by the world.
#[derive(Debug)]
pub enum StackEffect {
    Send {
        dst: NodeId,
        channel: ChannelId,
        bytes: Bytes,
        /// Causal span minted for this message; rides with it through
        /// transport and network out-of-band (never in wire bytes).
        span: SpanId,
    },
    TimerSet {
        layer: usize,
        timer: u16,
        delay: Duration,
        periodic: bool,
    },
    TimerCancel {
        layer: usize,
        timer: u16,
    },
    Monitor {
        layer: usize,
        peer: NodeId,
    },
    Unmonitor {
        layer: usize,
        peer: NodeId,
    },
    Trace {
        layer: usize,
        level: TraceLevel,
        /// Causal context active when the record was emitted.
        span: SpanId,
        event: TraceEvent,
    },
}

/// One node's protocol stack: its layers, application, RNG and
/// measurement ledger. The op queue a dispatch drains is borrowed from
/// this thread's pool for that dispatch ([`crate::scratch`]), so an idle
/// stack holds no working buffers.
pub struct Stack {
    node: NodeId,
    key: MacedonKey,
    /// Addressing mode `key` was derived under, handed to every [`Ctx`]
    /// so agents derive peer keys the same way the world derived `key`.
    addressing: Addressing,
    agents: Vec<Box<dyn Agent>>,
    app: Box<dyn AppHandler>,
    rng: SimRng,
    /// Trace verbosity threshold handed to every [`Ctx`] (see
    /// [`Ctx::trace_on`]). Defaults to `High` — emit everything — so
    /// bare stacks behave as before; the world lowers it to its
    /// configured collection level, letting agents skip building
    /// records the sink would drop.
    trace_level: TraceLevel,
    /// Causal context of the event currently dispatching: the span of
    /// the inbound message, or `NONE` for timers/API/engine entries.
    current_span: SpanId,
    /// Per-stack send counter; the low 32 bits of every minted span.
    sends_minted: u32,
    /// Engine measurements for this node (per-peer smoothed RTT and
    /// inbound goodput), fed by the world from transport observations
    /// and read by transitions through [`Ctx::rtt_ms`] /
    /// [`Ctx::goodput_kbps`].
    measures: MeasureLedger,
    /// Read/write transition counters (locking ablation).
    pub read_transitions: u64,
    pub write_transitions: u64,
}

impl Stack {
    /// Build a stack; `agents[0]` is the lowest layer.
    pub fn new(
        node: NodeId,
        key: MacedonKey,
        agents: Vec<Box<dyn Agent>>,
        app: Box<dyn AppHandler>,
        rng: SimRng,
    ) -> Stack {
        assert!(
            !agents.is_empty(),
            "a stack needs at least one protocol layer"
        );
        Stack {
            node,
            key,
            addressing: Addressing::Hash,
            agents,
            app,
            rng,
            trace_level: TraceLevel::High,
            current_span: SpanId::NONE,
            sends_minted: 0,
            measures: MeasureLedger::new(),
            read_transitions: 0,
            write_transitions: 0,
        }
    }

    /// Set the trace verbosity threshold transitions observe through
    /// [`Ctx::trace_on`] (the world sets its configured level here).
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.trace_level = level;
    }

    /// Set the addressing mode the node's key was derived under (the
    /// world sets its configured mode here at spawn).
    pub fn set_addressing(&mut self, mode: Addressing) {
        self.addressing = mode;
    }

    /// How many spans this stack has minted so far (the low 32 bits of
    /// the last minted [`SpanId`]).
    pub fn sends_minted(&self) -> u32 {
        self.sends_minted
    }

    /// Resume span minting from `base` instead of 0. The world calls
    /// this when respawning a previously despawned node so the new
    /// incarnation's spans never collide with the historical ones —
    /// span ids must stay unique per node across reboots for the trace
    /// parentage to remain a forest.
    pub fn resume_span_counter(&mut self, base: u32) {
        debug_assert_eq!(self.sends_minted, 0, "resume before any send");
        self.sends_minted = base;
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn key(&self) -> MacedonKey {
        self.key
    }

    pub fn num_layers(&self) -> usize {
        self.agents.len()
    }

    /// Inspect a layer (downcast in tests / experiment harnesses).
    pub fn agent(&self, layer: usize) -> &dyn Agent {
        self.agents[layer].as_ref()
    }

    pub fn app(&self) -> &dyn AppHandler {
        self.app.as_ref()
    }

    /// This node's measurement ledger (read side).
    pub fn measures(&self) -> &MeasureLedger {
        &self.measures
    }

    /// This node's measurement ledger (the world feeds samples here).
    pub fn measures_mut(&mut self) -> &mut MeasureLedger {
        &mut self.measures
    }

    /// Push an engine trace event if `level` clears the stack's
    /// verbosity threshold (the [`Ctx::trace_on`] predicate, evaluated
    /// engine-side).
    #[inline]
    fn emit(&self, fx: &mut Vec<StackEffect>, layer: usize, level: TraceLevel, event: TraceEvent) {
        if level != TraceLevel::Off && level <= self.trace_level {
            fx.push(StackEffect::Trace {
                layer,
                level,
                span: self.current_span,
                event,
            });
        }
    }

    /// Fire all `init` transitions bottom-up, then the app's `start`.
    pub fn init(&mut self, now: Time, fx: &mut Vec<StackEffect>) {
        self.current_span = SpanId::NONE;
        self.emit(
            fx,
            self.agents.len(),
            TraceLevel::Med,
            TraceEvent::ApiCall { call: "init" },
        );
        self.dispatch(now, fx, |s, queue, fx| {
            for layer in 0..s.agents.len() {
                s.step_agent(now, layer, queue, fx, |a, ctx| a.init(ctx));
            }
            s.step_app(now, queue, fx, |app, ctx| app.start(ctx));
        });
    }

    /// A transport message arrived for the lowest layer; `span` is the
    /// causal span that rode with it (NONE for engine traffic).
    pub fn recv(
        &mut self,
        now: Time,
        from: NodeId,
        msg: Bytes,
        span: SpanId,
        fx: &mut Vec<StackEffect>,
    ) {
        self.current_span = span;
        self.emit(
            fx,
            0,
            TraceLevel::High,
            TraceEvent::Dispatch {
                from,
                bytes: msg.len(),
            },
        );
        self.dispatch(now, fx, |s, queue, fx| {
            s.step_agent(now, 0, queue, fx, |a, ctx| a.recv(ctx, from, msg));
        });
    }

    /// A named timer fired for `layer` (or the app when
    /// `layer == num_layers()`).
    pub fn timer(&mut self, now: Time, layer: usize, timer: u16, fx: &mut Vec<StackEffect>) {
        self.current_span = SpanId::NONE;
        self.emit(fx, layer, TraceLevel::High, TraceEvent::TimerFire { timer });
        self.dispatch(now, fx, |s, queue, fx| {
            if layer == s.agents.len() {
                s.step_app(now, queue, fx, |app, ctx| app.on_timer(ctx, timer));
            } else {
                s.step_agent(now, layer, queue, fx, |a, ctx| a.timer(ctx, timer));
            }
        });
    }

    /// The application invokes the top layer's API.
    pub fn api(&mut self, now: Time, call: DownCall, fx: &mut Vec<StackEffect>) {
        self.current_span = SpanId::NONE;
        self.emit(
            fx,
            self.agents.len(),
            TraceLevel::Med,
            TraceEvent::ApiCall { call: call.name() },
        );
        self.dispatch(now, fx, |s, queue, _| {
            queue.push_back((s.agents.len(), Op::Down(call)));
        });
    }

    /// The engine failure detector declared `peer` dead for `layer`.
    pub fn peer_failed(
        &mut self,
        now: Time,
        layer: usize,
        peer: NodeId,
        fx: &mut Vec<StackEffect>,
    ) {
        self.current_span = SpanId::NONE;
        self.emit(
            fx,
            layer,
            TraceLevel::Med,
            TraceEvent::ApiCall { call: "error" },
        );
        self.dispatch(now, fx, |s, queue, fx| {
            if layer < s.agents.len() {
                s.step_agent(now, layer, queue, fx, |a, ctx| a.neighbor_failed(ctx, peer));
            }
        });
    }

    // -- dispatcher internals ------------------------------------------------

    /// One dispatch: borrow an op queue from this thread's pool, let
    /// `enter` run the event's first transitions into it, drain it, and
    /// hand it back empty.
    fn dispatch(
        &mut self,
        now: Time,
        fx: &mut Vec<StackEffect>,
        enter: impl FnOnce(&mut Stack, &mut OpQueue, &mut Vec<StackEffect>),
    ) {
        let mut queue = scratch::take_ops();
        enter(self, &mut queue, fx);
        self.drain(now, &mut queue, fx);
        scratch::give_ops(queue);
    }

    fn drain(&mut self, now: Time, queue: &mut OpQueue, fx: &mut Vec<StackEffect>) {
        let mut budget = OP_BUDGET;
        while let Some((origin, op)) = queue.pop_front() {
            budget = budget.checked_sub(1).unwrap_or_else(|| {
                panic!(
                    "op budget exhausted on node {:?}: cyclic up/down calls?",
                    self.node
                )
            });
            match op {
                Op::Down(call) => {
                    if origin == 0 {
                        self.emit(
                            fx,
                            0,
                            TraceLevel::Low,
                            TraceEvent::Custom {
                                msg: format!("dropped downcall below lowest layer: {call:?}"),
                            },
                        );
                    } else {
                        let target = origin - 1;
                        self.step_agent(now, target, queue, fx, |a, ctx| a.downcall(ctx, call));
                    }
                }
                Op::Up(up) => {
                    let target = origin + 1;
                    if target > self.agents.len() {
                        // App cannot upcall; drop.
                        continue;
                    }
                    if target == self.agents.len() {
                        if let UpCall::Deliver {
                            from, ref payload, ..
                        } = up
                        {
                            self.emit(
                                fx,
                                target,
                                TraceLevel::Med,
                                TraceEvent::Deliver {
                                    from,
                                    bytes: payload.len(),
                                },
                            );
                        }
                        self.step_app(now, queue, fx, |app, ctx| match up {
                            UpCall::Deliver { src, from, payload } => {
                                app.on_deliver(ctx, src, from, payload)
                            }
                            UpCall::Notify {
                                nbr_type,
                                neighbors,
                            } => app.on_notify(ctx, nbr_type, &neighbors),
                            UpCall::Ext { op, payload } => app.on_upcall_ext(ctx, op, payload),
                        });
                    } else {
                        self.step_agent(now, target, queue, fx, |a, ctx| a.upcall(ctx, up));
                    }
                }
                Op::ForwardQuery(mut fwd) => {
                    // Walk every layer above the origin, ending at the app.
                    for layer in (origin + 1)..self.agents.len() {
                        self.step_agent(now, layer, queue, fx, |a, ctx| {
                            a.on_forward(ctx, &mut fwd)
                        });
                    }
                    self.step_app(now, queue, fx, |app, ctx| app.on_forward(ctx, &mut fwd));
                    if fwd.quash {
                        self.emit(fx, origin, TraceLevel::Med, TraceEvent::Quash);
                    } else {
                        self.emit(
                            fx,
                            origin,
                            TraceLevel::Med,
                            TraceEvent::Forward {
                                next_hop: fwd.next_hop,
                                bytes: fwd.payload.len(),
                            },
                        );
                    }
                    self.step_agent(now, origin, queue, fx, |a, ctx| {
                        a.forward_resolved(ctx, fwd)
                    });
                }
                Op::Send {
                    dst,
                    channel,
                    bytes,
                } => {
                    debug_assert_eq!(origin, 0, "non-lowest layer tried a raw send");
                    // Mint the causal span unconditionally: spans are part
                    // of message identity and never depend on trace config.
                    self.sends_minted += 1;
                    let span = SpanId::mint(self.node, self.sends_minted);
                    self.emit(
                        fx,
                        origin,
                        TraceLevel::Med,
                        TraceEvent::Send {
                            span,
                            dst,
                            channel,
                            bytes: bytes.len(),
                        },
                    );
                    fx.push(StackEffect::Send {
                        dst,
                        channel,
                        bytes,
                        span,
                    });
                }
                Op::TimerSet {
                    timer,
                    delay,
                    periodic,
                } => {
                    fx.push(StackEffect::TimerSet {
                        layer: origin,
                        timer,
                        delay,
                        periodic,
                    });
                }
                Op::TimerCancel { timer } => {
                    fx.push(StackEffect::TimerCancel {
                        layer: origin,
                        timer,
                    });
                }
                Op::Monitor { peer } => fx.push(StackEffect::Monitor {
                    layer: origin,
                    peer,
                }),
                Op::Unmonitor { peer } => fx.push(StackEffect::Unmonitor {
                    layer: origin,
                    peer,
                }),
                Op::Trace { level, event } => self.emit(fx, origin, level, event),
            }
        }
    }

    fn step_agent(
        &mut self,
        now: Time,
        layer: usize,
        queue: &mut OpQueue,
        _fx: &mut Vec<StackEffect>,
        f: impl FnOnce(&mut dyn Agent, &mut Ctx),
    ) {
        let mut ctx = Ctx {
            now,
            me: self.node,
            my_key: self.key,
            addressing: self.addressing,
            layer,
            layers: self.agents.len(),
            rng: &mut self.rng,
            measures: &self.measures,
            ops: queue,
            locking: Locking::Write,
            trace_level: self.trace_level,
        };
        f(self.agents[layer].as_mut(), &mut ctx);
        match ctx.locking() {
            Locking::Read => self.read_transitions += 1,
            Locking::Write => self.write_transitions += 1,
        }
    }

    fn step_app(
        &mut self,
        now: Time,
        queue: &mut OpQueue,
        _fx: &mut Vec<StackEffect>,
        f: impl FnOnce(&mut dyn AppHandler, &mut Ctx),
    ) {
        let layer = self.agents.len();
        let mut ctx = Ctx {
            now,
            me: self.node,
            my_key: self.key,
            addressing: self.addressing,
            layer,
            layers: self.agents.len(),
            rng: &mut self.rng,
            measures: &self.measures,
            ops: queue,
            locking: Locking::Write,
            trace_level: self.trace_level,
        };
        f(self.app.as_mut(), &mut ctx);
        match ctx.locking() {
            Locking::Read => self.read_transitions += 1,
            Locking::Write => self.write_transitions += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DownCall, ForwardInfo, UpCall};
    use std::any::Any;

    /// Non-trace effects (bare stacks default to High verbosity, so
    /// engine trace events interleave with the effects under test).
    fn sans_trace(fx: &[StackEffect]) -> Vec<&StackEffect> {
        fx.iter()
            .filter(|e| !matches!(e, StackEffect::Trace { .. }))
            .collect()
    }

    /// Lowest layer: answers Route downcalls with a raw Send; delivers
    /// received messages up.
    struct EchoRouter {
        inited: bool,
    }

    impl Agent for EchoRouter {
        fn protocol_id(&self) -> u16 {
            10
        }
        fn name(&self) -> &'static str {
            "echo-router"
        }
        fn init(&mut self, _ctx: &mut Ctx) {
            self.inited = true;
        }
        fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
            if let DownCall::Route { dest, payload, .. } = call {
                ctx.send(NodeId(dest.0), ChannelId(0), payload);
            }
        }
        fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {
            ctx.up(UpCall::Deliver {
                src: MacedonKey(from.0),
                from,
                payload: msg,
            });
        }
        fn timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Middle layer: counts what passes through, passes everything on.
    struct PassThrough {
        ups: u32,
        downs: u32,
    }

    impl Agent for PassThrough {
        fn protocol_id(&self) -> u16 {
            11
        }
        fn name(&self) -> &'static str {
            "pass"
        }
        fn init(&mut self, _ctx: &mut Ctx) {}
        fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
            self.downs += 1;
            ctx.down(call);
        }
        fn upcall(&mut self, ctx: &mut Ctx, up: UpCall) {
            self.ups += 1;
            ctx.up(up);
        }
        fn recv(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Bytes) {}
        fn timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct RecordingApp {
        delivered: Vec<Bytes>,
    }

    impl AppHandler for RecordingApp {
        fn on_deliver(&mut self, _ctx: &mut Ctx, _src: MacedonKey, _from: NodeId, payload: Bytes) {
            self.delivered.push(payload);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn make_stack() -> Stack {
        Stack::new(
            NodeId(1),
            MacedonKey(1),
            vec![
                Box::new(EchoRouter { inited: false }),
                Box::new(PassThrough { ups: 0, downs: 0 }),
            ],
            Box::new(RecordingApp { delivered: vec![] }),
            SimRng::new(7),
        )
    }

    #[test]
    fn init_reaches_all_layers() {
        let mut s = make_stack();
        let mut fx = Vec::new();
        s.init(Time::ZERO, &mut fx);
        let router: &EchoRouter = s.agent(0).as_any().downcast_ref().unwrap();
        assert!(router.inited);
    }

    #[test]
    fn api_downcall_travels_to_lowest_and_sends() {
        let mut s = make_stack();
        let mut fx = Vec::new();
        s.api(
            Time::ZERO,
            DownCall::Route {
                dest: MacedonKey(9),
                payload: Bytes::from_static(b"data"),
                priority: -1,
            },
            &mut fx,
        );
        let pass: &PassThrough = s.agent(1).as_any().downcast_ref().unwrap();
        assert_eq!(pass.downs, 1);
        assert!(matches!(
            &sans_trace(&fx)[..],
            [StackEffect::Send { dst, .. }] if *dst == NodeId(9)
        ));
    }

    #[test]
    fn recv_travels_up_to_app() {
        let mut s = make_stack();
        let mut fx = Vec::new();
        s.recv(
            Time::ZERO,
            NodeId(5),
            Bytes::from_static(b"hello"),
            SpanId::NONE,
            &mut fx,
        );
        let pass: &PassThrough = s.agent(1).as_any().downcast_ref().unwrap();
        assert_eq!(pass.ups, 1);
        let app: &RecordingApp = s.app().as_any().downcast_ref().unwrap();
        assert_eq!(app.delivered.len(), 1);
        assert_eq!(&app.delivered[0][..], b"hello");
    }

    #[test]
    fn timer_effects_tagged_with_layer() {
        struct TimerAgent;
        impl Agent for TimerAgent {
            fn protocol_id(&self) -> u16 {
                1
            }
            fn name(&self) -> &'static str {
                "t"
            }
            fn init(&mut self, ctx: &mut Ctx) {
                ctx.timer_set(3, Duration::from_secs(1));
            }
            fn downcall(&mut self, _ctx: &mut Ctx, _call: DownCall) {}
            fn recv(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Bytes) {}
            fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
                ctx.timer_cancel(timer);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s = Stack::new(
            NodeId(0),
            MacedonKey(0),
            vec![Box::new(TimerAgent)],
            Box::new(crate::agent::NullApp),
            SimRng::new(1),
        );
        let mut fx = Vec::new();
        s.init(Time::ZERO, &mut fx);
        assert!(matches!(
            &sans_trace(&fx)[..],
            [StackEffect::TimerSet {
                layer: 0,
                timer: 3,
                ..
            }]
        ));
        fx.clear();
        s.timer(Time::from_secs(1), 0, 3, &mut fx);
        assert!(matches!(
            &sans_trace(&fx)[..],
            [StackEffect::TimerCancel { layer: 0, timer: 3 }]
        ));
    }

    #[test]
    fn forward_query_visits_upper_layers_and_returns() {
        /// Router that asks permission before sending.
        struct QueryRouter {
            resolved: Option<ForwardInfo>,
        }
        impl Agent for QueryRouter {
            fn protocol_id(&self) -> u16 {
                2
            }
            fn name(&self) -> &'static str {
                "qr"
            }
            fn init(&mut self, _ctx: &mut Ctx) {}
            fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
                if let DownCall::Route { dest, payload, .. } = call {
                    ctx.forward_query(ForwardInfo {
                        src: MacedonKey(0),
                        prev_hop: NodeId(0),
                        dest,
                        next_hop: NodeId(100),
                        payload,
                        quash: false,
                    });
                }
            }
            fn forward_resolved(&mut self, ctx: &mut Ctx, fwd: ForwardInfo) {
                if !fwd.quash {
                    ctx.send(fwd.next_hop, ChannelId(0), fwd.payload.clone());
                }
                self.resolved = Some(fwd);
            }
            fn recv(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Bytes) {}
            fn timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        /// Upper layer that redirects next hops.
        struct Redirector;
        impl Agent for Redirector {
            fn protocol_id(&self) -> u16 {
                3
            }
            fn name(&self) -> &'static str {
                "redir"
            }
            fn init(&mut self, _ctx: &mut Ctx) {}
            fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
                ctx.down(call);
            }
            fn on_forward(&mut self, _ctx: &mut Ctx, fwd: &mut ForwardInfo) {
                fwd.next_hop = NodeId(200);
            }
            fn recv(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Bytes) {}
            fn timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s = Stack::new(
            NodeId(0),
            MacedonKey(0),
            vec![
                Box::new(QueryRouter { resolved: None }),
                Box::new(Redirector),
            ],
            Box::new(crate::agent::NullApp),
            SimRng::new(1),
        );
        let mut fx = Vec::new();
        s.api(
            Time::ZERO,
            DownCall::Route {
                dest: MacedonKey(1),
                payload: Bytes::from_static(b"m"),
                priority: -1,
            },
            &mut fx,
        );
        // Upper layer redirected the hop; router then sent there.
        assert!(
            matches!(&sans_trace(&fx)[..], [StackEffect::Send { dst, .. }] if *dst == NodeId(200))
        );
        let qr: &QueryRouter = s.agent(0).as_any().downcast_ref().unwrap();
        assert_eq!(qr.resolved.as_ref().unwrap().next_hop, NodeId(200));
    }

    #[test]
    fn quash_stops_transmission() {
        struct QuashAll;
        impl Agent for QuashAll {
            fn protocol_id(&self) -> u16 {
                4
            }
            fn name(&self) -> &'static str {
                "quash"
            }
            fn init(&mut self, _ctx: &mut Ctx) {}
            fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
                ctx.down(call);
            }
            fn on_forward(&mut self, _ctx: &mut Ctx, fwd: &mut ForwardInfo) {
                fwd.quash = true;
            }
            fn recv(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Bytes) {}
            fn timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct QueryRouter2;
        impl Agent for QueryRouter2 {
            fn protocol_id(&self) -> u16 {
                5
            }
            fn name(&self) -> &'static str {
                "qr2"
            }
            fn init(&mut self, _ctx: &mut Ctx) {}
            fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
                if let DownCall::Route { dest, payload, .. } = call {
                    ctx.forward_query(ForwardInfo {
                        src: MacedonKey(0),
                        prev_hop: NodeId(0),
                        dest,
                        next_hop: NodeId(1),
                        payload,
                        quash: false,
                    });
                }
            }
            fn forward_resolved(&mut self, ctx: &mut Ctx, fwd: ForwardInfo) {
                if !fwd.quash {
                    ctx.send(fwd.next_hop, ChannelId(0), fwd.payload.clone());
                }
            }
            fn recv(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Bytes) {}
            fn timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut s = Stack::new(
            NodeId(0),
            MacedonKey(0),
            vec![Box::new(QueryRouter2), Box::new(QuashAll)],
            Box::new(crate::agent::NullApp),
            SimRng::new(1),
        );
        let mut fx = Vec::new();
        s.api(
            Time::ZERO,
            DownCall::Route {
                dest: MacedonKey(1),
                payload: Bytes::new(),
                priority: -1,
            },
            &mut fx,
        );
        assert!(fx.iter().all(|e| !matches!(e, StackEffect::Send { .. })));
    }

    #[test]
    fn transition_locking_counters() {
        let mut s = make_stack();
        let mut fx = Vec::new();
        s.init(Time::ZERO, &mut fx);
        let w0 = s.write_transitions;
        assert!(w0 >= 3, "init counted for two agents and the app");
        s.recv(Time::ZERO, NodeId(2), Bytes::new(), SpanId::NONE, &mut fx);
        assert!(s.write_transitions > w0);
    }

    #[test]
    fn sends_mint_unique_spans_and_emit_events() {
        let mut s = make_stack();
        let mut fx = Vec::new();
        for _ in 0..2 {
            s.api(
                Time::ZERO,
                DownCall::Route {
                    dest: MacedonKey(9),
                    payload: Bytes::from_static(b"data"),
                    priority: -1,
                },
                &mut fx,
            );
        }
        let minted: Vec<SpanId> = fx
            .iter()
            .filter_map(|e| match e {
                StackEffect::Send { span, .. } => Some(*span),
                _ => None,
            })
            .collect();
        assert_eq!(
            minted,
            vec![SpanId::mint(NodeId(1), 1), SpanId::mint(NodeId(1), 2)]
        );
        // The Send trace event carries the same minted span.
        let traced: Vec<SpanId> = fx
            .iter()
            .filter_map(|e| match e {
                StackEffect::Trace {
                    event: TraceEvent::Send { span, .. },
                    ..
                } => Some(*span),
                _ => None,
            })
            .collect();
        assert_eq!(traced, minted);
        // And each entry produced an ApiCall event.
        assert_eq!(
            fx.iter()
                .filter(|e| matches!(
                    e,
                    StackEffect::Trace {
                        event: TraceEvent::ApiCall { call: "route" },
                        ..
                    }
                ))
                .count(),
            2
        );
    }

    #[test]
    fn dispatch_context_span_propagates_to_emitted_records() {
        let mut s = make_stack();
        let mut fx = Vec::new();
        let inbound = SpanId::mint(NodeId(7), 3);
        s.recv(
            Time::ZERO,
            NodeId(5),
            Bytes::from_static(b"hi"),
            inbound,
            &mut fx,
        );
        // Every record emitted inside this dispatch carries the inbound
        // span as causal context — including the Dispatch event itself.
        let spans: Vec<SpanId> = fx
            .iter()
            .filter_map(|e| match e {
                StackEffect::Trace { span, .. } => Some(*span),
                _ => None,
            })
            .collect();
        assert!(!spans.is_empty());
        assert!(spans.iter().all(|s| *s == inbound));
        assert!(fx.iter().any(|e| matches!(
            e,
            StackEffect::Trace {
                event: TraceEvent::Dispatch {
                    from: NodeId(5),
                    bytes: 2
                },
                ..
            }
        )));
    }

    #[test]
    fn observability_off_emits_nothing_but_still_mints_spans() {
        // Trace level Off silences every engine emission; span minting
        // is message identity and must not depend on it.
        let mut s = make_stack();
        s.set_trace_level(TraceLevel::Off);
        let mut fx = Vec::new();
        s.api(
            Time::ZERO,
            DownCall::Route {
                dest: MacedonKey(9),
                payload: Bytes::from_static(b"data"),
                priority: -1,
            },
            &mut fx,
        );
        assert!(
            fx.iter().all(|e| !matches!(e, StackEffect::Trace { .. })),
            "no trace effects at trace level Off"
        );
        assert!(matches!(
            &fx[..],
            [StackEffect::Send { span, .. }] if *span == SpanId::mint(NodeId(1), 1)
        ));
    }
}
