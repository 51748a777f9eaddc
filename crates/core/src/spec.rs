//! The engine-facing half of every spec agent, written once.
//!
//! MACEDON's translator emits a protocol's transitions and its message
//! marshaling; the engine every generated agent links against owns the
//! rest. Here that rest is one blanket [`Agent`] implementation over
//! [`SpecBody`]: the spec interpreter (`macedon_lang::interp`) and every
//! agent the code generator emits (`macedon-generated`) implement
//! `SpecBody` — a spec's facts ([`Shape`]) and its transitions — and
//! this module does everything else the same way for both:
//!
//! * arming declared-period timers, then firing `API init`;
//! * the API demultiplexer's fallbacks: a layered spec relays an
//!   unhandled call down the stack; a lowest layer serves `routeIP` as
//!   a tunnel (on the channel a valid priority names, else channel 0)
//!   and traces any other unhandled call;
//! * framing a wire `recv`: tunnel unwrap, foreign protocol, message-id
//!   range check, and the one `decode error` trace;
//! * demultiplexing `deliver` upcalls by protocol id;
//! * the `on_forward` header peek and quash;
//! * pruning `fail_detect` lists before the `error` transition fires;
//! * [`Agent::view`];
//! * one send tail, [`Port::send`], for layered and lowest-layer specs,
//!   with the FIFO of sends awaiting a forward-query verdict.

use crate::agent::{Agent, AgentState, Ctx};
use crate::api::{DownCall, ForwardInfo, ProtocolId, UpCall, TUNNEL_PROTOCOL};
use crate::key::MacedonKey;
use crate::trace::TraceLevel;
use crate::wire::{read_tunnel, tunnel_frame, DecodeError, WireRef};
use bytes::Bytes;
use macedon_net::NodeId;
use macedon_sim::Duration;
use macedon_transport::ChannelId;
use std::any::Any;
use std::collections::VecDeque;

/// A spec's static facts, as the shell reads them.
#[derive(Clone, Copy, Debug)]
pub struct Shape<'a> {
    /// The spec's protocol name: trace lines and [`AgentState::protocol`].
    pub name: &'a str,
    /// The first `u16` of every message the spec sends.
    pub proto: ProtocolId,
    /// Has a `uses` base: sends go down the stack and messages arrive
    /// as `deliver` upcalls; the wire is never touched.
    pub layered: bool,
    /// Declared transport channels (`0` for a layered spec).
    pub channels: u16,
    /// Declared messages; ids run `0..messages`.
    pub messages: u16,
    /// Declared timers; ids run `0..timers`.
    pub timers: u16,
}

/// What the shell needs from a back end: a spec's facts and its
/// transitions. Each `fire_*` method fires the first transition whose
/// state scope admits the current state, if any; one that finds none
/// does nothing.
pub trait SpecBody: Any + Send {
    /// What [`Agent::name`] reports.
    const AGENT_NAME: &'static str;

    fn shape(&self) -> Shape<'_>;

    /// Timer `timer`'s declared period, if it has one: the shell arms
    /// it before `API init` fires.
    fn period_ms(&self, _timer: u16) -> Option<u64> {
        None
    }

    /// The send tail this body's transitions transmit through.
    fn port(&mut self) -> &mut Port;

    /// The current FSM state's name.
    fn state(&self) -> &str;

    /// Every neighbor list, in declaration order.
    fn lists(&self) -> Vec<(&str, &[NodeId])>;

    /// Apply `f` to every `fail_detect` neighbor list.
    fn fail_detect(&mut self, _f: impl FnMut(&mut Vec<NodeId>)) {}

    /// Fire `API init`.
    fn fire_init(&mut self, _ctx: &mut Ctx) {}

    /// Fire the transition of `call`'s API; hands `call` back when the
    /// spec declares none for it.
    fn fire_api(&mut self, ctx: &mut Ctx, call: DownCall) -> Option<DownCall>;

    /// Decode message `id` (in range) from `r`, then fire its `recv`
    /// transition. A message without one is decoded all the same.
    fn fire_recv(
        &mut self,
        ctx: &mut Ctx,
        id: u16,
        from: NodeId,
        r: &mut WireRef<'_>,
    ) -> Result<(), DecodeError>;

    /// Fire message `id`'s `forward` transition, decoding the message
    /// only if it has one; returns the transition's quash verdict.
    fn fire_forward(
        &mut self,
        _ctx: &mut Ctx,
        _id: u16,
        _from: NodeId,
        _r: &mut WireRef<'_>,
    ) -> Result<bool, DecodeError> {
        Ok(false)
    }

    /// Fire timer `timer`'s transition (`timer` is in range).
    fn fire_timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}

    /// Fire the `error` transition for a failed peer.
    fn fire_error(&mut self, _ctx: &mut Ctx, _peer: NodeId) {}
}

/// A send's destination, as the transition evaluated it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dest {
    /// A host; `None` when the expression was `null`.
    Node(Option<NodeId>),
    /// A key (layered specs only).
    Key(MacedonKey),
}

/// How a message travels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lane {
    /// A lowest layer's message goes out on this channel.
    Wire(ChannelId),
    /// A layered spec's message goes to the base layer at this
    /// priority: the base channel its declared class maps onto, or
    /// [`crate::DEFAULT_PRIORITY`].
    Base(i8),
}

/// A layered send to `null` whose message has no key field to route
/// toward: the transition faults.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NoRoute;

/// A spec agent's send tail: where every transition's `send` ends.
#[derive(Default)]
pub struct Port {
    /// `from` of the transition firing now (`None` for `init`, API
    /// calls and timers): the previous hop a vetted send reports.
    from: Option<NodeId>,
    /// Encoded sends awaiting their forward-query verdict, FIFO (the
    /// dispatcher resolves queries in emission order).
    pending: VecDeque<(ChannelId, Bytes)>,
}

impl Port {
    /// Transmit an encoded message.
    ///
    /// * [`Lane::Base`]: a node destination is a `routeIP` downcall, a
    ///   key destination a `route`, and `null` routes toward `key`, the
    ///   message's first key field ([`NoRoute`] if it has none).
    /// * [`Lane::Wire`]: sending to `null` does nothing. A message that
    ///   carries upper-layer data (`carried`, its first non-empty payload
    ///   field) is an in-transit forwarding decision when layers sit
    ///   above: they vet it through a forward query, and it goes out in
    ///   [`Agent::forward_resolved`] unless quashed. Anything else goes
    ///   straight out.
    pub fn send(
        &mut self,
        ctx: &mut Ctx,
        lane: Lane,
        dest: Dest,
        bytes: Bytes,
        key: Option<MacedonKey>,
        carried: Option<Bytes>,
    ) -> Result<(), NoRoute> {
        let ch = match lane {
            Lane::Base(priority) => {
                let payload = bytes;
                let call = match dest {
                    Dest::Node(Some(dest)) => DownCall::RouteIp {
                        dest,
                        payload,
                        priority,
                    },
                    Dest::Key(dest) => DownCall::Route {
                        dest,
                        payload,
                        priority,
                    },
                    Dest::Node(None) => DownCall::Route {
                        dest: key.ok_or(NoRoute)?,
                        payload,
                        priority,
                    },
                };
                ctx.down(call);
                return Ok(());
            }
            Lane::Wire(ch) => ch,
        };
        let Dest::Node(dest) = dest else {
            unreachable!("a lowest layer sends to hosts")
        };
        let Some(dest) = dest else {
            return Ok(());
        };
        match carried {
            Some(payload) if !ctx.is_top_layer() => {
                self.pending.push_back((ch, bytes));
                ctx.forward_query(ForwardInfo {
                    src: ctx.my_key,
                    dest: key.unwrap_or(ctx.my_key),
                    prev_hop: self.from.unwrap_or(ctx.me),
                    next_hop: dest,
                    payload,
                    quash: false,
                });
            }
            _ => ctx.send(dest, ch, bytes),
        }
        Ok(())
    }
}

/// Ready `body`'s port for a transition triggered from `from`.
fn port_from<B: SpecBody>(body: &mut B, from: Option<NodeId>) {
    body.port().from = from;
}

/// The shell: every spec agent, interpreted or generated, is an
/// [`Agent`] through this one implementation.
impl<B: SpecBody> Agent for B {
    fn protocol_id(&self) -> ProtocolId {
        self.shape().proto
    }

    fn name(&self) -> &'static str {
        B::AGENT_NAME
    }

    fn init(&mut self, ctx: &mut Ctx) {
        let shape = self.shape();
        // A layered spec at the bottom of a stack has nobody to tunnel
        // its sends through: every message would be silently dropped.
        debug_assert!(
            !shape.layered || ctx.layer > 0,
            "'{}' has a `uses` base and must be stacked above an agent serving it",
            shape.name
        );
        for t in 0..shape.timers {
            if let Some(ms) = self.period_ms(t) {
                ctx.timer_periodic(t, Duration::from_millis(ms));
            }
        }
        port_from(self, None);
        self.fire_init(ctx);
    }

    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        port_from(self, None);
        let Some(call) = self.fire_api(ctx, call) else {
            return;
        };
        let shape = self.shape();
        if shape.layered {
            // Unhandled API calls fall through to the base layer.
            ctx.down(call);
            return;
        }
        // Lowest layer: `routeIP` is an engine service (the paper's
        // `macedon_routeIP`): the payload is tunneled straight to the
        // host, on the channel a valid priority names, else channel 0.
        match call {
            DownCall::RouteIp {
                dest,
                payload,
                priority,
            } => {
                let ch = match u16::try_from(priority) {
                    Ok(p) if p < shape.channels => ChannelId(p),
                    _ => ChannelId(0),
                };
                ctx.send(dest, ch, tunnel_frame(ctx.my_key, &payload));
            }
            other => {
                if ctx.trace_on(TraceLevel::Low) {
                    ctx.trace(
                        TraceLevel::Low,
                        format!("{}: unhandled API call {other:?}", shape.name),
                    );
                }
            }
        }
    }

    fn upcall(&mut self, ctx: &mut Ctx, up: UpCall) {
        let UpCall::Deliver { src, from, payload } = up else {
            ctx.up(up);
            return;
        };
        // Demultiplex by protocol id: a decodable message of ours fires
        // its `recv` transition; anything else continues up.
        let shape = self.shape();
        let mut r = WireRef::new(&payload);
        if let (Ok(proto), Ok(id)) = (r.u16(), r.u16()) {
            if proto == shape.proto && id < shape.messages {
                port_from(self, Some(from));
                if self.fire_recv(ctx, id, from, &mut r).is_ok() {
                    return;
                }
            }
        }
        ctx.up(UpCall::Deliver { src, from, payload });
    }

    fn on_forward(&mut self, ctx: &mut Ctx, fwd: &mut ForwardInfo) {
        // An in-transit message of ours passing through the layer
        // below: its `forward` transition may quash it.
        let shape = self.shape();
        let mut r = WireRef::new(&fwd.payload);
        let (Ok(proto), Ok(id)) = (r.u16(), r.u16()) else {
            return;
        };
        if proto != shape.proto || id >= shape.messages {
            return;
        }
        port_from(self, Some(fwd.prev_hop));
        if let Ok(true) = self.fire_forward(ctx, id, fwd.prev_hop, &mut r) {
            fwd.quash = true;
        }
    }

    fn forward_resolved(&mut self, ctx: &mut Ctx, fwd: ForwardInfo) {
        let Some((ch, bytes)) = self.port().pending.pop_front() else {
            debug_assert!(false, "forward_resolved without a pending send");
            return;
        };
        if !fwd.quash {
            // The layers above may have redirected the hop.
            ctx.send(fwd.next_hop, ch, bytes);
        }
    }

    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {
        let shape = self.shape();
        debug_assert!(!shape.layered, "layered spec agents never touch the wire");
        let mut r = WireRef::new(&msg);
        let (Ok(proto), Ok(id)) = (r.u16(), r.u16()) else {
            return;
        };
        if proto == TUNNEL_PROTOCOL {
            // Tunneled for the layers above: unwrap and deliver up.
            if let Ok((src, payload)) = read_tunnel(&mut r) {
                ctx.up(UpCall::Deliver { src, from, payload });
            }
            return;
        }
        if proto != shape.proto || id >= shape.messages {
            return;
        }
        port_from(self, Some(from));
        if let Err(e) = self.fire_recv(ctx, id, from, &mut r) {
            if ctx.trace_on(TraceLevel::Low) {
                let name = self.shape().name;
                ctx.trace(TraceLevel::Low, format!("{name}: decode error: {e}"));
            }
        }
    }

    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
        if timer < self.shape().timers {
            port_from(self, None);
            self.fire_timer(ctx, timer);
        }
    }

    fn neighbor_failed(&mut self, ctx: &mut Ctx, peer: NodeId) {
        // Engine convention: the peer leaves every fail_detect list
        // before the error transition runs.
        self.fail_detect(|l| l.retain(|&n| n != peer));
        port_from(self, Some(peer));
        self.fire_error(ctx, peer);
    }

    fn view(&self) -> Option<AgentState<'_>> {
        Some(AgentState {
            protocol: self.shape().name,
            state: self.state(),
            lists: self.lists(),
        })
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Locking, Op};
    use crate::key::Addressing;
    use crate::measure::MeasureLedger;
    use crate::trace::TraceEvent;
    use crate::wire::WireWriter;
    use macedon_sim::{SimRng, Time};

    const PROTO: ProtocolId = 0x1234;
    const ME: NodeId = NodeId(1);

    /// A two-message spec: `ping {key, payload}` has `recv` and
    /// `forward` transitions, `pong {int}` has neither. Timer 0 has a
    /// period; `peers` is a `fail_detect` list, `others` is not. Its
    /// `route` transition sends two `ping`s carrying data; `anycast`
    /// sends a `pong` to `null`; `join` is handled and does nothing.
    #[derive(Default)]
    struct Stub {
        layered: bool,
        port: Port,
        /// What fired, in order.
        log: Vec<String>,
        peers: Vec<NodeId>,
        others: Vec<NodeId>,
        quash: bool,
    }

    fn ping(key: u32, payload: &[u8]) -> Bytes {
        let mut w = WireWriter::new();
        w.u16(PROTO).u16(0).key(MacedonKey(key)).bytes(payload);
        w.finish()
    }

    fn pong() -> Bytes {
        let mut w = WireWriter::new();
        w.u16(PROTO).u16(1).u64(7);
        w.finish()
    }

    fn decode_ping(r: &mut WireRef<'_>) -> Result<String, DecodeError> {
        Ok(format!("{:?} {:?}", r.key()?, r.bytes()?))
    }

    impl SpecBody for Stub {
        const AGENT_NAME: &'static str = "stub-agent";

        fn shape(&self) -> Shape<'_> {
            Shape {
                name: "stub",
                proto: PROTO,
                layered: self.layered,
                channels: if self.layered { 0 } else { 3 },
                messages: 2,
                timers: 2,
            }
        }

        fn period_ms(&self, timer: u16) -> Option<u64> {
            (timer == 0).then_some(500)
        }

        fn port(&mut self) -> &mut Port {
            &mut self.port
        }

        fn state(&self) -> &str {
            "init"
        }

        fn lists(&self) -> Vec<(&str, &[NodeId])> {
            vec![("peers", &self.peers), ("others", &self.others)]
        }

        fn fail_detect(&mut self, mut f: impl FnMut(&mut Vec<NodeId>)) {
            f(&mut self.peers);
        }

        fn fire_init(&mut self, ctx: &mut Ctx) {
            self.log.push("init".into());
            ctx.trace(TraceLevel::Low, "init fired");
        }

        fn fire_api(&mut self, ctx: &mut Ctx, call: DownCall) -> Option<DownCall> {
            let lane = |ch| match self.layered {
                true => Lane::Base(ch as i8),
                false => Lane::Wire(ChannelId(ch)),
            };
            let (port, key) = (&mut self.port, Some(MacedonKey(40)));
            match call {
                DownCall::Join { .. } => self.log.push("join".into()),
                DownCall::Route { payload, .. } => {
                    for (n, ch) in [(5, 1), (6, 2)] {
                        let dest = Dest::Node(Some(NodeId(n)));
                        let bytes = ping(40, &payload);
                        let carried = Some(payload.clone());
                        port.send(ctx, lane(ch), dest, bytes, key, carried).unwrap();
                    }
                }
                DownCall::Anycast { .. } => {
                    let sent = port.send(ctx, lane(0), Dest::Node(None), pong(), None, None);
                    self.log.push(format!("null send: {sent:?}"));
                }
                other => return Some(other),
            }
            None
        }

        fn fire_recv(
            &mut self,
            _ctx: &mut Ctx,
            id: u16,
            from: NodeId,
            r: &mut WireRef<'_>,
        ) -> Result<(), DecodeError> {
            match id {
                0 => {
                    let m = decode_ping(r)?;
                    self.log.push(format!("recv ping {m} from {from:?}"));
                }
                _ => {
                    r.u64()?; // no recv transition
                }
            }
            Ok(())
        }

        fn fire_forward(
            &mut self,
            _ctx: &mut Ctx,
            id: u16,
            from: NodeId,
            r: &mut WireRef<'_>,
        ) -> Result<bool, DecodeError> {
            if id != 0 {
                return Ok(false);
            }
            let m = decode_ping(r)?;
            self.log.push(format!("forward ping {m} from {from:?}"));
            Ok(self.quash)
        }

        fn fire_timer(&mut self, _ctx: &mut Ctx, timer: u16) {
            self.log.push(format!("timer {timer}"));
        }

        fn fire_error(&mut self, _ctx: &mut Ctx, peer: NodeId) {
            let lists = self.lists();
            self.log.push(format!("error {peer:?} {lists:?}"));
        }
    }

    fn lowest() -> Stub {
        Stub::default()
    }

    fn layered() -> Stub {
        Stub {
            layered: true,
            ..Stub::default()
        }
    }

    /// Run `f` on layer `layer` of a `layers`-deep stack; the ops it
    /// buffered.
    fn ops_of(layer: usize, layers: usize, f: impl FnOnce(&mut Ctx)) -> Vec<Op> {
        let mut ops = VecDeque::new();
        let mut rng = SimRng::new(1);
        let measures = MeasureLedger::new();
        let mut ctx = Ctx {
            now: Time::ZERO,
            me: ME,
            my_key: MacedonKey(1),
            addressing: Addressing::Hash,
            layer,
            layers,
            rng: &mut rng,
            measures: &measures,
            ops: &mut ops,
            locking: Locking::Write,
            trace_level: TraceLevel::High,
        };
        f(&mut ctx);
        ops.into_iter().map(|(_, op)| op).collect()
    }

    fn traces(ops: &[Op]) -> Vec<&str> {
        ops.iter()
            .filter_map(|op| match op {
                Op::Trace {
                    event: TraceEvent::Custom { msg },
                    ..
                } => Some(msg.as_str()),
                _ => None,
            })
            .collect()
    }

    fn sends(ops: &[Op]) -> Vec<(NodeId, ChannelId, &Bytes)> {
        ops.iter()
            .filter_map(|op| match op {
                Op::Send {
                    dst,
                    channel,
                    bytes,
                } => Some((*dst, *channel, bytes)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn tunnel_frames_unwrap_and_go_up() {
        let mut a = lowest();
        let frame = tunnel_frame(MacedonKey(9), b"up");
        let ops = ops_of(0, 2, |ctx| a.recv(ctx, NodeId(4), frame));
        assert_eq!(ops.len(), 1);
        let Op::Up(UpCall::Deliver { src, from, payload }) = &ops[0] else {
            panic!("{ops:?}");
        };
        assert_eq!(
            (*src, *from, &payload[..]),
            (MacedonKey(9), NodeId(4), &b"up"[..])
        );
        // A truncated tunnel frame is dropped without a word.
        let short = tunnel_frame(MacedonKey(9), b"up").slice(0..7);
        assert!(ops_of(0, 2, |ctx| a.recv(ctx, NodeId(4), short)).is_empty());
        assert!(a.log.is_empty(), "no transition fired");
    }

    #[test]
    fn foreign_protocol_frames_are_dropped() {
        let mut a = lowest();
        let mut w = WireWriter::new();
        w.u16(PROTO + 1).u16(0).key(MacedonKey(3)).bytes(b"x");
        let ops = ops_of(0, 1, |ctx| a.recv(ctx, NodeId(4), w.finish()));
        assert!(ops.is_empty() && a.log.is_empty());
    }

    #[test]
    fn out_of_range_message_ids_are_dropped() {
        let mut a = lowest();
        let mut w = WireWriter::new();
        w.u16(PROTO).u16(2).u64(7);
        let ops = ops_of(0, 1, |ctx| a.recv(ctx, NodeId(4), w.finish()));
        assert!(ops.is_empty() && a.log.is_empty());
    }

    #[test]
    fn a_truncated_frame_traces_one_decode_error_with_or_without_recv() {
        for (frame, what) in [(ping(3, b"body"), "ping"), (pong(), "pong")] {
            let mut a = lowest();
            let short = frame.slice(0..frame.len() - 1);
            let ops = ops_of(0, 1, |ctx| a.recv(ctx, NodeId(4), short));
            assert_eq!(ops.len(), 1, "{what}: {ops:?}");
            let lines = traces(&ops);
            assert_eq!(lines.len(), 1, "{what}");
            assert!(
                lines[0].starts_with("stub: decode error: "),
                "{what}: {lines:?}"
            );
            assert!(a.log.is_empty(), "{what}: no transition fired");
        }
        // Whole frames decode: `ping` fires its transition, `pong` none.
        let mut a = lowest();
        for frame in [ping(3, b"body"), pong()] {
            assert!(ops_of(0, 1, |ctx| a.recv(ctx, NodeId(4), frame)).is_empty());
        }
        assert_eq!(a.log, [r#"recv ping k00000003 b"body" from NodeId(4)"#]);
    }

    #[test]
    fn deliveries_demultiplex_by_protocol_id() {
        let mut a = layered();
        let deliver = |payload| UpCall::Deliver {
            src: MacedonKey(2),
            from: NodeId(8),
            payload,
        };
        // Ours and whole: the transition fires, nothing goes up.
        assert!(ops_of(1, 3, |ctx| a.upcall(ctx, deliver(ping(3, b"")))).is_empty());
        assert_eq!(a.log.len(), 1);
        // Foreign, truncated or out of range: it continues up, untouched.
        let mut foreign = WireWriter::new();
        foreign.u16(PROTO + 1).u16(0);
        let mut far = WireWriter::new();
        far.u16(PROTO).u16(9);
        let truncated = ping(3, b"body").slice(0..9);
        for payload in [foreign.finish(), far.finish(), truncated] {
            let ops = ops_of(1, 3, |ctx| a.upcall(ctx, deliver(payload.clone())));
            let [Op::Up(UpCall::Deliver { payload: up, .. })] = &ops[..] else {
                panic!("{ops:?}");
            };
            assert_eq!(up, &payload);
        }
        assert_eq!(a.log.len(), 1);
    }

    #[test]
    fn a_forward_transition_may_quash() {
        let fwd = |payload| ForwardInfo {
            src: MacedonKey(1),
            dest: MacedonKey(2),
            prev_hop: NodeId(3),
            next_hop: NodeId(4),
            payload,
            quash: false,
        };
        for quash in [false, true] {
            let mut a = Stub { quash, ..layered() };
            let mut f = fwd(ping(5, b"in transit"));
            assert!(ops_of(1, 2, |ctx| a.on_forward(ctx, &mut f)).is_empty());
            assert_eq!(f.quash, quash);
            assert_eq!(
                a.log,
                [r#"forward ping k00000005 b"in transit" from NodeId(3)"#]
            );
        }
        // A message without a forward transition, or not ours, is left
        // alone.
        let mut a = Stub {
            quash: true,
            ..layered()
        };
        let mut foreign = WireWriter::new();
        foreign.u16(PROTO + 1).u16(0).key(MacedonKey(5)).bytes(b"");
        for payload in [pong(), foreign.finish()] {
            let mut f = fwd(payload);
            ops_of(1, 2, |ctx| a.on_forward(ctx, &mut f));
            assert!(!f.quash);
        }
        assert!(a.log.is_empty());
    }

    #[test]
    fn vetted_sends_resolve_in_emission_order() {
        let mut a = lowest();
        let route = DownCall::Route {
            dest: MacedonKey(40),
            payload: Bytes::from_static(b"data"),
            priority: -1,
        };
        // Layers above: each send waits for its forward query.
        let ops = ops_of(0, 2, |ctx| a.downcall(ctx, route.clone()));
        let queries: Vec<&ForwardInfo> = (ops.iter())
            .map(|op| match op {
                Op::ForwardQuery(f) => f,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(queries.len(), 2);
        for (q, hop) in queries.iter().zip([NodeId(5), NodeId(6)]) {
            assert_eq!((q.next_hop, q.prev_hop, q.dest), (hop, ME, MacedonKey(40)));
            assert_eq!(&q.payload[..], b"data");
        }
        // The first comes back redirected, the second quashed.
        let mut first = queries[0].clone();
        first.next_hop = NodeId(7);
        let mut second = queries[1].clone();
        second.quash = true;
        let ops = ops_of(0, 2, |ctx| {
            a.forward_resolved(ctx, first);
            a.forward_resolved(ctx, second);
        });
        assert_eq!(sends(&ops), [(NodeId(7), ChannelId(1), &ping(40, b"data"))]);
        // Nothing above: the same sends go straight out.
        let ops = ops_of(0, 1, |ctx| a.downcall(ctx, route));
        let hops: Vec<_> = sends(&ops).iter().map(|&(n, ch, _)| (n, ch)).collect();
        assert_eq!(hops, [(NodeId(5), ChannelId(1)), (NodeId(6), ChannelId(2))]);
    }

    #[test]
    fn sends_to_null_do_nothing_on_the_wire_and_route_by_key_when_layered() {
        let anycast = DownCall::Anycast {
            group: MacedonKey(2),
            payload: Bytes::new(),
            priority: -1,
        };
        let mut a = lowest();
        assert!(ops_of(0, 1, |ctx| a.downcall(ctx, anycast.clone())).is_empty());
        assert_eq!(a.log, ["null send: Ok(())"]);
        // A layered send to null with no key field to route toward
        // faults; one with a key routes toward it.
        let mut a = layered();
        assert!(ops_of(1, 2, |ctx| a.downcall(ctx, anycast)).is_empty());
        assert_eq!(a.log, ["null send: Err(NoRoute)"]);
        let ops = ops_of(1, 2, |ctx| {
            let key = Some(MacedonKey(6));
            let sent = a
                .port
                .send(ctx, Lane::Base(1), Dest::Node(None), pong(), key, None);
            assert_eq!(sent, Ok(()));
        });
        let [Op::Down(DownCall::Route { dest, priority, .. })] = &ops[..] else {
            panic!("{ops:?}");
        };
        assert_eq!((*dest, *priority), (MacedonKey(6), 1));
    }

    #[test]
    fn the_route_ip_tunnel_clamps_the_priority_to_a_channel() {
        // The stub declares three channels and no `routeIP` transition.
        let mut a = lowest();
        let payload = Bytes::from_static(b"tunneled");
        let tunneled = tunnel_frame(MacedonKey(1), &payload);
        for (priority, ch) in [(-1, 0), (0, 0), (1, 1), (2, 2), (3, 0), (i8::MAX, 0)] {
            let call = DownCall::RouteIp {
                dest: NodeId(9),
                payload: payload.clone(),
                priority,
            };
            let ops = ops_of(0, 2, |ctx| a.downcall(ctx, call));
            let want = [(NodeId(9), ChannelId(ch), &tunneled)];
            assert_eq!(sends(&ops), want, "priority {priority}");
        }
        assert!(a.log.is_empty());
    }

    #[test]
    fn unhandled_api_calls_relay_when_layered_and_trace_when_lowest() {
        let leave = DownCall::Leave {
            group: MacedonKey(3),
        };
        let mut a = layered();
        let ops = ops_of(1, 2, |ctx| a.downcall(ctx, leave.clone()));
        assert!(
            matches!(&ops[..], [Op::Down(DownCall::Leave { .. })]),
            "{ops:?}"
        );
        let mut a = lowest();
        let ops = ops_of(0, 1, |ctx| a.downcall(ctx, leave.clone()));
        assert_eq!(
            traces(&ops),
            ["stub: unhandled API call Leave { group: k00000003 }"]
        );
        assert_eq!(ops.len(), 1);
        // A handled call falls back to nothing, on either.
        let join = DownCall::Join {
            group: MacedonKey(3),
        };
        for (mut a, layer) in [(layered(), 1), (lowest(), 0)] {
            assert!(ops_of(layer, 2, |ctx| a.downcall(ctx, join.clone())).is_empty());
            assert_eq!(a.log, ["join"]);
        }
    }

    #[test]
    fn fail_detect_lists_are_pruned_before_error_fires() {
        let mut a = Stub {
            peers: vec![NodeId(2), NodeId(3)],
            others: vec![NodeId(2)],
            ..lowest()
        };
        ops_of(0, 1, |ctx| a.neighbor_failed(ctx, NodeId(2)));
        assert_eq!(
            a.log,
            [r#"error NodeId(2) [("peers", [NodeId(3)]), ("others", [NodeId(2)])]"#]
        );
    }

    #[test]
    fn init_arms_declared_periods_then_fires() {
        let mut a = lowest();
        let ops = ops_of(0, 1, |ctx| a.init(ctx));
        assert!(
            matches!(
                &ops[..],
                [
                    Op::TimerSet {
                        timer: 0,
                        periodic: true,
                        ..
                    },
                    Op::Trace { .. }
                ]
            ),
            "{ops:?}"
        );
        assert_eq!(a.log, ["init"]);
        // Timers out of range fire nothing.
        ops_of(0, 1, |ctx| {
            a.timer(ctx, 1);
            a.timer(ctx, 2);
        });
        assert_eq!(a.log, ["init", "timer 1"]);
    }

    #[test]
    fn view_and_name_come_from_the_body() {
        let a = Stub {
            peers: vec![NodeId(4)],
            ..lowest()
        };
        let view = a.view().unwrap();
        assert_eq!((view.protocol, view.state), ("stub", "init"));
        assert_eq!(view.list("peers"), Some(&[NodeId(4)][..]));
        assert_eq!((a.name(), a.protocol_id()), ("stub-agent", PROTO));
    }
}
