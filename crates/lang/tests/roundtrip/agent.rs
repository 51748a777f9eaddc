//! `Roundtrip` — generated by macedon-lang from `roundtrip.mac`. **Do not edit**:
//! regenerate with `UPDATE_GOLDEN=1 cargo test -p macedon-lang --test
//! golden` (CI rejects drift between this file and the spec).
//!
//! Behaviorally identical to interpreting the spec: same RNG draws,
//! byte-identical wire messages, same engine op order.
#![allow(
    dead_code,
    unused_variables,
    unused_mut,
    unused_imports,
    unused_parens,
    unreachable_patterns
)]
// Generated code favors a 1:1 mapping onto the interpreter's semantics
// over idiomatic style; neither clippy's style lints nor rustfmt apply.
#![allow(clippy::all)]
#[rustfmt::skip]
mod generated {

use macedon_core::{
    Bytes, ChannelId, Ctx, DecodeError, DownCall, Duration, MacedonKey, NodeId,
    ProtocolId, TraceLevel, UpCall, WireRef, WireWriter, DEFAULT_PRIORITY,
};
use macedon_core::key;
use macedon_core::spec::{Dest, Lane, Port, Shape, SpecBody};

/// Well-known protocol id of `roundtrip` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 35178;
const MSG_HELLO: u16 = 0;
const MSG_PROBE: u16 = 1;
// Each message's priority at the base layer: its declared class
// resolved against the base (tunneling) layer's channel table at
// generation time; -1 = default (tunnel channel 0).
const LANE_HELLO: Lane = Lane::Base(-1);
const LANE_PROBE: Lane = Lane::Base(-1);
const TIMER_TICK: u16 = 0;
const TIMER_RETRY: u16 = 1;
const RETRY_MS: i64 = 250;
const FANOUT: i64 = 3;
const FLIP: i64 = -1;

/// FSM states of `roundtrip` (`init` is implicit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoundtripState {
    Init,
    Joined,
}

impl RoundtripState {
    /// The state's name in the spec.
    pub fn name(self) -> &'static str {
        match self {
            RoundtripState::Init => "init",
            RoundtripState::Joined => "joined",
        }
    }
}

/// Decoded fields of `hello`.
pub struct MsgHello {
    pub who: Option<NodeId>,
    pub fresh: bool,
    pub round: i64,
    pub target: MacedonKey,
    pub body: Bytes,
    pub peers: Vec<NodeId>,
}

fn dec_hello(r: &mut WireRef) -> Result<MsgHello, DecodeError> {
    Ok(MsgHello {
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
        fresh: (r.u8()? != 0),
        round: (r.u64()? as i64),
        target: r.key()?,
        body: r.bytes()?,
        peers: r.nodes()?,
    })
}

/// Decoded fields of `probe`.
pub struct MsgProbe {
    pub to: MacedonKey,
    pub via: Option<NodeId>,
}

fn dec_probe(r: &mut WireRef) -> Result<MsgProbe, DecodeError> {
    Ok(MsgProbe {
        to: r.key()?,
        via: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// The `roundtrip` protocol agent, one FSM instance per node.
pub struct Roundtrip {
    state: RoundtripState,
    bootstrap: Option<NodeId>,
    __port: Port,
    /// Transitions fired (observability / tests).
    pub transitions_fired: u64,
    kids: Vec<NodeId>,
    backup: Vec<NodeId>,
    n: i64,
    flag: bool,
    cand: Option<NodeId>,
    last: MacedonKey,
    kept: Bytes,
}

impl Roundtrip {
    /// Instantiate one stack layer; `bootstrap` is the rendezvous
    /// node handed to every layer (`None` for the designated root).
    pub fn new(bootstrap: Option<NodeId>) -> Roundtrip {
        Roundtrip {
            state: RoundtripState::Init,
            bootstrap,
            __port: Port::default(),
            transitions_fired: 0,
            kids: Vec::new(),
            backup: Vec::new(),
            n: 0,
            flag: false,
            cand: None,
            last: MacedonKey(0),
            kept: Bytes::new(),
        }
    }

    #[inline(never)]
    fn t_api_init(&mut self, ctx: &mut Ctx) {
        if self.state == RoundtripState::Init {
            self.transitions_fired += 1;
            self.flag = true;
            self.n = (self.flag as i64);
            ctx.trace(TraceLevel::Med, format!("roundtrip: trace Bool({:?})", true));
            ctx.trace(TraceLevel::Med, format!("roundtrip: trace Int({:?})", self.n));
            ctx.trace(TraceLevel::Med, format!("roundtrip: trace Bool({:?})", self.flag));
            ctx.trace(TraceLevel::Med, format!("roundtrip: trace Key({:?})", ctx.my_key));
            ctx.trace(TraceLevel::Med, format!("roundtrip: trace {}", (self.cand).map_or(String::from("Null"), |__n| format!("Node({:?})", __n))));
            ctx.trace(TraceLevel::Med, "roundtrip: trace Null");
            ctx.trace(TraceLevel::Med, format!("roundtrip: trace List({:?})", self.kids));
            ctx.trace(TraceLevel::Med, format!("roundtrip: trace Bool({:?})", (self.kids == self.backup)));
            ctx.trace(TraceLevel::Med, format!("roundtrip: trace Bool({:?})", { let _ = (&self.kids, &FANOUT); false }));
            ctx.timer_set(TIMER_RETRY, Duration::from_millis((RETRY_MS).max(0) as u64));
            ctx.trace_fsm(self.state.name(), "joined");
            self.state = RoundtripState::Joined;
            return;
        }
    }

    #[inline(never)]
    fn t_api_route(&mut self, ctx: &mut Ctx, dest: MacedonKey, payload: Bytes) {
        if self.state == RoundtripState::Joined {
            self.transitions_fired += 1;
            self.kept = payload.clone();
            self.last = dest;
            if (!(payload.clone()).is_empty()) {
                ctx.trace(TraceLevel::Med, format!("roundtrip: trace Bytes({:?})", self.kept.clone()));
            }
            ctx.trace(TraceLevel::Med, format!("roundtrip: trace Bool({:?})", (self.kept.clone() == payload.clone())));
            ctx.trace(TraceLevel::Med, format!("roundtrip: trace Bool({:?})", { let _ = payload.clone(); false }));
            {
                let __dest = dest;
                let __a0 = Some(ctx.me);
                let __a1 = true;
                let __a2 = self.n.wrapping_add((1i64));
                let __a3 = key::dsl_key_add(ctx.my_key, FANOUT);
                let __a4 = payload.clone();
                let __a5 = &self.kids;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_HELLO);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                __w.u8((__a1) as u8);
                __w.u64(__a2 as u64);
                __w.key(__a3);
                __w.bytes(&__a4);
                __w.nodes(__a5);
                if self.__port.send(ctx, LANE_HELLO, Dest::Key(__dest), __w.finish(), Some(__a3), None).is_err() { ctx.trace(TraceLevel::Low, "roundtrip: runtime error: null where a value is required"); return; }
            }
            {
                let __d = dest;
                let __pl = self.kept.clone();
                ctx.down(DownCall::Route { dest: __d, payload: __pl, priority: DEFAULT_PRIORITY });
            }
            return;
        }
    }

    #[inline(never)]
    fn t_api_routeip(&mut self, ctx: &mut Ctx, dest: NodeId, payload: Bytes) {
        self.transitions_fired += 1;
        self.cand = Some(dest);
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace {}", (Some(dest)).map_or(String::from("Null"), |__n| format!("Node({:?})", __n))));
        {
            let Some(__d) = Some(dest) else { ctx.trace(TraceLevel::Low, "roundtrip: runtime error: null where a value is required"); return; };
            let __pl = payload.clone();
            ctx.down(DownCall::RouteIp { dest: __d, payload: __pl, priority: DEFAULT_PRIORITY });
        }
        {
            let __dest = Some(dest);
            let __a0 = ctx.my_key;
            let __a1 = Some(ctx.me);
            let mut __w = WireWriter::new();
            __w.u16(PROTOCOL_ID).u16(MSG_PROBE);
            __w.key(__a0);
            __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
            if self.__port.send(ctx, LANE_PROBE, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "roundtrip: runtime error: null where a value is required"); return; }
        }
        {
            let __dest = None::<NodeId>;
            let __a0 = self.last;
            let __a1 = self.cand;
            let mut __w = WireWriter::new();
            __w.u16(PROTOCOL_ID).u16(MSG_PROBE);
            __w.key(__a0);
            __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
            if self.__port.send(ctx, LANE_PROBE, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "roundtrip: runtime error: null where a value is required"); return; }
        }
    }

    #[inline(never)]
    fn t_api_multicast(&mut self, ctx: &mut Ctx, group: MacedonKey, payload: Bytes) {
        self.transitions_fired += 1;
        {
            let __g = group;
            let __pl = payload.clone();
            ctx.down(DownCall::Anycast { group: __g, payload: __pl, priority: DEFAULT_PRIORITY });
        }
        {
            let __g = group;
            let __pl = payload.clone();
            ctx.down(DownCall::Collect { group: __g, payload: __pl, priority: DEFAULT_PRIORITY });
        }
    }

    #[inline(never)]
    fn t_api_join(&mut self, ctx: &mut Ctx, group: MacedonKey) {
        self.transitions_fired += 1;
        {
            let __g = group;
            ctx.down(DownCall::CreateGroup { group: __g });
        }
        {
            let Some(__kn) = Some(ctx.me) else { ctx.trace(TraceLevel::Low, "roundtrip: runtime error: null where a value is required"); return; };
            let __g = MacedonKey(__kn.0);
            ctx.down(DownCall::Leave { group: __g });
        }
    }

    #[inline(never)]
    fn t_api_leave(&mut self, ctx: &mut Ctx, group: MacedonKey) {
        self.transitions_fired += 1;
        {
            let Some(__kn) = Some(ctx.me) else { ctx.trace(TraceLevel::Low, "roundtrip: runtime error: null where a value is required"); return; };
            let __src = MacedonKey(__kn.0);
            let __pl = self.kept.clone();
            ctx.up(UpCall::Deliver { src: __src, from: ctx.me, payload: __pl });
        }
        {
            let __src = group;
            let __pl = Bytes::new();
            ctx.up(UpCall::Deliver { src: __src, from: ctx.me, payload: __pl });
        }
    }

    #[inline(never)]
    fn t_recv_hello(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgHello) {
        self.transitions_fired += 1;
        if let Some(__n) = m.who {
            if !self.kids.contains(&__n) && self.kids.len() < 4usize {
                self.kids.push(__n);
                ctx.monitor(__n);
            }
        } else { ctx.trace(TraceLevel::Low, "roundtrip: runtime error: null where a value is required"); return; }
        if (m.fresh | (self.n != 0)) {
            self.n = self.n.wrapping_add(m.round);
        }
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace List({:?})", m.peers));
        {
            let mut __ns: Vec<NodeId> = m.peers.clone();
            __ns.retain(|&__n| __n != ctx.me);
            __ns.truncate(4usize);
            self.backup = __ns;
        }
        for fe_k in self.backup.clone() {
            if (self.cand).is_some() {
                if let Some(__n) = Some(fe_k) {
                    ctx.monitor(__n);
                } else { ctx.trace(TraceLevel::Low, "roundtrip: runtime error: null where a value is required"); return; }
            }
        }
        self.last = m.target;
        {
            let __src = m.target;
            let __pl = m.body.clone();
            ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
        }
        if (match (ctx.my_key, Some(from)) { (__k, Some(__n)) => __n.0 == __k.0, _ => false }) {
            ctx.trace(TraceLevel::Med, format!("roundtrip: trace {}", (Some(from)).map_or(String::from("Null"), |__n| format!("Node({:?})", __n))));
        }
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace Int({:?})", key::dsl_digit(Some(ctx.my_key), (0i64), (16i64)).wrapping_add(self.n.wrapping_neg())));
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace Int({:?})", key::dsl_ring_dist(Some(MacedonKey((self.n) as u32)), Some(ctx.my_key)).wrapping_add(key::dsl_ring_dist(None::<MacedonKey>, Some(ctx.my_key)))));
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace Int({:?})", ((Some(from)).map_or(0i64, |__p| ctx.rtt_ms(__p)))));
        self.cand = (if self.kids.is_empty() { None } else { Some(self.kids[ctx.rng.index(self.kids.len())]) });
        {
            let __dest = self.cand;
            let __a0 = m.target;
            let __a1 = self.cand;
            let mut __w = WireWriter::new();
            __w.u16(PROTOCOL_ID).u16(MSG_PROBE);
            __w.key(__a0);
            __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
            if self.__port.send(ctx, LANE_PROBE, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "roundtrip: runtime error: null where a value is required"); return; }
        }
    }

    #[inline(never)]
    fn t_fwd_hello(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgHello) -> bool {
        let mut quash = false;
        self.transitions_fired += 1;
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace Int({:?})", m.round.wrapping_add(FANOUT)));
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace Int({:?})", m.round.wrapping_sub(FANOUT)));
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace Int({:?})", m.round.wrapping_mul(FANOUT)));
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace Int({:?})", m.round.wrapping_div(FLIP)));
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace Int({:?})", m.round.wrapping_rem(FLIP)));
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace Int({:?})", m.round.wrapping_neg()));
        if (m.round > (5i64)) {
            quash = true;
        }
        quash
    }

    #[inline(never)]
    fn t_recv_probe(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgProbe) {
        if self.state == RoundtripState::Joined {
            self.transitions_fired += 1;
            {
                let mut __ns: Vec<NodeId> = self.kids.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(4usize);
                self.backup = __ns;
            }
            if let Some(__n) = m.via {
                self.kids.retain(|&__x| __x != __n);
                ctx.unmonitor(__n);
            } else { ctx.trace(TraceLevel::Low, "roundtrip: runtime error: null where a value is required"); return; }
            if let Some(__n) = m.via {
                ctx.unmonitor(__n);
            } else { ctx.trace(TraceLevel::Low, "roundtrip: runtime error: null where a value is required"); return; }
            self.flag = (self.flag == (self.n > (2i64)));
            if { let _ = &ctx.my_key; true } {
                self.n = self.n.wrapping_div(FANOUT);
            }
            return;
        }
    }

    #[inline(never)]
    fn t_timer_tick(&mut self, ctx: &mut Ctx) {
        self.transitions_fired += 1;
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace Int({:?})", self.n));
        self.cand = (if self.kids.is_empty() { None } else { Some(self.kids[ctx.rng.index(self.kids.len())]) });
    }

    #[inline(never)]
    fn t_timer_retry(&mut self, ctx: &mut Ctx) {
        self.transitions_fired += 1;
        ctx.timer_set(TIMER_RETRY, Duration::from_millis((RETRY_MS.wrapping_mul((2i64))).max(0) as u64));
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace Bool({:?})", key::dsl_ring_between(Some(ctx.my_key), Some(self.last), (self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)))));
    }

    #[inline(never)]
    fn t_error(&mut self, ctx: &mut Ctx, from: NodeId) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.kids.retain(|&__x| __x != __n);
            ctx.unmonitor(__n);
        } else { ctx.trace(TraceLevel::Low, "roundtrip: runtime error: null where a value is required"); return; }
        ctx.trace(TraceLevel::Med, format!("roundtrip: trace {}", (Some(from)).map_or(String::from("Null"), |__n| format!("Node({:?})", __n))));
    }

}

impl SpecBody for Roundtrip {
    const AGENT_NAME: &'static str = "roundtrip";

    fn shape(&self) -> Shape<'_> {
        Shape { name: "roundtrip", proto: PROTOCOL_ID, layered: true, channels: 0, messages: 2, timers: 2 }
    }

    fn period_ms(&self, timer: u16) -> Option<u64> {
        match timer {
            TIMER_TICK => Some(1000),
            _ => None,
        }
    }

    fn port(&mut self) -> &mut Port {
        &mut self.__port
    }

    fn state(&self) -> &str {
        self.state.name()
    }

    fn lists(&self) -> Vec<(&str, &[NodeId])> {
        vec![("kids", self.kids.as_slice()), ("backup", self.backup.as_slice())]
    }

    fn fail_detect(&mut self, mut f: impl FnMut(&mut Vec<NodeId>)) {
        f(&mut self.kids);
    }

    fn fire_init(&mut self, ctx: &mut Ctx) {
        self.t_api_init(ctx);
    }

    fn fire_api(&mut self, ctx: &mut Ctx, call: DownCall) -> Option<DownCall> {
        match call {
            DownCall::Route { dest, payload, .. } => self.t_api_route(ctx, dest, payload),
            DownCall::RouteIp { dest, payload, .. } => self.t_api_routeip(ctx, dest, payload),
            DownCall::Multicast { group, payload, .. } => self.t_api_multicast(ctx, group, payload),
            DownCall::Join { group } => self.t_api_join(ctx, group),
            DownCall::Leave { group } => self.t_api_leave(ctx, group),
            __other => return Some(__other),
        }
        None
    }

    fn fire_recv(&mut self, ctx: &mut Ctx, id: u16, from: NodeId, r: &mut WireRef) -> Result<(), DecodeError> {
        match id {
            MSG_HELLO => self.t_recv_hello(ctx, from, &dec_hello(r)?),
            MSG_PROBE => self.t_recv_probe(ctx, from, &dec_probe(r)?),
            _ => {},
        }
        Ok(())
    }

    fn fire_forward(&mut self, ctx: &mut Ctx, id: u16, from: NodeId, r: &mut WireRef) -> Result<bool, DecodeError> {
        match id {
            MSG_HELLO => Ok(self.t_fwd_hello(ctx, from, &dec_hello(r)?)),
            _ => Ok(false),
        }
    }

    fn fire_timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_TICK => self.t_timer_tick(ctx),
            TIMER_RETRY => self.t_timer_retry(ctx),
            _ => {},
        }
    }

    fn fire_error(&mut self, ctx: &mut Ctx, peer: NodeId) {
        self.t_error(ctx, peer);
    }
}

}

pub use generated::*;
