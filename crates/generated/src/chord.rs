//! `Chord` — generated by macedon-lang from `chord.mac`. **Do not edit**:
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

/// Well-known protocol id of `chord` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 2963;
const MSG_FIND_SUCC: u16 = 0;
const MSG_FOUND_SUCC: u16 = 1;
const MSG_GET_PRED: u16 = 2;
const MSG_PRED_IS: u16 = 3;
const MSG_NOTIFY: u16 = 4;
const MSG_PING: u16 = 5;
const MSG_PONG: u16 = 6;
const MSG_ROUTE_DATA: u16 = 7;
const LANE_FIND_SUCC: Lane = Lane::Wire(ChannelId(0));
const LANE_FOUND_SUCC: Lane = Lane::Wire(ChannelId(0));
const LANE_GET_PRED: Lane = Lane::Wire(ChannelId(0));
const LANE_PRED_IS: Lane = Lane::Wire(ChannelId(0));
const LANE_NOTIFY: Lane = Lane::Wire(ChannelId(0));
const LANE_PING: Lane = Lane::Wire(ChannelId(1));
const LANE_PONG: Lane = Lane::Wire(ChannelId(1));
const LANE_ROUTE_DATA: Lane = Lane::Wire(ChannelId(1));
const TIMER_STABILIZE: u16 = 0;
const TIMER_FIX_FINGERS: u16 = 1;
const TIMER_CHECK_PRED: u16 = 2;
const TIMER_RETRY_JOIN: u16 = 3;
const STABILIZE_MS: i64 = 1000;
const FIX_FINGERS_MS: i64 = 1000;
const CHECK_PRED_MS: i64 = 8000;
const RETRY_MS: i64 = 5000;
const NFINGERS: i64 = 32;
const NSUCC: i64 = 4;
const FINGER_MAX: i64 = 2147483648;
const FF_MIN_MS: i64 = 0;
const FF_MAX_MS: i64 = 0;

/// FSM states of `chord` (`init` is implicit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChordState {
    Init,
    Joining,
    Joined,
}

impl ChordState {
    /// The state's name in the spec.
    pub fn name(self) -> &'static str {
        match self {
            ChordState::Init => "init",
            ChordState::Joining => "joining",
            ChordState::Joined => "joined",
        }
    }
}

/// Decoded fields of `find_succ`.
pub struct MsgFindSucc {
    pub target: MacedonKey,
    pub origin: Option<NodeId>,
    pub hop: i64,
}

fn dec_find_succ(r: &mut WireRef) -> Result<MsgFindSucc, DecodeError> {
    Ok(MsgFindSucc {
        target: r.key()?,
        origin: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
        hop: (r.u64()? as i64),
    })
}

/// Decoded fields of `found_succ`.
pub struct MsgFoundSucc {
    pub target: MacedonKey,
    pub succ: Option<NodeId>,
}

fn dec_found_succ(r: &mut WireRef) -> Result<MsgFoundSucc, DecodeError> {
    Ok(MsgFoundSucc {
        target: r.key()?,
        succ: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `get_pred`.
pub struct MsgGetPred {
}

fn dec_get_pred(r: &mut WireRef) -> Result<MsgGetPred, DecodeError> {
    Ok(MsgGetPred {
    })
}

/// Decoded fields of `pred_is`.
pub struct MsgPredIs {
    pub pred: Option<NodeId>,
    pub succs: Vec<NodeId>,
}

fn dec_pred_is(r: &mut WireRef) -> Result<MsgPredIs, DecodeError> {
    Ok(MsgPredIs {
        pred: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
        succs: r.nodes()?,
    })
}

/// Decoded fields of `notify`.
pub struct MsgNotify {
    pub who: Option<NodeId>,
}

fn dec_notify(r: &mut WireRef) -> Result<MsgNotify, DecodeError> {
    Ok(MsgNotify {
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `ping`.
pub struct MsgPing {
}

fn dec_ping(r: &mut WireRef) -> Result<MsgPing, DecodeError> {
    Ok(MsgPing {
    })
}

/// Decoded fields of `pong`.
pub struct MsgPong {
}

fn dec_pong(r: &mut WireRef) -> Result<MsgPong, DecodeError> {
    Ok(MsgPong {
    })
}

/// Decoded fields of `route_data`.
pub struct MsgRouteData {
    pub dst: MacedonKey,
    pub origin: Option<NodeId>,
    pub hop: i64,
    pub body: Bytes,
}

fn dec_route_data(r: &mut WireRef) -> Result<MsgRouteData, DecodeError> {
    Ok(MsgRouteData {
        dst: r.key()?,
        origin: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
        hop: (r.u64()? as i64),
        body: r.bytes()?,
    })
}

/// The `chord` protocol agent, one FSM instance per node.
pub struct Chord {
    state: ChordState,
    bootstrap: Option<NodeId>,
    __port: Port,
    /// Transitions fired (observability / tests).
    pub transitions_fired: u64,
    succs: Vec<NodeId>,
    pred: Vec<NodeId>,
    fingers: Vec<NodeId>,
    finger_step: i64,
    ff_period: i64,
    ff_changed: i64,
    lookups: i64,
    finger_target: MacedonKey,
    cand: Option<NodeId>,
    pfirst: Option<NodeId>,
    worst: Option<NodeId>,
}

impl Chord {
    /// Instantiate one stack layer; `bootstrap` is the rendezvous
    /// node handed to every layer (`None` for the designated root).
    pub fn new(bootstrap: Option<NodeId>) -> Chord {
        Chord {
            state: ChordState::Init,
            bootstrap,
            __port: Port::default(),
            transitions_fired: 0,
            succs: Vec::new(),
            pred: Vec::new(),
            fingers: Vec::new(),
            finger_step: 0,
            ff_period: 0,
            ff_changed: 0,
            lookups: 0,
            finger_target: MacedonKey(0),
            cand: None,
            pfirst: None,
            worst: None,
        }
    }

    #[inline(never)]
    fn t_api_init(&mut self, ctx: &mut Ctx) {
        if self.state == ChordState::Init {
            self.transitions_fired += 1;
            self.lookups = (0i64);
            self.finger_step = (1i64);
            self.ff_period = FIX_FINGERS_MS;
            self.ff_changed = (0i64);
            if (self.bootstrap).is_none() {
                ctx.trace_fsm(self.state.name(), "joined");
                self.state = ChordState::Joined;
                ctx.timer_set(TIMER_STABILIZE, Duration::from_millis((STABILIZE_MS).max(0) as u64));
                ctx.timer_set(TIMER_FIX_FINGERS, Duration::from_millis((FIX_FINGERS_MS).max(0) as u64));
                ctx.timer_set(TIMER_CHECK_PRED, Duration::from_millis((CHECK_PRED_MS).max(0) as u64));
            } else {
                {
                    let __dest = self.bootstrap;
                    let __a0 = ctx.my_key;
                    let __a1 = Some(ctx.me);
                    let __a2 = (0i64);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_FIND_SUCC);
                    __w.key(__a0);
                    __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                    __w.u64(__a2 as u64);
                    if self.__port.send(ctx, LANE_FIND_SUCC, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                }
                ctx.trace_fsm(self.state.name(), "joining");
                self.state = ChordState::Joining;
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
            return;
        }
    }

    #[inline(never)]
    fn t_api_route(&mut self, ctx: &mut Ctx, dest: MacedonKey, payload: Bytes) {
        if self.state == ChordState::Joined {
            self.transitions_fired += 1;
            self.lookups = self.lookups.wrapping_add((1i64));
            self.pfirst = None::<NodeId>;
            for fe_p in self.pred.clone() {
                self.pfirst = Some(fe_p);
            }
            if key::dsl_ring_between(Some(dest), (self.pfirst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) {
                {
                    let __src = dest;
                    let __pl = payload.clone();
                    ctx.up(UpCall::Deliver { src: __src, from: ctx.me, payload: __pl });
                }
                return;
            }
            self.cand = key::dsl_owner_of(Some(ctx.my_key), &self.succs, ctx.addressing);
            if (self.cand).is_none() {
                {
                    let __src = dest;
                    let __pl = payload.clone();
                    ctx.up(UpCall::Deliver { src: __src, from: ctx.me, payload: __pl });
                }
                return;
            }
            if (!key::dsl_ring_between(Some(dest), Some(ctx.my_key), (self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)))) {
                for fe_f in self.fingers.clone() {
                    if key::dsl_ring_between((Some(fe_f)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), Some(dest)) {
                        if key::dsl_ring_between((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), (Some(fe_f)).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                            self.cand = Some(fe_f);
                        }
                    }
                }
                for fe_s in self.succs.clone() {
                    if key::dsl_ring_between((Some(fe_s)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), Some(dest)) {
                        if key::dsl_ring_between((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), (Some(fe_s)).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                            self.cand = Some(fe_s);
                        }
                    }
                }
            }
            {
                let __dest = self.cand;
                let __a0 = dest;
                let __a1 = Some(ctx.me);
                let __a2 = (0i64);
                let __a3 = payload.clone();
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_ROUTE_DATA);
                __w.key(__a0);
                __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                __w.u64(__a2 as u64);
                __w.bytes(&__a3);
                if self.__port.send(ctx, LANE_ROUTE_DATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a3.is_empty() { Some(__a3.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_find_succ(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgFindSucc) {
        if self.state == ChordState::Joined {
            self.transitions_fired += 1;
            self.pfirst = None::<NodeId>;
            for fe_p in self.pred.clone() {
                self.pfirst = Some(fe_p);
            }
            if (self.pfirst == m.origin) {
                self.pfirst = None::<NodeId>;
            }
            if key::dsl_ring_between(Some(m.target), (self.pfirst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) {
                {
                    let __dest = m.origin;
                    let __a0 = m.target;
                    let __a1 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_FOUND_SUCC);
                    __w.key(__a0);
                    __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_FOUND_SUCC, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                }
                return;
            }
            self.cand = None::<NodeId>;
            for fe_s in self.succs.clone() {
                if (!(Some(fe_s) == m.origin)) {
                    if (self.cand).is_none() {
                        self.cand = Some(fe_s);
                    } else {
                        if key::dsl_ring_between((Some(fe_s)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), (self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                            self.cand = Some(fe_s);
                        }
                    }
                }
            }
            if (self.cand).is_none() {
                {
                    let __dest = m.origin;
                    let __a0 = m.target;
                    let __a1 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_FOUND_SUCC);
                    __w.key(__a0);
                    __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_FOUND_SUCC, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                }
                return;
            }
            if key::dsl_ring_between(Some(m.target), Some(ctx.my_key), (self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                {
                    let __dest = m.origin;
                    let __a0 = m.target;
                    let __a1 = self.cand;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_FOUND_SUCC);
                    __w.key(__a0);
                    __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_FOUND_SUCC, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                }
                return;
            }
            if (m.hop >= NFINGERS) {
                {
                    let __dest = m.origin;
                    let __a0 = m.target;
                    let __a1 = self.cand;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_FOUND_SUCC);
                    __w.key(__a0);
                    __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_FOUND_SUCC, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                }
                return;
            }
            for fe_f in self.fingers.clone() {
                if (!(Some(fe_f) == m.origin)) {
                    if key::dsl_ring_between((Some(fe_f)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), Some(m.target)) {
                        if key::dsl_ring_between((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), (Some(fe_f)).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                            self.cand = Some(fe_f);
                        }
                    }
                }
            }
            for fe_s in self.succs.clone() {
                if (!(Some(fe_s) == m.origin)) {
                    if key::dsl_ring_between((Some(fe_s)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), Some(m.target)) {
                        if key::dsl_ring_between((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), (Some(fe_s)).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                            self.cand = Some(fe_s);
                        }
                    }
                }
            }
            {
                let __dest = self.cand;
                let __a0 = m.target;
                let __a1 = m.origin;
                let __a2 = m.hop.wrapping_add((1i64));
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_FIND_SUCC);
                __w.key(__a0);
                __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                __w.u64(__a2 as u64);
                if self.__port.send(ctx, LANE_FIND_SUCC, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
            }
            return;
        }
        if self.state == ChordState::Joining {
            self.transitions_fired += 1;
            if (!(self.bootstrap).is_none()) {
                {
                    let __dest = self.bootstrap;
                    let __a0 = m.target;
                    let __a1 = m.origin;
                    let __a2 = m.hop.wrapping_add((1i64));
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_FIND_SUCC);
                    __w.key(__a0);
                    __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                    __w.u64(__a2 as u64);
                    if self.__port.send(ctx, LANE_FIND_SUCC, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_found_succ(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgFoundSucc) {
        if self.state == ChordState::Joining {
            self.transitions_fired += 1;
            if (m.succ == Some(ctx.me)) {
                return;
            }
            if let Some(__n) = m.succ {
                if !self.succs.contains(&__n) && self.succs.len() < 4usize {
                    self.succs.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
            ctx.timer_cancel(TIMER_RETRY_JOIN);
            ctx.trace_fsm(self.state.name(), "joined");
            self.state = ChordState::Joined;
            ctx.timer_set(TIMER_STABILIZE, Duration::from_millis((STABILIZE_MS).max(0) as u64));
            ctx.timer_set(TIMER_FIX_FINGERS, Duration::from_millis((FIX_FINGERS_MS).max(0) as u64));
            ctx.timer_set(TIMER_CHECK_PRED, Duration::from_millis((CHECK_PRED_MS).max(0) as u64));
            {
                let __dest = m.succ;
                let __a0 = Some(ctx.me);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_NOTIFY);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                if self.__port.send(ctx, LANE_NOTIFY, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
            }
            return;
        }
        if self.state == ChordState::Joined {
            self.transitions_fired += 1;
            if (!(m.succ == Some(ctx.me))) {
                if (!(m.succ).map_or(false, |__q| self.fingers.contains(&__q))) {
                    self.ff_changed = (1i64);
                }
                if let Some(__n) = m.succ {
                    if !self.fingers.contains(&__n) && self.fingers.len() < 32usize {
                        self.fingers.push(__n);
                        ctx.monitor(__n);
                    }
                } else { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_get_pred(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgGetPred) {
        if self.state == ChordState::Joined {
            self.transitions_fired += 1;
            self.pfirst = None::<NodeId>;
            for fe_p in self.pred.clone() {
                self.pfirst = Some(fe_p);
            }
            {
                let __dest = Some(from);
                let __a0 = self.pfirst;
                let __a1 = &self.succs;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_PRED_IS);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                __w.nodes(__a1);
                if self.__port.send(ctx, LANE_PRED_IS, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_pred_is(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgPredIs) {
        if self.state == ChordState::Joined {
            self.transitions_fired += 1;
            {
                let mut __ns: Vec<NodeId> = m.succs.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(4usize);
                for __n in self.succs.iter() {
                    if !(self.pred.contains(&*__n) || self.fingers.contains(&*__n)) {
                        ctx.unmonitor(*__n);
                    }
                }
                for __n in __ns.iter() {
                    ctx.monitor(*__n);
                }
                self.succs = __ns;
            }
            if (!(Some(from)).map_or(false, |__q| self.succs.contains(&__q))) {
                if ((self.succs.len() as i64) < NSUCC) {
                    if let Some(__n) = Some(from) {
                        if !self.succs.contains(&__n) && self.succs.len() < 4usize {
                            self.succs.push(__n);
                            ctx.monitor(__n);
                        }
                    } else { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                } else {
                    self.worst = None::<NodeId>;
                    for fe_s in self.succs.clone() {
                        if (self.worst).is_none() {
                            self.worst = Some(fe_s);
                        } else {
                            if key::dsl_ring_between((self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), (Some(fe_s)).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                                self.worst = Some(fe_s);
                            }
                        }
                    }
                    if key::dsl_ring_between((Some(from)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), (self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                        if let Some(__n) = self.worst {
                            self.succs.retain(|&__x| __x != __n);
                            if !(self.pred.contains(&__n) || self.fingers.contains(&__n)) {
                                ctx.unmonitor(__n);
                            }
                        } else { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                        if let Some(__n) = Some(from) {
                            if !self.succs.contains(&__n) && self.succs.len() < 4usize {
                                self.succs.push(__n);
                                ctx.monitor(__n);
                            }
                        } else { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                    }
                }
            }
            if (!(m.pred).is_none()) {
                if (!(m.pred == Some(ctx.me))) {
                    if (!(m.pred).map_or(false, |__q| self.succs.contains(&__q))) {
                        if ((self.succs.len() as i64) < NSUCC) {
                            if let Some(__n) = m.pred {
                                if !self.succs.contains(&__n) && self.succs.len() < 4usize {
                                    self.succs.push(__n);
                                    ctx.monitor(__n);
                                }
                            } else { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                        } else {
                            self.worst = None::<NodeId>;
                            for fe_s in self.succs.clone() {
                                if (self.worst).is_none() {
                                    self.worst = Some(fe_s);
                                } else {
                                    if key::dsl_ring_between((self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), (Some(fe_s)).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                                        self.worst = Some(fe_s);
                                    }
                                }
                            }
                            if key::dsl_ring_between((m.pred).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), (self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                                if let Some(__n) = self.worst {
                                    self.succs.retain(|&__x| __x != __n);
                                    if !(self.pred.contains(&__n) || self.fingers.contains(&__n)) {
                                        ctx.unmonitor(__n);
                                    }
                                } else { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                                if let Some(__n) = m.pred {
                                    if !self.succs.contains(&__n) && self.succs.len() < 4usize {
                                        self.succs.push(__n);
                                        ctx.monitor(__n);
                                    }
                                } else { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                            }
                        }
                    }
                }
            }
            self.cand = key::dsl_owner_of(Some(ctx.my_key), &self.succs, ctx.addressing);
            if (!(self.cand).is_none()) {
                {
                    let __dest = self.cand;
                    let __a0 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_NOTIFY);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_NOTIFY, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_notify(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgNotify) {
        self.transitions_fired += 1;
        if (m.who == Some(ctx.me)) {
            return;
        }
        if ((self.succs.len() as i64) == (0i64)) {
            if let Some(__n) = m.who {
                if !self.succs.contains(&__n) && self.succs.len() < 4usize {
                    self.succs.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
        }
        self.pfirst = None::<NodeId>;
        for fe_p in self.pred.clone() {
            self.pfirst = Some(fe_p);
        }
        if (self.pfirst).is_none() {
            if let Some(__n) = m.who {
                if !self.pred.contains(&__n) && self.pred.len() < 1usize {
                    self.pred.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
            return;
        }
        if (self.pfirst == m.who) {
            return;
        }
        if key::dsl_ring_between((m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (self.pfirst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) {
            if let Some(__n) = self.pfirst {
                self.pred.retain(|&__x| __x != __n);
                if !(self.succs.contains(&__n) || self.fingers.contains(&__n)) {
                    ctx.unmonitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
            if let Some(__n) = m.who {
                if !self.pred.contains(&__n) && self.pred.len() < 1usize {
                    self.pred.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
        }
    }

    #[inline(never)]
    fn t_recv_ping(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgPing) {
        self.transitions_fired += 1;
        {
            let __dest = Some(from);
            let mut __w = WireWriter::new();
            __w.u16(PROTOCOL_ID).u16(MSG_PONG);
            if self.__port.send(ctx, LANE_PONG, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
        }
    }

    #[inline(never)]
    fn t_recv_pong(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgPong) {
        self.transitions_fired += 1;
    }

    #[inline(never)]
    fn t_recv_route_data(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgRouteData) {
        if !(self.state == ChordState::Init) {
            self.transitions_fired += 1;
            self.pfirst = None::<NodeId>;
            for fe_p in self.pred.clone() {
                self.pfirst = Some(fe_p);
            }
            if key::dsl_ring_between(Some(m.dst), (self.pfirst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) {
                {
                    let __src = m.dst;
                    let __pl = m.body.clone();
                    ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
                }
                return;
            }
            if (m.hop >= NFINGERS) {
                {
                    let __src = m.dst;
                    let __pl = m.body.clone();
                    ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
                }
                return;
            }
            self.cand = key::dsl_owner_of(Some(ctx.my_key), &self.succs, ctx.addressing);
            if (self.cand).is_none() {
                {
                    let __src = m.dst;
                    let __pl = m.body.clone();
                    ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
                }
                return;
            }
            if (!key::dsl_ring_between(Some(m.dst), Some(ctx.my_key), (self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)))) {
                for fe_f in self.fingers.clone() {
                    if key::dsl_ring_between((Some(fe_f)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), Some(m.dst)) {
                        if key::dsl_ring_between((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), (Some(fe_f)).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                            self.cand = Some(fe_f);
                        }
                    }
                }
                for fe_s in self.succs.clone() {
                    if key::dsl_ring_between((Some(fe_s)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), Some(m.dst)) {
                        if key::dsl_ring_between((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), (Some(fe_s)).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                            self.cand = Some(fe_s);
                        }
                    }
                }
            }
            {
                let __dest = self.cand;
                let __a0 = m.dst;
                let __a1 = m.origin;
                let __a2 = m.hop.wrapping_add((1i64));
                let __a3 = m.body.clone();
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_ROUTE_DATA);
                __w.key(__a0);
                __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                __w.u64(__a2 as u64);
                __w.bytes(&__a3);
                if self.__port.send(ctx, LANE_ROUTE_DATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a3.is_empty() { Some(__a3.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_timer_stabilize(&mut self, ctx: &mut Ctx) {
        if self.state == ChordState::Joined {
            self.transitions_fired += 1;
            self.cand = key::dsl_owner_of(Some(ctx.my_key), &self.succs, ctx.addressing);
            if (!(self.cand).is_none()) {
                {
                    let __dest = self.cand;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_GET_PRED);
                    if self.__port.send(ctx, LANE_GET_PRED, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                }
            }
            ctx.timer_set(TIMER_STABILIZE, Duration::from_millis((STABILIZE_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_timer_fix_fingers(&mut self, ctx: &mut Ctx) {
        if self.state == ChordState::Joined {
            self.transitions_fired += 1;
            if (FF_MIN_MS < FF_MAX_MS) {
                if (self.ff_changed == (1i64)) {
                    self.ff_period = self.ff_period.wrapping_div((2i64));
                    if (self.ff_period < FF_MIN_MS) {
                        self.ff_period = FF_MIN_MS;
                    }
                } else {
                    self.ff_period = self.ff_period.wrapping_mul((2i64));
                    if (self.ff_period > FF_MAX_MS) {
                        self.ff_period = FF_MAX_MS;
                    }
                }
                self.ff_changed = (0i64);
            }
            self.finger_target = key::dsl_key_add(ctx.my_key, self.finger_step);
            self.finger_step = self.finger_step.wrapping_mul((2i64));
            if (self.finger_step > FINGER_MAX) {
                self.finger_step = (1i64);
            }
            self.cand = key::dsl_owner_of(Some(ctx.my_key), &self.succs, ctx.addressing);
            if (!(self.cand).is_none()) {
                if (!key::dsl_ring_between(Some(self.finger_target), Some(ctx.my_key), (self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)))) {
                    for fe_f in self.fingers.clone() {
                        if key::dsl_ring_between((Some(fe_f)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), Some(self.finger_target)) {
                            if key::dsl_ring_between((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key), (Some(fe_f)).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) {
                                self.cand = Some(fe_f);
                            }
                        }
                    }
                }
                {
                    let __dest = self.cand;
                    let __a0 = self.finger_target;
                    let __a1 = Some(ctx.me);
                    let __a2 = (0i64);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_FIND_SUCC);
                    __w.key(__a0);
                    __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                    __w.u64(__a2 as u64);
                    if self.__port.send(ctx, LANE_FIND_SUCC, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                }
            }
            ctx.timer_set(TIMER_FIX_FINGERS, Duration::from_millis((self.ff_period).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_timer_check_pred(&mut self, ctx: &mut Ctx) {
        if self.state == ChordState::Joined {
            self.transitions_fired += 1;
            for fe_p in self.pred.clone() {
                {
                    let __dest = Some(fe_p);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PING);
                    if self.__port.send(ctx, LANE_PING, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                }
            }
            ctx.timer_set(TIMER_CHECK_PRED, Duration::from_millis((CHECK_PRED_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_timer_retry_join(&mut self, ctx: &mut Ctx) {
        if self.state == ChordState::Joining {
            self.transitions_fired += 1;
            {
                let __dest = self.bootstrap;
                let __a0 = ctx.my_key;
                let __a1 = Some(ctx.me);
                let __a2 = (0i64);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_FIND_SUCC);
                __w.key(__a0);
                __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                __w.u64(__a2 as u64);
                if self.__port.send(ctx, LANE_FIND_SUCC, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
            }
            ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_error(&mut self, ctx: &mut Ctx, from: NodeId) {
        self.transitions_fired += 1;
        if ((self.succs.len() as i64) == (0i64)) {
            if (!(self.bootstrap).is_none()) {
                ctx.trace_fsm(self.state.name(), "joining");
                self.state = ChordState::Joining;
                {
                    let __dest = self.bootstrap;
                    let __a0 = ctx.my_key;
                    let __a1 = Some(ctx.me);
                    let __a2 = (0i64);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_FIND_SUCC);
                    __w.key(__a0);
                    __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                    __w.u64(__a2 as u64);
                    if self.__port.send(ctx, LANE_FIND_SUCC, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "chord: runtime error: null where a value is required"); return; }
                }
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
        }
    }

}

impl SpecBody for Chord {
    const AGENT_NAME: &'static str = "chord";

    fn shape(&self) -> Shape<'_> {
        Shape { name: "chord", proto: PROTOCOL_ID, layered: false, channels: 2, messages: 8, timers: 4 }
    }

    fn port(&mut self) -> &mut Port {
        &mut self.__port
    }

    fn state(&self) -> &str {
        self.state.name()
    }

    fn lists(&self) -> Vec<(&str, &[NodeId])> {
        vec![("succs", self.succs.as_slice()), ("pred", self.pred.as_slice()), ("fingers", self.fingers.as_slice())]
    }

    fn fail_detect(&mut self, mut f: impl FnMut(&mut Vec<NodeId>)) {
        f(&mut self.succs);
        f(&mut self.pred);
        f(&mut self.fingers);
    }

    fn fire_init(&mut self, ctx: &mut Ctx) {
        self.t_api_init(ctx);
    }

    fn fire_api(&mut self, ctx: &mut Ctx, call: DownCall) -> Option<DownCall> {
        match call {
            DownCall::Route { dest, payload, .. } => self.t_api_route(ctx, dest, payload),
            __other => return Some(__other),
        }
        None
    }

    fn fire_recv(&mut self, ctx: &mut Ctx, id: u16, from: NodeId, r: &mut WireRef) -> Result<(), DecodeError> {
        match id {
            MSG_FIND_SUCC => self.t_recv_find_succ(ctx, from, &dec_find_succ(r)?),
            MSG_FOUND_SUCC => self.t_recv_found_succ(ctx, from, &dec_found_succ(r)?),
            MSG_GET_PRED => self.t_recv_get_pred(ctx, from, &dec_get_pred(r)?),
            MSG_PRED_IS => self.t_recv_pred_is(ctx, from, &dec_pred_is(r)?),
            MSG_NOTIFY => self.t_recv_notify(ctx, from, &dec_notify(r)?),
            MSG_PING => self.t_recv_ping(ctx, from, &dec_ping(r)?),
            MSG_PONG => self.t_recv_pong(ctx, from, &dec_pong(r)?),
            MSG_ROUTE_DATA => self.t_recv_route_data(ctx, from, &dec_route_data(r)?),
            _ => {},
        }
        Ok(())
    }

    fn fire_timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_STABILIZE => self.t_timer_stabilize(ctx),
            TIMER_FIX_FINGERS => self.t_timer_fix_fingers(ctx),
            TIMER_CHECK_PRED => self.t_timer_check_pred(ctx),
            TIMER_RETRY_JOIN => self.t_timer_retry_join(ctx),
            _ => {},
        }
    }

    fn fire_error(&mut self, ctx: &mut Ctx, peer: NodeId) {
        self.t_error(ctx, peer);
    }
}

}

pub use generated::*;
