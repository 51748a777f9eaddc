//! `Ammo` — generated by macedon-lang from `ammo.mac`. **Do not edit**:
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

/// Well-known protocol id of `ammo` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 25620;
const MSG_JOIN: u16 = 0;
const MSG_JOIN_OK: u16 = 1;
const MSG_JOIN_DEFLECT: u16 = 2;
const MSG_LEAVE: u16 = 3;
const MSG_METRIC_PROBE: u16 = 4;
const MSG_METRIC_REPLY: u16 = 5;
const MSG_ADATA: u16 = 6;
const LANE_JOIN: Lane = Lane::Wire(ChannelId(0));
const LANE_JOIN_OK: Lane = Lane::Wire(ChannelId(0));
const LANE_JOIN_DEFLECT: Lane = Lane::Wire(ChannelId(0));
const LANE_LEAVE: Lane = Lane::Wire(ChannelId(0));
const LANE_METRIC_PROBE: Lane = Lane::Wire(ChannelId(1));
const LANE_METRIC_REPLY: Lane = Lane::Wire(ChannelId(1));
const LANE_ADATA: Lane = Lane::Wire(ChannelId(2));
const TIMER_EPOCH_T: u16 = 0;
const TIMER_RETRY_JOIN: u16 = 1;
const MAXDEG: i64 = 4;
const EPOCH_MS: i64 = 8000;
const PROBESET: i64 = 5;
const RETRY_MS: i64 = 5000;
const SWAP_MARGIN: i64 = 2;

/// FSM states of `ammo` (`init` is implicit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AmmoState {
    Init,
    Joining,
    Joined,
    Evaluating,
}

impl AmmoState {
    /// The state's name in the spec.
    pub fn name(self) -> &'static str {
        match self {
            AmmoState::Init => "init",
            AmmoState::Joining => "joining",
            AmmoState::Joined => "joined",
            AmmoState::Evaluating => "evaluating",
        }
    }
}

/// Decoded fields of `join`.
pub struct MsgJoin {
    pub who: Option<NodeId>,
}

fn dec_join(r: &mut WireRef) -> Result<MsgJoin, DecodeError> {
    Ok(MsgJoin {
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `join_ok`.
pub struct MsgJoinOk {
    pub sibs: Vec<NodeId>,
}

fn dec_join_ok(r: &mut WireRef) -> Result<MsgJoinOk, DecodeError> {
    Ok(MsgJoinOk {
        sibs: r.nodes()?,
    })
}

/// Decoded fields of `join_deflect`.
pub struct MsgJoinDeflect {
    pub try_next: Option<NodeId>,
}

fn dec_join_deflect(r: &mut WireRef) -> Result<MsgJoinDeflect, DecodeError> {
    Ok(MsgJoinDeflect {
        try_next: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `leave`.
pub struct MsgLeave {
}

fn dec_leave(r: &mut WireRef) -> Result<MsgLeave, DecodeError> {
    Ok(MsgLeave {
    })
}

/// Decoded fields of `metric_probe`.
pub struct MsgMetricProbe {
    pub epoch: i64,
}

fn dec_metric_probe(r: &mut WireRef) -> Result<MsgMetricProbe, DecodeError> {
    Ok(MsgMetricProbe {
        epoch: (r.u64()? as i64),
    })
}

/// Decoded fields of `metric_reply`.
pub struct MsgMetricReply {
    pub epoch: i64,
    pub score: i64,
}

fn dec_metric_reply(r: &mut WireRef) -> Result<MsgMetricReply, DecodeError> {
    Ok(MsgMetricReply {
        epoch: (r.u64()? as i64),
        score: (r.u64()? as i64),
    })
}

/// Decoded fields of `adata`.
pub struct MsgAdata {
    pub src: MacedonKey,
    pub body: Bytes,
}

fn dec_adata(r: &mut WireRef) -> Result<MsgAdata, DecodeError> {
    Ok(MsgAdata {
        src: r.key()?,
        body: r.bytes()?,
    })
}

/// The `ammo` protocol agent, one FSM instance per node.
pub struct Ammo {
    state: AmmoState,
    bootstrap: Option<NodeId>,
    __port: Port,
    /// Transitions fired (observability / tests).
    pub transitions_fired: u64,
    papa: Vec<NodeId>,
    kids: Vec<NodeId>,
    probeset: Vec<NodeId>,
    epoch: i64,
    best_score: i64,
    best_node: Option<NodeId>,
    replies_due: i64,
}

impl Ammo {
    /// Instantiate one stack layer; `bootstrap` is the rendezvous
    /// node handed to every layer (`None` for the designated root).
    pub fn new(bootstrap: Option<NodeId>) -> Ammo {
        Ammo {
            state: AmmoState::Init,
            bootstrap,
            __port: Port::default(),
            transitions_fired: 0,
            papa: Vec::new(),
            kids: Vec::new(),
            probeset: Vec::new(),
            epoch: 0,
            best_score: 0,
            best_node: None,
            replies_due: 0,
        }
    }

    #[inline(never)]
    fn t_api_init(&mut self, ctx: &mut Ctx) {
        if self.state == AmmoState::Init {
            self.transitions_fired += 1;
            self.epoch = (0i64);
            if (self.bootstrap).is_none() {
                ctx.trace_fsm(self.state.name(), "joined");
                self.state = AmmoState::Joined;
                ctx.timer_set(TIMER_EPOCH_T, Duration::from_millis((EPOCH_MS).max(0) as u64));
            } else {
                {
                    let __dest = self.bootstrap;
                    let __a0 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                }
                ctx.trace_fsm(self.state.name(), "joining");
                self.state = AmmoState::Joining;
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
            return;
        }
    }

    #[inline(never)]
    fn t_api_multicast(&mut self, ctx: &mut Ctx, group: MacedonKey, payload: Bytes) {
        if !((self.state == AmmoState::Init || self.state == AmmoState::Joining)) {
            self.transitions_fired += 1;
            for fe_k in self.kids.clone() {
                {
                    let __dest = Some(fe_k);
                    let __a0 = ctx.my_key;
                    let __a1 = payload.clone();
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_ADATA);
                    __w.key(__a0);
                    __w.bytes(&__a1);
                    if self.__port.send(ctx, LANE_ADATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                }
            }
            for fe_p in self.papa.clone() {
                {
                    let __dest = Some(fe_p);
                    let __a0 = ctx.my_key;
                    let __a1 = payload.clone();
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_ADATA);
                    __w.key(__a0);
                    __w.bytes(&__a1);
                    if self.__port.send(ctx, LANE_ADATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_join(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgJoin) {
        if !((self.state == AmmoState::Joining || self.state == AmmoState::Init)) {
            self.transitions_fired += 1;
            if (m.who == Some(ctx.me)) {
                return;
            }
            if ((self.kids.len() as i64) < MAXDEG) {
                if let Some(__n) = m.who {
                    if !self.kids.contains(&__n) && self.kids.len() < 4usize {
                        self.kids.push(__n);
                        ctx.monitor(__n);
                    }
                } else { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                {
                    let __dest = m.who;
                    let __a0 = &self.kids;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN_OK);
                    __w.nodes(__a0);
                    if self.__port.send(ctx, LANE_JOIN_OK, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                }
            } else {
                {
                    let __dest = m.who;
                    let __a0 = (if self.kids.is_empty() { None } else { Some(self.kids[ctx.rng.index(self.kids.len())]) });
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN_DEFLECT);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_JOIN_DEFLECT, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_join_ok(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgJoinOk) {
        if self.state == AmmoState::Joining {
            self.transitions_fired += 1;
            if let Some(__n) = Some(from) {
                if !self.papa.contains(&__n) && self.papa.len() < 1usize {
                    self.papa.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
            {
                let mut __ns: Vec<NodeId> = m.sibs.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(8usize);
                self.probeset = __ns;
            }
            ctx.timer_cancel(TIMER_RETRY_JOIN);
            ctx.trace_fsm(self.state.name(), "joined");
            self.state = AmmoState::Joined;
            ctx.timer_set(TIMER_EPOCH_T, Duration::from_millis((EPOCH_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_recv_join_deflect(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgJoinDeflect) {
        if self.state == AmmoState::Joining {
            self.transitions_fired += 1;
            if (!(m.try_next).is_none()) {
                {
                    let __dest = m.try_next;
                    let __a0 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                }
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_leave(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgLeave) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.kids.retain(|&__x| __x != __n);
            if !(self.papa.contains(&__n)) {
                ctx.unmonitor(__n);
            }
        } else { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
    }

    #[inline(never)]
    fn t_recv_metric_probe(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgMetricProbe) {
        self.transitions_fired += 1;
        {
            let __dest = Some(from);
            let __a0 = m.epoch;
            let __a1 = (self.kids.len() as i64).wrapping_add((1i64));
            let mut __w = WireWriter::new();
            __w.u16(PROTOCOL_ID).u16(MSG_METRIC_REPLY);
            __w.u64(__a0 as u64);
            __w.u64(__a1 as u64);
            if self.__port.send(ctx, LANE_METRIC_REPLY, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
        }
    }

    #[inline(never)]
    fn t_recv_metric_reply(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgMetricReply) {
        if self.state == AmmoState::Evaluating {
            self.transitions_fired += 1;
            if (!(m.epoch == self.epoch)) {
                return;
            }
            self.replies_due = self.replies_due.wrapping_sub((1i64));
            if (m.score > self.best_score.wrapping_add(SWAP_MARGIN)) {
                self.best_score = m.score;
                self.best_node = Some(from);
            }
            if (self.replies_due <= (0i64)) {
                if (!(self.best_node).is_none()) {
                    for fe_p in self.papa.clone() {
                        {
                            let __dest = Some(fe_p);
                            let mut __w = WireWriter::new();
                            __w.u16(PROTOCOL_ID).u16(MSG_LEAVE);
                            if self.__port.send(ctx, LANE_LEAVE, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                        }
                    }
                    for __n in self.papa.drain(..) {
                        if !(self.kids.contains(&__n)) {
                            ctx.unmonitor(__n);
                        }
                    }
                    {
                        let __dest = self.best_node;
                        let __a0 = Some(ctx.me);
                        let mut __w = WireWriter::new();
                        __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                        __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                        if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                    }
                    ctx.trace_fsm(self.state.name(), "joining");
                    self.state = AmmoState::Joining;
                    ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
                } else {
                    ctx.trace_fsm(self.state.name(), "joined");
                    self.state = AmmoState::Joined;
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_adata(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgAdata) {
        self.transitions_fired += 1;
        {
            let __src = m.src;
            let __pl = m.body.clone();
            ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
        }
        for fe_k in self.kids.clone() {
            if (!(Some(fe_k) == Some(from))) {
                {
                    let __dest = Some(fe_k);
                    let __a0 = m.src;
                    let __a1 = m.body.clone();
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_ADATA);
                    __w.key(__a0);
                    __w.bytes(&__a1);
                    if self.__port.send(ctx, LANE_ADATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                }
            }
        }
        for fe_p in self.papa.clone() {
            if (!(Some(fe_p) == Some(from))) {
                {
                    let __dest = Some(fe_p);
                    let __a0 = m.src;
                    let __a1 = m.body.clone();
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_ADATA);
                    __w.key(__a0);
                    __w.bytes(&__a1);
                    if self.__port.send(ctx, LANE_ADATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                }
            }
        }
    }

    #[inline(never)]
    fn t_timer_epoch_t(&mut self, ctx: &mut Ctx) {
        if self.state == AmmoState::Joined {
            self.transitions_fired += 1;
            self.epoch = self.epoch.wrapping_add((1i64));
            self.best_score = (0i64).wrapping_sub((1i64));
            self.best_node = None::<NodeId>;
            self.replies_due = (self.probeset.len() as i64);
            if (self.replies_due == (0i64)) {
                ctx.timer_set(TIMER_EPOCH_T, Duration::from_millis((EPOCH_MS).max(0) as u64));
                return;
            }
            for fe_c in self.probeset.clone() {
                {
                    let __dest = Some(fe_c);
                    let __a0 = self.epoch;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_METRIC_PROBE);
                    __w.u64(__a0 as u64);
                    if self.__port.send(ctx, LANE_METRIC_PROBE, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                }
            }
            ctx.trace_fsm(self.state.name(), "evaluating");
            self.state = AmmoState::Evaluating;
            ctx.timer_set(TIMER_EPOCH_T, Duration::from_millis((EPOCH_MS).max(0) as u64));
            return;
        }
        if self.state == AmmoState::Evaluating {
            self.transitions_fired += 1;
            self.replies_due = (0i64);
            ctx.trace_fsm(self.state.name(), "joined");
            self.state = AmmoState::Joined;
            ctx.timer_set(TIMER_EPOCH_T, Duration::from_millis((EPOCH_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_timer_retry_join(&mut self, ctx: &mut Ctx) {
        if self.state == AmmoState::Joining {
            self.transitions_fired += 1;
            {
                let __dest = self.bootstrap;
                let __a0 = Some(ctx.me);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
            }
            ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_error(&mut self, ctx: &mut Ctx, from: NodeId) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.probeset.retain(|&__x| __x != __n);
        } else { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
        if ((self.papa.len() as i64) == (0i64)) {
            if (!(self.bootstrap).is_none()) {
                {
                    let __dest = self.bootstrap;
                    let __a0 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "ammo: runtime error: null where a value is required"); return; }
                }
                ctx.trace_fsm(self.state.name(), "joining");
                self.state = AmmoState::Joining;
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
        }
    }

}

impl SpecBody for Ammo {
    const AGENT_NAME: &'static str = "ammo";

    fn shape(&self) -> Shape<'_> {
        Shape { name: "ammo", proto: PROTOCOL_ID, layered: false, channels: 3, messages: 7, timers: 2 }
    }

    fn port(&mut self) -> &mut Port {
        &mut self.__port
    }

    fn state(&self) -> &str {
        self.state.name()
    }

    fn lists(&self) -> Vec<(&str, &[NodeId])> {
        vec![("papa", self.papa.as_slice()), ("kids", self.kids.as_slice()), ("probeset", self.probeset.as_slice())]
    }

    fn fail_detect(&mut self, mut f: impl FnMut(&mut Vec<NodeId>)) {
        f(&mut self.papa);
        f(&mut self.kids);
    }

    fn fire_init(&mut self, ctx: &mut Ctx) {
        self.t_api_init(ctx);
    }

    fn fire_api(&mut self, ctx: &mut Ctx, call: DownCall) -> Option<DownCall> {
        match call {
            DownCall::Multicast { group, payload, .. } => self.t_api_multicast(ctx, group, payload),
            __other => return Some(__other),
        }
        None
    }

    fn fire_recv(&mut self, ctx: &mut Ctx, id: u16, from: NodeId, r: &mut WireRef) -> Result<(), DecodeError> {
        match id {
            MSG_JOIN => self.t_recv_join(ctx, from, &dec_join(r)?),
            MSG_JOIN_OK => self.t_recv_join_ok(ctx, from, &dec_join_ok(r)?),
            MSG_JOIN_DEFLECT => self.t_recv_join_deflect(ctx, from, &dec_join_deflect(r)?),
            MSG_LEAVE => self.t_recv_leave(ctx, from, &dec_leave(r)?),
            MSG_METRIC_PROBE => self.t_recv_metric_probe(ctx, from, &dec_metric_probe(r)?),
            MSG_METRIC_REPLY => self.t_recv_metric_reply(ctx, from, &dec_metric_reply(r)?),
            MSG_ADATA => self.t_recv_adata(ctx, from, &dec_adata(r)?),
            _ => {},
        }
        Ok(())
    }

    fn fire_timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_EPOCH_T => self.t_timer_epoch_t(ctx),
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
