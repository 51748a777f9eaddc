//! `Randtree` — generated by macedon-lang from `randtree.mac`. **Do not edit**:
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

/// Well-known protocol id of `randtree` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 46294;
const MSG_JOIN: u16 = 0;
const MSG_JOIN_OK: u16 = 1;
const MSG_DATA: u16 = 2;
const LANE_JOIN: Lane = Lane::Wire(ChannelId(0));
const LANE_JOIN_OK: Lane = Lane::Wire(ChannelId(0));
const LANE_DATA: Lane = Lane::Wire(ChannelId(1));
const TIMER_RETRY_JOIN: u16 = 0;
const MAXKIDS: i64 = 4;
const RETRY_MS: i64 = 5000;

/// FSM states of `randtree` (`init` is implicit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RandtreeState {
    Init,
    Joined,
}

impl RandtreeState {
    /// The state's name in the spec.
    pub fn name(self) -> &'static str {
        match self {
            RandtreeState::Init => "init",
            RandtreeState::Joined => "joined",
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
}

fn dec_join_ok(r: &mut WireRef) -> Result<MsgJoinOk, DecodeError> {
    Ok(MsgJoinOk {
    })
}

/// Decoded fields of `data`.
pub struct MsgData {
    pub src: MacedonKey,
    pub body: Bytes,
}

fn dec_data(r: &mut WireRef) -> Result<MsgData, DecodeError> {
    Ok(MsgData {
        src: r.key()?,
        body: r.bytes()?,
    })
}

/// The `randtree` protocol agent, one FSM instance per node.
pub struct Randtree {
    state: RandtreeState,
    bootstrap: Option<NodeId>,
    __port: Port,
    /// Transitions fired (observability / tests).
    pub transitions_fired: u64,
    papa: Vec<NodeId>,
    kids: Vec<NodeId>,
}

impl Randtree {
    /// Instantiate one stack layer; `bootstrap` is the rendezvous
    /// node handed to every layer (`None` for the designated root).
    pub fn new(bootstrap: Option<NodeId>) -> Randtree {
        Randtree {
            state: RandtreeState::Init,
            bootstrap,
            __port: Port::default(),
            transitions_fired: 0,
            papa: Vec::new(),
            kids: Vec::new(),
        }
    }

    #[inline(never)]
    fn t_api_init(&mut self, ctx: &mut Ctx) {
        if self.state == RandtreeState::Init {
            self.transitions_fired += 1;
            if (self.bootstrap).is_none() {
                ctx.trace_fsm(self.state.name(), "joined");
                self.state = RandtreeState::Joined;
            } else {
                {
                    let __dest = self.bootstrap;
                    let __a0 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "randtree: runtime error: null where a value is required"); return; }
                }
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
            return;
        }
    }

    #[inline(never)]
    fn t_api_multicast(&mut self, ctx: &mut Ctx, group: MacedonKey, payload: Bytes) {
        if self.state == RandtreeState::Joined {
            self.transitions_fired += 1;
            for fe_k in self.kids.clone() {
                {
                    let __dest = Some(fe_k);
                    let __a0 = ctx.my_key;
                    let __a1 = payload.clone();
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_DATA);
                    __w.key(__a0);
                    __w.bytes(&__a1);
                    if self.__port.send(ctx, LANE_DATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "randtree: runtime error: null where a value is required"); return; }
                }
            }
            for fe_p in self.papa.clone() {
                {
                    let __dest = Some(fe_p);
                    let __a0 = ctx.my_key;
                    let __a1 = payload.clone();
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_DATA);
                    __w.key(__a0);
                    __w.bytes(&__a1);
                    if self.__port.send(ctx, LANE_DATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "randtree: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_join(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgJoin) {
        self.transitions_fired += 1;
        if (m.who == Some(ctx.me)) {
            return;
        }
        if (m.who).map_or(false, |__q| self.kids.contains(&__q)) {
            {
                let __dest = m.who;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN_OK);
                if self.__port.send(ctx, LANE_JOIN_OK, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "randtree: runtime error: null where a value is required"); return; }
            }
            return;
        }
        if ((self.kids.len() as i64) < MAXKIDS) {
            if let Some(__n) = m.who {
                if !self.kids.contains(&__n) && self.kids.len() < 4usize {
                    self.kids.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "randtree: runtime error: null where a value is required"); return; }
            {
                let __dest = m.who;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN_OK);
                if self.__port.send(ctx, LANE_JOIN_OK, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "randtree: runtime error: null where a value is required"); return; }
            }
        } else {
            {
                let __dest = (if self.kids.is_empty() { None } else { Some(self.kids[ctx.rng.index(self.kids.len())]) });
                let __a0 = m.who;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "randtree: runtime error: null where a value is required"); return; }
            }
        }
    }

    #[inline(never)]
    fn t_recv_join_ok(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgJoinOk) {
        if self.state == RandtreeState::Init {
            self.transitions_fired += 1;
            if let Some(__n) = Some(from) {
                if !self.papa.contains(&__n) && self.papa.len() < 1usize {
                    self.papa.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "randtree: runtime error: null where a value is required"); return; }
            ctx.timer_cancel(TIMER_RETRY_JOIN);
            ctx.trace_fsm(self.state.name(), "joined");
            self.state = RandtreeState::Joined;
            return;
        }
    }

    #[inline(never)]
    fn t_recv_data(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgData) {
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
                    __w.u16(PROTOCOL_ID).u16(MSG_DATA);
                    __w.key(__a0);
                    __w.bytes(&__a1);
                    if self.__port.send(ctx, LANE_DATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "randtree: runtime error: null where a value is required"); return; }
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
                    __w.u16(PROTOCOL_ID).u16(MSG_DATA);
                    __w.key(__a0);
                    __w.bytes(&__a1);
                    if self.__port.send(ctx, LANE_DATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "randtree: runtime error: null where a value is required"); return; }
                }
            }
        }
    }

    #[inline(never)]
    fn t_timer_retry_join(&mut self, ctx: &mut Ctx) {
        if self.state == RandtreeState::Init {
            self.transitions_fired += 1;
            {
                let __dest = self.bootstrap;
                let __a0 = Some(ctx.me);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "randtree: runtime error: null where a value is required"); return; }
            }
            ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_error(&mut self, ctx: &mut Ctx, from: NodeId) {
        if self.state == RandtreeState::Joined {
            self.transitions_fired += 1;
            if ((self.papa.len() as i64) == (0i64)) {
                if (!(self.bootstrap).is_none()) {
                    ctx.trace_fsm(self.state.name(), "init");
                    self.state = RandtreeState::Init;
                    {
                        let __dest = self.bootstrap;
                        let __a0 = Some(ctx.me);
                        let mut __w = WireWriter::new();
                        __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                        __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                        if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "randtree: runtime error: null where a value is required"); return; }
                    }
                    ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
                }
            }
            return;
        }
    }

}

impl SpecBody for Randtree {
    const AGENT_NAME: &'static str = "randtree";

    fn shape(&self) -> Shape<'_> {
        Shape { name: "randtree", proto: PROTOCOL_ID, layered: false, channels: 2, messages: 3, timers: 1 }
    }

    fn port(&mut self) -> &mut Port {
        &mut self.__port
    }

    fn state(&self) -> &str {
        self.state.name()
    }

    fn lists(&self) -> Vec<(&str, &[NodeId])> {
        vec![("papa", self.papa.as_slice()), ("kids", self.kids.as_slice())]
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
            MSG_DATA => self.t_recv_data(ctx, from, &dec_data(r)?),
            _ => {},
        }
        Ok(())
    }

    fn fire_timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
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
