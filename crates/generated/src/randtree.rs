//! `Randtree` — generated by macedon-lang from `randtree.mac`. **Do not edit**:
//! regenerate with `cargo run -p macedon-bench --bin regen` (CI rejects
//! drift between this file and the spec).
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
    Agent, AgentState, Bytes, ChannelId, Ctx, DecodeError, DownCall, Duration,
    ForwardInfo, MacedonKey, NodeId, ProtocolId, TraceLevel, UpCall, WireReader,
    WireWriter, DEFAULT_PRIORITY, TUNNEL_PROTOCOL,
};
use macedon_core::key;
use macedon_core::wire::{read_tunnel, tunnel_frame};
use std::any::Any;
use std::collections::VecDeque;

/// Well-known protocol id of `randtree` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 46294;
const MSG_JOIN: u16 = 0;
const MSG_JOIN_OK: u16 = 1;
const MSG_DATA: u16 = 2;
/// Declared transport channels (bounds the `priority` values the
/// engine-served `routeIP` tunnel honors).
const NUM_CHANNELS: u16 = 2;
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

fn dec_join(r: &mut WireReader) -> Result<MsgJoin, DecodeError> {
    Ok(MsgJoin {
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `join_ok`.
pub struct MsgJoinOk {
}

fn dec_join_ok(r: &mut WireReader) -> Result<MsgJoinOk, DecodeError> {
    Ok(MsgJoinOk {
    })
}

/// Decoded fields of `data`.
pub struct MsgData {
    pub src: MacedonKey,
    pub body: Bytes,
}

fn dec_data(r: &mut WireReader) -> Result<MsgData, DecodeError> {
    Ok(MsgData {
        src: r.key()?,
        body: r.bytes()?,
    })
}

/// The `randtree` protocol agent, one FSM instance per node.
pub struct Randtree {
    state: RandtreeState,
    bootstrap: Option<NodeId>,
    /// Encoded sends awaiting their forward-query verdict, FIFO.
    pending_fwd: VecDeque<(NodeId, ChannelId, Bytes)>,
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
            pending_fwd: VecDeque::new(),
            transitions_fired: 0,
            papa: Vec::new(),
            kids: Vec::new(),
        }
    }

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
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(0), __bytes);
                    }
                }
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
            return;
        }
    }

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
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        let __tunneled = if !__a1.is_empty() { Some(__a1.clone()) } else { None };
                        match __tunneled {
                            Some(__p) if !ctx.is_top_layer() => {
                                let __dest_key = __a0;
                                self.pending_fwd.push_back((__d, ChannelId(1), __bytes));
                                ctx.forward_query(ForwardInfo {
                                    src: ctx.my_key,
                                    dest: __dest_key,
                                    prev_hop: ctx.me,
                                    next_hop: __d,
                                    payload: __p,
                                    quash: false,
                                });
                            }
                            _ => ctx.send(__d, ChannelId(1), __bytes),
                        }
                    }
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
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        let __tunneled = if !__a1.is_empty() { Some(__a1.clone()) } else { None };
                        match __tunneled {
                            Some(__p) if !ctx.is_top_layer() => {
                                let __dest_key = __a0;
                                self.pending_fwd.push_back((__d, ChannelId(1), __bytes));
                                ctx.forward_query(ForwardInfo {
                                    src: ctx.my_key,
                                    dest: __dest_key,
                                    prev_hop: ctx.me,
                                    next_hop: __d,
                                    payload: __p,
                                    quash: false,
                                });
                            }
                            _ => ctx.send(__d, ChannelId(1), __bytes),
                        }
                    }
                }
            }
            return;
        }
    }

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
                let __bytes = __w.finish();
                if let Some(__d) = __dest {
                    ctx.send(__d, ChannelId(0), __bytes);
                }
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
                let __bytes = __w.finish();
                if let Some(__d) = __dest {
                    ctx.send(__d, ChannelId(0), __bytes);
                }
            }
        } else {
            {
                let __dest = (if self.kids.is_empty() { None } else { Some(self.kids[ctx.rng.index(self.kids.len())]) });
                let __a0 = m.who;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                let __bytes = __w.finish();
                if let Some(__d) = __dest {
                    ctx.send(__d, ChannelId(0), __bytes);
                }
            }
        }
    }

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
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        let __tunneled = if !__a1.is_empty() { Some(__a1.clone()) } else { None };
                        match __tunneled {
                            Some(__p) if !ctx.is_top_layer() => {
                                let __dest_key = __a0;
                                self.pending_fwd.push_back((__d, ChannelId(1), __bytes));
                                ctx.forward_query(ForwardInfo {
                                    src: ctx.my_key,
                                    dest: __dest_key,
                                    prev_hop: from,
                                    next_hop: __d,
                                    payload: __p,
                                    quash: false,
                                });
                            }
                            _ => ctx.send(__d, ChannelId(1), __bytes),
                        }
                    }
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
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        let __tunneled = if !__a1.is_empty() { Some(__a1.clone()) } else { None };
                        match __tunneled {
                            Some(__p) if !ctx.is_top_layer() => {
                                let __dest_key = __a0;
                                self.pending_fwd.push_back((__d, ChannelId(1), __bytes));
                                ctx.forward_query(ForwardInfo {
                                    src: ctx.my_key,
                                    dest: __dest_key,
                                    prev_hop: from,
                                    next_hop: __d,
                                    payload: __p,
                                    quash: false,
                                });
                            }
                            _ => ctx.send(__d, ChannelId(1), __bytes),
                        }
                    }
                }
            }
        }
    }

    fn t_timer_retry_join(&mut self, ctx: &mut Ctx) {
        if self.state == RandtreeState::Init {
            self.transitions_fired += 1;
            {
                let __dest = self.bootstrap;
                let __a0 = Some(ctx.me);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                let __bytes = __w.finish();
                if let Some(__d) = __dest {
                    ctx.send(__d, ChannelId(0), __bytes);
                }
            }
            ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            return;
        }
    }

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
                        let __bytes = __w.finish();
                        if let Some(__d) = __dest {
                            ctx.send(__d, ChannelId(0), __bytes);
                        }
                    }
                    ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
                }
            }
            return;
        }
    }

}

impl Agent for Randtree {
    fn protocol_id(&self) -> ProtocolId {
        PROTOCOL_ID
    }

    fn name(&self) -> &'static str { "randtree" }

    fn init(&mut self, ctx: &mut Ctx) {
        self.t_api_init(ctx);
    }

    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        match call {
            DownCall::Multicast { group, payload, .. } => self.t_api_multicast(ctx, group, payload),
            DownCall::RouteIp { dest, payload, priority } => {
                let __ch = if priority >= 0 && (priority as u16) < NUM_CHANNELS {
                    ChannelId(priority as u16)
                } else {
                    ChannelId(0)
                };
                ctx.send(dest, __ch, tunnel_frame(ctx.my_key, &payload));
            }
            __other => ctx.trace(TraceLevel::Low, format!("randtree: unhandled API call {:?}", __other)),
        }
    }

    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {
        let mut __r = WireReader::new(msg);
        let (Ok(__proto), Ok(__id)) = (__r.u16(), __r.u16()) else { return };
        if __proto == TUNNEL_PROTOCOL {
            // A frame tunneled for the layers above: unwrap, deliver up.
            let Ok((__src, __payload)) = read_tunnel(&mut __r) else { return };
            ctx.up(UpCall::Deliver { src: __src, from, payload: __payload });
            return;
        }
        if __proto != PROTOCOL_ID {
            return;
        }
        match __id {
            MSG_JOIN => match dec_join(&mut __r) {
                Ok(__m) => self.t_recv_join(ctx, from, &__m),
                Err(__e) => ctx.trace(TraceLevel::Low, format!("randtree: decode error: {}", __e)),
            },
            MSG_JOIN_OK => match dec_join_ok(&mut __r) {
                Ok(__m) => self.t_recv_join_ok(ctx, from, &__m),
                Err(__e) => ctx.trace(TraceLevel::Low, format!("randtree: decode error: {}", __e)),
            },
            MSG_DATA => match dec_data(&mut __r) {
                Ok(__m) => self.t_recv_data(ctx, from, &__m),
                Err(__e) => ctx.trace(TraceLevel::Low, format!("randtree: decode error: {}", __e)),
            },
            _ => {}
        }
    }

    fn forward_resolved(&mut self, ctx: &mut Ctx, fwd: ForwardInfo) {
        let Some((_dest, __ch, __bytes)) = self.pending_fwd.pop_front() else {
            debug_assert!(false, "forward_resolved without a pending send");
            return;
        };
        if !fwd.quash {
            // The layers above may have redirected the hop.
            ctx.send(fwd.next_hop, __ch, __bytes);
        }
    }

    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_RETRY_JOIN => self.t_timer_retry_join(ctx),
            _ => {}
        }
    }

    fn neighbor_failed(&mut self, ctx: &mut Ctx, peer: NodeId) {
        self.papa.retain(|&__n| __n != peer);
        self.kids.retain(|&__n| __n != peer);
        self.t_error(ctx, peer);
    }

    fn view(&self) -> Option<AgentState<'_>> {
        Some(AgentState {
            protocol: "randtree",
            state: self.state.name(),
            lists: vec![("papa", self.papa.as_slice()), ("kids", self.kids.as_slice())],
        })
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

}

pub use generated::*;
