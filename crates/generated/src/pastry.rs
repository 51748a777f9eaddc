//! `Pastry` — generated by macedon-lang from `pastry.mac`. **Do not edit**:
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

/// Well-known protocol id of `pastry` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 22012;
const MSG_JOIN_REQ: u16 = 0;
const MSG_JOIN_DONE: u16 = 1;
const MSG_STATE_PUSH: u16 = 2;
const MSG_STATE_PULL: u16 = 3;
const MSG_KEEPALIVE: u16 = 4;
const MSG_KEEPALIVE_ACK: u16 = 5;
const MSG_REPAIR_REQ: u16 = 6;
const MSG_ROUTE_MSG: u16 = 7;
const LANE_JOIN_REQ: Lane = Lane::Wire(ChannelId(0));
const LANE_JOIN_DONE: Lane = Lane::Wire(ChannelId(0));
const LANE_STATE_PUSH: Lane = Lane::Wire(ChannelId(0));
const LANE_STATE_PULL: Lane = Lane::Wire(ChannelId(0));
const LANE_KEEPALIVE: Lane = Lane::Wire(ChannelId(1));
const LANE_KEEPALIVE_ACK: Lane = Lane::Wire(ChannelId(1));
const LANE_REPAIR_REQ: Lane = Lane::Wire(ChannelId(0));
const LANE_ROUTE_MSG: Lane = Lane::Wire(ChannelId(1));
const TIMER_KEEPALIVE_T: u16 = 0;
const TIMER_REPAIR_T: u16 = 1;
const TIMER_RETRY_JOIN: u16 = 2;
const LEAF_SIZE: i64 = 8;
const ROUTE_ROWS: i64 = 8;
const NEIGHBORHOOD: i64 = 8;
const KEEPALIVE_MS: i64 = 2000;
const REPAIR_MS: i64 = 6000;
const RETRY_MS: i64 = 5000;
const MAX_HOPS: i64 = 16;

/// FSM states of `pastry` (`init` is implicit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PastryState {
    Init,
    Joining,
    Joined,
}

impl PastryState {
    /// The state's name in the spec.
    pub fn name(self) -> &'static str {
        match self {
            PastryState::Init => "init",
            PastryState::Joining => "joining",
            PastryState::Joined => "joined",
        }
    }
}

/// Decoded fields of `join_req`.
pub struct MsgJoinReq {
    pub who: Option<NodeId>,
    pub hop: i64,
}

fn dec_join_req(r: &mut WireRef) -> Result<MsgJoinReq, DecodeError> {
    Ok(MsgJoinReq {
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
        hop: (r.u64()? as i64),
    })
}

/// Decoded fields of `join_done`.
pub struct MsgJoinDone {
    pub leaves: Vec<NodeId>,
    pub rows: Vec<NodeId>,
}

fn dec_join_done(r: &mut WireRef) -> Result<MsgJoinDone, DecodeError> {
    Ok(MsgJoinDone {
        leaves: r.nodes()?,
        rows: r.nodes()?,
    })
}

/// Decoded fields of `state_push`.
pub struct MsgStatePush {
    pub leaves: Vec<NodeId>,
    pub rows: Vec<NodeId>,
}

fn dec_state_push(r: &mut WireRef) -> Result<MsgStatePush, DecodeError> {
    Ok(MsgStatePush {
        leaves: r.nodes()?,
        rows: r.nodes()?,
    })
}

/// Decoded fields of `state_pull`.
pub struct MsgStatePull {
}

fn dec_state_pull(r: &mut WireRef) -> Result<MsgStatePull, DecodeError> {
    Ok(MsgStatePull {
    })
}

/// Decoded fields of `keepalive`.
pub struct MsgKeepalive {
}

fn dec_keepalive(r: &mut WireRef) -> Result<MsgKeepalive, DecodeError> {
    Ok(MsgKeepalive {
    })
}

/// Decoded fields of `keepalive_ack`.
pub struct MsgKeepaliveAck {
}

fn dec_keepalive_ack(r: &mut WireRef) -> Result<MsgKeepaliveAck, DecodeError> {
    Ok(MsgKeepaliveAck {
    })
}

/// Decoded fields of `repair_req`.
pub struct MsgRepairReq {
    pub missing: MacedonKey,
}

fn dec_repair_req(r: &mut WireRef) -> Result<MsgRepairReq, DecodeError> {
    Ok(MsgRepairReq {
        missing: r.key()?,
    })
}

/// Decoded fields of `route_msg`.
pub struct MsgRouteMsg {
    pub dst: MacedonKey,
    pub origin: Option<NodeId>,
    pub hop: i64,
    pub body: Bytes,
}

fn dec_route_msg(r: &mut WireRef) -> Result<MsgRouteMsg, DecodeError> {
    Ok(MsgRouteMsg {
        dst: r.key()?,
        origin: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
        hop: (r.u64()? as i64),
        body: r.bytes()?,
    })
}

/// The `pastry` protocol agent, one FSM instance per node.
pub struct Pastry {
    state: PastryState,
    bootstrap: Option<NodeId>,
    __port: Port,
    /// Transitions fired (observability / tests).
    pub transitions_fired: u64,
    leaves: Vec<NodeId>,
    rows: Vec<NodeId>,
    near: Vec<NodeId>,
    lscratch: Vec<NodeId>,
    rscratch: Vec<NodeId>,
    joins_forwarded: i64,
    msgs_routed: i64,
    plen: i64,
    cand: Option<NodeId>,
    worst: Option<NodeId>,
}

impl Pastry {
    /// Instantiate one stack layer; `bootstrap` is the rendezvous
    /// node handed to every layer (`None` for the designated root).
    pub fn new(bootstrap: Option<NodeId>) -> Pastry {
        Pastry {
            state: PastryState::Init,
            bootstrap,
            __port: Port::default(),
            transitions_fired: 0,
            leaves: Vec::new(),
            rows: Vec::new(),
            near: Vec::new(),
            lscratch: Vec::new(),
            rscratch: Vec::new(),
            joins_forwarded: 0,
            msgs_routed: 0,
            plen: 0,
            cand: None,
            worst: None,
        }
    }

    #[inline(never)]
    fn t_api_init(&mut self, ctx: &mut Ctx) {
        if self.state == PastryState::Init {
            self.transitions_fired += 1;
            self.joins_forwarded = (0i64);
            self.msgs_routed = (0i64);
            if (self.bootstrap).is_none() {
                ctx.trace_fsm(self.state.name(), "joined");
                self.state = PastryState::Joined;
                ctx.timer_set(TIMER_KEEPALIVE_T, Duration::from_millis((KEEPALIVE_MS).max(0) as u64));
                ctx.timer_set(TIMER_REPAIR_T, Duration::from_millis((REPAIR_MS).max(0) as u64));
            } else {
                {
                    let __dest = self.bootstrap;
                    let __a0 = Some(ctx.me);
                    let __a1 = (0i64);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN_REQ);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    __w.u64(__a1 as u64);
                    if self.__port.send(ctx, LANE_JOIN_REQ, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                }
                ctx.trace_fsm(self.state.name(), "joining");
                self.state = PastryState::Joining;
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
            return;
        }
    }

    #[inline(never)]
    fn t_api_route(&mut self, ctx: &mut Ctx, dest: MacedonKey, payload: Bytes) {
        if self.state == PastryState::Joined {
            self.transitions_fired += 1;
            self.msgs_routed = self.msgs_routed.wrapping_add((1i64));
            self.plen = key::dsl_prefix_len(Some(ctx.my_key), Some(dest));
            self.cand = None::<NodeId>;
            for fe_r in self.rows.clone() {
                if (key::dsl_prefix_len((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest)) > self.plen) {
                    if (self.cand).is_none() {
                        self.cand = Some(fe_r);
                    } else {
                        if (key::dsl_prefix_len((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest)) > key::dsl_prefix_len((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest))) {
                            self.cand = Some(fe_r);
                        }
                    }
                }
            }
            for fe_l in self.leaves.clone() {
                if (key::dsl_prefix_len((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest)) > self.plen) {
                    if (self.cand).is_none() {
                        self.cand = Some(fe_l);
                    } else {
                        if (key::dsl_prefix_len((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest)) > key::dsl_prefix_len((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest))) {
                            self.cand = Some(fe_l);
                        }
                    }
                }
            }
            if (self.cand).is_none() {
                for fe_r in self.rows.clone() {
                    if (key::dsl_prefix_len((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest)) >= self.plen) {
                        if (key::dsl_ring_dist((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest)) < key::dsl_ring_dist(Some(ctx.my_key), Some(dest))) {
                            if (self.cand).is_none() {
                                self.cand = Some(fe_r);
                            } else {
                                if (key::dsl_ring_dist((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest)) < key::dsl_ring_dist((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest))) {
                                    self.cand = Some(fe_r);
                                }
                            }
                        }
                    }
                }
                for fe_l in self.leaves.clone() {
                    if (key::dsl_prefix_len((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest)) >= self.plen) {
                        if (key::dsl_ring_dist((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest)) < key::dsl_ring_dist(Some(ctx.my_key), Some(dest))) {
                            if (self.cand).is_none() {
                                self.cand = Some(fe_l);
                            } else {
                                if (key::dsl_ring_dist((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest)) < key::dsl_ring_dist((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(dest))) {
                                    self.cand = Some(fe_l);
                                }
                            }
                        }
                    }
                }
            }
            if (self.cand).is_none() {
                {
                    let __src = dest;
                    let __pl = payload.clone();
                    ctx.up(UpCall::Deliver { src: __src, from: ctx.me, payload: __pl });
                }
                return;
            }
            {
                let __dest = self.cand;
                let __a0 = dest;
                let __a1 = Some(ctx.me);
                let __a2 = (1i64);
                let __a3 = payload.clone();
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_ROUTE_MSG);
                __w.key(__a0);
                __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                __w.u64(__a2 as u64);
                __w.bytes(&__a3);
                if self.__port.send(ctx, LANE_ROUTE_MSG, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a3.is_empty() { Some(__a3.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_join_req(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgJoinReq) {
        if self.state == PastryState::Joined {
            self.transitions_fired += 1;
            if (m.who == Some(ctx.me)) {
                return;
            }
            self.joins_forwarded = self.joins_forwarded.wrapping_add((1i64));
            {
                let __dest = m.who;
                let __a0 = &self.leaves;
                let __a1 = &self.rows;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_STATE_PUSH);
                __w.nodes(__a0);
                __w.nodes(__a1);
                if self.__port.send(ctx, LANE_STATE_PUSH, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            }
            self.plen = key::dsl_prefix_len(Some(ctx.my_key), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing)));
            self.cand = None::<NodeId>;
            for fe_r in self.rows.clone() {
                if (!(Some(fe_r) == m.who)) {
                    if (key::dsl_prefix_len((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) > self.plen) {
                        if (self.cand).is_none() {
                            self.cand = Some(fe_r);
                        } else {
                            if (key::dsl_prefix_len((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) > key::dsl_prefix_len((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing)))) {
                                self.cand = Some(fe_r);
                            }
                        }
                    }
                }
            }
            for fe_l in self.leaves.clone() {
                if (!(Some(fe_l) == m.who)) {
                    if (key::dsl_prefix_len((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) > self.plen) {
                        if (self.cand).is_none() {
                            self.cand = Some(fe_l);
                        } else {
                            if (key::dsl_prefix_len((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) > key::dsl_prefix_len((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing)))) {
                                self.cand = Some(fe_l);
                            }
                        }
                    }
                }
            }
            if (self.cand).is_none() {
                for fe_r in self.rows.clone() {
                    if (!(Some(fe_r) == m.who)) {
                        if (key::dsl_prefix_len((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) >= self.plen) {
                            if (key::dsl_ring_dist((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) < key::dsl_ring_dist(Some(ctx.my_key), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing)))) {
                                if (self.cand).is_none() {
                                    self.cand = Some(fe_r);
                                } else {
                                    if (key::dsl_ring_dist((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) < key::dsl_ring_dist((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing)))) {
                                        self.cand = Some(fe_r);
                                    }
                                }
                            }
                        }
                    }
                }
                for fe_l in self.leaves.clone() {
                    if (!(Some(fe_l) == m.who)) {
                        if (key::dsl_prefix_len((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) >= self.plen) {
                            if (key::dsl_ring_dist((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) < key::dsl_ring_dist(Some(ctx.my_key), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing)))) {
                                if (self.cand).is_none() {
                                    self.cand = Some(fe_l);
                                } else {
                                    if (key::dsl_ring_dist((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing))) < key::dsl_ring_dist((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), (m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing)))) {
                                        self.cand = Some(fe_l);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if let Some(__n) = m.who {
                if !self.rows.contains(&__n) && self.rows.len() < 16usize {
                    self.rows.push(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            if (!(m.who).map_or(false, |__q| self.leaves.contains(&__q))) {
                if ((self.leaves.len() as i64) < LEAF_SIZE) {
                    if let Some(__n) = m.who {
                        if !self.leaves.contains(&__n) && self.leaves.len() < 8usize {
                            self.leaves.push(__n);
                            ctx.monitor(__n);
                        }
                    } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                } else {
                    self.worst = None::<NodeId>;
                    for fe_w in self.leaves.clone() {
                        if (self.worst).is_none() {
                            self.worst = Some(fe_w);
                        } else {
                            if (key::dsl_ring_dist((Some(fe_w)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) > key::dsl_ring_dist((self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key))) {
                                self.worst = Some(fe_w);
                            }
                        }
                    }
                    if (key::dsl_ring_dist((m.who).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) < key::dsl_ring_dist((self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key))) {
                        if let Some(__n) = self.worst {
                            self.leaves.retain(|&__x| __x != __n);
                            ctx.unmonitor(__n);
                        } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                        if let Some(__n) = m.who {
                            if !self.leaves.contains(&__n) && self.leaves.len() < 8usize {
                                self.leaves.push(__n);
                                ctx.monitor(__n);
                            }
                        } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                    }
                }
            }
            if (self.cand).is_none() {
                {
                    let __dest = m.who;
                    let __a0 = &self.leaves;
                    let __a1 = &self.rows;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN_DONE);
                    __w.nodes(__a0);
                    __w.nodes(__a1);
                    if self.__port.send(ctx, LANE_JOIN_DONE, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                }
                return;
            }
            if (m.hop >= MAX_HOPS) {
                {
                    let __dest = m.who;
                    let __a0 = &self.leaves;
                    let __a1 = &self.rows;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN_DONE);
                    __w.nodes(__a0);
                    __w.nodes(__a1);
                    if self.__port.send(ctx, LANE_JOIN_DONE, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                }
                return;
            }
            {
                let __dest = self.cand;
                let __a0 = m.who;
                let __a1 = m.hop.wrapping_add((1i64));
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN_REQ);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                __w.u64(__a1 as u64);
                if self.__port.send(ctx, LANE_JOIN_REQ, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_join_done(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgJoinDone) {
        if self.state == PastryState::Joining {
            self.transitions_fired += 1;
            {
                let mut __ns: Vec<NodeId> = m.rows.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(16usize);
                self.rscratch = __ns;
            }
            for fe_r in self.rscratch.clone() {
                if let Some(__n) = Some(fe_r) {
                    if !self.rows.contains(&__n) && self.rows.len() < 16usize {
                        self.rows.push(__n);
                    }
                } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            }
            {
                let mut __ns: Vec<NodeId> = m.leaves.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(8usize);
                self.lscratch = __ns;
            }
            for fe_c in self.lscratch.clone() {
                if (!(Some(fe_c)).map_or(false, |__q| self.leaves.contains(&__q))) {
                    if ((self.leaves.len() as i64) < LEAF_SIZE) {
                        if let Some(__n) = Some(fe_c) {
                            if !self.leaves.contains(&__n) && self.leaves.len() < 8usize {
                                self.leaves.push(__n);
                                ctx.monitor(__n);
                            }
                        } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                    } else {
                        self.worst = None::<NodeId>;
                        for fe_w in self.leaves.clone() {
                            if (self.worst).is_none() {
                                self.worst = Some(fe_w);
                            } else {
                                if (key::dsl_ring_dist((Some(fe_w)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) > key::dsl_ring_dist((self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key))) {
                                    self.worst = Some(fe_w);
                                }
                            }
                        }
                        if (key::dsl_ring_dist((Some(fe_c)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) < key::dsl_ring_dist((self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key))) {
                            if let Some(__n) = self.worst {
                                self.leaves.retain(|&__x| __x != __n);
                                ctx.unmonitor(__n);
                            } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                            if let Some(__n) = Some(fe_c) {
                                if !self.leaves.contains(&__n) && self.leaves.len() < 8usize {
                                    self.leaves.push(__n);
                                    ctx.monitor(__n);
                                }
                            } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                        }
                    }
                }
            }
            if let Some(__n) = Some(from) {
                if !self.rows.contains(&__n) && self.rows.len() < 16usize {
                    self.rows.push(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            if (!(Some(from)).map_or(false, |__q| self.leaves.contains(&__q))) {
                if ((self.leaves.len() as i64) < LEAF_SIZE) {
                    if let Some(__n) = Some(from) {
                        if !self.leaves.contains(&__n) && self.leaves.len() < 8usize {
                            self.leaves.push(__n);
                            ctx.monitor(__n);
                        }
                    } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                } else {
                    self.worst = None::<NodeId>;
                    for fe_w in self.leaves.clone() {
                        if (self.worst).is_none() {
                            self.worst = Some(fe_w);
                        } else {
                            if (key::dsl_ring_dist((Some(fe_w)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) > key::dsl_ring_dist((self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key))) {
                                self.worst = Some(fe_w);
                            }
                        }
                    }
                    if (key::dsl_ring_dist((Some(from)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) < key::dsl_ring_dist((self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key))) {
                        if let Some(__n) = self.worst {
                            self.leaves.retain(|&__x| __x != __n);
                            ctx.unmonitor(__n);
                        } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                        if let Some(__n) = Some(from) {
                            if !self.leaves.contains(&__n) && self.leaves.len() < 8usize {
                                self.leaves.push(__n);
                                ctx.monitor(__n);
                            }
                        } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                    }
                }
            }
            ctx.timer_cancel(TIMER_RETRY_JOIN);
            ctx.trace_fsm(self.state.name(), "joined");
            self.state = PastryState::Joined;
            ctx.timer_set(TIMER_KEEPALIVE_T, Duration::from_millis((KEEPALIVE_MS).max(0) as u64));
            ctx.timer_set(TIMER_REPAIR_T, Duration::from_millis((REPAIR_MS).max(0) as u64));
            for fe_l in self.leaves.clone() {
                {
                    let __dest = Some(fe_l);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_STATE_PULL);
                    if self.__port.send(ctx, LANE_STATE_PULL, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_state_push(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgStatePush) {
        if !(self.state == PastryState::Init) {
            self.transitions_fired += 1;
            {
                let mut __ns: Vec<NodeId> = m.rows.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(16usize);
                self.rscratch = __ns;
            }
            for fe_r in self.rscratch.clone() {
                if let Some(__n) = Some(fe_r) {
                    if !self.rows.contains(&__n) && self.rows.len() < 16usize {
                        self.rows.push(__n);
                    }
                } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            }
            {
                let mut __ns: Vec<NodeId> = m.leaves.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(8usize);
                self.lscratch = __ns;
            }
            for fe_c in self.lscratch.clone() {
                if (!(Some(fe_c)).map_or(false, |__q| self.leaves.contains(&__q))) {
                    if ((self.leaves.len() as i64) < LEAF_SIZE) {
                        if let Some(__n) = Some(fe_c) {
                            if !self.leaves.contains(&__n) && self.leaves.len() < 8usize {
                                self.leaves.push(__n);
                                ctx.monitor(__n);
                            }
                        } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                    } else {
                        self.worst = None::<NodeId>;
                        for fe_w in self.leaves.clone() {
                            if (self.worst).is_none() {
                                self.worst = Some(fe_w);
                            } else {
                                if (key::dsl_ring_dist((Some(fe_w)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) > key::dsl_ring_dist((self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key))) {
                                    self.worst = Some(fe_w);
                                }
                            }
                        }
                        if (key::dsl_ring_dist((Some(fe_c)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) < key::dsl_ring_dist((self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key))) {
                            if let Some(__n) = self.worst {
                                self.leaves.retain(|&__x| __x != __n);
                                ctx.unmonitor(__n);
                            } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                            if let Some(__n) = Some(fe_c) {
                                if !self.leaves.contains(&__n) && self.leaves.len() < 8usize {
                                    self.leaves.push(__n);
                                    ctx.monitor(__n);
                                }
                            } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                        }
                    }
                }
            }
            if let Some(__n) = Some(from) {
                if !self.rows.contains(&__n) && self.rows.len() < 16usize {
                    self.rows.push(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            if (!(Some(from)).map_or(false, |__q| self.leaves.contains(&__q))) {
                if ((self.leaves.len() as i64) < LEAF_SIZE) {
                    if let Some(__n) = Some(from) {
                        if !self.leaves.contains(&__n) && self.leaves.len() < 8usize {
                            self.leaves.push(__n);
                            ctx.monitor(__n);
                        }
                    } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                } else {
                    self.worst = None::<NodeId>;
                    for fe_w in self.leaves.clone() {
                        if (self.worst).is_none() {
                            self.worst = Some(fe_w);
                        } else {
                            if (key::dsl_ring_dist((Some(fe_w)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) > key::dsl_ring_dist((self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key))) {
                                self.worst = Some(fe_w);
                            }
                        }
                    }
                    if (key::dsl_ring_dist((Some(from)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key)) < key::dsl_ring_dist((self.worst).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(ctx.my_key))) {
                        if let Some(__n) = self.worst {
                            self.leaves.retain(|&__x| __x != __n);
                            ctx.unmonitor(__n);
                        } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                        if let Some(__n) = Some(from) {
                            if !self.leaves.contains(&__n) && self.leaves.len() < 8usize {
                                self.leaves.push(__n);
                                ctx.monitor(__n);
                            }
                        } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                    }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_state_pull(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgStatePull) {
        if self.state == PastryState::Joined {
            self.transitions_fired += 1;
            {
                let __dest = Some(from);
                let __a0 = &self.leaves;
                let __a1 = &self.rows;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_STATE_PUSH);
                __w.nodes(__a0);
                __w.nodes(__a1);
                if self.__port.send(ctx, LANE_STATE_PUSH, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            }
            if let Some(__n) = Some(from) {
                if !self.near.contains(&__n) && self.near.len() < 8usize {
                    self.near.push(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_keepalive(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgKeepalive) {
        self.transitions_fired += 1;
        {
            let __dest = Some(from);
            let mut __w = WireWriter::new();
            __w.u16(PROTOCOL_ID).u16(MSG_KEEPALIVE_ACK);
            if self.__port.send(ctx, LANE_KEEPALIVE_ACK, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
        }
        if let Some(__n) = Some(from) {
            if !self.near.contains(&__n) && self.near.len() < 8usize {
                self.near.push(__n);
            }
        } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
    }

    #[inline(never)]
    fn t_recv_keepalive_ack(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgKeepaliveAck) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            if !self.near.contains(&__n) && self.near.len() < 8usize {
                self.near.push(__n);
            }
        } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
    }

    #[inline(never)]
    fn t_recv_repair_req(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgRepairReq) {
        if self.state == PastryState::Joined {
            self.transitions_fired += 1;
            {
                let __dest = Some(from);
                let __a0 = &self.leaves;
                let __a1 = &self.rows;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_STATE_PUSH);
                __w.nodes(__a0);
                __w.nodes(__a1);
                if self.__port.send(ctx, LANE_STATE_PUSH, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_route_msg(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgRouteMsg) {
        if !(self.state == PastryState::Init) {
            self.transitions_fired += 1;
            if (m.hop >= MAX_HOPS) {
                {
                    let __src = m.dst;
                    let __pl = m.body.clone();
                    ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
                }
                return;
            }
            self.plen = key::dsl_prefix_len(Some(ctx.my_key), Some(m.dst));
            self.cand = None::<NodeId>;
            for fe_r in self.rows.clone() {
                if (key::dsl_prefix_len((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst)) > self.plen) {
                    if (self.cand).is_none() {
                        self.cand = Some(fe_r);
                    } else {
                        if (key::dsl_prefix_len((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst)) > key::dsl_prefix_len((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst))) {
                            self.cand = Some(fe_r);
                        }
                    }
                }
            }
            for fe_l in self.leaves.clone() {
                if (key::dsl_prefix_len((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst)) > self.plen) {
                    if (self.cand).is_none() {
                        self.cand = Some(fe_l);
                    } else {
                        if (key::dsl_prefix_len((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst)) > key::dsl_prefix_len((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst))) {
                            self.cand = Some(fe_l);
                        }
                    }
                }
            }
            if (self.cand).is_none() {
                for fe_r in self.rows.clone() {
                    if (key::dsl_prefix_len((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst)) >= self.plen) {
                        if (key::dsl_ring_dist((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst)) < key::dsl_ring_dist(Some(ctx.my_key), Some(m.dst))) {
                            if (self.cand).is_none() {
                                self.cand = Some(fe_r);
                            } else {
                                if (key::dsl_ring_dist((Some(fe_r)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst)) < key::dsl_ring_dist((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst))) {
                                    self.cand = Some(fe_r);
                                }
                            }
                        }
                    }
                }
                for fe_l in self.leaves.clone() {
                    if (key::dsl_prefix_len((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst)) >= self.plen) {
                        if (key::dsl_ring_dist((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst)) < key::dsl_ring_dist(Some(ctx.my_key), Some(m.dst))) {
                            if (self.cand).is_none() {
                                self.cand = Some(fe_l);
                            } else {
                                if (key::dsl_ring_dist((Some(fe_l)).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst)) < key::dsl_ring_dist((self.cand).map(|__n| MacedonKey::of_node(__n, ctx.addressing)), Some(m.dst))) {
                                    self.cand = Some(fe_l);
                                }
                            }
                        }
                    }
                }
            }
            if (self.cand).is_none() {
                {
                    let __src = m.dst;
                    let __pl = m.body.clone();
                    ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
                }
                return;
            }
            {
                let __dest = self.cand;
                let __a0 = m.dst;
                let __a1 = m.origin;
                let __a2 = m.hop.wrapping_add((1i64));
                let __a3 = m.body.clone();
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_ROUTE_MSG);
                __w.key(__a0);
                __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                __w.u64(__a2 as u64);
                __w.bytes(&__a3);
                if self.__port.send(ctx, LANE_ROUTE_MSG, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a3.is_empty() { Some(__a3.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_timer_keepalive_t(&mut self, ctx: &mut Ctx) {
        if self.state == PastryState::Joined {
            self.transitions_fired += 1;
            for fe_l in self.leaves.clone() {
                {
                    let __dest = Some(fe_l);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_KEEPALIVE);
                    if self.__port.send(ctx, LANE_KEEPALIVE, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                }
            }
            ctx.timer_set(TIMER_KEEPALIVE_T, Duration::from_millis((KEEPALIVE_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_timer_repair_t(&mut self, ctx: &mut Ctx) {
        if self.state == PastryState::Joined {
            self.transitions_fired += 1;
            if ((self.leaves.len() as i64) < LEAF_SIZE) {
                {
                    let __dest = (if self.near.is_empty() { None } else { Some(self.near[ctx.rng.index(self.near.len())]) });
                    let __a0 = ctx.my_key;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_REPAIR_REQ);
                    __w.key(__a0);
                    if self.__port.send(ctx, LANE_REPAIR_REQ, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                }
            }
            ctx.timer_set(TIMER_REPAIR_T, Duration::from_millis((REPAIR_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_timer_retry_join(&mut self, ctx: &mut Ctx) {
        if self.state == PastryState::Joining {
            self.transitions_fired += 1;
            {
                let __dest = self.bootstrap;
                let __a0 = Some(ctx.me);
                let __a1 = (0i64);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN_REQ);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                __w.u64(__a1 as u64);
                if self.__port.send(ctx, LANE_JOIN_REQ, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
            }
            ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_error(&mut self, ctx: &mut Ctx, from: NodeId) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.rows.retain(|&__x| __x != __n);
        } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
        if let Some(__n) = Some(from) {
            self.near.retain(|&__x| __x != __n);
        } else { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
        if ((self.leaves.len() as i64) == (0i64)) {
            if (!(self.bootstrap).is_none()) {
                ctx.trace_fsm(self.state.name(), "joining");
                self.state = PastryState::Joining;
                {
                    let __dest = self.bootstrap;
                    let __a0 = Some(ctx.me);
                    let __a1 = (0i64);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN_REQ);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    __w.u64(__a1 as u64);
                    if self.__port.send(ctx, LANE_JOIN_REQ, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "pastry: runtime error: null where a value is required"); return; }
                }
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
        }
    }

}

impl SpecBody for Pastry {
    const AGENT_NAME: &'static str = "pastry";

    fn shape(&self) -> Shape<'_> {
        Shape { name: "pastry", proto: PROTOCOL_ID, layered: false, channels: 2, messages: 8, timers: 3 }
    }

    fn port(&mut self) -> &mut Port {
        &mut self.__port
    }

    fn state(&self) -> &str {
        self.state.name()
    }

    fn lists(&self) -> Vec<(&str, &[NodeId])> {
        vec![("leaves", self.leaves.as_slice()), ("rows", self.rows.as_slice()), ("near", self.near.as_slice()), ("lscratch", self.lscratch.as_slice()), ("rscratch", self.rscratch.as_slice())]
    }

    fn fail_detect(&mut self, mut f: impl FnMut(&mut Vec<NodeId>)) {
        f(&mut self.leaves);
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
            MSG_JOIN_REQ => self.t_recv_join_req(ctx, from, &dec_join_req(r)?),
            MSG_JOIN_DONE => self.t_recv_join_done(ctx, from, &dec_join_done(r)?),
            MSG_STATE_PUSH => self.t_recv_state_push(ctx, from, &dec_state_push(r)?),
            MSG_STATE_PULL => self.t_recv_state_pull(ctx, from, &dec_state_pull(r)?),
            MSG_KEEPALIVE => self.t_recv_keepalive(ctx, from, &dec_keepalive(r)?),
            MSG_KEEPALIVE_ACK => self.t_recv_keepalive_ack(ctx, from, &dec_keepalive_ack(r)?),
            MSG_REPAIR_REQ => self.t_recv_repair_req(ctx, from, &dec_repair_req(r)?),
            MSG_ROUTE_MSG => self.t_recv_route_msg(ctx, from, &dec_route_msg(r)?),
            _ => {},
        }
        Ok(())
    }

    fn fire_timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_KEEPALIVE_T => self.t_timer_keepalive_t(ctx),
            TIMER_REPAIR_T => self.t_timer_repair_t(ctx),
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
