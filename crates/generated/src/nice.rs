//! `Nice` — generated by macedon-lang from `nice.mac`. **Do not edit**:
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

/// Well-known protocol id of `nice` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 58762;
const MSG_JOIN_QUERY: u16 = 0;
const MSG_CLUSTER_LIST: u16 = 1;
const MSG_ATTACH: u16 = 2;
const MSG_ATTACH_OK: u16 = 3;
const MSG_LEADER_IS: u16 = 4;
const MSG_SPLIT_HALF: u16 = 5;
const MSG_MERGE_INTO: u16 = 6;
const MSG_HEARTBEAT: u16 = 7;
const MSG_PROBE_HB: u16 = 8;
const MSG_MDATA: u16 = 9;
const LANE_JOIN_QUERY: Lane = Lane::Wire(ChannelId(0));
const LANE_CLUSTER_LIST: Lane = Lane::Wire(ChannelId(0));
const LANE_ATTACH: Lane = Lane::Wire(ChannelId(0));
const LANE_ATTACH_OK: Lane = Lane::Wire(ChannelId(0));
const LANE_LEADER_IS: Lane = Lane::Wire(ChannelId(0));
const LANE_SPLIT_HALF: Lane = Lane::Wire(ChannelId(0));
const LANE_MERGE_INTO: Lane = Lane::Wire(ChannelId(0));
const LANE_HEARTBEAT: Lane = Lane::Wire(ChannelId(1));
const LANE_PROBE_HB: Lane = Lane::Wire(ChannelId(1));
const LANE_MDATA: Lane = Lane::Wire(ChannelId(1));
const TIMER_HEARTBEAT_T: u16 = 0;
const TIMER_REFINE_T: u16 = 1;
const TIMER_PROBE_T: u16 = 2;
const TIMER_RETRY_JOIN: u16 = 3;
const KDEG: i64 = 3;
const MAX_CLUSTER: i64 = 9;
const MIN_CLUSTER: i64 = 2;
const HEARTBEAT_MS: i64 = 2000;
const REFINE_MS: i64 = 10000;
const JOIN_PROBE_MS: i64 = 1000;
const RETRY_MS: i64 = 5000;
const MAX_LAYERS: i64 = 8;

/// FSM states of `nice` (`init` is implicit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NiceState {
    Init,
    ProbingLayer,
    Member,
    Leader,
}

impl NiceState {
    /// The state's name in the spec.
    pub fn name(self) -> &'static str {
        match self {
            NiceState::Init => "init",
            NiceState::ProbingLayer => "probing_layer",
            NiceState::Member => "member",
            NiceState::Leader => "leader",
        }
    }
}

/// Decoded fields of `join_query`.
pub struct MsgJoinQuery {
    pub who: Option<NodeId>,
    pub layer: i64,
}

fn dec_join_query(r: &mut WireRef) -> Result<MsgJoinQuery, DecodeError> {
    Ok(MsgJoinQuery {
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
        layer: (r.u64()? as i64),
    })
}

/// Decoded fields of `cluster_list`.
pub struct MsgClusterList {
    pub members: Vec<NodeId>,
    pub layer: i64,
}

fn dec_cluster_list(r: &mut WireRef) -> Result<MsgClusterList, DecodeError> {
    Ok(MsgClusterList {
        members: r.nodes()?,
        layer: (r.u64()? as i64),
    })
}

/// Decoded fields of `attach`.
pub struct MsgAttach {
    pub who: Option<NodeId>,
}

fn dec_attach(r: &mut WireRef) -> Result<MsgAttach, DecodeError> {
    Ok(MsgAttach {
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `attach_ok`.
pub struct MsgAttachOk {
    pub members: Vec<NodeId>,
}

fn dec_attach_ok(r: &mut WireRef) -> Result<MsgAttachOk, DecodeError> {
    Ok(MsgAttachOk {
        members: r.nodes()?,
    })
}

/// Decoded fields of `leader_is`.
pub struct MsgLeaderIs {
    pub who: Option<NodeId>,
    pub layer: i64,
}

fn dec_leader_is(r: &mut WireRef) -> Result<MsgLeaderIs, DecodeError> {
    Ok(MsgLeaderIs {
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
        layer: (r.u64()? as i64),
    })
}

/// Decoded fields of `split_half`.
pub struct MsgSplitHalf {
    pub members: Vec<NodeId>,
}

fn dec_split_half(r: &mut WireRef) -> Result<MsgSplitHalf, DecodeError> {
    Ok(MsgSplitHalf {
        members: r.nodes()?,
    })
}

/// Decoded fields of `merge_into`.
pub struct MsgMergeInto {
    pub target: Option<NodeId>,
}

fn dec_merge_into(r: &mut WireRef) -> Result<MsgMergeInto, DecodeError> {
    Ok(MsgMergeInto {
        target: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `heartbeat`.
pub struct MsgHeartbeat {
    pub layer: i64,
}

fn dec_heartbeat(r: &mut WireRef) -> Result<MsgHeartbeat, DecodeError> {
    Ok(MsgHeartbeat {
        layer: (r.u64()? as i64),
    })
}

/// Decoded fields of `probe_hb`.
pub struct MsgProbeHb {
}

fn dec_probe_hb(r: &mut WireRef) -> Result<MsgProbeHb, DecodeError> {
    Ok(MsgProbeHb {
    })
}

/// Decoded fields of `mdata`.
pub struct MsgMdata {
    pub src: MacedonKey,
    pub body: Bytes,
}

fn dec_mdata(r: &mut WireRef) -> Result<MsgMdata, DecodeError> {
    Ok(MsgMdata {
        src: r.key()?,
        body: r.bytes()?,
    })
}

/// The `nice` protocol agent, one FSM instance per node.
pub struct Nice {
    state: NiceState,
    bootstrap: Option<NodeId>,
    __port: Port,
    /// Transitions fired (observability / tests).
    pub transitions_fired: u64,
    peers: Vec<NodeId>,
    uppeers: Vec<NodeId>,
    candidates: Vec<NodeId>,
    my_leader: Option<NodeId>,
    layer: i64,
    hb_seen: i64,
}

impl Nice {
    /// Instantiate one stack layer; `bootstrap` is the rendezvous
    /// node handed to every layer (`None` for the designated root).
    pub fn new(bootstrap: Option<NodeId>) -> Nice {
        Nice {
            state: NiceState::Init,
            bootstrap,
            __port: Port::default(),
            transitions_fired: 0,
            peers: Vec::new(),
            uppeers: Vec::new(),
            candidates: Vec::new(),
            my_leader: None,
            layer: 0,
            hb_seen: 0,
        }
    }

    #[inline(never)]
    fn t_api_init(&mut self, ctx: &mut Ctx) {
        if self.state == NiceState::Init {
            self.transitions_fired += 1;
            self.layer = (0i64);
            self.hb_seen = (0i64);
            if (self.bootstrap).is_none() {
                ctx.trace_fsm(self.state.name(), "leader");
                self.state = NiceState::Leader;
                ctx.timer_set(TIMER_HEARTBEAT_T, Duration::from_millis((HEARTBEAT_MS).max(0) as u64));
                ctx.timer_set(TIMER_REFINE_T, Duration::from_millis((REFINE_MS).max(0) as u64));
            } else {
                {
                    let __dest = self.bootstrap;
                    let __a0 = Some(ctx.me);
                    let __a1 = (0i64);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN_QUERY);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    __w.u64(__a1 as u64);
                    if self.__port.send(ctx, LANE_JOIN_QUERY, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
                ctx.trace_fsm(self.state.name(), "probing_layer");
                self.state = NiceState::ProbingLayer;
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
            return;
        }
    }

    #[inline(never)]
    fn t_api_multicast(&mut self, ctx: &mut Ctx, group: MacedonKey, payload: Bytes) {
        if !((self.state == NiceState::Init || self.state == NiceState::ProbingLayer)) {
            self.transitions_fired += 1;
            for fe_p in self.peers.clone() {
                {
                    let __dest = Some(fe_p);
                    let __a0 = ctx.my_key;
                    let __a1 = payload.clone();
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_MDATA);
                    __w.key(__a0);
                    __w.bytes(&__a1);
                    if self.__port.send(ctx, LANE_MDATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            }
            if (!(self.my_leader).is_none()) {
                {
                    let __dest = self.my_leader;
                    let __a0 = ctx.my_key;
                    let __a1 = payload.clone();
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_MDATA);
                    __w.key(__a0);
                    __w.bytes(&__a1);
                    if self.__port.send(ctx, LANE_MDATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_join_query(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgJoinQuery) {
        if self.state == NiceState::Leader {
            self.transitions_fired += 1;
            if (m.who == Some(ctx.me)) {
                return;
            }
            {
                let __dest = m.who;
                let __a0 = &self.peers;
                let __a1 = self.layer;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_CLUSTER_LIST);
                __w.nodes(__a0);
                __w.u64(__a1 as u64);
                if self.__port.send(ctx, LANE_CLUSTER_LIST, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
            }
            return;
        }
        if self.state == NiceState::Member {
            self.transitions_fired += 1;
            if (!(self.my_leader).is_none()) {
                {
                    let __dest = self.my_leader;
                    let __a0 = m.who;
                    let __a1 = m.layer;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN_QUERY);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    __w.u64(__a1 as u64);
                    if self.__port.send(ctx, LANE_JOIN_QUERY, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_cluster_list(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgClusterList) {
        if self.state == NiceState::ProbingLayer {
            self.transitions_fired += 1;
            {
                let mut __ns: Vec<NodeId> = m.members.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(9usize);
                self.candidates = __ns;
            }
            if ((self.candidates.len() as i64) == (0i64)) {
                {
                    let __dest = Some(from);
                    let __a0 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_ATTACH);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_ATTACH, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
                return;
            }
            for fe_c in self.candidates.clone() {
                {
                    let __dest = Some(fe_c);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PROBE_HB);
                    if self.__port.send(ctx, LANE_PROBE_HB, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            }
            ctx.timer_set(TIMER_PROBE_T, Duration::from_millis((JOIN_PROBE_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_recv_attach(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgAttach) {
        if self.state == NiceState::Leader {
            self.transitions_fired += 1;
            if let Some(__n) = m.who {
                if !self.peers.contains(&__n) && self.peers.len() < 9usize {
                    self.peers.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
            {
                let __dest = m.who;
                let __a0 = &self.peers;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_ATTACH_OK);
                __w.nodes(__a0);
                if self.__port.send(ctx, LANE_ATTACH_OK, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
            }
            if ((self.peers.len() as i64) > MAX_CLUSTER) {
                {
                    let __dest = (if self.peers.is_empty() { None } else { Some(self.peers[ctx.rng.index(self.peers.len())]) });
                    let __a0 = &self.peers;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_SPLIT_HALF);
                    __w.nodes(__a0);
                    if self.__port.send(ctx, LANE_SPLIT_HALF, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
        if self.state == NiceState::Member {
            self.transitions_fired += 1;
            if (!(self.my_leader).is_none()) {
                {
                    let __dest = self.my_leader;
                    let __a0 = m.who;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_ATTACH);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_ATTACH, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_attach_ok(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgAttachOk) {
        if self.state == NiceState::ProbingLayer {
            self.transitions_fired += 1;
            self.my_leader = Some(from);
            {
                let mut __ns: Vec<NodeId> = m.members.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(9usize);
                for __n in self.peers.iter() {
                    ctx.unmonitor(*__n);
                }
                for __n in __ns.iter() {
                    ctx.monitor(*__n);
                }
                self.peers = __ns;
            }
            if let Some(__n) = self.my_leader {
                ctx.monitor(__n);
            } else { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
            ctx.timer_cancel(TIMER_RETRY_JOIN);
            ctx.trace_fsm(self.state.name(), "member");
            self.state = NiceState::Member;
            ctx.timer_set(TIMER_HEARTBEAT_T, Duration::from_millis((HEARTBEAT_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_recv_leader_is(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgLeaderIs) {
        self.transitions_fired += 1;
        if (m.who == Some(ctx.me)) {
            ctx.trace_fsm(self.state.name(), "leader");
            self.state = NiceState::Leader;
            self.layer = m.layer;
            ctx.timer_set(TIMER_REFINE_T, Duration::from_millis((REFINE_MS).max(0) as u64));
        } else {
            self.my_leader = m.who;
        }
    }

    #[inline(never)]
    fn t_recv_split_half(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgSplitHalf) {
        self.transitions_fired += 1;
        {
            let mut __ns: Vec<NodeId> = m.members.clone();
            __ns.retain(|&__n| __n != ctx.me);
            __ns.truncate(9usize);
            for __n in self.peers.iter() {
                ctx.unmonitor(*__n);
            }
            for __n in __ns.iter() {
                ctx.monitor(*__n);
            }
            self.peers = __ns;
        }
        ctx.trace_fsm(self.state.name(), "leader");
        self.state = NiceState::Leader;
        {
            let __dest = (if self.peers.is_empty() { None } else { Some(self.peers[ctx.rng.index(self.peers.len())]) });
            let __a0 = Some(ctx.me);
            let __a1 = self.layer;
            let mut __w = WireWriter::new();
            __w.u16(PROTOCOL_ID).u16(MSG_LEADER_IS);
            __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
            __w.u64(__a1 as u64);
            if self.__port.send(ctx, LANE_LEADER_IS, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
        }
    }

    #[inline(never)]
    fn t_recv_merge_into(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgMergeInto) {
        self.transitions_fired += 1;
        if (!(m.target).is_none()) {
            {
                let __dest = m.target;
                let __a0 = Some(ctx.me);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_ATTACH);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                if self.__port.send(ctx, LANE_ATTACH, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
            }
            ctx.trace_fsm(self.state.name(), "probing_layer");
            self.state = NiceState::ProbingLayer;
        }
    }

    #[inline(never)]
    fn t_recv_heartbeat(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgHeartbeat) {
        self.transitions_fired += 1;
        self.hb_seen = self.hb_seen.wrapping_add((1i64));
        if let Some(__n) = Some(from) {
            if !self.peers.contains(&__n) && self.peers.len() < 9usize {
                self.peers.push(__n);
                ctx.monitor(__n);
            }
        } else { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
    }

    #[inline(never)]
    fn t_recv_probe_hb(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgProbeHb) {
        self.transitions_fired += 1;
        {
            let __dest = Some(from);
            let mut __w = WireWriter::new();
            __w.u16(PROTOCOL_ID).u16(MSG_PROBE_HB);
            if self.__port.send(ctx, LANE_PROBE_HB, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
        }
    }

    #[inline(never)]
    fn t_recv_mdata(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgMdata) {
        self.transitions_fired += 1;
        {
            let __src = m.src;
            let __pl = m.body.clone();
            ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
        }
        for fe_p in self.peers.clone() {
            if (!(Some(fe_p) == Some(from))) {
                {
                    let __dest = Some(fe_p);
                    let __a0 = m.src;
                    let __a1 = m.body.clone();
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_MDATA);
                    __w.key(__a0);
                    __w.bytes(&__a1);
                    if self.__port.send(ctx, LANE_MDATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            }
        }
        for fe_u in self.uppeers.clone() {
            if (!(Some(fe_u) == Some(from))) {
                {
                    let __dest = Some(fe_u);
                    let __a0 = m.src;
                    let __a1 = m.body.clone();
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_MDATA);
                    __w.key(__a0);
                    __w.bytes(&__a1);
                    if self.__port.send(ctx, LANE_MDATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            }
        }
    }

    #[inline(never)]
    fn t_timer_heartbeat_t(&mut self, ctx: &mut Ctx) {
        if !((self.state == NiceState::Init || self.state == NiceState::ProbingLayer)) {
            self.transitions_fired += 1;
            for fe_p in self.peers.clone() {
                {
                    let __dest = Some(fe_p);
                    let __a0 = self.layer;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_HEARTBEAT);
                    __w.u64(__a0 as u64);
                    if self.__port.send(ctx, LANE_HEARTBEAT, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            }
            for fe_u in self.uppeers.clone() {
                {
                    let __dest = Some(fe_u);
                    let __a0 = self.layer.wrapping_add((1i64));
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_HEARTBEAT);
                    __w.u64(__a0 as u64);
                    if self.__port.send(ctx, LANE_HEARTBEAT, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            }
            ctx.timer_set(TIMER_HEARTBEAT_T, Duration::from_millis((HEARTBEAT_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_timer_refine_t(&mut self, ctx: &mut Ctx) {
        if self.state == NiceState::Leader {
            self.transitions_fired += 1;
            if ((self.peers.len() as i64) > MAX_CLUSTER) {
                {
                    let __dest = (if self.peers.is_empty() { None } else { Some(self.peers[ctx.rng.index(self.peers.len())]) });
                    let __a0 = &self.peers;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_SPLIT_HALF);
                    __w.nodes(__a0);
                    if self.__port.send(ctx, LANE_SPLIT_HALF, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            }
            if ((self.peers.len() as i64) < MIN_CLUSTER) {
                if ((self.uppeers.len() as i64) > (0i64)) {
                    {
                        let __dest = (if self.peers.is_empty() { None } else { Some(self.peers[ctx.rng.index(self.peers.len())]) });
                        let __a0 = (if self.uppeers.is_empty() { None } else { Some(self.uppeers[ctx.rng.index(self.uppeers.len())]) });
                        let mut __w = WireWriter::new();
                        __w.u16(PROTOCOL_ID).u16(MSG_MERGE_INTO);
                        __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                        if self.__port.send(ctx, LANE_MERGE_INTO, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                    }
                }
            }
            ctx.timer_set(TIMER_REFINE_T, Duration::from_millis((REFINE_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_timer_probe_t(&mut self, ctx: &mut Ctx) {
        if self.state == NiceState::ProbingLayer {
            self.transitions_fired += 1;
            if ((self.candidates.len() as i64) > (0i64)) {
                {
                    let __dest = (if self.candidates.is_empty() { None } else { Some(self.candidates[ctx.rng.index(self.candidates.len())]) });
                    let __a0 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_ATTACH);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    if self.__port.send(ctx, LANE_ATTACH, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            } else {
                {
                    let __dest = self.bootstrap;
                    let __a0 = Some(ctx.me);
                    let __a1 = (0i64);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN_QUERY);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    __w.u64(__a1 as u64);
                    if self.__port.send(ctx, LANE_JOIN_QUERY, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_timer_retry_join(&mut self, ctx: &mut Ctx) {
        if self.state == NiceState::ProbingLayer {
            self.transitions_fired += 1;
            {
                let __dest = self.bootstrap;
                let __a0 = Some(ctx.me);
                let __a1 = (0i64);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN_QUERY);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                __w.u64(__a1 as u64);
                if self.__port.send(ctx, LANE_JOIN_QUERY, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
            }
            ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_error(&mut self, ctx: &mut Ctx, from: NodeId) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.uppeers.retain(|&__x| __x != __n);
        } else { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
        if let Some(__n) = Some(from) {
            self.candidates.retain(|&__x| __x != __n);
        } else { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
        if (self.my_leader == Some(from)) {
            self.my_leader = None::<NodeId>;
            ctx.trace_fsm(self.state.name(), "probing_layer");
            self.state = NiceState::ProbingLayer;
            {
                let __dest = self.bootstrap;
                let __a0 = Some(ctx.me);
                let __a1 = (0i64);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN_QUERY);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                __w.u64(__a1 as u64);
                if self.__port.send(ctx, LANE_JOIN_QUERY, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "nice: runtime error: null where a value is required"); return; }
            }
            ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
        }
    }

}

impl SpecBody for Nice {
    const AGENT_NAME: &'static str = "nice";

    fn shape(&self) -> Shape<'_> {
        Shape { name: "nice", proto: PROTOCOL_ID, layered: false, channels: 2, messages: 10, timers: 4 }
    }

    fn port(&mut self) -> &mut Port {
        &mut self.__port
    }

    fn state(&self) -> &str {
        self.state.name()
    }

    fn lists(&self) -> Vec<(&str, &[NodeId])> {
        vec![("peers", self.peers.as_slice()), ("uppeers", self.uppeers.as_slice()), ("candidates", self.candidates.as_slice())]
    }

    fn fail_detect(&mut self, mut f: impl FnMut(&mut Vec<NodeId>)) {
        f(&mut self.peers);
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
            MSG_JOIN_QUERY => self.t_recv_join_query(ctx, from, &dec_join_query(r)?),
            MSG_CLUSTER_LIST => self.t_recv_cluster_list(ctx, from, &dec_cluster_list(r)?),
            MSG_ATTACH => self.t_recv_attach(ctx, from, &dec_attach(r)?),
            MSG_ATTACH_OK => self.t_recv_attach_ok(ctx, from, &dec_attach_ok(r)?),
            MSG_LEADER_IS => self.t_recv_leader_is(ctx, from, &dec_leader_is(r)?),
            MSG_SPLIT_HALF => self.t_recv_split_half(ctx, from, &dec_split_half(r)?),
            MSG_MERGE_INTO => self.t_recv_merge_into(ctx, from, &dec_merge_into(r)?),
            MSG_HEARTBEAT => self.t_recv_heartbeat(ctx, from, &dec_heartbeat(r)?),
            MSG_PROBE_HB => self.t_recv_probe_hb(ctx, from, &dec_probe_hb(r)?),
            MSG_MDATA => self.t_recv_mdata(ctx, from, &dec_mdata(r)?),
            _ => {},
        }
        Ok(())
    }

    fn fire_timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_HEARTBEAT_T => self.t_timer_heartbeat_t(ctx),
            TIMER_REFINE_T => self.t_timer_refine_t(ctx),
            TIMER_PROBE_T => self.t_timer_probe_t(ctx),
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
