//! `Overcast` — generated by macedon-lang from `overcast.mac`. **Do not edit**:
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

/// Well-known protocol id of `overcast` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 50463;
const MSG_JOIN: u16 = 0;
const MSG_JOIN_REPLY: u16 = 1;
const MSG_JOIN_DEFLECT: u16 = 2;
const MSG_REMOVE: u16 = 3;
const MSG_PROBE_REQUEST: u16 = 4;
const MSG_PROBE: u16 = 5;
const MSG_PROBE_REPLY: u16 = 6;
const MSG_DATA: u16 = 7;
const MSG_DATA_UP: u16 = 8;
/// Declared transport channels (bounds the `priority` values the
/// engine-served `routeIP` tunnel honors).
const NUM_CHANNELS: u16 = 3;
const TIMER_PROBE_REQUESTER: u16 = 0;
const TIMER_KEEP_PROBING: u16 = 1;
const TIMER_PROBE_TIMEOUT: u16 = 2;
const TIMER_RETRY_JOIN: u16 = 3;
const MAXKIDS: i64 = 6;
const PINT: i64 = 10000;
const NPROBES: i64 = 8;
const ZMS: i64 = 50;
const PROBE_TIMEOUT_MS: i64 = 10000;
const RETRY_MS: i64 = 5000;

/// FSM states of `overcast` (`init` is implicit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OvercastState {
    Init,
    Joining,
    Joined,
    Probing,
    Probed,
}

impl OvercastState {
    /// The state's name in the spec.
    pub fn name(self) -> &'static str {
        match self {
            OvercastState::Init => "init",
            OvercastState::Joining => "joining",
            OvercastState::Joined => "joined",
            OvercastState::Probing => "probing",
            OvercastState::Probed => "probed",
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

/// Decoded fields of `join_reply`.
pub struct MsgJoinReply {
    pub gp: Vec<NodeId>,
    pub sibs: Vec<NodeId>,
}

fn dec_join_reply(r: &mut WireReader) -> Result<MsgJoinReply, DecodeError> {
    Ok(MsgJoinReply {
        gp: r.nodes()?,
        sibs: r.nodes()?,
    })
}

/// Decoded fields of `join_deflect`.
pub struct MsgJoinDeflect {
    pub try_next: Option<NodeId>,
}

fn dec_join_deflect(r: &mut WireReader) -> Result<MsgJoinDeflect, DecodeError> {
    Ok(MsgJoinDeflect {
        try_next: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `remove`.
pub struct MsgRemove {
}

fn dec_remove(r: &mut WireReader) -> Result<MsgRemove, DecodeError> {
    Ok(MsgRemove {
    })
}

/// Decoded fields of `probe_request`.
pub struct MsgProbeRequest {
}

fn dec_probe_request(r: &mut WireReader) -> Result<MsgProbeRequest, DecodeError> {
    Ok(MsgProbeRequest {
    })
}

/// Decoded fields of `probe`.
pub struct MsgProbe {
    pub seq: i64,
    pub pad1: i64,
    pub pad2: i64,
    pub pad3: i64,
    pub pad4: i64,
    pub pad5: i64,
    pub pad6: i64,
}

fn dec_probe(r: &mut WireReader) -> Result<MsgProbe, DecodeError> {
    Ok(MsgProbe {
        seq: (r.u64()? as i64),
        pad1: (r.u64()? as i64),
        pad2: (r.u64()? as i64),
        pad3: (r.u64()? as i64),
        pad4: (r.u64()? as i64),
        pad5: (r.u64()? as i64),
        pad6: (r.u64()? as i64),
    })
}

/// Decoded fields of `probe_reply`.
pub struct MsgProbeReply {
}

fn dec_probe_reply(r: &mut WireReader) -> Result<MsgProbeReply, DecodeError> {
    Ok(MsgProbeReply {
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

/// Decoded fields of `data_up`.
pub struct MsgDataUp {
    pub src: MacedonKey,
    pub body: Bytes,
}

fn dec_data_up(r: &mut WireReader) -> Result<MsgDataUp, DecodeError> {
    Ok(MsgDataUp {
        src: r.key()?,
        body: r.bytes()?,
    })
}

/// The `overcast` protocol agent, one FSM instance per node.
pub struct Overcast {
    state: OvercastState,
    bootstrap: Option<NodeId>,
    /// Encoded sends awaiting their forward-query verdict, FIFO.
    pending_fwd: VecDeque<(NodeId, ChannelId, Bytes)>,
    /// Transitions fired (observability / tests).
    pub transitions_fired: u64,
    papa: Vec<NodeId>,
    grandpa: Vec<NodeId>,
    brothers: Vec<NodeId>,
    kids: Vec<NodeId>,
    prober: Option<NodeId>,
    target: Option<NodeId>,
    best: Option<NodeId>,
    count: i64,
    probes_left: i64,
    probes_seen: i64,
    bestgp: i64,
    pargp: i64,
}

impl Overcast {
    /// Instantiate one stack layer; `bootstrap` is the rendezvous
    /// node handed to every layer (`None` for the designated root).
    pub fn new(bootstrap: Option<NodeId>) -> Overcast {
        Overcast {
            state: OvercastState::Init,
            bootstrap,
            pending_fwd: VecDeque::new(),
            transitions_fired: 0,
            papa: Vec::new(),
            grandpa: Vec::new(),
            brothers: Vec::new(),
            kids: Vec::new(),
            prober: None,
            target: None,
            best: None,
            count: 0,
            probes_left: 0,
            probes_seen: 0,
            bestgp: 0,
            pargp: 0,
        }
    }

    fn t_api_init(&mut self, ctx: &mut Ctx) {
        if self.state == OvercastState::Init {
            self.transitions_fired += 1;
            if (self.bootstrap).is_none() {
                ctx.trace_fsm(self.state.name(), "joined");
                self.state = OvercastState::Joined;
            } else {
                self.target = self.bootstrap;
                {
                    let __dest = self.target;
                    let __a0 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(2), __bytes);
                    }
                }
                ctx.trace_fsm(self.state.name(), "joining");
                self.state = OvercastState::Joining;
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
            return;
        }
    }

    fn t_api_multicast(&mut self, ctx: &mut Ctx, group: MacedonKey, payload: Bytes) {
        if !((self.state == OvercastState::Init || self.state == OvercastState::Joining)) {
            self.transitions_fired += 1;
            if (self.bootstrap).is_none() {
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
            } else {
                for fe_p in self.papa.clone() {
                    {
                        let __dest = Some(fe_p);
                        let __a0 = ctx.my_key;
                        let __a1 = payload.clone();
                        let mut __w = WireWriter::new();
                        __w.u16(PROTOCOL_ID).u16(MSG_DATA_UP);
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
            }
            return;
        }
    }

    fn t_recv_join(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgJoin) {
        if !((self.state == OvercastState::Joining || self.state == OvercastState::Init)) {
            self.transitions_fired += 1;
            if (m.who == Some(ctx.me)) {
                return;
            }
            if (m.who).map_or(false, |__q| self.kids.contains(&__q)) {
                {
                    let __dest = m.who;
                    let __a0 = &self.papa;
                    let __a1 = &self.kids;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN_REPLY);
                    __w.nodes(__a0);
                    __w.nodes(__a1);
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(0), __bytes);
                    }
                }
                return;
            }
            if ((self.kids.len() as i64) >= MAXKIDS) {
                {
                    let __dest = m.who;
                    let __a0 = (if self.kids.is_empty() { None } else { Some(self.kids[ctx.rng.index(self.kids.len())]) });
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN_DEFLECT);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(0), __bytes);
                    }
                }
                return;
            }
            if let Some(__n) = m.who {
                if !self.kids.contains(&__n) && self.kids.len() < 6usize {
                    self.kids.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
            {
                let __dest = m.who;
                let __a0 = &self.papa;
                let __a1 = &self.kids;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN_REPLY);
                __w.nodes(__a0);
                __w.nodes(__a1);
                let __bytes = __w.finish();
                if let Some(__d) = __dest {
                    ctx.send(__d, ChannelId(0), __bytes);
                }
            }
            return;
        }
    }

    fn t_recv_join_reply(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgJoinReply) {
        if self.state == OvercastState::Joining {
            self.transitions_fired += 1;
            if let Some(__n) = Some(from) {
                if !self.papa.contains(&__n) && self.papa.len() < 1usize {
                    self.papa.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
            {
                let mut __ns: Vec<NodeId> = m.gp.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(1usize);
                self.grandpa = __ns;
            }
            {
                let mut __ns: Vec<NodeId> = m.sibs.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(8usize);
                self.brothers = __ns;
            }
            ctx.timer_cancel(TIMER_RETRY_JOIN);
            ctx.trace_fsm(self.state.name(), "joined");
            self.state = OvercastState::Joined;
            return;
        }
    }

    fn t_recv_join_deflect(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgJoinDeflect) {
        if self.state == OvercastState::Joining {
            self.transitions_fired += 1;
            if (!(m.try_next).is_none()) {
                self.target = m.try_next;
            }
            {
                let __dest = self.target;
                let __a0 = Some(ctx.me);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                let __bytes = __w.finish();
                if let Some(__d) = __dest {
                    ctx.send(__d, ChannelId(2), __bytes);
                }
            }
            ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            return;
        }
    }

    fn t_recv_remove(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgRemove) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.kids.retain(|&__x| __x != __n);
            if !(self.papa.contains(&__n)) {
                ctx.unmonitor(__n);
            }
        } else { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
    }

    fn t_recv_probe_request(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgProbeRequest) {
        if self.state == OvercastState::Joined {
            self.transitions_fired += 1;
            self.prober = Some(from);
            self.probes_left = NPROBES;
            ctx.trace_fsm(self.state.name(), "probing");
            self.state = OvercastState::Probing;
            ctx.timer_set(TIMER_KEEP_PROBING, Duration::from_millis((ZMS).max(0) as u64));
            return;
        }
        if !(self.state == OvercastState::Joined) {
            self.transitions_fired += 1;
            self.prober = Some(from);
            self.probes_left = NPROBES;
            ctx.timer_set(TIMER_KEEP_PROBING, Duration::from_millis((ZMS).max(0) as u64));
            return;
        }
    }

    fn t_recv_probe(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgProbe) {
        self.transitions_fired += 1;
        self.probes_seen = self.probes_seen.wrapping_add((1i64));
    }

    fn t_recv_probe_reply(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgProbeReply) {
        if self.state == OvercastState::Probed {
            self.transitions_fired += 1;
            self.count = self.count.wrapping_sub((1i64));
            if (self.count > (0i64)) {
                return;
            }
            self.count = (0i64);
            ctx.timer_cancel(TIMER_PROBE_TIMEOUT);
            ctx.trace_fsm(self.state.name(), "joined");
            self.state = OvercastState::Joined;
            self.pargp = (0i64);
            for fe_p in self.papa.clone() {
                self.pargp = ((Some(fe_p)).map_or(0i64, |__p| ctx.goodput_kbps(__p)));
            }
            self.best = None::<NodeId>;
            self.bestgp = (0i64);
            for fe_g in self.grandpa.clone() {
                if (((Some(fe_g)).map_or(0i64, |__p| ctx.goodput_kbps(__p))) > self.bestgp) {
                    self.bestgp = ((Some(fe_g)).map_or(0i64, |__p| ctx.goodput_kbps(__p)));
                    self.best = Some(fe_g);
                }
            }
            for fe_b in self.brothers.clone() {
                if (((Some(fe_b)).map_or(0i64, |__p| ctx.goodput_kbps(__p))) > self.bestgp) {
                    self.bestgp = ((Some(fe_b)).map_or(0i64, |__p| ctx.goodput_kbps(__p)));
                    self.best = Some(fe_b);
                }
            }
            if (((!(self.best).is_none()) & (self.pargp > (0i64))) & (self.bestgp.wrapping_mul((4i64)) >= self.pargp.wrapping_mul((5i64)))) {
                for fe_p in self.papa.clone() {
                    {
                        let __dest = Some(fe_p);
                        let mut __w = WireWriter::new();
                        __w.u16(PROTOCOL_ID).u16(MSG_REMOVE);
                        let __bytes = __w.finish();
                        if let Some(__d) = __dest {
                            ctx.send(__d, ChannelId(0), __bytes);
                        }
                    }
                }
                for __n in self.papa.drain(..) {
                    if !(self.kids.contains(&__n)) {
                        ctx.unmonitor(__n);
                    }
                }
                self.grandpa.clear();
                self.target = self.best;
                {
                    let __dest = self.target;
                    let __a0 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(2), __bytes);
                    }
                }
                ctx.trace_fsm(self.state.name(), "joining");
                self.state = OvercastState::Joining;
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
            return;
        }
    }

    fn t_recv_data(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgData) {
        self.transitions_fired += 1;
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
        if (!(m.src == ctx.my_key)) {
            {
                let __src = m.src;
                let __pl = m.body.clone();
                ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
            }
        }
    }

    fn t_recv_data_up(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgDataUp) {
        self.transitions_fired += 1;
        if (self.bootstrap).is_none() {
            for fe_k in self.kids.clone() {
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
            if (!(m.src == ctx.my_key)) {
                {
                    let __src = m.src;
                    let __pl = m.body.clone();
                    ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
                }
            }
        } else {
            for fe_p in self.papa.clone() {
                {
                    let __dest = Some(fe_p);
                    let __a0 = m.src;
                    let __a1 = m.body.clone();
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_DATA_UP);
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

    fn t_timer_probe_requester(&mut self, ctx: &mut Ctx) {
        if self.state == OvercastState::Joined {
            self.transitions_fired += 1;
            self.count = (self.brothers.len() as i64).wrapping_add((self.grandpa.len() as i64)).wrapping_add((self.papa.len() as i64));
            if (self.count < (2i64)) {
                self.count = (0i64);
                return;
            }
            for fe_g in self.grandpa.clone() {
                {
                    let __dest = Some(fe_g);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PROBE_REQUEST);
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(0), __bytes);
                    }
                }
            }
            for fe_b in self.brothers.clone() {
                {
                    let __dest = Some(fe_b);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PROBE_REQUEST);
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(0), __bytes);
                    }
                }
            }
            for fe_p in self.papa.clone() {
                {
                    let __dest = Some(fe_p);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PROBE_REQUEST);
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(0), __bytes);
                    }
                }
            }
            ctx.trace_fsm(self.state.name(), "probed");
            self.state = OvercastState::Probed;
            ctx.timer_set(TIMER_PROBE_TIMEOUT, Duration::from_millis((PROBE_TIMEOUT_MS).max(0) as u64));
            return;
        }
    }

    fn t_timer_keep_probing(&mut self, ctx: &mut Ctx) {
        if self.state == OvercastState::Probing {
            self.transitions_fired += 1;
            if (self.prober).is_none() {
                ctx.trace_fsm(self.state.name(), "joined");
                self.state = OvercastState::Joined;
                return;
            }
            if (self.probes_left > (0i64)) {
                self.probes_left = self.probes_left.wrapping_sub((1i64));
                {
                    let __dest = self.prober;
                    let __a0 = self.probes_left;
                    let __a1 = (0i64);
                    let __a2 = (0i64);
                    let __a3 = (0i64);
                    let __a4 = (0i64);
                    let __a5 = (0i64);
                    let __a6 = (0i64);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PROBE);
                    __w.u64(__a0 as u64);
                    __w.u64(__a1 as u64);
                    __w.u64(__a2 as u64);
                    __w.u64(__a3 as u64);
                    __w.u64(__a4 as u64);
                    __w.u64(__a5 as u64);
                    __w.u64(__a6 as u64);
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(2), __bytes);
                    }
                }
                ctx.timer_set(TIMER_KEEP_PROBING, Duration::from_millis((ZMS).max(0) as u64));
            } else {
                {
                    let __dest = self.prober;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PROBE_REPLY);
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(0), __bytes);
                    }
                }
                self.prober = None::<NodeId>;
                ctx.trace_fsm(self.state.name(), "joined");
                self.state = OvercastState::Joined;
            }
            return;
        }
        if !(self.state == OvercastState::Probing) {
            self.transitions_fired += 1;
            if (self.prober).is_none() {
                return;
            }
            if (self.probes_left > (0i64)) {
                self.probes_left = self.probes_left.wrapping_sub((1i64));
                {
                    let __dest = self.prober;
                    let __a0 = self.probes_left;
                    let __a1 = (0i64);
                    let __a2 = (0i64);
                    let __a3 = (0i64);
                    let __a4 = (0i64);
                    let __a5 = (0i64);
                    let __a6 = (0i64);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PROBE);
                    __w.u64(__a0 as u64);
                    __w.u64(__a1 as u64);
                    __w.u64(__a2 as u64);
                    __w.u64(__a3 as u64);
                    __w.u64(__a4 as u64);
                    __w.u64(__a5 as u64);
                    __w.u64(__a6 as u64);
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(2), __bytes);
                    }
                }
                ctx.timer_set(TIMER_KEEP_PROBING, Duration::from_millis((ZMS).max(0) as u64));
            } else {
                {
                    let __dest = self.prober;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PROBE_REPLY);
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(0), __bytes);
                    }
                }
                self.prober = None::<NodeId>;
            }
            return;
        }
    }

    fn t_timer_probe_timeout(&mut self, ctx: &mut Ctx) {
        if self.state == OvercastState::Probed {
            self.transitions_fired += 1;
            self.count = (0i64);
            ctx.trace_fsm(self.state.name(), "joined");
            self.state = OvercastState::Joined;
            return;
        }
    }

    fn t_timer_retry_join(&mut self, ctx: &mut Ctx) {
        if self.state == OvercastState::Joining {
            self.transitions_fired += 1;
            {
                let __dest = self.target;
                let __a0 = Some(ctx.me);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                let __bytes = __w.finish();
                if let Some(__d) = __dest {
                    ctx.send(__d, ChannelId(2), __bytes);
                }
            }
            ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            return;
        }
    }

    fn t_error(&mut self, ctx: &mut Ctx, from: NodeId) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.brothers.retain(|&__x| __x != __n);
        } else { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
        if ((self.papa.len() as i64) == (0i64)) {
            if (!(self.bootstrap).is_none()) {
                if ((self.grandpa.len() as i64) > (0i64)) {
                    self.target = (if self.grandpa.is_empty() { None } else { Some(self.grandpa[ctx.rng.index(self.grandpa.len())]) });
                } else {
                    self.target = self.bootstrap;
                }
                self.grandpa.clear();
                {
                    let __dest = self.target;
                    let __a0 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                    __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                    let __bytes = __w.finish();
                    if let Some(__d) = __dest {
                        ctx.send(__d, ChannelId(2), __bytes);
                    }
                }
                ctx.trace_fsm(self.state.name(), "joining");
                self.state = OvercastState::Joining;
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
        }
    }

}

impl Agent for Overcast {
    fn protocol_id(&self) -> ProtocolId {
        PROTOCOL_ID
    }

    fn name(&self) -> &'static str { "overcast" }

    fn init(&mut self, ctx: &mut Ctx) {
        ctx.timer_periodic(TIMER_PROBE_REQUESTER, Duration::from_millis(10000));
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
            __other => ctx.trace(TraceLevel::Low, format!("overcast: unhandled API call {:?}", __other)),
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
                Err(__e) => ctx.trace(TraceLevel::Low, format!("overcast: decode error: {}", __e)),
            },
            MSG_JOIN_REPLY => match dec_join_reply(&mut __r) {
                Ok(__m) => self.t_recv_join_reply(ctx, from, &__m),
                Err(__e) => ctx.trace(TraceLevel::Low, format!("overcast: decode error: {}", __e)),
            },
            MSG_JOIN_DEFLECT => match dec_join_deflect(&mut __r) {
                Ok(__m) => self.t_recv_join_deflect(ctx, from, &__m),
                Err(__e) => ctx.trace(TraceLevel::Low, format!("overcast: decode error: {}", __e)),
            },
            MSG_REMOVE => match dec_remove(&mut __r) {
                Ok(__m) => self.t_recv_remove(ctx, from, &__m),
                Err(__e) => ctx.trace(TraceLevel::Low, format!("overcast: decode error: {}", __e)),
            },
            MSG_PROBE_REQUEST => match dec_probe_request(&mut __r) {
                Ok(__m) => self.t_recv_probe_request(ctx, from, &__m),
                Err(__e) => ctx.trace(TraceLevel::Low, format!("overcast: decode error: {}", __e)),
            },
            MSG_PROBE => match dec_probe(&mut __r) {
                Ok(__m) => self.t_recv_probe(ctx, from, &__m),
                Err(__e) => ctx.trace(TraceLevel::Low, format!("overcast: decode error: {}", __e)),
            },
            MSG_PROBE_REPLY => match dec_probe_reply(&mut __r) {
                Ok(__m) => self.t_recv_probe_reply(ctx, from, &__m),
                Err(__e) => ctx.trace(TraceLevel::Low, format!("overcast: decode error: {}", __e)),
            },
            MSG_DATA => match dec_data(&mut __r) {
                Ok(__m) => self.t_recv_data(ctx, from, &__m),
                Err(__e) => ctx.trace(TraceLevel::Low, format!("overcast: decode error: {}", __e)),
            },
            MSG_DATA_UP => match dec_data_up(&mut __r) {
                Ok(__m) => self.t_recv_data_up(ctx, from, &__m),
                Err(__e) => ctx.trace(TraceLevel::Low, format!("overcast: decode error: {}", __e)),
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
            TIMER_PROBE_REQUESTER => self.t_timer_probe_requester(ctx),
            TIMER_KEEP_PROBING => self.t_timer_keep_probing(ctx),
            TIMER_PROBE_TIMEOUT => self.t_timer_probe_timeout(ctx),
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
            protocol: "overcast",
            state: self.state.name(),
            lists: vec![("papa", self.papa.as_slice()), ("grandpa", self.grandpa.as_slice()), ("brothers", self.brothers.as_slice()), ("kids", self.kids.as_slice())],
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
