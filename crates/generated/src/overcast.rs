//! `Overcast` — generated by macedon-lang from `overcast.mac`. **Do not edit**:
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
const LANE_JOIN: Lane = Lane::Wire(ChannelId(2));
const LANE_JOIN_REPLY: Lane = Lane::Wire(ChannelId(0));
const LANE_JOIN_DEFLECT: Lane = Lane::Wire(ChannelId(0));
const LANE_REMOVE: Lane = Lane::Wire(ChannelId(0));
const LANE_PROBE_REQUEST: Lane = Lane::Wire(ChannelId(0));
const LANE_PROBE: Lane = Lane::Wire(ChannelId(2));
const LANE_PROBE_REPLY: Lane = Lane::Wire(ChannelId(0));
const LANE_DATA: Lane = Lane::Wire(ChannelId(1));
const LANE_DATA_UP: Lane = Lane::Wire(ChannelId(1));
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

fn dec_join(r: &mut WireRef) -> Result<MsgJoin, DecodeError> {
    Ok(MsgJoin {
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `join_reply`.
pub struct MsgJoinReply {
    pub gp: Vec<NodeId>,
    pub sibs: Vec<NodeId>,
}

fn dec_join_reply(r: &mut WireRef) -> Result<MsgJoinReply, DecodeError> {
    Ok(MsgJoinReply {
        gp: r.nodes()?,
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

/// Decoded fields of `remove`.
pub struct MsgRemove {
}

fn dec_remove(r: &mut WireRef) -> Result<MsgRemove, DecodeError> {
    Ok(MsgRemove {
    })
}

/// Decoded fields of `probe_request`.
pub struct MsgProbeRequest {
}

fn dec_probe_request(r: &mut WireRef) -> Result<MsgProbeRequest, DecodeError> {
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

fn dec_probe(r: &mut WireRef) -> Result<MsgProbe, DecodeError> {
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

fn dec_probe_reply(r: &mut WireRef) -> Result<MsgProbeReply, DecodeError> {
    Ok(MsgProbeReply {
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

/// Decoded fields of `data_up`.
pub struct MsgDataUp {
    pub src: MacedonKey,
    pub body: Bytes,
}

fn dec_data_up(r: &mut WireRef) -> Result<MsgDataUp, DecodeError> {
    Ok(MsgDataUp {
        src: r.key()?,
        body: r.bytes()?,
    })
}

/// The `overcast` protocol agent, one FSM instance per node.
pub struct Overcast {
    state: OvercastState,
    bootstrap: Option<NodeId>,
    __port: Port,
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
            __port: Port::default(),
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

    #[inline(never)]
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
                    if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
                }
                ctx.trace_fsm(self.state.name(), "joining");
                self.state = OvercastState::Joining;
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
            return;
        }
    }

    #[inline(never)]
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
                        if self.__port.send(ctx, LANE_DATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
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
                        if self.__port.send(ctx, LANE_DATA_UP, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
                    }
                }
            }
            return;
        }
    }

    #[inline(never)]
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
                    if self.__port.send(ctx, LANE_JOIN_REPLY, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
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
                    if self.__port.send(ctx, LANE_JOIN_DEFLECT, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
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
                if self.__port.send(ctx, LANE_JOIN_REPLY, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
            }
            return;
        }
    }

    #[inline(never)]
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

    #[inline(never)]
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
                if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
            }
            ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
    fn t_recv_remove(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgRemove) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.kids.retain(|&__x| __x != __n);
            if !(self.papa.contains(&__n)) {
                ctx.unmonitor(__n);
            }
        } else { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
    }

    #[inline(never)]
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

    #[inline(never)]
    fn t_recv_probe(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgProbe) {
        self.transitions_fired += 1;
        self.probes_seen = self.probes_seen.wrapping_add((1i64));
    }

    #[inline(never)]
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
                        if self.__port.send(ctx, LANE_REMOVE, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
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
                    if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
                }
                ctx.trace_fsm(self.state.name(), "joining");
                self.state = OvercastState::Joining;
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
            return;
        }
    }

    #[inline(never)]
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
                    if self.__port.send(ctx, LANE_DATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
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

    #[inline(never)]
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
                    if self.__port.send(ctx, LANE_DATA, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
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
                    if self.__port.send(ctx, LANE_DATA_UP, Dest::Node(__dest), __w.finish(), Some(__a0), if !__a1.is_empty() { Some(__a1.clone()) } else { None }).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
                }
            }
        }
    }

    #[inline(never)]
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
                    if self.__port.send(ctx, LANE_PROBE_REQUEST, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
                }
            }
            for fe_b in self.brothers.clone() {
                {
                    let __dest = Some(fe_b);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PROBE_REQUEST);
                    if self.__port.send(ctx, LANE_PROBE_REQUEST, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
                }
            }
            for fe_p in self.papa.clone() {
                {
                    let __dest = Some(fe_p);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PROBE_REQUEST);
                    if self.__port.send(ctx, LANE_PROBE_REQUEST, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
                }
            }
            ctx.trace_fsm(self.state.name(), "probed");
            self.state = OvercastState::Probed;
            ctx.timer_set(TIMER_PROBE_TIMEOUT, Duration::from_millis((PROBE_TIMEOUT_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
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
                    if self.__port.send(ctx, LANE_PROBE, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
                }
                ctx.timer_set(TIMER_KEEP_PROBING, Duration::from_millis((ZMS).max(0) as u64));
            } else {
                {
                    let __dest = self.prober;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PROBE_REPLY);
                    if self.__port.send(ctx, LANE_PROBE_REPLY, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
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
                    if self.__port.send(ctx, LANE_PROBE, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
                }
                ctx.timer_set(TIMER_KEEP_PROBING, Duration::from_millis((ZMS).max(0) as u64));
            } else {
                {
                    let __dest = self.prober;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PROBE_REPLY);
                    if self.__port.send(ctx, LANE_PROBE_REPLY, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
                }
                self.prober = None::<NodeId>;
            }
            return;
        }
    }

    #[inline(never)]
    fn t_timer_probe_timeout(&mut self, ctx: &mut Ctx) {
        if self.state == OvercastState::Probed {
            self.transitions_fired += 1;
            self.count = (0i64);
            ctx.trace_fsm(self.state.name(), "joined");
            self.state = OvercastState::Joined;
            return;
        }
    }

    #[inline(never)]
    fn t_timer_retry_join(&mut self, ctx: &mut Ctx) {
        if self.state == OvercastState::Joining {
            self.transitions_fired += 1;
            {
                let __dest = self.target;
                let __a0 = Some(ctx.me);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_JOIN);
                __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
            }
            ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            return;
        }
    }

    #[inline(never)]
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
                    if self.__port.send(ctx, LANE_JOIN, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "overcast: runtime error: null where a value is required"); return; }
                }
                ctx.trace_fsm(self.state.name(), "joining");
                self.state = OvercastState::Joining;
                ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_millis((RETRY_MS).max(0) as u64));
            }
        }
    }

}

impl SpecBody for Overcast {
    const AGENT_NAME: &'static str = "overcast";

    fn shape(&self) -> Shape<'_> {
        Shape { name: "overcast", proto: PROTOCOL_ID, layered: false, channels: 3, messages: 9, timers: 4 }
    }

    fn period_ms(&self, timer: u16) -> Option<u64> {
        match timer {
            TIMER_PROBE_REQUESTER => Some(10000),
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
        vec![("papa", self.papa.as_slice()), ("grandpa", self.grandpa.as_slice()), ("brothers", self.brothers.as_slice()), ("kids", self.kids.as_slice())]
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
            MSG_JOIN_REPLY => self.t_recv_join_reply(ctx, from, &dec_join_reply(r)?),
            MSG_JOIN_DEFLECT => self.t_recv_join_deflect(ctx, from, &dec_join_deflect(r)?),
            MSG_REMOVE => self.t_recv_remove(ctx, from, &dec_remove(r)?),
            MSG_PROBE_REQUEST => self.t_recv_probe_request(ctx, from, &dec_probe_request(r)?),
            MSG_PROBE => self.t_recv_probe(ctx, from, &dec_probe(r)?),
            MSG_PROBE_REPLY => self.t_recv_probe_reply(ctx, from, &dec_probe_reply(r)?),
            MSG_DATA => self.t_recv_data(ctx, from, &dec_data(r)?),
            MSG_DATA_UP => self.t_recv_data_up(ctx, from, &dec_data_up(r)?),
            _ => {},
        }
        Ok(())
    }

    fn fire_timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_PROBE_REQUESTER => self.t_timer_probe_requester(ctx),
            TIMER_KEEP_PROBING => self.t_timer_keep_probing(ctx),
            TIMER_PROBE_TIMEOUT => self.t_timer_probe_timeout(ctx),
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
