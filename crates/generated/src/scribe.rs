//! `Scribe` — generated by macedon-lang from `scribe.mac`. **Do not edit**:
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

/// Well-known protocol id of `scribe` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 15891;
const MSG_SUBSCRIBE: u16 = 0;
const MSG_UNSUBSCRIBE: u16 = 1;
const MSG_PRUNE: u16 = 2;
const MSG_PUBLISH: u16 = 3;
const MSG_PARENT_HB: u16 = 4;
// Per-message transport priority: each declared class resolved
// against the base (tunneling) layer's channel table at generation
// time; -1 = default (tunnel channel 0).
const PRIO_SUBSCRIBE: i8 = 0;
const PRIO_UNSUBSCRIBE: i8 = 0;
const PRIO_PRUNE: i8 = 0;
const PRIO_PUBLISH: i8 = 0;
const PRIO_PARENT_HB: i8 = 1;
const TIMER_HEARTBEAT_T: u16 = 0;
const HEARTBEAT_MS: i64 = 4000;
const MAX_CHILDREN: i64 = 16;

/// FSM states of `scribe` (`init` is implicit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScribeState {
    Init,
    Subscribed,
}

impl ScribeState {
    /// The state's name in the spec.
    pub fn name(self) -> &'static str {
        match self {
            ScribeState::Init => "init",
            ScribeState::Subscribed => "subscribed",
        }
    }
}

/// Decoded fields of `subscribe`.
pub struct MsgSubscribe {
    pub group: MacedonKey,
    pub who: Option<NodeId>,
}

fn dec_subscribe(r: &mut WireReader) -> Result<MsgSubscribe, DecodeError> {
    Ok(MsgSubscribe {
        group: r.key()?,
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `unsubscribe`.
pub struct MsgUnsubscribe {
    pub group: MacedonKey,
}

fn dec_unsubscribe(r: &mut WireReader) -> Result<MsgUnsubscribe, DecodeError> {
    Ok(MsgUnsubscribe {
        group: r.key()?,
    })
}

/// Decoded fields of `prune`.
pub struct MsgPrune {
    pub group: MacedonKey,
}

fn dec_prune(r: &mut WireReader) -> Result<MsgPrune, DecodeError> {
    Ok(MsgPrune {
        group: r.key()?,
    })
}

/// Decoded fields of `publish`.
pub struct MsgPublish {
    pub group: MacedonKey,
    pub src: MacedonKey,
    pub seq: i64,
    pub body: Bytes,
}

fn dec_publish(r: &mut WireReader) -> Result<MsgPublish, DecodeError> {
    Ok(MsgPublish {
        group: r.key()?,
        src: r.key()?,
        seq: (r.u64()? as i64),
        body: r.bytes()?,
    })
}

/// Decoded fields of `parent_hb`.
pub struct MsgParentHb {
    pub group: MacedonKey,
}

fn dec_parent_hb(r: &mut WireReader) -> Result<MsgParentHb, DecodeError> {
    Ok(MsgParentHb {
        group: r.key()?,
    })
}

/// The `scribe` protocol agent, one FSM instance per node.
pub struct Scribe {
    state: ScribeState,
    bootstrap: Option<NodeId>,
    /// Transitions fired (observability / tests).
    pub transitions_fired: u64,
    rp_parent: Vec<NodeId>,
    members: Vec<NodeId>,
    group_key: MacedonKey,
    pub_seq: i64,
    last_seq: i64,
    member: i64,
    pfirst: Option<NodeId>,
}

impl Scribe {
    /// Instantiate one stack layer; `bootstrap` is the rendezvous
    /// node handed to every layer (`None` for the designated root).
    pub fn new(bootstrap: Option<NodeId>) -> Scribe {
        Scribe {
            state: ScribeState::Init,
            bootstrap,
            transitions_fired: 0,
            rp_parent: Vec::new(),
            members: Vec::new(),
            group_key: MacedonKey(0),
            pub_seq: 0,
            last_seq: 0,
            member: 0,
            pfirst: None,
        }
    }

    fn t_api_join(&mut self, ctx: &mut Ctx, group: MacedonKey) {
        if self.state == ScribeState::Init {
            self.transitions_fired += 1;
            self.group_key = group;
            self.member = (1i64);
            ctx.trace_fsm(self.state.name(), "subscribed");
            self.state = ScribeState::Subscribed;
            {
                let __dest = None::<NodeId>;
                let __a0 = group;
                let __a1 = Some(ctx.me);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_SUBSCRIBE);
                __w.key(__a0);
                __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                let __bytes = __w.finish();
                match __dest {
                    Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_SUBSCRIBE }),
                    None => {
                        ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_SUBSCRIBE });
                    }
                }
            }
            return;
        }
        if self.state == ScribeState::Subscribed {
            self.transitions_fired += 1;
            self.member = (1i64);
            return;
        }
    }

    fn t_api_multicast(&mut self, ctx: &mut Ctx, group: MacedonKey, payload: Bytes) {
        if self.state == ScribeState::Subscribed {
            self.transitions_fired += 1;
            self.pub_seq = self.pub_seq.wrapping_add((1i64));
            {
                let __dest = None::<NodeId>;
                let __a0 = group;
                let __a1 = ctx.my_key;
                let __a2 = self.pub_seq;
                let __a3 = payload.clone();
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_PUBLISH);
                __w.key(__a0);
                __w.key(__a1);
                __w.u64(__a2 as u64);
                __w.bytes(&__a3);
                let __bytes = __w.finish();
                match __dest {
                    Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_PUBLISH }),
                    None => {
                        ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_PUBLISH });
                    }
                }
            }
            return;
        }
    }

    fn t_api_leave(&mut self, ctx: &mut Ctx, group: MacedonKey) {
        if self.state == ScribeState::Subscribed {
            self.transitions_fired += 1;
            self.member = (0i64);
            if ((self.members.len() as i64) == (0i64)) {
                self.pfirst = None::<NodeId>;
                for fe_p in self.rp_parent.clone() {
                    self.pfirst = Some(fe_p);
                }
                if (!(self.pfirst).is_none()) {
                    {
                        let __dest = self.pfirst;
                        let __a0 = self.group_key;
                        let mut __w = WireWriter::new();
                        __w.u16(PROTOCOL_ID).u16(MSG_UNSUBSCRIBE);
                        __w.key(__a0);
                        let __bytes = __w.finish();
                        match __dest {
                            Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_UNSUBSCRIBE }),
                            None => {
                                ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_UNSUBSCRIBE });
                            }
                        }
                    }
                }
                for __n in self.rp_parent.drain(..) {
                    if !(self.members.contains(&__n)) {
                        ctx.unmonitor(__n);
                    }
                }
                ctx.trace_fsm(self.state.name(), "init");
                self.state = ScribeState::Init;
            }
            return;
        }
    }

    fn t_recv_subscribe(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgSubscribe) {
        if self.state == ScribeState::Init {
            self.transitions_fired += 1;
            if (Some(from) == Some(ctx.me)) {
                return;
            }
            self.group_key = m.group;
            if let Some(__n) = Some(from) {
                if !self.members.contains(&__n) && self.members.len() < 16usize {
                    self.members.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
            ctx.trace_fsm(self.state.name(), "subscribed");
            self.state = ScribeState::Subscribed;
            return;
        }
        if self.state == ScribeState::Subscribed {
            self.transitions_fired += 1;
            if (Some(from) == Some(ctx.me)) {
                return;
            }
            if let Some(__n) = Some(from) {
                if !self.members.contains(&__n) && self.members.len() < 16usize {
                    self.members.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
            return;
        }
    }

    fn t_fwd_subscribe(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgSubscribe) -> bool {
        let mut quash = false;
        if self.state == ScribeState::Init {
            self.transitions_fired += 1;
            if (Some(from) == Some(ctx.me)) {
                return quash;
            }
            self.group_key = m.group;
            if let Some(__n) = Some(from) {
                if !self.members.contains(&__n) && self.members.len() < 16usize {
                    self.members.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return quash; }
            ctx.trace_fsm(self.state.name(), "subscribed");
            self.state = ScribeState::Subscribed;
            quash = true;
            {
                let __dest = None::<NodeId>;
                let __a0 = m.group;
                let __a1 = Some(ctx.me);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_SUBSCRIBE);
                __w.key(__a0);
                __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                let __bytes = __w.finish();
                match __dest {
                    Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_SUBSCRIBE }),
                    None => {
                        ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_SUBSCRIBE });
                    }
                }
            }
            return quash;
        }
        if self.state == ScribeState::Subscribed {
            self.transitions_fired += 1;
            if (Some(from) == Some(ctx.me)) {
                return quash;
            }
            if let Some(__n) = Some(from) {
                if !self.members.contains(&__n) && self.members.len() < 16usize {
                    self.members.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return quash; }
            quash = true;
            return quash;
        }
        quash
    }

    fn t_recv_unsubscribe(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgUnsubscribe) {
        if self.state == ScribeState::Subscribed {
            self.transitions_fired += 1;
            if let Some(__n) = Some(from) {
                self.members.retain(|&__x| __x != __n);
                if !(self.rp_parent.contains(&__n)) {
                    ctx.unmonitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
            if (self.member == (0i64)) {
                if ((self.members.len() as i64) == (0i64)) {
                    self.pfirst = None::<NodeId>;
                    for fe_p in self.rp_parent.clone() {
                        self.pfirst = Some(fe_p);
                    }
                    if (!(self.pfirst).is_none()) {
                        {
                            let __dest = self.pfirst;
                            let __a0 = self.group_key;
                            let mut __w = WireWriter::new();
                            __w.u16(PROTOCOL_ID).u16(MSG_UNSUBSCRIBE);
                            __w.key(__a0);
                            let __bytes = __w.finish();
                            match __dest {
                                Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_UNSUBSCRIBE }),
                                None => {
                                    ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_UNSUBSCRIBE });
                                }
                            }
                        }
                    }
                    for __n in self.rp_parent.drain(..) {
                        if !(self.members.contains(&__n)) {
                            ctx.unmonitor(__n);
                        }
                    }
                    ctx.trace_fsm(self.state.name(), "init");
                    self.state = ScribeState::Init;
                }
            }
            return;
        }
    }

    fn t_recv_prune(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgPrune) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.members.retain(|&__x| __x != __n);
            if !(self.rp_parent.contains(&__n)) {
                ctx.unmonitor(__n);
            }
        } else { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
    }

    fn t_recv_publish(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgPublish) {
        if self.state == ScribeState::Subscribed {
            self.transitions_fired += 1;
            if (m.seq <= self.last_seq) {
                return;
            }
            self.last_seq = m.seq;
            for fe_c in self.members.clone() {
                {
                    let __dest = Some(fe_c);
                    let __a0 = m.group;
                    let __a1 = m.src;
                    let __a2 = m.seq;
                    let __a3 = m.body.clone();
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PUBLISH);
                    __w.key(__a0);
                    __w.key(__a1);
                    __w.u64(__a2 as u64);
                    __w.bytes(&__a3);
                    let __bytes = __w.finish();
                    match __dest {
                        Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_PUBLISH }),
                        None => {
                            ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_PUBLISH });
                        }
                    }
                }
            }
            if (self.member > (0i64)) {
                {
                    let __src = m.src;
                    let __pl = m.body.clone();
                    ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
                }
            }
            return;
        }
    }

    fn t_recv_parent_hb(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgParentHb) {
        if self.state == ScribeState::Subscribed {
            self.transitions_fired += 1;
            self.pfirst = None::<NodeId>;
            for fe_p in self.rp_parent.clone() {
                self.pfirst = Some(fe_p);
            }
            if (self.pfirst).is_none() {
                if let Some(__n) = Some(from) {
                    if !self.rp_parent.contains(&__n) && self.rp_parent.len() < 1usize {
                        self.rp_parent.push(__n);
                        ctx.monitor(__n);
                    }
                } else { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
                return;
            }
            if (!(self.pfirst == Some(from))) {
                {
                    let __dest = Some(from);
                    let __a0 = self.group_key;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PRUNE);
                    __w.key(__a0);
                    let __bytes = __w.finish();
                    match __dest {
                        Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_PRUNE }),
                        None => {
                            ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_PRUNE });
                        }
                    }
                }
            }
            return;
        }
        if self.state == ScribeState::Init {
            self.transitions_fired += 1;
            {
                let __dest = Some(from);
                let __a0 = m.group;
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_PRUNE);
                __w.key(__a0);
                let __bytes = __w.finish();
                match __dest {
                    Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_PRUNE }),
                    None => {
                        ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_PRUNE });
                    }
                }
            }
            return;
        }
    }

    fn t_timer_heartbeat_t(&mut self, ctx: &mut Ctx) {
        if self.state == ScribeState::Subscribed {
            self.transitions_fired += 1;
            for fe_c in self.members.clone() {
                {
                    let __dest = Some(fe_c);
                    let __a0 = self.group_key;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_PARENT_HB);
                    __w.key(__a0);
                    let __bytes = __w.finish();
                    match __dest {
                        Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_PARENT_HB }),
                        None => {
                            ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_PARENT_HB });
                        }
                    }
                }
            }
            if ((self.rp_parent.len() as i64) == (0i64)) {
                {
                    let __dest = None::<NodeId>;
                    let __a0 = self.group_key;
                    let __a1 = Some(ctx.me);
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_SUBSCRIBE);
                    __w.key(__a0);
                    __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                    let __bytes = __w.finish();
                    match __dest {
                        Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_SUBSCRIBE }),
                        None => {
                            ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_SUBSCRIBE });
                        }
                    }
                }
            }
            return;
        }
    }

    fn t_error(&mut self, ctx: &mut Ctx, from: NodeId) {
        if self.state == ScribeState::Subscribed {
            self.transitions_fired += 1;
            if ((self.rp_parent.len() as i64) == (0i64)) {
                if (self.member > (0i64)) {
                    {
                        let __dest = None::<NodeId>;
                        let __a0 = self.group_key;
                        let __a1 = Some(ctx.me);
                        let mut __w = WireWriter::new();
                        __w.u16(PROTOCOL_ID).u16(MSG_SUBSCRIBE);
                        __w.key(__a0);
                        __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                        let __bytes = __w.finish();
                        match __dest {
                            Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_SUBSCRIBE }),
                            None => {
                                ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_SUBSCRIBE });
                            }
                        }
                    }
                } else {
                    if ((self.members.len() as i64) > (0i64)) {
                        {
                            let __dest = None::<NodeId>;
                            let __a0 = self.group_key;
                            let __a1 = Some(ctx.me);
                            let mut __w = WireWriter::new();
                            __w.u16(PROTOCOL_ID).u16(MSG_SUBSCRIBE);
                            __w.key(__a0);
                            __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                            let __bytes = __w.finish();
                            match __dest {
                                Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_SUBSCRIBE }),
                                None => {
                                    ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_SUBSCRIBE });
                                }
                            }
                        }
                    } else {
                        ctx.trace_fsm(self.state.name(), "init");
                        self.state = ScribeState::Init;
                    }
                }
            }
            return;
        }
    }

}

impl Agent for Scribe {
    fn protocol_id(&self) -> ProtocolId {
        PROTOCOL_ID
    }

    fn name(&self) -> &'static str { "scribe" }

    fn init(&mut self, ctx: &mut Ctx) {
        ctx.timer_periodic(TIMER_HEARTBEAT_T, Duration::from_millis(4000));
        let _ = ctx;
    }

    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        match call {
            DownCall::Join { group } => self.t_api_join(ctx, group),
            DownCall::Multicast { group, payload, .. } => self.t_api_multicast(ctx, group, payload),
            DownCall::Leave { group } => self.t_api_leave(ctx, group),
            __other => ctx.down(__other),
        }
    }

    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {
        let _ = (ctx, from, msg);
        debug_assert!(false, "layered generated agents never touch the wire");
    }

    fn upcall(&mut self, ctx: &mut Ctx, up: UpCall) {
        match up {
            UpCall::Deliver { src, from, payload } => {
                let mut __r = WireReader::new(payload.clone());
                if let (Ok(__proto), Ok(__id)) = (__r.u16(), __r.u16()) {
                    if __proto == PROTOCOL_ID {
                        match __id {
                            MSG_SUBSCRIBE => {
                                if let Ok(__m) = dec_subscribe(&mut __r) {
                                    self.t_recv_subscribe(ctx, from, &__m);
                                    return;
                                }
                            }
                            MSG_UNSUBSCRIBE => {
                                if let Ok(__m) = dec_unsubscribe(&mut __r) {
                                    self.t_recv_unsubscribe(ctx, from, &__m);
                                    return;
                                }
                            }
                            MSG_PRUNE => {
                                if let Ok(__m) = dec_prune(&mut __r) {
                                    self.t_recv_prune(ctx, from, &__m);
                                    return;
                                }
                            }
                            MSG_PUBLISH => {
                                if let Ok(__m) = dec_publish(&mut __r) {
                                    self.t_recv_publish(ctx, from, &__m);
                                    return;
                                }
                            }
                            MSG_PARENT_HB => {
                                if let Ok(__m) = dec_parent_hb(&mut __r) {
                                    self.t_recv_parent_hb(ctx, from, &__m);
                                    return;
                                }
                            }
                            _ => {}
                        }
                    }
                }
                // Not ours (or malformed): continue up the stack.
                ctx.up(UpCall::Deliver { src, from, payload });
            }
            __other => ctx.up(__other),
        }
    }

    fn on_forward(&mut self, ctx: &mut Ctx, fwd: &mut ForwardInfo) {
        let mut __r = WireReader::new(fwd.payload.clone());
        let (Ok(__proto), Ok(__id)) = (__r.u16(), __r.u16()) else { return };
        if __proto != PROTOCOL_ID {
            return;
        }
        match __id {
            MSG_SUBSCRIBE => {
                if let Ok(__m) = dec_subscribe(&mut __r) {
                    if self.t_fwd_subscribe(ctx, fwd.prev_hop, &__m) {
                        fwd.quash = true;
                    }
                }
            }
            _ => {}
        }
    }

    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_HEARTBEAT_T => self.t_timer_heartbeat_t(ctx),
            _ => {}
        }
    }

    fn neighbor_failed(&mut self, ctx: &mut Ctx, peer: NodeId) {
        self.rp_parent.retain(|&__n| __n != peer);
        self.members.retain(|&__n| __n != peer);
        self.t_error(ctx, peer);
    }

    fn view(&self) -> Option<AgentState<'_>> {
        Some(AgentState {
            protocol: "scribe",
            state: self.state.name(),
            lists: vec![("rp_parent", self.rp_parent.as_slice()), ("members", self.members.as_slice())],
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
