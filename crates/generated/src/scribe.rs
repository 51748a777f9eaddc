//! `Scribe` — generated by macedon-lang from `scribe.mac`. **Do not edit**:
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

/// Well-known protocol id of `scribe` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 15891;
const MSG_SUBSCRIBE: u16 = 0;
const MSG_UNSUBSCRIBE: u16 = 1;
const MSG_PRUNE: u16 = 2;
const MSG_PUBLISH: u16 = 3;
const MSG_PARENT_HB: u16 = 4;
// Each message's priority at the base layer: its declared class
// resolved against the base (tunneling) layer's channel table at
// generation time; -1 = default (tunnel channel 0).
const LANE_SUBSCRIBE: Lane = Lane::Base(0);
const LANE_UNSUBSCRIBE: Lane = Lane::Base(0);
const LANE_PRUNE: Lane = Lane::Base(0);
const LANE_PUBLISH: Lane = Lane::Base(0);
const LANE_PARENT_HB: Lane = Lane::Base(1);
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

fn dec_subscribe(r: &mut WireRef) -> Result<MsgSubscribe, DecodeError> {
    Ok(MsgSubscribe {
        group: r.key()?,
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `unsubscribe`.
pub struct MsgUnsubscribe {
    pub group: MacedonKey,
}

fn dec_unsubscribe(r: &mut WireRef) -> Result<MsgUnsubscribe, DecodeError> {
    Ok(MsgUnsubscribe {
        group: r.key()?,
    })
}

/// Decoded fields of `prune`.
pub struct MsgPrune {
    pub group: MacedonKey,
}

fn dec_prune(r: &mut WireRef) -> Result<MsgPrune, DecodeError> {
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

fn dec_publish(r: &mut WireRef) -> Result<MsgPublish, DecodeError> {
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

fn dec_parent_hb(r: &mut WireRef) -> Result<MsgParentHb, DecodeError> {
    Ok(MsgParentHb {
        group: r.key()?,
    })
}

/// The `scribe` protocol agent, one FSM instance per node.
pub struct Scribe {
    state: ScribeState,
    bootstrap: Option<NodeId>,
    __port: Port,
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
            __port: Port::default(),
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

    #[inline(never)]
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
                if self.__port.send(ctx, LANE_SUBSCRIBE, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
            }
            return;
        }
        if self.state == ScribeState::Subscribed {
            self.transitions_fired += 1;
            self.member = (1i64);
            return;
        }
    }

    #[inline(never)]
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
                if self.__port.send(ctx, LANE_PUBLISH, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
            }
            return;
        }
    }

    #[inline(never)]
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
                        if self.__port.send(ctx, LANE_UNSUBSCRIBE, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
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

    #[inline(never)]
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

    #[inline(never)]
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
                if self.__port.send(ctx, LANE_SUBSCRIBE, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return quash; }
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

    #[inline(never)]
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
                            if self.__port.send(ctx, LANE_UNSUBSCRIBE, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
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

    #[inline(never)]
    fn t_recv_prune(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgPrune) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.members.retain(|&__x| __x != __n);
            if !(self.rp_parent.contains(&__n)) {
                ctx.unmonitor(__n);
            }
        } else { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
    }

    #[inline(never)]
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
                    if self.__port.send(ctx, LANE_PUBLISH, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
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

    #[inline(never)]
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
                    if self.__port.send(ctx, LANE_PRUNE, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
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
                if self.__port.send(ctx, LANE_PRUNE, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
            }
            return;
        }
    }

    #[inline(never)]
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
                    if self.__port.send(ctx, LANE_PARENT_HB, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
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
                    if self.__port.send(ctx, LANE_SUBSCRIBE, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
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
                        if self.__port.send(ctx, LANE_SUBSCRIBE, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
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
                            if self.__port.send(ctx, LANE_SUBSCRIBE, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "scribe: runtime error: null where a value is required"); return; }
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

impl SpecBody for Scribe {
    const AGENT_NAME: &'static str = "scribe";

    fn shape(&self) -> Shape<'_> {
        Shape { name: "scribe", proto: PROTOCOL_ID, layered: true, channels: 0, messages: 5, timers: 1 }
    }

    fn period_ms(&self, timer: u16) -> Option<u64> {
        match timer {
            TIMER_HEARTBEAT_T => Some(4000),
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
        vec![("rp_parent", self.rp_parent.as_slice()), ("members", self.members.as_slice())]
    }

    fn fail_detect(&mut self, mut f: impl FnMut(&mut Vec<NodeId>)) {
        f(&mut self.rp_parent);
        f(&mut self.members);
    }

    fn fire_api(&mut self, ctx: &mut Ctx, call: DownCall) -> Option<DownCall> {
        match call {
            DownCall::Join { group } => self.t_api_join(ctx, group),
            DownCall::Multicast { group, payload, .. } => self.t_api_multicast(ctx, group, payload),
            DownCall::Leave { group } => self.t_api_leave(ctx, group),
            __other => return Some(__other),
        }
        None
    }

    fn fire_recv(&mut self, ctx: &mut Ctx, id: u16, from: NodeId, r: &mut WireRef) -> Result<(), DecodeError> {
        match id {
            MSG_SUBSCRIBE => self.t_recv_subscribe(ctx, from, &dec_subscribe(r)?),
            MSG_UNSUBSCRIBE => self.t_recv_unsubscribe(ctx, from, &dec_unsubscribe(r)?),
            MSG_PRUNE => self.t_recv_prune(ctx, from, &dec_prune(r)?),
            MSG_PUBLISH => self.t_recv_publish(ctx, from, &dec_publish(r)?),
            MSG_PARENT_HB => self.t_recv_parent_hb(ctx, from, &dec_parent_hb(r)?),
            _ => {},
        }
        Ok(())
    }

    fn fire_forward(&mut self, ctx: &mut Ctx, id: u16, from: NodeId, r: &mut WireRef) -> Result<bool, DecodeError> {
        match id {
            MSG_SUBSCRIBE => Ok(self.t_fwd_subscribe(ctx, from, &dec_subscribe(r)?)),
            _ => Ok(false),
        }
    }

    fn fire_timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_HEARTBEAT_T => self.t_timer_heartbeat_t(ctx),
            _ => {},
        }
    }

    fn fire_error(&mut self, ctx: &mut Ctx, peer: NodeId) {
        self.t_error(ctx, peer);
    }
}

}

pub use generated::*;
