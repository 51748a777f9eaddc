//! `Splitstream` — generated by macedon-lang from `splitstream.mac`. **Do not edit**:
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

/// Well-known protocol id of `splitstream` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 52883;
const MSG_STRIPE_JOIN: u16 = 0;
const MSG_STRIPE_DATA: u16 = 1;
const MSG_ORPHAN: u16 = 2;
// Per-message transport priority: each declared class resolved
// against the base (tunneling) layer's channel table at generation
// time; -1 = default (tunnel channel 0).
const PRIO_STRIPE_JOIN: i8 = 0;
const PRIO_STRIPE_DATA: i8 = 0;
const PRIO_ORPHAN: i8 = 0;
const STRIPES: i64 = 16;
const SPARE_CAP: i64 = 4;

/// FSM states of `splitstream` (`init` is implicit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SplitstreamState {
    Init,
    Striped,
}

impl SplitstreamState {
    /// The state's name in the spec.
    pub fn name(self) -> &'static str {
        match self {
            SplitstreamState::Init => "init",
            SplitstreamState::Striped => "striped",
        }
    }
}

/// Decoded fields of `stripe_join`.
pub struct MsgStripeJoin {
    pub stripe: MacedonKey,
    pub who: Option<NodeId>,
}

fn dec_stripe_join(r: &mut WireReader) -> Result<MsgStripeJoin, DecodeError> {
    Ok(MsgStripeJoin {
        stripe: r.key()?,
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `stripe_data`.
pub struct MsgStripeData {
    pub stripe: MacedonKey,
    pub src: MacedonKey,
    pub body: Bytes,
}

fn dec_stripe_data(r: &mut WireReader) -> Result<MsgStripeData, DecodeError> {
    Ok(MsgStripeData {
        stripe: r.key()?,
        src: r.key()?,
        body: r.bytes()?,
    })
}

/// Decoded fields of `orphan`.
pub struct MsgOrphan {
    pub stripe: MacedonKey,
    pub who: Option<NodeId>,
}

fn dec_orphan(r: &mut WireReader) -> Result<MsgOrphan, DecodeError> {
    Ok(MsgOrphan {
        stripe: r.key()?,
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// The `splitstream` protocol agent, one FSM instance per node.
pub struct Splitstream {
    state: SplitstreamState,
    bootstrap: Option<NodeId>,
    /// Transitions fired (observability / tests).
    pub transitions_fired: u64,
    spare: Vec<NodeId>,
    stripes_joined: i64,
}

impl Splitstream {
    /// Instantiate one stack layer; `bootstrap` is the rendezvous
    /// node handed to every layer (`None` for the designated root).
    pub fn new(bootstrap: Option<NodeId>) -> Splitstream {
        Splitstream {
            state: SplitstreamState::Init,
            bootstrap,
            transitions_fired: 0,
            spare: Vec::new(),
            stripes_joined: 0,
        }
    }

    fn t_api_join(&mut self, ctx: &mut Ctx, group: MacedonKey) {
        if self.state == SplitstreamState::Init {
            self.transitions_fired += 1;
            self.stripes_joined = STRIPES;
            {
                let __g = group;
                ctx.down(DownCall::Join { group: __g });
            }
            {
                let __dest = None::<NodeId>;
                let __a0 = group;
                let __a1 = Some(ctx.me);
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_STRIPE_JOIN);
                __w.key(__a0);
                __w.node(__a1.unwrap_or(NodeId(u32::MAX)));
                let __bytes = __w.finish();
                match __dest {
                    Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_STRIPE_JOIN }),
                    None => {
                        ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_STRIPE_JOIN });
                    }
                }
            }
            ctx.trace_fsm(self.state.name(), "striped");
            self.state = SplitstreamState::Striped;
            return;
        }
    }

    fn t_api_multicast(&mut self, ctx: &mut Ctx, group: MacedonKey, payload: Bytes) {
        if self.state == SplitstreamState::Striped {
            self.transitions_fired += 1;
            {
                let __g = group;
                let __pl = payload.clone();
                ctx.down(DownCall::Multicast { group: __g, payload: __pl, priority: DEFAULT_PRIORITY });
            }
            return;
        }
    }

    fn t_recv_stripe_join(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgStripeJoin) {
        self.transitions_fired += 1;
        if ((self.spare.len() as i64) < SPARE_CAP) {
            if let Some(__n) = m.who {
                if !self.spare.contains(&__n) && self.spare.len() < 16usize {
                    self.spare.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "splitstream: runtime error: null where a value is required"); return; }
        }
    }

    fn t_fwd_stripe_join(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgStripeJoin) -> bool {
        let mut quash = false;
        self.transitions_fired += 1;
        if ((self.spare.len() as i64) < SPARE_CAP) {
            if let Some(__n) = m.who {
                if !self.spare.contains(&__n) && self.spare.len() < 16usize {
                    self.spare.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "splitstream: runtime error: null where a value is required"); return quash; }
        }
        quash
    }

    fn t_recv_stripe_data(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgStripeData) {
        self.transitions_fired += 1;
        {
            let __src = m.src;
            let __pl = m.body.clone();
            ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
        }
    }

    fn t_recv_orphan(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgOrphan) {
        self.transitions_fired += 1;
        if let Some(__n) = m.who {
            if !self.spare.contains(&__n) && self.spare.len() < 16usize {
                self.spare.push(__n);
                ctx.monitor(__n);
            }
        } else { ctx.trace(TraceLevel::Low, "splitstream: runtime error: null where a value is required"); return; }
    }

    fn t_error(&mut self, ctx: &mut Ctx, from: NodeId) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.spare.retain(|&__x| __x != __n);
            ctx.unmonitor(__n);
        } else { ctx.trace(TraceLevel::Low, "splitstream: runtime error: null where a value is required"); return; }
    }

}

impl Agent for Splitstream {
    fn protocol_id(&self) -> ProtocolId {
        PROTOCOL_ID
    }

    fn name(&self) -> &'static str { "splitstream" }

    fn init(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }

    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        match call {
            DownCall::Join { group } => self.t_api_join(ctx, group),
            DownCall::Multicast { group, payload, .. } => self.t_api_multicast(ctx, group, payload),
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
                            MSG_STRIPE_JOIN => {
                                if let Ok(__m) = dec_stripe_join(&mut __r) {
                                    self.t_recv_stripe_join(ctx, from, &__m);
                                    return;
                                }
                            }
                            MSG_STRIPE_DATA => {
                                if let Ok(__m) = dec_stripe_data(&mut __r) {
                                    self.t_recv_stripe_data(ctx, from, &__m);
                                    return;
                                }
                            }
                            MSG_ORPHAN => {
                                if let Ok(__m) = dec_orphan(&mut __r) {
                                    self.t_recv_orphan(ctx, from, &__m);
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
            MSG_STRIPE_JOIN => {
                if let Ok(__m) = dec_stripe_join(&mut __r) {
                    if self.t_fwd_stripe_join(ctx, fwd.prev_hop, &__m) {
                        fwd.quash = true;
                    }
                }
            }
            _ => {}
        }
    }

    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
        let _ = (ctx, timer);
    }

    fn neighbor_failed(&mut self, ctx: &mut Ctx, peer: NodeId) {
        self.spare.retain(|&__n| __n != peer);
        self.t_error(ctx, peer);
    }

    fn view(&self) -> Option<AgentState<'_>> {
        Some(AgentState {
            protocol: "splitstream",
            state: self.state.name(),
            lists: vec![("spare", self.spare.as_slice())],
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
