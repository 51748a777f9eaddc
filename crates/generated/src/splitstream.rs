//! `Splitstream` — generated by macedon-lang from `splitstream.mac`. **Do not edit**:
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

/// Well-known protocol id of `splitstream` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 52883;
const MSG_STRIPE_JOIN: u16 = 0;
const MSG_STRIPE_DATA: u16 = 1;
const MSG_ORPHAN: u16 = 2;
// Each message's priority at the base layer: its declared class
// resolved against the base (tunneling) layer's channel table at
// generation time; -1 = default (tunnel channel 0).
const LANE_STRIPE_JOIN: Lane = Lane::Base(0);
const LANE_STRIPE_DATA: Lane = Lane::Base(0);
const LANE_ORPHAN: Lane = Lane::Base(0);
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

fn dec_stripe_join(r: &mut WireRef) -> Result<MsgStripeJoin, DecodeError> {
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

fn dec_stripe_data(r: &mut WireRef) -> Result<MsgStripeData, DecodeError> {
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

fn dec_orphan(r: &mut WireRef) -> Result<MsgOrphan, DecodeError> {
    Ok(MsgOrphan {
        stripe: r.key()?,
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// The `splitstream` protocol agent, one FSM instance per node.
pub struct Splitstream {
    state: SplitstreamState,
    bootstrap: Option<NodeId>,
    __port: Port,
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
            __port: Port::default(),
            transitions_fired: 0,
            spare: Vec::new(),
            stripes_joined: 0,
        }
    }

    #[inline(never)]
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
                if self.__port.send(ctx, LANE_STRIPE_JOIN, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "splitstream: runtime error: null where a value is required"); return; }
            }
            ctx.trace_fsm(self.state.name(), "striped");
            self.state = SplitstreamState::Striped;
            return;
        }
    }

    #[inline(never)]
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

    #[inline(never)]
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

    #[inline(never)]
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

    #[inline(never)]
    fn t_recv_stripe_data(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgStripeData) {
        self.transitions_fired += 1;
        {
            let __src = m.src;
            let __pl = m.body.clone();
            ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
        }
    }

    #[inline(never)]
    fn t_recv_orphan(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgOrphan) {
        self.transitions_fired += 1;
        if let Some(__n) = m.who {
            if !self.spare.contains(&__n) && self.spare.len() < 16usize {
                self.spare.push(__n);
                ctx.monitor(__n);
            }
        } else { ctx.trace(TraceLevel::Low, "splitstream: runtime error: null where a value is required"); return; }
    }

    #[inline(never)]
    fn t_error(&mut self, ctx: &mut Ctx, from: NodeId) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.spare.retain(|&__x| __x != __n);
            ctx.unmonitor(__n);
        } else { ctx.trace(TraceLevel::Low, "splitstream: runtime error: null where a value is required"); return; }
    }

}

impl SpecBody for Splitstream {
    const AGENT_NAME: &'static str = "splitstream";

    fn shape(&self) -> Shape<'_> {
        Shape { name: "splitstream", proto: PROTOCOL_ID, layered: true, channels: 0, messages: 3, timers: 0 }
    }

    fn port(&mut self) -> &mut Port {
        &mut self.__port
    }

    fn state(&self) -> &str {
        self.state.name()
    }

    fn lists(&self) -> Vec<(&str, &[NodeId])> {
        vec![("spare", self.spare.as_slice())]
    }

    fn fail_detect(&mut self, mut f: impl FnMut(&mut Vec<NodeId>)) {
        f(&mut self.spare);
    }

    fn fire_api(&mut self, ctx: &mut Ctx, call: DownCall) -> Option<DownCall> {
        match call {
            DownCall::Join { group } => self.t_api_join(ctx, group),
            DownCall::Multicast { group, payload, .. } => self.t_api_multicast(ctx, group, payload),
            __other => return Some(__other),
        }
        None
    }

    fn fire_recv(&mut self, ctx: &mut Ctx, id: u16, from: NodeId, r: &mut WireRef) -> Result<(), DecodeError> {
        match id {
            MSG_STRIPE_JOIN => self.t_recv_stripe_join(ctx, from, &dec_stripe_join(r)?),
            MSG_STRIPE_DATA => self.t_recv_stripe_data(ctx, from, &dec_stripe_data(r)?),
            MSG_ORPHAN => self.t_recv_orphan(ctx, from, &dec_orphan(r)?),
            _ => {},
        }
        Ok(())
    }

    fn fire_forward(&mut self, ctx: &mut Ctx, id: u16, from: NodeId, r: &mut WireRef) -> Result<bool, DecodeError> {
        match id {
            MSG_STRIPE_JOIN => Ok(self.t_fwd_stripe_join(ctx, from, &dec_stripe_join(r)?)),
            _ => Ok(false),
        }
    }

    fn fire_error(&mut self, ctx: &mut Ctx, peer: NodeId) {
        self.t_error(ctx, peer);
    }
}

}

pub use generated::*;
