//! `Bullet` — generated by macedon-lang from `bullet.mac`. **Do not edit**:
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

/// Well-known protocol id of `bullet` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 41657;
const MSG_RANSUB_COLLECT: u16 = 0;
const MSG_RANSUB_DISTRIBUTE: u16 = 1;
const MSG_MESH_REQUEST: u16 = 2;
const MSG_MESH_OK: u16 = 3;
const MSG_HAVE: u16 = 4;
const MSG_WANT: u16 = 5;
const MSG_BLOCK_DATA: u16 = 6;
// Each message's priority at the base layer: its declared class
// resolved against the base (tunneling) layer's channel table at
// generation time; -1 = default (tunnel channel 0).
const LANE_RANSUB_COLLECT: Lane = Lane::Base(0);
const LANE_RANSUB_DISTRIBUTE: Lane = Lane::Base(0);
const LANE_MESH_REQUEST: Lane = Lane::Base(0);
const LANE_MESH_OK: Lane = Lane::Base(0);
const LANE_HAVE: Lane = Lane::Base(1);
const LANE_WANT: Lane = Lane::Base(1);
const LANE_BLOCK_DATA: Lane = Lane::Base(0);
const TIMER_RANSUB_T: u16 = 0;
const TIMER_RECOVER_T: u16 = 1;
const SUBSET_SIZE: i64 = 5;
const RANSUB_MS: i64 = 5000;
const RECOVER_MS: i64 = 1000;
const MAX_MESH: i64 = 6;

/// FSM states of `bullet` (`init` is implicit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BulletState {
    Init,
    Active,
}

impl BulletState {
    /// The state's name in the spec.
    pub fn name(self) -> &'static str {
        match self {
            BulletState::Init => "init",
            BulletState::Active => "active",
        }
    }
}

/// Decoded fields of `ransub_collect`.
pub struct MsgRansubCollect {
    pub sample: Vec<NodeId>,
}

fn dec_ransub_collect(r: &mut WireRef) -> Result<MsgRansubCollect, DecodeError> {
    Ok(MsgRansubCollect {
        sample: r.nodes()?,
    })
}

/// Decoded fields of `ransub_distribute`.
pub struct MsgRansubDistribute {
    pub sample: Vec<NodeId>,
}

fn dec_ransub_distribute(r: &mut WireRef) -> Result<MsgRansubDistribute, DecodeError> {
    Ok(MsgRansubDistribute {
        sample: r.nodes()?,
    })
}

/// Decoded fields of `mesh_request`.
pub struct MsgMeshRequest {
    pub who: Option<NodeId>,
}

fn dec_mesh_request(r: &mut WireRef) -> Result<MsgMeshRequest, DecodeError> {
    Ok(MsgMeshRequest {
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `mesh_ok`.
pub struct MsgMeshOk {
}

fn dec_mesh_ok(r: &mut WireRef) -> Result<MsgMeshOk, DecodeError> {
    Ok(MsgMeshOk {
    })
}

/// Decoded fields of `have`.
pub struct MsgHave {
    pub block: i64,
}

fn dec_have(r: &mut WireRef) -> Result<MsgHave, DecodeError> {
    Ok(MsgHave {
        block: (r.u64()? as i64),
    })
}

/// Decoded fields of `want`.
pub struct MsgWant {
    pub block: i64,
}

fn dec_want(r: &mut WireRef) -> Result<MsgWant, DecodeError> {
    Ok(MsgWant {
        block: (r.u64()? as i64),
    })
}

/// Decoded fields of `block_data`.
pub struct MsgBlockData {
    pub src: MacedonKey,
    pub block: i64,
    pub body: Bytes,
}

fn dec_block_data(r: &mut WireRef) -> Result<MsgBlockData, DecodeError> {
    Ok(MsgBlockData {
        src: r.key()?,
        block: (r.u64()? as i64),
        body: r.bytes()?,
    })
}

/// The `bullet` protocol agent, one FSM instance per node.
pub struct Bullet {
    state: BulletState,
    bootstrap: Option<NodeId>,
    __port: Port,
    /// Transitions fired (observability / tests).
    pub transitions_fired: u64,
    mesh: Vec<NodeId>,
    sample: Vec<NodeId>,
    blocks_seen: i64,
    blocks_recovered: i64,
}

impl Bullet {
    /// Instantiate one stack layer; `bootstrap` is the rendezvous
    /// node handed to every layer (`None` for the designated root).
    pub fn new(bootstrap: Option<NodeId>) -> Bullet {
        Bullet {
            state: BulletState::Init,
            bootstrap,
            __port: Port::default(),
            transitions_fired: 0,
            mesh: Vec::new(),
            sample: Vec::new(),
            blocks_seen: 0,
            blocks_recovered: 0,
        }
    }

    #[inline(never)]
    fn t_api_init(&mut self, ctx: &mut Ctx) {
        if self.state == BulletState::Init {
            self.transitions_fired += 1;
            self.blocks_seen = (0i64);
            self.blocks_recovered = (0i64);
            ctx.trace_fsm(self.state.name(), "active");
            self.state = BulletState::Active;
            return;
        }
    }

    #[inline(never)]
    fn t_recv_ransub_collect(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgRansubCollect) {
        if self.state == BulletState::Active {
            self.transitions_fired += 1;
            {
                let mut __ns: Vec<NodeId> = m.sample.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(10usize);
                self.sample = __ns;
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_ransub_distribute(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgRansubDistribute) {
        if self.state == BulletState::Active {
            self.transitions_fired += 1;
            {
                let mut __ns: Vec<NodeId> = m.sample.clone();
                __ns.retain(|&__n| __n != ctx.me);
                __ns.truncate(10usize);
                self.sample = __ns;
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_mesh_request(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgMeshRequest) {
        if self.state == BulletState::Active {
            self.transitions_fired += 1;
            if (m.who == Some(ctx.me)) {
                return;
            }
            if ((self.mesh.len() as i64) < MAX_MESH) {
                if let Some(__n) = m.who {
                    if !self.mesh.contains(&__n) && self.mesh.len() < 6usize {
                        self.mesh.push(__n);
                        ctx.monitor(__n);
                    }
                } else { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
                {
                    let __dest = m.who;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_MESH_OK);
                    if self.__port.send(ctx, LANE_MESH_OK, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_mesh_ok(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgMeshOk) {
        if self.state == BulletState::Active {
            self.transitions_fired += 1;
            if let Some(__n) = Some(from) {
                if !self.mesh.contains(&__n) && self.mesh.len() < 6usize {
                    self.mesh.push(__n);
                    ctx.monitor(__n);
                }
            } else { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_have(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgHave) {
        if self.state == BulletState::Active {
            self.transitions_fired += 1;
            if (m.block > self.blocks_seen) {
                {
                    let __dest = Some(from);
                    let __a0 = self.blocks_seen.wrapping_add((1i64));
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_WANT);
                    __w.u64(__a0 as u64);
                    if self.__port.send(ctx, LANE_WANT, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_want(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgWant) {
        if self.state == BulletState::Active {
            self.transitions_fired += 1;
            {
                let __dest = Some(from);
                let __a0 = ctx.my_key;
                let __a1 = m.block;
                let __a2 = Bytes::new();
                let mut __w = WireWriter::new();
                __w.u16(PROTOCOL_ID).u16(MSG_BLOCK_DATA);
                __w.key(__a0);
                __w.u64(__a1 as u64);
                __w.bytes(&__a2);
                if self.__port.send(ctx, LANE_BLOCK_DATA, Dest::Node(__dest), __w.finish(), Some(__a0), None).is_err() { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_recv_block_data(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgBlockData) {
        if self.state == BulletState::Active {
            self.transitions_fired += 1;
            self.blocks_seen = self.blocks_seen.wrapping_add((1i64));
            self.blocks_recovered = self.blocks_recovered.wrapping_add((1i64));
            {
                let __src = m.src;
                let __pl = m.body.clone();
                ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
            }
            return;
        }
    }

    #[inline(never)]
    fn t_fwd_block_data(&mut self, ctx: &mut Ctx, from: NodeId, m: &MsgBlockData) -> bool {
        let mut quash = false;
        if self.state == BulletState::Active {
            self.transitions_fired += 1;
            self.blocks_seen = self.blocks_seen.wrapping_add((1i64));
            {
                let __src = m.src;
                let __pl = m.body.clone();
                ctx.up(UpCall::Deliver { src: __src, from: from, payload: __pl });
            }
            return quash;
        }
        quash
    }

    #[inline(never)]
    fn t_timer_ransub_t(&mut self, ctx: &mut Ctx) {
        if self.state == BulletState::Active {
            self.transitions_fired += 1;
            {
                let __t = (1i64);
                ctx.up(UpCall::Notify { nbr_type: __t as u32, neighbors: self.sample.clone() });
            }
            for fe_s in self.sample.clone() {
                if ((self.mesh.len() as i64) < MAX_MESH) {
                    {
                        let __dest = Some(fe_s);
                        let __a0 = Some(ctx.me);
                        let mut __w = WireWriter::new();
                        __w.u16(PROTOCOL_ID).u16(MSG_MESH_REQUEST);
                        __w.node(__a0.unwrap_or(NodeId(u32::MAX)));
                        if self.__port.send(ctx, LANE_MESH_REQUEST, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
                    }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_timer_recover_t(&mut self, ctx: &mut Ctx) {
        if self.state == BulletState::Active {
            self.transitions_fired += 1;
            for fe_m in self.mesh.clone() {
                {
                    let __dest = Some(fe_m);
                    let __a0 = self.blocks_seen;
                    let mut __w = WireWriter::new();
                    __w.u16(PROTOCOL_ID).u16(MSG_HAVE);
                    __w.u64(__a0 as u64);
                    if self.__port.send(ctx, LANE_HAVE, Dest::Node(__dest), __w.finish(), None, None).is_err() { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
                }
            }
            return;
        }
    }

    #[inline(never)]
    fn t_error(&mut self, ctx: &mut Ctx, from: NodeId) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.sample.retain(|&__x| __x != __n);
        } else { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
    }

}

impl SpecBody for Bullet {
    const AGENT_NAME: &'static str = "bullet";

    fn shape(&self) -> Shape<'_> {
        Shape { name: "bullet", proto: PROTOCOL_ID, layered: true, channels: 0, messages: 7, timers: 2 }
    }

    fn period_ms(&self, timer: u16) -> Option<u64> {
        match timer {
            TIMER_RANSUB_T => Some(5000),
            TIMER_RECOVER_T => Some(1000),
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
        vec![("mesh", self.mesh.as_slice()), ("sample", self.sample.as_slice())]
    }

    fn fail_detect(&mut self, mut f: impl FnMut(&mut Vec<NodeId>)) {
        f(&mut self.mesh);
    }

    fn fire_init(&mut self, ctx: &mut Ctx) {
        self.t_api_init(ctx);
    }

    fn fire_api(&mut self, ctx: &mut Ctx, call: DownCall) -> Option<DownCall> {
        Some(call)
    }

    fn fire_recv(&mut self, ctx: &mut Ctx, id: u16, from: NodeId, r: &mut WireRef) -> Result<(), DecodeError> {
        match id {
            MSG_RANSUB_COLLECT => self.t_recv_ransub_collect(ctx, from, &dec_ransub_collect(r)?),
            MSG_RANSUB_DISTRIBUTE => self.t_recv_ransub_distribute(ctx, from, &dec_ransub_distribute(r)?),
            MSG_MESH_REQUEST => self.t_recv_mesh_request(ctx, from, &dec_mesh_request(r)?),
            MSG_MESH_OK => self.t_recv_mesh_ok(ctx, from, &dec_mesh_ok(r)?),
            MSG_HAVE => self.t_recv_have(ctx, from, &dec_have(r)?),
            MSG_WANT => self.t_recv_want(ctx, from, &dec_want(r)?),
            MSG_BLOCK_DATA => self.t_recv_block_data(ctx, from, &dec_block_data(r)?),
            _ => {},
        }
        Ok(())
    }

    fn fire_forward(&mut self, ctx: &mut Ctx, id: u16, from: NodeId, r: &mut WireRef) -> Result<bool, DecodeError> {
        match id {
            MSG_BLOCK_DATA => Ok(self.t_fwd_block_data(ctx, from, &dec_block_data(r)?)),
            _ => Ok(false),
        }
    }

    fn fire_timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_RANSUB_T => self.t_timer_ransub_t(ctx),
            TIMER_RECOVER_T => self.t_timer_recover_t(ctx),
            _ => {},
        }
    }

    fn fire_error(&mut self, ctx: &mut Ctx, peer: NodeId) {
        self.t_error(ctx, peer);
    }
}

}

pub use generated::*;
