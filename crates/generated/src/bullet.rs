//! `Bullet` — generated by macedon-lang from `bullet.mac`. **Do not edit**:
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

/// Well-known protocol id of `bullet` (same derivation as the interpreter).
pub const PROTOCOL_ID: ProtocolId = 41657;
const MSG_RANSUB_COLLECT: u16 = 0;
const MSG_RANSUB_DISTRIBUTE: u16 = 1;
const MSG_MESH_REQUEST: u16 = 2;
const MSG_MESH_OK: u16 = 3;
const MSG_HAVE: u16 = 4;
const MSG_WANT: u16 = 5;
const MSG_BLOCK_DATA: u16 = 6;
// Per-message transport priority: each declared class resolved
// against the base (tunneling) layer's channel table at generation
// time; -1 = default (tunnel channel 0).
const PRIO_RANSUB_COLLECT: i8 = 0;
const PRIO_RANSUB_DISTRIBUTE: i8 = 0;
const PRIO_MESH_REQUEST: i8 = 0;
const PRIO_MESH_OK: i8 = 0;
const PRIO_HAVE: i8 = 1;
const PRIO_WANT: i8 = 1;
const PRIO_BLOCK_DATA: i8 = 0;
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

fn dec_ransub_collect(r: &mut WireReader) -> Result<MsgRansubCollect, DecodeError> {
    Ok(MsgRansubCollect {
        sample: r.nodes()?,
    })
}

/// Decoded fields of `ransub_distribute`.
pub struct MsgRansubDistribute {
    pub sample: Vec<NodeId>,
}

fn dec_ransub_distribute(r: &mut WireReader) -> Result<MsgRansubDistribute, DecodeError> {
    Ok(MsgRansubDistribute {
        sample: r.nodes()?,
    })
}

/// Decoded fields of `mesh_request`.
pub struct MsgMeshRequest {
    pub who: Option<NodeId>,
}

fn dec_mesh_request(r: &mut WireReader) -> Result<MsgMeshRequest, DecodeError> {
    Ok(MsgMeshRequest {
        who: { let __n = r.node()?; if __n == NodeId(u32::MAX) { None } else { Some(__n) } },
    })
}

/// Decoded fields of `mesh_ok`.
pub struct MsgMeshOk {
}

fn dec_mesh_ok(r: &mut WireReader) -> Result<MsgMeshOk, DecodeError> {
    Ok(MsgMeshOk {
    })
}

/// Decoded fields of `have`.
pub struct MsgHave {
    pub block: i64,
}

fn dec_have(r: &mut WireReader) -> Result<MsgHave, DecodeError> {
    Ok(MsgHave {
        block: (r.u64()? as i64),
    })
}

/// Decoded fields of `want`.
pub struct MsgWant {
    pub block: i64,
}

fn dec_want(r: &mut WireReader) -> Result<MsgWant, DecodeError> {
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

fn dec_block_data(r: &mut WireReader) -> Result<MsgBlockData, DecodeError> {
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
            transitions_fired: 0,
            mesh: Vec::new(),
            sample: Vec::new(),
            blocks_seen: 0,
            blocks_recovered: 0,
        }
    }

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
                    let __bytes = __w.finish();
                    match __dest {
                        Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_MESH_OK }),
                        None => {
                            { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
                        }
                    }
                }
            }
            return;
        }
    }

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
                    let __bytes = __w.finish();
                    match __dest {
                        Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_WANT }),
                        None => {
                            { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
                        }
                    }
                }
            }
            return;
        }
    }

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
                let __bytes = __w.finish();
                match __dest {
                    Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_BLOCK_DATA }),
                    None => {
                        ctx.down(DownCall::Route { dest: __a0, payload: __bytes, priority: PRIO_BLOCK_DATA });
                    }
                }
            }
            return;
        }
    }

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
                        let __bytes = __w.finish();
                        match __dest {
                            Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_MESH_REQUEST }),
                            None => {
                                { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
                            }
                        }
                    }
                }
            }
            return;
        }
    }

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
                    let __bytes = __w.finish();
                    match __dest {
                        Some(__d) => ctx.down(DownCall::RouteIp { dest: __d, payload: __bytes, priority: PRIO_HAVE }),
                        None => {
                            { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
                        }
                    }
                }
            }
            return;
        }
    }

    fn t_error(&mut self, ctx: &mut Ctx, from: NodeId) {
        self.transitions_fired += 1;
        if let Some(__n) = Some(from) {
            self.sample.retain(|&__x| __x != __n);
        } else { ctx.trace(TraceLevel::Low, "bullet: runtime error: null where a value is required"); return; }
    }

}

impl Agent for Bullet {
    fn protocol_id(&self) -> ProtocolId {
        PROTOCOL_ID
    }

    fn name(&self) -> &'static str { "bullet" }

    fn init(&mut self, ctx: &mut Ctx) {
        ctx.timer_periodic(TIMER_RANSUB_T, Duration::from_millis(5000));
        ctx.timer_periodic(TIMER_RECOVER_T, Duration::from_millis(1000));
        self.t_api_init(ctx);
    }

    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        match call {
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
                            MSG_RANSUB_COLLECT => {
                                if let Ok(__m) = dec_ransub_collect(&mut __r) {
                                    self.t_recv_ransub_collect(ctx, from, &__m);
                                    return;
                                }
                            }
                            MSG_RANSUB_DISTRIBUTE => {
                                if let Ok(__m) = dec_ransub_distribute(&mut __r) {
                                    self.t_recv_ransub_distribute(ctx, from, &__m);
                                    return;
                                }
                            }
                            MSG_MESH_REQUEST => {
                                if let Ok(__m) = dec_mesh_request(&mut __r) {
                                    self.t_recv_mesh_request(ctx, from, &__m);
                                    return;
                                }
                            }
                            MSG_MESH_OK => {
                                if let Ok(__m) = dec_mesh_ok(&mut __r) {
                                    self.t_recv_mesh_ok(ctx, from, &__m);
                                    return;
                                }
                            }
                            MSG_HAVE => {
                                if let Ok(__m) = dec_have(&mut __r) {
                                    self.t_recv_have(ctx, from, &__m);
                                    return;
                                }
                            }
                            MSG_WANT => {
                                if let Ok(__m) = dec_want(&mut __r) {
                                    self.t_recv_want(ctx, from, &__m);
                                    return;
                                }
                            }
                            MSG_BLOCK_DATA => {
                                if let Ok(__m) = dec_block_data(&mut __r) {
                                    self.t_recv_block_data(ctx, from, &__m);
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
            MSG_BLOCK_DATA => {
                if let Ok(__m) = dec_block_data(&mut __r) {
                    if self.t_fwd_block_data(ctx, fwd.prev_hop, &__m) {
                        fwd.quash = true;
                    }
                }
            }
            _ => {}
        }
    }

    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_RANSUB_T => self.t_timer_ransub_t(ctx),
            TIMER_RECOVER_T => self.t_timer_recover_t(ctx),
            _ => {}
        }
    }

    fn neighbor_failed(&mut self, ctx: &mut Ctx, peer: NodeId) {
        self.mesh.retain(|&__n| __n != peer);
        self.t_error(ctx, peer);
    }

    fn view(&self) -> Option<AgentState<'_>> {
        Some(AgentState {
            protocol: "bullet",
            state: self.state.name(),
            lists: vec![("mesh", self.mesh.as_slice()), ("sample", self.sample.as_slice())],
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
