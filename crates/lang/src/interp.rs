//! The specification interpreter: runs a compiled spec ([`IrSpec`]) as
//! a live [`macedon_core::Agent`].
//!
//! The paper's `macedon` tool translates specs to C++ compiled against
//! the engine. This interpreter is the equivalent executable semantics —
//! the same FSM dispatch (transition = (event, state-scope) → actions),
//! the same primitives (§3.3), over the same engine — without a compile
//! step. Its semantics are the reference the generated agents are held
//! to: the test suite runs both on identically seeded worlds and
//! requires equal results.
//!
//! The interpreter does not walk the AST. [`InterpretedAgent`] executes
//! the slot-indexed, typed IR of [`crate::ir`], lowered once per spec
//! and shared as an `Arc<IrSpec>` across all nodes and layers
//! interpreting it:
//!
//! * **Resolved at lowering:** every variable, neighbor list, timer,
//!   FSM state, message, and message field is a dense index, and
//!   transition dispatch is a jump table — no string hashing, no
//!   declaration clones, no `HashMap` frames.
//! * **Typed at lowering:** every expression is evaluated at its static
//!   type ([`crate::ir::typed`]) — ints as `i64`, conditions as `bool`,
//!   nodes as `Option<NodeId>`, keys as `MacedonKey` — and so is every
//!   variable slot, `foreach` binding, and decoded message field. A send
//!   encodes each argument straight into its wire frame; a `downcall`,
//!   `deliver` or neighbor-list operation takes its operands at the
//!   types it needs. No `Value` is built, cloned or matched, outside
//!   `trace(..)` records.
//! * **Dynamic:** only what the event brings — which transition the
//!   current FSM state admits, the null-ness of node values, and the
//!   heap values (payloads and neighbor lists, read by reference). A
//!   spec with a type error, or with a divisor that is not a nonzero
//!   constant, does not compile, so no expression faults.
//!
//! The one runtime fault is a null node where a statement requires a
//! value: it unwinds the transition and traces
//! `"<spec>: runtime error: null where a value is required"` at `Low`,
//! the very line the generated agent traces. The IR is purely a faster
//! representation: execution order, RNG draw points, wire bytes, and
//! engine op order are identical to AST semantics, so interpreted agents stay
//! bit-for-bit cross-validatable against the generated ones
//! (`tests/integration_generated.rs`). [`Value`] survives only at the
//! edges: variable introspection and `trace(..)` records.
//!
//! The interpreter supplies only a spec's facts and transitions: it
//! implements [`macedon_core::spec::SpecBody`] over the IR's tables, and
//! the engine-facing half — wire framing and the `routeIP` tunnel,
//! `deliver` demultiplexing, forward vetting and quash, the API
//! fallbacks, and the send tail every `send` statement ends in — is
//! [`macedon_core::spec`]'s, the same code every generated agent runs
//! as. So interpretation covers the whole roster, layered specs
//! included: a **lowest-layer** spec (no `uses`) owns the transports,
//! and a **layered** one (`uses base`) sends through `route`/`routeIP`
//! downcalls, receives `deliver` upcalls, intercepts in-transit
//! messages with `forward <msg>` transitions (`quash();` swallows them)
//! and invokes the base layer's API with `downcall(<api>, ..)`.
//!
//! Interpreted and native agents compose freely in one stack (e.g. a
//! native Pastry under an interpreted `scribe.mac`), because both speak
//! the same [`macedon_core::DownCall`]/[`macedon_core::UpCall`] API.
//! Use [`crate::registry::SpecRegistry`] to resolve a spec's `uses`
//! chain and assemble the ready-to-run stack (sharing one lowered
//! `IrSpec` per protocol).

use crate::ast::TransportKindDecl;
use crate::ir::typed::{ArithOp, CmpOp, KeyOptExpr};
use crate::ir::{
    AnyExpr, ApiKind, BoolExpr, FieldKind, IntExpr, IrDown, IrMessage, IrSpec, IrStmt, KeyArg,
    KeyExpr, ListExpr, NodeExpr, PayloadExpr, SendArg, SendDest, Slots, Table, Ty,
};
use macedon_core::key;
use macedon_core::spec::{Dest, Lane, Port, Shape, SpecBody};
use macedon_core::{
    Bytes, ChannelSpec, Ctx, DecodeError, DownCall, Duration, MacedonKey, NodeId, ProtocolId,
    TraceLevel, TransportKind, UpCall, WireRef, WireWriter, DEFAULT_PRIORITY,
};
use std::cell::RefCell;
use std::mem::size_of;
use std::sync::Arc;

#[cfg(test)]
mod reference;

/// A value of the action language, as [`InterpretedAgent::var`] reports
/// a variable and a `trace(..)` record prints one.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Int(i64),
    Bool(bool),
    Node(NodeId),
    Key(MacedonKey),
    Bytes(Bytes),
    List(Vec<NodeId>),
    Null,
}

impl Value {
    fn of_node(n: Option<NodeId>) -> Value {
        n.map_or(Value::Null, Value::Node)
    }

    fn of_payload(p: Option<&Bytes>) -> Value {
        p.map_or(Value::Null, |b| Value::Bytes(b.clone()))
    }
}

/// Why a transition unwound, the one runtime fault: a null node where
/// a value is required (`neighbor_add(l, null)`, a null routing key or
/// `routeIP` destination, a null-destination layered send with no key
/// to route toward).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Fault;

impl Fault {
    /// The text after `"<spec>: runtime error: "`, exactly as the
    /// generated agents trace it (`codegen`'s `bail`).
    const TEXT: &'static str = "null where a value is required";
}

/// Per-transition bindings — the decoded message fields, `from`,
/// `payload`, and the API arguments — and the node-list buffers a
/// transition works in. No agent keeps one: every event borrows a frame
/// from this thread's pool ([`with_frame`]) and hands it back drained,
/// so its storage is reused across every agent the thread runs.
#[derive(Default)]
struct Frame {
    /// Scalar fields, by slot ([`crate::ir::IrField::at`]).
    fields: Slots,
    /// List fields, in declaration order (past the triggering
    /// message's count: spare buffers).
    lists: Vec<Vec<NodeId>>,
    from: Option<NodeId>,
    payload: Option<Bytes>,
    /// `dest` of a `route` transition, or `group` of a group API's.
    api_key: MacedonKey,
    /// `dest` of a `routeIP` transition.
    api_dest: Option<NodeId>,
    /// Set by `quash();` inside a `forward` transition.
    quash: bool,
    /// Empty node-list buffers for decoded list fields, `foreach`
    /// snapshots and replaced neighbor lists (at most
    /// [`NODE_POOL_MAX`]).
    nodes: Vec<Vec<NodeId>>,
}

/// Cap on the node-list buffers a frame keeps.
const NODE_POOL_MAX: usize = 8;

thread_local! {
    /// Frames handed back drained: one per interpreted transition this
    /// thread ever had running at once. Boxed, so a frame moves between
    /// the pool and a dispatch without being copied. Counted in the
    /// engine's census from the first use on a thread.
    #[allow(clippy::vec_box)]
    static FRAMES: RefCell<Vec<Box<Frame>>> = {
        macedon_core::scratch::count_pool(frame_bytes);
        RefCell::new(Vec::new())
    };
}

/// Run `f` on a frame from this thread's pool, readied for an event from
/// `from`, and hand the frame back drained (debug builds check each
/// frame a dispatch takes: a leftover binding would leak into another
/// agent's event).
fn with_frame<R>(from: Option<NodeId>, f: impl FnOnce(&mut Frame) -> R) -> R {
    let mut frame = FRAMES.with_borrow_mut(Vec::pop).unwrap_or_default();
    debug_assert!(frame.is_drained(), "a frame comes back drained");
    frame.reset(from);
    let r = f(&mut frame);
    frame.drain();
    FRAMES.with_borrow_mut(|frames| frames.push(frame));
    r
}

/// Hand this thread's frame pool a frame whose drain left `quash` set,
/// then take it for an event: the leftover the pool's debug-build check
/// must catch, so this panics in a debug build.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn give_back_quashed_frame() {
    let frame = Box::new(Frame {
        quash: true,
        ..Frame::default()
    });
    FRAMES.with_borrow_mut(|frames| frames.push(frame));
    with_frame(None, |_| ());
}

/// Heap bytes in this thread's pool of frames.
fn frame_bytes() -> usize {
    let lists = |ls: &Vec<Vec<NodeId>>| {
        ls.capacity() * size_of::<Vec<NodeId>>()
            + ls.iter()
                .map(|l| l.capacity() * size_of::<NodeId>())
                .sum::<usize>()
    };
    FRAMES.with_borrow(|frames| {
        frames.capacity() * size_of::<Box<Frame>>()
            + (frames.iter())
                .map(|f| {
                    size_of::<Frame>() + f.fields.heap_bytes() + lists(&f.lists) + lists(&f.nodes)
                })
                .sum::<usize>()
    })
}

impl Frame {
    /// Ready the frame for an event from `from`.
    fn reset(&mut self, from: Option<NodeId>) {
        self.fields.clear();
        self.from = from;
        self.payload = None;
        self.api_dest = None;
        self.quash = false;
    }

    /// Empty every binding, keeping the buffers, for the frame's next
    /// event — whichever agent it is.
    fn drain(&mut self) {
        self.reset(None);
        self.api_key = MacedonKey::default();
        for l in &mut self.lists {
            l.clear();
        }
    }

    /// Every binding empty, as [`Frame::drain`] leaves it.
    fn is_drained(&self) -> bool {
        let Frame {
            fields,
            lists,
            from,
            payload,
            api_key,
            api_dest,
            quash,
            nodes,
        } = self;
        *fields == Slots::default()
            && lists.iter().chain(nodes).all(Vec::is_empty)
            && from.is_none()
            && payload.is_none()
            && *api_key == MacedonKey::default()
            && api_dest.is_none()
            && !quash
    }

    /// An empty node-list buffer.
    fn take_nodes(&mut self) -> Vec<NodeId> {
        self.nodes.pop().unwrap_or_default()
    }

    /// Keep `l`'s buffer for reuse, while there is room.
    fn pool_nodes(&mut self, mut l: Vec<NodeId>) {
        if self.nodes.len() < NODE_POOL_MAX && l.capacity() > 0 {
            l.clear();
            self.nodes.push(l);
        }
    }

    /// Decode one message's fields, in declaration order, for an event
    /// from `from`.
    fn decode(
        &mut self,
        decl: &IrMessage,
        r: &mut WireRef,
        from: NodeId,
    ) -> Result<(), DecodeError> {
        self.reset(Some(from));
        let mut lists = 0;
        for f in &decl.fields {
            match f.kind {
                FieldKind::Int => self.fields.push_int(r.u64()? as i64),
                FieldKind::Bool => self.fields.push_bool(r.u8()? != 0),
                FieldKind::Node => {
                    let n = r.node()?;
                    self.fields.push_node((n != NodeId(u32::MAX)).then_some(n));
                }
                FieldKind::Key => self.fields.push_key(r.key()?),
                FieldKind::Payload => self.fields.push_payload(r.bytes()?),
                FieldKind::Nodes => {
                    if self.lists.len() == lists {
                        let l = self.take_nodes();
                        self.lists.push(l);
                    }
                    let l = &mut self.lists[lists];
                    l.clear();
                    r.nodes_into(l)?;
                    lists += 1;
                }
            }
        }
        Ok(())
    }
}

enum Flow {
    Continue,
    Return,
}

/// A dispatch point: which jump table, which slot.
#[derive(Clone, Copy)]
enum At {
    Api(ApiKind),
    Timer(u16),
    Recv(u16),
    Forward(u16),
    Error,
}

fn table_of(ir: &IrSpec, at: At) -> &Table {
    match at {
        At::Api(k) => &ir.tables.api[k as usize],
        At::Timer(i) => &ir.tables.timer[i as usize],
        At::Recv(i) => &ir.tables.recv[i as usize],
        At::Forward(i) => &ir.tables.forward[i as usize],
        At::Error => &ir.tables.error,
    }
}

/// Derive the channel table a world must be built with to host this spec.
pub fn channel_table(ir: &IrSpec) -> Vec<ChannelSpec> {
    ir.spec
        .transports
        .iter()
        .map(|t| {
            let kind = match t.kind {
                TransportKindDecl::Tcp => TransportKind::Tcp,
                TransportKindDecl::Udp => TransportKind::Udp,
                TransportKindDecl::Swp => TransportKind::Swp { window: 16 },
            };
            ChannelSpec::new(t.name.clone(), kind)
        })
        .collect()
}

/// Well-known protocol id derived from the protocol name.
pub fn protocol_id_of(name: &str) -> ProtocolId {
    let h = macedon_core::sha1::sha1_u32(name.as_bytes()) as u16;
    // Stay clear of reserved values (engine heartbeat, app wrapper,
    // interpreter tunnel).
    match h {
        0xFFFD..=0xFFFF => 0x7FFF,
        v => v,
    }
}

/// An interpreted protocol instance executing a shared [`IrSpec`].
///
/// The mutable runtime lives in `Core`, a separate field from the
/// shared `Arc<IrSpec>`, so the executor borrows the program and the
/// state disjointly — no per-event `Arc` refcount traffic.
pub struct InterpretedAgent {
    ir: Arc<IrSpec>,
    core: Core,
    /// Transitions fired, per trigger kind (observability / tests).
    pub transitions_fired: u64,
}

/// The mutable interpreter runtime (everything a transition touches).
struct Core {
    proto: ProtocolId,
    bootstrap: Option<NodeId>,
    /// Index into `ir.states`.
    state: u16,
    /// Typed variable slots (constants, declared scalars, `foreach`
    /// bindings).
    vars: Slots,
    /// Neighbor-list slots.
    lists: Vec<Vec<NodeId>>,
    /// How each message travels, by message id: a lowest layer's on
    /// its declared channel; a layered spec's at the base layer's
    /// priority for its declared class ([`DEFAULT_PRIORITY`] until
    /// [`InterpretedAgent::set_base_transports`] resolves it).
    lanes: Vec<Lane>,
    port: Port,
}

impl InterpretedAgent {
    /// Instantiate a compiled spec as one layer of a stack, sharing the
    /// `IrSpec` with every other node interpreting the same protocol.
    /// `bootstrap` is bound to the variable `bootstrap` inside
    /// transitions (`Null` for the designated root). Specs with a `uses`
    /// clause must be stacked above an agent serving their base
    /// protocol's API — interpreted or native;
    /// [`crate::registry::SpecRegistry`] builds whole chains.
    pub fn new(ir: Arc<IrSpec>, bootstrap: Option<NodeId>) -> InterpretedAgent {
        let lists = vec![Vec::new(); ir.lists.len()];
        let lanes = (ir.messages.iter())
            .map(|m| match ir.layered {
                true => Lane::Base(DEFAULT_PRIORITY),
                false => Lane::Wire(m.channel),
            })
            .collect();
        InterpretedAgent {
            core: Core {
                proto: ir.proto,
                bootstrap,
                state: 0,
                vars: ir.slots.clone(),
                lists,
                lanes,
                port: Port::default(),
            },
            transitions_fired: 0,
            ir,
        }
    }

    /// The shared lowered spec this agent executes.
    pub fn ir(&self) -> &Arc<IrSpec> {
        &self.ir
    }

    /// Resolve this layered spec's message class names (`HIGH`,
    /// `BEST_EFFORT`, …) against the base (tunneling) layer's transport
    /// table, so sends carry a transport priority instead of
    /// [`DEFAULT_PRIORITY`]. [`crate::registry::SpecRegistry::build_stack`]
    /// calls this with the chain's lowest spec; standalone agents keep
    /// default priorities (channel 0 at the tunnel).
    ///
    /// The priority is honored by the engine-served `routeIP` tunnel —
    /// i.e. for node-addressed sends. A key-addressed send becomes a
    /// `Route` downcall served by the base spec's own `route`
    /// transition, which sends its *own* declared message on that
    /// message's class; the priority cannot override a spec-level
    /// transport choice (see ROADMAP).
    pub fn set_base_transports(&mut self, base: &[crate::ast::TransportDecl]) {
        for (i, m) in self.ir.messages.iter().enumerate() {
            if let Some(class) = &m.transport {
                if let Some(ch) = crate::ast::map_class_to_channel(base, class) {
                    if let Ok(p) = i8::try_from(ch) {
                        self.core.lanes[i] = Lane::Base(p);
                    }
                }
            }
        }
    }

    /// The current value of a declared constant or scalar variable.
    pub fn var(&self, name: &str) -> Option<Value> {
        let var = &self.ir.vars[self.ir.var_slot(name)? as usize];
        let (vars, s) = (&self.core.vars, var.slot);
        Some(match var.ty {
            Ty::Int => Value::Int(vars.int(s)),
            Ty::Bool => Value::Bool(vars.bool(s)),
            Ty::Node => Value::of_node(vars.node(s)),
            Ty::Key => Value::Key(vars.key(s)),
            Ty::Payload => Value::Bytes(vars.payload(s).clone()),
            Ty::List | Ty::Null => Value::Null,
        })
    }

    // ---- dispatch --------------------------------------------------------

    /// Fire the transition matching the dispatch point in the current
    /// state, if any, over the prepared frame; returns the frame's quash
    /// flag (only `forward` transitions set it).
    fn fire(&mut self, ctx: &mut Ctx, frame: &mut Frame, at: At) -> bool {
        let ir = &*self.ir;
        let core = &mut self.core;
        let hit = table_of(ir, at)
            .iter()
            .find(|(mask, _)| mask.contains(core.state));
        let Some(&(_, tidx)) = hit else {
            // No trace here: the generated back end cannot observe a
            // missed dispatch either, and the two trace streams must
            // stay byte-identical.
            return false;
        };
        let t = &ir.transitions[tidx as usize];
        if t.read_locked {
            ctx.locking_read();
        }
        self.transitions_fired += 1;
        if core.exec_block(ir, ctx, frame, &t.body).is_err() && ctx.trace_on(TraceLevel::Low) {
            ctx.trace(
                TraceLevel::Low,
                format!("{}: runtime error: {}", ir.name, Fault::TEXT),
            );
        }
        frame.quash
    }

    /// Decode message `id`'s fields from `r` into a frame and fire its
    /// `at` transition over it.
    fn decode_and_fire(
        &mut self,
        ctx: &mut Ctx,
        id: u16,
        from: NodeId,
        r: &mut WireRef,
        at: At,
    ) -> Result<bool, DecodeError> {
        with_frame(Some(from), |frame| {
            frame.decode(&self.ir.messages[id as usize], r, from)?;
            Ok(self.fire(ctx, frame, at))
        })
    }
}

impl Core {
    fn exec_block(
        &mut self,
        ir: &IrSpec,
        ctx: &mut Ctx,
        frame: &mut Frame,
        stmts: &[IrStmt],
    ) -> Result<Flow, Fault> {
        for s in stmts {
            match self.exec(ir, ctx, frame, s)? {
                Flow::Return => return Ok(Flow::Return),
                Flow::Continue => {}
            }
        }
        Ok(Flow::Continue)
    }

    /// One statement. The statements of a protocol's inner loops are
    /// handled here; the rest, and loops themselves, out of line, which
    /// keeps this frame — entered once per statement — small.
    fn exec(
        &mut self,
        ir: &IrSpec,
        ctx: &mut Ctx,
        frame: &mut Frame,
        stmt: &IrStmt,
    ) -> Result<Flow, Fault> {
        match stmt {
            IrStmt::If { cond, then, els } => {
                return if self.eval_bool(ctx, frame, cond) {
                    self.exec_block(ir, ctx, frame, then)
                } else {
                    self.exec_block(ir, ctx, frame, els)
                };
            }
            IrStmt::Return => return Ok(Flow::Return),
            IrStmt::NeighborAdd(slot, e) => {
                let node = self.eval_node(ctx, frame, e).ok_or(Fault)?;
                let decl = &ir.lists[*slot as usize];
                let l = &mut self.lists[*slot as usize];
                if !l.contains(&node) && l.len() < decl.max {
                    l.push(node);
                    if decl.fail_detect {
                        ctx.monitor(node);
                    }
                }
            }
            IrStmt::AssignInt(slot, e) => {
                let v = self.eval_int(ctx, frame, e);
                self.vars.set_int(*slot, v);
            }
            IrStmt::AssignBool(slot, e) => {
                let v = self.eval_bool(ctx, frame, e);
                self.vars.set_bool(*slot, v);
            }
            IrStmt::AssignNode(slot, e) => {
                let v = self.eval_node(ctx, frame, e);
                self.vars.set_node(*slot, v);
            }
            IrStmt::AssignKey(slot, e) => {
                let v = self.eval_key(ctx, frame, e);
                self.vars.set_key(*slot, v);
            }
            IrStmt::ForEach { var, list, body } => {
                return self.exec_foreach(ir, ctx, frame, *var, *list, body)
            }
            _ => return self.exec_rest(ir, ctx, frame, stmt),
        }
        Ok(Flow::Continue)
    }

    #[inline(never)]
    fn exec_foreach(
        &mut self,
        ir: &IrSpec,
        ctx: &mut Ctx,
        frame: &mut Frame,
        var: u16,
        list: u16,
        body: &[IrStmt],
    ) -> Result<Flow, Fault> {
        // Snapshot (into a pooled buffer) so the body may mutate the
        // list; the loop variable owns a dedicated slot, so no
        // save/restore.
        let mut snapshot = frame.take_nodes();
        snapshot.extend_from_slice(&self.lists[list as usize]);
        let mut flow = Ok(Flow::Continue);
        for &n in &snapshot {
            self.vars.set_node(var, Some(n));
            flow = self.exec_block(ir, ctx, frame, body);
            if !matches!(flow, Ok(Flow::Continue)) {
                break;
            }
        }
        frame.pool_nodes(snapshot);
        flow
    }

    #[inline(never)]
    fn exec_rest(
        &mut self,
        ir: &IrSpec,
        ctx: &mut Ctx,
        frame: &mut Frame,
        stmt: &IrStmt,
    ) -> Result<Flow, Fault> {
        match stmt {
            IrStmt::StateChange(s) => {
                ctx.trace_fsm(&ir.states[self.state as usize], &ir.states[*s as usize]);
                self.state = *s;
            }
            IrStmt::TimerResched(id, e) => {
                let ms = self.eval_int(ctx, frame, e);
                ctx.timer_set(*id, Duration::from_millis(ms.max(0) as u64));
            }
            IrStmt::TimerCancel(id) => ctx.timer_cancel(*id),
            IrStmt::NeighborRemove(slot, e) => {
                let node = self.eval_node(ctx, frame, e).ok_or(Fault)?;
                self.lists[*slot as usize].retain(|&n| n != node);
                if ir.lists[*slot as usize].fail_detect && !self.fd_elsewhere(ir, *slot, node) {
                    ctx.unmonitor(node);
                }
            }
            IrStmt::NeighborClear(slot) => {
                let mut l = std::mem::take(&mut self.lists[*slot as usize]);
                if ir.lists[*slot as usize].fail_detect {
                    for &n in &l {
                        if !self.fd_elsewhere(ir, *slot, n) {
                            ctx.unmonitor(n);
                        }
                    }
                }
                l.clear();
                self.lists[*slot as usize] = l;
            }
            IrStmt::Send { msg, dest, args } => self.send(ctx, frame, *msg, dest, args)?,
            IrStmt::Quash => frame.quash = true,
            IrStmt::DownCall(down) => {
                let call = self.downcall(ctx, frame, down)?;
                ctx.down(call);
            }
            IrStmt::UpcallNotify(slot, e) => {
                let ty = self.eval_int(ctx, frame, e) as u32;
                ctx.up(UpCall::Notify {
                    nbr_type: ty,
                    neighbors: self.lists[*slot as usize].clone(),
                });
            }
            IrStmt::Deliver { src, payload } => {
                let src = self.eval_key_arg(ctx, frame, src)?;
                let payload = self.payload_value(frame, payload);
                let from = frame.from.unwrap_or(ctx.me);
                ctx.up(UpCall::Deliver { src, from, payload });
            }
            IrStmt::Monitor(e) => {
                let n = self.eval_node(ctx, frame, e).ok_or(Fault)?;
                ctx.monitor(n);
            }
            IrStmt::Unmonitor(e) => {
                let n = self.eval_node(ctx, frame, e).ok_or(Fault)?;
                ctx.unmonitor(n);
            }
            IrStmt::AssignPayload(slot, e) => {
                let v = self.payload_value(frame, e);
                self.vars.set_payload(*slot, v);
            }
            IrStmt::AssignList(slot, e) => {
                let mut ns = frame.take_nodes();
                ns.extend_from_slice(self.eval_list(frame, e));
                let old = self.assign_list(ir, ctx, *slot, ns);
                frame.pool_nodes(old);
            }
            IrStmt::AssignListTakeField(slot, at) => {
                // The replaced list's buffer takes the field's place, for
                // the next decode to fill.
                let field = &mut frame.lists[*at as usize];
                let ns = std::mem::take(field);
                *field = self.assign_list(ir, ctx, *slot, ns);
            }
            IrStmt::Trace(e) => {
                // Always evaluate — the expression may draw from the RNG
                // (`trace(neighbor_random(..))`); only the formatting is
                // gated on the trace threshold.
                let v = self.eval_any(ctx, frame, e);
                if ctx.trace_on(TraceLevel::Med) {
                    ctx.trace(TraceLevel::Med, format!("{}: trace {v:?}", ir.name));
                }
            }
            IrStmt::If { .. }
            | IrStmt::Return
            | IrStmt::NeighborAdd(..)
            | IrStmt::AssignInt(..)
            | IrStmt::AssignBool(..)
            | IrStmt::AssignNode(..)
            | IrStmt::AssignKey(..)
            | IrStmt::ForEach { .. } => unreachable!("handled by exec"),
        }
        Ok(Flow::Continue)
    }

    /// Whole-list assignment (e.g. `brothers = field(sibs);`):
    /// replaces contents; own id is filtered out. Returns the replaced
    /// list's buffer.
    #[inline(never)]
    fn assign_list(
        &mut self,
        ir: &IrSpec,
        ctx: &mut Ctx,
        slot: u16,
        mut ns: Vec<NodeId>,
    ) -> Vec<NodeId> {
        ns.retain(|&n| n != ctx.me);
        let decl = &ir.lists[slot as usize];
        ns.truncate(decl.max);
        if decl.fail_detect {
            for &n in &self.lists[slot as usize] {
                if !self.fd_elsewhere(ir, slot, n) {
                    ctx.unmonitor(n);
                }
            }
            for n in &ns {
                ctx.monitor(*n);
            }
        }
        std::mem::replace(&mut self.lists[slot as usize], ns)
    }

    /// Does a `fail_detect` list other than `slot` hold `n`? Such a peer
    /// stays monitored when it leaves `slot`: the engine keeps one
    /// registration per peer and layer, not one per list.
    fn fd_elsewhere(&self, ir: &IrSpec, slot: u16, n: NodeId) -> bool {
        ir.lists
            .iter()
            .zip(&self.lists)
            .enumerate()
            .any(|(i, (d, l))| i != slot as usize && d.fail_detect && l.contains(&n))
    }

    /// Translate a lowered `downcall(<api>, args...)` into the engine
    /// API call it names, evaluating its arguments in order.
    fn downcall(&self, ctx: &mut Ctx, frame: &Frame, down: &IrDown) -> Result<DownCall, Fault> {
        Ok(match down {
            IrDown::Join(g) => DownCall::Join {
                group: self.eval_key_arg(ctx, frame, g)?,
            },
            IrDown::Leave(g) => DownCall::Leave {
                group: self.eval_key_arg(ctx, frame, g)?,
            },
            IrDown::CreateGroup(g) => DownCall::CreateGroup {
                group: self.eval_key_arg(ctx, frame, g)?,
            },
            IrDown::Multicast(g, p) => DownCall::Multicast {
                group: self.eval_key_arg(ctx, frame, g)?,
                payload: self.payload_value(frame, p),
                priority: DEFAULT_PRIORITY,
            },
            IrDown::Anycast(g, p) => DownCall::Anycast {
                group: self.eval_key_arg(ctx, frame, g)?,
                payload: self.payload_value(frame, p),
                priority: DEFAULT_PRIORITY,
            },
            IrDown::Collect(g, p) => DownCall::Collect {
                group: self.eval_key_arg(ctx, frame, g)?,
                payload: self.payload_value(frame, p),
                priority: DEFAULT_PRIORITY,
            },
            IrDown::Route(d, p) => DownCall::Route {
                dest: self.eval_key_arg(ctx, frame, d)?,
                payload: self.payload_value(frame, p),
                priority: DEFAULT_PRIORITY,
            },
            IrDown::RouteIp(d, p) => DownCall::RouteIp {
                dest: self.eval_node(ctx, frame, d).ok_or(Fault)?,
                payload: self.payload_value(frame, p),
                priority: DEFAULT_PRIORITY,
            },
        })
    }

    /// The transmission primitive. The destination is evaluated first,
    /// then each argument in order, encoded into the frame as it is
    /// produced; a null node in a key field faults only once every
    /// argument has been evaluated. The frame then leaves through the
    /// shell's send tail ([`Port::send`]).
    fn send(
        &mut self,
        ctx: &mut Ctx,
        frame: &Frame,
        msg: u16,
        dest: &SendDest,
        args: &[SendArg],
    ) -> Result<(), Fault> {
        let dest = match dest {
            SendDest::Node(e) => Dest::Node(self.eval_node(ctx, frame, e)),
            SendDest::Key(e) => Dest::Key(self.eval_key(ctx, frame, e)),
        };
        let mut w = WireWriter::new();
        w.u16(self.proto).u16(msg);
        let mut encode_fault = None;
        // The first key field is where a layered send to `null` routes;
        // the first non-empty payload field is upper-layer data a lowest
        // layer carries.
        let mut route_key = None;
        let mut carried = None;
        for arg in args {
            match arg {
                SendArg::Int(e) => {
                    w.u64(self.eval_int(ctx, frame, e) as u64);
                }
                SendArg::Bool(e) => {
                    w.u8(self.eval_bool(ctx, frame, e) as u8);
                }
                SendArg::Node(e) => {
                    w.node(self.eval_node(ctx, frame, e).unwrap_or(NodeId(u32::MAX)));
                }
                SendArg::Key(e) => match self.eval_key_arg(ctx, frame, e) {
                    Ok(k) => {
                        w.key(k);
                        route_key.get_or_insert(k);
                    }
                    Err(f) => {
                        encode_fault.get_or_insert(f);
                    }
                },
                SendArg::Payload(e) => match self.eval_payload(frame, e) {
                    Some(b) => {
                        if carried.is_none() && !b.is_empty() {
                            carried = Some(b.clone());
                        }
                        w.bytes(b);
                    }
                    None => {
                        w.bytes(&[]);
                    }
                },
                SendArg::List(e) => {
                    w.nodes(self.eval_list(frame, e));
                }
            }
        }
        if let Some(f) = encode_fault {
            return Err(f);
        }
        self.port
            .send(
                ctx,
                self.lanes[msg as usize],
                dest,
                w.finish(),
                route_key,
                carried,
            )
            .map_err(|_| Fault)
    }

    // ---- typed evaluation --------------------------------------------------
    //
    // One evaluator per static type. Operands are evaluated left to
    // right, both operands of a binary operator before either is used,
    // and `neighbor_random` draws from `ctx.rng` exactly where the
    // generated agents do. A typed tree is well typed and every divisor a
    // nonzero constant, so no expression faults.
    //
    // `eval_int`, `eval_bool`, `eval_node` and `eval_key` are inlined
    // fronts: a leaf (a slot, a field, a builtin) — and, for conditions,
    // a comparison or null test of leaves — is read in place, with no
    // call; anything else goes to the out-of-line `*_tree` evaluator.

    #[inline(always)]
    fn eval_int(&self, ctx: &mut Ctx, f: &Frame, e: &IntExpr) -> i64 {
        match e {
            IntExpr::Lit(v) | IntExpr::Const(v, _) => *v,
            IntExpr::Var(s) => self.vars.int(*s),
            IntExpr::Field(at) => f.fields.int(*at),
            IntExpr::NeighborSize(l) => self.lists[*l as usize].len() as i64,
            IntExpr::RingDist(ab) => {
                let a = self.eval_key_opt(ctx, f, &ab[0]);
                key::dsl_ring_dist(a, self.eval_key_opt(ctx, f, &ab[1]))
            }
            IntExpr::PrefixLen(ab) => {
                let a = self.eval_key_opt(ctx, f, &ab[0]);
                key::dsl_prefix_len(a, self.eval_key_opt(ctx, f, &ab[1]))
            }
            _ => self.int_tree(ctx, f, e),
        }
    }

    fn int_tree(&self, ctx: &mut Ctx, f: &Frame, e: &IntExpr) -> i64 {
        match e {
            IntExpr::Lit(v) | IntExpr::Const(v, _) => *v,
            IntExpr::Var(s) => self.vars.int(*s),
            IntExpr::Field(at) => f.fields.int(*at),
            IntExpr::OfBool(b) => self.eval_bool(ctx, f, b) as i64,
            IntExpr::NeighborSize(l) => self.lists[*l as usize].len() as i64,
            IntExpr::Rtt(n) => self.eval_node(ctx, f, n).map_or(0, |p| ctx.rtt_ms(p)),
            IntExpr::Goodput(n) => self.eval_node(ctx, f, n).map_or(0, |p| ctx.goodput_kbps(p)),
            IntExpr::RingDist(ab) => {
                let a = self.eval_key_opt(ctx, f, &ab[0]);
                key::dsl_ring_dist(a, self.eval_key_opt(ctx, f, &ab[1]))
            }
            IntExpr::Digit(k, i, base) => {
                let k = self.eval_key_opt(ctx, f, k);
                let i = self.eval_int(ctx, f, i);
                key::dsl_digit(k, i, self.eval_int(ctx, f, base))
            }
            IntExpr::PrefixLen(ab) => {
                let a = self.eval_key_opt(ctx, f, &ab[0]);
                key::dsl_prefix_len(a, self.eval_key_opt(ctx, f, &ab[1]))
            }
            IntExpr::Neg(x) => self.eval_int(ctx, f, x).wrapping_neg(),
            IntExpr::Arith(op, ab) => {
                let a = self.eval_int(ctx, f, &ab[0]);
                let b = self.eval_int(ctx, f, &ab[1]);
                match op {
                    ArithOp::Add => a.wrapping_add(b),
                    ArithOp::Sub => a.wrapping_sub(b),
                    ArithOp::Mul => a.wrapping_mul(b),
                    ArithOp::Div => a.wrapping_div(b),
                    ArithOp::Mod => a.wrapping_rem(b),
                }
            }
        }
    }

    #[inline(always)]
    fn eval_bool(&self, ctx: &mut Ctx, f: &Frame, e: &BoolExpr) -> bool {
        match e {
            BoolExpr::Lit(b) => *b,
            BoolExpr::Var(s) => self.vars.bool(*s),
            BoolExpr::Field(at) => f.fields.bool(*at),
            BoolExpr::Cmp(op, ab) => {
                let a = self.eval_int(ctx, f, &ab[0]);
                compare(*op, a, self.eval_int(ctx, f, &ab[1]))
            }
            BoolExpr::IsSome(x) => self.eval_node(ctx, f, x).is_some(),
            BoolExpr::IsNull(x) => self.eval_node(ctx, f, x).is_none(),
            BoolExpr::EqNode(a, b) => {
                let a = self.eval_node(ctx, f, a);
                a == self.eval_node(ctx, f, b)
            }
            BoolExpr::NeighborQuery(l, n) => self
                .eval_node(ctx, f, n)
                .is_some_and(|n| self.lists[*l as usize].contains(&n)),
            _ => self.bool_tree(ctx, f, e),
        }
    }

    fn bool_tree(&self, ctx: &mut Ctx, f: &Frame, e: &BoolExpr) -> bool {
        match e {
            BoolExpr::Lit(b) => *b,
            BoolExpr::Var(s) => self.vars.bool(*s),
            BoolExpr::Field(at) => f.fields.bool(*at),
            BoolExpr::Not(x) => !self.eval_bool(ctx, f, x),
            BoolExpr::And(a, b) => {
                let a = self.eval_bool(ctx, f, a);
                self.eval_bool(ctx, f, b) && a
            }
            BoolExpr::Or(a, b) => {
                let a = self.eval_bool(ctx, f, a);
                self.eval_bool(ctx, f, b) || a
            }
            BoolExpr::Cmp(op, ab) => {
                let a = self.eval_int(ctx, f, &ab[0]);
                compare(*op, a, self.eval_int(ctx, f, &ab[1]))
            }
            BoolExpr::NonZero(x) => self.eval_int(ctx, f, x) != 0,
            BoolExpr::IsSome(x) => self.eval_node(ctx, f, x).is_some(),
            BoolExpr::IsNull(x) => self.eval_node(ctx, f, x).is_none(),
            BoolExpr::NonEmpty(x) => self.eval_payload(f, x).is_some_and(|b| !b.is_empty()),
            BoolExpr::IsNullPayload(x) => self.eval_payload(f, x).is_none(),
            BoolExpr::EqBool(a, b) => {
                let a = self.eval_bool(ctx, f, a);
                a == self.eval_bool(ctx, f, b)
            }
            BoolExpr::EqNode(a, b) => {
                let a = self.eval_node(ctx, f, a);
                a == self.eval_node(ctx, f, b)
            }
            BoolExpr::EqKey(a, b) => {
                let a = self.eval_key(ctx, f, a);
                a == self.eval_key(ctx, f, b)
            }
            BoolExpr::EqKeyNode {
                key,
                node,
                key_first,
            } => {
                let (k, n) = if *key_first {
                    let k = self.eval_key(ctx, f, key);
                    (k, self.eval_node(ctx, f, node))
                } else {
                    let n = self.eval_node(ctx, f, node);
                    (self.eval_key(ctx, f, key), n)
                };
                n.is_some_and(|n| n.0 == k.0)
            }
            BoolExpr::EqPayload(a, b) => self.eval_payload(f, a) == self.eval_payload(f, b),
            BoolExpr::EqList(a, b) => self.eval_list(f, a) == self.eval_list(f, b),
            BoolExpr::NeighborQuery(l, n) => self
                .eval_node(ctx, f, n)
                .is_some_and(|n| self.lists[*l as usize].contains(&n)),
            BoolExpr::RingBetween(x, lo, hi) => {
                let x = self.eval_key_opt(ctx, f, x);
                let lo = self.eval_key_opt(ctx, f, lo);
                key::dsl_ring_between(x, lo, self.eval_key_opt(ctx, f, hi))
            }
            BoolExpr::Const(operands, v) => {
                for op in operands {
                    self.effects(ctx, f, op);
                }
                *v
            }
        }
    }

    #[inline(always)]
    fn eval_node(&self, ctx: &mut Ctx, f: &Frame, e: &NodeExpr) -> Option<NodeId> {
        match e {
            NodeExpr::Null => None,
            NodeExpr::From => f.from,
            NodeExpr::Me => Some(ctx.me),
            NodeExpr::Var(s) => self.vars.node(*s),
            NodeExpr::Field(at) => f.fields.node(*at),
            _ => self.node_tree(ctx, f, e),
        }
    }

    fn node_tree(&self, ctx: &mut Ctx, f: &Frame, e: &NodeExpr) -> Option<NodeId> {
        match e {
            NodeExpr::Null => None,
            NodeExpr::From => f.from,
            NodeExpr::Me => Some(ctx.me),
            NodeExpr::Bootstrap => self.bootstrap,
            NodeExpr::ApiDest => f.api_dest,
            NodeExpr::Var(s) => self.vars.node(*s),
            NodeExpr::Field(at) => f.fields.node(*at),
            NodeExpr::NeighborRandom(l) => {
                let l = &self.lists[*l as usize];
                if l.is_empty() {
                    None
                } else {
                    Some(l[ctx.rng.index(l.len())])
                }
            }
            NodeExpr::OwnerOf(k, l) => {
                let k = self.eval_key_opt(ctx, f, k);
                key::dsl_owner_of(k, &self.lists[*l as usize], ctx.addressing)
            }
        }
    }

    #[inline(always)]
    fn eval_key(&self, ctx: &mut Ctx, f: &Frame, e: &KeyExpr) -> MacedonKey {
        match e {
            KeyExpr::MyKey => ctx.my_key,
            KeyExpr::ApiKey => f.api_key,
            KeyExpr::Var(s) => self.vars.key(*s),
            KeyExpr::Field(at) => f.fields.key(*at),
            _ => self.key_tree(ctx, f, e),
        }
    }

    fn key_tree(&self, ctx: &mut Ctx, f: &Frame, e: &KeyExpr) -> MacedonKey {
        match e {
            KeyExpr::MyKey => ctx.my_key,
            KeyExpr::ApiKey => f.api_key,
            KeyExpr::Var(s) => self.vars.key(*s),
            KeyExpr::Field(at) => f.fields.key(*at),
            // Key ± int wraps on the 2^32 ring (Chord's `my_key + pow2`
            // finger targets).
            KeyExpr::Offset { key, by, negate } => {
                let k = self.eval_key(ctx, f, key);
                let by = self.eval_int(ctx, f, by);
                key::dsl_key_add(k, if *negate { by.wrapping_neg() } else { by })
            }
        }
    }

    /// A key-builtin operand: keys pass through, nodes hash under the
    /// world's addressing mode, ints truncate onto the ring, null stays
    /// null.
    #[inline(always)]
    fn eval_key_opt(&self, ctx: &mut Ctx, f: &Frame, e: &KeyOptExpr) -> Option<MacedonKey> {
        match e {
            KeyOptExpr::Key(k) => Some(self.eval_key(ctx, f, k)),
            KeyOptExpr::Node(n) => self
                .eval_node(ctx, f, n)
                .map(|n| MacedonKey::of_node(n, ctx.addressing)),
            KeyOptExpr::Int(i) => Some(MacedonKey(self.eval_int(ctx, f, i) as u32)),
            KeyOptExpr::Null => None,
        }
    }

    /// A routing key: a node becomes the key with its raw id; a null
    /// node faults.
    fn eval_key_arg(&self, ctx: &mut Ctx, f: &Frame, e: &KeyArg) -> Result<MacedonKey, Fault> {
        match e {
            KeyArg::Key(k) => Ok(self.eval_key(ctx, f, k)),
            KeyArg::Node(n) => self
                .eval_node(ctx, f, n)
                .map(|n| MacedonKey(n.0))
                .ok_or(Fault),
        }
    }

    /// A payload; `None` only for the `null` literal.
    fn eval_payload<'s>(&'s self, f: &'s Frame, e: &PayloadExpr) -> Option<&'s Bytes> {
        match e {
            PayloadExpr::Null => None,
            PayloadExpr::Api => f.payload.as_ref(),
            PayloadExpr::Var(s) => Some(self.vars.payload(*s)),
            PayloadExpr::Field(at) => Some(f.fields.payload(*at)),
        }
    }

    /// A payload argument: null is the empty payload.
    fn payload_value(&self, f: &Frame, e: &PayloadExpr) -> Bytes {
        self.eval_payload(f, e).cloned().unwrap_or_else(Bytes::new)
    }

    fn eval_list<'s>(&'s self, f: &'s Frame, e: &ListExpr) -> &'s [NodeId] {
        match e {
            ListExpr::List(l) => &self.lists[*l as usize],
            ListExpr::Field(at) => &f.lists[*at as usize],
        }
    }

    /// Evaluate for effects (RNG draws) only: payloads and lists have
    /// none.
    fn effects(&self, ctx: &mut Ctx, f: &Frame, e: &AnyExpr) {
        match e {
            AnyExpr::Int(e) => {
                self.eval_int(ctx, f, e);
            }
            AnyExpr::Bool(e) => {
                self.eval_bool(ctx, f, e);
            }
            AnyExpr::Key(e) => {
                self.eval_key(ctx, f, e);
            }
            AnyExpr::Node(e) => {
                self.eval_node(ctx, f, e);
            }
            AnyExpr::Payload(_) | AnyExpr::List(_) | AnyExpr::Null => {}
        }
    }

    /// Evaluate into a [`Value`] (`trace(..)` records).
    fn eval_any(&self, ctx: &mut Ctx, f: &Frame, e: &AnyExpr) -> Value {
        match e {
            AnyExpr::Int(e) => Value::Int(self.eval_int(ctx, f, e)),
            AnyExpr::Bool(e) => Value::Bool(self.eval_bool(ctx, f, e)),
            AnyExpr::Key(e) => Value::Key(self.eval_key(ctx, f, e)),
            AnyExpr::Node(e) => Value::of_node(self.eval_node(ctx, f, e)),
            AnyExpr::Payload(e) => Value::of_payload(self.eval_payload(f, e)),
            AnyExpr::List(e) => Value::List(self.eval_list(f, e).to_vec()),
            AnyExpr::Null => Value::Null,
        }
    }
}

fn compare(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Lt => a < b,
        CmpOp::Gt => a > b,
        CmpOp::Le => a <= b,
        CmpOp::Ge => a >= b,
    }
}

/// The interpreter's half of a spec agent: the IR's facts and its
/// transitions. Everything engine-facing is [`macedon_core::spec`]'s.
impl SpecBody for InterpretedAgent {
    const AGENT_NAME: &'static str = "interpreted";

    fn shape(&self) -> Shape<'_> {
        let ir = &*self.ir;
        Shape {
            name: &ir.name,
            proto: ir.proto,
            layered: ir.layered,
            channels: ir.num_channels,
            messages: ir.messages.len() as u16,
            timers: ir.timers.len() as u16,
        }
    }

    fn period_ms(&self, timer: u16) -> Option<u64> {
        (self.ir.timers[timer as usize].period_ms).map(|ms| ms.max(0) as u64)
    }

    fn port(&mut self) -> &mut Port {
        &mut self.core.port
    }

    fn state(&self) -> &str {
        &self.ir.states[self.core.state as usize]
    }

    fn lists(&self) -> Vec<(&str, &[NodeId])> {
        (self.ir.lists.iter().zip(&self.core.lists))
            .map(|(decl, list)| (decl.name.as_str(), list.as_slice()))
            .collect()
    }

    fn fail_detect(&mut self, mut f: impl FnMut(&mut Vec<NodeId>)) {
        for (decl, list) in self.ir.lists.iter().zip(&mut self.core.lists) {
            if decl.fail_detect {
                f(list);
            }
        }
    }

    fn fire_init(&mut self, ctx: &mut Ctx) {
        with_frame(None, |frame| self.fire(ctx, frame, At::Api(ApiKind::Init)));
    }

    fn fire_api(&mut self, ctx: &mut Ctx, call: DownCall) -> Option<DownCall> {
        let kind = match &call {
            DownCall::Route { .. } => ApiKind::Route,
            DownCall::RouteIp { .. } => ApiKind::RouteIp,
            DownCall::Multicast { .. } => ApiKind::Multicast,
            DownCall::Anycast { .. } => ApiKind::Anycast,
            DownCall::Collect { .. } => ApiKind::Collect,
            DownCall::CreateGroup { .. } => ApiKind::CreateGroup,
            DownCall::Join { .. } => ApiKind::Join,
            DownCall::Leave { .. } => ApiKind::Leave,
            DownCall::Ext { .. } => ApiKind::Ext,
        };
        if self.ir.tables.api[kind as usize].is_empty() {
            return Some(call);
        }
        with_frame(None, |f| {
            match call {
                DownCall::Route { dest, payload, .. } => {
                    f.api_key = dest;
                    f.payload = Some(payload);
                }
                DownCall::RouteIp { dest, payload, .. } => {
                    f.api_dest = Some(dest);
                    f.payload = Some(payload);
                }
                DownCall::Multicast { group, payload, .. }
                | DownCall::Anycast { group, payload, .. }
                | DownCall::Collect { group, payload, .. } => {
                    f.api_key = group;
                    f.payload = Some(payload);
                }
                DownCall::CreateGroup { group }
                | DownCall::Join { group }
                | DownCall::Leave { group } => {
                    f.api_key = group;
                }
                DownCall::Ext { .. } => {}
            }
            self.fire(ctx, f, At::Api(kind));
        });
        None
    }

    fn fire_recv(
        &mut self,
        ctx: &mut Ctx,
        id: u16,
        from: NodeId,
        r: &mut WireRef<'_>,
    ) -> Result<(), DecodeError> {
        self.decode_and_fire(ctx, id, from, r, At::Recv(id))?;
        Ok(())
    }

    fn fire_forward(
        &mut self,
        ctx: &mut Ctx,
        id: u16,
        from: NodeId,
        r: &mut WireRef<'_>,
    ) -> Result<bool, DecodeError> {
        // Most messages declare no forward transition, and those must
        // not pay a field decode (or drop pooled buffers).
        if self.ir.tables.forward[id as usize].is_empty() {
            return Ok(false);
        }
        self.decode_and_fire(ctx, id, from, r, At::Forward(id))
    }

    fn fire_timer(&mut self, ctx: &mut Ctx, timer: u16) {
        with_frame(None, |frame| self.fire(ctx, frame, At::Timer(timer)));
    }

    fn fire_error(&mut self, ctx: &mut Ctx, peer: NodeId) {
        with_frame(Some(peer), |frame| self.fire(ctx, frame, At::Error));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use macedon_core::{Addressing, Agent, AgentState, NullApp, Time, World, WorldConfig};
    use macedon_net::topology::{canned, LinkSpec};

    /// A toy protocol: everyone joins a star around the bootstrap.
    const STAR: &str = r#"
        protocol star;
        addressing hash;
        states { joined; }
        neighbor_types { member 64 { } }
        transports { TCP CTRL; }
        messages {
            CTRL hello { node who; }
            CTRL welcome { }
        }
        state_variables {
            fail_detect member members;
            int hellos;
        }
        transitions {
            init API init {
                if (bootstrap != null) {
                    hello(bootstrap, me);
                } else {
                    state_change(joined);
                }
            }
            any recv hello {
                hellos = hellos + 1;
                neighbor_add(members, field(who));
                welcome(from);
            }
            init recv welcome {
                neighbor_add(members, from);
                state_change(joined);
            }
        }
    "#;

    fn star_world(n: usize) -> (World, Vec<NodeId>, Arc<IrSpec>) {
        let spec = Arc::new(compile(STAR).unwrap());
        let cfg = WorldConfig {
            seed: 5,
            channels: channel_table(&spec),
            ..Default::default()
        };
        let mut w = World::new(canned::star(n, LinkSpec::lan()), cfg);
        let (hosts, _sink) = w.spawn_each(Duration::from_millis(10), |bootstrap| {
            vec![Box::new(InterpretedAgent::new(spec.clone(), bootstrap))]
        });
        (w, hosts, spec)
    }

    fn agent_of(w: &World, n: NodeId) -> &InterpretedAgent {
        w.stack(n)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap()
    }

    /// The state of layer `layer` of `n`'s stack, as observers read it.
    fn view_of(w: &World, n: NodeId, layer: usize) -> AgentState<'_> {
        w.stack(n).unwrap().agent(layer).view().unwrap()
    }

    #[test]
    fn interpreted_protocol_runs_end_to_end() {
        let (mut w, hosts, _) = star_world(6);
        w.run_until(Time::from_secs(10));
        for &h in &hosts {
            assert_eq!(view_of(&w, h, 0).state, "joined", "{h:?}");
        }
        // The bootstrap heard from everyone.
        let boot = agent_of(&w, hosts[0]);
        assert_eq!(boot.var("hellos"), Some(Value::Int(5)));
        let members = view_of(&w, hosts[0], 0).list("members").unwrap();
        assert_eq!(members.len(), 5);
    }

    #[test]
    fn transitions_scoped_by_state() {
        // `init recv welcome` must not fire once joined.
        let (mut w, hosts, _) = star_world(3);
        w.run_until(Time::from_secs(10));
        let a = view_of(&w, hosts[1], 0);
        assert_eq!(a.state, "joined");
        // Joined members got exactly one welcome each (scoped transition
        // consumed it once).
        assert_eq!(a.list("members").unwrap().len(), 1);
    }

    #[test]
    fn shared_ir_instance_across_agents() {
        // The registry path: every node executes the same Arc<IrSpec>.
        let ir = Arc::new(compile(STAR).unwrap());
        let a = InterpretedAgent::new(ir.clone(), None);
        let b = InterpretedAgent::new(ir.clone(), Some(NodeId(1)));
        assert!(Arc::ptr_eq(a.ir(), b.ir()));
        assert_eq!(Arc::strong_count(&ir), 3);
        assert_eq!(a.view().unwrap().state, "init");
    }

    #[test]
    fn protocol_id_is_stable_and_safe() {
        let a = protocol_id_of("overcast");
        let b = protocol_id_of("overcast");
        assert_eq!(a, b);
        assert_ne!(protocol_id_of("x"), 0xFFFF);
        assert_ne!(protocol_id_of("x"), 0xFFFE);
    }

    #[test]
    fn channel_table_mirrors_transports() {
        let spec = compile(STAR).unwrap();
        let table = channel_table(&spec);
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].name, "CTRL");
        assert_eq!(table[0].kind, TransportKind::Tcp);
    }

    #[test]
    fn value_semantics() {
        use super::reference::values_eq;
        assert!(Value::Int(1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Null.truthy());
        assert!(values_eq(&Value::Int(1), &Value::Bool(true)));
        assert!(values_eq(
            &Value::Node(NodeId(5)),
            &Value::Key(MacedonKey(5))
        ));
        assert!(!values_eq(&Value::Int(2), &Value::Int(3)));
    }

    /// A trivial lowest layer owning one transport; it serves `routeIP`
    /// natively and has no behavior of its own.
    const BASE: &str = r#"
        protocol base;
        addressing hash;
        transports { TCP CTRL; }
    "#;

    /// The STAR protocol re-expressed as a layer above `base`: sends
    /// tunnel through the base's API instead of touching the wire.
    const STAR_OVER_BASE: &str = r#"
        protocol starup uses base;
        addressing hash;
        states { joined; }
        neighbor_types { member 64 { } }
        messages {
            hello { node who; }
            welcome { }
        }
        state_variables {
            member members;
            int hellos;
        }
        transitions {
            init API init {
                if (bootstrap != null) {
                    hello(bootstrap, me);
                } else {
                    state_change(joined);
                }
            }
            any recv hello {
                hellos = hellos + 1;
                neighbor_add(members, field(who));
                welcome(from);
            }
            init recv welcome {
                neighbor_add(members, from);
                state_change(joined);
            }
        }
    "#;

    #[test]
    fn layered_spec_runs_above_interpreted_base() {
        let base = Arc::new(compile(BASE).unwrap());
        let upper = Arc::new(compile(STAR_OVER_BASE).unwrap());
        let cfg = WorldConfig {
            seed: 9,
            channels: channel_table(&base),
            ..Default::default()
        };
        let mut w = World::new(canned::star(5, LinkSpec::lan()), cfg);
        let (hosts, _sink) = w.spawn_each(Duration::from_millis(10), |boot| {
            vec![
                Box::new(InterpretedAgent::new(base.clone(), boot)),
                Box::new(InterpretedAgent::new(upper.clone(), boot)),
            ]
        });
        w.run_until(Time::from_secs(10));
        for &h in &hosts {
            assert_eq!(view_of(&w, h, 1).state, "joined", "{h:?}");
        }
        let boot: &InterpretedAgent = w
            .stack(hosts[0])
            .unwrap()
            .agent(1)
            .as_any()
            .downcast_ref()
            .unwrap();
        assert_eq!(boot.var("hellos"), Some(Value::Int(4)));
        let members = view_of(&w, hosts[0], 1).list("members").unwrap();
        assert_eq!(members.len(), 4);
    }

    #[test]
    fn periodic_timer_autoarms() {
        const TICKER: &str = r#"
            protocol ticker;
            addressing ip;
            transports { UDP U; }
            messages { U noop { } }
            state_variables { timer tick 100; int n; }
            transitions {
                any timer tick { n = n + 1; }
            }
        "#;
        let spec = Arc::new(compile(TICKER).unwrap());
        let topo = canned::star(1, LinkSpec::lan());
        let hosts = topo.hosts().to_vec();
        let cfg = WorldConfig {
            channels: channel_table(&spec),
            ..Default::default()
        };
        let mut w = World::new(topo, cfg);
        w.spawn_at(
            Time::ZERO,
            hosts[0],
            vec![Box::new(InterpretedAgent::new(spec, None))],
            Box::new(NullApp),
        );
        w.run_until(Time::from_secs(1));
        let a = agent_of(&w, hosts[0]);
        let Some(Value::Int(n)) = a.var("n") else {
            panic!()
        };
        assert!((8..=10).contains(&n), "ticked ~10 times in 1s, got {n}");
    }

    #[test]
    fn a_far_future_timer_never_fires() {
        // Both periods overflow `u64` µs; virtual time saturates instead
        // of wrapping. Wrapped, 10^17 ms lands ~250,000 years out, and
        // 18446744073709552 ms (the first count past 2^64 µs) at 384 µs.
        const NEVER: &str = r#"
            protocol never;
            addressing ip;
            transports { UDP U; }
            messages { U noop { } }
            state_variables { timer later; timer wraps; int fired; }
            transitions {
                any API init {
                    timer_resched(later, 100000000000000000);
                    timer_resched(wraps, 18446744073709552);
                }
                any timer later { fired = fired + 1; }
                any timer wraps { fired = fired + 1; }
            }
        "#;
        let spec = Arc::new(compile(NEVER).unwrap());
        let topo = canned::star(1, LinkSpec::lan());
        let hosts = topo.hosts().to_vec();
        let cfg = WorldConfig {
            channels: channel_table(&spec),
            ..Default::default()
        };
        let mut w = World::new(topo, cfg);
        w.spawn_at(
            Time::ZERO,
            hosts[0],
            vec![Box::new(InterpretedAgent::new(spec, None))],
            Box::new(NullApp),
        );
        w.run_until(Time::from_secs(10));
        assert_eq!(agent_of(&w, hosts[0]).var("fired"), Some(Value::Int(0)));
    }

    /// Peers blast traffic at each other; a timer snapshots the engine
    /// measurements through the `rtt()`/`goodput()` builtins.
    const METERED: &str = r#"
        protocol metered;
        addressing hash;
        states { running; }
        neighbor_types { peer 4 { } }
        transports { TCP CTRL; }
        messages { CTRL blast { int pad1; int pad2; int pad3; } }
        state_variables {
            peer peers;
            timer tick 100;
            timer snap 2000;
            node target;
            int last_rtt;
            int last_goodput;
        }
        transitions {
            init API init {
                if (bootstrap != null) { target = bootstrap; }
                state_change(running);
            }
            running timer tick {
                if (target != null) { blast(target, 1, 2, 3); }
            }
            any recv blast { }
            running timer snap {
                last_rtt = rtt(target);
                last_goodput = goodput(from);
                if (target != null) { last_goodput = goodput(target); }
            }
        }
    "#;

    #[test]
    fn rtt_and_goodput_builtins_read_engine_measurements() {
        let spec = Arc::new(compile(METERED).unwrap());
        let topo = canned::two_hosts(LinkSpec::lan());
        let hosts = topo.hosts().to_vec();
        let cfg = WorldConfig {
            seed: 77,
            channels: channel_table(&spec),
            ..Default::default()
        };
        let mut w = World::new(topo, cfg);
        // hosts[1] blasts at hosts[0]; hosts[0] (bootstrap-less) idles.
        w.spawn_at(
            Time::ZERO,
            hosts[0],
            vec![Box::new(InterpretedAgent::new(
                spec.clone(),
                Some(hosts[1]),
            ))],
            Box::new(NullApp),
        );
        w.spawn_at(
            Time::ZERO,
            hosts[1],
            vec![Box::new(InterpretedAgent::new(
                spec.clone(),
                Some(hosts[0]),
            ))],
            Box::new(NullApp),
        );
        w.run_until(Time::from_secs(10));
        let a = agent_of(&w, hosts[0]);
        // The sender sees a sub-5ms LAN RTT (>= 1 ms after rounding may
        // floor to 0, so only assert the goodput side is positive and
        // the rtt is small).
        let Some(Value::Int(rtt)) = a.var("last_rtt") else {
            panic!()
        };
        assert!((0..50).contains(&rtt), "LAN rtt_ms, got {rtt}");
        let Some(Value::Int(gp)) = a.var("last_goodput") else {
            panic!()
        };
        // 28-byte messages every 100 ms ≈ 2.2 kbit/s inbound.
        assert!(gp > 0, "goodput measured, got {gp}");
        assert!(gp < 1_000, "sane kbps magnitude, got {gp}");
    }

    #[test]
    fn foreach_loop_variable_restores_outer_binding() {
        // The loop variable shadows a declared scalar; after the loop,
        // the scalar's own value is visible again (AST semantics, now
        // expressed by dedicated slots).
        const SHADOW: &str = r#"
            protocol shadow;
            addressing ip;
            neighbor_types { kid 8 { } }
            transports { TCP C; }
            messages { C ping { } }
            state_variables { kid kids; node n; int count; }
            transitions {
                any API init {
                    n = me;
                    neighbor_add(kids, me);
                    foreach (n in kids) { count = count + 1; }
                    if (n == me) { count = count + 100; }
                }
            }
        "#;
        let spec = Arc::new(compile(SHADOW).unwrap());
        let topo = canned::star(2, LinkSpec::lan());
        let hosts = topo.hosts().to_vec();
        let cfg = WorldConfig {
            channels: channel_table(&spec),
            ..Default::default()
        };
        let mut w = World::new(topo, cfg);
        w.spawn_at(
            Time::ZERO,
            hosts[1],
            vec![Box::new(InterpretedAgent::new(spec, None))],
            Box::new(NullApp),
        );
        w.run_until(Time::from_secs(1));
        let a: &InterpretedAgent = w
            .stack(hosts[1])
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        // `neighbor_add(kids, me)` filters nothing here (me is allowed
        // in adds), so the loop ran once; afterwards `n` reads the
        // declared scalar (me) again: 1 + 100.
        assert_eq!(a.var("count"), Some(Value::Int(101)));
    }

    #[test]
    fn key_builtins_evaluate_via_shared_helpers() {
        // Ip addressing makes keys the raw node ids, so every expected
        // value is computable from the host list with the same
        // macedon_core::key helpers the interpreter calls.
        const KEYS: &str = r#"
            protocol keys;
            addressing ip;
            neighbor_types { succ 4 { } }
            transports { TCP C; }
            messages { C nop { } }
            state_variables {
                succ ring;
                key target;
                int dist; bool between; int dig; int plen; node owner;
            }
            transitions {
                any API init {
                    if (bootstrap != null) { neighbor_add(ring, bootstrap); }
                    target = my_key + 10;
                    dist = ring_dist(me, bootstrap);
                    between = ring_between(bootstrap, my_key, my_key);
                    dig = digit(my_key, 7, 16);
                    plen = prefix_len(my_key, target);
                    owner = owner_of(target, ring);
                }
            }
        "#;
        let spec = Arc::new(compile(KEYS).unwrap());
        let cfg = WorldConfig {
            addressing: Addressing::Ip,
            channels: channel_table(&spec),
            ..Default::default()
        };
        let mut w = World::new(canned::star(3, LinkSpec::lan()), cfg);
        let (hosts, _sink) = w.spawn_each(Duration::ZERO, |bootstrap| {
            vec![Box::new(InterpretedAgent::new(spec.clone(), bootstrap))]
        });
        w.run_until(Time::from_secs(1));

        let boot_key = MacedonKey(hosts[0].0);
        let a = agent_of(&w, hosts[1]);
        let me_key = MacedonKey(hosts[1].0);
        let target = key::dsl_key_add(me_key, 10);
        assert_eq!(
            a.var("dist"),
            Some(Value::Int(key::dsl_ring_dist(Some(me_key), Some(boot_key))))
        );
        // Degenerate interval (lo == hi) is the full ring.
        assert_eq!(a.var("between"), Some(Value::Bool(true)));
        assert_eq!(a.var("dig"), Some(Value::Int((hosts[1].0 & 0xF) as i64)));
        assert_eq!(
            a.var("plen"),
            Some(Value::Int(key::dsl_prefix_len(Some(me_key), Some(target))))
        );
        assert_eq!(a.var("target"), Some(Value::Key(target)));
        // The only ring member is the bootstrap, so it owns everything.
        assert_eq!(a.var("owner"), Some(Value::Node(hosts[0])));

        // Without a bootstrap the null-operand sentinels apply: RING
        // distance, false interval test, null owner.
        let b = agent_of(&w, hosts[0]);
        assert_eq!(b.var("dist"), Some(Value::Int(key::RING as i64)));
        assert_eq!(b.var("between"), Some(Value::Bool(false)));
        assert_eq!(b.var("owner"), Some(Value::Null));
    }

    /// Run one wire message through a single-layer stack at trace level
    /// `Low`; the agent and the `Low` records the event left.
    fn recv_low_records(spec: Arc<IrSpec>, msg: Bytes) -> (macedon_core::Stack, Vec<String>) {
        use macedon_core::{SimRng, SpanId, Stack, StackEffect, TraceEvent};
        let agent = InterpretedAgent::new(spec, None);
        let mut stack = Stack::new(
            NodeId(1),
            MacedonKey(1),
            vec![Box::new(agent)],
            Box::new(NullApp),
            SimRng::new(1),
        );
        stack.set_trace_level(TraceLevel::Low);
        let mut fx = Vec::new();
        stack.init(Time::ZERO, &mut fx);
        stack.recv(Time::ZERO, NodeId(2), msg, SpanId::NONE, &mut fx);
        let lows = fx
            .iter()
            .filter_map(|e| match e {
                StackEffect::Trace {
                    level: TraceLevel::Low,
                    event: TraceEvent::Custom { msg },
                    ..
                } => Some(msg.clone()),
                _ => None,
            })
            .collect();
        (stack, lows)
    }

    #[test]
    fn a_null_value_fault_traces_the_generated_agents_line() {
        const NULL_WHO: &str = r#"
            protocol nullwho;
            addressing hash;
            neighbor_types { member 8 { } }
            transports { TCP C; }
            messages { C hello { node who; } }
            state_variables { member members; int after; }
            transitions {
                any recv hello {
                    neighbor_add(members, field(who));
                    after = 1;
                }
            }
        "#;
        let spec = Arc::new(compile(NULL_WHO).unwrap());
        // The line the generated agent traces for this fault.
        let code = crate::codegen::generate(&spec, None);
        let at = code
            .find("\"nullwho: runtime error: ")
            .expect("generated bail");
        let want = code[at + 1..].split('"').next().unwrap();
        let mut w = WireWriter::new();
        w.u16(protocol_id_of("nullwho"))
            .u16(0)
            .node(NodeId(u32::MAX));
        let (stack, lows) = recv_low_records(spec, w.finish());
        assert_eq!(lows, [want]);
        let a: &InterpretedAgent = stack.agent(0).as_any().downcast_ref().unwrap();
        assert_eq!(a.transitions_fired, 1);
        assert_eq!(a.var("after"), Some(Value::Int(0)), "unwound at the fault");
    }
}
