//! Code generation: emit the Rust agent source a MACEDON translation of
//! the spec corresponds to.
//!
//! The paper's `macedon` emits C++ against its engine ("its generated
//! C++ code is over 2500 \[lines\]" for NICE); here we emit Rust against
//! `macedon-core`. The output is a self-contained module implementing
//! the [`macedon_core::Agent`] trait — one typed handler per transition,
//! the §3.2 demultiplexing functions for messages / timers / API
//! downcalls, generated marshaling per message declaration, and the same
//! layering behavior the interpreter has (layered sends tunnel through
//! `route`/`routeIP` downcalls, `forward` transitions may `quash();`
//! in-transit messages, lowest layers serve `routeIP` natively and vet
//! payload-bearing sends through the engine's forward query).
//!
//! The generator is a printer over the lowered spec ([`IrSpec`]): every
//! transition body is printed from its [`IrStmt`]s and the typed trees
//! under them — the trees the interpreter evaluates — with names taken
//! from the IR's declaration tables and each coercion from its typed
//! node. One lowering serves both back ends, so the generated code draws
//! from the per-node RNG at the same points, emits byte-identical wire
//! messages, and buffers the same [`macedon_core`] effect ops in the
//! same order as the interpreter. The integration suite still runs both
//! on seeded worlds and asserts identical delivery logs (see
//! `crates/generated`).
//!
//! Every spec [`crate::compile`] accepts generates: what the printer
//! cannot express (a type error, a Rust keyword as an identifier, a
//! divisor that is not a nonzero constant, a layered send to `null`
//! with no key field) the lowering rejects, so [`generate`] cannot
//! fail.

use crate::ast::{map_class_to_channel, StateExpr, TransportDecl, TransportKindDecl};
use crate::ir::typed::{ArithOp, CmpOp, KeyOptExpr, Truth};
use crate::ir::{
    AnyExpr, ApiKind, BoolExpr, FieldKind, IntExpr, IrDown, IrMessage, IrSpec, IrStmt, IrVar,
    KeyArg, KeyExpr, ListExpr, NodeExpr, PayloadExpr, SendArg, SendDest, Table, Ty,
};
use std::fmt::Write as _;

/// Generate the Rust agent module for a lowered spec. `base` is the
/// base (tunneling) layer's transport table, when known: a layered
/// spec's message class names (`HIGH`, `BEST_EFFORT`, …) then resolve to
/// baked-in channel priorities via [`crate::ast::map_class_to_channel`]
/// — the codegen-time equivalent of
/// [`crate::interp::InterpretedAgent::set_base_transports`]. With `None`,
/// layered message classes stay at the default priority, as a standalone
/// [`crate::interp::InterpretedAgent::new`] would run them.
pub fn generate(ir: &IrSpec, base: Option<&[TransportDecl]>) -> String {
    Gen {
        ir,
        name: camel(&ir.name),
        base,
    }
    .file()
}

/// Lines of generated code (the paper's "generated C++ is over 2500
/// LoC" comparison, Figure 7). Counts the full compilable output — the
/// same text `crates/generated` builds.
pub fn generated_loc(ir: &IrSpec, base: Option<&[TransportDecl]>) -> usize {
    generate(ir, base).lines().count()
}

/// Per-handler context: what the trigger binds and how `return;` leaves
/// the handler.
#[derive(Clone, Copy)]
struct Cx<'a> {
    /// Triggering message of a `recv`/`forward` handler.
    msg: Option<&'a IrMessage>,
    /// Triggering API (binds `dest`/`group`).
    api: Option<ApiKind>,
    /// Is `from` bound (recv/forward/error)?
    has_from: bool,
    /// How `return;` renders (`return quash;` in forward handlers).
    ret: &'static str,
}

impl Cx<'_> {
    fn plain() -> Cx<'static> {
        Cx {
            msg: None,
            api: None,
            has_from: false,
            ret: "return;",
        }
    }
}

struct Gen<'a> {
    ir: &'a IrSpec,
    name: String,
    /// The base (tunneling) layer's transport table, when known —
    /// resolves layered message classes to baked channel priorities.
    base: Option<&'a [TransportDecl]>,
}

impl<'a> Gen<'a> {
    // ---- IR lookups ------------------------------------------------------

    fn state_enum(&self) -> String {
        format!("{}State", self.name)
    }

    /// Declared constants and scalars, in declaration order (the
    /// `foreach` bindings excluded).
    fn declared(&self) -> impl Iterator<Item = &'a IrVar> + '_ {
        let ir = self.ir;
        ir.vars
            .iter()
            .enumerate()
            .filter(move |(i, v)| v.constant.is_some() || !self.is_binding(*i))
            .map(|(_, v)| v)
    }

    /// Is variable `i` a `foreach` binding — the one kind of variable no
    /// name resolves to outside its loop? (A constant shadowed by a
    /// scalar is not one, but is never read as a variable either.)
    fn is_binding(&self, i: usize) -> bool {
        self.ir.var_slot(&self.ir.vars[i].name) != Some(i as u16)
    }

    /// The variable stored in word slot `slot`, or in payload slot
    /// `slot` (payload slots are numbered apart).
    fn var_at(&self, slot: u16, payload: bool) -> (usize, &'a IrVar) {
        self.ir
            .vars
            .iter()
            .enumerate()
            .find(|(_, v)| v.slot == slot && (v.ty == Ty::Payload) == payload)
            .expect("every typed slot belongs to a variable")
    }

    /// A read of word slot `slot`.
    fn var(&self, slot: u16) -> String {
        let (i, v) = self.var_at(slot, false);
        if self.is_binding(i) {
            format!("Some(fe_{})", v.name)
        } else {
            format!("self.{}", v.name)
        }
    }

    /// The triggering message's field of shape `kind` at frame slot `at`.
    fn field(&self, cx: &Cx, kind: FieldKind, at: u16) -> String {
        let msg = cx
            .msg
            .expect("fields are read only in recv/forward handlers");
        let f = msg
            .fields
            .iter()
            .find(|f| f.kind == kind && f.at == at)
            .expect("every field slot belongs to a field");
        format!("m.{}", f.name)
    }

    fn list_name(&self, l: u16) -> &'a str {
        &self.ir.lists[l as usize].name
    }

    fn timer_const(&self, id: u16) -> String {
        format!("TIMER_{}", self.ir.timers[id as usize].name.to_uppercase())
    }

    /// Priority a layered message's sends travel at: the base channel
    /// its declared class maps onto, or the default (mirrors the
    /// interpreter's `msg_prio`).
    fn msg_priority(&self, m: &IrMessage) -> i8 {
        self.base
            .zip(m.transport.as_deref())
            .and_then(|(base, class)| map_class_to_channel(base, class))
            .and_then(|ch| i8::try_from(ch).ok())
            .unwrap_or(macedon_core::DEFAULT_PRIORITY)
    }

    /// The abort-transition snippet for runtime faults (the interpreter
    /// traces the error and unwinds the transition).
    fn bail(&self, cx: &Cx) -> String {
        format!(
            "{{ ctx.trace(TraceLevel::Low, \"{}: runtime error: null where a value is \
             required\"); {} }}",
            self.ir.name, cx.ret
        )
    }
}

/// The truthiness test of an operand rendered as `s` ([`Ty::truthiness`]).
fn test(truth: Truth, s: &str) -> String {
    match truth {
        Truth::Int => format!("({s} != 0)"),
        Truth::Bool => s.to_string(),
        Truth::Node => format!("({s}).is_some()"),
        Truth::Always => format!("{{ let _ = &{s}; true }}"),
        Truth::Payload => format!("(!({s}).is_empty())"),
        Truth::Never => unreachable!("the typer folds a null condition to `false`"),
    }
}

/// The static type of a node-position expression: `null` or a node.
fn node_ty(n: &NodeExpr) -> Ty {
    match n {
        NodeExpr::Null => Ty::Null,
        _ => Ty::Node,
    }
}

impl Gen<'_> {
    // ---- typed expressions ------------------------------------------------
    //
    // One printer per typed tree, each the Rust twin of the interpreter's
    // evaluator for that tree: both operands of a binary op always
    // evaluated (`&`/`|`, not `&&`/`||`), `neighbor_random` drawing from
    // `ctx.rng` where the interpreter draws.

    fn int(&self, cx: &Cx, e: &IntExpr) -> String {
        match e {
            IntExpr::Lit(v) => format!("({v}i64)"),
            IntExpr::Const(_, var) => self.ir.vars[*var as usize].name.clone(),
            IntExpr::Var(s) => self.var(*s),
            IntExpr::Field(at) => self.field(cx, FieldKind::Int, *at),
            IntExpr::OfBool(b) => format!("({} as i64)", self.bool(cx, b)),
            IntExpr::NeighborSize(l) => format!("(self.{}.len() as i64)", self.list_name(*l)),
            IntExpr::Rtt(n) => format!(
                "(({}).map_or(0i64, |__p| ctx.rtt_ms(__p)))",
                self.node(cx, n)
            ),
            IntExpr::Goodput(n) => format!(
                "(({}).map_or(0i64, |__p| ctx.goodput_kbps(__p)))",
                self.node(cx, n)
            ),
            IntExpr::RingDist(ab) => format!(
                "key::dsl_ring_dist({}, {})",
                self.key_opt(cx, &ab[0]),
                self.key_opt(cx, &ab[1])
            ),
            IntExpr::Digit(k, i, base) => format!(
                "key::dsl_digit({}, {}, {})",
                self.key_opt(cx, k),
                self.int(cx, i),
                self.int(cx, base)
            ),
            IntExpr::PrefixLen(ab) => format!(
                "key::dsl_prefix_len({}, {})",
                self.key_opt(cx, &ab[0]),
                self.key_opt(cx, &ab[1])
            ),
            // Spec integers are wrapping two's complement, as in the
            // interpreter.
            IntExpr::Neg(x) => format!("{}.wrapping_neg()", self.int(cx, x)),
            IntExpr::Arith(op, ab) => {
                let method = match op {
                    ArithOp::Add => "wrapping_add",
                    ArithOp::Sub => "wrapping_sub",
                    ArithOp::Mul => "wrapping_mul",
                    ArithOp::Div => "wrapping_div",
                    ArithOp::Mod => "wrapping_rem",
                };
                let (a, b) = (self.int(cx, &ab[0]), self.int(cx, &ab[1]));
                format!("{a}.{method}({b})")
            }
        }
    }

    /// A truthiness coercion: its operand rendered at the operand's own
    /// type, and the test to apply. Any other condition is its own
    /// operand, tested as a bool.
    fn coerced(&self, cx: &Cx, e: &BoolExpr) -> (String, Truth) {
        match e {
            BoolExpr::NonZero(x) => (self.int(cx, x), Truth::Int),
            BoolExpr::IsSome(x) => (self.node(cx, x), Truth::Node),
            BoolExpr::NonEmpty(x) => (self.payload(cx, x), Truth::Payload),
            BoolExpr::Const(ops, true) if ops.len() == 1 => (self.any(cx, &ops[0]), Truth::Always),
            _ => (self.bool(cx, e), Truth::Bool),
        }
    }

    fn bool(&self, cx: &Cx, e: &BoolExpr) -> String {
        let eq = |a: String, b: String| format!("({a} == {b})");
        match e {
            BoolExpr::Lit(b) => b.to_string(),
            BoolExpr::Var(s) => self.var(*s),
            BoolExpr::Field(at) => self.field(cx, FieldKind::Bool, *at),
            BoolExpr::Not(x) => format!("(!{})", self.bool(cx, x)),
            BoolExpr::And(a, b) => format!("({} & {})", self.bool(cx, a), self.bool(cx, b)),
            BoolExpr::Or(a, b) => format!("({} | {})", self.bool(cx, a), self.bool(cx, b)),
            BoolExpr::Cmp(op, ab) => {
                let sym = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Lt => "<",
                    CmpOp::Gt => ">",
                    CmpOp::Le => "<=",
                    CmpOp::Ge => ">=",
                };
                format!("({} {sym} {})", self.int(cx, &ab[0]), self.int(cx, &ab[1]))
            }
            BoolExpr::NonZero(_) | BoolExpr::IsSome(_) | BoolExpr::NonEmpty(_) => {
                let (s, truth) = self.coerced(cx, e);
                test(truth, &s)
            }
            BoolExpr::IsNull(x) => format!("({}).is_none()", self.node(cx, x)),
            // No payload is null.
            BoolExpr::IsNullPayload(x) => format!("{{ let _ = {}; false }}", self.payload(cx, x)),
            BoolExpr::EqBool(a, b) => eq(self.bool(cx, a), self.bool(cx, b)),
            BoolExpr::EqNode(a, b) => eq(self.node(cx, a), self.node(cx, b)),
            BoolExpr::EqKey(a, b) => eq(self.key(cx, a), self.key(cx, b)),
            BoolExpr::EqPayload(a, b) => eq(self.payload(cx, a), self.payload(cx, b)),
            BoolExpr::EqList(a, b) => eq(self.list(cx, a), self.list(cx, b)),
            BoolExpr::EqKeyNode {
                key,
                node,
                key_first: true,
            } => format!(
                "(match ({}, {}) {{ (__k, Some(__n)) => __n.0 == __k.0, _ => false }})",
                self.key(cx, key),
                self.node(cx, node)
            ),
            BoolExpr::EqKeyNode { key, node, .. } => format!(
                "(match ({}, {}) {{ (Some(__n), __k) => __n.0 == __k.0, _ => false }})",
                self.node(cx, node),
                self.key(cx, key)
            ),
            BoolExpr::NeighborQuery(l, n) => format!(
                "({}).map_or(false, |__q| self.{}.contains(&__q))",
                self.node(cx, n),
                self.list_name(*l)
            ),
            BoolExpr::RingBetween(x, lo, hi) => format!(
                "key::dsl_ring_between({}, {}, {})",
                self.key_opt(cx, x),
                self.key_opt(cx, lo),
                self.key_opt(cx, hi)
            ),
            BoolExpr::Const(ops, v) => match &ops[..] {
                [op] if *v => test(Truth::Always, &self.any(cx, op)),
                _ => {
                    let ops: Vec<String> = ops
                        .iter()
                        .map(|op| format!("&{}", self.any(cx, op)))
                        .collect();
                    format!("{{ let _ = ({}); {v} }}", ops.join(", "))
                }
            },
        }
    }

    fn node(&self, cx: &Cx, e: &NodeExpr) -> String {
        match e {
            NodeExpr::Null => "None::<NodeId>".into(),
            NodeExpr::From if cx.has_from => "Some(from)".into(),
            NodeExpr::From => "None::<NodeId>".into(),
            NodeExpr::Me => "Some(ctx.me)".into(),
            NodeExpr::Bootstrap => "self.bootstrap".into(),
            NodeExpr::ApiDest => "Some(dest)".into(),
            NodeExpr::Var(s) => self.var(*s),
            NodeExpr::Field(at) => self.field(cx, FieldKind::Node, *at),
            NodeExpr::NeighborRandom(l) => {
                let l = self.list_name(*l);
                format!(
                    "(if self.{l}.is_empty() {{ None }} else \
                     {{ Some(self.{l}[ctx.rng.index(self.{l}.len())]) }})"
                )
            }
            NodeExpr::OwnerOf(k, l) => format!(
                "key::dsl_owner_of({}, &self.{}, ctx.addressing)",
                self.key_opt(cx, k),
                self.list_name(*l)
            ),
        }
    }

    fn key(&self, cx: &Cx, e: &KeyExpr) -> String {
        match e {
            KeyExpr::MyKey => "ctx.my_key".into(),
            KeyExpr::ApiKey if cx.api == Some(ApiKind::Route) => "dest".into(),
            KeyExpr::ApiKey => "group".into(),
            KeyExpr::Var(s) => self.var(*s),
            KeyExpr::Field(at) => self.field(cx, FieldKind::Key, *at),
            // Key ± int wraps on the 2^32 ring.
            KeyExpr::Offset { key, by, negate } => {
                let by = self.int(cx, by);
                let by = if *negate {
                    format!("{by}.wrapping_neg()")
                } else {
                    by
                };
                format!("key::dsl_key_add({}, {by})", self.key(cx, key))
            }
        }
    }

    /// An `Option<MacedonKey>` key-builtin operand ([`Ty::key_opt`]):
    /// keys pass through, nodes hash under the world's addressing mode,
    /// ints truncate onto the ring, null stays null.
    fn key_opt(&self, cx: &Cx, e: &KeyOptExpr) -> String {
        match e {
            KeyOptExpr::Key(k) => format!("Some({})", self.key(cx, k)),
            KeyOptExpr::Node(n) => format!(
                "({}).map(|__n| MacedonKey::of_node(__n, ctx.addressing))",
                self.node(cx, n)
            ),
            KeyOptExpr::Int(i) => format!("Some(MacedonKey(({}) as u32))", self.int(cx, i)),
            KeyOptExpr::Null => "None::<MacedonKey>".into(),
        }
    }

    /// A payload; null (only ever in a payload position) is the empty
    /// payload.
    fn payload(&self, cx: &Cx, e: &PayloadExpr) -> String {
        match e {
            PayloadExpr::Null => "Bytes::new()".into(),
            PayloadExpr::Api => "payload.clone()".into(),
            PayloadExpr::Var(s) => format!("self.{}.clone()", self.var_at(*s, true).1.name),
            PayloadExpr::Field(at) => {
                format!("{}.clone()", self.field(cx, FieldKind::Payload, *at))
            }
        }
    }

    fn list(&self, cx: &Cx, e: &ListExpr) -> String {
        match e {
            ListExpr::List(l) => format!("self.{}", self.list_name(*l)),
            ListExpr::Field(at) => self.field(cx, FieldKind::Nodes, *at),
        }
    }

    fn any(&self, cx: &Cx, e: &AnyExpr) -> String {
        match e {
            AnyExpr::Int(e) => self.int(cx, e),
            AnyExpr::Bool(e) => self.bool(cx, e),
            AnyExpr::Key(e) => self.key(cx, e),
            AnyExpr::Node(e) => self.node(cx, e),
            AnyExpr::Payload(e) => self.payload(cx, e),
            AnyExpr::List(e) => self.list(cx, e),
            AnyExpr::Null => "None::<NodeId>".into(),
        }
    }
}

impl Gen<'_> {
    // ---- statements ------------------------------------------------------

    fn body(&self, out: &mut String, ind: usize, cx: &Cx, stmts: &[IrStmt]) {
        for s in stmts {
            self.stmt(out, ind, cx, s);
        }
    }

    fn stmt(&self, out: &mut String, ind: usize, cx: &Cx, s: &IrStmt) {
        let p = " ".repeat(ind);
        let assign = |out: &mut String, slot: u16, rhs: String| {
            let _ = writeln!(out, "{p}{} = {rhs};", self.var(slot));
        };
        match s {
            IrStmt::If { cond, then, els } => {
                let _ = writeln!(out, "{p}if {} {{", self.bool(cx, cond));
                self.body(out, ind + 4, cx, then);
                if !els.is_empty() {
                    let _ = writeln!(out, "{p}}} else {{");
                    self.body(out, ind + 4, cx, els);
                }
                let _ = writeln!(out, "{p}}}");
            }
            IrStmt::Return => {
                let _ = writeln!(out, "{p}{}", cx.ret);
            }
            IrStmt::Quash => {
                let _ = writeln!(out, "{p}quash = true;");
            }
            IrStmt::StateChange(st) => {
                let name = &self.ir.states[*st as usize];
                // Record the FSM edge before the assignment, as the
                // interpreter does, so both back ends trace identical
                // streams.
                let _ = writeln!(out, "{p}ctx.trace_fsm(self.state.name(), \"{name}\");");
                let _ = writeln!(
                    out,
                    "{p}self.state = {}::{};",
                    self.state_enum(),
                    camel(name)
                );
            }
            IrStmt::TimerResched(id, e) => {
                let _ = writeln!(
                    out,
                    "{p}ctx.timer_set({}, Duration::from_millis(({}).max(0) as u64));",
                    self.timer_const(*id),
                    self.int(cx, e)
                );
            }
            IrStmt::TimerCancel(id) => {
                let _ = writeln!(out, "{p}ctx.timer_cancel({});", self.timer_const(*id));
            }
            IrStmt::NeighborAdd(l, n) => {
                let list = &self.ir.lists[*l as usize];
                let (l, max) = (&list.name, list.max);
                let _ = writeln!(out, "{p}if let Some(__n) = {} {{", self.node(cx, n));
                let _ = writeln!(
                    out,
                    "{p}    if !self.{l}.contains(&__n) && self.{l}.len() < {max}usize {{"
                );
                let _ = writeln!(out, "{p}        self.{l}.push(__n);");
                if list.fail_detect {
                    let _ = writeln!(out, "{p}        ctx.monitor(__n);");
                }
                let _ = writeln!(out, "{p}    }}");
                let _ = writeln!(out, "{p}}} else {}", self.bail(cx));
            }
            IrStmt::NeighborRemove(l, n) => {
                let list = &self.ir.lists[*l as usize];
                let _ = writeln!(out, "{p}if let Some(__n) = {} {{", self.node(cx, n));
                let _ = writeln!(out, "{p}    self.{}.retain(|&__x| __x != __n);", list.name);
                if list.fail_detect {
                    self.emit_release(out, ind + 4, *l, "__n");
                }
                let _ = writeln!(out, "{p}}} else {}", self.bail(cx));
            }
            IrStmt::NeighborClear(l) => {
                let list = &self.ir.lists[*l as usize];
                if list.fail_detect {
                    let _ = writeln!(out, "{p}for __n in self.{}.drain(..) {{", list.name);
                    self.emit_release(out, ind + 4, *l, "__n");
                    let _ = writeln!(out, "{p}}}");
                } else {
                    let _ = writeln!(out, "{p}self.{}.clear();", list.name);
                }
            }
            IrStmt::Send { msg, dest, args } => self.emit_send(out, ind, cx, *msg, dest, args),
            IrStmt::DownCall(down) => self.emit_downcall(out, ind, cx, down),
            IrStmt::UpcallNotify(l, e) => {
                let _ = writeln!(out, "{p}{{");
                let _ = writeln!(out, "{p}    let __t = {};", self.int(cx, e));
                let _ = writeln!(
                    out,
                    "{p}    ctx.up(UpCall::Notify {{ nbr_type: __t as u32, neighbors: \
                     self.{}.clone() }});",
                    self.list_name(*l)
                );
                let _ = writeln!(out, "{p}}}");
            }
            IrStmt::Deliver { src, payload } => {
                let _ = writeln!(out, "{p}{{");
                self.key_let(out, ind + 4, cx, "__src", src);
                let _ = writeln!(out, "{p}    let __pl = {};", self.payload(cx, payload));
                let from = if cx.has_from { "from" } else { "ctx.me" };
                let _ = writeln!(
                    out,
                    "{p}    ctx.up(UpCall::Deliver {{ src: __src, from: {from}, payload: __pl \
                     }});"
                );
                let _ = writeln!(out, "{p}}}");
            }
            IrStmt::Monitor(n) | IrStmt::Unmonitor(n) => {
                let op = match s {
                    IrStmt::Monitor(_) => "monitor",
                    _ => "unmonitor",
                };
                let _ = writeln!(out, "{p}if let Some(__n) = {} {{", self.node(cx, n));
                let _ = writeln!(out, "{p}    ctx.{op}(__n);");
                let _ = writeln!(out, "{p}}} else {}", self.bail(cx));
            }
            IrStmt::ForEach { var, list, body } => {
                let _ = writeln!(
                    out,
                    "{p}for fe_{} in self.{}.clone() {{",
                    self.var_at(*var, false).1.name,
                    self.list_name(*list)
                );
                self.body(out, ind + 4, cx, body);
                let _ = writeln!(out, "{p}}}");
            }
            IrStmt::AssignInt(slot, e) => assign(out, *slot, self.int(cx, e)),
            IrStmt::AssignBool(slot, e) => assign(out, *slot, self.bool(cx, e)),
            IrStmt::AssignNode(slot, e) => assign(out, *slot, self.node(cx, e)),
            IrStmt::AssignKey(slot, e) => assign(out, *slot, self.key(cx, e)),
            IrStmt::AssignPayload(slot, e) => {
                let name = &self.var_at(*slot, true).1.name;
                let _ = writeln!(out, "{p}self.{name} = {};", self.payload(cx, e));
            }
            IrStmt::AssignList(l, e) => self.emit_assign_list(out, ind, *l, &self.list(cx, e)),
            IrStmt::AssignListTakeField(l, at) => {
                let field = self.field(cx, FieldKind::Nodes, *at);
                self.emit_assign_list(out, ind, *l, &field);
            }
            IrStmt::Trace(e) => {
                // Each value prints as the interpreter's `Value` does.
                let v = self.any(cx, e);
                let name = &self.ir.name;
                let msg = match e {
                    AnyExpr::Int(_) => format!("format!(\"{name}: trace Int({{:?}})\", {v})"),
                    AnyExpr::Bool(_) => format!("format!(\"{name}: trace Bool({{:?}})\", {v})"),
                    AnyExpr::Key(_) => format!("format!(\"{name}: trace Key({{:?}})\", {v})"),
                    AnyExpr::Node(_) => format!(
                        "format!(\"{name}: trace {{}}\", ({v}).map_or(String::from(\"Null\"), \
                         |__n| format!(\"Node({{:?}})\", __n)))"
                    ),
                    AnyExpr::Payload(_) => {
                        format!("format!(\"{name}: trace Bytes({{:?}})\", {v})")
                    }
                    AnyExpr::List(_) => format!("format!(\"{name}: trace List({{:?}})\", {v})"),
                    AnyExpr::Null => format!("\"{name}: trace Null\""),
                };
                let _ = writeln!(out, "{p}ctx.trace(TraceLevel::Med, {msg});");
            }
        }
    }

    /// `list = value;`: filter self, truncate to capacity, swap
    /// failure-detector registrations — the interpreter's sequence.
    fn emit_assign_list(&self, out: &mut String, ind: usize, l: u16, value: &str) {
        let p = " ".repeat(ind);
        let list = &self.ir.lists[l as usize];
        let name = &list.name;
        let _ = writeln!(out, "{p}{{");
        let _ = writeln!(out, "{p}    let mut __ns: Vec<NodeId> = {value}.clone();");
        let _ = writeln!(out, "{p}    __ns.retain(|&__n| __n != ctx.me);");
        let _ = writeln!(out, "{p}    __ns.truncate({}usize);", list.max);
        if list.fail_detect {
            let _ = writeln!(out, "{p}    for __n in self.{name}.iter() {{");
            self.emit_release(out, ind + 8, l, "*__n");
            let _ = writeln!(out, "{p}    }}");
            let _ = writeln!(out, "{p}    for __n in __ns.iter() {{");
            let _ = writeln!(out, "{p}        ctx.monitor(*__n);");
            let _ = writeln!(out, "{p}    }}");
        }
        let _ = writeln!(out, "{p}    self.{name} = __ns;");
        let _ = writeln!(out, "{p}}}");
    }

    /// `ctx.unmonitor(n)` for a peer leaving fail_detect list `l`,
    /// guarded, as the interpreter does, by the spec's other fail_detect
    /// lists: the engine keeps one registration per peer and layer.
    fn emit_release(&self, out: &mut String, ind: usize, l: u16, n: &str) {
        let p = " ".repeat(ind);
        let held: Vec<String> = (self.ir.lists.iter().enumerate())
            .filter(|&(i, d)| i != l as usize && d.fail_detect)
            .map(|(_, d)| format!("self.{}.contains(&{n})", d.name))
            .collect();
        if held.is_empty() {
            let _ = writeln!(out, "{p}ctx.unmonitor({n});");
        } else {
            let _ = writeln!(out, "{p}if !({}) {{", held.join(" || "));
            let _ = writeln!(out, "{p}    ctx.unmonitor({n});");
            let _ = writeln!(out, "{p}}}");
        }
    }

    /// `let {tmp} = <routing key>;` — a node becomes the key with its raw
    /// id; a null node aborts the transition.
    fn key_let(&self, out: &mut String, ind: usize, cx: &Cx, tmp: &str, e: &KeyArg) {
        let p = " ".repeat(ind);
        match e {
            KeyArg::Key(k) => {
                let _ = writeln!(out, "{p}let {tmp} = {};", self.key(cx, k));
            }
            KeyArg::Node(n) => {
                let n = self.node(cx, n);
                let _ = writeln!(out, "{p}let Some(__kn) = {n} else {};", self.bail(cx));
                let _ = writeln!(out, "{p}let {tmp} = MacedonKey(__kn.0);");
            }
        }
    }

    fn emit_downcall(&self, out: &mut String, ind: usize, cx: &Cx, down: &IrDown) {
        let p = " ".repeat(ind);
        let _ = writeln!(out, "{p}{{");
        match down {
            IrDown::Join(g) | IrDown::Leave(g) | IrDown::CreateGroup(g) => {
                self.key_let(out, ind + 4, cx, "__g", g);
                let variant = match down {
                    IrDown::Join(_) => "Join",
                    IrDown::Leave(_) => "Leave",
                    _ => "CreateGroup",
                };
                let _ = writeln!(
                    out,
                    "{p}    ctx.down(DownCall::{variant} {{ group: __g }});"
                );
            }
            IrDown::Multicast(g, pl) | IrDown::Anycast(g, pl) | IrDown::Collect(g, pl) => {
                self.key_let(out, ind + 4, cx, "__g", g);
                let _ = writeln!(out, "{p}    let __pl = {};", self.payload(cx, pl));
                let variant = match down {
                    IrDown::Multicast(..) => "Multicast",
                    IrDown::Anycast(..) => "Anycast",
                    _ => "Collect",
                };
                let _ = writeln!(
                    out,
                    "{p}    ctx.down(DownCall::{variant} {{ group: __g, payload: __pl, \
                     priority: DEFAULT_PRIORITY }});"
                );
            }
            IrDown::Route(d, pl) => {
                self.key_let(out, ind + 4, cx, "__d", d);
                let _ = writeln!(out, "{p}    let __pl = {};", self.payload(cx, pl));
                let _ = writeln!(
                    out,
                    "{p}    ctx.down(DownCall::Route {{ dest: __d, payload: __pl, priority: \
                     DEFAULT_PRIORITY }});"
                );
            }
            IrDown::RouteIp(d, pl) => {
                let d = self.node(cx, d);
                let _ = writeln!(out, "{p}    let Some(__d) = {d} else {};", self.bail(cx));
                let _ = writeln!(out, "{p}    let __pl = {};", self.payload(cx, pl));
                let _ = writeln!(
                    out,
                    "{p}    ctx.down(DownCall::RouteIp {{ dest: __d, payload: __pl, priority: \
                     DEFAULT_PRIORITY }});"
                );
            }
        }
        let _ = writeln!(out, "{p}}}");
    }

    // ---- the transmission primitive -------------------------------------

    /// The routing-key candidates of a send: its key-field arguments in
    /// order, up to the first that is a key (`null` ones never route) —
    /// the interpreter's `route_key`. Returns `(options,
    /// first_is_terminal)`.
    fn key_field_opts(args: &[SendArg]) -> (Vec<String>, bool) {
        let mut opts = Vec::new();
        for (i, a) in args.iter().enumerate() {
            match a {
                SendArg::Key(KeyArg::Key(_)) => {
                    let terminal = opts.is_empty();
                    opts.push(format!("Some(__a{i})"));
                    // Unconditionally matches; later fields are unreachable.
                    return (opts, terminal);
                }
                SendArg::Key(KeyArg::Node(n)) if node_ty(n) == Ty::Node => {
                    opts.push(format!("__a{i}.map(|__n| MacedonKey(__n.0))"))
                }
                _ => {}
            }
        }
        (opts, false)
    }

    fn emit_send(
        &self,
        out: &mut String,
        ind: usize,
        cx: &Cx,
        msg: u16,
        dest: &SendDest,
        args: &[SendArg],
    ) {
        let decl = &self.ir.messages[msg as usize];
        let p = " ".repeat(ind);
        let q = " ".repeat(ind + 4);
        let _ = writeln!(out, "{p}{{");

        // Evaluation order is the interpreter's: destination first, then
        // every field argument, then encoding, then the dispatch decision.
        let (ds, dty) = match dest {
            SendDest::Node(n) => (self.node(cx, n), node_ty(n)),
            SendDest::Key(k) => (self.key(cx, k), Ty::Key),
        };
        let _ = writeln!(out, "{q}let __dest = {ds};");
        let mut encode = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let a_i = format!("__a{i}");
            let value = match a {
                SendArg::Int(IntExpr::OfBool(b)) => {
                    encode.push(format!("__w.u64(({a_i} as i64) as u64);"));
                    self.bool(cx, b)
                }
                SendArg::Int(e) => {
                    encode.push(format!("__w.u64({a_i} as u64);"));
                    self.int(cx, e)
                }
                SendArg::Bool(b) => {
                    let (s, truth) = self.coerced(cx, b);
                    encode.push(format!("__w.u8(({}) as u8);", test(truth, &a_i)));
                    s
                }
                SendArg::Node(n) => {
                    encode.push(format!("__w.node({a_i}.unwrap_or(NodeId(u32::MAX)));"));
                    self.node(cx, n)
                }
                SendArg::Key(KeyArg::Key(k)) => {
                    encode.push(format!("__w.key({a_i});"));
                    self.key(cx, k)
                }
                SendArg::Key(KeyArg::Node(n)) => {
                    encode.push(format!("let Some(__kn{i}) = {a_i} else {};", self.bail(cx)));
                    encode.push(format!("__w.key(MacedonKey(__kn{i}.0));"));
                    self.node(cx, n)
                }
                SendArg::Payload(pl) => {
                    encode.push(format!("__w.bytes(&{a_i});"));
                    self.payload(cx, pl)
                }
                SendArg::List(l) => {
                    encode.push(format!("__w.nodes({a_i});"));
                    format!("&{}", self.list(cx, l))
                }
            };
            let _ = writeln!(out, "{q}let {a_i} = {value};");
        }
        let _ = writeln!(out, "{q}let mut __w = WireWriter::new();");
        let _ = writeln!(
            out,
            "{q}__w.u16(PROTOCOL_ID).u16(MSG_{});",
            decl.name.to_uppercase()
        );
        for e in encode {
            let _ = writeln!(out, "{q}{e}");
        }
        let _ = writeln!(out, "{q}let __bytes = __w.finish();");

        if self.ir.layered {
            self.emit_layered_dispatch(out, ind + 4, cx, decl, args, dty);
        } else {
            self.emit_wire_dispatch(out, ind + 4, cx, decl, args);
        }
        let _ = writeln!(out, "{p}}}");
    }

    /// Layered specs never touch the wire: a node destination is a
    /// direct `routeIP`, `null` routes toward the message's first key
    /// field, a key destination routes outright.
    fn emit_layered_dispatch(
        &self,
        out: &mut String,
        ind: usize,
        cx: &Cx,
        decl: &IrMessage,
        args: &[SendArg],
        dty: Ty,
    ) {
        let p = " ".repeat(ind);
        let message = &decl.name;
        let prio = format!("PRIO_{}", message.to_uppercase());
        if dty == Ty::Key {
            let _ = writeln!(
                out,
                "{p}ctx.down(DownCall::Route {{ dest: __dest, payload: __bytes, priority: \
                 {prio} }});"
            );
            return;
        }
        let (opts, terminal) = Self::key_field_opts(args);
        let _ = writeln!(out, "{p}match __dest {{");
        let _ = writeln!(
            out,
            "{p}    Some(__d) => ctx.down(DownCall::RouteIp {{ dest: __d, payload: \
             __bytes, priority: {prio} }}),"
        );
        let _ = writeln!(out, "{p}    None => {{");
        if opts.is_empty() {
            // A literal `null` destination always has a key field
            // (the lowering rejects it otherwise).
            let _ = writeln!(out, "{p}        {}", self.bail(cx));
        } else if terminal {
            let inner = opts[0].trim_start_matches("Some(").trim_end_matches(')');
            let _ = writeln!(
                out,
                "{p}        ctx.down(DownCall::Route {{ dest: {inner}, payload: \
                 __bytes, priority: {prio} }});"
            );
        } else {
            let chain = opts.join(".or(");
            let closers = ")".repeat(opts.len() - 1);
            let _ = writeln!(out, "{p}        match {chain}{closers} {{");
            let _ = writeln!(
                out,
                "{p}            Some(__k) => ctx.down(DownCall::Route {{ dest: __k, \
                 payload: __bytes, priority: {prio} }}),"
            );
            let _ = writeln!(out, "{p}            None => {}", self.bail(cx));
            let _ = writeln!(out, "{p}        }}");
        }
        let _ = writeln!(out, "{p}    }}");
        let _ = writeln!(out, "{p}}}");
    }

    /// Lowest-layer dispatch: direct transmission, except that a send
    /// carrying tunneled upper-layer data is first vetted through the
    /// engine's forward query when layers are stacked above.
    fn emit_wire_dispatch(
        &self,
        out: &mut String,
        ind: usize,
        cx: &Cx,
        decl: &IrMessage,
        args: &[SendArg],
    ) {
        let p = " ".repeat(ind);
        let ch = decl.channel.0;
        // Sending to null is a no-op (after evaluating everything).
        let _ = writeln!(out, "{p}if let Some(__d) = __dest {{");
        let payload_args: Vec<usize> = args
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, SendArg::Payload(_)))
            .map(|(i, _)| i)
            .collect();
        if payload_args.is_empty() {
            let _ = writeln!(out, "{p}    ctx.send(__d, ChannelId({ch}), __bytes);");
            let _ = writeln!(out, "{p}}}");
            return;
        }
        let mut chain = String::new();
        for i in &payload_args {
            let _ = write!(
                chain,
                "if !__a{i}.is_empty() {{ Some(__a{i}.clone()) }} else "
            );
        }
        chain.push_str("{ None }");
        let _ = writeln!(out, "{p}    let __tunneled = {chain};");
        let _ = writeln!(out, "{p}    match __tunneled {{");
        let _ = writeln!(out, "{p}        Some(__p) if !ctx.is_top_layer() => {{");
        let (opts, terminal) = Self::key_field_opts(args);
        if opts.is_empty() {
            let _ = writeln!(out, "{p}            let __dest_key = ctx.my_key;");
        } else if terminal {
            let inner = opts[0].trim_start_matches("Some(").trim_end_matches(')');
            let _ = writeln!(out, "{p}            let __dest_key = {inner};");
        } else {
            let chain = opts.join(".or(");
            let closers = ")".repeat(opts.len() - 1);
            let _ = writeln!(
                out,
                "{p}            let __dest_key = {chain}{closers}.unwrap_or(ctx.my_key);"
            );
        }
        let _ = writeln!(
            out,
            "{p}            self.pending_fwd.push_back((__d, ChannelId({ch}), __bytes));"
        );
        let from = if cx.has_from { "from" } else { "ctx.me" };
        let _ = writeln!(out, "{p}            ctx.forward_query(ForwardInfo {{");
        let _ = writeln!(out, "{p}                src: ctx.my_key,");
        let _ = writeln!(out, "{p}                dest: __dest_key,");
        let _ = writeln!(out, "{p}                prev_hop: {from},");
        let _ = writeln!(out, "{p}                next_hop: __d,");
        let _ = writeln!(out, "{p}                payload: __p,");
        let _ = writeln!(out, "{p}                quash: false,");
        let _ = writeln!(out, "{p}            }});");
        let _ = writeln!(out, "{p}        }}");
        let _ = writeln!(
            out,
            "{p}        _ => ctx.send(__d, ChannelId({ch}), __bytes),"
        );
        let _ = writeln!(out, "{p}    }}");
        let _ = writeln!(out, "{p}}}");
    }
}

impl Gen<'_> {
    // ---- transition handlers --------------------------------------------

    /// A transition scope as a Rust condition over the state enum.
    fn scope_cond(&self, s: &StateExpr) -> String {
        match s {
            StateExpr::Any => "true".into(),
            StateExpr::Is(n) => format!("self.state == {}::{}", self.state_enum(), camel(n)),
            StateExpr::Not(e) => format!("!({})", self.scope_cond(e)),
            StateExpr::Or(a, b) => {
                format!("({} || {})", self.scope_cond(a), self.scope_cond(b))
            }
        }
    }

    /// One handler function per trigger: an if-chain over the state
    /// scopes in declaration order, firing the **first** match only —
    /// the interpreter's `fire` dispatch. Forward handlers return the
    /// `quash` verdict.
    fn emit_transition_fn(
        &self,
        out: &mut String,
        fn_name: &str,
        params: &str,
        is_forward: bool,
        cx: Cx,
        arms: &Table,
    ) {
        let cx = Cx {
            ret: if is_forward {
                "return quash;"
            } else {
                "return;"
            },
            ..cx
        };
        let ret_sig = if is_forward { "-> bool " } else { "" };
        let _ = writeln!(
            out,
            "    fn {fn_name}(&mut self, ctx: &mut Ctx{params}) {ret_sig}{{"
        );
        if is_forward {
            let _ = writeln!(out, "        let mut quash = false;");
        }
        for &(_, t) in arms {
            let t = &self.ir.transitions[t as usize];
            let cond = self.scope_cond(&t.scope);
            if cond == "true" {
                // `any` matches unconditionally; later arms can never fire.
                let _ = writeln!(out, "        self.transitions_fired += 1;");
                if t.read_locked {
                    let _ = writeln!(out, "        ctx.locking_read();");
                }
                self.body(out, 8, &cx, &t.body);
                break;
            }
            let _ = writeln!(out, "        if {cond} {{");
            let _ = writeln!(out, "            self.transitions_fired += 1;");
            if t.read_locked {
                let _ = writeln!(out, "            ctx.locking_read();");
            }
            self.body(out, 12, &cx, &t.body);
            let _ = writeln!(out, "            {}", cx.ret);
            let _ = writeln!(out, "        }}");
        }
        if is_forward {
            let _ = writeln!(out, "        quash");
        }
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out);
    }

    /// APIs with at least one transition, in first-appearance order.
    fn handled_apis(&self) -> Vec<ApiKind> {
        let api = &self.ir.tables.api;
        let mut out: Vec<ApiKind> = ApiKind::ALL
            .into_iter()
            .filter(|k| !api[*k as usize].is_empty())
            .collect();
        out.sort_by_key(|k| api[*k as usize][0].1);
        out
    }

    fn api_fn_name(api: ApiKind) -> String {
        format!("t_api_{}", api.name().to_lowercase())
    }

    fn api_params(api: ApiKind) -> &'static str {
        match api {
            ApiKind::Route => ", dest: MacedonKey, payload: Bytes",
            ApiKind::RouteIp => ", dest: NodeId, payload: Bytes",
            ApiKind::Multicast | ApiKind::Anycast | ApiKind::Collect => {
                ", group: MacedonKey, payload: Bytes"
            }
            ApiKind::Join | ApiKind::Leave | ApiKind::CreateGroup => ", group: MacedonKey",
            ApiKind::Init | ApiKind::Ext => "",
        }
    }

    /// Does this lowest-layer spec need the forward-query bookkeeping
    /// (any message that can carry tunneled upper-layer payloads)?
    fn needs_pending_fwd(&self) -> bool {
        !self.ir.layered
            && self
                .ir
                .messages
                .iter()
                .any(|m| m.fields.iter().any(|f| f.kind == FieldKind::Payload))
    }

    /// Declared scalars (constants and `foreach` bindings excluded).
    fn scalars(&self) -> impl Iterator<Item = &IrVar> + '_ {
        self.declared().filter(|v| v.constant.is_none())
    }
}

/// The Rust type a value of `ty` is held in.
fn rust_ty(ty: Ty) -> &'static str {
    match ty {
        Ty::Int => "i64",
        Ty::Bool => "bool",
        Ty::Node => "Option<NodeId>",
        Ty::Key => "MacedonKey",
        Ty::Payload => "Bytes",
        Ty::List => "Vec<NodeId>",
        Ty::Null => unreachable!("the lowering rejects a neighbor-typed scalar"),
    }
}
impl Gen<'_> {
    // ---- module assembly -------------------------------------------------

    fn file(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let name = &self.name;
        let senum = self.state_enum();
        let spec = self.ir;

        let _ = writeln!(
            w,
            "//! `{0}` — generated by macedon-lang from `{1}.mac`. **Do not edit**:\n\
             //! regenerate with `cargo run -p macedon-bench --bin regen` (CI rejects\n\
             //! drift between this file and the spec).",
            name, spec.name
        );
        let _ = writeln!(w, "//!");
        let _ = writeln!(
            w,
            "//! Behaviorally identical to interpreting the spec: same RNG draws,\n\
             //! byte-identical wire messages, same engine op order."
        );
        // Pre-wrapped in rustfmt's own style: everything below the module
        // attribute carries `#[rustfmt::skip]`, but these header lines are
        // formatted, and regen output must be `cargo fmt --check`-stable.
        let _ = writeln!(w, "#![allow(");
        let lints = [
            "dead_code",
            "unused_variables",
            "unused_mut",
            "unused_imports",
            "unused_parens",
            "unreachable_patterns",
        ];
        for (i, lint) in lints.iter().enumerate() {
            // rustfmt omits the trailing comma inside attributes.
            let sep = if i + 1 == lints.len() { "" } else { "," };
            let _ = writeln!(w, "    {lint}{sep}");
        }
        let _ = writeln!(w, ")]");
        let _ = writeln!(
            w,
            "// Generated code favors a 1:1 mapping onto the interpreter's semantics\n\
             // over idiomatic style; neither clippy's style lints nor rustfmt apply."
        );
        let _ = writeln!(w, "#![allow(clippy::all)]");
        let _ = writeln!(w, "#[rustfmt::skip]");
        let _ = writeln!(w, "mod generated {{");
        let _ = writeln!(w);
        let _ = writeln!(w, "use macedon_core::{{");
        let _ = writeln!(
            w,
            "    Agent, AgentState, Bytes, ChannelId, Ctx, DecodeError, DownCall, Duration,"
        );
        let _ = writeln!(
            w,
            "    ForwardInfo, MacedonKey, NodeId, ProtocolId, TraceLevel, UpCall, WireReader,"
        );
        let _ = writeln!(w, "    WireWriter, DEFAULT_PRIORITY, TUNNEL_PROTOCOL,");
        let _ = writeln!(w, "}};");
        let _ = writeln!(w, "use macedon_core::key;");
        let _ = writeln!(w, "use macedon_core::wire::{{read_tunnel, tunnel_frame}};");
        let _ = writeln!(w, "use std::any::Any;");
        let _ = writeln!(w, "use std::collections::VecDeque;");
        let _ = writeln!(w);

        // Well-known protocol number (derived from the protocol name, as
        // the interpreter does).
        let _ = writeln!(
            w,
            "/// Well-known protocol id of `{}` (same derivation as the interpreter).",
            spec.name
        );
        let _ = writeln!(w, "pub const PROTOCOL_ID: ProtocolId = {};", spec.proto);
        for (i, m) in spec.messages.iter().enumerate() {
            let _ = writeln!(w, "const MSG_{}: u16 = {};", m.name.to_uppercase(), i);
        }
        if spec.layered {
            let _ = writeln!(
                w,
                "// Per-message transport priority: each declared class resolved\n\
                 // against the base (tunneling) layer's channel table at generation\n\
                 // time; -1 = default (tunnel channel 0)."
            );
            for m in &spec.messages {
                let _ = writeln!(
                    w,
                    "const PRIO_{}: i8 = {};",
                    m.name.to_uppercase(),
                    self.msg_priority(m)
                );
            }
        } else {
            let _ = writeln!(
                w,
                "/// Declared transport channels (bounds the `priority` values the\n\
                 /// engine-served `routeIP` tunnel honors)."
            );
            let _ = writeln!(w, "const NUM_CHANNELS: u16 = {};", spec.num_channels);
        }
        for (i, t) in spec.timers.iter().enumerate() {
            let _ = writeln!(w, "const TIMER_{}: u16 = {};", t.name.to_uppercase(), i);
        }
        for v in self.declared() {
            if let Some(c) = v.constant {
                let _ = writeln!(w, "const {}: i64 = {c};", v.name);
            }
        }
        let _ = writeln!(w);

        // FSM state enum.
        let _ = writeln!(w, "/// FSM states of `{}` (`init` is implicit).", spec.name);
        let _ = writeln!(w, "#[derive(Clone, Copy, PartialEq, Eq, Debug)]");
        let _ = writeln!(w, "pub enum {senum} {{");
        let _ = writeln!(w, "    Init,");
        for s in &spec.states[1..] {
            let _ = writeln!(w, "    {},", camel(s));
        }
        let _ = writeln!(w, "}}");
        let _ = writeln!(w);
        let _ = writeln!(w, "impl {senum} {{");
        let _ = writeln!(w, "    /// The state's name in the spec.");
        let _ = writeln!(w, "    pub fn name(self) -> &'static str {{");
        let _ = writeln!(w, "        match self {{");
        let _ = writeln!(w, "            {senum}::Init => \"init\",");
        for s in &spec.states[1..] {
            let _ = writeln!(w, "            {senum}::{} => \"{s}\",", camel(s));
        }
        let _ = writeln!(w, "        }}");
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w, "}}");
        let _ = writeln!(w);

        // Message field structs + decoders (generated marshaling).
        for m in &spec.messages {
            let ms = format!("Msg{}", camel(&m.name));
            let _ = writeln!(w, "/// Decoded fields of `{}`.", m.name);
            let _ = writeln!(w, "pub struct {ms} {{");
            for f in &m.fields {
                let ty = rust_ty(Ty::of_field(f.kind));
                let _ = writeln!(w, "    pub {}: {ty},", f.name);
            }
            let _ = writeln!(w, "}}");
            let _ = writeln!(w);
            let _ = writeln!(
                w,
                "fn dec_{}(r: &mut WireReader) -> Result<{ms}, DecodeError> {{",
                m.name
            );
            let _ = writeln!(w, "    Ok({ms} {{");
            for f in &m.fields {
                let read = match f.kind {
                    FieldKind::Int => "(r.u64()? as i64)",
                    FieldKind::Bool => "(r.u8()? != 0)",
                    FieldKind::Node => {
                        "{ let __n = r.node()?; \
                         if __n == NodeId(u32::MAX) { None } else { Some(__n) } }"
                    }
                    FieldKind::Key => "r.key()?",
                    FieldKind::Payload => "r.bytes()?",
                    FieldKind::Nodes => "r.nodes()?",
                };
                let _ = writeln!(w, "        {}: {read},", f.name);
            }
            let _ = writeln!(w, "    }})");
            let _ = writeln!(w, "}}");
            let _ = writeln!(w);
        }

        // Agent struct.
        let _ = writeln!(
            w,
            "/// The `{}` protocol agent, one FSM instance per node.",
            spec.name
        );
        let _ = writeln!(w, "pub struct {name} {{");
        let _ = writeln!(w, "    state: {senum},");
        let _ = writeln!(w, "    bootstrap: Option<NodeId>,");
        if self.needs_pending_fwd() {
            let _ = writeln!(
                w,
                "    /// Encoded sends awaiting their forward-query verdict, FIFO."
            );
            let _ = writeln!(w, "    pending_fwd: VecDeque<(NodeId, ChannelId, Bytes)>,");
        }
        let _ = writeln!(w, "    /// Transitions fired (observability / tests).");
        let _ = writeln!(w, "    pub transitions_fired: u64,");
        for l in &spec.lists {
            let _ = writeln!(w, "    {}: Vec<NodeId>,", l.name);
        }
        for v in self.scalars() {
            let _ = writeln!(w, "    {}: {},", v.name, rust_ty(v.ty));
        }
        let _ = writeln!(w, "}}");
        let _ = writeln!(w);

        self.emit_inherent_impl(w);
        self.emit_agent_impl(w);
        let _ = writeln!(w);
        let _ = writeln!(w, "}}");
        let _ = writeln!(w);
        let _ = writeln!(w, "pub use generated::*;");
        out
    }

    fn emit_inherent_impl(&self, w: &mut String) {
        let name = &self.name;
        let senum = self.state_enum();
        let spec = self.ir;
        let _ = writeln!(w, "impl {name} {{");
        let _ = writeln!(
            w,
            "    /// Instantiate one stack layer; `bootstrap` is the rendezvous\n\
             \x20   /// node handed to every layer (`None` for the designated root)."
        );
        let _ = writeln!(w, "    pub fn new(bootstrap: Option<NodeId>) -> {name} {{");
        let _ = writeln!(w, "        {name} {{");
        let _ = writeln!(w, "            state: {senum}::Init,");
        let _ = writeln!(w, "            bootstrap,");
        if self.needs_pending_fwd() {
            let _ = writeln!(w, "            pending_fwd: VecDeque::new(),");
        }
        let _ = writeln!(w, "            transitions_fired: 0,");
        for l in &spec.lists {
            let _ = writeln!(w, "            {}: Vec::new(),", l.name);
        }
        for v in self.scalars() {
            let init = match v.ty {
                Ty::Int => "0",
                Ty::Bool => "false",
                Ty::Node => "None",
                Ty::Key => "MacedonKey(0)",
                _ => "Bytes::new()",
            };
            let _ = writeln!(w, "            {}: {init},", v.name);
        }
        let _ = writeln!(w, "        }}");
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w);

        // Transition handler functions.
        let tables = &spec.tables;
        for api in self.handled_apis() {
            let cx = Cx {
                api: Some(api),
                ..Cx::plain()
            };
            let (name, params) = (Self::api_fn_name(api), Self::api_params(api));
            self.emit_transition_fn(w, &name, params, false, cx, &tables.api[api as usize]);
        }
        for (i, m) in spec.messages.iter().enumerate() {
            let params = format!(", from: NodeId, m: &Msg{}", camel(&m.name));
            let cx = Cx {
                msg: Some(m),
                has_from: true,
                ..Cx::plain()
            };
            if !tables.recv[i].is_empty() {
                let name = format!("t_recv_{}", m.name);
                self.emit_transition_fn(w, &name, &params, false, cx, &tables.recv[i]);
            }
            if !tables.forward[i].is_empty() {
                let name = format!("t_fwd_{}", m.name);
                self.emit_transition_fn(w, &name, &params, true, cx, &tables.forward[i]);
            }
        }
        for (t, arms) in spec.timers.iter().zip(&tables.timer) {
            if !arms.is_empty() {
                let name = format!("t_timer_{}", t.name);
                self.emit_transition_fn(w, &name, "", false, Cx::plain(), arms);
            }
        }
        if !tables.error.is_empty() {
            let cx = Cx {
                has_from: true,
                ..Cx::plain()
            };
            self.emit_transition_fn(w, "t_error", ", from: NodeId", false, cx, &tables.error);
        }
        let _ = writeln!(w, "}}");
        let _ = writeln!(w);
    }
}

impl Gen<'_> {
    fn emit_agent_impl(&self, w: &mut String) {
        let name = &self.name;
        let spec = self.ir;
        let _ = writeln!(w, "impl Agent for {name} {{");
        let _ = writeln!(w, "    fn protocol_id(&self) -> ProtocolId {{");
        let _ = writeln!(w, "        PROTOCOL_ID");
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w);
        let _ = writeln!(
            w,
            "    fn name(&self) -> &'static str {{ \"{}\" }}",
            spec.name
        );
        let _ = writeln!(w);

        // init: arm declared-period timers, then the `API init` transition.
        let _ = writeln!(w, "    fn init(&mut self, ctx: &mut Ctx) {{");
        for t in &spec.timers {
            if let Some(ms) = t.period_ms {
                let _ = writeln!(
                    w,
                    "        ctx.timer_periodic(TIMER_{}, Duration::from_millis({}));",
                    t.name.to_uppercase(),
                    ms.max(0)
                );
            }
        }
        if !spec.tables.api[ApiKind::Init as usize].is_empty() {
            let _ = writeln!(w, "        self.t_api_init(ctx);");
        } else {
            let _ = writeln!(w, "        let _ = ctx;");
        }
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w);

        // downcall: §3.2's API demultiplexer.
        let _ = writeln!(
            w,
            "    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {{"
        );
        let _ = writeln!(w, "        match call {{");
        let handled = self.handled_apis();
        for &api in &handled {
            let fn_name = Self::api_fn_name(api);
            let arm = match api {
                ApiKind::Init => continue, // fired from Agent::init, never a DownCall
                ApiKind::Route => format!(
                    "DownCall::Route {{ dest, payload, .. }} => self.{fn_name}(ctx, dest, payload),"
                ),
                ApiKind::RouteIp => format!(
                    "DownCall::RouteIp {{ dest, payload, .. }} => self.{fn_name}(ctx, dest, payload),"
                ),
                ApiKind::Multicast => format!(
                    "DownCall::Multicast {{ group, payload, .. }} => self.{fn_name}(ctx, group, payload),"
                ),
                ApiKind::Anycast => format!(
                    "DownCall::Anycast {{ group, payload, .. }} => self.{fn_name}(ctx, group, payload),"
                ),
                ApiKind::Collect => format!(
                    "DownCall::Collect {{ group, payload, .. }} => self.{fn_name}(ctx, group, payload),"
                ),
                ApiKind::CreateGroup => format!(
                    "DownCall::CreateGroup {{ group }} => self.{fn_name}(ctx, group),"
                ),
                ApiKind::Join => format!("DownCall::Join {{ group }} => self.{fn_name}(ctx, group),"),
                ApiKind::Leave => format!("DownCall::Leave {{ group }} => self.{fn_name}(ctx, group),"),
                ApiKind::Ext => format!("DownCall::Ext {{ .. }} => self.{fn_name}(ctx),"),
            };
            let _ = writeln!(w, "            {arm}");
        }
        if spec.layered {
            // Unhandled API calls fall through to the base layer.
            let _ = writeln!(w, "            __other => ctx.down(__other),");
        } else {
            if !handled.contains(&ApiKind::RouteIp) {
                // `routeIP` is an engine service on the lowest layer:
                // tunnel the payload straight to the target host, on
                // the channel a non-negative priority names (layered
                // specs resolve their message classes to these).
                let _ = writeln!(
                    w,
                    "            DownCall::RouteIp {{ dest, payload, priority }} => {{"
                );
                let _ = writeln!(
                    w,
                    "                let __ch = if priority >= 0 && (priority as u16) < \
                     NUM_CHANNELS {{"
                );
                let _ = writeln!(w, "                    ChannelId(priority as u16)");
                let _ = writeln!(w, "                }} else {{");
                let _ = writeln!(w, "                    ChannelId(0)");
                let _ = writeln!(w, "                }};");
                let _ = writeln!(
                    w,
                    "                ctx.send(dest, __ch, tunnel_frame(ctx.my_key, &payload));"
                );
                let _ = writeln!(w, "            }}");
            }
            let _ = writeln!(
                w,
                "            __other => ctx.trace(TraceLevel::Low, format!(\"{}: unhandled \
                 API call {{:?}}\", __other)),",
                spec.name
            );
        }
        let _ = writeln!(w, "        }}");
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w);

        // recv: wire demultiplexer (lowest layer only).
        if spec.layered {
            let _ = writeln!(
                w,
                "    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {{"
            );
            let _ = writeln!(w, "        let _ = (ctx, from, msg);");
            let _ = writeln!(
                w,
                "        debug_assert!(false, \"layered generated agents never touch the \
                 wire\");"
            );
            let _ = writeln!(w, "    }}");
        } else {
            let _ = writeln!(
                w,
                "    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {{"
            );
            let _ = writeln!(w, "        let mut __r = WireReader::new(msg);");
            let _ = writeln!(
                w,
                "        let (Ok(__proto), Ok(__id)) = (__r.u16(), __r.u16()) else {{ return \
                 }};"
            );
            let _ = writeln!(w, "        if __proto == TUNNEL_PROTOCOL {{");
            let _ = writeln!(
                w,
                "            // A frame tunneled for the layers above: unwrap, deliver up."
            );
            let _ = writeln!(
                w,
                "            let Ok((__src, __payload)) = read_tunnel(&mut __r) else {{ \
                 return }};"
            );
            let _ = writeln!(
                w,
                "            ctx.up(UpCall::Deliver {{ src: __src, from, payload: __payload \
                 }});"
            );
            let _ = writeln!(w, "            return;");
            let _ = writeln!(w, "        }}");
            let _ = writeln!(w, "        if __proto != PROTOCOL_ID {{");
            let _ = writeln!(w, "            return;");
            let _ = writeln!(w, "        }}");
            let _ = writeln!(w, "        match __id {{");
            for (m, arms) in spec.messages.iter().zip(&spec.tables.recv) {
                let up = m.name.to_uppercase();
                if arms.is_empty() {
                    let _ = writeln!(
                        w,
                        "            MSG_{up} => {{ let _ = dec_{}(&mut __r); }} // no recv \
                         transition",
                        m.name
                    );
                } else {
                    let _ = writeln!(
                        w,
                        "            MSG_{up} => match dec_{}(&mut __r) {{",
                        m.name
                    );
                    let _ = writeln!(
                        w,
                        "                Ok(__m) => self.t_recv_{}(ctx, from, &__m),",
                        m.name
                    );
                    let _ = writeln!(
                        w,
                        "                Err(__e) => ctx.trace(TraceLevel::Low, format!(\"{}: \
                         decode error: {{}}\", __e)),",
                        spec.name
                    );
                    let _ = writeln!(w, "            }},");
                }
            }
            let _ = writeln!(w, "            _ => {{}}");
            let _ = writeln!(w, "        }}");
            let _ = writeln!(w, "    }}");
        }
        let _ = writeln!(w);

        // upcall: layered specs demultiplex their own tunneled messages
        // out of Deliver upcalls; everything else continues up.
        if spec.layered {
            let _ = writeln!(w, "    fn upcall(&mut self, ctx: &mut Ctx, up: UpCall) {{");
            let _ = writeln!(w, "        match up {{");
            let _ = writeln!(
                w,
                "            UpCall::Deliver {{ src, from, payload }} => {{"
            );
            let _ = writeln!(
                w,
                "                let mut __r = WireReader::new(payload.clone());"
            );
            let _ = writeln!(
                w,
                "                if let (Ok(__proto), Ok(__id)) = (__r.u16(), __r.u16()) {{"
            );
            let _ = writeln!(w, "                    if __proto == PROTOCOL_ID {{");
            let _ = writeln!(w, "                        match __id {{");
            for (m, arms) in spec.messages.iter().zip(&spec.tables.recv) {
                let up_name = m.name.to_uppercase();
                let _ = writeln!(w, "                            MSG_{up_name} => {{");
                if arms.is_empty() {
                    let _ = writeln!(
                        w,
                        "                                if dec_{}(&mut __r).is_ok() {{",
                        m.name
                    );
                    let _ = writeln!(
                        w,
                        "                                    return; // ours; no recv transition"
                    );
                    let _ = writeln!(w, "                                }}");
                } else {
                    let _ = writeln!(
                        w,
                        "                                if let Ok(__m) = dec_{}(&mut __r) {{",
                        m.name
                    );
                    let _ = writeln!(
                        w,
                        "                                    self.t_recv_{}(ctx, from, &__m);",
                        m.name
                    );
                    let _ = writeln!(w, "                                    return;");
                    let _ = writeln!(w, "                                }}");
                }
                let _ = writeln!(w, "                            }}");
            }
            let _ = writeln!(w, "                            _ => {{}}");
            let _ = writeln!(w, "                        }}");
            let _ = writeln!(w, "                    }}");
            let _ = writeln!(w, "                }}");
            let _ = writeln!(
                w,
                "                // Not ours (or malformed): continue up the stack."
            );
            let _ = writeln!(
                w,
                "                ctx.up(UpCall::Deliver {{ src, from, payload }});"
            );
            let _ = writeln!(w, "            }}");
            let _ = writeln!(w, "            __other => ctx.up(__other),");
            let _ = writeln!(w, "        }}");
            let _ = writeln!(w, "    }}");
            let _ = writeln!(w);
        }

        // on_forward: in-transit messages of ours passing through the
        // layer below fire `forward` transitions (which may quash).
        let fwd_msgs: Vec<&IrMessage> = spec
            .messages
            .iter()
            .zip(&spec.tables.forward)
            .filter(|(_, arms)| !arms.is_empty())
            .map(|(m, _)| m)
            .collect();
        if !fwd_msgs.is_empty() {
            let _ = writeln!(
                w,
                "    fn on_forward(&mut self, ctx: &mut Ctx, fwd: &mut ForwardInfo) {{"
            );
            let _ = writeln!(
                w,
                "        let mut __r = WireReader::new(fwd.payload.clone());"
            );
            let _ = writeln!(
                w,
                "        let (Ok(__proto), Ok(__id)) = (__r.u16(), __r.u16()) else {{ return \
                 }};"
            );
            let _ = writeln!(w, "        if __proto != PROTOCOL_ID {{");
            let _ = writeln!(w, "            return;");
            let _ = writeln!(w, "        }}");
            let _ = writeln!(w, "        match __id {{");
            for m in fwd_msgs {
                let up = m.name.to_uppercase();
                let _ = writeln!(w, "            MSG_{up} => {{");
                let _ = writeln!(
                    w,
                    "                if let Ok(__m) = dec_{}(&mut __r) {{",
                    m.name
                );
                let _ = writeln!(
                    w,
                    "                    if self.t_fwd_{}(ctx, fwd.prev_hop, &__m) {{",
                    m.name
                );
                let _ = writeln!(w, "                        fwd.quash = true;");
                let _ = writeln!(w, "                    }}");
                let _ = writeln!(w, "                }}");
                let _ = writeln!(w, "            }}");
            }
            let _ = writeln!(w, "            _ => {{}}");
            let _ = writeln!(w, "        }}");
            let _ = writeln!(w, "    }}");
            let _ = writeln!(w);
        }

        // forward_resolved: transmit vetted sends (unless quashed).
        if self.needs_pending_fwd() {
            let _ = writeln!(
                w,
                "    fn forward_resolved(&mut self, ctx: &mut Ctx, fwd: ForwardInfo) {{"
            );
            let _ = writeln!(
                w,
                "        let Some((_dest, __ch, __bytes)) = self.pending_fwd.pop_front() else {{"
            );
            let _ = writeln!(
                w,
                "            debug_assert!(false, \"forward_resolved without a pending send\");"
            );
            let _ = writeln!(w, "            return;");
            let _ = writeln!(w, "        }};");
            let _ = writeln!(w, "        if !fwd.quash {{");
            let _ = writeln!(
                w,
                "            // The layers above may have redirected the hop."
            );
            let _ = writeln!(w, "            ctx.send(fwd.next_hop, __ch, __bytes);");
            let _ = writeln!(w, "        }}");
            let _ = writeln!(w, "    }}");
            let _ = writeln!(w);
        }

        // timer demultiplexer.
        let _ = writeln!(w, "    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {{");
        let timer_fns: Vec<&str> = spec
            .timers
            .iter()
            .zip(&spec.tables.timer)
            .filter(|(_, arms)| !arms.is_empty())
            .map(|(t, _)| t.name.as_str())
            .collect();
        if timer_fns.is_empty() {
            let _ = writeln!(w, "        let _ = (ctx, timer);");
        } else {
            let _ = writeln!(w, "        match timer {{");
            for t in timer_fns {
                let _ = writeln!(
                    w,
                    "            TIMER_{} => self.t_timer_{t}(ctx),",
                    t.to_uppercase()
                );
            }
            let _ = writeln!(w, "            _ => {{}}");
            let _ = writeln!(w, "        }}");
        }
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w);

        // neighbor_failed: drop the peer from fail_detect lists, then
        // fire the error transition.
        let fd: Vec<&str> = spec
            .lists
            .iter()
            .filter(|l| l.fail_detect)
            .map(|l| l.name.as_str())
            .collect();
        let has_error = !spec.tables.error.is_empty();
        if !fd.is_empty() || has_error {
            let _ = writeln!(
                w,
                "    fn neighbor_failed(&mut self, ctx: &mut Ctx, peer: NodeId) {{"
            );
            for l in &fd {
                let _ = writeln!(w, "        self.{l}.retain(|&__n| __n != peer);");
            }
            if has_error {
                let _ = writeln!(w, "        self.t_error(ctx, peer);");
            } else {
                let _ = writeln!(w, "        let _ = ctx;");
            }
            let _ = writeln!(w, "    }}");
            let _ = writeln!(w);
        }

        let _ = writeln!(w, "    fn view(&self) -> Option<AgentState<'_>> {{");
        let _ = writeln!(w, "        Some(AgentState {{");
        let _ = writeln!(w, "            protocol: \"{}\",", spec.name);
        let _ = writeln!(w, "            state: self.state.name(),");
        let lists: Vec<String> = spec
            .lists
            .iter()
            .map(|l| format!("(\"{0}\", self.{0}.as_slice())", l.name))
            .collect();
        let _ = writeln!(w, "            lists: vec![{}],", lists.join(", "));
        let _ = writeln!(w, "        }})");
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w);
        let _ = writeln!(w, "    fn as_any(&self) -> &dyn Any {{");
        let _ = writeln!(w, "        self");
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w);
        let _ = writeln!(w, "    fn as_any_mut(&mut self) -> &mut dyn Any {{");
        let _ = writeln!(w, "        self");
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w, "}}");
    }
}

fn camel(s: &str) -> String {
    let mut out = String::new();
    let mut upper = true;
    for c in s.chars() {
        if c == '_' || c == '-' {
            upper = true;
        } else if upper {
            out.extend(c.to_uppercase());
            upper = false;
        } else {
            out.push(c);
        }
    }
    out
}

/// Generate the complete source set of the `crates/generated` crate:
/// one module per bundled spec plus the crate root (module list, stack
/// assembly mirroring each spec's `uses` chain, and per-protocol channel
/// tables). Returns `(file name, contents)` pairs — the `regen` tool
/// writes them to disk, and the `golden` test fails on any difference
/// from the checked-in files.
pub fn generate_bundled_crate() -> Vec<(String, String)> {
    let reg = crate::registry::SpecRegistry::bundled();
    let chain = |name: &str| {
        reg.resolve_chain(name)
            .expect("every bundled uses chain resolves")
    };
    let mut files = Vec::new();
    let mut names = Vec::new();
    for (name, _) in crate::bundled_specs() {
        let ir = reg
            .get(name)
            .expect("the bundled registry holds every bundled spec");
        // Layered specs resolve their message classes against the
        // chain's lowest (tunneling) layer at generation time.
        let chain = chain(name);
        let base = ir.layered.then(|| chain[0].spec.transports.as_slice());
        files.push((format!("{name}.rs"), generate(ir, base)));
        names.push(name);
    }
    let mut w = String::new();
    let _ = writeln!(
        w,
        "//! # macedon-generated\n\
         //!\n\
         //! The Rust agents `macedon_lang::codegen` emits for the nine bundled\n\
         //! `.mac` specifications — the translator's output, checked in and built\n\
         //! as part of the workspace so the paper's spec → running code loop is\n\
         //! closed under CI.\n\
         //!\n\
         //! **Do not edit anything in `src/`**: regenerate with\n\
         //! `cargo run -p macedon-bench --bin regen`. The tier-1 test\n\
         //! `crates/lang/tests/golden.rs` regenerates every file and fails on any\n\
         //! difference, so hand edits and stale output cannot merge.\n\
         //!\n\
         //! Generated agents are behaviorally identical to interpreting the same\n\
         //! spec (same RNG draws, byte-identical wire messages, same engine op\n\
         //! order); the integration suite cross-validates that on seeded runs.\n\
         #![allow(clippy::all)]\n"
    );
    for name in &names {
        let _ = writeln!(w, "pub mod {name};");
    }
    let _ = writeln!(w);
    let _ = writeln!(w, "#[rustfmt::skip]");
    let _ = writeln!(w, "mod assembly {{");
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "use macedon_core::{{Agent, ChannelSpec, NodeId, TransportKind}};"
    );
    let _ = writeln!(w, "use super::*;");
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "/// Protocols with a generated agent (the Figure 7 roster)."
    );
    let _ = write!(w, "pub const PROTOCOLS: &[&str] = &[");
    for name in &names {
        let _ = write!(w, "\"{name}\", ");
    }
    let _ = writeln!(w, "];");
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "/// Assemble the all-generated stack for `proto`, lowest layer first,\n\
         /// following the spec's `uses` chain (`splitstream` → pastry + scribe +\n\
         /// splitstream). `bootstrap` is handed to every layer (`None` for the\n\
         /// designated root). Returns `None` for unknown protocol names."
    );
    let _ = writeln!(
        w,
        "pub fn build_stack(proto: &str, bootstrap: Option<NodeId>) -> \
         Option<Vec<Box<dyn Agent>>> {{"
    );
    let _ = writeln!(w, "    Some(match proto {{");
    for name in &names {
        let chain = chain(name);
        let _ = writeln!(w, "        \"{name}\" => vec![");
        for layer in &chain {
            let _ = writeln!(
                w,
                "            Box::new({}::{}::new(bootstrap)),",
                layer.name,
                camel(&layer.name)
            );
        }
        let _ = writeln!(w, "        ],");
    }
    let _ = writeln!(w, "        _ => return None,");
    let _ = writeln!(w, "    }})");
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "/// The channel table a `World` hosting this protocol's stack must be\n\
         /// built with: the lowest layer's transport declarations (upper layers\n\
         /// never touch the wire). Returns `None` for unknown protocol names."
    );
    let _ = writeln!(
        w,
        "pub fn channel_table(proto: &str) -> Option<Vec<ChannelSpec>> {{"
    );
    let _ = writeln!(w, "    Some(match proto {{");
    for name in &names {
        let chain = chain(name);
        let _ = writeln!(w, "        \"{name}\" => vec![");
        for t in &chain[0].spec.transports {
            let kind = match t.kind {
                TransportKindDecl::Tcp => "TransportKind::Tcp".to_string(),
                TransportKindDecl::Udp => "TransportKind::Udp".to_string(),
                TransportKindDecl::Swp => "TransportKind::Swp { window: 16 }".to_string(),
            };
            let _ = writeln!(w, "            ChannelSpec::new(\"{}\", {kind}),", t.name);
        }
        let _ = writeln!(w, "        ],");
    }
    let _ = writeln!(w, "        _ => return None,");
    let _ = writeln!(w, "    }})");
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(w, "pub use assembly::*;");
    files.push(("lib.rs".to_string(), w));
    files
}

/// The round-trip spec: an ad-hoc spec outside the bundled roster, so
/// nothing links its generated agent but the round-trip test, which
/// runs it against its interpreted twin.
pub const ROUNDTRIP_SPEC: &str = include_str!("../tests/roundtrip/roundtrip.mac");

/// Where the round-trip spec's generated module is checked in, relative
/// to this crate's manifest directory.
pub const ROUNDTRIP_MODULE: &str = "tests/roundtrip/agent.rs";

/// The round-trip spec's generated module: compile, then generate.
/// `regen` writes it to [`ROUNDTRIP_MODULE`]; the `golden` test checks
/// the file against it.
pub fn generate_roundtrip() -> String {
    let ir = crate::compile(ROUNDTRIP_SPEC).expect("the round-trip spec compiles");
    generate(&ir, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const SRC: &str = r#"
        protocol toy_proto;
        addressing hash;
        states { joined; waiting; }
        neighbor_types { kid 4 { } }
        transports { TCP C; }
        messages { C ping { node who; } C pong { } }
        state_variables { kid kids; timer beat 500; int count; }
        transitions {
            any API init { count = 0; }
            !(joined) recv ping { neighbor_add(kids, from); pong(from); }
            joined|waiting timer beat { count = count + 1; }
        }
    "#;

    fn gen(src: &str) -> String {
        generate(&compile(src).unwrap(), None)
    }

    #[test]
    fn generates_struct_and_state_enum() {
        let code = gen(SRC);
        assert!(code.contains("pub struct ToyProto"), "{code}");
        assert!(code.contains("pub enum ToyProtoState"));
        assert!(code.contains("    Init,"));
        assert!(code.contains("    Joined,"));
        assert!(code.contains("    Waiting,"));
    }

    #[test]
    fn generates_message_constants_and_demux() {
        let code = gen(SRC);
        assert!(code.contains("const MSG_PING: u16 = 0;"));
        assert!(code.contains("const MSG_PONG: u16 = 1;"));
        assert!(
            code.contains("MSG_PING => match dec_ping(&mut __r)"),
            "{code}"
        );
        assert!(code.contains("fn t_recv_ping"));
    }

    #[test]
    fn scope_conditions_translated() {
        let code = gen(SRC);
        assert!(code.contains("!(self.state == ToyProtoState::Joined)"));
        assert!(code.contains("|| self.state == ToyProtoState::Waiting"));
    }

    #[test]
    fn timer_dispatch_generated() {
        let code = gen(SRC);
        assert!(code.contains("const TIMER_BEAT: u16 = 0;"));
        assert!(code.contains("TIMER_BEAT => self.t_timer_beat(ctx)"));
        assert!(code.contains("ctx.timer_periodic(TIMER_BEAT, Duration::from_millis(500))"));
    }

    #[test]
    fn transition_bodies_are_full_code_not_comments() {
        let code = gen(SRC);
        assert!(
            code.contains("self.count = self.count.wrapping_add((1i64));"),
            "{code}"
        );
        assert!(
            code.contains("if !self.kids.contains(&__n) && self.kids.len() < 4usize"),
            "{code}"
        );
        assert!(!code.contains("elided"), "nothing is elided anymore");
    }

    #[test]
    fn generated_loc_exceeds_spec_loc() {
        // The paper's point: a few hundred spec lines expand considerably.
        let spec_loc = SRC.lines().filter(|l| !l.trim().is_empty()).count();
        assert!(generated_loc(&compile(SRC).unwrap(), None) > 3 * spec_loc);
    }

    #[test]
    fn camel_case_conversion() {
        assert_eq!(camel("overcast"), "Overcast");
        assert_eq!(camel("split_stream"), "SplitStream");
    }

    #[test]
    fn all_bundled_specs_generate() {
        for (name, src) in crate::bundled_specs() {
            assert!(gen(src).contains("impl Agent for"), "{name}.mac");
        }
    }

    #[test]
    fn bundled_crate_has_one_module_per_spec_plus_root() {
        let files = generate_bundled_crate();
        assert_eq!(files.len(), crate::bundled_specs().len() + 1);
        assert!(files.iter().any(|(n, _)| n == "lib.rs"));
        let (_, lib) = files.iter().find(|(n, _)| n == "lib.rs").unwrap();
        assert!(lib.contains("pub mod overcast;"));
        assert!(lib.contains("\"splitstream\" => vec!["));
        assert!(lib.contains("scribe::Scribe::new(bootstrap)"));
    }

    #[test]
    fn rtt_goodput_builtins_render_to_ctx_calls() {
        let code = gen("protocol p; addressing hash; transports { TCP C; }
             neighbor_types { kid 4 { } }
             messages { C ping { } }
             state_variables { kid kids; node papa; int r; int g; }
             transitions { any API init {
                r = rtt(papa);
                g = goodput(neighbor_random(kids));
             } }");
        assert!(code.contains("ctx.rtt_ms(__p)"), "{code}");
        assert!(code.contains("ctx.goodput_kbps(__p)"), "{code}");
    }
}
