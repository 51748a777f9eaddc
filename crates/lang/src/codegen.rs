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
//! The generated code is **behaviorally identical** to interpreting the
//! same spec: it draws from the per-node RNG at the same points, emits
//! byte-identical wire messages, and buffers the same [`macedon_core`]
//! effect ops in the same order. The integration suite exploits this by
//! running generated agents and their interpreted twins on seeded worlds
//! and asserting identical delivery logs (see `crates/generated`).
//!
//! Anything the generator cannot express is reported as a
//! [`CodegenError`] — never silently skipped.

use crate::ast::*;
use crate::ir::typed::{EqCase, IntFrom, KeyOptFrom, Truth, Ty};
use std::fmt;
use std::fmt::Write as _;

/// A construct the code generator cannot express (or a spec-level
/// inconsistency surfaced while typing the action language).
#[derive(Clone, Debug)]
pub struct CodegenError {
    /// Protocol the error was found in.
    pub spec: String,
    /// Human-readable diagnostic.
    pub detail: String,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen '{}': {}", self.spec, self.detail)
    }
}

impl std::error::Error for CodegenError {}

/// Rust keywords that cannot appear as generated identifiers.
const RUST_KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "static", "struct", "super", "trait", "true", "type", "unsafe", "use",
    "where", "while", "async", "await", "box", "priv", "try", "union", "yield",
];

/// Generate the Rust agent module for a compiled spec (no base-layer
/// transport table: layered message classes stay at the default
/// priority, as a standalone [`crate::interp::InterpretedAgent::new`]
/// would run them).
pub fn generate(spec: &Spec) -> Result<String, CodegenError> {
    Gen::new(spec, None)?.file()
}

/// Generate with the base (tunneling) layer's transport table in hand:
/// a layered spec's message class names (`HIGH`, `BEST_EFFORT`, …)
/// resolve to baked-in channel priorities via
/// [`crate::ast::map_class_to_channel`] — the codegen-time equivalent
/// of [`crate::interp::InterpretedAgent::set_base_transports`]. The
/// regen tool passes each bundled spec's resolved chain here.
pub fn generate_with_base(
    spec: &Spec,
    base: Option<&[TransportDecl]>,
) -> Result<String, CodegenError> {
    Gen::new(spec, base)?.file()
}

/// Lines of generated code (the paper's "generated C++ is over 2500
/// LoC" comparison, Figure 7). Counts the full compilable output — the
/// same text `crates/generated` builds — and panics loudly if the spec
/// stops being generatable (bundled specs are covered by tests).
pub fn generated_loc(spec: &Spec, base: Option<&[TransportDecl]>) -> usize {
    // Count the real artifact: pass the chain's base transport table
    // for a layered spec (the caller usually has the registry in hand
    // already), `None` for lowest-layer specs.
    match generate_with_base(spec, base) {
        Ok(code) => code.lines().count(),
        Err(e) => panic!("{e}"),
    }
}

/// Per-transition binding context: which names are in scope and how a
/// `return;` leaves the handler.
#[derive(Clone)]
struct Cx<'a> {
    /// Triggering message for `recv`/`forward` transitions.
    msg: Option<&'a MessageDecl>,
    /// API name for `API <name>` transitions (binds `dest`/`group`/
    /// `payload`).
    api: Option<&'a str>,
    /// Is `from` bound (recv/forward/error)?
    has_from: bool,
    /// Active `foreach` variables, innermost last.
    fe: Vec<String>,
    /// How `return;` renders (`return quash;` in forward handlers).
    ret: &'static str,
}

impl<'a> Cx<'a> {
    fn plain() -> Cx<'a> {
        Cx {
            msg: None,
            api: None,
            has_from: false,
            fe: Vec::new(),
            ret: "return;",
        }
    }
}

struct Gen<'a> {
    spec: &'a Spec,
    name: String,
    layered: bool,
    proto: u16,
    /// The base (tunneling) layer's transport table, when known —
    /// resolves layered message classes to baked channel priorities.
    base: Option<&'a [TransportDecl]>,
}

impl<'a> Gen<'a> {
    fn new(spec: &'a Spec, base: Option<&'a [TransportDecl]>) -> Result<Gen<'a>, CodegenError> {
        let g = Gen {
            spec,
            name: camel(&spec.name),
            layered: spec.uses.is_some(),
            proto: crate::interp::protocol_id_of(&spec.name),
            base,
        };
        g.preflight()?;
        Ok(g)
    }

    /// Priority a layered message's sends travel at: the base channel
    /// its declared class maps onto, or the default (mirrors the
    /// interpreter's `msg_prio`).
    fn msg_priority(&self, decl: &MessageDecl) -> i8 {
        self.base
            .zip(decl.transport.as_deref())
            .and_then(|(base, class)| crate::ast::map_class_to_channel(base, class))
            .and_then(|ch| i8::try_from(ch).ok())
            .unwrap_or(macedon_core::DEFAULT_PRIORITY)
    }

    fn err(&self, detail: impl Into<String>) -> CodegenError {
        CodegenError {
            spec: self.spec.name.clone(),
            detail: detail.into(),
        }
    }

    /// Reject identifiers the emitter cannot name.
    fn preflight(&self) -> Result<(), CodegenError> {
        let mut idents: Vec<&str> = Vec::new();
        for m in &self.spec.messages {
            idents.push(&m.name);
            for f in &m.fields {
                idents.push(&f.name);
            }
        }
        for v in &self.spec.state_vars {
            match v {
                StateVar::Neighbor { name, .. }
                | StateVar::Timer { name, .. }
                | StateVar::Scalar { name, .. } => idents.push(name),
            }
        }
        for (c, _) in &self.spec.constants {
            idents.push(c);
        }
        for i in idents {
            if RUST_KEYWORDS.contains(&i) {
                return Err(self.err(format!("identifier '{i}' is a Rust keyword")));
            }
        }
        for t in &self.spec.transitions {
            if let Trigger::Api(api) = &t.trigger {
                if !KNOWN_APIS.contains(&api.as_str()) {
                    return Err(self.err(format!(
                        "transition for unknown API '{api}' (known: {KNOWN_APIS:?})"
                    )));
                }
            }
        }
        for v in &self.spec.state_vars {
            if let StateVar::Scalar {
                ty: TypeName::Neighbor(t),
                name,
            } = v
            {
                return Err(self.err(format!(
                    "scalar state variable '{name}' of neighbor type '{t}' is not supported; \
                     declare it as a neighbor list"
                )));
            }
        }
        Ok(())
    }

    // ---- spec lookups ----------------------------------------------------

    fn state_enum(&self) -> String {
        format!("{}State", self.name)
    }

    fn msg_channel(&self, decl: &MessageDecl) -> u16 {
        decl.transport
            .as_ref()
            .and_then(|t| self.spec.transports.iter().position(|d| &d.name == t))
            .unwrap_or(0) as u16
    }

    /// `(max, fail_detect)` of a declared neighbor list.
    fn list_info(&self, name: &str) -> Option<(usize, bool)> {
        self.spec.state_vars.iter().find_map(|v| match v {
            StateVar::Neighbor {
                ty,
                name: n,
                fail_detect,
            } if n == name => Some((self.spec.list_max(ty), *fail_detect)),
            _ => None,
        })
    }

    fn scalar_type(&self, name: &str) -> Option<&TypeName> {
        self.spec.state_vars.iter().find_map(|v| match v {
            StateVar::Scalar { ty, name: n } if n == name => Some(ty),
            _ => None,
        })
    }

    fn const_value(&self, name: &str) -> Option<i64> {
        self.spec
            .constants
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Constant-fold an expression (literals, constants, unary minus) —
    /// used to prove divisors non-zero at generation time.
    fn const_int(&self, e: &Expr) -> Option<i64> {
        match e {
            Expr::Int(v) => Some(*v),
            Expr::Var(n) => self.const_value(n),
            Expr::Neg(inner) => self.const_int(inner).map(|v| -v),
            _ => None,
        }
    }
}

/// API names the engine can dispatch (`DownCall` variants plus `init`).
const KNOWN_APIS: &[&str] = &[
    "init",
    "route",
    "routeIP",
    "multicast",
    "anycast",
    "collect",
    "create_group",
    "join",
    "leave",
    "downcall_ext",
];

/// APIs that bind a `group` argument.
const GROUP_APIS: &[&str] = &[
    "multicast",
    "anycast",
    "collect",
    "create_group",
    "join",
    "leave",
];

/// APIs that bind a `payload` argument.
const PAYLOAD_APIS: &[&str] = &["route", "routeIP", "multicast", "anycast", "collect"];

impl<'a> Gen<'a> {
    // ---- expression rendering -------------------------------------------
    //
    // Every render mirrors the interpreter's typed evaluators: the same
    // `Ty` per expression and coercion tables (`crate::ir::typed`), same
    // name-resolution order, both operands of a binary op always
    // evaluated (`&`/`|`, not `&&`/`||`), `neighbor_random` draws from
    // `ctx.rng` exactly when the interpreter would.

    fn expr(&self, cx: &Cx, e: &Expr) -> Result<(String, Ty), CodegenError> {
        Ok(match e {
            Expr::Int(v) => (format!("({v}i64)"), Ty::Int),
            Expr::Var(name) => self.var_expr(cx, name)?,
            Expr::Field(name) => self.field_expr(cx, name)?,
            Expr::NeighborSize(l) => {
                self.known_list(l)?;
                (format!("(self.{l}.len() as i64)"), Ty::Int)
            }
            Expr::NeighborQuery(l, inner) => {
                self.known_list(l)?;
                let (s, ty) = self.expr(cx, inner)?;
                match ty {
                    Ty::Node => (
                        format!("({s}).map_or(false, |__q| self.{l}.contains(&__q))"),
                        Ty::Bool,
                    ),
                    Ty::Null => ("false".into(), Ty::Bool),
                    other => {
                        return Err(self.err(format!(
                            "neighbor_query({l}, ..) needs a node argument, got {other:?}"
                        )))
                    }
                }
            }
            Expr::NeighborRandom(l) => {
                self.known_list(l)?;
                (
                    format!(
                        "(if self.{l}.is_empty() {{ None }} else \
                         {{ Some(self.{l}[ctx.rng.index(self.{l}.len())]) }})"
                    ),
                    Ty::Node,
                )
            }
            Expr::Rtt(inner) => {
                // Mirrors the interpreter: node → engine measurement in
                // ms, null → 0, anything else is a type error.
                let (s, ty) = self.expr(cx, inner)?;
                match ty {
                    Ty::Node => (
                        format!("(({s}).map_or(0i64, |__p| ctx.rtt_ms(__p)))"),
                        Ty::Int,
                    ),
                    Ty::Null => (format!("{{ let _ = {s}; 0i64 }}"), Ty::Int),
                    other => {
                        return Err(self.err(format!("rtt(..) needs a node, got {other:?} ({s})")))
                    }
                }
            }
            Expr::Goodput(inner) => {
                let (s, ty) = self.expr(cx, inner)?;
                match ty {
                    Ty::Node => (
                        format!("(({s}).map_or(0i64, |__p| ctx.goodput_kbps(__p)))"),
                        Ty::Int,
                    ),
                    Ty::Null => (format!("{{ let _ = {s}; 0i64 }}"), Ty::Int),
                    other => {
                        return Err(
                            self.err(format!("goodput(..) needs a node, got {other:?} ({s})"))
                        )
                    }
                }
            }
            Expr::RingDist(a, b) => (
                format!(
                    "key::dsl_ring_dist({}, {})",
                    self.key_opt(cx, a)?,
                    self.key_opt(cx, b)?
                ),
                Ty::Int,
            ),
            Expr::RingBetween(x, lo, hi) => (
                format!(
                    "key::dsl_ring_between({}, {}, {})",
                    self.key_opt(cx, x)?,
                    self.key_opt(cx, lo)?,
                    self.key_opt(cx, hi)?
                ),
                Ty::Bool,
            ),
            Expr::Digit(k, i, base) => (
                format!(
                    "key::dsl_digit({}, {}, {})",
                    self.key_opt(cx, k)?,
                    self.as_int(cx, i)?,
                    self.as_int(cx, base)?
                ),
                Ty::Int,
            ),
            Expr::PrefixLen(a, b) => (
                format!(
                    "key::dsl_prefix_len({}, {})",
                    self.key_opt(cx, a)?,
                    self.key_opt(cx, b)?
                ),
                Ty::Int,
            ),
            Expr::OwnerOf(k, l) => {
                self.known_list(l)?;
                (
                    format!(
                        "key::dsl_owner_of({}, &self.{l}, ctx.addressing)",
                        self.key_opt(cx, k)?
                    ),
                    Ty::Node,
                )
            }
            Expr::Not(inner) => (format!("(!{})", self.as_bool(cx, inner)?), Ty::Bool),
            Expr::Neg(inner) => (format!("(-{})", self.as_int(cx, inner)?), Ty::Int),
            Expr::Bin(op, a, b) => self.bin_expr(cx, *op, a, b)?,
        })
    }

    /// Render as an `Option<MacedonKey>`, the key builtins' operand
    /// coercion ([`Ty::key_opt`]): keys pass through, nodes hash under
    /// the world's addressing mode, ints truncate onto the ring, null
    /// stays null.
    fn key_opt(&self, cx: &Cx, e: &Expr) -> Result<String, CodegenError> {
        let (s, ty) = self.expr(cx, e)?;
        match ty.key_opt() {
            Some(KeyOptFrom::Key) => Ok(format!("Some({s})")),
            Some(KeyOptFrom::Node) => Ok(format!(
                "({s}).map(|__n| MacedonKey::of_node(__n, ctx.addressing))"
            )),
            Some(KeyOptFrom::Int) => Ok(format!("Some(MacedonKey(({s}) as u32))")),
            Some(KeyOptFrom::Null) => Ok(format!("{{ let _ = {s}; None::<MacedonKey> }}")),
            None => Err(self.err(format!("expected key, got {ty:?} ({s})"))),
        }
    }

    fn known_list(&self, l: &str) -> Result<(), CodegenError> {
        if self.list_info(l).is_none() {
            return Err(self.err(format!("unknown neighbor list '{l}'")));
        }
        Ok(())
    }

    fn var_expr(&self, cx: &Cx, name: &str) -> Result<(String, Ty), CodegenError> {
        // Builtins first — the interpreter's resolution order.
        match name {
            "from" => {
                return Ok(if cx.has_from {
                    ("Some(from)".into(), Ty::Node)
                } else {
                    ("None::<NodeId>".into(), Ty::Node)
                })
            }
            "me" => return Ok(("Some(ctx.me)".into(), Ty::Node)),
            "my_key" => return Ok(("ctx.my_key".into(), Ty::Key)),
            "bootstrap" => return Ok(("self.bootstrap".into(), Ty::Node)),
            "payload" => {
                return Ok(match cx.api {
                    Some(api) if PAYLOAD_APIS.contains(&api) => {
                        ("payload.clone()".into(), Ty::Payload)
                    }
                    _ => ("Bytes::new()".into(), Ty::Payload),
                })
            }
            "null" => return Ok(("None::<NodeId>".into(), Ty::Null)),
            "true" => return Ok(("true".into(), Ty::Bool)),
            "false" => return Ok(("false".into(), Ty::Bool)),
            "dest" => match cx.api {
                Some("route") => return Ok(("dest".into(), Ty::Key)),
                Some("routeIP") => return Ok(("Some(dest)".into(), Ty::Node)),
                _ => {}
            },
            "group" => {
                if matches!(cx.api, Some(api) if GROUP_APIS.contains(&api)) {
                    return Ok(("group".into(), Ty::Key));
                }
            }
            _ => {}
        }
        // Foreach variables shadow state (the interpreter writes them
        // into the same variable map).
        if cx.fe.iter().rev().any(|v| v == name) {
            return Ok((format!("Some(fe_{name})"), Ty::Node));
        }
        if self.const_value(name).is_some() {
            return Ok((name.to_string(), Ty::Int));
        }
        if let Some(ty) = self.scalar_type(name) {
            return Ok(match ty {
                TypeName::Int => (format!("self.{name}"), Ty::Int),
                TypeName::Bool => (format!("self.{name}"), Ty::Bool),
                TypeName::Node => (format!("self.{name}"), Ty::Node),
                TypeName::Key => (format!("self.{name}"), Ty::Key),
                TypeName::Payload => (format!("self.{name}.clone()"), Ty::Payload),
                TypeName::Neighbor(_) => unreachable!("rejected in preflight"),
            });
        }
        if self.list_info(name).is_some() {
            return Ok((format!("self.{name}"), Ty::List));
        }
        // `dest`/`group` outside an API binding fall back to null, as in
        // the interpreter.
        if name == "dest" || name == "group" {
            return Ok(("None::<NodeId>".into(), Ty::Null));
        }
        Err(self.err(format!("unknown variable '{name}'")))
    }

    fn field_expr(&self, cx: &Cx, name: &str) -> Result<(String, Ty), CodegenError> {
        let Some(decl) = cx.msg else {
            return Err(self.err(format!("field({name}) outside a recv/forward transition")));
        };
        let Some(f) = decl.fields.iter().find(|f| f.name == name) else {
            return Err(self.err(format!("message '{}' has no field '{name}'", decl.name)));
        };
        Ok(match &f.ty {
            TypeName::Int => (format!("m.{name}"), Ty::Int),
            TypeName::Bool => (format!("m.{name}"), Ty::Bool),
            TypeName::Node => (format!("m.{name}"), Ty::Node),
            TypeName::Key => (format!("m.{name}"), Ty::Key),
            TypeName::Payload => (format!("m.{name}.clone()"), Ty::Payload),
            TypeName::Neighbor(_) => (format!("m.{name}"), Ty::List),
        })
    }

    fn bin_expr(
        &self,
        cx: &Cx,
        op: BinOp,
        a: &Expr,
        b: &Expr,
    ) -> Result<(String, Ty), CodegenError> {
        Ok(match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                // Key ± int wraps on the 2^32 ring (the interpreter's
                // `dsl_key_add` arm for Chord's `my_key + pow2`).
                if op != BinOp::Mul {
                    let (sa, ta) = self.expr(cx, a)?;
                    if ta == Ty::Key {
                        let off = self.as_int(cx, b)?;
                        let signed = if op == BinOp::Add {
                            off
                        } else {
                            format!("-({off})")
                        };
                        return Ok((format!("key::dsl_key_add({sa}, {signed})"), Ty::Key));
                    }
                }
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    _ => "*",
                };
                (
                    format!("({} {sym} {})", self.as_int(cx, a)?, self.as_int(cx, b)?),
                    Ty::Int,
                )
            }
            BinOp::Div | BinOp::Mod => {
                let sym = if op == BinOp::Div { "/" } else { "%" };
                match self.const_int(b) {
                    Some(0) => return Err(self.err("division by constant zero")),
                    Some(_) => (
                        format!("({} {sym} {})", self.as_int(cx, a)?, self.as_int(cx, b)?),
                        Ty::Int,
                    ),
                    None => {
                        return Err(self.err(
                            "division/modulo by a non-constant divisor is not supported by \
                             codegen (the interpreter would fault at runtime on zero)",
                        ))
                    }
                }
            }
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => {
                let sym = match op {
                    BinOp::Lt => "<",
                    BinOp::Gt => ">",
                    BinOp::Le => "<=",
                    _ => ">=",
                };
                (
                    format!("({} {sym} {})", self.as_int(cx, a)?, self.as_int(cx, b)?),
                    Ty::Bool,
                )
            }
            // The interpreter evaluates both operands before testing
            // truthiness, so the generated operators are the eager `&`/`|`.
            BinOp::And => (
                format!("({} & {})", self.as_bool(cx, a)?, self.as_bool(cx, b)?),
                Ty::Bool,
            ),
            BinOp::Or => (
                format!("({} | {})", self.as_bool(cx, a)?, self.as_bool(cx, b)?),
                Ty::Bool,
            ),
            BinOp::Eq => (self.eq_expr(cx, a, b, false)?, Ty::Bool),
            BinOp::Ne => (self.eq_expr(cx, a, b, true)?, Ty::Bool),
        })
    }

    /// Equality per [`Ty::eq_case`]: int/bool compare by truthiness,
    /// node and key compare by raw id, null equals only null.
    fn eq_expr(&self, cx: &Cx, a: &Expr, b: &Expr, negate: bool) -> Result<String, CodegenError> {
        let (sa, ta) = self.expr(cx, a)?;
        let (sb, tb) = self.expr(cx, b)?;
        let eq = match Ty::eq_case(ta, tb) {
            EqCase::Same if ta == Ty::Null => "true".to_string(),
            EqCase::Same if ta != Ty::List => format!("({sa} == {sb})"),
            EqCase::IntBool => format!("(({sa} != 0) == {sb})"),
            EqCase::BoolInt => format!("({sa} == ({sb} != 0))"),
            EqCase::NodeNull => format!("({sa}).is_none()"),
            EqCase::NullNode => format!("({sb}).is_none()"),
            EqCase::KeyNode => {
                format!("(match ({sa}, {sb}) {{ (__k, Some(__n)) => __n.0 == __k.0, _ => false }})")
            }
            EqCase::NodeKey => {
                format!("(match ({sa}, {sb}) {{ (Some(__n), __k) => __n.0 == __k.0, _ => false }})")
            }
            EqCase::PayloadNull | EqCase::NullPayload => {
                // A generated payload is never null, so never equal to
                // `null` — even when empty.
                format!("{{ let _ = ({sa}, {sb}); false }}")
            }
            EqCase::Same | EqCase::Unrelated => {
                return Err(self.err(format!(
                    "cannot compare {ta:?} with {tb:?} (no equality case)"
                )))
            }
        };
        Ok(if negate { format!("(!{eq})") } else { eq })
    }

    fn as_int(&self, cx: &Cx, e: &Expr) -> Result<String, CodegenError> {
        let (s, ty) = self.expr(cx, e)?;
        match ty.as_int() {
            Some(IntFrom::Int) => Ok(s),
            Some(IntFrom::Bool) => Ok(format!("({s} as i64)")),
            None => Err(self.err(format!("expected int, got {ty:?} ({s})"))),
        }
    }

    fn as_bool(&self, cx: &Cx, e: &Expr) -> Result<String, CodegenError> {
        let (s, ty) = self.expr(cx, e)?;
        Ok(self.truthy_of(&s, ty))
    }

    /// Truthiness of a rendered value ([`Ty::truthiness`]).
    fn truthy_of(&self, s: &str, ty: Ty) -> String {
        match ty.truthiness() {
            Truth::Int => format!("({s} != 0)"),
            Truth::Bool => s.to_string(),
            Truth::Node => format!("({s}).is_some()"),
            Truth::Always => format!("{{ let _ = &{s}; true }}"),
            Truth::Payload => format!("(!({s}).is_empty())"),
            Truth::Never => format!("{{ let _ = {s}; false }}"),
        }
    }

    /// Render as an `Option<NodeId>` value.
    fn as_node(&self, cx: &Cx, e: &Expr) -> Result<String, CodegenError> {
        let (s, ty) = self.expr(cx, e)?;
        match ty {
            Ty::Node | Ty::Null => Ok(s),
            other => Err(self.err(format!("expected node, got {other:?} ({s})"))),
        }
    }

    /// The abort-transition snippet for runtime faults (the interpreter
    /// traces the error and unwinds the transition).
    fn bail(&self, cx: &Cx) -> String {
        format!(
            "{{ ctx.trace(TraceLevel::Low, \"{}: runtime error: null where a value is \
             required\"); {} }}",
            self.spec.name, cx.ret
        )
    }
}

impl<'a> Gen<'a> {
    // ---- statement emission ---------------------------------------------

    fn timer_id(&self, name: &str) -> Result<(u16, String), CodegenError> {
        self.spec
            .timer_decls()
            .position(|(n, _)| n == name)
            .map(|i| (i as u16, format!("TIMER_{}", name.to_uppercase())))
            .ok_or_else(|| self.err(format!("unknown timer '{name}'")))
    }

    fn body(
        &self,
        out: &mut String,
        ind: usize,
        cx: &mut Cx<'a>,
        stmts: &[Stmt],
    ) -> Result<(), CodegenError> {
        for s in stmts {
            self.stmt(out, ind, cx, s)?;
        }
        Ok(())
    }

    fn stmt(
        &self,
        out: &mut String,
        ind: usize,
        cx: &mut Cx<'a>,
        s: &Stmt,
    ) -> Result<(), CodegenError> {
        let p = " ".repeat(ind);
        match s {
            Stmt::If { cond, then, els } => {
                let c = self.as_bool(cx, cond)?;
                let _ = writeln!(out, "{p}if {c} {{");
                self.body(out, ind + 4, cx, then)?;
                if els.is_empty() {
                    let _ = writeln!(out, "{p}}}");
                } else {
                    let _ = writeln!(out, "{p}}} else {{");
                    self.body(out, ind + 4, cx, els)?;
                    let _ = writeln!(out, "{p}}}");
                }
            }
            Stmt::Return => {
                let _ = writeln!(out, "{p}{}", cx.ret);
            }
            Stmt::Quash => {
                let _ = writeln!(out, "{p}quash = true;");
            }
            Stmt::StateChange(st) => {
                let variant = if st == "init" {
                    "Init".to_string()
                } else {
                    camel(st)
                };
                // Mirror the interpreter: record the FSM edge before the
                // assignment so both back ends trace identical streams.
                let _ = writeln!(out, "{p}ctx.trace_fsm(self.state_name(), \"{st}\");");
                let _ = writeln!(out, "{p}self.state = {}::{variant};", self.state_enum());
            }
            Stmt::TimerResched(name, e) => {
                let (_, cname) = self.timer_id(name)?;
                let ms = self.as_int(cx, e)?;
                let _ = writeln!(
                    out,
                    "{p}ctx.timer_set({cname}, Duration::from_millis(({ms}).max(0) as u64));"
                );
            }
            Stmt::TimerCancel(name) => {
                let (_, cname) = self.timer_id(name)?;
                let _ = writeln!(out, "{p}ctx.timer_cancel({cname});");
            }
            Stmt::NeighborAdd(l, e) => {
                let (max, fd) = self
                    .list_info(l)
                    .ok_or_else(|| self.err(format!("unknown neighbor list '{l}'")))?;
                let n = self.as_node(cx, e)?;
                let _ = writeln!(out, "{p}if let Some(__n) = {n} {{");
                let _ = writeln!(
                    out,
                    "{p}    if !self.{l}.contains(&__n) && self.{l}.len() < {max}usize {{"
                );
                let _ = writeln!(out, "{p}        self.{l}.push(__n);");
                if fd {
                    let _ = writeln!(out, "{p}        ctx.monitor(__n);");
                }
                let _ = writeln!(out, "{p}    }}");
                let _ = writeln!(out, "{p}}} else {}", self.bail(cx));
            }
            Stmt::NeighborRemove(l, e) => {
                let (_, fd) = self
                    .list_info(l)
                    .ok_or_else(|| self.err(format!("unknown neighbor list '{l}'")))?;
                let n = self.as_node(cx, e)?;
                let _ = writeln!(out, "{p}if let Some(__n) = {n} {{");
                let _ = writeln!(out, "{p}    self.{l}.retain(|&__x| __x != __n);");
                if fd {
                    let _ = writeln!(out, "{p}    ctx.unmonitor(__n);");
                }
                let _ = writeln!(out, "{p}}} else {}", self.bail(cx));
            }
            Stmt::NeighborClear(l) => {
                let (_, fd) = self
                    .list_info(l)
                    .ok_or_else(|| self.err(format!("unknown neighbor list '{l}'")))?;
                if fd {
                    let _ = writeln!(out, "{p}for __n in self.{l}.drain(..) {{");
                    let _ = writeln!(out, "{p}    ctx.unmonitor(__n);");
                    let _ = writeln!(out, "{p}}}");
                } else {
                    let _ = writeln!(out, "{p}self.{l}.clear();");
                }
            }
            Stmt::Send {
                message,
                dest,
                args,
            } => self.emit_send(out, ind, cx, message, dest, args)?,
            Stmt::UpcallNotify(l, e) => {
                self.known_list(l)?;
                let t = self.as_int(cx, e)?;
                let _ = writeln!(out, "{p}{{");
                let _ = writeln!(out, "{p}    let __t = {t};");
                let _ = writeln!(
                    out,
                    "{p}    ctx.up(UpCall::Notify {{ nbr_type: __t as u32, neighbors: \
                     self.{l}.clone() }});"
                );
                let _ = writeln!(out, "{p}}}");
            }
            Stmt::Deliver { src, payload } => {
                let _ = writeln!(out, "{p}{{");
                self.emit_key_let(out, ind + 4, cx, "__src", src)?;
                let pl = self.payload_value(cx, payload)?;
                let _ = writeln!(out, "{p}    let __pl = {pl};");
                let from = if cx.has_from { "from" } else { "ctx.me" };
                let _ = writeln!(
                    out,
                    "{p}    ctx.up(UpCall::Deliver {{ src: __src, from: {from}, payload: __pl \
                     }});"
                );
                let _ = writeln!(out, "{p}}}");
            }
            Stmt::Monitor(e) => {
                let n = self.as_node(cx, e)?;
                let _ = writeln!(out, "{p}if let Some(__n) = {n} {{");
                let _ = writeln!(out, "{p}    ctx.monitor(__n);");
                let _ = writeln!(out, "{p}}} else {}", self.bail(cx));
            }
            Stmt::Unmonitor(e) => {
                let n = self.as_node(cx, e)?;
                let _ = writeln!(out, "{p}if let Some(__n) = {n} {{");
                let _ = writeln!(out, "{p}    ctx.unmonitor(__n);");
                let _ = writeln!(out, "{p}}} else {}", self.bail(cx));
            }
            Stmt::ForEach { var, list, body } => {
                self.known_list(list)?;
                let _ = writeln!(out, "{p}for fe_{var} in self.{list}.clone() {{");
                cx.fe.push(var.clone());
                self.body(out, ind + 4, cx, body)?;
                cx.fe.pop();
                let _ = writeln!(out, "{p}}}");
            }
            Stmt::Assign(name, e) => self.emit_assign(out, ind, cx, name, e)?,
            Stmt::Trace(e) => {
                let (v, _ty) = self.expr(cx, e)?;
                let _ = writeln!(
                    out,
                    "{p}ctx.trace(TraceLevel::Med, format!(\"{}: trace {{:?}}\", {v}));",
                    self.spec.name
                );
            }
            Stmt::DownCallApi { api, args } => self.emit_downcall(out, ind, cx, api, args)?,
        }
        Ok(())
    }

    /// `let {tmp} = <key value>;` with the interpreter's key coercion
    /// (node → key by raw id, null → transition abort).
    fn emit_key_let(
        &self,
        out: &mut String,
        ind: usize,
        cx: &Cx,
        tmp: &str,
        e: &Expr,
    ) -> Result<(), CodegenError> {
        let p = " ".repeat(ind);
        let (s, ty) = self.expr(cx, e)?;
        match ty {
            Ty::Key => {
                let _ = writeln!(out, "{p}let {tmp} = {s};");
            }
            Ty::Node => {
                let _ = writeln!(out, "{p}let Some(__kn) = {s} else {};", self.bail(cx));
                let _ = writeln!(out, "{p}let {tmp} = MacedonKey(__kn.0);");
            }
            Ty::Null => {
                // Statically null where a key is required: the interpreter
                // would fault at runtime; surface it at generation time.
                return Err(self.err("null where a key is required"));
            }
            other => return Err(self.err(format!("expected key, got {other:?} ({s})"))),
        }
        Ok(())
    }

    /// Render a payload-typed value (`Bytes`); null becomes the empty
    /// payload, as in `build_downcall`'s `as_payload`.
    fn payload_value(&self, cx: &Cx, e: &Expr) -> Result<String, CodegenError> {
        let (s, ty) = self.expr(cx, e)?;
        match ty {
            Ty::Payload => Ok(s),
            Ty::Null => Ok(format!("{{ let _ = {s}; Bytes::new() }}")),
            other => Err(self.err(format!("expected payload, got {other:?} ({s})"))),
        }
    }

    fn emit_assign(
        &self,
        out: &mut String,
        ind: usize,
        cx: &Cx,
        name: &str,
        e: &Expr,
    ) -> Result<(), CodegenError> {
        let p = " ".repeat(ind);
        if let Some((max, fd)) = self.list_info(name) {
            // Whole-list assignment: filter self, truncate to capacity,
            // swap failure-detector registrations — `interp`'s exact
            // sequence.
            let (s, ty) = self.expr(cx, e)?;
            if ty != Ty::List {
                return Err(self.err(format!(
                    "assigning non-list {ty:?} to neighbor list '{name}'"
                )));
            }
            let _ = writeln!(out, "{p}{{");
            let _ = writeln!(out, "{p}    let mut __ns: Vec<NodeId> = {s}.clone();");
            let _ = writeln!(out, "{p}    __ns.retain(|&__n| __n != ctx.me);");
            let _ = writeln!(out, "{p}    __ns.truncate({max}usize);");
            if fd {
                let _ = writeln!(out, "{p}    for __n in self.{name}.iter() {{");
                let _ = writeln!(out, "{p}        ctx.unmonitor(*__n);");
                let _ = writeln!(out, "{p}    }}");
                let _ = writeln!(out, "{p}    for __n in __ns.iter() {{");
                let _ = writeln!(out, "{p}        ctx.monitor(*__n);");
                let _ = writeln!(out, "{p}    }}");
            }
            let _ = writeln!(out, "{p}    self.{name} = __ns;");
            let _ = writeln!(out, "{p}}}");
            return Ok(());
        }
        let Some(decl_ty) = self.scalar_type(name) else {
            return Err(self.err(format!("assignment to undeclared variable '{name}'")));
        };
        let (s, ty) = self.expr(cx, e)?;
        let rhs = match (decl_ty, ty) {
            (TypeName::Int, Ty::Int) | (TypeName::Bool, Ty::Bool) => s,
            (TypeName::Int, Ty::Bool) => format!("({s} as i64)"),
            (TypeName::Node, Ty::Node) | (TypeName::Node, Ty::Null) => s,
            (TypeName::Key, Ty::Key) => s,
            (TypeName::Payload, Ty::Payload) => s,
            (TypeName::Payload, Ty::Null) => format!("{{ let _ = {s}; Bytes::new() }}"),
            (dt, et) => {
                return Err(self.err(format!(
                    "cannot assign {et:?} value to '{name}' of declared type {dt:?}"
                )))
            }
        };
        let _ = writeln!(out, "{p}self.{name} = {rhs};");
        Ok(())
    }

    fn emit_downcall(
        &self,
        out: &mut String,
        ind: usize,
        cx: &Cx,
        api: &str,
        args: &[Expr],
    ) -> Result<(), CodegenError> {
        let p = " ".repeat(ind);
        let _ = writeln!(out, "{p}{{");
        match api {
            "join" | "leave" | "create_group" => {
                self.emit_key_let(out, ind + 4, cx, "__g", &args[0])?;
                let variant = match api {
                    "join" => "Join",
                    "leave" => "Leave",
                    _ => "CreateGroup",
                };
                let _ = writeln!(
                    out,
                    "{p}    ctx.down(DownCall::{variant} {{ group: __g }});"
                );
            }
            "multicast" | "anycast" | "collect" => {
                self.emit_key_let(out, ind + 4, cx, "__g", &args[0])?;
                let pl = self.payload_value(cx, &args[1])?;
                let _ = writeln!(out, "{p}    let __pl = {pl};");
                let variant = match api {
                    "multicast" => "Multicast",
                    "anycast" => "Anycast",
                    _ => "Collect",
                };
                let _ = writeln!(
                    out,
                    "{p}    ctx.down(DownCall::{variant} {{ group: __g, payload: __pl, \
                     priority: DEFAULT_PRIORITY }});"
                );
            }
            "route" => {
                self.emit_key_let(out, ind + 4, cx, "__d", &args[0])?;
                let pl = self.payload_value(cx, &args[1])?;
                let _ = writeln!(out, "{p}    let __pl = {pl};");
                let _ = writeln!(
                    out,
                    "{p}    ctx.down(DownCall::Route {{ dest: __d, payload: __pl, priority: \
                     DEFAULT_PRIORITY }});"
                );
            }
            "routeIP" => {
                let d = self.as_node(cx, &args[0])?;
                let _ = writeln!(out, "{p}    let Some(__d) = {d} else {};", self.bail(cx));
                let pl = self.payload_value(cx, &args[1])?;
                let _ = writeln!(out, "{p}    let __pl = {pl};");
                let _ = writeln!(
                    out,
                    "{p}    ctx.down(DownCall::RouteIp {{ dest: __d, payload: __pl, priority: \
                     DEFAULT_PRIORITY }});"
                );
            }
            other => return Err(self.err(format!("unknown downcall API '{other}'"))),
        }
        let _ = writeln!(out, "{p}}}");
        Ok(())
    }
}

impl<'a> Gen<'a> {
    // ---- the transmission primitive -------------------------------------

    /// Key-field option chain used for routing decisions: the first key
    /// field of the message carrying a usable value (`interp`'s
    /// `key_of`). Returns `(options, first_is_terminal)`.
    fn key_field_opts(&self, decl: &MessageDecl, arg_tys: &[Ty]) -> (Vec<String>, bool) {
        let mut opts = Vec::new();
        let mut first_terminal = false;
        for (i, f) in decl.fields.iter().enumerate() {
            if f.ty != TypeName::Key {
                continue;
            }
            match arg_tys[i] {
                Ty::Key => {
                    if opts.is_empty() {
                        first_terminal = true;
                    }
                    opts.push(format!("Some(__a{i})"));
                    break; // unconditionally matches; later fields unreachable
                }
                Ty::Node => opts.push(format!("__a{i}.map(|__n| MacedonKey(__n.0))")),
                _ => {} // null/other: key_of skips it
            }
        }
        (opts, first_terminal)
    }

    fn emit_send(
        &self,
        out: &mut String,
        ind: usize,
        cx: &Cx,
        message: &str,
        dest: &Expr,
        args: &[Expr],
    ) -> Result<(), CodegenError> {
        let decl = self
            .spec
            .message(message)
            .ok_or_else(|| self.err(format!("unknown message '{message}'")))?;
        let ch = self.msg_channel(decl);
        if args.len() != decl.fields.len() {
            return Err(self.err(format!(
                "message '{message}' takes {} argument(s), got {}",
                decl.fields.len(),
                args.len()
            )));
        }
        let p = " ".repeat(ind);
        let q = " ".repeat(ind + 4);
        let _ = writeln!(out, "{p}{{");

        // Evaluation order is the interpreter's: destination first, then
        // every field argument, then encoding, then the dispatch decision.
        let (ds, dty) = self.expr(cx, dest)?;
        let _ = writeln!(out, "{q}let __dest = {ds};");
        let mut arg_tys = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let (s, ty) = self.expr(cx, a)?;
            if ty == Ty::List {
                let _ = writeln!(out, "{q}let __a{i} = &{s};");
            } else {
                let _ = writeln!(out, "{q}let __a{i} = {s};");
            }
            arg_tys.push(ty);
        }
        let _ = writeln!(out, "{q}let mut __w = WireWriter::new();");
        let _ = writeln!(
            out,
            "{q}__w.u16(PROTOCOL_ID).u16(MSG_{});",
            message.to_uppercase()
        );
        for (i, f) in decl.fields.iter().enumerate() {
            let at = arg_tys[i];
            match (&f.ty, at) {
                (TypeName::Int, Ty::Int) => {
                    let _ = writeln!(out, "{q}__w.u64(__a{i} as u64);");
                }
                (TypeName::Int, Ty::Bool) => {
                    let _ = writeln!(out, "{q}__w.u64((__a{i} as i64) as u64);");
                }
                (TypeName::Bool, _) => {
                    let t = self.truthy_of(&format!("__a{i}"), at);
                    let _ = writeln!(out, "{q}__w.u8(({t}) as u8);");
                }
                (TypeName::Node, Ty::Node) | (TypeName::Node, Ty::Null) => {
                    let _ = writeln!(out, "{q}__w.node(__a{i}.unwrap_or(NodeId(u32::MAX)));");
                }
                (TypeName::Key, Ty::Key) => {
                    let _ = writeln!(out, "{q}__w.key(__a{i});");
                }
                (TypeName::Key, Ty::Node) => {
                    let _ = writeln!(out, "{q}let Some(__kn{i}) = __a{i} else {};", self.bail(cx));
                    let _ = writeln!(out, "{q}__w.key(MacedonKey(__kn{i}.0));");
                }
                (TypeName::Payload, Ty::Payload) => {
                    let _ = writeln!(out, "{q}__w.bytes(&__a{i});");
                }
                (TypeName::Payload, Ty::Null) => {
                    let _ = writeln!(out, "{q}__w.bytes(&[]);");
                }
                (TypeName::Neighbor(_), Ty::List) => {
                    let _ = writeln!(out, "{q}__w.nodes(__a{i});");
                }
                (ft, at) => {
                    return Err(self.err(format!(
                        "message '{message}' field '{}': cannot encode {at:?} as {ft:?}",
                        f.name
                    )))
                }
            }
        }
        let _ = writeln!(out, "{q}let __bytes = __w.finish();");

        if self.layered {
            self.emit_layered_dispatch(out, ind + 4, cx, decl, &arg_tys, dty)?;
        } else {
            self.emit_wire_dispatch(out, ind + 4, cx, decl, &arg_tys, dty, ch)?;
        }
        let _ = writeln!(out, "{p}}}");
        Ok(())
    }

    /// Layered specs never touch the wire: a node destination is a
    /// direct `routeIP`, `null` routes toward the message's first key
    /// field, a key destination routes outright.
    fn emit_layered_dispatch(
        &self,
        out: &mut String,
        ind: usize,
        cx: &Cx,
        decl: &MessageDecl,
        arg_tys: &[Ty],
        dty: Ty,
    ) -> Result<(), CodegenError> {
        let p = " ".repeat(ind);
        let message = &decl.name;
        let prio = format!("PRIO_{}", message.to_uppercase());
        match dty {
            Ty::Key => {
                let _ = writeln!(
                    out,
                    "{p}ctx.down(DownCall::Route {{ dest: __dest, payload: __bytes, priority: \
                     {prio} }});"
                );
                Ok(())
            }
            Ty::Node | Ty::Null => {
                let (opts, terminal) = self.key_field_opts(decl, arg_tys);
                let _ = writeln!(out, "{p}match __dest {{");
                let _ = writeln!(
                    out,
                    "{p}    Some(__d) => ctx.down(DownCall::RouteIp {{ dest: __d, payload: \
                     __bytes, priority: {prio} }}),"
                );
                let _ = writeln!(out, "{p}    None => {{");
                if opts.is_empty() {
                    if dty == Ty::Null {
                        return Err(self.err(format!(
                            "message '{message}': null destination needs a key field to route \
                             toward"
                        )));
                    }
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
                Ok(())
            }
            other => Err(self.err(format!(
                "message '{message}': destination must be node/key, got {other:?}"
            ))),
        }
    }

    /// Lowest-layer dispatch: direct transmission, except that a send
    /// carrying tunneled upper-layer data is first vetted through the
    /// engine's forward query when layers are stacked above.
    #[allow(clippy::too_many_arguments)]
    fn emit_wire_dispatch(
        &self,
        out: &mut String,
        ind: usize,
        cx: &Cx,
        decl: &MessageDecl,
        arg_tys: &[Ty],
        dty: Ty,
        ch: u16,
    ) -> Result<(), CodegenError> {
        let p = " ".repeat(ind);
        let message = &decl.name;
        if !matches!(dty, Ty::Node | Ty::Null) {
            return Err(self.err(format!(
                "message '{message}': destination must be a node, got {dty:?}"
            )));
        }
        // Sending to null is a no-op (after evaluating everything).
        let _ = writeln!(out, "{p}if let Some(__d) = __dest {{");
        let payload_args: Vec<usize> = decl
            .fields
            .iter()
            .enumerate()
            .filter(|(i, f)| f.ty == TypeName::Payload && arg_tys[*i] == Ty::Payload)
            .map(|(i, _)| i)
            .collect();
        if payload_args.is_empty() {
            let _ = writeln!(out, "{p}    ctx.send(__d, ChannelId({ch}), __bytes);");
        } else {
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
            let (opts, terminal) = self.key_field_opts(decl, arg_tys);
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
        }
        let _ = writeln!(out, "{p}}}");
        Ok(())
    }
}

impl<'a> Gen<'a> {
    // ---- transition handlers --------------------------------------------

    /// A transition scope as a Rust condition over the state enum.
    fn scope_cond(&self, s: &StateExpr) -> String {
        match s {
            StateExpr::Any => "true".into(),
            StateExpr::Is(n) => {
                let variant = if n == "init" { "Init".into() } else { camel(n) };
                format!("self.state == {}::{variant}", self.state_enum())
            }
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
        cx_proto: &Cx<'a>,
        arms: &[&'a Transition],
    ) -> Result<(), CodegenError> {
        let ret_sig = if is_forward { "-> bool " } else { "" };
        let _ = writeln!(
            out,
            "    fn {fn_name}(&mut self, ctx: &mut Ctx{params}) {ret_sig}{{"
        );
        if is_forward {
            let _ = writeln!(out, "        let mut quash = false;");
        }
        for t in arms {
            let mut cx = cx_proto.clone();
            cx.ret = if is_forward {
                "return quash;"
            } else {
                "return;"
            };
            let cond = self.scope_cond(&t.scope);
            if cond == "true" {
                // `any` matches unconditionally; later arms can never fire.
                let _ = writeln!(out, "        self.transitions_fired += 1;");
                if t.locking == LockingOpt::Read {
                    let _ = writeln!(out, "        ctx.locking_read();");
                }
                self.body(out, 8, &mut cx, &t.body)?;
                break;
            }
            let _ = writeln!(out, "        if {cond} {{");
            let _ = writeln!(out, "            self.transitions_fired += 1;");
            if t.locking == LockingOpt::Read {
                let _ = writeln!(out, "            ctx.locking_read();");
            }
            self.body(out, 12, &mut cx, &t.body)?;
            let _ = writeln!(out, "            {}", cx.ret);
            let _ = writeln!(out, "        }}");
        }
        if is_forward {
            let _ = writeln!(out, "        quash");
        }
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out);
        Ok(())
    }

    fn recv_arms(&self, msg: &str) -> Vec<&'a Transition> {
        self.spec
            .transitions
            .iter()
            .filter(|t| t.trigger == Trigger::Recv(msg.to_string()))
            .collect()
    }

    fn fwd_arms(&self, msg: &str) -> Vec<&'a Transition> {
        self.spec
            .transitions
            .iter()
            .filter(|t| t.trigger == Trigger::Forward(msg.to_string()))
            .collect()
    }

    fn api_arms(&self, api: &str) -> Vec<&'a Transition> {
        self.spec
            .transitions
            .iter()
            .filter(|t| t.trigger == Trigger::Api(api.to_string()))
            .collect()
    }

    fn timer_arms(&self, name: &str) -> Vec<&'a Transition> {
        self.spec
            .transitions
            .iter()
            .filter(|t| t.trigger == Trigger::Timer(name.to_string()))
            .collect()
    }

    fn error_arms(&self) -> Vec<&'a Transition> {
        self.spec
            .transitions
            .iter()
            .filter(|t| t.trigger == Trigger::Error)
            .collect()
    }

    /// APIs with at least one transition, in first-appearance order.
    fn handled_apis(&self) -> Vec<&'a str> {
        let mut out: Vec<&str> = Vec::new();
        for t in &self.spec.transitions {
            if let Trigger::Api(a) = &t.trigger {
                if !out.contains(&a.as_str()) {
                    out.push(a);
                }
            }
        }
        out
    }

    fn api_fn_name(api: &str) -> String {
        match api {
            "routeIP" => "t_api_routeip".into(),
            other => format!("t_api_{other}"),
        }
    }

    fn api_params(api: &str) -> &'static str {
        match api {
            "route" => ", dest: MacedonKey, payload: Bytes",
            "routeIP" => ", dest: NodeId, payload: Bytes",
            "multicast" | "anycast" | "collect" => ", group: MacedonKey, payload: Bytes",
            "join" | "leave" | "create_group" => ", group: MacedonKey",
            _ => "",
        }
    }

    /// Does this lowest-layer spec need the forward-query bookkeeping
    /// (any message that can carry tunneled upper-layer payloads)?
    fn needs_pending_fwd(&self) -> bool {
        !self.layered
            && self
                .spec
                .messages
                .iter()
                .any(|m| m.fields.iter().any(|f| f.ty == TypeName::Payload))
    }

    fn fd_lists(&self) -> Vec<&'a str> {
        self.spec
            .state_vars
            .iter()
            .filter_map(|v| match v {
                StateVar::Neighbor {
                    name,
                    fail_detect: true,
                    ..
                } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }
}

impl<'a> Gen<'a> {
    // ---- module assembly -------------------------------------------------

    fn file(&self) -> Result<String, CodegenError> {
        let mut out = String::new();
        let w = &mut out;
        let name = &self.name;
        let senum = self.state_enum();
        let spec = self.spec;

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
            "    Agent, Bytes, ChannelId, Ctx, DecodeError, DownCall, Duration, ForwardInfo,"
        );
        let _ = writeln!(
            w,
            "    MacedonKey, NodeId, ProtocolId, TraceLevel, UpCall, WireReader, WireWriter,"
        );
        let _ = writeln!(w, "    DEFAULT_PRIORITY, TUNNEL_PROTOCOL,");
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
        let _ = writeln!(w, "pub const PROTOCOL_ID: ProtocolId = {};", self.proto);
        for (i, m) in spec.messages.iter().enumerate() {
            let _ = writeln!(w, "const MSG_{}: u16 = {};", m.name.to_uppercase(), i);
        }
        if self.layered {
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
            let _ = writeln!(w, "const NUM_CHANNELS: u16 = {};", spec.transports.len());
        }
        for (i, (t, _)) in spec.timer_decls().enumerate() {
            let _ = writeln!(w, "const TIMER_{}: u16 = {};", t.to_uppercase(), i);
        }
        for (c, v) in &spec.constants {
            let _ = writeln!(w, "const {c}: i64 = {v};");
        }
        let _ = writeln!(w);

        // FSM state enum.
        let _ = writeln!(w, "/// FSM states of `{}` (`init` is implicit).", spec.name);
        let _ = writeln!(w, "#[derive(Clone, Copy, PartialEq, Eq, Debug)]");
        let _ = writeln!(w, "pub enum {senum} {{");
        let _ = writeln!(w, "    Init,");
        for s in &spec.states {
            let _ = writeln!(w, "    {},", camel(s));
        }
        let _ = writeln!(w, "}}");
        let _ = writeln!(w);

        // Message field structs + decoders (generated marshaling).
        for m in &spec.messages {
            let ms = format!("Msg{}", camel(&m.name));
            let _ = writeln!(w, "/// Decoded fields of `{}`.", m.name);
            let _ = writeln!(w, "pub struct {ms} {{");
            for f in &m.fields {
                let ty = match &f.ty {
                    TypeName::Int => "i64",
                    TypeName::Bool => "bool",
                    TypeName::Node => "Option<NodeId>",
                    TypeName::Key => "MacedonKey",
                    TypeName::Payload => "Bytes",
                    TypeName::Neighbor(_) => "Vec<NodeId>",
                };
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
                let read = match &f.ty {
                    TypeName::Int => "(r.u64()? as i64)".to_string(),
                    TypeName::Bool => "(r.u8()? != 0)".to_string(),
                    TypeName::Node => "{ let __n = r.node()?; \
                         if __n == NodeId(u32::MAX) { None } else { Some(__n) } }"
                        .to_string(),
                    TypeName::Key => "r.key()?".to_string(),
                    TypeName::Payload => "r.bytes()?".to_string(),
                    TypeName::Neighbor(_) => "r.nodes()?".to_string(),
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
        for v in &spec.state_vars {
            match v {
                StateVar::Neighbor { name: n, .. } => {
                    let _ = writeln!(w, "    {n}: Vec<NodeId>,");
                }
                StateVar::Scalar { ty, name: n } => {
                    let rust_ty = match ty {
                        TypeName::Int => "i64",
                        TypeName::Bool => "bool",
                        TypeName::Node => "Option<NodeId>",
                        TypeName::Key => "MacedonKey",
                        TypeName::Payload => "Bytes",
                        TypeName::Neighbor(_) => unreachable!("rejected in preflight"),
                    };
                    let _ = writeln!(w, "    {n}: {rust_ty},");
                }
                StateVar::Timer { .. } => {}
            }
        }
        let _ = writeln!(w, "}}");
        let _ = writeln!(w);

        self.emit_inherent_impl(w)?;
        self.emit_agent_impl(w)?;
        let _ = writeln!(w);
        let _ = writeln!(w, "}}");
        let _ = writeln!(w);
        let _ = writeln!(w, "pub use generated::*;");
        Ok(out)
    }

    fn emit_inherent_impl(&self, w: &mut String) -> Result<(), CodegenError> {
        let name = &self.name;
        let senum = self.state_enum();
        let spec = self.spec;
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
        for v in &spec.state_vars {
            match v {
                StateVar::Neighbor { name: n, .. } => {
                    let _ = writeln!(w, "            {n}: Vec::new(),");
                }
                StateVar::Scalar { ty, name: n } => {
                    let init = match ty {
                        TypeName::Int => "0",
                        TypeName::Bool => "false",
                        TypeName::Node => "None",
                        TypeName::Key => "MacedonKey(0)",
                        TypeName::Payload => "Bytes::new()",
                        TypeName::Neighbor(_) => unreachable!("rejected in preflight"),
                    };
                    let _ = writeln!(w, "            {n}: {init},");
                }
                StateVar::Timer { .. } => {}
            }
        }
        let _ = writeln!(w, "        }}");
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w);
        let _ = writeln!(w, "    /// Current FSM state name.");
        let _ = writeln!(w, "    pub fn state_name(&self) -> &'static str {{");
        let _ = writeln!(w, "        match self.state {{");
        let _ = writeln!(w, "            {senum}::Init => \"init\",");
        for s in &spec.states {
            let _ = writeln!(w, "            {senum}::{} => \"{s}\",", camel(s));
        }
        let _ = writeln!(w, "        }}");
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w);
        let _ = writeln!(w, "    /// Neighbor list contents by declared name.");
        let _ = writeln!(
            w,
            "    pub fn neighbor_list(&self, name: &str) -> Option<&[NodeId]> {{"
        );
        let lists: Vec<&str> = spec
            .state_vars
            .iter()
            .filter_map(|v| match v {
                StateVar::Neighbor { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        if lists.is_empty() {
            let _ = writeln!(w, "        let _ = name;");
            let _ = writeln!(w, "        None");
        } else {
            let _ = writeln!(w, "        match name {{");
            for l in lists {
                let _ = writeln!(w, "            \"{l}\" => Some(&self.{l}),");
            }
            let _ = writeln!(w, "            _ => None,");
            let _ = writeln!(w, "        }}");
        }
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w);

        // Transition handler functions.
        for api in self.handled_apis() {
            let arms = self.api_arms(api);
            let cx = Cx {
                api: Some(api),
                ..Cx::plain()
            };
            self.emit_transition_fn(
                w,
                &Self::api_fn_name(api),
                Self::api_params(api),
                false,
                &cx,
                &arms,
            )?;
        }
        for m in &spec.messages {
            let arms = self.recv_arms(&m.name);
            if !arms.is_empty() {
                let cx = Cx {
                    msg: Some(m),
                    has_from: true,
                    ..Cx::plain()
                };
                let params = format!(", from: NodeId, m: &Msg{}", camel(&m.name));
                self.emit_transition_fn(
                    w,
                    &format!("t_recv_{}", m.name),
                    &params,
                    false,
                    &cx,
                    &arms,
                )?;
            }
            let arms = self.fwd_arms(&m.name);
            if !arms.is_empty() {
                let cx = Cx {
                    msg: Some(m),
                    has_from: true,
                    ..Cx::plain()
                };
                let params = format!(", from: NodeId, m: &Msg{}", camel(&m.name));
                self.emit_transition_fn(
                    w,
                    &format!("t_fwd_{}", m.name),
                    &params,
                    true,
                    &cx,
                    &arms,
                )?;
            }
        }
        for (t, _) in spec.timer_decls() {
            let arms = self.timer_arms(t);
            if !arms.is_empty() {
                self.emit_transition_fn(
                    w,
                    &format!("t_timer_{t}"),
                    "",
                    false,
                    &Cx::plain(),
                    &arms,
                )?;
            }
        }
        let arms = self.error_arms();
        if !arms.is_empty() {
            let cx = Cx {
                has_from: true,
                ..Cx::plain()
            };
            self.emit_transition_fn(w, "t_error", ", from: NodeId", false, &cx, &arms)?;
        }
        let _ = writeln!(w, "}}");
        let _ = writeln!(w);
        Ok(())
    }
}

impl<'a> Gen<'a> {
    fn emit_agent_impl(&self, w: &mut String) -> Result<(), CodegenError> {
        let name = &self.name;
        let spec = self.spec;
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
        for (t, period) in spec.timer_decls() {
            if let Some(ms) = period {
                let _ = writeln!(
                    w,
                    "        ctx.timer_periodic(TIMER_{}, Duration::from_millis({}));",
                    t.to_uppercase(),
                    ms.max(0)
                );
            }
        }
        if !self.api_arms("init").is_empty() {
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
        for api in &handled {
            let fn_name = Self::api_fn_name(api);
            let arm = match *api {
                "init" => continue, // fired from Agent::init, never a DownCall
                "route" => format!(
                    "DownCall::Route {{ dest, payload, .. }} => self.{fn_name}(ctx, dest, payload),"
                ),
                "routeIP" => format!(
                    "DownCall::RouteIp {{ dest, payload, .. }} => self.{fn_name}(ctx, dest, payload),"
                ),
                "multicast" => format!(
                    "DownCall::Multicast {{ group, payload, .. }} => self.{fn_name}(ctx, group, payload),"
                ),
                "anycast" => format!(
                    "DownCall::Anycast {{ group, payload, .. }} => self.{fn_name}(ctx, group, payload),"
                ),
                "collect" => format!(
                    "DownCall::Collect {{ group, payload, .. }} => self.{fn_name}(ctx, group, payload),"
                ),
                "create_group" => format!(
                    "DownCall::CreateGroup {{ group }} => self.{fn_name}(ctx, group),"
                ),
                "join" => format!("DownCall::Join {{ group }} => self.{fn_name}(ctx, group),"),
                "leave" => format!("DownCall::Leave {{ group }} => self.{fn_name}(ctx, group),"),
                "downcall_ext" => format!("DownCall::Ext {{ .. }} => self.{fn_name}(ctx),"),
                other => return Err(self.err(format!("unknown API '{other}'"))),
            };
            let _ = writeln!(w, "            {arm}");
        }
        if self.layered {
            // Unhandled API calls fall through to the base layer.
            let _ = writeln!(w, "            __other => ctx.down(__other),");
        } else {
            if !handled.contains(&"routeIP") {
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
        if self.layered {
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
            for m in &spec.messages {
                let up = m.name.to_uppercase();
                if self.recv_arms(&m.name).is_empty() {
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
        if self.layered {
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
            for m in &spec.messages {
                let up_name = m.name.to_uppercase();
                let _ = writeln!(w, "                            MSG_{up_name} => {{");
                if self.recv_arms(&m.name).is_empty() {
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
        let fwd_msgs: Vec<&MessageDecl> = spec
            .messages
            .iter()
            .filter(|m| !self.fwd_arms(&m.name).is_empty())
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
            .timer_decls()
            .map(|(t, _)| t)
            .filter(|t| !self.timer_arms(t).is_empty())
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
        let fd = self.fd_lists();
        let has_error = !self.error_arms().is_empty();
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

        let _ = writeln!(w, "    fn as_any(&self) -> &dyn Any {{");
        let _ = writeln!(w, "        self");
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w);
        let _ = writeln!(w, "    fn as_any_mut(&mut self) -> &mut dyn Any {{");
        let _ = writeln!(w, "        self");
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w, "}}");
        Ok(())
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
/// writes them to disk, and CI's freshness gate re-runs it and fails on
/// any diff.
pub fn generate_bundled_crate() -> Result<Vec<(String, String)>, CodegenError> {
    let reg = crate::registry::SpecRegistry::bundled();
    let chain_err = |name: &str, e: crate::registry::ChainError| CodegenError {
        spec: name.to_string(),
        detail: format!("uses chain: {e}"),
    };
    let mut files = Vec::new();
    let mut names = Vec::new();
    for (name, src) in crate::bundled_specs() {
        let spec = crate::compile(src).map_err(|e| CodegenError {
            spec: name.to_string(),
            detail: format!("spec failed to compile: {e}"),
        })?;
        // Layered specs resolve their message classes against the
        // chain's lowest (tunneling) layer at generation time.
        let chain = reg.resolve_chain(name).map_err(|e| chain_err(name, e))?;
        let base = spec.uses.as_ref().map(|_| chain[0].transports.as_slice());
        files.push((format!("{name}.rs"), generate_with_base(&spec, base)?));
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
         //! `cargo run -p macedon-bench --bin regen`. CI re-runs that tool and\n\
         //! fails on `git diff crates/generated`, so hand edits and stale output\n\
         //! cannot merge.\n\
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
        let chain = reg.resolve_chain(name).map_err(|e| chain_err(name, e))?;
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
        let chain = reg.resolve_chain(name).map_err(|e| chain_err(name, e))?;
        let _ = writeln!(w, "        \"{name}\" => vec![");
        for t in &chain[0].transports {
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
    Ok(files)
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
        generate(&compile(src).unwrap()).unwrap()
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
            code.contains("self.count = (self.count + (1i64));"),
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
        let spec = compile(SRC).unwrap();
        let spec_loc = SRC.lines().filter(|l| !l.trim().is_empty()).count();
        assert!(generated_loc(&spec, None) > 3 * spec_loc);
    }

    #[test]
    fn camel_case_conversion() {
        assert_eq!(camel("overcast"), "Overcast");
        assert_eq!(camel("split_stream"), "SplitStream");
    }

    #[test]
    fn all_bundled_specs_generate() {
        for (name, src) in crate::bundled_specs() {
            let spec = compile(src).unwrap();
            if let Err(e) = generate(&spec) {
                panic!("{name}.mac no longer generates: {e}");
            }
        }
    }

    #[test]
    fn bundled_crate_has_one_module_per_spec_plus_root() {
        let files = generate_bundled_crate().unwrap();
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

    #[test]
    fn rtt_of_non_node_diagnosed() {
        let spec = compile(
            "protocol p; addressing hash; transports { TCP C; }
             messages { C ping { } }
             state_variables { int n; }
             transitions { any API init { n = rtt(n); } }",
        )
        .unwrap();
        let e = generate(&spec).unwrap_err();
        assert!(e.to_string().contains("rtt(..) needs a node"), "{e}");
    }

    #[test]
    fn non_constant_divisor_diagnosed() {
        let spec = compile(
            "protocol p; addressing ip;
             state_variables { int n; }
             transitions { any API init { n = n / n; } }",
        )
        .unwrap();
        let e = generate(&spec).unwrap_err();
        assert!(e.to_string().contains("non-constant divisor"), "{e}");
    }

    #[test]
    fn keyword_identifier_diagnosed() {
        let spec = compile(
            "protocol p; addressing ip;
             state_variables { int loop; }",
        )
        .unwrap();
        let e = generate(&spec).unwrap_err();
        assert!(e.to_string().contains("Rust keyword"), "{e}");
    }

    #[test]
    fn layered_null_dest_without_key_field_diagnosed() {
        let spec = compile(
            "protocol upper uses base; addressing hash;
             messages { hello { node who; } }
             transitions { any API init { hello(null, me); } }",
        )
        .unwrap();
        let e = generate(&spec).unwrap_err();
        assert!(e.to_string().contains("needs a key field"), "{e}");
    }
}
