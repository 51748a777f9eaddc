//! Slot-indexed, typed intermediate representation of a parsed
//! [`Spec`] — and the front end's one checker.
//!
//! Resolving every variable, list, timer, message, and field *by string
//! name* on every event would cost a `HashMap<String, Value>` lookup
//! (and often a `String` allocation) per step of every transition.
//! [`IrSpec::lower`] performs that name resolution **once per spec**,
//! and rejects the spec with a diagnostic at the first name that does
//! not resolve or is declared twice, or at the first type error (the
//! checks are listed on [`IrSpec::lower`]). Each name collapses to a
//! dense index — `u16` slots into plain `Vec`s for
//! variables, neighbor lists, timers, messages, and message fields, and
//! FSM states become indices checked against per-transition
//! [`StateMask`] bitsets. Transition dispatch becomes a per-trigger jump
//! table: `(trigger kind, id) → [(state mask, body)]` in declaration
//! order, so firing an event is an array index plus a bitmask test
//! instead of a linear scan with `String` comparisons.
//!
//! Lowering also **types** every expression ([`typed`]): each
//! name-resolved [`IrExpr`] gets its static [`Ty`] and becomes a tree
//! that evaluates at that type — an `i64`, a `bool`, an
//! `Option<NodeId>`, a key — so no value is boxed into a dynamically
//! typed variant and matched back out at run time. Variables live in
//! typed slots ([`Slots`]), and decoded message fields too.
//!
//! [`crate::compile`] is parse, then lower. One `Arc<IrSpec>` is shared
//! by every node interpreting the spec (see
//! [`crate::registry::SpecRegistry`]), and [`crate::codegen`] prints the
//! same lowered spec as Rust: one lowering serves both back ends.
//! Lowering is purely a change of representation: execution order, RNG
//! draw points, wire bytes, and engine op order are identical to the
//! AST semantics.

pub mod typed;

use crate::ast::*;
use crate::interp::protocol_id_of;
use crate::lexer::ParseError;
use macedon_core::{ChannelId, ProtocolId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
pub use typed::{
    AnyExpr, BoolExpr, IntExpr, KeyArg, KeyExpr, ListExpr, NodeExpr, PayloadExpr, SendArg,
    SendDest, Slots, Ty, Typer,
};

/// A diagnostic of the lowering. It names no source position: the AST
/// keeps none.
fn err(msg: impl Into<String>) -> ParseError {
    ParseError {
        line: 0,
        col: 0,
        msg: msg.into(),
    }
}

/// Rust keywords, which no name the code generator prints as an
/// identifier may be.
const RUST_KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "static", "struct", "super", "trait", "true", "type", "unsafe", "use",
    "where", "while", "async", "await", "box", "priv", "try", "union", "yield",
];

/// The first name that repeats an earlier one.
fn duplicate<'a>(names: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let mut seen = HashSet::new();
    names.into_iter().find(|n| !seen.insert(*n))
}

/// Set of FSM states (by index) a transition's scope admits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StateMask(u128);

impl StateMask {
    #[inline]
    pub fn contains(self, state: u16) -> bool {
        self.0 & (1u128 << state) != 0
    }
}

/// One scalar variable (constants, declared scalars, and one dedicated
/// variable per `foreach` binding site), stored in a [`Slots`] slot
/// of its type.
#[derive(Clone, Debug)]
pub struct IrVar {
    pub name: String,
    pub ty: Ty,
    /// The slot ([`Ty::Null`]: no storage).
    pub slot: u16,
    /// A constant's value (constants are never assigned).
    pub constant: Option<i64>,
}

/// One neighbor-list slot.
#[derive(Clone, Debug)]
pub struct IrList {
    pub name: String,
    pub max: usize,
    pub fail_detect: bool,
}

/// One timer slot; the slot index is the engine timer id (declaration
/// order, exactly as the AST interpreter assigned them).
#[derive(Clone, Debug)]
pub struct IrTimer {
    pub name: String,
    pub period_ms: Option<i64>,
}

/// Wire shape of one message field.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FieldKind {
    Int,
    Bool,
    Node,
    Key,
    Payload,
    Nodes,
}

impl FieldKind {
    pub fn of(ty: &TypeName) -> FieldKind {
        match ty {
            TypeName::Int => FieldKind::Int,
            TypeName::Bool => FieldKind::Bool,
            TypeName::Node => FieldKind::Node,
            TypeName::Key => FieldKind::Key,
            TypeName::Payload => FieldKind::Payload,
            TypeName::Neighbor(_) => FieldKind::Nodes,
        }
    }
}

#[derive(Clone, Debug)]
pub struct IrField {
    pub name: String,
    pub kind: FieldKind,
    /// The field's slot in a decoded frame: a [`Slots`] slot, or the
    /// index among the message's list fields for `Nodes`.
    pub at: u16,
}

/// One message declaration, field order fixed; the message id is the
/// slot index (declaration order — the wire id both back ends use).
#[derive(Clone, Debug)]
pub struct IrMessage {
    pub name: String,
    pub channel: ChannelId,
    /// Declared transport class name, as written in the spec. For
    /// layered specs this names a class of the base (tunneling) layer's
    /// table — resolved per stack by
    /// [`crate::interp::InterpretedAgent::set_base_transports`].
    pub transport: Option<String>,
    pub fields: Vec<IrField>,
}

/// A lowered transition body.
#[derive(Clone, Debug)]
pub struct IrTransition {
    /// The state scope as written (the dispatch tables hold it as a
    /// [`StateMask`]; the code generator prints it).
    pub scope: StateExpr,
    pub read_locked: bool,
    pub body: Vec<IrStmt>,
}

/// Per-trigger dispatch entries in declaration order: the first entry
/// whose mask admits the current state fires.
pub type Table = Vec<(StateMask, u16)>;

/// The MACEDON API calls a transition can be keyed on. The fixed-arity
/// `downcall(..)` surface plus `init` and the extension hook — the only
/// API triggers the engine can ever deliver (lowering rejects any other
/// API name).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ApiKind {
    Init,
    Route,
    RouteIp,
    Multicast,
    Anycast,
    Collect,
    CreateGroup,
    Join,
    Leave,
    Ext,
}

impl ApiKind {
    /// Every kind, in `ApiKind as usize` order.
    pub const ALL: [ApiKind; 10] = [
        ApiKind::Init,
        ApiKind::Route,
        ApiKind::RouteIp,
        ApiKind::Multicast,
        ApiKind::Anycast,
        ApiKind::Collect,
        ApiKind::CreateGroup,
        ApiKind::Join,
        ApiKind::Leave,
        ApiKind::Ext,
    ];

    pub fn from_name(name: &str) -> Option<ApiKind> {
        ApiKind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            ApiKind::Init => "init",
            ApiKind::Route => "route",
            ApiKind::RouteIp => "routeIP",
            ApiKind::Multicast => "multicast",
            ApiKind::Anycast => "anycast",
            ApiKind::Collect => "collect",
            ApiKind::CreateGroup => "create_group",
            ApiKind::Join => "join",
            ApiKind::Leave => "leave",
            ApiKind::Ext => "downcall_ext",
        }
    }
}

/// The jump tables: trigger → ordered dispatch entries.
#[derive(Clone, Debug)]
pub struct Tables {
    /// Indexed by message id.
    pub recv: Vec<Table>,
    /// Indexed by message id.
    pub forward: Vec<Table>,
    /// Indexed by timer id.
    pub timer: Vec<Table>,
    /// Indexed by `ApiKind as usize`.
    pub api: [Table; ApiKind::ALL.len()],
    pub error: Table,
}

/// Which API-argument binding an expression reads (`dest` / `group`),
/// with the variable slot it falls back to outside an API transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ApiArgKind {
    Dest,
    Group,
}

/// A name-resolved, untyped expression: every name is a slot. The
/// lowering's first stage; [`Typer`] turns each one into the typed tree
/// the interpreter evaluates.
#[derive(Clone, Debug)]
pub enum IrExpr {
    Int(i64),
    From,
    Me,
    MyKey,
    Bootstrap,
    Payload,
    Null,
    True,
    False,
    /// `dest` / `group`: the API-transition argument, else the variable
    /// slot of that name, else null — the builtin fallback chain.
    ApiArg {
        which: ApiArgKind,
        fallback: Option<u16>,
    },
    /// Index into [`IrSpec::vars`].
    Var(u16),
    /// A neighbor list read as a value.
    ListValue(u16),
    /// Field of the triggering message, by position.
    Field(u16),
    NeighborSize(u16),
    NeighborQuery(u16, Box<IrExpr>),
    NeighborRandom(u16),
    /// Engine-measured smoothed RTT to a peer, ms (0 = unmeasured).
    Rtt(Box<IrExpr>),
    /// Engine-measured smoothed inbound goodput from a peer, kbit/s
    /// (0 = unmeasured).
    Goodput(Box<IrExpr>),
    /// `ring_dist(a, b)` — symmetric ring distance; RING when either
    /// operand is null.
    RingDist(Box<IrExpr>, Box<IrExpr>),
    /// `ring_between(x, lo, hi)` — x ∈ (lo, hi] clockwise; false on
    /// null operands.
    RingBetween(Box<IrExpr>, Box<IrExpr>, Box<IrExpr>),
    /// `digit(key, i, base)` — radix digit of a key; 0 on null/invalid.
    Digit(Box<IrExpr>, Box<IrExpr>, Box<IrExpr>),
    /// `prefix_len(a, b)` — shared hex-digit prefix length; 0 on null.
    PrefixLen(Box<IrExpr>, Box<IrExpr>),
    /// `owner_of(key, list)` — clockwise at-or-after owner within a
    /// neighbor list; null on a null key or empty list.
    OwnerOf(Box<IrExpr>, u16),
    Not(Box<IrExpr>),
    Neg(Box<IrExpr>),
    Bin(BinOp, Box<IrExpr>, Box<IrExpr>),
}

/// Lowered `downcall(<api>, args..)` — name and arity resolved, every
/// argument typed.
#[derive(Clone, Debug)]
pub enum IrDown {
    Join(KeyArg),
    Leave(KeyArg),
    CreateGroup(KeyArg),
    Multicast(KeyArg, PayloadExpr),
    Anycast(KeyArg, PayloadExpr),
    Collect(KeyArg, PayloadExpr),
    Route(KeyArg, PayloadExpr),
    RouteIp(NodeExpr, PayloadExpr),
}

/// Lowered statement: every name is a slot, every expression typed.
/// The slot of a typed assignment or a `foreach` binding indexes the
/// [`Slots`] slot of its type.
#[derive(Clone, Debug)]
pub enum IrStmt {
    If {
        cond: BoolExpr,
        then: Vec<IrStmt>,
        els: Vec<IrStmt>,
    },
    Return,
    StateChange(u16),
    TimerResched(u16, IntExpr),
    TimerCancel(u16),
    NeighborAdd(u16, NodeExpr),
    NeighborRemove(u16, NodeExpr),
    NeighborClear(u16),
    /// Encoded argument by argument into the wire frame.
    Send {
        msg: u16,
        dest: SendDest,
        args: Vec<SendArg>,
    },
    Quash,
    DownCall(IrDown),
    UpcallNotify(u16, IntExpr),
    Deliver {
        src: KeyArg,
        payload: PayloadExpr,
    },
    Monitor(NodeExpr),
    Unmonitor(NodeExpr),
    /// `var` is a node slot.
    ForEach {
        var: u16,
        list: u16,
        body: Vec<IrStmt>,
    },
    AssignInt(u16, IntExpr),
    AssignBool(u16, BoolExpr),
    AssignNode(u16, NodeExpr),
    AssignKey(u16, KeyExpr),
    AssignPayload(u16, PayloadExpr),
    AssignList(u16, ListExpr),
    /// `list = field(f);` where the field is read exactly once in the
    /// body: the decoded list is moved out of the frame instead of
    /// copied. Emitted by the lowering's single-use analysis; never
    /// inside a `foreach`.
    AssignListTakeField(u16, u16),
    Trace(AnyExpr),
}

/// A fully lowered specification, shared (`Arc`) by every interpreting
/// node.
#[derive(Clone, Debug)]
pub struct IrSpec {
    /// The parsed spec this was lowered from (its transports, trace
    /// mode and constants as written).
    pub spec: Arc<Spec>,
    pub name: String,
    pub uses: Option<String>,
    pub proto: ProtocolId,
    pub layered: bool,
    /// State names; index 0 is the implicit `init`.
    pub states: Vec<String>,
    /// Number of transport channels this spec declares (a lowest
    /// layer's channel-table size; `0` for layered specs). Bounds the
    /// `priority` values the engine-served `routeIP` tunnel honors.
    pub num_channels: u16,
    pub vars: Vec<IrVar>,
    /// Initial image of the typed variable slots (constants hold their
    /// values, everything else its type's default).
    pub slots: Slots,
    pub lists: Vec<IrList>,
    pub timers: Vec<IrTimer>,
    pub messages: Vec<IrMessage>,
    pub transitions: Vec<IrTransition>,
    pub tables: Tables,
    /// Name → slot for declared constants and scalars (introspection;
    /// `foreach` slots are deliberately absent, as the AST interpreter
    /// removed those bindings after each loop).
    var_index: HashMap<String, u16>,
}

impl IrSpec {
    pub fn var_slot(&self, name: &str) -> Option<u16> {
        self.var_index.get(name).copied()
    }

    /// Check and lower a parsed spec. Rejects, with the first
    /// violation found:
    ///
    /// * duplicate declarations (states, neighbor types, transports,
    ///   messages, timers, neighbor lists, scalar variables), a
    ///   redeclared `init`, more than 128 states, and a spec that `uses`
    ///   itself (longer `uses` cycles are a registry matter:
    ///   [`crate::registry::SpecRegistry::resolve_chain`]);
    /// * message transports that are not declared (lowest layer only —
    ///   layered specs name their base's classes), and neighbor types
    ///   of message fields and list variables that are not declared;
    /// * a scalar variable of a neighbor type, and a message, message
    ///   field, neighbor list, timer, constant or scalar named by a Rust
    ///   keyword (the code generator prints each as an identifier);
    /// * in transition *i* (reported as `transition {i}: …`): unknown
    ///   scope states, trigger messages, timers and API names; unknown
    ///   lists, timers, messages and states in statements; sends and
    ///   downcalls with the wrong number of arguments; assignments to
    ///   anything but a declared scalar or list (a constant, a timer, a
    ///   `foreach` variable); variable names that resolve to no builtin
    ///   (`from`, `me`, `my_key`, `bootstrap`, `payload`, `null`,
    ///   `true`, `false`, `dest`, `group`), constant, scalar, list or
    ///   enclosing `foreach` variable; `field(..)` outside a
    ///   `recv`/`forward` transition or naming no field of its message;
    ///   `quash()` outside a `forward` transition; `downcall(..)` in a
    ///   spec without `uses`; every type error ([`Typer`]), a `/` or `%`
    ///   whose divisor is not a nonzero literal or constant included; and
    ///   a layered send to a literal `null` with no key field to route
    ///   toward.
    ///
    /// Whatever passes, both back ends run, and run alike.
    pub fn lower(spec: Arc<Spec>) -> Result<IrSpec, ParseError> {
        Lowerer::new(&spec)?.run()
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

struct Lowerer<'s> {
    spec: &'s Arc<Spec>,
    states: Vec<String>,
    vars: Vec<IrVar>,
    slots: Slots,
    var_index: HashMap<String, u16>,
    lists: Vec<IrList>,
    list_index: HashMap<String, u16>,
    timers: Vec<IrTimer>,
    timer_index: HashMap<String, u16>,
    messages: Vec<IrMessage>,
    msg_index: HashMap<String, u16>,
    /// Active `foreach` bindings, innermost last: (name, var index).
    fe_stack: Vec<(String, u16)>,
    /// Message supplying `field(..)` in the transition being lowered.
    trigger_msg: Option<u16>,
    /// API of the transition being lowered (binds `dest`/`group`/
    /// `payload`).
    trigger_api: Option<ApiKind>,
    /// The transition being lowered is a `forward` one (admits
    /// `quash()`).
    in_forward: bool,
    /// Reads of each field in the transition being lowered, a read
    /// inside a `foreach` counting twice (see [`count_field_reads`]).
    field_reads: HashMap<String, u32>,
}

impl<'s> Lowerer<'s> {
    fn new(spec: &'s Arc<Spec>) -> Result<Lowerer<'s>, ParseError> {
        if spec.uses.as_deref() == Some(spec.name.as_str()) {
            return Err(err(format!(
                "protocol '{}' cannot use itself as its base layer",
                spec.name
            )));
        }
        if spec.states.iter().any(|s| s == "init") {
            return Err(err("the 'init' state is implicit; do not redeclare it"));
        }
        if let Some(s) = duplicate(spec.states.iter().map(String::as_str)) {
            return Err(err(format!("duplicate state '{s}'")));
        }
        let mut states = Vec::with_capacity(spec.states.len() + 1);
        states.push("init".to_string());
        states.extend(spec.states.iter().cloned());
        if states.len() > 128 {
            return Err(err(format!(
                "protocol '{}' declares {} states; the IR state mask holds at most 128",
                spec.name,
                states.len()
            )));
        }
        if let Some(n) = duplicate(spec.neighbor_types.iter().map(|n| n.name.as_str())) {
            return Err(err(format!("duplicate neighbor type '{n}'")));
        }
        for n in &spec.neighbor_types {
            if let Some(f) = n.fields.first() {
                let msg = format!(
                    "neighbor type '{}' declares entry fields, which nothing can read: \
                     keyed neighbor state is ROADMAP item 2",
                    n.name
                );
                let (line, col) = f.at;
                return Err(ParseError { line, col, msg });
            }
        }
        if let Some(t) = duplicate(spec.transports.iter().map(|t| t.name.as_str())) {
            return Err(err(format!("duplicate transport '{t}'")));
        }
        let neighbor_type = |ty: &str| spec.neighbor_types.iter().find(|n| n.name == ty);

        let mut messages = Vec::new();
        let mut msg_index = HashMap::new();
        for m in &spec.messages {
            if msg_index
                .insert(m.name.clone(), messages.len() as u16)
                .is_some()
            {
                return Err(err(format!("duplicate message '{}'", m.name)));
            }
            let declared = m
                .transport
                .as_ref()
                .map(|t| (t, spec.transports.iter().position(|d| &d.name == t)));
            let channel = match declared {
                Some((t, None)) if spec.uses.is_none() => {
                    return Err(err(format!(
                        "message '{}' uses undeclared transport '{t}'",
                        m.name
                    )));
                }
                Some((_, Some(channel))) => channel,
                _ => 0,
            };
            // A decoded frame fills its slots in declaration order; `at`
            // is the field's slot there.
            let mut shape = Slots::default();
            let mut list_fields = 0;
            let mut fields = Vec::with_capacity(m.fields.len());
            for f in &m.fields {
                if let TypeName::Neighbor(t) = &f.ty {
                    if neighbor_type(t).is_none() {
                        return Err(err(format!(
                            "message '{}' field '{}' has unknown type '{t}'",
                            m.name, f.name
                        )));
                    }
                }
                let kind = FieldKind::of(&f.ty);
                let at = if kind == FieldKind::Nodes {
                    list_fields += 1;
                    list_fields - 1
                } else {
                    shape.push(Ty::of_field(kind))
                };
                fields.push(IrField {
                    name: f.name.clone(),
                    kind,
                    at,
                });
            }
            messages.push(IrMessage {
                name: m.name.clone(),
                channel: ChannelId(channel as u16),
                transport: m.transport.clone(),
                fields,
            });
        }

        // Variables: constants first, then declared scalars — the same
        // insertion order the AST interpreter used for its map, so a
        // name collision resolves identically (latest declaration
        // shadows, both variables exist).
        let mut vars = Vec::new();
        let mut slots = Slots::default();
        let mut var_index = HashMap::new();
        for (name, v) in &spec.constants {
            var_index.insert(name.clone(), vars.len() as u16);
            let slot = slots.push(Ty::Int);
            slots.set_int(slot, *v);
            vars.push(IrVar {
                name: name.clone(),
                ty: Ty::Int,
                slot,
                constant: Some(*v),
            });
        }
        let mut lists = Vec::new();
        let mut list_index = HashMap::new();
        let mut timers = Vec::new();
        let mut timer_index = HashMap::new();
        for v in &spec.state_vars {
            match v {
                StateVar::Neighbor {
                    ty,
                    name,
                    fail_detect,
                } => {
                    let Some(nt) = neighbor_type(ty) else {
                        return Err(err(format!(
                            "state variable '{name}' has undeclared neighbor type '{ty}'"
                        )));
                    };
                    if list_index
                        .insert(name.clone(), lists.len() as u16)
                        .is_some()
                    {
                        return Err(err(format!("duplicate neighbor list '{name}'")));
                    }
                    lists.push(IrList {
                        name: name.clone(),
                        max: nt.max,
                        fail_detect: *fail_detect,
                    });
                }
                StateVar::Timer {
                    name, period_ms, ..
                } => {
                    if timer_index
                        .insert(name.clone(), timers.len() as u16)
                        .is_some()
                    {
                        return Err(err(format!("duplicate timer '{name}'")));
                    }
                    timers.push(IrTimer {
                        name: name.clone(),
                        period_ms: *period_ms,
                    });
                }
                StateVar::Scalar { ty, name } => {
                    if let TypeName::Neighbor(_) = ty {
                        return Err(err(format!(
                            "scalar state variable '{name}' of a neighbor type is not \
                             supported; declare it as a neighbor list"
                        )));
                    }
                    let ty = Ty::of_field(FieldKind::of(ty));
                    let shadowed = var_index.insert(name.clone(), vars.len() as u16);
                    if shadowed.is_some_and(|i| vars[i as usize].constant.is_none()) {
                        return Err(err(format!("duplicate variable '{name}'")));
                    }
                    vars.push(IrVar {
                        name: name.clone(),
                        ty,
                        slot: slots.push(ty),
                        constant: None,
                    });
                }
            }
        }

        // Every name the code generator prints as a Rust identifier.
        let idents = messages
            .iter()
            .flat_map(|m| std::iter::once(&m.name).chain(m.fields.iter().map(|f| &f.name)))
            .chain(lists.iter().map(|l| &l.name))
            .chain(timers.iter().map(|t| &t.name))
            .chain(vars.iter().map(|v| &v.name));
        for i in idents {
            if RUST_KEYWORDS.contains(&i.as_str()) {
                return Err(err(format!("identifier '{i}' is a Rust keyword")));
            }
        }

        Ok(Lowerer {
            spec,
            states,
            vars,
            slots,
            var_index,
            lists,
            list_index,
            timers,
            timer_index,
            messages,
            msg_index,
            fe_stack: Vec::new(),
            trigger_msg: None,
            trigger_api: None,
            in_forward: false,
            field_reads: HashMap::new(),
        })
    }

    fn run(mut self) -> Result<IrSpec, ParseError> {
        let mut tables = Tables {
            recv: vec![Vec::new(); self.messages.len()],
            forward: vec![Vec::new(); self.messages.len()],
            timer: vec![Vec::new(); self.timers.len()],
            api: Default::default(),
            error: Vec::new(),
        };
        let mut transitions = Vec::with_capacity(self.spec.transitions.len());
        for (i, t) in self.spec.transitions.iter().enumerate() {
            let (table, mask, lowered) = self
                .transition(t, &mut tables)
                .map_err(|e| err(format!("transition {i}: {}", e.msg)))?;
            table.push((mask, i as u16));
            transitions.push(lowered);
        }
        Ok(IrSpec {
            spec: Arc::clone(self.spec),
            name: self.spec.name.clone(),
            uses: self.spec.uses.clone(),
            proto: protocol_id_of(&self.spec.name),
            layered: self.spec.uses.is_some(),
            num_channels: self.spec.transports.len() as u16,
            states: self.states,
            vars: self.vars,
            slots: self.slots,
            lists: self.lists,
            timers: self.timers,
            messages: self.messages,
            transitions,
            tables,
            var_index: self.var_index,
        })
    }

    /// Lower one transition: its scope mask, the dispatch table its
    /// trigger keys it into, and its body.
    fn transition<'t>(
        &mut self,
        t: &Transition,
        tables: &'t mut Tables,
    ) -> Result<(&'t mut Table, StateMask, IrTransition), ParseError> {
        let mask = self.scope_mask(&t.scope)?;
        self.trigger_msg = None;
        self.trigger_api = None;
        self.in_forward = false;
        let table = match &t.trigger {
            Trigger::Recv(m) => {
                let id = self.msg(m)?;
                self.trigger_msg = Some(id);
                &mut tables.recv[id as usize]
            }
            Trigger::Forward(m) => {
                let id = self.msg(m)?;
                self.trigger_msg = Some(id);
                self.in_forward = true;
                &mut tables.forward[id as usize]
            }
            Trigger::Timer(name) => &mut tables.timer[self.timer(name)? as usize],
            Trigger::Api(name) => {
                let kind =
                    ApiKind::from_name(name).ok_or_else(|| err(format!("unknown API '{name}'")))?;
                self.trigger_api = Some(kind);
                &mut tables.api[kind as usize]
            }
            Trigger::Error => &mut tables.error,
        };
        self.field_reads.clear();
        count_field_reads(&t.body, 1, &mut self.field_reads);
        let body = self.stmts(&t.body)?;
        let lowered = IrTransition {
            scope: t.scope.clone(),
            read_locked: t.locking == LockingOpt::Read,
            body,
        };
        Ok((table, mask, lowered))
    }

    fn scope_mask(&self, scope: &StateExpr) -> Result<StateMask, ParseError> {
        let mut names = Vec::new();
        scope.names(&mut names);
        if let Some(n) = names.iter().find(|n| !self.states.contains(n)) {
            return Err(err(format!("unknown state '{n}' in scope")));
        }
        let mut bits = 0u128;
        for (i, s) in self.states.iter().enumerate() {
            if scope.matches(s) {
                bits |= 1u128 << i;
            }
        }
        Ok(StateMask(bits))
    }

    fn msg(&self, name: &str) -> Result<u16, ParseError> {
        self.msg_index
            .get(name)
            .copied()
            .ok_or_else(|| err(format!("unknown message '{name}'")))
    }

    fn list(&self, name: &str) -> Result<u16, ParseError> {
        self.list_index
            .get(name)
            .copied()
            .ok_or_else(|| err(format!("unknown neighbor list '{name}'")))
    }

    fn timer(&self, name: &str) -> Result<u16, ParseError> {
        self.timer_index
            .get(name)
            .copied()
            .ok_or_else(|| err(format!("unknown timer '{name}'")))
    }

    /// The declared scalar `name` names: constants are not assignable.
    fn scalar(&self, name: &str) -> Option<u16> {
        let var = *self.var_index.get(name)?;
        self.vars[var as usize].constant.is_none().then_some(var)
    }

    /// Resolve a value name through the lexical scope the AST
    /// interpreter's mutable variable map produced: innermost `foreach`
    /// binding first, then constants/scalars.
    fn value_slot(&self, name: &str) -> Option<u16> {
        self.fe_stack
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
            .or_else(|| self.var_index.get(name).copied())
    }

    /// A typer for the transition being lowered.
    fn typer(&self) -> Typer<'_> {
        Typer {
            vars: &self.vars,
            fields: match self.trigger_msg {
                Some(m) => &self.messages[m as usize].fields,
                None => &[],
            },
            api: self.trigger_api,
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<IrStmt>, ParseError> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> Result<IrStmt, ParseError> {
        Ok(match s {
            Stmt::If { cond, then, els } => {
                let cond = self.expr(cond)?;
                IrStmt::If {
                    cond: self.typer().cond(&cond).map_err(err)?,
                    then: self.stmts(then)?,
                    els: self.stmts(els)?,
                }
            }
            Stmt::Return => IrStmt::Return,
            Stmt::StateChange(name) => {
                let idx = self
                    .states
                    .iter()
                    .position(|s| s == name)
                    .ok_or_else(|| err(format!("state_change to unknown '{name}'")))?;
                IrStmt::StateChange(idx as u16)
            }
            Stmt::TimerResched(name, e) => {
                let id = self.timer(name)?;
                let e = self.expr(e)?;
                IrStmt::TimerResched(id, self.typer().int_arg(&e).map_err(err)?)
            }
            Stmt::TimerCancel(name) => IrStmt::TimerCancel(self.timer(name)?),
            Stmt::NeighborAdd(l, e) => {
                let l = self.list(l)?;
                let e = self.expr(e)?;
                IrStmt::NeighborAdd(l, self.typer().node_arg(&e, "neighbor_add").map_err(err)?)
            }
            Stmt::NeighborRemove(l, e) => {
                let l = self.list(l)?;
                let e = self.expr(e)?;
                let n = self.typer().node_arg(&e, "neighbor_remove").map_err(err)?;
                IrStmt::NeighborRemove(l, n)
            }
            Stmt::NeighborClear(l) => IrStmt::NeighborClear(self.list(l)?),
            Stmt::Send {
                message,
                dest,
                args,
            } => {
                let msg = *self
                    .msg_index
                    .get(message)
                    .ok_or_else(|| err(format!("send of unknown message '{message}'")))?;
                if args.len() != self.messages[msg as usize].fields.len() {
                    return Err(err(format!(
                        "message '{message}' takes {} argument(s), got {}",
                        self.messages[msg as usize].fields.len(),
                        args.len()
                    )));
                }
                let dest = self.expr(dest)?;
                let args = args
                    .iter()
                    .map(|a| self.expr(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let shape: Vec<(FieldKind, String)> = self.messages[msg as usize]
                    .fields
                    .iter()
                    .map(|f| (f.kind, f.name.clone()))
                    .collect();
                let layered = self.spec.uses.is_some();
                let t = self.typer();
                let dest = t.send_dest(&dest, layered).map_err(err)?;
                let args = args
                    .iter()
                    .zip(&shape)
                    .map(|(a, (kind, name))| t.send_arg(a, *kind, name))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(err)?;
                // A layered send to `null` routes toward its first key
                // field whose argument is not itself `null`; a literal
                // `null` destination needs one.
                let routable = args.iter().any(|a| match a {
                    SendArg::Key(KeyArg::Key(_)) => true,
                    SendArg::Key(KeyArg::Node(n)) => !matches!(n, NodeExpr::Null),
                    _ => false,
                });
                if layered && matches!(dest, SendDest::Node(NodeExpr::Null)) && !routable {
                    return Err(err(format!(
                        "message '{message}': null destination needs a key field to route toward"
                    )));
                }
                IrStmt::Send { msg, dest, args }
            }
            Stmt::Quash if !self.in_forward => {
                return Err(err("quash() is only valid in a 'forward' transition"));
            }
            Stmt::Quash => IrStmt::Quash,
            Stmt::DownCallApi { api, .. } if self.spec.uses.is_none() => {
                return Err(err(format!(
                    "downcall({api}, ..) requires a 'uses' base layer"
                )));
            }
            Stmt::DownCallApi { api, args } => {
                let arity = crate::ast::downcall_arity(api)
                    .ok_or_else(|| err(format!("unknown downcall API '{api}'")))?;
                if args.len() != arity {
                    return Err(err(format!(
                        "downcall({api}, ..) takes {arity} argument(s), got {}",
                        args.len()
                    )));
                }
                let lowered: Vec<IrExpr> = args
                    .iter()
                    .map(|a| self.expr(a))
                    .collect::<Result<_, _>>()?;
                let what = format!("downcall({api}, ..)");
                let t = self.typer();
                let l = &lowered;
                let key = || t.key_arg(&l[0], &what).map_err(err);
                let payload = || t.payload_arg(&l[1], &what).map_err(err);
                IrStmt::DownCall(match api.as_str() {
                    "join" => IrDown::Join(key()?),
                    "leave" => IrDown::Leave(key()?),
                    "create_group" => IrDown::CreateGroup(key()?),
                    "multicast" => IrDown::Multicast(key()?, payload()?),
                    "anycast" => IrDown::Anycast(key()?, payload()?),
                    "collect" => IrDown::Collect(key()?, payload()?),
                    "route" => IrDown::Route(key()?, payload()?),
                    "routeIP" => {
                        IrDown::RouteIp(t.node_arg(&l[0], &what).map_err(err)?, payload()?)
                    }
                    other => return Err(err(format!("unknown downcall API '{other}'"))),
                })
            }
            Stmt::UpcallNotify(l, e) => {
                let l = self.list(l)?;
                let e = self.expr(e)?;
                IrStmt::UpcallNotify(l, self.typer().int_arg(&e).map_err(err)?)
            }
            Stmt::Deliver { src, payload } => {
                let src = self.expr(src)?;
                let payload = self.expr(payload)?;
                let t = self.typer();
                IrStmt::Deliver {
                    src: t.key_arg(&src, "deliver src").map_err(err)?,
                    payload: t.payload_arg(&payload, "deliver payload").map_err(err)?,
                }
            }
            Stmt::Monitor(e) => {
                let e = self.expr(e)?;
                IrStmt::Monitor(self.typer().node_arg(&e, "monitor").map_err(err)?)
            }
            Stmt::Unmonitor(e) => {
                let e = self.expr(e)?;
                IrStmt::Unmonitor(self.typer().node_arg(&e, "unmonitor").map_err(err)?)
            }
            Stmt::ForEach { var, list, body } => {
                let list = *self
                    .list_index
                    .get(list)
                    .ok_or_else(|| err(format!("foreach over unknown list '{list}'")))?;
                // A dedicated node variable per binding site: lexical
                // resolution replaces the AST interpreter's
                // insert/save/restore dance over one shared map.
                let index = self.vars.len() as u16;
                let slot = self.slots.push(Ty::Node);
                self.vars.push(IrVar {
                    name: var.clone(),
                    ty: Ty::Node,
                    slot,
                    constant: None,
                });
                self.fe_stack.push((var.clone(), index));
                let body = self.stmts(body);
                self.fe_stack.pop();
                IrStmt::ForEach {
                    var: slot,
                    list,
                    body: body?,
                }
            }
            Stmt::Assign(name, _) if self.fe_stack.iter().any(|(n, _)| n == name) => {
                return Err(err(format!("cannot assign to foreach variable '{name}'")));
            }
            Stmt::Assign(name, e) => {
                let lowered = self.expr(e)?;
                // Mirror the AST interpreter's order: a neighbor list
                // wins over a scalar of the same name as an assignment
                // target (while reads resolve scalar-first).
                if let Some(&slot) = self.list_index.get(name) {
                    if let Some(at) = self.single_use_list_field(e, &lowered) {
                        IrStmt::AssignListTakeField(slot, at)
                    } else {
                        IrStmt::AssignList(
                            slot,
                            self.typer().list_arg(&lowered, name).map_err(err)?,
                        )
                    }
                } else if let Some(var) = self.scalar(name) {
                    self.typer().assign(var, &lowered).map_err(err)?
                } else {
                    return Err(err(format!("assignment to undeclared variable '{name}'")));
                }
            }
            Stmt::Trace(e) => {
                let e = self.expr(e)?;
                IrStmt::Trace(self.typer().any(&e).map_err(err)?)
            }
        })
    }

    /// `list = field(f);` outside any loop, where `f` is a list field
    /// read exactly once in the transition: its frame index, so the
    /// decoded list is moved out instead of copied.
    fn single_use_list_field(&self, e: &Expr, lowered: &IrExpr) -> Option<u16> {
        let (Expr::Field(name), IrExpr::Field(i)) = (e, lowered) else {
            return None;
        };
        let field = &self.messages[self.trigger_msg? as usize].fields[*i as usize];
        (self.fe_stack.is_empty()
            && field.kind == FieldKind::Nodes
            && self.field_reads.get(name) == Some(&1))
        .then_some(field.at)
    }

    fn expr(&mut self, e: &Expr) -> Result<IrExpr, ParseError> {
        Ok(match e {
            Expr::Int(v) => IrExpr::Int(*v),
            Expr::Var(name) => match name.as_str() {
                // Builtins shadow everything — the AST interpreter
                // matched these names before consulting its map.
                "from" => IrExpr::From,
                "me" => IrExpr::Me,
                "my_key" => IrExpr::MyKey,
                "bootstrap" => IrExpr::Bootstrap,
                "payload" => IrExpr::Payload,
                "null" => IrExpr::Null,
                "true" => IrExpr::True,
                "false" => IrExpr::False,
                "dest" => IrExpr::ApiArg {
                    which: ApiArgKind::Dest,
                    fallback: self.value_slot(name),
                },
                "group" => IrExpr::ApiArg {
                    which: ApiArgKind::Group,
                    fallback: self.value_slot(name),
                },
                other => {
                    if let Some(slot) = self.value_slot(other) {
                        IrExpr::Var(slot)
                    } else if let Some(slot) = self.list_index.get(other) {
                        IrExpr::ListValue(*slot)
                    } else {
                        return Err(err(format!("unknown variable '{other}'")));
                    }
                }
            },
            Expr::Field(name) => {
                let Some(msg) = self.trigger_msg else {
                    return Err(err(format!(
                        "field({name}) outside a recv/forward transition"
                    )));
                };
                let decl = &self.messages[msg as usize];
                let idx = decl
                    .fields
                    .iter()
                    .position(|f| f.name == *name)
                    .ok_or_else(|| err(format!("message '{}' has no field '{name}'", decl.name)))?;
                IrExpr::Field(idx as u16)
            }
            Expr::NeighborSize(l) => IrExpr::NeighborSize(self.list(l)?),
            Expr::NeighborQuery(l, e) => {
                IrExpr::NeighborQuery(self.list(l)?, Box::new(self.expr(e)?))
            }
            Expr::NeighborRandom(l) => IrExpr::NeighborRandom(self.list(l)?),
            Expr::Rtt(e) => IrExpr::Rtt(Box::new(self.expr(e)?)),
            Expr::Goodput(e) => IrExpr::Goodput(Box::new(self.expr(e)?)),
            Expr::RingDist(a, b) => {
                IrExpr::RingDist(Box::new(self.expr(a)?), Box::new(self.expr(b)?))
            }
            Expr::RingBetween(x, lo, hi) => IrExpr::RingBetween(
                Box::new(self.expr(x)?),
                Box::new(self.expr(lo)?),
                Box::new(self.expr(hi)?),
            ),
            Expr::Digit(k, i, base) => IrExpr::Digit(
                Box::new(self.expr(k)?),
                Box::new(self.expr(i)?),
                Box::new(self.expr(base)?),
            ),
            Expr::PrefixLen(a, b) => {
                IrExpr::PrefixLen(Box::new(self.expr(a)?), Box::new(self.expr(b)?))
            }
            Expr::OwnerOf(k, l) => IrExpr::OwnerOf(Box::new(self.expr(k)?), self.list(l)?),
            Expr::Not(e) => IrExpr::Not(Box::new(self.expr(e)?)),
            Expr::Neg(e) => IrExpr::Neg(Box::new(self.expr(e)?)),
            Expr::Bin(op, a, b) => {
                IrExpr::Bin(*op, Box::new(self.expr(a)?), Box::new(self.expr(b)?))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Single-use field analysis
// ---------------------------------------------------------------------------

/// Count the `field(..)` reads of a transition body by field name. A
/// read inside a `foreach` counts twice: the loop re-reads it on every
/// iteration, so moving it out of the frame there would null it for
/// the later ones.
fn count_field_reads(stmts: &[Stmt], weight: u32, counts: &mut HashMap<String, u32>) {
    let expr = |e: &Expr, counts: &mut HashMap<String, u32>| {
        e.walk(&mut |sub| {
            if let Expr::Field(name) = sub {
                let n = counts.entry(name.clone()).or_default();
                *n = n.saturating_add(weight);
            }
        })
    };
    for s in stmts {
        match s {
            Stmt::If { cond, then, els } => {
                expr(cond, counts);
                count_field_reads(then, weight, counts);
                count_field_reads(els, weight, counts);
            }
            Stmt::ForEach { body, .. } => count_field_reads(body, 2, counts),
            Stmt::TimerResched(_, e)
            | Stmt::NeighborAdd(_, e)
            | Stmt::NeighborRemove(_, e)
            | Stmt::UpcallNotify(_, e)
            | Stmt::Monitor(e)
            | Stmt::Unmonitor(e)
            | Stmt::Assign(_, e)
            | Stmt::Trace(e) => expr(e, counts),
            Stmt::Send { dest, args, .. } => {
                expr(dest, counts);
                for a in args {
                    expr(a, counts);
                }
            }
            Stmt::Deliver { src, payload } => {
                expr(src, counts);
                expr(payload, counts);
            }
            Stmt::DownCallApi { args, .. } => {
                for a in args {
                    expr(a, counts);
                }
            }
            Stmt::Return
            | Stmt::Quash
            | Stmt::StateChange(_)
            | Stmt::TimerCancel(_)
            | Stmt::NeighborClear(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn lower(src: &str) -> IrSpec {
        compile(src).unwrap()
    }

    #[test]
    fn slots_follow_declaration_order() {
        let ir = lower(
            "protocol p; addressing hash;
             constants { K = 7; }
             states { a; b; }
             neighbor_types { kid 4 { } }
             transports { TCP C; UDP D; }
             messages { D ping { node who; } C pong { } }
             state_variables { kid kids; timer t1; timer t2 100; int n; }
             transitions { any timer t2 { n = K; } }",
        );
        assert_eq!(ir.states, ["init", "a", "b"]);
        assert_eq!(ir.var_slot("K"), Some(0));
        assert_eq!(ir.var_slot("n"), Some(1));
        assert_eq!((ir.vars[0].ty, ir.vars[0].slot), (Ty::Int, 0));
        assert_eq!(ir.slots.int(0), 7, "K holds its value");
        assert_eq!((ir.vars[1].ty, ir.vars[1].slot), (Ty::Int, 1));
        assert_eq!(ir.slots.int(1), 0, "n holds the default");
        assert_eq!(ir.lists[0].name, "kids");
        assert_eq!(ir.lists[0].max, 4);
        assert_eq!(ir.timers.len(), 2);
        assert_eq!(ir.timers[1].name, "t2");
        assert_eq!(ir.timers[1].period_ms, Some(100));
        // ping rides the second declared transport; pong the first.
        assert_eq!(ir.messages[0].channel, ChannelId(1));
        assert_eq!(ir.messages[1].channel, ChannelId(0));
        // The timer table keys t2 (slot 1) to the only transition.
        assert_eq!(ir.tables.timer[1].len(), 1);
        assert!(ir.tables.timer[0].is_empty());
    }

    #[test]
    fn scope_masks_match_state_expressions() {
        let ir = lower(
            "protocol p; addressing hash;
             states { joining; joined; }
             transports { TCP C; }
             messages { C m { } }
             transitions {
                !(joining|init) recv m { }
                any recv m { }
             }",
        );
        let table = &ir.tables.recv[0];
        assert_eq!(table.len(), 2);
        let (mask, first) = table[0];
        assert_eq!(first, 0, "declaration order preserved");
        assert!(!mask.contains(0), "init excluded");
        assert!(!mask.contains(1), "joining excluded");
        assert!(mask.contains(2), "joined admitted");
        let (any, _) = table[1];
        for s in 0..3 {
            assert!(any.contains(s));
        }
    }

    #[test]
    fn foreach_gets_dedicated_shadow_slot() {
        let ir = lower(
            "protocol p; addressing hash;
             neighbor_types { kid 4 { } }
             transports { TCP C; }
             messages { C ping { node who; } }
             state_variables { kid kids; node n; }
             transitions { any API init { foreach (n in kids) { ping(n, n); } n = null; } }",
        );
        // Declared scalar keeps slot 0; the loop binding gets its own.
        assert_eq!(ir.var_slot("n"), Some(0));
        assert_eq!(ir.vars.len(), 2);
        let body = &ir.transitions[0].body;
        let IrStmt::ForEach {
            var, body: inner, ..
        } = &body[0]
        else {
            panic!("expected foreach, got {body:?}");
        };
        assert_eq!(*var, 1, "loop variable shadows into a fresh slot");
        let IrStmt::Send { dest, .. } = &inner[0] else {
            panic!("expected send");
        };
        assert!(
            matches!(dest, SendDest::Node(NodeExpr::Var(1))),
            "body reads the loop slot"
        );
        let IrStmt::AssignNode(slot, NodeExpr::Null) = &body[1] else {
            panic!("expected assignment");
        };
        assert_eq!(*slot, 0, "after the loop the declared scalar is back");
    }

    #[test]
    fn key_and_payload_field_positions_precomputed() {
        // Each field's slot in a decoded frame: scalar words, payloads
        // and lists are numbered apart, in declaration order.
        let ir = lower(
            "protocol p uses base; addressing hash;
             neighbor_types { kid 4 { } }
             messages { m { int a; key g; payload d; kid ks; key h; payload e; } }",
        );
        let at: Vec<(FieldKind, u16)> = ir.messages[0]
            .fields
            .iter()
            .map(|f| (f.kind, f.at))
            .collect();
        use FieldKind::*;
        assert_eq!(
            at,
            [
                (Int, 0),
                (Key, 1),
                (Payload, 0),
                (Nodes, 0),
                (Key, 2),
                (Payload, 1)
            ]
        );
        assert!(ir.layered);
    }

    #[test]
    fn all_bundled_specs_lower() {
        for (name, src) in crate::bundled_specs() {
            let ir = compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let spec = &ir.spec;
            assert_eq!(ir.name, name);
            assert_eq!(ir.messages.len(), spec.messages.len());
            assert_eq!(ir.transitions.len(), spec.transitions.len());
        }
    }

    #[test]
    fn unanalyzed_spec_diagnosed() {
        let spec = crate::parse(
            "protocol p; addressing hash;
             transitions { any API init { ghost = 1; } }",
        )
        .unwrap();
        let e = IrSpec::lower(Arc::new(spec)).unwrap_err();
        assert!(e.to_string().contains("undeclared variable 'ghost'"));
    }

    #[test]
    fn state_mask_capacity_guarded() {
        let mut src = String::from("protocol p; addressing hash; states { ");
        for i in 0..128 {
            src.push_str(&format!("s{i}; "));
        }
        src.push('}');
        let e = compile(&src).unwrap_err();
        assert!(e.to_string().contains("at most 128"));
    }
}
