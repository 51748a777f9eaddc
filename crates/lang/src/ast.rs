//! Abstract syntax of a MACEDON protocol specification (Figure 4).

/// A complete `PROTOCOL SPECIFICATION`.
#[derive(Clone, Debug)]
pub struct Spec {
    /// `protocol <name>`.
    pub name: String,
    /// `uses <base>` — the layering declaration ("protocol scribe uses
    /// pastry").
    pub uses: Option<String>,
    /// `addressing hash|ip`.
    pub addressing: AddressingMode,
    /// `trace_ off|low|med|high`.
    pub trace: TraceMode,
    pub constants: Vec<(String, i64)>,
    /// FSM states; `init` is implicit and always present.
    pub states: Vec<String>,
    pub neighbor_types: Vec<NeighborType>,
    pub transports: Vec<TransportDecl>,
    pub messages: Vec<MessageDecl>,
    pub state_vars: Vec<StateVar>,
    pub transitions: Vec<Transition>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AddressingMode {
    Hash,
    Ip,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceMode {
    Off,
    Low,
    Med,
    High,
}

/// `neighbor_types { <name> <max>? { fields } ... }`.
#[derive(Clone, Debug)]
pub struct NeighborType {
    pub name: String,
    /// Maximum entries (`MAX_CHILDREN` style); default 1.
    pub max: usize,
    pub fields: Vec<Field>,
}

/// One typed field of a message or neighbor entry.
#[derive(Clone, Debug)]
pub struct Field {
    pub ty: TypeName,
    pub name: String,
}

/// Surface types of the language.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TypeName {
    Int,
    Bool,
    Node,
    Key,
    /// Opaque tunneled application data (the paper's buffaddr/buffsize
    /// transmission arguments).
    Payload,
    /// A declared neighbor type (sets of neighbors may ride in messages).
    Neighbor(String),
}

/// `transports { TCP HIGH; ... }`.
#[derive(Clone, Debug)]
pub struct TransportDecl {
    pub kind: TransportKindDecl,
    pub name: String,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportKindDecl {
    Tcp,
    Udp,
    Swp,
}

/// Resolve a layered spec's message class name (`HIGH`, `BEST_EFFORT`,
/// …) against the base (tunneling) spec's transport table, returning
/// the base channel index the class maps onto. Single source of truth
/// for the interpreter's runtime mapping and the code generator's baked
/// constants, so both back ends agree bit-for-bit.
///
/// Resolution order:
/// 1. exact name match in the base table;
/// 2. the conventional class ladder by transport kind — `BEST_EFFORT`
///    prefers the base's first UDP channel, `HIGHEST` its first SWP,
///    and `HIGH`/`MED`/`LOW` its first reliable (TCP, then SWP)
///    channel, each falling back to any reliable/unreliable channel;
/// 3. `None` — the send travels at the default priority (channel 0).
pub fn map_class_to_channel(base: &[TransportDecl], class: &str) -> Option<u16> {
    if let Some(i) = base.iter().position(|t| t.name == class) {
        return Some(i as u16);
    }
    let first = |k: TransportKindDecl| base.iter().position(|t| t.kind == k);
    let idx = match class {
        "BEST_EFFORT" => first(TransportKindDecl::Udp)
            .or_else(|| first(TransportKindDecl::Tcp))
            .or_else(|| first(TransportKindDecl::Swp)),
        "HIGHEST" => first(TransportKindDecl::Swp)
            .or_else(|| first(TransportKindDecl::Tcp))
            .or_else(|| first(TransportKindDecl::Udp)),
        "HIGH" | "MED" | "LOW" => first(TransportKindDecl::Tcp)
            .or_else(|| first(TransportKindDecl::Swp))
            .or_else(|| first(TransportKindDecl::Udp)),
        _ => None,
    }?;
    u16::try_from(idx).ok()
}

/// `messages { <transport>? <name> { fields } ... }`.
#[derive(Clone, Debug)]
pub struct MessageDecl {
    /// Named transport instance carrying this message (lowest layer), or
    /// `None` for a default-priority message in a layered protocol.
    pub transport: Option<String>,
    pub name: String,
    pub fields: Vec<Field>,
}

/// One entry of `state_variables { ... }` / `auxiliary_data { ... }`.
#[derive(Clone, Debug)]
pub enum StateVar {
    /// `fail_detect? <neighbor-type> <name>;`
    Neighbor {
        ty: String,
        name: String,
        fail_detect: bool,
    },
    /// `timer <name> <period>?;` — period in milliseconds, given either
    /// as an integer literal or as the name of a previously declared
    /// constant (the parser resolves the name and keeps it in
    /// `period_const`, so an overridden constant re-resolves the period).
    Timer {
        name: String,
        period_ms: Option<i64>,
        period_const: Option<String>,
    },
    /// `int <name>;` etc.
    Scalar { ty: TypeName, name: String },
}

/// FSM-state scope expression for a transition (`!(joining|init)`).
#[derive(Clone, Debug)]
pub enum StateExpr {
    Any,
    Is(String),
    Not(Box<StateExpr>),
    Or(Box<StateExpr>, Box<StateExpr>),
}

impl StateExpr {
    /// Does this scope admit the given current state?
    pub fn matches(&self, state: &str) -> bool {
        match self {
            StateExpr::Any => true,
            StateExpr::Is(s) => s == state,
            StateExpr::Not(e) => !e.matches(state),
            StateExpr::Or(a, b) => a.matches(state) || b.matches(state),
        }
    }

    /// All state names referenced (for semantic checking).
    pub fn names(&self, out: &mut Vec<String>) {
        match self {
            StateExpr::Any => {}
            StateExpr::Is(s) => out.push(s.clone()),
            StateExpr::Not(e) => e.names(out),
            StateExpr::Or(a, b) => {
                a.names(out);
                b.names(out);
            }
        }
    }
}

/// What triggers a transition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Trigger {
    /// `API init`, `API route`, `API multicast`, ...
    Api(String),
    /// `timer <name>`.
    Timer(String),
    /// `recv <message>` — message delivered to this node.
    Recv(String),
    /// `forward <message>` — message passing through (upper layers).
    Forward(String),
    /// `error` — the failure-detection API.
    Error,
}

/// Locking class annotation (`[locking read;]`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LockingOpt {
    Read,
    #[default]
    Write,
}

/// One transition: scope, trigger, options, body.
#[derive(Clone, Debug)]
pub struct Transition {
    pub scope: StateExpr,
    pub trigger: Trigger,
    pub locking: LockingOpt,
    pub body: Vec<Stmt>,
}

/// Statements of the action language (§3.3).
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `if (cond) { .. } else { .. }`.
    If {
        cond: Expr,
        then: Vec<Stmt>,
        els: Vec<Stmt>,
    },
    /// `state_change(joined);`
    StateChange(String),
    /// `timer_resched(name, expr_ms);`
    TimerResched(String, Expr),
    /// `timer_cancel(name);`
    TimerCancel(String),
    /// `neighbor_add(list, expr);`
    NeighborAdd(String, Expr),
    /// `neighbor_remove(list, expr);`
    NeighborRemove(String, Expr),
    /// `neighbor_clear(list);`
    NeighborClear(String),
    /// `<message>(dest, field-args...);` — the transmission primitive.
    Send {
        message: String,
        dest: Expr,
        args: Vec<Expr>,
    },
    /// `upcall_notify(list, type);`
    UpcallNotify(String, Expr),
    /// `deliver(src, payload);` — hand data to the layer above.
    Deliver {
        src: Expr,
        payload: Expr,
    },
    /// `monitor(expr);` / `unmonitor(expr);` — failure detection.
    Monitor(Expr),
    Unmonitor(Expr),
    /// `foreach (x in list) { ... }` — iterate a neighbor list.
    ForEach {
        var: String,
        list: String,
        body: Vec<Stmt>,
    },
    /// `x = expr;`
    Assign(String, Expr),
    /// `trace("..."-less): trace(expr);` — numeric trace records.
    Trace(Expr),
    /// `return;` — leave the transition early.
    Return,
    /// `quash();` — inside a `forward` transition, swallow the in-transit
    /// message instead of letting the layer below transmit it (the
    /// paper's mutable forward() query).
    Quash,
    /// `downcall(<api>, args...);` — issue a MACEDON API call to the
    /// layer below (`downcall(join, group)`, `downcall(route, dest,
    /// payload)`). Only meaningful in layered (`uses`) specifications.
    DownCallApi {
        api: String,
        args: Vec<Expr>,
    },
}

/// Argument count of a `downcall(<api>, args...)` statement, or `None`
/// for an unknown API name. Single source of truth for the semantic
/// checker and the interpreter's call builder.
pub fn downcall_arity(api: &str) -> Option<usize> {
    match api {
        "join" | "leave" | "create_group" => Some(1),
        "multicast" | "anycast" | "collect" | "route" | "routeIP" => Some(2),
        _ => None,
    }
}

/// Expressions.
#[derive(Clone, Debug)]
pub enum Expr {
    Int(i64),
    /// State variable, constant, or builtin (`from`, `me`, `my_key`,
    /// `payload`).
    Var(String),
    /// `field(name)` — field of the triggering message.
    Field(String),
    /// `neighbor_size(list)`.
    NeighborSize(String),
    /// `neighbor_query(list, expr)` — membership test.
    NeighborQuery(String, Box<Expr>),
    /// `neighbor_random(list)`.
    NeighborRandom(String),
    /// `rtt(node)` — engine-measured smoothed round-trip time to a peer
    /// in whole milliseconds (`0` when unmeasured). Fed by the
    /// transport's acknowledgement samples; see `macedon_core::measure`.
    Rtt(Box<Expr>),
    /// `goodput(node)` — engine-measured smoothed inbound goodput from
    /// a peer in kilobits/s (`0` when unmeasured).
    Goodput(Box<Expr>),
    /// `ring_dist(a, b)` — symmetric distance between two keys on the
    /// 2^32 identifier ring; `RING` (2^32) when either operand is null.
    RingDist(Box<Expr>, Box<Expr>),
    /// `ring_between(x, lo, hi)` — true iff `x` lies in the half-open
    /// clockwise interval `(lo, hi]`; false when any operand is null.
    RingBetween(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `digit(key, i, base)` — digit `i` (0 = most significant) of the
    /// key written in `base`; 0 when the key is null or the base/index
    /// is unusable.
    Digit(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `prefix_len(a, b)` — shared hex-digit prefix length of two keys
    /// (Pastry's radix-16 metric); 0 when either operand is null.
    PrefixLen(Box<Expr>, Box<Expr>),
    /// `owner_of(key, list)` — the list member whose key is
    /// clockwise-nearest at-or-after `key` (ties by node id); null when
    /// the key is null or the list empty.
    OwnerOf(Box<Expr>, String),
    /// Unary ops.
    Not(Box<Expr>),
    Neg(Box<Expr>),
    /// Binary ops.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Visit this expression and every subexpression, preorder. Shared
    /// by the semantic checker and the code generator so both resolve
    /// names over the same traversal.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::NeighborQuery(_, e)
            | Expr::Rtt(e)
            | Expr::Goodput(e)
            | Expr::OwnerOf(e, _)
            | Expr::Not(e)
            | Expr::Neg(e) => e.walk(f),
            Expr::Bin(_, a, b) | Expr::RingDist(a, b) | Expr::PrefixLen(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::RingBetween(a, b, c) | Expr::Digit(a, b, c) => {
                a.walk(f);
                b.walk(f);
                c.walk(f);
            }
            Expr::Int(_)
            | Expr::Var(_)
            | Expr::Field(_)
            | Expr::NeighborSize(_)
            | Expr::NeighborRandom(_) => {}
        }
    }
}

impl Spec {
    /// Message declaration by name.
    pub fn message(&self, name: &str) -> Option<&MessageDecl> {
        self.messages.iter().find(|m| m.name == name)
    }

    /// Declared maximum size of a neighbor list state variable (the
    /// neighbor type's `max`), defaulting to 1 as the interpreter does.
    pub fn list_max(&self, ty: &str) -> usize {
        self.neighbor_types
            .iter()
            .find(|n| n.name == ty)
            .map(|n| n.max)
            .unwrap_or(1)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_expr_matching() {
        let e = StateExpr::Not(Box::new(StateExpr::Or(
            Box::new(StateExpr::Is("joining".into())),
            Box::new(StateExpr::Is("init".into())),
        )));
        assert!(!e.matches("joining"));
        assert!(!e.matches("init"));
        assert!(e.matches("joined"));
        assert!(StateExpr::Any.matches("anything"));
    }

    #[test]
    fn class_mapping_prefers_exact_then_kind() {
        let base = vec![
            TransportDecl {
                kind: TransportKindDecl::Tcp,
                name: "CTRL".into(),
            },
            TransportDecl {
                kind: TransportKindDecl::Udp,
                name: "DATA".into(),
            },
        ];
        // Exact name wins.
        assert_eq!(map_class_to_channel(&base, "DATA"), Some(1));
        // Conventional ladder by kind.
        assert_eq!(map_class_to_channel(&base, "HIGH"), Some(0));
        assert_eq!(map_class_to_channel(&base, "LOW"), Some(0));
        assert_eq!(map_class_to_channel(&base, "BEST_EFFORT"), Some(1));
        // HIGHEST prefers SWP but falls back to TCP here.
        assert_eq!(map_class_to_channel(&base, "HIGHEST"), Some(0));
        // Unknown class: unmapped (default priority).
        assert_eq!(map_class_to_channel(&base, "WEIRD"), None);
        assert_eq!(map_class_to_channel(&[], "HIGH"), None);
    }

    #[test]
    fn state_expr_name_collection() {
        let e = StateExpr::Or(
            Box::new(StateExpr::Is("a".into())),
            Box::new(StateExpr::Not(Box::new(StateExpr::Is("b".into())))),
        );
        let mut names = Vec::new();
        e.names(&mut names);
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }
}
