//! The static typing of the action language, and the typed expression
//! trees the interpreter evaluates.
//!
//! Every action-language expression has one static [`Ty`], decided by
//! its leaves (declared variable and field types, the builtins, the
//! triggering API's arguments) and by the coercion tables on `Ty`:
//! [`Ty::as_int`], [`Ty::key_opt`], [`Ty::truthiness`] and
//! [`Ty::eq_case`]. [`Typer`] turns each case into a node of a typed
//! tree, and both back ends consume those trees: the interpreter
//! evaluates them, [`crate::codegen`] prints them as Rust. One lowering
//! and one typing serve both.
//!
//! A typed tree evaluates at its own type with no dynamic dispatch on
//! values: [`IntExpr`] yields an `i64`, [`BoolExpr`] a `bool`,
//! [`NodeExpr`] an `Option<NodeId>` (`None` is `null`), [`KeyExpr`] a
//! `MacedonKey`, [`KeyOptExpr`] the key builtins' `Option<MacedonKey>`
//! operand. Only [`PayloadExpr`] and [`ListExpr`] values live on the
//! heap, and both are read by reference.
//!
//! A construct the tables reject (`neighbor_query(l, 5)`, an `int`
//! variable assigned a node) is a type error, and so is a `/` or `%`
//! whose divisor is not a nonzero literal or constant: each [`Typer`]
//! method returns the diagnostic, and the lowering rejects the spec
//! with it. Every tree that exists is well typed, so no expression
//! faults when evaluated.

use super::{ApiArgKind, ApiKind, FieldKind, IrExpr, IrField, IrStmt, IrVar};
use crate::ast::BinOp;
use macedon_core::{Bytes, MacedonKey, NodeId};

/// Static type of an action-language expression.
///
/// `Node` values are nullable throughout the language (`null`, absent
/// message fields, an empty `neighbor_random`), so a `Node` evaluates
/// to `Option<NodeId>`; `Null` is the type of the `null` literal and of
/// unbound API arguments (`payload` included). A `Payload` value is
/// never null: a payload variable starts as, and is assigned `null` as,
/// the empty payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ty {
    Int,
    Bool,
    Key,
    Node,
    Payload,
    List,
    Null,
}

/// How a value reaches an `int` position (arithmetic, comparisons,
/// timer delays, `int` message fields).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IntFrom {
    Int,
    /// `true` → 1, `false` → 0.
    Bool,
}

/// How a value reaches a key-builtin operand (`ring_dist`,
/// `ring_between`, `digit`, `prefix_len`, `owner_of`), an
/// `Option<MacedonKey>`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeyOptFrom {
    Key,
    /// Hashed under the world's addressing mode; null stays null.
    Node,
    /// Truncated onto the 2^32 ring.
    Int,
    /// Always `None`.
    Null,
}

/// Truthiness of a value of each type (`if`, `!`, `&&`, `||`, `bool`
/// message fields).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Truth {
    /// Non-zero.
    Int,
    Bool,
    /// Non-null.
    Node,
    /// Non-null and non-empty.
    Payload,
    /// Keys and lists are always true.
    Always,
    /// `null` is always false.
    Never,
}

/// How `a == b` compares two types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EqCase {
    /// Both operands have the same type: plain equality (two nulls, two
    /// nulls-or-nodes, two payloads included).
    Same,
    /// `int == bool` by truthiness (`2 == true`).
    IntBool,
    BoolInt,
    /// `node == null`: is the node null?
    NodeNull,
    NullNode,
    /// `key == node` by raw id (the node is not hashed); a null node
    /// equals no key.
    KeyNode,
    NodeKey,
    /// `payload == null`: always `false`, since no payload value (API
    /// payload, message field or variable) is null.
    PayloadNull,
    NullPayload,
    /// No rule relates the two types: always false.
    Unrelated,
}

impl Ty {
    /// The type of a declared field or variable.
    pub fn of_field(kind: FieldKind) -> Ty {
        match kind {
            FieldKind::Int => Ty::Int,
            FieldKind::Bool => Ty::Bool,
            FieldKind::Node => Ty::Node,
            FieldKind::Key => Ty::Key,
            FieldKind::Payload => Ty::Payload,
            FieldKind::Nodes => Ty::List,
        }
    }

    /// The `int` coercion; `None` is a type error.
    pub fn as_int(self) -> Option<IntFrom> {
        match self {
            Ty::Int => Some(IntFrom::Int),
            Ty::Bool => Some(IntFrom::Bool),
            _ => None,
        }
    }

    /// The key-builtin operand coercion; `None` is a type error.
    pub fn key_opt(self) -> Option<KeyOptFrom> {
        match self {
            Ty::Key => Some(KeyOptFrom::Key),
            Ty::Node => Some(KeyOptFrom::Node),
            Ty::Int => Some(KeyOptFrom::Int),
            Ty::Null => Some(KeyOptFrom::Null),
            Ty::Bool | Ty::Payload | Ty::List => None,
        }
    }

    /// Truthiness (total: every type has one).
    pub fn truthiness(self) -> Truth {
        match self {
            Ty::Int => Truth::Int,
            Ty::Bool => Truth::Bool,
            Ty::Node => Truth::Node,
            Ty::Payload => Truth::Payload,
            Ty::Key | Ty::List => Truth::Always,
            Ty::Null => Truth::Never,
        }
    }

    /// Does a node-position operand (`neighbor_add`, `monitor`, a node
    /// message field, a wire destination) accept this type?
    pub fn is_node_like(self) -> bool {
        matches!(self, Ty::Node | Ty::Null)
    }

    /// The equality case table (total: unrelated types compare false).
    pub fn eq_case(a: Ty, b: Ty) -> EqCase {
        match (a, b) {
            (a, b) if a == b => EqCase::Same,
            (Ty::Int, Ty::Bool) => EqCase::IntBool,
            (Ty::Bool, Ty::Int) => EqCase::BoolInt,
            (Ty::Node, Ty::Null) => EqCase::NodeNull,
            (Ty::Null, Ty::Node) => EqCase::NullNode,
            (Ty::Key, Ty::Node) => EqCase::KeyNode,
            (Ty::Node, Ty::Key) => EqCase::NodeKey,
            (Ty::Payload, Ty::Null) => EqCase::PayloadNull,
            (Ty::Null, Ty::Payload) => EqCase::NullPayload,
            _ => EqCase::Unrelated,
        }
    }

    /// Lower-case name, for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Ty::Int => "int",
            Ty::Bool => "bool",
            Ty::Key => "key",
            Ty::Node => "node",
            Ty::Payload => "payload",
            Ty::List => "neighbor list",
            Ty::Null => "null",
        }
    }
}

// ---------------------------------------------------------------------------
// Typed trees
// ---------------------------------------------------------------------------

/// Arithmetic on ints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Integer comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    Eq,
    Lt,
    Gt,
    Le,
    Ge,
}

/// An expression of static type `int`. `Var` and `Field` name a
/// [`Slots`] slot.
#[derive(Clone, Debug)]
pub enum IntExpr {
    Lit(i64),
    /// A declared constant: its value, and its index in
    /// [`crate::IrSpec::vars`] (the code generator prints the name).
    Const(i64, u16),
    Var(u16),
    Field(u16),
    /// A `bool` in an int position: 0 or 1.
    OfBool(Box<BoolExpr>),
    NeighborSize(u16),
    /// Engine-measured smoothed RTT to a peer, ms (0 for null or
    /// unmeasured).
    Rtt(Box<NodeExpr>),
    /// Engine-measured inbound goodput from a peer, kbit/s (0 for null
    /// or unmeasured).
    Goodput(Box<NodeExpr>),
    RingDist(Box<[KeyOptExpr; 2]>),
    Digit(Box<KeyOptExpr>, Box<IntExpr>, Box<IntExpr>),
    PrefixLen(Box<[KeyOptExpr; 2]>),
    Neg(Box<IntExpr>),
    /// Both operands are evaluated before either is used.
    Arith(ArithOp, Box<[IntExpr; 2]>),
}

/// An expression of static type `bool`. `Var` and `Field` name a
/// [`Slots`] slot. `And`/`Or` evaluate both operands (the language has
/// no short circuit).
#[derive(Clone, Debug)]
pub enum BoolExpr {
    Lit(bool),
    Var(u16),
    Field(u16),
    Not(Box<BoolExpr>),
    And(Box<BoolExpr>, Box<BoolExpr>),
    Or(Box<BoolExpr>, Box<BoolExpr>),
    Cmp(CmpOp, Box<[IntExpr; 2]>),
    /// Truthiness of an int.
    NonZero(Box<IntExpr>),
    /// Truthiness of a node: non-null.
    IsSome(Box<NodeExpr>),
    /// `node == null`.
    IsNull(Box<NodeExpr>),
    /// Truthiness of a payload: non-null and non-empty.
    NonEmpty(Box<PayloadExpr>),
    IsNullPayload(Box<PayloadExpr>),
    EqBool(Box<BoolExpr>, Box<BoolExpr>),
    EqNode(Box<NodeExpr>, Box<NodeExpr>),
    EqKey(Box<KeyExpr>, Box<KeyExpr>),
    /// `key == node` by raw id; `key_first` keeps the source operand
    /// order for evaluation.
    EqKeyNode {
        key: Box<KeyExpr>,
        node: Box<NodeExpr>,
        key_first: bool,
    },
    EqPayload(Box<PayloadExpr>, Box<PayloadExpr>),
    EqList(Box<ListExpr>, Box<ListExpr>),
    NeighborQuery(u16, Box<NodeExpr>),
    RingBetween(Box<KeyOptExpr>, Box<KeyOptExpr>, Box<KeyOptExpr>),
    /// Evaluate the operands for their effects, then yield a constant
    /// (truthiness of a key or list, equality of unrelated types).
    Const(Vec<AnyExpr>, bool),
}

/// An expression of static type `node` or `null`: `Option<NodeId>`.
/// `Var` and `Field` name a [`Slots`] slot.
#[derive(Clone, Debug)]
pub enum NodeExpr {
    Null,
    From,
    Me,
    Bootstrap,
    /// The `routeIP` transition's `dest`.
    ApiDest,
    Var(u16),
    Field(u16),
    NeighborRandom(u16),
    OwnerOf(Box<KeyOptExpr>, u16),
}

/// An expression of static type `key`. `Var` and `Field` name a
/// [`Slots`] slot.
#[derive(Clone, Debug)]
pub enum KeyExpr {
    MyKey,
    /// The `route` transition's `dest`, or a group API's `group`.
    ApiKey,
    Var(u16),
    Field(u16),
    /// `key ± int`, wrapping on the 2^32 ring; both operands are
    /// evaluated before the offset is used.
    Offset {
        key: Box<KeyExpr>,
        by: Box<IntExpr>,
        negate: bool,
    },
}

/// A key-builtin operand: `Option<MacedonKey>` per [`KeyOptFrom`].
#[derive(Clone, Debug)]
pub enum KeyOptExpr {
    Key(KeyExpr),
    Node(NodeExpr),
    Int(IntExpr),
    Null,
}

/// A key in a routing position (`deliver` source, `downcall` group or
/// destination, `key` message field): keys pass through, a node becomes
/// the key with its raw id, and a null node faults the statement.
#[derive(Clone, Debug)]
pub enum KeyArg {
    Key(KeyExpr),
    Node(NodeExpr),
}

/// An expression of static type `payload` (or `null` in a payload
/// position, the empty payload), read by reference. `Var` and `Field`
/// name a [`Slots`] payload slot.
#[derive(Clone, Debug)]
pub enum PayloadExpr {
    Null,
    /// The payload of a `route`/`routeIP`/`multicast`/`anycast`/
    /// `collect` transition.
    Api,
    Var(u16),
    Field(u16),
}

/// A neighbor-list value, read by reference.
#[derive(Clone, Debug)]
pub enum ListExpr {
    /// A neighbor-list slot.
    List(u16),
    /// A list field of the triggering message.
    Field(u16),
}

/// An expression of any type, for positions that accept every type
/// (`trace`, the operands of a constant).
#[derive(Clone, Debug)]
pub enum AnyExpr {
    Int(IntExpr),
    Bool(BoolExpr),
    Key(KeyExpr),
    Node(NodeExpr),
    Payload(PayloadExpr),
    List(ListExpr),
    Null,
}

/// One argument of a send, encoded straight into the wire frame at the
/// field's declared shape.
#[derive(Clone, Debug)]
pub enum SendArg {
    Int(IntExpr),
    Bool(BoolExpr),
    Node(NodeExpr),
    Key(KeyArg),
    Payload(PayloadExpr),
    List(ListExpr),
}

/// A send's destination.
#[derive(Clone, Debug)]
pub enum SendDest {
    /// A host (`null`: routed toward the first key field by a layered
    /// spec, dropped by a lowest-layer one).
    Node(NodeExpr),
    /// A key (layered specs only).
    Key(KeyExpr),
}

// ---------------------------------------------------------------------------
// Typing
// ---------------------------------------------------------------------------

/// APIs whose transitions bind `payload`.
fn binds_payload(api: Option<ApiKind>) -> bool {
    matches!(
        api,
        Some(
            ApiKind::Route
                | ApiKind::RouteIp
                | ApiKind::Multicast
                | ApiKind::Anycast
                | ApiKind::Collect
        )
    )
}

/// APIs whose transitions bind `group`.
fn binds_group(api: Option<ApiKind>) -> bool {
    matches!(
        api,
        Some(
            ApiKind::Multicast
                | ApiKind::Anycast
                | ApiKind::Collect
                | ApiKind::CreateGroup
                | ApiKind::Join
                | ApiKind::Leave
        )
    )
}

/// What `dest`/`group` resolves to in the transition being typed.
enum ApiArgTy {
    Key,
    Node,
    Var(u16),
    Null,
}

/// Types name-resolved [`IrExpr`]s into typed trees, in one transition
/// context: the variable slots, the triggering message's fields, and
/// the triggering API (which binds `dest`, `group` and `payload`). Each
/// method returns the typed tree, or the diagnostic of the first type
/// error it meets.
pub struct Typer<'a> {
    pub vars: &'a [IrVar],
    /// Fields of the triggering message (empty outside `recv`/`forward`).
    pub fields: &'a [IrField],
    /// The triggering API, for `API` transitions.
    pub api: Option<ApiKind>,
}

/// A typed tree, or a type error's diagnostic.
type Typed<T> = Result<T, String>;

/// Constant-fold an int (literals, constants, unary minus): how a
/// divisor is proved nonzero.
fn const_int(e: &IntExpr) -> Option<i64> {
    match e {
        IntExpr::Lit(v) | IntExpr::Const(v, _) => Some(*v),
        IntExpr::Neg(x) => const_int(x).map(i64::wrapping_neg),
        _ => None,
    }
}

impl Typer<'_> {
    fn api_arg(&self, which: ApiArgKind, fallback: Option<u16>) -> ApiArgTy {
        match which {
            ApiArgKind::Dest if self.api == Some(ApiKind::Route) => return ApiArgTy::Key,
            ApiArgKind::Dest if self.api == Some(ApiKind::RouteIp) => return ApiArgTy::Node,
            ApiArgKind::Group if binds_group(self.api) => return ApiArgTy::Key,
            _ => {}
        }
        match fallback {
            Some(slot) => ApiArgTy::Var(slot),
            None => ApiArgTy::Null,
        }
    }

    /// The static type of an expression.
    pub fn ty(&self, e: &IrExpr) -> Ty {
        match e {
            IrExpr::Int(_) => Ty::Int,
            IrExpr::From | IrExpr::Me | IrExpr::Bootstrap => Ty::Node,
            IrExpr::MyKey => Ty::Key,
            IrExpr::Payload if binds_payload(self.api) => Ty::Payload,
            IrExpr::Payload | IrExpr::Null => Ty::Null,
            IrExpr::True | IrExpr::False => Ty::Bool,
            IrExpr::ApiArg { which, fallback } => match self.api_arg(*which, *fallback) {
                ApiArgTy::Key => Ty::Key,
                ApiArgTy::Node => Ty::Node,
                ApiArgTy::Var(slot) => self.vars[slot as usize].ty,
                ApiArgTy::Null => Ty::Null,
            },
            IrExpr::Var(slot) => self.vars[*slot as usize].ty,
            IrExpr::ListValue(_) => Ty::List,
            IrExpr::Field(i) => Ty::of_field(self.fields[*i as usize].kind),
            IrExpr::NeighborSize(_)
            | IrExpr::Rtt(_)
            | IrExpr::Goodput(_)
            | IrExpr::RingDist(..)
            | IrExpr::Digit(..)
            | IrExpr::PrefixLen(..)
            | IrExpr::Neg(_) => Ty::Int,
            IrExpr::NeighborQuery(..) | IrExpr::RingBetween(..) | IrExpr::Not(_) => Ty::Bool,
            IrExpr::NeighborRandom(_) | IrExpr::OwnerOf(..) => Ty::Node,
            IrExpr::Bin(op, a, _) => match op {
                BinOp::Add | BinOp::Sub if self.ty(a) == Ty::Key => Ty::Key,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => Ty::Int,
                _ => Ty::Bool,
            },
        }
    }

    /// `e` in a position of any type.
    pub fn any(&self, e: &IrExpr) -> Typed<AnyExpr> {
        Ok(match self.ty(e) {
            Ty::Int => AnyExpr::Int(self.int(e)?),
            Ty::Bool => AnyExpr::Bool(self.bool(e)?),
            Ty::Key => AnyExpr::Key(self.key(e)?),
            Ty::Node => AnyExpr::Node(self.node(e)?),
            Ty::Payload => AnyExpr::Payload(self.payload(e)),
            Ty::List => AnyExpr::List(self.list(e)),
            Ty::Null => AnyExpr::Null,
        })
    }

    /// `e` in an `int` position ([`Ty::as_int`]).
    pub fn int_arg(&self, e: &IrExpr) -> Typed<IntExpr> {
        let ty = self.ty(e);
        match ty.as_int() {
            Some(IntFrom::Int) => self.int(e),
            Some(IntFrom::Bool) => Ok(IntExpr::OfBool(Box::new(self.bool(e)?))),
            None => Err(format!("expected int, got {}", ty.name())),
        }
    }

    /// `e` as a condition ([`Ty::truthiness`]).
    pub fn cond(&self, e: &IrExpr) -> Typed<BoolExpr> {
        Ok(match self.ty(e).truthiness() {
            Truth::Int => BoolExpr::NonZero(Box::new(self.int(e)?)),
            Truth::Bool => self.bool(e)?,
            Truth::Node => BoolExpr::IsSome(Box::new(self.node(e)?)),
            Truth::Payload => BoolExpr::NonEmpty(Box::new(self.payload(e))),
            Truth::Always => BoolExpr::Const(vec![self.any(e)?], true),
            Truth::Never => BoolExpr::Lit(false),
        })
    }

    /// `e` in a node position (`neighbor_add`, `monitor`, `rtt`, ...).
    pub fn node_arg(&self, e: &IrExpr, what: &str) -> Typed<NodeExpr> {
        let ty = self.ty(e);
        if !ty.is_node_like() {
            return Err(format!("{what} needs a node, got {}", ty.name()));
        }
        self.node(e)
    }

    /// `e` as a key-builtin operand ([`Ty::key_opt`]).
    pub fn key_opt(&self, e: &IrExpr) -> Typed<KeyOptExpr> {
        let ty = self.ty(e);
        Ok(match ty.key_opt() {
            Some(KeyOptFrom::Key) => KeyOptExpr::Key(self.key(e)?),
            Some(KeyOptFrom::Node) => KeyOptExpr::Node(self.node(e)?),
            Some(KeyOptFrom::Int) => KeyOptExpr::Int(self.int(e)?),
            Some(KeyOptFrom::Null) => KeyOptExpr::Null,
            None => return Err(format!("expected key, got {}", ty.name())),
        })
    }

    /// `e` in a routing-key position ([`KeyArg`]).
    pub fn key_arg(&self, e: &IrExpr, what: &str) -> Typed<KeyArg> {
        let ty = self.ty(e);
        Ok(match ty {
            Ty::Key => KeyArg::Key(self.key(e)?),
            Ty::Node | Ty::Null => KeyArg::Node(self.node(e)?),
            _ => return Err(format!("{what}: expected key, got {}", ty.name())),
        })
    }

    /// `e` in a payload position (null is the empty payload).
    pub fn payload_arg(&self, e: &IrExpr, what: &str) -> Typed<PayloadExpr> {
        let ty = self.ty(e);
        match ty {
            Ty::Payload | Ty::Null => Ok(self.payload(e)),
            _ => Err(format!("{what}: expected payload, got {}", ty.name())),
        }
    }

    /// `e` in a neighbor-list position (a whole-list assignment).
    pub fn list_arg(&self, e: &IrExpr, list: &str) -> Typed<ListExpr> {
        let ty = self.ty(e);
        if ty != Ty::List {
            return Err(format!("assigning {} to neighbor list '{list}'", ty.name()));
        }
        Ok(self.list(e))
    }

    /// `var = e;` for variable `var` (an index into `vars`). An `int`
    /// variable takes a `bool` as 0/1; any other type change is an
    /// error.
    pub fn assign(&self, var: u16, e: &IrExpr) -> Typed<IrStmt> {
        let (vty, slot) = (self.vars[var as usize].ty, self.vars[var as usize].slot);
        let ty = self.ty(e);
        Ok(match (vty, ty) {
            (Ty::Int, _) if ty.as_int().is_some() => IrStmt::AssignInt(slot, self.int_arg(e)?),
            (Ty::Bool, Ty::Bool) => IrStmt::AssignBool(slot, self.bool(e)?),
            (Ty::Node, Ty::Node | Ty::Null) => IrStmt::AssignNode(slot, self.node(e)?),
            (Ty::Key, Ty::Key) => IrStmt::AssignKey(slot, self.key(e)?),
            (Ty::Payload, Ty::Payload | Ty::Null) => IrStmt::AssignPayload(slot, self.payload(e)),
            _ => {
                return Err(format!(
                    "cannot assign {} to '{}' of declared type {}",
                    ty.name(),
                    self.vars[var as usize].name,
                    vty.name()
                ))
            }
        })
    }

    /// A send's destination: a node (or null) for every spec, a key for
    /// a layered one.
    pub fn send_dest(&self, e: &IrExpr, layered: bool) -> Typed<SendDest> {
        let ty = self.ty(e);
        Ok(match ty {
            Ty::Node | Ty::Null => SendDest::Node(self.node(e)?),
            Ty::Key if layered => SendDest::Key(self.key(e)?),
            _ => {
                let wanted = if layered { "node/key" } else { "a node" };
                return Err(format!("message dest must be {wanted}, got {}", ty.name()));
            }
        })
    }

    /// `e` as the argument for a message field of shape `kind`.
    pub fn send_arg(&self, e: &IrExpr, kind: FieldKind, field: &str) -> Typed<SendArg> {
        let ty = self.ty(e);
        let fits = match kind {
            FieldKind::Int => ty.as_int().is_some(),
            FieldKind::Bool => true,
            FieldKind::Node => ty.is_node_like(),
            FieldKind::Key => matches!(ty, Ty::Key | Ty::Node | Ty::Null),
            FieldKind::Payload => matches!(ty, Ty::Payload | Ty::Null),
            FieldKind::Nodes => ty == Ty::List,
        };
        if !fits {
            return Err(format!(
                "field {field}: cannot encode {} as {kind:?}",
                ty.name()
            ));
        }
        Ok(match kind {
            FieldKind::Int => SendArg::Int(self.int_arg(e)?),
            FieldKind::Bool => SendArg::Bool(self.cond(e)?),
            FieldKind::Node => SendArg::Node(self.node(e)?),
            FieldKind::Key => SendArg::Key(self.key_arg(e, field)?),
            FieldKind::Payload => SendArg::Payload(self.payload(e)),
            FieldKind::Nodes => SendArg::List(self.list(e)),
        })
    }

    // ---- one constructor per static type -------------------------------
    //
    // Each is called only on an expression of its own type (`node` and
    // `payload` also on `null`).

    fn int(&self, e: &IrExpr) -> Typed<IntExpr> {
        Ok(match e {
            IrExpr::Int(v) => IntExpr::Lit(*v),
            IrExpr::Var(slot) => self.int_var(*slot),
            IrExpr::ApiArg { which, fallback } => match self.api_arg(*which, *fallback) {
                ApiArgTy::Var(slot) => self.int_var(slot),
                _ => unreachable!("an API argument is never an int"),
            },
            IrExpr::Field(i) => IntExpr::Field(self.fields[*i as usize].at),
            IrExpr::NeighborSize(l) => IntExpr::NeighborSize(*l),
            IrExpr::Rtt(p) | IrExpr::Goodput(p) => {
                let rtt = matches!(e, IrExpr::Rtt(_));
                if self.ty(p) == Ty::Null {
                    return Ok(IntExpr::Lit(0));
                }
                let what = if rtt { "rtt(..)" } else { "goodput(..)" };
                let peer = Box::new(self.node_arg(p, what)?);
                if rtt {
                    IntExpr::Rtt(peer)
                } else {
                    IntExpr::Goodput(peer)
                }
            }
            IrExpr::RingDist(a, b) => {
                IntExpr::RingDist(Box::new([self.key_opt(a)?, self.key_opt(b)?]))
            }
            IrExpr::Digit(k, i, base) => IntExpr::Digit(
                Box::new(self.key_opt(k)?),
                Box::new(self.int_arg(i)?),
                Box::new(self.int_arg(base)?),
            ),
            IrExpr::PrefixLen(a, b) => {
                IntExpr::PrefixLen(Box::new([self.key_opt(a)?, self.key_opt(b)?]))
            }
            IrExpr::Neg(x) => IntExpr::Neg(Box::new(self.int_arg(x)?)),
            IrExpr::Bin(op, a, b) => {
                let op = match op {
                    BinOp::Add => ArithOp::Add,
                    BinOp::Sub => ArithOp::Sub,
                    BinOp::Mul => ArithOp::Mul,
                    BinOp::Div => ArithOp::Div,
                    BinOp::Mod => ArithOp::Mod,
                    other => unreachable!("{other:?} is not arithmetic"),
                };
                let ab = self.both_int(a, b)?;
                if matches!(op, ArithOp::Div | ArithOp::Mod) {
                    match const_int(&ab[1]) {
                        Some(0) => return Err("division by constant zero".into()),
                        Some(_) => {}
                        None => {
                            return Err(
                                "division/modulo by a non-constant divisor is not supported".into(),
                            )
                        }
                    }
                }
                IntExpr::Arith(op, Box::new(ab))
            }
            other => unreachable!("not an int expression: {other:?}"),
        })
    }

    /// Both operands of a binary int operator.
    fn both_int(&self, a: &IrExpr, b: &IrExpr) -> Typed<[IntExpr; 2]> {
        Ok([self.int_arg(a)?, self.int_arg(b)?])
    }

    fn bool(&self, e: &IrExpr) -> Typed<BoolExpr> {
        Ok(match e {
            IrExpr::True => BoolExpr::Lit(true),
            IrExpr::False => BoolExpr::Lit(false),
            IrExpr::Var(slot) => BoolExpr::Var(self.vars[*slot as usize].slot),
            IrExpr::ApiArg { which, fallback } => match self.api_arg(*which, *fallback) {
                ApiArgTy::Var(slot) => BoolExpr::Var(self.vars[slot as usize].slot),
                _ => unreachable!("an API argument is never a bool"),
            },
            IrExpr::Field(i) => BoolExpr::Field(self.fields[*i as usize].at),
            IrExpr::NeighborQuery(l, n) => match self.ty(n) {
                Ty::Null => BoolExpr::Lit(false),
                _ => BoolExpr::NeighborQuery(*l, Box::new(self.node_arg(n, "neighbor_query")?)),
            },
            IrExpr::RingBetween(x, lo, hi) => BoolExpr::RingBetween(
                Box::new(self.key_opt(x)?),
                Box::new(self.key_opt(lo)?),
                Box::new(self.key_opt(hi)?),
            ),
            IrExpr::Not(x) => BoolExpr::Not(Box::new(self.cond(x)?)),
            IrExpr::Bin(op, a, b) => match op {
                BinOp::And => BoolExpr::And(Box::new(self.cond(a)?), Box::new(self.cond(b)?)),
                BinOp::Or => BoolExpr::Or(Box::new(self.cond(a)?), Box::new(self.cond(b)?)),
                BinOp::Eq => self.eq(a, b)?,
                BinOp::Ne => BoolExpr::Not(Box::new(self.eq(a, b)?)),
                BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => {
                    let op = match op {
                        BinOp::Lt => CmpOp::Lt,
                        BinOp::Gt => CmpOp::Gt,
                        BinOp::Le => CmpOp::Le,
                        _ => CmpOp::Ge,
                    };
                    BoolExpr::Cmp(op, Box::new(self.both_int(a, b)?))
                }
                other => unreachable!("{other:?} is not boolean"),
            },
            other => unreachable!("not a bool expression: {other:?}"),
        })
    }

    /// `a == b` per [`Ty::eq_case`].
    fn eq(&self, a: &IrExpr, b: &IrExpr) -> Typed<BoolExpr> {
        let (ta, tb) = (self.ty(a), self.ty(b));
        Ok(match Ty::eq_case(ta, tb) {
            EqCase::Same => match ta {
                Ty::Int => BoolExpr::Cmp(CmpOp::Eq, Box::new([self.int(a)?, self.int(b)?])),
                Ty::Bool => BoolExpr::EqBool(Box::new(self.bool(a)?), Box::new(self.bool(b)?)),
                Ty::Key => BoolExpr::EqKey(Box::new(self.key(a)?), Box::new(self.key(b)?)),
                Ty::Node => BoolExpr::EqNode(Box::new(self.node(a)?), Box::new(self.node(b)?)),
                Ty::Payload => {
                    BoolExpr::EqPayload(Box::new(self.payload(a)), Box::new(self.payload(b)))
                }
                Ty::List => BoolExpr::EqList(Box::new(self.list(a)), Box::new(self.list(b))),
                Ty::Null => BoolExpr::Lit(true),
            },
            EqCase::IntBool => BoolExpr::EqBool(
                Box::new(BoolExpr::NonZero(Box::new(self.int(a)?))),
                Box::new(self.bool(b)?),
            ),
            EqCase::BoolInt => BoolExpr::EqBool(
                Box::new(self.bool(a)?),
                Box::new(BoolExpr::NonZero(Box::new(self.int(b)?))),
            ),
            EqCase::NodeNull => BoolExpr::IsNull(Box::new(self.node(a)?)),
            EqCase::NullNode => BoolExpr::IsNull(Box::new(self.node(b)?)),
            EqCase::KeyNode => BoolExpr::EqKeyNode {
                key: Box::new(self.key(a)?),
                node: Box::new(self.node(b)?),
                key_first: true,
            },
            EqCase::NodeKey => BoolExpr::EqKeyNode {
                key: Box::new(self.key(b)?),
                node: Box::new(self.node(a)?),
                key_first: false,
            },
            EqCase::PayloadNull => BoolExpr::IsNullPayload(Box::new(self.payload(a))),
            EqCase::NullPayload => BoolExpr::IsNullPayload(Box::new(self.payload(b))),
            EqCase::Unrelated => BoolExpr::Const(vec![self.any(a)?, self.any(b)?], false),
        })
    }

    fn node(&self, e: &IrExpr) -> Typed<NodeExpr> {
        Ok(match e {
            IrExpr::Null | IrExpr::Payload => NodeExpr::Null,
            IrExpr::From => NodeExpr::From,
            IrExpr::Me => NodeExpr::Me,
            IrExpr::Bootstrap => NodeExpr::Bootstrap,
            IrExpr::Var(slot) => NodeExpr::Var(self.vars[*slot as usize].slot),
            IrExpr::ApiArg { which, fallback } => match self.api_arg(*which, *fallback) {
                ApiArgTy::Node => NodeExpr::ApiDest,
                ApiArgTy::Var(slot) => NodeExpr::Var(self.vars[slot as usize].slot),
                ApiArgTy::Null => NodeExpr::Null,
                ApiArgTy::Key => unreachable!("a key API argument is not a node"),
            },
            IrExpr::Field(i) => NodeExpr::Field(self.fields[*i as usize].at),
            IrExpr::NeighborRandom(l) => NodeExpr::NeighborRandom(*l),
            IrExpr::OwnerOf(k, l) => NodeExpr::OwnerOf(Box::new(self.key_opt(k)?), *l),
            other => unreachable!("not a node expression: {other:?}"),
        })
    }

    /// An int variable; a constant (never assigned) reads as its value.
    fn int_var(&self, slot: u16) -> IntExpr {
        let var = &self.vars[slot as usize];
        match var.constant {
            Some(v) => IntExpr::Const(v, slot),
            None => IntExpr::Var(var.slot),
        }
    }

    fn key(&self, e: &IrExpr) -> Typed<KeyExpr> {
        Ok(match e {
            IrExpr::MyKey => KeyExpr::MyKey,
            IrExpr::Var(slot) => KeyExpr::Var(self.vars[*slot as usize].slot),
            IrExpr::ApiArg { which, fallback } => match self.api_arg(*which, *fallback) {
                ApiArgTy::Key => KeyExpr::ApiKey,
                ApiArgTy::Var(slot) => KeyExpr::Var(self.vars[slot as usize].slot),
                _ => unreachable!("not a key API argument"),
            },
            IrExpr::Field(i) => KeyExpr::Field(self.fields[*i as usize].at),
            IrExpr::Bin(op @ (BinOp::Add | BinOp::Sub), k, by) => KeyExpr::Offset {
                key: Box::new(self.key(k)?),
                by: Box::new(self.int_arg(by)?),
                negate: *op == BinOp::Sub,
            },
            other => unreachable!("not a key expression: {other:?}"),
        })
    }

    fn payload(&self, e: &IrExpr) -> PayloadExpr {
        match e {
            IrExpr::Payload if binds_payload(self.api) => PayloadExpr::Api,
            IrExpr::Var(slot) => PayloadExpr::Var(self.vars[*slot as usize].slot),
            IrExpr::ApiArg { which, fallback } => match self.api_arg(*which, *fallback) {
                ApiArgTy::Var(slot) => PayloadExpr::Var(self.vars[slot as usize].slot),
                _ => PayloadExpr::Null,
            },
            IrExpr::Field(i) => PayloadExpr::Field(self.fields[*i as usize].at),
            _ => PayloadExpr::Null,
        }
    }

    fn list(&self, e: &IrExpr) -> ListExpr {
        match e {
            IrExpr::ListValue(l) => ListExpr::List(*l),
            IrExpr::Field(i) => ListExpr::Field(self.fields[*i as usize].at),
            other => unreachable!("not a list expression: {other:?}"),
        }
    }
}

/// The word a null node is stored as.
const NULL_NODE: u64 = u64::MAX;

/// Typed scalar storage: one 64-bit word per `int`, `bool`, `node` or
/// `key` slot, read and written at the slot's static type (which
/// lowering fixed), plus a vector of payloads. One buffer holds all of
/// an agent's variables ([`crate::IrSpec::slots`] is their initial
/// image), or all of a decoded message's scalar fields, so an event
/// reading several of them touches one allocation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Slots {
    words: Vec<u64>,
    payloads: Vec<Bytes>,
}

impl Slots {
    #[inline]
    pub fn int(&self, s: u16) -> i64 {
        self.words[s as usize] as i64
    }

    #[inline]
    pub fn bool(&self, s: u16) -> bool {
        self.words[s as usize] != 0
    }

    #[inline]
    pub fn node(&self, s: u16) -> Option<NodeId> {
        let w = self.words[s as usize];
        (w != NULL_NODE).then_some(NodeId(w as u32))
    }

    #[inline]
    pub fn key(&self, s: u16) -> MacedonKey {
        MacedonKey(self.words[s as usize] as u32)
    }

    /// Payload slots are numbered apart from the word slots.
    #[inline]
    pub fn payload(&self, s: u16) -> &Bytes {
        &self.payloads[s as usize]
    }

    pub fn set_int(&mut self, s: u16, v: i64) {
        self.words[s as usize] = v as u64;
    }

    pub fn set_bool(&mut self, s: u16, v: bool) {
        self.words[s as usize] = v as u64;
    }

    pub fn set_node(&mut self, s: u16, v: Option<NodeId>) {
        self.words[s as usize] = v.map_or(NULL_NODE, |n| n.0 as u64);
    }

    pub fn set_key(&mut self, s: u16, v: MacedonKey) {
        self.words[s as usize] = v.0 as u64;
    }

    pub fn set_payload(&mut self, s: u16, v: Bytes) {
        self.payloads[s as usize] = v;
    }

    /// Append a slot of type `ty` holding its default — 0, `false`,
    /// null, key 0, the empty payload — and return its index. `List` and
    /// `Null` have no scalar storage (index 0, never read).
    pub fn push(&mut self, ty: Ty) -> u16 {
        let (index, word) = match ty {
            Ty::Payload => {
                self.payloads.push(Bytes::new());
                return (self.payloads.len() - 1) as u16;
            }
            Ty::List | Ty::Null => return 0,
            Ty::Node => (self.words.len(), NULL_NODE),
            Ty::Int | Ty::Bool | Ty::Key => (self.words.len(), 0),
        };
        self.words.push(word);
        index as u16
    }

    /// Append a decoded field value (declaration order fills the slots
    /// lowering numbered with [`Slots::push`]).
    pub fn push_int(&mut self, v: i64) {
        self.words.push(v as u64);
    }

    pub fn push_bool(&mut self, v: bool) {
        self.words.push(v as u64);
    }

    pub fn push_node(&mut self, v: Option<NodeId>) {
        self.words.push(v.map_or(NULL_NODE, |n| n.0 as u64));
    }

    pub fn push_key(&mut self, v: MacedonKey) {
        self.words.push(v.0 as u64);
    }

    pub fn push_payload(&mut self, v: Bytes) {
        self.payloads.push(v);
    }

    /// Empty the storage, keeping the allocations.
    pub fn clear(&mut self) {
        self.words.clear();
        self.payloads.clear();
    }
}
