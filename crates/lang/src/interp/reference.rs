//! The dynamically typed `Value` evaluator the interpreter ran before
//! expressions were typed at lowering, kept as the reference the typed
//! evaluators must equal: random well-typed expression trees over
//! random variables, fields and lists give the same value and the same
//! RNG draws from both, and the reference never faults on one.

use super::*;
use crate::ast::BinOp;
use crate::compile;
use crate::ir::{ApiArgKind, IrExpr, IrVar, Typer};
use macedon_core::{Addressing, NullApp, SimRng, Stack, Time};
use std::collections::BTreeSet;

impl Value {
    pub(super) fn truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Bool(b) => *b,
            Value::Node(_) | Value::Key(_) | Value::List(_) => true,
            Value::Bytes(b) => !b.is_empty(),
            Value::Null => false,
        }
    }

    fn as_int(&self) -> Result<i64, String> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(format!("expected int, got {other:?}")),
        }
    }

    fn as_key_opt(&self, mode: Addressing) -> Result<Option<MacedonKey>, String> {
        match self {
            Value::Key(k) => Ok(Some(*k)),
            Value::Node(n) => Ok(Some(MacedonKey::of_node(*n, mode))),
            Value::Int(v) => Ok(Some(MacedonKey(*v as u32))),
            Value::Null => Ok(None),
            other => Err(format!("expected key, got {other:?}")),
        }
    }
}

pub(super) fn values_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Bool(y)) => (*x != 0) == *y,
        (Value::Bool(x), Value::Int(y)) => *x == (*y != 0),
        (Value::Node(n), Value::Key(k)) | (Value::Key(k), Value::Node(n)) => n.0 == k.0,
        _ => a == b,
    }
}

/// Everything an expression reads, as `Value`s: variables by
/// [`IrSpec::vars`] index, fields by declaration position.
#[derive(Clone, Debug)]
struct Env {
    vars: Vec<Value>,
    fields: Vec<Value>,
    lists: Vec<Vec<NodeId>>,
    from: Option<NodeId>,
    bootstrap: Option<NodeId>,
    payload: Option<Bytes>,
    api_dest: Option<Value>,
    api_group: Option<Value>,
}

/// The reference evaluator. `le_as_lt` plants a wrong comparison, to
/// show the property notices one.
fn eval(env: &Env, ctx: &mut Ctx, e: &IrExpr, le_as_lt: bool) -> Result<Value, String> {
    let ev = |e: &IrExpr, ctx: &mut Ctx| eval(env, ctx, e, le_as_lt);
    Ok(match e {
        IrExpr::Int(v) => Value::Int(*v),
        IrExpr::From => env.from.map(Value::Node).unwrap_or(Value::Null),
        IrExpr::Me => Value::Node(ctx.me),
        IrExpr::MyKey => Value::Key(ctx.my_key),
        IrExpr::Bootstrap => env.bootstrap.map(Value::Node).unwrap_or(Value::Null),
        IrExpr::Payload => env.payload.clone().map(Value::Bytes).unwrap_or(Value::Null),
        IrExpr::Null => Value::Null,
        IrExpr::True => Value::Bool(true),
        IrExpr::False => Value::Bool(false),
        IrExpr::ApiArg { which, fallback } => {
            let bound = match which {
                ApiArgKind::Dest => &env.api_dest,
                ApiArgKind::Group => &env.api_group,
            };
            bound
                .clone()
                .or_else(|| fallback.map(|s| env.vars[s as usize].clone()))
                .unwrap_or(Value::Null)
        }
        IrExpr::Var(slot) => env.vars[*slot as usize].clone(),
        IrExpr::ListValue(slot) => Value::List(env.lists[*slot as usize].clone()),
        IrExpr::Field(i) => env.fields[*i as usize].clone(),
        IrExpr::NeighborSize(slot) => Value::Int(env.lists[*slot as usize].len() as i64),
        IrExpr::NeighborQuery(slot, e) => match ev(e, ctx)? {
            Value::Node(n) => Value::Bool(env.lists[*slot as usize].contains(&n)),
            Value::Null => Value::Bool(false),
            other => return Err(format!("neighbor_query needs node, got {other:?}")),
        },
        IrExpr::NeighborRandom(slot) => {
            let l = &env.lists[*slot as usize];
            if l.is_empty() {
                Value::Null
            } else {
                Value::Node(l[ctx.rng.index(l.len())])
            }
        }
        IrExpr::Rtt(e) => match ev(e, ctx)? {
            Value::Node(n) => Value::Int(ctx.rtt_ms(n)),
            Value::Null => Value::Int(0),
            other => return Err(format!("rtt(..) needs a node, got {other:?}")),
        },
        IrExpr::Goodput(e) => match ev(e, ctx)? {
            Value::Node(n) => Value::Int(ctx.goodput_kbps(n)),
            Value::Null => Value::Int(0),
            other => return Err(format!("goodput(..) needs a node, got {other:?}")),
        },
        IrExpr::RingDist(a, b) => {
            let a = ev(a, ctx)?.as_key_opt(ctx.addressing)?;
            let b = ev(b, ctx)?.as_key_opt(ctx.addressing)?;
            Value::Int(key::dsl_ring_dist(a, b))
        }
        IrExpr::RingBetween(x, lo, hi) => {
            let x = ev(x, ctx)?.as_key_opt(ctx.addressing)?;
            let lo = ev(lo, ctx)?.as_key_opt(ctx.addressing)?;
            let hi = ev(hi, ctx)?.as_key_opt(ctx.addressing)?;
            Value::Bool(key::dsl_ring_between(x, lo, hi))
        }
        IrExpr::Digit(k, i, base) => {
            let k = ev(k, ctx)?.as_key_opt(ctx.addressing)?;
            let i = ev(i, ctx)?.as_int()?;
            let base = ev(base, ctx)?.as_int()?;
            Value::Int(key::dsl_digit(k, i, base))
        }
        IrExpr::PrefixLen(a, b) => {
            let a = ev(a, ctx)?.as_key_opt(ctx.addressing)?;
            let b = ev(b, ctx)?.as_key_opt(ctx.addressing)?;
            Value::Int(key::dsl_prefix_len(a, b))
        }
        IrExpr::OwnerOf(k, slot) => {
            let k = ev(k, ctx)?.as_key_opt(ctx.addressing)?;
            match key::dsl_owner_of(k, &env.lists[*slot as usize], ctx.addressing) {
                Some(n) => Value::Node(n),
                None => Value::Null,
            }
        }
        IrExpr::Not(e) => Value::Bool(!ev(e, ctx)?.truthy()),
        IrExpr::Neg(e) => Value::Int(ev(e, ctx)?.as_int()?.wrapping_neg()),
        IrExpr::Bin(op, a, b) => {
            let a = ev(a, ctx)?;
            let b = ev(b, ctx)?;
            match op {
                BinOp::And => Value::Bool(a.truthy() && b.truthy()),
                BinOp::Or => Value::Bool(a.truthy() || b.truthy()),
                BinOp::Eq => Value::Bool(values_eq(&a, &b)),
                BinOp::Ne => Value::Bool(!values_eq(&a, &b)),
                BinOp::Lt => Value::Bool(a.as_int()? < b.as_int()?),
                BinOp::Gt => Value::Bool(a.as_int()? > b.as_int()?),
                BinOp::Le if le_as_lt => Value::Bool(a.as_int()? < b.as_int()?),
                BinOp::Le => Value::Bool(a.as_int()? <= b.as_int()?),
                BinOp::Ge => Value::Bool(a.as_int()? >= b.as_int()?),
                BinOp::Add => match &a {
                    Value::Key(k) => Value::Key(key::dsl_key_add(*k, b.as_int()?)),
                    _ => Value::Int(a.as_int()?.wrapping_add(b.as_int()?)),
                },
                BinOp::Sub => match &a {
                    Value::Key(k) => Value::Key(key::dsl_key_add(*k, b.as_int()?.wrapping_neg())),
                    _ => Value::Int(a.as_int()?.wrapping_sub(b.as_int()?)),
                },
                BinOp::Mul => Value::Int(a.as_int()?.wrapping_mul(b.as_int()?)),
                BinOp::Div => {
                    let d = b.as_int()?;
                    if d == 0 {
                        return Err("division by zero".into());
                    }
                    Value::Int(a.as_int()?.wrapping_div(d))
                }
                BinOp::Mod => {
                    let d = b.as_int()?;
                    if d == 0 {
                        return Err("modulo by zero".into());
                    }
                    Value::Int(a.as_int()?.wrapping_rem(d))
                }
            }
        }
    })
}

// ---------------------------------------------------------------------------
// The differential property
// ---------------------------------------------------------------------------

/// Every variable and field type, two neighbor lists.
const DIFF: &str = r#"
    protocol diff;
    addressing hash;
    constants { K = 3; }
    neighbor_types { peer 8 { } }
    transports { TCP C; }
    messages { C m { int fi; bool fb; node fn1; key fk; payload fp; peer fl; node fn2; key fk2; } }
    state_variables { peer l0; peer l1; int vi; int vj; bool vb; node vn; node vm; key vk; payload vp; }
    transitions { any recv m { } }
"#;

/// Run `f` with a live `Ctx` (node 3, hash addressing, seeded RNG).
fn with_ctx(f: impl FnOnce(&mut Ctx) + Send + 'static) {
    type Job = Box<dyn FnOnce(&mut Ctx) + Send>;
    struct Probe(Option<Job>);
    impl Agent for Probe {
        fn protocol_id(&self) -> ProtocolId {
            0x7001
        }
        fn name(&self) -> &'static str {
            "probe"
        }
        fn init(&mut self, _: &mut Ctx) {}
        fn downcall(&mut self, _: &mut Ctx, _: DownCall) {}
        fn recv(&mut self, _: &mut Ctx, _: NodeId, _: Bytes) {}
        fn timer(&mut self, ctx: &mut Ctx, _: u16) {
            if let Some(job) = self.0.take() {
                job(ctx);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let me = NodeId(3);
    let mut stack = Stack::new(
        me,
        MacedonKey::of_node(me, Addressing::Hash),
        vec![Box::new(Probe(Some(Box::new(f))))],
        Box::new(NullApp),
        SimRng::new(7),
    );
    stack.timer(Time::ZERO, 0, 0, &mut Vec::new());
}

/// Random programs and environments over [`DIFF`].
struct Gen<'a> {
    rng: SimRng,
    ir: &'a IrSpec,
    api: Option<ApiKind>,
}

const APIS: [Option<ApiKind>; 6] = [
    None,
    Some(ApiKind::Route),
    Some(ApiKind::RouteIp),
    Some(ApiKind::Multicast),
    Some(ApiKind::Join),
    Some(ApiKind::Init),
];

const TYS: [Ty; 7] = [
    Ty::Int,
    Ty::Bool,
    Ty::Key,
    Ty::Node,
    Ty::Payload,
    Ty::List,
    Ty::Null,
];

impl Gen<'_> {
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        *self.rng.choose(xs)
    }

    fn node(&mut self) -> NodeId {
        NodeId(1 + self.rng.index(5) as u32)
    }

    fn node_or_null(&mut self) -> Option<NodeId> {
        (self.rng.index(4) > 0).then(|| self.node())
    }

    /// A key that sometimes equals a node's raw id or hashed key.
    fn key(&mut self) -> MacedonKey {
        let n = self.node();
        match self.rng.index(3) {
            0 => MacedonKey(n.0),
            1 => MacedonKey::of_node(n, Addressing::Hash),
            _ => MacedonKey(self.rng.next_u32()),
        }
    }

    fn small_int(&mut self) -> i64 {
        self.rng.index(12) as i64 - 3
    }

    fn bytes(&mut self) -> Bytes {
        Bytes::from(vec![7u8; self.rng.index(3)])
    }

    fn value(&mut self, ty: Ty) -> Value {
        match ty {
            Ty::Int => Value::Int(self.small_int()),
            Ty::Bool => Value::Bool(self.rng.index(2) == 0),
            Ty::Node => Value::of_node(self.node_or_null()),
            Ty::Key => Value::Key(self.key()),
            // No payload value is null.
            Ty::Payload => Value::Bytes(self.bytes()),
            Ty::List => Value::List((0..self.rng.index(4)).map(|_| self.node()).collect()),
            Ty::Null => Value::Null,
        }
    }

    fn env(&mut self) -> Env {
        let ir = self.ir;
        let vars = ir
            .vars
            .iter()
            .map(|v: &IrVar| match v.name.as_str() {
                "K" => Value::Int(3),
                _ => self.value(v.ty),
            })
            .collect();
        let fields = ir.messages[0]
            .fields
            .iter()
            .map(|f| self.value(Ty::of_field(f.kind)))
            .collect();
        let lists = (0..ir.lists.len())
            .map(|_| (0..self.rng.index(5)).map(|_| self.node()).collect())
            .collect();
        let api = self.api;
        let pays = matches!(
            api,
            Some(ApiKind::Route | ApiKind::RouteIp | ApiKind::Multicast)
        );
        Env {
            vars,
            fields,
            lists,
            from: self.node_or_null(),
            bootstrap: self.node_or_null(),
            payload: pays.then(|| self.bytes()),
            api_dest: match api {
                Some(ApiKind::Route) => Some(Value::Key(self.key())),
                Some(ApiKind::RouteIp) => Some(Value::Node(self.node())),
                _ => None,
            },
            api_group: matches!(api, Some(ApiKind::Multicast | ApiKind::Join))
                .then(|| Value::Key(self.key())),
        }
    }

    fn vars_of(&self, ty: Ty) -> Vec<u16> {
        (0..self.ir.vars.len() as u16)
            .filter(|&i| self.ir.vars[i as usize].ty == ty)
            .collect()
    }

    fn fields_of(&self, ty: Ty) -> Vec<u16> {
        (0..self.ir.messages[0].fields.len() as u16)
            .filter(|&i| Ty::of_field(self.ir.messages[0].fields[i as usize].kind) == ty)
            .collect()
    }

    fn list(&mut self) -> u16 {
        self.rng.index(self.ir.lists.len()) as u16
    }

    /// `dest`/`group` as the type it binds to here, falling back to a
    /// variable of type `ty` (or to null).
    fn api_arg(&mut self, ty: Ty) -> Option<IrExpr> {
        let dest = match self.api {
            Some(ApiKind::Route) => Some(Ty::Key),
            Some(ApiKind::RouteIp) => Some(Ty::Node),
            _ => None,
        };
        let group = matches!(self.api, Some(ApiKind::Multicast | ApiKind::Join)).then_some(Ty::Key);
        let mut options = Vec::new();
        for (which, bound) in [(ApiArgKind::Dest, dest), (ApiArgKind::Group, group)] {
            match bound {
                Some(b) if b == ty => options.push(IrExpr::ApiArg {
                    which,
                    fallback: None,
                }),
                Some(_) => {}
                None if ty == Ty::Null => options.push(IrExpr::ApiArg {
                    which,
                    fallback: None,
                }),
                None => {
                    for v in self.vars_of(ty) {
                        options.push(IrExpr::ApiArg {
                            which,
                            fallback: Some(v),
                        });
                    }
                }
            }
        }
        (!options.is_empty()).then(|| options.swap_remove(self.rng.index(options.len())))
    }

    fn leaf(&mut self, ty: Ty) -> IrExpr {
        let mut options: Vec<IrExpr> = Vec::new();
        options.extend(self.vars_of(ty).into_iter().map(IrExpr::Var));
        options.extend(self.fields_of(ty).into_iter().map(IrExpr::Field));
        options.extend(self.api_arg(ty));
        let pays = matches!(
            self.api,
            Some(ApiKind::Route | ApiKind::RouteIp | ApiKind::Multicast)
        );
        match ty {
            Ty::Int => {
                let v = self.small_int();
                options.push(IrExpr::Int(v));
                options.push(IrExpr::NeighborSize(self.list()));
            }
            Ty::Bool => options.extend([IrExpr::True, IrExpr::False]),
            Ty::Node => {
                options.extend([IrExpr::From, IrExpr::Me, IrExpr::Bootstrap]);
                options.push(IrExpr::NeighborRandom(self.list()));
            }
            Ty::Key => options.push(IrExpr::MyKey),
            Ty::Payload if pays => options.push(IrExpr::Payload),
            Ty::Null if !pays => options.extend([IrExpr::Null, IrExpr::Payload]),
            Ty::Null => options.push(IrExpr::Null),
            Ty::List => options.push(IrExpr::ListValue(self.list())),
            Ty::Payload => {}
        }
        options.swap_remove(self.rng.index(options.len()))
    }

    fn boxed(&mut self, ty: Ty, depth: u32) -> Box<IrExpr> {
        Box::new(self.expr(ty, depth))
    }

    fn any_ty(&mut self) -> Ty {
        self.pick(&TYS)
    }

    fn int_like(&mut self, depth: u32) -> Box<IrExpr> {
        let ty = self.pick(&[Ty::Int, Ty::Int, Ty::Bool]);
        self.boxed(ty, depth)
    }

    fn key_opt(&mut self, depth: u32) -> Box<IrExpr> {
        let ty = self.pick(&[Ty::Key, Ty::Node, Ty::Int, Ty::Null]);
        self.boxed(ty, depth)
    }

    fn node_like(&mut self, depth: u32) -> Box<IrExpr> {
        let ty = self.pick(&[Ty::Node, Ty::Node, Ty::Null]);
        self.boxed(ty, depth)
    }

    /// A random expression of static type `ty`, at most `depth` deep.
    fn expr(&mut self, ty: Ty, depth: u32) -> IrExpr {
        if depth == 0 || self.rng.index(3) == 0 {
            return self.leaf(ty);
        }
        let d = depth - 1;
        match ty {
            Ty::Int => match self.rng.index(9) {
                0 => IrExpr::Rtt(self.node_like(d)),
                1 => IrExpr::Goodput(self.node_like(d)),
                2 => IrExpr::RingDist(self.key_opt(d), self.key_opt(d)),
                3 => IrExpr::Digit(self.key_opt(d), self.int_like(d), self.int_like(d)),
                4 => IrExpr::PrefixLen(self.key_opt(d), self.key_opt(d)),
                5 => IrExpr::Neg(self.int_like(d)),
                // Products of leaves only: nothing overflows.
                6 => IrExpr::Bin(BinOp::Mul, self.int_like(0), self.int_like(0)),
                7 => {
                    let op = self.pick(&[BinOp::Add, BinOp::Sub]);
                    IrExpr::Bin(op, self.int_like(d), self.int_like(d))
                }
                // A divisor is a nonzero literal or the constant `K`.
                _ => {
                    let op = self.pick(&[BinOp::Div, BinOp::Mod]);
                    let by = match self.rng.index(4) {
                        0 => IrExpr::Var(self.ir.var_slot("K").expect("DIFF declares K")),
                        _ => IrExpr::Int(self.pick(&[-3, -2, -1, 1, 2, 5, 7])),
                    };
                    IrExpr::Bin(op, self.int_like(d), Box::new(by))
                }
            },
            Ty::Bool => match self.rng.index(6) {
                0 => IrExpr::NeighborQuery(self.list(), self.node_like(d)),
                1 => IrExpr::RingBetween(self.key_opt(d), self.key_opt(d), self.key_opt(d)),
                2 => {
                    let t = self.any_ty();
                    IrExpr::Not(self.boxed(t, d))
                }
                3 => {
                    let op = self.pick(&[BinOp::And, BinOp::Or]);
                    let (ta, tb) = (self.any_ty(), self.any_ty());
                    IrExpr::Bin(op, self.boxed(ta, d), self.boxed(tb, d))
                }
                4 => {
                    // Equality across every pair of types, weighted to
                    // the node/key/null/int/bool cases with rules.
                    let scalar = [Ty::Node, Ty::Key, Ty::Null, Ty::Int, Ty::Bool];
                    let (ta, tb) = if self.rng.index(4) == 0 {
                        (self.any_ty(), self.any_ty())
                    } else {
                        (self.pick(&scalar), self.pick(&scalar))
                    };
                    let op = self.pick(&[BinOp::Eq, BinOp::Ne]);
                    IrExpr::Bin(op, self.boxed(ta, d), self.boxed(tb, d))
                }
                _ => {
                    let op = self.pick(&[BinOp::Lt, BinOp::Gt, BinOp::Le, BinOp::Ge]);
                    IrExpr::Bin(op, self.int_like(d), self.int_like(d))
                }
            },
            Ty::Node => IrExpr::OwnerOf(self.key_opt(d), self.list()),
            Ty::Key => {
                let op = self.pick(&[BinOp::Add, BinOp::Sub]);
                IrExpr::Bin(op, self.boxed(Ty::Key, d), self.int_like(d))
            }
            Ty::Payload | Ty::List | Ty::Null => self.leaf(ty),
        }
    }
}

/// The typed side of one case: slots and frame loaded from `env`.
fn typed_state(ir: &Arc<IrSpec>, env: &Env) -> (Core, Frame) {
    let mut core = InterpretedAgent::new(ir.clone(), env.bootstrap).core;
    for (var, v) in ir.vars.iter().zip(&env.vars) {
        let s = var.slot;
        match v {
            Value::Int(x) => core.vars.set_int(s, *x),
            Value::Bool(b) => core.vars.set_bool(s, *b),
            Value::Node(n) if var.ty == Ty::Node => core.vars.set_node(s, Some(*n)),
            Value::Key(k) => core.vars.set_key(s, *k),
            Value::Bytes(b) => core.vars.set_payload(s, b.clone()),
            Value::Null | Value::Node(_) | Value::List(_) => {}
        }
    }
    core.lists = env.lists.clone();
    let mut frame = Frame {
        from: env.from,
        payload: env.payload.clone(),
        ..Default::default()
    };
    for v in &env.fields {
        match v {
            Value::Int(x) => frame.fields.push_int(*x),
            Value::Bool(b) => frame.fields.push_bool(*b),
            Value::Node(n) => frame.fields.push_node(Some(*n)),
            Value::Null => frame.fields.push_node(None),
            Value::Key(k) => frame.fields.push_key(*k),
            Value::Bytes(b) => frame.fields.push_payload(b.clone()),
            Value::List(l) => frame.lists.push(l.clone()),
        }
    }
    match (&env.api_dest, &env.api_group) {
        (Some(Value::Key(k)), _) | (_, Some(Value::Key(k))) => frame.api_key = *k,
        _ => {}
    }
    if let Some(Value::Node(n)) = env.api_dest {
        frame.api_dest = Some(n);
    }
    (core, frame)
}

/// Record what `e` exercises: every `IrExpr` variant, the operand
/// types of each `==`/`!=`, `neighbor_query` of null, `key ± int`.
fn cover(typer: &Typer, e: &IrExpr, seen: &mut BTreeSet<String>) {
    let name = match e {
        IrExpr::Int(_) => "Int",
        IrExpr::From => "From",
        IrExpr::Me => "Me",
        IrExpr::MyKey => "MyKey",
        IrExpr::Bootstrap => "Bootstrap",
        IrExpr::Payload => "Payload",
        IrExpr::Null => "Null",
        IrExpr::True => "True",
        IrExpr::False => "False",
        IrExpr::ApiArg { .. } => "ApiArg",
        IrExpr::Var(_) => "Var",
        IrExpr::ListValue(_) => "ListValue",
        IrExpr::Field(_) => "Field",
        IrExpr::NeighborSize(_) => "NeighborSize",
        IrExpr::NeighborQuery(..) => "NeighborQuery",
        IrExpr::NeighborRandom(_) => "NeighborRandom",
        IrExpr::Rtt(_) => "Rtt",
        IrExpr::Goodput(_) => "Goodput",
        IrExpr::RingDist(..) => "RingDist",
        IrExpr::RingBetween(..) => "RingBetween",
        IrExpr::Digit(..) => "Digit",
        IrExpr::PrefixLen(..) => "PrefixLen",
        IrExpr::OwnerOf(..) => "OwnerOf",
        IrExpr::Not(_) => "Not",
        IrExpr::Neg(_) => "Neg",
        IrExpr::Bin(..) => "Bin",
    };
    seen.insert(name.to_string());
    match e {
        IrExpr::Bin(op @ (BinOp::Eq | BinOp::Ne), a, b) => {
            seen.insert(format!("{op:?} {:?} {:?}", typer.ty(a), typer.ty(b)));
        }
        IrExpr::Bin(op @ (BinOp::Add | BinOp::Sub), a, _) if typer.ty(a) == Ty::Key => {
            seen.insert(format!("Key {op:?} int"));
        }
        IrExpr::NeighborQuery(_, n) if typer.ty(n) == Ty::Null => {
            seen.insert("NeighborQuery null".into());
        }
        _ => {}
    }
    match e {
        IrExpr::NeighborQuery(_, x)
        | IrExpr::Rtt(x)
        | IrExpr::Goodput(x)
        | IrExpr::OwnerOf(x, _)
        | IrExpr::Not(x)
        | IrExpr::Neg(x) => cover(typer, x, seen),
        IrExpr::RingDist(a, b) | IrExpr::PrefixLen(a, b) | IrExpr::Bin(_, a, b) => {
            cover(typer, a, seen);
            cover(typer, b, seen);
        }
        IrExpr::RingBetween(a, b, c) | IrExpr::Digit(a, b, c) => {
            cover(typer, a, seen);
            cover(typer, b, seen);
            cover(typer, c, seen);
        }
        _ => {}
    }
}

/// Run `cases` random expressions through both evaluators: what they
/// exercised, or the first disagreement.
fn differential(seed: u64, cases: usize, le_as_lt: bool) -> Result<BTreeSet<String>, String> {
    let ir = Arc::new(compile(DIFF).unwrap());
    let (tx, rx) = std::sync::mpsc::channel();
    with_ctx(move |ctx| {
        let mut gen = Gen {
            rng: SimRng::new(seed),
            ir: &ir,
            api: None,
        };
        let mut seen = BTreeSet::new();
        for case in 0..cases {
            gen.api = gen.pick(&APIS);
            let want_ty = gen.any_ty();
            let e = gen.expr(want_ty, 4);
            let env = gen.env();
            let typer = Typer {
                vars: &ir.vars,
                fields: &ir.messages[0].fields,
                api: gen.api,
            };
            cover(&typer, &e, &mut seen);
            let ty = typer.ty(&e);
            let before = ctx.rng.clone();
            let want = eval(&env, ctx, &e, le_as_lt);
            let after_reference = std::mem::replace(ctx.rng, before);
            let got = typer.any(&e).map(|typed| {
                let (core, frame) = typed_state(&ir, &env);
                core.eval_any(ctx, &frame, &typed)
            });
            let same_rng = after_reference.clone().next_u64() == ctx.rng.clone().next_u64();
            if ty != want_ty || want != got || !same_rng {
                let _ = tx.send(Err(format!(
                    "case {case} under {:?}: {e:?}\n  typed as {ty:?} (wanted {want_ty:?})\n  \
                     env {env:?}\n  reference {want:?}\n  typed     {got:?}\n  same RNG \
                     draws: {same_rng}",
                    gen.api
                )));
                return;
            }
        }
        let _ = tx.send(Ok(seen));
    });
    rx.recv().expect("the probe ran")
}

#[test]
fn typed_evaluation_matches_the_value_reference() {
    let mut seen = BTreeSet::new();
    for seed in 1..=5 {
        match differential(seed, 5_000, false) {
            Ok(s) => seen.extend(s),
            Err(diff) => panic!("typed and reference evaluators disagree (seed {seed}): {diff}"),
        }
    }
    // The cases exercised every expression form and the equality rules.
    let mut wanted: Vec<String> = [
        "Int",
        "From",
        "Me",
        "MyKey",
        "Bootstrap",
        "Payload",
        "Null",
        "True",
        "False",
        "ApiArg",
        "Var",
        "ListValue",
        "Field",
        "NeighborSize",
        "NeighborQuery",
        "NeighborRandom",
        "Rtt",
        "Goodput",
        "RingDist",
        "RingBetween",
        "Digit",
        "PrefixLen",
        "OwnerOf",
        "Not",
        "Neg",
        "Bin",
        "Key Add int",
        "Key Sub int",
        "NeighborQuery null",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let scalar = [Ty::Node, Ty::Key, Ty::Null, Ty::Int, Ty::Bool];
    for op in ["Eq", "Ne"] {
        for a in scalar {
            for b in scalar {
                wanted.push(format!("{op} {a:?} {b:?}"));
            }
        }
    }
    let missing: Vec<&String> = wanted.iter().filter(|w| !seen.contains(*w)).collect();
    assert!(missing.is_empty(), "never exercised: {missing:?}");
}

#[test]
fn a_wrong_comparison_is_caught() {
    assert!(
        differential(1, 5_000, true).is_err(),
        "a reference evaluating `<=` as `<` went unnoticed"
    );
}
