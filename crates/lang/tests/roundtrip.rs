//! An ad-hoc spec round-trips through codegen: `roundtrip/roundtrip.mac`
//! is not in the bundled roster, and its generated agent
//! (`roundtrip/agent.rs`, written by `regen` and checked by the `golden`
//! test) runs here beside its interpreted twin. Both get identical
//! frames, API calls, timers and failure reports; their effects, wire
//! bytes, trace lines and RNG draws must be equal.
//!
//! The roster and this spec together also print every typed-tree
//! variant the lowering can produce.

#[path = "roundtrip/agent.rs"]
#[allow(unreachable_pub)]
mod agent;

use macedon_core::{
    Agent, AppHandler, Bytes, Ctx, DownCall, ForwardInfo, MacedonKey, NodeId, ProtocolId, SimRng,
    SpanId, Stack, StackEffect, Time, TraceEvent, TraceLevel, UpCall, WireWriter,
};
use macedon_lang::codegen::ROUNDTRIP_SPEC;
use macedon_lang::interp::{protocol_id_of, InterpretedAgent};
use macedon_lang::ir::typed::KeyOptExpr;
use macedon_lang::ir::{
    AnyExpr, BoolExpr, IntExpr, IrDown, IrSpec, IrStmt, KeyArg, KeyExpr, ListExpr, NodeExpr,
    PayloadExpr, SendArg, SendDest,
};
use macedon_lang::{compile, SpecRegistry};
use std::any::Any;
use std::collections::BTreeSet;
use std::sync::Arc;

/// `$tag(&e)` names `e`'s variant with an exhaustive `match`, and `$all`
/// lists every name: a new variant breaks this file's compile until it
/// is named, and then the coverage test until a spec prints it.
macro_rules! variants {
    ($tag:ident, $all:ident, $ty:ty { $($pat:pat => $name:literal,)* }) => {
        fn $tag(e: &$ty) -> &'static str {
            match e {
                $($pat => $name,)*
            }
        }
        const $all: &[&str] = &[$($name),*];
    };
}

variants!(stmt_tag, STMTS, IrStmt {
    IrStmt::If { .. } => "IrStmt::If",
    IrStmt::Return => "IrStmt::Return",
    IrStmt::StateChange(_) => "IrStmt::StateChange",
    IrStmt::TimerResched(..) => "IrStmt::TimerResched",
    IrStmt::TimerCancel(_) => "IrStmt::TimerCancel",
    IrStmt::NeighborAdd(..) => "IrStmt::NeighborAdd",
    IrStmt::NeighborRemove(..) => "IrStmt::NeighborRemove",
    IrStmt::NeighborClear(_) => "IrStmt::NeighborClear",
    IrStmt::Send { .. } => "IrStmt::Send",
    IrStmt::Quash => "IrStmt::Quash",
    IrStmt::DownCall(_) => "IrStmt::DownCall",
    IrStmt::UpcallNotify(..) => "IrStmt::UpcallNotify",
    IrStmt::Deliver { .. } => "IrStmt::Deliver",
    IrStmt::Monitor(_) => "IrStmt::Monitor",
    IrStmt::Unmonitor(_) => "IrStmt::Unmonitor",
    IrStmt::ForEach { .. } => "IrStmt::ForEach",
    IrStmt::AssignInt(..) => "IrStmt::AssignInt",
    IrStmt::AssignBool(..) => "IrStmt::AssignBool",
    IrStmt::AssignNode(..) => "IrStmt::AssignNode",
    IrStmt::AssignKey(..) => "IrStmt::AssignKey",
    IrStmt::AssignPayload(..) => "IrStmt::AssignPayload",
    IrStmt::AssignList(..) => "IrStmt::AssignList",
    IrStmt::AssignListTakeField(..) => "IrStmt::AssignListTakeField",
    IrStmt::Trace(_) => "IrStmt::Trace",
});

variants!(down_tag, DOWNS, IrDown {
    IrDown::Join(_) => "IrDown::Join",
    IrDown::Leave(_) => "IrDown::Leave",
    IrDown::CreateGroup(_) => "IrDown::CreateGroup",
    IrDown::Multicast(..) => "IrDown::Multicast",
    IrDown::Anycast(..) => "IrDown::Anycast",
    IrDown::Collect(..) => "IrDown::Collect",
    IrDown::Route(..) => "IrDown::Route",
    IrDown::RouteIp(..) => "IrDown::RouteIp",
});

variants!(int_tag, INTS, IntExpr {
    IntExpr::Lit(_) => "IntExpr::Lit",
    IntExpr::Const(..) => "IntExpr::Const",
    IntExpr::Var(_) => "IntExpr::Var",
    IntExpr::Field(_) => "IntExpr::Field",
    IntExpr::OfBool(_) => "IntExpr::OfBool",
    IntExpr::NeighborSize(_) => "IntExpr::NeighborSize",
    IntExpr::Rtt(_) => "IntExpr::Rtt",
    IntExpr::Goodput(_) => "IntExpr::Goodput",
    IntExpr::RingDist(_) => "IntExpr::RingDist",
    IntExpr::Digit(..) => "IntExpr::Digit",
    IntExpr::PrefixLen(_) => "IntExpr::PrefixLen",
    IntExpr::Neg(_) => "IntExpr::Neg",
    IntExpr::Arith(..) => "IntExpr::Arith",
});

variants!(bool_tag, BOOLS, BoolExpr {
    BoolExpr::Lit(_) => "BoolExpr::Lit",
    BoolExpr::Var(_) => "BoolExpr::Var",
    BoolExpr::Field(_) => "BoolExpr::Field",
    BoolExpr::Not(_) => "BoolExpr::Not",
    BoolExpr::And(..) => "BoolExpr::And",
    BoolExpr::Or(..) => "BoolExpr::Or",
    BoolExpr::Cmp(..) => "BoolExpr::Cmp",
    BoolExpr::NonZero(_) => "BoolExpr::NonZero",
    BoolExpr::IsSome(_) => "BoolExpr::IsSome",
    BoolExpr::IsNull(_) => "BoolExpr::IsNull",
    BoolExpr::NonEmpty(_) => "BoolExpr::NonEmpty",
    BoolExpr::IsNullPayload(_) => "BoolExpr::IsNullPayload",
    BoolExpr::EqBool(..) => "BoolExpr::EqBool",
    BoolExpr::EqNode(..) => "BoolExpr::EqNode",
    BoolExpr::EqKey(..) => "BoolExpr::EqKey",
    BoolExpr::EqKeyNode { .. } => "BoolExpr::EqKeyNode",
    BoolExpr::EqPayload(..) => "BoolExpr::EqPayload",
    BoolExpr::EqList(..) => "BoolExpr::EqList",
    BoolExpr::NeighborQuery(..) => "BoolExpr::NeighborQuery",
    BoolExpr::RingBetween(..) => "BoolExpr::RingBetween",
    BoolExpr::Const(..) => "BoolExpr::Const",
});

variants!(node_tag, NODES, NodeExpr {
    NodeExpr::Null => "NodeExpr::Null",
    NodeExpr::From => "NodeExpr::From",
    NodeExpr::Me => "NodeExpr::Me",
    NodeExpr::Bootstrap => "NodeExpr::Bootstrap",
    NodeExpr::ApiDest => "NodeExpr::ApiDest",
    NodeExpr::Var(_) => "NodeExpr::Var",
    NodeExpr::Field(_) => "NodeExpr::Field",
    NodeExpr::NeighborRandom(_) => "NodeExpr::NeighborRandom",
    NodeExpr::OwnerOf(..) => "NodeExpr::OwnerOf",
});

variants!(key_tag, KEYS, KeyExpr {
    KeyExpr::MyKey => "KeyExpr::MyKey",
    KeyExpr::ApiKey => "KeyExpr::ApiKey",
    KeyExpr::Var(_) => "KeyExpr::Var",
    KeyExpr::Field(_) => "KeyExpr::Field",
    KeyExpr::Offset { .. } => "KeyExpr::Offset",
});

variants!(key_opt_tag, KEY_OPTS, KeyOptExpr {
    KeyOptExpr::Key(_) => "KeyOptExpr::Key",
    KeyOptExpr::Node(_) => "KeyOptExpr::Node",
    KeyOptExpr::Int(_) => "KeyOptExpr::Int",
    KeyOptExpr::Null => "KeyOptExpr::Null",
});

variants!(key_arg_tag, KEY_ARGS, KeyArg {
    KeyArg::Key(_) => "KeyArg::Key",
    KeyArg::Node(_) => "KeyArg::Node",
});

variants!(payload_tag, PAYLOADS, PayloadExpr {
    PayloadExpr::Null => "PayloadExpr::Null",
    PayloadExpr::Api => "PayloadExpr::Api",
    PayloadExpr::Var(_) => "PayloadExpr::Var",
    PayloadExpr::Field(_) => "PayloadExpr::Field",
});

variants!(list_tag, LISTS, ListExpr {
    ListExpr::List(_) => "ListExpr::List",
    ListExpr::Field(_) => "ListExpr::Field",
});

variants!(any_tag, ANYS, AnyExpr {
    AnyExpr::Int(_) => "AnyExpr::Int",
    AnyExpr::Bool(_) => "AnyExpr::Bool",
    AnyExpr::Key(_) => "AnyExpr::Key",
    AnyExpr::Node(_) => "AnyExpr::Node",
    AnyExpr::Payload(_) => "AnyExpr::Payload",
    AnyExpr::List(_) => "AnyExpr::List",
    AnyExpr::Null => "AnyExpr::Null",
});

variants!(send_arg_tag, SEND_ARGS, SendArg {
    SendArg::Int(_) => "SendArg::Int",
    SendArg::Bool(_) => "SendArg::Bool",
    SendArg::Node(_) => "SendArg::Node",
    SendArg::Key(_) => "SendArg::Key",
    SendArg::Payload(_) => "SendArg::Payload",
    SendArg::List(_) => "SendArg::List",
});

variants!(send_dest_tag, SEND_DESTS, SendDest {
    SendDest::Node(_) => "SendDest::Node",
    SendDest::Key(_) => "SendDest::Key",
});

/// The variants met in a walk over transition bodies.
#[derive(Default)]
struct Seen(BTreeSet<&'static str>);

impl Seen {
    fn stmts(&mut self, stmts: &[IrStmt]) {
        for s in stmts {
            self.0.insert(stmt_tag(s));
            match s {
                IrStmt::If { cond, then, els } => {
                    self.bool(cond);
                    self.stmts(then);
                    self.stmts(els);
                }
                IrStmt::TimerResched(_, e)
                | IrStmt::UpcallNotify(_, e)
                | IrStmt::AssignInt(_, e) => self.int(e),
                IrStmt::NeighborAdd(_, n)
                | IrStmt::NeighborRemove(_, n)
                | IrStmt::Monitor(n)
                | IrStmt::Unmonitor(n)
                | IrStmt::AssignNode(_, n) => self.node(n),
                IrStmt::Send { dest, args, .. } => {
                    self.0.insert(send_dest_tag(dest));
                    match dest {
                        SendDest::Node(n) => self.node(n),
                        SendDest::Key(k) => self.key(k),
                    }
                    for a in args {
                        self.0.insert(send_arg_tag(a));
                        match a {
                            SendArg::Int(e) => self.int(e),
                            SendArg::Bool(e) => self.bool(e),
                            SendArg::Node(e) => self.node(e),
                            SendArg::Key(e) => self.key_arg(e),
                            SendArg::Payload(e) => self.payload(e),
                            SendArg::List(e) => self.list(e),
                        }
                    }
                }
                IrStmt::DownCall(d) => {
                    self.0.insert(down_tag(d));
                    match d {
                        IrDown::Join(g) | IrDown::Leave(g) | IrDown::CreateGroup(g) => {
                            self.key_arg(g)
                        }
                        IrDown::Multicast(g, p)
                        | IrDown::Anycast(g, p)
                        | IrDown::Collect(g, p)
                        | IrDown::Route(g, p) => {
                            self.key_arg(g);
                            self.payload(p);
                        }
                        IrDown::RouteIp(n, p) => {
                            self.node(n);
                            self.payload(p);
                        }
                    }
                }
                IrStmt::Deliver { src, payload } => {
                    self.key_arg(src);
                    self.payload(payload);
                }
                IrStmt::ForEach { body, .. } => self.stmts(body),
                IrStmt::AssignBool(_, e) => self.bool(e),
                IrStmt::AssignKey(_, e) => self.key(e),
                IrStmt::AssignPayload(_, e) => self.payload(e),
                IrStmt::AssignList(_, e) => self.list(e),
                IrStmt::Trace(e) => self.any(e),
                _ => {}
            }
        }
    }

    fn int(&mut self, e: &IntExpr) {
        self.0.insert(int_tag(e));
        match e {
            IntExpr::OfBool(b) => self.bool(b),
            IntExpr::Rtt(n) | IntExpr::Goodput(n) => self.node(n),
            IntExpr::RingDist(ab) | IntExpr::PrefixLen(ab) => {
                ab.iter().for_each(|k| self.key_opt(k))
            }
            IntExpr::Digit(k, i, base) => {
                self.key_opt(k);
                self.int(i);
                self.int(base);
            }
            IntExpr::Neg(x) => self.int(x),
            IntExpr::Arith(_, ab) => ab.iter().for_each(|x| self.int(x)),
            _ => {}
        }
    }

    fn bool(&mut self, e: &BoolExpr) {
        self.0.insert(bool_tag(e));
        match e {
            BoolExpr::Not(x) => self.bool(x),
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) | BoolExpr::EqBool(a, b) => {
                self.bool(a);
                self.bool(b);
            }
            BoolExpr::Cmp(_, ab) => ab.iter().for_each(|x| self.int(x)),
            BoolExpr::NonZero(x) => self.int(x),
            BoolExpr::IsSome(x) | BoolExpr::IsNull(x) | BoolExpr::NeighborQuery(_, x) => {
                self.node(x)
            }
            BoolExpr::NonEmpty(x) | BoolExpr::IsNullPayload(x) => self.payload(x),
            BoolExpr::EqNode(a, b) => {
                self.node(a);
                self.node(b);
            }
            BoolExpr::EqKey(a, b) => {
                self.key(a);
                self.key(b);
            }
            BoolExpr::EqKeyNode { key, node, .. } => {
                self.key(key);
                self.node(node);
            }
            BoolExpr::EqPayload(a, b) => {
                self.payload(a);
                self.payload(b);
            }
            BoolExpr::EqList(a, b) => {
                self.list(a);
                self.list(b);
            }
            BoolExpr::RingBetween(x, lo, hi) => {
                self.key_opt(x);
                self.key_opt(lo);
                self.key_opt(hi);
            }
            BoolExpr::Const(ops, _) => ops.iter().for_each(|op| self.any(op)),
            _ => {}
        }
    }

    fn node(&mut self, e: &NodeExpr) {
        self.0.insert(node_tag(e));
        if let NodeExpr::OwnerOf(k, _) = e {
            self.key_opt(k);
        }
    }

    fn key(&mut self, e: &KeyExpr) {
        self.0.insert(key_tag(e));
        if let KeyExpr::Offset { key, by, .. } = e {
            self.key(key);
            self.int(by);
        }
    }

    fn key_opt(&mut self, e: &KeyOptExpr) {
        self.0.insert(key_opt_tag(e));
        match e {
            KeyOptExpr::Key(k) => self.key(k),
            KeyOptExpr::Node(n) => self.node(n),
            KeyOptExpr::Int(i) => self.int(i),
            _ => {}
        }
    }

    fn key_arg(&mut self, e: &KeyArg) {
        self.0.insert(key_arg_tag(e));
        match e {
            KeyArg::Key(k) => self.key(k),
            KeyArg::Node(n) => self.node(n),
        }
    }

    fn payload(&mut self, e: &PayloadExpr) {
        self.0.insert(payload_tag(e));
    }

    fn list(&mut self, e: &ListExpr) {
        self.0.insert(list_tag(e));
    }

    fn any(&mut self, e: &AnyExpr) {
        self.0.insert(any_tag(e));
        match e {
            AnyExpr::Int(e) => self.int(e),
            AnyExpr::Bool(e) => self.bool(e),
            AnyExpr::Key(e) => self.key(e),
            AnyExpr::Node(e) => self.node(e),
            AnyExpr::Payload(e) => self.payload(e),
            AnyExpr::List(e) => self.list(e),
            AnyExpr::Null => {}
        }
    }
}

fn roundtrip_ir() -> IrSpec {
    compile(ROUNDTRIP_SPEC).expect("the round-trip spec compiles")
}

#[test]
fn the_roster_and_the_roundtrip_spec_print_every_typed_variant() {
    let registry = SpecRegistry::bundled();
    let mut seen = Seen::default();
    let roundtrip = roundtrip_ir();
    let irs = registry
        .names()
        .map(|n| registry.get(n).unwrap().as_ref())
        .chain(std::iter::once(&roundtrip));
    for ir in irs {
        for t in &ir.transitions {
            seen.stmts(&t.body);
        }
    }
    let all = [
        STMTS, DOWNS, INTS, BOOLS, NODES, KEYS, KEY_OPTS, KEY_ARGS, PAYLOADS, LISTS, ANYS,
        SEND_ARGS, SEND_DESTS,
    ];
    let missing: Vec<&str> = all
        .concat()
        .into_iter()
        .filter(|v| !seen.0.contains(v))
        .collect();
    assert!(missing.is_empty(), "never printed: {missing:?}");
}

// ---------------------------------------------------------------------------
// The drill: both back ends, identical inputs, equal effects
// ---------------------------------------------------------------------------

/// The layer under the spec. A frame goes up only after a forward query
/// (so `forward` transitions run first, and may quash it); every
/// downcall it is handed becomes a trace record.
struct Base;

impl Agent for Base {
    fn protocol_id(&self) -> ProtocolId {
        1
    }

    fn name(&self) -> &'static str {
        "base"
    }

    fn init(&mut self, _: &mut Ctx) {}

    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        ctx.trace(TraceLevel::Low, format!("base: {call:?}"));
    }

    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {
        ctx.forward_query(ForwardInfo {
            src: MacedonKey(from.0),
            dest: ctx.my_key,
            prev_hop: from,
            next_hop: ctx.me,
            payload: msg,
            quash: false,
        });
    }

    fn forward_resolved(&mut self, ctx: &mut Ctx, fwd: ForwardInfo) {
        if !fwd.quash {
            ctx.up(UpCall::Deliver {
                src: fwd.src,
                from: fwd.prev_hop,
                payload: fwd.payload,
            });
        }
    }

    fn timer(&mut self, _: &mut Ctx, _: u16) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Records what reaches the application, and draws from the node's RNG
/// on every application timer.
#[derive(Default)]
struct Recorder(Vec<String>);

impl AppHandler for Recorder {
    fn on_deliver(&mut self, _: &mut Ctx, src: MacedonKey, from: NodeId, payload: Bytes) {
        self.0.push(format!("deliver {src:?} {from:?} {payload:?}"));
    }

    fn on_notify(&mut self, _: &mut Ctx, nbr_type: u32, neighbors: &[NodeId]) {
        self.0.push(format!("notify {nbr_type} {neighbors:?}"));
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _: u16) {
        self.0.push(format!("rng {}", ctx.rng.next_u64()));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Node 7, keyed by its raw id so `my_key == from` can hold, with the
/// spec's agent above [`Base`].
fn stack(agent: Box<dyn Agent>) -> Stack {
    Stack::new(
        NodeId(7),
        MacedonKey(7),
        vec![Box::new(Base), agent],
        Box::new(Recorder::default()),
        SimRng::new(11),
    )
}

enum Event {
    Init,
    Recv(NodeId, Bytes),
    Api(DownCall),
    Timer(u16),
    Failed(NodeId),
}

fn hello(who: u32, fresh: bool, round: u64, peers: &[u32]) -> Bytes {
    let peers: Vec<NodeId> = peers.iter().map(|&n| NodeId(n)).collect();
    let mut w = WireWriter::new();
    w.u16(protocol_id_of("roundtrip"))
        .u16(0)
        .node(NodeId(who))
        .u8(fresh as u8)
        .u64(round)
        .key(MacedonKey(0x5eed))
        .bytes(b"body")
        .nodes(&peers);
    w.finish()
}

fn probe(via: u32) -> Bytes {
    let mut w = WireWriter::new();
    w.u16(protocol_id_of("roundtrip"))
        .u16(1)
        .key(MacedonKey(3))
        .node(NodeId(via));
    w.finish()
}

fn events() -> Vec<Event> {
    let group = MacedonKey(0x600d);
    let payload = |b: &'static [u8]| Bytes::from_static(b);
    vec![
        Event::Init,
        Event::Api(DownCall::Route {
            dest: MacedonKey(99),
            payload: payload(b"hi"),
            priority: -1,
        }),
        Event::Api(DownCall::Route {
            dest: MacedonKey(98),
            payload: Bytes::new(),
            priority: -1,
        }),
        Event::Api(DownCall::RouteIp {
            dest: NodeId(5),
            payload: payload(b"ip"),
            priority: -1,
        }),
        Event::Api(DownCall::Multicast {
            group,
            payload: payload(b"mc"),
            priority: -1,
        }),
        Event::Api(DownCall::Join { group }),
        Event::Api(DownCall::Leave { group }),
        // No transition: relayed to the base layer.
        Event::Api(DownCall::CreateGroup { group }),
        Event::Recv(NodeId(3), hello(3, true, 1, &[2, 4, 7, 9, 10])),
        Event::Recv(NodeId(4), hello(4, false, 9, &[4])),
        Event::Recv(NodeId(7), hello(5, false, 2, &[])),
        Event::Recv(NodeId(6), hello(u32::MAX, true, 1, &[6])),
        Event::Timer(0),
        Event::Recv(NodeId(3), probe(3)),
        Event::Timer(1),
        Event::Timer(0),
        Event::Failed(NodeId(5)),
        Event::Recv(NodeId(8), hello(8, true, 3, &[1])),
        // Truncated: not decodable as ours, so it continues up.
        Event::Recv(NodeId(9), hello(9, true, 3, &[1]).slice(0..6)),
    ]
}

fn fire(stack: &mut Stack, e: &Event) -> Vec<StackEffect> {
    let mut fx = Vec::new();
    let now = Time::ZERO;
    match e {
        Event::Init => stack.init(now, &mut fx),
        Event::Recv(from, msg) => stack.recv(now, *from, msg.clone(), SpanId::NONE, &mut fx),
        Event::Api(call) => stack.api(now, call.clone(), &mut fx),
        Event::Timer(t) => stack.timer(now, 1, *t, &mut fx),
        Event::Failed(peer) => stack.peer_failed(now, 1, *peer, &mut fx),
    }
    // An application timer draws from the node RNG: equal draws mean
    // the transitions consumed it alike.
    stack.timer(now, 2, 0, &mut fx);
    fx
}

#[test]
fn generated_and_interpreted_agents_agree_event_by_event() {
    let ir = Arc::new(roundtrip_ir());
    let mut interpreted = stack(Box::new(InterpretedAgent::new(ir, Some(NodeId(1)))));
    let mut generated = stack(Box::new(agent::Roundtrip::new(Some(NodeId(1)))));
    let mut traced = Vec::new();
    for (i, e) in events().iter().enumerate() {
        let want = fire(&mut interpreted, e);
        let got = fire(&mut generated, e);
        assert_eq!(
            format!("{want:#?}"),
            format!("{got:#?}"),
            "event {i}: the back ends disagree"
        );
        traced.extend(want.into_iter().filter_map(|fx| match fx {
            StackEffect::Trace {
                event: TraceEvent::Custom { msg },
                ..
            } => Some(msg),
            _ => None,
        }));
    }
    let record = |s: &Stack| {
        let app: &Recorder = s.app().as_any().downcast_ref().unwrap();
        app.0.clone()
    };
    assert_eq!(record(&interpreted), record(&generated));

    // `payload == null` holds in `API init`, which binds no payload.
    assert_eq!(traced[0], "roundtrip: trace Bool(true)");
    // Every `trace(..)` form ran, not only printed.
    let forms: BTreeSet<&str> = traced
        .iter()
        .filter_map(|t| t.strip_prefix("roundtrip: trace "))
        .map(|v| v.split('(').next().unwrap())
        .collect();
    assert_eq!(
        forms,
        BTreeSet::from(["Bool", "Bytes", "Int", "Key", "List", "Node", "Null"])
    );
    assert!(
        traced.iter().any(|t| t.contains("runtime error")),
        "the null `who` faulted in both"
    );
}
