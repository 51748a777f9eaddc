//! Roster smoke: every bundled `.mac` spec compiles (parses, then
//! passes the lowering's checks), resolves its `uses` chain, and
//! instantiates as a live agent stack.
//! This is the CI tripwire against spec or resolver rot — a spec that
//! stops compiling or a chain that stops resolving fails here even if
//! no behavioral test happens to exercise it.

use macedon::lang::interp::channel_table;
use macedon::lang::{bundled_specs, compile, SpecRegistry};
use macedon::prelude::*;

/// The full paper roster with the expected layering depth.
const ROSTER: &[(&str, usize)] = &[
    ("ammo", 1),
    ("bullet", 2),
    ("chord", 1),
    ("nice", 1),
    ("overcast", 1),
    ("pastry", 1),
    ("randtree", 1),
    ("scribe", 2),
    ("splitstream", 3),
];

#[test]
fn all_nine_specs_compile_and_sema_check() {
    let specs = bundled_specs();
    assert_eq!(specs.len(), ROSTER.len());
    for (name, src) in specs {
        let spec = compile(src).unwrap_or_else(|e| panic!("{name}.mac: {e}"));
        assert_eq!(spec.name, name);
    }
}

#[test]
fn all_nine_specs_lower_to_ir() {
    // Every bundled spec lowers to the slot-indexed IR the interpreter
    // executes, and the lowering preserves the declaration-order ids
    // both back ends key their wire format and timers on.
    let reg = SpecRegistry::bundled();
    for (name, src) in bundled_specs() {
        let ir = compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let spec = &ir.spec;
        assert_eq!(ir.name, name);
        assert_eq!(ir.proto, macedon::lang::interp::protocol_id_of(name));
        assert_eq!(ir.messages.len(), spec.messages.len());
        for (i, m) in spec.messages.iter().enumerate() {
            assert_eq!(ir.messages[i].name, m.name, "{name}: message id order");
            assert_eq!(ir.messages[i].fields.len(), m.fields.len());
        }
        assert_eq!(ir.transitions.len(), spec.transitions.len());
        assert_eq!(ir.states[0], "init");
        // The registry holds the lowered spec and shares that instance
        // with every stack it builds.
        assert!(reg.get(name).is_some(), "{name}: registry holds shared IR");
    }
}

#[test]
fn all_nine_specs_resolve_and_instantiate() {
    let reg = SpecRegistry::bundled();
    for &(name, depth) in ROSTER {
        let chain = reg
            .resolve_chain(name)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(chain.len(), depth, "{name} layering depth");
        assert!(
            chain[0].uses.is_none(),
            "{name}: lowest layer owns the transports"
        );
        let stack = reg
            .build_stack(name, Some(NodeId(1)))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(stack.len(), depth);
        assert!(
            !channel_table(&chain[0]).is_empty(),
            "{name}: lowest layer declares transports"
        );
    }
}

#[test]
fn every_spec_stack_spawns_in_a_world() {
    // Instantiation all the way into a World: spawn a two-node world
    // per protocol and run briefly; init transitions must not wedge or
    // panic anywhere in the roster.
    let reg = SpecRegistry::bundled();
    for &(name, _) in ROSTER {
        let topo = macedon::net::topology::canned::star(2, macedon::net::topology::LinkSpec::lan());
        let stagger = Duration::from_millis(10);
        let (mut w, hosts, _sink) = reg
            .world(name, topo, WorldConfig::default(), stagger)
            .unwrap();
        w.run_until(Time::from_secs(5));
        for &h in &hosts {
            let s = w.stack(h).unwrap();
            let a: &macedon::lang::InterpretedAgent = s.agent(0).as_any().downcast_ref().unwrap();
            assert!(a.transitions_fired > 0, "{name}: layer 0 fired transitions");
        }
    }
}
