//! The full MACEDON pipeline on a `.mac` specification: parse → check →
//! generate code → **interpret** the spec as live agents in the
//! emulator, watching the paper's Overcast FSM run — then assemble and
//! run the *layered* splitstream → scribe → pastry stack from specs.
//!
//! ```sh
//! cargo run --release -p macedon --example dsl_pipeline
//! ```

use macedon::lang::interp::{channel_table, InterpretedAgent};
use macedon::lang::{bundled_specs, codegen, compile, loc, SpecRegistry};
use macedon::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. Compile the bundled Overcast spec (Figure 1 / Figure 6).
    let (_, src) = bundled_specs()
        .into_iter()
        .find(|(n, _)| *n == "overcast")
        .expect("overcast.mac is bundled");
    let ir = Arc::new(compile(src).expect("spec compiles"));
    println!(
        "compiled overcast.mac: {} states, {} messages, {} transitions, {} LoC",
        ir.spec.states.len(),
        ir.messages.len(),
        ir.transitions.len(),
        loc::spec_loc(src),
    );

    // 2. Code generation: what the paper's translator emits — the same
    //    text checked in (and compiled) under crates/generated.
    let generated = codegen::generate(&ir, None);
    println!(
        "generated agent source: {} lines (spec expands ~{:.1}x)",
        generated.lines().count(),
        generated.lines().count() as f64 / loc::spec_loc(src) as f64
    );

    // 3. Interpretation: run the very same spec as live agents.
    let topo = macedon::net::topology::canned::star(10, macedon::net::topology::LinkSpec::lan());
    let cfg = WorldConfig {
        channels: channel_table(&ir),
        ..WorldConfig::seeded(5)
    };
    let mut world = World::new(topo, cfg);
    let (hosts, _sink) = world.spawn_each(Duration::from_millis(150), |bootstrap| {
        vec![Box::new(InterpretedAgent::new(ir.clone(), bootstrap))]
    });
    world.run_until(Time::from_secs(60));

    println!("\nOvercast FSM state after 60 virtual seconds:");
    for &h in &hosts {
        let a = world.stack(h).unwrap().agent(0).view().unwrap();
        println!(
            "  {:?}: state={:<8} parent={:?} children={:?}",
            h,
            a.state,
            a.list("papa").unwrap(),
            a.list("kids").unwrap().len(),
        );
    }

    // 4. Layered interpretation: resolve splitstream's `uses` chain and
    //    run the whole three-layer stack from specs, multicasting
    //    through it.
    let registry = SpecRegistry::bundled();
    let chain = registry.resolve_chain("splitstream").expect("resolves");
    println!(
        "\nsplitstream.mac resolves to the stack: {}",
        chain
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>()
            .join(" <- ")
    );
    let topo = macedon::net::topology::canned::star(8, macedon::net::topology::LinkSpec::lan());
    let stagger = Duration::from_millis(100);
    let (mut world, hosts, sink) = registry
        .world("splitstream", topo, WorldConfig::seeded(6), stagger)
        .unwrap();
    let group = MacedonKey::of_name("demo");
    world.run_until(Time::from_secs(30));
    for &h in &hosts {
        world.api_at(Time::from_secs(30), h, DownCall::Join { group });
    }
    world.run_until(Time::from_secs(60));
    world.api_at(
        Time::from_secs(60),
        hosts[1],
        DownCall::Multicast {
            group,
            payload: Bytes::from_static(b"\0\0\0\0\0\0\0\x2Astriped hello"),
            priority: -1,
        },
    );
    world.run_until(Time::from_secs(90));
    let delivered = sink.lock().len();
    println!("multicast through the interpreted stack delivered at {delivered} nodes");
}
