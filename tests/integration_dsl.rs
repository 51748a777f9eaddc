//! The DSL pipeline end to end: interpreted lowest-layer specs
//! (`overcast.mac`, `randtree.mac`) form their overlays, and codegen
//! emits a complete agent for every bundled spec. Interpreted ≡
//! generated is gated in `integration_generated.rs`; the layered roster
//! (scribe, splitstream, bullet) runs in `integration_layered.rs`.

mod common;

use common::{only, star, view};
use macedon::lang::interp::{channel_table, InterpretedAgent};
use macedon::lang::{bundled_specs, codegen, compile, IrSpec};
use macedon::prelude::*;
use std::sync::Arc;

fn spec(name: &str) -> Arc<IrSpec> {
    let (_, src) = bundled_specs()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap();
    Arc::new(compile(src).unwrap())
}

#[test]
fn interpreted_randtree_forms_a_tree() {
    let spec = spec("randtree");
    let cfg = WorldConfig {
        seed: 1,
        channels: channel_table(&spec),
        ..Default::default()
    };
    let mut w = World::new(star(12), cfg);
    let (hosts, _sink) = w.spawn_each(Duration::from_millis(100), |bootstrap| {
        vec![Box::new(InterpretedAgent::new(spec.clone(), bootstrap))]
    });
    w.run_until(Time::from_secs(60));
    // Everyone joined; parent pointers reach the root without cycles.
    for &h in &hosts {
        let a = view(&w, h, 0);
        assert_eq!(a.state, "joined", "{h:?}");
        assert!(a.list("kids").unwrap().len() <= 4, "fanout respected");
    }
    for &h in &hosts[1..] {
        let mut cur = h;
        let mut steps = 0;
        while cur != hosts[0] {
            cur = only(&w, cur, "papa").expect("joined node has parent");
            steps += 1;
            assert!(steps <= hosts.len(), "cycle");
        }
    }
}

#[test]
fn interpreted_overcast_follows_the_figure_1_fsm() {
    let spec = spec("overcast");
    let cfg = WorldConfig {
        seed: 3,
        channels: channel_table(&spec),
        ..Default::default()
    };
    let mut w = World::new(star(8), cfg);
    let (hosts, _sink) = w.spawn_each(Duration::from_millis(100), |bootstrap| {
        vec![Box::new(InterpretedAgent::new(spec.clone(), bootstrap))]
    });
    w.run_until(Time::from_secs(90));
    // All nodes cycle back to joined (probe epochs pass through
    // probed/probing); tree edges total n-1.
    let mut edges = 0usize;
    for &h in &hosts {
        let a = view(&w, h, 0);
        assert!(
            ["joined", "probed", "probing"].contains(&a.state),
            "{h:?} in FSM state {}",
            a.state
        );
        edges += a.list("kids").unwrap().len();
        let agent: &InterpretedAgent = w
            .stack(h)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        assert!(agent.transitions_fired > 0);
    }
    assert_eq!(edges, hosts.len() - 1);
}

#[test]
fn codegen_emits_full_agents_for_all_specs() {
    // The compiled artifact itself is checked in under `crates/generated`
    // and cross-validated in integration_generated.rs; here we assert the
    // structural contract of the emitted text.
    for (name, src) in bundled_specs() {
        let ir = compile(src).unwrap();
        let code = codegen::generate(&ir, None);
        assert!(
            code.contains("impl SpecBody for"),
            "{name} generates a SpecBody impl"
        );
        assert!(
            code.contains("fn fire_recv"),
            "{name} has the demux function"
        );
        assert!(
            code.contains("fn fire_api"),
            "{name} has the API demultiplexer"
        );
        assert!(
            !code.contains("elided"),
            "{name}: nothing may be elided from generated output"
        );
        // Balanced braces — a cheap structural sanity check.
        let open = code.matches('{').count();
        let close = code.matches('}').count();
        assert_eq!(open, close, "{name} generated balanced braces");
        // Full-fidelity LoC is what fig7 reports (base-less generation
        // here; fig7 itself passes each layered spec's chain base).
        assert_eq!(codegen::generated_loc(&ir, None), code.lines().count());
    }
}
