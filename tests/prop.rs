//! Properties of the engine over real scenario runs of the from-spec
//! splitstream stack (transport, failure detector, overlay maintenance
//! and scripted perturbations all active):
//!
//! 1. **Span parentage is a forest** on every scenario: churn,
//!    partitions and rejoins never orphan a causal context.
//! 2. **The benchmark's shard knobs are inert.** `WorldConfig::shards`,
//!    `WorldConfig::profile` and `ScenarioRunner::set_workers` survive
//!    only because the repo benchmark still sets them; a run that sets
//!    them is the run that does not, byte for byte.

use macedon_core::{SpanId, TraceEvent, TraceLevel, WorldConfig};
use macedon_lang::SpecRegistry;
use macedon_net::topology::{LinkSpec, TopologyBuilder};
use macedon_scenario::ScenarioRunner;
use macedon_sim::Duration;

/// The property tests' spokes: delays all distinct (2ms + 137µs·i) on
/// 10 Mbps links, so no two failure-detector fan-outs collide in the
/// same microsecond on a monitor's downlink.
fn jittered_link(i: usize) -> LinkSpec {
    LinkSpec::new(
        Duration::from_micros(2_000 + 137 * i as u64),
        10_000_000,
        256 * 1024,
    )
}

/// A star whose spoke `i` is `link(i)`.
fn star(nodes: usize, link: fn(usize) -> LinkSpec) -> macedon_net::topology::Topology {
    let mut b = TopologyBuilder::new();
    let hub = b.add_router();
    for i in 0..nodes {
        let h = b.add_host();
        b.add_link(h, hub, link(i));
    }
    b.build()
}

/// The configuration every property run binds with.
fn config(registry: &SpecRegistry, seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        channels: registry
            .channel_table_for("splitstream")
            .expect("bundled chain resolves"),
        fd_g: Duration::from_secs(2),
        fd_f: Duration::from_secs(6),
        ..Default::default()
    }
}

/// Staggered joins, a route stream, a crash wave and a rejoin — the
/// `bench_scale` shape scaled down.
fn scale_script(nodes: usize) -> String {
    format!(
        "scenario prop-scale\nnodes {nodes}\nend 30s\n\
         at 0s join 0..{first} over 2s\n\
         at 3s join {first}..{nodes} over 4s\n\
         at 12s stream 0 rate 100kbps size 800 for 10s route\n\
         at 15s crash {c1} {c2}\n\
         at 20s rejoin {c1}\n",
        first = nodes / 4,
        c1 = nodes / 3,
        c2 = nodes / 2,
    )
}

/// Despawn/rejoin *under* a partition that splits the host range in
/// half.
fn partition_rejoin_script(nodes: usize) -> String {
    format!(
        "scenario prop-partition\nnodes {nodes}\nend 30s\n\
         at 0s join 0..{nodes} over 3s\n\
         at 8s partition half {half}..{nodes}\n\
         at 10s crash {c1}\n\
         at 14s rejoin {c1}\n\
         at 20s heal half\n",
        half = nodes / 2,
        c1 = nodes / 2 + 1,
    )
}

#[test]
fn span_parentage_is_a_forest_across_scenarios() {
    // Property over real scenario runs (churn, partitions, rejoins):
    // walking the trace in recording order, every causal context a
    // record carries was minted by a strictly earlier `Send`, and no
    // span is minted twice. Crashes and partitions must not orphan
    // contexts — a span delivered after its origin crashed still
    // resolves to the historical mint.
    for (script, nodes) in [
        (scale_script(12), 12usize),
        (partition_rejoin_script(12), 12),
    ] {
        for seed in [7u64, 77] {
            let registry = SpecRegistry::bundled();
            let scenario = macedon_scenario::script::parse(&script).expect("script parses");
            let topo = star(nodes, jittered_link);
            let mut runner = ScenarioRunner::new(
                scenario,
                topo,
                config(&registry, seed),
                Box::new(|_idx, _host, bootstrap| {
                    registry.build_stack("splitstream", bootstrap).unwrap()
                }),
            )
            .expect("scenario binds");
            runner.set_trace_level(TraceLevel::High);
            let outcome = runner.run();

            let mut minted = std::collections::HashSet::new();
            let mut sends = 0u64;
            for r in outcome.world.trace().records() {
                if r.span != SpanId::NONE {
                    assert!(
                        minted.contains(&r.span.0),
                        "seed {seed}: span {:016x} referenced before mint",
                        r.span.0
                    );
                }
                if let TraceEvent::Send { span, .. } = &r.event {
                    sends += 1;
                    assert!(
                        minted.insert(span.0),
                        "seed {seed}: span {:016x} minted twice",
                        span.0
                    );
                }
            }
            assert!(sends > 0, "seed {seed}: no spans minted");
        }
    }
}

/// `scale-star-sharded` sets `shards: 2`, `profile: true` and two
/// workers; since the engine ignores all three, it measures the same
/// run as `scale-star-interp`.
#[test]
fn benchmark_shard_knobs_are_inert() {
    let registry = SpecRegistry::bundled();
    let script = macedon_bench::experiments::scenario_scale_script(12);
    let run = |cfg: WorldConfig, workers: Option<usize>| {
        let scenario = macedon_scenario::script::parse(&script).expect("script parses");
        let topo = star(12, jittered_link);
        let mut runner = ScenarioRunner::new(
            scenario,
            topo,
            cfg,
            Box::new(|_idx, _host, bootstrap| {
                registry.build_stack("splitstream", bootstrap).unwrap()
            }),
        )
        .expect("scenario binds");
        if let Some(n) = workers {
            runner.set_workers(n);
        }
        let outcome = runner.run();
        let c = outcome.world.event_counts();
        let counts = [c.net, c.conn_timer, c.agent_timer, c.fd_tick, c.control];
        assert!(outcome.report.total_delivered > 0, "the stream delivers");
        assert!(outcome.world.profile().is_empty(), "no run has a profile");
        (
            outcome.report.to_json(),
            outcome.world.events_fired(),
            counts,
        )
    };
    let plain = run(config(&registry, 77), None);
    let knobs = WorldConfig {
        shards: 2,
        profile: true,
        ..config(&registry, 77)
    };
    assert_eq!(run(knobs, Some(2)), plain);
}
