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

use macedon_bench::experiments::{scenario_scale_script, Backend};
use macedon_core::{SpanId, TraceEvent, TraceLevel, WorldConfig};
use macedon_net::topology::{LinkSpec, TopologyBuilder};
use macedon_scenario::ScenarioRunner;
use macedon_sim::Duration;

/// `script` with the interpreted splitstream stack on every node of a
/// star whose spokes' delays are all distinct (2ms + 137µs·i) on
/// 10 Mbps links, so no two failure-detector fan-outs collide in the
/// same microsecond on a monitor's downlink.
fn runner(script: &str, nodes: usize, cfg: WorldConfig) -> ScenarioRunner<'static> {
    let mut b = TopologyBuilder::new();
    let hub = b.add_router();
    for i in 0..nodes {
        let h = b.add_host();
        let delay = Duration::from_micros(2_000 + 137 * i as u64);
        b.add_link(h, hub, LinkSpec::new(delay, 10_000_000, 256 * 1024));
    }
    Backend::Interpreted.runner("splitstream", script, b.build(), cfg)
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
    for script in [scenario_scale_script(12), partition_rejoin_script(12)] {
        for seed in [7u64, 77] {
            let cfg = WorldConfig {
                trace_level: TraceLevel::High,
                ..WorldConfig::scripted_churn(seed)
            };
            let outcome = runner(&script, 12, cfg).run();

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
    let script = scenario_scale_script(12);
    let run = |cfg: WorldConfig, workers: Option<usize>| {
        let mut runner = runner(&script, 12, cfg);
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
    let plain = run(WorldConfig::scripted_churn(77), None);
    let knobs = WorldConfig {
        shards: 2,
        profile: true,
        ..WorldConfig::scripted_churn(77)
    };
    assert_eq!(run(knobs, Some(2)), plain);
}
