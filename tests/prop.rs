//! Determinism properties of the sharded windowed engine.
//!
//! Two separate contracts are exercised, both over real scenario runs
//! of the from-spec splitstream stack (transport, failure detector,
//! overlay maintenance and scripted perturbations all active):
//!
//! 1. **Worker invariance** — for a world partitioned into `P` shards,
//!    the worker count driving the windows is pure wall-clock policy:
//!    every `MetricsReport` (JSON *and* rendered log) is byte-identical
//!    for workers 1..=8. This holds by construction — the barrier merge
//!    orders cross-shard traffic by `(sent_at, shard, seq)`, never by
//!    thread arrival — and must hold for *every* scenario.
//! 2. **Sharded ≡ sequential** — a sharded run reproduces the
//!    sequential engine byte-for-byte on the tested scenarios. The
//!    documented caveat (ARCHITECTURE.md, "The sharded windowed
//!    engine"): equality is exact while no link queue holds traffic
//!    from two shards at once within a lookahead window. Uncontended
//!    reservations commute; under cross-shard contention the
//!    sequential engine's send-instant whole-path charging cannot be
//!    reproduced by any windowed schedule, and same-microsecond ties
//!    serialize by `(sent_at, shard, seq)` instead of global insertion
//!    order. The scenarios here (staggered joins, route streams,
//!    crashes, rejoins, partitions on a jittered star) stay inside
//!    that contract. The 1k-node run is `#[ignore]`d in the plain run;
//!    CI runs it in release with `--ignored`.

use macedon_core::{SpanId, TraceEvent, TraceLevel, WorldConfig};
use macedon_lang::SpecRegistry;
use macedon_net::topology::{LinkSpec, TopologyBuilder};
use macedon_scenario::ScenarioRunner;
use macedon_sim::Duration;

/// The property tests' spokes: delays all distinct (2ms + 137µs·i) on
/// 10 Mbps links. A perfectly symmetric star makes every
/// failure-detector fan-out collide in the same microsecond on the
/// monitor's downlink — the exact tie class the equality contract
/// excludes — so the property tests use distinct delays to keep every
/// reservation order-free.
fn jittered_link(i: usize) -> LinkSpec {
    LinkSpec::new(
        Duration::from_micros(2_000 + 137 * i as u64),
        10_000_000,
        256 * 1024,
    )
}

/// The 1k-node run's spokes: delays all distinct (2ms + 1µs·i), so no
/// two shards act in the same microsecond, on links fat enough (1 Gbps,
/// 4 MiB queues) that no queue ever holds traffic from two shards at
/// once — the regime where link charging commutes and the sharded
/// engine is exact, not approximate.
fn fat_link(i: usize) -> LinkSpec {
    LinkSpec::new(
        Duration::from_micros(2_000 + i as u64),
        1_000_000_000,
        4 * 1024 * 1024,
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

/// One seeded scenario run; returns the full metrics JSON and the
/// rendered human log (the "golden log" surface).
fn run_report(
    script: &str,
    nodes: usize,
    link: fn(usize) -> LinkSpec,
    seed: u64,
    shards: usize,
    workers: usize,
) -> (String, String) {
    let registry = SpecRegistry::bundled();
    let scenario = macedon_scenario::script::parse(script).expect("script parses");
    let topo = star(nodes, link);
    let cfg = WorldConfig {
        seed,
        channels: registry
            .channel_table_for("splitstream")
            .expect("bundled chain resolves"),
        fd_g: Duration::from_secs(2),
        fd_f: Duration::from_secs(6),
        shards,
        ..Default::default()
    };
    let mut runner = ScenarioRunner::new(
        scenario,
        topo,
        cfg,
        Box::new(|_idx, _host, bootstrap| {
            registry
                .build_stack("splitstream", bootstrap)
                .expect("bundled stack builds")
        }),
    )
    .expect("scenario binds");
    runner.set_workers(workers);
    let outcome = runner.run();
    (outcome.report.to_json(), outcome.report.render())
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

/// Despawn/rejoin *under* a partition whose cut crosses every shard
/// boundary (the partition splits the host range in half; contiguous
/// shard chunks each straddle traffic to the far side).
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
fn worker_count_is_pure_policy() {
    // Fixed 4-shard partition; workers 1..=8 must agree byte-for-byte.
    for (script, nodes) in [(scale_script(12), 12), (partition_rejoin_script(12), 12)] {
        for seed in [7u64, 77] {
            let want = run_report(&script, nodes, jittered_link, seed, 4, 1);
            for workers in 2..=8usize {
                let got = run_report(&script, nodes, jittered_link, seed, 4, workers);
                assert_eq!(
                    got, want,
                    "seed {seed} workers {workers} diverged from 1-worker run"
                );
            }
        }
    }
}

/// `script` run sharded `shards` ways (one worker per shard) must
/// reproduce the sequential engine's report byte for byte.
fn assert_sharded_matches_sequential(
    script: &str,
    nodes: usize,
    link: fn(usize) -> LinkSpec,
    seed: u64,
    shards: &[usize],
) {
    let want = run_report(script, nodes, link, seed, 1, 1);
    for &p in shards {
        let got = run_report(script, nodes, link, seed, p, p);
        assert_eq!(
            got, want,
            "seed {seed}: {p}-shard run diverged from the sequential engine"
        );
    }
}

#[test]
fn sharded_scale_run_matches_sequential() {
    for seed in [7u64, 77, 4242] {
        assert_sharded_matches_sequential(&scale_script(12), 12, jittered_link, seed, &[2, 4]);
    }
}

/// The `bench_scale` scenario at 1k nodes (staggered full-population
/// join, route stream, crash wave with rejoin): a run big enough that
/// every shard carries real traffic.
#[test]
#[ignore = "1k nodes; run with --release -- --ignored"]
fn sharded_1k_node_scale_run_matches_sequential() {
    let script = macedon_bench::experiments::scenario_scale_script(1_000);
    assert_sharded_matches_sequential(&script, 1_000, fat_link, 1_000, &[2, 4]);
}

#[test]
fn span_parentage_is_a_forest_across_scenarios() {
    // Property over real scenario runs (churn, partitions, rejoins, all
    // shard counts): walking the merged trace in `(at, shard, seq)`
    // order, every causal context a record carries was minted by a
    // strictly earlier `Send`, and no span is minted twice. Crashes and
    // partitions must not orphan contexts — a span delivered after its
    // origin crashed still resolves to the historical mint.
    for (script, nodes) in [
        (scale_script(12), 12usize),
        (partition_rejoin_script(12), 12),
    ] {
        for (seed, shards, workers) in [(7u64, 1usize, 1usize), (77, 4, 4)] {
            let registry = SpecRegistry::bundled();
            let scenario = macedon_scenario::script::parse(&script).expect("script parses");
            let topo = star(nodes, jittered_link);
            let cfg = WorldConfig {
                seed,
                channels: registry.channel_table_for("splitstream").unwrap(),
                fd_g: Duration::from_secs(2),
                fd_f: Duration::from_secs(6),
                shards,
                ..Default::default()
            };
            let mut runner = ScenarioRunner::new(
                scenario,
                topo,
                cfg,
                Box::new(|_idx, _host, bootstrap| {
                    registry.build_stack("splitstream", bootstrap).unwrap()
                }),
            )
            .expect("scenario binds");
            runner.set_workers(workers);
            runner.set_trace_level(TraceLevel::High);
            let outcome = runner.run();

            let mut minted = std::collections::HashSet::new();
            let mut sends = 0u64;
            for r in outcome.world.merged_trace() {
                if r.span != SpanId::NONE {
                    assert!(
                        minted.contains(&r.span.0),
                        "seed {seed} shards {shards}: span {:016x} referenced before mint",
                        r.span.0
                    );
                }
                if let TraceEvent::Send { span, .. } = &r.event {
                    sends += 1;
                    assert!(
                        minted.insert(span.0),
                        "seed {seed} shards {shards}: span {:016x} minted twice",
                        span.0
                    );
                }
            }
            assert!(sends > 0, "seed {seed} shards {shards}: no spans minted");
        }
    }
}

#[test]
fn despawn_rejoin_under_partition_crosses_shards() {
    // The crash victim sits just past the partition cut; with 2 shards
    // the cut coincides with the shard boundary, with 3 it crosses it.
    for seed in [7u64, 77] {
        let script = partition_rejoin_script(12);
        assert_sharded_matches_sequential(&script, 12, jittered_link, seed, &[2, 3, 4]);
    }
}
