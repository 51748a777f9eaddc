//! End-to-end scenario runs over interpreted `.mac` stacks: churn,
//! partition, degradation and rejoin all compile onto the world and
//! produce engine-measured metrics.

use macedon_core::WorldConfig;
use macedon_lang::SpecRegistry;
use macedon_net::topology::{canned, LinkSpec};
use macedon_scenario::{script, ScenarioRunner};
use macedon_sim::Duration;

fn runner_for<'a>(
    reg: &'a SpecRegistry,
    scenario: macedon_scenario::Scenario,
    nodes: usize,
    seed: u64,
) -> ScenarioRunner<'a> {
    let topo = canned::star(nodes, LinkSpec::lan());
    let cfg = WorldConfig {
        seed,
        channels: reg.channel_table_for("overcast").unwrap(),
        // Fast failure detection so crash aftermath falls inside the
        // scenario's perturbation windows.
        fd_g: Duration::from_secs(2),
        fd_f: Duration::from_secs(6),
        ..Default::default()
    };
    ScenarioRunner::new(
        scenario,
        topo,
        cfg,
        Box::new(move |_idx, _host, bootstrap| reg.build_stack("overcast", bootstrap).unwrap()),
    )
    .unwrap()
}

const CHURN: &str = r#"
scenario churn-smoke
nodes 10
end 90s

at 0s   join 0..10 over 2s
at 20s  stream 0 rate 100kbps size 256 for 60s multicast
at 30s  crash 7
at 45s  rejoin 7
at 55s  partition cut 5 6
at 65s  heal cut
at 70s  degrade 3 bw 64kbps delay 20ms
at 80s  restore 3
"#;

#[test]
fn churn_scenario_runs_and_measures() {
    let reg = SpecRegistry::bundled();
    let scenario = script::parse(CHURN).unwrap();
    let outcome = runner_for(&reg, scenario, 10, 7).run();
    let r = &outcome.report;

    // Everyone (including the rejoined 7) alive at the end.
    assert_eq!(r.alive, 10, "{}", r.render());
    assert!(outcome.world.is_alive(outcome.hosts[7]), "7 rejoined");

    // The stream delivered real traffic to non-source nodes.
    assert!(r.total_delivered > 0, "{}", r.render());
    let receivers = r.nodes.iter().filter(|n| n.index != 0);
    assert!(
        receivers
            .clone()
            .any(|n| n.delivered > 0 && n.goodput_bps > 0),
        "{}",
        r.render()
    );
    // Latency is reconstructed against the stream schedule.
    assert!(
        r.nodes.iter().any(|n| n.mean_latency.is_some()),
        "{}",
        r.render()
    );

    // Perturbations are reported in time order, and the crash shows
    // observable convergence churn (failure detector fires well within
    // the 15 s window before the rejoin).
    let kinds: Vec<&str> = r.perturbations.iter().map(|p| p.what.as_str()).collect();
    assert_eq!(kinds.len(), 6, "{kinds:?}");
    assert!(kinds[0].starts_with("crash"), "{kinds:?}");
    let crash = &r.perturbations[0];
    assert!(crash.convergence.is_some(), "{}", r.render());

    // Transport overhead is accounted per channel.
    assert!(r.channels.iter().any(|c| c.segments > 0));
    assert!(r.channels.iter().map(|c| c.bytes).sum::<u64>() > 0);
}

#[test]
fn partition_suppresses_cross_side_delivery() {
    // Stream throughout; partition the receivers halfway and verify the
    // cut side's goodput window shows the gap (fewer deliveries than an
    // uncut run).
    let reg = SpecRegistry::bundled();
    let script_cut = "scenario cut\nnodes 6\nend 60s\n\
                      at 0s join 0..6 over 1s\n\
                      at 10s stream 0 rate 100kbps size 256 for 45s multicast\n\
                      at 20s partition hemi 4 5\nat 40s heal hemi\n";
    let script_uncut = "scenario uncut\nnodes 6\nend 60s\n\
                        at 0s join 0..6 over 1s\n\
                        at 10s stream 0 rate 100kbps size 256 for 45s multicast\n";
    let cut = runner_for(&reg, script::parse(script_cut).unwrap(), 6, 9).run();
    let uncut = runner_for(&reg, script::parse(script_uncut).unwrap(), 6, 9).run();
    let delivered =
        |o: &macedon_scenario::ScenarioOutcome, idx: usize| o.report.nodes[idx].delivered;
    // Node 4 sat behind the cut for 20 of 45 streaming seconds.
    assert!(
        delivered(&cut, 4) < delivered(&uncut, 4),
        "cut {} vs uncut {}\n{}",
        delivered(&cut, 4),
        delivered(&uncut, 4),
        cut.report.render()
    );
    // An un-partitioned receiver is unaffected by the cut.
    assert!(delivered(&cut, 1) > 0);
    assert!(cut.report.net_drops > 0, "partition dropped packets");
}

#[test]
fn seeded_runs_are_reproducible() {
    let reg = SpecRegistry::bundled();
    let run = || {
        let outcome = runner_for(&reg, script::parse(CHURN).unwrap(), 10, 21).run();
        let log = outcome.deliveries.lock().clone();
        log.iter()
            .map(|r| (r.at, r.node, r.bytes, r.seqno))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn builder_scenario_runs_with_random_route_stream() {
    let reg = SpecRegistry::bundled();
    let scenario = script::parse(
        "scenario builder\nnodes 6\nend 50s\nat 0s join 0..6 over 1s\n\
         at 15s stream 1 rate 50kbps size 256 for 20s multicast\nat 40s crash 5\n",
    )
    .unwrap();
    let outcome = runner_for(&reg, scenario, 6, 33).run();
    assert_eq!(outcome.report.alive, 5);
    assert!(outcome.report.total_delivered > 0);
}

#[test]
fn too_small_topology_diagnosed() {
    let reg = SpecRegistry::bundled();
    let scenario = script::parse("nodes 10\nend 10s\nat 0s join 0..10\n").unwrap();
    let topo = canned::star(4, LinkSpec::lan());
    let e = ScenarioRunner::new(
        scenario,
        topo,
        WorldConfig::default(),
        Box::new(move |_i, _h, b| reg.build_stack("overcast", b).unwrap()),
    )
    .err()
    .unwrap();
    assert!(e.msg.contains("4 hosts"), "{e}");
}
