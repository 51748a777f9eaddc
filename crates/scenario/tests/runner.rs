//! End-to-end scenario runs over interpreted `.mac` stacks: churn,
//! partition, degradation and rejoin all compile onto the world and
//! produce engine-measured metrics.

use macedon_core::{Agent, Bytes, Ctx, DownCall, NodeId, ProtocolId, WorldConfig};
use macedon_lang::SpecRegistry;
use macedon_net::topology::{canned, LinkSpec};
use macedon_scenario::{script, ScenarioRunner};
use macedon_sim::Duration;
use std::any::Any;
use std::sync::{Arc, Mutex};

fn runner_for<'a>(
    reg: &'a SpecRegistry,
    scenario: macedon_scenario::Scenario,
    nodes: usize,
    seed: u64,
) -> ScenarioRunner<'a> {
    let topo = canned::star(nodes, LinkSpec::lan());
    let cfg = WorldConfig {
        channels: reg.channel_table_for("overcast").unwrap(),
        ..WorldConfig::scripted_churn(seed)
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

#[test]
fn probe_fires_on_its_grid_and_changes_nothing() {
    let reg = SpecRegistry::bundled();
    // Telemetry every 3 s and the probe every `every_s`: the one slicing
    // loop pauses at both grids.
    let report = |every_s: Option<u64>| {
        let mut seen = Vec::new();
        let mut runner = runner_for(&reg, script::parse(CHURN).unwrap(), 10, 7);
        runner.enable_telemetry(Duration::from_secs(3));
        if let Some(every_s) = every_s {
            runner.sample_every(Duration::from_secs(every_s), |t, w, hosts| {
                assert_eq!(w.now(), t, "the world has run to the probe instant");
                seen.push((t.as_micros() / 1_000_000, hosts.len()));
            });
        }
        let json = runner.run().report.to_json();
        (json, seen)
    };
    let (plain, none) = report(None);
    assert!(none.is_empty());
    // The churn script ends at 90 s: a 10 s grid reaches it, a 4 s grid
    // stops at 88 s and the probe fires once more at the end.
    for (every_s, want) in [
        (10, (0..=90).step_by(10).collect::<Vec<u64>>()),
        (4, (0..=88).step_by(4).chain([90]).collect()),
    ] {
        let (probed, seen) = report(Some(every_s));
        assert_eq!(probed, plain, "a probe never changes the report");
        let want: Vec<(u64, usize)> = want.into_iter().map(|t| (t, 10)).collect();
        assert_eq!(seen, want, "at 0, every {every_s} s, and at the end");
    }
}

/// Membership calls as `(ms, node, "create" | "join")`.
type Calls = Arc<Mutex<Vec<(u64, NodeId, &'static str)>>>;

/// A one-layer stack that records each group-membership call its node
/// receives.
struct MembershipLog(Calls);

impl Agent for MembershipLog {
    fn protocol_id(&self) -> ProtocolId {
        99
    }
    fn name(&self) -> &'static str {
        "membership-log"
    }
    fn init(&mut self, _ctx: &mut Ctx) {}
    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        let what = match call {
            DownCall::CreateGroup { .. } => "create",
            DownCall::Join { .. } => "join",
            _ => return,
        };
        let ms = ctx.now.as_micros() / 1_000;
        self.0.lock().unwrap().push((ms, ctx.me, what));
    }
    fn recv(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Bytes) {}
    fn timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One membership rule: a script that names `create`/`subscribe` gets
/// exactly those calls; a multicast script that names none has every
/// node join 1 s after it spawns.
#[test]
fn membership_calls_are_exactly_the_scripted_ones() {
    let calls = |body: &str| -> Vec<(u64, usize, &'static str)> {
        let src = format!("scenario members\nnodes 4\nend 20s\nat 0s join 0..4 over 2s\n{body}");
        let log = Calls::default();
        let sink = log.clone();
        let outcome = ScenarioRunner::new(
            script::parse(&src).unwrap(),
            canned::star(4, LinkSpec::lan()),
            WorldConfig::default(),
            Box::new(move |_idx, _host, _bootstrap| {
                vec![Box::new(MembershipLog(sink.clone())) as Box<dyn Agent>]
            }),
        )
        .unwrap()
        .run();
        let idx = |node| outcome.hosts.iter().position(|&h| h == node).unwrap();
        let log = log.lock().unwrap();
        log.iter()
            .map(|&(ms, node, what)| (ms, idx(node), what))
            .collect()
    };
    let stream = "at 10s stream 0 rate 8kbps size 100 for 1s multicast\n";
    // Nodes spawn at 0, 0.5, 1 and 1.5 s; each joins 1 s later.
    assert_eq!(
        calls(stream),
        vec![
            (1000, 0, "join"),
            (1500, 1, "join"),
            (2000, 2, "join"),
            (2500, 3, "join")
        ]
    );
    // Named membership: exactly the named calls, staggered like `join`.
    let named = format!("at 3s create 0\nat 4s subscribe 2..4 over 1s\n{stream}");
    assert_eq!(
        calls(&named),
        vec![(3000, 0, "create"), (4000, 2, "join"), (4500, 3, "join")]
    );
    // A route-only script joins nobody by default.
    assert_eq!(
        calls("at 10s stream 0 rate 8kbps size 100 for 1s route\n"),
        vec![]
    );
}
