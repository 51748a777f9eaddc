//! Scenario-engine integration: the seeded churn+partition golden
//! fixture, and the acceptance scenario for engine-measured metrics —
//! overcast.mac under bandwidth degradation relocating children off the
//! degraded parent via the `goodput()` builtin, with interpreted and
//! generated agents producing exactly equal seeded runs.

mod common;

use common::{assert_matches_golden, star};
use macedon::prelude::*;
use macedon::scenario::script;
use macedon_bench::experiments::Backend;

/// Run `scenario_src` with an all-interpreted or all-generated overcast
/// stack on every node (fast failure detection so churn aftermath fits
/// the scripted windows).
fn run_overcast(backend: Backend, scenario_src: &str, seed: u64) -> ScenarioOutcome {
    let scenario = script::parse(scenario_src).expect("scenario parses");
    let topo = star(scenario.nodes);
    let cfg = WorldConfig {
        seed,
        channels: backend.channel_table("overcast"),
        fd_g: Duration::from_secs(2),
        fd_f: Duration::from_secs(6),
        ..Default::default()
    };
    let runner = ScenarioRunner::new(
        scenario,
        topo,
        cfg,
        Box::new(move |_idx, _host, bootstrap| backend.build_stack("overcast", bootstrap)),
    )
    .expect("runner binds");
    runner.run()
}

/// `(state, papa, kids)` per node, either back end.
fn tree(outcome: &ScenarioOutcome) -> Vec<(String, Vec<NodeId>, Vec<NodeId>)> {
    outcome
        .hosts
        .iter()
        .map(|&h| match outcome.world.stack(h) {
            Some(stack) => {
                let a = stack.agent(0).view().expect("overcast.mac");
                let list = |name| a.list(name).unwrap().to_vec();
                (a.state.to_string(), list("papa"), list("kids"))
            }
            None => ("<despawned>".into(), vec![], vec![]),
        })
        .collect()
}

type Log = Vec<(Time, NodeId, u32, NodeId, usize, Option<u64>)>;

fn log_of(outcome: &ScenarioOutcome) -> Log {
    outcome
        .deliveries
        .lock()
        .iter()
        .map(|r| (r.at, r.node, r.src.0, r.from, r.bytes, r.seqno))
        .collect()
}

// ---------------------------------------------------------------------------
// Acceptance: goodput()-driven relocation under bandwidth degradation,
// bit-for-bit equal across the two translator back ends.
// ---------------------------------------------------------------------------

const DEGRADE_SEED: u64 = 41;

/// Join + stream schedule shared by the control and degraded runs.
const DEGRADE_PREFIX: &str = "scenario degrade\nnodes 10\nend 75s\n\
     at 0s join 0..10 over 1s\n\
     at 15s stream 0 rate 64kbps size 256 for 55s multicast\n";

#[test]
fn overcast_relocates_children_off_a_degraded_parent() {
    // Control: same seed and schedule, no degradation — learn the tree
    // and pin down a depth-2 parent C.
    let control = run_overcast(Backend::Interpreted, DEGRADE_PREFIX, DEGRADE_SEED);
    let control_tree = tree(&control);
    let root = control.hosts[0];
    let c_idx = control_tree
        .iter()
        .enumerate()
        .position(|(i, (_, _, kids))| control.hosts[i] != root && !kids.is_empty())
        .expect("seeded tree has a depth-2 parent; pick another seed");
    let c_kids = control_tree[c_idx].2.clone();
    assert!(!c_kids.is_empty());

    // Degrade C's access link to 4 kbit/s at t=25s: its probe trains
    // (and forwarded stream data) arrive slowly, goodput(C) collapses
    // at its children, and the next probe epochs relocate them.
    let degraded_src = format!("{DEGRADE_PREFIX}at 25s degrade {c_idx} bw 4kbps\n");
    let i_out = run_overcast(Backend::Interpreted, &degraded_src, DEGRADE_SEED);
    let g_out = run_overcast(Backend::Generated, &degraded_src, DEGRADE_SEED);

    // The two translator back ends agree exactly: identical delivery
    // logs (timestamps included) and identical final FSM/neighbor state.
    let (ilog, glog) = (log_of(&i_out), log_of(&g_out));
    assert!(!ilog.is_empty(), "stream delivered packets");
    assert_eq!(ilog, glog, "interpreted vs generated logs diverged");
    assert_eq!(
        tree(&i_out),
        tree(&g_out),
        "interpreted vs generated end state diverged"
    );

    // At least one of C's children relocated away (driven by the new
    // goodput() builtin — the only relocation trigger in the spec).
    let degraded_tree = tree(&i_out);
    let c_kids_after = &degraded_tree[c_idx].2;
    assert!(
        c_kids.iter().any(|k| !c_kids_after.contains(k)),
        "no child left degraded parent {c_idx}: before {c_kids:?}, after {c_kids_after:?}"
    );
    // Control run with no degradation keeps the tree stable — the
    // relocation really is the degradation's doing.
    assert_eq!(
        control_tree[c_idx].2, c_kids,
        "control tree must be stable for this assertion to mean anything"
    );
}

// ---------------------------------------------------------------------------
// Golden fixture: seeded churn + partition scenario (delivery log, FSM
// states, alive set after heal) pinned across builds.
// ---------------------------------------------------------------------------

const CHURN_GOLDEN: &str = "scenario churn-golden\nnodes 10\nend 80s\n\
     at 0s join 0..10 over 2s\n\
     at 15s stream 0 rate 64kbps size 128 for 60s multicast\n\
     at 30s crash 7\n\
     at 40s rejoin 7\n\
     at 50s partition cut 5 6\n\
     at 60s heal cut\n";

#[test]
fn golden_churn_partition_scenario() {
    use std::fmt::Write;
    let outcome = run_overcast(Backend::Interpreted, CHURN_GOLDEN, 35);
    let mut out = String::new();
    for r in outcome.deliveries.lock().iter() {
        writeln!(
            out,
            "d {} {} {} {} {} {}",
            r.at.as_micros(),
            r.node.0,
            r.src.0,
            r.from.0,
            r.bytes,
            r.seqno.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
        )
        .unwrap();
    }
    for (i, (state, papa, kids)) in tree(&outcome).iter().enumerate() {
        let fmt = |l: &[NodeId]| {
            l.iter()
                .map(|n| n.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        writeln!(
            out,
            "s {} {} papa={} kids={}",
            i,
            state,
            fmt(papa),
            fmt(kids)
        )
        .unwrap();
    }
    // Alive set after the heal (scenario end).
    let alive: Vec<u32> = outcome
        .hosts
        .iter()
        .filter(|&&h| outcome.world.is_alive(h))
        .map(|h| h.0)
        .collect();
    writeln!(
        out,
        "alive {}",
        alive
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    )
    .unwrap();

    assert!(out.lines().any(|l| l.starts_with('d')), "run delivered");
    assert!(out.contains("alive"), "alive set rendered");

    assert_matches_golden("scenario_churn", &out);
}

// ---------------------------------------------------------------------------
// Cross-backend churn equality: the same scripted churn scenario drives
// interpreted and generated stacks to identical outcomes.
// ---------------------------------------------------------------------------

#[test]
fn churn_scenario_backends_agree() {
    let i_out = run_overcast(Backend::Interpreted, CHURN_GOLDEN, 36);
    let g_out = run_overcast(Backend::Generated, CHURN_GOLDEN, 36);
    let (ilog, glog) = (log_of(&i_out), log_of(&g_out));
    assert!(!ilog.is_empty());
    assert_eq!(ilog, glog, "churn scenario logs diverged across back ends");
    assert_eq!(tree(&i_out), tree(&g_out));
    // The crashed-and-rejoined node is alive in both.
    assert!(i_out.world.is_alive(i_out.hosts[7]));
    assert!(g_out.world.is_alive(g_out.hosts[7]));
}
