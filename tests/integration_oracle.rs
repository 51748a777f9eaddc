//! Convergence-oracle integration: scripted `assert` checkpoints gate
//! scenario runs on *structural* overlay correctness. The acceptance
//! run is a seeded 50-node Chord churn scenario whose oracle fails at
//! the perturbation checkpoint (crashed nodes still sit in successor
//! lists) and passes at the final one, with time-to-first-convergence
//! recorded in the `MetricsReport` — identically for interpreted and
//! generated agents. The adversarial-start scenario boots half the
//! nodes behind a partition (a deliberately wrong successor graph:
//! every live key on the far side is missing from the near side's
//! ring), asserts divergence, heals, churns one node, and pins the
//! whole oracle trace plus the final ring as a golden fixture. A
//! splitstream run takes the Scribe and Pastry oracles to a live
//! three-layer stack on both back ends.

mod common;

use common::{assert_matches_golden, star};
use macedon::prelude::*;
use macedon::scenario::script;
use macedon_bench::experiments::Backend;

/// Run `scenario_src` with an all-interpreted or all-generated `proto`
/// stack on every node, and the oracles `oracles(group)` builds for the
/// scenario's multicast group registered.
fn run(
    backend: Backend,
    proto: &'static str,
    scenario_src: &str,
    seed: u64,
    oracles: impl FnOnce(MacedonKey) -> Vec<Box<dyn ConvergenceOracle>>,
) -> ScenarioOutcome {
    let scenario = script::parse(scenario_src).expect("scenario parses");
    let topo = star(scenario.nodes);
    let cfg = WorldConfig {
        seed,
        channels: backend.channel_table(proto),
        fd_g: Duration::from_secs(2),
        fd_f: Duration::from_secs(6),
        ..Default::default()
    };
    let mut runner = ScenarioRunner::new(
        scenario,
        topo,
        cfg,
        Box::new(move |_idx, _host, bootstrap| backend.build_stack(proto, bootstrap)),
    )
    .expect("runner binds");
    for oracle in oracles(runner.group()) {
        runner.register_oracle(oracle);
    }
    runner.run()
}

/// [`run`] with a chord stack and the Chord oracle.
fn run_chord(backend: Backend, scenario_src: &str, seed: u64) -> ScenarioOutcome {
    run(backend, "chord", scenario_src, seed, |_| {
        vec![Box::new(ChordOracle::new())]
    })
}

// ---------------------------------------------------------------------------
// Acceptance: 50-node churn, oracle fails at the perturbation
// checkpoint and passes at the final one, identically across back ends.
// ---------------------------------------------------------------------------

const CHURN: &str = "scenario chord-churn\nnodes 50\nend 150s\n\
     at 0s join 0..50 over 5s\n\
     at 40s crash 5 11 23\n\
     at 41s assert diverged chord\n\
     at 149s assert converged chord\n";

#[test]
fn chord_oracle_fails_at_perturbation_and_passes_at_end() {
    let i_out = run_chord(Backend::Interpreted, CHURN, 61);
    let g_out = run_chord(Backend::Generated, CHURN, 61);
    for (which, r) in [("interpreted", &i_out.report), ("generated", &g_out.report)] {
        assert_eq!(r.oracle_checks.len(), 2, "{which}: both checkpoints ran");
        // One second after the crash the failure detectors have not
        // fired: the dead nodes still sit in successor lists, so the
        // oracle must observe divergence.
        assert!(
            !r.oracle_checks[0].converged,
            "{which}: ring looked converged right after the crash\n{}",
            r.render()
        );
        assert!(
            !r.oracle_checks[0].violations.is_empty(),
            "{which}: divergence carries violations"
        );
        // By the end the ring has repaired around the crash.
        assert!(
            r.oracle_checks[1].converged,
            "{which}: ring never re-converged\n{}",
            r.render()
        );
        assert!(r.asserts_passed(), "{which}:\n{}", r.render());
        // Time-to-first-convergence is recorded in the report.
        assert_eq!(
            r.first_convergence("chord"),
            Some(Time::from_secs(149)),
            "{which}"
        );
        assert_eq!(r.alive, 47, "{which}: 3 of 50 crashed for good");
    }
    // The two translator back ends agree exactly: same violations at
    // the diverged checkpoint (same offending successors), same
    // rendered report (metrics, channels, oracle rows).
    assert_eq!(
        i_out.report.oracle_checks[0].violations, g_out.report.oracle_checks[0].violations,
        "interpreted vs generated snapshots diverged"
    );
    assert_eq!(i_out.report.render(), g_out.report.render());
}

#[test]
fn violations_print_expected_vs_actual_successor() {
    // Satellite of the CI story: an oracle failure must be debuggable
    // from the log alone — node id, expected and actual successor.
    let out = run_chord(Backend::Interpreted, CHURN, 61);
    let diverged = &out.report.oracle_checks[0];
    assert!(!diverged.violations.is_empty());
    for v in &diverged.violations {
        assert!(v.contains("expected"), "{v}");
        assert!(v.contains("successor"), "{v}");
        assert!(v.contains("succs ["), "offending snapshot shown: {v}");
    }
    // And the rendered report carries them on FAIL rows only when a
    // checkpoint actually failed — here both passed, so the table shows
    // ok rows.
    let rendered = out.report.render();
    assert!(rendered.contains("assert"), "{rendered}");
    assert!(
        rendered.contains("first convergence of 'chord'"),
        "{rendered}"
    );
}

#[test]
fn unregistered_oracle_fails_the_checkpoint() {
    let src = "scenario no-oracle\nnodes 4\nend 20s\n\
         at 0s join 0..4\nat 19s assert converged pastry\n";
    let out = run_chord(Backend::Interpreted, src, 9);
    assert!(!out.report.asserts_passed());
    assert!(out.report.oracle_checks[0].violations[0].contains("no oracle registered"));
}

// ---------------------------------------------------------------------------
// Adversarial start: half the nodes boot behind a partition, so the
// reachable ring is missing every far-side key — a deliberately wrong
// successor graph. The oracle must flag it, then pass after the heal
// (plus one crash/rejoin of churn), and the whole trace is pinned as a
// golden fixture.
// ---------------------------------------------------------------------------

const ADVERSARIAL: &str = "scenario adversarial-start\nnodes 16\nend 120s\n\
     at 0s partition wall 8..16\n\
     at 1s join 0..16 over 2s\n\
     at 20s assert diverged chord\n\
     at 40s heal wall\n\
     at 50s crash 3\n\
     at 60s rejoin 3\n\
     at 118s assert converged chord\n";

#[test]
fn golden_adversarial_start_converges_after_heal() {
    use std::fmt::Write;
    let out = run_chord(Backend::Interpreted, ADVERSARIAL, 77);
    let r = &out.report;
    assert!(r.asserts_passed(), "{}", r.render());
    assert!(
        !r.oracle_checks[0].converged,
        "partitioned start must diverge\n{}",
        r.render()
    );
    assert_eq!(
        r.first_convergence("chord"),
        Some(Time::from_secs(118)),
        "convergence time recorded after the heal"
    );

    // Pin the oracle trace and the final ring.
    let mut text = String::new();
    for c in &r.oracle_checks {
        writeln!(
            text,
            "o {} {} asserted={} observed={} {}",
            c.at.as_micros(),
            c.oracle,
            if c.expect_converged {
                "converged"
            } else {
                "diverged"
            },
            if c.converged { "converged" } else { "diverged" },
            if c.passed { "ok" } else { "FAIL" },
        )
        .unwrap();
        for v in &c.violations {
            writeln!(text, "v {v}").unwrap();
        }
    }
    writeln!(
        text,
        "conv {}",
        r.first_convergence("chord").unwrap().as_micros()
    )
    .unwrap();
    for (i, &h) in out.hosts[..16].iter().enumerate() {
        let Some(stack) = out.world.stack(h) else {
            continue;
        };
        let view = stack.agent(0).view().expect("chord.mac");
        let fmt = |l: &[NodeId]| {
            l.iter()
                .map(|n| n.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        writeln!(
            text,
            "s {} {} succs={} pred={}",
            i,
            view.state,
            fmt(view.list("succs").unwrap()),
            fmt(view.list("pred").unwrap()),
        )
        .unwrap();
    }

    assert_matches_golden("oracle_adversarial", &text);
}

// ---------------------------------------------------------------------------
// Live Pastry and Scribe: a splitstream → scribe → pastry stack joins and
// streams; its Scribe tree for the stream's group converges, and the
// Pastry oracle sees the same routing state on both back ends.
// ---------------------------------------------------------------------------

const SPLITSTREAM: &str = "scenario splitstream-trees\nnodes 16\nend 90s\n\
     at 0s join 0..16 over 4s\n\
     at 30s stream 0 rate 64kbps size 512 for 40s multicast\n\
     at 89s assert converged scribe\n";

#[test]
fn scribe_tree_converges_and_pastry_state_agrees_on_both_back_ends() {
    let runs = [Backend::Interpreted, Backend::Generated].map(|backend| {
        let out = run(backend, "splitstream", SPLITSTREAM, 42, |group| {
            vec![Box::new(ScribeTreeOracle::new(group))]
        });
        let r = &out.report;
        assert!(r.asserts_passed(), "{backend:?}:\n{}", r.render());
        // Pastry does not converge here (ROADMAP item 11): 66 of the 128
        // replayed routes stop at a node that knows no closer one, short
        // of the key's numerically closest node.
        let probes = (0..8u32).map(|i| MacedonKey(i.wrapping_mul(0x9E37_79B9)));
        let snap = Snapshot::of(&out.world, &out.hosts[..16]);
        let pastry: Vec<String> = PastryRouteOracle::new(probes.collect())
            .check(&snap)
            .iter()
            .map(|v| v.to_string())
            .collect();
        (r.render(), pastry)
    });
    assert_eq!(runs[0], runs[1], "the back ends agree");
}
