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
//! whole oracle trace plus the final ring as a golden fixture.

mod common;

use common::assert_matches_golden;
use macedon::core::Stack;
use macedon::lang::interp::InterpretedAgent;
use macedon::prelude::*;
use macedon::scenario::{script, AgentView, ChordOracle, ScenarioOutcome, ScenarioRunner};
use macedon_bench::experiments::Backend;
use macedon_generated as gen;

fn star_topo(n: usize) -> macedon::net::Topology {
    macedon::net::topology::canned::star(n, macedon::net::topology::LinkSpec::lan())
}

const CHORD_LISTS: [&str; 3] = ["succs", "pred", "fingers"];

/// Read `(state, succs, pred, fingers)` out of a chord layer of either
/// back end — the StateProbe the oracles see snapshots through.
fn chord_view(stack: &Stack) -> AgentView {
    let a = stack.agent(0);
    let (state, lists) = if let Some(a) = a.as_any().downcast_ref::<InterpretedAgent>() {
        (
            a.state().to_string(),
            CHORD_LISTS
                .iter()
                .map(|&n| (n.to_string(), a.list(n).unwrap().clone()))
                .collect(),
        )
    } else if let Some(a) = a.as_any().downcast_ref::<gen::chord::Chord>() {
        (
            a.state_name().to_string(),
            CHORD_LISTS
                .iter()
                .map(|&n| (n.to_string(), a.neighbor_list(n).unwrap().to_vec()))
                .collect(),
        )
    } else {
        panic!("unexpected agent type at layer 0");
    };
    AgentView {
        protocol: "chord".into(),
        state,
        lists,
    }
}

/// Run `scenario_src` with an all-interpreted or all-generated chord
/// stack, the Chord oracle registered, and the chord probe installed.
fn run_chord(backend: Backend, scenario_src: &str, seed: u64) -> ScenarioOutcome {
    let scenario = script::parse(scenario_src).expect("scenario parses");
    let topo = star_topo(scenario.nodes);
    let cfg = WorldConfig {
        seed,
        channels: backend.channel_table("chord"),
        fd_g: Duration::from_secs(2),
        fd_f: Duration::from_secs(6),
        ..Default::default()
    };
    let mut runner = ScenarioRunner::new(
        scenario,
        topo,
        cfg,
        Box::new(move |_idx, _host, bootstrap| backend.build_stack("chord", bootstrap)),
    )
    .expect("runner binds");
    runner.register_oracle(Box::new(ChordOracle::new()));
    runner.set_probe(Box::new(|stack| vec![chord_view(stack)]));
    runner.run()
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
        let view = match out.world.stack(h) {
            Some(stack) => chord_view(stack),
            None => continue,
        };
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
            fmt(view.list("succs")),
            fmt(view.list("pred")),
        )
        .unwrap();
    }

    assert_matches_golden("oracle_adversarial", &text);
}
