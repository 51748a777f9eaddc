//! Sweep-driver integration: pinned JSON/CSV schemas, byte-identical
//! parallel merges, and a small real-stack sweep over an interpreted
//! `.mac` overlay.
//!
//! The schema pins use a *synthetic* cell runner — a pure function of
//! the cell coordinates — so the fixtures stay exact without simulating
//! anything; `real_stack_sweep_runs` then closes the loop on the actual
//! engine.

use macedon_core::{Duration, TelemetryReport, TelemetrySample, Time, WorldConfig};
use macedon_lang::SpecRegistry;
use macedon_net::topology::{canned, LinkSpec};
use macedon_scenario::sweep::derive_seed;
use macedon_scenario::{
    run_sweep, GridAxis, LatencySummary, MetricsReport, PerturbationReport, ScenarioRunner,
    SweepCell, SweepSpec,
};

const TEMPLATE: &str = "scenario pin\nnodes {nodes}\nend 10s\nat 0s join 0..{nodes} over 1s\n";

fn pin_spec() -> SweepSpec {
    SweepSpec {
        name: "pin".into(),
        template: TEMPLATE.into(),
        seeds: vec![1, 2],
        node_counts: vec![3],
        grid: vec![GridAxis::new("loss", ["0", "0.5"])],
        workers: Some(2),
    }
}

/// A deterministic fake run: every metric is a pure function of the
/// cell's coordinates, covering both the some/none latency and
/// convergence paths and a failing assert.
fn synth(cell: &SweepCell) -> MetricsReport {
    let i = cell.index as u64;
    MetricsReport {
        scenario: cell.scenario.name.clone(),
        end: cell.scenario.end,
        alive: cell.nodes,
        total_delivered: 10 * (i + 1),
        total_bytes: 10_000 * (i + 1),
        net_drops: cell.seed,
        latency: if cell.index % 2 == 0 {
            LatencySummary::from_samples_us(&[1_000 + i, 2_000, 3_000, 9_000 + i])
        } else {
            None
        },
        nodes: Vec::new(),
        perturbations: if cell.index == 0 {
            Vec::new()
        } else {
            vec![
                PerturbationReport {
                    at: Time::from_secs(5),
                    what: "crash".into(),
                    convergence: Some(Duration::from_micros(100_000 * i)),
                    deliveries_during: 1,
                },
                PerturbationReport {
                    at: Time::from_secs(7),
                    what: "heal".into(),
                    convergence: Some(Duration::from_micros(200_000)),
                    deliveries_during: 2,
                },
            ]
        },
        channels: Vec::new(),
        oracle_checks: Vec::new(),
        // Cell 0 carries a sampled time series so the pinned schemas
        // cover both the sampled and unsampled columns.
        telemetry: (cell.index == 0).then(|| TelemetryReport {
            every_us: 1_000_000,
            samples: vec![
                TelemetrySample {
                    at_us: 1_000_000,
                    pending_events: 3,
                    ..Default::default()
                },
                TelemetrySample {
                    at_us: 2_000_000,
                    pending_events: 7,
                    ..Default::default()
                },
            ],
        }),
    }
}

#[test]
fn sweep_json_schema_is_pinned() {
    let report = run_sweep(&pin_spec(), synth).unwrap();
    let d = |seed, loss: &str| derive_seed(seed, 3, &[("loss".into(), loss.into())]);
    let (d0, d1, d2, d3) = (d(1, "0"), d(2, "0"), d(1, "0.5"), d(2, "0.5"));
    let expected = format!(
        r#"{{
  "sweep": "pin",
  "seeds": [1, 2],
  "node_counts": [3],
  "axes": [
    {{"name": "loss", "values": ["0", "0.5"]}}
  ],
  "cells": [
    {{"cell": 0, "nodes": 3, "seed": 1, "derived_seed": {d0}, "params": {{"loss": "0"}}, "alive": 3, "delivered": 10, "bytes": 10000, "net_drops": 1, "mean_goodput_bps": 0, "latency": {{"samples": 4, "p50_us": 2000, "p95_us": 9000, "p99_us": 9000, "max_us": 9000}}, "convergences_us": [], "asserts_passed": true, "telemetry_samples": 2, "peak_pending_events": 7}},
    {{"cell": 1, "nodes": 3, "seed": 2, "derived_seed": {d1}, "params": {{"loss": "0"}}, "alive": 3, "delivered": 20, "bytes": 20000, "net_drops": 2, "mean_goodput_bps": 0, "latency": null, "convergences_us": [100000, 200000], "asserts_passed": true, "telemetry_samples": 0, "peak_pending_events": 0}},
    {{"cell": 2, "nodes": 3, "seed": 1, "derived_seed": {d2}, "params": {{"loss": "0.5"}}, "alive": 3, "delivered": 30, "bytes": 30000, "net_drops": 1, "mean_goodput_bps": 0, "latency": {{"samples": 4, "p50_us": 2000, "p95_us": 9002, "p99_us": 9002, "max_us": 9002}}, "convergences_us": [200000, 200000], "asserts_passed": true, "telemetry_samples": 0, "peak_pending_events": 0}},
    {{"cell": 3, "nodes": 3, "seed": 2, "derived_seed": {d3}, "params": {{"loss": "0.5"}}, "alive": 3, "delivered": 40, "bytes": 40000, "net_drops": 2, "mean_goodput_bps": 0, "latency": null, "convergences_us": [300000, 200000], "asserts_passed": true, "telemetry_samples": 0, "peak_pending_events": 0}}
  ],
  "configs": [
    {{"nodes": 3, "params": {{"loss": "0"}}, "cells": 2, "delivered": {{"min": 10, "mean": 15, "max": 20}}, "net_drops": {{"min": 1, "mean": 1, "max": 2}}, "goodput_bps": {{"min": 0, "mean": 0, "max": 0}}, "latency_p50_us": {{"min": 2000, "mean": 2000, "max": 2000}}, "latency_p95_us": {{"min": 9000, "mean": 9000, "max": 9000}}, "latency_p99_us": {{"min": 9000, "mean": 9000, "max": 9000}}, "convergence": {{"samples": 2, "p50_us": 100000, "p95_us": 200000, "max_us": 200000}}, "all_asserts_passed": true}},
    {{"nodes": 3, "params": {{"loss": "0.5"}}, "cells": 2, "delivered": {{"min": 30, "mean": 35, "max": 40}}, "net_drops": {{"min": 1, "mean": 1, "max": 2}}, "goodput_bps": {{"min": 0, "mean": 0, "max": 0}}, "latency_p50_us": {{"min": 2000, "mean": 2000, "max": 2000}}, "latency_p95_us": {{"min": 9002, "mean": 9002, "max": 9002}}, "latency_p99_us": {{"min": 9002, "mean": 9002, "max": 9002}}, "convergence": {{"samples": 4, "p50_us": 200000, "p95_us": 300000, "max_us": 300000}}, "all_asserts_passed": true}}
  ]
}}
"#
    );
    assert_eq!(report.to_json(), expected);
}

#[test]
fn sweep_csv_schema_is_pinned() {
    let report = run_sweep(&pin_spec(), synth).unwrap();
    let d = |seed, loss: &str| derive_seed(seed, 3, &[("loss".into(), loss.into())]);
    let expected = format!(
        "cell,nodes,seed,derived_seed,loss,alive,delivered,bytes,net_drops,\
         mean_goodput_bps,latency_samples,latency_p50_us,latency_p95_us,\
         latency_p99_us,latency_max_us,convergences,convergence_p50_us,asserts_passed,\
         telemetry_samples,peak_pending_events\n\
         0,3,1,{},0,3,10,10000,1,0,4,2000,9000,9000,9000,0,,true,2,7\n\
         1,3,2,{},0,3,20,20000,2,0,,,,,,2,100000,true,0,0\n\
         2,3,1,{},0.5,3,30,30000,1,0,4,2000,9002,9002,9002,2,200000,true,0,0\n\
         3,3,2,{},0.5,3,40,40000,2,0,,,,,,2,200000,true,0,0\n",
        d(1, "0"),
        d(2, "0"),
        d(1, "0.5"),
        d(2, "0.5"),
    );
    assert_eq!(report.to_csv(), expected);
}

#[test]
fn parallel_sweep_is_byte_identical() {
    // 24 cells on an oversubscribed pool, with a completion-order
    // scrambler: each cell sleeps an amount that varies with its index,
    // so late cells routinely finish before early ones. The merge is
    // indexed, so none of that may show in the bytes.
    let spec = SweepSpec {
        name: "det".into(),
        template: TEMPLATE.into(),
        seeds: vec![1, 2, 3, 4],
        node_counts: vec![2, 3, 4],
        grid: vec![GridAxis::new("loss", ["0", "0.9"])],
        workers: Some(8),
    };
    let scrambled = |cell: &SweepCell| {
        std::thread::sleep(std::time::Duration::from_micros(
            (cell.derived_seed % 7) * 300,
        ));
        synth(cell)
    };
    let a = run_sweep(&spec, scrambled).unwrap();
    let b = run_sweep(&spec, scrambled).unwrap();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_csv(), b.to_csv());

    // A single worker produces the same bytes as the pool.
    let serial = SweepSpec {
        workers: Some(1),
        ..spec
    };
    let c = run_sweep(&serial, synth).unwrap();
    assert_eq!(a.to_json(), c.to_json());
    assert_eq!(a.to_csv(), c.to_csv());
}

#[test]
fn panicking_cell_fails_the_sweep_with_its_coordinates() {
    // Cell 2 is (nodes 3, loss 0.5, seed 1); the other three succeed.
    let spec = pin_spec();
    let err = run_sweep(&spec, |cell: &SweepCell| {
        assert!(cell.index != 2, "planted failure");
        synth(cell)
    })
    .unwrap_err();
    let derived = derive_seed(1, 3, &[("loss".into(), "0.5".into())]);
    assert_eq!(
        err.msg,
        format!("cell 2 (nodes=3, loss=0.5, seed=1, derived seed {derived:#018x}) panicked: planted failure")
    );
    // The pool survives: the same spec without the fault still runs.
    assert!(run_sweep(&spec, synth).is_ok());
}

#[test]
fn real_stack_sweep_runs() {
    // A small end-to-end sweep over the interpreted overcast stack:
    // 2 seeds × {6, 8} nodes × one loss point, run on 2 workers. Beyond
    // "it works", re-running it must reproduce the bytes — the same
    // determinism contract as the synthetic test, now with the engine
    // in the loop.
    let spec = SweepSpec {
        name: "real".into(),
        template: "scenario real\nnodes {nodes}\nend 40s\n\
                   at 0s join 0..{nodes} over 1s\n\
                   at 5s drop {loss}\n\
                   at 10s stream 0 rate 50kbps size 256 for 25s multicast\n\
                   at 20s crash {nodes-1}\n"
            .into(),
        seeds: vec![5, 6],
        node_counts: vec![6, 8],
        grid: vec![GridAxis::new("loss", ["0.01"])],
        workers: Some(2),
    };
    let run_cell = |cell: &SweepCell| {
        let reg = SpecRegistry::bundled();
        let topo = canned::star(cell.nodes, LinkSpec::lan());
        let cfg = WorldConfig {
            channels: reg.channel_table_for("overcast").unwrap(),
            ..WorldConfig::scripted_churn(cell.derived_seed)
        };
        ScenarioRunner::new(
            cell.scenario.clone(),
            topo,
            cfg,
            Box::new(move |_i, _h, b| reg.build_stack("overcast", b).unwrap()),
        )
        .unwrap()
        .run()
        .report
    };
    let report = run_sweep(&spec, run_cell).unwrap();
    assert_eq!(report.cells.len(), 4);
    for c in &report.cells {
        assert!(c.delivered > 0, "cell {} delivered nothing", c.index);
        assert_eq!(c.alive, c.nodes - 1, "the scripted crash sticks");
    }
    // Cross-seed aggregation covers both configurations.
    assert_eq!(report.configs.len(), 2);
    assert!(report.configs.iter().all(|s| s.cells == 2));
    assert!(report
        .configs
        .iter()
        .all(|s| s.delivered.min <= s.delivered.mean && s.delivered.mean <= s.delivered.max));

    let again = run_sweep(&spec, run_cell).unwrap();
    assert_eq!(report.to_json(), again.to_json());
    assert_eq!(report.to_csv(), again.to_csv());
}
