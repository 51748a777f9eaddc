//! 50-node scripted churn experiment over the fully interpreted
//! splitstream → scribe → pastry stack: staggered joins, a mid-stream
//! crash wave with rejoins, a partition that heals, and a degraded
//! access link — all declared in one scenario script, with the
//! engine-measured metrics report printed at the end.
//!
//! Run with: `cargo run --release --example churn`
//!
//! Pass `--json` (optionally `--json path.json`) to emit the report as
//! machine-readable JSON instead of the text table, or `--csv path.csv`
//! to write the per-node rows as CSV alongside either.
//!
//! Observability: `--trace-out trace.json` runs the stacks at trace
//! level High and writes the causal trace as Chrome/Perfetto trace
//! events (open the file at <https://ui.perfetto.dev>); `--sample-every
//! 500` snapshots engine counters every 500 sim-ms, folds the series
//! into the JSON report, and writes it as JSONL (`--telemetry-out`,
//! default `telemetry.jsonl`).
//!
//! `sweep` switches to the parallel sweep driver: the same churn shape
//! templated over `{nodes}` with a `{loss}` grid axis, fanned across
//! seeds × node counts on all cores, and aggregated into one
//! deterministic `SweepReport`:
//!
//! ```text
//! cargo run --release --example churn -- sweep \
//!     --seeds 1,2,3 --nodes 50,100,200 --loss 0,0.02 \
//!     --json sweep.json --csv sweep.csv
//! ```

use macedon::lang::SpecRegistry;
use macedon::prelude::*;
use macedon::scenario::{script, ScenarioRunner};

const SCRIPT: &str = "
scenario fifty-node-churn
nodes 50
end 120s

at 0s    join 0..10 over 2s          # seed the overlay
at 5s    join 10..50 over 10s        # flash crowd
at 30s   stream 0 rate 200kbps size 1000 for 80s multicast
at 45s   crash 11 17 23 29           # churn wave
at 60s   rejoin 11 17 over 2s
at 70s   partition wan 25..50        # backbone cut
at 85s   heal wan
at 95s   degrade 5 bw 64kbps delay 30ms
at 110s  restore 5
";

/// The sweep template: the same churn shape, scale-generic via
/// `{nodes}` arithmetic, with scripted loss as the grid axis.
const SWEEP_TEMPLATE: &str = "
scenario churn-sweep
nodes {nodes}
end 80s

at 0s  join 0..{nodes/4} over 2s
at 4s  join {nodes/4}..{nodes} over 8s
at 10s drop {loss}
at 20s stream 0 rate 200kbps size 1000 for 50s multicast
at 35s crash {nodes/3} {nodes/2}
at 45s rejoin {nodes/3}
at 55s partition half {nodes/2}..{nodes}
at 65s heal half
";

fn arg_value(argv: &[String], name: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .cloned()
}

fn list_arg<T: std::str::FromStr + Clone>(argv: &[String], name: &str, default: &[T]) -> Vec<T> {
    arg_value(argv, name)
        .map(|v| {
            v.split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("{name} takes a comma-separated list"))
                })
                .collect()
        })
        .unwrap_or_else(|| default.to_vec())
}

fn run_single(argv: &[String]) {
    let json_mode = argv.iter().position(|a| a == "--json");
    let json_path = json_mode.and_then(|i| argv.get(i + 1)).cloned();
    let csv_path = arg_value(argv, "--csv");
    let trace_out = arg_value(argv, "--trace-out");
    let sample_every_ms: Option<u64> = arg_value(argv, "--sample-every")
        .map(|v| v.parse().expect("--sample-every takes milliseconds"));

    let scenario = script::parse(SCRIPT).expect("script parses");
    println!(
        "scenario '{}': {} nodes, {} events, {}s simulated",
        scenario.name,
        scenario.nodes,
        scenario.events.len(),
        scenario.end.as_secs_f64()
    );

    let reg = SpecRegistry::bundled();
    let topo = macedon::net::topology::canned::star(
        scenario.nodes,
        macedon::net::topology::LinkSpec::new(Duration::from_millis(2), 2_000_000, 64 * 1024),
    );
    let cfg = WorldConfig {
        seed: 50,
        channels: reg.channel_table_for("splitstream").unwrap(),
        fd_g: Duration::from_secs(2),
        fd_f: Duration::from_secs(6),
        ..Default::default()
    };
    let mut runner = ScenarioRunner::new(
        scenario,
        topo,
        cfg,
        Box::new(|_idx, _host, bootstrap| reg.build_stack("splitstream", bootstrap).unwrap()),
    )
    .expect("runner binds");
    // Every stack runs at the level `splitstream.mac`'s `trace_` header
    // declares; an explicit `--trace-out` raises it to High so the
    // exported timeline carries the full causal span forest.
    runner.set_trace_level(match &trace_out {
        Some(_) => TraceLevel::High,
        None => reg.trace_level_for("splitstream").unwrap(),
    });
    if let Some(ms) = sample_every_ms {
        runner.enable_telemetry(Duration::from_millis(ms));
    }

    let start = std::time::Instant::now();
    let outcome = runner.run();
    let secs = start.elapsed().as_secs_f64();
    let events = outcome.world.events_fired();
    println!(
        "ran in {secs:.2}s wall ({events} events, {:.0} events/sec)",
        events as f64 / secs
    );
    if let Some(path) = trace_out {
        let trace: Vec<_> = outcome.world.trace().records().collect();
        let json = macedon::core::perfetto_json(&trace);
        std::fs::write(&path, json).expect("write perfetto trace");
        println!(
            "wrote {path} ({} trace records, {} dropped; open it at https://ui.perfetto.dev)",
            trace.len(),
            outcome.world.trace().dropped,
        );
    }
    if sample_every_ms.is_some() {
        if let Some(t) = &outcome.report.telemetry {
            let path =
                arg_value(argv, "--telemetry-out").unwrap_or_else(|| "telemetry.jsonl".into());
            std::fs::write(&path, t.to_jsonl()).expect("write telemetry jsonl");
            println!("wrote {path} ({} samples)", t.samples.len());
        }
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, outcome.report.to_csv()).expect("write csv report");
        println!("wrote {path}");
    }
    match (json_mode, json_path) {
        (Some(_), Some(path)) => {
            std::fs::write(&path, outcome.report.to_json()).expect("write json report");
            println!("wrote {path}");
        }
        (Some(_), None) => print!("{}", outcome.report.to_json()),
        (None, _) => print!("\n{}", outcome.report.render()),
    }
}

fn run_sweep_cmd(argv: &[String]) {
    let seeds: Vec<u64> = list_arg(argv, "--seeds", &[1, 2, 3]);
    let node_counts: Vec<usize> = list_arg(argv, "--nodes", &[50, 100]);
    let loss = arg_value(argv, "--loss").unwrap_or_else(|| "0,0.02".to_string());
    let losses: Vec<String> = loss.split(',').map(|s| s.trim().to_string()).collect();
    let workers: Option<usize> = arg_value(argv, "--workers").and_then(|v| v.parse().ok());

    let spec = SweepSpec {
        name: "churn-sweep".into(),
        template: SWEEP_TEMPLATE.into(),
        seeds,
        node_counts,
        grid: vec![GridAxis::new("loss", losses)],
        workers,
    };
    println!(
        "sweep '{}': {} cells on {} workers",
        spec.name,
        spec.cell_count(),
        spec.workers
            .unwrap_or_else(|| std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)),
    );

    let start = std::time::Instant::now();
    let report = run_sweep(&spec, |cell| {
        let reg = SpecRegistry::bundled();
        let topo = macedon::net::topology::canned::star(
            cell.nodes,
            macedon::net::topology::LinkSpec::new(Duration::from_millis(2), 2_000_000, 64 * 1024),
        );
        let cfg = WorldConfig {
            seed: cell.derived_seed,
            channels: reg.channel_table_for("splitstream").unwrap(),
            fd_g: Duration::from_secs(2),
            fd_f: Duration::from_secs(6),
            ..Default::default()
        };
        ScenarioRunner::new(
            cell.scenario.clone(),
            topo,
            cfg,
            Box::new(|_idx, _host, bootstrap| reg.build_stack("splitstream", bootstrap).unwrap()),
        )
        .expect("cell binds")
        .run()
        .report
    })
    .expect("sweep runs");
    println!("ran in {:.2}s wall", start.elapsed().as_secs_f64());

    if let Some(path) = arg_value(argv, "--json") {
        std::fs::write(&path, report.to_json()).expect("write sweep json");
        println!("wrote {path}");
    }
    if let Some(path) = arg_value(argv, "--csv") {
        std::fs::write(&path, report.to_csv()).expect("write sweep csv");
        println!("wrote {path}");
    }
    print!("\n{}", report.render());
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.iter().any(|a| a == "sweep") {
        run_sweep_cmd(&argv);
    } else {
        run_single(&argv);
    }
}
