//! Scenario-engine performance trajectory: measures the scenario
//! runner's own overhead (script parse + validate + timeline bind) and
//! the wall-clock of a seeded 200-node churn run over the from-spec
//! splitstream stack, then writes both to `BENCH_scenario.json` so CI
//! accumulates one data point per PR — the perf history now covers
//! *perturbed* runs, not just steady-state streaming.
//!
//! The macro run is reported as the minimum of three executions (the
//! run is deterministic, so the minimum is the least-noise estimate).
//!
//! Usage: `cargo run --release -p macedon-bench --bin bench_scenario`
//! (`--nodes N` overrides the churn size, `--out PATH` the output file).

use macedon_bench::experiments::{scenario_churn_run_workers, scenario_churn_script};
use std::time::Instant;

/// Self-asserted regression ceilings (the `bench_scale` pattern: abort
/// so CI fails on a perf regression instead of silently flattening the
/// artifact curve). The default 200-node run measures 2.0 us/parse and
/// 1.12-1.53 us/event, median of nine 1.29 (1.34-1.77, median 1.62, on
/// the same host in the same minutes before link calendars and
/// connection tables held live state only; 2.6-2.8 before the
/// per-packet path went constant-time). The per-event ceiling is twice
/// the usual reading of 1.2, so undoing that work fails the job.
const CEILING_COMPILE_US: f64 = 25.0;
const CEILING_US_PER_EVENT: f64 = 2.4;

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn main() {
    let nodes: usize = arg_value("--nodes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let workers: usize = arg_value("--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_scenario.json".to_string());

    // -- micro: scenario compile overhead (parse + validate) ----------------
    let script = scenario_churn_script(nodes);
    const ROUNDS: u32 = 2_000;
    for _ in 0..100 {
        let _ = macedon_scenario::script::parse(&script).unwrap();
    }
    let mut compile_us = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..ROUNDS {
            let s = macedon_scenario::script::parse(&script).unwrap();
            std::hint::black_box(&s);
        }
        compile_us = compile_us.min(start.elapsed().as_micros() as f64 / ROUNDS as f64);
    }
    println!("compile: {nodes}-node churn script, {compile_us:.1} us/parse (min of 3)");
    if nodes == 200 {
        assert!(
            compile_us < CEILING_COMPILE_US,
            "scenario compile regressed: {compile_us:.1} us/parse, \
             ceiling is {CEILING_COMPILE_US} us (committed baseline 2.1)"
        );
    }

    // -- macro: seeded churn run over the from-spec splitstream stack -------
    let mut churn_ms = f64::INFINITY;
    let mut delivered = 0;
    let mut alive = 0;
    let mut events = 0u64;
    for _ in 0..3 {
        let start = Instant::now();
        let stats = scenario_churn_run_workers(nodes, workers);
        churn_ms = churn_ms.min(start.elapsed().as_secs_f64() * 1e3);
        (delivered, alive, events) = (stats.delivered, stats.alive, stats.events);
    }
    let us_per_event = churn_ms * 1e3 / events as f64;
    let ev_per_sec = events as f64 / (churn_ms / 1e3);
    println!(
        "churn: {nodes}-node from-spec splitstream under churn+partition, \
         {delivered} deliveries, {alive} alive, {events} events, \
         {churn_ms:.0} ms wall on {workers} worker(s) \
         (min of 3, {us_per_event:.2} us/event, {ev_per_sec:.0} events/sec)"
    );
    assert!(delivered > 0, "churn run must deliver real traffic");
    assert!(alive > nodes / 2, "most nodes must survive the scenario");
    if nodes == 200 && workers == 1 {
        assert!(
            us_per_event < CEILING_US_PER_EVENT,
            "churn run regressed: {us_per_event:.2} us/event, \
             ceiling is {CEILING_US_PER_EVENT} us (committed baseline 3.41)"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"scenario\",\n  \"compile\": {{ \"script_nodes\": {nodes}, \
         \"us_per_parse\": {compile_us:.1} }},\n  \"churn\": {{ \"nodes\": {nodes}, \
         \"sim_seconds\": 80, \"deliveries\": {delivered}, \"alive\": {alive}, \
         \"events\": {events}, \"wall_ms\": {churn_ms:.0}, \
         \"us_per_event\": {us_per_event:.2} }}\n}}\n"
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("(wrote {out})"),
        Err(e) => eprintln!("{out}: {e}"),
    }
}
