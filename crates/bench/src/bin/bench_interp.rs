//! Interpreter performance trajectory: measures the spec-interpreter's
//! per-event dispatch cost (messages + timers through a compiled spec),
//! its cost against the generated agent on pastry's `state_push` (the
//! interp/gen cost ratio), and the wall-clock of a seeded 200-node
//! from-spec splitstream run, then writes all three to
//! `BENCH_interp.json` so CI accumulates one data point per PR.
//!
//! The macro run is reported as the minimum of three executions — the
//! run is deterministic (same seed, same event sequence every time), so
//! the minimum is the least-noise estimate of its true cost.
//!
//! Usage: `cargo run --release -p macedon-bench --bin bench_interp`
//! (`--nodes N` overrides the macro-run size, `--out PATH` the output
//! file).

use macedon_bench::experiments::{
    dispatch_frames, dispatch_stack, interp_macro_run, pastry_stack, state_push_frames,
};
use macedon_core::{SpanId, Stack, StackEffect, Time, TraceLevel};
use std::time::Instant;

/// Pre-IR baseline: the AST-walking interpreter at commit 563bfbb with
/// the same harness (same spec, frames, and schedule), measured
/// interleaved with the IR build on the same machine. Kept in the
/// output so every future data point carries its origin.
const BASELINE_DISPATCH_NS: f64 = 411.3;
const BASELINE_MACRO_MS: f64 = 807.0;

/// Self-asserted regression ceilings (the `bench_scale` pattern: the
/// bin aborts, so CI fails on a perf regression instead of silently
/// flattening the artifact curve). The bin measures 62-67 ns/event and
/// a 196-219 ms macro run (137-142 ns and 237-242 ms on the same host
/// before expressions were typed at lowering; 451-480 ms macro before
/// node keys were memoised and the link-reservation scan indexed); each
/// ceiling is twice the reading, so undoing that work fails the job,
/// and both stay below the pre-IR baselines above.
const CEILING_DISPATCH_NS: f64 = 130.0;
const CEILING_MACRO_MS: f64 = 400.0;

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
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_interp.json".to_string());

    // -- micro: per-event dispatch through a compiled spec ------------------
    let frames = dispatch_frames();
    // Three configurations of one stack, switched between timings: the
    // production default (trace Off, observability machinery present),
    // the machinery hard-disabled, and trace High with effects
    // discarded. One stack, so the configurations compare the same
    // program over the same memory, not three heap layouts.
    let mut stack = dispatch_stack();
    let mut fx = Vec::new();
    // Warm up, then time ROUNDS passes of 3 recvs + 1 timer each.
    const ROUNDS: u64 = 200_000;
    let pass = |stack: &mut Stack, fx: &mut Vec<StackEffect>| {
        for (from, frame) in &frames {
            stack.recv(Time::ZERO, *from, frame.clone(), SpanId::NONE, fx);
        }
        stack.timer(Time::ZERO, 0, 0, fx);
        fx.clear();
    };
    for _ in 0..3_000 {
        pass(&mut stack, &mut fx);
    }
    let events = ROUNDS * (frames.len() as u64 + 1);
    let mut dispatch_ns = f64::INFINITY;
    let mut disabled_ns = f64::INFINITY;
    let mut traced_ns = f64::INFINITY;
    let mut time = |stack: &mut Stack, best: &mut f64| {
        let start = Instant::now();
        for _ in 0..ROUNDS {
            pass(stack, &mut fx);
        }
        *best = best.min(start.elapsed().as_nanos() as f64 / events as f64);
    };
    // Interleave the A/B/C timings so drift (thermal, scheduler) hits
    // all three configurations alike.
    for _ in 0..3 {
        time(&mut stack, &mut dispatch_ns);
        stack.set_observability(false);
        time(&mut stack, &mut disabled_ns);
        stack.set_observability(true);
        stack.set_trace_level(TraceLevel::High);
        time(&mut stack, &mut traced_ns);
        stack.set_trace_level(TraceLevel::Off);
    }
    let overhead_pct = (dispatch_ns / disabled_ns - 1.0) * 100.0;
    println!("dispatch: {events} events, {dispatch_ns:.1} ns/event (min of 3)");
    println!(
        "tracing:  off {dispatch_ns:.1} vs disabled {disabled_ns:.1} ns/event \
         ({overhead_pct:+.2}%), traced-High {traced_ns:.1} ns/event"
    );
    assert!(
        dispatch_ns < CEILING_DISPATCH_NS,
        "interpreter dispatch regressed: {dispatch_ns:.1} ns/event, \
         ceiling is {CEILING_DISPATCH_NS} ns (committed baseline 186.4)"
    );
    assert!(
        dispatch_ns <= disabled_ns * 1.02,
        "tracing-off dispatch overhead above 2%: off {dispatch_ns:.1} vs \
         machinery-disabled {disabled_ns:.1} ns/event ({overhead_pct:+.2}%)"
    );

    // -- drill: pastry state_push, interpreted vs generated ------------------
    // Identical frames through both back ends; `DISPATCH_SPEC` has no
    // `foreach` or key builtin, so only this drill sees their cost.
    let push_frames = state_push_frames();
    let mut interp_push = pastry_stack(false);
    let mut gen_push = pastry_stack(true);
    let push_pass = |stack: &mut Stack, fx: &mut Vec<StackEffect>| {
        for (from, frame) in &push_frames {
            stack.recv(Time::ZERO, *from, frame.clone(), SpanId::NONE, fx);
        }
        let effects = fx.len();
        fx.clear();
        effects
    };
    for _ in 0..1_000 {
        push_pass(&mut interp_push, &mut fx);
        push_pass(&mut gen_push, &mut fx);
    }
    assert_eq!(
        push_pass(&mut interp_push, &mut fx),
        push_pass(&mut gen_push, &mut fx),
        "both back ends emit the same effects per push"
    );
    const PUSH_ROUNDS: u64 = 20_000;
    let push_calls = PUSH_ROUNDS * push_frames.len() as u64;
    let mut interp_push_ns = f64::INFINITY;
    let mut gen_push_ns = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..PUSH_ROUNDS {
            push_pass(&mut interp_push, &mut fx);
        }
        interp_push_ns = interp_push_ns.min(start.elapsed().as_nanos() as f64 / push_calls as f64);
        let start = Instant::now();
        for _ in 0..PUSH_ROUNDS {
            push_pass(&mut gen_push, &mut fx);
        }
        gen_push_ns = gen_push_ns.min(start.elapsed().as_nanos() as f64 / push_calls as f64);
    }
    let push_ratio = interp_push_ns / gen_push_ns;
    println!(
        "state_push: interpreted {interp_push_ns:.0} ns/call, generated {gen_push_ns:.0} \
         ns/call, interp/gen cost ratio {push_ratio:.2} (min of 3)"
    );

    // -- macro: seeded from-spec splitstream world ---------------------------
    let mut macro_ms = f64::INFINITY;
    let mut delivered = 0;
    let mut transitions = 0;
    for _ in 0..3 {
        let start = Instant::now();
        let (d, t) = interp_macro_run(nodes, 30, 30);
        macro_ms = macro_ms.min(start.elapsed().as_secs_f64() * 1e3);
        (delivered, transitions) = (d, t);
    }
    println!(
        "macro: {nodes}-node from-spec splitstream, {delivered} deliveries, \
         {transitions} transitions, {macro_ms:.0} ms wall (min of 3)"
    );
    assert!(delivered > 0, "macro run must do real work");
    if nodes == 200 {
        assert!(
            macro_ms < CEILING_MACRO_MS,
            "macro splitstream run regressed: {macro_ms:.0} ms, \
             ceiling is {CEILING_MACRO_MS} ms (committed baseline 566)"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"interp\",\n  \"dispatch\": {{ \"events\": {events}, \
         \"ns_per_event\": {dispatch_ns:.1}, \
         \"ns_per_event_tracing_disabled\": {disabled_ns:.1}, \
         \"ns_per_event_traced_high\": {traced_ns:.1}, \
         \"tracing_off_overhead_pct\": {overhead_pct:.2} }},\n  \"pastry_state_push\": {{ \
         \"calls\": {push_calls}, \"interp_ns_per_call\": {interp_push_ns:.1}, \
         \"gen_ns_per_call\": {gen_push_ns:.1}, \"interp_gen_cost_ratio\": {push_ratio:.2} }},\n  \
         \"macro_splitstream\": {{ \
         \"nodes\": {nodes}, \"sim_seconds\": 70, \"deliveries\": {delivered}, \
         \"transitions\": {transitions}, \"wall_ms\": {macro_ms:.0} }},\n  \
         \"baseline_pre_ir\": {{ \"ns_per_event\": {BASELINE_DISPATCH_NS:.1}, \
         \"wall_ms\": {BASELINE_MACRO_MS:.0} }}\n}}\n"
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("(wrote {out})"),
        Err(e) => eprintln!("{out}: {e}"),
    }
}
