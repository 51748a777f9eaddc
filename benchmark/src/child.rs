//! One experiment in one process, as users run `churn`, `fig12` or
//! `bench_scale`: set up, run, export the report, check it, and print
//! `key=value` lines for the parent.

use crate::trace::{self, Spans};
use crate::workloads::{self, Stacks, Workload};
use crate::{alloc, drills, procstat};
use macedon_core::World;
use macedon_net::Topology;
use macedon_scenario::{run_sweep, MetricsReport, ScenarioRunner, SweepSpec};
use macedon_sim::{Duration, FxHasher};
use std::hash::Hasher;
use std::sync::Mutex;
use std::time::Instant;

/// What a child does besides running the experiment once.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Nothing: no observer of any kind. The timings come from here.
    Timed,
    /// Repeats the set-up path for `setup_s` first, and counts
    /// allocations during the run for `alloc_mb`.
    Setup,
    /// Every observer on (spans, agent decorator, telemetry, shard
    /// profiling, counting allocator), then the layer drills.
    Traced,
}

impl Mode {
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "timed" => Some(Mode::Timed),
            "setup" => Some(Mode::Setup),
            "traced" => Some(Mode::Traced),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Setup => "setup",
            Mode::Traced => "traced",
        }
    }
}

/// Counters read off finished runs: one run for most workloads, one per
/// cell (summed, or maxed where noted) for the sweep.
#[derive(Default)]
struct Facts {
    nodes: u64,
    /// Σ nodes × simulated seconds.
    node_seconds: f64,
    events: u64,
    /// net, conn_timer, agent_timer, fd_tick, control.
    classes: [u64; 5],
    delivered: u64,
    /// Runs that delivered nothing / ended with fewer than `nodes − 1`
    /// alive / failed a scripted assert.
    no_delivery: u64,
    too_few_alive: u64,
    assert_failed: u64,
    net_drops: u64,
    /// Telemetry maxima over the 1 s samples (traced runs and cells).
    peak_pending: u64,
    links_used: u64,
    link_stress_max: u64,
    segments: u64,
    retransmissions: u64,
    acks: u64,
    messages: u64,
    ctrl_bytes: u64,
    /// Shard self-profile, summed over shards: windows, inject,
    /// barrier, drain, route (ns).
    shard: [u64; 5],
    /// Wall seconds of each run, in completion order.
    run_secs: Vec<f64>,
}

impl Facts {
    fn add(&mut self, world: &World, report: &MetricsReport, secs: f64) {
        let nodes = report.nodes.len();
        self.nodes += nodes as u64;
        self.node_seconds += nodes as f64 * report.end.as_secs_f64();
        self.events += world.events_fired();
        let c = world.event_counts();
        for (acc, v) in
            self.classes
                .iter_mut()
                .zip([c.net, c.conn_timer, c.agent_timer, c.fd_tick, c.control])
        {
            *acc += v;
        }
        self.delivered += report.total_delivered;
        self.no_delivery += (report.total_delivered == 0) as u64;
        self.too_few_alive += (report.alive + 1 < nodes) as u64;
        self.assert_failed += !report.asserts_passed() as u64;
        self.net_drops += report.net_drops;
        for s in report.telemetry.iter().flat_map(|t| &t.samples) {
            self.peak_pending = self.peak_pending.max(s.pending_events);
            self.links_used = self.links_used.max(s.links_used);
            self.link_stress_max = self.link_stress_max.max(s.link_stress_max);
        }
        for ch in &report.channels {
            self.segments += ch.segments;
            self.retransmissions += ch.retransmissions;
            self.acks += ch.acks;
            self.messages += ch.messages;
            if ch.channel == "CTRL" {
                self.ctrl_bytes += ch.bytes;
            }
        }
        for p in world.profile() {
            for (acc, v) in self.shard.iter_mut().zip([
                p.windows,
                p.inject_ns,
                p.barrier_ns,
                p.drain_ns,
                p.route_ns,
            ]) {
                *acc += v;
            }
        }
        self.run_secs.push(secs);
    }
}

/// A hash of the exported report and the event counts (the engine's own
/// fixed-seed hasher): equal digests mean "simulated statistics
/// identical".
fn digest(report_json: &str, facts: &Facts) -> u64 {
    let mut h = FxHasher::default();
    h.write(report_json.as_bytes());
    h.write_u64(facts.events);
    for c in facts.classes {
        h.write_u64(c);
    }
    h.finish()
}

/// The median of `values` (the upper one of an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The median of the set-up path repeated until a second has passed or
/// 101 repetitions, at least 5: one reading of a few milliseconds is
/// noise.
fn median_setup_s<T>(mut setup_once: impl FnMut() -> T) -> f64 {
    let begun = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (samples.len() < 101 && begun.elapsed().as_secs_f64() < 1.0) {
        let start = Instant::now();
        let built = setup_once();
        samples.push(start.elapsed().as_secs_f64());
        // Dropping what set-up built is not part of set-up.
        drop(built);
    }
    median(&mut samples)
}

pub fn put(key: &str, value: impl std::fmt::Display) {
    println!("{key}={value}");
}

/// What running the experiment once produced.
struct Ran {
    facts: Facts,
    /// The exported report, without telemetry: what the digest covers.
    report_json: String,
    cpu_s: f64,
    counted: alloc::Snapshot,
    /// A topology for the drills (traced children only).
    topology: Option<Topology>,
}

/// Run `body` as the run phase: inside the `scenario.run_s` span, with
/// the CPU clock read around it and, unless `mode` is `Timed`,
/// allocations counted.
fn run_phase<T>(
    mode: Mode,
    spans: &mut Spans,
    body: impl FnOnce() -> T,
) -> (T, f64, alloc::Snapshot) {
    if mode != Mode::Timed {
        alloc::start();
    }
    let cpu_before = procstat::cpu_s();
    let out = spans.time("scenario.run_s", body);
    let cpu_s = procstat::cpu_s() - cpu_before;
    let counted = alloc::snapshot();
    alloc::stop();
    (out, cpu_s, counted)
}

/// Export the report as a user would (`--json`, `--csv`), in its span.
fn export(spans: &mut Spans, texts: impl FnOnce() -> (String, String)) -> String {
    let (json, csv) = spans.time("scenario.report_s", texts);
    std::hint::black_box(csv);
    json
}

fn run_single(workload: &Workload, seed: u64, mode: Mode, spans: &mut Spans) -> Ran {
    let traced = mode == Mode::Traced;
    let mut runner = workload.setup(seed, traced, spans);
    if traced {
        runner.enable_telemetry(Duration::from_secs(1));
    }
    let (mut outcome, cpu_s, counted) = run_phase(mode, spans, || runner.run());
    let report = &outcome.report;
    let exported = export(spans, || (report.to_json(), report.to_csv()));
    let mut facts = Facts::default();
    facts.add(&outcome.world, report, spans.total("scenario.run_s"));
    // Telemetry is an observer: the digest covers the report without
    // it, so traced and untraced children must agree.
    let report_json = match outcome.report.telemetry.take() {
        Some(_) => outcome.report.to_json(),
        None => exported,
    };
    Ran {
        facts,
        report_json,
        cpu_s,
        counted,
        topology: traced.then(|| outcome.world.net().topology().clone()),
    }
}

fn run_sweep_cells(workload: &Workload, seed: u64, mode: Mode, spans: &mut Spans) -> Ran {
    let traced = mode == Mode::Traced;
    let (spec, _first_cell) = setup_sweep(workload, seed, traced, spans);
    let facts = Mutex::new(Facts::default());
    let (report, cpu_s, counted) = run_phase(mode, spans, || {
        run_sweep(&spec, |cell| {
            // As `sweep_churn_cell`: each cell compiles its own
            // registry, so workers share nothing.
            let start = Instant::now();
            let stacks = Stacks::new(workload.backend);
            let mut runner = workloads::bind(
                cell.scenario.clone(),
                workloads::sweep_cell_topology(cell.nodes),
                cell.derived_seed,
                1,
                &stacks,
                traced,
            );
            runner.enable_telemetry(Duration::from_secs(1));
            let outcome = runner.run();
            facts.lock().expect("no cell panicked").add(
                &outcome.world,
                &outcome.report,
                start.elapsed().as_secs_f64(),
            );
            outcome.report
        })
        .expect("sweep expands")
    });
    let report_json = export(spans, || (report.to_json(), report.to_csv()));
    let largest = spec.node_counts.iter().copied().max().unwrap_or(2);
    Ran {
        facts: facts.into_inner().expect("no cell panicked"),
        report_json,
        cpu_s,
        counted,
        topology: traced.then(|| workloads::sweep_cell_topology(largest)),
    }
}

/// Run `workload` once in this process and print what `mode` asks for.
pub fn run(workload: &Workload, seed: u64, mode: Mode, smoke: bool, main_entry: Instant) {
    if mode == Mode::Setup {
        let mut scratch = Spans::new(main_entry);
        let median = if workload.is_sweep() {
            median_setup_s(|| setup_sweep(workload, seed, false, &mut scratch))
        } else {
            median_setup_s(|| workload.setup(seed, false, &mut scratch))
        };
        put("setup_s", median);
    }

    let mut spans = Spans::new(main_entry);
    let Ran {
        facts,
        report_json,
        cpu_s,
        counted,
        topology,
    } = if workload.is_sweep() {
        run_sweep_cells(workload, seed, mode, &mut spans)
    } else {
        run_single(workload, seed, mode, &mut spans)
    };

    put("wall_s", spans.total("scenario.run_s"));
    put("cpu_s", cpu_s);
    // Read before the drills allocate anything.
    let peak_rss_mb = procstat::peak_rss_mb();
    put("peak_rss_mb", peak_rss_mb);
    put(
        "digest",
        format_args!("{:016x}", digest(&report_json, &facts)),
    );
    put("events", facts.events);
    put("delivered", facts.delivered);
    put(
        "events_per_delivery",
        facts.events as f64 / facts.delivered.max(1) as f64,
    );
    // The parent adds digest agreement to these checks.
    for (name, bad) in [
        ("delivered_nothing", facts.no_delivery),
        ("too_few_alive", facts.too_few_alive),
        ("assert_failed", facts.assert_failed),
    ] {
        put(&format!("check.{name}"), bad);
    }
    if mode != Mode::Timed {
        put("alloc_mb", counted.bytes as f64 / alloc::MIB);
    }
    if mode == Mode::Traced {
        print_layers(&spans, &facts, workload.threads_per_run());
        put("alloc.calls", counted.calls);
        put(
            "alloc.calls_per_event",
            counted.calls as f64 / facts.events as f64,
        );
        put("alloc.peak_live_mb", counted.peak_live as f64 / alloc::MIB);
        put(
            "mem.rss_kb_per_node",
            peak_rss_mb * 1024.0 / facts.nodes as f64,
        );
        let topo = topology.expect("traced children keep a topology");
        // A quarter of a second per drill; a smoke pass only checks
        // that they run.
        let budget_s = if smoke { 0.01 } else { 0.25 };
        drills::run(
            &topo,
            facts.peak_pending as usize,
            workload.backend,
            budget_s,
        );
    }
}

/// The sweep's set-up path up to the first runnable cell: compile the
/// specs, expand the template, build cell 0's star, bind it.
fn setup_sweep(
    workload: &Workload,
    seed: u64,
    traced: bool,
    spans: &mut Spans,
) -> (SweepSpec, ScenarioRunner<'static>) {
    let spec = workload.sweep_spec(seed);
    let stacks = spans.time("lang.compile_s", || Stacks::new(workload.backend));
    let cells = spans.time("scenario.parse_s", || {
        spec.expand().expect("sweep template expands")
    });
    let first = &cells[0];
    let topo = spans.time("net.topology_build_s", || {
        workloads::sweep_cell_topology(first.nodes)
    });
    let runner = spans.time("scenario.bind_s", || {
        workloads::bind(
            first.scenario.clone(),
            topo,
            first.derived_seed,
            1,
            &stacks,
            traced,
        )
    });
    (spec, runner)
}

/// The per-layer numbers the traced child can state by itself (the
/// parent adds the ones that need the untraced children's wall time).
fn print_layers(spans: &Spans, f: &Facts, threads_per_run: usize) {
    const SETUP_AND_RUN: [&str; 6] = [
        "lang.compile_s",
        "scenario.parse_s",
        "net.topology_build_s",
        "scenario.bind_s",
        "scenario.run_s",
        "scenario.report_s",
    ];
    let mut attributed = 0.0;
    for name in SETUP_AND_RUN {
        put(name, spans.total(name));
        attributed += spans.total(name);
    }
    let child_wall = spans
        .records
        .last()
        .map(|r| r.2)
        .expect("the report span was recorded");
    put("trace.unattributed_s", child_wall - attributed);
    // The trace is complete when the six spans cover 98 % of the child.
    put(
        "check.spans_cover_too_little",
        (attributed < 0.98 * child_wall) as u64,
    );

    let mut cells = f.run_secs.clone();
    put("scenario.sweep_cell_s.median", median(&mut cells));
    put("scenario.sweep_cell_s.max", cells[cells.len() - 1]);

    put("core.stack_build_s", trace::STACK_BUILD.busy_s());
    put("core.stack_build_calls", trace::STACK_BUILD.calls());
    let mut agent_busy = 0.0;
    for (layer, c) in trace::AGENT.iter().enumerate() {
        put(&format!("agent.l{layer}.busy_s"), c.busy_s());
        put(&format!("agent.l{layer}.calls"), c.calls());
        agent_busy += c.busy_s();
    }
    // Thread-seconds the runs took (agent time is summed over threads
    // too): every cell's own clock for a sweep, the run span times its
    // workers for one experiment, so a sharded run's remainder holds
    // its barrier waits.
    let run_thread_s = f.run_secs.iter().sum::<f64>() * threads_per_run as f64;
    put("agent.busy_share", agent_busy / run_thread_s);
    put(
        "engine.busy_s",
        run_thread_s - agent_busy - trace::STACK_BUILD.busy_s(),
    );

    put("sim.events", f.events);
    for (name, v) in ["net", "conn_timer", "agent_timer", "fd_tick", "control"]
        .iter()
        .zip(f.classes)
    {
        put(&format!("sim.events_{name}"), v);
    }
    put("sim.peak_pending_events", f.peak_pending);
    put("sim.events_per_node_s", f.events as f64 / f.node_seconds);
    put("net.drops", f.net_drops);
    put("net.links_used", f.links_used);
    put("net.link_stress_max", f.link_stress_max);
    put("transport.segments", f.segments);
    put("transport.retransmissions", f.retransmissions);
    put("transport.acks", f.acks);
    put("transport.ctrl_bytes", f.ctrl_bytes);
    put(
        "transport.msgs_per_segment",
        f.messages as f64 / f.segments.max(1) as f64,
    );

    let [windows, inject, barrier, drain, route] = f.shard;
    put("shard.windows", windows);
    put("shard.inject_s", inject as f64 / 1e9);
    put("shard.barrier_s", barrier as f64 / 1e9);
    put("shard.drain_s", drain as f64 / 1e9);
    put("shard.route_s", route as f64 / 1e9);
    let shard_total = (inject + barrier + drain + route).max(1);
    put("shard.barrier_share", barrier as f64 / shard_total as f64);
}
