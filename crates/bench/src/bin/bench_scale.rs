//! Scheduler scaling curve + event-efficiency gate + threads axis.
//!
//! Three measurements, written together to `BENCH_scale.json`:
//!
//! 1. **Efficiency** — the seeded 200-node splitstream churn run
//!    (the same run `bench_scenario` times), reported as *scheduler
//!    events fired per delivered application packet*. The growth seed
//!    measured 32.33 events/delivered on this exact run (752044 events,
//!    23260 deliveries); the event-machinery rework (fused one-event
//!    packet transit, timer wheel, adaptive delayed acks) must hold at
//!    least a 3x reduction, i.e. <= 10.78. The run aborts if it slips.
//!
//! 2. **Scaling curve** — one seeded run of the `bench-scale` scenario
//!    (staggered full-population join, random-route stream, crash wave)
//!    at 1k/10k/100k nodes, reporting events fired, events/sec, wall
//!    time, the process's peak resident set (`VmHWM`, reset before
//!    each point) and heap bytes per node by owner at the end of the
//!    run (reliable connections, datagram reassembly, route tables).
//!    The stream is `route`-shaped so deliveries stay O(1) in node count
//!    and the curve isolates scheduler cost. The 10k run must finish
//!    under a generous wall-time ceiling (60 s) and peak resident set
//!    ceiling (twice its measured reading) — regression tripwires, not
//!    tight bounds.
//!
//!    The curve previously dipped at 100k nodes (81k -> 50k events/sec
//!    from 10k to 100k): per-event node-state lookups went through six
//!    global `FxHashMap<NodeId, _>` tables whose working set fell out
//!    of cache once the population outgrew it. The sharded engine
//!    stores node state in one dense `Vec<Option<Box<NodeState>>>` per
//!    shard, indexed by node id, which removes the hash walks from the
//!    hot path; the JSON carries the measured 100k/10k ratio so the
//!    artifact history tracks the dip directly.
//!
//! 3. **Threads axis** — the 10k-node curve point re-run on the
//!    sharded windowed engine at 1/2/4/8 workers (`shards == workers`),
//!    reporting wall time, events/sec and speedup over the 1-worker
//!    run. The >= 3x speedup gate at 8 workers only arms when the host
//!    actually has >= 8 cores (`std::thread::available_parallelism`);
//!    on smaller hosts the axis is still measured and recorded, so CI
//!    on any box produces the artifact, but a single-core container
//!    cannot fail a physically impossible assertion.
//!
//! All runs are seeded and deterministic; wall time for the efficiency
//! run is the minimum of three executions.
//!
//! Usage: `cargo run --release -p macedon-bench --bin bench_scale`
//! (`--sizes 1000,10000,100000` overrides the curve, `--threads 1,2,4,8`
//! the worker axis — `--threads 0` skips it, `--out PATH` the output
//! file).

use macedon_bench::experiments::{
    scenario_churn_run, scenario_scale_run, scenario_scale_run_workers,
};
use std::time::Instant;

/// Seed-measured efficiency on the 200-node churn run, fixed at the
/// growth seed (752044 events / 23260 deliveries).
const BASELINE_EVENTS_PER_DELIVERED: f64 = 32.33;
/// Required improvement over the seed.
const REQUIRED_REDUCTION: f64 = 3.0;
/// Generous ceiling for the 10k-node curve point, seconds.
const CEILING_10K_SECS: f64 = 60.0;
/// Peak resident set ceiling for the 10k-node curve point, MiB: twice
/// the reading measured when it was set.
const CEILING_10K_RSS_MB: f64 = 470.0;
/// Required parallel speedup at 8 workers — armed only on >= 8 cores.
const REQUIRED_SPEEDUP_8W: f64 = 3.0;

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Restart the kernel's resident-set high-water mark at the current
/// resident set, so the next [`peak_rss_mb`] is this curve point's own.
/// Where the kernel refuses, the mark stays the process's, which is
/// still the point's while sizes ascend.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` in MiB; `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let sizes: Vec<usize> = arg_value("--sizes")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--sizes takes n,n,n"))
                .collect()
        })
        .unwrap_or_else(|| vec![1_000, 10_000, 100_000]);
    let threads: Vec<usize> = arg_value("--threads")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--threads takes n,n,n"))
                .filter(|&n| n > 0)
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_scale.json".to_string());

    // -- efficiency: events per delivered packet on the churn run -----------
    let mut wall_ms = f64::INFINITY;
    let mut stats = scenario_churn_run(200);
    for _ in 0..2 {
        let start = Instant::now();
        stats = scenario_churn_run(200);
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let epd = stats.events_per_delivered();
    let reduction = BASELINE_EVENTS_PER_DELIVERED / epd;
    let b = &stats.breakdown;
    println!(
        "efficiency: 200-node churn, {} events / {} delivered = {epd:.2} events/delivered \
         ({reduction:.2}x vs seed {BASELINE_EVENTS_PER_DELIVERED})",
        stats.events, stats.delivered
    );
    println!(
        "  breakdown: net {} | conn timers {} | agent timers {} | fd ticks {} | control {}",
        b.net, b.conn_timer, b.agent_timer, b.fd_tick, b.control
    );
    assert!(stats.delivered > 0, "churn run must deliver real traffic");
    assert!(
        reduction >= REQUIRED_REDUCTION,
        "events/delivered regressed: {epd:.2} needs >= {REQUIRED_REDUCTION}x \
         under the seed's {BASELINE_EVENTS_PER_DELIVERED}"
    );

    // -- scaling curve: events/sec at each population -----------------------
    let mut curve = Vec::new();
    let mut eps_by_nodes: Vec<(usize, f64)> = Vec::new();
    for &n in &sizes {
        reset_peak_rss();
        let start = Instant::now();
        let s = scenario_scale_run(n);
        let secs = start.elapsed().as_secs_f64();
        let eps = s.events as f64 / secs;
        let peak = peak_rss_mb();
        let rss = peak.map_or("null".to_string(), |mb| format!("{mb:.1}"));
        let m = &s.bytes_per_node;
        println!(
            "scale: {n} nodes, {} events, {} delivered, {} alive, \
             {secs:.2} s wall, {eps:.0} events/sec, peak RSS {rss} MiB, bytes/node: \
             reliable conns {:.0}, datagram reassembly {:.0}, route tables {:.0}",
            s.events, s.delivered, s.alive, m.reliable_conns, m.datagram_reassembly, m.route_tables
        );
        assert!(s.delivered > 0, "{n}-node scale run must deliver traffic");
        if n == 10_000 {
            assert!(
                secs < CEILING_10K_SECS,
                "10k-node run took {secs:.1} s, ceiling is {CEILING_10K_SECS} s"
            );
            if let Some(mb) = peak {
                assert!(
                    mb < CEILING_10K_RSS_MB,
                    "10k-node run peaked at {mb:.1} MiB, ceiling is {CEILING_10K_RSS_MB} MiB"
                );
            }
        }
        eps_by_nodes.push((n, eps));
        curve.push(format!(
            "    {{ \"nodes\": {n}, \"events\": {}, \"delivered\": {}, \"alive\": {}, \
             \"wall_secs\": {secs:.2}, \"events_per_sec\": {eps:.0}, \
             \"peak_rss_mb\": {rss},\n      \"bytes_per_node\": {{ \"reliable_conns\": {:.0}, \
             \"datagram_reassembly\": {:.0}, \"route_tables\": {:.0} }} }}",
            s.events, s.delivered, s.alive, m.reliable_conns, m.datagram_reassembly, m.route_tables
        ));
    }
    // The dip tracker: events/sec at 100k over events/sec at 10k. Flat
    // scheduler cost keeps this near 1.0; the pre-dense-state engine
    // measured 0.61 here.
    let eps_at = |n: usize| eps_by_nodes.iter().find(|&&(m, _)| m == n).map(|&(_, e)| e);
    let dip_ratio = match (eps_at(100_000), eps_at(10_000)) {
        (Some(big), Some(mid)) if mid > 0.0 => Some(big / mid),
        _ => None,
    };
    if let Some(r) = dip_ratio {
        println!("scale: 100k/10k events-per-sec ratio {r:.2} (seed engine: 0.61)");
    }

    // -- threads axis: the 10k point on the sharded windowed engine ---------
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut thread_rows = Vec::new();
    let mut eps_1w = None;
    let mut speedup_max_workers = None;
    for &w in &threads {
        let start = Instant::now();
        let s = scenario_scale_run_workers(10_000, w);
        let secs = start.elapsed().as_secs_f64();
        let eps = s.events as f64 / secs;
        if w == 1 {
            eps_1w = Some(eps);
        }
        let speedup = eps_1w.map(|base| eps / base).unwrap_or(1.0);
        speedup_max_workers = Some((w, speedup));
        println!(
            "threads: 10000 nodes, {w} worker(s), {} events, {secs:.2} s wall, \
             {eps:.0} events/sec, {speedup:.2}x vs 1 worker",
            s.events
        );
        assert!(
            s.delivered > 0,
            "10k-node threaded run must deliver traffic"
        );
        thread_rows.push(format!(
            "    {{ \"workers\": {w}, \"events\": {}, \"wall_secs\": {secs:.2}, \
             \"events_per_sec\": {eps:.0}, \"speedup\": {speedup:.2} }}",
            s.events
        ));
    }
    let gate_armed = cores >= 8 && threads.contains(&8);
    if gate_armed {
        let (w, speedup) = speedup_max_workers.expect("threads axis ran");
        assert!(
            w == 8 && speedup >= REQUIRED_SPEEDUP_8W,
            "parallel speedup regressed: {speedup:.2}x at {w} workers, \
             gate requires >= {REQUIRED_SPEEDUP_8W}x at 8 workers"
        );
    } else if !threads.is_empty() {
        println!(
            "threads: speedup gate not armed ({cores} core(s) available, \
             needs >= 8) — axis recorded for the artifact history only"
        );
    }

    let dip_json = dip_ratio
        .map(|r| format!("{r:.2}"))
        .unwrap_or_else(|| "null".to_string());
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"efficiency\": {{\n    \"nodes\": 200, \
         \"events\": {}, \"delivered\": {}, \"events_per_delivered\": {epd:.2},\n    \
         \"baseline_events_per_delivered\": {BASELINE_EVENTS_PER_DELIVERED}, \
         \"reduction\": {reduction:.2}, \"wall_ms\": {wall_ms:.0},\n    \
         \"breakdown\": {{ \"net\": {}, \"conn_timer\": {}, \"agent_timer\": {}, \
         \"fd_tick\": {}, \"control\": {} }}\n  }},\n  \"curve\": [\n{}\n  ],\n  \
         \"eps_ratio_100k_over_10k\": {dip_json},\n  \"threads\": [\n{}\n  ],\n  \
         \"parallel_gate\": {{ \"armed\": {gate_armed}, \"cores\": {cores}, \
         \"required_speedup_at_8\": {REQUIRED_SPEEDUP_8W} }}\n}}\n",
        stats.events,
        stats.delivered,
        b.net,
        b.conn_timer,
        b.agent_timer,
        b.fd_tick,
        b.control,
        curve.join(",\n"),
        thread_rows.join(",\n"),
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("(wrote {out})"),
        Err(e) => eprintln!("{out}: {e}"),
    }
}
