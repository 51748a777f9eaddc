//! Scheduler scaling curve + event-efficiency gate.
//!
//! Two measurements, written together to `BENCH_scale.json`:
//!
//! 1. **Efficiency** — the seeded 200-node splitstream churn run,
//!    reported as *scheduler events fired per delivered application
//!    packet*. The growth seed measured 32.33 events/delivered on this
//!    exact run (752044 events, 23260 deliveries); the event-machinery
//!    rework (fused one-event packet transit, adaptive delayed acks)
//!    must hold at least a 3x reduction, i.e. <= 10.78.
//!    The run aborts if it slips.
//!
//! 2. **Scaling curve** — one seeded run of the `bench-scale` scenario
//!    (staggered full-population join, random-route stream, crash wave)
//!    at 1k/10k/100k nodes, reporting events fired, events/sec, wall
//!    time, the process's peak resident set (`VmHWM`, reset before
//!    each point) and heap bytes per node by owner at the end of the
//!    run (reliable connections and their free list, datagram
//!    reassembly, the engine's per-node record and maps, measurement
//!    ledgers, route tables), with `coverage`: the counted bytes over
//!    the peak resident set.
//!    The stream is `route`-shaped so deliveries stay O(1) in node count
//!    and the curve isolates scheduler cost. The 10k run must stay under
//!    a peak resident set ceiling (twice its measured reading) — a
//!    regression tripwire, not a tight bound. Wall time is recorded for
//!    the events/sec curve only; `benchmark/` is what times a change.
//!
//!    The curve previously dipped at 100k nodes (81k -> 50k events/sec
//!    from 10k to 100k): per-event node-state lookups went through six
//!    global `FxHashMap<NodeId, _>` tables whose working set fell out
//!    of cache once the population outgrew it. The world's node table
//!    is one dense `Vec<Option<Box<NodeState>>>` indexed by node id —
//!    one boxed record per node holding its stack, transport endpoint,
//!    timers and monitors — which removes the hash walks from the hot
//!    path; the JSON carries the measured 100k/10k ratio so the
//!    artifact history tracks the dip directly.
//!
//! All runs are seeded and deterministic.
//!
//! Usage: `cargo run --release -p macedon-bench --bin bench_scale`
//! (`--sizes 1000,10000,100000` overrides the curve, `--out PATH` the
//! output file).

use macedon_bench::experiments::{scenario_churn_run, scenario_scale_run};
use macedon_core::json::{self, Fixed};
use macedon_core::json_fields;
use std::time::Instant;

/// Seed-measured efficiency on the 200-node churn run, fixed at the
/// growth seed (752044 events / 23260 deliveries).
const BASELINE_EVENTS_PER_DELIVERED: f64 = 32.33;
/// Required improvement over the seed.
const REQUIRED_REDUCTION: f64 = 3.0;
/// Peak resident set ceiling for the 10k-node curve point, MiB: twice
/// the reading measured when it was set.
const CEILING_10K_RSS_MB: f64 = 470.0;

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
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_scale.json".to_string());

    // -- efficiency: events per delivered packet on the churn run -----------
    let stats = scenario_churn_run(200);
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
    for &n in &sizes {
        reset_peak_rss();
        let start = Instant::now();
        let s = scenario_scale_run(n);
        let secs = start.elapsed().as_secs_f64();
        let eps = s.events as f64 / secs;
        let peak = peak_rss_mb();
        let (c, per_node) = (&s.census, |bytes: usize| bytes as f64 / n as f64);
        // The share of the peak resident set the census accounts for.
        let coverage = peak.map(|mb| c.total() as f64 / (mb * 1024.0 * 1024.0));
        let or_dash = |v: Option<f64>, digits| v.map_or("-".into(), |v| format!("{v:.digits$}"));
        println!(
            "scale: {n} nodes, {} events, {} delivered, {} alive, \
             {secs:.2} s wall, {eps:.0} events/sec, peak RSS {} MiB",
            s.events,
            s.delivered,
            s.alive,
            or_dash(peak, 1)
        );
        println!(
            "  bytes/node: reliable conns {:.0} ({:.1} conns, {:.2} busy), conn free list {:.0}, \
             datagram reassembly {:.0}, engine maps {:.0}, measure ledger {:.0}, \
             route tables {:.0}; counted {:.0}, coverage {} of peak RSS",
            per_node(c.reliable_conns),
            per_node(c.conns),
            per_node(c.busy_conns),
            per_node(c.conn_free_list),
            per_node(c.datagram_reassembly),
            per_node(c.engine_maps),
            per_node(c.measure_ledgers),
            per_node(c.route_tables),
            per_node(c.total()),
            or_dash(coverage, 3)
        );
        assert!(s.delivered > 0, "{n}-node scale run must deliver traffic");
        if let (10_000, Some(mb)) = (n, peak) {
            assert!(
                mb < CEILING_10K_RSS_MB,
                "10k-node run peaked at {mb:.1} MiB, ceiling is {CEILING_10K_RSS_MB} MiB"
            );
        }
        curve.push((n, s, secs, eps, peak, coverage));
    }
    // The dip tracker: events/sec at 100k over events/sec at 10k. Flat
    // scheduler cost keeps this near 1.0; the pre-dense-state engine
    // measured 0.61 here.
    let eps_at = |n: usize| curve.iter().find(|p| p.0 == n).map(|p| p.3);
    let dip_ratio = match (eps_at(100_000), eps_at(10_000)) {
        (Some(big), Some(mid)) if mid > 0.0 => Some(big / mid),
        _ => None,
    };
    if let Some(r) = dip_ratio {
        println!("scale: 100k/10k events-per-sec ratio {r:.2} (seed engine: 0.61)");
    }

    let mut json = String::new();
    json::document(&mut json, json::DOCUMENT, |o| {
        o.field("bench", "scale");
        o.object("efficiency", |o| {
            json_fields!(o; nodes: 200, events: stats.events, delivered: stats.delivered,
                events_per_delivered: Fixed(epd, 2),
                baseline_events_per_delivered: Fixed(BASELINE_EVENTS_PER_DELIVERED, 2),
                reduction: Fixed(reduction, 2));
            o.object("breakdown", |o| {
                json_fields!(o; net: b.net, conn_timer: b.conn_timer, agent_timer: b.agent_timer,
                    fd_tick: b.fd_tick, control: b.control);
            });
        });
        o.records("curve", &curve, |o, (n, s, secs, eps, peak, coverage)| {
            let (c, per_node) = (&s.census, |bytes: usize| bytes as f64 / *n as f64);
            json_fields!(o; nodes: n, events: s.events, delivered: s.delivered, alive: s.alive,
                wall_secs: Fixed(*secs, 2), events_per_sec: Fixed(*eps, 0),
                peak_rss_mb: peak.map(|mb| Fixed(mb, 1)), coverage: coverage.map(|c| Fixed(c, 3)),
                conns_per_node: Fixed(per_node(c.conns), 2),
                busy_conns_per_node: Fixed(per_node(c.busy_conns), 3));
            o.object("bytes_per_node", |o| {
                json_fields!(o; reliable_conns: Fixed(per_node(c.reliable_conns), 0),
                    conn_free_list: Fixed(per_node(c.conn_free_list), 0),
                    datagram_reassembly: Fixed(per_node(c.datagram_reassembly), 0),
                    engine_maps: Fixed(per_node(c.engine_maps), 0),
                    measure_ledger: Fixed(per_node(c.measure_ledgers), 0),
                    route_tables: Fixed(per_node(c.route_tables), 0),
                    counted: Fixed(per_node(c.total()), 0));
            });
        });
        o.field("eps_ratio_100k_over_10k", dip_ratio.map(|r| Fixed(r, 2)));
    });
    match std::fs::write(&out, &json) {
        Ok(()) => println!("(wrote {out})"),
        Err(e) => eprintln!("{out}: {e}"),
    }
}
