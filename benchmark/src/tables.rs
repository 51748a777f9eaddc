//! The benchmark's names: workloads, metrics, units, bounds. Constants
//! only, so `tests/smoke.rs` can include this file and check it against
//! `BENCHMARK.json`. Later issues must use these names.

/// Workloads: name, and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "churn-inet-interp",
        "the paper's setting: multi-hop routing over a 20,000-router INET graph, lossy multicast, interpreted agents",
    ),
    (
        "churn-star-gen",
        "the same script on a star with generated agents: bypasses routing and the interpreter",
    ),
    (
        "scale-star-interp",
        "control plane: join storm, per-node timers and FdTicks, O(1) deliveries; pending-set size shows here",
    ),
    (
        "scale-star-sharded",
        "the same experiment through the windowed engine on two shards: barrier and merge cost",
    ),
    (
        "sweep-churn-2w",
        "the scenario-layer user flow: two Worlds at a time in one process, so shared caches or locks show",
    ),
];

/// End-to-end metrics: name, unit, and the share of the parent commit's
/// median by which a change may worsen it (`BENCHMARK.json` repeats
/// these; `tests/smoke.rs` checks the two agree). Lower is better for
/// all of them.
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_mb", "MiB", 0.08),
    ("setup_s", "s", 0.25),
    ("alloc_mb", "MiB", 0.05),
    ("events_per_delivery", "events", 0.10),
];

/// Per-layer metrics: name and unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.compile_s", "s"),
    ("scenario.parse_s", "s"),
    ("net.topology_build_s", "s"),
    ("scenario.bind_s", "s"),
    ("scenario.run_s", "s"),
    ("scenario.report_s", "s"),
    ("scenario.sweep_cell_s.median", "s"),
    ("scenario.sweep_cell_s.max", "s"),
    ("core.stack_build_s", "s"),
    ("core.stack_build_calls", "count"),
    ("agent.l0.busy_s", "s"),
    ("agent.l0.calls", "count"),
    ("agent.l1.busy_s", "s"),
    ("agent.l1.calls", "count"),
    ("agent.l2.busy_s", "s"),
    ("agent.l2.calls", "count"),
    ("agent.busy_share", "ratio"),
    ("engine.busy_s", "s"),
    ("world.events_per_s", "1/s"),
    ("world.us_per_event", "us"),
    ("sim.events", "count"),
    ("sim.events_net", "count"),
    ("sim.events_conn_timer", "count"),
    ("sim.events_agent_timer", "count"),
    ("sim.events_fd_tick", "count"),
    ("sim.events_control", "count"),
    ("sim.peak_pending_events", "count"),
    ("sim.events_per_node_s", "1/s"),
    ("net.drops", "count"),
    ("net.links_used", "count"),
    ("net.link_stress_max", "count"),
    ("transport.segments", "count"),
    ("transport.retransmissions", "count"),
    ("transport.acks", "count"),
    ("transport.ctrl_bytes", "bytes"),
    ("transport.msgs_per_segment", "ratio"),
    ("alloc.calls", "count"),
    ("alloc.calls_per_event", "ratio"),
    ("alloc.peak_live_mb", "MiB"),
    ("mem.rss_kb_per_node", "KiB"),
    ("shard.windows", "count"),
    ("shard.barrier_s", "s"),
    ("shard.inject_s", "s"),
    ("shard.drain_s", "s"),
    ("shard.route_s", "s"),
    ("shard.barrier_share", "ratio"),
    ("sim.sched_ns_per_op", "ns"),
    ("net.route_cold_us_per_src", "us"),
    ("net.route_warm_ns_per_hop", "ns"),
    ("net.route_cache_mb", "MiB"),
    ("net.transit_ns_per_pkt", "ns"),
    ("transport.reliable_ns_per_msg", "ns"),
    ("core.dispatch_ns_per_event", "ns"),
    ("core.wire_ns_per_roundtrip", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
];

/// Seconds of run phase measured per workload unless `--seconds` says
/// otherwise (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 15.0;
pub const DEFAULT_SEED: u64 = 77;
