//! Observability contracts of the causal trace stream.
//!
//! The trace is an *observation*, never an input: a seeded run traced
//! at High must produce the same deliveries as an untraced one, and
//! the rendered stream itself is deterministic along two independent
//! axes —
//!
//! 1. **Back-end invariance** — the interpreted and generated stacks
//!    emit byte-identical trace streams on identically seeded runs
//!    (same dispatches, same FSM edge names, same minted spans), the
//!    tracing analogue of the delivery-log cross-validation in
//!    `integration_generated.rs`.
//! 2. **Worker invariance** — for a fixed shard partition, the merged
//!    `(at, shard, seq)` stream is byte-identical for any worker
//!    count, because per-shard rings record in shard-local virtual
//!    order and the merge never looks at thread arrival.
//!
//! Plus the structural span property: parentage forms a forest — every
//! record's causal context is either `NONE` (a root: timer, API call,
//! engine traffic) or a span some strictly earlier `Send` record
//! minted, and no span is minted twice.

mod common;

use common::star;
use macedon::core::{SpanForest, TraceEvent};
use macedon::prelude::*;
use macedon_bench::experiments::Backend;

/// Build a world running `proto` with every stack traced at `level`,
/// partitioned into `shards` and driven by `workers` threads.
fn traced_world(
    backend: Backend,
    proto: &str,
    n: usize,
    seed: u64,
    level: TraceLevel,
    shards: usize,
    workers: usize,
) -> (World, Vec<NodeId>) {
    let cfg = WorldConfig {
        seed,
        shards,
        trace_level: level,
        ..Default::default()
    };
    let stagger = Duration::from_millis(100);
    let (mut w, hosts, _sink) = backend.world(proto, star(n), cfg, stagger);
    w.set_workers(workers);
    (w, hosts)
}

/// The multicast schedule the cross-validation suite uses: join, settle,
/// stream five packets from `hosts[1]`.
fn drive(w: &mut World, hosts: &[NodeId], group: MacedonKey) {
    w.run_until(Time::from_secs(40));
    for &h in &hosts[1..] {
        w.api_at(Time::from_secs(40), h, DownCall::Join { group });
    }
    w.run_until(Time::from_secs(80));
    for i in 0..5u64 {
        let mut p = vec![0u8; 128];
        p[..8].copy_from_slice(&i.to_be_bytes());
        w.api_at(
            Time::from_secs(80) + Duration::from_millis(i * 200),
            hosts[1],
            DownCall::Multicast {
                group,
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(100));
}

/// The byte-equality surface: every merged record's canonical render,
/// from a stream that must form a span forest.
fn trace_stream(w: &World) -> String {
    span_forest(w).stream
}

/// The merged stream as a span forest: unique mints, and every causal
/// context resolved by a strictly earlier `Send`.
fn span_forest(w: &World) -> SpanForest {
    SpanForest::build(&w.merged_trace()).unwrap_or_else(|e| panic!("not a span forest: {e}"))
}

#[test]
fn trace_stream_identical_across_backends() {
    let group = MacedonKey::of_name("xval");
    let (mut iw, ihosts) = traced_world(
        Backend::Interpreted,
        "splitstream",
        10,
        13,
        TraceLevel::High,
        1,
        1,
    );
    drive(&mut iw, &ihosts, group);
    let (mut gw, ghosts) = traced_world(
        Backend::Generated,
        "splitstream",
        10,
        13,
        TraceLevel::High,
        1,
        1,
    );
    assert_eq!(ihosts, ghosts);
    drive(&mut gw, &ghosts, group);

    let want = trace_stream(&iw);
    let got = trace_stream(&gw);
    assert!(
        want.lines().count() > 100,
        "traced splitstream run produced a real stream"
    );
    assert_eq!(
        want, got,
        "interpreted and generated trace streams diverged"
    );
    // Both carry causal deliveries, not just uncontexted housekeeping.
    assert!(want.contains("deliver from="));
    assert!(want.contains("send span="));
}

#[test]
fn trace_stream_identical_across_worker_counts() {
    let group = MacedonKey::of_name("xval");
    let mut streams = Vec::new();
    for workers in [1usize, 4] {
        let (mut w, hosts) = traced_world(
            Backend::Interpreted,
            "splitstream",
            12,
            7,
            TraceLevel::High,
            4,
            workers,
        );
        drive(&mut w, &hosts, group);
        streams.push(trace_stream(&w));
    }
    assert!(streams[0].lines().count() > 100);
    assert_eq!(
        streams[0], streams[1],
        "4-worker merged trace diverged from the 1-worker stream"
    );
}

#[test]
fn span_parentage_forms_a_forest() {
    let group = MacedonKey::of_name("xval");
    for (shards, workers) in [(1usize, 1usize), (4, 4)] {
        let (mut w, hosts) = traced_world(
            Backend::Interpreted,
            "splitstream",
            10,
            13,
            TraceLevel::High,
            shards,
            workers,
        );
        drive(&mut w, &hosts, group);
        span_forest(&w);
        let records = w.merged_trace();
        let sends = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Send { .. }))
            .count();
        assert!(sends > 0, "run minted spans");
        assert!(
            records.iter().any(|r| !r.span.is_none()),
            "run emitted records inside a causal context"
        );
    }
}

#[test]
fn tracing_is_pure_observation() {
    // Deliveries of a High-traced run match the untraced twin exactly.
    let group = MacedonKey::of_name("xval");
    let mut logs = Vec::new();
    for level in [TraceLevel::Off, TraceLevel::High] {
        let (mut w, hosts) = traced_world(Backend::Interpreted, "splitstream", 10, 13, level, 1, 1);
        drive(&mut w, &hosts, group);
        logs.push((w.events_fired(), w.total_net_drops()));
        if level == TraceLevel::Off {
            assert_eq!(w.merged_trace().len(), 0, "Off records nothing");
        }
    }
    assert_eq!(logs[0], logs[1], "tracing changed the run");
}
