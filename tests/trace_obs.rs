//! Observability contracts of the causal trace stream.
//!
//! The trace is an *observation*, never an input: a seeded run traced
//! at High must produce the same deliveries as an untraced one, and
//! the rendered stream itself is **back-end invariant**: the
//! interpreted and generated stacks emit byte-identical trace streams
//! on identically seeded runs (same dispatches, same FSM edge names,
//! same minted spans), the tracing analogue of the delivery-log
//! cross-validation in `integration_generated.rs`.
//!
//! Plus the structural span property: parentage forms a forest — every
//! record's causal context is either `NONE` (a root: timer, API call,
//! engine traffic) or a span some strictly earlier `Send` record
//! minted, and no span is minted twice — and the Perfetto export
//! carries every record.
//!
//! The same checks at 200 nodes are `#[ignore]`d in the plain run; CI
//! runs them in release with `--ignored`.

mod common;

use common::{drive_multicast, star};
use macedon::core::{perfetto_json, SpanForest, TraceEvent, TraceRecord};
use macedon::prelude::*;
use macedon_bench::experiments::Backend;

/// Build a splitstream world with every stack traced at `level`.
fn traced_world(backend: Backend, n: usize, seed: u64, level: TraceLevel) -> (World, Vec<NodeId>) {
    let cfg = WorldConfig {
        seed,
        trace_level: level,
        ..Default::default()
    };
    let stagger = Duration::from_millis(100);
    let (w, hosts, _sink) = backend.world("splitstream", star(n), cfg, stagger);
    (w, hosts)
}

/// The byte-equality surface: every record's canonical render, from a
/// stream that must form a span forest.
fn trace_stream(w: &World) -> String {
    span_forest(w).stream
}

/// The stream as a span forest: unique mints, and every causal context
/// resolved by a strictly earlier `Send`.
fn span_forest(w: &World) -> SpanForest {
    SpanForest::build(&records(w)).unwrap_or_else(|e| panic!("not a span forest: {e}"))
}

fn records(w: &World) -> Vec<&TraceRecord> {
    w.trace().records().collect()
}

/// The Perfetto export's bytes are pinned in `macedon_core::export`;
/// here it must carry every record as exactly one instant event.
fn assert_export_carries_every_record(records: &[&TraceRecord]) {
    let json = perfetto_json(records);
    let instants = json.lines().filter(|l| l.contains("\"ph\":\"i\"")).count();
    assert_eq!(instants, records.len(), "perfetto export lost records");
}

#[test]
fn trace_stream_identical_across_backends() {
    let group = MacedonKey::of_name("xval");
    let (mut iw, ihosts) = traced_world(Backend::Interpreted, 10, 13, TraceLevel::High);
    drive_multicast(&mut iw, &ihosts, group, true, 5, 100);
    let (mut gw, ghosts) = traced_world(Backend::Generated, 10, 13, TraceLevel::High);
    assert_eq!(ihosts, ghosts);
    drive_multicast(&mut gw, &ghosts, group, true, 5, 100);

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
fn span_parentage_forms_a_forest() {
    let group = MacedonKey::of_name("xval");
    let (mut w, hosts) = traced_world(Backend::Interpreted, 10, 13, TraceLevel::High);
    drive_multicast(&mut w, &hosts, group, true, 5, 100);
    span_forest(&w);
    let records = records(&w);
    let sends = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Send { .. }))
        .count();
    assert!(sends > 0, "run minted spans");
    assert!(
        records.iter().any(|r| !r.span.is_none()),
        "run emitted records inside a causal context"
    );
    assert_export_carries_every_record(&records);
}

#[test]
fn tracing_is_pure_observation() {
    // Deliveries of a High-traced run match the untraced twin exactly.
    let group = MacedonKey::of_name("xval");
    let mut logs = Vec::new();
    for level in [TraceLevel::Off, TraceLevel::High] {
        let (mut w, hosts) = traced_world(Backend::Interpreted, 10, 13, level);
        drive_multicast(&mut w, &hosts, group, true, 5, 100);
        logs.push((w.events_fired(), w.net().total_drops()));
        if level == TraceLevel::Off {
            assert_eq!(w.trace().len(), 0, "Off records nothing");
        }
    }
    assert_eq!(logs[0], logs[1], "tracing changed the run");
}

/// Whether the forest holds a complete multi-hop cross-layer delivery
/// path: a deliver above the transport layer whose context chains
/// through at least one forwarding send back to a root application
/// send, across at least three distinct nodes.
fn has_delivery_path(records: &[&TraceRecord], forest: &SpanForest) -> bool {
    records.iter().any(|r| {
        if !matches!(r.event, TraceEvent::Deliver { .. }) || r.layer == 0 || r.span.is_none() {
            return false;
        }
        let hops = forest.lineage(r.span);
        let mut nodes: Vec<u32> = hops.iter().map(|&(idx, _)| records[idx].node.0).collect();
        nodes.push(r.node.0);
        nodes.sort_unstable();
        nodes.dedup();
        hops.len() >= 2 && nodes.len() >= 3
    })
}

/// The full-scale run: 200 nodes. Its stream must be byte-identical on
/// the generated back end, the ring must keep every record, the span
/// forest must reconstruct a multi-hop cross-layer delivery path, and
/// the Perfetto export must carry every record.
#[test]
#[ignore = "200 nodes; run with --release -- --ignored"]
fn trace_stream_at_200_nodes() {
    let group = MacedonKey::of_name("xval");
    let run = |backend| {
        let (mut w, hosts) = traced_world(backend, 200, 42, TraceLevel::High);
        w.set_trace_capacity(1 << 22);
        drive_multicast(&mut w, &hosts, group, true, 5, 100);
        w
    };
    let interp = run(Backend::Interpreted);
    assert_eq!(
        interp.trace().dropped,
        0,
        "ring evicted records; raise the capacity"
    );
    let want = span_forest(&interp);
    let got = trace_stream(&run(Backend::Generated));
    assert!(
        got == want.stream,
        "generated stream diverged; first differing lines: {:?}",
        want.stream.lines().zip(got.lines()).find(|(a, b)| a != b)
    );
    let records = records(&interp);
    assert!(
        has_delivery_path(&records, &want),
        "no multi-hop cross-layer delivery path found"
    );
    assert_export_carries_every_record(&records);
}
