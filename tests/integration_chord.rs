//! Cross-crate integration: `chord.mac` over the full stack (INET
//! topology → packet pipeline → transports → engine → interpreted
//! agent), validating the ring and routing properties the Fig 10
//! experiment relies on.

mod common;

use common::{assert_ring_closed, stamped};
use macedon::core::{Ring, SimRng, TraceEvent};
use macedon::lang::SpecRegistry;
use macedon::net::topology::{inet, InetParams};
use macedon::prelude::*;

fn chord_world(
    clients: usize,
    seed: u64,
    trace_level: TraceLevel,
) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    let params = InetParams {
        routers: 150,
        clients,
        ..Default::default()
    };
    let topo = inet(&params, &mut SimRng::new(seed));
    let cfg = WorldConfig {
        trace_level,
        ..WorldConfig::seeded(seed)
    };
    let stagger = Duration::from_millis(200);
    SpecRegistry::bundled()
        .world("chord", topo, cfg, stagger)
        .unwrap()
}

fn route(w: &mut World, at: Time, from: NodeId, dest: MacedonKey, seq: u64, len: usize) {
    w.api_at(
        at,
        from,
        DownCall::Route {
            dest,
            payload: stamped(seq, len),
            priority: -1,
        },
    );
}

#[test]
fn ring_converges_on_realistic_topology() {
    let (mut w, hosts, _sink) = chord_world(20, 1, TraceLevel::Off);
    w.run_until(Time::from_secs(120));
    assert_ring_closed(&w, &hosts);
}

/// Hops are the sends of the (large) routed packets on the data
/// channel, read off the trace.
#[test]
fn lookups_land_on_owners_with_log_hops() {
    let (mut w, hosts, sink) = chord_world(24, 3, TraceLevel::Med);
    w.run_until(Time::from_secs(150));
    let ring = Ring::new(&hosts, w.config().addressing);
    let start = Time::from_secs(150);
    let n = 40u64;
    let key = |i: u64| MacedonKey((i as u32).wrapping_mul(0x85EB_CA6B));
    for i in 0..n {
        let at = start + Duration::from_millis(i * 25);
        route(&mut w, at, hosts[(i % 24) as usize], key(i), i, 1000);
    }
    w.run_until(Time::from_secs(200));
    let log = sink.lock();
    assert_eq!(log.len() as u64, n, "every lookup delivered");
    for rec in log.iter() {
        let seq = rec.seqno.unwrap();
        assert_eq!(rec.node, ring.owner(key(seq)), "lookup {seq} owner");
    }
    let data = w.channel("DATA").unwrap();
    let hops = w
        .trace()
        .records()
        .filter(|r| {
            r.at >= start
                && matches!(r.event, TraceEvent::Send { channel, bytes, .. }
                    if channel == data && bytes >= 1000)
        })
        .count();
    let avg_hops = hops as f64 / n as f64;
    assert!(avg_hops <= 7.0, "O(log 24) routing, got {avg_hops}");
}

#[test]
fn overhead_accounting_via_transport_stats() {
    // The "communication overhead" evaluation metric: engine-level
    // counters must reflect maintenance traffic even when idle.
    let (mut w, hosts, _sink) = chord_world(8, 5, TraceLevel::Off);
    w.run_until(Time::from_secs(60));
    let total: u64 = hosts
        .iter()
        .map(|&h| w.endpoint(h).unwrap().total_bytes_sent())
        .sum();
    assert!(total > 0, "stabilization traffic accounted");
}

#[test]
fn rdp_of_overlay_routing_bounded() {
    // Overlay routing pays a delay penalty but not an absurd one once
    // fingers converge (spot check of the metrics machinery).
    let (mut w, hosts, sink) = chord_world(16, 7, TraceLevel::Off);
    w.run_until(Time::from_secs(150));
    let src = hosts[0];
    route(
        &mut w,
        Time::from_secs(150),
        src,
        MacedonKey(0x7777_7777),
        1,
        32,
    );
    w.run_until(Time::from_secs(160));
    let log = sink.lock();
    let rec = log.iter().find(|r| r.seqno == Some(1)).expect("delivered");
    let direct = w.net_mut().oracle_latency(src, rec.node).unwrap();
    let observed = rec.at.saturating_since(Time::from_secs(150));
    let rdp = observed.as_secs_f64() / direct.as_secs_f64().max(1e-9);
    assert!(rdp >= 1.0 - 1e-9, "cannot beat the direct path");
    assert!(rdp < 60.0, "pathological delay penalty {rdp}");
}
