//! Cross-crate integration: Pastry on a realistic topology, including
//! the location-cache machinery behind Figure 12.

use macedon::core::WireWriter;
use macedon::net::topology::{inet, InetParams};
use macedon::overlays::pastry::{Pastry, PastryConfig, EXT_ROUTE_DIRECT};
use macedon::prelude::*;
use macedon::sim::SimRng;

fn pastry_world(
    clients: usize,
    seed: u64,
    cache_lifetime: Option<Duration>,
) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    let mut rng = SimRng::new(seed);
    let topo = inet(
        &InetParams {
            routers: 150,
            clients,
            ..Default::default()
        },
        &mut rng,
    );
    let mut w = World::new(topo, WorldConfig::seeded(seed));
    let (hosts, sink) = w.spawn_each(Duration::from_millis(150), |bootstrap| {
        vec![Box::new(Pastry::new(PastryConfig {
            bootstrap,
            cache_lifetime,
        }))]
    });
    (w, hosts, sink)
}

fn pastry_of(w: &World, h: NodeId) -> &Pastry {
    w.stack(h)
        .unwrap()
        .agent(0)
        .as_any()
        .downcast_ref()
        .unwrap()
}

/// Pastry ownership: globally closest key by ring distance.
fn closest(w: &World, hosts: &[NodeId], key: MacedonKey) -> NodeId {
    hosts
        .iter()
        .copied()
        .min_by_key(|&h| {
            let k = w.key_of(h);
            (k.ring_distance(key), k.0)
        })
        .unwrap()
}

#[test]
fn routing_delivers_to_numerically_closest_on_inet() {
    let (mut w, hosts, sink) = pastry_world(20, 11, None);
    w.run_until(Time::from_secs(120));
    for i in 0..30u64 {
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_be_bytes());
        w.api_at(
            Time::from_secs(120) + Duration::from_millis(i * 30),
            hosts[(i % 20) as usize],
            DownCall::Route {
                dest: MacedonKey((i as u32).wrapping_mul(0xC2B2_AE35)),
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(160));
    let log = sink.lock();
    assert_eq!(log.len(), 30);
    for rec in log.iter() {
        let seq = rec.seqno.unwrap();
        let dest = MacedonKey((seq as u32).wrapping_mul(0xC2B2_AE35));
        assert_eq!(rec.node, closest(&w, &hosts, dest), "packet {seq}");
    }
}

#[test]
fn location_cache_cuts_repeat_latency() {
    let (mut w, hosts, sink) = pastry_world(16, 13, None);
    w.run_until(Time::from_secs(120));
    let target = w.key_of(hosts[9]);
    let send = |w: &mut World, at: Time, seq: u64| {
        let mut inner = vec![0u8; 32];
        inner[..8].copy_from_slice(&seq.to_be_bytes());
        let mut pw = WireWriter::new();
        pw.key(target);
        pw.bytes(&inner);
        w.api_at(
            at,
            hosts[0],
            DownCall::Ext {
                op: EXT_ROUTE_DIRECT,
                payload: pw.finish(),
            },
        );
    };
    send(&mut w, Time::from_secs(120), 1);
    w.run_until(Time::from_secs(125));
    send(&mut w, Time::from_secs(125), 2);
    w.run_until(Time::from_secs(130));
    let log = sink.lock();
    let l1 = log.iter().find(|r| r.seqno == Some(1)).unwrap();
    let l2 = log.iter().find(|r| r.seqno == Some(2)).unwrap();
    let d1 = l1.at.saturating_since(Time::from_secs(120));
    let d2 = l2.at.saturating_since(Time::from_secs(125));
    assert!(
        d2 <= d1,
        "cached direct path is never slower: first={d1:?} second={d2:?}"
    );
    let p = pastry_of(&w, hosts[0]);
    assert_eq!(p.cache_misses, 1);
    assert_eq!(p.cache_hits, 1);
}

#[test]
fn leaf_sets_match_global_neighbors() {
    let (mut w, hosts, _sink) = pastry_world(14, 17, None);
    w.run_until(Time::from_secs(150));
    for &h in &hosts {
        let me = w.key_of(h);
        let nearest_cw = hosts
            .iter()
            .copied()
            .filter(|&o| o != h)
            .min_by_key(|&o| me.distance_to(w.key_of(o)))
            .unwrap();
        assert!(
            pastry_of(&w, h)
                .leaf_set()
                .iter()
                .any(|&(n, _)| n == nearest_cw),
            "{h:?} knows its clockwise neighbor"
        );
    }
}
