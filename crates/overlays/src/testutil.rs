//! World-building helpers shared by this crate's unit tests, the
//! workspace integration tests and the figure-regeneration harness.

use crate::pastry::{Pastry, PastryConfig};
use macedon_core::app::{shared_deliveries, CollectorApp, SharedDeliveries};
use macedon_core::{Duration, MacedonKey, NodeId, World, WorldConfig};
use macedon_net::topology::{canned, inet, InetParams, LinkSpec};
use macedon_net::Topology;
use macedon_sim::SimRng;

/// A modest star LAN for protocol-logic tests (topology effects off).
pub fn star_topology(n: usize) -> Topology {
    canned::star(n, LinkSpec::lan())
}

/// An INET-like topology with `clients` hosts for realism-sensitive tests.
pub fn inet_topology(routers: usize, clients: usize, seed: u64) -> Topology {
    let mut rng = SimRng::new(seed);
    inet(
        &InetParams {
            routers,
            clients,
            ..Default::default()
        },
        &mut rng,
    )
}

/// Spawn a Pastry mesh of `n` nodes on a star LAN.
pub fn pastry_mesh(n: usize, seed: u64) -> (World, Vec<NodeId>, SharedDeliveries) {
    let mut w = World::new(
        star_topology(n),
        WorldConfig {
            seed,
            ..Default::default()
        },
    );
    let sink = shared_deliveries();
    let hosts = w.spawn_each(Duration::from_millis(100), |_, bootstrap| {
        let cfg = PastryConfig {
            bootstrap,
            ..Default::default()
        };
        (
            vec![Box::new(Pastry::new(cfg))],
            Box::new(CollectorApp::new(sink.clone())),
        )
    });
    (w, hosts, sink)
}

/// Hosts sorted by their key: the correct ring order, from global
/// knowledge — what the paper's Fig 10 "correct routing tables" baseline
/// is computed from.
pub fn collect_ring(w: &World, hosts: &[NodeId]) -> Vec<(NodeId, MacedonKey)> {
    let mut ring: Vec<(NodeId, MacedonKey)> = hosts.iter().map(|&h| (h, w.key_of(h))).collect();
    ring.sort_by_key(|&(_, k)| k);
    ring
}

/// The globally correct owner of `key` among `ring` (Chord semantics:
/// the first node clockwise at-or-after the key).
pub fn correct_owner(ring: &[(NodeId, MacedonKey)], key: MacedonKey) -> NodeId {
    ring.iter()
        .copied()
        .min_by_key(|&(_, k)| key.distance_to(k))
        .expect("non-empty ring")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_order_is_sorted_and_complete() {
        let topo = star_topology(5);
        let hosts = topo.hosts().to_vec();
        let w = World::new(topo, WorldConfig::default());
        let ring = collect_ring(&w, &hosts);
        assert_eq!(ring.len(), 5);
        for pair in ring.windows(2) {
            assert!(pair[0].1 < pair[1].1);
        }
    }

    #[test]
    fn correct_owner_is_clockwise_successor() {
        let ring = vec![
            (NodeId(1), MacedonKey(100)),
            (NodeId(2), MacedonKey(200)),
            (NodeId(3), MacedonKey(300)),
        ];
        assert_eq!(correct_owner(&ring, MacedonKey(150)), NodeId(2));
        assert_eq!(correct_owner(&ring, MacedonKey(200)), NodeId(2));
        assert_eq!(correct_owner(&ring, MacedonKey(350)), NodeId(1)); // wraps
    }
}
