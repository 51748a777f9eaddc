//! Cross-crate integration: the tree overlays (`overcast.mac`,
//! `randtree.mac`, `ammo.mac`, each interpreted) and native NICE on
//! realistic topologies, plus the global evaluation metrics (§4.3: link
//! stress, stretch). Every tree test checks that everyone joins one tree
//! rooted at the bootstrap and that a multicast reaches every member.

mod common;

use common::{only, receivers, stamped};
use macedon::core::SimRng;
use macedon::lang::SpecRegistry;
use macedon::net::metrics::{link_stress, tree_stretch};
use macedon::net::topology::{inet, InetParams};
use macedon::overlays::nice::Nice;
use macedon::prelude::*;
use std::collections::HashMap;

/// `proto` from the bundled roster with `constants` overridden, on a
/// 120-router INET graph with `clients` hosts.
fn inet_tree(
    proto: &str,
    constants: &[(&str, i64)],
    clients: usize,
    seed: u64,
    stagger_ms: u64,
) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    let params = InetParams {
        routers: 120,
        clients,
        ..Default::default()
    };
    let topo = inet(&params, &mut SimRng::new(seed));
    let mut registry = SpecRegistry::bundled();
    registry.set_constants(proto, constants).unwrap();
    let stagger = Duration::from_millis(stagger_ms);
    registry
        .world(proto, topo, WorldConfig::seeded(seed), stagger)
        .unwrap()
}

/// Every non-root host's `papa`, asserting each one reaches the root.
fn parents(w: &World, hosts: &[NodeId]) -> HashMap<NodeId, NodeId> {
    let mut parents = HashMap::new();
    for &h in &hosts[1..] {
        let (mut cur, mut steps) = (h, 0);
        while cur != hosts[0] {
            let p = only(w, cur, "papa").unwrap_or_else(|| panic!("{cur:?} has no parent"));
            parents.entry(cur).or_insert(p);
            cur = p;
            steps += 1;
            assert!(steps <= hosts.len(), "parent cycle through {h:?}");
        }
    }
    parents
}

fn multicast(w: &mut World, at: Time, from: NodeId, seq: u64) {
    w.api_at(
        at,
        from,
        DownCall::Multicast {
            group: MacedonKey(0),
            payload: stamped(seq, 512),
            priority: -1,
        },
    );
}

#[test]
fn overcast_tree_on_inet_with_stretch_metric() {
    let (mut w, hosts, sink) = inet_tree("overcast", &[("MAXKIDS", 4)], 14, 1, 200);
    w.run_until(Time::from_secs(90));
    let parents = parents(&w, &hosts);
    assert_eq!(parents.len(), hosts.len() - 1, "everyone attached");
    let stretch = tree_stretch(w.net_mut(), hosts[0], &parents);
    assert!(!stretch.is_empty());
    for (&n, &s) in &stretch {
        assert!(s >= 1.0 - 1e-9, "stretch below 1 at {n:?}");
        assert!(s < 50.0, "unreasonable stretch {s} at {n:?}");
    }
    multicast(&mut w, Time::from_secs(90), hosts[0], 3);
    w.run_until(Time::from_secs(100));
    assert_eq!(receivers(&sink, 3).len(), hosts.len() - 1);
}

#[test]
fn randtree_multicast_link_stress_bounded_by_fanout() {
    let (mut w, hosts, sink) = inet_tree("randtree", &[("MAXKIDS", 3)], 12, 3, 100);
    w.run_until(Time::from_secs(60));
    parents(&w, &hosts);
    let baseline = w.net().link_counters();
    multicast(&mut w, Time::from_secs(60), hosts[0], 1);
    // A narrow measurement window keeps engine heartbeats out of the
    // stress accounting (a LAN flood completes in tens of ms).
    w.run_until(Time::from_secs(61));
    assert_eq!(
        receivers(&sink, 1).len(),
        hosts.len() - 1,
        "flood reached everyone"
    );
    // Link stress of a single multicast: a tree with fanout 3 puts at
    // most a handful of copies on any physical link (heartbeats share
    // the access links, so allow headroom — but the bound must stay far
    // below a naive unicast-to-all's n copies).
    let stress = link_stress(&w.net().link_counters(), &baseline);
    assert!(stress.max > 0);
    assert!(
        stress.max <= 12,
        "tree multicast should bound per-link copies, got {}",
        stress.max
    );
}

/// AMMO's probe epochs (the first at 8 s) move nodes between parents;
/// after many of them the tree still spans everyone.
#[test]
fn ammo_adapts_without_partition_on_inet() {
    let (mut w, hosts, sink) = inet_tree("ammo", &[], 14, 5, 150);
    w.run_until(Time::from_secs(5));
    let early = parents(&w, &hosts);
    w.run_until(Time::from_secs(180));
    let late = parents(&w, &hosts);
    assert_ne!(early, late, "AMMO actually moved a node");
    multicast(&mut w, Time::from_secs(180), hosts[0], 2);
    w.run_until(Time::from_secs(200));
    let got = receivers(&sink, 2).len();
    assert_eq!(
        got,
        hosts.len() - 1,
        "post-adaptation multicast reached {got}"
    );
}

#[test]
fn nice_clusters_respect_latency_locality() {
    // Two latency islands: NICE's L0 clusters should not mix them.
    let lat = vec![
        vec![0, 5, 80, 80],
        vec![5, 0, 80, 80],
        vec![80, 80, 0, 5],
        vec![80, 80, 5, 0],
    ];
    let topo =
        macedon::net::topology::canned::sites(&lat, 3, macedon::net::topology::LinkSpec::lan());
    let mut w = World::new(topo, WorldConfig::seeded(7));
    let (hosts, _sink) = w.spawn_each(Duration::from_millis(400), |rendezvous| {
        vec![Box::new(Nice::new(rendezvous))]
    });
    w.run_until(Time::from_secs(240));
    // Count cross-island L0 cluster edges; locality should dominate.
    let island = |n: NodeId| hosts.iter().position(|&h| h == n).unwrap() / 6; // 2 sites/island
    let mut local = 0usize;
    let mut cross = 0usize;
    for &h in &hosts {
        let nice: &Nice = w
            .stack(h)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        for m in nice.cluster_members(0) {
            if m == h {
                continue;
            }
            if island(m) == island(h) {
                local += 1;
            } else {
                cross += 1;
            }
        }
    }
    assert!(local > 0);
    assert!(
        local >= cross,
        "latency clustering should favor local edges: local={local} cross={cross}"
    );
}
