//! Cross-crate integration: application-layer multicast — Scribe over
//! both DHTs (the paper's layering switch) and SplitStream striping.

mod common;

use macedon::lang::{bundled_specs, compile, SpecRegistry};
use macedon::overlays::pastry::{Pastry, PastryConfig};
use macedon::overlays::scribe::{DataPath, Scribe, ScribeConfig};
use macedon::overlays::splitstream::{stripe_key, SplitStream, SplitStreamConfig};
use macedon::prelude::*;
use std::sync::Arc;

fn scribe_world(n: usize, seed: u64) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    let topo = macedon::net::topology::canned::star(n, macedon::net::topology::LinkSpec::lan());
    let hosts = topo.hosts().to_vec();
    let mut w = World::new(
        topo,
        WorldConfig {
            seed,
            ..Default::default()
        },
    );
    let sink = shared_deliveries();
    for (i, &h) in hosts.iter().enumerate() {
        let pastry = Pastry::new(PastryConfig {
            bootstrap: (i > 0).then(|| hosts[0]),
            ..Default::default()
        });
        w.spawn_at(
            Time::from_millis(i as u64 * 100),
            h,
            vec![
                Box::new(pastry),
                Box::new(Scribe::new(ScribeConfig::default())),
            ],
            Box::new(CollectorApp::new(sink.clone())),
        );
    }
    (w, hosts, sink)
}

fn run_multicast(w: &mut World, hosts: &[NodeId], group: MacedonKey, n_pkts: u64) {
    w.run_until(Time::from_secs(40));
    for &h in &hosts[1..] {
        w.api_at(Time::from_secs(40), h, DownCall::Join { group });
    }
    w.run_until(Time::from_secs(80));
    for i in 0..n_pkts {
        let mut p = vec![0u8; 128];
        p[..8].copy_from_slice(&i.to_be_bytes());
        w.api_at(
            Time::from_secs(80) + Duration::from_millis(i * 100),
            hosts[1],
            DownCall::Multicast {
                group,
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(110));
}

#[test]
fn scribe_over_pastry_reaches_all_members() {
    let (mut w, hosts, sink) = scribe_world(12, 1);
    let group = MacedonKey::of_name("g1");
    run_multicast(&mut w, &hosts, group, 5);
    let log = sink.lock();
    for i in 0..5u64 {
        let got: std::collections::HashSet<NodeId> = log
            .iter()
            .filter(|r| r.seqno == Some(i))
            .map(|r| r.node)
            .collect();
        // All receivers (hosts[1..]) except... the sender hosts[1] is a
        // member and delivers its own multicast through the tree root.
        assert!(
            got.len() >= hosts.len() - 2,
            "packet {i} reached {}/{} members over pastry",
            got.len(),
            hosts.len() - 1
        );
    }
}

/// The paper's one-line layering switch: `scribe.mac` re-declared
/// `uses chord` and inserted over the bundled `chord.mac`.
#[test]
fn scribe_over_chord_reaches_all_members() {
    let (_, src) = bundled_specs()
        .into_iter()
        .find(|&(name, _)| name == "scribe")
        .expect("scribe is bundled");
    let src = src.replace(
        "protocol scribe uses pastry;",
        "protocol scribe uses chord;",
    );
    let mut registry = SpecRegistry::bundled();
    registry.insert(Arc::new(compile(&src).expect("scribe over chord compiles")));
    let (mut w, hosts, sink) = common::spec_world(
        &registry,
        "scribe",
        common::star(12),
        common::seeded(2),
        100,
    );
    let group = MacedonKey::of_name("g2");
    run_multicast(&mut w, &hosts, group, 5);
    let log = sink.lock();
    for i in 0..5u64 {
        let got: std::collections::HashSet<NodeId> = log
            .iter()
            .filter(|r| r.seqno == Some(i))
            .map(|r| r.node)
            .collect();
        assert!(
            got.len() >= hosts.len() - 2,
            "packet {i} reached {}/{} members over chord",
            got.len(),
            hosts.len() - 1
        );
    }
}

#[test]
fn scribe_trees_are_rooted_at_group_owner() {
    let (mut w, hosts, _sink) = scribe_world(10, 3);
    let group = MacedonKey::of_name("g3");
    run_multicast(&mut w, &hosts, group, 1);
    // Exactly one root, and it is the Pastry owner of the group key.
    let owner = hosts
        .iter()
        .copied()
        .min_by_key(|&h| {
            let k = w.key_of(h);
            (k.ring_distance(group), k.0)
        })
        .unwrap();
    let mut roots = 0;
    for &h in &hosts {
        let s: &Scribe = w
            .stack(h)
            .unwrap()
            .agent(1)
            .as_any()
            .downcast_ref()
            .unwrap();
        if s.is_root(group) {
            roots += 1;
            assert_eq!(h, owner, "root is the key owner");
        }
    }
    assert_eq!(roots, 1, "exactly one root");
}

#[test]
fn splitstream_stripes_spread_over_distinct_trees() {
    let topo = macedon::net::topology::canned::star(16, macedon::net::topology::LinkSpec::lan());
    let hosts = topo.hosts().to_vec();
    let mut w = World::new(
        topo,
        WorldConfig {
            seed: 4,
            ..Default::default()
        },
    );
    let sink = shared_deliveries();
    for (i, &h) in hosts.iter().enumerate() {
        let pastry = Pastry::new(PastryConfig {
            bootstrap: (i > 0).then(|| hosts[0]),
            ..Default::default()
        });
        let scribe = Scribe::new(ScribeConfig {
            data_path: DataPath::RouteIp,
            max_children: Some(4),
        });
        let split = SplitStream::new(SplitStreamConfig { stripes: 8 });
        w.spawn_at(
            Time::from_millis(i as u64 * 100),
            h,
            vec![Box::new(pastry), Box::new(scribe), Box::new(split)],
            Box::new(CollectorApp::new(sink.clone())),
        );
    }
    let group = MacedonKey::of_name("forest");
    w.run_until(Time::from_secs(40));
    for &h in &hosts[1..] {
        w.api_at(Time::from_secs(40), h, DownCall::Join { group });
    }
    w.run_until(Time::from_secs(100));
    // 16 packets round-robin over 8 stripes.
    for i in 0..16u64 {
        let mut p = vec![0u8; 256];
        p[..8].copy_from_slice(&i.to_be_bytes());
        w.api_at(
            Time::from_secs(100) + Duration::from_millis(i * 50),
            hosts[1],
            DownCall::Multicast {
                group,
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(130));
    let log = sink.lock();
    // Every packet reaches (almost) every member despite striping.
    for i in 0..16u64 {
        let got: std::collections::HashSet<NodeId> = log
            .iter()
            .filter(|r| r.seqno == Some(i))
            .map(|r| r.node)
            .collect();
        assert!(
            got.len() >= hosts.len() - 3,
            "stripe packet {i} reached {}/{}",
            got.len(),
            hosts.len() - 1
        );
    }
    drop(log);
    // Stripe roots differ: the 8 stripe keys are owned by several
    // distinct nodes (interior disjointness comes from prefix routing).
    let roots: std::collections::HashSet<NodeId> = (0..8)
        .map(|i| {
            let k = stripe_key(group, i, 8);
            hosts
                .iter()
                .copied()
                .min_by_key(|&h| {
                    let hk = w.key_of(h);
                    (hk.ring_distance(k), hk.0)
                })
                .unwrap()
        })
        .collect();
    assert!(
        roots.len() >= 3,
        "stripes root at distinct nodes: {roots:?}"
    );
}

#[test]
fn anycast_reaches_exactly_one_member() {
    let (mut w, hosts, sink) = scribe_world(10, 9);
    let group = MacedonKey::of_name("anycast-group");
    w.run_until(Time::from_secs(40));
    for &h in &hosts[1..] {
        w.api_at(Time::from_secs(40), h, DownCall::Join { group });
    }
    w.run_until(Time::from_secs(80));
    for i in 0..6u64 {
        let mut p = vec![0u8; 64];
        p[..8].copy_from_slice(&(100 + i).to_be_bytes());
        w.api_at(
            Time::from_secs(80) + Duration::from_millis(i * 100),
            hosts[1],
            DownCall::Anycast {
                group,
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(100));
    let log = sink.lock();
    for i in 0..6u64 {
        let hits = log.iter().filter(|r| r.seqno == Some(100 + i)).count();
        assert_eq!(hits, 1, "anycast {i} delivered to exactly one member");
    }
}

#[test]
fn leave_prunes_the_tree() {
    let (mut w, hosts, sink) = scribe_world(8, 13);
    let group = MacedonKey::of_name("leavers");
    w.run_until(Time::from_secs(40));
    for &h in &hosts[1..] {
        w.api_at(Time::from_secs(40), h, DownCall::Join { group });
    }
    w.run_until(Time::from_secs(80));
    // Two members leave; later multicast must not reach them.
    let leavers = [hosts[2], hosts[4]];
    for &h in &leavers {
        w.api_at(Time::from_secs(80), h, DownCall::Leave { group });
    }
    w.run_until(Time::from_secs(120));
    let mut p = vec![0u8; 64];
    p[..8].copy_from_slice(&777u64.to_be_bytes());
    w.api_at(
        Time::from_secs(120),
        hosts[1],
        DownCall::Multicast {
            group,
            payload: Bytes::from(p),
            priority: -1,
        },
    );
    w.run_until(Time::from_secs(140));
    let log = sink.lock();
    let got: std::collections::HashSet<NodeId> = log
        .iter()
        .filter(|r| r.seqno == Some(777))
        .map(|r| r.node)
        .collect();
    for &l in &leavers {
        // A leaver may still relay as a forwarder, but must not deliver to
        // its application once `member = false`.
        assert!(!got.contains(&l), "leaver {l:?} must not deliver");
    }
    assert!(
        got.len() >= hosts.len() - 1 - 2 - 1,
        "remaining members still served: {got:?}"
    );
}
