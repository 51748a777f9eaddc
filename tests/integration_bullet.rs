//! Cross-crate integration: Bullet's headline behavior — mesh recovery
//! delivers data the base tree loses (§5: "Bullet nodes receive much
//! higher bandwidth relative to tree-based overlays"). The native Bullet
//! layer runs over `randtree.mac`, interpreted, as in Figure 2; its tree
//! data rides the spec's UDP channel, so tree losses are real losses.

use macedon::lang::SpecRegistry;
use macedon::overlays::bullet::{Bullet, BulletConfig};
use macedon::prelude::*;

/// An `n`-host star LAN whose nodes run `randtree.mac` with at most
/// `max_kids` children, Bullet on top when `bullet` is given, joining
/// through `hosts[0]` 100 ms apart.
fn tree_world(
    n: usize,
    seed: u64,
    max_kids: i64,
    bullet: Option<BulletConfig>,
) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    let mut registry = SpecRegistry::bundled();
    registry
        .set_constants("randtree", &[("MAXKIDS", max_kids)])
        .unwrap();
    let topo = macedon::net::topology::canned::star(n, macedon::net::topology::LinkSpec::lan());
    let cfg = WorldConfig {
        channels: registry.channel_table_for("randtree").unwrap(),
        ..WorldConfig::seeded(seed)
    };
    let mut w = World::new(topo, cfg);
    let (hosts, sink) = w.spawn_each(Duration::from_millis(100), |bootstrap| {
        let mut stack = registry.build_stack("randtree", bootstrap).unwrap();
        if let Some(cfg) = &bullet {
            stack.push(Box::new(Bullet::new(cfg.clone())));
        }
        stack
    });
    (w, hosts, sink)
}

/// Build a RandTree world, optionally with Bullet layered on top, on a
/// lossy network, and stream packets from the root. Returns the mean
/// fraction of the stream each receiver got.
fn run(with_bullet: bool, loss: f64, seed: u64) -> f64 {
    let bullet = with_bullet.then(|| BulletConfig {
        epoch: Duration::from_millis(300),
        ..Default::default()
    });
    let (mut w, hosts, sink) = tree_world(14, seed, 3, bullet);
    w.run_until(Time::from_secs(20));
    // Now add loss and stream 80 packets over 16 s.
    w.net_mut().faults_mut().set_drop_probability(loss);
    let n_pkts = 80u64;
    for i in 0..n_pkts {
        let mut p = vec![0u8; 1000];
        p[..8].copy_from_slice(&i.to_be_bytes());
        w.api_at(
            Time::from_secs(20) + Duration::from_millis(i * 200),
            hosts[0],
            DownCall::Multicast {
                group: MacedonKey(0),
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    // Heal the network at the end so the mesh can finish recovering.
    w.run_until(Time::from_secs(40));
    w.net_mut().faults_mut().set_drop_probability(0.0);
    w.run_until(Time::from_secs(55));
    let log = sink.lock();
    let mut per_node = std::collections::HashMap::new();
    for rec in log.iter() {
        if let (node, Some(seq)) = (rec.node, rec.seqno) {
            if node != hosts[0] {
                per_node
                    .entry(node)
                    .or_insert_with(std::collections::HashSet::new)
                    .insert(seq);
            }
        }
    }
    let receivers = (hosts.len() - 1) as f64;
    let total: f64 = per_node
        .values()
        .map(|s| s.len() as f64 / n_pkts as f64)
        .sum();
    total / receivers
}

#[test]
fn bullet_recovers_what_the_lossy_tree_drops() {
    let loss = 0.06; // per-hop UDP loss
    let tree_only = run(false, loss, 42);
    let with_bullet = run(true, loss, 42);
    assert!(
        tree_only < 0.995,
        "the lossy tree must actually lose data (got {tree_only:.3})"
    );
    assert!(
        with_bullet > tree_only + 0.02,
        "bullet must recover a meaningful fraction: tree={tree_only:.3} bullet={with_bullet:.3}"
    );
}

#[test]
fn bullet_mesh_actually_exchanges_data() {
    let (mut w, hosts, _sink) = tree_world(10, 9, 2, Some(BulletConfig::default()));
    w.run_until(Time::from_secs(15));
    w.net_mut().faults_mut().set_drop_probability(0.1);
    for i in 0..60u64 {
        let mut p = vec![0u8; 500];
        p[..8].copy_from_slice(&i.to_be_bytes());
        w.api_at(
            Time::from_secs(15) + Duration::from_millis(i * 150),
            hosts[0],
            DownCall::Multicast {
                group: MacedonKey(0),
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    // Loss active while the stream flows, then healed for recovery.
    w.run_until(Time::from_secs(26));
    w.net_mut().faults_mut().set_drop_probability(0.0);
    w.run_until(Time::from_secs(45));
    let recovered: u64 = hosts
        .iter()
        .map(|&h| {
            let b: &Bullet = w
                .stack(h)
                .unwrap()
                .agent(1)
                .as_any()
                .downcast_ref()
                .unwrap();
            b.recovered
        })
        .sum();
    assert!(recovered > 0, "mesh recovery happened at least once");
}
