//! Failure-injection integration: crash nodes, kill links, add loss —
//! the overlays must detect (engine g/f heartbeat failure detector) and
//! repair.

mod common;

use common::{assert_ring_closed, stamped, star};
use macedon::core::Ring;
use macedon::overlays::pastry::{Pastry, PastryConfig};
use macedon::overlays::scribe::{Scribe, ScribeConfig};
use macedon::prelude::*;
use macedon_bench::experiments::Backend;

/// Joins start this far apart.
const STAGGER: Duration = Duration::from_millis(100);

/// An `n`-node `chord.mac` ring on a star LAN, joins 100 ms apart.
fn chord_ring(n: usize, seed: u64) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    Backend::Interpreted.world("chord", star(n), WorldConfig::seeded(seed), STAGGER)
}

#[test]
fn chord_survives_cascading_crashes() {
    let (mut w, hosts, _sink) = chord_ring(12, 1);
    w.run_until(Time::from_secs(60));
    // Crash three non-bootstrap nodes, staggered.
    let victims = [hosts[3], hosts[6], hosts[9]];
    w.crash_at(Time::from_secs(61), victims[0]);
    w.crash_at(Time::from_secs(75), victims[1]);
    w.crash_at(Time::from_secs(90), victims[2]);
    w.run_until(Time::from_secs(200));
    assert_ring_closed(&w, &hosts);
}

#[test]
fn chord_routes_correctly_after_heal() {
    let (mut w, hosts, sink) = chord_ring(10, 3);
    w.run_until(Time::from_secs(60));
    let victim = hosts[5];
    w.crash_at(Time::from_secs(60), victim);
    w.run_until(Time::from_secs(150));
    let alive: Vec<NodeId> = hosts.iter().copied().filter(|&h| h != victim).collect();
    let ring = Ring::new(&alive, w.config().addressing);
    let key = |i: u64| MacedonKey((i as u32).wrapping_mul(0x9E37_79B9));
    for i in 0..15u64 {
        w.api_at(
            Time::from_secs(150) + Duration::from_millis(i * 40),
            alive[(i % alive.len() as u64) as usize],
            DownCall::Route {
                dest: key(i),
                payload: stamped(i, 32),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(200));
    let log = sink.lock();
    let delivered: Vec<_> = log
        .iter()
        .filter(|r| r.seqno.is_some() && r.at > Time::from_secs(150))
        .collect();
    assert_eq!(delivered.len(), 15, "all post-heal lookups delivered");
    for rec in &delivered {
        assert_ne!(rec.node, victim, "nothing delivered at the dead node");
        assert_eq!(rec.node, ring.owner(key(rec.seqno.unwrap())));
    }
}

#[test]
fn scribe_tree_repairs_after_forwarder_crash() {
    let mut w = World::new(star(12), WorldConfig::seeded(5));
    let (hosts, sink) = w.spawn_each(STAGGER, |bootstrap| {
        let pastry = Pastry::new(PastryConfig {
            bootstrap,
            ..Default::default()
        });
        vec![
            Box::new(pastry),
            Box::new(Scribe::new(ScribeConfig::default())),
        ]
    });
    let group = MacedonKey::of_name("resilient");
    w.run_until(Time::from_secs(40));
    for &h in &hosts[1..] {
        w.api_at(Time::from_secs(40), h, DownCall::Join { group });
    }
    w.run_until(Time::from_secs(80));
    // Crash a node that forwards for the group (has children).
    let victim = hosts[1..].iter().copied().find(|&h| {
        let s: &Scribe = w
            .stack(h)
            .unwrap()
            .agent(1)
            .as_any()
            .downcast_ref()
            .unwrap();
        !s.group_children(group).is_empty()
    });
    let Some(victim) = victim else {
        return; // flat tree: nothing to crash meaningfully
    };
    w.crash_at(Time::from_secs(80), victim);
    // Wait for failure detection + rejoin, then multicast.
    w.run_until(Time::from_secs(160));
    let mut p = vec![0u8; 128];
    p[..8].copy_from_slice(&42u64.to_be_bytes());
    let sender = hosts
        .iter()
        .copied()
        .find(|&h| h != victim && h != hosts[0])
        .unwrap();
    w.api_at(
        Time::from_secs(160),
        sender,
        DownCall::Multicast {
            group,
            payload: Bytes::from(p),
            priority: -1,
        },
    );
    w.run_until(Time::from_secs(190));
    let log = sink.lock();
    let got: std::collections::HashSet<NodeId> = log
        .iter()
        .filter(|r| r.seqno == Some(42))
        .map(|r| r.node)
        .collect();
    // All surviving members (n-2: minus bootstrap non-member? bootstrap
    // never joined; minus the victim) modulo one straggler mid-rejoin.
    let members = hosts.len() - 2; // hosts[1..] joined, one crashed
    assert!(
        got.len() + 1 >= members,
        "post-repair multicast reached {}/{members}",
        got.len()
    );
}

#[test]
fn random_loss_does_not_break_chord_maintenance() {
    let (mut w, hosts, _sink) = chord_ring(8, 7);
    w.net_mut().faults_mut().set_drop_probability(0.05);
    w.run_until(Time::from_secs(180));
    let violations = ChordOracle.check(&Snapshot::of(&w, &hosts));
    assert!(
        violations.len() <= 1,
        "ring nearly perfect under 5% loss: {violations:#?}"
    );
}

#[test]
fn link_failure_and_heal_recovers_traffic() {
    let (mut w, hosts, _sink) = chord_ring(4, 9);
    let phys0 = {
        let topo = w.net().topology();
        topo.link(topo.outgoing(hosts[1])[0]).phys
    };
    w.run_until(Time::from_secs(40));
    // Take hosts[1]'s access link down briefly; TCP retransmission and
    // engine heartbeats must ride it out.
    w.net_mut().faults_mut().fail_link(phys0);
    w.run_until(Time::from_secs(44));
    w.net_mut().faults_mut().heal_link(phys0);
    w.run_until(Time::from_secs(120));
    assert_ring_closed(&w, &hosts);
}
