//! `chord.mac`, interpreted: ring formation, predecessor and finger
//! repair, key routing to the owner in O(log n) hops, `routeIP`, and
//! crash repair.

use crate::roster::testworld::{list, only, view};
use crate::SpecRegistry;
use macedon_core::app::SharedDeliveries;
use macedon_core::{Duration, MacedonKey, NodeId, Ring, World, WorldConfig};
use macedon_net::topology::{canned, LinkSpec};
use macedon_scenario::{ChordOracle, ConvergenceOracle, Snapshot};

/// An `n`-node ring on a star LAN, joins 100 ms apart, `fix_fingers`
/// every `fix_fingers_ms`.
pub(crate) fn ring(
    n: usize,
    seed: u64,
    fix_fingers_ms: i64,
) -> (World, Vec<NodeId>, SharedDeliveries) {
    ring_in(n, WorldConfig::seeded(seed), fix_fingers_ms)
}

fn ring_in(
    n: usize,
    cfg: WorldConfig,
    fix_fingers_ms: i64,
) -> (World, Vec<NodeId>, SharedDeliveries) {
    let mut r = SpecRegistry::bundled();
    r.set_constants("chord", &[("FIX_FINGERS_MS", fix_fingers_ms)])
        .expect("chord declares FIX_FINGERS_MS");
    let topo = canned::star(n, LinkSpec::lan());
    r.world("chord", topo, cfg, Duration::from_millis(100))
        .expect("chain resolves")
}

/// The ring over `hosts` is correct: the [`ChordOracle`] finds no
/// fault in it.
pub(crate) fn assert_ring_closed(w: &World, hosts: &[NodeId]) {
    let violations = ChordOracle.check(&Snapshot::of(w, hosts));
    assert!(violations.is_empty(), "{violations:#?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roster::testworld::stamped;
    use macedon_core::{Bytes, DownCall, Time, TraceEvent, TraceLevel};

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
    fn singleton_ring_owns_everything() {
        let (mut w, hosts, sink) = ring(1, 42, 1000);
        w.run_until(Time::from_secs(5));
        assert_eq!(view(&w, hosts[0]).state, "joined");
        route(&mut w, Time::from_secs(5), hosts[0], MacedonKey(7), 1, 16);
        w.run_until(Time::from_secs(6));
        let log = sink.lock();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].node, hosts[0]);
    }

    #[test]
    fn ring_forms_correctly() {
        let (mut w, hosts, _sink) = ring(16, 7, 1000);
        w.run_until(Time::from_secs(60));
        assert_ring_closed(&w, &hosts);
    }

    #[test]
    fn predecessors_converge_too() {
        let (mut w, hosts, _sink) = ring(10, 9, 1000);
        w.run_until(Time::from_secs(60));
        let ring: Vec<NodeId> = Ring::new(&hosts, w.config().addressing).nodes().collect();
        for (i, &node) in ring.iter().enumerate() {
            let pred = only(&w, node, "pred");
            assert_eq!(
                pred,
                Some(ring[(i + ring.len() - 1) % ring.len()]),
                "pred at {i}"
            );
        }
    }

    #[test]
    fn route_delivers_to_key_owner() {
        let (mut w, hosts, sink) = ring(12, 21, 1000);
        w.run_until(Time::from_secs(60));
        let ring = Ring::new(&hosts, w.config().addressing);
        let key = |i: u64| MacedonKey((i as u32).wrapping_mul(0x9E37_79B9));
        for i in 0..20u64 {
            let at = Time::from_secs(60) + Duration::from_millis(i * 10);
            route(&mut w, at, hosts[0], key(i), i, 16);
        }
        w.run_until(Time::from_secs(90));
        let log = sink.lock();
        assert_eq!(log.len(), 20, "all routed packets delivered");
        for rec in log.iter() {
            let seq = rec.seqno.unwrap();
            assert_eq!(rec.node, ring.owner(key(seq)), "packet {seq}");
        }
    }

    /// Hops are counted as the sends of the (large) routed packets on
    /// the data channel, read off the Med-level trace.
    #[test]
    fn lookup_hops_logarithmic() {
        let cfg = WorldConfig {
            trace_level: TraceLevel::Med,
            ..WorldConfig::seeded(3)
        };
        let (mut w, hosts, sink) = ring_in(32, cfg, 500);
        w.run_until(Time::from_secs(120));
        let start = Time::from_secs(120);
        let lookups = 50u64;
        for i in 0..lookups {
            let dest = MacedonKey((i as u32).wrapping_mul(0x85EB_CA6B));
            let from = hosts[(i as usize) % hosts.len()];
            route(
                &mut w,
                start + Duration::from_millis(i * 20),
                from,
                dest,
                i,
                1000,
            );
        }
        w.run_until(Time::from_secs(150));
        assert_eq!(sink.lock().len() as u64, lookups);
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
        let avg_hops = hops as f64 / lookups as f64;
        // log2(32) = 5; converged fingers do much better than n/2.
        assert!(avg_hops <= 6.0, "avg hops {avg_hops}");
    }

    #[test]
    fn ring_heals_after_crash() {
        let (mut w, hosts, _sink) = ring(8, 13, 1000);
        w.run_until(Time::from_secs(60));
        let victim = Ring::new(&hosts, w.config().addressing)
            .nodes()
            .nth(3)
            .unwrap();
        assert_ne!(victim, hosts[0]);
        w.crash_at(Time::from_secs(61), victim);
        w.run_until(Time::from_secs(140));
        assert_ring_closed(&w, &hosts);
    }

    /// Entry `i` of node `n` is correct when the owner of
    /// `key(n) + 2^i` is among `n`'s fingers.
    #[test]
    fn fingers_converge_toward_correct_entries() {
        let (mut w, hosts, _sink) = ring(16, 5, 500);
        w.run_until(Time::from_secs(120));
        let ring = Ring::new(&hosts, w.config().addressing);
        let mut good = 0usize;
        for &h in &hosts {
            let fingers = list(&w, h, "fingers");
            good += (0..32)
                .filter(|&i| fingers.contains(&ring.owner(w.key_of(h).plus_pow2(i))))
                .count();
        }
        let frac = good as f64 / (32 * hosts.len()) as f64;
        assert!(frac > 0.9, "correct finger fraction {frac}");
    }

    #[test]
    fn route_ip_bypasses_overlay() {
        let (mut w, hosts, sink) = ring(4, 17, 1000);
        w.run_until(Time::from_secs(30));
        w.api_at(
            Time::from_secs(30),
            hosts[0],
            DownCall::RouteIp {
                dest: hosts[3],
                payload: stamped(99, 16),
                priority: -1,
            },
        );
        w.run_until(Time::from_secs(31));
        let log = sink.lock();
        let rec = log.iter().find(|r| r.seqno == Some(99)).unwrap();
        assert_eq!(rec.node, hosts[3]);
    }

    #[test]
    fn deliveries_reach_app_sink() {
        let (mut w, hosts, sink) = ring(3, 19, 1000);
        w.run_until(Time::from_secs(20));
        let payload = Bytes::from(vec![0u8; 8]);
        w.api_at(
            Time::from_secs(20),
            hosts[1],
            DownCall::RouteIp {
                dest: hosts[2],
                payload,
                priority: -1,
            },
        );
        w.run_until(Time::from_secs(21));
        assert_eq!(sink.lock().len(), 1);
    }
}
