//! A route walk handed from one shard's replica to another in the
//! middle of the core, not at a star's hub.

use macedon_net::topology::{inet, InetParams};
use macedon_net::{NetEvent, Network, NetworkConfig, Packet, Router, ShardMap, Sink};
use macedon_sim::{SimRng, Time};
use std::sync::Arc;

/// On a small INET graph split over two shards, an uncontended packet
/// whose walk is suspended at a router-to-router link and continued by
/// [`Network::resume`] — the one caller that resolves a route from a
/// non-host node — arrives when, and over the links, the unsharded walk
/// does.
#[test]
fn walk_resumed_at_a_mid_path_router_matches_the_sequential_walk() {
    let topo = inet(&InetParams::test_scale(12), &mut SimRng::new(2004));
    let smap = Arc::new(ShardMap::partition_hosts(&topo, 2));
    let hosts = topo.hosts().to_vec();
    let sent = Time::from_millis(5);
    let mut router = Router::new();
    let mut mid_path_handoffs = 0;
    for &src in &hosts {
        for &dst in hosts.iter().filter(|&&d| d != src) {
            // Fresh networks per pair: every packet is uncontended.
            let mut whole: Network<u32> = Network::new(topo.clone(), NetworkConfig::default());
            let mut out = Sink::new();
            whole.send(sent, Packet::new(src, dst, 1_000, 7), &mut out);
            let expect = out.schedule.pop().expect("delivered").0;

            let mut shards: Vec<Network<u32>> = (0..2)
                .map(|me| {
                    let mut net = Network::new(topo.clone(), NetworkConfig::default());
                    net.set_sharding(smap.clone(), me);
                    net
                })
                .collect();
            let mut out = Sink::new();
            shards[smap.shard_of(src) as usize].send(
                sent,
                Packet::new(src, dst, 1_000, 7),
                &mut out,
            );
            while let Some(h) = out.handoffs.pop() {
                let at = h.at_node;
                if at != dst && !topo.is_host(at) {
                    let next = router.hop_count(&topo, at, dst).unwrap();
                    mid_path_handoffs += (next > 1) as u32;
                }
                assert!(h.t > sent, "a handoff follows at least one link");
                let owner = h.dest_shard as usize;
                shards[owner].resume(sent, h, &mut out);
            }
            let (at, NetEvent::Arrive { node, .. }) = out.schedule.pop().expect("delivered");
            assert_eq!((at, node), (expect, dst), "{src:?} -> {dst:?}");
            assert!(out.dropped.is_empty() && out.schedule.is_empty());

            let mut summed = vec![(0, 0, 0); topo.num_phys_links()];
            for net in &shards {
                for (sum, c) in summed.iter_mut().zip(net.link_counters()) {
                    *sum = (sum.0 + c.0, sum.1 + c.1, sum.2 + c.2);
                }
            }
            assert_eq!(summed, whole.link_counters(), "{src:?} -> {dst:?}");
        }
    }
    assert!(
        mid_path_handoffs > 20,
        "only {mid_path_handoffs} walks resumed mid-core"
    );
}
