//! Property tests on the network substrate.

use macedon_net::fault::Faults;
use macedon_net::pipeline::{serialization_time, Reservations};
use macedon_net::topology::{inet, InetParams};
use macedon_net::{Network, NetworkConfig, NodeId, Packet, Router, Sink};
use macedon_sim::{Duration, Scheduler, SimRng, Time};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// The link-reservation search as it was before it was indexed: prune,
/// then walk *every* held slot from the front. Kept here as the
/// reference [`Reservations::reserve`] must agree with bit for bit.
fn reserve_linear(resv: &mut VecDeque<(Time, Time)>, now: Time, t: Time, ser: Duration) -> Time {
    while resv.len() > Reservations::PRUNE_KEEP {
        match resv.front() {
            Some(&(_, end)) if end <= now => resv.pop_front(),
            _ => break,
        };
    }
    let mut start = t;
    let mut at = resv.len();
    for (i, &(s, e)) in resv.iter().enumerate() {
        if start + ser <= s {
            at = i;
            break;
        }
        start = start.max(e);
    }
    resv.insert(at, (start, start + ser));
    start
}

proptest! {
    /// Serialization time scales monotonically with size and inversely
    /// with bandwidth.
    #[test]
    fn serialization_monotonic(wire in 1u32..100_000, bw in 1_000u64..10_000_000_000) {
        let t = serialization_time(wire, bw);
        prop_assert!(t.as_micros() >= 1);
        prop_assert!(serialization_time(wire + 1, bw) >= t);
        prop_assert!(serialization_time(wire, bw * 2) <= t);
    }

    /// On any generated INET topology, every host pair is mutually
    /// reachable with symmetric distances and triangle-bounded paths.
    #[test]
    fn inet_is_connected_and_symmetric(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let topo = inet(&InetParams { routers: 40, clients: 6, ..Default::default() }, &mut rng);
        let hosts = topo.hosts().to_vec();
        let mut r = Router::new();
        for i in 0..hosts.len() {
            for j in (i + 1)..hosts.len() {
                let d1 = r.dist(&topo, hosts[i], hosts[j]);
                let d2 = r.dist(&topo, hosts[j], hosts[i]);
                prop_assert!(d1.is_some(), "connected");
                prop_assert_eq!(d1, d2, "symmetric");
            }
        }
    }

    /// Next-hop routing follows shortest-path distances exactly: walking
    /// hop by hop accumulates the Dijkstra distance.
    #[test]
    fn hop_by_hop_matches_dijkstra(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let topo = inet(&InetParams { routers: 30, clients: 4, ..Default::default() }, &mut rng);
        let hosts = topo.hosts().to_vec();
        let mut r = Router::new();
        let (a, b) = (hosts[0], hosts[1]);
        let total = r.dist(&topo, a, b).unwrap();
        let path = r.path(&topo, a, b).unwrap();
        let sum: u64 = path.iter().map(|&l| topo.link(l).delay.as_micros()).sum();
        prop_assert_eq!(sum, total.as_micros());
    }

    /// Every injected packet is either delivered or dropped — none lost
    /// in the machinery — under arbitrary loss probability.
    #[test]
    fn conservation_of_packets(seed in any::<u64>(), p_loss in 0.0f64..1.0, n in 1usize..50) {
        let mut rng = SimRng::new(seed);
        let topo = inet(&InetParams { routers: 25, clients: 4, ..Default::default() }, &mut rng);
        let hosts = topo.hosts().to_vec();
        let mut net: Network<u32> = Network::new(topo, NetworkConfig { seed, ..Default::default() });
        net.faults_mut().set_drop_probability(p_loss);
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        for i in 0..n {
            net.send(
                Time::from_millis(i as u64),
                Packet::new(hosts[0], hosts[1], 100, i as u32),
                &mut out,
            );
        }
        loop {
            let mut progressed = false;
            for (t, ev) in out.schedule.drain(..) {
                sched.schedule(t, ev);
                progressed = true;
            }
            if let Some((now, ev)) = sched.pop() {
                net.handle(now, ev, &mut out);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        prop_assert_eq!(out.delivered.len() + out.dropped.len(), n);
    }

    /// The indexed reservation search returns the same start and leaves
    /// the same calendar as the linear scan it replaced, whatever the
    /// charge order: monotone traffic deep past `PRUNE_KEEP`, batches
    /// charged out of arrival order, zero-length slots, and drop-tail
    /// undo of the slot just placed.
    #[test]
    fn indexed_reserve_matches_linear_scan(
        seed in any::<u64>(),
        out_of_order in any::<bool>(),
        zero_ser in any::<bool>(),
        ops in 1usize..700,
    ) {
        let mut rng = SimRng::new(seed);
        let mut fast = Reservations::default();
        let mut slow: VecDeque<(Time, Time)> = VecDeque::new();
        let mut now = Time::ZERO;
        // Drop-tail stand-in: a wait above this is "queue full".
        let max_wait = Duration::from_micros(4_000);
        for _ in 0..ops {
            // `now` only moves forward, as in the engine; a batch keeps
            // it still while arrivals scatter ahead of it.
            if !out_of_order || rng.gen_range(8) == 0 {
                now += Duration::from_micros(rng.gen_range(3_000));
            }
            let t = if out_of_order {
                now + Duration::from_micros(rng.gen_range(20_000))
            } else {
                now
            };
            let ser = match rng.gen_range(4) {
                0 if zero_ser => Duration::ZERO,
                _ => Duration::from_micros(1 + rng.gen_range(1_500)),
            };
            let (start, at) = fast.reserve(now, t, ser);
            let expect = reserve_linear(&mut slow, now, t, ser);
            prop_assert_eq!(start, expect);
            // The pipeline never reserves zero time, and a zero-length
            // slot is the only kind that can repeat (the old undo removed
            // every copy), so undo is driven with real slots only.
            if ser > Duration::ZERO && start.saturating_since(t) > max_wait {
                fast.cancel(at);
                slow.retain(|&r| r != (start, start + ser));
            }
            prop_assert!(fast.iter().eq(slow.iter().copied()), "calendars diverged");
        }
        // The invariant the bisection rests on.
        let held: Vec<(Time, Time)> = fast.iter().collect();
        prop_assert!(held.iter().all(|&(s, e)| s <= e));
        prop_assert!(held.windows(2).all(|w| w[0].1 <= w[1].0), "sorted and disjoint");
    }

    /// The fault bitsets answer every query as a `HashSet` model does,
    /// under random fail / heal / partition sequences whose ids keep
    /// landing beyond whatever the sets have grown to.
    #[test]
    fn fault_bitsets_match_a_hashset_model(seed in any::<u64>(), ops in 1usize..300) {
        let mut rng = SimRng::new(seed);
        let mut faults = Faults::default();
        let mut nodes: HashSet<u32> = HashSet::new();
        let mut links: HashSet<u32> = HashSet::new();
        let mut side: Option<HashSet<u32>> = None;
        // Ids cluster low (word boundaries, re-hits) with a far tail.
        let id = |rng: &mut SimRng| match rng.gen_range(4) {
            0 => rng.gen_range(200_000) as u32,
            _ => rng.gen_range(130) as u32,
        };
        for _ in 0..ops {
            let x = id(&mut rng);
            match rng.gen_range(7) {
                0 | 1 => { faults.fail_node(NodeId(x)); nodes.insert(x); }
                2 => { faults.heal_node(NodeId(x)); nodes.remove(&x); }
                3 => { faults.fail_link(x); links.insert(x); }
                4 => { faults.heal_link(x); links.remove(&x); }
                5 => {
                    let set: HashSet<u32> = (0..rng.gen_range(40)).map(|_| id(&mut rng)).collect();
                    faults.set_partition(set.iter().map(|&n| NodeId(n)).collect());
                    side = Some(set);
                }
                _ => { faults.heal_partition(); side = None; }
            }
            prop_assert_eq!(faults.has_partition(), side.is_some());
            for _ in 0..8 {
                let (a, b) = (id(&mut rng), id(&mut rng));
                prop_assert_eq!(faults.node_is_down(NodeId(a)), nodes.contains(&a));
                prop_assert_eq!(faults.link_is_down(a), links.contains(&a));
                let cut = side.as_ref().is_some_and(|s| s.contains(&a) != s.contains(&b));
                prop_assert_eq!(faults.partitioned(NodeId(a), NodeId(b)), cut);
            }
        }
        let mut expect: Vec<u32> = nodes.into_iter().collect();
        expect.sort_unstable();
        let got: Vec<u32> = faults.failed_nodes().map(|n| n.0).collect();
        prop_assert_eq!(got, expect);
    }
}
