//! Property tests on the network substrate.

use macedon_net::fault::Faults;
use macedon_net::pipeline::{serialization_time, Reservations};
use macedon_net::topology::{canned, inet, InetParams, LinkSpec};
use macedon_net::{
    LinkId, Network, NetworkConfig, NodeId, Packet, Router, Sink, Topology, TopologyBuilder,
};
use macedon_sim::{Duration, Scheduler, SimRng, Time};
use proptest::prelude::*;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// The link calendar that never forgets: no slot is ever dropped, and
/// every held slot is walked from the front. Kept here as the reference
/// [`Reservations::reserve`] must agree with bit for bit — it proves
/// that dropping expired slots changes no answer.
fn reserve_linear(resv: &mut Vec<(Time, Time)>, t: Time, ser: Duration) -> Time {
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

/// The routing tables as they were before they were compacted: one
/// dense Dijkstra tree over *every* node per anchor, distances stored.
/// Kept here as the reference [`Router`] must agree with — next hops,
/// equal-cost ties included, and distances.
struct DenseTree {
    next_hop: Vec<Option<LinkId>>,
    dist_us: Vec<u64>,
}

/// `order` maps a node id to its rank among equal distances (the node
/// with the larger rank settles first) and back; the reference is the
/// identity, i.e. descending node id.
fn dijkstra_to(topo: &Topology, dst: NodeId, order: fn(u32) -> u32) -> DenseTree {
    let n = topo.num_nodes();
    let mut dist_us = vec![u64::MAX; n];
    let mut next_hop: Vec<Option<LinkId>> = vec![None; n];
    let mut heap: BinaryHeap<(std::cmp::Reverse<u64>, u32)> = BinaryHeap::new();
    dist_us[dst.index()] = 0;
    heap.push((std::cmp::Reverse(0), order(dst.0)));

    while let Some((std::cmp::Reverse(d), u)) = heap.pop() {
        let u = NodeId(order(u));
        if d > dist_us[u.index()] {
            continue;
        }
        for &lid in topo.outgoing(u) {
            let link = topo.link(lid);
            let v = link.to;
            let nd = d + link.delay.as_micros();
            if nd < dist_us[v.index()] {
                dist_us[v.index()] = nd;
                // The next hop from v toward dst is the reverse of `lid`:
                // the half-link from v to u — O(1) by layout invariant.
                next_hop[v.index()] = Some(topo.reverse(lid));
                heap.push((std::cmp::Reverse(nd), order(v.0)));
            }
        }
    }

    DenseTree { next_hop, dist_us }
}

/// The old `Router`'s lookups over [`DenseTree`]s (reachability came
/// from a component labelling; an infinite distance says the same).
struct DenseRouter<'t> {
    topo: &'t Topology,
    order: fn(u32) -> u32,
    trees: HashMap<NodeId, DenseTree>,
}

impl<'t> DenseRouter<'t> {
    fn new(topo: &'t Topology, order: fn(u32) -> u32) -> DenseRouter<'t> {
        DenseRouter {
            topo,
            order,
            trees: HashMap::new(),
        }
    }

    fn anchor(&self, dst: NodeId) -> Option<(NodeId, Option<LinkId>, u64)> {
        match *self.topo.outgoing(dst) {
            [up] => {
                let l = self.topo.link(up);
                Some((l.to, Some(self.topo.reverse(up)), l.delay.as_micros()))
            }
            [] => None,
            _ => Some((dst, None, 0)),
        }
    }

    fn tree(&mut self, dst: NodeId) -> &DenseTree {
        let (topo, order) = (self.topo, self.order);
        self.trees
            .entry(dst)
            .or_insert_with(|| dijkstra_to(topo, dst, order))
    }

    fn next_hop(&mut self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        if at == dst || self.dist(at, dst).is_none() {
            return None;
        }
        if self.topo.is_host(at) {
            if let [only] = *self.topo.outgoing(at) {
                return Some(only);
            }
        }
        let (anchor, last_hop, _) = self.anchor(dst)?;
        if at == anchor {
            return last_hop;
        }
        self.tree(anchor).next_hop[at.index()]
    }

    /// Does the walk from `at` to `dst` have a core part — from where
    /// `at` enters the core to `dst`'s anchor — that the router's 32-bit
    /// queue keys cannot hold (2^32 − 1 µs or longer)? The router then
    /// has no table entry for it, though a leaf `at` still takes its
    /// sole link.
    fn past_key_width(&mut self, at: NodeId, dst: NodeId) -> bool {
        let Some((anchor, _, _)) = self.anchor(dst) else {
            return false;
        };
        let enters = match *self.topo.outgoing(at) {
            [only] if at != anchor => self.topo.link(only).to,
            _ => at,
        };
        let d = self.tree(anchor).dist_us[enters.index()];
        d >= u32::MAX as u64 && d != u64::MAX
    }

    fn dist(&mut self, src: NodeId, dst: NodeId) -> Option<Duration> {
        if src == dst {
            return Some(Duration::ZERO);
        }
        let (anchor, _, tail_us) = self.anchor(dst)?;
        if src == anchor {
            return Some(Duration::from_micros(tail_us));
        }
        let d = self.tree(anchor).dist_us[src.index()];
        if d == u64::MAX {
            None
        } else {
            Some(Duration::from_micros(d + tail_us))
        }
    }
}

/// HEAD's settle order among equal distances: descending node id.
fn descending(id: u32) -> u32 {
    id
}

/// A deliberately wrong one: ascending node id.
fn ascending(id: u32) -> u32 {
    !id
}

/// The first `(at, dst)` — over *every* ordered pair of nodes: core
/// nodes toward every anchor, hosts, leaves, isolated nodes — where a
/// fresh [`Router`] and the dense reference settling ties by `order`
/// disagree on the next hop or the distance. A pair
/// [past the key width](DenseRouter::past_key_width) must read as
/// unreachable, bar a leaf's sole link.
fn first_disagreement(topo: &Topology, order: fn(u32) -> u32) -> Option<String> {
    let mut router = Router::new();
    let mut dense = DenseRouter::new(topo, order);
    let nodes = || (0..topo.num_nodes() as u32).map(NodeId);
    for dst in nodes() {
        for at in nodes() {
            let past = dense.past_key_width(at, dst);
            let want_hop = match *topo.outgoing(at) {
                [only] if past => Some(only),
                _ if past => None,
                _ => dense.next_hop(at, dst),
            };
            let hop = router.next_hop(topo, at, dst);
            if hop != want_hop {
                return Some(format!(
                    "next_hop({at:?}, {dst:?}) = {hop:?}, reference {want_hop:?}"
                ));
            }
            let want_d = if past { None } else { dense.dist(at, dst) };
            let d = router.dist(topo, at, dst);
            if d != want_d {
                return Some(format!(
                    "dist({at:?}, {dst:?}) = {d:?}, reference {want_d:?}"
                ));
            }
        }
    }
    None
}

/// A random multigraph built to hit every special case of the core
/// index at once: hosts and routers of any degree (isolated, degree-1
/// routers, hosts that are interior hops), parallel cables, several
/// components, and delays drawn from {0, 1, 2} ms so that zero-delay
/// links and equal-cost paths are everywhere.
fn tangle(rng: &mut SimRng) -> Topology {
    let mut b = TopologyBuilder::new();
    let n = 2 + rng.gen_range(14) as usize;
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| match rng.gen_range(3) {
            0 => b.add_host(),
            _ => b.add_router(),
        })
        .collect();
    for _ in 0..rng.gen_range(2 * n as u64 + 1) {
        let (x, y) = (*rng.choose(&nodes), *rng.choose(&nodes));
        if x != y {
            let spec = LinkSpec::wan(Duration::from_millis(rng.gen_range(3)));
            b.add_link(x, y, spec);
        }
    }
    b.build()
}

#[test]
fn compact_tables_match_the_dense_reference_on_canned_shapes() {
    let lan = LinkSpec::lan();
    // Equal delays throughout: every choice below is a tie.
    for (name, topo) in [
        (
            "full mesh (hosts are core nodes)",
            canned::full_mesh(5, lan),
        ),
        ("grid", canned::grid(4, 3, lan)),
        ("ring", canned::ring(6, lan)),
        ("star", canned::star(4, lan)),
        ("line", canned::line(3, lan)),
        ("empty", TopologyBuilder::new().build()),
    ] {
        assert_eq!(first_disagreement(&topo, descending), None, "{name}");
    }
    // Two components, one of them two leaves on one cable; parallel
    // cables; a degree-1 router; a zero-delay cable.
    let mut b = TopologyBuilder::new();
    let (h0, h1, h2, h3) = (b.add_host(), b.add_host(), b.add_host(), b.add_host());
    let (r0, r1, r2, stub) = (
        b.add_router(),
        b.add_router(),
        b.add_router(),
        b.add_router(),
    );
    b.add_link(h0, r0, lan);
    b.add_link(r0, r1, lan);
    b.add_link(r1, r0, lan);
    b.add_link(r1, r2, LinkSpec::wan(Duration::ZERO));
    b.add_link(r2, r0, lan);
    b.add_link(r2, h1, lan);
    b.add_link(stub, r1, lan);
    b.add_link(h2, h3, lan);
    assert_eq!(first_disagreement(&b.build(), descending), None);
}

/// The property has teeth: settle equal distances in ascending instead
/// of descending node-id order and it fails.
#[test]
fn a_wrong_tie_break_is_caught() {
    let grid = canned::grid(4, 3, LinkSpec::lan());
    assert_eq!(first_disagreement(&grid, descending), None);
    assert!(first_disagreement(&grid, ascending).is_some());
    let topo = inet(&InetParams::test_scale(10), &mut SimRng::new(2004));
    assert_eq!(first_disagreement(&topo, descending), None);
    assert!(first_disagreement(&topo, ascending).is_some());
}

/// Queue keys hold 32 bits of microseconds. A longer path is neither
/// wrapped into a short one nor allowed to corrupt the order: it is
/// unreachable, and everything nearer is exact.
#[test]
fn path_sums_past_the_key_width_are_unreachable_not_wrapped() {
    let half_hour = LinkSpec::wan(Duration::from_secs(30 * 60)); // 1.8e9 µs
    let topo = canned::line(4, half_hour); // a - r0 - r1 - r2 - r3 - z
    let (a, z) = (topo.hosts()[0], topo.hosts()[1]);
    let r = |i: u32| NodeId(i);
    let mut router = Router::new();
    let mut dense = DenseRouter::new(&topo, descending);
    // Two core links fit (3.6e9 < 2^32), three do not (5.4e9).
    for (at, dst) in [(r(0), r(2)), (r(1), r(3)), (a, r(1)), (a, r(2)), (r(1), z)] {
        assert_eq!(router.dist(&topo, at, dst), dense.dist(at, dst));
        assert_eq!(router.next_hop(&topo, at, dst), dense.next_hop(at, dst));
    }
    for (at, dst) in [(r(0), r(3)), (r(3), r(0)), (a, z), (r(0), z)] {
        assert!(dense.dist(at, dst).unwrap() > Duration::from_micros(u32::MAX as u64));
        assert_eq!(router.dist(&topo, at, dst), None, "{at:?} -> {dst:?}");
        assert_eq!(router.path(&topo, at, dst), None);
    }
    // One link wider than the key on a triangle: routed around, exactly.
    let mut b = TopologyBuilder::new();
    let (x, y, w) = (b.add_router(), b.add_router(), b.add_router());
    b.add_link(x, y, LinkSpec::wan(Duration::from_secs(2 * 60 * 60)));
    b.add_link(y, w, LinkSpec::lan());
    b.add_link(w, x, LinkSpec::lan());
    assert_eq!(first_disagreement(&b.build(), descending), None);
}

/// A router whose `spokes` outgoing positions each lead to a router of
/// their own with a host behind it: toward spoke `i`'s router, the
/// hub's next hop is position `i`.
fn wheel(spokes: usize) -> TopologyBuilder {
    let mut b = TopologyBuilder::new();
    let hub = b.add_router();
    for _ in 0..spokes {
        let (r, h) = (b.add_router(), b.add_host());
        b.add_link(hub, r, LinkSpec::lan());
        b.add_link(r, h, LinkSpec::lan());
    }
    b
}

/// The edges of the 4-bit encoding: positions 0–14 are nibbles, 15
/// escapes, and a router with more than 15 positions (a hub) keeps a
/// `u16` side entry.
#[test]
fn route_entries_at_the_encoding_edges_match_the_dense_reference() {
    let hub = NodeId(0);
    // 15 positions: position 14 is the last plain nibble, no hub.
    // 16: the first hub, its position 15 the first side entry. 40: a
    // hub choosing positions up to 39, and below 15 as well.
    for spokes in [15, 16, 40] {
        let topo = wheel(spokes).build();
        assert_eq!(topo.degree(hub), spokes);
        assert_eq!(first_disagreement(&topo, descending), None, "{spokes}");
        let last = NodeId(2 * spokes as u32 - 1);
        let hop = Router::new().next_hop(&topo, hub, last).unwrap();
        assert_eq!(
            topo.outgoing(hub).iter().position(|&l| l == hop),
            Some(spokes - 1)
        );
    }
    // Past the hub's position 15, a 40-minute cable to `far` and another
    // to `farther`: 80 minutes overflows the 32-bit key, 40 do not. So
    // the non-hub `farther` has no next hop toward the hub (an escape
    // nibble), nor has the hub toward it (a side entry of none).
    let mut b = wheel(16);
    let forty = LinkSpec::wan(Duration::from_secs(40 * 60));
    let (far, farther) = (b.add_router(), b.add_router());
    let spoke_15 = NodeId(31);
    b.add_link(spoke_15, far, forty);
    b.add_link(far, farther, forty);
    let host = b.add_host();
    b.add_link(farther, host, LinkSpec::lan());
    let topo = b.build();
    assert_eq!(topo.degree(farther), 2, "not a hub");
    let mut router = Router::new();
    assert_eq!(router.next_hop(&topo, farther, hub), None);
    assert_eq!(router.next_hop(&topo, hub, farther), None);
    assert!(router.next_hop(&topo, far, hub).is_some());
    assert!(router.next_hop(&topo, hub, far).is_some());
    assert_eq!(first_disagreement(&topo, descending), None);
}

/// The benchmark's own graph, every table a 300-client run builds:
/// all ~6 M `(core node, anchor)` next hops against the dense reference.
/// Seconds in release, minutes unoptimised — CI runs it with
/// `cargo test --release -p macedon-net -- --ignored`.
#[test]
#[ignore = "full scale: run in release"]
fn full_scale_inet_tables_are_identical_to_the_dense_reference() {
    let params = InetParams {
        routers: 20_000,
        clients: 300,
        ..Default::default()
    };
    let topo = inet(&params, &mut SimRng::new(2004));
    let mut router = Router::new();
    let mut checked = 0u64;
    let mut anchors = HashSet::new();
    for &host in topo.hosts() {
        let anchor = topo.link(topo.outgoing(host)[0]).to;
        if !anchors.insert(anchor) {
            continue;
        }
        let dense = dijkstra_to(&topo, anchor, descending);
        for at in (0..topo.num_nodes() as u32).map(NodeId) {
            if at != anchor && topo.degree(at) >= 2 {
                assert_eq!(
                    router.next_hop(&topo, at, anchor),
                    dense.next_hop[at.index()],
                    "{at:?} -> {anchor:?}"
                );
                checked += 1;
            }
        }
        let d = router.dist(&topo, topo.hosts()[0], anchor).unwrap();
        assert_eq!(d.as_micros(), dense.dist_us[topo.hosts()[0].index()]);
    }
    assert_eq!(router.cached_destinations(), anchors.len());
    assert!(checked > 5_900_000, "{checked} pairs");
    // 4-bit entries with `u16` side entries for the hubs: 10,930 B a
    // table here, where `u16` entries took 40,000 B (13.2 MiB in all).
    let bytes = router.table_bytes();
    assert!(
        bytes <= 5_767_168,
        "{bytes} B of tables and scratch, over 5.5 MiB"
    );
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

    /// The compact core-only tables agree with the dense all-nodes
    /// Dijkstra they replaced on every next hop and every distance, over
    /// INET graphs whose whole-millisecond delays make equal-cost paths
    /// the norm.
    #[test]
    fn compact_tables_match_the_dense_reference_on_inet(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let topo = inet(&InetParams { routers: 40, clients: 6, ..Default::default() }, &mut rng);
        prop_assert_eq!(first_disagreement(&topo, descending), None);
    }

    /// …and over random multigraphs: parallel cables, several
    /// components, isolated nodes, degree-1 routers, hosts that are
    /// interior hops, zero-delay links.
    #[test]
    fn compact_tables_match_the_dense_reference_on_tangles(seed in any::<u64>()) {
        let topo = tangle(&mut SimRng::new(seed));
        prop_assert_eq!(first_disagreement(&topo, descending), None);
    }

    /// Every injected packet is either delivered or dropped — none lost
    /// in the machinery — under arbitrary loss probability.
    #[test]
    fn conservation_of_packets(seed in any::<u64>(), p_loss in 0.0f64..1.0, n in 1usize..50) {
        let mut rng = SimRng::new(seed);
        let topo = inet(&InetParams { routers: 25, clients: 4, ..Default::default() }, &mut rng);
        let hosts = topo.hosts().to_vec();
        let mut net: Network<u32> = Network::new(topo, NetworkConfig { seed });
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

    /// The live-only calendar returns the same start as one that never
    /// drops a slot, and holds exactly that one's unexpired suffix, under
    /// the engine's charge pattern: `now` only moves forward while
    /// arrivals scatter up to 20 ms ahead of it (links are charged in
    /// send order), with zero-length slots and drop-tail undo of the slot
    /// just placed.
    #[test]
    fn indexed_reserve_matches_linear_scan(
        seed in any::<u64>(),
        scatter in any::<bool>(),
        zero_ser in any::<bool>(),
        ops in 1usize..700,
    ) {
        let mut rng = SimRng::new(seed);
        let mut fast = Reservations::default();
        let mut slow: Vec<(Time, Time)> = Vec::new();
        let mut now = Time::ZERO;
        // Drop-tail stand-in: a wait above this is "queue full".
        let max_wait = Duration::from_micros(4_000);
        for _ in 0..ops {
            // A batch keeps `now` still while arrivals scatter ahead.
            if !scatter || rng.gen_range(8) == 0 {
                now += Duration::from_micros(rng.gen_range(3_000));
            }
            let t = if scatter {
                now + Duration::from_micros(rng.gen_range(20_000))
            } else {
                now
            };
            let ser = match rng.gen_range(4) {
                0 if zero_ser => Duration::ZERO,
                _ => Duration::from_micros(1 + rng.gen_range(1_500)),
            };
            let (start, at) = fast.reserve(now, t, ser);
            let expect = reserve_linear(&mut slow, t, ser);
            prop_assert_eq!(start, expect);
            // The pipeline never reserves zero time, and a zero-length
            // slot is the only kind that can repeat, so undo is driven
            // with real slots only.
            if ser > Duration::ZERO && start.saturating_since(t) > max_wait {
                fast.cancel(at);
                slow.retain(|&r| r != (start, start + ser));
            }
            // Held: every reference slot still running — and nothing
            // else, bar a zero-length slot just placed at `now` itself.
            let live = slow.iter().copied().filter(|&(_, e)| e > now);
            prop_assert!(fast.iter().filter(|&(_, e)| e > now).eq(live), "calendars diverged");
            prop_assert!(fast.iter().all(|r| r.1 > now || r == (now, now)), "expired slot kept");
        }
        // The invariant the bisection and the idle path rest on.
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
