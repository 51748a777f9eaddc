//! Layer drills: each crate's public API driven in isolation, on the
//! workload's own topology and pending-set size, after the traced run.
//! They price the parts of `engine.busy_s` that spans from outside the
//! engine cannot split.

use crate::alloc;
use crate::child::put;
use crate::workloads::{Backend, Stacks};
use macedon_core::{
    Bytes, DownCall, MacedonKey, NodeId, NullApp, Stack, TraceLevel, WireReader, WireWriter,
    DEFAULT_PRIORITY,
};
use macedon_net::routing::Router;
use macedon_net::topology::{canned, LinkSpec};
use macedon_net::{Network, NetworkConfig, Packet, Sink, Topology};
use macedon_sim::{Duration, Scheduler, SimRng, Time};
use macedon_transport::harness::TransportWorld;
use macedon_transport::ChannelSpec;
use std::hint::black_box;
use std::time::Instant;

/// Repeat `batch` (which does `ops` operations) until `budget_s` is
/// spent; nanoseconds per operation of the fastest batch.
fn ns_per_op(budget_s: f64, ops: u64, mut batch: impl FnMut()) -> f64 {
    let begun = Instant::now();
    let mut best = f64::INFINITY;
    // At least two batches: the first one warms caches and pools.
    for done in 0.. {
        if done >= 2 && begun.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        let start = Instant::now();
        batch();
        best = best.min(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    best
}

/// Run every drill for `budget_s` seconds each.
pub fn run(topo: &Topology, peak_pending: usize, backend: Backend, budget_s: f64) {
    scheduler(budget_s, peak_pending);
    routing(budget_s, topo);
    transit(budget_s, topo);
    reliable(budget_s);
    dispatch(budget_s, backend);
    wire(budget_s);
}

/// Schedule + pop with `pending` entries outstanding: half packet-heap
/// entries, half timer-wheel entries, as in a run.
fn scheduler(budget_s: f64, pending: usize) {
    let mut rng = SimRng::new(1);
    let mut sched: Scheduler<u64> = Scheduler::new();
    let mut refill = |sched: &mut Scheduler<u64>, i: u64| {
        let delay = Duration::from_micros(1 + rng.gen_range(2_000_000));
        if i % 2 == 0 {
            sched.schedule_in(delay, i);
        } else {
            sched.schedule_timer_in(delay, i);
        }
    };
    for i in 0..pending.max(1) as u64 {
        refill(&mut sched, i);
    }
    const OPS: u64 = 100_000;
    let ns = ns_per_op(budget_s, OPS, || {
        for i in 0..OPS {
            black_box(sched.pop());
            refill(&mut sched, i);
        }
    });
    put("sim.sched_ns_per_op", ns);
}

/// `Router` over every client of the topology: cold (one Dijkstra tree
/// per distinct anchor router), warm (hop-by-hop walks between random
/// host pairs), and what the filled cache weighs.
fn routing(budget_s: f64, topo: &Topology) {
    let hosts = topo.hosts();
    let mut router = Router::new();
    alloc::start();
    let begun = Instant::now();
    for &dst in hosts {
        black_box(router.dist(topo, hosts[0], dst));
    }
    let cold_s = begun.elapsed().as_secs_f64();
    let cache = alloc::snapshot();
    alloc::stop();
    let anchors = router.cached_destinations().max(1);
    put("net.route_cold_us_per_src", cold_s * 1e6 / anchors as f64);
    put("net.route_cache_mb", cache.live as f64 / alloc::MIB);

    let mut rng = SimRng::new(2);
    let pairs: Vec<(NodeId, NodeId)> = (0..1_000)
        .map(|_| (*rng.choose(hosts), *rng.choose(hosts)))
        .collect();
    let mut hops = 0u64;
    let begun = Instant::now();
    while begun.elapsed().as_secs_f64() < budget_s {
        for &(src, dst) in &pairs {
            let mut at = src;
            while let Some(link) = router.next_hop(topo, at, dst) {
                at = topo.link(link).to;
                hops += 1;
            }
        }
    }
    put(
        "net.route_warm_ns_per_hop",
        begun.elapsed().as_nanos() as f64 / hops.max(1) as f64,
    );
}

/// `Network::send` + `handle` from random hosts to sixteen destinations
/// (so an INET graph's route trees are warm after the first batch): the
/// fused route walk with link reservation, one packet at a time, 1 ms
/// apart.
fn transit(budget_s: f64, topo: &Topology) {
    let mut net: Network<()> = Network::new(topo.clone(), NetworkConfig::default());
    let hosts = topo.hosts();
    let sinks = &hosts[..hosts.len().min(16)];
    let mut rng = SimRng::new(3);
    let mut sink = Sink::new();
    let mut now = Time::ZERO;
    const OPS: u64 = 10_000;
    let ns = ns_per_op(budget_s, OPS, || {
        for _ in 0..OPS {
            now += Duration::from_millis(1);
            let (src, dst) = (*rng.choose(hosts), *rng.choose(sinks));
            net.send(now, Packet::new(src, dst, 1_000, ()), &mut sink);
            while let Some((at, ev)) = sink.schedule.pop() {
                net.handle(at, ev, &mut sink);
            }
            sink.clear();
        }
    });
    put("net.transit_ns_per_pkt", ns);
}

/// 1 KiB messages over a reliable channel between two LAN hosts,
/// through `TransportWorld` (segments, acks, timers, the two-hop net).
fn reliable(budget_s: f64) {
    let mut world = TransportWorld::new(
        canned::two_hosts(LinkSpec::lan()),
        ChannelSpec::default_table(),
    );
    let hosts = world.net.topology().hosts().to_vec();
    let ch = world.endpoints[&hosts[0]]
        .channel_by_name("HIGH")
        .expect("default table has a TCP channel");
    let msg = Bytes::from(vec![7u8; 1024]);
    const OPS: u64 = 1_000;
    let ns = ns_per_op(budget_s, OPS, || {
        for _ in 0..OPS {
            world.send(hosts[0], hosts[1], ch, msg.clone());
        }
        let settle = world.now() + Duration::from_secs(30);
        world.run_until(settle);
        assert_eq!(world.inbox.len() as u64, OPS, "every message arrives");
        world.inbox.clear();
    });
    put("transport.reliable_ns_per_msg", ns);
}

/// One API downcall through a lone root node's three-layer stack of the
/// workload's back end (a multicast to a group it has joined: down
/// through splitstream, scribe and pastry and back up to the app).
fn dispatch(budget_s: f64, backend: Backend) {
    let mut stack = Stack::new(
        NodeId(7),
        MacedonKey(7),
        Stacks::new(backend).build(None),
        Box::new(NullApp),
        SimRng::new(42),
    );
    stack.set_trace_level(TraceLevel::Off);
    let mut fx = Vec::new();
    stack.init(Time::ZERO, &mut fx);
    let group = MacedonKey::of_name("drill");
    stack.api(Time::ZERO, DownCall::Join { group }, &mut fx);
    let payload = Bytes::from(vec![0u8; 64]);
    const OPS: u64 = 10_000;
    let before = stack.read_transitions + stack.write_transitions;
    let mut batches = 0u64;
    let ns = ns_per_op(budget_s, OPS, || {
        for _ in 0..OPS {
            stack.api(
                Time::ZERO,
                DownCall::Multicast {
                    group,
                    payload: payload.clone(),
                    priority: DEFAULT_PRIORITY,
                },
                &mut fx,
            );
            fx.clear();
        }
        batches += 1;
    });
    let transitions = stack.read_transitions + stack.write_transitions - before;
    // Per transition fired, so the two back ends compare like for like.
    put(
        "core.dispatch_ns_per_event",
        ns * (OPS * batches) as f64 / transitions.max(1) as f64,
    );
}

/// Encode and decode one roster-shaped frame (header, key, node, int,
/// 64-byte payload, four-node list).
fn wire(budget_s: f64) {
    const OPS: u64 = 100_000;
    let nodes = [NodeId(2), NodeId(3), NodeId(4), NodeId(5)];
    let ns = ns_per_op(budget_s, OPS, || {
        for i in 0..OPS {
            let mut w = WireWriter::new();
            w.u16(9)
                .u16(2)
                .key(MacedonKey(i as u32))
                .node(NodeId(9))
                .u64(i);
            w.bytes(&[0u8; 64]);
            w.nodes(&nodes);
            let mut r = WireReader::new(w.finish());
            let header = (r.u16().ok(), r.u16().ok(), r.key().ok(), r.node().ok());
            black_box((header, r.u64().ok(), r.bytes().ok(), r.nodes().ok()));
        }
    });
    put("core.wire_ns_per_roundtrip", ns);
}
