//! The packet pipeline: per-link FIFO queues with bandwidth serialization,
//! propagation delay and drop-tail loss — the core of the ModelNet
//! substitute.
//!
//! Each directed half-link is a single-server FIFO: a packet occupies
//! `queue_bytes` worth of buffer from the moment it is enqueued until its
//! serialization completes, transmits for `wire_size * 8 / bandwidth`
//! seconds, then propagates for `delay`. Congestion (queue growth, loss)
//! therefore emerges hop-by-hop exactly as in ModelNet's pipe model.
//!
//! The [`Network`] is deliberately scheduler-agnostic: methods take the
//! current time and emit `(Time, NetEvent)` pairs plus deliveries into a
//! [`Sink`]; the caller owns the event loop. This keeps the crate testable
//! stand-alone (see `run_until` in the tests) and lets `macedon-core`
//! embed network events inside its own world-event enum.

use crate::fault::Faults;
use crate::packet::{Packet, PacketArena, PacketRef};
use crate::routing::Router;
use crate::topology::{LinkId, NodeId, Topology};
use macedon_sim::{mix64, Duration, Time};
use std::collections::VecDeque;

/// Events the network schedules for itself.
///
/// The packet itself is parked in the network's [`PacketArena`]; events
/// carry a 4-byte [`PacketRef`] (and the enum needs no payload type
/// parameter, shrinking every embedding world-event enum).
///
/// A packet's entire route is walked analytically at send time
/// (`Network::transit`), so one `Arrive` at the destination is the
/// *only* event a packet ever schedules — no per-hop departure or
/// forwarding events.
#[derive(Clone, Copy, Debug)]
pub enum NetEvent {
    /// A packet reached `node` (normally its destination; a forwarding
    /// hop only in the loopback-free degenerate case of rerouting).
    Arrive {
        node: NodeId,
        pkt: PacketRef,
        sent_at: Time,
    },
}

/// A packet handed up to the layer above at its destination host.
#[derive(Debug)]
pub struct Delivery<P> {
    pub pkt: Packet<P>,
    /// When the original `send` happened (for latency accounting).
    pub sent_at: Time,
    /// When it arrived.
    pub at: Time,
}

/// Why a packet was dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    QueueFull,
    RandomLoss,
    LinkDown,
    NodeDown,
    NoRoute,
    /// Source and destination sit on opposite sides of an active
    /// network partition.
    Partitioned,
}

/// Output buffer filled by [`Network`] methods.
pub struct Sink<P> {
    /// Events to insert into the caller's scheduler.
    pub schedule: Vec<(Time, NetEvent)>,
    /// Packets delivered to destination hosts.
    pub delivered: Vec<Delivery<P>>,
    /// Packets dropped, with reasons (observability / tests).
    pub dropped: Vec<(DropReason, NodeId)>,
}

impl<P> Sink<P> {
    pub fn new() -> Sink<P> {
        Sink {
            schedule: Vec::new(),
            delivered: Vec::new(),
            dropped: Vec::new(),
        }
    }

    pub fn clear(&mut self) {
        self.schedule.clear();
        self.delivered.clear();
        self.dropped.clear();
    }
}

impl<P> Default for Sink<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// Tunables for the emulator.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// RNG seed for loss decisions.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig { seed: 0x6d61_6365 }
    }
}

/// Latency charged on a host-to-itself send (kernel loopback): 50 µs.
const LOOPBACK_DELAY: Duration = Duration(50);

/// One directed half-link's serialization calendar: the `(start, end)`
/// slots packets have reserved on it that have not ended yet.
///
/// Invariants, kept by [`Reservations::reserve`] and relied on by it:
/// slots are **sorted by start and disjoint** (`end[i] <= start[i + 1]`),
/// hence also sorted by end; after a `reserve(now, ..)` no held slot has
/// `end <= now`.
///
/// Links are charged in *send* order, so a packet can be charged after
/// one that reaches the link later; placing each packet in the earliest
/// idle gap at or after its arrival (instead of chaining behind a scalar
/// `busy_until`) keeps late-charged-but-early-arriving packets from
/// queueing behind traffic that is not actually there yet. For in-order
/// charges this degenerates to exact FIFO serialization chaining.
#[derive(Clone, Debug, Default)]
pub struct Reservations {
    slots: VecDeque<(Time, Time)>,
}

impl Reservations {
    /// Reserve `ser` of serialization time at or after `t`, in the
    /// earliest gap that fits. Returns the reserved start time and the
    /// slot's index (for [`Reservations::cancel`]). The wait `start - t`
    /// is the packet's queueing delay: everything serializing between its
    /// arrival and its own slot is ahead of it in the queue.
    ///
    /// **Contract:** `now` never decreases from one call to the next and
    /// `t >= now` ([`Network`] asserts the first in debug builds; the
    /// second is how a walk works — a packet reaches a link no earlier
    /// than it was sent). Under it a slot with `end <= now` can neither
    /// host a later reservation nor push its `start` past `t`, so every
    /// such slot is dropped first and the result is exactly what a
    /// calendar that never forgets would give.
    ///
    /// A link whose last slot ends at or before `t` is idle when the
    /// packet arrives: by the ordering invariant every other slot ends
    /// earlier still, so the slot goes at the back and starts at `t`.
    /// Otherwise the gap search starts at the first slot ending after
    /// `t`, found by bisection over what is live.
    pub fn reserve(&mut self, now: Time, t: Time, ser: Duration) -> (Time, usize) {
        while self.slots.front().is_some_and(|&(_, end)| end <= now) {
            self.slots.pop_front();
        }
        if self.slots.back().map_or(true, |&(_, end)| end <= t) {
            self.slots.push_back((t, t + ser));
            return (t, self.slots.len() - 1);
        }
        let mut start = t;
        let mut at = self.slots.partition_point(|&(_, e)| e <= t);
        while let Some(&(s, e)) = self.slots.get(at) {
            if start + ser <= s {
                break;
            }
            start = start.max(e);
            at += 1;
        }
        self.slots.insert(at, (start, start + ser));
        (start, at)
    }

    /// Undo the reservation `reserve` just placed at index `at` (the
    /// packet was dropped before it could serialize).
    pub fn cancel(&mut self, at: usize) {
        self.slots.remove(at);
    }

    /// The held slots, in order.
    pub fn iter(&self) -> impl Iterator<Item = (Time, Time)> + '_ {
        self.slots.iter().copied()
    }
}

#[derive(Default)]
struct LinkState {
    resv: Reservations,
    // Counters for link-stress metrics.
    pkts: u64,
    bytes: u64,
    drops: u64,
}

/// Per-half-link state, materialised on first use: a run touches a few
/// thousand of an INET graph's ~80,000 half-links, so the table is a
/// zero-initialised index (`0` = never used, else 1 + position in
/// `pool`) over a dense pool that grows with the links actually
/// carrying traffic.
struct LinkTable {
    slot: Vec<u32>,
    pool: Vec<LinkState>,
}

impl LinkTable {
    fn new(num_links: usize) -> LinkTable {
        LinkTable {
            slot: vec![0; num_links],
            pool: Vec::new(),
        }
    }

    fn state_mut(&mut self, l: LinkId) -> &mut LinkState {
        let slot = &mut self.slot[l.index()];
        if *slot == 0 {
            self.pool.push(LinkState::default());
            *slot = self.pool.len() as u32;
        }
        &mut self.pool[*slot as usize - 1]
    }

    /// Every half-link that has state, with it.
    fn used(&self) -> impl Iterator<Item = (LinkId, &LinkState)> {
        self.slot
            .iter()
            .enumerate()
            .filter(|(_, &slot)| slot != 0)
            .map(|(l, &slot)| (LinkId(l as u32), &self.pool[slot as usize - 1]))
    }
}

/// The emulated network.
pub struct Network<P> {
    topo: Topology,
    router: Router,
    links: LinkTable,
    faults: Faults,
    /// Seed for keyed per-hop loss decisions (order-free, unlike an RNG
    /// stream: a verdict depends on the packet, not on evaluation order).
    loss_seed: u64,
    /// Per-source send counter feeding the loss key. Only advanced while
    /// loss is enabled.
    send_seq: Vec<u64>,
    /// In-flight packet storage; events carry indices into this.
    arena: PacketArena<P>,
    /// Packets dropped anywhere, for any reason (link counters only see
    /// link-attributable drops; partitions and dead nodes land here too).
    dropped: u64,
    /// The latest `now` a route walk charged links at. Walks must come
    /// in non-decreasing `now` order — what makes dropping expired
    /// reservations exact — and `transit` asserts it in debug builds.
    clock: Time,
}

impl<P> Network<P> {
    pub fn new(topo: Topology, cfg: NetworkConfig) -> Network<P> {
        let links = LinkTable::new(topo.num_links());
        Network {
            topo,
            router: Router::new(),
            links,
            faults: Faults::default(),
            loss_seed: cfg.seed,
            send_seq: Vec::new(),
            arena: PacketArena::default(),
            dropped: 0,
            clock: Time::ZERO,
        }
    }

    /// The in-flight packet arena (capacity is the high-water mark of
    /// simultaneously in-flight packets).
    pub fn packet_arena(&self) -> &PacketArena<P> {
        &self.arena
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn faults_mut(&mut self) -> &mut Faults {
        &mut self.faults
    }

    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Mutate a physical link's bandwidth and/or delay at runtime (the
    /// scenario engine's degradation primitive). A new delay on a
    /// core-to-core link drops the routing tables, which are recomputed
    /// lazily — a big delay change can re-route, exactly as an IGP would
    /// eventually do. Bandwidth, and anything about an access link, is
    /// in no table.
    pub fn set_phys_link(
        &mut self,
        phys: u32,
        bandwidth_bps: Option<u64>,
        delay: Option<Duration>,
    ) {
        let Some(&link) = self.topo.phys_link(phys) else {
            return;
        };
        self.topo.set_phys_link(phys, bandwidth_bps, delay);
        if delay.is_some_and(|d| d != link.delay) && Router::routes_over(&self.topo, &link) {
            self.router.invalidate();
        }
    }

    /// Uncongested one-way IP latency between two nodes (the latency
    /// oracle used for stretch / RDP metrics).
    pub fn oracle_latency(&mut self, a: NodeId, b: NodeId) -> Option<Duration> {
        self.router.dist(&self.topo, a, b)
    }

    /// Heap bytes held by the routing tables ([`Router::table_bytes`]).
    pub fn route_table_bytes(&self) -> usize {
        self.router.table_bytes()
    }

    /// Per-physical-link (packets, bytes, drops) counters, for stress
    /// metrics. Indexed by physical link id; both directions accumulate
    /// into the same slot.
    pub fn link_counters(&self) -> Vec<(u64, u64, u64)> {
        let mut out = vec![(0u64, 0u64, 0u64); self.topo.num_phys_links()];
        for (l, st) in self.links.used() {
            let phys = self.topo.link(l).phys as usize;
            out[phys].0 += st.pkts;
            out[phys].1 += st.bytes;
            out[phys].2 += st.drops;
        }
        out
    }

    /// Total packets dropped anywhere in the network, for any reason
    /// (queue overflow, random loss, dead links/nodes, partitions).
    pub fn total_drops(&self) -> u64 {
        self.dropped
    }

    /// Inject a packet at its source host.
    pub fn send(&mut self, now: Time, pkt: Packet<P>, out: &mut Sink<P>) {
        debug_assert!(
            self.topo.is_host(pkt.src),
            "send from non-host {:?}",
            pkt.src
        );
        if self.faults.node_is_down(pkt.src) || self.faults.node_is_down(pkt.dst) {
            self.dropped += 1;
            out.dropped.push((DropReason::NodeDown, pkt.src));
            return;
        }
        if self.faults.partitioned(pkt.src, pkt.dst) {
            self.dropped += 1;
            out.dropped.push((DropReason::Partitioned, pkt.src));
            return;
        }
        let loss_p = self.faults.drop_probability();
        let loss_key = self.next_loss_key(now, &pkt, loss_p);
        let (src, dst) = (pkt.src, pkt.dst);
        if src == dst {
            // Loopback: deliver after a small constant delay (touches
            // no link state, so it never needs the deferred path).
            let pkt = self.arena.alloc(pkt);
            out.schedule.push((
                now + LOOPBACK_DELAY,
                NetEvent::Arrive {
                    node: dst,
                    pkt,
                    sent_at: now,
                },
            ));
            return;
        }
        let pkt = self.arena.alloc(pkt);
        self.transit(now, src, pkt, now, loss_key, out);
    }

    /// Per-packet loss key: a pure function of the loss seed, the send
    /// identity `(src, dst, time, per-source sequence)` — never of
    /// evaluation order. Zero (and no counter advance) while loss is
    /// off, so the lossless hot path pays nothing.
    fn next_loss_key(&mut self, now: Time, pkt: &Packet<P>, loss_p: f64) -> u64 {
        if loss_p <= 0.0 {
            return 0;
        }
        let idx = pkt.src.index();
        if self.send_seq.len() <= idx {
            self.send_seq.resize(idx + 1, 0);
        }
        let ctr = self.send_seq[idx];
        self.send_seq[idx] += 1;
        let mut k = mix64(self.loss_seed ^ pkt.src.0 as u64 ^ ((pkt.dst.0 as u64) << 32));
        k = mix64(k ^ now.as_micros());
        mix64(k ^ ctr)
    }

    /// Process one of our own events.
    pub fn handle(&mut self, now: Time, ev: NetEvent, out: &mut Sink<P>) {
        match ev {
            NetEvent::Arrive { node, pkt, sent_at } => {
                let (src, dst) = {
                    let p = self.arena.get(pkt);
                    (p.src, p.dst)
                };
                // Faults are re-checked at arrival so a partition or
                // crash that landed while the packet was in flight
                // still cuts it, exactly as per-hop checks used to.
                if self.faults.node_is_down(node) {
                    self.arena.release(pkt);
                    self.dropped += 1;
                    out.dropped.push((DropReason::NodeDown, node));
                    return;
                }
                if self.faults.partitioned(src, dst) {
                    self.arena.release(pkt);
                    self.dropped += 1;
                    out.dropped.push((DropReason::Partitioned, node));
                    return;
                }
                if node == dst {
                    out.delivered.push(Delivery {
                        pkt: self.arena.take(pkt),
                        sent_at,
                        at: now,
                    });
                } else {
                    // Degenerate rerouting case: the original loss key
                    // is gone, so derive a fresh one from the re-transit
                    // identity (identical on every engine).
                    let loss_p = self.faults.drop_probability();
                    let key = if loss_p > 0.0 {
                        let k = mix64(self.loss_seed ^ src.0 as u64 ^ ((dst.0 as u64) << 32));
                        mix64(k ^ now.as_micros() ^ 0x7265_7478)
                    } else {
                        0
                    };
                    self.transit(now, node, pkt, sent_at, key, out);
                }
            }
        }
    }

    /// Walk the packet's whole route at send time, charging each link's
    /// queue occupancy and serialization slot as the packet would reach
    /// it, and schedule a single arrival event at the destination. Per
    /// hop this costs a routing-table read and a couple of adds instead
    /// of a departure event plus an arrival event through the scheduler.
    ///
    /// `now` is the charging clock and must not decrease from one walk
    /// to the next on this `Network` (see [`Reservations::reserve`]);
    /// the engine's event loop guarantees it, and a caller that batches
    /// sends must batch them in time order.
    fn transit(
        &mut self,
        now: Time,
        at: NodeId,
        pkt: PacketRef,
        sent_at: Time,
        loss_key: u64,
        out: &mut Sink<P>,
    ) {
        debug_assert!(
            self.clock <= now,
            "charging clock ran backwards: walk at {now:?} after one at {:?}",
            self.clock
        );
        self.clock = now;
        let (dst, wire) = {
            let p = self.arena.get(pkt);
            (p.dst, p.wire_size())
        };
        let mut node = at;
        let mut t = now;
        let mut hop = 0u32;
        // Reachability, anchor and routing table are resolved once; each
        // hop below is then a slice read.
        let route = self.router.route(&self.topo, at, dst);
        loop {
            let Some(lid) = route.as_ref().and_then(|r| r.next(&self.topo, node)) else {
                self.arena.release(pkt);
                self.dropped += 1;
                out.dropped.push((DropReason::NoRoute, node));
                return;
            };
            let link = *self.topo.link(lid);
            if self.faults.link_is_down(link.phys) {
                self.arena.release(pkt);
                self.links.state_mut(lid).drops += 1;
                self.dropped += 1;
                out.dropped.push((DropReason::LinkDown, node));
                return;
            }
            if self.faults.drops_hop(loss_key ^ hop as u64) {
                self.arena.release(pkt);
                self.links.state_mut(lid).drops += 1;
                self.dropped += 1;
                out.dropped.push((DropReason::RandomLoss, node));
                return;
            }
            let st = self.links.state_mut(lid);
            let ser = serialization_time(wire, link.bandwidth_bps);
            let (start, slot) = st.resv.reserve(now, t, ser);
            // Drop-tail: the packet's wait before its own serialization
            // slot is exactly the traffic ahead of it in the queue,
            // converted back to bytes at line rate.
            if backlog_bytes(start, t, link.bandwidth_bps) + wire as u64 > link.queue_bytes as u64 {
                st.resv.cancel(slot);
                self.arena.release(pkt);
                st.drops += 1;
                self.dropped += 1;
                out.dropped.push((DropReason::QueueFull, node));
                return;
            }
            st.pkts += 1;
            st.bytes += wire as u64;
            t = start + ser + link.delay;
            node = link.to;
            hop += 1;
            if node == dst {
                break;
            }
        }
        out.schedule.push((
            t,
            NetEvent::Arrive {
                node: dst,
                pkt,
                sent_at,
            },
        ));
    }
}

/// Bytes queued ahead of a packet that arrives at `arrival` and starts
/// serializing at `start`: its wait converted back to bytes at line
/// rate.
fn backlog_bytes(start: Time, arrival: Time, bandwidth_bps: u64) -> u64 {
    let wait_us = start.saturating_since(arrival).as_micros();
    match wait_us.checked_mul(bandwidth_bps) {
        Some(bit_us) => bit_us / 8_000_000,
        None => (wait_us as u128 * bandwidth_bps as u128 / 8_000_000) as u64,
    }
}

/// Time to clock `wire` bytes onto a link of the given capacity.
pub fn serialization_time(wire: u32, bandwidth_bps: u64) -> Duration {
    debug_assert!(bandwidth_bps > 0);
    // 2^32 bytes × 8 × 10^6 < 2^55: the product always fits a u64.
    let bit_us = wire as u64 * 8 * 1_000_000;
    Duration::from_micros(bit_us.div_ceil(bandwidth_bps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{canned, LinkSpec};
    use macedon_sim::Scheduler;

    /// Drive a network's own events until quiescent or the deadline.
    fn run_until<P>(
        net: &mut Network<P>,
        sched: &mut Scheduler<NetEvent>,
        out: &mut Sink<P>,
        deadline: Time,
    ) {
        loop {
            let mut progressed = false;
            // First drain any freshly scheduled events into the scheduler.
            for (t, ev) in out.schedule.drain(..) {
                sched.schedule(t, ev);
                progressed = true;
            }
            if let Some((now, ev)) = sched.pop_before(deadline) {
                net.handle(now, ev, out);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn delivery_latency_propagation_plus_serialization() {
        // host -1ms- router -1ms- host at 100 Mbps.
        let t = canned::two_hosts(LinkSpec::lan());
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        net.send(Time::ZERO, Packet::new(a, b, 1000, 7), &mut out);
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(10));
        assert_eq!(out.delivered.len(), 1);
        let d = &out.delivered[0];
        assert_eq!(d.pkt.payload, 7);
        // 2 hops: each 1 ms prop + 83.2 µs serialization of 1040 B at 100 Mbps
        let ser = serialization_time(1040, 100_000_000);
        let expect = ms(2) + ser + ser;
        assert_eq!(d.at - d.sent_at, expect);
    }

    #[test]
    fn loopback_delivers_fast() {
        let t = canned::two_hosts(LinkSpec::lan());
        let a = t.hosts()[0];
        let mut net: Network<&str> = Network::new(t, NetworkConfig::default());
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        net.send(Time::ZERO, Packet::new(a, a, 100, "self"), &mut out);
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(1));
        assert_eq!(out.delivered.len(), 1);
        assert!(out.delivered[0].at < Time::from_millis(1));
    }

    #[test]
    fn fifo_per_link() {
        let t = canned::two_hosts(LinkSpec::lan());
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        for i in 0..20 {
            net.send(Time::ZERO, Packet::new(a, b, 1000, i), &mut out);
        }
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(10));
        let got: Vec<u32> = out.delivered.iter().map(|d| d.pkt.payload).collect();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn serialization_queues_back_to_back_packets() {
        // On a slow 1 Mbps access link, 10 packets of 1000 B take ~8.3 ms each.
        let t = canned::two_hosts(LinkSpec::access(1_000_000));
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        for i in 0..10 {
            net.send(Time::ZERO, Packet::new(a, b, 1000, i), &mut out);
        }
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(10));
        assert_eq!(out.delivered.len(), 10);
        let ser = serialization_time(1040, 1_000_000);
        // Last packet waits behind 9 others on the first link.
        let last = out.delivered.last().unwrap();
        assert!(last.at.as_micros() >= 10 * ser.as_micros());
    }

    #[test]
    fn queue_overflow_drops() {
        // Queue of 32 KiB holds ~31 packets of 1040 B.
        let t = canned::two_hosts(LinkSpec::access(1_000_000));
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        for i in 0..100 {
            net.send(Time::ZERO, Packet::new(a, b, 1000, i), &mut out);
        }
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(60));
        assert!(out.delivered.len() < 100, "some packets must drop");
        assert!(!out.dropped.is_empty());
        assert!(out.dropped.iter().all(|(r, _)| *r == DropReason::QueueFull));
        assert_eq!(out.delivered.len() + out.dropped.len(), 100);
        assert_eq!(net.total_drops() as usize, out.dropped.len());
    }

    #[test]
    fn random_loss_drops_roughly_p() {
        let t = canned::two_hosts(LinkSpec::lan());
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        net.faults_mut().set_drop_probability(0.2);
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        // Spread sends out so queues don't overflow: drain the pipeline up
        // to each send instant before injecting the next packet.
        for i in 0..1000 {
            let at = Time::from_millis(i as u64);
            run_until(&mut net, &mut sched, &mut out, at);
            net.send(at.max(sched.now()), Packet::new(a, b, 100, i), &mut out);
        }
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(100));
        let lost = 1000 - out.delivered.len();
        // Two hops, each with 20% loss → ~36% total loss. Allow slack.
        assert!((250..=450).contains(&lost), "lost={lost}");
    }

    #[test]
    fn link_down_blocks_traffic() {
        let t = canned::two_hosts(LinkSpec::lan());
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let phys0 = t.link(t.outgoing(a)[0]).phys;
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        net.faults_mut().fail_link(phys0);
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        net.send(Time::ZERO, Packet::new(a, b, 100, 1), &mut out);
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(1));
        assert!(out.delivered.is_empty());
        assert_eq!(out.dropped[0].0, DropReason::LinkDown);
        // Heal and retry.
        net.faults_mut().heal_link(phys0);
        net.send(Time::from_secs(1), Packet::new(a, b, 100, 2), &mut out);
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(2));
        assert_eq!(out.delivered.len(), 1);
    }

    #[test]
    fn node_down_blocks_traffic() {
        let t = canned::star(3, LinkSpec::lan());
        let hs = t.hosts().to_vec();
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        net.faults_mut().fail_node(hs[1]);
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        net.send(Time::ZERO, Packet::new(hs[0], hs[1], 100, 1), &mut out);
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(1));
        assert!(out.delivered.is_empty());
        // Unrelated pair still works.
        net.send(Time::ZERO, Packet::new(hs[0], hs[2], 100, 2), &mut out);
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(1));
        assert_eq!(out.delivered.len(), 1);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let t = canned::star(3, LinkSpec::lan());
        let hs = t.hosts().to_vec();
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        net.faults_mut()
            .set_partition([hs[0]].into_iter().collect());
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        net.send(Time::ZERO, Packet::new(hs[0], hs[1], 100, 1), &mut out);
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(1));
        assert!(out.delivered.is_empty());
        assert_eq!(out.dropped[0].0, DropReason::Partitioned);
        // Same-side traffic flows.
        net.send(Time::ZERO, Packet::new(hs[1], hs[2], 100, 2), &mut out);
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(1));
        assert_eq!(out.delivered.len(), 1);
        // Heal and retry across the old cut.
        net.faults_mut().heal_partition();
        net.send(
            Time::from_secs(1),
            Packet::new(hs[0], hs[1], 100, 3),
            &mut out,
        );
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(2));
        assert_eq!(out.delivered.len(), 2);
    }

    #[test]
    fn partition_cuts_packets_in_flight() {
        // A packet already past its first hop is dropped at the next
        // hop once the cut lands.
        let t = canned::two_hosts(LinkSpec::wan(ms(50)));
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        net.send(Time::ZERO, Packet::new(a, b, 100, 1), &mut out);
        // Drain events up to 60 ms (packet is at the router), then cut.
        for (t, ev) in out.schedule.drain(..) {
            sched.schedule(t, ev);
        }
        while let Some((now, ev)) = sched.pop_before(Time::from_millis(60)) {
            net.handle(now, ev, &mut out);
            for (t, ev) in out.schedule.drain(..) {
                sched.schedule(t, ev);
            }
        }
        net.faults_mut().set_partition([a].into_iter().collect());
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(1));
        assert!(out.delivered.is_empty());
        assert!(out
            .dropped
            .iter()
            .any(|(r, _)| *r == DropReason::Partitioned));
    }

    #[test]
    fn runtime_link_mutation_changes_timing() {
        let t = canned::two_hosts(LinkSpec::lan());
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let phys = t.link(t.outgoing(a)[0]).phys;
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        net.send(Time::ZERO, Packet::new(a, b, 1000, 1), &mut out);
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(1));
        let fast = out.delivered[0].at;
        // Degrade the access link to 10 kbps and 20 ms delay.
        net.set_phys_link(phys, Some(10_000), Some(ms(20)));
        assert_eq!(net.topology().phys_link_props(phys), Some((ms(20), 10_000)));
        net.send(Time::from_secs(1), Packet::new(a, b, 1000, 2), &mut out);
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(10));
        let slow_lat = out.delivered[1]
            .at
            .saturating_since(out.delivered[1].sent_at);
        let fast_lat = fast.saturating_since(Time::ZERO);
        // 1040 B at 10 kbps = 832 ms serialization on the first hop alone.
        assert!(slow_lat.as_micros() > 10 * fast_lat.as_micros());
        assert!(slow_lat >= Duration::from_millis(800));
    }

    /// Two routers joined by a 10 ms cable and by a 2 × 3 ms detour, a
    /// host on each.
    fn detour() -> Topology {
        let mut b = crate::topology::TopologyBuilder::new();
        let (a, z) = (b.add_host(), b.add_host());
        let (ra, rz, via) = (b.add_router(), b.add_router(), b.add_router());
        b.add_link(a, ra, LinkSpec::lan());
        b.add_link(z, rz, LinkSpec::lan());
        b.add_link(ra, rz, LinkSpec::wan(ms(10))); // phys 2
        b.add_link(ra, via, LinkSpec::wan(ms(3)));
        b.add_link(via, rz, LinkSpec::wan(ms(3)));
        b.build()
    }

    #[test]
    fn core_delay_change_reroutes() {
        let t = detour();
        let (a, z) = (t.hosts()[0], t.hosts()[1]);
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        assert_eq!(net.oracle_latency(a, z), Some(ms(8)));
        assert_eq!(net.router.hop_count(&net.topo, a, z), Some(4));
        // The first miss built both host anchors' tables, `ra`'s and
        // `rz`'s; a walk to `via`, which no host hangs off, adds its own.
        assert_eq!(net.router.cached_destinations(), 2);
        let via = NodeId(4);
        assert_eq!(net.router.dist(&net.topo, a, via), Some(ms(4)));
        assert_eq!(net.router.cached_destinations(), 3);
        // The direct cable gets faster than the detour: tables drop and
        // the next walk takes it.
        net.set_phys_link(2, None, Some(ms(1)));
        assert_eq!(net.router.cached_destinations(), 0);
        assert_eq!(net.oracle_latency(a, z), Some(ms(3)));
        assert_eq!(net.router.hop_count(&net.topo, a, z), Some(3));
        assert_eq!(net.router.cached_destinations(), 2);
        assert_eq!(net.router.dist(&net.topo, a, via), Some(ms(4)));
        assert_eq!(net.router.cached_destinations(), 3);
        let mut out = Sink::new();
        net.send(Time::ZERO, Packet::new(a, z, 100, 1), &mut out);
        let counters = net.link_counters();
        assert_eq!(counters[2].0, 1, "the packet crossed the direct cable");
        assert_eq!(counters[3].0 + counters[4].0, 0);
    }

    #[test]
    fn only_a_core_delay_change_drops_the_tables() {
        let t = detour();
        let (a, z) = (t.hosts()[0], t.hosts()[1]);
        let access = t.phys_links_of(a)[0];
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        net.oracle_latency(a, z);
        net.oracle_latency(z, a);
        assert_eq!(net.router.cached_destinations(), 2);
        // What the scenario grammar's `degrade` does: an access link's
        // bandwidth and delay. It is in no table.
        net.set_phys_link(access, Some(64_000), Some(ms(50)));
        assert_eq!(net.router.cached_destinations(), 2);
        assert_eq!(net.oracle_latency(a, z), Some(ms(57)), "the oracle sees it");
        // A core link's bandwidth, or its delay set to what it is.
        net.set_phys_link(2, Some(1_000_000), None);
        net.set_phys_link(2, None, Some(ms(10)));
        assert_eq!(net.router.cached_destinations(), 2);
        // An unknown cable is ignored.
        net.set_phys_link(99, Some(1), Some(ms(1)));
        assert_eq!(net.router.cached_destinations(), 2);
    }

    #[test]
    fn link_counters_accumulate() {
        let t = canned::two_hosts(LinkSpec::lan());
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        for i in 0..5 {
            net.send(Time::ZERO, Packet::new(a, b, 1000, i), &mut out);
        }
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(10));
        let counters = net.link_counters();
        // Both physical links saw 5 packets each (one direction used).
        assert_eq!(counters.len(), 2);
        assert!(counters.iter().all(|&(p, by, _)| p == 5 && by == 5 * 1040));
    }

    #[test]
    fn arena_slots_are_reused_not_leaked() {
        // Sequential traffic keeps the arena at its in-flight high-water
        // mark: delivered and dropped packets must both free their slot.
        let t = canned::two_hosts(LinkSpec::lan());
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        net.faults_mut().set_drop_probability(0.2);
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        for i in 0..200 {
            let at = Time::from_millis(i as u64);
            run_until(&mut net, &mut sched, &mut out, at);
            net.send(at.max(sched.now()), Packet::new(a, b, 100, i), &mut out);
        }
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(100));
        assert_eq!(net.packet_arena().live(), 0, "every packet left the arena");
        assert!(
            net.packet_arena().capacity() <= 8,
            "capacity {} tracks in-flight high-water, not volume",
            net.packet_arena().capacity()
        );
    }

    #[test]
    fn serialization_time_math() {
        // 1250 bytes at 10 Mbps = 1 ms.
        assert_eq!(serialization_time(1250, 10_000_000), ms(1));
        // Rounds up.
        assert_eq!(serialization_time(1, 8_000_000), Duration::from_micros(1));
    }

    /// Dropping expired reservations is exact only while the charging
    /// clock is monotone; a caller that breaks that is stopped in debug
    /// builds instead of getting quietly different queueing.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "charging clock ran backwards")]
    fn a_send_before_the_previous_one_is_refused() {
        let t = canned::two_hosts(LinkSpec::lan());
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        let mut out = Sink::new();
        net.send(Time::from_millis(20), Packet::new(a, b, 1000, 0), &mut out);
        net.send(Time::from_millis(19), Packet::new(a, b, 1000, 1), &mut out);
    }

    #[test]
    fn congestion_on_dumbbell_bottleneck() {
        // Many flows share a 1 Mbps bottleneck: aggregate goodput must be
        // capped by it.
        let t = canned::dumbbell(
            4,
            LinkSpec::lan(),
            LinkSpec::new(ms(5), 1_000_000, 16 * 1024),
        );
        let hosts = t.hosts().to_vec();
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        // Left hosts 0..4, right hosts 4..8. Each left host sends 50 pkts
        // of 1000 B over one virtual second, all four at each instant in
        // turn: the charging clock never runs backwards.
        let mut sent = 0;
        for k in 0..50u64 {
            for i in 0..4usize {
                net.send(
                    Time::from_millis(k * 20),
                    Packet::new(hosts[i], hosts[4 + i], 1000, sent),
                    &mut out,
                );
                sent += 1;
            }
        }
        run_until(&mut net, &mut sched, &mut out, Time::from_secs(30));
        let last = out.delivered.iter().map(|d| d.at).max().unwrap();
        let bytes: u64 = out.delivered.iter().map(|d| d.pkt.wire_size() as u64).sum();
        let rate_bps = bytes as f64 * 8.0 / last.as_secs_f64();
        assert!(
            rate_bps <= 1_100_000.0,
            "rate {rate_bps} exceeds bottleneck"
        );
    }
}
