//! The world: a deterministic event loop that couples the network
//! emulator, the transport subsystem and every node's protocol stack —
//! the equivalent of the paper's "MACEDON code engine" plus the ModelNet
//! harness around it.
//!
//! Responsibilities:
//!
//! * owning the [`Scheduler`]s and virtual clock,
//! * delivering transport messages into stacks and stack effects back out,
//! * the **timer subsystem** (named per-layer timers with cancellation and
//!   periodic re-arming),
//! * the **failure detector** (§3.1): a peer is presumed failed after `f`
//!   seconds of silence; after `g < f` seconds a heartbeat
//!   request/response is solicited first,
//! * node lifecycle: staggered spawns, crashes,
//! * world-level tracing and metric oracles.
//!
//! # Sharded execution
//!
//! With `WorldConfig::shards > 1` the world is partitioned into
//! `Shard`s — each owns a contiguous chunk of the hosts (see
//! [`ShardMap`]) together with its own scheduler, packet arena and
//! link-state replica. Shards advance independently inside a
//! *conservative time window* `[T, W]` where
//! `W = T + min_link_delay − 1µs`: the first link out of any source is
//! charged by the sender's shard (the [`ShardMap::owner_of_link`]
//! invariant), so every cross-shard packet departure carries a
//! timestamp strictly greater than `W` and can be merged at the window
//! barrier without ever rewinding a peer's clock. Departures accumulate
//! in per-shard outboxes and are injected at the next window start in
//! `(sent_at, source shard, sequence)` order — a total order independent
//! of thread scheduling, which is what makes
//! `run_parallel(n)` ≡ `run_parallel(m)` bit-for-bit for any worker
//! counts `n, m`.
//!
//! Scripted faults (crash/spawn) mutate *every* shard's fault replica,
//! so they are registered in a control-time registry and windows are
//! clipped to never span a control instant: all replicas apply the
//! mutation at exactly the scripted virtual time, just as the
//! sequential engine does when the control event pops.

use crate::agent::{Agent, AppHandler};
use crate::api::{DownCall, ProtocolId, ENGINE_PROTOCOL};
use crate::key::{Addressing, MacedonKey};
use crate::measure::MeasureSummary;
use crate::stack::{Stack, StackEffect};
use crate::trace::{SpanId, TraceEvent, TraceLevel, TraceRecord, TraceSink};
use crate::wire::{WireRef, WireWriter};
use bytes::Bytes;
use macedon_net::fault::Faults;
use macedon_net::{Handoff, NetEvent, Network, NetworkConfig, NodeId, ShardMap, Sink, Topology};
use macedon_sim::{table_bytes, Duration, EventId, FxHashMap, Scheduler, SimRng, Time};
use macedon_transport::{
    ChannelId, ChannelSpec, Endpoint, Segment, TimerKey, TimerKind, TransportKind, TransportSink,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Map key for the one live scheduler entry a connection timer class may
/// have (RTO or delayed-ack, per (owner, peer, channel)).
type ConnTimerSlot = (NodeId, NodeId, ChannelId, TimerKind);

/// Failure-detector sweep period.
const FD_TICK: Duration = Duration::from_secs(1);

/// Engine heartbeat message types.
const HB_REQ: u16 = 1;
const HB_RESP: u16 = 2;

/// World-level configuration.
#[derive(Clone)]
pub struct WorldConfig {
    pub seed: u64,
    pub addressing: Addressing,
    /// Named transport instances available to stacks. The world's table
    /// ([`World::channels`]) appends an engine-internal UDP heartbeat
    /// channel.
    pub channels: Vec<ChannelSpec>,
    pub trace_level: TraceLevel,
    /// Silence threshold before soliciting a heartbeat (`g`).
    pub fd_g: Duration,
    /// Silence threshold before declaring failure (`f`).
    pub fd_f: Duration,
    /// Number of shards the world is partitioned into (clamped to the
    /// host count). `1` is the classic sequential engine; `> 1` enables
    /// windowed execution, which [`World::run_until`] drives with any
    /// number of worker threads ([`World::set_workers`]) without
    /// changing the result.
    pub shards: usize,
    /// Collect wall-clock self-profiling counters per shard worker
    /// (see [`ShardProfile`]). Wall time is nondeterministic, so the
    /// counters never feed back into simulation state — they exist to
    /// explain where engine wall clock goes (e.g. the 100k-node
    /// events/sec dip) via the Perfetto export's worker lanes.
    pub profile: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 42,
            addressing: Addressing::Hash,
            channels: ChannelSpec::default_table(),
            trace_level: TraceLevel::Off,
            fd_g: Duration::from_secs(5),
            fd_f: Duration::from_secs(15),
            shards: 1,
            profile: false,
        }
    }
}

/// Wall-clock self-profiling counters for one shard's worker loop,
/// populated by windowed execution (`shards > 1`) when
/// [`WorldConfig::profile`] is set. All nanosecond fields are host wall
/// time: nondeterministic, observation-only, never part of results.
#[derive(Clone, Debug, Default)]
pub struct ShardProfile {
    /// Windows this shard participated in.
    pub windows: u64,
    /// Wall nanos merging cross-shard arrivals (phase A).
    pub inject_ns: u64,
    /// Wall nanos this shard's chunk spent blocked on window barriers.
    pub barrier_ns: u64,
    /// Wall nanos draining window events (packet walks + dispatch).
    pub drain_ns: u64,
    /// Wall nanos routing departures to destination mailboxes.
    pub route_ns: u64,
    /// Per-window `(window_start_us, drain_ns)` samples (capped at
    /// [`PROFILE_SAMPLE_CAP`]) — the Perfetto wall-clock worker lanes.
    pub samples: Vec<(u64, u64)>,
}

/// Bound on per-window profile samples kept per shard.
pub const PROFILE_SAMPLE_CAP: usize = 4096;

/// Events of the combined world loop.
pub enum WorldEvent {
    Net(NetEvent),
    /// A transport connection timer (RTO or delayed ack) expired.
    ConnTimer(TimerKey),
    AgentTimer {
        node: NodeId,
        layer: u16,
        timer: u16,
        gen: u32,
    },
    FdTick {
        node: NodeId,
    },
    Spawn {
        node: NodeId,
    },
    Api {
        node: NodeId,
        call: DownCall,
    },
    Crash {
        node: NodeId,
    },
}

/// Cumulative fired-event counts by [`WorldEvent`] class — where the
/// scheduler's work actually goes, for benchmark breakdowns
/// (`bench_scale` reports these next to events/sec).
#[derive(Clone, Copy, Debug, Default)]
pub struct EventClassCounts {
    /// Packet motion through the emulated network.
    pub net: u64,
    /// Transport connection timers that actually expired (RTO fires,
    /// delayed-ack flushes) — cancelled rearms never fire.
    pub conn_timer: u64,
    /// Protocol timers declared by agents.
    pub agent_timer: u64,
    /// Failure-detector sweep ticks.
    pub fd_tick: u64,
    /// Scripted spawns/API calls/crashes.
    pub control: u64,
}

impl EventClassCounts {
    fn add(&mut self, o: &EventClassCounts) {
        self.net += o.net;
        self.conn_timer += o.conn_timer;
        self.agent_timer += o.agent_timer;
        self.fd_tick += o.fd_tick;
        self.control += o.control;
    }
}

struct TimerSlot {
    gen: u32,
    period: Option<Duration>,
    /// The pending scheduler entry; cancelled outright on supersede or
    /// cancel so stale firings never reach the queue (the generation
    /// check stays as defense in depth).
    event: EventId,
}

#[derive(Clone, Copy)]
struct MonitorState {
    last_heard: Time,
    hb_pending: bool,
}

/// Everything the engine tracks for one spawned node, boxed and stored
/// densely by node index. One pointer chase reaches the stack, the
/// transport endpoint and every timer/monitor table — at 100k nodes
/// this replaces six global hash maps whose per-event probe misses
/// dominated the sequential profile.
struct NodeState {
    stack: Stack,
    endpoint: Endpoint,
    alive: bool,
    timers: FxHashMap<(u16, u16), TimerSlot>,
    /// Live scheduler entry per connection timer class. A re-arm
    /// cancels the superseded entry: its payload is freed at once, and
    /// its key stays in the queue until it reaches the head.
    conn_timers: FxHashMap<ConnTimerSlot, EventId>,
    /// peer → (monitoring layers, state)
    monitors: FxHashMap<NodeId, (Vec<usize>, MonitorState)>,
}

impl NodeState {
    /// The boxed record itself (stack and endpoint inline) and the
    /// engine's per-node maps.
    fn engine_bytes(&self) -> usize {
        let layers: usize = self.monitors.values().map(|(l, _)| l.capacity()).sum();
        std::mem::size_of::<NodeState>()
            + table_bytes(&self.timers)
            + table_bytes(&self.conn_timers)
            + table_bytes(&self.monitors)
            + layers * std::mem::size_of::<usize>()
    }
}

/// Heap bytes the engine holds, by owner, over every spawned node (see
/// [`World::heap_census`]). Counted by capacity: what each owner holds,
/// not what it last used.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapCensus {
    /// Reliable connections.
    pub conns: usize,
    /// Reliable connections holding buffers (something unacknowledged,
    /// out of order or half reassembled).
    pub busy_conns: usize,
    /// Reliable connections: tables, boxed connections, the buffers
    /// busy ones hold, output buffers.
    pub reliable_conns: usize,
    /// Connection buffers idle connections gave back, waiting in this
    /// thread's free list.
    pub conn_free_list: usize,
    /// Datagram reassembly (zero unless a multi-fragment datagram is
    /// partial).
    pub datagram_reassembly: usize,
    /// Each node's boxed engine record (stack and endpoint inline) and
    /// its maps: agent timers, connection timers, failure-detector
    /// monitors.
    pub engine_maps: usize,
    /// Per-peer measurement ledgers.
    pub measure_ledgers: usize,
    /// Routing: component labels, core adjacency and next-hop tables.
    pub route_tables: usize,
}

impl HeapCensus {
    /// Every owner's bytes together.
    pub fn total(&self) -> usize {
        self.reliable_conns
            + self.conn_free_list
            + self.datagram_reassembly
            + self.engine_maps
            + self.measure_ledgers
            + self.route_tables
    }
}

/// A scripted fault mutation every shard's replica must apply at the
/// same virtual instant.
#[derive(Clone, Copy)]
enum ControlOp {
    Fail(NodeId),
    Heal(NodeId),
}

/// A cross-shard packet departure queued for the barrier merge,
/// stamped with the total order `(sent_at, source shard, sequence)`
/// that makes the merge independent of thread scheduling.
struct OutHandoff {
    dest: u16,
    sent_at_us: u64,
    src_shard: u16,
    seq: u64,
    h: Handoff<Segment>,
}

/// One slice of the world: a scheduler, a network replica and the
/// nodes this shard owns. With `shards = 1` this *is* the classic
/// sequential engine.
struct Shard {
    id: u16,
    cfg: Arc<WorldConfig>,
    engine_ch: ChannelId,
    sched: Scheduler<WorldEvent>,
    net: Network<Segment>,
    /// Dense by node index; `Some` exactly for spawned nodes this shard
    /// owns.
    nodes: Vec<Option<Box<NodeState>>>,
    trace: TraceSink,
    /// Instant of the last failure-detector registration change
    /// (monitor/unmonitor effects, crash cleanup) on this shard.
    last_membership_change: Time,
    event_counts: EventClassCounts,
    /// Cross-shard departures accumulated during the current window.
    outbox: Vec<OutHandoff>,
    handoff_seq: u64,
    /// Reusable network-sink buffers (the absorb chain nests, so more
    /// than one can be live at once; each level takes its own).
    nsink_pool: Vec<Sink<Segment>>,
    /// Reusable transport-sink buffers.
    tsink_pool: Vec<TransportSink>,
    /// Reusable stack-effect buffers.
    fx_pool: Vec<Vec<StackEffect>>,
    /// Reusable `fd_sweep` buffers (every node sweeps every tick): the
    /// monitored peers in id order, and the ones to probe.
    fd_peers: Vec<NodeId>,
    fd_probe: Vec<NodeId>,
    /// Self-profiling counters (only touched when `cfg.profile`).
    profile: ShardProfile,
}

impl Shard {
    #[inline]
    fn ns(&self, n: NodeId) -> Option<&NodeState> {
        match self.nodes.get(n.index()) {
            Some(Some(b)) => Some(b),
            _ => None,
        }
    }

    #[inline]
    fn ns_mut(&mut self, n: NodeId) -> Option<&mut NodeState> {
        match self.nodes.get_mut(n.index()) {
            Some(Some(b)) => Some(&mut **b),
            _ => None,
        }
    }

    fn handle(&mut self, now: Time, ev: WorldEvent) {
        match &ev {
            WorldEvent::Net(_) => self.event_counts.net += 1,
            WorldEvent::ConnTimer(_) => self.event_counts.conn_timer += 1,
            WorldEvent::AgentTimer { .. } => self.event_counts.agent_timer += 1,
            WorldEvent::FdTick { .. } => self.event_counts.fd_tick += 1,
            _ => self.event_counts.control += 1,
        }
        match ev {
            WorldEvent::Net(nev) => {
                let mut sink = self.take_nsink();
                self.net.handle(now, nev, &mut sink);
                self.absorb_net(now, sink);
            }
            WorldEvent::ConnTimer(key) => {
                // The entry just fired; drop it from the live-timer map
                // whether or not the node is still alive.
                let alive = match self.nodes.get_mut(key.node.index()) {
                    Some(Some(ns)) => {
                        ns.conn_timers.remove(&key.slot());
                        ns.alive
                    }
                    _ => return,
                };
                if !alive {
                    return;
                }
                let mut tsink = self.take_tsink();
                if let Some(ns) = self.ns_mut(key.node) {
                    ns.endpoint.on_timer(now, key, &mut tsink);
                }
                self.absorb_transport(now, key.node, tsink);
            }
            WorldEvent::AgentTimer {
                node,
                layer,
                timer,
                gen,
            } => {
                {
                    let sched = &mut self.sched;
                    let Some(Some(ns)) = self.nodes.get_mut(node.index()) else {
                        return;
                    };
                    if !ns.alive {
                        return;
                    }
                    let Some(slot) = ns.timers.get_mut(&(layer, timer)) else {
                        return;
                    };
                    if slot.gen != gen {
                        return; // superseded or cancelled
                    }
                    if let Some(period) = slot.period {
                        slot.event = sched.schedule(
                            now + period,
                            WorldEvent::AgentTimer {
                                node,
                                layer,
                                timer,
                                gen,
                            },
                        );
                    }
                }
                let mut fx = self.take_fx();
                if let Some(ns) = self.ns_mut(node) {
                    ns.stack.timer(now, layer as usize, timer, &mut fx);
                }
                self.process_effects(now, node, fx);
            }
            WorldEvent::FdTick { node } => self.fd_sweep(now, node),
            WorldEvent::Spawn { node } => {
                // A respawn after a crash: the host is reachable again.
                self.net.faults_mut().heal_node(node);
                let mut fx = self.take_fx();
                if let Some(ns) = self.ns_mut(node) {
                    ns.alive = true;
                    ns.stack.init(now, &mut fx);
                }
                self.process_effects(now, node, fx);
                self.sched
                    .schedule(now + FD_TICK, WorldEvent::FdTick { node });
            }
            WorldEvent::Api { node, call } => {
                let mut fx = self.take_fx();
                match self.ns_mut(node) {
                    Some(ns) if ns.alive => ns.stack.api(now, call, &mut fx),
                    _ => {
                        self.put_fx(fx);
                        return;
                    }
                }
                self.process_effects(now, node, fx);
            }
            WorldEvent::Crash { node } => {
                self.net.faults_mut().fail_node(node);
                if let Some(ns) = self.ns_mut(node) {
                    ns.alive = false;
                    ns.monitors.clear();
                }
                // A dead node's pending timers would all pop as no-ops;
                // cancel them so churn doesn't leave event backlog.
                self.cancel_node_timers(node);
                self.last_membership_change = now;
            }
        }
    }

    fn apply_control(&mut self, op: ControlOp) {
        match op {
            ControlOp::Fail(n) => self.net.faults_mut().fail_node(n),
            ControlOp::Heal(n) => self.net.faults_mut().heal_node(n),
        }
    }

    /// Merge a batch of cross-shard arrivals at a window start, in the
    /// deterministic total order.
    fn inject(&mut self, mut batch: Vec<OutHandoff>) {
        if batch.is_empty() {
            return;
        }
        batch.sort_unstable_by_key(|o| (o.sent_at_us, o.src_shard, o.seq));
        let now = self.sched.now();
        for o in batch {
            let mut sink = self.take_nsink();
            self.net.resume(now, o.h, &mut sink);
            self.absorb_net(now, sink);
        }
    }

    // ---- plumbing ---------------------------------------------------------

    /// Cancel every pending connection and agent timer owned by `node`
    /// (crash/despawn cleanup). Connection-timer map entries are
    /// removed; agent-timer slots stay (despawn drops them, a respawn
    /// after a crash supersedes them by generation).
    fn cancel_node_timers(&mut self, node: NodeId) {
        let sched = &mut self.sched;
        if let Some(Some(ns)) = self.nodes.get_mut(node.index()) {
            ns.conn_timers.retain(|_, &mut ev| {
                sched.cancel(ev);
                false
            });
            for slot in ns.timers.values_mut() {
                sched.cancel(slot.event);
                slot.period = None;
            }
        }
    }

    fn take_nsink(&mut self) -> Sink<Segment> {
        self.nsink_pool.pop().unwrap_or_default()
    }

    fn put_nsink(&mut self, mut sink: Sink<Segment>) {
        sink.clear();
        self.nsink_pool.push(sink);
    }

    fn take_tsink(&mut self) -> TransportSink {
        self.tsink_pool.pop().unwrap_or_default()
    }

    fn put_tsink(&mut self, mut sink: TransportSink) {
        sink.packets.clear();
        sink.timers.clear();
        sink.cancel_timers.clear();
        sink.delivered.clear();
        sink.ack_samples.clear();
        self.tsink_pool.push(sink);
    }

    fn take_fx(&mut self) -> Vec<StackEffect> {
        self.fx_pool.pop().unwrap_or_default()
    }

    fn put_fx(&mut self, mut fx: Vec<StackEffect>) {
        fx.clear();
        self.fx_pool.push(fx);
    }

    fn absorb_net(&mut self, now: Time, mut sink: Sink<Segment>) {
        for (t, ev) in sink.schedule.drain(..) {
            self.sched.schedule(t, WorldEvent::Net(ev));
        }
        // Packet drops become trace events at the drop site. The span is
        // unknown here (the packet is gone), so records carry no context.
        for (reason, at_node) in sink.dropped.drain(..) {
            self.trace.record(
                now,
                at_node,
                0,
                TraceLevel::Low,
                SpanId::NONE,
                TraceEvent::Drop { reason },
            );
        }
        for h in sink.handoffs.drain(..) {
            self.handoff_seq += 1;
            self.outbox.push(OutHandoff {
                dest: h.dest_shard,
                sent_at_us: h.sent_at.as_micros(),
                src_shard: self.id,
                seq: self.handoff_seq,
                h,
            });
        }
        for d in sink.delivered.drain(..) {
            let to = d.pkt.dst;
            let from = d.pkt.src;
            let mut tsink = self.take_tsink();
            let delivered = match self.ns_mut(to) {
                Some(ns) if ns.alive => {
                    ns.endpoint.on_packet(d.at, from, d.pkt.payload, &mut tsink);
                    true
                }
                _ => false,
            };
            if delivered {
                self.absorb_transport(d.at, to, tsink);
            } else {
                self.put_tsink(tsink);
            }
        }
        self.put_nsink(sink);
    }

    fn absorb_transport(&mut self, now: Time, node: NodeId, mut tsink: TransportSink) {
        // Acknowledgement observations feed the node's measurement
        // ledger (spec-readable `rtt(peer)`); purely passive — no
        // events, no RNG draws.
        if !tsink.ack_samples.is_empty() {
            if let Some(ns) = self.ns_mut(node) {
                let m = ns.stack.measures_mut();
                for (peer, rtt) in tsink.ack_samples.drain(..) {
                    m.on_ack(now, peer, rtt);
                }
            }
        }
        let mut nsink = self.take_nsink();
        for pkt in tsink.packets.drain(..) {
            self.net.send(now, pkt, &mut nsink);
        }
        {
            let sched = &mut self.sched;
            if let Some(Some(ns)) = self.nodes.get_mut(node.index()) {
                for key in tsink.cancel_timers.drain(..) {
                    if let Some(ev) = ns.conn_timers.remove(&key.slot()) {
                        sched.cancel(ev);
                    }
                }
                for (at, key) in tsink.timers.drain(..) {
                    let slot = key.slot();
                    let ev = sched.schedule(at, WorldEvent::ConnTimer(key));
                    if let Some(old) = ns.conn_timers.insert(slot, ev) {
                        // Re-arm: the superseded entry dies here instead
                        // of tombstoning the queue.
                        sched.cancel(old);
                    }
                }
            }
        }
        // Net absorption precedes message delivery (event-order contract
        // of the original non-pooled implementation).
        self.absorb_net(now, nsink);
        for (from, ch, msg, span) in tsink.delivered.drain(..) {
            self.deliver_msg(now, node, from, ch, msg, SpanId(span));
        }
        self.put_tsink(tsink);
    }

    /// A complete message reached `to`'s stack (or the engine).
    fn deliver_msg(
        &mut self,
        now: Time,
        to: NodeId,
        from: NodeId,
        _ch: ChannelId,
        msg: Bytes,
        span: SpanId,
    ) {
        // Any traffic from a peer counts as liveness evidence.
        if let Some(ns) = self.ns_mut(to) {
            if let Some((_, st)) = ns.monitors.get_mut(&from) {
                st.last_heard = now;
                st.hb_pending = false;
            }
        }
        // Engine-internal messages (header peeked in place, no clone).
        let mut r = WireRef::new(&msg);
        if let Ok(proto) = r.u16() {
            if proto == ENGINE_PROTOCOL {
                if let Ok(kind) = r.u16() {
                    if kind == HB_REQ {
                        self.send_engine(now, to, from, HB_RESP);
                    }
                }
                return;
            }
        }
        let mut fx = self.take_fx();
        match self.ns_mut(to) {
            Some(ns) if ns.alive => {
                // Every delivered protocol byte counts toward the
                // sender's inbound-goodput estimate (spec-readable
                // `goodput(peer)`).
                ns.stack.measures_mut().on_bytes_in(now, from, msg.len());
                ns.stack.recv(now, from, msg, span, &mut fx);
            }
            _ => {
                self.put_fx(fx);
                return;
            }
        }
        self.process_effects(now, to, fx);
    }

    fn process_effects(&mut self, now: Time, node: NodeId, mut fx: Vec<StackEffect>) {
        for effect in fx.drain(..) {
            match effect {
                StackEffect::Send {
                    dst,
                    channel,
                    bytes,
                    span,
                } => {
                    let mut tsink = self.take_tsink();
                    if let Some(ns) = self.ns_mut(node) {
                        ns.endpoint
                            .send(now, dst, channel, bytes, span.0, &mut tsink);
                    }
                    self.absorb_transport(now, node, tsink);
                }
                StackEffect::TimerSet {
                    layer,
                    timer,
                    delay,
                    periodic,
                } => {
                    let sched = &mut self.sched;
                    if let Some(Some(ns)) = self.nodes.get_mut(node.index()) {
                        let slot = ns.timers.entry((layer as u16, timer)).or_insert(TimerSlot {
                            gen: 0,
                            period: None,
                            event: EventId::NONE,
                        });
                        // Supersede: the old pending firing dies now.
                        sched.cancel(slot.event);
                        slot.gen += 1;
                        slot.period = periodic.then_some(delay);
                        let gen = slot.gen;
                        slot.event = sched.schedule(
                            now + delay,
                            WorldEvent::AgentTimer {
                                node,
                                layer: layer as u16,
                                timer,
                                gen,
                            },
                        );
                    }
                }
                StackEffect::TimerCancel { layer, timer } => {
                    let sched = &mut self.sched;
                    if let Some(Some(ns)) = self.nodes.get_mut(node.index()) {
                        if let Some(slot) = ns.timers.get_mut(&(layer as u16, timer)) {
                            sched.cancel(slot.event);
                            slot.gen += 1;
                            slot.period = None;
                        }
                    }
                }
                StackEffect::Monitor { layer, peer } => {
                    self.last_membership_change = now;
                    if let Some(ns) = self.ns_mut(node) {
                        let entry = ns.monitors.entry(peer).or_insert((
                            Vec::new(),
                            MonitorState {
                                last_heard: now,
                                hb_pending: false,
                            },
                        ));
                        if !entry.0.contains(&layer) {
                            entry.0.push(layer);
                        }
                    }
                }
                StackEffect::Unmonitor { layer, peer } => {
                    self.last_membership_change = now;
                    if let Some(ns) = self.ns_mut(node) {
                        if let Some(entry) = ns.monitors.get_mut(&peer) {
                            entry.0.retain(|&l| l != layer);
                            if entry.0.is_empty() {
                                ns.monitors.remove(&peer);
                            }
                        }
                    }
                }
                StackEffect::Trace {
                    layer,
                    level,
                    span,
                    event,
                } => {
                    self.trace.record(now, node, layer, level, span, event);
                }
            }
        }
        self.put_fx(fx);
    }

    fn send_engine(&mut self, now: Time, from_node: NodeId, to: NodeId, kind: u16) {
        let mut w = WireWriter::new();
        w.u16(ENGINE_PROTOCOL).u16(kind);
        let mut tsink = self.take_tsink();
        let ch = self.engine_ch;
        if let Some(ns) = self.ns_mut(from_node) {
            // Engine heartbeats are infrastructure, not causal protocol
            // traffic: they ride span zero.
            ns.endpoint.send(now, to, ch, w.finish(), 0, &mut tsink);
        }
        self.absorb_transport(now, from_node, tsink);
    }

    fn fd_sweep(&mut self, now: Time, node: NodeId) {
        let (g, f) = (self.cfg.fd_g, self.cfg.fd_f);
        if !self.ns(node).is_some_and(|ns| ns.alive) {
            return;
        }
        let mut failed: Vec<(NodeId, Vec<usize>)> = Vec::new();
        let mut peers = std::mem::take(&mut self.fd_peers);
        let mut probe = std::mem::take(&mut self.fd_probe);
        let mon = &mut self.ns_mut(node).expect("alive above").monitors;
        // Walk peers in id order, not map order: probe and failure
        // events must not depend on hasher state, or seeded runs stop
        // being reproducible across builds.
        peers.extend(mon.keys().copied());
        peers.sort_unstable_by_key(|p| p.0);
        for peer in peers.drain(..) {
            let st = &mut mon.get_mut(&peer).expect("collected above").1;
            let silent = now.saturating_since(st.last_heard);
            if silent >= f {
                let (layers, _) = mon.remove(&peer).expect("collected above");
                failed.push((peer, layers));
            } else if silent >= g && !st.hb_pending {
                st.hb_pending = true;
                probe.push(peer);
            }
        }
        self.fd_peers = peers;
        for peer in probe.drain(..) {
            self.send_engine(now, node, peer, HB_REQ);
        }
        self.fd_probe = probe;
        for (peer, layers) in failed {
            // The peer's measurements describe a dead incarnation.
            if let Some(ns) = self.ns_mut(node) {
                ns.stack.measures_mut().forget(peer);
            }
            self.last_membership_change = now;
            for layer in layers {
                let mut fx = self.take_fx();
                if let Some(ns) = self.ns_mut(node) {
                    ns.stack.peer_failed(now, layer, peer, &mut fx);
                }
                self.process_effects(now, node, fx);
            }
        }
        self.sched
            .schedule(now + FD_TICK, WorldEvent::FdTick { node });
    }
}

/// The windowed parallel executor driving one worker's chunk of shards.
///
/// Two barriers per window. Phase A injects the previous window's
/// cross-shard departures (sorted into the canonical order), B
/// publishes the chunk's earliest pending event time, C computes the
/// identical global window on every worker (applying scripted fault
/// ops when the window starts on a control instant, and clipping it so
/// no window ever spans one), D drains the window, E routes departures
/// into destination mailboxes.
#[allow(clippy::too_many_arguments)]
fn shard_worker(
    chunk: &mut [Shard],
    wi: usize,
    barrier: &Barrier,
    next_times: &[AtomicU64],
    mailboxes: &[Mutex<Vec<OutHandoff>>],
    ctrl: &[(u64, Vec<ControlOp>)],
    la_us: u64,
    deadline_us: u64,
) {
    let mut cursor = 0usize;
    let profiling = chunk.first().is_some_and(|s| s.cfg.profile);
    loop {
        // A: merge cross-shard arrivals from the previous window.
        for s in chunk.iter_mut() {
            let t0 = profiling.then(std::time::Instant::now);
            let batch = {
                let mut mb = mailboxes[s.id as usize].lock().unwrap();
                std::mem::take(&mut *mb)
            };
            s.inject(batch);
            if let Some(t0) = t0 {
                s.profile.inject_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        // B: publish the chunk's earliest pending event time.
        let mine = chunk
            .iter_mut()
            .filter_map(|s| s.sched.peek_time())
            .map(|t| t.as_micros())
            .min()
            .unwrap_or(u64::MAX);
        next_times[wi].store(mine, Ordering::SeqCst);
        let tb = profiling.then(std::time::Instant::now);
        barrier.wait();
        if let Some(tb) = tb {
            let ns = tb.elapsed().as_nanos() as u64;
            for s in chunk.iter_mut() {
                s.profile.barrier_ns += ns;
            }
        }
        // C: every worker computes the same global window.
        let next = next_times
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        if next == u64::MAX || next > deadline_us {
            break;
        }
        while cursor < ctrl.len() && ctrl[cursor].0 < next {
            cursor += 1;
        }
        let mut w_end = next.saturating_add(la_us - 1).min(deadline_us);
        if cursor < ctrl.len() && ctrl[cursor].0 == next {
            // The window starts on a control instant: every replica
            // applies the scripted fault ops before any event at `next`
            // runs — exactly when the sequential engine's control event
            // would have popped.
            for s in chunk.iter_mut() {
                for op in &ctrl[cursor].1 {
                    s.apply_control(*op);
                }
            }
            cursor += 1;
        }
        if cursor < ctrl.len() {
            // Never span the next control instant.
            w_end = w_end.min(ctrl[cursor].0.saturating_sub(1));
        }
        // D: drain the window.
        let w = Time::from_micros(w_end);
        for s in chunk.iter_mut() {
            let t0 = profiling.then(std::time::Instant::now);
            while let Some((now, ev)) = s.sched.pop_before(w) {
                s.handle(now, ev);
            }
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                s.profile.windows += 1;
                s.profile.drain_ns += ns;
                if s.profile.samples.len() < PROFILE_SAMPLE_CAP {
                    s.profile.samples.push((next, ns));
                }
            }
        }
        // E: route departures to their destination mailboxes.
        for s in chunk.iter_mut() {
            let t0 = profiling.then(std::time::Instant::now);
            for o in s.outbox.drain(..) {
                mailboxes[o.dest as usize].lock().unwrap().push(o);
            }
            if let Some(t0) = t0 {
                s.profile.route_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        let tb = profiling.then(std::time::Instant::now);
        barrier.wait();
        if let Some(tb) = tb {
            let ns = tb.elapsed().as_nanos() as u64;
            for s in chunk.iter_mut() {
                s.profile.barrier_ns += ns;
            }
        }
    }
}

/// The complete simulated deployment.
pub struct World {
    cfg: Arc<WorldConfig>,
    /// `cfg.channels` plus the heartbeat channel, shared by every
    /// node's endpoint.
    channels: Arc<[ChannelSpec]>,
    smap: Arc<ShardMap>,
    shards: Vec<Shard>,
    rng: SimRng,
    /// Worker threads `run_until` drives windowed execution with when
    /// the world is sharded (never affects results, only wall clock).
    workers: usize,
    /// Scripted fault mutations by virtual microsecond; windows are
    /// clipped so every shard's replica applies them at exactly the
    /// scripted instant. Only consulted when `shards > 1`.
    control: BTreeMap<u64, Vec<ControlOp>>,
    /// Span counters banked from despawned stacks, keyed by node. A
    /// respawn resumes minting from here so span ids stay unique per
    /// node across incarnations (the trace forest invariant).
    span_bases: FxHashMap<NodeId, u32>,
}

impl World {
    pub fn new(topo: Topology, cfg: WorldConfig) -> World {
        let engine_ch = ChannelId(cfg.channels.len() as u16);
        let channels: Arc<[ChannelSpec]> = cfg
            .channels
            .iter()
            .cloned()
            .chain([ChannelSpec::new("__ENGINE_HB", TransportKind::Udp)])
            .collect();
        let smap = Arc::new(ShardMap::partition_hosts(&topo, cfg.shards.max(1)));
        let p = smap.shards() as usize;
        let net_cfg = NetworkConfig {
            seed: cfg.seed ^ 0x6e65_7477,
        };
        let rng = SimRng::new(cfg.seed);
        let cfg = Arc::new(cfg);
        let num_nodes = topo.num_nodes();
        let mut topo = Some(topo);
        let mut shards = Vec::with_capacity(p);
        for sid in 0..p {
            let t = if sid + 1 == p {
                topo.take().expect("consumed once")
            } else {
                topo.as_ref().expect("still present").clone()
            };
            let mut net = Network::new(t, net_cfg.clone());
            if p > 1 {
                net.set_sharding(smap.clone(), sid as u16);
            }
            shards.push(Shard {
                id: sid as u16,
                cfg: cfg.clone(),
                engine_ch,
                sched: Scheduler::new(),
                net,
                nodes: (0..num_nodes).map(|_| None).collect(),
                trace: TraceSink::new(cfg.trace_level),
                last_membership_change: Time::ZERO,
                event_counts: EventClassCounts::default(),
                outbox: Vec::new(),
                handoff_seq: 0,
                nsink_pool: Vec::new(),
                tsink_pool: Vec::new(),
                fx_pool: Vec::new(),
                fd_peers: Vec::new(),
                fd_probe: Vec::new(),
                profile: ShardProfile::default(),
            });
        }
        World {
            cfg,
            channels,
            smap,
            shards,
            rng,
            workers: 1,
            control: BTreeMap::new(),
            span_bases: FxHashMap::default(),
        }
    }

    // ---- construction -----------------------------------------------------

    /// Register a node's stack and schedule its `init` at `at`, tracing
    /// at the world-wide [`WorldConfig::trace_level`].
    pub fn spawn_at(
        &mut self,
        at: Time,
        node: NodeId,
        agents: Vec<Box<dyn Agent>>,
        app: Box<dyn AppHandler>,
    ) {
        let level = self.cfg.trace_level;
        self.spawn_at_traced(at, node, agents, app, level);
    }

    /// [`World::spawn_at`] with a per-node trace level — how spec
    /// `trace_` headers land on individual stacks without forcing the
    /// whole world to the same verbosity.
    pub fn spawn_at_traced(
        &mut self,
        at: Time,
        node: NodeId,
        agents: Vec<Box<dyn Agent>>,
        app: Box<dyn AppHandler>,
        trace_level: TraceLevel,
    ) {
        assert!(
            self.shards[0].net.topology().is_host(node),
            "spawn on non-host {node:?}"
        );
        let sid = self.smap.shard_of(node) as usize;
        assert!(
            self.shards[sid].nodes[node.index()].is_none(),
            "{node:?} already spawned"
        );
        let key = MacedonKey::of_node(node, self.cfg.addressing);
        let rng = self.rng.fork(node.0 as u64);
        let mut stack = Stack::new(node, key, agents, app, rng);
        if let Some(&base) = self.span_bases.get(&node) {
            stack.resume_span_counter(base);
        }
        // Agents may skip building trace records the sink would filter
        // out anyway (Ctx::trace_on).
        stack.set_trace_level(trace_level);
        stack.set_addressing(self.cfg.addressing);
        // A node more verbose than the world default needs the shard
        // sink opened up; quieter nodes already self-filter at the
        // stack, so this never amplifies anyone else.
        if trace_level > self.shards[sid].trace.level() {
            self.shards[sid].trace.set_level(trace_level);
        }
        let ns = NodeState {
            stack,
            endpoint: Endpoint::new(node, self.channels.clone()),
            alive: false,
            timers: FxHashMap::default(),
            conn_timers: FxHashMap::default(),
            monitors: FxHashMap::default(),
        };
        self.shards[sid].nodes[node.index()] = Some(Box::new(ns));
        self.shards[sid]
            .sched
            .schedule(at, WorldEvent::Spawn { node });
        if self.shards.len() > 1 {
            self.control
                .entry(at.as_micros())
                .or_default()
                .push(ControlOp::Heal(node));
        }
    }

    /// Put a stack on every host, in host order: host `i` starts at
    /// `i × stagger`, and every host after the first joins through the
    /// first. `build(i, bootstrap)` returns host `i`'s layers and app.
    /// Returns the hosts.
    pub fn spawn_each(
        &mut self,
        stagger: Duration,
        mut build: impl FnMut(usize, Option<NodeId>) -> (Vec<Box<dyn Agent>>, Box<dyn AppHandler>),
    ) -> Vec<NodeId> {
        let hosts = self.shards[0].net.topology().hosts().to_vec();
        for (i, &h) in hosts.iter().enumerate() {
            let (agents, app) = build(i, (i > 0).then(|| hosts[0]));
            let at = Time::from_micros(i as u64 * stagger.as_micros());
            self.spawn_at(at, h, agents, app);
        }
        hosts
    }

    /// Schedule an application-level API call on a node.
    pub fn api_at(&mut self, at: Time, node: NodeId, call: DownCall) {
        let sid = self.smap.shard_of(node) as usize;
        self.shards[sid]
            .sched
            .schedule(at, WorldEvent::Api { node, call });
    }

    /// Schedule a node crash (fail-stop).
    pub fn crash_at(&mut self, at: Time, node: NodeId) {
        let sid = self.smap.shard_of(node) as usize;
        self.shards[sid]
            .sched
            .schedule(at, WorldEvent::Crash { node });
        if self.shards.len() > 1 {
            self.control
                .entry(at.as_micros())
                .or_default()
                .push(ControlOp::Fail(node));
        }
    }

    /// Remove a node's stack, endpoint, timers and monitors entirely, so
    /// the host can be spawned again with a fresh stack (a *rejoin*
    /// after a crash: protocol state is lost, as on a real reboot).
    /// Scheduled timer/RTO events for the old incarnation become inert —
    /// their generation slots are gone. Every peer's transport state
    /// toward the node is reset too: the old incarnation's reliable
    /// sequence numbers must not wedge the fresh endpoint (a peer
    /// retransmitting at old sequence positions would sit in the new
    /// receiver's out-of-order buffer forever).
    pub fn despawn(&mut self, node: NodeId) {
        let sid = self.smap.shard_of(node) as usize;
        self.shards[sid].cancel_node_timers(node);
        if let Some(ns) = self.shards[sid].nodes[node.index()].take() {
            // Bank the incarnation's span counter: a respawned stack
            // resumes minting from here, never reusing a span id.
            self.span_bases.insert(node, ns.stack.sends_minted());
        }
        for sh in &mut self.shards {
            for ns in sh.nodes.iter_mut().flatten() {
                ns.endpoint.reset_peer(node);
                ns.stack.measures_mut().forget(node);
            }
        }
    }

    // ---- observation ------------------------------------------------------

    pub fn now(&self) -> Time {
        self.shards
            .iter()
            .map(|s| s.sched.now())
            .max()
            .unwrap_or(Time::ZERO)
    }

    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// Worker threads `run_until` uses for windowed execution.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Shard 0's network replica. On a sharded world, per-replica
    /// counters only describe the links that replica owns — use
    /// [`World::link_counters`] / [`World::total_net_drops`] /
    /// [`World::faults_each`] for whole-network reads and mutations.
    pub fn net(&self) -> &Network<Segment> {
        &self.shards[0].net
    }

    pub fn net_mut(&mut self) -> &mut Network<Segment> {
        &mut self.shards[0].net
    }

    /// Apply a fault mutation to every shard's replica (partitions,
    /// loss rates, link failures scripted between runs).
    pub fn faults_each(&mut self, mut f: impl FnMut(&mut Faults)) {
        for s in &mut self.shards {
            f(s.net.faults_mut());
        }
    }

    /// Mutate a physical link's bandwidth and/or delay on every shard's
    /// replica.
    pub fn set_phys_link(
        &mut self,
        phys: u32,
        bandwidth_bps: Option<u64>,
        delay: Option<Duration>,
    ) {
        for s in &mut self.shards {
            s.net.set_phys_link(phys, bandwidth_bps, delay);
        }
    }

    /// Per-physical-link (packets, bytes, drops) counters summed across
    /// every shard's replica (each directed link is charged by exactly
    /// one replica, so the sum is the whole-network count).
    pub fn link_counters(&self) -> Vec<(u64, u64, u64)> {
        let mut out = self.shards[0].net.link_counters();
        for s in &self.shards[1..] {
            for (acc, c) in out.iter_mut().zip(s.net.link_counters()) {
                acc.0 += c.0;
                acc.1 += c.1;
                acc.2 += c.2;
            }
        }
        out
    }

    /// Total packets dropped anywhere in the network, across all shard
    /// replicas.
    pub fn total_net_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.net.total_drops()).sum()
    }

    /// Heap bytes held by the engine, by owner, over every spawned
    /// node; the connection free list is the calling thread's.
    pub fn heap_census(&self) -> HeapCensus {
        let mut c = HeapCensus {
            conn_free_list: macedon_transport::pooled_bytes(),
            route_tables: self.shards.iter().map(|s| s.net.route_table_bytes()).sum(),
            ..HeapCensus::default()
        };
        let nodes = self.shards.iter().flat_map(|s| s.nodes.iter().flatten());
        for ns in nodes {
            c.conns += ns.endpoint.conn_count();
            c.busy_conns += ns.endpoint.busy_conns();
            c.reliable_conns += ns.endpoint.conn_bytes();
            c.datagram_reassembly += ns.endpoint.reassembly_bytes();
            c.engine_maps += ns.engine_bytes();
            c.measure_ledgers += ns.stack.measures().heap_bytes();
        }
        c
    }

    /// The state of `node`, if it is spawned. These accessors take ids
    /// from outside the engine, so one beyond the topology is `None`,
    /// not an index panic.
    fn ns(&self, node: NodeId) -> Option<&NodeState> {
        let sid = self.smap.checked_shard_of(node)?;
        self.shards[sid as usize].ns(node)
    }

    pub fn stack(&self, node: NodeId) -> Option<&Stack> {
        self.ns(node).map(|ns| &ns.stack)
    }

    pub fn endpoint(&self, node: NodeId) -> Option<&Endpoint> {
        self.ns(node).map(|ns| &ns.endpoint)
    }

    pub fn is_alive(&self, node: NodeId) -> bool {
        self.ns(node).is_some_and(|ns| ns.alive)
    }

    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.shards.iter().flat_map(|s| {
            s.nodes
                .iter()
                .enumerate()
                .filter_map(|(i, ns)| ns.as_ref().filter(|ns| ns.alive).map(|_| NodeId(i as u32)))
        })
    }

    /// Shard 0's trace sink (on a sharded world each shard records its
    /// own nodes' traces; sequential worlds have exactly one shard).
    pub fn trace(&self) -> &TraceSink {
        &self.shards[0].trace
    }

    /// All trace records across every shard, merged in the
    /// deterministic total order `(virtual time, shard, per-shard
    /// sequence)` — the same order a one-shard world would have
    /// recorded them, so the merged stream is byte-identical across
    /// shard layouts' worker counts.
    pub fn merged_trace(&self) -> Vec<&TraceRecord> {
        let mut out: Vec<(u64, u16, u64, &TraceRecord)> = Vec::new();
        for s in &self.shards {
            out.extend(
                s.trace
                    .records()
                    .map(|r| (r.at.as_micros(), s.id, r.seq, r)),
            );
        }
        out.sort_unstable_by_key(|&(at, sh, seq, _)| (at, sh, seq));
        out.into_iter().map(|(_, _, _, r)| r).collect()
    }

    /// Records evicted from trace rings across all shards (ring
    /// overflow — raise the capacity if nonzero and completeness
    /// matters).
    pub fn trace_dropped_total(&self) -> u64 {
        self.shards.iter().map(|s| s.trace.dropped).sum()
    }

    /// Resize every shard's bounded trace ring.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        for s in &mut self.shards {
            s.trace.set_capacity(capacity);
        }
    }

    /// Events currently pending across every shard's scheduler (the
    /// telemetry sampler's queue-depth gauge).
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.sched.pending()).sum()
    }

    /// Trace records currently held across every shard's ring.
    pub fn trace_records_total(&self) -> u64 {
        self.shards.iter().map(|s| s.trace.len() as u64).sum()
    }

    /// Aggregate of every alive node's measurement ledger (integer
    /// sums — independent of node iteration order).
    pub fn measure_summary(&self) -> MeasureSummary {
        let mut acc = MeasureSummary::default();
        for sh in &self.shards {
            for ns in sh.nodes.iter().flatten() {
                if ns.alive {
                    acc.add(&ns.stack.measures().summary());
                }
            }
        }
        acc
    }

    /// Per-shard self-profiling counters (empty sums unless
    /// [`WorldConfig::profile`] was set and windowed execution ran).
    pub fn profile(&self) -> Vec<ShardProfile> {
        self.shards.iter().map(|s| s.profile.clone()).collect()
    }

    /// Key of a node under this world's addressing mode.
    pub fn key_of(&self, node: NodeId) -> MacedonKey {
        MacedonKey::of_node(node, self.cfg.addressing)
    }

    /// Every transport instance, the engine's heartbeat channel last.
    pub fn channels(&self) -> &[ChannelSpec] {
        &self.channels
    }

    /// Resolve a named transport instance.
    pub fn channel(&self, name: &str) -> Option<ChannelId> {
        self.channels
            .iter()
            .position(|c| c.name == name)
            .map(|i| ChannelId(i as u16))
    }

    /// Uncongested IP latency oracle (stretch / RDP computations).
    pub fn oracle_latency(&mut self, a: NodeId, b: NodeId) -> Option<Duration> {
        self.shards[0].net.oracle_latency(a, b)
    }

    /// Instant of the last overlay-membership mutation the engine
    /// observed (failure-detector registrations changing, crashes).
    /// "quiet since t" is the convergence signal scenario metrics use.
    pub fn last_membership_change(&self) -> Time {
        self.shards
            .iter()
            .map(|s| s.last_membership_change)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Aggregate read/write transition counts across stacks (locking
    /// ablation data).
    pub fn transition_counts(&self) -> (u64, u64) {
        let mut r = 0;
        let mut w = 0;
        for sh in &self.shards {
            for ns in sh.nodes.iter().flatten() {
                r += ns.stack.read_transitions;
                w += ns.stack.write_transitions;
            }
        }
        (r, w)
    }

    /// Total events fired across every shard's scheduler.
    pub fn events_fired(&self) -> u64 {
        self.shards.iter().map(|s| s.sched.events_fired()).sum()
    }

    /// Fired-event counts by class since construction, summed across
    /// shards.
    pub fn event_counts(&self) -> EventClassCounts {
        let mut acc = EventClassCounts::default();
        for s in &self.shards {
            acc.add(&s.event_counts);
        }
        acc
    }

    // ---- running ----------------------------------------------------------

    /// Process events until `deadline`; the clock lands exactly on it.
    /// A sharded world runs windowed with [`World::set_workers`]
    /// threads; the result is identical for every worker count.
    pub fn run_until(&mut self, deadline: Time) {
        if self.shards.len() == 1 {
            let s = &mut self.shards[0];
            while let Some((now, ev)) = s.sched.pop_before(deadline) {
                s.handle(now, ev);
            }
            s.sched.fast_forward(deadline);
        } else {
            self.run_windows(deadline, self.workers);
        }
    }

    fn run_windows(&mut self, deadline: Time, workers: usize) {
        let p = self.shards.len();
        let la = self.shards[0]
            .net
            .min_link_delay()
            .expect("windowed execution needs at least one link");
        let la_us = la.as_micros();
        assert!(
            la_us > 0,
            "windowed execution requires a nonzero minimum link delay; use shards = 1"
        );
        let dl_us = deadline.as_micros();
        let ctrl: Vec<(u64, Vec<ControlOp>)> = self
            .control
            .range(..=dl_us)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        let workers_eff = workers.clamp(1, p);
        let chunk = p.div_ceil(workers_eff);
        let nchunks = p.div_ceil(chunk);
        let next_times: Vec<AtomicU64> = (0..nchunks).map(|_| AtomicU64::new(u64::MAX)).collect();
        let mailboxes: Vec<Mutex<Vec<OutHandoff>>> =
            (0..p).map(|_| Mutex::new(Vec::new())).collect();
        let barrier = Barrier::new(nchunks);
        {
            let mut chunks: Vec<&mut [Shard]> = self.shards.chunks_mut(chunk).collect();
            let rest = chunks.split_off(1);
            let first = chunks.pop().expect("at least one chunk");
            std::thread::scope(|scope| {
                for (i, ch) in rest.into_iter().enumerate() {
                    let (b, nt, mb, cs) = (&barrier, &next_times, &mailboxes, &ctrl);
                    scope.spawn(move || shard_worker(ch, i + 1, b, nt, mb, cs, la_us, dl_us));
                }
                shard_worker(
                    first,
                    0,
                    &barrier,
                    &next_times,
                    &mailboxes,
                    &ctrl,
                    la_us,
                    dl_us,
                );
            });
        }
        for s in &mut self.shards {
            s.sched.fast_forward(deadline);
        }
        self.control = self.control.split_off(&dl_us.saturating_add(1));
    }
}

/// Helper for protocol message encoding: prefix with protocol id and
/// message type — the demultiplexing header the generated code emits.
pub fn proto_header(proto: ProtocolId, msg_type: u16) -> WireWriter {
    let mut w = WireWriter::new();
    w.u16(proto).u16(msg_type);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Ctx, NullApp};
    use crate::wire::WireReader;
    use macedon_net::topology::{canned, LinkSpec};
    use std::any::Any;

    /// Ping-pong agent: on init, the initiator sends PING; the peer
    /// responds PONG; both count.
    struct PingPong {
        peer: Option<NodeId>,
        ch: ChannelId,
        pings: u32,
        pongs: u32,
    }

    const PP: ProtocolId = 77;
    const MSG_PING: u16 = 1;
    const MSG_PONG: u16 = 2;

    impl Agent for PingPong {
        fn protocol_id(&self) -> ProtocolId {
            PP
        }
        fn name(&self) -> &'static str {
            "pingpong"
        }
        fn init(&mut self, ctx: &mut Ctx) {
            if let Some(peer) = self.peer {
                let w = proto_header(PP, MSG_PING);
                ctx.send(peer, self.ch, w.finish());
            }
        }
        fn downcall(&mut self, _ctx: &mut Ctx, _call: DownCall) {}
        fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {
            let mut r = WireReader::new(msg);
            let _proto = r.u16().unwrap();
            match r.u16().unwrap() {
                MSG_PING => {
                    self.pings += 1;
                    let w = proto_header(PP, MSG_PONG);
                    ctx.send(from, self.ch, w.finish());
                }
                MSG_PONG => self.pongs += 1,
                _ => unreachable!(),
            }
        }
        fn timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_host_world() -> (World, NodeId, NodeId) {
        let topo = canned::two_hosts(LinkSpec::lan());
        let hosts = topo.hosts().to_vec();
        let w = World::new(topo, WorldConfig::default());
        (w, hosts[0], hosts[1])
    }

    fn pp(peer: Option<NodeId>) -> Box<dyn Agent> {
        Box::new(PingPong {
            peer,
            ch: ChannelId(1),
            pings: 0,
            pongs: 0,
        })
    }

    #[test]
    fn ping_pong_roundtrip() {
        let (mut w, a, b) = two_host_world();
        w.spawn_at(Time::ZERO, b, vec![pp(None)], Box::new(NullApp));
        w.spawn_at(
            Time::from_millis(10),
            a,
            vec![pp(Some(b))],
            Box::new(NullApp),
        );
        w.run_until(Time::from_secs(2));
        let pa: &PingPong = w
            .stack(a)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        let pb: &PingPong = w
            .stack(b)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        assert_eq!(pb.pings, 1);
        assert_eq!(pa.pongs, 1);
    }

    #[test]
    fn lookups_beyond_the_topology_are_absent_not_a_panic() {
        for shards in [1, 2] {
            let topo = canned::two_hosts(LinkSpec::lan());
            let (a, past_end) = (topo.hosts()[0], NodeId(topo.num_nodes() as u32));
            let cfg = WorldConfig {
                shards,
                ..WorldConfig::default()
            };
            let mut w = World::new(topo, cfg);
            w.spawn_at(Time::ZERO, a, vec![pp(None)], Box::new(NullApp));
            w.run_until(Time::from_secs(1));
            assert!(w.is_alive(a) && w.stack(a).is_some() && w.endpoint(a).is_some());
            for n in [past_end, NodeId(u32::MAX)] {
                assert!(w.stack(n).is_none());
                assert!(w.endpoint(n).is_none());
                assert!(!w.is_alive(n));
            }
        }
    }

    #[test]
    fn spawn_staggering_orders_inits() {
        let (mut w, a, b) = two_host_world();
        w.spawn_at(Time::from_secs(5), a, vec![pp(None)], Box::new(NullApp));
        w.spawn_at(Time::from_secs(1), b, vec![pp(None)], Box::new(NullApp));
        w.run_until(Time::from_secs(2));
        assert!(w.is_alive(b));
        assert!(!w.is_alive(a));
        w.run_until(Time::from_secs(6));
        assert!(w.is_alive(a));
    }

    /// Agent exercising one-shot, superseding and periodic timers.
    struct TimerBox {
        fired: Vec<u16>,
    }

    impl Agent for TimerBox {
        fn protocol_id(&self) -> ProtocolId {
            78
        }
        fn name(&self) -> &'static str {
            "timerbox"
        }
        fn init(&mut self, ctx: &mut Ctx) {
            ctx.timer_set(1, Duration::from_millis(100));
            ctx.timer_set(2, Duration::from_millis(500));
            ctx.timer_set(2, Duration::from_millis(900)); // supersedes
            ctx.timer_periodic(3, Duration::from_millis(300));
        }
        fn downcall(&mut self, _ctx: &mut Ctx, _call: DownCall) {}
        fn recv(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Bytes) {}
        fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
            self.fired.push(timer);
            if timer == 3 && self.fired.iter().filter(|&&t| t == 3).count() >= 3 {
                ctx.timer_cancel(3);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timer_semantics() {
        let (mut w, a, _) = two_host_world();
        w.spawn_at(
            Time::ZERO,
            a,
            vec![Box::new(TimerBox { fired: vec![] })],
            Box::new(NullApp),
        );
        w.run_until(Time::from_secs(5));
        let tb: &TimerBox = w
            .stack(a)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        // Timer 1 once; timer 2 once (superseded schedule → one firing);
        // timer 3 exactly three times then cancelled.
        assert_eq!(tb.fired.iter().filter(|&&t| t == 1).count(), 1);
        assert_eq!(tb.fired.iter().filter(|&&t| t == 2).count(), 1);
        assert_eq!(tb.fired.iter().filter(|&&t| t == 3).count(), 3);
    }

    /// Agent that monitors a peer and records failure.
    struct Watcher {
        peer: NodeId,
        ch: ChannelId,
        failures: Vec<NodeId>,
    }

    impl Agent for Watcher {
        fn protocol_id(&self) -> ProtocolId {
            79
        }
        fn name(&self) -> &'static str {
            "watcher"
        }
        fn init(&mut self, ctx: &mut Ctx) {
            ctx.monitor(self.peer);
            // Exchange one message so the peer knows us.
            let w = proto_header(79, 9);
            ctx.send(self.peer, self.ch, w.finish());
        }
        fn downcall(&mut self, _ctx: &mut Ctx, _call: DownCall) {}
        fn recv(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Bytes) {}
        fn timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}
        fn neighbor_failed(&mut self, _ctx: &mut Ctx, peer: NodeId) {
            self.failures.push(peer);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn failure_detector_fires_on_crash() {
        let (mut w, a, b) = two_host_world();
        w.spawn_at(
            Time::ZERO,
            a,
            vec![Box::new(Watcher {
                peer: b,
                ch: ChannelId(1),
                failures: vec![],
            })],
            Box::new(NullApp),
        );
        w.spawn_at(
            Time::ZERO,
            b,
            vec![Box::new(Watcher {
                peer: a,
                ch: ChannelId(1),
                failures: vec![],
            })],
            Box::new(NullApp),
        );
        w.crash_at(Time::from_secs(2), b);
        w.run_until(Time::from_secs(30));
        let wa: &Watcher = w
            .stack(a)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        assert_eq!(wa.failures, vec![b], "a detected b's crash");
        assert!(!w.is_alive(b));
    }

    #[test]
    fn heartbeats_keep_silent_peers_alive() {
        // Nodes monitor each other but exchange no protocol traffic after
        // init; heartbeats must prevent false failure declarations.
        let (mut w, a, b) = two_host_world();
        w.spawn_at(
            Time::ZERO,
            a,
            vec![Box::new(Watcher {
                peer: b,
                ch: ChannelId(1),
                failures: vec![],
            })],
            Box::new(NullApp),
        );
        w.spawn_at(
            Time::ZERO,
            b,
            vec![Box::new(Watcher {
                peer: a,
                ch: ChannelId(1),
                failures: vec![],
            })],
            Box::new(NullApp),
        );
        w.run_until(Time::from_secs(60));
        let wa: &Watcher = w
            .stack(a)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        let wb: &Watcher = w
            .stack(b)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        assert!(
            wa.failures.is_empty(),
            "no false positives at a: {:?}",
            wa.failures
        );
        assert!(wb.failures.is_empty(), "no false positives at b");
    }

    #[test]
    fn api_injection_reaches_top_layer() {
        struct ApiSpy {
            calls: u32,
        }
        impl Agent for ApiSpy {
            fn protocol_id(&self) -> ProtocolId {
                80
            }
            fn name(&self) -> &'static str {
                "apispy"
            }
            fn init(&mut self, _ctx: &mut Ctx) {}
            fn downcall(&mut self, _ctx: &mut Ctx, call: DownCall) {
                if matches!(call, DownCall::Join { .. }) {
                    self.calls += 1;
                }
            }
            fn recv(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Bytes) {}
            fn timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let (mut w, a, _) = two_host_world();
        w.spawn_at(
            Time::ZERO,
            a,
            vec![Box::new(ApiSpy { calls: 0 })],
            Box::new(NullApp),
        );
        w.api_at(
            Time::from_millis(100),
            a,
            DownCall::Join {
                group: MacedonKey(1),
            },
        );
        w.run_until(Time::from_secs(1));
        let spy: &ApiSpy = w
            .stack(a)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        assert_eq!(spy.calls, 1);
    }

    #[test]
    fn deterministic_end_state() {
        let run = || {
            let (mut w, a, b) = two_host_world();
            w.spawn_at(Time::ZERO, b, vec![pp(None)], Box::new(NullApp));
            w.spawn_at(
                Time::from_millis(3),
                a,
                vec![pp(Some(b))],
                Box::new(NullApp),
            );
            w.run_until(Time::from_secs(10));
            w.events_fired()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn channel_resolution() {
        let (w, _, _) = two_host_world();
        assert!(w.channel("HIGH").is_some());
        assert!(w.channel("__ENGINE_HB").is_some());
        assert!(w.channel("NONE").is_none());
    }

    // ---- sharded engine ---------------------------------------------------

    /// Build an all-pairs ping world on a star: every host pings its
    /// successor, timers and the failure detector run throughout —
    /// traffic constantly crosses shard boundaries.
    fn ring_ping_world(n: usize, shards: usize) -> World {
        let topo = canned::star(n, LinkSpec::lan());
        let hosts = topo.hosts().to_vec();
        let mut w = World::new(
            topo,
            WorldConfig {
                shards,
                ..WorldConfig::default()
            },
        );
        w.spawn_each(Duration::from_millis(1), |i, _| {
            let peer = hosts[(i + 1) % hosts.len()];
            (vec![pp(Some(peer))], Box::new(NullApp))
        });
        w
    }

    fn fingerprint(w: &World, n: usize) -> (u64, u64, u64, Vec<(u32, u32)>) {
        let topo_hosts: Vec<NodeId> = w.alive_nodes().collect();
        assert_eq!(topo_hosts.len(), n);
        let mut per_node = Vec::new();
        let mut hosts = topo_hosts.clone();
        hosts.sort_unstable_by_key(|h| h.0);
        for h in hosts {
            let p: &PingPong = w
                .stack(h)
                .unwrap()
                .agent(0)
                .as_any()
                .downcast_ref()
                .unwrap();
            per_node.push((p.pings, p.pongs));
        }
        let (r, wr) = w.transition_counts();
        (w.events_fired(), r, wr, per_node)
    }

    #[test]
    fn sharded_run_matches_sequential() {
        let n = 12;
        let mut seq = ring_ping_world(n, 1);
        seq.run_until(Time::from_secs(5));
        let want = fingerprint(&seq, n);

        for shards in [2, 4] {
            let mut par = ring_ping_world(n, shards);
            par.run_until(Time::from_secs(5));
            assert_eq!(
                fingerprint(&par, n),
                want,
                "{shards}-shard run diverged from sequential"
            );
        }
    }

    #[test]
    fn worker_count_never_changes_results() {
        let n = 12;
        let mut one = ring_ping_world(n, 4);
        one.set_workers(1);
        one.run_until(Time::from_secs(5));
        let want = fingerprint(&one, n);
        for workers in [2, 3, 4, 8] {
            let mut many = ring_ping_world(n, 4);
            many.set_workers(workers);
            many.run_until(Time::from_secs(5));
            assert_eq!(fingerprint(&many, n), want, "{workers}-worker run diverged");
        }
    }

    #[test]
    fn sharded_crash_detection_matches_sequential() {
        let n = 8;
        let run = |shards: usize| {
            let topo = canned::star(n, LinkSpec::lan());
            let hosts = topo.hosts().to_vec();
            let mut w = World::new(
                topo,
                WorldConfig {
                    shards,
                    ..WorldConfig::default()
                },
            );
            // Every node watches the last host, which crashes at t=2s —
            // watchers on every shard must agree on the detection.
            let victim = hosts[n - 1];
            for &h in hosts.iter().take(n - 1) {
                w.spawn_at(
                    Time::ZERO,
                    h,
                    vec![Box::new(Watcher {
                        peer: victim,
                        ch: ChannelId(1),
                        failures: vec![],
                    })],
                    Box::new(NullApp),
                );
            }
            w.spawn_at(
                Time::ZERO,
                victim,
                vec![Box::new(Watcher {
                    peer: hosts[0],
                    ch: ChannelId(1),
                    failures: vec![],
                })],
                Box::new(NullApp),
            );
            w.crash_at(Time::from_secs(2), victim);
            w.run_until(Time::from_secs(30));
            let mut failures = Vec::new();
            for &h in hosts.iter().take(n - 1) {
                let watcher: &Watcher = w
                    .stack(h)
                    .unwrap()
                    .agent(0)
                    .as_any()
                    .downcast_ref()
                    .unwrap();
                failures.push(watcher.failures.clone());
            }
            (w.events_fired(), failures)
        };
        let (_, seq_failures) = run(1);
        assert!(
            seq_failures.iter().all(|f| f == &vec![NodeId(n as u32)]),
            "all watchers detect the crash sequentially: {seq_failures:?}"
        );
        assert_eq!(run(4), run(1), "4-shard crash run diverged");
    }

    #[test]
    fn run_until_sharded_matches_sequential() {
        let n = 10;
        let mut seq = ring_ping_world(n, 1);
        seq.run_until(Time::from_secs(2));
        let mut par = ring_ping_world(n, 3);
        par.run_until(Time::from_secs(2));
        assert_eq!(fingerprint(&par, n), fingerprint(&seq, n));
    }
}
