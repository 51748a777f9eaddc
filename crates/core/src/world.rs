//! The world: a deterministic event loop that couples the network
//! emulator, the transport subsystem and every node's protocol stack —
//! the equivalent of the paper's "MACEDON code engine" plus the ModelNet
//! harness around it.
//!
//! Responsibilities:
//!
//! * owning the [`Scheduler`] and virtual clock,
//! * delivering transport messages into stacks and stack effects back out,
//! * the **timer subsystem** (named per-layer timers with cancellation and
//!   periodic re-arming),
//! * the **failure detector** (§3.1): a peer is presumed failed after `f`
//!   seconds of silence; after `g < f` seconds a heartbeat
//!   request/response is solicited first,
//! * node lifecycle: staggered spawns, crashes,
//! * world-level tracing and metric oracles.
//!
//! One scheduler, one [`Network`], one node table and one trace sink:
//! every event of a run pops from the same queue in `(time, insertion)`
//! order, so a seeded run is reproducible bit for bit.

use crate::agent::{Agent, AppHandler};
use crate::api::{DownCall, ProtocolId, ENGINE_PROTOCOL};
use crate::key::{Addressing, MacedonKey};
use crate::measure::MeasureSummary;
use crate::stack::{Stack, StackEffect};
use crate::trace::{SpanId, TraceEvent, TraceLevel, TraceSink};
use crate::wire::{WireRef, WireWriter};
use bytes::Bytes;
use macedon_net::{NetEvent, Network, NetworkConfig, NodeId, Sink, Topology};
use macedon_sim::{table_bytes, Duration, EventId, FxHashMap, Scheduler, SimRng, Time};
use macedon_transport::{
    ChannelId, ChannelSpec, Endpoint, Segment, TimerKey, TimerKind, TransportKind, TransportSink,
};
use std::sync::Arc;

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
    /// Ignored: the engine is one sequential event loop. Kept only
    /// because the repo benchmark's `scale-star-sharded` workload sets
    /// it; ROADMAP item 3 retires that workload and removes the field.
    pub shards: usize,
    /// Ignored, like [`WorldConfig::shards`], and removed with it
    /// (ROADMAP item 3).
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

/// Counters of an execution mode the engine no longer has; no run
/// produces one ([`World::profile`] is always empty). Kept only because
/// the repo benchmark still reads the fields; ROADMAP item 3 removes it
/// together with `scale-star-sharded`.
#[derive(Clone, Debug, Default)]
pub struct ShardProfile {
    pub windows: u64,
    pub inject_ns: u64,
    pub barrier_ns: u64,
    pub drain_ns: u64,
    pub route_ns: u64,
}

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

/// The complete simulated deployment.
pub struct World {
    cfg: WorldConfig,
    /// `cfg.channels` plus the heartbeat channel, shared by every
    /// node's endpoint.
    channels: Arc<[ChannelSpec]>,
    engine_ch: ChannelId,
    sched: Scheduler<WorldEvent>,
    net: Network<Segment>,
    /// Dense by node index; `Some` exactly for spawned nodes.
    nodes: Vec<Option<Box<NodeState>>>,
    trace: TraceSink,
    rng: SimRng,
    /// Instant of the last failure-detector registration change
    /// (monitor/unmonitor effects, crash cleanup).
    last_membership_change: Time,
    event_counts: EventClassCounts,
    /// Span counters banked from despawned stacks, keyed by node. A
    /// respawn resumes minting from here so span ids stay unique per
    /// node across incarnations (the trace forest invariant).
    span_bases: FxHashMap<NodeId, u32>,
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
        let net_cfg = NetworkConfig {
            seed: cfg.seed ^ 0x6e65_7477,
        };
        let num_nodes = topo.num_nodes();
        World {
            channels,
            engine_ch,
            sched: Scheduler::new(),
            net: Network::new(topo, net_cfg),
            nodes: (0..num_nodes).map(|_| None).collect(),
            trace: TraceSink::new(cfg.trace_level),
            rng: SimRng::new(cfg.seed),
            last_membership_change: Time::ZERO,
            event_counts: EventClassCounts::default(),
            span_bases: FxHashMap::default(),
            nsink_pool: Vec::new(),
            tsink_pool: Vec::new(),
            fx_pool: Vec::new(),
            fd_peers: Vec::new(),
            fd_probe: Vec::new(),
            cfg,
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
            self.net.topology().is_host(node),
            "spawn on non-host {node:?}"
        );
        assert!(
            self.nodes[node.index()].is_none(),
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
        // A node more verbose than the world default needs the sink
        // opened up; quieter nodes already self-filter at the stack, so
        // this never amplifies anyone else.
        if trace_level > self.trace.level() {
            self.trace.set_level(trace_level);
        }
        let ns = NodeState {
            stack,
            endpoint: Endpoint::new(node, self.channels.clone()),
            alive: false,
            timers: FxHashMap::default(),
            conn_timers: FxHashMap::default(),
            monitors: FxHashMap::default(),
        };
        self.nodes[node.index()] = Some(Box::new(ns));
        self.sched.schedule(at, WorldEvent::Spawn { node });
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
        let hosts = self.net.topology().hosts().to_vec();
        for (i, &h) in hosts.iter().enumerate() {
            let (agents, app) = build(i, (i > 0).then(|| hosts[0]));
            let at = Time::from_micros(i as u64 * stagger.as_micros());
            self.spawn_at(at, h, agents, app);
        }
        hosts
    }

    /// Schedule an application-level API call on a node.
    pub fn api_at(&mut self, at: Time, node: NodeId, call: DownCall) {
        self.sched.schedule(at, WorldEvent::Api { node, call });
    }

    /// Schedule a node crash (fail-stop).
    pub fn crash_at(&mut self, at: Time, node: NodeId) {
        self.sched.schedule(at, WorldEvent::Crash { node });
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
        self.cancel_node_timers(node);
        if let Some(ns) = self.nodes[node.index()].take() {
            // Bank the incarnation's span counter: a respawned stack
            // resumes minting from here, never reusing a span id.
            self.span_bases.insert(node, ns.stack.sends_minted());
        }
        for ns in self.nodes.iter_mut().flatten() {
            ns.endpoint.reset_peer(node);
            ns.stack.measures_mut().forget(node);
        }
    }

    // ---- observation ------------------------------------------------------

    pub fn now(&self) -> Time {
        self.sched.now()
    }

    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// The emulated network: topology, link counters, drops, faults.
    pub fn net(&self) -> &Network<Segment> {
        &self.net
    }

    pub fn net_mut(&mut self) -> &mut Network<Segment> {
        &mut self.net
    }

    /// Heap bytes held by the engine, by owner, over every spawned
    /// node; the connection free list is the calling thread's.
    pub fn heap_census(&self) -> HeapCensus {
        let mut c = HeapCensus {
            conn_free_list: macedon_transport::pooled_bytes(),
            route_tables: self.net.route_table_bytes(),
            ..HeapCensus::default()
        };
        for ns in self.nodes.iter().flatten() {
            c.conns += ns.endpoint.conn_count();
            c.busy_conns += ns.endpoint.busy_conns();
            c.reliable_conns += ns.endpoint.conn_bytes();
            c.datagram_reassembly += ns.endpoint.reassembly_bytes();
            c.engine_maps += ns.engine_bytes();
            c.measure_ledgers += ns.stack.measures().heap_bytes();
        }
        c
    }

    /// The state of `node`, if it is spawned. The public accessors take
    /// ids from outside the engine, so one beyond the topology is
    /// `None`, not an index panic.
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
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, ns)| ns.as_ref().filter(|ns| ns.alive).map(|_| NodeId(i as u32)))
    }

    /// The trace sink: every node's records, in the order they were
    /// recorded.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Resize the bounded trace ring.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// Events currently pending in the scheduler (the telemetry
    /// sampler's queue-depth gauge).
    pub fn pending_events(&self) -> usize {
        self.sched.pending()
    }

    /// Aggregate of every alive node's measurement ledger (integer
    /// sums — independent of node iteration order).
    pub fn measure_summary(&self) -> MeasureSummary {
        let mut acc = MeasureSummary::default();
        for ns in self.nodes.iter().flatten() {
            if ns.alive {
                acc.add(&ns.stack.measures().summary());
            }
        }
        acc
    }

    /// Always empty: see [`ShardProfile`]. Kept only for the repo
    /// benchmark, which reads it; ROADMAP item 3 removes it.
    pub fn profile(&self) -> Vec<ShardProfile> {
        Vec::new()
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
        self.net.oracle_latency(a, b)
    }

    /// Instant of the last overlay-membership mutation the engine
    /// observed (failure-detector registrations changing, crashes).
    /// "quiet since t" is the convergence signal scenario metrics use.
    pub fn last_membership_change(&self) -> Time {
        self.last_membership_change
    }

    /// Aggregate read/write transition counts across stacks (locking
    /// ablation data).
    pub fn transition_counts(&self) -> (u64, u64) {
        let mut r = 0;
        let mut w = 0;
        for ns in self.nodes.iter().flatten() {
            r += ns.stack.read_transitions;
            w += ns.stack.write_transitions;
        }
        (r, w)
    }

    /// Total events fired by the scheduler.
    pub fn events_fired(&self) -> u64 {
        self.sched.events_fired()
    }

    /// Fired-event counts by class since construction.
    pub fn event_counts(&self) -> EventClassCounts {
        self.event_counts
    }

    // ---- running ----------------------------------------------------------

    /// Process events until `deadline`; the clock lands exactly on it.
    pub fn run_until(&mut self, deadline: Time) {
        while let Some((now, ev)) = self.sched.pop_before(deadline) {
            self.handle(now, ev);
        }
        self.sched.fast_forward(deadline);
    }

    // ---- event handling ---------------------------------------------------

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
        let topo = canned::two_hosts(LinkSpec::lan());
        let (a, past_end) = (topo.hosts()[0], NodeId(topo.num_nodes() as u32));
        let mut w = World::new(topo, WorldConfig::default());
        w.spawn_at(Time::ZERO, a, vec![pp(None)], Box::new(NullApp));
        w.run_until(Time::from_secs(1));
        assert!(w.is_alive(a) && w.stack(a).is_some() && w.endpoint(a).is_some());
        for n in [past_end, NodeId(u32::MAX)] {
            assert!(w.stack(n).is_none());
            assert!(w.endpoint(n).is_none());
            assert!(!w.is_alive(n));
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
}
