//! The scenario runner: compiles a validated [`Scenario`] into
//! scheduled world actions, drives the run, and collects the
//! engine-measured [`MetricsReport`].
//!
//! The runner owns the [`World`]; the caller supplies the topology, the
//! world configuration, and a *stack factory* — how to build one node's
//! protocol stack (interpreted `.mac` stacks, generated agents, and
//! native overlays all fit the same closure). Applications are the
//! runner's: stream sources get a
//! [`macedon_core::app::StreamerApp`], everyone else a
//! [`macedon_core::app::CollectorApp`], so every run produces one
//! delivery log the metrics derive from. Group membership follows one
//! rule: a script that names `create`/`subscribe` gets exactly the
//! calls it names; one that names none, but streams multicast, has
//! every node join the group 1 s after it spawns. At an `assert`
//! checkpoint the runner hands the registered oracle a
//! [`Snapshot::of`] the world, which reads every spec layer on either
//! back end.
//!
//! A caller that needs more than the report (a figure's time series of
//! routing-table state, say) registers a read-only probe
//! ([`ScenarioRunner::sample_every`]); one slicing loop pauses the run
//! at each probe and telemetry instant.

use crate::model::{staggered, Event, Scenario, ScenarioError, Span, StreamShape};
use crate::oracle::{ConvergenceOracle, Snapshot};
use crate::report::{
    ChannelReport, LatencySummary, MetricsReport, NodeMetrics, OracleCheckReport,
    PerturbationReport,
};
use macedon_core::app::{
    shared_deliveries, CollectorApp, SharedDeliveries, StreamKind, StreamerApp,
};
use macedon_core::{Agent, DownCall, MacedonKey, NodeId, Telemetry, Time, World, WorldConfig};
use macedon_net::Topology;
use macedon_sim::{Duration, FxHashMap};
use std::collections::HashSet;

/// Builds one node's protocol stack: `(node index, host, bootstrap)` →
/// layers, lowest first. `bootstrap` is `None` for node 0 (the
/// designated root) and node 0's host otherwise.
pub type StackFactory<'a> =
    Box<dyn FnMut(usize, NodeId, Option<NodeId>) -> Vec<Box<dyn Agent>> + 'a>;

/// A read-only look at the world at one sampling instant:
/// `(now, world, the scenario's hosts)`.
type Probe<'a> = Box<dyn FnMut(Time, &World, &[NodeId]) + 'a>;

/// Delay between a node's spawn and its group join, in a multicast
/// script that names no membership.
const JOIN_DELAY: Duration = Duration(1_000_000);

/// Everything a finished run hands back: the world (for state
/// inspection), the raw delivery log, and the derived metrics.
pub struct ScenarioOutcome {
    pub world: World,
    pub hosts: Vec<NodeId>,
    pub deliveries: SharedDeliveries,
    pub report: MetricsReport,
}

/// One compiled world action (events expand: a staggered join becomes
/// one spawn per node).
enum Action {
    Spawn {
        idx: usize,
        fresh: bool,
    },
    Crash {
        idx: usize,
    },
    Partition {
        side: Vec<usize>,
    },
    Heal,
    Degrade {
        idx: usize,
        bandwidth_bps: Option<u64>,
        delay: Option<Duration>,
    },
    Restore {
        idx: usize,
    },
    /// The group's `CreateGroup` (`create`) or `Join` on one node.
    Member {
        idx: usize,
        create: bool,
    },
    Drop {
        probability: f64,
    },
    OracleCheck {
        oracle: String,
        expect_converged: bool,
    },
}

struct StreamPlan {
    start: Time,
    stop: Time,
    rate_bps: u64,
    packet_bytes: usize,
    shape: StreamShape,
}

/// The scenario engine.
pub struct ScenarioRunner<'a> {
    scenario: Scenario,
    world: World,
    hosts: Vec<NodeId>,
    factory: StackFactory<'a>,
    group: MacedonKey,
    /// Original `(delay, bandwidth)` of degraded physical links, keyed
    /// by phys id — what `restore` puts back.
    originals: FxHashMap<u32, (Duration, u64)>,
    /// Convergence oracles by registration order; `assert` checkpoints
    /// resolve them by [`ConvergenceOracle::name`].
    oracles: Vec<Box<dyn ConvergenceOracle + 'a>>,
    /// Engine-wide time-series sampler ([`Self::enable_telemetry`]);
    /// `run` slices the world's advance at its sampling boundaries.
    telemetry: Option<Telemetry>,
    /// The caller's probe, its period and its next instant
    /// ([`Self::sample_every`]).
    probe: Option<(Probe<'a>, Duration, Time)>,
}

impl<'a> ScenarioRunner<'a> {
    /// Bind a scenario to a topology and world configuration. Fails when
    /// the topology has fewer hosts than the scenario declares nodes.
    pub fn new(
        scenario: Scenario,
        topo: Topology,
        cfg: WorldConfig,
        factory: StackFactory<'a>,
    ) -> Result<ScenarioRunner<'a>, ScenarioError> {
        scenario.validate()?;
        let hosts = topo.hosts().to_vec();
        if hosts.len() < scenario.nodes {
            return Err(ScenarioError::at(
                Span::default(),
                format!(
                    "topology has {} hosts; scenario '{}' needs {}",
                    hosts.len(),
                    scenario.name,
                    scenario.nodes
                ),
            ));
        }
        let group = MacedonKey::of_name(&format!("scenario-{}", scenario.name));
        Ok(ScenarioRunner {
            scenario,
            world: World::new(topo, cfg),
            hosts,
            factory,
            group,
            originals: FxHashMap::default(),
            oracles: Vec::new(),
            telemetry: None,
            probe: None,
        })
    }

    /// The multicast group scripted streams publish to, and that
    /// `create`/`subscribe` create and join: `scenario-<name>`.
    pub fn group(&self) -> MacedonKey {
        self.group
    }

    /// Does nothing: the engine is one sequential event loop. Kept only
    /// because the repo benchmark's `scale-star-sharded` workload calls
    /// it; ROADMAP item 3 retires that workload and removes this.
    pub fn set_workers(&mut self, _workers: usize) {}

    /// Register a convergence oracle for `assert` checkpoints.
    pub fn register_oracle(&mut self, oracle: Box<dyn ConvergenceOracle + 'a>) {
        self.oracles.push(oracle);
    }

    /// Snapshot engine counters every `every` of virtual time; the
    /// series lands on [`MetricsReport::telemetry`]. Sampling is
    /// read-only, so enabling it never changes run results.
    pub fn enable_telemetry(&mut self, every: Duration) {
        self.telemetry = Some(Telemetry::new(every));
    }

    /// Call `probe` at 0, `every`, `2·every`, … and at the scenario's
    /// end (once, also when `every` does not divide it), each time after
    /// the world has run every event due by then and before the scripted
    /// actions of that instant. The probe only reads, so the outcome is
    /// the same with or without it.
    pub fn sample_every(
        &mut self,
        every: Duration,
        probe: impl FnMut(Time, &World, &[NodeId]) + 'a,
    ) {
        assert!(every > Duration::ZERO, "probe interval must be nonzero");
        self.probe = Some((Box::new(probe), every, Time::ZERO));
    }

    /// Advance the world to `to`, pausing on the way at every telemetry
    /// and probe instant due by then. With neither this is `run_until`.
    fn advance(&mut self, to: Time) {
        loop {
            let tel_due = self.telemetry.as_ref().map(|t| t.next_due(Time::ZERO));
            let probe_due = self.probe.as_ref().map(|&(_, _, next)| next);
            let Some(due) = tel_due.into_iter().chain(probe_due).min() else {
                break;
            };
            if due > to {
                break;
            }
            self.world.run_until(due);
            if tel_due == Some(due) {
                self.telemetry.as_mut().expect("due").sample(&self.world);
            }
            if probe_due == Some(due) {
                let (probe, every, next) = self.probe.as_mut().expect("due");
                probe(due, &self.world, &self.hosts[..self.scenario.nodes]);
                let end = self.scenario.end;
                *next = if due < end {
                    end.min(due + *every)
                } else {
                    due + *every
                };
            }
        }
        self.world.run_until(to);
    }

    /// Expand the scenario into `(time, Action)` pairs, stable-sorted.
    fn compile(&self) -> Vec<(Time, Action)> {
        let mut out: Vec<(Time, Action)> = Vec::new();
        for te in &self.scenario.events {
            let at = te.at;
            match &te.event {
                Event::Join { nodes, over } | Event::Rejoin { nodes, over } => {
                    let fresh = matches!(te.event, Event::Join { .. });
                    for (t, idx) in staggered(at, *over, nodes) {
                        out.push((t, Action::Spawn { idx, fresh }));
                    }
                }
                Event::Create { node } => {
                    out.push((
                        at,
                        Action::Member {
                            idx: *node,
                            create: true,
                        },
                    ));
                }
                Event::Subscribe { nodes, over } => {
                    for (t, idx) in staggered(at, *over, nodes) {
                        out.push((t, Action::Member { idx, create: false }));
                    }
                }
                Event::Crash { nodes } => {
                    out.extend(nodes.iter().map(|&idx| (at, Action::Crash { idx })));
                }
                Event::Partition { side, .. } => {
                    out.push((at, Action::Partition { side: side.clone() }));
                }
                Event::Heal { .. } => out.push((at, Action::Heal)),
                Event::Degrade {
                    nodes,
                    bandwidth_bps,
                    delay,
                } => {
                    let (bandwidth_bps, delay) = (*bandwidth_bps, *delay);
                    for &idx in nodes {
                        let degrade = Action::Degrade {
                            idx,
                            bandwidth_bps,
                            delay,
                        };
                        out.push((at, degrade));
                    }
                }
                Event::Restore { nodes } => {
                    out.extend(nodes.iter().map(|&idx| (at, Action::Restore { idx })));
                }
                Event::Drop { probability } => {
                    out.push((
                        at,
                        Action::Drop {
                            probability: *probability,
                        },
                    ));
                }
                Event::Stream { .. } => {} // installed at spawn time
                Event::Assert { oracle, converged } => out.push((
                    at,
                    Action::OracleCheck {
                        oracle: oracle.clone(),
                        expect_converged: *converged,
                    },
                )),
            }
        }
        // Stable: same-instant actions keep their script order.
        out.sort_by_key(|&(t, _)| t);
        out
    }

    /// Stream plans per node index.
    fn stream_plans(&self) -> FxHashMap<usize, StreamPlan> {
        let mut plans = FxHashMap::default();
        for te in &self.scenario.events {
            if let Event::Stream {
                node,
                rate_bps,
                packet_bytes,
                duration,
                shape,
            } = &te.event
            {
                plans.insert(
                    *node,
                    StreamPlan {
                        start: te.at,
                        stop: te.at + *duration,
                        rate_bps: *rate_bps,
                        packet_bytes: *packet_bytes,
                        shape: *shape,
                    },
                );
            }
        }
        plans
    }

    /// Drive the scenario to its end and derive the metrics report.
    pub fn run(mut self) -> ScenarioOutcome {
        let sink = shared_deliveries();
        let plans = self.stream_plans();
        let join_on_spawn = !self.scenario.names_membership()
            && plans.values().any(|p| p.shape == StreamShape::Multicast);
        let actions = self.compile();

        // Perturbation bookkeeping: a perturbation's convergence is the
        // last membership change observed before the next perturbation
        // (or run end), relative to its instant.
        let mut perturbations: Vec<PerturbationReport> = Vec::new();
        let close_last = |world: &World, ps: &mut Vec<PerturbationReport>| {
            if let Some(p) = ps.last_mut() {
                let last = world.last_membership_change();
                p.convergence = (last > p.at).then(|| last.saturating_since(p.at));
            }
        };
        let mut pending = self
            .scenario
            .events
            .iter()
            .filter(|te| te.event.is_perturbation())
            .map(|te| (te.at, te.event.label()))
            .collect::<Vec<_>>()
            .into_iter()
            .peekable();
        let mut checks: Vec<OracleCheckReport> = Vec::new();

        for (at, action) in actions {
            self.advance(at);
            // Open every perturbation window that starts by this instant,
            // closing the one before it.
            while let Some((at, what)) = pending.next_if(|p| p.0 <= at) {
                close_last(&self.world, &mut perturbations);
                perturbations.push(PerturbationReport {
                    at,
                    what,
                    convergence: None,
                    deliveries_during: 0,
                });
            }
            if let Action::OracleCheck {
                oracle,
                expect_converged,
            } = action
            {
                checks.push(self.oracle_check(at, oracle, expect_converged));
            } else {
                self.apply(at, action, &sink, &plans, join_on_spawn);
            }
        }
        self.advance(self.scenario.end);
        close_last(&self.world, &mut perturbations);

        // Deliveries per perturbation window (until the next one / end).
        {
            let log = sink.lock();
            for i in 0..perturbations.len() {
                let from = perturbations[i].at;
                let to = perturbations
                    .get(i + 1)
                    .map(|p| p.at)
                    .unwrap_or(self.scenario.end);
                perturbations[i].deliveries_during =
                    log.iter().filter(|r| r.at >= from && r.at < to).count() as u64;
            }
        }

        let report = self.build_report(&sink, &plans, perturbations, checks);
        ScenarioOutcome {
            world: self.world,
            hosts: self.hosts,
            deliveries: sink,
            report,
        }
    }

    /// Evaluate one `assert` checkpoint against a fresh snapshot. An
    /// unregistered oracle name is a failed check, never a silent pass.
    fn oracle_check(&self, at: Time, oracle: String, expect_converged: bool) -> OracleCheckReport {
        let found = self.oracles.iter().find(|o| o.name() == oracle);
        let violations: Vec<String> = match found {
            Some(o) => {
                let snapshot = Snapshot::of(&self.world, &self.hosts[..self.scenario.nodes]);
                o.check(&snapshot).iter().map(|v| v.to_string()).collect()
            }
            None => vec![format!("no oracle registered under the name '{oracle}'")],
        };
        let converged = violations.is_empty();
        OracleCheckReport {
            at,
            oracle,
            expect_converged,
            converged,
            violations,
            passed: found.is_some() && converged == expect_converged,
        }
    }

    fn apply(
        &mut self,
        now: Time,
        action: Action,
        sink: &SharedDeliveries,
        plans: &FxHashMap<usize, StreamPlan>,
        join_on_spawn: bool,
    ) {
        let group = self.group;
        match action {
            Action::Spawn { idx, fresh } => {
                let host = self.hosts[idx];
                if !fresh {
                    self.world.despawn(host);
                }
                let bootstrap = (idx != 0).then(|| self.hosts[0]);
                let stack = (self.factory)(idx, host, bootstrap);
                let app: Box<dyn macedon_core::AppHandler> = match plans.get(&idx) {
                    Some(p) => {
                        let kind = match p.shape {
                            StreamShape::Multicast => StreamKind::Multicast { group },
                            StreamShape::RandomRoute => StreamKind::RandomRoute,
                        };
                        Box::new(StreamerApp::new(
                            kind,
                            p.rate_bps,
                            p.packet_bytes,
                            p.start,
                            p.stop,
                            sink.clone(),
                        ))
                    }
                    None => Box::new(CollectorApp::new(sink.clone())),
                };
                self.world.spawn_at(now, host, stack, app);
                if join_on_spawn {
                    self.world
                        .api_at(now + JOIN_DELAY, host, DownCall::Join { group });
                }
            }
            Action::Member { idx, create } => {
                let call = if create {
                    DownCall::CreateGroup { group }
                } else {
                    DownCall::Join { group }
                };
                self.world.api_at(now, self.hosts[idx], call);
            }
            Action::Crash { idx } => {
                let host = self.hosts[idx];
                self.world.crash_at(now, host);
            }
            Action::Partition { side } => {
                let set: HashSet<NodeId> = side.iter().map(|&i| self.hosts[i]).collect();
                self.world.net_mut().faults_mut().set_partition(set);
            }
            Action::Heal => self.world.net_mut().faults_mut().heal_partition(),
            Action::Degrade {
                idx,
                bandwidth_bps,
                delay,
            } => {
                let host = self.hosts[idx];
                let phys = self.world.net().topology().phys_links_of(host);
                for p in phys {
                    // Remember the first-seen (original) properties for
                    // `restore`.
                    let orig = self
                        .world
                        .net()
                        .topology()
                        .phys_link_props(p)
                        .expect("phys link exists");
                    self.originals.entry(p).or_insert(orig);
                    self.world.net_mut().set_phys_link(p, bandwidth_bps, delay);
                }
            }
            Action::Restore { idx } => {
                let host = self.hosts[idx];
                for p in self.world.net().topology().phys_links_of(host) {
                    if let Some(&(delay, bw)) = self.originals.get(&p) {
                        self.world.net_mut().set_phys_link(p, Some(bw), Some(delay));
                    }
                }
            }
            Action::Drop { probability } => self
                .world
                .net_mut()
                .faults_mut()
                .set_drop_probability(probability),
            Action::OracleCheck { .. } => unreachable!("handled in run()"),
        }
    }

    fn build_report(
        &mut self,
        sink: &SharedDeliveries,
        plans: &FxHashMap<usize, StreamPlan>,
        perturbations: Vec<PerturbationReport>,
        oracle_checks: Vec<OracleCheckReport>,
    ) -> MetricsReport {
        let log = sink.lock();
        // Stream source keys → plan, for latency reconstruction.
        let by_src: Vec<(MacedonKey, &StreamPlan)> = plans
            .iter()
            .map(|(&idx, p)| (self.world.key_of(self.hosts[idx]), p))
            .collect();
        let single = (by_src.len() == 1).then(|| by_src[0].1);
        let interval_us = |p: &StreamPlan| {
            (p.packet_bytes as u64 * 8).saturating_mul(1_000_000) / p.rate_bps.max(1)
        };

        // One pass over the delivery log, accumulating per-node (the
        // log can hold tens of thousands of records; scanning it once
        // per node would be O(nodes × log)).
        #[derive(Clone, Copy, Default)]
        struct Acc {
            delivered: u64,
            bytes: u64,
            lat_sum: Duration,
            lat_n: u64,
            lat_max: Duration,
        }
        let idx_of: FxHashMap<NodeId, usize> = self.hosts[..self.scenario.nodes]
            .iter()
            .enumerate()
            .map(|(i, &h)| (h, i))
            .collect();
        let mut accs = vec![Acc::default(); self.scenario.nodes];
        let mut lat_samples: Vec<u64> = Vec::new();
        for r in log.iter() {
            let Some(&idx) = idx_of.get(&r.node) else {
                continue;
            };
            let a = &mut accs[idx];
            a.delivered += 1;
            a.bytes += r.bytes as u64;
            let plan = by_src
                .iter()
                .find(|(k, _)| *k == r.src)
                .map(|&(_, p)| p)
                .or(single);
            if let (Some(p), Some(seq)) = (plan, r.seqno) {
                let sent = p.start + Duration(seq.saturating_mul(interval_us(p)));
                if r.at >= sent {
                    let lat = r.at.saturating_since(sent);
                    a.lat_sum += lat;
                    a.lat_n += 1;
                    a.lat_max = a.lat_max.max(lat);
                    lat_samples.push(lat.as_micros());
                }
            }
        }
        // Goodput over the stream window (single-stream runs), else the
        // whole run.
        let window = single
            .map(|p| p.stop.saturating_since(p.start))
            .unwrap_or_else(|| self.scenario.end.saturating_since(Time::ZERO));
        let nodes: Vec<NodeMetrics> = accs
            .iter()
            .enumerate()
            .map(|(idx, a)| {
                let goodput_bps = if window > Duration::ZERO {
                    a.bytes * 8 * 1_000_000 / window.as_micros().max(1)
                } else {
                    0
                };
                NodeMetrics {
                    index: idx,
                    node: self.hosts[idx],
                    alive: self.world.is_alive(self.hosts[idx]),
                    delivered: a.delivered,
                    bytes: a.bytes,
                    mean_latency: (a.lat_n > 0).then(|| Duration(a.lat_sum.as_micros() / a.lat_n)),
                    max_latency: (a.lat_n > 0).then_some(a.lat_max),
                    goodput_bps,
                }
            })
            .collect();

        // Transport overhead per channel, aggregated across nodes that
        // still hold their endpoint (rejoins reset their counters).
        let channel_names: Vec<String> = self
            .world
            .channels()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let mut channels: Vec<ChannelReport> = channel_names
            .iter()
            .map(|name| ChannelReport {
                channel: name.clone(),
                segments: 0,
                retransmissions: 0,
                acks: 0,
                messages: 0,
                bytes: 0,
            })
            .collect();
        for idx in 0..self.scenario.nodes {
            if let Some(ep) = self.world.endpoint(self.hosts[idx]) {
                for (ci, ch) in channels.iter_mut().enumerate() {
                    let st = ep.channel_stats(macedon_core::ChannelId(ci as u16));
                    ch.segments += st.segments_sent;
                    ch.retransmissions += st.retransmissions;
                    ch.acks += st.acks_sent;
                    ch.messages += st.messages_delivered;
                    ch.bytes += st.bytes_sent;
                }
            }
        }

        let total_delivered = nodes.iter().map(|n| n.delivered).sum();
        let total_bytes = nodes.iter().map(|n| n.bytes).sum();
        MetricsReport {
            scenario: self.scenario.name.clone(),
            end: self.scenario.end,
            alive: self.world.alive_nodes().count(),
            net_drops: self.world.net().total_drops(),
            total_delivered,
            total_bytes,
            latency: LatencySummary::from_samples_us(&lat_samples),
            nodes,
            perturbations,
            channels,
            oracle_checks,
            telemetry: self.telemetry.take().map(Telemetry::into_report),
        }
    }
}
