//! The experiment implementations behind the `figures` binary.
//!
//! Each function reproduces one figure of the paper's §4 and returns the
//! rows/series to print; the README's "Figures" section is `figures`'
//! output beside the paper's values.
//!
//! A figure run is three parts: a scenario script (joins, group
//! membership, streams), a stack factory, and a reducer over the run's
//! [`ScenarioOutcome`] or a probe's samples
//! ([`ScenarioRunner::sample_every`]). Every run goes through
//! [`scenario_runner`]: a bundled protocol's through
//! [`Backend::runner`], as do the `bench_scale` runs and the `churn`
//! example, and a registry the caller built through [`spec_runner`].
//! [`figures`] runs every figure's independent runs as cells of one
//! worker pool ([`macedon_scenario::pool`], the pool sweeps run on).

use crate::freepastry::{RmiModel, RmiQueue};
use crate::lsd::{chord_registry, LSD};
use crate::Scale;
use macedon_core::app::SharedDeliveries;
use macedon_core::{
    Agent, Bytes, ChannelSpec, Duration, MacedonKey, NodeId, Ring, Time, TraceLevel, World,
    WorldConfig,
};
use macedon_lang::SpecRegistry;
use macedon_net::topology::{canned, inet, InetParams, LinkSpec};
use macedon_net::Topology;
use macedon_overlays::nice::Nice;
use macedon_overlays::pastry::{Pastry, PastryConfig};
use macedon_overlays::scribe::{DataPath, Scribe, ScribeConfig};
use macedon_overlays::splitstream::{SplitStream, SplitStreamConfig};
use macedon_scenario::{pool, ScenarioOutcome, ScenarioRunner};
use macedon_sim::SimRng;
use std::sync::OnceLock;

/// The one way an experiment here runs a scenario: `script` bound to
/// `topo` and a world built from `cfg`, every node running the stack
/// `build(bootstrap)` returns.
pub fn scenario_runner<'a>(
    script: &str,
    topo: Topology,
    cfg: WorldConfig,
    mut build: impl FnMut(Option<NodeId>) -> Vec<Box<dyn Agent>> + 'a,
) -> ScenarioRunner<'a> {
    let scenario = macedon_scenario::script::parse(script).expect("scenario validates");
    ScenarioRunner::new(
        scenario,
        topo,
        cfg,
        Box::new(move |_idx, _host, bootstrap| build(bootstrap)),
    )
    .expect("scenario binds")
}

/// [`scenario_runner`] running `proto`'s interpreted stack from
/// `registry`, in a world built from `cfg` with the stack's channel
/// table. For a registry the caller built; a bundled protocol runs
/// through [`Backend::runner`].
pub fn spec_runner<'a>(
    script: &str,
    topo: Topology,
    cfg: WorldConfig,
    registry: &'a SpecRegistry,
    proto: &'a str,
) -> ScenarioRunner<'a> {
    let cfg = WorldConfig {
        channels: registry.channel_table_for(proto).expect("chain resolves"),
        ..cfg
    };
    scenario_runner(script, topo, cfg, move |bootstrap| {
        registry
            .build_stack(proto, bootstrap)
            .expect("stack builds")
    })
}

/// The two back ends a bundled protocol runs on: its spec interpreted
/// from the bundled roster, or the agents generated from that spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Interpreted,
    Generated,
}

impl Backend {
    /// `proto`'s stack, lowest layer first.
    pub fn build_stack(self, proto: &str, bootstrap: Option<NodeId>) -> Vec<Box<dyn Agent>> {
        match self {
            Backend::Interpreted => bundled()
                .build_stack(proto, bootstrap)
                .expect("stack builds"),
            Backend::Generated => {
                macedon_generated::build_stack(proto, bootstrap).expect("generated stack")
            }
        }
    }

    /// The channel table `proto`'s stack expects.
    pub fn channel_table(self, proto: &str) -> Vec<ChannelSpec> {
        match self {
            Backend::Interpreted => bundled().channel_table_for(proto).expect("chain resolves"),
            Backend::Generated => macedon_generated::channel_table(proto).expect("generated table"),
        }
    }

    /// `proto` on this back end on every host of `topo`, in a world
    /// built from `cfg` with the stack's channel table
    /// ([`World::spawn_each`]).
    pub fn world(
        self,
        proto: &str,
        topo: Topology,
        cfg: WorldConfig,
        stagger: Duration,
    ) -> (World, Vec<NodeId>, SharedDeliveries) {
        let cfg = WorldConfig {
            channels: self.channel_table(proto),
            ..cfg
        };
        let mut w = World::new(topo, cfg);
        let (hosts, sink) = w.spawn_each(stagger, |bootstrap| self.build_stack(proto, bootstrap));
        (w, hosts, sink)
    }

    /// `script` run through [`scenario_runner`] with `proto` on this
    /// back end on every node, in a world built from `cfg` with the
    /// stack's channel table.
    pub fn runner<'a>(
        self,
        proto: &'a str,
        script: &str,
        topo: Topology,
        cfg: WorldConfig,
    ) -> ScenarioRunner<'a> {
        let cfg = WorldConfig {
            channels: self.channel_table(proto),
            ..cfg
        };
        scenario_runner(script, topo, cfg, move |bootstrap| {
            self.build_stack(proto, bootstrap)
        })
    }
}

/// A star of paper-era constrained access links (2 ms, 2 Mbps, 64 KiB
/// queues): fig12's topology, and the churn runs'.
pub fn thin_star(nodes: usize) -> Topology {
    canned::star(
        nodes,
        LinkSpec::new(Duration::from_millis(2), 2_000_000, 64 * 1024),
    )
}

/// A star of fat access links (2 ms, 100 Mbps, 1 MiB queues): the
/// scale curve's topology. At 10k+ nodes a [`thin_star`]'s hub would
/// collapse under the join storm and the overlay would never converge;
/// the curve measures the scheduler under population growth, not hub
/// congestion.
pub fn fat_star(nodes: usize) -> Topology {
    canned::star(
        nodes,
        LinkSpec::new(Duration::from_millis(2), 100_000_000, 1024 * 1024),
    )
}

/// The bundled roster, compiled once per process: what
/// [`Backend::Interpreted`] runs.
pub fn bundled() -> &'static SpecRegistry {
    static BUNDLED: OnceLock<SpecRegistry> = OnceLock::new();
    BUNDLED.get_or_init(SpecRegistry::bundled)
}

// ---------------------------------------------------------------------------
// Figure 7 — specification lines of code
// ---------------------------------------------------------------------------

/// (protocol, spec LoC, semicolons, generated Rust LoC, paper-reported
/// approximate spec LoC read off Figure 7's bars, interpreted stack
/// depth once the `uses` chain resolves).
pub struct Fig7Row {
    pub name: &'static str,
    pub loc: usize,
    pub semicolons: usize,
    pub generated_loc: usize,
    pub paper_loc: usize,
    /// Layers in the interpreted stack (1 = lowest-layer protocol,
    /// 3 = splitstream → scribe → pastry). Every roster spec now
    /// instantiates, so this doubles as the "interpretable" marker.
    pub layers: usize,
}

pub fn fig7() -> Vec<Fig7Row> {
    let paper: &[(&str, usize)] = &[
        ("ammo", 520),
        ("bullet", 480),
        ("chord", 260),
        ("nice", 500),
        ("overcast", 430),
        ("pastry", 400),
        ("scribe", 220),
        ("splitstream", 180),
    ];
    let registry = macedon_lang::SpecRegistry::bundled();
    macedon_lang::bundled_specs()
        .into_iter()
        .filter(|(name, _)| paper.iter().any(|(n, _)| n == name))
        .map(|(name, src)| {
            let ir = registry.get(name).expect("bundled spec is registered");
            let chain = registry
                .resolve_chain(name)
                .expect("bundled chain resolves");
            // The checked-in artifact of a layered spec is generated
            // against its chain's base transport table.
            let base = ir.layered.then(|| chain[0].spec.transports.as_slice());
            Fig7Row {
                name,
                loc: macedon_lang::loc::spec_loc(src),
                semicolons: macedon_lang::loc::semicolons(src),
                generated_loc: macedon_lang::codegen::generated_loc(ir, base),
                paper_loc: paper
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, l)| l)
                    .unwrap_or(0),
                layers: chain.len(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 8 & 9 — NICE stretch and latency across 8 sites
// ---------------------------------------------------------------------------

pub struct NiceSiteRow {
    pub site: usize,
    pub mean_stretch: f64,
    pub mean_latency_ms: f64,
    /// Values read off the paper's Figures 8/9 (the NICE SIGCOMM series).
    pub paper_stretch: f64,
    pub paper_latency_ms: f64,
}

/// The 8-site inter-site latency matrix re-created from the NICE paper's
/// Internet experiment (ms, symmetric, zero diagonal).
pub fn nice_site_latencies() -> Vec<Vec<u64>> {
    // Transcontinental-ish spread: near sites ~10-20 ms, far ~35-48 ms.
    let m: [[u64; 8]; 8] = [
        [0, 12, 18, 35, 40, 22, 30, 44],
        [12, 0, 10, 30, 38, 20, 26, 42],
        [18, 10, 0, 25, 33, 16, 22, 38],
        [35, 30, 25, 0, 14, 28, 18, 20],
        [40, 38, 33, 14, 0, 34, 22, 12],
        [22, 20, 16, 28, 34, 0, 15, 36],
        [30, 26, 22, 18, 22, 15, 0, 24],
        [44, 42, 38, 20, 12, 36, 24, 0],
    ];
    m.iter().map(|r| r.to_vec()).collect()
}

pub fn fig8_9(scale: Scale) -> Vec<NiceSiteRow> {
    let members_per_site = match scale {
        Scale::Quick => 4,
        Scale::Paper => 8, // 64 members total, as in the paper
    };
    let converge_s = match scale {
        Scale::Quick => 180,
        Scale::Paper => 300,
    };
    let lat = nice_site_latencies();
    let sites = lat.len();
    let n = sites * members_per_site;
    let topo = canned::sites(&lat, members_per_site, LinkSpec::lan());
    // Joins 400 ms apart, then 40 packets at 10/s from the first member.
    let script = format!(
        "scenario fig8-9\nnodes {n}\nend {end}s\n\
         at 0s join 0..{n} over {stagger}ms\n\
         at {converge_s}s stream 0 rate 80kbps size 1000 for 4s multicast\n",
        end = converge_s + 60,
        stagger = 400 * n,
    );
    let mut out = scenario_runner(&script, topo, WorldConfig::seeded(8), |rendezvous| {
        vec![Box::new(Nice::new(rendezvous))]
    })
    .run();
    let hosts = &out.hosts;
    let base = Time::from_secs(converge_s);

    // Per-site stretch and latency.
    let paper8: [f64; 8] = [1.6, 1.8, 2.0, 2.3, 2.6, 2.2, 3.0, 4.2];
    let paper9: [f64; 8] = [8.0, 12.0, 15.0, 20.0, 25.0, 22.0, 30.0, 41.0];
    let log = out.deliveries.lock();
    (0..sites)
        .map(|site| {
            let mut stretches = Vec::new();
            let mut lats = Vec::new();
            for rec in log.iter() {
                let idx = hosts.iter().position(|&h| h == rec.node).expect("member");
                if idx / members_per_site != site {
                    continue;
                }
                let Some(seq) = rec.seqno else { continue };
                let sent = base + Duration::from_millis(seq * 100);
                let lat_s = rec.at.saturating_since(sent).as_secs_f64();
                let direct = out
                    .world
                    .net_mut()
                    .oracle_latency(hosts[0], rec.node)
                    .map(|d| d.as_secs_f64())
                    .unwrap_or(0.0);
                if direct > 0.0 && rec.node != hosts[0] {
                    stretches.push(lat_s / direct);
                    lats.push(lat_s * 1_000.0);
                }
            }
            NiceSiteRow {
                site,
                mean_stretch: mean(stretches),
                mean_latency_ms: mean(lats),
                paper_stretch: paper8[site],
                paper_latency_ms: paper9[site],
            }
        })
        .collect()
}

/// The mean of `xs` (0 when there are none): the one statistics helper
/// behind every figure.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut n = 0usize;
    let sum: f64 = xs.into_iter().inspect(|_| n += 1).sum();
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// A seeded INET graph of `routers` routers with `clients` hosts, the
/// paper's topology generator (figs 10 and 11).
fn inet_graph(routers: usize, clients: usize, seed: u64) -> Topology {
    let params = InetParams {
        routers,
        clients,
        ..Default::default()
    };
    inet(&params, &mut SimRng::new(seed))
}

// ---------------------------------------------------------------------------
// Figure 10 — Chord routing-table convergence
// ---------------------------------------------------------------------------

pub struct Fig10Series {
    /// (seconds, avg correct entries) sampled every 2 s, per flavor.
    pub macedon_1s: Vec<(f64, f64)>,
    pub lsd: Vec<(f64, f64)>,
    pub macedon_20s: Vec<(f64, f64)>,
}

/// Correct finger entries summed over the `hosts` running `chord.mac`
/// at layer 0 (a host not yet spawned counts zero): entry `i` of node
/// `n` is correct when the owner of `key(n) + 2^i` — global knowledge
/// over `hosts` — is among `n`'s fingers.
pub fn correct_fingers(w: &World, hosts: &[NodeId]) -> usize {
    let ring = Ring::new(hosts, w.config().addressing);
    hosts
        .iter()
        .filter_map(|&h| {
            let fingers = w.stack(h)?.agent(0).view()?.list("fingers")?;
            let me = w.key_of(h);
            Some(
                (0..32)
                    .filter(|&i| fingers.contains(&ring.owner(me.plus_pow2(i))))
                    .count(),
            )
        })
        .sum()
}

/// `chord.mac` under `constants` on every host of `topo`, joining
/// `stagger_ms` apart, to `run_s`: the average correct finger entries
/// per host ([`correct_fingers`]) at 0, 2, 4, … s and at `run_s` — the
/// paper's "routing tables every two seconds" against global knowledge.
pub fn finger_series(
    topo: Topology,
    constants: &[(&str, i64)],
    stagger_ms: u64,
    run_s: u64,
    seed: u64,
) -> Vec<(f64, f64)> {
    let nodes = topo.hosts().len();
    let script = format!(
        "scenario fig10\nnodes {nodes}\nend {run_s}s\nat 0s join 0..{nodes} over {over}ms\n",
        over = stagger_ms * nodes as u64,
    );
    let registry = chord_registry(constants);
    let mut series = Vec::new();
    let mut runner = spec_runner(&script, topo, WorldConfig::seeded(seed), &registry, "chord");
    runner.sample_every(Duration::from_secs(2), |t, w, hosts| {
        let avg = correct_fingers(w, hosts) as f64 / hosts.len() as f64;
        series.push((t.as_secs_f64(), avg));
    });
    runner.run();
    series
}

/// fig10's three flavors, one spec, `chord.mac`, under three constant
/// sets: static 1 s and 20 s `fix_fingers` periods, and lsd's adaptive
/// policy ([`LSD`]).
const FIG10_FLAVORS: [&[(&str, i64)]; 3] = [
    &[("FIX_FINGERS_MS", 1_000)],
    &LSD,
    &[("FIX_FINGERS_MS", 20_000)],
];

/// fig10 under `flavor`: the finger series of `chord.mac` on an INET
/// graph, joins staggered across the first third of the run, as in the
/// paper ("routing tables converge steadily as nodes join").
fn fig10_run(scale: Scale, flavor: &[(&str, i64)]) -> Vec<(f64, f64)> {
    let (routers, clients, run_s) = match scale {
        Scale::Quick => (200, 48, 120),
        Scale::Paper => (20_000, 1_000, 120),
    };
    let topo = inet_graph(routers, clients, 10);
    let stagger_ms = run_s * 1000 / 3 / clients as u64;
    finger_series(topo, flavor, stagger_ms, run_s, 10)
}

// ---------------------------------------------------------------------------
// Figure 11 — Pastry latency vs FreePastry
// ---------------------------------------------------------------------------

pub struct Fig11Row {
    pub nodes: usize,
    pub macedon_s: f64,
    /// `None` beyond the RMI model's memory cap (the paper could not run
    /// FreePastry past 100 participants).
    pub freepastry_s: Option<f64>,
}

/// fig11's node counts, each run with and without the RMI queue (the
/// latter only up to the RMI model's memory cap).
fn fig11_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![8, 16, 32, 64],
        Scale::Paper => vec![4, 10, 25, 50, 100, 150, 200, 250],
    }
}

/// fig11 on `nodes` hosts: the mean packet latency of
/// [`route_latencies`], behind the RMI queue when `rmi` is set.
fn fig11_run(scale: Scale, nodes: usize, rmi: bool) -> f64 {
    let (routers, converge_s, stream_s) = match scale {
        Scale::Quick => (200, 60, 40),
        Scale::Paper => (20_000, 300, 120),
    };
    let topo = inet_graph(routers, nodes, 11);
    mean(route_latencies(topo, converge_s, stream_s, rmi))
}

/// Each delivered packet's delay (s), in delivery order, with
/// `pastry.mac` on every host of `topo`, each agent behind the
/// FreePastry [`RmiQueue`] when `rmi` is set.
/// Joins 50 ms apart; "we allowed routing tables to converge for 300
/// seconds before streaming data": then every node routes 1000-byte
/// packets at 10 Kbps to random keys for `stream_s`.
pub fn route_latencies(topo: Topology, converge_s: u64, stream_s: u64, rmi: bool) -> Vec<f64> {
    let n = topo.hosts().len();
    let mut script = format!(
        "scenario fig11\nnodes {n}\nend {end}s\nat 0s join 0..{n} over {stagger}ms\n",
        end = converge_s + stream_s + 10,
        stagger = 50 * n,
    );
    for i in 0..n {
        script +=
            &format!("at {converge_s}s stream {i} rate 10kbps size 1000 for {stream_s}s route\n");
    }
    let cfg = WorldConfig {
        channels: Backend::Interpreted.channel_table("pastry"),
        ..WorldConfig::seeded(11)
    };
    let outcome = scenario_runner(&script, topo, cfg, |bootstrap| {
        let mut stack = Backend::Interpreted.build_stack("pastry", bootstrap);
        if rmi {
            let pastry = stack.pop().expect("pastry is one layer");
            stack.push(Box::new(RmiQueue::new(pastry, RmiModel::default())));
        }
        stack
    })
    .run();
    // Send times are reconstructed from each streamer's fixed 0.8 s
    // interval; since every node streams at the same phase, delay =
    // delivery minus the seq's slot start.
    let log = outcome.deliveries.lock();
    let interval_us = 1_000u64 * 8 * 1_000_000 / 10_000; // 0.8 s
    let mut lats = Vec::new();
    for rec in log.iter() {
        let Some(seq) = rec.seqno else { continue };
        let sent = Time::from_secs(converge_s) + Duration::from_micros(seq * interval_us);
        if rec.at >= sent {
            lats.push(rec.at.saturating_since(sent).as_secs_f64());
        }
    }
    lats
}

// ---------------------------------------------------------------------------
// Figure 12 — SplitStream bandwidth under two cache policies
// ---------------------------------------------------------------------------

pub struct Fig12Series {
    /// (seconds since stream start, mean per-node goodput in Kbps).
    pub no_eviction: Vec<(f64, f64)>,
    pub with_eviction: Vec<(f64, f64)>,
    /// Overlay nodes in the from-spec run.
    pub from_spec_nodes: usize,
    /// A smaller streaming scenario over the fully interpreted
    /// `splitstream.mac` → `scribe.mac` → `pastry.mac` stack, which
    /// has no location cache.
    pub from_spec: Vec<(f64, f64)>,
}

/// Figure 12's native stack: SplitStream over Scribe's location cache
/// (at most 8 children) over Pastry, whose cache entries live
/// `cache_lifetime`.
pub fn fig12_stack(
    cache_lifetime: Option<Duration>,
) -> impl FnMut(Option<NodeId>) -> Vec<Box<dyn Agent>> {
    move |bootstrap| {
        let pastry = Pastry::new(PastryConfig {
            bootstrap,
            cache_lifetime,
        });
        let scribe = Scribe::new(ScribeConfig {
            data_path: DataPath::LocationCache,
            max_children: Some(8),
        });
        let split = SplitStream::new(SplitStreamConfig::default());
        vec![Box::new(pastry), Box::new(scribe), Box::new(split)]
    }
}

/// Figure 12's native run: [`fig12_stack`] on a [`thin_star`], nodes
/// joining 100 ms apart. The stream plus forwarding load runs close to
/// the links' capacity, so the extra bandwidth consumed re-establishing
/// evicted cache entries costs real goodput. Node 0 creates the group
/// at 5 s and streams 1000-byte packets at 600 kbit/s after
/// convergence; "all other nodes join the multicast session as
/// receivers", from 6 s, 100 ms apart. Returns the per-5 s goodput
/// series.
fn fig12_run(scale: Scale, cache_lifetime: Option<Duration>) -> Vec<(f64, f64)> {
    let (nodes, converge_s, stream_s) = match scale {
        Scale::Quick => (32usize, 60u64, 90u64),
        Scale::Paper => (300, 300, 300),
    };
    let script = format!(
        "scenario fig12\nnodes {nodes}\nend {end}s\n\
         at 0s join 0..{nodes} over {stagger}ms\n\
         at 5s create 0\n\
         at 6100ms subscribe 1..{nodes} over {subscribe}ms\n\
         at {converge_s}s stream 0 rate 600kbps size 1000 for {stream_s}s multicast\n",
        end = converge_s + stream_s + 10,
        stagger = nodes * 100,
        subscribe = (nodes - 1) * 100,
    );
    let outcome = scenario_runner(
        &script,
        thin_star(nodes),
        WorldConfig::seeded(12),
        fig12_stack(cache_lifetime),
    )
    .run();
    goodput_series(&outcome, converge_s, stream_s)
}

/// Per-5 s-bin mean per-receiver goodput (Kbps) of a run whose node 0
/// streams from `converge_s` for `stream_s`; every other scenario node
/// is a receiver.
pub fn goodput_series(
    outcome: &ScenarioOutcome,
    converge_s: u64,
    stream_s: u64,
) -> Vec<(f64, f64)> {
    let bin = 5.0f64;
    let nbins = (stream_s as f64 / bin) as usize;
    let receivers = outcome.report.nodes.len() - 1;
    let mut bytes_per_bin = vec![0u64; nbins];
    let log = outcome.deliveries.lock();
    let t0 = converge_s as f64;
    for rec in log.iter() {
        if rec.node == outcome.hosts[0] {
            continue;
        }
        let t = rec.at.as_secs_f64() - t0;
        if t < 0.0 {
            continue;
        }
        let idx = (t / bin) as usize;
        if idx < nbins {
            bytes_per_bin[idx] += rec.bytes as u64;
        }
    }
    bytes_per_bin
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            let kbps = b as f64 * 8.0 / bin / receivers as f64 / 1_000.0;
            (i as f64 * bin, kbps)
        })
        .collect()
}

/// Nodes, convergence and stream seconds of fig12's from-spec run.
fn fig12_from_spec_scale(scale: Scale) -> (usize, u64, u64) {
    match scale {
        Scale::Quick => (16, 60, 60),
        Scale::Paper => (64, 120, 120),
    }
}

/// Figure 12's from-spec run: the same streaming scenario over the
/// fully interpreted `splitstream.mac` → `scribe.mac` → `pastry.mac`
/// stack — the whole paper roster running from specifications.
/// `scribe.mac` builds the same rendezvous-rooted reverse-path trees as
/// the native Scribe, but `pastry.mac` has no location cache, so the
/// cache-lifetime contrast of the native series has no spec
/// counterpart, and the run is smaller (16 nodes at 200 kbit/s, 64
/// under [`Scale::Paper`]); what it demonstrates is the paper's
/// spec → running-overlay → measurement loop with zero native protocol
/// code.
///
/// The script names no membership, so every node joins the group 1 s
/// after it spawns, and the stacks run at the trace level
/// `splitstream.mac`'s `trace_` header asks for. Returns the goodput
/// series.
fn fig12_from_spec(scale: Scale) -> Vec<(f64, f64)> {
    let (nodes, converge_s, stream_s) = fig12_from_spec_scale(scale);
    let script = format!(
        "scenario fig12-from-spec\nnodes {nodes}\nend {end}s\n\
         at 0s join 0..{nodes} over {stagger}ms\n\
         at {converge_s}s stream 0 rate 200000bps size 1000 for {stream_s}s multicast\n",
        end = converge_s + stream_s + 10,
        stagger = nodes * 100,
    );
    let cfg = WorldConfig {
        trace_level: bundled()
            .trace_level_for("splitstream")
            .expect("bundled spec registered"),
        ..WorldConfig::seeded(12)
    };
    let outcome = Backend::Interpreted
        .runner("splitstream", &script, thin_star(nodes), cfg)
        .run();
    goodput_series(&outcome, converge_s, stream_s)
}

// ---------------------------------------------------------------------------
// Every figure, on one pool
// ---------------------------------------------------------------------------

/// Every figure at one scale: what the `figures` binary prints.
pub struct Figures {
    pub fig7: Vec<Fig7Row>,
    pub fig8_9: Vec<NiceSiteRow>,
    pub fig10: Fig10Series,
    pub fig11: Vec<Fig11Row>,
    pub fig12: Fig12Series,
}

/// One independent simulation behind a figure: a cell of [`figures`]'
/// pool.
#[derive(Clone, Copy, Debug)]
enum Run {
    Fig8_9,
    /// fig10 under the `i`-th of [`FIG10_FLAVORS`].
    Fig10(usize),
    Fig11 {
        nodes: usize,
        rmi: bool,
    },
    /// fig12's native run, with the 1 s cache lifetime when `evict`.
    Fig12 {
        evict: bool,
    },
    Fig12FromSpec,
}

/// What one [`Run`] yields.
enum Ran {
    Fig8_9(Vec<NiceSiteRow>),
    Series(Vec<(f64, f64)>),
    Latency(f64),
}

impl Run {
    fn run(self, scale: Scale) -> Ran {
        match self {
            Run::Fig8_9 => Ran::Fig8_9(fig8_9(scale)),
            Run::Fig10(i) => Ran::Series(fig10_run(scale, FIG10_FLAVORS[i])),
            Run::Fig11 { nodes, rmi } => Ran::Latency(fig11_run(scale, nodes, rmi)),
            Run::Fig12 { evict } => {
                Ran::Series(fig12_run(scale, evict.then(|| Duration::from_secs(1))))
            }
            Run::Fig12FromSpec => Ran::Series(fig12_from_spec(scale)),
        }
    }
}

/// Every figure at `scale`, its independent runs the cells of one pool
/// of `workers` threads (`None` = all cores). The figures are the same
/// for any worker count: each run is seeded on its own, and the pool
/// hands results back in cell order.
pub fn figures(scale: Scale, workers: Option<usize>) -> Figures {
    let cap = RmiModel::default().max_nodes;
    let sizes = fig11_sizes(scale);
    // Costliest first, so that no long run starts last.
    let mut runs = vec![
        Run::Fig10(0),
        Run::Fig12 { evict: false },
        Run::Fig12 { evict: true },
        Run::Fig10(1),
        Run::Fig10(2),
        Run::Fig12FromSpec,
    ];
    for &nodes in sizes.iter().rev() {
        runs.push(Run::Fig11 { nodes, rmi: false });
        if nodes <= cap {
            runs.push(Run::Fig11 { nodes, rmi: true });
        }
    }
    runs.push(Run::Fig8_9);
    let ran = pool(&runs, workers, |run| run.run(scale)).unwrap_or_else(|failed| {
        panic!(
            "figure run {:?} panicked: {}",
            runs[failed.index], failed.message
        )
    });

    let mut figs = Figures {
        fig7: fig7(),
        fig8_9: Vec::new(),
        fig10: Fig10Series {
            macedon_1s: Vec::new(),
            lsd: Vec::new(),
            macedon_20s: Vec::new(),
        },
        fig11: sizes
            .iter()
            .map(|&nodes| Fig11Row {
                nodes,
                macedon_s: 0.0,
                freepastry_s: None,
            })
            .collect(),
        fig12: Fig12Series {
            no_eviction: Vec::new(),
            with_eviction: Vec::new(),
            from_spec_nodes: fig12_from_spec_scale(scale).0,
            from_spec: Vec::new(),
        },
    };
    for (run, ran) in runs.into_iter().zip(ran) {
        match (run, ran) {
            (Run::Fig8_9, Ran::Fig8_9(rows)) => figs.fig8_9 = rows,
            (Run::Fig10(i), Ran::Series(s)) => {
                let f = &mut figs.fig10;
                *[&mut f.macedon_1s, &mut f.lsd, &mut f.macedon_20s][i] = s;
            }
            (Run::Fig11 { nodes, rmi }, Ran::Latency(l)) => {
                let row = figs.fig11.iter_mut().find(|r| r.nodes == nodes);
                let row = row.expect("a row per size");
                if rmi {
                    row.freepastry_s = Some(l);
                } else {
                    row.macedon_s = l;
                }
            }
            (Run::Fig12 { evict }, Ran::Series(s)) => {
                let f = &mut figs.fig12;
                *if evict {
                    &mut f.with_eviction
                } else {
                    &mut f.no_eviction
                } = s;
            }
            (Run::Fig12FromSpec, Ran::Series(s)) => figs.fig12.from_spec = s,
            (run, _) => unreachable!("{run:?} yields its own kind"),
        }
    }
    figs
}

// ---------------------------------------------------------------------------
// Scenario scripts (bin/bench_scale)
// ---------------------------------------------------------------------------

/// The benchmark churn script: staggered joins, one multicast stream,
/// a crash wave with partial rejoin, and a partition that heals —
/// every perturbation class the scenario engine supports, at `nodes`
/// scale.
pub fn scenario_churn_script(nodes: usize) -> String {
    format!(
        "scenario bench-churn\nnodes {nodes}\nend 80s\n\
         at 0s join 0..{first} over 2s\n\
         at 4s join {first}..{nodes} over 8s\n\
         at 20s stream 0 rate 200kbps size 1000 for 50s multicast\n\
         at 35s crash {c1} {c2}\n\
         at 45s rejoin {c1}\n\
         at 55s partition half {half}..{nodes}\n\
         at 65s heal half\n",
        first = nodes / 4,
        c1 = nodes / 3,
        c2 = nodes / 2,
        half = nodes / 2,
    )
}

/// The `bench_scale` scenario: staggered joins of every node, a
/// fixed-total-rate *random-route* stream, and a small crash wave with
/// rejoin. Unlike [`scenario_churn_script`]'s multicast stream — whose
/// delivery count multiplies with the receiver population — the route
/// stream keeps application deliveries O(1) in `nodes`, so the
/// 1k/10k/100k curve isolates what actually grows with scale: the
/// scheduler's pending set (per-node failure-detector and protocol
/// timers) and the join/maintenance traffic.
pub fn scenario_scale_script(nodes: usize) -> String {
    format!(
        "scenario bench-scale\nnodes {nodes}\nend 40s\n\
         at 0s join 0..{first} over 2s\n\
         at 4s join {first}..{nodes} over 10s\n\
         at 20s stream 0 rate 200kbps size 1000 for 15s route\n\
         at 25s crash {c1} {c2}\n\
         at 30s rejoin {c1}\n",
        first = nodes / 4,
        c1 = nodes / 3,
        c2 = nodes / 2,
    )
}

// ---------------------------------------------------------------------------
// Pastry `state_push` dispatch harness (benches/interp.rs)
// ---------------------------------------------------------------------------

/// One-node pastry stack (node 7, the designated root, so `joined`
/// after `init`) — interpreted from the bundled spec, or the generated
/// agent — ready for direct `Stack::recv` injection.
pub fn pastry_stack(generated: bool) -> macedon_core::Stack {
    let agents = if generated {
        macedon_generated::build_stack("pastry", None).expect("generated pastry")
    } else {
        macedon_lang::SpecRegistry::bundled()
            .build_stack("pastry", None)
            .expect("bundled pastry")
    };
    let me = NodeId(7);
    let mut stack = macedon_core::Stack::new(
        me,
        MacedonKey::of_node(me, macedon_core::Addressing::Hash),
        agents,
        Box::new(macedon_core::NullApp),
        SimRng::new(42),
    );
    stack.set_trace_level(TraceLevel::Off);
    stack.init(Time::ZERO, &mut Vec::new());
    stack
}

/// Two pastry `state_push` frames from node 3 carrying disjoint leaf
/// sets (8 nodes) and route rows (16): fed alternately, every push
/// brings leaf candidates the receiver does not hold, so each one runs
/// the leaf-set eviction scan — the nested `foreach` / `ring_dist` work
/// behind the interpreted scale run's costliest transition.
pub fn state_push_frames() -> Vec<(NodeId, Bytes)> {
    use macedon_core::WireWriter;
    let proto = macedon_lang::interp::protocol_id_of("pastry");
    let registry = macedon_lang::SpecRegistry::bundled();
    let id = registry
        .get("pastry")
        .and_then(|ir| ir.messages.iter().position(|m| m.name == "state_push"))
        .expect("pastry declares state_push") as u16;
    (0..2u32)
        .map(|k| {
            let leaves: Vec<NodeId> = (0..8).map(|i| NodeId(100 + 100 * k + i)).collect();
            let rows: Vec<NodeId> = (0..16).map(|i| NodeId(1_000 + 100 * k + i)).collect();
            let mut w = WireWriter::new();
            w.u16(proto).u16(id);
            w.nodes(&leaves).nodes(&rows);
            (NodeId(3), w.finish())
        })
        .collect()
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use macedon_core::SpanId;

    #[test]
    fn fig7_rows_complete() {
        let rows = fig7();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.loc > 0);
            assert!(r.semicolons > 0);
            assert!(r.generated_loc > 0);
            assert!(r.paper_loc > 0);
            assert!(r.layers >= 1, "{} resolves to a runnable stack", r.name);
        }
        // The layered roster reports its chain depth.
        let depth = |n: &str| rows.iter().find(|r| r.name == n).unwrap().layers;
        assert_eq!(depth("splitstream"), 3);
        assert_eq!(depth("scribe"), 2);
        assert_eq!(depth("bullet"), 2);
        assert_eq!(depth("pastry"), 1);
    }

    #[test]
    fn nice_matrix_is_symmetric() {
        let m = nice_site_latencies();
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0);
            for (j, &cell) in row.iter().enumerate() {
                assert_eq!(cell, m[j][i]);
            }
        }
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean([]), 0.0);
        assert_eq!(mean([2.0, 4.0]), 3.0);
    }

    #[test]
    fn state_push_effects_match_across_back_ends() {
        // The two `state_push` benches compare like with like only while
        // both back ends do the same work per push: the same effects and
        // the same leaf set and route rows after it.
        let frames = state_push_frames();
        let (mut interp, mut gen) = (pastry_stack(false), pastry_stack(true));
        let mut fx = Vec::new();
        let mut push = |stack: &mut macedon_core::Stack| {
            for (from, frame) in &frames {
                stack.recv(Time::ZERO, *from, frame.clone(), SpanId::NONE, &mut fx);
            }
            std::mem::take(&mut fx)
        };
        for round in 0..4 {
            assert_eq!(
                format!("{:?}", push(&mut interp)),
                format!("{:?}", push(&mut gen)),
                "round {round}: both back ends emit the same effects"
            );
            let (i, g) = (interp.agent(0).view(), gen.agent(0).view());
            for list in ["leaves", "rows"] {
                let held = i.as_ref().and_then(|v| v.list(list)).unwrap();
                assert!(!held.is_empty(), "round {round}: the push filled {list}");
            }
            assert_eq!(i, g, "round {round}: state and lists");
        }
    }
}
