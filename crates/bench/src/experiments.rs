//! The experiment implementations behind the `figures` binary.
//!
//! Each function reproduces one figure of the paper's §4 and returns the
//! rows/series to print; the README's "Figures" section is `figures`'
//! output beside the paper's values.

use crate::freepastry::{RmiModel, RmiQueue};
use crate::lsd::{chord_registry, LSD};
use crate::Scale;
use macedon_core::app::{
    shared_deliveries, CollectorApp, SharedDeliveries, StreamKind, StreamerApp,
};
use macedon_core::{
    Agent, AppHandler, Bytes, ChannelSpec, DownCall, Duration, MacedonKey, NodeId, Time,
    TraceLevel, World, WorldConfig,
};
use macedon_lang::SpecRegistry;
use macedon_net::topology::{canned, inet, InetParams, LinkSpec};
use macedon_net::Topology;
use macedon_overlays::nice::Nice;
use macedon_overlays::pastry::{Pastry, PastryConfig};
use macedon_overlays::scribe::{DataPath, Scribe, ScribeConfig};
use macedon_overlays::splitstream::{SplitStream, SplitStreamConfig};
use macedon_overlays::testutil::{collect_ring, correct_owner};
use macedon_sim::SimRng;
use std::sync::OnceLock;

/// A world over `topo`, built from `cfg`, whose every host runs the
/// stack `build(bootstrap)` returns — joins `stagger` apart through the
/// first host ([`World::spawn_each`]) — with every app collecting into
/// one sink.
pub fn stack_world(
    topo: Topology,
    cfg: WorldConfig,
    stagger: Duration,
    mut build: impl FnMut(Option<NodeId>) -> Vec<Box<dyn Agent>>,
) -> (World, Vec<NodeId>, SharedDeliveries) {
    let mut w = World::new(topo, cfg);
    let sink = shared_deliveries();
    let hosts = w.spawn_each(stagger, |_, bootstrap| {
        (build(bootstrap), Box::new(CollectorApp::new(sink.clone())))
    });
    (w, hosts, sink)
}

/// [`stack_world`] running `proto`'s interpreted stack from `registry`,
/// in a world built from `cfg` with the stack's channel table.
pub fn spec_world(
    registry: &SpecRegistry,
    proto: &str,
    topo: Topology,
    cfg: WorldConfig,
    stagger: Duration,
) -> (World, Vec<NodeId>, SharedDeliveries) {
    let cfg = WorldConfig {
        channels: registry.channel_table_for(proto).expect("chain resolves"),
        ..cfg
    };
    stack_world(topo, cfg, stagger, |bootstrap| {
        registry
            .build_stack(proto, bootstrap)
            .expect("stack builds")
    })
}

/// The default world configuration with `seed`.
pub fn seeded(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        ..Default::default()
    }
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

    /// [`stack_world`] running `proto` on this back end, in a world built
    /// from `cfg` with the stack's channel table.
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
        stack_world(topo, cfg, stagger, |bootstrap| {
            self.build_stack(proto, bootstrap)
        })
    }
}

/// The bundled roster, compiled once per process.
fn bundled() -> &'static SpecRegistry {
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
    let topo = canned::sites(&lat, members_per_site, LinkSpec::lan());
    let (mut w, hosts, sink) =
        stack_world(topo, seeded(8), Duration::from_millis(400), |rendezvous| {
            vec![Box::new(Nice::new(rendezvous))]
        });
    w.run_until(Time::from_secs(converge_s));

    // Stream 40 packets at 10/s from the first member.
    let base = Time::from_secs(converge_s);
    let npkts = 40u64;
    for i in 0..npkts {
        let mut p = vec![0u8; 1000];
        p[..8].copy_from_slice(&i.to_be_bytes());
        w.api_at(
            base + Duration::from_millis(i * 100),
            hosts[0],
            DownCall::Multicast {
                group: MacedonKey(0),
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    w.run_until(base + Duration::from_secs(60));

    // Per-site stretch and latency.
    let paper8: [f64; 8] = [1.6, 1.8, 2.0, 2.3, 2.6, 2.2, 3.0, 4.2];
    let paper9: [f64; 8] = [8.0, 12.0, 15.0, 20.0, 25.0, 22.0, 30.0, 41.0];
    let log = sink.lock();
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
                let direct = w
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
                mean_stretch: mean(&stretches),
                mean_latency_ms: mean(&lats),
                paper_stretch: paper8[site],
                paper_latency_ms: paper9[site],
            }
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
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
    let ring = collect_ring(w, hosts);
    hosts
        .iter()
        .filter_map(|&h| {
            let fingers = w.stack(h)?.agent(0).view()?.list("fingers")?;
            let me = w.key_of(h);
            Some(
                (0..32)
                    .filter(|&i| fingers.contains(&correct_owner(&ring, me.plus_pow2(i))))
                    .count(),
            )
        })
        .sum()
}

/// The three flavors are one spec, `chord.mac`, under three constant
/// sets: static 1 s and 20 s `fix_fingers` periods, and lsd's adaptive
/// policy ([`LSD`]).
pub fn fig10(scale: Scale) -> Fig10Series {
    let (routers, clients, run_s) = match scale {
        Scale::Quick => (200, 48, 120),
        Scale::Paper => (20_000, 1_000, 120),
    };
    let run = |constants: &[(&str, i64)]| -> Vec<(f64, f64)> {
        let mut rng = SimRng::new(10);
        let topo = inet(
            &InetParams {
                routers,
                clients,
                ..Default::default()
            },
            &mut rng,
        );
        // Staggered joins across the first third of the run, as in the
        // paper ("routing tables converge steadily as nodes join").
        let stagger = Duration::from_millis(run_s * 1000 / 3 / clients as u64);
        let registry = chord_registry(constants);
        let (mut w, hosts, _sink) = spec_world(&registry, "chord", topo, seeded(10), stagger);
        // Dump "routing tables every two seconds" and count correct
        // entries against global knowledge.
        (0..=run_s)
            .step_by(2)
            .map(|t| {
                w.run_until(Time::from_secs(t));
                let avg = correct_fingers(&w, &hosts) as f64 / hosts.len() as f64;
                (t as f64, avg)
            })
            .collect()
    };
    // The three flavors are independent worlds: sweep them in parallel
    // (the harness equivalent of the paper farming runs across machines).
    let flavors: [&[(&str, i64)]; 3] = [
        &[("FIX_FINGERS_MS", 1_000)],
        &LSD,
        &[("FIX_FINGERS_MS", 20_000)],
    ];
    let [macedon_1s, lsd, macedon_20s] = std::thread::scope(|scope| {
        flavors
            .map(|constants| {
                let run = &run;
                scope.spawn(move || run(constants))
            })
            .map(|h| h.join().expect("flavor run"))
    });
    Fig10Series {
        macedon_1s,
        lsd,
        macedon_20s,
    }
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

pub fn fig11(scale: Scale) -> Vec<Fig11Row> {
    let (routers, sizes, converge_s, stream_s): (usize, Vec<usize>, u64, u64) = match scale {
        Scale::Quick => (200, vec![8, 16, 32, 64], 60, 40),
        Scale::Paper => (20_000, vec![4, 10, 25, 50, 100, 150, 200, 250], 300, 120),
    };
    let cap = RmiModel::default().max_nodes;
    sizes
        .into_iter()
        .map(|n| {
            let macedon_s = fig11_run(routers, n, converge_s, stream_s, false);
            let freepastry_s =
                (n <= cap).then(|| fig11_run(routers, n, converge_s, stream_s, true));
            Fig11Row {
                nodes: n,
                macedon_s,
                freepastry_s,
            }
        })
        .collect()
}

fn fig11_run(routers: usize, n: usize, converge_s: u64, stream_s: u64, rmi: bool) -> f64 {
    let mut rng = SimRng::new(11);
    let topo = inet(
        &InetParams {
            routers,
            clients: n,
            ..Default::default()
        },
        &mut rng,
    );
    let registry = SpecRegistry::bundled();
    let mut w = World::new(
        topo,
        WorldConfig {
            seed: 11,
            channels: registry.channel_table_for("pastry").expect("bundled"),
            ..Default::default()
        },
    );
    let sink = shared_deliveries();
    w.spawn_each(Duration::from_millis(50), |_, bootstrap| {
        let mut stack = registry
            .build_stack("pastry", bootstrap)
            .expect("bundled stack builds");
        if rmi {
            let pastry = stack.pop().expect("pastry is one layer");
            stack.push(Box::new(RmiQueue::new(pastry, RmiModel::default())));
        }
        // "we allowed routing tables to converge for 300 seconds before
        // streaming data": the streamer app starts after convergence.
        let app = StreamerApp::new(
            StreamKind::RandomRoute,
            10_000, // 10 Kbps
            1_000,  // 1000-byte packets
            Time::from_secs(converge_s),
            Time::from_secs(converge_s + stream_s),
            sink.clone(),
        );
        (stack, Box::new(app))
    });
    w.run_until(Time::from_secs(converge_s + stream_s + 10));
    // Average per-packet delay. Send times are reconstructed from each
    // streamer's fixed 0.8 s interval; since every node streams at the
    // same phase, delay = delivery minus the seq's slot start.
    let log = sink.lock();
    let interval_us = 1_000u64 * 8 * 1_000_000 / 10_000; // 0.8 s
    let mut lats = Vec::new();
    for rec in log.iter() {
        let Some(seq) = rec.seqno else { continue };
        let sent = Time::from_secs(converge_s) + Duration::from_micros(seq * interval_us);
        if rec.at >= sent {
            lats.push(rec.at.saturating_since(sent).as_secs_f64());
        }
    }
    mean(&lats)
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

pub fn fig12(scale: Scale) -> Fig12Series {
    let (nodes, converge_s, stream_s, rate_bps) = match scale {
        Scale::Quick => (32usize, 60u64, 90u64, 600_000u64),
        Scale::Paper => (300, 300, 300, 600_000),
    };
    let run = |cache_lifetime: Option<Duration>| -> Vec<(f64, f64)> {
        // Paper-era constrained access links: the stream plus forwarding
        // load runs close to capacity, so the extra bandwidth consumed
        // re-establishing evicted cache entries costs real goodput.
        let topo = canned::star(
            nodes,
            LinkSpec::new(Duration::from_millis(2), 2_000_000, 64 * 1024),
        );
        let mut w = World::new(topo, seeded(12));
        let sink = shared_deliveries();
        let group = MacedonKey::of_name("fig12-stream");
        let hosts = w.spawn_each(Duration::from_millis(100), |i, bootstrap| {
            let pastry = Pastry::new(PastryConfig {
                bootstrap,
                cache_lifetime,
            });
            let scribe = Scribe::new(ScribeConfig {
                data_path: DataPath::LocationCache,
                max_children: Some(8),
            });
            let split = SplitStream::new(SplitStreamConfig::default());
            let stack: Vec<Box<dyn Agent>> =
                vec![Box::new(pastry), Box::new(scribe), Box::new(split)];
            let app: Box<dyn AppHandler> = if i == 0 {
                // The source streams after convergence.
                Box::new(StreamerApp::new(
                    StreamKind::Multicast { group },
                    rate_bps,
                    1_000,
                    Time::from_secs(converge_s),
                    Time::from_secs(converge_s + stream_s),
                    sink.clone(),
                ))
            } else {
                Box::new(CollectorApp::new(sink.clone()))
            };
            (stack, app)
        });
        // "all other nodes join the multicast session as receivers".
        w.api_at(
            Time::from_secs(5),
            hosts[0],
            DownCall::CreateGroup { group },
        );
        for (i, &h) in hosts.iter().enumerate().skip(1) {
            w.api_at(
                Time::from_secs(6) + Duration::from_millis(i as u64 * 100),
                h,
                DownCall::Join { group },
            );
        }
        w.run_until(Time::from_secs(converge_s + stream_s + 10));
        bin_goodput(&sink, hosts[0], converge_s, stream_s, nodes - 1)
    };
    let (from_spec_nodes, from_spec) = fig12_from_spec(scale);
    Fig12Series {
        no_eviction: run(None),
        with_eviction: run(Some(Duration::from_secs(1))),
        from_spec_nodes,
        from_spec,
    }
}

/// Per-5s-bin mean per-receiver goodput (Kbps) from a delivery log.
fn bin_goodput(
    sink: &macedon_core::app::SharedDeliveries,
    source: macedon_core::NodeId,
    converge_s: u64,
    stream_s: u64,
    receivers: usize,
) -> Vec<(f64, f64)> {
    let bin = 5.0f64;
    let nbins = (stream_s as f64 / bin) as usize;
    let mut bytes_per_bin = vec![0u64; nbins];
    let log = sink.lock();
    let t0 = converge_s as f64;
    for rec in log.iter() {
        if rec.node == source {
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
/// The experiment itself is a scenario script (staggered joins + one
/// multicast stream) compiled by the scenario runner, and its stacks
/// run at the trace level `splitstream.mac`'s `trace_` header asks for.
/// Returns the node count and the goodput series.
fn fig12_from_spec(scale: Scale) -> (usize, Vec<(f64, f64)>) {
    let (nodes, converge_s, stream_s, rate_bps) = match scale {
        Scale::Quick => (16usize, 60u64, 60u64, 200_000u64),
        Scale::Paper => (64, 120, 120, 200_000),
    };
    let registry = macedon_lang::SpecRegistry::bundled();
    let scenario = macedon_scenario::script::parse(&format!(
        "scenario fig12-from-spec\nnodes {nodes}\nend {end}s\n\
         at 0s join 0..{nodes} over {stagger}ms\n\
         at {converge_s}s stream 0 rate {rate_bps}bps size 1000 for {stream_s}s multicast\n",
        end = converge_s + stream_s + 10,
        stagger = nodes * 100,
    ))
    .expect("fig12 scenario validates");
    let topo = canned::star(
        nodes,
        LinkSpec::new(Duration::from_millis(2), 2_000_000, 64 * 1024),
    );
    let cfg = WorldConfig {
        seed: 12,
        channels: registry
            .channel_table_for("splitstream")
            .expect("bundled chain resolves"),
        ..Default::default()
    };
    let mut runner = macedon_scenario::ScenarioRunner::new(
        scenario,
        topo,
        cfg,
        Box::new(|_idx, _host, bootstrap| {
            registry
                .build_stack("splitstream", bootstrap)
                .expect("bundled stack builds")
        }),
    )
    .expect("fig12 scenario binds");
    runner.set_trace_level(
        registry
            .trace_level_for("splitstream")
            .expect("bundled spec registered"),
    );
    let outcome = runner.run();
    let series = bin_goodput(
        &outcome.deliveries,
        outcome.hosts[0],
        converge_s,
        stream_s,
        nodes - 1,
    );
    (nodes, series)
}

// ---------------------------------------------------------------------------
// Scenario harness (bin/bench_scale)
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

/// Engine-level counters from one scenario run: what the run delivered
/// and what the scheduler had to do to deliver it, so benchmarks can
/// report per-event and per-packet cost rather than wall time alone.
pub struct ChurnRunStats {
    /// Application-level deliveries observed across all nodes.
    pub delivered: usize,
    /// Nodes alive at scenario end.
    pub alive: usize,
    /// Total scheduler events fired over the run (packet motion and
    /// timers combined).
    pub events: u64,
    /// The same total broken down by event class.
    pub breakdown: macedon_core::EventClassCounts,
    /// Heap bytes at the end of the run, by owner.
    pub census: macedon_core::HeapCensus,
}

impl ChurnRunStats {
    /// Scheduler events fired per delivered application packet — the
    /// headline efficiency number of the event-machinery rework.
    pub fn events_per_delivered(&self) -> f64 {
        if self.delivered == 0 {
            f64::INFINITY
        } else {
            self.events as f64 / self.delivered as f64
        }
    }
}

/// One seeded churn-scenario run over the from-spec splitstream stack.
/// Returns delivered/alive/events-fired so callers can sanity-check
/// real work happened and report per-event cost; wall-clock is the
/// caller's to measure.
pub fn scenario_churn_run(nodes: usize) -> ChurnRunStats {
    run_scenario_script_on(
        &scenario_churn_script(nodes),
        nodes,
        LinkSpec::new(Duration::from_millis(2), 2_000_000, 64 * 1024),
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

/// One seeded scale-scenario run (see [`scenario_scale_script`]).
///
/// Unlike the churn run, the links are fat (100 Mbps, 1 MiB queues):
/// at 10k+ nodes the star hub would otherwise collapse under the join
/// storm and the overlay would never converge. The curve is meant to
/// measure the *scheduler* under population growth, not hub congestion.
pub fn scenario_scale_run(nodes: usize) -> ChurnRunStats {
    run_scenario_script_on(
        &scenario_scale_script(nodes),
        nodes,
        LinkSpec::new(Duration::from_millis(2), 100_000_000, 1024 * 1024),
    )
}

fn run_scenario_script_on(script: &str, nodes: usize, link: LinkSpec) -> ChurnRunStats {
    let registry = macedon_lang::SpecRegistry::bundled();
    let scenario = macedon_scenario::script::parse(script).expect("script parses");
    let topo = canned::star(nodes, link);
    let cfg = WorldConfig {
        seed: 77,
        channels: registry
            .channel_table_for("splitstream")
            .expect("bundled chain resolves"),
        fd_g: Duration::from_secs(2),
        fd_f: Duration::from_secs(6),
        ..Default::default()
    };
    let outcome = macedon_scenario::ScenarioRunner::new(
        scenario,
        topo,
        cfg,
        Box::new(|_idx, _host, bootstrap| {
            registry
                .build_stack("splitstream", bootstrap)
                .expect("bundled stack builds")
        }),
    )
    .expect("scenario binds")
    .run();
    ChurnRunStats {
        delivered: outcome.report.total_delivered as usize,
        alive: outcome.report.alive,
        events: outcome.world.events_fired(),
        breakdown: outcome.world.event_counts(),
        census: outcome.world.heap_census(),
    }
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
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
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
