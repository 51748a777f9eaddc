//! The five benchmark workloads: their inputs (script text, link specs,
//! engine configuration — copied here so editing `crates/bench` cannot
//! change what the benchmark runs) and the set-up path that turns a
//! seed into a bound [`ScenarioRunner`].
//!
//! The stack is splitstream → scribe → pastry throughout.

use crate::tables::WORKLOADS;
use crate::trace::{self, Spans};
use macedon_core::{Agent, ChannelSpec, NodeId, WorldConfig};
use macedon_lang::SpecRegistry;
use macedon_net::topology::{canned, inet, InetParams, LinkSpec};
use macedon_net::Topology;
use macedon_scenario::{GridAxis, Scenario, ScenarioRunner, SweepSpec};
use macedon_sim::{Duration, SimRng};
use std::sync::Arc;

const PROTOCOL: &str = "splitstream";

/// The INET graph is a fixed testbed, as the paper's ModelNet graph was:
/// which graph is drawn decides whether the churn run delivers 9,000 or
/// 40,000 packets (2.7 s or 3.7 s), while the world seed on a fixed
/// graph moves the event count by 0.1 %. `--seed` therefore drives
/// everything random in the run and leaves the graph alone.
const INET_GRAPH_SEED: u64 = 2004;

/// Staggered joins, a 50 s multicast stream, a crash wave with partial
/// rejoin, and a partition that heals (`scenario_churn_script`).
fn churn_script(nodes: usize) -> String {
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

/// Full-population join, a 15 s random-route stream (O(1) deliveries),
/// and a crash with rejoin (`scenario_scale_script`).
fn scale_script(nodes: usize) -> String {
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

/// The churn script made scale-generic, plus a `{loss}` grid axis
/// (`SWEEP_CHURN_TEMPLATE`).
const SWEEP_TEMPLATE: &str = "scenario sweep-churn\nnodes {nodes}\nend 80s\n\
     at 0s join 0..{nodes/4} over 2s\n\
     at 4s join {nodes/4}..{nodes} over 8s\n\
     at 10s drop {loss}\n\
     at 20s stream 0 rate 200kbps size 1000 for 50s multicast\n\
     at 35s crash {nodes/3} {nodes/2}\n\
     at 45s rejoin {nodes/3}\n\
     at 55s partition half {nodes/2}..{nodes}\n\
     at 65s heal half\n";

/// 2 ms / 2 Mbps / 64 KiB: the churn benchmark's constrained access link.
fn thin_link() -> LinkSpec {
    LinkSpec::new(Duration::from_millis(2), 2_000_000, 64 * 1024)
}

/// 2 ms / 100 Mbps / 1 MiB: fat enough that a join storm of thousands
/// does not collapse the hub.
fn fat_link() -> LinkSpec {
    LinkSpec::new(Duration::from_millis(2), 100_000_000, 1024 * 1024)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    Interpreted,
    Generated,
}

#[derive(Clone, Debug)]
pub enum Experiment {
    /// The churn script on an INET graph.
    ChurnInet { routers: usize, clients: usize },
    /// The churn script on a thin-link star.
    ChurnStar { nodes: usize },
    /// The scale script on a fat-link star, on `shards` shards/workers.
    ScaleStar { nodes: usize, shards: usize },
    /// The churn-loss sweep: `seeds` consecutive seeds × node counts ×
    /// loss rates, one star per cell.
    Sweep {
        seeds: u64,
        nodes: Vec<usize>,
        losses: Vec<&'static str>,
    },
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub backend: Backend,
    pub experiment: Experiment,
}

/// Threads the parallel workloads may use: never more than two, never
/// more than the host has.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The benchmark's workloads, in [`WORKLOADS`] order, at full or smoke
/// size. Full sizes are set by the driver's time cap: an iteration
/// takes 2.5 to 4.5 s, so fifteen seconds of measuring hold four to six.
pub fn all(smoke: bool) -> Vec<Workload> {
    use Backend::{Generated, Interpreted};
    let pick = |full: usize, small: usize| if smoke { small } else { full };
    let experiments = [
        (
            Interpreted,
            Experiment::ChurnInet {
                routers: pick(20_000, 2_000),
                clients: pick(300, 200),
            },
        ),
        (
            Generated,
            Experiment::ChurnStar {
                nodes: pick(1000, 100),
            },
        ),
        (
            Interpreted,
            Experiment::ScaleStar {
                nodes: pick(2000, 300),
                shards: 1,
            },
        ),
        (
            Interpreted,
            Experiment::ScaleStar {
                nodes: pick(2000, 300),
                shards: 2,
            },
        ),
        (
            Interpreted,
            Experiment::Sweep {
                seeds: 2,
                nodes: if smoke { vec![50] } else { vec![50, 100, 200] },
                losses: vec!["0", "0.02"],
            },
        ),
    ];
    WORKLOADS
        .iter()
        .zip(experiments)
        .map(|(&(name, _why), (backend, experiment))| Workload {
            name,
            backend,
            experiment,
        })
        .collect()
}

/// Where a node's stack comes from. The interpreted back end shares one
/// compiled registry across every stack it builds.
#[derive(Clone)]
pub enum Stacks {
    Interpreted(Arc<SpecRegistry>),
    Generated,
}

impl Stacks {
    /// Compile the bundled specs (interpreted) or do nothing (generated
    /// agents are compiled into the binary).
    pub fn new(backend: Backend) -> Stacks {
        match backend {
            Backend::Interpreted => Stacks::Interpreted(Arc::new(SpecRegistry::bundled())),
            Backend::Generated => Stacks::Generated,
        }
    }

    pub fn channels(&self) -> Vec<ChannelSpec> {
        match self {
            Stacks::Interpreted(r) => r
                .channel_table_for(PROTOCOL)
                .expect("bundled chain resolves"),
            Stacks::Generated => {
                macedon_generated::channel_table(PROTOCOL).expect("generated roster has it")
            }
        }
    }

    pub fn build(&self, bootstrap: Option<NodeId>) -> Vec<Box<dyn Agent>> {
        match self {
            Stacks::Interpreted(r) => r
                .build_stack(PROTOCOL, bootstrap)
                .expect("bundled stack builds"),
            Stacks::Generated => macedon_generated::build_stack(PROTOCOL, bootstrap)
                .expect("generated roster has it"),
        }
    }
}

/// Bind a scenario to a topology: `World::new` plus the stack factory.
/// When `traced`, the factory times itself and wraps every layer in the
/// [`trace::Traced`] decorator, and the world profiles its shards.
pub fn bind(
    scenario: Scenario,
    topo: Topology,
    seed: u64,
    shards: usize,
    stacks: &Stacks,
    traced: bool,
) -> ScenarioRunner<'static> {
    let cfg = WorldConfig {
        seed,
        channels: stacks.channels(),
        fd_g: Duration::from_secs(2),
        fd_f: Duration::from_secs(6),
        shards,
        profile: traced,
        ..Default::default()
    };
    let stacks = stacks.clone();
    let mut runner = ScenarioRunner::new(
        scenario,
        topo,
        cfg,
        Box::new(move |_idx, _host, bootstrap| {
            if traced {
                trace::traced_stack(|| stacks.build(bootstrap))
            } else {
                stacks.build(bootstrap)
            }
        }),
    )
    .expect("scenario binds");
    runner.set_workers(shards.min(workers()));
    runner
}

impl Workload {
    /// The whole set-up path of a single-experiment workload, as a user
    /// of `churn` or `bench_scale` pays it: compile the specs, parse the
    /// script, build the topology, bind the runner.
    pub fn setup(&self, seed: u64, traced: bool, spans: &mut Spans) -> ScenarioRunner<'static> {
        let stacks = spans.time("lang.compile_s", || Stacks::new(self.backend));
        let (script, shards) = match &self.experiment {
            Experiment::ChurnInet { clients, .. } => (churn_script(*clients), 1),
            Experiment::ChurnStar { nodes } => (churn_script(*nodes), 1),
            Experiment::ScaleStar { nodes, shards } => (scale_script(*nodes), *shards),
            Experiment::Sweep { .. } => unreachable!("sweeps set up through sweep_spec"),
        };
        let scenario = spans.time("scenario.parse_s", || {
            macedon_scenario::script::parse(&script).expect("script parses")
        });
        let topo = spans.time("net.topology_build_s", || match &self.experiment {
            Experiment::ChurnInet { routers, clients } => inet(
                &InetParams {
                    routers: *routers,
                    clients: *clients,
                    ..Default::default()
                },
                &mut SimRng::new(INET_GRAPH_SEED),
            ),
            Experiment::ChurnStar { nodes } => canned::star(*nodes, thin_link()),
            Experiment::ScaleStar { nodes, .. } => canned::star(*nodes, fat_link()),
            Experiment::Sweep { .. } => unreachable!("sweeps build a star per cell"),
        });
        spans.time("scenario.bind_s", || {
            bind(scenario, topo, seed, shards, &stacks, traced)
        })
    }

    /// The sweep workload's specification: seeds `seed, seed+1, …`.
    pub fn sweep_spec(&self, seed: u64) -> SweepSpec {
        let Experiment::Sweep {
            seeds,
            nodes,
            losses,
        } = &self.experiment
        else {
            unreachable!("only the sweep workload has a sweep spec")
        };
        SweepSpec {
            name: "churn-loss".into(),
            template: SWEEP_TEMPLATE.into(),
            seeds: (0..*seeds).map(|i| seed.wrapping_add(i)).collect(),
            node_counts: nodes.clone(),
            grid: vec![GridAxis::new("loss", losses.iter().copied())],
            workers: Some(workers()),
        }
    }

    pub fn is_sweep(&self) -> bool {
        matches!(self.experiment, Experiment::Sweep { .. })
    }

    /// Threads one run (one sweep cell) executes on.
    pub fn threads_per_run(&self) -> usize {
        match self.experiment {
            Experiment::ScaleStar { shards, .. } => shards.min(workers()),
            _ => 1,
        }
    }

    /// One thread in the process: every count, allocation included,
    /// repeats exactly.
    pub fn is_sequential(&self) -> bool {
        !self.is_sweep() && self.threads_per_run() == 1
    }
}

/// One sweep cell's topology: a thin-link star of the cell's size.
pub fn sweep_cell_topology(nodes: usize) -> Topology {
    canned::star(nodes, thin_link())
}
