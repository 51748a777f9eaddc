//! # macedon-scenario
//!
//! The scenario engine: MACEDON's "E" — *Evaluating* — as a subsystem.
//! The paper's value proposition is running many protocols through the
//! *same* scripted experiments (staggered joins, crashes, rejoins,
//! partitions, degraded links, flash crowds) and comparing measured
//! RTT, goodput, overhead and convergence. This crate makes those
//! experiments declarative:
//!
//! * [`model`] — the [`Scenario`] event model and its validation;
//! * [`script`] — the one way to declare a scenario: a small text format
//!   (`at 30s crash 3 5 7`) with spanned diagnostics;
//! * [`runner`] — the [`ScenarioRunner`], which compiles events onto a
//!   [`macedon_core::World`] (spawns, crashes, partitions, runtime link
//!   mutation) and installs the workload applications;
//! * [`report`] — the engine-measured [`MetricsReport`]: per-node
//!   delivery latency and goodput, control-message overhead per
//!   transport channel, and post-perturbation convergence times;
//! * [`oracle`] — convergence oracles: global structural invariants
//!   (Chord ring correctness, Pastry route optimality, Scribe tree
//!   shape) evaluated on a [`Snapshot`] of any world's spec agents,
//!   interpreted or generated, at scripted `assert converged <oracle>`
//!   checkpoints, gating runs on overlay correctness rather than
//!   delivery counts alone;
//! * [`sweep`] — the parallel sweep driver: a [`sweep::SweepSpec`]
//!   (template × seeds × node counts × parameter grid) expanded into
//!   independent cells, run on a worker pool, and merged in cell order
//!   into a byte-identical [`sweep::SweepReport`] (JSON and CSV).
//!
//! ```no_run
//! use macedon_scenario::{script, ScenarioRunner};
//! use macedon_core::WorldConfig;
//! use macedon_net::topology::{canned, LinkSpec};
//!
//! let scenario = script::parse(
//!     "scenario demo\nnodes 10\nend 60s\n\
//!      at 0s join 0..10 over 2s\nat 30s crash 3\n",
//! )?;
//! let topo = canned::star(10, LinkSpec::lan());
//! let runner = ScenarioRunner::new(
//!     scenario,
//!     topo,
//!     WorldConfig::default(),
//!     Box::new(|_idx, _host, _bootstrap| todo!("build one node's stack")),
//! )?;
//! let outcome = runner.run();
//! println!("{}", outcome.report.render());
//! # Ok::<(), macedon_scenario::ScenarioError>(())
//! ```

pub mod model;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod script;
pub mod sweep;

pub use model::{Event, Scenario, ScenarioError, Span, StreamShape, TimedEvent};
pub use oracle::{
    ChordOracle, ConvergenceOracle, NodeSnapshot, PastryRouteOracle, ScribeTreeOracle, Snapshot,
    Violation,
};
pub use report::{
    ChannelReport, LatencySummary, MetricsReport, NodeMetrics, OracleCheckReport,
    PerturbationReport,
};
pub use runner::{ScenarioOutcome, ScenarioRunner, StackFactory};
pub use script::parse;
pub use sweep::{run_sweep, GridAxis, SweepCell, SweepReport, SweepSpec};
