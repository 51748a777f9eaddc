//! # macedon-bench
//!
//! The figure-regeneration harness: the `figures` binary runs every
//! evaluation figure of the paper once and prints it as a Markdown
//! table, and `bench_scale` gates the engine's scaling counts. Its tests
//! assert the design-choice ablations, and its one bench prints the
//! interpreted/generated cost ratio of pastry's `state_push`.
//!
//! `figures --paper` runs at the paper's full scale (20,000-router INET
//! topologies, hundreds of overlay nodes, multi-hundred-second runs);
//! the default is a laptop-scale configuration that preserves every
//! qualitative shape. The README's "Figures" section is its output at
//! Quick scale.

pub mod experiments;
pub mod freepastry;
pub mod lsd;
pub mod table;

/// The scale an experiment runs at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Laptop-scale defaults (seconds of wall time).
    Quick,
    /// The paper's configuration.
    Paper,
}
