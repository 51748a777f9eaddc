//! # macedon-bench
//!
//! The figure-regeneration harness: one binary per evaluation figure of
//! the paper (`fig7_loc` … `fig12_splitstream_bandwidth`). Its tests
//! assert the design-choice ablations, and its one bench prints the
//! interpreted/generated cost ratio of pastry's `state_push`.
//!
//! Every binary accepts `--paper` to run at the paper's full scale
//! (20,000-router INET topologies, hundreds of overlay nodes, multi-
//! hundred-second runs); the default is a laptop-scale configuration
//! that preserves every qualitative shape. The README's "Figures"
//! section records paper-reported vs measured values at Quick scale.

pub mod experiments;
pub mod freepastry;
pub mod lsd;
pub mod table;

/// Common CLI scale switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Laptop-scale defaults (seconds of wall time).
    Quick,
    /// The paper's configuration.
    Paper,
}

impl Scale {
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--paper") {
            Scale::Paper
        } else {
            Scale::Quick
        }
    }
}
