//! # macedon-overlays
//!
//! The hand-written agents that remain beside the `.mac` roster (the
//! specs live in `crates/lang/specs/` and run interpreted or generated),
//! each as a [`macedon_core::Agent`] — kept only where a spec cannot yet
//! reproduce what the native agent measures:
//!
//! * **Pastry, Scribe, SplitStream** — Figure 12's cache-lifetime
//!   comparison needs Pastry's location cache
//!   ([`PastryConfig::cache_lifetime`], [`scribe::DataPath::LocationCache`]),
//!   which `pastry.mac` does not have.
//! * **NICE** — Figures 8 and 9 need latency-aware clustering; `nice.mac`
//!   attaches to a random candidate, never splits a cluster (its list
//!   capacity equals `MAX_CLUSTER`), and its multicast flood has no
//!   duplicate suppression.
//! * **Bullet** — mesh recovery needs a store of received packets keyed
//!   by sequence number, which the DSL cannot declare; the native layer
//!   runs over the interpreted `randtree.mac`.
//!
//! Layering follows Figure 2: Scribe runs over Pastry, SplitStream over
//! Scribe, Bullet over RandTree.

pub mod bullet;
pub mod common;
pub mod nice;
pub mod pastry;
pub mod scribe;
pub mod splitstream;
pub mod testutil;

pub use bullet::{Bullet, BulletConfig};
pub use nice::{Nice, NiceConfig};
pub use pastry::{Pastry, PastryConfig};
pub use scribe::{Scribe, ScribeConfig};
pub use splitstream::{SplitStream, SplitStreamConfig};
