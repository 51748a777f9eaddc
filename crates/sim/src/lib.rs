//! # macedon-sim
//!
//! Deterministic discrete-event simulation kernel used by the MACEDON
//! reproduction.
//!
//! The paper evaluated MACEDON on the ModelNet cluster emulator; this crate
//! provides the substrate for our laptop-scale substitute: a virtual clock,
//! a cancellable priority event queue and a seedable from-scratch PRNG.
//!
//! Everything here is intentionally runtime-agnostic: higher layers
//! (network emulation, transports, the MACEDON engine) define their own
//! event payload types and drive a [`Scheduler`] in a plain loop, which
//! keeps every experiment bit-reproducible for a given seed.

pub mod event;
pub mod hash;
pub mod rng;
pub mod time;

pub use event::{EventId, Scheduler};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use rng::{mix64, SimRng};
pub use time::{Duration, Time};
