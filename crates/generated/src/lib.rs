//! # macedon-generated
//!
//! The Rust agents `macedon_lang::codegen` emits for the nine bundled
//! `.mac` specifications — the translator's output, checked in and built
//! as part of the workspace so the paper's spec → running code loop is
//! closed under CI.
//!
//! **Do not edit anything in `src/`**: regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p macedon-lang --test golden`. Without
//! the variable, that tier-1 test regenerates every file and fails on
//! any difference, so hand edits and stale output cannot merge.
//!
//! Each module holds only a spec's facts and transitions: its agent
//! implements `macedon_core::spec::SpecBody`, and the engine-facing half
//! (framing, tunnelling, forward vetting, demultiplexing, the send tail)
//! is `macedon_core::spec`'s, shared with the interpreter. Generated
//! agents are behaviorally identical to interpreting the same spec (same
//! RNG draws, byte-identical wire messages, same engine op order); the
//! integration suite cross-validates that on seeded runs.
#![allow(clippy::all)]

pub mod ammo;
pub mod bullet;
pub mod chord;
pub mod nice;
pub mod overcast;
pub mod pastry;
pub mod randtree;
pub mod scribe;
pub mod splitstream;

#[rustfmt::skip]
mod assembly {

use macedon_core::{Agent, ChannelSpec, NodeId, TransportKind};
use super::*;

/// Protocols with a generated agent (the Figure 7 roster).
pub const PROTOCOLS: &[&str] = &["ammo", "bullet", "chord", "nice", "overcast", "pastry", "randtree", "scribe", "splitstream", ];

/// Assemble the all-generated stack for `proto`, lowest layer first,
/// following the spec's `uses` chain (`splitstream` → pastry + scribe +
/// splitstream). `bootstrap` is handed to every layer (`None` for the
/// designated root). Returns `None` for unknown protocol names.
pub fn build_stack(proto: &str, bootstrap: Option<NodeId>) -> Option<Vec<Box<dyn Agent>>> {
    Some(match proto {
        "ammo" => vec![
            Box::new(ammo::Ammo::new(bootstrap)),
        ],
        "bullet" => vec![
            Box::new(randtree::Randtree::new(bootstrap)),
            Box::new(bullet::Bullet::new(bootstrap)),
        ],
        "chord" => vec![
            Box::new(chord::Chord::new(bootstrap)),
        ],
        "nice" => vec![
            Box::new(nice::Nice::new(bootstrap)),
        ],
        "overcast" => vec![
            Box::new(overcast::Overcast::new(bootstrap)),
        ],
        "pastry" => vec![
            Box::new(pastry::Pastry::new(bootstrap)),
        ],
        "randtree" => vec![
            Box::new(randtree::Randtree::new(bootstrap)),
        ],
        "scribe" => vec![
            Box::new(pastry::Pastry::new(bootstrap)),
            Box::new(scribe::Scribe::new(bootstrap)),
        ],
        "splitstream" => vec![
            Box::new(pastry::Pastry::new(bootstrap)),
            Box::new(scribe::Scribe::new(bootstrap)),
            Box::new(splitstream::Splitstream::new(bootstrap)),
        ],
        _ => return None,
    })
}

/// The channel table a `World` hosting this protocol's stack must be
/// built with: the lowest layer's transport declarations (upper layers
/// never touch the wire). Returns `None` for unknown protocol names.
pub fn channel_table(proto: &str) -> Option<Vec<ChannelSpec>> {
    Some(match proto {
        "ammo" => vec![
            ChannelSpec::new("CTRL", TransportKind::Tcp),
            ChannelSpec::new("PROBES", TransportKind::Udp),
            ChannelSpec::new("BULK", TransportKind::Tcp),
        ],
        "bullet" => vec![
            ChannelSpec::new("CTRL", TransportKind::Tcp),
            ChannelSpec::new("DATA", TransportKind::Udp),
        ],
        "chord" => vec![
            ChannelSpec::new("CTRL", TransportKind::Tcp),
            ChannelSpec::new("DATA", TransportKind::Udp),
        ],
        "nice" => vec![
            ChannelSpec::new("CTRL", TransportKind::Tcp),
            ChannelSpec::new("DATA", TransportKind::Udp),
        ],
        "overcast" => vec![
            ChannelSpec::new("HIGHEST", TransportKind::Swp { window: 16 }),
            ChannelSpec::new("HIGH", TransportKind::Tcp),
            ChannelSpec::new("BEST_EFFORT", TransportKind::Udp),
        ],
        "pastry" => vec![
            ChannelSpec::new("CTRL", TransportKind::Tcp),
            ChannelSpec::new("DATA", TransportKind::Udp),
        ],
        "randtree" => vec![
            ChannelSpec::new("CTRL", TransportKind::Tcp),
            ChannelSpec::new("DATA", TransportKind::Udp),
        ],
        "scribe" => vec![
            ChannelSpec::new("CTRL", TransportKind::Tcp),
            ChannelSpec::new("DATA", TransportKind::Udp),
        ],
        "splitstream" => vec![
            ChannelSpec::new("CTRL", TransportKind::Tcp),
            ChannelSpec::new("DATA", TransportKind::Udp),
        ],
        _ => return None,
    })
}

}

pub use assembly::*;
