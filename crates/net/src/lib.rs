//! # macedon-net
//!
//! Packet-level network emulation substrate — this repo's substitute for
//! the ModelNet cluster emulator the paper evaluated on.
//!
//! ModelNet's essential property for the MACEDON experiments is that
//! overlay traffic experiences *hop-by-hop* queuing, serialization and
//! congestion on a large realistic topology. This crate reproduces exactly
//! that inside the deterministic event loop of [`macedon_sim`]:
//!
//! * [`topology`] — graph model plus generators: an INET-like
//!   preferential-attachment AS topology (the paper uses 20,000-node INET
//!   graphs) and canned shapes for tests.
//! * [`routing`] — shortest-path (latency-weighted Dijkstra) hop-by-hop
//!   routing with lazy per-anchor next-hop tables over the non-leaf
//!   nodes, plus the latency oracle used to compute stretch/RDP.
//! * [`pipeline`] — per-link FIFO drop-tail queues with bandwidth
//!   serialization and propagation delay; the [`pipeline::Network`] object
//!   is driven by scheduler events.
//! * [`fault`] — fault injection: random loss, link and node failure.
//! * [`metrics`] — link stress, latency stretch and relative delay penalty
//!   extracted from global topology knowledge, as §4.3 of the paper
//!   describes.

pub mod fault;
pub mod metrics;
pub mod packet;
pub mod pipeline;
pub mod routing;
pub mod shard;
pub mod topology;

pub use packet::{Packet, PacketArena, PacketRef};
pub use pipeline::{Delivery, DropReason, Handoff, NetEvent, Network, NetworkConfig, Sink};
pub use routing::{min_cross_shard_delay, min_link_delay, Router};
pub use shard::ShardMap;
pub use topology::{LinkId, NodeId, NodeKind, Topology, TopologyBuilder};
