//! Helpers shared by the workspace integration tests: worlds that run a
//! registry-built spec stack on every host, and readers of the agents'
//! state.
#![allow(dead_code)]

use macedon::core::app::SharedDeliveries;
use macedon::lang::{InterpretedAgent, SpecRegistry};
use macedon::net::Topology;
use macedon::prelude::*;

/// `proto`'s stack from `registry` on every host of `topo`, in a world
/// built from `cfg` with the stack's channel table; joins start
/// `stagger_ms` apart through `hosts[0]`, and every app collects into
/// one sink.
pub(crate) fn spec_world(
    registry: &SpecRegistry,
    proto: &str,
    topo: Topology,
    cfg: WorldConfig,
    stagger_ms: u64,
) -> (World, Vec<NodeId>, SharedDeliveries) {
    let hosts = topo.hosts().to_vec();
    let cfg = WorldConfig {
        channels: registry.channel_table_for(proto).expect("chain resolves"),
        ..cfg
    };
    let mut w = World::new(topo, cfg);
    let sink = shared_deliveries();
    for (i, &h) in hosts.iter().enumerate() {
        let stack = registry
            .build_stack(proto, (i > 0).then(|| hosts[0]))
            .expect("stack builds");
        w.spawn_at(
            Time::from_millis(i as u64 * stagger_ms),
            h,
            stack,
            Box::new(CollectorApp::new(sink.clone())),
        );
    }
    (w, hosts, sink)
}

/// The default world configuration with `seed`.
pub(crate) fn seeded(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        ..Default::default()
    }
}

/// A star LAN of `n` hosts.
pub(crate) fn star(n: usize) -> Topology {
    macedon::net::topology::canned::star(n, macedon::net::topology::LinkSpec::lan())
}

/// The interpreted agent at layer 0 of `node`'s stack.
pub(crate) fn agent(w: &World, node: NodeId) -> &InterpretedAgent {
    w.stack(node)
        .expect("spawned")
        .agent(0)
        .as_any()
        .downcast_ref()
        .expect("interpreted")
}

/// The single entry of a one-slot neighbor list (`parent`-style) of the
/// agent at layer 0.
pub(crate) fn only(w: &World, node: NodeId, list: &str) -> Option<NodeId> {
    agent(w, node).list(list).and_then(|l| l.first().copied())
}

/// A `len`-byte payload stamped with sequence number `seq`.
pub(crate) fn stamped(seq: u64, len: usize) -> Bytes {
    let mut p = vec![0u8; len.max(8)];
    p[..8].copy_from_slice(&seq.to_be_bytes());
    Bytes::from(p)
}

/// Nodes that delivered packet `seq`.
pub(crate) fn receivers(sink: &SharedDeliveries, seq: u64) -> std::collections::HashSet<NodeId> {
    sink.lock()
        .iter()
        .filter(|r| r.seqno == Some(seq))
        .map(|r| r.node)
        .collect()
}

/// A chord node's successor: the clockwise-nearest entry of its
/// `succs` (chord at layer 0).
pub(crate) fn successor(w: &World, node: NodeId) -> Option<NodeId> {
    let me = w.key_of(node);
    agent(w, node)
        .list("succs")?
        .iter()
        .copied()
        .min_by_key(|&s| me.distance_to(w.key_of(s)))
}
