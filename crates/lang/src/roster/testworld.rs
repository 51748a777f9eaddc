//! Seeded worlds running one registered spec, interpreted, on every host
//! of a topology: the fixture of the per-protocol behaviour tests.

use crate::SpecRegistry;
use macedon_core::app::{shared_deliveries, CollectorApp, SharedDeliveries};
use macedon_core::{
    AgentState, Bytes, DownCall, Duration, MacedonKey, NodeId, Time, World, WorldConfig,
};
use macedon_net::Topology;
use std::collections::HashSet;

/// `proto`'s stack from `registry` on every host of `topo`, in a world
/// built from `cfg` with the stack's channel table; joins start
/// `stagger_ms` apart through the first host, and every app collects
/// into one sink.
pub(crate) fn roster_world(
    registry: &SpecRegistry,
    proto: &str,
    topo: Topology,
    cfg: WorldConfig,
    stagger_ms: u64,
) -> (World, Vec<NodeId>, SharedDeliveries) {
    let cfg = WorldConfig {
        channels: registry.channel_table_for(proto).expect("chain resolves"),
        ..cfg
    };
    let mut w = World::new(topo, cfg);
    let sink = shared_deliveries();
    let hosts = w.spawn_each(Duration::from_millis(stagger_ms), |_, bootstrap| {
        let stack = registry
            .build_stack(proto, bootstrap)
            .expect("stack builds");
        (stack, Box::new(CollectorApp::new(sink.clone())))
    });
    (w, hosts, sink)
}

/// The default world configuration with `seed`.
pub(crate) fn seeded(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        ..Default::default()
    }
}

/// The state of the spec agent at layer 0 of `node`'s stack.
pub(crate) fn view(w: &World, node: NodeId) -> AgentState<'_> {
    w.stack(node)
        .expect("spawned")
        .agent(0)
        .view()
        .expect("a spec agent")
}

/// A neighbor list of the agent at layer 0.
pub(crate) fn list<'w>(w: &'w World, node: NodeId, name: &str) -> &'w [NodeId] {
    view(w, node).list(name).expect("declared list")
}

/// The single entry of a one-slot neighbor list (`parent`-style).
pub(crate) fn only(w: &World, node: NodeId, name: &str) -> Option<NodeId> {
    list(w, node, name).first().copied()
}

/// A `len`-byte payload stamped with sequence number `seq`.
pub(crate) fn stamped(seq: u64, len: usize) -> Bytes {
    let mut p = vec![0u8; len.max(8)];
    p[..8].copy_from_slice(&seq.to_be_bytes());
    Bytes::from(p)
}

/// Schedule a group-0 multicast of packet `seq` from `from` at `at`.
pub(crate) fn multicast(w: &mut World, at: Time, from: NodeId, seq: u64) {
    w.api_at(
        at,
        from,
        DownCall::Multicast {
            group: MacedonKey(0),
            payload: stamped(seq, 64),
            priority: -1,
        },
    );
}

/// Nodes that delivered packet `seq`.
pub(crate) fn receivers(sink: &SharedDeliveries, seq: u64) -> HashSet<NodeId> {
    sink.lock()
        .iter()
        .filter(|r| r.seqno == Some(seq))
        .map(|r| r.node)
        .collect()
}

/// Do the `papa` pointers from `node` lead to `hosts[0]`, with no
/// dangling pointer and no cycle?
pub(crate) fn reaches_root(w: &World, hosts: &[NodeId], node: NodeId) -> bool {
    let mut cur = node;
    for _ in 0..=hosts.len() {
        if cur == hosts[0] {
            return true;
        }
        match only(w, cur, "papa") {
            Some(p) => cur = p,
            None => return false,
        }
    }
    false
}
