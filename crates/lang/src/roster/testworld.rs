//! State readers and API helpers shared by the per-protocol behaviour tests,
//! whose worlds come from [`crate::SpecRegistry::world`].

use macedon_core::app::SharedDeliveries;
use macedon_core::{AgentState, Bytes, DownCall, MacedonKey, NodeId, Time, World};
use std::collections::HashSet;

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
