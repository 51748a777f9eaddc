//! Node → shard partitioning for parallel time-windowed execution.
//!
//! The sharded engine gives every shard its own scheduler, packet arena
//! and link-state replica, then lets shards advance independently inside
//! a conservative time window. Two deterministic assignments anchor that
//! design:
//!
//! * **node ownership** — hosts are split into contiguous chunks of the
//!   topology's host list, so shard boundaries follow node-id order (the
//!   same order sequential spawns resolve same-instant ties in);
//! * **link ownership** — a directed half-link is charged by exactly one
//!   shard's replica. A link touching a host belongs to that host's
//!   shard: the uplink out of a source is charged by the sender's shard
//!   at send time, and the downlink into a destination is charged by the
//!   receiver's shard at the window barrier — which is what serializes
//!   *contending* senders from different shards deterministically.
//!   Router-to-router links hash to a shard so the assignment is stable
//!   without being order-dependent.
//!
//! The map is immutable after construction; worker counts never change
//! it (a run with P shards produces the same merge order whether one
//! thread or eight execute the shards).

use crate::topology::{Link, NodeId, Topology};
use macedon_sim::mix64;

/// Immutable node → shard assignment plus the link-ownership rule.
#[derive(Clone, Debug)]
pub struct ShardMap {
    of_node: Vec<u16>,
    is_host: Vec<bool>,
    shards: u16,
}

impl ShardMap {
    /// Partition the topology's hosts into `shards` contiguous chunks
    /// (clamped to the host count). Routers are hashed onto shards; only
    /// the link-ownership rule ever consults a router's shard.
    pub fn partition_hosts(topo: &Topology, shards: usize) -> ShardMap {
        let hosts = topo.hosts();
        let p = shards.clamp(1, hosts.len().max(1));
        let mut of_node = vec![u16::MAX; topo.num_nodes()];
        let mut is_host = vec![false; topo.num_nodes()];
        for (i, &h) in hosts.iter().enumerate() {
            of_node[h.index()] = (i * p / hosts.len()) as u16;
            is_host[h.index()] = true;
        }
        for (idx, slot) in of_node.iter_mut().enumerate() {
            if *slot == u16::MAX {
                *slot = (mix64(idx as u64) % p as u64) as u16;
            }
        }
        ShardMap {
            of_node,
            is_host,
            shards: p as u16,
        }
    }

    pub fn shards(&self) -> u16 {
        self.shards
    }

    pub fn shard_of(&self, n: NodeId) -> u16 {
        self.of_node[n.index()]
    }

    /// [`ShardMap::shard_of`] for an id that may name no node of the
    /// topology (a lookup from outside the engine): `None` beyond it.
    pub fn checked_shard_of(&self, n: NodeId) -> Option<u16> {
        self.of_node.get(n.index()).copied()
    }

    /// The shard whose link-state replica charges this directed
    /// half-link.
    ///
    /// *Sender-side host wins*: the first link out of a source is always
    /// owned by the sender's shard, so a route walk always charges at
    /// least one link (and accrues at least one link delay) before a
    /// cross-shard handoff — the invariant the window-safety proof rests
    /// on. A downlink (router → host) is owned by the receiving host's
    /// shard, which is what serializes contending senders from different
    /// shards at the barrier. Router-to-router links hash to a stable
    /// owner.
    pub fn owner_of_link(&self, link: &Link) -> u16 {
        if self.is_host[link.from.index()] {
            self.of_node[link.from.index()]
        } else if self.is_host[link.to.index()] {
            self.of_node[link.to.index()]
        } else {
            let key = link.from.0 as u64 | ((link.to.0 as u64) << 32);
            (mix64(key) % self.shards as u64) as u16
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{canned, LinkSpec};

    #[test]
    fn partition_is_contiguous_and_balanced() {
        let t = canned::star(10, LinkSpec::lan());
        let m = ShardMap::partition_hosts(&t, 4);
        assert_eq!(m.shards(), 4);
        let hosts = t.hosts();
        let shards: Vec<u16> = hosts.iter().map(|&h| m.shard_of(h)).collect();
        // Contiguous: shard ids are non-decreasing along the host list.
        assert!(shards.windows(2).all(|w| w[0] <= w[1]), "{shards:?}");
        // Balanced: every shard owns 10/4 = 2 or 3 hosts.
        for s in 0..4u16 {
            let n = shards.iter().filter(|&&x| x == s).count();
            assert!((2..=3).contains(&n), "shard {s} owns {n}");
        }
    }

    #[test]
    fn shard_count_clamps_to_hosts() {
        let t = canned::star(3, LinkSpec::lan());
        let m = ShardMap::partition_hosts(&t, 16);
        assert_eq!(m.shards(), 3);
    }

    #[test]
    fn uplinks_and_downlinks_belong_to_the_host_side() {
        let t = canned::star(8, LinkSpec::lan());
        let m = ShardMap::partition_hosts(&t, 4);
        for &h in t.hosts() {
            for &lid in t.outgoing(h) {
                let up = t.link(lid);
                let down = t.link(t.reverse(lid));
                // Downlink (router → host) is charged by the host's
                // shard — the receiver-side barrier rule.
                assert_eq!(m.owner_of_link(down), m.shard_of(h));
                // Uplink (host → router) is charged by the host's
                // shard — the sender-side invariant.
                assert_eq!(m.owner_of_link(up), m.shard_of(h));
            }
        }
    }
}
