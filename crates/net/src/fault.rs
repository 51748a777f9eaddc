//! Fault injection: random loss, link failure, node failure, partitions.
//!
//! ModelNet topologies are static during a run, but the MACEDON engine's
//! failure detector (§3.1 of the paper) and our failure-injection tests
//! need links and nodes to die mid-experiment; this module is the switch
//! board for that.

use crate::topology::NodeId;
use macedon_sim::mix64;
use std::collections::HashSet;

/// A growable set of small integers, one bit each. The pipeline asks
/// "is this node down / on that side?" several times per packet; a word
/// load and a shift answer it, and iteration is in ascending order by
/// construction (no hasher state to leak into results).
#[derive(Clone, Debug, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn insert(&mut self, i: u32) {
        let w = (i / 64) as usize;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: u32) {
        if let Some(w) = self.words.get_mut((i / 64) as usize) {
            *w &= !(1 << (i % 64));
        }
    }

    #[inline]
    fn contains(&self, i: u32) -> bool {
        self.words
            .get((i / 64) as usize)
            .is_some_and(|w| w >> (i % 64) & 1 != 0)
    }

    /// Members in ascending order.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.words.len() * 64)
            .map(|i| i as u32)
            .filter(|&i| self.contains(i))
    }
}

/// Mutable fault state consulted by the packet pipeline.
#[derive(Clone, Debug, Default)]
pub struct Faults {
    drop_probability: f64,
    /// Failed physical links, by phys id.
    links_down: BitSet,
    /// Crashed nodes, by node id.
    nodes_down: BitSet,
    /// Active network partition: one side's node set (the other side is
    /// the complement). Packets whose endpoints straddle the cut are
    /// dropped at every hop. At most one partition is active at a time —
    /// scenario validation rejects overlapping partitions.
    partition: Option<BitSet>,
}

impl Faults {
    /// Probability that any individual hop drops a packet (applied
    /// independently per link traversal, like smoltcp's `--drop-chance`).
    pub fn set_drop_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.drop_probability = p;
    }

    pub fn drop_probability(&self) -> f64 {
        self.drop_probability
    }

    /// Take down a physical link (both directions).
    pub fn fail_link(&mut self, phys: u32) {
        self.links_down.insert(phys);
    }

    pub fn heal_link(&mut self, phys: u32) {
        self.links_down.remove(phys);
    }

    pub fn link_is_down(&self, phys: u32) -> bool {
        self.links_down.contains(phys)
    }

    /// Crash a node: all packets to, from or through it are dropped.
    pub fn fail_node(&mut self, n: NodeId) {
        self.nodes_down.insert(n.0);
    }

    pub fn heal_node(&mut self, n: NodeId) {
        self.nodes_down.remove(n.0);
    }

    pub fn node_is_down(&self, n: NodeId) -> bool {
        self.nodes_down.contains(n.0)
    }

    /// Crashed nodes, in ascending id order.
    pub fn failed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes_down.iter().map(NodeId)
    }

    /// Loss decision for one hop, keyed by packet/hop identity instead
    /// of drawn from a mutable RNG stream. The same `(probability, key)`
    /// pair always yields the same verdict, no matter when or on which
    /// shard the hop is evaluated — the property that keeps sharded
    /// route walks bit-identical to the sequential engine. Callers
    /// build `key` from the loss seed, the packet's send identity and
    /// the hop index (see `pipeline`).
    pub fn drops_hop(&self, key: u64) -> bool {
        Self::hop_drops_at(self.drop_probability, key)
    }

    /// The stateless core of [`Faults::drops_hop`], usable with a loss
    /// probability captured at send time (packets in flight across a
    /// shard boundary keep the probability they were sent under).
    pub fn hop_drops_at(p: f64, key: u64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // Compare the mixed key against p scaled to the full u64 range;
        // mix64 output is uniform, so P(mixed < p·2⁶⁴) = p.
        let threshold = (p * (u64::MAX as f64)) as u64;
        mix64(key) < threshold
    }

    /// Install a network partition: `side` vs everyone else. Replaces
    /// any previous partition.
    pub fn set_partition(&mut self, side: HashSet<NodeId>) {
        let mut bits = BitSet::default();
        for n in side {
            bits.insert(n.0);
        }
        self.partition = Some(bits);
    }

    /// Remove the active partition (heal).
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    pub fn has_partition(&self) -> bool {
        self.partition.is_some()
    }

    /// Do `a` and `b` sit on opposite sides of the active partition?
    pub fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        match &self.partition {
            Some(side) => side.contains(a.0) != side.contains(b.0),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_lifecycle() {
        let mut f = Faults::default();
        assert!(!f.link_is_down(3));
        f.fail_link(3);
        assert!(f.link_is_down(3));
        f.heal_link(3);
        assert!(!f.link_is_down(3));
    }

    #[test]
    fn node_lifecycle() {
        let mut f = Faults::default();
        let n = NodeId(7);
        f.fail_node(n);
        assert!(f.node_is_down(n));
        assert_eq!(f.failed_nodes().count(), 1);
        f.heal_node(n);
        assert!(!f.node_is_down(n));
    }

    #[test]
    fn failed_nodes_iterate_in_ascending_id_order() {
        // Insertion order, word boundaries and a healed node in between
        // must not show: the order is a function of the set alone.
        let mut f = Faults::default();
        for id in [900, 3, 64, 63, 0, 128, 65] {
            f.fail_node(NodeId(id));
        }
        f.heal_node(NodeId(64));
        let got: Vec<u32> = f.failed_nodes().map(|n| n.0).collect();
        assert_eq!(got, [0, 3, 63, 65, 128, 900]);
    }

    #[test]
    fn drop_probability_zero_never_drops() {
        let f = Faults::default();
        assert!(!(0..1000u64).any(|k| f.drops_hop(k)));
    }

    #[test]
    fn drop_probability_one_always_drops() {
        let mut f = Faults::default();
        f.set_drop_probability(1.0);
        assert!((0..1000u64).all(|k| f.drops_hop(k)));
    }

    #[test]
    fn keyed_drop_is_a_pure_function_of_key() {
        let mut f = Faults::default();
        f.set_drop_probability(0.3);
        let first: Vec<bool> = (0..64u64).map(|k| f.drops_hop(k)).collect();
        let again: Vec<bool> = (0..64u64).map(|k| f.drops_hop(k)).collect();
        assert_eq!(first, again, "verdicts do not depend on call order");
        let hits = first.iter().filter(|&&d| d).count();
        assert!((5..=30).contains(&hits), "roughly p of keys drop: {hits}");
    }

    #[test]
    #[should_panic]
    fn invalid_probability_panics() {
        Faults::default().set_drop_probability(1.5);
    }

    #[test]
    fn partition_lifecycle() {
        let mut f = Faults::default();
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
        assert!(!f.partitioned(a, b));
        f.set_partition([a].into_iter().collect());
        assert!(f.has_partition());
        assert!(f.partitioned(a, b));
        assert!(f.partitioned(b, a));
        assert!(!f.partitioned(b, c), "same side stays connected");
        assert!(!f.partitioned(a, a));
        f.heal_partition();
        assert!(!f.partitioned(a, b));
    }
}
