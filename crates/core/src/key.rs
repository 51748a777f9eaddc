//! The MACEDON key: the paper's 32-bit hash address space.
//!
//! "our implementation of Chord only uses a 32-bit hash address space"
//! (§4.2.2) — node identifiers, group ids and route destinations are all
//! [`MacedonKey`]s. With IP addressing the key is the node id itself;
//! with hash addressing it is `sha1(address)` truncated to 32 bits.

use crate::sha1::sha1_u32;
use macedon_net::NodeId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A point on the 2^32 identifier ring.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacedonKey(pub u32);

/// Ring size as u64 (2^32).
pub const RING: u64 = 1u64 << 32;

/// Key-derivation mode, per the `addressing` header of a mac file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Addressing {
    /// Keys are SHA-1 hashes of addresses.
    Hash,
    /// Keys are the (zero-extended) IP/node ids themselves.
    Ip,
}

/// log2 of the slot count of the process-wide node-key memo (1 MiB).
const MEMO_BITS: u32 = 17;

/// Direct-mapped memo of `sha1_u32(node id)`, indexed by the low
/// [`MEMO_BITS`] bits of the id. An entry is `(tag << 32) | key` with
/// `tag = (id >> MEMO_BITS) + 1`, so the all-zero word means "empty" and
/// the table lives in `.bss`: untouched pages cost nothing, at start-up
/// or ever.
///
/// The memoised function is pure (a SHA-1 of four bytes), so which
/// thread filled a slot, or whether a colliding id evicted it, can never
/// change a returned key — only whether it was recomputed. That is what
/// lets every sweep worker and `World` in the process share one table
/// without touching the determinism contracts.
static NODE_KEY_MEMO: [AtomicU64; 1 << MEMO_BITS] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: AtomicU64 = AtomicU64::new(0);
    [EMPTY; 1 << MEMO_BITS]
};

/// `sha1_u32` of a node id through [`NODE_KEY_MEMO`]. A miss or a
/// collision recomputes and overwrites the slot.
fn hashed_node_key(id: u32) -> u32 {
    let slot = &NODE_KEY_MEMO[(id & ((1 << MEMO_BITS) - 1)) as usize];
    let tag = (id >> MEMO_BITS) as u64 + 1;
    // Relaxed: the word carries its own tag and publishes no other
    // memory, so a reader acts on either a complete entry or a miss.
    let entry = slot.load(Ordering::Relaxed);
    if entry >> 32 == tag {
        return entry as u32;
    }
    let key = sha1_u32(&id.to_be_bytes());
    slot.store(tag << 32 | key as u64, Ordering::Relaxed);
    key
}

impl MacedonKey {
    /// Key of a node under the given addressing mode. Hash keys are
    /// memoised process-wide: specs compare node keys hundreds of times
    /// per routing callback.
    pub fn of_node(node: NodeId, mode: Addressing) -> MacedonKey {
        match mode {
            Addressing::Hash => MacedonKey(hashed_node_key(node.0)),
            Addressing::Ip => MacedonKey(node.0),
        }
    }

    /// Key of an arbitrary name (group names, object ids).
    pub fn of_name(name: &str) -> MacedonKey {
        MacedonKey(sha1_u32(name.as_bytes()))
    }

    /// Clockwise distance from `self` to `other` on the ring.
    pub fn distance_to(self, other: MacedonKey) -> u64 {
        (other.0 as u64 + RING - self.0 as u64) % RING
    }

    /// `self + 2^i (mod 2^32)` — Chord finger targets.
    pub fn plus_pow2(self, i: u32) -> MacedonKey {
        debug_assert!(i < 32);
        MacedonKey(((self.0 as u64 + (1u64 << i)) % RING) as u32)
    }

    /// True if `self` lies in the open interval `(a, b)` going clockwise.
    pub fn in_open(self, a: MacedonKey, b: MacedonKey) -> bool {
        if a == b {
            // Whole ring except the endpoint.
            return self != a;
        }
        a.distance_to(self) > 0 && a.distance_to(self) < a.distance_to(b)
    }

    /// True if `self` lies in the half-open interval `(a, b]` clockwise.
    pub fn in_open_closed(self, a: MacedonKey, b: MacedonKey) -> bool {
        if a == b {
            return true; // full ring
        }
        a.distance_to(self) > 0 && a.distance_to(self) <= a.distance_to(b)
    }

    /// Digit `i` (0 = most significant) of the key in base `2^bits`.
    /// Pastry prefix routing uses `bits = 4` → 8 hex digits.
    pub fn digit(self, i: u32, bits: u32) -> u32 {
        debug_assert!(bits > 0 && 32 % bits == 0 && i < 32 / bits);
        let shift = 32 - bits * (i + 1);
        (self.0 >> shift) & ((1 << bits) - 1)
    }

    /// Length of the shared prefix with `other`, in digits of `2^bits`.
    pub fn shared_prefix_len(self, other: MacedonKey, bits: u32) -> u32 {
        let digits = 32 / bits;
        for i in 0..digits {
            if self.digit(i, bits) != other.digit(i, bits) {
                return i;
            }
        }
        digits
    }

    /// Absolute ring distance (min of clockwise and counter-clockwise) —
    /// Pastry's leaf-set proximity.
    pub fn ring_distance(self, other: MacedonKey) -> u64 {
        let cw = self.distance_to(other);
        cw.min(RING - cw)
    }
}

// ---------------------------------------------------------------------------
// DSL builtin semantics — shared by the IR interpreter and the generated
// Rust back end so `ring_dist(...)` and friends evaluate bit-for-bit
// identically under both translators. All are total: a null operand
// yields the documented sentinel instead of a runtime error, so specs
// may call them before their neighbor state is populated.
// ---------------------------------------------------------------------------

/// `ring_dist(a, b)`: symmetric ring distance between two keys. A null
/// operand yields `RING` (2^32) — larger than any real distance, so a
/// null candidate loses every "closest" comparison.
pub fn dsl_ring_dist(a: Option<MacedonKey>, b: Option<MacedonKey>) -> i64 {
    match (a, b) {
        (Some(a), Some(b)) => a.ring_distance(b) as i64,
        _ => RING as i64,
    }
}

/// `ring_between(x, lo, hi)`: true iff `x` lies in the half-open
/// clockwise interval `(lo, hi]`. Any null operand yields false.
pub fn dsl_ring_between(
    x: Option<MacedonKey>,
    lo: Option<MacedonKey>,
    hi: Option<MacedonKey>,
) -> bool {
    match (x, lo, hi) {
        (Some(x), Some(lo), Some(hi)) => x.in_open_closed(lo, hi),
        _ => false,
    }
}

/// `digit(key, i, base)`: digit `i` (0 = most significant) of the key
/// written in `base`, which must be a power-of-two radix whose bit width
/// divides 32 (2, 4, 16, 256, 65536). A null key, an unusable base or an
/// out-of-range index yields 0.
pub fn dsl_digit(key: Option<MacedonKey>, i: i64, base: i64) -> i64 {
    let Some(k) = key else { return 0 };
    if !(2..=65536).contains(&base) {
        return 0;
    }
    let base = base as u32;
    if !base.is_power_of_two() {
        return 0;
    }
    let bits = base.trailing_zeros();
    if 32 % bits != 0 || i < 0 || i as u32 >= 32 / bits {
        return 0;
    }
    k.digit(i as u32, bits) as i64
}

/// `prefix_len(a, b)`: length of the shared hex-digit prefix (bits = 4,
/// the Pastry default radix). A null operand yields 0.
pub fn dsl_prefix_len(a: Option<MacedonKey>, b: Option<MacedonKey>) -> i64 {
    match (a, b) {
        (Some(a), Some(b)) => a.shared_prefix_len(b, 4) as i64,
        _ => 0,
    }
}

/// `key + signed offset`, wrapping on the 2^32 ring — the DSL's
/// `my_key + pow2` finger targets. i64 wrapping is mod 2^64 and 2^32
/// divides 2^64, so the final `rem_euclid` still yields the true sum
/// mod 2^32.
pub fn dsl_key_add(k: MacedonKey, off: i64) -> MacedonKey {
    MacedonKey((k.0 as i64).wrapping_add(off).rem_euclid(RING as i64) as u32)
}

/// `owner_of(key, list)`: the list member that owns `key` — the node
/// whose key is clockwise-nearest at-or-after `key`, ties broken by node
/// id so the choice is deterministic. A null key or an empty list yields
/// null.
pub fn dsl_owner_of(key: Option<MacedonKey>, list: &[NodeId], mode: Addressing) -> Option<NodeId> {
    let key = key?;
    list.iter()
        .copied()
        .min_by_key(|&n| (key.distance_to(MacedonKey::of_node(n, mode)), n.0))
}

/// Nodes in key order, from global knowledge: the ring Chord's tests
/// and Figure 10 score routing state against. Equal keys order by node
/// id, so [`Ring::owner`] answers what [`dsl_owner_of`] would over the
/// same nodes, in O(log n).
pub struct Ring(Vec<(MacedonKey, NodeId)>);

impl Ring {
    pub fn new(nodes: &[NodeId], mode: Addressing) -> Ring {
        let mut ring: Vec<_> = nodes
            .iter()
            .map(|&n| (MacedonKey::of_node(n, mode), n))
            .collect();
        ring.sort_unstable();
        Ring(ring)
    }

    /// The nodes in ring order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.0.iter().map(|&(_, n)| n)
    }

    /// The owner of `key`: the first node clockwise at or after it.
    /// Panics on an empty ring.
    pub fn owner(&self, key: MacedonKey) -> NodeId {
        let i = self.0.partition_point(|&(k, _)| k < key);
        self.0.get(i).unwrap_or(&self.0[0]).1
    }
}

impl fmt::Debug for MacedonKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{:08x}", self.0)
    }
}

impl fmt::Display for MacedonKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressing_modes() {
        let n = NodeId(42);
        assert_eq!(MacedonKey::of_node(n, Addressing::Ip), MacedonKey(42));
        let h = MacedonKey::of_node(n, Addressing::Hash);
        assert_ne!(h, MacedonKey(42));
        // Deterministic.
        assert_eq!(h, MacedonKey::of_node(n, Addressing::Hash));
    }

    fn reference(id: u32) -> MacedonKey {
        MacedonKey(sha1_u32(&id.to_be_bytes()))
    }

    #[test]
    fn memoised_node_keys_equal_plain_sha1() {
        let hash = |id: u32| MacedonKey::of_node(NodeId(id), Addressing::Hash);
        // Two ids that share a slot evict each other and still read
        // back their own key, in either order and repeatedly.
        let (a, b) = (12_345, 12_345 + (1 << MEMO_BITS));
        for id in [a, b, a, a, b, 0, u32::MAX, u32::MAX - (1 << MEMO_BITS)] {
            assert_eq!(hash(id), reference(id), "id {id}");
        }
        let mut rng = macedon_sim::SimRng::new(17);
        for _ in 0..2_000 {
            let id = rng.next_u64() as u32;
            assert_eq!(hash(id), reference(id), "id {id}");
            assert_eq!(hash(id), reference(id), "id {id}, memo hit");
        }
    }

    #[test]
    fn two_threads_fill_the_memo_concurrently() {
        // Both threads hit the same slots at once, with colliding ids
        // interleaved so entries are evicted under the other's feet.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for round in 0..4u32 {
                        for i in 0..5_000u32 {
                            let id = 70_000 + i + ((round + t) % 2) * (1 << MEMO_BITS);
                            let got = MacedonKey::of_node(NodeId(id), Addressing::Hash);
                            assert_eq!(got, reference(id), "id {id}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn distance_wraps() {
        let a = MacedonKey(u32::MAX - 10);
        let b = MacedonKey(10);
        assert_eq!(a.distance_to(b), 21);
        assert_eq!(b.distance_to(a), RING - 21);
        assert_eq!(a.distance_to(a), 0);
    }

    #[test]
    fn in_open_interval() {
        let a = MacedonKey(100);
        let b = MacedonKey(200);
        assert!(MacedonKey(150).in_open(a, b));
        assert!(!MacedonKey(100).in_open(a, b));
        assert!(!MacedonKey(200).in_open(a, b));
        assert!(!MacedonKey(250).in_open(a, b));
        // Wrapping interval.
        let w1 = MacedonKey(u32::MAX - 5);
        let w2 = MacedonKey(5);
        assert!(MacedonKey(0).in_open(w1, w2));
        assert!(MacedonKey(u32::MAX).in_open(w1, w2));
        assert!(!MacedonKey(100).in_open(w1, w2));
    }

    #[test]
    fn in_open_closed_interval() {
        let a = MacedonKey(100);
        let b = MacedonKey(200);
        assert!(MacedonKey(200).in_open_closed(a, b));
        assert!(!MacedonKey(100).in_open_closed(a, b));
        // Degenerate interval = full ring.
        assert!(MacedonKey(7).in_open_closed(a, a));
    }

    #[test]
    fn open_degenerate_excludes_endpoint() {
        let a = MacedonKey(9);
        assert!(!a.in_open(a, a));
        assert!(MacedonKey(10).in_open(a, a));
    }

    #[test]
    fn plus_pow2_wraps() {
        let k = MacedonKey(u32::MAX);
        assert_eq!(k.plus_pow2(0), MacedonKey(0));
        assert_eq!(MacedonKey(0).plus_pow2(31), MacedonKey(1 << 31));
    }

    #[test]
    fn digits() {
        let k = MacedonKey(0x1234_ABCD);
        assert_eq!(k.digit(0, 4), 0x1);
        assert_eq!(k.digit(1, 4), 0x2);
        assert_eq!(k.digit(7, 4), 0xD);
        assert_eq!(k.digit(0, 8), 0x12);
        assert_eq!(k.digit(3, 8), 0xCD);
    }

    #[test]
    fn shared_prefix() {
        let a = MacedonKey(0x1234_0000);
        let b = MacedonKey(0x1235_0000);
        assert_eq!(a.shared_prefix_len(b, 4), 3);
        assert_eq!(a.shared_prefix_len(a, 4), 8);
        let c = MacedonKey(0x9234_0000);
        assert_eq!(a.shared_prefix_len(c, 4), 0);
    }

    #[test]
    fn ring_distance_symmetric() {
        let a = MacedonKey(10);
        let b = MacedonKey(u32::MAX - 9);
        assert_eq!(a.ring_distance(b), 20);
        assert_eq!(b.ring_distance(a), 20);
        assert_eq!(a.ring_distance(a), 0);
    }

    #[test]
    fn name_keys_spread() {
        let k1 = MacedonKey::of_name("group-1");
        let k2 = MacedonKey::of_name("group-2");
        assert_ne!(k1, k2);
    }

    #[test]
    fn dsl_helpers_null_sentinels() {
        let k = Some(MacedonKey(7));
        assert_eq!(dsl_ring_dist(None, k), RING as i64);
        assert_eq!(dsl_ring_dist(k, None), RING as i64);
        assert!(!dsl_ring_between(None, k, k));
        assert!(!dsl_ring_between(k, None, k));
        assert!(!dsl_ring_between(k, k, None));
        assert_eq!(dsl_digit(None, 0, 16), 0);
        assert_eq!(dsl_prefix_len(None, k), 0);
        assert_eq!(dsl_owner_of(None, &[NodeId(1)], Addressing::Ip), None);
        assert_eq!(dsl_owner_of(k, &[], Addressing::Ip), None);
    }

    #[test]
    fn dsl_digit_rejects_bad_radix() {
        let k = Some(MacedonKey(0x1234_ABCD));
        assert_eq!(dsl_digit(k, 0, 0), 0);
        assert_eq!(dsl_digit(k, 0, 1), 0);
        assert_eq!(dsl_digit(k, 0, 3), 0);
        assert_eq!(dsl_digit(k, 0, 8), 0); // 3 bits does not divide 32
        assert_eq!(dsl_digit(k, -1, 16), 0);
        assert_eq!(dsl_digit(k, 8, 16), 0);
        assert_eq!(dsl_digit(k, 0, 16), 0x1);
        assert_eq!(dsl_digit(k, 7, 16), 0xD);
        assert_eq!(dsl_digit(k, 1, 256), 0x34);
    }

    #[test]
    fn dsl_owner_of_clockwise_at_or_after() {
        // Ip addressing: node id is the key. Owner of 10 among
        // {5, 10, 20} is 10 itself (distance 0); owner of 11 is 20.
        let list = [NodeId(5), NodeId(10), NodeId(20)];
        let own = |k: u32| dsl_owner_of(Some(MacedonKey(k)), &list, Addressing::Ip);
        assert_eq!(own(10), Some(NodeId(10)));
        assert_eq!(own(11), Some(NodeId(20)));
        // Wraps past the top of the ring back to the smallest id.
        assert_eq!(own(21), Some(NodeId(5)));
        assert_eq!(own(u32::MAX), Some(NodeId(5)));
    }

    #[test]
    fn ring_order_is_sorted_and_complete() {
        let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
        let ring: Vec<NodeId> = Ring::new(&nodes, Addressing::Hash).nodes().collect();
        assert_eq!(ring.len(), 5);
        for pair in ring.windows(2) {
            assert!(
                MacedonKey::of_node(pair[0], Addressing::Hash)
                    < MacedonKey::of_node(pair[1], Addressing::Hash)
            );
        }
    }

    #[test]
    fn ring_owner_is_clockwise_successor() {
        let ring = Ring::new(&[NodeId(300), NodeId(100), NodeId(200)], Addressing::Ip);
        assert_eq!(ring.owner(MacedonKey(150)), NodeId(200));
        assert_eq!(ring.owner(MacedonKey(200)), NodeId(200));
        assert_eq!(ring.owner(MacedonKey(350)), NodeId(100)); // wraps

        // The same answer as the DSL's `owner_of` over the same nodes.
        let nodes: Vec<NodeId> = (0..40).map(NodeId).collect();
        let ring = Ring::new(&nodes, Addressing::Hash);
        for k in (0..64u32).map(|i| MacedonKey(i.wrapping_mul(0x9E37_79B9))) {
            let want = dsl_owner_of(Some(k), &nodes, Addressing::Hash);
            assert_eq!(Some(ring.owner(k)), want, "{k:?}");
        }
    }
}
