//! A fast, deterministic hasher for the engine's hot maps.
//!
//! The simulation kernel keys almost everything by small integer ids
//! (node ids, timer slots, event sequence numbers). `std`'s default
//! SipHash is DoS-resistant but shows up in profiles of large worlds,
//! and its per-process random seed means map *iteration order* varies
//! run to run — a reproducibility hazard this deterministic simulator
//! has no use for (hash flooding is not a threat model for a DES
//! keyed by its own ids). This is the Fx multiply-rotate hash
//! (firefox/rustc's `FxHasher`), fixed-seeded: fast on short integer
//! keys and identical across processes and builds.
//!
//! Use [`FxHashMap`]/[`FxHashSet`] for engine-internal maps. Code that
//! feeds *event order* from a map must still iterate in sorted order —
//! deterministic is not the same as meaningfully ordered.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with the deterministic [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Heap bytes `map` holds: its bucket array plus control bytes, as the
/// swiss table behind `std`'s `HashMap` lays them out. `capacity()`
/// alone undercounts: the table keeps an eighth of its buckets empty.
pub fn table_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    /// Control bytes are probed a SIMD group at a time (SSE2 on x86).
    const GROUP: usize = if cfg!(all(
        target_feature = "sse2",
        any(target_arch = "x86", target_arch = "x86_64")
    )) {
        16
    } else {
        8
    };
    let cap = map.capacity();
    if cap == 0 {
        return 0;
    }
    let buckets = if cap < 8 { cap + 1 } else { cap / 7 * 8 };
    let align = std::mem::align_of::<(K, V)>().max(GROUP);
    (buckets * std::mem::size_of::<(K, V)>()).next_multiple_of(align) + buckets + GROUP
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher (deterministic, not DoS-resistant).
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let h = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn spreads_small_keys() {
        // Consecutive small ids must not collide in low bits (the map's
        // bucket selector).
        let mut low: HashSet<u64> = HashSet::new();
        for v in 0u64..256 {
            let mut h = FxHasher::default();
            h.write_u64(v);
            low.insert(h.finish() & 0xFF);
        }
        assert!(low.len() > 128, "low-bit spread: {}", low.len());
    }

    #[test]
    fn byte_stream_equivalence_is_not_required_but_stable() {
        let mut a = FxHasher::default();
        a.write(b"hello world!!");
        let mut b = FxHasher::default();
        b.write(b"hello world!!");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"hello world!?");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }
}
