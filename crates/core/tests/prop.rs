//! Property tests on keys, SHA-1 and the wire codec.

use macedon_core::key::{
    dsl_digit, dsl_owner_of, dsl_prefix_len, dsl_ring_between, dsl_ring_dist, RING,
};
use macedon_core::sha1::sha1;
use macedon_core::{Addressing, MacedonKey, NodeId, WireReader, WireWriter};
use proptest::prelude::*;

proptest! {
    /// Clockwise distances around the ring sum to the full circle.
    #[test]
    fn distances_sum_to_ring(a in any::<u32>(), b in any::<u32>()) {
        let (ka, kb) = (MacedonKey(a), MacedonKey(b));
        if a != b {
            prop_assert_eq!(ka.distance_to(kb) + kb.distance_to(ka), RING);
        } else {
            prop_assert_eq!(ka.distance_to(kb), 0);
        }
    }

    /// x ∈ (a, b) iff x ∉ [b, a] going the other way (for distinct points).
    #[test]
    fn open_interval_partition(a in any::<u32>(), b in any::<u32>(), x in any::<u32>()) {
        let (ka, kb, kx) = (MacedonKey(a), MacedonKey(b), MacedonKey(x));
        prop_assume!(a != b && x != a && x != b);
        let cw = kx.in_open(ka, kb);
        let ccw = kx.in_open(kb, ka);
        prop_assert!(cw ^ ccw, "each point is on exactly one side");
    }

    /// in_open_closed contains the endpoint, in_open doesn't.
    #[test]
    fn interval_endpoints(a in any::<u32>(), b in any::<u32>()) {
        let (ka, kb) = (MacedonKey(a), MacedonKey(b));
        prop_assume!(a != b);
        prop_assert!(kb.in_open_closed(ka, kb));
        prop_assert!(!kb.in_open(ka, kb));
        prop_assert!(!ka.in_open_closed(ka, kb));
    }

    /// Digits reassemble to the key.
    #[test]
    fn digits_reassemble(k in any::<u32>()) {
        let key = MacedonKey(k);
        let mut v = 0u32;
        for i in 0..8 {
            v = (v << 4) | key.digit(i, 4);
        }
        prop_assert_eq!(v, k);
    }

    /// shared_prefix_len is symmetric and maximal for equal keys.
    #[test]
    fn prefix_symmetry(a in any::<u32>(), b in any::<u32>()) {
        let (ka, kb) = (MacedonKey(a), MacedonKey(b));
        prop_assert_eq!(ka.shared_prefix_len(kb, 4), kb.shared_prefix_len(ka, 4));
        prop_assert_eq!(ka.shared_prefix_len(ka, 4), 8);
    }

    /// ring_distance is a metric-ish: symmetric, zero iff equal, ≤ half.
    #[test]
    fn ring_distance_properties(a in any::<u32>(), b in any::<u32>()) {
        let (ka, kb) = (MacedonKey(a), MacedonKey(b));
        prop_assert_eq!(ka.ring_distance(kb), kb.ring_distance(ka));
        prop_assert_eq!(ka.ring_distance(kb) == 0, a == b);
        prop_assert!(ka.ring_distance(kb) <= RING / 2);
    }

    /// The `ring_dist` builtin is symmetric and bounded by half the ring.
    #[test]
    fn dsl_ring_dist_symmetry(a in any::<u32>(), b in any::<u32>()) {
        let (ka, kb) = (Some(MacedonKey(a)), Some(MacedonKey(b)));
        prop_assert_eq!(dsl_ring_dist(ka, kb), dsl_ring_dist(kb, ka));
        prop_assert!(dsl_ring_dist(ka, kb) <= (RING / 2) as i64);
        prop_assert_eq!(dsl_ring_dist(ka, kb) == 0, a == b);
        // Null loses every "closest" comparison against a real key.
        prop_assert!(dsl_ring_dist(None, kb) > dsl_ring_dist(ka, kb));
    }

    /// The `ring_between` builtin is the half-open clockwise interval
    /// `(lo, hi]`: for distinct endpoints, `(lo, hi]` and `(hi, lo]`
    /// partition the ring exactly (wraparound included), `hi` is in and
    /// `lo` is out.
    #[test]
    fn dsl_ring_between_half_open(x in any::<u32>(), lo in any::<u32>(), hi in any::<u32>()) {
        let (kx, klo, khi) = (Some(MacedonKey(x)), Some(MacedonKey(lo)), Some(MacedonKey(hi)));
        prop_assume!(lo != hi);
        prop_assert!(dsl_ring_between(kx, klo, khi) ^ dsl_ring_between(kx, khi, klo));
        prop_assert!(dsl_ring_between(khi, klo, khi));
        prop_assert!(!dsl_ring_between(klo, klo, khi));
    }

    /// `digit` round-trips against sha1-derived keys: the hex digits
    /// reassemble to the key, and `prefix_len` equals the index of the
    /// first differing digit.
    #[test]
    fn dsl_digit_prefix_roundtrip(name in "[a-z]{1,12}", other in "[a-z]{1,12}") {
        let a = MacedonKey::of_name(&name);
        let b = MacedonKey::of_name(&other);
        let mut v: i64 = 0;
        for i in 0..8 {
            v = (v << 4) | dsl_digit(Some(a), i, 16);
        }
        prop_assert_eq!(v as u32, a.0);
        let plen = dsl_prefix_len(Some(a), Some(b));
        prop_assert_eq!(plen, dsl_prefix_len(Some(b), Some(a)));
        for i in 0..plen {
            prop_assert_eq!(dsl_digit(Some(a), i, 16), dsl_digit(Some(b), i, 16));
        }
        if plen < 8 {
            prop_assert_ne!(dsl_digit(Some(a), plen, 16), dsl_digit(Some(b), plen, 16));
        } else {
            prop_assert_eq!(a, b);
        }
    }

    /// `owner_of` picks a list member, is order-independent, and no other
    /// member sits strictly between the key and the chosen owner.
    #[test]
    fn dsl_owner_of_is_clockwise_min(key in any::<u32>(), ids in proptest::collection::vec(any::<u32>(), 1..12)) {
        let list: Vec<NodeId> = ids.iter().map(|&n| NodeId(n)).collect();
        let k = MacedonKey(key);
        for mode in [Addressing::Ip, Addressing::Hash] {
            let owner = dsl_owner_of(Some(k), &list, mode).expect("non-empty list");
            prop_assert!(list.contains(&owner));
            let mut rev = list.clone();
            rev.reverse();
            prop_assert_eq!(dsl_owner_of(Some(k), &rev, mode), Some(owner));
            let od = k.distance_to(MacedonKey::of_node(owner, mode));
            for &n in &list {
                prop_assert!(k.distance_to(MacedonKey::of_node(n, mode)) >= od);
            }
        }
    }

    /// SHA-1 is deterministic and length-sensitive.
    #[test]
    fn sha1_deterministic(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(sha1(&data), sha1(&data));
        let mut extended = data.clone();
        extended.push(0);
        prop_assert_ne!(sha1(&data), sha1(&extended));
    }

    /// Wire codec roundtrips arbitrary field sequences.
    #[test]
    fn wire_roundtrip(
        ints in proptest::collection::vec(any::<u64>(), 0..20),
        nodes in proptest::collection::vec(any::<u32>(), 0..20),
        blob in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut w = WireWriter::new();
        for &v in &ints { w.u64(v); }
        let node_ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
        w.nodes(&node_ids);
        w.bytes(&blob);
        let mut r = WireReader::new(w.finish());
        for &v in &ints {
            prop_assert_eq!(r.u64().unwrap(), v);
        }
        prop_assert_eq!(r.nodes().unwrap(), node_ids);
        prop_assert_eq!(&r.bytes().unwrap()[..], &blob[..]);
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Any interleaving of up to three live writers — appends, finishes
    /// and mid-encode drops — yields exactly the bytes a fresh-`Vec`
    /// big-endian encoder produces, and every finished frame keeps them.
    /// Values come from a tiny domain so equal back-to-back frames (the
    /// shared-frame case) are common.
    #[test]
    fn interleaved_writers_match_fresh_vec_encoder(
        ops in proptest::collection::vec((0usize..3, 0u8..8, 0u64..3, 0usize..1300), 0..60),
    ) {
        let mut live: Vec<(WireWriter, Vec<u8>)> =
            (0..3).map(|_| (WireWriter::new(), Vec::new())).collect();
        let mut finished = Vec::new();
        for (slot, action, v, len) in ops {
            let (w, reference) = &mut live[slot];
            match action {
                0 => { w.u8(v as u8); reference.push(v as u8); }
                1 => { w.u16(v as u16); reference.extend_from_slice(&(v as u16).to_be_bytes()); }
                2 => { w.u32(v as u32); reference.extend_from_slice(&(v as u32).to_be_bytes()); }
                3 => { w.u64(v); reference.extend_from_slice(&v.to_be_bytes()); }
                4 => {
                    let blob = vec![v as u8; len];
                    w.bytes(&blob);
                    reference.extend_from_slice(&(len as u32).to_be_bytes());
                    reference.extend_from_slice(&blob);
                }
                5 => {
                    let ns = vec![NodeId(v as u32); len % 4];
                    w.nodes(&ns);
                    reference.extend_from_slice(&(ns.len() as u16).to_be_bytes());
                    for n in &ns { reference.extend_from_slice(&n.0.to_be_bytes()); }
                }
                6 => {
                    let (w, reference) =
                        std::mem::replace(&mut live[slot], (WireWriter::new(), Vec::new()));
                    let frame = w.finish();
                    prop_assert_eq!(&frame[..], &reference[..]);
                    finished.push((frame, reference));
                }
                _ => live[slot] = (WireWriter::new(), Vec::new()),
            }
            let (w, reference) = &live[slot];
            prop_assert_eq!(w.len(), reference.len());
        }
        for (frame, reference) in &finished {
            prop_assert_eq!(&frame[..], &reference[..]);
        }
    }

    /// Truncating any wire buffer yields an error, never a panic.
    #[test]
    fn wire_truncation_safe(blob in proptest::collection::vec(any::<u8>(), 0..64), cut in 0usize..64) {
        let mut w = WireWriter::new();
        w.bytes(&blob).u32(7);
        let full = w.finish();
        let cut = cut.min(full.len());
        let mut r = WireReader::new(full.slice(..cut));
        // Must not panic; may error.
        let _ = r.bytes().and_then(|_| r.u32());
    }
}
