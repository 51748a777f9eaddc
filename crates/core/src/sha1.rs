//! SHA-1, implemented from scratch (FIPS 180-1).
//!
//! The paper's engine includes "SHA hashing" as one of the MACEDON
//! libraries; hash-addressed overlays derive node and object keys from it.
//! Our Chord/Pastry use the paper's 32-bit hash address space, so callers
//! usually truncate the digest via [`sha1_u32`].

/// Compute the 20-byte SHA-1 digest of `data`.
///
/// Whole 64-byte blocks are compressed straight from `data`; the tail
/// and its padding (0x80, zeros, 64-bit big-endian bit length) go
/// through a two-block stack buffer, so hashing never touches the heap.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [
        0x6745_2301,
        0xEFCD_AB89,
        0x98BA_DCFE,
        0x1032_5476,
        0xC3D2_E1F0,
    ];

    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut h, block);
    }
    let rest = blocks.remainder();
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    // One block when the length field still fits after the 0x80 marker.
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let ml = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&ml.to_be_bytes());
    for block in tail[..tail_len].chunks_exact(64) {
        compress(&mut h, block);
    }

    let mut out = [0u8; 20];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-1 compression function over one 64-byte block.
fn compress(h: &mut [u32; 5], block: &[u8]) {
    let mut w = [0u32; 80];
    for (i, word) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
            20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
            _ => (b ^ c ^ d, 0xCA62_C1D6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// First 4 bytes of the SHA-1 digest as a big-endian u32 — the paper's
/// 32-bit hash address space.
pub fn sha1_u32(data: &[u8]) -> u32 {
    let d = sha1(data);
    u32::from_be_bytes([d[0], d[1], d[2], d[3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Known-answer tests from FIPS 180-1 / RFC 3174.
    #[test]
    fn empty_string() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let m = vec![b'a'; 1_000_000];
        assert_eq!(hex(&sha1(&m)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn boundary_lengths() {
        // 55, 56, 63, 64, 65 bytes cross padding boundaries.
        for n in [55usize, 56, 63, 64, 65] {
            let m = vec![0x61; n];
            let d = sha1(&m);
            assert_eq!(d.len(), 20);
            // Digest must differ from neighbors (sanity).
            let d2 = sha1(&vec![0x61; n + 1]);
            assert_ne!(d, d2);
        }
    }

    #[test]
    fn u32_truncation_matches_digest_prefix() {
        let d = sha1(b"macedon");
        let v = sha1_u32(b"macedon");
        assert_eq!(v.to_be_bytes(), [d[0], d[1], d[2], d[3]]);
    }
}
