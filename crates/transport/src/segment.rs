//! The wire unit exchanged between endpoints: one segment per emulated
//! packet.

use bytes::Bytes;
use macedon_net::packet::{HEADER_BYTES, MTU};

/// Maximum segment payload: MTU minus the emulated IP+transport header.
pub const MSS: u32 = MTU - HEADER_BYTES;

/// Identifies a named transport instance ("TCP HIGH", "UDP BEST_EFFORT"...)
/// by its index in the endpoint's channel table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChannelId(pub u16);

/// Transport segment payload carried inside a [`macedon_net::Packet`].
#[derive(Clone, Debug)]
pub struct Segment {
    pub channel: ChannelId,
    /// Causal trace span riding with the message this segment belongs
    /// to — out-of-band observability metadata, **not** wire bytes: it
    /// is excluded from [`Segment::size`] so emulated timing, goldens
    /// and interpreted ≡ generated equality are untouched. Zero for
    /// ACKs and engine traffic.
    pub span: u64,
    pub kind: SegKind,
}

#[derive(Clone, Debug)]
pub enum SegKind {
    /// Reliable data segment (TCP or SWP channel).
    Data {
        /// Segment sequence number within the connection (counts
        /// segments, not bytes — framing is message-oriented).
        seq: u64,
        /// Message this segment belongs to.
        msg: u64,
        /// Fragment index within the message.
        frag: u16,
        /// Total fragments in the message.
        frags: u16,
        bytes: Bytes,
    },
    /// Cumulative acknowledgment: all segments `< cum` received.
    Ack { cum: u64 },
    /// Unreliable datagram fragment (UDP channel).
    Datagram {
        msg: u64,
        frag: u16,
        frags: u16,
        bytes: Bytes,
    },
}

impl Segment {
    /// Bytes this segment occupies as packet payload (data plus a small
    /// fixed transport header; ACKs are header-only).
    pub fn size(&self) -> u32 {
        const SEG_HEADER: u32 = 12;
        match &self.kind {
            SegKind::Data { bytes, .. } => SEG_HEADER + bytes.len() as u32,
            SegKind::Ack { .. } => SEG_HEADER,
            SegKind::Datagram { bytes, .. } => SEG_HEADER + bytes.len() as u32,
        }
    }
}

/// Number of fragments [`for_each_fragment`] visits for a message of
/// `len` bytes (an empty message still rides one empty fragment).
pub fn fragment_count(len: usize) -> usize {
    len.div_ceil(MSS as usize).max(1)
}

/// Visit each MSS-sized fragment of a message in order (zero-copy
/// slices, nothing collected).
pub fn for_each_fragment(msg: &Bytes, mut f: impl FnMut(Bytes)) {
    if msg.is_empty() {
        f(Bytes::new());
        return;
    }
    let mut off = 0usize;
    while off < msg.len() {
        let end = (off + MSS as usize).min(msg.len());
        f(msg.slice(off..end));
        off = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fragment(msg: &Bytes) -> Vec<Bytes> {
        let mut out = Vec::new();
        for_each_fragment(msg, |b| out.push(b));
        assert_eq!(out.len(), fragment_count(msg.len()));
        out
    }

    #[test]
    fn fragment_small_message_is_single() {
        let m = Bytes::from(vec![0u8; 100]);
        let f = fragment(&m);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].len(), 100);
    }

    #[test]
    fn fragment_empty_message_yields_one_empty_fragment() {
        let f = fragment(&Bytes::new());
        assert_eq!(f.len(), 1);
        assert!(f[0].is_empty());
    }

    #[test]
    fn fragment_large_message() {
        let m = Bytes::from(vec![7u8; MSS as usize * 2 + 10]);
        let f = fragment(&m);
        assert_eq!(f.len(), 3);
        assert_eq!(f[0].len(), MSS as usize);
        assert_eq!(f[1].len(), MSS as usize);
        assert_eq!(f[2].len(), 10);
        let total: usize = f.iter().map(|b| b.len()).sum();
        assert_eq!(total, m.len());
    }

    #[test]
    fn segment_sizes() {
        let data = Segment {
            channel: ChannelId(0),
            span: 0,
            kind: SegKind::Data {
                seq: 0,
                msg: 0,
                frag: 0,
                frags: 1,
                bytes: Bytes::from(vec![0; 100]),
            },
        };
        assert_eq!(data.size(), 112);
        let ack = Segment {
            channel: ChannelId(0),
            span: 0,
            kind: SegKind::Ack { cum: 5 },
        };
        assert_eq!(ack.size(), 12);
        // The span is observability metadata, never wire bytes.
        let spanned = Segment {
            span: u64::MAX,
            ..data.clone()
        };
        assert_eq!(spanned.size(), data.size());
    }

    // Compile-time guarantee: a full payload segment fits the MTU.
    const _: () = assert!(MSS + HEADER_BYTES <= MTU);
}
