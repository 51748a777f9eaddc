//! Best-effort datagram channel (the paper's "unreliable,
//! congestion-unfriendly" UDP kind).
//!
//! Messages larger than the MSS are fragmented; the receiver reassembles
//! by message id and delivers only complete messages. Any lost fragment
//! loses the whole message — exactly UDP+IP-fragmentation semantics.
//!
//! The reassembly maps use the workspace's one hasher
//! ([`macedon_sim::FxHashMap`], as every other engine map). Neither is
//! ever iterated: fragments are read back by index and eviction order
//! comes from the `insertion` vector, so no hash order can leak into a
//! run.

use crate::segment::{for_each_fragment, fragment_count, ChannelId, SegKind, Segment};
use bytes::Bytes;
use macedon_sim::FxHashMap;

/// Bound on concurrent partially-reassembled messages; oldest evicted.
const REASSEMBLY_CAP: usize = 64;

/// Per-peer datagram state.
#[derive(Default)]
pub struct UdpConn {
    next_msg: u64,
    partial: FxHashMap<u64, PartialMsg>,
    insertion: Vec<u64>,
    /// Datagrams sent (fragments).
    pub frags_sent: u64,
    /// Complete messages delivered.
    pub messages_delivered: u64,
}

struct PartialMsg {
    frags: u16,
    parts: FxHashMap<u16, Bytes>,
    /// Causal trace span of the message (out-of-band metadata).
    span: u64,
}

impl UdpConn {
    pub fn new() -> UdpConn {
        UdpConn::default()
    }

    /// Emit the fragments of one datagram. `span` is the causal trace
    /// span riding with the message (zero when untraced).
    pub fn send(&mut self, msg: Bytes, span: u64, tx: &mut Vec<Segment>) {
        let frags = fragment_count(msg.len()) as u16;
        let id = self.next_msg;
        self.next_msg += 1;
        let mut frag = 0u16;
        for_each_fragment(&msg, |bytes| {
            self.frags_sent += 1;
            tx.push(Segment {
                channel: ChannelId(0), // endpoint rewrites
                span,
                kind: SegKind::Datagram {
                    msg: id,
                    frag,
                    frags,
                    bytes,
                },
            });
            frag += 1;
        });
    }

    /// Accept an inbound fragment; returns a complete message (with its
    /// causal span) when the last fragment arrives.
    pub fn on_datagram(
        &mut self,
        msg: u64,
        frag: u16,
        frags: u16,
        bytes: Bytes,
        span: u64,
    ) -> Option<(Bytes, u64)> {
        if frags == 1 {
            self.messages_delivered += 1;
            return Some((bytes, span));
        }
        let entry = self.partial.entry(msg).or_insert_with(|| PartialMsg {
            frags,
            parts: FxHashMap::default(),
            span,
        });
        if self.insertion.last() != Some(&msg) && !self.insertion.contains(&msg) {
            self.insertion.push(msg);
        }
        entry.parts.insert(frag, bytes);
        if entry.parts.len() == entry.frags as usize {
            let done = self.partial.remove(&msg).expect("just inserted");
            self.insertion.retain(|&m| m != msg);
            let mut buf = Vec::new();
            for i in 0..done.frags {
                buf.extend_from_slice(&done.parts[&i]);
            }
            self.messages_delivered += 1;
            return Some((Bytes::from(buf), done.span));
        }
        // Evict oldest partials beyond the cap.
        while self.partial.len() > REASSEMBLY_CAP {
            let oldest = self.insertion.remove(0);
            self.partial.remove(&oldest);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::MSS;

    fn dg(seg: &Segment) -> (u64, u16, u16, Bytes) {
        match &seg.kind {
            SegKind::Datagram {
                msg,
                frag,
                frags,
                bytes,
            } => (*msg, *frag, *frags, bytes.clone()),
            other => panic!("expected datagram, got {other:?}"),
        }
    }

    #[test]
    fn small_datagram_single_fragment() {
        let mut a = UdpConn::new();
        let mut tx = Vec::new();
        a.send(Bytes::from_static(b"ping"), 9, &mut tx);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].span, 9);
        let mut b = UdpConn::new();
        let (m, f, fs, by) = dg(&tx[0]);
        let (got, span) = b.on_datagram(m, f, fs, by, tx[0].span).unwrap();
        assert_eq!(&got[..], b"ping");
        assert_eq!(span, 9, "span rides to delivery");
    }

    #[test]
    fn large_datagram_reassembles() {
        let payload: Vec<u8> = (0..(MSS as usize * 3 + 5))
            .map(|i| (i % 256) as u8)
            .collect();
        let mut a = UdpConn::new();
        let mut tx = Vec::new();
        a.send(Bytes::from(payload.clone()), 3, &mut tx);
        assert_eq!(tx.len(), 4);
        let mut b = UdpConn::new();
        let mut got = None;
        for seg in &tx {
            let (m, f, fs, by) = dg(seg);
            if let Some(full) = b.on_datagram(m, f, fs, by, seg.span) {
                got = Some(full);
            }
        }
        let (full, span) = got.unwrap();
        assert_eq!(&full[..], &payload[..]);
        assert_eq!(span, 3, "multi-fragment reassembly keeps the span");
    }

    #[test]
    fn out_of_order_fragments_still_reassemble() {
        let payload = vec![9u8; MSS as usize * 2];
        let mut a = UdpConn::new();
        let mut tx = Vec::new();
        a.send(Bytes::from(payload.clone()), 0, &mut tx);
        tx.reverse();
        let mut b = UdpConn::new();
        let mut got = None;
        for seg in &tx {
            let (m, f, fs, by) = dg(seg);
            if let Some(full) = b.on_datagram(m, f, fs, by, seg.span) {
                got = Some(full);
            }
        }
        assert_eq!(got.unwrap().0.len(), payload.len());
    }

    #[test]
    fn lost_fragment_loses_message() {
        let payload = vec![1u8; MSS as usize * 2];
        let mut a = UdpConn::new();
        let mut tx = Vec::new();
        a.send(Bytes::from(payload), 0, &mut tx);
        let mut b = UdpConn::new();
        // Deliver only the first fragment.
        let (m, f, fs, by) = dg(&tx[0]);
        assert!(b.on_datagram(m, f, fs, by, 0).is_none());
        assert_eq!(b.messages_delivered, 0);
    }

    #[test]
    fn reassembly_cap_evicts_oldest() {
        let mut b = UdpConn::new();
        // Feed first fragments of many two-fragment messages.
        for m in 0..(REASSEMBLY_CAP as u64 + 10) {
            assert!(b
                .on_datagram(m, 0, 2, Bytes::from_static(b"a"), 0)
                .is_none());
        }
        // Completing an evicted early message must not complete (its
        // first fragment was dropped by the cap) and must not panic.
        assert!(b
            .on_datagram(0, 1, 2, Bytes::from_static(b"b"), 0)
            .is_none());
        // ...but a recent one completes.
        let recent = REASSEMBLY_CAP as u64 + 9;
        let got = b.on_datagram(recent, 1, 2, Bytes::from_static(b"b"), 0);
        assert!(got.is_some());
    }

    #[test]
    fn duplicate_fragment_ignored() {
        let mut b = UdpConn::new();
        assert!(b
            .on_datagram(5, 0, 2, Bytes::from_static(b"x"), 0)
            .is_none());
        assert!(b
            .on_datagram(5, 0, 2, Bytes::from_static(b"x"), 0)
            .is_none());
        let (got, _) = b.on_datagram(5, 1, 2, Bytes::from_static(b"y"), 0).unwrap();
        assert_eq!(&got[..], b"xy");
    }
}
