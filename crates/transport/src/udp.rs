//! Best-effort datagram channel (the paper's "unreliable,
//! congestion-unfriendly" UDP kind).
//!
//! Messages larger than the MSS are fragmented; the receiver reassembles
//! by message id and delivers only complete messages. Any lost fragment
//! loses the whole message — exactly UDP+IP-fragmentation semantics.
//!
//! A datagram keeps no per-peer state: a single-fragment one (every
//! datagram the roster sends) goes out and comes in without a table
//! lookup, and a `Reassembly` entry exists only while a
//! multi-fragment message is partial. Message ids come from one counter
//! per sending endpoint, so they are unique per `(peer, channel)` at the
//! receiver, which is all reassembly needs.

use crate::segment::{for_each_fragment, fragment_count, ChannelId, SegKind, Segment};
use bytes::Bytes;
use macedon_net::NodeId;
use macedon_sim::FxHashMap;

/// Bound on concurrent partially-reassembled messages per `(peer,
/// channel)`; oldest evicted.
const REASSEMBLY_CAP: usize = 64;

/// Hand each fragment of datagram `id` to `emit`, in order. `span` is
/// the causal trace span riding with the message (zero when untraced).
pub(crate) fn fragments(
    ch: ChannelId,
    id: u64,
    msg: &Bytes,
    span: u64,
    mut emit: impl FnMut(Segment),
) {
    let frags = fragment_count(msg.len()) as u16;
    let mut frag = 0u16;
    for_each_fragment(msg, |bytes| {
        emit(Segment {
            channel: ch,
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

/// Inbound multi-fragment datagrams still missing fragments, by source
/// and channel: a never-empty list in order of first arrival (the
/// eviction order).
#[derive(Default)]
pub(crate) struct Reassembly {
    partial: FxHashMap<(NodeId, ChannelId), Vec<PartialMsg>>,
}

struct PartialMsg {
    id: u64,
    /// Fragment `i` once it has arrived.
    parts: Vec<Option<Bytes>>,
    arrived: u16,
    /// Causal trace span of the message (out-of-band metadata).
    span: u64,
}

impl Reassembly {
    /// Accept an inbound fragment from `from = (peer, channel)`; returns
    /// a complete message (with its causal span) when the last fragment
    /// arrives.
    pub(crate) fn accept(
        &mut self,
        from: (NodeId, ChannelId),
        msg: u64,
        frag: u16,
        frags: u16,
        bytes: Bytes,
        span: u64,
    ) -> Option<(Bytes, u64)> {
        if frags == 1 {
            return Some((bytes, span));
        }
        let msgs = self.partial.entry(from).or_default();
        let i = msgs.iter().position(|m| m.id == msg).unwrap_or_else(|| {
            msgs.push(PartialMsg {
                id: msg,
                parts: vec![None; frags as usize],
                arrived: 0,
                span,
            });
            msgs.len() - 1
        });
        let m = &mut msgs[i];
        if let Some(slot @ None) = m.parts.get_mut(frag as usize) {
            *slot = Some(bytes);
            m.arrived += 1;
        }
        if m.arrived as usize == m.parts.len() {
            let done = msgs.remove(i);
            if msgs.is_empty() {
                self.partial.remove(&from);
            }
            let mut buf = Vec::new();
            for part in done.parts.iter().flatten() {
                buf.extend_from_slice(part);
            }
            return Some((Bytes::from(buf), done.span));
        }
        if msgs.len() > REASSEMBLY_CAP {
            msgs.remove(0);
        }
        None
    }

    /// Drop every partial message from `peer`.
    pub(crate) fn reset_peer(&mut self, peer: NodeId) {
        self.partial.retain(|&(p, _), _| p != peer);
    }

    /// `(peer, channel)` pairs with a partial message.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.partial.len()
    }

    /// Heap bytes held: table capacity plus every partial's buffers
    /// (fragment payloads are shared with the packets, not counted).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let msgs = |v: &Vec<PartialMsg>| {
            let parts: usize = v.iter().map(|m| m.parts.capacity()).sum();
            v.capacity() * size_of::<PartialMsg>() + parts * size_of::<Option<Bytes>>()
        };
        macedon_sim::table_bytes(&self.partial) + self.partial.values().map(msgs).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::MSS;

    const PEER: NodeId = NodeId(7);
    const CH: ChannelId = ChannelId(4);

    fn segments(id: u64, msg: &Bytes, span: u64) -> Vec<Segment> {
        let mut tx = Vec::new();
        fragments(CH, id, msg, span, |s| tx.push(s));
        tx
    }

    fn accept(r: &mut Reassembly, seg: &Segment) -> Option<(Bytes, u64)> {
        match &seg.kind {
            SegKind::Datagram {
                msg,
                frag,
                frags,
                bytes,
            } => r.accept((PEER, CH), *msg, *frag, *frags, bytes.clone(), seg.span),
            other => panic!("expected datagram, got {other:?}"),
        }
    }

    fn part(
        r: &mut Reassembly,
        msg: u64,
        frag: u16,
        frags: u16,
        b: &'static [u8],
    ) -> Option<Bytes> {
        r.accept((PEER, CH), msg, frag, frags, Bytes::from_static(b), 0)
            .map(|(full, _)| full)
    }

    #[test]
    fn small_datagram_single_fragment() {
        let tx = segments(0, &Bytes::from_static(b"ping"), 9);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].span, 9);
        let mut b = Reassembly::default();
        let (got, span) = accept(&mut b, &tx[0]).unwrap();
        assert_eq!(&got[..], b"ping");
        assert_eq!(span, 9, "span rides to delivery");
        assert_eq!(b.len(), 0, "a whole datagram leaves no entry");
    }

    #[test]
    fn large_datagram_reassembles() {
        let payload: Vec<u8> = (0..(MSS as usize * 3 + 5))
            .map(|i| (i % 256) as u8)
            .collect();
        let tx = segments(0, &Bytes::from(payload.clone()), 3);
        assert_eq!(tx.len(), 4);
        let mut b = Reassembly::default();
        let mut got = None;
        for seg in &tx {
            if let Some(full) = accept(&mut b, seg) {
                got = Some(full);
            }
        }
        let (full, span) = got.unwrap();
        assert_eq!(&full[..], &payload[..]);
        assert_eq!(span, 3, "multi-fragment reassembly keeps the span");
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn out_of_order_fragments_still_reassemble() {
        let payload = vec![9u8; MSS as usize * 2];
        let mut tx = segments(0, &Bytes::from(payload.clone()), 0);
        tx.reverse();
        let mut b = Reassembly::default();
        let mut got = None;
        for seg in &tx {
            if let Some(full) = accept(&mut b, seg) {
                got = Some(full);
            }
        }
        assert_eq!(got.unwrap().0.len(), payload.len());
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn lost_fragment_loses_message() {
        let tx = segments(0, &Bytes::from(vec![1u8; MSS as usize * 2]), 0);
        let mut b = Reassembly::default();
        // Deliver only the first fragment.
        assert!(accept(&mut b, &tx[0]).is_none());
        assert_eq!(b.len(), 1, "the partial waits for its missing fragment");
    }

    #[test]
    fn reassembly_cap_evicts_oldest() {
        let mut b = Reassembly::default();
        // Feed first fragments of many two-fragment messages.
        for m in 0..(REASSEMBLY_CAP as u64 + 10) {
            assert!(part(&mut b, m, 0, 2, b"a").is_none());
        }
        assert_eq!(b.partial[&(PEER, CH)].len(), REASSEMBLY_CAP);
        // Completing an evicted early message must not complete (its
        // first fragment was dropped by the cap) and must not panic.
        assert!(part(&mut b, 0, 1, 2, b"b").is_none());
        // ...but a recent one completes.
        let recent = REASSEMBLY_CAP as u64 + 9;
        assert!(part(&mut b, recent, 1, 2, b"b").is_some());
    }

    #[test]
    fn duplicate_fragment_ignored() {
        let mut b = Reassembly::default();
        assert!(part(&mut b, 5, 0, 2, b"x").is_none());
        assert!(part(&mut b, 5, 0, 2, b"x").is_none());
        let got = part(&mut b, 5, 1, 2, b"y").unwrap();
        assert_eq!(&got[..], b"xy");
        assert_eq!(b.len(), 0);
    }
}
