//! Per-host transport endpoint: the mux that owns one reliable
//! connection per (peer, named transport instance) pair.
//!
//! The paper's engine gives each declared transport instance its own
//! blocking channel so that, e.g., `TCP LOW` being congestion-limited
//! never delays `SWP HIGHEST` — here each reliable `(peer, channel)` pair
//! maps to an independent [`ReliableConn`]. Datagram channels need no
//! connection: see [`crate::udp`].

use crate::reliable::{ConnOut, ConnStats, ReliableConn, WindowPolicy};
use crate::segment::{SegKind, Segment};
use crate::udp::{self, Reassembly};
use bytes::Bytes;
use macedon_net::{NodeId, Packet};
use macedon_sim::{table_bytes, Duration, FxHashMap, Time};
use std::cell::RefCell;
use std::mem::size_of;
use std::sync::Arc;

pub use crate::segment::ChannelId;

/// Kind of a named transport instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportKind {
    /// Reliable, congestion-friendly.
    Tcp,
    /// Unreliable, congestion-unfriendly.
    Udp,
    /// Reliable, congestion-unfriendly fixed window.
    Swp { window: u32 },
}

/// A named transport instance declared by the lowest protocol layer.
#[derive(Clone, Debug)]
pub struct ChannelSpec {
    pub name: String,
    pub kind: TransportKind,
}

impl ChannelSpec {
    pub fn new(name: impl Into<String>, kind: TransportKind) -> ChannelSpec {
        ChannelSpec {
            name: name.into(),
            kind,
        }
    }

    /// The default channel table most overlays in this repo use, mirroring
    /// the Overcast example in the paper.
    pub fn default_table() -> Vec<ChannelSpec> {
        vec![
            ChannelSpec::new("HIGHEST", TransportKind::Swp { window: 16 }),
            ChannelSpec::new("HIGH", TransportKind::Tcp),
            ChannelSpec::new("MED", TransportKind::Tcp),
            ChannelSpec::new("LOW", TransportKind::Tcp),
            ChannelSpec::new("BEST_EFFORT", TransportKind::Udp),
        ]
    }
}

/// Which per-connection timer a [`TimerKey`] names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TimerKind {
    /// Retransmission timeout (sender side).
    Rto,
    /// Delayed-ack flush (receiver side).
    DelayedAck,
}

/// Identifies a pending connection timer; carried through the caller's
/// scheduler and handed back to [`Endpoint::on_timer`]. At most one
/// timer per `(node, peer, channel, kind)` is live at a time: arming
/// again supersedes (the caller cancels the previous scheduler entry),
/// and `gen` stays as a defense-in-depth stale filter for RTOs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerKey {
    pub node: NodeId,
    pub peer: NodeId,
    pub channel: ChannelId,
    pub kind: TimerKind,
    pub gen: u64,
}

impl TimerKey {
    /// The scheduler-map key: everything but the generation (one live
    /// timer per connection and kind).
    pub fn slot(&self) -> (NodeId, NodeId, ChannelId, TimerKind) {
        (self.node, self.peer, self.channel, self.kind)
    }
}

/// Output buffer of endpoint operations.
#[derive(Default)]
pub struct TransportSink {
    /// Packets to inject into the emulated network.
    pub packets: Vec<Packet<Segment>>,
    /// Connection timers to schedule (superseding any live timer with
    /// the same [`TimerKey::slot`]).
    pub timers: Vec<(Time, TimerKey)>,
    /// Connection timers now known dead; the caller should cancel the
    /// scheduler entry rather than let it fire stale.
    pub cancel_timers: Vec<TimerKey>,
    /// Fully reassembled messages handed to the layer above:
    /// (source host, channel, message bytes, causal trace span).
    pub delivered: Vec<(NodeId, ChannelId, Bytes, u64)>,
    /// Acknowledgements that advanced a send window, with their
    /// Karn-filtered RTT sample (None when only retransmitted segments
    /// were acked). The world feeds these into the node's measurement
    /// ledger.
    pub ack_samples: Vec<(NodeId, Option<Duration>)>,
}

impl TransportSink {
    pub fn new() -> TransportSink {
        TransportSink::default()
    }
}

thread_local! {
    /// Connection-output buffers handed back drained, capacity kept: one
    /// per endpoint operation this thread ever had running at once.
    static OUTS: RefCell<Vec<ConnOut>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on an empty connection-output buffer borrowed from this
/// thread's pool; `f` must leave it drained (debug builds check: a flag
/// left set would re-arm or cancel a timer of the next connection to
/// borrow the buffer), and it goes back to the pool.
pub fn with_conn_out<R>(f: impl FnOnce(&mut ConnOut) -> R) -> R {
    let mut co = OUTS.with_borrow_mut(Vec::pop).unwrap_or_default();
    let r = f(&mut co);
    debug_assert!(
        co.is_drained(),
        "a connection-output buffer comes back drained"
    );
    OUTS.with_borrow_mut(|outs| outs.push(co));
    r
}

/// Heap bytes in this thread's pool of connection-output buffers.
pub fn scratch_bytes() -> usize {
    OUTS.with_borrow(|outs| {
        outs.capacity() * size_of::<ConnOut>() + outs.iter().map(ConnOut::heap_bytes).sum::<usize>()
    })
}

/// Per-host transport state. Its operations borrow their
/// connection-output buffer from this thread's pool (see
/// [`scratch_bytes`]), so an endpoint holds only connection state.
pub struct Endpoint {
    node: NodeId,
    /// The world's channel table, shared by every endpoint.
    channels: Arc<[ChannelSpec]>,
    /// Reliable connections only. Boxed: a connection is 192 B, and a
    /// hash table pays for its *empty* buckets too (and for both copies
    /// while it grows), so the table holds a pointer per bucket and only
    /// live connections cost their size. An idle connection holds no
    /// buffers: they come from a per-thread free list while it has
    /// something in flight, out of order or half reassembled (see
    /// [`crate::reliable`]).
    conns: FxHashMap<(NodeId, ChannelId), Box<ReliableConn>>,
    /// Inbound datagrams with fragments still missing.
    reassembly: Reassembly,
    /// Id of the next datagram sent, to any peer on any channel.
    next_datagram: u64,
}

impl Endpoint {
    pub fn new(node: NodeId, channels: impl Into<Arc<[ChannelSpec]>>) -> Endpoint {
        let channels = channels.into();
        assert!(
            !channels.is_empty(),
            "at least one transport instance required"
        );
        Endpoint {
            node,
            channels,
            conns: FxHashMap::default(),
            reassembly: Reassembly::default(),
            next_datagram: 0,
        }
    }

    pub fn channels(&self) -> &[ChannelSpec] {
        &self.channels
    }

    /// Resolve a channel by name (spec files reference transports by name).
    pub fn channel_by_name(&self, name: &str) -> Option<ChannelId> {
        self.channels
            .iter()
            .position(|c| c.name == name)
            .map(|i| ChannelId(i as u16))
    }

    /// Send one message to `dst` on the given channel. `span` is the
    /// causal trace span riding out-of-band with the message (zero when
    /// untraced).
    pub fn send(
        &mut self,
        now: Time,
        dst: NodeId,
        ch: ChannelId,
        msg: Bytes,
        span: u64,
        out: &mut TransportSink,
    ) {
        let Some(policy) = self.policy_of(ch) else {
            let id = self.next_datagram;
            self.next_datagram += 1;
            udp::fragments(ch, id, &msg, span, |seg| {
                out.packets
                    .push(Packet::new(self.node, dst, seg.size(), seg));
            });
            return;
        };
        with_conn_out(|co| {
            self.conn(dst, ch, policy).send(now, msg, span, co);
            self.flush_conn_out(dst, ch, co, out);
        });
    }

    /// Handle a segment delivered by the network from `from`.
    pub fn on_packet(&mut self, now: Time, from: NodeId, seg: Segment, out: &mut TransportSink) {
        let ch = seg.channel;
        if ch.0 as usize >= self.channels.len() {
            return; // unknown channel: drop
        }
        // A segment whose kind does not match its channel's is dropped.
        let Some(policy) = self.policy_of(ch) else {
            if let SegKind::Datagram {
                msg,
                frag,
                frags,
                bytes,
            } = seg.kind
            {
                let whole = self
                    .reassembly
                    .accept((from, ch), msg, frag, frags, bytes, seg.span);
                if let Some((full, span)) = whole {
                    out.delivered.push((from, ch, full, span));
                }
            }
            return;
        };
        with_conn_out(|co| {
            match seg.kind {
                SegKind::Data {
                    seq,
                    msg,
                    frag,
                    frags,
                    bytes,
                } => {
                    let conn = self.conn(from, ch, policy);
                    conn.on_data(now, seq, msg, frag, frags, bytes, seg.span, co);
                }
                SegKind::Ack { cum } => self.conn(from, ch, policy).on_ack(now, cum, co),
                SegKind::Datagram { .. } => {}
            }
            self.flush_conn_out(from, ch, co, out);
        });
    }

    /// Drop all transport state toward `peer` (sequence numbers,
    /// send/receive buffers, RTT estimates, partial datagrams). The world
    /// calls this on every endpoint when `peer` is despawned for a
    /// rejoin: the next incarnation is a different host as far as
    /// transport state goes, and stale sequence numbers would otherwise
    /// wedge the fresh endpoint's reliable channels forever.
    pub fn reset_peer(&mut self, peer: NodeId) {
        self.conns.retain(|&(p, _), _| p != peer);
        self.reassembly.reset_peer(peer);
    }

    /// Handle a connection timer previously emitted via
    /// [`TransportSink::timers`].
    pub fn on_timer(&mut self, now: Time, key: TimerKey, out: &mut TransportSink) {
        debug_assert_eq!(key.node, self.node);
        with_conn_out(|co| {
            if let Some(r) = self.conns.get_mut(&(key.peer, key.channel)) {
                match key.kind {
                    TimerKind::Rto => r.on_rto(now, key.gen, co),
                    TimerKind::DelayedAck => r.on_ack_timeout(co),
                }
                self.flush_conn_out(key.peer, key.channel, co, out);
            }
        });
    }

    /// Aggregate reliable-connection stats across peers of one channel.
    pub fn channel_stats(&self, ch: ChannelId) -> ConnStats {
        let mut total = ConnStats::default();
        for ((_, c), r) in &self.conns {
            if *c == ch {
                let s = r.stats;
                total.segments_sent += s.segments_sent;
                total.retransmissions += s.retransmissions;
                total.acks_sent += s.acks_sent;
                total.messages_delivered += s.messages_delivered;
                total.bytes_sent += s.bytes_sent;
            }
        }
        total
    }

    /// Total bytes handed to the network across all reliable
    /// connections (the "communication overhead" input; datagrams are
    /// accounted at send time by callers).
    pub fn total_bytes_sent(&self) -> u64 {
        self.conns.values().map(|r| r.stats.bytes_sent).sum()
    }

    /// Heap bytes held by reliable connections: the table, each boxed
    /// connection and the buffers the busy ones hold. Buffers idle
    /// connections gave back, and the output buffers operations borrow,
    /// are the thread's, not the endpoint's: see
    /// [`crate::reliable::pooled_bytes`] and [`scratch_bytes`].
    pub fn conn_bytes(&self) -> usize {
        table_bytes(&self.conns) + self.conns.values().map(|r| r.heap_bytes()).sum::<usize>()
    }

    /// Reliable connections, idle or busy.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Reliable connections holding buffers: something unacknowledged,
    /// out of order or half reassembled. An idle connection holds none.
    pub fn busy_conns(&self) -> usize {
        self.conns.values().filter(|r| r.holds_buffers()).count()
    }

    /// Heap bytes held by datagram reassembly.
    pub fn reassembly_bytes(&self) -> usize {
        self.reassembly.heap_bytes()
    }

    /// The window policy of a reliable channel; `None` for a datagram one.
    fn policy_of(&self, ch: ChannelId) -> Option<WindowPolicy> {
        match self.channels[ch.0 as usize].kind {
            TransportKind::Udp => None,
            TransportKind::Tcp => Some(WindowPolicy::Tcp),
            TransportKind::Swp { window } => Some(WindowPolicy::Swp { window }),
        }
    }

    fn conn(&mut self, peer: NodeId, ch: ChannelId, policy: WindowPolicy) -> &mut ReliableConn {
        self.conns
            .entry((peer, ch))
            .or_insert_with(|| Box::new(ReliableConn::new(policy)))
    }

    /// Drain a connection's outputs into the transport sink, leaving
    /// `co` empty for reuse.
    fn flush_conn_out(
        &mut self,
        peer: NodeId,
        ch: ChannelId,
        co: &mut ConnOut,
        out: &mut TransportSink,
    ) {
        for mut seg in co.tx.drain(..) {
            seg.channel = ch;
            let size = seg.size();
            out.packets.push(Packet::new(self.node, peer, size, seg));
        }
        for (msg, span) in co.delivered.drain(..) {
            out.delivered.push((peer, ch, msg, span));
        }
        if let Some(rtt) = co.ack_rtt.take() {
            out.ack_samples.push((peer, rtt));
        }
        let key = |kind, gen| TimerKey {
            node: self.node,
            peer,
            channel: ch,
            kind,
            gen,
        };
        if let Some((at, gen)) = co.arm_timer.take() {
            out.timers.push((at, key(TimerKind::Rto, gen)));
        } else if std::mem::take(&mut co.cancel_rto) {
            out.cancel_timers.push(key(TimerKind::Rto, 0));
        }
        co.cancel_rto = false;
        if let Some(at) = co.arm_ack_timer.take() {
            out.timers.push((at, key(TimerKind::DelayedAck, 0)));
        }
        if std::mem::take(&mut co.cancel_ack_timer) {
            out.cancel_timers.push(key(TimerKind::DelayedAck, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(node: u32) -> Endpoint {
        Endpoint::new(NodeId(node), ChannelSpec::default_table())
    }

    /// The table's buckets hold pointers: inline connections would make
    /// every empty bucket cost a connection's size again.
    #[test]
    fn connection_table_values_are_pointer_sized() {
        fn value_size<K, V, S>(_: &std::collections::HashMap<K, V, S>) -> usize {
            std::mem::size_of::<V>()
        }
        assert_eq!(
            value_size(&ep(0).conns),
            std::mem::size_of::<usize>(),
            "Endpoint::conns stores connections inline"
        );
    }

    /// Send `msg` from `e` to node 1 at time zero on the named channel.
    fn send(e: &mut Endpoint, ch: &str, msg: &'static [u8], out: &mut TransportSink) -> ChannelId {
        let ch = e.channel_by_name(ch).unwrap();
        e.send(Time::ZERO, NodeId(1), ch, Bytes::from_static(msg), 42, out);
        ch
    }

    /// Hand packets to `to`, collecting what it delivers.
    fn carry(
        pkts: impl IntoIterator<Item = Packet<Segment>>,
        to: &mut Endpoint,
    ) -> Vec<(Bytes, u64)> {
        let mut out = TransportSink::new();
        for pkt in pkts {
            to.on_packet(Time::ZERO, pkt.src, pkt.payload, &mut out);
        }
        out.delivered
            .into_iter()
            .map(|(_, _, m, s)| (m, s))
            .collect()
    }

    #[test]
    fn single_fragment_datagrams_leave_no_connection_state() {
        let mut eps = [ep(0), ep(1)];
        let ch = eps[0].channel_by_name("BEST_EFFORT").unwrap();
        let sent: Vec<(Bytes, u64)> = (0..1_000u32)
            .map(|i| (Bytes::from(i.to_be_bytes().to_vec()), i as u64 + 1))
            .collect();
        for (x, y) in [(0, 1), (1, 0)] {
            let mut out = TransportSink::new();
            for (msg, span) in &sent {
                let peer = NodeId(y as u32);
                eps[x].send(Time::ZERO, peer, ch, msg.clone(), *span, &mut out);
            }
            assert_eq!(carry(out.packets, &mut eps[y]), sent);
        }
        for e in &eps {
            assert_eq!(e.conns.len(), 0, "no connection entries");
            assert_eq!(e.reassembly.len(), 0, "no reassembly entries");
        }
    }

    #[test]
    fn partial_datagram_state_lives_only_while_partial() {
        let (mut a, mut b) = (ep(0), ep(1));
        let ch = a.channel_by_name("BEST_EFFORT").unwrap();
        let payload = Bytes::from(vec![3u8; crate::segment::MSS as usize * 2 + 1]);
        let mut out = TransportSink::new();
        a.send(Time::ZERO, NodeId(1), ch, payload.clone(), 5, &mut out);
        let mut frags = std::mem::take(&mut out.packets);
        let last = frags.pop().unwrap();
        assert_eq!(frags.len(), 2);
        for pkt in frags {
            assert!(carry([pkt], &mut b).is_empty());
            assert_eq!(b.reassembly.len(), 1, "partial while fragments are missing");
        }
        assert_eq!(carry([last], &mut b), vec![(payload.clone(), 5)]);
        assert_eq!(b.reassembly.len(), 0, "gone once the message is whole");

        // A partial from a peer that is reset is dropped with it.
        a.send(Time::ZERO, NodeId(1), ch, payload, 6, &mut out);
        assert!(carry(out.packets.drain(..1), &mut b).is_empty());
        b.reset_peer(NodeId(2));
        assert_eq!(b.reassembly.len(), 1, "another peer's reset keeps it");
        b.reset_peer(NodeId(0));
        assert_eq!(b.reassembly.len(), 0);
        assert_eq!(a.conns.len() + b.conns.len(), 0);
    }

    #[test]
    fn channel_lookup_by_name() {
        let e = ep(0);
        assert_eq!(e.channel_by_name("HIGHEST"), Some(ChannelId(0)));
        assert_eq!(e.channel_by_name("BEST_EFFORT"), Some(ChannelId(4)));
        assert_eq!(e.channel_by_name("NOPE"), None);
    }

    #[test]
    fn udp_send_produces_datagram_packet() {
        let mut out = TransportSink::new();
        send(&mut ep(0), "BEST_EFFORT", b"hi", &mut out);
        assert_eq!(out.packets.len(), 1);
        assert!(matches!(
            out.packets[0].payload.kind,
            SegKind::Datagram { .. }
        ));
        assert!(out.timers.is_empty(), "UDP never arms timers");
    }

    #[test]
    fn tcp_send_arms_rto() {
        let mut out = TransportSink::new();
        let ch = send(&mut ep(0), "HIGH", b"hi", &mut out);
        assert_eq!(out.packets.len(), 1);
        assert_eq!(out.timers.len(), 1);
        let key = out.timers[0].1;
        assert_eq!(key.peer, NodeId(1));
        assert_eq!(key.channel, ch);
    }

    #[test]
    fn end_to_end_between_two_endpoints() {
        let mut a = ep(0);
        let mut b = ep(1);
        let mut out_a = TransportSink::new();
        let ch = send(&mut a, "HIGH", b"payload", &mut out_a);
        // Hand a's packets to b.
        let mut out_b = TransportSink::new();
        for pkt in out_a.packets.drain(..) {
            b.on_packet(Time::from_millis(5), pkt.src, pkt.payload, &mut out_b);
        }
        assert_eq!(out_b.delivered.len(), 1);
        assert_eq!(&out_b.delivered[0].2[..], b"payload");
        assert_eq!(out_b.delivered[0].3, 42, "span survives the endpoint mux");
        // A lone segment on a quiet connection acks immediately — no
        // delayed-ack timer, so the sparse case costs zero timer events.
        assert_eq!(out_b.packets.len(), 1);
        assert!(
            !out_b
                .timers
                .iter()
                .any(|(_, k)| k.kind == TimerKind::DelayedAck),
            "sparse arrival must not arm the delayed-ack timer"
        );
        // b's ACK back to a clears the backlog.
        let mut out_a2 = TransportSink::new();
        for pkt in out_b.packets.drain(..) {
            a.on_packet(Time::from_millis(16), pkt.src, pkt.payload, &mut out_a2);
        }
        assert_eq!(a.channel_stats(ch).segments_sent, 1);
        assert_eq!(a.channel_stats(ch).retransmissions, 0);
        assert!(
            out_a2
                .cancel_timers
                .iter()
                .any(|k| k.kind == TimerKind::Rto),
            "drained window cancels a's RTO"
        );
    }

    #[test]
    fn channels_are_independent() {
        let mut a = ep(0);
        let mut out = TransportSink::new();
        let hi = send(&mut a, "HIGH", b"h", &mut out);
        let lo = send(&mut a, "LOW", b"l", &mut out);
        assert_eq!(a.channel_stats(hi).segments_sent, 1);
        assert_eq!(a.channel_stats(lo).segments_sent, 1);
        // Independent sequence spaces (both start at 0): fine because they
        // are distinct connections.
        assert_eq!(out.packets.len(), 2);
    }

    #[test]
    fn unknown_channel_segment_dropped() {
        let mut a = ep(0);
        let mut out = TransportSink::new();
        let seg = Segment {
            channel: ChannelId(99),
            span: 0,
            kind: SegKind::Ack { cum: 0 },
        };
        a.on_packet(Time::ZERO, NodeId(1), seg, &mut out);
        assert!(out.delivered.is_empty());
        assert!(out.packets.is_empty());
    }

    #[test]
    fn mismatched_segment_kind_dropped() {
        let mut a = ep(0);
        let mut out = TransportSink::new();
        let udp = a.channel_by_name("BEST_EFFORT").unwrap();
        // Reliable data on a UDP channel: dropped.
        let seg = Segment {
            channel: udp,
            span: 0,
            kind: SegKind::Data {
                seq: 0,
                msg: 0,
                frag: 0,
                frags: 1,
                bytes: Bytes::new(),
            },
        };
        a.on_packet(Time::ZERO, NodeId(1), seg, &mut out);
        assert!(out.delivered.is_empty());
    }
}
