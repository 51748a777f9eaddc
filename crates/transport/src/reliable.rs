//! Reliable message-oriented connection shared by the TCP and SWP kinds.
//!
//! Both provide exactly-once, in-order message delivery via cumulative
//! ACKs and retransmission. They differ only in how the send window
//! evolves:
//!
//! * **TCP** — slow start + AIMD congestion avoidance, fast retransmit on
//!   three duplicate ACKs, multiplicative decrease on loss
//!   (congestion-*friendly*, like the paper's TCP transports);
//! * **SWP** — a fixed-size sliding window with go-to-front retransmit
//!   and **no** congestion response (reliable, congestion-*unfriendly*).
//!
//! A connection keeps its sequence numbers, window and RTT estimate
//! for life, but holds buffers only while it has something in them:
//! its `ConnBufs` come from a per-thread free list on the first send,
//! out-of-order arrival or multi-fragment arrival, and go back to it as
//! soon as the send ring, the out-of-order queue and the reassembly
//! buffer are all empty again. Capacity is never observable, so where
//! the buffers come from cannot change what the connection does.

use crate::rtt::RttEstimator;
use crate::segment::{ChannelId, SegKind, Segment};
use bytes::Bytes;
use macedon_sim::{Duration, Time};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::mem::size_of;

/// Window policy for a reliable connection.
#[derive(Clone, Copy, Debug)]
pub enum WindowPolicy {
    /// TCP-like congestion control; initial ssthresh in segments.
    Tcp,
    /// Fixed window of `w` segments.
    Swp { window: u32 },
}

#[derive(Clone, Debug)]
struct SegBuf {
    msg: u64,
    frag: u16,
    frags: u16,
    bytes: Bytes,
    /// Causal trace span of the message (out-of-band metadata;
    /// retransmissions reuse it).
    span: u64,
    sent_at: Option<Time>,
    retransmitted: bool,
}

/// Counters exposed for the overhead metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnStats {
    pub segments_sent: u64,
    pub retransmissions: u64,
    pub acks_sent: u64,
    pub messages_delivered: u64,
    pub bytes_sent: u64,
}

/// The buffers of a connection that has something in flight, out of
/// order or half reassembled.
#[derive(Default)]
struct ConnBufs {
    /// Unacknowledged + unsent segments; `segs[i]` carries sequence
    /// number `snd_una + i` (the sender range is always contiguous, so
    /// a deque beats a tree: O(1) push, pop, and seek).
    segs: VecDeque<SegBuf>,
    /// Segments received beyond a gap, ascending by sequence number,
    /// every one above `rcv_nxt`. Gaps fill at the front and new
    /// arrivals mostly land at the back, and a deque keeps its
    /// capacity when it empties.
    ooo: VecDeque<(u64, SegBuf)>,
    partial: Vec<Bytes>,
    partial_msg: Option<u64>,
    /// Span of the message currently reassembling in `partial`.
    partial_span: u64,
}

impl ConnBufs {
    fn is_idle(&self) -> bool {
        self.segs.is_empty() && self.ooo.is_empty() && self.partial.is_empty()
    }

    /// The box and its buffers' capacity (payloads are shared with the
    /// packets, not counted).
    fn heap_bytes(&self) -> usize {
        size_of::<ConnBufs>()
            + self.segs.capacity() * size_of::<SegBuf>()
            + self.ooo.capacity() * size_of::<(u64, SegBuf)>()
            + self.partial.capacity() * size_of::<Bytes>()
    }
}

thread_local! {
    /// Buffers that drained connections gave back, cleared with their
    /// capacity kept. Never capped: it holds at most this thread's
    /// high-water mark of simultaneously busy connections. Boxed, so a
    /// buffer set moves between the list and a connection without
    /// being reallocated.
    #[allow(clippy::vec_box)]
    static FREE: RefCell<Vec<Box<ConnBufs>>> = const { RefCell::new(Vec::new()) };
}

/// Buffers for a connection that has something to hold: from this
/// thread's free list when it has any.
fn take_bufs() -> Box<ConnBufs> {
    FREE.with_borrow_mut(Vec::pop).unwrap_or_default()
}

/// Heap bytes in this thread's free list of connection buffers: the
/// list itself plus every buffer set waiting in it.
pub fn pooled_bytes() -> usize {
    FREE.with_borrow(|free| {
        free.capacity() * size_of::<Box<ConnBufs>>()
            + free.iter().map(|b| b.heap_bytes()).sum::<usize>()
    })
}

/// One direction pair (sender+receiver state) of a reliable channel to a
/// single peer.
pub struct ReliableConn {
    policy: WindowPolicy,
    /// Held only while a buffer in it is non-empty (see the module
    /// docs).
    bufs: Option<Box<ConnBufs>>,
    // --- sender ---
    snd_una: u64,
    snd_nxt: u64,
    next_assign: u64,
    next_msg: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    est: RttEstimator,
    timer_gen: u64,
    // --- receiver ---
    rcv_nxt: u64,
    /// In-order data segments received but not yet acknowledged
    /// (delayed-ack state).
    ack_pending: u32,
    /// A delayed-ack timer is outstanding at the endpoint.
    ack_timer_armed: bool,
    /// Arrival time of the previous data segment (burst detector for
    /// the adaptive delayed ack).
    last_data_at: Option<Time>,
    // --- stats ---
    pub stats: ConnStats,
}

/// What the connection wants done; the endpoint turns these into packets
/// and scheduler entries.
#[derive(Default)]
pub struct ConnOut {
    /// Segments to transmit to the peer.
    pub tx: Vec<Segment>,
    /// Fully reassembled inbound messages, in order, each with the
    /// causal span that rode with it.
    pub delivered: Vec<(Bytes, u64)>,
    /// Re-arm the RTO timer at the given absolute time with this
    /// generation (at most one per call). Supersedes any outstanding
    /// RTO for this connection.
    pub arm_timer: Option<(Time, u64)>,
    /// The send window fully drained: the outstanding RTO (if any) is
    /// dead and the caller should cancel it rather than let it fire
    /// stale.
    pub cancel_rto: bool,
    /// Arm the delayed-ack timer at the given absolute time (at most
    /// one outstanding per connection).
    pub arm_ack_timer: Option<Time>,
    /// A pending delayed ack was flushed by other traffic: cancel the
    /// outstanding delayed-ack timer.
    pub cancel_ack_timer: bool,
    /// An acknowledgement advanced the send window: the Karn-filtered
    /// RTT sample taken from it, if any (at most one per call). Feeds
    /// the engine's per-peer measurement ledger.
    pub ack_rtt: Option<Option<Duration>>,
}

impl ConnOut {
    /// Nothing left for the endpoint to act on.
    pub(crate) fn is_drained(&self) -> bool {
        let ConnOut {
            tx,
            delivered,
            arm_timer,
            cancel_rto,
            arm_ack_timer,
            cancel_ack_timer,
            ack_rtt,
        } = self;
        tx.is_empty()
            && delivered.is_empty()
            && arm_timer.is_none()
            && !cancel_rto
            && arm_ack_timer.is_none()
            && !cancel_ack_timer
            && ack_rtt.is_none()
    }

    /// Capacity of the output buffers.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.tx.capacity() * size_of::<Segment>()
            + self.delivered.capacity() * size_of::<(Bytes, u64)>()
    }
}

const INITIAL_CWND: f64 = 2.0;
const INITIAL_SSTHRESH: f64 = 64.0;
/// Cap on out-of-order buffering at the receiver (segments); beyond this
/// the receiver drops (sender will retransmit).
const OOO_CAP: usize = 1024;
/// Cumulative-ack cap: acknowledge at latest every `ACK_EVERY`-th
/// in-order data segment (TCP's delayed-ack "every second segment").
pub const ACK_EVERY: u32 = 2;
/// Delayed-ack timeout for in-order data below the cap. Must stay well
/// under [`crate::rtt::MIN_RTO`] (50 ms) so a coalesced ack never races
/// the sender's retransmission timer.
pub const DELAYED_ACK: Duration = Duration(10_000);

impl ReliableConn {
    pub fn new(policy: WindowPolicy) -> ReliableConn {
        ReliableConn {
            policy,
            bufs: None,
            snd_una: 0,
            snd_nxt: 0,
            next_assign: 0,
            next_msg: 0,
            cwnd: INITIAL_CWND,
            ssthresh: INITIAL_SSTHRESH,
            dup_acks: 0,
            est: RttEstimator::new(),
            timer_gen: 0,
            rcv_nxt: 0,
            ack_pending: 0,
            ack_timer_armed: false,
            last_data_at: None,
            stats: ConnStats::default(),
        }
    }

    /// Current send window in segments.
    pub fn window(&self) -> u32 {
        match self.policy {
            WindowPolicy::Tcp => (self.cwnd as u32).max(1),
            WindowPolicy::Swp { window } => window.max(1),
        }
    }

    /// Bytes this connection holds: itself, plus its buffers while it
    /// holds them (payloads are shared with the packets, not counted).
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of::<ReliableConn>() + self.bufs.as_ref().map_or(0, |b| b.heap_bytes())
    }

    /// Whether the connection holds buffers (it does exactly while one
    /// of them is non-empty).
    pub(crate) fn holds_buffers(&self) -> bool {
        self.bufs.is_some()
    }

    /// Give the buffers back to the free list once all of them are
    /// empty.
    fn release_if_idle(&mut self) {
        if self.bufs.as_ref().is_some_and(|b| b.is_idle()) {
            let mut bufs = self.bufs.take().expect("checked above");
            bufs.partial_msg = None;
            bufs.partial_span = 0;
            FREE.with_borrow_mut(|free| free.push(bufs));
        }
    }

    fn segs_len(&self) -> usize {
        self.bufs.as_ref().map_or(0, |b| b.segs.len())
    }

    fn ooo_is_empty(&self) -> bool {
        self.bufs.as_ref().map_or(true, |b| b.ooo.is_empty())
    }

    /// Pop the buffered segment that carries `rcv_nxt`, if it is here.
    fn next_buffered(&mut self) -> Option<SegBuf> {
        let ooo = &mut self.bufs.as_mut()?.ooo;
        if ooo.front()?.0 != self.rcv_nxt {
            return None;
        }
        ooo.pop_front().map(|(_, sb)| sb)
    }

    /// Enqueue a message; transmits whatever the window allows. `span`
    /// is the causal trace span riding with the message (zero when
    /// untraced).
    pub fn send(&mut self, now: Time, msg: Bytes, span: u64, out: &mut ConnOut) {
        let frags = crate::segment::fragment_count(msg.len()) as u16;
        let msg_id = self.next_msg;
        self.next_msg += 1;
        let segs = &mut self.bufs.get_or_insert_with(take_bufs).segs;
        let mut i = 0u16;
        crate::segment::for_each_fragment(&msg, |bytes| {
            self.next_assign += 1;
            segs.push_back(SegBuf {
                msg: msg_id,
                frag: i,
                frags,
                bytes,
                span,
                sent_at: None,
                retransmitted: false,
            });
            i += 1;
        });
        self.pump(now, out);
    }

    /// Handle an inbound data segment; emits ACKs (coalesced for
    /// in-order traffic) and any completed messages.
    ///
    /// Ack policy, mirroring TCP delayed acks: a segment that arrives
    /// out of order, duplicates, or leaves a sequence gap is
    /// acknowledged **immediately** — those acks are the sender's loss
    /// signal (three duplicates trigger fast retransmit). Clean
    /// in-order arrivals are acknowledged every [`ACK_EVERY`]-th
    /// segment; below the cap the ack is deferred by [`DELAYED_ACK`]
    /// **only when a companion segment is plausibly imminent** (the
    /// segment is a non-final fragment of its message, or the previous
    /// segment arrived within the delayed-ack window). On a sparse
    /// stream deferring cannot coalesce anything — it just adds a timer
    /// fire on top of the same ack packet — so the ack goes out at once.
    #[allow(clippy::too_many_arguments)]
    pub fn on_data(
        &mut self,
        now: Time,
        seq: u64,
        msg: u64,
        frag: u16,
        frags: u16,
        bytes: Bytes,
        span: u64,
        out: &mut ConnOut,
    ) {
        let before = self.rcv_nxt;
        let buffered = self.bufs.as_ref().map_or(0, |b| b.ooo.len());
        if seq >= self.rcv_nxt && buffered < OOO_CAP {
            let sb = SegBuf {
                msg,
                frag,
                frags,
                bytes,
                span,
                sent_at: None,
                retransmitted: false,
            };
            if seq == self.rcv_nxt && buffered == 0 {
                // The common case, the next segment with nothing
                // buffered: accept it without a round trip through the
                // out-of-order queue.
                self.rcv_nxt += 1;
                self.accept_in_order(sb, out);
            } else {
                let ooo = &mut self.bufs.get_or_insert_with(take_bufs).ooo;
                if let Err(at) = ooo.binary_search_by_key(&seq, |&(s, _)| s) {
                    ooo.insert(at, (seq, sb));
                }
                // Advance the in-order frontier.
                while let Some(sb) = self.next_buffered() {
                    self.rcv_nxt += 1;
                    self.accept_in_order(sb, out);
                }
            }
        }
        let advanced = (self.rcv_nxt - before) as u32;
        let clean = advanced > 0 && self.ooo_is_empty();
        let burst = frag + 1 < frags
            || self
                .last_data_at
                .is_some_and(|prev| now.saturating_since(prev) <= DELAYED_ACK);
        self.last_data_at = Some(now);
        if !clean {
            // Duplicate, out-of-order, or still-gapped: ack now so the
            // sender sees duplicates and can fast-retransmit.
            self.flush_ack(out);
        } else {
            self.ack_pending += advanced;
            if self.ack_pending >= ACK_EVERY || !burst {
                self.flush_ack(out);
            } else if !self.ack_timer_armed {
                self.ack_timer_armed = true;
                out.arm_ack_timer = Some(now + DELAYED_ACK);
            }
        }
        self.release_if_idle();
    }

    /// Emit a cumulative ack now, clearing delayed-ack state.
    fn flush_ack(&mut self, out: &mut ConnOut) {
        self.ack_pending = 0;
        if self.ack_timer_armed {
            self.ack_timer_armed = false;
            out.cancel_ack_timer = true;
        }
        self.stats.acks_sent += 1;
        out.tx.push(Segment {
            channel: ChannelId(0), // endpoint rewrites
            span: 0,
            kind: SegKind::Ack { cum: self.rcv_nxt },
        });
    }

    /// The delayed-ack timer fired: flush whatever is pending.
    pub fn on_ack_timeout(&mut self, out: &mut ConnOut) {
        self.ack_timer_armed = false;
        if self.ack_pending > 0 {
            self.flush_ack(out);
        }
    }

    fn accept_in_order(&mut self, sb: SegBuf, out: &mut ConnOut) {
        if self.bufs.as_ref().and_then(|b| b.partial_msg) != Some(sb.msg) {
            // A new message begins; any unfinished previous partial is a
            // framing bug (in-order delivery makes fragments contiguous).
            if let Some(b) = self.bufs.as_mut() {
                debug_assert!(
                    b.partial.is_empty() || b.partial_msg.is_none(),
                    "interleaved message fragments"
                );
                b.partial.clear();
                b.partial_msg = None;
            }
            if sb.frags == 1 {
                // Single-fragment message: the fragment *is* the whole
                // message (a zero-copy slice of the sender's buffer) and
                // never passes through `partial`, so a connection that
                // only carries small messages in order never takes
                // buffers to receive.
                self.stats.messages_delivered += 1;
                out.delivered.push((sb.bytes, sb.span));
                return;
            }
            let b = self.bufs.get_or_insert_with(take_bufs);
            b.partial_msg = Some(sb.msg);
            b.partial_span = sb.span;
        }
        let b = self.bufs.as_mut().expect("a message is reassembling");
        b.partial.push(sb.bytes);
        if b.partial.len() == sb.frags as usize {
            b.partial_msg = None;
            self.stats.messages_delivered += 1;
            let total: usize = b.partial.iter().map(|b| b.len()).sum();
            let mut buf = Vec::with_capacity(total);
            for part in b.partial.drain(..) {
                buf.extend_from_slice(&part);
            }
            out.delivered.push((Bytes::from(buf), b.partial_span));
        }
    }

    /// Handle a cumulative ACK.
    pub fn on_ack(&mut self, now: Time, cum: u64, out: &mut ConnOut) {
        if cum > self.snd_una {
            // New data acknowledged: drop the front of the send buffer
            // up to the cumulative point.
            let mut rtt_sample: Option<Duration> = None;
            let mut n_acked = 0u32;
            while self.snd_una < cum {
                self.snd_una += 1;
                let Some(sb) = self.bufs.as_mut().and_then(|b| b.segs.pop_front()) else {
                    continue;
                };
                n_acked += 1;
                if !sb.retransmitted {
                    if let Some(at) = sb.sent_at {
                        rtt_sample = Some(now.saturating_since(at));
                    }
                }
            }
            if let Some(rtt) = rtt_sample {
                self.est.sample(rtt);
            } else {
                self.est.reset_backoff();
            }
            out.ack_rtt = Some(rtt_sample);
            self.snd_nxt = self.snd_nxt.max(cum);
            self.dup_acks = 0;
            if let WindowPolicy::Tcp = self.policy {
                for _ in 0..n_acked {
                    if self.cwnd < self.ssthresh {
                        self.cwnd += 1.0; // slow start
                    } else {
                        self.cwnd += 1.0 / self.cwnd; // congestion avoidance
                    }
                }
            }
            self.pump(now, out);
            self.rearm(now, out);
            self.release_if_idle();
        } else if cum == self.snd_una && self.in_flight() > 0 {
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                // Fast retransmit.
                if let WindowPolicy::Tcp = self.policy {
                    let flight = self.in_flight() as f64;
                    self.ssthresh = (flight / 2.0).max(2.0);
                    self.cwnd = self.ssthresh;
                }
                self.retransmit_front(now, out);
                self.rearm(now, out);
            }
        }
    }

    /// Handle the RTO firing (endpoint verified generation).
    pub fn on_rto(&mut self, now: Time, gen: u64, out: &mut ConnOut) {
        if gen != self.timer_gen || self.in_flight() == 0 {
            return; // stale timer
        }
        self.est.on_timeout();
        self.dup_acks = 0;
        match self.policy {
            WindowPolicy::Tcp => {
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = 1.0;
                self.retransmit_front(now, out);
            }
            WindowPolicy::Swp { .. } => {
                // Go-back-N: retransmit the entire in-flight window.
                self.retransmit_window(now, out);
            }
        }
        self.rearm(now, out);
    }

    /// Segments transmitted but not yet acked.
    fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn pump(&mut self, now: Time, out: &mut ConnOut) {
        let window = self.window() as u64;
        let had_flight = self.in_flight() > 0;
        while self.snd_nxt < self.next_assign && self.in_flight() < window {
            self.transmit((self.snd_nxt - self.snd_una) as usize, now, false, out);
            self.snd_nxt += 1;
        }
        if !had_flight && self.in_flight() > 0 {
            self.rearm(now, out);
        }
    }

    fn retransmit_window(&mut self, now: Time, out: &mut ConnOut) {
        for i in 0..(self.in_flight() as usize).min(self.segs_len()) {
            self.transmit(i, now, true, out);
        }
    }

    fn retransmit_front(&mut self, now: Time, out: &mut ConnOut) {
        if self.segs_len() > 0 {
            self.transmit(0, now, true, out);
        }
    }

    /// Put `segs[i]` (sequence number `snd_una + i`) on the wire.
    fn transmit(&mut self, i: usize, now: Time, retransmit: bool, out: &mut ConnOut) {
        let sb = &mut self.bufs.as_mut().expect("segment i is buffered").segs[i];
        sb.retransmitted |= retransmit;
        sb.sent_at = Some(now);
        self.stats.segments_sent += 1;
        self.stats.retransmissions += retransmit as u64;
        self.stats.bytes_sent += sb.bytes.len() as u64;
        out.tx.push(Segment {
            channel: ChannelId(0),
            span: sb.span,
            kind: SegKind::Data {
                seq: self.snd_una + i as u64,
                msg: sb.msg,
                frag: sb.frag,
                frags: sb.frags,
                bytes: sb.bytes.clone(),
            },
        });
    }

    fn rearm(&mut self, now: Time, out: &mut ConnOut) {
        if self.in_flight() == 0 {
            // Window drained: the outstanding RTO has nothing to guard.
            out.cancel_rto = true;
            return;
        }
        self.timer_gen += 1;
        out.arm_timer = Some((now + self.est.rto(), self.timer_gen));
        out.cancel_rto = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    /// Hand data segment `seg` to `rx` at `at`.
    fn feed(rx: &mut ReliableConn, at: Time, seg: &Segment, out: &mut ConnOut) {
        let SegKind::Data {
            seq,
            msg,
            frag,
            frags,
            ref bytes,
        } = seg.kind
        else {
            panic!("expected data, got {:?}", seg.kind)
        };
        rx.on_data(at, seq, msg, frag, frags, bytes.clone(), seg.span, out);
    }

    /// Hand every data segment in `tx` to `rx`, in order.
    fn deliver_all(tx: &ConnOut, rx: &mut ReliableConn, out: &mut ConnOut) {
        for seg in &tx.tx {
            feed(rx, t(1), seg, out);
        }
    }

    /// The cumulative points of the acks in `out`, in order.
    fn acks(out: &ConnOut) -> Vec<u64> {
        let cum = |s: &Segment| match s.kind {
            SegKind::Ack { cum } => Some(cum),
            _ => None,
        };
        out.tx.iter().filter_map(cum).collect()
    }

    #[test]
    fn single_message_roundtrip() {
        let mut a = ReliableConn::new(WindowPolicy::Tcp);
        let mut b = ReliableConn::new(WindowPolicy::Tcp);
        let mut out = ConnOut::default();
        a.send(t(0), Bytes::from_static(b"hello"), 7, &mut out);
        assert_eq!(out.tx.len(), 1);
        let mut out_b = ConnOut::default();
        feed(&mut b, t(5), &out.tx[0], &mut out_b);
        assert_eq!(out_b.delivered.len(), 1);
        assert_eq!(&out_b.delivered[0].0[..], b"hello");
        assert_eq!(out_b.delivered[0].1, 7, "span rides to delivery");
        // A lone segment on a quiet connection acks at once: there is
        // nothing to coalesce with, so deferring would only add a timer.
        assert_eq!(out_b.tx.len(), 1, "sparse arrival acks immediately");
        assert!(out_b.arm_ack_timer.is_none());
        let SegKind::Ack { cum } = out_b.tx[0].kind else {
            panic!()
        };
        assert_eq!(cum, 1);
        let mut out_a = ConnOut::default();
        a.on_ack(t(16), cum, &mut out_a);
        assert!(a.bufs.is_none(), "drained sender gives its buffers back");
        assert_eq!(a.est.srtt(), Some(Duration::from_millis(16)));
        assert!(out_a.cancel_rto, "drained window cancels the RTO");
    }

    #[test]
    fn multi_fragment_message_reassembles() {
        let mut a = ReliableConn::new(WindowPolicy::Swp { window: 100 });
        let mut b = ReliableConn::new(WindowPolicy::Swp { window: 100 });
        let payload: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        let mut out = ConnOut::default();
        a.send(t(0), Bytes::from(payload.clone()), 0, &mut out);
        assert!(out.tx.len() >= 4);
        let mut out_b = ConnOut::default();
        deliver_all(&out, &mut b, &mut out_b);
        assert_eq!(out_b.delivered.len(), 1);
        assert_eq!(&out_b.delivered[0].0[..], &payload[..]);
        // In-order stream: one coalesced ack per ACK_EVERY segments.
        let acks = acks(&out_b).len();
        assert!(
            acks <= out.tx.len().div_ceil(ACK_EVERY as usize),
            "{acks} acks for {} segments",
            out.tx.len()
        );
    }

    #[test]
    fn single_fragment_messages_never_touch_the_reassembly_buffer() {
        let swp = WindowPolicy::Swp { window: 4096 };
        let (mut a, mut b) = (ReliableConn::new(swp), ReliableConn::new(swp));
        let small = |i: u64| Bytes::from(i.to_le_bytes().to_vec());
        let mut tx = ConnOut::default();
        let mut sent = Vec::new();
        for i in 0..1000u64 {
            sent.push((small(i), i + 1));
            a.send(t(0), small(i), i + 1, &mut tx);
        }
        let mut rx = ConnOut::default();
        deliver_all(&tx, &mut b, &mut rx);
        // Buffers `b` had taken would now wait in the free list.
        assert!(
            b.bufs.is_none() && pooled_bytes() == 0,
            "nothing was ever buffered"
        );
        assert_eq!(b.stats.messages_delivered, 1000);
        assert_eq!(rx.delivered, sent, "same bytes, same spans, same order");

        // A 3-fragment message between two small ones falls through to
        // reassembly and comes out in its place, under its own span.
        let big: Bytes = (0..crate::segment::MSS as usize * 2 + 5)
            .map(|i| (i % 251) as u8)
            .collect();
        let mixed = vec![(small(7), 70), (big, 80), (small(9), 90)];
        let mut tx = ConnOut::default();
        for (m, span) in &mixed {
            a.send(t(2), m.clone(), *span, &mut tx);
        }
        assert_eq!(tx.tx.len(), 5);
        let mut rx = ConnOut::default();
        deliver_all(&tx, &mut b, &mut rx);
        assert_eq!(rx.delivered, mixed);
        assert!(b.bufs.is_none(), "reassembly done, buffers given back");
    }

    #[test]
    fn reliable_conn_fits_in_200_bytes() {
        assert!(
            size_of::<ReliableConn>() <= 200,
            "ReliableConn is {} B",
            size_of::<ReliableConn>()
        );
    }

    #[test]
    fn drained_connection_keeps_its_state_across_buffer_retake() {
        let (mut a, mut b) = (
            ReliableConn::new(WindowPolicy::Tcp),
            ReliableConn::new(WindowPolicy::Tcp),
        );
        let mut tx = ConnOut::default();
        a.send(t(0), Bytes::from_static(b"one"), 1, &mut tx);
        let mut rx = ConnOut::default();
        feed(&mut b, t(20), &tx.tx[0], &mut rx);
        let mut back = ConnOut::default();
        a.on_ack(t(40), 1, &mut back);
        assert!(a.bufs.is_none() && b.bufs.is_none(), "both sides drained");
        let (cwnd, rto) = (a.cwnd, a.est.rto());
        assert_eq!(cwnd, INITIAL_CWND + 1.0, "slow start counted the ack");
        assert_eq!(a.est.srtt(), Some(Duration::from_millis(40)));
        assert_ne!(rto, RttEstimator::new().rto(), "the RTO was learned");

        let mut tx = ConnOut::default();
        a.send(t(500), Bytes::from_static(b"two"), 2, &mut tx);
        assert!(a.bufs.is_some(), "sending takes buffers again");
        assert_eq!((a.snd_una, a.next_msg, a.cwnd), (1, 2, cwnd));
        let SegKind::Data { seq, msg, .. } = tx.tx[0].kind else {
            panic!("expected data")
        };
        assert_eq!((seq, msg), (1, 1), "sequence numbers carry on");
        assert_eq!(
            tx.arm_timer,
            Some((t(500) + rto, a.timer_gen)),
            "the RTO guarding it is the learned one"
        );
        let mut rx = ConnOut::default();
        feed(&mut b, t(520), &tx.tx[0], &mut rx);
        assert_eq!(rx.delivered, vec![(Bytes::from_static(b"two"), 2)]);
        assert_eq!(b.rcv_nxt, 2);
    }

    #[test]
    fn out_of_order_segments_reorder() {
        let mut a = ReliableConn::new(WindowPolicy::Swp { window: 100 });
        let mut b = ReliableConn::new(WindowPolicy::Swp { window: 100 });
        let mut out = ConnOut::default();
        for m in ["one", "two", "three"] {
            a.send(t(0), Bytes::from(m.as_bytes().to_vec()), 0, &mut out);
        }
        let mut out_b = ConnOut::default();
        for seg in out.tx.iter().rev() {
            feed(&mut b, t(1), seg, &mut out_b);
        }
        let got: Vec<&[u8]> = out_b.delivered.iter().map(|(b, _)| &b[..]).collect();
        assert_eq!(
            got,
            vec![b"one".as_ref(), b"two".as_ref(), b"three".as_ref()]
        );
    }

    #[test]
    fn duplicate_data_delivered_once() {
        let mut a = ReliableConn::new(WindowPolicy::Tcp);
        let mut b = ReliableConn::new(WindowPolicy::Tcp);
        let mut out = ConnOut::default();
        a.send(t(0), Bytes::from_static(b"dup"), 0, &mut out);
        let mut out_b = ConnOut::default();
        feed(&mut b, t(1), &out.tx[0], &mut out_b);
        assert_eq!(out_b.tx.len(), 1, "sparse in-order segment acks at once");
        feed(&mut b, t(2), &out.tx[0], &mut out_b);
        assert_eq!(out_b.delivered.len(), 1);
        assert_eq!(out_b.tx.len(), 2, "duplicate forces an immediate ack");
    }

    #[test]
    fn dense_stream_defers_then_duplicate_cancels_timer() {
        let mut a = ReliableConn::new(WindowPolicy::Tcp);
        let mut b = ReliableConn::new(WindowPolicy::Tcp);
        let mut out = ConnOut::default();
        for i in 0..3u8 {
            a.send(t(0), Bytes::from(vec![i]), 0, &mut out);
        }
        let mut out_b = ConnOut::default();
        // Seg 0 on a quiet conn: immediate ack. Seg 1 arrives 1 ms later
        // (dense): deferred, timer armed.
        feed(&mut b, t(1), &out.tx[0], &mut out_b);
        assert_eq!(out_b.tx.len(), 1);
        feed(&mut b, t(2), &out.tx[1], &mut out_b);
        assert_eq!(out_b.tx.len(), 1, "dense arrival defers its ack");
        assert!(out_b.arm_ack_timer.is_some());
        // A duplicate of seg 0 flushes immediately and cancels the timer.
        feed(&mut b, t(3), &out.tx[0], &mut out_b);
        assert_eq!(out_b.tx.len(), 2);
        assert!(
            out_b.cancel_ack_timer,
            "immediate ack cancels the delayed-ack timer"
        );
    }

    #[test]
    fn in_order_stream_coalesces_acks() {
        let mut a = ReliableConn::new(WindowPolicy::Swp { window: 100 });
        let mut b = ReliableConn::new(WindowPolicy::Swp { window: 100 });
        let mut out = ConnOut::default();
        for i in 0..8u8 {
            a.send(t(0), Bytes::from(vec![i]), 0, &mut out);
        }
        let mut out_b = ConnOut::default();
        deliver_all(&out, &mut b, &mut out_b);
        // The first segment (quiet conn) acks at once; from then on the
        // dense stream coalesces one cumulative ack per ACK_EVERY.
        assert_eq!(
            acks(&out_b),
            vec![1, 3, 5, 7],
            "one cumulative ack per {ACK_EVERY}"
        );
        assert_eq!(b.stats.acks_sent, 4);
        // Segment 8 is still pending under the armed delayed-ack timer.
        assert!(out_b.arm_ack_timer.is_some());
        b.on_ack_timeout(&mut out_b);
        let SegKind::Ack { cum } = out_b.tx.last().unwrap().kind else {
            panic!()
        };
        assert_eq!(cum, 8);
    }

    #[test]
    fn out_of_order_acks_immediately_for_fast_retransmit() {
        let mut a = ReliableConn::new(WindowPolicy::Swp { window: 100 });
        let mut b = ReliableConn::new(WindowPolicy::Swp { window: 100 });
        let mut out = ConnOut::default();
        for i in 0..5u8 {
            a.send(t(0), Bytes::from(vec![i]), 0, &mut out);
        }
        let mut out_b = ConnOut::default();
        // Deliver 0, then skip 1: every gapped arrival duplicates cum=1.
        feed(&mut b, t(1), &out.tx[0], &mut out_b);
        b.on_ack_timeout(&mut out_b); // flush the delayed ack for seg 0
        for seg in &out.tx[2..] {
            feed(&mut b, t(1), seg, &mut out_b);
        }
        assert_eq!(
            acks(&out_b),
            vec![1, 1, 1, 1],
            "gapped arrivals each ack immediately (dup-ack signal)"
        );
    }

    #[test]
    fn delayed_ack_timer_flushes_pending() {
        let mut b = ReliableConn::new(WindowPolicy::Tcp);
        let mut out = ConnOut::default();
        // Mid-message fragment: more of the burst is coming, so the ack
        // defers under the timer.
        b.on_data(t(1), 0, 0, 0, 2, Bytes::from_static(b"x"), 0, &mut out);
        assert!(out.tx.is_empty());
        assert!(out.arm_ack_timer.is_some());
        b.on_ack_timeout(&mut out);
        assert_eq!(out.tx.len(), 1);
        // A spurious second timeout emits nothing.
        b.on_ack_timeout(&mut out);
        assert_eq!(out.tx.len(), 1);
    }

    #[test]
    fn window_limits_transmissions() {
        let mut a = ReliableConn::new(WindowPolicy::Swp { window: 4 });
        let mut out = ConnOut::default();
        for i in 0..10u8 {
            a.send(t(0), Bytes::from(vec![i]), 0, &mut out);
        }
        assert_eq!(out.tx.len(), 4, "only window-many segments go out");
        // Ack two → two more flow.
        let mut out2 = ConnOut::default();
        a.on_ack(t(5), 2, &mut out2);
        assert_eq!(out2.tx.len(), 2);
    }

    #[test]
    fn tcp_slow_start_grows_cwnd() {
        let mut a = ReliableConn::new(WindowPolicy::Tcp);
        let mut out = ConnOut::default();
        let start = a.cwnd;
        for i in 0..8u8 {
            a.send(t(0), Bytes::from(vec![i]), 0, &mut out);
        }
        // Ack everything transmitted so far, repeatedly.
        for round in 1..5u64 {
            let acked = a.snd_nxt;
            let mut o = ConnOut::default();
            a.on_ack(t(round * 10), acked, &mut o);
        }
        assert!(a.cwnd > start, "cwnd grew: {} -> {}", start, a.cwnd);
    }

    #[test]
    fn rto_retransmits_and_collapses_cwnd() {
        let mut a = ReliableConn::new(WindowPolicy::Tcp);
        let mut out = ConnOut::default();
        a.send(t(0), Bytes::from_static(b"lost"), 5, &mut out);
        let (gen_time, gen) = out.arm_timer.expect("timer armed");
        let mut out2 = ConnOut::default();
        a.on_rto(gen_time, gen, &mut out2);
        assert_eq!(out2.tx.len(), 1, "front segment retransmitted");
        assert_eq!(out2.tx[0].span, 5, "retransmission reuses the span");
        assert_eq!(a.stats.retransmissions, 1);
        assert_eq!(a.cwnd as u32, 1);
        assert!(out2.arm_timer.is_some(), "timer re-armed with backoff");
    }

    #[test]
    fn stale_rto_generation_ignored() {
        let mut a = ReliableConn::new(WindowPolicy::Tcp);
        let mut out = ConnOut::default();
        a.send(t(0), Bytes::from_static(b"x"), 0, &mut out);
        let (at, gen) = out.arm_timer.unwrap();
        // Ack arrives, which re-arms with a new generation...
        let mut o = ConnOut::default();
        a.on_ack(t(1), 1, &mut o);
        // ...then the stale timer fires.
        let mut o2 = ConnOut::default();
        a.on_rto(at, gen, &mut o2);
        assert!(o2.tx.is_empty());
        assert_eq!(a.stats.retransmissions, 0);
    }

    #[test]
    fn triple_dup_ack_fast_retransmits() {
        let mut a = ReliableConn::new(WindowPolicy::Tcp);
        let mut out = ConnOut::default();
        // Open the window, then send several segments.
        for i in 0..2u8 {
            a.send(t(0), Bytes::from(vec![i]), 0, &mut out);
        }
        a.on_ack(t(1), 2, &mut out); // cwnd grows to 4
        for i in 0..4u8 {
            a.send(t(1), Bytes::from(vec![i]), 0, &mut out);
        }
        assert!(a.in_flight() >= 4);
        let una = a.snd_una;
        let mut o = ConnOut::default();
        a.on_ack(t(2), una, &mut o);
        a.on_ack(t(2), una, &mut o);
        assert!(o.tx.is_empty());
        a.on_ack(t(2), una, &mut o);
        assert_eq!(o.tx.len(), 1, "third dup ack triggers retransmit");
        assert_eq!(a.stats.retransmissions, 1);
    }

    #[test]
    fn swp_window_never_reacts_to_loss() {
        let mut a = ReliableConn::new(WindowPolicy::Swp { window: 8 });
        let mut out = ConnOut::default();
        a.send(t(0), Bytes::from_static(b"d"), 0, &mut out);
        let (at, gen) = out.arm_timer.unwrap();
        let mut o = ConnOut::default();
        a.on_rto(at, gen, &mut o);
        assert_eq!(a.window(), 8, "SWP window fixed after timeout");
    }

    #[test]
    fn stats_track_bytes() {
        let mut a = ReliableConn::new(WindowPolicy::Tcp);
        let mut out = ConnOut::default();
        a.send(t(0), Bytes::from(vec![0u8; 300]), 0, &mut out);
        assert_eq!(a.stats.bytes_sent, 300);
        assert_eq!(a.stats.segments_sent, 1);
    }
}
