//! Reusable application handlers: workload generators and delivery
//! collectors used by the evaluation harness (and handy in tests).
//!
//! The paper evaluates overlays with small driver applications — a
//! streamer that multicasts 1000-byte packets at a target rate
//! (SplitStream, Fig 12), a random-destination router at 10 Kbps (Pastry,
//! Fig 11) — and null-handler apps when only construction is being
//! evaluated. These are those drivers.

use crate::agent::{AppHandler, Ctx};
use crate::api::{DownCall, DEFAULT_PRIORITY};
use crate::key::MacedonKey;
use bytes::Bytes;
use macedon_net::NodeId;
use macedon_sim::{Duration, Time};
use parking_lot::Mutex;
use std::any::Any;
use std::sync::Arc;

/// One record per application-level delivery.
#[derive(Clone, Debug)]
pub struct DeliveryRecord {
    pub at: Time,
    pub node: NodeId,
    pub src: MacedonKey,
    pub from: NodeId,
    pub bytes: usize,
    /// First 8 payload bytes interpreted as a big-endian sequence number
    /// when present (the workloads below stamp one).
    pub seqno: Option<u64>,
}

/// Shared sink the collector apps append into; the experiment harness
/// holds a clone and reads it after the run.
pub type SharedDeliveries = Arc<Mutex<Vec<DeliveryRecord>>>;

pub fn shared_deliveries() -> SharedDeliveries {
    Arc::new(Mutex::new(Vec::new()))
}

/// Records every delivery; makes no calls.
pub struct CollectorApp {
    pub sink: SharedDeliveries,
}

impl CollectorApp {
    pub fn new(sink: SharedDeliveries) -> CollectorApp {
        CollectorApp { sink }
    }
}

fn record(sink: &SharedDeliveries, ctx: &Ctx, src: MacedonKey, from: NodeId, payload: &Bytes) {
    let seqno = if payload.len() >= 8 {
        Some(u64::from_be_bytes(
            payload[..8].try_into().expect("len checked"),
        ))
    } else {
        None
    };
    sink.lock().push(DeliveryRecord {
        at: ctx.now,
        node: ctx.me,
        src,
        from,
        bytes: payload.len(),
        seqno,
    });
}

impl AppHandler for CollectorApp {
    fn on_deliver(&mut self, ctx: &mut Ctx, src: MacedonKey, from: NodeId, payload: Bytes) {
        ctx.locking_read();
        record(&self.sink, ctx, src, from, &payload);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Workload shape for [`StreamerApp`] sends.
#[derive(Clone, Copy, Debug)]
pub enum StreamKind {
    /// Multicast to a group (Fig 12's SplitStream source).
    Multicast { group: MacedonKey },
    /// Route each packet to a uniformly random key (Fig 11's Pastry
    /// workload).
    RandomRoute,
}

/// Streams `packet_bytes`-sized packets at `rate_bps` starting at
/// `start`, stamping a sequence number in the first 8 payload bytes.
/// Also records its own deliveries like [`CollectorApp`].
pub struct StreamerApp {
    pub kind: StreamKind,
    pub rate_bps: u64,
    pub packet_bytes: usize,
    pub start: Time,
    pub stop: Time,
    pub sink: SharedDeliveries,
    seq: u64,
}

const TICK: u16 = 0;

impl StreamerApp {
    pub fn new(
        kind: StreamKind,
        rate_bps: u64,
        packet_bytes: usize,
        start: Time,
        stop: Time,
        sink: SharedDeliveries,
    ) -> StreamerApp {
        assert!(rate_bps > 0 && packet_bytes >= 8);
        StreamerApp {
            kind,
            rate_bps,
            packet_bytes,
            start,
            stop,
            sink,
            seq: 0,
        }
    }

    fn interval(&self) -> Duration {
        // packet_bytes * 8 bits at rate_bps.
        let us = (self.packet_bytes as u64 * 8).saturating_mul(1_000_000) / self.rate_bps;
        Duration::from_micros(us.max(1))
    }

    fn payload(&mut self) -> Bytes {
        let mut buf = vec![0u8; self.packet_bytes];
        buf[..8].copy_from_slice(&self.seq.to_be_bytes());
        self.seq += 1;
        Bytes::from(buf)
    }
}

impl AppHandler for StreamerApp {
    fn start(&mut self, ctx: &mut Ctx) {
        let delay = self.start.saturating_since(ctx.now);
        ctx.timer_set(TICK, delay.max(Duration::from_micros(1)));
    }

    fn on_timer(&mut self, ctx: &mut Ctx, timer: u16) {
        if timer != TICK || ctx.now >= self.stop {
            return;
        }
        let payload = self.payload();
        let call = match self.kind {
            StreamKind::Multicast { group } => DownCall::Multicast {
                group,
                payload,
                priority: DEFAULT_PRIORITY,
            },
            StreamKind::RandomRoute => DownCall::Route {
                dest: MacedonKey(ctx.rng.next_u32()),
                payload,
                priority: DEFAULT_PRIORITY,
            },
        };
        ctx.down(call);
        ctx.timer_set(TICK, self.interval());
    }

    fn on_deliver(&mut self, ctx: &mut Ctx, src: MacedonKey, from: NodeId, payload: Bytes) {
        ctx.locking_read();
        record(&self.sink, ctx, src, from, &payload);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamer_interval_math() {
        let s = StreamerApp::new(
            StreamKind::RandomRoute,
            10_000, // 10 Kbps
            1_000,  // 1000-byte packets
            Time::ZERO,
            Time::from_secs(10),
            shared_deliveries(),
        );
        // 8000 bits / 10000 bps = 0.8 s per packet.
        assert_eq!(s.interval(), Duration::from_millis(800));
    }

    #[test]
    fn streamer_payload_stamps_sequence() {
        let mut s = StreamerApp::new(
            StreamKind::RandomRoute,
            1_000_000,
            100,
            Time::ZERO,
            Time::from_secs(1),
            shared_deliveries(),
        );
        let p0 = s.payload();
        let p1 = s.payload();
        assert_eq!(u64::from_be_bytes(p0[..8].try_into().unwrap()), 0);
        assert_eq!(u64::from_be_bytes(p1[..8].try_into().unwrap()), 1);
        assert_eq!(p0.len(), 100);
    }

    #[test]
    #[should_panic]
    fn tiny_packets_rejected() {
        let _ = StreamerApp::new(
            StreamKind::RandomRoute,
            1_000,
            4, // < 8 bytes: no room for a seqno
            Time::ZERO,
            Time::from_secs(1),
            shared_deliveries(),
        );
    }
}
