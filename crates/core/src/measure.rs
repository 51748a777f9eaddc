//! The per-node measurement ledger: engine-observed smoothed RTT and
//! goodput per peer, exposed to protocol transitions through
//! [`crate::agent::Ctx::rtt_ms`] / [`crate::agent::Ctx::goodput_kbps`]
//! (and, from there, to `.mac` specifications as the `rtt(peer)` /
//! `goodput(peer)` builtins).
//!
//! The paper's adaptive overlays (Overcast's probe epochs, AMMO's
//! metric-driven reconfiguration) decide from *measured* network
//! performance. The engine already observes everything needed — the
//! transport takes Karn-filtered RTT samples from acknowledgements, and
//! the world sees every delivered byte — so this ledger simply funnels
//! those observations into per-peer estimators a transition can read:
//!
//! * **RTT** — sender-side, fed from reliable-transport ACKs
//!   ([`MeasureLedger::on_ack`]); smoothed with the classic 7/8 EWMA.
//!   Peers spoken to only over UDP have no estimate.
//! * **Goodput** — receiver-side, fed from every fully reassembled
//!   message a peer delivers to this node ([`MeasureLedger::on_bytes_in`]);
//!   bytes are accumulated into windows of at least
//!   [`GOODPUT_WINDOW`], each closed window's rate folded into a 1/2
//!   EWMA. Receiver-side measurement is what Overcast's bandwidth
//!   estimation wants: the rate a candidate parent can actually push
//!   data *to us*, as throttled by the emulated network.
//!
//! All arithmetic is integer, so seeded runs stay bit-for-bit
//! reproducible across builds, and the two translator back ends
//! (interpreter and generated code) observe identical values.

use macedon_net::NodeId;
use macedon_sim::{Duration, FxHashMap, Time};

/// Minimum span a goodput window covers before its rate is folded into
/// the estimate. Short enough that an 8-probe train at 50 ms spacing
/// closes several windows; long enough to average out per-packet
/// serialization jitter.
pub const GOODPUT_WINDOW: Duration = Duration(100_000); // 100 ms

#[derive(Clone, Copy, Debug, Default)]
struct PeerMeasure {
    /// Smoothed RTT in µs; `0` = no sample yet.
    srtt_us: u64,
    /// Open goodput window: start instant and bytes received in it.
    win_start: Time,
    win_bytes: u64,
    /// Smoothed goodput in bits/s; meaningful only when `has_goodput`.
    goodput_bps: u64,
    has_goodput: bool,
    /// Has the first inbound byte been seen (window opened)?
    win_open: bool,
}

/// Per-peer engine measurements for one node.
#[derive(Default)]
pub struct MeasureLedger {
    peers: FxHashMap<NodeId, PeerMeasure>,
}

/// Integer aggregate of one ledger's estimates (see
/// [`MeasureLedger::summary`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeasureSummary {
    /// Peers with an RTT estimate.
    pub rtt_peers: u64,
    /// Sum of smoothed RTTs over those peers, µs.
    pub srtt_us_sum: u64,
    /// Peers with a goodput estimate.
    pub goodput_peers: u64,
    /// Sum of smoothed goodputs over those peers, bits/s.
    pub goodput_bps_sum: u64,
}

impl MeasureSummary {
    /// Fold another summary in (cross-node aggregation).
    pub fn add(&mut self, o: &MeasureSummary) {
        self.rtt_peers += o.rtt_peers;
        self.srtt_us_sum += o.srtt_us_sum;
        self.goodput_peers += o.goodput_peers;
        self.goodput_bps_sum += o.goodput_bps_sum;
    }

    /// Mean smoothed RTT in µs (0 when no estimates exist).
    pub fn mean_rtt_us(&self) -> u64 {
        self.srtt_us_sum.checked_div(self.rtt_peers).unwrap_or(0)
    }

    /// Mean smoothed goodput in bits/s (0 when no estimates exist).
    pub fn mean_goodput_bps(&self) -> u64 {
        self.goodput_bps_sum
            .checked_div(self.goodput_peers)
            .unwrap_or(0)
    }
}

impl MeasureLedger {
    pub fn new() -> MeasureLedger {
        MeasureLedger::default()
    }

    /// Heap bytes the ledger holds: its per-peer table.
    pub fn heap_bytes(&self) -> usize {
        macedon_sim::table_bytes(&self.peers)
    }

    /// A reliable-transport acknowledgement from `peer` advanced the
    /// send window: `rtt` is the Karn-filtered sample (None when only
    /// retransmitted segments were acked).
    pub fn on_ack(&mut self, _now: Time, peer: NodeId, rtt: Option<Duration>) {
        let Some(rtt) = rtt else { return };
        let m = self.peers.entry(peer).or_default();
        m.srtt_us = if m.srtt_us == 0 {
            rtt.as_micros().max(1)
        } else {
            ((7 * m.srtt_us + rtt.as_micros()) / 8).max(1)
        };
    }

    /// A fully reassembled message of `bytes` bytes arrived from `peer`.
    pub fn on_bytes_in(&mut self, now: Time, peer: NodeId, bytes: usize) {
        let m = self.peers.entry(peer).or_default();
        if !m.win_open {
            m.win_open = true;
            m.win_start = now;
            m.win_bytes = bytes as u64;
            return;
        }
        m.win_bytes += bytes as u64;
        let elapsed = now.saturating_since(m.win_start);
        if elapsed >= GOODPUT_WINDOW {
            let inst_bps = m.win_bytes * 8 * 1_000_000 / elapsed.as_micros().max(1);
            m.goodput_bps = if m.has_goodput {
                (m.goodput_bps + inst_bps) / 2
            } else {
                inst_bps
            };
            m.has_goodput = true;
            m.win_start = now;
            m.win_bytes = 0;
        }
    }

    /// Smoothed round-trip time to `peer`, if any reliable-transport
    /// sample exists.
    pub fn rtt(&self, peer: NodeId) -> Option<Duration> {
        self.peers
            .get(&peer)
            .filter(|m| m.srtt_us > 0)
            .map(|m| Duration(m.srtt_us))
    }

    /// Smoothed inbound goodput from `peer` in bits/s, if at least one
    /// measurement window has closed.
    pub fn goodput_bps(&self, peer: NodeId) -> Option<u64> {
        self.peers
            .get(&peer)
            .filter(|m| m.has_goodput)
            .map(|m| m.goodput_bps)
    }

    /// Drop all state for `peer` (its measurements describe a dead
    /// incarnation after a crash).
    pub fn forget(&mut self, peer: NodeId) {
        self.peers.remove(&peer);
    }

    /// Order-independent aggregate over all peers (integer sums, so the
    /// result is identical whatever the hash-map iteration order) — the
    /// telemetry sampler's per-node RTT/goodput gauges.
    pub fn summary(&self) -> MeasureSummary {
        let mut s = MeasureSummary::default();
        for m in self.peers.values() {
            if m.srtt_us > 0 {
                s.rtt_peers += 1;
                s.srtt_us_sum += m.srtt_us;
            }
            if m.has_goodput {
                s.goodput_peers += 1;
                s.goodput_bps_sum += m.goodput_bps;
            }
        }
        s
    }

    /// Number of peers with any measurement state.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn rtt_smooths_toward_samples() {
        let mut l = MeasureLedger::new();
        let p = NodeId(1);
        assert_eq!(l.rtt(p), None);
        l.on_ack(t(0), p, Some(Duration::from_millis(100)));
        assert_eq!(l.rtt(p), Some(Duration::from_millis(100)));
        for _ in 0..64 {
            l.on_ack(t(1), p, Some(Duration::from_millis(20)));
        }
        let srtt = l.rtt(p).unwrap();
        assert!(srtt <= Duration::from_millis(22), "{srtt:?}");
        assert!(srtt >= Duration::from_millis(19), "{srtt:?}");
    }

    #[test]
    fn karn_suppressed_samples_ignored() {
        let mut l = MeasureLedger::new();
        let p = NodeId(1);
        l.on_ack(t(0), p, None);
        assert_eq!(l.rtt(p), None);
    }

    #[test]
    fn goodput_needs_a_closed_window() {
        let mut l = MeasureLedger::new();
        let p = NodeId(2);
        l.on_bytes_in(t(0), p, 1000);
        // Window opened but not yet closed: no estimate.
        assert_eq!(l.goodput_bps(p), None);
        l.on_bytes_in(t(50), p, 1000);
        assert_eq!(l.goodput_bps(p), None, "window shorter than minimum");
        l.on_bytes_in(t(100), p, 1000);
        // 3000 bytes over the 100 ms window = 240 kbit/s.
        assert_eq!(l.goodput_bps(p), Some(240_000));
    }

    #[test]
    fn goodput_ewma_tracks_rate_changes() {
        let mut l = MeasureLedger::new();
        let p = NodeId(3);
        // 1000 B every 100 ms: 80 kbit/s steady.
        let mut now = 0;
        l.on_bytes_in(t(now), p, 1000);
        for _ in 0..8 {
            now += 100;
            l.on_bytes_in(t(now), p, 1000);
        }
        // Each closed window carries 1000 B / 100 ms = 80 kbit/s; the
        // EWMA converges there (the opening window briefly reads high).
        let g = l.goodput_bps(p).unwrap();
        assert!((80_000..=82_000).contains(&g), "{g}");
        // Rate collapses to 1000 B per second: estimate halves each window.
        now += 1000;
        l.on_bytes_in(t(now), p, 1000);
        let g1 = l.goodput_bps(p).unwrap();
        assert!(g1 < 80_000, "{g1}");
        now += 1000;
        l.on_bytes_in(t(now), p, 1000);
        assert!(l.goodput_bps(p).unwrap() < g1);
    }

    #[test]
    fn forget_clears_peer_state() {
        let mut l = MeasureLedger::new();
        let p = NodeId(4);
        l.on_ack(t(0), p, Some(Duration::from_millis(5)));
        assert!(!l.is_empty());
        l.forget(p);
        assert_eq!(l.rtt(p), None);
        assert!(l.is_empty());
    }

    #[test]
    fn peers_are_independent() {
        let mut l = MeasureLedger::new();
        l.on_ack(t(0), NodeId(1), Some(Duration::from_millis(10)));
        l.on_ack(t(0), NodeId(2), Some(Duration::from_millis(30)));
        assert_eq!(l.rtt(NodeId(1)), Some(Duration::from_millis(10)));
        assert_eq!(l.rtt(NodeId(2)), Some(Duration::from_millis(30)));
        assert_eq!(l.len(), 2);
    }
}
