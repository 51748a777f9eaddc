//! Overlay evaluation metrics extracted from global topology knowledge.
//!
//! §4.3 of the paper: "MACEDON can extract routing tables from ns and
//! ModelNet to report the expected performance along metrics such as link
//! stress, latency stretch, and relative delay penalty (RDP)." These are
//! exactly the computations here; the emulator plays the role of the
//! global oracle.
//!
//! Definitions used (standard in the overlay literature the paper cites):
//!
//! * **link stress** — for a physical link, the number of identical
//!   overlay packets carried (i.e. duplicate transmissions); summarized as
//!   max / mean over links actually used.
//! * **latency stretch** — for a (source, member) pair, the overlay path
//!   latency divided by the direct unicast IP latency.
//! * **RDP (relative delay penalty)** — same ratio measured on delivered
//!   application data (stretch measured per packet rather than from the
//!   topology).

use crate::pipeline::Network;
use crate::topology::NodeId;
use macedon_sim::{Duration, Time};
use std::collections::HashMap;

/// Compute per-pair latency stretch for overlay paths.
///
/// `overlay_edges` is the overlay graph: for each member, the neighbor it
/// receives data from (e.g. tree parent). The overlay path latency from
/// `root` to each member is the sum of unicast latencies along overlay
/// hops; stretch divides by the direct unicast latency from `root`.
pub fn tree_stretch<P>(
    net: &mut Network<P>,
    root: NodeId,
    parents: &HashMap<NodeId, NodeId>,
) -> HashMap<NodeId, f64> {
    // Overlay latency from root, memoized.
    let mut overlay: HashMap<NodeId, Option<Duration>> = HashMap::new();
    overlay.insert(root, Some(Duration::ZERO));

    fn resolve<P>(
        n: NodeId,
        net: &mut Network<P>,
        parents: &HashMap<NodeId, NodeId>,
        overlay: &mut HashMap<NodeId, Option<Duration>>,
        depth: usize,
    ) -> Option<Duration> {
        if let Some(v) = overlay.get(&n) {
            return *v;
        }
        if depth > parents.len() + 1 {
            return None; // cycle guard
        }
        let p = *parents.get(&n)?;
        let up = resolve(p, net, parents, overlay, depth + 1)?;
        let hop = net.oracle_latency(p, n)?;
        let total = up + hop;
        overlay.insert(n, Some(total));
        Some(total)
    }

    let members: Vec<NodeId> = parents.keys().copied().collect();
    let mut out = HashMap::new();
    for m in members {
        if m == root {
            continue;
        }
        let Some(ov) = resolve(m, net, parents, &mut overlay, 0) else {
            continue;
        };
        let Some(direct) = net.oracle_latency(root, m) else {
            continue;
        };
        let direct_us = direct.as_micros().max(1);
        out.insert(m, ov.as_micros() as f64 / direct_us as f64);
    }
    out
}

/// Link stress over the physical links an overlay used, in whole
/// packets: callers derive the mean as `sum / links_used`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StressSummary {
    /// Most packets any one link carried.
    pub max: u64,
    /// Packets over every link.
    pub sum: u64,
    /// Links that carried at least one packet.
    pub links_used: u64,
}

/// Link stress from per-physical-link `(packets, bytes, drops)` counters
/// ([`Network::link_counters`]) relative to a baseline read before the
/// measurement window; links past the baseline's end count from zero,
/// so an empty baseline measures the whole run.
pub fn link_stress(counters: &[(u64, u64, u64)], baseline: &[(u64, u64, u64)]) -> StressSummary {
    let mut s = StressSummary::default();
    for (i, &(pkts, _, _)) in counters.iter().enumerate() {
        let base = baseline.get(i).map_or(0, |b| b.0);
        let delta = pkts.saturating_sub(base);
        if delta > 0 {
            s.links_used += 1;
            s.sum += delta;
            s.max = s.max.max(delta);
        }
    }
    s
}

/// Per-packet relative delay penalty: observed overlay delivery latency
/// over direct unicast latency.
pub fn rdp<P>(
    net: &mut Network<P>,
    src: NodeId,
    dst: NodeId,
    sent_at: Time,
    delivered_at: Time,
) -> Option<f64> {
    let direct = net.oracle_latency(src, dst)?;
    let observed = delivered_at.saturating_since(sent_at);
    Some(observed.as_micros() as f64 / direct.as_micros().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::pipeline::{NetworkConfig, Sink};
    use crate::topology::{canned, LinkSpec};
    use macedon_sim::Scheduler;

    #[test]
    fn stretch_of_direct_children_is_one() {
        let t = canned::star(4, LinkSpec::lan());
        let hs = t.hosts().to_vec();
        let mut net: Network<()> = Network::new(t, NetworkConfig::default());
        // Star overlay == star IP topology: all stretch 1.0.
        let parents: HashMap<NodeId, NodeId> = hs[1..].iter().map(|&h| (h, hs[0])).collect();
        let s = tree_stretch(&mut net, hs[0], &parents);
        assert_eq!(s.len(), 3);
        for (_, v) in s {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn chain_overlay_has_stretch_above_one() {
        let t = canned::star(3, LinkSpec::lan());
        let hs = t.hosts().to_vec();
        let mut net: Network<()> = Network::new(t, NetworkConfig::default());
        // Overlay chain h0 -> h1 -> h2 over a star: h2's overlay path is
        // h0-h1 (2ms) + h1-h2 (2ms) = 4ms vs direct 2ms → stretch 2.
        let mut parents = HashMap::new();
        parents.insert(hs[1], hs[0]);
        parents.insert(hs[2], hs[1]);
        let s = tree_stretch(&mut net, hs[0], &parents);
        assert!((s[&hs[1]] - 1.0).abs() < 1e-9);
        assert!((s[&hs[2]] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stretch_handles_cycle_gracefully() {
        let t = canned::star(3, LinkSpec::lan());
        let hs = t.hosts().to_vec();
        let mut net: Network<()> = Network::new(t, NetworkConfig::default());
        let mut parents = HashMap::new();
        parents.insert(hs[1], hs[2]);
        parents.insert(hs[2], hs[1]); // cycle, detached from root
        let s = tree_stretch(&mut net, hs[0], &parents);
        assert!(s.is_empty());
    }

    #[test]
    fn link_stress_counts_duplicates() {
        let t = canned::two_hosts(LinkSpec::lan());
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let mut net: Network<u32> = Network::new(t, NetworkConfig::default());
        let baseline = net.link_counters();
        let mut sched = Scheduler::new();
        let mut out = Sink::new();
        for i in 0..3 {
            net.send(Time::ZERO, Packet::new(a, b, 100, i), &mut out);
        }
        // Drain.
        loop {
            for (ti, ev) in out.schedule.drain(..) {
                sched.schedule(ti, ev);
            }
            match sched.pop() {
                Some((now, ev)) => net.handle(now, ev, &mut out),
                None => {
                    if out.schedule.is_empty() {
                        break;
                    }
                }
            }
        }
        let s = link_stress(&net.link_counters(), &baseline);
        let want = StressSummary {
            max: 3,
            sum: 6,
            links_used: 2,
        };
        assert_eq!(s, want);
    }

    #[test]
    fn rdp_of_direct_path_is_one() {
        let t = canned::two_hosts(LinkSpec::lan());
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let mut net: Network<()> = Network::new(t, NetworkConfig::default());
        let direct = net.oracle_latency(a, b).unwrap();
        let r = rdp(&mut net, a, b, Time::ZERO, Time::ZERO + direct).unwrap();
        assert!((r - 1.0).abs() < 1e-9);
        let r2 = rdp(&mut net, a, b, Time::ZERO, Time::ZERO + direct + direct).unwrap();
        assert!((r2 - 2.0).abs() < 1e-9);
    }
}
