//! NICE (Banerjee et al., SIGCOMM'02) as a MACEDON agent.
//!
//! NICE arranges members into a hierarchy of latency-based clusters of
//! size `[k, 3k-1]`: every member sits in a layer-0 cluster; each
//! cluster's *leader* (its latency center) additionally joins a cluster
//! one layer up, recursively. Data forwards to every cluster a node
//! belongs to except the one it arrived from, giving O(log n) delivery
//! with low stretch.
//!
//! The paper calls NICE "a more complex protocol than all others"
//! (≈ 500 LoC of MACEDON, four weeks of skilled-programmer time); its
//! validation re-creates the SIGCOMM topology — 8 Internet sites,
//! 64 members — and compares per-site stretch (Fig 8) and latency
//! (Fig 9). `macedon-bench`'s `fig8`/`fig9` binaries run exactly that
//! setup over this agent.
//!
//! Implemented: rendezvous-based iterative join (descend the hierarchy
//! toward the closest leader), RTT measurement by in-protocol
//! ping/pong, leader heartbeats with membership dissemination,
//! center-based leader re-election, cluster split at `3k-1` / merge
//! below `k`, and the NICE data-forwarding rule. Like the MACEDON
//! authors' NICE, it compares raw RTTs: the NICE paper's probe-time
//! "binning" refinement is not implemented.

use crate::common::proto;
use macedon_core::api::NBR_TYPE_PEERS;
use macedon_core::{
    proto_header, Agent, Bytes, ChannelId, Ctx, DownCall, Duration, MacedonKey, NodeId, ProtocolId,
    TraceLevel, UpCall, WireReader, WireWriter,
};
use std::any::Any;
use std::collections::HashMap;

const MSG_QUERY: u16 = 1;
const MSG_QUERY_RESP: u16 = 2;
const MSG_JOIN_REQ: u16 = 3;
const MSG_CLUSTER_UPDATE: u16 = 4;
const MSG_PING: u16 = 5;
const MSG_PONG: u16 = 6;
const MSG_MEMBER_HB: u16 = 7;
const MSG_LEADER_TRANSFER: u16 = 8;
const MSG_DATA: u16 = 9;
const MSG_LEAVE_LAYER: u16 = 10;

const TIMER_HB: u16 = 1;
const TIMER_PING: u16 = 2;
const TIMER_JOIN_RETRY: u16 = 3;
const TIMER_MAINTAIN: u16 = 4;

/// Cluster size parameter `k`: sizes stay within `[k, 3k-1]`.
const K: usize = 3;
const HEARTBEAT_PERIOD: Duration = Duration::from_secs(1);
const PING_PERIOD: Duration = Duration::from_secs(2);
/// Invariant-check period (split/merge/re-center).
const MAINTAIN_PERIOD: Duration = Duration::from_secs(5);
const CONTROL_CH: ChannelId = ChannelId(1);
const DATA_CH: ChannelId = ChannelId(2);

#[derive(Clone, Debug)]
struct Cluster {
    members: Vec<NodeId>,
    leader: NodeId,
}

impl Default for Cluster {
    fn default() -> Self {
        Cluster {
            members: Vec::new(),
            leader: NodeId(u32::MAX),
        }
    }
}

/// The NICE agent.
pub struct Nice {
    /// Rendezvous point; `None` if this node is the RP.
    rendezvous: Option<NodeId>,
    /// `clusters[i]` = my cluster at layer `i` (present while I'm a
    /// member there; `i > 0` implies I lead `clusters[i-1]`).
    clusters: Vec<Cluster>,
    /// Measured RTT to peers, in µs.
    rtt: HashMap<NodeId, u64>,
    /// RTT reports from cluster members (leader's matrix).
    reports: HashMap<NodeId, HashMap<NodeId, u64>>,
    joined: bool,
    /// Packet-id dedup for the forwarding rule (src key, seqno).
    seen: std::collections::HashSet<(u32, u64)>,
    /// Join descent state: the layer we are currently querying.
    probing_candidates: Vec<NodeId>,
    awaiting_level: Option<u32>,
    pub splits: u32,
    pub merges: u32,
}

impl Nice {
    pub fn new(rendezvous: Option<NodeId>) -> Nice {
        Nice {
            rendezvous,
            clusters: Vec::new(),
            rtt: HashMap::new(),
            reports: HashMap::new(),
            joined: false,
            seen: std::collections::HashSet::new(),
            probing_candidates: Vec::new(),
            awaiting_level: None,
            splits: 0,
            merges: 0,
        }
    }

    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// Highest layer this node participates in.
    pub fn top_layer(&self) -> usize {
        self.clusters.len().saturating_sub(1)
    }

    pub fn cluster_members(&self, layer: usize) -> Vec<NodeId> {
        self.clusters
            .get(layer)
            .map(|c| c.members.clone())
            .unwrap_or_default()
    }

    fn rtt_of(&self, n: NodeId) -> u64 {
        self.rtt.get(&n).copied().unwrap_or(u64::MAX / 4)
    }

    fn send(&self, ctx: &mut Ctx, to: NodeId, ch: ChannelId, w: WireWriter) {
        if to != ctx.me {
            ctx.send(to, ch, w.finish());
        }
    }

    fn start_join(&mut self, ctx: &mut Ctx) {
        match self.rendezvous {
            None => {
                // The RP seeds the hierarchy as a singleton L0 cluster.
                self.clusters = vec![Cluster {
                    members: vec![ctx.me],
                    leader: ctx.me,
                }];
                self.joined = true;
            }
            Some(rp) => {
                let mut w = proto_header(proto::NICE, MSG_QUERY);
                w.u32(u32::MAX); // "your top layer"
                self.send(ctx, rp, CONTROL_CH, w);
                ctx.timer_set(TIMER_JOIN_RETRY, Duration::from_secs(8));
            }
        }
    }

    /// Leader broadcast of one cluster's membership.
    fn broadcast_update(&mut self, ctx: &mut Ctx, layer: usize) {
        let Some(c) = self.clusters.get(layer) else {
            return;
        };
        let (members, leader) = (c.members.clone(), c.leader);
        for &m in &members {
            if m == ctx.me {
                continue;
            }
            let mut w = proto_header(proto::NICE, MSG_CLUSTER_UPDATE);
            w.u32(layer as u32).node(leader).nodes(&members);
            self.send(ctx, m, CONTROL_CH, w);
        }
    }

    /// Install (or replace) my view of the cluster at `layer`.
    fn install_cluster(
        &mut self,
        ctx: &mut Ctx,
        layer: usize,
        leader: NodeId,
        members: Vec<NodeId>,
    ) {
        if !members.contains(&ctx.me) {
            // We were dropped from this cluster (merge/split elsewhere).
            if layer < self.clusters.len() && !self.i_lead(layer, ctx.me) {
                self.clusters.truncate(layer);
            }
            return;
        }
        while self.clusters.len() <= layer {
            self.clusters.push(Cluster::default());
        }
        self.clusters[layer] = Cluster {
            members: members.clone(),
            leader,
        };
        self.joined = true;
        // If I'm not the leader, I must not be in any layer above this one.
        if leader != ctx.me {
            self.clusters.truncate(layer + 1);
        }
        for &m in &members {
            if m != ctx.me {
                ctx.monitor(m);
            }
        }
        ctx.up(UpCall::Notify {
            nbr_type: NBR_TYPE_PEERS,
            neighbors: members,
        });
    }

    fn i_lead(&self, layer: usize, me: NodeId) -> bool {
        self.clusters
            .get(layer)
            .map(|c| c.leader == me)
            .unwrap_or(false)
    }

    /// Leader maintenance for one layer: re-center, split, merge.
    fn maintain_layer(&mut self, ctx: &mut Ctx, layer: usize) {
        let me = ctx.me;
        if !self.i_lead(layer, me) {
            return;
        }
        let members = self.clusters[layer].members.clone();
        // --- split ---
        if members.len() > 3 * K - 1 {
            self.splits += 1;
            let (a, b) = self.partition(&members);
            let la = self.center_of(&a);
            let lb = self.center_of(&b);
            // I keep leading my half (transfer below if not center).
            let (mine, other, other_leader) = if a.contains(&me) {
                (a.clone(), b, lb)
            } else {
                (b.clone(), a, la)
            };
            self.clusters[layer] = Cluster {
                members: mine,
                leader: me,
            };
            self.broadcast_update(ctx, layer);
            // Hand the other half to its center.
            let mut w = proto_header(proto::NICE, MSG_LEADER_TRANSFER);
            w.u32(layer as u32).nodes(&other);
            self.send(ctx, other_leader, CONTROL_CH, w);
            // Introduce the new leader into my upper-layer cluster.
            self.add_to_upper(ctx, layer + 1, other_leader);
            return;
        }
        // --- merge ---
        if members.len() < K && layer + 1 < self.clusters.len() {
            let peers: Vec<NodeId> = self.clusters[layer + 1]
                .members
                .iter()
                .copied()
                .filter(|&p| p != me)
                .collect();
            if let Some(&target) = peers.first() {
                self.merges += 1;
                // Enroll every member (including me) in the target
                // leader's cluster on their behalf; its broadcast will
                // rewrite everyone's view.
                for &m in &members {
                    let mut w = proto_header(proto::NICE, MSG_JOIN_REQ);
                    w.u32(layer as u32).node(m);
                    self.send(ctx, target, CONTROL_CH, w);
                }
                // Leave the upper layer: I no longer lead anything here.
                let upper_leader = self.clusters[layer + 1].leader;
                if upper_leader != me {
                    let mut lw = proto_header(proto::NICE, MSG_LEAVE_LAYER);
                    lw.u32(layer as u32 + 1).node(me);
                    self.send(ctx, upper_leader, CONTROL_CH, lw);
                }
                self.clusters.truncate(layer + 1);
                if let Some(c) = self.clusters.get_mut(layer) {
                    c.leader = target;
                }
                return;
            }
        }
        // --- re-center ---
        let center = self.center_of(&members);
        if center != me && members.len() >= 2 {
            let mut w = proto_header(proto::NICE, MSG_LEADER_TRANSFER);
            w.u32(layer as u32).nodes(&members);
            self.send(ctx, center, CONTROL_CH, w);
            self.clusters[layer].leader = center;
            self.broadcast_update_with_leader(ctx, layer, center);
            // Hand off my seat in the upper-layer cluster to the new
            // leader, then shed the upper layers.
            if layer + 1 < self.clusters.len() {
                let upper_leader = self.clusters[layer + 1].leader;
                let mut jw = proto_header(proto::NICE, MSG_JOIN_REQ);
                jw.u32(layer as u32 + 1).node(center);
                let mut lw = proto_header(proto::NICE, MSG_LEAVE_LAYER);
                lw.u32(layer as u32 + 1).node(me);
                if upper_leader == me {
                    // I led the upper cluster too: swap in place and
                    // transfer that leadership as well.
                    let mut upper_members = self.clusters[layer + 1].members.clone();
                    upper_members.retain(|&m| m != me);
                    if !upper_members.contains(&center) {
                        upper_members.push(center);
                    }
                    let mut tw = proto_header(proto::NICE, MSG_LEADER_TRANSFER);
                    tw.u32(layer as u32 + 1).nodes(&upper_members);
                    self.send(ctx, center, CONTROL_CH, tw);
                } else {
                    self.send(ctx, upper_leader, CONTROL_CH, jw);
                    self.send(ctx, upper_leader, CONTROL_CH, lw);
                }
            }
            self.clusters.truncate(layer + 1);
        }
    }

    fn broadcast_update_with_leader(&mut self, ctx: &mut Ctx, layer: usize, leader: NodeId) {
        let Some(c) = self.clusters.get(layer) else {
            return;
        };
        let members = c.members.clone();
        for &m in &members {
            if m == ctx.me {
                continue;
            }
            let mut w = proto_header(proto::NICE, MSG_CLUSTER_UPDATE);
            w.u32(layer as u32).node(leader).nodes(&members);
            self.send(ctx, m, CONTROL_CH, w);
        }
    }

    fn add_to_upper(&mut self, ctx: &mut Ctx, upper: usize, node: NodeId) {
        if upper < self.clusters.len() {
            if !self.clusters[upper].members.contains(&node) {
                self.clusters[upper].members.push(node);
            }
            if self.i_lead(upper, ctx.me) {
                self.broadcast_update(ctx, upper);
            } else {
                // Tell the upper leader to adopt it.
                let leader = self.clusters[upper].leader;
                let mut w = proto_header(proto::NICE, MSG_JOIN_REQ);
                w.u32(upper as u32).node(node);
                self.send(ctx, leader, CONTROL_CH, w);
            }
        } else {
            // I was the top: create a new top layer for the two of us.
            let me = ctx.me;
            self.clusters.push(Cluster {
                members: vec![me, node],
                leader: me,
            });
            self.broadcast_update(ctx, upper);
        }
    }

    /// Pick two far-apart seeds and split members around them.
    fn partition(&self, members: &[NodeId]) -> (Vec<NodeId>, Vec<NodeId>) {
        let d = |a: NodeId, b: NodeId| -> u64 {
            self.reports
                .get(&a)
                .and_then(|m| m.get(&b))
                .copied()
                .or_else(|| self.reports.get(&b).and_then(|m| m.get(&a)).copied())
                .unwrap_or_else(|| self.rtt_of(a).saturating_add(self.rtt_of(b)) / 2)
        };
        let mut seed_a = members[0];
        let mut seed_b = members[1 % members.len()];
        let mut best = 0;
        for &x in members {
            for &y in members {
                if d(x, y) > best && x != y {
                    best = d(x, y);
                    seed_a = x;
                    seed_b = y;
                }
            }
        }
        let mut a = vec![seed_a];
        let mut b = vec![seed_b];
        for &m in members {
            if m == seed_a || m == seed_b {
                continue;
            }
            if d(m, seed_a) <= d(m, seed_b) {
                a.push(m);
            } else {
                b.push(m);
            }
        }
        (a, b)
    }

    /// Latency center: member minimizing the max distance to the others.
    fn center_of(&self, members: &[NodeId]) -> NodeId {
        let d = |a: NodeId, b: NodeId| -> u64 {
            self.reports
                .get(&a)
                .and_then(|m| m.get(&b))
                .copied()
                .or_else(|| self.reports.get(&b).and_then(|m| m.get(&a)).copied())
                .unwrap_or(u64::MAX / 4)
        };
        members
            .iter()
            .copied()
            .min_by_key(|&c| {
                members
                    .iter()
                    .filter(|&&o| o != c)
                    .map(|&o| d(c, o))
                    .max()
                    .unwrap_or(0)
            })
            .expect("non-empty cluster")
    }

    /// Record a packet id; returns false when already seen.
    fn mark_seen(&mut self, src: MacedonKey, payload: &Bytes) -> bool {
        let seq = if payload.len() >= 8 {
            u64::from_be_bytes(payload[..8].try_into().expect("len checked"))
        } else {
            // Small control-ish payloads: hash the bytes.
            payload
                .iter()
                .fold(0u64, |acc, &b| acc.wrapping_mul(131).wrapping_add(b as u64))
        };
        self.seen.insert((src.0, seq))
    }

    /// The NICE forwarding rule: forward to every cluster-mate at every
    /// layer except where the packet came from; per-packet dedup makes
    /// over-forwarding under stale views harmless.
    fn forward_data(
        &mut self,
        ctx: &mut Ctx,
        src: MacedonKey,
        payload: &Bytes,
        from: NodeId,
        from_layer: Option<usize>,
    ) {
        let _ = from_layer;
        let mut sent: Vec<NodeId> = vec![from, ctx.me];
        for c in self.clusters.clone() {
            for &m in &c.members {
                if sent.contains(&m) {
                    continue;
                }
                sent.push(m);
                let mut w = proto_header(proto::NICE, MSG_DATA);
                w.key(src).u32(0);
                w.bytes(payload);
                self.send(ctx, m, DATA_CH, w);
            }
        }
    }

    /// The (lowest) layer at which `peer` shares a cluster with me.
    fn layer_of(&self, peer: NodeId) -> Option<usize> {
        self.clusters.iter().position(|c| c.members.contains(&peer))
    }
}

impl Agent for Nice {
    fn protocol_id(&self) -> ProtocolId {
        proto::NICE
    }

    fn name(&self) -> &'static str {
        "nice"
    }

    fn init(&mut self, ctx: &mut Ctx) {
        ctx.timer_periodic(TIMER_HB, HEARTBEAT_PERIOD);
        ctx.timer_periodic(TIMER_PING, PING_PERIOD);
        ctx.timer_periodic(TIMER_MAINTAIN, MAINTAIN_PERIOD);
        self.start_join(ctx);
    }

    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        match call {
            DownCall::Multicast { payload, .. } => {
                let src = ctx.my_key;
                self.mark_seen(src, &payload);
                self.forward_data(ctx, src, &payload, ctx.me, None);
            }
            // NICE joins from `init` and re-joins by itself on leader
            // loss; an application `Join` must not restart a join that
            // is still descending the hierarchy.
            DownCall::Join { .. } => {}
            other => {
                ctx.trace(TraceLevel::Low, format!("nice: unsupported {other:?}"));
            }
        }
    }

    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {
        let mut r = WireReader::new(msg);
        let (Ok(_p), Ok(ty)) = (r.u16(), r.u16()) else {
            return;
        };
        match ty {
            MSG_QUERY => {
                let Ok(level) = r.u32() else { return };
                // Answer with my cluster at min(level, my top layer).
                let layer = (level as usize).min(self.top_layer());
                let Some(c) = self.clusters.get(layer) else {
                    return;
                };
                let mut w = proto_header(proto::NICE, MSG_QUERY_RESP);
                w.u32(layer as u32).node(c.leader).nodes(&c.members);
                self.send(ctx, from, CONTROL_CH, w);
            }
            MSG_QUERY_RESP => {
                let (Ok(layer), Ok(leader), Ok(members)) = (r.u32(), r.node(), r.nodes()) else {
                    return;
                };
                if self.joined {
                    return;
                }
                // Ping candidates; remember which layer we're descending.
                self.awaiting_level = Some(layer);
                self.probing_candidates = members.clone();
                let _ = leader;
                for &m in &members {
                    let mut w = proto_header(proto::NICE, MSG_PING);
                    w.u64(ctx.now.as_micros());
                    self.send(ctx, m, CONTROL_CH, w);
                }
                // Give pings a moment, then descend (reuse join retry).
                ctx.timer_set(TIMER_JOIN_RETRY, Duration::from_millis(500));
            }
            MSG_JOIN_REQ => {
                let (Ok(layer), Ok(who)) = (r.u32(), r.node()) else {
                    return;
                };
                let layer = layer as usize;
                if !self.i_lead(layer, ctx.me) {
                    // Redirect to the real leader if known.
                    if let Some(c) = self.clusters.get(layer) {
                        let mut w = proto_header(proto::NICE, MSG_JOIN_REQ);
                        w.u32(layer as u32).node(who);
                        let leader = c.leader;
                        self.send(ctx, leader, CONTROL_CH, w);
                    }
                    return;
                }
                if !self.clusters[layer].members.contains(&who) {
                    self.clusters[layer].members.push(who);
                    ctx.monitor(who);
                }
                self.broadcast_update(ctx, layer);
            }
            MSG_CLUSTER_UPDATE => {
                let (Ok(layer), Ok(leader), Ok(members)) = (r.u32(), r.node(), r.nodes()) else {
                    return;
                };
                self.install_cluster(ctx, layer as usize, leader, members);
            }
            MSG_PING => {
                let Ok(ts) = r.u64() else { return };
                let mut w = proto_header(proto::NICE, MSG_PONG);
                w.u64(ts);
                self.send(ctx, from, CONTROL_CH, w);
            }
            MSG_PONG => {
                let Ok(ts) = r.u64() else { return };
                let rtt = ctx.now.as_micros().saturating_sub(ts);
                self.rtt.insert(from, rtt);
            }
            MSG_MEMBER_HB => {
                let Ok(count) = r.u16() else { return };
                let mut map = HashMap::new();
                for _ in 0..count {
                    let (Ok(n), Ok(v)) = (r.node(), r.u64()) else {
                        return;
                    };
                    map.insert(n, v);
                }
                self.reports.insert(from, map);
            }
            MSG_LEADER_TRANSFER => {
                let (Ok(layer), Ok(members)) = (r.u32(), r.nodes()) else {
                    return;
                };
                let layer = layer as usize;
                let me = ctx.me;
                while self.clusters.len() <= layer {
                    self.clusters.push(Cluster::default());
                }
                self.clusters[layer] = Cluster {
                    members,
                    leader: me,
                };
                self.joined = true;
                self.broadcast_update(ctx, layer);
            }
            MSG_LEAVE_LAYER => {
                let (Ok(layer), Ok(who)) = (r.u32(), r.node()) else {
                    return;
                };
                let layer = layer as usize;
                if self.i_lead(layer, ctx.me) {
                    self.clusters[layer].members.retain(|&m| m != who);
                    self.broadcast_update(ctx, layer);
                }
            }
            MSG_DATA => {
                let (Ok(src), Ok(_hint)) = (r.key(), r.u32()) else {
                    return;
                };
                let Ok(payload) = r.bytes() else { return };
                if !self.mark_seen(src, &payload) {
                    return; // duplicate
                }
                self.forward_data(ctx, src, &payload, from, self.layer_of(from));
                ctx.up(UpCall::Deliver { src, from, payload });
            }
            _ => {}
        }
    }

    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_JOIN_RETRY => {
                if self.joined {
                    return;
                }
                // Descend: pick the closest responding candidate.
                let cands = std::mem::take(&mut self.probing_candidates);
                let level = self.awaiting_level.take();
                match (cands.is_empty(), level) {
                    (false, Some(0)) => {
                        // Join the L0 cluster via its closest member.
                        let best = cands
                            .iter()
                            .copied()
                            .min_by_key(|&c| self.rtt_of(c))
                            .expect("non-empty");
                        let mut w = proto_header(proto::NICE, MSG_JOIN_REQ);
                        w.u32(0).node(ctx.me);
                        self.send(ctx, best, CONTROL_CH, w);
                        ctx.timer_set(TIMER_JOIN_RETRY, Duration::from_secs(8));
                    }
                    (false, Some(level)) => {
                        let best = cands
                            .iter()
                            .copied()
                            .min_by_key(|&c| self.rtt_of(c))
                            .expect("non-empty");
                        let mut w = proto_header(proto::NICE, MSG_QUERY);
                        w.u32(level.saturating_sub(1));
                        self.send(ctx, best, CONTROL_CH, w);
                        ctx.timer_set(TIMER_JOIN_RETRY, Duration::from_secs(8));
                    }
                    _ => self.start_join(ctx),
                }
            }
            TIMER_PING => {
                ctx.locking_read();
                let mut peers: Vec<NodeId> = Vec::new();
                for c in &self.clusters {
                    for &m in &c.members {
                        if m != ctx.me && !peers.contains(&m) {
                            peers.push(m);
                        }
                    }
                }
                for m in peers {
                    let mut w = proto_header(proto::NICE, MSG_PING);
                    w.u64(ctx.now.as_micros());
                    self.send(ctx, m, CONTROL_CH, w);
                }
            }
            TIMER_HB => {
                // Members report RTTs to their layer-0 leader; leaders
                // rebroadcast membership.
                if let Some(c0) = self.clusters.first() {
                    let leader = c0.leader;
                    if leader != ctx.me {
                        let entries: Vec<(NodeId, u64)> = c0
                            .members
                            .iter()
                            .filter(|&&m| m != ctx.me)
                            .map(|&m| (m, self.rtt_of(m)))
                            .collect();
                        let mut w = proto_header(proto::NICE, MSG_MEMBER_HB);
                        w.u16(entries.len() as u16);
                        for (n, v) in entries {
                            w.node(n).u64(v);
                        }
                        self.send(ctx, leader, CONTROL_CH, w);
                    }
                }
                // Leaders push updates for the layers they lead.
                for layer in 0..self.clusters.len() {
                    if self.i_lead(layer, ctx.me) {
                        self.broadcast_update(ctx, layer);
                    }
                }
            }
            TIMER_MAINTAIN => {
                for layer in 0..self.clusters.len() {
                    self.maintain_layer(ctx, layer);
                }
            }
            _ => {}
        }
    }

    fn neighbor_failed(&mut self, ctx: &mut Ctx, peer: NodeId) {
        let mut rejoin = false;
        for layer in 0..self.clusters.len() {
            let c = &mut self.clusters[layer];
            c.members.retain(|&m| m != peer);
            if c.leader == peer {
                // Leader died: the remaining members elect the center
                // locally; lowest-id member triggers to avoid duels.
                if c.members.first() == Some(&ctx.me) {
                    c.leader = ctx.me;
                    if layer == 0 {
                        self.broadcast_update(ctx, 0);
                    }
                } else {
                    rejoin = layer == 0 && c.members.len() <= 1;
                }
            }
        }
        self.rtt.remove(&peer);
        self.reports.remove(&peer);
        if rejoin && self.rendezvous.is_some() {
            self.joined = false;
            self.clusters.clear();
            self.start_join(ctx);
        }
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
    use macedon_core::app::SharedDeliveries;
    use macedon_core::{Time, World, WorldConfig};
    use macedon_net::topology::{canned, LinkSpec};

    fn nice_world(
        sites: usize,
        per_site: usize,
        seed: u64,
    ) -> (World, Vec<NodeId>, SharedDeliveries) {
        let lat: Vec<Vec<u64>> = (0..sites)
            .map(|i| {
                (0..sites)
                    .map(|j| {
                        if i == j {
                            0
                        } else {
                            20 + 10 * ((i + j) as u64 % 4)
                        }
                    })
                    .collect()
            })
            .collect();
        let topo = canned::sites(&lat, per_site, LinkSpec::lan());
        let mut w = World::new(topo, WorldConfig::seeded(seed));
        let (hosts, sink) = w.spawn_each(Duration::from_millis(300), |rendezvous| {
            vec![Box::new(Nice::new(rendezvous))]
        });
        (w, hosts, sink)
    }

    fn nice_of(w: &World, n: NodeId) -> &Nice {
        w.stack(n)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap()
    }

    #[test]
    fn everyone_joins_some_cluster() {
        let (mut w, hosts, _s) = nice_world(3, 4, 1);
        w.run_until(Time::from_secs(120));
        for &h in &hosts {
            let n = nice_of(&w, h);
            assert!(n.is_joined(), "{h:?} joined");
            assert!(!n.cluster_members(0).is_empty(), "{h:?} has an L0 cluster");
        }
    }

    #[test]
    fn cluster_sizes_respect_bounds_eventually() {
        let (mut w, hosts, _s) = nice_world(3, 5, 3);
        w.run_until(Time::from_secs(240));
        for &h in &hosts {
            let n = nice_of(&w, h);
            let size = n.cluster_members(0).len();
            assert!(
                size <= 3 * K + 2,
                "{h:?} cluster size {size} way out of bounds"
            );
        }
        // At least one split must have happened with 15 members and k=3.
        let total_splits: u32 = hosts.iter().map(|&h| nice_of(&w, h).splits).sum();
        assert!(total_splits >= 1, "hierarchy formed via splits");
    }

    /// `nice_world(sites, per_site, 5)` to 200 s, with one multicast
    /// from the RP at 180 s and, when `joins` is set, a `DownCall::Join`
    /// to every member 1 s after its spawn (what the scenario runner
    /// issues whenever a script streams multicast).
    fn multicast_run(
        sites: usize,
        per_site: usize,
        joins: bool,
    ) -> (World, Vec<NodeId>, SharedDeliveries) {
        let (mut w, hosts, sink) = nice_world(sites, per_site, 5);
        let group = MacedonKey(0);
        for (i, &h) in hosts.iter().enumerate().filter(|_| joins) {
            w.api_at(
                Time::from_millis(300 * i as u64 + 1_000),
                h,
                DownCall::Join { group },
            );
        }
        let mut payload = vec![0u8; 64];
        payload[..8].copy_from_slice(&5u64.to_be_bytes());
        let (payload, priority) = (Bytes::from(payload), -1);
        let call = DownCall::Multicast {
            group,
            payload,
            priority,
        };
        w.api_at(Time::from_secs(180), hosts[0], call);
        w.run_until(Time::from_secs(200));
        (w, hosts, sink)
    }

    #[test]
    fn multicast_reaches_most_members() {
        let (_w, hosts, sink) = multicast_run(3, 4, false);
        let log = sink.lock();
        let got: std::collections::HashSet<NodeId> = log
            .iter()
            .filter(|r| r.seqno == Some(5))
            .map(|r| r.node)
            .collect();
        // NICE under churnless convergence should reach everyone; allow
        // one straggler for mid-maintenance windows.
        assert!(
            got.len() + 1 >= hosts.len() - 1,
            "delivered to {}/{} members",
            got.len(),
            hosts.len() - 1
        );
    }

    #[test]
    fn join_downcall_leaves_the_run_unchanged() {
        // 25 members: some are still descending the hierarchy 1 s in.
        let run = |joins| {
            let (w, hosts, sink) = multicast_run(5, 5, joins);
            let clusters: Vec<_> = hosts.iter().map(|&h| &nice_of(&w, h).clusters).collect();
            (format!("{:?}", sink.lock()), format!("{clusters:?}"))
        };
        let (log, clusters) = run(false);
        assert!(log.contains("seqno: Some(5)"), "the multicast arrived");
        assert_eq!(run(true), (log, clusters));
    }

    #[test]
    fn partition_separates_far_groups() {
        let mut n = Nice::new(None);
        // Two latency islands: {1,2,3} and {4,5,6}.
        for a in 1..=3u32 {
            for b in 1..=3u32 {
                n.reports
                    .entry(NodeId(a))
                    .or_default()
                    .insert(NodeId(b), 1_000);
            }
        }
        for a in 4..=6u32 {
            for b in 4..=6u32 {
                n.reports
                    .entry(NodeId(a))
                    .or_default()
                    .insert(NodeId(b), 1_000);
            }
        }
        for a in 1..=3u32 {
            for b in 4..=6u32 {
                n.reports
                    .entry(NodeId(a))
                    .or_default()
                    .insert(NodeId(b), 80_000);
                n.reports
                    .entry(NodeId(b))
                    .or_default()
                    .insert(NodeId(a), 80_000);
            }
        }
        let members: Vec<NodeId> = (1..=6).map(NodeId).collect();
        let (x, y) = n.partition(&members);
        let xs: std::collections::HashSet<u32> = x.iter().map(|n| n.0).collect();
        let ys: std::collections::HashSet<u32> = y.iter().map(|n| n.0).collect();
        assert!(
            (xs == [1, 2, 3].into() && ys == [4, 5, 6].into())
                || (xs == [4, 5, 6].into() && ys == [1, 2, 3].into()),
            "partition split islands: {xs:?} {ys:?}"
        );
    }

    #[test]
    fn center_minimizes_max_distance() {
        let mut n = Nice::new(None);
        // 2 is the middle of a line 1-2-3.
        let d = |a: u32, b: u32, v: u64, n: &mut Nice| {
            n.reports.entry(NodeId(a)).or_default().insert(NodeId(b), v);
            n.reports.entry(NodeId(b)).or_default().insert(NodeId(a), v);
        };
        d(1, 2, 10, &mut n);
        d(2, 3, 10, &mut n);
        d(1, 3, 20, &mut n);
        assert_eq!(n.center_of(&[NodeId(1), NodeId(2), NodeId(3)]), NodeId(2));
    }
}
