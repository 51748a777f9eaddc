//! Bullet (Kostić et al., SOSP'03) as a layered MACEDON agent.
//!
//! "Bullet creates a mesh where nodes exchange summary tickets that are
//! used to select data peers. Nodes with disjoint data peer with one
//! another" (§5). In this reproduction Bullet sits above the interpreted
//! `randtree.mac` (its baseline distribution tree, as in Figure 2): the
//! tree delivers whatever bandwidth it can, while Bullet recovers the
//! remainder through the mesh — each epoch a node gossips a *summary
//! ticket* (the packet ids it holds plus a sample of nodes it knows) to a
//! few random peers; peers with disjoint data request what they miss,
//! directly over IP.
//!
//! The headline behaviour to reproduce: Bullet's delivered bandwidth
//! exceeds a pure tree under constrained/lossy conditions (the paper's
//! §4.2 notes Bullet's published results were themselves produced with
//! MACEDON).

use crate::common::{peek_proto, proto};
use macedon_core::{
    Agent, Bytes, Ctx, DownCall, Duration, MacedonKey, NodeId, ProtocolId, TraceLevel, UpCall,
    WireReader, WireWriter, DEFAULT_PRIORITY,
};
use std::any::Any;
use std::collections::{HashMap, HashSet};

const MSG_TICKET: u16 = 1;
const MSG_REQUEST: u16 = 2;
const MSG_RECOVER: u16 = 3;

const TIMER_EPOCH: u16 = 1;

/// Configuration of one Bullet instance.
#[derive(Clone, Debug)]
pub struct BulletConfig {
    /// Gossip epoch length (RanSub rounds in the original).
    pub epoch: Duration,
    /// Summary tickets sent per epoch.
    pub peers_per_epoch: usize,
    /// Known-population sample size carried in each ticket.
    pub gossip_sample: usize,
    /// Cap on packets buffered for recovery service.
    pub store_cap: usize,
}

impl Default for BulletConfig {
    fn default() -> Self {
        BulletConfig {
            epoch: Duration::from_millis(500),
            peers_per_epoch: 2,
            gossip_sample: 8,
            store_cap: 4_096,
        }
    }
}

/// The Bullet agent (sits above RandTree).
pub struct Bullet {
    cfg: BulletConfig,
    /// Packet id → payload, for serving recovery requests.
    store: HashMap<u64, Bytes>,
    store_order: Vec<u64>,
    have: HashSet<u64>,
    /// Source key per packet (for re-delivery attribution).
    src_of: HashMap<u64, MacedonKey>,
    /// Nodes learned via tree Notify upcalls and gossip.
    known: Vec<NodeId>,
    /// Packets recovered via the mesh (vs received from the tree).
    pub recovered: u64,
    pub from_tree: u64,
}

impl Bullet {
    pub fn new(cfg: BulletConfig) -> Bullet {
        Bullet {
            cfg,
            store: HashMap::new(),
            store_order: Vec::new(),
            have: HashSet::new(),
            src_of: HashMap::new(),
            known: Vec::new(),
            recovered: 0,
            from_tree: 0,
        }
    }

    pub fn packets_held(&self) -> usize {
        self.have.len()
    }

    pub fn known_peers(&self) -> &[NodeId] {
        &self.known
    }

    fn learn(&mut self, me: NodeId, n: NodeId) {
        if n != me && !self.known.contains(&n) {
            self.known.push(n);
        }
    }

    fn stash(&mut self, id: u64, src: MacedonKey, payload: Bytes) -> bool {
        if !self.have.insert(id) {
            return false;
        }
        self.src_of.insert(id, src);
        self.store.insert(id, payload);
        self.store_order.push(id);
        while self.store.len() > self.cfg.store_cap {
            let evict = self.store_order.remove(0);
            self.store.remove(&evict);
            // `have` keeps the id: we saw it, we just can't serve it.
        }
        true
    }

    /// Packet id = leading 8 payload bytes (the workloads stamp seqnos).
    fn packet_id(payload: &Bytes) -> Option<u64> {
        if payload.len() < 8 {
            return None;
        }
        Some(u64::from_be_bytes(
            payload[..8].try_into().expect("len checked"),
        ))
    }

    fn send_direct(&self, ctx: &mut Ctx, to: NodeId, w: WireWriter) {
        ctx.down(DownCall::RouteIp {
            dest: to,
            payload: w.finish(),
            priority: DEFAULT_PRIORITY,
        });
    }

    fn ticket(&self, ctx: &mut Ctx) -> WireWriter {
        let mut w = WireWriter::new();
        w.u16(proto::BULLET).u16(MSG_TICKET);
        // Compact have-summary: the most recent ids (recency window).
        let recent: Vec<u64> = self.store_order.iter().rev().take(256).copied().collect();
        w.u16(recent.len() as u16);
        for id in &recent {
            w.u64(*id);
        }
        // Gossip a sample of known nodes (RanSub's random subsets).
        let mut sample = self.known.clone();
        ctx.rng.shuffle(&mut sample);
        sample.truncate(self.cfg.gossip_sample);
        w.nodes(&sample);
        w
    }
}

impl Agent for Bullet {
    fn protocol_id(&self) -> ProtocolId {
        proto::BULLET
    }

    fn name(&self) -> &'static str {
        "bullet"
    }

    fn init(&mut self, ctx: &mut Ctx) {
        ctx.timer_periodic(TIMER_EPOCH, self.cfg.epoch);
    }

    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        match call {
            DownCall::Multicast {
                group,
                payload,
                priority,
            } => {
                // Source: remember own packets for recovery service.
                if let Some(id) = Self::packet_id(&payload) {
                    self.stash(id, ctx.my_key, payload.clone());
                }
                ctx.down(DownCall::Multicast {
                    group,
                    payload,
                    priority,
                });
            }
            other => ctx.down(other),
        }
    }

    fn upcall(&mut self, ctx: &mut Ctx, up: UpCall) {
        match up {
            UpCall::Deliver { src, from, payload } => {
                if peek_proto(&payload) == Some(proto::BULLET) {
                    self.handle_msg(ctx, from, payload);
                    return;
                }
                // Tree data: record and pass to the app.
                self.learn(ctx.me, from);
                if let Some(id) = Self::packet_id(&payload) {
                    if self.stash(id, src, payload.clone()) {
                        self.from_tree += 1;
                        ctx.up(UpCall::Deliver { src, from, payload });
                    }
                    // Duplicate: suppress.
                } else {
                    ctx.up(UpCall::Deliver { src, from, payload });
                }
            }
            UpCall::Notify {
                nbr_type,
                neighbors,
            } => {
                for &n in &neighbors {
                    self.learn(ctx.me, n);
                }
                ctx.up(UpCall::Notify {
                    nbr_type,
                    neighbors,
                });
            }
            other => ctx.up(other),
        }
    }

    fn recv(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Bytes) {
        debug_assert!(false, "bullet is never the lowest layer");
    }

    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
        if timer != TIMER_EPOCH || self.known.is_empty() {
            return;
        }
        // Send summary tickets to a few random peers.
        let mut peers = self.known.clone();
        ctx.rng.shuffle(&mut peers);
        peers.truncate(self.cfg.peers_per_epoch);
        for p in peers {
            let w = self.ticket(ctx);
            self.send_direct(ctx, p, w);
        }
    }

    fn neighbor_failed(&mut self, _ctx: &mut Ctx, peer: NodeId) {
        self.known.retain(|&n| n != peer);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Bullet {
    fn handle_msg(&mut self, ctx: &mut Ctx, from: NodeId, payload: Bytes) {
        let mut r = WireReader::new(payload);
        let (Ok(_p), Ok(ty)) = (r.u16(), r.u16()) else {
            return;
        };
        self.learn(ctx.me, from);
        match ty {
            MSG_TICKET => {
                let Ok(count) = r.u16() else { return };
                let mut theirs = HashSet::with_capacity(count as usize);
                for _ in 0..count {
                    let Ok(id) = r.u64() else { return };
                    theirs.insert(id);
                }
                if let Ok(sample) = r.nodes() {
                    for n in sample {
                        self.learn(ctx.me, n);
                    }
                }
                // Disjoint data: ask for what they have and we miss.
                let missing: Vec<u64> = theirs
                    .iter()
                    .copied()
                    .filter(|id| !self.have.contains(id))
                    .take(64)
                    .collect();
                if !missing.is_empty() {
                    let mut w = WireWriter::new();
                    w.u16(proto::BULLET).u16(MSG_REQUEST);
                    w.u16(missing.len() as u16);
                    for id in &missing {
                        w.u64(*id);
                    }
                    self.send_direct(ctx, from, w);
                }
            }
            MSG_REQUEST => {
                let Ok(count) = r.u16() else { return };
                for _ in 0..count {
                    let Ok(id) = r.u64() else { return };
                    if let Some(data) = self.store.get(&id) {
                        let src = self.src_of.get(&id).copied().unwrap_or(MacedonKey(0));
                        let mut w = WireWriter::new();
                        w.u16(proto::BULLET).u16(MSG_RECOVER).u64(id).key(src);
                        w.bytes(data);
                        self.send_direct(ctx, from, w);
                    }
                }
            }
            MSG_RECOVER => {
                let (Ok(id), Ok(src)) = (r.u64(), r.key()) else {
                    return;
                };
                let Ok(data) = r.bytes() else { return };
                if self.stash(id, src, data.clone()) {
                    self.recovered += 1;
                    ctx.trace(TraceLevel::High, format!("bullet: recovered packet {id}"));
                    ctx.up(UpCall::Deliver {
                        src,
                        from,
                        payload: data,
                    });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_id_parses_seqno() {
        let mut p = vec![0u8; 16];
        p[..8].copy_from_slice(&77u64.to_be_bytes());
        assert_eq!(Bullet::packet_id(&Bytes::from(p)), Some(77));
        assert_eq!(Bullet::packet_id(&Bytes::from_static(b"abc")), None);
    }

    #[test]
    fn stash_dedups() {
        let mut b = Bullet::new(BulletConfig::default());
        assert!(b.stash(1, MacedonKey(0), Bytes::from_static(b"x")));
        assert!(!b.stash(1, MacedonKey(0), Bytes::from_static(b"x")));
        assert_eq!(b.packets_held(), 1);
    }

    #[test]
    fn store_cap_evicts_but_remembers() {
        let mut b = Bullet::new(BulletConfig {
            store_cap: 2,
            ..Default::default()
        });
        b.stash(1, MacedonKey(0), Bytes::from_static(b"a"));
        b.stash(2, MacedonKey(0), Bytes::from_static(b"b"));
        b.stash(3, MacedonKey(0), Bytes::from_static(b"c"));
        assert_eq!(b.store.len(), 2);
        assert!(b.have.contains(&1), "seen-set keeps evicted ids");
        assert!(!b.store.contains_key(&1));
    }

    #[test]
    fn learn_ignores_self_and_duplicates() {
        let mut b = Bullet::new(BulletConfig::default());
        let me = NodeId(1);
        b.learn(me, me);
        b.learn(me, NodeId(2));
        b.learn(me, NodeId(2));
        assert_eq!(b.known_peers(), &[NodeId(2)]);
    }
}
