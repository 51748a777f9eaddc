//! Pastry (Rowstron & Druschel, Middleware'01) as a MACEDON agent.
//!
//! Prefix routing on the 32-bit key space with `b = 4` (8 hex digits):
//! a routing table of 8 rows × 16 columns plus a leaf set of the
//! numerically closest nodes on each side. Validated in the paper against
//! FreePastry (Fig 11: average packet latency vs node count).
//!
//! The **location cache** (Fig 12) is here too: upper layers (Scribe /
//! SplitStream) send data "directly over IP" via the
//! [`EXT_ROUTE_DIRECT`] extension downcall; Pastry resolves key → IP
//! through a cache whose entries carry a configurable lifetime. A miss
//! falls back to overlay routing and re-establishes the mapping — the
//! bandwidth cost the paper measures when cache eviction is enabled.

use crate::common::proto;
use macedon_core::{
    proto_header, Agent, Bytes, ChannelId, Ctx, DownCall, Duration, ForwardInfo, MacedonKey,
    NodeId, ProtocolId, Time, TraceLevel, UpCall, WireReader,
};
use std::any::Any;
use std::collections::HashMap;

const MSG_JOIN: u16 = 1;
const MSG_STATE: u16 = 2;
const MSG_ANNOUNCE: u16 = 3;
const MSG_DATA: u16 = 4;
const MSG_DATA_IP: u16 = 5;
const MSG_LEAFSET: u16 = 6;
const MSG_LOCATION: u16 = 7;

const TIMER_LEAF_EXCHANGE: u16 = 1;
const TIMER_RETRY_JOIN: u16 = 2;

/// Bits per routing digit (`b`); 4 → hexadecimal digits.
pub const DIGIT_BITS: u32 = 4;
/// Rows in the routing table (32 / b).
pub const ROWS: usize = 8;
/// Columns per row (2^b).
pub const COLS: usize = 16;

/// `downcall_ext` opcode: route to a key, preferring a cached direct IP
/// path (the paper's `macedon_routeIP` usage by Scribe/SplitStream).
pub const EXT_ROUTE_DIRECT: u32 = 1;

/// Leaf-set half-size (this many on each side).
const LEAF_HALF: usize = 4;
/// Period of leaf-set gossip.
const LEAF_EXCHANGE_PERIOD: Duration = Duration::from_secs(1);
const CONTROL_CH: ChannelId = ChannelId(1);
const DATA_CH: ChannelId = ChannelId(2);

/// Configuration of one Pastry instance.
#[derive(Clone, Debug, Default)]
pub struct PastryConfig {
    pub bootstrap: Option<NodeId>,
    /// Location-cache entry lifetime; `None` disables eviction
    /// (Fig 12's two flavors).
    pub cache_lifetime: Option<Duration>,
}

/// The Pastry agent.
pub struct Pastry {
    cfg: PastryConfig,
    rtable: Vec<[Option<(NodeId, MacedonKey)>; COLS]>,
    /// Clockwise leaf set (sorted by clockwise distance from me).
    leaf_cw: Vec<(NodeId, MacedonKey)>,
    /// Counter-clockwise leaf set.
    leaf_ccw: Vec<(NodeId, MacedonKey)>,
    location_cache: HashMap<MacedonKey, (NodeId, Time)>,
    /// Crashed peers; gossip about them is ignored (fail-stop world).
    dead: std::collections::HashSet<NodeId>,
    joined: bool,
    pending: Vec<(MacedonKey, Bytes, bool)>,
    /// Packets this node forwarded (hop counting in experiments).
    pub forwarded: u64,
    /// Location-cache statistics for the Fig 12 analysis.
    pub cache_hits: u64,
    pub cache_misses: u64,
    next_wants_location: bool,
    /// Origin NodeId carried from `route_data_full` into
    /// `forward_resolved` (rides the wire so the owner can answer the
    /// location query).
    origin_carry: NodeId,
}

impl Pastry {
    pub fn new(cfg: PastryConfig) -> Pastry {
        Pastry {
            cfg,
            rtable: vec![[None; COLS]; ROWS],
            leaf_cw: Vec::new(),
            leaf_ccw: Vec::new(),
            location_cache: HashMap::new(),
            dead: std::collections::HashSet::new(),
            joined: false,
            pending: Vec::new(),
            forwarded: 0,
            cache_hits: 0,
            cache_misses: 0,
            next_wants_location: false,
            origin_carry: NodeId(0),
        }
    }

    pub fn is_joined(&self) -> bool {
        self.joined
    }

    pub fn leaf_set(&self) -> Vec<(NodeId, MacedonKey)> {
        let mut v = self.leaf_cw.clone();
        v.extend(self.leaf_ccw.iter().copied());
        v
    }

    /// Everyone this node knows about.
    fn known(&self) -> Vec<(NodeId, MacedonKey)> {
        let mut v = self.leaf_set();
        for row in &self.rtable {
            for e in row.iter().flatten() {
                if !v.iter().any(|(n, _)| *n == e.0) {
                    v.push(*e);
                }
            }
        }
        v
    }

    /// Integrate knowledge of a node into leaf sets and routing table.
    fn add_node(&mut self, ctx: &mut Ctx, node: NodeId, key: MacedonKey) {
        if node == ctx.me || self.dead.contains(&node) {
            return;
        }
        let me = ctx.my_key;
        // Leaf sets: keep the closest `LEAF_HALF` on each side.
        let insert = |list: &mut Vec<(NodeId, MacedonKey)>,
                      dist: fn(MacedonKey, MacedonKey) -> u64,
                      me: MacedonKey,
                      half: usize| {
            if list.iter().any(|&(n, _)| n == node) {
                return false;
            }
            list.push((node, key));
            list.sort_by_key(|&(_, k)| dist(me, k));
            list.dedup_by_key(|&mut (n, _)| n);
            let grew = list.iter().take(half).any(|&(n, _)| n == node);
            list.truncate(half);
            grew
        };
        let cw_new = insert(&mut self.leaf_cw, |me, k| me.distance_to(k), me, LEAF_HALF);
        let ccw_new = insert(&mut self.leaf_ccw, |me, k| k.distance_to(me), me, LEAF_HALF);
        if cw_new || ccw_new {
            ctx.monitor(node);
        }
        // Routing table: first writer wins per slot (no proximity
        // re-selection; see the README's "Figures" section).
        let row = me.shared_prefix_len(key, DIGIT_BITS) as usize;
        if row < ROWS {
            let col = key.digit(row as u32, DIGIT_BITS) as usize;
            if self.rtable[row][col].is_none() {
                self.rtable[row][col] = Some((node, key));
            }
        }
    }

    fn remove_node(&mut self, peer: NodeId) {
        self.leaf_cw.retain(|&(n, _)| n != peer);
        self.leaf_ccw.retain(|&(n, _)| n != peer);
        for row in self.rtable.iter_mut() {
            for slot in row.iter_mut() {
                if matches!(slot, Some((n, _)) if *n == peer) {
                    *slot = None;
                }
            }
        }
        self.location_cache.retain(|_, &mut (n, _)| n != peer);
    }

    /// Is `dest` within the span of my leaf set (so the numerically
    /// closest leaf is the true owner)?
    fn in_leaf_range(&self, dest: MacedonKey) -> bool {
        let (Some(&(_, cw_far)), Some(&(_, ccw_far))) = (self.leaf_cw.last(), self.leaf_ccw.last())
        else {
            // No leaves at all: we are (as far as we know) alone.
            return true;
        };
        ccw_far.distance_to(dest) <= ccw_far.distance_to(cw_far)
    }

    /// Pastry's routing decision (Rowstron & Druschel §2.3): `None` means
    /// deliver here.
    ///
    /// 1. If `dest` falls inside the leaf-set span, route to the
    ///    numerically closest of {me} ∪ leaf set — final.
    /// 2. Otherwise use the routing-table entry sharing one more digit.
    /// 3. Rare case: any known node whose shared prefix is no shorter
    ///    than ours *and* which is numerically closer. The lexicographic
    ///    (prefix, numeric-distance) progress guarantees termination.
    fn next_hop(&self, me: MacedonKey, dest: MacedonKey) -> Option<(NodeId, MacedonKey)> {
        if dest == me {
            return None;
        }
        let closeness = |k: MacedonKey| (k.ring_distance(dest), k.0);
        if self.in_leaf_range(dest) {
            let mut best = (closeness(me), None::<(NodeId, MacedonKey)>);
            for &(n, k) in self.leaf_cw.iter().chain(&self.leaf_ccw) {
                let c = closeness(k);
                if c < best.0 {
                    best = (c, Some((n, k)));
                }
            }
            return best.1;
        }
        let row = me.shared_prefix_len(dest, DIGIT_BITS) as usize;
        if row < ROWS {
            let col = dest.digit(row as u32, DIGIT_BITS) as usize;
            if let Some(e) = self.rtable[row][col] {
                return Some(e); // shares row+1 digits: strict progress
            }
        }
        let mut best = (closeness(me), None::<(NodeId, MacedonKey)>);
        for e in self.known() {
            if (e.1.shared_prefix_len(dest, DIGIT_BITS) as usize) < row {
                continue;
            }
            let c = closeness(e.1);
            if c < best.0 {
                best = (c, Some(e));
            }
        }
        best.1
    }

    fn route_data(
        &mut self,
        ctx: &mut Ctx,
        src: MacedonKey,
        dest: MacedonKey,
        prev_hop: NodeId,
        payload: Bytes,
        wants_location: bool,
    ) {
        let me = ctx.my_key;
        match self.next_hop(me, dest) {
            None => {
                // The wants_location owner case is intercepted by
                // route_data_full before reaching here.
                debug_assert!(!wants_location);
                ctx.up(UpCall::Deliver {
                    src,
                    from: prev_hop,
                    payload,
                });
            }
            Some((n, _)) => {
                self.forwarded += 1;
                ctx.forward_query(ForwardInfo {
                    src,
                    dest,
                    prev_hop,
                    next_hop: n,
                    payload,
                    quash: false,
                });
                self.next_wants_location = wants_location;
            }
        }
    }

    /// Data routing where the origin's IP rides along so the final owner
    /// can push a LOCATION reply (cache fill). The parameter list mirrors
    /// the DATA_FULL wire fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    fn route_data_full(
        &mut self,
        ctx: &mut Ctx,
        src: MacedonKey,
        origin: NodeId,
        dest: MacedonKey,
        prev_hop: NodeId,
        payload: Bytes,
        wants_location: bool,
    ) {
        let me = ctx.my_key;
        if wants_location && self.next_hop(me, dest).is_none() {
            let mut w = proto_header(proto::PASTRY, MSG_LOCATION);
            w.key(dest).key(me);
            ctx.send(origin, CONTROL_CH, w.finish());
            ctx.up(UpCall::Deliver {
                src,
                from: prev_hop,
                payload,
            });
            return;
        }
        // Stash origin by tunneling it in the wire format (see recv).
        self.origin_carry = origin;
        self.route_data(ctx, src, dest, prev_hop, payload, wants_location);
    }

    fn cache_lookup(&mut self, key: MacedonKey, now: Time) -> Option<NodeId> {
        match self.location_cache.get(&key) {
            Some(&(node, inserted)) => match self.cfg.cache_lifetime {
                Some(ttl) if now.saturating_since(inserted) > ttl => {
                    self.location_cache.remove(&key);
                    None
                }
                _ => Some(node),
            },
            None => None,
        }
    }
}

// Carried between route_data_full and forward_resolved.
impl Pastry {
    fn announce(&mut self, ctx: &mut Ctx) {
        let me_key = ctx.my_key;
        for (n, _) in self.known() {
            let mut w = proto_header(proto::PASTRY, MSG_ANNOUNCE);
            w.key(me_key);
            ctx.send(n, CONTROL_CH, w.finish());
        }
    }

    fn start_join(&mut self, ctx: &mut Ctx) {
        if let Some(b) = self.cfg.bootstrap.filter(|&b| b != ctx.me) {
            let mut w = proto_header(proto::PASTRY, MSG_JOIN);
            w.node(ctx.me).key(ctx.my_key);
            ctx.send(b, CONTROL_CH, w.finish());
            ctx.timer_set(TIMER_RETRY_JOIN, Duration::from_secs(5));
        } else {
            self.joined = true;
        }
    }

    fn flush_pending(&mut self, ctx: &mut Ctx) {
        for (dest, payload, direct) in std::mem::take(&mut self.pending) {
            if direct {
                self.handle_route_direct(ctx, dest, payload);
            } else {
                let me = ctx.me;
                let key = ctx.my_key;
                self.route_data_full(ctx, key, me, dest, me, payload, false);
            }
        }
    }

    fn handle_route_direct(&mut self, ctx: &mut Ctx, dest: MacedonKey, payload: Bytes) {
        let now = ctx.now;
        if let Some(ip) = self.cache_lookup(dest, now) {
            self.cache_hits += 1;
            let mut w = proto_header(proto::PASTRY, MSG_DATA_IP);
            w.key(ctx.my_key);
            w.bytes(&payload);
            ctx.send(ip, DATA_CH, w.finish());
        } else {
            self.cache_misses += 1;
            let me = ctx.me;
            let key = ctx.my_key;
            self.route_data_full(ctx, key, me, dest, me, payload, true);
        }
    }
}

impl Agent for Pastry {
    fn protocol_id(&self) -> ProtocolId {
        proto::PASTRY
    }

    fn name(&self) -> &'static str {
        "pastry"
    }

    fn init(&mut self, ctx: &mut Ctx) {
        ctx.timer_periodic(TIMER_LEAF_EXCHANGE, LEAF_EXCHANGE_PERIOD);
        self.start_join(ctx);
    }

    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        match call {
            DownCall::Route { dest, payload, .. } => {
                if self.joined {
                    let me = ctx.me;
                    let key = ctx.my_key;
                    self.route_data_full(ctx, key, me, dest, me, payload, false);
                } else {
                    self.pending.push((dest, payload, false));
                }
            }
            DownCall::RouteIp { dest, payload, .. } => {
                let mut w = proto_header(proto::PASTRY, MSG_DATA_IP);
                w.key(ctx.my_key);
                w.bytes(&payload);
                ctx.send(dest, DATA_CH, w.finish());
            }
            DownCall::Ext {
                op: EXT_ROUTE_DIRECT,
                payload,
            } => {
                let mut r = WireReader::new(payload);
                let (Ok(dest), Ok(inner)) = (r.key(), r.bytes()) else {
                    return;
                };
                if self.joined {
                    self.handle_route_direct(ctx, dest, inner);
                } else {
                    self.pending.push((dest, inner, true));
                }
            }
            other => {
                ctx.trace(
                    TraceLevel::Low,
                    format!("pastry: unsupported downcall {other:?} (use Scribe above)"),
                );
            }
        }
    }

    fn forward_resolved(&mut self, ctx: &mut Ctx, fwd: ForwardInfo) {
        if fwd.quash {
            return;
        }
        let mut w = proto_header(proto::PASTRY, MSG_DATA);
        w.key(fwd.src)
            .node(self.origin_carry)
            .key(fwd.dest)
            .u8(self.next_wants_location as u8);
        w.bytes(&fwd.payload);
        ctx.send(fwd.next_hop, DATA_CH, w.finish());
    }

    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {
        let mut r = WireReader::new(msg);
        let Ok(_proto) = r.u16() else { return };
        let Ok(ty) = r.u16() else { return };
        match ty {
            MSG_JOIN => {
                let (Ok(joiner), Ok(jkey)) = (r.node(), r.key()) else {
                    return;
                };
                if joiner == ctx.me {
                    return;
                }
                // Send the joiner our state; final owner marks the reply.
                let me = ctx.my_key;
                let next = self.next_hop(me, jkey);
                let is_final = next.is_none();
                let mut w = proto_header(proto::PASTRY, MSG_STATE);
                w.u8(is_final as u8).key(me);
                let entries = self.known();
                w.u16(entries.len() as u16);
                for (n, k) in &entries {
                    w.node(*n).key(*k);
                }
                ctx.send(joiner, CONTROL_CH, w.finish());
                // Learn the joiner ourselves and propagate the join.
                self.add_node(ctx, joiner, jkey);
                if let Some((n, _)) = next {
                    if n != joiner {
                        let mut jw = proto_header(proto::PASTRY, MSG_JOIN);
                        jw.node(joiner).key(jkey);
                        ctx.send(n, CONTROL_CH, jw.finish());
                    }
                }
            }
            MSG_STATE => {
                let (Ok(fin), Ok(fkey)) = (r.u8(), r.key()) else {
                    return;
                };
                let Ok(count) = r.u16() else { return };
                self.add_node(ctx, from, fkey);
                for _ in 0..count {
                    let (Ok(n), Ok(k)) = (r.node(), r.key()) else {
                        return;
                    };
                    self.add_node(ctx, n, k);
                }
                if fin == 1 && !self.joined {
                    self.joined = true;
                    self.announce(ctx);
                    self.flush_pending(ctx);
                    let neighbors: Vec<NodeId> = self.leaf_set().iter().map(|&(n, _)| n).collect();
                    ctx.up(UpCall::Notify {
                        nbr_type: macedon_core::api::NBR_TYPE_PEERS,
                        neighbors,
                    });
                }
            }
            MSG_ANNOUNCE => {
                let Ok(k) = r.key() else { return };
                self.add_node(ctx, from, k);
            }
            MSG_DATA => {
                let (Ok(src), Ok(origin), Ok(dest), Ok(wl)) = (r.key(), r.node(), r.key(), r.u8())
                else {
                    return;
                };
                let Ok(payload) = r.bytes() else { return };
                self.route_data_full(ctx, src, origin, dest, from, payload, wl == 1);
            }
            MSG_DATA_IP => {
                let Ok(src) = r.key() else { return };
                let Ok(payload) = r.bytes() else { return };
                ctx.up(UpCall::Deliver { src, from, payload });
            }
            MSG_LEAFSET => {
                let Ok(count) = r.u16() else { return };
                for _ in 0..count {
                    let (Ok(n), Ok(k)) = (r.node(), r.key()) else {
                        return;
                    };
                    self.add_node(ctx, n, k);
                }
            }
            MSG_LOCATION => {
                let (Ok(dest), Ok(_owner_key)) = (r.key(), r.key()) else {
                    return;
                };
                self.location_cache.insert(dest, (from, ctx.now));
            }
            _ => {}
        }
    }

    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
        match timer {
            TIMER_LEAF_EXCHANGE => {
                ctx.locking_read();
                let leafs = self.leaf_set();
                let me_key = ctx.my_key;
                for &(n, _) in &leafs {
                    let mut w = proto_header(proto::PASTRY, MSG_LEAFSET);
                    w.u16(leafs.len() as u16 + 1);
                    w.node(ctx.me).key(me_key);
                    for &(ln, lk) in &leafs {
                        w.node(ln).key(lk);
                    }
                    ctx.send(n, CONTROL_CH, w.finish());
                }
            }
            TIMER_RETRY_JOIN if !self.joined => {
                self.start_join(ctx);
            }
            _ => {}
        }
    }

    fn neighbor_failed(&mut self, _ctx: &mut Ctx, peer: NodeId) {
        self.dead.insert(peer);
        self.remove_node(peer);
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
    use macedon_core::{Time, WireWriter, World, WorldConfig};
    use macedon_net::topology::{canned, LinkSpec};

    /// `n` Pastry nodes on a star LAN, joining `stagger_ms` apart, whose
    /// location-cache entries live `cache_lifetime`.
    fn mesh(
        n: usize,
        seed: u64,
        stagger_ms: u64,
        cache_lifetime: Option<Duration>,
    ) -> (World, Vec<NodeId>, SharedDeliveries) {
        let mut w = World::new(canned::star(n, LinkSpec::lan()), WorldConfig::seeded(seed));
        let (hosts, sink) = w.spawn_each(Duration::from_millis(stagger_ms), |bootstrap| {
            vec![Box::new(Pastry::new(PastryConfig {
                bootstrap,
                cache_lifetime,
            }))]
        });
        (w, hosts, sink)
    }

    fn pastry_of(w: &World, n: NodeId) -> &Pastry {
        w.stack(n)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap()
    }

    /// Globally closest node to a key by ring distance (Pastry ownership).
    fn closest(w: &World, hosts: &[NodeId], key: MacedonKey) -> NodeId {
        hosts
            .iter()
            .copied()
            .min_by_key(|&h| {
                let k = w.key_of(h);
                (k.ring_distance(key), k.0)
            })
            .unwrap()
    }

    #[test]
    fn all_nodes_join() {
        let (mut w, hosts, _sink) = mesh(12, 5, 100, None);
        w.run_until(Time::from_secs(30));
        for &h in &hosts {
            assert!(pastry_of(&w, h).is_joined(), "{h:?} joined");
        }
    }

    #[test]
    fn leaf_sets_hold_true_neighbors() {
        let (mut w, hosts, _sink) = mesh(12, 11, 100, None);
        w.run_until(Time::from_secs(60));
        // For each node, its clockwise-nearest peer globally must be in
        // its leaf set.
        for &h in &hosts {
            let me = w.key_of(h);
            let nearest = hosts
                .iter()
                .copied()
                .filter(|&o| o != h)
                .min_by_key(|&o| me.distance_to(w.key_of(o)))
                .unwrap();
            let p = pastry_of(&w, h);
            assert!(
                p.leaf_set().iter().any(|&(n, _)| n == nearest),
                "{h:?} leaf set misses cw neighbor {nearest:?}"
            );
        }
    }

    #[test]
    fn route_delivers_at_numerically_closest() {
        let (mut w, hosts, sink) = mesh(16, 23, 100, None);
        w.run_until(Time::from_secs(60));
        for i in 0..25u64 {
            let dest = MacedonKey((i as u32).wrapping_mul(0xC2B2_AE35).rotate_left(7));
            let mut payload = vec![0u8; 16];
            payload[..8].copy_from_slice(&i.to_be_bytes());
            w.api_at(
                Time::from_secs(60) + Duration::from_millis(i * 10),
                hosts[(i % 16) as usize],
                DownCall::Route {
                    dest,
                    payload: Bytes::from(payload),
                    priority: -1,
                },
            );
        }
        w.run_until(Time::from_secs(90));
        let log = sink.lock();
        assert_eq!(log.len(), 25);
        for rec in log.iter() {
            let seq = rec.seqno.unwrap();
            let dest = MacedonKey((seq as u32).wrapping_mul(0xC2B2_AE35).rotate_left(7));
            assert_eq!(rec.node, closest(&w, &hosts, dest), "packet {seq}");
        }
    }

    #[test]
    fn prefix_routing_hops_are_logarithmic() {
        let (mut w, hosts, sink) = mesh(32, 31, 100, None);
        w.run_until(Time::from_secs(90));
        let before: u64 = hosts.iter().map(|&h| pastry_of(&w, h).forwarded).sum();
        for i in 0..40u64 {
            let mut payload = vec![0u8; 16];
            payload[..8].copy_from_slice(&i.to_be_bytes());
            w.api_at(
                Time::from_secs(90) + Duration::from_millis(i * 25),
                hosts[(i % 32) as usize],
                DownCall::Route {
                    dest: MacedonKey((i as u32).wrapping_mul(0x9E37_79B9)),
                    payload: Bytes::from(payload),
                    priority: -1,
                },
            );
        }
        w.run_until(Time::from_secs(120));
        assert_eq!(sink.lock().len(), 40);
        let after: u64 = hosts.iter().map(|&h| pastry_of(&w, h).forwarded).sum();
        let avg = (after - before) as f64 / 40.0;
        // log16(2^32 key space over 32 nodes) — expect ~1-3 hops, far
        // below the n/2 = 16 a naive ring would need.
        assert!(avg <= 4.0, "avg hops {avg}");
    }

    #[test]
    fn location_cache_hit_after_miss() {
        let (mut w, hosts, sink) = mesh(8, 41, 100, None);
        w.run_until(Time::from_secs(30));
        let target_key = w.key_of(hosts[5]);
        let send_direct = |w: &mut World, at: Time, seq: u64| {
            let mut inner = vec![0u8; 16];
            inner[..8].copy_from_slice(&seq.to_be_bytes());
            let mut pw = WireWriter::new();
            pw.key(target_key);
            pw.bytes(&inner);
            w.api_at(
                at,
                hosts[0],
                DownCall::Ext {
                    op: EXT_ROUTE_DIRECT,
                    payload: pw.finish(),
                },
            );
        };
        send_direct(&mut w, Time::from_secs(30), 1);
        w.run_until(Time::from_secs(35));
        send_direct(&mut w, Time::from_secs(35), 2);
        w.run_until(Time::from_secs(40));
        let p = pastry_of(&w, hosts[0]);
        assert_eq!(p.cache_misses, 1, "first send misses");
        assert_eq!(p.cache_hits, 1, "second send hits");
        // Both payloads reached the key owner = hosts[5] itself.
        let log = sink.lock();
        let mine: Vec<_> = log
            .iter()
            .filter(|r| r.seqno == Some(1) || r.seqno == Some(2))
            .collect();
        assert_eq!(mine.len(), 2);
        assert!(mine.iter().all(|r| r.node == hosts[5]));
    }

    #[test]
    fn cache_lifetime_evicts() {
        let (mut w, hosts, _sink) = mesh(6, 77, 50, Some(Duration::from_secs(2)));
        w.run_until(Time::from_secs(20));
        let target_key = w.key_of(hosts[3]);
        let mut pw = WireWriter::new();
        pw.key(target_key);
        pw.bytes(&[0u8; 16]);
        let payload = pw.finish();
        w.api_at(
            Time::from_secs(20),
            hosts[0],
            DownCall::Ext {
                op: EXT_ROUTE_DIRECT,
                payload: payload.clone(),
            },
        );
        w.run_until(Time::from_secs(21));
        // Wait past the lifetime: next send must miss again.
        w.api_at(
            Time::from_secs(25),
            hosts[0],
            DownCall::Ext {
                op: EXT_ROUTE_DIRECT,
                payload,
            },
        );
        w.run_until(Time::from_secs(26));
        let p: &Pastry = w
            .stack(hosts[0])
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        assert_eq!(p.cache_misses, 2, "expired entry forces re-resolution");
    }

    #[test]
    fn failed_leaf_is_pruned() {
        let (mut w, hosts, _sink) = mesh(8, 51, 100, None);
        w.run_until(Time::from_secs(30));
        let victim = hosts[4];
        w.crash_at(Time::from_secs(31), victim);
        w.run_until(Time::from_secs(90));
        for &h in &hosts {
            if h == victim {
                continue;
            }
            let p = pastry_of(&w, h);
            assert!(
                !p.leaf_set().iter().any(|&(n, _)| n == victim),
                "{h:?} still lists crashed {victim:?}"
            );
        }
    }
}
