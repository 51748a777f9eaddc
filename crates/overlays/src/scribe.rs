//! Scribe (Rowstron et al., NGC'01) as a layered MACEDON agent.
//!
//! Scribe builds per-group multicast trees over *any* DHT exposing the
//! MACEDON API: "the Scribe application-layer multicast protocol can be
//! switched from using Pastry to Chord by changing a single line in its
//! MACEDON specification". This agent makes no assumption about the
//! layer below beyond `route`/`routeIP` downcalls and
//! `forward`/`deliver` upcalls — stack it over [`crate::Pastry`] or
//! over an interpreted DHT spec such as `chord.mac` interchangeably.
//!
//! Tree construction is reverse-path: a member routes a JOIN toward the
//! group key; every node the DHT route traverses intercepts it in its
//! `forward` upcall, adds the join's sender as a child, quashes the
//! message, and (if it was not yet in the tree) issues its own JOIN —
//! terminating at the group's root (the DHT owner of the group key).
//!
//! Data dissemination to children uses either plain `routeIP` or
//! Pastry's location-cache path ([`crate::pastry::EXT_ROUTE_DIRECT`]),
//! selectable via [`ScribeConfig::data_path`] — the knob behind Fig 12.
//!
//! SplitStream's "pushdown" hook lives here too: with
//! [`ScribeConfig::max_children`] set, a forwarder at capacity pushes an
//! incoming join down to one of its existing children instead of
//! adopting it (the paper: implementing SplitStream "required small
//! changes to our Scribe implementation, primarily ... Scribe's
//! 'pushdown' function").

use crate::common::{peek_proto, proto, unwrap_app, wrap_app, APP_PROTOCOL};
use crate::pastry::EXT_ROUTE_DIRECT;
use macedon_core::api::{NBR_TYPE_CHILDREN, NBR_TYPE_PARENT};
use macedon_core::{
    Agent, Bytes, Ctx, DownCall, ForwardInfo, MacedonKey, NodeId, ProtocolId, TraceLevel, UpCall,
    WireReader, WireWriter, DEFAULT_PRIORITY,
};
use std::any::Any;
use std::collections::HashMap;

const MSG_JOIN: u16 = 1;
const MSG_CREATE: u16 = 2;
const MSG_DATA: u16 = 3;
const MSG_DATA_UP: u16 = 4;
const MSG_LEAVE: u16 = 5;
const MSG_ANYCAST: u16 = 6;
const MSG_COLLECT: u16 = 7;
const MSG_JOIN_OK: u16 = 8;

/// `upcall_ext` opcode delivered to the app at each collect hop.
pub const EXT_COLLECT: u32 = 100;

/// How Scribe transmits data to tree children.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataPath {
    /// `macedon_routeIP` to the child's address (works over any DHT).
    RouteIp,
    /// Pastry's key→IP location cache (`EXT_ROUTE_DIRECT`); reproduces
    /// the Fig 12 cache-lifetime experiment.
    LocationCache,
}

/// Configuration of one Scribe instance.
#[derive(Clone, Debug)]
pub struct ScribeConfig {
    pub data_path: DataPath,
    /// Per-group child cap; joins beyond it are pushed down
    /// (SplitStream's requirement). `None` = unbounded.
    pub max_children: Option<usize>,
}

impl Default for ScribeConfig {
    fn default() -> Self {
        ScribeConfig {
            data_path: DataPath::RouteIp,
            max_children: None,
        }
    }
}

#[derive(Default)]
struct GroupState {
    children: Vec<(NodeId, MacedonKey)>,
    parent: Option<NodeId>,
    /// Application joined (vs pure forwarder).
    member: bool,
    /// This node owns the group key.
    root: bool,
    /// A join has been sent but no tree position confirmed yet.
    joining: bool,
}

/// The Scribe agent.
pub struct Scribe {
    cfg: ScribeConfig,
    groups: HashMap<MacedonKey, GroupState>,
    /// Multicast data packets this node relayed down-tree.
    pub relayed: u64,
}

impl Scribe {
    pub fn new(cfg: ScribeConfig) -> Scribe {
        Scribe {
            cfg,
            groups: HashMap::new(),
            relayed: 0,
        }
    }

    pub fn group_children(&self, group: MacedonKey) -> Vec<NodeId> {
        self.groups
            .get(&group)
            .map(|g| g.children.iter().map(|&(n, _)| n).collect())
            .unwrap_or_default()
    }

    pub fn is_root(&self, group: MacedonKey) -> bool {
        self.groups.get(&group).map(|g| g.root).unwrap_or(false)
    }

    pub fn groups(&self) -> impl Iterator<Item = MacedonKey> + '_ {
        self.groups.keys().copied()
    }

    fn join_payload(group: MacedonKey, me: NodeId, my_key: MacedonKey) -> Bytes {
        let mut w = WireWriter::new();
        w.u16(proto::SCRIBE)
            .u16(MSG_JOIN)
            .key(group)
            .node(me)
            .key(my_key);
        w.finish()
    }

    fn send_join(&mut self, ctx: &mut Ctx, group: MacedonKey) {
        let st = self.groups.entry(group).or_default();
        if st.joining || st.root {
            return;
        }
        st.joining = true;
        let payload = Self::join_payload(group, ctx.me, ctx.my_key);
        ctx.down(DownCall::Route {
            dest: group,
            payload,
            priority: DEFAULT_PRIORITY,
        });
    }

    /// Adopt (or push down) a join from `(node, key)` for `group`.
    fn handle_join(&mut self, ctx: &mut Ctx, group: MacedonKey, node: NodeId, key: MacedonKey) {
        if node == ctx.me {
            return;
        }
        let max = self.cfg.max_children;
        let st = self.groups.entry(group).or_default();
        if st.children.iter().any(|&(n, _)| n == node) {
            return;
        }
        if let Some(cap) = max {
            if st.children.len() >= cap {
                // Pushdown: delegate the joiner to one of our children.
                let victim = st.children[ctx.rng.index(st.children.len())].0;
                let mut w = WireWriter::new();
                w.u16(proto::SCRIBE)
                    .u16(MSG_JOIN)
                    .key(group)
                    .node(node)
                    .key(key);
                ctx.down(DownCall::RouteIp {
                    dest: victim,
                    payload: w.finish(),
                    priority: DEFAULT_PRIORITY,
                });
                return;
            }
        }
        st.children.push((node, key));
        ctx.monitor(node);
        let children: Vec<NodeId> = st.children.iter().map(|&(n, _)| n).collect();
        ctx.up(UpCall::Notify {
            nbr_type: NBR_TYPE_CHILDREN,
            neighbors: children,
        });
        // Confirm parenthood to the new child (it cannot learn it from the
        // quashed join).
        let mut w = WireWriter::new();
        w.u16(proto::SCRIBE).u16(MSG_JOIN_OK).key(group);
        ctx.down(DownCall::RouteIp {
            dest: node,
            payload: w.finish(),
            priority: DEFAULT_PRIORITY,
        });
    }

    /// Send a Scribe message to a tree neighbor over the configured path.
    fn send_to(&self, ctx: &mut Ctx, node: NodeId, key: MacedonKey, payload: Bytes) {
        match self.cfg.data_path {
            DataPath::RouteIp => {
                ctx.down(DownCall::RouteIp {
                    dest: node,
                    payload,
                    priority: DEFAULT_PRIORITY,
                });
            }
            DataPath::LocationCache => {
                let mut w = WireWriter::new();
                w.key(key);
                w.bytes(&payload);
                ctx.down(DownCall::Ext {
                    op: EXT_ROUTE_DIRECT,
                    payload: w.finish(),
                });
            }
        }
    }

    /// Disseminate data to all children and deliver locally if a member.
    fn disseminate(
        &mut self,
        ctx: &mut Ctx,
        group: MacedonKey,
        src: MacedonKey,
        payload: Bytes,
        exclude: Option<NodeId>,
    ) {
        let Some(st) = self.groups.get(&group) else {
            return;
        };
        let member = st.member;
        let children = st.children.clone();
        for (n, k) in children {
            if Some(n) == exclude {
                continue;
            }
            let mut w = WireWriter::new();
            w.u16(proto::SCRIBE).u16(MSG_DATA).key(group).key(src);
            w.bytes(&payload);
            self.send_to(ctx, n, k, w.finish());
            self.relayed += 1;
        }
        if member {
            ctx.up(UpCall::Deliver {
                src,
                from: ctx.me,
                payload,
            });
        }
    }

    fn maybe_prune(&mut self, ctx: &mut Ctx, group: MacedonKey) {
        let Some(st) = self.groups.get(&group) else {
            return;
        };
        if st.children.is_empty() && !st.member && !st.root {
            if let Some(parent) = st.parent {
                let mut w = WireWriter::new();
                w.u16(proto::SCRIBE).u16(MSG_LEAVE).key(group).node(ctx.me);
                ctx.down(DownCall::RouteIp {
                    dest: parent,
                    payload: w.finish(),
                    priority: DEFAULT_PRIORITY,
                });
            }
            self.groups.remove(&group);
        }
    }

    /// Process a Scribe protocol message that reached this node.
    fn handle_msg(&mut self, ctx: &mut Ctx, from: NodeId, payload: Bytes) {
        let mut r = WireReader::new(payload);
        let (Ok(_p), Ok(ty)) = (r.u16(), r.u16()) else {
            return;
        };
        match ty {
            MSG_JOIN => {
                // Delivered at the group root (or pushed down directly).
                let (Ok(group), Ok(node), Ok(key)) = (r.key(), r.node(), r.key()) else {
                    return;
                };
                let st = self.groups.entry(group).or_default();
                if node == ctx.me {
                    // Our own join routed back to us: we own the group key.
                    st.root = true;
                    st.joining = false;
                    return;
                }
                if st.parent.is_none() && !st.joining {
                    st.root = true;
                }
                self.handle_join(ctx, group, node, key);
            }
            MSG_CREATE => {
                let Ok(group) = r.key() else { return };
                let st = self.groups.entry(group).or_default();
                st.root = true;
            }
            MSG_DATA => {
                let (Ok(group), Ok(src)) = (r.key(), r.key()) else {
                    return;
                };
                let Ok(data) = r.bytes() else { return };
                self.relay_down(ctx, group, src, data, from);
            }
            MSG_DATA_UP => {
                // Reached the root: push down the tree.
                let (Ok(group), Ok(src)) = (r.key(), r.key()) else {
                    return;
                };
                let Ok(data) = r.bytes() else { return };
                let st = self.groups.entry(group).or_default();
                if st.parent.is_none() && !st.joining {
                    st.root = true;
                }
                self.disseminate(ctx, group, src, data, None);
            }
            MSG_JOIN_OK => {
                let Ok(group) = r.key() else { return };
                let st = self.groups.entry(group).or_default();
                if !st.root {
                    st.parent = Some(from);
                    st.joining = false;
                    ctx.monitor(from);
                    ctx.up(UpCall::Notify {
                        nbr_type: NBR_TYPE_PARENT,
                        neighbors: vec![from],
                    });
                }
            }
            MSG_LEAVE => {
                let (Ok(group), Ok(node)) = (r.key(), r.node()) else {
                    return;
                };
                if let Some(st) = self.groups.get_mut(&group) {
                    st.children.retain(|&(n, _)| n != node);
                    ctx.unmonitor(node);
                }
                self.maybe_prune(ctx, group);
            }
            MSG_ANYCAST => {
                let (Ok(group), Ok(src)) = (r.key(), r.key()) else {
                    return;
                };
                let Ok(data) = r.bytes() else { return };
                self.handle_anycast(ctx, group, src, data);
            }
            MSG_COLLECT => {
                let (Ok(group), Ok(src)) = (r.key(), r.key()) else {
                    return;
                };
                let Ok(data) = r.bytes() else { return };
                self.handle_collect(ctx, group, src, data);
            }
            _ => {}
        }
    }

    fn relay_down(
        &mut self,
        ctx: &mut Ctx,
        group: MacedonKey,
        src: MacedonKey,
        data: Bytes,
        from: NodeId,
    ) {
        self.disseminate(ctx, group, src, data, Some(from));
    }

    fn handle_anycast(&mut self, ctx: &mut Ctx, group: MacedonKey, src: MacedonKey, data: Bytes) {
        let Some(st) = self.groups.get(&group) else {
            return;
        };
        if st.member {
            ctx.up(UpCall::Deliver {
                src,
                from: ctx.me,
                payload: data,
            });
        } else if !st.children.is_empty() {
            let (n, k) = st.children[ctx.rng.index(st.children.len())];
            let mut w = WireWriter::new();
            w.u16(proto::SCRIBE).u16(MSG_ANYCAST).key(group).key(src);
            w.bytes(&data);
            self.send_to(ctx, n, k, w.finish());
        }
    }

    fn handle_collect(&mut self, ctx: &mut Ctx, group: MacedonKey, src: MacedonKey, data: Bytes) {
        let st = self.groups.entry(group).or_default();
        let is_root = st.root;
        let parent = st.parent;
        // Let the application see (and optionally summarize) the payload.
        let mut w = WireWriter::new();
        w.key(group).key(src);
        w.bytes(&data);
        ctx.up(UpCall::Ext {
            op: EXT_COLLECT,
            payload: w.finish(),
        });
        if !is_root {
            if let Some(p) = parent {
                let mut m = WireWriter::new();
                m.u16(proto::SCRIBE).u16(MSG_COLLECT).key(group).key(src);
                m.bytes(&data);
                ctx.down(DownCall::RouteIp {
                    dest: p,
                    payload: m.finish(),
                    priority: DEFAULT_PRIORITY,
                });
            }
        }
    }
}

impl Agent for Scribe {
    fn protocol_id(&self) -> ProtocolId {
        proto::SCRIBE
    }

    fn name(&self) -> &'static str {
        "scribe"
    }

    fn init(&mut self, _ctx: &mut Ctx) {}

    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        match call {
            DownCall::CreateGroup { group } => {
                let mut w = WireWriter::new();
                w.u16(proto::SCRIBE).u16(MSG_CREATE).key(group);
                ctx.down(DownCall::Route {
                    dest: group,
                    payload: w.finish(),
                    priority: DEFAULT_PRIORITY,
                });
            }
            DownCall::Join { group } => {
                let st = self.groups.entry(group).or_default();
                st.member = true;
                if st.parent.is_none() && !st.root {
                    self.send_join(ctx, group);
                }
            }
            DownCall::Leave { group } => {
                if let Some(st) = self.groups.get_mut(&group) {
                    st.member = false;
                }
                self.maybe_prune(ctx, group);
            }
            DownCall::Multicast { group, payload, .. } => {
                let is_root = self.groups.get(&group).map(|g| g.root).unwrap_or(false);
                if is_root {
                    let src = ctx.my_key;
                    self.disseminate(ctx, group, src, payload, None);
                } else {
                    // Route up to the root, which disseminates.
                    let mut w = WireWriter::new();
                    w.u16(proto::SCRIBE)
                        .u16(MSG_DATA_UP)
                        .key(group)
                        .key(ctx.my_key);
                    w.bytes(&payload);
                    ctx.down(DownCall::Route {
                        dest: group,
                        payload: w.finish(),
                        priority: DEFAULT_PRIORITY,
                    });
                }
            }
            DownCall::Anycast { group, payload, .. } => {
                let mut w = WireWriter::new();
                w.u16(proto::SCRIBE)
                    .u16(MSG_ANYCAST)
                    .key(group)
                    .key(ctx.my_key);
                w.bytes(&payload);
                ctx.down(DownCall::Route {
                    dest: group,
                    payload: w.finish(),
                    priority: DEFAULT_PRIORITY,
                });
            }
            DownCall::Collect { group, payload, .. } => {
                let src = ctx.my_key;
                self.handle_collect(ctx, group, src, payload);
            }
            DownCall::Route {
                dest,
                payload,
                priority,
            } => {
                // Opaque app data: wrap so the receiving Scribe can tell
                // it apart from its own control messages.
                ctx.down(DownCall::Route {
                    dest,
                    payload: wrap_app(&payload),
                    priority,
                });
            }
            other => ctx.down(other),
        }
    }

    fn upcall(&mut self, ctx: &mut Ctx, up: UpCall) {
        match up {
            UpCall::Deliver { src, from, payload } => match peek_proto(&payload) {
                Some(p) if p == proto::SCRIBE => self.handle_msg(ctx, from, payload),
                Some(APP_PROTOCOL) => {
                    if let Some(inner) = unwrap_app(&payload) {
                        ctx.up(UpCall::Deliver {
                            src,
                            from,
                            payload: inner,
                        });
                    }
                }
                _ => ctx.up(UpCall::Deliver { src, from, payload }),
            },
            other => ctx.up(other),
        }
    }

    fn on_forward(&mut self, ctx: &mut Ctx, fwd: &mut ForwardInfo) {
        // Intercept in-transit Scribe JOINs: reverse-path tree building.
        if peek_proto(&fwd.payload) != Some(proto::SCRIBE) {
            return;
        }
        let mut r = WireReader::new(fwd.payload.clone());
        let (Ok(_p), Ok(ty)) = (r.u16(), r.u16()) else {
            return;
        };
        if ty != MSG_JOIN {
            return;
        }
        let (Ok(group), Ok(node), Ok(key)) = (r.key(), r.node(), r.key()) else {
            return;
        };
        if node == ctx.me {
            // Our own join passing through us: let it route on.
            return;
        }
        fwd.quash = true;
        self.handle_join(ctx, group, node, key);
        let in_tree = {
            let st = self.groups.entry(group).or_default();
            st.parent.is_some() || st.root || st.joining
        };
        if !in_tree {
            self.send_join(ctx, group);
        }
        ctx.trace(
            TraceLevel::Med,
            format!("scribe: intercepted join for {group} from {node:?}"),
        );
    }

    fn recv(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Bytes) {
        debug_assert!(false, "scribe is never the lowest layer");
    }

    fn timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}

    fn neighbor_failed(&mut self, ctx: &mut Ctx, peer: NodeId) {
        let groups: Vec<MacedonKey> = self.groups.keys().copied().collect();
        for g in groups {
            let mut rejoin = false;
            if let Some(st) = self.groups.get_mut(&g) {
                if st.parent == Some(peer) {
                    st.parent = None;
                    st.joining = false;
                    rejoin = st.member || !st.children.is_empty();
                }
                st.children.retain(|&(n, _)| n != peer);
            }
            if rejoin {
                self.send_join(ctx, g);
            }
            self.maybe_prune(ctx, g);
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

    #[test]
    fn join_payload_shape() {
        let p = Scribe::join_payload(MacedonKey(5), NodeId(9), MacedonKey(7));
        let mut r = WireReader::new(p);
        assert_eq!(r.u16().unwrap(), proto::SCRIBE);
        assert_eq!(r.u16().unwrap(), MSG_JOIN);
        assert_eq!(r.key().unwrap(), MacedonKey(5));
        assert_eq!(r.node().unwrap(), NodeId(9));
        assert_eq!(r.key().unwrap(), MacedonKey(7));
    }

    #[test]
    fn default_config_is_route_ip_unbounded() {
        let c = ScribeConfig::default();
        assert_eq!(c.data_path, DataPath::RouteIp);
        assert!(c.max_children.is_none());
    }
}
