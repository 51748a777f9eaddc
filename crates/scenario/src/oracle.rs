//! Convergence oracles: structural correctness checks evaluated on
//! engine snapshots at scripted checkpoints.
//!
//! A scenario can carry `assert converged <oracle>` / `assert diverged
//! <oracle>` events (script verb `assert`, builder methods
//! [`crate::ScenarioBuilder::assert_converged`] /
//! [`crate::ScenarioBuilder::assert_diverged`]). At each checkpoint the
//! runner freezes a [`Snapshot`] of every node's protocol state —
//! extracted by a caller-supplied [`StateProbe`], since only the test
//! harness knows the concrete agent types — and hands it to the named
//! [`ConvergenceOracle`]. The oracle returns [`Violation`]s; an `assert
//! converged` checkpoint passes when there are none, `assert diverged`
//! when there is at least one. Results land in the
//! [`crate::MetricsReport`] as per-checkpoint rows plus a
//! time-to-first-convergence per oracle, so CI can gate on overlay
//! correctness, not just delivery counts.
//!
//! The bundled oracles restate the protocols' *global* invariants —
//! properties no single node can check locally:
//!
//! * [`ChordOracle`]: every live node's working successor (the
//!   clockwise-nearest entry of its successor list) is the live node
//!   that actually follows it on the ring.
//! * [`PastryRouteOracle`]: replaying the spec's own §2.1 prefix scan
//!   over the snapshot's routing state delivers each probe key at a
//!   numerically closest live node, from every origin.
//! * [`ScribeTreeOracle`]: parent pointers of subscribed nodes form an
//!   acyclic forest rooted at the group's rendezvous (the live node
//!   numerically closest to the group key).

use macedon_core::key::dsl_owner_of;
use macedon_core::{Addressing, MacedonKey, NodeId, Stack, Time};
use std::collections::HashSet;
use std::fmt;

/// One protocol layer of one node, as an oracle sees it: the FSM state
/// and the neighbor lists by name. Built by the [`StateProbe`].
#[derive(Clone, Debug)]
pub struct AgentView {
    pub protocol: String,
    pub state: String,
    pub lists: Vec<(String, Vec<NodeId>)>,
}

impl AgentView {
    /// A named neighbor list; absent lists read as empty.
    pub fn list(&self, name: &str) -> &[NodeId] {
        self.lists
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }
}

/// One node at the checkpoint instant.
#[derive(Clone, Debug)]
pub struct NodeSnapshot {
    pub index: usize,
    pub node: NodeId,
    pub key: MacedonKey,
    pub alive: bool,
    /// Layer views, lowest first; empty for dead nodes (and when no
    /// probe is registered).
    pub layers: Vec<AgentView>,
}

impl NodeSnapshot {
    pub fn layer(&self, protocol: &str) -> Option<&AgentView> {
        self.layers.iter().find(|l| l.protocol == protocol)
    }
}

/// The frozen world state an oracle judges.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub at: Time,
    pub addressing: Addressing,
    pub nodes: Vec<NodeSnapshot>,
}

impl Snapshot {
    fn key_of(&self, n: NodeId) -> MacedonKey {
        MacedonKey::of_node(n, self.addressing)
    }

    fn is_alive(&self, n: NodeId) -> bool {
        self.nodes.iter().any(|s| s.node == n && s.alive)
    }

    fn live_with<'a>(
        &'a self,
        protocol: &'a str,
    ) -> impl Iterator<Item = (&'a NodeSnapshot, &'a AgentView)> + 'a {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .filter_map(move |n| n.layer(protocol).map(|l| (n, l)))
    }

    fn by_node(&self, n: NodeId) -> Option<&NodeSnapshot> {
        self.nodes.iter().find(|s| s.node == n)
    }
}

/// Extracts the oracle-visible layer views from one node's stack. The
/// harness downcasts each layer (`stack.agent(i).as_any()`) to its
/// concrete agent type — interpreted, generated or native — and reads
/// out state name and neighbor lists.
pub type StateProbe<'a> = Box<dyn Fn(&Stack) -> Vec<AgentView> + 'a>;

/// One divergence from an oracle's correctness condition, carrying
/// enough of the offending snapshot to debug a CI failure from the log
/// alone.
#[derive(Clone, Debug)]
pub struct Violation {
    pub index: usize,
    pub node: NodeId,
    pub expected: String,
    pub actual: String,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} (n{}): expected {}, got {} [{}]",
            self.index, self.node.0, self.expected, self.actual, self.detail
        )
    }
}

/// A global correctness condition over one snapshot. `check` returns
/// every place the condition fails; an empty vec means converged.
pub trait ConvergenceOracle {
    fn name(&self) -> &str;
    fn check(&self, snap: &Snapshot) -> Vec<Violation>;
}

fn ids(ns: &[NodeId]) -> String {
    let v: Vec<String> = ns.iter().map(|n| format!("n{}", n.0)).collect();
    format!("[{}]", v.join(" "))
}

/// A snapshot in which no live node exposes the protocol at all is a
/// harness bug (missing probe), not convergence — report it as such so
/// `assert converged` cannot pass vacuously.
fn probe_missing(protocol: &str) -> Violation {
    Violation {
        index: 0,
        node: NodeId(0),
        expected: format!("at least one live '{protocol}' layer in the snapshot"),
        actual: "none".into(),
        detail: "no StateProbe registered, or it exposes no such protocol".into(),
    }
}

// ---------------------------------------------------------------------------
// Chord
// ---------------------------------------------------------------------------

/// The Chord ring invariant (§4 of the Chord paper): a ring is correct
/// exactly when every node's successor pointer names the live node
/// whose key is clockwise-nearest after its own. The *working*
/// successor is what the spec itself uses everywhere —
/// `owner_of(my_key, succs)`, the clockwise-nearest entry of the
/// successor list — so a list still containing a fresher entry counts.
#[derive(Default)]
pub struct ChordOracle;

impl ChordOracle {
    /// The protocol layer the oracle reads.
    const PROTOCOL: &'static str = "chord";

    pub fn new() -> ChordOracle {
        ChordOracle
    }
}

impl ConvergenceOracle for ChordOracle {
    fn name(&self) -> &str {
        Self::PROTOCOL
    }

    fn check(&self, snap: &Snapshot) -> Vec<Violation> {
        let members: Vec<(&NodeSnapshot, &AgentView)> = snap.live_with(Self::PROTOCOL).collect();
        if members.is_empty() {
            return vec![probe_missing(Self::PROTOCOL)];
        }
        let mut out = Vec::new();
        for &(n, layer) in &members {
            if layer.state != "joined" {
                out.push(Violation {
                    index: n.index,
                    node: n.node,
                    expected: "state 'joined'".into(),
                    actual: format!("state '{}'", layer.state),
                    detail: "node has not finished joining the ring".into(),
                });
                continue;
            }
            // The true successor: clockwise-nearest other live member
            // (ties on colliding keys broken by node id, matching
            // owner_of).
            let Some(&(exp, _)) = members
                .iter()
                .filter(|(m, _)| m.node != n.node)
                .min_by_key(|(m, _)| (n.key.distance_to(m.key), m.node.0))
            else {
                continue; // singleton ring is vacuously correct
            };
            let succs = layer.list("succs");
            let actual = dsl_owner_of(Some(n.key), succs, snap.addressing);
            if actual != Some(exp.node) {
                out.push(Violation {
                    index: n.index,
                    node: n.node,
                    expected: format!("successor n{} (key {})", exp.node.0, exp.key),
                    actual: match actual {
                        Some(a) => format!("n{} (key {})", a.0, snap.key_of(a)),
                        None => "no successor".into(),
                    },
                    detail: format!("my_key {} succs {}", n.key, ids(succs)),
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Pastry
// ---------------------------------------------------------------------------

/// The spec's `MAX_HOPS`: a converged Pastry terminates far sooner, so
/// replay exceeding it is itself a violation.
const PASTRY_MAX_HOPS: usize = 16;

/// Pastry routing correctness: replaying the spec's own §2.1 scan —
/// strictly-longer-prefix entry first, then an equal-prefix strictly
/// numerically closer entry, first match winning ties exactly as the
/// `foreach` order does — over the snapshot's `rows` + `leaves` must
/// deliver each probe key at a node whose ring distance to the key is
/// minimal among live joined nodes, starting from *every* live node.
pub struct PastryRouteOracle {
    probes: Vec<MacedonKey>,
}

impl PastryRouteOracle {
    /// The protocol layer the oracle reads.
    const PROTOCOL: &'static str = "pastry";

    pub fn new(probes: Vec<MacedonKey>) -> PastryRouteOracle {
        PastryRouteOracle { probes }
    }

    /// One §2.1 routing step at `cur` toward `dst`: the forwarding
    /// candidate, or `None` for "deliver here". Mirrors the spec's
    /// `route`/`route_msg` scan bit for bit (including scan order and
    /// first-wins tie-breaks).
    fn step(
        &self,
        snap: &Snapshot,
        cur: &AgentView,
        my: MacedonKey,
        dst: MacedonKey,
    ) -> Option<NodeId> {
        let plen = my.shared_prefix_len(dst, 4);
        let entries = || {
            cur.list("rows")
                .iter()
                .chain(cur.list("leaves").iter())
                .copied()
        };
        let mut cand: Option<NodeId> = None;
        for r in entries() {
            let rp = snap.key_of(r).shared_prefix_len(dst, 4);
            if rp > plen {
                match cand {
                    None => cand = Some(r),
                    Some(c) if rp > snap.key_of(c).shared_prefix_len(dst, 4) => cand = Some(r),
                    _ => {}
                }
            }
        }
        if cand.is_none() {
            for r in entries() {
                let rk = snap.key_of(r);
                if rk.shared_prefix_len(dst, 4) >= plen
                    && rk.ring_distance(dst) < my.ring_distance(dst)
                {
                    match cand {
                        None => cand = Some(r),
                        Some(c) if rk.ring_distance(dst) < snap.key_of(c).ring_distance(dst) => {
                            cand = Some(r)
                        }
                        _ => {}
                    }
                }
            }
        }
        cand
    }
}

impl ConvergenceOracle for PastryRouteOracle {
    fn name(&self) -> &str {
        Self::PROTOCOL
    }

    fn check(&self, snap: &Snapshot) -> Vec<Violation> {
        let members: Vec<(&NodeSnapshot, &AgentView)> = snap.live_with(Self::PROTOCOL).collect();
        if members.is_empty() {
            return vec![probe_missing(Self::PROTOCOL)];
        }
        let joined: Vec<&NodeSnapshot> = members
            .iter()
            .filter(|(_, l)| l.state == "joined")
            .map(|&(n, _)| n)
            .collect();
        let mut out = Vec::new();
        for &dst in &self.probes {
            let Some(min_d) = joined.iter().map(|n| n.key.ring_distance(dst)).min() else {
                continue;
            };
            for &origin in &joined {
                let mut cur = origin;
                let mut cur_view = origin.layer(Self::PROTOCOL).expect("member has layer");
                let mut path = vec![origin.node];
                let violation = loop {
                    if path.len() > PASTRY_MAX_HOPS {
                        break Some((
                            format!("key {dst} delivered within {PASTRY_MAX_HOPS} hops"),
                            format!("route still in flight at n{}", cur.node.0),
                            format!("path {}", ids(&path)),
                        ));
                    }
                    match self.step(snap, cur_view, cur.key, dst) {
                        None => {
                            // Delivered here: must be a closest live node.
                            if cur.key.ring_distance(dst) != min_d {
                                break Some((
                                    format!("key {dst} delivered at a closest live node"),
                                    format!(
                                        "delivered at n{} (key {}, dist {})",
                                        cur.node.0,
                                        cur.key,
                                        cur.key.ring_distance(dst)
                                    ),
                                    format!("min live dist {min_d}, path {}", ids(&path)),
                                ));
                            }
                            break None;
                        }
                        Some(next) => {
                            if !snap.is_alive(next) {
                                break Some((
                                    format!("key {dst} routed via live nodes"),
                                    format!("next hop n{} is dead", next.0),
                                    format!("path {}", ids(&path)),
                                ));
                            }
                            let Some(ns) = snap.by_node(next) else {
                                break Some((
                                    format!("key {dst} routed via scenario nodes"),
                                    format!("next hop n{} is outside the snapshot", next.0),
                                    format!("path {}", ids(&path)),
                                ));
                            };
                            let Some(view) = ns.layer(Self::PROTOCOL) else {
                                break Some((
                                    format!("key {dst} routed via '{}' nodes", Self::PROTOCOL),
                                    format!("next hop n{} has no such layer", next.0),
                                    format!("path {}", ids(&path)),
                                ));
                            };
                            path.push(next);
                            cur = ns;
                            cur_view = view;
                        }
                    }
                };
                if let Some((expected, actual, detail)) = violation {
                    out.push(Violation {
                        index: origin.index,
                        node: origin.node,
                        expected,
                        actual,
                        detail,
                    });
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Scribe
// ---------------------------------------------------------------------------

/// Scribe tree correctness: every subscribed node's `rp_parent` chain
/// must climb live subscribed nodes, without cycles, to a root that is
/// the group's rendezvous — a live node whose key is numerically
/// closest to the group key (where Pastry delivers the subscribes).
pub struct ScribeTreeOracle {
    group: MacedonKey,
}

impl ScribeTreeOracle {
    /// The protocol layer the oracle reads.
    const PROTOCOL: &'static str = "scribe";

    pub fn new(group: MacedonKey) -> ScribeTreeOracle {
        ScribeTreeOracle { group }
    }
}

impl ConvergenceOracle for ScribeTreeOracle {
    fn name(&self) -> &str {
        Self::PROTOCOL
    }

    fn check(&self, snap: &Snapshot) -> Vec<Violation> {
        if snap.live_with(Self::PROTOCOL).next().is_none() {
            return vec![probe_missing(Self::PROTOCOL)];
        }
        let subscribed: Vec<(&NodeSnapshot, &AgentView)> = snap
            .live_with(Self::PROTOCOL)
            .filter(|(_, l)| l.state == "subscribed")
            .collect();
        let Some(min_d) = subscribed
            .iter()
            .map(|(n, _)| n.key.ring_distance(self.group))
            .min()
        else {
            return Vec::new(); // no tree is a correct empty tree
        };
        let mut out = Vec::new();
        for &(n, layer) in &subscribed {
            let mut visited: HashSet<NodeId> = HashSet::from([n.node]);
            let mut cur = n;
            let mut cur_layer = layer;
            let violation = loop {
                match cur_layer.list("rp_parent").first().copied() {
                    None => {
                        // A root: must be the rendezvous.
                        if cur.key.ring_distance(self.group) != min_d {
                            break Some((
                                format!(
                                    "parent chain ending at the rendezvous for group {}",
                                    self.group
                                ),
                                format!(
                                    "rooted at n{} (key {}, dist {})",
                                    cur.node.0,
                                    cur.key,
                                    cur.key.ring_distance(self.group)
                                ),
                                format!("closest subscribed dist {min_d}"),
                            ));
                        }
                        break None;
                    }
                    Some(p) => {
                        if !visited.insert(p) {
                            break Some((
                                "an acyclic parent chain".into(),
                                format!("cycle through n{}", p.0),
                                format!("chain from n{}", n.node.0),
                            ));
                        }
                        match subscribed.iter().find(|(m, _)| m.node == p) {
                            Some(&(m, l)) => {
                                cur = m;
                                cur_layer = l;
                            }
                            None => {
                                break Some((
                                    "a live subscribed parent".into(),
                                    format!(
                                        "parent n{} is {}",
                                        p.0,
                                        if snap.is_alive(p) {
                                            "not subscribed"
                                        } else {
                                            "dead"
                                        }
                                    ),
                                    format!("chain from n{}", n.node.0),
                                ));
                            }
                        }
                    }
                }
            };
            if let Some((expected, actual, detail)) = violation {
                out.push(Violation {
                    index: n.index,
                    node: n.node,
                    expected,
                    actual,
                    detail,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(protocol: &str, state: &str, lists: &[(&str, &[u32])]) -> AgentView {
        AgentView {
            protocol: protocol.into(),
            state: state.into(),
            lists: lists
                .iter()
                .map(|&(n, ids)| (n.to_string(), ids.iter().map(|&i| NodeId(i)).collect()))
                .collect(),
        }
    }

    /// Ip addressing: a node's key is its id, so rings are legible.
    fn snap(nodes: Vec<(u32, bool, Vec<AgentView>)>) -> Snapshot {
        Snapshot {
            at: Time::ZERO,
            addressing: Addressing::Ip,
            nodes: nodes
                .into_iter()
                .enumerate()
                .map(|(index, (id, alive, layers))| NodeSnapshot {
                    index,
                    node: NodeId(id),
                    key: MacedonKey(id),
                    alive,
                    layers,
                })
                .collect(),
        }
    }

    #[test]
    fn chord_correct_ring_converges() {
        let s = snap(vec![
            (
                10,
                true,
                vec![view("chord", "joined", &[("succs", &[20, 30])])],
            ),
            (
                20,
                true,
                vec![view("chord", "joined", &[("succs", &[30, 10])])],
            ),
            (
                30,
                true,
                vec![view("chord", "joined", &[("succs", &[10, 20])])],
            ),
        ]);
        assert!(ChordOracle::new().check(&s).is_empty());
    }

    #[test]
    fn chord_wrong_successor_is_reported_with_expected_and_actual() {
        let s = snap(vec![
            (10, true, vec![view("chord", "joined", &[("succs", &[30])])]),
            (20, true, vec![view("chord", "joined", &[("succs", &[30])])]),
            (30, true, vec![view("chord", "joined", &[("succs", &[10])])]),
        ]);
        let vs = ChordOracle::new().check(&s);
        assert_eq!(vs.len(), 1, "{vs:?}");
        let msg = vs[0].to_string();
        assert!(msg.contains("node 0 (n10)"), "{msg}");
        assert!(msg.contains("expected successor n20"), "{msg}");
        assert!(msg.contains("n30"), "{msg}");
    }

    #[test]
    fn chord_successor_pointing_at_dead_node_diverges() {
        // n20 crashed: n10's working successor must become n30, but its
        // list still prefers the dead n20.
        let s = snap(vec![
            (
                10,
                true,
                vec![view("chord", "joined", &[("succs", &[20, 30])])],
            ),
            (20, false, vec![]),
            (30, true, vec![view("chord", "joined", &[("succs", &[10])])]),
        ]);
        let vs = ChordOracle::new().check(&s);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].to_string().contains("expected successor n30"));
    }

    #[test]
    fn chord_unjoined_node_diverges() {
        let s = snap(vec![
            (10, true, vec![view("chord", "joining", &[("succs", &[])])]),
            (20, true, vec![view("chord", "joined", &[("succs", &[10])])]),
        ]);
        let vs = ChordOracle::new().check(&s);
        assert!(vs.iter().any(|v| v.actual.contains("joining")), "{vs:?}");
    }

    #[test]
    fn missing_probe_never_passes_vacuously() {
        let s = snap(vec![(10, true, vec![]), (20, true, vec![])]);
        assert_eq!(ChordOracle::new().check(&s).len(), 1);
        assert_eq!(
            PastryRouteOracle::new(vec![MacedonKey(5)]).check(&s).len(),
            1
        );
        assert_eq!(ScribeTreeOracle::new(MacedonKey(5)).check(&s).len(), 1);
    }

    fn pastry_view(state: &str, rows: &[u32], leaves: &[u32]) -> AgentView {
        view("pastry", state, &[("rows", rows), ("leaves", leaves)])
    }

    #[test]
    fn pastry_full_tables_route_to_owner() {
        let s = snap(vec![
            (
                0x1000_0000,
                true,
                vec![pastry_view("joined", &[0x2000_0000, 0x8000_0000], &[])],
            ),
            (
                0x2000_0000,
                true,
                vec![pastry_view("joined", &[0x1000_0000, 0x8000_0000], &[])],
            ),
            (
                0x8000_0000,
                true,
                vec![pastry_view("joined", &[0x1000_0000, 0x2000_0000], &[])],
            ),
        ]);
        let vs = PastryRouteOracle::new(vec![MacedonKey(0x2000_0001)]).check(&s);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn pastry_missing_entry_strands_the_route() {
        // Nobody knows the owner 0x2000_0000, so routes for its key
        // deliver at a non-closest node.
        let s = snap(vec![
            (
                0x1000_0000,
                true,
                vec![pastry_view("joined", &[0x8000_0000], &[])],
            ),
            (
                0x2000_0000,
                true,
                vec![pastry_view("joined", &[0x1000_0000, 0x8000_0000], &[])],
            ),
            (
                0x8000_0000,
                true,
                vec![pastry_view("joined", &[0x1000_0000], &[])],
            ),
        ]);
        let vs = PastryRouteOracle::new(vec![MacedonKey(0x2000_0001)]).check(&s);
        assert!(!vs.is_empty());
        assert!(vs[0].to_string().contains("closest live node"), "{}", vs[0]);
    }

    #[test]
    fn pastry_route_via_dead_node_diverges() {
        let s = snap(vec![
            (
                0x1000_0000,
                true,
                vec![pastry_view("joined", &[0x2000_0000], &[])],
            ),
            (0x2000_0000, false, vec![]),
            (
                0x8000_0000,
                true,
                vec![pastry_view("joined", &[0x1000_0000], &[])],
            ),
        ]);
        let vs = PastryRouteOracle::new(vec![MacedonKey(0x2000_0001)]).check(&s);
        assert!(vs.iter().any(|v| v.actual.contains("dead")), "{vs:?}");
    }

    fn scribe_view(state: &str, parent: &[u32]) -> AgentView {
        view("scribe", state, &[("rp_parent", parent)])
    }

    #[test]
    fn scribe_tree_rooted_at_rendezvous_converges() {
        // Group key 0x5000_0000: the rendezvous is the node at exactly
        // that key; both leaves point at it.
        let s = snap(vec![
            (
                0x1000_0000,
                true,
                vec![scribe_view("subscribed", &[0x5000_0000])],
            ),
            (0x5000_0000, true, vec![scribe_view("subscribed", &[])]),
            (
                0x9000_0000,
                true,
                vec![scribe_view("subscribed", &[0x5000_0000])],
            ),
        ]);
        let vs = ScribeTreeOracle::new(MacedonKey(0x5000_0000)).check(&s);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn scribe_cycle_diverges() {
        let s = snap(vec![
            (
                0x1000_0000,
                true,
                vec![scribe_view("subscribed", &[0x9000_0000])],
            ),
            (0x5000_0000, true, vec![scribe_view("subscribed", &[])]),
            (
                0x9000_0000,
                true,
                vec![scribe_view("subscribed", &[0x1000_0000])],
            ),
        ]);
        let vs = ScribeTreeOracle::new(MacedonKey(0x5000_0000)).check(&s);
        assert!(vs.iter().any(|v| v.actual.contains("cycle")), "{vs:?}");
    }

    #[test]
    fn scribe_root_away_from_rendezvous_diverges() {
        let s = snap(vec![
            (0x1000_0000, true, vec![scribe_view("subscribed", &[])]),
            (
                0x5000_0000,
                true,
                vec![scribe_view("subscribed", &[0x1000_0000])],
            ),
        ]);
        let vs = ScribeTreeOracle::new(MacedonKey(0x5000_0000)).check(&s);
        // The node *at* the group key follows a parent whose key is
        // farther from the group than its own — that root is wrong.
        assert!(!vs.is_empty());
        assert!(vs[0].to_string().contains("rendezvous"), "{}", vs[0]);
    }
}
