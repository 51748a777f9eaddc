//! Network topology model and generators.
//!
//! A topology is a directed multigraph of routers and hosts. Physical
//! links are full-duplex: the builder materializes each as two directed
//! half-links, each with its own FIFO queue, mirroring how ModelNet pipes
//! model link directions independently.

use macedon_sim::{Duration, SimRng};

/// Index of a node (router or end host) in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Index of a *directed* half-link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Whether a node is interior (router) or an overlay-capable end host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    Router,
    Host,
}

/// A directed half-link.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    pub from: NodeId,
    pub to: NodeId,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
    /// Drop-tail queue capacity in bytes.
    pub queue_bytes: u32,
    /// The physical (undirected) link this half belongs to; both directions
    /// of one cable share a `phys` id. Used for link-stress accounting.
    pub phys: u32,
}

/// An immutable network topology.
///
/// Adjacency is stored flat (compressed sparse row): node `n`'s outgoing
/// half-links are `adj[adj_off[n]..adj_off[n + 1]]`, in the order the
/// links were added. Four allocations hold the whole graph, however many
/// nodes it has, so building and cloning one is a handful of `memcpy`s.
#[derive(Clone, Debug)]
pub struct Topology {
    nodes: Vec<NodeKind>,
    links: Vec<Link>,
    /// `nodes.len() + 1` offsets into `adj`.
    adj_off: Vec<u32>,
    /// Outgoing half-links, grouped by source node, each group in link
    /// creation order (Dijkstra's tie-breaking depends on that order).
    adj: Vec<LinkId>,
    hosts: Vec<NodeId>,
    phys_count: u32,
}

impl Topology {
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of physical (undirected) links.
    pub fn num_phys_links(&self) -> usize {
        self.phys_count as usize
    }

    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()]
    }

    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.index()]
    }

    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Outgoing half-links of a node.
    pub fn outgoing(&self, n: NodeId) -> &[LinkId] {
        let i = n.index();
        &self.adj[self.adj_off[i] as usize..self.adj_off[i + 1] as usize]
    }

    /// The opposite-direction half of the same physical link. The
    /// builder pushes both halves consecutively, so this is a bit flip —
    /// O(1), no adjacency scan.
    pub fn reverse(&self, l: LinkId) -> LinkId {
        let r = LinkId(l.0 ^ 1);
        debug_assert_eq!(self.links[r.index()].phys, self.links[l.index()].phys);
        debug_assert_eq!(self.links[r.index()].to, self.links[l.index()].from);
        r
    }

    /// All end hosts, in creation order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    pub fn is_host(&self, n: NodeId) -> bool {
        self.kind(n) == NodeKind::Host
    }

    /// Degree (outgoing link count) of a node.
    pub fn degree(&self, n: NodeId) -> usize {
        self.outgoing(n).len()
    }

    /// Physical (undirected) link ids incident to a node — e.g. a
    /// host's access link(s), the usual target of runtime degradation.
    pub fn phys_links_of(&self, n: NodeId) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .outgoing(n)
            .iter()
            .map(|&l| self.links[l.index()].phys)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// One directed half of a physical link (`None` if there is no such
    /// link). The builder pushes a cable's two halves back to back, so
    /// cable `phys` is half-links `2·phys` and `2·phys + 1`.
    pub fn phys_link(&self, phys: u32) -> Option<&Link> {
        let half = self.links.get(2 * phys as usize)?;
        debug_assert_eq!(half.phys, phys);
        Some(half)
    }

    /// Current `(delay, bandwidth)` of a physical link (both directed
    /// halves always agree).
    pub fn phys_link_props(&self, phys: u32) -> Option<(Duration, u64)> {
        self.phys_link(phys).map(|l| (l.delay, l.bandwidth_bps))
    }

    /// Mutate a physical link's properties at runtime (both directed
    /// halves): `None` leaves a property unchanged. This is the
    /// perturbation primitive behind scenario-scripted link
    /// degradation; topologies are otherwise immutable.
    pub fn set_phys_link(
        &mut self,
        phys: u32,
        bandwidth_bps: Option<u64>,
        delay: Option<Duration>,
    ) {
        let first = 2 * phys as usize;
        for l in self.links.iter_mut().skip(first).take(2) {
            debug_assert_eq!(l.phys, phys);
            if let Some(bw) = bandwidth_bps {
                assert!(bw > 0, "zero-bandwidth link");
                l.bandwidth_bps = bw;
            }
            if let Some(d) = delay {
                l.delay = d;
            }
        }
    }
}

/// Mutable builder for [`Topology`].
#[derive(Default)]
pub struct TopologyBuilder {
    nodes: Vec<NodeKind>,
    links: Vec<Link>,
    /// Outgoing half-links per node so far; [`TopologyBuilder::build`]
    /// turns the counts into the CSR offsets.
    degree: Vec<u32>,
    hosts: Vec<NodeId>,
    phys_count: u32,
}

/// Per-link parameters used when adding links.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    pub delay: Duration,
    pub bandwidth_bps: u64,
    pub queue_bytes: u32,
}

impl LinkSpec {
    pub fn new(delay: Duration, bandwidth_bps: u64, queue_bytes: u32) -> LinkSpec {
        LinkSpec {
            delay,
            bandwidth_bps,
            queue_bytes,
        }
    }

    /// A LAN-ish link: 1 ms, 100 Mbps, 64 KiB queue.
    pub fn lan() -> LinkSpec {
        LinkSpec::new(Duration::from_millis(1), 100_000_000, 64 * 1024)
    }

    /// A WAN core link: given delay, 155 Mbps (OC-3-ish), 256 KiB queue.
    pub fn wan(delay: Duration) -> LinkSpec {
        LinkSpec::new(delay, 155_000_000, 256 * 1024)
    }

    /// A client access link (paper-era broadband): given bandwidth,
    /// 1 ms, 32 KiB queue.
    pub fn access(bandwidth_bps: u64) -> LinkSpec {
        LinkSpec::new(Duration::from_millis(1), bandwidth_bps, 32 * 1024)
    }
}

impl TopologyBuilder {
    pub fn new() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// A builder sized for `nodes` nodes and `phys_links` full-duplex
    /// links, for generators that know their totals up front.
    pub fn with_capacity(nodes: usize, phys_links: usize) -> TopologyBuilder {
        TopologyBuilder {
            nodes: Vec::with_capacity(nodes),
            links: Vec::with_capacity(2 * phys_links),
            degree: Vec::with_capacity(nodes),
            ..TopologyBuilder::default()
        }
    }

    pub fn add_router(&mut self) -> NodeId {
        self.add_node(NodeKind::Router)
    }

    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.degree.push(0);
        if kind == NodeKind::Host {
            self.hosts.push(id);
        }
        id
    }

    /// Add a full-duplex link between `a` and `b` (two directed halves
    /// sharing one physical id).
    pub fn add_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        assert_ne!(a, b, "self-loop link");
        assert!(spec.bandwidth_bps > 0, "zero-bandwidth link");
        let phys = self.phys_count;
        self.phys_count += 1;
        // Both halves are pushed back to back: `Topology::reverse` is
        // `id ^ 1`.
        for (from, to) in [(a, b), (b, a)] {
            self.links.push(Link {
                from,
                to,
                delay: spec.delay,
                bandwidth_bps: spec.bandwidth_bps,
                queue_bytes: spec.queue_bytes,
                phys,
            });
            self.degree[from.index()] += 1;
        }
    }

    /// Outgoing half-links `n` has so far.
    pub fn degree(&self, n: NodeId) -> usize {
        self.degree[n.index()] as usize
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Freeze the graph. Adjacency is laid out by a stable counting sort
    /// of the half-links on their source node, so every node's links
    /// keep creation order.
    pub fn build(self) -> Topology {
        let mut adj_off = Vec::with_capacity(self.nodes.len() + 1);
        let mut total = 0u32;
        adj_off.push(0);
        for d in &self.degree {
            total += d;
            adj_off.push(total);
        }
        // `degree` becomes each node's write cursor.
        let mut cursor = self.degree;
        cursor.copy_from_slice(&adj_off[..self.nodes.len()]);
        let mut adj = vec![LinkId(0); self.links.len()];
        for (id, link) in self.links.iter().enumerate() {
            let at = &mut cursor[link.from.index()];
            adj[*at as usize] = LinkId(id as u32);
            *at += 1;
        }
        Topology {
            nodes: self.nodes,
            links: self.links,
            adj_off,
            adj,
            hosts: self.hosts,
            phys_count: self.phys_count,
        }
    }
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Parameters for the INET-like preferential-attachment generator.
///
/// The paper's experiments run over "20,000-node INET topologies with
/// varying numbers of clients (200–1000)". INET grows an AS-level graph
/// whose degree distribution follows a power law; we reproduce that with
/// linear preferential attachment (Barabási–Albert) and then attach client
/// hosts to low-degree (edge) routers via constrained access links.
#[derive(Clone, Debug)]
pub struct InetParams {
    pub routers: usize,
    pub clients: usize,
    /// Edges added per new router (m in BA terms).
    pub edges_per_router: usize,
    /// Core link delay range (uniform).
    pub core_delay_ms: (u64, u64),
    /// Client access-link bandwidth range (uniform, bps).
    pub access_bw_bps: (u64, u64),
    /// Core link bandwidth (bps).
    pub core_bw_bps: u64,
}

impl Default for InetParams {
    fn default() -> Self {
        InetParams {
            routers: 2_000,
            clients: 200,
            edges_per_router: 2,
            core_delay_ms: (2, 40),
            // Paper-era client links: ~1-10 Mbps.
            access_bw_bps: (1_000_000, 10_000_000),
            core_bw_bps: 155_000_000,
        }
    }
}

impl InetParams {
    /// A smaller configuration for unit and integration tests.
    pub fn test_scale(clients: usize) -> InetParams {
        InetParams {
            routers: 200,
            clients,
            ..Default::default()
        }
    }
}

/// Generate an INET-like topology. Deterministic for a given RNG state.
pub fn inet(params: &InetParams, rng: &mut SimRng) -> Topology {
    assert!(params.routers >= 3, "need at least 3 routers");
    assert!(params.edges_per_router >= 1);
    let m = params.edges_per_router;
    /// Target draws a new router gets before it settles for fewer links.
    const MAX_DRAWS: usize = 64;
    // Capacity only: a router never gets more links than draws.
    let core_links = 3 + (params.routers - 3) * m.min(MAX_DRAWS);
    let mut b = TopologyBuilder::with_capacity(
        params.routers + params.clients,
        core_links + params.clients,
    );

    let mut routers = Vec::with_capacity(params.routers);
    // Seed triangle.
    for _ in 0..3 {
        routers.push(b.add_router());
    }
    let core = |rng: &mut SimRng, p: &InetParams| {
        let (lo, hi) = p.core_delay_ms;
        LinkSpec::new(
            Duration::from_millis(rng.gen_range(hi - lo + 1) + lo),
            p.core_bw_bps,
            256 * 1024,
        )
    };
    b.add_link(routers[0], routers[1], core(rng, params));
    b.add_link(routers[1], routers[2], core(rng, params));
    b.add_link(routers[2], routers[0], core(rng, params));

    // Degree-weighted target list: node appears once per incident edge.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * core_links);
    endpoints.extend([
        routers[0], routers[1], routers[1], routers[2], routers[2], routers[0],
    ]);

    let mut chosen: Vec<NodeId> = Vec::new();
    while routers.len() < params.routers {
        let r = b.add_router();
        chosen.clear();
        let mut guard = 0;
        while chosen.len() < m && guard < MAX_DRAWS {
            let t = *rng.choose(&endpoints);
            if !chosen.contains(&t) {
                chosen.push(t);
            }
            guard += 1;
        }
        for t in &chosen {
            b.add_link(r, *t, core(rng, params));
            endpoints.push(r);
            endpoints.push(*t);
        }
        routers.push(r);
    }

    // Attach clients to low-degree routers ("edge" of the AS graph). We
    // sample candidates and keep the lowest-degree one, approximating
    // INET's placement of hosts at stub ASes.
    for _ in 0..params.clients {
        let host = b.add_host();
        let mut best = routers[rng.index(routers.len())];
        for _ in 0..3 {
            let cand = routers[rng.index(routers.len())];
            if b.degree(cand) < b.degree(best) {
                best = cand;
            }
        }
        let (lo, hi) = params.access_bw_bps;
        let bw = rng.gen_range(hi - lo + 1) + lo;
        b.add_link(host, best, LinkSpec::access(bw));
    }

    b.build()
}

/// Canned topologies for tests and examples.
pub mod canned {
    use super::*;

    /// Two hosts joined by one router.
    pub fn two_hosts(spec: LinkSpec) -> Topology {
        let mut b = TopologyBuilder::new();
        let r = b.add_router();
        let a = b.add_host();
        let c = b.add_host();
        b.add_link(a, r, spec);
        b.add_link(c, r, spec);
        b.build()
    }

    /// `n` hosts hanging off one central router.
    pub fn star(n: usize, spec: LinkSpec) -> Topology {
        let mut b = TopologyBuilder::with_capacity(n + 1, n);
        let hub = b.add_router();
        for _ in 0..n {
            let h = b.add_host();
            b.add_link(h, hub, spec);
        }
        b.build()
    }

    /// A line of `n` routers, a host at each end.
    pub fn line(n: usize, spec: LinkSpec) -> Topology {
        assert!(n >= 1);
        let mut b = TopologyBuilder::new();
        let routers: Vec<NodeId> = (0..n).map(|_| b.add_router()).collect();
        for w in routers.windows(2) {
            b.add_link(w[0], w[1], spec);
        }
        let a = b.add_host();
        let z = b.add_host();
        b.add_link(a, routers[0], spec);
        b.add_link(z, routers[n - 1], spec);
        b.build()
    }

    /// Classic dumbbell: `n` hosts each side of a bottleneck link.
    pub fn dumbbell(n: usize, edge: LinkSpec, bottleneck: LinkSpec) -> Topology {
        let mut b = TopologyBuilder::new();
        let left = b.add_router();
        let right = b.add_router();
        b.add_link(left, right, bottleneck);
        for _ in 0..n {
            let h = b.add_host();
            b.add_link(h, left, edge);
        }
        for _ in 0..n {
            let h = b.add_host();
            b.add_link(h, right, edge);
        }
        b.build()
    }

    /// A ring of `n` routers, one host per router.
    pub fn ring(n: usize, spec: LinkSpec) -> Topology {
        assert!(n >= 3);
        let mut b = TopologyBuilder::new();
        let routers: Vec<NodeId> = (0..n).map(|_| b.add_router()).collect();
        for i in 0..n {
            b.add_link(routers[i], routers[(i + 1) % n], spec);
        }
        for &r in &routers {
            let h = b.add_host();
            b.add_link(h, r, spec);
        }
        b.build()
    }

    /// A w×h router grid (Manhattan links), one host per corner router.
    pub fn grid(w: usize, h: usize, spec: LinkSpec) -> Topology {
        assert!(w >= 2 && h >= 2);
        let mut b = TopologyBuilder::new();
        let mut routers = Vec::with_capacity(w * h);
        for _ in 0..w * h {
            routers.push(b.add_router());
        }
        let at = |x: usize, y: usize| routers[y * w + x];
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    b.add_link(at(x, y), at(x + 1, y), spec);
                }
                if y + 1 < h {
                    b.add_link(at(x, y), at(x, y + 1), spec);
                }
            }
        }
        for &(x, y) in &[(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)] {
            let host = b.add_host();
            b.add_link(host, at(x, y), spec);
        }
        b.build()
    }

    /// `n` hosts, every pair directly connected (no routers).
    pub fn full_mesh(n: usize, spec: LinkSpec) -> Topology {
        assert!(n >= 2);
        let mut b = TopologyBuilder::new();
        let hosts: Vec<NodeId> = (0..n).map(|_| b.add_host()).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_link(hosts[i], hosts[j], spec);
            }
        }
        b.build()
    }

    /// The NICE validation topology: `sites.len()` sites, with
    /// `members_per_site` hosts each behind a site router; site routers are
    /// fully meshed with the given inter-site latencies (ms);
    /// `sites[i][j]` is the latency between site i and site j.
    pub fn sites(latency_ms: &[Vec<u64>], members_per_site: usize, lan: LinkSpec) -> Topology {
        let n = latency_ms.len();
        let mut b = TopologyBuilder::new();
        let routers: Vec<NodeId> = (0..n).map(|_| b.add_router()).collect();
        for i in 0..n {
            assert_eq!(latency_ms[i].len(), n, "latency matrix must be square");
            for j in (i + 1)..n {
                let spec = LinkSpec::wan(Duration::from_millis(latency_ms[i][j]));
                b.add_link(routers[i], routers[j], spec);
            }
        }
        for &r in &routers {
            for _ in 0..members_per_site {
                let h = b.add_host();
                b.add_link(h, r, lan);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_basics() {
        let mut b = TopologyBuilder::new();
        let r = b.add_router();
        let h1 = b.add_host();
        let h2 = b.add_host();
        b.add_link(h1, r, LinkSpec::lan());
        b.add_link(h2, r, LinkSpec::lan());
        let t = b.build();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 4); // two full-duplex links
        assert_eq!(t.num_phys_links(), 2);
        assert_eq!(t.hosts(), &[h1, h2]);
        assert_eq!(t.kind(r), NodeKind::Router);
        assert!(t.is_host(h1));
        assert_eq!(t.degree(r), 2);
    }

    /// The flat adjacency must read exactly as the per-node lists it
    /// replaced: each node's half-links in creation order, and the two
    /// halves of a cable at ids `l` and `l ^ 1`.
    fn assert_csr_matches_insertion_order(t: &Topology) {
        let mut model: Vec<Vec<LinkId>> = vec![Vec::new(); t.num_nodes()];
        for (id, l) in t.links().iter().enumerate() {
            model[l.from.index()].push(LinkId(id as u32));
        }
        for (n, expect) in model.iter().enumerate() {
            let n = NodeId(n as u32);
            assert_eq!(t.outgoing(n), &expect[..], "{n:?}");
            assert_eq!(t.degree(n), expect.len());
        }
        for id in 0..t.num_links() as u32 {
            let (l, r) = (LinkId(id), t.reverse(LinkId(id)));
            assert_eq!(r, LinkId(id ^ 1));
            assert_eq!(t.link(r).from, t.link(l).to);
            assert_eq!(t.link(r).to, t.link(l).from);
            assert_eq!(t.link(r).phys, t.link(l).phys);
        }
    }

    #[test]
    fn csr_adjacency_keeps_insertion_order() {
        assert_csr_matches_insertion_order(&inet(&InetParams::test_scale(25), &mut SimRng::new(7)));
        assert_csr_matches_insertion_order(&canned::star(9, LinkSpec::lan()));
        assert_csr_matches_insertion_order(&canned::dumbbell(
            3,
            LinkSpec::lan(),
            LinkSpec::wan(Duration::from_millis(10)),
        ));
        // A multigraph: parallel cables, links added in an order that
        // interleaves sources, and an isolated node in the middle.
        let mut b = TopologyBuilder::new();
        let r0 = b.add_router();
        let h0 = b.add_host();
        let _isolated = b.add_router();
        let r1 = b.add_router();
        b.add_link(r1, r0, LinkSpec::lan());
        b.add_link(h0, r0, LinkSpec::lan());
        b.add_link(r0, r1, LinkSpec::wan(Duration::from_millis(3)));
        b.add_link(r1, r0, LinkSpec::lan());
        assert_eq!(b.degree(r0), 4);
        let t = b.build();
        assert_eq!(
            t.outgoing(r0),
            &[LinkId(1), LinkId(3), LinkId(4), LinkId(7)]
        );
        assert!(t.outgoing(NodeId(2)).is_empty());
        assert_csr_matches_insertion_order(&t);
        assert_csr_matches_insertion_order(&TopologyBuilder::new().build());
    }

    #[test]
    fn links_are_bidirectional() {
        let t = canned::two_hosts(LinkSpec::lan());
        let h = t.hosts()[0];
        assert_eq!(t.outgoing(h).len(), 1);
        let l = t.link(t.outgoing(h)[0]);
        assert_eq!(l.from, h);
        // reverse half exists on the router
        let r = l.to;
        assert!(t.outgoing(r).iter().any(|&lid| t.link(lid).to == h));
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new();
        let r = b.add_router();
        b.add_link(r, r, LinkSpec::lan());
    }

    #[test]
    fn inet_shape() {
        let mut rng = SimRng::new(1);
        let p = InetParams {
            routers: 100,
            clients: 20,
            ..Default::default()
        };
        let t = inet(&p, &mut rng);
        assert_eq!(t.hosts().len(), 20);
        assert_eq!(t.num_nodes(), 120);
        // connected: every node has at least one link
        for i in 0..t.num_nodes() {
            assert!(t.degree(NodeId(i as u32)) >= 1, "node {i} disconnected");
        }
    }

    #[test]
    fn inet_is_deterministic() {
        let p = InetParams::test_scale(10);
        let t1 = inet(&p, &mut SimRng::new(99));
        let t2 = inet(&p, &mut SimRng::new(99));
        assert_eq!(t1.num_links(), t2.num_links());
        for (a, b) in t1.links().iter().zip(t2.links()) {
            assert_eq!(a.from, b.from);
            assert_eq!(a.to, b.to);
            assert_eq!(a.delay, b.delay);
        }
    }

    #[test]
    fn inet_degree_distribution_is_skewed() {
        let mut rng = SimRng::new(3);
        let p = InetParams {
            routers: 500,
            clients: 0,
            ..Default::default()
        };
        let t = inet(&p, &mut rng);
        let mut degrees: Vec<usize> = (0..t.num_nodes())
            .map(|i| t.degree(NodeId(i as u32)))
            .collect();
        degrees.sort_unstable();
        let max = *degrees.last().unwrap();
        let median = degrees[degrees.len() / 2];
        // Preferential attachment: hubs should be much larger than median.
        assert!(max >= media_floor(median), "max={max} median={median}");
        fn media_floor(m: usize) -> usize {
            m * 4
        }
    }

    #[test]
    fn star_topology() {
        let t = canned::star(5, LinkSpec::lan());
        assert_eq!(t.hosts().len(), 5);
        assert_eq!(t.num_phys_links(), 5);
        assert_eq!(t.degree(NodeId(0)), 5);
    }

    #[test]
    fn dumbbell_topology() {
        let t = canned::dumbbell(3, LinkSpec::lan(), LinkSpec::wan(Duration::from_millis(10)));
        assert_eq!(t.hosts().len(), 6);
        assert_eq!(t.num_phys_links(), 7);
    }

    #[test]
    fn ring_topology() {
        let t = canned::ring(5, LinkSpec::lan());
        assert_eq!(t.hosts().len(), 5);
        assert_eq!(t.num_phys_links(), 10); // 5 ring + 5 access
        let mut r = crate::routing::Router::new();
        // Opposite hosts are 2-3 router hops + 2 access hops apart.
        let hs = t.hosts().to_vec();
        let hops = r.hop_count(&t, hs[0], hs[2]).unwrap();
        assert_eq!(hops, 4);
    }

    #[test]
    fn grid_topology() {
        let t = canned::grid(3, 3, LinkSpec::lan());
        assert_eq!(t.hosts().len(), 4);
        // 12 grid links + 4 access links.
        assert_eq!(t.num_phys_links(), 16);
        let mut r = crate::routing::Router::new();
        let hs = t.hosts().to_vec();
        // Diagonal corners: 4 manhattan hops + 2 access.
        assert_eq!(r.hop_count(&t, hs[0], hs[3]).unwrap(), 6);
    }

    #[test]
    fn full_mesh_topology() {
        let t = canned::full_mesh(4, LinkSpec::lan());
        assert_eq!(t.hosts().len(), 4);
        assert_eq!(t.num_phys_links(), 6);
        let mut r = crate::routing::Router::new();
        let hs = t.hosts().to_vec();
        assert_eq!(r.hop_count(&t, hs[0], hs[3]).unwrap(), 1);
    }

    #[test]
    fn sites_topology() {
        let lat = vec![vec![0, 30, 60], vec![30, 0, 45], vec![60, 45, 0]];
        let t = canned::sites(&lat, 4, LinkSpec::lan());
        assert_eq!(t.hosts().len(), 12);
        // 3 site routers fully meshed: 3 phys links + 12 access links
        assert_eq!(t.num_phys_links(), 15);
    }
}
