//! Shortest-path routing over the topology.
//!
//! Packets are forwarded hop-by-hop along latency-weighted shortest
//! paths. Routing state is one **next-hop table per anchor**, computed
//! lazily by running Dijkstra *from the destination* over reversed edges
//! (link delays are symmetric here, so forward and reverse trees
//! coincide), then cached.
//!
//! **Leaves are not in the tables.** A degree-1 node has exactly one way
//! out and exactly one way in, so
//!
//! * a walk that *starts* at one takes its sole link — no lookup;
//! * a walk that *ends* at one is a walk to its sole neighbor (its
//!   *gateway*, the **anchor** of the walk) plus the final access hop
//!   ([`Topology::reverse`] of the leaf's uplink — O(1) by the half-link
//!   layout invariant);
//! * and it can never be an interior hop, nor can Dijkstra ever relax
//!   anything through it.
//!
//! Tables are therefore built for, and indexed by, **core nodes** only —
//! degree ≥ 2, whatever their kind (a host of a full mesh is core) — and
//! a star never builds one. A table is one `Box<[u8]>` holding a 4-bit
//! entry per core node, two to a byte: the position of its next-hop
//! half-link within its own [`Topology::outgoing`] slice, 0–14, or 15,
//! the *escape*. A core node with more than 15 outgoing positions is a
//! **hub**; every hub also has a `u16` entry (its position, or `u16::MAX`
//! for none) in a side array at the end of the same allocation, read when
//! its nibble escapes. An escape at a non-hub means no next hop. On a
//! 20,000-router INET graph 465 routers are hubs, so a table is 10,930 B
//! and 300 clients' tables weigh 3.1 MiB. A hub's half-link at position
//! 65,535 or beyond is refused when the core is built; a star hub has no
//! core neighbours at all. Distances are not stored:
//! [`Router::dist`] sums the link delays of the walk, which *is* the
//! Dijkstra distance.
//!
//! **What is built when.** [`Router::new`] allocates nothing. The first
//! walk labels connected components (so the leaf shortcut can never
//! bounce a packet destined to another component). The first walk that
//! crosses a core node other than its anchor builds the `Core` — the
//! node → core index, the hub ranks and a packed core-to-core adjacency
//! — with a Dijkstra scratch, and, in the same call, the tree of every
//! **host anchor**: each distinct anchor of [`Topology::hosts`], since
//! only those can end a host-to-host walk. That batch is split into
//! contiguous chunks across [`std::thread::available_parallelism`]
//! scoped threads, never more threads than trees and none for less than
//! `MIN_SETTLES` node settlings of work, so a small graph's batch stays
//! on the calling thread. The calling thread allocates every table and
//! every worker's scratch, and builds its own chunk with its own
//! scratch; a tree is a pure function of the topology, so no thread
//! count or order can change a table. Any other anchor (a walk to a
//! router that no host hangs off) is built alone on its first miss: one
//! Dijkstra over the packed adjacency with the scratch reused, then one
//! pass packing its `u16` next hops into nibbles. A walk resolves
//! reachability, anchor and table **once** (`Router::route`) and then
//! follows the slice.
//!
//! Why a batch: a 300-client run on the 20,000-router INET graph needs
//! 300 trees at ~1.75 ms each. Built one at a time on the simulation
//! thread they were ~0.55 s of a ~1.1 s run; with them prebuilt outside
//! the timed run, the run itself took 0.56 s. In one batch on two
//! threads they take ~0.29 s, and the run ~0.77 s where it took ~1.05 s
//! (2-core Xeon VM).
//!
//! **The tie-break invariant.** Core delays are whole milliseconds, so
//! equal-cost paths are the norm, and which one a packet takes decides
//! every queue it meets. The trees are defined by: settle nodes in
//! `(distance ascending, node id descending)` order among those queued,
//! relax with strict `<`, scan each node's links in the topology's CSR
//! (creation) order. The packed adjacency keeps CSR order and core
//! indices ascend with node ids, so the queue key `(distance, !core)`
//! reproduces it; `tests/prop.rs` holds the dense all-nodes Dijkstra
//! this replaced and requires equality with it, ties included.
//!
//! Queue keys carry the distance in 32 bits of microseconds. A path
//! longer than that (71 minutes of propagation) is not wrapped: it is
//! never relaxed, so the far side reads as unreachable.
//!
//! The same machinery doubles as the **latency oracle** used by the
//! evaluation framework to compute stretch and RDP: `dist(src, dst)` is
//! the uncongested one-way propagation latency of the best IP path.

use crate::topology::{Link, LinkId, NodeId, Topology};
use macedon_sim::Duration;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroUsize;
use std::thread;

/// "No entry" in the `u32` tables: not a core node, not reached, not a
/// hub.
const NONE: u32 = u32::MAX;
/// "No next hop" in a `u16` entry: the anchor itself, or unreachable.
const NO_HOP: u16 = u16::MAX;
/// The nibble that defers to a hub's side entry, and at a non-hub means
/// no next hop. Positions below it are stored as they are.
const ESCAPE: u8 = 15;
/// Node settlings (trees × core nodes) a thread of a batch must have
/// ahead of it to be spawned: 2^16 is ~6 ms of Dijkstra at ~90 ns a
/// settling on the 20,000-router INET graph, against 20–35 µs to spawn
/// and join a scoped thread (2-core Xeon VM).
const MIN_SETTLES: usize = 1 << 16;

/// Hop-by-hop router with lazy per-anchor next-hop tables.
pub struct Router {
    /// Connected-component label per node, built lazily (None = stale).
    comps: Option<Vec<u32>>,
    /// Everything tree-shaped, built on the first tree miss.
    tables: Option<Box<Tables>>,
}

/// The core graph, the next-hop tables built over it and the calling
/// thread's Dijkstra scratch.
struct Tables {
    core: Core,
    /// Anchor's core index → 1 + position in `trees` (0 = not built),
    /// the `pipeline::LinkTable` idiom.
    tree_of: Vec<u32>,
    /// Per anchor: every core node's next hop toward it, packed by
    /// [`Core::pack`] and read by [`Core::entry`].
    trees: Vec<Box<[u8]>>,
    scratch: Scratch,
}

/// The core graph (nodes of degree ≥ 2). Read-only once built: every
/// thread of a batch shares it.
struct Core {
    /// Node → core index ([`NONE`] for degree ≤ 1). Ascends with node id.
    of_node: Vec<u32>,
    /// Core index → rank among the hubs, i.e. where its `u16` entry sits
    /// in a table's side array ([`NONE`] for a non-hub).
    hub_of: Vec<u32>,
    hubs: usize,
    /// Packed core-to-core adjacency, CSR: core node `c`'s half-links are
    /// `half[off[c]..off[c + 1]]`, in the topology's order.
    off: Vec<u32>,
    half: Vec<Half>,
    /// The largest `Half::delay`, which sizes a [`Queue`]'s bands.
    max_delay: u32,
}

/// One thread's Dijkstra scratch, reused across trees: distances, and
/// each core node's next hop as a position in its `Topology::outgoing`
/// ([`NO_HOP`] at the root and where unreachable).
struct Scratch {
    dist: Vec<u32>,
    hop: Vec<u16>,
    queue: Queue,
}

/// One core-to-core half-link as Dijkstra needs it.
#[derive(Clone, Copy)]
struct Half {
    to: u32,
    /// Microseconds, saturated (a saturated link is never relaxed).
    delay: u32,
    /// The opposite half's position in `to`'s `Topology::outgoing`: the
    /// next hop *from* `to`.
    rev: u16,
}

/// Dijkstra's queue, exact on the key `(distance, !core index)`. Every
/// queued distance lies within one maximum link delay of the last
/// popped one, so distances are cut into `width`-wide bands on a circle
/// of `BANDS` (a push lands at most `BANDS - 1` bands ahead: bands never
/// alias). A band is an unordered `Vec` until the circle reaches it; it
/// is then sorted once and popped from its end. A push into the current
/// band — along a link shorter than a band, zero-delay ones included —
/// goes to a heap beside it, and a pop takes the smaller of the two
/// heads. With whole-millisecond delays of at most 63 ms (INET's are
/// 2–40) a band is one distance, a few dozen nodes, and only the root
/// and zero-delay links use the heap.
struct Queue {
    /// The bands, indexed modulo `BANDS`; the current one is sorted
    /// descending. Every buffer stays in its own slot across trees.
    bands: Vec<Vec<u64>>,
    /// Keys pushed into the current band after it was sorted.
    heap: BinaryHeap<Reverse<u64>>,
    width: u32,
    /// The current band, not reduced modulo `BANDS`.
    cur: usize,
    len: usize,
    /// The most keys any band has held, over every tree this queue
    /// built.
    longest: usize,
}

impl Queue {
    const BANDS: usize = 64;

    fn new(max_delay: u32) -> Queue {
        Queue {
            bands: vec![Vec::new(); Self::BANDS],
            heap: BinaryHeap::new(),
            // max_delay / width <= BANDS - 2.
            width: max_delay / (Self::BANDS as u32 - 1) + 1,
            cur: 0,
            len: 0,
            longest: 0,
        }
    }

    /// Grow every band's buffer to the longest band seen, and return an
    /// empty queue whose buffers start as large. The circle wraps at a
    /// band width unrelated to the delays, so over a batch every slot
    /// meets the densest distances: on the 20,000-router INET graph the
    /// longest band holds 673 keys in the first tree and 719 over all
    /// 300 anchors' trees. One allocation each replaces a growth chain.
    fn fork(&mut self) -> Queue {
        let most = self.longest;
        for band in &mut self.bands {
            band.reserve_exact(most - band.len());
        }
        Queue {
            bands: (0..Self::BANDS).map(|_| Vec::with_capacity(most)).collect(),
            heap: BinaryHeap::with_capacity(self.heap.capacity()),
            width: self.width,
            cur: 0,
            len: 0,
            longest: self.longest,
        }
    }

    fn push(&mut self, dist: u32, core: u32) {
        let key = (dist as u64) << 32 | !core as u64;
        let band = (dist / self.width) as usize % Self::BANDS;
        if band == self.cur % Self::BANDS {
            self.heap.push(Reverse(key));
        } else {
            let band = &mut self.bands[band];
            if band.len() == band.capacity() {
                // A band catching up grows straight to the longest band
                // seen, never past it; only one setting a new record
                // doubles, as a `Vec` would.
                let to = match band.len() < self.longest {
                    true => self.longest,
                    false => (2 * band.len()).max(4),
                };
                band.reserve_exact(to - band.len());
            }
            band.push(key);
            self.longest = self.longest.max(band.len());
        }
        self.len += 1;
    }

    /// The queued `(distance, core index)` with the smallest distance,
    /// then the largest index. An emptied queue is ready for the next
    /// tree.
    fn pop(&mut self) -> Option<(u32, u32)> {
        if self.len == 0 {
            self.cur = 0;
            return None;
        }
        self.len -= 1;
        loop {
            let band = &mut self.bands[self.cur % Self::BANDS];
            let key = match (band.last(), self.heap.peek()) {
                (None, None) => {
                    self.cur += 1;
                    self.bands[self.cur % Self::BANDS].sort_unstable_by(|a, b| b.cmp(a));
                    continue;
                }
                (Some(&b), Some(&Reverse(h))) if h < b => self.heap.pop().map(|Reverse(h)| h),
                (Some(_), _) => band.pop(),
                (None, Some(_)) => self.heap.pop().map(|Reverse(h)| h),
            };
            let key = key.expect("a head was seen");
            return Some(((key >> 32) as u32, !(key as u32)));
        }
    }
}

impl Scratch {
    fn new(core: &Core) -> Scratch {
        let cores = core.hub_of.len();
        Scratch {
            dist: vec![NONE; cores],
            hop: vec![NO_HOP; cores],
            queue: Queue::new(core.max_delay),
        }
    }

    /// Another thread's scratch, allocated here (see [`Queue::fork`]).
    fn fork(&mut self) -> Scratch {
        Scratch {
            dist: vec![NONE; self.dist.len()],
            hop: vec![NO_HOP; self.hop.len()],
            queue: self.queue.fork(),
        }
    }
}

impl Core {
    fn new(topo: &Topology) -> Core {
        let mut of_node = vec![NONE; topo.num_nodes()];
        let mut cores = 0u32;
        for (n, slot) in of_node.iter_mut().enumerate() {
            if topo.degree(NodeId(n as u32)) >= 2 {
                *slot = cores;
                cores += 1;
            }
        }
        let core_nodes = || {
            of_node
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != NONE)
                .map(|(n, _)| NodeId(n as u32))
        };
        let mut hub_of = Vec::with_capacity(cores as usize);
        let mut hubs = 0;
        for n in core_nodes() {
            hub_of.push(if topo.degree(n) > ESCAPE as usize {
                hubs += 1;
                hubs - 1
            } else {
                NONE
            });
        }
        // Each core half-link's position in its node's `outgoing()`
        // ([`NO_HOP`] for every other half-link). Past position 14 only
        // a hub's `u16` entry can hold it.
        let mut pos = vec![NO_HOP; topo.num_links()];
        for n in core_nodes() {
            for (p, &lid) in topo.outgoing(n).iter().enumerate() {
                if of_node[topo.link(lid).to.index()] != NONE {
                    assert!(
                        p < NO_HOP as usize,
                        "core node {n:?} has a core half-link at position {p}, \
                         past what a hub's u16 route-table entry can index",
                    );
                    pos[lid.index()] = p as u16;
                }
            }
        }
        let mut off = Vec::with_capacity(cores as usize + 1);
        let mut half = Vec::with_capacity(topo.num_links());
        let mut max_delay = 0;
        off.push(0);
        for n in core_nodes() {
            for &lid in topo.outgoing(n) {
                if pos[lid.index()] != NO_HOP {
                    let l = topo.link(lid);
                    let delay = u32::try_from(l.delay.as_micros()).unwrap_or(u32::MAX);
                    max_delay = max_delay.max(delay);
                    half.push(Half {
                        to: of_node[l.to.index()],
                        delay,
                        rev: pos[topo.reverse(lid).index()],
                    });
                }
            }
            off.push(half.len() as u32);
        }
        Core {
            of_node,
            hub_of,
            hubs: hubs as usize,
            off,
            half,
            max_delay,
        }
    }

    /// The core index of every distinct host anchor, ascending: the only
    /// anchors a host-to-host walk can end at.
    fn host_roots(&self, topo: &Topology) -> Vec<u32> {
        let mut roots: Vec<u32> = topo
            .hosts()
            .iter()
            .filter_map(|&h| Router::anchor(topo, h))
            .map(|(anchor, _)| self.of_node[anchor.index()])
            .filter(|&c| c != NONE)
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    /// Bytes in one table: a nibble per core node, a `u16` per hub.
    fn table_len(&self) -> usize {
        self.hub_of.len().div_ceil(2) + 2 * self.hubs
    }

    /// Dijkstra rooted at core node `root`, packed into `table`: because
    /// every link is materialized in both directions with equal delay,
    /// relaxing over *outgoing* links from the root yields distances
    /// valid in both directions; the next hop at `v` is the reverse
    /// half-link of the tree edge that relaxed `v`.
    fn build(&self, s: &mut Scratch, root: u32, table: &mut [u8]) {
        s.dist.fill(NONE);
        s.hop.fill(NO_HOP);
        s.dist[root as usize] = 0;
        s.queue.push(0, root);
        while let Some((d, u)) = s.queue.pop() {
            if d > s.dist[u as usize] {
                continue;
            }
            let links = self.off[u as usize] as usize..self.off[u as usize + 1] as usize;
            for h in &self.half[links] {
                // A sum past the key width fails this test against even
                // the NONE sentinel: never wrapped, never relaxed.
                let nd = d as u64 + h.delay as u64;
                if nd < s.dist[h.to as usize] as u64 {
                    s.dist[h.to as usize] = nd as u32;
                    s.hop[h.to as usize] = h.rev;
                    s.queue.push(nd as u32, h.to);
                }
            }
        }
        self.pack(&s.hop, table);
    }

    /// Build each of `roots` into the table beside it, in order.
    fn build_all(&self, s: &mut Scratch, roots: &[u32], tables: &mut [Box<[u8]>]) {
        for (&root, table) in roots.iter().zip(tables) {
            self.build(s, root, table);
        }
    }

    /// The tree in `hop` as a table: a nibble per core node, the low one
    /// first, then a little-endian `u16` per hub in rank order.
    fn pack(&self, hop: &[u16], table: &mut [u8]) {
        let (packed, side) = table.split_at_mut(hop.len().div_ceil(2));
        let nibble = |hop: u16| hop.min(ESCAPE as u16) as u8;
        for (byte, pair) in packed.iter_mut().zip(hop.chunks(2)) {
            *byte = pair.iter().rev().fold(0, |b, &hop| b << 4 | nibble(hop));
        }
        for (&hop, &hub) in hop.iter().zip(&self.hub_of) {
            if hub != NONE {
                let at = 2 * hub as usize;
                side[at..at + 2].copy_from_slice(&hop.to_le_bytes());
            }
        }
    }

    /// Core node `c`'s next hop in `table`, as a position in its
    /// `Topology::outgoing`; `None` at the root and where unreachable.
    fn entry(&self, table: &[u8], c: u32) -> Option<usize> {
        let c = c as usize;
        let nibble = (table[c / 2] >> (c % 2 * 4)) & ESCAPE;
        if nibble != ESCAPE {
            return Some(nibble as usize);
        }
        self.side_entry(table, c)
    }

    /// [`Core::entry`] past an escape. Kept out of line: inlined, it
    /// made the route-once walk over the 20,000-router INET graph's
    /// 300 tables about 1.5× slower per hop (2-core Xeon VM).
    #[inline(never)]
    fn side_entry(&self, table: &[u8], c: usize) -> Option<usize> {
        let hub = self.hub_of[c];
        if hub == NONE {
            return None;
        }
        let at = self.hub_of.len().div_ceil(2) + 2 * hub as usize;
        let hop = u16::from_le_bytes([table[at], table[at + 1]]);
        (hop != NO_HOP).then_some(hop as usize)
    }
}

impl Tables {
    /// No table yet.
    fn new(core: Core) -> Tables {
        Tables {
            tree_of: vec![0; core.hub_of.len()],
            trees: Vec::new(),
            scratch: Scratch::new(&core),
            core,
        }
    }

    /// The core of `topo` and the tree of every host anchor.
    fn with_host_trees(topo: &Topology) -> Tables {
        let mut tables = Tables::new(Core::new(topo));
        let roots = tables.core.host_roots(topo);
        tables.build(&roots, workers(roots.len(), tables.tree_of.len()));
        tables
    }

    /// Build the trees rooted at `roots`, none of them built yet, on at
    /// most `workers` threads. This thread allocates every table, builds
    /// the first tree alone, then forks each worker's scratch from its
    /// own; the other roots split into contiguous chunks, one a thread,
    /// this thread taking the first.
    fn build(&mut self, roots: &[u32], workers: usize) {
        let first = self.trees.len();
        let len = self.core.table_len();
        self.trees.reserve(roots.len());
        for &root in roots {
            self.trees.push(vec![0; len].into_boxed_slice());
            self.tree_of[root as usize] = self.trees.len() as u32;
        }
        let Some((&head, rest)) = roots.split_first() else {
            return;
        };
        let (head_table, rest_tables) = self.trees[first..]
            .split_first_mut()
            .expect("a table per root");
        let core = &self.core;
        core.build(&mut self.scratch, head, head_table);
        let chunk = rest.len().div_ceil(workers.max(1)).max(1);
        let mut jobs = rest.chunks(chunk).zip(rest_tables.chunks_mut(chunk));
        let Some((my_roots, my_tables)) = jobs.next() else {
            return;
        };
        let mut spawned: Vec<_> = jobs.map(|job| (job, self.scratch.fork())).collect();
        if spawned.is_empty() {
            return core.build_all(&mut self.scratch, my_roots, my_tables);
        }
        thread::scope(|s| {
            for ((roots, tables), scratch) in &mut spawned {
                s.spawn(move || core.build_all(scratch, roots, tables));
            }
            core.build_all(&mut self.scratch, my_roots, my_tables);
        });
    }
}

/// Threads for a batch of `trees` trees over `cores` core nodes: one a
/// CPU, but never more than trees, nor more than one a [`MIN_SETTLES`]
/// node settlings.
fn workers(trees: usize, cores: usize) -> usize {
    let cap = (trees.saturating_mul(cores) / MIN_SETTLES).min(trees);
    if cap < 2 {
        return 1;
    }
    thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(cap)
}

/// A walk toward one destination with everything resolved: follow it
/// with [`Route::next`].
pub(crate) struct Route<'r> {
    anchor: NodeId,
    /// The access hop from the anchor to a leaf destination.
    last_hop: Option<LinkId>,
    /// The core and the anchor's table; `None` when the walk is leaf →
    /// anchor → leaf and needs neither.
    tree: Option<(&'r Core, &'r [u8])>,
}

impl Route<'_> {
    /// Next outgoing link from `at`, or `None` at the destination (or
    /// where the table has no path).
    pub(crate) fn next(&self, topo: &Topology, at: NodeId) -> Option<LinkId> {
        if at == self.anchor {
            return self.last_hop;
        }
        let out = topo.outgoing(at);
        if let [only] = *out {
            return Some(only);
        }
        let (core, tree) = self.tree?;
        core.entry(tree, core.of_node[at.index()])
            .map(|hop| out[hop])
    }
}

impl Router {
    pub fn new() -> Router {
        Router {
            comps: None,
            tables: None,
        }
    }

    /// Are two nodes in the same connected component? O(1) after a lazy
    /// O(nodes + links) labelling pass.
    fn connected(&mut self, topo: &Topology, a: NodeId, b: NodeId) -> bool {
        let comps = self.comps.get_or_insert_with(|| components(topo));
        comps[a.index()] == comps[b.index()]
    }

    /// Resolve a leaf destination to its anchor: `(anchor, final hop)`.
    /// A degree-1 node is entered through its gateway; multi-degree
    /// nodes are their own anchor.
    fn anchor(topo: &Topology, dst: NodeId) -> Option<(NodeId, Option<LinkId>)> {
        match *topo.outgoing(dst) {
            [up] => Some((topo.link(up).to, Some(topo.reverse(up)))),
            [] => None, // isolated: unreachable unless src == dst
            _ => Some((dst, None)),
        }
    }

    /// Resolve a walk from `at` to `dst`: `None` if there is none to
    /// make (already there, or another component). The anchor's table is
    /// fetched — built, on a miss — only if the walk will read it: a
    /// walk that begins at the anchor, or at a leaf hanging off it,
    /// never does. The first miss builds every host anchor's table.
    pub(crate) fn route(&mut self, topo: &Topology, at: NodeId, dst: NodeId) -> Option<Route<'_>> {
        if at == dst || !self.connected(topo, at, dst) {
            return None;
        }
        let (anchor, last_hop) = Self::anchor(topo, dst)?;
        let enters_at = match *topo.outgoing(at) {
            [only] if at != anchor => topo.link(only).to,
            _ => at,
        };
        let tree = if enters_at == anchor {
            None
        } else {
            // The anchor is core: were it a leaf, its component would be
            // it and `dst` alone, and `at` one of the two.
            let tables = self
                .tables
                .get_or_insert_with(|| Box::new(Tables::with_host_trees(topo)));
            let a = tables.core.of_node[anchor.index()];
            if tables.tree_of[a as usize] == 0 {
                tables.build(&[a], 1);
            }
            let tree = &tables.trees[tables.tree_of[a as usize] as usize - 1];
            Some((&tables.core, &tree[..]))
        };
        Some(Route {
            anchor,
            last_hop,
            tree,
        })
    }

    /// Walk from `src` to `dst`, handing every link crossed to `visit`.
    /// `None` if unreachable.
    fn walk(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        mut visit: impl FnMut(LinkId),
    ) -> Option<()> {
        if src == dst {
            return Some(());
        }
        let route = self.route(topo, src, dst)?;
        let mut at = src;
        // Path length is bounded by node count on a shortest-path tree.
        for _ in 0..topo.num_nodes() {
            let hop = route.next(topo, at)?;
            visit(hop);
            at = topo.link(hop).to;
            if at == dst {
                return Some(());
            }
        }
        None // cycle would indicate a bug; report unreachable
    }

    /// Next outgoing link from `at` toward `dst`, or `None` if unreachable
    /// (or already there).
    pub fn next_hop(&mut self, topo: &Topology, at: NodeId, dst: NodeId) -> Option<LinkId> {
        self.route(topo, at, dst)?.next(topo, at)
    }

    /// Uncongested one-way latency of the IP shortest path, or `None` if
    /// unreachable.
    pub fn dist(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Duration> {
        let mut us = 0;
        self.walk(topo, src, dst, |hop| us += topo.link(hop).delay.as_micros())?;
        Some(Duration::from_micros(us))
    }

    /// The full IP path from `src` to `dst` as a sequence of links.
    pub fn path(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let mut out = Vec::new();
        self.walk(topo, src, dst, |hop| out.push(hop))?;
        Some(out)
    }

    /// Number of router hops on the IP path.
    pub fn hop_count(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<usize> {
        let mut hops = 0;
        self.walk(topo, src, dst, |_| hops += 1)?;
        Some(hops)
    }

    /// Can changing this link's delay change a table? Only core-to-core
    /// links are in the packed adjacency; bandwidth is in neither.
    pub(crate) fn routes_over(topo: &Topology, link: &Link) -> bool {
        topo.degree(link.from) >= 2 && topo.degree(link.to) >= 2
    }

    /// Drop every table and the core they index (call after a core
    /// link's delay changes): the next miss rebuilds the core and every
    /// host anchor's tree, in one batch as on the first.
    pub fn invalidate(&mut self) {
        self.tables = None;
        self.comps = None;
    }

    pub fn cached_destinations(&self) -> usize {
        self.tables.as_ref().map_or(0, |t| t.trees.len())
    }

    /// Heap bytes held: component labels, the core index, hub ranks and
    /// adjacency, every built table and this thread's Dijkstra scratch,
    /// by capacity. A batch's worker scratch is freed when it ends.
    pub fn table_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        self.comps.as_ref().map_or(0, bytes)
            + self.tables.as_ref().map_or(0, |t| {
                let (c, s, q) = (&t.core, &t.scratch, &t.scratch.queue);
                std::mem::size_of::<Tables>()
                    + bytes(&c.of_node)
                    + bytes(&c.hub_of)
                    + bytes(&t.tree_of)
                    + bytes(&t.trees)
                    + t.trees
                        .iter()
                        .map(|t| std::mem::size_of_val(&**t))
                        .sum::<usize>()
                    + bytes(&c.off)
                    + bytes(&c.half)
                    + bytes(&s.dist)
                    + bytes(&s.hop)
                    + q.heap.capacity() * std::mem::size_of::<u64>()
                    + bytes(&q.bands)
                    + q.bands.iter().map(bytes).sum::<usize>()
            })
    }
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

/// Label connected components with an iterative flood fill.
fn components(topo: &Topology) -> Vec<u32> {
    let n = topo.num_nodes();
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack: Vec<NodeId> = Vec::new();
    for start in 0..n {
        if label[start] != u32::MAX {
            continue;
        }
        label[start] = next;
        stack.push(NodeId(start as u32));
        while let Some(u) = stack.pop() {
            for &lid in topo.outgoing(u) {
                let v = topo.link(lid).to;
                if label[v.index()] == u32::MAX {
                    label[v.index()] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{canned, LinkSpec, TopologyBuilder};
    use macedon_sim::SimRng;

    /// Every node's next hop toward `dst` from a plain Dijkstra over all
    /// nodes with the same tie-break (settle by distance, then by
    /// descending node id; relax with strict `<` in CSR order).
    fn dense_next_hops(t: &Topology, dst: NodeId) -> Vec<Option<LinkId>> {
        let mut dist = vec![u64::MAX; t.num_nodes()];
        let mut next = vec![None; t.num_nodes()];
        let mut heap = BinaryHeap::new();
        dist[dst.index()] = 0;
        heap.push((std::cmp::Reverse(0u64), dst.0));
        while let Some((std::cmp::Reverse(d), u)) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &lid in t.outgoing(NodeId(u)) {
                let l = t.link(lid);
                let nd = d + l.delay.as_micros();
                if nd < dist[l.to.index()] {
                    dist[l.to.index()] = nd;
                    next[l.to.index()] = Some(t.reverse(lid));
                    heap.push((std::cmp::Reverse(nd), l.to.0));
                }
            }
        }
        next
    }

    /// The tree rooted at core node `root`, built alone with fresh
    /// scratch.
    fn tree(core: &Core, root: u32) -> Box<[u8]> {
        let mut table = vec![0; core.table_len()].into_boxed_slice();
        core.build(&mut Scratch::new(core), root, &mut table);
        table
    }

    /// The link a packed tree entry names at node `v`.
    fn entry_link(t: &Topology, core: &Core, tree: &[u8], v: NodeId) -> Option<LinkId> {
        core.entry(tree, core.of_node[v.index()])
            .map(|hop| t.outgoing(v)[hop])
    }

    fn ms(x: u64) -> LinkSpec {
        LinkSpec::new(Duration::from_millis(x), 1_000_000, 32_000)
    }

    #[test]
    fn packed_entries_map_back_to_dense_next_hops_over_parallel_links() {
        // A ring of routers with chords and parallel cables: equal-delay
        // twins (the tie goes to the first in CSR order) and unequal ones
        // (the faster is not the first).
        let mut b = TopologyBuilder::new();
        let r: Vec<NodeId> = (0..6).map(|_| b.add_router()).collect();
        for (x, y, d) in [
            (0, 1, 1),
            (0, 1, 1),
            (1, 2, 2),
            (1, 2, 1),
            (2, 3, 1),
            (3, 4, 1),
            (4, 3, 1),
            (3, 4, 1),
            (4, 5, 2),
            (5, 0, 1),
            (0, 3, 3),
            (3, 0, 3),
        ] {
            b.add_link(r[x], r[y], ms(d));
        }
        for &x in &r[..3] {
            let h = b.add_host();
            b.add_link(h, x, ms(1));
        }
        let t = b.build();
        let core = Core::new(&t);
        for &anchor in &r {
            let tree = tree(&core, core.of_node[anchor.index()]);
            let dense = dense_next_hops(&t, anchor);
            for &v in &r {
                let got = entry_link(&t, &core, &tree, v);
                assert_eq!(got, dense[v.index()], "{v:?} toward {anchor:?}");
                if (v, anchor) == (r[2], r[1]) {
                    let hop = t.link(got.unwrap());
                    assert_eq!(hop.delay, Duration::from_millis(1), "the faster twin");
                }
            }
        }
    }

    /// A hub router whose spokes are routers on parallel cables, so every
    /// cable is core-to-core: `halves` core half-links at the hub.
    fn hub_with_core_halves(halves: usize) -> Topology {
        let mut b = TopologyBuilder::new();
        let hub = b.add_router();
        for i in 0..halves / 2 {
            let spoke = b.add_router();
            let cables = if i == 0 { 2 + halves % 2 } else { 2 };
            for _ in 0..cables {
                b.add_link(hub, spoke, LinkSpec::lan());
            }
        }
        b.build()
    }

    #[test]
    fn core_node_below_the_u16_entry_range_is_routed() {
        // Positions 0..=65,534: the last is the largest entry that is
        // not `NO_HOP`.
        let t = hub_with_core_halves(65_535);
        let core = Core::new(&t);
        let far = NodeId(t.num_nodes() as u32 - 1);
        let tree = tree(&core, core.of_node[far.index()]);
        let hop = entry_link(&t, &core, &tree, NodeId(0)).expect("hub reaches the spoke");
        assert_eq!(t.link(hop).to, far);
        assert_eq!(Some(hop), dense_next_hops(&t, far)[0]);
    }

    #[test]
    #[should_panic(expected = "core node NodeId(0) has a core half-link at position 65535")]
    fn core_node_past_the_u16_entry_range_is_refused() {
        Core::new(&hub_with_core_halves(65_536));
    }

    #[test]
    fn rebuilding_a_tree_regrows_no_queue_buffer() {
        // Every band buffer stays in its own slot, the last band's too
        // when the queue empties: a second build of the same tree finds
        // each one already grown.
        let t = crate::topology::inet(
            &crate::topology::InetParams::test_scale(10),
            &mut SimRng::new(2004),
        );
        // Each buffer by address and capacity, the heap's last.
        let buffers = |q: &Queue| -> Vec<(*const u64, usize)> {
            let bands = q.bands.iter().map(|b| (b.as_ptr(), b.capacity()));
            let heap = (q.heap.as_slice().as_ptr().cast(), q.heap.capacity());
            bands.chain([heap]).collect()
        };
        let core = Core::new(&t);
        let mut scratch = Scratch::new(&core);
        let mut first = vec![0; core.table_len()];
        core.build(&mut scratch, 0, &mut first);
        let grown = buffers(&scratch.queue);
        assert!(grown.iter().filter(|b| b.1 > 0).count() > 2, "{grown:?}");
        let mut again = vec![0; core.table_len()];
        core.build(&mut scratch, 0, &mut again);
        assert_eq!(again, first);
        assert_eq!(buffers(&scratch.queue), grown);
        // A fork grows every buffer of both to at least the longest band
        // seen, the fork's to exactly that, and builds the same tree
        // without growing any.
        let longest = scratch.queue.longest;
        let mut worker = scratch.fork();
        let widened = buffers(&scratch.queue);
        assert!(
            widened[..Queue::BANDS].iter().all(|b| b.1 >= longest),
            "{widened:?}"
        );
        let forked = buffers(&worker.queue);
        core.build(&mut worker, 0, &mut again);
        assert_eq!(again, first);
        assert_eq!(buffers(&worker.queue), forked);
        assert!(
            forked[..Queue::BANDS].iter().all(|b| b.1 == longest),
            "{forked:?}"
        );
    }

    #[test]
    fn two_hosts_route_through_router() {
        let t = canned::two_hosts(LinkSpec::lan());
        let (a, b) = (t.hosts()[0], t.hosts()[1]);
        let mut r = Router::new();
        let p = r.path(&t, a, b).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(t.link(p[0]).from, a);
        assert_eq!(t.link(p[1]).to, b);
        assert_eq!(
            r.dist(&t, a, b).unwrap(),
            macedon_sim::Duration::from_millis(2)
        );
    }

    #[test]
    fn dist_to_self_is_zero() {
        let t = canned::star(3, LinkSpec::lan());
        let mut r = Router::new();
        let h = t.hosts()[0];
        assert_eq!(r.dist(&t, h, h).unwrap(), Duration::ZERO);
        assert!(r.next_hop(&t, h, h).is_none());
    }

    #[test]
    fn line_distances_accumulate() {
        let t = canned::line(4, LinkSpec::lan()); // 4 routers, 2 end hosts
        let (a, z) = (t.hosts()[0], t.hosts()[1]);
        let mut r = Router::new();
        // host-r0, r0-r1, r1-r2, r2-r3, r3-host = 5 hops of 1ms
        assert_eq!(r.hop_count(&t, a, z).unwrap(), 5);
        assert_eq!(r.dist(&t, a, z).unwrap(), Duration::from_millis(5));
    }

    #[test]
    fn picks_lower_latency_path() {
        // Diamond: a -r1- b (fast) and a -r2- b (slow)
        let mut b = TopologyBuilder::new();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let fast = b.add_router();
        let slow = b.add_router();
        b.add_link(
            h1,
            fast,
            LinkSpec::new(Duration::from_millis(1), 1_000_000, 32_000),
        );
        b.add_link(
            fast,
            h2,
            LinkSpec::new(Duration::from_millis(1), 1_000_000, 32_000),
        );
        b.add_link(
            h1,
            slow,
            LinkSpec::new(Duration::from_millis(50), 1_000_000, 32_000),
        );
        b.add_link(
            slow,
            h2,
            LinkSpec::new(Duration::from_millis(50), 1_000_000, 32_000),
        );
        let t = b.build();
        let mut r = Router::new();
        let path = r.path(&t, h1, h2).unwrap();
        assert_eq!(t.link(path[0]).to, fast);
        assert_eq!(r.dist(&t, h1, h2).unwrap(), Duration::from_millis(2));
    }

    #[test]
    fn unreachable_reports_none() {
        let mut b = TopologyBuilder::new();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let r1 = b.add_router();
        b.add_link(h1, r1, LinkSpec::lan());
        // h2 has no links
        let _ = h2;
        let t = b.build();
        let mut r = Router::new();
        assert!(r.dist(&t, h1, h2).is_none());
        assert!(r.path(&t, h1, h2).is_none());
    }

    #[test]
    fn symmetric_distances() {
        let mut rng = SimRng::new(11);
        let t = crate::topology::inet(&crate::topology::InetParams::test_scale(10), &mut rng);
        let mut r = Router::new();
        let hs = t.hosts().to_vec();
        for i in 0..hs.len() {
            for j in (i + 1)..hs.len() {
                assert_eq!(r.dist(&t, hs[i], hs[j]), r.dist(&t, hs[j], hs[i]));
            }
        }
    }

    #[test]
    fn cache_grows_lazily_and_invalidates() {
        // A dumbbell with a router between its two gateways: two hosts
        // on `left`, two on `right`, none on `mid`.
        let mut b = TopologyBuilder::new();
        let (left, mid, right) = (b.add_router(), b.add_router(), b.add_router());
        b.add_link(left, mid, ms(5));
        b.add_link(mid, right, ms(5));
        for gateway in [left, left, right, right] {
            let h = b.add_host();
            b.add_link(h, gateway, LinkSpec::lan());
        }
        let t = b.build();
        let mut r = Router::new();
        assert_eq!(r.cached_destinations(), 0);
        let hs = t.hosts().to_vec(); // two left, then two right
        r.dist(&t, hs[0], hs[1]);
        assert_eq!(r.cached_destinations(), 0, "same gateway: no table");
        // The first miss builds both host anchors' tables at once.
        r.dist(&t, hs[0], hs[2]);
        assert_eq!(r.cached_destinations(), 2);
        // Every leaf destination resolves to its gateway anchor — the
        // cache must NOT grow per host.
        r.dist(&t, hs[0], hs[3]);
        r.dist(&t, hs[2], hs[0]);
        assert_eq!(r.cached_destinations(), 2);
        // A router no host hangs off is built alone, once.
        r.dist(&t, hs[0], mid);
        assert_eq!(r.cached_destinations(), 3);
        r.dist(&t, hs[3], mid);
        assert_eq!(r.cached_destinations(), 3);
        r.invalidate();
        assert_eq!(r.cached_destinations(), 0);
        // After an invalidation the next miss is a first miss again.
        r.dist(&t, hs[2], mid);
        assert_eq!(r.cached_destinations(), 3);
    }

    /// Every core node's tree built in one batch on 1, 2 and 3 threads,
    /// after one tree built alone, against each tree built alone with
    /// fresh scratch: equal tables in equal slots.
    fn assert_batches_match_trees_built_alone(t: &Topology) {
        let core = Core::new(t);
        let roots: Vec<u32> = (0..core.hub_of.len() as u32).collect();
        let alone: Vec<Box<[u8]>> = roots.iter().map(|&r| tree(&core, r)).collect();
        for workers in 1..=3 {
            let mut tables = Tables::new(Core::new(t));
            if let Some((&last, others)) = roots.split_last() {
                tables.build(&[last], 1);
                tables.build(others, workers);
            }
            for (&root, want) in roots.iter().zip(&alone) {
                let slot = tables.tree_of[root as usize] as usize;
                assert_eq!(
                    &tables.trees[slot - 1],
                    want,
                    "root {root}, {workers} threads"
                );
            }
            assert_eq!(tables.trees.len(), roots.len());
        }
    }

    /// A random multigraph with zero-delay links everywhere, as in
    /// `tests/prop.rs`: hosts and routers of any degree, parallel
    /// cables, several components, delays of 0–2 ms.
    fn tangle(rng: &mut SimRng) -> Topology {
        let mut b = TopologyBuilder::new();
        let n = 2 + rng.gen_range(14) as usize;
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| match rng.gen_range(3) {
                0 => b.add_host(),
                _ => b.add_router(),
            })
            .collect();
        for _ in 0..rng.gen_range(2 * n as u64 + 1) {
            let (x, y) = (*rng.choose(&nodes), *rng.choose(&nodes));
            if x != y {
                b.add_link(x, y, LinkSpec::wan(Duration::from_millis(rng.gen_range(3))));
            }
        }
        b.build()
    }

    #[test]
    fn a_batch_builds_the_same_tables_on_any_number_of_threads() {
        let inet = crate::topology::inet(
            &crate::topology::InetParams::test_scale(40),
            &mut SimRng::new(2004),
        );
        assert_batches_match_trees_built_alone(&inet);
        for seed in 0..40 {
            assert_batches_match_trees_built_alone(&tangle(&mut SimRng::new(seed)));
        }
    }

    #[test]
    fn the_first_miss_builds_every_host_anchor_and_nothing_else() {
        let t = crate::topology::inet(
            &crate::topology::InetParams::test_scale(40),
            &mut SimRng::new(2004),
        );
        let hosts = t.hosts();
        let mut r = Router::new();
        r.dist(&t, hosts[0], hosts[1]);
        let tables = r.tables.as_ref().expect("a miss");
        let anchors: std::collections::BTreeSet<u32> = hosts
            .iter()
            .map(|&h| tables.core.of_node[t.link(t.outgoing(h)[0]).to.index()])
            .collect();
        assert_eq!(tables.core.host_roots(&t), Vec::from_iter(anchors.clone()));
        assert!(
            anchors.len() > 20 && anchors.len() < hosts.len(),
            "{anchors:?}"
        );
        assert_eq!(r.cached_destinations(), anchors.len());
        // Below the spawn floor: built on this thread alone.
        assert_eq!(workers(anchors.len(), tables.tree_of.len()), 1);
        for &h in hosts {
            r.dist(&t, h, hosts[0]);
        }
        assert_eq!(r.cached_destinations(), anchors.len());
    }

    /// The benchmark's graph: all 300 clients' anchors in one batch on
    /// 1, 2 and 3 threads. Seconds in release, minutes unoptimised — CI
    /// runs it with `cargo test --release -p macedon-net -- --ignored`.
    #[test]
    #[ignore = "full scale: run in release"]
    fn full_scale_batches_are_identical_on_any_number_of_threads() {
        let params = crate::topology::InetParams {
            routers: 20_000,
            clients: 300,
            ..Default::default()
        };
        let t = crate::topology::inet(&params, &mut SimRng::new(2004));
        let batch = |workers| {
            let mut tables = Tables::new(Core::new(&t));
            let roots = tables.core.host_roots(&t);
            tables.build(&roots, workers);
            tables.trees
        };
        let one = batch(1);
        assert!(one.len() > 250, "{} anchors", one.len());
        assert!(one == batch(2), "2 threads");
        assert!(one == batch(3), "3 threads");
    }

    #[test]
    fn star_routing_builds_no_trees() {
        // Forwarding between leaves of a star touches only the degree-1
        // fast path (at the host) and the anchor's final hop (at the
        // hub): no Dijkstra tree at all, at any scale.
        let t = canned::star(50, LinkSpec::lan());
        let hs = t.hosts().to_vec();
        let mut r = Router::new();
        for i in 0..50 {
            let p = r.path(&t, hs[i], hs[(i + 7) % 50]).unwrap();
            assert_eq!(p.len(), 2);
        }
        assert_eq!(r.cached_destinations(), 0, "leaf-to-leaf needs no trees");
    }

    #[test]
    fn cross_component_is_unreachable_without_bouncing() {
        // Two disjoint star islands; a leaf-to-other-island packet must
        // report no route (the degree-1 shortcut must not loop it).
        let mut b = TopologyBuilder::new();
        let a1 = b.add_host();
        let a2 = b.add_host();
        let ra = b.add_router();
        b.add_link(a1, ra, LinkSpec::lan());
        b.add_link(a2, ra, LinkSpec::lan());
        let z1 = b.add_host();
        let rz = b.add_router();
        b.add_link(z1, rz, LinkSpec::lan());
        let t = b.build();
        let mut r = Router::new();
        assert!(r.next_hop(&t, a1, z1).is_none());
        assert!(r.path(&t, a1, z1).is_none());
        assert!(r.dist(&t, a1, z1).is_none());
        // Same-island traffic unaffected.
        assert_eq!(r.path(&t, a1, a2).unwrap().len(), 2);
    }

    /// Cross-check Dijkstra against Floyd-Warshall on small random graphs.
    #[test]
    fn matches_floyd_warshall() {
        for seed in 0..5u64 {
            let mut rng = SimRng::new(seed);
            let t = crate::topology::inet(
                &crate::topology::InetParams {
                    routers: 30,
                    clients: 6,
                    ..Default::default()
                },
                &mut rng,
            );
            let n = t.num_nodes();
            let mut fw = vec![vec![u64::MAX / 4; n]; n];
            for (i, row) in fw.iter_mut().enumerate() {
                row[i] = 0;
            }
            for l in t.links() {
                let (a, b) = (l.from.index(), l.to.index());
                fw[a][b] = fw[a][b].min(l.delay.as_micros());
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        let via = fw[i][k] + fw[k][j];
                        if via < fw[i][j] {
                            fw[i][j] = via;
                        }
                    }
                }
            }
            let mut r = Router::new();
            let hosts = t.hosts().to_vec();
            for &a in &hosts {
                for &b in &hosts {
                    let d = r.dist(&t, a, b).unwrap().as_micros();
                    assert_eq!(d, fw[a.index()][b.index()], "seed={seed} {a:?}->{b:?}");
                }
            }
        }
    }
}
