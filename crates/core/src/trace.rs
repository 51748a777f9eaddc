//! The MACEDON tracing subsystem: typed causal trace events.
//!
//! The `trace_` header of a mac file selects one of four levels
//! (off/low/med/high); the engine then logs dispatches, sends, FSM
//! state changes and deliveries automatically as structured
//! [`TraceEvent`]s rather than flat strings. Every record carries the
//! causal [`SpanId`] that was active when it was emitted: spans are
//! minted deterministically per application-level send (node id in the
//! high 32 bits, a per-stack counter in the low 32) and propagated
//! out-of-band with the message through transport and network — never
//! in wire bytes, so interpreted ≡ generated byte equality and the
//! golden fixtures are untouched.
//!
//! The [`TraceSink`] is a *bounded ring*: when full it drops the oldest
//! record and counts the loss explicitly, so 100k-node traced runs
//! cannot exhaust memory silently. The ring holds records in recording
//! order, the run's one stream.

use macedon_net::{DropReason, NodeId};
use macedon_sim::Time;
use macedon_transport::ChannelId;
use std::collections::{HashMap, VecDeque};

/// Automatic tracing level (paper: `trace_ off|low|med|high`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum TraceLevel {
    #[default]
    Off,
    Low,
    Med,
    High,
}

impl TraceLevel {
    /// The level's name in exported traces.
    pub fn name(self) -> &'static str {
        ["Off", "Low", "Med", "High"][self as usize]
    }
}

/// A causal span identifier: `node.0 << 32 | per-stack counter`, minted
/// once per application-level send at the lowest layer. `NONE` (zero)
/// marks records emitted outside any message's causal context (timer
/// fires, API calls, engine traffic).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);

    /// Deterministic mint: the sending node in the high 32 bits, its
    /// per-stack send counter (starting at 1) in the low 32.
    pub fn mint(node: NodeId, counter: u32) -> SpanId {
        SpanId(((node.0 as u64) << 32) | counter as u64)
    }

    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The node that minted this span (meaningless for `NONE`).
    pub fn minted_by(self) -> NodeId {
        NodeId((self.0 >> 32) as u32)
    }
}

/// What happened — the typed payload of a [`TraceRecord`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A transport message reached this stack's dispatch loop.
    Dispatch { from: NodeId, bytes: usize },
    /// An FSM state change; both translator back ends emit identical
    /// state names (the IR's `states` table strings).
    FsmTransition { from: String, to: String },
    /// An application-level send left the lowest layer. `span` is the
    /// freshly minted child span travelling with the message; the
    /// record's own `span` field is the parent context.
    Send {
        span: SpanId,
        dst: NodeId,
        channel: ChannelId,
        bytes: usize,
    },
    /// A forward query resolved and the packet moves to `next_hop`.
    Forward { next_hop: NodeId, bytes: usize },
    /// A forward query resolved quashed: the packet dies here.
    Quash,
    /// A payload reached the application at the top of the stack.
    Deliver { from: NodeId, bytes: usize },
    /// The network dropped a packet originating at this node.
    Drop { reason: DropReason },
    /// A protocol timer expired.
    TimerFire { timer: u16 },
    /// An API downcall entered the top of the stack.
    ApiCall { call: &'static str },
    /// Free-form message (the DSL `trace` statement and legacy traces).
    Custom { msg: String },
}

impl TraceEvent {
    /// Canonical single-line rendering — the byte-equality surface the
    /// cross-backend and cross-worker trace tests compare.
    pub fn render(&self) -> String {
        match self {
            TraceEvent::Dispatch { from, bytes } => format!("dispatch from=n{} b={bytes}", from.0),
            TraceEvent::FsmTransition { from, to } => format!("fsm {from}->{to}"),
            TraceEvent::Send {
                span,
                dst,
                channel,
                bytes,
            } => format!(
                "send span={:016x} dst=n{} ch={} b={bytes}",
                span.0, dst.0, channel.0
            ),
            TraceEvent::Forward { next_hop, bytes } => {
                format!("forward next=n{} b={bytes}", next_hop.0)
            }
            TraceEvent::Quash => "quash".to_string(),
            TraceEvent::Deliver { from, bytes } => format!("deliver from=n{} b={bytes}", from.0),
            TraceEvent::Drop { reason } => format!("drop reason={reason:?}"),
            TraceEvent::TimerFire { timer } => format!("timer t{timer}"),
            TraceEvent::ApiCall { call } => format!("api {call}"),
            TraceEvent::Custom { msg } => msg.clone(),
        }
    }
}

/// One trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    pub at: Time,
    pub node: NodeId,
    pub layer: usize,
    pub level: TraceLevel,
    /// Causal context active when this record was emitted: the span of
    /// the message whose dispatch we are inside, or `NONE`.
    pub span: SpanId,
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Canonical single-line rendering (the byte-equality surface).
    pub fn render(&self) -> String {
        format!(
            "{:>10} n{:<4} L{} {:?} ctx={:016x} {}",
            self.at.as_micros(),
            self.node.0,
            self.layer,
            self.level,
            self.span.0,
            self.event.render()
        )
    }
}

/// A merged trace checked as a span forest: every record's causal
/// context is `NONE` (a root) or a span some strictly earlier `Send`
/// minted, and no span is minted twice.
pub struct SpanForest {
    /// One [`TraceRecord::render`] line per record, in stream order: the
    /// byte-equality surface the cross-backend and cross-worker gates
    /// compare.
    pub stream: String,
    /// span -> (index of the `Send` record that minted it, the context
    /// it was minted under).
    mints: HashMap<u64, (usize, SpanId)>,
}

impl SpanForest {
    /// Render `records` (a merged stream, in order) and check that they
    /// form a span forest; the error names the first record that breaks it.
    pub fn build(records: &[&TraceRecord]) -> Result<SpanForest, String> {
        let mut stream = String::with_capacity(records.len() * 64);
        let mut mints = HashMap::new();
        for (i, r) in records.iter().enumerate() {
            stream.push_str(&r.render());
            stream.push('\n');
            // The record's own context must already exist (for a Send,
            // the parent context, checked before its mint below).
            if !r.span.is_none() && !mints.contains_key(&r.span.0) {
                let span = r.span.0;
                return Err(format!(
                    "context {span:016x} referenced before mint at index {i}"
                ));
            }
            if let TraceEvent::Send { span, .. } = r.event {
                if mints.insert(span.0, (i, r.span)).is_some() {
                    return Err(format!("span {:016x} minted twice at index {i}", span.0));
                }
            }
        }
        Ok(SpanForest { stream, mints })
    }

    /// `span`'s mint parentage back to its root: the index of each
    /// minting `Send` record with the span it minted, `span`'s own mint
    /// first. Empty for `NONE`.
    pub fn lineage(&self, mut span: SpanId) -> Vec<(usize, SpanId)> {
        let mut hops = Vec::new();
        while let Some(&(i, parent)) = self.mints.get(&span.0) {
            hops.push((i, span));
            span = parent;
        }
        hops
    }
}

/// Default ring capacity: enough for every test/example run, small
/// enough that a fully traced 100k-node run stays bounded (~100 MB of
/// records worst case, with the drop counter telling you how
/// much history rolled off).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Central trace collector: a bounded ring that drops the *oldest*
/// record when full and counts every loss.
pub struct TraceSink {
    level: TraceLevel,
    capacity: usize,
    records: VecDeque<TraceRecord>,
    /// Records evicted because the ring was full.
    pub dropped: u64,
}

impl TraceSink {
    pub fn new(level: TraceLevel) -> TraceSink {
        TraceSink {
            level,
            capacity: DEFAULT_TRACE_CAPACITY,
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    pub fn level(&self) -> TraceLevel {
        self.level
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rebound the ring. Shrinking evicts oldest records immediately
    /// (counted as dropped).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.records.len() > self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
    }

    /// Record if `level` is within the configured verbosity.
    pub fn record(
        &mut self,
        at: Time,
        node: NodeId,
        layer: usize,
        level: TraceLevel,
        span: SpanId,
        event: TraceEvent,
    ) {
        if level == TraceLevel::Off || level > self.level {
            return;
        }
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord {
            at,
            node,
            layer,
            level,
            span,
            event,
        });
    }

    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn custom(msg: &str) -> TraceEvent {
        TraceEvent::Custom {
            msg: msg.to_string(),
        }
    }

    #[test]
    fn level_ordering() {
        assert!(TraceLevel::Off < TraceLevel::Low);
        assert!(TraceLevel::Low < TraceLevel::Med);
        assert!(TraceLevel::Med < TraceLevel::High);
    }

    #[test]
    fn filtering_by_level() {
        let mut t = TraceSink::new(TraceLevel::Low);
        t.record(
            Time::ZERO,
            NodeId(0),
            0,
            TraceLevel::Low,
            SpanId::NONE,
            custom("kept"),
        );
        t.record(
            Time::ZERO,
            NodeId(0),
            0,
            TraceLevel::High,
            SpanId::NONE,
            custom("dropped"),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.records().next().unwrap().event, custom("kept"));
    }

    #[test]
    fn off_level_records_nothing() {
        let mut t = TraceSink::new(TraceLevel::Off);
        t.record(
            Time::ZERO,
            NodeId(0),
            0,
            TraceLevel::Low,
            SpanId::NONE,
            custom("x"),
        );
        // An explicit Off-level record is also never kept.
        t.record(
            Time::ZERO,
            NodeId(0),
            0,
            TraceLevel::Off,
            SpanId::NONE,
            custom("y"),
        );
        assert!(t.is_empty());
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let mut t = TraceSink::new(TraceLevel::High);
        t.set_capacity(3);
        for i in 0..5u64 {
            t.record(
                Time::from_micros(i),
                NodeId(0),
                0,
                TraceLevel::Low,
                SpanId::NONE,
                custom(&format!("m{i}")),
            );
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped, 2);
        // Oldest evicted first: m2..m4 remain, in recording order.
        let kept: Vec<&TraceEvent> = t.records().map(|r| &r.event).collect();
        assert_eq!(kept, [&custom("m2"), &custom("m3"), &custom("m4")]);
        // Shrinking evicts immediately.
        t.set_capacity(1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped, 4);
    }

    #[test]
    fn span_mint_packs_node_and_counter() {
        let s = SpanId::mint(NodeId(7), 42);
        assert_eq!(s.0, (7u64 << 32) | 42);
        assert_eq!(s.minted_by(), NodeId(7));
        assert!(!s.is_none());
        assert!(SpanId::NONE.is_none());
        assert_eq!(SpanId::default(), SpanId::NONE);
    }

    #[test]
    fn render_is_stable() {
        let r = TraceRecord {
            at: Time::from_micros(1500),
            node: NodeId(3),
            layer: 1,
            level: TraceLevel::Med,
            span: SpanId::mint(NodeId(2), 9),
            event: TraceEvent::Send {
                span: SpanId::mint(NodeId(3), 1),
                dst: NodeId(4),
                channel: ChannelId(2),
                bytes: 128,
            },
        };
        assert_eq!(
            r.render(),
            "      1500 n3    L1 Med ctx=0000000200000009 \
             send span=0000000300000001 dst=n4 ch=2 b=128"
        );
    }

    fn at(us: u64, span: SpanId, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: Time::from_micros(us),
            node: span.minted_by(),
            layer: 0,
            level: TraceLevel::High,
            span,
            event,
        }
    }

    fn send(parent: SpanId, minted: SpanId) -> TraceRecord {
        let event = TraceEvent::Send {
            span: minted,
            dst: NodeId(9),
            channel: ChannelId(0),
            bytes: 1,
        };
        at(0, parent, event)
    }

    #[test]
    fn span_forest_renders_and_walks_parentage() {
        let (a, b) = (SpanId::mint(NodeId(1), 1), SpanId::mint(NodeId(2), 1));
        let recs = [
            send(SpanId::NONE, a),
            send(a, b),
            at(5, b, custom("delivered")),
        ];
        let refs: Vec<&TraceRecord> = recs.iter().collect();
        let f = SpanForest::build(&refs).unwrap();
        assert_eq!(f.stream.lines().count(), 3);
        assert!(f.stream.ends_with("ctx=0000000200000001 delivered\n"));
        assert_eq!(f.lineage(b), vec![(1, b), (0, a)]);
        assert!(f.lineage(SpanId::NONE).is_empty());
    }

    #[test]
    fn span_forest_rejects_a_context_referenced_before_its_mint() {
        let a = SpanId::mint(NodeId(1), 1);
        let (early, mint) = (at(0, a, custom("early")), send(SpanId::NONE, a));
        let e = SpanForest::build(&[&early, &mint]).err().unwrap();
        assert_eq!(
            e,
            "context 0000000100000001 referenced before mint at index 0"
        );
    }

    #[test]
    fn span_forest_rejects_a_span_minted_twice() {
        let a = SpanId::mint(NodeId(1), 1);
        let (first, again) = (send(SpanId::NONE, a), send(SpanId::NONE, a));
        let e = SpanForest::build(&[&first, &again]).err().unwrap();
        assert_eq!(e, "span 0000000100000001 minted twice at index 1");
    }
}
