//! This thread's scratch pools: working buffers a dispatch borrows for
//! its own duration and hands back drained, capacity kept.
//!
//! A node holds only its protocol state. What one event's dispatch needs
//! as working space — the stack's op queue (here), a reliable
//! connection's output buffer (`macedon_transport`) and the
//! interpreter's decode frame (`macedon-lang`) — comes from a free list
//! of the thread running the world, so it costs the deepest dispatch's
//! size once rather than once per node. Each pool is a `thread_local!`,
//! like the transport's connection-buffer free list: two sweep workers
//! never share one, so no lock is taken, and nothing is allocated before
//! a thread's first dispatch. A pool is a pure cache: what a dispatch
//! computes does not depend on which thread runs it or what ran there
//! before, since every buffer comes back empty.

use crate::agent::Op;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::mem::size_of;

/// The ops one dispatch's transitions queue for the stack to drain, each
/// tagged with the layer that issued it.
pub(crate) type OpQueue = VecDeque<(usize, Op)>;

thread_local! {
    /// Op queues handed back drained: one per dispatch this thread ever
    /// had running at once.
    static QUEUES: RefCell<Vec<OpQueue>> = const { RefCell::new(Vec::new()) };
    /// Byte counters of other crates' pools on this thread (see
    /// [`count_pool`]).
    static COUNTED: RefCell<Vec<fn() -> usize>> = const { RefCell::new(Vec::new()) };
}

/// An empty op queue, from this thread's pool when it has one.
pub(crate) fn take_ops() -> OpQueue {
    QUEUES.with_borrow_mut(Vec::pop).unwrap_or_default()
}

/// Give a drained op queue back to this thread's pool.
pub(crate) fn give_ops(ops: OpQueue) {
    debug_assert!(ops.is_empty(), "an op queue comes back drained");
    QUEUES.with_borrow_mut(|q| q.push(ops));
}

/// Count another crate's pool in this thread's [`pooled_bytes`]: `bytes`
/// reads that pool's heap bytes. Call it once per thread, when the pool
/// is first used.
pub fn count_pool(bytes: fn() -> usize) {
    COUNTED.with_borrow_mut(|c| c.push(bytes));
}

/// Heap bytes in this thread's scratch pools: the op queues, the
/// reliable connections' output buffers and every pool counted with
/// [`count_pool`].
pub fn pooled_bytes() -> usize {
    let queues = QUEUES.with_borrow(|q| {
        q.capacity() * size_of::<OpQueue>()
            + q.iter()
                .map(|o| o.capacity() * size_of::<(usize, Op)>())
                .sum::<usize>()
    });
    let counted = COUNTED.with_borrow(|c| {
        c.capacity() * size_of::<fn() -> usize>() + c.iter().map(|f| f()).sum::<usize>()
    });
    queues + counted + macedon_transport::scratch_bytes()
}
