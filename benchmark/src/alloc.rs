//! A counting global allocator. It forwards to the system allocator and
//! counts only while switched on, so the timed children pay one relaxed
//! load per allocation and nothing else.
//!
//! Two threads allocate at once in the sweep and sharded workloads, so
//! each thread counts into a cache line of its own (shared counters
//! nearly doubled the traced sweep's run time), and the live-bytes
//! gauge is fed in 4 KiB batches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

pub struct Counting;

/// A pair of counters kept per thread slot, a cache line each, so threads
/// running together never share one. Statistics only (`Relaxed`): no
/// other data is published through them.
pub struct PerThread([Slot; SLOTS]);

#[repr(align(128))]
struct Slot(AtomicU64, AtomicU64);

/// More slots than threads ever alive at once (two workers and main);
/// threads that do share a slot still count exactly, only slower.
const SLOTS: usize = 8;

impl PerThread {
    pub const fn new() -> PerThread {
        #[allow(clippy::declare_interior_mutable_const)] // only the array initialiser
        const EMPTY: Slot = Slot(AtomicU64::new(0), AtomicU64::new(0));
        PerThread([EMPTY; SLOTS])
    }

    /// Add to this thread's pair.
    pub fn add(&self, first: u64, second: u64) {
        let slot = &self.0[thread_slot()];
        slot.0.fetch_add(first, Relaxed);
        slot.1.fetch_add(second, Relaxed);
    }

    /// Both counters, summed over all threads.
    pub fn totals(&self) -> (u64, u64) {
        self.0.iter().fold((0, 0), |(a, b), s| {
            (a + s.0.load(Relaxed), b + s.1.load(Relaxed))
        })
    }

    fn reset(&self) {
        for slot in &self.0 {
            slot.0.store(0, Relaxed);
            slot.1.store(0, Relaxed);
        }
    }
}

// Statistics only (`Relaxed`), like the pairs above.
static ON: AtomicBool = AtomicBool::new(false);
/// Bytes requested and calls made.
static REQUESTED: PerThread = PerThread::new();
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
/// Live bytes relative to the moment counting was switched on (blocks
/// from before that moment may be freed after it, hence signed).
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
/// A thread folds its live-bytes change into [`LIVE`] once it exceeds
/// this, so the peak is exact to this much per thread.
const LIVE_BATCH: i64 = 4096;

// No destructors and constant initialisers: safe to touch from inside
// the allocator, also while a thread is being torn down.
thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static LIVE_PENDING: Cell<i64> = const { Cell::new(0) };
}

/// This thread's counter slot, in `0..SLOTS`: handed out round-robin on
/// first use, so threads alive together get different ones.
fn thread_slot() -> usize {
    MY_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
        }
        s.get()
    })
}

fn flush_live(delta: i64) {
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    PEAK.fetch_max(live, Relaxed);
}

fn note(requested: usize, freed: usize) {
    if !ON.load(Relaxed) {
        return;
    }
    if requested > 0 {
        REQUESTED.add(requested as u64, 1);
    }
    LIVE_PENDING.with(|p| {
        let pending = p.get() + requested as i64 - freed as i64;
        if pending.abs() >= LIVE_BATCH {
            flush_live(pending);
            p.set(0);
        } else {
            p.set(pending);
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

/// What the allocator was asked for since [`start`].
#[derive(Clone, Copy, Default)]
pub struct Snapshot {
    /// Bytes requested (a `realloc` counts its new size).
    pub bytes: u64,
    pub calls: u64,
    /// Live bytes now, relative to [`start`].
    pub live: i64,
    /// Highest `live` seen.
    pub peak_live: i64,
}

/// Zero the counters and switch counting on.
pub fn start() {
    REQUESTED.reset();
    LIVE_PENDING.with(|p| p.set(0));
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

pub fn stop() {
    ON.store(false, Relaxed);
}

/// Read the counters (from the thread that called [`start`]: its own
/// pending live bytes are folded in first).
pub fn snapshot() -> Snapshot {
    flush_live(LIVE_PENDING.with(|p| p.replace(0)));
    let (bytes, calls) = REQUESTED.totals();
    Snapshot {
        bytes,
        calls,
        live: LIVE.load(Relaxed),
        peak_live: PEAK.load(Relaxed),
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;
