//! Allocation guard for the wire codec: `WireWriter` allocates once per
//! distinct frame, and a frame's allocation is exactly its size.
//!
//! The binary installs a counting global allocator. Counts are kept per
//! thread, so the tests may run in parallel without seeing each other's
//! allocations.

use macedon_core::wire::tunnel_frame;
use macedon_core::{MacedonKey, WireWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `(allocation calls, bytes requested)` on this thread.
    static COUNTS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    let _ = COUNTS.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches a const-initialised thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(allocation calls, bytes requested)` made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> ((usize, usize), T) {
    let before = COUNTS.with(Cell::get);
    let out = f();
    let after = COUNTS.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

/// Grow this thread's encode buffer past every frame below, so the
/// measured encodes reuse it.
fn warm_up() {
    let mut w = WireWriter::new();
    w.bytes(&[0; 2_048]);
    drop(w.finish());
}

#[test]
fn same_frame_encoded_k_times_allocates_once() {
    const K: usize = 8;
    warm_up();
    let (one, first) = allocations(|| tunnel_frame(MacedonKey(1), b"keepalive"));
    assert!(one.0 > 0, "a new frame allocates");
    let (k, frames): (_, [_; K]) =
        allocations(|| std::array::from_fn(|_| tunnel_frame(MacedonKey(2), b"keepalive")));
    assert_eq!(
        k, one,
        "{K} identical frames cost what one distinct frame costs"
    );
    assert_eq!(frames[0].len(), first.len());
    assert!(frames.iter().all(|f| f.as_ptr() == frames[0].as_ptr()));
}

#[test]
fn short_frame_requests_its_length_plus_the_arc_header() {
    // The `bytes` stand-in keeps a frame in an `Arc<Vec<u8>>`: the
    // exactly-sized data plus one reference-counted `Vec` header.
    let arc_header = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Vec<u8>>();
    warm_up();
    let ((calls, bytes), frame) = allocations(|| {
        let mut w = WireWriter::new();
        w.u32(1).u64(2);
        w.finish()
    });
    assert_eq!(frame.len(), 12);
    assert!(calls <= 2, "{calls} allocation calls");
    assert!(
        bytes <= frame.len() + arc_header,
        "a 12-byte frame requested {bytes} bytes (limit {})",
        frame.len() + arc_header
    );
}
