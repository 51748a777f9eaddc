//! Census guard for the routing tables: `Router::table_bytes` is every
//! heap byte a `Router` holds, as the allocator sees it.
//!
//! The binary installs a counting global allocator. Live bytes are kept
//! per thread, so the tests may run in parallel without seeing each
//! other's allocations.

use macedon_net::topology::{inet, InetParams};
use macedon_net::Router;
use macedon_sim::SimRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Bytes allocated and not yet freed on this thread (negative when
    /// it frees what another thread allocated).
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches a const-initialised thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

#[test]
fn table_bytes_is_what_the_router_holds_after_every_tree() {
    let topo = inet(&InetParams::test_scale(40), &mut SimRng::new(2004));
    let hosts = topo.hosts();
    let before = live();
    let mut router = Router::new();
    assert_eq!(router.table_bytes(), 0);
    let mut trees = 0;
    for &dst in hosts {
        // `dist` allocates nothing of its own: only the router grows.
        router
            .dist(&topo, hosts[0], dst)
            .expect("INET is connected");
        if router.cached_destinations() > trees {
            trees = router.cached_destinations();
            let held = (live() - before) as usize;
            assert_eq!(router.table_bytes(), held, "after tree {trees}");
        }
    }
    assert!(trees > 20, "{trees} trees");
    router.invalidate();
    assert_eq!((live() - before) as usize, router.table_bytes());
}
