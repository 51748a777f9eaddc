//! Census guard for reliable connections: `Endpoint::conn_bytes` plus
//! the thread's free list (`pooled_bytes`) and its pool of
//! connection-output buffers (`scratch_bytes`) is every heap byte an
//! endpoint's connections hold, as the allocator sees it; an idle
//! connection costs its box and its table slot, nothing more; and a
//! drained connection sends again without allocating.
//!
//! The binary installs a counting global allocator. Counts are kept
//! per thread, so the tests may run in parallel without seeing each
//! other's allocations.

use bytes::Bytes;
use macedon_net::NodeId;
use macedon_sim::{Duration, Time};
use macedon_transport::{
    pooled_bytes, scratch_bytes, ChannelId, ChannelSpec, Endpoint, TransportKind, TransportSink,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Bytes allocated and not yet freed on this thread (negative when
    /// it frees what another thread allocated).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Bytes requested from the allocator on this thread, ever.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(requested: usize, freed: usize) {
    let _ = LIVE.try_with(|c| c.set(c.get() + requested as isize - freed as isize));
    let _ = REQUESTED.try_with(|c| c.set(c.get() + requested));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters touch const-initialised thread-local `Cell`s
// and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn requested() -> usize {
    REQUESTED.with(Cell::get)
}

/// This thread's pooled bytes: the connection-buffer free list and the
/// connection-output buffers.
fn thread_pools() -> usize {
    pooled_bytes() + scratch_bytes()
}

/// A lowest layer's transports: reliable control, best-effort data.
fn channels() -> Arc<[ChannelSpec]> {
    vec![
        ChannelSpec::new("CTRL", TransportKind::Tcp),
        ChannelSpec::new("DATA", TransportKind::Udp),
    ]
    .into()
}

/// Output sinks kept across exchanges, so that after the first one
/// their capacity is warm.
#[derive(Default)]
struct Sinks {
    fwd: TransportSink,
    back: TransportSink,
    done: TransportSink,
}

const CTRL: ChannelId = ChannelId(0);
const PEERS: u32 = 1_000;

/// `a` sends `msg` to `b` (node `peer`) at `now` on the control
/// channel, and `in_flight` sees `a` while the message is unacked; `b`
/// acks it, and the ack drains `a`'s send window 10 ms later.
fn exchange(
    a: &mut Endpoint,
    b: &mut Endpoint,
    peer: u32,
    now: Time,
    msg: &Bytes,
    s: &mut Sinks,
    in_flight: impl FnOnce(&Endpoint),
) {
    a.send(now, NodeId(peer), CTRL, msg.clone(), 0, &mut s.fwd);
    in_flight(a);
    for pkt in s.fwd.packets.drain(..) {
        b.on_packet(now, pkt.src, pkt.payload, &mut s.back);
    }
    assert_eq!(s.back.delivered.len(), 1, "delivered once");
    let later = now + Duration::from_millis(10);
    for pkt in s.back.packets.drain(..) {
        a.on_packet(later, pkt.src, pkt.payload, &mut s.done);
    }
    assert_eq!(s.done.ack_samples.len(), 1, "the ack drained the window");
    for sink in [&mut s.fwd, &mut s.back, &mut s.done] {
        sink.packets.clear();
        sink.timers.clear();
        sink.cancel_timers.clear();
        sink.delivered.clear();
        sink.ack_samples.clear();
    }
}

/// Node 0 exchanges one control message with each of [`PEERS`] peers,
/// each peer's endpoint living only for its exchange, and the census
/// must match the allocator while each message is in flight and after
/// each exchange. Returns node 0's endpoint, the warm sinks and the
/// live bytes measured from (the thread's pools excluded).
fn one_message_to_each_peer(table: &Arc<[ChannelSpec]>, msg: &Bytes) -> (Endpoint, Sinks, isize) {
    // Warm the sinks on a pair that is gone before the count starts.
    let mut sinks = Sinks::default();
    let mut x = Endpoint::new(NodeId(0), table.clone());
    let mut y = Endpoint::new(NodeId(1), table.clone());
    exchange(&mut x, &mut y, 1, Time::ZERO, msg, &mut sinks, |_| ());
    drop((x, y));

    let base = live() - thread_pools() as isize;
    let census = |a: &Endpoint, peer: u32, when: &str| {
        assert_eq!(
            (a.conn_bytes() + thread_pools()) as isize,
            live() - base,
            "census {when} peer {peer}"
        );
    };
    let mut a = Endpoint::new(NodeId(0), table.clone());
    for peer in 1..=PEERS {
        let mut b = Endpoint::new(NodeId(peer), table.clone());
        let now = Time::from_millis(peer as u64);
        let in_flight = |a: &Endpoint| {
            assert_eq!(a.busy_conns(), 1);
            census(a, peer, "with a message in flight to");
        };
        exchange(&mut a, &mut b, peer, now, msg, &mut sinks, in_flight);
        drop(b);
        assert_eq!(a.busy_conns(), 0);
        census(&a, peer, "after exchanging with");
    }
    (a, sinks, base)
}

#[test]
fn conn_bytes_and_free_list_are_what_the_allocator_sees() {
    let (table, msg) = (channels(), Bytes::from_static(b"join"));
    let (a, _sinks, base) = one_message_to_each_peer(&table, &msg);
    assert!(
        pooled_bytes() > 0,
        "the drained buffers wait in the free list"
    );
    drop(a);
    assert_eq!(
        thread_pools() as isize,
        live() - base,
        "the endpoint freed everything"
    );
}

#[test]
fn an_idle_connection_costs_at_most_240_bytes() {
    let (table, msg) = (channels(), Bytes::from_static(b"join"));
    let (_a, _sinks, base) = one_message_to_each_peer(&table, &msg);
    let per_conn = (live() - base) as f64 / PEERS as f64;
    assert!(
        per_conn <= 240.0,
        "{per_conn:.1} B per idle connection, table included"
    );
}

#[test]
fn a_drained_connection_sends_again_without_allocating() {
    let (table, msg) = (channels(), Bytes::from_static(b"join"));
    let (mut a, mut sinks, _) = one_message_to_each_peer(&table, &msg);
    let peer = PEERS + 1;
    let mut b = Endpoint::new(NodeId(peer), table.clone());
    let mut now = Time::from_secs(10);
    exchange(&mut a, &mut b, peer, now, &msg, &mut sinks, |_| ());
    for _ in 0..100 {
        now += Duration::from_secs(1);
        let before = requested();
        exchange(&mut a, &mut b, peer, now, &msg, &mut sinks, |_| ());
        assert_eq!(
            requested() - before,
            0,
            "bytes allocated by a warm round trip"
        );
    }
}
