//! A thread's scratch pools are a pure cache. The op queues, the
//! connection-output buffers and the interpreter's frames a dispatch
//! borrows (`macedon_core::scratch`) come from pools of the thread the
//! world runs on; a run must not depend on what ran on that thread
//! before it. Here one thread's pools are first dirtied by a world of a
//! different protocol, then the same seeded churn script runs twice on
//! that thread, once on a fresh one and once interleaved with another
//! world on one thread, and all four runs must report and trace
//! byte-identically. In a debug build every pool also checks that what
//! comes back is drained; the last two tests plant a leftover in each
//! pool outside core and see that check fire.

use macedon_bench::experiments::{scenario_churn_script, thin_star, Backend};
use macedon_core::{scratch, TraceLevel, World, WorldConfig};
use macedon_lang::SpecRegistry;
use macedon_net::topology::{canned, LinkSpec};
use macedon_sim::{Duration, FxHasher, Time};
use std::hash::Hasher;

const NODES: usize = 50;

/// The seeded default configuration, tracing everything.
fn traced(seed: u64) -> WorldConfig {
    WorldConfig {
        trace_level: TraceLevel::High,
        ..WorldConfig::seeded(seed)
    }
}

/// A 20-node interpreted Chord ring: another protocol, whose dispatches
/// leave its own frames and buffers in the thread's pools.
fn chord_world() -> World {
    let registry = SpecRegistry::bundled();
    let topo = canned::star(20, LinkSpec::lan());
    let (w, _, _) = registry
        .world("chord", topo, traced(3), Duration::from_millis(50))
        .expect("bundled chord resolves");
    w
}

/// The report and a digest of every trace record of the seeded 50-node
/// interpreted churn run. With `beside`, that world runs on the same
/// thread in half-second steps interleaved with the run's own.
fn churn_run(beside: Option<World>) -> (String, u64, usize) {
    let script = scenario_churn_script(NODES);
    let topo = thin_star(NODES);
    let mut runner = Backend::Interpreted.runner("splitstream", &script, topo, traced(11));
    if let Some(mut other) = beside {
        runner.sample_every(Duration::from_millis(500), move |t, _, _| {
            other.run_until(t + Duration::from_millis(500));
        });
    }
    let outcome = runner.run();
    assert!(outcome.report.total_delivered > 0, "the stream delivers");
    let mut h = FxHasher::default();
    let mut records = 0;
    for r in outcome.world.trace().records() {
        h.write(r.render().as_bytes());
        records += 1;
    }
    (outcome.report.to_json(), h.finish(), records)
}

#[test]
fn runs_do_not_depend_on_what_the_thread_ran_before() {
    chord_world().run_until(Time::from_secs(20));
    assert!(scratch::pooled_bytes() > 0, "the pools were used");
    let first = churn_run(None);
    let second = churn_run(None);
    let fresh = std::thread::spawn(|| churn_run(None))
        .join()
        .expect("fresh thread");
    assert!(first.2 > 0, "the run traced");
    assert!(first == second, "a second run on the same thread differs");
    assert!(
        first == fresh,
        "a run after another world differs from one on a fresh thread"
    );
    let interleaved = churn_run(Some(chord_world()));
    assert!(
        first == interleaved,
        "a run interleaved with another world differs"
    );
}

/// A connection-output buffer that still held a flag would re-arm or
/// cancel a timer of the next connection to borrow it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "comes back drained")]
fn a_conn_out_handed_back_with_a_flag_set_is_caught() {
    macedon::transport::endpoint::with_conn_out(|co| co.cancel_rto = true);
}

/// A frame that still held `quash` would drop the next forwarded
/// message its pool lends it to.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "comes back drained")]
fn a_frame_handed_back_quashed_is_caught() {
    macedon::lang::interp::give_back_quashed_frame();
}
