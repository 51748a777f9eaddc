//! Cross-validation of the translator's output: the Rust agents
//! `macedon_lang::codegen` emits (checked in under `crates/generated`)
//! run side-by-side with their interpreted twins on identically seeded
//! worlds. Generated code is supposed to be *behaviorally identical* to
//! interpretation — same RNG draws, byte-identical wire messages, same
//! engine op order — so the assertions here are exact: equal delivery
//! logs (timestamps included), equal FSM states, equal neighbor lists.
//! This is the cross-validation loop the paper's translator had, closed
//! end to end (specs → generated agents → running protocol).

mod common;

use common::star;
use macedon::lang::interp::InterpretedAgent;
use macedon::lang::SpecRegistry;
use macedon::prelude::*;
use macedon_bench::experiments::{seeded, stack_world, Backend};
use macedon_generated as gen;

/// Joins start this far apart.
const STAGGER: Duration = Duration::from_millis(100);

/// A delivery log reduced to comparable tuples (time, node, src, from,
/// size, seqno) in arrival order.
type Log = Vec<(Time, NodeId, u32, NodeId, usize, Option<u64>)>;

fn log_of(sink: &macedon::core::app::SharedDeliveries) -> Log {
    sink.lock()
        .iter()
        .map(|r| (r.at, r.node, r.src.0, r.from, r.bytes, r.seqno))
        .collect()
}

/// `proto` on `backend` on an `n`-host star — everything else
/// (topology, seed, channels, spawn schedule, app) identical.
fn world_of(
    backend: Backend,
    proto: &str,
    n: usize,
    seed: u64,
) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    backend.world(proto, star(n), seeded(seed), STAGGER)
}

/// Stream `n_pkts` multicast packets from `hosts[1]` after a join+settle
/// phase (the schedule the layered integration suite uses).
fn drive_multicast(w: &mut World, hosts: &[NodeId], n_pkts: u64, join: bool) {
    let group = MacedonKey::of_name("xval");
    w.run_until(Time::from_secs(40));
    if join {
        for &h in &hosts[1..] {
            w.api_at(Time::from_secs(40), h, DownCall::Join { group });
        }
    }
    w.run_until(Time::from_secs(80));
    for i in 0..n_pkts {
        let mut p = vec![0u8; 128];
        p[..8].copy_from_slice(&i.to_be_bytes());
        w.api_at(
            Time::from_secs(80) + Duration::from_millis(i * 200),
            hosts[1],
            DownCall::Multicast {
                group,
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(120));
}

/// Issue `n_pkts` key-routed packets from rotating origins after a
/// join+settle phase — the driver for route-serving overlays (chord,
/// pastry), which `drive_multicast` cannot exercise.
fn drive_routes(w: &mut World, hosts: &[NodeId], n_pkts: u64) {
    w.run_until(Time::from_secs(60));
    for i in 0..n_pkts {
        let mut p = vec![0u8; 64];
        p[..8].copy_from_slice(&i.to_be_bytes());
        w.api_at(
            Time::from_secs(60) + Duration::from_millis(i * 250),
            hosts[i as usize % hosts.len()],
            DownCall::Route {
                dest: MacedonKey((i as u32).wrapping_mul(0x85EB_CA6B)),
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(100));
}

/// Run `proto` on both back ends under the same schedule `drive`, and
/// return each finished world (for state inspection) with its log.
fn run_twins(
    proto: &str,
    n: usize,
    seed: u64,
    drive: impl Fn(&mut World, &[NodeId]),
) -> ((World, Log), (World, Log)) {
    let run = |backend| {
        let (mut w, hosts, sink) = world_of(backend, proto, n, seed);
        drive(&mut w, &hosts);
        (w, log_of(&sink))
    };
    (run(Backend::Interpreted), run(Backend::Generated))
}

/// Assert the same live nodes, with identical FSM state and neighbor
/// lists on every layer of every stack.
fn assert_state_eq(iw: &World, gw: &World) {
    let hosts: Vec<NodeId> = iw.alive_nodes().collect();
    assert!(!hosts.is_empty());
    assert_eq!(hosts, gw.alive_nodes().collect::<Vec<_>>());
    for h in hosts {
        let (is, gs) = (iw.stack(h).unwrap(), gw.stack(h).unwrap());
        assert_eq!(is.num_layers(), gs.num_layers(), "{h:?}");
        for l in 0..is.num_layers() {
            let want = is.agent(l).view().expect("interpreted spec agent");
            assert_eq!(
                Some(want),
                gs.agent(l).view(),
                "layer {l} of {h:?} diverged"
            );
        }
    }
}

#[test]
fn generated_overcast_matches_interpreted_exactly() {
    let ((iw, ilog), (gw, glog)) =
        run_twins("overcast", 10, 11, |w, h| drive_multicast(w, h, 5, false));
    assert!(!ilog.is_empty(), "interpreted overcast delivered packets");
    assert_eq!(ilog, glog, "delivery logs diverged (overcast)");
    assert_state_eq(&iw, &gw);
}

#[test]
fn generated_randtree_matches_interpreted_exactly() {
    let ((iw, ilog), (gw, glog)) =
        run_twins("randtree", 10, 12, |w, h| drive_multicast(w, h, 5, false));
    assert!(!ilog.is_empty(), "interpreted randtree delivered packets");
    assert_eq!(ilog, glog, "delivery logs diverged (randtree)");
    assert_state_eq(&iw, &gw);
}

#[test]
fn generated_chord_matches_interpreted_exactly() {
    // Paper-faithful Chord serves `route`, not `multicast`: key-routed
    // packets from rotating origins, then exact ring-state equality —
    // successor lists, predecessor, and every finger.
    let ((iw, ilog), (gw, glog)) = run_twins("chord", 12, 16, |w, h| drive_routes(w, h, 8));
    assert!(
        !ilog.is_empty(),
        "interpreted chord delivered routed packets"
    );
    assert_eq!(ilog, glog, "delivery logs diverged (chord)");
    assert_state_eq(&iw, &gw);
}

#[test]
fn generated_pastry_matches_interpreted_exactly() {
    let ((iw, ilog), (gw, glog)) = run_twins("pastry", 12, 17, |w, h| drive_routes(w, h, 8));
    assert!(
        !ilog.is_empty(),
        "interpreted pastry delivered routed packets"
    );
    assert_eq!(ilog, glog, "delivery logs diverged (pastry)");
    assert_state_eq(&iw, &gw);
}

#[test]
fn generated_splitstream_stack_matches_interpreted_exactly() {
    // The acceptance scenario: splitstream → scribe → pastry, all three
    // layers generated, versus the same stack interpreted — identical
    // seeded runs must produce identical delivery logs.
    let ((iw, ilog), (gw, glog)) =
        run_twins("splitstream", 12, 13, |w, h| drive_multicast(w, h, 5, true));
    assert!(
        !ilog.is_empty(),
        "interpreted splitstream stack delivered packets"
    );
    assert_eq!(ilog, glog, "delivery logs diverged (splitstream stack)");
    assert_state_eq(&iw, &gw);
}

#[test]
fn generated_scribe_stack_matches_interpreted_exactly() {
    let ((iw, ilog), (gw, glog)) =
        run_twins("scribe", 12, 14, |w, h| drive_multicast(w, h, 5, true));
    assert!(
        !ilog.is_empty(),
        "interpreted scribe stack delivered packets"
    );
    assert_eq!(ilog, glog, "delivery logs diverged (scribe stack)");
    assert_state_eq(&iw, &gw);
}

#[test]
fn every_roster_spec_ends_in_equal_state_on_every_layer() {
    // The tests above drive six specs under schedules each serves; this
    // one compares every layer of every stack of the whole roster after
    // the joins alone. It streams nothing: `nice.mac` re-floods every
    // `mdata` to its peers with no duplicate check, so one packet
    // multiplies without end.
    for proto in gen::PROTOCOLS {
        let ((iw, ilog), (gw, glog)) =
            run_twins(proto, 8, 22, |w, h| drive_multicast(w, h, 0, true));
        assert_eq!(ilog, glog, "delivery logs diverged ({proto})");
        assert_state_eq(&iw, &gw);
    }
}

#[test]
fn generated_pastry_interoperates_under_interpreted_scribe() {
    // Mixed-artifact stack: a *generated* Pastry under an *interpreted*
    // scribe.mac behaves identically to the all-interpreted stack —
    // the two back ends speak one wire format and one API.
    let reg = SpecRegistry::bundled();
    let scribe_spec = reg.resolve_chain("scribe").expect("chain")[1].clone();
    let n = 12;
    let seed = 15;

    let mut logs = Vec::new();
    for mixed in [false, true] {
        let cfg = WorldConfig {
            channels: reg.channel_table_for("scribe").expect("chain resolves"),
            ..seeded(seed)
        };
        let (mut w, hosts, sink) = stack_world(star(n), cfg, STAGGER, |bootstrap| {
            let lowest: Box<dyn Agent> = if mixed {
                Box::new(gen::pastry::Pastry::new(bootstrap))
            } else {
                Box::new(InterpretedAgent::new(
                    reg.resolve_chain("scribe").unwrap()[0].clone(),
                    bootstrap,
                ))
            };
            vec![
                lowest,
                Box::new(InterpretedAgent::new(scribe_spec.clone(), bootstrap)),
            ]
        });
        drive_multicast(&mut w, &hosts, 5, true);
        logs.push(log_of(&sink));
    }
    assert!(!logs[0].is_empty(), "baseline stack delivered packets");
    assert_eq!(logs[0], logs[1], "mixed stack diverged from baseline");
}

#[test]
fn all_nine_generated_stacks_instantiate_and_run() {
    // Roster smoke: every bundled spec's generated stack spins up and
    // fires transitions without wedging the world (the spec_roster.rs
    // analogue for the generated artifact).
    for proto in gen::PROTOCOLS {
        let (mut w, hosts, _sink) = world_of(Backend::Generated, proto, 6, 21);
        w.run_until(Time::from_secs(30));
        for &h in &hosts {
            let stack = w.stack(h).unwrap();
            assert!(stack.num_layers() >= 1, "{proto}: stack missing");
        }
        drop(w);
        // And the channel table matches what the interpreter derives.
        let want = SpecRegistry::bundled().channel_table_for(proto).unwrap();
        let got = gen::channel_table(proto).unwrap();
        assert_eq!(want.len(), got.len(), "{proto}: channel table size");
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.name, b.name, "{proto}: channel name");
            assert_eq!(a.kind, b.kind, "{proto}: channel kind");
        }
    }
}
