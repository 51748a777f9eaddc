//! Ablation benches for the design choices the paper's §3 calls out,
//! each one a parameterisation or a one-line variant of a bundled spec:
//!
//! 1. static vs dynamic fix-fingers period (Fig 10's own question):
//!    `chord.mac`'s fix-fingers constants,
//! 2. one shared transport vs multiple priority transports (§3.1): an
//!    `overcast.mac` variant whose control messages ride the data class,
//! 3. control/data locking classification (read-share opportunity): a
//!    `chord.mac` variant that marks its query handlers read-locked,
//! 4. failure-detector g/f thresholds (detection latency trade-off).
//!
//! Each times a fixed-size simulation and returns its protocol-level
//! outcome; the locking and failure-detector ablations assert theirs.

use criterion::{criterion_group, criterion_main, Criterion};
use macedon_bench::experiments::{correct_fingers, spec_world, stack_world};
use macedon_bench::lsd::{chord_registry, LSD};
use macedon_core::{Bytes, DownCall, Duration, MacedonKey, NodeId, Time, World, WorldConfig};
use macedon_lang::{bundled_specs, compile, InterpretedAgent, SpecRegistry};
use macedon_net::topology::{canned, LinkSpec};
use std::sync::Arc;

fn star(n: usize) -> macedon_net::Topology {
    canned::star(n, LinkSpec::lan())
}

fn agent(w: &World, node: NodeId) -> &InterpretedAgent {
    w.stack(node)
        .unwrap()
        .agent(0)
        .as_any()
        .downcast_ref()
        .unwrap()
}

/// The bundled roster with `name` replaced by its source after `edit`.
fn variant(name: &str, edit: impl Fn(&str) -> String) -> SpecRegistry {
    let (_, src) = bundled_specs()
        .into_iter()
        .find(|&(n, _)| n == name)
        .expect("bundled spec");
    let mut registry = SpecRegistry::bundled();
    registry.insert(Arc::new(compile(&edit(src)).expect("variant compiles")));
    registry
}

/// 1. Chord fix-fingers timer ablation: correct entries at t=40 s.
fn ablation_chord_timer(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/chord-fix-fingers");
    let flavors: [(&str, &[(&str, i64)]); 3] = [
        ("static-1s", &[("FIX_FINGERS_MS", 1_000)]),
        ("static-20s", &[("FIX_FINGERS_MS", 20_000)]),
        ("lsd-dynamic", &LSD),
    ];
    for (label, constants) in flavors {
        let registry = chord_registry(constants);
        group.bench_function(label, |b| {
            b.iter(|| {
                let (mut w, hosts, _sink) = spec_world(&registry, "chord", star(12), 5, 100);
                w.run_until(Time::from_secs(40));
                correct_fingers(&w, &hosts)
            })
        });
    }
    group.finish();
}

/// 2. Transport-class ablation: Overcast joins while a bulk transfer
///    hogs the shared (or separate) transport.
fn ablation_transport_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/transport-classes");
    // Every control message declared on the data class (TCP `HIGH`).
    let shared = variant("overcast", |src| {
        src.replace("    HIGHEST ", "    HIGH ")
            .replace("    BEST_EFFORT ", "    HIGH ")
    });
    for (label, registry) in [
        ("separate-priorities", SpecRegistry::bundled()),
        ("single-shared-tcp", shared),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let (mut w, hosts, _sink) = spec_world(&registry, "overcast", star(8), 6, 100);
                // Bulk pressure on the data channel throughout.
                for k in 0..40u64 {
                    w.api_at(
                        Time::from_millis(200 + k * 100),
                        hosts[0],
                        DownCall::Multicast {
                            group: MacedonKey(0),
                            payload: Bytes::from(vec![0u8; 8 + 60_000]),
                            priority: -1,
                        },
                    );
                }
                w.run_until(Time::from_secs(30));
                hosts[1..]
                    .iter()
                    .filter(|&&h| agent(&w, h).list("papa").is_some_and(|p| !p.is_empty()))
                    .count()
            })
        });
    }
    group.finish();
}

/// 3. Locking classification: the read share a routing-heavy workload
///    exposes once the query handlers are declared read-locked.
fn ablation_locking_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/locking read-share");
    let read_locked = variant("chord", |src| {
        [
            "joined recv find_succ",
            "joined recv get_pred",
            "any recv ping",
        ]
        .iter()
        .fold(src.to_string(), |s, t| {
            s.replace(&format!("{t} {{"), &format!("{t} [locking read;] {{"))
        })
    });
    for (label, registry, expect_reads) in [
        ("all-write", SpecRegistry::bundled(), false),
        ("queries-read", read_locked, true),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let (mut w, _hosts, _sink) = spec_world(&registry, "chord", star(10), 7, 100);
                w.run_until(Time::from_secs(40));
                let (r, wr) = w.transition_counts();
                assert_eq!(r > 0, expect_reads, "{label}: read transitions");
                (r, wr)
            })
        });
    }
    group.finish();
}

/// 4. Failure-detector thresholds: detection latency under g/f choices.
fn ablation_fd_thresholds(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/failure-detector");
    let registry = SpecRegistry::bundled();
    for (label, g_s, f_s) in [
        ("aggressive-2s-6s", 2u64, 6u64),
        ("paper-5s-15s", 5, 15),
        ("lazy-10s-30s", 10, 30),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let cfg = WorldConfig {
                    seed: 8,
                    channels: registry.channel_table_for("chord").unwrap(),
                    fd_g: Duration::from_secs(g_s),
                    fd_f: Duration::from_secs(f_s),
                    ..Default::default()
                };
                let (mut w, hosts, _sink) = stack_world(star(6), cfg, 100, |bootstrap| {
                    registry.build_stack("chord", bootstrap).unwrap()
                });
                w.run_until(Time::from_secs(30));
                let victim = hosts[3];
                w.crash_at(Time::from_secs(30), victim);
                // Run until the ring heals; shorter f heals sooner.
                w.run_until(Time::from_secs(30 + 4 * f_s + 20));
                let mut ring: Vec<NodeId> = hosts.into_iter().filter(|&h| h != victim).collect();
                ring.sort_by_key(|&h| w.key_of(h));
                let healed = ring.iter().enumerate().all(|(i, &node)| {
                    let me = w.key_of(node);
                    let succ = agent(&w, node)
                        .list("succs")
                        .unwrap()
                        .iter()
                        .copied()
                        .min_by_key(|&s| me.distance_to(w.key_of(s)));
                    succ == Some(ring[(i + 1) % ring.len()])
                });
                assert!(healed, "{label}: ring healed");
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_chord_timer, ablation_transport_classes, ablation_locking_classes, ablation_fd_thresholds
}
criterion_main!(benches);
