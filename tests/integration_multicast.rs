//! Cross-crate integration: application-layer multicast — Scribe over
//! both DHTs (the paper's layering switch) and SplitStream striping.
//! The multicast runs are scenario scripts (`subscribe`, then a
//! multicast `stream`); the anycast and leave runs issue their calls by
//! hand, since no script verb says anycast or leave.

mod common;

use macedon::lang::{bundled_specs, compile, SpecRegistry};
use macedon::overlays::pastry::{Pastry, PastryConfig};
use macedon::overlays::scribe::{DataPath, Scribe, ScribeConfig};
use macedon::overlays::splitstream::{stripe_key, SplitStream, SplitStreamConfig};
use macedon::prelude::*;
use macedon::scenario::{ScenarioOutcome, ScenarioRunner};
use macedon_bench::experiments::{scenario_runner, spec_runner};
use std::sync::Arc;

/// Joins start this far apart.
const STAGGER: Duration = Duration::from_millis(100);

/// Native Scribe over native Pastry.
fn scribe_stack(bootstrap: Option<NodeId>) -> Vec<Box<dyn Agent>> {
    let pastry = Pastry::new(PastryConfig {
        bootstrap,
        ..Default::default()
    });
    vec![
        Box::new(pastry),
        Box::new(Scribe::new(ScribeConfig::default())),
    ]
}

fn scribe_world(n: usize, seed: u64) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    let mut w = World::new(common::star(n), WorldConfig::seeded(seed));
    let (hosts, sink) = w.spawn_each(STAGGER, scribe_stack);
    (w, hosts, sink)
}

/// `n` nodes join `STAGGER` apart; at 40 s every node but 0 subscribes
/// to the scenario's group, and from `stream_s` node 1 multicasts
/// `packets` packets of `size` bytes, `gap_ms` apart, each stamped with
/// its sequence number; the run ends 30 s after the stream starts.
fn multicast_script(n: usize, stream_s: u64, packets: u64, size: usize, gap_ms: u64) -> String {
    format!(
        "scenario multicast\nnodes {n}\nend {end}s\n\
         at 0s join 0..{n} over {over}ms\n\
         at 40s subscribe 1..{n}\n\
         at {stream_s}s stream 1 rate {rate}bps size {size} for {dur}ms multicast\n",
        end = stream_s + 30,
        over = n as u64 * STAGGER.as_millis(),
        rate = size as u64 * 8 * 1_000 / gap_ms,
        dur = packets * gap_ms,
    )
}

/// Run `runner` to its end; its group comes back with the outcome.
fn run(runner: ScenarioRunner<'_>) -> (ScenarioOutcome, MacedonKey) {
    let group = runner.group();
    (runner.run(), group)
}

#[test]
fn scribe_over_pastry_reaches_all_members() {
    let script = multicast_script(12, 80, 5, 128, 100);
    let (out, _) = run(scenario_runner(
        &script,
        common::star(12),
        WorldConfig::seeded(1),
        scribe_stack,
    ));
    let (hosts, log) = (&out.hosts, out.deliveries.lock());
    for i in 0..5u64 {
        let got: std::collections::HashSet<NodeId> = log
            .iter()
            .filter(|r| r.seqno == Some(i))
            .map(|r| r.node)
            .collect();
        // All receivers (hosts[1..]) except... the sender hosts[1] is a
        // member and delivers its own multicast through the tree root.
        assert!(
            got.len() >= hosts.len() - 2,
            "packet {i} reached {}/{} members over pastry",
            got.len(),
            hosts.len() - 1
        );
    }
}

/// The paper's one-line layering switch: `scribe.mac` re-declared
/// `uses chord` and inserted over the bundled `chord.mac`.
#[test]
fn scribe_over_chord_reaches_all_members() {
    let (_, src) = bundled_specs()
        .into_iter()
        .find(|&(name, _)| name == "scribe")
        .expect("scribe is bundled");
    let src = src.replace(
        "protocol scribe uses pastry;",
        "protocol scribe uses chord;",
    );
    let mut registry = SpecRegistry::bundled();
    registry.insert(Arc::new(compile(&src).expect("scribe over chord compiles")));
    let script = multicast_script(12, 80, 5, 128, 100);
    let cfg = WorldConfig::seeded(2);
    let runner = spec_runner(&script, common::star(12), cfg, &registry, "scribe");
    let (out, _) = run(runner);
    let (hosts, log) = (&out.hosts, out.deliveries.lock());
    for i in 0..5u64 {
        let got: std::collections::HashSet<NodeId> = log
            .iter()
            .filter(|r| r.seqno == Some(i))
            .map(|r| r.node)
            .collect();
        assert!(
            got.len() >= hosts.len() - 2,
            "packet {i} reached {}/{} members over chord",
            got.len(),
            hosts.len() - 1
        );
    }
}

#[test]
fn scribe_trees_are_rooted_at_group_owner() {
    let script = multicast_script(10, 80, 1, 128, 100);
    let (out, group) = run(scenario_runner(
        &script,
        common::star(10),
        WorldConfig::seeded(3),
        scribe_stack,
    ));
    let (w, hosts) = (&out.world, &out.hosts);
    // Exactly one root, and it is the Pastry owner of the group key.
    let owner = hosts
        .iter()
        .copied()
        .min_by_key(|&h| {
            let k = w.key_of(h);
            (k.ring_distance(group), k.0)
        })
        .unwrap();
    let mut roots = 0;
    for &h in hosts {
        let s: &Scribe = w
            .stack(h)
            .unwrap()
            .agent(1)
            .as_any()
            .downcast_ref()
            .unwrap();
        if s.is_root(group) {
            roots += 1;
            assert_eq!(h, owner, "root is the key owner");
        }
    }
    assert_eq!(roots, 1, "exactly one root");
}

#[test]
fn splitstream_stripes_spread_over_distinct_trees() {
    // 16 packets round-robin over 8 stripes.
    let script = multicast_script(16, 100, 16, 256, 50);
    let cfg = WorldConfig::seeded(4);
    let runner = scenario_runner(&script, common::star(16), cfg, |bootstrap| {
        let pastry = Pastry::new(PastryConfig {
            bootstrap,
            ..Default::default()
        });
        let scribe = Scribe::new(ScribeConfig {
            data_path: DataPath::RouteIp,
            max_children: Some(4),
        });
        let split = SplitStream::new(SplitStreamConfig { stripes: 8 });
        vec![Box::new(pastry), Box::new(scribe), Box::new(split)]
    });
    let (out, group) = run(runner);
    let (w, hosts) = (&out.world, &out.hosts);
    let log = out.deliveries.lock();
    // Every packet reaches (almost) every member despite striping.
    for i in 0..16u64 {
        let got: std::collections::HashSet<NodeId> = log
            .iter()
            .filter(|r| r.seqno == Some(i))
            .map(|r| r.node)
            .collect();
        assert!(
            got.len() >= hosts.len() - 3,
            "stripe packet {i} reached {}/{}",
            got.len(),
            hosts.len() - 1
        );
    }
    drop(log);
    // Stripe roots differ: the 8 stripe keys are owned by several
    // distinct nodes (interior disjointness comes from prefix routing).
    let roots: std::collections::HashSet<NodeId> = (0..8)
        .map(|i| {
            let k = stripe_key(group, i, 8);
            hosts
                .iter()
                .copied()
                .min_by_key(|&h| {
                    let hk = w.key_of(h);
                    (hk.ring_distance(k), hk.0)
                })
                .unwrap()
        })
        .collect();
    assert!(
        roots.len() >= 3,
        "stripes root at distinct nodes: {roots:?}"
    );
}

#[test]
fn anycast_reaches_exactly_one_member() {
    let (mut w, hosts, sink) = scribe_world(10, 9);
    let group = MacedonKey::of_name("anycast-group");
    w.run_until(Time::from_secs(40));
    for &h in &hosts[1..] {
        w.api_at(Time::from_secs(40), h, DownCall::Join { group });
    }
    w.run_until(Time::from_secs(80));
    for i in 0..6u64 {
        let mut p = vec![0u8; 64];
        p[..8].copy_from_slice(&(100 + i).to_be_bytes());
        w.api_at(
            Time::from_secs(80) + Duration::from_millis(i * 100),
            hosts[1],
            DownCall::Anycast {
                group,
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(100));
    let log = sink.lock();
    for i in 0..6u64 {
        let hits = log.iter().filter(|r| r.seqno == Some(100 + i)).count();
        assert_eq!(hits, 1, "anycast {i} delivered to exactly one member");
    }
}

#[test]
fn leave_prunes_the_tree() {
    let (mut w, hosts, sink) = scribe_world(8, 13);
    let group = MacedonKey::of_name("leavers");
    w.run_until(Time::from_secs(40));
    for &h in &hosts[1..] {
        w.api_at(Time::from_secs(40), h, DownCall::Join { group });
    }
    w.run_until(Time::from_secs(80));
    // Two members leave; later multicast must not reach them.
    let leavers = [hosts[2], hosts[4]];
    for &h in &leavers {
        w.api_at(Time::from_secs(80), h, DownCall::Leave { group });
    }
    w.run_until(Time::from_secs(120));
    let mut p = vec![0u8; 64];
    p[..8].copy_from_slice(&777u64.to_be_bytes());
    w.api_at(
        Time::from_secs(120),
        hosts[1],
        DownCall::Multicast {
            group,
            payload: Bytes::from(p),
            priority: -1,
        },
    );
    w.run_until(Time::from_secs(140));
    let log = sink.lock();
    let got: std::collections::HashSet<NodeId> = log
        .iter()
        .filter(|r| r.seqno == Some(777))
        .map(|r| r.node)
        .collect();
    for &l in &leavers {
        // A leaver may still relay as a forwarder, but must not deliver to
        // its application once `member = false`.
        assert!(!got.contains(&l), "leaver {l:?} must not deliver");
    }
    assert!(
        got.len() >= hosts.len() - 1 - 2 - 1,
        "remaining members still served: {got:?}"
    );
}
