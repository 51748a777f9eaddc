//! Cross-crate integration: layered spec interpretation. The `uses`
//! roster — scribe-on-pastry and splitstream-on-scribe-on-pastry — runs
//! entirely from `.mac` specs, and its delivery behavior is
//! cross-validated against the native layered stacks. A mixed stack
//! (native Pastry under interpreted `scribe.mac`) exercises the claim
//! that interpreted and native agents compose through the same API.

mod common;

use common::{assert_matches_golden, drive_multicast, star, view};
use macedon::lang::interp::InterpretedAgent;
use macedon::lang::SpecRegistry;
use macedon::overlays::pastry::{Pastry, PastryConfig};
use macedon::overlays::scribe::{Scribe, ScribeConfig};
use macedon::overlays::splitstream::{SplitStream, SplitStreamConfig};
use macedon::prelude::*;
use macedon_bench::experiments::Backend;
use std::collections::HashSet;

/// Joins start this far apart.
const STAGGER: Duration = Duration::from_millis(100);

/// Per-packet sets of member nodes that delivered it.
fn coverage(sink: &macedon::core::app::SharedDeliveries, n_pkts: u64) -> Vec<HashSet<NodeId>> {
    let log = sink.lock();
    (0..n_pkts)
        .map(|i| {
            log.iter()
                .filter(|r| r.seqno == Some(i))
                .map(|r| r.node)
                .collect()
        })
        .collect()
}

fn interpreted_world(
    proto: &str,
    n: usize,
    seed: u64,
) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    Backend::Interpreted.world(proto, star(n), WorldConfig::seeded(seed), STAGGER)
}

fn native_world(
    layers: usize,
    n: usize,
    seed: u64,
) -> (World, Vec<NodeId>, macedon::core::app::SharedDeliveries) {
    let mut w = World::new(star(n), WorldConfig::seeded(seed));
    let (hosts, sink) = w.spawn_each(STAGGER, |bootstrap| {
        let mut stack: Vec<Box<dyn Agent>> = vec![
            Box::new(Pastry::new(PastryConfig {
                bootstrap,
                ..Default::default()
            })),
            Box::new(Scribe::new(ScribeConfig::default())),
        ];
        if layers == 3 {
            stack.push(Box::new(SplitStream::new(SplitStreamConfig::default())));
        }
        stack
    });
    (w, hosts, sink)
}

#[test]
fn interpreted_scribe_on_pastry_stack_multicasts() {
    let (mut w, hosts, sink) = interpreted_world("scribe", 12, 7);
    let group = MacedonKey::of_name("lg1");
    drive_multicast(&mut w, &hosts, group, true, 5, 120);
    let cov = coverage(&sink, 5);
    for (i, got) in cov.iter().enumerate() {
        assert!(
            got.len() >= hosts.len() - 2,
            "packet {i} reached {}/{} members over interpreted scribe-on-pastry",
            got.len(),
            hosts.len() - 1
        );
    }
}

#[test]
fn interpreted_splitstream_stack_cross_validates_against_native() {
    // The acceptance scenario: splitstream → scribe → pastry, all three
    // layers interpreted from specs, versus the native layered stack in
    // the same deterministic world. Both must deliver every packet to
    // (essentially) every member — same packets, same coverage law.
    let n = 12;
    let n_pkts = 5;
    let group = MacedonKey::of_name("lg2");

    let (mut iw, ihosts, isink) = interpreted_world("splitstream", n, 8);
    drive_multicast(&mut iw, &ihosts, group, true, n_pkts, 120);
    let interp_cov = coverage(&isink, n_pkts);

    let (mut nw, nhosts, nsink) = native_world(3, n, 8);
    drive_multicast(&mut nw, &nhosts, group, true, n_pkts, 120);
    let native_cov = coverage(&nsink, n_pkts);

    for i in 0..n_pkts as usize {
        assert!(
            native_cov[i].len() >= n - 2,
            "packet {i} reached {}/{} members natively",
            native_cov[i].len(),
            n - 1
        );
        assert!(
            interp_cov[i].len() >= n - 2,
            "packet {i} reached {}/{} members from specs",
            interp_cov[i].len(),
            n - 1
        );
    }
    // Every packet the native stack disseminated, the interpreted stack
    // disseminated too (and to comparable breadth).
    let native_pkts: Vec<bool> = native_cov.iter().map(|s| !s.is_empty()).collect();
    let interp_pkts: Vec<bool> = interp_cov.iter().map(|s| !s.is_empty()).collect();
    assert_eq!(native_pkts, interp_pkts, "same packet set disseminated");
}

#[test]
fn mixed_stack_native_pastry_under_interpreted_scribe() {
    // Interpreted and native agents in ONE stack: the spec-level Scribe
    // rides a native Pastry's real prefix routing. Joins converge at
    // the true key owner, forward interception installs reverse-path
    // state, and multicasts reach the membership.
    let reg = SpecRegistry::bundled();
    let chain = reg.resolve_chain("scribe").expect("chain resolves");
    assert_eq!(chain.len(), 2);
    let scribe_spec = chain[1].clone();

    let n = 12;
    let mut w = World::new(star(n), WorldConfig::seeded(9));
    let (hosts, sink) = w.spawn_each(STAGGER, |bootstrap| {
        vec![
            Box::new(Pastry::new(PastryConfig {
                bootstrap,
                ..Default::default()
            })),
            Box::new(InterpretedAgent::new(scribe_spec.clone(), bootstrap)),
        ]
    });
    let group = MacedonKey::of_name("lg3");
    drive_multicast(&mut w, &hosts, group, true, 3, 120);
    let cov = coverage(&sink, 3);
    for (i, got) in cov.iter().enumerate() {
        assert!(
            got.len() >= n - 2,
            "packet {i} reached {}/{} members over the mixed stack",
            got.len(),
            n - 1
        );
    }
}

// ---------------------------------------------------------------------------
// Golden seeded runs: the interpreter's delivery behavior is pinned to
// fixtures captured from the pre-IR AST-walking interpreter. The
// slot-indexed IR back end must reproduce them bit-for-bit — delivery
// logs (timestamps included), final FSM states, and neighbor lists.
// Refresh (only for an *intentional* semantic change) with
// `UPDATE_GOLDEN=1 cargo test --test integration_layered`.
// ---------------------------------------------------------------------------

/// Render a finished run as stable text: one `d` line per delivery in
/// arrival order, then one `s` line per node with the layer-0 FSM state
/// and every declared neighbor list.
fn render_run(w: &World, hosts: &[NodeId], sink: &macedon::core::app::SharedDeliveries) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for r in sink.lock().iter() {
        writeln!(
            out,
            "d {} {} {} {} {} {}",
            r.at.as_micros(),
            r.node.0,
            r.src.0,
            r.from.0,
            r.bytes,
            r.seqno.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
        )
        .unwrap();
    }
    for &h in hosts {
        let a = view(w, h, 0);
        write!(out, "s {} {}", h.0, a.state).unwrap();
        for (l, list) in &a.lists {
            let ns: Vec<String> = list.iter().map(|n| n.0.to_string()).collect();
            write!(out, " {}={}", l, ns.join(",")).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Seeded single-layer run (overcast/randtree): multicast traffic from
/// hosts[1] without explicit joins, the generated-twin scenario.
fn golden_single_layer(proto: &str, seed: u64) {
    let (mut w, hosts, sink) = interpreted_world(proto, 10, seed);
    let group = MacedonKey::of_name("golden");
    w.run_until(Time::from_secs(40));
    w.run_until(Time::from_secs(80));
    for i in 0..5u64 {
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
    let rendered = render_run(&w, &hosts, &sink);
    assert!(
        rendered.lines().any(|l| l.starts_with('d')),
        "{proto}: golden run delivered packets"
    );
    assert_matches_golden(proto, &rendered);
}

/// Seeded layered run (scribe/splitstream stacks): the join + multicast
/// schedule of the cross-validation suite, logged against the top spec's
/// base layer.
fn golden_layered(proto: &str, seed: u64) {
    let (mut w, hosts, sink) = interpreted_world(proto, 12, seed);
    let group = MacedonKey::of_name("golden");
    drive_multicast(&mut w, &hosts, group, true, 5, 120);
    let rendered = render_run(&w, &hosts, &sink);
    assert!(
        rendered.lines().any(|l| l.starts_with('d')),
        "{proto}: golden run delivered packets"
    );
    assert_matches_golden(proto, &rendered);
}

#[test]
fn golden_overcast_seeded_run() {
    golden_single_layer("overcast", 31);
}

#[test]
fn golden_randtree_seeded_run() {
    golden_single_layer("randtree", 32);
}

#[test]
fn golden_scribe_stack_seeded_run() {
    golden_layered("scribe", 33);
}

#[test]
fn golden_splitstream_stack_seeded_run() {
    golden_layered("splitstream", 34);
}

#[test]
fn route_transition_honors_declared_transport_class() {
    // chord.mac declares its `route_data` message DATA (UDP): payloads
    // served by the spec's own `route` transition must ride the
    // unreliable data channel, never the reliable TCP CTRL channel.
    // `Endpoint::channel_stats` aggregates reliable-connection counters
    // only, so the check is sharp: two identically seeded runs — one
    // issuing routes, one idle — must show *identical* per-node CTRL
    // stats, while the routed run demonstrably delivers. A back end
    // that misrouted `route_data` onto CTRL would inflate messages and
    // bytes there immediately. Asserted for both translator back ends.
    for backend in [Backend::Interpreted, Backend::Generated] {
        let run = |routes: bool| {
            let (mut w, hosts, sink) =
                backend.world("chord", star(10), WorldConfig::seeded(27), STAGGER);
            let ctrl = w.channel("CTRL").unwrap();
            w.run_until(Time::from_secs(60));
            if routes {
                for i in 0..6u64 {
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
            }
            w.run_until(Time::from_secs(90));
            let ctrl_stats: Vec<(u64, u64)> = hosts
                .iter()
                .map(|&h| {
                    let st = w.endpoint(h).unwrap().channel_stats(ctrl);
                    (st.messages_delivered, st.bytes_sent)
                })
                .collect();
            let delivered = sink.lock().len();
            (ctrl_stats, delivered)
        };
        let (idle_ctrl, idle_deliveries) = run(false);
        let (routed_ctrl, routed_deliveries) = run(true);
        assert_eq!(idle_deliveries, 0, "{backend:?}: idle run must not deliver");
        assert!(
            routed_deliveries > 0,
            "{backend:?}: routed packets must reach their key owners"
        );
        assert!(
            idle_ctrl.iter().any(|&(m, b)| m > 0 && b > 0),
            "{backend:?}: ring maintenance rides CTRL"
        );
        assert_eq!(
            idle_ctrl, routed_ctrl,
            "{backend:?}: route traffic leaked onto the reliable CTRL \
             channel — route_data is declared DATA (UDP)"
        );
    }
}

#[test]
fn interpreted_bullet_stack_instantiates_and_runs() {
    // Bullet-over-RandTree from specs: the stack spins up, the tree
    // forms underneath, and the mesh layer fires transitions (RanSub
    // epochs) without wedging the world.
    let (mut w, hosts, _sink) = interpreted_world("bullet", 8, 10);
    w.run_until(Time::from_secs(60));
    for &h in &hosts {
        let stack = w.stack(h).unwrap();
        assert_eq!(stack.num_layers(), 2);
        assert_eq!(view(&w, h, 0).state, "joined", "{h:?} randtree joined");
        assert_eq!(view(&w, h, 1).state, "active", "{h:?} bullet active");
        let bullet: &InterpretedAgent = stack.agent(1).as_any().downcast_ref().unwrap();
        assert!(bullet.transitions_fired > 0);
    }
}
