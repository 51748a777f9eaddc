//! Helpers shared by the workspace integration tests: a star LAN, a
//! reader of the agents' state, payloads, the multicast schedule, and
//! the golden-file check.
//! Worlds come from `World::spawn_each`, `SpecRegistry::world` and
//! `macedon_bench::experiments::Backend::world`.
#![allow(dead_code)]

use macedon::core::app::SharedDeliveries;
use macedon::net::Topology;
use macedon::prelude::*;

/// A star LAN of `n` hosts.
pub(crate) fn star(n: usize) -> Topology {
    macedon::net::topology::canned::star(n, macedon::net::topology::LinkSpec::lan())
}

/// The state of the spec agent at layer `layer` of `node`'s stack,
/// interpreted or generated.
pub(crate) fn view(w: &World, node: NodeId, layer: usize) -> AgentState<'_> {
    w.stack(node)
        .expect("spawned")
        .agent(layer)
        .view()
        .expect("a spec agent")
}

/// The single entry of a one-slot neighbor list (`parent`-style) of the
/// agent at layer 0.
pub(crate) fn only(w: &World, node: NodeId, list: &str) -> Option<NodeId> {
    view(w, node, 0).list(list)?.first().copied()
}

/// A `len`-byte payload stamped with sequence number `seq`.
pub(crate) fn stamped(seq: u64, len: usize) -> Bytes {
    let mut p = vec![0u8; len.max(8)];
    p[..8].copy_from_slice(&seq.to_be_bytes());
    Bytes::from(p)
}

/// The multicast schedule the suites share: at 40 s every host but
/// `hosts[0]` joins `group` (unless `join` is off, for an overlay that
/// builds its tree by itself), then from 80 s `hosts[1]` multicasts
/// `n_pkts` 128-byte packets [`stamped`] 0, 1, … 200 ms apart; the world
/// runs to `end_s`.
pub(crate) fn drive_multicast(
    w: &mut World,
    hosts: &[NodeId],
    group: MacedonKey,
    join: bool,
    n_pkts: u64,
    end_s: u64,
) {
    w.run_until(Time::from_secs(40));
    if join {
        for &h in &hosts[1..] {
            w.api_at(Time::from_secs(40), h, DownCall::Join { group });
        }
    }
    w.run_until(Time::from_secs(80));
    for i in 0..n_pkts {
        w.api_at(
            Time::from_secs(80) + Duration::from_millis(i * 200),
            hosts[1],
            DownCall::Multicast {
                group,
                payload: stamped(i, 128),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(end_s));
}

/// Nodes that delivered packet `seq`.
pub(crate) fn receivers(sink: &SharedDeliveries, seq: u64) -> std::collections::HashSet<NodeId> {
    sink.lock()
        .iter()
        .filter(|r| r.seqno == Some(seq))
        .map(|r| r.node)
        .collect()
}

/// The Chord ring over `hosts` (chord at layer 0) is correct: the
/// [`ChordOracle`] finds no fault in it.
pub(crate) fn assert_ring_closed(w: &World, hosts: &[NodeId]) {
    let violations = ChordOracle.check(&Snapshot::of(w, hosts));
    assert!(violations.is_empty(), "{violations:#?}");
}

/// Compare `rendered` with the checked-in fixture `tests/golden/{name}.log`,
/// or rewrite the fixture when `UPDATE_GOLDEN` is set (only for an
/// intentional change of behaviour).
pub(crate) fn assert_matches_golden(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.log"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    assert_eq!(rendered, want, "seeded run diverged from golden {name}.log");
}
