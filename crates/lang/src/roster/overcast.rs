//! `overcast.mac`, interpreted: Figure 1's FSM from the bootstrap, the
//! fan-out-capped tree, root-flooded multicast, goodput-driven
//! relocation and orphan rejoin through the grandparent.

use crate::roster::testworld::{roster_world, seeded};
use crate::SpecRegistry;
use macedon_core::app::SharedDeliveries;
use macedon_core::{NodeId, World};
use macedon_net::topology::{canned, LinkSpec};

/// An `n`-node Overcast tree on a star LAN with at most 3 children per
/// node, joins 100 ms apart.
pub(crate) fn tree(n: usize, seed: u64) -> (World, Vec<NodeId>, SharedDeliveries) {
    let mut r = SpecRegistry::bundled();
    r.set_constants("overcast", &[("MAXKIDS", 3)])
        .expect("overcast declares MAXKIDS");
    roster_world(
        &r,
        "overcast",
        canned::star(n, LinkSpec::lan()),
        seeded(seed),
        100,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roster::testworld::{multicast, only, reaches_root, receivers, view};
    use macedon_core::Time;
    use macedon_net::topology::TopologyBuilder;

    #[test]
    fn bootstrap_starts_joined() {
        let (mut w, hosts, _s) = tree(2, 1);
        w.run_until(Time::from_secs(1));
        assert_eq!(view(&w, hosts[0]).state, "joined");
        assert_eq!(
            only(&w, hosts[0], "papa"),
            None,
            "the bootstrap is the root"
        );
    }

    #[test]
    fn tree_forms_with_fanout_cap() {
        let (mut w, hosts, _s) = tree(12, 3);
        w.run_until(Time::from_secs(60));
        for &h in &hosts {
            let a = view(&w, h);
            assert!(
                matches!(a.state, "joined" | "probed" | "probing"),
                "{h:?} in {}",
                a.state
            );
            assert!(a.list("kids").unwrap().len() <= 3);
            assert!(reaches_root(&w, &hosts, h), "{h:?} reaches the root");
        }
    }

    #[test]
    fn multicast_floods_tree() {
        let (mut w, hosts, sink) = tree(10, 5);
        w.run_until(Time::from_secs(60));
        multicast(&mut w, Time::from_secs(60), hosts[0], 11);
        w.run_until(Time::from_secs(70));
        assert_eq!(receivers(&sink, 11).len(), hosts.len() - 1);
    }

    #[test]
    fn member_multicast_goes_via_root() {
        let (mut w, hosts, sink) = tree(8, 7);
        w.run_until(Time::from_secs(60));
        let leaf = *hosts.last().unwrap();
        multicast(&mut w, Time::from_secs(60), leaf, 22);
        w.run_until(Time::from_secs(70));
        let got = receivers(&sink, 22);
        assert!(got.contains(&hosts[0]));
        assert_eq!(got.len(), hosts.len() - 1);
    }

    /// The root sits behind a 4 kbit/s uplink, slower than a probe
    /// train, and sibling `s` behind a fast one: `x` starts under the
    /// root and moves under `s` once a probe epoch measures both.
    #[test]
    fn relocation_moves_to_higher_bandwidth_parent() {
        let mut b = TopologyBuilder::new();
        let hub = b.add_router();
        let root = b.add_host();
        let s = b.add_host();
        let x = b.add_host();
        b.add_link(root, hub, LinkSpec::access(4_000));
        b.add_link(s, hub, LinkSpec::access(100_000_000));
        b.add_link(x, hub, LinkSpec::access(100_000_000));
        let mut r = SpecRegistry::bundled();
        r.set_constants("overcast", &[("PINT", 5000)]).unwrap();
        let (mut w, _hosts, _s) = roster_world(&r, "overcast", b.build(), seeded(11), 100);
        w.run_until(Time::from_secs(120));
        assert_eq!(
            only(&w, x, "papa"),
            Some(s),
            "x ends under the fast sibling"
        );
    }

    #[test]
    fn orphan_rejoins_through_grandparent() {
        let (mut w, hosts, _s) = tree(8, 13);
        w.run_until(Time::from_secs(60));
        let deep = hosts[1..].iter().copied().find(|&h| {
            let p = only(&w, h, "papa");
            p.is_some() && p != Some(hosts[0])
        });
        let Some(child) = deep else {
            return; // a flat tree has no grandchild to orphan
        };
        let dead_parent = only(&w, child, "papa").unwrap();
        w.crash_at(Time::from_secs(61), dead_parent);
        w.run_until(Time::from_secs(150));
        let parent = only(&w, child, "papa");
        assert!(parent.is_some(), "re-homed after the parent crash");
        assert_ne!(parent, Some(dead_parent));
    }
}
