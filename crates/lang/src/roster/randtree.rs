//! `randtree.mac`, interpreted: one tree rooted at the bootstrap with
//! the fan-out cap held, floods from any member, and orphan rejoin.

use crate::roster::testworld::{roster_world, seeded};
use crate::SpecRegistry;
use macedon_core::app::SharedDeliveries;
use macedon_core::{NodeId, World};
use macedon_net::topology::{canned, LinkSpec};

/// An `n`-node tree on a star LAN with at most `max_kids` children per
/// node, joins 50 ms apart.
pub(crate) fn tree(n: usize, max_kids: i64, seed: u64) -> (World, Vec<NodeId>, SharedDeliveries) {
    let mut r = SpecRegistry::bundled();
    r.set_constants("randtree", &[("MAXKIDS", max_kids)])
        .expect("randtree declares MAXKIDS");
    roster_world(
        &r,
        "randtree",
        canned::star(n, LinkSpec::lan()),
        seeded(seed),
        50,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roster::testworld::{list, multicast, only, reaches_root, receivers, view};
    use macedon_core::Time;

    #[test]
    fn everyone_joins_a_single_tree() {
        let (mut w, hosts, _sink) = tree(20, 3, 1);
        w.run_until(Time::from_secs(30));
        for &h in &hosts {
            assert_eq!(view(&w, h).state, "joined", "{h:?}");
            assert!(reaches_root(&w, &hosts, h), "{h:?} reaches the root");
        }
    }

    #[test]
    fn fanout_respected() {
        let (mut w, hosts, _sink) = tree(30, 2, 3);
        w.run_until(Time::from_secs(30));
        for &h in &hosts {
            assert!(list(&w, h, "kids").len() <= 2);
        }
    }

    #[test]
    fn multicast_reaches_every_member() {
        let (mut w, hosts, sink) = tree(15, 3, 5);
        w.run_until(Time::from_secs(30));
        multicast(&mut w, Time::from_secs(30), hosts[0], 42);
        w.run_until(Time::from_secs(35));
        assert_eq!(receivers(&sink, 42).len(), hosts.len() - 1);
    }

    #[test]
    fn multicast_from_leaf_reaches_all() {
        let (mut w, hosts, sink) = tree(12, 3, 7);
        w.run_until(Time::from_secs(30));
        let leaf = *hosts.last().unwrap();
        multicast(&mut w, Time::from_secs(30), leaf, 77);
        w.run_until(Time::from_secs(35));
        let got = receivers(&sink, 77);
        assert_eq!(
            got.len(),
            hosts.len() - 1,
            "all but the leaf source deliver"
        );
        assert!(!got.contains(&leaf));
    }

    #[test]
    fn orphan_rejoins_after_parent_crash() {
        let (mut w, hosts, _sink) = tree(10, 2, 9);
        w.run_until(Time::from_secs(30));
        let interior = hosts[1..]
            .iter()
            .copied()
            .find(|&h| !list(&w, h, "kids").is_empty())
            .expect("a tree of 10 with fan-out 2 has interior nodes");
        let orphan = list(&w, interior, "kids")[0];
        w.crash_at(Time::from_secs(31), interior);
        w.run_until(Time::from_secs(120));
        assert_eq!(view(&w, orphan).state, "joined", "orphan rejoined");
        let parent = only(&w, orphan, "papa");
        assert!(
            parent.is_some_and(|p| p != interior),
            "orphan found a live parent"
        );
    }
}
