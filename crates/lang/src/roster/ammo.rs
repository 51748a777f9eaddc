//! `ammo.mac`, interpreted: the degree-bounded tree, multicast over it,
//! and parent swaps that keep the tree acyclic.

use crate::SpecRegistry;
use macedon_core::app::SharedDeliveries;
use macedon_core::{Duration, NodeId, World, WorldConfig};
use macedon_net::topology::{canned, LinkSpec};

/// An `n`-node AMMO tree on a star LAN with degree at most 3, joins
/// 100 ms apart.
pub(crate) fn tree(n: usize, seed: u64) -> (World, Vec<NodeId>, SharedDeliveries) {
    let mut r = SpecRegistry::bundled();
    r.set_constants("ammo", &[("MAXDEG", 3)])
        .expect("ammo declares MAXDEG");
    let topo = canned::star(n, LinkSpec::lan());
    r.world(
        "ammo",
        topo,
        WorldConfig::seeded(seed),
        Duration::from_millis(100),
    )
    .expect("chain resolves")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roster::testworld::{list, multicast, only, reaches_root, receivers, view};
    use macedon_core::Time;

    #[test]
    fn tree_forms() {
        let (mut w, hosts, _s) = tree(12, 1);
        w.run_until(Time::from_secs(60));
        for &h in &hosts {
            assert_ne!(view(&w, h).state, "joining", "{h:?}");
            assert!(list(&w, h, "kids").len() <= 3);
            assert!(reaches_root(&w, &hosts, h), "{h:?}");
        }
    }

    #[test]
    fn multicast_reaches_all() {
        let (mut w, hosts, sink) = tree(10, 3);
        w.run_until(Time::from_secs(60));
        multicast(&mut w, Time::from_secs(60), hosts[0], 9);
        w.run_until(Time::from_secs(70));
        assert_eq!(receivers(&sink, 9).len(), hosts.len() - 1);
    }

    /// After many swap epochs no parent chain loops (a node caught
    /// mid-swap has no parent, which ends its walk).
    #[test]
    fn no_loops_after_adaptation() {
        let (mut w, hosts, _s) = tree(16, 7);
        w.run_until(Time::from_secs(300));
        for &h in &hosts[1..] {
            let (mut cur, mut steps) = (h, 0);
            while let Some(p) = only(&w, cur, "papa") {
                cur = p;
                steps += 1;
                assert!(steps <= hosts.len(), "cycle through {h:?}");
            }
        }
    }
}
