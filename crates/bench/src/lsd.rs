//! The MIT `lsd` Chord model for the Figure 10 comparison.
//!
//! The paper: "While the lsd code dynamically adjusts the period of the
//! fix fingers timer, our current MACEDON implementation only supports
//! static periods (1 and 20 seconds in this experiment). ... our static
//! 1-second strategy outperforms lsd's dynamic strategy. The converse is
//! true with a 20-second timer setting. ... In lsd, convergence is not
//! as steady as fix fingers timers are dynamically adjusted."
//!
//! lsd's adaptation is AIMD-flavored: probe quickly while the routing
//! table is in flux, back off exponentially once entries stop changing.
//! `chord.mac` carries that policy behind its `FF_MIN_MS`/`FF_MAX_MS`
//! constants (off by default), so the comparison runs one spec under
//! two parameterisations and stays about the *policy* rather than
//! incidental implementation differences — the paper's own
//! methodological argument.

use macedon_lang::SpecRegistry;

/// `chord.mac` as lsd: a 4 s starting period adapting between about
/// half a second and half a minute depending on stability.
pub const LSD: [(&str, i64); 3] = [
    ("FIX_FINGERS_MS", 4_000),
    ("FF_MIN_MS", 500),
    ("FF_MAX_MS", 32_000),
];

/// The bundled roster with `chord.mac`'s constants overridden.
pub fn chord_registry(constants: &[(&str, i64)]) -> SpecRegistry {
    let mut registry = SpecRegistry::bundled();
    registry
        .set_constants("chord", constants)
        .expect("chord.mac declares every fix-fingers constant");
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{correct_fingers, seeded, spec_world};
    use macedon_core::{Duration, NodeId, Time, World};
    use macedon_net::topology::{canned, LinkSpec};
    use macedon_scenario::{ChordOracle, ConvergenceOracle, Snapshot};

    fn ring(constants: &[(&str, i64)], n: usize, seed: u64) -> (World, Vec<NodeId>) {
        let topo = canned::star(n, LinkSpec::lan());
        let registry = chord_registry(constants);
        let stagger = Duration::from_millis(100);
        let (w, hosts, _sink) = spec_world(&registry, "chord", topo, seeded(seed), stagger);
        (w, hosts)
    }

    #[test]
    fn lsd_ring_converges() {
        let (mut w, hosts) = ring(&LSD, 12, 3);
        w.run_until(Time::from_secs(90));
        let snap = Snapshot::of(&w, &hosts);
        let violations = ChordOracle.check(&snap);
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// The headline shape of Fig 10: static 1 s converges fingers faster
    /// than lsd-dynamic early in the run.
    #[test]
    fn static_1s_beats_lsd_early() {
        let count_correct = |constants: &[(&str, i64)]| {
            let (mut w, hosts) = ring(constants, 16, 11);
            w.run_until(Time::from_secs(30));
            correct_fingers(&w, &hosts)
        };
        let static_1s = count_correct(&[("FIX_FINGERS_MS", 1_000)]);
        let lsd = count_correct(&LSD);
        assert!(
            static_1s > lsd,
            "static 1s ({static_1s}) should beat lsd-dynamic ({lsd}) at t=30s"
        );
    }
}
