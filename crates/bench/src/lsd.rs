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
    use crate::experiments::finger_series;
    use macedon_core::{Duration, Time, WorldConfig};
    use macedon_net::topology::{canned, LinkSpec};
    use macedon_scenario::{ChordOracle, ConvergenceOracle, Snapshot};

    #[test]
    fn lsd_ring_converges() {
        let (topo, registry) = (canned::star(12, LinkSpec::lan()), chord_registry(&LSD));
        let stagger = Duration::from_millis(100);
        let (mut w, hosts, _sink) = registry
            .world("chord", topo, WorldConfig::seeded(3), stagger)
            .unwrap();
        w.run_until(Time::from_secs(90));
        let violations = ChordOracle.check(&Snapshot::of(&w, &hosts));
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// The headline shape of Fig 10: static 1 s converges fingers faster
    /// than lsd-dynamic early in the run.
    #[test]
    fn static_1s_beats_lsd_early() {
        let at_30s = |constants: &[(&str, i64)]| {
            let topo = canned::star(16, LinkSpec::lan());
            let &(t, correct) = finger_series(topo, constants, 100, 30, 11).last().unwrap();
            assert_eq!(t, 30.0, "the last sample is at t = 30 s");
            correct
        };
        let static_1s = at_30s(&[("FIX_FINGERS_MS", 1_000)]);
        let lsd = at_30s(&LSD);
        assert!(
            static_1s > lsd,
            "static 1s ({static_1s}) should beat lsd-dynamic ({lsd}) at t=30s"
        );
    }
}
