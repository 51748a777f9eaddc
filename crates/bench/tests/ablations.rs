//! Ablations of the design choices the paper's §3 calls out, each one a
//! parameterisation or a one-line variant of a bundled spec, asserted on
//! its protocol-level outcome:
//!
//! 1. control/data locking classification: a `chord.mac` variant that
//!    marks its query handlers read-locked,
//! 2. failure-detector g/f thresholds (detection latency trade-off),
//! 3. static vs dynamic fix-fingers period (Fig 10's own question):
//!    `chord.mac`'s fix-fingers constants.
//!
//! Every run is seeded, so each outcome is deterministic.

use macedon_bench::experiments::finger_series;
use macedon_bench::lsd::LSD;
use macedon_core::{Duration, NodeId, Time, World, WorldConfig};
use macedon_lang::{bundled_specs, compile, SpecRegistry};
use macedon_net::topology::{canned, LinkSpec};
use macedon_scenario::{ChordOracle, ConvergenceOracle, Snapshot};
use std::sync::Arc;

/// Joins start this far apart.
const STAGGER: Duration = Duration::from_millis(100);

/// The bundled roster with `chord.mac` replaced by its source after
/// `edit`.
fn chord_variant(edit: impl Fn(&str) -> String) -> SpecRegistry {
    let (_, src) = bundled_specs()
        .into_iter()
        .find(|&(n, _)| n == "chord")
        .expect("bundled chord");
    let mut registry = SpecRegistry::bundled();
    registry.insert(Arc::new(compile(&edit(src)).expect("variant compiles")));
    registry
}

/// Declaring the query handlers read-locked exposes a read share (1,506
/// of 3,577 transitions at seed 7) and changes nothing else: the same
/// transitions fire and the same events run.
#[test]
fn locking_read_classification_changes_no_behaviour() {
    let read_locked = chord_variant(|src| {
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
    let run = |registry: &SpecRegistry| {
        let topo = canned::star(10, LinkSpec::lan());
        let (mut w, _hosts, _sink) = registry
            .world("chord", topo, WorldConfig::seeded(7), STAGGER)
            .unwrap();
        w.run_until(Time::from_secs(40));
        let (reads, writes) = w.transition_counts();
        (reads, writes, w.events_fired())
    };
    let (r0, w0, ev0) = run(&SpecRegistry::bundled());
    let (r1, w1, ev1) = run(&read_locked);
    assert_eq!(r0, 0, "all-write chord runs no read transition");
    assert!(r1 > 0, "the read-locked handlers run as reads");
    assert_eq!(r0 + w0, r1 + w1, "the same transitions fire");
    assert_eq!(ev0, ev1, "the same events run");
}

/// Crashes `victim` at `crash_s` and returns the first second from
/// which the [`ChordOracle`] stays satisfied with the survivors' ring,
/// checked once a second up to `end`; `None` if the ring is not healed
/// at `end`.
fn heal_time(
    w: &mut World,
    hosts: &[NodeId],
    victim: NodeId,
    crash_s: u64,
    end: u64,
) -> Option<u64> {
    w.run_until(Time::from_secs(crash_s));
    w.crash_at(Time::from_secs(crash_s), victim);
    let mut healed_since = None;
    for t in crash_s + 1..=end {
        w.run_until(Time::from_secs(t));
        let healed = ChordOracle.check(&Snapshot::of(w, hosts)).is_empty();
        healed_since = if healed {
            healed_since.or(Some(t))
        } else {
            None
        };
    }
    healed_since
}

/// A longer failure-detector timeout `f` heals the ring later after a
/// crash (first stays healed at 37, 46 and 61 s for f = 6, 15, 30 s).
#[test]
fn failure_detector_heal_time_grows_with_f() {
    let registry = SpecRegistry::bundled();
    let heals: Vec<u64> = [(2u64, 6u64), (5, 15), (10, 30)]
        .into_iter()
        .map(|(g_s, f_s)| {
            let cfg = WorldConfig {
                fd_g: Duration::from_secs(g_s),
                fd_f: Duration::from_secs(f_s),
                ..WorldConfig::seeded(8)
            };
            let topo = canned::star(6, LinkSpec::lan());
            let (mut w, hosts, _sink) = registry.world("chord", topo, cfg, STAGGER).unwrap();
            heal_time(&mut w, &hosts, hosts[3], 30, 30 + 4 * f_s + 20)
                .unwrap_or_else(|| panic!("g/f = {g_s}/{f_s} s: the ring heals"))
        })
        .collect();
    assert!(
        heals.windows(2).all(|p| p[0] < p[1]),
        "heal time grows with f: {heals:?}"
    );
    assert_eq!(heals, [37, 46, 61], "the seeded heal times");
}

/// At t = 40 s on a 12-node star, the static 1 s fix-fingers period
/// holds more correct finger entries than lsd's adaptive policy or the
/// static 20 s period.
#[test]
fn one_second_fix_fingers_beats_lsd_and_twenty_seconds() {
    let correct = |constants: &[(&str, i64)]| {
        let topo = canned::star(12, LinkSpec::lan());
        let series = finger_series(topo, constants, STAGGER.as_millis(), 40, 5);
        let &(t, correct) = series.last().unwrap();
        assert_eq!(t, 40.0, "the last sample is at the end of the run");
        correct
    };
    let one_s = correct(&[("FIX_FINGERS_MS", 1_000)]);
    let lsd = correct(&LSD);
    let twenty_s = correct(&[("FIX_FINGERS_MS", 20_000)]);
    assert!(
        one_s > lsd && one_s > twenty_s,
        "1 s = {one_s}, lsd = {lsd}, 20 s = {twenty_s}"
    );
}
