//! Property tests on the simulation kernel.

use macedon_sim::{Duration, Scheduler, SimRng, Time};
use proptest::prelude::*;

proptest! {
    /// Events always pop in nondecreasing time order, FIFO within a tie.
    #[test]
    fn scheduler_pops_sorted(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule(Time::from_micros(t), i);
        }
        let mut last = (Time::ZERO, 0usize);
        let mut popped = 0;
        while let Some((at, idx)) = s.pop() {
            prop_assert!(at >= last.0, "time order");
            if at == last.0 && popped > 0 {
                prop_assert!(idx > last.1, "FIFO on ties");
            }
            last = (at, idx);
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Cancelled events never fire; everything else does.
    #[test]
    fn cancellation_is_exact(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut s = Scheduler::new();
        let ids: Vec<_> = times.iter().enumerate()
            .map(|(i, &t)| s.schedule(Time::from_micros(t), i))
            .collect();
        let mut expect = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask.get(i).copied().unwrap_or(false) {
                s.cancel(*id);
            } else {
                expect.push(i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, idx)) = s.pop() {
            got.push(idx);
        }
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Random interleavings of schedule/schedule_in/cancel/pop agree
    /// with a naive sorted-vec model: exact (time, seq) order whichever
    /// call scheduled the event, stable FIFO tie-break, no resurrection
    /// of cancelled ids, exact `pending()` accounting.
    #[test]
    fn scheduler_matches_sorted_vec_model(
        ops in proptest::collection::vec((0u8..8, 0u64..50_000, any::<usize>()), 1..400),
    ) {
        let mut s: Scheduler<usize> = Scheduler::new();
        // Model: (fire_at, seq) of every still-pending event, plus the
        // payload keyed by seq. seq is the op index that scheduled it.
        let mut model: Vec<(u64, usize)> = Vec::new();
        let mut ids: Vec<(usize, macedon_sim::EventId)> = Vec::new();
        let mut now = 0u64;
        for (i, &(kind, dt, pick)) in ops.iter().enumerate() {
            match kind {
                // Absolute and relative scheduling must behave
                // identically w.r.t. order, so the model doesn't
                // distinguish them.
                0..=2 => {
                    let at = now + dt;
                    let id = s.schedule(Time::from_micros(at), i);
                    model.push((at, i));
                    ids.push((i, id));
                }
                3..=5 => {
                    let at = now + dt;
                    let id = s.schedule_in(Duration::from_micros(dt), i);
                    model.push((at, i));
                    ids.push((i, id));
                }
                6 => {
                    if !ids.is_empty() {
                        let (seq, id) = ids[pick % ids.len()];
                        let was_pending = model.iter().any(|&(_, q)| q == seq);
                        prop_assert_eq!(s.cancel(id), was_pending, "cancel exactness");
                        model.retain(|&(_, q)| q != seq);
                        // A second cancel must be a no-op.
                        prop_assert!(!s.cancel(id), "no double cancel");
                    }
                }
                _ => {
                    let expect = model.iter().copied().min();
                    match s.pop() {
                        Some((at, seq)) => {
                            let (mat, mseq) = expect.expect("model empty but scheduler popped");
                            prop_assert_eq!((at.as_micros(), seq), (mat, mseq), "exact (time, seq) order");
                            model.retain(|&(_, q)| q != seq);
                            now = at.as_micros();
                        }
                        None => prop_assert!(expect.is_none(), "scheduler empty but model has events"),
                    }
                }
            }
            prop_assert_eq!(s.pending(), model.len(), "pending() exact");
        }
        // Drain: remainder comes out in exact model order.
        let mut rest: Vec<(u64, usize)> = model.clone();
        rest.sort_unstable();
        let mut got = Vec::new();
        while let Some((at, seq)) = s.pop() {
            got.push((at.as_micros(), seq));
        }
        prop_assert_eq!(got, rest);
        prop_assert!(s.is_empty());
    }

    /// gen_range stays in bounds and hits every residue eventually.
    #[test]
    fn rng_range_in_bounds(seed in any::<u64>(), bound in 1u64..1000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }

    /// Identical seeds give identical streams; forks differ.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        prop_assert_eq!(&va, &vb);
        let mut c = SimRng::new(seed);
        let mut f = c.fork(1);
        let vf: Vec<u64> = (0..32).map(|_| f.next_u64()).collect();
        prop_assert_ne!(va, vf);
    }

    /// Duration arithmetic is consistent with integer micros.
    #[test]
    fn duration_arithmetic(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let d = Duration::from_micros(a) + Duration::from_micros(b);
        prop_assert_eq!(d.as_micros(), a + b);
        let t = Time::from_micros(a) + Duration::from_micros(b);
        prop_assert_eq!(t.as_micros(), a + b);
    }

    /// sample_indices returns distinct, in-range indices.
    #[test]
    fn sample_indices_distinct(seed in any::<u64>(), n in 1usize..200, k in 0usize..250) {
        let mut rng = SimRng::new(seed);
        let s = rng.sample_indices(n, k);
        prop_assert_eq!(s.len(), k.min(n));
        let set: std::collections::HashSet<_> = s.iter().collect();
        prop_assert_eq!(set.len(), s.len());
        prop_assert!(s.iter().all(|&i| i < n));
    }
}
