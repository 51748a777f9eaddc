//! Property tests on the scenario script parser and the sweep driver:
//! malformed scripts and degenerate sweep specs are spanned
//! diagnostics, never panics.

use macedon_scenario::script::parse;
use macedon_scenario::{GridAxis, SweepSpec};
use proptest::prelude::*;

proptest! {
    /// Arbitrary printable soup (with newlines) never panics the
    /// parser; it either parses or produces a spanned error.
    #[test]
    fn arbitrary_text_never_panics(src in "[ -~\n]{0,256}") {
        match parse(&src) {
            Ok(s) => prop_assert!(s.nodes > 0),
            Err(e) => prop_assert!(e.line >= 1 || e.msg.contains("missing")),
        }
    }

    /// Events before t=0 are rejected with a spanned diagnostic.
    #[test]
    fn negative_times_rejected(n in 1usize..64, t in 1u64..10_000) {
        let src = format!("nodes {n}\nend 100s\nat -{t}ms join 0..{n}\n");
        let e = parse(&src).unwrap_err();
        prop_assert!(e.msg.contains("before t=0"), "{}", e);
        prop_assert_eq!(e.line, 3);
    }

    /// References to undeclared nodes are rejected, whatever the verb.
    #[test]
    fn unknown_nodes_rejected(n in 1usize..32, extra in 0usize..100, verb_i in 0usize..5) {
        let bad = n + extra; // >= n, always out of range
        let verb = ["join", "crash", "degrade", "create", "subscribe"][verb_i];
        let tail = if verb == "degrade" { " bw 1kbps" } else { "" };
        let src = format!(
            "nodes {n}\nend 100s\nat 0s join 0..{n}\nat 5s {verb} {bad}{tail}\n"
        );
        let e = parse(&src).unwrap_err();
        prop_assert!(
            e.msg.contains("unknown node") || e.msg.contains("joins twice"),
            "{}", e
        );
    }

    /// Two partitions overlapping in time are rejected; sequential
    /// partition/heal pairs are fine.
    #[test]
    fn overlapping_partitions_rejected(gap in 0u64..30) {
        let overlapping = format!(
            "nodes 8\nend 200s\nat 0s join 0..8\n\
             at 10s partition a 0 1\nat {}s partition b 2 3\nat 90s heal b\n",
            11 + gap
        );
        let e = parse(&overlapping).unwrap_err();
        prop_assert!(e.msg.contains("overlaps"), "{}", e);

        let sequential = format!(
            "nodes 8\nend 200s\nat 0s join 0..8\n\
             at 10s partition a 0 1\nat {}s heal a\nat {}s partition b 2 3\nat 90s heal b\n",
            12 + gap, 13 + gap
        );
        prop_assert!(parse(&sequential).is_ok());
    }

    /// Structurally valid generated scripts round-trip through
    /// parse + validate.
    #[test]
    fn generated_valid_scripts_parse(
        n in 2usize..64,
        stagger_ms in 0u64..5_000,
        crash in 1usize..8,
        end_s in 50u64..500,
    ) {
        let crash = crash.min(n - 1);
        let src = format!(
            "scenario gen\nnodes {n}\nend {end_s}s\n\
             at 0s join 0..{n} over {stagger_ms}ms\n\
             at 20s crash {crash}\nat 30s rejoin {crash}\n"
        );
        let s = parse(&src).unwrap();
        prop_assert_eq!(s.nodes, n);
        prop_assert_eq!(s.events.len(), 3);
    }

    /// Sweep expansion never panics, whatever the spec: arbitrary
    /// templates (printable soup with braces likely), arbitrary seed /
    /// node-count / axis lists. It either expands or produces a
    /// spanned diagnostic in `Scenario::validate`'s error style.
    #[test]
    fn arbitrary_sweep_specs_never_panic(
        template in "[ -~\n{}]{0,200}",
        seeds in proptest::collection::vec(any::<u64>(), 0..5),
        node_counts in proptest::collection::vec(0usize..300, 0..4),
        axis_name in "[a-z{}]{0,8}",
        values in proptest::collection::vec("[0-9.]{0,4}", 0..4),
        workers_raw in 0usize..10,
    ) {
        // 0 = no override; k = Some(k-1), so Some(0) is exercised too.
        let workers = workers_raw.checked_sub(1);
        let spec = SweepSpec {
            name: "prop".into(),
            template,
            seeds,
            node_counts,
            grid: vec![GridAxis { name: axis_name, values }],
            workers,
        };
        match spec.expand() {
            Ok(cells) => prop_assert_eq!(cells.len(), spec.cell_count()),
            Err(e) => {
                // Scenario::validate's error style: structural errors
                // carry the builder span 0:0, template/script errors a
                // real line; the message is never empty.
                prop_assert!(!e.msg.is_empty(), "{}", e);
                prop_assert!(format!("{e}").starts_with("scenario:"), "{}", e);
            }
        }
    }

    /// Degenerate grids — an empty seed list, an empty node-count
    /// list, a zero node count, or an axis with no values — are always
    /// rejected, never silently expanded to zero cells.
    #[test]
    fn degenerate_sweeps_rejected(which in 0usize..4, n in 1usize..50) {
        let mut spec = SweepSpec {
            name: "degenerate".into(),
            template: "scenario d\nnodes {nodes}\nend 10s\nat 0s join 0..{nodes}\n".into(),
            seeds: vec![1],
            node_counts: vec![n],
            grid: vec![GridAxis::new("loss", ["0"])],
            workers: None,
        };
        match which {
            0 => spec.seeds.clear(),
            1 => spec.node_counts.clear(),
            2 => spec.node_counts = vec![0],
            _ => spec.grid[0].values.clear(),
        }
        let e = spec.expand().unwrap_err();
        prop_assert!(
            e.msg.contains("empty") || e.msg.contains("degenerate"),
            "{}", e
        );
        // Spec-level diagnostics use the builder span, like
        // Scenario::validate's own structural errors.
        prop_assert_eq!((e.line, e.col), (0, 0));
    }

    /// Valid parameterized templates expand to exactly the cross
    /// product, in deterministic order, with distinct derived seeds.
    #[test]
    fn valid_sweeps_expand_to_cross_product(
        nseeds in 1usize..4,
        counts_raw in proptest::collection::vec(2usize..40, 1..4),
        nvals in 1usize..4,
    ) {
        let mut counts = counts_raw;
        counts.sort_unstable();
        counts.dedup();
        let spec = SweepSpec {
            name: "cross".into(),
            template: "scenario c\nnodes {nodes}\nend 10s\n\
                       at 0s join 0..{nodes} over {stagger}\n".into(),
            seeds: (1..=nseeds as u64).collect(),
            node_counts: counts,
            grid: vec![GridAxis::new(
                "stagger",
                (1..=nvals).map(|v| format!("{v}s")),
            )],
            workers: None,
        };
        let cells = spec.expand().unwrap();
        prop_assert_eq!(cells.len(), spec.cell_count());
        let mut derived: Vec<u64> = cells.iter().map(|c| c.derived_seed).collect();
        derived.sort_unstable();
        derived.dedup();
        prop_assert_eq!(derived.len(), cells.len());
        for (i, c) in cells.iter().enumerate() {
            prop_assert_eq!(c.index, i);
            prop_assert_eq!(c.scenario.nodes, c.nodes);
        }
    }
}
