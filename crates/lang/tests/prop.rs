//! Property tests on the DSL front end.

use macedon_lang::ast::StateExpr;
use macedon_lang::registry::{ChainError, SpecRegistry};
use macedon_lang::{bundled_specs, codegen, compile, parse, Lexer, TokenKind};
use proptest::prelude::*;
use std::sync::Arc;

/// Random state-scope expressions as source text plus the oracle AST.
fn state_expr_strategy() -> impl Strategy<Value = (String, StateExpr)> {
    let leaf = prop_oneof![
        Just(("any".to_string(), StateExpr::Any)),
        proptest::sample::select(vec!["alpha", "beta", "gamma", "delta"])
            .prop_map(|s| (s.to_string(), StateExpr::Is(s.to_string()))),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner
                .clone()
                .prop_map(|(s, e)| (format!("!({s})"), StateExpr::Not(Box::new(e)))),
            (inner.clone(), inner).prop_map(|((s1, e1), (s2, e2))| {
                (
                    format!("({s1}|{s2})"),
                    StateExpr::Or(Box::new(e1), Box::new(e2)),
                )
            }),
        ]
    })
}

proptest! {
    /// Parsing a rendered scope expression evaluates identically to the
    /// oracle on all states.
    #[test]
    fn state_scope_roundtrip((src, oracle) in state_expr_strategy()) {
        let program = format!(
            "protocol p; addressing ip; states {{ alpha; beta; gamma; delta; }}\
             transitions {{ {src} API init {{ }} }}"
        );
        let spec = parse(&program).unwrap();
        let parsed = &spec.transitions[0].scope;
        for st in ["alpha", "beta", "gamma", "delta", "init"] {
            prop_assert_eq!(parsed.matches(st), oracle.matches(st), "state {}", st);
        }
    }

    /// The lexer never panics on arbitrary printable input.
    #[test]
    fn lexer_total_on_ascii(s in "[ -~]{0,200}") {
        let _ = Lexer::new(&s).tokenize();
    }

    /// Integer literals roundtrip through the lexer.
    #[test]
    fn int_literals_roundtrip(v in 0i64..i64::MAX / 2) {
        let toks = Lexer::new(&v.to_string()).tokenize().unwrap();
        prop_assert!(matches!(toks[0].kind, macedon_lang::TokenKind::Int(x) if x == v));
    }

    /// spec_loc never exceeds physical lines; semicolons never exceeds
    /// byte count.
    #[test]
    fn loc_bounds(s in "[ -~\n]{0,500}") {
        prop_assert!(macedon_lang::loc::spec_loc(&s) <= s.lines().count());
        prop_assert!(macedon_lang::loc::semicolons(&s) <= s.len());
    }
}

/// Build a registry holding the linear chain `p0 uses p1 uses ... p{k-1}`
/// (with `p{k-1}` the lowest layer owning a transport), inserted in a
/// seed-shuffled order so resolution cannot depend on insertion order.
fn chain_registry(k: usize, shuffle_seed: u64) -> SpecRegistry {
    let mut srcs: Vec<String> = (0..k)
        .map(|i| {
            if i + 1 < k {
                format!("protocol p{i} uses p{}; addressing hash;", i + 1)
            } else {
                format!("protocol p{i}; addressing hash; transports {{ TCP T; }}")
            }
        })
        .collect();
    // Fisher–Yates with a splitmix-style step: deterministic per seed.
    let mut s = shuffle_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    for i in (1..srcs.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        srcs.swap(i, (s % (i as u64 + 1)) as usize);
    }
    let mut reg = SpecRegistry::new();
    for src in &srcs {
        reg.insert(Arc::new(compile(src).unwrap()));
    }
    reg
}

proptest! {
    /// Arbitrary linear `uses` chains resolve bottom-up in topological
    /// order, from any entry point along the chain.
    #[test]
    fn uses_chains_resolve_in_topological_order(
        k in 1usize..9,
        entry_frac in 0u64..1000,
        seed in 0u64..u64::MAX / 2,
    ) {
        let reg = chain_registry(k, seed);
        let entry = (entry_frac as usize) % k;
        let chain = reg.resolve_chain(&format!("p{entry}")).unwrap();
        // Lowest (deepest) layer first; each layer uses its predecessor.
        prop_assert_eq!(chain.len(), k - entry);
        prop_assert!(chain[0].uses.is_none());
        for w in chain.windows(2) {
            prop_assert_eq!(w[1].uses.as_deref(), Some(w[0].name.as_str()));
        }
        let entry_name = format!("p{entry}");
        prop_assert_eq!(chain.last().unwrap().name.as_str(), entry_name.as_str());
    }

    /// Removing any non-entry link from the chain yields an
    /// UnknownSpec/UnknownBase diagnostic, never a panic or bogus chain.
    #[test]
    fn dangling_bases_are_diagnosed(
        k in 2usize..9,
        hole_frac in 0u64..1000,
        seed in 0u64..u64::MAX / 2,
    ) {
        let hole = (hole_frac as usize) % k;
        let mut reg = SpecRegistry::new();
        for i in 0..k {
            if i == hole {
                continue;
            }
            let src = if i + 1 < k {
                format!("protocol p{i} uses p{}; addressing hash;", i + 1)
            } else {
                format!("protocol p{i}; addressing hash; transports {{ TCP T; }}")
            };
            reg.insert(Arc::new(compile(&src).unwrap()));
        }
        let _ = seed;
        match reg.resolve_chain("p0") {
            Err(ChainError::UnknownSpec(n)) => prop_assert_eq!(n, format!("p{hole}")),
            Err(ChainError::UnknownBase { base, .. }) => prop_assert_eq!(base, format!("p{hole}")),
            Err(other) => prop_assert!(false, "unexpected diagnostic {:?}", other),
            Ok(_) => prop_assert!(false, "hole at p{} resolved anyway", hole),
        }
    }

    /// Closing the chain back on itself at any point is reported as a
    /// cycle whose walk starts and ends at the revisited protocol.
    #[test]
    fn cyclic_chains_are_diagnosed(
        k in 2usize..8,
        back_frac in 0u64..1000,
    ) {
        // Close the chain anywhere except onto the last spec itself
        // (`compile` already rejects `p uses p`).
        let back = (back_frac as usize) % (k - 1);
        let mut reg = SpecRegistry::new();
        for i in 0..k {
            let base = if i + 1 < k { i + 1 } else { back };
            reg.insert(Arc::new(compile(
                &format!("protocol p{i} uses p{base}; addressing hash;"),
            ).unwrap()));
        }
        let Err(ChainError::Cycle(names)) = reg.resolve_chain("p0") else {
            return Err(TestCaseError::fail("expected a cycle diagnostic".into()));
        };
        prop_assert_eq!(names.first(), names.last());
        let back_name = format!("p{back}");
        prop_assert_eq!(names.first().unwrap().as_str(), back_name.as_str());
        prop_assert_eq!(names.len(), k - back + 1);
    }
}

/// `src` with its `pick`-th identifier token (modulo their number)
/// replaced by `to`.
fn rename_one_identifier(src: &str, pick: u64, to: &str) -> String {
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(src.match_indices('\n').map(|(i, _)| i + 1))
        .collect();
    let idents: Vec<(usize, usize)> = Lexer::new(src)
        .tokenize()
        .unwrap()
        .into_iter()
        .filter_map(|t| match t.kind {
            TokenKind::Ident(name) => {
                let at = line_starts[t.line as usize - 1] + t.col as usize - 1;
                assert_eq!(&src[at..at + name.len()], name, "token position");
                Some((at, name.len()))
            }
            _ => None,
        })
        .collect();
    let (at, len) = idents[(pick % idents.len() as u64) as usize];
    format!("{}{to}{}", &src[..at], &src[at + len..])
}

proptest! {
    // Most renames leave a name unresolved; the cases are cheap, so run
    // enough that some dozen mutants compile.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A bundled spec with one identifier renamed — to a fresh name or
    /// to a Rust keyword — either fails to compile with a diagnostic
    /// or, compiled, generates code and registers and builds its
    /// stack: nothing `compile` accepts panics downstream, in either
    /// back end.
    #[test]
    fn a_renamed_identifier_is_rejected_or_runs(
        spec in 0usize..9,
        pick in 0u64..u64::MAX,
        to in proptest::sample::select(vec!["zz", "loop", "type", "fn"]),
    ) {
        let (_, src) = bundled_specs()[spec];
        let Ok(ir) = compile(&rename_one_identifier(src, pick, to)) else {
            return Ok(());
        };
        prop_assert!(!codegen::generate(&ir, None).is_empty());
        let name = ir.name.clone();
        let mut reg = SpecRegistry::bundled();
        reg.insert(Arc::new(ir));
        // A renamed base is a chain diagnostic, not a stack.
        if let Ok(stack) = reg.build_stack(&name, None) {
            prop_assert!(!stack.is_empty());
            prop_assert!(reg.channel_table_for(&name).is_ok());
        }
    }
}
