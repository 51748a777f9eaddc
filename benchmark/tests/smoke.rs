//! `BENCHMARK.json` against the benchmark's own tables and the contract's
//! limits, and a smoke pass of the whole benchmark at small sizes.

#[allow(dead_code)] // the binary uses the rest
#[path = "../src/tables.rs"]
mod tables;

use std::collections::HashSet;
use std::process::Command;
use tables::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root")
}

/// The flat objects of the array under `key` (the file has no nested
/// objects and no escaped quotes, so scanning is enough).
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} array"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|o| &o[..o.find('}').expect("object closes")])
        .collect()
}

fn string_field<'a>(object: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\": \"");
    let start = object
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {{{object}}}"))
        + tag.len();
    &object[start..start + object[start..].find('"').expect("string closes")]
}

fn number_field(object: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\": ");
    let start = object
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {{{object}}}"))
        + tag.len();
    let rest = &object[start..];
    rest[..rest.find(',').unwrap_or(rest.len())]
        .trim()
        .parse()
        .expect("a number")
}

fn check_name(name: &str, seen: &mut HashSet<String>) {
    assert!(
        (1..=64).contains(&name.len())
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
        "bad name {name:?}"
    );
    assert!(seen.insert(name.to_string()), "{name} is used twice");
}

fn check_unit(unit: &str) {
    assert!(
        (1..=16).contains(&unit.len())
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
        "bad unit {unit:?}"
    );
}

#[test]
fn benchmark_json_matches_the_tables_and_the_limits() {
    let json = benchmark_json();
    assert!(json.len() <= 64 * 1024);
    assert!(json.contains("\"paths\": [\"benchmark\"]"));
    assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS}")));
    let mut seen = HashSet::new();

    let workloads = objects(&json, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (object, &(name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(string_field(object, "name"), name);
        assert_eq!(string_field(object, "why"), why);
        assert!(why.len() <= 200 && !why.contains('\n'));
        check_name(name, &mut seen);
    }

    let end_to_end = objects(&json, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (object, &(name, unit, bound)) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(string_field(object, "name"), name);
        assert_eq!(string_field(object, "unit"), unit);
        assert_eq!(string_field(object, "better"), "lower");
        assert_eq!(number_field(object, "bound"), bound);
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        check_name(name, &mut seen);
        check_unit(unit);
    }
    assert!(
        END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s"),
        "the contract requires setup_s in seconds"
    );

    let per_layer = objects(&json, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (object, &(name, unit)) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(string_field(object, "name"), name);
        assert_eq!(string_field(object, "unit"), unit);
        let better = string_field(object, "better");
        assert!(better == "lower" || better == "higher", "{name}: {better}");
        check_name(name, &mut seen);
        check_unit(unit);
    }
}

/// Every workload at smoke size (200/100/300/300 nodes, 2,000 routers,
/// 4 sweep cells, one timed child): every check passes and every
/// metric of both tables is reported for every workload.
#[test]
fn smoke_pass_reports_every_metric_and_passes_every_check() {
    let out = Command::new(env!("CARGO_BIN_EXE_macedon-benchmark"))
        .arg("--smoke")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), WORKLOADS.len(), "one result line each");
    for line in results {
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(line.contains("\"failed\": 0, "), "{line}");
        let names = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing from {line}"
            );
        }
    }
}
