//! The generated code is stored once: `crates/generated/src` holds the
//! agents `codegen` emits for the nine bundled specs (plus the crate
//! root), and `tests/roundtrip/agent.rs` the agent of the round-trip
//! spec. These tests regenerate every file and compare it with the
//! checked-in copy, so a codegen or spec change that alters the output
//! shows up here as a readable diff.
//!
//! To refresh after an intentional codegen or spec change:
//!
//! ```sh
//! cargo run -p macedon-bench --bin regen
//! ```

use macedon_lang::codegen;
use std::path::{Path, PathBuf};

fn generated_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../generated/src")
}

/// First differing line, for a readable failure message.
fn first_diff(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!("line {}:\n  checked in: {w}\n  generated:  {g}", i + 1);
        }
    }
    format!(
        "line counts differ: checked in {} vs generated {}",
        want.lines().count(),
        got.lines().count()
    )
}

fn assert_fresh(path: &Path, got: &str) {
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; run cargo run -p macedon-bench --bin regen",
            path.display()
        )
    });
    assert!(
        want == got,
        "{} drifted from what codegen generates.\n{}\n\
         If intentional: cargo run -p macedon-bench --bin regen",
        path.display(),
        first_diff(&want, got)
    );
}

#[test]
fn generated_code_matches_golden_snapshots() {
    let files = codegen::generate_bundled_crate();
    for (name, got) in &files {
        assert_fresh(&generated_dir().join(name), got);
    }
    let roundtrip = codegen::generate_roundtrip();
    assert_fresh(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join(codegen::ROUNDTRIP_MODULE),
        &roundtrip,
    );
}

#[test]
fn golden_snapshots_cover_exactly_the_bundled_roster() {
    let mut on_disk: Vec<String> = std::fs::read_dir(generated_dir())
        .expect("crates/generated/src exists")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = codegen::generate_bundled_crate()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    expected.sort();
    assert_eq!(on_disk, expected, "stale or missing generated files");
}
