//! The generated code is stored once: `crates/generated/src` holds the
//! agents `codegen` emits for the nine bundled specs (plus the crate
//! root), and `tests/roundtrip/agent.rs` the agent of the round-trip
//! spec. These tests regenerate every file and compare it with the
//! checked-in copy, so a codegen or spec change that alters the output
//! shows up here as a readable diff.
//!
//! To refresh after an intentional codegen or spec change, run the test
//! in write mode; it rewrites every file that drifted and deletes the
//! modules of renamed or removed specs:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p macedon-lang --test golden
//! ```
//!
//! This crate does not depend on `macedon-generated`, so write mode
//! works even when the checked-in agents no longer compile.

use macedon_lang::codegen;
use std::path::{Path, PathBuf};

fn generated_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../generated/src")
}

fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
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

/// Check `path` holds `got`; in write mode, make it.
fn assert_fresh(path: &Path, got: &str) {
    let want = std::fs::read_to_string(path);
    if updating() {
        if want.as_deref().ok() != Some(got) {
            std::fs::write(path, got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        }
        return;
    }
    let want = want.unwrap_or_else(|e| {
        panic!(
            "{}: {e}; run UPDATE_GOLDEN=1 cargo test -p macedon-lang --test golden",
            path.display()
        )
    });
    assert!(
        want == got,
        "{} drifted from what codegen generates.\n{}\n\
         If intentional: UPDATE_GOLDEN=1 cargo test -p macedon-lang --test golden",
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
    if updating() {
        // The modules of renamed or removed specs go; the test above
        // writes the missing ones.
        for stale in on_disk.iter().filter(|n| !expected.contains(n)) {
            let path = generated_dir().join(stale);
            std::fs::remove_file(&path)
                .unwrap_or_else(|e| panic!("remove {}: {e}", path.display()));
        }
        return;
    }
    assert_eq!(on_disk, expected, "stale or missing generated files");
}
