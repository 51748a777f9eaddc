//! Regenerate `crates/generated` from the bundled `.mac` specifications,
//! and the round-trip test's agent from its spec.
//!
//! ```sh
//! cargo run -p macedon-bench --bin regen
//! ```
//!
//! Rerun after editing any bundled spec or the code generator. This is
//! the only writer of generated code; the tier-1 test
//! `crates/lang/tests/golden.rs` regenerates every file and fails on any
//! difference, so the checked-in agents can never drift from the specs
//! (and hand edits to generated files cannot merge). Output is
//! byte-deterministic; the generated modules carry `#[rustfmt::skip]` so
//! formatter drift cannot perturb the check.

use macedon_lang::codegen;
use std::fs;
use std::path::Path;

/// Write `contents` to `path` unless it already holds them; report it.
fn write(path: &Path, contents: &str) -> usize {
    let up_to_date = fs::read_to_string(path)
        .map(|c| c == contents)
        .unwrap_or(false);
    if !up_to_date {
        fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    let lines = contents.lines().count();
    println!(
        "{}  {lines} lines{}",
        path.display(),
        if up_to_date { "" } else { "  (updated)" }
    );
    lines
}

fn main() {
    let lang_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../lang");
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../generated/src");
    let files = codegen::generate_bundled_crate();
    let roundtrip = codegen::generate_roundtrip();
    fs::create_dir_all(&out_dir).unwrap_or_else(|e| panic!("create {}: {e}", out_dir.display()));
    // Drop stale modules left over from renamed or removed specs.
    let keep: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    if let Ok(entries) = fs::read_dir(&out_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".rs") && !keep.contains(&name.as_str()) {
                println!("{name}  (stale, removed)");
                let _ = fs::remove_file(entry.path());
            }
        }
    }
    let mut total = 0usize;
    for (name, contents) in &files {
        total += write(&out_dir.join(name), contents);
    }
    total += write(&lang_dir.join(codegen::ROUNDTRIP_MODULE), &roundtrip);
    println!("regenerated {} files, {total} lines", files.len() + 1);
}
