//! The Markdown tables the `figures` binary prints.

use std::fmt::Write as _;

/// A Markdown table: the header row, the `|---|` rule and one line per
/// row, each line ending in a newline.
pub fn markdown(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = format!(
        "| {} |\n|{}\n",
        headers.join(" | "),
        "---|".repeat(headers.len())
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Two-decimal float cell.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// One-decimal float cell.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_cells() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f1(3.15), "3.1");
    }

    #[test]
    fn markdown_table_is_exact() {
        let table = markdown(
            &["a", "b c"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "".into()]],
        );
        assert_eq!(table, "| a | b c |\n|---|---|\n| 1 | 2 |\n| 333 |  |\n");
    }
}
