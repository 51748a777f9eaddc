//! Minimal aligned-table printer for experiment output.

use macedon_core::json;

/// Print a header and aligned rows of (label, values...).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Write rows as CSV next to stdout output when `--csv <path>` is given.
pub fn maybe_write_csv(headers: &[&str], rows: &[Vec<String>]) {
    let Some(path) = std::env::args().skip_while(|a| a != "--csv").nth(1) else {
        return;
    };
    let mut out = String::new();
    json::csv_row(&mut out, |r| r.cells(headers));
    for row in rows {
        json::csv_row(&mut out, |r| r.cells(row));
    }
    match std::fs::write(&path, out) {
        Ok(()) => println!("(wrote {path})"),
        Err(e) => eprintln!("--csv {path}: {e}"),
    }
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
    fn csv_writer_is_noop_without_flag() {
        // No --csv in the test binary's args: must not write anything.
        maybe_write_csv(&["a"], &[vec!["1".into()]]);
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
