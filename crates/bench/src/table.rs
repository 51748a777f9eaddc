//! The Markdown tables the `figures` binary prints.

use crate::experiments::{mean, Figures};
use std::fmt::Write as _;

/// Every figure as the Markdown the README holds between its
/// `<!-- figures:begin -->` and `<!-- figures:end -->` markers: each
/// figure's bold title, then its table.
pub fn render(figs: &Figures) -> String {
    let mut out = String::new();
    let mut figure = |title: &str, headers: &[&str], rows: Vec<Vec<String>>| {
        let _ = writeln!(out, "**{title}**\n\n{}", markdown(headers, &rows));
    };
    figure(
        "Figure 7 — specification size (this repo vs paper-reported)",
        &[
            "protocol",
            "spec LoC",
            "semicolons",
            "generated LoC",
            "paper LoC",
            "interpretable",
        ],
        figs.fig7
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    r.loc.to_string(),
                    r.semicolons.to_string(),
                    r.generated_loc.to_string(),
                    r.paper_loc.to_string(),
                    format!(
                        "yes ({} layer{})",
                        r.layers,
                        if r.layers > 1 { "s" } else { "" }
                    ),
                ]
            })
            .collect(),
    );
    figure(
        "Figures 8 and 9 — NICE mean stretch and end-to-end latency per site (measured vs NICE SIGCOMM)",
        &["site", "stretch", "paper", "latency (ms)", "paper (ms)"],
        figs.fig8_9
            .iter()
            .map(|r| {
                vec![
                    r.site.to_string(),
                    f2(r.mean_stretch),
                    f2(r.paper_stretch),
                    f1(r.mean_latency_ms),
                    f1(r.paper_latency_ms),
                ]
            })
            .collect(),
    );
    let s = &figs.fig10;
    figure(
        "Figure 10 — average correct finger-table entries over time",
        &["t (s)", "MACEDON 1s", "MIT lsd", "MACEDON 20s"],
        s.macedon_1s
            .iter()
            .zip(&s.lsd)
            .zip(&s.macedon_20s)
            .filter(|((a, _), _)| a.0 % 10.0 == 0.0)
            .map(|((a, b), c)| vec![format!("{:.0}", a.0), f1(a.1), f1(b.1), f1(c.1)])
            .collect(),
    );
    figure(
        "Figure 11 — average packet latency (s) vs node count",
        &["nodes", "MACEDON", "FreePastry"],
        figs.fig11
            .iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    format!("{:.4}", r.macedon_s),
                    r.freepastry_s
                        .map_or_else(|| "OOM".to_string(), |v| format!("{v:.4}")),
                ]
            })
            .collect(),
    );
    let s = &figs.fig12;
    figure(
        "Figure 12 — mean per-node goodput (Kbps) after convergence",
        &["t (s)", "no eviction", "1s lifetime"],
        s.no_eviction
            .iter()
            .zip(&s.with_eviction)
            .map(|(a, b)| vec![format!("{:.0}", a.0), f1(a.1), f1(b.1)])
            .collect(),
    );
    let kbps = |series: &[(f64, f64)]| mean(series.iter().map(|p| p.1));
    let _ = writeln!(
        out,
        "Run means: no eviction {:.0} Kbps, 1s lifetime {:.0} Kbps (paper: ~580 vs ~500); \
         the interpreted splitstream/scribe/pastry stack {:.0} Kbps ({} nodes at 200 kbit/s, \
         no location cache).",
        kbps(&s.no_eviction),
        kbps(&s.with_eviction),
        kbps(&s.from_spec),
        s.from_spec_nodes
    );
    out
}

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
