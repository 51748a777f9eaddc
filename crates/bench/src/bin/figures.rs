//! Every evaluation figure of the paper, each run once, printed as the
//! Markdown the README's "Figures" section holds between its
//! `<!-- figures:begin -->` and `<!-- figures:end -->` markers.
//!
//! ```sh
//! cargo run --release -p macedon-bench --bin figures             # Quick scale, seconds
//! cargo run --release -p macedon-bench --bin figures -- --paper  # the paper's scale
//! ```

use macedon_bench::experiments::{fig10, fig11, fig12, fig7, fig8_9};
use macedon_bench::table::{f1, f2, markdown};
use macedon_bench::Scale;

/// Print one figure: its title, then its table.
fn figure(title: &str, headers: &[&str], rows: Vec<Vec<String>>) {
    println!("**{title}**\n\n{}", markdown(headers, &rows));
}

fn mean(series: &[(f64, f64)]) -> f64 {
    series.iter().map(|x| x.1).sum::<f64>() / series.len().max(1) as f64
}

fn main() {
    let scale = if std::env::args().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Quick
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
        fig7()
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
        fig8_9(scale)
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

    let s = fig10(scale);
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
        fig11(scale)
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

    let s = fig12(scale);
    figure(
        "Figure 12 — mean per-node goodput (Kbps) after convergence",
        &["t (s)", "no eviction", "1s lifetime"],
        s.no_eviction
            .iter()
            .zip(&s.with_eviction)
            .map(|(a, b)| vec![format!("{:.0}", a.0), f1(a.1), f1(b.1)])
            .collect(),
    );
    println!(
        "Run means: no eviction {:.0} Kbps, 1s lifetime {:.0} Kbps (paper: ~580 vs ~500); \
         the interpreted splitstream/scribe/pastry stack {:.0} Kbps ({} nodes at 200 kbit/s, \
         no location cache).",
        mean(&s.no_eviction),
        mean(&s.with_eviction),
        mean(&s.from_spec),
        s.from_spec_nodes
    );
}
