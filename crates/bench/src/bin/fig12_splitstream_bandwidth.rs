//! Figure 12 — SplitStream per-node bandwidth over time for two Pastry
//! location-cache policies (no eviction vs 1 s lifetime). With
//! `--from-spec`, the same streaming scenario additionally runs over
//! the fully interpreted `splitstream.mac` → `scribe.mac` →
//! `pastry.mac` stack.
//!
//! Observability (both imply `--from-spec`): `--trace-out trace.json`
//! writes the from-spec run's causal trace as Chrome/Perfetto trace
//! events (open at <https://ui.perfetto.dev>); `--sample-every 500`
//! samples engine counters every 500 sim-ms and writes them as JSONL
//! (`--telemetry-out`, default `fig12_telemetry.jsonl`).
use macedon_bench::experiments::{fig12, fig12_from_spec_observed};
use macedon_bench::table::{f1, maybe_write_csv, print_table};
use macedon_bench::Scale;
use macedon_core::Duration;

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn main() {
    let scale = Scale::from_args();
    let trace_out = arg_value("--trace-out");
    let sample_every_ms: Option<u64> =
        arg_value("--sample-every").map(|v| v.parse().expect("--sample-every takes milliseconds"));
    let s = fig12(scale);
    let cells: Vec<Vec<String>> = s
        .no_eviction
        .iter()
        .zip(&s.with_eviction)
        .map(|(a, b)| vec![format!("{:.0}", a.0), f1(a.1), f1(b.1)])
        .collect();
    print_table(
        "Figure 12: mean per-node goodput (Kbps) after convergence",
        &["t(s)", "no eviction", "1s lifetime"],
        &cells,
    );
    maybe_write_csv(&["t(s)", "no eviction", "1s lifetime"], &cells);
    let avg = |v: &[(f64, f64)]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().map(|x| x.1).sum::<f64>() / v.len() as f64
        }
    };
    println!(
        "\nRun means: no-eviction={:.0} Kbps, 1s-lifetime={:.0} Kbps (paper: ~580 vs ~500)",
        avg(&s.no_eviction),
        avg(&s.with_eviction)
    );

    let from_spec = std::env::args().any(|a| a == "--from-spec")
        || trace_out.is_some()
        || sample_every_ms.is_some();
    if from_spec {
        let obs = fig12_from_spec_observed(
            scale,
            trace_out.is_some(),
            sample_every_ms.map(Duration::from_millis),
        );
        let cells: Vec<Vec<String>> = obs
            .series
            .iter()
            .map(|(t, kbps)| vec![format!("{t:.0}"), f1(*kbps)])
            .collect();
        print_table(
            "From-spec mode: interpreted splitstream/scribe/pastry stack",
            &["t(s)", "goodput (Kbps)"],
            &cells,
        );
        println!(
            "\nFrom-spec run mean: {:.0} Kbps ({} nodes at 200 kbit/s, no location cache)",
            avg(&obs.series),
            obs.nodes
        );
        if let (Some(path), Some(json)) = (&trace_out, &obs.perfetto) {
            std::fs::write(path, json).expect("write perfetto trace");
            println!("wrote {path} (open it at https://ui.perfetto.dev)");
        }
        if let Some(t) = &obs.telemetry {
            let path =
                arg_value("--telemetry-out").unwrap_or_else(|| "fig12_telemetry.jsonl".into());
            std::fs::write(&path, t.to_jsonl()).expect("write telemetry jsonl");
            println!("wrote {path} ({} samples)", t.samples.len());
        }
    }
}
