//! Engine-measured results of one scenario run.
//!
//! Everything in here is derived from engine observations — the
//! delivery log ([`macedon_core::app::DeliveryRecord`]s with virtual
//! timestamps), per-channel transport counters, network drop counters,
//! and the world's membership-change clock — never from protocol
//! internals, so the same report shape works for interpreted, generated
//! and native stacks alike.

use macedon_core::export::json_string;
use macedon_core::{Duration, NodeId, TelemetryReport, Time};
use std::fmt::Write as _;

/// Per-node delivery metrics.
#[derive(Clone, Debug)]
pub struct NodeMetrics {
    pub index: usize,
    pub node: NodeId,
    /// Alive at scenario end (crashed-and-not-rejoined nodes are not).
    pub alive: bool,
    /// Application-level deliveries observed at this node.
    pub delivered: u64,
    pub bytes: u64,
    /// Mean/maximum delivery latency against the stream schedule (only
    /// for deliveries attributable to a scripted stream).
    pub mean_latency: Option<Duration>,
    pub max_latency: Option<Duration>,
    /// Received application bytes over the stream window, bits/s.
    pub goodput_bps: u64,
}

/// One perturbation event with its observed aftermath.
#[derive(Clone, Debug)]
pub struct PerturbationReport {
    pub at: Time,
    pub what: String,
    /// How long after the perturbation the overlay kept churning
    /// (last failure-detector registration change before the next
    /// perturbation), `None` when no membership change was observed.
    pub convergence: Option<Duration>,
    /// Application deliveries between this perturbation and the next.
    pub deliveries_during: u64,
}

/// Aggregate transport counters for one named channel (control-message
/// overhead).
#[derive(Clone, Debug)]
pub struct ChannelReport {
    pub channel: String,
    pub segments: u64,
    pub retransmissions: u64,
    pub acks: u64,
    pub messages: u64,
    pub bytes: u64,
}

/// Distribution summary of the run's stream-attributable delivery
/// latencies (every node's samples pooled), percentiles by nearest
/// rank. `None` on [`MetricsReport::latency`] when the run had no
/// attributable deliveries (no scripted stream, or nothing arrived).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LatencySummary {
    pub samples: u64,
    pub p50: Duration,
    pub p95: Duration,
    pub p99: Duration,
    pub max: Duration,
}

impl LatencySummary {
    /// Summarize a set of latency samples (microseconds, any order).
    /// Returns `None` for an empty set — a report never carries a
    /// zero-sample summary.
    pub fn from_samples_us(samples: &[u64]) -> Option<LatencySummary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Some(LatencySummary {
            samples: sorted.len() as u64,
            p50: Duration(percentile_us(&sorted, 50)),
            p95: Duration(percentile_us(&sorted, 95)),
            p99: Duration(percentile_us(&sorted, 99)),
            max: Duration(*sorted.last().unwrap()),
        })
    }
}

/// Nearest-rank percentile of a *sorted* sample set: the smallest value
/// with at least `q`% of the samples at or below it.
pub fn percentile_us(sorted: &[u64], q: u64) -> u64 {
    assert!(!sorted.is_empty() && (1..=100).contains(&q));
    let rank = (sorted.len() as u64 * q).div_ceil(100);
    sorted[rank as usize - 1]
}

/// One scripted `assert converged|diverged <oracle>` checkpoint with
/// its outcome.
#[derive(Clone, Debug)]
pub struct OracleCheckReport {
    pub at: Time,
    pub oracle: String,
    /// What the script asserted.
    pub expect_converged: bool,
    /// What the oracle observed (zero violations).
    pub converged: bool,
    /// Rendered [`crate::oracle::Violation`]s — the offending snapshot
    /// rows, so a CI failure is debuggable from the log alone.
    pub violations: Vec<String>,
    pub passed: bool,
}

/// The complete engine-measured report of a scenario run.
#[derive(Clone, Debug)]
pub struct MetricsReport {
    pub scenario: String,
    pub end: Time,
    /// Nodes alive at scenario end.
    pub alive: usize,
    pub total_delivered: u64,
    pub total_bytes: u64,
    /// Packets dropped anywhere in the emulated network (queue
    /// overflow, loss, partitions, dead links/nodes).
    pub net_drops: u64,
    /// Pooled delivery-latency distribution across all nodes (only
    /// stream-attributable deliveries carry a latency sample).
    pub latency: Option<LatencySummary>,
    pub nodes: Vec<NodeMetrics>,
    pub perturbations: Vec<PerturbationReport>,
    pub channels: Vec<ChannelReport>,
    /// Oracle checkpoints, in script order.
    pub oracle_checks: Vec<OracleCheckReport>,
    /// The engine time series, when the runner sampled one
    /// ([`crate::ScenarioRunner::enable_telemetry`]).
    pub telemetry: Option<TelemetryReport>,
}

impl MetricsReport {
    /// Mean per-node goodput across nodes that received anything.
    pub fn mean_goodput_bps(&self) -> u64 {
        let xs: Vec<u64> = self
            .nodes
            .iter()
            .filter(|n| n.delivered > 0)
            .map(|n| n.goodput_bps)
            .collect();
        if xs.is_empty() {
            0
        } else {
            xs.iter().sum::<u64>() / xs.len() as u64
        }
    }

    /// Did every scripted oracle checkpoint come out as asserted? A run
    /// with no checkpoints trivially passes.
    pub fn asserts_passed(&self) -> bool {
        self.oracle_checks.iter().all(|c| c.passed)
    }

    /// Time-to-first-convergence: the earliest checkpoint at which the
    /// named oracle observed zero violations. `None` when it never
    /// converged (or was never checked).
    pub fn first_convergence(&self, oracle: &str) -> Option<Time> {
        self.oracle_checks
            .iter()
            .filter(|c| c.oracle == oracle && c.converged)
            .map(|c| c.at)
            .min()
    }

    /// Render as a JSON object (the `examples/churn.rs --json` output
    /// and the first slice of the exportable-reports roadmap item).
    ///
    /// The schema is pinned by `tests::json_schema_is_pinned`; times
    /// are emitted as integer microseconds so the output is exact and
    /// locale-independent, and optional latencies/convergences render
    /// as `null`.
    pub fn to_json(&self) -> String {
        let opt_us = |d: Option<Duration>| match d {
            Some(d) => d.as_micros().to_string(),
            None => "null".into(),
        };
        let latency = match &self.latency {
            Some(l) => format!(
                "{{\"samples\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
                 \"max_us\": {}}}",
                l.samples,
                l.p50.as_micros(),
                l.p95.as_micros(),
                l.p99.as_micros(),
                l.max.as_micros(),
            ),
            None => "null".into(),
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"scenario\": {},\n  \"end_us\": {},\n  \"alive\": {},\n  \
             \"total_delivered\": {},\n  \"total_bytes\": {},\n  \"net_drops\": {},\n  \
             \"mean_goodput_bps\": {},\n  \"asserts_passed\": {},\n  \"latency\": {},\n  \
             \"nodes\": [",
            json_string(&self.scenario),
            self.end.as_micros(),
            self.alive,
            self.total_delivered,
            self.total_bytes,
            self.net_drops,
            self.mean_goodput_bps(),
            self.asserts_passed(),
            latency,
        );
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"index\": {}, \"node\": {}, \"alive\": {}, \"delivered\": {}, \
                 \"bytes\": {}, \"mean_latency_us\": {}, \"max_latency_us\": {}, \
                 \"goodput_bps\": {}}}",
                if i == 0 { "" } else { "," },
                n.index,
                n.node.0,
                n.alive,
                n.delivered,
                n.bytes,
                opt_us(n.mean_latency),
                opt_us(n.max_latency),
                n.goodput_bps,
            );
        }
        let _ = write!(out, "\n  ],\n  \"perturbations\": [");
        for (i, p) in self.perturbations.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"at_us\": {}, \"what\": {}, \"convergence_us\": {}, \
                 \"deliveries_during\": {}}}",
                if i == 0 { "" } else { "," },
                p.at.as_micros(),
                json_string(&p.what),
                opt_us(p.convergence),
                p.deliveries_during,
            );
        }
        let _ = write!(out, "\n  ],\n  \"channels\": [");
        for (i, c) in self.channels.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"channel\": {}, \"segments\": {}, \"retransmissions\": {}, \
                 \"acks\": {}, \"messages\": {}, \"bytes\": {}}}",
                if i == 0 { "" } else { "," },
                json_string(&c.channel),
                c.segments,
                c.retransmissions,
                c.acks,
                c.messages,
                c.bytes,
            );
        }
        let _ = write!(out, "\n  ],\n  \"oracle_checks\": [");
        for (i, c) in self.oracle_checks.iter().enumerate() {
            let violations: Vec<String> = c.violations.iter().map(|v| json_string(v)).collect();
            let _ = write!(
                out,
                "{}\n    {{\"at_us\": {}, \"oracle\": {}, \"expect_converged\": {}, \
                 \"converged\": {}, \"passed\": {}, \"violations\": [{}]}}",
                if i == 0 { "" } else { "," },
                c.at.as_micros(),
                json_string(&c.oracle),
                c.expect_converged,
                c.converged,
                c.passed,
                violations.join(", "),
            );
        }
        match &self.telemetry {
            None => {
                let _ = write!(out, "\n  ],\n  \"telemetry\": null\n}}\n");
            }
            Some(t) => {
                let _ = write!(
                    out,
                    "\n  ],\n  \"telemetry\": {{\"every_us\": {}, \"samples\": [",
                    t.every_us
                );
                for (i, s) in t.samples.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}\n    {}",
                        if i == 0 { "" } else { "," },
                        s.to_json()
                    );
                }
                let _ = write!(out, "\n  ]}}\n}}\n");
            }
        }
        out
    }

    /// Render the per-node metrics as CSV (one row per node, header
    /// first) for figure pipelines. Optional latencies render as empty
    /// cells; the schema is pinned by `tests::csv_schema_is_pinned`.
    pub fn to_csv(&self) -> String {
        let opt_us = |d: Option<Duration>| match d {
            Some(d) => d.as_micros().to_string(),
            None => String::new(),
        };
        let mut out = String::from(
            "index,node,alive,delivered,bytes,mean_latency_us,max_latency_us,goodput_bps\n",
        );
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                n.index,
                n.node.0,
                n.alive,
                n.delivered,
                n.bytes,
                opt_us(n.mean_latency),
                opt_us(n.max_latency),
                n.goodput_bps,
            );
        }
        out
    }

    /// Render as an aligned text table (the `examples/churn.rs`
    /// output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario '{}' — {}s simulated, {} nodes alive, {} deliveries ({} bytes), {} net drops",
            self.scenario,
            self.end.as_secs_f64(),
            self.alive,
            self.total_delivered,
            self.total_bytes,
            self.net_drops,
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>9} {:>10} {:>10} {:>10} {:>11}",
            "node", "alive", "delivered", "bytes", "mean-lat", "max-lat", "goodput"
        );
        for n in &self.nodes {
            let fmt_lat = |l: Option<Duration>| match l {
                Some(d) => format!("{:.1}ms", d.as_micros() as f64 / 1_000.0),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "{:>5} {:>6} {:>9} {:>10} {:>10} {:>10} {:>9}bps",
                n.index,
                if n.alive { "yes" } else { "no" },
                n.delivered,
                n.bytes,
                fmt_lat(n.mean_latency),
                fmt_lat(n.max_latency),
                n.goodput_bps,
            );
        }
        if !self.perturbations.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:>8} {:<34} {:>12} {:>10}",
                "t", "perturbation", "convergence", "deliveries"
            );
            for p in &self.perturbations {
                let conv = match p.convergence {
                    Some(d) => format!("{:.2}s", d.as_secs_f64()),
                    None => "quiet".into(),
                };
                let _ = writeln!(
                    out,
                    "{:>7.1}s {:<34} {:>12} {:>10}",
                    p.at.as_secs_f64(),
                    p.what,
                    conv,
                    p.deliveries_during,
                );
            }
        }
        if !self.oracle_checks.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:>8} {:<10} {:>10} {:>10} {:>8}",
                "t", "oracle", "asserted", "observed", "result"
            );
            let word = |converged: bool| if converged { "converged" } else { "diverged" };
            for c in &self.oracle_checks {
                let _ = writeln!(
                    out,
                    "{:>7.1}s {:<10} {:>10} {:>10} {:>8}",
                    c.at.as_secs_f64(),
                    c.oracle,
                    word(c.expect_converged),
                    word(c.converged),
                    if c.passed { "ok" } else { "FAIL" },
                );
                if !c.passed {
                    const SHOWN: usize = 5;
                    for v in c.violations.iter().take(SHOWN) {
                        let _ = writeln!(out, "         ! {v}");
                    }
                    if c.violations.len() > SHOWN {
                        let _ =
                            writeln!(out, "         ! … and {} more", c.violations.len() - SHOWN);
                    }
                }
            }
            let mut seen: Vec<&str> = Vec::new();
            for c in &self.oracle_checks {
                if !seen.contains(&c.oracle.as_str()) {
                    seen.push(&c.oracle);
                }
            }
            for oracle in seen {
                match self.first_convergence(oracle) {
                    Some(t) => {
                        let _ = writeln!(
                            out,
                            "first convergence of '{oracle}' at {:.1}s",
                            t.as_secs_f64()
                        );
                    }
                    None => {
                        let _ = writeln!(out, "'{oracle}' never observed converged");
                    }
                }
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>8} {:>9} {:>9} {:>11}",
            "channel", "segments", "retrans", "acks", "messages", "bytes"
        );
        for c in &self.channels {
            let _ = writeln!(
                out,
                "{:<12} {:>9} {:>8} {:>9} {:>9} {:>11}",
                c.channel, c.segments, c.retransmissions, c.acks, c.messages, c.bytes
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsReport {
        MetricsReport {
            scenario: "pin \"quotes\"".into(),
            end: Time::from_secs(80),
            alive: 2,
            total_delivered: 7,
            total_bytes: 7_000,
            net_drops: 3,
            latency: Some(LatencySummary {
                samples: 7,
                p50: Duration::from_micros(1_500),
                p95: Duration::from_micros(8_200),
                p99: Duration::from_micros(9_000),
                max: Duration::from_micros(9_000),
            }),
            nodes: vec![
                NodeMetrics {
                    index: 0,
                    node: NodeId(4),
                    alive: true,
                    delivered: 7,
                    bytes: 7_000,
                    mean_latency: Some(Duration::from_micros(1_500)),
                    max_latency: Some(Duration::from_micros(9_000)),
                    goodput_bps: 800,
                },
                NodeMetrics {
                    index: 1,
                    node: NodeId(5),
                    alive: false,
                    delivered: 0,
                    bytes: 0,
                    mean_latency: None,
                    max_latency: None,
                    goodput_bps: 0,
                },
            ],
            perturbations: vec![PerturbationReport {
                at: Time::from_secs(35),
                what: "crash 11 17".into(),
                convergence: None,
                deliveries_during: 41,
            }],
            channels: vec![ChannelReport {
                channel: "CTRL".into(),
                segments: 10,
                retransmissions: 1,
                acks: 6,
                messages: 9,
                bytes: 4_321,
            }],
            oracle_checks: vec![OracleCheckReport {
                at: Time::from_secs(60),
                oracle: "ring".into(),
                expect_converged: true,
                converged: false,
                violations: vec!["node 5: successor\tmissing".into()],
                passed: false,
            }],
            telemetry: None,
        }
    }

    /// Pins the full JSON schema: key names, nesting, null encoding for
    /// optional latencies/convergence, and string escaping. A change to
    /// the exported shape must update this fixture deliberately.
    #[test]
    fn json_schema_is_pinned() {
        let got = sample().to_json();
        let want = r#"{
  "scenario": "pin \"quotes\"",
  "end_us": 80000000,
  "alive": 2,
  "total_delivered": 7,
  "total_bytes": 7000,
  "net_drops": 3,
  "mean_goodput_bps": 800,
  "asserts_passed": false,
  "latency": {"samples": 7, "p50_us": 1500, "p95_us": 8200, "p99_us": 9000, "max_us": 9000},
  "nodes": [
    {"index": 0, "node": 4, "alive": true, "delivered": 7, "bytes": 7000, "mean_latency_us": 1500, "max_latency_us": 9000, "goodput_bps": 800},
    {"index": 1, "node": 5, "alive": false, "delivered": 0, "bytes": 0, "mean_latency_us": null, "max_latency_us": null, "goodput_bps": 0}
  ],
  "perturbations": [
    {"at_us": 35000000, "what": "crash 11 17", "convergence_us": null, "deliveries_during": 41}
  ],
  "channels": [
    {"channel": "CTRL", "segments": 10, "retransmissions": 1, "acks": 6, "messages": 9, "bytes": 4321}
  ],
  "oracle_checks": [
    {"at_us": 60000000, "oracle": "ring", "expect_converged": true, "converged": false, "passed": false, "violations": ["node 5: successor\tmissing"]}
  ],
  "telemetry": null
}
"#;
        assert_eq!(got, want);
    }

    /// A sampled run inlines the time series with the pinned
    /// [`macedon_core::TELEMETRY_COLUMNS`] keys.
    #[test]
    fn json_inlines_telemetry_when_sampled() {
        use macedon_core::TelemetrySample;
        let mut r = sample();
        r.telemetry = Some(TelemetryReport {
            every_us: 1_000_000,
            samples: vec![TelemetrySample {
                at_us: 1_000_000,
                events_net: 5,
                alive_nodes: 2,
                ..Default::default()
            }],
        });
        let got = r.to_json();
        assert!(got.contains("\"telemetry\": {\"every_us\": 1000000, \"samples\": ["));
        assert!(got.contains("{\"at_us\":1000000,\"events_net\":5,"));
        assert!(got.ends_with("  ]}\n}\n"));
    }

    #[test]
    fn json_escapes_control_chars() {
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), r#""a\"b\\c\nd\u0001""#);
    }
    /// Pins the per-node CSV schema: header, row order, empty cells for
    /// missing latencies.
    #[test]
    fn csv_schema_is_pinned() {
        let got = sample().to_csv();
        let want = "\
index,node,alive,delivered,bytes,mean_latency_us,max_latency_us,goodput_bps
0,4,true,7,7000,1500,9000,800
1,5,false,0,0,,,0
";
        assert_eq!(got, want);
    }

    /// A crashed node shows up dead in the report; the survivors alive.
    #[test]
    fn report_reflects_crashes() {
        use macedon_core::WorldConfig;
        use macedon_net::topology::{canned, LinkSpec};
        let reg = macedon_lang::SpecRegistry::bundled();
        let script = "scenario crash\nnodes 3\nend 5s\nat 0s join 0..3 over 1s\nat 2s crash 0\n";
        let cfg = WorldConfig {
            channels: reg.channel_table_for("randtree").unwrap(),
            ..Default::default()
        };
        let runner = crate::ScenarioRunner::new(
            crate::script::parse(script).unwrap(),
            canned::star(3, LinkSpec::lan()),
            cfg,
            Box::new(|_idx, _host, bootstrap| reg.build_stack("randtree", bootstrap).unwrap()),
        )
        .unwrap();
        let report = runner.run().report;
        assert_eq!(report.alive, 2);
        let alive: Vec<bool> = report.nodes.iter().map(|n| n.alive).collect();
        assert_eq!(alive, [false, true, true]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&sorted, 50), 50);
        assert_eq!(percentile_us(&sorted, 95), 95);
        assert_eq!(percentile_us(&sorted, 99), 99);
        assert_eq!(percentile_us(&sorted, 100), 100);
        assert_eq!(percentile_us(&[7], 50), 7);
        let s = LatencySummary::from_samples_us(&[5, 1, 3]).unwrap();
        assert_eq!((s.samples, s.p50.0, s.max.0), (3, 3, 5));
        assert_eq!(LatencySummary::from_samples_us(&[]), None);
    }
}
