//! The sweep driver: one scenario template fanned across seeds ×
//! node counts × a named parameter grid, executed in parallel on a
//! fixed-size worker pool, and merged into one deterministic
//! [`SweepReport`].
//!
//! This is MACEDON's "push-button methodology" at harness scale: the
//! paper's figures are sweeps (goodput vs population, convergence vs
//! fault schedule), and a single hand-run example is not a
//! distribution. A [`SweepSpec`] compiles into independent *cells* —
//! one `(node count, grid point, seed)` combination each, with its own
//! substituted script and derived world seed — which workers pull off a
//! shared queue. Results are merged **in cell order**, so the aggregate
//! report is byte-identical regardless of thread interleaving:
//! determinism stays load-bearing even across the parallel harness.
//!
//! Template substitution is textual: `{nodes}` expands to the cell's
//! node count (with the arithmetic forms `{nodes/2}`, `{nodes-1}`,
//! `{nodes*3}`, `{nodes+4}` for scale-dependent node sets), and
//! `{name}` expands to the cell's value of grid axis `name`. Every
//! substituted script goes through [`crate::script::parse`] and
//! [`Scenario::validate`], so a template that only breaks at one corner
//! of the grid is a spanned diagnostic before any cell runs.
//!
//! ```no_run
//! use macedon_scenario::sweep::{run_sweep, GridAxis, SweepSpec};
//!
//! let spec = SweepSpec {
//!     name: "loss-sweep".into(),
//!     template: "scenario cell\nnodes {nodes}\nend 60s\n\
//!                at 0s join 0..{nodes} over 5s\n\
//!                at 10s drop {loss}\n\
//!                at 20s stream 0 rate 100kbps size 1000 for 30s multicast\n"
//!         .into(),
//!     seeds: vec![1, 2, 3],
//!     node_counts: vec![50, 100, 200],
//!     grid: vec![GridAxis::new("loss", ["0", "0.02"])],
//!     workers: None, // all cores
//! };
//! let report = run_sweep(&spec, |cell| todo!("run cell.scenario, return MetricsReport"))?;
//! println!("{}", report.render());
//! std::fs::write("sweep.json", report.to_json()).unwrap();
//! std::fs::write("sweep.csv", report.to_csv()).unwrap();
//! # Ok::<(), macedon_scenario::ScenarioError>(())
//! ```

use crate::model::{Scenario, ScenarioError, Span};
use crate::report::{percentile_us, LatencySummary, MetricsReport};
use crate::script;
use macedon_core::export::json_string;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One named parameter axis of the grid: substituting `{name}` in the
/// template with each of `values` in turn.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GridAxis {
    pub name: String,
    pub values: Vec<String>,
}

impl GridAxis {
    pub fn new(
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> GridAxis {
        GridAxis {
            name: name.into(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }
}

/// A sweep: one scenario template × seed list × node-count list × grid.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    pub name: String,
    /// Scenario script with `{nodes}` / `{axis}` placeholders.
    pub template: String,
    /// World seeds; each is mixed with the cell's coordinates into the
    /// per-cell derived seed, so no two cells share an RNG stream.
    pub seeds: Vec<u64>,
    pub node_counts: Vec<usize>,
    /// Parameter axes, crossed. Empty = a single implicit grid point.
    pub grid: Vec<GridAxis>,
    /// Worker-pool size; `None` = all available cores.
    pub workers: Option<usize>,
}

/// One independent unit of sweep work: a fully substituted, validated
/// scenario plus the coordinates it came from.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Position in the deterministic cell order (nodes outermost, then
    /// grid point, seeds innermost).
    pub index: usize,
    pub nodes: usize,
    /// `(axis, value)` in axis order.
    pub params: Vec<(String, String)>,
    /// The seed from [`SweepSpec::seeds`] this cell belongs to.
    pub seed: u64,
    /// What the cell's world should actually be seeded with: `seed`
    /// mixed with the cell coordinates (see [`derive_seed`]).
    pub derived_seed: u64,
    /// The substituted script text.
    pub script: String,
    /// The parsed, validated scenario.
    pub scenario: Scenario,
}

impl SweepSpec {
    /// Structural validation: non-empty seed/node lists, no duplicate
    /// coordinates (a duplicated seed would run the identical cell
    /// twice and silently double-weight it in every distribution), and
    /// well-formed grid axes. Template placeholders are checked
    /// per-cell by [`SweepSpec::expand`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let top = Span::default();
        let err = |msg: String| Err(ScenarioError::at(top, msg));
        if self.name.is_empty() {
            return err("sweep has no name".into());
        }
        if self.template.trim().is_empty() {
            return err("sweep template is empty".into());
        }
        if self.seeds.is_empty() {
            return err("sweep declares no seeds (empty seed list)".into());
        }
        if let Some(d) = first_duplicate(&self.seeds) {
            return err(format!("duplicate seed {d} in sweep seed list"));
        }
        if self.node_counts.is_empty() {
            return err("sweep declares no node counts (empty list)".into());
        }
        if self.node_counts.contains(&0) {
            return err("sweep node count 0 is degenerate".into());
        }
        if let Some(d) = first_duplicate(&self.node_counts) {
            return err(format!("duplicate node count {d} in sweep"));
        }
        for axis in &self.grid {
            if axis.name.is_empty() {
                return err("grid axis has no name".into());
            }
            if !axis
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
                || axis.name.starts_with(|c: char| c.is_ascii_digit())
            {
                return err(format!(
                    "grid axis '{}' is not an identifier ([a-zA-Z_][a-zA-Z0-9_]*)",
                    axis.name
                ));
            }
            if axis.name == "nodes" {
                return err("grid axis 'nodes' shadows the built-in {nodes} placeholder".into());
            }
            if axis.values.is_empty() {
                return err(format!(
                    "grid axis '{}' has no values (empty axis)",
                    axis.name
                ));
            }
            if let Some(d) = first_duplicate(&axis.values) {
                return err(format!("grid axis '{}' repeats value '{d}'", axis.name));
            }
        }
        for (i, a) in self.grid.iter().enumerate() {
            if self.grid[..i].iter().any(|b| b.name == a.name) {
                return err(format!("grid axis '{}' declared twice", a.name));
            }
        }
        if self.workers == Some(0) {
            return err("sweep worker pool of size 0 cannot run".into());
        }
        Ok(())
    }

    /// Number of cells the sweep expands to.
    pub fn cell_count(&self) -> usize {
        self.seeds.len()
            * self.node_counts.len()
            * self.grid.iter().map(|a| a.values.len()).product::<usize>()
    }

    /// Expand into the deterministic cell list: node counts outermost,
    /// then grid points (first axis slowest), seeds innermost — so the
    /// cells of one `(nodes, grid point)` configuration are contiguous
    /// and cross-seed aggregation is a chunk, not a search. Every
    /// cell's substituted script is parsed and validated here; errors
    /// carry the cell's coordinates.
    pub fn expand(&self) -> Result<Vec<SweepCell>, ScenarioError> {
        self.validate()?;
        let points = grid_points(&self.grid);
        let mut cells = Vec::with_capacity(self.cell_count());
        for &nodes in &self.node_counts {
            for point in &points {
                for &seed in &self.seeds {
                    let index = cells.len();
                    let script_text = substitute(&self.template, nodes, point)?;
                    let scenario = script::parse(&script_text).map_err(|e| {
                        ScenarioError::at(
                            Span {
                                line: e.line,
                                col: e.col,
                            },
                            format!("cell {index} ({}): {}", coords(nodes, point, seed), e.msg),
                        )
                    })?;
                    if scenario.nodes != nodes {
                        return Err(ScenarioError::at(
                            Span::default(),
                            format!(
                                "cell {index} ({}): template declares {} nodes; use \
                                 'nodes {{nodes}}' so the sweep's node axis applies",
                                coords(nodes, point, seed),
                                scenario.nodes
                            ),
                        ));
                    }
                    cells.push(SweepCell {
                        index,
                        nodes,
                        params: point.clone(),
                        seed,
                        derived_seed: derive_seed(seed, nodes, point),
                        script: script_text,
                        scenario,
                    });
                }
            }
        }
        Ok(cells)
    }
}

/// Human-readable cell coordinates for diagnostics.
fn coords(nodes: usize, point: &[(String, String)], seed: u64) -> String {
    let mut s = format!("nodes={nodes}");
    for (k, v) in point {
        let _ = write!(s, ", {k}={v}");
    }
    let _ = write!(s, ", seed={seed}");
    s
}

fn first_duplicate<T: PartialEq + Clone>(xs: &[T]) -> Option<T> {
    xs.iter()
        .enumerate()
        .find(|(i, x)| xs[..*i].contains(x))
        .map(|(_, x)| x.clone())
}

/// Cross product of the grid axes, first axis slowest. An empty grid
/// yields one empty point (the sweep still runs seeds × node counts).
fn grid_points(grid: &[GridAxis]) -> Vec<Vec<(String, String)>> {
    let mut points: Vec<Vec<(String, String)>> = vec![Vec::new()];
    for axis in grid {
        let mut next = Vec::with_capacity(points.len() * axis.values.len());
        for p in &points {
            for v in &axis.values {
                let mut q = p.clone();
                q.push((axis.name.clone(), v.clone()));
                next.push(q);
            }
        }
        points = next;
    }
    points
}

/// SplitMix64 step (same construction the simulator's RNG seeds with).
fn mix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Per-cell derived seed: the list seed mixed with every cell
/// coordinate, so two cells never share a world RNG stream (running
/// seed 7 at 50 and at 100 nodes must not replay correlated loss dice),
/// while staying a pure function of the coordinates — re-running any
/// cell alone reproduces it exactly.
pub fn derive_seed(seed: u64, nodes: usize, params: &[(String, String)]) -> u64 {
    let mut s = mix64(seed ^ 0x4D41_4345_444F_4E21); // "MACEDON!"
    s = mix64(s ^ nodes as u64);
    for (k, v) in params {
        s = mix64(s ^ fnv64(k));
        s = mix64(s ^ fnv64(v));
    }
    s
}

/// Substitute `{nodes}` (with optional `+ - * /` arithmetic) and
/// `{axis}` placeholders. Unknown or malformed placeholders are spanned
/// diagnostics pointing at the `{` in the template.
fn substitute(
    template: &str,
    nodes: usize,
    params: &[(String, String)],
) -> Result<String, ScenarioError> {
    let mut out = String::with_capacity(template.len());
    let bytes = template.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'{' {
            // Copy verbatim up to the next placeholder. '{' is ASCII,
            // so these offsets are always char boundaries.
            let start = i;
            while i < bytes.len() && bytes[i] != b'{' {
                i += 1;
            }
            out.push_str(&template[start..i]);
            continue;
        }
        let span = span_at(template, i);
        let Some(close) = template[i..].find('}').map(|o| i + o) else {
            return Err(ScenarioError::at(span, "unclosed '{' in sweep template"));
        };
        let inner = template[i + 1..close].trim();
        let value = resolve_placeholder(inner, nodes, params)
            .map_err(|msg| ScenarioError::at(span, msg))?;
        out.push_str(&value);
        i = close + 1;
    }
    Ok(out)
}

fn resolve_placeholder(
    inner: &str,
    nodes: usize,
    params: &[(String, String)],
) -> Result<String, String> {
    if inner == "nodes" {
        return Ok(nodes.to_string());
    }
    if let Some(rest) = inner.strip_prefix("nodes") {
        let rest = rest.trim_start();
        let (op, operand) = rest.split_at(1.min(rest.len()));
        let k: u64 = operand
            .trim()
            .parse()
            .map_err(|_| format!("malformed placeholder '{{{inner}}}' (want {{nodes<op>INT}})"))?;
        let n = nodes as u64;
        let overflow = || format!("placeholder '{{{inner}}}' overflows at nodes={nodes}");
        let v = match op {
            "+" => n.checked_add(k).ok_or_else(overflow)?,
            "-" => n.checked_sub(k).ok_or(format!(
                "placeholder '{{{inner}}}' is negative at nodes={nodes}"
            ))?,
            "*" => n.checked_mul(k).ok_or_else(overflow)?,
            "/" if k > 0 => n / k,
            "/" => return Err(format!("placeholder '{{{inner}}}' divides by zero")),
            _ => {
                return Err(format!(
                    "unknown operator '{op}' in placeholder '{{{inner}}}'"
                ))
            }
        };
        return Ok(v.to_string());
    }
    params
        .iter()
        .find(|(k, _)| k == inner)
        .map(|(_, v)| v.clone())
        .ok_or_else(|| format!("unknown placeholder '{{{inner}}}' (no grid axis of that name)"))
}

/// Line/column (1-based) of a byte offset in the template.
fn span_at(text: &str, offset: usize) -> Span {
    let before = &text[..offset];
    let line = before.matches('\n').count() as u32 + 1;
    let col = (offset - before.rfind('\n').map(|p| p + 1).unwrap_or(0)) as u32 + 1;
    Span { line, col }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One cell's deterministic result row. Wall-clock never appears here —
/// the report must be byte-identical across runs and machines; timing
/// belongs to the bench harness.
#[derive(Clone, Debug)]
pub struct CellReport {
    pub index: usize,
    pub nodes: usize,
    pub seed: u64,
    pub derived_seed: u64,
    pub params: Vec<(String, String)>,
    pub alive: usize,
    pub delivered: u64,
    pub bytes: u64,
    pub net_drops: u64,
    pub mean_goodput_bps: u64,
    pub latency: Option<LatencySummary>,
    /// Post-perturbation convergence times (µs), in perturbation order.
    pub convergences_us: Vec<u64>,
    pub asserts_passed: bool,
    /// Telemetry snapshots the cell's run took (0 without a sampler).
    pub telemetry_samples: u64,
    /// Peak scheduler queue depth across those snapshots — the sweep's
    /// cheap backlog indicator (0 without a sampler).
    pub peak_pending_events: u64,
}

impl CellReport {
    /// Distill one cell's [`MetricsReport`] into its result row.
    pub fn from_run(cell: &SweepCell, report: &MetricsReport) -> CellReport {
        CellReport {
            index: cell.index,
            nodes: cell.nodes,
            seed: cell.seed,
            derived_seed: cell.derived_seed,
            params: cell.params.clone(),
            alive: report.alive,
            delivered: report.total_delivered,
            bytes: report.total_bytes,
            net_drops: report.net_drops,
            mean_goodput_bps: report.mean_goodput_bps(),
            latency: report.latency,
            convergences_us: report
                .perturbations
                .iter()
                .filter_map(|p| p.convergence.map(|d| d.as_micros()))
                .collect(),
            asserts_passed: report.asserts_passed(),
            telemetry_samples: report
                .telemetry
                .as_ref()
                .map(|t| t.samples.len() as u64)
                .unwrap_or(0),
            peak_pending_events: report
                .telemetry
                .as_ref()
                .and_then(|t| t.samples.iter().map(|s| s.pending_events).max())
                .unwrap_or(0),
        }
    }
}

/// Min/mean/max of one metric across the seeds of a configuration
/// (integer mean — deterministic across platforms).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DistStat {
    pub min: u64,
    pub mean: u64,
    pub max: u64,
}

impl DistStat {
    fn over(xs: impl Iterator<Item = u64> + Clone) -> Option<DistStat> {
        let n = xs.clone().count() as u64;
        if n == 0 {
            return None;
        }
        Some(DistStat {
            min: xs.clone().min().unwrap(),
            mean: xs.clone().sum::<u64>() / n,
            max: xs.max().unwrap(),
        })
    }
}

/// Pooled convergence-time distribution of one configuration (all
/// perturbations × all seeds).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConvergenceSummary {
    pub samples: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub max_us: u64,
}

/// Cross-seed aggregate of one `(node count, grid point)` configuration.
#[derive(Clone, Debug)]
pub struct ConfigSummary {
    pub nodes: usize,
    pub params: Vec<(String, String)>,
    /// Seeds aggregated (== the sweep's seed count).
    pub cells: u64,
    pub delivered: DistStat,
    pub net_drops: DistStat,
    pub goodput_bps: DistStat,
    /// Distribution of the per-cell latency percentiles across seeds
    /// (`None` when no cell of the configuration observed latencies).
    pub latency_p50_us: Option<DistStat>,
    pub latency_p95_us: Option<DistStat>,
    pub latency_p99_us: Option<DistStat>,
    pub convergence: Option<ConvergenceSummary>,
    pub all_asserts_passed: bool,
}

/// The merged result of a whole sweep, in deterministic cell order.
#[derive(Clone, Debug)]
pub struct SweepReport {
    pub sweep: String,
    pub seeds: Vec<u64>,
    pub node_counts: Vec<usize>,
    pub axes: Vec<GridAxis>,
    pub cells: Vec<CellReport>,
    pub configs: Vec<ConfigSummary>,
}

impl SweepReport {
    fn aggregate(spec: &SweepSpec, cells: Vec<CellReport>) -> SweepReport {
        let per_config = spec.seeds.len();
        let configs = cells
            .chunks(per_config)
            .map(|chunk| {
                let lat = |f: fn(&LatencySummary) -> u64| {
                    DistStat::over(chunk.iter().filter_map(|c| c.latency.as_ref().map(f)))
                };
                let mut conv: Vec<u64> = chunk
                    .iter()
                    .flat_map(|c| c.convergences_us.iter().copied())
                    .collect();
                conv.sort_unstable();
                ConfigSummary {
                    nodes: chunk[0].nodes,
                    params: chunk[0].params.clone(),
                    cells: chunk.len() as u64,
                    delivered: DistStat::over(chunk.iter().map(|c| c.delivered)).unwrap(),
                    net_drops: DistStat::over(chunk.iter().map(|c| c.net_drops)).unwrap(),
                    goodput_bps: DistStat::over(chunk.iter().map(|c| c.mean_goodput_bps)).unwrap(),
                    latency_p50_us: lat(|l| l.p50.as_micros()),
                    latency_p95_us: lat(|l| l.p95.as_micros()),
                    latency_p99_us: lat(|l| l.p99.as_micros()),
                    convergence: (!conv.is_empty()).then(|| ConvergenceSummary {
                        samples: conv.len() as u64,
                        p50_us: percentile_us(&conv, 50),
                        p95_us: percentile_us(&conv, 95),
                        max_us: *conv.last().unwrap(),
                    }),
                    all_asserts_passed: chunk.iter().all(|c| c.asserts_passed),
                }
            })
            .collect();
        SweepReport {
            sweep: spec.name.clone(),
            seeds: spec.seeds.clone(),
            node_counts: spec.node_counts.clone(),
            axes: spec.grid.clone(),
            cells,
            configs,
        }
    }

    /// Did every cell's oracle checkpoints come out as asserted?
    pub fn asserts_passed(&self) -> bool {
        self.cells.iter().all(|c| c.asserts_passed)
    }

    /// Render as JSON. The schema is pinned by the sweep integration
    /// tests; the output is a pure function of the cell results, so two
    /// runs of the same sweep are byte-identical.
    pub fn to_json(&self) -> String {
        let dist = |d: &DistStat| {
            format!(
                "{{\"min\": {}, \"mean\": {}, \"max\": {}}}",
                d.min, d.mean, d.max
            )
        };
        let opt_dist = |d: &Option<DistStat>| match d {
            Some(d) => dist(d),
            None => "null".into(),
        };
        let params = |ps: &[(String, String)]| {
            let fields: Vec<String> = ps
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"sweep\": {},\n  \"seeds\": {:?},\n  \"node_counts\": {:?},\n  \"axes\": [",
            json_string(&self.sweep),
            self.seeds,
            self.node_counts,
        );
        for (i, a) in self.axes.iter().enumerate() {
            let values: Vec<String> = a.values.iter().map(|v| json_string(v)).collect();
            let _ = write!(
                out,
                "{}\n    {{\"name\": {}, \"values\": [{}]}}",
                if i == 0 { "" } else { "," },
                json_string(&a.name),
                values.join(", "),
            );
        }
        let _ = write!(out, "\n  ],\n  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let latency = match &c.latency {
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
            let _ = write!(
                out,
                "{}\n    {{\"cell\": {}, \"nodes\": {}, \"seed\": {}, \"derived_seed\": {}, \
                 \"params\": {}, \"alive\": {}, \"delivered\": {}, \"bytes\": {}, \
                 \"net_drops\": {}, \"mean_goodput_bps\": {}, \"latency\": {}, \
                 \"convergences_us\": {:?}, \"asserts_passed\": {}, \
                 \"telemetry_samples\": {}, \"peak_pending_events\": {}}}",
                if i == 0 { "" } else { "," },
                c.index,
                c.nodes,
                c.seed,
                c.derived_seed,
                params(&c.params),
                c.alive,
                c.delivered,
                c.bytes,
                c.net_drops,
                c.mean_goodput_bps,
                latency,
                c.convergences_us,
                c.asserts_passed,
                c.telemetry_samples,
                c.peak_pending_events,
            );
        }
        let _ = write!(out, "\n  ],\n  \"configs\": [");
        for (i, s) in self.configs.iter().enumerate() {
            let convergence = match &s.convergence {
                Some(c) => format!(
                    "{{\"samples\": {}, \"p50_us\": {}, \"p95_us\": {}, \"max_us\": {}}}",
                    c.samples, c.p50_us, c.p95_us, c.max_us
                ),
                None => "null".into(),
            };
            let _ = write!(
                out,
                "{}\n    {{\"nodes\": {}, \"params\": {}, \"cells\": {}, \
                 \"delivered\": {}, \"net_drops\": {}, \"goodput_bps\": {}, \
                 \"latency_p50_us\": {}, \"latency_p95_us\": {}, \"latency_p99_us\": {}, \
                 \"convergence\": {}, \"all_asserts_passed\": {}}}",
                if i == 0 { "" } else { "," },
                s.nodes,
                params(&s.params),
                s.cells,
                dist(&s.delivered),
                dist(&s.net_drops),
                dist(&s.goodput_bps),
                opt_dist(&s.latency_p50_us),
                opt_dist(&s.latency_p95_us),
                opt_dist(&s.latency_p99_us),
                convergence,
                s.all_asserts_passed,
            );
        }
        let _ = write!(out, "\n  ]\n}}\n");
        out
    }

    /// Render the cells as CSV (one row per cell, axes as columns) for
    /// figure pipelines. Optional latency/convergence cells are empty.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cell,nodes,seed,derived_seed");
        for a in &self.axes {
            let _ = write!(out, ",{}", csv_field(&a.name));
        }
        out.push_str(
            ",alive,delivered,bytes,net_drops,mean_goodput_bps,latency_samples,\
             latency_p50_us,latency_p95_us,latency_p99_us,latency_max_us,\
             convergences,convergence_p50_us,asserts_passed,telemetry_samples,\
             peak_pending_events\n",
        );
        for c in &self.cells {
            let _ = write!(out, "{},{},{},{}", c.index, c.nodes, c.seed, c.derived_seed);
            for (_, v) in &c.params {
                let _ = write!(out, ",{}", csv_field(v));
            }
            let _ = write!(
                out,
                ",{},{},{},{},{}",
                c.alive, c.delivered, c.bytes, c.net_drops, c.mean_goodput_bps
            );
            match &c.latency {
                Some(l) => {
                    let _ = write!(
                        out,
                        ",{},{},{},{},{}",
                        l.samples,
                        l.p50.as_micros(),
                        l.p95.as_micros(),
                        l.p99.as_micros(),
                        l.max.as_micros(),
                    );
                }
                None => out.push_str(",,,,,"),
            }
            if c.convergences_us.is_empty() {
                out.push_str(",0,");
            } else {
                let mut conv = c.convergences_us.clone();
                conv.sort_unstable();
                let _ = write!(out, ",{},{}", conv.len(), percentile_us(&conv, 50));
            }
            let _ = writeln!(
                out,
                ",{},{},{}",
                c.asserts_passed, c.telemetry_samples, c.peak_pending_events
            );
        }
        out
    }

    /// Aligned text table — the `churn sweep` example output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let grid_points: usize = self.axes.iter().map(|a| a.values.len()).product();
        let _ = writeln!(
            out,
            "sweep '{}' — {} cells ({} node counts × {} grid points × {} seeds)",
            self.sweep,
            self.cells.len(),
            self.node_counts.len(),
            grid_points,
            self.seeds.len(),
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:>6} {:<20} {:>22} {:>10} {:>12} {:>22} {:>10} {:>7}",
            "nodes",
            "params",
            "delivered min/avg/max",
            "drops",
            "goodput",
            "p50/p95/p99 lat (ms)",
            "conv p50",
            "asserts"
        );
        for s in &self.configs {
            let params: Vec<String> = s.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let ms = |d: &Option<DistStat>| match d {
                Some(d) => format!("{:.1}", d.mean as f64 / 1_000.0),
                None => "-".into(),
            };
            let conv = match &s.convergence {
                Some(c) => format!("{:.2}s", c.p50_us as f64 / 1e6),
                None => "quiet".into(),
            };
            let _ = writeln!(
                out,
                "{:>6} {:<20} {:>22} {:>10} {:>9}bps {:>22} {:>10} {:>7}",
                s.nodes,
                params.join(" "),
                format!(
                    "{}/{}/{}",
                    s.delivered.min, s.delivered.mean, s.delivered.max
                ),
                s.net_drops.mean,
                s.goodput_bps.mean,
                format!(
                    "{}/{}/{}",
                    ms(&s.latency_p50_us),
                    ms(&s.latency_p95_us),
                    ms(&s.latency_p99_us)
                ),
                conv,
                if s.all_asserts_passed { "ok" } else { "FAIL" },
            );
        }
        out
    }
}

/// Quote a CSV field only when it needs it (comma, quote, newline).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

// ---------------------------------------------------------------------------
// Parallel execution
// ---------------------------------------------------------------------------

/// Run every cell of the sweep on a fixed-size worker pool and merge
/// the results in cell order.
///
/// `run_cell` executes one cell — build a topology and world seeded
/// with [`SweepCell::derived_seed`], run `cell.scenario`, return the
/// [`MetricsReport`] — and must be `Sync`: workers call it
/// concurrently. Cells are pulled off a shared atomic queue, so the
/// pool stays busy even when cell costs are skewed (a 200-node cell
/// next to a 50-node one); the merge is indexed by cell, never by
/// completion order, which keeps [`SweepReport`] byte-identical across
/// runs regardless of thread interleaving.
pub fn run_sweep<F>(spec: &SweepSpec, run_cell: F) -> Result<SweepReport, ScenarioError>
where
    F: Fn(&SweepCell) -> MetricsReport + Sync,
{
    let cells = spec.expand()?;
    let workers = spec
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, cells.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellReport>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let report = run_cell(cell);
                *slots[i].lock().unwrap() = Some(CellReport::from_run(cell, &report));
            });
        }
    });
    let rows: Vec<CellReport> = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker pool ran every cell"))
        .collect();
    Ok(SweepReport::aggregate(spec, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec {
            name: "t".into(),
            template: "scenario cell\nnodes {nodes}\nend 30s\n\
                       at 0s join 0..{nodes} over 2s\nat 10s drop {loss}\n\
                       at 12s crash {nodes/2}\n"
                .into(),
            seeds: vec![1, 2],
            node_counts: vec![4, 8],
            grid: vec![GridAxis::new("loss", ["0", "0.5"])],
            workers: Some(2),
        }
    }

    #[test]
    fn expansion_order_and_substitution() {
        let cells = spec().expand().unwrap();
        assert_eq!(cells.len(), 8);
        // nodes outermost, grid point, then seeds innermost.
        let coords: Vec<(usize, &str, u64)> = cells
            .iter()
            .map(|c| (c.nodes, c.params[0].1.as_str(), c.seed))
            .collect();
        assert_eq!(
            coords,
            vec![
                (4, "0", 1),
                (4, "0", 2),
                (4, "0.5", 1),
                (4, "0.5", 2),
                (8, "0", 1),
                (8, "0", 2),
                (8, "0.5", 1),
                (8, "0.5", 2),
            ]
        );
        assert!(cells[0].script.contains("nodes 4"));
        assert!(cells[0].script.contains("crash 2"));
        assert!(cells[4].script.contains("crash 4"));
        assert!(cells[0].script.contains("drop 0\n"));
        assert!(cells[2].script.contains("drop 0.5"));
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let cells = spec().expand().unwrap();
        let mut seen: Vec<u64> = cells.iter().map(|c| c.derived_seed).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), cells.len(), "no two cells share a stream");
        // A pure function of the coordinates.
        assert_eq!(
            cells[3].derived_seed,
            derive_seed(2, 4, &[("loss".into(), "0.5".into())])
        );
    }

    #[test]
    fn degenerate_specs_rejected() {
        let mut s = spec();
        s.seeds.clear();
        assert!(s.validate().unwrap_err().msg.contains("no seeds"));

        let mut s = spec();
        s.node_counts = vec![4, 4];
        assert!(s
            .validate()
            .unwrap_err()
            .msg
            .contains("duplicate node count"));

        let mut s = spec();
        s.grid[0].values.clear();
        assert!(s.validate().unwrap_err().msg.contains("empty axis"));

        let mut s = spec();
        s.grid.push(GridAxis::new("loss", ["1"]));
        assert!(s.validate().unwrap_err().msg.contains("declared twice"));

        let mut s = spec();
        s.grid[0].name = "nodes".into();
        assert!(s.validate().unwrap_err().msg.contains("shadows"));

        let mut s = spec();
        s.workers = Some(0);
        assert!(s.validate().unwrap_err().msg.contains("size 0"));
    }

    #[test]
    fn placeholder_errors_are_spanned() {
        let mut s = spec();
        s.template = "scenario cell\nnodes {nodes}\nend 30s\nat 0s drop {typo}\n".into();
        let e = s.expand().unwrap_err();
        assert!(e.msg.contains("unknown placeholder '{typo}'"), "{e}");
        assert_eq!((e.line, e.col), (4, 12));

        s.template = "scenario cell\nnodes {nodes\n".into();
        let e = s.expand().unwrap_err();
        assert!(e.msg.contains("unclosed"), "{e}");

        s.template = "scenario cell\nnodes {nodes}\nend 30s\nat 0s crash {nodes%2}\n".into();
        let e = s.expand().unwrap_err();
        assert!(e.msg.contains("unknown operator"), "{e}");
    }

    #[test]
    fn template_must_scale_with_nodes() {
        let mut s = spec();
        s.template = "scenario cell\nnodes 4\nend 30s\nat 0s join 0..4\n".into();
        let e = s.expand().unwrap_err();
        assert!(e.msg.contains("use 'nodes {nodes}'"), "{e}");
    }

    #[test]
    fn bad_cell_scripts_carry_coordinates() {
        let mut s = spec();
        // Valid at loss=0, invalid at loss=1.5 (out of [0,1]).
        s.grid[0].values = vec!["0".into(), "1.5".into()];
        let e = s.expand().unwrap_err();
        assert!(e.msg.contains("loss=1.5"), "{e}");
        assert!(e.msg.contains("out of [0,1]"), "{e}");
    }
}
