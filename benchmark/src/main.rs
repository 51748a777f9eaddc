//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! The parent process launches one child process per experiment
//! iteration (round-robin across workloads, one at a time), takes the
//! timings as best-of-K over the untraced children, checks that every
//! child of a workload produced the same simulated statistics, and
//! prints the metrics `BENCHMARK.json` lists.

mod alloc;
mod child;
mod drills;
mod procstat;
mod tables;
mod trace;
mod workloads;

use child::Mode;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use tables::{DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS};
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// Measure the end-to-end metrics (off under `--trace 1`).
    end_to_end: bool,
    /// Measure the per-layer metrics (off under `--trace 0` and `--aa`).
    per_layer: bool,
    aa: bool,
    smoke: bool,
    child: Option<Mode>,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::NAN,
        end_to_end: true,
        per_layer: true,
        aa: false,
        smoke: false,
        child: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => match value()?.as_str() {
                "0" => o.per_layer = false,
                "1" => o.end_to_end = false,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--child" => {
                let v = value()?;
                o.child = Some(Mode::parse(&v).ok_or(format!("unknown child mode {v}"))?);
            }
            "--aa" => (o.aa, o.per_layer) = (true, false),
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.seconds.is_nan() {
        // A smoke pass runs every workload once.
        o.seconds = if o.smoke { 0.0 } else { RUN_SECONDS };
    }
    Ok(o)
}

/// What one child printed.
struct Child {
    values: BTreeMap<String, f64>,
    digest: String,
}

impl Child {
    fn get(&self, key: &str) -> Result<f64, String> {
        self.values
            .get(key)
            .copied()
            .ok_or(format!("child did not report {key}"))
    }
}

struct Launcher {
    exe: std::path::PathBuf,
    seed: u64,
    smoke: bool,
}

impl Launcher {
    /// Run one child to completion (never more than one at a time).
    fn run(&self, workload: &str, mode: Mode) -> Result<Child, String> {
        let mut cmd = Command::new(&self.exe);
        cmd.args(["--child", mode.name(), "--workload", workload])
            .args(["--seed", &self.seed.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if self.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "{workload} {} child failed: {}",
                mode.name(),
                out.status
            ));
        }
        let mut child = Child {
            values: BTreeMap::new(),
            digest: String::new(),
        };
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            if key == "digest" {
                child.digest = value.to_string();
            } else {
                let v: f64 = value
                    .parse()
                    .map_err(|e| format!("child line {line:?}: {e}"))?;
                child.values.insert(key.to_string(), v);
            }
        }
        Ok(child)
    }
}

/// Every child of one workload in one measurement set.
struct Measured {
    workload: Workload,
    setup: Option<Child>,
    timed: Vec<Child>,
    traced: Option<Child>,
}

impl Measured {
    fn timed_wall(&self) -> f64 {
        self.timed.iter().filter_map(|c| c.get("wall_s").ok()).sum()
    }

    fn children(&self) -> impl Iterator<Item = &Child> {
        self.setup
            .iter()
            .chain(&self.timed)
            .chain(self.traced.iter())
    }

    /// Minimum over the untraced children.
    fn best(&self, key: &str) -> Result<f64, String> {
        let mut best = f64::INFINITY;
        for c in &self.timed {
            best = best.min(c.get(key)?);
        }
        Ok(best)
    }

    fn end_to_end(&self) -> Result<Vec<f64>, String> {
        let setup = self.setup.as_ref().ok_or("no set-up child ran")?;
        let mut rss = Vec::new();
        for c in &self.timed {
            rss.push(c.get("peak_rss_mb")?);
        }
        let rss = child::median(&mut rss);
        END_TO_END
            .iter()
            .map(|&(name, _, _)| match name {
                "wall_s" | "cpu_s" => self.best(name),
                "peak_rss_mb" => Ok(rss),
                _ => setup.get(name),
            })
            .collect()
    }

    fn per_layer(&self) -> Result<Vec<f64>, String> {
        let traced = self.traced.as_ref().ok_or("no traced child ran")?;
        let wall = self.best("wall_s")?;
        let events = traced.get("sim.events")?;
        PER_LAYER
            .iter()
            .map(|&(name, _)| match name {
                "world.events_per_s" => Ok(events / wall),
                "world.us_per_event" => Ok(wall * 1e6 / events),
                "trace.overhead_ratio" => Ok(traced.get("scenario.run_s")? / wall),
                _ => traced.get(name),
            })
            .collect()
    }

    /// `(attempted, failed)` correctness checks: each child's own
    /// `check.*` lines, plus one per child for agreeing with the
    /// workload's first digest (determinism, and observers changing
    /// nothing).
    fn checks(&self) -> (u64, u64) {
        let mut attempted = 0;
        let mut failed = 0;
        let first = self.children().next().map(|c| c.digest.as_str());
        for c in self.children() {
            let own = c.values.iter().filter(|(k, _)| k.starts_with("check."));
            for (_, &bad) in own {
                attempted += 1;
                failed += (bad != 0.0) as u64;
            }
            attempted += 1;
            failed += (Some(c.digest.as_str()) != first) as u64;
        }
        (attempted, failed)
    }
}

/// Launch the children of every slot, round-robin, so each slot's K
/// iterations span the whole measurement and drift of the host hits
/// all slots alike.
fn measure(
    launcher: &Launcher,
    slots: Vec<Workload>,
    o: &Options,
) -> Result<Vec<Measured>, String> {
    let min_timed = if o.smoke { 1 } else { 3 };
    let mut sets: Vec<Measured> = slots
        .into_iter()
        .map(|workload| Measured {
            workload,
            setup: None,
            timed: Vec::new(),
            traced: None,
        })
        .collect();
    if o.end_to_end {
        for m in &mut sets {
            m.setup = Some(launcher.run(m.workload.name, Mode::Setup)?);
        }
        loop {
            let mut launched = false;
            for m in &mut sets {
                if m.timed.len() < min_timed || m.timed_wall() < o.seconds {
                    m.timed.push(launcher.run(m.workload.name, Mode::Timed)?);
                    launched = true;
                }
            }
            if !launched {
                break;
            }
        }
    }
    if o.per_layer {
        for m in &mut sets {
            if m.timed.is_empty() {
                // The traced run is read against an untraced one.
                m.timed.push(launcher.run(m.workload.name, Mode::Timed)?);
            }
            m.traced = Some(launcher.run(m.workload.name, Mode::Traced)?);
        }
    }
    Ok(sets)
}

/// Print one metric readably and return its field of the result line.
fn metric(workload: &str, name: &str, unit: &str, v: f64) -> Result<String, String> {
    if !v.is_finite() {
        return Err(format!("{workload}/{name} is not a number: {v}"));
    }
    println!("{workload}/{name} = {v} {unit}");
    Ok(format!(
        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
    ))
}

/// Print one measured workload: a readable list, then the result line.
fn report(m: &Measured, o: &Options) -> Result<(), String> {
    let name = m.workload.name;
    let (attempted, failed) = m.checks();
    let first = m.children().next().ok_or("no child ran")?;
    let walls: Vec<String> = m
        .timed
        .iter()
        .filter_map(|c| c.get("wall_s").ok())
        .map(|w| format!("{w:.3}"))
        .collect();
    println!(
        "# {name}: digest {}, {} events, {} deliveries, {attempted} checks, {failed} failed, \
         untraced wall_s: {}",
        first.digest,
        first.get("events")?,
        first.get("delivered")?,
        walls.join(" ")
    );
    let mut fields = Vec::new();
    if o.end_to_end {
        for (&(metric_name, unit, _), v) in END_TO_END.iter().zip(m.end_to_end()?) {
            fields.push(metric(name, metric_name, unit, v)?);
        }
    }
    if o.per_layer {
        for (&(metric_name, unit), v) in PER_LAYER.iter().zip(m.per_layer()?) {
            fields.push(metric(name, metric_name, unit, v)?);
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    Ok(())
}

/// Two interleaved sets of the same build: the gap between them is
/// what the bounds must absorb.
fn report_aa(sets: &[Measured]) -> Result<bool, String> {
    let (a, b) = sets.split_at(sets.len() / 2);
    let mut ok = true;
    println!("| workload | metric | A | B | gap | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (a, b) in a.iter().zip(b) {
        let (va, vb) = (a.end_to_end()?, b.end_to_end()?);
        for ((&(metric, _, bound), x), y) in END_TO_END.iter().zip(va).zip(vb) {
            let gap = (x - y).abs() / x.min(y);
            // Counts repeat exactly, except allocation under threads.
            let exact = metric == "events_per_delivery"
                || (metric == "alloc_mb" && a.workload.is_sequential());
            let verdict = if gap > bound || (exact && x != y) {
                ok = false;
                "FAIL"
            } else if gap > bound / 2.0 {
                "over half"
            } else {
                "ok"
            };
            println!(
                "| {} | {metric} | {x:.6} | {y:.6} | {:.2} % | {:.0} % | {verdict} |",
                a.workload.name,
                gap * 100.0,
                bound * 100.0
            );
        }
        let first = |m: &Measured| m.children().next().map(|c| c.digest.clone());
        if a.checks().1 + b.checks().1 > 0 || first(a) != first(b) {
            println!("{}: a check failed or digests differ", a.workload.name);
            ok = false;
        }
    }
    Ok(ok)
}

fn run(main_entry: Instant) -> Result<bool, String> {
    let o = parse_args()?;
    let mut workloads = workloads::all(o.smoke);
    if let Some(name) = &o.workload {
        workloads.retain(|w| w.name == name);
        if workloads.is_empty() {
            return Err(format!("unknown workload {name}"));
        }
    }
    if let Some(mode) = o.child {
        let [workload] = workloads.as_slice() else {
            return Err("--child needs --workload".into());
        };
        child::run(workload, o.seed, mode, o.smoke, main_entry);
        return Ok(true);
    }
    let launcher = Launcher {
        exe: std::env::current_exe().map_err(|e| format!("own path: {e}"))?,
        seed: o.seed,
        smoke: o.smoke,
    };
    println!(
        "# seed {}, {} s per workload, {} threads at most",
        o.seed,
        o.seconds,
        workloads::workers()
    );
    if o.aa {
        let mut slots = workloads.clone();
        slots.extend(workloads);
        return report_aa(&measure(&launcher, slots, &o)?);
    }
    // A failed check is reported in the result line (`correct`), not
    // through the exit code.
    for m in measure(&launcher, workloads, &o)? {
        report(&m, &o)?;
    }
    Ok(true)
}

fn main() -> ExitCode {
    let main_entry = Instant::now();
    match run(main_entry) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("macedon-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
