//! The scenario model: timed perturbation events and their validation.
//!
//! A [`Scenario`] is a declarative description of one experiment run —
//! who joins when (including staggered flash crowds), who crashes and
//! rejoins, which partitions open and heal, which links degrade, and
//! what traffic streams. It is *data*: the
//! [`crate::runner::ScenarioRunner`] compiles it into scheduled world
//! actions. Scripts parse into this model ([`crate::script::parse`])
//! and funnel through [`Scenario::validate`], so a malformed experiment
//! is a spanned diagnostic, never a mid-run panic.

use macedon_sim::{Duration, Time};
use std::fmt;

/// Source position of an event (line/column in a script; `0:0` for a
/// scenario constructed by hand).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

/// A scenario that cannot run, with the script position that caused it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScenarioError {
    pub line: u32,
    pub col: u32,
    pub msg: String,
}

impl ScenarioError {
    pub fn at(span: Span, msg: impl Into<String>) -> ScenarioError {
        ScenarioError {
            line: span.line,
            col: span.col,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario:{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ScenarioError {}

/// Workload shape of a scripted stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamShape {
    /// Multicast to the scenario's group (joins are issued for every
    /// node shortly after it spawns).
    Multicast,
    /// Route each packet toward a uniformly random key.
    RandomRoute,
}

/// One scenario event.
#[derive(Clone, PartialEq, Debug)]
pub enum Event {
    /// Spawn these nodes, staggered evenly across `over` (zero = all at
    /// the event instant — a flash crowd).
    Join { nodes: Vec<usize>, over: Duration },
    /// Fail-stop these nodes.
    Crash { nodes: Vec<usize> },
    /// Respawn previously crashed nodes with fresh stacks, staggered
    /// across `over`.
    Rejoin { nodes: Vec<usize>, over: Duration },
    /// Open a network partition: `side` vs everyone else.
    Partition { name: String, side: Vec<usize> },
    /// Heal the named partition.
    Heal { name: String },
    /// Degrade every access link of these nodes.
    Degrade {
        nodes: Vec<usize>,
        bandwidth_bps: Option<u64>,
        delay: Option<Duration>,
    },
    /// Restore previously degraded nodes to their original link
    /// properties.
    Restore { nodes: Vec<usize> },
    /// Set the network-wide per-hop random-loss probability.
    Drop { probability: f64 },
    /// Node starts streaming `packet_bytes`-sized packets at `rate_bps`
    /// for `duration`.
    Stream {
        node: usize,
        rate_bps: u64,
        packet_bytes: usize,
        duration: Duration,
        shape: StreamShape,
    },
    /// Checkpoint: evaluate the named convergence oracle against an
    /// engine snapshot. `converged` asserts no violations; `!converged`
    /// asserts at least one (the perturbation-instant check of a
    /// fail-then-recover experiment).
    Assert { oracle: String, converged: bool },
}

impl Event {
    /// Short human label (metrics report rows).
    pub fn label(&self) -> String {
        match self {
            Event::Join { nodes, .. } => format!("join x{}", nodes.len()),
            Event::Crash { nodes } => format!("crash {nodes:?}"),
            Event::Rejoin { nodes, .. } => format!("rejoin {nodes:?}"),
            Event::Partition { name, side } => format!("partition {name} (x{})", side.len()),
            Event::Heal { name } => format!("heal {name}"),
            Event::Degrade {
                nodes,
                bandwidth_bps,
                delay,
            } => {
                let mut s = format!("degrade {nodes:?}");
                if let Some(bw) = bandwidth_bps {
                    s.push_str(&format!(" bw={bw}bps"));
                }
                if let Some(d) = delay {
                    s.push_str(&format!(" delay={}ms", d.as_millis()));
                }
                s
            }
            Event::Restore { nodes } => format!("restore {nodes:?}"),
            Event::Drop { probability } => format!("drop p={probability}"),
            Event::Stream { node, rate_bps, .. } => format!("stream n{node} @{rate_bps}bps"),
            Event::Assert { oracle, converged } => format!(
                "assert {} {oracle}",
                if *converged { "converged" } else { "diverged" }
            ),
        }
    }

    /// Is this a perturbation the metrics report tracks convergence
    /// for? (Joins and streams are workload, asserts are observations —
    /// neither perturbs the overlay.)
    pub fn is_perturbation(&self) -> bool {
        !matches!(
            self,
            Event::Join { .. } | Event::Stream { .. } | Event::Assert { .. }
        )
    }
}

/// An event pinned to a virtual instant, carrying its script position.
#[derive(Clone, Debug)]
pub struct TimedEvent {
    pub at: Time,
    pub event: Event,
    pub span: Span,
}

/// A complete validated experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub name: String,
    /// Number of overlay nodes (indices `0..nodes`; index 0 is the
    /// bootstrap/root by convention).
    pub nodes: usize,
    /// Run end; the world executes until exactly this instant.
    pub end: Time,
    /// Events sorted by time (stable: script order breaks ties).
    pub events: Vec<TimedEvent>,
}

/// Per-node lifecycle tracked during validation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Never,
    Alive,
    Crashed,
}

impl Scenario {
    /// Semantic validation: every event references known nodes, the
    /// join/crash/rejoin lifecycle is consistent, partitions never
    /// overlap, and every parameter is in range. The script parser and
    /// the runner call this; errors carry the event's span.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let top = Span::default();
        if self.nodes == 0 {
            return Err(ScenarioError::at(top, "scenario declares zero nodes"));
        }
        if self.end == Time::ZERO {
            return Err(ScenarioError::at(top, "scenario end must be after t=0"));
        }
        // The lifecycle/partition checks below (and the runner's
        // convergence accounting) walk events in time order; a
        // hand-constructed Scenario with an unsorted vec would pass
        // them vacuously, so ordering is a hard validation error.
        if let Some(w) = self.events.windows(2).find(|w| w[0].at > w[1].at) {
            return Err(ScenarioError::at(
                w[1].span,
                format!(
                    "events are not sorted by time ({}s after {}s); \
                     sort them, as the script parser does",
                    w[1].at.as_secs_f64(),
                    w[0].at.as_secs_f64()
                ),
            ));
        }
        let mut phase = vec![Phase::Never; self.nodes];
        let mut open_partition: Option<&str> = None;
        let mut streams: Vec<(usize, Time, Time)> = Vec::new();
        for te in &self.events {
            let span = te.span;
            let err = |msg: String| Err(ScenarioError::at(span, msg));
            if te.at > self.end {
                return err(format!(
                    "event at {}s is after the scenario end ({}s)",
                    te.at.as_secs_f64(),
                    self.end.as_secs_f64()
                ));
            }
            let check_nodes = |ns: &[usize]| -> Result<(), ScenarioError> {
                if ns.is_empty() {
                    return Err(ScenarioError::at(span, "empty node set"));
                }
                for &n in ns {
                    if n >= self.nodes {
                        return Err(ScenarioError::at(
                            span,
                            format!("unknown node {n} (scenario declares {})", self.nodes),
                        ));
                    }
                }
                Ok(())
            };
            // A staggered join/rejoin or a stream must finish inside
            // the run — the runner would otherwise simulate past the
            // declared end and skew every windowed metric.
            let check_extent = |over: Duration, what: &str| -> Result<(), ScenarioError> {
                if te.at + over > self.end {
                    return Err(ScenarioError::at(
                        span,
                        format!(
                            "{what} extends to {}s, past the scenario end ({}s)",
                            (te.at + over).as_secs_f64(),
                            self.end.as_secs_f64()
                        ),
                    ));
                }
                Ok(())
            };
            match &te.event {
                Event::Join { nodes, over } => {
                    check_nodes(nodes)?;
                    check_extent(*over, "staggered join")?;
                    for &n in nodes {
                        match phase[n] {
                            Phase::Never => phase[n] = Phase::Alive,
                            Phase::Alive => return err(format!("node {n} joins twice")),
                            Phase::Crashed => {
                                return err(format!("node {n} is crashed; use rejoin"))
                            }
                        }
                    }
                }
                Event::Crash { nodes } => {
                    check_nodes(nodes)?;
                    for &n in nodes {
                        if phase[n] != Phase::Alive {
                            return err(format!("node {n} crashes but is not alive"));
                        }
                        if streams
                            .iter()
                            .any(|&(s, from, to)| s == n && te.at >= from && te.at <= to)
                        {
                            return err(format!("node {n} crashes during its own stream"));
                        }
                        phase[n] = Phase::Crashed;
                    }
                }
                Event::Rejoin { nodes, over } => {
                    check_nodes(nodes)?;
                    check_extent(*over, "staggered rejoin")?;
                    for &n in nodes {
                        if phase[n] != Phase::Crashed {
                            return err(format!("node {n} rejoins but never crashed"));
                        }
                        phase[n] = Phase::Alive;
                    }
                }
                Event::Partition { name, side } => {
                    check_nodes(side)?;
                    // Count *distinct* side members — a duplicated
                    // index must not masquerade as a bigger side.
                    let mut distinct = side.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    if distinct.len() >= self.nodes {
                        return err(format!("partition '{name}' isolates every node"));
                    }
                    if let Some(open) = open_partition {
                        return err(format!(
                            "partition '{name}' overlaps still-open partition '{open}'"
                        ));
                    }
                    open_partition = Some(name);
                }
                Event::Heal { name } => match open_partition {
                    Some(open) if open == name => open_partition = None,
                    Some(open) => {
                        return err(format!(
                            "heal '{name}' does not match open partition '{open}'"
                        ))
                    }
                    None => return err(format!("heal '{name}' with no open partition")),
                },
                Event::Degrade {
                    nodes,
                    bandwidth_bps,
                    delay,
                } => {
                    check_nodes(nodes)?;
                    if bandwidth_bps.is_none() && delay.is_none() {
                        return err("degrade changes neither bandwidth nor delay".into());
                    }
                    if bandwidth_bps == &Some(0) {
                        return err("degrade to zero bandwidth (crash the node instead)".into());
                    }
                }
                Event::Restore { nodes } => check_nodes(nodes)?,
                Event::Drop { probability } => {
                    if !(0.0..=1.0).contains(probability) {
                        return err(format!("drop probability {probability} out of [0,1]"));
                    }
                }
                Event::Stream {
                    node,
                    rate_bps,
                    packet_bytes,
                    duration,
                    ..
                } => {
                    check_nodes(std::slice::from_ref(node))?;
                    // The runner installs one StreamerApp per node at
                    // spawn time; a second stream would silently
                    // shadow the first.
                    if streams.iter().any(|&(s, _, _)| s == *node) {
                        return err(format!("node {node} streams twice (one stream per node)"));
                    }
                    if phase[*node] != Phase::Alive {
                        return err(format!("node {node} streams before joining"));
                    }
                    if *rate_bps == 0 {
                        return err("stream rate must be positive".into());
                    }
                    if *packet_bytes < 8 {
                        return err("stream packets need >= 8 bytes (sequence stamp)".into());
                    }
                    if *duration == Duration::ZERO {
                        return err("stream duration must be positive".into());
                    }
                    check_extent(*duration, "stream")?;
                    streams.push((*node, te.at, te.at + *duration));
                }
                Event::Assert { oracle, .. } => {
                    if oracle.is_empty() {
                        return err("assert names no oracle".into());
                    }
                }
            }
        }
        Ok(())
    }

    /// Node indices with a `Stream` event, with the stream parameters.
    pub fn streams(&self) -> Vec<(usize, Time, &Event)> {
        self.events
            .iter()
            .filter_map(|te| match &te.event {
                Event::Stream { node, .. } => Some((*node, te.at, &te.event)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(secs: u64) -> Time {
        Time::from_secs(secs)
    }

    /// The validation message `src` is rejected with.
    fn rejects(src: &str) -> String {
        crate::script::parse(src).unwrap_err().msg
    }

    #[test]
    fn lifecycle_violations_diagnosed() {
        let e = rejects("nodes 4\nend 10s\nat 1s crash 0\n");
        assert!(e.contains("not alive"), "{e}");
        let e = rejects("nodes 4\nend 10s\nat 0s join 0..4\nat 2s join 1\n");
        assert!(e.contains("joins twice"), "{e}");
        let e = rejects("nodes 4\nend 10s\nat 0s join 0..4\nat 2s rejoin 1\n");
        assert!(e.contains("never crashed"), "{e}");
    }

    #[test]
    fn unknown_node_diagnosed() {
        let e = rejects("nodes 4\nend 10s\nat 0s join 7\n");
        assert!(e.contains("unknown node 7"), "{e}");
    }

    #[test]
    fn overlapping_partitions_diagnosed() {
        let e = rejects(
            "nodes 6\nend 20s\nat 0s join 0..6\nat 5s partition a 0 1\nat 8s partition b 2\n",
        );
        assert!(e.contains("overlaps"), "{e}");
        let e = rejects("nodes 6\nend 20s\nat 0s join 0..6\nat 5s heal ghost\n");
        assert!(e.contains("no open partition"), "{e}");
    }

    #[test]
    fn event_after_end_diagnosed() {
        let e = rejects("nodes 2\nend 10s\nat 11s join 0\n");
        assert!(e.contains("after the scenario end"), "{e}");
    }

    #[test]
    fn unsorted_events_rejected() {
        // Hand-constructed scenarios bypass the builder's sort; the
        // validator must catch them (the lifecycle and partition
        // checks assume time order).
        let s = Scenario {
            name: "unsorted".into(),
            nodes: 4,
            end: s(60),
            events: vec![
                TimedEvent {
                    at: s(10),
                    event: Event::Join {
                        nodes: vec![0, 1, 2, 3],
                        over: Duration::ZERO,
                    },
                    span: Span::default(),
                },
                TimedEvent {
                    at: s(5),
                    event: Event::Crash { nodes: vec![1] },
                    span: Span::default(),
                },
            ],
        };
        let e = s.validate().unwrap_err();
        assert!(e.msg.contains("not sorted"), "{e}");
    }

    #[test]
    fn second_stream_on_one_node_rejected() {
        let e = rejects(
            "nodes 2\nend 60s\nat 0s join 0..2\n\
             at 5s stream 0 rate 100kbps size 1000 for 5s multicast\n\
             at 20s stream 0 rate 100kbps size 1000 for 5s multicast\n",
        );
        assert!(e.contains("streams twice"), "{e}");
    }

    #[test]
    fn stream_requires_live_node() {
        let e =
            rejects("nodes 2\nend 30s\nat 5s stream 0 rate 100kbps size 1000 for 5s multicast\n");
        assert!(e.contains("before joining"), "{e}");
    }
}
