//! Time-series telemetry sampler: a registry of engine-wide counters
//! and gauges snapshotted every N sim-milliseconds, exported as
//! schema-pinned JSONL or CSV.
//!
//! Each [`TelemetrySample`] is a point-in-time read of the whole
//! deployment — cumulative event-class counters, scheduler queue depth,
//! network drops, per-interval link stress
//! (`macedon_net::metrics::link_stress` over the sampling interval, its
//! mean in integer milli-units), trace-ring pressure, membership, and
//! the order-independent RTT/goodput aggregates from every alive
//! node's measurement ledger. Sampling reads only — it never mutates
//! simulation state, so a run with telemetry enabled produces exactly
//! the same results as one without.

use crate::json;
use crate::world::World;
use macedon_net::metrics::link_stress;
use macedon_sim::{Duration, Time};

/// One snapshot of the world's counters and gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Virtual instant of the snapshot, µs.
    pub at_us: u64,
    /// Cumulative fired events: packet motion through the network.
    pub events_net: u64,
    /// Cumulative fired events: transport connection timers.
    pub events_conn_timer: u64,
    /// Cumulative fired events: protocol timers declared by agents.
    pub events_agent_timer: u64,
    /// Cumulative fired events: failure-detector sweeps.
    pub events_fd_tick: u64,
    /// Cumulative fired events: scripted spawns/API calls/crashes.
    pub events_control: u64,
    /// Scheduler queue depth at the snapshot.
    pub pending_events: u64,
    /// Cumulative packets dropped anywhere in the network.
    pub net_drops: u64,
    /// Max packets any one physical link carried this interval.
    pub link_stress_max: u64,
    /// Mean packets per used link this interval, in 1/1000 packets
    /// (integer milli-mean; 0 when no link carried traffic).
    pub link_stress_mean_milli: u64,
    /// Physical links that carried traffic this interval.
    pub links_used: u64,
    /// Trace records currently held in the bounded ring.
    pub trace_records: u64,
    /// Cumulative trace records evicted by ring overflow.
    pub trace_dropped: u64,
    /// Nodes alive at the snapshot.
    pub alive_nodes: u64,
    /// Mean smoothed RTT across all (node, peer) estimates, µs.
    pub mean_rtt_us: u64,
    /// Mean smoothed goodput across all (node, peer) estimates, bits/s.
    pub mean_goodput_bps: u64,
}

/// The schema-pinned column order shared by [`TelemetryReport::to_csv`]
/// and [`TelemetryReport::to_jsonl`] — append-only by convention; tests
/// pin it.
pub const TELEMETRY_COLUMNS: [&str; 16] = [
    "at_us",
    "events_net",
    "events_conn_timer",
    "events_agent_timer",
    "events_fd_tick",
    "events_control",
    "pending_events",
    "net_drops",
    "link_stress_max",
    "link_stress_mean_milli",
    "links_used",
    "trace_records",
    "trace_dropped",
    "alive_nodes",
    "mean_rtt_us",
    "mean_goodput_bps",
];

impl TelemetrySample {
    fn values(&self) -> [u64; 16] {
        [
            self.at_us,
            self.events_net,
            self.events_conn_timer,
            self.events_agent_timer,
            self.events_fd_tick,
            self.events_control,
            self.pending_events,
            self.net_drops,
            self.link_stress_max,
            self.link_stress_mean_milli,
            self.links_used,
            self.trace_records,
            self.trace_dropped,
            self.alive_nodes,
            self.mean_rtt_us,
            self.mean_goodput_bps,
        ]
    }

    /// Write the sample's members, keys in [`TELEMETRY_COLUMNS`] order.
    pub fn write_json(&self, o: &mut json::Obj) {
        for (k, v) in TELEMETRY_COLUMNS.iter().zip(self.values()) {
            o.field(k, v);
        }
    }
}

/// The sampler: holds the interval, the per-interval link baseline and
/// the samples taken so far.
pub struct Telemetry {
    every: Duration,
    prev_link: Vec<(u64, u64, u64)>,
    samples: Vec<TelemetrySample>,
}

impl Telemetry {
    /// A sampler snapshotting every `every` of virtual time.
    pub fn new(every: Duration) -> Telemetry {
        assert!(every.as_micros() > 0, "sampling interval must be nonzero");
        Telemetry {
            every,
            prev_link: Vec::new(),
            samples: Vec::new(),
        }
    }

    pub fn every(&self) -> Duration {
        self.every
    }

    /// Virtual instant the next sample is due, given the last one (the
    /// run loop slices its `run_until` calls at these boundaries).
    pub fn next_due(&self, start: Time) -> Time {
        match self.samples.last() {
            Some(s) => Time::from_micros(s.at_us) + self.every,
            None => start + self.every,
        }
    }

    /// Snapshot the world now. Read-only: result-invariant.
    pub fn sample(&mut self, world: &World) {
        let counts = world.event_counts();
        let link = world.net().link_counters();
        let stress = link_stress(&link, &self.prev_link);
        self.prev_link = link;
        let m = world.measure_summary();
        self.samples.push(TelemetrySample {
            at_us: world.now().as_micros(),
            events_net: counts.net,
            events_conn_timer: counts.conn_timer,
            events_agent_timer: counts.agent_timer,
            events_fd_tick: counts.fd_tick,
            events_control: counts.control,
            pending_events: world.pending_events() as u64,
            net_drops: world.net().total_drops(),
            link_stress_max: stress.max,
            link_stress_mean_milli: (stress.sum * 1000)
                .checked_div(stress.links_used)
                .unwrap_or(0),
            links_used: stress.links_used,
            trace_records: world.trace().len() as u64,
            trace_dropped: world.trace().dropped,
            alive_nodes: world.alive_nodes().count() as u64,
            mean_rtt_us: m.mean_rtt_us(),
            mean_goodput_bps: m.mean_goodput_bps(),
        });
    }

    pub fn samples(&self) -> &[TelemetrySample] {
        &self.samples
    }

    /// Freeze into an exportable report.
    pub fn into_report(self) -> TelemetryReport {
        TelemetryReport {
            every_us: self.every.as_micros(),
            samples: self.samples,
        }
    }
}

/// A finished time series, ready for export.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Sampling interval, µs.
    pub every_us: u64,
    pub samples: Vec<TelemetrySample>,
}

impl TelemetryReport {
    /// One JSON object per line, keys in [`TELEMETRY_COLUMNS`] order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            json::document(&mut out, json::COMPACT, |o| s.write_json(o));
        }
        out
    }

    /// CSV with the [`TELEMETRY_COLUMNS`] header.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        json::csv_row(&mut out, |r| r.cells(TELEMETRY_COLUMNS));
        for s in &self.samples {
            json::csv_row(&mut out, |r| r.cells(s.values()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_and_csv_schemas_are_pinned() {
        let report = TelemetryReport {
            every_us: 1000,
            samples: vec![TelemetrySample {
                at_us: 1000,
                events_net: 2,
                pending_events: 3,
                alive_nodes: 4,
                ..Default::default()
            }],
        };
        assert_eq!(
            report.to_csv(),
            "at_us,events_net,events_conn_timer,events_agent_timer,events_fd_tick,\
             events_control,pending_events,net_drops,link_stress_max,\
             link_stress_mean_milli,links_used,trace_records,trace_dropped,\
             alive_nodes,mean_rtt_us,mean_goodput_bps\n\
             1000,2,0,0,0,0,3,0,0,0,0,0,0,4,0,0\n"
        );
        assert_eq!(
            report.to_jsonl(),
            "{\"at_us\":1000,\"events_net\":2,\"events_conn_timer\":0,\
             \"events_agent_timer\":0,\"events_fd_tick\":0,\"events_control\":0,\
             \"pending_events\":3,\"net_drops\":0,\"link_stress_max\":0,\
             \"link_stress_mean_milli\":0,\"links_used\":0,\"trace_records\":0,\
             \"trace_dropped\":0,\"alive_nodes\":4,\"mean_rtt_us\":0,\
             \"mean_goodput_bps\":0}\n"
        );
    }

    #[test]
    fn next_due_steps_by_interval() {
        let mut t = Telemetry::new(Duration::from_millis(10));
        assert_eq!(t.next_due(Time::ZERO), Time::from_millis(10));
        t.samples.push(TelemetrySample {
            at_us: 10_000,
            ..Default::default()
        });
        assert_eq!(t.next_due(Time::ZERO), Time::from_millis(20));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_interval_rejected() {
        let _ = Telemetry::new(Duration::ZERO);
    }
}
