//! Chrome/Perfetto trace-event JSON export.
//!
//! Writes the merged causal trace as a `{"traceEvents":[...]}` document
//! that `ui.perfetto.dev` (or `chrome://tracing`) loads directly:
//!
//! * **Virtual-time lanes** — pid 1, one tid per node; every trace
//!   record becomes an instant event at its virtual microsecond, and
//!   each application-level send opens a flow arrow (`ph:"s"`) that
//!   closes at the matching delivery (`ph:"f"`), so a multi-hop path
//!   reads as a connected chain across node lanes.
//! * **Wall-clock lanes** — pid 2, one tid per shard worker; each
//!   windowed-execution profile sample becomes a duration event placed
//!   at the window's virtual start whose *duration* is the measured
//!   wall nanoseconds spent draining it. Virtual instants where the
//!   engine burned disproportionate wall time (e.g. the 100k-node
//!   events/sec dip) stand out as long slices.

use crate::trace::{TraceEvent, TraceRecord};
use crate::world::ShardProfile;
use std::fmt::Write;

/// Quote and escape a string for JSON output (control characters,
/// quotes and backslashes; everything else passes through as UTF-8).
/// The one escaper behind every JSON document the workspace writes.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn event_name(e: &TraceEvent) -> &'static str {
    match e {
        TraceEvent::Dispatch { .. } => "dispatch",
        TraceEvent::FsmTransition { .. } => "fsm",
        TraceEvent::Send { .. } => "send",
        TraceEvent::Forward { .. } => "forward",
        TraceEvent::Quash => "quash",
        TraceEvent::Deliver { .. } => "deliver",
        TraceEvent::Drop { .. } => "drop",
        TraceEvent::TimerFire { .. } => "timer",
        TraceEvent::ApiCall { .. } => "api",
        TraceEvent::Custom { .. } => "custom",
    }
}

/// Render the merged trace (plus optional worker profiles) as a
/// Perfetto-loadable JSON document.
pub fn perfetto_json(records: &[&TraceRecord], profile: &[ShardProfile]) -> String {
    let mut ev: Vec<String> = Vec::with_capacity(records.len() + 16);
    // Process/thread labels so lanes read as "node 3" / "shard 1".
    ev.push(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
         \"args\":{\"name\":\"virtual time (nodes)\"}}"
            .to_string(),
    );
    if profile.iter().any(|p| !p.samples.is_empty()) {
        ev.push(
            "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\
             \"args\":{\"name\":\"wall clock (shard workers)\"}}"
                .to_string(),
        );
    }
    for r in records {
        let name = event_name(&r.event);
        ev.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
             \"tid\":{tid},\"ts\":{ts},\"args\":{{\"layer\":{layer},\
             \"level\":\"{level:?}\",\"ctx\":\"{ctx:016x}\",\
             \"details\":{details}}}}}",
            tid = r.node.0,
            ts = r.at.as_micros(),
            layer = r.layer,
            level = r.level,
            ctx = r.span.0,
            details = json_string(&r.event.render()),
        ));
        match &r.event {
            // A send opens the flow arrow under the *minted* span id...
            TraceEvent::Send { span, .. } => {
                ev.push(format!(
                    "{{\"name\":\"span\",\"cat\":\"causal\",\"ph\":\"s\",\
                     \"pid\":1,\"tid\":{tid},\"ts\":{ts},\"id\":{id}}}",
                    tid = r.node.0,
                    ts = r.at.as_micros(),
                    id = span.0,
                ));
            }
            // ...and the delivery dispatching under that span closes it.
            TraceEvent::Deliver { .. } if !r.span.is_none() => {
                ev.push(format!(
                    "{{\"name\":\"span\",\"cat\":\"causal\",\"ph\":\"f\",\
                     \"bp\":\"e\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\
                     \"id\":{id}}}",
                    tid = r.node.0,
                    ts = r.at.as_micros(),
                    id = r.span.0,
                ));
            }
            _ => {}
        }
    }
    for (sid, p) in profile.iter().enumerate() {
        for &(window_start_us, drain_ns) in &p.samples {
            ev.push(format!(
                "{{\"name\":\"window drain\",\"ph\":\"X\",\"pid\":2,\
                 \"tid\":{sid},\"ts\":{window_start_us},\"dur\":{dur},\
                 \"args\":{{\"wall_ns\":{drain_ns}}}}}",
                // Duration axis is wall µs plotted on the virtual
                // timeline: long slices mark expensive windows.
                dur = (drain_ns / 1000).max(1),
            ));
        }
    }
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in ev.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanId, TraceLevel};
    use macedon_net::NodeId;
    use macedon_sim::Time;

    fn rec(at_us: u64, node: u32, span: SpanId, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: Time::from_micros(at_us),
            node: NodeId(node),
            layer: 0,
            level: TraceLevel::Med,
            span,
            seq: 0,
            event,
        }
    }

    #[test]
    fn send_and_deliver_emit_flow_pair() {
        let span = SpanId::mint(NodeId(1), 1);
        let a = rec(
            100,
            1,
            SpanId::NONE,
            TraceEvent::Send {
                span,
                dst: NodeId(2),
                channel: crate::ChannelId(0),
                bytes: 8,
            },
        );
        let b = rec(
            250,
            2,
            span,
            TraceEvent::Deliver {
                from: NodeId(1),
                bytes: 8,
            },
        );
        let json = perfetto_json(&[&a, &b], &[]);
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        assert!(json.contains(&format!("\"id\":{}", span.0)), "{json}");
        // Loadable shape: a single traceEvents array.
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn custom_messages_are_escaped() {
        let a = rec(
            1,
            0,
            SpanId::NONE,
            TraceEvent::Custom {
                msg: "say \"hi\"\npath\\x".to_string(),
            },
        );
        let json = perfetto_json(&[&a], &[]);
        assert!(json.contains("say \\\"hi\\\"\\npath\\\\x"), "{json}");
    }

    #[test]
    fn custom_details_use_the_shared_escaper() {
        // The bytes `json_string` is pinned to in the scenario reports.
        let msg = "a\"b\\c\nd\u{1}".to_string();
        let a = rec(1, 0, SpanId::NONE, TraceEvent::Custom { msg });
        let json = perfetto_json(&[&a], &[]);
        assert!(json.contains(r#""details":"a\"b\\c\nd\u0001"}"#), "{json}");
    }

    #[test]
    fn profile_samples_become_wall_lanes() {
        let p = ShardProfile {
            windows: 1,
            drain_ns: 5_000,
            samples: vec![(400, 5_000)],
            ..Default::default()
        };
        let json = perfetto_json(&[], &[p]);
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":400"), "{json}");
        assert!(json.contains("\"dur\":5"), "{json}");
        assert!(json.contains("wall clock (shard workers)"), "{json}");
    }
}
