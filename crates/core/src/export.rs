//! Chrome/Perfetto trace-event JSON export.
//!
//! Writes the causal trace as a `{"traceEvents":[...]}` document that
//! `ui.perfetto.dev` (or `chrome://tracing`) loads directly: one process
//! (pid 1, virtual time) with one lane (tid) per node. Every trace
//! record becomes an instant event at its virtual microsecond, and each
//! application-level send opens a flow arrow (`ph:"s"`) that closes at
//! the matching delivery (`ph:"f"`), so a multi-hop path reads as a
//! connected chain across node lanes.

use crate::trace::{TraceEvent, TraceRecord};
use crate::{json, json_fields};

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

/// Render trace records as a Perfetto-loadable JSON document.
pub fn perfetto_json(records: &[&TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 160 + 256);
    json::document(&mut out, json::COMPACT, |doc| {
        doc.lines("traceEvents", |ev| {
            // The process label, so lanes read as "node 3".
            ev.record(|e| {
                json_fields!(e; ph: "M", pid: 1, name: "process_name");
                e.object("args", |a| a.field("name", "virtual time (nodes)"));
            });
            for r in records {
                let (tid, ts) = (r.node.0, r.at.as_micros());
                ev.record(|e| {
                    json_fields!(e; name: event_name(&r.event), ph: "i", s: "t", pid: 1, tid: tid,
                        ts: ts);
                    e.object("args", |a| {
                        json_fields!(a; layer: r.layer, level: r.level.name(),
                            ctx: format!("{:016x}", r.span.0), details: r.event.render());
                    });
                });
                let (ph, id) = match &r.event {
                    // A send opens the flow arrow under the *minted* span id...
                    TraceEvent::Send { span, .. } => ("s", span.0),
                    // ...and the delivery dispatching under that span closes it.
                    TraceEvent::Deliver { .. } if !r.span.is_none() => ("f", r.span.0),
                    _ => continue,
                };
                ev.record(|e| {
                    json_fields!(e; name: "span", cat: "causal", ph: ph);
                    if ph == "f" {
                        e.field("bp", "e");
                    }
                    json_fields!(e; pid: 1, tid: tid, ts: ts, id: id);
                });
            }
        });
    });
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
        let json = perfetto_json(&[&a, &b]);
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
        let json = perfetto_json(&[&a]);
        assert!(json.contains("say \\\"hi\\\"\\npath\\\\x"), "{json}");
    }

    #[test]
    fn custom_details_use_the_shared_escaper() {
        // The bytes `json_string` is pinned to in the scenario reports.
        let msg = "a\"b\\c\nd\u{1}".to_string();
        let a = rec(1, 0, SpanId::NONE, TraceEvent::Custom { msg });
        let json = perfetto_json(&[&a]);
        assert!(json.contains(r#""details":"a\"b\\c\nd\u0001"}"#), "{json}");
    }

    /// Pins every byte of the document: metadata, instant and flow
    /// records, escaping, separators and the closing newline.
    #[test]
    fn perfetto_document_is_pinned() {
        let span = SpanId::mint(NodeId(1), 1);
        let send = TraceEvent::Send {
            span,
            dst: NodeId(2),
            channel: crate::ChannelId(0),
            bytes: 8,
        };
        let deliver = TraceEvent::Deliver {
            from: NodeId(1),
            bytes: 8,
        };
        let custom = TraceEvent::Custom {
            msg: "say \"hi\"\u{1}".to_string(),
        };
        let (a, b, c) = (
            rec(100, 1, SpanId::NONE, send),
            rec(250, 2, span, deliver),
            rec(300, 2, span, custom),
        );
        let got = perfetto_json(&[&a, &b, &c]);
        let want = r#"{"traceEvents":[
{"ph":"M","pid":1,"name":"process_name","args":{"name":"virtual time (nodes)"}},
{"name":"send","ph":"i","s":"t","pid":1,"tid":1,"ts":100,"args":{"layer":0,"level":"Med","ctx":"0000000000000000","details":"send span=0000000100000001 dst=n2 ch=0 b=8"}},
{"name":"span","cat":"causal","ph":"s","pid":1,"tid":1,"ts":100,"id":4294967297},
{"name":"deliver","ph":"i","s":"t","pid":1,"tid":2,"ts":250,"args":{"layer":0,"level":"Med","ctx":"0000000100000001","details":"deliver from=n1 b=8"}},
{"name":"span","cat":"causal","ph":"f","bp":"e","pid":1,"tid":2,"ts":250,"id":4294967297},
{"name":"custom","ph":"i","s":"t","pid":1,"tid":2,"ts":300,"args":{"layer":0,"level":"Med","ctx":"0000000100000001","details":"say \"hi\"\u0001"}}
]}
"#;
        assert_eq!(got, want);
    }
}
