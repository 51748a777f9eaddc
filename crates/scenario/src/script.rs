//! The scenario script format: a small line-oriented language for
//! describing experiments declaratively.
//!
//! ```text
//! # 50-node churn with a partition and a degraded link
//! scenario churn-demo
//! nodes 50
//! end 120s
//!
//! at 0s    join 0..10
//! at 5s    join 10..50 over 10s       # staggered flash crowd
//! at 16s   create 0                   # the group's CreateGroup
//! at 17s   subscribe 1..50 over 2s    # Joins, staggered like join
//! at 20s   stream 0 rate 200kbps size 1000 for 80s multicast
//! at 30s   crash 3 5 7
//! at 45s   rejoin 3
//! at 50s   partition wan 0..25
//! at 60s   heal wan
//! at 70s   degrade 2 bw 64kbps delay 50ms
//! at 85s   restore 2
//! at 90s   drop 0.01
//! ```
//!
//! * **times** take a unit: `us`, `ms`, `s`, `m` (minutes).
//! * **rates** take a unit: `bps`, `kbps`, `mbps`.
//! * **node sets** are space-separated indices and `a..b` ranges.
//! * `#` starts a comment; blank lines are ignored.
//! * **group membership**: `create <node>` and `subscribe <nodes>
//!   [over <d>]` issue the scenario group's `CreateGroup` and `Join`
//!   calls. A script that names membership gets exactly the calls it
//!   names; one that names none, but streams multicast, has every node
//!   join the group 1 s after it spawns.
//!
//! Errors are spanned (`line:col`) and never panic — see the property
//! tests. Parsing produces the [`Scenario`] model, which then runs
//! through [`Scenario::validate`] for the semantic checks (unknown
//! nodes, lifecycle violations, overlapping partitions).

use crate::model::{Event, Scenario, ScenarioError, Span, StreamShape, TimedEvent};
use macedon_sim::{Duration, Time};

/// One whitespace token with its column.
struct Tok<'a> {
    text: &'a str,
    col: u32,
}

fn tokenize(line: &str) -> Vec<Tok<'_>> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in line.char_indices() {
        if c == '#' {
            if let Some(s) = start.take() {
                out.push(Tok {
                    text: &line[s..i],
                    col: s as u32 + 1,
                });
            }
            return out;
        }
        if c.is_whitespace() {
            if let Some(s) = start.take() {
                out.push(Tok {
                    text: &line[s..i],
                    col: s as u32 + 1,
                });
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        out.push(Tok {
            text: &line[s..],
            col: s as u32 + 1,
        });
    }
    out
}

struct Cursor<'a> {
    toks: Vec<Tok<'a>>,
    i: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn span(&self) -> Span {
        let col = self
            .toks
            .get(self.i.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.col)
            .unwrap_or(1);
        Span {
            line: self.line,
            col,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ScenarioError {
        ScenarioError::at(self.span(), msg)
    }

    fn next(&mut self) -> Option<&Tok<'a>> {
        let t = self.toks.get(self.i);
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn peek(&self) -> Option<&str> {
        self.toks.get(self.i).map(|t| t.text)
    }

    fn expect(&mut self, what: &str) -> Result<&Tok<'a>, ScenarioError> {
        let span = self.span();
        match self.toks.get(self.i) {
            Some(_) => {
                let t = &self.toks[self.i];
                self.i += 1;
                Ok(t)
            }
            None => Err(ScenarioError::at(span, format!("expected {what}"))),
        }
    }

    fn done(&self) -> bool {
        self.i >= self.toks.len()
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.peek() == Some(word) {
            self.i += 1;
            true
        } else {
            false
        }
    }
}

/// `12s`, `500ms`, `2m`, `250us` → Duration; negative values are the
/// "event before t=0" class and carry their own message.
fn parse_duration(c: &Cursor, tok: &Tok) -> Result<Duration, ScenarioError> {
    let s = tok.text;
    let at = |msg: String| {
        ScenarioError::at(
            Span {
                line: c.line,
                col: tok.col,
            },
            msg,
        )
    };
    if let Some(stripped) = s.strip_prefix('-') {
        let _ = stripped;
        return Err(at(format!("time '{s}' is before t=0")));
    }
    let unit_at = s
        .find(|ch: char| !ch.is_ascii_digit())
        .ok_or_else(|| at(format!("time '{s}' is missing a unit (us/ms/s/m)")))?;
    let (num, unit) = s.split_at(unit_at);
    let v: u64 = num
        .parse()
        .map_err(|_| at(format!("bad number in time '{s}'")))?;
    let us = match unit {
        "us" => v,
        "ms" => v.saturating_mul(1_000),
        "s" => v.saturating_mul(1_000_000),
        "m" => v.saturating_mul(60_000_000),
        other => return Err(at(format!("unknown time unit '{other}' (us/ms/s/m)"))),
    };
    Ok(Duration::from_micros(us))
}

/// `64kbps`, `2mbps`, `9600bps` → bits per second.
fn parse_rate(c: &Cursor, tok: &Tok) -> Result<u64, ScenarioError> {
    let s = tok.text;
    let at = |msg: String| {
        ScenarioError::at(
            Span {
                line: c.line,
                col: tok.col,
            },
            msg,
        )
    };
    let unit_at = s
        .find(|ch: char| !ch.is_ascii_digit())
        .ok_or_else(|| at(format!("rate '{s}' is missing a unit (bps/kbps/mbps)")))?;
    let (num, unit) = s.split_at(unit_at);
    let v: u64 = num
        .parse()
        .map_err(|_| at(format!("bad number in rate '{s}'")))?;
    let bps = match unit {
        "bps" => v,
        "kbps" => v.saturating_mul(1_000),
        "mbps" => v.saturating_mul(1_000_000),
        other => return Err(at(format!("unknown rate unit '{other}' (bps/kbps/mbps)"))),
    };
    if bps == 0 {
        return Err(at(format!("rate '{s}' is zero")));
    }
    Ok(bps)
}

/// Remaining tokens as a node set: indices and `a..b` half-open ranges.
/// Stops before `over`/`bw`/`delay` keywords so callers can parse
/// trailing clauses.
fn parse_nodes(c: &mut Cursor) -> Result<Vec<usize>, ScenarioError> {
    let mut out = Vec::new();
    while let Some(word) = c.peek() {
        if matches!(word, "over" | "bw" | "delay") {
            break;
        }
        let tok = c.next().expect("peeked");
        let text = tok.text;
        let col = tok.col;
        let span = Span { line: c.line, col };
        if let Some((a, b)) = text.split_once("..") {
            let a: usize = a
                .parse()
                .map_err(|_| ScenarioError::at(span, format!("bad range start in '{text}'")))?;
            let b: usize = b
                .parse()
                .map_err(|_| ScenarioError::at(span, format!("bad range end in '{text}'")))?;
            if b <= a {
                return Err(ScenarioError::at(span, format!("empty range '{text}'")));
            }
            // Guard absurd ranges before allocating.
            if b - a > 1_000_000 {
                return Err(ScenarioError::at(span, format!("range '{text}' too large")));
            }
            out.extend(a..b);
        } else {
            let n: usize = text
                .parse()
                .map_err(|_| ScenarioError::at(span, format!("bad node index '{text}'")))?;
            out.push(n);
        }
    }
    if out.is_empty() {
        return Err(c.err("expected at least one node index or range"));
    }
    Ok(out)
}

/// One node index (`stream`'s source, `create`'s node).
fn parse_node(c: &mut Cursor) -> Result<usize, ScenarioError> {
    let t = c.expect("a node index")?;
    let (text, col) = (t.text, t.col);
    text.parse().map_err(|_| {
        ScenarioError::at(
            Span { line: c.line, col },
            format!("bad node index '{text}'"),
        )
    })
}

/// Optional trailing `over <duration>` clause.
fn parse_over(c: &mut Cursor) -> Result<Duration, ScenarioError> {
    if c.eat_word("over") {
        let tok = c.expect("a duration after 'over'")?;
        let tok = Tok {
            text: tok.text,
            col: tok.col,
        };
        parse_duration(c, &tok)
    } else {
        Ok(Duration::ZERO)
    }
}

/// Parse a scenario script. Syntax errors carry `line:col`; the result
/// is also semantically validated ([`Scenario::validate`]).
pub fn parse(source: &str) -> Result<Scenario, ScenarioError> {
    let mut name = String::from("unnamed");
    let mut nodes: Option<usize> = None;
    let mut end: Option<(Time, Span)> = None;
    let mut events: Vec<TimedEvent> = Vec::new();

    for (lineno, raw) in source.lines().enumerate() {
        let mut c = Cursor {
            toks: tokenize(raw),
            i: 0,
            line: lineno as u32 + 1,
        };
        if c.done() {
            continue;
        }
        let head = c.next().expect("nonempty").text;
        match head {
            "scenario" => {
                let t = c.expect("a scenario name")?;
                name = t.text.to_string();
            }
            "nodes" => {
                let t = c.expect("a node count")?;
                let text = t.text;
                let col = t.col;
                let n: usize = text.parse().map_err(|_| {
                    ScenarioError::at(
                        Span { line: c.line, col },
                        format!("bad node count '{text}'"),
                    )
                })?;
                if nodes.replace(n).is_some() {
                    return Err(c.err("duplicate 'nodes' directive"));
                }
            }
            "end" => {
                let t = c.expect("an end time")?;
                let tok = Tok {
                    text: t.text,
                    col: t.col,
                };
                let d = parse_duration(&c, &tok)?;
                let span = Span {
                    line: c.line,
                    col: tok.col,
                };
                if end.replace((Time::ZERO + d, span)).is_some() {
                    return Err(c.err("duplicate 'end' directive"));
                }
            }
            "at" => {
                let span = c.span();
                let t = c.expect("an event time")?;
                let tok = Tok {
                    text: t.text,
                    col: t.col,
                };
                let at = Time::ZERO + parse_duration(&c, &tok)?;
                let verb = c.expect(
                    "an event (join/crash/rejoin/partition/heal/degrade/restore/drop/\
                     create/subscribe/stream/assert)",
                )?;
                let (verb_text, verb_col) = (verb.text, verb.col);
                let verb_span = Span {
                    line: c.line,
                    col: verb_col,
                };
                let event = match verb_text {
                    "join" => {
                        let nodes = parse_nodes(&mut c)?;
                        let over = parse_over(&mut c)?;
                        Event::Join { nodes, over }
                    }
                    "crash" => Event::Crash {
                        nodes: parse_nodes(&mut c)?,
                    },
                    "rejoin" => {
                        let nodes = parse_nodes(&mut c)?;
                        let over = parse_over(&mut c)?;
                        Event::Rejoin { nodes, over }
                    }
                    "partition" => {
                        let n = c.expect("a partition name")?.text.to_string();
                        Event::Partition {
                            name: n,
                            side: parse_nodes(&mut c)?,
                        }
                    }
                    "heal" => Event::Heal {
                        name: c.expect("a partition name")?.text.to_string(),
                    },
                    "degrade" => {
                        let nodes = parse_nodes(&mut c)?;
                        let mut bw = None;
                        let mut delay = None;
                        loop {
                            if c.eat_word("bw") {
                                let t = c.expect("a rate after 'bw'")?;
                                let tok = Tok {
                                    text: t.text,
                                    col: t.col,
                                };
                                bw = Some(parse_rate(&c, &tok)?);
                            } else if c.eat_word("delay") {
                                let t = c.expect("a duration after 'delay'")?;
                                let tok = Tok {
                                    text: t.text,
                                    col: t.col,
                                };
                                delay = Some(parse_duration(&c, &tok)?);
                            } else {
                                break;
                            }
                        }
                        Event::Degrade {
                            nodes,
                            bandwidth_bps: bw,
                            delay,
                        }
                    }
                    "restore" => Event::Restore {
                        nodes: parse_nodes(&mut c)?,
                    },
                    "drop" => {
                        let t = c.expect("a probability")?;
                        let text = t.text;
                        let col = t.col;
                        let p: f64 = text.parse().map_err(|_| {
                            ScenarioError::at(
                                Span { line: c.line, col },
                                format!("bad probability '{text}'"),
                            )
                        })?;
                        Event::Drop { probability: p }
                    }
                    "create" => Event::Create {
                        node: parse_node(&mut c)?,
                    },
                    "subscribe" => {
                        let nodes = parse_nodes(&mut c)?;
                        let over = parse_over(&mut c)?;
                        Event::Subscribe { nodes, over }
                    }
                    "stream" => {
                        let node = parse_node(&mut c)?;
                        let mut rate = None;
                        let mut size = None;
                        let mut dur = None;
                        let mut shape = StreamShape::Multicast;
                        loop {
                            if c.eat_word("rate") {
                                let t = c.expect("a rate")?;
                                let tok = Tok {
                                    text: t.text,
                                    col: t.col,
                                };
                                rate = Some(parse_rate(&c, &tok)?);
                            } else if c.eat_word("size") {
                                let t = c.expect("a packet size")?;
                                let text = t.text;
                                let col = t.col;
                                size = Some(text.parse::<usize>().map_err(|_| {
                                    ScenarioError::at(
                                        Span { line: c.line, col },
                                        format!("bad packet size '{text}'"),
                                    )
                                })?);
                            } else if c.eat_word("for") {
                                let t = c.expect("a duration")?;
                                let tok = Tok {
                                    text: t.text,
                                    col: t.col,
                                };
                                dur = Some(parse_duration(&c, &tok)?);
                            } else if c.eat_word("multicast") {
                                shape = StreamShape::Multicast;
                            } else if c.eat_word("route") {
                                shape = StreamShape::RandomRoute;
                            } else {
                                break;
                            }
                        }
                        Event::Stream {
                            node,
                            rate_bps: rate.ok_or_else(|| {
                                ScenarioError::at(verb_span, "stream needs 'rate <r>'")
                            })?,
                            packet_bytes: size.ok_or_else(|| {
                                ScenarioError::at(verb_span, "stream needs 'size <bytes>'")
                            })?,
                            duration: dur.ok_or_else(|| {
                                ScenarioError::at(verb_span, "stream needs 'for <duration>'")
                            })?,
                            shape,
                        }
                    }
                    "assert" => {
                        let t = c.expect("'converged' or 'diverged'")?;
                        let (text, col) = (t.text, t.col);
                        let converged = match text {
                            "converged" => true,
                            "diverged" => false,
                            other => {
                                return Err(ScenarioError::at(
                                    Span { line: c.line, col },
                                    format!("expected 'converged' or 'diverged', got '{other}'"),
                                ))
                            }
                        };
                        let oracle = c.expect("an oracle name")?.text.to_string();
                        Event::Assert { oracle, converged }
                    }
                    other => {
                        return Err(ScenarioError::at(
                            verb_span,
                            format!("unknown event '{other}'"),
                        ))
                    }
                };
                if !c.done() {
                    return Err(c.err(format!(
                        "unexpected trailing token '{}'",
                        c.peek().unwrap_or_default()
                    )));
                }
                events.push(TimedEvent { at, event, span });
            }
            other => {
                let col = c.toks[0].col;
                return Err(ScenarioError::at(
                    Span { line: c.line, col },
                    format!("unknown directive '{other}'"),
                ));
            }
        }
    }

    let nodes = nodes
        .ok_or_else(|| ScenarioError::at(Span::default(), "missing 'nodes <count>' directive"))?;
    let (end, _) =
        end.ok_or_else(|| ScenarioError::at(Span::default(), "missing 'end <time>' directive"))?;
    events.sort_by_key(|te| te.at);
    let s = Scenario {
        name,
        nodes,
        end,
        events,
    };
    s.validate()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"
# demo script
scenario churn-demo
nodes 50
end 120s

at 0s    join 0..10
at 5s    join 10..50 over 10s
at 16s   create 0
at 17s   subscribe 1..50 over 2s
at 20s   stream 0 rate 200kbps size 1000 for 80s multicast
at 30s   crash 3 5 7
at 45s   rejoin 3
at 50s   partition wan 0..25
at 60s   heal wan
at 70s   degrade 2 bw 64kbps delay 50ms
at 85s   restore 2
at 90s   drop 0.01
"#;

    #[test]
    fn demo_script_parses() {
        let s = parse(DEMO).unwrap();
        assert_eq!(s.name, "churn-demo");
        assert_eq!(s.nodes, 50);
        assert_eq!(s.end, Time::from_secs(120));
        assert_eq!(s.events.len(), 12);
        let Event::Join { nodes, over } = &s.events[1].event else {
            panic!("{:?}", s.events[1].event);
        };
        assert_eq!(nodes.len(), 40);
        assert_eq!(*over, macedon_sim::Duration::from_secs(10));
        assert_eq!(s.events[2].event, Event::Create { node: 0 });
        let Event::Subscribe { nodes, over } = &s.events[3].event else {
            panic!("{:?}", s.events[3].event);
        };
        assert_eq!(
            (nodes.len(), *over),
            (49, macedon_sim::Duration::from_secs(2))
        );
        assert!(s.names_membership());
        let Event::Degrade {
            bandwidth_bps,
            delay,
            ..
        } = &s.events[9].event
        else {
            panic!();
        };
        assert_eq!(*bandwidth_bps, Some(64_000));
        assert_eq!(*delay, Some(macedon_sim::Duration::from_millis(50)));
    }

    #[test]
    fn negative_time_rejected_with_span() {
        let e = parse("nodes 4\nend 10s\nat -5s join 0..4\n").unwrap_err();
        assert!(e.msg.contains("before t=0"), "{e}");
        assert_eq!(e.line, 3);
        assert!(e.col > 1);
    }

    #[test]
    fn unknown_node_rejected_via_validation() {
        let e = parse("nodes 4\nend 10s\nat 0s join 0..9\n").unwrap_err();
        assert!(e.msg.contains("unknown node"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn overlapping_partitions_rejected() {
        let e = parse(
            "nodes 6\nend 30s\nat 0s join 0..6\nat 5s partition a 0..2\nat 8s partition b 3\n",
        )
        .unwrap_err();
        assert!(e.msg.contains("overlaps"), "{e}");
        assert_eq!(e.line, 5);
    }

    #[test]
    fn missing_directives_rejected() {
        assert!(parse("end 10s\n").unwrap_err().msg.contains("nodes"));
        assert!(parse("nodes 4\n").unwrap_err().msg.contains("end"));
    }

    #[test]
    fn bad_units_rejected() {
        let e = parse("nodes 4\nend 10parsecs\n").unwrap_err();
        assert!(e.msg.contains("unknown time unit"), "{e}");
        let e = parse(
            "nodes 4\nend 10s\nat 0s join 0..4\nat 1s stream 0 rate 5floops size 100 for 2s\n",
        )
        .unwrap_err();
        assert!(e.msg.contains("unknown rate unit"), "{e}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let e = parse("nodes 4\nend 10s\nat 0s join 0..4 frobnicate\n").unwrap_err();
        assert!(e.msg.contains("bad node index"), "{e}");
    }

    #[test]
    fn assert_checkpoints_parse() {
        let s = parse(
            "nodes 4\nend 30s\nat 0s join 0..4\nat 10s assert diverged chord\nat 25s assert converged chord\n",
        )
        .unwrap();
        assert_eq!(s.events.len(), 3);
        let Event::Assert { oracle, converged } = &s.events[1].event else {
            panic!("{:?}", s.events[1].event);
        };
        assert_eq!(oracle, "chord");
        assert!(!converged);
        assert!(matches!(
            &s.events[2].event,
            Event::Assert {
                converged: true,
                ..
            }
        ));

        let e =
            parse("nodes 4\nend 30s\nat 0s join 0..4\nat 10s assert sideways chord\n").unwrap_err();
        assert!(e.msg.contains("'converged' or 'diverged'"), "{e}");
    }

    #[test]
    fn malformed_membership_verbs_are_spanned() {
        let head = "nodes 4\nend 30s\nat 0s join 0..4\n";
        for (line, msg, col) in [
            ("at 5s create", "expected a node index", 7),
            ("at 5s create x", "bad node index 'x'", 14),
            ("at 5s create 0 1", "unexpected trailing token '1'", 16),
            ("at 5s create 0..2", "bad node index '0..2'", 14),
            ("at 5s subscribe", "expected at least one node index", 7),
            (
                "at 5s subscribe 1..3 over",
                "expected a duration after 'over'",
                22,
            ),
            (
                "at 5s subscribe 1..3 over 2parsecs",
                "unknown time unit",
                27,
            ),
            ("at 5s subscribe 3..1", "empty range '3..1'", 17),
        ] {
            let e = parse(&format!("{head}{line}\n")).unwrap_err();
            assert!(e.msg.contains(msg), "{line}: {e}");
            assert_eq!((e.line, e.col), (4, col), "{line}: {e}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let s = parse("# header\nnodes 2\n\nend 5s # tail comment\nat 0s join 0..2\n").unwrap();
        assert_eq!(s.events.len(), 1);
    }
}
