//! Acceptance gate for the causal trace stream: a seeded 200-node
//! from-spec splitstream run traced at High must produce
//!
//! 1. a trace stream byte-identical between the interpreted and the
//!    generated back end,
//! 2. a trace stream byte-identical between 1 and 4 worker threads on
//!    the same shard partition,
//! 3. a span forest (unique mints, every context minted strictly
//!    earlier) that reconstructs at least one complete multi-hop
//!    cross-layer delivery path: application send at the origin,
//!    a forwarding hop that minted a child span under the inbound
//!    context, and a top-layer deliver at the destination,
//! 4. a Perfetto export with a line for every record (pass
//!    `--out trace.json` to keep it).
//!
//! Exits non-zero on any violation. Scale down with `--nodes N` for
//! quick local runs; CI runs the full 200.

use macedon_bench::experiments::Backend;
use macedon_core::{
    perfetto_json, Bytes, DownCall, Duration, MacedonKey, SpanForest, SpanId, Time, TraceEvent,
    TraceLevel, TraceRecord, World, WorldConfig,
};
use macedon_net::topology::{canned, LinkSpec};

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn build_world(backend: Backend, n: usize, seed: u64, shards: usize, workers: usize) -> World {
    let cfg = WorldConfig {
        seed,
        shards,
        trace_level: TraceLevel::High,
        fd_g: Duration::from_secs(2),
        fd_f: Duration::from_secs(6),
        ..Default::default()
    };
    let topo = canned::star(n, LinkSpec::lan());
    let stagger = Duration::from_millis(50);
    let (mut w, hosts, _sink) = backend.world("splitstream", topo, cfg, stagger);
    w.set_workers(workers);
    w.set_trace_capacity(1 << 22);
    // Join, settle, stream five multicast packets from hosts[1].
    let group = MacedonKey::of_name("trace-eq");
    w.run_until(Time::from_secs(40));
    for &h in &hosts[1..] {
        w.api_at(Time::from_secs(40), h, DownCall::Join { group });
    }
    w.run_until(Time::from_secs(80));
    for i in 0..5u64 {
        let mut p = vec![0u8; 256];
        p[..8].copy_from_slice(&i.to_be_bytes());
        w.api_at(
            Time::from_secs(80) + Duration::from_millis(i * 200),
            hosts[1],
            DownCall::Multicast {
                group,
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    w.run_until(Time::from_secs(95));
    w
}

/// The run's span forest; a trace that is not one fails the gate.
fn forest(w: &World) -> SpanForest {
    SpanForest::build(&w.merged_trace()).unwrap_or_else(|e| {
        println!("FAIL: {e}");
        std::process::exit(1)
    })
}

/// Search the forest for one multi-hop cross-layer delivery path;
/// returns its description or an error.
fn find_delivery_path(records: &[&TraceRecord], forest: &SpanForest) -> Result<String, String> {
    // A complete path: a Deliver above the transport layer whose context
    // chains through at least one forwarding Send back to a root
    // application send, crossing at least three distinct nodes.
    for r in records {
        let TraceEvent::Deliver { .. } = &r.event else {
            continue;
        };
        if r.layer == 0 || r.span.is_none() {
            continue;
        }
        // (minting record, minted span), oldest last.
        let mut hops: Vec<(&TraceRecord, SpanId)> = forest
            .lineage(r.span)
            .into_iter()
            .map(|(idx, span)| (records[idx], span))
            .collect();
        if hops.len() < 2 {
            continue; // single-hop: delivered straight from the origin
        }
        let mut nodes: Vec<u32> = hops.iter().map(|(m, _)| m.node.0).collect();
        nodes.push(r.node.0);
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.len() < 3 {
            continue;
        }
        hops.reverse();
        let mut path = String::new();
        for (m, span) in &hops {
            path.push_str(&format!(
                "n{} send span={:016x} (t={}us, L{}) -> ",
                m.node.0,
                span.0,
                m.at.as_micros(),
                m.layer
            ));
        }
        path.push_str(&format!(
            "n{} deliver (t={}us, L{})",
            r.node.0,
            r.at.as_micros(),
            r.layer
        ));
        return Ok(path);
    }
    Err("no multi-hop cross-layer delivery path found".into())
}

fn main() {
    let nodes: usize = arg_value("--nodes")
        .map(|v| v.parse().expect("--nodes takes a count"))
        .unwrap_or(200);
    let seed = 42u64;
    let mut failed = false;

    let t0 = std::time::Instant::now();
    let interp_1w = build_world(Backend::Interpreted, nodes, seed, 4, 1);
    let want = forest(&interp_1w);
    println!(
        "interpreted 4-shard/1-worker: {} records ({} dropped) in {:.2}s",
        interp_1w.trace_records_total(),
        interp_1w.trace_dropped_total(),
        t0.elapsed().as_secs_f64()
    );
    if interp_1w.trace_dropped_total() > 0 {
        println!("FAIL: ring evicted records; raise the capacity");
        failed = true;
    }

    for (label, backend, workers) in [
        ("interpreted 4-shard/4-worker", Backend::Interpreted, 4usize),
        ("generated   4-shard/1-worker", Backend::Generated, 1),
    ] {
        let t = std::time::Instant::now();
        let w = build_world(backend, nodes, seed, 4, workers);
        let got = forest(&w).stream;
        let ok = got == want.stream;
        println!(
            "{label}: {} records in {:.2}s -> {}",
            w.trace_records_total(),
            t.elapsed().as_secs_f64(),
            if ok { "byte-identical" } else { "DIVERGED" }
        );
        if !ok {
            for (i, (a, b)) in want.stream.lines().zip(got.lines()).enumerate() {
                if a != b {
                    println!("  first divergence at line {i}:\n  - {a}\n  + {b}");
                    break;
                }
            }
            failed = true;
        }
    }

    let records = interp_1w.merged_trace();
    match find_delivery_path(&records, &want) {
        Ok(path) => println!("delivery path: {path}"),
        Err(e) => {
            println!("FAIL: {e}");
            failed = true;
        }
    }

    // The export's bytes are pinned in `macedon_core::export`; here it
    // must carry every record, one line each between the document's
    // first and last lines.
    let json = perfetto_json(&records, &interp_1w.profile());
    if json.lines().count() < records.len() + 2 {
        println!("FAIL: perfetto export lost records");
        failed = true;
    }
    if let Some(path) = arg_value("--out") {
        std::fs::write(&path, &json).expect("write perfetto trace");
        println!(
            "wrote {path} ({} bytes; open at https://ui.perfetto.dev)",
            json.len()
        );
    }

    if failed {
        std::process::exit(1);
    }
    println!("trace_eq: all checks passed");
}
