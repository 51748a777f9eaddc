//! The paper's one-line layering switch: run `scribe.mac` application-
//! layer multicast over **Pastry**, then over **Chord**, changing
//! nothing but the `uses` line of the spec (§1: "the Scribe
//! application-layer multicast protocol can be switched from using
//! Pastry to Chord by changing a single line in its MACEDON
//! specification").
//!
//! ```sh
//! cargo run --release -p macedon --example scribe_switch
//! ```

use macedon::core::WorldConfig;
use macedon::lang::{bundled_specs, compile, SpecRegistry};
use macedon_bench::experiments::spec_runner;
use std::sync::Arc;

/// Twelve nodes join 100 ms apart; every node but 0 subscribes once the
/// DHT has converged, and node 1 multicasts five 256-byte packets
/// 200 ms apart.
const SCRIPT: &str = "scenario scribe-switch\nnodes 12\nend 90s\n\
                      at 0s join 0..12 over 1200ms\n\
                      at 40s subscribe 1..12\n\
                      at 70s stream 1 rate 10240bps size 256 for 1s multicast\n";

fn run(dht: &str) -> u64 {
    // The single line: `protocol scribe uses pastry;` → `uses <dht>;`.
    let (_, scribe) = bundled_specs()
        .into_iter()
        .find(|&(name, _)| name == "scribe")
        .unwrap();
    let scribe = scribe.replace(
        "protocol scribe uses pastry;",
        &format!("protocol scribe uses {dht};"),
    );
    let mut registry = SpecRegistry::bundled();
    registry.insert(Arc::new(compile(&scribe).unwrap()));

    let topo = macedon::net::topology::canned::star(12, macedon::net::topology::LinkSpec::lan());
    let report = spec_runner(SCRIPT, topo, WorldConfig::seeded(7), &registry, "scribe")
        .run()
        .report;
    let n = report.total_delivered;
    println!(
        "scribe.mac over {dht}: {n} deliveries across {} receivers",
        report.nodes.len() - 1
    );
    n
}

fn main() {
    let over_pastry = run("pastry");
    let over_chord = run("chord");
    // Eleven receivers × five packets is 55; allow a few losses.
    for (dht, n) in [("pastry", over_pastry), ("chord", over_chord)] {
        assert!(n >= 50, "scribe.mac over {dht} delivered only {n} packets");
    }
    println!(
        "\nSame Scribe spec, two DHTs: pastry={over_pastry} chord={over_chord} deliveries — \
         the MACEDON API makes the substrate interchangeable."
    );
}
