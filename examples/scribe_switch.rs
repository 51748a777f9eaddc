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

use macedon::lang::{bundled_specs, compile, SpecRegistry};
use macedon::prelude::*;
use std::sync::Arc;

fn run(dht: &str) -> usize {
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
    let hosts = topo.hosts().to_vec();
    let cfg = WorldConfig {
        seed: 7,
        channels: registry.channel_table_for("scribe").unwrap(),
        ..Default::default()
    };
    let mut world = World::new(topo, cfg);
    let sink = shared_deliveries();
    let group = MacedonKey::of_name("demo-group");
    for (i, &h) in hosts.iter().enumerate() {
        let stack = registry
            .build_stack("scribe", (i > 0).then(|| hosts[0]))
            .unwrap();
        world.spawn_at(
            Time::from_millis(i as u64 * 100),
            h,
            stack,
            Box::new(CollectorApp::new(sink.clone())),
        );
    }

    // Everyone joins; the source multicasts after convergence.
    world.run_until(Time::from_secs(40));
    for &h in &hosts[1..] {
        world.api_at(Time::from_secs(40), h, DownCall::Join { group });
    }
    world.run_until(Time::from_secs(70));
    for i in 0..5u64 {
        let mut p = vec![0u8; 256];
        p[..8].copy_from_slice(&i.to_be_bytes());
        world.api_at(
            Time::from_secs(70) + Duration::from_millis(i * 200),
            hosts[1],
            DownCall::Multicast {
                group,
                payload: Bytes::from(p),
                priority: -1,
            },
        );
    }
    world.run_until(Time::from_secs(90));
    let n = sink.lock().len();
    println!(
        "scribe.mac over {dht}: {n} deliveries across {} receivers",
        hosts.len() - 1
    );
    n
}

fn main() {
    let over_pastry = run("pastry");
    let over_chord = run("chord");
    println!(
        "\nSame Scribe spec, two DHTs: pastry={over_pastry} chord={over_chord} deliveries — \
         the MACEDON API makes the substrate interchangeable."
    );
}
