//! Quickstart: build an emulated network, run the bundled `chord.mac`
//! specification on it, and route messages through the overlay — the
//! MACEDON development loop in ~50 lines.
//!
//! ```sh
//! cargo run --release -p macedon --example quickstart
//! ```

use macedon::core::DEFAULT_PRIORITY;
use macedon::lang::SpecRegistry;
use macedon::net::topology::{inet, InetParams};
use macedon::prelude::*;
use macedon::sim::SimRng;

fn main() {
    // 1. An INET-like topology: 200 routers, 16 overlay hosts.
    let mut rng = SimRng::new(1);
    let topo = inet(
        &InetParams {
            routers: 200,
            clients: 16,
            ..Default::default()
        },
        &mut rng,
    );
    let hosts = topo.hosts().to_vec();

    // 2. The spec roster, and a world (deterministic event loop +
    //    transports + engine) with the channels chord.mac declares.
    let registry = SpecRegistry::bundled();
    let cfg = WorldConfig {
        channels: registry.channel_table_for("chord").unwrap(),
        ..Default::default()
    };
    let mut world = World::new(topo, cfg);

    // 3. One interpreted Chord agent per host, joining through hosts[0],
    //    with a delivery-collecting application on top.
    let sink = shared_deliveries();
    for (i, &h) in hosts.iter().enumerate() {
        let stack = registry
            .build_stack("chord", (i > 0).then(|| hosts[0]))
            .unwrap();
        world.spawn_at(
            Time::from_millis(i as u64 * 100),
            h,
            stack,
            Box::new(CollectorApp::new(sink.clone())),
        );
    }

    // 4. Let the ring converge, then route ten messages to random keys.
    world.run_until(Time::from_secs(60));
    for i in 0..10u64 {
        let mut payload = vec![0u8; 64];
        payload[..8].copy_from_slice(&i.to_be_bytes());
        world.api_at(
            Time::from_secs(60) + Duration::from_millis(i * 100),
            hosts[(i % 16) as usize],
            DownCall::Route {
                dest: MacedonKey((i as u32).wrapping_mul(0x9E37_79B9)),
                payload: Bytes::from(payload),
                priority: DEFAULT_PRIORITY,
            },
        );
    }
    world.run_until(Time::from_secs(90));

    // 5. Inspect results: who owns what, in how many virtual seconds.
    println!(
        "virtual time: {}s, events: {}",
        world.now(),
        world.events_fired()
    );
    for rec in sink.lock().iter() {
        println!(
            "packet {:>2} delivered at node {:?} (key {}) at t={}",
            rec.seqno.unwrap_or(0),
            rec.node,
            world.key_of(rec.node),
            rec.at
        );
    }
}
