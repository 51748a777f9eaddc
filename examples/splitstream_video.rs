//! Video-style streaming over a SplitStream forest (SplitStream over
//! Scribe over Pastry), the full Figure 2 stack — with the two location
//! cache policies of Figure 12 side by side.
//!
//! ```sh
//! cargo run --release -p macedon --example splitstream_video
//! ```

use macedon::overlays::pastry::{Pastry, PastryConfig};
use macedon::overlays::scribe::{DataPath, Scribe, ScribeConfig};
use macedon::overlays::splitstream::{SplitStream, SplitStreamConfig};
use macedon::prelude::*;

fn run(cache_lifetime: Option<Duration>) -> f64 {
    let nodes = 20usize;
    let topo = macedon::net::topology::canned::star(
        nodes,
        macedon::net::topology::LinkSpec::new(Duration::from_millis(2), 2_000_000, 64 * 1024),
    );
    let mut world = World::new(
        topo,
        WorldConfig {
            seed: 12,
            ..Default::default()
        },
    );
    let sink = shared_deliveries();
    let group = MacedonKey::of_name("video");

    let hosts = world.spawn_each(Duration::from_millis(100), |i, bootstrap| {
        let pastry = Pastry::new(PastryConfig {
            bootstrap,
            cache_lifetime,
        });
        let scribe = Scribe::new(ScribeConfig {
            data_path: DataPath::LocationCache,
            max_children: Some(8),
        });
        let split = SplitStream::new(SplitStreamConfig::default());
        let stack: Vec<Box<dyn Agent>> = vec![Box::new(pastry), Box::new(scribe), Box::new(split)];
        let app: Box<dyn AppHandler> = if i == 0 {
            // The source streams 600 Kbps of 1000-byte packets.
            Box::new(StreamerApp::new(
                StreamKind::Multicast { group },
                600_000,
                1_000,
                Time::from_secs(40),
                Time::from_secs(100),
                sink.clone(),
            ))
        } else {
            Box::new(CollectorApp::new(sink.clone()))
        };
        (stack, app)
    });
    world.api_at(
        Time::from_secs(5),
        hosts[0],
        DownCall::CreateGroup { group },
    );
    for (i, &h) in hosts.iter().enumerate().skip(1) {
        world.api_at(
            Time::from_secs(6) + Duration::from_millis(i as u64 * 100),
            h,
            DownCall::Join { group },
        );
    }
    world.run_until(Time::from_secs(110));

    // Mean goodput per receiver over the streaming minute.
    let bytes: u64 = sink
        .lock()
        .iter()
        .filter(|r| r.node != hosts[0])
        .map(|r| r.bytes as u64)
        .sum();
    bytes as f64 * 8.0 / 60.0 / (nodes - 1) as f64 / 1_000.0
}

fn main() {
    let no_evict = run(None);
    let evict = run(Some(Duration::from_secs(1)));
    println!("SplitStream mean per-node goodput over 60 s of streaming:");
    println!("  location cache, no eviction : {no_evict:.0} Kbps");
    println!("  location cache, 1 s lifetime: {evict:.0} Kbps");
    println!("(Figure 12's shape: eviction costs goodput to cache re-establishment.)");
}
