//! `macedon_collect()` — the paper's new API primitive (§2.2): "data
//! originates at non-root nodes and is collected via the distribution
//! tree toward the root. Intermediate nodes can summarize data in an
//! application-specific manner, ultimately delivering a global summary
//! to the tree's root."
//!
//! Here every Scribe member reports a local sensor reading; each hop's
//! application sees the value via the `EXT_COLLECT` upcall and the root
//! aggregates the maximum.
//!
//! ```sh
//! cargo run --release -p macedon --example collect_aggregation
//! ```

use macedon::overlays::pastry::{Pastry, PastryConfig};
use macedon::overlays::scribe::{Scribe, ScribeConfig, EXT_COLLECT};
use macedon::prelude::*;
use parking_lot::Mutex;
use std::any::Any;
use std::sync::Arc;

/// Application that aggregates collected readings (max-so-far).
struct Aggregator {
    observed: Arc<Mutex<Vec<(NodeId, u64)>>>,
}

impl AppHandler for Aggregator {
    fn on_upcall_ext(&mut self, ctx: &mut Ctx, op: u32, payload: Bytes) {
        if op != EXT_COLLECT {
            return;
        }
        // Payload: [group key][src key][inner bytes = reading u64].
        let mut r = macedon::core::WireReader::new(payload);
        let (Ok(_group), Ok(_src)) = (r.key(), r.key()) else {
            return;
        };
        let Ok(inner) = r.bytes() else { return };
        if inner.len() >= 8 {
            let reading = u64::from_be_bytes(inner[..8].try_into().expect("len"));
            self.observed.lock().push((ctx.me, reading));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn main() {
    let topo = macedon::net::topology::canned::star(10, macedon::net::topology::LinkSpec::lan());
    let hosts = topo.hosts().to_vec();
    let mut world = World::new(topo, WorldConfig::seeded(3));
    let group = MacedonKey::of_name("sensors");
    let observed = Arc::new(Mutex::new(Vec::new()));

    // Every host runs Scribe over Pastry under the aggregating
    // application, joining 100 ms after the previous one through the
    // first host.
    for (i, &h) in hosts.iter().enumerate() {
        let pastry = Pastry::new(PastryConfig {
            bootstrap: (i > 0).then(|| hosts[0]),
            ..Default::default()
        });
        let scribe = Scribe::new(ScribeConfig::default());
        let app = Aggregator {
            observed: observed.clone(),
        };
        let at = Time::from_millis(i as u64 * 100);
        world.spawn_at(
            at,
            h,
            vec![Box::new(pastry), Box::new(scribe)],
            Box::new(app),
        );
    }

    // Build the tree, then every member reports a reading via collect.
    world.run_until(Time::from_secs(30));
    for &h in &hosts {
        world.api_at(Time::from_secs(30), h, DownCall::Join { group });
    }
    world.run_until(Time::from_secs(60));
    for (i, &h) in hosts.iter().enumerate() {
        let reading = (i as u64 + 1) * 10;
        world.api_at(
            Time::from_secs(60) + Duration::from_millis(i as u64 * 50),
            h,
            DownCall::Collect {
                group,
                payload: Bytes::from(reading.to_be_bytes().to_vec()),
                priority: -1,
            },
        );
    }
    world.run_until(Time::from_secs(70));

    let log = observed.lock();
    let max = log.iter().map(|&(_, v)| v).max().unwrap_or(0);
    println!("collect() observations at tree hops: {}", log.len());
    println!("global maximum aggregated toward the root: {max}");
    assert_eq!(
        max,
        hosts.len() as u64 * 10,
        "every reading visible somewhere on the tree"
    );
}
