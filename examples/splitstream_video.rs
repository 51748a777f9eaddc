//! Video-style streaming over a SplitStream forest (SplitStream over
//! Scribe over Pastry), the full Figure 2 stack — with the two location
//! cache policies of Figure 12 side by side, on Figure 12's native
//! stack at 20 nodes. The experiment is a scenario script: node 0
//! creates the group, the others subscribe, node 0 streams.
//!
//! ```sh
//! cargo run --release -p macedon --example splitstream_video
//! ```

use macedon::prelude::*;
use macedon_bench::experiments::{fig12_stack, goodput_series, mean, scenario_runner, thin_star};

const SCRIPT: &str = "scenario video\nnodes 20\nend 110s\n\
                      at 0s join 0..20 over 2s\n\
                      at 5s create 0\n\
                      at 6100ms subscribe 1..20 over 1900ms\n\
                      at 40s stream 0 rate 600kbps size 1000 for 60s multicast\n";

/// Mean per-receiver goodput (Kbps) over the minute of streaming.
fn run(cache_lifetime: Option<Duration>) -> f64 {
    let outcome = scenario_runner(
        SCRIPT,
        thin_star(20),
        WorldConfig::seeded(12),
        fig12_stack(cache_lifetime),
    )
    .run();
    mean(
        goodput_series(&outcome, 40, 60)
            .iter()
            .map(|&(_, kbps)| kbps),
    )
}

fn main() {
    let no_evict = run(None);
    let evict = run(Some(Duration::from_secs(1)));
    println!("SplitStream mean per-node goodput over 60 s of streaming:");
    println!("  location cache, no eviction : {no_evict:.0} Kbps");
    println!("  location cache, 1 s lifetime: {evict:.0} Kbps");
    println!("For Figure 12's series: cargo run --release -p macedon-bench --bin figures");
}
