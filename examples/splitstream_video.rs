//! Video-style streaming over a SplitStream forest (SplitStream over
//! Scribe over Pastry), the full Figure 2 stack — with the two location
//! cache policies of Figure 12 side by side, on Figure 12's native run
//! at 20 nodes.
//!
//! ```sh
//! cargo run --release -p macedon --example splitstream_video
//! ```

use macedon::prelude::*;
use macedon_bench::experiments::native_splitstream;

/// Mean per-receiver goodput (Kbps) over a minute of 600 Kbps streaming.
fn run(cache_lifetime: Option<Duration>) -> f64 {
    let series = native_splitstream(20, 40, 60, 600_000, cache_lifetime);
    series.iter().map(|&(_, kbps)| kbps).sum::<f64>() / series.len() as f64
}

fn main() {
    let no_evict = run(None);
    let evict = run(Some(Duration::from_secs(1)));
    println!("SplitStream mean per-node goodput over 60 s of streaming:");
    println!("  location cache, no eviction : {no_evict:.0} Kbps");
    println!("  location cache, 1 s lifetime: {evict:.0} Kbps");
    println!("(Figure 12's shape: eviction costs goodput to cache re-establishment.)");
}
