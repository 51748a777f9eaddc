//! Interpreted-agent dispatch cost over generated code: pastry's
//! costliest transition, `state_push`, fed the same frames through an
//! interpreted and a generated stack exactly the way the world's event
//! loop drives a `macedon_core::Stack`. Prints the minimum of
//! [`SAMPLES`] timings per back end and their ratio.
//!
//! Run with `cargo bench -p macedon-bench --bench interp`. Whole-run
//! timings live in `benchmark/` (`bash benchmark/run.sh`).

use macedon_bench::experiments::{pastry_stack, state_push_frames};
use macedon_core::{SpanId, Time};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed pushes per back end: with no warm-up, enough that both back
/// ends reach their steady state before the minimum is taken.
const SAMPLES: usize = 5_000;

fn main() {
    let frames = state_push_frames();
    let label = "interp/pastry state_push (2 msgs)";
    let mins: Vec<Duration> = [("interpreted", false), ("generated", true)]
        .into_iter()
        .map(|(name, generated)| {
            let mut stack = pastry_stack(generated);
            let mut fx = Vec::new();
            let min = (0..SAMPLES)
                .map(|_| {
                    let start = Instant::now();
                    for (from, frame) in &frames {
                        stack.recv(Time::ZERO, *from, frame.clone(), SpanId::NONE, &mut fx);
                    }
                    black_box(&mut fx).clear();
                    start.elapsed()
                })
                .min()
                .expect("at least one sample");
            println!("bench {label}/{name:<12} samples={SAMPLES} min={min:>12.3?}");
            min
        })
        .collect();
    println!(
        "bench {label}/interpreted over generated: {:.2}",
        mins[0].as_secs_f64() / mins[1].as_secs_f64()
    );
}
