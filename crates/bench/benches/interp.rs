//! Interpreted-agent dispatch benchmarks: the per-event hot path of
//! `macedon_lang::interp` — wire decode, transition lookup, and action
//! execution — driven through a real `macedon_core::Stack` exactly the
//! way the world's event loop drives it.
//!
//! The two `state_push` benches feed pastry's costliest transition the
//! same frames through an interpreted and a generated stack; their
//! ratio is the interpreter's cost over generated code. Whole-run
//! timings live in `benchmark/` (`bash benchmark/run.sh`).

use criterion::{criterion_group, criterion_main, Criterion};
use macedon_bench::experiments::{
    dispatch_frames, dispatch_stack, pastry_stack, state_push_frames, DISPATCH_SPEC,
};
use macedon_core::{SpanId, Time};

fn bench_recv_dispatch(c: &mut Criterion) {
    let frames = dispatch_frames();
    let mut stack = dispatch_stack();
    let mut fx = Vec::new();
    c.bench_function("interp/recv dispatch (3 msgs)", |b| {
        b.iter(|| {
            for (from, frame) in &frames {
                stack.recv(Time::ZERO, *from, frame.clone(), SpanId::NONE, &mut fx);
            }
            fx.clear();
        })
    });
}

fn bench_timer_dispatch(c: &mut Criterion) {
    let mut stack = dispatch_stack();
    let mut fx = Vec::new();
    c.bench_function("interp/timer dispatch", |b| {
        b.iter(|| {
            stack.timer(Time::ZERO, 0, 0, &mut fx);
            fx.clear();
        })
    });
}

fn bench_compile_to_runnable(c: &mut Criterion) {
    c.bench_function("interp/compile dispatch spec", |b| {
        b.iter(|| macedon_lang::compile(DISPATCH_SPEC).unwrap())
    });
}

fn bench_state_push(c: &mut Criterion) {
    let frames = state_push_frames();
    let mut group = c.benchmark_group("interp/pastry state_push (2 msgs)");
    // The shim has no warm-up and reports the minimum: enough samples
    // that both back ends reach their steady state.
    group.sample_size(5_000);
    for (name, generated) in [("interpreted", false), ("generated", true)] {
        let mut stack = pastry_stack(generated);
        let mut fx = Vec::new();
        group.bench_function(name, |b| {
            b.iter(|| {
                for (from, frame) in &frames {
                    stack.recv(Time::ZERO, *from, frame.clone(), SpanId::NONE, &mut fx);
                }
                fx.clear();
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_recv_dispatch,
    bench_timer_dispatch,
    bench_compile_to_runnable,
    bench_state_push
);
criterion_main!(benches);
