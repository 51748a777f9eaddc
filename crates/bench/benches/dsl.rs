//! DSL pipeline benchmarks: parsing, lowering (the checker), code
//! generation, and compiling the whole roster.

use criterion::{criterion_group, criterion_main, Criterion};
use macedon_lang::{bundled_specs, codegen, compile, parse, IrSpec};
use std::sync::Arc;

fn overcast_src() -> &'static str {
    bundled_specs()
        .into_iter()
        .find(|(n, _)| *n == "overcast")
        .unwrap()
        .1
}

fn bench_parse(c: &mut Criterion) {
    let src = overcast_src();
    c.bench_function("dsl/parse overcast.mac", |b| b.iter(|| parse(src).unwrap()));
}

fn bench_lower(c: &mut Criterion) {
    let spec = Arc::new(parse(overcast_src()).unwrap());
    c.bench_function("dsl/lower overcast.mac", |b| {
        b.iter(|| IrSpec::lower(spec.clone()).unwrap())
    });
}

fn bench_codegen(c: &mut Criterion) {
    let ir = compile(overcast_src()).unwrap();
    c.bench_function("dsl/codegen overcast.mac", |b| {
        b.iter(|| codegen::generate(&ir, None).len())
    });
}

fn bench_compile_all(c: &mut Criterion) {
    c.bench_function("dsl/compile all bundled specs", |b| {
        b.iter(|| {
            for (_, src) in bundled_specs() {
                compile(src).unwrap();
            }
        })
    });
}

criterion_group!(
    benches,
    bench_parse,
    bench_lower,
    bench_codegen,
    bench_compile_all
);
criterion_main!(benches);
