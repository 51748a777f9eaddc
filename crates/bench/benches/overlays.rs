//! End-to-end overlay benchmarks: full virtual runs of registry-built
//! spec stacks measured in host time (how fast the reproduction
//! simulates, not protocol quality).

use criterion::{criterion_group, criterion_main, Criterion};
use macedon_bench::experiments::spec_world;
use macedon_core::{Bytes, DownCall, Duration, MacedonKey, Time};
use macedon_lang::SpecRegistry;
use macedon_net::topology::{canned, LinkSpec};

fn bench_chord_convergence(c: &mut Criterion) {
    let registry = SpecRegistry::bundled();
    c.bench_function("overlay/chord 16-ring to 60 virtual s", |b| {
        b.iter(|| {
            let topo = canned::star(16, LinkSpec::lan());
            let (mut w, _hosts, _sink) = spec_world(&registry, "chord", topo, 1, 100);
            w.run_until(Time::from_secs(60));
            w.events_fired()
        })
    });
}

fn bench_pastry_lookups(c: &mut Criterion) {
    // Converge once, then measure lookup batches on the same world.
    c.bench_function("overlay/pastry 20 lookups on converged 16-mesh", |b| {
        let topo = canned::star(16, LinkSpec::lan());
        let (mut w, hosts, _sink) = spec_world(&SpecRegistry::bundled(), "pastry", topo, 2, 100);
        w.run_until(Time::from_secs(60));
        let mut epoch = 60u64;
        b.iter(|| {
            for i in 0..20u64 {
                let mut p = vec![0u8; 32];
                p[..8].copy_from_slice(&i.to_be_bytes());
                w.api_at(
                    Time::from_secs(epoch) + Duration::from_millis(i),
                    hosts[(i % 16) as usize],
                    DownCall::Route {
                        dest: MacedonKey(
                            (i as u32)
                                .wrapping_mul(0x9E37_79B9)
                                .wrapping_add(epoch as u32),
                        ),
                        payload: Bytes::from(p),
                        priority: -1,
                    },
                );
            }
            epoch += 5;
            w.run_until(Time::from_secs(epoch));
        })
    });
}

criterion_group!(benches, bench_chord_convergence, bench_pastry_lookups);
criterion_main!(benches);
