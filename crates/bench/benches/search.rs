//! Criterion bench: a full MCFuser tuning session (prune + Algorithm 1)
//! on a small chain — the end-to-end per-sub-graph cost. Each iteration
//! tunes on a fresh engine, so the space build is paid every time.

use criterion::{criterion_group, criterion_main, Criterion};
use mcfuser_core::{CachePolicy, FusionEngine};
use mcfuser_ir::ChainSpec;
use mcfuser_sim::DeviceSpec;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let dev = DeviceSpec::a100();
    let chain = ChainSpec::gemm_chain("bench", 1, 512, 256, 64, 64);
    let attn = ChainSpec::attention("attn", 8, 256, 256, 64, 64);
    let tune = |chain: &ChainSpec| {
        FusionEngine::builder(dev.clone())
            .cache(CachePolicy::Disabled)
            .build()
            .tune(black_box(chain))
            .unwrap()
    };
    let mut g = c.benchmark_group("search");
    g.sample_size(10);
    g.bench_function("tune_gemm_chain_g1", |b| b.iter(|| tune(&chain)));
    g.bench_function("tune_attention", |b| b.iter(|| tune(&attn)));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
