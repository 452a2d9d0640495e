//! Batched-tuning smoke test: tune the 8 MBCI chains of a 4-layer mini
//! BERT (4 attention + 4 FFN) three ways and time them —
//!
//! * **cold**: no engine and no caches — every chain builds its own
//!   candidate space (`build_candidate_space`, one Rule-4 staircase
//!   build) and runs its own `heuristic_search` (the pre-space-cache
//!   worst case);
//! * **shared-space**: schedule cache still off, space cache on — the
//!   8 chains collapse onto 2 content-distinct candidate spaces (one
//!   scan per *shape*), searches unchanged;
//! * **batched**: the production `tune_many` path with the schedule
//!   cache on — identical chains additionally dedup to one search per
//!   shape.
//!
//! Asserts the invariants CI cares about: the shared-space engine
//! performs exactly one scan per distinct shape (probe-counted), its
//! results are bit-identical to the cold per-chain builds, and the
//! batched path agrees too. Writes `results/tune_smoke.json`.
//!
//! ```sh
//! cargo run --release -p mcfuser-bench --bin tune_smoke
//! ```

use std::time::Instant;

use mcfuser_core::{
    build_candidate_space, heuristic_search, CachePolicy, FusionEngine, SearchOutcome,
    SearchParams, SpacePolicy, TunedKernel,
};
use mcfuser_ir::{partition, ChainSpec};
use mcfuser_sim::{DeviceSpec, TuningClock};
use mcfuser_workloads::{bert_graph, BertConfig};

fn main() {
    let device = DeviceSpec::a100();
    let bert = bert_graph(
        "bert-mini-4l",
        &BertConfig {
            layers: 4,
            hidden: 128,
            heads: 4,
            seq: 64,
            intermediate: 512,
        },
    );
    let part = partition(&bert, &device);
    let chains: Vec<ChainSpec> = part.chains.iter().map(|fc| fc.chain.clone()).collect();
    assert_eq!(
        chains.len(),
        8,
        "4 BERT layers should partition into 8 MBCI chains"
    );
    let fingerprints: Vec<String> = chains
        .iter()
        .map(|c| mcfuser_core::space_fingerprint(c, &device, &Default::default()))
        .collect();
    // First chain index of each distinct shape, in batch order.
    let first_of_shape: Vec<usize> = fingerprints
        .iter()
        .enumerate()
        .filter(|(i, fp)| fingerprints[..*i].iter().all(|f| f != *fp))
        .map(|(i, _)| i)
        .collect();
    let shapes = first_of_shape.len();
    println!(
        "tuning {} BERT-layer chains ({} distinct shapes) on {}",
        chains.len(),
        shapes,
        device.name
    );

    // --- cold: per-chain scans, per-chain searches ----------------------
    let params = SearchParams::default();
    let cold_start = Instant::now();
    let cold: Vec<SearchOutcome> = chains
        .iter()
        .map(|c| {
            let space = build_candidate_space(c, &device, &SpacePolicy::default());
            heuristic_search(c, &device, &space, &params, &TuningClock::new()).expect("cold tune")
        })
        .collect();
    let cold_wall = cold_start.elapsed().as_secs_f64();

    // --- shared-space: one scan per shape, searches unchanged -----------
    let shared_engine = FusionEngine::builder(device.clone())
        .cache(CachePolicy::Disabled)
        .build();
    let shared_start = Instant::now();
    let shared: Vec<TunedKernel> = chains
        .iter()
        .map(|c| shared_engine.tune(c).expect("shared tune"))
        .collect();
    let shared_wall = shared_start.elapsed().as_secs_f64();
    let shared_stats = shared_engine.stats();
    assert_eq!(
        shared_stats.space_builds, shapes as u64,
        "the space cache must collapse same-shaped chains onto one scan"
    );
    assert_eq!(
        shared_stats.space_cache_hits,
        (chains.len() - shapes) as u64
    );
    for (a, b) in cold.iter().zip(&shared) {
        assert_eq!(a.best, b.candidate, "shared-space winner diverged");
        assert_eq!(a.profile.time, b.profile.time);
    }

    // --- batched: tune_many with the schedule cache on -------------------
    let batch_engine = FusionEngine::builder(device.clone()).build();
    let batch_start = Instant::now();
    let batched: Vec<TunedKernel> = batch_engine
        .tune_many(&chains)
        .into_iter()
        .map(|r| r.expect("batched tune"))
        .collect();
    let batch_wall = batch_start.elapsed().as_secs_f64();
    let batch_stats = batch_engine.stats();
    assert_eq!(batch_stats.space_builds, shapes as u64);
    assert_eq!(
        batch_stats.cache_misses, shapes as u64,
        "identical chains dedup to one search per shape"
    );
    // tune_many dedups same-content chains onto the first occurrence's
    // kernel (the measured noise is seeded per chain name, so only the
    // first of each shape has a per-chain reference to compare against).
    for (i, fp) in fingerprints.iter().enumerate() {
        let first = first_of_shape
            .iter()
            .copied()
            .find(|&j| &fingerprints[j] == fp)
            .unwrap();
        assert_eq!(
            batched[i].candidate, batched[first].candidate,
            "same-shape chains must share the deduplicated kernel"
        );
    }
    for &i in &first_of_shape {
        assert_eq!(
            batched[i].candidate, cold[i].best,
            "batched winner diverged from the per-chain build"
        );
    }

    println!(
        "  cold         : {cold_wall:>7.2} s  ({} scans, {} searches)",
        chains.len(),
        chains.len()
    );
    println!(
        "  shared-space : {shared_wall:>7.2} s  ({} scans, {} searches, {} space hits)",
        shared_stats.space_builds, shared_stats.cache_misses, shared_stats.space_cache_hits,
    );
    println!(
        "  batched      : {batch_wall:>7.2} s  ({} scans, {} searches)",
        batch_stats.space_builds, batch_stats.cache_misses
    );
    println!(
        "  shared-space saves {:.0}% of cold wall time; batched {:.0}%",
        100.0 * (1.0 - shared_wall / cold_wall),
        100.0 * (1.0 - batch_wall / cold_wall)
    );
    // Bounded-LRU eviction counters: this workload fits both caches, so
    // the counters must exist and stay at zero — a nonzero value here
    // means the capacity clamps regressed.
    println!(
        "  evictions    : space {} / tuning cache {}",
        shared_stats.space_evictions, shared_stats.tuning_cache_evictions
    );
    assert_eq!(
        (
            shared_stats.space_evictions,
            shared_stats.tuning_cache_evictions
        ),
        (0, 0),
        "this workload fits the bounded caches; evictions mean the LRU capacity regressed"
    );

    mcfuser_bench::write_json(
        "tune_smoke",
        &serde_json::json!({
            "chains": chains.len(),
            "distinct_shapes": shapes,
            "cold_wall_seconds": cold_wall,
            "shared_space_wall_seconds": shared_wall,
            "batched_wall_seconds": batch_wall,
            "cold_scans": chains.len(),
            "shared_space_scans": shared_stats.space_builds,
            "shared_space_hits": shared_stats.space_cache_hits,
            "batched_searches": batch_stats.cache_misses,
            "space_evictions": shared_stats.space_evictions,
            "tuning_cache_evictions": shared_stats.tuning_cache_evictions,
            "speedup_shared_vs_cold": cold_wall / shared_wall,
            "speedup_batched_vs_cold": cold_wall / batch_wall,
        }),
    );
    println!("OK — tune_smoke invariants hold.");
}
