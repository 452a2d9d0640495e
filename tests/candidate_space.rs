//! The lazy [`CandidateSpace`] contract: index-for-index equivalent to
//! the eager materialization it replaced, with no caps — candidates the
//! old `Vec` silently clipped are reachable and searched.

use proptest::prelude::*;

use mcfuser::core::{
    build_candidate_space, heuristic_search, prune, CandidateSpace, SearchParams, SearchSpace,
    SpacePolicy,
};
use mcfuser::prelude::*;
use mcfuser::sim::TuningClock;
use mcfuser::tile::{estimate_shmem_bytes, rule4_fits, Candidate, TilingExpr};
use rustc_hash::FxHashMap;

/// The old eager materialization, reproduced as a reference oracle: an
/// axis-0-fastest odometer over the Rule-3 tile domains, Rule 4 as an
/// expression-independent pre-filter, then expression-major candidate
/// construction. (The shipped version additionally clipped the result at
/// 200 000 candidates and 10⁷ odometer steps — the bug under test — so
/// the oracle is only run on small spaces.)
fn eager_materialize(space: &CandidateSpace, smem_limit: Option<u64>) -> Vec<Candidate> {
    let chain = &space.chain;
    let mut combos: Vec<Vec<u64>> = Vec::new();
    if space.tile_domains.iter().all(|d| !d.is_empty()) {
        let mut idx = vec![0usize; space.tile_domains.len()];
        'outer: loop {
            let tiles: Vec<u64> = idx
                .iter()
                .enumerate()
                .map(|(a, &i)| space.tile_domains[a][i])
                .collect();
            let keep = match smem_limit {
                Some(limit) => rule4_fits(
                    chain,
                    &Candidate::new(TilingExpr::Unit, tiles.clone()),
                    limit,
                ),
                None => true,
            };
            if keep {
                combos.push(tiles);
            }
            let mut a = 0;
            loop {
                if a == idx.len() {
                    break 'outer;
                }
                idx[a] += 1;
                if idx[a] < space.tile_domains[a].len() {
                    break;
                }
                idx[a] = 0;
                a += 1;
            }
        }
    }
    let mut out = Vec::new();
    for e in &space.exprs {
        for tiles in &combos {
            out.push(Candidate::new(e.clone(), tiles.clone()));
        }
    }
    out
}

fn small_chain_strategy() -> impl Strategy<Value = ChainSpec> {
    (
        1u64..3,
        prop::sample::select(vec![48u64, 64, 96, 128, 160]),
        prop::sample::select(vec![32u64, 48, 64, 96]),
        prop::sample::select(vec![16u64, 32, 48, 80]),
        prop::sample::select(vec![16u64, 32, 64, 96]),
    )
        .prop_map(|(b, m, n, k, h)| ChainSpec::gemm_chain("prop", b, m, n, k, h))
}

fn device_strategy() -> impl Strategy<Value = DeviceSpec> {
    prop::sample::select(vec![DeviceSpec::a100(), DeviceSpec::rtx3080()]).prop_map(|d| d)
}

/// Devices whose per-block budget cuts into the small grids above, so
/// Rule 4 rejects part of most rows (and, at the smallest budgets,
/// everything) — the stock budgets admit these grids whole.
fn tight_device_strategy() -> impl Strategy<Value = DeviceSpec> {
    (
        device_strategy(),
        prop::sample::select(vec![2u64, 4, 8, 16, 32, 64]),
    )
        .prop_map(|(mut dev, kib)| {
            dev.smem_per_block = kib << 10;
            dev
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lazy enumeration — streaming *and* O(1) indexing — is
    /// index-for-index identical to the eager materialization, and
    /// `PruneStats::after_rule4` is exactly the reachable count.
    #[test]
    fn lazy_space_equals_eager_materialization(
        chain in small_chain_strategy(),
        dev in device_strategy(),
    ) {
        let space = SearchSpace::generate(&chain);
        let pruned = prune(&chain, &dev, &space);
        let eager = eager_materialize(&pruned, Some(dev.smem_per_block));
        prop_assert_eq!(pruned.len() as usize, eager.len());
        prop_assert_eq!(pruned.stats.after_rule4, eager.len() as u128);
        for (i, (lazy, reference)) in pruned.iter().zip(eager.iter()).enumerate() {
            prop_assert_eq!(&lazy, reference, "stream diverges at {}", i);
            prop_assert_eq!(&pruned.candidate(i as u64), reference, "index diverges at {}", i);
        }
    }

    /// The `-rule4` ablation admits the whole Rule-3 grid through the
    /// same lazy space, again index-for-index equal to eager.
    #[test]
    fn lazy_space_without_rule4_equals_eager(
        chain in small_chain_strategy(),
        dev in device_strategy(),
    ) {
        let policy = SpacePolicy { shared_memory_pruning: false, ..Default::default() };
        let pruned = build_candidate_space(&chain, &dev, &policy);
        let eager = eager_materialize(&pruned, None);
        prop_assert_eq!(pruned.len() as usize, eager.len());
        let lazy: Vec<Candidate> = pruned.iter().collect();
        prop_assert_eq!(lazy, eager);
    }

    /// The Rule-4 staircase against the eager oracle, in the encode
    /// direction: every survivor maps back to its own index, and every
    /// Rule-3 combination the oracle rejects maps to `None`. The
    /// staircase relies on Eq. 1 being monotone in each tile extent and
    /// on ascending Rule-3 domains; this test keeps that assumption
    /// honest.
    #[test]
    fn staircase_equals_eager_oracle(
        chain in small_chain_strategy(),
        dev in tight_device_strategy(),
    ) {
        let space = build_candidate_space(&chain, &dev, &SpacePolicy::default());
        check_against_oracle(&space, Some(dev.smem_per_block))?;
        // Monotone Eq. 1 puts the grid minimum at the smallest tiles.
        let min = eager_materialize(&space, None)
            .iter()
            .map(|c| estimate_shmem_bytes(&chain, c))
            .min();
        prop_assert_eq!(space.min_estimated_smem(), min);
    }

    /// The `-rule4` ablation is the same staircase with every row full.
    #[test]
    fn staircase_equals_eager_oracle_without_rule4(
        chain in small_chain_strategy(),
        dev in device_strategy(),
    ) {
        let policy = SpacePolicy { shared_memory_pruning: false, ..Default::default() };
        let space = build_candidate_space(&chain, &dev, &policy);
        prop_assert_eq!(space.surviving_combos(), space.grid_combos());
        prop_assert_eq!(space.min_estimated_smem(), None);
        check_against_oracle(&space, None)?;
    }
}

/// `space` decodes every index to the oracle's candidate, encodes every
/// oracle survivor back to its index, and encodes every Rule-3
/// candidate the oracle rejects to `None`.
fn check_against_oracle(
    space: &CandidateSpace,
    smem_limit: Option<u64>,
) -> Result<(), TestCaseError> {
    let survivors = eager_materialize(space, smem_limit);
    prop_assert_eq!(space.len() as usize, survivors.len());
    prop_assert_eq!(space.stats.after_rule4, survivors.len() as u128);
    let index: FxHashMap<&Candidate, u64> = survivors.iter().zip(0u64..).collect();
    for (i, c) in survivors.iter().enumerate() {
        prop_assert_eq!(&space.candidate(i as u64), c, "decode diverges at {}", i);
    }
    for c in eager_materialize(space, None) {
        prop_assert_eq!(
            space.index_of(&c),
            index.get(&c).copied(),
            "encode of {:?}",
            c
        );
    }
    Ok(())
}

/// A 3-GEMM chain whose pruned space exceeds the old 200 000-candidate
/// materialization cap (non-power-of-two 1536/768 extents keep 14–22
/// Rule-3 options per axis across 5 axes → 273 885 survivors on A100).
fn big_3gemm() -> ChainSpec {
    ChainSpec::chain(
        "mlp3-1536",
        1,
        1536,
        vec![1536, 768, 1536, 768],
        vec![Epilogue::None; 3],
    )
}

#[test]
fn mlp3_1536_staircase_is_exact_and_round_trips() {
    // Too large for the eager oracle: the count is pinned instead, and
    // strided survivors (plus both ends) must pass Rule 4 and encode
    // back to their own index.
    let chain = big_3gemm();
    let dev = DeviceSpec::a100();
    let space = build_candidate_space(&chain, &dev, &SpacePolicy::default());
    assert_eq!(space.len(), 273_885);
    assert_eq!(space.stats.after_rule4, 273_885);
    let step = space.len() / 409;
    let indices = (0..space.len())
        .step_by(step as usize)
        .chain([space.len() - 1]);
    for i in indices {
        let c = space.candidate(i);
        assert!(rule4_fits(&chain, &c, dev.smem_per_block), "index {i}");
        assert_eq!(space.index_of(&c), Some(i), "round trip at {i}");
    }
}

#[test]
fn candidates_beyond_the_old_cap_are_reachable_and_searched() {
    let chain = big_3gemm();
    let dev = DeviceSpec::a100();
    let space = SearchSpace::generate(&chain);
    let pruned = prune(&chain, &dev, &space);

    // The space genuinely exceeds the deleted cap and stays exact.
    assert!(
        pruned.len() > 200_000,
        "space only has {} candidates",
        pruned.len()
    );
    assert_eq!(pruned.stats.after_rule4, pruned.len() as u128);

    // Every index is reachable — including the ones the old eager
    // materialization silently clipped — and decodes to a candidate
    // that passes Rule 4.
    for idx in [200_000, pruned.len() / 2, pruned.len() - 1] {
        let c = pruned.candidate(idx);
        assert!(rule4_fits(&chain, &c, dev.smem_per_block), "index {idx}");
    }

    // The search actually draws from beyond the cap: uniform sampling
    // over the true extent must hit the formerly-truncated tail. (The
    // old code sampled `gen_range(0..200_000)` here — a biased prefix
    // favoring small tiles on low axes.)
    let mut rng = rand::rngs::StdRng::seed_from_u64(SearchParams::default().seed);
    use rand::{Rng, SeedableRng};
    let beyond = (0..64)
        .map(|_| rng.gen_range(0..pruned.len()))
        .filter(|&i| i >= 200_000)
        .count();
    assert!(beyond > 0, "sampling never left the old cap's prefix");

    // And a real (budget-reduced) search over the uncapped space
    // completes and returns a launchable kernel.
    let params = SearchParams {
        population: 32,
        topk: 4,
        max_rounds: 2,
        min_rounds: 1,
        ..Default::default()
    };
    let clock = TuningClock::new();
    let out = heuristic_search(&chain, &dev, &pruned, &params, &clock)
        .expect("search over the uncapped space finds a kernel");
    assert!(out.best_time.is_finite());
    assert!(out.kernel.smem_bytes <= dev.smem_per_block);
}
