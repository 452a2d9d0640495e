//! Search-space generation (§III-A) and the lazy pruned space.
//!
//! The complete space is the Cartesian product of
//!
//! * every tiling expression (deep permutations + flat arrangements), and
//! * every tile-size vector (multiples of 16 per axis).
//!
//! For the paper's running example (2-GEMM chain, M = N = 1024,
//! K = H = 512) this is `(24 + 2) × ⌈1024/16⌉² × ⌈512/16⌉² ≈ 1.09 × 10⁸`
//! candidates — far too many to materialize, so *neither* space in this
//! module ever holds a candidate `Vec`:
//!
//! * [`SearchSpace`] is the un-pruned space, counted analytically and
//!   sampled lazily;
//! * [`CandidateSpace`] is the Rule-1–4 pruned space, addressed by a
//!   dense index `0..len()` that decodes arithmetically to
//!   `(expression, tile vector)`. Rule 4 is a *staircase* over the
//!   Rule-3 tile grid: each grid row's survivors are a prefix of axis 0,
//!   so a prefix sum of per-row survivor counts indexes every survivor —
//!   no materialization cap and no truncation bias.
//!
//! Built spaces are content-addressed ([`space_fingerprint`]) and
//! shareable across tuning tasks through the engine-level
//! [`SpaceCache`]: N same-shaped chains (every BERT layer) pay for one
//! staircase build instead of N.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use rand::prelude::*;

use mcfuser_ir::ChainSpec;
use mcfuser_sim::DeviceSpec;
use mcfuser_tile::{
    enumerate_all, estimate_shmem_bytes_for_tiles, tile_option_count, tile_options, Candidate,
    TilingExpr, RULE4_MARGIN,
};

use crate::lru::Lru;
use crate::prune::PruneStats;

/// The (un-pruned) search space of a chain.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// The chain being tuned.
    pub chain: ChainSpec,
    /// All tiling expressions (deep + flat).
    pub exprs: Vec<TilingExpr>,
    /// Tile-size options per axis.
    pub tile_domains: Vec<Vec<u64>>,
}

impl SearchSpace {
    /// Generate the full space of a chain.
    pub fn generate(chain: &ChainSpec) -> SearchSpace {
        let exprs = enumerate_all(chain);
        let tile_domains = (0..chain.num_axes())
            .map(|a| tile_options(chain.axis_extent(a)))
            .collect();
        SearchSpace {
            chain: chain.clone(),
            exprs,
            tile_domains,
        }
    }

    /// Total candidate count (expressions × tile combinations) — the
    /// paper's 1.09 × 10⁸ for the running example.
    pub fn count(&self) -> u128 {
        let tiles: u128 = (0..self.chain.num_axes())
            .map(|a| tile_option_count(self.chain.axis_extent(a)) as u128)
            .product();
        self.exprs.len() as u128 * tiles
    }

    /// Draw a uniformly random candidate.
    pub fn sample(&self, rng: &mut impl Rng) -> Candidate {
        let expr = self.exprs[rng.gen_range(0..self.exprs.len())].clone();
        let tiles = self
            .tile_domains
            .iter()
            .map(|d| d[rng.gen_range(0..d.len())])
            .collect();
        Candidate::new(expr, tiles)
    }
}

/// The pruned search space Algorithm 1 explores — lazy and indexed.
///
/// A candidate is the pair `(expr_idx, combo_rank)` packed into one dense
/// index `0..len()`: `expr_idx = idx / surviving_combos()` selects the
/// Rule-1/2 representative expression and `combo_rank` the Rule-4
/// survivor among the Rule-3 tile combinations, decoded odometer-style
/// (axis 0 fastest) from [`CandidateSpace::tile_domains`]. The order is
/// identical to what the old eager materialization produced, but nothing
/// is materialized and there is no cap — index `len() - 1` is exactly as
/// reachable as index 0.
///
/// Rule 4 is held as a *staircase*. A grid row is the `|D₀|` consecutive
/// tile combinations that share every axis but axis 0. Eq. 1 does not
/// depend on the tiling expression and never decreases as a tile grows,
/// and the Rule-3 domains ascend, so each row's survivors are a prefix of
/// axis 0. The index is the prefix sum of the per-row prefix lengths:
/// one word per row, exact counts, an O(log rows) decode and an O(1)
/// encode, with no re-filtering.
#[derive(Debug, Clone)]
pub struct CandidateSpace {
    /// The chain.
    pub chain: ChainSpec,
    /// Representative expression per surviving equivalence class.
    pub exprs: Vec<TilingExpr>,
    /// Rule-3-filtered tile options per axis.
    pub tile_domains: Vec<Vec<u64>>,
    /// The pruning waterfall (`after_rule4` always equals [`Self::len`]).
    pub stats: PruneStats,
    /// Total Rule-3 tile combinations (the grid Rule 4 filters).
    grid: u64,
    /// `cum[r]` is the number of Rule-4 survivors in grid rows `0..r`;
    /// `cum.len()` is the row count plus one. With the filter disabled
    /// (the `-rule4` ablation) every row is full.
    cum: Vec<u64>,
    /// Eq. 1 estimate of the all-smallest-tiles combination, the grid's
    /// minimum (filter enabled, non-empty grid only) — the context behind
    /// `EmptySearchSpace` when Rule 4 rejects everything.
    min_estimated_smem: Option<u64>,
}

impl CandidateSpace {
    /// Build the lazy space from the Rule-1–3 survivors. `smem_limit`
    /// enables Rule 4 (`Some(Shm_max)`) or disables it (`None`, the
    /// `-rule4` ablation). `stats` carries the waterfall up to
    /// `after_rule3`; `after_rule4` is finalized here from the exact
    /// survivor count.
    pub(crate) fn build(
        chain: &ChainSpec,
        exprs: Vec<TilingExpr>,
        tile_domains: Vec<Vec<u64>>,
        smem_limit: Option<u64>,
        mut stats: PruneStats,
    ) -> CandidateSpace {
        let grid_wide: u128 = tile_domains.iter().map(|d| d.len() as u128).product();
        assert!(
            grid_wide <= u64::MAX as u128,
            "Rule-3 tile grid exceeds u64 addressing"
        );
        let grid = grid_wide as u64;
        let cum = staircase(chain, &tile_domains, grid, smem_limit);
        let min_estimated_smem = smem_limit
            .filter(|_| grid > 0)
            .map(|_| estimate_shmem_bytes_for_tiles(chain, &decode_tiles(&tile_domains, 0)));
        stats.after_rule4 = exprs.len() as u128 * cum[cum.len() - 1] as u128;
        CandidateSpace {
            chain: chain.clone(),
            exprs,
            tile_domains,
            stats,
            grid,
            cum,
            min_estimated_smem,
        }
    }

    /// Number of candidates reachable by index (= `stats.after_rule4`).
    pub fn len(&self) -> u64 {
        self.exprs.len() as u64 * self.surviving_combos()
    }

    /// Whether the pruned space has no candidates at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rule-4-surviving tile combinations (per expression).
    pub fn surviving_combos(&self) -> u64 {
        self.cum[self.cum.len() - 1]
    }

    /// Size of the Rule-3 tile grid Rule 4 filtered.
    pub fn grid_combos(&self) -> u64 {
        self.grid
    }

    /// Smallest Eq. 1 shared-memory estimate across the Rule-3 grid.
    /// `Some` only when Rule 4 ran over a non-empty grid; this is the
    /// diagnostic surfaced when the filter rejects every combination.
    pub fn min_estimated_smem(&self) -> Option<u64> {
        self.min_estimated_smem
    }

    /// Combinations per grid row: the size of axis 0's domain.
    fn row_len(&self) -> u64 {
        self.tile_domains[0].len() as u64
    }

    /// Decode candidate `idx` (`0..len()`): a binary search of the
    /// staircase finds the survivor's row, O(log rows).
    ///
    /// # Panics
    /// If `idx >= len()`.
    pub fn candidate(&self, idx: u64) -> Candidate {
        assert!(idx < self.len(), "candidate index {idx} out of range");
        let combos = self.surviving_combos();
        let expr = &self.exprs[(idx / combos) as usize];
        let rank = idx % combos;
        // The last row whose prefix count is ≤ rank holds the survivor.
        let row = self.cum.partition_point(|&c| c <= rank) - 1;
        let combo = row as u64 * self.row_len() + (rank - self.cum[row]);
        Candidate::new(expr.clone(), decode_tiles(&self.tile_domains, combo))
    }

    /// The dense index of a candidate, or `None` if the candidate is not
    /// in this space (unknown expression, tile size outside a Rule-3
    /// domain, or a combination Rule 4 rejected). The inverse of
    /// [`CandidateSpace::candidate`]: search mutations use it to keep
    /// survivors addressed by index.
    pub fn index_of(&self, cand: &Candidate) -> Option<u64> {
        let ei = self.exprs.iter().position(|e| *e == cand.expr)? as u64;
        if cand.tiles.len() != self.tile_domains.len() {
            return None;
        }
        // Encode the tile vector as a grid id (axis 0 fastest).
        let mut combo = 0u64;
        let mut mul = 1u64;
        for (d, &t) in self.tile_domains.iter().zip(&cand.tiles) {
            let pos = d.iter().position(|&x| x == t)? as u64;
            combo += pos * mul;
            mul *= d.len() as u64;
        }
        let (row, col) = ((combo / self.row_len()) as usize, combo % self.row_len());
        let start = self.cum[row];
        (col < self.cum[row + 1] - start).then(|| ei * self.surviving_combos() + start + col)
    }

    /// Stream every candidate in index order without materializing any.
    /// `iter().nth(i)` equals [`CandidateSpace::candidate`]`(i)`.
    pub fn iter(&self) -> impl Iterator<Item = Candidate> + '_ {
        let row_len = self.row_len();
        self.exprs.iter().flat_map(move |e| {
            self.cum.windows(2).enumerate().flat_map(move |(row, w)| {
                let base = row as u64 * row_len;
                (base..base + (w[1] - w[0])).map(move |combo| {
                    Candidate::new(e.clone(), decode_tiles(&self.tile_domains, combo))
                })
            })
        })
    }

    /// Draw a candidate from the *Rule-1–3* space, deliberately ignoring
    /// Rule 4 — samples span the pruning boundary (Fig. 10's quadrant
    /// analysis needs both sides of the line).
    pub fn sample_rule3(&self, rng: &mut impl Rng) -> Candidate {
        let expr = self.exprs[rng.gen_range(0..self.exprs.len())].clone();
        let tiles = self
            .tile_domains
            .iter()
            .map(|d| d[rng.gen_range(0..d.len())])
            .collect();
        Candidate::new(expr, tiles)
    }
}

/// The Rule-4 staircase of a Rule-3 grid: `cum[r]` survivors in rows
/// `0..r`. One sequential pass over the rows, with one `partition_point`
/// over axis 0 per row — `O(rows · log |D₀|)` Eq. 1 estimates instead of
/// one per combination. With `smem_limit = None` every row is full.
fn staircase(
    chain: &ChainSpec,
    tile_domains: &[Vec<u64>],
    grid: u64,
    smem_limit: Option<u64>,
) -> Vec<u64> {
    let d0 = &tile_domains[0];
    let row_len = d0.len() as u64;
    let rows = grid.checked_div(row_len).unwrap_or(0);
    let Some(limit) = smem_limit else {
        return (0..=rows).map(|r| r * row_len).collect();
    };
    let mut cum = Vec::with_capacity(rows as usize + 1);
    cum.push(0);
    let mut total = 0u64;
    for row in 0..rows {
        let mut tiles = decode_tiles(tile_domains, row * row_len);
        total += d0.partition_point(|&t| {
            tiles[0] = t;
            combo_fits(chain, &tiles, limit)
        }) as u64;
        cum.push(total);
    }
    cum
}

/// Decode a tile-grid id to its tile vector: mixed-radix with axis 0 as
/// the fastest digit — the same odometer order the eager materialization
/// enumerated. The single source of the index ↔ tiles contract.
fn decode_tiles(tile_domains: &[Vec<u64>], combo: u64) -> Vec<u64> {
    let mut rest = combo;
    tile_domains
        .iter()
        .map(|d| {
            let t = d[(rest % d.len() as u64) as usize];
            rest /= d.len() as u64;
            t
        })
        .collect()
}

/// Rule-4 test for a decoded tile vector (Eq. 1 is
/// expression-independent, so no `Candidate` is built).
fn combo_fits(chain: &ChainSpec, tiles: &[u64], limit: u64) -> bool {
    estimate_shmem_bytes_for_tiles(chain, tiles) as f64 <= RULE4_MARGIN * limit as f64
}

/// Content identity of a built [`CandidateSpace`]: everything space
/// construction reads *except the chain's name* — batch/m/dims (the
/// tile domains), epilogues and biases (expression enumeration and
/// Rules 1–2), dtype and the stitched prologue/epilogue (the Eq. 1
/// estimate), the expression policy, and the Rule-4 budget. Two tuning
/// tasks sharing this fingerprint build bit-identical spaces, so e.g.
/// every same-shaped BERT layer — and every transpose-layout or
/// search-parameter variant of one — maps to one Rule-4 scan.
pub fn space_fingerprint(
    chain: &ChainSpec,
    dev: &DeviceSpec,
    policy: &crate::tuner::SpacePolicy,
) -> String {
    let smem_limit = policy.shared_memory_pruning.then_some(dev.smem_per_block);
    // Exhaustive on purpose: a new `ChainSpec` field fails to compile
    // here until the fingerprint accounts for it.
    let ChainSpec {
        name: _,
        batch,
        m,
        dims,
        epilogues,
        biases,
        dtype,
        prologue,
        stitch_epilogue,
    } = chain;
    format!(
        "b{batch}|m{m}|d{dims:?}|e{epilogues:?}|bi{biases:?}|t{dtype:?}|st{prologue:?}{stitch_epilogue:?}|deep{}|smem{smem_limit:?}",
        policy.deep_tiling_only,
    )
}

/// An engine-level cache of built candidate spaces, shared by every
/// tuning task of a session (the same `Arc`-sharing discipline as
/// [`TuningCache`](crate::TuningCache), but content-addressed by
/// [`space_fingerprint`] instead of the full tuning-task key — the
/// space does not depend on search parameters or input layout, so many
/// tuning tasks map to one space).
///
/// Concurrent requests for the *same* fingerprint block on one
/// `OnceLock` and build exactly once; requests for different
/// fingerprints build in parallel. [`SpaceCache::hits`] feeds
/// [`EngineStats::space_cache_hits`](crate::EngineStats::space_cache_hits);
/// fresh builds are counted by the *caller* (the engine's
/// `space_builds` probe covers the cache-disabled path too).
#[derive(Debug)]
pub struct SpaceCache {
    /// Build-once cells; a cell whose build is still in flight is
    /// pinned, so the build-once guarantee survives eviction.
    entries: Mutex<Lru<String, SpaceCell>>,
    hits: AtomicU64,
}

type SpaceCell = Arc<OnceLock<Arc<CandidateSpace>>>;

/// Default [`SpaceCache`] bound: distinct space fingerprints retained
/// before least-recently-used eviction kicks in. Spaces rebuild
/// deterministically, so eviction costs one Rule-4 scan, never
/// correctness; the bound keeps a long-lived multi-tenant engine's
/// memory proportional to its working set instead of its history.
pub const SPACE_CACHE_CAPACITY: usize = 128;

impl Default for SpaceCache {
    fn default() -> Self {
        Self::with_capacity(SPACE_CACHE_CAPACITY)
    }
}

impl SpaceCache {
    /// An empty cache with the default LRU bound
    /// ([`SPACE_CACHE_CAPACITY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache retaining at most `capacity` spaces (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SpaceCache {
            entries: Mutex::new(Lru::new(capacity, |cell: &SpaceCell| cell.get().is_none())),
            hits: AtomicU64::new(0),
        }
    }

    /// The space for `fingerprint`, building it with `build` if this is
    /// the first request. A concurrent duplicate request waits for the
    /// in-flight build instead of scanning twice.
    ///
    /// Inserting past the capacity evicts the least-recently-used
    /// *completed* space (in-flight builds are never evicted, so the
    /// build-once guarantee holds; holders of an evicted `Arc` keep
    /// using it, and a later request simply rebuilds).
    pub fn get_or_build(
        &self,
        fingerprint: String,
        build: impl FnOnce() -> CandidateSpace,
    ) -> Arc<CandidateSpace> {
        // The build runs outside the lock; only the cell lookup holds it.
        let cell = self
            .entries
            .lock()
            .get_or_insert_with(fingerprint, SpaceCell::default);
        let mut fresh = false;
        let space = cell
            .get_or_init(|| {
                fresh = true;
                Arc::new(build())
            })
            .clone();
        if !fresh {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        space
    }

    /// Requests served from an already-built space.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Spaces dropped by the LRU bound.
    pub fn evictions(&self) -> u64 {
        self.entries.lock().evictions()
    }

    /// Number of cached spaces.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::prune;
    use rand::rngs::StdRng;

    #[test]
    fn paper_example_count() {
        // (24 + 2) × 64² × 32² = 109 051 904 (§III-C).
        let chain = ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512);
        let space = SearchSpace::generate(&chain);
        assert_eq!(space.count(), 109_051_904);
    }

    #[test]
    fn sample_is_within_domains() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 128);
        let space = SearchSpace::generate(&chain);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let c = space.sample(&mut rng);
            assert_eq!(c.tiles.len(), 4);
            for (a, t) in c.tiles.iter().enumerate() {
                assert!(space.tile_domains[a].contains(t));
            }
            assert!(space.exprs.contains(&c.expr));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 128);
        let space = SearchSpace::generate(&chain);
        let a: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..10).map(|_| space.sample(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..10).map(|_| space.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn attention_space_nonempty() {
        let chain = ChainSpec::attention("s", 8, 512, 512, 64, 64);
        let space = SearchSpace::generate(&chain);
        assert_eq!(space.exprs.len(), 26);
        assert!(space.count() > 0);
    }

    fn pruned(chain: &ChainSpec) -> CandidateSpace {
        let space = SearchSpace::generate(chain);
        prune(chain, &DeviceSpec::a100(), &space)
    }

    #[test]
    fn space_cache_evicts_lru_completed_spaces() {
        let cache = SpaceCache::with_capacity(2);
        let chains: Vec<ChainSpec> = (0..3)
            .map(|i| ChainSpec::gemm_chain(format!("c{i}"), 1, 128 << i, 64, 32, 32))
            .collect();
        let build = |i: usize| {
            cache.get_or_build(format!("fp{i}"), || {
                let s = SearchSpace::generate(&chains[i]);
                prune(&chains[i], &DeviceSpec::a100(), &s)
            })
        };
        build(0);
        build(1);
        // Touch 0 so 1 is the LRU victim when 2 overflows the bound.
        build(0);
        assert_eq!(cache.hits(), 1);
        build(2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        // 0 survived (touched); 1 rebuilds from scratch (no new hit).
        let hits_before = cache.hits();
        build(0);
        assert_eq!(cache.hits(), hits_before + 1);
        build(1);
        assert_eq!(cache.hits(), hits_before + 1, "evicted space must rebuild");
    }

    #[test]
    fn indexing_matches_streaming() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 128);
        let space = pruned(&chain);
        assert!(!space.is_empty());
        for (i, streamed) in space.iter().enumerate() {
            assert_eq!(space.candidate(i as u64), streamed, "index {i}");
        }
        assert_eq!(space.iter().count() as u64, space.len());
    }

    #[test]
    fn stats_after_rule4_equals_len() {
        let chain = ChainSpec::attention("s", 8, 256, 256, 64, 64);
        let space = pruned(&chain);
        assert_eq!(space.stats.after_rule4, space.len() as u128);
    }

    #[test]
    fn every_indexed_candidate_passes_rule4() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 512, 256, 256);
        let space = pruned(&chain);
        let dev = DeviceSpec::a100();
        let step = (space.len() / 97).max(1);
        let mut idx = 0;
        while idx < space.len() {
            let c = space.candidate(idx);
            assert!(mcfuser_tile::rule4_fits(&chain, &c, dev.smem_per_block));
            idx += step;
        }
    }

    #[test]
    fn index_of_inverts_candidate_with_and_without_rule4() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 512, 256, 256);
        let filtered = pruned(&chain);
        let full = {
            let space = SearchSpace::generate(&chain);
            let (reps, domains, stats) = crate::prune::rules123(&chain, &space);
            CandidateSpace::build(&chain, reps, domains, None, stats)
        };
        assert!(filtered.surviving_combos() < full.surviving_combos());
        assert_eq!(full.surviving_combos(), full.grid_combos());
        for space in [&filtered, &full] {
            let step = (space.len() / 67).max(1);
            let mut idx = 0;
            while idx < space.len() {
                assert_eq!(
                    space.index_of(&space.candidate(idx)),
                    Some(idx),
                    "round trip at {idx}"
                );
                idx += step;
            }
        }
    }

    #[test]
    fn index_of_rejects_foreign_candidates() {
        let chain = ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512);
        let space = pruned(&chain);
        // A tile size outside every Rule-3 domain.
        let mut foreign = space.candidate(0);
        foreign.tiles[0] = 7;
        assert_eq!(space.index_of(&foreign), None);
        // A Rule-4-rejected combination (sample_rule3 spans the boundary).
        let dev = DeviceSpec::a100();
        let mut rng = StdRng::seed_from_u64(11);
        let rejected = std::iter::repeat_with(|| space.sample_rule3(&mut rng))
            .take(400)
            .find(|c| !mcfuser_tile::rule4_fits(&chain, c, dev.smem_per_block))
            .expect("some candidate is rejected by Rule 4");
        assert_eq!(space.index_of(&rejected), None);
        // A wrong-arity tile vector.
        let mut short = space.candidate(0);
        short.tiles.pop();
        assert_eq!(space.index_of(&short), None);
    }

    #[test]
    fn stitched_chains_get_their_own_fingerprint() {
        // A stitched chain and its unstitched twin share batch/m/dims/
        // epilogues but must not share a Rule-4 space (different Eq. 1).
        let plain = ChainSpec::gemm_chain("g", 1, 512, 64, 256, 256);
        let mut st = plain.clone();
        st.prologue = Some(mcfuser_ir::PrologueSpec {
            residual: true,
            affine: true,
            a_half: false,
            eps: 1e-5,
        });
        st.stitch_epilogue = Some(mcfuser_ir::EpilogueStitch {
            residual: mcfuser_ir::ResidualSource::PrologueOut,
            layer_norm: true,
            affine: true,
            eps: 1e-5,
        });
        let dev = DeviceSpec::a100();
        let pol = crate::tuner::SpacePolicy::default();
        assert_ne!(
            space_fingerprint(&plain, &dev, &pol),
            space_fingerprint(&st, &dev, &pol)
        );
        assert_eq!(
            space_fingerprint(&st.unstitched(), &dev, &pol),
            space_fingerprint(&plain, &dev, &pol)
        );
    }

    #[test]
    fn min_estimated_smem_is_reported() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let space = pruned(&chain);
        let min = space.min_estimated_smem().unwrap();
        // Eq. 1 is monotone, so the smallest-tile combination is the minimum.
        let smallest: Vec<u64> = space.tile_domains.iter().map(|d| d[0]).collect();
        assert_eq!(min, estimate_shmem_bytes_for_tiles(&chain, &smallest));
        assert!(min > 0);
    }

    #[test]
    fn sample_rule3_spans_the_pruning_boundary() {
        let chain = ChainSpec::gemm_chain("g", 1, 1024, 1024, 512, 512);
        let space = pruned(&chain);
        let dev = DeviceSpec::a100();
        let mut rng = StdRng::seed_from_u64(3);
        let (mut kept, mut cut) = (0, 0);
        for _ in 0..400 {
            let c = space.sample_rule3(&mut rng);
            if mcfuser_tile::rule4_fits(&chain, &c, dev.smem_per_block) {
                kept += 1;
            } else {
                cut += 1;
            }
        }
        assert!(kept > 0 && cut > 0, "kept {kept} cut {cut}");
    }
}
