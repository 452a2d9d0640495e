//! MCFuser-Chimera: the controlled Chimera comparison of §VI-A.
//!
//! "To ensure a rigorous assessment of our search space generation
//! effectiveness against the closed-source Chimera, we implement
//! MCFuser-Chimera. This adaptation integrates Chimera's search space
//! into our framework." Concretely, three deltas versus MCFuser:
//!
//! 1. **deep tilings only** — no flat (sequential-scope) expressions;
//! 2. **data-movement objective** — the analytical model drops the
//!    computation term and the parallelism factor (Chimera minimizes
//!    data movement, "neglecting the impact of redundant computation");
//! 3. **no dead-loop elimination** — statements hoist only to their
//!    rightmost related loop, missing the Fig. 5(b) opportunities.
//!
//! Everything else is MCFuser's own pipeline: the chain is tuned through
//! a [`FusionEngine`] configured with [`SearchParams::chimera`] and a
//! deep-only [`SpacePolicy`], so its winners pass the same static
//! verifier gate as MCFuser's.

use mcfuser_core::{CachePolicy, FusionEngine, SearchParams, SpacePolicy};
use mcfuser_ir::ChainSpec;
use mcfuser_sim::DeviceSpec;

use crate::backend::{engine_run, Backend, Capabilities, ChainRun, Unsupported};

/// The MCFuser-Chimera baseline.
#[derive(Debug, Default, Clone)]
pub struct Chimera;

impl Backend for Chimera {
    fn name(&self) -> &'static str {
        "MCFuser-Chimera"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_mbci: "Yes",
            automatic: "Yes",
            search_space: "Nested block execution order + loop opt.",
            objective: "Minimize data movement",
            tuning_time: "Short",
        }
    }

    fn run_chain(&self, chain: &ChainSpec, dev: &DeviceSpec) -> Result<ChainRun, Unsupported> {
        // One fresh engine per chain: nothing is reused across calls,
        // so every run reports its full tuning cost.
        let engine = FusionEngine::builder(dev.clone())
            .search_params(SearchParams::chimera())
            .space_policy(SpacePolicy {
                deep_tiling_only: true,
                ..SpacePolicy::default()
            })
            .cache(CachePolicy::Disabled)
            .build();
        engine_run(&engine, chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuses_gemm_chains() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let run = Chimera.run_chain(&chain, &DeviceSpec::a100()).unwrap();
        assert!(run.fused);
        assert_eq!(run.kernels, 1);
        assert!(run.time.is_finite());
    }

    #[test]
    fn handles_attention() {
        let chain = ChainSpec::attention("s", 4, 256, 256, 64, 64);
        let run = Chimera.run_chain(&chain, &DeviceSpec::a100()).unwrap();
        assert!(run.fused);
    }

    #[test]
    fn tuning_is_fast() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let run = Chimera.run_chain(&chain, &DeviceSpec::a100()).unwrap();
        assert!(run.tuning_seconds < 300.0, "{}", run.tuning_seconds);
    }

    /// Routing Chimera through the engine changes nothing: the result
    /// is bit-identical to pruning the hand-built deep-only space and
    /// running Algorithm 1 over it directly.
    #[test]
    fn engine_route_matches_the_raw_deep_space_search() {
        use mcfuser_core::{heuristic_search, prune, SearchSpace};
        use mcfuser_sim::TuningClock;
        use mcfuser_tile::{enumerate_deep, tile_options};
        use mcfuser_workloads::{attention_workload, gemm_chain_workload};

        let dev = DeviceSpec::a100();
        for chain in [
            gemm_chain_workload("G1").unwrap(),
            attention_workload("S1").unwrap(),
        ] {
            let space = SearchSpace {
                chain: chain.clone(),
                exprs: enumerate_deep(&chain),
                tile_domains: (0..chain.num_axes())
                    .map(|a| tile_options(chain.axis_extent(a)))
                    .collect(),
            };
            let pruned = prune(&chain, &dev, &space);
            let clock = TuningClock::new();
            let raw = heuristic_search(&chain, &dev, &pruned, &SearchParams::chimera(), &clock)
                .expect("a viable candidate");

            let run = Chimera.run_chain(&chain, &dev).unwrap();
            assert_eq!(
                run.time.to_bits(),
                raw.best_time.to_bits(),
                "{}",
                chain.name
            );
            assert_eq!(
                run.tuning_seconds.to_bits(),
                clock.virtual_seconds().to_bits(),
                "{}",
                chain.name
            );
            assert_eq!(run.note, raw.best.describe(&chain), "{}", chain.name);
        }
    }
}
