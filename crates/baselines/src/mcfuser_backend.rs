//! MCFuser itself behind the uniform [`Backend`] interface, so the
//! evaluation harness treats it like every comparator.
//!
//! Internally this is a [`FusionEngine`] session per target device plus
//! one shared [`ModelRuntime`]: repeated `run_chain` calls on the same
//! device share one engine and therefore one tuning cache, and
//! end-to-end graphs compiled with [`McFuserBackend::serve_graph`] are
//! registered as [`ExecutablePlan`]s and served concurrently through
//! [`McFuserBackend::infer`] — exactly how the engine sits behind a
//! serving endpoint.

use parking_lot::Mutex;
use rustc_hash::FxHashMap;
use std::sync::Arc;

use mcfuser_core::{
    ExecError, ExecutablePlan, FusionEngine, InputSet, ModelRuntime, Outputs, RunOptions,
    SearchParams,
};
use mcfuser_ir::{ChainSpec, Graph};
use mcfuser_sim::DeviceSpec;

use crate::backend::{engine_run, Backend, Capabilities, ChainRun, Unsupported};
use crate::relay::Relay;

/// MCFuser as a benchmarkable backend.
#[derive(Debug, Default)]
pub struct McFuserBackend {
    /// Algorithm 1 parameters for every session this backend opens.
    pub params: SearchParams,
    /// One engine session per device fingerprint.
    engines: Mutex<FxHashMap<String, Arc<FusionEngine>>>,
    /// The serving registry shared by every graph this backend compiles.
    runtime: Arc<ModelRuntime>,
}

impl Clone for McFuserBackend {
    /// Cloning yields a backend with the same configuration and fresh
    /// (empty) engine sessions and runtime.
    fn clone(&self) -> Self {
        McFuserBackend {
            params: self.params.clone(),
            engines: Mutex::new(FxHashMap::default()),
            runtime: Arc::new(ModelRuntime::new()),
        }
    }
}

impl McFuserBackend {
    /// Default-parameter backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// The serving runtime shared by every graph this backend compiles:
    /// hand it to request threads and call
    /// [`ModelRuntime::infer`] (or [`McFuserBackend::infer`]) with the
    /// graph's name.
    pub fn runtime(&self) -> Arc<ModelRuntime> {
        self.runtime.clone()
    }

    /// Compile a graph end to end on `dev` (MBCI partitioning + chain
    /// tuning through the per-device engine session, Relay pricing the
    /// remainder), freeze it into an [`ExecutablePlan`], and register it
    /// in the shared runtime under the graph's name.
    pub fn serve_graph(
        &self,
        graph: &Graph,
        dev: &DeviceSpec,
    ) -> Result<Arc<ExecutablePlan>, Unsupported> {
        let engine = self.engine_for(dev);
        let model = engine
            .compile_with_fallback(graph, &Relay::new())
            .map_err(|e| Unsupported::new(e.to_string()))?;
        let plan = model
            .plan(graph)
            .map_err(|e| Unsupported::new(e.to_string()))?;
        Ok(self.runtime.register(graph.name.clone(), plan))
    }

    /// Serve one request against a graph previously registered with
    /// [`McFuserBackend::serve_graph`].
    pub fn infer(
        &self,
        model: &str,
        inputs: &InputSet,
        opts: RunOptions,
    ) -> Result<Outputs, ExecError> {
        self.runtime.infer(model, inputs, opts)
    }

    /// The engine session for a device (created on first use). Keyed by
    /// the full device fingerprint: two specs differing in any field get
    /// separate sessions.
    pub fn engine_for(&self, dev: &DeviceSpec) -> Arc<FusionEngine> {
        let key = mcfuser_core::cache::device_fingerprint(dev);
        let mut g = self.engines.lock();
        g.entry(key)
            .or_insert_with(|| {
                let engine = Arc::new(
                    FusionEngine::builder(dev.clone())
                        .search_params(self.params.clone())
                        .build(),
                );
                // The shared runtime flushes this engine's tuning cache
                // at shutdown (persistence failures become a Result).
                if let Some(cache) = engine.cache_handle() {
                    self.runtime.attach_cache(cache);
                }
                engine
            })
            .clone()
    }
}

impl Backend for McFuserBackend {
    fn name(&self) -> &'static str {
        "MCFuser"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_mbci: "Yes",
            automatic: "Yes",
            search_space: "Exhaustive tiling-based + rid of redundancy",
            objective: "Analytical performance model",
            tuning_time: "Short",
        }
    }

    fn run_chain(&self, chain: &ChainSpec, dev: &DeviceSpec) -> Result<ChainRun, Unsupported> {
        engine_run(&self.engine_for(dev), chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chimera::Chimera;
    use crate::pytorch::PyTorch;

    #[test]
    fn mcfuser_beats_pytorch_on_mbci_chain() {
        let chain = ChainSpec::gemm_chain("g1", 1, 512, 256, 64, 64);
        let dev = DeviceSpec::a100();
        let ours = McFuserBackend::new().run_chain(&chain, &dev).unwrap();
        let pt = PyTorch.run_chain(&chain, &dev).unwrap();
        assert!(
            ours.time < pt.time,
            "mcfuser {} vs pytorch {}",
            ours.time,
            pt.time
        );
    }

    #[test]
    fn mcfuser_at_least_matches_chimera() {
        let chain = ChainSpec::gemm_chain("g3", 1, 512, 256, 64, 256);
        let dev = DeviceSpec::a100();
        let ours = McFuserBackend::new().run_chain(&chain, &dev).unwrap();
        let chi = Chimera.run_chain(&chain, &dev).unwrap();
        assert!(
            ours.time <= chi.time * 1.05,
            "mcfuser {} vs chimera {}",
            ours.time,
            chi.time
        );
    }

    #[test]
    fn attention_beats_pytorch_clearly() {
        let chain = ChainSpec::attention("s1", 8, 512, 512, 64, 64);
        let dev = DeviceSpec::a100();
        let ours = McFuserBackend::new().run_chain(&chain, &dev).unwrap();
        let pt = PyTorch.run_chain(&chain, &dev).unwrap();
        assert!(
            ours.time < 0.7 * pt.time,
            "mcfuser {} vs pytorch {}",
            ours.time,
            pt.time
        );
    }

    #[test]
    fn serve_graph_registers_a_plan_and_serves_requests() {
        use mcfuser_ir::GraphBuilder;
        use mcfuser_sim::{DType, HostTensor};

        let mut gb = GraphBuilder::new("serve-mlp", DType::F16);
        let x = gb.input("x", vec![64, 32]);
        let y = gb.linear("fc1", x, 64, false);
        let z = gb.linear("fc2", y, 32, false);
        let g = gb.finish(vec![z]);

        let backend = McFuserBackend::new();
        let dev = DeviceSpec::a100();
        let plan = backend.serve_graph(&g, &dev).unwrap();
        assert_eq!(plan.name(), "serve-mlp");
        assert_eq!(backend.runtime().models(), vec!["serve-mlp".to_string()]);

        let inputs = InputSet::new().with("x", HostTensor::zeros(&[64, 32]));
        let a = backend
            .infer("serve-mlp", &inputs, RunOptions::seeded(3))
            .unwrap();
        let b = backend
            .infer("serve-mlp", &inputs, RunOptions::seeded(3))
            .unwrap();
        assert_eq!(a.primary().data, b.primary().data, "deterministic per seed");
        let stats = backend.runtime().stats();
        assert_eq!(stats.requests, 2);
        // Shutdown flushes the engine's (in-memory) cache cleanly.
        assert!(backend.runtime().shutdown().is_ok());
    }

    #[test]
    fn repeated_runs_share_the_session_cache() {
        let chain = ChainSpec::gemm_chain("g1", 1, 512, 256, 64, 64);
        let dev = DeviceSpec::a100();
        let backend = McFuserBackend::new();
        let a = backend.run_chain(&chain, &dev).unwrap();
        let b = backend.run_chain(&chain, &dev).unwrap();
        assert_eq!(a.time, b.time);
        let engine = backend.engine_for(&dev);
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.stats().cache_misses, 1);
    }
}
