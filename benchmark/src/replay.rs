//! Traced replays: the compile pipeline and the request step loop
//! re-driven through each layer's public functions, one span per call.
//!
//! A replay repeats work the system already did inside one opaque call
//! (`FusionEngine::compile`, `ModelRuntime::infer`) so the time can be
//! split by layer from outside. Replays must reproduce the system's
//! results exactly; any difference is reported as a mismatch.

use std::collections::BTreeMap;
use std::sync::Arc;

use rustc_hash::FxHashMap;

use mcfuser_core::{
    build_candidate_space, estimate_with, heuristic_search, space_fingerprint, CacheKey,
    CandidateSpace, CompiledModel, ExecutablePlan, FusionEngine, SearchParams, SpacePolicy, Step,
    TunedKernel,
};
use mcfuser_ir::{
    evaluate_node_with, partition_with, ChainSpec, Graph, NodeId, Op, PartitionOptions,
};
use mcfuser_sim::{
    measure_noisy, verify_program, BufferArena, DeviceSpec, ExecBackend, HostTensor, TensorStorage,
    TuningClock,
};
use mcfuser_tile::{lower, Candidate, LoweringOptions};

use crate::stats::Rng;
use crate::trace::{Open, Tracer};

/// Named counters accumulated alongside the spans.
#[derive(Debug, Clone, Default)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    /// Add `v` to counter `k`.
    pub fn add(&mut self, k: &'static str, v: f64) {
        *self.0.entry(k).or_default() += v;
    }

    /// Current value of `k` (0 if never added).
    pub fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0.0)
    }

    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }
}

/// A tuned schedule, compared bit for bit between the engine and the
/// replay: the winning candidate and its measured kernel time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Winner {
    /// The winning schedule.
    pub candidate: Candidate,
    /// `KernelProfile::time` of the winner, as raw bits.
    pub time_bits: u64,
}

impl Winner {
    /// The engine's winner for a tuned kernel.
    pub fn of(t: &TunedKernel) -> Self {
        Winner {
            candidate: t.candidate.clone(),
            time_bits: t.profile.time.to_bits(),
        }
    }

    /// The engine's winners of a compiled graph, in partition order.
    pub fn of_model(m: &CompiledModel) -> Vec<(String, Winner)> {
        m.chains
            .iter()
            .map(|c| (c.chain.name.clone(), Winner::of(&c.tuned)))
            .collect()
    }
}

/// Replays `FusionEngine` compiles: `partition_with` →
/// `build_candidate_space` → `heuristic_search` → `lower` / `measure` /
/// `verify_program` on the winner, plus a sample of candidates per
/// space through `estimate_with` and `lower` for per-call costs and
/// the lowering reject ratio.
///
/// Holds the same per-engine state the engine does — tuning results by
/// cache key and spaces by fingerprint — so one replay mirrors one
/// fresh engine.
pub struct CompileReplay<'a> {
    dev: DeviceSpec,
    params: SearchParams,
    policy: SpacePolicy,
    lower_opts: LoweringOptions,
    stitch: bool,
    tracer: &'a Tracer,
    samples: usize,
    rng: Rng,
    tuned: FxHashMap<String, Result<Winner, String>>,
    spaces: FxHashMap<String, Arc<CandidateSpace>>,
    /// Counts gathered by the replay (grid sizes, rounds, rejects …).
    pub counters: Counters,
}

impl<'a> CompileReplay<'a> {
    /// A replay of `engine`'s configuration (default space policy,
    /// stitching on), sampling `samples` candidates per built space.
    pub fn new(engine: &FusionEngine, tracer: &'a Tracer, samples: usize, rng: Rng) -> Self {
        let params = engine.params().clone();
        let dev = engine.device().clone();
        let lower_opts = if params.dead_loop_elimination {
            LoweringOptions::for_device(&dev)
        } else {
            LoweringOptions::for_device(&dev).without_dead_loop_elimination()
        };
        CompileReplay {
            dev,
            params,
            policy: SpacePolicy::default(),
            lower_opts,
            stitch: true,
            tracer,
            samples,
            rng,
            tuned: FxHashMap::default(),
            spaces: FxHashMap::default(),
            counters: Counters::default(),
        }
    }

    /// Replay `FusionEngine::tune_with_layout` for one chain.
    pub fn tune(
        &mut self,
        parent: &Open,
        chain: &ChainSpec,
        layout: &[bool],
    ) -> Result<Winner, String> {
        let key = CacheKey::new(chain, layout, &self.dev, &self.params, &self.policy).canonical();
        if let Some(hit) = self.tuned.get(&key) {
            self.counters.add("tuning_hits", 1.0);
            return hit.clone();
        }
        let result = self.tune_fresh(parent, chain);
        self.tuned.insert(key, result.clone());
        result
    }

    fn tune_fresh(&mut self, parent: &Open, chain: &ChainSpec) -> Result<Winner, String> {
        let t = self.tracer;
        let fp = space_fingerprint(chain, &self.dev, &self.policy);
        let space = match self.spaces.get(&fp) {
            Some(s) => {
                self.counters.add("space_hits", 1.0);
                s.clone()
            }
            None => {
                let sp = t.open("core.space", 0, Some(parent));
                let space = Arc::new(build_candidate_space(chain, &self.dev, &self.policy));
                t.close(sp, chain.name.clone());
                self.counters.add("space_builds", 1.0);
                self.counters.add("space_grid", space.grid_combos() as f64);
                self.counters.add("space_survivors", space.len() as f64);
                self.spaces.insert(fp, space.clone());
                space
            }
        };
        if space.is_empty() {
            return Err(format!("{}: empty search space", chain.name));
        }

        let clock = TuningClock::new();
        let sp = t.open("core.search", 0, Some(parent));
        let outcome = heuristic_search(chain, &self.dev, &space, &self.params, &clock);
        t.close(sp, chain.name.clone());
        let report = clock.report();
        self.counters.add("searches", 1.0);
        self.counters.add("search_compiles", report.compiles as f64);
        self.counters
            .add("search_measurements", report.measurements as f64);
        self.counters
            .add("search_estimates", report.estimates as f64);
        let outcome = outcome.ok_or_else(|| format!("{}: no viable candidate", chain.name))?;
        self.counters.add("search_rounds", outcome.rounds as f64);

        // The winner again, one layer at a time.
        let (kernel, rejected) = self.lower_one(parent, chain, &outcome.best, "winner");
        let kernel = kernel.ok_or_else(|| format!("{}: winner no longer lowers", chain.name))?;
        if rejected {
            return Err(format!("{}: winner exceeds shared memory", chain.name));
        }
        let sp = t.open("sim.timing", 0, Some(parent));
        let profile = measure_noisy(&kernel.program, &self.dev, self.params.seed);
        t.close(sp, chain.name.clone());
        self.counters.add("measures", 1.0);
        if !self.verify_one(parent, chain, &kernel.program) {
            return Err(format!("{}: winner fails verification", chain.name));
        }
        if profile.time.to_bits() != outcome.profile.time.to_bits() {
            return Err(format!("{}: re-measured winner differs", chain.name));
        }

        // A sample of the space: per-call model, lowering and
        // verification costs, and how often lowering rejects.
        for _ in 0..self.samples {
            let idx = self.rng.next_u64() % space.len();
            let cand = space.candidate(idx);
            let sp = t.open("core.perf_model", 0, Some(parent));
            let est = estimate_with(chain, &cand, &self.dev, &self.params.model);
            t.close(sp, chain.name.clone());
            self.counters.add("estimate_calls", 1.0);
            std::hint::black_box(&est);
            if let (Some(k), false) = self.lower_one(parent, chain, &cand, "sample") {
                let sp = t.open("sim.timing", 0, Some(parent));
                std::hint::black_box(measure_noisy(&k.program, &self.dev, self.params.seed));
                t.close(sp, chain.name.clone());
                self.counters.add("measures", 1.0);
                self.verify_one(parent, chain, &k.program);
            }
        }

        Ok(Winner {
            candidate: outcome.best,
            time_bits: outcome.profile.time.to_bits(),
        })
    }

    /// Lower one candidate; returns the kernel (if it lowered) and
    /// whether it is rejected (lowering failed or over the block's
    /// shared memory — the search's launchability test).
    fn lower_one(
        &mut self,
        parent: &Open,
        chain: &ChainSpec,
        cand: &Candidate,
        what: &str,
    ) -> (Option<mcfuser_tile::LoweredKernel>, bool) {
        let sp = self.tracer.open("tile.lower", 0, Some(parent));
        let lowered = lower(chain, cand, &self.lower_opts).ok();
        self.tracer.close(sp, format!("{} {what}", chain.name));
        self.counters.add("lower_calls", 1.0);
        let rejected = lowered
            .as_ref()
            .is_none_or(|k| k.smem_bytes > self.dev.smem_per_block);
        if rejected {
            self.counters.add("lower_rejects", 1.0);
        }
        (lowered, rejected)
    }

    fn verify_one(
        &mut self,
        parent: &Open,
        chain: &ChainSpec,
        p: &mcfuser_sim::TileProgram,
    ) -> bool {
        let sp = self.tracer.open("sim.verify", 0, Some(parent));
        let ok = verify_program(p).is_ok();
        self.tracer.close(sp, chain.name.clone());
        self.counters.add("verify_calls", 1.0);
        if !ok {
            self.counters.add("verify_rejects", 1.0);
        }
        ok
    }

    /// Replay `FusionEngine::compile` for one graph: partition, then
    /// tune every chain in partition order, demoting a stitched chain
    /// whose fused kernel fails to its unstitched twin exactly as the
    /// engine does. Returns `(chain name, winner)` in partition order.
    pub fn compile(
        &mut self,
        parent: &Open,
        graph: &Graph,
    ) -> Result<Vec<(String, Winner)>, String> {
        let sp = self.tracer.open("ir.partition", 0, Some(parent));
        let part = partition_with(
            graph,
            &self.dev,
            PartitionOptions {
                stitch: self.stitch,
            },
        );
        self.tracer.close(sp, graph.name.clone());
        self.counters.add("partitions", 1.0);
        self.counters
            .add("partition_chains", part.chains.len() as f64);
        let stitched = part
            .chains
            .iter()
            .filter(|c| c.unstitched.is_some())
            .count();
        self.counters.add("partition_stitched", stitched as f64);

        let mut winners = Vec::with_capacity(part.chains.len());
        for fc in &part.chains {
            let (src, w) = match self.tune(parent, &fc.chain, &fc.transposed_inputs) {
                Ok(w) => (fc, w),
                Err(e) => {
                    let Some(twin) = fc.unstitched.as_deref() else {
                        return Err(e);
                    };
                    self.counters.add("stitch_demotions", 1.0);
                    (
                        twin,
                        self.tune(parent, &twin.chain, &twin.transposed_inputs)?,
                    )
                }
            };
            winners.push((src.chain.name.clone(), w));
        }
        Ok(winners)
    }
}

/// Wall time one replayed request spent per layer.
#[derive(Debug, Clone, Default)]
pub struct RequestSplit {
    /// Fused kernels (`sim.exec_vec`), seconds.
    pub kernel_s: f64,
    /// Non-weight reference steps (`ir.reference` glue), seconds.
    pub glue_s: f64,
    /// Weight reference steps, seconds.
    pub weight_s: f64,
    /// Fused steps replayed.
    pub fused_steps: u64,
}

/// Weight tensors the request replay has derived, keyed like
/// `init_weight` derives them — by graph name, node name and seed — so
/// replayed weight steps cost what the runtime's cached ones do.
#[derive(Debug, Default)]
pub struct WeightMemo(FxHashMap<(String, String, u64), Arc<HostTensor>>);

/// Replay one request through its plan's frozen steps: every
/// `Step::Fused` program on the vectorized executor, every
/// `Step::Reference` through `evaluate_node_with`. Staging and output
/// publication stay outside the layer spans (they are runtime work).
/// Returns the per-layer split and the primary output.
#[allow(clippy::too_many_arguments)]
pub fn replay_request(
    tracer: &Tracer,
    parent: &Open,
    graph: &Graph,
    plan: &ExecutablePlan,
    inputs: &[(String, HostTensor)],
    seed: u64,
    weights: &mut WeightMemo,
    arena: &mut BufferArena,
) -> Result<(RequestSplit, HostTensor), String> {
    let mut values: Vec<Option<Arc<HostTensor>>> = vec![None; graph.nodes.len()];
    for b in plan.inputs() {
        let t = inputs
            .iter()
            .find(|(n, _)| *n == b.name)
            .ok_or_else(|| format!("replay input {} missing", b.name))?;
        values[b.node.0] = Some(Arc::new(t.1.clone()));
    }
    let empty = FxHashMap::default();
    let exec = ExecBackend::Vectorized.executor();
    let mut split = RequestSplit::default();
    for step in plan.steps() {
        match step {
            Step::Reference { node, .. } => {
                let is_weight = matches!(graph.node(*node).op, Op::Weight);
                let key = (graph.name.clone(), graph.node(*node).name.clone(), seed);
                if is_weight {
                    if let Some(w) = weights.0.get(&key) {
                        let sp = tracer.open("ir.reference", 0, Some(parent));
                        values[node.0] = Some(w.clone());
                        split.weight_s += tracer.close(sp, "weight hit");
                        continue;
                    }
                }
                let sp = tracer.open("ir.reference", 0, Some(parent));
                let v = evaluate_node_with(
                    graph,
                    *node,
                    &|n: NodeId| values[n.0].as_deref(),
                    &empty,
                    seed,
                )
                .map_err(|e| format!("reference step {}: {e}", graph.node(*node).name))?;
                let label = if is_weight { "weight" } else { "glue" };
                let dt = tracer.close(sp, format!("{label} {}", graph.node(*node).name));
                let v = Arc::new(v);
                if is_weight {
                    split.weight_s += dt;
                    weights.0.insert(key, v.clone());
                } else {
                    split.glue_s += dt;
                }
                values[node.0] = Some(v);
            }
            Step::Fused {
                chain,
                program,
                data_inputs,
                transposed,
                output,
                out_shape,
                ..
            } => {
                let mut st = TensorStorage::for_program_in(program, arena);
                for (j, node) in data_inputs.iter().enumerate() {
                    let src = values[node.0]
                        .as_deref()
                        .ok_or_else(|| format!("{chain}: input {j} not computed"))?;
                    let staged = if transposed.get(j).copied().unwrap_or(false) {
                        src.transpose_last2().data
                    } else {
                        src.data.clone()
                    };
                    if st.tensors[j].data.len() != staged.len() {
                        return Err(format!("{chain}: input {j} has the wrong size"));
                    }
                    st.tensors[j].data.copy_from_slice(&staged);
                }
                let sp = tracer.open("sim.exec_vec", 0, Some(parent));
                let r = exec.execute_with_arena(program, &mut st, arena);
                split.kernel_s += tracer.close(sp, chain.clone());
                r.map_err(|e| format!("{chain}: {e}"))?;
                split.fused_steps += 1;
                let data = std::mem::take(&mut st.tensors.last_mut().expect("output buffer").data);
                st.recycle(arena);
                values[output.0] = Some(Arc::new(HostTensor::from_vec(out_shape, data)));
            }
        }
    }
    let primary = graph.outputs[0];
    let out = values[primary.0]
        .as_deref()
        .cloned()
        .ok_or_else(|| "primary output not computed".to_string())?;
    Ok((split, out))
}
