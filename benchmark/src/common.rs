//! What every workload shares: the metric tables, the run context, the
//! per-layer metric builder, and the cold compile pass.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mcfuser_baselines::Relay;
use mcfuser_core::{EngineStats, ExecutablePlan, FusionEngine, Step, TunedKernel};
use mcfuser_ir::{ChainSpec, Graph};
use mcfuser_sim::DeviceSpec;

use crate::replay::{CompileReplay, Counters, Winner};
use crate::stats::{median, Rng};
use crate::trace::{layer_totals, Span, Tracer};

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off. "op" is the workload's unit of work: one tuning or
/// graph-compile job (`compile_suite`), one request (`serve_mix`), one
/// decoded token (`decode_sessions`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("compile_s", "s"),
    ("setup_s", "s"),
    ("tune_virtual_s", "virtual_s"),
    ("kernel_virtual_us", "virtual_us"),
    ("model_virtual_us", "virtual_us"),
    ("op_virtual_us", "virtual_us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload with
/// tracing on. A layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // ir.partition
    ("partition.ms", "ms"),
    ("partition.chains", "count"),
    ("partition.stitched", "count"),
    // core.space
    ("space.ms", "ms"),
    ("space.grid", "count"),
    ("space.survivors", "count"),
    ("space.cache_hits", "count"),
    // core.perf_model
    ("estimate.us", "us"),
    ("estimates", "count"),
    // core.search
    ("search.ms", "ms"),
    ("search.rounds", "count"),
    ("search.compiles", "count"),
    ("search.measurements", "count"),
    ("search.measure_ratio", "ratio"),
    // tile.lower
    ("lower.us", "us"),
    ("lower.reject_ratio", "ratio"),
    // sim.timing
    ("measure.us", "us"),
    // sim.verify
    ("verify.us", "us"),
    ("verify.rejects", "count"),
    // core.engine
    ("compile.ms", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    // core.plan
    ("plan.ms", "ms"),
    // core.runtime
    ("infer.ms", "ms"),
    ("runtime.self_ms", "ms"),
    ("weights.hit_ratio", "ratio"),
    // sim.exec_vec
    ("kernel.ms", "ms"),
    ("kernel.gflop", "GFLOP"),
    ("kernel.mb", "MB"),
    // ir.reference
    ("reference.glue_ms", "ms"),
    ("reference.weight_ms", "ms"),
    // core.batch
    ("batch.w1_ms", "ms"),
    ("batch.w2_ms", "ms"),
    ("batch.widened_ratio", "ratio"),
    // core.scheduler
    ("queue.wait_ms", "ms"),
    ("batch.width1", "count"),
    ("batch.width2", "count"),
    ("queue.rejected", "count"),
    ("queue.expired", "count"),
    // core.session
    ("session.prefill_ms", "ms"),
    ("session.step_ms", "ms"),
    ("session.migrate_ms", "ms"),
    // the tracing itself
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Cold compiles timed per run by the serving workloads, whose model
/// sets compile in tens of milliseconds; `compile_s` is their median.
/// The set-ups supply some; extra compiles make up the rest.
pub const COMPILE_SAMPLES: usize = 51;

/// Sub-windows the serving loops' wall metrics are medians over.
pub const WINDOWS: usize = 9;

/// Engine tuning parallelism. One worker: on the two-vCPU host the
/// benchmark is sized for, the second vCPU's share of the machine comes
/// and goes over minutes, so a parallel compile's time depended on when
/// it ran rather than on the code.
pub const PARALLELISM: usize = 1;

/// Candidates sampled per built space by the traced compile replay.
pub const REPLAY_SAMPLES: usize = 8;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Workload seed: inputs, request order and `RunOptions` seeds.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl RunCtx {
    /// A generator for one named stream of this run's inputs.
    pub fn rng(&self, stream: &str) -> Rng {
        Rng::new(self.seed, stream)
    }

    /// The measured window, split for a traced run into an untraced
    /// half (the overhead baseline) and a traced half.
    pub fn windows(&self) -> (Duration, Duration) {
        let total = Duration::from_secs_f64(self.seconds);
        if self.trace {
            (total / 2, total - total / 2)
        } else {
            (total, Duration::ZERO)
        }
    }
}

/// Per-layer metric values; every name must come from [`PER_LAYER`].
#[derive(Debug, Clone)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    /// Set one metric.
    ///
    /// # Panics
    /// On a name missing from [`PER_LAYER`] (a benchmark bug).
    pub fn set(&mut self, name: &'static str, v: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = if v.is_finite() { v } else { 0.0 };
    }

    /// Fill the compile-layer metrics from a traced compile's spans and
    /// counters, per pass.
    pub fn set_compile(&mut self, spans: &[Span], c: &Counters, passes: f64, stats: &EngineStats) {
        let totals = layer_totals(spans);
        let mean_ms = |layer: &str| {
            totals
                .get(layer)
                .filter(|t| t.spans > 0)
                .map_or(0.0, |t| t.total_ms / t.spans as f64)
        };
        let per_pass = |k: &str| c.get(k) / passes;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        self.set("partition.ms", mean_ms("ir.partition"));
        self.set("partition.chains", per_pass("partition_chains"));
        self.set("partition.stitched", per_pass("partition_stitched"));
        self.set("space.ms", mean_ms("core.space"));
        self.set("space.grid", per_pass("space_grid"));
        self.set("space.survivors", per_pass("space_survivors"));
        self.set("space.cache_hits", stats.space_cache_hits as f64 / passes);
        self.set("estimate.us", 1e3 * mean_ms("core.perf_model"));
        self.set("estimates", per_pass("search_estimates"));
        self.set("search.ms", mean_ms("core.search"));
        self.set(
            "search.rounds",
            ratio(c.get("search_rounds"), c.get("searches")),
        );
        self.set("search.compiles", per_pass("search_compiles"));
        self.set("search.measurements", per_pass("search_measurements"));
        self.set(
            "search.measure_ratio",
            ratio(c.get("search_measurements"), c.get("search_compiles")),
        );
        self.set("lower.us", 1e3 * mean_ms("tile.lower"));
        self.set(
            "lower.reject_ratio",
            ratio(c.get("lower_rejects"), c.get("lower_calls")),
        );
        self.set("measure.us", 1e3 * mean_ms("sim.timing"));
        self.set("verify.us", 1e3 * mean_ms("sim.verify"));
        self.set("verify.rejects", per_pass("verify_rejects"));
        self.set("compile.ms", mean_ms("core.engine"));
        self.set(
            "engine.cache_hit_ratio",
            ratio(
                stats.cache_hits as f64,
                (stats.cache_hits + stats.cache_misses) as f64,
            ),
        );
        self.set("plan.ms", mean_ms("core.plan"));
    }
}

/// Everything a workload hands back to `main`.
#[derive(Debug)]
pub struct Out {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and how they failed.
    pub tally: crate::stats::Tally,
    /// Workload-specific detail for the report file.
    pub detail: serde_json::Value,
    /// The span table of a traced run.
    pub spans: Vec<Span>,
}

/// A fresh engine for the A100 with the Relay fallback, as every
/// workload builds it.
pub fn engine() -> FusionEngine {
    FusionEngine::builder(DeviceSpec::a100())
        .fallback(Relay::new())
        .parallelism(PARALLELISM)
        .build()
}

/// Restrict the process to one CPU of those it may run on (the highest),
/// before it starts any thread: threads inherit the mask, and
/// `available_parallelism` — which sizes the Rule-4 space scan's worker
/// pool — then reads 1, so every compile runs on one thread. Returns the
/// CPU, or `None` where the mask cannot be read or set.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer of `size`
    // bytes; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer of `size`
    // bytes; pid 0 is the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Elsewhere the process is left as it is.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// One compile job of a pass.
#[derive(Debug, Clone)]
pub enum Job {
    /// Tune one chain (`FusionEngine::tune`).
    Chain(ChainSpec),
    /// Compile a graph and freeze it into a plan
    /// (`FusionEngine::compile` + `CompiledModel::plan`).
    Graph(Graph),
}

impl Job {
    /// The job's chain or graph name.
    pub fn name(&self) -> &str {
        match self {
            Job::Chain(c) => &c.name,
            Job::Graph(g) => &g.name,
        }
    }
}

/// The deterministic virtual-clock results of one compile pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Virtuals {
    /// Summed `TuningReport::virtual_seconds` of the pass's engine.
    pub tune_s: f64,
    /// Summed virtual time of every kernel the pass tuned, µs.
    pub kernel_us: f64,
    /// Summed `virtual_time_per_request` of the pass's plans, µs.
    pub model_us: f64,
}

impl Virtuals {
    /// Bit-exact equality (these must not drift between passes).
    pub fn same_bits(&self, o: &Virtuals) -> bool {
        self.tune_s.to_bits() == o.tune_s.to_bits()
            && self.kernel_us.to_bits() == o.kernel_us.to_bits()
            && self.model_us.to_bits() == o.model_us.to_bits()
    }
}

/// The result of one cold compile pass on a fresh engine.
pub struct Pass {
    /// Wall seconds of the whole pass (engine calls only).
    pub seconds: f64,
    /// Wall seconds per job, in job order.
    pub job_seconds: Vec<f64>,
    /// Per job: the engine's winners (`Err` = the job failed).
    pub winners: Vec<Result<Vec<(String, Winner)>, String>>,
    /// Per job: a chain job's tuned kernel (for verification and execution).
    pub kernels: Vec<Option<TunedKernel>>,
    /// Per job: a graph job's frozen plan.
    pub plans: Vec<Option<ExecutablePlan>>,
    /// Deterministic virtual results.
    pub virtuals: Virtuals,
    /// Engine counters at the end of the pass.
    pub stats: EngineStats,
    /// Replayed winners per job (traced passes only); `Err` when the
    /// replay failed or diverged.
    pub replay: Vec<Result<(), String>>,
    /// Counters gathered by the replay.
    pub counters: Counters,
}

/// Summed kernel time of a plan's fused steps, seconds.
pub fn plan_kernel_seconds(plan: &ExecutablePlan) -> f64 {
    plan.steps()
        .iter()
        .map(|s| match s {
            Step::Fused { kernel_time, .. } => *kernel_time,
            Step::Reference { .. } => 0.0,
        })
        .sum()
}

/// Run one cold compile pass over `jobs` on a fresh engine. With
/// tracing enabled, the pass is one operation: each engine call gets a
/// `core.engine` span, each `plan` a `core.plan` span, and afterwards
/// the whole pipeline is replayed layer by layer and the replayed
/// winners are compared with the engine's.
pub fn compile_pass(jobs: &[Job], tracer: &Tracer, rng: &Rng) -> Pass {
    let engine = engine();
    let op = tracer.new_op();
    let root = tracer.open("compile.pass", op, None);
    let mut job_seconds = Vec::with_capacity(jobs.len());
    let mut winners = Vec::with_capacity(jobs.len());
    let mut kernels = Vec::with_capacity(jobs.len());
    let mut plans = Vec::with_capacity(jobs.len());
    let mut kernel_s = 0.0f64;
    let mut model_s = 0.0f64;
    let start = Instant::now();
    for job in jobs {
        let t0 = Instant::now();
        match job {
            Job::Chain(chain) => {
                let sp = tracer.open("core.engine", 0, Some(&root));
                let r = engine.tune(chain);
                tracer.close(sp, chain.name.clone());
                job_seconds.push(t0.elapsed().as_secs_f64());
                match r {
                    Ok(t) => {
                        kernel_s += t.profile.time;
                        winners.push(Ok(vec![(chain.name.clone(), Winner::of(&t))]));
                        kernels.push(Some(t));
                    }
                    Err(e) => {
                        winners.push(Err(e.to_string()));
                        kernels.push(None);
                    }
                }
                plans.push(None);
            }
            Job::Graph(graph) => {
                let sp = tracer.open("core.engine", 0, Some(&root));
                let compiled = engine.compile(graph);
                tracer.close(sp, graph.name.clone());
                let planned = compiled.map_err(|e| e.to_string()).and_then(|m| {
                    let sp = tracer.open("core.plan", 0, Some(&root));
                    let p = m.plan(graph);
                    tracer.close(sp, graph.name.clone());
                    p.map(|p| (m, p)).map_err(|e| e.to_string())
                });
                job_seconds.push(t0.elapsed().as_secs_f64());
                match planned {
                    Ok((m, p)) => {
                        kernel_s += m.chains.iter().map(|c| c.tuned.profile.time).sum::<f64>();
                        model_s += p.virtual_time_per_request();
                        winners.push(Ok(Winner::of_model(&m)));
                        plans.push(Some(p));
                    }
                    Err(e) => {
                        winners.push(Err(e));
                        plans.push(None);
                    }
                }
                kernels.push(None);
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();

    let mut replay = Vec::new();
    let mut counters = Counters::default();
    if tracer.enabled() {
        let mut r = CompileReplay::new(&engine, tracer, REPLAY_SAMPLES, rng.clone());
        for (job, expected) in jobs.iter().zip(&winners) {
            let sp = tracer.open("compile.replay", 0, Some(&root));
            let got = match job {
                Job::Chain(c) => r.tune(&sp, c, &[]).map(|w| vec![(c.name.clone(), w)]),
                Job::Graph(g) => r.compile(&sp, g),
            };
            tracer.close(sp, job.name().to_string());
            replay.push(match (got, expected) {
                (Ok(got), Ok(exp)) if got == *exp => Ok(()),
                (Ok(_), Ok(_)) => Err(format!("{}: replayed winners differ", job.name())),
                (Err(e), _) => Err(e),
                (Ok(_), Err(e)) => Err(format!("{}: engine failed: {e}", job.name())),
            });
        }
        counters = r.counters;
    }
    tracer.close(root, "pass");
    let stats = engine.stats();
    let virtuals = Virtuals {
        tune_s: engine.session_report().virtual_seconds,
        kernel_us: kernel_s * 1e6,
        model_us: model_s * 1e6,
    };
    Pass {
        seconds,
        job_seconds,
        winners,
        kernels,
        plans,
        virtuals,
        stats,
        replay,
        counters,
    }
}

/// Median of a sample, 0 for an empty one.
pub fn median_or_zero(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// A tail statistic for the report.
pub fn tail_json(t: Option<crate::stats::Tail>) -> serde_json::Value {
    match t {
        Some(t) => {
            serde_json::json!({"value": t.value, "percentile": t.percentile, "samples": t.samples})
        }
        None => serde_json::Value::Null,
    }
}

/// Per sub-window tails for the report.
pub fn tails_json(tails: &[crate::stats::Tail]) -> serde_json::Value {
    serde_json::Value::Array(tails.iter().map(|&t| tail_json(Some(t))).collect())
}

/// Replay counters for the report.
pub fn counters_json(c: &Counters) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    for (k, v) in &c.0 {
        m.insert((*k).to_string(), serde_json::json!(*v));
    }
    serde_json::Value::Object(m)
}

/// Engine counters for the report.
pub fn stats_json(s: &EngineStats) -> serde_json::Value {
    serde_json::json!({
        "cache_hits": s.cache_hits,
        "cache_misses": s.cache_misses,
        "space_builds": s.space_builds,
        "space_cache_hits": s.space_cache_hits,
        "programs_verified": s.programs_verified,
        "verify_rejects": s.verify_rejects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the repository's `BENCHMARK.json`
    /// must name the same metrics with the same units, in order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().expect("string field").to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
