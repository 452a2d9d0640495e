//! The serving half of the API: [`ModelRuntime`].
//!
//! A runtime is a `Send + Sync` registry of [`ExecutablePlan`]s. Plans
//! are registered once (`register`) and served concurrently from plain
//! `&self` (`infer`) — there is no per-request locking around execution,
//! only around the plan lookup, the buffer-arena pool, and the stats
//! ledger. Requests are deterministic per `(model, seed)`: an 8-thread
//! stress run produces bit-identical outputs to a serial one.
//!
//! [`ModelRuntime::submit`] serves the same contract through the
//! continuous-batching admission queue (see [`crate::scheduler`]):
//! pending same-`(model, seed)` requests coalesce into one widened
//! fused launch (see [`crate::batch`]), with derived weights reused
//! across requests through a bounded per-`(model, seed)` LRU cache
//! ([`WEIGHT_CACHE_CAPACITY`]).
//!
//! The runtime tracks [`RuntimeStats`]: requests served, per-plan
//! p50/p95 latency on the *virtual* clock (the same clock the tuner
//! charges — see [`TuningClock`](mcfuser_sim::TuningClock)), and bytes
//! moved. On [`ModelRuntime::shutdown`] every attached [`TuningCache`]
//! is flushed, surfacing persistence failures that write-through puts
//! could only warn about.
//!
//! ```
//! use mcfuser_core::{FusionEngine, InputSet, ModelRuntime, RunOptions};
//! use mcfuser_core::compiler::OpCostModel;
//! # use mcfuser_ir::{Graph, GraphBuilder, NodeId};
//! # use mcfuser_sim::{DType, DeviceSpec, HostTensor};
//! # struct Flat;
//! # impl OpCostModel for Flat {
//! #     fn name(&self) -> &str { "flat" }
//! #     fn op_time(&self, _: &Graph, _: NodeId, _: &DeviceSpec) -> f64 { 1e-5 }
//! #     fn tuning_seconds(&self, _: &Graph, _: &[NodeId], _: &DeviceSpec) -> f64 { 0.0 }
//! # }
//! # let mut gb = GraphBuilder::new("two-layer", DType::F16);
//! # let x = gb.input("x", vec![64, 32]);
//! # let y = gb.linear("fc1", x, 64, false);
//! # let z = gb.linear("fc2", y, 32, false);
//! # let graph = gb.finish(vec![z]);
//! let engine = FusionEngine::builder(DeviceSpec::a100()).fallback(Flat).build();
//! let plan = engine.compile_plan(&graph).unwrap();
//!
//! let runtime = ModelRuntime::new();
//! runtime.register("two-layer", plan);
//! let inputs = InputSet::new().with("x", HostTensor::zeros(&[64, 32]));
//! let out = runtime.infer("two-layer", &inputs, RunOptions::seeded(1)).unwrap();
//! assert_eq!(out.primary().shape, vec![64, 32]);
//! assert_eq!(runtime.stats().requests, 1);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rand::prelude::*;
use rustc_hash::FxHashMap;

use mcfuser_sim::BufferArena;

use crate::batch::{run_steps, BatchedPlan, WidenedPlan};
use crate::cache::TuningCache;
use crate::lru::Lru;
use crate::plan::{ExecError, ExecutablePlan, InputSet, Outputs, RunOptions, WeightStore};
use crate::scheduler::Scheduler;

/// How many idle buffer arenas the runtime pools (roughly the number of
/// concurrently executing requests worth keeping warm).
const ARENA_POOL_LIMIT: usize = 32;

/// How many `(model, seed)` weight stores the runtime retains. Each
/// store holds every weight tensor of one plan at one seed, so the cap
/// bounds runtime memory under a rolling-seed workload.
pub const WEIGHT_CACHE_CAPACITY: usize = 32;

/// Latency samples retained per plan — the reservoir size. The cap
/// keeps a long-running runtime's memory (and the `stats()` sort)
/// bounded no matter how many requests it serves.
const LATENCY_SAMPLE_CAP: usize = 4096;

/// A fixed-size uniform sample of a latency stream (Vitter's
/// Algorithm R), deterministic per seed.
///
/// The previous implementation kept only the *first*
/// [`LATENCY_SAMPLE_CAP`] samples, so percentiles were permanently
/// biased toward cold-start requests: once the buffer filled, a
/// late-arriving slow request could never move p95. The reservoir
/// keeps every position of the stream equally likely to be retained —
/// after `n` pushes each sample survives with probability `cap / n` —
/// so the retained set stays a faithful picture of the whole serving
/// history. The RNG is seeded from the model name, so two runs of the
/// same request sequence report identical percentiles.
#[derive(Debug)]
struct LatencyReservoir {
    samples: Vec<f64>,
    /// Samples pushed so far (not capped).
    seen: u64,
    cap: usize,
    rng: StdRng,
}

impl LatencyReservoir {
    fn new(seed: u64) -> Self {
        Self::with_cap(LATENCY_SAMPLE_CAP, seed)
    }

    fn with_cap(cap: usize, seed: u64) -> Self {
        LatencyReservoir {
            samples: Vec::new(),
            seen: 0,
            cap: cap.max(1),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Record one latency sample (Algorithm R: the `n`-th sample enters
    /// the reservoir with probability `cap / n`, evicting a uniformly
    /// random resident).
    fn push(&mut self, latency: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(latency);
            return;
        }
        let j = self.rng.gen_range(0..self.seen);
        if (j as usize) < self.cap {
            self.samples[j as usize] = latency;
        }
    }

    /// The retained samples, ascending (for percentile extraction).
    fn sorted(&self) -> Vec<f64> {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        s
    }
}

/// Deterministic reservoir seed for a model name (Fx hash of the name,
/// so a re-registered model replays identically).
fn reservoir_seed(model: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = rustc_hash::FxHasher::default();
    h.write(model.as_bytes());
    h.finish()
}

/// Per-plan serving counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStats {
    /// The model name.
    pub model: String,
    /// Requests served successfully.
    pub requests: u64,
    /// Median per-request latency on the virtual clock (seconds).
    pub p50_latency: f64,
    /// 95th-percentile per-request latency on the virtual clock.
    pub p95_latency: f64,
    /// Median per-request **wall-clock** latency (seconds) — for queued
    /// requests this is enqueue-to-completion, so it includes batching
    /// delay. Wall time measures the host executing the simulator
    /// (i.e. the execution backend); virtual time measures the modeled
    /// device. Both matter: backend speedups only show up here.
    pub wall_p50_latency: f64,
    /// 95th-percentile per-request wall-clock latency (seconds).
    pub wall_p95_latency: f64,
    /// Total wall-clock seconds this plan's launches kept the host busy
    /// (once per batch, like [`PlanStats::virtual_busy`]), so
    /// `requests / wall_busy` is achieved wall throughput.
    pub wall_busy: f64,
    /// Total global-memory bytes moved by this plan's requests.
    pub bytes_moved: f64,
    /// Total virtual device seconds this plan's launches occupied — a
    /// width-`k` batch contributes its (amortized) span once, not `k`
    /// per-request times, so `requests / virtual_busy` is the plan's
    /// achieved throughput on the virtual clock.
    pub virtual_busy: f64,
    /// Fused-kernel steps per request of the registered plan — static
    /// structure from
    /// [`ExecutablePlan::step_breakdown`], zero if the plan has been
    /// deregistered since its last request.
    pub fused_steps: usize,
    /// Reference (interpreter) steps per request, weight
    /// materialization included.
    pub reference_steps: usize,
    /// Reference steps that are elementwise glue (Add, LayerNorm, …) —
    /// the traffic the prologue/epilogue stitcher exists to eliminate.
    pub reference_elementwise: usize,
    /// Per-request bytes moved by fused steps.
    pub fused_bytes_per_request: f64,
    /// Per-request bytes moved by reference steps.
    pub reference_bytes_per_request: f64,
}

/// A snapshot of everything the runtime has served.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuntimeStats {
    /// Requests served successfully, across all plans.
    pub requests: u64,
    /// Requests rejected with an [`ExecError`] (including admission
    /// rejections and expired deadlines).
    pub failed: u64,
    /// Requests currently admitted to the batching queue but not yet
    /// completed.
    pub queue_depth: u64,
    /// Submissions rejected with [`ExecError::Overloaded`].
    pub rejected: u64,
    /// Queued requests expired with [`ExecError::DeadlineExceeded`].
    pub expired: u64,
    /// Histogram of drained batch widths, `(width, launches)`,
    /// ascending by width.
    pub batch_sizes: Vec<(usize, u64)>,
    /// Weight tensors served from the runtime's weight cache.
    pub weight_cache_hits: u64,
    /// Weight tensors derived because the cache lacked them.
    pub weight_cache_misses: u64,
    /// `(model, seed)` weight stores evicted by the LRU bound.
    pub weight_cache_evictions: u64,
    /// Per-plan breakdown, sorted by model name.
    pub plans: Vec<PlanStats>,
}

impl RuntimeStats {
    /// The stats of one model, if it has served anything.
    pub fn plan(&self, model: &str) -> Option<&PlanStats> {
        self.plans.iter().find(|p| p.model == model)
    }
}

#[derive(Debug)]
struct PlanRecord {
    requests: u64,
    latencies: LatencyReservoir,
    /// Wall-clock latency samples, reservoir-sampled like the virtual
    /// ones (its own RNG stream so the two reservoirs stay independent).
    wall_latencies: LatencyReservoir,
    bytes: f64,
    busy: f64,
    wall_busy: f64,
}

impl PlanRecord {
    fn new(model: &str) -> Self {
        PlanRecord {
            requests: 0,
            latencies: LatencyReservoir::new(reservoir_seed(model)),
            wall_latencies: LatencyReservoir::new(reservoir_seed(model) ^ 1),
            bytes: 0.0,
            busy: 0.0,
            wall_busy: 0.0,
        }
    }
}

/// Flushing attached tuning caches at shutdown failed.
#[derive(Debug)]
pub struct ShutdownError {
    /// One entry per cache that could not persist.
    pub failures: Vec<String>,
    /// The final stats snapshot (shutdown still completes). Boxed so
    /// the `Err` variant stays small next to `Ok(RuntimeStats)`.
    pub stats: Box<RuntimeStats>,
}

impl std::fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "runtime shutdown: {} tuning cache(s) failed to persist: {}",
            self.failures.len(),
            self.failures.join("; ")
        )
    }
}

impl std::error::Error for ShutdownError {}

/// LRU-bounded cache of per-`(model, seed)` [`WeightStore`]s: weight
/// tensors are derived once per plan/seed pair and shared across every
/// request (serial and batched) instead of re-materialized per request.
/// Hit/miss counters are `Arc`-shared with the stores themselves, so
/// evicting a store never loses its counts.
pub(crate) struct WeightCache {
    stores: Mutex<Lru<(String, u64), Arc<WeightStore>>>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

impl Default for WeightCache {
    fn default() -> Self {
        WeightCache::with_capacity(WEIGHT_CACHE_CAPACITY)
    }
}

impl WeightCache {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        WeightCache {
            stores: Mutex::new(Lru::new(capacity, |_| false)),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The store for `(model, seed)`, created on first use; touching a
    /// store refreshes its LRU position, and inserting past capacity
    /// evicts the least-recently-used other entry.
    pub(crate) fn store(&self, model: &str, seed: u64) -> Arc<WeightStore> {
        self.stores
            .lock()
            .get_or_insert_with((model.to_string(), seed), || {
                Arc::new(WeightStore::with_counters(
                    self.hits.clone(),
                    self.misses.clone(),
                ))
            })
    }

    /// Drop every seed's store of `model` (the plan changed — its
    /// weights no longer describe what will be served).
    fn invalidate_model(&self, model: &str) {
        self.stores.lock().retain(|(m, _)| m != model);
    }

    fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.stores.lock().evictions(),
        )
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.stores.lock().len()
    }
}

/// A thread-safe registry serving many [`ExecutablePlan`]s concurrently.
///
/// All methods take `&self`; share the runtime behind an [`Arc`] across
/// request threads. See the [module docs](self) for an end-to-end
/// example.
#[derive(Default)]
pub struct ModelRuntime {
    plans: RwLock<FxHashMap<String, Arc<ExecutablePlan>>>,
    records: Mutex<FxHashMap<String, PlanRecord>>,
    failed: Mutex<u64>,
    arenas: Mutex<Vec<BufferArena>>,
    caches: Mutex<Vec<Arc<dyn TuningCache>>>,
    /// Per-model widened-plan wrappers, built lazily and invalidated on
    /// (de)registration.
    batched: Mutex<FxHashMap<String, Arc<BatchedPlan>>>,
    /// Per-`(model, seed)` weight stores shared by `infer` and `submit`.
    pub(crate) weights: WeightCache,
    /// The continuous-batching admission queue behind `submit`.
    pub(crate) sched: Scheduler,
}

impl std::fmt::Debug for ModelRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRuntime")
            .field("models", &self.models())
            .field("requests", &self.stats().requests)
            .field("attached_caches", &self.caches.lock().len())
            .finish()
    }
}

impl ModelRuntime {
    /// An empty runtime.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty runtime whose [`ModelRuntime::submit`] queue follows
    /// `policy` instead of
    /// [`BatchPolicy::default`](crate::BatchPolicy::default).
    pub fn with_batch_policy(policy: crate::BatchPolicy) -> Self {
        ModelRuntime {
            sched: Scheduler::with_policy(policy),
            ..ModelRuntime::default()
        }
    }

    /// Register a plan under a serving name (replacing any previous plan
    /// of that name) and return the shared handle.
    pub fn register(&self, name: impl Into<String>, plan: ExecutablePlan) -> Arc<ExecutablePlan> {
        let plan = Arc::new(plan);
        self.register_arc(name, plan.clone());
        plan
    }

    /// Register an already-shared plan. Registering a name always
    /// starts its serving stats fresh — whether it replaces a live plan
    /// or follows a [`ModelRuntime::deregister`], the retained latency
    /// samples and byte counts described the previous plan.
    pub fn register_arc(&self, name: impl Into<String>, plan: Arc<ExecutablePlan>) {
        let name = name.into();
        self.plans.write().insert(name.clone(), plan);
        self.records.lock().remove(&name);
        self.batched.lock().remove(&name);
        self.weights.invalidate_model(&name);
    }

    /// Remove a plan. Returns it if it was registered.
    pub fn deregister(&self, name: &str) -> Option<Arc<ExecutablePlan>> {
        let plan = self.plans.write().remove(name);
        self.batched.lock().remove(name);
        self.weights.invalidate_model(name);
        plan
    }

    /// Look up a registered plan.
    pub fn plan(&self, name: &str) -> Option<Arc<ExecutablePlan>> {
        self.plans.read().get(name).cloned()
    }

    /// The registered model names, sorted.
    pub fn models(&self) -> Vec<String> {
        let mut v: Vec<String> = self.plans.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Attach a tuning cache to be flushed at [`ModelRuntime::shutdown`]
    /// (typically the serving engine's cache, via
    /// [`FusionEngine::cache_handle`](crate::FusionEngine::cache_handle)).
    pub fn attach_cache(&self, cache: Arc<dyn TuningCache>) {
        self.caches.lock().push(cache);
    }

    /// Serve one request against a registered plan. Concurrent calls
    /// from any number of threads are safe and deterministic per
    /// `(model, seed)`.
    pub fn infer(
        &self,
        model: &str,
        inputs: &InputSet,
        opts: RunOptions,
    ) -> Result<Outputs, ExecError> {
        let Some(plan) = self.plan(model) else {
            *self.failed.lock() += 1;
            return Err(ExecError::UnknownModel {
                name: model.to_string(),
            });
        };
        let span = plan.virtual_time_per_request();
        let (result, wall) = self.launch(model, &plan, None, &[inputs], opts, span);
        let out = result?.pop().expect("one request, one Outputs");
        self.record_success(model, span, wall, plan.bytes_per_request());
        Ok(out)
    }

    /// Run `requests` through the step loop (see [`run_steps`]) on a
    /// pooled arena with the `(model, opts.seed)` weight store, timing
    /// the launch on the wall clock. On success the launch ledgers
    /// `span` virtual seconds of device occupancy; on failure every
    /// request counts as failed. Returns the outputs and the launch's
    /// wall seconds.
    pub(crate) fn launch(
        &self,
        model: &str,
        plan: &ExecutablePlan,
        widened: Option<&WidenedPlan>,
        requests: &[&InputSet],
        opts: RunOptions,
        span: f64,
    ) -> (Result<Vec<Outputs>, ExecError>, f64) {
        let store = self.weights.store(model, opts.seed);
        let mut arena = self.arena();
        let started = std::time::Instant::now();
        let result = run_steps(plan, widened, requests, opts, &mut arena, Some(&store));
        let wall = started.elapsed().as_secs_f64();
        self.recycle_arena(arena);
        match &result {
            Ok(_) => self.record_busy(model, span, wall),
            Err(_) => *self.failed.lock() += requests.len() as u64,
        }
        (result, wall)
    }

    /// The batched wrapper for a registered model, built on first use
    /// and cached until the name is (de)registered.
    pub(crate) fn batched_plan(&self, model: &str) -> Option<Arc<BatchedPlan>> {
        if let Some(b) = self.batched.lock().get(model) {
            return Some(b.clone());
        }
        let plan = self.plan(model)?;
        let b = Arc::new(BatchedPlan::new(plan));
        self.batched.lock().insert(model.to_string(), b.clone());
        Some(b)
    }

    /// Pop a pooled buffer arena (or a fresh one).
    fn arena(&self) -> BufferArena {
        self.arenas.lock().pop().unwrap_or_default()
    }

    /// Return an arena to the pool, unless the pool is already warm.
    fn recycle_arena(&self, arena: BufferArena) {
        let mut pool = self.arenas.lock();
        if pool.len() < ARENA_POOL_LIMIT {
            pool.push(arena);
        }
    }

    /// Ledger one successfully served request: `latency` on the virtual
    /// clock, `wall` on the host's (enqueue-to-completion for queued
    /// requests).
    pub(crate) fn record_success(&self, model: &str, latency: f64, wall: f64, bytes: f64) {
        let mut records = self.records.lock();
        let rec = records
            .entry(model.to_string())
            .or_insert_with(|| PlanRecord::new(model));
        rec.requests += 1;
        rec.latencies.push(latency);
        rec.wall_latencies.push(wall);
        rec.bytes += bytes;
    }

    /// Ledger device seconds occupied by a launch (once per batch, not
    /// once per request): `span` virtual, `wall` host seconds.
    fn record_busy(&self, model: &str, span: f64, wall: f64) {
        let mut records = self.records.lock();
        let rec = records
            .entry(model.to_string())
            .or_insert_with(|| PlanRecord::new(model));
        rec.busy += span;
        rec.wall_busy += wall;
    }

    /// Ledger one failed request.
    pub(crate) fn count_failure(&self) {
        *self.failed.lock() += 1;
    }

    /// Snapshot the serving counters.
    pub fn stats(&self) -> RuntimeStats {
        let records = self.records.lock();
        let registered = self.plans.read();
        let mut plans: Vec<PlanStats> = records
            .iter()
            .map(|(model, rec)| {
                let sorted = rec.latencies.sorted();
                let wall_sorted = rec.wall_latencies.sorted();
                // Static per-request step structure of the plan as
                // registered right now (deregistered → all zero).
                let breakdown = registered
                    .get(model)
                    .map(|p| p.step_breakdown())
                    .unwrap_or_default();
                PlanStats {
                    model: model.clone(),
                    requests: rec.requests,
                    p50_latency: percentile(&sorted, 0.50),
                    p95_latency: percentile(&sorted, 0.95),
                    wall_p50_latency: percentile(&wall_sorted, 0.50),
                    wall_p95_latency: percentile(&wall_sorted, 0.95),
                    wall_busy: rec.wall_busy,
                    bytes_moved: rec.bytes,
                    virtual_busy: rec.busy,
                    fused_steps: breakdown.fused_steps,
                    reference_steps: breakdown.reference_steps,
                    reference_elementwise: breakdown.reference_elementwise,
                    fused_bytes_per_request: breakdown.fused_bytes,
                    reference_bytes_per_request: breakdown.reference_bytes,
                }
            })
            .collect();
        plans.sort_by(|a, b| a.model.cmp(&b.model));
        let (queue_depth, rejected, expired, batch_sizes) = self.sched.snapshot();
        let (weight_cache_hits, weight_cache_misses, weight_cache_evictions) =
            self.weights.counters();
        RuntimeStats {
            requests: plans.iter().map(|p| p.requests).sum(),
            failed: *self.failed.lock(),
            queue_depth,
            rejected,
            expired,
            batch_sizes,
            weight_cache_hits,
            weight_cache_misses,
            weight_cache_evictions,
            plans,
        }
    }

    /// Shut the runtime down: flush every attached tuning cache and
    /// return the final stats. Persistence failures — which write-through
    /// puts can only warn about — are reported here as a
    /// [`ShutdownError`] carrying the same final snapshot. Takes `&self`
    /// so a runtime shared behind an [`Arc`] can be drained too; the
    /// runtime stays usable afterwards.
    pub fn shutdown(&self) -> Result<RuntimeStats, ShutdownError> {
        let stats = self.stats();
        let mut failures = Vec::new();
        for cache in self.caches.lock().iter() {
            if let Err(e) = cache.flush() {
                failures.push(e.to_string());
            }
        }
        if failures.is_empty() {
            Ok(stats)
        } else {
            Err(ShutdownError {
                failures,
                stats: Box::new(stats),
            })
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.95), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn unknown_model_is_a_structured_error_and_counted() {
        let rt = ModelRuntime::new();
        let err = rt
            .infer("nope", &InputSet::new(), RunOptions::default())
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::UnknownModel {
                name: "nope".into()
            }
        );
        assert_eq!(rt.stats().failed, 1);
        assert_eq!(rt.stats().requests, 0);
    }

    #[test]
    fn runtime_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelRuntime>();
        assert_send_sync::<ExecutablePlan>();
    }

    #[test]
    fn weight_cache_bounds_stores_and_counts_evictions() {
        let cache = WeightCache::with_capacity(2);
        let a = cache.store("m", 0);
        let _b = cache.store("m", 1);
        // Touch (m, 0) so (m, 1) is the LRU victim on overflow.
        let a2 = cache.store("m", 0);
        assert!(Arc::ptr_eq(&a, &a2), "touching must return the same store");
        let _c = cache.store("n", 0);
        let (_, _, evictions) = cache.counters();
        assert_eq!(evictions, 1);
        assert_eq!(cache.len(), 2);
        // The touched store survived; the evicted one is rebuilt fresh.
        assert!(Arc::ptr_eq(&a, &cache.store("m", 0)));
        let rebuilt = cache.store("m", 1);
        assert!(rebuilt.is_empty(), "evicted store must come back empty");
    }

    #[test]
    fn invalidating_a_model_drops_every_seed() {
        let cache = WeightCache::with_capacity(8);
        cache.store("m", 0);
        cache.store("m", 1);
        cache.store("n", 0);
        cache.invalidate_model("m");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn late_slow_requests_move_p95() {
        // Regression for the first-CAP truncation: a reservoir that has
        // already seen `cap` fast cold-start samples must still let a
        // late-arriving slow phase move the tail percentile. With
        // truncation, p95 stayed at the fast latency forever.
        let cap = 64;
        let mut res = LatencyReservoir::with_cap(cap, reservoir_seed("m"));
        for _ in 0..cap {
            res.push(1e-4); // fast cold-start phase fills the buffer
        }
        let before = percentile(&res.sorted(), 0.95);
        assert_eq!(before, 1e-4);
        // A long slow phase: 10× the reservoir size at 10× the latency.
        for _ in 0..cap * 10 {
            res.push(1e-3);
        }
        let after = percentile(&res.sorted(), 0.95);
        assert_eq!(after, 1e-3, "p95 must reflect the dominant late slow phase");
        // The median too: ~10/11 of the stream is slow.
        assert_eq!(percentile(&res.sorted(), 0.50), 1e-3);
        // Memory stays bounded at the cap.
        assert_eq!(res.samples.len(), cap);
        assert_eq!(res.seen, (cap * 11) as u64);
    }

    #[test]
    fn reservoir_is_deterministic_and_roughly_uniform() {
        // Same seed + same stream → identical retained samples (the
        // serving stats of a replayed request log are reproducible).
        let stream: Vec<f64> = (0..5000).map(|i| i as f64).collect();
        let run = |seed: u64| {
            let mut r = LatencyReservoir::with_cap(128, seed);
            for &x in &stream {
                r.push(x);
            }
            r.sorted()
        };
        assert_eq!(run(7), run(7));
        // Uniformity smoke check: the retained sample of a 0..5000 ramp
        // has roughly half its mass below the midpoint (Algorithm R
        // keeps each position with equal probability; truncation would
        // put *all* 128 samples below 128).
        let kept = run(reservoir_seed("bert"));
        let below_mid = kept.iter().filter(|&&x| x < 2500.0).count();
        assert!(
            (32..=96).contains(&below_mid),
            "suspiciously non-uniform reservoir: {below_mid}/128 below midpoint"
        );
        assert!(
            kept.iter().any(|&x| x >= 4000.0),
            "the tail of the stream must be reachable"
        );
    }

    #[test]
    fn reregistering_a_model_resets_and_reseeds_its_stats() {
        use crate::compiler::OpCostModel;
        use mcfuser_ir::{Graph, GraphBuilder, NodeId};
        use mcfuser_sim::{DType, DeviceSpec, HostTensor};

        struct Flat;
        impl OpCostModel for Flat {
            fn name(&self) -> &str {
                "flat"
            }
            fn op_time(&self, _: &Graph, _: NodeId, _: &DeviceSpec) -> f64 {
                1e-5
            }
            fn tuning_seconds(&self, _: &Graph, _: &[NodeId], _: &DeviceSpec) -> f64 {
                0.0
            }
        }

        let mut gb = GraphBuilder::new("m", DType::F16);
        let x = gb.input("x", vec![64, 32]);
        let y = gb.linear("fc1", x, 64, false);
        let g = gb.finish(vec![y]);
        let engine = crate::FusionEngine::builder(DeviceSpec::a100())
            .fallback(Flat)
            .build();
        let plan = engine.compile_plan(&g).unwrap();

        let rt = ModelRuntime::new();
        let plan = rt.register("m", plan);
        let inputs = InputSet::new().with("x", HostTensor::zeros(&[64, 32]));
        for s in 0..3 {
            rt.infer("m", &inputs, RunOptions::seeded(s)).unwrap();
        }
        assert_eq!(rt.stats().plan("m").unwrap().requests, 3);

        // Re-registering the name (rolling restart) drops the record:
        // retained latency samples and counts described the old epoch.
        rt.register_arc("m", plan);
        assert!(
            rt.stats().plan("m").is_none(),
            "re-registering must reset the model's serving stats"
        );
        rt.infer("m", &inputs, RunOptions::default()).unwrap();
        assert_eq!(rt.stats().plan("m").unwrap().requests, 1);

        // The fresh record's reservoir reseeds from the model name, so
        // a replayed request log reports identical percentiles.
        assert_eq!(reservoir_seed("m"), reservoir_seed("m"));
        assert_ne!(reservoir_seed("m"), reservoir_seed("n"));
    }
}
