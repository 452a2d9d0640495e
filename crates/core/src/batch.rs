//! Widened-batch execution: coalesce `k` same-plan requests into one
//! fused launch per step.
//!
//! The MCFuser pipeline tunes a fused kernel for a *single* request
//! shape. Under a serving load the same plan is executed over and over,
//! and every launch re-pays the per-kernel launch overhead and
//! re-streams the (identical) weight tiles from DRAM. A
//! [`BatchedPlan`] removes both costs without re-tuning anything:
//!
//! * **Widening.** Every lowered program's leading grid dimension is
//!   the chain batch (`VarRef::Grid(0)`, see `lower::lower`), and every
//!   per-request tensor access carries a leading `{Grid(0), tile: 1}`
//!   index. Multiplying `grid[0]` by `k` and the leading extent of
//!   every per-request buffer by `k` turns the program into one launch
//!   that processes `k` stacked requests; request `r` owns batch slots
//!   `[r·B, (r+1)·B)`, so staging and scatter are contiguous copies.
//! * **Weight sharing.** Buffers fed by [`Op::Weight`] nodes keep
//!   their shape; their leading batch index is rewritten to
//!   [`VarRef::Zero`] so all `k` requests read the *same* tiles. This
//!   is mandatory, not an optimization: the interpreter zero-fills
//!   out-of-bounds loads, so a widened grid over an unwidened weight
//!   buffer would silently corrupt results. The rewrite also lets the
//!   timing model charge the weight's DRAM bytes once per batch
//!   instead of once per request — the amortization that makes
//!   batching pay.
//!
//! Widened programs are re-[`validate`](TileProgram::validate)d and
//! re-[`measure`]d per width, and cached per `(plan, width)`.
//! Programs that widening cannot prove safe (a `Temp` buffer, a
//! non-weight input without a leading batch index, a batch-replicated
//! weight) fall back to serial execution — correctness never depends
//! on widening succeeding.
//!
//! **One step loop.** `run_steps` is the only step interpreter: a
//! single request is a batch of width 1 that launches the plan's own
//! programs, and an unbatchable batch of `k` runs `k` width-1 passes.
//! [`ExecutablePlan::execute`], [`BatchedPlan::execute_batch`],
//! [`ModelRuntime::infer`](crate::ModelRuntime::infer) and
//! [`ModelRuntime::submit`](crate::ModelRuntime::submit) all execute
//! through it. At release the loop returns a value to the arena only if
//! it was drawn from the arena (kernel outputs and per-request output
//! slices); reference outputs are fresh allocations and are dropped, so
//! a serving arena's pool stops growing after warm-up.
//!
//! Outputs are **bit-identical** to serial execution by construction:
//! blocks of the functional interpreter execute independently, so a
//! widened launch performs exactly the per-request arithmetic in the
//! same order within each request's slots.

use std::sync::Arc;

use parking_lot::Mutex;
use rustc_hash::FxHashMap;

use mcfuser_ir::Op;
use mcfuser_sim::{
    measure, visit_accesses, visit_accesses_mut, BufferArena, BufferRole, HostTensor,
    TensorStorage, TileAccess, TileIndex, TileProgram, VarRef,
};

use crate::plan::{
    ExecError, ExecutablePlan, InputSet, Outputs, RunOptions, Step, Value, WeightStore,
};

/// One fused step widened to a fixed batch width.
#[derive(Debug)]
pub(crate) struct WidenedStep {
    /// The widened, re-validated tile program.
    program: Arc<TileProgram>,
    /// Per data input: `true` if the buffer is shared across requests
    /// (weights/biases, staged once), `false` if per-request (request
    /// `r` fills the `r`-th of `k` equal slots).
    shared: Vec<bool>,
    /// Measured virtual time of the widened launch.
    time: f64,
    /// Global-memory bytes of the widened launch.
    bytes: f64,
}

/// A whole plan widened to one batch width: the widened fused steps
/// plus the batch's virtual span.
#[derive(Debug)]
pub(crate) struct WidenedPlan {
    /// Widened fused steps, keyed by step index.
    fused: FxHashMap<usize, WidenedStep>,
    /// Virtual time one drained batch of this width occupies on the
    /// device: widened fused launches once, reference steps `k` times.
    pub(crate) virtual_time: f64,
    /// Global-memory bytes the batch moves.
    pub(crate) bytes: f64,
}

/// Batched execution wrapper around an [`ExecutablePlan`]: widens the
/// plan's fused programs per batch width (cached), executes `k`
/// requests in one launch per step, and scatters each request's output
/// slice back out.
///
/// Built once per registered model by the runtime's admission queue
/// (see [`ModelRuntime::submit`](crate::ModelRuntime::submit)); also
/// usable directly for ad-hoc batched execution.
#[derive(Debug)]
pub struct BatchedPlan {
    plan: Arc<ExecutablePlan>,
    /// Whether every fused step widens safely (probed once at width 2).
    batchable: bool,
    widths: Mutex<FxHashMap<usize, Arc<WidenedPlan>>>,
}

impl BatchedPlan {
    /// Wrap a plan, probing once whether its fused steps widen safely.
    /// A successful probe is kept as the width-2 entry of the cache.
    pub fn new(plan: Arc<ExecutablePlan>) -> Self {
        let mut widths = FxHashMap::default();
        if let Some(w) = widen_plan(&plan, 2) {
            widths.insert(2, Arc::new(w));
        }
        BatchedPlan {
            plan,
            batchable: !widths.is_empty(),
            widths: Mutex::new(widths),
        }
    }

    /// The underlying serial plan.
    pub fn plan(&self) -> &Arc<ExecutablePlan> {
        &self.plan
    }

    /// Whether widening is available (otherwise every batch runs
    /// serially, request by request).
    pub fn is_batchable(&self) -> bool {
        self.batchable
    }

    /// The widened plan for `width`, built and cached on first use.
    pub(crate) fn widened(&self, width: usize) -> Option<Arc<WidenedPlan>> {
        if !self.batchable || width <= 1 {
            return None;
        }
        let mut widths = self.widths.lock();
        if let Some(w) = widths.get(&width) {
            return Some(w.clone());
        }
        let w = Arc::new(widen_plan(&self.plan, width)?);
        widths.insert(width, w.clone());
        Some(w)
    }

    /// Virtual `(time, bytes)` one drained batch of `k` requests
    /// occupies on the device. Falls back to `k ×` the serial numbers
    /// when the plan does not widen.
    pub fn batch_span(&self, k: usize) -> (f64, f64) {
        match self.widened(k) {
            Some(w) => (w.virtual_time, w.bytes),
            None => (
                k as f64 * self.plan.virtual_time_per_request(),
                k as f64 * self.plan.bytes_per_request(),
            ),
        }
    }

    /// Execute `requests` as one widened batch, returning one
    /// [`Outputs`] per request in order. Bit-identical to executing
    /// each request through [`ExecutablePlan::execute`] with the same
    /// seed; every step runs through the one step loop (module docs).
    pub fn execute_batch(
        &self,
        requests: &[&InputSet],
        opts: RunOptions,
        arena: &mut BufferArena,
        weights: Option<&WeightStore>,
    ) -> Result<Vec<Outputs>, ExecError> {
        let w = self.widened(requests.len());
        run_steps(&self.plan, w.as_deref(), requests, opts, arena, weights)
    }
}

/// The step loop: run `requests` through every step of `plan`, drawing
/// and recycling buffers through `arena`, and return one [`Outputs`]
/// per request in order.
///
/// With `widened`, the `k` requests run as one batch: reference steps
/// evaluate per request (weights resolve through `weights` when given,
/// so requests 2..k are cache hits); each fused step stages shared
/// weights once and each request's activations into its slot, launches
/// the widened kernel once, and scatters the output into per-request
/// slices drawn from the arena. Without it, one request launches the
/// plan's own programs and the kernel output moves into the value
/// table without a copy; several requests run as that many width-1
/// passes.
pub(crate) fn run_steps(
    plan: &ExecutablePlan,
    widened: Option<&WidenedPlan>,
    requests: &[&InputSet],
    opts: RunOptions,
    arena: &mut BufferArena,
    weights: Option<&WeightStore>,
) -> Result<Vec<Outputs>, ExecError> {
    if widened.is_none() && requests.len() != 1 {
        let mut outs = Vec::with_capacity(requests.len());
        for r in requests {
            outs.extend(run_steps(plan, None, &[r], opts, arena, weights)?);
        }
        return Ok(outs);
    }
    let k = requests.len();
    let mut tables: Vec<Vec<Option<Value<'_>>>> = requests
        .iter()
        .map(|r| plan.bind_inputs(r))
        .collect::<Result<_, _>>()?;
    let backend = opts.backend.unwrap_or(plan.backend);
    let empty = FxHashMap::default();
    for (s, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Reference { node, .. } => {
                for table in &mut tables {
                    let v = plan.eval_reference(*node, table, &empty, opts.seed, weights)?;
                    table[node.0] = Some(v);
                }
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
                let kernel_error = |detail: String| ExecError::Kernel {
                    model: plan.name.clone(),
                    chain: chain.clone(),
                    detail,
                };
                let (program, shared): (&TileProgram, &[bool]) = match widened {
                    Some(w) => {
                        let ws = &w.fused[&s];
                        (&ws.program, &ws.shared)
                    }
                    None => (program, &[]),
                };
                let mut st = TensorStorage::for_program_in(program, arena);
                for (j, &node) in data_inputs.iter().enumerate() {
                    // Weights are identical across the batch (same plan,
                    // same seed): stage them once from the first request.
                    let lanes = if shared.get(j) == Some(&true) {
                        &tables[..1]
                    } else {
                        &tables[..]
                    };
                    let n = st.tensors[j].data.len() / lanes.len();
                    for (r, table) in lanes.iter().enumerate() {
                        let src = table[node.0].as_ref().expect("topological order").tensor();
                        // Transposition materializes a temporary; the
                        // common case copies straight into the arena
                        // buffer. (Chain buffers are [batch, rows, cols];
                        // graph tensors may be flat 2-D with batch = 1 —
                        // staging is by element count.)
                        let flipped;
                        let data: &[f32] = if transposed.get(j).copied().unwrap_or(false) {
                            flipped = src.transpose_last2();
                            &flipped.data
                        } else {
                            &src.data
                        };
                        if data.len() != n {
                            return Err(kernel_error(format!(
                                "input {j} holds {} elements, kernel expects {n}",
                                data.len()
                            )));
                        }
                        st.stage_at(j, r * n, data)
                            .map_err(|e| kernel_error(e.to_string()))?;
                    }
                }
                backend
                    .executor()
                    .execute_with_arena(program, &mut st, arena)
                    .map_err(|e| kernel_error(e.to_string()))?;
                let out = std::mem::take(&mut st.tensors.last_mut().expect("output buffer").data);
                st.recycle(arena);
                if let [table] = &mut tables[..] {
                    table[output.0] = Some(Value::Pooled(HostTensor::from_vec(out_shape, out)));
                } else {
                    for (table, slice) in tables.iter_mut().zip(out.chunks_exact(out.len() / k)) {
                        let mut lane = arena.take_unzeroed(slice.len());
                        lane.copy_from_slice(slice);
                        table[output.0] =
                            Some(Value::Pooled(HostTensor::from_vec(out_shape, lane)));
                    }
                    arena.put(out);
                }
            }
        }
        for node in plan.buffers.release_after(s) {
            for table in &mut tables {
                // Only arena-drawn buffers go back; everything else drops.
                if let Some(Value::Pooled(t)) = table[node.0].take() {
                    arena.put(t.data);
                }
            }
        }
    }
    Ok(tables
        .iter_mut()
        .map(|t| Outputs::from_entries(plan.collect_outputs(t)))
        .collect())
}

/// Widen every fused step of `plan` to `width`, summing the batch's
/// virtual span (widened launches once, reference steps `width` times).
/// `None` if any fused step cannot be proven safe to widen.
fn widen_plan(plan: &ExecutablePlan, width: usize) -> Option<WidenedPlan> {
    let mut fused = FxHashMap::default();
    let mut time = 0.0;
    let mut bytes = 0.0;
    for (s, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Fused { .. } => {
                let ws = widen_step(plan, s, width)?;
                time += ws.time;
                bytes += ws.bytes;
                fused.insert(s, ws);
            }
            Step::Reference {
                time: t, bytes: b, ..
            } => {
                time += width as f64 * t;
                bytes += width as f64 * b;
            }
        }
    }
    Some(WidenedPlan {
        fused,
        virtual_time: time,
        bytes,
    })
}

/// Widen fused step `s` to `width`: multiply the leading grid dim and
/// every per-request buffer's leading extent by `width`; rewrite shared
/// weight buffers' leading batch index to [`VarRef::Zero`]. `None` if
/// the program's structure does not fit the widening contract.
fn widen_step(plan: &ExecutablePlan, s: usize, width: usize) -> Option<WidenedStep> {
    let Step::Fused {
        program,
        data_inputs,
        ..
    } = &plan.steps[s]
    else {
        return None;
    };
    let base: &TileProgram = program;
    if base.grid.is_empty() || width == 0 {
        return None;
    }
    let batch = base.grid[0];

    // Classify each buffer's leading index across all of its accesses.
    let nbufs = base.buffers.len();
    let mut any_access = vec![false; nbufs];
    let mut all_batch_led = vec![true; nbufs];
    visit_accesses(&base.body, &mut |a: &TileAccess, _| {
        let b = a.buf.0;
        any_access[b] = true;
        all_batch_led[b] &= leading_batch(a);
    });

    let mut p = (**program).clone();
    p.name = format!("{}@x{width}", p.name);
    p.grid[0] = batch * width as u64;

    let mut shared = vec![false; data_inputs.len()];
    let mut out_elems = 0;
    let mut rewrite_zero = vec![false; nbufs];
    let mut j = 0usize;
    for (bi, buf) in p.buffers.iter_mut().enumerate() {
        match buf.role {
            // Temps only appear in unfused pipelines; a fused program
            // carrying one is outside the widening contract.
            BufferRole::Temp => return None,
            BufferRole::Output => {
                if !any_access[bi] || !all_batch_led[bi] || buf.shape.first() != Some(&batch) {
                    return None;
                }
                out_elems = buf.len();
                buf.shape[0] = batch * width as u64;
            }
            BufferRole::Input => {
                let node = *data_inputs.get(j)?;
                let is_weight = matches!(plan.graph.node(node).op, Op::Weight);
                if is_weight && buf.shape.first() == Some(&1) && buf.shape.len() >= 2 {
                    // A broadcast weight slab `[1, r, c]`: all requests
                    // read tile 0 — retarget the batch index to Zero.
                    shared[j] = true;
                    rewrite_zero[bi] = true;
                } else if is_weight && !any_access[bi] {
                    shared[j] = true;
                } else if is_weight && all_batch_led[bi] {
                    // Batch-replicated weight (`shape[0] == batch > 1`)
                    // — lowering never emits this; bail rather than
                    // guess.
                    return None;
                } else if is_weight {
                    // Bias-style aux: indexed by column only, already
                    // request-independent.
                    shared[j] = true;
                } else if !any_access[bi] {
                    // Dead activation input: never read, stage once.
                    shared[j] = true;
                } else if all_batch_led[bi] && buf.shape.first() == Some(&batch) {
                    buf.shape[0] = batch * width as u64;
                } else {
                    return None;
                }
                j += 1;
            }
        }
    }
    if j != data_inputs.len() || out_elems == 0 {
        return None;
    }

    if rewrite_zero.iter().any(|&r| r) {
        visit_accesses_mut(&mut p.body, &mut |a: &mut TileAccess| {
            if rewrite_zero[a.buf.0] && leading_batch(a) {
                a.indices[0].var = VarRef::Zero;
            }
        });
    }
    p.validate().ok()?;
    // The widened program must independently re-prove the full static
    // contract — bounds, def-use, cross-slot race freedom — plus the
    // widening special case: every `VarRef::Zero`-pinned shared slab is
    // read-only in all `width` slots. An unprovable widening falls back
    // to serial execution rather than launching a coalesced kernel the
    // verifier cannot vouch for.
    mcfuser_sim::verify::verify_widened(&p).ok()?;
    let prof = measure(&p, plan.device());
    Some(WidenedStep {
        program: Arc::new(p),
        shared,
        time: prof.time,
        bytes: prof.gmem_bytes,
    })
}

/// Whether an access's leading index is the unit-tile batch index the
/// lowering emits (`{Grid(0), tile: 1}`).
fn leading_batch(a: &TileAccess) -> bool {
    matches!(
        a.indices.first(),
        Some(TileIndex {
            var: VarRef::Grid(0),
            tile: 1,
        })
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::OpCostModel;
    use mcfuser_ir::{Graph, GraphBuilder, NodeId};
    use mcfuser_sim::{DType, DeviceSpec};

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

    /// Two fused GEMM chains around reference glue (softmax, scale), so
    /// a request produces kernel outputs and reference outputs alike.
    fn plan() -> Arc<ExecutablePlan> {
        let mut gb = GraphBuilder::new("glue-mlp", DType::F16);
        let x = gb.input("x", vec![64, 32]);
        let h = gb.linear("fc1", x, 64, false);
        let y = gb.linear("fc2", h, 32, false);
        let y = gb.softmax("sm", y, 1.0);
        let y = gb.scale("sc", y, 0.5);
        let h = gb.linear("fc3", y, 64, false);
        let out = gb.linear("fc4", h, 32, false);
        let graph = gb.finish(vec![out]);
        let engine = crate::FusionEngine::builder(DeviceSpec::a100())
            .fallback(Flat)
            .build();
        let plan = engine.compile_plan(&graph).unwrap();
        let b = plan.step_breakdown();
        assert!(b.fused_steps >= 2 && b.reference_elementwise >= 2, "{b:?}");
        Arc::new(plan)
    }

    fn request(plan: &ExecutablePlan, phase: usize) -> InputSet {
        let mut set = InputSet::new();
        for b in plan.inputs() {
            let len = b.shape.iter().product::<u64>() as usize;
            let data = (0..len)
                .map(|i| ((i + 7 * phase) % 19) as f32 / 19.0 - 0.5)
                .collect();
            set.insert(b.name.clone(), HostTensor::from_vec(&b.shape, data));
        }
        set
    }

    fn bits(o: &Outputs) -> Vec<u32> {
        o.primary().data.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn unbatchable_plan_runs_serial_passes() {
        let plan = plan();
        let batched = BatchedPlan {
            plan: plan.clone(),
            batchable: false,
            widths: Mutex::new(FxHashMap::default()),
        };
        let requests: Vec<InputSet> = (0..3).map(|r| request(&plan, r)).collect();
        let refs: Vec<&InputSet> = requests.iter().collect();
        let opts = RunOptions::seeded(3);
        let outs = batched
            .execute_batch(&refs, opts, &mut BufferArena::new(), None)
            .unwrap();
        assert_eq!(outs.len(), 3);
        for (got, r) in outs.iter().zip(&requests) {
            assert_eq!(bits(got), bits(&plan.execute(r, opts).unwrap()));
        }
        let serial = (plan.virtual_time_per_request(), plan.bytes_per_request());
        assert_eq!(batched.batch_span(3), (3.0 * serial.0, 3.0 * serial.1));
    }

    #[test]
    fn arena_pool_stops_growing_after_warm_up() {
        let plan = plan();
        let batched = BatchedPlan::new(plan.clone());
        assert!(batched.is_batchable());
        let store = WeightStore::default();
        let requests: Vec<InputSet> = (0..2).map(|r| request(&plan, r)).collect();
        for width in [1, 2] {
            let refs: Vec<&InputSet> = requests[..width].iter().collect();
            let mut arena = BufferArena::new();
            let pooled: Vec<usize> = (0..20)
                .map(|_| {
                    batched
                        .execute_batch(&refs, RunOptions::seeded(1), &mut arena, Some(&store))
                        .unwrap();
                    arena.pooled_elems()
                })
                .collect();
            assert_eq!(pooled[4], pooled[19], "width {width}: {pooled:?}");
        }
    }
}
