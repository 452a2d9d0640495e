//! Execution backends: the [`KernelExecutor`] trait and the vectorized
//! engine.
//!
//! The repo grew up around the functional interpreter in [`crate::exec`],
//! which runs every [`TileProgram`] element-at-a-time through per-element
//! `VarRef` decode, bounds checks, and dtype dispatch. That is the right
//! shape for an *oracle* — it is a direct transcription of the semantics —
//! but it made wall-clock serving interpreter-bound. This module puts a
//! second engine behind a common trait:
//!
//! * [`InterpreterExec`] — the unchanged interpreter, kept bit-for-bit as
//!   the correctness oracle (`ExecBackend::Interpreter`);
//! * [`VectorizedExec`] — fast paths over the interpreter's semantics
//!   (`ExecBackend::Vectorized`, the default): contiguous-innermost row
//!   slices are resolved **once per tile** and moved with
//!   `copy_from_slice` (a single `memcpy` per row instead of per-element
//!   decode), GEMM tiles run register-blocked raw-pointer loops, and the
//!   fused prologue/epilogue statements reuse per-launch scratch instead
//!   of allocating per statement. Widened (batched) launches hit the same
//!   row-slice paths — a batch slot is just a leading-dim offset resolved
//!   into the row base once.
//!
//! Both backends run through one launch routine (`exec::launch`:
//! validation, storage check, shared memory, grid walk) and one GEMM
//! operand split. The vectorized `Load`, `Store`, `RowNormStats`,
//! `AddGlobal` and `AddRecomputedNorm` take their row-slice path only
//! when the statement's whole global window — leading dims, rows and
//! columns — is in bounds. A statement whose window clips runs the
//! interpreter's own code (`exec::run_stmt`) for that one statement, so
//! this module carries no clip handling of its own. Lowered programs
//! rarely clip: the pruning rules keep padding small, and the served
//! models' kernels declare no clipping at all.
//!
//! **Bit-identity contract:** for every program and storage, both backends
//! produce byte-identical results. Clipped statements hold it by
//! construction, since they run the oracle's code. The fast paths
//! restructure *memory access*, never floating-point evaluation order:
//! per-element operation sequences (the `a == 0.0` GEMM skip and
//! sequential column-order reductions) are preserved exactly. The
//! property is enforced by proptest in `tests/exec_backends.rs`.
//!
//! **Safety argument.** Every `unsafe` block below is a raw-pointer walk
//! whose extent is a slice length established immediately above it
//! (`// SAFETY:` comments state the local bound). Row slices are carved
//! only from windows `TileView::covers` accepted, and smem tiles have
//! the `rows × cols` extents [`TileProgram::validate`] checked across
//! each statement's operands. The crate-level
//! `#![deny(clippy::undocumented_unsafe_blocks)]` keeps the per-block
//! arguments from rotting.

use serde::{Deserialize, Serialize};

use crate::dtype::DType;
use crate::exec::{self, tile_origin, BufferArena, ExecError, Smem, TensorStorage, TileView};
use crate::kernel::{BlockStmt, SmemId, TileAccess, TileProgram};

/// Which engine executes lowered kernels.
///
/// Parsed from exactly `"interpreter"` or `"vectorized"` (e.g. the
/// `MCFUSER_EXEC_BACKEND` environment knob the bench bins honor) and
/// serializable so run configurations can be recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ExecBackend {
    /// The element-at-a-time functional interpreter ([`crate::exec`]) —
    /// the correctness oracle.
    Interpreter,
    /// Blocked row-slice/raw-pointer kernels, bit-identical to the
    /// interpreter (the default).
    #[default]
    Vectorized,
}

impl ExecBackend {
    /// The executor implementing this backend.
    pub fn executor(self) -> &'static dyn KernelExecutor {
        match self {
            ExecBackend::Interpreter => &InterpreterExec,
            ExecBackend::Vectorized => &VectorizedExec,
        }
    }

    /// The backend the `MCFUSER_EXEC_BACKEND` environment variable names:
    /// the default when it is unset, an error naming the two accepted
    /// values when it is set to anything else.
    pub fn from_env() -> Result<ExecBackend, String> {
        match std::env::var("MCFUSER_EXEC_BACKEND") {
            Err(std::env::VarError::NotPresent) => Ok(ExecBackend::default()),
            Err(e) => Err(format!("MCFUSER_EXEC_BACKEND: {e}")),
            Ok(v) => v.parse().map_err(|e| format!("MCFUSER_EXEC_BACKEND: {e}")),
        }
    }
}

impl std::str::FromStr for ExecBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interpreter" => Ok(ExecBackend::Interpreter),
            "vectorized" => Ok(ExecBackend::Vectorized),
            other => Err(format!(
                "unknown exec backend {other:?} (expected \"interpreter\" or \"vectorized\")"
            )),
        }
    }
}

impl std::fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecBackend::Interpreter => "interpreter",
            ExecBackend::Vectorized => "vectorized",
        })
    }
}

/// An engine that can run [`TileProgram`]s against host storage.
///
/// Implementations must be semantically identical: same outputs, same
/// errors, bit-for-bit. They may differ arbitrarily in speed.
pub trait KernelExecutor: Send + Sync {
    /// Short display name (`"interpreter"` / `"vectorized"`).
    fn name(&self) -> &'static str;

    /// Execute `p`, drawing shared-memory (and scratch) buffers from
    /// `arena`. Inputs must be staged; outputs/temps are written in place.
    fn execute_with_arena(
        &self,
        p: &TileProgram,
        storage: &mut TensorStorage,
        arena: &mut BufferArena,
    ) -> Result<(), ExecError>;

    /// [`KernelExecutor::execute_with_arena`] with a throwaway arena.
    fn execute(&self, p: &TileProgram, storage: &mut TensorStorage) -> Result<(), ExecError> {
        let mut arena = BufferArena::new();
        self.execute_with_arena(p, storage, &mut arena)
    }
}

/// The functional interpreter as a [`KernelExecutor`] — the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterpreterExec;

impl KernelExecutor for InterpreterExec {
    fn name(&self) -> &'static str {
        "interpreter"
    }

    fn execute_with_arena(
        &self,
        p: &TileProgram,
        storage: &mut TensorStorage,
        arena: &mut BufferArena,
    ) -> Result<(), ExecError> {
        exec::execute_with_arena(p, storage, arena)
    }
}

/// The vectorized backend: blocked row-slice kernels, bit-identical to
/// the interpreter (see the module docs for the contract).
#[derive(Debug, Clone, Copy, Default)]
pub struct VectorizedExec;

impl KernelExecutor for VectorizedExec {
    fn name(&self) -> &'static str {
        "vectorized"
    }

    fn execute_with_arena(
        &self,
        p: &TileProgram,
        storage: &mut TensorStorage,
        arena: &mut BufferArena,
    ) -> Result<(), ExecError> {
        // Per-buffer strides resolved once per launch (the interpreter
        // re-derives them per access).
        let strides: Vec<Vec<u64>> = storage.tensors.iter().map(|t| t.strides()).collect();
        let mut scratch = Scratch::default();
        exec::launch(p, storage, arena, |block_idx, env, smem, storage| {
            run_stmts_vec(
                p,
                &p.body,
                block_idx,
                env,
                smem,
                storage,
                &strides,
                &mut scratch,
            )
        })
    }
}

/// Per-launch scratch the fused-pipeline statements reuse across blocks
/// (the interpreter allocates these per statement execution).
#[derive(Default)]
struct Scratch {
    alphas: Vec<f32>,
    col: Vec<f32>,
    means: Vec<f32>,
    rstds: Vec<f32>,
    gvals: Vec<f32>,
    bvals: Vec<f32>,
}

/// `dst[i] = v` through log2(len) `memmove`s instead of a per-element
/// loop (the workspace builds at opt-level 0, where `slice::fill` on
/// `f32` pays per-element iterator overhead).
fn fill_f32(dst: &mut [f32], v: f32) {
    if dst.is_empty() {
        return;
    }
    dst[0] = v;
    let mut n = 1usize;
    while n < dst.len() {
        let m = n.min(dst.len() - n);
        dst.copy_within(0..m, n);
        n += m;
    }
}

/// Quantize `src` into `dst` with the dtype dispatch hoisted out of the
/// element loop. For `F32` this is a straight `memcpy`.
fn quantize_row(dt: DType, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    match dt {
        DType::F32 => dst.copy_from_slice(src),
        dt => {
            let n = src.len().min(dst.len());
            // SAFETY: the walk covers `n` elements, no more than either
            // slice holds.
            unsafe {
                let mut sp = src.as_ptr();
                let mut dp = dst.as_mut_ptr();
                for _ in 0..n {
                    *dp = dt.quantize(*sp);
                    sp = sp.add(1);
                    dp = dp.add(1);
                }
            }
        }
    }
}

/// The statement's global window clips: the fast path did nothing and the
/// interpreter's code must run the statement.
struct Clipped;

/// The view of `acc`'s tile in this block, if its whole `rows × cols`
/// window is in bounds.
fn window(
    storage: &TensorStorage,
    strides: &[Vec<u64>],
    acc: &TileAccess,
    block_idx: &[u64],
    env: &[u64],
    rows: u64,
    cols: u64,
) -> Result<TileView, Clipped> {
    let origin = tile_origin(acc, block_idx, env);
    let view = TileView::new(
        &storage.tensors[acc.buf.0].shape,
        &strides[acc.buf.0],
        &origin,
    );
    if view.covers(rows, cols) {
        Ok(view)
    } else {
        Err(Clipped)
    }
}

/// Row `r` of a covered window over `data`, `cols` wide.
fn row<'d>(data: &'d [f32], view: &TileView, r: u64, cols: usize) -> &'d [f32] {
    let start = view.row_start(r);
    &data[start..start + cols]
}

#[allow(clippy::too_many_arguments)]
fn run_stmts_vec(
    p: &TileProgram,
    stmts: &[BlockStmt],
    block_idx: &[u64],
    env: &mut [u64],
    smem: &mut Smem,
    storage: &mut TensorStorage,
    strides: &[Vec<u64>],
    scratch: &mut Scratch,
) {
    for s in stmts {
        if run_stmt_vec(p, s, block_idx, env, smem, storage, strides, scratch).is_err() {
            exec::run_stmt(p, s, block_idx, env, smem, storage);
        }
    }
}

/// Run one statement on its fast path, or return [`Clipped`] having
/// touched nothing.
#[allow(clippy::too_many_arguments)]
fn run_stmt_vec(
    p: &TileProgram,
    s: &BlockStmt,
    block_idx: &[u64],
    env: &mut [u64],
    smem: &mut Smem,
    storage: &mut TensorStorage,
    strides: &[Vec<u64>],
    scratch: &mut Scratch,
) -> Result<(), Clipped> {
    match s {
        BlockStmt::Loop {
            handle,
            extent,
            body,
        } => {
            for i in 0..*extent {
                env[handle.0] = i;
                run_stmts_vec(p, body, block_idx, env, smem, storage, strides, scratch);
            }
            env[handle.0] = 0;
        }
        BlockStmt::Load { src, dst } => {
            let (rows, cols) = (smem.rows[dst.0], smem.cols[dst.0]);
            let view = window(storage, strides, src, block_idx, env, rows, cols)?;
            let (data, dt, c) = (
                &storage.tensors[src.buf.0].data,
                p.smem[dst.0].dtype,
                cols as usize,
            );
            let tile = &mut smem.bufs[dst.0];
            for r in 0..rows {
                let out = r as usize * c;
                quantize_row(dt, row(data, &view, r, c), &mut tile[out..out + c]);
            }
        }
        BlockStmt::Store { dst, src } => {
            let (rows, cols) = (smem.rows[src.0], smem.cols[src.0]);
            let view = window(storage, strides, dst, block_idx, env, rows, cols)?;
            let (dt, c) = (p.buffers[dst.buf.0].dtype, cols as usize);
            let (tile, data) = (&smem.bufs[src.0], &mut storage.tensors[dst.buf.0].data);
            for r in 0..rows {
                let (from, to) = (r as usize * c, view.row_start(r));
                quantize_row(dt, &tile[from..from + c], &mut data[to..to + c]);
            }
        }
        BlockStmt::Fill { dst, value } => fill_f32(&mut smem.bufs[dst.0], *value),
        BlockStmt::Gemm {
            a,
            b,
            acc,
            b_transposed,
            acc_col,
        } => exec::gemm_tiles(
            smem,
            (*a, *b, *acc),
            *b_transposed,
            *acc_col as usize,
            gemm_inner_vec,
        ),
        BlockStmt::OnlineSoftmax {
            scores,
            row_max,
            row_sum,
            rescale,
            scale,
        } => online_softmax_vec(smem, *scores, *row_max, *row_sum, rescale, *scale, scratch),
        BlockStmt::RowDiv { target, denom } => {
            let cols = smem.cols[target.0] as usize;
            let rows = smem.rows[target.0] as usize;
            let dcols = smem.cols[denom.0] as usize;
            scratch.col.clear();
            scratch
                .col
                .extend((0..rows).map(|r| smem.bufs[denom.0][r * dcols]));
            let t = &mut smem.bufs[target.0];
            for (r, &d) in scratch.col.iter().enumerate() {
                if d != 0.0 {
                    // SAFETY: row r of a rows×cols tile.
                    unsafe {
                        let mut tp = t.as_mut_ptr().add(r * cols);
                        for _ in 0..cols {
                            *tp /= d;
                            tp = tp.add(1);
                        }
                    }
                }
            }
        }
        BlockStmt::Relu { target } => {
            let buf = &mut smem.bufs[target.0];
            // SAFETY: in-bounds pointer walk over the whole buffer.
            unsafe {
                let mut vp = buf.as_mut_ptr();
                for _ in 0..buf.len() {
                    *vp = (*vp).max(0.0);
                    vp = vp.add(1);
                }
            }
        }
        BlockStmt::Gelu { target } => {
            let buf = &mut smem.bufs[target.0];
            // SAFETY: in-bounds pointer walk over the whole buffer.
            unsafe {
                let mut vp = buf.as_mut_ptr();
                for _ in 0..buf.len() {
                    *vp = exec::gelu(*vp);
                    vp = vp.add(1);
                }
            }
        }
        BlockStmt::AddTile { target, other } => {
            let (t, o) = (target.0, other.0);
            if t == o {
                let buf = &mut smem.bufs[t];
                // SAFETY: in-bounds pointer walk over the whole buffer.
                unsafe {
                    let mut vp = buf.as_mut_ptr();
                    for _ in 0..buf.len() {
                        *vp += *vp;
                        vp = vp.add(1);
                    }
                }
            } else {
                let (lo, hi) = smem.bufs.split_at_mut(t.max(o));
                let (dst, src) = if t < o {
                    (&mut lo[t], &hi[0])
                } else {
                    (&mut hi[0], &lo[o])
                };
                lanes::add_assign(dst, src);
            }
        }
        BlockStmt::Scale { target, factor } => {
            let buf = &mut smem.bufs[target.0];
            // SAFETY: in-bounds pointer walk over the whole buffer.
            unsafe {
                let mut vp = buf.as_mut_ptr();
                for _ in 0..buf.len() {
                    *vp *= factor;
                    vp = vp.add(1);
                }
            }
        }
        BlockStmt::Exp { target } => {
            let buf = &mut smem.bufs[target.0];
            // SAFETY: in-bounds pointer walk over the whole buffer.
            unsafe {
                let mut vp = buf.as_mut_ptr();
                for _ in 0..buf.len() {
                    *vp = (*vp).exp();
                    vp = vp.add(1);
                }
            }
        }
        BlockStmt::AddBias { target, bias } => {
            let cols = smem.cols[target.0] as usize;
            let rows = smem.rows[target.0] as usize;
            scratch.col.clear();
            scratch.col.extend_from_slice(&smem.bufs[bias.0][..cols]);
            let t = &mut smem.bufs[target.0];
            for r in 0..rows {
                lanes::add_assign(&mut t[r * cols..(r + 1) * cols], &scratch.col);
            }
        }
        BlockStmt::Quantize { target, dtype } => {
            let buf = &mut smem.bufs[target.0];
            // SAFETY: in-bounds pointer walk over the whole buffer.
            unsafe {
                let mut vp = buf.as_mut_ptr();
                for _ in 0..buf.len() {
                    *vp = dtype.quantize(*vp);
                    vp = vp.add(1);
                }
            }
        }
        BlockStmt::RowNormStats {
            a,
            residual,
            rows,
            cols,
            mean,
            rstd,
            eps,
        } => {
            let av = window(storage, strides, a, block_idx, env, *rows, *cols)?;
            let resv = match residual {
                Some(racc) => Some((
                    &storage.tensors[racc.buf.0].data,
                    window(storage, strides, racc, block_idx, env, *rows, *cols)?,
                )),
                None => None,
            };
            let (ad, c) = (&storage.tensors[a.buf.0].data, *cols as usize);
            let mcols = smem.cols[mean.0] as usize;
            let rcols = smem.cols[rstd.0] as usize;
            for r in 0..*rows {
                let rrow = resv.as_ref().map(|(rd, rv)| row(rd, rv, r, c));
                let (m_val, s_val) = row_norm_stats(row(ad, &av, r, c), rrow, *eps);
                smem.bufs[mean.0][r as usize * mcols] = m_val;
                smem.bufs[rstd.0][r as usize * rcols] = s_val;
            }
        }
        BlockStmt::NormalizeTile {
            target,
            mean,
            rstd,
            gamma,
            beta,
            round,
        } => {
            let rows = smem.rows[target.0] as usize;
            let cols = smem.cols[target.0] as usize;
            let mcols = smem.cols[mean.0] as usize;
            let rcols = smem.cols[rstd.0] as usize;
            stage_row_stats(
                scratch,
                &smem.bufs[mean.0],
                mcols,
                &smem.bufs[rstd.0],
                rcols,
                rows,
            );
            stage_affine(scratch, smem, *gamma, *beta, cols);
            let round = *round;
            let t = &mut smem.bufs[target.0];
            for r in 0..rows {
                let row = &mut t[r * cols..(r + 1) * cols];
                let (m, s) = (scratch.means[r], scratch.rstds[r]);
                let gv = (!scratch.gvals.is_empty()).then_some(scratch.gvals.as_slice());
                let bv = (!scratch.bvals.is_empty()).then_some(scratch.bvals.as_slice());
                // SAFETY: row/gv/bv all have length `cols`.
                unsafe {
                    let mut vp = row.as_mut_ptr();
                    for c in 0..cols {
                        let mut v = (*vp - m) * s;
                        if let Some(g) = gv {
                            v *= *g.as_ptr().add(c);
                        }
                        if let Some(b) = bv {
                            v += *b.as_ptr().add(c);
                        }
                        *vp = round.quantize(v);
                        vp = vp.add(1);
                    }
                }
            }
        }
        BlockStmt::AddGlobal { target, src } => {
            let (rows, cols) = (smem.rows[target.0], smem.cols[target.0]);
            let view = window(storage, strides, src, block_idx, env, rows, cols)?;
            let (data, c) = (&storage.tensors[src.buf.0].data, cols as usize);
            let t = &mut smem.bufs[target.0];
            for r in 0..rows {
                let out = r as usize * c;
                lanes::add_assign(&mut t[out..out + c], row(data, &view, r, c));
            }
        }
        BlockStmt::AddRecomputedNorm {
            target,
            a,
            residual,
            mean,
            rstd,
            gamma,
            beta,
        } => {
            let (rows, cols) = (smem.rows[target.0], smem.cols[target.0]);
            let av = window(storage, strides, a, block_idx, env, rows, cols)?;
            let resv = match residual {
                Some(racc) => Some((
                    &storage.tensors[racc.buf.0].data,
                    window(storage, strides, racc, block_idx, env, rows, cols)?,
                )),
                None => None,
            };
            let ad = &storage.tensors[a.buf.0].data;
            let (rows, cols) = (rows as usize, cols as usize);
            let mcols = smem.cols[mean.0] as usize;
            let rcols = smem.cols[rstd.0] as usize;
            stage_row_stats(
                scratch,
                &smem.bufs[mean.0],
                mcols,
                &smem.bufs[rstd.0],
                rcols,
                rows,
            );
            stage_affine(scratch, smem, *gamma, *beta, cols);
            let t = &mut smem.bufs[target.0];
            for r in 0..rows {
                let trow = &mut t[r * cols..(r + 1) * cols];
                let (m, s) = (scratch.means[r], scratch.rstds[r]);
                let gv = (!scratch.gvals.is_empty()).then_some(scratch.gvals.as_slice());
                let bv = (!scratch.bvals.is_empty()).then_some(scratch.bvals.as_slice());
                let arow = row(ad, &av, r as u64, cols);
                let rrow = resv.as_ref().map(|(rd, rv)| row(rd, rv, r as u64, cols));
                // SAFETY: `trow`, `arow`, `rrow` and any `gv`/`bv` are all
                // `cols` long.
                unsafe {
                    let mut vp = trow.as_mut_ptr();
                    let mut ap = arow.as_ptr();
                    let mut rp = rrow.map(|s| s.as_ptr());
                    for c in 0..cols {
                        let mut v = *ap;
                        if let Some(rpv) = rp {
                            v += *rpv;
                            rp = Some(rpv.add(1));
                        }
                        let mut n = (v - m) * s;
                        if let Some(g) = gv {
                            n *= *g.as_ptr().add(c);
                        }
                        if let Some(b) = bv {
                            n += *b.as_ptr().add(c);
                        }
                        *vp += n;
                        vp = vp.add(1);
                        ap = ap.add(1);
                    }
                }
            }
        }
        BlockStmt::LayerNormTile {
            target,
            gamma,
            beta,
            eps,
        } => {
            let rows = smem.rows[target.0] as usize;
            let cols = smem.cols[target.0] as usize;
            stage_affine(scratch, smem, *gamma, *beta, cols);
            let t = &mut smem.bufs[target.0];
            for r in 0..rows {
                let row = &mut t[r * cols..(r + 1) * cols];
                let mean = lanes::sum(row) / cols as f32;
                let var = lanes::centered_sq_sum(row, mean) / cols as f32;
                let inv = 1.0 / (var + eps).sqrt();
                let gv = (!scratch.gvals.is_empty()).then_some(scratch.gvals.as_slice());
                let bv = (!scratch.bvals.is_empty()).then_some(scratch.bvals.as_slice());
                // SAFETY: row/gv/bv all have length `cols`.
                unsafe {
                    let mut vp = row.as_mut_ptr();
                    for c in 0..cols {
                        let mut n = (*vp - mean) * inv;
                        if let Some(g) = gv {
                            n *= *g.as_ptr().add(c);
                        }
                        if let Some(b) = bv {
                            n += *b.as_ptr().add(c);
                        }
                        *vp = n;
                        vp = vp.add(1);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Copy the per-row mean/rstd columns into scratch (split-borrow helper).
fn stage_row_stats(
    scratch: &mut Scratch,
    mean_buf: &[f32],
    mcols: usize,
    rstd_buf: &[f32],
    rcols: usize,
    rows: usize,
) {
    scratch.means.clear();
    scratch.means.extend((0..rows).map(|r| mean_buf[r * mcols]));
    scratch.rstds.clear();
    scratch.rstds.extend((0..rows).map(|r| rstd_buf[r * rcols]));
}

/// Copy optional gamma/beta rows into scratch; empty scratch = absent.
fn stage_affine(
    scratch: &mut Scratch,
    smem: &Smem,
    gamma: Option<SmemId>,
    beta: Option<SmemId>,
    cols: usize,
) {
    scratch.gvals.clear();
    if let Some(g) = gamma {
        scratch.gvals.extend_from_slice(&smem.bufs[g.0][..cols]);
    }
    scratch.bvals.clear();
    if let Some(b) = beta {
        scratch.bvals.extend_from_slice(&smem.bufs[b.0][..cols]);
    }
}

/// Sequential column-order mean/rstd of one row (plus its residual row),
/// summation order identical to the interpreter's `RowNormStats`.
fn row_norm_stats(arow: &[f32], rrow: Option<&[f32]>, eps: f32) -> (f32, f32) {
    let cols = arow.len() as f32;
    let sum = match rrow {
        Some(rrow) => lanes::paired_sum(arow, rrow),
        None => lanes::sum(arow),
    };
    let mean_v = sum / cols;
    let var = match rrow {
        Some(rrow) => lanes::paired_centered_sq_sum(arow, rrow, mean_v),
        None => lanes::centered_sq_sum(arow, mean_v),
    };
    (mean_v, 1.0 / (var / cols + eps).sqrt())
}

#[allow(clippy::too_many_arguments)]
fn gemm_inner_vec(
    a: &[f32],
    b: &[f32],
    acc: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    b_transposed: bool,
    stride: usize,
    acc_col: usize,
) {
    if b_transposed {
        // b is n×k: per (i, j) a sequential-k dot product, register-blocked
        // 4 columns at a time (independent accumulators, identical per-dot
        // order).
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let crow = &mut acc[i * stride + acc_col..i * stride + acc_col + n];
            let mut j = 0;
            while j + 4 <= n {
                // SAFETY: rows j..j+4 of the n×k `b` tile; k elements each.
                unsafe {
                    let ap = arow.as_ptr();
                    let b0 = b.as_ptr().add(j * k);
                    let b1 = b.as_ptr().add((j + 1) * k);
                    let b2 = b.as_ptr().add((j + 2) * k);
                    let b3 = b.as_ptr().add((j + 3) * k);
                    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                    for kk in 0..k {
                        let av = *ap.add(kk);
                        s0 += av * *b0.add(kk);
                        s1 += av * *b1.add(kk);
                        s2 += av * *b2.add(kk);
                        s3 += av * *b3.add(kk);
                    }
                    crow[j] += s0;
                    crow[j + 1] += s1;
                    crow[j + 2] += s2;
                    crow[j + 3] += s3;
                }
                j += 4;
            }
            while j < n {
                let brow = &b[j * k..(j + 1) * k];
                let s = lanes::dot(arow, brow);
                crow[j] += s;
                j += 1;
            }
        }
    } else {
        // b is k×n; i-k-j with the interpreter's zero skip, the inner axpy
        // as an unrolled pointer loop.
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let crow = &mut acc[i * stride + acc_col..i * stride + acc_col + n];
            for (kk, &aval) in arow.iter().enumerate() {
                if aval == 0.0 {
                    continue;
                }
                lanes::axpy(crow, &b[kk * n..(kk + 1) * n], aval);
            }
        }
    }
}

/// Streaming softmax with reused scratch and row-slice pointer loops —
/// sequential column order preserved per row.
fn online_softmax_vec(
    smem: &mut Smem,
    scores: SmemId,
    row_max: SmemId,
    row_sum: SmemId,
    rescale: &[SmemId],
    scale: f32,
    scratch: &mut Scratch,
) {
    let rows = smem.rows[scores.0] as usize;
    let cols = smem.cols[scores.0] as usize;
    scratch.alphas.clear();
    scratch.alphas.resize(rows, 1.0);
    {
        let max_cols = smem.cols[row_max.0] as usize;
        let sum_cols = smem.cols[row_sum.0] as usize;
        for r in 0..rows {
            let m_old = smem.bufs[row_max.0][r * max_cols];
            let srow = &mut smem.bufs[scores.0][r * cols..(r + 1) * cols];
            let mut m_tile = f32::NEG_INFINITY;
            // SAFETY: in-bounds pointer walks over one `cols`-wide row.
            unsafe {
                let mut sp = srow.as_ptr();
                for _ in 0..cols {
                    m_tile = m_tile.max(scale * *sp);
                    sp = sp.add(1);
                }
            }
            let m_new = m_old.max(m_tile);
            let alpha = if m_old == f32::NEG_INFINITY {
                0.0
            } else {
                (m_old - m_new).exp()
            };
            let mut tile_sum = 0.0f32;
            // SAFETY: in-bounds pointer walk over the same row.
            unsafe {
                let mut sp = srow.as_mut_ptr();
                for _ in 0..cols {
                    let p = (scale * *sp - m_new).exp();
                    *sp = p;
                    tile_sum += p;
                    sp = sp.add(1);
                }
            }
            let s_old = smem.bufs[row_sum.0][r * sum_cols];
            smem.bufs[row_sum.0][r * sum_cols] = s_old * alpha + tile_sum;
            smem.bufs[row_max.0][r * max_cols] = m_new;
            scratch.alphas[r] = alpha;
        }
    }
    for id in rescale {
        let c = smem.cols[id.0] as usize;
        let rrows = smem.rows[id.0] as usize;
        let buf = &mut smem.bufs[id.0];
        for (r, &alpha) in scratch.alphas.iter().enumerate().take(rrows) {
            if alpha != 1.0 {
                // SAFETY: row r of an rrows×c tile.
                unsafe {
                    let mut vp = buf.as_mut_ptr().add(r * c);
                    for _ in 0..c {
                        *vp *= alpha;
                        vp = vp.add(1);
                    }
                }
            }
        }
    }
}

/// Chunked `f32`-lane primitives shared by the vectorized backend and the
/// CPU reference path in `mcfuser-ir` (which owns the element-wise steps
/// fusion leaves behind). Every helper preserves sequential per-element
/// evaluation order, so swapping them in is bit-neutral; they exist
/// because the workspace builds at opt-level 0, where checked indexing
/// and iterator adapters pay heavy per-element call overhead.
///
/// Each helper bounds its pointer walk by the *minimum* of its operand
/// slice lengths, so the `unsafe` blocks are locally sound for any
/// input. The vectorized backend hands them equal-length rows: tiles of
/// one `cols` width and global rows of windows `TileView::covers`
/// accepted.
pub mod lanes {
    /// `dst[i] += a * b[i]` — the GEMM axpy row update, unrolled by 4.
    pub fn axpy(dst: &mut [f32], b: &[f32], a: f32) {
        let n = dst.len().min(b.len());
        // SAFETY: j < n <= len of both slices on every access.
        unsafe {
            let cp = dst.as_mut_ptr();
            let bp = b.as_ptr();
            let mut j = 0;
            while j + 4 <= n {
                *cp.add(j) += a * *bp.add(j);
                *cp.add(j + 1) += a * *bp.add(j + 1);
                *cp.add(j + 2) += a * *bp.add(j + 2);
                *cp.add(j + 3) += a * *bp.add(j + 3);
                j += 4;
            }
            while j < n {
                *cp.add(j) += a * *bp.add(j);
                j += 1;
            }
        }
    }

    /// Sequential dot product `Σ a[i] * b[i]` (single accumulator — the
    /// order the references and the interpreter's transposed GEMM use).
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let mut s = 0.0f32;
        // SAFETY: j < n <= len of both slices. The unroll keeps one
        // accumulator updated in index order — no reassociation.
        unsafe {
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let mut j = 0;
            while j + 4 <= n {
                s += *ap.add(j) * *bp.add(j);
                s += *ap.add(j + 1) * *bp.add(j + 1);
                s += *ap.add(j + 2) * *bp.add(j + 2);
                s += *ap.add(j + 3) * *bp.add(j + 3);
                j += 4;
            }
            while j < n {
                s += *ap.add(j) * *bp.add(j);
                j += 1;
            }
        }
        s
    }

    /// `dst[i] += src[i]`.
    pub fn add_assign(dst: &mut [f32], src: &[f32]) {
        let n = dst.len().min(src.len());
        // SAFETY: j < n <= len of both slices.
        unsafe {
            let dp = dst.as_mut_ptr();
            let sp = src.as_ptr();
            let mut j = 0;
            while j + 4 <= n {
                *dp.add(j) += *sp.add(j);
                *dp.add(j + 1) += *sp.add(j + 1);
                *dp.add(j + 2) += *sp.add(j + 2);
                *dp.add(j + 3) += *sp.add(j + 3);
                j += 4;
            }
            while j < n {
                *dp.add(j) += *sp.add(j);
                j += 1;
            }
        }
    }

    /// Sequential sum (fold from `0.0` in index order).
    pub fn sum(a: &[f32]) -> f32 {
        let n = a.len();
        let mut s = 0.0f32;
        // SAFETY: j < n; single accumulator in index order.
        unsafe {
            let ap = a.as_ptr();
            let mut j = 0;
            while j + 4 <= n {
                s += *ap.add(j);
                s += *ap.add(j + 1);
                s += *ap.add(j + 2);
                s += *ap.add(j + 3);
                j += 4;
            }
            while j < n {
                s += *ap.add(j);
                j += 1;
            }
        }
        s
    }

    /// Sequential `Σ (a[i] + b[i])` — the prologue-stitch residual sum.
    pub fn paired_sum(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let mut s = 0.0f32;
        // SAFETY: j < n <= len of both slices; index order preserved.
        unsafe {
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let mut j = 0;
            while j + 4 <= n {
                s += *ap.add(j) + *bp.add(j);
                s += *ap.add(j + 1) + *bp.add(j + 1);
                s += *ap.add(j + 2) + *bp.add(j + 2);
                s += *ap.add(j + 3) + *bp.add(j + 3);
                j += 4;
            }
            while j < n {
                s += *ap.add(j) + *bp.add(j);
                j += 1;
            }
        }
        s
    }

    /// Sequential `Σ (a[i] - mean)²`.
    pub fn centered_sq_sum(a: &[f32], mean: f32) -> f32 {
        let n = a.len();
        let mut s = 0.0f32;
        // SAFETY: j < n; single accumulator in index order.
        unsafe {
            let ap = a.as_ptr();
            let mut j = 0;
            while j + 4 <= n {
                let d0 = *ap.add(j) - mean;
                s += d0 * d0;
                let d1 = *ap.add(j + 1) - mean;
                s += d1 * d1;
                let d2 = *ap.add(j + 2) - mean;
                s += d2 * d2;
                let d3 = *ap.add(j + 3) - mean;
                s += d3 * d3;
                j += 4;
            }
            while j < n {
                let d = *ap.add(j) - mean;
                s += d * d;
                j += 1;
            }
        }
        s
    }

    /// Sequential `Σ ((a[i] + b[i]) - mean)²`.
    pub fn paired_centered_sq_sum(a: &[f32], b: &[f32], mean: f32) -> f32 {
        let n = a.len().min(b.len());
        let mut s = 0.0f32;
        // SAFETY: j < n <= len of both slices; index order preserved.
        unsafe {
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let mut j = 0;
            while j + 4 <= n {
                let d0 = (*ap.add(j) + *bp.add(j)) - mean;
                s += d0 * d0;
                let d1 = (*ap.add(j + 1) + *bp.add(j + 1)) - mean;
                s += d1 * d1;
                let d2 = (*ap.add(j + 2) + *bp.add(j + 2)) - mean;
                s += d2 * d2;
                let d3 = (*ap.add(j + 3) + *bp.add(j + 3)) - mean;
                s += d3 * d3;
                j += 4;
            }
            while j < n {
                let d = (*ap.add(j) + *bp.add(j)) - mean;
                s += d * d;
                j += 1;
            }
        }
        s
    }

    /// `out[i] = a[i] + b[i]` into a fresh vector.
    pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
        let n = a.len().min(b.len());
        let mut out = vec![0.0f32; n];
        // SAFETY: j < n <= len of every slice.
        unsafe {
            let op = out.as_mut_ptr();
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let mut j = 0;
            while j + 4 <= n {
                *op.add(j) = *ap.add(j) + *bp.add(j);
                *op.add(j + 1) = *ap.add(j + 1) + *bp.add(j + 1);
                *op.add(j + 2) = *ap.add(j + 2) + *bp.add(j + 2);
                *op.add(j + 3) = *ap.add(j + 3) + *bp.add(j + 3);
                j += 4;
            }
            while j < n {
                *op.add(j) = *ap.add(j) + *bp.add(j);
                j += 1;
            }
        }
        out
    }

    /// `out[i] = max(a[i], 0.0)` into a fresh vector.
    pub fn relu(a: &[f32]) -> Vec<f32> {
        let n = a.len();
        let mut out = vec![0.0f32; n];
        // SAFETY: j < n == len of both buffers.
        unsafe {
            let op = out.as_mut_ptr();
            let ap = a.as_ptr();
            let mut j = 0;
            while j + 4 <= n {
                *op.add(j) = (*ap.add(j)).max(0.0);
                *op.add(j + 1) = (*ap.add(j + 1)).max(0.0);
                *op.add(j + 2) = (*ap.add(j + 2)).max(0.0);
                *op.add(j + 3) = (*ap.add(j + 3)).max(0.0);
                j += 4;
            }
            while j < n {
                *op.add(j) = (*ap.add(j)).max(0.0);
                j += 1;
            }
        }
        out
    }

    /// `out[i] = a[i] * f` into a fresh vector.
    pub fn scale(a: &[f32], f: f32) -> Vec<f32> {
        let n = a.len();
        let mut out = vec![0.0f32; n];
        // SAFETY: j < n == len of both buffers.
        unsafe {
            let op = out.as_mut_ptr();
            let ap = a.as_ptr();
            let mut j = 0;
            while j + 4 <= n {
                *op.add(j) = *ap.add(j) * f;
                *op.add(j + 1) = *ap.add(j + 1) * f;
                *op.add(j + 2) = *ap.add(j + 2) * f;
                *op.add(j + 3) = *ap.add(j + 3) * f;
                j += 4;
            }
            while j < n {
                *op.add(j) = *ap.add(j) * f;
                j += 1;
            }
        }
        out
    }

    /// `out[i] = gelu(a[i])` into a fresh vector (tanh approximation —
    /// delegates to [`crate::exec::gelu`], the single source of truth).
    pub fn gelu(a: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; a.len()];
        // SAFETY: in-bounds walk.
        unsafe {
            let op = out.as_mut_ptr();
            let ap = a.as_ptr();
            for i in 0..a.len() {
                *op.add(i) = crate::exec::gelu(*ap.add(i));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BufferRole, ProgramBuilder, TileAccess, TileIndex, VarRef};

    #[test]
    fn backend_parsing_and_default() {
        assert_eq!(ExecBackend::default(), ExecBackend::Vectorized);
        assert_eq!(
            "interpreter".parse::<ExecBackend>().unwrap(),
            ExecBackend::Interpreter
        );
        assert_eq!(
            "vectorized".parse::<ExecBackend>().unwrap(),
            ExecBackend::Vectorized
        );
        // Only the two names parse: no aliases, no case folding.
        for bad in [
            "triton",
            "vec",
            "VEC",
            "oracle",
            "interp",
            "Interpreter",
            " vectorized",
        ] {
            let err = bad.parse::<ExecBackend>().unwrap_err();
            assert!(err.contains("\"interpreter\" or \"vectorized\""), "{err}");
        }
        assert_eq!(ExecBackend::Interpreter.to_string(), "interpreter");
    }

    #[test]
    fn fill_f32_matches_slice_fill() {
        for len in [0usize, 1, 2, 3, 7, 64, 129] {
            let mut a = vec![5.0f32; len];
            let mut b = vec![5.0f32; len];
            fill_f32(&mut a, -1.25);
            b.fill(-1.25);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn lanes_preserve_sequential_order() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.731).sin() * 3.0).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 1.17).cos() * 2.0).collect();
        let mut s_ref = 0.0f32;
        for i in 0..37 {
            s_ref += a[i] * b[i];
        }
        assert_eq!(lanes::dot(&a, &b), s_ref);
        assert_eq!(lanes::sum(&a), a.iter().sum::<f32>());
        let mut axpy_ref = b.clone();
        for i in 0..37 {
            axpy_ref[i] += 0.37 * a[i];
        }
        let mut axpy_got = b.clone();
        lanes::axpy(&mut axpy_got, &a, 0.37);
        assert_eq!(axpy_got, axpy_ref);
    }

    /// A clipped-edge matmul (dims not divisible by tiles) must be
    /// byte-identical across backends — the module's core contract, in
    /// miniature (the broad proptest lives in `tests/exec_backends.rs`).
    #[test]
    fn vectorized_matches_interpreter_on_clipped_matmul() {
        let (m, n, k) = (50u64, 34u64, 21u64);
        let (tm, tn, tk) = (16u64, 16u64, 16u64);
        let mut bld = ProgramBuilder::new("mm", DType::F32);
        let a_buf = bld.buffer("A", vec![m, k], DType::F16, BufferRole::Input);
        let b_buf = bld.buffer("B", vec![k, n], DType::F32, BufferRole::Input);
        let c_buf = bld.buffer("C", vec![m, n], DType::F16, BufferRole::Output);
        let sa = bld.smem("sA", tm, tk, DType::F16);
        let sb = bld.smem("sB", tk, tn, DType::F32);
        let sc = bld.smem("sC", tm, tn, DType::F32);
        let gm = bld.grid_dim(crate::kernel::ceil_div(m, tm));
        let gn = bld.grid_dim(crate::kernel::ceil_div(n, tn));
        let kl = bld.fresh_loop();
        let body = vec![
            BlockStmt::Fill {
                dst: sc,
                value: 0.0,
            },
            BlockStmt::Loop {
                handle: kl,
                extent: crate::kernel::ceil_div(k, tk),
                body: vec![
                    BlockStmt::Load {
                        src: TileAccess {
                            buf: a_buf,
                            indices: vec![
                                TileIndex { var: gm, tile: tm },
                                TileIndex {
                                    var: VarRef::Loop(kl),
                                    tile: tk,
                                },
                            ],
                        },
                        dst: sa,
                    },
                    BlockStmt::Load {
                        src: TileAccess {
                            buf: b_buf,
                            indices: vec![
                                TileIndex {
                                    var: VarRef::Loop(kl),
                                    tile: tk,
                                },
                                TileIndex { var: gn, tile: tn },
                            ],
                        },
                        dst: sb,
                    },
                    BlockStmt::Gemm {
                        a: sa,
                        b: sb,
                        acc: sc,
                        b_transposed: false,
                        acc_col: 0,
                    },
                ],
            },
            BlockStmt::Store {
                dst: TileAccess {
                    buf: c_buf,
                    indices: vec![
                        TileIndex { var: gm, tile: tm },
                        TileIndex { var: gn, tile: tn },
                    ],
                },
                src: sc,
            },
        ];
        let p = bld.finish(body);
        let mut st_i = TensorStorage::for_program(&p);
        for (bi, t) in st_i.tensors.iter_mut().enumerate().take(2) {
            for (i, v) in t.data.iter_mut().enumerate() {
                *v = (((i * 7 + bi * 13) % 29) as f32 - 14.0) / 7.0;
            }
        }
        let mut st_v = st_i.clone();
        InterpreterExec.execute(&p, &mut st_i).unwrap();
        VectorizedExec.execute(&p, &mut st_v).unwrap();
        let (a, b) = (&st_i.tensors[2].data, &st_v.tensors[2].data);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
