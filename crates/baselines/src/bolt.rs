//! BOLT-style baseline: CUTLASS-template fusion.
//!
//! BOLT bridges auto-tuners and hardware-native templates (§II-B):
//!
//! * dual-GEMM chains fuse through back-to-back GEMM templates, which
//!   require the first GEMM's full `N` extent resident per thread block
//!   (the CUTLASS b2b-GEMM constraint) and tiles drawn from a fixed
//!   template table;
//! * self-attention does **not** match its pattern table (the paper:
//!   "BOLT lacks the ability to fuse self-attention modules") — it falls
//!   back to unfused template GEMMs + streaming softmax;
//! * `sm_86` devices are unsupported outright ("BOLT does not support
//!   GPUs with sm86 compute capability, including RTX 3080");
//! * tuning = instantiating and measuring each feasible template
//!   (heavy C++ compiles on the virtual clock — Table IV's 88 s).

use parking_lot::Mutex;
use rustc_hash::FxHashSet;

use mcfuser_core::OpCostModel;
use mcfuser_ir::{ChainSpec, Epilogue, Graph, NodeId, Op};
use mcfuser_sim::{measure_noisy, Arch, CostProfile, DeviceSpec, StreamKernel};
use mcfuser_tile::{lower, Candidate, LoweringOptions, TilingExpr};

use crate::backend::{Backend, Capabilities, ChainRun, Unsupported};
use crate::libkernels::{layernorm_kernel, matmul_time, pick_library_tile, softmax_kernels};

/// The b2b-GEMM template table: (tile_m, tile_k, tile_h) — `n` is fixed
/// to the full extent by the template design.
pub const B2B_TEMPLATES: [(u64, u64, u64); 8] = [
    (64, 32, 64),
    (128, 32, 64),
    (64, 64, 64),
    (64, 64, 128),
    (128, 64, 128),
    (128, 32, 128),
    (256, 32, 64),
    (64, 32, 128),
];

/// The BOLT baseline.
#[derive(Debug, Default)]
pub struct Bolt {
    /// Distinct GEMM shapes whose templates were instantiated (for
    /// end-to-end tuning-time accounting).
    instantiated: Mutex<FxHashSet<String>>,
}

impl Bolt {
    /// Fresh backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Bolt {
    /// Try to instantiate one b2b template as a fused kernel.
    fn instantiate(
        chain: &ChainSpec,
        dev: &DeviceSpec,
        tpl: (u64, u64, u64),
    ) -> Option<(f64, String)> {
        let n = chain.dims[1];
        let expr = TilingExpr::parse("mhnk", chain)?;
        let cand = Candidate::new(
            expr,
            vec![tpl.0, tpl.1, n, tpl.2], // m, k, n (full), h
        );
        let lk = lower(chain, &cand, &LoweringOptions::for_device(dev)).ok()?;
        if lk.smem_bytes > dev.smem_per_block {
            return None;
        }
        let prof = measure_noisy(&lk.program, dev, 0xB017);
        Some((prof.time, cand.describe(chain)))
    }
}

impl Backend for Bolt {
    fn name(&self) -> &'static str {
        "BOLT"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_mbci: "Partial",
            automatic: "Yes",
            search_space: "Template-based fusion",
            objective: "Measured performance",
            tuning_time: "Mid",
        }
    }

    fn run_chain(&self, chain: &ChainSpec, dev: &DeviceSpec) -> Result<ChainRun, Unsupported> {
        if dev.arch == Arch::Sm86 {
            return Err(Unsupported::new("BOLT does not support sm_86 devices"));
        }
        let cost = CostProfile::cutlass();
        let mut tuning = 0.0;

        // Pattern table: plain dual-GEMM chains (optionally with an
        // element-wise epilogue) fuse; softmax chains do not.
        let fusible = chain.num_ops() == 2 && !chain.has_softmax();
        if fusible {
            let mut best: Option<(f64, String)> = None;
            for tpl in B2B_TEMPLATES {
                tuning += cost.compile_seconds + cost.measure_overhead_seconds;
                if let Some((t, note)) = Self::instantiate(chain, dev, tpl) {
                    tuning += cost.measure_repeats as f64 * t;
                    if best.as_ref().map(|(bt, _)| t < *bt).unwrap_or(true) {
                        best = Some((t, note));
                    }
                }
            }
            if let Some((time, note)) = best {
                return Ok(ChainRun {
                    time,
                    tuning_seconds: tuning,
                    kernels: 1,
                    fused: true,
                    note: format!("b2b template {note}"),
                });
            }
            // No template fits (e.g. huge N): fall through to unfused.
        }

        // Unfused fallback: per-op CUTLASS GEMMs + streaming softmax.
        let esz = chain.dtype.size_bytes();
        let mut time = 0.0;
        let mut kernels = 0u32;
        for op in 0..chain.num_ops() {
            let (m, k, n) = (chain.m, chain.dims[op], chain.dims[op + 1]);
            let tiles = pick_library_tile(chain.batch, m, n, k, dev);
            tuning += cost.compile_seconds;
            let ep = match chain.epilogues[op] {
                Epilogue::Relu => Epilogue::Relu,
                Epilogue::Gelu => Epilogue::Gelu,
                Epilogue::Scale(f) => Epilogue::Scale(f),
                _ => Epilogue::None,
            };
            time += matmul_time(
                &format!("{}::cutlass{}", chain.name, op),
                chain.batch,
                m,
                n,
                k,
                tiles,
                chain.dtype,
                dev,
                op > 0,
                ep,
            );
            kernels += 1;
            if chain.epilogues[op].is_rowwise() {
                for kern in softmax_kernels(chain.batch * m, n, esz, true) {
                    time += kern.time(dev);
                    kernels += 1;
                }
            }
        }
        Ok(ChainRun {
            time,
            tuning_seconds: tuning,
            kernels,
            fused: false,
            note: "unfused cutlass fallback".into(),
        })
    }
}

/// Element-wise ops BOLT folds as GEMM epilogues (its pattern table:
/// GEMM + bias + ReLU — §VI-C).
fn bolt_folds(graph: &Graph, node: NodeId) -> bool {
    let n = graph.node(node);
    if !matches!(n.op, Op::Relu | Op::Add | Op::Scale(_)) {
        return false;
    }
    let producer = n.inputs[0];
    graph.node(producer).op.is_compute_intensive() && graph.consumers()[producer.0].len() == 1
}

impl OpCostModel for Bolt {
    fn name(&self) -> &str {
        "BOLT"
    }

    fn op_time(&self, graph: &Graph, node: NodeId, dev: &DeviceSpec) -> f64 {
        let n = graph.node(node);
        let esz = graph.dtype.size_bytes();
        match &n.op {
            Op::Input | Op::Weight | Op::Reshape => 0.0,
            Op::Linear | Op::BatchMatMul { .. } => {
                let x = graph.node(n.inputs[0]);
                let k = *x.shape.last().unwrap();
                let out_cols = *n.shape.last().unwrap();
                let rows: u64 = n.shape.iter().product::<u64>() / out_cols;
                let tiles = pick_library_tile(1, rows, out_cols, k, dev);
                matmul_time(
                    &n.name,
                    1,
                    rows,
                    out_cols,
                    k,
                    tiles,
                    graph.dtype,
                    dev,
                    true,
                    Epilogue::None,
                )
            }
            Op::Softmax { .. } => {
                // Not in BOLT's pattern table: plain two-pass kernels.
                let cols = *n.shape.last().unwrap();
                let rows: u64 = n.shape.iter().product::<u64>() / cols;
                softmax_kernels(rows, cols, esz, true)
                    .iter()
                    .map(|k| k.time(dev))
                    .sum()
            }
            Op::LayerNorm => {
                let cols = *n.shape.last().unwrap();
                let rows: u64 = n.shape.iter().product::<u64>() / cols;
                layernorm_kernel(rows, cols, esz, true).time(dev)
            }
            Op::Relu | Op::Gelu | Op::Scale(_) | Op::Add => {
                if bolt_folds(graph, node) {
                    0.0
                } else {
                    let elems: u64 = n.shape.iter().product();
                    StreamKernel::elementwise(&n.name, elems, esz)
                        .with_l2_hot()
                        .time(dev)
                }
            }
            Op::SplitHeads { .. } | Op::MergeHeads | Op::RepeatKv { .. } => {
                // Real data-movement permute: one stream pass, no fold.
                let elems: u64 = n.shape.iter().product();
                StreamKernel::elementwise(&n.name, elems, esz).time(dev)
            }
            Op::WriteRow => {
                // In-place row update: only the new rows move.
                let elems: u64 = graph.node(n.inputs[1]).shape.iter().product();
                StreamKernel::elementwise(&n.name, elems, esz).time(dev)
            }
        }
    }

    fn op_time_standalone(&self, graph: &Graph, node: NodeId, dev: &DeviceSpec) -> f64 {
        let n = graph.node(node);
        // BOLT's pattern table folds these into a GEMM epilogue; with the
        // producer fused away the fold is impossible.
        if matches!(n.op, Op::Relu | Op::Add | Op::Scale(_)) {
            let elems: u64 = n.shape.iter().product();
            return StreamKernel::elementwise(&n.name, elems, graph.dtype.size_bytes())
                .with_l2_hot()
                .time(dev);
        }
        self.op_time(graph, node, dev)
    }

    fn tuning_seconds(&self, graph: &Graph, nodes: &[NodeId], dev: &DeviceSpec) -> f64 {
        // Template instantiation per distinct GEMM shape (heavy C++
        // compiles), plus Relay-level graph handling.
        let cost = CostProfile::cutlass();
        let mut total = 15.0;
        let mut inst = self.instantiated.lock();
        for &id in nodes {
            let n = graph.node(id);
            match &n.op {
                Op::Linear | Op::BatchMatMul { .. } => {
                    let x = graph.node(n.inputs[0]);
                    let k = *x.shape.last().unwrap();
                    let out_cols = *n.shape.last().unwrap();
                    let rows: u64 = n.shape.iter().product::<u64>() / out_cols;
                    let key = format!("{rows}x{out_cols}x{k}:{}", dev.name);
                    if inst.insert(key) {
                        total += 2.0 * cost.compile_seconds + 2.0 * cost.measure_overhead_seconds;
                    }
                    total += 0.6; // per-instance integration cost
                }
                Op::Input | Op::Weight | Op::Reshape => {}
                _ => total += 0.5,
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_rtx3080() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let err = Bolt::new()
            .run_chain(&chain, &DeviceSpec::rtx3080())
            .unwrap_err();
        assert!(err.reason.contains("sm_86"));
    }

    #[test]
    fn fuses_dual_gemm_on_a100() {
        let chain = ChainSpec::gemm_chain("g", 1, 512, 256, 64, 64);
        let run = Bolt::new().run_chain(&chain, &DeviceSpec::a100()).unwrap();
        assert!(run.fused);
        assert_eq!(run.kernels, 1);
        assert!(run.tuning_seconds > 5.0, "{}", run.tuning_seconds);
    }

    #[test]
    fn attention_falls_back_unfused() {
        let chain = ChainSpec::attention("s", 8, 512, 512, 64, 64);
        let run = Bolt::new().run_chain(&chain, &DeviceSpec::a100()).unwrap();
        assert!(!run.fused);
        assert!(run.kernels >= 4);
    }

    #[test]
    fn large_n_breaks_templates() {
        // N = 4096 per-block panel cannot fit shared memory → unfused.
        let chain = ChainSpec::gemm_chain("g", 1, 512, 4096, 64, 64);
        let run = Bolt::new().run_chain(&chain, &DeviceSpec::a100()).unwrap();
        assert!(!run.fused, "{}", run.note);
    }
}
