//! Relay-style baseline: template per-op compilation with classic
//! epilogue fusion, no per-shape tuning.
//!
//! Relay's strength over eager PyTorch is graph-level fusion of
//! memory-intensive operators (GEMM + bias + ReLU in one kernel, a single
//! fused softmax); its weakness is fixed kernel templates "without
//! subsequent fine-tuning" (§VI-C). It also implements [`OpCostModel`] so
//! the end-to-end compiler can use it as the fallback for non-MBCI
//! operators — the `MCFuser+Relay` configuration of Fig. 9.

use parking_lot::Mutex;
use rustc_hash::FxHashSet;

use mcfuser_core::OpCostModel;
use mcfuser_ir::{ChainSpec, Epilogue, Graph, NodeId, Op};
use mcfuser_sim::{DeviceSpec, StreamKernel};

use crate::backend::{Backend, Capabilities, ChainRun, Unsupported};
use crate::libkernels::{fused_softmax_kernel, layernorm_kernel, matmul_time};

/// Relay's fixed GEMM template.
pub const RELAY_TILE: (u64, u64, u64) = (128, 64, 32);

/// The Relay baseline.
#[derive(Debug, Default)]
pub struct Relay {
    /// Distinct op signatures compiled so far (for tuning-time accounting).
    compiled: Mutex<FxHashSet<String>>,
}

impl Relay {
    /// Fresh backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Backend for Relay {
    fn name(&self) -> &'static str {
        "Relay"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_mbci: "No",
            automatic: "Yes",
            search_space: "Op templates + epilogue fusion",
            objective: "Pattern rules",
            tuning_time: "Short",
        }
    }

    fn run_chain(&self, chain: &ChainSpec, dev: &DeviceSpec) -> Result<ChainRun, Unsupported> {
        let mut time = 0.0;
        let mut kernels = 0u32;
        let esz = chain.dtype.size_bytes();
        for op in 0..chain.num_ops() {
            let (m, k, n) = (chain.m, chain.dims[op], chain.dims[op + 1]);
            // Element-wise epilogues fuse into the GEMM template.
            let fused_epilogue = match chain.epilogues[op] {
                Epilogue::Relu => Epilogue::Relu,
                Epilogue::Gelu => Epilogue::Gelu,
                Epilogue::Scale(f) => Epilogue::Scale(f),
                _ => Epilogue::None,
            };
            time += matmul_time(
                &format!("{}::mm{}", chain.name, op),
                chain.batch,
                m,
                n,
                k,
                RELAY_TILE,
                chain.dtype,
                dev,
                op > 0,
                fused_epilogue,
            );
            kernels += 1;
            if chain.epilogues[op].is_rowwise() {
                // Scale (and mask add) folds into the fused softmax kernel.
                time += fused_softmax_kernel(chain.batch * m, n, esz, true).time(dev);
                kernels += 1;
            }
        }
        Ok(ChainRun {
            time,
            tuning_seconds: chain.num_ops() as f64 * 0.8,
            kernels,
            fused: false,
            note: format!("template {:?}", RELAY_TILE),
        })
    }
}

/// Is this node an element-wise op that Relay folds into its producer
/// compute op (single-consumer GEMM epilogue)?
fn folds_into_producer(graph: &Graph, node: NodeId) -> bool {
    let n = graph.node(node);
    let elementwise = matches!(n.op, Op::Relu | Op::Gelu | Op::Scale(_) | Op::Add);
    if !elementwise {
        return false;
    }
    let producer = n.inputs[0];
    let p = graph.node(producer);
    p.op.is_compute_intensive() && graph.consumers()[producer.0].len() == 1
}

impl OpCostModel for Relay {
    fn name(&self) -> &str {
        "Relay"
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
                matmul_time(
                    &n.name,
                    1,
                    rows,
                    out_cols,
                    k,
                    RELAY_TILE,
                    graph.dtype,
                    dev,
                    true,
                    Epilogue::None,
                )
            }
            Op::Softmax { .. } => {
                let cols = *n.shape.last().unwrap();
                let rows: u64 = n.shape.iter().product::<u64>() / cols;
                fused_softmax_kernel(rows, cols, esz, true).time(dev)
            }
            Op::LayerNorm => {
                let cols = *n.shape.last().unwrap();
                let rows: u64 = n.shape.iter().product::<u64>() / cols;
                layernorm_kernel(rows, cols, esz, true).time(dev)
            }
            Op::Relu | Op::Gelu | Op::Scale(_) | Op::Add => {
                if folds_into_producer(graph, node) {
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
        // With the producer fused away there is no GEMM epilogue to fold
        // into: the element-wise op streams through memory on its own.
        if matches!(n.op, Op::Relu | Op::Gelu | Op::Scale(_) | Op::Add) {
            let elems: u64 = n.shape.iter().product();
            return StreamKernel::elementwise(&n.name, elems, graph.dtype.size_bytes())
                .with_l2_hot()
                .time(dev);
        }
        self.op_time(graph, node, dev)
    }

    fn tuning_seconds(&self, graph: &Graph, nodes: &[NodeId], _dev: &DeviceSpec) -> f64 {
        // Relay builds each operator instance once (no measurement-based
        // tuning): per-node codegen plus fixed graph-pass overhead.
        let mut compiled = self.compiled.lock();
        let mut secs = 10.0;
        for &n in nodes {
            let node = graph.node(n);
            if matches!(node.op, Op::Input | Op::Weight | Op::Reshape) {
                continue;
            }
            compiled.insert(format!("{}::{}", graph.name, node.name));
            secs += 0.8;
        }
        secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfuser_ir::GraphBuilder;
    use mcfuser_sim::DType;

    #[test]
    fn attention_uses_three_kernels() {
        let chain = ChainSpec::attention("s", 8, 512, 512, 64, 64);
        let run = Relay::new().run_chain(&chain, &DeviceSpec::a100()).unwrap();
        assert_eq!(run.kernels, 3); // bmm + fused softmax + bmm
    }

    #[test]
    fn relay_beats_pytorch_on_launch_count() {
        let chain = ChainSpec::attention("s", 8, 512, 512, 64, 64);
        let dev = DeviceSpec::a100();
        let relay = Relay::new().run_chain(&chain, &dev).unwrap();
        let pt = crate::pytorch::PyTorch.run_chain(&chain, &dev).unwrap();
        assert!(relay.kernels < pt.kernels);
    }

    #[test]
    fn elementwise_after_linear_is_free() {
        let mut gb = GraphBuilder::new("t", DType::F16);
        let x = gb.input("x", vec![256, 256]);
        let y = gb.linear("fc", x, 256, false);
        let r = gb.relu("act", y);
        let g = gb.finish(vec![r]);
        let relay = Relay::new();
        let dev = DeviceSpec::a100();
        assert_eq!(relay.op_time(&g, r, &dev), 0.0);
        assert!(relay.op_time(&g, y, &dev) > 0.0);
    }

    #[test]
    fn standalone_elementwise_costs_a_kernel() {
        let mut gb = GraphBuilder::new("t", DType::F16);
        let x = gb.input("x", vec![256, 256]);
        let r = gb.relu("act", x);
        let g = gb.finish(vec![r]);
        let relay = Relay::new();
        assert!(relay.op_time(&g, r, &DeviceSpec::a100()) > 0.0);
    }

    #[test]
    fn tuning_time_scales_with_nodes() {
        let mut gb = GraphBuilder::new("t", DType::F16);
        let x = gb.input("x", vec![256, 256]);
        let mut cur = x;
        let mut nodes = Vec::new();
        for i in 0..8 {
            cur = gb.linear(&format!("fc{i}"), cur, 256, false);
            nodes.push(cur);
        }
        let g = gb.finish(vec![cur]);
        let relay = Relay::new();
        let dev = DeviceSpec::a100();
        let few = relay.tuning_seconds(&g, &nodes[..2], &dev);
        let many = relay.tuning_seconds(&g, &nodes, &dev);
        assert!(many > few);
    }
}
