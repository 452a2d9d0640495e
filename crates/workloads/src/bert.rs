//! End-to-end model graphs: BERT encoders (Fig. 9 workloads), a ViT
//! encoder block and an MLP-Mixer block.
//!
//! The graphs use the reproduction's operator IR. Multi-head reshapes are
//! expressed with the metadata `Reshape` op (element-order preserving);
//! both the CPU reference and the fused execution interpret them the same
//! way, so end-to-end numerics remain comparable even though a real
//! framework would permute. The substitution changes which elements each
//! head sees, not any tensor shape or the FLOPs of any op.

use mcfuser_ir::{Graph, GraphBuilder, NodeId};
use mcfuser_sim::DType;

/// Configuration of a BERT-family encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BertConfig {
    /// Number of encoder layers.
    pub layers: u32,
    /// Hidden width.
    pub hidden: u64,
    /// Attention heads.
    pub heads: u64,
    /// Sequence length.
    pub seq: u64,
    /// FFN intermediate width (4 × hidden for BERT).
    pub intermediate: u64,
}

impl BertConfig {
    /// BERT-Small: 4 layers, hidden 512, 8 heads.
    pub fn small(seq: u64) -> Self {
        BertConfig {
            layers: 4,
            hidden: 512,
            heads: 8,
            seq,
            intermediate: 2048,
        }
    }

    /// BERT-Base: 12 layers, hidden 768, 12 heads.
    pub fn base(seq: u64) -> Self {
        BertConfig {
            layers: 12,
            hidden: 768,
            heads: 12,
            seq,
            intermediate: 3072,
        }
    }

    /// BERT-Large: 24 layers, hidden 1024, 16 heads.
    pub fn large(seq: u64) -> Self {
        BertConfig {
            layers: 24,
            hidden: 1024,
            heads: 16,
            seq,
            intermediate: 4096,
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> u64 {
        self.hidden / self.heads
    }
}

/// Append one encoder layer to the builder; returns the layer output.
fn encoder_layer(gb: &mut GraphBuilder, cfg: &BertConfig, x: NodeId, l: u32) -> NodeId {
    let (seq, hidden, heads, hd) = (cfg.seq, cfg.hidden, cfg.heads, cfg.head_dim());
    // Self-attention: Q, K, V projections (biased, like HuggingFace).
    let q = gb.linear(&format!("l{l}.q"), x, hidden, true);
    let k = gb.linear(&format!("l{l}.k"), x, hidden, true);
    let v = gb.linear(&format!("l{l}.v"), x, hidden, true);
    let qh = gb.reshape(&format!("l{l}.qh"), q, vec![heads, seq, hd]);
    let kh = gb.reshape(&format!("l{l}.kh"), k, vec![heads, seq, hd]);
    let vh = gb.reshape(&format!("l{l}.vh"), v, vec![heads, seq, hd]);
    let scores = gb.batch_matmul(&format!("l{l}.qk"), qh, kh, true);
    let probs = gb.softmax(&format!("l{l}.sm"), scores, 1.0 / (hd as f32).sqrt());
    let ctx = gb.batch_matmul(&format!("l{l}.pv"), probs, vh, false);
    let merged = gb.reshape(&format!("l{l}.merge"), ctx, vec![seq, hidden]);
    let proj = gb.linear(&format!("l{l}.o"), merged, hidden, true);
    // Affine LayerNorms, like the real model — and what lets the
    // partitioner stitch `res1→ln1` and `res2→ln2` into the FFN chain.
    let res1 = gb.add(&format!("l{l}.res1"), proj, x);
    let ln1 = gb.layer_norm_affine(&format!("l{l}.ln1"), res1);
    // FFN.
    let up = gb.linear(&format!("l{l}.up"), ln1, cfg.intermediate, true);
    let act = gb.gelu(&format!("l{l}.gelu"), up);
    let down = gb.linear(&format!("l{l}.down"), act, hidden, true);
    let res2 = gb.add(&format!("l{l}.res2"), down, ln1);
    gb.layer_norm_affine(&format!("l{l}.ln2"), res2)
}

/// Build a BERT encoder graph.
pub fn bert_graph(name: &str, cfg: &BertConfig) -> Graph {
    let mut gb = GraphBuilder::new(name, DType::F16);
    let mut x = gb.input("embeddings", vec![cfg.seq, cfg.hidden]);
    for l in 0..cfg.layers {
        x = encoder_layer(&mut gb, cfg, x, l);
    }
    gb.finish(vec![x])
}

/// BERT-Small at the given sequence length.
pub fn bert_small(seq: u64) -> Graph {
    bert_graph("Bert-Small", &BertConfig::small(seq))
}

/// BERT-Base at the given sequence length.
pub fn bert_base(seq: u64) -> Graph {
    bert_graph("Bert-Base", &BertConfig::base(seq))
}

/// BERT-Large at the given sequence length.
pub fn bert_large(seq: u64) -> Graph {
    bert_graph("Bert-Large", &BertConfig::large(seq))
}

/// One ViT encoder block (patches = sequence positions).
pub fn vit_block(patches: u64, hidden: u64, heads: u64) -> Graph {
    let cfg = BertConfig {
        layers: 1,
        hidden,
        heads,
        seq: patches,
        intermediate: 4 * hidden,
    };
    bert_graph("ViT-block", &cfg)
}

/// One MLP-Mixer block: token-mixing MLP then channel-mixing MLP
/// (two unbiased GEMM chains — the MBCI shape behind S7–S9).
pub fn mixer_block(tokens: u64, channels: u64, token_hidden: u64, channel_hidden: u64) -> Graph {
    let mut gb = GraphBuilder::new("Mixer-block", DType::F16);
    let x = gb.input("x", vec![tokens, channels]);
    // Token mixing operates on the transposed view; our IR models it as a
    // metadata reshape (self-consistent across reference and compiled
    // paths; see module docs).
    let xt = gb.reshape("t1", x, vec![channels, tokens]);
    let tm1 = gb.linear("tok.fc1", xt, token_hidden, false);
    let tm2 = gb.linear("tok.fc2", tm1, tokens, false);
    let back = gb.reshape("t2", tm2, vec![tokens, channels]);
    let res1 = gb.add("res1", back, x);
    let ln = gb.layer_norm("ln", res1);
    let cm1 = gb.linear("ch.fc1", ln, channel_hidden, false);
    let cm2 = gb.linear("ch.fc2", cm1, channels, false);
    let res2 = gb.add("res2", cm2, ln);
    gb.finish(vec![res2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfuser_ir::{partition, Op};
    use mcfuser_sim::DeviceSpec;

    #[test]
    fn bert_base_structure() {
        let g = bert_base(512);
        // 12 layers × (1 softmax) — count softmax nodes.
        let softmaxes = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Softmax { .. }))
            .count();
        assert_eq!(softmaxes, 12);
        assert_eq!(g.outputs.len(), 1);
    }

    #[test]
    fn partitioner_finds_attention_and_stitched_ffn_chains() {
        // Every layer yields exactly two fused kernels: the attention
        // chain, and the FFN stitched from `res1→ln1` (prologue) through
        // `res2→ln2` (epilogue). BERT-Small's bare 512→2048 FFN sits
        // *just* under the A100 ridge (φ ≈ 0.99 × ridge) — rejected by
        // the headroom gate — but the stitched round trips fold in
        // enough traffic that the second-chance pass accepts it.
        let g = bert_small(512);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 8, "two chains per layer");
        let attn: Vec<_> = part
            .chains
            .iter()
            .filter(|c| c.chain.has_softmax())
            .collect();
        assert_eq!(attn.len(), 4, "one attention chain per layer");
        for fc in &attn {
            assert_eq!(fc.chain.batch, 8);
            assert_eq!(fc.chain.m, 512);
        }
        let ffn: Vec<_> = part
            .chains
            .iter()
            .filter(|c| !c.chain.has_softmax())
            .collect();
        assert_eq!(ffn.len(), 4, "one stitched FFN chain per layer");
        for fc in &ffn {
            let p = fc.chain.prologue.expect("FFN prologue");
            assert!(p.residual && p.affine);
            let e = fc.chain.stitch_epilogue.expect("FFN epilogue");
            assert!(e.layer_norm && e.affine);
            assert!(fc.unstitched.is_some(), "degrade twin carried");
        }
        // Zero elementwise glue left for the reference backend.
        assert!(
            part.rest.iter().all(|&n| !g.node(n).op.is_elementwise()),
            "elementwise glue left in rest"
        );
    }

    #[test]
    fn ffn_stays_unfused_in_bert() {
        // The MBCI gate doing real work: BERT-Base's 768→3072 FFN has
        // fat, compute-bound reductions — even with the stitched
        // prologue/epilogue round trips folded in, its intensity stays
        // over the ridge, so it stays with the fallback backend.
        let g = bert_base(512);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(part.chains.len(), 12, "attention only");
        assert!(part.chains.iter().all(|c| c.chain.has_softmax()));
    }

    #[test]
    fn attention_flops_fraction_matches_paper_narrative() {
        // Paper §II-A: at seq 512 self-attention is ~11 % of BERT-Large
        // FLOPs. Count bmm FLOPs vs total.
        let g = bert_large(512);
        let total = g.total_flops();
        let bmm: f64 = g
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::BatchMatMul { .. }))
            .map(|(i, _)| {
                let n = &g.nodes[i];
                let a = &g.nodes[n.inputs[0].0];
                let k = *a.shape.last().unwrap();
                let out: u64 = n.shape.iter().product();
                2.0 * out as f64 * k as f64
            })
            .sum();
        let frac = bmm / total;
        assert!(
            (0.05..0.25).contains(&frac),
            "attention FLOP fraction {frac}"
        );
    }

    #[test]
    fn mixer_block_yields_mbci_chains() {
        let g = mixer_block(512, 256, 256, 1024);
        let part = partition(&g, &DeviceSpec::a100());
        assert!(!part.chains.is_empty(), "mixer MLPs should fuse");
        // The channel-mixing MLP picks up its trailing residual Add as a
        // stitched epilogue (the block's `ln` is non-affine, so no
        // prologue attaches).
        assert!(part
            .chains
            .iter()
            .any(|c| c.chain.stitch_epilogue.is_some()));
    }

    #[test]
    fn vit_block_has_one_attention() {
        let g = vit_block(256, 768, 12);
        let part = partition(&g, &DeviceSpec::a100());
        assert_eq!(
            part.chains.iter().filter(|c| c.chain.has_softmax()).count(),
            1
        );
        // At 256 patches the 768→3072 FFN is lean enough that the
        // stitched second-chance pass takes it too.
        assert_eq!(
            part.chains
                .iter()
                .filter(|c| c.chain.prologue.is_some())
                .count(),
            1
        );
    }

    #[test]
    fn head_dim_divides() {
        assert_eq!(BertConfig::base(512).head_dim(), 64);
        assert_eq!(BertConfig::large(512).head_dim(), 64);
        assert_eq!(BertConfig::small(512).head_dim(), 64);
    }
}
