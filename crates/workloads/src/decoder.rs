//! Autoregressive decoder graphs: KV-cache attention with prefill and
//! single-token decode variants, optional grouped-query heads, and the
//! GEMV-shaped chain builders where the memory-bound gate flips hard
//! toward fusion.
//!
//! Unlike the encoder graphs in [`crate::bert`] (which use the metadata
//! `Reshape` op), decoder graphs split and merge attention heads with
//! the real-permute `SplitHeads`/`MergeHeads` ops so the per-head KV
//! panels a cache stores are layout-correct at any sequence length. At
//! `t == 1` the permutes degenerate to element-order-preserving copies,
//! which keeps decode steps bit-aligned with multi-token prefill.
//!
//! The decode step places its own new KV row *inside* the graph with a
//! row write ([`mcfuser_ir::Op::WriteRow`]: the cache panel with the
//! row an `onehot` selector picks replaced), so the fused attention
//! chain always sees a full bucket-capacity KV panel that includes the
//! current token. The write is reference-lane glue (one panel copy and
//! one row write per head), priced by the fallback backends as an
//! in-place `kv_heads·hd` update. The step also emits the new rows,
//! which the session appends to its own cache. Padded rows are
//! neutralized by a `-1e9` additive mask whose probabilities underflow
//! to an exact `0.0`, making outputs invariant to bucket padding.

use mcfuser_ir::{ChainSpec, Epilogue, Graph, GraphBuilder, NodeId};
use mcfuser_sim::DType;

/// Configuration of a GPT-style decoder-only transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Number of decoder layers.
    pub layers: u32,
    /// Hidden width.
    pub hidden: u64,
    /// Query heads.
    pub heads: u64,
    /// KV heads (equal to `heads` for multi-head attention, a divisor
    /// of it for grouped-query attention).
    pub kv_heads: u64,
    /// FFN intermediate width.
    pub intermediate: u64,
    /// Output vocabulary size (kept small: the LM head is a single
    /// reference-lane `Linear`, not part of any fused chain).
    pub vocab: u64,
}

impl DecoderConfig {
    /// GPT-mini: 4 layers, hidden 128, 4 heads — small enough for the
    /// CPU reference lane, GEMV-shaped enough that every decode chain
    /// sits far below the ridge.
    pub fn gpt_mini() -> Self {
        DecoderConfig {
            layers: 4,
            hidden: 128,
            heads: 4,
            kv_heads: 4,
            intermediate: 256,
            vocab: 128,
        }
    }

    /// GPT-mini with grouped-query attention (2 KV heads serving 4
    /// query heads).
    pub fn gpt_mini_gqa() -> Self {
        DecoderConfig {
            kv_heads: 2,
            ..Self::gpt_mini()
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> u64 {
        self.hidden / self.heads
    }

    /// Width of the K/V projections (`kv_heads · head_dim`).
    pub fn kv_width(&self) -> u64 {
        self.kv_heads * self.head_dim()
    }

    /// Query heads per KV head.
    pub fn group_size(&self) -> u64 {
        self.heads / self.kv_heads
    }
}

/// Post-attention residual + FFN block shared by the prefill and decode
/// layer builders; returns the layer output.
fn ffn_block(
    gb: &mut GraphBuilder,
    cfg: &DecoderConfig,
    l: u32,
    proj: NodeId,
    x: NodeId,
) -> NodeId {
    let res1 = gb.add(&format!("l{l}.res1"), proj, x);
    let ln1 = gb.layer_norm_affine(&format!("l{l}.ln1"), res1);
    let up = gb.linear(&format!("l{l}.up"), ln1, cfg.intermediate, true);
    let act = gb.gelu(&format!("l{l}.gelu"), up);
    let down = gb.linear(&format!("l{l}.down"), act, cfg.hidden, true);
    let res2 = gb.add(&format!("l{l}.res2"), down, ln1);
    gb.layer_norm_affine(&format!("l{l}.ln2"), res2)
}

/// One full-sequence decoder layer over `t` positions with a causal
/// mask; returns `(output, k_panel, v_panel)` where the KV panels are
/// the `[kv_heads, t, head_dim]` values a cache would store.
fn forward_layer(
    gb: &mut GraphBuilder,
    cfg: &DecoderConfig,
    x: NodeId,
    l: u32,
    mask: NodeId,
) -> (NodeId, NodeId, NodeId) {
    let hd = cfg.head_dim();
    let q = gb.linear(&format!("l{l}.q"), x, cfg.hidden, true);
    let k = gb.linear(&format!("l{l}.k"), x, cfg.kv_width(), true);
    let v = gb.linear(&format!("l{l}.v"), x, cfg.kv_width(), true);
    let qh = gb.split_heads(&format!("l{l}.qh"), q, cfg.heads);
    let kh = gb.split_heads(&format!("l{l}.kh"), k, cfg.kv_heads);
    let vh = gb.split_heads(&format!("l{l}.vh"), v, cfg.kv_heads);
    let (ka, va) = if cfg.kv_heads == cfg.heads {
        (kh, vh)
    } else {
        let g = cfg.group_size();
        (
            gb.repeat_kv(&format!("l{l}.kr"), kh, g),
            gb.repeat_kv(&format!("l{l}.vr"), vh, g),
        )
    };
    let scores = gb.batch_matmul(&format!("l{l}.qk"), qh, ka, true);
    let masked = gb.add(&format!("l{l}.msk"), scores, mask);
    let probs = gb.softmax(&format!("l{l}.sm"), masked, 1.0 / (hd as f32).sqrt());
    let ctx = gb.batch_matmul(&format!("l{l}.pv"), probs, va, false);
    let merged = gb.merge_heads(&format!("l{l}.merge"), ctx);
    let proj = gb.linear(&format!("l{l}.o"), merged, cfg.hidden, true);
    (ffn_block(gb, cfg, l, proj, x), kh, vh)
}

/// One single-token decode layer against a bucket-capacity KV cache.
/// The `onehot` selector names the row `WriteRow` fills with this
/// token's K and V before attention reads the panels. Returns
/// `(output, k_new, v_new)` where the new rows are
/// `[kv_heads, 1, head_dim]` panels for the session to append.
#[allow(clippy::too_many_arguments)]
fn step_layer(
    gb: &mut GraphBuilder,
    cfg: &DecoderConfig,
    x: NodeId,
    l: u32,
    mask: NodeId,
    onehot: NodeId,
    k_cache: NodeId,
    v_cache: NodeId,
) -> (NodeId, NodeId, NodeId) {
    let hd = cfg.head_dim();
    let q = gb.linear(&format!("l{l}.q"), x, cfg.hidden, true);
    let k = gb.linear(&format!("l{l}.k"), x, cfg.kv_width(), true);
    let v = gb.linear(&format!("l{l}.v"), x, cfg.kv_width(), true);
    let qh = gb.split_heads(&format!("l{l}.qh"), q, cfg.heads);
    let kh = gb.split_heads(&format!("l{l}.kh"), k, cfg.kv_heads);
    let vh = gb.split_heads(&format!("l{l}.vh"), v, cfg.kv_heads);
    // Write this token's K/V row into the selected row of each head's
    // panel (reference-lane glue: a panel copy plus one row write per
    // head) so the attention below sees the current token. The panels are step-local:
    // the session appends the emitted `kh`/`vh` rows to its own cache.
    let kf = gb.write_row(&format!("l{l}.kf"), k_cache, kh, onehot);
    let vf = gb.write_row(&format!("l{l}.vf"), v_cache, vh, onehot);
    let (ka, va) = if cfg.kv_heads == cfg.heads {
        (kf, vf)
    } else {
        let g = cfg.group_size();
        (
            gb.repeat_kv(&format!("l{l}.kr"), kf, g),
            gb.repeat_kv(&format!("l{l}.vr"), vf, g),
        )
    };
    let scores = gb.batch_matmul(&format!("l{l}.qk"), qh, ka, true);
    let masked = gb.add(&format!("l{l}.msk"), scores, mask);
    let probs = gb.softmax(&format!("l{l}.sm"), masked, 1.0 / (hd as f32).sqrt());
    let ctx = gb.batch_matmul(&format!("l{l}.pv"), probs, va, false);
    let merged = gb.merge_heads(&format!("l{l}.merge"), ctx);
    let proj = gb.linear(&format!("l{l}.o"), merged, cfg.hidden, true);
    (ffn_block(gb, cfg, l, proj, x), kh, vh)
}

/// Full-sequence causal forward over `t` positions (the prefill graph).
///
/// Inputs: `x` `[t, hidden]` and an additive `mask` `[heads, t, t]`
/// (pass [`mcfuser_ir::causal_mask`]). Outputs: `lm_head` logits
/// `[t, vocab]` followed by per-layer `l{i}.kh` / `l{i}.vh` KV panels
/// `[kv_heads, t, head_dim]` for seeding a decode session's cache.
pub fn decoder_forward_graph(name: &str, cfg: &DecoderConfig, t: u64) -> Graph {
    assert_eq!(cfg.hidden % cfg.heads, 0, "heads must divide hidden");
    assert_eq!(cfg.heads % cfg.kv_heads, 0, "kv_heads must divide heads");
    let mut gb = GraphBuilder::new(name, DType::F32);
    let mut x = gb.input("x", vec![t, cfg.hidden]);
    let mask = gb.input("mask", vec![cfg.heads, t, t]);
    let mut outs = Vec::new();
    for l in 0..cfg.layers {
        let (out, kh, vh) = forward_layer(&mut gb, cfg, x, l, mask);
        x = out;
        outs.push(kh);
        outs.push(vh);
    }
    let logits = gb.linear("lm_head", x, cfg.vocab, false);
    let mut outputs = vec![logits];
    outputs.extend(outs);
    gb.finish(outputs)
}

/// Single-token decode step against KV caches of bucket capacity `t_b`.
///
/// Inputs: `x` `[1, hidden]`, per-layer `l{i}.k_cache` / `l{i}.v_cache`
/// `[kv_heads, t_b, head_dim]`, a shared `onehot` row selector
/// `[kv_heads, t_b, 1]` ([`mcfuser_ir::scatter_onehot`]) naming the
/// position each layer's `WriteRow` fills, and a shared
/// additive `mask` `[heads, 1, t_b]` ([`mcfuser_ir::decode_mask`]).
/// Outputs: `lm_head` logits `[1, vocab]` followed by per-layer
/// `l{i}.kh` / `l{i}.vh` new KV rows `[kv_heads, 1, head_dim]`.
pub fn decoder_step_graph(name: &str, cfg: &DecoderConfig, t_b: u64) -> Graph {
    assert_eq!(cfg.hidden % cfg.heads, 0, "heads must divide hidden");
    assert_eq!(cfg.heads % cfg.kv_heads, 0, "kv_heads must divide heads");
    let mut gb = GraphBuilder::new(name, DType::F32);
    let mut x = gb.input("x", vec![1, cfg.hidden]);
    let mask = gb.input("mask", vec![cfg.heads, 1, t_b]);
    let onehot = gb.input("onehot", vec![cfg.kv_heads, t_b, 1]);
    let hd = cfg.head_dim();
    let caches: Vec<(NodeId, NodeId)> = (0..cfg.layers)
        .map(|l| {
            (
                gb.input(format!("l{l}.k_cache"), vec![cfg.kv_heads, t_b, hd]),
                gb.input(format!("l{l}.v_cache"), vec![cfg.kv_heads, t_b, hd]),
            )
        })
        .collect();
    let mut outs = Vec::new();
    for l in 0..cfg.layers {
        let (kc, vc) = caches[l as usize];
        let (out, k_new, v_new) = step_layer(&mut gb, cfg, x, l, mask, onehot, kc, vc);
        x = out;
        outs.push(k_new);
        outs.push(v_new);
    }
    let logits = gb.linear("lm_head", x, cfg.vocab, false);
    let mut outputs = vec![logits];
    outputs.extend(outs);
    gb.finish(outputs)
}

/// The decode-step attention chain shape: a masked-softmax GEMV pair
/// (`m = 1`) over a bucket-capacity KV panel. Memory-bound by
/// construction — at `m = 1` the per-op intensity is `≈ 2/esz`
/// FLOPs/byte, two orders of magnitude under an A100-class ridge.
pub fn decode_attention_chain(name: &str, cfg: &DecoderConfig, t_b: u64) -> ChainSpec {
    let hd = cfg.head_dim();
    let mut c = ChainSpec::masked_attention(name, cfg.heads, 1, t_b, hd, hd);
    c.dtype = DType::F32;
    c
}

/// The decode-step FFN chain shape: a biased GEMV pair
/// `hidden → intermediate (GELU) → hidden` at `m = 1`.
pub fn decode_ffn_chain(name: &str, cfg: &DecoderConfig) -> ChainSpec {
    let mut c = ChainSpec::chain(
        name,
        1,
        1,
        vec![cfg.hidden, cfg.intermediate, cfg.hidden],
        vec![Epilogue::Gelu, Epilogue::None],
    );
    c.biases = vec![true, true];
    c.dtype = DType::F32;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfuser_ir::{causal_mask, decode_mask, evaluate, partition, scatter_onehot, Op};
    use mcfuser_sim::{DeviceSpec, HostTensor};
    use rustc_hash::FxHashMap;

    #[test]
    fn gemv_chains_flip_the_memory_bound_gate() {
        let cfg = DecoderConfig::gpt_mini();
        let dev = DeviceSpec::a100();
        let attn = decode_attention_chain("d.attn", &cfg, 64);
        assert!(attn.is_memory_bound(&dev), "decode attention is a GEMV");
        let ffn = decode_ffn_chain("d.ffn", &cfg);
        assert!(ffn.is_memory_bound(&dev), "decode FFN is a GEMV pair");
        // The same FFN at prefill width is compute-bound: the gate's
        // decision genuinely flips on m.
        let mut prefill = ffn.clone();
        prefill.m = 64;
        assert!(!prefill.is_memory_bound(&dev), "prefill FFN is fat");
    }

    #[test]
    fn step_graph_partitions_into_fused_decode_chains() {
        let cfg = DecoderConfig::gpt_mini();
        let g = decoder_step_graph("gpt-mini@step64", &cfg, 64);
        let part = partition(&g, &DeviceSpec::a100());
        let attn: Vec<_> = part
            .chains
            .iter()
            .filter(|c| c.chain.has_softmax())
            .collect();
        assert_eq!(attn.len(), cfg.layers as usize, "one attention per layer");
        for fc in &attn {
            assert_eq!(fc.chain.m, 1, "decode attention is GEMV-shaped");
            assert_eq!(fc.chain.batch, cfg.heads);
            assert_eq!(fc.chain.dims, vec![32, 64, 32]);
        }
        let ffn: Vec<_> = part
            .chains
            .iter()
            .filter(|c| !c.chain.has_softmax())
            .collect();
        assert_eq!(ffn.len(), cfg.layers as usize, "one FFN per layer");
        for fc in &ffn {
            assert_eq!(fc.chain.m, 1);
            assert_eq!(
                fc.chain.dims,
                vec![cfg.hidden, cfg.intermediate, cfg.hidden]
            );
        }
    }

    /// The KV rows are placed by `WriteRow`, not by a one-hot product:
    /// every batched matmul left outside the fused chains would be
    /// reference-lane glue, so none may remain (only `Linear`
    /// projections run there), and each layer writes exactly two rows.
    #[test]
    fn step_graph_places_kv_rows_without_glue_matmuls() {
        for cfg in [DecoderConfig::gpt_mini(), DecoderConfig::gpt_mini_gqa()] {
            for t_b in [16, 64] {
                let g = decoder_step_graph("gpt-mini", &cfg, t_b);
                let part = partition(&g, &DeviceSpec::a100());
                let glue_bmm: Vec<&str> = part
                    .rest
                    .iter()
                    .map(|&id| g.node(id))
                    .filter(|n| matches!(n.op, Op::BatchMatMul { .. }))
                    .map(|n| n.name.as_str())
                    .collect();
                assert!(glue_bmm.is_empty(), "glue matmuls: {glue_bmm:?}");
                let writes = g.nodes.iter().filter(|n| n.op == Op::WriteRow).count();
                assert_eq!(writes, 2 * cfg.layers as usize, "kv_heads {}", cfg.kv_heads);
            }
        }
    }

    #[test]
    fn gqa_step_graph_partitions_with_repeated_kv() {
        let cfg = DecoderConfig::gpt_mini_gqa();
        let g = decoder_step_graph("gqa@step32", &cfg, 32);
        let part = partition(&g, &DeviceSpec::a100());
        let attn = part.chains.iter().filter(|c| c.chain.has_softmax()).count();
        assert_eq!(attn, cfg.layers as usize);
        let repeats = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::RepeatKv { .. }))
            .count();
        assert_eq!(repeats, 2 * cfg.layers as usize);
    }

    #[test]
    fn step_matches_forward_row_on_the_reference_lane() {
        // Prefill T tokens with the forward graph, then recompute the
        // last position with the decode-step graph seeded from the
        // forward graph's KV panels: the logits row must match exactly
        // (all row-local ops; masked columns underflow to exact zero).
        let cfg = DecoderConfig::gpt_mini();
        let t = 5u64;
        let t_b = 8u64;
        let fwd = decoder_forward_graph("gpt-mini", &cfg, t);
        let mut rng_x: Vec<f32> = Vec::new();
        for i in 0..(t * cfg.hidden) as usize {
            rng_x.push(((i * 2654435761 % 1000) as f32) / 1000.0 - 0.5);
        }
        let mut inputs = FxHashMap::default();
        inputs.insert(
            fwd.input_named("x").unwrap(),
            HostTensor::from_vec(&[t, cfg.hidden], rng_x.clone()),
        );
        inputs.insert(
            fwd.input_named("mask").unwrap(),
            causal_mask(cfg.heads, t, t),
        );
        // `evaluate` returns every node's value; pick out the outputs.
        let fwd_vals = evaluate(&fwd, &inputs, 7).unwrap();
        let fwd_out: Vec<_> = fwd.outputs.iter().map(|o| &fwd_vals[o.0]).collect();
        let logits_full = fwd_out[0];

        // Seed bucket-capacity caches with rows [0, t-1) of the panels.
        let step = decoder_step_graph("gpt-mini", &cfg, t_b);
        let hd = cfg.head_dim() as usize;
        let kv = cfg.kv_heads as usize;
        let mut sinputs = FxHashMap::default();
        let last_row = &rng_x[((t - 1) * cfg.hidden) as usize..];
        sinputs.insert(
            step.input_named("x").unwrap(),
            HostTensor::from_vec(&[1, cfg.hidden], last_row.to_vec()),
        );
        sinputs.insert(
            step.input_named("mask").unwrap(),
            decode_mask(cfg.heads, t_b, t - 1),
        );
        sinputs.insert(
            step.input_named("onehot").unwrap(),
            scatter_onehot(cfg.kv_heads, t_b, t - 1),
        );
        for l in 0..cfg.layers {
            let kh = fwd_out[1 + 2 * l as usize];
            let vh = fwd_out[2 + 2 * l as usize];
            for (name, panel) in [("k_cache", kh), ("v_cache", vh)] {
                let mut cache = vec![0.0f32; kv * t_b as usize * hd];
                for h in 0..kv {
                    for r in 0..(t - 1) as usize {
                        let src = (h * t as usize + r) * hd;
                        let dst = (h * t_b as usize + r) * hd;
                        cache[dst..dst + hd].copy_from_slice(&panel.data[src..src + hd]);
                    }
                }
                sinputs.insert(
                    step.input_named(&format!("l{l}.{name}")).unwrap(),
                    HostTensor::from_vec(&[cfg.kv_heads, t_b, hd as u64], cache),
                );
            }
        }
        let step_vals = evaluate(&step, &sinputs, 7).unwrap();
        let step_out: Vec<_> = step.outputs.iter().map(|o| &step_vals[o.0]).collect();
        let logits_step = step_out[0];
        let vocab = cfg.vocab as usize;
        let last = &logits_full.data[(t as usize - 1) * vocab..];
        assert_eq!(logits_step.data.len(), vocab);
        for (a, b) in logits_step.data.iter().zip(last) {
            assert_eq!(a, b, "decode step must match the forward row");
        }
        // The new KV rows must match the forward panels' last row too.
        for l in 0..cfg.layers as usize {
            for (i, panel) in [fwd_out[1 + 2 * l], fwd_out[2 + 2 * l]].iter().enumerate() {
                let new = step_out[1 + 2 * l + i];
                for h in 0..kv {
                    let src = (h * t as usize + (t as usize - 1)) * hd;
                    assert_eq!(&new.data[h * hd..(h + 1) * hd], &panel.data[src..src + hd]);
                }
            }
        }
    }

    #[test]
    fn forward_graph_shapes() {
        let cfg = DecoderConfig::gpt_mini_gqa();
        let g = decoder_forward_graph("gqa", &cfg, 16);
        let shapes = g.output_shapes();
        assert_eq!(shapes[0].0, "lm_head");
        assert_eq!(shapes[0].2, vec![16, cfg.vocab]);
        assert_eq!(shapes[1].0, "l0.kh");
        assert_eq!(shapes[1].2, vec![cfg.kv_heads, 16, cfg.head_dim()]);
        assert_eq!(shapes.len(), 1 + 2 * cfg.layers as usize);
    }
}
