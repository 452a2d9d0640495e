//! CPU reference execution of operator graphs — the numerical oracle.
//!
//! Every operator is implemented naively in f32. The end-to-end compiler's
//! output is validated against this executor, which is the reproduction's
//! stand-in for "PyTorch eager mode produced the same logits".

use rustc_hash::FxHashMap;

use mcfuser_sim::exec_vec::lanes;
use mcfuser_sim::HostTensor;

use crate::graph::{Graph, GraphError, NodeId, Op};

/// Deterministically initialize a weight tensor from the graph name, node
/// name and a global seed (small values keep deep models numerically tame).
pub fn init_weight(graph: &Graph, node: NodeId, seed: u64) -> HostTensor {
    use rand::{Rng, SeedableRng};
    use std::hash::{Hash, Hasher};
    let n = graph.node(node);
    let mut h = rustc_hash::FxHasher::default();
    graph.name.hash(&mut h);
    n.name.hash(&mut h);
    seed.hash(&mut h);
    let mut rng = rand::rngs::StdRng::seed_from_u64(h.finish());
    let len = n.shape.iter().product::<u64>() as usize;
    let fan_in = *n.shape.first().unwrap_or(&1) as f32;
    let scale = (1.0 / fan_in.max(1.0)).sqrt();
    HostTensor::from_vec(
        &n.shape,
        (0..len).map(|_| rng.gen_range(-scale..scale)).collect(),
    )
}

/// Evaluate a graph. `inputs` maps every `Op::Input` node to its tensor;
/// weights are materialized from `seed`. Returns the value of every node.
pub fn evaluate(
    graph: &Graph,
    inputs: &FxHashMap<NodeId, HostTensor>,
    seed: u64,
) -> Result<Vec<HostTensor>, GraphError> {
    let mut values: Vec<Option<HostTensor>> = vec![None; graph.nodes.len()];
    for i in 0..graph.nodes.len() {
        let v = evaluate_node(graph, NodeId(i), &values, inputs, seed)?;
        values[i] = Some(v);
    }
    Ok(values.into_iter().map(Option::unwrap).collect())
}

/// Operand lookup used by [`evaluate_node_with`]: resolves a node id to
/// its already-computed value, wherever the caller keeps it (a plain
/// slot table, a borrowed request tensor, a shared weight cache entry).
pub type ValueLookup<'f, 'v> = &'f dyn Fn(NodeId) -> Option<&'v HostTensor>;

/// Evaluate a single node given the values of all earlier nodes (used by
/// the fused-execution path in `mcfuser-core`, which overrides chain
/// outputs with simulator results while evaluating everything else here).
pub fn evaluate_node(
    graph: &Graph,
    id: NodeId,
    values: &[Option<HostTensor>],
    inputs: &FxHashMap<NodeId, HostTensor>,
    seed: u64,
) -> Result<HostTensor, GraphError> {
    evaluate_node_with(graph, id, &|n| values[n.0].as_ref(), inputs, seed)
}

/// [`evaluate_node`] generalized over how operand values are stored: the
/// caller supplies a lookup closure instead of a dense `Option` slice.
/// `mcfuser-core`'s serving path keeps request inputs borrowed and
/// weights behind a shared cache; this entry point lets it evaluate
/// reference operators without first cloning every operand into an
/// owned table.
pub fn evaluate_node_with<'v>(
    graph: &Graph,
    id: NodeId,
    values: ValueLookup<'_, 'v>,
    inputs: &FxHashMap<NodeId, HostTensor>,
    seed: u64,
) -> Result<HostTensor, GraphError> {
    let node = graph.node(id);
    {
        let i = id.0;
        let _ = i;
        let v = match &node.op {
            Op::Input => inputs
                .get(&id)
                .cloned()
                .ok_or_else(|| GraphError::ShapeMismatch {
                    node: node.name.clone(),
                    detail: "missing input tensor".into(),
                })?,
            Op::Weight => init_weight(graph, id, seed),
            Op::Linear => eval_linear(graph, node, values)?,
            Op::BatchMatMul { transpose_b } => eval_bmm(graph, node, values, *transpose_b)?,
            Op::Softmax { scale } => {
                let x = value(values, node.inputs[0]);
                let cols = *x.shape.last().unwrap() as usize;
                let rows = x.len() / cols;
                let mut data = x.data.clone();
                crate::chain::apply_epilogue(
                    crate::chain::Epilogue::Softmax { scale: *scale },
                    &mut data,
                    rows,
                    cols,
                );
                HostTensor::from_vec(&x.shape, data)
            }
            Op::Add => {
                let a = value(values, node.inputs[0]);
                let b = value(values, node.inputs[1]);
                if a.shape != b.shape {
                    return Err(GraphError::ShapeMismatch {
                        node: node.name.clone(),
                        detail: format!("{:?} + {:?}", a.shape, b.shape),
                    });
                }
                HostTensor::from_vec(&a.shape, lanes::add(&a.data, &b.data))
            }
            Op::Relu => {
                let x = value(values, node.inputs[0]);
                HostTensor::from_vec(&x.shape, lanes::relu(&x.data))
            }
            Op::Gelu => {
                let x = value(values, node.inputs[0]);
                HostTensor::from_vec(&x.shape, lanes::gelu(&x.data))
            }
            Op::LayerNorm => {
                let x = value(values, node.inputs[0]);
                let affine = if node.inputs.len() > 2 {
                    Some((value(values, node.inputs[1]), value(values, node.inputs[2])))
                } else {
                    None
                };
                let cols = *x.shape.last().unwrap() as usize;
                let rows = x.len() / cols;
                let mut out = x.data.clone();
                for r in 0..rows {
                    let row = &mut out[r * cols..(r + 1) * cols];
                    let mean: f32 = row.iter().sum::<f32>() / cols as f32;
                    let var: f32 =
                        row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
                    let inv = 1.0 / (var + 1e-5).sqrt();
                    // Op order must match the stitched kernel's
                    // `NormalizeTile`: normalize, then `* gamma`, then
                    // `+ beta` — bit-identity depends on it.
                    for (c, v) in row.iter_mut().enumerate() {
                        let mut n = (*v - mean) * inv;
                        if let Some((g, b)) = affine {
                            n *= g.data[c];
                            n += b.data[c];
                        }
                        *v = n;
                    }
                }
                HostTensor::from_vec(&x.shape, out)
            }
            Op::Scale(f) => {
                let x = value(values, node.inputs[0]);
                HostTensor::from_vec(&x.shape, lanes::scale(&x.data, *f))
            }
            Op::Reshape => {
                let x = value(values, node.inputs[0]);
                HostTensor::from_vec(&node.shape, x.data.clone())
            }
            Op::SplitHeads { heads } => {
                let x = value(values, node.inputs[0]);
                let h = *heads as usize;
                let t = x.shape[0] as usize;
                let width = x.shape[1] as usize;
                let hd = width / h;
                let mut out = vec![0.0f32; t * width];
                for hi in 0..h {
                    for ti in 0..t {
                        let src = ti * width + hi * hd;
                        let dst = (hi * t + ti) * hd;
                        out[dst..dst + hd].copy_from_slice(&x.data[src..src + hd]);
                    }
                }
                HostTensor::from_vec(&node.shape, out)
            }
            Op::MergeHeads => {
                let x = value(values, node.inputs[0]);
                let h = x.shape[0] as usize;
                let t = x.shape[1] as usize;
                let hd = x.shape[2] as usize;
                let width = h * hd;
                let mut out = vec![0.0f32; t * width];
                for hi in 0..h {
                    for ti in 0..t {
                        let src = (hi * t + ti) * hd;
                        let dst = ti * width + hi * hd;
                        out[dst..dst + hd].copy_from_slice(&x.data[src..src + hd]);
                    }
                }
                HostTensor::from_vec(&node.shape, out)
            }
            Op::RepeatKv { repeat } => {
                let x = value(values, node.inputs[0]);
                let rep = *repeat as usize;
                let kv = x.shape[0] as usize;
                let panel = (x.shape[1] * x.shape[2]) as usize;
                let mut out = vec![0.0f32; kv * rep * panel];
                for h in 0..kv * rep {
                    let src = (h / rep) * panel;
                    out[h * panel..(h + 1) * panel].copy_from_slice(&x.data[src..src + panel]);
                }
                HostTensor::from_vec(&node.shape, out)
            }
            Op::WriteRow => eval_write_row(node, values)?,
        };
        Ok(v)
    }
}

fn value<'v>(values: ValueLookup<'_, 'v>, id: NodeId) -> &'v HostTensor {
    values(id).expect("topological order violated")
}

/// tanh-approximation GELU — delegates to the simulator's kernel
/// (`mcfuser_sim::gelu`) so the reference oracle and the functional
/// interpreter share one bit-identical implementation.
pub fn gelu(x: f32) -> f32 {
    mcfuser_sim::gelu(x)
}

/// [`Op::WriteRow`]: copy the panel, then overwrite the one selected row
/// per head. Rejects a malformed row or selector instead of panicking.
fn eval_write_row(
    node: &crate::graph::Node,
    values: ValueLookup<'_, '_>,
) -> Result<HostTensor, GraphError> {
    let cache = value(values, node.inputs[0]);
    let row = value(values, node.inputs[1]);
    let select = value(values, node.inputs[2]);
    let bad = |detail: String| GraphError::ShapeMismatch {
        node: node.name.clone(),
        detail,
    };
    let [b, t, d] = cache.shape[..] else {
        return Err(bad(format!("cache {:?} is not rank 3", cache.shape)));
    };
    if row.shape != [b, 1, d] {
        return Err(bad(format!(
            "row {:?} for cache {:?}",
            row.shape, cache.shape
        )));
    }
    if select.shape != [b, t, 1] {
        return Err(bad(format!(
            "selector {:?} for cache {:?}",
            select.shape, cache.shape
        )));
    }
    let (t, d) = (t as usize, d as usize);
    let mut out = cache.data.clone();
    for h in 0..b as usize {
        let col = &select.data[h * t..(h + 1) * t];
        let one_hot = col.iter().filter(|&&v| v != 0.0).count() == 1;
        let pos = col
            .iter()
            .position(|&v| v == 1.0)
            .filter(|_| one_hot)
            .ok_or_else(|| bad(format!("selector head {h} is not one-hot over {t} rows")))?;
        let dst = (h * t + pos) * d;
        out[dst..dst + d].copy_from_slice(&row.data[h * d..(h + 1) * d]);
    }
    Ok(HostTensor::from_vec(&cache.shape, out))
}

fn eval_linear(
    _graph: &Graph,
    node: &crate::graph::Node,
    values: ValueLookup<'_, '_>,
) -> Result<HostTensor, GraphError> {
    let x = value(values, node.inputs[0]);
    let w = value(values, node.inputs[1]);
    let k = *x.shape.last().unwrap() as usize;
    let m = x.len() / k;
    let n = w.shape[1] as usize;
    if w.shape[0] as usize != k {
        return Err(GraphError::ShapeMismatch {
            node: node.name.clone(),
            detail: format!("x cols {} vs w rows {}", k, w.shape[0]),
        });
    }
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = x.data[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let wrow = &w.data[kk * n..(kk + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            lanes::axpy(orow, wrow, av);
        }
    }
    if node.inputs.len() > 2 {
        let b = value(values, node.inputs[2]);
        for i in 0..m {
            lanes::add_assign(&mut out[i * n..(i + 1) * n], &b.data[..n]);
        }
    }
    Ok(HostTensor::from_vec(&node.shape, out))
}

fn eval_bmm(
    _graph: &Graph,
    node: &crate::graph::Node,
    values: ValueLookup<'_, '_>,
    transpose_b: bool,
) -> Result<HostTensor, GraphError> {
    let a = value(values, node.inputs[0]);
    let b = value(values, node.inputs[1]);
    let rank = a.shape.len();
    let m = a.shape[rank - 2] as usize;
    let k = a.shape[rank - 1] as usize;
    let batch: usize = a.shape[..rank - 2].iter().product::<u64>() as usize;
    let n = if transpose_b {
        b.shape[b.shape.len() - 2] as usize
    } else {
        b.shape[b.shape.len() - 1] as usize
    };
    let bk = if transpose_b {
        b.shape[b.shape.len() - 1] as usize
    } else {
        b.shape[b.shape.len() - 2] as usize
    };
    if bk != k {
        return Err(GraphError::ShapeMismatch {
            node: node.name.clone(),
            detail: format!("contraction dims {k} vs {bk}"),
        });
    }
    let mut out = vec![0.0f32; batch * m * n];
    for bb in 0..batch {
        let ab = bb * m * k;
        let bbase = bb * k * n; // same element count either layout
        let ob = bb * m * n;
        for i in 0..m {
            let arow = &a.data[ab + i * k..ab + (i + 1) * k];
            for j in 0..n {
                // Both layouts keep the interpreter's sequential-k order;
                // only the transposed one has a contiguous b row to hand
                // to the lane dot.
                let s = if transpose_b {
                    lanes::dot(arow, &b.data[bbase + j * k..bbase + (j + 1) * k])
                } else {
                    let mut s = 0.0f32;
                    for (kk, &av) in arow.iter().enumerate() {
                        s += av * b.data[bbase + kk * n + j];
                    }
                    s
                };
                out[ob + i * n + j] = s;
            }
        }
    }
    Ok(HostTensor::from_vec(&node.shape, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use mcfuser_sim::DType;

    fn input_map(pairs: Vec<(NodeId, HostTensor)>) -> FxHashMap<NodeId, HostTensor> {
        pairs.into_iter().collect()
    }

    #[test]
    fn linear_with_bias() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let x = gb.input("x", vec![2, 3]);
        let y = gb.linear("fc", x, 2, true);
        let g = gb.finish(vec![y]);
        let xs = HostTensor::from_vec(&[2, 3], vec![1., 0., 0., 0., 1., 0.]);
        let vals = evaluate(&g, &input_map(vec![(x, xs)]), 0).unwrap();
        // x selects rows of W, so out rows = W rows 0 and 1 (+ bias).
        let w = &vals[1]; // weight node comes right after x
        let b = &vals[2];
        let out = &vals[y.0];
        for j in 0..2 {
            assert!((out.data[j] - (w.data[j] + b.data[j])).abs() < 1e-6);
            assert!((out.data[2 + j] - (w.data[2 + j] + b.data[j])).abs() < 1e-6);
        }
    }

    #[test]
    fn bmm_transpose_matches_manual() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let q = gb.input("q", vec![1, 2, 3]);
        let k = gb.input("k", vec![1, 2, 3]);
        let s = gb.batch_matmul("qk", q, k, true);
        let g = gb.finish(vec![s]);
        let qs = HostTensor::from_vec(&[1, 2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let ks = HostTensor::from_vec(&[1, 2, 3], vec![1., 0., 1., 0., 1., 0.]);
        let vals = evaluate(&g, &input_map(vec![(q, qs), (k, ks)]), 0).unwrap();
        // scores[0,0] = (1,2,3)·(1,0,1) = 4; [0,1] = (1,2,3)·(0,1,0) = 2
        assert_eq!(vals[s.0].data, vec![4., 2., 10., 5.]);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let x = gb.input("x", vec![1, 8]);
        let y = gb.layer_norm("ln", x);
        let g = gb.finish(vec![y]);
        let xs = HostTensor::from_vec(&[1, 8], (0..8).map(|i| i as f32).collect());
        let vals = evaluate(&g, &input_map(vec![(x, xs)]), 0).unwrap();
        let out = &vals[y.0].data;
        let mean: f32 = out.iter().sum::<f32>() / 8.0;
        let var: f32 = out.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn softmax_node_normalizes() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let x = gb.input("x", vec![2, 4]);
        let y = gb.softmax("sm", x, 1.0);
        let g = gb.finish(vec![y]);
        let xs = HostTensor::from_vec(&[2, 4], vec![1., 2., 3., 4., -1., -2., -3., -4.]);
        let vals = evaluate(&g, &input_map(vec![(x, xs)]), 0).unwrap();
        for r in 0..2 {
            let s: f32 = vals[y.0].data[r * 4..(r + 1) * 4].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let x = gb.input("x", vec![2, 3]);
        let y = gb.linear("fc", x, 2, false);
        let g = gb.finish(vec![y]);
        let w1 = init_weight(&g, NodeId(1), 42);
        let w2 = init_weight(&g, NodeId(1), 42);
        let w3 = init_weight(&g, NodeId(1), 43);
        assert_eq!(w1.data, w2.data);
        assert_ne!(w1.data, w3.data);
    }

    #[test]
    fn gelu_known_values() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8411).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    /// Evaluate `write_row(cache [2, 4, 3], row [2, 1, 3], select [2, 4, 1])`
    /// on the given tensors (shapes are not checked at feed time, so a
    /// test can pass malformed ones).
    fn write_row(
        cache: HostTensor,
        row: HostTensor,
        select: HostTensor,
    ) -> Result<HostTensor, GraphError> {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let c = gb.input("cache", vec![2, 4, 3]);
        let r = gb.input("row", vec![2, 1, 3]);
        let s = gb.input("select", vec![2, 4, 1]);
        let w = gb.write_row("w", c, r, s);
        let g = gb.finish(vec![w]);
        let vals = evaluate(&g, &input_map(vec![(c, cache), (r, row), (s, select)]), 0)?;
        Ok(vals[w.0].clone())
    }

    /// A cache holding the awkward values a row write must carry over
    /// untouched: signed zeros, NaN and both infinities.
    fn awkward_cache() -> HostTensor {
        let specials = [-0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.5];
        HostTensor::from_vec(&[2, 4, 3], (0..24).map(|i| specials[i % 6]).collect())
    }

    fn selector(rows: [usize; 2]) -> HostTensor {
        let mut s = HostTensor::zeros(&[2, 4, 1]);
        for (h, r) in rows.iter().enumerate() {
            s.data[h * 4 + r] = 1.0;
        }
        s
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn write_row_replaces_only_the_selected_rows() {
        let cache = awkward_cache();
        let row = HostTensor::from_vec(&[2, 1, 3], vec![7., 8., 9., -1., -2., -3.]);
        let out = write_row(cache.clone(), row, selector([1, 3])).unwrap();
        assert_eq!(out.shape, cache.shape);
        for h in 0..2 {
            for r in 0..4 {
                let at = (h * 4 + r) * 3;
                let got = &out.data[at..at + 3];
                match (h, r) {
                    (0, 1) => assert_eq!(got, [7., 8., 9.]),
                    (1, 3) => assert_eq!(got, [-1., -2., -3.]),
                    _ => assert_eq!(
                        bits(got),
                        bits(&cache.data[at..at + 3]),
                        "head {h} row {r} must stay bit-identical"
                    ),
                }
            }
        }
    }

    /// A non-finite new row lands in its own row only. The one-hot
    /// product `cache + onehot × row` this op replaces spread it: `0 × inf`
    /// and `0 × NaN` are NaN, so every row of the head went non-finite.
    #[test]
    fn non_finite_row_stays_in_its_row() {
        let cache = HostTensor::from_vec(&[2, 4, 3], (0..24).map(|i| i as f32).collect());
        let row = HostTensor::from_vec(&[2, 1, 3], vec![f32::INFINITY, 1., 2., 3., f32::NAN, 4.]);
        let out = write_row(cache.clone(), row.clone(), selector([2, 0])).unwrap();
        let non_finite = out.data.iter().filter(|v| !v.is_finite()).count();
        assert_eq!(non_finite, 2, "only the two written elements");
        assert_eq!(out.data[2 * 3], f32::INFINITY);
        assert!(out.data[4 * 3 + 1].is_nan());

        let mut gb = GraphBuilder::new("t", DType::F32);
        let c = gb.input("cache", vec![2, 4, 3]);
        let r = gb.input("row", vec![2, 1, 3]);
        let s = gb.input("select", vec![2, 4, 1]);
        let x = gb.batch_matmul("x", s, r, false);
        let f = gb.add("f", c, x);
        let g = gb.finish(vec![f]);
        let inputs = input_map(vec![(c, cache), (r, row), (s, selector([2, 0]))]);
        let old = &evaluate(&g, &inputs, 0).unwrap()[f.0];
        for (i, r) in old.data.chunks_exact(3).enumerate() {
            assert!(r.iter().any(|v| v.is_nan() || v.is_infinite()), "row {i}");
        }
    }

    #[test]
    fn malformed_write_row_operands_are_errors() {
        let cache = || HostTensor::zeros(&[2, 4, 3]);
        let row = || HostTensor::zeros(&[2, 1, 3]);
        let mut two_ones = selector([1, 1]);
        two_ones.data[0] = 1.0;
        let mut not_binary = selector([1, 1]);
        not_binary.data[1] = 0.5;
        let mut negative_one = selector([0, 0]);
        negative_one.data[5] = -1.0;
        for (what, sel) in [
            ("no one", HostTensor::zeros(&[2, 4, 1])),
            ("two ones", two_ones),
            ("non-0/1 value", not_binary),
            ("-1 value", negative_one),
            (
                "rank 2",
                HostTensor::from_vec(&[2, 4], selector([0, 0]).data),
            ),
            ("wrong length", HostTensor::zeros(&[2, 5, 1])),
        ] {
            let err = write_row(cache(), row(), sel).unwrap_err();
            assert!(
                matches!(&err, GraphError::ShapeMismatch { node, .. } if node == "w"),
                "{what}: {err}"
            );
        }
        for (what, bad_row) in [
            ("row width", HostTensor::zeros(&[2, 1, 4])),
            ("row count", HostTensor::zeros(&[2, 2, 3])),
            ("row heads", HostTensor::zeros(&[1, 1, 3])),
        ] {
            assert!(
                write_row(cache(), bad_row, selector([0, 0])).is_err(),
                "{what}"
            );
        }
        let flat = HostTensor::zeros(&[8, 3]);
        assert!(
            write_row(flat, row(), selector([0, 0])).is_err(),
            "rank-2 cache"
        );
        let (empty, none) = (HostTensor::zeros(&[2, 0, 3]), HostTensor::zeros(&[2, 0, 1]));
        assert!(write_row(empty, row(), none).is_err(), "no rows to select");
    }

    #[test]
    fn missing_input_is_error() {
        let mut gb = GraphBuilder::new("t", DType::F32);
        let x = gb.input("x", vec![2, 3]);
        let g = gb.finish(vec![x]);
        let res = evaluate(&g, &FxHashMap::default(), 0);
        assert!(res.is_err());
    }
}
