//! Integration: the vectorized execution backend is a **bit-for-bit**
//! drop-in for the interpreter oracle.
//!
//! The contract under test:
//!
//! * any chain that lowers — plain GEMM chains, attention, masked
//!   attention, and stitched prologue/epilogue pipelines, across random
//!   permutations, tile sizes and intra-tile policies — produces
//!   bit-identical storage under [`InterpreterExec`] and
//!   [`VectorizedExec`] (property-tested);
//! * the targeted stitched pipeline exercises the whole statement
//!   vocabulary the vectorized kernels specialize: `Gemm` with a
//!   non-zero `acc_col` (chunked tail panel), a streamed `SmemDecl`,
//!   `RowNormStats`/`NormalizeTile`/`AddRecomputedNorm`, `Quantize`,
//!   and online-softmax attention — presence is asserted, not hoped for;
//! * widened (slot-strided) batched launches stay bit-identical to
//!   interpreter serial execution at any width, on either backend
//!   (property-tested across widths and seeds);
//! * every workload family in `mcfuser-workloads` — Table II GEMM
//!   chains, Table III attention, masked attention, the MLP4 chain,
//!   and the graph workloads (BERT, ViT, Mixer, MLP4, masked
//!   attention) — executes identically on both backends per
//!   `(model, seed)` (paper-scale shapes stay in the benches; the
//!   regression runs each family's smallest member).

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use mcfuser::baselines::Relay;
use mcfuser::core::{ExecBackend, Step};
use mcfuser::ir::{EpilogueStitch, PrologueSpec, ResidualSource};
use mcfuser::prelude::*;
use mcfuser::sim::{
    verify_program, BlockStmt, BufferArena, BufferRole, InterpreterExec, KernelExecutor,
    ProgramBuilder, ProgramError, SmemId, TileAccess, TileIndex, TileProgram, VarRef,
    VectorizedExec, VerifyError,
};
use mcfuser::tile::{lower, LoopId, LoweredKernel, LoweringOptions};
use mcfuser::workloads::{
    attention_workload, bert_graph, decoder_forward_graph, decoder_step_graph, gemm_chain_workload,
    masked_attention_graph, masked_attention_workload, mixer_block, mlp4_chain, mlp4_graph,
    vit_block, BertConfig, DecoderConfig,
};

/// Run `program` on both backends from identical input storage and
/// assert every tensor — outputs, temporaries, untouched inputs — is
/// bit-identical afterwards.
fn assert_backends_agree(program: &TileProgram, inputs: &[HostTensor], what: &str) {
    let mut interp = TensorStorage::for_program(program);
    for (i, t) in inputs.iter().enumerate() {
        interp.tensors[i] = t.clone();
    }
    let mut vector = interp.clone();
    InterpreterExec
        .execute(program, &mut interp)
        .unwrap_or_else(|e| panic!("{what}: interpreter failed: {e}"));
    VectorizedExec
        .execute(program, &mut vector)
        .unwrap_or_else(|e| panic!("{what}: vectorized failed: {e}"));
    for (b, (ti, tv)) in interp.tensors.iter().zip(&vector.tensors).enumerate() {
        assert_eq!(ti.shape, tv.shape, "{what}: tensor {b} shape");
        assert_eq!(ti.data.len(), tv.data.len(), "{what}: tensor {b} length");
        for (e, (a, v)) in ti.data.iter().zip(&tv.data).enumerate() {
            assert_eq!(
                a.to_bits(),
                v.to_bits(),
                "{what}: tensor {b} ({}) diverges at element {e}: {a} vs {v}",
                program.buffers[b].name,
            );
        }
    }
}

/// Recursively collect which statement kinds a program body contains.
fn walk_stmts<'a>(stmts: &'a [BlockStmt], seen: &mut Vec<&'a BlockStmt>) {
    for s in stmts {
        if let BlockStmt::Loop { body, .. } = s {
            walk_stmts(body, seen);
        }
        seen.push(s);
    }
}

// ---------------------------------------------------------------------------
// Property: every lowerable chain is backend-agnostic, bit for bit.
// ---------------------------------------------------------------------------

/// A random chain drawn from the three lowering families the statement
/// vocabulary comes from: plain 2-GEMM chains (with random epilogues
/// and biases), attention / masked attention (online softmax), and
/// stitched prologue + tail LayerNorm pipelines.
fn chain_strategy() -> impl Strategy<Value = ChainSpec> {
    let dim = || prop::sample::select(vec![32u64, 48, 64, 96]);
    (
        0usize..3,
        (dim(), dim(), dim(), 1u64..3),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        prop::sample::select(vec![
            Epilogue::None,
            Epilogue::Relu,
            Epilogue::Gelu,
            Epilogue::Scale(0.5),
        ]),
    )
        .prop_map(|(kind, (m, n, d, b), (f0, f1, f2), epi)| match kind {
            // Plain 2-GEMM chain with a random epilogue and bias.
            0 => {
                let h = if f2 { d } else { n };
                let mut c = ChainSpec::gemm_chain("xb-g", b, m, n, d, h);
                c.epilogues = vec![epi, Epilogue::None];
                c.biases = vec![f0, f1];
                c
            }
            // Attention (online softmax) or its masked variant.
            1 => {
                let k = d.min(32);
                if f0 {
                    ChainSpec::masked_attention("xb-ma", b, m, n, k, k)
                } else {
                    ChainSpec::attention("xb-a", b, m, n, k, k)
                }
            }
            // Stitched: affine LayerNorm prologue (optionally with a
            // raw residual) + PrologueOut residual / tail LayerNorm.
            _ => {
                let mut c = ChainSpec::gemm_chain("xb-s", 1, m, n, d, d);
                c.epilogues = vec![epi, Epilogue::None];
                c.prologue = Some(PrologueSpec {
                    residual: f0,
                    affine: true,
                    a_half: f1,
                    eps: 1e-5,
                });
                c.stitch_epilogue = Some(EpilogueStitch {
                    residual: ResidualSource::PrologueOut,
                    layer_norm: true,
                    affine: f2,
                    eps: 1e-5,
                });
                c
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Central property: for any chain, any deep tiling, any intra-tile
    /// policy, interpreter and vectorized execution are bit-identical
    /// over the *entire* storage.
    #[test]
    fn lowered_chains_execute_identically(
        chain in chain_strategy(),
        perm in Just(vec![0usize, 1, 2, 3]).prop_shuffle(),
        tiles in prop::collection::vec(prop::sample::select(vec![16u64, 32, 48, 64, 96]), 4),
        double_buffer in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let axes: Vec<LoopId> = perm.into_iter().map(LoopId).collect();
        let mut tiles = tiles;
        if chain.stitch_epilogue.is_some() {
            // A tail LayerNorm requires the full output row in one tile.
            tiles[3] = *chain.dims.last().unwrap();
        }
        let cand = Candidate::new(TilingExpr::deep(&axes), tiles);
        let opts = LoweringOptions {
            double_buffer_budget: double_buffer.then_some(1 << 20),
            ..LoweringOptions::default()
        };
        // Rule-2-style rejections are legal outcomes.
        let Ok(k) = lower(&chain, &cand, &opts) else { return Ok(()); };
        let inputs = chain.random_inputs(seed);
        assert_backends_agree(&k.program, &inputs, &chain.name);
    }
}

// ---------------------------------------------------------------------------
// Targeted: the full statement vocabulary, asserted present.
// ---------------------------------------------------------------------------

/// Lower `chain` deep with `tiles` under the first loop permutation that
/// lowers. The tile layout of a stitched chain is constrained (a tail
/// LayerNorm pins `t_h = d_L`) and some permutations violate the
/// single-accumulator rule.
fn lower_first_perm(chain: &ChainSpec, tiles: &[u64]) -> LoweredKernel {
    let mut perms = Vec::new();
    for a in 0..4usize {
        for b in 0..4 {
            for c in 0..4 {
                for d in 0..4 {
                    let p = [a, b, c, d];
                    let mut q = p;
                    q.sort_unstable();
                    if q == [0, 1, 2, 3] {
                        perms.push(p);
                    }
                }
            }
        }
    }
    perms
        .iter()
        .find_map(|p| {
            let axes: Vec<LoopId> = p.iter().map(|&a| LoopId(a)).collect();
            let cand = Candidate::new(TilingExpr::deep(&axes), tiles.to_vec());
            lower(chain, &cand, &LoweringOptions::default()).ok()
        })
        .unwrap_or_else(|| panic!("some permutation of {} lowers", chain.name))
}

/// A stitched FFN-shaped chain whose `d_L = 256 > 128` forces the
/// chunked tail panel: the final weight streams in column slices
/// (`SmemDecl::streamed`) and each slice fills its accumulator columns
/// at a non-zero `acc_col`.
#[test]
fn stitched_pipeline_covers_the_statement_vocabulary() {
    let mut chain = ChainSpec::gemm_chain("xb-vocab", 1, 64, 64, 256, 256);
    chain.epilogues = vec![Epilogue::Gelu, Epilogue::None];
    chain.biases = vec![true, false];
    chain.prologue = Some(PrologueSpec {
        residual: true,
        affine: true,
        a_half: false,
        eps: 1e-5,
    });
    chain.stitch_epilogue = Some(EpilogueStitch {
        residual: ResidualSource::PrologueOut,
        layer_norm: true,
        affine: true,
        eps: 1e-5,
    });
    let k = lower_first_perm(&chain, &[32, 64, 32, 256]);
    let mut seen = Vec::new();
    walk_stmts(&k.program.body, &mut seen);
    assert!(
        seen.iter()
            .any(|s| matches!(s, BlockStmt::Gemm { acc_col, .. } if *acc_col > 0)),
        "chunked tail must emit a Gemm at a non-zero acc_col"
    );
    for (what, hit) in [
        (
            "RowNormStats",
            seen.iter()
                .any(|s| matches!(s, BlockStmt::RowNormStats { .. })),
        ),
        (
            "NormalizeTile",
            seen.iter()
                .any(|s| matches!(s, BlockStmt::NormalizeTile { .. })),
        ),
        (
            "AddRecomputedNorm",
            seen.iter()
                .any(|s| matches!(s, BlockStmt::AddRecomputedNorm { .. })),
        ),
        (
            "Quantize",
            seen.iter().any(|s| matches!(s, BlockStmt::Quantize { .. })),
        ),
        (
            "AddBias",
            seen.iter().any(|s| matches!(s, BlockStmt::AddBias { .. })),
        ),
        (
            "Gelu",
            seen.iter().any(|s| matches!(s, BlockStmt::Gelu { .. })),
        ),
        ("streamed smem", k.program.smem.iter().any(|s| s.streamed)),
    ] {
        assert!(hit, "the vocabulary pipeline must contain {what}");
    }

    for seed in 0..3 {
        let inputs = chain.random_inputs(seed);
        assert_backends_agree(&k.program, &inputs, "xb-vocab");
    }
}

/// A stitched pipeline whose `m = 50` is not a multiple of `t_m = 32`:
/// the last row of blocks clips its `Load`, `Store`, `RowNormStats` and
/// `AddRecomputedNorm` windows, which the vectorized backend hands to
/// the interpreter's code statement by statement. Both backends must
/// still agree bit for bit.
#[test]
fn clipped_stitched_pipeline_executes_identically() {
    let mut chain = ChainSpec::gemm_chain("xb-clip", 1, 50, 64, 64, 64);
    chain.epilogues = vec![Epilogue::Gelu, Epilogue::None];
    chain.biases = vec![true, false];
    chain.prologue = Some(PrologueSpec {
        residual: true,
        affine: true,
        a_half: false,
        eps: 1e-5,
    });
    chain.stitch_epilogue = Some(EpilogueStitch {
        residual: ResidualSource::PrologueOut,
        layer_norm: true,
        affine: true,
        eps: 1e-5,
    });
    let k = lower_first_perm(&chain, &[32, 32, 32, 64]);
    // The clip is declared on the row dim of the prologue's input and of
    // the output, so the statements that read and write them clip.
    let rows_dim = |name: &str| {
        let buf = k
            .program
            .buffers
            .iter()
            .position(|b| b.name == name)
            .unwrap_or_else(|| panic!("no buffer {name}"));
        let rank = k.program.buffers[buf].shape.len();
        k.program
            .clip_ok
            .iter()
            .any(|c| c.buf.0 == buf && c.dim == rank - 2)
    };
    let a_name = k.program.buffers[0].name.clone();
    let out_name = k.program.buffers.last().unwrap().name.clone();
    assert!(rows_dim(&a_name), "{a_name} must clip along m");
    assert!(rows_dim(&out_name), "{out_name} must clip along m");
    let mut seen = Vec::new();
    walk_stmts(&k.program.body, &mut seen);
    for (what, hit) in [
        (
            "RowNormStats",
            seen.iter()
                .any(|s| matches!(s, BlockStmt::RowNormStats { .. })),
        ),
        (
            "AddRecomputedNorm",
            seen.iter()
                .any(|s| matches!(s, BlockStmt::AddRecomputedNorm { .. })),
        ),
    ] {
        assert!(hit, "the clipped pipeline must contain {what}");
    }
    for seed in 0..3 {
        let inputs = chain.random_inputs(seed);
        assert_backends_agree(&k.program, &inputs, "xb-clip");
    }
}

/// Masked attention lowers to the `AddTile` mask + `OnlineSoftmax` +
/// `RowDiv` streaming pipeline; assert the statements and bit-identity.
#[test]
fn masked_attention_covers_softmax_statements() {
    let chain = ChainSpec::masked_attention("xb-mask", 2, 64, 64, 32, 32);
    let cand = Candidate::new(
        TilingExpr::deep(&[LoopId(0), LoopId(1), LoopId(2), LoopId(3)]),
        vec![32, 32, 32, 32],
    );
    let k = lower(&chain, &cand, &LoweringOptions::default()).expect("masked attention lowers");
    let mut seen = Vec::new();
    walk_stmts(&k.program.body, &mut seen);
    for (what, hit) in [
        (
            "OnlineSoftmax",
            seen.iter()
                .any(|s| matches!(s, BlockStmt::OnlineSoftmax { .. })),
        ),
        (
            "AddTile",
            seen.iter().any(|s| matches!(s, BlockStmt::AddTile { .. })),
        ),
        (
            "RowDiv",
            seen.iter().any(|s| matches!(s, BlockStmt::RowDiv { .. })),
        ),
    ] {
        assert!(hit, "masked attention must contain {what}");
    }
    for seed in 0..3 {
        let inputs = chain.random_inputs(seed);
        assert_backends_agree(&k.program, &inputs, "xb-mask");
    }
}

// ---------------------------------------------------------------------------
// Property: widened (slot-strided) batches are backend-agnostic.
// ---------------------------------------------------------------------------

fn shared_plans() -> &'static Vec<Arc<ExecutablePlan>> {
    static PLANS: OnceLock<Vec<Arc<ExecutablePlan>>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let engine = FusionEngine::builder(DeviceSpec::a100())
            .fallback(Relay::new())
            .build();
        let mlp = {
            let mut gb = GraphBuilder::new("xb-mlp", DType::F16);
            let x = gb.input("x", vec![64, 32]);
            let y = gb.linear("fc1", x, 64, false);
            let z = gb.linear("fc2", y, 32, false);
            gb.finish(vec![z])
        };
        let attn = {
            let mut gb = GraphBuilder::new("xb-attn", DType::F16);
            let q = gb.input("q", vec![2, 64, 32]);
            let k = gb.input("k", vec![2, 64, 32]);
            let v = gb.input("v", vec![2, 64, 32]);
            let s = gb.batch_matmul("qk", q, k, true);
            let p = gb.softmax("sm", s, 1.0 / (32f32).sqrt());
            let o = gb.batch_matmul("pv", p, v, false);
            let ln = gb.layer_norm("ln", o);
            gb.finish(vec![ln])
        };
        [mlp, attn]
            .iter()
            .map(|g| Arc::new(engine.compile_plan(g).expect("compiles")))
            .collect()
    })
}

fn ramp(shape: &[u64], phase: u64) -> HostTensor {
    let len: u64 = shape.iter().product();
    HostTensor::from_vec(
        shape,
        (0..len)
            .map(|x| (((x + phase) % 23) as f32 - 11.0) / 23.0)
            .collect(),
    )
}

fn inputs_for(plan: &ExecutablePlan, phase: u64) -> InputSet {
    let mut set = InputSet::new();
    for (i, b) in plan.inputs().iter().enumerate() {
        set.insert(b.name.clone(), ramp(&b.shape, phase * 11 + i as u64));
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A widened launch over per-request slots must reproduce the
    /// interpreter's serial outputs bit for bit — whichever backend
    /// (plan-pinned or per-request override) runs the widened program.
    #[test]
    fn widened_batches_execute_identically(
        width in 2usize..7,
        seed in 0u64..100,
    ) {
        for plan in shared_plans() {
            let requests: Vec<InputSet> =
                (0..width as u64).map(|r| inputs_for(plan, r)).collect();
            let refs: Vec<&InputSet> = requests.iter().collect();
            // Oracle: serial, interpreter-pinned.
            let serial: Vec<Outputs> = requests
                .iter()
                .map(|r| {
                    plan.execute(
                        r,
                        RunOptions::seeded(seed).with_backend(ExecBackend::Interpreter),
                    )
                    .unwrap()
                })
                .collect();
            let batched = BatchedPlan::new(plan.clone());
            let mut arena = BufferArena::new();
            for backend in [ExecBackend::Interpreter, ExecBackend::Vectorized] {
                let outs = batched
                    .execute_batch(
                        &refs,
                        RunOptions::seeded(seed).with_backend(backend),
                        &mut arena,
                        None,
                    )
                    .unwrap();
                prop_assert_eq!(outs.len(), width);
                for (r, (got, want)) in outs.iter().zip(&serial).enumerate() {
                    for (name, tensor) in want.iter() {
                        let g = got.get(name).expect("declared output present");
                        prop_assert_eq!(&g.shape, &tensor.shape);
                        prop_assert_eq!(
                            &g.data,
                            &tensor.data,
                            "request {} output {} on {} (width {})",
                            r,
                            name,
                            backend,
                            width
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Regression: every workload family, identical per (model, seed).
// ---------------------------------------------------------------------------

/// Tuned chain workloads (Table II / Table III / MLP4 families, the
/// smallest member of each) execute identically on both backends.
#[test]
fn chain_workloads_execute_identically_on_both_backends() {
    let engine = FusionEngine::builder(DeviceSpec::a100()).build();
    let chains = [
        gemm_chain_workload("G1").expect("G1 exists"),
        attention_workload("S7").expect("S7 exists"),
        masked_attention_workload("S7").expect("masked S7 exists"),
        mlp4_chain(),
    ];
    for chain in &chains {
        let tuned = engine
            .tune(chain)
            .unwrap_or_else(|e| panic!("{}: tuning failed: {e}", chain.name));
        for seed in 0..2 {
            let inputs = chain.random_inputs(seed);
            assert_backends_agree(&tuned.kernel.program, &inputs, &chain.name);
        }
    }
}

/// Graph workloads (BERT encoder, ViT block, Mixer block, MLP4,
/// masked attention) planned end to end: per (model, seed), the
/// interpreter-pinned and vectorized runs produce bit-identical
/// declared outputs.
#[test]
fn graph_workloads_execute_identically_on_both_backends() {
    let engine = FusionEngine::builder(DeviceSpec::a100())
        .fallback(Relay::new())
        .build();
    let graphs = [
        bert_graph(
            "xb-bert",
            &BertConfig {
                layers: 1,
                hidden: 64,
                heads: 2,
                seq: 32,
                intermediate: 128,
            },
        ),
        vit_block(16, 64, 2),
        mixer_block(32, 64, 128, 128),
        mlp4_graph(),
        masked_attention_graph(2, 32, 16).0,
    ];
    for graph in &graphs {
        let plan = engine
            .compile_plan(graph)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", graph.name));
        let mut set = InputSet::new();
        for (i, b) in plan.inputs().iter().enumerate() {
            set.insert(b.name.clone(), ramp(&b.shape, i as u64));
        }
        for seed in 0..2 {
            let interp = plan
                .execute(
                    &set,
                    RunOptions::seeded(seed).with_backend(ExecBackend::Interpreter),
                )
                .unwrap_or_else(|e| panic!("{}: interpreter run failed: {e}", graph.name));
            let vector = plan
                .execute(
                    &set,
                    RunOptions::seeded(seed).with_backend(ExecBackend::Vectorized),
                )
                .unwrap_or_else(|e| panic!("{}: vectorized run failed: {e}", graph.name));
            for (name, want) in interp.iter() {
                let got = vector.get(name).expect("output present on both backends");
                assert_eq!(got.shape, want.shape, "{}: output {name}", graph.name);
                for (e, (a, v)) in want.data.iter().zip(&got.data).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        v.to_bits(),
                        "{}: output {name} diverges at element {e} (seed {seed}): {a} vs {v}",
                        graph.name,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Structural: an aliased GEMM is an error, never a panic.
// ---------------------------------------------------------------------------

/// A hand-built GEMM that accumulates into one of its own operands.
/// Both executors take the accumulator out of the tile arena for the
/// product, so validation must reject the alias before they run.
fn aliased_gemm_program(acc_is_a: bool) -> TileProgram {
    let mut b = ProgramBuilder::new("aliased", DType::F32);
    let x = b.buffer("X", vec![8, 8], DType::F32, BufferRole::Input);
    let y = b.buffer("Y", vec![8, 8], DType::F32, BufferRole::Output);
    let t = b.smem("t", 8, 8, DType::F32);
    let u = b.smem("u", 8, 8, DType::F32);
    let at = |buf| TileAccess {
        buf,
        indices: vec![
            TileIndex {
                var: VarRef::Zero,
                tile: 8,
            },
            TileIndex {
                var: VarRef::Zero,
                tile: 8,
            },
        ],
    };
    let (a, bb) = if acc_is_a { (t, u) } else { (u, t) };
    b.finish(vec![
        BlockStmt::Load { src: at(x), dst: u },
        BlockStmt::Fill { dst: t, value: 0.0 },
        BlockStmt::Gemm {
            a,
            b: bb,
            acc: t,
            b_transposed: false,
            acc_col: 0,
        },
        BlockStmt::Store { dst: at(y), src: t },
    ])
}

#[test]
fn aliased_gemm_is_a_structured_error_on_both_backends() {
    for acc_is_a in [true, false] {
        let p = aliased_gemm_program(acc_is_a);
        let want = ProgramError::GemmAliasedAcc { acc: SmemId(0) };
        assert_eq!(p.validate(), Err(want.clone()));
        assert_eq!(
            verify_program(&p).unwrap_err(),
            VerifyError::Structural(want.clone())
        );
        for exec in [
            &InterpreterExec as &dyn KernelExecutor,
            &VectorizedExec as &dyn KernelExecutor,
        ] {
            let mut st = TensorStorage::for_program(&p);
            match exec.execute(&p, &mut st) {
                Err(mcfuser::sim::ExecError::Invalid(e)) => assert_eq!(e, want, "{}", exec.name()),
                other => panic!(
                    "{}: expected an invalid-program error, got {other:?}",
                    exec.name()
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Traffic: the kernels the benchmark serves never clip.
// ---------------------------------------------------------------------------

/// Every fused kernel of the served models declares no clipping: the
/// `serve_mix`/`serve_smoke` models (`bert-mini`, `attn`, `mlp`) and the
/// GPT-mini step and prefill graphs at buckets 16 and 64. A verified
/// program with an empty `clip_ok` has no access that runs past a
/// buffer dim, so the vectorized backend serves all of them on its
/// row-slice fast paths and never falls back to the interpreter.
#[test]
fn served_kernels_declare_no_clipping() {
    let engine = FusionEngine::builder(DeviceSpec::a100())
        .fallback(Relay::new())
        .build();
    let mut graphs = vec![
        bert_graph(
            "bert-mini",
            &BertConfig {
                layers: 2,
                hidden: 128,
                heads: 4,
                seq: 64,
                intermediate: 512,
            },
        ),
        {
            let mut gb = GraphBuilder::new("attn", DType::F16);
            let q = gb.input("q", vec![2, 64, 32]);
            let k = gb.input("k", vec![2, 64, 32]);
            let v = gb.input("v", vec![2, 64, 32]);
            let s = gb.batch_matmul("qk", q, k, true);
            let p = gb.softmax("sm", s, 1.0 / (32f32).sqrt());
            let o = gb.batch_matmul("pv", p, v, false);
            let ln = gb.layer_norm("ln", o);
            gb.finish(vec![ln])
        },
        {
            let mut gb = GraphBuilder::new("mlp", DType::F16);
            let x = gb.input("x", vec![128, 64]);
            let y = gb.linear("fc1", x, 128, false);
            let z = gb.linear("fc2", y, 64, false);
            gb.finish(vec![z])
        },
    ];
    let gpt = DecoderConfig::gpt_mini();
    for bucket in [16, 64] {
        graphs.push(decoder_step_graph("gpt-mini", &gpt, bucket));
        graphs.push(decoder_forward_graph("gpt-mini", &gpt, bucket));
    }
    for graph in &graphs {
        let plan = engine
            .compile_plan(graph)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", graph.name));
        let mut fused = 0;
        for step in plan.steps() {
            if let Step::Fused { chain, program, .. } = step {
                fused += 1;
                assert!(
                    program.clip_ok.is_empty(),
                    "{}: kernel {chain} declares clipping {:?}",
                    graph.name,
                    program.clip_ok
                );
            }
        }
        assert!(fused > 0, "{}: no fused kernels", graph.name);
    }
}
