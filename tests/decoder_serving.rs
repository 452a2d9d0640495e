//! Integration: the decoder-serving subsystem — GEMV-shaped fused
//! chains, KV-cache decode attention, and `DecodeSession`.
//!
//! The contract under test:
//!
//! * the decode-step graph compiles with **fused** attention and FFN
//!   chains (the memory-bound gate flips at `m = 1`), and fused
//!   execution is bit-identical to the reference lane on both exec
//!   backends — property-tested across seeds and widened batch widths;
//! * `DecodeSession` prefill-then-N-steps matches one full-sequence
//!   forward pass exactly on the reference lane, and within tight
//!   relative error on the fused lane;
//! * per-request `RunOptions` backend overrides and wall-clock
//!   reservoir stats are honored on the coalesced decode-step path;
//! * malformed prompts and step rows return `DecodeError::BadInput`
//!   instead of panicking;
//! * decode logits over a prefill plus a bucket migration stay pinned to
//!   fixed hashes on both backends and under width-2 coalescing.

use std::sync::Arc;

use proptest::prelude::*;

use mcfuser::baselines::Relay;
use mcfuser::ir::{causal_mask, decode_mask, evaluate, scatter_onehot};
use mcfuser::prelude::*;
use mcfuser::sim::BufferArena;
use mcfuser::workloads::{decoder_forward_graph, decoder_step_graph, DecoderConfig};
use rustc_hash::FxHashMap;

fn engine() -> FusionEngine {
    FusionEngine::builder(DeviceSpec::a100())
        .fallback(Relay::new())
        .build()
}

fn ramp(shape: &[u64], phase: u64) -> HostTensor {
    let len: u64 = shape.iter().product();
    HostTensor::from_vec(
        shape,
        (0..len)
            .map(|x| (((x + phase) % 19) as f32 - 9.0) / 19.0)
            .collect(),
    )
}

/// Step-graph input tensors for decode position `pos` against ramp
/// caches, as `(name, tensor)` pairs.
fn step_tensors(cfg: &DecoderConfig, t_b: u64, pos: u64, phase: u64) -> Vec<(String, HostTensor)> {
    let mut v = vec![
        ("x".to_string(), ramp(&[1, cfg.hidden], phase)),
        ("mask".to_string(), decode_mask(cfg.heads, t_b, pos)),
        ("onehot".to_string(), scatter_onehot(cfg.kv_heads, t_b, pos)),
    ];
    for l in 0..cfg.layers {
        let shape = [cfg.kv_heads, t_b, cfg.head_dim()];
        v.push((format!("l{l}.k_cache"), ramp(&shape, phase + 2 * l as u64)));
        v.push((format!("l{l}.v_cache"), ramp(&shape, phase + 7 * l as u64)));
    }
    v
}

fn to_input_set(tensors: &[(String, HostTensor)]) -> InputSet {
    let mut set = InputSet::new();
    for (name, t) in tensors {
        set.insert(name.clone(), t.clone());
    }
    set
}

#[test]
fn decode_step_plan_has_fused_gemv_chains() {
    let engine = engine();
    let cfg = DecoderConfig::gpt_mini();
    let g = decoder_step_graph("gpt-mini", &cfg, 16);
    let plan = engine.compile_plan(&g).unwrap();
    let b = plan.step_breakdown();
    assert_eq!(
        b.fused_steps,
        2 * cfg.layers as usize,
        "decode attention + FFN fused per layer"
    );
}

/// Evaluate the graph on the pure reference lane with the same named
/// tensors, returning output values in declaration order.
fn reference_outputs(g: &Graph, tensors: &[(String, HostTensor)], seed: u64) -> Vec<HostTensor> {
    let mut map = FxHashMap::default();
    for (name, t) in tensors {
        map.insert(g.input_named(name).expect("input bound"), t.clone());
    }
    let vals = evaluate(g, &map, seed).unwrap();
    g.outputs.iter().map(|o| vals[o.0].clone()).collect()
}

/// One compiled step plan shared by the property tests (compiling per
/// proptest case would dominate the suite's runtime).
fn shared_step_plan() -> &'static (Graph, Arc<ExecutablePlan>) {
    static PLAN: std::sync::OnceLock<(Graph, Arc<ExecutablePlan>)> = std::sync::OnceLock::new();
    PLAN.get_or_init(|| {
        let cfg = DecoderConfig::gpt_mini();
        let g = decoder_step_graph("gpt-mini", &cfg, 16);
        let plan = Arc::new(engine().compile_plan(&g).unwrap());
        (g, plan)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fused decode step is bit-identical to the reference lane for
    /// arbitrary seeds and positions, on both exec backends, at any
    /// widened batch width.
    #[test]
    fn fused_decode_step_bit_identity_property(
        seed in 0u64..500,
        pos in 0u64..16,
        width in 1usize..5,
    ) {
        let cfg = DecoderConfig::gpt_mini();
        let (g, plan) = shared_step_plan();
        let requests: Vec<Vec<(String, HostTensor)>> = (0..width as u64)
            .map(|r| step_tensors(&cfg, 16, pos, seed.wrapping_mul(31) + r))
            .collect();
        let sets: Vec<InputSet> = requests.iter().map(|t| to_input_set(t)).collect();
        let refs: Vec<&InputSet> = sets.iter().collect();
        let want: Vec<Vec<HostTensor>> = requests
            .iter()
            .map(|t| reference_outputs(g, t, seed))
            .collect();
        let batched = BatchedPlan::new(plan.clone());
        for backend in [ExecBackend::Interpreter, ExecBackend::Vectorized] {
            let mut arena = BufferArena::new();
            let outs = batched
                .execute_batch(
                    &refs,
                    RunOptions::seeded(seed).with_backend(backend),
                    &mut arena,
                    None,
                )
                .unwrap();
            for (r, (got, want)) in outs.iter().zip(&want).enumerate() {
                for ((name, a), b) in got.iter().zip(want.iter()) {
                    prop_assert_eq!(
                        &a.data,
                        &b.data,
                        "request {} output {} ({:?}, width {})",
                        r, name, backend, width
                    );
                }
            }
        }
    }
}

#[test]
fn fused_decode_step_matches_reference_on_both_backends() {
    let engine = engine();
    let cfg = DecoderConfig::gpt_mini();
    let t_b = 16;
    let g = decoder_step_graph("gpt-mini", &cfg, t_b);
    let runtime = ModelRuntime::new();
    runtime.register("fused", engine.compile_plan(&g).unwrap());
    for seed in [0u64, 7] {
        for pos in [0u64, 3, 15] {
            let tensors = step_tensors(&cfg, t_b, pos, seed + pos);
            let inputs = to_input_set(&tensors);
            let want = reference_outputs(&g, &tensors, seed);
            for backend in [ExecBackend::Interpreter, ExecBackend::Vectorized] {
                let got = runtime
                    .infer(
                        "fused",
                        &inputs,
                        RunOptions::seeded(seed).with_backend(backend),
                    )
                    .unwrap();
                for ((name, a), b) in got.iter().zip(want.iter()) {
                    assert_eq!(a.data, b.data, "output {name} differs ({backend:?})");
                }
            }
        }
    }
}

/// A step whose `onehot` selector is not one-hot per head fails in the
/// step graph's `WriteRow` glue and reaches the client as a structured
/// `ExecError`, on every backend, instead of decoding garbage.
#[test]
fn malformed_row_selector_is_an_exec_error() {
    let cfg = DecoderConfig::gpt_mini();
    let (_, plan) = shared_step_plan();
    let runtime = ModelRuntime::new();
    runtime.register_arc("step", plan.clone());
    let mut two_ones = scatter_onehot(cfg.kv_heads, 16, 3);
    two_ones.data[0] = 1.0;
    for (what, sel) in [
        ("no one", HostTensor::zeros(&[cfg.kv_heads, 16, 1])),
        ("two ones", two_ones),
    ] {
        let mut tensors = step_tensors(&cfg, 16, 3, 0);
        let onehot = tensors.iter_mut().find(|(n, _)| n == "onehot").unwrap();
        onehot.1 = sel;
        for backend in [ExecBackend::Interpreter, ExecBackend::Vectorized] {
            let opts = RunOptions::seeded(1).with_backend(backend);
            let err = runtime
                .infer("step", &to_input_set(&tensors), opts)
                .unwrap_err();
            assert!(
                matches!(&err, ExecError::Reference { node, .. } if node == "l0.kf"),
                "{what} ({backend:?}): {err}"
            );
        }
    }
}

/// Compile a bucketed decode serving over the gpt-mini decoder.
fn decode_serving(cfg: &DecoderConfig, buckets: &[u64]) -> Arc<DecodeServing> {
    decode_serving_on(cfg, buckets, Arc::new(ModelRuntime::new()))
}

/// [`decode_serving`] on a caller-supplied runtime (e.g. one with a
/// coalescing batch policy).
fn decode_serving_on(
    cfg: &DecoderConfig,
    buckets: &[u64],
    runtime: Arc<ModelRuntime>,
) -> Arc<DecodeServing> {
    let engine = engine();
    let spec = DecodeSpec {
        model: "gpt-mini".into(),
        layers: cfg.layers,
        hidden: cfg.hidden,
        heads: cfg.heads,
        kv_heads: cfg.kv_heads,
        buckets: buckets.to_vec(),
    };
    let c1 = *cfg;
    let c2 = *cfg;
    DecodeServing::compile(
        &engine,
        runtime,
        spec,
        move |t_b| decoder_step_graph("gpt-mini", &c1, t_b),
        move |t| decoder_forward_graph("gpt-mini", &c2, t),
    )
    .unwrap()
}

fn rel_l2(a: &[f32], b: &[f32]) -> f64 {
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|y| (*y as f64).powi(2)).sum::<f64>().sqrt();
    num / den.max(1e-30)
}

/// Teacher-forced session decode: prefill the first `p` rows of a ramp
/// sequence, then step through the rest. Every per-position logits row
/// must match one full-sequence forward pass.
#[test]
fn decode_session_prefill_then_steps_matches_full_forward() {
    let cfg = DecoderConfig::gpt_mini();
    let serving = decode_serving(&cfg, &[8, 16]);
    let (t, p, seed) = (12u64, 5u64, 3u64);
    let x = ramp(&[t, cfg.hidden], 1);

    // Ground truth: the full-sequence forward graph on the reference lane.
    let fwd = decoder_forward_graph("gpt-mini", &cfg, t);
    let tensors = vec![
        ("x".to_string(), x.clone()),
        ("mask".to_string(), causal_mask(cfg.heads, t, t)),
    ];
    let want = &reference_outputs(&fwd, &tensors, seed)[0];
    let vocab = (want.data.len() / t as usize) as u64;

    let mut session = serving.open(RunOptions::seeded(seed));
    let prompt = HostTensor::from_vec(
        &[p, cfg.hidden],
        x.data[..(p * cfg.hidden) as usize].to_vec(),
    );
    let prefill_logits = session.prefill(&prompt).unwrap();
    assert_eq!(prefill_logits.shape, vec![p, vocab]);
    assert_eq!(session.pos(), p);
    assert_eq!(session.capacity(), 8, "prompt of 5 fits the first bucket");
    let err = rel_l2(&prefill_logits.data, &want.data[..(p * vocab) as usize]);
    assert!(err < 1e-5, "prefill logits drift: {err}");

    for pos in p..t {
        let row = HostTensor::from_vec(
            &[1, cfg.hidden],
            x.data[(pos * cfg.hidden) as usize..((pos + 1) * cfg.hidden) as usize].to_vec(),
        );
        let logits = session.step(&row).unwrap();
        let w = &want.data[(pos * vocab) as usize..((pos + 1) * vocab) as usize];
        let err = rel_l2(&logits.data, w);
        assert!(err < 1e-5, "step logits drift at pos {pos}: {err}");
        assert_eq!(session.pos(), pos + 1);
    }
    assert_eq!(
        session.capacity(),
        16,
        "generation past 8 tokens migrated the cache to the next bucket"
    );
    // Sessions recycle through the serving arena: a second session's
    // prefill must still work after the first one is dropped.
    drop(session);
    let mut again = serving.open(RunOptions::seeded(seed));
    again.prefill(&prompt).unwrap();
}

/// Malformed client input is a structured `DecodeError::BadInput`, not a
/// panic: a prompt of the wrong rank or hidden width, an empty prompt,
/// and a step row of the wrong length. A rejected call leaves the
/// session as it was.
#[test]
fn malformed_session_inputs_are_structured_errors() {
    let cfg = DecoderConfig::gpt_mini();
    let serving = decode_serving(&cfg, &[8]);
    let h = cfg.hidden;
    let mut session = serving.open(RunOptions::seeded(1));
    for (what, prompt) in [
        ("rank 1", ramp(&[h], 0)),
        ("rank 3", ramp(&[1, 3, h], 0)),
        ("width", ramp(&[3, h + 1], 0)),
        ("empty", HostTensor::from_vec(&[0, h], Vec::new())),
    ] {
        let err = session.prefill(&prompt).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::BadInput {
                    input: "prompt",
                    ..
                }
            ),
            "{what}: {err}"
        );
    }
    assert_eq!(session.pos(), 0);
    session.prefill(&ramp(&[3, h], 0)).unwrap();
    for row in [ramp(&[1, h - 1], 0), ramp(&[2, h], 0)] {
        let err = session.step(&row).unwrap_err();
        assert!(
            matches!(err, DecodeError::BadInput { input: "step", .. }),
            "{err}"
        );
    }
    assert_eq!(session.pos(), 3);
    session.step(&ramp(&[1, h], 0)).unwrap();
    assert_eq!(session.pos(), 4);
}

/// Per-request backend overrides and the wall-clock reservoir are both
/// honored on the coalesced decode-step path (`ModelRuntime::submit`).
#[test]
fn session_steps_honor_backend_override_and_wall_stats() {
    let cfg = DecoderConfig::gpt_mini();
    let serving = decode_serving(&cfg, &[16]);
    let seed = 11u64;
    let prompt = ramp(&[3, cfg.hidden], 2);
    let steps = 5u64;

    let mut logits_by_backend: Vec<Vec<Vec<f32>>> = Vec::new();
    for backend in [
        None,
        Some(ExecBackend::Interpreter),
        Some(ExecBackend::Vectorized),
    ] {
        let mut opts = RunOptions::seeded(seed);
        opts.backend = backend;
        let mut session = serving.open(opts);
        session.prefill(&prompt).unwrap();
        let mut rows = Vec::new();
        for i in 0..steps {
            let row = ramp(&[1, cfg.hidden], 40 + i);
            rows.push(session.step(&row).unwrap().data);
        }
        logits_by_backend.push(rows);
    }
    // Backends are bit-identical, so any divergence means the override
    // was dropped somewhere on the coalesced path.
    assert_eq!(logits_by_backend[0], logits_by_backend[1]);
    assert_eq!(logits_by_backend[1], logits_by_backend[2]);

    let stats = serving.runtime().stats();
    let step_plan = stats
        .plans
        .iter()
        .find(|p| p.model == "gpt-mini@step16")
        .expect("step plan served requests");
    assert_eq!(step_plan.requests, 3 * steps);
    assert!(
        step_plan.wall_p50_latency > 0.0 && step_plan.wall_p95_latency > 0.0,
        "wall-clock reservoir must be populated by submitted steps"
    );
    assert!(step_plan.fused_steps >= 2 * cfg.layers as usize);
}

/// FNV-1a over the bit patterns of a stream of `f32`s.
fn fnv1a_bits<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for v in row {
            for byte in v.to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

const PIN_PROMPT: u64 = 8;
const PIN_STEPS: u64 = 50;
const PIN_SEED: u64 = 5;

/// Prefill `PIN_PROMPT` ramp rows of stream `stream`, then take
/// `PIN_STEPS` teacher-forced steps (crossing the 16 → 64 migration);
/// returns the FNV hash of every logits row, prefill first.
fn pinned_session_hash(session: &mut DecodeSession, stream: u64) -> u64 {
    let h = DecoderConfig::gpt_mini().hidden;
    let mut rows = vec![
        session
            .prefill(&ramp(&[PIN_PROMPT, h], stream))
            .unwrap()
            .data,
    ];
    for i in 0..PIN_STEPS {
        rows.push(session.step(&ramp(&[1, h], 100 * stream + i)).unwrap().data);
    }
    assert_eq!(session.capacity(), 64, "the steps crossed the migration");
    fnv1a_bits(rows.iter().map(Vec::as_slice))
}

/// Decode logits are pinned bit for bit: two token streams, each a
/// prefill of 8 plus 50 steps across buckets [16, 64], hash to fixed
/// constants on both exec backends at width 1, and again when the two
/// sessions step together through a width-2 coalescing runtime. A
/// change to how the step graph places its KV rows, or to any op the
/// step runs, must leave these logits unchanged.
#[test]
fn decode_logits_are_pinned_across_backends_and_coalescing() {
    const PINNED: [u64; 2] = [0xc67b_f311_3e36_714b, 0x47ce_8bab_85d5_fd68];
    let cfg = DecoderConfig::gpt_mini();
    let buckets = [16, 64];
    let serving = decode_serving(&cfg, &buckets);
    for backend in [ExecBackend::Interpreter, ExecBackend::Vectorized] {
        for (stream, want) in PINNED.iter().enumerate() {
            let mut s = serving.open(RunOptions::seeded(PIN_SEED).with_backend(backend));
            let got = pinned_session_hash(&mut s, stream as u64);
            assert_eq!(got, *want, "stream {stream} on {backend:?}: {got:#018x}");
        }
    }

    let policy = BatchPolicy {
        max_batch: 2,
        max_wait: std::time::Duration::from_millis(200),
        queue_cap: 64,
    };
    let coalesced = decode_serving_on(
        &cfg,
        &buckets,
        Arc::new(ModelRuntime::with_batch_policy(policy)),
    );
    let got: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|stream| {
                let coalesced = &coalesced;
                scope.spawn(move || {
                    let mut s = coalesced.open(RunOptions::seeded(PIN_SEED));
                    pinned_session_hash(&mut s, stream)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(got, PINNED, "coalesced sessions: {got:#018x?}");
    let widened = coalesced
        .runtime()
        .stats()
        .batch_sizes
        .iter()
        .any(|&(w, n)| w == 2 && n > 0);
    assert!(widened, "the two sessions never shared a launch");
}
