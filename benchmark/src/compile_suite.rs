//! `compile_suite`: cold compiles of the paper's tuning workloads.
//!
//! One pass tunes the Table II GEMM chains G1–G12, the Table III
//! attention chains S1–S9, the 4-GEMM MLP chain and the 273 885-survivor
//! 3-GEMM chain `mlp3-1536` on a fresh `FusionEngine`, then compiles and
//! plans BERT-Small/Base/Large at sequence length 512. One client
//! thread runs passes back to back until the window closes. An
//! operation is one job (a chain tune or a graph compile + plan).

use std::collections::BTreeMap;
use std::time::Instant;

use mcfuser_core::EngineStats;
use mcfuser_ir::{ChainSpec, Epilogue};
use mcfuser_sim::{verify_program, ExecBackend, TensorStorage};
use mcfuser_workloads::{
    attention_suite, bert_base, bert_large, bert_small, gemm_chain_suite, mlp4_chain,
};

use crate::common::{
    compile_pass, counters_json, median_or_zero, stats_json, tail_json, Job, Layers, Out, Pass,
    RunCtx,
};
use crate::replay::Counters;
use crate::stats::{median, tail, Outcome, Tally};
use crate::trace::{overfull_parents, Tracer};

/// Client threads of the closed loop. The benchmark runs on one CPU
/// (see `main`), so a second client would only time-share it.
const CLIENTS: usize = 1;

/// Chains the correctness check executes per run, drawn by seed from
/// those small enough to execute on the simulator in well under a
/// second.
const EXECUTED_CHAINS: usize = 3;

/// FLOP ceiling for a chain to be eligible for execution.
const EXECUTE_MAX_FLOP: f64 = 3.0e8;

/// Set-up repetitions (each a full cold pass); `setup_s` is their
/// median.
const SETUPS: usize = 3;

/// Tolerance of an executed winner against `ChainSpec::reference`.
const REL_L2_TOL: f32 = 2e-2;

/// The 3-GEMM chain whose Rule-4 scan, not its search, dominates.
fn mlp3_1536() -> ChainSpec {
    ChainSpec::chain(
        "mlp3-1536",
        1,
        1536,
        vec![1536, 768, 1536, 768],
        vec![Epilogue::None; 3],
    )
}

/// The pass's jobs, in order.
pub fn jobs() -> Vec<Job> {
    let mut jobs: Vec<Job> = gemm_chain_suite().into_iter().map(Job::Chain).collect();
    jobs.extend(attention_suite().into_iter().map(Job::Chain));
    jobs.push(Job::Chain(mlp4_chain()));
    jobs.push(Job::Chain(mlp3_1536()));
    jobs.extend([bert_small(512), bert_base(512), bert_large(512)].map(Job::Graph));
    jobs
}

/// FLOPs of a chain's GEMMs.
fn chain_flop(c: &ChainSpec) -> f64 {
    c.dims
        .windows(2)
        .map(|w| 2.0 * (c.batch * c.m * w[0] * w[1]) as f64)
        .sum()
}

fn add_stats(into: &mut EngineStats, s: &EngineStats) {
    into.cache_hits += s.cache_hits;
    into.cache_misses += s.cache_misses;
    into.space_cache_hits += s.space_cache_hits;
    into.space_builds += s.space_builds;
    into.programs_verified += s.programs_verified;
    into.verify_rejects += s.verify_rejects;
}

/// Check a pass against the reference pass: one outcome per job, plus
/// one for the pass's deterministic virtual results.
fn check_pass(pass: &Pass, reference: &Pass, tally: &mut Tally) {
    for (got, want) in pass.winners.iter().zip(&reference.winners) {
        tally.record(match (got, want) {
            (Err(_), _) => Outcome::Error,
            (Ok(g), Ok(w)) if g == w => Outcome::Ok,
            _ => Outcome::Mismatch,
        });
    }
    tally.record(Outcome::check(pass.virtuals.same_bits(&reference.virtuals)));
    for r in &pass.replay {
        tally.record(Outcome::check(r.is_ok()));
    }
}

/// Verify every winner of the reference pass and execute a seeded
/// sample of its chain winners against `ChainSpec::reference`.
fn check_winners(
    ctx: &RunCtx,
    jobs: &[Job],
    reference: &Pass,
    tally: &mut Tally,
) -> serde_json::Value {
    for k in reference.kernels.iter().flatten() {
        tally.record(Outcome::check(verify_program(&k.kernel.program).is_ok()));
    }
    // Graph winners are re-verified by `CompiledModel::plan`; a plan
    // that exists passed the gate.
    for (job, plan) in jobs.iter().zip(&reference.plans) {
        if matches!(job, Job::Graph(_)) {
            tally.record(if plan.is_some() {
                Outcome::Ok
            } else {
                Outcome::Error
            });
        }
    }
    let eligible: Vec<usize> = jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| matches!(j, Job::Chain(c) if chain_flop(c) <= EXECUTE_MAX_FLOP))
        .map(|(i, _)| i)
        .collect();
    let mut rng = ctx.rng("compile_suite/execute");
    let mut executed = Vec::new();
    for _ in 0..EXECUTED_CHAINS.min(eligible.len()) {
        let i = eligible[rng.below(eligible.len())];
        let Some(k) = &reference.kernels[i] else {
            tally.record(Outcome::Error);
            continue;
        };
        let inputs = k.chain.random_inputs(rng.next_u64());
        let mut st = TensorStorage::for_program(&k.kernel.program);
        for (slot, t) in st.tensors.iter_mut().zip(&inputs) {
            *slot = t.clone();
        }
        let err = match ExecBackend::Vectorized
            .executor()
            .execute(&k.kernel.program, &mut st)
        {
            Ok(()) => st
                .tensors
                .last()
                .expect("output buffer")
                .rel_l2_error(&k.chain.reference(&inputs)),
            Err(_) => f32::INFINITY,
        };
        tally.record(Outcome::check(err < REL_L2_TOL));
        executed.push(serde_json::json!({"chain": k.chain.name.clone(), "rel_l2": err as f64}));
    }
    serde_json::Value::Array(executed)
}

/// Run the workload.
pub fn run(ctx: &RunCtx) -> Out {
    let off = Tracer::new(false);
    let sample_rng = ctx.rng("compile_suite/replay");
    let mut tally = Tally::default();

    // Set-up: build the job list and run the first (warm-up) cold pass,
    // SETUPS times. The first becomes the reference every later pass
    // must reproduce bit for bit.
    let mut setup_s = Vec::new();
    let mut reference: Option<(Vec<Job>, Pass)> = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let jobs = jobs();
        let pass = compile_pass(&jobs, &off, &sample_rng);
        setup_s.push(t0.elapsed().as_secs_f64());
        match &reference {
            None => reference = Some((jobs, pass)),
            Some((_, r)) => check_pass(&pass, r, &mut tally),
        }
    }
    let (jobs, reference) = reference.expect("at least one set-up");

    // Measured window: CLIENTS threads running back-to-back cold
    // passes.
    let (untraced, traced) = ctx.windows();
    let measured = closed_loop(&jobs, &reference, &off, &sample_rng, untraced);
    tally.merge(measured.tally);
    let (pass_s, job_s) = (measured.pass_s, measured.job_s);
    // Read before the winner check, whose seeded choice of chains to
    // execute would otherwise set the peak.
    let peak_rss_mb = crate::stats::peak_rss_mb().unwrap_or(0.0);
    let executed = check_winners(ctx, &jobs, &reference, &mut tally);

    let v = reference.virtuals;
    let chain_jobs = jobs.iter().filter(|j| matches!(j, Job::Chain(_))).count();
    let mut detail = serde_json::json!({
        "jobs": jobs.iter().map(|j| j.name().to_string()).collect::<Vec<_>>(),
        "passes": pass_s.len(),
        "pass_seconds": pass_s.clone(),
        "job_p50_ms": per_job_ms(&jobs, &job_s),
        "executed": executed,
        "engine": stats_json(&reference.stats),
    });

    if !ctx.trace {
        let tail_s = tail(&job_s);
        detail["op_tail"] = tail_json(tail_s);
        let mut m = BTreeMap::new();
        m.insert(
            "throughput",
            (CLIENTS * jobs.len()) as f64 / median_or_zero(&pass_s),
        );
        m.insert("op_p50_ms", 1e3 * median_or_zero(&job_s));
        m.insert("op_tail_ms", 1e3 * tail_s.map_or(0.0, |t| t.value));
        m.insert("compile_s", median_or_zero(&pass_s));
        m.insert("setup_s", median_or_zero(&setup_s));
        m.insert("tune_virtual_s", v.tune_s);
        m.insert("kernel_virtual_us", v.kernel_us);
        m.insert("model_virtual_us", v.model_us);
        m.insert("op_virtual_us", v.kernel_us / chain_jobs as f64);
        m.insert("peak_rss_mb", peak_rss_mb);
        return Out {
            metrics: m,
            tally,
            detail,
            spans: Vec::new(),
        };
    }

    // Traced half: the same passes with spans, each followed by the
    // layer-by-layer replay.
    let tracer = Tracer::new(true);
    let traced_loop = closed_loop(&jobs, &reference, &tracer, &sample_rng, traced);
    tally.merge(traced_loop.tally);
    let (traced_engine_s, counters) = (traced_loop.pass_s, traced_loop.counters);
    let spans = tracer.take_spans();
    let overfull = overfull_parents(&spans);
    tally.record(Outcome::check(overfull.is_empty()));
    let passes = traced_engine_s.len() as f64;
    let mut layers = Layers::default();
    layers.set_compile(&spans, &counters, passes, &traced_loop.stats);
    layers.set(
        "trace.overhead_ratio",
        median_or_zero(&traced_engine_s) / median_or_zero(&pass_s) - 1.0,
    );
    layers.set("trace.spans", spans.len() as f64);
    detail["traced_passes"] = serde_json::json!(traced_engine_s.len());
    detail["counters"] = counters_json(&counters);
    detail["overfull_spans"] = serde_json::json!(overfull);
    Out {
        metrics: layers.0,
        tally,
        detail,
        spans,
    }
}

/// Results of one closed loop of cold passes.
#[derive(Default)]
struct LoopOut {
    tally: Tally,
    pass_s: Vec<f64>,
    /// Job seconds, pass after pass, in job order.
    job_s: Vec<f64>,
    counters: Counters,
    stats: EngineStats,
}

impl LoopOut {
    fn merge(&mut self, o: LoopOut) {
        self.tally.merge(o.tally);
        self.pass_s.extend(o.pass_s);
        self.job_s.extend(o.job_s);
        self.counters.merge(&o.counters);
        add_stats(&mut self.stats, &o.stats);
    }
}

/// Run back-to-back cold passes on CLIENTS threads until `window`
/// has passed (each client finishes at least one pass), checking each
/// pass against the reference.
fn closed_loop(
    jobs: &[Job],
    reference: &Pass,
    tracer: &Tracer,
    rng: &crate::stats::Rng,
    window: std::time::Duration,
) -> LoopOut {
    let start = Instant::now();
    let all = std::sync::Mutex::new(LoopOut::default());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let all = &all;
            scope.spawn(move || {
                let mut out = LoopOut::default();
                while out.pass_s.is_empty() || start.elapsed() < window {
                    let pass = compile_pass(jobs, tracer, rng);
                    out.pass_s.push(pass.seconds);
                    out.job_s.extend_from_slice(&pass.job_seconds);
                    out.counters.merge(&pass.counters);
                    add_stats(&mut out.stats, &pass.stats);
                    check_pass(&pass, reference, &mut out.tally);
                }
                all.lock().expect("a client panicked").merge(out);
            });
        }
    });
    all.into_inner().expect("a client panicked")
}

/// Median wall ms of each job across passes.
fn per_job_ms(jobs: &[Job], job_s: &[f64]) -> serde_json::Value {
    let n = jobs.len();
    let mut m = serde_json::Map::new();
    for (i, j) in jobs.iter().enumerate() {
        let samples: Vec<f64> = job_s.iter().skip(i).step_by(n).copied().collect();
        m.insert(
            j.name().to_string(),
            serde_json::json!(1e3 * median(&samples).unwrap_or(0.0)),
        );
    }
    serde_json::Value::Object(m)
}
