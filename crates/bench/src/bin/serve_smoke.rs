//! Serving-throughput smoke test: compile two models through one
//! `FusionEngine` session, freeze them into `ExecutablePlan`s, and push
//! the same 48-request workload through a `ModelRuntime` twice — once
//! request-at-a-time via [`ModelRuntime::infer`], once through the
//! continuous-batching admission queue via [`ModelRuntime::submit`].
//!
//! Prints wall-clock and virtual-clock throughput for both modes plus
//! p50/p95 per-request latency (virtual device clock, including
//! queueing delay in batched mode), and asserts the invariants CI
//! cares about: nonzero tuning-cache reuse at compile time, every
//! request served and counted, bit-identical outputs per
//! `(model, seed)` in both modes, a non-degenerate batched latency
//! distribution (p50 < p95), and at least 2x virtual-clock throughput
//! from coalescing same-plan requests into widened fused launches.
//!
//! The reference runtime that produces the expected outputs is pinned
//! to the interpreter oracle ([`ExecBackend::Interpreter`]), while the
//! serial and batched runtimes run whatever `MCFUSER_EXEC_BACKEND`
//! selects (vectorized by default; any value other than `interpreter`
//! or `vectorized` exits with an error) — so every output equality assert
//! doubles as a cross-backend bit-identity check. A final in-process
//! shootout times the same request mix on both backends explicitly and
//! asserts the vectorized kernels deliver at least 3x the wall-clock
//! request rate of the interpreter.
//!
//! ```sh
//! cargo run --release -p mcfuser-bench --bin serve_smoke
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use mcfuser_baselines::Relay;
use mcfuser_core::{
    BatchPolicy, BatchedPlan, FusionEngine, InputSet, ModelRuntime, RunOptions, RuntimeStats,
};
use mcfuser_ir::GraphBuilder;
use mcfuser_sim::{DType, DeviceSpec, ExecBackend, HostTensor};
use mcfuser_workloads::{bert_graph, BertConfig};

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: usize = 6;
/// The models the 48-request workload serves. Both are dominated by
/// fused kernels, so widened launches cover most of each request —
/// the regime continuous batching is built for. (`bert-mini` is
/// compiled and registered too, but stays out of the throughput
/// comparison: most of its steps fall back to per-request reference
/// evaluation, which batching passes through serially by design.)
const MODELS: [&str; 2] = ["attn", "mlp"];

fn ramp(shape: &[u64], phase: u64) -> HostTensor {
    let len: u64 = shape.iter().product();
    HostTensor::from_vec(
        shape,
        (0..len)
            .map(|x| (((x + phase) % 29) as f32 - 14.0) / 29.0)
            .collect(),
    )
}

/// Drive the 48-request workload through one runtime and return the
/// wall seconds it took. The first four waves are aligned
/// (`model = r % 2`, `seed = r % 4`) so all eight threads hit the same
/// `(model, seed)` pair — the coalescing opportunity the batched mode
/// is supposed to exploit. The final wave per model splits 4/4 across
/// two seeds: the two half-width batches serialize on the model's
/// virtual frontier, so one of them queues behind the other — real
/// queueing delay that must surface in the p95 latency tail.
fn run_workload(
    runtime: &Arc<ModelRuntime>,
    inputs: &[InputSet],
    expected: &[Vec<Vec<f32>>],
    batched: bool,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let runtime = runtime.clone();
            scope.spawn(move || {
                for r in 0..REQUESTS_PER_THREAD {
                    let m = r % MODELS.len();
                    let s = if r < 4 {
                        (r % 4) as u64
                    } else {
                        (t % 2) as u64
                    };
                    let opts = RunOptions::seeded(s);
                    let out = if batched {
                        runtime.submit(MODELS[m], inputs[m].clone(), opts)
                    } else {
                        runtime.infer(MODELS[m], &inputs[m], opts)
                    }
                    .expect("request served");
                    assert_eq!(
                        out.primary().data,
                        expected[m][s as usize],
                        "non-deterministic output under concurrency"
                    );
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Per-mode summary: wall throughput, virtual-clock throughput
/// (requests per virtual device second actually occupied), and the
/// per-plan latency report. Panics on the per-mode invariants.
fn summarize(mode: &str, stats: &RuntimeStats, wall: f64, issued: u64) -> serde_json::Value {
    assert_eq!(stats.requests, issued, "every {mode} request counted");
    assert_eq!(stats.failed, 0, "no {mode} request failed");
    assert_eq!(stats.queue_depth, 0, "the {mode} queue drained");
    let virtual_busy: f64 = stats.plans.iter().map(|p| p.virtual_busy).sum();
    let virtual_rps = issued as f64 / virtual_busy;
    println!(
        "\n[{mode}] {issued} requests in {wall:.2} s wall ({:.0} req/s wall, {:.0} req/s virtual)",
        issued as f64 / wall,
        virtual_rps,
    );
    let mut plans = Vec::new();
    for p in &stats.plans {
        println!(
            "  {:>9}: {} requests, p50 {:.1} us, p95 {:.1} us, {:.2} MB moved, busy {:.1} us, \
             {} fused / {} reference steps ({} elementwise), {:.2}/{:.2} MB per request, \
             wall p50 {:.1} us, wall p95 {:.1} us",
            p.model,
            p.requests,
            p.p50_latency * 1e6,
            p.p95_latency * 1e6,
            p.bytes_moved / 1e6,
            p.virtual_busy * 1e6,
            p.fused_steps,
            p.reference_steps,
            p.reference_elementwise,
            p.fused_bytes_per_request / 1e6,
            p.reference_bytes_per_request / 1e6,
            p.wall_p50_latency * 1e6,
            p.wall_p95_latency * 1e6,
        );
        assert!(p.p95_latency >= p.p50_latency && p.p50_latency > 0.0);
        assert!(
            p.wall_p95_latency >= p.wall_p50_latency && p.wall_p50_latency > 0.0,
            "wall-clock reservoir must be populated for {}",
            p.model
        );
        plans.push(serde_json::json!({
            "model": p.model,
            "requests": p.requests,
            "p50_latency_s": p.p50_latency,
            "p95_latency_s": p.p95_latency,
            "wall_p50_latency_s": p.wall_p50_latency,
            "wall_p95_latency_s": p.wall_p95_latency,
            "wall_busy_s": p.wall_busy,
            "bytes_moved": p.bytes_moved,
            "virtual_busy_s": p.virtual_busy,
            "fused_steps": p.fused_steps,
            "reference_steps": p.reference_steps,
            "reference_elementwise": p.reference_elementwise,
            "fused_bytes_per_request": p.fused_bytes_per_request,
            "reference_bytes_per_request": p.reference_bytes_per_request,
        }));
    }
    serde_json::json!({
        "wall_seconds": wall,
        "req_per_s_wall": issued as f64 / wall,
        "req_per_s_virtual": virtual_rps,
        "virtual_busy_s": virtual_busy,
        "batch_sizes": stats
            .batch_sizes
            .iter()
            .map(|&(w, n)| vec![w as u64, n])
            .collect::<Vec<_>>(),
        "rejected": stats.rejected,
        "expired": stats.expired,
        "plans": plans,
    })
}

/// Time the same request mix on both execution backends explicitly
/// (per-request [`RunOptions::with_backend`] overrides, so the
/// engine-level default is irrelevant here) and return the wall
/// seconds `(interpreter, vectorized)`. Every output is also checked
/// against the interpreter-oracle expected values, so this doubles as
/// one more bit-identity sweep. Per (backend, model) only the fastest
/// `ROUNDS / 2` of the `ROUNDS` timed rounds count: scheduling noise
/// on a shared host is strictly additive, so dropping the slow half
/// symmetrically on both backends keeps the reported ratio close to
/// the noise-free one.
fn shootout(
    runtime: &Arc<ModelRuntime>,
    inputs: &[InputSet],
    expected: &[Vec<Vec<f32>>],
) -> (f64, f64) {
    const ROUNDS: usize = 8;
    let mut walls = [0.0f64; 2];
    let mut model_walls = [[0.0f64; MODELS.len()]; 2];
    for (bi, backend) in [ExecBackend::Interpreter, ExecBackend::Vectorized]
        .into_iter()
        .enumerate()
    {
        for (m, set) in MODELS.iter().zip(inputs) {
            // Warm caches (weights, arenas) outside the timed region.
            runtime
                .infer(m, set, RunOptions::seeded(0).with_backend(backend))
                .expect("shootout warm-up");
        }
        let mut round_walls = [[0.0f64; MODELS.len()]; ROUNDS];
        for round_wall in round_walls.iter_mut() {
            for s in 0..4u64 {
                for (mi, (m, set)) in MODELS.iter().zip(inputs).enumerate() {
                    let start = Instant::now();
                    let out = runtime
                        .infer(m, set, RunOptions::seeded(s).with_backend(backend))
                        .expect("shootout request");
                    round_wall[mi] += start.elapsed().as_secs_f64();
                    assert_eq!(
                        out.primary().data,
                        expected[mi][s as usize],
                        "backend {backend} diverged from the interpreter oracle"
                    );
                }
            }
        }
        for mi in 0..MODELS.len() {
            let mut rounds: Vec<f64> = round_walls.iter().map(|r| r[mi]).collect();
            rounds.sort_by(|a, b| a.total_cmp(b));
            model_walls[bi][mi] = rounds[..ROUNDS / 2].iter().sum();
        }
        walls[bi] = model_walls[bi].iter().sum();
    }
    for (mi, m) in MODELS.iter().enumerate() {
        println!(
            "  shootout {:>9}: interpreter {:.1} ms, vectorized {:.1} ms ({:.2}x)",
            m,
            model_walls[0][mi] * 1e3,
            model_walls[1][mi] * 1e3,
            model_walls[0][mi] / model_walls[1][mi],
        );
    }
    (walls[0], walls[1])
}

fn main() {
    let device = DeviceSpec::a100();
    let backend = ExecBackend::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    println!("serving backend: {backend} (reference oracle stays on the interpreter)");
    let engine = FusionEngine::builder(device)
        .fallback(Relay::new())
        .parallelism(0)
        .build();

    // Model 1: a 2-layer mini BERT — its identical layers force
    // tuning-cache reuse inside one compile.
    let bert = bert_graph(
        "bert-mini",
        &BertConfig {
            layers: 2,
            hidden: 128,
            heads: 4,
            seq: 64,
            intermediate: 512,
        },
    );
    // Model 2: a self-attention block (activation-only fused chain).
    let attn = {
        let mut gb = GraphBuilder::new("attn", DType::F16);
        let q = gb.input("q", vec![2, 64, 32]);
        let k = gb.input("k", vec![2, 64, 32]);
        let v = gb.input("v", vec![2, 64, 32]);
        let s = gb.batch_matmul("qk", q, k, true);
        let p = gb.softmax("sm", s, 1.0 / (32f32).sqrt());
        let o = gb.batch_matmul("pv", p, v, false);
        let ln = gb.layer_norm("ln", o);
        gb.finish(vec![ln])
    };
    // Model 3: a small MLP (weight-bearing fused chain).
    let mlp = {
        let mut gb = GraphBuilder::new("mlp", DType::F16);
        let x = gb.input("x", vec![128, 64]);
        let y = gb.linear("fc1", x, 128, false);
        let z = gb.linear("fc2", y, 64, false);
        gb.finish(vec![z])
    };

    // One runtime per serving mode plus a reference runtime that only
    // produces the expected outputs, all sharing the same frozen plans.
    let compile_start = Instant::now();
    let reference = Arc::new(ModelRuntime::new());
    let serial = Arc::new(ModelRuntime::new());
    let batched = Arc::new(ModelRuntime::with_batch_policy(BatchPolicy {
        max_batch: THREADS,
        max_wait: Duration::from_millis(100),
        queue_cap: 256,
    }));
    let mut reused_chains = 0usize;
    for graph in [&bert, &attn, &mlp] {
        let model = engine.compile(graph).expect("compiles");
        // Identical chains (BERT's two layers) tune once and are fanned
        // back out flagged as reuse.
        reused_chains += model.chains.iter().filter(|c| c.cache_hit).count();
        let plan = model
            .plan(graph)
            .expect("plan freezes")
            .with_backend(backend);
        let plan = Arc::new(plan);
        // The reference runtime serves an interpreter-pinned twin of
        // each plan: its outputs are the oracle every serial/batched
        // (vectorized by default) result is bit-compared against.
        let oracle = Arc::new((*plan).clone().with_backend(ExecBackend::Interpreter));
        let probe = BatchedPlan::new(plan.clone());
        let (span4, _) = probe.batch_span(4);
        let breakdown = plan.step_breakdown();
        println!(
            "compiled {:>9}: {} steps, {} fused kernels, {} elementwise reference steps, \
             peak live {}/{} nodes, {:.1} us/request ({:.1} us per request at width 4)",
            graph.name,
            plan.steps().len(),
            plan.fused_kernels(),
            breakdown.reference_elementwise,
            plan.buffer_plan().peak_live(),
            plan.buffer_plan().total_nodes(),
            plan.virtual_time_per_request() * 1e6,
            span4 / 4.0 * 1e6,
        );
        reference.register_arc(graph.name.clone(), oracle);
        for rt in [&serial, &batched] {
            rt.register_arc(graph.name.clone(), plan.clone());
        }
    }
    if let Some(cache) = engine.cache_handle() {
        for rt in [&reference, &serial, &batched] {
            rt.attach_cache(cache.clone());
        }
    }
    // A recompile (rolling restart of a serving replica) is pure cache.
    let recompiled = engine.compile(&bert).expect("recompiles");
    reused_chains += recompiled.chains.iter().filter(|c| c.cache_hit).count();
    let stats = engine.stats();
    println!(
        "compile wall time : {:.1} s ({} reused chains, cache hits {}, misses {})",
        compile_start.elapsed().as_secs_f64(),
        reused_chains,
        stats.cache_hits,
        stats.cache_misses,
    );
    assert!(
        reused_chains > 0 && stats.cache_hits > 0,
        "identical BERT layers / recompiles must reuse the tuning cache"
    );

    // Per-model inputs and serial reference outputs per seed.
    let seeds: Vec<u64> = (0..4).collect();
    let inputs: Vec<InputSet> = MODELS
        .iter()
        .map(|m| {
            let plan = serial.plan(m).expect("registered");
            let mut set = InputSet::new();
            for (i, b) in plan.inputs().iter().enumerate() {
                set.insert(b.name.clone(), ramp(&b.shape, i as u64));
            }
            set
        })
        .collect();
    let expected: Vec<Vec<Vec<f32>>> = MODELS
        .iter()
        .zip(&inputs)
        .map(|(m, set)| {
            seeds
                .iter()
                .map(|&s| {
                    reference
                        .infer(m, set, RunOptions::seeded(s))
                        .expect("reference request")
                        .primary()
                        .data
                        .clone()
                })
                .collect()
        })
        .collect();

    // The same smoke load twice: THREADS x REQUESTS_PER_THREAD
    // interleaved requests, request-at-a-time then coalesced.
    let issued = (THREADS * REQUESTS_PER_THREAD) as u64;
    let serial_wall = run_workload(&serial, &inputs, &expected, false);
    let batched_wall = run_workload(&batched, &inputs, &expected, true);

    let serial_stats = serial.stats();
    let batched_stats = batched.stats();
    let serial_report = summarize("serial", &serial_stats, serial_wall, issued);
    let batched_report = summarize("batched", &batched_stats, batched_wall, issued);

    // Batched mode must have actually coalesced (some launch wider
    // than 1) and its queueing delay must show up in the latency tail.
    let widened: u64 = batched_stats
        .batch_sizes
        .iter()
        .filter(|(w, _)| *w > 1)
        .map(|(_, n)| n)
        .sum();
    let launches: u64 = batched_stats.batch_sizes.iter().map(|(_, n)| n).sum();
    println!(
        "  batch widths: {:?} ({widened}/{launches} launches widened)",
        batched_stats.batch_sizes
    );
    assert!(widened > 0, "the wave-aligned load must coalesce");
    assert!(
        batched_stats
            .plans
            .iter()
            .any(|p| p.p95_latency > p.p50_latency),
        "queueing delay must produce a non-degenerate latency spread"
    );

    // The acceptance bar: the same workload, >= 2x the virtual-clock
    // throughput from amortizing weight traffic and launch overhead.
    let speedup = batched_report["req_per_s_virtual"].as_f64().unwrap()
        / serial_report["req_per_s_virtual"].as_f64().unwrap();
    println!("\nvirtual-clock speedup from batching: {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "continuous batching must at least double virtual throughput, got {speedup:.2}x"
    );

    // Backend shootout: the same request mix on each backend, timed on
    // the host clock. The vectorized blocked kernels must deliver at
    // least 3x the interpreter's wall-clock request rate.
    // The walls cover the fastest 4 of 8 rounds (x 4 seeds x MODELS)
    // per backend inside `shootout`.
    let shootout_requests = (4 * 4 * MODELS.len()) as f64;
    let (interp_wall, vec_wall) = shootout(&serial, &inputs, &expected);
    let wall_speedup = interp_wall / vec_wall;
    println!(
        "\nbackend shootout: interpreter {:.0} req/s, vectorized {:.0} req/s ({wall_speedup:.2}x wall speedup)",
        shootout_requests / interp_wall,
        shootout_requests / vec_wall,
    );
    assert!(
        wall_speedup >= 3.0,
        "vectorized backend must serve at least 3x the interpreter's wall request rate, got {wall_speedup:.2}x"
    );

    let shootout_report = serde_json::json!({
        "interpreter_wall_seconds": interp_wall,
        "vectorized_wall_seconds": vec_wall,
        "interpreter_req_per_s": shootout_requests / interp_wall,
        "vectorized_req_per_s": shootout_requests / vec_wall,
        "wall_speedup": wall_speedup,
    });
    mcfuser_bench::write_json(
        "serve_smoke",
        &serde_json::json!({
            "threads": THREADS,
            "requests": issued,
            "backend": backend.to_string(),
            "cache_hits": engine.stats().cache_hits,
            "serial": serial_report,
            "batched": batched_report,
            "virtual_speedup": speedup,
            "shootout": shootout_report,
        }),
    );
    for rt in [reference, serial, batched] {
        rt.shutdown().expect("caches flush cleanly");
    }
    println!("OK — serve_smoke invariants hold.");
}
