//! `serve_mix`: a closed loop of one client sending requests back to
//! back through `ModelRuntime::infer`, round-robin over three plans —
//! a 2-layer BERT (`bert-mini`), an activation-only attention block
//! (`attn`) and a weight-bearing 2-GEMM MLP (`mlp`). An operation is
//! one request. `infer` bypasses the batching scheduler.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mcfuser_core::{ExecBackend, ExecutablePlan, InputSet, ModelRuntime, RunOptions, Step};
use mcfuser_ir::{Graph, GraphBuilder};
use mcfuser_sim::{measure, BufferArena, DType, HostTensor};
use mcfuser_workloads::{bert_graph, BertConfig};

use crate::common::{
    compile_pass, counters_json, median_or_zero, stats_json, tails_json, Job, Layers, Out, Pass,
    RunCtx, COMPILE_SAMPLES, WINDOWS,
};
use crate::replay::{replay_request, RequestSplit, WeightMemo};
use crate::stats::{median, windowed, Outcome, RssProbe, Tally};
use crate::trace::Tracer;

/// Client threads of the closed loop. The benchmark runs on one CPU
/// (see `main`), so a second client would only time-share it.
const CLIENTS: usize = 1;

/// `RunOptions` seeds per model.
const SEEDS_PER_MODEL: usize = 2;

/// Distinct input tensors per model, generated before timing.
const INPUT_VARIANTS: usize = 3;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 15;

/// Requests after which `peak_rss_mb` is read: about half the window of
/// a 15 s run on the host the benchmark is sized for.
const RSS_AT_OPS: u64 = 400;

/// The three models, in round-robin order.
pub fn graphs() -> Vec<Graph> {
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
    let mlp = {
        let mut gb = GraphBuilder::new("mlp", DType::F16);
        let x = gb.input("x", vec![128, 64]);
        let y = gb.linear("fc1", x, 128, false);
        let z = gb.linear("fc2", y, 64, false);
        gb.finish(vec![z])
    };
    vec![bert, attn, mlp]
}

/// One served model: its graph, plan, seeds and pre-generated inputs
/// with their interpreter-oracle outputs.
struct Model {
    graph: Graph,
    plan: Arc<ExecutablePlan>,
    seeds: Vec<u64>,
    inputs: Vec<InputSet>,
    named: Vec<Vec<(String, HostTensor)>>,
    /// `expected[seed][variant]`.
    expected: Vec<Vec<Vec<f32>>>,
    /// Per fused step: (GFLOP, MB) per launch.
    kernels: Vec<(f64, f64)>,
}

/// One request as issued and observed.
struct Record {
    model: usize,
    latency_s: f64,
    /// Completion time, seconds since the loop started.
    done_s: f64,
    split: Option<RequestSplit>,
}

/// Issue request `(model, seed, variant)`, check its output, and with
/// tracing on replay it step by step. Outcomes go to `tally`.
#[allow(clippy::too_many_arguments)]
fn issue(
    runtime: &ModelRuntime,
    models: &[Model],
    tracer: &Tracer,
    (m, s, v): (usize, usize, usize),
    memo: &mut WeightMemo,
    arena: &mut BufferArena,
    tally: &mut Tally,
    start: Instant,
) -> Record {
    let model = &models[m];
    let root = tracer.open("request", tracer.new_op(), None);
    let sp = tracer.open("core.runtime", 0, Some(&root));
    let out = runtime.infer(
        &model.graph.name,
        &model.inputs[v],
        RunOptions::seeded(model.seeds[s]),
    );
    let latency_s = tracer.close(sp, model.graph.name.clone());
    let done_s = start.elapsed().as_secs_f64();
    tally.record(match &out {
        Ok(o) => Outcome::bits(&model.expected[s][v], &o.primary().data),
        Err(_) => Outcome::Error,
    });
    let mut split = None;
    if tracer.enabled() {
        let sp = tracer.open("request.replay", 0, Some(&root));
        let r = replay_request(
            tracer,
            &sp,
            &model.graph,
            &model.plan,
            &model.named[v],
            model.seeds[s],
            memo,
            arena,
        );
        tracer.close(sp, model.graph.name.clone());
        tally.record(match (r, &out) {
            (Ok((sp, replayed)), Ok(o)) => {
                split = Some(sp);
                Outcome::bits(&o.primary().data, &replayed.data)
            }
            _ => Outcome::Error,
        });
    }
    tracer.close(root, model.graph.name.clone());
    Record {
        model: m,
        latency_s,
        done_s,
        split,
    }
}

/// Closed loop: CLIENTS threads issue back-to-back requests from their
/// schedules until `window` has passed. Returns the records, the loop's
/// wall seconds and the outcomes.
fn closed_loop(
    runtime: &ModelRuntime,
    models: &[Model],
    schedules: &[Vec<(usize, usize, usize)>],
    tracer: &Tracer,
    window: Duration,
    rss: &RssProbe,
) -> (Vec<Record>, f64, Tally) {
    let start = Instant::now();
    let all = Mutex::new((Vec::new(), Tally::default()));
    std::thread::scope(|scope| {
        for schedule in schedules {
            let all = &all;
            scope.spawn(move || {
                let mut memo = WeightMemo::default();
                let mut arena = BufferArena::new();
                let mut records = Vec::new();
                let mut tally = Tally::default();
                for &req in schedule.iter().cycle() {
                    if start.elapsed() >= window {
                        break;
                    }
                    records.push(issue(
                        runtime, models, tracer, req, &mut memo, &mut arena, &mut tally, start,
                    ));
                    rss.op_done();
                }
                let mut all = all.lock().expect("a client panicked");
                all.0.extend(records);
                all.1.merge(tally);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let (records, tally) = all.into_inner().expect("a client panicked");
    (records, wall, tally)
}

/// Build the serving state once: compile, plan and register the three
/// models on a fresh engine, then warm every (model, seed) weight set.
/// Returns the runtime and the compile pass.
fn setup(
    graphs: &[Graph],
    seeds: &[Vec<u64>],
    tracer: &Tracer,
    ctx: &RunCtx,
) -> (ModelRuntime, Pass) {
    let jobs: Vec<Job> = graphs.iter().cloned().map(Job::Graph).collect();
    let pass = compile_pass(&jobs, tracer, &ctx.rng("serve_mix/replay"));
    let runtime = ModelRuntime::new();
    for (g, plan) in graphs.iter().zip(&pass.plans) {
        if let Some(p) = plan {
            runtime.register(g.name.clone(), p.clone());
        }
    }
    for (g, s) in graphs.iter().zip(seeds) {
        let Some(plan) = runtime.plan(&g.name) else {
            continue;
        };
        let inputs = zero_inputs(&plan);
        for &seed in s {
            // Failures surface again, counted, in the measured loop.
            let _ = runtime.infer(&g.name, &inputs, RunOptions::seeded(seed));
        }
    }
    (runtime, pass)
}

fn zero_inputs(plan: &ExecutablePlan) -> InputSet {
    let mut set = InputSet::new();
    for b in plan.inputs() {
        set.insert(b.name.clone(), HostTensor::zeros(&b.shape));
    }
    set
}

/// Run the workload.
pub fn run(ctx: &RunCtx) -> Out {
    let graphs = graphs();
    let seeds: Vec<Vec<u64>> = graphs
        .iter()
        .map(|g| {
            let mut r = ctx.rng(&format!("serve_mix/seeds/{}", g.name));
            (0..SEEDS_PER_MODEL)
                .map(|_| r.next_u64() % 1_000_000)
                .collect()
        })
        .collect();
    let off = Tracer::new(false);
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let mut compile_s = Vec::new();
    let mut state: Option<(ModelRuntime, Pass)> = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (runtime, pass) = setup(&graphs, &seeds, &off, ctx);
        setup_s.push(t0.elapsed().as_secs_f64());
        compile_s.push(pass.seconds);
        for w in &pass.winners {
            tally.record(if w.is_ok() {
                Outcome::Ok
            } else {
                Outcome::Error
            });
        }
        if let Some((_, first)) = &state {
            tally.record(Outcome::check(pass.virtuals.same_bits(&first.virtuals)));
        }
        state = Some((runtime, pass));
    }
    let (runtime, pass) = state.expect("at least one set-up");
    let jobs: Vec<Job> = graphs.iter().cloned().map(Job::Graph).collect();
    while compile_s.len() < COMPILE_SAMPLES {
        compile_s.push(compile_pass(&jobs, &off, &ctx.rng("serve_mix/replay")).seconds);
    }

    // Inputs and the interpreter-pinned oracle, outside any timing.
    let oracle = ModelRuntime::new();
    let mut models = Vec::new();
    for (m, g) in graphs.iter().enumerate() {
        let Some(plan) = runtime.plan(&g.name) else {
            panic!("{} failed to compile; nothing to serve", g.name);
        };
        oracle.register(
            g.name.clone(),
            (*plan).clone().with_backend(ExecBackend::Interpreter),
        );
        let mut named = Vec::new();
        let mut inputs = Vec::new();
        for v in 0..INPUT_VARIANTS {
            let mut r = ctx.rng(&format!("serve_mix/inputs/{}/{v}", g.name));
            let tensors: Vec<(String, HostTensor)> = plan
                .inputs()
                .iter()
                .map(|b| {
                    let len = b.shape.iter().product::<u64>() as usize;
                    (
                        b.name.clone(),
                        HostTensor::from_vec(&b.shape, r.values(len)),
                    )
                })
                .collect();
            let mut set = InputSet::new();
            for (n, t) in &tensors {
                set.insert(n.clone(), t.clone());
            }
            inputs.push(set);
            named.push(tensors);
        }
        let expected = seeds[m]
            .iter()
            .map(|&seed| {
                inputs
                    .iter()
                    .map(|set| {
                        oracle
                            .infer(&g.name, set, RunOptions::seeded(seed))
                            .map(|o| o.primary().data.clone())
                            .unwrap_or_default()
                    })
                    .collect()
            })
            .collect();
        let kernels = plan
            .steps()
            .iter()
            .filter_map(|s| match s {
                Step::Fused { program, bytes, .. } => {
                    Some((measure(program, plan.device()).flops / 1e9, bytes / 1e6))
                }
                Step::Reference { .. } => None,
            })
            .collect();
        models.push(Model {
            graph: g.clone(),
            plan,
            seeds: seeds[m].clone(),
            inputs,
            named,
            expected,
            kernels,
        });
    }

    // Per-client schedules: round-robin models, seeded seed/variant.
    let schedules: Vec<Vec<(usize, usize, usize)>> = (0..CLIENTS)
        .map(|c| {
            let mut r = ctx.rng(&format!("serve_mix/schedule/{c}"));
            (0..4096)
                .map(|i| {
                    (
                        (c + i) % models.len(),
                        r.below(SEEDS_PER_MODEL),
                        r.below(INPUT_VARIANTS),
                    )
                })
                .collect()
        })
        .collect();

    let (untraced, traced) = ctx.windows();
    let rss = RssProbe::new(RSS_AT_OPS);
    let (records, wall, t) = closed_loop(&runtime, &models, &schedules, &off, untraced, &rss);
    tally.merge(t);
    let latencies: Vec<f64> = records.iter().map(|r| r.latency_s).collect();
    let stats = runtime.stats();
    let per_model_virtual: Vec<f64> = models
        .iter()
        .filter_map(|m| stats.plan(&m.graph.name).map(|p| p.p50_latency))
        .collect();
    let mut detail = serde_json::json!({
        "requests": records.len(),
        "per_model_p50_ms": per_model_ms(&models, &records),
        "engine": stats_json(&pass.stats),
        "runtime_failed": stats.failed,
    });

    if !ctx.trace {
        let samples: Vec<(f64, f64)> = records.iter().map(|r| (r.done_s, r.latency_s)).collect();
        let w = windowed(&samples, untraced.as_secs_f64(), WINDOWS);
        detail["op_tail"] = tails_json(&w.tails);
        detail["loop_wall_s"] = serde_json::json!(wall);
        detail["peak_rss"] = rss.json();
        let mut m = BTreeMap::new();
        m.insert("throughput", w.rate);
        m.insert("op_p50_ms", 1e3 * w.p50);
        m.insert("op_tail_ms", 1e3 * w.tail);
        m.insert("compile_s", median_or_zero(&compile_s));
        m.insert("setup_s", median_or_zero(&setup_s));
        m.insert("tune_virtual_s", pass.virtuals.tune_s);
        m.insert("kernel_virtual_us", pass.virtuals.kernel_us);
        m.insert("model_virtual_us", pass.virtuals.model_us);
        m.insert(
            "op_virtual_us",
            1e6 * per_model_virtual.iter().sum::<f64>() / per_model_virtual.len().max(1) as f64,
        );
        m.insert("peak_rss_mb", rss.mb());
        return Out {
            metrics: m,
            tally,
            detail,
            spans: Vec::new(),
        };
    }

    // Traced: the compile replay of one more set-up, then the traced
    // half of the loop with every request replayed step by step.
    let tracer = Tracer::new(true);
    let (_, traced_pass) = setup(&graphs, &seeds, &tracer, ctx);
    for r in &traced_pass.replay {
        tally.record(Outcome::check(r.is_ok()));
    }
    let compile_spans = tracer.take_spans();
    let mut layers = Layers::default();
    layers.set_compile(
        &compile_spans,
        &traced_pass.counters,
        1.0,
        &traced_pass.stats,
    );

    let before = runtime.stats();
    let (traced_records, _, t) = closed_loop(
        &runtime,
        &models,
        &schedules,
        &tracer,
        traced,
        &RssProbe::new(RSS_AT_OPS),
    );
    tally.merge(t);
    let after = runtime.stats();
    let mut spans = compile_spans;
    spans.extend(tracer.take_spans());

    let infer: Vec<f64> = traced_records.iter().map(|r| r.latency_s).collect();
    let splits: Vec<(&Record, &RequestSplit)> = traced_records
        .iter()
        .filter_map(|r| r.split.as_ref().map(|s| (r, s)))
        .collect();
    let n = splits.len().max(1) as f64;
    let kernel_s: f64 = splits.iter().map(|(_, s)| s.kernel_s).sum();
    let fused: u64 = splits.iter().map(|(_, s)| s.fused_steps).sum();
    let glue_s: f64 = splits.iter().map(|(_, s)| s.glue_s).sum();
    let weight_s: f64 = splits.iter().map(|(_, s)| s.weight_s).sum();
    let self_s: f64 = splits
        .iter()
        .map(|(r, s)| r.latency_s - s.kernel_s - s.glue_s - s.weight_s)
        .sum();
    let launches: Vec<(f64, f64)> = splits
        .iter()
        .flat_map(|(r, _)| models[r.model].kernels.iter().copied())
        .collect();
    layers.set(
        "infer.ms",
        1e3 * infer.iter().sum::<f64>() / infer.len().max(1) as f64,
    );
    layers.set("runtime.self_ms", 1e3 * self_s / n);
    let (wh, wm) = (after.weight_cache_hits, after.weight_cache_misses);
    layers.set("weights.hit_ratio", wh as f64 / (wh + wm).max(1) as f64);
    layers.set("kernel.ms", 1e3 * kernel_s / fused.max(1) as f64);
    layers.set(
        "kernel.gflop",
        launches.iter().map(|l| l.0).sum::<f64>() / launches.len().max(1) as f64,
    );
    layers.set(
        "kernel.mb",
        launches.iter().map(|l| l.1).sum::<f64>() / launches.len().max(1) as f64,
    );
    layers.set("reference.glue_ms", 1e3 * glue_s / n);
    layers.set("reference.weight_ms", 1e3 * weight_s / n);
    let launched = |w: usize| {
        let count = |s: &mcfuser_core::RuntimeStats| {
            s.batch_sizes
                .iter()
                .filter(|(x, _)| *x == w)
                .map(|(_, c)| *c)
                .sum::<u64>()
        };
        (count(&after) - count(&before)) as f64
    };
    layers.set("batch.width1", launched(1));
    layers.set("batch.width2", launched(2));
    layers.set("queue.rejected", (after.rejected - before.rejected) as f64);
    layers.set("queue.expired", (after.expired - before.expired) as f64);
    layers.set(
        "trace.overhead_ratio",
        median_or_zero(&infer) / median_or_zero(&latencies) - 1.0,
    );
    layers.set("trace.spans", spans.len() as f64);

    // How the replayed kernel + reference time compares with the
    // request's infer time. Reported, not counted as a failure: two runs
    // of the same kernel on a shared host differ by more than the
    // runtime's own share of a one-kernel request.
    let mut fits = serde_json::Map::new();
    for (i, m) in models.iter().enumerate() {
        let mine: Vec<&(&Record, &RequestSplit)> =
            splits.iter().filter(|(r, _)| r.model == i).collect();
        let infer_s: Vec<f64> = mine.iter().map(|(r, _)| r.latency_s).collect();
        let replay_s: Vec<f64> = mine
            .iter()
            .map(|(_, s)| s.kernel_s + s.glue_s + s.weight_s)
            .collect();
        let over = infer_s.iter().zip(&replay_s).filter(|(i, r)| r > i).count();
        fits.insert(
            m.graph.name.clone(),
            serde_json::json!({
                "infer_p50_ms": 1e3 * median_or_zero(&infer_s),
                "replay_p50_ms": 1e3 * median_or_zero(&replay_s),
                "requests": mine.len(),
                "requests_over": over,
            }),
        );
    }
    detail["replay_vs_infer"] = serde_json::Value::Object(fits);
    detail["traced_requests"] = serde_json::json!(traced_records.len());
    detail["compile_counters"] = counters_json(&traced_pass.counters);
    Out {
        metrics: layers.0,
        tally,
        detail,
        spans,
    }
}

fn per_model_ms(models: &[Model], records: &[Record]) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    for (i, model) in models.iter().enumerate() {
        let l: Vec<f64> = records
            .iter()
            .filter(|r| r.model == i)
            .map(|r| r.latency_s)
            .collect();
        m.insert(
            model.graph.name.clone(),
            serde_json::json!(1e3 * median(&l).unwrap_or(0.0)),
        );
    }
    serde_json::Value::Object(m)
}
