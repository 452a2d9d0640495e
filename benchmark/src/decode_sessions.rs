//! `decode_sessions`: two `DecodeSession`s on GPT-mini sharing one
//! `DecodeServing` (buckets 16 and 64, batching at most 2 steps with a
//! 5 ms wait). Each session prefills 8 tokens and takes 56
//! teacher-forced steps, crossing the 16 → 64 bucket migration, and
//! reopens until the window closes. An operation is one decoded token.
//!
//! The two clients take one operation per tick and meet between ticks:
//! free-running sessions make the scheduler bistable under host noise
//! (see `METRICS.md`), and their figures did not repeat. Client 1 runs
//! 8 ticks behind, so its session boundaries and bucket migrations fall
//! between client 0's and those steps wait out the 5 ms window alone.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use mcfuser_core::{
    BatchPolicy, BatchedPlan, DecodeServing, DecodeSession, DecodeSpec, ExecutablePlan,
    FusionEngine, InputSet, ModelRuntime, RunOptions, RuntimeStats, Step, WeightStore,
};
use mcfuser_ir::{decode_mask, scatter_onehot, Graph};
use mcfuser_sim::{measure, BufferArena, HostTensor};
use mcfuser_workloads::{decoder_forward_graph, decoder_step_graph, DecoderConfig};

use crate::common::{
    compile_pass, counters_json, engine, median_or_zero, plan_kernel_seconds, tails_json, Job,
    Layers, Out, RunCtx, Virtuals, COMPILE_SAMPLES, WINDOWS,
};
use crate::replay::{replay_request, RequestSplit, WeightMemo};
use crate::stats::{windowed, Outcome, RssProbe, Tally};
use crate::trace::{layer_totals, Tracer};

const MODEL: &str = "gpt-mini";
/// Client threads, one session each: the two steps a launch can widen.
const CLIENTS: usize = 2;
const PROMPT: u64 = 8;
const STEPS: u64 = 56;
const BUCKETS: [u64; 2] = [16, 64];
/// Distinct teacher-forced token streams, generated before timing.
const STREAMS: usize = 4;
/// Ticks client 1 starts after client 0: 8 of every 57-tick session
/// (prefill + 56 steps) then run with the two sessions in different
/// buckets, where neither step has a partner to widen with.
const LANE_OFFSET: usize = 8;
/// The traced run replays every this-many-th step layer by layer.
const REPLAY_EVERY: u64 = 8;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 15;
/// Decoded tokens after which `peak_rss_mb` is read: about half the
/// window of a 15 s run on the host the benchmark is sized for.
const RSS_AT_OPS: u64 = 1600;

fn policy() -> BatchPolicy {
    BatchPolicy {
        max_batch: 2,
        max_wait: Duration::from_millis(5),
        queue_cap: 64,
    }
}

fn spec(cfg: &DecoderConfig) -> DecodeSpec {
    DecodeSpec {
        model: MODEL.into(),
        layers: cfg.layers,
        hidden: cfg.hidden,
        heads: cfg.heads,
        kv_heads: cfg.kv_heads,
        buckets: BUCKETS.to_vec(),
    }
}

fn serving(engine: &FusionEngine, cfg: &DecoderConfig, policy: BatchPolicy) -> Arc<DecodeServing> {
    let (c1, c2) = (*cfg, *cfg);
    DecodeServing::compile(
        engine,
        Arc::new(ModelRuntime::with_batch_policy(policy)),
        spec(cfg),
        move |t_b| decoder_step_graph(MODEL, &c1, t_b),
        move |t| decoder_forward_graph(MODEL, &c2, t),
    )
    .unwrap_or_else(|e| panic!("{MODEL} failed to compile: {e}"))
}

/// The graphs `DecodeServing::compile` compiles, in its order.
fn graphs(cfg: &DecoderConfig) -> Vec<Graph> {
    BUCKETS
        .iter()
        .flat_map(|&b| {
            [
                decoder_step_graph(MODEL, cfg, b),
                decoder_forward_graph(MODEL, cfg, b),
            ]
        })
        .collect()
}

/// One teacher-forced stream: the prompt and the step rows.
struct Stream {
    prompt: HostTensor,
    rows: Vec<HostTensor>,
    /// Width-1 oracle: prefill logits, then one logits row per step.
    expected_prefill: Vec<f32>,
    expected_steps: Vec<Vec<f32>>,
}

/// Per bucket: the step graph, plan, its widenable wrapper, a weight
/// store, and (GFLOP, MB) per fused launch.
struct StepPlan {
    name: String,
    graph: Graph,
    plan: Arc<ExecutablePlan>,
    batched: BatchedPlan,
    weights: WeightStore,
    kernels: Vec<(f64, f64)>,
}

struct StepRecord {
    latency_s: f64,
    /// Completion time, seconds since the loop started.
    done_s: f64,
    migrated: bool,
}

/// What one traced replay of a step measured.
#[derive(Default)]
struct StepReplay {
    infer_s: f64,
    w1_s: f64,
    w2_s: f64,
    split: RequestSplit,
    bucket: usize,
}

struct Shared<'a> {
    serving: &'a Arc<DecodeServing>,
    streams: &'a [Stream],
    steps: &'a [StepPlan],
    cfg: DecoderConfig,
    opts: RunOptions,
    tracer: &'a Tracer,
    rss: &'a RssProbe,
}

/// The inputs the session will submit for its next step, rebuilt from
/// its KV cache (the replay's copy of the request).
fn step_inputs(
    cfg: &DecoderConfig,
    session: &DecodeSession,
    row: &HostTensor,
) -> Vec<(String, HostTensor)> {
    let (t_b, pos) = (session.capacity(), session.pos());
    let mut v = vec![
        (
            "x".to_string(),
            HostTensor::from_vec(&[1, cfg.hidden], row.data.clone()),
        ),
        ("mask".to_string(), decode_mask(cfg.heads, t_b, pos)),
        ("onehot".to_string(), scatter_onehot(cfg.kv_heads, t_b, pos)),
    ];
    let shape = [cfg.kv_heads, t_b, cfg.head_dim()];
    for l in 0..cfg.layers as usize {
        let (k, vv) = session.kv_cache(l);
        v.push((
            format!("l{l}.k_cache"),
            HostTensor::from_vec(&shape, k.to_vec()),
        ));
        v.push((
            format!("l{l}.v_cache"),
            HostTensor::from_vec(&shape, vv.to_vec()),
        ));
    }
    v
}

/// Replay one step's request — `named` as the session built it, at
/// bucket index `bucket` — through `infer`, `execute_batch` at widths 1
/// and 2, and the step-by-step replay. Returns the timings and every
/// replayed output, which the caller compares with the session's own.
fn replay_step(
    sh: &Shared,
    parent: &crate::trace::Open,
    bucket: usize,
    named: &[(String, HostTensor)],
    memo: &mut WeightMemo,
    arena: &mut BufferArena,
) -> Result<(StepReplay, Vec<Vec<f32>>), String> {
    let t = sh.tracer;
    let sp_plan = &sh.steps[bucket];
    let mut inputs = InputSet::new();
    for (n, v) in named {
        inputs.insert(n.clone(), v.clone());
    }
    let mut r = StepReplay {
        bucket,
        ..StepReplay::default()
    };
    let mut outs = Vec::new();

    let sp = t.open("core.runtime", 0, Some(parent));
    let o = sh.serving.runtime().infer(&sp_plan.name, &inputs, sh.opts);
    r.infer_s = t.close(sp, format!("step{}", BUCKETS[bucket]));
    outs.push(o.map_err(|e| e.to_string())?.primary().data.clone());

    let sp = t.open("core.batch", 0, Some(parent));
    let o = sp_plan
        .batched
        .execute_batch(&[&inputs], sh.opts, arena, Some(&sp_plan.weights));
    r.w1_s = t.close(sp, "width 1");
    outs.push(o.map_err(|e| e.to_string())?[0].primary().data.clone());

    let sp = t.open("core.batch", 0, Some(parent));
    let o =
        sp_plan
            .batched
            .execute_batch(&[&inputs, &inputs], sh.opts, arena, Some(&sp_plan.weights));
    r.w2_s = t.close(sp, "width 2");
    for lane in o.map_err(|e| e.to_string())? {
        outs.push(lane.primary().data.clone());
    }

    let sp = t.open("request.replay", 0, Some(parent));
    let rr = replay_request(
        t,
        &sp,
        &sp_plan.graph,
        &sp_plan.plan,
        named,
        sh.opts.seed,
        memo,
        arena,
    );
    t.close(sp, format!("step{}", BUCKETS[bucket]));
    let (split, out) = rr?;
    r.split = split;
    outs.push(out.data);
    Ok((r, outs))
}

struct ClientLog {
    steps: Vec<StepRecord>,
    prefills: Vec<f64>,
    replays: Vec<StepReplay>,
    tally: Tally,
}

/// One client's place in its current session.
struct Lane {
    session: DecodeSession,
    stream: usize,
    /// Steps taken so far.
    step: usize,
    root: crate::trace::Open,
}

/// Client `c` of the lockstep loop. Every tick both clients meet at
/// `tick`, then each takes one operation: a prefill when it has no
/// session, else the session's next step. Client 1 starts `LANE_OFFSET`
/// ticks late, so its session boundaries and bucket migrations fall
/// between client 0's.
fn client(
    sh: &Shared,
    c: usize,
    start: Instant,
    window: Duration,
    tick: &(Barrier, AtomicBool),
) -> ClientLog {
    let t = sh.tracer;
    let mut log = ClientLog {
        steps: Vec::new(),
        prefills: Vec::new(),
        replays: Vec::new(),
        tally: Tally::default(),
    };
    let mut memo = WeightMemo::default();
    let mut arena = BufferArena::new();
    let mut next_stream = c;
    let mut idle = c * LANE_OFFSET;
    let mut lane: Option<Lane> = None;
    loop {
        // One client decides, for both, whether another tick fits.
        if tick.0.wait().is_leader() {
            tick.1.store(start.elapsed() < window, Ordering::SeqCst);
        }
        tick.0.wait();
        if !tick.1.load(Ordering::SeqCst) {
            break;
        }
        if idle > 0 {
            idle -= 1;
            continue;
        }
        let Some(l) = lane.as_mut() else {
            let stream = next_stream % sh.streams.len();
            next_stream += CLIENTS;
            let root = t.open("session", t.new_op(), None);
            let mut session = sh.serving.open(sh.opts);
            let sp = t.open("core.session", 0, Some(&root));
            let out = session.prefill(&sh.streams[stream].prompt);
            log.prefills.push(t.close(sp, "prefill"));
            log.tally.record(match &out {
                Ok(o) => Outcome::bits(&sh.streams[stream].expected_prefill, &o.data),
                Err(_) => Outcome::Error,
            });
            match out {
                Ok(_) => {
                    lane = Some(Lane {
                        session,
                        stream,
                        step: 0,
                        root,
                    })
                }
                Err(_) => {
                    t.close(root, "session");
                }
            }
            continue;
        };
        let stream = &sh.streams[l.stream];
        let row = &stream.rows[l.step];
        let cap = l.session.capacity();
        let bucket = BUCKETS.iter().position(|&b| b == cap);
        // The replay rebuilds this step's request before the step and
        // runs it after, outside the step's timing.
        let replayed =
            (t.enabled() && (l.step as u64).is_multiple_of(REPLAY_EVERY) && l.session.pos() < cap)
                .then(|| step_inputs(&sh.cfg, &l.session, row));
        let sp = t.open("core.session", 0, Some(&l.root));
        let out = l.session.step(row);
        let migrated = l.session.capacity() != cap;
        let latency_s = t.close(sp, if migrated { "migrate" } else { "step" });
        log.steps.push(StepRecord {
            latency_s,
            done_s: start.elapsed().as_secs_f64(),
            migrated,
        });
        sh.rss.op_done();
        let served = match &out {
            Ok(o) => {
                log.tally
                    .record(Outcome::bits(&stream.expected_steps[l.step], &o.data));
                Some(&o.data)
            }
            Err(_) => {
                log.tally.record(Outcome::Error);
                None
            }
        };
        if let Some(named) = replayed {
            let r = bucket
                .ok_or_else(|| "session has no bucket".to_string())
                .and_then(|b| replay_step(sh, &l.root, b, &named, &mut memo, &mut arena));
            match (r, served) {
                (Ok((r, outs)), Some(served)) => {
                    for o in &outs {
                        log.tally.record(Outcome::bits(served, o));
                    }
                    log.replays.push(r);
                }
                _ => log.tally.record(Outcome::Error),
            }
        }
        l.step += 1;
        if out.is_err() || l.step == stream.rows.len() {
            let done = lane.take().expect("lane is active");
            t.close(done.root, "session");
        }
    }
    if let Some(l) = lane {
        t.close(l.root, "session");
    }
    log
}

fn closed_loop(sh: &Shared, window: Duration) -> (Vec<ClientLog>, f64) {
    let start = Instant::now();
    let logs = Mutex::new(Vec::new());
    let tick = (Barrier::new(CLIENTS), AtomicBool::new(true));
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (logs, tick) = (&logs, &tick);
            scope.spawn(move || {
                let log = client(sh, c, start, window, tick);
                logs.lock().expect("a client panicked").push(log);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (logs.into_inner().expect("a client panicked"), wall)
}

fn make_streams(
    ctx: &RunCtx,
    cfg: &DecoderConfig,
    oracle: &Arc<DecodeServing>,
    opts: RunOptions,
) -> Vec<Stream> {
    let h = cfg.hidden as usize;
    (0..STREAMS)
        .map(|k| {
            let x = ctx
                .rng(&format!("decode_sessions/stream/{k}"))
                .values((PROMPT + STEPS) as usize * h);
            let prompt =
                HostTensor::from_vec(&[PROMPT, cfg.hidden], x[..PROMPT as usize * h].to_vec());
            let rows: Vec<HostTensor> = (PROMPT as usize..(PROMPT + STEPS) as usize)
                .map(|p| HostTensor::from_vec(&[1, cfg.hidden], x[p * h..(p + 1) * h].to_vec()))
                .collect();
            // The width-1 oracle: the same stream alone on a serving
            // instance that never widens.
            let mut s = oracle.open(opts);
            let expected_prefill = s.prefill(&prompt).map(|o| o.data).unwrap_or_default();
            let expected_steps = rows
                .iter()
                .map(|r| s.step(r).map(|o| o.data).unwrap_or_default())
                .collect();
            Stream {
                prompt,
                rows,
                expected_prefill,
                expected_steps,
            }
        })
        .collect()
}

fn launches(before: &RuntimeStats, after: &RuntimeStats, w: usize) -> f64 {
    let count = |s: &RuntimeStats| -> u64 {
        s.batch_sizes
            .iter()
            .filter(|(x, _)| *x == w)
            .map(|(_, c)| *c)
            .sum()
    };
    (count(after) - count(before)) as f64
}

/// Virtual device time per decoded token over the step plans between
/// two stats snapshots, seconds.
fn token_virtual_s(before: &RuntimeStats, after: &RuntimeStats) -> f64 {
    let sums = |s: &RuntimeStats| {
        s.plans
            .iter()
            .filter(|p| p.model.contains("@step"))
            .fold((0.0, 0u64), |(busy, n), p| {
                (busy + p.virtual_busy, n + p.requests)
            })
    };
    let ((b0, n0), (b1, n1)) = (sums(before), sums(after));
    (b1 - b0) / (n1 - n0).max(1) as f64
}

/// Run the workload.
pub fn run(ctx: &RunCtx) -> Out {
    let cfg = DecoderConfig::gpt_mini();
    let opts = RunOptions::seeded(ctx.rng("decode_sessions/opts").next_u64() % 1_000_000);
    let mut tally = Tally::default();

    // Set-up: compile and register the per-bucket plans on a fresh
    // engine, then warm one session through prefill and one step.
    let warm_rows = ctx
        .rng("decode_sessions/warm")
        .values(((PROMPT + 1) * cfg.hidden) as usize);
    let warm_prompt = HostTensor::from_vec(
        &[PROMPT, cfg.hidden],
        warm_rows[..(PROMPT * cfg.hidden) as usize].to_vec(),
    );
    let warm_step = HostTensor::from_vec(
        &[1, cfg.hidden],
        warm_rows[(PROMPT * cfg.hidden) as usize..].to_vec(),
    );
    let mut setup_s = Vec::new();
    let mut compile_s = Vec::new();
    let mut state: Option<(FusionEngine, Arc<DecodeServing>, Virtuals)> = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let engine = engine();
        let serving = serving(&engine, &cfg, policy());
        compile_s.push(t0.elapsed().as_secs_f64());
        let mut s = serving.open(opts);
        let warm = s.prefill(&warm_prompt).and_then(|_| s.step(&warm_step));
        tally.record(if warm.is_ok() {
            Outcome::Ok
        } else {
            Outcome::Error
        });
        drop(s);
        setup_s.push(t0.elapsed().as_secs_f64());
        let mut v = Virtuals {
            tune_s: engine.session_report().virtual_seconds,
            kernel_us: 0.0,
            model_us: 0.0,
        };
        for &b in &BUCKETS {
            for name in [format!("{MODEL}@step{b}"), format!("{MODEL}@prefill{b}")] {
                let plan = serving
                    .runtime()
                    .plan(&name)
                    .expect("registered by compile");
                v.kernel_us += 1e6 * plan_kernel_seconds(&plan);
                v.model_us += 1e6 * plan.virtual_time_per_request();
            }
        }
        if let Some((_, _, first)) = &state {
            tally.record(Outcome::check(v.same_bits(first)));
        }
        state = Some((engine, serving, v));
    }
    let (engine, serving, virtuals) = state.expect("at least one set-up");
    while compile_s.len() < COMPILE_SAMPLES {
        let t0 = Instant::now();
        drop(self::serving(&self::engine(), &cfg, policy()));
        compile_s.push(t0.elapsed().as_secs_f64());
    }

    // Oracle streams on a width-1 instance (all cache hits on `engine`).
    let oracle = self::serving(
        &engine,
        &cfg,
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_cap: 64,
        },
    );
    let streams = make_streams(ctx, &cfg, &oracle, opts);
    let steps: Vec<StepPlan> = BUCKETS
        .iter()
        .map(|&b| {
            let name = format!("{MODEL}@step{b}");
            let plan = serving.runtime().plan(&name).expect("registered");
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
            StepPlan {
                name,
                graph: decoder_step_graph(MODEL, &cfg, b),
                batched: BatchedPlan::new(plan.clone()),
                plan,
                weights: WeightStore::default(),
                kernels,
            }
        })
        .collect();

    let (untraced, traced) = ctx.windows();
    let off = Tracer::new(false);
    let rss = RssProbe::new(RSS_AT_OPS);
    let sh = Shared {
        serving: &serving,
        streams: &streams,
        steps: &steps,
        cfg,
        opts,
        tracer: &off,
        rss: &rss,
    };
    let before = serving.runtime().stats();
    let (logs, wall) = closed_loop(&sh, untraced);
    let after = serving.runtime().stats();
    let step_s: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.steps.iter().map(|s| s.latency_s))
        .collect();
    for l in &logs {
        tally.merge(l.tally);
    }
    let widened: f64 = (2..=policy().max_batch)
        .map(|w| launches(&before, &after, w))
        .sum();
    let all_launches = widened + launches(&before, &after, 1);
    let mut detail = serde_json::json!({
        "tokens": step_s.len(),
        "sessions": logs.iter().map(|l| l.prefills.len()).sum::<usize>(),
        "launches": all_launches,
        "widened_launches": widened,
        "queue_rejected": after.rejected,
        "queue_expired": after.expired,
    });

    if !ctx.trace {
        let samples: Vec<(f64, f64)> = logs
            .iter()
            .flat_map(|l| l.steps.iter().map(|s| (s.done_s, s.latency_s)))
            .collect();
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
        m.insert("tune_virtual_s", virtuals.tune_s);
        m.insert("kernel_virtual_us", virtuals.kernel_us);
        m.insert("model_virtual_us", virtuals.model_us);
        m.insert("op_virtual_us", 1e6 * token_virtual_s(&before, &after));
        m.insert("peak_rss_mb", rss.mb());
        return Out {
            metrics: m,
            tally,
            detail,
            spans: Vec::new(),
        };
    }

    // Traced: the compile replay over the same graphs on a fresh
    // engine, then the traced half of the loop.
    let tracer = Tracer::new(true);
    let jobs: Vec<Job> = graphs(&cfg).into_iter().map(Job::Graph).collect();
    let pass = compile_pass(&jobs, &tracer, &ctx.rng("decode_sessions/replay"));
    for r in &pass.replay {
        tally.record(Outcome::check(r.is_ok()));
    }
    let compile_spans = tracer.take_spans();
    let mut layers = Layers::default();
    layers.set_compile(&compile_spans, &pass.counters, 1.0, &pass.stats);

    let sh = Shared {
        tracer: &tracer,
        ..sh
    };
    let before = serving.runtime().stats();
    let (tlogs, _) = closed_loop(&sh, traced);
    let after = serving.runtime().stats();
    for l in &tlogs {
        tally.merge(l.tally);
    }
    let loop_spans = tracer.take_spans();
    let totals = layer_totals(&loop_spans);

    let steps_rec: Vec<&StepRecord> = tlogs.iter().flat_map(|l| &l.steps).collect();
    let plain: Vec<f64> = steps_rec
        .iter()
        .filter(|s| !s.migrated)
        .map(|s| s.latency_s)
        .collect();
    let migr: Vec<f64> = steps_rec
        .iter()
        .filter(|s| s.migrated)
        .map(|s| s.latency_s)
        .collect();
    let prefills: Vec<f64> = tlogs
        .iter()
        .flat_map(|l| l.prefills.iter().copied())
        .collect();
    let replays: Vec<&StepReplay> = tlogs.iter().flat_map(|l| &l.replays).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let r_mean =
        |f: &dyn Fn(&StepReplay) -> f64| mean(&replays.iter().map(|r| f(r)).collect::<Vec<_>>());
    let w1 = r_mean(&|r| r.w1_s);
    let w2 = r_mean(&|r| r.w2_s);
    let (l1, l2) = (launches(&before, &after, 1), launches(&before, &after, 2));
    // Step launches: prefills run alone, so they are width-1 launches.
    let l1_steps = (l1 - prefills.len() as f64).max(0.0);
    let (req1, req2) = (l1_steps, 2.0 * l2);
    let matched = if req1 + req2 > 0.0 {
        (req1 * w1 + req2 * w2) / (req1 + req2)
    } else {
        0.0
    };
    layers.set("session.prefill_ms", 1e3 * mean(&prefills));
    layers.set("session.step_ms", 1e3 * mean(&plain));
    layers.set("session.migrate_ms", 1e3 * mean(&migr));
    layers.set("batch.w1_ms", 1e3 * w1);
    layers.set("batch.w2_ms", 1e3 * w2);
    layers.set("batch.widened_ratio", l2 / (l1_steps + l2).max(1.0));
    layers.set("batch.width1", l1_steps);
    layers.set("batch.width2", l2);
    layers.set("queue.wait_ms", 1e3 * (mean(&plain) - matched));
    layers.set("queue.rejected", (after.rejected - before.rejected) as f64);
    layers.set("queue.expired", (after.expired - before.expired) as f64);
    layers.set("infer.ms", 1e3 * r_mean(&|r| r.infer_s));
    layers.set(
        "runtime.self_ms",
        1e3 * r_mean(&|r| r.infer_s - r.split.kernel_s - r.split.glue_s - r.split.weight_s),
    );
    let (wh, wm) = (after.weight_cache_hits, after.weight_cache_misses);
    layers.set("weights.hit_ratio", wh as f64 / (wh + wm).max(1) as f64);
    let fused: u64 = replays.iter().map(|r| r.split.fused_steps).sum();
    let kernel_ms = totals.get("sim.exec_vec").map_or(0.0, |t| t.total_ms);
    layers.set("kernel.ms", kernel_ms / fused.max(1) as f64);
    let launches_k: Vec<(f64, f64)> = replays
        .iter()
        .flat_map(|r| steps[r.bucket].kernels.iter().copied())
        .collect();
    let n_k = launches_k.len().max(1) as f64;
    layers.set(
        "kernel.gflop",
        launches_k.iter().map(|l| l.0).sum::<f64>() / n_k,
    );
    layers.set(
        "kernel.mb",
        launches_k.iter().map(|l| l.1).sum::<f64>() / n_k,
    );
    layers.set("reference.glue_ms", 1e3 * r_mean(&|r| r.split.glue_s));
    layers.set("reference.weight_ms", 1e3 * r_mean(&|r| r.split.weight_s));
    let traced_steps: Vec<f64> = steps_rec.iter().map(|s| s.latency_s).collect();
    layers.set(
        "trace.overhead_ratio",
        median_or_zero(&traced_steps) / median_or_zero(&step_s) - 1.0,
    );
    let mut spans = compile_spans;
    spans.extend(loop_spans);
    layers.set("trace.spans", spans.len() as f64);

    // How the replayed kernel + reference time compares with `infer` of
    // the same step (reported, as in `serve_mix`).
    let infer_s: Vec<f64> = replays.iter().map(|r| r.infer_s).collect();
    let replay_s: Vec<f64> = replays
        .iter()
        .map(|r| r.split.kernel_s + r.split.glue_s + r.split.weight_s)
        .collect();
    detail["replay_vs_infer"] = serde_json::json!({
        "infer_p50_ms": 1e3 * median_or_zero(&infer_s),
        "replay_p50_ms": 1e3 * median_or_zero(&replay_s),
        "replays": replays.len(),
        "replays_over": infer_s.iter().zip(&replay_s).filter(|(i, r)| r > i).count(),
    });
    detail["traced_tokens"] = serde_json::json!(steps_rec.len());
    detail["compile_counters"] = counters_json(&pass.counters);
    Out {
        metrics: layers.0,
        tally,
        detail,
        spans,
    }
}
