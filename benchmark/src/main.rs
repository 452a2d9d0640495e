//! The repository's benchmark: one command, three workloads, both
//! clocks.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the workload with tracing off and
//! reports the end-to-end metrics; with `--trace 1` it measures half
//! the window untraced (the overhead baseline) and half traced, and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! A fuller report — build configuration, workload detail and, for a
//! traced run, the span table with per-layer totals — is written to
//! `.bench_out/` under the working directory.
//!
//! Workloads, metrics and which layer moves which metric are described
//! in `benchmark/METRICS.md`.

mod common;
mod compile_suite;
mod decode_sessions;
mod replay;
mod serve_mix;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use common::{Out, RunCtx, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 3] = ["compile_suite", "serve_mix", "decode_sessions"];

/// Parsed command line.
struct Args {
    workload: String,
    ctx: RunCtx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        ctx: RunCtx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    })
}

/// The build and host the numbers were measured on.
fn build_config(args: &Args, nproc: usize, pinned_cpu: Option<usize>) -> serde_json::Value {
    serde_json::json!({
        "opt_level": env!("BENCH_OPT_LEVEL"),
        "profile": env!("BENCH_PROFILE"),
        "rustc": env!("BENCH_RUSTC_VERSION"),
        "exec_backend": mcfuser_sim::ExecBackend::default().to_string(),
        "nproc": nproc,
        "workload": args.workload.clone(),
        "seed": args.ctx.seed,
        "seconds": args.ctx.seconds,
        "trace": args.ctx.trace,
        "pinned_cpu": pinned_cpu.map_or(serde_json::Value::Null, |c| serde_json::json!(c)),
    })
}

fn run(args: &Args) -> Out {
    match args.workload.as_str() {
        "compile_suite" => compile_suite::run(&args.ctx),
        "serve_mix" => serve_mix::run(&args.ctx),
        "decode_sessions" => decode_sessions::run(&args.ctx),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The result line's `metrics` object, in the declared metric order.
fn metrics_json(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    for &(name, unit) in table {
        let v = *values
            .get(name)
            .unwrap_or_else(|| panic!("workload did not report {name}"));
        m.insert(
            name.to_string(),
            serde_json::json!({"value": v, "unit": unit}),
        );
    }
    serde_json::Value::Object(m)
}

fn write_report(args: &Args, report: &serde_json::Value) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.ctx.seed,
        u8::from(args.ctx.trace)
    ));
    let text = serde_json::to_string(report).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(&path, text)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // A miscompiling optimized build must not produce numbers.
    mcfuser_sim::assert_codegen_ok();
    // Every workload runs on one CPU. On the two-vCPU host the benchmark
    // is sized for, the share of the second vCPU the host grants comes
    // and goes over minutes: a two-thread Rule-4 scan of `mlp3-1536`
    // took 350 or 700 ms depending on when it ran, and two threads at
    // once ran 1–2× slower than one. Pinned, the scan runs on one thread
    // (`available_parallelism` reads the mask) in the 350 ms.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned_cpu = common::pin_to_one_cpu();
    let config = build_config(&args, nproc, pinned_cpu);
    let out = run(&args);

    let table = if args.ctx.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    let metrics = metrics_json(table, &out.metrics);
    let correct = out.tally.failed() == 0;
    let mut report = serde_json::json!({
        "config": config,
        "correct": correct,
        "attempted": out.tally.attempted,
        "errors": out.tally.errors,
        "mismatches": out.tally.mismatches,
        "error_rate": out.tally.error_rate(),
        "metrics": metrics.clone(),
        "detail": out.detail,
    });
    if args.ctx.trace {
        let mut layers = serde_json::Map::new();
        for (layer, t) in trace::layer_totals(&out.spans) {
            layers.insert(
                layer.to_string(),
                serde_json::json!({"spans": t.spans, "total_ms": t.total_ms, "self_ms": t.self_ms}),
            );
        }
        report["layers"] = serde_json::Value::Object(layers);
        report["spans"] = trace::spans_json(&out.spans);
    }
    match write_report(&args, &report) {
        Ok(path) => eprintln!("report: {}", path.display()),
        Err(e) => eprintln!("warning: report not written: {e}"),
    }

    println!(
        "config {}",
        serde_json::to_string(&config).expect("serializable")
    );
    for &(name, unit) in table {
        println!("{name:>24} {:>16.6} {unit}", out.metrics[name]);
    }
    println!(
        "error_rate {:.6} ({} failed of {})",
        out.tally.error_rate(),
        out.tally.failed(),
        out.tally.attempted
    );
    let result = serde_json::json!({
        "correct": correct,
        "attempted": out.tally.attempted,
        "failed": out.tally.failed(),
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&result).expect("serializable"));
    ExitCode::SUCCESS
}
