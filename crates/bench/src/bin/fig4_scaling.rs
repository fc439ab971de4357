//! Scaling: throughput of the parallel `ValidationEngine` over the pinned
//! synthetic suite as the worker count grows along a 1/2/4/N axis
//! (N = `available_parallelism`).
//!
//! The paper's pitch is that value-graph validation is cheap enough to run
//! on every function of every compile; per-function queries are
//! independent, so a validation *service* scales by fanning them out over
//! a worker pool. Each axis point streams the whole suite through
//! `ValidationEngine::validate_corpus` and records wall-clock, throughput
//! (functions validated per second), and speedup vs one worker. Every run
//! is also checked outcome-identical to the serial baseline — the
//! engine's determinism contract.
//!
//! Writes `BENCH_scaling.json` (the threads-axis perf-trajectory
//! artifact; see `ci/bench_baseline.sh`). Note the recorded speedup is
//! bounded by the machine: on a single-core container (the committed
//! baseline's `available_parallelism` field says what was available) the
//! curve is flat by physics, not by engine overhead.
//!
//! Flags: `--scale N` (default 4), `--workers a,b,c` (override the axis; a
//! measured `workers = 1` point is always added as the speedup anchor),
//! `--repeats R` (default 3; best-of-R wall-clock per axis point).

use lir_opt::paper_pipeline;
use llvm_md_bench::{bar, scale_from_args, usize_flag, write_artifact};
use llvm_md_core::{Json, Validator};
use llvm_md_driver::{default_workers, Report, ValidationEngine};
use llvm_md_workload::suite_batch;
use std::time::{Duration, Instant};

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// The worker axis: `--workers a,b,c`, or 1/2/4/N. Always sorted,
/// deduplicated, and containing 1 — the `speedup_vs_1` field anchors on the
/// measured one-worker point, so that point must exist even when a custom
/// axis omits it.
fn worker_axis() -> Vec<usize> {
    let mut axis = if let Some(list) = flag_value("--workers") {
        list.split(',').filter_map(|w| w.parse().ok()).filter(|&w| w >= 1).collect()
    } else {
        Vec::new()
    };
    if axis.is_empty() {
        axis = vec![1, 2, 4, default_workers()];
    }
    axis.push(1);
    axis.sort_unstable();
    axis.dedup();
    axis
}

fn main() {
    let scale = scale_from_args();
    let repeats = usize_flag("--repeats", 3);
    let axis = worker_axis();
    let modules = suite_batch(scale);
    let total_funcs: usize = modules.iter().map(|m| m.functions.len()).sum();
    let validator = Validator::new();
    let pm = paper_pipeline();

    println!(
        "Scaling: parallel validation engine over the pinned suite \
         (1/{scale} scale, {} modules, {total_funcs} functions, best of {repeats})",
        modules.len()
    );
    println!("available_parallelism = {}", default_workers());
    println!("{:>8} {:>12} {:>14} {:>9}  {:24}", "workers", "wall", "funcs/s", "speedup", "");
    println!("{}", "-".repeat(74));

    // The serial run is the determinism reference for every axis point.
    let baseline: Vec<(_, Report)> =
        ValidationEngine::serial().validate_corpus(&modules, &pm, &validator);
    let transformed: usize = baseline.iter().map(|(_, r)| r.transformed()).sum();
    let validated: usize = baseline.iter().map(|(_, r)| r.validated()).sum();

    let mut rows = Vec::new();
    let mut throughputs: Vec<(usize, f64)> = Vec::new();
    for &workers in &axis {
        let engine = ValidationEngine::with_workers(workers);
        let mut best = Duration::MAX;
        for _ in 0..repeats {
            let t0 = Instant::now();
            let out = engine.validate_corpus(&modules, &pm, &validator);
            let wall = t0.elapsed();
            best = best.min(wall);
            for ((_, report), (_, reference)) in out.iter().zip(&baseline) {
                assert_eq!(
                    report, reference,
                    "workers={workers}: report diverged from the serial baseline"
                );
            }
        }
        let throughput = total_funcs as f64 / best.as_secs_f64();
        // The axis always contains 1 and is sorted, so the anchor is the
        // already-measured one-worker throughput.
        let speedup =
            throughputs.iter().find(|&&(w, _)| w == 1).map_or(1.0, |&(_, t1)| throughput / t1);
        throughputs.push((workers, throughput));
        println!(
            "{:>8} {:>11.1?} {:>14.1} {:>8.2}x  [{}]",
            workers,
            best,
            throughput,
            speedup,
            bar(speedup / axis.len() as f64, 22)
        );
        rows.push(Json::obj([
            ("workers", Json::num(workers as f64)),
            ("wall_clock_s", Json::num(best.as_secs_f64())),
            ("functions_per_s", Json::num(throughput)),
            ("speedup_vs_1", Json::num(speedup)),
        ]));
    }
    println!("{}", "-".repeat(74));
    let at = |w: usize| throughputs.iter().find(|&&(ws, _)| ws == w).map(|&(_, t)| t);
    if let (Some(t1), Some(t4)) = (at(1), at(4)) {
        println!(
            "4-worker speedup: {:.2}x (hardware bound: {} core(s) available)",
            t4 / t1,
            default_workers()
        );
    }

    let artifact = Json::obj([
        ("exhibit", Json::str("fig4_scaling")),
        ("scale", Json::num(scale as f64)),
        ("modules", Json::num(modules.len() as f64)),
        ("functions", Json::num(total_funcs as f64)),
        ("transformed", Json::num(transformed as f64)),
        ("validated", Json::num(validated as f64)),
        ("available_parallelism", Json::num(default_workers() as f64)),
        ("repeats", Json::num(repeats as f64)),
        ("threads", Json::Arr(rows)),
    ]);
    let path = write_artifact("scaling", &artifact).expect("write BENCH_scaling.json");
    println!("wrote {}", path.display());
}
