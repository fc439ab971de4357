//! Figure 4: validation results for the full optimization pipeline
//! (ADCE → GVN → SCCP → LICM → loop deletion → loop unswitching → DSE),
//! plus the §5.1 wall-clock numbers.
//!
//! For each benchmark: how many functions the optimizer transformed, how
//! many of those the validator accepted with the paper's default rule set,
//! and the optimizer/validator times. The paper reports ~80% overall, with
//! SQLite (the benchmark used to engineer the rules) close to 90% and the
//! float-heavy benchmarks lower (float folding is a known false-alarm
//! source, §5.3/§7).
//!
//! Writes `BENCH_fig4.json` (per-benchmark rows plus the overall validated
//! fraction and wall-clock) — the perf-trajectory baseline artifact; see
//! `ci/bench_baseline.sh`.

use lir_opt::paper_pipeline;
use llvm_md_bench::{bar, pct, scale_from_args, suite, write_artifact};
use llvm_md_core::{Json, Validator};
use llvm_md_driver::ValidationEngine;
use std::time::{Duration, Instant};

fn main() {
    let scale = scale_from_args();
    // Worker count: LLVM_MD_WORKERS, else available_parallelism.
    let engine = ValidationEngine::new();
    println!("Figure 4: validation results for the optimization pipeline (1/{scale} scale)");
    println!(
        "{:12} {:>6} {:>12} {:>10}  {:24} {:>10} {:>10}",
        "benchmark", "funcs", "transformed", "validated", "", "opt time", "val time"
    );
    println!("{}", "-".repeat(92));
    let validator = Validator::new();
    let wall_start = Instant::now();
    let mut tot_t = 0usize;
    let mut tot_v = 0usize;
    let mut tot_opt = Duration::ZERO;
    let mut tot_val = Duration::ZERO;
    let mut rows = Vec::new();
    for (p, m) in suite(scale) {
        let (_, report) = engine.llvm_md(&m, &paper_pipeline(), &validator);
        let (t, v) = (report.transformed(), report.validated());
        tot_t += t;
        tot_v += v;
        tot_opt += report.opt_time;
        tot_val += report.validate_time;
        println!(
            "{:12} {:>6} {:>12} {:>9.1}%  [{}] {:>9.1?} {:>9.1?}",
            p.name,
            report.records.len(),
            t,
            pct(v, t),
            bar(pct(v, t) / 100.0, 22),
            report.opt_time,
            report.validate_time
        );
        rows.push(Json::obj([
            ("benchmark", Json::str(p.name)),
            ("functions", Json::num(report.records.len() as f64)),
            ("transformed", Json::num(t as f64)),
            ("validated", Json::num(v as f64)),
            ("validated_pct", Json::num(pct(v, t))),
            ("opt_time_s", Json::num(report.opt_time.as_secs_f64())),
            ("validate_time_s", Json::num(report.validate_time.as_secs_f64())),
        ]));
    }
    println!("{}", "-".repeat(92));
    println!(
        "{:12} {:>6} {:>12} {:>9.1}%   (paper: 80% of per-function optimizations overall)",
        "overall",
        "",
        tot_t,
        pct(tot_v, tot_t)
    );
    let artifact = Json::obj([
        ("exhibit", Json::str("fig4_pipeline")),
        ("scale", Json::num(scale as f64)),
        ("transformed", Json::num(tot_t as f64)),
        ("validated", Json::num(tot_v as f64)),
        (
            "validated_fraction",
            Json::num(if tot_t == 0 { 1.0 } else { tot_v as f64 / tot_t as f64 }),
        ),
        ("opt_time_s", Json::num(tot_opt.as_secs_f64())),
        ("validate_time_s", Json::num(tot_val.as_secs_f64())),
        ("wall_clock_s", Json::num(wall_start.elapsed().as_secs_f64())),
        ("benchmarks", Json::Arr(rows)),
    ]);
    let path = write_artifact("fig4", &artifact).expect("write BENCH_fig4.json");
    println!("wrote {}", path.display());
}
