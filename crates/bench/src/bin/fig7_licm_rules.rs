//! Figure 7: the effect of rewrite rules on LICM validation.
//!
//! LICM is run alone and validated under: (1) no rules, (2) all default
//! rules, (3) all rules + libc knowledge. The paper's shape: the no-rule
//! baseline is already 75–80% (the gating construction does not η-wrap
//! loop-invariant values, so hoisting is invisible); all rules improve only
//! slightly; the residual false alarms are `strlen`-style libc hoists,
//! which disappear once libc knowledge is enabled (§5.3).
//!
//! Writes `BENCH_fig7.json` with the per-configuration totals.

use llvm_md_bench::{pct, scale_from_args, suite, write_artifact};
use llvm_md_core::{Json, RuleSet, Validator};
use llvm_md_driver::ValidationEngine;

fn main() {
    let scale = scale_from_args();
    // Worker count: LLVM_MD_WORKERS, else available_parallelism.
    let engine = ValidationEngine::new();
    println!("Figure 7: LICM validation % by rule configuration (1/{scale} scale)");
    println!("{:12} {:>6} | {:>8} {:>8} {:>8}", "benchmark", "xform", "none", "all", "all+libc");
    println!("{}", "-".repeat(52));
    let configs = [
        ("none", RuleSet::none()),
        ("all", RuleSet::all()),
        ("all+libc", RuleSet { libc: true, ..RuleSet::all() }),
    ];
    let mut totals = vec![(0usize, 0usize); configs.len()];
    for (p, m) in suite(scale) {
        let mut row = format!("{:12}", p.name);
        for (i, (_, rules)) in configs.iter().enumerate() {
            let v = Validator { rules: *rules, ..Validator::new() };
            let report = engine.run_single_pass(&m, "licm", &v).unwrap_or_else(|e| {
                eprintln!("fig7_licm_rules: {e}");
                std::process::exit(2);
            });
            totals[i].0 += report.transformed();
            totals[i].1 += report.validated();
            if i == 0 {
                row += &format!(" {:>6} |", report.transformed());
            }
            row += &format!(" {:>7.1}%", pct(report.validated(), report.transformed()));
        }
        println!("{row}");
    }
    println!("{}", "-".repeat(52));
    print!("{:12} {:>6} |", "overall", totals[0].0);
    for (t, v) in &totals {
        print!(" {:>7.1}%", pct(*v, *t));
    }
    println!("\n\npaper shape: 75-80% baseline with no rules; small gain from general rules;");
    println!("libc knowledge removes the residual strlen-hoist false alarms");
    let artifact = Json::obj([
        ("exhibit", Json::str("fig7_licm_rules")),
        ("scale", Json::num(scale as f64)),
        (
            "configs",
            Json::arr(configs.iter().zip(&totals).map(|((name, _), (t, v))| {
                Json::obj([
                    ("rules", Json::str(*name)),
                    ("transformed", Json::num(*t as f64)),
                    ("validated", Json::num(*v as f64)),
                    ("validated_pct", Json::num(pct(*v, *t))),
                ])
            })),
        ),
    ]);
    let path = write_artifact("fig7", &artifact).expect("write BENCH_fig7.json");
    println!("wrote {}", path.display());
}
