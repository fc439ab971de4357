//! Figure 8: the effect of rewrite rules on SCCP validation.
//!
//! SCCP is run alone and validated under the paper's four configurations:
//! (1) no rules, (2) +constant folding, (3) +φ simplification, (4) all
//! rules. The paper's shape: very poor with no rules, an immediate jump
//! from constant folding, a further benchmark-dependent jump from φ rules.
//!
//! Writes `BENCH_fig8.json` with the per-step totals.

use llvm_md_bench::{pct, scale_from_args, suite, write_artifact};
use llvm_md_core::{Json, RuleSet, Validator};
use llvm_md_driver::ValidationEngine;

const STEPS: [&str; 4] = ["none", "+cfold", "+phi", "all"];

fn main() {
    let scale = scale_from_args();
    // Worker count: LLVM_MD_WORKERS, else available_parallelism.
    let engine = ValidationEngine::new();
    println!("Figure 8: SCCP validation % by rule configuration (1/{scale} scale)");
    println!(
        "{:12} {:>6} | {:>8} {:>8} {:>8} {:>8}",
        "benchmark", "xform", "none", "+cfold", "+phi", "all"
    );
    println!("{}", "-".repeat(62));
    let mut totals = vec![(0usize, 0usize); 4];
    for (p, m) in suite(scale) {
        let mut row = format!("{:12}", p.name);
        for step in 1..=4 {
            let v = Validator { rules: RuleSet::fig8_step(step), ..Validator::new() };
            let report = engine.run_single_pass(&m, "sccp", &v).unwrap_or_else(|e| {
                eprintln!("fig8_sccp_rules: {e}");
                std::process::exit(2);
            });
            totals[step - 1].0 += report.transformed();
            totals[step - 1].1 += report.validated();
            if step == 1 {
                row += &format!(" {:>6} |", report.transformed());
            }
            row += &format!(" {:>7.1}%", pct(report.validated(), report.transformed()));
        }
        println!("{row}");
    }
    println!("{}", "-".repeat(62));
    print!("{:12} {:>6} |", "overall", totals[0].0);
    for (t, v) in &totals {
        print!(" {:>7.1}%", pct(*v, *t));
    }
    println!("\n\npaper shape: poor with no rules; constant folding gives the big jump;");
    println!("phi rules help branchy benchmarks further");
    let artifact = Json::obj([
        ("exhibit", Json::str("fig8_sccp_rules")),
        ("scale", Json::num(scale as f64)),
        (
            "steps",
            Json::arr(STEPS.iter().zip(&totals).map(|(step, (t, v))| {
                Json::obj([
                    ("rules", Json::str(*step)),
                    ("transformed", Json::num(*t as f64)),
                    ("validated", Json::num(*v as f64)),
                    ("validated_pct", Json::num(pct(*v, *t))),
                ])
            })),
        ),
    ]);
    let path = write_artifact("fig8", &artifact).expect("write BENCH_fig8.json");
    println!("wrote {}", path.display());
}
