//! Figure 6: the effect of rewrite rules on GVN validation.
//!
//! GVN is run alone; validation is attempted under the paper's six
//! cumulative rule configurations: (1) no rules, (2) +φ simplification,
//! (3) +constant folding, (4) +load/store simplification, (5) +η
//! simplification, (6) +commuting rules. The paper's shape: roughly 50%
//! validates with *no rules at all* (symbolic evaluation hides syntactic
//! detail), and each group adds benchmark-dependent improvements.
//!
//! Writes `BENCH_fig6.json` with the per-step totals.

use llvm_md_bench::{pct, scale_from_args, suite, write_artifact};
use llvm_md_core::{Json, RuleSet, Validator};
use llvm_md_driver::ValidationEngine;

const STEPS: [&str; 6] = ["none", "+phi", "+cfold", "+ldst", "+eta", "+commute"];

fn main() {
    let scale = scale_from_args();
    // Worker count: LLVM_MD_WORKERS, else available_parallelism.
    let engine = ValidationEngine::new();
    println!("Figure 6: GVN validation % as rule groups accumulate (1/{scale} scale)");
    println!(
        "{:12} {:>6} | {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "benchmark", "xform", "none", "+phi", "+cfold", "+ldst", "+eta", "+commute"
    );
    println!("{}", "-".repeat(78));
    let mut totals = vec![(0usize, 0usize); 6];
    for (p, m) in suite(scale) {
        let mut row = format!("{:12}", p.name);
        for step in 1..=6 {
            let v = Validator { rules: RuleSet::fig6_step(step), ..Validator::new() };
            let report = engine.run_single_pass(&m, "gvn", &v).unwrap_or_else(|e| {
                eprintln!("fig6_gvn_rules: {e}");
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
    println!("{}", "-".repeat(78));
    print!("{:12} {:>6} |", "overall", totals[0].0);
    for (t, v) in &totals {
        print!(" {:>7.1}%", pct(*v, *t));
    }
    println!("\n\npaper shape: ~50% with no rules, monotone improvement per group");
    let artifact = Json::obj([
        ("exhibit", Json::str("fig6_gvn_rules")),
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
    let path = write_artifact("fig6", &artifact).expect("write BENCH_fig6.json");
    println!("wrote {}", path.display());
}
