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

use llvm_md_bench::{one_pass, scale_from_args, suite, sweep, RateTable};
use llvm_md_core::{RuleSet, Validator};
use llvm_md_driver::ValidationEngine;

const STEPS: [&str; 6] = ["none", "+phi", "+cfold", "+ldst", "+eta", "+commute"];

fn main() {
    let scale = scale_from_args();
    let modules = suite(scale);
    let validators: Vec<_> = (1..=6)
        .map(|step| Validator { rules: RuleSet::fig6_step(step), ..Validator::new() })
        .collect();
    // Worker count: LLVM_MD_WORKERS, else available_parallelism.
    let reports = sweep(
        &ValidationEngine::new(),
        modules.iter().map(|(_, m)| m),
        &one_pass("gvn"),
        &validators,
    );
    println!("Figure 6: GVN validation % as rule groups accumulate (1/{scale} scale)");
    let table = RateTable::new(&modules, &STEPS, reports);
    table.print_rates();
    println!("\npaper shape: ~50% with no rules, monotone improvement per group");
    table.write("fig6", "fig6_gvn_rules", scale, ("steps", "rules"));
}
