//! Figure 8: the effect of rewrite rules on SCCP validation.
//!
//! SCCP is run alone and validated under the paper's four configurations:
//! (1) no rules, (2) +constant folding, (3) +φ simplification, (4) all
//! rules. The paper's shape: very poor with no rules, an immediate jump
//! from constant folding, a further benchmark-dependent jump from φ rules.
//!
//! Writes `BENCH_fig8.json` with the per-step totals.

use llvm_md_bench::{one_pass, scale_from_args, suite, sweep, RateTable};
use llvm_md_core::{RuleSet, Validator};
use llvm_md_driver::ValidationEngine;

const STEPS: [&str; 4] = ["none", "+cfold", "+phi", "all"];

fn main() {
    let scale = scale_from_args();
    let modules = suite(scale);
    let validators: Vec<_> = (1..=4)
        .map(|step| Validator { rules: RuleSet::fig8_step(step), ..Validator::new() })
        .collect();
    // Worker count: LLVM_MD_WORKERS, else available_parallelism.
    let reports = sweep(
        &ValidationEngine::new(),
        modules.iter().map(|(_, m)| m),
        &one_pass("sccp"),
        &validators,
    );
    println!("Figure 8: SCCP validation % by rule configuration (1/{scale} scale)");
    let table = RateTable::new(&modules, &STEPS, reports);
    table.print_rates();
    println!("\npaper shape: poor with no rules; constant folding gives the big jump;");
    println!("phi rules help branchy benchmarks further");
    table.write("fig8", "fig8_sccp_rules", scale, ("steps", "rules"));
}
