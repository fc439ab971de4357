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

use llvm_md_bench::{one_pass, scale_from_args, suite, sweep, RateTable};
use llvm_md_core::{RuleSet, Validator};
use llvm_md_driver::ValidationEngine;

fn main() {
    let scale = scale_from_args();
    let modules = suite(scale);
    let validators = [RuleSet::none(), RuleSet::all(), RuleSet { libc: true, ..RuleSet::all() }]
        .map(|rules| Validator { rules, ..Validator::new() });
    // Worker count: LLVM_MD_WORKERS, else available_parallelism.
    let reports = sweep(
        &ValidationEngine::new(),
        modules.iter().map(|(_, m)| m),
        &one_pass("licm"),
        &validators,
    );
    println!("Figure 7: LICM validation % by rule configuration (1/{scale} scale)");
    let table = RateTable::new(&modules, &["none", "all", "all+libc"], reports);
    table.print_rates();
    println!("\npaper shape: 75-80% baseline with no rules; small gain from general rules;");
    println!("libc knowledge removes the residual strlen-hoist false alarms");
    table.write("fig7", "fig7_licm_rules", scale, ("configs", "rules"));
}
