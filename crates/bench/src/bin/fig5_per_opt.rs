//! Figure 5: validator results for individual optimizations.
//!
//! For each single pass (ADCE, GVN, SCCP, LICM, loop deletion, loop
//! unswitching, DSE) run alone over each benchmark: the number of functions
//! the pass transformed and how many validated. The paper's observations to
//! reproduce: GVN transforms by far the most functions *and* is the hardest
//! to validate; ADCE/loop-deletion mostly validate for free (dead code never
//! enters the value graph).
//!
//! Writes `BENCH_fig5.json` with the per-pass totals.

use llvm_md_bench::{one_pass, pct, scale_from_args, suite, sweep, totals, RateTable};
use llvm_md_core::Validator;
use llvm_md_driver::ValidationEngine;

const PASSES: [(&str, &str); 7] = [
    ("adce", "ADCE"),
    ("gvn", "GVN"),
    ("sccp", "SCCP"),
    ("licm", "LICM"),
    ("ld", "LoopDel"),
    ("lu", "Unswitch"),
    ("dse", "DSE"),
];

fn main() {
    let scale = scale_from_args();
    let modules = suite(scale);
    // Worker count: LLVM_MD_WORKERS, else available_parallelism.
    let engine = ValidationEngine::new();
    // One sweep per pass; each column of the table is one pass's sweep.
    let per_pass: Vec<_> = PASSES
        .iter()
        .map(|(pass, _)| {
            let pm = one_pass(pass);
            sweep(&engine, modules.iter().map(|(_, m)| m), &pm, &[Validator::new()])
        })
        .collect();
    let reports: Vec<Vec<_>> = (0..modules.len())
        .map(|i| per_pass.iter().map(|sweep| sweep[i][0].clone()).collect())
        .collect();
    println!("Figure 5: validator results for individual optimizations (1/{scale} scale)");
    print!("{:12}", "benchmark");
    for (_, label) in PASSES {
        print!(" | {label:>13}");
    }
    print!("\n{:12}", "");
    for _ in PASSES {
        print!(" | {:>6} {:>6}", "xform", "valid");
    }
    let rule = "-".repeat(12 + PASSES.len() * 16);
    println!("\n{rule}");
    for ((p, _), row) in modules.iter().zip(&reports) {
        print!("{:12}", p.name);
        for r in row {
            print!(" | {:>6} {:>6}", r.transformed(), r.validated());
        }
        println!();
    }
    println!("{rule}");
    print!("{:12}", "total");
    let totals = totals(&reports);
    for &(t, v) in &totals {
        // A pass that transformed nothing has no rate to show.
        if t == 0 {
            print!(" | {t:>6} {:>6}", "n/a");
        } else {
            print!(" | {t:>6} {:>5.0}%", pct(v, t));
        }
    }
    let gvn = totals[1].0;
    let most = totals.iter().map(|t| t.0).max().unwrap_or(0);
    println!(
        "\n\nGVN transforms {gvn} functions (max over passes: {most}) — the paper's \"most \
         important as it performs many more transformations\" observation {}",
        if gvn == most { "holds" } else { "does NOT hold" }
    );
    let table = RateTable::new(&modules, &PASSES.map(|(pass, _)| pass), reports);
    table.write("fig5", "fig5_per_opt", scale, ("passes", "pass"));
}
