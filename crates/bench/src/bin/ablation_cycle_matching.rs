//! §5.4 ablation: cycle-matching strategies.
//!
//! The paper compares simple speculative unification against a
//! Hopcroft-partitioning matcher and finds them roughly equal, with the
//! combination slightly (not significantly) better. This harness runs the
//! full pipeline under each strategy (plus no cycle matching at all, to
//! show matching is load-bearing for loop code).
//!
//! Writes `BENCH_ablation.json` with the per-strategy totals.

use lir_opt::paper_pipeline;
use llvm_md_bench::{scale_from_args, suite, sweep, RateTable};
use llvm_md_core::{MatchStrategy, Validator};
use llvm_md_driver::ValidationEngine;

fn main() {
    let scale = scale_from_args();
    let modules = suite(scale);
    let validators = [
        MatchStrategy::None,
        MatchStrategy::Unification,
        MatchStrategy::Partition,
        MatchStrategy::Combined,
    ]
    .map(|strategy| Validator { strategy, ..Validator::new() });
    // Worker count: LLVM_MD_WORKERS, else available_parallelism.
    let reports = sweep(
        &ValidationEngine::new(),
        modules.iter().map(|(_, m)| m),
        &paper_pipeline(),
        &validators,
    );
    println!("Section 5.4 ablation: cycle-matching strategy (full pipeline, 1/{scale} scale)");
    let labels = ["none", "unification", "partitioning", "combined"];
    let table = RateTable::new(&modules, &labels, reports);
    table.print_rates();
    println!(
        "\npaper shape: unification ≈ partitioning; combined slightly (not significantly) better;"
    );
    println!("all three far above no-matching on loop-heavy code");
    table.write("ablation", "ablation_cycle_matching", scale, ("strategies", "strategy"));
}
