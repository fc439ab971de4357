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
use llvm_md_bench::{pct, scale_from_args, suite, write_artifact};
use llvm_md_core::{Json, MatchStrategy, Validator};
use llvm_md_driver::ValidationEngine;

fn main() {
    let scale = scale_from_args();
    // Worker count: LLVM_MD_WORKERS, else available_parallelism.
    let engine = ValidationEngine::new();
    println!("Section 5.4 ablation: cycle-matching strategy (full pipeline, 1/{scale} scale)");
    let strategies = [
        (MatchStrategy::None, "none"),
        (MatchStrategy::Unification, "unification"),
        (MatchStrategy::Partition, "partitioning"),
        (MatchStrategy::Combined, "combined"),
    ];
    println!(
        "{:12} {:>6} | {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "xform", "none", "unification", "partitioning", "combined"
    );
    println!("{}", "-".repeat(78));
    let mut totals = vec![(0usize, 0usize); strategies.len()];
    for (p, m) in suite(scale) {
        let mut row = format!("{:12}", p.name);
        for (i, (strategy, _)) in strategies.iter().enumerate() {
            let v = Validator { strategy: *strategy, ..Validator::new() };
            let (_, report) = engine.llvm_md(&m, &paper_pipeline(), &v);
            totals[i].0 += report.transformed();
            totals[i].1 += report.validated();
            if i == 0 {
                row += &format!(" {:>6} |", report.transformed());
            }
            row += &format!(" {:>11.1}%", pct(report.validated(), report.transformed()));
        }
        println!("{row}");
    }
    println!("{}", "-".repeat(78));
    print!("{:12} {:>6} |", "overall", totals[0].0);
    for (t, v) in &totals {
        print!(" {:>11.1}%", pct(*v, *t));
    }
    println!("\n\npaper shape: unification ≈ partitioning; combined slightly (not significantly) better;");
    println!("all three far above no-matching on loop-heavy code");
    let artifact = Json::obj([
        ("exhibit", Json::str("ablation_cycle_matching")),
        ("scale", Json::num(scale as f64)),
        (
            "strategies",
            Json::arr(strategies.iter().zip(&totals).map(|((_, name), (t, v))| {
                Json::obj([
                    ("strategy", Json::str(*name)),
                    ("transformed", Json::num(*t as f64)),
                    ("validated", Json::num(*v as f64)),
                    ("validated_pct", Json::num(pct(*v, *t))),
                ])
            })),
        ),
    ]);
    let path = write_artifact("ablation", &artifact).expect("write BENCH_ablation.json");
    println!("wrote {}", path.display());
}
