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

use llvm_md_bench::{pct, scale_from_args, suite, write_artifact};
use llvm_md_core::{Json, Validator};
use llvm_md_driver::ValidationEngine;

const PASSES: &[(&str, &str)] = &[
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
    // Worker count: LLVM_MD_WORKERS, else available_parallelism.
    let engine = ValidationEngine::new();
    println!("Figure 5: validator results for individual optimizations (1/{scale} scale)");
    print!("{:12}", "benchmark");
    for (_, label) in PASSES {
        print!(" | {:>13}", label);
    }
    println!();
    print!("{:12}", "");
    for _ in PASSES {
        print!(" | {:>6} {:>6}", "xform", "valid");
    }
    println!();
    println!("{}", "-".repeat(12 + PASSES.len() * 16));
    let validator = Validator::new();
    let mut totals = vec![(0usize, 0usize); PASSES.len()];
    for (p, m) in suite(scale) {
        print!("{:12}", p.name);
        for (i, (pass, _)) in PASSES.iter().enumerate() {
            let report = engine.run_single_pass(&m, pass, &validator).unwrap_or_else(|e| {
                eprintln!("fig5_per_opt: {e}");
                std::process::exit(2);
            });
            let (t, v) = (report.transformed(), report.validated());
            totals[i].0 += t;
            totals[i].1 += v;
            print!(" | {:>6} {:>6}", t, v);
        }
        println!();
    }
    println!("{}", "-".repeat(12 + PASSES.len() * 16));
    print!("{:12}", "total");
    for (t, v) in &totals {
        print!(" | {:>6} {:>5.0}%", t, pct(*v, *t));
    }
    println!();
    let gvn = totals[1].0;
    let most = totals.iter().map(|t| t.0).max().unwrap_or(0);
    println!(
        "\nGVN transforms {gvn} functions (max over passes: {most}) — the paper's \"most \
         important as it performs many more transformations\" observation {}",
        if gvn == most { "holds" } else { "does NOT hold" }
    );
    let artifact = Json::obj([
        ("exhibit", Json::str("fig5_per_opt")),
        ("scale", Json::num(scale as f64)),
        (
            "passes",
            Json::arr(PASSES.iter().zip(&totals).map(|((pass, _), (t, v))| {
                Json::obj([
                    ("pass", Json::str(*pass)),
                    ("transformed", Json::num(*t as f64)),
                    ("validated", Json::num(*v as f64)),
                    ("validated_pct", Json::num(pct(*v, *t))),
                ])
            })),
        ),
    ]);
    let path = write_artifact("fig5", &artifact).expect("write BENCH_fig5.json");
    println!("wrote {}", path.display());
}
