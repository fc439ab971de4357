//! The LLVM-MD tool end-to-end (paper §2): run the whole optimization
//! pipeline over a module, validate every function, splice rejected
//! transformations back, and report — then demonstrate on the paper's §4.2
//! extended example that the certified output still computes `m + m`.
//!
//! Run with: `cargo run --example certify_pipeline`

use llvm_md::core::Validator;
use llvm_md::driver::ValidationEngine;
use llvm_md::lir::interp::{run, ExecConfig};
use llvm_md::opt::paper_pipeline;
use llvm_md::workload::{corpus_modules, generate, profiles};

fn main() {
    // 1. The paper's running examples: every corpus entry that the
    //    optimizer touches should validate (the irreducible one is
    //    rejected by the front end, as in §5.1).
    println!("== corpus ==");
    let validator = Validator::new();
    for (name, m) in corpus_modules() {
        let (certified, report) =
            ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &validator);
        let rec = &report.records[0];
        println!(
            "{name:22} transformed={} validated={} ({} -> {} insts)",
            rec.transformed, rec.validated, rec.insts_before, rec.insts_after
        );
        // The certified module always behaves like the input: rejected
        // functions were spliced back.
        if name == "sec42_extended" {
            for (n, m_arg) in [(0u64, 21u64), (5, 8)] {
                let a = run(&m, "f", &[n, m_arg], &ExecConfig::default()).expect("input runs");
                let b =
                    run(&certified, "f", &[n, m_arg], &ExecConfig::default()).expect("output runs");
                assert_eq!(a.ret, b.ret, "certified output diverged!");
                println!(
                    "    f({n}, {m_arg}) = {:?} on both sides (m+m = {})",
                    a.ret,
                    m_arg + m_arg
                );
            }
        }
    }

    // 2. A synthetic benchmark, SQLite-flavoured.
    println!("\n== synthetic sqlite profile ==");
    let mut profile = profiles()[0];
    profile.functions = 40;
    let m = generate(&profile);
    let (_, report) = ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &validator);
    println!(
        "{} functions, {} transformed, {} validated ({:.1}%), {} alarms",
        report.records.len(),
        report.transformed(),
        report.validated(),
        100.0 * report.validation_rate(),
        report.alarms()
    );
    println!(
        "optimizer time {:?}, validator time {:?}, {} graph rewrites",
        report.opt_time,
        report.validate_time,
        report.total_rewrites()
    );
}
