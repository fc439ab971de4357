//! Pass-level blame end-to-end: inject a broken pass into the middle of a
//! real pipeline and let chain validation name the guilty pass.
//!
//! The one-shot driver can only say *that* the pipeline broke a function;
//! the `ChainValidator` materializes every intermediate module, validates
//! each adjacent pair (sharing gated graphs through the core graph cache,
//! skipping fingerprint-identical functions), and blames the **first
//! failing step**. With triage on, a real miscompilation's blame carries a
//! minimized, interpreter-replayable witness — here, the exact input on
//! which the broken pass changed `@max`'s answer.
//!
//! Run with: `cargo run --example chain_blame`

use llvm_md::core::{Cascade, TriageOptions, Validator};
use llvm_md::driver::{ChainValidator, ValidationEngine};
use llvm_md::lir::interp::{run, ExecConfig};
use llvm_md::lir::parse::parse_module;
use llvm_md::opt::{pass_by_name, PassManager};
use llvm_md::workload::inject::{BrokenPass, BugKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = parse_module(
        "define i64 @max(i64 %a, i64 %b) {\n\
         entry:\n  %c = icmp sgt i64 %a, %b\n  br i1 %c, label %l, label %r\n\
         l:\n  ret i64 %a\n\
         r:\n  ret i64 %b\n\
         }\n\
         define i64 @poly(i64 %x) {\n\
         entry:\n  %d = add i64 3, 3\n  %s = mul i64 %x, %d\n\
         %t = sub i64 %s, %s\n  %dead = mul i64 %s, %s\n  %u = add i64 %s, %t\n\
         ret i64 %u\n\
         }\n",
    )?;

    // A five-step pipeline with a miscompiling pass hidden in the middle:
    // the classic inverted-comparison bug, wrapped as an ordinary `Pass`.
    let mut pm = PassManager::new();
    pm.add(pass_by_name("adce").expect("known pass"));
    pm.add(pass_by_name("gvn").expect("known pass"));
    pm.add(Box::new(BrokenPass(BugKind::FlipComparison)));
    pm.add(pass_by_name("sccp").expect("known pass"));
    pm.add(pass_by_name("dse").expect("known pass"));
    println!("pipeline: {}", pm.names().join(" -> "));

    let validator =
        Validator { cascade: Cascade::Triage(TriageOptions::default()), ..Validator::new() };
    let chain = ChainValidator::new(ValidationEngine::new()).validate_chain(&m, &pm, &validator);

    println!("\nper-step reports (each step validates M(k) against M(k+1)):");
    for (k, step) in chain.steps.iter().enumerate() {
        println!(
            "  step {k}: {:16} transformed {} / validated {} / alarms {}",
            step.pass,
            step.report.transformed(),
            step.report.validated(),
            step.report.alarms()
        );
    }
    println!(
        "\ncache: {} graph hits, {} misses, {} queries skipped by fingerprint equality",
        chain.cache.hits, chain.cache.misses, chain.cache.skips
    );

    // The chain names the guilty pass; the honest neighbors stay clean.
    assert!(!chain.certifies(), "a miscompiled chain must not certify");
    let blame = chain.blame_for("max").expect("@max must be blamed");
    println!("\nblame: {blame}");
    assert_eq!(blame.step, 2, "the broken pass ran at step 2");
    assert_eq!(blame.pass, "flip-comparison");
    assert!(blame.is_miscompile(), "triage must prove the divergence");
    assert!(
        chain.blame_for("poly").is_none(),
        "the comparison-free function is untouched by the bug and must chain-certify: {:?}",
        chain.blames
    );

    // The witness replays through the reference interpreter: same input,
    // observably different outcome before vs after the blamed step.
    let witness = blame.triage.as_ref().unwrap().witness.as_ref().unwrap();
    let cfg = ExecConfig::default();
    let before = run(&m, "max", &witness.args, &cfg)?;
    println!(
        "witness: max({:?}) = {:?} before the pipeline, {:?} claimed by the broken step",
        witness.args,
        before.ret,
        witness.optimized.as_ref().map(|o| o.ret)
    );
    assert_eq!(before, witness.original, "the witness must replay");

    // Cross-check: the end-to-end verdict agrees something is wrong, but
    // only the chain says *where*.
    assert!(chain.composition_consistent());
    println!(
        "\nchained verdict: pass `{}` (step {}) broke @max — with proof.",
        blame.pass, blame.step
    );
    Ok(())
}
