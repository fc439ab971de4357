//! Alarm triage end-to-end: feed a deliberately miscompiled function
//! through `validate_cascade` under a triaging `Cascade` and inspect the
//! evidence each class carries.
//!
//! Every failed validation is an *alarm*, but an alarm alone doesn't say
//! whether the optimizer broke the program (a real miscompilation) or the
//! validator just couldn't finish the proof (a false alarm). The triage
//! layer answers by differentially interpreting both functions over a
//! seeded input battery:
//!
//! * a real miscompile comes back with a **minimized witness input** and
//!   both observed outcomes — replayable through `lir::interp`;
//! * a false alarm comes back with the **rewrite-rule trace** and the
//!   **divergent normalized graph roots** — what a rule author needs.
//!
//! Run with: `cargo run --example triage_alarm`

use llvm_md::core::{Cascade, RuleSet, TriageClass, TriageOptions, Validator};
use llvm_md::lir::interp::{run, ExecConfig};
use llvm_md::lir::parse::parse_module;
use llvm_md::workload::inject::{injected_corpus, BugKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cascade = Cascade::Triage(TriageOptions::default());
    let validator = Validator { rules: RuleSet::full(), cascade, ..Validator::new() };

    // 1. A real miscompilation: every injected bug in the corpus must be
    //    caught with a concrete witness.
    println!("== injected miscompilations ==");
    let mut caught = 0;
    for bug in injected_corpus() {
        let original = bug.module.function(bug.function).expect("function exists");
        let broken = bug.broken.function(bug.function).expect("function exists");
        let tv = validator.validate_cascade(&bug.module, original, broken);
        assert!(!tv.validated(), "{}: a miscompile must never validate", bug.name);
        let triage = tv.triage.expect("alarms are triaged");
        println!("{:18} ({:15}) -> {}", bug.name, bug.kind.name(), triage.class);
        if triage.class == TriageClass::RealMiscompile {
            caught += 1;
            let w = triage.witness.as_ref().expect("real miscompiles carry a witness");
            println!("  witness args     : {:?}", w.args);
            println!("  original outcome : ret = {:?}", w.original.ret);
            match &w.optimized {
                Ok(out) => println!("  broken outcome   : ret = {:?}", out.ret),
                Err(trap) => println!("  broken outcome   : trap: {trap}"),
            }
            // The witness is replayable: re-running the interpreter on the
            // recorded inputs reproduces the divergence.
            let cfg = ExecConfig::default();
            let again = run(&bug.module, bug.function, &w.args, &cfg).expect("original runs");
            assert_eq!(again, w.original, "witness must replay");
        }
    }
    assert_eq!(caught, injected_corpus().len(), "every injected bug must be caught");
    assert!(
        injected_corpus().iter().any(|b| b.kind == BugKind::SkipPhi),
        "corpus covers the φ-skipping bug class"
    );

    // 2. A false alarm: an equivalent pair the rule-less validator cannot
    //    prove. Triage finds no divergence and hands back proof evidence.
    println!("\n== false alarm (validator incompleteness) ==");
    let m = parse_module(
        "define i64 @f(i64 %a) {\nentry:\n  %x = add i64 3, 3\n  %y = mul i64 %a, %x\n  ret i64 %y\n}\n",
    )?;
    let opt =
        parse_module("define i64 @f(i64 %a) {\nentry:\n  %y = mul i64 %a, 6\n  ret i64 %y\n}\n")?;
    let strict = Validator { rules: RuleSet::none(), cascade, ..Validator::new() };
    let tv = strict.validate_cascade(&m, &m.functions[0], &opt.functions[0]);
    assert!(!tv.validated());
    let triage = tv.triage.expect("alarms are triaged");
    assert_eq!(triage.class, TriageClass::SuspectedIncomplete);
    println!("class            : {}", triage.class);
    println!("inputs compared  : {} (skipped {})", triage.inputs_run, triage.inputs_skipped);
    println!("rewrites applied : {}", triage.rewrites.total());
    if let Some(roots) = &triage.divergent_roots {
        println!("original root    : {}", roots.original);
        println!("optimized root   : {}", roots.optimized);
    }
    println!("\nall {caught} miscompilations caught; false alarm correctly triaged");
    Ok(())
}
