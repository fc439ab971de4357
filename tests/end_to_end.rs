//! End-to-end integration over the hand-written corpus: every §3–§4
//! example of the paper must survive the full pipeline with the default
//! validator, and the specific rule dependencies called out in the paper
//! must hold.

use llvm_md::core::{RuleSet, Validator};
use llvm_md::driver::ValidationEngine;
use llvm_md::opt::paper_pipeline;
use llvm_md::workload::corpus_modules;

/// The full pipeline over every corpus entry: transformed functions
/// validate with the paper's rule set (+libc for the strlen entry, exactly
/// as §5.3 prescribes), except the entries that document a limitation.
#[test]
fn corpus_validates_under_pipeline() {
    let mut validator =
        Validator { rules: RuleSet { libc: true, ..RuleSet::all() }, ..Validator::new() };
    validator.limits.unswitch_budget = 4;
    for (name, m) in corpus_modules() {
        // `irreducible` is rejected by the front end; `unswitch_loop` is the
        // documented hard case (see `unswitched_loop_rejects_cleanly_or_validates`).
        if name == "irreducible" || name == "unswitch_loop" {
            continue;
        }
        let (_, report) = ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &validator);
        for rec in &report.records {
            assert!(
                !rec.transformed || rec.validated,
                "{name}/{}: transformed but not validated ({:?}, {} -> {} insts)",
                rec.name,
                rec.reason,
                rec.insts_before,
                rec.insts_after
            );
        }
    }
}

/// §4.2's extended example optimizes to `m + m` (≡ `m << 1`) and validates.
#[test]
fn extended_example_validates() {
    let m = corpus_modules().into_iter().find(|(n, _)| *n == "sec42_extended").expect("present").1;
    let (out, report) =
        ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &Validator::new());
    let rec = &report.records[0];
    assert!(rec.transformed, "pipeline must optimize the extended example");
    assert!(rec.validated, "{:?}", rec.reason);
    assert!(rec.insts_after < rec.insts_before);
    // (Whether the loop itself disappears depends on how far GVN+SCCP fold
    // the x==y branch; the paper only requires that whatever the optimizer
    // did is validated.)
    let _ = out;
}

/// §5.3: the strlen-in-loop entry needs libc knowledge. Without it the
/// validator alarms on the LICM hoist; with it, the pipeline validates.
#[test]
fn strlen_loop_needs_libc_rules() {
    let m =
        corpus_modules().into_iter().find(|(n, _)| *n == "sec53_strlen_loop").expect("present").1;
    let plain = Validator::new();
    let libc = Validator { rules: RuleSet { libc: true, ..RuleSet::all() }, ..Validator::new() };
    let (_, r1) = ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &plain);
    let (_, r2) = ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &libc);
    let rec1 = &r1.records[0];
    let rec2 = &r2.records[0];
    assert!(rec1.transformed, "LICM must hoist the strlen call");
    assert!(!rec1.validated, "without libc rules this is the paper's false alarm");
    assert!(rec2.validated, "{:?}", rec2.reason);
    assert!(rec2.rewrites.libc > 0, "the libc rules must have fired: {:?}", rec2.rewrites);
}

/// §5.3: memset forwarding — the load inside the memset region folds to the
/// splat value once libc rules are on.
#[test]
fn memset_forwarding() {
    let m = corpus_modules().into_iter().find(|(n, _)| *n == "sec53_memset").expect("present").1;
    let orig = &m.functions[0];
    // Hand-build the "optimized" form the paper's rule justifies:
    // v = 0x0707070707070707.
    let opt = lir::parse::parse_module(
        "define i64 @f() {\n\
         entry:\n  %p = alloca 32, align 8\n\
         call void @memset(ptr %p, i64 7, i64 32)\n\
         call void @sink(i64 506381209866536711)\n  ret i64 506381209866536711\n\
         }\n",
    )
    .expect("parses")
    .functions
    .remove(0);
    let with_libc =
        Validator { rules: RuleSet { libc: true, ..RuleSet::all() }, ..Validator::new() };
    let verdict = with_libc.validate(orig, &opt);
    assert!(verdict.validated, "{:?}", verdict.reason);
    let without = Validator::new().validate(orig, &opt);
    assert!(!without.validated, "without libc rules the splat is not derivable");
}

/// Loop unswitching is the validator's hardest case, exactly as the paper
/// reports (§5.4: "essentially all of the technical difficulties lie in the
/// complex φ-nodes"). Our unswitch pass duplicates the loop and leaves
/// LCSSA-style φs with undef incomings behind; the validator must *cleanly
/// reject* what it cannot prove (never crash, never accept wrongly) — the
/// driver then splices the original back, so the pipeline stays correct.
/// Fig. 5's partially-validated LU column reflects the same situation.
#[test]
fn unswitched_loop_rejects_cleanly_or_validates() {
    let m = corpus_modules().into_iter().find(|(n, _)| *n == "unswitch_loop").expect("present").1;
    let mut v = Validator::new();
    v.limits.unswitch_budget = 4;
    let report = ValidationEngine::serial().run_single_pass(&m, "lu", &v).expect("known pass");
    let rec = &report.records[0];
    if rec.transformed && !rec.validated {
        assert!(
            matches!(
                rec.reason,
                Some(llvm_md::core::FailReason::RootsDiffer | llvm_md::core::FailReason::Budget)
            ),
            "rejection must be a clean normalization fixpoint: {:?}",
            rec.reason
        );
    }
}

/// DSE on stack memory validates through the dead-alloca purge.
#[test]
fn dse_stack_validates() {
    let m = corpus_modules().into_iter().find(|(n, _)| *n == "dse_stack").expect("present").1;
    let report = ValidationEngine::serial()
        .run_single_pass(&m, "dse", &Validator::new())
        .expect("known pass");
    let rec = &report.records[0];
    if rec.transformed {
        assert!(rec.validated, "{:?}", rec.reason);
    }
    // And the full pipeline (which also forwards the load) validates too.
    let (_, full) = ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &Validator::new());
    assert!(full.records[0].validated, "{:?}", full.records[0].reason);
}

/// Multi-exit loops (η with several exit conditions) survive the pipeline.
#[test]
fn loop_with_break_validates() {
    let m = corpus_modules().into_iter().find(|(n, _)| *n == "loop_with_break").expect("present").1;
    let (_, report) = ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &Validator::new());
    let rec = &report.records[0];
    assert!(!rec.transformed || rec.validated, "{:?}", rec.reason);
}
