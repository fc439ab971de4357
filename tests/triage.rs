//! Ground-truth tests for the alarm-triage layer, over the whole stack:
//!
//! * every injected miscompile in the `workload::inject` corpus classifies
//!   as `RealMiscompile` under every rule ablation, with a witness that
//!   *replays* through `lir::interp` (the test re-runs the interpreter on
//!   the recorded inputs and checks both outcomes);
//! * suite pairs the validator accepts never classify as miscompiles:
//!   triage-by-interpretation agrees with every `validated = true` verdict
//!   (a seeded differential cross-check of validator soundness);
//! * suite *alarms* — the optimizer is correct, so all of them are false
//!   alarms — always classify as `SuspectedIncomplete`;
//! * triaged reports are deterministic across worker counts.

use llvm_md::core::triage::{build_envs, triage_alarm};
use llvm_md::core::{Cascade, RuleSet, TriageClass, TriageOptions, Validator};
use llvm_md::driver::ValidationEngine;
use llvm_md::lir::interp::{run, ExecConfig};
use llvm_md::opt::paper_pipeline;
use llvm_md::workload::{generate_suite, injected_corpus, injected_paper_corpus};

/// The ablation axis the triage guarantees must hold along: catching a
/// miscompile must never depend on which rule groups are enabled (the
/// validator is sound under all of them; triage runs the code). Each
/// validator triages with `opts`.
fn ablation_validators(opts: TriageOptions) -> Vec<Validator> {
    [RuleSet::none(), RuleSet::all(), RuleSet::full()]
        .into_iter()
        .map(|rules| triaging(Validator { rules, ..Validator::new() }, opts))
        .collect()
}

/// `v` under the triage-only cascade with `opts`.
fn triaging(v: Validator, opts: TriageOptions) -> Validator {
    Validator { cascade: Cascade::Triage(opts), ..v }
}

#[test]
fn every_injected_miscompile_is_caught_with_a_replayable_witness() {
    let opts = TriageOptions::default();
    let cfg = ExecConfig { fuel: opts.fuel, max_depth: opts.max_depth };
    for validator in ablation_validators(opts) {
        for bug in injected_corpus() {
            let original = bug.module.function(bug.function).expect("function exists");
            let broken = bug.broken.function(bug.function).expect("function exists");
            let tv = validator.validate_cascade(&bug.module, original, broken);
            assert!(!tv.validated(), "{}: miscompile validated (soundness bug!)", bug.name);
            let triage = tv.triage.expect("alarms carry triage");
            assert_eq!(
                triage.class,
                TriageClass::RealMiscompile,
                "{}: injected bug not caught (rules {:?})",
                bug.name,
                validator.rules
            );
            // Replay the witness through the interpreter: the recorded
            // outcomes must reproduce exactly, and must diverge.
            let w = triage.witness.expect("real miscompiles carry a witness");
            let (orig_env, opt_env) = build_envs(&bug.module, original, broken);
            let a = run(&orig_env, bug.function, &w.args, &cfg).expect("original runs clean");
            let b = run(&opt_env, bug.function, &w.args, &cfg);
            assert_eq!(a, w.original, "{}: witness original outcome must replay", bug.name);
            assert_eq!(b, w.optimized, "{}: witness optimized outcome must replay", bug.name);
            assert_ne!(Ok(a), b, "{}: witness must actually diverge", bug.name);
        }
    }
}

#[test]
fn validated_suite_pairs_never_triage_as_miscompiles() {
    // Run the real optimizer over the pinned suite and force-triage every
    // *validated* pair: differential interpretation must agree with the
    // validator's proof (no witness exists if the proof is right).
    let validator = Validator::new();
    let opts = TriageOptions::default();
    let pm = paper_pipeline();
    let mut checked = 0;
    for (_, m) in generate_suite(24) {
        let mut out = m.clone();
        pm.run_module(&mut out);
        for (fi, fo) in m.functions.iter().zip(&out.functions) {
            let verdict = validator.validate(fi, fo);
            if !verdict.validated {
                continue;
            }
            let triage = triage_alarm(&m, fi, fo, &verdict, &opts);
            assert_eq!(
                triage.class,
                TriageClass::SuspectedIncomplete,
                "@{}: a pair the validator PROVED equal diverged under interpretation — \
                 validator soundness bug; witness: {:?}",
                fi.name,
                triage.witness
            );
            checked += 1;
        }
    }
    assert!(checked > 10, "cross-check must cover real validated pairs (got {checked})");
}

#[test]
fn suite_alarms_are_false_alarms_and_all_classified() {
    // The optimizer is correct, so every alarm over the suite is a false
    // alarm: triage must say SuspectedIncomplete for each, and every
    // paired non-validated record must carry a classification.
    let engine = ValidationEngine::new();
    let opts = TriageOptions::default();
    let pm = paper_pipeline();
    // `none` maximizes alarms, exercising triage broadly.
    for rules in [RuleSet::none(), RuleSet::all()] {
        let validator = triaging(Validator { rules, ..Validator::new() }, opts);
        let mut alarms = 0;
        for (_, m) in generate_suite(24) {
            let (_, report) = engine.llvm_md(&m, &pm, &validator);
            for rec in &report.records {
                if rec.transformed && !rec.validated {
                    let t = rec.triage.as_ref().unwrap_or_else(|| {
                        panic!("@{}: paired alarm without a triage classification", rec.name)
                    });
                    assert_eq!(
                        t.class,
                        TriageClass::SuspectedIncomplete,
                        "@{}: correct-optimizer alarm triaged as a real miscompile; \
                         witness: {:?}",
                        rec.name,
                        t.witness
                    );
                    alarms += 1;
                }
            }
        }
        assert!(alarms > 0, "rule set {rules:?} should produce false alarms to triage");
    }
}

#[test]
fn paper_corpus_injections_agree_with_interpretation() {
    // Broken variants of the hand-written §3–§4 corpus. A bug injected into
    // code an always-true gate skips can be semantics-preserving (e.g.
    // `sec41_order`'s inner φ is reached only when its values coincide), so
    // blanket "never validates" would be wrong. The sound contract is
    // *agreement*: a pair the validator proves equal must never diverge
    // under interpretation, and any witness on an alarm must replay as a
    // genuine divergence.
    let opts = TriageOptions::default();
    let validator = triaging(Validator { rules: RuleSet::full(), ..Validator::new() }, opts);
    let mut alarms = 0;
    for bug in injected_paper_corpus() {
        let original = bug.module.function(bug.function).expect("function exists");
        let broken = bug.broken.function(bug.function).expect("function exists");
        let tv = validator.validate_cascade(&bug.module, original, broken);
        if tv.validated() {
            // The validator claims the "bug" preserved semantics: hold it to
            // that with the differential battery.
            let triage = triage_alarm(&bug.module, original, broken, &tv.verdict, &opts);
            assert_eq!(
                triage.class,
                TriageClass::SuspectedIncomplete,
                "{} ({}): validated pair diverges under interpretation — soundness bug; \
                 witness: {:?}",
                bug.name,
                bug.kind.name(),
                triage.witness
            );
        } else {
            alarms += 1;
            let triage = tv.triage.expect("alarms carry triage");
            if let Some(w) = &triage.witness {
                assert_ne!(Ok(w.original.clone()), w.optimized, "witness must diverge");
            }
        }
    }
    assert!(alarms > 0, "most paper-corpus injections are real alarms");
}

#[test]
fn triaged_corpus_reports_are_worker_count_independent() {
    // Determinism: triage rides the worker pool, and report equality
    // includes the triage classification and witness — so a 4-worker run
    // must agree with the serial run record-for-record.
    let opts = TriageOptions::default();
    let validator = triaging(Validator { rules: RuleSet::none(), ..Validator::new() }, opts);
    let pm = paper_pipeline();
    for (_, m) in generate_suite(40) {
        let (_, serial) = ValidationEngine::serial().llvm_md(&m, &pm, &validator);
        let (_, parallel) = ValidationEngine::with_workers(4).llvm_md(&m, &pm, &validator);
        assert_eq!(serial, parallel, "triaged reports diverged between 1 and 4 workers");
    }
}
