//! Differential tests for the equality-saturation normalizer
//! (`llvm_md::core::egraph`) against the paper's destructive engine.
//!
//! The load-bearing contract is **monotone completeness** of the
//! production mode: `SaturateFallback` runs the destructive engine first
//! and only saturates on its `RootsDiffer` fixpoints, so it can discharge
//! alarms but never introduce one — everything the destructive engine
//! validates, the fallback validates. Pure `Saturate` is the
//! order-independence *ablation*: it discharges the destructive engine's
//! stubborn false alarms too, but may regress pairs whose proof needed the
//! destructive engine's deeper rewrite sequences; those regressions must
//! be honest fixpoints (the e-graph saturated), never budget caps.
//!
//! Soundness is differential in the other direction: the injected-bug
//! corpus must stay rejected under every normalizer — equality saturation
//! only ever *proves* equalities the rules justify, so a real miscompile
//! has no path to a shared root class.

use llvm_md::core::{Normalizer, RuleSet, Validator};
use llvm_md::driver::{changed, ValidationEngine};
use llvm_md::lir::func::{Function, Module};
use llvm_md::opt::paper_pipeline;
use llvm_md::workload::fuzz::campaign_module;
use llvm_md::workload::{fuzz_profiles, generate_suite, injected_corpus};

/// All validators run the full rule catalogue (`+libc,+float` included) —
/// the configuration whose 12 stubborn false alarms this subsystem exists
/// to discharge.
fn destructive() -> Validator {
    Validator { rules: RuleSet::full(), ..Validator::new() }
}

fn saturate() -> Validator {
    Validator { normalizer: Normalizer::Saturate, ..destructive() }
}

fn fallback() -> Validator {
    Validator { normalizer: Normalizer::SaturateFallback, ..destructive() }
}

/// The optimized counterpart of `m` under the paper's seven-pass pipeline.
fn optimize(m: &Module) -> Module {
    let mut out = m.clone();
    paper_pipeline().run_module(&mut out);
    out
}

/// Every `(original, optimized)` pair the pipeline actually changed, from
/// the pinned Table-1 suite at the committed benchmark scale.
fn changed_suite_pairs() -> Vec<(Function, Function)> {
    let mut pairs = Vec::new();
    for (_, m) in &generate_suite(4) {
        let opt = optimize(m);
        for orig in &m.functions {
            let Some(after) = opt.functions.iter().find(|f| f.name == orig.name) else { continue };
            if changed(orig, after) {
                pairs.push((orig.clone(), after.clone()));
            }
        }
    }
    pairs
}

/// One differential sweep over the Table-1 suite pins the whole
/// saturation story: the fallback is monotone (no pair lost), it
/// discharges at least half of the destructive engine's 12 stubborn false
/// alarms with every saturation run ending in a genuine fixpoint, and the
/// pure-saturation ablation discharges them too (its known regressions
/// are honest fixpoints, not budget caps).
#[test]
fn saturation_differential_over_the_table1_suite() {
    let (d, s, f) = (destructive(), saturate(), fallback());
    let mut stubborn = 0;
    let mut discharged_fallback = 0;
    let mut discharged_saturate = 0;
    let mut pairs = 0;
    for (orig, after) in &changed_suite_pairs() {
        pairs += 1;
        let dv = d.validate(orig, after);
        let sv = s.validate(orig, after);
        let fv = f.validate(orig, after);
        // Monotone completeness: the fallback only ever adds proofs.
        assert!(
            !dv.validated || fv.validated,
            "{}: destructive validates but saturate-fallback alarms",
            orig.name
        );
        // Every saturation run must terminate on its own, under budget.
        for v in [&sv, &fv] {
            if let Some(sat) = &v.stats.saturation {
                assert!(sat.saturated, "{}: saturation hit a budget cap", orig.name);
                assert!(sat.iterations > 0 || v.validated, "{}: empty saturation run", orig.name);
            }
        }
        // The fallback engages the e-graph exactly on destructive alarms.
        assert_eq!(
            fv.stats.saturation.is_some(),
            !dv.validated,
            "{}: fallback saturation ran iff destructive alarmed",
            orig.name
        );
        if !dv.validated {
            stubborn += 1;
            discharged_fallback += fv.validated as usize;
            discharged_saturate += sv.validated as usize;
        }
        // The ablation's regressions are honest fixpoints (asserted
        // saturated above); record-keeping only, no count pinned here.
        let _ = sv.validated;
    }
    assert!(pairs > 200, "suite shrank unexpectedly ({pairs} changed pairs)");
    assert_eq!(stubborn, 12, "the destructive baseline has 12 stubborn false alarms");
    assert!(
        discharged_fallback >= 6,
        "fallback discharged {discharged_fallback}/12 stubborn alarms; the ISSUE floor is 6"
    );
    assert!(
        discharged_saturate >= 6,
        "pure saturation discharged {discharged_saturate}/12 stubborn alarms; the floor is 6"
    );
}

/// Monotone completeness holds on the six fuzz profiles too — the
/// generator exercises memory webs, loop nests and libc calls the pinned
/// suite undersamples.
#[test]
fn fallback_is_monotone_over_the_fuzz_profiles() {
    let (d, f) = (destructive(), fallback());
    let profiles = fuzz_profiles();
    assert_eq!(profiles.len(), 6, "the fuzz campaign defines six profiles");
    for profile in &profiles {
        for index in 0..2 {
            let m = campaign_module(profile, 0xE64A, index);
            let opt = optimize(&m);
            for orig in &m.functions {
                let Some(after) = opt.functions.iter().find(|x| x.name == orig.name) else {
                    continue;
                };
                if !changed(orig, after) {
                    continue;
                }
                let dv = d.validate(orig, after);
                let fv = f.validate(orig, after);
                // Monotone even when a big fuzz module drives saturation
                // into its budget cap: a capped run keeps the alarm, it
                // never flips a destructive proof.
                assert!(
                    !dv.validated || fv.validated,
                    "{}/{}: destructive validates but saturate-fallback alarms",
                    profile.name,
                    orig.name
                );
            }
        }
    }
}

/// Soundness: every injected miscompile stays rejected under every
/// normalizer. Saturation keeps both sides of each union, so a bug the
/// destructive engine catches has no saturation escape hatch.
#[test]
fn injected_bugs_are_rejected_under_every_normalizer() {
    let corpus = injected_corpus();
    assert_eq!(corpus.len(), 6, "the injected corpus carries six bugs");
    for bug in &corpus {
        let original = bug.module.function(bug.function).expect("function exists");
        let broken = bug.broken.function(bug.function).expect("function exists");
        for (mode, v) in
            [("destructive", destructive()), ("saturate", saturate()), ("fallback", fallback())]
        {
            assert!(
                !v.validate(original, broken).validated,
                "{} validated the injected bug `{}`",
                mode,
                bug.name
            );
        }
    }
}

/// Saturation preserves the engine's worker-count determinism: the
/// full optimize → validate report (saturation stats included — they are
/// part of `FunctionRecord` equality) is identical at 1, 2 and 4
/// workers.
#[test]
fn saturating_reports_are_worker_count_deterministic() {
    let suite = generate_suite(4);
    let (_, m) = &suite[0];
    let pm = paper_pipeline();
    for v in [saturate(), fallback()] {
        let (serial_out, serial_rep) = ValidationEngine::serial().llvm_md(m, &pm, &v);
        for workers in [1, 2, 4] {
            let (out, rep) = ValidationEngine::with_workers(workers).llvm_md(m, &pm, &v);
            assert_eq!(
                rep, serial_rep,
                "normalizer {} workers={workers}: report diverged",
                v.normalizer
            );
            assert_eq!(format!("{out}"), format!("{serial_out}"));
        }
    }
}
