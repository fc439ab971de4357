//! Shape assertions for the paper's evaluation (§5): the properties that
//! must hold of Figures 4–8 and the §5.4 ablation, asserted on a reduced
//! suite so they run in CI time.
//!
//! Absolute percentages depend on the optimizer (ours mirrors LLVM's but is
//! not bit-identical); the *shapes* below are the paper's findings.

use llvm_md::core::{MatchStrategy, RuleSet, Validator};
use llvm_md::driver::ValidationEngine;
use llvm_md::lir::func::Module;
use llvm_md::opt::{paper_pipeline, PassManager};
use llvm_md::workload::{generate, profiles};
use llvm_md_bench::{one_pass, sweep, totals};

fn reduced_suite(per_bench: usize) -> Vec<(String, Module)> {
    profiles()
        .into_iter()
        .map(|mut p| {
            p.functions = per_bench;
            (p.name.to_owned(), generate(&p))
        })
        .collect()
}

/// The validation rate under each validator of `modules` optimized once by
/// `pm`: validated / transformed, 0 when nothing was transformed.
fn rates(modules: &[(String, Module)], pm: &PassManager, validators: &[Validator]) -> Vec<f64> {
    let reports =
        sweep(&ValidationEngine::serial(), modules.iter().map(|(_, m)| m), pm, validators);
    totals(&reports).into_iter().map(|(t, ok)| ok as f64 / t.max(1) as f64).collect()
}

/// Fig. 4: the pipeline validates a high fraction but not everything, and
/// validation is much cheaper than re-running the (whole) experiment
/// suggests: rewrites stay proportional to transformations.
#[test]
fn fig4_pipeline_rate_is_high_but_imperfect() {
    let validator = Validator::new();
    let mut transformed = 0;
    let mut validated = 0;
    for (_, m) in reduced_suite(12) {
        let (_, report) = ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &validator);
        transformed += report.transformed();
        validated += report.validated();
    }
    let rate = validated as f64 / transformed as f64;
    assert!(transformed > 80, "pipeline transforms most functions ({transformed})");
    assert!(rate > 0.65, "overall rate {rate:.2} too low vs paper's ~0.8");
    assert!(rate < 1.0, "false alarms must exist (float folding is off), got {rate:.2}");
}

/// Fig. 5: GVN performs the most transformations of any single pass.
#[test]
fn fig5_gvn_transforms_most() {
    let modules = reduced_suite(10);
    let per_pass: Vec<(&str, usize)> = ["adce", "gvn", "sccp", "licm", "ld", "lu", "dse"]
        .into_iter()
        .map(|pass| {
            let ms = modules.iter().map(|(_, m)| m);
            let reports =
                sweep(&ValidationEngine::serial(), ms, &one_pass(pass), &[Validator::new()]);
            (pass, totals(&reports)[0].0)
        })
        .collect();
    let gvn = per_pass.iter().find(|(p, _)| *p == "gvn").expect("gvn ran").1;
    let max = per_pass.iter().map(|&(_, t)| t).max().expect("non-empty");
    // On the synthetic suite ADCE edges out GVN (any dead instruction counts
    // as "transformed"); GVN must still be in the top tier, far ahead of the
    // loop passes — the paper's "GVN is the most important" observation.
    assert!(gvn * 2 > max, "GVN must be a top-tier transformer: {per_pass:?}");
    let licm = per_pass.iter().find(|(p, _)| *p == "licm").expect("licm ran").1;
    let ld = per_pass.iter().find(|(p, _)| *p == "ld").expect("ld ran").1;
    assert!(gvn > ld && licm > ld, "value passes transform more than loop deletion: {per_pass:?}");
}

/// Fig. 6: GVN validation never *decreases* as rule groups accumulate, and
/// the full ladder beats no-rules.
#[test]
fn fig6_gvn_rules_monotone() {
    let validators: Vec<_> = (1..=6)
        .map(|step| Validator { rules: RuleSet::fig6_step(step), ..Validator::new() })
        .collect();
    let rates = rates(&reduced_suite(10), &one_pass("gvn"), &validators);
    for w in rates.windows(2) {
        assert!(w[1] >= w[0] - 0.02, "rule groups must not hurt: {rates:?}");
    }
    assert!(rates[5] >= rates[0], "full ladder at least as good as none: {rates:?}");
}

/// Fig. 7: LICM's no-rule baseline is already high (the construction skips
/// η for invariant values), and libc knowledge removes residual strlen
/// false alarms.
#[test]
fn fig7_licm_baseline_high_libc_helps() {
    let validators = [RuleSet::none(), RuleSet::all(), RuleSet { libc: true, ..RuleSet::all() }]
        .map(|rules| Validator { rules, ..Validator::new() });
    let rates = rates(&reduced_suite(12), &one_pass("licm"), &validators);
    assert!(rates[0] > 0.6, "no-rule LICM baseline must be high: {rates:?}");
    assert!(rates[2] >= rates[1], "libc knowledge must not hurt: {rates:?}");
    assert!(rates[2] > rates[0] - 0.02, "full config at least baseline: {rates:?}");
}

/// Fig. 8: SCCP without rules is poor; constant folding gives a large jump.
#[test]
fn fig8_sccp_needs_constant_folding() {
    let validators: Vec<_> = (1..=4)
        .map(|step| Validator { rules: RuleSet::fig8_step(step), ..Validator::new() })
        .collect();
    let rates = rates(&reduced_suite(10), &one_pass("sccp"), &validators);
    assert!(
        rates[1] >= rates[0] + 0.1 || rates[0] > 0.85,
        "constant folding must give SCCP a big jump: {rates:?}"
    );
    assert!(rates[3] >= rates[1] - 0.02, "all rules at least as good: {rates:?}");
}

/// §5.4: unification and partitioning are comparable; combined is at least
/// as good as each; everything beats no cycle matching on loopy code.
#[test]
fn ablation_cycle_matching_shapes() {
    let validators = [
        MatchStrategy::None,
        MatchStrategy::Unification,
        MatchStrategy::Partition,
        MatchStrategy::Combined,
    ]
    .map(|strategy| Validator { strategy, ..Validator::new() });
    // lbm/hmmer: loop-heavy profiles.
    let loopy: Vec<_> = reduced_suite(10)
        .into_iter()
        .filter(|(name, _)| ["lbm", "hmmer", "bzip2"].contains(&name.as_str()))
        .collect();
    let rates = rates(&loopy, &paper_pipeline(), &validators);
    let [none, unif, part, comb] = rates[..] else { panic!("four strategies") };
    assert!(unif > none, "unification must beat no matching: {rates:?}");
    assert!(part > none, "partitioning must beat no matching: {rates:?}");
    assert!((unif - part).abs() < 0.25, "strategies roughly comparable: {rates:?}");
    assert!(comb + 0.02 >= unif.max(part), "combined at least as good: {rates:?}");
}

/// §5.1: irreducible functions are rejected by the front end, not crashed on.
#[test]
fn irreducible_functions_are_rejected_cleanly() {
    let m = llvm_md::workload::corpus_modules()
        .into_iter()
        .find(|(n, _)| *n == "irreducible")
        .expect("corpus has the irreducible entry")
        .1;
    let v = Validator::new();
    let verdict = v.validate(&m.functions[0], &m.functions[0]);
    assert!(!verdict.validated);
    assert!(matches!(
        verdict.reason,
        Some(llvm_md::core::FailReason::Gate(llvm_md::gated::GateError::Irreducible))
    ));
}
