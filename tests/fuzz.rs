//! Integration tests for the differential-fuzzing subsystem: campaign
//! worker-count determinism (same seed ⇒ equal reports,
//! findings and minimized repros included), the reducer's
//! oracle-preservation contract (a reduced module keeps the original's
//! verdict class), and the repro corpus's regenerability (every finding's
//! module is re-derivable from its `(profile, seed, index)` address).

use llvm_md::core::{Cascade, TriageOptions, Validator};
use llvm_md::driver::{CampaignConfig, FindingKind, FuzzCampaign, Repro, ValidationEngine};
use llvm_md::lir::intern::fnv1a;
use llvm_md::lir::{Function, Module};
use llvm_md::workload::fuzz::campaign_module;
use llvm_md::workload::reduce::{reduce_module, ReduceOptions};
use llvm_md::workload::{fuzz_profile, fuzz_profiles};

fn quick_config() -> CampaignConfig {
    CampaignConfig {
        modules_per_profile: 3,
        chain_every: 3,
        triage: TriageOptions { battery: 6, ..TriageOptions::default() },
        reduce: ReduceOptions { budget: 150 },
        max_findings: 3,
        ..CampaignConfig::default()
    }
}

/// Same seed ⇒ same report at any worker count, on the honest pipeline.
#[test]
fn campaign_is_worker_count_deterministic() {
    let v = Validator::new();
    let serial = FuzzCampaign::new(ValidationEngine::serial(), quick_config())
        .run(&v)
        .expect("known pipeline");
    assert_eq!(serial.soundness_failures(), 0, "honest pipeline must be clean");
    for workers in [2, 4] {
        let par = FuzzCampaign::new(ValidationEngine::with_workers(workers), quick_config())
            .run(&v)
            .expect("known pipeline");
        assert_eq!(par, serial, "workers={workers}: campaign outcomes differ");
    }
}

/// `m` with every function canonicalized: equal to another module's
/// canonical form iff the two differ only in register and block naming.
fn canonical(m: &Module) -> Module {
    Module { functions: m.functions.iter().map(Function::canonicalized).collect(), ..m.clone() }
}

/// Same seed ⇒ same findings (and byte-identical minimized repros) at any
/// worker count, on a pipeline with an injected bug. The repro bytes are
/// pinned: FNV-1a over every stored finding's repro text, in order.
#[test]
fn injected_campaign_findings_are_worker_count_deterministic() {
    let mut config = quick_config();
    config.passes = vec!["adce".to_owned(), "drop-store".to_owned(), "dse".to_owned()];
    let v = Validator::new();
    let serial =
        FuzzCampaign::new(ValidationEngine::serial(), config.clone()).run(&v).expect("resolves");
    assert!(serial.soundness_failures() > 0, "drop-store must be caught");
    assert!(!serial.findings.is_empty());
    let par = FuzzCampaign::new(ValidationEngine::with_workers(4), config.clone())
        .run(&v)
        .expect("resolves");
    assert_eq!(par, serial, "4 workers: findings or repros differ");
    // Every stored finding replays from its persisted form.
    let mut texts = String::new();
    for finding in &serial.findings {
        let text = finding.repro.to_string();
        let repro: Repro = text.parse().expect("repro parses");
        // Every header field survives print/parse exactly; the module does
        // up to register numbering (the parser numbers densely, the reducer
        // leaves gaps).
        assert_eq!(Repro { module: finding.repro.module.clone(), ..repro.clone() }, finding.repro);
        assert_eq!(canonical(&repro.module), canonical(&finding.repro.module));
        assert_eq!(repro.kind, FindingKind::Miscompile);
        let reproduced = repro.reproduces(&v, &config.triage).expect("replays");
        assert!(reproduced, "finding @{} must reproduce", repro.function);
        texts.push_str(&text);
    }
    assert_eq!(serial.findings.len(), 3);
    assert_eq!(fnv1a(texts.as_bytes()), 0x8682_293c_978b_28fc, "repro bytes moved");
}

/// The reducer's oracle-preservation contract, checked against the shared
/// miscompile oracle ([`FindingKind::reproduces`]) itself: for several fuzzed modules under a broken
/// pipeline, the minimized module still classifies as a real miscompile,
/// still verifies, and never grew.
#[test]
fn reducer_preserves_verdict_class() {
    let triage = TriageOptions { battery: 6, ..TriageOptions::default() };
    let v = Validator { cascade: Cascade::Triage(triage), ..Validator::new() };
    let pm = llvm_md::driver::campaign_pass_manager(&[
        "adce".to_owned(),
        "flip-comparison".to_owned(),
        "dse".to_owned(),
    ])
    .expect("resolves");
    let miscompiles = |m: &Module, f: &str| FindingKind::Miscompile.reproduces(m, f, &pm, &v);
    let mut reduced_any = false;
    for (pi, profile) in fuzz_profiles().iter().enumerate().take(3) {
        let m = campaign_module(profile, 0x5eed ^ pi as u64, pi);
        // Find a miscompiling function in this module, if any.
        let Some(f) = m.functions.iter().find(|f| miscompiles(&m, &f.name)).map(|f| f.name.clone())
        else {
            continue;
        };
        let opts = ReduceOptions { budget: 200 };
        let (red, stats) = reduce_module(&m, |cand| miscompiles(cand, &f), &opts);
        llvm_md::lir::verify::verify_module(&red).expect("reduced module verifies");
        assert!(miscompiles(&red, &f), "{}: reduction lost the miscompile class", profile.name);
        assert!(stats.insts_after <= stats.insts_before, "{stats:?}");
        reduced_any |= stats.accepted > 0;
    }
    assert!(reduced_any, "at least one module must actually shrink");
}

/// The repro corpus is regenerable: a finding's original module is exactly
/// `campaign_module(profile, seed, index)` — the `(profile, seed, index)`
/// triple in the repro header is a complete address.
#[test]
fn findings_regenerate_from_their_address() {
    let mut config = quick_config();
    config.passes = vec!["adce".to_owned(), "skip-phi".to_owned(), "dse".to_owned()];
    config.max_findings = 2;
    let report = FuzzCampaign::new(ValidationEngine::serial(), config)
        .run(&Validator::new())
        .expect("resolves");
    assert!(!report.findings.is_empty(), "skip-phi must be caught");
    for finding in &report.findings {
        let repro = &finding.repro;
        assert_eq!(repro.seed, report.seed);
        let profile = fuzz_profile(&repro.profile).expect("profile name round-trips");
        let regenerated = campaign_module(&profile, repro.seed, repro.index);
        assert_eq!(
            format!("{regenerated}"),
            format!("{}", finding.original),
            "finding ({}, {:#x}, {}) must regenerate byte-identically",
            repro.profile,
            repro.seed,
            repro.index
        );
    }
}
