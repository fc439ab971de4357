//! A miniature differential-fuzzing campaign, end to end: generate seeded
//! modules from the named fuzz profiles, stream them through a pipeline
//! with an injected bug, catch the miscompile, shrink it with the
//! outcome-preserving reducer, and replay the persisted repro.
//!
//! This is the `fuzz_campaign` bench bin's loop at example scale — the
//! committed nightly/PR-smoke flow in ~40 lines.
//!
//! Run with: `cargo run --example fuzz_and_reduce`

use llvm_md::core::Validator;
use llvm_md::driver::{CampaignConfig, FindingKind, FuzzCampaign, Repro, ValidationEngine};
use llvm_md::workload::reduce::ReduceOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A short pipeline with a deliberately broken pass in the middle:
    // `skip-phi` forgets φ-joins, the classic forgotten-merge bug.
    let config = CampaignConfig {
        modules_per_profile: 6,
        passes: vec!["adce".into(), "skip-phi".into(), "dse".into()],
        max_findings: 1,
        reduce: ReduceOptions { budget: 300 },
        ..CampaignConfig::default()
    };
    let validator = Validator::new();
    let campaign = FuzzCampaign::new(ValidationEngine::new(), config);
    let report = campaign.run(&validator)?;

    println!("campaign over {} modules:", report.modules_generated());
    for p in &report.profiles {
        println!(
            "  {:14} {:>3} transformed, {:>5.1}% validated, {} real miscompile(s)",
            p.profile,
            p.transformed,
            100.0 * p.validation_rate(),
            p.real_miscompiles
        );
    }
    assert!(report.soundness_failures() > 0, "the injected bug must be caught");

    let finding = &report.findings[0];
    let found = &finding.repro;
    assert_eq!(found.kind, FindingKind::Miscompile);
    println!(
        "\nfound: profile {}, module {}, function @{} — witness args {:?}",
        found.profile, found.index, found.function, found.witness
    );
    println!(
        "reduced {} -> {} instructions in {} oracle calls",
        finding.reduce_stats.insts_before,
        finding.reduce_stats.insts_after,
        finding.reduce_stats.oracle_calls
    );

    // Persist → parse → replay: the repro file is self-contained, and
    // replay asks the same `FindingKind` oracle that drove minimization.
    let repro: Repro = found.to_string().parse()?;
    let reproduced = repro.reproduces(&validator, &campaign.config().triage)?;
    assert!(reproduced, "persisted repro must reproduce");
    println!("\nminimized repro (replays as a {}):\n{}", repro.kind, repro.module);
    Ok(())
}
