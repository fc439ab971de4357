//! Table 4: the tier-2 bit-precise SAT query on the cascade's surviving
//! alarms.
//!
//! Tier 1 (graph normalization) plus triage (differential interpretation)
//! leaves a residue of `SuspectedIncomplete` pairs — transformations the
//! rule set cannot discharge but the interpreter cannot refute either.
//! Tier 2 bit-blasts each in-scope residue pair to CNF and runs the
//! built-in CDCL solver:
//!
//! * **UNSAT** upgrades the pair to `ProvedEquivalent` — a genuine
//!   equivalence proof tier 1 could not produce;
//! * **SAT** models are replayed through the interpreter; a confirmed
//!   divergence escalates to `RealMiscompile` with a minimized witness;
//! * out-of-scope pairs (memory roots not tier-1-merged, unsupported
//!   operations) and budget-capped queries keep their triage verdict.
//!
//! The harness runs two sweeps per rule configuration:
//!
//! * the **pinned synthetic suite** through optimize → validate → triage →
//!   tier 2. The optimizer is correct, so any `RealMiscompile` here would
//!   be a solver/encoder soundness bug and is reported loudly. The
//!   headline row (`full sat-fallback`) must upgrade at least one of its
//!   surviving false alarms to `ProvedEquivalent`;
//! * the **injected-bug corpus**: deliberately miscompiled pairs. Tier 2
//!   must never prove one equivalent (UNSAT on a real miscompile would be
//!   a soundness inversion), and every bug must still be caught.
//!
//! Writes `BENCH_sat.json` with per-configuration upgrade counts and
//! per-alarm solver statistics. Accepts `--scale N` (default 4) and
//! `--battery N` (default 16). The encoder's structural hashing closes the
//! headline proof without search (0 conflicts; 48,126 without the gate
//! memo), so a proved row with many conflicts means the hashing was lost.

use lir_opt::paper_pipeline;
use llvm_md_bench::{scale_from_args, suite, sweep, usize_flag, write_artifact};
use llvm_md_core::triage::VerdictClass;
use llvm_md_core::{
    Cascade, Json, Normalizer, RuleSet, SatOptions, SatOutcome, TriageOptions, Validator,
};
use llvm_md_driver::ValidationEngine;
use llvm_md_workload::injected_corpus;

/// The two tier-1 endpoints whose surviving alarms tier 2 gets to see: the
/// paper's destructive engine under the full rule set, and the
/// destructive-first equality-saturation composition (the tier-1 headline,
/// with the smallest residue).
fn configs() -> Vec<(&'static str, Normalizer)> {
    vec![
        ("full destructive", Normalizer::Destructive),
        ("full sat-fallback", Normalizer::SaturateFallback),
    ]
}

fn outcome_name(outcome: Option<SatOutcome>) -> String {
    match outcome {
        None => "none".to_owned(),
        Some(SatOutcome::Skipped(reason)) => format!("skipped:{}", reason.as_str()),
        Some(SatOutcome::Proved) => "proved".to_owned(),
        Some(SatOutcome::Refuted) => "refuted".to_owned(),
        Some(SatOutcome::Inconclusive) => "inconclusive".to_owned(),
        Some(SatOutcome::Capped) => "capped".to_owned(),
    }
}

fn main() {
    let scale = scale_from_args();
    let topts = TriageOptions { battery: usize_flag("--battery", 16), ..TriageOptions::default() };
    let sopts = SatOptions::default();
    let modules = suite(scale);
    let bugs = injected_corpus();
    let configs = configs();
    let validators: Vec<_> = configs
        .iter()
        .map(|&(_, normalizer)| Validator {
            rules: RuleSet::full(),
            normalizer,
            cascade: Cascade::Tiered(topts, sopts),
            ..Validator::new()
        })
        .collect();
    // Sweep 1, both configurations at once: the pinned suite, optimized
    // once. The optimizer is correct, so tier 2 may only upgrade alarms to
    // proved-equivalent, never escalate.
    let reports = sweep(
        &ValidationEngine::new(),
        modules.iter().map(|(_, m)| m),
        &paper_pipeline(),
        &validators,
    );
    println!("Table 4: tier-2 SAT on surviving alarms (suite at 1/{scale} scale,");
    println!(
        "         battery of {} inputs per alarm, {} injected bugs)",
        topts.battery,
        bugs.len()
    );
    println!(
        "{:18} | {:>6} {:>6} {:>7} {:>6} {:>7} | {:>6} {:>8}",
        "rules", "alarms", "proved", "skipped", "capped", "inconcl", "caught", "inverted"
    );
    println!("{}", "-".repeat(80));
    let mut rows = Vec::new();
    let mut headline_proved = 0;
    let mut inversions = 0;
    for (i, (&(name, normalizer), validator)) in configs.iter().zip(&validators).enumerate() {
        let mut alarms = 0;
        let mut proved = 0;
        let mut skipped = 0;
        let mut capped = 0;
        let mut inconclusive = 0;
        let mut escalated = 0;
        let mut detail = Vec::new();
        for ((profile, _), report) in modules.iter().zip(reports.iter().map(|row| &row[i])) {
            alarms += report.alarms();
            proved += report.proved_equivalent();
            escalated += report.real_miscompiles();
            for rec in &report.records {
                let Some(stats) = rec.triage.as_ref().and_then(|t| t.sat) else { continue };
                match stats.outcome {
                    Some(SatOutcome::Skipped(_)) => skipped += 1,
                    Some(SatOutcome::Capped) => capped += 1,
                    Some(SatOutcome::Inconclusive) => inconclusive += 1,
                    _ => {}
                }
                detail.push(Json::obj([
                    ("profile", Json::str(profile.name)),
                    ("function", Json::str(&rec.name)),
                    ("class", Json::str(rec.class().to_string())),
                    ("outcome", Json::str(outcome_name(stats.outcome))),
                    ("vars", Json::num(stats.vars as f64)),
                    ("clauses", Json::num(stats.clauses as f64)),
                    ("unrolled", Json::num(stats.unrolled as f64)),
                    ("residuals", Json::num(stats.residuals as f64)),
                    ("conflicts", Json::num(stats.solver.conflicts as f64)),
                    ("duration_ms", Json::num(stats.duration.as_secs_f64() * 1e3)),
                ]));
            }
        }
        if name == "full sat-fallback" {
            headline_proved = proved;
        }
        if escalated > 0 {
            println!(
                "  !! {escalated} suite alarm(s) escalated to REAL MISCOMPILES under `{name}` — \
                 the optimizer is correct here, so the encoder or the replay path is wrong; \
                 investigate before trusting this artifact"
            );
        }
        // Sweep 2: the injected-bug corpus. A proved-equivalent verdict on
        // a real miscompile is a soundness inversion — the one outcome the
        // cascade must never produce.
        let mut caught = 0;
        let mut inverted = 0;
        for bug in &bugs {
            let original = bug.module.function(bug.function).expect("function exists");
            let broken = bug.broken.function(bug.function).expect("function exists");
            let tv = validator.validate_cascade(&bug.module, original, broken);
            match tv.class() {
                VerdictClass::RealMiscompile => caught += 1,
                VerdictClass::ProvedEquivalent => inverted += 1,
                _ => {}
            }
        }
        inversions += inverted;
        println!(
            "{:18} | {:>6} {:>6} {:>7} {:>6} {:>7} | {:>6} {:>8}",
            name, alarms, proved, skipped, capped, inconclusive, caught, inverted
        );
        rows.push(Json::obj([
            ("rules", Json::str(name)),
            ("normalizer", Json::str(normalizer.as_str())),
            ("suite_alarms", Json::num(alarms as f64)),
            ("suite_proved_equivalent", Json::num(proved as f64)),
            ("suite_skipped", Json::num(skipped as f64)),
            ("suite_capped", Json::num(capped as f64)),
            ("suite_inconclusive", Json::num(inconclusive as f64)),
            ("suite_escalated", Json::num(escalated as f64)),
            ("injected_bugs", Json::num(bugs.len() as f64)),
            ("injected_caught", Json::num(caught as f64)),
            ("injected_inversions", Json::num(inverted as f64)),
            ("alarm_detail", Json::Arr(detail)),
        ]));
    }
    println!("{}", "-".repeat(80));
    println!(
        "tier 2 must upgrade at least one surviving `full sat-fallback` false alarm to \n\
         proved-equivalent, and `inverted` must stay 0 everywhere: an UNSAT proof on an \n\
         injected miscompile would mean the encoder admits spurious models of equality."
    );
    let artifact = Json::obj([
        ("exhibit", Json::str("table4_sat")),
        ("scale", Json::num(scale as f64)),
        ("battery", Json::num(topts.battery as f64)),
        ("headline_proved", Json::num(headline_proved as f64)),
        ("soundness_inversions", Json::num(inversions as f64)),
        ("configs", Json::Arr(rows)),
    ]);
    let path = write_artifact("sat", &artifact).expect("write BENCH_sat.json");
    println!("wrote {}", path.display());
    assert!(headline_proved >= 1, "tier 2 failed to discharge any surviving headline alarm");
    assert_eq!(inversions, 0, "tier 2 proved an injected miscompile equivalent");
}
