//! Table 2 (this repo's analogue of the paper's headline evaluation):
//! alarm-triage rates per rule-set ablation.
//!
//! For each rule configuration the harness runs two sweeps:
//!
//! * the **pinned synthetic suite** through the full optimize → validate →
//!   triage pipeline. The optimizer is correct, so every alarm is a false
//!   alarm — triage must classify them `SuspectedIncomplete`; any
//!   `RealMiscompile` here would be an optimizer (or triage) bug and is
//!   reported loudly;
//! * the **injected-bug corpus** (`llvm_md_workload::inject`): deliberately
//!   miscompiled pairs with known-divergent semantics — triage must
//!   classify every one `RealMiscompile` with a witness, under every rule
//!   configuration (soundness: more rules never validate a miscompile).
//!
//! Writes `BENCH_triage.json` with per-ablation false-alarm and
//! caught-miscompile rates. Accepts `--scale N` (default 4) and
//! `--battery N` (default 16) to bound the differential-interpretation
//! cost.

use lir_opt::paper_pipeline;
use llvm_md_bench::{bar, pct, scale_from_args, suite, usize_flag, write_artifact};
use llvm_md_core::{Cascade, Json, Normalizer, RuleSet, TriageClass, TriageOptions, Validator};
use llvm_md_driver::ValidationEngine;
use llvm_md_workload::injected_corpus;

/// The cumulative rule-set ablations of Fig. 6 plus the two opt-in groups —
/// the axis the paper's false-alarm story moves along — all under the
/// paper's destructive normalizer, then the full rule set again under the
/// two equality-saturation modes ([`llvm_md_core::egraph`]). The pure
/// `saturate` row is an ablation datum: order-independent but budgeted, it
/// discharges the destructive engine's stubborn false alarms while
/// regressing a handful of pairs that needed the destructive engine's
/// deeper rewrite sequences. `saturate-fallback` composes both engines and
/// is the headline: it can only remove alarms, never add one.
fn ablations() -> Vec<(&'static str, RuleSet, Normalizer)> {
    vec![
        ("none", RuleSet::none(), Normalizer::Destructive),
        ("+phi", RuleSet::fig6_step(2), Normalizer::Destructive),
        ("+constfold", RuleSet::fig6_step(3), Normalizer::Destructive),
        ("+loadstore", RuleSet::fig6_step(4), Normalizer::Destructive),
        ("+eta", RuleSet::fig6_step(5), Normalizer::Destructive),
        ("all", RuleSet::all(), Normalizer::Destructive),
        ("full (+libc,+float)", RuleSet::full(), Normalizer::Destructive),
        ("full saturate", RuleSet::full(), Normalizer::Saturate),
        ("full sat-fallback", RuleSet::full(), Normalizer::SaturateFallback),
    ]
}

fn main() {
    let scale = scale_from_args();
    let opts = TriageOptions { battery: usize_flag("--battery", 16), ..TriageOptions::default() };
    let engine = ValidationEngine::new();
    let pm = paper_pipeline();
    let modules = suite(scale);
    let bugs = injected_corpus();
    println!("Table 2: alarm triage per rule-set ablation (suite at 1/{scale} scale,");
    println!(
        "         battery of {} inputs per alarm, {} injected bugs)",
        opts.battery,
        bugs.len()
    );
    println!(
        "{:22} | {:>11} {:>6} {:>9} {:>7} | {:>6} {:>11}",
        "rules", "transformed", "alarms", "suspected", "miscls", "caught", "caught rate"
    );
    println!("{}", "-".repeat(88));
    let mut rows = Vec::new();
    for (name, rules, normalizer) in ablations() {
        let cascade = Cascade::Triage(opts);
        let validator = Validator { rules, normalizer, cascade, ..Validator::new() };
        // Sweep 1: the pinned suite. All alarms should triage as suspected
        // incompletenesses (the optimizer is correct).
        let mut transformed = 0;
        let mut alarms = 0;
        let mut suspected = 0;
        let mut misclassified = 0;
        let mut sat_runs = 0;
        let mut sat_capped = 0;
        for (_, m) in &modules {
            let (_, report) = engine.llvm_md(m, &pm, &validator);
            transformed += report.transformed();
            alarms += report.alarms();
            suspected += report.suspected_incomplete();
            misclassified += report.real_miscompiles();
            for rec in &report.records {
                if let Some(s) = &rec.saturation {
                    sat_runs += 1;
                    sat_capped += usize::from(!s.saturated);
                }
            }
        }
        // Sweep 2: the injected-bug corpus. Every bug must be caught.
        let mut caught = 0;
        let mut witnesses = Vec::new();
        for bug in &bugs {
            let original = bug.module.function(bug.function).expect("function exists");
            let broken = bug.broken.function(bug.function).expect("function exists");
            let tv = validator.validate_cascade(&bug.module, original, broken);
            let triage = tv.triage.as_ref();
            let is_caught = triage.is_some_and(|t| t.class == TriageClass::RealMiscompile);
            if is_caught {
                caught += 1;
            }
            // Witness args are raw u64 bit patterns; JSON numbers are f64
            // and would corrupt values above 2^53, so serialize as decimal
            // strings to keep the artifact exactly replayable.
            let witness_args: Vec<Json> = triage
                .and_then(|t| t.witness.as_ref())
                .map(|w| w.args.iter().map(|&a| Json::str(a.to_string())).collect())
                .unwrap_or_default();
            witnesses.push(Json::obj([
                ("bug", Json::str(bug.name)),
                ("kind", Json::str(bug.kind.name())),
                ("caught", Json::Bool(is_caught)),
                ("witness", Json::Arr(witness_args)),
            ]));
        }
        let caught_rate = pct(caught, bugs.len());
        println!(
            "{:22} | {:>11} {:>6} {:>9} {:>7} | {:>6} {:>10.1}% {}",
            name,
            transformed,
            alarms,
            suspected,
            misclassified,
            caught,
            caught_rate,
            bar(caught_rate / 100.0, 16)
        );
        if misclassified > 0 {
            println!(
                "  !! {misclassified} suite alarm(s) triaged as REAL MISCOMPILES under `{name}` — \
                 either the optimizer is buggy or triage is wrong; investigate before trusting \
                 this artifact"
            );
        }
        rows.push(Json::obj([
            ("rules", Json::str(name)),
            ("normalizer", Json::str(normalizer.as_str())),
            ("suite_transformed", Json::num(transformed as f64)),
            ("suite_alarms", Json::num(alarms as f64)),
            ("suite_false_alarm_rate", Json::num(alarms as f64 / (transformed.max(1)) as f64)),
            ("suite_suspected_incomplete", Json::num(suspected as f64)),
            ("suite_real_miscompiles", Json::num(misclassified as f64)),
            ("saturation_runs", Json::num(sat_runs as f64)),
            ("saturation_capped", Json::num(sat_capped as f64)),
            ("injected_bugs", Json::num(bugs.len() as f64)),
            ("injected_caught", Json::num(caught as f64)),
            ("injected_caught_rate", Json::num(caught as f64 / (bugs.len().max(1)) as f64)),
            ("injected_detail", Json::Arr(witnesses)),
        ]));
    }
    println!("{}", "-".repeat(88));
    println!(
        "false-alarm rate falls overall as rule groups accumulate (individual steps may \n\
         wobble: speculative rules like unswitch can add an alarm); caught rate must stay 100%.\n\
         `full sat-fallback` is the saturation headline — destructive first, equality \n\
         saturation on its false alarms — and must alarm strictly less than `full`; pure \n\
         `full saturate` is the order-independence ablation and may trade alarms both ways."
    );
    let artifact = Json::obj([
        ("exhibit", Json::str("table2_triage")),
        ("scale", Json::num(scale as f64)),
        ("battery", Json::num(opts.battery as f64)),
        ("ablations", Json::Arr(rows)),
    ]);
    let path = write_artifact("triage", &artifact).expect("write BENCH_triage.json");
    println!("wrote {}", path.display());
}
