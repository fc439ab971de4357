//! Wire-format guarantees, end to end:
//!
//! * **Fixpoint**: every report encoded from *real* validation and chain
//!   runs parses back to the same `Json` tree and re-encodes to the exact
//!   same bytes.
//! * **Pinned bytes**: every enum variant and a set of hand-built records
//!   encode to literal expected strings, and the encoded scale-4 suite is
//!   pinned by FNV-1a fingerprints under the full cascade and under the
//!   tier-1 normalizer and cycle-matching configurations it leaves out.
//! * **Determinism contract**: report equality, generated from each
//!   record's field table, ignores exactly the `timing` fields.
//! * **Artifacts**: every committed `BENCH_*.json` baseline parses through
//!   [`wire::parse`] and satisfies the same `encode ∘ parse` fixpoint, so
//!   the artifacts the bench bins emit are readable by the code that
//!   emitted them.
//! * **Versioning**: the strict `schema_version` policy holds for driver
//!   documents exactly as it does for core ones.

use llvm_md::core::wire::{self, Json, ToWire};
use llvm_md::core::{
    CacheStats, Cascade, MatchStrategy, Normalizer, RuleSet, SatOptions, Triage, TriageClass,
    TriageOptions, TriagedVerdict, Validator,
};
use llvm_md::driver::{
    CampaignConfig, ChainReport, ChainValidator, FunctionRecord, FuzzCampaign, Report,
    ValidationEngine,
};
use llvm_md::lir::func::Module;
use llvm_md::lir::intern::Fnv1a;
use llvm_md::opt::{paper_pipeline, pass_by_name, PassManager};
use llvm_md::workload::{generate_suite, injected_corpus, BrokenPass};
use std::fmt::Write;
use std::hash::Hasher;
use std::time::Duration;

/// `doc`'s text parses back to the same tree and re-encodes to the same
/// bytes; returns the parsed tree.
fn assert_fixpoint(doc: &Json, what: &str) -> Json {
    let text = doc.to_string();
    let reparsed = wire::parse(&text).unwrap_or_else(|e| panic!("{what}: unparseable: {e}"));
    assert_eq!(&reparsed, doc, "{what}: parse must invert encode");
    assert_eq!(reparsed.to_string(), text, "{what}: re-encode must be byte-identical");
    reparsed
}

fn tiered_validator() -> Validator {
    Validator {
        cascade: Cascade::Tiered(TriageOptions::default(), SatOptions::default()),
        ..Validator::new()
    }
}

#[test]
fn suite_reports_round_trip_through_the_wire() {
    let engine = ValidationEngine::with_workers(2);
    let triage = TriageOptions { battery: 4, ..TriageOptions::default() };
    let validator = Validator { cascade: Cascade::Triage(triage), ..Validator::new() };
    let pm = paper_pipeline();
    for (_, module) in generate_suite(4) {
        let mut output = module.clone();
        pm.run_module(&mut output);
        let report = engine.validate_modules(&module, &output, &validator);
        for rec in &report.records {
            assert_fixpoint(&rec.to_wire(), &format!("record `{}`", rec.name));
        }
        let doc = assert_fixpoint(&report.to_wire(), "module report");
        let records = doc.get("records").and_then(Json::as_arr).expect("records array");
        assert_eq!(records.len(), report.records.len());
        for (line, rec) in records.iter().zip(&report.records) {
            assert_eq!(line.str_field("name").unwrap(), rec.name);
            assert_eq!(line.get("validated"), Some(&Json::Bool(rec.validated)), "{}", rec.name);
        }
    }
}

#[test]
fn chain_reports_round_trip_through_the_wire() {
    let engine = ValidationEngine::with_workers(2);
    let validator = Validator::new();
    let pm = paper_pipeline();
    let chain = ChainValidator::new(engine);
    for (_, module) in generate_suite(2).into_iter().take(4) {
        let report = chain.validate_chain(&module, &pm, &validator);
        let doc = assert_fixpoint(&report.to_wire(), "chain report");
        let len = |key: &str| doc.get(key).and_then(Json::as_arr).map(<[Json]>::len);
        assert_eq!(len("steps"), Some(report.steps.len()));
        assert_eq!(len("blames"), Some(report.blames.len()));
        let cache = doc.get("cache").expect("cache stats");
        assert_eq!(cache.u64_field("hits").unwrap(), report.cache.hits);
        assert_eq!(cache.u64_field("misses").unwrap(), report.cache.misses);
    }
}

fn retime_triage(triage: &mut Option<Triage>) {
    if let Some(sat) = triage.as_mut().and_then(|t| t.sat.as_mut()) {
        sat.duration += Duration::from_millis(3);
    }
}

fn retime_report(report: &mut Report) {
    report.opt_time += Duration::from_secs(1);
    report.validate_time += Duration::from_secs(2);
    for rec in &mut report.records {
        rec.duration += Duration::from_millis(5);
        retime_triage(&mut rec.triage);
    }
}

/// Report equality is the determinism contract: moving every `timing`
/// field of a real tiered report keeps it equal, and moving any one
/// outcome field makes it unequal.
#[test]
fn equality_ignores_exactly_the_timing_fields() {
    let engine = ValidationEngine::with_workers(2);
    let validator = tiered_validator();
    let pm = paper_pipeline();
    let chain = ChainValidator::new(engine);
    let has_sat = |t: &Option<Triage>| t.as_ref().is_some_and(|t| t.sat.is_some());
    // The first suite module whose chain blames an alarm that reached tier 2.
    let (module, chained) = generate_suite(4)
        .into_iter()
        .map(|(_, m)| {
            let c = chain.validate_chain(&m, &pm, &validator);
            (m, c)
        })
        .find(|(_, c)| c.blames.iter().any(|b| has_sat(&b.triage)))
        .expect("the scale-4 suite has a tiered alarm");
    let mut output = module.clone();
    pm.run_module(&mut output);
    let report = engine.validate_modules(&module, &output, &validator);
    let alarm = report.records.iter().position(|r| has_sat(&r.triage)).expect("tiered alarm");

    let mut retimed = report.clone();
    retime_report(&mut retimed);
    assert_eq!(retimed, report, "timing fields must not affect report equality");
    let mut moved = report.clone();
    moved.records[alarm].rounds += 1;
    assert_ne!(moved, report, "FunctionRecord::rounds is an outcome");
    let mut moved = report.clone();
    moved.records[alarm].triage.as_mut().and_then(|t| t.sat.as_mut()).unwrap().vars += 1;
    assert_ne!(moved, report, "SatStats::vars is an outcome");

    let mut retimed = chained.clone();
    retimed.steps.iter_mut().for_each(|s| retime_report(&mut s.report));
    retime_report(&mut retimed.end_to_end);
    retimed.blames.iter_mut().for_each(|b| retime_triage(&mut b.triage));
    retimed.cache.hits += 7;
    retimed.cache.misses += 1;
    assert_eq!(retimed, chained, "timing fields must not affect chain equality");
    let mut moved = chained.clone();
    moved.blames[0].step += 1;
    assert_ne!(moved, chained, "Blame::step is an outcome");
    let mut moved = chained.clone();
    moved.steps[0].report.records[0].insts_after += 1;
    assert_ne!(moved, chained, "step records are outcomes");

    let name = &report.records[alarm].name;
    let pick = |m: &Module| m.functions.iter().find(|f| &f.name == name).cloned().unwrap();
    let tv = validator.validate_cascade(&module, &pick(&module), &pick(&output));
    assert!(has_sat(&tv.triage), "the alarm reaches tier 2 on its own too");
    let mut retimed = tv.clone();
    retimed.verdict.stats.duration += Duration::from_secs(1);
    retime_triage(&mut retimed.triage);
    assert_eq!(retimed, tv, "timing fields must not affect verdict equality");
    let mut moved = tv.clone();
    moved.verdict.stats.rounds += 1;
    assert_ne!(moved, tv, "ValidationStats::rounds is an outcome");

    let config = CampaignConfig {
        modules_per_profile: 1,
        passes: vec!["gvn".into(), "flip-comparison".into()],
        chain_every: 0,
        triage: TriageOptions { battery: 4, ..TriageOptions::default() },
        max_findings: 1,
        ..CampaignConfig::default()
    };
    let campaign = FuzzCampaign::new(ValidationEngine::with_workers(2), config)
        .run(&validator)
        .expect("known pipeline");
    let mut retimed = campaign.clone();
    retimed.wall += Duration::from_secs(60);
    assert_eq!(retimed, campaign, "wall-clock must not affect campaign equality");
    let mut moved = campaign.clone();
    moved.findings_truncated += 1;
    assert_ne!(moved, campaign, "CampaignReport::findings_truncated is an outcome");
}

#[test]
fn committed_bench_artifacts_parse_and_fixpoint() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(root).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = wire::parse(text.trim_end())
            .unwrap_or_else(|e| panic!("{name}: committed artifact unparseable: {e}"));
        let encoded = doc.to_string();
        let again = wire::parse(&encoded).unwrap_or_else(|e| panic!("{name}: re-parse: {e}"));
        assert_eq!(again, doc, "{name}: encode must be a parse fixpoint");
        assert_eq!(again.to_string(), encoded, "{name}: second encode must be byte-identical");
    }
    assert!(seen >= 5, "expected the committed BENCH_*.json baselines, found {seen}");
}

#[test]
fn driver_documents_obey_the_strict_version_policy() {
    let doc = wire::envelope("report", [("x", Json::num(1.0))]);
    wire::check_version(&doc).expect("current version must pass");
    let future = Json::obj([
        (wire::VERSION_KEY, Json::num((wire::SCHEMA_VERSION + 1) as f64)),
        ("type", Json::str("report")),
    ]);
    assert!(wire::check_version(&future).is_err(), "future versions must be rejected");
    let missing = Json::obj([("type", Json::str("report"))]);
    assert!(wire::check_version(&missing).is_err(), "unversioned documents must be rejected");
}

// ------------------------------------------------------------- byte pins

/// Every variant of the enum vocabulary, with the exact bytes it encodes
/// to. Verdict lines are replayed from the store verbatim, so an encoder
/// change must show up here, never silently.
#[test]
fn enum_vocabulary_encodes_to_pinned_bytes() {
    use llvm_md::core::{FailReason, SatOutcome, SatSkip};
    use llvm_md::gated::GateError;
    use llvm_md::lir::interp::Trap;
    let fail_reasons = [
        (FailReason::Gate(GateError::Irreducible), r#"{"kind":"gate","gate":"irreducible"}"#),
        (
            FailReason::Gate(GateError::Malformed("entry has φ".to_owned())),
            r#"{"kind":"gate","gate":"malformed","detail":"entry has φ"}"#,
        ),
        (FailReason::Signature, r#"{"kind":"signature"}"#),
        (FailReason::RootsDiffer, r#"{"kind":"roots-differ"}"#),
        (FailReason::Budget, r#"{"kind":"budget"}"#),
        (FailReason::MissingFunction, r#"{"kind":"missing-function"}"#),
        (FailReason::ExtraFunction, r#"{"kind":"extra-function"}"#),
    ];
    for (value, bytes) in fail_reasons {
        assert_eq!(value.to_wire().to_string(), bytes, "{value:?}");
    }
    let traps = [
        (Trap::DivByZero, r#"{"kind":"div-by-zero"}"#),
        (
            Trap::OutOfBounds { addr: u64::MAX },
            r#"{"kind":"out-of-bounds","addr":"0xffffffffffffffff"}"#,
        ),
        (Trap::OutOfFuel, r#"{"kind":"out-of-fuel"}"#),
        (Trap::UnknownFunction("puts".to_owned()), r#"{"kind":"unknown-function","name":"puts"}"#),
        (Trap::Unreachable, r#"{"kind":"unreachable"}"#),
        (Trap::StackOverflow, r#"{"kind":"stack-overflow"}"#),
        (Trap::UndefValue, r#"{"kind":"undef-value"}"#),
    ];
    for (value, bytes) in traps {
        assert_eq!(value.to_wire().to_string(), bytes, "{value:?}");
    }
    let sat_outcomes = [
        (SatOutcome::Proved, r#"{"kind":"proved"}"#),
        (SatOutcome::Refuted, r#"{"kind":"refuted"}"#),
        (SatOutcome::Inconclusive, r#"{"kind":"inconclusive"}"#),
        (SatOutcome::Capped, r#"{"kind":"capped"}"#),
        (SatOutcome::Skipped(SatSkip::Classified), r#"{"kind":"skipped","reason":"classified"}"#),
        (SatOutcome::Skipped(SatSkip::Reason), r#"{"kind":"skipped","reason":"reason"}"#),
        (
            SatOutcome::Skipped(SatSkip::MemoryRoots),
            r#"{"kind":"skipped","reason":"memory-roots"}"#,
        ),
        (
            SatOutcome::Skipped(SatSkip::UnsupportedOp),
            r#"{"kind":"skipped","reason":"unsupported-op"}"#,
        ),
    ];
    for (value, bytes) in sat_outcomes {
        assert_eq!(value.to_wire().to_string(), bytes, "{value:?}");
    }
}

/// Hand-built records covering every record encoder in core, including
/// the hex-word, byte-string, call-trace and trap-or-ok overrides and
/// `null` for absent options.
#[test]
fn record_fixtures_encode_to_pinned_bytes() {
    use llvm_md::core::{
        DivergentRoots, FailReason, RewriteCounts, SatOutcome, SatStats, SaturationStats,
        SolverStats, ValidationStats, Verdict, Witness,
    };
    use llvm_md::lir::interp::{Outcome, Trap};
    use std::time::Duration;

    let trapping = Witness {
        args: vec![0, u64::MAX, 0x1234_5678_9abc_def0],
        original: Outcome {
            ret: Some(u64::MAX - 1),
            globals: vec![vec![1, 2, 3], vec![]],
            trace: vec![("printf".to_owned(), vec![7, u64::MAX])],
        },
        optimized: Err(Trap::OutOfBounds { addr: u64::MAX }),
    };
    assert_eq!(
        trapping.to_wire().to_string(),
        concat!(
            r#"{"args":["0x0","0xffffffffffffffff","0x123456789abcdef0"],"#,
            r#""original":{"ret":"0xfffffffffffffffe","globals":["010203",""],"#,
            r#""trace":[{"name":"printf","args":["0x7","0xffffffffffffffff"]}]},"#,
            r#""optimized":{"trap":{"kind":"out-of-bounds","addr":"0xffffffffffffffff"}}}"#,
        )
    );
    let returning = Witness {
        args: vec![3],
        original: Outcome { ret: None, globals: vec![], trace: vec![] },
        optimized: Ok(Outcome {
            ret: Some(1),
            globals: vec![vec![0xff]],
            trace: vec![("puts".to_owned(), vec![])],
        }),
    };
    assert_eq!(
        returning.to_wire().to_string(),
        concat!(
            r#"{"args":["0x3"],"original":{"ret":null,"globals":[],"trace":[]},"#,
            r#""optimized":{"ok":{"ret":"0x1","globals":["ff"],"trace":[{"name":"puts","args":[]}]}}}"#,
        )
    );

    let verdict = Verdict {
        validated: false,
        reason: Some(FailReason::RootsDiffer),
        stats: ValidationStats {
            nodes_initial: 120,
            nodes_final: 88,
            rounds: 7,
            rewrites: RewriteCounts { phi: 3, constfold: 2, ..RewriteCounts::default() },
            cycle_merges: 1,
            duration: Duration::from_nanos(123_456_789),
            divergent_roots: Some(DivergentRoots {
                original: "(add x 1)".to_owned(),
                optimized: "(add x 2)".to_owned(),
            }),
            saturation: Some(SaturationStats {
                iterations: 5,
                e_classes: 40,
                e_nodes: 61,
                saturated: true,
            }),
        },
    };
    assert_eq!(
        verdict.to_wire().to_string(),
        concat!(
            r#"{"validated":false,"reason":{"kind":"roots-differ"},"stats":{"nodes_initial":120,"#,
            r#""nodes_final":88,"rounds":7,"rewrites":{"phi":3,"constfold":2,"loadstore":0,"#,
            r#""eta":0,"commuting":0,"libc":0,"float":0},"cycle_merges":1,"duration_ns":123456789,"#,
            r#""divergent_roots":{"original":"(add x 1)","optimized":"(add x 2)"},"#,
            r#""saturation":{"iterations":5,"e_classes":40,"e_nodes":61,"saturated":true}}}"#,
        )
    );

    let triaged = TriagedVerdict {
        verdict: Verdict {
            validated: false,
            reason: Some(FailReason::Budget),
            stats: ValidationStats::default(),
        },
        triage: Some(Triage {
            class: TriageClass::SuspectedIncomplete,
            witness: None,
            rewrites: RewriteCounts { eta: 4, ..RewriteCounts::default() },
            divergent_roots: None,
            inputs_run: 16,
            inputs_skipped: 2,
            sat: Some(SatStats {
                outcome: Some(SatOutcome::Proved),
                vars: 1498,
                clauses: 4283,
                unrolled: 3,
                residuals: 1,
                solver: SolverStats {
                    conflicts: 0,
                    decisions: 9,
                    propagations: 120,
                    restarts: 0,
                    learned: 0,
                },
                duration: Duration::from_nanos(1_400_000),
            }),
        }),
    };
    assert_eq!(
        triaged.to_wire().to_string(),
        concat!(
            r#"{"verdict":{"validated":false,"reason":{"kind":"budget"},"stats":{"nodes_initial":0,"#,
            r#""nodes_final":0,"rounds":0,"rewrites":{"phi":0,"constfold":0,"loadstore":0,"eta":0,"#,
            r#""commuting":0,"libc":0,"float":0},"cycle_merges":0,"duration_ns":0,"#,
            r#""divergent_roots":null,"saturation":null}},"triage":{"class":"suspected-incomplete","#,
            r#""witness":null,"rewrites":{"phi":0,"constfold":0,"loadstore":0,"eta":4,"commuting":0,"#,
            r#""libc":0,"float":0},"divergent_roots":null,"inputs_run":16,"inputs_skipped":2,"#,
            r#""sat":{"outcome":{"kind":"proved"},"vars":1498,"clauses":4283,"unrolled":3,"#,
            r#""residuals":1,"solver":{"conflicts":0,"decisions":9,"propagations":120,"restarts":0,"#,
            r#""learned":0},"duration_ns":1400000}}}"#,
        )
    );
}

/// Zero the run-to-run timing fields of a record: its duration and its
/// tier-2 query time.
fn zero_record_timing(rec: &mut FunctionRecord) {
    rec.duration = Duration::ZERO;
    zero_triage_timing(&mut rec.triage);
}

fn zero_triage_timing(triage: &mut Option<Triage>) {
    if let Some(sat) = triage.as_mut().and_then(|t| t.sat.as_mut()) {
        sat.duration = Duration::ZERO;
    }
}

fn zero_report_timing(report: &mut Report) {
    report.opt_time = Duration::ZERO;
    report.validate_time = Duration::ZERO;
    report.records.iter_mut().for_each(zero_record_timing);
}

fn zero_chain_timing(chain: &mut ChainReport) {
    for step in &mut chain.steps {
        zero_report_timing(&mut step.report);
    }
    zero_report_timing(&mut chain.end_to_end);
    for blame in &mut chain.blames {
        zero_triage_timing(&mut blame.triage);
    }
    chain.cache = CacheStats::default();
}

/// The encoded scale-4 suite under the full cascade, pinned by one FNV-1a
/// fingerprint: every module's end-to-end `Report` and `ChainReport`,
/// with timing fields zeroed. Any byte an encoder (or a verdict) moves
/// changes the fingerprint.
#[test]
fn tiered_suite_reports_encode_to_pinned_bytes() {
    let engine = ValidationEngine::with_workers(2);
    let validator = Validator {
        cascade: Cascade::Tiered(TriageOptions::default(), SatOptions::default()),
        ..Validator::new()
    };
    let pm = paper_pipeline();
    let chain = ChainValidator::new(engine);
    let mut h = Fnv1a::new();
    for (_, module) in generate_suite(4) {
        let mut output = module.clone();
        pm.run_module(&mut output);
        let mut report = engine.validate_modules(&module, &output, &validator);
        zero_report_timing(&mut report);
        let mut chained = chain.validate_chain(&module, &pm, &validator);
        zero_chain_timing(&mut chained);
        write!(h, "{}\n{}\n", report.to_wire(), chained.to_wire()).unwrap();
    }
    let got = h.finish();
    let pinned: u64 = 0xca50_6490_d390_09db;
    assert_eq!(got, pinned, "encoded tiered suite drifted (fingerprint {got:#018x})");
}

/// The encoded scale-4 suite under the tier-1 configurations the two pins
/// above leave out, pinned by one FNV-1a fingerprint over every module's
/// `Report` with timing zeroed:
///
/// * the saturate-fallback normalizer with every rule, the only path that
///   reroots classes and re-interns members;
/// * speculative unification alone;
/// * partition refinement alone.
#[test]
fn normalizer_and_matcher_configurations_encode_to_pinned_bytes() {
    let engine = ValidationEngine::with_workers(2);
    let validators = [
        Validator {
            normalizer: Normalizer::SaturateFallback,
            rules: RuleSet::full(),
            ..Validator::new()
        },
        Validator { strategy: MatchStrategy::Unification, ..Validator::new() },
        Validator { strategy: MatchStrategy::Partition, ..Validator::new() },
    ];
    let pm = paper_pipeline();
    let mut h = Fnv1a::new();
    for (_, module) in generate_suite(4) {
        let mut output = module.clone();
        pm.run_module(&mut output);
        for validator in &validators {
            let mut report = engine.validate_modules(&module, &output, validator);
            zero_report_timing(&mut report);
            writeln!(h, "{}", report.to_wire()).unwrap();
        }
    }
    let got = h.finish();
    let pinned: u64 = 0x62a8_ed04_ac28_a93b;
    assert_eq!(got, pinned, "encoded configuration reports drifted (fingerprint {got:#018x})");
}

/// Every injected bug spliced mid-pipeline (`adce` → the broken pass →
/// `gvn`) and chain-validated under the full cascade, pinned by one FNV-1a
/// fingerprint over the encoded `ChainReport`s with timing zeroed. Unlike
/// the suite pin, these chains blame real miscompiles, so the fingerprint
/// covers blames whose triage carries a witness.
#[test]
fn injected_chain_reports_encode_to_pinned_bytes() {
    let chain = ChainValidator::new(ValidationEngine::with_workers(2));
    let validator = tiered_validator();
    let mut h = Fnv1a::new();
    let mut witnessed = 0;
    for bug in injected_corpus() {
        let mut pm = PassManager::new();
        pm.add(pass_by_name("adce").expect("known pass"));
        pm.add(Box::new(BrokenPass(bug.kind)));
        pm.add(pass_by_name("gvn").expect("known pass"));
        let mut chained = chain.validate_chain(&bug.module, &pm, &validator);
        zero_chain_timing(&mut chained);
        witnessed += chained
            .blames
            .iter()
            .filter(|b| b.triage.as_ref().is_some_and(|t| t.witness.is_some()))
            .count();
        writeln!(h, "{}", chained.to_wire()).unwrap();
    }
    assert!(witnessed > 0, "the pin must cover blames that carry a witness");
    let got = h.finish();
    let pinned: u64 = 0xc1b0_ed22_380a_e411;
    assert_eq!(got, pinned, "encoded injected chains drifted (fingerprint {got:#018x})");
}
