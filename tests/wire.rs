//! Wire-format guarantees, end to end:
//!
//! * **Fixpoint**: for every value in the verdict vocabulary — harvested
//!   from *real* validation, chain and campaign runs, not hand-built —
//!   `encode → parse → decode → encode` reproduces the exact bytes, and
//!   the decoded value re-encodes to the same `Json` tree.
//! * **Artifacts**: every committed `BENCH_*.json` baseline parses through
//!   [`wire::parse`] and satisfies the same `encode ∘ parse` fixpoint, so
//!   the artifacts the bench bins emit are readable by the code that
//!   emitted them.
//! * **Versioning**: the strict `schema_version` policy holds for driver
//!   documents exactly as it does for core ones.

use llvm_md::core::wire::{self, FromWire, Json, ToWire};
use llvm_md::core::{Cascade, TriageOptions, Validator};
use llvm_md::driver::{
    CampaignConfig, CampaignReport, ChainReport, ChainValidator, FuzzCampaign, Report,
    ValidationEngine,
};
use llvm_md::opt::paper_pipeline;
use llvm_md::workload::generate_suite;

/// Assert the full round-trip contract for one `ToWire + FromWire` value:
/// the encoded text parses back, decodes, and re-encodes byte-identically.
fn assert_fixpoint<T: ToWire + FromWire>(value: &T, what: &str) {
    let doc = value.to_wire();
    let text = doc.to_string();
    let reparsed = wire::parse(&text).unwrap_or_else(|e| panic!("{what}: unparseable: {e}"));
    assert_eq!(reparsed, doc, "{what}: parse must invert encode");
    let decoded = T::from_wire(&reparsed).unwrap_or_else(|e| panic!("{what}: undecodable: {e}"));
    assert_eq!(decoded.to_wire().to_string(), text, "{what}: decode must re-encode identically");
}

/// The weaker contract for values that embed whole modules as printed
/// `.ll` text: parsing a module renumbers its SSA temporaries, so the
/// byte-level fixpoint is reached after one decode→encode normalization
/// round — and must then be *stable*.
fn assert_normalizing_fixpoint<T: ToWire + FromWire>(value: &T, what: &str) {
    let t1 = value.to_wire().to_string();
    let once = T::from_wire(&wire::parse(&t1).unwrap())
        .unwrap_or_else(|e| panic!("{what}: undecodable: {e}"));
    let t2 = once.to_wire().to_string();
    let twice = T::from_wire(&wire::parse(&t2).unwrap())
        .unwrap_or_else(|e| panic!("{what}: re-decode: {e}"));
    assert_eq!(twice.to_wire().to_string(), t2, "{what}: normalized form must be a fixpoint");
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
            assert_fixpoint(rec, &format!("record `{}`", rec.name));
        }
        assert_fixpoint(&report, "module report");
        let text = report.to_wire().to_string();
        let back = Report::from_wire(&wire::parse(&text).unwrap()).unwrap();
        assert_eq!(back.records.len(), report.records.len());
        assert_eq!(back.validated(), report.validated());
        assert_eq!(back.alarms(), report.alarms());
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
        assert_fixpoint(&report, "chain report");
        let text = report.to_wire().to_string();
        let back = ChainReport::from_wire(&wire::parse(&text).unwrap()).unwrap();
        assert_eq!(back.steps.len(), report.steps.len());
        assert_eq!(back.blames.len(), report.blames.len());
        assert_eq!(back.cache, report.cache);
    }
}

#[test]
fn campaign_reports_with_findings_round_trip_through_the_wire() {
    // An injected bug guarantees the report carries `Finding`s, so the
    // hardest case — witnesses plus whole modules as printed `.ll` text —
    // is actually exercised.
    let config = CampaignConfig {
        modules_per_profile: 2,
        passes: vec!["gvn".into(), "flip-comparison".into()],
        chain_every: 0,
        triage: TriageOptions { battery: 4, ..TriageOptions::default() },
        max_findings: 2,
        ..CampaignConfig::default()
    };
    let campaign = FuzzCampaign::new(ValidationEngine::with_workers(2), config);
    let report = campaign.run(&Validator::new()).expect("known pipeline");
    assert!(!report.findings.is_empty(), "flip-comparison must produce a finding");
    for finding in &report.findings {
        assert_normalizing_fixpoint(finding, &format!("finding `{}`", finding.function));
    }
    assert_normalizing_fixpoint(&report, "campaign report");
    let text = report.to_wire().to_string();
    let back = CampaignReport::from_wire(&wire::parse(&text).unwrap()).unwrap();
    assert_eq!(back.seed, report.seed);
    assert_eq!(back.findings.len(), report.findings.len());
    // Modules survive the `.ll`-text round trip structurally intact
    // (modulo the parser's SSA renumbering — compare normalized forms).
    for (a, b) in report.findings.iter().zip(&back.findings) {
        let normalized = llvm_md::lir::parse::parse_module(&format!("{}", a.minimized)).unwrap();
        assert_eq!(format!("{normalized}"), format!("{}", b.minimized));
        assert_eq!(a.witness, b.witness);
    }
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
