//! One cascade, five consumers: every layer that validates a function pair
//! reads the same `Validator::cascade`, so each must report the same
//! `VerdictClass` for every function under every `Cascade` variant.
//!
//! The consumers are the certifying pipeline (`ValidationEngine::llvm_md`),
//! pre-optimized module pairs (`validate_modules`), corpus batching
//! (`validate_corpus`), the chain validator's end-to-end report, and the
//! `llvm-md serve` verdict lines. The inputs are the injected-bug corpus
//! (real miscompiles), a module holding every tier-2 outcome at once, and a
//! few pinned-suite modules through the paper pipeline.

use llvm_md::core::wire::{self, Json};
use llvm_md::core::{Cascade, SatOptions, TriageOptions, Validator, VerdictClass};
use llvm_md::driver::{ChainValidator, Server, ValidationEngine, VerdictStore};
use llvm_md::lir::func::{Function, Module};
use llvm_md::lir::parse::parse_module;
use llvm_md::opt::{paper_pipeline, Ctx, Pass, PassManager};
use llvm_md::workload::{generate_suite, injected_corpus};

/// A "pass" that replaces each function by its namesake in a fixed output
/// module, so any (input, output) pair can be driven through the
/// pass-manager consumers.
struct Emit(Module);

impl Pass for Emit {
    fn name(&self) -> &'static str {
        "emit"
    }

    fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
        match self.0.function(&f.name) {
            Some(g) if g != f => {
                *f = g.clone();
                true
            }
            _ => false,
        }
    }
}

/// One input module, its optimized output, and whether the output came
/// from the paper pipeline (else `Emit` reproduces it in one step).
struct Case {
    name: String,
    input: Module,
    output: Module,
    paper: bool,
}

impl Case {
    /// The pass manager that turns `input` into `output`.
    fn pass_manager(&self) -> PassManager {
        if self.paper {
            return paper_pipeline();
        }
        let mut pm = PassManager::new();
        pm.add(Box::new(Emit(self.output.clone())));
        pm
    }
}

fn parse(src: &str) -> Module {
    parse_module(src).expect("parse")
}

/// A module whose functions cover every tier-2 outcome: a false alarm
/// tier 2 proves, a needle miscompile only a SAT model finds, a
/// miscompile the battery catches, and an untouched function.
fn tier2_pair() -> (Module, Module) {
    let orig = parse(
        "define i64 @prove(i64 %a, i64 %b) {\nentry:\n  %o = or i64 %a, %b\n  %n = and i64 %a, %b\n  %r = add i64 %o, %n\n  ret i64 %r\n}\n\ndefine i64 @needle(i64 %x) {\nentry:\n  %c = icmp eq i64 %x, 81985529216486895\n  %r = select i1 %c, i64 1, i64 0\n  ret i64 %r\n}\n\ndefine i64 @classified(i64 %x, i64 %y) {\nentry:\n  %r = add i64 %x, %y\n  ret i64 %r\n}\n\ndefine i64 @id(i64 %x) {\nentry:\n  ret i64 %x\n}\n",
    );
    let opt = parse(
        "define i64 @prove(i64 %a, i64 %b) {\nentry:\n  %r = add i64 %a, %b\n  ret i64 %r\n}\n\ndefine i64 @needle(i64 %x) {\nentry:\n  ret i64 0\n}\n\ndefine i64 @classified(i64 %x, i64 %y) {\nentry:\n  %r = sub i64 %x, %y\n  ret i64 %r\n}\n\ndefine i64 @id(i64 %x) {\nentry:\n  ret i64 %x\n}\n",
    );
    (orig, opt)
}

fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = injected_corpus()
        .into_iter()
        .map(|bug| Case {
            name: bug.name.to_owned(),
            input: bug.module,
            output: bug.broken,
            paper: false,
        })
        .collect();
    let (input, output) = tier2_pair();
    cases.push(Case { name: "tier2".to_owned(), input, output, paper: false });
    for (profile, input) in generate_suite(16).into_iter().take(3) {
        let mut output = input.clone();
        paper_pipeline().run_module(&mut output);
        cases.push(Case { name: profile.name.to_owned(), input, output, paper: true });
    }
    cases
}

type Classes = Vec<(String, VerdictClass)>;

fn record_classes(report: &llvm_md::driver::Report) -> Classes {
    report.records.iter().map(|r| (r.name.clone(), r.class())).collect()
}

/// The classes `llvm-md serve` streams for one batch of `case`.
fn serve_classes(engine: ValidationEngine, validator: Validator, case: &Case) -> Classes {
    let server = Server::new(engine, validator, VerdictStore::in_memory(1 << 16));
    let doc = wire::envelope(
        "validate",
        [
            ("id", Json::str("c")),
            ("original", Json::str(format!("{}", case.input))),
            ("optimized", Json::str(format!("{}", case.output))),
        ],
    )
    .to_string();
    let mut out = Vec::new();
    server.serve(format!("{}\n{}", doc.len(), doc).as_bytes(), &mut out).expect("serve loop");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(|l| wire::parse(l).expect("response parses"))
        .filter(|l| wire::doc_type(l).ok() == Some("verdict"))
        .map(|v| {
            let class = v.str_field("class").expect("class").parse().expect("known class");
            (v.str_field("function").expect("function").to_owned(), class)
        })
        .collect()
}

#[test]
fn every_consumer_reports_the_same_class_under_every_cascade() {
    let topts = TriageOptions { battery: 8, ..TriageOptions::default() };
    let cascades = [
        ("graph", Cascade::Graph),
        ("triage", Cascade::Triage(topts)),
        ("tiered", Cascade::Tiered(topts, SatOptions::default())),
    ];
    let engine = ValidationEngine::with_workers(2);
    let cases = cases();
    for (label, cascade) in cascades {
        let validator = Validator { cascade, ..Validator::new() };
        let mut seen: Vec<VerdictClass> = Vec::new();
        for case in &cases {
            let pm = case.pass_manager();
            let (certified, report) = engine.llvm_md(&case.input, &pm, &validator);
            let reference = record_classes(&report);
            let corpus = engine.validate_corpus(std::slice::from_ref(&case.input), &pm, &validator);
            let modules = engine.validate_modules(&case.input, &case.output, &validator);
            let chain = ChainValidator::new(engine).validate_chain(&case.input, &pm, &validator);
            let consumers: [(&str, Classes); 4] = [
                ("validate_corpus", record_classes(&corpus[0].1)),
                ("validate_modules", record_classes(&modules)),
                ("chain end-to-end", record_classes(&chain.end_to_end)),
                ("serve", serve_classes(engine, validator, case)),
            ];
            for (consumer, classes) in consumers {
                assert_eq!(
                    classes, reference,
                    "{label} cascade, {}: {consumer} disagrees with llvm_md",
                    case.name
                );
            }
            assert_eq!(format!("{}", corpus[0].0), format!("{certified}"), "{}", case.name);
            seen.extend(reference.iter().map(|(_, c)| *c));
        }
        // Each variant reaches exactly the classes its tiers can produce.
        let has = |c: VerdictClass| seen.contains(&c);
        assert!(has(VerdictClass::Validated) && has(VerdictClass::SuspectedIncomplete), "{label}");
        assert_eq!(has(VerdictClass::RealMiscompile), label != "graph", "{label}");
        assert_eq!(has(VerdictClass::ProvedEquivalent), label == "tiered", "{label}");
    }
}
