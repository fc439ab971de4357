//! Property-based tests for the validator stack's core invariants:
//!
//! * printer/parser round-trip over generated modules;
//! * gated-SSA construction is deterministic and register-name independent;
//! * validation is reflexive (`validate(f, f)`) for every reducible f, with
//!   zero rewrites;
//! * hash-consing: structurally equal expressions always share a node;
//! * rewriting preserves concrete evaluation on random acyclic expression
//!   graphs (rule soundness);
//! * the union-find's `replace` keeps the new structure canonical;
//! * chain validation: certified chains have interpreter-indistinguishable
//!   endpoints, and `ChainReport`s are worker-count deterministic;
//! * `lir::parse` agrees with the original parser on printed modules and
//!   seeded edits of them, and the verdict store's keys are pinned;
//! * the CFG canonicalizers and `gated::prepare` hand back CFG analyses
//!   that describe the function they edited;
//! * the optimizer's printed output is pinned, pass by pass.
//!
//! Driven by the in-repo [`harness`] (the workspace is zero-dependency, so
//! no `proptest`): each property runs a fixed budget of seeded cases, and a
//! failure reports the exact case seed — rerun a single case by passing
//! that seed to [`harness::check_one`].

use lir::inst::BinOp;
use lir::types::Ty;
use lir::value::Constant;
use llvm_md::core::{RuleSet, SharedGraph, Validator};
use llvm_md::gated::{Node, NodeId};
use llvm_md::workload::rng::SplitMix64;
use llvm_md::workload::{generate, profiles};

/// The original parser (a `char`-vector lexer with owned tokens), kept as
/// the oracle for `lir::parse`.
#[path = "reference/parse.rs"]
mod reference_parse;

/// Minimal seeded property harness: proptest's run-N-cases/report-the-seed
/// core, without generation strategies (each property draws what it needs
/// from the per-case RNG) and without shrinking (case seeds are reported
/// instead, and generators keep cases small by construction).
mod harness {
    use super::SplitMix64;

    /// The per-property case budget (matches the old proptest config).
    pub const CASES: u64 = 96;

    /// Run `prop` on `cases` deterministically-seeded RNGs; panic with the
    /// failing case's seed and message on the first failure.
    pub fn check(
        name: &str,
        cases: u64,
        mut prop: impl FnMut(&mut SplitMix64) -> Result<(), String>,
    ) {
        for case in 0..cases {
            // Per-case seeds are scrambled so consecutive cases are
            // uncorrelated; changing the budget never changes earlier cases.
            let seed = 0xace1_5eed_u64 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            if let Err(msg) = check_one(seed, &mut prop) {
                panic!(
                    "property `{name}` failed at case {case}/{cases} (seed {seed:#018x}):\n{msg}\n\
                     rerun just this case with `harness::check_one({seed:#018x}, ..)`"
                );
            }
        }
    }

    /// Run one case with an explicit seed (the reproduction entry point).
    pub fn check_one(
        seed: u64,
        prop: &mut impl FnMut(&mut SplitMix64) -> Result<(), String>,
    ) -> Result<(), String> {
        prop(&mut SplitMix64::seed_from_u64(seed))
    }
}

/// `Err` unless the condition holds (property-local `assert!`).
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// `Err` unless both sides are equal, printing both (property-local
/// `assert_eq!`).
macro_rules! ensure_eq {
    ($a:expr, $b:expr, $($msg:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!("{}\n  left: {a:?}\n right: {b:?}", format!($($msg)+)));
        }
    }};
}

/// A tiny expression language for building acyclic value graphs whose
/// concrete value we can compute independently.
#[derive(Clone, Debug)]
enum Expr {
    Const(i64),
    Param(u32),
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

const BIN_OPS: [BinOp; 8] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::LShr,
];

/// A random expression, at most `depth` levels of `Bin` above the leaves
/// (the old `arb_expr` recursion budget).
fn arb_expr(rng: &mut SplitMix64, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        if rng.gen_bool(0.5) {
            Expr::Const(rng.gen_range(-64i64..=64))
        } else {
            Expr::Param(rng.gen_range(0u32..4))
        }
    } else {
        let op = BIN_OPS[rng.gen_range(0..BIN_OPS.len())];
        let a = arb_expr(rng, depth - 1);
        let b = arb_expr(rng, depth - 1);
        Expr::Bin(op, Box::new(a), Box::new(b))
    }
}

fn build(g: &mut SharedGraph, e: &Expr) -> NodeId {
    match e {
        Expr::Const(k) => g.add(Node::Const(Constant::int(Ty::I64, *k))),
        Expr::Param(i) => g.add(Node::Param(*i)),
        Expr::Bin(op, a, b) => {
            let (x, y) = (build(g, a), build(g, b));
            g.add(Node::Bin(*op, Ty::I64, x, y))
        }
    }
}

fn eval(e: &Expr, params: &[u64; 4]) -> Option<u64> {
    Some(match e {
        Expr::Const(k) => *k as u64,
        Expr::Param(i) => params[*i as usize],
        Expr::Bin(op, a, b) => {
            lir::inst::eval_binop(*op, Ty::I64, eval(a, params)?, eval(b, params)?).ok()?
        }
    })
}

/// Evaluate a (rewritten, still acyclic) graph node concretely.
fn eval_node(g: &SharedGraph, n: NodeId, params: &[u64; 4]) -> Option<u64> {
    match g.resolve(n) {
        Node::Const(c) => c.as_bits(),
        Node::Param(i) => Some(params[i as usize]),
        Node::Bin(op, ty, a, b) => {
            lir::inst::eval_binop(op, ty, eval_node(g, a, params)?, eval_node(g, b, params)?).ok()
        }
        _ => None,
    }
}

/// Hash-consing: building the same expression twice yields the same id;
/// commutative operands share modulo order.
#[test]
fn hashconsing_is_structural() {
    harness::check("hashconsing_is_structural", harness::CASES, |rng| {
        let e = arb_expr(rng, 4);
        let mut g = SharedGraph::new();
        let a = build(&mut g, &e);
        let b = build(&mut g, &e);
        ensure_eq!(a, b, "same expression, different node");
        if let Expr::Bin(op, x, y) = &e {
            if op.is_commutative() {
                let swapped = Expr::Bin(*op, y.clone(), x.clone());
                let c = build(&mut g, &swapped);
                ensure_eq!(g.find(a), g.find(c), "commutative ops are order-canonical");
            }
        }
        Ok(())
    });
}

/// Rule soundness on acyclic graphs: normalization never changes the
/// concrete value of an expression.
#[test]
fn rewrites_preserve_evaluation() {
    harness::check("rewrites_preserve_evaluation", harness::CASES, |rng| {
        let e = arb_expr(rng, 4);
        let params = [rng.next_u64(), rng.next_u64(), 55, 0];
        let Some(expected) = eval(&e, &params) else { return Ok(()) };
        let mut g = SharedGraph::new();
        let root = build(&mut g, &e);
        let rules = RuleSet::full();
        let mut counts = llvm_md::core::RewriteCounts::default();
        for _ in 0..16 {
            g.rebuild();
            if llvm_md::core::rules::apply_rules(&mut g, &[root], &rules, &mut counts) == 0 {
                break;
            }
        }
        g.rebuild();
        let got = eval_node(&g, root, &params);
        ensure_eq!(got, Some(expected), "normalized graph evaluates differently: {e:?}");
        Ok(())
    });
}

/// Reflexivity: every generated (reducible) function validates against
/// itself with zero rewrites — the O(1) best case of §2.
#[test]
fn validation_is_reflexive() {
    harness::check("validation_is_reflexive", harness::CASES, |rng| {
        let seed = rng.gen_range(0u64..500);
        let mut p = profiles()[(seed % 12) as usize];
        p.functions = 1;
        p.seed = seed * 911 + 13;
        let m = generate(&p);
        let v = Validator { rules: RuleSet::none(), ..Validator::new() };
        let verdict = v.validate(&m.functions[0], &m.functions[0]);
        ensure!(verdict.validated, "self-validation failed: {verdict:?}");
        ensure_eq!(verdict.stats.rewrites.total(), 0, "reflexive validation rewrote");
        Ok(())
    });
}

/// Shared checker for the print → parse → print round-trip contract the
/// reducer's repro persistence depends on: reparsing preserves the module
/// name, globals, declarations, and every function's semantics (modulo
/// register renumbering — the parser assigns numbers by first occurrence),
/// and one reparse reaches a *print fixpoint* (the second and third
/// printings are byte-identical).
fn check_roundtrip(m: &lir::func::Module) -> Result<(), String> {
    let p1 = format!("{m}");
    let m2 = lir::parse::parse_module(&p1).map_err(|e| format!("reparse failed: {e:?}\n{p1}"))?;
    ensure_eq!(m.name, m2.name, "module name lost in round trip");
    ensure_eq!(m.globals, m2.globals, "globals changed in round trip");
    ensure_eq!(m.declarations, m2.declarations, "declarations changed in round trip");
    ensure_eq!(m.functions.len(), m2.functions.len(), "function count changed");
    for (a, b) in m.functions.iter().zip(m2.functions.iter()) {
        ensure_eq!(a.name, b.name, "function name changed");
        ensure_eq!(
            format!("{}", a.canonicalized()),
            format!("{}", b.canonicalized()),
            "round trip changed function semantics"
        );
    }
    let p2 = format!("{m2}");
    let m3 =
        lir::parse::parse_module(&p2).map_err(|e| format!("re-reparse failed: {e:?}\n{p2}"))?;
    ensure_eq!(p2, format!("{m3}"), "printing is not a fixpoint after one reparse");
    Ok(())
}

/// Printer/parser round-trip on whole generated modules — Table-1 profiles
/// *and* every named fuzz profile (the campaign's repro persistence rides
/// on this for exactly the shapes the fuzz axes emit).
#[test]
fn print_parse_roundtrip() {
    use llvm_md::workload::fuzz_profiles;
    harness::check("print_parse_roundtrip", harness::CASES, |rng| {
        let seed = rng.gen_range(0u64..200);
        let fuzz = fuzz_profiles();
        // Even cases draw a Table-1 profile, odd cases a fuzz profile.
        let mut p = if seed % 2 == 0 {
            profiles()[(seed as usize / 2) % 12]
        } else {
            fuzz[(seed as usize / 2) % fuzz.len()]
        };
        p.functions = 2;
        p.seed = seed.wrapping_mul(0x9e37) + 7;
        let m = generate(&p);
        check_roundtrip(&m)
    });
}

/// The pinned hand-written corpus round-trips too (every entry, including
/// the gating-rejected `irreducible` one — the reducer may persist any of
/// these shapes).
#[test]
fn corpus_roundtrips_through_printer() {
    for (name, m) in llvm_md::workload::corpus_modules() {
        check_roundtrip(&m).unwrap_or_else(|e| panic!("corpus entry `{name}`: {e}"));
    }
}

/// Gating is name-independent: renumbering registers/blocks leaves the
/// value graph identical.
#[test]
fn gating_ignores_names() {
    harness::check("gating_ignores_names", harness::CASES, |rng| {
        let seed = rng.gen_range(0u64..200);
        let mut p = profiles()[(seed % 12) as usize];
        p.functions = 1;
        p.seed = seed * 131 + 3;
        let m = generate(&p);
        let f = &m.functions[0];
        let g1 = llvm_md::gated::build(f).expect("reducible by construction");
        let g2 = llvm_md::gated::build(&f.canonicalized()).expect("still reducible");
        let r1 = g1.ret.map(|r| g1.graph.display(r));
        let r2 = g2.ret.map(|r| g2.graph.display(r));
        ensure_eq!(r1, r2, "return-value graphs differ");
        ensure_eq!(g1.graph.display(g1.mem), g2.graph.display(g2.mem), "memory graphs differ");
        Ok(())
    });
}

/// The parallel engine is outcome-deterministic: at `workers ∈ {1, 4}` the
/// certified module and the report must equal the serial driver's (modulo
/// wall-clock durations, which `Report` equality skips). Fewer
/// cases than the default budget — each case optimizes and validates a
/// whole generated module three times.
#[test]
fn parallel_engine_matches_serial_driver() {
    use llvm_md::driver::ValidationEngine;
    use llvm_md::opt::paper_pipeline;
    harness::check("parallel_engine_matches_serial_driver", 12, |rng| {
        let seed = rng.gen_range(0u64..500);
        let mut p = profiles()[(seed % 12) as usize];
        p.functions = 6;
        p.seed = seed * 977 + 5;
        let m = generate(&p);
        let pm = paper_pipeline();
        let v = Validator::new();
        let (serial_out, serial_rep) = ValidationEngine::serial().llvm_md(&m, &pm, &v);
        for workers in [1usize, 4] {
            let (out, rep) = ValidationEngine::with_workers(workers).llvm_md(&m, &pm, &v);
            ensure!(
                serial_rep == rep,
                "workers={workers}: engine report diverged from the serial driver"
            );
            ensure_eq!(
                format!("{serial_out}"),
                format!("{out}"),
                "workers={workers}: certified modules differ"
            );
        }
        Ok(())
    });
}

/// Corpus batching is outcome-deterministic too: streaming the hand-written
/// corpus through `validate_corpus` at any worker count reproduces the
/// per-module serial pipeline exactly.
#[test]
fn corpus_batching_matches_per_module_runs() {
    use llvm_md::driver::ValidationEngine;
    use llvm_md::opt::paper_pipeline;
    use llvm_md::workload::corpus_batch;
    let modules = corpus_batch();
    let pm = paper_pipeline();
    let v = Validator::new();
    let reference: Vec<_> =
        modules.iter().map(|m| ValidationEngine::serial().llvm_md(m, &pm, &v)).collect();
    for workers in [1usize, 4] {
        let batch = ValidationEngine::with_workers(workers).validate_corpus(&modules, &pm, &v);
        assert_eq!(batch.len(), reference.len());
        for ((out, rep), (serial_out, serial_rep)) in batch.iter().zip(&reference) {
            assert_eq!(
                serial_rep, rep,
                "workers={workers}: corpus report diverged from per-module serial runs"
            );
            assert_eq!(format!("{serial_out}"), format!("{out}"), "workers={workers}");
        }
    }
}

/// An independent oracle for the fused `validate_corpus`: the staged
/// pipeline — optimize each whole module, validate the module pair, then
/// splice rejected and dropped functions back by hand — must give the same
/// report and certified module at every worker count. One module holds two
/// functions named `@dup`, and one pipeline renames only the first copy, so
/// a pair lands off the diagonal and the fused engine's second batch runs.
#[test]
fn corpus_matches_the_staged_pipeline() {
    use llvm_md::core::{FailReason, RuleSet, VerdictClass};
    use llvm_md::driver::{Report, ValidationEngine};
    use llvm_md::lir::func::{Function, Module};
    use llvm_md::lir::parse::parse_module;
    use llvm_md::opt::{paper_pipeline, Ctx, Pass, PassManager};
    use llvm_md::workload::corpus_batch;

    struct RenameFirstDup;
    impl Pass for RenameFirstDup {
        fn name(&self) -> &'static str {
            "rename-first-dup"
        }
        fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
            let hit = f.name == "dup" && f.params.len() == 1;
            if hit {
                f.name.push_str(".renamed");
            }
            hit
        }
    }

    fn staged(input: &Module, pm: &PassManager, v: &Validator) -> (Module, Report) {
        let mut output = input.clone();
        pm.run_module(&mut output);
        let report = ValidationEngine::serial().validate_modules(input, &output, v);
        let mut certified = output.clone();
        let mut dropped = Vec::new();
        for (i, (f, rec)) in input.functions.iter().zip(&report.records).enumerate() {
            if rec.reason == Some(FailReason::MissingFunction) {
                dropped.push(f.clone());
            } else if !rec.validated && rec.class() != VerdictClass::ProvedEquivalent {
                // The k-th input copy of a name pairs with its k-th output copy.
                let rank = input.functions[..i].iter().filter(|g| g.name == f.name).count();
                let (o, _) = output
                    .functions
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.name == f.name)
                    .nth(rank)
                    .expect("a paired record has an output copy");
                certified.functions[o] = f.clone();
            }
        }
        certified.functions.extend(dropped);
        (certified, report)
    }

    let mut modules = corpus_batch();
    modules.push(
        parse_module(
            "define i64 @dup(i64 %a) {\nentry:\n  %x = add i64 3, 3\n  %y = mul i64 %a, %x\n  ret i64 %y\n}\n\
             define i64 @dup(i64 %a, i64 %b) {\nentry:\n  %d = add i64 %a, 9\n  ret i64 %b\n}\n\
             define i64 @keep(i64 %a) {\nentry:\n  %z = add i64 %a, 0\n  ret i64 %z\n}\n",
        )
        .expect("parse"),
    );
    let mut renaming = paper_pipeline();
    renaming.add(Box::new(RenameFirstDup));
    let strict = Validator { rules: RuleSet::none(), ..Validator::new() };
    for (tag, pm) in [("paper", paper_pipeline()), ("renaming", renaming)] {
        for v in [Validator::new(), strict] {
            let reference: Vec<_> = modules.iter().map(|m| staged(m, &pm, &v)).collect();
            // Renaming pairs the first `@dup` with the second's output.
            let off_diagonal = reference
                .iter()
                .flat_map(|(_, r)| &r.records)
                .filter(|r| r.name == "dup" && r.reason == Some(FailReason::Signature))
                .count();
            assert_eq!(off_diagonal, usize::from(tag == "renaming"), "{tag}");
            for workers in [1usize, 2, 4] {
                let batch =
                    ValidationEngine::with_workers(workers).validate_corpus(&modules, &pm, &v);
                assert_eq!(batch.len(), reference.len());
                for ((out, rep), (staged_out, staged_rep)) in batch.iter().zip(&reference) {
                    assert_eq!(staged_rep, rep, "{tag}, workers={workers}: report differs");
                    assert_eq!(
                        format!("{staged_out}"),
                        format!("{out}"),
                        "{tag}, workers={workers}: certified module differs"
                    );
                }
            }
        }
    }
}

/// An independent oracle for `validate_chain`: the staged chain, which
/// materializes every intermediate module with `run_step`, canonicalizes
/// and fingerprints every function of every version, pairs adjacent
/// versions by name (duplicate names pair positionally), validates each
/// fingerprint-changed pair through one `GraphCache` with its step's input
/// module as the triage environment, and blames each function's first
/// failing step. Returns the report with its cache counters.
fn staged_chain(
    input: &lir::func::Module,
    pm: &llvm_md::opt::PassManager,
    v: &Validator,
) -> llvm_md::driver::ChainReport {
    use lir::func::Function;
    use llvm_md::core::cache::{fingerprint_canonical, GraphCache};
    use llvm_md::core::{FailReason, RewriteCounts};
    use llvm_md::driver::{Blame, ChainReport, ChainStep, FunctionRecord, Report};
    use std::time::Duration;

    fn record(name: &str, insts_before: usize, insts_after: usize) -> FunctionRecord {
        FunctionRecord {
            name: name.to_owned(),
            insts_before,
            insts_after,
            transformed: true,
            validated: false,
            reason: None,
            duration: Duration::ZERO,
            rewrites: RewriteCounts::default(),
            rounds: 0,
            saturation: None,
            triage: None,
        }
    }

    let n = pm.len();
    let mut versions = vec![input.clone()];
    for k in 0..n {
        let mut next = versions[k].clone();
        pm.run_step(k, &mut next);
        versions.push(next);
    }
    let canon: Vec<Vec<Function>> = versions
        .iter()
        .map(|m| m.functions.iter().map(Function::canonicalized).collect())
        .collect();
    let fps: Vec<Vec<u64>> =
        canon.iter().map(|fs| fs.iter().map(fingerprint_canonical).collect()).collect();
    let cache = GraphCache::new();
    let mut skips = 0;
    let mut reports = Vec::new();
    for k in 0..=n {
        let (a, b) = if k == n { (0, n) } else { (k, k + 1) };
        let (ins, outs) = (&versions[a].functions, &versions[b].functions);
        let mut used = vec![false; outs.len()];
        let mut records = Vec::new();
        for (i, f) in ins.iter().enumerate() {
            let Some(o) = (0..outs.len()).find(|&o| !used[o] && outs[o].name == f.name) else {
                let mut rec = record(&f.name, f.inst_count(), 0);
                rec.reason = Some(FailReason::MissingFunction);
                records.push(rec);
                continue;
            };
            used[o] = true;
            let mut rec = record(&f.name, f.inst_count(), outs[o].inst_count());
            rec.transformed = fps[a][i] != fps[b][o];
            if rec.transformed {
                let tv = v.validate_cascade_cached(
                    &versions[a],
                    &canon[a][i],
                    &canon[b][o],
                    (fps[a][i], fps[b][o]),
                    &cache,
                );
                rec.validated = tv.verdict.validated;
                rec.reason = tv.verdict.reason;
                rec.rewrites = tv.verdict.stats.rewrites;
                rec.rounds = tv.verdict.stats.rounds;
                rec.saturation = tv.verdict.stats.saturation;
                rec.triage = tv.triage;
            } else {
                rec.validated = true;
                skips += 1;
            }
            records.push(rec);
        }
        for (g, _) in outs.iter().zip(&used).filter(|&(_, &paired)| !paired) {
            let mut rec = record(&g.name, 0, g.inst_count());
            rec.reason = Some(FailReason::ExtraFunction);
            records.push(rec);
        }
        reports.push(Report { records, opt_time: Duration::ZERO, validate_time: Duration::ZERO });
    }
    cache.record_skips(skips);
    let end_to_end = reports.pop().expect("the end-to-end report");
    let steps: Vec<ChainStep> = reports
        .into_iter()
        .enumerate()
        .map(|(k, report)| ChainStep { pass: pm.step_name(k).to_owned(), report })
        .collect();
    let mut blames = Vec::new();
    let mut blamed = std::collections::HashSet::new();
    for (k, step) in steps.iter().enumerate() {
        let mut seen = std::collections::HashMap::new();
        for rec in &step.report.records {
            let copy = seen.entry(rec.name.clone()).and_modify(|c| *c += 1).or_insert(0usize);
            if rec.transformed && !rec.validated && blamed.insert((rec.name.clone(), *copy)) {
                blames.push(Blame {
                    function: rec.name.clone(),
                    step: k,
                    pass: step.pass.clone(),
                    reason: rec.reason.clone(),
                    triage: rec.triage.clone(),
                });
            }
        }
    }
    ChainReport { steps, end_to_end, blames, cache: cache.stats() }
}

/// `validate_chain`, which steps each function through the pipeline on
/// the pool and keeps only the versions a pass changed, reproduces the
/// staged chain exactly — records, blames, triage witnesses and skip
/// counts — under the graph-only and the triaging cascade at 1, 2 and 4
/// workers. Besides the paper pipeline over the scale-4 suite and 8 fuzz
/// modules per profile, the inputs cover the cases where a function's
/// trajectory and the whole-module versions could disagree: a pass pair
/// that changes a function and then restores it, a pass that mutates a
/// function but reports no change, a renaming pass, duplicate-named
/// functions, and a callee change followed by a broken pass on its caller
/// (the caller's triage must run against the step's own module).
#[test]
fn chain_matches_the_staged_chain() {
    use lir::func::Function;
    use lir::inst::Inst;
    use llvm_md::core::{Cascade, TriageOptions};
    use llvm_md::driver::{ChainValidator, ValidationEngine};
    use llvm_md::lir::parse::parse_module;
    use llvm_md::opt::{paper_pipeline, pass_by_name, Ctx, Pass, PassManager};
    use llvm_md::workload::{
        campaign_modules, fuzz_profiles, suite_batch, BrokenPass, BugKind, DEFAULT_CAMPAIGN_SEED,
    };

    /// Swaps the operands of every `add` whose operands differ: applied
    /// twice, the function is back where it started. `honest: false`
    /// reports no change even when it swapped something.
    struct SwapAdds {
        honest: bool,
    }
    impl Pass for SwapAdds {
        fn name(&self) -> &'static str {
            if self.honest {
                "swap-adds"
            } else {
                "swap-adds-silently"
            }
        }
        fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
            let mut changed = false;
            for inst in f.blocks.iter_mut().flat_map(|b| &mut b.insts) {
                if let Inst::Bin { op: BinOp::Add, a, b, .. } = inst {
                    if a != b {
                        std::mem::swap(a, b);
                        changed = true;
                    }
                }
            }
            changed && self.honest
        }
    }
    /// Renames the first function of every name it sees (`@f` → `@f.renamed`
    /// when `f` has one parameter), so pairing reports missing and extra
    /// functions.
    struct RenameUnary;
    impl Pass for RenameUnary {
        fn name(&self) -> &'static str {
            "rename-unary"
        }
        fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
            let hit = f.params.len() == 1;
            if hit {
                f.name.push_str(".renamed");
            }
            hit
        }
    }
    /// Applies `bug` to `@callee` only.
    struct BreakCallee(BugKind);
    impl Pass for BreakCallee {
        fn name(&self) -> &'static str {
            "break-callee"
        }
        fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
            f.name == "callee" && self.0.apply(f)
        }
    }

    let pipeline = |passes: Vec<Box<dyn Pass + Send + Sync>>| {
        let mut pm = PassManager::new();
        for p in passes {
            pm.add(p);
        }
        pm
    };
    let known = |name: &str| pass_by_name(name).expect("known pass");
    let mut cases: Vec<(String, lir::func::Module, PassManager)> = Vec::new();
    for m in suite_batch(4) {
        cases.push((format!("suite {}", m.name), m, paper_pipeline()));
    }
    for p in fuzz_profiles() {
        for (i, m) in campaign_modules(&p, DEFAULT_CAMPAIGN_SEED, 8).into_iter().enumerate() {
            cases.push((format!("fuzz {} #{i}", p.name), m, paper_pipeline()));
        }
    }
    let small = parse_module(
        "define i64 @callee(i64 %a, i64 %b) {\n\
         entry:\n  %c = icmp sgt i64 %a, %b\n  br i1 %c, label %l, label %r\n\
         l:\n  %s = add i64 %a, 1\n  ret i64 %s\n\
         r:\n  ret i64 %b\n\
         }\n\
         define i64 @caller(i64 %x) {\n\
         entry:\n  %y = add i64 %x, 7\n  %v = call i64 @callee(i64 %x, i64 %y)\n\
         \x20 %c = icmp ult i64 %v, %x\n  br i1 %c, label %l, label %r\n\
         l:\n  ret i64 %v\n\
         r:\n  %d = add i64 %x, %v\n  ret i64 %d\n\
         }\n\
         define i64 @dup(i64 %a) {\nentry:\n  %x = add i64 3, 3\n  %y = add i64 %a, %x\n  ret i64 %y\n}\n\
         define i64 @dup(i64 %a, i64 %b) {\nentry:\n  %d = add i64 %a, 9\n  %e = add i64 %d, %b\n  ret i64 %e\n}\n",
    )
    .expect("parse");
    let swap = |honest| Box::new(SwapAdds { honest }) as Box<dyn Pass + Send + Sync>;
    cases.push((
        "change then restore".into(),
        small.clone(),
        pipeline(vec![swap(true), swap(true)]),
    ));
    cases.push((
        "silent change".into(),
        small.clone(),
        pipeline(vec![known("adce"), swap(false), known("gvn")]),
    ));
    cases.push((
        "renaming".into(),
        small.clone(),
        pipeline(vec![known("sccp"), Box::new(RenameUnary), known("dse")]),
    ));
    cases.push((
        "callee then caller".into(),
        small.clone(),
        pipeline(vec![
            Box::new(BreakCallee(BugKind::FlipComparison)),
            Box::new(BrokenPass(BugKind::FlipComparison)),
        ]),
    ));
    let battery = TriageOptions { battery: 6, ..TriageOptions::default() };
    for cascade in [Cascade::Graph, Cascade::Triage(battery)] {
        let v = Validator { cascade, ..Validator::new() };
        for (tag, m, pm) in &cases {
            let staged = staged_chain(m, pm, &v);
            for workers in [1usize, 2, 4] {
                let chain = ChainValidator::new(ValidationEngine::with_workers(workers))
                    .validate_chain(m, pm, &v);
                assert_eq!(chain, staged, "{tag}, {cascade:?}, workers={workers}: report differs");
                assert_eq!(
                    chain.cache.skips, staged.cache.skips,
                    "{tag}, {cascade:?}, workers={workers}: skip count differs"
                );
            }
        }
        // The hand-made cases hit what they are there for.
        let find = |tag: &str| {
            let (_, m, pm) = cases.iter().find(|(t, ..)| t == tag).expect("case");
            staged_chain(m, pm, &v)
        };
        let restored = find("change then restore");
        assert!(restored.steps.iter().all(|s| s.report.transformed() > 0), "{restored:?}");
        assert_eq!(restored.end_to_end.transformed(), 0, "{restored:?}");
        assert!(find("silent change").steps[1].report.transformed() > 0);
        assert!(find("renaming").blames.iter().any(|b| b.pass == "rename-unary"));
        let chained = find("callee then caller");
        assert!(chained.blame_for("callee").is_some_and(|b| b.step == 0), "{chained:?}");
        let caller = chained.blame_for("caller").expect("the caller is blamed");
        assert_eq!(caller.step, 1);
        if v.cascade.triages() {
            assert!(caller.is_miscompile(), "{caller}");
        }
    }
}

/// The pass contract trajectory-keeping relies on nowhere but documents:
/// every `paper_pipeline()` pass returns `true` from `run` exactly when it
/// changed the function structurally, over the scale-1 suite and 16 fuzz
/// modules per profile, each function stepped through the whole pipeline.
#[test]
fn pass_changed_flags_match_structural_change() {
    use llvm_md::opt::{paper_pipeline, Ctx};
    use llvm_md::workload::{campaign_modules, fuzz_profiles, suite_batch, DEFAULT_CAMPAIGN_SEED};
    let pm = paper_pipeline();
    let mut modules = suite_batch(1);
    for p in fuzz_profiles() {
        modules.extend(campaign_modules(&p, DEFAULT_CAMPAIGN_SEED, 16));
    }
    let mut steps = 0;
    for m in &modules {
        let ctx = Ctx::of(m);
        for f in &m.functions {
            let mut cur = f.clone();
            for k in 0..pm.len() {
                let before = cur.clone();
                let flag = pm.run_step_function(k, &mut cur, &ctx);
                assert_eq!(
                    flag,
                    cur != before,
                    "{}: pass `{}` on @{} returned {flag} but {} the function",
                    m.name,
                    pm.step_name(k),
                    f.name,
                    if cur != before { "changed" } else { "did not change" }
                );
                steps += 1;
            }
        }
    }
    assert!(steps > 5_000, "the scan covers the suite and the fuzz modules: {steps} steps");
}

/// `f` out of loop-simplify form, with the same behaviour. Each loop's
/// `br`-ending preheader `p` becomes `br i1 true, %header, %via`, and the
/// never-taken `via` branches to the header too (two outside edges). When
/// the loop's registers leave it only through exit φs, `via` also branches
/// to the loop's first exit target, which is then entered from outside the
/// loop. Each `br`-ending latch gets a second back edge the same way, and a
/// dead block is appended.
fn unsimplify(f: &lir::func::Function) -> lir::func::Function {
    use lir::inst::Term;
    use lir::loops::{Analyses, LoopId};
    use lir::value::Operand;
    let mut g = f.clone();
    let Analyses { cfg, lf, .. } = Analyses::new(&g);
    for (i, l) in lf.loops.iter().enumerate() {
        let preheader = lf.preheader(&cfg, LoopId(i as u32));
        for from in preheader.into_iter().chain(l.latches.iter().copied()) {
            let header = l.header;
            if g.block(from).term != (Term::Br { target: header }) {
                continue;
            }
            let via = g.add_block(format!("via.{}", from.0));
            let never = Operand::bool(true);
            g.block_mut(from).term = Term::CondBr { cond: never, t: header, f: via };
            for phi in &mut g.block_mut(header).phis {
                if let Some(v) = phi.incoming_from(from) {
                    phi.incomings.push((via, v));
                }
            }
            let exit = l.exits.first().filter(|_| Some(from) == preheader && closed(&g, &l.body));
            g.block_mut(via).term = match exit {
                Some(&(_, t)) => {
                    for phi in &mut g.block_mut(t).phis {
                        phi.incomings.push((via, lir::func::undef(phi.ty)));
                    }
                    Term::CondBr { cond: never, t: header, f: t }
                }
                None => Term::Br { target: header },
            };
        }
    }
    g.add_block("dead");
    g
}

/// True when the registers defined in `body` are used outside it only as
/// φ incomings from inside it.
fn closed(f: &lir::func::Function, body: &[lir::func::BlockId]) -> bool {
    use lir::value::Operand;
    let mut defined = std::collections::HashSet::new();
    for &b in body {
        let blk = f.block(b);
        defined
            .extend(blk.phis.iter().map(|p| p.dst).chain(blk.insts.iter().filter_map(|i| i.dst())));
    }
    let inside = |op: Operand| op.as_reg().is_some_and(|r| defined.contains(&r));
    f.iter_blocks().filter(|(b, _)| !body.contains(b)).all(|(_, blk)| {
        let mut ok = blk
            .phis
            .iter()
            .all(|p| p.incomings.iter().all(|&(from, v)| body.contains(&from) || !inside(v)));
        for inst in &blk.insts {
            inst.visit_operands(|op| ok &= !inside(op));
        }
        blk.term.visit_operands(|op| ok &= !inside(op));
        ok
    })
}

/// The CFG canonicalizers rebuild their analyses only after a control-flow
/// edit, so a missed rebuild leaves them describing an older function. Over
/// the scale-1 suite and 16 fuzz modules per profile, at every step of the
/// paper pipeline, each function version and its [`unsimplify`]d copy:
/// `prepare`'s analyses equal a fresh build of its output, and so do the
/// analyses each canonicalizer returns. Each pipeline step also runs on the
/// unsimplified copy, so the loop passes' own canonicalization edits; debug
/// builds assert inside every canonicalizer and loop pass that the analyses
/// they return are fresh.
#[test]
fn cfg_analyses_describe_the_function_after_every_canonicalizer() {
    use llvm_md::gated::prepare;
    use llvm_md::lir::func::Function;
    use llvm_md::lir::loops::Analyses;
    use llvm_md::lir::transform::{
        dedicated_exits, insert_preheaders, merge_latches, remove_unreachable_blocks,
    };
    use llvm_md::opt::{paper_pipeline, Ctx};
    use llvm_md::workload::{campaign_modules, fuzz_profiles, suite_batch, DEFAULT_CAMPAIGN_SEED};
    type Canonicalizer = fn(&mut Function, &mut Analyses) -> bool;
    let canonicalizers: [(&str, Canonicalizer); 4] = [
        ("remove_unreachable_blocks", remove_unreachable_blocks),
        ("insert_preheaders", insert_preheaders),
        ("merge_latches", merge_latches),
        ("dedicated_exits", dedicated_exits),
    ];
    let pm = paper_pipeline();
    let mut modules = suite_batch(1);
    for p in fuzz_profiles() {
        modules.extend(campaign_modules(&p, DEFAULT_CAMPAIGN_SEED, 16));
    }
    let (mut prepared, mut edits) = (0, [0usize; 4]);
    for m in &modules {
        let ctx = Ctx::of(m);
        for f in &m.functions {
            let mut cur = f.clone();
            for k in 0..=pm.len() {
                let unsimplified = unsimplify(&cur);
                lir::verify::verify_function(&unsimplified)
                    .unwrap_or_else(|e| panic!("{}: unsimplified @{}: {e}", m.name, f.name));
                for version in [&cur, &unsimplified] {
                    let at =
                        |what: &str| format!("{}: @{} after {k} steps, {what}", m.name, f.name);
                    if let Ok(p) = prepare(version) {
                        let an = Analyses { cfg: p.cfg, dt: p.dt, lf: p.lf };
                        assert!(an.describes(&p.f), "{}", at("prepare"));
                        prepared += 1;
                    }
                    let mut g = version.clone();
                    let mut an = Analyses::new(&g);
                    for ((name, canonicalize), n) in canonicalizers.iter().zip(&mut edits) {
                        *n += usize::from(canonicalize(&mut g, &mut an));
                        assert!(an.describes(&g), "{}", at(name));
                    }
                }
                if k < pm.len() {
                    pm.run_step_function(k, &mut unsimplified.clone(), &ctx);
                    pm.run_step_function(k, &mut cur, &ctx);
                }
            }
        }
    }
    assert!(prepared > 10_000, "the scan prepares many function versions: {prepared}");
    for ((name, _), n) in canonicalizers.iter().zip(edits) {
        assert!(n > 1_000, "only {n} function versions exercised an edit by {name}");
    }
}

/// Store keys and chain-cache keys hash a canonical function's structure,
/// not its text: over the scale-1 suite and 16 fuzz modules per profile,
/// every function at every step of the paper pipeline, two canonical
/// versions get equal fingerprints exactly when their prints are equal.
#[test]
fn fingerprints_are_equal_exactly_when_canonical_prints_are() {
    use llvm_md::core::fingerprint_canonical;
    use llvm_md::opt::{paper_pipeline, Ctx};
    use llvm_md::workload::{campaign_modules, fuzz_profiles, suite_batch, DEFAULT_CAMPAIGN_SEED};
    use std::collections::HashMap;
    let pm = paper_pipeline();
    let mut modules = suite_batch(1);
    for p in fuzz_profiles() {
        modules.extend(campaign_modules(&p, DEFAULT_CAMPAIGN_SEED, 16));
    }
    let mut by_fp: HashMap<u64, String> = HashMap::new();
    let mut by_print: HashMap<String, u64> = HashMap::new();
    for m in &modules {
        let ctx = Ctx::of(m);
        for f in &m.functions {
            let mut cur = f.clone();
            for k in 0..=pm.len() {
                let canonical = cur.canonicalized();
                let (fp, print) = (fingerprint_canonical(&canonical), canonical.to_string());
                let seen = by_fp.entry(fp).or_insert_with(|| print.clone());
                assert_eq!(*seen, print, "{}: two prints share fingerprint {fp:#x}", m.name);
                let seen = by_print.entry(print).or_insert(fp);
                assert_eq!(*seen, fp, "{}: one print got two fingerprints (@{})", m.name, f.name);
                if k < pm.len() {
                    pm.run_step_function(k, &mut cur, &ctx);
                }
            }
        }
    }
    assert!(by_fp.len() > 1_000, "the scan covers many distinct versions: {}", by_fp.len());
}

/// The scale-1 suite and 96 fuzz modules per profile (588 modules).
fn suite_and_fuzz_modules() -> Vec<lir::func::Module> {
    use llvm_md::workload::{campaign_modules, fuzz_profiles, suite_batch, DEFAULT_CAMPAIGN_SEED};
    let mut modules = suite_batch(1);
    for p in fuzz_profiles() {
        modules.extend(campaign_modules(&p, DEFAULT_CAMPAIGN_SEED, 96));
    }
    modules
}

/// The modules of [`suite_and_fuzz_modules`], each paired with its
/// paper-pipeline output.
fn suite_and_fuzz_pairs() -> Vec<(lir::func::Module, lir::func::Module)> {
    let pm = llvm_md::opt::paper_pipeline();
    suite_and_fuzz_modules()
        .into_iter()
        .map(|m| {
            let mut out = m.clone();
            pm.run_module(&mut out);
            (m, out)
        })
        .collect()
}

/// The optimizer is the black box every verdict certifies, so its output
/// must not move by accident. This pins an FNV-1a digest of the printed
/// output of `paper_pipeline()` and of each known pass run alone over the
/// 588 modules of [`suite_and_fuzz_modules`]; a change that moves one is an
/// optimizer behaviour change and must say so.
#[test]
fn optimizer_output_is_pinned() {
    use llvm_md::lir::intern::Fnv1a;
    use llvm_md::opt::{known_passes, paper_pipeline, pass_by_name, PassManager};
    use std::fmt::Write;
    use std::hash::Hasher;
    let modules = suite_and_fuzz_modules();
    assert_eq!(modules.len(), 588);
    let mut runs = vec![("paper", paper_pipeline())];
    for &name in known_passes() {
        let mut pm = PassManager::new();
        pm.add(pass_by_name(name).expect("known pass"));
        runs.push((name, pm));
    }
    let got: Vec<String> = runs
        .iter()
        .map(|(name, pm)| {
            let mut digest = Fnv1a::new();
            for m in &modules {
                let mut out = m.clone();
                pm.run_module(&mut out);
                write!(digest, "{out}").expect("hashing cannot fail");
            }
            format!("{name} {:016x}", digest.finish())
        })
        .collect();
    let pinned = [
        "paper a011a865bedc6699",
        "adce 95ae34142cf2d801",
        "gvn c4cc70097e524c1b",
        "sccp 5bc73209e29952c0",
        "licm d59a8def2ae704a0",
        "ld eb155417cfc903fb",
        "lu 17e7da81a555e772",
        "dse 93eddf20e7c5ba95",
        "instcombine a93603f992408c93",
        "mem2reg 0a2a2ffb852f9cb0",
        "simplifycfg bcf9ace78069aab5",
    ];
    assert_eq!(got, pinned, "optimizer output moved");
}

/// Verdict stores persist [`fingerprint`](llvm_md::core::fingerprint)s as
/// their keys, so a change to canonicalization or to the key walk silently
/// turns every stored verdict into a miss. This pins an FNV-1a digest of
/// the keys of 6,536 functions: a change that moves it is a store format
/// change and must say so.
#[test]
fn store_keys_are_pinned() {
    use llvm_md::core::fingerprint;
    use llvm_md::lir::intern::Fnv1a;
    use std::hash::Hasher;
    let mut digest = Fnv1a::new();
    let mut functions = 0;
    for (original, optimized) in suite_and_fuzz_pairs() {
        for f in original.functions.iter().chain(&optimized.functions) {
            digest.write_u64(fingerprint(f));
            functions += 1;
        }
    }
    assert_eq!(functions, 6_536);
    assert_eq!(format!("{:016x}", digest.finish()), "dfd2b1117d31cc58", "store keys moved");
}

/// Splice `insert` into `text` at byte `at`, after dropping `text[at..at +
/// drop]`.
fn splice(text: &str, at: usize, drop: usize, insert: &str) -> String {
    let mut out = String::with_capacity(text.len() + insert.len());
    out.push_str(&text[..at]);
    out.push_str(insert);
    out.push_str(&text[at + drop..]);
    out
}

/// The nearest char boundary of `text` at or below `i`.
fn floor_boundary(text: &str, mut i: usize) -> usize {
    i = i.min(text.len());
    while !text.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// One seeded edit of `text`: an inserted snippet, a deleted span or a
/// duplicated span.
fn mutate(rng: &mut SplitMix64, text: &str) -> String {
    // Non-ASCII letters, digits and whitespace; an integer past i128; bad
    // float literals; empty symbols; unbalanced braces; stray punctuation.
    const SNIPPETS: [&str; 24] = [
        "\u{e9}",
        "\u{a0}",
        "\u{2028}",
        "\u{3000}",
        "\u{df}x",
        "\u{663}",
        "\u{2603}",
        "999999999999999999999999999999999999999999",
        "f0xZZ",
        "1.2.3",
        "% ",
        "@ ",
        "{",
        "}",
        "-",
        ".",
        ",",
        "\n",
        ";",
        "_",
        "x",
        "0",
        " %r0 ",
        "\t",
    ];
    let at = floor_boundary(text, rng.gen_range(0..text.len() as u64 + 1) as usize);
    let len = rng.gen_range(1u64..17) as usize;
    let end = floor_boundary(text, at + len);
    match rng.gen_range(0u64..3) {
        0 => splice(text, at, 0, SNIPPETS[rng.gen_range(0..SNIPPETS.len() as u64) as usize]),
        1 => splice(text, at, end - at, ""),
        _ => splice(text, end, 0, &text[at..end]),
    }
}

/// How [`parsers_agree`] found `lir::parse` and the reference parser to
/// agree on one text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Agreement {
    /// The reference module verifies; `lir::parse` returns the same one.
    SameModule,
    /// The reference parses, but one of its functions fails the verifier;
    /// `lir::parse` fails with that function's problems.
    Malformed,
    /// Both fail, with the same line and message.
    SameError,
    /// The reference panics (it sized a global's words from the declared
    /// count); `lir::parse` fails.
    ReferencePanicked,
}

/// `Err` unless `lir::parse` is the reference parser followed by the
/// verifier on `text`. Where the reference module verifies, both return
/// the same `Module`. Where a function of it fails `verify_function`,
/// `lir::parse` fails with that function's problems at the line of its
/// `define`. Where the reference fails, both fail with the same line and
/// message, and where it panics, `lir::parse` returns an error. Every
/// module `lir::parse` returns passes `verify_module`.
fn parsers_agree(text: &str) -> Result<Agreement, String> {
    use lir::verify::{verify_function, verify_module};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let reference = catch_unwind(AssertUnwindSafe(|| reference_parse::parse_module(text)));
    let new = catch_unwind(AssertUnwindSafe(|| lir::parse::parse_module(text)))
        .map_err(|_| format!("lir::parse panicked on:\n{text}"))?;
    if let Ok(m) = &new {
        ensure!(verify_module(m).is_ok(), "lir::parse returned an unverified module:\n{text}");
    }
    match reference {
        Ok(Ok(a)) => {
            let malformed = a
                .functions
                .iter()
                .enumerate()
                .find_map(|(i, f)| Some((i, verify_function(f).err()?)));
            let Some((i, e)) = malformed else {
                let got = new.as_ref().map(|_| "a module");
                ensure!(new.as_ref() == Ok(&a), "modules differ ({got:?}) on:\n{text}");
                return Ok(Agreement::SameModule);
            };
            let Err(b) = new else {
                return Err(format!("lir::parse accepted malformed @{}:\n{text}", e.function));
            };
            let want = format!("function @{} is malformed: {}", e.function, e.problems.join("; "));
            ensure_eq!(b.msg, want, "wrong verifier message on:\n{text}");
            // The error's line holds the `define` of function `i`: the
            // (i+1)-th `define` in the text.
            let line_start: usize =
                text.split('\n').take(b.line as usize - 1).map(|l| l.len() + 1).sum();
            let line_end =
                line_start + text[line_start..].find('\n').unwrap_or(text.len() - line_start);
            let defines_to = |end: usize| text[..end].matches("define").count();
            ensure!(
                defines_to(line_start) <= i && defines_to(line_end) > i,
                "line {} does not hold the `define` of @{} on:\n{text}",
                b.line,
                e.function
            );
            Ok(Agreement::Malformed)
        }
        Ok(Err(a)) => {
            let Err(b) = new else {
                return Err(format!(
                    "reference {:?}, lir::parse a module on:\n{text}",
                    (a.line, a.msg)
                ));
            };
            ensure_eq!((a.line, a.msg), (b.line, b.msg), "errors differ on:\n{text}");
            Ok(Agreement::SameError)
        }
        Err(_) => {
            ensure!(new.is_err(), "the reference panicked, lir::parse accepted:\n{text}");
            Ok(Agreement::ReferencePanicked)
        }
    }
}

/// `lir::parse` is the reference parser plus the verifier: every printed
/// module of the suite and the fuzz profiles (original and optimized)
/// parses to the reference's `Module`, and each of 8,000 seeded single
/// edits of them lands in one branch of [`parsers_agree`]. The malformed
/// branch must be reached, or the verifier half goes unchecked.
#[test]
fn parser_matches_the_reference_parser() {
    let texts: Vec<String> =
        suite_and_fuzz_pairs().iter().flat_map(|(a, b)| [a.to_string(), b.to_string()]).collect();
    for text in &texts {
        assert_eq!(parsers_agree(text), Ok(Agreement::SameModule));
    }
    let mut branches: Vec<(Agreement, u64)> = Vec::new();
    harness::check("parser_matches_the_reference_parser", 8_000, |rng| {
        let text = &texts[rng.gen_range(0..texts.len() as u64) as usize];
        let branch = parsers_agree(&mutate(rng, text))?;
        match branches.iter_mut().find(|(b, _)| *b == branch) {
            Some((_, n)) => *n += 1,
            None => branches.push((branch, 1)),
        }
        Ok(())
    });
    println!("parser_matches_the_reference_parser: edits per branch {branches:?}");
    for branch in [Agreement::SameModule, Agreement::Malformed, Agreement::SameError] {
        assert!(branches.iter().any(|(b, _)| *b == branch), "no edit reached {branch:?}");
    }
}

/// Chain soundness: whenever the per-pass chain certifies a function
/// (every step that changed it validated), the *endpoints* — the original
/// and the fully-optimized function — never observably diverge under the
/// triage layer's differential-interpretation battery. Validation composing
/// transitively is the chain's whole claim; this checks it against the
/// interpreter, the independent semantics oracle.
#[test]
fn chain_certified_endpoints_never_diverge() {
    use llvm_md::core::triage::{triage_alarm, TriageClass, TriageOptions};
    use llvm_md::core::validate::Verdict;
    use llvm_md::driver::{ChainValidator, ValidationEngine};
    use llvm_md::workload::shuffled_schedule;
    harness::check("chain_certified_endpoints_never_diverge", 10, |rng| {
        let seed = rng.gen_range(0u64..500);
        let mut p = profiles()[(seed % 12) as usize];
        p.functions = 5;
        p.seed = seed * 1213 + 11;
        let m = generate(&p);
        // A seed-shuffled pass order stresses step interactions the fixed
        // paper pipeline never exercises.
        let pm = shuffled_schedule(seed).pass_manager();
        let v = Validator::new();
        let chain = ChainValidator::new(ValidationEngine::serial()).validate_chain(&m, &pm, &v);
        let mut end = m.clone();
        pm.run_module(&mut end);
        let opts = TriageOptions { battery: 8, ..TriageOptions::default() };
        for (i, orig) in m.functions.iter().enumerate() {
            let transformed_somewhere = chain
                .steps
                .iter()
                .any(|s| s.report.records.iter().any(|r| r.name == orig.name && r.transformed));
            let certified = transformed_somewhere && chain.blame_for(&orig.name).is_none();
            if !certified {
                continue;
            }
            let opt = &end.functions[i];
            // A dummy alarm verdict: `triage_alarm` only copies its stats
            // into the evidence; the classification is pure interpretation.
            let dummy = Verdict { validated: false, reason: None, stats: Default::default() };
            let triage = triage_alarm(&m, orig, opt, &dummy, &opts);
            ensure!(
                triage.class != TriageClass::RealMiscompile,
                "@{}: chain-certified but endpoints diverge (witness {:?})",
                orig.name,
                triage.witness
            );
        }
        Ok(())
    });
}

/// Chain reports are worker-count deterministic, triage included — the
/// chain analogue of `parallel_engine_matches_serial_driver`.
#[test]
fn chain_report_is_worker_count_deterministic() {
    use llvm_md::core::{Cascade, TriageOptions};
    use llvm_md::driver::{ChainValidator, ValidationEngine};
    use llvm_md::workload::paper_schedule;
    harness::check("chain_report_is_worker_count_deterministic", 6, |rng| {
        let seed = rng.gen_range(0u64..500);
        let mut p = profiles()[(seed % 12) as usize];
        p.functions = 5;
        p.seed = seed * 2741 + 3;
        let m = generate(&p);
        let pm = paper_schedule().pass_manager();
        let opts = TriageOptions { battery: 8, ..TriageOptions::default() };
        let v = Validator { cascade: Cascade::Triage(opts), ..Validator::new() };
        let serial = ChainValidator::new(ValidationEngine::serial()).validate_chain(&m, &pm, &v);
        for workers in [2usize, 4] {
            let par = ChainValidator::new(ValidationEngine::with_workers(workers))
                .validate_chain(&m, &pm, &v);
            ensure!(
                serial == par,
                "workers={workers}: chain report diverged from the serial chain"
            );
        }
        Ok(())
    });
}

#[test]
fn replace_makes_new_structure_canonical() {
    let mut g = SharedGraph::new();
    let a = g.add(Node::Param(0));
    let zero = g.add(Node::Const(Constant::int(Ty::I64, 0)));
    let sum = g.add(Node::Bin(BinOp::Add, Ty::I64, a, zero));
    g.replace(sum, a);
    assert!(g.same(sum, a));
    assert!(matches!(g.resolve(sum), Node::Param(0)), "new structure wins");
}
