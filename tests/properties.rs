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
//!   endpoints, and `ChainReport`s are worker-count deterministic.
//!
//! Driven by the in-repo [`harness`] (the workspace is zero-dependency, so
//! no `proptest`): each property runs a fixed budget of seeded cases, and a
//! failure reports the exact case seed — rerun a single case by passing
//! that seed to [`harness::check_one`].

use lir::inst::BinOp;
use lir::types::Ty;
use lir::value::Constant;
use llvm_md::core::{RuleBudgets, RuleSet, SharedGraph, Validator};
use llvm_md::gated::{Node, NodeId};
use llvm_md::workload::rng::SplitMix64;
use llvm_md::workload::{generate, profiles};

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
        let mut budgets = RuleBudgets::default();
        for _ in 0..16 {
            g.rebuild();
            if llvm_md::core::rules::apply_rules(&mut g, &[root], &rules, &mut counts, &mut budgets)
                == 0
            {
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
