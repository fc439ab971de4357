//! Ground-truth tests for the tier-2 bit-precise layer, over the whole
//! stack:
//!
//! * the CDCL solver decides hand-built CNF vectors correctly (unit
//!   propagation chains, pigeonhole UNSAT, model soundness, budget caps);
//! * an UNSAT query upgrades a tier-1 false alarm to `ProvedEquivalent`,
//!   and the proved pair never diverges under a large differential battery
//!   (the proof and the interpreter must agree);
//! * a SAT model on a needle-in-a-haystack miscompile — a divergence the
//!   random battery cannot find — replays through `lir::interp` as a real
//!   divergence and escalates to `RealMiscompile` with a minimized
//!   witness;
//! * alarms the battery already classifies, and pairs outside the
//!   encodable scope, carry the documented skip reasons;
//! * tiered reports (including `SatStats`) are equal across worker counts,
//!   and the verdict line embeds the tier-2 stats.

use llvm_md::core::sat::{Lit, SatResult, Solver};
use llvm_md::core::triage::{build_envs, triage_alarm};
use llvm_md::core::wire::{self, ToWire};
use llvm_md::core::{
    Cascade, RuleSet, SatOptions, SatOutcome, SatSkip, TriageClass, TriageOptions, TriagedVerdict,
    Validator, VerdictClass,
};
use llvm_md::driver::ValidationEngine;
use llvm_md::lir::func::Module;
use llvm_md::lir::interp::{run, ExecConfig};
use llvm_md::lir::parse::parse_module;

// ---------------------------------------------------------------- solver

#[test]
fn solver_decides_unit_propagation_chain() {
    // (x0) ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2): pure propagation, no search.
    let mut s = Solver::new(3);
    s.add_clause(&[Lit::pos(0)]);
    s.add_clause(&[Lit::neg(0), Lit::pos(1)]);
    s.add_clause(&[Lit::neg(1), Lit::pos(2)]);
    match s.solve(10_000, None) {
        SatResult::Sat(model) => assert_eq!(model, vec![true, true, true]),
        other => panic!("chain must be SAT: {other:?}"),
    }
}

#[test]
fn solver_detects_direct_contradiction() {
    let mut s = Solver::new(1);
    s.add_clause(&[Lit::pos(0)]);
    s.add_clause(&[Lit::neg(0)]);
    assert_eq!(s.solve(10_000, None), SatResult::Unsat);
}

/// Pigeonhole `php(n+1, n)`: n+1 pigeons in n holes, the classic
/// resolution-hard UNSAT family. Variable `p * holes + h` means "pigeon p
/// sits in hole h".
fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
    let mut s = Solver::new(pigeons * holes);
    for p in 0..pigeons {
        let row: Vec<Lit> = (0..holes).map(|h| Lit::pos(p * holes + h)).collect();
        s.add_clause(&row);
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                s.add_clause(&[Lit::neg(p1 * holes + h), Lit::neg(p2 * holes + h)]);
            }
        }
    }
    s
}

#[test]
fn solver_refutes_pigeonhole() {
    let mut s = pigeonhole(5, 4);
    assert_eq!(s.solve(1_000_000, None), SatResult::Unsat);
    assert!(s.stats().conflicts > 0, "php(5,4) requires genuine search");
}

#[test]
fn solver_models_satisfy_every_clause() {
    // A satisfiable ring of implications plus some binary constraints:
    // whatever model comes back must satisfy the clause set it was built
    // from (checked literally, clause by clause).
    let n = 8;
    let mut s = Solver::new(n);
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for i in 0..n {
        clauses.push(vec![Lit::neg(i), Lit::pos((i + 1) % n)]);
    }
    clauses.push(vec![Lit::pos(0), Lit::pos(3), Lit::pos(5)]);
    clauses.push(vec![Lit::neg(2), Lit::neg(6), Lit::pos(7)]);
    for c in &clauses {
        s.add_clause(c);
    }
    match s.solve(100_000, None) {
        SatResult::Sat(model) => {
            for c in &clauses {
                assert!(
                    c.iter().any(|l| model[l.var()] != l.is_neg()),
                    "model violates clause {c:?}"
                );
            }
        }
        other => panic!("instance is satisfiable: {other:?}"),
    }
}

#[test]
fn solver_honors_conflict_budget() {
    // php(6,5) cannot be refuted without conflicts; a zero-conflict budget
    // must come back Unknown, never a wrong verdict.
    let mut s = pigeonhole(6, 5);
    assert_eq!(s.solve(0, None), SatResult::Unknown);
}

// ------------------------------------------------------ tiered cascade

fn parse(src: &str) -> Module {
    parse_module(src).expect("test module parses")
}

/// A pair tier 1 cannot close without rewrite rules but tier 2 proves:
/// `(a | b) + (a & b)` is `a + b` for every bit pattern.
fn provable_pair() -> (Module, Module) {
    let orig = parse(
        "define i64 @f(i64 %a, i64 %b) {\nentry:\n  %o = or i64 %a, %b\n  %n = and i64 %a, %b\n  %r = add i64 %o, %n\n  ret i64 %r\n}\n",
    );
    let opt =
        parse("define i64 @f(i64 %a, i64 %b) {\nentry:\n  %r = add i64 %a, %b\n  ret i64 %r\n}\n");
    (orig, opt)
}

/// The needle: `f(x) = (x == 0x0123456789abcdef) ? 1 : 0` "optimized" to a
/// constant 0. Wrong on exactly one of 2^64 inputs — a random battery
/// cannot find it, the SAT query must.
const NEEDLE: u64 = 0x0123456789abcdef;

fn needle_pair() -> (Module, Module) {
    let orig = parse(
        "define i64 @f(i64 %x) {\nentry:\n  %c = icmp eq i64 %x, 81985529216486895\n  %r = select i1 %c, i64 1, i64 0\n  ret i64 %r\n}\n",
    );
    let opt = parse("define i64 @f(i64 %x) {\nentry:\n  ret i64 0\n}\n");
    (orig, opt)
}

/// A rule-less validator under the full three-tier cascade.
fn tiered_validator() -> Validator {
    let cascade = Cascade::Tiered(TriageOptions::default(), SatOptions::default());
    Validator { rules: RuleSet::none(), cascade, ..Validator::new() }
}

fn tiered(orig: &Module, opt: &Module) -> TriagedVerdict {
    tiered_validator().validate_cascade(orig, &orig.functions[0], &opt.functions[0])
}

#[test]
fn unsat_query_upgrades_false_alarm_to_proved_equivalent() {
    let (orig, opt) = provable_pair();
    let tv = tiered(&orig, &opt);
    assert!(!tv.verdict.validated, "tier 1 must alarm without rules (or the test is vacuous)");
    assert_eq!(tv.class(), VerdictClass::ProvedEquivalent);
    let stats = tv.triage.as_ref().and_then(|t| t.sat).expect("tiered alarms carry sat stats");
    assert_eq!(stats.outcome, Some(SatOutcome::Proved));
    assert!(stats.vars > 0 && stats.clauses > 0, "a real CNF was built: {stats:?}");
}

#[test]
fn proved_pairs_never_diverge_under_a_large_battery() {
    // The UNSAT proof and the interpreter must agree: hammer the proved
    // pair with a battery far bigger than the default and require zero
    // divergences (any witness here would mean the encoder proved a lie).
    let (orig, opt) = provable_pair();
    let tv = tiered(&orig, &opt);
    assert_eq!(tv.class(), VerdictClass::ProvedEquivalent);
    let opts = TriageOptions { battery: 256, ..TriageOptions::default() };
    let triage = triage_alarm(&orig, &orig.functions[0], &opt.functions[0], &tv.verdict, &opts);
    assert_eq!(
        triage.class,
        TriageClass::SuspectedIncomplete,
        "proved-equivalent pair diverged under interpretation — encoder soundness bug; \
         witness: {:?}",
        triage.witness
    );
}

#[test]
fn sat_model_replays_as_a_real_divergence() {
    let (orig, opt) = needle_pair();
    let tv = tiered(&orig, &opt);
    assert_eq!(
        tv.class(),
        VerdictClass::RealMiscompile,
        "the needle divergence must be found: {:?}",
        tv.triage
    );
    let triage = tv.triage.expect("alarms carry triage");
    let stats = triage.sat.expect("tiered alarms carry sat stats");
    assert_eq!(
        stats.outcome,
        Some(SatOutcome::Refuted),
        "the battery cannot hit a 1-in-2^64 needle; only the SAT model can"
    );
    // The witness is the needle itself (no strictly diverging shrink
    // exists), and it replays through the interpreter as a divergence.
    let w = triage.witness.expect("refuted pairs carry a witness");
    assert_eq!(w.args, vec![NEEDLE]);
    let topts = TriageOptions::default();
    let cfg = ExecConfig { fuel: topts.fuel, max_depth: topts.max_depth };
    let (orig_env, opt_env) = build_envs(&orig, &orig.functions[0], &opt.functions[0]);
    let a = run(&orig_env, "f", &w.args, &cfg).expect("original runs clean");
    let b = run(&opt_env, "f", &w.args, &cfg);
    assert_eq!(a, w.original, "witness original outcome must replay");
    assert_eq!(b, w.optimized, "witness optimized outcome must replay");
    assert_ne!(Ok(a), b, "witness must actually diverge");
}

#[test]
fn battery_classified_alarms_skip_the_sat_query() {
    // add vs sub diverges on nearly every input: the battery catches it
    // first, and tier 2 records that it never ran.
    let orig =
        parse("define i64 @f(i64 %x, i64 %y) {\nentry:\n  %r = add i64 %x, %y\n  ret i64 %r\n}\n");
    let opt =
        parse("define i64 @f(i64 %x, i64 %y) {\nentry:\n  %r = sub i64 %x, %y\n  ret i64 %r\n}\n");
    let tv = tiered(&orig, &opt);
    assert_eq!(tv.class(), VerdictClass::RealMiscompile);
    let stats = tv.triage.as_ref().and_then(|t| t.sat).expect("tiered alarms carry sat stats");
    assert_eq!(stats.outcome, Some(SatOutcome::Skipped(SatSkip::Classified)));
}

#[test]
fn tiered_reports_are_worker_count_independent() {
    // One module holding every cascade outcome at once: a provable false
    // alarm, the needle miscompile, a battery-classified miscompile, and
    // an untouched function. The serial and 4-worker tiered reports must
    // agree record-for-record — report equality compares `SatStats` too
    // (modulo wall-clock duration).
    let orig = parse(
        "define i64 @prove(i64 %a, i64 %b) {\nentry:\n  %o = or i64 %a, %b\n  %n = and i64 %a, %b\n  %r = add i64 %o, %n\n  ret i64 %r\n}\n\ndefine i64 @needle(i64 %x) {\nentry:\n  %c = icmp eq i64 %x, 81985529216486895\n  %r = select i1 %c, i64 1, i64 0\n  ret i64 %r\n}\n\ndefine i64 @classified(i64 %x, i64 %y) {\nentry:\n  %r = add i64 %x, %y\n  ret i64 %r\n}\n\ndefine i64 @id(i64 %x) {\nentry:\n  ret i64 %x\n}\n",
    );
    let opt = parse(
        "define i64 @prove(i64 %a, i64 %b) {\nentry:\n  %r = add i64 %a, %b\n  ret i64 %r\n}\n\ndefine i64 @needle(i64 %x) {\nentry:\n  ret i64 0\n}\n\ndefine i64 @classified(i64 %x, i64 %y) {\nentry:\n  %r = sub i64 %x, %y\n  ret i64 %r\n}\n\ndefine i64 @id(i64 %x) {\nentry:\n  ret i64 %x\n}\n",
    );
    let validator = tiered_validator();
    let serial = ValidationEngine::serial().validate_modules(&orig, &opt, &validator);
    let parallel = ValidationEngine::with_workers(4).validate_modules(&orig, &opt, &validator);
    assert_eq!(serial, parallel, "tiered reports diverged between 1 and 4 workers");
    // The report-level projections agree with the per-record classes.
    assert_eq!(serial.proved_equivalent(), 1);
    assert_eq!(serial.real_miscompiles(), 2);
    assert_eq!(serial.suspected_incomplete(), 0);
}

/// The tier-2 stats ride the verdict line: encoded as text and parsed
/// back, the line's `triage.sat` subtree is exactly `SatStats::to_wire`.
#[test]
fn sat_stats_round_trip_through_the_wire_format() {
    for (orig, opt) in [provable_pair(), needle_pair()] {
        let tv = tiered(&orig, &opt);
        let sat = tv.triage.as_ref().and_then(|t| t.sat).expect("tiered alarms carry sat stats");
        let line = wire::parse(&tv.to_wire().to_string()).expect("verdict lines parse");
        let embedded = line.get("triage").and_then(|t| t.get("sat"));
        assert_eq!(embedded, Some(&sat.to_wire()), "the triage line must embed the sat stats");
        assert!(sat.outcome.is_some(), "a run always sets the outcome");
    }
}
