//! Differential soundness: whenever the validator says *yes*, the
//! interpreter must agree on every tested input.
//!
//! The validator's guarantee (paper §2) is one-sided: `validated = true`
//! must imply the optimized function behaves like the original for every
//! terminating, non-trapping execution. False alarms are a quality issue;
//! a false *acceptance* would be a bug in this reproduction. This suite
//! hammers that direction: generated modules are optimized by the full
//! pipeline (and by each single pass), every function is validated with the
//! *most permissive* rule set, and every validated function is executed on
//! a battery of inputs on both sides comparing return values, final global
//! memory, and the trace of observable calls.

use llvm_md::core::{RuleSet, Validator};
use llvm_md::driver::ValidationEngine;
use llvm_md::lir::func::Module;
use llvm_md::lir::interp::{run, ExecConfig, Trap};
use llvm_md::opt::paper_pipeline;
use llvm_md::workload::{generate, profiles};

/// Argument batteries: a spread of magnitudes and signs.
fn arg_sets(n_params: usize) -> Vec<Vec<u64>> {
    let seeds: [u64; 5] = [0, 1, 7, 255, 0u64.wrapping_sub(3)];
    seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            (0..n_params)
                .map(|p| s.wrapping_mul(31).wrapping_add(p as u64 * 17 + i as u64))
                .collect()
        })
        .collect()
}

/// Compare behaviour of `fname` in both modules on the battery. Inputs that
/// trap identically on both sides are fine; the validator promises nothing
/// for trapping runs, but a run that *succeeds* on one side must succeed
/// with the same observables on the other.
fn same_behaviour(a: &Module, b: &Module, fname: &str) {
    let f = a.function(fname).expect("function exists");
    for args in arg_sets(f.params.len()) {
        let cfg = ExecConfig::default();
        let ra = run(a, fname, &args, &cfg);
        let rb = run(b, fname, &args, &cfg);
        match (ra, rb) {
            (Ok(oa), Ok(ob)) => {
                assert_eq!(oa.ret, ob.ret, "{fname}({args:?}): return values differ");
                assert_eq!(oa.globals, ob.globals, "{fname}({args:?}): final globals differ");
                assert_eq!(oa.trace, ob.trace, "{fname}({args:?}): observable call traces differ");
            }
            // Resource exhaustion may legitimately differ; semantic traps
            // (division, OOB) on *both* sides are outside the guarantee.
            (Err(Trap::OutOfFuel | Trap::StackOverflow), _)
            | (_, Err(Trap::OutOfFuel | Trap::StackOverflow)) => {}
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => {
                panic!("{fname}({args:?}): original succeeds but optimized traps: {e}")
            }
            (Err(e), Ok(_)) => {
                panic!("{fname}({args:?}): original traps ({e}) but optimized succeeds")
            }
        }
    }
}

#[test]
fn validated_pipeline_output_is_behaviourally_equal() {
    let permissive = Validator { rules: RuleSet::full(), ..Validator::new() };
    for mut profile in profiles().into_iter().take(6) {
        profile.functions = 18;
        let m = generate(&profile);
        let mut opt = m.clone();
        paper_pipeline().run_module(&mut opt);
        let mut checked = 0;
        for (fi, fo) in m.functions.iter().zip(opt.functions.iter()) {
            if !llvm_md::driver::changed(fi, fo) {
                continue;
            }
            let verdict = permissive.validate(fi, fo);
            if verdict.validated {
                same_behaviour(&m, &opt, &fi.name);
                checked += 1;
            }
        }
        assert!(checked > 0, "{}: no validated transformations to check", profile.name);
    }
}

#[test]
fn validated_single_passes_are_behaviourally_equal() {
    let permissive = Validator { rules: RuleSet::full(), ..Validator::new() };
    let mut profile = profiles()[0];
    profile.functions = 15;
    let m = generate(&profile);
    for pass in ["adce", "gvn", "sccp", "licm", "ld", "lu", "dse", "instcombine"] {
        let mut opt = m.clone();
        let mut pm = llvm_md::opt::PassManager::new();
        pm.add(llvm_md::opt::pass_by_name(pass).expect("known pass"));
        pm.run_module(&mut opt);
        for (fi, fo) in m.functions.iter().zip(opt.functions.iter()) {
            if !llvm_md::driver::changed(fi, fo) {
                continue;
            }
            if permissive.validate(fi, fo).validated {
                same_behaviour(&m, &opt, &fi.name);
            }
        }
    }
}

/// The certified (spliced) output of the `llvm-md` driver must always
/// behave like the input — validated or not.
#[test]
fn certified_output_always_behaves_like_input() {
    let validator = Validator::new();
    let mut profile = profiles()[2]; // gcc flavour: branchy
    profile.functions = 15;
    let m = generate(&profile);
    let (certified, _) = ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &validator);
    for f in &m.functions {
        same_behaviour(&m, &certified, &f.name);
    }
}

/// Pairing soundness: an output module whose functions were *reordered*
/// must pair by name — identical functions pair with themselves (no
/// transformations, no alarms), never with whatever happens to share their
/// position.
#[test]
fn reordered_functions_pair_by_name_not_position() {
    let mut profile = profiles()[3];
    profile.functions = 8;
    let m = generate(&profile);
    let mut out = m.clone();
    out.functions.reverse();
    let report = ValidationEngine::serial().validate_modules(&m, &out, &Validator::new());
    assert_eq!(report.records.len(), m.functions.len());
    assert_eq!(
        report.transformed(),
        0,
        "identical-but-reordered functions must pair by name, not mispair by position"
    );
    // Records keep input order.
    for (rec, f) in report.records.iter().zip(&m.functions) {
        assert_eq!(rec.name, f.name);
    }
}

/// Pairing soundness: a *dropped* function is an alarm record, and the
/// functions after the gap still pair correctly instead of shifting one
/// position over.
#[test]
fn dropped_function_alarms_instead_of_mispairing() {
    let mut profile = profiles()[3];
    profile.functions = 8;
    let m = generate(&profile);
    let mut out = m.clone();
    let dropped = out.functions.remove(2).name;
    let report = ValidationEngine::serial().validate_modules(&m, &out, &Validator::new());
    assert_eq!(report.records.len(), m.functions.len(), "dropped function still recorded");
    assert_eq!(report.alarms(), 1, "exactly the dropped function alarms");
    let rec = report.records.iter().find(|r| r.name == dropped).expect("alarm record");
    assert!(rec.transformed && !rec.validated);
    assert_eq!(rec.reason, Some(llvm_md::core::FailReason::MissingFunction));
    // Every surviving function pairs with itself: no shifted mispairs.
    for rec in report.records.iter().filter(|r| r.name != dropped) {
        assert!(!rec.transformed, "{}: mispaired after the gap", rec.name);
    }
}

/// Mutated optimizer output must never validate when the mutation is
/// observable. (The mutation flips an `add` to a `sub` with a non-zero
/// constant operand somewhere in a live position; if the validator accepts,
/// the interpreter must agree the mutation was unobservable.)
#[test]
fn mutations_never_validate_unless_unobservable() {
    use llvm_md::lir::inst::{BinOp, Inst};
    let permissive = Validator { rules: RuleSet::full(), ..Validator::new() };
    let mut profile = profiles()[1];
    profile.functions = 12;
    let m = generate(&profile);
    let mut mutated_count = 0;
    for f in &m.functions {
        let mut bad = f.clone();
        let mut done = false;
        for b in &mut bad.blocks {
            for inst in &mut b.insts {
                if let Inst::Bin { op, b: rhs, .. } = inst {
                    if *op == BinOp::Add && rhs.as_int().is_some_and(|k| k != 0) && !done {
                        *op = BinOp::Sub;
                        done = true;
                    }
                }
            }
        }
        if !done {
            continue;
        }
        mutated_count += 1;
        let verdict = permissive.validate(f, &bad);
        if verdict.validated {
            // The mutated instruction must have been dead or cancelled out.
            let mut m2 = m.clone();
            *m2.functions.iter_mut().find(|g| g.name == f.name).expect("present") = bad;
            same_behaviour(&m, &m2, &f.name);
        }
    }
    assert!(mutated_count > 5, "mutation harness found too few targets");
}
