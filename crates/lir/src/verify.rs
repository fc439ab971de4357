//! SSA and type verifier.
//!
//! Checks the structural invariants every pass must preserve:
//!
//! * every register has exactly one definition;
//! * every use is dominated by its definition (φ uses count at the end of
//!   the corresponding predecessor);
//! * φ-nodes have exactly one incoming per predecessor edge;
//! * operand types match instruction signatures;
//! * terminator targets exist and `ret` matches the function type.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::func::{BlockId, Function};
use crate::inst::{Inst, Term};
use crate::types::Ty;
use crate::value::{Constant, Operand, Reg};
use std::fmt;

/// A verification failure report (one or more problems).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name.
    pub function: String,
    /// Individual problems found.
    pub problems: Vec<String>,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "function @{} failed verification:", self.function)?;
        for p in &self.problems {
            writeln!(f, "  - {p}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Verify a single function. A well-formed function costs its CFG, its
/// dominator tree and two per-register tables; problem messages are only
/// formatted when there is a problem.
///
/// # Errors
///
/// Returns all problems found, not just the first.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    let mut problems = Vec::new();
    if f.blocks.is_empty() {
        problems.push("function has no blocks".into());
        return Err(VerifyError { function: f.name.clone(), problems });
    }
    let cfg = Cfg::new(f);
    let dt = DomTree::new(f, &cfg);
    if !cfg.preds[f.entry().index()].is_empty() {
        problems.push("entry block has predecessors".into());
    }
    let tys = collect_types(f, &mut problems);
    check_phi_shape(f, &cfg, &mut problems);
    check_types(f, &tys, &mut problems);
    check_dominance(f, &cfg, &dt, &mut problems);
    if problems.is_empty() {
        Ok(())
    } else {
        Err(VerifyError { function: f.name.clone(), problems })
    }
}

/// Verify every function in a module.
///
/// # Errors
///
/// Returns the error for the first failing function.
pub fn verify_module(m: &crate::func::Module) -> Result<(), VerifyError> {
    for f in &m.functions {
        verify_function(f)?;
    }
    Ok(())
}

/// Where an operand is used or checked, for problem messages. Rendered
/// only when a problem is reported, so the success path formats nothing.
#[derive(Clone, Copy)]
enum Site {
    /// A φ-node, by the register it defines.
    Phi(Reg),
    /// An instruction, by the register it defines (`None` for stores and
    /// void calls).
    Inst(Option<Reg>),
    /// A fixed label (`ret`, `br`, `inst`, `terminator`, …).
    Label(&'static str),
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Phi(r) => write!(f, "phi {r}"),
            Site::Inst(Some(d)) => write!(f, "{d}"),
            Site::Inst(None) => f.write_str("store/call"),
            Site::Label(label) => f.write_str(label),
        }
    }
}

/// The type of each register, indexed by register number (`None`:
/// undefined).
type RegTypes = Vec<Option<Ty>>;

fn collect_types(f: &Function, problems: &mut Vec<String>) -> RegTypes {
    let mut tys: RegTypes = vec![None; f.reg_bound()];
    let mut define = |r: Reg, ty: Ty, what: &str, problems: &mut Vec<String>| {
        if r.index() >= tys.len() {
            tys.resize(r.index() + 1, None);
        }
        if tys[r.index()].replace(ty).is_some() {
            problems.push(format!("register {r} defined more than once ({what})"));
        }
    };
    for &(r, ty) in &f.params {
        define(r, ty, "parameter", problems);
    }
    for (_, b) in f.iter_blocks() {
        for phi in &b.phis {
            define(phi.dst, phi.ty, "phi", problems);
        }
        for inst in &b.insts {
            if let Some(d) = inst.dst() {
                define(d, inst.dst_ty(), "instruction", problems);
            }
        }
    }
    tys
}

fn check_phi_shape(f: &Function, cfg: &Cfg, problems: &mut Vec<String>) {
    for (id, b) in f.iter_blocks() {
        if !cfg.is_reachable(id) {
            continue;
        }
        // `Cfg::new` lists predecessors in ascending block order, so the
        // distinct ones are those unequal to their left neighbor.
        let preds = &cfg.preds[id.index()];
        let distinct = || {
            preds.iter().enumerate().filter(|&(i, p)| i == 0 || preds[i - 1] != *p).map(|(_, p)| p)
        };
        for phi in &b.phis {
            // Each pred edge needs exactly one incoming; with multi-edges a
            // single (pred, v) entry would be ambiguous only if values
            // differed, which SSA φ syntax cannot express, so we require one
            // entry per distinct predecessor.
            for p in distinct() {
                let n = phi.incomings.iter().filter(|(q, _)| q == p).count();
                if n != 1 {
                    problems.push(format!(
                        "phi {} in {}: {n} incomings from predecessor {}",
                        phi.dst,
                        b.name,
                        f.block(*p).name
                    ));
                }
            }
            for (p, _) in &phi.incomings {
                if !preds.contains(p) {
                    problems.push(format!(
                        "phi {} in {}: incoming from non-predecessor {}",
                        phi.dst,
                        b.name,
                        f.block(*p).name
                    ));
                }
            }
        }
    }
}

fn operand_ty(op: Operand, tys: &RegTypes) -> Option<Ty> {
    match op {
        Operand::Reg(r) => tys.get(r.index()).copied().flatten(),
        Operand::Const(c) => Some(c.ty()),
        Operand::Global(_) => Some(Ty::Ptr),
    }
}

fn expect_ty(what: Site, op: Operand, want: Ty, tys: &RegTypes, problems: &mut Vec<String>) {
    match operand_ty(op, tys) {
        Some(t) if t == want => {}
        Some(t) => problems.push(format!("{what}: operand has type {t}, expected {want}")),
        None => {
            if let Operand::Reg(r) = op {
                problems.push(format!("{what}: use of undefined register {r}"));
            }
        }
    }
}

fn check_types(f: &Function, tys: &RegTypes, problems: &mut Vec<String>) {
    for (_, b) in f.iter_blocks() {
        for phi in &b.phis {
            for &(_, v) in &phi.incomings {
                // `undef` constants adopt the phi type.
                if let Operand::Const(Constant::Undef(_)) = v {
                    continue;
                }
                expect_ty(Site::Phi(phi.dst), v, phi.ty, tys, problems);
            }
        }
        for inst in &b.insts {
            let ctx = Site::Inst(inst.dst());
            match inst {
                Inst::Bin { ty, a, b: bb, .. } => {
                    if !ty.is_int() {
                        problems.push(format!("{ctx}: integer op at type {ty}"));
                    }
                    expect_ty(ctx, *a, *ty, tys, problems);
                    expect_ty(ctx, *bb, *ty, tys, problems);
                }
                Inst::FBin { a, b: bb, .. } => {
                    expect_ty(ctx, *a, Ty::F64, tys, problems);
                    expect_ty(ctx, *bb, Ty::F64, tys, problems);
                }
                Inst::Icmp { ty, a, b: bb, .. } => {
                    if !ty.is_int() && !ty.is_ptr() {
                        problems.push(format!("{ctx}: icmp at type {ty}"));
                    }
                    expect_ty(ctx, *a, *ty, tys, problems);
                    expect_ty(ctx, *bb, *ty, tys, problems);
                }
                Inst::Fcmp { a, b: bb, .. } => {
                    expect_ty(ctx, *a, Ty::F64, tys, problems);
                    expect_ty(ctx, *bb, Ty::F64, tys, problems);
                }
                Inst::Select { ty, c, t, f: fv, .. } => {
                    expect_ty(ctx, *c, Ty::I1, tys, problems);
                    expect_ty(ctx, *t, *ty, tys, problems);
                    expect_ty(ctx, *fv, *ty, tys, problems);
                }
                Inst::Cast { op, from, to, v, .. } => {
                    expect_ty(ctx, *v, *from, tys, problems);
                    use crate::inst::CastOp::*;
                    let ok = match op {
                        Zext | Sext => from.is_int() && to.is_int() && from.bits() < to.bits(),
                        Trunc => from.is_int() && to.is_int() && from.bits() > to.bits(),
                        FpToSi => *from == Ty::F64 && to.is_int(),
                        SiToFp => from.is_int() && *to == Ty::F64,
                    };
                    if !ok {
                        problems.push(format!("{ctx}: invalid cast {from} to {to}"));
                    }
                }
                Inst::Alloca { size, align, .. } => {
                    if *size == 0 || *align == 0 || !align.is_power_of_two() {
                        problems.push(format!("{ctx}: alloca size/align invalid"));
                    }
                }
                Inst::Load { ptr, .. } => expect_ty(ctx, *ptr, Ty::Ptr, tys, problems),
                Inst::Store { ty, val, ptr } => {
                    expect_ty(ctx, *val, *ty, tys, problems);
                    expect_ty(ctx, *ptr, Ty::Ptr, tys, problems);
                }
                Inst::Gep { base, offset, .. } => {
                    expect_ty(ctx, *base, Ty::Ptr, tys, problems);
                    expect_ty(ctx, *offset, Ty::I64, tys, problems);
                }
                Inst::Call { args, .. } => {
                    for (ty, a) in args {
                        expect_ty(ctx, *a, *ty, tys, problems);
                    }
                }
            }
        }
        match &b.term {
            Term::Ret { ty, val } => {
                if *ty != f.ret {
                    problems.push(format!("ret type {ty} does not match function type {}", f.ret));
                }
                match (ty, val) {
                    (Ty::Void, None) => {}
                    (Ty::Void, Some(_)) => problems.push("ret void with a value".into()),
                    (_, None) => problems.push("non-void ret without a value".into()),
                    (t, Some(v)) => expect_ty(Site::Label("ret"), *v, *t, tys, problems),
                }
            }
            Term::CondBr { cond, .. } => expect_ty(Site::Label("br"), *cond, Ty::I1, tys, problems),
            Term::Switch { ty, val, .. } => {
                if !ty.is_int() {
                    problems.push(format!("switch at non-integer type {ty}"));
                }
                expect_ty(Site::Label("switch"), *val, *ty, tys, problems);
            }
            Term::Br { .. } | Term::Unreachable => {}
        }
        for s in b.term.successors() {
            if s.index() >= f.blocks.len() {
                problems.push(format!("branch to nonexistent block {s}"));
            }
        }
    }
}

fn check_dominance(f: &Function, cfg: &Cfg, dt: &DomTree, problems: &mut Vec<String>) {
    let defs = f.def_blocks();
    // Position of each def within its block, for same-block ordering checks
    // (parameters and φs define "at the top", position 0; with duplicate
    // definitions the last one wins, as in `def_blocks`).
    let mut def_pos = vec![0; defs.len()];
    for (_, b) in f.iter_blocks() {
        for phi in &b.phis {
            def_pos[phi.dst.index()] = 0;
        }
        for (i, inst) in b.insts.iter().enumerate() {
            if let Some(d) = inst.dst() {
                def_pos[d.index()] = i + 1;
            }
        }
    }
    let check_use =
        |r: Reg, at_block: BlockId, at_pos: usize, what: Site, problems: &mut Vec<String>| {
            let Some(db) = defs.get(r.index()).copied().flatten() else {
                problems.push(format!("{what}: use of undefined register {r}"));
                return;
            };
            if !cfg.is_reachable(at_block) {
                return; // dominance is vacuous in unreachable code
            }
            if db == at_block {
                let dp = def_pos[r.index()];
                if dp > at_pos {
                    problems
                        .push(format!("{what}: {r} used before its definition in the same block"));
                }
            } else if !dt.strictly_dominates(db, at_block) {
                problems.push(format!(
                    "{what}: use of {r} in {} not dominated by its definition in {}",
                    f.block(at_block).name,
                    f.block(db).name
                ));
            }
        };
    for (id, b) in f.iter_blocks() {
        if !cfg.is_reachable(id) {
            continue;
        }
        for phi in &b.phis {
            for &(pred, v) in &phi.incomings {
                if let Operand::Reg(r) = v {
                    // A φ use happens at the end of the predecessor.
                    check_use(r, pred, usize::MAX, Site::Phi(phi.dst), problems);
                }
            }
        }
        for (i, inst) in b.insts.iter().enumerate() {
            inst.visit_operands(|op| {
                if let Operand::Reg(r) = op {
                    check_use(r, id, i + 1, Site::Label("inst"), problems);
                }
            });
        }
        b.term.visit_operands(|op| {
            if let Operand::Reg(r) = op {
                check_use(r, id, usize::MAX, Site::Label("terminator"), problems);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    fn verify_src(src: &str) -> Result<(), VerifyError> {
        let m = parse_module(src).expect("parse");
        verify_function(&m.functions[0])
    }

    #[test]
    fn accepts_well_formed_loop() {
        let src = "\
define i64 @sum(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %s = phi i64 [ 0, %entry ], [ %s2, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %s2 = add i64 %s, %i
  %i2 = add i64 %i, 1
  br label %header
exit:
  ret i64 %s
}
";
        assert!(verify_src(src).is_ok());
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        let src = "\
define i64 @bad(i64 %n) {
entry:
  %y = add i64 %x, 1
  %x = add i64 %n, 1
  ret i64 %y
}
";
        let err = verify_src(src).unwrap_err();
        assert!(err.problems.iter().any(|p| p.contains("used before its definition")));
    }

    #[test]
    fn rejects_non_dominating_use() {
        let src = "\
define i64 @bad(i1 %c, i64 %n) {
entry:
  br i1 %c, label %a, label %b
a:
  %x = add i64 %n, 1
  br label %join
b:
  br label %join
join:
  ret i64 %x
}
";
        let err = verify_src(src).unwrap_err();
        assert!(err.problems.iter().any(|p| p.contains("not dominated")));
    }

    #[test]
    fn rejects_type_mismatch() {
        let src = "\
define i64 @bad(i32 %n) {
entry:
  %x = add i64 %n, 1
  ret i64 %x
}
";
        let err = verify_src(src).unwrap_err();
        assert!(err.problems.iter().any(|p| p.contains("expected i64")));
    }

    #[test]
    fn rejects_phi_missing_incoming() {
        let src = "\
define i64 @bad(i1 %c) {
entry:
  br i1 %c, label %a, label %join
a:
  br label %join
join:
  %x = phi i64 [ 1, %a ]
  ret i64 %x
}
";
        let err = verify_src(src).unwrap_err();
        assert!(err.problems.iter().any(|p| p.contains("incomings from predecessor")));
    }

    #[test]
    fn rejects_bad_cast_and_ret_mismatch() {
        let src = "\
define i32 @bad(i64 %n) {
entry:
  %x = zext i64 %n to i32
  ret i64 %n
}
";
        let err = verify_src(src).unwrap_err();
        assert!(err.problems.iter().any(|p| p.contains("invalid cast")));
        assert!(err.problems.iter().any(|p| p.contains("does not match function type")));
    }

    #[test]
    fn phi_use_at_pred_end_is_legal() {
        // The φ uses %x from the latch; %x is defined in the latch. Legal.
        let src = "\
define i64 @ok(i64 %n) {
entry:
  br label %h
h:
  %p = phi i64 [ 0, %entry ], [ %x, %h ]
  %x = add i64 %p, 1
  %c = icmp slt i64 %x, %n
  br i1 %c, label %h, label %e
e:
  ret i64 %p
}
";
        assert!(verify_src(src).is_ok());
    }

    #[test]
    fn undefined_register_reported() {
        let src = "\
define i64 @bad() {
entry:
  ret i64 %ghost
}
";
        let err = verify_src(src).unwrap_err();
        assert!(err.problems.iter().any(|p| p.contains("undefined register")));
    }
}
