//! CFG preparation for gating.
//!
//! Gating wants a canonical control-flow shape (paper §3.3 / §5.4):
//!
//! * a single `ret` block with a return-value φ (so the function's value and
//!   final memory are single graph roots);
//! * every loop with a dedicated preheader, a single latch and dedicated
//!   exit blocks (LLVM's loop-simplify form), so loop-header φs are exactly
//!   μ-nodes and every loop-exit value crosses a recognizable exit edge;
//! * no unreachable blocks;
//! * a *reducible* CFG — irreducible functions are rejected, as in the
//!   paper (§5.1).

use lir::cfg::{drop_unreachable, Cfg};
use lir::dom::DomTree;
use lir::func::{Block, BlockId, Function, Phi};
use lir::inst::Term;
use lir::loops::{Analyses, LoopForest};
use lir::transform::{dedicated_exits, loop_simplify, remove_unreachable_blocks};
use lir::types::Ty;
use lir::value::Operand;
use std::fmt;

/// Why a function could not be translated to gated SSA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GateError {
    /// The CFG is irreducible; the front end does not compute gates for
    /// irreducible control flow (paper §5.1).
    Irreducible,
    /// The function failed a structural sanity check after preparation.
    Malformed(String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Irreducible => f.write_str("irreducible control flow"),
            GateError::Malformed(m) => write!(f, "malformed function: {m}"),
        }
    }
}

impl std::error::Error for GateError {}

/// A function in gating-ready shape, with its control-flow analyses.
#[derive(Debug)]
pub struct Prepared {
    /// The transformed copy of the input function.
    pub f: Function,
    /// Its CFG.
    pub cfg: Cfg,
    /// Dominator tree.
    pub dt: DomTree,
    /// Loop forest (guaranteed reducible).
    pub lf: LoopForest,
    /// The unique return block, if the function can return at all. The block
    /// contains at most one φ (the return value) and no instructions.
    pub ret_block: Option<BlockId>,
}

/// Rewrite every `ret` into a branch to one fresh exit block holding a
/// return-value φ. Returns the exit block, or `None` if the function has no
/// reachable `ret` (it diverges on all paths).
pub fn single_return(f: &mut Function) -> Option<BlockId> {
    let rets: Vec<BlockId> = f
        .iter_blocks()
        .filter(|(_, b)| matches!(b.term, Term::Ret { .. }))
        .map(|(id, _)| id)
        .collect();
    if rets.is_empty() {
        return None;
    }
    let ret_ty = f.ret;
    let exit = f.add_block("ret.exit");
    let phi_reg = if ret_ty == Ty::Void { None } else { Some(f.new_reg()) };
    let mut incomings: Vec<(BlockId, Operand)> = Vec::new();
    for r in rets {
        let b = f.block_mut(r);
        let val = match &b.term {
            Term::Ret { val, .. } => *val,
            _ => unreachable!(),
        };
        b.term = Term::Br { target: exit };
        if let (Some(_), Some(v)) = (phi_reg, val) {
            incomings.push((r, v));
        } else if phi_reg.is_some() {
            incomings.push((r, lir::func::undef(ret_ty)));
        }
    }
    let exit_block: &mut Block = f.block_mut(exit);
    if let Some(dst) = phi_reg {
        exit_block.phis.push(Phi { dst, ty: ret_ty, incomings });
        exit_block.term = Term::Ret { ty: ret_ty, val: Some(Operand::Reg(dst)) };
    } else {
        exit_block.term = Term::Ret { ty: ret_ty, val: None };
    }
    Some(exit)
}

/// Prepare `f` for gating.
///
/// Dead blocks go first, on a bare CFG, then [`single_return`], which edits
/// every function that returns but adds only a sink, so it cannot change
/// reducibility. The CFG analyses are built once after that, and rebuilt
/// only when a loop canonicalizer edits control flow.
///
/// # Errors
///
/// [`GateError::Irreducible`] if the CFG is irreducible.
pub fn prepare(orig: &Function) -> Result<Prepared, GateError> {
    let mut f = orig.clone();
    let cfg = Cfg::new(&f);
    drop_unreachable(&mut f, &cfg);
    single_return(&mut f);
    let mut an = Analyses::new(&f);
    // Reject irreducibility before the loop transforms (they bail out on it).
    if !an.lf.is_reducible() {
        return Err(GateError::Irreducible);
    }
    loop_simplify(&mut f, &mut an);
    dedicated_exits(&mut f, &mut an);
    remove_unreachable_blocks(&mut f, &mut an);
    let Analyses { cfg, dt, lf } = an;
    let ret_block = f
        .iter_blocks()
        .find(|(id, b)| matches!(b.term, Term::Ret { .. }) && cfg.is_reachable(*id))
        .map(|(id, _)| id);
    // Sanity: loop-simplify invariants the gating pass relies on.
    for (i, l) in lf.loops.iter().enumerate() {
        let li = lir::loops::LoopId(i as u32);
        if lf.preheader(&cfg, li).is_none() {
            return Err(GateError::Malformed(format!("loop at {} has no preheader", l.header)));
        }
        if l.latches.len() != 1 {
            return Err(GateError::Malformed(format!(
                "loop at {} has {} latches",
                l.header,
                l.latches.len()
            )));
        }
        for &(_, t) in &l.exits {
            let outside = cfg.preds[t.index()].iter().any(|p| !lf.contains(li, *p));
            if outside {
                return Err(GateError::Malformed(format!(
                    "exit {t} of loop at {} is not dedicated",
                    l.header
                )));
            }
        }
    }
    Ok(Prepared { f, cfg, dt, lf, ret_block })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse::parse_module;

    fn parse_fn(src: &str) -> Function {
        parse_module(src).expect("parse").functions.remove(0)
    }

    #[test]
    fn single_return_merges_rets() {
        let mut f = parse_fn(
            "define i64 @f(i1 %c) {\n\
             entry:\n  br i1 %c, label %a, label %b\n\
             a:\n  ret i64 1\n\
             b:\n  ret i64 2\n\
             }\n",
        );
        let exit = single_return(&mut f).expect("has rets");
        let b = f.block(exit);
        assert_eq!(b.phis.len(), 1);
        assert_eq!(b.phis[0].incomings.len(), 2);
        assert!(matches!(b.term, Term::Ret { .. }));
        let ret_count = f.iter_blocks().filter(|(_, b)| matches!(b.term, Term::Ret { .. })).count();
        assert_eq!(ret_count, 1);
        lir::verify::verify_function(&f).expect("still verifies");
    }

    #[test]
    fn prepare_simple_loop() {
        let f = parse_fn(
            "define i64 @sum(i64 %n) {\n\
             entry:\n  br label %head\n\
             head:\n  %i = phi i64 [ 0, %entry ], [ %i2, %body ]\n\
             %c = icmp slt i64 %i, %n\n  br i1 %c, label %body, label %done\n\
             body:\n  %i2 = add i64 %i, 1\n  br label %head\n\
             done:\n  ret i64 %i\n\
             }\n",
        );
        let p = prepare(&f).expect("reducible");
        assert_eq!(p.lf.loops.len(), 1);
        assert!(p.ret_block.is_some());
        lir::verify::verify_function(&p.f).expect("verifies");
    }

    #[test]
    fn prepare_rejects_irreducible() {
        let f = parse_fn(
            "define i64 @ir(i1 %c) {\n\
             entry:\n  br i1 %c, label %a, label %b\n\
             a:\n  br label %b\n\
             b:\n  br label %a\n\
             }\n",
        );
        assert_eq!(prepare(&f).unwrap_err(), GateError::Irreducible);
    }

    #[test]
    fn diverging_function_has_no_ret_block() {
        let f = parse_fn(
            "define void @spin() {\n\
             entry:\n  br label %head\n\
             head:\n  br label %head\n\
             }\n",
        );
        let p = prepare(&f).expect("reducible");
        assert_eq!(p.ret_block, None);
    }
}
