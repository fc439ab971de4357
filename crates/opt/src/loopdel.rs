//! Loop deletion — remove loops whose execution is unobservable.
//!
//! A loop is deletable when it has a preheader, a single exit target, no
//! memory writes or effectful calls, and no register defined inside the
//! loop is used outside of it. The preheader then branches directly to the
//! exit target. As in LLVM (where C loops are assumed to make progress),
//! deleting a potentially non-terminating loop is a refinement; the paper's
//! validator likewise only guarantees semantics preservation for
//! terminating executions (§2).

use crate::{Ctx, Pass};
use lir::cfg::{drop_unreachable, Cfg};
use lir::func::{BlockId, Function};
use lir::inst::{Inst, Term};
use lir::loops::{Analyses, LoopId};
use lir::transform::loop_simplify;
use lir::value::Reg;
use std::collections::HashSet;

/// The loop-deletion pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopDeletion;

impl Pass for LoopDeletion {
    fn name(&self) -> &'static str {
        "ld"
    }

    fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
        run_loop_deletion(f)
    }
}

/// Run loop deletion until no more loops can be removed.
///
/// The CFG analyses are rebuilt only after a deletion.
pub fn run_loop_deletion(f: &mut Function) -> bool {
    let mut an = Analyses::new(f);
    let mut changed = loop_simplify(f, &mut an);
    while an.lf.is_reducible()
        && an.lf.innermost_first().into_iter().any(|lid| try_delete(f, &an, lid))
    {
        // The deleted loop's blocks are unreachable now.
        drop_unreachable(f, &Cfg::new(f));
        an = Analyses::new(f);
        changed = true;
    }
    debug_assert!(an.describes(f), "stale analyses after loop deletion");
    changed
}

fn try_delete(f: &mut Function, an: &Analyses, lid: LoopId) -> bool {
    let lf = &an.lf;
    let Some(preheader) = lf.preheader(&an.cfg, lid) else { return false };
    let l = lf.get(lid);
    // Single exit target.
    let mut targets: Vec<BlockId> = l.exits.iter().map(|(_, t)| *t).collect();
    targets.sort();
    targets.dedup();
    let [exit_target] = targets.as_slice() else { return false };
    let exit_target = *exit_target;

    // No observable effects inside.
    for &b in &l.body {
        for inst in &f.block(b).insts {
            match inst {
                Inst::Store { .. } => return false,
                Inst::Call { callee, .. } => {
                    let e = lir::known::effects_of(callee);
                    if e.may_write() {
                        return false;
                    }
                }
                _ => {}
            }
        }
    }

    // No inside-defined register used outside.
    let body: HashSet<BlockId> = l.body.iter().copied().collect();
    let mut defined_in: HashSet<Reg> = HashSet::new();
    for &b in &l.body {
        for phi in &f.block(b).phis {
            defined_in.insert(phi.dst);
        }
        for inst in &f.block(b).insts {
            if let Some(d) = inst.dst() {
                defined_in.insert(d);
            }
        }
    }
    for (bid, b) in f.iter_blocks() {
        if body.contains(&bid) {
            continue;
        }
        let mut used_outside = false;
        let mut check = |op: lir::value::Operand| {
            if let lir::value::Operand::Reg(r) = op {
                used_outside |= defined_in.contains(&r);
            }
        };
        for phi in &b.phis {
            for &(p, v) in &phi.incomings {
                // An incoming *from* a loop block counts as an outside use
                // unless the value is loop-invariant.
                let _ = p;
                check(v);
            }
        }
        for inst in &b.insts {
            inst.visit_operands(&mut check);
        }
        b.term.visit_operands(&mut check);
        if used_outside {
            return false;
        }
    }

    // Rewire: preheader branches straight to the exit target; φs in the
    // exit target that had incomings from exiting blocks now come from the
    // preheader (their values are invariant by the check above). If several
    // exit edges carried different invariant values the φ cannot be
    // preserved with a single preheader edge; bail out in that case.
    let exiting_preds: Vec<BlockId> =
        l.exits.iter().filter(|(_, t)| *t == exit_target).map(|(s, _)| *s).collect();
    for phi in &f.block(exit_target).phis {
        let vals: HashSet<_> = phi
            .incomings
            .iter()
            .filter(|(p, _)| exiting_preds.contains(p))
            .map(|(_, v)| *v)
            .collect();
        if vals.len() > 1 {
            return false;
        }
    }
    for phi in &mut f.block_mut(exit_target).phis {
        let from_loop: Vec<usize> = phi
            .incomings
            .iter()
            .enumerate()
            .filter(|(_, (p, _))| exiting_preds.contains(p))
            .map(|(i, _)| i)
            .collect();
        if let Some(&first) = from_loop.first() {
            let v = phi.incomings[first].1;
            phi.incomings.retain(|(p, _)| !exiting_preds.contains(p));
            phi.incomings.push((preheader, v));
        }
    }
    f.block_mut(preheader).term = Term::Br { target: exit_target };
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::interp::{run, ExecConfig};
    use lir::parse::parse_module;
    use lir::verify::verify_function;

    fn ld(src: &str) -> (lir::func::Module, lir::func::Module) {
        let m = parse_module(src).unwrap();
        let mut m2 = m.clone();
        run_loop_deletion(&mut m2.functions[0]);
        verify_function(&m2.functions[0]).unwrap_or_else(|e| panic!("{e}\n{}", m2.functions[0]));
        (m, m2)
    }

    #[test]
    fn deletes_pure_counting_loop() {
        let src = "\
define i64 @f(i64 %n, i64 %r) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %e
body:
  %i2 = add i64 %i, 1
  br label %h
e:
  ret i64 %r
}
";
        let (m, m2) = ld(src);
        assert!(
            m2.functions[0].blocks.len() < m.functions[0].blocks.len(),
            "loop should be deleted: {}",
            m2.functions[0]
        );
        for args in [[0u64, 9], [5, 9]] {
            assert_eq!(
                run(&m, "f", &args, &ExecConfig::default()).unwrap(),
                run(&m2, "f", &args, &ExecConfig::default()).unwrap()
            );
        }
    }

    #[test]
    fn keeps_loop_with_live_out() {
        let src = "\
define i64 @f(i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %e
body:
  %i2 = add i64 %i, 1
  br label %h
e:
  ret i64 %i
}
";
        let (m, m2) = ld(src);
        // %i is used outside: cannot delete.
        for n in [0u64, 3] {
            assert_eq!(
                run(&m, "f", &[n], &ExecConfig::default()).unwrap(),
                run(&m2, "f", &[n], &ExecConfig::default()).unwrap()
            );
        }
        let loops = {
            let f2 = &m2.functions[0];
            Analyses::new(f2).lf.loops.len()
        };
        assert_eq!(loops, 1);
    }

    #[test]
    fn keeps_loop_with_store() {
        let src = "\
define void @f(i64 %n, ptr %p) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %e
body:
  store i64 %i, ptr %p
  %i2 = add i64 %i, 1
  br label %h
e:
  ret void
}
";
        let (m, m2) = ld(src);
        assert_eq!(m.functions[0].blocks.len(), m2.functions[0].blocks.len());
    }

    #[test]
    fn deletes_nested_dead_inner_loop() {
        let src = "\
define i64 @f(i64 %n) {
entry:
  br label %oh
oh:
  %i = phi i64 [ 0, %entry ], [ %i2, %olatch ]
  %oc = icmp slt i64 %i, %n
  br i1 %oc, label %pre, label %e
pre:
  br label %ih
ih:
  %j = phi i64 [ 0, %pre ], [ %j2, %ih ]
  %j2 = add i64 %j, 1
  %ic = icmp slt i64 %j2, 10
  br i1 %ic, label %ih, label %olatch
olatch:
  %i2 = add i64 %i, 1
  br label %oh
e:
  ret i64 %i
}
";
        let (m, m2) = ld(src);
        // Inner loop has no live-outs or effects: deleted. Outer stays.
        let f2 = &m2.functions[0];
        let lf = Analyses::new(f2).lf;
        assert_eq!(lf.loops.len(), 1, "{f2}");
        for n in [0u64, 2] {
            assert_eq!(
                run(&m, "f", &[n], &ExecConfig::default()).unwrap(),
                run(&m2, "f", &[n], &ExecConfig::default()).unwrap()
            );
        }
    }

    #[test]
    fn paper_licm_example_after_licm_then_deletion() {
        // Paper §4: x = a + c hoisted by LICM, then the empty loop deleted,
        // leaving `return a + 3`.
        let src = "\
define i64 @f(i64 %a, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %x = phi i64 [ undef, %entry ], [ %x2, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %e
body:
  %x2 = add i64 %a, 3
  %i2 = add i64 %i, 1
  br label %h
e:
  ret i64 %a
}
";
        // (Simplified: the loop's x is unused at the exit so it can go.)
        let (_, m2) = ld(src);
        let f2 = &m2.functions[0];
        assert_eq!(Analyses::new(f2).lf.loops.len(), 0, "{f2}");
    }
}
