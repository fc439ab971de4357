//! ADCE — aggressive dead-code elimination.
//!
//! Everything is assumed dead until proven live. Roots of liveness are
//! instructions with observable effects (stores, writing calls), trapping
//! instructions that LLVM would not remove here (loads and divisions are
//! removed when dead — removing a possible trap only refines behaviour, as
//! in LLVM where such traps are UB), terminators and the return value.
//! Unlike the trivial [`crate::util::sweep_trivially_dead`], ADCE removes
//! dead φ-cycles (e.g. an unused induction variable that feeds only itself).

use crate::{Ctx, Pass};
use lir::func::Function;
use lir::inst::Inst;
use lir::intern::IdSet;
use lir::value::{Operand, Reg};

/// The ADCE pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Adce;

impl Pass for Adce {
    fn name(&self) -> &'static str {
        "adce"
    }

    fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
        run_adce(f)
    }
}

/// Run ADCE on `f`. Returns `true` on change.
pub fn run_adce(f: &mut Function) -> bool {
    // Map register -> defining "site" for the mark phase.
    #[derive(Clone, Copy)]
    enum Site {
        Inst(usize, usize),
        Phi(usize, usize),
    }
    let mut site_of: Vec<Option<Site>> = vec![None; f.reg_bound()];
    for (bi, b) in f.blocks.iter().enumerate() {
        for (pi, phi) in b.phis.iter().enumerate() {
            site_of[phi.dst.index()] = Some(Site::Phi(bi, pi));
        }
        for (ii, inst) in b.insts.iter().enumerate() {
            if let Some(d) = inst.dst() {
                site_of[d.index()] = Some(Site::Inst(bi, ii));
            }
        }
    }

    let mut live: IdSet<Reg> = IdSet::default();
    let mut work: Vec<Reg> = Vec::new();
    let mark = |op: Operand, live: &mut IdSet<Reg>, work: &mut Vec<Reg>| {
        if let Operand::Reg(r) = op {
            if live.insert(r) {
                work.push(r);
            }
        }
    };

    // Roots: effectful instructions and all terminator operands.
    for b in &f.blocks {
        for inst in &b.insts {
            let effectful = match inst {
                Inst::Store { .. } => true,
                Inst::Call { callee, .. } => {
                    let e = lir::known::effects_of(callee);
                    e.may_write() || lir::known::may_trap(callee)
                }
                _ => false,
            };
            if effectful {
                if let Some(d) = inst.dst() {
                    // The call result itself counts as live so the call and
                    // its operands stay consistent.
                    mark(Operand::Reg(d), &mut live, &mut work);
                } else {
                    inst.visit_operands(|op| mark(op, &mut live, &mut work));
                }
            }
        }
        b.term.visit_operands(|op| mark(op, &mut live, &mut work));
    }

    // Transitive closure.
    while let Some(r) = work.pop() {
        match site_of[r.index()] {
            None => {} // parameter
            Some(Site::Inst(bi, ii)) => {
                f.blocks[bi].insts[ii].visit_operands(|op| mark(op, &mut live, &mut work));
            }
            Some(Site::Phi(bi, pi)) => {
                for &(_, v) in &f.blocks[bi].phis[pi].incomings {
                    mark(v, &mut live, &mut work);
                }
            }
        }
    }

    // Sweep.
    let mut changed = false;
    for b in &mut f.blocks {
        let keep_inst = |inst: &Inst| match inst {
            Inst::Store { .. } => true,
            Inst::Call { callee, dst, .. } => {
                let e = lir::known::effects_of(callee);
                e.may_write()
                    || lir::known::may_trap(callee)
                    || dst.is_some_and(|d| live.contains(&d))
            }
            other => other.dst().is_some_and(|d| live.contains(&d)),
        };
        let ni = b.insts.len();
        b.insts.retain(keep_inst);
        changed |= b.insts.len() != ni;
        let np = b.phis.len();
        b.phis.retain(|p| live.contains(&p.dst));
        changed |= b.phis.len() != np;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse::parse_module;
    use lir::verify::verify_function;

    fn adce_src(src: &str) -> Function {
        let m = parse_module(src).unwrap();
        let mut f = m.functions[0].clone();
        run_adce(&mut f);
        verify_function(&f).unwrap_or_else(|e| panic!("{e}"));
        f
    }

    #[test]
    fn removes_dead_phi_cycle() {
        // %d/%d2 feed only each other; trivial DCE cannot remove them.
        let src = "\
define i64 @f(i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %h ]
  %d = phi i64 [ 0, %entry ], [ %d2, %h ]
  %d2 = add i64 %d, 3
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %h, label %e
e:
  ret i64 %i
}
";
        let f = adce_src(src);
        let h = f.iter_blocks().find(|(_, b)| b.name == "h").unwrap().1;
        assert_eq!(h.phis.len(), 1, "dead phi cycle should be removed");
        assert_eq!(h.insts.len(), 2);
    }

    #[test]
    fn keeps_effectful_instructions() {
        let src = "\
define void @f(ptr %p) {
entry:
  %dead = add i64 1, 2
  store i64 3, ptr %p
  call void @sink(i64 4)
  %pure_dead = call i64 @abs(i64 5)
  ret void
}
";
        let f = adce_src(src);
        // store + sink stay; dead add and dead pure call go.
        assert_eq!(f.blocks[0].insts.len(), 2);
    }

    #[test]
    fn removes_dead_trapping_division() {
        // LLVM removes dead divisions (a removed trap is a refinement).
        let src = "\
define i64 @f(i64 %a, i64 %b) {
entry:
  %q = sdiv i64 %a, %b
  ret i64 %a
}
";
        let f = adce_src(src);
        assert!(f.blocks[0].insts.is_empty());
    }

    #[test]
    fn keeps_live_chain_through_phi() {
        let src = "\
define i64 @f(i1 %c) {
entry:
  %a = add i64 1, 2
  br i1 %c, label %t, label %j
t:
  br label %j
j:
  %x = phi i64 [ %a, %entry ], [ 9, %t ]
  ret i64 %x
}
";
        let f = adce_src(src);
        assert_eq!(f.blocks[0].insts.len(), 1);
        let j = f.iter_blocks().find(|(_, b)| b.name == "j").unwrap().1;
        assert_eq!(j.phis.len(), 1);
    }

    #[test]
    fn behaviour_preserved_on_live_code() {
        use lir::interp::{run, ExecConfig};
        let src = "\
define i64 @f(i64 %n) {
entry:
  %dead = mul i64 %n, 7
  %live = add i64 %n, 3
  ret i64 %live
}
";
        let m = parse_module(src).unwrap();
        let mut m2 = m.clone();
        run_adce(&mut m2.functions[0]);
        for n in [0u64, 5, 100] {
            assert_eq!(
                run(&m, "f", &[n], &ExecConfig::default()).unwrap(),
                run(&m2, "f", &[n], &ExecConfig::default()).unwrap()
            );
        }
    }
}
