//! SCCP — sparse conditional constant propagation (Wegman–Zadeck).
//!
//! Tracks a three-level lattice (⊤ unknown / constant / ⊥ overdefined) per
//! register together with CFG edge executability. Constants are propagated
//! through φs only along executable edges, which is what makes the analysis
//! *conditional*: code behind provably-false branches does not pollute the
//! merge. Afterwards constant registers are substituted, conditional
//! branches on constants become unconditional, and unreachable blocks are
//! deleted. Per the paper (§5.1), SCCP subsumes plain constant propagation
//! and constant folding.

use crate::util::sweep_trivially_dead;
use crate::{Ctx, Pass};
use lir::cfg::drop_unreachable;
use lir::func::{BlockId, Function};
use lir::inst::{self, Inst};
use lir::intern::{IdMap, IdSet};
use lir::transform::fold_branch;
use lir::value::{Constant, Operand, Reg};
use std::collections::VecDeque;

/// The SCCP pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sccp;

impl Pass for Sccp {
    fn name(&self) -> &'static str {
        "sccp"
    }

    fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
        run_sccp(f)
    }
}

/// Lattice value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Lat {
    /// Not yet known (optimistic).
    Top,
    /// Proven constant.
    Const(Constant),
    /// Overdefined.
    Bot,
}

impl Lat {
    fn meet(self, other: Lat) -> Lat {
        match (self, other) {
            (Lat::Top, x) | (x, Lat::Top) => x,
            (Lat::Const(a), Lat::Const(b)) if a == b => Lat::Const(a),
            _ => Lat::Bot,
        }
    }
}

struct Solver<'f> {
    f: &'f Function,
    lat: Vec<Lat>,
    exec_edge: IdSet<(BlockId, BlockId)>,
    exec_block: IdSet<BlockId>,
    flow_work: VecDeque<(BlockId, BlockId)>,
    ssa_work: VecDeque<Reg>,
    uses: IdMap<Reg, Vec<BlockId>>, // blocks containing uses of each reg
}

impl<'f> Solver<'f> {
    fn lat_of(&self, op: Operand) -> Lat {
        match op {
            Operand::Reg(r) => self.lat[r.index()],
            Operand::Const(Constant::Undef(_)) => Lat::Bot,
            Operand::Const(c) => Lat::Const(c),
            // A global address is a link-time constant but not a `Constant`
            // we can fold through arithmetic; treat as overdefined.
            Operand::Global(_) => Lat::Bot,
        }
    }

    fn raise(&mut self, r: Reg, v: Lat) {
        let old = self.lat[r.index()];
        let new = old.meet(v);
        if new != old {
            self.lat[r.index()] = new;
            self.ssa_work.push_back(r);
        }
    }

    fn mark_edge(&mut self, from: BlockId, to: BlockId) {
        if self.exec_edge.insert((from, to)) {
            self.flow_work.push_back((from, to));
        }
    }

    fn visit_phi(&mut self, b: BlockId, phi: &lir::func::Phi) {
        let mut acc = Lat::Top;
        for &(p, v) in &phi.incomings {
            if self.exec_edge.contains(&(p, b)) {
                acc = acc.meet(self.lat_of(v));
            }
        }
        self.raise(phi.dst, acc);
    }

    fn visit_inst(&mut self, inst: &Inst) {
        let Some(dst) = inst.dst() else { return };
        let v = match inst {
            Inst::Bin { op, ty, a, b, .. } => match (self.lat_of(*a), self.lat_of(*b)) {
                (Lat::Const(ca), Lat::Const(cb)) => match inst::fold_binop(*op, *ty, ca, cb) {
                    Some(Ok(c)) => Lat::Const(c),
                    // Folding traps (e.g. div by zero): leave overdefined so
                    // the trap is preserved at runtime.
                    _ => Lat::Bot,
                },
                (Lat::Bot, _) | (_, Lat::Bot) => Lat::Bot,
                _ => Lat::Top,
            },
            Inst::Icmp { pred, ty, a, b, .. } => match (self.lat_of(*a), self.lat_of(*b)) {
                (Lat::Const(ca), Lat::Const(cb)) => {
                    inst::fold_icmp(*pred, *ty, ca, cb).map_or(Lat::Bot, Lat::Const)
                }
                (Lat::Bot, _) | (_, Lat::Bot) => Lat::Bot,
                _ => Lat::Top,
            },
            Inst::FBin { op, a, b, .. } => match (self.lat_of(*a), self.lat_of(*b)) {
                (Lat::Const(ca), Lat::Const(cb)) => {
                    inst::fold_fbinop(*op, ca, cb).map_or(Lat::Bot, Lat::Const)
                }
                (Lat::Bot, _) | (_, Lat::Bot) => Lat::Bot,
                _ => Lat::Top,
            },
            Inst::Fcmp { pred, a, b, .. } => match (self.lat_of(*a), self.lat_of(*b)) {
                (Lat::Const(ca), Lat::Const(cb)) => {
                    inst::fold_fcmp(*pred, ca, cb).map_or(Lat::Bot, Lat::Const)
                }
                (Lat::Bot, _) | (_, Lat::Bot) => Lat::Bot,
                _ => Lat::Top,
            },
            Inst::Cast { op, from, to, v, .. } => match self.lat_of(*v) {
                Lat::Const(c) => inst::fold_cast(*op, *from, *to, c).map_or(Lat::Bot, Lat::Const),
                Lat::Bot => Lat::Bot,
                Lat::Top => Lat::Top,
            },
            Inst::Select { c, t, f, .. } => match self.lat_of(*c) {
                Lat::Const(c) if c.is_true() => self.lat_of(*t),
                Lat::Const(_) => self.lat_of(*f),
                Lat::Bot => self.lat_of(*t).meet(self.lat_of(*f)),
                Lat::Top => Lat::Top,
            },
            // Memory and calls are not tracked.
            Inst::Alloca { .. } | Inst::Load { .. } | Inst::Gep { .. } | Inst::Call { .. } => {
                Lat::Bot
            }
            Inst::Store { .. } => return,
        };
        self.raise(dst, v);
    }

    fn visit_term(&mut self, b: BlockId) {
        let term = &self.f.block(b).term;
        let taken = match term.condition().map(|c| self.lat_of(c)) {
            Some(Lat::Top) => return,
            Some(Lat::Const(c)) => {
                term.target_for(c).map_or_else(|| term.successors(), |t| vec![t])
            }
            _ => term.successors(),
        };
        for s in taken {
            self.mark_edge(b, s);
        }
    }

    fn visit_block(&mut self, b: BlockId) {
        let block = self.f.block(b);
        for phi in &block.phis {
            self.visit_phi(b, phi);
        }
        for inst in &block.insts {
            self.visit_inst(inst);
        }
        self.visit_term(b);
    }

    fn solve(&mut self) {
        self.mark_edge(self.f.entry(), self.f.entry()); // pseudo-edge to seed entry
        while !self.flow_work.is_empty() || !self.ssa_work.is_empty() {
            while let Some((_, to)) = self.flow_work.pop_front() {
                let first_time = self.exec_block.insert(to);
                if first_time {
                    self.visit_block(to);
                } else {
                    // Re-evaluate φs: a new incoming edge became executable.
                    let block = self.f.block(to);
                    for phi in &block.phis {
                        self.visit_phi(to, phi);
                    }
                }
            }
            while let Some(r) = self.ssa_work.pop_front() {
                // Re-visit everything in blocks that use r.
                let blocks: Vec<BlockId> = self.uses.get(&r).cloned().unwrap_or_default();
                for b in blocks {
                    if self.exec_block.contains(&b) {
                        self.visit_block(b);
                    }
                }
            }
        }
    }
}

/// Run SCCP on `f`. Returns `true` on change.
pub fn run_sccp(f: &mut Function) -> bool {
    if f.blocks.is_empty() {
        return false;
    }
    let mut uses: IdMap<Reg, Vec<BlockId>> = IdMap::default();
    for (id, b) in f.iter_blocks() {
        let mut record = |op: Operand| {
            if let Operand::Reg(r) = op {
                uses.entry(r).or_default().push(id);
            }
        };
        for phi in &b.phis {
            for &(_, v) in &phi.incomings {
                record(v);
            }
        }
        for inst in &b.insts {
            inst.visit_operands(&mut record);
        }
        b.term.visit_operands(&mut record);
    }
    let mut lat = vec![Lat::Top; f.reg_bound()];
    for &(r, _) in &f.params {
        lat[r.index()] = Lat::Bot;
    }
    let mut solver = Solver {
        f,
        lat,
        exec_edge: IdSet::default(),
        exec_block: IdSet::default(),
        flow_work: VecDeque::new(),
        ssa_work: VecDeque::new(),
        uses,
    };
    solver.solve();
    let lat = solver.lat;
    let exec_block = solver.exec_block;

    // Rewrite: substitute constants for registers.
    let mut changed = false;
    let consts: Vec<Option<Constant>> = lat
        .iter()
        .map(|l| match l {
            Lat::Const(c) => Some(*c),
            _ => None,
        })
        .collect();
    f.map_operands(|op| {
        if let Operand::Reg(r) = op {
            if let Some(c) = consts[r.index()] {
                *op = Operand::Const(c);
                changed = true;
            }
        }
    });
    // Fold branches on constants in executable blocks to unconditional
    // branches.
    for bi in 0..f.blocks.len() {
        let b = BlockId(bi as u32);
        if !exec_block.contains(&b) {
            continue;
        }
        if let Some(target) = f.block(b).term.constant_target() {
            fold_branch(f, b, target);
            changed = true;
        }
    }
    // Delete instructions that became dead and unreachable blocks.
    changed |= sweep_trivially_dead(f);
    changed |= drop_unreachable(f);
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::inst::Term;
    use lir::interp::{run, ExecConfig};
    use lir::parse::parse_module;
    use lir::verify::verify_function;

    fn sccp_src(src: &str) -> Function {
        let m = parse_module(src).unwrap();
        let mut f = m.functions[0].clone();
        run_sccp(&mut f);
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        f
    }

    #[test]
    fn folds_constant_chain() {
        let src = "\
define i64 @f() {
entry:
  %a = add i64 3, 4
  %b = mul i64 %a, 2
  %c = sub i64 %b, 1
  ret i64 %c
}
";
        let f = sccp_src(src);
        assert!(f.blocks[0].insts.is_empty());
        match &f.blocks[0].term {
            Term::Ret { val: Some(v), .. } => assert_eq!(v.as_int(), Some(13)),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn conditional_propagation_through_dead_branch() {
        // The else-branch assigns 2, but the condition is constant true, so
        // x is provably 1 — classic SCCP precision beyond plain constprop.
        let src = "\
define i64 @f() {
entry:
  %c = icmp eq i64 1, 1
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %x = phi i64 [ 1, %t ], [ 2, %e ]
  ret i64 %x
}
";
        let f = sccp_src(src);
        match &f.blocks.last().unwrap().term {
            Term::Ret { val: Some(v), .. } => assert_eq!(v.as_int(), Some(1)),
            t => panic!("unexpected {t:?}"),
        }
        // The dead branch is gone entirely.
        assert!(f.blocks.iter().all(|b| b.name != "e"));
    }

    #[test]
    fn paper_example_gvn_then_sccp_shape() {
        // Paper §4: with a == b constant through both branches, everything
        // folds to `return 1` once the φ merges equal constants.
        let src = "\
define i64 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %a = phi i64 [ 1, %t ], [ 2, %e ]
  %b = phi i64 [ 1, %t ], [ 2, %e ]
  %d = phi i64 [ 1, %t ], [ 1, %e ]
  %eq = icmp eq i64 %a, %b
  br i1 %eq, label %x1, label %x2
x1:
  ret i64 %d
x2:
  ret i64 0
}
";
        // SCCP alone cannot prove a == b (both are Bot), but it does fold %d.
        let f = sccp_src(src);
        let ret_blocks: Vec<_> =
            f.blocks.iter().filter(|b| matches!(b.term, Term::Ret { .. })).collect();
        assert!(ret_blocks.iter().any(|b| matches!(
            &b.term,
            Term::Ret { val: Some(v), .. } if v.as_int() == Some(1)
        )));
    }

    #[test]
    fn switch_on_constant() {
        let src = "\
define i64 @f() {
entry:
  switch i64 2, label %d [ 1, label %a 2, label %b ]
a:
  ret i64 10
b:
  ret i64 20
d:
  ret i64 0
}
";
        let f = sccp_src(src);
        assert_eq!(f.blocks.len(), 2); // entry + b
        let out = {
            let mut m = lir::func::Module::new("t");
            m.functions.push(f);
            run(&m, "f", &[], &ExecConfig::default()).unwrap()
        };
        assert_eq!(out.ret, Some(20));
    }

    #[test]
    fn loop_with_constant_bound_unaffected_values_stay() {
        let src = "\
define i64 @f(i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %h ]
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %h, label %e
e:
  ret i64 %i
}
";
        let m = parse_module(src).unwrap();
        let mut f2 = m.functions[0].clone();
        let changed = run_sccp(&mut f2);
        // Nothing is constant here; SCCP must not change behaviour.
        let mut m2 = m.clone();
        m2.functions[0] = f2;
        for n in [0u64, 3, 9] {
            assert_eq!(
                run(&m, "f", &[n], &ExecConfig::default()).unwrap(),
                run(&m2, "f", &[n], &ExecConfig::default()).unwrap()
            );
        }
        let _ = changed;
    }

    #[test]
    fn undef_condition_is_overdefined_not_miscompiled() {
        let src = "\
define i64 @f(i1 %c) {
entry:
  %x = select i1 %c, i64 3, i64 3
  ret i64 %x
}
";
        // select with equal arms folds via meet.
        let f = sccp_src(src);
        match &f.blocks[0].term {
            Term::Ret { val: Some(v), .. } => assert_eq!(v.as_int(), Some(3)),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn constants_through_loop_phi() {
        // i starts at 5 and is re-assigned 5 every iteration: SCCP proves 5.
        let src = "\
define i64 @f(i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 5, %entry ], [ %j, %h ]
  %j = add i64 %i, 0
  %c = icmp slt i64 %j, %n
  br i1 %c, label %h, label %e
e:
  ret i64 %i
}
";
        let f = sccp_src(src);
        match &f.blocks.last().unwrap().term {
            Term::Ret { val: Some(v), .. } => assert_eq!(v.as_int(), Some(5)),
            t => panic!("unexpected {t:?}"),
        }
    }
}
