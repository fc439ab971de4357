//! Loop unswitching — hoist loop-invariant conditionals out of loops by
//! versioning the loop.
//!
//! `for(..) { if (c) A else B }` with invariant `c` becomes
//! `if (c) for(..) A else for(..) B`. The whole loop body is cloned; in the
//! true version the branch folds to its then-successor, in the false
//! version to its else-successor; the preheader dispatches on `c`. A loop
//! is versioned only when none of its registers is used outside it, so the
//! two versions need no merge φs.
//!
//! The validator checks unswitching with its *commuting rules* (paper §5.3,
//! rule set 6): φ/η/μ distribution plus μ-cycle matching make the two loop
//! versions congruent with the original once the invariant gate is pushed
//! through the loop structure.

use crate::{Ctx, Pass};
use lir::func::{BlockId, Function};
use lir::inst::Term;
use lir::intern::{IdMap, IdSet};
use lir::loops::{Analyses, LoopId};
use lir::transform::{dedicated_exits, fold_branch, loop_simplify, prune_and_reanalyze};
use lir::value::{Operand, Reg};
use std::collections::BTreeSet;

/// The loop-unswitching pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopUnswitch;

impl Pass for LoopUnswitch {
    fn name(&self) -> &'static str {
        "lu"
    }

    fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
        run_unswitch(f)
    }
}

/// Maximum loop size (instructions) eligible for unswitching.
const SIZE_LIMIT: usize = 80;
/// Maximum number of unswitches per pass invocation (the body doubles each
/// time; this bounds code growth).
const MAX_UNSWITCHES: usize = 4;

/// Run loop unswitching. Returns `true` on change.
///
/// The CFG analyses are rebuilt only after an unswitch.
pub fn run_unswitch(f: &mut Function) -> bool {
    let mut an = Analyses::new(f);
    let mut changed = loop_simplify(f, &mut an);
    changed |= dedicated_exits(f, &mut an);
    for _ in 0..MAX_UNSWITCHES {
        if !an.lf.is_reducible()
            || !an.lf.innermost_first().into_iter().any(|lid| unswitch_one(f, &an, lid))
        {
            break;
        }
        // The folded branches may leave blocks unreachable.
        prune_and_reanalyze(f, &mut an);
        loop_simplify(f, &mut an);
        dedicated_exits(f, &mut an);
        changed = true;
    }
    debug_assert!(an.describes(f), "stale analyses after loop unswitching");
    changed
}

fn unswitch_one(f: &mut Function, an: &Analyses, lid: LoopId) -> bool {
    let lf = &an.lf;
    let Some(preheader) = lf.preheader(&an.cfg, lid) else { return false };
    let l = lf.get(lid);
    let body: IdSet<BlockId> = l.body.iter().copied().collect();
    let size: usize =
        l.body.iter().map(|&b| f.block(b).phis.len() + f.block(b).insts.len() + 1).sum();
    if size > SIZE_LIMIT {
        return false;
    }
    // Registers defined inside the loop, in register order: the order their
    // copies are numbered in.
    let mut defined_in: BTreeSet<Reg> = BTreeSet::new();
    for &b in &l.body {
        defined_in.extend(f.block(b).phis.iter().map(|phi| phi.dst));
        defined_in.extend(f.block(b).insts.iter().filter_map(|inst| inst.dst()));
    }
    // Find an invariant conditional branch fully inside the loop.
    let mut candidate: Option<(BlockId, Operand, BlockId, BlockId)> = None;
    for &b in &l.body {
        if let Term::CondBr { cond, t, f: fb } = &f.block(b).term {
            let invariant = match cond {
                Operand::Reg(r) => !defined_in.contains(r),
                _ => false, // constants are handled by simplifycfg
            };
            if invariant && body.contains(t) && body.contains(fb) && t != fb {
                candidate = Some((b, *cond, *t, *fb));
                break;
            }
        }
    }
    let Some((branch_block, cond, then_tgt, else_tgt)) = candidate else { return false };

    // Live-out guard: versioning a loop whose values are used outside
    // requires SSA repair with merge φs at the shared exits; the repair for
    // that case is not implemented soundly (it manufactured undef-carrying
    // φs), so such loops are left alone. Loops that only produce side
    // effects (stores, calls) — the common unswitching target — still
    // version fine.
    for (id, blk) in f.iter_blocks() {
        if body.contains(&id) {
            continue;
        }
        let mut live_out = false;
        let mut check = |op: lir::value::Operand| {
            if let Operand::Reg(r) = op {
                live_out |= defined_in.contains(&r);
            }
        };
        for phi in &blk.phis {
            for &(_, v) in &phi.incomings {
                check(v);
            }
        }
        for inst in &blk.insts {
            inst.visit_operands(&mut check);
        }
        blk.term.visit_operands(&mut check);
        if live_out {
            return false;
        }
    }

    // --- Clone the loop body. ---
    let mut block_map: IdMap<BlockId, BlockId> = IdMap::default();
    for &b in &l.body {
        let nb = f.add_block(format!("{}.us", f.block(b).name.clone()));
        block_map.insert(b, nb);
    }
    let mut reg_map: IdMap<Reg, Reg> = IdMap::default();
    for &r in &defined_in {
        reg_map.insert(r, f.new_reg());
    }
    let map_op = |op: &mut Operand, reg_map: &IdMap<Reg, Reg>| {
        if let Operand::Reg(r) = op {
            if let Some(nr) = reg_map.get(r) {
                *op = Operand::Reg(*nr);
            }
        }
    };
    for &b in &l.body {
        let mut nb = f.block(b).clone();
        nb.name = f.block(block_map[&b]).name.clone();
        for phi in &mut nb.phis {
            phi.dst = reg_map[&phi.dst];
            for (p, v) in &mut phi.incomings {
                if let Some(np) = block_map.get(p) {
                    *p = *np;
                }
                map_op(v, &reg_map);
            }
        }
        for inst in &mut nb.insts {
            if let Some(d) = inst.dst() {
                if let Some(nd) = reg_map.get(&d) {
                    lir::func::set_dst(inst, *nd);
                }
            }
            inst.map_operands(|op| map_op(op, &reg_map));
        }
        nb.term.map_successors(|s| {
            if let Some(ns) = block_map.get(s) {
                *s = *ns;
            }
        });
        nb.term.map_operands(|op| map_op(op, &reg_map));
        *f.block_mut(block_map[&b]) = nb;
    }

    // Exit blocks now also receive edges from the cloned exiting blocks:
    // extend their φs (and any φ outside the loop fed by a loop block).
    let outside: Vec<BlockId> = f
        .iter_blocks()
        .map(|(id, _)| id)
        .filter(|id| !body.contains(id) && !block_map.values().any(|v| v == id))
        .collect();
    for ob in outside {
        let phis = f.block(ob).phis.clone();
        let mut new_phis = phis.clone();
        for phi in &mut new_phis {
            let mut extra: Vec<(BlockId, Operand)> = Vec::new();
            for &(p, v) in &phi.incomings {
                if let Some(&np) = block_map.get(&p) {
                    let mut nv = v;
                    map_op(&mut nv, &reg_map);
                    extra.push((np, nv));
                }
            }
            phi.incomings.extend(extra);
        }
        f.block_mut(ob).phis = new_phis;
    }

    // Fold the unswitched branch in both copies.
    fold_branch(f, branch_block, then_tgt);
    fold_branch(f, block_map[&branch_block], block_map[&else_tgt]);

    // Preheader dispatches on the invariant condition.
    let header = l.header;
    let clone_header = block_map[&header];
    f.block_mut(preheader).term = Term::CondBr { cond, t: header, f: clone_header };
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::interp::{run, ExecConfig};
    use lir::parse::parse_module;
    use lir::verify::verify_function;

    // The accumulator lives in memory, so the loop has no SSA live-outs
    // (the live-out case is rejected by design; see `unswitch_one`).
    const UNSWITCHABLE: &str = "\
define i64 @f(i1 %c, i64 %n) {
entry:
  %acc = alloca 8, align 8
  store i64 0, ptr %acc
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %latch ]
  %cc = icmp slt i64 %i, %n
  br i1 %cc, label %body, label %e
body:
  %s = load i64, ptr %acc
  br i1 %c, label %a, label %b
a:
  %sa = add i64 %s, 1
  store i64 %sa, ptr %acc
  br label %latch
b:
  %sb = add i64 %s, 2
  store i64 %sb, ptr %acc
  br label %latch
latch:
  %i2 = add i64 %i, 1
  br label %h
e:
  %r = load i64, ptr %acc
  ret i64 %r
}
";

    #[test]
    fn unswitches_invariant_branch() {
        let m = parse_module(UNSWITCHABLE).unwrap();
        let mut m2 = m.clone();
        assert!(run_unswitch(&mut m2.functions[0]));
        verify_function(&m2.functions[0]).unwrap_or_else(|e| panic!("{e}\n{}", m2.functions[0]));
        let mut again = m.functions[0].clone();
        run_unswitch(&mut again);
        assert_eq!(again, m2.functions[0], "unswitching is deterministic");
        // The invariant branch no longer appears inside any loop: both loop
        // versions contain only the loop-exit conditional.
        let f2 = &m2.functions[0];
        let lf = Analyses::new(f2).lf;
        assert_eq!(lf.loops.len(), 2, "loop should be versioned: {f2}");
        for l in &lf.loops {
            for &b in &l.body {
                if let Term::CondBr { cond, .. } = &f2.block(b).term {
                    // Any conditional branch inside a loop version must be on
                    // the loop-varying exit condition, not on %c (Reg 0).
                    assert_ne!(*cond, Operand::Reg(Reg(0)), "{f2}");
                }
            }
        }
        // Behaviour identical for both polarities of c.
        for c in [0u64, 1] {
            for n in [0u64, 1, 5] {
                assert_eq!(
                    run(&m, "f", &[c, n], &ExecConfig::default()).unwrap(),
                    run(&m2, "f", &[c, n], &ExecConfig::default()).unwrap(),
                    "c={c} n={n}\n{}",
                    m2.functions[0]
                );
            }
        }
    }

    #[test]
    fn skips_variant_branch() {
        let src = "\
define i64 @f(i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %latch ]
  %cc = icmp slt i64 %i, %n
  br i1 %cc, label %body, label %e
body:
  %odd = and i64 %i, 1
  %isodd = icmp eq i64 %odd, 1
  br i1 %isodd, label %a, label %latch
a:
  br label %latch
latch:
  %i2 = add i64 %i, 1
  br label %h
e:
  ret i64 %i
}
";
        let m = parse_module(src).unwrap();
        let mut m2 = m.clone();
        run_unswitch(&mut m2.functions[0]);
        verify_function(&m2.functions[0]).unwrap();
        // The branch on %isodd is loop-variant: at most loop-simplify
        // normalization may change the CFG, but no versioning happens.
        let f2 = &m2.functions[0];
        let lf = Analyses::new(f2).lf;
        assert_eq!(lf.loops.len(), 1);
    }

    #[test]
    fn skips_oversized_loop() {
        // Build a loop body larger than SIZE_LIMIT.
        let mut big = String::from(
            "define i64 @f(i1 %c, i64 %n) {\nentry:\n  br label %h\nh:\n  %i = phi i64 [ 0, %entry ], [ %i2, %latch ]\n  %cc = icmp slt i64 %i, %n\n  br i1 %cc, label %body, label %e\nbody:\n",
        );
        big.push_str("  %v0 = add i64 %i, 1\n");
        for k in 1..=SIZE_LIMIT {
            big.push_str(&format!("  %v{k} = add i64 %v{}, 1\n", k - 1));
        }
        big.push_str(
            "  br i1 %c, label %a, label %latch\na:\n  br label %latch\nlatch:\n  %i2 = add i64 %i, 1\n  br label %h\ne:\n  ret i64 %i\n}\n",
        );
        let m = parse_module(&big).unwrap();
        let mut m2 = m.clone();
        run_unswitch(&mut m2.functions[0]);
        let f2 = &m2.functions[0];
        let lf = Analyses::new(f2).lf;
        assert_eq!(lf.loops.len(), 1, "oversized loop must not be cloned");
    }

    #[test]
    fn unswitch_with_memory_side_effects() {
        let src = "\
define i64 @f(i1 %c, i64 %n, ptr %p) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %latch ]
  %cc = icmp slt i64 %i, %n
  br i1 %cc, label %body, label %e
body:
  br i1 %c, label %a, label %b
a:
  store i64 %i, ptr %p
  br label %latch
b:
  call void @sink(i64 %i)
  br label %latch
latch:
  %i2 = add i64 %i, 1
  br label %h
e:
  ret i64 %i
}
";
        let m = parse_module(src).unwrap();
        let mut m2 = m.clone();
        run_unswitch(&mut m2.functions[0]);
        verify_function(&m2.functions[0]).unwrap_or_else(|e| panic!("{e}\n{}", m2.functions[0]));
        // No pointer args available to compare memory easily here; compare
        // the sink-call trace for c=0.
        for n in [0u64, 3] {
            let a = run(&m, "f", &[0, n, 0], &ExecConfig::default());
            let b = run(&m2, "f", &[0, n, 0], &ExecConfig::default());
            assert_eq!(a, b);
        }
    }
}
