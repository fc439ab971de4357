//! mem2reg — promote allocas to SSA registers.
//!
//! The paper preprocesses every input with LLVM's `mem2reg` "to place
//! φ-nodes" (§5.1); the unoptimized input to the validator is the output of
//! this pass. Promotable allocas are those whose address never escapes and
//! whose every use is a direct, same-type load or store. φ placement uses
//! iterated dominance frontiers (Cytron et al.) followed by a dominator-tree
//! renaming walk.

use crate::alias::non_escaping_allocas;
use crate::{Ctx, Pass};
use lir::cfg::Cfg;
use lir::dom::DomTree;
use lir::func::{BlockId, Function, Phi};
use lir::inst::Inst;
use lir::types::Ty;
use lir::value::{Constant, Operand, Reg};
use std::collections::{HashMap, HashSet};

/// The mem2reg pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mem2Reg;

impl Pass for Mem2Reg {
    fn name(&self) -> &'static str {
        "mem2reg"
    }

    fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
        promote_allocas(f)
    }
}

/// Find promotable allocas: non-escaping, accessed only by whole-value
/// loads/stores of a single type.
fn promotable_allocas(f: &Function) -> HashMap<Reg, Ty> {
    let candidates = non_escaping_allocas(f);
    let mut access_ty: HashMap<Reg, Option<Ty>> = HashMap::new();
    for (_, b) in f.iter_blocks() {
        for inst in &b.insts {
            let (ptr, ty) = match inst {
                Inst::Load { ptr, ty, .. } => (*ptr, *ty),
                Inst::Store { ptr, ty, .. } => (*ptr, *ty),
                _ => continue,
            };
            let Operand::Reg(r) = ptr else { continue };
            if !candidates.contains(&r) {
                continue;
            }
            // Direct use of the alloca pointer only (no gep chains).
            let entry = access_ty.entry(r).or_insert(Some(ty));
            if *entry != Some(ty) {
                *entry = None; // mixed types: not promotable
            }
        }
    }
    // An alloca whose pointer reaches loads/stores through geps is excluded
    // by simply checking every use site again.
    let mut gep_used: HashSet<Reg> = HashSet::new();
    for (_, b) in f.iter_blocks() {
        for inst in &b.insts {
            if let Inst::Gep { base: Operand::Reg(r), .. } = inst {
                gep_used.insert(*r);
            }
        }
    }
    candidates
        .into_iter()
        .filter(|r| !gep_used.contains(r))
        .filter_map(|r| match access_ty.get(&r) {
            Some(Some(ty)) => Some((r, *ty)),
            // Never accessed: promotable with arbitrary type; pick i64.
            None => Some((r, Ty::I64)),
            Some(None) => None,
        })
        .collect()
}

/// Promote all promotable allocas in `f`. Returns `true` on change.
pub fn promote_allocas(f: &mut Function) -> bool {
    // The renaming walk only covers reachable blocks; drop the rest first so
    // no stale load survives in dead code.
    lir::cfg::drop_unreachable(f, &Cfg::new(f));
    let promote = promotable_allocas(f);
    if promote.is_empty() {
        return false;
    }
    let cfg = Cfg::new(f);
    let dt = DomTree::new(f, &cfg);
    let df = dt.dominance_frontiers(&cfg);

    // Blocks containing stores, per alloca.
    let mut def_blocks: HashMap<Reg, Vec<BlockId>> = HashMap::new();
    for (id, b) in f.iter_blocks() {
        for inst in &b.insts {
            if let Inst::Store { ptr: Operand::Reg(r), .. } = inst {
                if promote.contains_key(r) {
                    def_blocks.entry(*r).or_default().push(id);
                }
            }
        }
    }

    // Iterated dominance frontier φ placement.
    // phi_for[(block, alloca)] = φ register.
    let mut phi_for: HashMap<(BlockId, Reg), Reg> = HashMap::new();
    for (&a, ty) in &promote {
        let mut work: Vec<BlockId> = def_blocks.get(&a).cloned().unwrap_or_default();
        let mut placed: HashSet<BlockId> = HashSet::new();
        while let Some(b) = work.pop() {
            for &d in &df[b.index()] {
                if placed.insert(d) {
                    let dst = f.new_reg();
                    f.block_mut(d).phis.push(Phi { dst, ty: *ty, incomings: vec![] });
                    phi_for.insert((d, a), dst);
                    work.push(d);
                }
            }
        }
    }

    // Renaming walk over the dominator tree.
    let mut stacks: HashMap<Reg, Vec<Operand>> =
        promote.iter().map(|(&a, &ty)| (a, vec![Operand::Const(Constant::Undef(ty))])).collect();
    // Pre-order DFS with explicit undo.
    #[derive(Debug)]
    enum Step {
        Visit(BlockId),
        Pop(Reg),
    }
    let mut stack = vec![Step::Visit(f.entry())];
    // Map from load dst -> replacement operand, applied afterwards.
    let mut load_repl: HashMap<Reg, Operand> = HashMap::new();
    while let Some(step) = stack.pop() {
        match step {
            Step::Pop(a) => {
                stacks.get_mut(&a).expect("stack exists").pop();
            }
            Step::Visit(b) => {
                // φs of this block first: they define new values.
                let mut pops: Vec<Reg> = Vec::new();
                for phi in &f.block(b).phis {
                    if let Some((&(_, a), _)) =
                        phi_for.iter().find(|(&(blk, _), &p)| blk == b && p == phi.dst)
                    {
                        stacks.get_mut(&a).expect("stack").push(Operand::Reg(phi.dst));
                        pops.push(a);
                    }
                }
                // Walk instructions, rewriting loads and recording stores.
                let insts = f.block(b).insts.clone();
                for inst in &insts {
                    match inst {
                        Inst::Load { dst, ptr: Operand::Reg(r), .. } if promote.contains_key(r) => {
                            let cur = *stacks[r].last().expect("stack nonempty");
                            load_repl.insert(*dst, cur);
                        }
                        Inst::Store { val, ptr: Operand::Reg(r), .. }
                            if promote.contains_key(r) =>
                        {
                            // The stored value may itself be a promoted load.
                            let v = match val {
                                Operand::Reg(v) if load_repl.contains_key(v) => load_repl[v],
                                other => *other,
                            };
                            stacks.get_mut(r).expect("stack").push(v);
                            pops.push(*r);
                        }
                        _ => {}
                    }
                }
                // Fill φ incomings of successors.
                for s in f.block(b).term.successors() {
                    let phis_here: Vec<(Reg, Reg)> = phi_for
                        .iter()
                        .filter(|(&(blk, _), _)| blk == s)
                        .map(|(&(_, a), &p)| (a, p))
                        .collect();
                    for (a, p) in phis_here {
                        let cur = *stacks[&a].last().expect("stack nonempty");
                        let cur = match cur {
                            Operand::Reg(v) if load_repl.contains_key(&v) => load_repl[&v],
                            other => other,
                        };
                        let phi = f
                            .block_mut(s)
                            .phis
                            .iter_mut()
                            .find(|ph| ph.dst == p)
                            .expect("phi exists");
                        // One incoming per distinct predecessor edge; avoid
                        // duplicates when visiting multi-edges.
                        if !phi.incomings.iter().any(|(q, _)| *q == b) {
                            phi.incomings.push((b, cur));
                        }
                    }
                }
                // Schedule undo then children (children run before undo).
                for a in pops {
                    stack.push(Step::Pop(a));
                }
                for &c in dt.children[b.index()].iter().rev() {
                    stack.push(Step::Visit(c));
                }
            }
        }
    }

    // Rewrite load uses; a replacement may itself be a replaced load (chains
    // within the same block), so resolve transitively.
    let resolve = |mut op: Operand, load_repl: &HashMap<Reg, Operand>| {
        for _ in 0..load_repl.len() + 1 {
            match op {
                Operand::Reg(r) if load_repl.contains_key(&r) => op = load_repl[&r],
                _ => break,
            }
        }
        op
    };
    f.map_operands(|op| {
        *op = resolve(*op, &load_repl);
    });
    // Delete the promoted allocas, their loads and stores.
    for b in &mut f.blocks {
        b.insts.retain(|inst| match inst {
            Inst::Alloca { dst, .. } => !promote.contains_key(dst),
            Inst::Load { dst, .. } => !load_repl.contains_key(dst),
            Inst::Store { ptr: Operand::Reg(r), .. } => !promote.contains_key(r),
            _ => true,
        });
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::interp::{run, ExecConfig};
    use lir::parse::parse_module;
    use lir::verify::verify_function;

    fn promote_src(src: &str) -> (lir::func::Module, lir::func::Module) {
        let m = parse_module(src).unwrap();
        let mut m2 = m.clone();
        promote_allocas(&mut m2.functions[0]);
        verify_function(&m2.functions[0]).unwrap_or_else(|e| panic!("{e}"));
        (m, m2)
    }

    fn behaviour_matches(m: &lir::func::Module, m2: &lir::func::Module, argsets: &[&[u64]]) {
        for args in argsets {
            let a = run(m, &m.functions[0].name, args, &ExecConfig::default());
            let b = run(m2, &m2.functions[0].name, args, &ExecConfig::default());
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "args {args:?}"),
                (Err(_), _) => {} // original trapped: any behaviour allowed
                (a, b) => panic!("divergence: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn promotes_straightline_alloca() {
        let src = "\
define i64 @f(i64 %x) {
entry:
  %p = alloca 8, align 8
  store i64 %x, ptr %p
  %v = load i64, ptr %p
  %w = add i64 %v, 1
  ret i64 %w
}
";
        let (m, m2) = promote_src(src);
        assert!(m2.functions[0].blocks[0].insts.iter().all(|i| !matches!(i, Inst::Alloca { .. })));
        behaviour_matches(&m, &m2, &[&[5], &[0]]);
    }

    #[test]
    fn places_phi_at_join() {
        let src = "\
define i64 @f(i1 %c, i64 %x) {
entry:
  %p = alloca 8, align 8
  store i64 0, ptr %p
  br i1 %c, label %t, label %j
t:
  store i64 %x, ptr %p
  br label %j
j:
  %v = load i64, ptr %p
  ret i64 %v
}
";
        let (m, m2) = promote_src(src);
        let f2 = &m2.functions[0];
        let join = f2.iter_blocks().find(|(_, b)| b.name == "j").unwrap().1;
        assert_eq!(join.phis.len(), 1);
        behaviour_matches(&m, &m2, &[&[0, 9], &[1, 9]]);
    }

    #[test]
    fn promotes_loop_variable() {
        let src = "\
define i64 @f(i64 %n) {
entry:
  %p = alloca 8, align 8
  store i64 0, ptr %p
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %h ]
  %cur = load i64, ptr %p
  %nxt = add i64 %cur, %i
  store i64 %nxt, ptr %p
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %h, label %e
e:
  %r = load i64, ptr %p
  ret i64 %r
}
";
        let (m, m2) = promote_src(src);
        assert_eq!(
            m2.functions[0]
                .blocks
                .iter()
                .flat_map(|b| &b.insts)
                .filter(|i| matches!(i, Inst::Load { .. }))
                .count(),
            0
        );
        behaviour_matches(&m, &m2, &[&[0], &[1], &[5], &[10]]);
    }

    #[test]
    fn skips_escaping_and_gep_accessed() {
        let src = "\
define i64 @f(ptr %out) {
entry:
  %a = alloca 16, align 8
  %g = gep ptr %a, i64 8
  store i64 1, ptr %g
  %b = alloca 8, align 8
  store ptr %b, ptr %out
  store i64 2, ptr %b
  %v = load i64, ptr %g
  ret i64 %v
}
";
        let m = parse_module(src).unwrap();
        let mut m2 = m.clone();
        assert!(!promote_allocas(&mut m2.functions[0]));
    }

    #[test]
    fn load_before_store_becomes_undef_but_verifies() {
        let src = "\
define i64 @f() {
entry:
  %p = alloca 8, align 8
  %v = load i64, ptr %p
  store i64 1, ptr %p
  %w = load i64, ptr %p
  ret i64 %w
}
";
        let (_, m2) = promote_src(src);
        // The first load folds to undef; the returned value is 1.
        let out = run(&m2, "f", &[], &ExecConfig::default()).unwrap();
        assert_eq!(out.ret, Some(1));
    }
}
