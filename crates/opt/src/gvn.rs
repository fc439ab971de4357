//! GVN — global value numbering with alias-aware load elimination.
//!
//! The paper calls GVN with alias analysis "the most challenging
//! optimization for our tool … also the most important as it performs many
//! more transformations than the other optimizations" (§5.2). This
//! implementation mirrors LLVM's GVN in the ways that matter for
//! validation:
//!
//! * dominance-scoped hash tables give each expression a *leader*; later
//!   equivalent expressions are replaced by the leader (CSE on steroids,
//!   including across basic blocks);
//! * expressions are canonicalized before numbering (commutative operand
//!   ordering, comparison swapping), so `a+b` and `b+a` get one number;
//! * φ-nodes with identical gates/incomings are merged, and a φ whose
//!   incomings all agree collapses to that value — this is the GVN that "is
//!   aware of equivalences between definitions from distinct paths" (§3.2);
//! * redundant loads are eliminated using the [alias analysis](crate::alias):
//!   store-to-load forwarding (`load p (store x p m) ↓ x`) and load-to-load
//!   CSE with aliasing kills, within and across blocks (along single-pred
//!   chains and from dominating blocks when no intervening clobber exists).

use crate::alias::Aliasing;
use crate::util::sweep_trivially_dead;
use crate::{Ctx, Pass};
use lir::cfg::reachable_cfg;
use lir::dom::DomTree;
use lir::func::{BlockId, Function};
use lir::inst::{BinOp, CastOp, FBinOp, FcmpPred, IcmpPred, Inst};
use lir::intern::IdMap;
use lir::types::Ty;
use lir::value::{Constant, Operand, Reg};

/// The GVN pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gvn;

impl Pass for Gvn {
    fn name(&self) -> &'static str {
        "gvn"
    }

    fn run(&self, f: &mut Function, ctx: &Ctx<'_>) -> bool {
        run_gvn(f, ctx)
    }
}

/// Canonical expression key for pure instructions.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum ExprKey {
    Bin(BinOp, Ty, Operand, Operand),
    FBin(FBinOp, Operand, Operand),
    Icmp(IcmpPred, Ty, Operand, Operand),
    Fcmp(FcmpPred, Operand, Operand),
    Select(Ty, Operand, Operand, Operand),
    Cast(CastOp, Ty, Ty, Operand),
    Gep(Operand, Operand),
    /// φ key: block + canonicalized incomings.
    Phi(BlockId, Vec<(BlockId, Operand)>),
}

/// Order operands deterministically for commutative normalization.
fn op_rank(op: Operand) -> (u8, u64) {
    match op {
        Operand::Reg(r) => (0, r.0 as u64),
        Operand::Global(g) => (1, g.0 as u64),
        Operand::Const(Constant::Int { bits, .. }) => (2, bits),
        Operand::Const(Constant::Float(b)) => (3, b),
        Operand::Const(Constant::Null) => (4, 0),
        Operand::Const(Constant::Undef(_)) => (5, 0),
    }
}

fn key_of(inst: &Inst, resolve: &impl Fn(Operand) -> Operand) -> Option<ExprKey> {
    Some(match inst {
        Inst::Bin { op, ty, a, b, .. } => {
            let (mut a, mut b) = (resolve(*a), resolve(*b));
            if op.is_commutative() && op_rank(a) > op_rank(b) {
                std::mem::swap(&mut a, &mut b);
            }
            ExprKey::Bin(*op, *ty, a, b)
        }
        Inst::FBin { op, a, b, .. } => ExprKey::FBin(*op, resolve(*a), resolve(*b)),
        Inst::Icmp { pred, ty, a, b, .. } => {
            let (mut p, mut a, mut b) = (*pred, resolve(*a), resolve(*b));
            if op_rank(a) > op_rank(b) {
                std::mem::swap(&mut a, &mut b);
                p = p.swapped();
            }
            ExprKey::Icmp(p, *ty, a, b)
        }
        Inst::Fcmp { pred, a, b, .. } => ExprKey::Fcmp(*pred, resolve(*a), resolve(*b)),
        Inst::Select { ty, c, t, f, .. } => {
            ExprKey::Select(*ty, resolve(*c), resolve(*t), resolve(*f))
        }
        Inst::Cast { op, from, to, v, .. } => ExprKey::Cast(*op, *from, *to, resolve(*v)),
        Inst::Gep { base, offset, .. } => ExprKey::Gep(resolve(*base), resolve(*offset)),
        // Memory operations, allocas and calls are not value-numbered.
        _ => return None,
    })
}

/// A remembered memory fact: the value at `(ptr, size)` is `value`.
#[derive(Clone, Debug)]
struct MemFact {
    ptr: Operand,
    size: u64,
    value: Operand,
}

/// Run GVN. Returns `true` on change.
pub fn run_gvn(f: &mut Function, _ctx: &Ctx<'_>) -> bool {
    let (cfg, pruned) = reachable_cfg(f);
    let dt = DomTree::new(f, &cfg);
    let aa = Aliasing::new(f);

    // Leader table per block, inherited down the dominator tree.
    let mut tables: IdMap<BlockId, IdMap<ExprKey, Operand>> = IdMap::default();
    // Memory facts per block (available loads/stored values at block end).
    let mut mem_facts: IdMap<BlockId, Vec<MemFact>> = IdMap::default();
    // Value replacement map.
    let mut repl: IdMap<Reg, Operand> = IdMap::default();
    let mut changed = false;

    // Dominator-tree pre-order walk (iterative).
    let mut order: Vec<BlockId> = Vec::with_capacity(cfg.rpo.len());
    {
        let mut stack = vec![f.entry()];
        while let Some(b) = stack.pop() {
            order.push(b);
            for &c in dt.children[b.index()].iter().rev() {
                stack.push(c);
            }
        }
    }

    for &bid in &order {
        let mut table: IdMap<ExprKey, Operand> =
            dt.idom_of(bid).and_then(|d| tables.get(&d)).cloned().unwrap_or_default();
        // Memory facts: inherit from the immediate dominator only when every
        // path from it to us is free of clobbers — conservatively, when we
        // have a single predecessor which is the idom itself (extended
        // basic blocks). Otherwise start empty.
        let mut facts: Vec<MemFact> = {
            let preds = &cfg.preds[bid.index()];
            let mut distinct = preds.clone();
            distinct.sort();
            distinct.dedup();
            match distinct.as_slice() {
                [p] if dt.idom_of(bid) == Some(*p) => mem_facts.get(p).cloned().unwrap_or_default(),
                _ => Vec::new(),
            }
        };

        let resolve = |op: Operand, repl: &IdMap<Reg, Operand>| -> Operand {
            let mut cur = op;
            for _ in 0..repl.len() + 1 {
                match cur {
                    Operand::Reg(r) => match repl.get(&r) {
                        Some(next) => cur = *next,
                        None => break,
                    },
                    _ => break,
                }
            }
            cur
        };

        // φ numbering: identical φs merge; φs whose incomings agree collapse.
        {
            let phis = f.block(bid).phis.clone();
            for phi in &phis {
                let mut incs: Vec<(BlockId, Operand)> =
                    phi.incomings.iter().map(|&(p, v)| (p, resolve(v, &repl))).collect();
                incs.sort_by_key(|&(p, v)| (p, op_rank(v)));
                // All incomings equal (and not self-referential)?
                let first = incs.first().map(|&(_, v)| v);
                if let Some(v) = first {
                    if incs.iter().all(|&(_, x)| x == v) && v != Operand::Reg(phi.dst) {
                        repl.insert(phi.dst, v);
                        changed = true;
                        continue;
                    }
                }
                let key = ExprKey::Phi(bid, incs);
                match table.get(&key) {
                    Some(leader) => {
                        repl.insert(phi.dst, *leader);
                        changed = true;
                    }
                    None => {
                        table.insert(key, Operand::Reg(phi.dst));
                    }
                }
            }
        }

        // Instruction numbering + load elimination.
        let insts = f.block(bid).insts.clone();
        for (ii, inst) in insts.iter().enumerate() {
            match inst {
                Inst::Load { dst, ty, ptr } => {
                    let p = resolve(*ptr, &repl);
                    let size = ty.bytes();
                    // Forward a known memory fact.
                    if let Some(fact) =
                        facts.iter().find(|ft| ft.size == size && aa.must_alias(f, ft.ptr, p))
                    {
                        repl.insert(*dst, fact.value);
                        changed = true;
                        continue;
                    }
                    facts.push(MemFact { ptr: p, size, value: Operand::Reg(*dst) });
                }
                Inst::Store { ty, val, ptr } => {
                    let p = resolve(*ptr, &repl);
                    let v = resolve(*val, &repl);
                    let size = ty.bytes();
                    // Kill clobbered facts, remember the stored value.
                    facts.retain(|ft| aa.no_alias(f, ft.ptr, ft.size, p, size));
                    facts.push(MemFact { ptr: p, size, value: v });
                }
                Inst::Call { callee, .. } => {
                    if lir::known::effects_of(callee).may_write() {
                        facts.clear();
                    }
                }
                Inst::Alloca { .. } => {}
                _ => {
                    let Some(dst) = inst.dst() else { continue };
                    let Some(key) = key_of(inst, &|op| resolve(op, &repl)) else { continue };
                    match table.get(&key) {
                        Some(leader) => {
                            repl.insert(dst, *leader);
                            changed = true;
                        }
                        None => {
                            table.insert(key, Operand::Reg(dst));
                        }
                    }
                }
            }
            let _ = ii;
        }
        tables.insert(bid, table);
        mem_facts.insert(bid, facts);
    }

    if changed {
        // Apply all replacements (resolving chains).
        let resolve_final = |op: Operand| -> Operand {
            let mut cur = op;
            for _ in 0..repl.len() + 1 {
                match cur {
                    Operand::Reg(r) => match repl.get(&r) {
                        Some(next) => cur = *next,
                        None => break,
                    },
                    _ => break,
                }
            }
            cur
        };
        f.map_operands(|op| {
            *op = resolve_final(*op);
        });
        // Drop replaced φs and instructions.
        for b in &mut f.blocks {
            b.phis.retain(|p| !repl.contains_key(&p.dst));
            b.insts.retain(|i| match i.dst() {
                Some(d) => !repl.contains_key(&d),
                None => true,
            });
        }
        sweep_trivially_dead(f);
    }
    pruned || changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::interp::{run, ExecConfig};
    use lir::parse::parse_module;
    use lir::verify::verify_function;

    fn gvn(src: &str) -> (lir::func::Module, lir::func::Module) {
        let m = parse_module(src).unwrap();
        let mut m2 = m.clone();
        let ctx = Ctx { globals: &m.globals };
        run_gvn(&mut m2.functions[0], &ctx);
        verify_function(&m2.functions[0]).unwrap_or_else(|e| panic!("{e}\n{}", m2.functions[0]));
        (m, m2)
    }

    fn same_behaviour(m: &lir::func::Module, m2: &lir::func::Module, argsets: &[Vec<u64>]) {
        for args in argsets {
            let a = run(m, &m.functions[0].name, args, &ExecConfig::default());
            let b = run(m2, &m2.functions[0].name, args, &ExecConfig::default());
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "args {args:?}"),
                (Err(_), _) => {}
                (a, b) => panic!("divergence: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn cse_within_block() {
        let src = "\
define i64 @f(i64 %x, i64 %y) {
entry:
  %a = add i64 %x, %y
  %b = add i64 %y, %x
  %c = add i64 %a, %b
  ret i64 %c
}
";
        let (m, m2) = gvn(src);
        // %b folds into %a thanks to commutative canonicalization.
        assert_eq!(m2.functions[0].blocks[0].insts.len(), 2);
        same_behaviour(&m, &m2, &[vec![3, 4], vec![0, 0]]);
    }

    #[test]
    fn cse_across_dominated_blocks() {
        let src = "\
define i64 @f(i1 %c, i64 %x) {
entry:
  %a = mul i64 %x, %x
  br i1 %c, label %t, label %e
t:
  %b = mul i64 %x, %x
  ret i64 %b
e:
  ret i64 %a
}
";
        let (m, m2) = gvn(src);
        let t = m2.functions[0].iter_blocks().find(|(_, b)| b.name == "t").unwrap().1;
        assert!(t.insts.is_empty(), "redundant mul should be eliminated");
        same_behaviour(&m, &m2, &[vec![0, 7], vec![1, 7]]);
    }

    #[test]
    fn icmp_swapped_operands_share_number() {
        let src = "\
define i1 @f(i64 %x, i64 %y) {
entry:
  %a = icmp slt i64 %x, %y
  %b = icmp sgt i64 %y, %x
  %c = and i1 %a, %b
  ret i1 %c
}
";
        let (m, m2) = gvn(src);
        // %b == %a, and %a & %a == %a.
        assert_eq!(m2.functions[0].blocks[0].insts.len(), 2); // icmp + and kept (and x x not folded by GVN)
        same_behaviour(&m, &m2, &[vec![1, 2], vec![2, 1], vec![5, 5]]);
    }

    #[test]
    fn store_to_load_forwarding() {
        let src = "\
define i64 @f(i64 %x) {
entry:
  %p = alloca 8, align 8
  store i64 %x, ptr %p
  %v = load i64, ptr %p
  ret i64 %v
}
";
        let (m, m2) = gvn(src);
        assert!(
            !m2.functions[0].blocks[0].insts.iter().any(|i| matches!(i, Inst::Load { .. })),
            "load should be forwarded from the store"
        );
        same_behaviour(&m, &m2, &[vec![42]]);
    }

    #[test]
    fn load_jumps_over_noalias_store() {
        // Paper §3.1: distinct allocas don't alias, so the second store
        // doesn't block forwarding x from the first.
        let src = "\
define i64 @f(i64 %x, i64 %y) {
entry:
  %p1 = alloca 8, align 8
  %p2 = alloca 8, align 8
  store i64 %x, ptr %p1
  store i64 %y, ptr %p2
  %z = load i64, ptr %p1
  ret i64 %z
}
";
        let (m, m2) = gvn(src);
        assert!(
            !m2.functions[0].blocks[0].insts.iter().any(|i| matches!(i, Inst::Load { .. })),
            "{}",
            m2.functions[0]
        );
        same_behaviour(&m, &m2, &[vec![1, 2]]);
    }

    #[test]
    fn aliasing_store_kills_forwarding() {
        // Same pointer stored twice: the load must see the second value —
        // and forwarding picks the *latest* fact.
        let src = "\
define i64 @f(ptr %p, i64 %x, i64 %y) {
entry:
  store i64 %x, ptr %p
  store i64 %y, ptr %p
  %v = load i64, ptr %p
  ret i64 %v
}
";
        let (m, m2) = gvn(src);
        same_behaviour(&m, &m2, &[vec![0x11000, 1, 2]]); // needs a real pointer: use interp? skip direct args
                                                         // Structural check instead: the load forwards %y.
        match &m2.functions[0].blocks[0].term {
            lir::inst::Term::Ret { val: Some(v), .. } => {
                assert_eq!(*v, Operand::Reg(Reg(2)), "{}", m2.functions[0])
            }
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn redundant_load_cse() {
        let src = "\
define i64 @f(ptr %p) {
entry:
  %a = load i64, ptr %p
  %b = load i64, ptr %p
  %c = add i64 %a, %b
  ret i64 %c
}
";
        let (_, m2) = gvn(src);
        let loads = m2.functions[0].blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn call_clobbers_loads() {
        let src = "\
define i64 @f(ptr %p) {
entry:
  %a = load i64, ptr %p
  call void @sink(i64 %a)
  %b = load i64, ptr %p
  %c = add i64 %a, %b
  ret i64 %c
}
";
        let (_, m2) = gvn(src);
        let loads = m2.functions[0].blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        assert_eq!(loads, 2, "sink may write memory; both loads must stay");
    }

    #[test]
    fn phi_equivalence_merges() {
        // Paper §4: a and b are the same φ; a == b folds to true later (by
        // instcombine); GVN merges the φs.
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
  %eq = icmp eq i64 %a, %b
  %r = select i1 %eq, i64 %a, i64 0
  ret i64 %r
}
";
        let (m, m2) = gvn(src);
        let j = m2.functions[0].iter_blocks().find(|(_, b)| b.name == "j").unwrap().1;
        assert_eq!(j.phis.len(), 1, "identical phis should merge");
        same_behaviour(&m, &m2, &[vec![0], vec![1]]);
    }

    #[test]
    fn phi_with_equal_incomings_collapses() {
        let src = "\
define i64 @f(i1 %c, i64 %x) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %a = phi i64 [ %x, %t ], [ %x, %e ]
  ret i64 %a
}
";
        let (m, m2) = gvn(src);
        let j = m2.functions[0].iter_blocks().find(|(_, b)| b.name == "j").unwrap().1;
        assert!(j.phis.is_empty());
        same_behaviour(&m, &m2, &[vec![0, 9], vec![1, 9]]);
    }

    #[test]
    fn loop_behaviour_preserved() {
        let src = "\
define i64 @f(i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %b ]
  %s = phi i64 [ 0, %entry ], [ %s2, %b ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %b, label %e
b:
  %t1 = mul i64 %i, %i
  %t2 = mul i64 %i, %i
  %s2 = add i64 %s, %t1
  %s3 = add i64 %s, %t2
  %i2 = add i64 %i, 1
  br label %h
e:
  ret i64 %s
}
";
        let (m, m2) = gvn(src);
        same_behaviour(&m, &m2, &[vec![0], vec![1], vec![7]]);
        let b = m2.functions[0].iter_blocks().find(|(_, blk)| blk.name == "b").unwrap().1;
        let muls = b.insts.iter().filter(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. })).count();
        assert_eq!(muls, 1);
    }
}
