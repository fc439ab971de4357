//! simplifycfg — CFG cleanup: constant branch folding, unreachable-block
//! removal, straight-line block merging.
//!
//! Used as glue after SCCP/unswitching, mirroring how LLVM pipelines
//! interleave `simplifycfg` with the scalar passes.

use crate::{Ctx, Pass};
use lir::cfg::{drop_unreachable, Cfg};
use lir::func::{BlockId, Function};
use lir::inst::Term;
use lir::transform::merge_blocks;
use lir::value::Operand;

/// The simplifycfg pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimplifyCfg;

impl Pass for SimplifyCfg {
    fn name(&self) -> &'static str {
        "simplifycfg"
    }

    fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
        run_simplifycfg(f)
    }
}

/// Fold `br i1 <const>` / `switch <const>` / `br i1 c, %x, %x` to plain
/// branches, dropping abandoned φ incomings.
fn fold_constant_branches(f: &mut Function) -> bool {
    let mut changed = false;
    for bi in 0..f.blocks.len() {
        let bid = BlockId(bi as u32);
        let folded: Option<(BlockId, Vec<BlockId>)> = match &f.blocks[bi].term {
            Term::CondBr { cond, t, f: fb } if t == fb => Some((*t, vec![])),
            Term::CondBr { cond: Operand::Const(c), t, f: fb } => {
                if c.is_true() {
                    Some((*t, vec![*fb]))
                } else if c.is_false() {
                    Some((*fb, vec![*t]))
                } else {
                    None
                }
            }
            Term::Switch { ty, val: Operand::Const(c), default, cases } => {
                c.as_bits().map(|bits| {
                    let mut target = *default;
                    for (k, blk) in cases {
                        if ty.wrap(*k as u64) == bits {
                            target = *blk;
                            break;
                        }
                    }
                    let mut abandoned: Vec<BlockId> = std::iter::once(*default)
                        .chain(cases.iter().map(|(_, b)| *b))
                        .filter(|s| *s != target)
                        .collect();
                    abandoned.sort();
                    abandoned.dedup();
                    (target, abandoned)
                })
            }
            _ => None,
        };
        if let Some((target, abandoned)) = folded {
            // A conditional branch with both arms equal contributes two φ
            // incomings; collapse to one.
            if abandoned.is_empty() {
                for phi in &mut f.blocks[target.index()].phis {
                    let mut seen = false;
                    phi.incomings.retain(|(p, _)| {
                        if *p == bid {
                            if seen {
                                return false;
                            }
                            seen = true;
                        }
                        true
                    });
                }
            }
            for a in abandoned {
                for phi in &mut f.blocks[a.index()].phis {
                    phi.incomings.retain(|(p, _)| *p != bid);
                }
            }
            f.blocks[bi].term = Term::Br { target };
            changed = true;
        }
    }
    changed
}

/// Run simplifycfg to a fixpoint. Returns `true` on change.
pub fn run_simplifycfg(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let mut round = false;
        round |= fold_constant_branches(f);
        round |= drop_unreachable(f, &Cfg::new(f));
        round |= merge_blocks(f);
        // Single-incoming φs become copies.
        let mut singles: Vec<(lir::value::Reg, Operand)> = Vec::new();
        for b in &mut f.blocks {
            for p in &b.phis {
                if p.incomings.len() == 1 {
                    singles.push((p.dst, p.incomings[0].1));
                }
            }
            b.phis.retain(|p| p.incomings.len() != 1);
        }
        if !singles.is_empty() {
            round = true;
            // A single-incoming φ may feed another replaced φ; resolve
            // chains by repeated substitution.
            for _ in 0..singles.len() {
                let snapshot = singles.clone();
                for (_, v) in &mut singles {
                    if let Operand::Reg(r) = v {
                        if let Some((_, rep)) = snapshot.iter().find(|(d, _)| d == r) {
                            *v = *rep;
                        }
                    }
                }
            }
            for (r, v) in singles {
                f.replace_all_uses(r, v);
            }
        }
        if !round {
            return changed;
        }
        changed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse::parse_module;
    use lir::verify::verify_function;

    fn simplify(src: &str) -> Function {
        let m = parse_module(src).unwrap();
        let mut f = m.functions[0].clone();
        run_simplifycfg(&mut f);
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        f
    }

    #[test]
    fn folds_constant_condbr_and_merges() {
        let src = "\
define i64 @f() {
entry:
  br i1 true, label %t, label %e
t:
  ret i64 1
e:
  ret i64 2
}
";
        let f = simplify(src);
        assert_eq!(f.blocks.len(), 1);
        match &f.blocks[0].term {
            Term::Ret { val: Some(v), .. } => assert_eq!(v.as_int(), Some(1)),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn folds_same_target_condbr_and_phi() {
        let src = "\
define i64 @f(i1 %c) {
entry:
  br i1 %c, label %j, label %j
j:
  %x = phi i64 [ 3, %entry ], [ 3, %entry ]
  ret i64 %x
}
";
        let f = simplify(src);
        assert_eq!(f.blocks.len(), 1);
        match &f.blocks[0].term {
            Term::Ret { val: Some(v), .. } => assert_eq!(v.as_int(), Some(3)),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn folds_constant_switch() {
        let src = "\
define i64 @f() {
entry:
  switch i64 7, label %d [ 7, label %a 9, label %b ]
a:
  ret i64 1
b:
  ret i64 2
d:
  ret i64 3
}
";
        let f = simplify(src);
        assert_eq!(f.blocks.len(), 1);
        match &f.blocks[0].term {
            Term::Ret { val: Some(v), .. } => assert_eq!(v.as_int(), Some(1)),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn preserves_loops() {
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
        use lir::interp::{run, ExecConfig};
        let m = parse_module(src).unwrap();
        let mut m2 = m.clone();
        run_simplifycfg(&mut m2.functions[0]);
        for n in [0u64, 1, 5] {
            assert_eq!(
                run(&m, "f", &[n], &ExecConfig::default()).unwrap(),
                run(&m2, "f", &[n], &ExecConfig::default()).unwrap()
            );
        }
    }
}
