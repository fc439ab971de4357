//! Semantics-preserving CFG edits shared by the optimizer and the
//! gated-SSA frontend.
//!
//! These mirror LLVM's `loop-simplify` and related utilities:
//!
//! * [`remove_unreachable_blocks`] — no block unreachable from entry;
//! * [`insert_preheaders`] — every loop header has exactly one incoming edge
//!   from outside the loop, from a dedicated preheader block;
//! * [`merge_latches`] — every loop has exactly one back edge;
//! * [`loop_simplify`] — the two above, to fixpoint;
//! * [`dedicated_exits`] — every loop exit target is entered only from
//!   inside the loop.
//!
//! and the edits several passes make:
//!
//! * [`fold_branch`] — a conditional branch or switch becomes `br`;
//! * [`merge_blocks`] — straight-line chains become one block;
//! * [`prune_and_reanalyze`] — drop the blocks an edit left unreachable and
//!   rebuild the loop analyses.
//!
//! All functions keep the SSA verifier happy, and those returning `bool`
//! return `true` when they changed the function.
//!
//! The loop canonicalizers take the function's [`Analyses`] by `&mut`. The
//! analyses must describe `f` on entry, and they describe `f` on return: a
//! canonicalizer rebuilds them after each control-flow edit and not
//! otherwise, so a chain of canonicalizers that edits nothing builds them
//! once. Debug builds assert this on return.

use crate::cfg::{drop_unreachable, reachable_cfg, renumber_reachable};
use crate::func::{BlockId, Function, Phi};
use crate::inst::Term;
use crate::loops::{Analyses, LoopId};
use crate::value::Operand;

/// Rewrite `b`'s terminator to `br target`, where `target` is one of its
/// successors: every other successor drops its φ incomings from `b`, and
/// each φ of `target` keeps one.
pub fn fold_branch(f: &mut Function, b: BlockId, target: BlockId) {
    let old = std::mem::replace(&mut f.block_mut(b).term, Term::Br { target });
    let succs = old.successors();
    debug_assert!(succs.contains(&target), "{target} is not a successor of {b}");
    for s in succs {
        for phi in &mut f.block_mut(s).phis {
            let mut keep = s == target;
            phi.incomings.retain(|(p, _)| *p != b || std::mem::take(&mut keep));
        }
    }
}

/// One φ of the target block during edge redirection: its index, type, and
/// the incomings arriving from the moved predecessors.
type PhiMove = (usize, crate::types::Ty, Vec<(BlockId, Operand)>);

fn redirect_phi_edges(
    f: &mut Function,
    target: BlockId,
    moved_preds: &[BlockId],
    new_block: BlockId,
) {
    // For each φ in `target`, gather incomings from `moved_preds`, replace
    // them with a single incoming from `new_block`, and (if needed) create a
    // φ in `new_block` merging the moved values.
    let phis_info: Vec<PhiMove> = f
        .block(target)
        .phis
        .iter()
        .enumerate()
        .map(|(i, phi)| {
            let moved: Vec<(BlockId, Operand)> =
                phi.incomings.iter().filter(|(p, _)| moved_preds.contains(p)).cloned().collect();
            (i, phi.ty, moved)
        })
        .collect();
    for (i, ty, moved) in phis_info {
        if moved.is_empty() {
            continue;
        }
        // A single moved edge, or several agreeing ones, needs no new phi.
        let value = if moved.iter().all(|(_, v)| *v == moved[0].1) {
            moved[0].1
        } else {
            let dst = f.new_reg();
            f.block_mut(new_block).phis.push(Phi { dst, ty, incomings: moved.clone() });
            Operand::Reg(dst)
        };
        let phi = &mut f.block_mut(target).phis[i];
        phi.incomings.retain(|(p, _)| !moved_preds.contains(p));
        phi.incomings.push((new_block, value));
    }
}

/// Delete blocks unreachable from entry, renumbering the rest in reverse
/// post-order (see [`drop_unreachable`]). Returns `true` on change.
pub fn remove_unreachable_blocks(f: &mut Function, an: &mut Analyses) -> bool {
    let changed = renumber_reachable(f, &an.cfg);
    if changed {
        *an = Analyses::new(f);
    }
    debug_assert!(an.describes(f), "stale analyses after remove_unreachable_blocks");
    changed
}

/// After a control-flow edit of `f`, which leaves `an` stale: delete the
/// blocks the edit left unreachable (see [`drop_unreachable`]) and rebuild
/// `an` for the result.
pub fn prune_and_reanalyze(f: &mut Function, an: &mut Analyses) {
    let (cfg, _) = reachable_cfg(f);
    *an = Analyses::with_cfg(f, cfg);
}

/// Route the edges from `preds` into `target` through a fresh block named
/// `name` that branches to `target`, moving `target`'s φ incomings along.
fn route_through(f: &mut Function, target: BlockId, mut preds: Vec<BlockId>, name: String) {
    let mid = f.add_block(name);
    f.block_mut(mid).term = Term::Br { target };
    preds.sort();
    preds.dedup();
    for p in &preds {
        f.block_mut(*p).term.map_successors(|s| {
            if *s == target {
                *s = mid;
            }
        });
    }
    redirect_phi_edges(f, target, &preds, mid);
}

/// One edit of a loop canonicalizer: route the edges from `.1` into `.0`
/// through a fresh block named `.2`.
type Reroute = (BlockId, Vec<BlockId>, String);

/// Apply the edits `find` picks from the current analyses, one at a time
/// and rebuilding `an` after each, until it picks none or the CFG is
/// irreducible. `what` names the canonicalizer in the stale-analyses
/// assertion.
fn reroute_until_done(
    f: &mut Function,
    an: &mut Analyses,
    what: &str,
    find: impl Fn(&Analyses) -> Option<Reroute>,
) -> bool {
    let mut changed = false;
    while an.lf.is_reducible() {
        let Some((target, preds, name)) = find(an) else { break };
        route_through(f, target, preds, name);
        *an = Analyses::new(f);
        changed = true;
    }
    debug_assert!(an.describes(f), "stale analyses after {what}");
    changed
}

/// Insert a dedicated preheader for every loop whose header has more than one
/// incoming edge from outside the loop, or whose unique outside predecessor
/// has other successors.
pub fn insert_preheaders(f: &mut Function, an: &mut Analyses) -> bool {
    reroute_until_done(f, an, "insert_preheaders", |Analyses { cfg, lf, .. }| {
        lf.loops.iter().enumerate().find_map(|(li, l)| {
            let li = LoopId(li as u32);
            if lf.preheader(cfg, li).is_some() {
                return None;
            }
            let outside: Vec<BlockId> = cfg.preds[l.header.index()]
                .iter()
                .copied()
                .filter(|p| !lf.contains(li, *p))
                .collect();
            (!outside.is_empty()).then(|| (l.header, outside, format!("preheader.{}", l.header.0)))
        })
    })
}

/// Merge multiple back edges of a loop into a single latch block.
pub fn merge_latches(f: &mut Function, an: &mut Analyses) -> bool {
    reroute_until_done(f, an, "merge_latches", |an| {
        let l = an.lf.loops.iter().find(|l| l.latches.len() > 1)?;
        Some((l.header, l.latches.clone(), format!("latch.{}", l.header.0)))
    })
}

/// LLVM-style loop simplification: preheaders + merged latches.
pub fn loop_simplify(f: &mut Function, an: &mut Analyses) -> bool {
    let a = insert_preheaders(f, an);
    let b = merge_latches(f, an);
    a || b
}

/// Give every loop dedicated exit blocks: each exit edge `(inside, outside)`
/// whose target has predecessors outside the loop is routed through a fresh
/// block. After this, every exit target's predecessors are all inside the
/// loop that exits into it.
pub fn dedicated_exits(f: &mut Function, an: &mut Analyses) -> bool {
    reroute_until_done(f, an, "dedicated_exits", |Analyses { cfg, lf, .. }| {
        lf.loops.iter().enumerate().find_map(|(li, l)| {
            let li = LoopId(li as u32);
            let mut targets: Vec<BlockId> = l.exits.iter().map(|(_, t)| *t).collect();
            targets.sort();
            targets.dedup();
            targets.into_iter().find_map(|t| {
                let preds = &cfg.preds[t.index()];
                let ins: Vec<BlockId> =
                    preds.iter().copied().filter(|p| lf.contains(li, *p)).collect();
                let has_outside = preds.iter().any(|p| !lf.contains(li, *p));
                (has_outside && !ins.is_empty()).then(|| (t, ins, format!("exit.{}", t.0)))
            })
        })
    })
}

/// Delete blocks unreachable from entry, then merge every straight-line
/// chain (a block ending in `br %b`, where it is `b`'s only predecessor)
/// into its first block. The merged blocks' φs, which have one incoming,
/// become that value. Returns `true` on change. This is the cleanup part of
/// `simplifycfg`.
pub fn merge_blocks(f: &mut Function) -> bool {
    let (cfg, pruned) = reachable_cfg(f);
    let entry = f.entry();
    let next = |f: &Function, b: BlockId| match f.block(b).term {
        Term::Br { target } if target != b && target != entry => {
            (cfg.preds[target.index()].len() == 1).then_some(target)
        }
        _ => None,
    };
    let mut merged = false;
    // A chain's first block comes before the rest in reverse post-order, so
    // every chain is merged from its first block.
    for &b in &cfg.rpo {
        while let Some(target) = next(f, b) {
            for phi in std::mem::take(&mut f.block_mut(target).phis) {
                f.replace_all_uses(phi.dst, phi.incomings[0].1);
            }
            let insts = std::mem::take(&mut f.block_mut(target).insts);
            let term = std::mem::replace(&mut f.block_mut(target).term, Term::Unreachable);
            for s in term.successors() {
                for phi in &mut f.block_mut(s).phis {
                    for (p, _) in &mut phi.incomings {
                        if *p == target {
                            *p = b;
                        }
                    }
                }
            }
            let block = f.block_mut(b);
            block.insts.extend(insts);
            block.term = term;
            merged = true;
        }
    }
    // The merged blocks are unreachable now; renumber once.
    if merged {
        drop_unreachable(f);
    }
    pruned || merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;
    use crate::types::Ty;
    use crate::verify::verify_function;

    fn check(src: &str, tf: impl Fn(&mut Function) -> bool) -> Function {
        let m = parse_module(src).unwrap();
        let mut f = m.functions[0].clone();
        verify_function(&f).unwrap();
        tf(&mut f);
        verify_function(&f).unwrap_or_else(|e| panic!("{e}"));
        f
    }

    /// [`check`] for a loop canonicalizer: run it with fresh analyses,
    /// require an edit, and require the analyses it returns to be those of
    /// the edited function.
    fn check_an(
        src: &str,
        tf: impl Fn(&mut Function, &mut Analyses) -> bool,
    ) -> (Function, Analyses) {
        let m = parse_module(src).unwrap();
        let mut f = m.functions[0].clone();
        verify_function(&f).unwrap();
        let mut an = Analyses::new(&f);
        assert!(tf(&mut f, &mut an), "the canonicalizer edits this function");
        verify_function(&f).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(an, Analyses::new(&f), "stale analyses after an edit:\n{f}");
        (f, an)
    }

    const MULTI_ENTRY_LOOP: &str = "\
define i64 @f(i1 %c, i64 %n) {
entry:
  br i1 %c, label %h, label %alt
alt:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ 5, %alt ], [ %i2, %h ]
  %i2 = add i64 %i, 1
  %cc = icmp slt i64 %i2, %n
  br i1 %cc, label %h, label %e
e:
  ret i64 %i
}
";

    #[test]
    fn preheader_inserted_for_multi_entry_loop() {
        let (f, Analyses { cfg, lf, .. }) = check_an(MULTI_ENTRY_LOOP, insert_preheaders);
        assert_eq!(lf.loops.len(), 1);
        assert!(lf.preheader(&cfg, LoopId(0)).is_some());
        // The header φ now has exactly two incomings: preheader + latch.
        let header = lf.loops[0].header;
        assert_eq!(f.block(header).phis[0].incomings.len(), 2);
        // And the preheader φ merges the two entry values.
        let ph = lf.preheader(&cfg, LoopId(0)).unwrap();
        assert_eq!(f.block(ph).phis.len(), 1);
        assert_eq!(f.block(ph).phis[0].incomings.len(), 2);
    }

    const TWO_LATCH_LOOP: &str = "\
define i64 @f(i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %a, %l1 ], [ %b, %l2 ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %l1, label %l2
l1:
  %a = add i64 %i, 1
  br label %h
l2:
  %b = add i64 %i, 2
  %c2 = icmp slt i64 %b, 100
  br i1 %c2, label %h, label %e
e:
  ret i64 %i
}
";

    #[test]
    fn latches_merged() {
        let (f, Analyses { lf, .. }) = check_an(TWO_LATCH_LOOP, merge_latches);
        assert_eq!(lf.loops.len(), 1);
        assert_eq!(lf.loops[0].latches.len(), 1);
        let latch = lf.loops[0].latches[0];
        // The merged latch has a φ for the two incoming values.
        assert_eq!(f.block(latch).phis.len(), 1);
    }

    #[test]
    fn dedicated_exits_created() {
        let src = "\
define i64 @f(i1 %c, i64 %n) {
entry:
  br i1 %c, label %h, label %merge
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %h ]
  %i2 = add i64 %i, 1
  %cc = icmp slt i64 %i2, %n
  br i1 %cc, label %h, label %merge
merge:
  %x = phi i64 [ 7, %entry ], [ %i2, %h ]
  ret i64 %x
}
";
        let (_, Analyses { cfg, lf, .. }) = check_an(src, |f, an| {
            insert_preheaders(f, an);
            dedicated_exits(f, an)
        });
        assert_eq!(lf.loops.len(), 1);
        for (_, t) in &lf.loops[0].exits {
            for p in &cfg.preds[t.index()] {
                assert!(lf.contains(LoopId(0), *p), "exit target has non-loop predecessor");
            }
        }
    }

    #[test]
    fn unreachable_blocks_removed() {
        let src = "\
define i64 @f(i64 %x) {
entry:
  br label %b
dead:
  br label %b
b:
  %y = phi i64 [ %x, %entry ], [ 0, %dead ]
  ret i64 %y
}
";
        let (f, an) = check_an(src, remove_unreachable_blocks);
        assert_eq!(f.blocks.len(), 2);
        assert_eq!(f.block(BlockId(1)).phis[0].incomings.len(), 1);
        // Nothing left to remove: no edit, the same analyses.
        let mut g = f.clone();
        let mut same = an.clone();
        assert!(!remove_unreachable_blocks(&mut g, &mut same));
        assert_eq!((g, same), (f, an));
    }

    #[test]
    fn canonicalizers_leave_simplified_loops_and_analyses_alone() {
        let (f, an) = check_an(MULTI_ENTRY_LOOP, |f, an| {
            let a = loop_simplify(f, an);
            dedicated_exits(f, an) || a
        });
        let mut g = f.clone();
        let mut same = an.clone();
        assert!(!remove_unreachable_blocks(&mut g, &mut same));
        assert!(!loop_simplify(&mut g, &mut same));
        assert!(!dedicated_exits(&mut g, &mut same));
        assert_eq!((g, same), (f, an));
    }

    #[test]
    fn merge_blocks_threads_chains() {
        let src = "\
define i64 @f(i64 %x) {
entry:
  br label %a
a:
  %y = add i64 %x, 1
  br label %b
b:
  %z = add i64 %y, 1
  ret i64 %z
}
";
        let f = check(src, merge_blocks);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 2);
    }

    #[test]
    fn merge_blocks_replaces_single_incoming_phis() {
        let src = "\
define i64 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %j
b:
  br label %j
j:
  %p = phi i64 [ 1, %a ], [ 2, %b ]
  br label %k
k:
  %q = phi i64 [ %p, %j ]
  ret i64 %q
}
";
        let f = check(src, merge_blocks);
        assert_eq!(f.blocks.len(), 4, "{f}");
        assert!(
            matches!(f.blocks[3].term, Term::Ret { val: Some(Operand::Reg(r)), .. } if r == f.blocks[3].phis[0].dst)
        );
    }

    #[test]
    fn fold_branch_keeps_the_target_edge_only() {
        let src = "\
define i64 @f(i64 %v) {
entry:
  switch i64 %v, label %a [ 1, label %b 2, label %a ]
a:
  %x = phi i64 [ 1, %entry ], [ 2, %b ]
  ret i64 %x
b:
  br label %a
}
";
        let fold_to = |target| {
            check(src, |f| {
                fold_branch(f, BlockId(0), BlockId(target));
                true
            })
        };
        let to_a = fold_to(1);
        assert_eq!(to_a.blocks[0].term, Term::Br { target: BlockId(1) });
        assert_eq!(to_a.blocks[1].phis[0].incomings.len(), 2);
        let to_b = fold_to(2);
        assert_eq!(to_b.blocks[1].phis[0].incomings, vec![(BlockId(2), Operand::int(Ty::I64, 2))]);
    }

    #[test]
    fn transforms_preserve_interpretation() {
        use crate::interp::{run, ExecConfig};
        for src in [MULTI_ENTRY_LOOP, TWO_LATCH_LOOP] {
            let m = parse_module(src).unwrap();
            let base: Vec<_> = (0..8)
                .map(|n| run(&m, "f", &[1, n], &ExecConfig::default()).unwrap().ret)
                .collect();
            for tf in [
                insert_preheaders as fn(&mut Function, &mut Analyses) -> bool,
                merge_latches,
                dedicated_exits,
                loop_simplify,
            ] {
                let mut m2 = m.clone();
                let mut an = Analyses::new(&m2.functions[0]);
                tf(&mut m2.functions[0], &mut an);
                verify_function(&m2.functions[0]).unwrap_or_else(|e| panic!("{e}"));
                let after: Vec<_> = (0..8)
                    .map(|n| run(&m2, "f", &[1, n], &ExecConfig::default()).unwrap().ret)
                    .collect();
                assert_eq!(base, after);
            }
        }
    }
}
