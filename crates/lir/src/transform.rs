//! Semantics-preserving CFG normalizations shared by the optimizer and the
//! gated-SSA frontend.
//!
//! These mirror LLVM's `loop-simplify` and related utilities:
//!
//! * [`split_critical_edges`] — no edge from a multi-successor block to a
//!   multi-predecessor block;
//! * [`remove_unreachable_blocks`] — no block unreachable from entry;
//! * [`insert_preheaders`] — every loop header has exactly one incoming edge
//!   from outside the loop, from a dedicated preheader block;
//! * [`merge_latches`] — every loop has exactly one back edge;
//! * [`loop_simplify`] — the two above, to fixpoint;
//! * [`dedicated_exits`] — every loop exit target is entered only from
//!   inside the loop.
//!
//! All functions return `true` when they changed the function and keep the
//! SSA verifier happy.
//!
//! The loop canonicalizers (all but [`split_critical_edges`] and
//! [`merge_blocks`]) take the function's [`Analyses`] by `&mut`. The
//! analyses must describe `f` on entry, and they describe `f` on return: a
//! canonicalizer rebuilds them after each control-flow edit and not
//! otherwise, so a chain of canonicalizers that edits nothing builds them
//! once. Debug builds assert this on return.

use crate::cfg::{drop_unreachable, Cfg};
use crate::func::{Block, BlockId, Function, Phi};
use crate::inst::Term;
use crate::loops::{Analyses, LoopId};
use crate::value::Operand;

/// Split every critical edge (from a block with multiple successors to a
/// block with multiple predecessors) by inserting an empty block.
pub fn split_critical_edges(f: &mut Function) -> bool {
    let cfg = Cfg::new(f);
    let mut edits: Vec<(BlockId, BlockId)> = Vec::new(); // (from, to)
    for (id, b) in f.iter_blocks() {
        let succs = b.term.successors();
        if succs.len() < 2 {
            continue;
        }
        for s in succs {
            if cfg.preds[s.index()].len() > 1 && !edits.contains(&(id, s)) {
                edits.push((id, s));
            }
        }
    }
    if edits.is_empty() {
        return false;
    }
    for (from, to) in edits {
        let mid = f.add_block(format!("crit.{}.{}", from.0, to.0));
        f.block_mut(mid).term = Term::Br { target: to };
        // Retarget *all* (from -> to) edges through mid (multi-edges too).
        let term = &mut f.block_mut(from).term;
        term.map_successors(|s| {
            if *s == to {
                *s = mid;
            }
        });
        // φs in `to`: incoming from `from` now comes from `mid`.
        for phi in &mut f.block_mut(to).phis {
            for (p, _) in &mut phi.incomings {
                if *p == from {
                    *p = mid;
                }
            }
        }
    }
    true
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
    let changed = drop_unreachable(f, &an.cfg);
    if changed {
        *an = Analyses::new(f);
    }
    debug_assert!(an.describes(f), "stale analyses after remove_unreachable_blocks");
    changed
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

/// Merge straight-line block pairs (a block with a single successor whose
/// successor has a single predecessor), and thread trivial forwarding blocks.
/// Returns `true` on change. This is the cleanup part of `simplifycfg`.
pub fn merge_blocks(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let cfg = Cfg::new(f);
        let mut candidate: Option<(BlockId, BlockId)> = None;
        for (id, b) in f.iter_blocks() {
            if !cfg.is_reachable(id) {
                continue;
            }
            if let Term::Br { target } = b.term {
                if target != id && cfg.preds[target.index()].len() == 1 && target != f.entry() {
                    candidate = Some((id, target));
                    break;
                }
            }
        }
        let Some((id, target)) = candidate else { return changed };
        // Merge `target` into `id`. φs in target have a single predecessor:
        // replace their uses everywhere *before* cloning the block, or the
        // clone would re-install the stale operands.
        let phis = f.block(target).phis.clone();
        for phi in &phis {
            let (_, v) = phi.incomings[0];
            f.replace_all_uses(phi.dst, v);
        }
        let tgt_block: Block = f.block(target).clone();
        let b = f.block_mut(id);
        b.insts.extend(tgt_block.insts);
        b.term = tgt_block.term.clone();
        // φs in the successors of target must re-point to id.
        for s in tgt_block.term.successors() {
            for phi in &mut f.block_mut(s).phis {
                for (p, _) in &mut phi.incomings {
                    if *p == target {
                        *p = id;
                    }
                }
            }
        }
        f.block_mut(target).term = Term::Unreachable;
        f.block_mut(target).insts.clear();
        f.block_mut(target).phis.clear();
        drop_unreachable(f, &Cfg::new(f));
        changed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;
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
    fn critical_edges_split() {
        let src = "\
define i64 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %join
a:
  br label %join
join:
  %x = phi i64 [ 1, %entry ], [ 2, %a ]
  ret i64 %x
}
";
        // entry -> join is critical (entry has 2 succs, join has 2 preds).
        let f = check(src, split_critical_edges);
        let cfg = Cfg::new(&f);
        // join's preds should now both be single-succ blocks.
        let join = f.iter_blocks().find(|(_, b)| b.name == "join").unwrap().0;
        for p in &cfg.preds[join.index()] {
            assert_eq!(cfg.succs[p.index()].len(), 1, "pred {p} still critical");
        }
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
                |f, _| split_critical_edges(f),
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
