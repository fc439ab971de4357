//! Control-flow graph: successor/predecessor lists and orderings.

use crate::func::{Block, BlockId, Function};

/// Successor/predecessor lists plus a reverse post-order of the reachable
/// blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cfg {
    /// Successors of each block (duplicates possible for multi-edges, e.g. a
    /// conditional branch with both targets equal).
    pub succs: Vec<Vec<BlockId>>,
    /// Predecessors of each block (with multiplicity, mirroring `succs`).
    pub preds: Vec<Vec<BlockId>>,
    /// Reverse post-order over blocks reachable from entry.
    pub rpo: Vec<BlockId>,
    /// `rpo_index[b] = position of b in rpo`, or `usize::MAX` if unreachable.
    pub rpo_index: Vec<usize>,
}

impl Cfg {
    /// Compute the CFG of `f`.
    pub fn new(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (id, b) in f.iter_blocks() {
            for s in b.term.successors() {
                succs[id.index()].push(s);
                preds[s.index()].push(id);
            }
        }
        // Iterative post-order DFS from entry.
        let mut post = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        if n > 0 {
            let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
            state[0] = 1;
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                let ss = &succs[b.index()];
                if *i < ss.len() {
                    let next = ss[*i];
                    *i += 1;
                    if state[next.index()] == 0 {
                        state[next.index()] = 1;
                        stack.push((next, 0));
                    }
                } else {
                    state[b.index()] = 2;
                    post.push(b);
                    stack.pop();
                }
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        Cfg { succs, preds, rpo, rpo_index }
    }

    /// Number of blocks (including unreachable ones).
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True when the function has no blocks.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// True if `b` is reachable from entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()] != usize::MAX
    }
}

/// Delete the blocks unreachable from entry and renumber the rest in
/// reverse post-order. φ-nodes in surviving blocks drop incomings from
/// deleted predecessors. Returns `true` if it deleted anything.
///
/// [`reachable_cfg`] is the same edit for a caller that needs the CFG of
/// the result, and [`crate::transform::remove_unreachable_blocks`] for one
/// that keeps the loop analyses too.
pub fn drop_unreachable(f: &mut Function) -> bool {
    renumber_reachable(f, &Cfg::new(f))
}

/// [`drop_unreachable`], returning the CFG of the result (built once, and
/// once more only if blocks were deleted) and whether blocks were deleted.
pub fn reachable_cfg(f: &mut Function) -> (Cfg, bool) {
    let cfg = Cfg::new(f);
    if renumber_reachable(f, &cfg) {
        (Cfg::new(f), true)
    } else {
        (cfg, false)
    }
}

/// [`drop_unreachable`] with `cfg`, the CFG of `f`, already at hand; `cfg`
/// is stale when this returns `true`.
pub(crate) fn renumber_reachable(f: &mut Function, cfg: &Cfg) -> bool {
    if cfg.rpo.len() == f.blocks.len() {
        // Even if all blocks are reachable there is nothing to renumber.
        return false;
    }
    let mut remap = vec![None; f.blocks.len()];
    for (new, &old) in cfg.rpo.iter().enumerate() {
        remap[old.index()] = Some(BlockId(new as u32));
    }
    let mut old: Vec<Option<Block>> = std::mem::take(&mut f.blocks).into_iter().map(Some).collect();
    f.blocks = cfg
        .rpo
        .iter()
        .map(|id| {
            let mut b = old[id.index()].take().expect("rpo lists each block once");
            for phi in &mut b.phis {
                phi.incomings.retain(|(p, _)| remap[p.index()].is_some());
                for (p, _) in &mut phi.incomings {
                    *p = remap[p.index()].unwrap();
                }
            }
            b.term.map_successors(|s| *s = remap[s.index()].expect("successor reachable"));
            b
        })
        .collect();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Term;
    use crate::types::Ty;
    use crate::value::Operand;

    /// entry -> a -> c ; entry -> b -> c (a diamond).
    fn diamond() -> Function {
        let mut f = Function::new("d", Ty::Void);
        let c0 = f.add_param(Ty::I1);
        let entry = f.add_block("entry");
        let a = f.add_block("a");
        let b = f.add_block("b");
        let c = f.add_block("c");
        f.block_mut(entry).term = Term::CondBr { cond: Operand::Reg(c0), t: a, f: b };
        f.block_mut(a).term = Term::Br { target: c };
        f.block_mut(b).term = Term::Br { target: c };
        f.block_mut(c).term = Term::Ret { ty: Ty::Void, val: None };
        f
    }

    #[test]
    fn preds_and_succs() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs[0], vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds[3], vec![BlockId(1), BlockId(2)]);
        assert!(cfg.preds[0].is_empty());
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_order() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(cfg.rpo.len(), 4);
        // join must come after both arms
        let join_pos = cfg.rpo_index[3];
        assert!(join_pos > cfg.rpo_index[1] && join_pos > cfg.rpo_index[2]);
    }

    #[test]
    fn unreachable_block_detection_and_removal() {
        let mut f = diamond();
        let dead = f.add_block("dead");
        f.block_mut(dead).term = Term::Br { target: BlockId(3) };
        assert!(!Cfg::new(&f).is_reachable(dead));
        assert!(drop_unreachable(&mut f));
        assert_eq!(f.blocks.len(), 4);
        let (cfg, changed) = reachable_cfg(&mut f);
        assert!(!changed);
        assert_eq!(cfg, Cfg::new(&f));
        assert_eq!(cfg.rpo.len(), 4);
    }

    #[test]
    fn multi_edge_counted_twice() {
        let mut f = Function::new("m", Ty::Void);
        let c = f.add_param(Ty::I1);
        let e = f.add_block("e");
        let t = f.add_block("t");
        f.block_mut(e).term = Term::CondBr { cond: Operand::Reg(c), t, f: t };
        f.block_mut(t).term = Term::Ret { ty: Ty::Void, val: None };
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.preds[1].len(), 2);
    }
}
