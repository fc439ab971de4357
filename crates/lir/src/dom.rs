//! Dominator trees and dominance frontiers.
//!
//! Uses the iterative algorithm of Cooper, Harvey & Kennedy ("A Simple, Fast
//! Dominance Algorithm"), which is near-linear on reducible CFGs and robust
//! on irreducible ones.

use crate::cfg::Cfg;
use crate::func::{BlockId, Function};

/// Dominator tree over the reachable blocks of a function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomTree {
    /// Immediate dominator of each block (`None` for the entry block and for
    /// unreachable blocks).
    pub idom: Vec<Option<BlockId>>,
    /// Children lists of the dominator tree.
    pub children: Vec<Vec<BlockId>>,
    /// DFS pre/post numbering of the dominator tree, for O(1) dominance
    /// queries.
    tin: Vec<u32>,
    tout: Vec<u32>,
    root: Option<BlockId>,
}

impl DomTree {
    /// Compute the dominator tree of `f` given its CFG.
    pub fn new(f: &Function, cfg: &Cfg) -> DomTree {
        let n = f.blocks.len();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        if cfg.rpo.is_empty() {
            return DomTree {
                idom,
                children: vec![Vec::new(); n],
                tin: vec![0; n],
                tout: vec![0; n],
                root: None,
            };
        }
        let entry = cfg.rpo[0];
        idom[entry.index()] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &cfg.preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue; // unprocessed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &cfg.rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        idom[entry.index()] = None;
        Self::finish(idom, n, entry)
    }

    /// Build the tree rooted at `root` from its idom array.
    fn finish(idom: Vec<Option<BlockId>>, n: usize, root: BlockId) -> DomTree {
        let mut children = vec![Vec::new(); n];
        for (i, d) in idom.iter().enumerate() {
            if let Some(d) = d {
                children[d.index()].push(BlockId(i as u32));
            }
        }
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut clock = 1u32;
        // Iterative DFS over the dominator tree.
        let mut stack: Vec<(BlockId, usize)> = vec![(root, 0)];
        tin[root.index()] = clock;
        clock += 1;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < children[b.index()].len() {
                let c = children[b.index()][*i];
                *i += 1;
                tin[c.index()] = clock;
                clock += 1;
                stack.push((c, 0));
            } else {
                tout[b.index()] = clock;
                clock += 1;
                stack.pop();
            }
        }
        DomTree { idom, children, tin, tout, root: Some(root) }
    }

    /// The root block of the tree (the entry). `None` for an empty function.
    pub fn root(&self) -> Option<BlockId> {
        self.root
    }

    /// Does `a` dominate `b`? (Reflexive: every block dominates itself.)
    /// Unreachable blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (ai, bi) = (a.index(), b.index());
        if self.tin[ai] == 0 || self.tin[bi] == 0 {
            return false;
        }
        self.tin[ai] <= self.tin[bi] && self.tout[bi] <= self.tout[ai]
    }

    /// Does `a` strictly dominate `b`?
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Immediate dominator of `b`.
    pub fn idom_of(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Compute dominance frontiers (Cytron et al.): `df[b]` is the set of
    /// blocks where `b`'s dominance ends.
    pub fn dominance_frontiers(&self, cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let n = cfg.len();
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for b in 0..n {
            let b = BlockId(b as u32);
            if !cfg.is_reachable(b) || cfg.preds[b.index()].len() < 2 {
                continue;
            }
            let Some(idom_b) = self.idom[b.index()] else { continue };
            for &p in &cfg.preds[b.index()] {
                if !cfg.is_reachable(p) {
                    continue;
                }
                let mut runner = p;
                while runner != idom_b {
                    if !df[runner.index()].contains(&b) {
                        df[runner.index()].push(b);
                    }
                    match self.idom[runner.index()] {
                        Some(d) => runner = d,
                        None => break,
                    }
                }
            }
        }
        df
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a.index()] > rpo_index[b.index()] {
            a = idom[a.index()].expect("processed block has idom");
        }
        while rpo_index[b.index()] > rpo_index[a.index()] {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Term;
    use crate::types::Ty;
    use crate::value::Operand;

    /// entry(0) -> a(1) -> c(3); entry -> b(2) -> c; c -> ret
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

    /// A while loop: entry(0) -> header(1); header -> body(2) | exit(3); body -> header
    fn while_loop() -> Function {
        let mut f = Function::new("w", Ty::Void);
        let c0 = f.add_param(Ty::I1);
        let entry = f.add_block("entry");
        let header = f.add_block("header");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).term = Term::Br { target: header };
        f.block_mut(header).term = Term::CondBr { cond: Operand::Reg(c0), t: body, f: exit };
        f.block_mut(body).term = Term::Br { target: header };
        f.block_mut(exit).term = Term::Ret { ty: Ty::Void, val: None };
        f
    }

    #[test]
    fn diamond_idoms() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        assert_eq!(dt.idom_of(BlockId(0)), None);
        assert_eq!(dt.idom_of(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dt.idom_of(BlockId(2)), Some(BlockId(0)));
        assert_eq!(dt.idom_of(BlockId(3)), Some(BlockId(0)));
        assert!(dt.dominates(BlockId(0), BlockId(3)));
        assert!(!dt.dominates(BlockId(1), BlockId(3)));
        assert!(dt.dominates(BlockId(2), BlockId(2)));
        assert!(dt.strictly_dominates(BlockId(0), BlockId(1)));
        assert!(!dt.strictly_dominates(BlockId(1), BlockId(1)));
    }

    #[test]
    fn diamond_frontiers() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let df = dt.dominance_frontiers(&cfg);
        assert_eq!(df[1], vec![BlockId(3)]);
        assert_eq!(df[2], vec![BlockId(3)]);
        assert!(df[0].is_empty());
        assert!(df[3].is_empty());
    }

    #[test]
    fn loop_header_in_own_frontier() {
        let f = while_loop();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let df = dt.dominance_frontiers(&cfg);
        // body's frontier contains the header; header's own frontier contains itself.
        assert!(df[2].contains(&BlockId(1)));
        assert!(df[1].contains(&BlockId(1)));
        assert_eq!(dt.idom_of(BlockId(2)), Some(BlockId(1)));
        assert_eq!(dt.idom_of(BlockId(3)), Some(BlockId(1)));
    }
}
