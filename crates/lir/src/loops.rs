//! Natural-loop detection, the loop nesting forest, and reducibility.
//!
//! The gated-SSA frontend rejects irreducible control flow, exactly as the
//! paper's prototype does (§5.1); [`LoopForest::is_reducible`] is that test.
//!
//! [`Analyses`] bundles a function's CFG, dominator tree and loop forest:
//! all three depend only on the block list and the terminators, so the CFG
//! canonicalizers in [`crate::transform`] and the loop passes thread one
//! value through and rebuild it only after they edit control flow.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::func::{BlockId, Function};

/// Identifier of a loop within a [`LoopForest`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl LoopId {
    /// Index into [`LoopForest::loops`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A natural loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Loop {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// Enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// All blocks in the loop body (header included), unordered.
    pub body: Vec<BlockId>,
    /// Sources of back edges (`latch -> header`).
    pub latches: Vec<BlockId>,
    /// Exit edges `(inside, outside)`.
    pub exits: Vec<(BlockId, BlockId)>,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
}

/// The loop nesting forest of a function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopForest {
    /// All loops, parents before children.
    pub loops: Vec<Loop>,
    /// Innermost loop containing each block (`None` = not in a loop).
    pub innermost: Vec<Option<LoopId>>,
    reducible: bool,
}

impl LoopForest {
    /// Compute the loop forest of `f`.
    pub fn new(f: &Function, cfg: &Cfg, dt: &DomTree) -> LoopForest {
        let n = f.blocks.len();
        // Find back edges: u -> h where h dominates u. Any other retreating
        // edge (target earlier in RPO but not dominating) makes the CFG
        // irreducible.
        let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new();
        let mut reducible = true;
        for (id, _) in f.iter_blocks() {
            if !cfg.is_reachable(id) {
                continue;
            }
            for &s in &cfg.succs[id.index()] {
                if dt.dominates(s, id) {
                    back_edges.push((id, s));
                } else if cfg.rpo_index[s.index()] <= cfg.rpo_index[id.index()] {
                    // Retreating but not a back edge.
                    reducible = false;
                }
            }
        }
        // Group back edges by header, preserving RPO order of headers so that
        // outer loops appear before inner ones with distinct headers.
        let mut headers: Vec<BlockId> = Vec::new();
        for &(_, h) in &back_edges {
            if !headers.contains(&h) {
                headers.push(h);
            }
        }
        headers.sort_by_key(|h| cfg.rpo_index[h.index()]);

        let mut loops: Vec<Loop> = Vec::new();
        let mut in_body: Vec<Vec<bool>> = Vec::new();
        for &h in &headers {
            // Natural loop of h: union over its back edges of {blocks that
            // reach the latch without passing through h}.
            let mut body = vec![false; n];
            body[h.index()] = true;
            let mut latches = Vec::new();
            let mut stack = Vec::new();
            for &(u, hh) in &back_edges {
                if hh == h {
                    latches.push(u);
                    if !body[u.index()] {
                        body[u.index()] = true;
                        stack.push(u);
                    }
                }
            }
            while let Some(b) = stack.pop() {
                for &p in &cfg.preds[b.index()] {
                    if cfg.is_reachable(p) && !body[p.index()] {
                        body[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
            let body_list: Vec<BlockId> =
                (0..n).filter(|&i| body[i]).map(|i| BlockId(i as u32)).collect();
            let mut exits = Vec::new();
            for &b in &body_list {
                for &s in &cfg.succs[b.index()] {
                    if !body[s.index()] {
                        exits.push((b, s));
                    }
                }
            }
            loops.push(Loop { header: h, parent: None, body: body_list, latches, exits, depth: 0 });
            in_body.push(body);
        }
        // Parent links: the parent of loop L is the smallest loop that
        // properly contains L's header (and is not L itself).
        let order: Vec<usize> = {
            let mut idx: Vec<usize> = (0..loops.len()).collect();
            idx.sort_by_key(|&i| loops[i].body.len());
            idx
        };
        for i in 0..loops.len() {
            let h = loops[i].header;
            let mut best: Option<usize> = None;
            for &j in &order {
                if j == i {
                    continue;
                }
                if in_body[j][h.index()] && loops[j].header != h {
                    best = Some(j);
                    break; // order is by size, so first hit is the smallest
                }
            }
            loops[i].parent = best.map(|j| LoopId(j as u32));
        }
        // Depths.
        for i in 0..loops.len() {
            let mut d = 1;
            let mut p = loops[i].parent;
            while let Some(pid) = p {
                d += 1;
                p = loops[pid.index()].parent;
            }
            loops[i].depth = d;
        }
        // Innermost loop per block: the containing loop with max depth.
        let mut innermost: Vec<Option<LoopId>> = vec![None; n];
        for (li, l) in loops.iter().enumerate() {
            for &b in &l.body {
                let replace = match innermost[b.index()] {
                    None => true,
                    Some(cur) => loops[cur.index()].depth < l.depth,
                };
                if replace {
                    innermost[b.index()] = Some(LoopId(li as u32));
                }
            }
        }
        LoopForest { loops, innermost, reducible }
    }

    /// True when every retreating edge is a back edge, i.e. the CFG is
    /// reducible.
    pub fn is_reducible(&self) -> bool {
        self.reducible
    }

    /// The loop with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[id.index()]
    }

    /// Innermost loop containing block `b`.
    pub fn loop_of(&self, b: BlockId) -> Option<LoopId> {
        self.innermost[b.index()]
    }

    /// Is block `b` inside loop `l` (at any depth)?
    pub fn contains(&self, l: LoopId, b: BlockId) -> bool {
        let mut cur = self.innermost[b.index()];
        while let Some(c) = cur {
            if c == l {
                return true;
            }
            cur = self.loops[c.index()].parent;
        }
        false
    }

    /// Iterate loops innermost-first (deepest depth first).
    pub fn innermost_first(&self) -> Vec<LoopId> {
        let mut ids: Vec<LoopId> = (0..self.loops.len()).map(|i| LoopId(i as u32)).collect();
        ids.sort_by_key(|l| std::cmp::Reverse(self.get(*l).depth));
        ids
    }

    /// The unique predecessor of the loop header outside the loop, if the
    /// loop already has a dedicated preheader.
    pub fn preheader(&self, cfg: &Cfg, l: LoopId) -> Option<BlockId> {
        let mut outside =
            cfg.preds[self.get(l).header.index()].iter().filter(|p| !self.contains(l, **p));
        match (outside.next(), outside.next()) {
            (Some(&single), None) if cfg.succs[single.index()].len() == 1 => Some(single),
            _ => None,
        }
    }
}

/// The CFG, dominator tree and loop forest of one function, built together.
///
/// A holder keeps it describing its function: after an edit to the block
/// list or to a terminator it calls [`Analyses::new`] again. Edits to φs
/// and instructions leave it valid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Analyses {
    /// Successor/predecessor lists and reverse post-order.
    pub cfg: Cfg,
    /// Dominator tree.
    pub dt: DomTree,
    /// Loop nesting forest.
    pub lf: LoopForest,
}

impl Analyses {
    /// Build all three analyses of `f`.
    pub fn new(f: &Function) -> Analyses {
        Analyses::with_cfg(f, Cfg::new(f))
    }

    /// Build the dominator tree and loop forest of `f` on `cfg`, its CFG.
    pub(crate) fn with_cfg(f: &Function, cfg: Cfg) -> Analyses {
        let dt = DomTree::new(f, &cfg);
        let lf = LoopForest::new(f, &cfg, &dt);
        Analyses { cfg, dt, lf }
    }

    /// True when these are exactly the analyses of `f` (a fresh build
    /// compares equal). For assertions: it costs a full rebuild.
    pub fn describes(&self, f: &Function) -> bool {
        *self == Analyses::new(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Term;
    use crate::types::Ty;
    use crate::value::Operand;

    fn build(f: &Function) -> (Cfg, DomTree) {
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        (cfg, dt)
    }

    /// entry(0) -> h(1); h -> body(2) | exit(3); body -> h.
    fn simple_loop() -> Function {
        let mut f = Function::new("w", Ty::Void);
        let c = f.add_param(Ty::I1);
        let entry = f.add_block("entry");
        let h = f.add_block("h");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).term = Term::Br { target: h };
        f.block_mut(h).term = Term::CondBr { cond: Operand::Reg(c), t: body, f: exit };
        f.block_mut(body).term = Term::Br { target: h };
        f.block_mut(exit).term = Term::Ret { ty: Ty::Void, val: None };
        f
    }

    /// Nested: entry(0)->oh(1); oh -> ih(2)|exit(4); ih -> ibody(3)|oh_latch(5); ibody->ih; oh_latch->oh.
    fn nested_loops() -> Function {
        let mut f = Function::new("n", Ty::Void);
        let c = f.add_param(Ty::I1);
        let entry = f.add_block("entry");
        let oh = f.add_block("oh");
        let ih = f.add_block("ih");
        let ibody = f.add_block("ibody");
        let exit = f.add_block("exit");
        let olatch = f.add_block("olatch");
        f.block_mut(entry).term = Term::Br { target: oh };
        f.block_mut(oh).term = Term::CondBr { cond: Operand::Reg(c), t: ih, f: exit };
        f.block_mut(ih).term = Term::CondBr { cond: Operand::Reg(c), t: ibody, f: olatch };
        f.block_mut(ibody).term = Term::Br { target: ih };
        f.block_mut(olatch).term = Term::Br { target: oh };
        f.block_mut(exit).term = Term::Ret { ty: Ty::Void, val: None };
        f
    }

    #[test]
    fn detects_simple_loop() {
        let f = simple_loop();
        let (cfg, dt) = build(&f);
        let lf = LoopForest::new(&f, &cfg, &dt);
        assert!(lf.is_reducible());
        assert_eq!(lf.loops.len(), 1);
        let l = &lf.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latches, vec![BlockId(2)]);
        assert_eq!(l.exits, vec![(BlockId(1), BlockId(3))]);
        assert_eq!(l.depth, 1);
        assert_eq!(lf.loop_of(BlockId(2)), Some(LoopId(0)));
        assert_eq!(lf.loop_of(BlockId(0)), None);
        assert_eq!(lf.preheader(&cfg, LoopId(0)), Some(BlockId(0)));
    }

    #[test]
    fn nested_loop_structure() {
        let f = nested_loops();
        let (cfg, dt) = build(&f);
        let lf = LoopForest::new(&f, &cfg, &dt);
        assert!(lf.is_reducible());
        assert_eq!(lf.loops.len(), 2);
        let outer = lf.loops.iter().position(|l| l.header == BlockId(1)).unwrap();
        let inner = lf.loops.iter().position(|l| l.header == BlockId(2)).unwrap();
        assert_eq!(lf.loops[inner].parent, Some(LoopId(outer as u32)));
        assert_eq!(lf.loops[outer].parent, None);
        assert_eq!(lf.loops[outer].depth, 1);
        assert_eq!(lf.loops[inner].depth, 2);
        assert_eq!(lf.loop_of(BlockId(3)), Some(LoopId(inner as u32)));
        assert!(lf.contains(LoopId(outer as u32), BlockId(3)));
        assert!(!lf.contains(LoopId(inner as u32), BlockId(5)));
        // innermost_first puts the inner loop first.
        assert_eq!(lf.innermost_first()[0], LoopId(inner as u32));
    }

    #[test]
    fn irreducible_cfg_detected() {
        // entry -> a | b; a -> b; b -> a; (two-way cycle, no dominating header)
        let mut f = Function::new("irr", Ty::Void);
        let c = f.add_param(Ty::I1);
        let entry = f.add_block("entry");
        let a = f.add_block("a");
        let b = f.add_block("b");
        f.block_mut(entry).term = Term::CondBr { cond: Operand::Reg(c), t: a, f: b };
        f.block_mut(a).term = Term::Br { target: b };
        f.block_mut(b).term = Term::Br { target: a };
        let (cfg, dt) = build(&f);
        let lf = LoopForest::new(&f, &cfg, &dt);
        assert!(!lf.is_reducible());
    }

    #[test]
    fn preheader_counts_parallel_edges() {
        // Entry branches to the header on both arms: one outside block but
        // two outside edges, so the loop has no dedicated preheader.
        let mut f = simple_loop();
        let c = f.params[0].0;
        f.block_mut(BlockId(0)).term =
            Term::CondBr { cond: Operand::Reg(c), t: BlockId(1), f: BlockId(1) };
        let (cfg, dt) = build(&f);
        let lf = LoopForest::new(&f, &cfg, &dt);
        assert_eq!(lf.loops.len(), 1);
        assert_eq!(lf.preheader(&cfg, LoopId(0)), None);
    }

    #[test]
    fn loop_without_preheader() {
        // Two outside edges into the header.
        let mut f = Function::new("np", Ty::Void);
        let c = f.add_param(Ty::I1);
        let entry = f.add_block("entry");
        let alt = f.add_block("alt");
        let h = f.add_block("h");
        let exit = f.add_block("exit");
        f.block_mut(entry).term = Term::CondBr { cond: Operand::Reg(c), t: h, f: alt };
        f.block_mut(alt).term = Term::Br { target: h };
        f.block_mut(h).term = Term::CondBr { cond: Operand::Reg(c), t: h, f: exit };
        f.block_mut(exit).term = Term::Ret { ty: Ty::Void, val: None };
        let (cfg, dt) = build(&f);
        let lf = LoopForest::new(&f, &cfg, &dt);
        assert_eq!(lf.loops.len(), 1);
        assert_eq!(lf.preheader(&cfg, LoopId(0)), None);
        // Header is its own latch here.
        assert_eq!(lf.loops[0].latches, vec![BlockId(2)]);
    }
}
