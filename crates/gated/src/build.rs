//! Monadic gated-SSA construction: from a prepared [`Function`] to a
//! hash-consed [`ValueGraph`] with gated φ, μ and η nodes.
//!
//! The builder walks the loop forest recursively, innermost loops collapsing
//! to "supernodes" of their parent level (paper §3.3):
//!
//! * within one level (one loop body, or the top level) the blocks form a
//!   DAG; each block gets a **path predicate** from the level entry, and φs
//!   at joins become gated φs whose branch conditions are
//!   `pred(pred-block) ∧ edge-condition` — mutually exclusive by
//!   construction;
//! * loop-header φs become μ-nodes (initial value from the preheader,
//!   next-iteration value patched in after the latch is translated);
//! * a value crossing a loop exit is wrapped in `η(exit-condition, value)`
//!   where the exit condition is the *within-iteration* predicate that the
//!   loop exits (OR over all exit edges); values that do not depend on the
//!   loop's μ-nodes are loop-invariant and need no η (this is symbolic
//!   evaluation, and is what lets loop-invariant code motion validate with
//!   no rewrite rules at all, as in the paper's Fig. 7);
//! * two abstract states are threaded through every level: the memory state
//!   and the allocation chain (see [`crate::node`]); their joins, loop
//!   headers and loop exits get φ/μ/η nodes exactly like register values.

use crate::node::{Interning, Node, NodeId, ValueGraph};
use crate::prep::{GateError, Prepared};
use lir::func::{BlockId, Function};
use lir::inst::{IcmpPred, Inst, Term};
use lir::known::{self, MemEffects};
use lir::loops::LoopId;
use lir::value::{Constant, Operand, Reg};
use std::collections::HashMap;

/// The gated-SSA value graph of one function.
#[derive(Debug)]
pub struct GatedFunction {
    /// The function name (for reports).
    pub name: String,
    /// The hash-consed value graph.
    pub graph: ValueGraph,
    /// Root of the returned value (`None` for `void` or diverging functions).
    pub ret: Option<NodeId>,
    /// Root of the observable final memory (an [`Node::ObsMem`] wrapper).
    pub mem: NodeId,
}

/// Translate `f` into gated SSA.
///
/// # Errors
///
/// Returns [`GateError::Irreducible`] for irreducible control flow and
/// [`GateError::Malformed`] if the function violates a structural invariant
/// the builder relies on (which a verifier-clean function never does).
pub fn build(f: &Function) -> Result<GatedFunction, GateError> {
    build_with(f, Interning::default())
}

/// [`build`] with an explicit interner mode for the value graph.
///
/// Both modes produce byte-identical graphs (see [`Interning`]); the naive
/// mode exists as the differential-testing oracle for the arena interner.
///
/// # Errors
///
/// As for [`build`].
pub fn build_with(f: &Function, interning: Interning) -> Result<GatedFunction, GateError> {
    let prepared = crate::prep::prepare(f)?;
    build_prepared_with(&prepared, &f.name, interning)
}

/// Per-loop translation facts, available once the loop has been processed.
#[derive(Debug)]
struct LoopXlat {
    /// Within-iteration condition that the loop exits (OR over exit edges).
    ca: NodeId,
    /// The μ-nodes of this loop (register and state μs).
    mus: Vec<NodeId>,
}

/// One edge of the collapsed level DAG, or a level-leaving edge.
#[derive(Clone, Copy, Debug)]
struct Edge {
    /// The CFG block the edge leaves from (inside a collapsed loop this is
    /// the innermost source block, used to match φ incomings).
    pred_block: BlockId,
    /// Target block.
    target: BlockId,
    /// Condition of taking this edge. For level-internal edges this is the
    /// full gate `pred(source) ∧ edge-cond`; for edges returned from a
    /// collapsed loop it is additionally η-wrapped by each exited loop.
    cond: NodeId,
    /// Memory state flowing along the edge.
    mem: NodeId,
    /// Allocation chain flowing along the edge.
    alloc: NodeId,
}

/// A member of one level: a block directly at this level or a collapsed
/// child loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Member {
    Block(BlockId),
    Loop(LoopId),
}

struct Builder<'a> {
    p: &'a Prepared,
    g: ValueGraph,
    reg_val: Vec<Option<NodeId>>,
    def_block: Vec<Option<BlockId>>,
    mem_out: Vec<Option<NodeId>>,
    alloc_out: Vec<Option<NodeId>>,
    loop_xlat: Vec<Option<LoopXlat>>,
    loop_writes_mem: Vec<bool>,
    loop_allocates: Vec<bool>,
}

/// Entry point over an already prepared function (exposed for tests that
/// want to inspect the prepared form too).
pub fn build_prepared(p: &Prepared, name: &str) -> Result<GatedFunction, GateError> {
    build_prepared_with(p, name, Interning::default())
}

/// [`build_prepared`] with an explicit interner mode for the value graph.
///
/// # Errors
///
/// As for [`build`].
pub fn build_prepared_with(
    p: &Prepared,
    name: &str,
    interning: Interning,
) -> Result<GatedFunction, GateError> {
    let mut b = Builder::new(p, interning);
    b.precompute_loop_effects();
    let entry = p.f.entry();
    let init_mem = b.g.add(Node::InitMem);
    let init_alloc = b.g.add(Node::InitAlloc);
    let leaving = b.process_level(None, entry, init_mem, init_alloc)?;
    if !leaving.is_empty() {
        return Err(GateError::Malformed("edges escape the top level".into()));
    }
    let (ret, final_mem) = match p.ret_block {
        Some(rb) => {
            let blk = &p.f.blocks[rb.index()];
            let ret = match &blk.term {
                Term::Ret { val: Some(v), .. } => Some(b.use_val(*v, rb)?),
                _ => None,
            };
            let mem = b.mem_out[rb.index()]
                .ok_or_else(|| GateError::Malformed("return block not translated".into()))?;
            (ret, mem)
        }
        // Diverging function: nothing observable.
        None => (None, init_mem),
    };
    let mem = b.g.add(Node::ObsMem(final_mem));
    Ok(GatedFunction { name: name.to_owned(), graph: b.g, ret, mem })
}

impl<'a> Builder<'a> {
    fn new(p: &'a Prepared, interning: Interning) -> Builder<'a> {
        let nregs = p.f.reg_bound();
        let nblocks = p.f.blocks.len();
        let nloops = p.lf.loops.len();
        let mut reg_val = vec![None; nregs];
        let mut g = ValueGraph::with_interning(interning);
        for (i, &(r, _)) in p.f.params.iter().enumerate() {
            reg_val[r.index()] = Some(g.add(Node::Param(i as u32)));
        }
        Builder {
            p,
            g,
            reg_val,
            def_block: p.f.def_blocks(),
            mem_out: vec![None; nblocks],
            alloc_out: vec![None; nblocks],
            loop_xlat: (0..nloops).map(|_| None).collect(),
            loop_writes_mem: vec![false; nloops],
            loop_allocates: vec![false; nloops],
        }
    }

    /// Mark, for each loop, whether its body (nested loops included) writes
    /// memory or allocates — loops that don't need no state μ.
    fn precompute_loop_effects(&mut self) {
        for (i, l) in self.p.lf.loops.iter().enumerate() {
            let mut writes = false;
            let mut allocs = false;
            for &b in &l.body {
                for inst in &self.p.f.blocks[b.index()].insts {
                    writes |= inst.may_write_mem();
                    allocs |= matches!(inst, Inst::Alloca { .. });
                }
            }
            self.loop_writes_mem[i] = writes;
            self.loop_allocates[i] = allocs;
        }
    }

    /// Innermost-first list of loops containing `from` but not `to`.
    fn exited_loops(&self, from: BlockId, to: BlockId) -> Vec<LoopId> {
        let mut to_chain = Vec::new();
        let mut l = self.p.lf.loop_of(to);
        while let Some(id) = l {
            to_chain.push(id);
            l = self.p.lf.get(id).parent;
        }
        let mut out = Vec::new();
        let mut l = self.p.lf.loop_of(from);
        while let Some(id) = l {
            if to_chain.contains(&id) {
                break;
            }
            out.push(id);
            l = self.p.lf.get(id).parent;
        }
        out
    }

    /// η-wrap `v` for each loop left when flowing from `from` to `to`.
    fn eta_wrap(&mut self, mut v: NodeId, from: BlockId, to: BlockId) -> Result<NodeId, GateError> {
        // Fast path: same loop (or both outside any loop) exits nothing.
        // This is the common case — every register operand comes through
        // here via `use_val`.
        if self.p.lf.loop_of(from) == self.p.lf.loop_of(to) {
            return Ok(v);
        }
        for lid in self.exited_loops(from, to) {
            // Take the translation facts out of the slot for the duration
            // of the η construction instead of cloning the μ list.
            let x = self.loop_xlat[lid.index()].take().ok_or_else(|| {
                GateError::Malformed(format!(
                    "value used after leaving untranslated loop {}",
                    lid.0
                ))
            })?;
            let depth = self.p.lf.get(lid).depth;
            v = self.g.eta(depth, x.ca, v, &x.mus);
            self.loop_xlat[lid.index()] = Some(x);
        }
        Ok(v)
    }

    /// The value of operand `op` as used at block `ctx`, η-wrapping values
    /// defined in loops that do not contain `ctx`.
    ///
    /// A register whose definition has not been translated yet (a use
    /// before its def) is [`GateError::Malformed`].
    fn use_val(&mut self, op: Operand, ctx: BlockId) -> Result<NodeId, GateError> {
        match op {
            Operand::Const(c) => Ok(self.g.add(Node::Const(c))),
            Operand::Global(gid) => Ok(self.g.add(Node::GlobalAddr(gid))),
            Operand::Reg(r) => {
                let v = self.reg_val.get(r.index()).copied().flatten().ok_or_else(|| {
                    GateError::Malformed(format!("{r} used before its definition"))
                })?;
                match self.def_block[r.index()] {
                    Some(d) => self.eta_wrap(v, d, ctx),
                    None => Ok(v), // parameter: defined outside all loops
                }
            }
        }
    }

    /// Successor edges of block `b` grouped per distinct target, with the
    /// branch condition of each group.
    fn succ_groups(&mut self, b: BlockId) -> Result<Vec<(BlockId, NodeId)>, GateError> {
        // `self.p` is a shared reference with the builder's lifetime, so
        // reborrowing it detaches the terminator from `&mut self` and the
        // old per-block clone goes away.
        let p = self.p;
        Ok(match &p.f.blocks[b.index()].term {
            Term::Ret { .. } | Term::Unreachable => vec![],
            Term::Br { target } => {
                let t = self.g.true_();
                vec![(*target, t)]
            }
            Term::CondBr { cond, t, f } => {
                if t == f {
                    let tr = self.g.true_();
                    vec![(*t, tr)]
                } else {
                    let c = self.use_val(*cond, b)?;
                    let nc = self.g.not(c);
                    vec![(*t, c), (*f, nc)]
                }
            }
            Term::Switch { ty, val, default, cases } => {
                let v = self.use_val(*val, b)?;
                let mut conds: HashMap<BlockId, NodeId> = HashMap::new();
                let mut order: Vec<BlockId> = Vec::new();
                let mut not_any = self.g.true_();
                for &(k, target) in cases {
                    let kn = self.g.add(Node::Const(Constant::int(*ty, k)));
                    let eq = self.g.add(Node::Icmp(IcmpPred::Eq, *ty, v, kn));
                    let neq = self.g.not(eq);
                    not_any = self.g.and(not_any, neq);
                    match conds.get(&target) {
                        Some(&c) => {
                            let merged = self.g.or(c, eq);
                            conds.insert(target, merged);
                        }
                        None => {
                            conds.insert(target, eq);
                            order.push(target);
                        }
                    }
                }
                match conds.get(default) {
                    Some(&c) => {
                        let merged = self.g.or(c, not_any);
                        conds.insert(*default, merged);
                    }
                    None => {
                        conds.insert(*default, not_any);
                        order.push(*default);
                    }
                }
                order.into_iter().map(|t| (t, conds[&t])).collect()
            }
        })
    }

    /// Process one level: the top level (`lvl == None`, `entry` = function
    /// entry) or the body of loop `lvl` (`entry` = its header). Returns the
    /// edges that leave the level, with conditions/states relative to one
    /// iteration of this level (η-wrapped for any *inner* loops crossed).
    fn process_level(
        &mut self,
        lvl: Option<LoopId>,
        entry: BlockId,
        entry_mem: NodeId,
        entry_alloc: NodeId,
    ) -> Result<Vec<Edge>, GateError> {
        let lf = &self.p.lf;
        // Collect members.
        let mut members: Vec<Member> = Vec::new();
        for (id, _) in self.p.f.iter_blocks() {
            if self.p.cfg.is_reachable(id) && lf.loop_of(id) == lvl {
                members.push(Member::Block(id));
            }
        }
        for (i, l) in lf.loops.iter().enumerate() {
            if l.parent == lvl {
                members.push(Member::Loop(LoopId(i as u32)));
            }
        }
        let midx: HashMap<Member, usize> =
            members.iter().copied().enumerate().map(|(i, m)| (m, i)).collect();
        let member_of_block = |b: BlockId| -> Option<Member> {
            match lf.loop_of(b) {
                x if x == lvl => Some(Member::Block(b)),
                Some(inner) => {
                    // Find the child of `lvl` on inner's ancestor chain.
                    let mut c = inner;
                    loop {
                        let parent = lf.get(c).parent;
                        if parent == lvl {
                            return Some(Member::Loop(c));
                        }
                        c = parent?;
                    }
                }
                None => None,
            }
        };

        // Build the internal-edge skeleton (for the topological order). Edge
        // conditions are computed later, as sources get processed.
        let n = members.len();
        let mut succs_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (mi, m) in members.iter().enumerate() {
            let blocks: &[BlockId] = match m {
                Member::Block(b) => std::slice::from_ref(b),
                Member::Loop(l) => &lf.get(*l).body,
            };
            for &b in blocks {
                for s in self.p.f.blocks[b.index()].term.successors() {
                    if lvl.is_some() && s == entry {
                        continue; // back edge (the latch)
                    }
                    if let Member::Loop(l) = m {
                        if lf.contains(*l, s) {
                            continue; // edge internal to the child loop
                        }
                    }
                    match member_of_block(s) {
                        Some(t) if t != *m => {
                            let ti = midx[&t];
                            if !succs_of[mi].contains(&ti) {
                                succs_of[mi].push(ti);
                                indeg[ti] += 1;
                            }
                        }
                        _ => {} // leaves the level (or self loop, impossible)
                    }
                }
            }
        }
        // Kahn topological order starting from the entry member.
        let entry_member = midx[&Member::Block(entry)];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        while let Some(i) = ready.pop() {
            order.push(i);
            for &s in &succs_of[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        if order.len() != n {
            return Err(GateError::Malformed("level DAG has a cycle".into()));
        }

        // μ creation for the loop entry.
        let depth = lvl.map_or(0, |l| lf.get(l).depth);
        let mut level_mus: Vec<NodeId> = Vec::new();
        let mut header_mu_regs: Vec<(NodeId, Reg)> = Vec::new();
        let (header_mem, header_alloc);
        if let Some(l) = lvl {
            let mem_mu = if self.loop_writes_mem[l.index()] {
                let mu = self.g.new_mu(depth, entry_mem);
                level_mus.push(mu);
                Some(mu)
            } else {
                None
            };
            let alloc_mu = if self.loop_allocates[l.index()] {
                let mu = self.g.new_mu(depth, entry_alloc);
                level_mus.push(mu);
                Some(mu)
            } else {
                None
            };
            header_mem = mem_mu.unwrap_or(entry_mem);
            header_alloc = alloc_mu.unwrap_or(entry_alloc);
            // Register μs for header φs.
            let preheader = lf
                .preheader(&self.p.cfg, l)
                .ok_or_else(|| GateError::Malformed("loop without preheader".into()))?;
            for phi in &self.p.f.blocks[entry.index()].phis {
                let init_op = phi.incoming_from(preheader).ok_or_else(|| {
                    GateError::Malformed("header phi lacks preheader incoming".into())
                })?;
                let init = self.use_val(init_op, preheader)?;
                let mu = self.g.new_mu(depth, init);
                self.reg_val[phi.dst.index()] = Some(mu);
                level_mus.push(mu);
                header_mu_regs.push((mu, phi.dst));
            }
            // Record μs now so η-wrapping of inner values can see them.
            self.loop_xlat[l.index()] =
                Some(LoopXlat { ca: self.g.false_(), mus: level_mus.clone() });
        } else {
            header_mem = entry_mem;
            header_alloc = entry_alloc;
        }

        // Per-member path predicates and incoming edges.
        let mut pred: Vec<Option<NodeId>> = vec![None; n];
        let mut incoming: Vec<Vec<Edge>> = vec![Vec::new(); n];
        let mut leaving: Vec<Edge> = Vec::new();
        let mut latch_state: Option<(NodeId, NodeId, BlockId)> = None;

        for &mi in &order {
            // Path predicate from the level entry.
            let p_mi = if mi == entry_member {
                self.g.true_()
            } else {
                let mut acc = self.g.false_();
                for e in &incoming[mi] {
                    acc = self.g.or(acc, e.cond);
                }
                acc
            };
            pred[mi] = Some(p_mi);

            match members[mi] {
                Member::Block(b) => {
                    // Entry states for the block.
                    let (mem_in, alloc_in) = if mi == entry_member {
                        (header_mem, header_alloc)
                    } else {
                        let mem = self.state_join(&incoming[mi], |e| e.mem);
                        let alloc = self.state_join(&incoming[mi], |e| e.alloc);
                        (mem, alloc)
                    };
                    // φs (header φs already became μs).
                    if !(lvl.is_some() && mi == entry_member) {
                        for phi in &self.p.f.blocks[b.index()].phis {
                            let mut branches = Vec::new();
                            for &(pb, op) in &phi.incomings {
                                let Some(e) = incoming[mi].iter().find(|e| e.pred_block == pb)
                                else {
                                    continue; // unreachable predecessor
                                };
                                let cond = e.cond;
                                let v = self.use_val(op, b)?;
                                branches.push((cond, v));
                            }
                            let v = self.g.phi(branches);
                            self.reg_val[phi.dst.index()] = Some(v);
                        }
                    }
                    // Straight-line instructions.
                    let (mem_out, alloc_out) = self.translate_block_body(b, mem_in, alloc_in)?;
                    self.mem_out[b.index()] = Some(mem_out);
                    self.alloc_out[b.index()] = Some(alloc_out);
                    // Outgoing edges.
                    for (target, econd) in self.succ_groups(b)? {
                        if lvl.is_some() && target == entry {
                            latch_state = Some((mem_out, alloc_out, b));
                            continue;
                        }
                        let cond = self.g.and(p_mi, econd);
                        let edge =
                            Edge { pred_block: b, target, cond, mem: mem_out, alloc: alloc_out };
                        match member_of_block(target) {
                            Some(t) if t != members[mi] => incoming[midx[&t]].push(edge),
                            Some(_) => return Err(GateError::Malformed("self edge".into())),
                            None => leaving.push(edge),
                        }
                    }
                }
                Member::Loop(child) => {
                    // Exactly one incoming edge (from the preheader).
                    let &[e] = incoming[mi].as_slice() else {
                        return Err(GateError::Malformed(
                            "loop header with multiple outside edges".into(),
                        ));
                    };
                    let child_header = lf.get(child).header;
                    let child_exits =
                        self.process_level(Some(child), child_header, e.mem, e.alloc)?;
                    let child_depth = lf.get(child).depth;
                    let (ca, mus) = {
                        let x = self.loop_xlat[child.index()].as_ref().ok_or_else(|| {
                            GateError::Malformed("child loop left untranslated".into())
                        })?;
                        (x.ca, x.mus.clone())
                    };
                    for ce in child_exits {
                        // Turn per-iteration facts into at-exit facts.
                        let cond_at_exit = self.g.eta(child_depth, ca, ce.cond, &mus);
                        let mem_at_exit = self.g.eta(child_depth, ca, ce.mem, &mus);
                        let alloc_at_exit = self.g.eta(child_depth, ca, ce.alloc, &mus);
                        let cond = self.g.and(p_mi, cond_at_exit);
                        let edge = Edge {
                            pred_block: ce.pred_block,
                            target: ce.target,
                            cond,
                            mem: mem_at_exit,
                            alloc: alloc_at_exit,
                        };
                        match member_of_block(ce.target) {
                            Some(t) if t != members[mi] => incoming[midx[&t]].push(edge),
                            Some(_) => {
                                return Err(GateError::Malformed(
                                    "loop exit re-enters the loop".into(),
                                ))
                            }
                            None => leaving.push(edge),
                        }
                    }
                }
            }
        }

        // Latch: patch the μs.
        if let Some(l) = lvl {
            let (latch_mem, latch_alloc, latch) = latch_state
                .ok_or_else(|| GateError::Malformed("loop without latch edge".into()))?;
            let mut mu_i = 0;
            if self.loop_writes_mem[l.index()] {
                self.g.patch_mu(level_mus[mu_i], latch_mem);
                mu_i += 1;
            }
            if self.loop_allocates[l.index()] {
                self.g.patch_mu(level_mus[mu_i], latch_alloc);
            }
            let phis = &self.p.f.blocks[entry.index()].phis;
            for (mu, dst) in &header_mu_regs {
                let phi = phis.iter().find(|p| p.dst == *dst).ok_or_else(|| {
                    GateError::Malformed("loop header lost the phi of a mu".into())
                })?;
                let next_op = phi.incoming_from(latch).ok_or_else(|| {
                    GateError::Malformed("header phi lacks latch incoming".into())
                })?;
                let next = self.use_val(next_op, latch)?;
                self.g.patch_mu(*mu, next);
            }
            // The loop's within-iteration exit condition.
            let mut ca = self.g.false_();
            for e in &leaving {
                ca = self.g.or(ca, e.cond);
            }
            if let Some(x) = self.loop_xlat[l.index()].as_mut() {
                x.ca = ca;
            }
        }
        Ok(leaving)
    }

    /// Merge per-edge states into the state at a join (a gated φ unless all
    /// incoming states coincide).
    fn state_join(&mut self, edges: &[Edge], f: impl Fn(&Edge) -> NodeId) -> NodeId {
        let branches: Vec<(NodeId, NodeId)> = edges.iter().map(|e| (e.cond, f(e))).collect();
        self.g.phi(branches)
    }

    /// Translate the straight-line body of `b`, threading the two states.
    fn translate_block_body(
        &mut self,
        b: BlockId,
        mem_in: NodeId,
        alloc_in: NodeId,
    ) -> Result<(NodeId, NodeId), GateError> {
        let mut mem = mem_in;
        let mut alloc = alloc_in;
        for inst in &self.p.f.blocks[b.index()].insts {
            match inst {
                Inst::Bin { dst, op, ty, a, b: rhs } => {
                    let (x, y) = (self.use_val(*a, b)?, self.use_val(*rhs, b)?);
                    let n = self.g.add(Node::Bin(*op, *ty, x, y));
                    self.reg_val[dst.index()] = Some(n);
                }
                Inst::FBin { dst, op, a, b: rhs } => {
                    let (x, y) = (self.use_val(*a, b)?, self.use_val(*rhs, b)?);
                    let n = self.g.add(Node::FBin(*op, x, y));
                    self.reg_val[dst.index()] = Some(n);
                }
                Inst::Icmp { dst, pred, ty, a, b: rhs } => {
                    let (x, y) = (self.use_val(*a, b)?, self.use_val(*rhs, b)?);
                    let n = self.g.add(Node::Icmp(*pred, *ty, x, y));
                    self.reg_val[dst.index()] = Some(n);
                }
                Inst::Fcmp { dst, pred, a, b: rhs } => {
                    let (x, y) = (self.use_val(*a, b)?, self.use_val(*rhs, b)?);
                    let n = self.g.add(Node::Fcmp(*pred, x, y));
                    self.reg_val[dst.index()] = Some(n);
                }
                Inst::Select { dst, c, t, f, .. } => {
                    let cv = self.use_val(*c, b)?;
                    let tv = self.use_val(*t, b)?;
                    let fv = self.use_val(*f, b)?;
                    let nc = self.g.not(cv);
                    let n = self.g.phi(vec![(cv, tv), (nc, fv)]);
                    self.reg_val[dst.index()] = Some(n);
                }
                Inst::Cast { dst, op, from, to, v } => {
                    let x = self.use_val(*v, b)?;
                    let n = self.g.add(Node::Cast(*op, *from, *to, x));
                    self.reg_val[dst.index()] = Some(n);
                }
                Inst::Alloca { dst, size, align } => {
                    let n = self.g.add(Node::Alloca { size: *size, align: *align, chain: alloc });
                    alloc = n;
                    self.reg_val[dst.index()] = Some(n);
                }
                Inst::Load { dst, ty, ptr } => {
                    let p = self.use_val(*ptr, b)?;
                    let n = self.g.add(Node::Load { ty: *ty, ptr: p, mem });
                    self.reg_val[dst.index()] = Some(n);
                }
                Inst::Store { ty, val, ptr } => {
                    let v = self.use_val(*val, b)?;
                    let p = self.use_val(*ptr, b)?;
                    mem = self.g.add(Node::Store { ty: *ty, val: v, ptr: p, mem });
                }
                Inst::Gep { dst, base, offset } => {
                    let bb = self.use_val(*base, b)?;
                    let off = self.use_val(*offset, b)?;
                    let n = self.g.add(Node::Gep(bb, off));
                    self.reg_val[dst.index()] = Some(n);
                }
                Inst::Call { dst, ret, callee, args } => {
                    let avs: Box<[NodeId]> =
                        args.iter().map(|(_, a)| self.use_val(*a, b)).collect::<Result<_, _>>()?;
                    let cid = self.g.callee(callee);
                    let effects = known::effects_of(callee);
                    let val = match effects {
                        MemEffects::None => {
                            self.g.add(Node::CallPure { callee: cid, ret: *ret, args: avs.clone() })
                        }
                        _ => self.g.add(Node::CallVal {
                            callee: cid,
                            ret: *ret,
                            args: avs.clone(),
                            mem,
                        }),
                    };
                    if effects.may_write() {
                        mem = self.g.add(Node::CallMem { callee: cid, args: avs, mem });
                    }
                    if let Some(d) = dst {
                        self.reg_val[d.index()] = Some(val);
                    }
                }
            }
        }
        Ok((mem, alloc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse::parse_module;

    fn gate(src: &str) -> GatedFunction {
        let m = parse_module(src).expect("parse");
        build(&m.functions[0]).expect("gate")
    }

    /// A use before its definition (`%x` reads `%y` before `%y` exists)
    /// is malformed SSA. The parser accepts it and only the verifier
    /// rejects it, so the builder must answer an error, not panic.
    #[test]
    fn use_before_def_is_malformed_not_a_panic() {
        let m = parse_module(
            "define i64 @f(i64 %a) {\n\
             entry:\n  %x = add i64 %y, 1\n  %y = add i64 %a, 1\n  ret i64 %x\n\
             }\n",
        )
        .expect("parse");
        assert!(lir::verify::verify_function(&m.functions[0]).is_err());
        let err = build(&m.functions[0]).expect_err("use before def");
        assert!(matches!(err, GateError::Malformed(_)), "{err:?}");
    }

    /// The μ and η node counts of `g`.
    fn mus_etas(g: &GatedFunction) -> (usize, usize) {
        let count = |want: fn(&Node) -> bool| g.graph.iter().filter(|(_, n)| want(n)).count();
        (count(|n| matches!(n, Node::Mu { .. })), count(|n| matches!(n, Node::Eta { .. })))
    }

    /// Shared graphs for equivalent straight-line code produce the same root
    /// immediately (paper §3.1: x3 = (3+3)*a + (3+3)*a vs y = a*6 << 1 need
    /// rules, but literally equal code needs none).
    #[test]
    fn identical_blocks_get_identical_roots() {
        let src = "define i64 @f(i64 %a) {\n\
                   entry:\n  %x = add i64 %a, 3\n  %y = mul i64 %x, %x\n  ret i64 %y\n\
                   }\n";
        let g1 = gate(src);
        let g2 = gate(src);
        assert_eq!(g1.graph.display(g1.ret.unwrap()), g2.graph.display(g2.ret.unwrap()));
    }

    #[test]
    fn gated_phi_has_branch_conditions() {
        let g = gate(
            "define i64 @f(i1 %c, i64 %a, i64 %b) {\n\
             entry:\n  br i1 %c, label %t, label %e\n\
             t:\n  br label %j\n\
             e:\n  br label %j\n\
             j:\n  %x = phi i64 [ %a, %t ], [ %b, %e ]\n  ret i64 %x\n\
             }\n",
        );
        let ret = g.ret.unwrap();
        assert!(matches!(g.graph.node(ret), Node::Phi { .. }), "{}", g.graph.display(ret));
        assert_eq!(mus_etas(&g).0, 0);
    }

    #[test]
    fn while_loop_builds_mu_and_eta() {
        let g = gate(
            "define i64 @count(i64 %n) {\n\
             entry:\n  br label %head\n\
             head:\n  %i = phi i64 [ 0, %entry ], [ %i2, %body ]\n\
             %c = icmp slt i64 %i, %n\n  br i1 %c, label %body, label %done\n\
             body:\n  %i2 = add i64 %i, 1\n  br label %head\n\
             done:\n  ret i64 %i\n\
             }\n",
        );
        let (mus, etas) = mus_etas(&g);
        assert_eq!(mus, 1);
        assert!(etas >= 1);
        let s = g.graph.display(g.ret.unwrap());
        assert!(s.contains("(eta"), "{s}");
        assert!(s.contains("(mu"), "{s}");
    }

    /// Loop-invariant values need no η: the paper's Fig. 7 baseline.
    #[test]
    fn invariant_value_escapes_without_eta() {
        let g = gate(
            "define i64 @inv(i64 %n, i64 %a) {\n\
             entry:\n  br label %head\n\
             head:\n  %i = phi i64 [ 0, %entry ], [ %i2, %body ]\n\
             %c = icmp slt i64 %i, %n\n  br i1 %c, label %body, label %done\n\
             body:\n  %x = add i64 %a, 3\n  %i2 = add i64 %i, 1\n  br label %head\n\
             done:\n  ret i64 %x\n\
             }\n",
        );
        // %x is invariant: the return root is the bare add.
        let ret = g.ret.unwrap();
        assert!(
            matches!(g.graph.node(ret), Node::Bin(lir::inst::BinOp::Add, ..)),
            "{}",
            g.graph.display(ret)
        );
    }

    #[test]
    fn memory_is_threaded_through_stores() {
        let g = gate(
            "define i64 @mem(ptr %p) {\n\
             entry:\n  store i64 1, ptr %p\n  %v = load i64, ptr %p\n  ret i64 %v\n\
             }\n",
        );
        let s = g.graph.display(g.ret.unwrap());
        assert!(s.contains("(load"), "{s}");
        assert!(s.contains("(store"), "{s}");
    }

    #[test]
    fn allocas_chain() {
        let g = gate(
            "define i64 @al() {\n\
             entry:\n  %p = alloca 8, align 8\n  %q = alloca 8, align 8\n\
             store i64 1, ptr %p\n  store i64 2, ptr %q\n  %v = load i64, ptr %p\n  ret i64 %v\n\
             }\n",
        );
        let s = g.graph.display(g.ret.unwrap());
        // The second alloca chains on the first.
        assert!(s.contains("(alloca"), "{s}");
        let mem = g.mem;
        let obs = g.graph.display(mem);
        assert!(obs.contains("(obsmem"), "{obs}");
    }

    #[test]
    fn select_becomes_gated_phi() {
        let g = gate(
            "define i64 @sel(i1 %c, i64 %a, i64 %b) {\n\
             entry:\n  %x = select i1 %c, i64 %a, i64 %b\n  ret i64 %x\n\
             }\n",
        );
        assert!(matches!(g.graph.node(g.ret.unwrap()), Node::Phi { .. }));
    }

    /// An if-join and the equivalent select produce the *same* root node —
    /// symbolic evaluation alone validates branch/select conversion.
    #[test]
    fn branch_and_select_share_shape() {
        let branchy = gate(
            "define i64 @f(i1 %c, i64 %a, i64 %b) {\n\
             entry:\n  br i1 %c, label %t, label %e\n\
             t:\n  br label %j\n\
             e:\n  br label %j\n\
             j:\n  %x = phi i64 [ %a, %t ], [ %b, %e ]\n  ret i64 %x\n\
             }\n",
        );
        let selecty = gate(
            "define i64 @f(i1 %c, i64 %a, i64 %b) {\n\
             entry:\n  %x = select i1 %c, i64 %a, i64 %b\n  ret i64 %x\n\
             }\n",
        );
        assert_eq!(
            branchy.graph.display(branchy.ret.unwrap()),
            selecty.graph.display(selecty.ret.unwrap())
        );
    }

    #[test]
    fn switch_gates_are_case_equalities() {
        let g = gate(
            "define i64 @sw(i64 %v) {\n\
             entry:\n  switch i64 %v, label %d [ 1, label %a 2, label %b ]\n\
             a:\n  br label %j\n\
             b:\n  br label %j\n\
             d:\n  br label %j\n\
             j:\n  %x = phi i64 [ 10, %a ], [ 20, %b ], [ 30, %d ]\n  ret i64 %x\n\
             }\n",
        );
        let s = g.graph.display(g.ret.unwrap());
        assert!(s.contains("(icmp"), "{s}");
        assert!(matches!(g.graph.node(g.ret.unwrap()), Node::Phi { .. }));
    }

    #[test]
    fn pure_known_call_has_no_memory_edge() {
        let g = gate(
            "define i64 @p(i64 %x) {\n\
             entry:\n  %v = call i64 @abs(i64 %x)\n  ret i64 %v\n\
             }\n",
        );
        let s = g.graph.display(g.ret.unwrap());
        assert!(s.contains("(callpure"), "{s}");
        assert!(!s.contains("M0"), "{s}");
    }

    #[test]
    fn writing_call_extends_memory() {
        let g = gate(
            "define void @w(ptr %p) {\n\
             entry:\n  call void @memset(ptr %p, i64 0, i64 8)\n  ret void\n\
             }\n",
        );
        let s = g.graph.display(g.mem);
        assert!(s.contains("(callmem"), "{s}");
    }

    #[test]
    fn multiple_returns_merge_into_one_root() {
        let g = gate(
            "define i64 @mr(i1 %c) {\n\
             entry:\n  br i1 %c, label %a, label %b\n\
             a:\n  ret i64 1\n\
             b:\n  ret i64 2\n\
             }\n",
        );
        assert!(matches!(g.graph.node(g.ret.unwrap()), Node::Phi { .. }));
    }

    #[test]
    fn nested_loops_stack_etas() {
        let m = parse_module(
            "define i64 @nest(i64 %n) {\n\
             entry:\n  br label %oh\n\
             oh:\n  %i = phi i64 [ 0, %entry ], [ %i2, %olatch ]\n\
             %oc = icmp slt i64 %i, %n\n  br i1 %oc, label %ih, label %done\n\
             ih:\n  %j = phi i64 [ 0, %oh ], [ %j2, %ib ]\n\
             %ic = icmp slt i64 %j, %i\n  br i1 %ic, label %ib, label %olatch\n\
             ib:\n  %j2 = add i64 %j, 1\n  br label %ih\n\
             olatch:\n  %i2 = add i64 %i, %j\n  br label %oh\n\
             done:\n  ret i64 %i\n\
             }\n",
        )
        .expect("parse");
        let f = &m.functions[0];
        assert_eq!(crate::prepare(f).expect("reducible").lf.loops.len(), 2);
        let g = build(f).expect("gate");
        assert!(mus_etas(&g).0 >= 2, "{}", g.graph.display(g.ret.unwrap()));
    }

    #[test]
    fn diverging_function_builds() {
        let m = parse_module(
            "define void @spin() {\n\
             entry:\n  br label %h\n\
             h:\n  br label %h\n\
             }\n",
        )
        .expect("parse");
        let g = build(&m.functions[0]).expect("gate");
        assert!(g.ret.is_none());
    }
}
