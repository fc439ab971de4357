//! Tier-2 encoder: bounded bit-blasting of a `RootsDiffer` fixpoint to CNF.
//!
//! When the value-graph tiers stop at a fixpoint with distinct return
//! roots, this module turns "can the two return values actually differ?"
//! into a propositional formula over fixed-width symbolic inputs and hands
//! it to the in-repo [`crate::sat`] solver:
//!
//! 1. **Expansion** unrolls the gated fixpoint graph into a μ/η-free
//!    dag: η-nodes become iteration-by-iteration selections (the value at
//!    the first exiting iteration), μ-streams are followed for
//!    [`SatOptions::unroll`] iterations, and whatever lies beyond the
//!    budget is cut at a *residual* — a fresh unconstrained unknown.
//!    External calls, `undef`, and entry-memory reads stay unconstrained
//!    the same way.
//! 2. **Encoding** lowers the expanded dag to clauses with the textbook
//!    circuits: ripple-carry add/sub, shift-add multiply, barrel shifters
//!    (with the interpreter's shift-past-width semantics), LSB-first
//!    comparison chains, φ-gates as multiplexers, and byte-granular
//!    memory: a load walks its store chain as a mux cascade, opaque memory
//!    states (entry memory, call effects, residuals) read as fresh bytes
//!    tied together by Ackermann-style congruence, and entry-memory reads
//!    at global addresses are pinned to the module's initializers using
//!    the interpreter's exact global layout. Gates are structurally
//!    hashed: an and/xor/mux gate over the same (normalized) inputs as an
//!    earlier one reuses its output literal, so the two sides' equal
//!    subcircuits share variables instead of being re-proved equal by
//!    search.
//!
//! Every approximation goes the same direction: constraints are only added
//! when they hold in *every* real execution (global layout, alloca
//! placement), and unknowns are only ever *fresh* (more models, never
//! fewer). So any real input on which the two functions return different
//! values induces a satisfying assignment, and **UNSAT is a sound proof of
//! return-value equivalence** for defined (non-trapping) executions —
//! while a satisfying model is merely a candidate: the caller decodes it
//! into concrete arguments and replays them through the differential
//! interpreter before believing it.
//!
//! Scope: the memory roots must already be merged by tier 1 (the query
//! asserts only return-root disequality; externally visible call traces
//! are not modeled), and the fragment excludes floating point and the
//! trapping division ops — out-of-scope pairs report
//! [`BlastResult::Unsupported`].

use crate::graph::SharedGraph;
use crate::sat::{Lit, SatOptions, SatResult, Solver, SolverStats};
use crate::validate::{Deadline, Fixpoint};
use gated_ssa::node::{Node, NodeId, ValueGraph};
use lir::func::Module;
use lir::inst::{BinOp, CastOp, IcmpPred};
use lir::interp::{global_layout, STACK_BASE};
use lir::types::Ty;
use lir::value::Constant;
use std::collections::{HashMap, HashSet};

/// Recursion guard for expansion and encoding (the graphs are dags, but
/// store/φ chains can be long).
const MAX_DEPTH: u32 = 2_000;
/// Skip the per-global-byte pinning of symbolic entry-memory reads when
/// the module has more initializer bytes than this (a completeness-only
/// device; reads stay fresh-but-congruent without it).
const MAX_PINNED_GLOBAL_BYTES: u64 = 4_096;

/// What one bit-blast query concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlastResult {
    /// UNSAT: the return roots are bit-precisely equal on every assignment
    /// of the symbolic inputs — an equivalence proof for defined
    /// executions.
    Proved,
    /// SAT: concrete argument values (one `u64` per parameter, raw bits)
    /// under which the encoded return values differ. A *candidate*
    /// counterexample — residuals and other unknowns may have taken values
    /// no real execution produces, so the caller must replay it.
    Model(Vec<u64>),
    /// A budget (expansion cap, conflict cap, or deadline) ran out.
    Capped,
    /// The pair is outside the encodable fragment (floating point,
    /// division, void-typed oddities).
    Unsupported,
}

/// The outcome of [`blast_ret_pair`] plus encoder/solver counters (all
/// deterministic; they feed [`crate::sat::SatStats`]).
#[derive(Clone, Debug)]
pub struct BlastReport {
    /// What the query concluded.
    pub result: BlastResult,
    /// CNF variables allocated.
    pub vars: usize,
    /// Problem clauses added.
    pub clauses: usize,
    /// Loop iterations unrolled across both roots.
    pub unrolled: usize,
    /// Residual cuts introduced.
    pub residuals: usize,
    /// CDCL search counters.
    pub solver: SolverStats,
}

/// Bit-blast the return-root pair of a tier-1 fixpoint and decide it.
///
/// `params` are the (shared) parameter types of the pair, `module` supplies
/// the global layout and initializers. The deadline is shared across
/// expansion, encoding, and search.
///
/// ```
/// use lir::parse::parse_module;
/// use llvm_md_core::bitblast::{blast_ret_pair, BlastResult};
/// use llvm_md_core::sat::SatOptions;
/// use llvm_md_core::validate::{Deadline, Validator};
/// use llvm_md_core::RuleSet;
///
/// let orig = parse_module(
///     "define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, %a\n  ret i64 %x\n}\n",
/// )?;
/// let opt = parse_module(
///     "define i64 @f(i64 %a) {\nentry:\n  %x = shl i64 %a, 1\n  ret i64 %x\n}\n",
/// )?;
/// // With no rewrite rules, tier 1 cannot prove 2a = a<<1 …
/// let v = Validator { rules: RuleSet::none(), ..Validator::new() };
/// let (verdict, fix) = v.validate_with_fixpoint(&orig.functions[0], &opt.functions[0]);
/// assert!(!verdict.validated);
/// // … but the bit-precise tier can.
/// let deadline = Deadline::starting_now(std::time::Duration::from_secs(5));
/// let report = blast_ret_pair(
///     &orig,
///     &fix.expect("a RootsDiffer failure leaves a fixpoint"),
///     &[lir::types::Ty::I64],
///     &SatOptions::default(),
///     &deadline,
/// );
/// assert_eq!(report.result, BlastResult::Proved);
/// # Ok::<(), lir::parse::ParseError>(())
/// ```
pub fn blast_ret_pair(
    module: &Module,
    fix: &Fixpoint,
    params: &[Ty],
    opts: &SatOptions,
    deadline: &Deadline,
) -> BlastReport {
    let mut report = BlastReport {
        result: BlastResult::Unsupported,
        vars: 0,
        clauses: 0,
        unrolled: 0,
        residuals: 0,
        solver: SolverStats::default(),
    };
    // No return value: with merged memory roots tier 1 would have
    // validated, so there is nothing in scope to decide.
    let Some((ro, rt)) = fix.ret else {
        return report;
    };

    let mut ex = Expander::new(&fix.graph, params, opts, deadline);
    let expanded = ex.expand(ro, 0, 0).and_then(|o| ex.expand(rt, 0, 0).map(|t| (o, t)));
    report.unrolled = ex.unrolled;
    report.residuals = ex.residuals;
    let (eo, et) = match expanded {
        Ok(roots) => roots,
        Err(Stop::Capped) => {
            report.result = BlastResult::Capped;
            return report;
        }
        Err(Stop::Unsupported) => return report,
    };
    if eo == et {
        // Expansion + residual congruence already identified the roots.
        report.result = BlastResult::Proved;
        return report;
    }

    let out = ex.out;
    let mut enc = Encoder::new(&out, module, params, deadline);
    let encoded = enc.encode(eo, 0).and_then(|a| enc.encode(et, 0).map(|b| (a, b)));
    let (a, b) = match encoded {
        Ok(pair) => pair,
        Err(stop) => {
            report.result = match stop {
                Stop::Capped => BlastResult::Capped,
                Stop::Unsupported => BlastResult::Unsupported,
            };
            report.vars = enc.solver.num_vars();
            report.clauses = enc.solver.num_clauses();
            return report;
        }
    };

    // Assert "the return roots differ": at least one result bit differs.
    let diff: Vec<Lit> = a.iter().zip(b.iter()).map(|(&x, &y)| enc.xor2(x, y)).collect();
    enc.solver.add_clause(&diff);
    enc.alloca_disjointness(&[eo, et]);

    report.vars = enc.solver.num_vars();
    report.clauses = enc.solver.num_clauses();
    let outcome = enc.solver.solve(opts.max_conflicts, Some(deadline));
    report.solver = enc.solver.stats();
    report.result = match outcome {
        SatResult::Unsat => BlastResult::Proved,
        SatResult::Unknown => BlastResult::Capped,
        SatResult::Sat(model) => {
            let mut args = vec![0u64; params.len()];
            for (&i, bits) in &enc.param_bits {
                let mut v = 0u64;
                for (k, &l) in bits.iter().enumerate() {
                    let bit = if l == enc.t {
                        true
                    } else if l == !enc.t {
                        false
                    } else {
                        model[l.var()] != l.is_neg()
                    };
                    v |= (bit as u64) << k;
                }
                if let Some(slot) = args.get_mut(i as usize) {
                    *slot = v;
                }
            }
            BlastResult::Model(args)
        }
    };
    report
}

/// Why expansion or encoding stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stop {
    /// A budget (expansion cap, deadline, recursion guard) ran out.
    Capped,
    /// An operation outside the encodable fragment.
    Unsupported,
}

/// The sort of a fixpoint node, for residual construction.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sort {
    /// An ordinary value.
    Value,
    /// A memory or allocation-chain state.
    State,
}

/// One μ-binding frame of the unrolling: maps the canonical μ-ids of the
/// loop being unrolled to their value in the current iteration.
struct Ctx {
    parent: Option<u32>,
    bind: HashMap<NodeId, NodeId>,
}

/// Unrolls a fixpoint [`SharedGraph`] into a μ/η-free [`ValueGraph`].
struct Expander<'a> {
    g: &'a SharedGraph,
    out: ValueGraph,
    ctxs: Vec<Ctx>,
    /// `(context, canonical fixpoint id) → expanded id`. Shared across both
    /// roots, so subgraphs tier 1 already merged expand to the same node —
    /// including their residuals (the congruence that lets proofs close).
    memo: HashMap<(u32, NodeId), NodeId>,
    params: &'a [Ty],
    opts: &'a SatOptions,
    deadline: &'a Deadline,
    expanded: usize,
    unrolled: usize,
    residuals: usize,
}

impl<'a> Expander<'a> {
    fn new(
        g: &'a SharedGraph,
        params: &'a [Ty],
        opts: &'a SatOptions,
        deadline: &'a Deadline,
    ) -> Expander<'a> {
        Expander {
            g,
            out: ValueGraph::new(),
            ctxs: vec![Ctx { parent: None, bind: HashMap::new() }],
            memo: HashMap::new(),
            params,
            opts,
            deadline,
            expanded: 0,
            unrolled: 0,
            residuals: 0,
        }
    }

    fn tick(&mut self) -> Result<(), Stop> {
        self.expanded += 1;
        if self.expanded > self.opts.max_expanded
            || (self.expanded.is_multiple_of(1024) && self.deadline.expired())
        {
            return Err(Stop::Capped);
        }
        Ok(())
    }

    fn expand(&mut self, id: NodeId, ctx: u32, depth: u32) -> Result<NodeId, Stop> {
        if depth > MAX_DEPTH {
            return Err(Stop::Capped);
        }
        self.tick()?;
        let id = self.g.find(id);
        if let Some(&o) = self.memo.get(&(ctx, id)) {
            return Ok(o);
        }
        let n = self.g.resolve(id);
        let o = match n {
            Node::Mu { .. } => {
                // Bound by an enclosing unrolling frame, or cut at a
                // residual (a μ outside any η for its loop has no single
                // iteration to take a value from).
                let mut c = Some(ctx);
                let mut bound = None;
                while let Some(ci) = c {
                    if let Some(&b) = self.ctxs[ci as usize].bind.get(&id) {
                        bound = Some(b);
                        break;
                    }
                    c = self.ctxs[ci as usize].parent;
                }
                match bound {
                    Some(b) => b,
                    None => self.residual(self.sort_of(id), self.ty_of(id)),
                }
            }
            Node::Eta { depth: d, cond, val } => self.expand_eta(d, cond, val, ctx, depth)?,
            mut n => {
                let kids = n.children();
                let mut mapped = Vec::with_capacity(kids.len());
                for k in kids {
                    mapped.push(self.expand(k, ctx, depth + 1)?);
                }
                let mut it = mapped.into_iter();
                n.map_children(|_| it.next().expect("same child arity"));
                if let Node::CallPure { callee, .. }
                | Node::CallVal { callee, .. }
                | Node::CallMem { callee, .. } = &mut n
                {
                    let name = self.g.callee_name(*callee).to_string();
                    *callee = self.out.callee(&name);
                }
                self.out.add(n)
            }
        };
        self.memo.insert((ctx, id), o);
        Ok(o)
    }

    /// Expand an η-node: the value of `val` at the first iteration of the
    /// depth-`d` loop where `cond` holds, as a cascade of muxes over
    /// [`SatOptions::unroll`] unrolled iterations, defaulting to a residual.
    fn expand_eta(
        &mut self,
        d: u32,
        cond: NodeId,
        val: NodeId,
        ctx: u32,
        depth: u32,
    ) -> Result<NodeId, Stop> {
        let mus = self.loop_mus(d, cond, val);
        if mus.is_empty() {
            // Invariant stream: its value at any iteration is its value.
            return self.expand(val, ctx, depth + 1);
        }
        // First iteration: each μ takes its init value (expanded in the
        // *enclosing* context — the preheader is outside the loop).
        let mut cur = Vec::with_capacity(mus.len());
        for &m in &mus {
            let init = match self.g.resolve(m) {
                Node::Mu { init, .. } => init,
                _ => unreachable!("loop_mus collects μ-nodes"),
            };
            cur.push(self.expand(init, ctx, depth + 1)?);
        }
        let mut branches = Vec::new();
        let mut early = None;
        for _ in 0..self.opts.unroll.max(1) {
            self.unrolled += 1;
            let fctx = self.ctxs.len() as u32;
            self.ctxs.push(Ctx {
                parent: Some(ctx),
                bind: mus.iter().copied().zip(cur.iter().copied()).collect(),
            });
            let c = self.expand(cond, fctx, depth + 1)?;
            let v = self.expand(val, fctx, depth + 1)?;
            match self.const_bool(c) {
                Some(true) => {
                    // The loop provably exits here: no residual needed.
                    early = Some(v);
                    break;
                }
                Some(false) => {} // provably does not exit here
                None => branches.push((c, v)),
            }
            let mut next = Vec::with_capacity(mus.len());
            for &m in &mus {
                let nx = match self.g.resolve(m) {
                    Node::Mu { next, .. } => next,
                    _ => unreachable!("loop_mus collects μ-nodes"),
                };
                next.push(self.expand(nx, fctx, depth + 1)?);
            }
            cur = next;
        }
        // Iterations past the budget collapse into one unconstrained value.
        let mut acc = match early {
            Some(v) => v,
            None => self.residual(self.sort_of(val), self.ty_of(val)),
        };
        for (c, v) in branches.into_iter().rev() {
            acc = self.ite(c, v, acc);
        }
        Ok(acc)
    }

    /// The μ-nodes of the specific depth-`d` loop exited by an η over
    /// `cond`/`val`: reachable without crossing an η at depth ≤ `d` (those
    /// select their value in an *earlier* or enclosing loop, so their
    /// streams are invariant here).
    fn loop_mus(&self, d: u32, cond: NodeId, val: NodeId) -> Vec<NodeId> {
        let mut seen = HashSet::new();
        let mut stack = vec![self.g.find(cond), self.g.find(val)];
        let mut mus = Vec::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let n = self.g.resolve(id);
            match &n {
                Node::Eta { depth, .. } if *depth <= d => continue,
                Node::Mu { depth, .. } if *depth == d => mus.push(id),
                _ => {}
            }
            n.for_each_child(|c| stack.push(self.g.find(c)));
        }
        mus.sort();
        mus
    }

    /// `if c then v else e` with constant folding, as a two-branch gated φ.
    fn ite(&mut self, c: NodeId, v: NodeId, e: NodeId) -> NodeId {
        match self.const_bool(c) {
            Some(true) => return v,
            Some(false) => return e,
            None => {}
        }
        if v == e {
            return v;
        }
        let nc = self.out.not(c);
        self.out.phi(vec![(c, v), (nc, e)])
    }

    fn const_bool(&self, id: NodeId) -> Option<bool> {
        match self.out.node(id) {
            Node::Const(c) if c.is_true() => Some(true),
            Node::Const(c) if c.is_false() => Some(false),
            _ => None,
        }
    }

    /// A fresh unconstrained unknown of the given sort: a nullary opaque
    /// call (value) or opaque memory state. Fresh per cut; sharing comes
    /// from the expansion memo, not from the residual itself.
    fn residual(&mut self, sort: Sort, ty: Ty) -> NodeId {
        let name = format!("!res{}", self.residuals);
        self.residuals += 1;
        let callee = self.out.callee(&name);
        match sort {
            Sort::Value => {
                let ret = if ty.bits() == 0 { Ty::I64 } else { ty };
                self.out.add(Node::CallPure { callee, ret, args: Box::new([]) })
            }
            Sort::State => {
                let m = self.out.add(Node::InitMem);
                self.out.add(Node::CallMem { callee, args: Box::new([]), mem: m })
            }
        }
    }

    /// Value vs. state sort of a fixpoint node (through φ/μ/η).
    fn sort_of(&self, id: NodeId) -> Sort {
        let mut id = self.g.find(id);
        for _ in 0..64 {
            match self.g.resolve(id) {
                Node::Store { .. }
                | Node::CallMem { .. }
                | Node::InitMem
                | Node::ObsMem(_)
                | Node::InitAlloc
                | Node::Alloca { .. } => return Sort::State,
                Node::Phi { branches } => match branches.first() {
                    Some(&(_, v)) => id = self.g.find(v),
                    None => return Sort::Value,
                },
                Node::Mu { init, .. } => id = self.g.find(init),
                Node::Eta { val, .. } => id = self.g.find(val),
                _ => return Sort::Value,
            }
        }
        // Unresolvable chains default to Value; a mis-sorted residual is
        // still treated as opaque by the encoder, so this is safe.
        Sort::Value
    }

    /// Result type of a fixpoint value node (through φ/μ/η).
    fn ty_of(&self, id: NodeId) -> Ty {
        let mut id = self.g.find(id);
        for _ in 0..64 {
            match self.g.resolve(id) {
                Node::Param(i) => return self.params.get(i as usize).copied().unwrap_or(Ty::I64),
                Node::Const(c) => return c.ty(),
                Node::GlobalAddr(_) | Node::Gep(..) | Node::Alloca { .. } => return Ty::Ptr,
                Node::Bin(_, ty, ..) | Node::Load { ty, .. } => return ty,
                Node::Icmp(..) | Node::Fcmp(..) => return Ty::I1,
                Node::FBin(..) => return Ty::F64,
                Node::Cast(_, _, to, _) => return to,
                Node::CallPure { ret, .. } | Node::CallVal { ret, .. } => return ret,
                Node::Phi { branches } => match branches.first() {
                    Some(&(_, v)) => id = self.g.find(v),
                    None => return Ty::I64,
                },
                Node::Mu { init, .. } => id = self.g.find(init),
                Node::Eta { val, .. } => id = self.g.find(val),
                Node::InitMem
                | Node::InitAlloc
                | Node::Store { .. }
                | Node::CallMem { .. }
                | Node::ObsMem(_) => return Ty::I64,
            }
        }
        Ty::I64
    }
}

/// How a shift fills vacated bit positions.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fill {
    Left,
    LogicalRight,
    ArithRight,
}

/// One Ackermann-tracked opaque read: `(address bits, byte bits)`.
type ReadPair = (Vec<Lit>, Vec<Lit>);

/// Structural-hashing key of one Tseitin gate, with its inputs normalized
/// so that equal functions of equal inputs share a key: `And` operands are
/// sorted, `Xor` operands are sorted and stripped of polarity (the caller
/// re-applies it to the output), `Mux` is `s ? a : b` as given.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Gate {
    And(Lit, Lit),
    Xor(Lit, Lit),
    Mux(Lit, Lit, Lit),
}

/// Lowers an expanded (μ/η-free) [`ValueGraph`] to clauses in a
/// [`Solver`].
struct Encoder<'a> {
    out: &'a ValueGraph,
    params: &'a [Ty],
    solver: Solver,
    /// The reserved constant-true literal (variable 0, asserted at root).
    t: Lit,
    /// Per-node encodings, LSB first.
    bits: HashMap<NodeId, Vec<Lit>>,
    /// Structural hashing: normalized gate → its output literal, so the
    /// two sides' equal subcircuits share variables instead of leaving
    /// CDCL to re-prove them equal by search. Probed, never iterated.
    gates: HashMap<Gate, Lit>,
    /// Memoized byte reads: `(memory state, address bits) → byte bits`.
    reads: HashMap<(NodeId, Vec<Lit>), Vec<Lit>>,
    /// Ackermann groups: opaque memory state → its `(address, byte)` reads.
    groups: HashMap<NodeId, Vec<ReadPair>>,
    /// Per-parameter input bits, for model decoding.
    param_bits: HashMap<u32, Vec<Lit>>,
    /// Encoded allocas: node → (base bits, size) for disjointness.
    allocas: HashMap<NodeId, (Vec<Lit>, u64)>,
    /// Concrete global base addresses: the interpreter's layout.
    global_bases: Vec<u64>,
    /// Per-global initializer bytes, parallel to `global_bases`.
    global_images: Vec<Vec<u8>>,
    /// End of the global region (all below [`STACK_BASE`] in practice).
    layout_end: u64,
    /// Total initializer bytes (gates the symbolic-read pinning).
    global_bytes: u64,
    deadline: &'a Deadline,
    ticks: u64,
}

impl<'a> Encoder<'a> {
    fn new(
        out: &'a ValueGraph,
        module: &'a Module,
        params: &'a [Ty],
        deadline: &'a Deadline,
    ) -> Encoder<'a> {
        let mut solver = Solver::new(1);
        let t = Lit::pos(0);
        solver.add_clause(&[t]);
        let (global_bases, layout_end) = global_layout(module);
        let global_images: Vec<Vec<u8>> = module
            .globals
            .iter()
            .map(|g| g.words.iter().flat_map(|w| (*w as u64).to_le_bytes()).collect())
            .collect();
        let global_bytes = global_images.iter().map(|image| image.len() as u64).sum();
        Encoder {
            out,
            params,
            solver,
            t,
            bits: HashMap::new(),
            gates: HashMap::new(),
            reads: HashMap::new(),
            groups: HashMap::new(),
            param_bits: HashMap::new(),
            allocas: HashMap::new(),
            global_bases,
            global_images,
            layout_end,
            global_bytes,
            deadline,
            ticks: 0,
        }
    }

    fn f(&self) -> Lit {
        !self.t
    }

    fn tick(&mut self) -> Result<(), Stop> {
        self.ticks += 1;
        if self.ticks.is_multiple_of(256) && self.deadline.expired() {
            return Err(Stop::Capped);
        }
        Ok(())
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    fn fresh_vec(&mut self, w: usize) -> Vec<Lit> {
        (0..w).map(|_| self.fresh()).collect()
    }

    fn const_vec(&self, v: u64, w: usize) -> Vec<Lit> {
        (0..w).map(|i| if (v >> i) & 1 == 1 { self.t } else { self.f() }).collect()
    }

    // ---- Tseitin gates with constant-folding peepholes ----

    /// The output literal of `gate`: the one an identical gate already got
    /// in this query, or a fresh variable defined by the gate's clauses.
    fn gate(&mut self, gate: Gate) -> Lit {
        if let Some(&o) = self.gates.get(&gate) {
            return o;
        }
        let o = self.fresh();
        match gate {
            Gate::And(a, b) => {
                self.solver.add_clause(&[!a, !b, o]);
                self.solver.add_clause(&[a, !o]);
                self.solver.add_clause(&[b, !o]);
            }
            Gate::Xor(a, b) => {
                self.solver.add_clause(&[!a, !b, !o]);
                self.solver.add_clause(&[a, b, !o]);
                self.solver.add_clause(&[a, !b, o]);
                self.solver.add_clause(&[!a, b, o]);
            }
            Gate::Mux(s, a, b) => {
                self.solver.add_clause(&[!s, !a, o]);
                self.solver.add_clause(&[!s, a, !o]);
                self.solver.add_clause(&[s, !b, o]);
                self.solver.add_clause(&[s, b, !o]);
            }
        }
        self.gates.insert(gate, o);
        o
    }

    fn and2(&mut self, a: Lit, b: Lit) -> Lit {
        let (t, f) = (self.t, self.f());
        if a == t {
            return b;
        }
        if b == t {
            return a;
        }
        if a == f || b == f || a == !b {
            return f;
        }
        if a == b {
            return a;
        }
        self.gate(Gate::And(a.min(b), a.max(b)))
    }

    fn or2(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and2(!a, !b)
    }

    fn xor2(&mut self, a: Lit, b: Lit) -> Lit {
        let (t, f) = (self.t, self.f());
        if a == t {
            return !b;
        }
        if b == t {
            return !a;
        }
        if a == f {
            return b;
        }
        if b == f {
            return a;
        }
        if a == b {
            return f;
        }
        if a == !b {
            return t;
        }
        // xor(a, b) = xor(|a|, |b|) ⊕ sign(a) ⊕ sign(b).
        let (pa, pb) = (Lit::pos(a.var()), Lit::pos(b.var()));
        let o = self.gate(Gate::Xor(pa.min(pb), pa.max(pb)));
        if a.is_neg() != b.is_neg() {
            !o
        } else {
            o
        }
    }

    fn eq2(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor2(a, b)
    }

    /// `s ? a : b`.
    fn mux(&mut self, s: Lit, a: Lit, b: Lit) -> Lit {
        let (t, f) = (self.t, self.f());
        if s == t {
            return a;
        }
        if s == f {
            return b;
        }
        if a == b {
            return a;
        }
        if a == t {
            return self.or2(s, b);
        }
        if a == f {
            return self.and2(!s, b);
        }
        if b == t {
            return self.or2(!s, a);
        }
        if b == f {
            return self.and2(s, a);
        }
        if b == !a {
            return self.eq2(s, a);
        }
        self.gate(Gate::Mux(s, a, b))
    }

    // ---- word-level circuits (LSB-first bit vectors) ----

    fn add_vec(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let axb = self.xor2(a[i], b[i]);
            out.push(self.xor2(axb, carry));
            let c1 = self.and2(a[i], b[i]);
            let c2 = self.and2(axb, carry);
            carry = self.or2(c1, c2);
        }
        out
    }

    fn add_const(&mut self, a: &[Lit], k: u64) -> Vec<Lit> {
        if k == 0 {
            return a.to_vec();
        }
        let kv = self.const_vec(k, a.len());
        self.add_vec(a, &kv, self.f())
    }

    fn sub_vec(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
        self.add_vec(a, &nb, self.t)
    }

    fn mul_vec(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc = vec![self.f(); w];
        for i in 0..w {
            if b[i] == self.f() {
                continue;
            }
            let mut addend = vec![self.f(); w];
            for j in i..w {
                addend[j] = self.and2(b[i], a[j - i]);
            }
            acc = self.add_vec(&acc, &addend, self.f());
        }
        acc
    }

    /// Barrel shifter with the interpreter's past-width semantics: shifts
    /// of `w` or more yield zero (left/logical-right) or all sign bits
    /// (arithmetic right).
    fn shift(&mut self, a: &[Lit], sh: &[Lit], fill: Fill) -> Vec<Lit> {
        let w = a.len();
        let pad = match fill {
            Fill::ArithRight => a[w - 1],
            _ => self.f(),
        };
        let stages = (usize::BITS - (w - 1).leading_zeros()) as usize;
        let mut cur = a.to_vec();
        for (k, &s) in sh.iter().enumerate().take(stages) {
            let amt = 1usize << k;
            let mut next = Vec::with_capacity(w);
            for j in 0..w {
                let shifted = match fill {
                    Fill::Left => {
                        if j >= amt {
                            cur[j - amt]
                        } else {
                            self.f()
                        }
                    }
                    Fill::LogicalRight | Fill::ArithRight => {
                        if j + amt < w {
                            cur[j + amt]
                        } else {
                            pad
                        }
                    }
                };
                next.push(self.mux(s, shifted, cur[j]));
            }
            cur = next;
        }
        let mut oor = self.f();
        for &s in &sh[stages..] {
            oor = self.or2(oor, s);
        }
        cur.iter().map(|&bit| self.mux(oor, pad, bit)).collect()
    }

    /// Unsigned `a < b`, LSB-to-MSB chain.
    fn ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut lt = self.f();
        for i in 0..a.len() {
            let e = self.eq2(a[i], b[i]);
            lt = self.mux(e, lt, b[i]);
        }
        lt
    }

    /// Signed `a < b`: unsigned comparison with both sign bits flipped.
    fn slt(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut a2 = a.to_vec();
        let mut b2 = b.to_vec();
        *a2.last_mut().expect("non-empty word") = !a[a.len() - 1];
        *b2.last_mut().expect("non-empty word") = !b[b.len() - 1];
        self.ult(&a2, &b2)
    }

    fn eq_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.t;
        for i in 0..a.len() {
            let e = self.eq2(a[i], b[i]);
            acc = self.and2(acc, e);
        }
        acc
    }

    fn mux_vec(&mut self, s: Lit, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        a.iter().zip(b.iter()).map(|(&x, &y)| self.mux(s, x, y)).collect()
    }

    // ---- graph encoding ----

    fn encode(&mut self, id: NodeId, depth: u32) -> Result<Vec<Lit>, Stop> {
        if depth > MAX_DEPTH {
            return Err(Stop::Capped);
        }
        self.tick()?;
        if let Some(v) = self.bits.get(&id) {
            return Ok(v.clone());
        }
        let n = self.out.node(id).clone();
        let v = match n {
            Node::Param(i) => {
                let ty = *self.params.get(i as usize).ok_or(Stop::Unsupported)?;
                let w = ty.bits() as usize;
                if w == 0 {
                    return Err(Stop::Unsupported);
                }
                let bits = self.fresh_vec(w);
                self.param_bits.insert(i, bits.clone());
                bits
            }
            Node::Const(c) => match c {
                Constant::Int { bits, ty } => self.const_vec(bits, ty.bits() as usize),
                Constant::Null => self.const_vec(0, 64),
                // Float constants participate as raw bits (stores/loads of
                // the bit pattern are exact; arithmetic on them is not
                // encodable and fails at the FBin/Fcmp consumer).
                Constant::Float(bits) => self.const_vec(bits, 64),
                // `undef`: any value; defined executions never branch on
                // it, so fresh is a sound over-approximation.
                Constant::Undef(ty) => {
                    let w = ty.bits() as usize;
                    if w == 0 {
                        return Err(Stop::Unsupported);
                    }
                    self.fresh_vec(w)
                }
            },
            Node::GlobalAddr(g) => {
                let base = *self.global_bases.get(g.index()).ok_or(Stop::Unsupported)?;
                self.const_vec(base, 64)
            }
            Node::Bin(op, ty, a, b) => {
                let w = ty.bits() as usize;
                if w == 0 || !ty.is_int() && ty != Ty::Ptr {
                    return Err(Stop::Unsupported);
                }
                let av = self.encode(a, depth + 1)?;
                let bv = self.encode(b, depth + 1)?;
                match op {
                    BinOp::Add => self.add_vec(&av, &bv, self.f()),
                    BinOp::Sub => self.sub_vec(&av, &bv),
                    BinOp::Mul => self.mul_vec(&av, &bv),
                    BinOp::And => (0..w).map(|i| self.and2(av[i], bv[i])).collect::<Vec<_>>(),
                    BinOp::Or => (0..w).map(|i| self.or2(av[i], bv[i])).collect::<Vec<_>>(),
                    BinOp::Xor => (0..w).map(|i| self.xor2(av[i], bv[i])).collect::<Vec<_>>(),
                    BinOp::Shl => self.shift(&av, &bv, Fill::Left),
                    BinOp::LShr => self.shift(&av, &bv, Fill::LogicalRight),
                    BinOp::AShr => self.shift(&av, &bv, Fill::ArithRight),
                    // Division/remainder trap on zero divisors (and on
                    // signed overflow): out of the defined-execution
                    // fragment this encoding covers.
                    BinOp::UDiv | BinOp::SDiv | BinOp::URem | BinOp::SRem => {
                        return Err(Stop::Unsupported)
                    }
                }
            }
            Node::Icmp(pred, ty, a, b) => {
                if ty.bits() == 0 {
                    return Err(Stop::Unsupported);
                }
                let av = self.encode(a, depth + 1)?;
                let bv = self.encode(b, depth + 1)?;
                let bit = match pred {
                    IcmpPred::Eq => self.eq_vec(&av, &bv),
                    IcmpPred::Ne => !self.eq_vec(&av, &bv),
                    IcmpPred::Ult => self.ult(&av, &bv),
                    IcmpPred::Ule => !self.ult(&bv, &av),
                    IcmpPred::Ugt => self.ult(&bv, &av),
                    IcmpPred::Uge => !self.ult(&av, &bv),
                    IcmpPred::Slt => self.slt(&av, &bv),
                    IcmpPred::Sle => !self.slt(&bv, &av),
                    IcmpPred::Sgt => self.slt(&bv, &av),
                    IcmpPred::Sge => !self.slt(&av, &bv),
                };
                vec![bit]
            }
            Node::Cast(op, from, to, v) => {
                let (fw, tw) = (from.bits() as usize, to.bits() as usize);
                if fw == 0 || tw == 0 {
                    return Err(Stop::Unsupported);
                }
                match op {
                    CastOp::Zext => {
                        let mut bits = self.encode(v, depth + 1)?;
                        bits.resize(tw, self.f());
                        bits
                    }
                    CastOp::Sext => {
                        let mut bits = self.encode(v, depth + 1)?;
                        let msb = bits[fw - 1];
                        bits.resize(tw, msb);
                        bits
                    }
                    CastOp::Trunc => {
                        let mut bits = self.encode(v, depth + 1)?;
                        bits.truncate(tw);
                        bits
                    }
                    CastOp::FpToSi | CastOp::SiToFp => return Err(Stop::Unsupported),
                }
            }
            Node::Gep(p, off) => {
                let pv = self.encode(p, depth + 1)?;
                let ov = self.encode(off, depth + 1)?;
                self.add_vec(&pv, &ov, self.f())
            }
            Node::Alloca { size, align, .. } => {
                // A fresh symbolic base, constrained only by facts true of
                // every interpreter run: the stack starts at STACK_BASE and
                // bases honor their alignment. Per-side disjointness is
                // added at the end (alloca_disjointness).
                let base = self.fresh_vec(64);
                let sb = self.const_vec(STACK_BASE, 64);
                let below = self.ult(&base, &sb);
                self.solver.add_clause(&[!below]);
                if align.is_power_of_two() {
                    for &bit in base.iter().take((align.trailing_zeros() as usize).min(63)) {
                        self.solver.add_clause(&[!bit]);
                    }
                }
                self.allocas.insert(id, (base.clone(), size));
                base
            }
            Node::Load { ty, ptr, mem } => {
                let w = ty.bits() as usize;
                if w == 0 {
                    return Err(Stop::Unsupported);
                }
                let addr = self.encode(ptr, depth + 1)?;
                let mut bits = Vec::with_capacity(w);
                for j in 0..ty.bytes() {
                    let aj = self.add_const(&addr, j);
                    let byte = self.read_byte(mem, &aj, depth + 1)?;
                    for &bit in byte.iter().take(8) {
                        if bits.len() < w {
                            bits.push(bit);
                        }
                    }
                }
                bits
            }
            Node::CallPure { ret, .. } | Node::CallVal { ret, .. } => {
                // Opaque: a fresh value per call node. Hash-consing gives
                // congruence (same callee, args, and memory state → same
                // node → same bits), which is exactly the sound amount.
                let w = ret.bits() as usize;
                if w == 0 {
                    return Err(Stop::Unsupported);
                }
                self.fresh_vec(w)
            }
            Node::Phi { branches } => {
                let last = branches.last().ok_or(Stop::Unsupported)?;
                // Conditions are mutually exclusive; in defined executions
                // exactly one holds, so the last branch may serve as the
                // default (all-false assignments only add spurious models,
                // which is sound for UNSAT).
                let mut acc = self.encode(last.1, depth + 1)?;
                for &(c, v) in branches[..branches.len() - 1].iter().rev() {
                    let cb = self.encode(c, depth + 1)?[0];
                    let vb = self.encode(v, depth + 1)?;
                    acc = self.mux_vec(cb, &vb, &acc);
                }
                acc
            }
            Node::FBin(..) | Node::Fcmp(..) => return Err(Stop::Unsupported),
            // States and stream nodes never appear in value position in an
            // expanded graph.
            Node::InitMem
            | Node::InitAlloc
            | Node::Store { .. }
            | Node::CallMem { .. }
            | Node::ObsMem(_)
            | Node::Mu { .. }
            | Node::Eta { .. } => return Err(Stop::Unsupported),
        };
        self.bits.insert(id, v.clone());
        Ok(v)
    }

    /// The byte at `addr` in memory state `mem`: walk store chains as mux
    /// cascades; opaque states read as fresh congruent bytes.
    fn read_byte(&mut self, mem: NodeId, addr: &[Lit], depth: u32) -> Result<Vec<Lit>, Stop> {
        if depth > MAX_DEPTH {
            return Err(Stop::Capped);
        }
        self.tick()?;
        let key = (mem, addr.to_vec());
        if let Some(v) = self.reads.get(&key) {
            return Ok(v.clone());
        }
        let n = self.out.node(mem).clone();
        let v = match n {
            Node::ObsMem(m) => self.read_byte(m, addr, depth + 1)?,
            Node::Store { ty, val, ptr, mem: prev } => {
                let pv = self.encode(ptr, depth + 1)?;
                let vv = self.encode(val, depth + 1)?;
                let mut acc = self.read_byte(prev, addr, depth + 1)?;
                for j in (0..ty.bytes()).rev() {
                    let target = self.add_const(&pv, j);
                    let hit = self.eq_vec(addr, &target);
                    let byte: Vec<Lit> = (0..8)
                        .map(|k| vv.get((8 * j) as usize + k).copied().unwrap_or(self.f()))
                        .collect();
                    acc = self.mux_vec(hit, &byte, &acc);
                }
                acc
            }
            Node::Phi { branches } => {
                let last = branches.last().ok_or(Stop::Unsupported)?;
                let mut acc = self.read_byte(last.1, addr, depth + 1)?;
                for &(c, m) in branches[..branches.len() - 1].iter().rev() {
                    let cb = self.encode(c, depth + 1)?[0];
                    let bv = self.read_byte(m, addr, depth + 1)?;
                    acc = self.mux_vec(cb, &bv, &acc);
                }
                acc
            }
            other => {
                let init = matches!(other, Node::InitMem);
                self.opaque_read(mem, addr, init)?
            }
        };
        self.reads.insert(key, v.clone());
        Ok(v)
    }

    /// Read from an opaque memory state: a fresh byte, made congruent with
    /// every other read of the same state (equal addresses → equal bytes)
    /// and — for the entry memory — pinned to the global initializers.
    fn opaque_read(&mut self, mem: NodeId, addr: &[Lit], init: bool) -> Result<Vec<Lit>, Stop> {
        if init {
            if let Some(ca) = self.const_addr(addr) {
                if let Some(b) = self.global_byte(ca) {
                    return Ok(self.const_vec(b as u64, 8));
                }
            }
        }
        let byte = self.fresh_vec(8);
        let mut group = self.groups.remove(&mem).unwrap_or_default();
        for (pa, pb) in &group {
            let same = self.eq_vec(addr, pa);
            for k in 0..8 {
                self.solver.add_clause(&[!same, !byte[k], pb[k]]);
                self.solver.add_clause(&[!same, byte[k], !pb[k]]);
            }
        }
        if init && self.global_bytes <= MAX_PINNED_GLOBAL_BYTES && self.layout_end <= STACK_BASE {
            // A symbolic entry-memory read that lands in a global region
            // must see the initializer (true of every interpreter run).
            for gi in 0..self.global_bases.len() {
                let base = self.global_bases[gi];
                for o in 0..self.global_images[gi].len() {
                    let cv = self.global_images[gi][o];
                    let ga = self.const_vec(base + o as u64, 64);
                    let here = self.eq_vec(addr, &ga);
                    for (k, &bk) in byte.iter().enumerate() {
                        if (cv >> k) & 1 == 1 {
                            self.solver.add_clause(&[!here, bk]);
                        } else {
                            self.solver.add_clause(&[!here, !bk]);
                        }
                    }
                }
            }
        }
        group.push((addr.to_vec(), byte.clone()));
        self.groups.insert(mem, group);
        Ok(byte)
    }

    /// The concrete value of an all-constant address, if it is one.
    fn const_addr(&self, addr: &[Lit]) -> Option<u64> {
        let mut v = 0u64;
        for (i, &l) in addr.iter().enumerate() {
            if l == self.t {
                v |= 1 << i;
            } else if l != !self.t {
                return None;
            }
        }
        Some(v)
    }

    /// The initializer byte at concrete address `ca`, if it lies in a
    /// global region.
    fn global_byte(&self, ca: u64) -> Option<u8> {
        for (gi, &base) in self.global_bases.iter().enumerate() {
            let size = self.global_images[gi].len() as u64;
            if ca >= base && ca < base + size {
                return Some(self.global_images[gi][(ca - base) as usize]);
            }
        }
        None
    }

    /// Pairwise region-disjointness among the allocas reachable from each
    /// root (per side only: the two roots come from two separate runs, so
    /// cross-side constraints would be unsound). True of every real run —
    /// live stack regions never overlap, and unexecuted allocas' free bases
    /// can always be placed apart.
    fn alloca_disjointness(&mut self, roots: &[NodeId]) {
        let mut done: HashSet<(NodeId, NodeId)> = HashSet::new();
        for &root in roots {
            let mut side: Vec<NodeId> = Vec::new();
            let mut seen = HashSet::new();
            let mut stack = vec![root];
            while let Some(id) = stack.pop() {
                if !seen.insert(id) {
                    continue;
                }
                if self.allocas.contains_key(&id) {
                    side.push(id);
                }
                self.out.node(id).for_each_child(|c| stack.push(c));
            }
            side.sort();
            for i in 0..side.len() {
                for j in (i + 1)..side.len() {
                    if !done.insert((side[i], side[j])) {
                        continue;
                    }
                    let (bi, si) = self.allocas[&side[i]].clone();
                    let (bj, sj) = self.allocas[&side[j]].clone();
                    let ei = self.add_const(&bi, si);
                    let ej = self.add_const(&bj, sj);
                    // base_i + size_i ≤ base_j ∨ base_j + size_j ≤ base_i
                    let d1 = !self.ult(&bj, &ei);
                    let d2 = !self.ult(&bi, &ej);
                    self.solver.add_clause(&[d1, d2]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleSet;
    use crate::validate::Validator;
    use lir::parse::parse_module;
    use std::time::Duration;

    fn blast_pair(orig: &str, opt: &str, opts: &SatOptions) -> BlastReport {
        let om = parse_module(orig).expect("original parses");
        let tm = parse_module(opt).expect("optimized parses");
        let v = Validator { rules: RuleSet::none(), ..Validator::new() };
        let (verdict, fix) = v.validate_with_fixpoint(&om.functions[0], &tm.functions[0]);
        assert!(!verdict.validated, "pair must reach tier 2 unproven");
        let fix = fix.expect("RootsDiffer leaves a fixpoint");
        let params: Vec<Ty> = om.functions[0].params.iter().map(|&(_, ty)| ty).collect();
        let deadline = Deadline::starting_now(Duration::from_secs(10));
        blast_ret_pair(&om, &fix, &params, opts, &deadline)
    }

    /// Run `f` on an encoder over an empty graph and module, for poking at
    /// the gate layer directly.
    fn with_encoder(f: impl FnOnce(&mut Encoder<'_>)) {
        let graph = ValueGraph::new();
        let module = Module::default();
        let deadline = Deadline::starting_now(Duration::from_secs(10));
        f(&mut Encoder::new(&graph, &module, &[], &deadline));
    }

    #[test]
    fn and_gates_hash_commutatively() {
        with_encoder(|enc| {
            let (a, b) = (enc.fresh(), enc.fresh());
            let ab = enc.and2(a, b);
            assert_eq!(enc.and2(b, a), ab);
            assert_ne!(enc.and2(!a, b), ab, "input polarity matters to an and-gate");
        });
    }

    #[test]
    fn xor_gates_hash_modulo_input_polarity() {
        with_encoder(|enc| {
            let (a, b) = (enc.fresh(), enc.fresh());
            let x = enc.xor2(a, b);
            let vars = enc.solver.num_vars();
            assert_eq!(enc.xor2(!a, b), !x);
            assert_eq!(enc.xor2(a, !b), !x);
            assert_eq!(enc.xor2(!b, !a), x);
            assert_eq!(enc.eq2(b, a), !x);
            assert_eq!(enc.solver.num_vars(), vars, "all five share one gate");
        });
    }

    #[test]
    fn re_encoding_an_identical_mux_adds_nothing() {
        with_encoder(|enc| {
            let (s, a, b) = (enc.fresh(), enc.fresh(), enc.fresh());
            let o = enc.mux(s, a, b);
            let size = (enc.solver.num_vars(), enc.solver.num_clauses());
            assert_eq!(enc.mux(s, a, b), o);
            assert_eq!((enc.solver.num_vars(), enc.solver.num_clauses()), size);
        });
    }

    #[test]
    fn shared_subcircuits_prove_without_search() {
        // Tier 1 (no rules) keeps `a >=u b` and `!(a <u b)` apart, but both
        // sides lower to the same comparison chain gate for gate, so the
        // hashed miter is refuted before search starts.
        let r = blast_pair(
            "define i64 @f(i64 %a, i64 %b) {\nentry:\n  %c = icmp uge i64 %a, %b\n  %z = zext i1 %c to i64\n  ret i64 %z\n}\n",
            "define i64 @f(i64 %a, i64 %b) {\nentry:\n  %c = icmp ult i64 %a, %b\n  %n = xor i1 %c, 1\n  %z = zext i1 %n to i64\n  ret i64 %z\n}\n",
            &SatOptions::default(),
        );
        assert_eq!(r.result, BlastResult::Proved);
        assert_eq!(r.solver.conflicts, 0);
    }

    #[test]
    fn proves_add_self_is_shl_one() {
        let r = blast_pair(
            "define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, %a\n  ret i64 %x\n}\n",
            "define i64 @f(i64 %a) {\nentry:\n  %x = shl i64 %a, 1\n  ret i64 %x\n}\n",
            &SatOptions::default(),
        );
        assert_eq!(r.result, BlastResult::Proved);
        // The peephole folds collapse both sides to identical literals, so
        // the proof closes with variables but no search clauses at all.
        assert!(r.vars > 0);
    }

    #[test]
    fn proves_or_plus_and_is_add() {
        // (a | b) + (a & b) == a + b — a genuinely bit-level identity no
        // graph rule covers.
        let r = blast_pair(
            "define i32 @f(i32 %a, i32 %b) {\nentry:\n  %o = or i32 %a, %b\n  %n = and i32 %a, %b\n  %s = add i32 %o, %n\n  ret i32 %s\n}\n",
            "define i32 @f(i32 %a, i32 %b) {\nentry:\n  %s = add i32 %a, %b\n  ret i32 %s\n}\n",
            &SatOptions::default(),
        );
        assert_eq!(r.result, BlastResult::Proved);
        assert!(r.clauses > 0, "this one needs actual search");
    }

    #[test]
    fn refutes_sub_vs_add() {
        // a - 1 != a + 1 — SAT, with a decoded model that really differs.
        let r = blast_pair(
            "define i64 @f(i64 %a) {\nentry:\n  %x = sub i64 %a, 1\n  ret i64 %x\n}\n",
            "define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  ret i64 %x\n}\n",
            &SatOptions::default(),
        );
        match r.result {
            BlastResult::Model(args) => {
                assert_eq!(args.len(), 1);
                let a = args[0];
                assert_ne!(a.wrapping_sub(1), a.wrapping_add(1));
            }
            other => panic!("expected a model, got {other:?}"),
        }
    }

    #[test]
    fn unsigned_and_signed_compares_match_semantics() {
        // a <u b == (a ^ 0x80000000) <s (b ^ 0x80000000) — UNSAT.
        let r = blast_pair(
            "define i32 @f(i32 %a, i32 %b) {\nentry:\n  %c = icmp ult i32 %a, %b\n  %z = zext i1 %c to i32\n  ret i32 %z\n}\n",
            "define i32 @f(i32 %a, i32 %b) {\nentry:\n  %fa = xor i32 %a, 2147483648\n  %fb = xor i32 %b, 2147483648\n  %c = icmp slt i32 %fa, %fb\n  %z = zext i1 %c to i32\n  ret i32 %z\n}\n",
            &SatOptions::default(),
        );
        assert_eq!(r.result, BlastResult::Proved);
        // Signed: (a <s b) != (a <u b) in general — SAT.
        let r = blast_pair(
            "define i32 @f(i32 %a, i32 %b) {\nentry:\n  %c = icmp slt i32 %a, %b\n  %z = zext i1 %c to i32\n  ret i32 %z\n}\n",
            "define i32 @f(i32 %a, i32 %b) {\nentry:\n  %c = icmp ult i32 %a, %b\n  %z = zext i1 %c to i32\n  ret i32 %z\n}\n",
            &SatOptions::default(),
        );
        assert!(matches!(r.result, BlastResult::Model(_)), "got {:?}", r.result);
    }

    #[test]
    fn store_load_roundtrip_proves() {
        // Store then load through an alloca == the identity.
        let r = blast_pair(
            "define i64 @f(i64 %a) {\nentry:\n  %p = alloca 8, align 8\n  store i64 %a, ptr %p\n  %v = load i64, ptr %p\n  ret i64 %v\n}\n",
            "define i64 @f(i64 %a) {\nentry:\n  ret i64 %a\n}\n",
            &SatOptions::default(),
        );
        assert_eq!(r.result, BlastResult::Proved);
    }

    #[test]
    fn division_is_out_of_scope() {
        let r = blast_pair(
            "define i64 @f(i64 %a) {\nentry:\n  %x = udiv i64 %a, 3\n  ret i64 %x\n}\n",
            "define i64 @f(i64 %a) {\nentry:\n  %x = udiv i64 %a, 4\n  ret i64 %x\n}\n",
            &SatOptions::default(),
        );
        assert_eq!(r.result, BlastResult::Unsupported);
    }

    #[test]
    fn bounded_loop_unrolls_to_a_proof() {
        // for i in 0..4 { s += a } vs s = a*4 (shl 2): provable once the
        // trip-count-4 loop unrolls inside the default budget.
        let looped = "define i64 @f(i64 %a) {\nentry:\n  br label %head\nhead:\n  %i = phi i64 [ 0, %entry ], [ %i2, %body ]\n  %s = phi i64 [ 0, %entry ], [ %s2, %body ]\n  %c = icmp ult i64 %i, 4\n  br i1 %c, label %body, label %exit\nbody:\n  %s2 = add i64 %s, %a\n  %i2 = add i64 %i, 1\n  br label %head\nexit:\n  ret i64 %s\n}\n";
        let closed = "define i64 @f(i64 %a) {\nentry:\n  %x = shl i64 %a, 2\n  ret i64 %x\n}\n";
        let r = blast_pair(looped, closed, &SatOptions::default());
        assert_eq!(r.result, BlastResult::Proved);
        assert!(r.unrolled > 0, "the loop must actually unroll");
    }

    #[test]
    fn unroll_budget_cuts_to_a_residual_not_a_wrong_proof() {
        // Trip count 12 exceeds unroll 4: the stream is cut at a residual,
        // so the query must NOT prove (the residual can take any value) —
        // and must not refute with a bogus model either once replayed.
        let looped = "define i64 @f(i64 %a) {\nentry:\n  br label %head\nhead:\n  %i = phi i64 [ 0, %entry ], [ %i2, %body ]\n  %s = phi i64 [ 0, %entry ], [ %s2, %body ]\n  %c = icmp ult i64 %i, 12\n  br i1 %c, label %body, label %exit\nbody:\n  %s2 = add i64 %s, %a\n  %i2 = add i64 %i, 1\n  br label %head\nexit:\n  ret i64 %s\n}\n";
        let closed = "define i64 @f(i64 %a) {\nentry:\n  %x = mul i64 %a, 12\n  ret i64 %x\n}\n";
        let r = blast_pair(looped, closed, &SatOptions { unroll: 4, ..SatOptions::default() });
        assert!(r.residuals > 0, "the cut must be recorded");
        assert!(
            matches!(r.result, BlastResult::Model(_) | BlastResult::Capped),
            "an under-unrolled loop must not prove: {:?}",
            r.result
        );
    }

    #[test]
    fn global_initializer_reads_are_pinned() {
        // Loading a constant global's word == the literal constant.
        let orig = "@g = constant [2 x i64] [7, 9]\n\ndefine i64 @f() {\nentry:\n  %v = load i64, ptr @g\n  ret i64 %v\n}\n";
        let opt = "@g = constant [2 x i64] [7, 9]\n\ndefine i64 @f() {\nentry:\n  ret i64 7\n}\n";
        let r = blast_pair(orig, opt, &SatOptions::default());
        assert_eq!(r.result, BlastResult::Proved);
    }

    #[test]
    fn model_decoding_is_deterministic() {
        let run = || {
            blast_pair(
                "define i64 @f(i64 %a, i64 %b) {\nentry:\n  %x = xor i64 %a, %b\n  ret i64 %x\n}\n",
                "define i64 @f(i64 %a, i64 %b) {\nentry:\n  %x = or i64 %a, %b\n  ret i64 %x\n}\n",
                &SatOptions::default(),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.result, b.result);
        assert_eq!(a.solver, b.solver);
        assert_eq!((a.vars, a.clauses), (b.vars, b.clauses));
    }
}
