//! Tier-2 decision engine: a zero-dependency CDCL SAT solver.
//!
//! The value-graph tiers (destructive rewriting, e-graph saturation) are
//! deliberately incomplete: a `RootsDiffer` fixpoint means "my rules cannot
//! prove these equal", not "these differ". This module supplies the
//! *complete* (within budgets) decision procedure underneath:
//! [`crate::bitblast`] lowers the normalized fixpoint graph to CNF over
//! fixed-width symbolic inputs, and the [`Solver`] here decides it —
//! **UNSAT of "the return roots differ" is a bit-precise equivalence
//! proof**, a satisfying model is a candidate counterexample the triage
//! interpreter replays.
//!
//! The solver is a classic conflict-driven clause-learning loop: unit
//! propagation over two watched literals per clause, first-UIP conflict
//! analysis with learned-clause assertion, VSIDS-style activity decision
//! ordering (ties broken by smallest variable index, so runs are exactly
//! reproducible), phase saving, and Luby-sequence restarts. There is no
//! randomization anywhere: given the same clauses in the same order the
//! search trace is identical on every run and at every worker count, which
//! is what lets [`SatStats`] participate in the driver's worker-count
//! determinism contract.
//!
//! Budgets mirror the tier-1 design: a conflict cap plus the shared
//! [`Deadline`] wall clock; exhausting either
//! returns [`SatResult::Unknown`] and the pair keeps its tier-1 verdict.

use crate::validate::Deadline;
use std::time::Duration;

/// A propositional literal: variable index plus sign. `Lit::pos(v)` is the
/// variable itself, `!Lit::pos(v)` (or [`Lit::neg`]) its negation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of variable `v`.
    pub fn pos(v: usize) -> Lit {
        Lit((v as u32) << 1)
    }

    /// The negative literal of variable `v`.
    pub fn neg(v: usize) -> Lit {
        Lit(((v as u32) << 1) | 1)
    }

    /// The literal's variable index.
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// True for negated literals.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index for per-literal tables (watch lists).
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_neg() {
            write!(f, "¬x{}", self.var())
        } else {
            write!(f, "x{}", self.var())
        }
    }
}

/// What a [`Solver::solve`] call decided.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable; the model assigns every variable (`model[v]` is the
    /// value of variable `v`).
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// A budget (conflict cap or deadline) expired before a decision.
    Unknown,
}

/// Search counters for one [`Solver::solve`] run.
#[derive(Clone, Copy, Debug, Default, Eq)]
pub struct SolverStats {
    /// Conflicts hit (and clauses learned from them).
    pub conflicts: u64,
    /// Decision literals tried.
    pub decisions: u64,
    /// Literals propagated by unit propagation.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learned clauses kept.
    pub learned: u64,
}

/// Reason-clause marker for decision/unassigned variables.
const NO_REASON: u32 = u32::MAX;
/// Restart interval unit (multiplied by the Luby sequence).
const RESTART_UNIT: u64 = 128;
/// How often (in conflicts) the wall clock is consulted.
const CLOCK_STRIDE: u64 = 256;

/// One clause in the arena (original or learned).
struct Clause {
    lits: Vec<Lit>,
}

/// A watch-list entry: the clause plus a cached "blocker" literal whose
/// truth satisfies the clause without walking it.
#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// A conflict-driven clause-learning SAT solver (see the [module
/// docs](self)).
///
/// ```
/// use llvm_md_core::sat::{Lit, SatResult, Solver};
///
/// let mut s = Solver::new(2);
/// s.add_clause(&[Lit::pos(0), Lit::pos(1)]); // x0 ∨ x1
/// s.add_clause(&[!Lit::pos(0)]); //            ¬x0
/// match s.solve(1_000, None) {
///     SatResult::Sat(model) => assert!(!model[0] && model[1]),
///     other => panic!("expected SAT, got {other:?}"),
/// }
/// ```
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watch>>,
    /// Per-variable assignment: `0` unassigned, `1` true, `-1` false.
    assign: Vec<i8>,
    /// Per-variable saved phase for decisions.
    phase: Vec<bool>,
    /// Per-variable decision level.
    level: Vec<u32>,
    /// Per-variable reason clause (`NO_REASON` for decisions).
    reason: Vec<u32>,
    /// Assignment trail, in propagation order.
    trail: Vec<Lit>,
    /// Trail length at each decision level.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    /// VSIDS-lite activity per variable.
    activity: Vec<f64>,
    /// Current activity increment.
    var_inc: f64,
    /// Binary max-heap of variables ordered by activity (ties: smaller
    /// index first), with lazy re-insertion after backtracking.
    heap: Vec<u32>,
    /// `heap_pos[v]` is `v`'s position in `heap`, or `usize::MAX`.
    heap_pos: Vec<usize>,
    /// Set when an empty clause was added: the instance is trivially UNSAT.
    unsat: bool,
    /// Original (non-learned) clause count, for [`Solver::num_clauses`].
    original: usize,
    stats: SolverStats,
    /// Scratch buffers for conflict analysis.
    seen: Vec<bool>,
}

impl Solver {
    /// A solver over `num_vars` variables (indices `0..num_vars`), with no
    /// clauses yet.
    pub fn new(num_vars: usize) -> Solver {
        let mut s = Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            unsat: false,
            original: 0,
            stats: SolverStats::default(),
            seen: Vec::new(),
        };
        s.grow_to(num_vars);
        s
    }

    /// Allocate a fresh variable, returning its index.
    pub fn new_var(&mut self) -> usize {
        let v = self.num_vars();
        self.grow_to(v + 1);
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of problem (non-learned) clauses kept.
    pub fn num_clauses(&self) -> usize {
        self.original
    }

    /// Counters from the last [`Solver::solve`] run.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    fn grow_to(&mut self, n: usize) {
        while self.assign.len() < n {
            let v = self.assign.len();
            self.assign.push(0);
            self.phase.push(false);
            self.level.push(0);
            self.reason.push(NO_REASON);
            self.activity.push(0.0);
            self.heap_pos.push(usize::MAX);
            self.seen.push(false);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
            self.heap_insert(v as u32);
        }
    }

    /// Truth value of `lit` under the current assignment: `1` true, `-1`
    /// false, `0` unassigned.
    fn value(&self, lit: Lit) -> i8 {
        let a = self.assign[lit.var()];
        if lit.is_neg() {
            -a
        } else {
            a
        }
    }

    /// Add one clause. Duplicate literals are removed, tautologies are
    /// dropped, the empty clause marks the instance UNSAT. Clauses must be
    /// added before [`Solver::solve`] (the solver is single-shot, not
    /// incremental).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert!(self.trail_lim.is_empty(), "clauses are added before solving");
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort();
        c.dedup();
        if c.windows(2).any(|w| w[0] == !w[1]) {
            return; // tautology
        }
        // Drop root-level-false literals; satisfied-at-root clauses vanish.
        if c.iter().any(|&l| self.value(l) == 1) {
            return;
        }
        c.retain(|&l| self.value(l) == 0);
        match c.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(c[0], NO_REASON) {
                    self.unsat = true;
                }
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watch(c[0], idx, c[1]);
                self.watch(c[1], idx, c[0]);
                self.clauses.push(Clause { lits: c });
                self.original += 1;
            }
        }
    }

    fn watch(&mut self, lit: Lit, clause: u32, blocker: Lit) {
        self.watches[(!lit).index()].push(Watch { clause, blocker });
    }

    /// Assign `lit` true with the given reason. False means `lit` was
    /// already false — a conflict the caller handles.
    fn enqueue(&mut self, lit: Lit, reason: u32) -> bool {
        match self.value(lit) {
            1 => true,
            -1 => false,
            _ => {
                let v = lit.var();
                self.assign[v] = if lit.is_neg() { -1 } else { 1 };
                self.phase[v] = !lit.is_neg();
                self.level[v] = self.trail_lim.len() as u32;
                self.reason[v] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Unit propagation from `qhead`; returns the conflicting clause index,
    /// if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[lit.index()]);
            let mut kept = 0;
            let mut conflict = None;
            'watches: for i in 0..ws.len() {
                let w = ws[i];
                if self.value(w.blocker) == 1 {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let ci = w.clause as usize;
                // The falsified literal must sit in slot 1.
                let false_lit = !lit;
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if self.value(first) == 1 {
                    ws[kept] = Watch { clause: w.clause, blocker: first };
                    kept += 1;
                    continue;
                }
                // Look for a non-false replacement watch.
                for k in 2..self.clauses[ci].lits.len() {
                    if self.value(self.clauses[ci].lits[k]) != -1 {
                        self.clauses[ci].lits.swap(1, k);
                        let new_watch = self.clauses[ci].lits[1];
                        self.watch(new_watch, w.clause, first);
                        continue 'watches;
                    }
                }
                // Unit or conflicting.
                ws[kept] = Watch { clause: w.clause, blocker: first };
                kept += 1;
                if !self.enqueue(first, w.clause) {
                    // Conflict: keep the remaining watches and bail.
                    for later in (i + 1)..ws.len() {
                        ws[kept] = ws[later];
                        kept += 1;
                    }
                    conflict = Some(w.clause);
                    break;
                }
            }
            ws.truncate(kept);
            debug_assert!(self.watches[lit.index()].is_empty());
            self.watches[lit.index()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis: returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![Lit::pos(0)]; // slot 0 = UIP, patched below
        let mut counter = 0usize;
        let mut lit: Option<Lit> = None;
        let mut idx = self.trail.len();
        let mut clause = confl;
        let current = self.trail_lim.len() as u32;
        loop {
            for j in 0..self.clauses[clause as usize].lits.len() {
                let q = self.clauses[clause as usize].lits[j];
                // Skip the propagated literal itself when walking its
                // reason clause.
                if lit == Some(q) {
                    continue;
                }
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Walk back to the next marked trail literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var()] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[p.var()] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = !p;
                break;
            }
            clause = self.reason[p.var()];
            debug_assert_ne!(clause, NO_REASON);
            lit = Some(p);
        }
        for &l in &learned[1..] {
            self.seen[l.var()] = false;
        }
        // Backtrack level: the highest level among the non-UIP literals.
        let bt = if learned.len() == 1 {
            0
        } else {
            // Move the deepest non-UIP literal into slot 1 (the second
            // watch must be the first to flip on backtrack).
            let mut max_i = 1;
            for i in 2..learned.len() {
                if self.level[learned[i].var()] > self.level[learned[max_i].var()] {
                    max_i = i;
                }
            }
            learned.swap(1, max_i);
            self.level[learned[1].var()]
        };
        (learned, bt)
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v as u32);
    }

    fn backtrack(&mut self, to_level: u32) {
        while self.trail_lim.len() as u32 > to_level {
            let lim = self.trail_lim.pop().expect("non-root level");
            while self.trail.len() > lim {
                let lit = self.trail.pop().expect("trail entries above the limit");
                let v = lit.var();
                self.assign[v] = 0;
                self.reason[v] = NO_REASON;
                self.heap_insert(v as u32);
            }
        }
        self.qhead = self.trail.len();
    }

    /// Pick the next decision literal: highest-activity unassigned
    /// variable, saved phase.
    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.assign[v as usize] == 0 {
                let v = v as usize;
                return Some(if self.phase[v] { Lit::pos(v) } else { Lit::neg(v) });
            }
        }
        None
    }

    /// Decide the instance: `Sat` with a full model, `Unsat`, or `Unknown`
    /// when `max_conflicts` or `deadline` runs out first. Deterministic:
    /// the same clauses produce the same result, model, and
    /// [`SolverStats`] every time.
    pub fn solve(&mut self, max_conflicts: u64, deadline: Option<&Deadline>) -> SatResult {
        self.stats = SolverStats::default();
        if self.unsat {
            return SatResult::Unsat;
        }
        if self.propagate().is_some() {
            return SatResult::Unsat;
        }
        let mut restart_no = 0u64;
        let mut next_restart = self.stats.conflicts + RESTART_UNIT * luby(restart_no);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.trail_lim.is_empty() {
                    return SatResult::Unsat;
                }
                let (learned, bt) = self.analyze(confl);
                self.backtrack(bt);
                let assert_lit = learned[0];
                let reason = if learned.len() == 1 {
                    NO_REASON
                } else {
                    let idx = self.clauses.len() as u32;
                    self.watch(learned[0], idx, learned[1]);
                    self.watch(learned[1], idx, learned[0]);
                    self.clauses.push(Clause { lits: learned });
                    self.stats.learned += 1;
                    idx
                };
                let ok = self.enqueue(assert_lit, reason);
                debug_assert!(ok, "asserting literal must be assignable after backtrack");
                self.decay();
                if self.stats.conflicts >= max_conflicts {
                    return SatResult::Unknown;
                }
                if self.stats.conflicts.is_multiple_of(CLOCK_STRIDE)
                    && deadline.is_some_and(|d| d.expired())
                {
                    return SatResult::Unknown;
                }
                if self.stats.conflicts >= next_restart {
                    self.stats.restarts += 1;
                    restart_no += 1;
                    next_restart = self.stats.conflicts + RESTART_UNIT * luby(restart_no);
                    self.backtrack(0);
                }
            } else {
                match self.decide() {
                    Some(lit) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(lit, NO_REASON);
                        debug_assert!(ok, "decision variable was unassigned");
                    }
                    None => {
                        let model = self.assign.iter().map(|&a| a == 1).collect();
                        return SatResult::Sat(model);
                    }
                }
            }
        }
    }

    fn decay(&mut self) {
        self.var_inc /= 0.95;
    }

    // ---- activity heap (max-heap; ties broken toward the smaller index,
    // ---- so decision order is fully deterministic) ----

    fn heap_less(&self, a: u32, b: u32) -> bool {
        let (aa, ab) = (self.activity[a as usize], self.activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn heap_insert(&mut self, v: u32) {
        if self.heap_pos[v as usize] != usize::MAX {
            return;
        }
        self.heap_pos[v as usize] = self.heap.len();
        self.heap.push(v);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_update(&mut self, v: u32) {
        let pos = self.heap_pos[v as usize];
        if pos != usize::MAX {
            self.heap_up(pos);
        }
    }

    fn heap_pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        self.heap_pos[top as usize] = usize::MAX;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_down(0);
        }
        Some(top)
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                self.heap_pos[self.heap[i] as usize] = i;
                self.heap_pos[self.heap[parent] as usize] = parent;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                return;
            }
            self.heap.swap(i, best);
            self.heap_pos[self.heap[i] as usize] = i;
            self.heap_pos[self.heap[best] as usize] = best;
            i = best;
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …), 0-indexed.
fn luby(i: u64) -> u64 {
    // Find the smallest complete subsequence (length 2^seq − 1) containing
    // position i, then recurse into it (MiniSat's formulation).
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = i;
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Budgets for one tier-2 bit-precise query, covering both the encoder
/// (unroll depth, expansion cap) and the CDCL search (conflict cap, wall
/// clock).
///
/// ```
/// use llvm_md_core::sat::SatOptions;
///
/// // Deeper unrolling for loop-heavy code, tighter search budget:
/// let opts = SatOptions { unroll: 16, max_conflicts: 50_000, ..SatOptions::default() };
/// assert!(opts.unroll > SatOptions::default().unroll);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SatOptions {
    /// Iterations each loop is unrolled before the stream is cut at a
    /// residual (an unconstrained value standing for "every later
    /// iteration"). Proofs remain sound at any depth; deeper unrolling only
    /// makes more of them go through.
    pub unroll: usize,
    /// Node cap for the expanded (μ/η-free) graph; expansion past the cap
    /// abandons the query as [`SatOutcome::Capped`].
    pub max_expanded: usize,
    /// CDCL conflict budget.
    pub max_conflicts: u64,
    /// Wall-clock budget for the whole tier-2 query (expansion, encoding
    /// and solving share one [`Deadline`]).
    pub max_time: Duration,
}

impl Default for SatOptions {
    fn default() -> SatOptions {
        SatOptions {
            unroll: 8,
            max_expanded: 100_000,
            max_conflicts: 200_000,
            max_time: Duration::from_secs(5),
        }
    }
}

/// Why a pair never reached the SAT encoder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatSkip {
    /// Triage already proved a real miscompilation (the witness replays);
    /// there is nothing left to decide.
    Classified,
    /// The tier-1 failure was not a `RootsDiffer` fixpoint (budget, gate or
    /// signature failures leave no normalized graph to encode).
    Reason,
    /// The observable-memory roots stayed distinct in tier 1. Memory
    /// divergence can involve externally visible call traces, which the
    /// encoding does not model, so only the return roots are in scope.
    MemoryRoots,
    /// The fixpoint graph contains an operation outside the encodable
    /// fragment (floating point, division with trap semantics, …).
    UnsupportedOp,
}

impl SatSkip {
    /// Stable lowercase name, used on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            SatSkip::Classified => "classified",
            SatSkip::Reason => "reason",
            SatSkip::MemoryRoots => "memory-roots",
            SatSkip::UnsupportedOp => "unsupported-op",
        }
    }
}

/// What the tier-2 query concluded for one pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatOutcome {
    /// UNSAT: no assignment of the symbolic inputs (and of every
    /// over-approximated unknown) makes the return roots differ — a
    /// bit-precise equivalence proof. The pair upgrades to
    /// `ProvedEquivalent`.
    Proved,
    /// SAT, and the decoded model replayed through the interpreter as a
    /// real divergence: the pair is a real miscompilation with a concrete
    /// witness.
    Refuted,
    /// SAT, but the model did not replay as a divergence — a spurious
    /// assignment of an over-approximated unknown (loop residual, external
    /// call). The tier-1 verdict stands.
    Inconclusive,
    /// A budget (expansion cap, conflict cap or deadline) ran out first.
    Capped,
    /// The pair was out of scope; the reason says why.
    Skipped(SatSkip),
}

impl SatOutcome {
    /// Stable lowercase name, used on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            SatOutcome::Proved => "proved",
            SatOutcome::Refuted => "refuted",
            SatOutcome::Inconclusive => "inconclusive",
            SatOutcome::Capped => "capped",
            SatOutcome::Skipped(_) => "skipped",
        }
    }
}

/// What one tier-2 query did, surfaced next to the triage verdict and on
/// the wire.
///
/// Equality ignores [`SatStats::duration`] (wall time is never
/// deterministic; the record's table in [`crate::wire`] marks it `timing`),
/// so the driver's worker-count determinism contract includes tier-2
/// results.
#[derive(Clone, Copy, Debug, Default)]
pub struct SatStats {
    /// The conclusion (`None` only for the default value; a run always
    /// sets it).
    pub outcome: Option<SatOutcome>,
    /// CNF variables in the encoded query.
    pub vars: usize,
    /// CNF clauses in the encoded query.
    pub clauses: usize,
    /// Loop iterations unrolled across both sides.
    pub unrolled: usize,
    /// Residual cuts (unconstrained unknowns) the expansion introduced.
    pub residuals: usize,
    /// CDCL search counters.
    pub solver: SolverStats,
    /// Wall-clock time the tier-2 query took (excluded from equality).
    pub duration: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x ∧ ¬x is UNSAT via root-level propagation.
    #[test]
    fn contradiction_is_unsat() {
        let mut s = Solver::new(1);
        s.add_clause(&[Lit::pos(0)]);
        s.add_clause(&[Lit::neg(0)]);
        assert_eq!(s.solve(1_000, None), SatResult::Unsat);
    }

    /// The empty clause is UNSAT immediately.
    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new(0);
        s.add_clause(&[]);
        assert_eq!(s.solve(1_000, None), SatResult::Unsat);
    }

    /// A satisfiable 3-CNF gets a model that satisfies every clause.
    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: Vec<Vec<Lit>> = vec![
            vec![Lit::pos(0), Lit::pos(1), Lit::neg(2)],
            vec![Lit::neg(0), Lit::pos(2), Lit::pos(3)],
            vec![Lit::neg(1), Lit::neg(3), Lit::pos(4)],
            vec![Lit::pos(2), Lit::neg(4), Lit::pos(5)],
            vec![Lit::neg(5), Lit::pos(0)],
        ];
        let mut s = Solver::new(6);
        for c in &clauses {
            s.add_clause(c);
        }
        match s.solve(10_000, None) {
            SatResult::Sat(m) => {
                for c in &clauses {
                    assert!(c.iter().any(|l| m[l.var()] != l.is_neg()), "model must satisfy {c:?}");
                }
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    /// Pigeonhole PHP(3,2): 3 pigeons in 2 holes, classically UNSAT and
    /// requires actual search + learning (not just propagation).
    #[test]
    fn pigeonhole_is_unsat() {
        // var p*2+h = "pigeon p in hole h".
        let mut s = Solver::new(6);
        for p in 0..3usize {
            s.add_clause(&[Lit::pos(p * 2), Lit::pos(p * 2 + 1)]);
        }
        for h in 0..2usize {
            for p1 in 0..3usize {
                for p2 in (p1 + 1)..3usize {
                    s.add_clause(&[Lit::neg(p1 * 2 + h), Lit::neg(p2 * 2 + h)]);
                }
            }
        }
        assert_eq!(s.solve(100_000, None), SatResult::Unsat);
        assert!(s.stats().conflicts > 0, "PHP needs search");
    }

    /// Budget exhaustion yields Unknown, not a wrong answer.
    #[test]
    fn conflict_budget_caps_the_search() {
        // PHP(6,5) is UNSAT but needs many conflicts; a 1-conflict budget
        // must give Unknown.
        let (pigeons, holes) = (6usize, 5usize);
        let mut s = Solver::new(pigeons * holes);
        for p in 0..pigeons {
            let c: Vec<Lit> = (0..holes).map(|h| Lit::pos(p * holes + h)).collect();
            s.add_clause(&c);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause(&[Lit::neg(p1 * holes + h), Lit::neg(p2 * holes + h)]);
                }
            }
        }
        assert_eq!(s.solve(1, None), SatResult::Unknown);
    }

    /// Tautologies and duplicate literals are cleaned up on add.
    #[test]
    fn tautologies_and_duplicates_are_dropped() {
        let mut s = Solver::new(2);
        s.add_clause(&[Lit::pos(0), Lit::neg(0)]); // tautology: dropped
        s.add_clause(&[Lit::pos(1), Lit::pos(1)]); // dedups to a unit
        assert_eq!(s.num_clauses(), 0, "neither clause is kept as a 2-watch clause");
        match s.solve(100, None) {
            SatResult::Sat(m) => assert!(m[1]),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    /// The same instance solved twice gives identical stats — the
    /// determinism contract.
    #[test]
    fn solving_is_deterministic() {
        let build = || {
            let mut s = Solver::new(8);
            for i in 0..7usize {
                s.add_clause(&[Lit::neg(i), Lit::pos(i + 1)]);
            }
            s.add_clause(&[Lit::pos(0), Lit::pos(4)]);
            s.add_clause(&[Lit::neg(7), Lit::neg(3)]);
            s
        };
        let mut a = build();
        let mut b = build();
        let ra = a.solve(10_000, None);
        let rb = b.solve(10_000, None);
        assert_eq!(ra, rb);
        assert_eq!(a.stats(), b.stats());
    }

    /// The Luby sequence starts 1,1,2,1,1,2,4,….
    #[test]
    fn luby_prefix() {
        let seq: Vec<u64> = (0..9).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1]);
    }
}
