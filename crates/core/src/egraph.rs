//! Equality saturation over the shared value graph — the e-graph engine.
//!
//! The destructive engine ([`crate::rules::apply_rules`]) is
//! application-order sensitive: `replace(old, new)` makes the rewritten
//! structure canonical and the old redex invisible, so an early rewrite can
//! destroy the exact structure a later rule needed. This module applies the
//! *same* rule catalogue non-destructively: a match on any e-class member
//! `union`s the result into the class instead of replacing it, every proven
//! form stays enumerable, and congruence closure ([`SharedGraph::rebuild`])
//! propagates the equalities upward until a fixpoint. Order sensitivity
//! disappears because no application can lose information.
//!
//! The e-graph is the existing [`SharedGraph`] read class-wise:
//!
//! - an **e-class** is a union-find class; its **e-nodes** are the arena
//!   entries in that class, each resolved over canonical child classes
//!   ([`SharedGraph::resolve_at`]);
//! - **matching** enumerates every live non-μ member as a rewrite target and
//!   exposes child classes to the memory rules via the member-level
//!   `rules::ClassView::Members` (crate-private);
//! - **μ-nodes stay nominal**: they are never matching targets, exactly the
//!   invariant `ValueGraph` enforces — μ classes merge only through the
//!   cycle matcher's speculative unification and congruence rebuilds;
//! - **constants stay visible**: after each rebuild, any class containing a
//!   `Const` member is rerooted onto it ([`SharedGraph::reroot`]), so the
//!   representative-reading constant predicates of the rule catalogue see
//!   through classes that merely *contain* a constant.
//!
//! Termination is a fixpoint (an iteration with zero unions and zero cycle
//! merges) or a budget cap ([`SaturationLimits`], the validator's
//! [`crate::validate::Limits`], and the shared [`Deadline`]) — saturation
//! can be slow, never unbounded.
//!
//! Each iteration re-reads the whole arena several times, so the
//! per-member work is kept free of allocation where that changes nothing:
//!
//! - the class → members view is one `MemberMap`, a single list of
//!   every node grouped by class and refilled in place, not one `Vec` per
//!   class per iteration;
//! - η pull-up, which looks for an η in each child class of every pure
//!   member, scans those classes with `ClassView::etas`, which resolves
//!   only the η members, in the order `ClassView::variants` lists them;
//! - the maps keyed by node ids hash with `lir::intern::WordHasher`
//!   (`IdMap`, `IdSet`) instead of SipHash.

use crate::cycles::match_cycles;
use crate::graph::SharedGraph;
use crate::rules::{self, ClassView, RuleCtx};
use crate::validate::{Deadline, ValidationStats, Validator};
use gated_ssa::node::{Node, NodeId};
use lir::intern::IdMap;

/// Budgets for one saturation run, charged on top of the validator's
/// [`crate::validate::Limits`] (whose node cap and deadline also apply).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SaturationLimits {
    /// Maximum match → union → rebuild iterations.
    pub max_iterations: usize,
    /// Maximum e-nodes (arena entries, including superseded ones).
    pub max_nodes: usize,
    /// Maximum e-classes.
    pub max_classes: usize,
}

impl Default for SaturationLimits {
    fn default() -> SaturationLimits {
        SaturationLimits { max_iterations: 32, max_nodes: 200_000, max_classes: 120_000 }
    }
}

/// What one saturation run did, surfaced in
/// [`crate::validate::ValidationStats`] and on the wire.
#[derive(Clone, Copy, Debug, Default, Eq)]
pub struct SaturationStats {
    /// Match → union → rebuild iterations executed.
    pub iterations: usize,
    /// Live e-classes when the run stopped.
    pub e_classes: usize,
    /// Live e-nodes (members of live classes) when the run stopped.
    pub e_nodes: usize,
    /// True when the run stopped on its own — a proof or a fixpoint — and
    /// false when a budget cap cut it short.
    pub saturated: bool,
}

/// How a saturation run ended.
pub(crate) enum Outcome {
    /// The goal roots merged.
    Proved,
    /// Fixpoint (no unions, no cycle merges) with the goal roots distinct.
    Saturated,
    /// A budget cap fired first.
    Capped,
}

/// Run equality saturation on `g` until `equal` holds, a fixpoint is
/// reached, or a budget cap fires. Rewrite, cycle-merge, and round counters
/// accumulate into `stats` (shared with any destructive pass that ran
/// first); the saturation-specific counters land in `stats.saturation`.
pub(crate) fn saturate(
    g: &mut SharedGraph,
    roots: &[NodeId],
    equal: &impl Fn(&SharedGraph) -> bool,
    v: &Validator,
    deadline: &Deadline,
    stats: &mut ValidationStats,
) -> Outcome {
    let mut iterations = 0usize;
    let mut hits: Vec<(NodeId, rules::Group)> = Vec::new();
    // Unions performed by the last full matching pass — starts at
    // "unknown" so the first pass always runs.
    let mut unions = usize::MAX;
    let mut members = MemberMap::default();
    loop {
        let mut merged = g.rebuild();
        while congruence_members(g) > 0 {
            g.rebuild();
            merged = true;
        }
        promote_consts(g);
        g.reintern();
        members.fill(g);
        if equal(g) {
            stats.saturation = Some(snapshot(g, roots, iterations, true));
            return Outcome::Proved;
        }
        // Fixpoint: a full matching pass performed no union and closure
        // found no congruence, so no new equality or structure is
        // derivable. (Re-deriving an existing form is not a union: `add`
        // hash-conses against the re-interned table, so `find` already
        // agrees and the hit is skipped below.)
        if !merged && unions == 0 {
            let cyc = match_cycles(g, roots, v.strategy);
            stats.cycle_merges += cyc;
            if cyc == 0 {
                stats.saturation = Some(snapshot(g, roots, iterations, true));
                return Outcome::Saturated;
            }
            unions = cyc;
            continue;
        }
        if iterations >= v.saturation.max_iterations
            || g.len() >= v.limits.max_nodes
            || g.len() >= v.saturation.max_nodes
            || members.classes() >= v.saturation.max_classes
            || deadline.expired()
        {
            stats.saturation = Some(snapshot(g, roots, iterations, false));
            return Outcome::Capped;
        }
        iterations += 1;
        stats.rounds += 1;
        let live = live_members(g, &members, roots);
        let (esc, dead) = rules::sweep_analyses(g, &live);
        let cx =
            RuleCtx { rules: &v.rules, esc: &esc, dead: &dead, view: ClassView::Members(&members) };
        unions = 0;
        // Every live member in ascending id order is a matching target —
        // except μs, which stay nominal. Nodes the rules add are past
        // `live.len()` and get their turn next iteration.
        for (i, &is_live) in live.iter().enumerate() {
            if !is_live {
                continue;
            }
            let id = NodeId(i as u32);
            let n = g.resolve_at(id);
            if n.is_mu() {
                continue;
            }
            hits.clear();
            rules::rewrite_all(g, &n, &cx, &mut hits);
            for &(new, group) in hits.iter() {
                if g.union(id, new) {
                    unions += 1;
                    stats.rewrites.bump(group);
                }
            }
        }
    }
}

/// Member-level congruence: merge classes whenever any two members (μs
/// included) have identical resolved structure. [`SharedGraph::rebuild`]
/// does this for representatives only; extending it to members is the same
/// policy — the same operator over the same child classes — and is what
/// lets a freshly cloned μ collapse into the class that already holds its
/// twin instead of re-appearing every iteration.
fn congruence_members(g: &mut SharedGraph) -> usize {
    let mut seen: IdMap<Node, NodeId> = IdMap::default();
    let mut merged = 0;
    for i in 0..g.len() {
        let id = NodeId(i as u32);
        let key = g.resolve_at(id);
        if let Some(&prev) = seen.get(&key) {
            if g.union(prev, id) {
                merged += 1;
            }
        } else {
            seen.insert(key, id);
        }
    }
    merged
}

/// Reroot every class containing a `Const` member onto that member, so the
/// rule catalogue's representative-reading constant predicates see it.
/// Ascending scan: deterministic, and a class already rerooted (or whose
/// representative is a constant) is skipped.
fn promote_consts(g: &mut SharedGraph) {
    for i in 0..g.len() {
        let id = NodeId(i as u32);
        if !matches!(g.node(id), Node::Const(_)) {
            continue;
        }
        let rep = g.find(id);
        if matches!(g.node(rep), Node::Const(_)) {
            continue;
        }
        g.reroot(id);
    }
}

/// Representative → ascending member ids, over the arena as it stood at
/// the last [`MemberMap::fill`]: one dense list of every node grouped by
/// class and sliced per representative, so a refill reuses three buffers
/// instead of allocating one list per class.
#[derive(Debug, Default)]
pub(crate) struct MemberMap {
    /// `ids[start[r]..start[r + 1]]` are the members of representative
    /// `r`; the range is empty for a node that is not one.
    start: Vec<u32>,
    /// Every node id, grouped by representative and ascending per group.
    ids: Vec<NodeId>,
    /// Scratch: each node's representative.
    reps: Vec<NodeId>,
    /// Number of classes (representatives).
    classes: usize,
}

impl MemberMap {
    /// Re-group the whole arena of `g` by representative.
    pub(crate) fn fill(&mut self, g: &SharedGraph) {
        let n = g.len();
        self.reps.clear();
        self.reps.extend((0..n).map(|i| g.find(NodeId(i as u32))));
        self.start.clear();
        self.start.resize(n + 1, 0);
        for r in &self.reps {
            self.start[r.index() + 1] += 1;
        }
        self.classes = 0;
        for i in 0..n {
            self.classes += usize::from(self.reps[i].index() == i);
            self.start[i + 1] += self.start[i];
        }
        // Place the nodes in id order, using `start[r]` as class `r`'s
        // cursor. Each cursor ends at the next class's start, so shifting
        // `start` right by one restores it.
        self.ids.clear();
        self.ids.resize(n, NodeId(0));
        for (i, r) in self.reps.iter().enumerate() {
            let cursor = &mut self.start[r.index()];
            self.ids[*cursor as usize] = NodeId(i as u32);
            *cursor += 1;
        }
        self.start.rotate_right(1);
        self.start[0] = 0;
    }

    /// The members of the class whose representative was `rep`, ascending;
    /// empty for a node that was no representative or did not exist yet.
    pub(crate) fn of(&self, rep: NodeId) -> &[NodeId] {
        match (self.start.get(rep.index()), self.start.get(rep.index() + 1)) {
            (Some(&a), Some(&b)) => &self.ids[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Number of classes.
    pub(crate) fn classes(&self) -> usize {
        self.classes
    }
}

/// Class-closure liveness: a class is live when any member of a live class
/// reaches it, and *all* members of a live class are live. A superset of
/// [`SharedGraph::live_set`] (which follows representatives only), so the
/// per-sweep analyses (escapes, dead allocas) stay conservative.
fn live_members(g: &SharedGraph, members: &MemberMap, roots: &[NodeId]) -> Vec<bool> {
    let mut live = vec![false; g.len()];
    let mut stack: Vec<NodeId> = roots.iter().map(|&r| g.find(r)).collect();
    while let Some(class) = stack.pop() {
        if live[class.index()] {
            continue;
        }
        for &m in members.of(class) {
            live[m.index()] = true;
            g.node(m).for_each_child(|c| {
                let c = g.find(c);
                if !live[c.index()] {
                    stack.push(c);
                }
            });
        }
    }
    live
}

/// Live-class statistics at the moment a run stops.
fn snapshot(
    g: &SharedGraph,
    roots: &[NodeId],
    iterations: usize,
    saturated: bool,
) -> SaturationStats {
    let mut members = MemberMap::default();
    members.fill(g);
    let live = live_members(g, &members, roots);
    let e_nodes = live.iter().filter(|&&b| b).count();
    let e_classes = live
        .iter()
        .enumerate()
        .filter(|&(i, &b)| b && g.find(NodeId(i as u32)) == NodeId(i as u32))
        .count();
    SaturationStats { iterations, e_classes, e_nodes, saturated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::inst::BinOp;
    use lir::types::Ty;
    use lir::value::Constant;

    #[test]
    fn const_members_become_representatives() {
        let mut g = SharedGraph::new();
        let three = g.add(Node::Const(Constant::int(Ty::I64, 3)));
        let sum = g.add(Node::Bin(BinOp::Add, Ty::I64, three, three));
        let six = g.add(Node::Const(Constant::int(Ty::I64, 6)));
        g.union(sum, six); // min-id policy leaves `sum` as representative
        assert!(!matches!(g.node(g.find(sum)), Node::Const(_)));
        promote_consts(&mut g);
        assert!(matches!(g.node(g.find(sum)), Node::Const(_)));
        assert!(g.same(sum, six), "promotion must not split the class");
    }

    #[test]
    fn saturation_proves_boolean_factoring_chain() {
        // (A∧B) ∨ (A∧¬B)  =  A ∧ (B∨¬B)  =  A ∧ true  =  A — three chained
        // saturation-only steps (factor, complement, identity).
        let mut g = SharedGraph::new();
        let a = g.add(Node::Param(0));
        let b = g.add(Node::Param(1));
        let t = g.add(Node::Const(Constant::bool(true)));
        let nb = g.add(Node::Bin(BinOp::Xor, Ty::I1, t, b));
        let ab = g.add(Node::Bin(BinOp::And, Ty::I1, a, b));
        let anb = g.add(Node::Bin(BinOp::And, Ty::I1, a, nb));
        let or = g.add(Node::Bin(BinOp::Or, Ty::I1, ab, anb));
        let roots = [a, or];
        let v = Validator { rules: crate::rules::RuleSet::full(), ..Validator::new() };
        let mut stats = ValidationStats::default();
        let outcome = saturate(
            &mut g,
            &roots,
            &|g: &SharedGraph| g.same(a, or),
            &v,
            &Deadline::starting_now(std::time::Duration::from_secs(5)),
            &mut stats,
        );
        assert!(matches!(outcome, Outcome::Proved), "chain did not close: {:?}", stats);
        assert!(g.same(a, or));
    }

    /// `ClassView::etas` against `variants` filtered to η, in order: the
    /// scan keeps congruent duplicates, `variants` lists each structure
    /// once, and with those dropped the two sequences agree.
    #[test]
    fn eta_scan_matches_the_eta_variants_in_order() {
        fn etas_of(variants: Vec<Node>) -> Vec<(u32, NodeId, NodeId)> {
            let eta = |n| match n {
                Node::Eta { depth, cond, val } => Some((depth, cond, val)),
                _ => None,
            };
            variants.into_iter().filter_map(eta).collect()
        }
        fn first_occurrences(xs: Vec<(u32, NodeId, NodeId)>) -> Vec<(u32, NodeId, NodeId)> {
            let mut out = Vec::new();
            for x in xs {
                if !out.contains(&x) {
                    out.push(x);
                }
            }
            out
        }
        let mut g = SharedGraph::new();
        let p0 = g.add(Node::Param(0));
        let p1 = g.add(Node::Param(1));
        let c = g.add(Node::Param(2));
        let p3 = g.add(Node::Param(3));
        // A class whose representative (lowest id) is not an η, with three
        // η members; `twin` resolves like `e1` once p3 joins p0.
        let sum = g.add(Node::Bin(BinOp::Add, Ty::I64, p0, p1));
        let e1 = g.add(Node::Eta { depth: 1, cond: c, val: p0 });
        let twin = g.add(Node::Eta { depth: 1, cond: c, val: p3 });
        let e2 = g.add(Node::Eta { depth: 1, cond: c, val: p1 });
        // A class whose representative is an η.
        let e3 = g.add(Node::Eta { depth: 2, cond: c, val: p1 });
        let other = g.add(Node::Bin(BinOp::Mul, Ty::I64, p0, p1));
        g.union(p0, p3);
        for m in [e1, twin, e2] {
            g.union(sum, m);
        }
        g.union(e3, other);
        assert_eq!(g.resolve_at(twin), g.resolve_at(e1), "twin is congruent to e1");
        let mut members = MemberMap::default();
        members.fill(&g);
        let view = ClassView::Members(&members);
        for id in [sum, e1, e2, e3, other, p0] {
            let scan: Vec<_> = view.etas(&g, id).collect();
            assert_eq!(first_occurrences(scan.clone()), etas_of(view.variants(&g, id)), "{id:?}");
            let rep_scan: Vec<_> = ClassView::Rep.etas(&g, id).collect();
            assert_eq!(rep_scan, etas_of(ClassView::Rep.variants(&g, id)), "{id:?}");
        }
        let scan: Vec<_> = view.etas(&g, e2).collect();
        assert_eq!(scan, [(1, c, p0), (1, c, p0), (1, c, p1)], "members in ascending id order");
        assert_eq!(
            view.etas(&g, other).next(),
            Some((2, c, p1)),
            "an η representative comes first"
        );
        assert_eq!(ClassView::Rep.etas(&g, sum).next(), None, "Rep sees the representative only");
    }

    #[test]
    fn live_members_marks_whole_classes() {
        let mut g = SharedGraph::new();
        let a = g.add(Node::Param(0));
        let b = g.add(Node::Param(1));
        let sum = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
        let c = g.add(Node::Param(2));
        let prod = g.add(Node::Bin(BinOp::Mul, Ty::I64, a, c));
        g.union(sum, prod); // class {sum, prod}; prod's child c only via member
        let mut members = MemberMap::default();
        members.fill(&g);
        let live = live_members(&g, &members, &[sum]);
        assert!(live[sum.index()] && live[prod.index()]);
        assert!(live[c.index()], "member children are live");
        let rep_only = g.live_set(&[sum]);
        assert!(!rep_only[c.index()], "representative-only liveness misses c");
    }
}
