//! Cycle matching: proving μ-nodes (loops) equal.
//!
//! Hash-consing only merges acyclic structure; two loops that compute the
//! same stream are distinct μ-nodes until proven congruent. The paper (§5.4)
//! describes two techniques and reports that a *combination* works best:
//!
//! * **simple unification** — pick a pair of μ-nodes, assume they are equal,
//!   and trace their `(init, next)` pairs in parallel building a unifying
//!   substitution; if no contradiction arises, commit every assumed pair to
//!   the union-find (a coinductive proof: streams are equal if assuming
//!   equality of heads makes the tails equal);
//! * **Hopcroft partitioning** — automaton-minimization-style partition
//!   refinement: start with nodes grouped by operator shape, split classes
//!   whose members disagree on a child's class, and when the partition
//!   stabilizes merge all μ-nodes sharing a class.
//!
//! [`MatchStrategy::Combined`] runs unification first and falls back to
//! partitioning, mirroring the paper's default.

use crate::graph::SharedGraph;
use gated_ssa::node::{Node, NodeId};
use lir::intern::{IdMap, IdSet};

/// Which cycle-matching algorithm to use (§5.4 ablation).
///
/// # Example
///
/// μ-nodes are *nominal*: even two textually identical loops import as
/// distinct cycles, so without a matching strategy the validator cannot
/// prove a loop equal to itself — exactly the §5.4 ablation axis:
///
/// ```
/// use lir::parse::parse_module;
/// use llvm_md_core::{MatchStrategy, Validator};
///
/// let m = parse_module(
///     "define i64 @f(i64 %n) {\n\
///      entry:\n  br label %h\n\
///      h:\n  %i = phi i64 [ 0, %entry ], [ %i2, %b ]\n\
///      %c = icmp slt i64 %i, %n\n  br i1 %c, label %b, label %d\n\
///      b:\n  %i2 = add i64 %i, 1\n  br label %h\n\
///      d:\n  ret i64 %i\n\
///      }\n",
/// )?;
/// let f = &m.functions[0];
/// let with = |strategy| Validator { strategy, ..Validator::new() }.validate(f, f).validated;
/// assert!(!with(MatchStrategy::None), "no matching: even identity alarms");
/// assert!(with(MatchStrategy::Unification));
/// assert!(with(MatchStrategy::Partition));
/// assert!(with(MatchStrategy::Combined), "the paper's default");
/// # Ok::<(), lir::parse::ParseError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MatchStrategy {
    /// Pairwise speculative unification only.
    Unification,
    /// Partition refinement only.
    Partition,
    /// Unification, then partitioning if roots still differ (the paper's
    /// default, "slightly better than either technique alone").
    #[default]
    Combined,
    /// No cycle matching (for ablation).
    None,
}

/// Attempt to merge congruent μ-cycles. Returns the number of unions.
pub fn match_cycles(g: &mut SharedGraph, roots: &[NodeId], strategy: MatchStrategy) -> usize {
    match strategy {
        MatchStrategy::None => 0,
        MatchStrategy::Unification => unify_all(g, roots),
        MatchStrategy::Partition => partition_refine(g, roots),
        MatchStrategy::Combined => {
            let mut n = unify_all(g, roots);
            if n == 0 {
                n = partition_refine(g, roots);
            }
            n
        }
    }
}

/// Live μ representatives, smallest id first.
fn live_mus(g: &SharedGraph, roots: &[NodeId]) -> Vec<NodeId> {
    let live = g.live_set(roots);
    let mut mus = Vec::new();
    for (i, &l) in live.iter().enumerate() {
        if !l {
            continue;
        }
        let id = NodeId(i as u32);
        if g.find(id) == id && g.node(id).is_mu() {
            mus.push(id);
        }
    }
    mus
}

// ---------------------------------------------------------------------------
// Speculative unification.
// ---------------------------------------------------------------------------

/// Try to unify every (same-depth) pair of live μ-nodes. Returns unions made.
///
/// Each successful unification commits its assumed pairs and rebuilds at
/// once, so the next pair is tried over the merged graph. That rebuild is
/// an incremental repair: it re-files only the uses of the classes the
/// unification merged (see [`SharedGraph::rebuild`]), not the whole arena.
pub fn unify_all(g: &mut SharedGraph, roots: &[NodeId]) -> usize {
    let mut total = 0;
    loop {
        let mus = live_mus(g, roots);
        let mut merged_this_round = 0;
        'pairs: for i in 0..mus.len() {
            for j in (i + 1)..mus.len() {
                let (a, b) = (g.find(mus[i]), g.find(mus[j]));
                if a == b {
                    continue;
                }
                let (Node::Mu { depth: da, .. }, Node::Mu { depth: db, .. }) =
                    (g.node(a), g.node(b))
                else {
                    continue;
                };
                if da != db {
                    continue;
                }
                let mut assumed: Vec<(NodeId, NodeId)> = Vec::new();
                if unify(g, a, b, &mut assumed, &mut 0) {
                    for (x, y) in assumed {
                        if g.union(x, y) {
                            merged_this_round += 1;
                        }
                    }
                    g.rebuild();
                    break 'pairs; // ids changed; recompute the candidate list
                }
            }
        }
        total += merged_this_round;
        if merged_this_round == 0 {
            return total;
        }
    }
}

/// Coinductive structural unification of `a` and `b` under `assumed` pairs.
fn unify(
    g: &SharedGraph,
    a: NodeId,
    b: NodeId,
    assumed: &mut Vec<(NodeId, NodeId)>,
    steps: &mut u32,
) -> bool {
    let (a, b) = (g.find(a), g.find(b));
    if a == b {
        return true;
    }
    if assumed.iter().any(|&(x, y)| (x == a && y == b) || (x == b && y == a)) {
        return true;
    }
    *steps += 1;
    if *steps > 4096 {
        return false;
    }
    let (na, nb) = (g.resolve(a), g.resolve(b));
    // Only μ pairs may be assumed equal (they are the cycle cutpoints);
    // everything else must match structurally.
    match (&na, &nb) {
        (
            Node::Mu { depth: da, init: ia, next: xa },
            Node::Mu { depth: db, init: ib, next: xb },
        ) => {
            if da != db {
                return false;
            }
            assumed.push((a, b));
            let ok = unify(g, *ia, *ib, assumed, steps) && unify(g, *xa, *xb, assumed, steps);
            if !ok {
                // Roll back this speculation and everything it added.
                let pos = assumed.iter().position(|&(x, y)| x == a && y == b).unwrap();
                assumed.truncate(pos);
            }
            ok
        }
        // Operand order is canonicalized by node id, which is not stable
        // across the two sides: commutative operators and comparisons must
        // unify under either orientation.
        (Node::Bin(opa, tya, a1, a2), Node::Bin(opb, tyb, b1, b2))
            if opa == opb && tya == tyb && opa.is_commutative() =>
        {
            let before = assumed.len();
            if unify(g, *a1, *b1, assumed, steps) && unify(g, *a2, *b2, assumed, steps) {
                return true;
            }
            assumed.truncate(before);
            let ok = unify(g, *a1, *b2, assumed, steps) && unify(g, *a2, *b1, assumed, steps);
            if !ok {
                assumed.truncate(before);
            }
            ok
        }
        (Node::Icmp(pa, tya, a1, a2), Node::Icmp(pb, tyb, b1, b2)) if tya == tyb => {
            let before = assumed.len();
            if pa == pb && unify(g, *a1, *b1, assumed, steps) && unify(g, *a2, *b2, assumed, steps)
            {
                return true;
            }
            assumed.truncate(before);
            if *pa == pb.swapped() {
                let ok = unify(g, *a1, *b2, assumed, steps) && unify(g, *a2, *b1, assumed, steps);
                if ok {
                    return true;
                }
                assumed.truncate(before);
            }
            false
        }
        _ => {
            // Same operator with all parameters equal?
            let mut ka = na.clone();
            let mut kb = nb.clone();
            ka.map_children(|_| NodeId(0));
            kb.map_children(|_| NodeId(0));
            if ka != kb {
                return false;
            }
            let ca = na.children();
            let cb = nb.children();
            if ca.len() != cb.len() {
                return false;
            }
            let before = assumed.len();
            for (x, y) in ca.iter().zip(cb.iter()) {
                if !unify(g, *x, *y, assumed, steps) {
                    assumed.truncate(before);
                    return false;
                }
            }
            true
        }
    }
}

// ---------------------------------------------------------------------------
// Partition refinement.
// ---------------------------------------------------------------------------

/// Hopcroft-style partition refinement over the live graph; merges μ-nodes
/// (and by congruence their bodies, in the [`SharedGraph::rebuild`] that
/// follows) that land in the same stable class. Returns unions made.
///
/// Returns 0 as soon as no class of the current partition holds two live
/// μs, before refining further: refinement only splits classes, so those
/// μs can never end up sharing one. With fewer than two live μs that is
/// before the first pass, which keeps a long straight-line graph from
/// paying one whole-graph pass per level of depth for nothing.
pub fn partition_refine(g: &mut SharedGraph, roots: &[NodeId]) -> usize {
    let live = g.live_set(roots);
    let nodes: Vec<NodeId> = (0..live.len())
        .filter(|&i| live[i] && g.find(NodeId(i as u32)) == NodeId(i as u32))
        .map(|i| NodeId(i as u32))
        .collect();
    // Positions of the live μs in `nodes`.
    let mus: Vec<usize> = (0..nodes.len()).filter(|&i| g.node(nodes[i]).is_mu()).collect();
    if mus.len() < 2 {
        return 0;
    }
    let index: IdMap<NodeId, usize> =
        nodes.iter().copied().enumerate().map(|(i, n)| (n, i)).collect();
    let pred_rank = |p: lir::inst::IcmpPred| -> u32 {
        lir::inst::IcmpPred::ALL.iter().position(|&q| q == p).expect("known pred") as u32
    };
    // Initial classes: operator shape with child slots wiped. Node-id-based
    // operand order is not stable across the two functions, so comparisons
    // enter with an orientation-free shape.
    let mut class: Vec<u32> = Vec::with_capacity(nodes.len());
    {
        let mut shape_ids: IdMap<Node, u32> = IdMap::default();
        for &n in &nodes {
            let mut shape = g.resolve(n);
            if let Node::Icmp(pred, _, _, _) = &mut shape {
                *pred = (*pred).min(pred.swapped());
            }
            shape.map_children(|_| NodeId(0));
            let next = shape_ids.len() as u32;
            let id = *shape_ids.entry(shape).or_insert(next);
            class.push(id);
        }
    }
    // Refine until stable: key = (own class, orientation-canonical children
    // classes).
    loop {
        let mut seen = IdSet::default();
        if mus.iter().all(|&i| seen.insert(class[i])) {
            return 0;
        }
        let mut keys: IdMap<(u32, Vec<u32>), u32> = IdMap::default();
        let mut next_class: Vec<u32> = Vec::with_capacity(nodes.len());
        for (i, &n) in nodes.iter().enumerate() {
            let mut child_classes = Vec::new();
            let resolved = g.resolve(n);
            // φ branches are order-canonical already (resolve sorts them);
            // classes follow that order.
            resolved.for_each_child(|c| {
                let c = g.find(c);
                child_classes.push(index.get(&c).map_or(u32::MAX, |&ci| class[ci]));
            });
            match &resolved {
                Node::Bin(op, ..) if op.is_commutative() => child_classes.sort_unstable(),
                Node::Icmp(pred, ..) => {
                    let fwd = (pred_rank(*pred), child_classes[0], child_classes[1]);
                    let rev = (pred_rank(pred.swapped()), child_classes[1], child_classes[0]);
                    let (r, c1, c2) = fwd.min(rev);
                    child_classes = vec![r, c1, c2];
                }
                _ => {}
            }
            let key = (class[i], child_classes);
            let fresh = keys.len() as u32;
            let id = *keys.entry(key).or_insert(fresh);
            next_class.push(id);
        }
        let stable = next_class == class;
        class = next_class;
        if stable {
            break;
        }
    }
    // Merge μs per class (congruence closure then merges their bodies).
    let mut by_class: IdMap<u32, Vec<NodeId>> = IdMap::default();
    for (i, &n) in nodes.iter().enumerate() {
        if g.node(n).is_mu() {
            by_class.entry(class[i]).or_default().push(n);
        }
    }
    let mut merged = 0;
    for (_, group) in by_class {
        for pair in group.windows(2) {
            if g.union(pair[0], pair[1]) {
                merged += 1;
            }
        }
    }
    if merged > 0 {
        g.rebuild();
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::inst::BinOp;
    use lir::types::Ty;
    use lir::value::Constant;

    /// Build `μ(k0, μ + k1)` — a counting loop.
    fn counter(g: &mut SharedGraph, k0: i64, k1: i64) -> NodeId {
        let init = g.add(Node::Const(Constant::int(Ty::I64, k0)));
        let step = g.add(Node::Const(Constant::int(Ty::I64, k1)));
        let mu = g.new_mu(1, init, None);
        let next = g.add(Node::Bin(BinOp::Add, Ty::I64, mu, step));
        g.patch_mu(mu, next);
        mu
    }

    #[test]
    fn unification_merges_identical_counters() {
        let mut g = SharedGraph::new();
        let a = counter(&mut g, 0, 1);
        let b = counter(&mut g, 0, 1);
        assert!(!g.same(a, b));
        let n = match_cycles(&mut g, &[a, b], MatchStrategy::Unification);
        assert!(n > 0);
        assert!(g.same(a, b));
    }

    #[test]
    fn unification_rejects_different_counters() {
        let mut g = SharedGraph::new();
        let a = counter(&mut g, 0, 1);
        let b = counter(&mut g, 0, 2);
        let _ = match_cycles(&mut g, &[a, b], MatchStrategy::Unification);
        assert!(!g.same(a, b), "different steps must not merge");
        let c = counter(&mut g, 1, 1);
        let _ = match_cycles(&mut g, &[a, c], MatchStrategy::Unification);
        assert!(!g.same(a, c), "different inits must not merge");
    }

    #[test]
    fn partitioning_merges_identical_counters() {
        let mut g = SharedGraph::new();
        let a = counter(&mut g, 0, 1);
        let b = counter(&mut g, 0, 1);
        let n = match_cycles(&mut g, &[a, b], MatchStrategy::Partition);
        assert!(n > 0);
        assert!(g.same(a, b));
    }

    #[test]
    fn partitioning_keeps_distinct_loops_apart() {
        let mut g = SharedGraph::new();
        let a = counter(&mut g, 0, 1);
        let b = counter(&mut g, 0, 2);
        let _ = match_cycles(&mut g, &[a, b], MatchStrategy::Partition);
        assert!(!g.same(a, b));
    }

    /// Mutually entangled cycles: x = μ(0, y+1), y = μ(0, x+1) vs a single
    /// self-cycle z = μ(0, z+1). Partitioning proves all three equal (they
    /// generate the same stream); pairwise unification also works since the
    /// assumption set carries (x,z) and (y,z).
    #[test]
    fn entangled_cycles_merge() {
        let mut g = SharedGraph::new();
        let zero = g.add(Node::Const(Constant::int(Ty::I64, 0)));
        let one = g.add(Node::Const(Constant::int(Ty::I64, 1)));
        let x = g.new_mu(1, zero, None);
        let y = g.new_mu(1, zero, None);
        let xp = g.add(Node::Bin(BinOp::Add, Ty::I64, y, one));
        let yp = g.add(Node::Bin(BinOp::Add, Ty::I64, x, one));
        g.patch_mu(x, xp);
        g.patch_mu(y, yp);
        let z = counter(&mut g, 0, 1);
        let n = match_cycles(&mut g, &[x, z], MatchStrategy::Combined);
        assert!(n > 0);
        assert!(g.same(x, z), "{} vs {}", g.display(x), g.display(z));
    }

    #[test]
    fn none_strategy_does_nothing() {
        let mut g = SharedGraph::new();
        let a = counter(&mut g, 0, 1);
        let b = counter(&mut g, 0, 1);
        assert_eq!(match_cycles(&mut g, &[a, b], MatchStrategy::None), 0);
        assert!(!g.same(a, b));
    }
}
