//! The shared value graph: both functions' gated-SSA graphs merged into one
//! hash-consed structure with a union-find for rewrite-driven equalities.
//!
//! The validator's central data structure (paper §2): because both graphs
//! live in one arena with structural interning, equal subexpressions of the
//! original and the optimized function are *the same node*, and the final
//! equality check is `find(root₁) == find(root₂)` — constant time in the
//! best case.
//!
//! Rewrites record equalities in the union-find; [`SharedGraph::rebuild`]
//! then restores maximal sharing by re-interning every node with canonical
//! children until a fixpoint (congruence closure, the "maximize sharing"
//! step of §4). μ-nodes keep their nominal identity through rebuilds, but
//! two μs whose `(depth, init, next)` become identical are merged — this is
//! how the cycle matcher's speculative unions become permanent structural
//! equalities.

use gated_ssa::node::{node_hash, CalleeId, Interning, Node, NodeId, ValueGraph};
use gated_ssa::GatedFunction;
use lir::intern::{HashSlots, StrTab};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The arena-backed interner for [`SharedGraph`] ([`Interning::Fast`]).
///
/// Unlike the per-function `ValueGraph`, the shared graph cannot resolve
/// hash-table candidates against its node arena: [`SharedGraph::rebuild`]
/// interns `resolve(id)` keys (canonical children), which differ from the
/// possibly-stale arena entries, and pre-rebuild lookups must compare
/// against the key *as interned* — not a re-resolved one — to keep hit/miss
/// behavior (and therefore id assignment) byte-identical to the naive
/// `HashMap`. So this interner keeps its own key copies, contiguously, and
/// wins over the `HashMap` on hashing cost (one word per field vs SipHash)
/// and locality rather than on storage.
#[derive(Debug, Default)]
struct FastIntern {
    /// hash(key) → index into `keys`.
    slots: HashSlots,
    /// The interned `(key, id)` pairs in insertion order.
    keys: Vec<(Node, NodeId)>,
}

impl FastIntern {
    fn get(&self, node: &Node) -> Option<NodeId> {
        let keys = &self.keys;
        self.slots.get(node_hash(node), |i| keys[i as usize].0 == *node).map(|i| keys[i as usize].1)
    }

    fn insert(&mut self, node: Node, id: NodeId) {
        let h = node_hash(&node);
        let slot = self.keys.len() as u32;
        self.keys.push((node, id));
        self.slots.insert(h, slot);
    }

    fn get_or_insert(&mut self, node: Node, id: NodeId) -> Option<NodeId> {
        let h = node_hash(&node);
        let keys = &self.keys;
        if let Some(i) = self.slots.get(h, |i| keys[i as usize].0 == node) {
            return Some(keys[i as usize].1);
        }
        self.slots.insert(h, self.keys.len() as u32);
        self.keys.push((node, id));
        None
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.slots.clear();
    }
}

/// The interner behind [`SharedGraph::add`]/[`SharedGraph::rebuild`]: one
/// of the two [`Interning`] modes. Both implement the same node → id map,
/// so the modes build byte-identical graphs.
#[derive(Debug)]
enum InternMap {
    Fast(FastIntern),
    Naive(HashMap<Node, NodeId>),
}

impl InternMap {
    fn new(mode: Interning) -> InternMap {
        match mode {
            Interning::Fast => InternMap::Fast(FastIntern::default()),
            Interning::Naive => InternMap::Naive(HashMap::new()),
        }
    }

    fn get(&self, node: &Node) -> Option<NodeId> {
        match self {
            InternMap::Fast(t) => t.get(node),
            InternMap::Naive(m) => m.get(node).copied(),
        }
    }

    fn insert(&mut self, node: Node, id: NodeId) {
        match self {
            InternMap::Fast(t) => t.insert(node, id),
            InternMap::Naive(m) => {
                m.insert(node, id);
            }
        }
    }

    /// The id interned under `node`, or `None` after interning it as `id`:
    /// `get` then `insert` with one hash instead of two.
    fn get_or_insert(&mut self, node: Node, id: NodeId) -> Option<NodeId> {
        match self {
            InternMap::Fast(t) => t.get_or_insert(node, id),
            InternMap::Naive(m) => match m.entry(node) {
                Entry::Occupied(e) => Some(*e.get()),
                Entry::Vacant(e) => {
                    e.insert(id);
                    None
                }
            },
        }
    }

    fn clear(&mut self) {
        match self {
            InternMap::Fast(t) => t.clear(),
            InternMap::Naive(m) => m.clear(),
        }
    }
}

impl Default for InternMap {
    fn default() -> InternMap {
        InternMap::new(Interning::Fast)
    }
}

/// A merged, rewritable value graph for one validation query.
#[derive(Debug, Default)]
pub struct SharedGraph {
    nodes: Vec<Node>,
    parent: Vec<u32>,
    callees: StrTab,
    intern: InternMap,
    /// Set by a [`SharedGraph::rebuild`] that found nothing to do and
    /// cleared by every mutation that could give it work again; while set,
    /// `rebuild` is a no-op.
    clean: bool,
}

impl SharedGraph {
    /// An empty shared graph with the default ([`Interning::Fast`])
    /// interner.
    pub fn new() -> SharedGraph {
        SharedGraph::default()
    }

    /// An empty shared graph backed by the given interner mode. Both modes
    /// build byte-identical graphs (see [`Interning`]); the naive mode is
    /// the differential-testing oracle.
    pub fn with_interning(mode: Interning) -> SharedGraph {
        SharedGraph { intern: InternMap::new(mode), ..SharedGraph::default() }
    }

    /// Which interner mode backs this graph.
    pub fn interning(&self) -> Interning {
        match self.intern {
            InternMap::Fast(_) => Interning::Fast,
            InternMap::Naive(_) => Interning::Naive,
        }
    }

    /// Drop all nodes, equalities and callees, keeping the allocations
    /// (arena, union-find, interner, string table) for the next query.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.parent.clear();
        self.callees.clear();
        self.intern.clear();
        self.clean = false;
    }

    /// Number of nodes ever created (including superseded ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The (possibly stale) node stored for `id`. Use [`SharedGraph::resolve`]
    /// for a copy with canonical children.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The callee name for `id`.
    pub fn callee_name(&self, id: CalleeId) -> &str {
        self.callees.get(id.0)
    }

    /// Intern a callee name into the graph's string table.
    pub fn callee(&mut self, name: &str) -> CalleeId {
        CalleeId(self.callees.intern(name))
    }

    /// Canonical representative of `id`.
    pub fn find(&self, mut id: NodeId) -> NodeId {
        // Path-compression-free find (the structure is rebuilt each round;
        // chains stay short).
        while self.parent[id.index()] != id.0 {
            id = NodeId(self.parent[id.index()]);
        }
        id
    }

    /// Record that `a` and `b` denote the same value. The smaller id wins,
    /// keeping representatives stable and deterministic. Use this for
    /// *congruence* merges where both structures are interchangeable; a
    /// rewrite that replaces structure must use [`SharedGraph::replace`].
    pub fn union(&mut self, a: NodeId, b: NodeId) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi.index()] = lo.0;
        self.clean = false;
        true
    }

    /// Record that `old` rewrites to `new`: both denote the same value and
    /// `new`'s structure becomes the canonical one. This is the directed
    /// form used by normalization rules (`a ↓ b` in the paper).
    pub fn replace(&mut self, old: NodeId, new: NodeId) -> bool {
        let (ra, rb) = (self.find(old), self.find(new));
        if ra == rb {
            return false;
        }
        self.parent[ra.index()] = rb.0;
        self.clean = false;
        true
    }

    /// True if `a` and `b` are known equal.
    pub fn same(&self, a: NodeId, b: NodeId) -> bool {
        self.find(a) == self.find(b)
    }

    /// A copy of `id`'s node with all children replaced by canonical
    /// representatives, in canonical form: φ branches sorted and
    /// de-duplicated, commutative operands ordered, comparisons oriented.
    /// (GVN numbers `a+b` and `b+a` identically, so the graph must too for
    /// hash-consing to share them.)
    pub fn resolve(&self, id: NodeId) -> Node {
        self.resolve_at(self.find(id))
    }

    /// A copy of the node stored *at* `id` — not its class representative —
    /// with children canonicalized exactly as [`SharedGraph::resolve`] does.
    /// This is how the saturation engine views a non-representative e-class
    /// member: the member's own structure, over canonical child classes.
    pub fn resolve_at(&self, id: NodeId) -> Node {
        let mut n = self.nodes[id.index()].clone();
        n.map_children(|c| self.find(c));
        Self::canon_node(&mut n);
        n
    }

    /// Rebuild the structural intern table from every node's *current*
    /// resolved form — members included, first id wins.
    ///
    /// [`SharedGraph::rebuild`] interns representatives only, and
    /// [`SharedGraph::reroot`] changes which children are canonical without
    /// touching the table. The saturation engine calls this after rerooting
    /// so that re-deriving a structure that already exists anywhere in some
    /// class returns that class instead of minting a fresh node — otherwise
    /// every demoted rewrite product is re-created each iteration and the
    /// fixpoint is unreachable.
    pub fn reintern(&mut self) {
        self.intern.clear();
        self.clean = false;
        for i in 0..self.nodes.len() {
            let id = NodeId(i as u32);
            let n = self.resolve_at(id);
            if !n.is_mu() {
                self.intern.get_or_insert(n, id);
            }
        }
    }

    /// Make `member` the canonical representative of its e-class.
    ///
    /// Representatives are a *determinism policy* (min-id-wins in
    /// [`SharedGraph::union`]), not a correctness invariant; the saturation
    /// engine reroots classes onto a constant member so that constant-folding
    /// predicates (`as_const` and friends), which inspect representatives
    /// only, see through classes that merely *contain* a constant.
    pub fn reroot(&mut self, member: NodeId) {
        let root = self.find(member);
        if root == member {
            return;
        }
        // Order matters: detach `member` first so the old root's new parent
        // chain terminates instead of cycling back through `member`.
        self.parent[member.index()] = member.0;
        self.parent[root.index()] = member.0;
        self.clean = false;
    }

    /// Structural canonical form: φ branches sorted and de-duplicated,
    /// commutative operands ordered by id, comparisons oriented. Children
    /// must already be canonical representatives.
    fn canon_node(n: &mut Node) {
        match n {
            Node::Phi { branches } => {
                branches.sort_unstable();
                if branches.windows(2).any(|w| w[0] == w[1]) {
                    let mut bs = branches.to_vec();
                    bs.dedup();
                    *branches = bs.into_boxed_slice();
                }
            }
            Node::Bin(op, _, a, b) if op.is_commutative() && *a > *b => {
                std::mem::swap(a, b);
            }
            Node::Icmp(pred, _, a, b) if *a > *b => {
                std::mem::swap(a, b);
                *pred = pred.swapped();
            }
            _ => {}
        }
    }

    /// Add `node` (children must already be canonical or will be
    /// canonicalized), interning structurally. μ-nodes are *not* interned;
    /// use [`SharedGraph::new_mu`].
    ///
    /// A new node keeps a clean graph clean (see [`SharedGraph::rebuild`]):
    /// it missed a table that is exact for the current representatives,
    /// so a rebuild could not merge it with anything.
    pub fn add(&mut self, mut node: Node) -> NodeId {
        assert!(!node.is_mu(), "mu nodes are nominal; use new_mu");
        node.map_children(|c| self.find(c));
        Self::canon_node(&mut node);
        if let Some(id) = self.intern.get(&node) {
            return self.find(id);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.parent.push(id.0);
        self.intern.insert(node, id);
        id
    }

    /// Allocate a fresh nominal μ-node.
    pub fn new_mu(&mut self, depth: u32, init: NodeId, next: Option<NodeId>) -> NodeId {
        self.clean = false;
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Mu {
            depth,
            init: self.find(init),
            next: next.map_or(id, |n| self.find(n)),
        });
        self.parent.push(id.0);
        id
    }

    /// Patch the back edge of μ-node `mu`.
    pub fn patch_mu(&mut self, mu: NodeId, next_val: NodeId) {
        self.clean = false;
        let next_val = self.find(next_val);
        let slot = self.find(mu).index();
        match &mut self.nodes[slot] {
            Node::Mu { next, .. } => *next = next_val,
            n => panic!("patch_mu on non-mu node {}", n.opname()),
        }
    }

    /// Replace the initial value of μ-node `mu` (used when specializing
    /// loop cones).
    pub fn set_mu_init(&mut self, mu: NodeId, init_val: NodeId) {
        self.clean = false;
        let init_val = self.find(init_val);
        let slot = self.find(mu).index();
        match &mut self.nodes[slot] {
            Node::Mu { init, .. } => *init = init_val,
            n => panic!("set_mu_init on non-mu node {}", n.opname()),
        }
    }

    /// Import a per-function gated graph, returning a map from its node ids
    /// to ids in this graph. Hash-consing extends across imports: nodes of
    /// the second function re-use the first function's ids wherever the
    /// structure matches (the *shared* graph of paper §2).
    pub fn import(&mut self, gf: &GatedFunction) -> Vec<NodeId> {
        let g: &ValueGraph = &gf.graph;
        let mut map: Vec<NodeId> = Vec::with_capacity(g.len());
        let mut callee_map: HashMap<CalleeId, CalleeId> = HashMap::new();
        let mut mu_patches: Vec<(NodeId, NodeId)> = Vec::new(); // (our mu, their next)
        for (their_id, n) in g.iter() {
            let our = match n {
                Node::Mu { depth, init, next } => {
                    let mu = self.new_mu(*depth, map[init.index()], None);
                    mu_patches.push((mu, *next));
                    mu
                }
                _ => {
                    let mut copy = n.clone();
                    copy.map_children(|c| {
                        assert!(
                            c.index() < their_id.index() || g.node(c).is_mu(),
                            "forward edge to non-mu"
                        );
                        map[c.index()]
                    });
                    match &mut copy {
                        Node::CallPure { callee, .. }
                        | Node::CallVal { callee, .. }
                        | Node::CallMem { callee, .. } => {
                            let mapped = *callee_map
                                .entry(*callee)
                                .or_insert_with(|| self.callee(g.callee_name(*callee)));
                            *callee = mapped;
                        }
                        _ => {}
                    }
                    self.add(copy)
                }
            };
            map.push(our);
        }
        for (mu, their_next) in mu_patches {
            self.patch_mu(mu, map[their_next.index()]);
        }
        map
    }

    /// Restore maximal sharing: canonicalize every node's children and
    /// re-intern, merging nodes that become structurally identical, until a
    /// fixpoint. Degenerate μ-nodes (`next == μ` or `next == init`) collapse
    /// to their initial value — a constant stream *is* its value.
    ///
    /// Returns the number of unions performed.
    ///
    /// A rebuild whose last sweep neither changed nor counted anything
    /// marks the graph *clean*; until a mutation clears the mark (a
    /// merging [`union`](SharedGraph::union) or
    /// [`replace`](SharedGraph::replace), [`reroot`](SharedGraph::reroot),
    /// [`new_mu`](SharedGraph::new_mu), [`patch_mu`](SharedGraph::patch_mu),
    /// [`set_mu_init`](SharedGraph::set_mu_init),
    /// [`reintern`](SharedGraph::reintern) or
    /// [`reset`](SharedGraph::reset)), `rebuild` returns 0 at once. That
    /// skip is exact: a full sweep over an unchanged graph would repeat
    /// the last one, merge nothing and leave the same intern table.
    pub fn rebuild(&mut self) -> usize {
        if self.clean {
            return 0;
        }
        let mut merged = 0;
        loop {
            let before = merged;
            let mut changed = false;
            // Trivial μ collapse first: it can unlock congruences below.
            for i in 0..self.nodes.len() {
                let id = NodeId(i as u32);
                if self.find(id) != id {
                    continue;
                }
                if let Node::Mu { init, next, .. } = self.nodes[i] {
                    let (ri, rn) = (self.find(init), self.find(next));
                    if rn == id || rn == ri {
                        changed |= self.replace(id, ri);
                        merged += 1;
                    }
                }
            }
            // Congruence: nodes with identical canonical structure merge.
            self.intern.clear();
            for i in 0..self.nodes.len() {
                let id = NodeId(i as u32);
                if self.find(id) != id {
                    continue;
                }
                let key = self.resolve_at(id);
                if let Some(prev) = self.intern.get_or_insert(key, id) {
                    let prev = self.find(prev);
                    if prev != id {
                        self.union(prev, id);
                        merged += 1;
                        changed = true;
                    }
                }
            }
            if !changed {
                self.clean = merged == before;
                return merged;
            }
        }
    }

    /// The set of nodes reachable from `roots` through canonical children.
    pub fn live_set(&self, roots: &[NodeId]) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = roots.iter().map(|&r| self.find(r)).collect();
        while let Some(n) = stack.pop() {
            if live[n.index()] {
                continue;
            }
            live[n.index()] = true;
            self.nodes[n.index()].for_each_child(|c| {
                let c = self.find(c);
                if !live[c.index()] {
                    stack.push(c);
                }
            });
        }
        live
    }

    /// Live node count (for statistics).
    pub fn live_count(&self, roots: &[NodeId]) -> usize {
        self.live_set(roots).iter().filter(|&&b| b).count()
    }

    /// Render the canonical subgraph under `root` (cycles cut at μ).
    pub fn display(&self, root: NodeId) -> String {
        self.display_capped(root, usize::MAX)
    }

    /// [`SharedGraph::display`] bounded to roughly `cap` bytes: rendering
    /// stops descending once the output exceeds the cap and appends `…`.
    /// Used for failure evidence (divergent roots) where the *shape* of a
    /// term matters but an unbounded render of a large graph does not.
    pub fn display_capped(&self, root: NodeId, cap: usize) -> String {
        let mut out = String::new();
        let mut on_path = vec![false; self.nodes.len()];
        self.fmt_rec(self.find(root), &mut on_path, &mut out, cap);
        if out.len() > cap {
            out.truncate(cap);
            out.push('…');
        }
        out
    }

    fn fmt_rec(&self, id: NodeId, on_path: &mut Vec<bool>, out: &mut String, cap: usize) {
        use std::fmt::Write;
        if out.len() > cap {
            return;
        }
        let id = self.find(id);
        let n = self.node(id);
        if on_path[id.index()] {
            let _ = write!(out, "mu{}", id.0);
            return;
        }
        match n {
            Node::Param(i) => {
                let _ = write!(out, "p{i}");
            }
            Node::Const(c) => {
                let _ = write!(out, "{c}");
            }
            Node::GlobalAddr(g) => {
                let _ = write!(out, "g{}", g.0);
            }
            Node::InitMem => out.push_str("M0"),
            Node::InitAlloc => out.push_str("A0"),
            _ => {
                on_path[id.index()] = true;
                let _ = write!(out, "({}", n.opname());
                if n.is_mu() {
                    let _ = write!(out, "{}", id.0);
                }
                n.for_each_child(|c| {
                    out.push(' ');
                    self.fmt_rec(c, on_path, out, cap);
                });
                out.push(')');
                on_path[id.index()] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::inst::BinOp;
    use lir::types::Ty;
    use lir::value::Constant;

    fn leaf(g: &mut SharedGraph, i: u32) -> NodeId {
        g.add(Node::Param(i))
    }

    #[test]
    fn union_find_basics() {
        let mut g = SharedGraph::new();
        let a = leaf(&mut g, 0);
        let b = leaf(&mut g, 1);
        assert!(!g.same(a, b));
        assert!(g.union(a, b));
        assert!(g.same(a, b));
        assert!(!g.union(a, b), "already merged");
        assert_eq!(g.find(b), a, "smaller id is the representative");
    }

    #[test]
    fn congruence_closure_merges_parents() {
        let mut g = SharedGraph::new();
        let a = leaf(&mut g, 0);
        let b = leaf(&mut g, 1);
        let c = leaf(&mut g, 2);
        let ab = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
        let ac = g.add(Node::Bin(BinOp::Add, Ty::I64, a, c));
        assert!(!g.same(ab, ac));
        g.union(b, c);
        g.rebuild();
        assert!(g.same(ab, ac), "congruence: b=c implies a+b = a+c");
    }

    #[test]
    fn trivial_mu_collapses_on_rebuild() {
        let mut g = SharedGraph::new();
        let x = leaf(&mut g, 0);
        let mu = g.new_mu(1, x, None); // next defaults to self
        g.rebuild();
        assert!(g.same(mu, x));
        // mu(x, x) collapses too.
        let mu2 = g.new_mu(1, x, Some(x));
        g.rebuild();
        assert!(g.same(mu2, x));
    }

    #[test]
    fn identical_mu_structures_merge() {
        let mut g = SharedGraph::new();
        let zero = g.add(Node::Const(Constant::int(Ty::I64, 0)));
        let one = g.add(Node::Const(Constant::int(Ty::I64, 1)));
        let m1 = g.new_mu(1, zero, None);
        let n1 = g.add(Node::Bin(BinOp::Add, Ty::I64, m1, one));
        g.patch_mu(m1, n1);
        let m2 = g.new_mu(1, zero, None);
        let n2 = g.add(Node::Bin(BinOp::Add, Ty::I64, m2, one));
        g.patch_mu(m2, n2);
        assert!(!g.same(m1, m2), "nominal until proven equal");
        // The cycle matcher would union them; simulate it:
        g.union(m1, m2);
        g.rebuild();
        assert!(g.same(n1, n2), "bodies merge by congruence");
    }

    /// Leaves `a`, `b`, `c`, their sums `a+b` and `a+c`, and a loop
    /// `m = μ(0, m+1)`, rebuilt to a clean state.
    fn clean_graph() -> (SharedGraph, [NodeId; 6]) {
        let mut g = SharedGraph::new();
        let (a, b, c) = (leaf(&mut g, 0), leaf(&mut g, 1), leaf(&mut g, 2));
        let ab = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
        let ac = g.add(Node::Bin(BinOp::Add, Ty::I64, a, c));
        let zero = g.add(Node::Const(Constant::int(Ty::I64, 0)));
        let one = g.add(Node::Const(Constant::int(Ty::I64, 1)));
        let m = g.new_mu(1, zero, None);
        let next = g.add(Node::Bin(BinOp::Add, Ty::I64, m, one));
        g.patch_mu(m, next);
        g.rebuild();
        assert!(g.clean, "a rebuild that found nothing to do marks the graph clean");
        (g, [a, b, c, ab, ac, m])
    }

    #[test]
    fn clean_rebuild_is_skipped_until_a_mutation() {
        let (mut g, [a, b, _, ab, ..]) = clean_graph();
        assert_eq!(g.rebuild(), 0);
        // Neither a fresh node nor a no-op union gives a rebuild work.
        let p3 = leaf(&mut g, 3);
        g.add(Node::Bin(BinOp::Mul, Ty::I64, ab, p3));
        assert_eq!(g.add(Node::Bin(BinOp::Add, Ty::I64, b, a)), ab, "hit the exact table");
        assert!(!g.union(ab, ab));
        assert!(g.clean);
    }

    #[test]
    fn a_rebuild_that_counts_without_merging_stays_dirty() {
        // A μ whose initial value joined its own class, with the μ as the
        // representative, is counted by every sweep but merges nothing.
        // The skip must not hide that count from the next rebuild.
        let mut g = SharedGraph::new();
        let zero = g.add(Node::Const(Constant::int(Ty::I64, 0)));
        let m = g.new_mu(1, zero, None);
        let x = leaf(&mut g, 5);
        g.set_mu_init(m, x);
        g.union(m, x);
        assert_eq!(g.rebuild(), 1);
        assert!(!g.clean);
        assert_eq!(g.rebuild(), 1);
    }

    #[test]
    fn every_mutator_makes_the_next_rebuild_work() {
        type Mutator = fn(&mut SharedGraph, [NodeId; 6]);
        let mutators: [(&str, Mutator); 8] = [
            ("union", |g, [_, b, c, ..]| assert!(g.union(b, c))),
            ("replace", |g, [_, b, c, ..]| assert!(g.replace(c, b))),
            ("reroot", |g, [a, b, ..]| {
                g.union(a, b);
                g.rebuild();
                g.reroot(b);
            }),
            ("new_mu", |g, [a, ..]| {
                g.new_mu(1, a, None);
            }),
            ("patch_mu", |g, [.., m]| g.patch_mu(m, m)),
            ("set_mu_init", |g, [a, .., m]| g.set_mu_init(m, a)),
            ("reintern", |g, _| g.reintern()),
            ("reset", |g, _| g.reset()),
        ];
        for (name, mutate) in mutators {
            let (mut g, ids) = clean_graph();
            mutate(&mut g, ids);
            assert!(!g.clean, "{name} left the graph marked clean");
            g.rebuild();
            assert!(g.clean, "{name}: the following rebuild did not run to a fixpoint");
        }
    }

    #[test]
    fn rebuild_after_a_clean_one_still_merges() {
        // Union two leaves: their parents merge by congruence.
        let (mut g, [_, b, c, ab, ac, _]) = clean_graph();
        g.union(b, c);
        assert_eq!(g.rebuild(), 1);
        assert!(g.same(ab, ac));
        // A degenerate μ collapses to its initial value.
        let (mut g, [a, ..]) = clean_graph();
        let mu = g.new_mu(1, a, None);
        assert_eq!(g.rebuild(), 1);
        assert!(g.same(mu, a));
        // Closing the loop on itself makes the μ degenerate too.
        let (mut g, [.., m]) = clean_graph();
        g.patch_mu(m, m);
        assert!(g.rebuild() >= 1);
        assert!(matches!(g.resolve(m), Node::Const(_)));
        // `reintern` files member structures; the next rebuild must restore
        // the representatives-only table, so re-adding `a+b` after `a+b`
        // joined `a`'s class mints a node instead of finding the member.
        let (mut g, [a, b, _, ab, ..]) = clean_graph();
        g.union(a, ab);
        g.rebuild();
        g.reintern();
        assert_eq!(g.add(Node::Bin(BinOp::Add, Ty::I64, a, b)), a, "member filed by reintern");
        g.rebuild();
        let before = g.len();
        g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
        assert_eq!(g.len(), before + 1, "rebuild re-filed representatives only");
    }

    #[test]
    fn import_shares_across_functions() {
        use lir::parse::parse_module;
        let src = "define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 3\n  ret i64 %x\n}\n";
        let m = parse_module(src).unwrap();
        let gf1 = gated_ssa::build(&m.functions[0]).unwrap();
        let gf2 = gated_ssa::build(&m.functions[0]).unwrap();
        let mut g = SharedGraph::new();
        let map1 = g.import(&gf1);
        let before = g.len();
        let map2 = g.import(&gf2);
        assert_eq!(g.len(), before, "second import adds no nodes");
        assert_eq!(map1[gf1.ret.unwrap().index()], map2[gf2.ret.unwrap().index()]);
    }

    #[test]
    fn reroot_changes_representative_without_splitting_class() {
        let mut g = SharedGraph::new();
        let a = leaf(&mut g, 0);
        let b = leaf(&mut g, 1);
        let c = leaf(&mut g, 2);
        g.union(a, b);
        g.union(a, c);
        assert_eq!(g.find(c), a);
        g.reroot(c);
        assert_eq!(g.find(a), c);
        assert_eq!(g.find(b), c);
        assert_eq!(g.find(c), c);
        // Rerooting the current root is a no-op.
        g.reroot(c);
        assert_eq!(g.find(a), c);
        // A later union with a smaller id can demote again.
        let d = leaf(&mut g, 3);
        g.union(d, a);
        assert_eq!(g.find(d), g.find(c));
    }

    #[test]
    fn resolve_at_sees_member_structure() {
        let mut g = SharedGraph::new();
        let a = leaf(&mut g, 0);
        let b = leaf(&mut g, 1);
        let sum = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
        g.union(a, sum); // class {a, a+b}, rep = a
        assert!(matches!(g.resolve(sum), Node::Param(0)));
        assert!(matches!(g.resolve_at(sum), Node::Bin(BinOp::Add, ..)));
    }

    #[test]
    fn live_set_follows_canonical_children() {
        let mut g = SharedGraph::new();
        let a = leaf(&mut g, 0);
        let b = leaf(&mut g, 1);
        let sum = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
        let live = g.live_set(&[sum]);
        assert!(live[a.index()] && live[b.index()] && live[sum.index()]);
        let c = leaf(&mut g, 2);
        let live = g.live_set(&[sum]);
        assert!(!live[c.index()]);
    }
}
