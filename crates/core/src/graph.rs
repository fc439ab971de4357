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
//! then restores maximal sharing (congruence closure, the "maximize
//! sharing" step of §4). μ-nodes keep their nominal identity through
//! rebuilds, but two μs whose `(depth, init, next)` become identical are
//! merged — this is how the cycle matcher's speculative unions become
//! permanent structural equalities.
//!
//! The rebuild is an incremental repair in the style of egg's *rebuilding*
//! (Willsey et al., POPL 2021): the intern table persists between calls,
//! every class keeps a list of the nodes that use it, and a call re-files
//! only the representatives with a child in a class absorbed since the
//! last call, plus new and patched μs. It keeps the phase order and the id
//! order of a full re-interning sweep, and its result — every `find`, the
//! intern key set and the clean mark — is the sweep's (see
//! [`SharedGraph::rebuild`]).

use gated_ssa::node::{node_hash, CalleeId, Interning, Node, NodeId, ValueGraph};
use gated_ssa::GatedFunction;
use lir::intern::{HashSlots, StrTab};
use std::collections::HashMap;

/// The structural intern table behind [`SharedGraph::add`] and
/// [`SharedGraph::rebuild`]: canonical node → id, with at most one entry
/// per node, filed under that node's id.
///
/// Unlike the per-function `ValueGraph`, the shared graph cannot resolve
/// hash-table candidates against its node arena: the table holds
/// `resolve_at(id)` keys (canonical children), which differ from the
/// possibly-stale arena entries, and lookups between rebuilds must compare
/// against the key *as filed* — not a re-resolved one — to keep hit/miss
/// behavior (and therefore id assignment) byte-identical across the two
/// [`Interning`] modes. So the table keeps its own key copies, indexed by
/// the node they are filed under, which is also what lets the rebuild
/// take one node's entry out when it re-files that node.
#[derive(Clone, Debug, Default)]
struct InternMap {
    /// `(hash, key)` each node is filed under, by node id; `None` for a
    /// node with no entry.
    keys: Vec<Option<(u64, Node)>>,
    index: Index,
}

/// The lookup structure over [`InternMap::keys`], one per [`Interning`]
/// mode. Both implement the same node → id map, so the modes build
/// byte-identical graphs.
#[derive(Clone, Debug)]
enum Index {
    /// hash(key) → node id, candidates resolved against `keys`
    /// ([`Interning::Fast`]): one word hashed per field instead of SipHash.
    Fast(HashSlots),
    /// A std map with its own key copies ([`Interning::Naive`], the
    /// differential-testing oracle).
    Naive(HashMap<Node, NodeId>),
}

impl Default for Index {
    fn default() -> Index {
        Index::Fast(HashSlots::new())
    }
}

impl InternMap {
    fn new(mode: Interning) -> InternMap {
        let index = match mode {
            Interning::Fast => Index::Fast(HashSlots::new()),
            Interning::Naive => Index::Naive(HashMap::new()),
        };
        InternMap { keys: Vec::new(), index }
    }

    /// The id filed under `node`, whose [`node_hash`] is `hash`.
    fn get_hashed(&self, hash: u64, node: &Node) -> Option<NodeId> {
        match &self.index {
            Index::Fast(slots) => {
                let keys = &self.keys;
                slots
                    .get(hash, |i| keys[i as usize].as_ref().is_some_and(|(_, k)| k == node))
                    .map(NodeId)
            }
            Index::Naive(m) => m.get(node).copied(),
        }
    }

    /// File `node` under `id`, which must have no entry, after a missed
    /// lookup of `node`.
    fn insert_hashed(&mut self, hash: u64, node: Node, id: NodeId) {
        match &mut self.index {
            Index::Fast(slots) => slots.insert(hash, id.0),
            Index::Naive(m) => {
                m.insert(node.clone(), id);
            }
        }
        let i = id.index();
        if self.keys.len() <= i {
            self.keys.resize_with(i + 1, || None);
        }
        debug_assert!(self.keys[i].is_none(), "node {i} filed twice");
        self.keys[i] = Some((hash, node));
    }

    /// The id filed under `node`, or `None` after filing `node` under
    /// `id`: a lookup and an insert with one hash.
    fn get_or_insert(&mut self, node: Node, id: NodeId) -> Option<NodeId> {
        let hash = node_hash(&node);
        let hit = self.get_hashed(hash, &node);
        if hit.is_none() {
            self.insert_hashed(hash, node, id);
        }
        hit
    }

    /// Take `id`'s entry, if it has one, out of the table.
    fn remove(&mut self, id: NodeId) {
        let Some((hash, key)) = self.keys.get_mut(id.index()).and_then(Option::take) else {
            return;
        };
        match &mut self.index {
            Index::Fast(slots) => {
                slots.remove(hash, |p| p == id.0);
            }
            Index::Naive(m) => {
                m.remove(&key);
            }
        }
    }

    fn clear(&mut self) {
        self.keys.clear();
        match &mut self.index {
            Index::Fast(slots) => slots.clear(),
            Index::Naive(m) => m.clear(),
        }
    }
}

/// The empty-list / no-cell sentinel of [`Uses`].
const NIL: u32 = u32::MAX;

/// Use lists for every class, in one arena: the list at a class root holds
/// every node that stores a child in that class. A node files one cell per
/// stored child when it is created (and a patched μ one more for its new
/// back edge); absorbing a class appends its list to the new root's in
/// O(1). Cells are never removed, so a list may name nodes that have since
/// left their class or their child: re-filing those is wasted work, never
/// a wrong result.
#[derive(Clone, Debug, Default)]
struct Uses {
    /// `(user, next cell)` per cell.
    cells: Vec<(u32, u32)>,
    /// `(first, last)` cell of each node's list, by node id.
    ends: Vec<(u32, u32)>,
}

impl Uses {
    /// Record that `user` stores a child in the class rooted at `class`.
    fn push(&mut self, class: NodeId, user: NodeId) {
        let cell = self.cells.len() as u32;
        self.cells.push((user.0, NIL));
        let (first, last) = self.ends[class.index()];
        if last == NIL {
            self.ends[class.index()] = (cell, cell);
        } else {
            self.cells[last as usize].1 = cell;
            self.ends[class.index()] = (first, cell);
        }
    }

    /// Move `from`'s list onto the end of `to`'s.
    fn append(&mut self, from: NodeId, to: NodeId) {
        let (first, last) = std::mem::replace(&mut self.ends[from.index()], (NIL, NIL));
        if first == NIL {
            return;
        }
        match self.ends[to.index()] {
            (NIL, _) => self.ends[to.index()] = (first, last),
            (to_first, to_last) => {
                self.cells[to_last as usize].1 = first;
                self.ends[to.index()] = (to_first, last);
            }
        }
    }
}

/// A set of node ids, one bit each, drained in ascending id order.
#[derive(Clone, Debug, Default)]
struct IdSet(Vec<u64>);

impl IdSet {
    fn insert(&mut self, id: u32) {
        let word = id as usize / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (id % 64);
    }

    /// Remove and return the smallest id at or above `from`.
    fn pop_from(&mut self, from: u32) -> Option<u32> {
        let mut word = from as usize / 64;
        let mut mask = !0u64 << (from % 64);
        while let Some(bits) = self.0.get_mut(word) {
            let hit = *bits & mask;
            if hit != 0 {
                let bit = hit.trailing_zeros();
                *bits &= !(1 << bit);
                return Some(word as u32 * 64 + bit);
            }
            word += 1;
            mask = !0;
        }
        None
    }

    /// Make the set exactly `0..n`.
    fn fill(&mut self, n: usize) {
        self.0.clear();
        self.0.resize(n.div_ceil(64), !0);
        if !n.is_multiple_of(64) {
            *self.0.last_mut().expect("n > 0") = (1 << (n % 64)) - 1;
        }
    }

    /// Move every id of `other` into this set.
    fn append(&mut self, other: &mut IdSet) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(other.0.iter_mut()) {
            *a |= std::mem::take(b);
        }
    }
}

/// Where a rebuild stands, which decides when a node queued for re-filing
/// is visited (see [`SharedGraph::rebuild`]).
#[derive(Clone, Copy, Debug, Default)]
enum Phase {
    /// Outside a sweep: a queued node is visited by the next sweep.
    #[default]
    Idle,
    /// The trivial-μ phase, at this μ.
    Mu(u32),
    /// The congruence phase, at this node.
    Congruence(u32),
}

/// What [`SharedGraph::rebuild`] has left to repair, and the use lists it
/// repairs from.
#[derive(Clone, Debug, Default)]
struct Repair {
    /// Roots absorbed by a merge whose uses are not yet queued.
    absorbed: Vec<u32>,
    /// Set by [`SharedGraph::reroot`] and [`SharedGraph::reintern`]: the
    /// next rebuild starts from an empty table with every node queued —
    /// the full sweep.
    full: bool,
    uses: Uses,
    /// μs the next trivial-μ phase re-checks.
    mus: IdSet,
    /// μs queued at or below the μ cursor: the following μ phase.
    mus_later: IdSet,
    /// Representatives the next congruence phase re-files.
    refile: IdSet,
    /// Representatives queued at or below the congruence cursor: the
    /// following sweep.
    refile_later: IdSet,
    phase: Phase,
}

impl Repair {
    fn clear(&mut self) {
        self.absorbed.clear();
        self.full = false;
        self.uses.cells.clear();
        self.uses.ends.clear();
        for set in [&mut self.mus, &mut self.mus_later, &mut self.refile, &mut self.refile_later] {
            set.0.clear();
        }
        self.phase = Phase::Idle;
    }

    /// Queue `id` (a μ when `is_mu`) for re-checking, in the current sweep
    /// when its phase has not yet passed it and in the next one otherwise.
    fn queue(&mut self, id: u32, is_mu: bool) {
        match self.phase {
            Phase::Idle => {
                self.refile.insert(id);
                if is_mu {
                    self.mus.insert(id);
                }
            }
            Phase::Mu(cursor) => {
                self.refile.insert(id);
                if is_mu {
                    if id > cursor { &mut self.mus } else { &mut self.mus_later }.insert(id);
                }
            }
            Phase::Congruence(cursor) => {
                if id > cursor { &mut self.refile } else { &mut self.refile_later }.insert(id);
                if is_mu {
                    self.mus.insert(id);
                }
            }
        }
    }
}

/// A merged, rewritable value graph for one validation query.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(Clone))]
pub struct SharedGraph {
    nodes: Vec<Node>,
    parent: Vec<u32>,
    callees: StrTab,
    intern: InternMap,
    /// Set by a [`SharedGraph::rebuild`] that found nothing to do and
    /// cleared by every mutation that could give it work again; while set,
    /// `rebuild` is a no-op.
    clean: bool,
    repair: Repair,
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
        match self.intern.index {
            Index::Fast(_) => Interning::Fast,
            Index::Naive(_) => Interning::Naive,
        }
    }

    /// Drop all nodes, equalities and callees, keeping the allocations
    /// (arena, union-find, interner, use lists, string table) for the next
    /// query.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.parent.clear();
        self.callees.clear();
        self.intern.clear();
        self.repair.clear();
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
        self.absorb(hi, lo);
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
        self.absorb(ra, rb);
        true
    }

    /// Merge the class rooted at `root` into the one rooted at `into`,
    /// leaving the repair of its uses to the next rebuild.
    fn absorb(&mut self, root: NodeId, into: NodeId) {
        self.parent[root.index()] = into.0;
        self.repair.absorbed.push(root.0);
        self.clean = false;
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
    /// fixpoint is unreachable. The next rebuild re-files every node from
    /// an empty table.
    pub fn reintern(&mut self) {
        self.intern.clear();
        self.clean = false;
        self.repair.full = true;
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
    /// only, see through classes that merely *contain* a constant. Every
    /// key that named the old root changes, so the next rebuild re-files
    /// every node from an empty table.
    pub fn reroot(&mut self, member: NodeId) {
        let root = self.find(member);
        if root == member {
            return;
        }
        // Order matters: detach `member` first so the old root's new parent
        // chain terminates instead of cycling back through `member`.
        self.parent[member.index()] = member.0;
        self.parent[root.index()] = member.0;
        self.repair.uses.append(root, member);
        self.repair.full = true;
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

    /// Append `node`, whose children must be class roots, as a class of
    /// its own, filing it in the use list of each child's class.
    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.repair.uses.ends.push((NIL, NIL));
        node.for_each_child(|c| self.repair.uses.push(c, id));
        self.nodes.push(node);
        self.parent.push(id.0);
        id
    }

    /// Make room for `additional` more nodes (two use cells each) in the
    /// arena and its per-node tables.
    fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.parent.reserve(additional);
        self.intern.keys.reserve(additional);
        self.repair.uses.ends.reserve(additional);
        self.repair.uses.cells.reserve(2 * additional);
    }

    /// Queue `id` for the next rebuild to re-check (see [`Repair::queue`]).
    fn queue(&mut self, id: NodeId) {
        let is_mu = self.nodes[id.index()].is_mu();
        self.repair.queue(id.0, is_mu);
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
        let hash = node_hash(&node);
        if let Some(id) = self.intern.get_hashed(hash, &node) {
            return self.find(id);
        }
        let id = self.push_node(node.clone());
        self.intern.insert_hashed(hash, node, id);
        id
    }

    /// Allocate a fresh nominal μ-node.
    pub fn new_mu(&mut self, depth: u32, init: NodeId, next: Option<NodeId>) -> NodeId {
        self.clean = false;
        let id = NodeId(self.nodes.len() as u32);
        let mu = Node::Mu { depth, init: self.find(init), next: next.map_or(id, |n| self.find(n)) };
        self.push_node(mu);
        self.queue(id);
        id
    }

    /// Patch the back edge of μ-node `mu`.
    pub fn patch_mu(&mut self, mu: NodeId, next_val: NodeId) {
        self.clean = false;
        let next_val = self.find(next_val);
        let slot = self.find(mu);
        match &mut self.nodes[slot.index()] {
            Node::Mu { next, .. } => *next = next_val,
            n => panic!("patch_mu on non-mu node {}", n.opname()),
        }
        // The μ's filed key is stale over children that are still roots, so
        // a lookup could hit it; only a rebuild looks μ keys up, so the
        // entry can go now without changing what `add` sees.
        self.intern.remove(slot);
        self.repair.uses.push(next_val, slot);
        self.queue(slot);
    }

    /// Import a per-function gated graph, returning a map from its node ids
    /// to ids in this graph. Hash-consing extends across imports: nodes of
    /// the second function re-use the first function's ids wherever the
    /// structure matches (the *shared* graph of paper §2).
    pub fn import(&mut self, gf: &GatedFunction) -> Vec<NodeId> {
        let g: &ValueGraph = &gf.graph;
        self.reserve(g.len());
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

    /// Restore maximal sharing: collapse degenerate μ-nodes (`next == μ`
    /// or `next == init`) to their initial value — a constant stream *is*
    /// its value — and merge nodes whose canonical structure became
    /// identical, until a fixpoint.
    ///
    /// Each sweep runs two phases in ascending id order: the trivial-μ
    /// collapse, then congruence. The repair is incremental: the intern
    /// table persists between calls, and a sweep only re-checks what can
    /// have changed since the table was last exact —
    /// - the uses of every class absorbed by a merge, whether a caller's
    ///   [`union`](SharedGraph::union) or [`replace`](SharedGraph::replace)
    ///   since the last call or the rebuild's own;
    /// - μs made by [`new_mu`](SharedGraph::new_mu) or patched by
    ///   [`patch_mu`](SharedGraph::patch_mu);
    /// - μs whose collapse counted without merging (their initial value
    ///   already is their class), which stay queued.
    ///
    /// Re-filing a node takes its old entry out of the table and looks up
    /// its current key: a hit merges the two classes, a miss files the key.
    /// A node queued during a phase that has already passed it waits for
    /// the next sweep, as a full sweep would see it only then. After
    /// [`reroot`](SharedGraph::reroot) or
    /// [`reintern`](SharedGraph::reintern) the first sweep starts from an
    /// empty table with every node queued, which is the full sweep.
    ///
    /// **Contract.** The reference is the full sweep: every sweep
    /// re-interns every representative from an empty table. After every
    /// call, `find` of every node, the intern key set (each
    /// representative's resolved key, mapping into its class, and no
    /// other key), the clean mark and whether the call merged or collapsed
    /// anything equal the reference's. A lookup may merge two
    /// already-congruent nodes a sweep earlier than the reference does;
    /// that changes how many sweeps a call takes, and so how often a
    /// non-merging collapse is seen, never a result. So the return value
    /// is whether anything merged or collapsed, not a count.
    ///
    /// A rebuild whose last sweep neither changed nor collapsed anything
    /// marks the graph *clean*; until a mutation clears the mark (a
    /// merging [`union`](SharedGraph::union) or
    /// [`replace`](SharedGraph::replace), [`reroot`](SharedGraph::reroot),
    /// [`new_mu`](SharedGraph::new_mu), [`patch_mu`](SharedGraph::patch_mu),
    /// [`reintern`](SharedGraph::reintern) or
    /// [`reset`](SharedGraph::reset)), `rebuild` returns `false` at once.
    pub fn rebuild(&mut self) -> bool {
        if self.clean {
            return false;
        }
        self.repair_absorbed();
        if std::mem::take(&mut self.repair.full) {
            self.intern.clear();
            self.repair.mus.fill(self.nodes.len());
            self.repair.refile.fill(self.nodes.len());
        }
        let mut any = false;
        loop {
            let mut changed = false;
            let mut counted = false;
            // Trivial μ collapse first: it can unlock congruences below.
            let mut from = 0;
            while let Some(i) = self.repair.mus.pop_from(from) {
                from = i + 1;
                self.repair.phase = Phase::Mu(i);
                let id = NodeId(i);
                if self.find(id) != id {
                    continue;
                }
                if let Node::Mu { init, next, .. } = self.nodes[id.index()] {
                    let (ri, rn) = (self.find(init), self.find(next));
                    if rn == id || rn == ri {
                        counted = true;
                        if self.replace(id, ri) {
                            changed = true;
                            self.repair_absorbed();
                        } else {
                            // `init` already is this μ's class: the collapse
                            // counts on every sweep without merging.
                            self.repair.mus_later.insert(i);
                        }
                    }
                }
            }
            let r = &mut self.repair;
            r.mus.append(&mut r.mus_later);
            // Congruence: nodes with identical canonical structure merge.
            let mut from = 0;
            while let Some(i) = self.repair.refile.pop_from(from) {
                from = i + 1;
                self.repair.phase = Phase::Congruence(i);
                let id = NodeId(i);
                if self.find(id) != id {
                    continue;
                }
                self.intern.remove(id);
                let key = self.resolve_at(id);
                let hash = node_hash(&key);
                let Some(prev) = self.intern.get_hashed(hash, &key) else {
                    self.intern.insert_hashed(hash, key, id);
                    continue;
                };
                let prev = self.find(prev);
                debug_assert_ne!(prev, id, "only representatives hold entries");
                self.union(prev, id);
                changed = true;
                self.repair_absorbed();
                // The hit class had its root above `id` and has just been
                // absorbed, taking its entry along: the key passes to `id`.
                if self.find(id) == id {
                    self.intern.insert_hashed(hash, key, id);
                }
            }
            let r = &mut self.repair;
            r.refile.append(&mut r.refile_later);
            r.phase = Phase::Idle;
            any |= changed || counted;
            if !changed {
                self.clean = !counted;
                return any;
            }
        }
    }

    /// Queue the uses of every class absorbed since the last call: each
    /// absorbed root's entry leaves the table (only representatives are
    /// filed), its users are queued for re-filing, and its use list joins
    /// its new root's.
    fn repair_absorbed(&mut self) {
        while let Some(root) = self.repair.absorbed.pop() {
            let root = NodeId(root);
            let into = self.find(root);
            if into == root {
                // Rerooted back to the head of its class.
                continue;
            }
            self.intern.remove(root);
            let mut cell = self.repair.uses.ends[root.index()].0;
            while cell != NIL {
                let (user, next) = self.repair.uses.cells[cell as usize];
                self.queue(NodeId(user));
                cell = next;
            }
            self.repair.uses.append(root, into);
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
    use lir::inst::{BinOp, IcmpPred};
    use lir::types::Ty;
    use lir::value::Constant;
    use llvm_md_workload::rng::SplitMix64;

    impl SharedGraph {
        /// The full re-interning sweep [`SharedGraph::rebuild`] replaced,
        /// kept verbatim as the reference its contract is stated against:
        /// every sweep re-interns every representative from an empty table.
        /// Returns the number of unions and collapses it counted.
        fn rebuild_sweep(&mut self) -> usize {
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

        /// Every filed key, mapped to the class of the node it is filed
        /// under, after checking that the lookup index holds exactly the
        /// filed keys.
        fn filed_keys(&self) -> HashMap<Node, NodeId> {
            let mut filed = HashMap::new();
            for (i, entry) in self.intern.keys.iter().enumerate() {
                let Some((hash, key)) = entry else { continue };
                let id = NodeId(i as u32);
                assert_eq!(*hash, node_hash(key));
                assert_eq!(self.intern.get_hashed(*hash, key), Some(id), "index lost {key:?}");
                assert!(filed.insert(key.clone(), self.find(id)).is_none(), "{key:?} filed twice");
            }
            let indexed = match &self.intern.index {
                Index::Fast(slots) => slots.len(),
                Index::Naive(m) => m.len(),
            };
            assert_eq!(indexed, filed.len(), "index and filed keys disagree");
            filed
        }
    }

    /// One step of a random mutation sequence over a small graph; `ctx`
    /// names the step in failure messages.
    fn mutate(g: &mut SharedGraph, rng: &mut SplitMix64, ctx: &str) {
        let n = g.len() as u64;
        let pick = |rng: &mut SplitMix64| NodeId(rng.gen_range(0..n) as u32);
        if n < 4 {
            let leaf = if rng.gen_bool(0.5) {
                Node::Param(rng.gen_range(0..3u32))
            } else {
                Node::Const(Constant::int(Ty::I64, rng.gen_range(0..2u64) as i64))
            };
            g.add(leaf);
            return;
        }
        match rng.gen_range(0..100u32) {
            0..=7 => {
                g.add(Node::Param(rng.gen_range(0..4u32)));
            }
            8..=29 => {
                let op = [BinOp::Add, BinOp::Mul, BinOp::Sub][rng.gen_range(0..3usize)];
                let (a, b) = (pick(rng), pick(rng));
                g.add(Node::Bin(op, Ty::I64, a, b));
            }
            30..=35 => {
                let pred = [IcmpPred::Eq, IcmpPred::Slt][rng.gen_range(0..2usize)];
                let (a, b) = (pick(rng), pick(rng));
                g.add(Node::Icmp(pred, Ty::I64, a, b));
            }
            36..=39 => {
                let branches = (0..rng.gen_range(1..4usize)).map(|_| (pick(rng), pick(rng)));
                g.add(Node::Phi { branches: branches.collect() });
            }
            40..=49 => {
                let init = pick(rng);
                let next = rng.gen_bool(0.5).then(|| pick(rng));
                // Mostly one depth, so that μ keys collide often.
                let depth = if rng.gen_bool(0.8) { 1 } else { 2 };
                g.new_mu(depth, init, next);
            }
            50..=59 => {
                let mus: Vec<NodeId> =
                    (0..g.len() as u32).map(NodeId).filter(|&id| g.resolve(id).is_mu()).collect();
                if !mus.is_empty() {
                    let mu = mus[rng.gen_range(0..mus.len())];
                    let next = pick(rng);
                    g.patch_mu(mu, next);
                }
            }
            60..=71 => {
                let (a, b) = (pick(rng), pick(rng));
                g.union(a, b);
            }
            72..=83 => {
                let (a, b) = (pick(rng), pick(rng));
                g.replace(a, b);
            }
            84..=89 => g.reroot(pick(rng)),
            90..=92 => g.reintern(),
            93 if rng.gen_bool(0.25) => g.reset(),
            _ => check_rebuild(g, ctx),
        }
    }

    /// Rebuild `g` incrementally and a clone of it with the reference
    /// sweep, and assert that every contract item matches.
    fn check_rebuild(g: &mut SharedGraph, ctx: &str) {
        let mut sweep = g.clone();
        let counted = sweep.rebuild_sweep();
        let any = g.rebuild();
        assert_eq!(any, counted > 0, "{ctx}: return value ({counted} counted)");
        assert_eq!(g.clean, sweep.clean, "{ctx}: clean mark");
        for i in 0..g.len() {
            let id = NodeId(i as u32);
            assert_eq!(g.find(id), sweep.find(id), "{ctx}: find({i})");
        }
        let filed = g.filed_keys();
        assert_eq!(filed, sweep.filed_keys(), "{ctx}: intern key set");
        // Which is: each representative's resolved key, in its class.
        let reps = (0..g.len() as u32).map(NodeId).filter(|&id| g.find(id) == id);
        assert_eq!(reps.clone().count(), filed.len(), "{ctx}: one key per representative");
        for id in reps {
            assert_eq!(filed.get(&g.resolve_at(id)), Some(&id), "{ctx}: key of {id:?}");
        }
    }

    #[test]
    fn a_patched_mu_is_not_found_under_its_old_key() {
        // Both μs are filed. Patching the higher one leaves its old key
        // `μ(a, b)` over children that are still roots; once `b2` joins
        // `b`, the lower μ re-files as `μ(a, b)` and must not find it.
        let mut g = SharedGraph::new();
        let (a, b, b2, c) = (leaf(&mut g, 0), leaf(&mut g, 1), leaf(&mut g, 2), leaf(&mut g, 3));
        let lo = g.new_mu(1, a, Some(b2));
        let hi = g.new_mu(1, a, Some(b));
        g.rebuild();
        g.patch_mu(hi, c);
        g.union(b, b2);
        check_rebuild(&mut g, "patched μ");
        assert!(!g.same(lo, hi));
    }

    #[test]
    fn incremental_rebuild_matches_the_full_sweep() {
        // Seeded random sequences of every mutator; before each rebuild the
        // graph is cloned and both copies rebuilt. Failures print the seed.
        for seed in 0..2000u64 {
            for mode in [Interning::Fast, Interning::Naive] {
                let mut rng = SplitMix64::seed_from_u64(seed);
                let mut g = SharedGraph::with_interning(mode);
                let steps = rng.gen_range(10..120usize);
                for step in 0..steps {
                    let ctx = format!("seed {seed} {mode:?} step {step}");
                    mutate(&mut g, &mut rng, &ctx);
                    if step % 16 == 15 {
                        check_rebuild(&mut g, &ctx);
                    }
                }
                check_rebuild(&mut g, &format!("seed {seed} {mode:?} end"));
            }
        }
    }

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
        assert!(!g.rebuild());
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
        let x = leaf(&mut g, 5);
        let m = g.new_mu(1, x, None);
        g.replace(x, m);
        assert_eq!(g.clone().rebuild_sweep(), 1, "the sweep counts the collapse");
        assert!(g.rebuild());
        assert!(!g.clean);
        assert_eq!(g.clone().rebuild_sweep(), 1, "and counts it again");
        assert!(g.rebuild());
    }

    #[test]
    fn every_mutator_makes_the_next_rebuild_work() {
        type Mutator = fn(&mut SharedGraph, [NodeId; 6]);
        let mutators: [(&str, Mutator); 7] = [
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
        assert!(g.rebuild());
        assert!(g.same(ab, ac));
        // A degenerate μ collapses to its initial value.
        let (mut g, [a, ..]) = clean_graph();
        let mu = g.new_mu(1, a, None);
        assert!(g.rebuild());
        assert!(g.same(mu, a));
        // Closing the loop on itself makes the μ degenerate too.
        let (mut g, [.., m]) = clean_graph();
        g.patch_mu(m, m);
        assert!(g.rebuild());
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
