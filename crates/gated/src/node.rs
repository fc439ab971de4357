//! Value-graph nodes and the per-function hash-consed graph.
//!
//! A [`Node`] is one vertex of the (monadic, gated) value graph of §3 of the
//! paper. Two abstract state chains are threaded through the graph:
//!
//! * the **memory state** (`M`): [`Node::InitMem`] at entry, extended by
//!   [`Node::Store`] and [`Node::CallMem`], consumed by [`Node::Load`] and
//!   [`Node::CallVal`] — exactly the paper's `m` registers (§3.1);
//! * the **allocation chain** (`A`): [`Node::InitAlloc`] at entry, extended
//!   by each [`Node::Alloca`]. Threading allocations separately from memory
//!   contents gives every `alloca` a fresh identity (its position in the
//!   chain) while keeping the memory chain free of allocation noise, so
//!   dead-`alloca` elimination and loop-unswitch duplication both validate
//!   structurally.
//!
//! Gating nodes: [`Node::Phi`] carries `(condition, value)` branches whose
//! conditions are mutually exclusive by construction; [`Node::Mu`] is a loop
//! header (initial value + next-iteration value, the only cyclic node);
//! [`Node::Eta`] selects the value of a loop-varying stream at the first
//! iteration whose exit condition is true.
//!
//! Nodes are hash-consed inside a [`ValueGraph`]: structurally equal nodes
//! always receive the same [`NodeId`], so "are these two expressions equal?"
//! is a pointer comparison (the paper's `O(1)` best case). μ-nodes are the
//! exception: they are created with a placeholder and patched once the loop
//! body has been translated, so they are *nominal* — proving two μ-nodes
//! equal is the cycle-matching problem solved in `llvm-md-core`.

use lir::func::GlobalId;
use lir::inst::{BinOp, CastOp, FBinOp, FcmpPred, IcmpPred};
use lir::intern::{HashSlots, StrTab, WordHasher};
use lir::types::Ty;
use lir::value::Constant;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of a node within a [`ValueGraph`] (or within the shared graph
/// built from two of them).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into dense per-node side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Interned callee name (index into the owning graph's callee table; see
/// [`ValueGraph::callee_name`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CalleeId(pub u32);

impl CalleeId {
    /// Index into the callee table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One value-graph vertex. Children are [`NodeId`]s into the owning graph.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// The `i`-th function parameter.
    Param(u32),
    /// A literal constant.
    Const(Constant),
    /// The address of a module global.
    GlobalAddr(GlobalId),
    /// The memory state on function entry.
    InitMem,
    /// The allocation chain on function entry.
    InitAlloc,
    /// Integer binary operation.
    Bin(BinOp, Ty, NodeId, NodeId),
    /// Float binary operation.
    FBin(FBinOp, NodeId, NodeId),
    /// Integer comparison (result type `i1`).
    Icmp(IcmpPred, Ty, NodeId, NodeId),
    /// Float comparison (result type `i1`).
    Fcmp(FcmpPred, NodeId, NodeId),
    /// Integer/float cast.
    Cast(CastOp, Ty, Ty, NodeId),
    /// Pointer plus byte offset.
    Gep(NodeId, NodeId),
    /// Stack allocation: yields the fresh pointer *and* serves as the next
    /// allocation-chain token. `chain` is the previous token.
    Alloca {
        /// Allocation size in bytes.
        size: u64,
        /// Required alignment.
        align: u64,
        /// Previous allocation-chain token.
        chain: NodeId,
    },
    /// Memory read: the value stored at `ptr` in memory state `mem`.
    Load {
        /// Loaded type.
        ty: Ty,
        /// Address.
        ptr: NodeId,
        /// Memory state consumed.
        mem: NodeId,
    },
    /// Memory write: the memory state after storing `val` at `ptr`.
    Store {
        /// Stored type.
        ty: Ty,
        /// Stored value.
        val: NodeId,
        /// Address.
        ptr: NodeId,
        /// Memory state consumed.
        mem: NodeId,
    },
    /// Value returned by a pure call (no memory in or out).
    CallPure {
        /// Callee.
        callee: CalleeId,
        /// Return type.
        ret: Ty,
        /// Argument values.
        args: Box<[NodeId]>,
    },
    /// Value returned by a memory-reading call (`mem` consumed, not produced).
    CallVal {
        /// Callee.
        callee: CalleeId,
        /// Return type.
        ret: Ty,
        /// Argument values.
        args: Box<[NodeId]>,
        /// Memory state consumed.
        mem: NodeId,
    },
    /// Memory state produced by a memory-writing call. Pairs with a
    /// [`Node::CallVal`] over the same inputs when the result is used.
    CallMem {
        /// Callee.
        callee: CalleeId,
        /// Argument values.
        args: Box<[NodeId]>,
        /// Memory state consumed.
        mem: NodeId,
    },
    /// Gated φ: `(condition, value)` branches with mutually exclusive
    /// conditions; the node's value is the value of the branch whose
    /// condition is true.
    Phi {
        /// `(condition, value)` pairs.
        branches: Box<[(NodeId, NodeId)]>,
    },
    /// Loop-header node: `init` on loop entry, `next` on each back edge.
    /// The only node kind allowed to participate in cycles; *not* interned.
    Mu {
        /// Loop-nesting depth (outermost loop = 1).
        depth: u32,
        /// Value on first entry (from the preheader).
        init: NodeId,
        /// Value for the following iteration (from the latch).
        next: NodeId,
    },
    /// Loop-exit node: the value of stream `val` at the first iteration of
    /// the depth-`depth` loop whose `cond` is true.
    Eta {
        /// Loop-nesting depth of the exited loop.
        depth: u32,
        /// Per-iteration exit condition.
        cond: NodeId,
        /// Per-iteration value stream.
        val: NodeId,
    },
    /// Root wrapper marking the function's *observable* final memory: stores
    /// to non-escaping stack memory below this node are unobservable and may
    /// be purged by the validator.
    ObsMem(NodeId),
}

impl Node {
    /// Visit every child id.
    pub fn for_each_child(&self, mut f: impl FnMut(NodeId)) {
        match self {
            Node::Param(_)
            | Node::Const(_)
            | Node::GlobalAddr(_)
            | Node::InitMem
            | Node::InitAlloc => {}
            Node::Bin(_, _, a, b)
            | Node::Icmp(_, _, a, b)
            | Node::FBin(_, a, b)
            | Node::Fcmp(_, a, b)
            | Node::Gep(a, b) => {
                f(*a);
                f(*b);
            }
            Node::Cast(_, _, _, v) | Node::ObsMem(v) => f(*v),
            Node::Alloca { chain, .. } => f(*chain),
            Node::Load { ptr, mem, .. } => {
                f(*ptr);
                f(*mem);
            }
            Node::Store { val, ptr, mem, .. } => {
                f(*val);
                f(*ptr);
                f(*mem);
            }
            Node::CallPure { args, .. } => args.iter().copied().for_each(f),
            Node::CallVal { args, mem, .. } | Node::CallMem { args, mem, .. } => {
                args.iter().copied().for_each(&mut f);
                f(*mem);
            }
            Node::Phi { branches } => {
                for (c, v) in branches.iter() {
                    f(*c);
                    f(*v);
                }
            }
            Node::Mu { init, next, .. } => {
                f(*init);
                f(*next);
            }
            Node::Eta { cond, val, .. } => {
                f(*cond);
                f(*val);
            }
        }
    }

    /// Rewrite every child id in place.
    pub fn map_children(&mut self, mut f: impl FnMut(NodeId) -> NodeId) {
        match self {
            Node::Param(_)
            | Node::Const(_)
            | Node::GlobalAddr(_)
            | Node::InitMem
            | Node::InitAlloc => {}
            Node::Bin(_, _, a, b)
            | Node::Icmp(_, _, a, b)
            | Node::FBin(_, a, b)
            | Node::Fcmp(_, a, b)
            | Node::Gep(a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            Node::Cast(_, _, _, v) | Node::ObsMem(v) => *v = f(*v),
            Node::Alloca { chain, .. } => *chain = f(*chain),
            Node::Load { ptr, mem, .. } => {
                *ptr = f(*ptr);
                *mem = f(*mem);
            }
            Node::Store { val, ptr, mem, .. } => {
                *val = f(*val);
                *ptr = f(*ptr);
                *mem = f(*mem);
            }
            Node::CallPure { args, .. } => {
                for a in args.iter_mut() {
                    *a = f(*a);
                }
            }
            Node::CallVal { args, mem, .. } | Node::CallMem { args, mem, .. } => {
                for a in args.iter_mut() {
                    *a = f(*a);
                }
                *mem = f(*mem);
            }
            Node::Phi { branches } => {
                for (c, v) in branches.iter_mut() {
                    *c = f(*c);
                    *v = f(*v);
                }
            }
            Node::Mu { init, next, .. } => {
                *init = f(*init);
                *next = f(*next);
            }
            Node::Eta { cond, val, .. } => {
                *cond = f(*cond);
                *val = f(*val);
            }
        }
    }

    /// Collected child ids.
    pub fn children(&self) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.for_each_child(|c| v.push(c));
        v
    }

    /// True for μ-nodes (the nominal, cyclic kind).
    pub fn is_mu(&self) -> bool {
        matches!(self, Node::Mu { .. })
    }

    /// A short operator name for statistics and debug printing.
    pub fn opname(&self) -> &'static str {
        match self {
            Node::Param(_) => "param",
            Node::Const(_) => "const",
            Node::GlobalAddr(_) => "global",
            Node::InitMem => "initmem",
            Node::InitAlloc => "initalloc",
            Node::Bin(op, ..) => op.mnemonic(),
            Node::FBin(op, ..) => op.mnemonic(),
            Node::Icmp(..) => "icmp",
            Node::Fcmp(..) => "fcmp",
            Node::Cast(op, ..) => op.mnemonic(),
            Node::Gep(..) => "gep",
            Node::Alloca { .. } => "alloca",
            Node::Load { .. } => "load",
            Node::Store { .. } => "store",
            Node::CallPure { .. } => "callpure",
            Node::CallVal { .. } => "callval",
            Node::CallMem { .. } => "callmem",
            Node::Phi { .. } => "phi",
            Node::Mu { .. } => "mu",
            Node::Eta { .. } => "eta",
            Node::ObsMem(_) => "obsmem",
        }
    }
}

/// Which interner backs a value graph's hash-consing.
///
/// Both modes implement the same map from node structure to [`NodeId`], so
/// they produce **byte-identical graphs** — same ids, same node order, same
/// verdicts. [`Interning::Fast`] is the arena interner ([`node_hash`] over
/// kind + child ids into a [`HashSlots`] table that resolves candidates against
/// the node arena itself, so nodes are stored exactly once);
/// [`Interning::Naive`] is the original `HashMap<Node, NodeId>` (a second
/// clone of every node as the map key, hashed with std's SipHash). The
/// naive mode is retained as the differential-testing oracle: the
/// `hashcons` test suite drives both over the full workload and asserts
/// identical verdicts, triage and statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Interning {
    /// Arena hash-consing: word-hashed open addressing over the node arena.
    #[default]
    Fast,
    /// The original boxed-key `HashMap` interner (differential oracle).
    Naive,
}

/// The interner behind [`ValueGraph::add`]: one of the two [`Interning`]
/// modes, holding that mode's table.
#[derive(Clone, Debug)]
enum InternTable {
    /// hash(node) → id, candidates resolved against the arena (no keys).
    Fast(HashSlots),
    /// node → id with owned keys (the pre-arena implementation).
    Naive(HashMap<Node, NodeId>),
}

impl InternTable {
    fn new(mode: Interning) -> InternTable {
        match mode {
            Interning::Fast => InternTable::Fast(HashSlots::new()),
            Interning::Naive => InternTable::Naive(HashMap::new()),
        }
    }
}

impl Default for InternTable {
    fn default() -> InternTable {
        InternTable::new(Interning::Fast)
    }
}

/// A node's structural hash (kind tag + fields + child ids), via the
/// derived [`Hash`] impl fed a word at a time through [`WordHasher`].
///
/// Only used to bucket the in-memory interners (this graph's and the
/// shared graph's in `llvm-md-core`) and never persisted, so equal nodes
/// hashing equal is the only correctness requirement: node ids depend on
/// insertion order and structural equality alone, so changing this hash
/// moves probe lengths, never an id. Persisted and seeded hashes use
/// [`lir::intern::fnv1a`] instead.
pub fn node_hash(n: &Node) -> u64 {
    let mut h = WordHasher::new();
    n.hash(&mut h);
    h.finish()
}

/// A hash-consed value graph for one function (or, in the validator, for a
/// pair of functions sharing structure).
///
/// Structurally equal non-μ nodes are interned to a single id. μ-nodes are
/// allocated nominally via [`ValueGraph::new_mu`] and patched with
/// [`ValueGraph::patch_mu`] once their back-edge value exists.
///
/// The graph is an arena: nodes live in one `Vec` in creation order, and
/// the default [`Interning::Fast`] interner resolves hash-table candidates
/// against that arena directly instead of keeping key copies. This is
/// sound because non-μ arena slots are immutable after creation (only
/// [`ValueGraph::patch_mu`] mutates, and only μ-nodes, which are never
/// interned), so `nodes[id]` is always exactly the key that was interned
/// under `id`.
#[derive(Clone, Debug, Default)]
pub struct ValueGraph {
    nodes: Vec<Node>,
    intern: InternTable,
    callees: StrTab,
}

impl ValueGraph {
    /// An empty graph with the default ([`Interning::Fast`]) interner.
    pub fn new() -> ValueGraph {
        ValueGraph::default()
    }

    /// An empty graph backed by the given interner mode.
    pub fn with_interning(mode: Interning) -> ValueGraph {
        ValueGraph { intern: InternTable::new(mode), ..ValueGraph::default() }
    }

    /// Which interner mode backs this graph.
    pub fn interning(&self) -> Interning {
        match self.intern {
            InternTable::Fast(_) => Interning::Fast,
            InternTable::Naive(_) => Interning::Naive,
        }
    }

    /// Drop all nodes and callees, keeping the allocations (arena, interner
    /// table, string table) for reuse on the next function.
    pub fn reset(&mut self) {
        self.nodes.clear();
        match &mut self.intern {
            InternTable::Fast(slots) => slots.clear(),
            InternTable::Naive(map) => map.clear(),
        }
        self.callees.clear();
    }

    /// Number of nodes (including unreachable ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node for `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterate over `(id, node)` pairs in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Intern a callee name into the graph's string table.
    pub fn callee(&mut self, name: &str) -> CalleeId {
        CalleeId(self.callees.intern(name))
    }

    /// The name of an interned callee.
    pub fn callee_name(&self, id: CalleeId) -> &str {
        self.callees.get(id.0)
    }

    /// Intern `node`, returning the id of the canonical copy.
    ///
    /// # Panics
    ///
    /// Panics on μ-nodes: those must go through [`ValueGraph::new_mu`].
    pub fn add(&mut self, node: Node) -> NodeId {
        assert!(!node.is_mu(), "mu nodes are nominal; use new_mu/patch_mu");
        let ValueGraph { nodes, intern, .. } = self;
        match intern {
            InternTable::Fast(slots) => {
                let h = node_hash(&node);
                if let Some(i) = slots.get(h, |i| nodes[i as usize] == node) {
                    return NodeId(i);
                }
                let id = NodeId(nodes.len() as u32);
                slots.insert(h, id.0);
                nodes.push(node);
                id
            }
            InternTable::Naive(map) => {
                if let Some(&id) = map.get(&node) {
                    return id;
                }
                let id = NodeId(nodes.len() as u32);
                nodes.push(node.clone());
                map.insert(node, id);
                id
            }
        }
    }

    /// Allocate a fresh μ-node at `depth` with `init` and a self-referential
    /// placeholder `next` (patched later).
    pub fn new_mu(&mut self, depth: u32, init: NodeId) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Mu { depth, init, next: id });
        id
    }

    /// Set the back-edge value of μ-node `mu`.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is not a μ-node.
    pub fn patch_mu(&mut self, mu: NodeId, next_val: NodeId) {
        match &mut self.nodes[mu.index()] {
            Node::Mu { next, .. } => *next = next_val,
            n => panic!("patch_mu on non-mu node {}", n.opname()),
        }
    }

    /// Convenience: the constant `true`.
    pub fn true_(&mut self) -> NodeId {
        self.add(Node::Const(Constant::bool(true)))
    }

    /// Convenience: the constant `false`.
    pub fn false_(&mut self) -> NodeId {
        self.add(Node::Const(Constant::bool(false)))
    }

    /// Boolean negation, with trivial folding of constants and double
    /// negation. Encoded as `xor i1 x, true` so the normalizer's integer
    /// rules see through it.
    pub fn not(&mut self, x: NodeId) -> NodeId {
        if let Node::Const(c) = self.node(x) {
            if c.is_true() {
                return self.false_();
            }
            if c.is_false() {
                return self.true_();
            }
        }
        if let Node::Bin(BinOp::Xor, Ty::I1, a, b) = *self.node(x) {
            if self.node(b) == &Node::Const(Constant::bool(true)) {
                return a;
            }
            if self.node(a) == &Node::Const(Constant::bool(true)) {
                return b;
            }
        }
        let t = self.true_();
        self.add(Node::Bin(BinOp::Xor, Ty::I1, x, t))
    }

    /// Boolean conjunction with unit/zero folding.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (t, f) = (self.true_(), self.false_());
        if a == t {
            return b;
        }
        if b == t {
            return a;
        }
        if a == f || b == f {
            return f;
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.add(Node::Bin(BinOp::And, Ty::I1, a, b))
    }

    /// Boolean disjunction with unit/zero folding.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (t, f) = (self.true_(), self.false_());
        if a == f {
            return b;
        }
        if b == f {
            return a;
        }
        if a == t || b == t {
            return t;
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.add(Node::Bin(BinOp::Or, Ty::I1, a, b))
    }

    /// Build a gated φ from `(condition, value)` branches.
    ///
    /// Part of symbolic evaluation, not normalization: branches with a
    /// constant-`false` condition are dropped, a branch with a constant
    /// `true` condition (necessarily unique) is returned directly, and if
    /// all branch values coincide the shared value is returned. Remaining
    /// branches are sorted for canonical form (their conditions are mutually
    /// exclusive, so order is semantically irrelevant).
    pub fn phi(&mut self, branches: Vec<(NodeId, NodeId)>) -> NodeId {
        let f = self.false_();
        let t = self.true_();
        let mut bs: Vec<(NodeId, NodeId)> = branches.into_iter().filter(|(c, _)| *c != f).collect();
        if let Some(&(_, v)) = bs.iter().find(|(c, _)| *c == t) {
            return v;
        }
        bs.sort();
        bs.dedup();
        match bs.len() {
            0 => {
                // All paths impossible: an arbitrary undef-like value. Use
                // the false constant; this only arises for unreachable code.
                f
            }
            1 => bs[0].1,
            _ if bs.iter().all(|(_, v)| *v == bs[0].1) => bs[0].1,
            _ => self.add(Node::Phi { branches: bs.into_boxed_slice() }),
        }
    }

    /// Build an η-node unless `val` is invariant in the exited loop.
    ///
    /// `loop_mus` are the μ-nodes of the specific loop being exited: if
    /// `val` does not (transitively) depend on any of them, its value at the
    /// exit iteration is its value anywhere, and no η is needed. This check
    /// is part of symbolic evaluation (it uses exact loop identity available
    /// only at construction time); the normalizer's η rules use the weaker
    /// depth-tagged invariance check instead.
    pub fn eta(&mut self, depth: u32, cond: NodeId, val: NodeId, loop_mus: &[NodeId]) -> NodeId {
        if !self.depends_on(val, loop_mus) {
            return val;
        }
        if cond == val {
            // η(c, c): at the first exiting iteration the exit condition is
            // true by definition.
            return self.true_();
        }
        self.add(Node::Eta { depth, cond, val })
    }

    /// True if `root` transitively reaches any node in `targets`.
    pub fn depends_on(&self, root: NodeId, targets: &[NodeId]) -> bool {
        if targets.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            if targets.contains(&n) {
                return true;
            }
            self.node(n).for_each_child(|c| stack.push(c));
        }
        false
    }

    /// Render the subgraph rooted at `root` as an S-expression, cutting
    /// cycles at μ-nodes (printed as `mu<id>` on re-visit). For tests and
    /// debugging.
    pub fn display(&self, root: NodeId) -> String {
        let mut out = String::new();
        let mut on_path = vec![false; self.nodes.len()];
        self.fmt_rec(root, &mut on_path, &mut out);
        out
    }

    fn fmt_rec(&self, id: NodeId, on_path: &mut Vec<bool>, out: &mut String) {
        use std::fmt::Write;
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
                if let Node::Mu { .. } = n {
                    let _ = write!(out, "{}", id.0);
                }
                n.for_each_child(|c| {
                    out.push(' ');
                    self.fmt_rec(c, on_path, out);
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

    #[test]
    fn interning_dedups_structurally_equal_nodes() {
        let mut g = ValueGraph::new();
        let a = g.add(Node::Param(0));
        let b = g.add(Node::Param(1));
        let s1 = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
        let s2 = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
        assert_eq!(s1, s2);
        let s3 = g.add(Node::Bin(BinOp::Add, Ty::I64, b, a));
        assert_ne!(s1, s3, "interning is structural, not semantic");
    }

    /// Distinct home slots of `nodes` in a 4,096-slot `HashSlots` table,
    /// which indexes by the hash's low bits. Uniformly random hashes of
    /// 4,096 distinct nodes would hit about 2,589 slots.
    fn home_slots(nodes: impl Iterator<Item = Node>) -> usize {
        nodes.map(|n| node_hash(&n) & 4095).collect::<std::collections::HashSet<_>>().len()
    }

    #[test]
    fn node_hash_spreads_sequential_children_over_low_bits() {
        // Nodes over small sequential child ids are the common shape.
        let adds = (0..64).flat_map(|a| {
            (0..64).map(move |b| Node::Bin(BinOp::Add, Ty::I64, NodeId(a), NodeId(b)))
        });
        let n = home_slots(adds);
        assert!(n >= 3000, "only {n} distinct home slots");
    }

    #[test]
    fn node_hash_spreads_keys_that_differ_in_high_bits() {
        // Float constants differ in their top bits only. A hash whose low
        // bits come straight from its last multiply puts all of them in
        // one home slot, and folding `h ^ h >> 32` puts them in 8.
        let floats = (0..4096).map(|k| Node::Const(Constant::Float((k as f64).to_bits())));
        let n = home_slots(floats);
        assert!(n >= 2400, "only {n} distinct home slots");
    }

    #[test]
    fn mu_nodes_are_nominal() {
        let mut g = ValueGraph::new();
        let zero = g.add(Node::Const(Constant::int(Ty::I64, 0)));
        let m1 = g.new_mu(1, zero);
        let m2 = g.new_mu(1, zero);
        assert_ne!(m1, m2);
        let one = g.add(Node::Const(Constant::int(Ty::I64, 1)));
        let next = g.add(Node::Bin(BinOp::Add, Ty::I64, m1, one));
        g.patch_mu(m1, next);
        match g.node(m1) {
            Node::Mu { next: n, .. } => assert_eq!(*n, next),
            _ => panic!("not a mu"),
        }
    }

    #[test]
    fn phi_smart_constructor_collapses() {
        let mut g = ValueGraph::new();
        let c = g.add(Node::Param(0));
        let x = g.add(Node::Param(1));
        let y = g.add(Node::Param(2));
        let nc = g.not(c);
        // All branches equal -> the value itself.
        assert_eq!(g.phi(vec![(c, x), (nc, x)]), x);
        // Constant-true branch wins.
        let t = g.true_();
        assert_eq!(g.phi(vec![(t, y), (c, x)]), y);
        // Constant-false branches are dropped.
        let f = g.false_();
        assert_eq!(g.phi(vec![(f, y), (c, x)]), x);
        // Otherwise a phi node is built.
        let p = g.phi(vec![(c, x), (nc, y)]);
        assert!(matches!(g.node(p), Node::Phi { .. }));
    }

    #[test]
    fn boolean_helpers_fold_units() {
        let mut g = ValueGraph::new();
        let x = g.add(Node::Param(0));
        let t = g.true_();
        let f = g.false_();
        assert_eq!(g.and(t, x), x);
        assert_eq!(g.and(x, f), f);
        assert_eq!(g.or(f, x), x);
        assert_eq!(g.or(x, t), t);
        assert_eq!(g.and(x, x), x);
        let n = g.not(x);
        assert_eq!(g.not(n), x, "double negation folds");
    }

    #[test]
    fn and_or_are_order_canonical() {
        let mut g = ValueGraph::new();
        let x = g.add(Node::Param(0));
        let y = g.add(Node::Param(1));
        assert_eq!(g.and(x, y), g.and(y, x));
        assert_eq!(g.or(x, y), g.or(y, x));
    }

    #[test]
    fn eta_skips_invariant_values() {
        let mut g = ValueGraph::new();
        let x = g.add(Node::Param(0));
        let c = g.add(Node::Param(1));
        let zero = g.add(Node::Const(Constant::int(Ty::I64, 0)));
        let mu = g.new_mu(1, zero);
        // Invariant value: no eta.
        assert_eq!(g.eta(1, c, x, &[mu]), x);
        // Loop-varying value: eta built.
        let one = g.add(Node::Const(Constant::int(Ty::I64, 1)));
        let next = g.add(Node::Bin(BinOp::Add, Ty::I64, mu, one));
        g.patch_mu(mu, next);
        let e = g.eta(1, c, mu, &[mu]);
        assert!(matches!(g.node(e), Node::Eta { .. }));
    }

    #[test]
    fn display_cuts_cycles() {
        let mut g = ValueGraph::new();
        let zero = g.add(Node::Const(Constant::int(Ty::I64, 0)));
        let mu = g.new_mu(1, zero);
        let one = g.add(Node::Const(Constant::int(Ty::I64, 1)));
        let next = g.add(Node::Bin(BinOp::Add, Ty::I64, mu, one));
        g.patch_mu(mu, next);
        let s = g.display(mu);
        assert!(s.contains("mu"), "{s}");
        assert!(s.contains("add"), "{s}");
    }
}
