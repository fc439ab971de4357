//! Normalization rules (paper §4).
//!
//! Rules are grouped exactly as the paper's ablation studies toggle them
//! (Figs. 6–8):
//!
//! | group | contents |
//! |---|---|
//! | [`RuleSet::phi`] | boolean rules (1)–(4) and φ rules (5)–(6) |
//! | [`RuleSet::constfold`] | integer constant folding, arithmetic identities and LLVM canonicalizations (`a+a ↓ shl a 1`, `mul a 2ᵏ ↓ shl a k`, `add x (−k) ↓ sub x k`, constant-to-the-right comparison swaps) |
//! | [`RuleSet::loadstore`] | rules (10)–(11), store-over-store elimination, non-aliasing store reordering, loads jumping over loop memory, and the observable-memory purge of dead stack stores |
//! | [`RuleSet::eta`] | rules (7)–(9): η over an invariant stream drops, η whose exit fires on the first iteration projects the first value |
//! | [`RuleSet::commuting`] | η push-down toward the matching μs, φ-congruence pulling (`φ{c→f(a), ¬c→f(b)} ↓ f(φ{c→a,¬c→b})`) — how the two versions of an unswitched loop re-merge — and, under saturation only, η pull-up |
//! | [`RuleSet::libc`] | opt-in "insider knowledge of libc" (§5.3): `strlen`/`atoi` jump non-aliasing stores and loops, `memset` forwarding |
//! | [`RuleSet::float`] | opt-in floating-point constant folding (off by default, as in the paper) |
//!
//! Every rule *replaces a node by an equal node*: applying one records a
//! union in the [`SharedGraph`]; the engine then rebuilds hash-consing and
//! repeats, mirroring "apply rules / maximize sharing" from §4.

use crate::alias::{must_alias, no_alias, ptr_info, stack_rooted, Escapes, GBase};
use crate::graph::SharedGraph;
use gated_ssa::node::{Node, NodeId};
use lir::inst::{
    eval_binop, eval_cast, eval_fbinop, eval_fcmp, eval_icmp, BinOp, CastOp, IcmpPred,
};
use lir::types::Ty;
use lir::value::Constant;
use std::collections::{HashMap, HashSet};

/// Version of the rule catalogue and rewrite engines. It is part of every
/// validator's wire encoding, which `llvm-md serve` hashes into the stamp of
/// each persisted verdict, so changing what a rule can prove invalidates
/// stale store lines instead of replaying them.
pub const RULE_ENGINE_VERSION: u64 = 1;

/// Which rule groups are enabled. Mirrors the paper's ablation axes.
///
/// # Example
///
/// The paper's ablation groups assemble from these toggles: Figs. 6–8
/// accumulate them cumulatively, and §5.3's libc knowledge is strictly
/// opt-in. The §3.1 running example (`a*(3+3) + a*(3+3)` vs `(a*6) << 1`)
/// needs the constant-folding group — with no rules, the same
/// transformation is a (false) alarm:
///
/// ```
/// use lir::parse::parse_module;
/// use llvm_md_core::{RuleSet, Validator};
///
/// // Fig. 6 step 1 is no rules at all; step 3 adds φ + constant folding;
/// // the paper default enables every general group but not libc/float.
/// assert_eq!(RuleSet::fig6_step(1), RuleSet::none());
/// assert!(RuleSet::fig6_step(3).constfold && !RuleSet::fig6_step(3).loadstore);
/// assert!(RuleSet::all().phi && !RuleSet::all().libc);
/// assert!(RuleSet::full().libc && RuleSet::full().float);
///
/// let orig = parse_module(
///     "define i64 @f(i64 %a) {\nentry:\n  %x1 = add i64 3, 3\n  %x2 = mul i64 %a, %x1\n  %x3 = add i64 %x2, %x2\n  ret i64 %x3\n}\n",
/// )?;
/// let opt = parse_module(
///     "define i64 @f(i64 %a) {\nentry:\n  %y1 = mul i64 %a, 6\n  %y2 = shl i64 %y1, 1\n  ret i64 %y2\n}\n",
/// )?;
/// let with = |rules| Validator { rules, ..Validator::new() }
///     .validate(&orig.functions[0], &opt.functions[0])
///     .validated;
/// assert!(!with(RuleSet::none()), "no rules: false alarm");
/// assert!(with(RuleSet::all()), "paper default: validated");
/// # Ok::<(), lir::parse::ParseError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleSet {
    /// Boolean rules (1)–(4) and φ simplification (5)–(6).
    pub phi: bool,
    /// Constant folding, identities, LLVM canonicalizations.
    pub constfold: bool,
    /// Memory rules (10)–(11) and friends.
    pub loadstore: bool,
    /// η rules (7)–(9).
    pub eta: bool,
    /// Commuting rules (η push-down, φ pulling, η pull-up).
    pub commuting: bool,
    /// libc knowledge (opt-in; §5.3).
    pub libc: bool,
    /// Floating-point folding (opt-in; the paper leaves it out).
    pub float: bool,
}

impl RuleSet {
    /// No rules at all: pure symbolic evaluation + hash-consing.
    pub fn none() -> RuleSet {
        RuleSet {
            phi: false,
            constfold: false,
            loadstore: false,
            eta: false,
            commuting: false,
            libc: false,
            float: false,
        }
    }

    /// The paper's default configuration: every general and
    /// optimization-specific rule, but no libc knowledge and no float
    /// folding (their stated false-alarm sources).
    pub fn all() -> RuleSet {
        RuleSet {
            phi: true,
            constfold: true,
            loadstore: true,
            eta: true,
            commuting: true,
            libc: false,
            float: false,
        }
    }

    /// Everything, including the opt-in groups.
    pub fn full() -> RuleSet {
        RuleSet { libc: true, float: true, ..RuleSet::all() }
    }

    /// The cumulative configurations of Fig. 6 (GVN): 1 = no rules,
    /// 2 = +φ, 3 = +constant folding, 4 = +load/store, 5 = +η,
    /// 6 = +commuting.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not in `1..=6`.
    pub fn fig6_step(step: usize) -> RuleSet {
        assert!((1..=6).contains(&step), "fig6 has steps 1..=6");
        let mut r = RuleSet::none();
        for &group in &Group::ALL[..step - 1] {
            *r.toggle(group) = true;
        }
        r
    }

    /// The cumulative configurations of Fig. 8 (SCCP): 1 = no rules,
    /// 2 = +constant folding, 3 = +φ, 4 = all rules.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not in `1..=4`.
    pub fn fig8_step(step: usize) -> RuleSet {
        assert!((1..=4).contains(&step), "fig8 has steps 1..=4");
        match step {
            1 => RuleSet::none(),
            2 => RuleSet { constfold: true, ..RuleSet::none() },
            3 => RuleSet { constfold: true, phi: true, ..RuleSet::none() },
            _ => RuleSet::all(),
        }
    }

    /// The toggle for `group`.
    fn toggle(&mut self, group: Group) -> &mut bool {
        match group {
            Group::Phi => &mut self.phi,
            Group::ConstFold => &mut self.constfold,
            Group::LoadStore => &mut self.loadstore,
            Group::Eta => &mut self.eta,
            Group::Commuting => &mut self.commuting,
            Group::Libc => &mut self.libc,
            Group::Float => &mut self.float,
        }
    }

    /// Is `group` enabled?
    fn enables(mut self, group: Group) -> bool {
        *self.toggle(group)
    }
}

impl Default for RuleSet {
    fn default() -> Self {
        RuleSet::all()
    }
}

/// Rewrite counts per rule group (for reports and the fig. 6–8 harness).
#[derive(Clone, Copy, Debug, Default, Eq)]
pub struct RewriteCounts {
    /// φ/boolean rewrites.
    pub phi: u64,
    /// Constant folds and canonicalizations.
    pub constfold: u64,
    /// Memory rewrites.
    pub loadstore: u64,
    /// η rewrites.
    pub eta: u64,
    /// Commuting rewrites.
    pub commuting: u64,
    /// libc rewrites.
    pub libc: u64,
    /// Float folds.
    pub float: u64,
}

impl RewriteCounts {
    pub(crate) fn bump(&mut self, group: Group) {
        match group {
            Group::Phi => self.phi += 1,
            Group::ConstFold => self.constfold += 1,
            Group::LoadStore => self.loadstore += 1,
            Group::Eta => self.eta += 1,
            Group::Commuting => self.commuting += 1,
            Group::Libc => self.libc += 1,
            Group::Float => self.float += 1,
        }
    }

    /// Total rewrites.
    pub fn total(&self) -> u64 {
        self.phi
            + self.constfold
            + self.loadstore
            + self.eta
            + self.commuting
            + self.libc
            + self.float
    }
}

/// Which group produced a rewrite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Group {
    Phi,
    ConstFold,
    LoadStore,
    Eta,
    Commuting,
    Libc,
    Float,
}

impl Group {
    /// Every group in the paper's rule order: the destructive engine's
    /// priority, the wire order of [`RewriteCounts`], and — its first five
    /// entries — the order in which Fig. 6 accumulates groups.
    const ALL: [Group; 7] = [
        Group::Phi,
        Group::ConstFold,
        Group::LoadStore,
        Group::Eta,
        Group::Commuting,
        Group::Libc,
        Group::Float,
    ];

    /// Try this group's rules on `n`.
    fn rewrite(self, g: &mut SharedGraph, n: &Node, cx: &RuleCtx) -> Option<NodeId> {
        match self {
            Group::Phi => try_phi(g, n),
            Group::ConstFold => try_constfold(g, n),
            Group::LoadStore => try_loadstore(g, n, cx),
            Group::Eta => try_eta(g, n),
            Group::Commuting => try_commuting(g, n),
            Group::Libc => try_libc(g, n, cx),
            Group::Float => try_float(g, n),
        }
    }
}

/// How a rule sees the children of the node it is matching.
///
/// The destructive engine only ever sees a child as its canonical
/// representative; the saturation engine exposes the child's whole e-class,
/// so a memory rule can match a `Store` that a previous rewrite demoted to a
/// non-representative member. Only the child-structure-inspecting memory
/// rules consult the view — pure rules read constants through
/// representatives, which the saturation engine keeps honest by rerooting
/// constant-bearing classes ([`SharedGraph::reroot`]).
pub(crate) enum ClassView<'a> {
    /// A child is its canonical representative only (destructive engine).
    Rep,
    /// A child is its whole e-class: representative → ascending member ids.
    Members(&'a HashMap<NodeId, Vec<NodeId>>),
}

impl ClassView<'_> {
    /// The structural variants of child `id` under this view, representative
    /// first. Congruent duplicates (members resolving to a structure already
    /// listed) are dropped — they add no matching power.
    pub(crate) fn variants(&self, g: &SharedGraph, id: NodeId) -> Vec<Node> {
        let rep = g.find(id);
        let mut out = vec![g.resolve(rep)];
        if let ClassView::Members(members) = self {
            if let Some(ms) = members.get(&rep) {
                for &m in ms {
                    if m == rep {
                        continue;
                    }
                    let n = g.resolve_at(m);
                    if !out.contains(&n) {
                        out.push(n);
                    }
                }
            }
        }
        out
    }
}

/// Everything a rewrite attempt needs besides the graph: the enabled rule
/// groups, the per-sweep analyses, and the child view.
pub(crate) struct RuleCtx<'a> {
    pub(crate) rules: &'a RuleSet,
    pub(crate) esc: &'a Escapes,
    pub(crate) dead: &'a HashSet<NodeId>,
    pub(crate) view: ClassView<'a>,
}

/// Compute the per-sweep analyses the rules consult — escapes and dead
/// allocas — from a liveness vector.
pub(crate) fn sweep_analyses(g: &SharedGraph, live: &[bool]) -> (Escapes, HashSet<NodeId>) {
    let esc = Escapes::compute(g, live);
    let dead = dead_allocas(g, live, &esc);
    (esc, dead)
}

/// Apply one sweep of the enabled rules over the live graph. Returns the
/// number of rewrites performed (0 = fixpoint reached).
pub fn apply_rules(
    g: &mut SharedGraph,
    roots: &[NodeId],
    rules: &RuleSet,
    counts: &mut RewriteCounts,
) -> usize {
    let live = g.live_set(roots);
    let (esc, dead) = sweep_analyses(g, &live);
    let cx = RuleCtx { rules, esc: &esc, dead: &dead, view: ClassView::Rep };
    let mut rewrites = 0;
    let upper = live.len(); // nodes added during the sweep are visited next round
    for (i, &is_live) in live.iter().enumerate().take(upper) {
        if !is_live {
            continue;
        }
        let id = NodeId(i as u32);
        if g.find(id) != id {
            continue;
        }
        let n = g.resolve(id);
        if let Some((new, group)) = rewrite_first(g, &n, &cx) {
            if g.replace(id, new) {
                rewrites += 1;
                counts.bump(group);
            }
        }
    }
    rewrites
}

/// The destructive engine's dispatch: the first rule group that matches `n`
/// wins (group priority is the paper's rule order).
fn rewrite_first(g: &mut SharedGraph, n: &Node, cx: &RuleCtx) -> Option<(NodeId, Group)> {
    Group::ALL
        .into_iter()
        .filter(|&group| cx.rules.enables(group))
        .find_map(|group| Some((group.rewrite(g, n, cx)?, group)))
}

/// The saturation engine's dispatch: *every* enabled rule group gets a shot
/// at `n`, and each hit is pushed into `out`. Non-destructive union-ing
/// keeps all the results, so no group may shadow another the way
/// [`rewrite_first`]'s priority order does.
pub(crate) fn rewrite_all(
    g: &mut SharedGraph,
    n: &Node,
    cx: &RuleCtx,
    out: &mut Vec<(NodeId, Group)>,
) {
    for group in Group::ALL {
        if cx.rules.enables(group) {
            if let Some(new) = group.rewrite(g, n, cx) {
                out.push((new, group));
            }
        }
    }
    if cx.rules.phi {
        bool_sat(g, n, out);
    }
    if cx.rules.commuting {
        eta_pull(g, n, cx, out);
    }
}

/// η pull-up — the saturation-only inverse of the commuting η push-down:
/// `f(η(c,x), y) = η(c, f(x, y))` for a pure operator whose η children
/// share one loop exit and whose other children are invariant at that
/// depth. As a destructive rewrite this direction would fight the
/// push-down forever; as a union the two forms coexist, and pulling the η
/// out lets the rebuilt body meet the exit condition itself (`η(c,c)`).
/// Child ηs are matched over class *variants*, not representatives — after
/// a destructive pass the pushed form is canonical and the η survives only
/// as a member.
fn eta_pull(g: &mut SharedGraph, n: &Node, cx: &RuleCtx, out: &mut Vec<(NodeId, Group)>) {
    if !matches!(
        n,
        Node::Bin(..)
            | Node::FBin(..)
            | Node::Icmp(..)
            | Node::Fcmp(..)
            | Node::Cast(..)
            | Node::Gep(..)
    ) {
        return;
    }
    let children = n.children();
    // Anchor the shared loop exit (depth, cond) on the first η variant
    // found, then require every other η child to match it.
    let mut dc: Option<(u32, NodeId)> = None;
    let mut vals: HashMap<NodeId, NodeId> = HashMap::new();
    for &ch in &children {
        if vals.contains_key(&ch) {
            continue;
        }
        for v in cx.view.variants(g, ch) {
            if let Node::Eta { depth, cond, val } = v {
                match dc {
                    None => {
                        dc = Some((depth, g.find(cond)));
                        vals.insert(ch, g.find(val));
                    }
                    Some((d, c)) if depth == d && g.same(cond, c) => {
                        vals.insert(ch, g.find(val));
                    }
                    Some(_) => continue,
                }
                break;
            }
        }
    }
    let Some((d, c)) = dc else { return };
    for &ch in &children {
        if vals.contains_key(&ch) {
            continue;
        }
        if varies_at_depth(g, ch, d) {
            return;
        }
        vals.insert(ch, g.find(ch));
    }
    let mut inner = n.clone();
    inner.map_children(|ch| vals[&ch]);
    let body = g.add(inner);
    out.push((eta_or_self(g, d, c, body), Group::Commuting));
}

/// Boolean-algebra equalities usable only under saturation — hence pushed
/// from [`rewrite_all`] and absent from [`rewrite_first`]: as destructive
/// rewrites, associativity loops and factoring destroys the expanded form
/// another rule may still need, but as e-class unions they let gate
/// conditions that the two pipelines assembled in different orders meet in
/// the middle. `i1` values only; commutativity is already handled by
/// operand canonicalization.
fn bool_sat(g: &mut SharedGraph, n: &Node, out: &mut Vec<(NodeId, Group)>) {
    let Node::Bin(op, Ty::I1, a, b) = n else { return };
    let op = *op;
    let (a, b) = (g.find(*a), g.find(*b));
    if op == BinOp::Xor {
        // Double negation and De Morgan, on ¬w = xor(true, w).
        let w = if is_const_bool(g, a, true) {
            b
        } else if is_const_bool(g, b, true) {
            a
        } else {
            return;
        };
        match g.resolve(w) {
            // ¬¬p = p.
            Node::Bin(BinOp::Xor, Ty::I1, p, q) if is_const_bool(g, p, true) => {
                out.push((g.find(q), Group::Phi));
            }
            Node::Bin(BinOp::Xor, Ty::I1, p, q) if is_const_bool(g, q, true) => {
                out.push((g.find(p), Group::Phi));
            }
            // ¬(p ∧ q) = ¬p ∨ ¬q, ¬(p ∨ q) = ¬p ∧ ¬q.
            Node::Bin(i @ (BinOp::And | BinOp::Or), Ty::I1, p, q) => {
                let d = if i == BinOp::And { BinOp::Or } else { BinOp::And };
                let np = mk_not(g, p);
                let nq = mk_not(g, q);
                out.push((g.add(Node::Bin(d, Ty::I1, np, nq)), Group::Phi));
            }
            _ => {}
        }
        return;
    }
    if !matches!(op, BinOp::And | BinOp::Or) {
        return;
    }
    let dual = if op == BinOp::And { BinOp::Or } else { BinOp::And };
    // Complement: P ∧ ¬P = false, P ∨ ¬P = true.
    if not_of(g, a, b) || not_of(g, b, a) {
        out.push((bool_const(g, op == BinOp::Or), Group::Phi));
        return;
    }
    for (x, y) in [(a, b), (b, a)] {
        if let Node::Bin(i, Ty::I1, p, q) = g.resolve(y) {
            if i == dual {
                // Absorption: P ∧ (P ∨ Q) = P, P ∨ (P ∧ Q) = P.
                if g.same(p, x) || g.same(q, x) {
                    out.push((x, Group::Phi));
                }
                // Reduced absorption — the path-condition law:
                // P ∨ (¬P ∧ E) = P ∨ E and P ∧ (¬P ∨ E) = P ∧ E.
                if not_of(g, p, x) || not_of(g, x, p) {
                    out.push((g.add(Node::Bin(op, Ty::I1, x, q)), Group::Phi));
                }
                if not_of(g, q, x) || not_of(g, x, q) {
                    out.push((g.add(Node::Bin(op, Ty::I1, x, p)), Group::Phi));
                }
            }
            // Associativity: (p ∘ q) ∘ x joins both regroupings.
            if i == op {
                let qx = g.add(Node::Bin(op, Ty::I1, q, x));
                out.push((g.add(Node::Bin(op, Ty::I1, p, qx)), Group::Phi));
                let px = g.add(Node::Bin(op, Ty::I1, p, x));
                out.push((g.add(Node::Bin(op, Ty::I1, q, px)), Group::Phi));
            }
        }
    }
    // Factoring: (P∧Q) ∨ (P∧R) = P ∧ (Q∨R), and dually.
    if let (Node::Bin(ia, Ty::I1, p, q), Node::Bin(ib, Ty::I1, r, s)) = (g.resolve(a), g.resolve(b))
    {
        if ia == dual && ib == dual {
            for (c1, o1, c2, o2) in [(p, q, r, s), (p, q, s, r), (q, p, r, s), (q, p, s, r)] {
                if g.same(c1, c2) {
                    let rest = g.add(Node::Bin(op, Ty::I1, o1, o2));
                    out.push((g.add(Node::Bin(dual, Ty::I1, c1, rest)), Group::Phi));
                }
            }
        }
    }
}

/// Does `x` resolve to `¬y` (canonically `xor true y`)?
fn not_of(g: &SharedGraph, x: NodeId, y: NodeId) -> bool {
    if let Node::Bin(BinOp::Xor, Ty::I1, u, v) = g.resolve(x) {
        (is_const_bool(g, u, true) && g.same(v, y)) || (is_const_bool(g, v, true) && g.same(u, y))
    } else {
        false
    }
}

// ---------------------------------------------------------------------------
// Small constructors shared by the rules.
// ---------------------------------------------------------------------------

fn konst(g: &mut SharedGraph, c: Constant) -> NodeId {
    g.add(Node::Const(c))
}

fn bool_const(g: &mut SharedGraph, b: bool) -> NodeId {
    konst(g, Constant::bool(b))
}

fn as_const(g: &SharedGraph, n: NodeId) -> Option<Constant> {
    match g.node(g.find(n)) {
        Node::Const(c) => Some(*c),
        _ => None,
    }
}

fn as_int_bits(g: &SharedGraph, n: NodeId) -> Option<u64> {
    as_const(g, n).and_then(Constant::as_bits)
}

fn is_const_bool(g: &SharedGraph, n: NodeId, want: bool) -> bool {
    as_const(g, n).is_some_and(|c| if want { c.is_true() } else { c.is_false() })
}

fn mk_not(g: &mut SharedGraph, x: NodeId) -> NodeId {
    if let Some(c) = as_const(g, x) {
        if c.is_true() {
            return bool_const(g, false);
        }
        if c.is_false() {
            return bool_const(g, true);
        }
    }
    if let Node::Bin(BinOp::Xor, Ty::I1, a, b) = *g.node(g.find(x)) {
        if is_const_bool(g, b, true) {
            return a;
        }
        if is_const_bool(g, a, true) {
            return b;
        }
    }
    let t = bool_const(g, true);
    g.add(Node::Bin(BinOp::Xor, Ty::I1, x, t))
}

// ---------------------------------------------------------------------------
// φ and boolean rules (paper rules 1–6).
// ---------------------------------------------------------------------------

fn try_phi(g: &mut SharedGraph, n: &Node) -> Option<NodeId> {
    match n {
        // Rules (1)–(2): comparisons of a value with itself.
        Node::Icmp(pred, _, a, b) if g.same(*a, *b) => {
            use IcmpPred::*;
            let v = match pred {
                Eq | Ule | Uge | Sle | Sge => true,
                Ne | Ult | Ugt | Slt | Sgt => false,
            };
            Some(bool_const(g, v))
        }
        // Rules (3)–(4): comparisons with boolean constants.
        Node::Icmp(pred, Ty::I1, a, b) if matches!(pred, IcmpPred::Eq | IcmpPred::Ne) => {
            let (x, k) = if as_const(g, *b).is_some() {
                (*a, *b)
            } else if as_const(g, *a).is_some() {
                (*b, *a)
            } else {
                return None;
            };
            let kc = as_const(g, k)?;
            let keep =
                (kc.is_true() && *pred == IcmpPred::Eq) || (kc.is_false() && *pred == IcmpPred::Ne);
            if !kc.is_true() && !kc.is_false() {
                return None;
            }
            Some(if keep { x } else { mk_not(g, x) })
        }
        Node::Phi { branches } => {
            // Rule (5): a branch whose conditions are all true wins.
            if let Some(&(_, v)) = branches.iter().find(|(c, _)| is_const_bool(g, *c, true)) {
                return Some(v);
            }
            // Dead branches (condition false) are dropped.
            let live: Vec<(NodeId, NodeId)> =
                branches.iter().copied().filter(|(c, _)| !is_const_bool(g, *c, false)).collect();
            if live.len() < branches.len() {
                return Some(rebuild_phi(g, live));
            }
            // Rule (6): all branches carry the same value.
            if let Some(&(_, v0)) = branches.first() {
                if branches.iter().all(|(_, v)| g.same(*v, v0)) {
                    return Some(v0);
                }
            }
            // Boolean φ of its own gate: φ{c→true, d→false} is c.
            if branches.len() == 2 {
                let (c0, v0) = branches[0];
                let (c1, v1) = branches[1];
                if is_const_bool(g, v0, true) && is_const_bool(g, v1, false) {
                    return Some(c0);
                }
                if is_const_bool(g, v0, false) && is_const_bool(g, v1, true) {
                    return Some(c1);
                }
            }
            None
        }
        _ => None,
    }
}

fn rebuild_phi(g: &mut SharedGraph, branches: Vec<(NodeId, NodeId)>) -> NodeId {
    match branches.as_slice() {
        [] => bool_const(g, false), // unreachable value
        [(_, v)] => *v,
        _ => g.add(Node::Phi { branches: branches.into_boxed_slice() }),
    }
}

// ---------------------------------------------------------------------------
// Constant folding, identities and LLVM canonicalizations.
// ---------------------------------------------------------------------------

fn try_constfold(g: &mut SharedGraph, n: &Node) -> Option<NodeId> {
    match n {
        Node::Bin(op, ty, a, b) => {
            // Fold const op const.
            if let (Some(x), Some(y)) = (as_int_bits(g, *a), as_int_bits(g, *b)) {
                if let Ok(v) = eval_binop(*op, *ty, x, y) {
                    return Some(konst(g, Constant::int(*ty, ty.sext(v))));
                }
                return None; // trapping fold: leave it alone
            }
            // For commutative ops the constant may sit on either side
            // (operand order is canonicalized by id, not by kind).
            let (a, b) =
                if op.is_commutative() && as_const(g, *a).is_some() && as_const(g, *b).is_none() {
                    (b, a)
                } else {
                    (a, b)
                };
            let kb = as_int_bits(g, *b);
            let ones = ty.mask();
            match (op, kb) {
                // x + 0, x - 0, x << 0, x >> 0, x | 0, x ^ 0 are x.
                (
                    BinOp::Add
                    | BinOp::Sub
                    | BinOp::Shl
                    | BinOp::LShr
                    | BinOp::AShr
                    | BinOp::Or
                    | BinOp::Xor,
                    Some(0),
                ) => return Some(*a),
                // x * 1 and x / 1 are x; x * 0 and 0 are 0.
                (BinOp::Mul | BinOp::UDiv | BinOp::SDiv, Some(1)) => return Some(*a),
                (BinOp::Mul, Some(0)) | (BinOp::And, Some(0)) => {
                    return Some(konst(g, Constant::int(*ty, 0)))
                }
                (BinOp::URem | BinOp::SRem, Some(1)) => {
                    return Some(konst(g, Constant::int(*ty, 0)))
                }
                (BinOp::And, Some(k)) if k == ones => return Some(*a),
                (BinOp::Or, Some(k)) if k == ones => {
                    return Some(konst(g, Constant::int(*ty, ty.sext(ones))))
                }
                // mul a 2^k  ↓  shl a k  (LLVM prefers the shift; paper §4).
                (BinOp::Mul, Some(k)) if k.is_power_of_two() => {
                    let sh = konst(g, Constant::int(*ty, k.trailing_zeros() as i64));
                    return Some(g.add(Node::Bin(BinOp::Shl, *ty, *a, sh)));
                }
                // add x (−k)  ↓  sub x k  (paper §4).
                (BinOp::Add, Some(k)) if *ty != Ty::I1 && ty.sext(k) < 0 => {
                    let pos = konst(g, Constant::int(*ty, -ty.sext(k)));
                    return Some(g.add(Node::Bin(BinOp::Sub, *ty, *a, pos)));
                }
                _ => {}
            }
            // x - x = 0, x ^ x = 0, x & x = x, x | x = x.
            if g.same(*a, *b) {
                match op {
                    BinOp::Sub | BinOp::Xor => return Some(konst(g, Constant::int(*ty, 0))),
                    BinOp::And | BinOp::Or => return Some(*a),
                    // a + a  ↓  shl a 1  (paper §4).
                    BinOp::Add if *ty != Ty::I1 => {
                        let one = konst(g, Constant::int(*ty, 1));
                        return Some(g.add(Node::Bin(BinOp::Shl, *ty, *a, one)));
                    }
                    _ => {}
                }
            }
            None
        }
        Node::Icmp(pred, ty, a, b) => {
            if let (Some(x), Some(y)) = (as_int_bits(g, *a), as_int_bits(g, *b)) {
                return Some(bool_const(g, eval_icmp(*pred, *ty, x, y)));
            }
            None
        }
        Node::Cast(op, from, to, v) => {
            if matches!(op, CastOp::Zext | CastOp::Sext | CastOp::Trunc) {
                if let Some(x) = as_int_bits(g, *v) {
                    return Some(konst(
                        g,
                        Constant::int(*to, to.sext(eval_cast(*op, *from, *to, x))),
                    ));
                }
            }
            None
        }
        // gep p, 0  is  p.
        Node::Gep(p, off) if as_int_bits(g, *off) == Some(0) => Some(*p),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Memory rules (paper rules 10–11 and the DSE/ObsMem family).
// ---------------------------------------------------------------------------

fn try_loadstore(g: &mut SharedGraph, n: &Node, cx: &RuleCtx) -> Option<NodeId> {
    let esc = cx.esc;
    match n {
        Node::Load { ty, ptr, mem } => {
            for mv in cx.view.variants(g, *mem) {
                match mv {
                    // Rule (11): load of a just-stored value.
                    Node::Store { ty: sty, val, ptr: q, mem: m2 } => {
                        if sty == *ty && must_alias(g, *ptr, q) {
                            return Some(val);
                        }
                        // Rule (10): the load jumps over a non-aliasing store.
                        if no_alias(g, Some(esc), *ptr, ty.bytes(), q, sty.bytes()) {
                            return Some(g.add(Node::Load { ty: *ty, ptr: *ptr, mem: m2 }));
                        }
                    }
                    // Loads jump over loops whose stores can't alias the
                    // pointer (what GVN+LICM exploit to keep loads out of
                    // loops).
                    Node::Mu { init, next, .. } => {
                        let Some(writers) = collect_loop_writers(g, g.find(*mem), next) else {
                            continue;
                        };
                        if writers.iter().any(|w| w.is_call) && !cx.rules.libc {
                            continue;
                        }
                        if writers
                            .iter()
                            .all(|w| no_alias(g, Some(esc), *ptr, ty.bytes(), w.ptr, w.size))
                        {
                            return Some(g.add(Node::Load { ty: *ty, ptr: *ptr, mem: init }));
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        Node::Store { ty, val, ptr, mem } => {
            // Dead-alloca purge: nothing ever reads this allocation.
            if let GBase::Alloca(a) = ptr_info(g, *ptr).base {
                if cx.dead.contains(&g.find(a)) {
                    return Some(*mem);
                }
            }
            // Storing back a value just loaded from the same place is a no-op.
            for vv in cx.view.variants(g, *val) {
                if let Node::Load { ty: lty, ptr: lp, mem: lm } = vv {
                    if lty == *ty && g.same(lm, *mem) && must_alias(g, lp, *ptr) {
                        return Some(*mem);
                    }
                }
            }
            for mv in cx.view.variants(g, *mem) {
                if let Node::Store { ty: ity, val: ival, ptr: q, mem: m2 } = mv {
                    // Store-over-store (DSE): the inner store is overwritten.
                    if ity == *ty && must_alias(g, *ptr, q) {
                        return Some(g.add(Node::Store { ty: *ty, val: *val, ptr: *ptr, mem: m2 }));
                    }
                    // Canonical order for provably independent stores, so
                    // chains compare equal regardless of emission order and
                    // dead stack stores can bubble up to the ObsMem root.
                    if no_alias(g, Some(esc), *ptr, ty.bytes(), q, ity.bytes())
                        && g.find(q) < g.find(*ptr)
                    {
                        let inner = g.add(Node::Store { ty: *ty, val: *val, ptr: *ptr, mem: m2 });
                        return Some(g.add(Node::Store { ty: ity, val: ival, ptr: q, mem: inner }));
                    }
                }
            }
            None
        }
        // The observable-memory root ignores stores to stack memory (dead
        // at return) and distributes over merges. Stack stores deeper in
        // the chain are removed by the dead-alloca purge below once nothing
        // loads from them.
        Node::ObsMem(m) => {
            for mv in cx.view.variants(g, *m) {
                match mv {
                    Node::Store { ptr, mem, .. } if stack_rooted(g, ptr) => {
                        return Some(g.add(Node::ObsMem(mem)));
                    }
                    Node::CallMem { callee, args, mem } => {
                        let name = g.callee_name(callee).to_owned();
                        if cx.rules.libc && write_dest(&name).is_some() && stack_rooted(g, args[0])
                        {
                            return Some(g.add(Node::ObsMem(mem)));
                        }
                    }
                    Node::Phi { branches } => {
                        let bs: Vec<(NodeId, NodeId)> =
                            branches.iter().map(|&(c, v)| (c, g.add(Node::ObsMem(v)))).collect();
                        return Some(g.add(Node::Phi { branches: bs.into_boxed_slice() }));
                    }
                    Node::Eta { depth, cond, val } => {
                        let inner = g.add(Node::ObsMem(val));
                        return Some(g.add(Node::Eta { depth, cond, val: inner }));
                    }
                    Node::InitMem => return Some(g.add(Node::InitMem)),
                    _ => {}
                }
            }
            None
        }
        _ => None,
    }
}

/// Allocas whose contents are provably never observed: non-escaping and
/// not may-aliased by any live load. Stores to them are invisible —
/// removing them from memory chains is the validator's mirror of DSE.
/// Recomputed every sweep: once a load is rewritten away, the alloca it
/// read may become dead on the next sweep.
fn dead_allocas(
    g: &SharedGraph,
    live: &[bool],
    esc: &Escapes,
) -> std::collections::HashSet<NodeId> {
    let mut allocas = Vec::new();
    let mut reads: Vec<(NodeId, u64)> = Vec::new();
    for (i, &is_live) in live.iter().enumerate() {
        if !is_live {
            continue;
        }
        let id = NodeId(i as u32);
        if g.find(id) != id {
            continue;
        }
        match g.node(id) {
            Node::Alloca { size, .. } => allocas.push((id, *size)),
            Node::Load { ty, ptr, .. } => reads.push((g.find(*ptr), ty.bytes())),
            _ => {}
        }
    }
    allocas
        .into_iter()
        .filter(|&(a, asize)| {
            !esc.escaped(g, a)
                && reads
                    .iter()
                    .all(|&(p, psize)| !crate::alias::may_alias(g, Some(esc), p, psize, a, asize))
        })
        .map(|(a, _)| a)
        .collect()
}

/// A memory write found in a loop's cycle.
struct LoopWriter {
    ptr: NodeId,
    size: u64,
    is_call: bool,
}

/// Collect every write in the memory cycle of μ-class `mu` (following memory
/// chains from back edge `next` toward the μ). Returns `None` when an
/// unknown writer (arbitrary call) or unexpected structure is found. `next`
/// is passed in rather than read from the class representative so a μ
/// *member* of a mixed class can be walked too.
fn collect_loop_writers(g: &SharedGraph, mu: NodeId, next: NodeId) -> Option<Vec<LoopWriter>> {
    let mut out = Vec::new();
    let mut stack = vec![g.find(next)];
    let mut seen = std::collections::HashSet::new();
    let mut steps = 0;
    while let Some(m) = stack.pop() {
        let m = g.find(m);
        if m == mu || !seen.insert(m) {
            continue;
        }
        steps += 1;
        if steps > 512 {
            return None;
        }
        match g.resolve(m) {
            Node::Store { ty, ptr, mem, .. } => {
                out.push(LoopWriter { ptr, size: ty.bytes(), is_call: false });
                stack.push(mem);
            }
            Node::CallMem { callee, args, mem } => {
                let name = g.callee_name(callee);
                let (di, li) = write_dest(name)?;
                let size = as_int_bits(g, args[li]).unwrap_or(u64::MAX);
                out.push(LoopWriter { ptr: args[di], size, is_call: true });
                stack.push(mem);
            }
            Node::Phi { branches } => {
                for (_, v) in branches.iter() {
                    stack.push(*v);
                }
            }
            Node::Eta { val, .. } => stack.push(val),
            Node::Mu { init, next, .. } => {
                // An inner loop's memory μ: both its entry and its body are
                // part of the outer cycle.
                stack.push(init);
                stack.push(next);
            }
            _ => return None, // escaped the cycle: unexpected shape
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// η rules (paper rules 7–9).
// ---------------------------------------------------------------------------

/// Does the value of `v` vary across iterations of a depth-`d` loop?
///
/// Structural check: a raw μ at depth `d` reachable without crossing an η
/// that closes a loop at depth ≤ `d` (or entering an outer loop's μ). The
/// gating construction guarantees inner-loop values only escape through
/// their η, so any raw μ at depth `d` found this way belongs to the loop in
/// question.
pub fn varies_at_depth(g: &SharedGraph, v: NodeId, d: u32) -> bool {
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![g.find(v)];
    while let Some(n) = stack.pop() {
        let n = g.find(n);
        if !seen.insert(n) {
            continue;
        }
        match g.node(n) {
            Node::Mu { depth, .. } if *depth == d => return true,
            Node::Mu { depth, .. } if *depth < d => continue,
            Node::Eta { depth, .. } if *depth <= d => continue,
            other => other.for_each_child(|c| stack.push(c)),
        }
    }
    false
}

/// Project the per-iteration stream `n` of a depth-`d` loop to its value at
/// the *first* iteration (μs of the loop become their initial values).
/// Returns `None` when the projection would require cloning inner loops or
/// exceeds the node budget.
fn project_first(
    g: &mut SharedGraph,
    n: NodeId,
    d: u32,
    budget: &mut u32,
    memo: &mut HashMap<NodeId, Option<NodeId>>,
) -> Option<NodeId> {
    let n = g.find(n);
    if !varies_at_depth(g, n, d) {
        return Some(n);
    }
    if let Some(cached) = memo.get(&n) {
        return *cached;
    }
    if *budget == 0 {
        return None;
    }
    *budget -= 1;
    memo.insert(n, None); // cycle guard: fail re-entrant projections
    let res = match g.resolve(n) {
        Node::Mu { depth, init, .. } if depth == d => Some(g.find(init)),
        // Cloning inner loops or crossing η is out of budget for a
        // normalization rule; bail.
        Node::Mu { .. } | Node::Eta { .. } => None,
        mut other => {
            let mut ok = true;
            let mut proj: HashMap<NodeId, NodeId> = HashMap::new();
            other.for_each_child(|c| {
                if ok && !proj.contains_key(&c) {
                    match project_first(g, c, d, budget, memo) {
                        Some(p) => {
                            proj.insert(c, p);
                        }
                        None => ok = false,
                    }
                }
            });
            if ok {
                other.map_children(|c| proj[&c]);
                Some(g.add(other))
            } else {
                None
            }
        }
    };
    memo.insert(n, res);
    res
}

fn try_eta(g: &mut SharedGraph, n: &Node) -> Option<NodeId> {
    let Node::Eta { depth, cond, val } = *n else {
        return None;
    };
    // Rules (8)–(9): the stream does not vary in this loop.
    if !varies_at_depth(g, val, depth) {
        return Some(g.find(val));
    }
    // η(c, c): the condition at the exit iteration is true by definition.
    if g.same(cond, val) {
        return Some(bool_const(g, true));
    }
    // Rule (7): the loop exits on its first iteration; the η selects the
    // first value of the stream.
    let mut budget = 96;
    let mut memo = HashMap::new();
    let first_cond = project_first(g, cond, depth, &mut budget, &mut memo)?;
    if is_const_bool(g, first_cond, true) {
        let mut budget = 96;
        let mut memo = HashMap::new();
        return project_first(g, val, depth, &mut budget, &mut memo);
    }
    None
}

// ---------------------------------------------------------------------------
// Commuting rules: η push-down, φ pulling.
// ---------------------------------------------------------------------------

fn eta_or_self(g: &mut SharedGraph, depth: u32, cond: NodeId, v: NodeId) -> NodeId {
    if varies_at_depth(g, v, depth) {
        if g.same(cond, v) {
            return bool_const(g, true);
        }
        g.add(Node::Eta { depth, cond, val: v })
    } else {
        g.find(v)
    }
}

fn try_commuting(g: &mut SharedGraph, n: &Node) -> Option<NodeId> {
    match n {
        // η push-down: move ηs toward the μs they select from (the paper's
        // "push down η-nodes to get them close to the matching μ-nodes").
        Node::Eta { depth, cond, val } => {
            let inner = g.resolve(*val);
            // Pure operators only: pushing η into memory nodes would bury
            // store chains under η wrappers and starve rules (10)-(11).
            let pushable = matches!(
                inner,
                Node::Bin(..)
                    | Node::FBin(..)
                    | Node::Icmp(..)
                    | Node::Fcmp(..)
                    | Node::Cast(..)
                    | Node::Gep(..)
                    | Node::Phi { .. }
            );
            if !pushable {
                return None;
            }
            let mut inner = inner;
            let (d, c) = (*depth, *cond);
            let mut mapped: HashMap<NodeId, NodeId> = HashMap::new();
            inner.for_each_child(|ch| {
                mapped.entry(ch).or_insert_with(|| eta_or_self(g, d, c, ch));
            });
            inner.map_children(|ch| mapped[&ch]);
            Some(g.add(inner))
        }
        // φ pulling: φ{c→f(a…), d→f(b…)} with a uniform slot becomes
        // f(φ{c→a…}) — this is how unswitched loop bodies re-merge.
        Node::Phi { branches } if branches.len() >= 2 => {
            let shapes: Vec<Node> = branches.iter().map(|(_, v)| g.resolve(*v)).collect();
            let first = &shapes[0];
            let arity = first.children().len();
            if arity == 0 {
                return None;
            }
            let same_shape = shapes.iter().all(|s| {
                let mut a = s.clone();
                let mut b = first.clone();
                a.map_children(|_| NodeId(0));
                b.map_children(|_| NodeId(0));
                a == b
            });
            if !same_shape {
                return None;
            }
            let child_rows: Vec<Vec<NodeId>> = shapes.iter().map(Node::children).collect();
            let uniform =
                (0..arity).any(|j| child_rows.iter().all(|r| g.same(r[j], child_rows[0][j])));
            if !uniform {
                return None;
            }
            // μ/η/alloca children must not be φ-pulled (their identity is
            // positional); restrict to pure shapes.
            if !matches!(
                first,
                Node::Bin(..)
                    | Node::FBin(..)
                    | Node::Icmp(..)
                    | Node::Fcmp(..)
                    | Node::Cast(..)
                    | Node::Gep(..)
            ) {
                return None;
            }
            let conds: Vec<NodeId> = branches.iter().map(|(c, _)| *c).collect();
            let mut new_children = Vec::with_capacity(arity);
            for j in 0..arity {
                if child_rows.iter().all(|r| g.same(r[j], child_rows[0][j])) {
                    new_children.push(g.find(child_rows[0][j]));
                } else {
                    let bs: Vec<(NodeId, NodeId)> =
                        conds.iter().copied().zip(child_rows.iter().map(|r| r[j])).collect();
                    new_children.push(g.add(Node::Phi { branches: bs.into_boxed_slice() }));
                }
            }
            let mut pulled = first.clone();
            let mut j = 0;
            pulled.map_children(|_| {
                let c = new_children[j];
                j += 1;
                c
            });
            Some(g.add(pulled))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// libc knowledge (§5.3, opt-in).
// ---------------------------------------------------------------------------

/// Pointer-argument indices a readonly libc function reads through.
fn readonly_ptr_args(name: &str) -> Option<&'static [usize]> {
    match name {
        "strlen" | "atoi" | "ext_ro" => Some(&[0]),
        _ => None,
    }
}

/// `(destination index, length index)` for known arg-only writers.
fn write_dest(name: &str) -> Option<(usize, usize)> {
    match name {
        "memset" | "memcpy" => Some((0, 2)),
        _ => None,
    }
}

fn try_libc(g: &mut SharedGraph, n: &Node, cx: &RuleCtx) -> Option<NodeId> {
    let esc = cx.esc;
    match n {
        // Readonly calls jump over non-aliasing memory effects (the
        // `strlen`-hoisted-by-LICM case of §5.3, and the atoi reordering).
        Node::CallVal { callee, ret, args, mem } => {
            let name = g.callee_name(*callee).to_owned();
            let reads = readonly_ptr_args(&name)?;
            let read_ptrs: Vec<NodeId> = reads.iter().map(|&i| args[i]).collect();
            for mv in cx.view.variants(g, *mem) {
                match mv {
                    Node::Store { ty, ptr, mem: m2, .. }
                        if read_ptrs
                            .iter()
                            .all(|&p| no_alias(g, Some(esc), p, u64::MAX, ptr, ty.bytes())) =>
                    {
                        return Some(g.add(Node::CallVal {
                            callee: *callee,
                            ret: *ret,
                            args: args.clone(),
                            mem: m2,
                        }));
                    }
                    Node::CallMem { callee: wc, args: wargs, mem: m2 } => {
                        let wname = g.callee_name(wc).to_owned();
                        let Some((di, li)) = write_dest(&wname) else { continue };
                        let wsize = as_int_bits(g, wargs[li]).unwrap_or(u64::MAX);
                        if read_ptrs
                            .iter()
                            .all(|&p| no_alias(g, Some(esc), p, u64::MAX, wargs[di], wsize))
                        {
                            return Some(g.add(Node::CallVal {
                                callee: *callee,
                                ret: *ret,
                                args: args.clone(),
                                mem: m2,
                            }));
                        }
                    }
                    Node::Mu { init, next, .. } => {
                        let Some(writers) = collect_loop_writers(g, g.find(*mem), next) else {
                            continue;
                        };
                        if writers.iter().all(|w| {
                            read_ptrs
                                .iter()
                                .all(|&p| no_alias(g, Some(esc), p, u64::MAX, w.ptr, w.size))
                        }) {
                            return Some(g.add(Node::CallVal {
                                callee: *callee,
                                ret: *ret,
                                args: args.clone(),
                                mem: init,
                            }));
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        // memset forwarding: a load fully inside a constant memset region
        // yields the splatted byte (paper §5.3's second example rule).
        Node::Load { ty, ptr, mem } => {
            if !ty.is_int() {
                return None;
            }
            for mv in cx.view.variants(g, *mem) {
                let Node::CallMem { callee, args, mem: m2 } = mv else { continue };
                let name = g.callee_name(callee).to_owned();
                if name != "memset" {
                    continue;
                }
                let Some(raw_byte) = as_int_bits(g, args[1]) else { continue };
                let byte = raw_byte & 0xff;
                let Some(len) = as_int_bits(g, args[2]) else { continue };
                let pi = ptr_info(g, *ptr);
                let di = ptr_info(g, args[0]);
                let same = match (pi.base, di.base) {
                    (GBase::Alloca(a), GBase::Alloca(b)) => g.find(a) == g.find(b),
                    (GBase::Global(a), GBase::Global(b)) => a == b,
                    (GBase::Param(a), GBase::Param(b)) => a == b,
                    _ => false,
                };
                if !same {
                    // Maybe it's *outside* the memset: then the load jumps it.
                    if no_alias(g, Some(esc), *ptr, ty.bytes(), args[0], len) {
                        return Some(g.add(Node::Load { ty: *ty, ptr: *ptr, mem: m2 }));
                    }
                    continue;
                }
                let (Some(po), Some(do_)) = (pi.offset, di.offset) else { continue };
                if po >= do_
                    && po.saturating_add(ty.bytes() as i64) <= do_.saturating_add(len as i64)
                {
                    let mut v: u64 = 0;
                    for i in 0..ty.bytes() {
                        v |= byte << (8 * i);
                    }
                    return Some(konst(g, Constant::int(*ty, ty.sext(v))));
                }
            }
            None
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Float folding (opt-in).
// ---------------------------------------------------------------------------

fn try_float(g: &mut SharedGraph, n: &Node) -> Option<NodeId> {
    match n {
        Node::FBin(op, a, b) => {
            let (Some(Constant::Float(x)), Some(Constant::Float(y))) =
                (as_const(g, *a), as_const(g, *b))
            else {
                return None;
            };
            Some(konst(g, Constant::Float(eval_fbinop(*op, x, y))))
        }
        Node::Fcmp(pred, a, b) => {
            let (Some(Constant::Float(x)), Some(Constant::Float(y))) =
                (as_const(g, *a), as_const(g, *b))
            else {
                return None;
            };
            Some(bool_const(g, eval_fcmp(*pred, x, y)))
        }
        Node::Cast(op, from, to, v) if matches!(op, CastOp::FpToSi | CastOp::SiToFp) => {
            let c = as_const(g, *v)?;
            let bits = match c {
                Constant::Float(b) => b,
                _ => c.as_bits()?,
            };
            let out = eval_cast(*op, *from, *to, bits);
            Some(match op {
                CastOp::SiToFp => konst(g, Constant::Float(out)),
                _ => konst(g, Constant::int(*to, to.sext(out))),
            })
        }
        _ => None,
    }
}
