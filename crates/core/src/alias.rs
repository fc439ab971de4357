//! Alias queries over value-graph pointers.
//!
//! The validator's memory rules (paper §4, rules 10–11) need the same "may
//! alias" facts the optimizer used: distinct stack allocations never alias;
//! allocas never alias globals or incoming pointer arguments; `gep`s off the
//! same base with disjoint constant ranges never alias. This module mirrors
//! `lir-opt`'s `alias` analysis, but over graph nodes: an allocation's
//! identity is its `Alloca` *node* (same chain position ⇒ same allocation),
//! which is exactly what makes the rules stable under the optimizer's code
//! motion.

use crate::graph::SharedGraph;
use gated_ssa::node::{Node, NodeId};
use lir::func::GlobalId;

/// The provenance of a graph pointer value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GBase {
    /// A stack allocation (its `Alloca` node).
    Alloca(NodeId),
    /// A module global.
    Global(GlobalId),
    /// An incoming pointer argument.
    Param(u32),
    /// Anything else (loaded pointers, call results, φ/η-merged pointers…).
    Unknown,
}

/// A pointer described as base + optional constant byte offset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GPtrInfo {
    /// Where the pointer comes from.
    pub base: GBase,
    /// Byte offset from the base, when statically known.
    pub offset: Option<i64>,
}

/// Chase `gep` chains to a pointer's base.
pub fn ptr_info(g: &SharedGraph, mut p: NodeId) -> GPtrInfo {
    let mut offset: i64 = 0;
    let mut known = true;
    for _ in 0..64 {
        p = g.find(p);
        match g.node(p) {
            Node::GlobalAddr(gid) => {
                return GPtrInfo { base: GBase::Global(*gid), offset: known.then_some(offset) }
            }
            Node::Param(i) => {
                return GPtrInfo { base: GBase::Param(*i), offset: known.then_some(offset) }
            }
            Node::Alloca { .. } => {
                return GPtrInfo { base: GBase::Alloca(p), offset: known.then_some(offset) }
            }
            Node::Gep(base, off) => {
                match g.node(g.find(*off)) {
                    Node::Const(c) => match c.as_int() {
                        Some(k) => offset = offset.wrapping_add(k),
                        None => known = false,
                    },
                    _ => known = false,
                }
                p = *base;
            }
            _ => return GPtrInfo { base: GBase::Unknown, offset: None },
        }
    }
    GPtrInfo { base: GBase::Unknown, offset: None }
}

/// Escape analysis over the live graph: an `Alloca` node escapes if it (or a
/// `gep` derived from it) is used anywhere other than as a load/store
/// *address*. Mirrors `lir-opt`'s `non_escaping_allocas`.
#[derive(Debug)]
pub struct Escapes {
    escaped: Vec<bool>,
}

impl Escapes {
    /// Compute escape facts for all live nodes.
    pub fn compute(g: &SharedGraph, live: &[bool]) -> Escapes {
        // derives[n] = true when n is an alloca or a gep chain off one.
        let mut derives = vec![false; g.len()];
        for (i, &is_live) in live.iter().enumerate().take(g.len()) {
            if !is_live {
                continue;
            }
            let id = NodeId(i as u32);
            if g.find(id) != id {
                continue;
            }
            match g.node(id) {
                Node::Alloca { .. } => derives[i] = true,
                Node::Gep(b, _) => derives[i] = derives[g.find(*b).index()],
                _ => {}
            }
        }
        // Iterate: geps can precede their base in id order after unions.
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..g.len() {
                if !live[i] || derives[i] {
                    continue;
                }
                let id = NodeId(i as u32);
                if g.find(id) != id {
                    continue;
                }
                if let Node::Gep(b, _) = g.node(id) {
                    if derives[g.find(*b).index()] && !derives[i] {
                        derives[i] = true;
                        changed = true;
                    }
                }
            }
        }
        let mut escaped = vec![false; g.len()];
        let mark = |g: &SharedGraph, escaped: &mut Vec<bool>, n: NodeId| {
            let n = g.find(n);
            if derives[n.index()] {
                // Taint the base alloca.
                let info = ptr_info(g, n);
                if let GBase::Alloca(a) = info.base {
                    escaped[a.index()] = true;
                }
                // Unknown-base geps over allocas: conservative, taint via walk.
                escaped[n.index()] = true;
            }
        };
        for (i, &is_live) in live.iter().enumerate().take(g.len()) {
            if !is_live {
                continue;
            }
            let id = NodeId(i as u32);
            if g.find(id) != id {
                continue;
            }
            match *g.node(id) {
                Node::Load { ptr: _, mem: _, .. } => {} // address use: fine
                Node::Store { val, ptr: _, mem: _, .. } => mark(g, &mut escaped, val),
                Node::CallPure { ref args, .. }
                | Node::CallVal { ref args, .. }
                | Node::CallMem { ref args, .. } => {
                    for a in args.iter() {
                        mark(g, &mut escaped, *a);
                    }
                }
                Node::Bin(_, _, a, b) | Node::Icmp(_, _, a, b) => {
                    mark(g, &mut escaped, a);
                    mark(g, &mut escaped, b);
                }
                Node::Phi { ref branches } => {
                    for (_, v) in branches.iter() {
                        mark(g, &mut escaped, *v);
                    }
                }
                Node::Eta { val, .. } => mark(g, &mut escaped, val),
                Node::Mu { init, next, .. } => {
                    mark(g, &mut escaped, init);
                    mark(g, &mut escaped, next);
                }
                Node::Cast(_, _, _, v) => mark(g, &mut escaped, v),
                _ => {}
            }
        }
        Escapes { escaped }
    }

    /// True when `alloca` (an `Alloca` node id) may have escaped.
    pub fn escaped(&self, g: &SharedGraph, alloca: NodeId) -> bool {
        self.escaped[g.find(alloca).index()]
    }
}

/// Are the two bases provably the same / different?
fn same_base(g: &SharedGraph, esc: Option<&Escapes>, a: GBase, b: GBase) -> Option<bool> {
    use GBase::*;
    match (a, b) {
        (Alloca(x), Alloca(y)) => Some(g.find(x) == g.find(y)),
        (Global(x), Global(y)) => Some(x == y),
        (Param(x), Param(y)) if x == y => Some(true),
        (Alloca(_), Global(_) | Param(_)) | (Global(_) | Param(_), Alloca(_)) => Some(false),
        (Alloca(x), Unknown) | (Unknown, Alloca(x)) => match esc {
            Some(e) if !e.escaped(g, x) => Some(false),
            _ => None,
        },
        (Global(_), Param(_)) | (Param(_), Global(_)) => None,
        (Param(_), Param(_)) => None,
        (Unknown, _) | (_, Unknown) => None,
    }
}

/// May an access of `asize` bytes at `a` overlap `bsize` bytes at `b`?
pub fn may_alias(
    g: &SharedGraph,
    esc: Option<&Escapes>,
    a: NodeId,
    asize: u64,
    b: NodeId,
    bsize: u64,
) -> bool {
    let ia = ptr_info(g, a);
    let ib = ptr_info(g, b);
    match same_base(g, esc, ia.base, ib.base) {
        Some(false) => false,
        Some(true) => match (ia.offset, ib.offset) {
            (Some(ao), Some(bo)) => {
                !(ao.saturating_add(asize as i64) <= bo || bo.saturating_add(bsize as i64) <= ao)
            }
            _ => true,
        },
        None => true,
    }
}

/// True when the two accesses provably cannot overlap.
pub fn no_alias(
    g: &SharedGraph,
    esc: Option<&Escapes>,
    a: NodeId,
    asize: u64,
    b: NodeId,
    bsize: u64,
) -> bool {
    !may_alias(g, esc, a, asize, b, bsize)
}

/// True when the two pointers are provably identical addresses.
pub fn must_alias(g: &SharedGraph, a: NodeId, b: NodeId) -> bool {
    if g.same(a, b) {
        return true;
    }
    let ia = ptr_info(g, a);
    let ib = ptr_info(g, b);
    same_base(g, None, ia.base, ib.base) == Some(true)
        && ia.offset.is_some()
        && ia.offset == ib.offset
}

/// True when `p` is (a `gep` chain off) a stack allocation — the accesses
/// the `ObsMem` purge rule may drop.
pub fn stack_rooted(g: &SharedGraph, p: NodeId) -> bool {
    matches!(ptr_info(g, p).base, GBase::Alloca(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::types::Ty;
    use lir::value::Constant;

    fn setup() -> (SharedGraph, NodeId, NodeId, NodeId) {
        let mut g = SharedGraph::new();
        let chain = g.add(Node::InitAlloc);
        let a1 = g.add(Node::Alloca { size: 8, align: 8, chain });
        let a2 = g.add(Node::Alloca { size: 8, align: 8, chain: a1 });
        let p = g.add(Node::Param(0));
        (g, a1, a2, p)
    }

    #[test]
    fn distinct_allocas_do_not_alias() {
        let (g, a1, a2, _) = setup();
        assert!(no_alias(&g, None, a1, 8, a2, 8));
        assert!(!no_alias(&g, None, a1, 8, a1, 8));
        assert!(must_alias(&g, a1, a1));
        assert!(!must_alias(&g, a1, a2));
    }

    #[test]
    fn alloca_never_aliases_params_or_globals() {
        let (mut g, a1, _, p) = setup();
        assert!(no_alias(&g, None, a1, 8, p, 8));
        let gl = g.add(Node::GlobalAddr(GlobalId(0)));
        assert!(no_alias(&g, None, a1, 8, gl, 8));
        // Params may alias globals and each other.
        assert!(may_alias(&g, None, p, 8, gl, 8));
    }

    #[test]
    fn gep_offsets_disambiguate() {
        let (mut g, a1, _, _) = setup();
        let k0 = g.add(Node::Const(Constant::int(Ty::I64, 0)));
        let k8 = g.add(Node::Const(Constant::int(Ty::I64, 8)));
        let p0 = g.add(Node::Gep(a1, k0));
        let p8 = g.add(Node::Gep(a1, k8));
        assert!(no_alias(&g, None, p0, 8, p8, 8));
        assert!(may_alias(&g, None, p0, 16, p8, 8), "overlapping ranges");
        assert!(must_alias(&g, p0, a1));
    }

    #[test]
    fn same_param_offsets() {
        let (mut g, _, _, p) = setup();
        let k4 = g.add(Node::Const(Constant::int(Ty::I64, 4)));
        let q = g.add(Node::Gep(p, k4));
        assert!(no_alias(&g, None, p, 4, q, 4));
        assert!(may_alias(&g, None, p, 8, q, 4));
    }

    #[test]
    fn stack_rooted_sees_through_geps() {
        let (mut g, a1, _, p) = setup();
        let k8 = g.add(Node::Const(Constant::int(Ty::I64, 8)));
        let gp = g.add(Node::Gep(a1, k8));
        assert!(stack_rooted(&g, a1));
        assert!(stack_rooted(&g, gp));
        assert!(!stack_rooted(&g, p));
    }

    #[test]
    fn escape_analysis_flags_stored_allocas() {
        let mut g = SharedGraph::new();
        let chain = g.add(Node::InitAlloc);
        let a = g.add(Node::Alloca { size: 8, align: 8, chain });
        let b = g.add(Node::Alloca { size: 8, align: 8, chain: a });
        let m0 = g.add(Node::InitMem);
        // a's address is stored somewhere: it escapes. b is only accessed.
        let st = g.add(Node::Store { ty: Ty::Ptr, val: a, ptr: b, mem: m0 });
        let live = g.live_set(&[st]);
        let esc = Escapes::compute(&g, &live);
        assert!(esc.escaped(&g, a));
        assert!(!esc.escaped(&g, b));
        // Unknown pointers may alias escaped allocas, not unescaped ones.
        let ld = g.add(Node::Load { ty: Ty::Ptr, ptr: b, mem: st });
        assert!(may_alias(&g, Some(&esc), a, 8, ld, 8));
        assert!(no_alias(&g, Some(&esc), b, 8, ld, 8));
    }
}
