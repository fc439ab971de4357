//! Alias analysis over `lir` pointers.
//!
//! The same simple "may alias" rules the paper's validator uses (§4): two
//! distinct stack allocations never alias; allocas never alias globals or
//! incoming pointer arguments; pointers built by `gep` with different
//! constant offsets from the same base don't overlap (given access sizes).
//! GVN, LICM and DSE all consult this module.

use crate::util::{def_inst, def_locs, InstLoc};
use lir::func::{Function, GlobalId};
use lir::inst::Inst;
use lir::intern::IdSet;
use lir::value::{Operand, Reg};

/// The provenance of a pointer value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PtrBase {
    /// A stack allocation (register of the defining `alloca`).
    Alloca(Reg),
    /// A module global.
    Global(GlobalId),
    /// An incoming pointer argument.
    Arg(Reg),
    /// Anything else (loaded pointers, call results, φ-merged pointers…).
    Unknown,
}

/// A pointer described as base + optional constant byte offset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PtrInfo {
    /// Where the pointer comes from.
    pub base: PtrBase,
    /// Byte offset from the base, when statically known.
    pub offset: Option<i64>,
}

/// Alias query results.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AliasResult {
    /// The accesses cannot overlap.
    No,
    /// The accesses definitely target the same address.
    Must,
    /// Anything is possible.
    May,
}

/// Pointer-analysis context for one function.
#[derive(Debug)]
pub struct Aliasing {
    defs: Vec<Option<InstLoc>>,
    params: IdSet<Reg>,
    non_escaping: IdSet<Reg>,
}

impl Aliasing {
    /// Build the context for `f`.
    pub fn new(f: &Function) -> Aliasing {
        Aliasing {
            defs: def_locs(f),
            params: f.params.iter().map(|&(r, _)| r).collect(),
            non_escaping: non_escaping_allocas(f),
        }
    }

    /// Describe a pointer operand by chasing `gep` chains to its base.
    pub fn ptr_info(&self, f: &Function, op: Operand) -> PtrInfo {
        let mut offset: i64 = 0;
        let mut known = true;
        let mut cur = op;
        for _ in 0..64 {
            match cur {
                Operand::Global(g) => {
                    return PtrInfo { base: PtrBase::Global(g), offset: known.then_some(offset) }
                }
                Operand::Const(_) => return PtrInfo { base: PtrBase::Unknown, offset: None },
                Operand::Reg(r) => {
                    if self.params.contains(&r) {
                        return PtrInfo { base: PtrBase::Arg(r), offset: known.then_some(offset) };
                    }
                    match def_inst(f, &self.defs, r) {
                        Some(Inst::Alloca { .. }) => {
                            return PtrInfo {
                                base: PtrBase::Alloca(r),
                                offset: known.then_some(offset),
                            }
                        }
                        Some(Inst::Gep { base, offset: off, .. }) => {
                            match off.as_int() {
                                Some(k) => offset = offset.wrapping_add(k),
                                None => known = false,
                            }
                            cur = *base;
                        }
                        _ => return PtrInfo { base: PtrBase::Unknown, offset: None },
                    }
                }
            }
        }
        PtrInfo { base: PtrBase::Unknown, offset: None }
    }

    /// May an access of `asize` bytes at `a` overlap an access of `bsize`
    /// bytes at `b`?
    pub fn alias(
        &self,
        f: &Function,
        a: Operand,
        asize: u64,
        b: Operand,
        bsize: u64,
    ) -> AliasResult {
        let ia = self.ptr_info(f, a);
        let ib = self.ptr_info(f, b);
        match self.same_base(ia.base, ib.base) {
            Some(false) => AliasResult::No,
            Some(true) => match (ia.offset, ib.offset) {
                (Some(ao), Some(bo)) => {
                    if ao == bo && asize == bsize {
                        AliasResult::Must
                    } else if ao.saturating_add(asize as i64) <= bo
                        || bo.saturating_add(bsize as i64) <= ao
                    {
                        AliasResult::No
                    } else {
                        AliasResult::May
                    }
                }
                _ => AliasResult::May,
            },
            None => AliasResult::May,
        }
    }

    /// True when the two accesses cannot overlap.
    pub fn no_alias(&self, f: &Function, a: Operand, asize: u64, b: Operand, bsize: u64) -> bool {
        self.alias(f, a, asize, b, bsize) == AliasResult::No
    }

    /// True when the two pointers are provably identical.
    pub fn must_alias(&self, f: &Function, a: Operand, b: Operand) -> bool {
        if a == b {
            return true;
        }
        let ia = self.ptr_info(f, a);
        let ib = self.ptr_info(f, b);
        self.same_base(ia.base, ib.base) == Some(true)
            && ia.offset.is_some()
            && ia.offset == ib.offset
    }

    /// Are the two bases provably the same (`Some(true)`), provably
    /// different (`Some(false)`), or unknown (`None`)?
    ///
    /// Allocas are fresh allocations, so they never alias globals or
    /// incoming arguments (which existed before the alloca). They only
    /// alias an *unknown* pointer if their address escaped.
    fn same_base(&self, a: PtrBase, b: PtrBase) -> Option<bool> {
        use PtrBase::*;
        match (a, b) {
            (Alloca(x), Alloca(y)) => Some(x == y),
            (Global(x), Global(y)) => Some(x == y),
            (Arg(x), Arg(y)) if x == y => Some(true),
            (Alloca(_), Global(_) | Arg(_)) | (Global(_) | Arg(_), Alloca(_)) => Some(false),
            (Alloca(x), Unknown) | (Unknown, Alloca(x)) => {
                if self.non_escaping.contains(&x) {
                    Some(false)
                } else {
                    None
                }
            }
            (Global(_), Arg(_)) | (Arg(_), Global(_)) => None,
            (Arg(_), Arg(_)) => None,
            (Unknown, _) | (_, Unknown) => None,
        }
    }
}

/// Registers of allocas whose address never escapes the function: the
/// pointer (through `gep` chains) is only used as the address operand of
/// loads and stores. Escaping uses: stored *as a value*, passed to calls,
/// returned, compared, φ/select-merged.
pub fn non_escaping_allocas(f: &Function) -> IdSet<Reg> {
    // Start with all allocas; erase those with a bad use. gep results
    // derived from an alloca are tracked transitively.
    let mut allocas: IdSet<Reg> = IdSet::default();
    for (_, b) in f.iter_blocks() {
        for inst in &b.insts {
            if let Inst::Alloca { dst, .. } = inst {
                allocas.insert(*dst);
            }
        }
    }
    // derived[r] = root alloca reg, if r is (a gep chain from) an alloca.
    let defs = def_locs(f);
    let root_of = |f: &Function, mut op: Operand| -> Option<Reg> {
        for _ in 0..64 {
            match op {
                Operand::Reg(r) => match def_inst(f, &defs, r) {
                    Some(Inst::Alloca { .. }) => return Some(r),
                    Some(Inst::Gep { base, .. }) => op = *base,
                    _ => return None,
                },
                _ => return None,
            }
        }
        None
    };
    let mut escaped: IdSet<Reg> = IdSet::default();
    for (_, b) in f.iter_blocks() {
        for phi in &b.phis {
            for &(_, v) in &phi.incomings {
                if let Some(a) = root_of(f, v) {
                    escaped.insert(a);
                }
            }
        }
        for inst in &b.insts {
            match inst {
                Inst::Load { ptr: _, .. } => {} // address use is fine
                Inst::Store { val, ptr: _, .. } => {
                    // Storing the pointer itself leaks it.
                    if let Some(a) = root_of(f, *val) {
                        escaped.insert(a);
                    }
                }
                Inst::Gep { offset, .. } => {
                    // Base use is fine; an alloca used as *offset* would be
                    // ill-typed anyway.
                    if let Some(a) = root_of(f, *offset) {
                        escaped.insert(a);
                    }
                }
                _ => {
                    inst.visit_operands(|op| {
                        if let Some(a) = root_of(f, op) {
                            escaped.insert(a);
                        }
                    });
                }
            }
        }
        b.term.visit_operands(|op| {
            if let Some(a) = root_of(f, op) {
                escaped.insert(a);
            }
        });
    }
    allocas.retain(|a| !escaped.contains(a));
    allocas
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse::parse_module;

    fn setup(src: &str) -> (lir::func::Module, Aliasing) {
        let m = parse_module(src).unwrap();
        let a = Aliasing::new(&m.functions[0]);
        (m, a)
    }

    #[test]
    fn distinct_allocas_do_not_alias() {
        let (m, aa) = setup(
            "define void @f() {\nentry:\n  %p = alloca 8, align 8\n  %q = alloca 8, align 8\n  store i64 1, ptr %p\n  store i64 2, ptr %q\n  ret void\n}\n",
        );
        let f = &m.functions[0];
        let p = Operand::Reg(Reg(0));
        let q = Operand::Reg(Reg(1));
        assert_eq!(aa.alias(f, p, 8, q, 8), AliasResult::No);
        assert_eq!(aa.alias(f, p, 8, p, 8), AliasResult::Must);
    }

    #[test]
    fn gep_constant_offsets() {
        let (m, aa) = setup(
            "define void @f(ptr %a) {\nentry:\n  %p = alloca 32, align 8\n  %p1 = gep ptr %p, i64 8\n  %p2 = gep ptr %p, i64 16\n  %p3 = gep ptr %p1, i64 8\n  ret void\n}\n",
        );
        let f = &m.functions[0];
        let p1 = Operand::Reg(Reg(2));
        let p2 = Operand::Reg(Reg(3));
        let p3 = Operand::Reg(Reg(4));
        assert_eq!(aa.alias(f, p1, 8, p2, 8), AliasResult::No);
        assert_eq!(aa.alias(f, p2, 8, p3, 8), AliasResult::Must); // both base+16
        assert_eq!(aa.alias(f, p1, 16, p2, 8), AliasResult::May); // 16-byte access overlaps
        assert!(aa.must_alias(f, p2, p3));
    }

    #[test]
    fn alloca_vs_arg_and_global() {
        let src = "\
@g = global [1 x i64] [0]
define void @f(ptr %a) {
entry:
  %p = alloca 8, align 8
  ret void
}
";
        let (m, aa) = setup(src);
        let f = &m.functions[0];
        let p = Operand::Reg(Reg(1));
        let arg = Operand::Reg(Reg(0));
        let g = Operand::Global(GlobalId(0));
        assert_eq!(aa.alias(f, p, 8, arg, 8), AliasResult::No);
        assert_eq!(aa.alias(f, p, 8, g, 8), AliasResult::No);
        assert_eq!(aa.alias(f, arg, 8, g, 8), AliasResult::May);
        assert_eq!(aa.alias(f, arg, 8, arg, 8), AliasResult::Must);
    }

    #[test]
    fn distinct_globals_do_not_alias() {
        let src = "\
@g1 = global [1 x i64] [0]
@g2 = global [1 x i64] [0]
define void @f() {
entry:
  ret void
}
";
        let (m, aa) = setup(src);
        let f = &m.functions[0];
        assert_eq!(
            aa.alias(f, Operand::Global(GlobalId(0)), 8, Operand::Global(GlobalId(1)), 8),
            AliasResult::No
        );
    }

    #[test]
    fn variable_offset_is_may() {
        let (m, aa) = setup(
            "define void @f(i64 %i) {\nentry:\n  %p = alloca 64, align 8\n  %q = gep ptr %p, i64 %i\n  %r = gep ptr %p, i64 8\n  ret void\n}\n",
        );
        let f = &m.functions[0];
        let q = Operand::Reg(Reg(2));
        let r = Operand::Reg(Reg(3));
        assert_eq!(aa.alias(f, q, 8, r, 8), AliasResult::May);
        assert!(!aa.must_alias(f, q, r));
    }

    #[test]
    fn escaped_alloca_may_alias_unknown_pointer() {
        let src = "\
define void @f(ptr %out) {
entry:
  %p = alloca 8, align 8
  %k = alloca 8, align 8
  store ptr %p, ptr %out
  %q = load ptr, ptr %out
  store i64 1, ptr %q
  ret void
}
";
        let (m, aa) = setup(src);
        let f = &m.functions[0];
        let p = Operand::Reg(Reg(1));
        let k = Operand::Reg(Reg(2));
        let q = Operand::Reg(Reg(3));
        // %p escaped: the loaded pointer may point at it.
        assert_eq!(aa.alias(f, p, 8, q, 8), AliasResult::May);
        // %k did not escape: no unknown pointer can reach it.
        assert_eq!(aa.alias(f, k, 8, q, 8), AliasResult::No);
    }

    #[test]
    fn escape_analysis() {
        let src = "\
define i64 @f(ptr %out) {
entry:
  %kept = alloca 8, align 8
  %leak1 = alloca 8, align 8
  %leak2 = alloca 8, align 8
  %leak3 = alloca 16, align 8
  store i64 1, ptr %kept
  store ptr %leak1, ptr %out
  %n = call i64 @strlen(ptr %leak2)
  %g = gep ptr %leak3, i64 8
  %c = icmp eq ptr %g, null
  %v = load i64, ptr %kept
  ret i64 %v
}
";
        let m = parse_module(src).unwrap();
        let ne = non_escaping_allocas(&m.functions[0]);
        assert!(ne.contains(&Reg(1))); // kept
        assert!(!ne.contains(&Reg(2))); // stored as value
        assert!(!ne.contains(&Reg(3))); // passed to call
        assert!(!ne.contains(&Reg(4))); // compared (via gep)
    }
}
