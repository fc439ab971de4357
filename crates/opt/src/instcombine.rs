//! instcombine — local algebraic simplification and canonicalization.
//!
//! This pass performs exactly the rewrites the paper's §4
//! "optimization-specific rules" mirror on the validator side:
//!
//! * constant folding (`add 3 2 ↓ 5`, comparisons, casts);
//! * identities (`x+0`, `x*1`, `x&x`, `x^x`, `x-x`, shifts by 0, …);
//! * LLVM's instruction canonicalizations: `a+a ↓ shl a 1`,
//!   `mul a 2ᵏ ↓ shl a k`, `add x (-k) ↓ sub x k`, constants to the
//!   right-hand side of commutative ops, comparisons with the constant on
//!   the right, and non-strict comparisons against constants rewritten to
//!   strict ones (`sle x C ↓ slt x C+1`);
//! * `select` folding, `gep p 0 ↓ p`;
//! * loads from `constant` globals at known offsets fold to the initializer
//!   value (the "folding of global variables" the paper names as a false-
//!   alarm source, §7).

use crate::util::sweep_trivially_dead;
use crate::{Ctx, Pass};
use lir::func::Function;
use lir::inst::{self, BinOp, IcmpPred, Inst};
use lir::intern::{IdMap, IdSet};
use lir::types::Ty;
use lir::value::{Constant, Operand, Reg};

/// The instcombine pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct InstCombine;

impl Pass for InstCombine {
    fn name(&self) -> &'static str {
        "instcombine"
    }

    fn run(&self, f: &mut Function, ctx: &Ctx<'_>) -> bool {
        run_instcombine(f, ctx)
    }
}

/// Outcome of simplifying one instruction.
enum Simplified {
    /// Replace all uses of the result with this operand; delete the inst.
    Value(Operand),
    /// Replace the instruction body (same destination register).
    Inst(Inst),
}

/// Try to simplify `inst`. `None` = leave unchanged.
fn simplify(inst: &Inst, ctx: &Ctx<'_>) -> Option<Simplified> {
    use Simplified::{Inst as NewInst, Value};
    match inst {
        Inst::Bin { dst, op, ty, a, b } => {
            // Canonicalize: constant to the RHS of commutative ops.
            if op.is_commutative() && a.as_const().is_some() && b.as_const().is_none() {
                return Some(NewInst(Inst::Bin { dst: *dst, op: *op, ty: *ty, a: *b, b: *a }));
            }
            if let (Some(ca), Some(cb)) = (a.as_const(), b.as_const()) {
                if let Some(Ok(c)) = inst::fold_binop(*op, *ty, ca, cb) {
                    return Some(Value(Operand::Const(c)));
                }
            }
            let kb = b.as_const().and_then(Constant::as_int);
            let bits_b = b.as_const().and_then(Constant::as_bits);
            match (op, kb) {
                // x + 0, x - 0, x | 0, x ^ 0, x << 0, x >> 0
                (
                    BinOp::Add
                    | BinOp::Sub
                    | BinOp::Or
                    | BinOp::Xor
                    | BinOp::Shl
                    | BinOp::LShr
                    | BinOp::AShr,
                    Some(0),
                ) => return Some(Value(*a)),
                // x * 1, x /u 1, x /s 1
                (BinOp::Mul | BinOp::UDiv | BinOp::SDiv, Some(1)) => return Some(Value(*a)),
                // x * 0, x & 0
                (BinOp::Mul | BinOp::And, Some(0)) => return Some(Value(Operand::int(*ty, 0))),
                // x & -1 (all ones)
                (BinOp::And, _) if bits_b == Some(ty.mask()) => return Some(Value(*a)),
                // x | -1
                (BinOp::Or, _) if bits_b == Some(ty.mask()) => {
                    return Some(Value(Operand::Const(Constant::Int { bits: ty.mask(), ty: *ty })))
                }
                // mul a 2^k -> shl a k  (LLVM prefers the shift; paper §4)
                (BinOp::Mul, Some(k)) if k > 1 && (k as u64).is_power_of_two() => {
                    return Some(NewInst(Inst::Bin {
                        dst: *dst,
                        op: BinOp::Shl,
                        ty: *ty,
                        a: *a,
                        b: Operand::int(*ty, (k as u64).trailing_zeros() as i64),
                    }));
                }
                // udiv a 2^k -> lshr a k
                (BinOp::UDiv, Some(k)) if k > 1 && (k as u64).is_power_of_two() => {
                    return Some(NewInst(Inst::Bin {
                        dst: *dst,
                        op: BinOp::LShr,
                        ty: *ty,
                        a: *a,
                        b: Operand::int(*ty, (k as u64).trailing_zeros() as i64),
                    }));
                }
                // add x (-k) -> sub x k  (paper §4 lists this exact rule)
                (BinOp::Add, Some(k)) if k < 0 && *ty != Ty::I1 => {
                    return Some(NewInst(Inst::Bin {
                        dst: *dst,
                        op: BinOp::Sub,
                        ty: *ty,
                        a: *a,
                        b: Operand::int(*ty, k.wrapping_neg()),
                    }));
                }
                _ => {}
            }
            if a == b {
                match op {
                    // a + a -> shl a 1 (paper §4)
                    BinOp::Add if *ty != Ty::I1 => {
                        return Some(NewInst(Inst::Bin {
                            dst: *dst,
                            op: BinOp::Shl,
                            ty: *ty,
                            a: *a,
                            b: Operand::int(*ty, 1),
                        }));
                    }
                    // x - x, x ^ x
                    BinOp::Sub | BinOp::Xor => return Some(Value(Operand::int(*ty, 0))),
                    // x & x, x | x
                    BinOp::And | BinOp::Or => return Some(Value(*a)),
                    _ => {}
                }
            }
            None
        }
        Inst::Icmp { dst, pred, ty, a, b } => {
            // Constant to the RHS: `gt 10 a ↓ lt a 10` (paper §4).
            if a.as_const().is_some() && b.as_const().is_none() {
                return Some(NewInst(Inst::Icmp {
                    dst: *dst,
                    pred: pred.swapped(),
                    ty: *ty,
                    a: *b,
                    b: *a,
                }));
            }
            if let (Some(ca), Some(cb)) = (a.as_const(), b.as_const()) {
                if let Some(c) = inst::fold_icmp(*pred, *ty, ca, cb) {
                    return Some(Value(Operand::Const(c)));
                }
            }
            if a == b && !matches!(a, Operand::Const(Constant::Undef(_))) {
                // a == a ↓ true ; a != a ↓ false (paper rules 1–2, plus the
                // non-strict variants).
                let v = matches!(
                    pred,
                    IcmpPred::Eq | IcmpPred::Uge | IcmpPred::Ule | IcmpPred::Sge | IcmpPred::Sle
                );
                return Some(Value(Operand::bool(v)));
            }
            // Non-strict against a constant -> strict: `sle x C ↓ slt x C+1`.
            if ty.is_int() {
                if let Some(k) = b.as_const().and_then(Constant::as_bits) {
                    let adjust = |p: IcmpPred, delta: i64| {
                        let nk = ty.wrap(k.wrapping_add(delta as u64));
                        NewInst(Inst::Icmp {
                            dst: *dst,
                            pred: p,
                            ty: *ty,
                            a: *a,
                            b: Operand::Const(Constant::Int { bits: nk, ty: *ty }),
                        })
                    };
                    let smax = ty.mask() >> 1; // 0111…
                    let smin = smax + 1; // 1000…
                    match pred {
                        IcmpPred::Sle if k != smax => return Some(adjust(IcmpPred::Slt, 1)),
                        IcmpPred::Sge if k != smin => return Some(adjust(IcmpPred::Sgt, -1)),
                        IcmpPred::Ule if k != ty.mask() => return Some(adjust(IcmpPred::Ult, 1)),
                        IcmpPred::Uge if k != 0 => return Some(adjust(IcmpPred::Ugt, -1)),
                        _ => {}
                    }
                }
            }
            None
        }
        Inst::FBin { op, a, b, .. } => {
            if let (Some(ca), Some(cb)) = (a.as_const(), b.as_const()) {
                if let Some(c) = inst::fold_fbinop(*op, ca, cb) {
                    return Some(Value(Operand::Const(c)));
                }
            }
            None
        }
        Inst::Fcmp { pred, a, b, .. } => {
            if let (Some(ca), Some(cb)) = (a.as_const(), b.as_const()) {
                if let Some(c) = inst::fold_fcmp(*pred, ca, cb) {
                    return Some(Value(Operand::Const(c)));
                }
            }
            None
        }
        Inst::Select { c, t, f, .. } => {
            if let Some(cc) = c.as_const() {
                if cc.is_true() {
                    return Some(Value(*t));
                }
                if cc.is_false() {
                    return Some(Value(*f));
                }
            }
            if t == f {
                return Some(Value(*t));
            }
            None
        }
        Inst::Cast { op, from, to, v, .. } => {
            if let Some(c) = v.as_const() {
                if let Some(folded) = inst::fold_cast(*op, *from, *to, c) {
                    return Some(Value(Operand::Const(folded)));
                }
            }
            None
        }
        Inst::Gep { base, offset, .. } => {
            if offset.as_int() == Some(0) {
                return Some(Value(*base));
            }
            None
        }
        Inst::Load { ty, ptr, .. } => {
            // Fold loads from `constant` globals at offset 0; gep-based
            // offsets are handled in the driver loop below.
            if let Operand::Global(g) = ptr {
                let global = ctx.globals.get(g.index())?;
                if global.is_const {
                    return fold_const_global_load(global, 0, *ty).map(Value);
                }
            }
            None
        }
        _ => None,
    }
}

/// Read a `ty`-typed value from a constant global's initializer at byte
/// `offset`. Returns `None` when out of bounds or unfoldable.
pub fn fold_const_global_load(global: &lir::func::Global, offset: i64, ty: Ty) -> Option<Operand> {
    if offset < 0 || (!ty.is_int() && ty != Ty::F64) {
        return None;
    }
    let offset = offset as u64;
    let size = ty.bytes();
    if offset + size > global.size() {
        return None;
    }
    let mut v = 0u64;
    for i in 0..size {
        let byte_index = (offset + i) as usize;
        let word = global.words[byte_index / 8] as u64;
        let byte = (word >> (8 * (byte_index % 8))) & 0xff;
        v |= byte << (8 * i);
    }
    Some(if ty == Ty::F64 {
        Operand::Const(Constant::Float(v))
    } else {
        Operand::Const(Constant::Int { bits: ty.wrap(v), ty })
    })
}

/// Run instcombine to a fixpoint. Returns `true` on change.
pub fn run_instcombine(f: &mut Function, ctx: &Ctx<'_>) -> bool {
    let mut changed = false;
    // Instructions folded to values stay in place (dead) until the final
    // sweep; remember them so they don't re-fire `round` forever.
    let mut folded: IdSet<Reg> = IdSet::default();
    loop {
        let mut round = false;
        let mut replacements: IdMap<Reg, Operand> = IdMap::default();
        // Resolve gep-of-global chains for constant-load folding.
        let gep_info: IdMap<Reg, (u32, i64)> = {
            let mut info = IdMap::default();
            for (_, b) in f.iter_blocks() {
                for inst in &b.insts {
                    if let Inst::Gep { dst, base, offset } = inst {
                        if let (Operand::Global(g), Some(k)) = (base, offset.as_int()) {
                            info.insert(*dst, (g.0, k));
                        } else if let (Operand::Reg(r), Some(k)) = (base, offset.as_int()) {
                            if let Some(&(g, k0)) = info.get(r) {
                                info.insert(*dst, (g, k0.wrapping_add(k)));
                            }
                        }
                    }
                }
            }
            info
        };
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                // Substitute this round's earlier replacements first.
                inst.map_operands(|op| {
                    if let Operand::Reg(r) = op {
                        if let Some(rep) = replacements.get(r) {
                            *op = *rep;
                        }
                    }
                });
                // Const-global load through a gep.
                if let Inst::Load { dst, ty, ptr: Operand::Reg(p) } = inst {
                    if !folded.contains(dst) {
                        if let Some(&(g, off)) = gep_info.get(p) {
                            if let Some(global) = ctx.globals.get(g as usize) {
                                if global.is_const {
                                    if let Some(v) = fold_const_global_load(global, off, *ty) {
                                        replacements.insert(*dst, v);
                                        folded.insert(*dst);
                                        round = true;
                                        continue;
                                    }
                                }
                            }
                        }
                    }
                }
                if inst.dst().is_some_and(|d| folded.contains(&d)) {
                    continue; // already replaced by a value; dead until the sweep
                }
                match simplify(inst, ctx) {
                    Some(Simplified::Value(v)) => {
                        if let Some(d) = inst.dst() {
                            replacements.insert(d, v);
                            folded.insert(d);
                            round = true;
                        }
                    }
                    Some(Simplified::Inst(ni)) => {
                        *inst = ni;
                        round = true;
                    }
                    None => {}
                }
            }
        }
        if !replacements.is_empty() {
            // Rewrite every use (loads being replaced keep their dead body
            // until the sweep below).
            f.map_operands(|op| {
                if let Operand::Reg(r) = op {
                    if let Some(rep) = replacements.get(r) {
                        *op = *rep;
                    }
                }
            });
        }
        if !round {
            break;
        }
        changed = true;
    }
    // Folded const-global loads are provably in-bounds (the fold checked)
    // and now dead; drop them explicitly — the generic sweep keeps loads
    // because they may trap.
    for b in &mut f.blocks {
        b.insts.retain(|i| !matches!(i, Inst::Load { dst, .. } if folded.contains(dst)));
    }
    changed |= sweep_trivially_dead(f);
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse::parse_module;
    use lir::verify::verify_function;

    fn combine(src: &str) -> Function {
        let m = parse_module(src).unwrap();
        let mut f = m.functions[0].clone();
        let ctx = Ctx { globals: &m.globals };
        run_instcombine(&mut f, &ctx);
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        f
    }

    fn only_inst(f: &Function) -> &Inst {
        assert_eq!(f.blocks[0].insts.len(), 1, "{f}");
        &f.blocks[0].insts[0]
    }

    #[test]
    fn folds_constants_and_identities() {
        let f = combine(
            "define i64 @f(i64 %x) {\nentry:\n  %a = add i64 3, 4\n  %b = add i64 %x, 0\n  %c = mul i64 %b, 1\n  %d = add i64 %c, %a\n  ret i64 %d\n}\n",
        );
        match only_inst(&f) {
            Inst::Bin { op: BinOp::Add, a, b, .. } => {
                assert_eq!(*a, Operand::Reg(Reg(0)));
                assert_eq!(b.as_int(), Some(7));
            }
            i => panic!("unexpected {i:?}"),
        }
    }

    #[test]
    fn add_self_becomes_shift() {
        let f =
            combine("define i64 @f(i64 %x) {\nentry:\n  %a = add i64 %x, %x\n  ret i64 %a\n}\n");
        match only_inst(&f) {
            Inst::Bin { op: BinOp::Shl, b, .. } => assert_eq!(b.as_int(), Some(1)),
            i => panic!("unexpected {i:?}"),
        }
    }

    #[test]
    fn mul_pow2_becomes_shift() {
        let f = combine("define i64 @f(i64 %x) {\nentry:\n  %a = mul i64 %x, 8\n  ret i64 %a\n}\n");
        match only_inst(&f) {
            Inst::Bin { op: BinOp::Shl, b, .. } => assert_eq!(b.as_int(), Some(3)),
            i => panic!("unexpected {i:?}"),
        }
    }

    #[test]
    fn add_negative_becomes_sub() {
        let f =
            combine("define i64 @f(i64 %x) {\nentry:\n  %a = add i64 %x, -5\n  ret i64 %a\n}\n");
        match only_inst(&f) {
            Inst::Bin { op: BinOp::Sub, b, .. } => assert_eq!(b.as_int(), Some(5)),
            i => panic!("unexpected {i:?}"),
        }
    }

    #[test]
    fn icmp_canonicalizations() {
        // Constant moves right with swapped predicate: 10 > x ==> x < 10.
        let f =
            combine("define i1 @f(i64 %x) {\nentry:\n  %a = icmp sgt i64 10, %x\n  ret i1 %a\n}\n");
        match only_inst(&f) {
            Inst::Icmp { pred: IcmpPred::Slt, a, b, .. } => {
                assert_eq!(*a, Operand::Reg(Reg(0)));
                assert_eq!(b.as_int(), Some(10));
            }
            i => panic!("unexpected {i:?}"),
        }
        // sle x, 7 ==> slt x, 8
        let f =
            combine("define i1 @f(i64 %x) {\nentry:\n  %a = icmp sle i64 %x, 7\n  ret i1 %a\n}\n");
        match only_inst(&f) {
            Inst::Icmp { pred: IcmpPred::Slt, b, .. } => assert_eq!(b.as_int(), Some(8)),
            i => panic!("unexpected {i:?}"),
        }
        // sle at the signed max must NOT be adjusted (overflow).
        let f =
            combine("define i1 @f(i8 %x) {\nentry:\n  %a = icmp sle i8 %x, 127\n  ret i1 %a\n}\n");
        match only_inst(&f) {
            Inst::Icmp { pred: IcmpPred::Sle, .. } => {}
            i => panic!("unexpected {i:?}"),
        }
    }

    #[test]
    fn reflexive_compare_folds() {
        let f =
            combine("define i1 @f(i64 %x) {\nentry:\n  %a = icmp eq i64 %x, %x\n  ret i1 %a\n}\n");
        assert!(f.blocks[0].insts.is_empty());
        match &f.blocks[0].term {
            lir::inst::Term::Ret { val: Some(v), .. } => assert_eq!(*v, Operand::bool(true)),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn float_constant_folding() {
        let f = combine("define f64 @f() {\nentry:\n  %a = fadd f64 1.5, 2.5\n  ret f64 %a\n}\n");
        assert!(f.blocks[0].insts.is_empty());
    }

    #[test]
    fn const_global_load_folds() {
        let src = "\
@tab = constant [2 x i64] [11, 22]
@mut = global [1 x i64] [33]
define i64 @f() {
entry:
  %a = load i64, ptr @tab
  %p = gep ptr @tab, i64 8
  %b = load i64, ptr %p
  %c = load i64, ptr @mut
  %s = add i64 %a, %b
  %t = add i64 %s, %c
  ret i64 %t
}
";
        let f = combine(src);
        let loads = f.blocks[0].insts.iter().filter(|i| matches!(i, Inst::Load { .. })).count();
        assert_eq!(loads, 1, "{f}");
    }

    #[test]
    fn gep_zero_folds_to_base() {
        let f = combine(
            "define i64 @f(ptr %p) {\nentry:\n  %q = gep ptr %p, i64 0\n  %v = load i64, ptr %q\n  ret i64 %v\n}\n",
        );
        match &f.blocks[0].insts[0] {
            Inst::Load { ptr, .. } => assert_eq!(*ptr, Operand::Reg(Reg(0))),
            i => panic!("unexpected {i:?}"),
        }
    }

    #[test]
    fn behaviour_preserved() {
        use lir::interp::ExecConfig;
        let src = "\
define i64 @f(i64 %x, i64 %y) {
entry:
  %a = add i64 %x, %x
  %b = mul i64 %a, 4
  %c = sub i64 %b, 0
  %d = xor i64 %c, %c
  %e = add i64 %b, %d
  %g = add i64 %e, -3
  %h = icmp sle i64 %g, 100
  %i = select i1 %h, i64 %g, i64 %y
  ret i64 %i
}
";
        let m = parse_module(src).unwrap();
        let mut m2 = m.clone();
        let ctx = Ctx::empty();
        run_instcombine(&mut m2.functions[0], &ctx);
        for args in [[0u64, 0u64], [5, 9], [1000, 3], [u64::MAX, 1]] {
            assert_eq!(
                lir::interp::run(&m, "f", &args, &ExecConfig::default()).unwrap(),
                lir::interp::run(&m2, "f", &args, &ExecConfig::default()).unwrap(),
                "args {args:?}"
            );
        }
    }
}
