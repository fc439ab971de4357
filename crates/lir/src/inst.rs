//! Instructions, terminators, and their shared evaluation semantics.
//!
//! The constant-evaluation helpers in this module ([`eval_binop`],
//! [`eval_icmp`], [`eval_cast`], [`eval_fbinop`], [`eval_fcmp`]) are the
//! single source of truth for arithmetic semantics: the interpreter, the
//! optimizer's constant folding (SCCP, instcombine) and the validator's
//! constant-folding rewrite rules all call them, so they can never disagree.

use crate::func::BlockId;
use crate::known;
use crate::types::Ty;
use crate::value::{Constant, Operand, Reg};

/// Integer binary opcodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division. Traps on a zero divisor.
    UDiv,
    /// Signed division. Traps on a zero divisor or `MIN / -1`.
    SDiv,
    /// Unsigned remainder. Traps on a zero divisor.
    URem,
    /// Signed remainder. Traps on a zero divisor or `MIN % -1`.
    SRem,
    /// Left shift. Shift amounts ≥ width yield 0 (total semantics).
    Shl,
    /// Logical right shift. Shift amounts ≥ width yield 0.
    LShr,
    /// Arithmetic right shift. Shift amounts ≥ width yield the sign fill.
    AShr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl BinOp {
    /// All integer binary opcodes.
    pub const ALL: [BinOp; 13] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::UDiv,
        BinOp::SDiv,
        BinOp::URem,
        BinOp::SRem,
        BinOp::Shl,
        BinOp::LShr,
        BinOp::AShr,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
    ];

    /// The mnemonic, as written in assembly.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::UDiv => "udiv",
            BinOp::SDiv => "sdiv",
            BinOp::URem => "urem",
            BinOp::SRem => "srem",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
        }
    }

    /// True for commutative operations.
    pub fn is_commutative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor)
    }

    /// True if evaluating the op can trap (division/remainder by zero).
    ///
    /// Trapping ops must not be hoisted speculatively by the optimizer and are
    /// not reordered by the validator.
    pub fn may_trap(self) -> bool {
        matches!(self, BinOp::UDiv | BinOp::SDiv | BinOp::URem | BinOp::SRem)
    }
}

/// Float binary opcodes (all on `f64`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum FBinOp {
    /// IEEE addition.
    FAdd,
    /// IEEE subtraction.
    FSub,
    /// IEEE multiplication.
    FMul,
    /// IEEE division (never traps; yields ±inf/NaN).
    FDiv,
}

impl FBinOp {
    /// All float binary opcodes.
    pub const ALL: [FBinOp; 4] = [FBinOp::FAdd, FBinOp::FSub, FBinOp::FMul, FBinOp::FDiv];

    /// The mnemonic, as written in assembly.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FBinOp::FAdd => "fadd",
            FBinOp::FSub => "fsub",
            FBinOp::FMul => "fmul",
            FBinOp::FDiv => "fdiv",
        }
    }
}

/// Integer comparison predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum IcmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
}

impl IcmpPred {
    /// All predicates.
    pub const ALL: [IcmpPred; 10] = [
        IcmpPred::Eq,
        IcmpPred::Ne,
        IcmpPred::Ugt,
        IcmpPred::Uge,
        IcmpPred::Ult,
        IcmpPred::Ule,
        IcmpPred::Sgt,
        IcmpPred::Sge,
        IcmpPred::Slt,
        IcmpPred::Sle,
    ];

    /// The mnemonic, as written in assembly.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IcmpPred::Eq => "eq",
            IcmpPred::Ne => "ne",
            IcmpPred::Ugt => "ugt",
            IcmpPred::Uge => "uge",
            IcmpPred::Ult => "ult",
            IcmpPred::Ule => "ule",
            IcmpPred::Sgt => "sgt",
            IcmpPred::Sge => "sge",
            IcmpPred::Slt => "slt",
            IcmpPred::Sle => "sle",
        }
    }

    /// The predicate with operands swapped: `a P b  ==  b P.swapped() a`.
    pub fn swapped(self) -> IcmpPred {
        match self {
            IcmpPred::Eq => IcmpPred::Eq,
            IcmpPred::Ne => IcmpPred::Ne,
            IcmpPred::Ugt => IcmpPred::Ult,
            IcmpPred::Uge => IcmpPred::Ule,
            IcmpPred::Ult => IcmpPred::Ugt,
            IcmpPred::Ule => IcmpPred::Uge,
            IcmpPred::Sgt => IcmpPred::Slt,
            IcmpPred::Sge => IcmpPred::Sle,
            IcmpPred::Slt => IcmpPred::Sgt,
            IcmpPred::Sle => IcmpPred::Sge,
        }
    }

    /// The logical negation: `a P b  ==  !(a P.negated() b)`.
    pub fn negated(self) -> IcmpPred {
        match self {
            IcmpPred::Eq => IcmpPred::Ne,
            IcmpPred::Ne => IcmpPred::Eq,
            IcmpPred::Ugt => IcmpPred::Ule,
            IcmpPred::Uge => IcmpPred::Ult,
            IcmpPred::Ult => IcmpPred::Uge,
            IcmpPred::Ule => IcmpPred::Ugt,
            IcmpPred::Sgt => IcmpPred::Sle,
            IcmpPred::Sge => IcmpPred::Slt,
            IcmpPred::Slt => IcmpPred::Sge,
            IcmpPred::Sle => IcmpPred::Sgt,
        }
    }
}

/// Float comparison predicates (ordered comparisons only; any NaN ⇒ false,
/// except `Une` which is the negation of `Oeq`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum FcmpPred {
    /// Ordered equal.
    Oeq,
    /// Ordered not-equal.
    One,
    /// Ordered less-than.
    Olt,
    /// Ordered less-or-equal.
    Ole,
    /// Ordered greater-than.
    Ogt,
    /// Ordered greater-or-equal.
    Oge,
    /// Unordered-or-unequal (negation of `Oeq`).
    Une,
}

impl FcmpPred {
    /// All predicates.
    pub const ALL: [FcmpPred; 7] = [
        FcmpPred::Oeq,
        FcmpPred::One,
        FcmpPred::Olt,
        FcmpPred::Ole,
        FcmpPred::Ogt,
        FcmpPred::Oge,
        FcmpPred::Une,
    ];

    /// The mnemonic, as written in assembly.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FcmpPred::Oeq => "oeq",
            FcmpPred::One => "one",
            FcmpPred::Olt => "olt",
            FcmpPred::Ole => "ole",
            FcmpPred::Ogt => "ogt",
            FcmpPred::Oge => "oge",
            FcmpPred::Une => "une",
        }
    }
}

/// Cast opcodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CastOp {
    /// Zero extension to a wider integer type.
    Zext,
    /// Sign extension to a wider integer type.
    Sext,
    /// Truncation to a narrower integer type.
    Trunc,
    /// Saturating `f64` → signed integer (out-of-range saturates; NaN → 0).
    FpToSi,
    /// Signed integer → `f64`.
    SiToFp,
}

impl CastOp {
    /// The mnemonic, as written in assembly.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Zext => "zext",
            CastOp::Sext => "sext",
            CastOp::Trunc => "trunc",
            CastOp::FpToSi => "fptosi",
            CastOp::SiToFp => "sitofp",
        }
    }
}

/// A non-terminator, non-φ instruction.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// `dst = <op> ty a, b`
    Bin { dst: Reg, op: BinOp, ty: Ty, a: Operand, b: Operand },
    /// `dst = <fop> f64 a, b`
    FBin { dst: Reg, op: FBinOp, a: Operand, b: Operand },
    /// `dst = icmp <pred> ty a, b` (dst has type `i1`)
    Icmp { dst: Reg, pred: IcmpPred, ty: Ty, a: Operand, b: Operand },
    /// `dst = fcmp <pred> f64 a, b` (dst has type `i1`)
    Fcmp { dst: Reg, pred: FcmpPred, a: Operand, b: Operand },
    /// `dst = select i1 c, ty t, ty f`
    Select { dst: Reg, ty: Ty, c: Operand, t: Operand, f: Operand },
    /// `dst = <cast> from v to to`
    Cast { dst: Reg, op: CastOp, from: Ty, to: Ty, v: Operand },
    /// `dst = alloca size, align` — reserve `size` bytes of stack memory.
    Alloca { dst: Reg, size: u64, align: u64 },
    /// `dst = load ty, ptr p`
    Load { dst: Reg, ty: Ty, ptr: Operand },
    /// `store ty v, ptr p`
    Store { ty: Ty, val: Operand, ptr: Operand },
    /// `dst = gep ptr base, off` — pointer plus byte offset (i64).
    Gep { dst: Reg, base: Operand, offset: Operand },
    /// `dst = call ret @callee(args)` / `call void @callee(args)`
    Call { dst: Option<Reg>, ret: Ty, callee: String, args: Vec<(Ty, Operand)> },
}

impl Inst {
    /// The register this instruction defines, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::FBin { dst, .. }
            | Inst::Icmp { dst, .. }
            | Inst::Fcmp { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::Alloca { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Gep { dst, .. } => Some(*dst),
            Inst::Store { .. } => None,
            Inst::Call { dst, .. } => *dst,
        }
    }

    /// The type of the defined register ([`Ty::Void`] if none is defined).
    pub fn dst_ty(&self) -> Ty {
        match self {
            Inst::Bin { ty, .. } => *ty,
            Inst::FBin { .. } => Ty::F64,
            Inst::Icmp { .. } | Inst::Fcmp { .. } => Ty::I1,
            Inst::Select { ty, .. } => *ty,
            Inst::Cast { to, .. } => *to,
            Inst::Alloca { .. } | Inst::Gep { .. } => Ty::Ptr,
            Inst::Load { ty, .. } => *ty,
            Inst::Store { .. } => Ty::Void,
            Inst::Call { ret, dst, .. } => {
                if dst.is_some() {
                    *ret
                } else {
                    Ty::Void
                }
            }
        }
    }

    /// Visit every operand.
    pub fn visit_operands(&self, mut f: impl FnMut(Operand)) {
        match self {
            Inst::Bin { a, b, .. }
            | Inst::FBin { a, b, .. }
            | Inst::Icmp { a, b, .. }
            | Inst::Fcmp { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Inst::Select { c, t, f: fv, .. } => {
                f(*c);
                f(*t);
                f(*fv);
            }
            Inst::Cast { v, .. } => f(*v),
            Inst::Alloca { .. } => {}
            Inst::Load { ptr, .. } => f(*ptr),
            Inst::Store { val, ptr, .. } => {
                f(*val);
                f(*ptr);
            }
            Inst::Gep { base, offset, .. } => {
                f(*base);
                f(*offset);
            }
            Inst::Call { args, .. } => {
                for (_, a) in args {
                    f(*a);
                }
            }
        }
    }

    /// Mutate every operand in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Inst::Bin { a, b, .. }
            | Inst::FBin { a, b, .. }
            | Inst::Icmp { a, b, .. }
            | Inst::Fcmp { a, b, .. } => {
                f(a);
                f(b);
            }
            Inst::Select { c, t, f: fv, .. } => {
                f(c);
                f(t);
                f(fv);
            }
            Inst::Cast { v, .. } => f(v),
            Inst::Alloca { .. } => {}
            Inst::Load { ptr, .. } => f(ptr),
            Inst::Store { val, ptr, .. } => {
                f(val);
                f(ptr);
            }
            Inst::Gep { base, offset, .. } => {
                f(base);
                f(offset);
            }
            Inst::Call { args, .. } => {
                for (_, a) in args {
                    f(a);
                }
            }
        }
    }

    /// True if the instruction may write memory.
    pub fn may_write_mem(&self) -> bool {
        match self {
            Inst::Store { .. } => true,
            Inst::Call { callee, .. } => known::effects_of(callee).may_write(),
            _ => false,
        }
    }

    /// True if the instruction can trap at runtime (division, memory access,
    /// or a call that may do either).
    pub fn may_trap(&self) -> bool {
        match self {
            Inst::Bin { op, .. } => op.may_trap(),
            Inst::Load { .. } | Inst::Store { .. } | Inst::Call { .. } => true,
            _ => false,
        }
    }

    /// True if the instruction can be removed when its result is unused:
    /// it neither writes memory nor traps. (`alloca` is removable.)
    pub fn is_removable_if_unused(&self) -> bool {
        match self {
            Inst::Alloca { .. } => true,
            Inst::Call { callee, .. } => {
                let e = known::effects_of(callee);
                !e.may_write() && !known::may_trap(callee)
            }
            i => !i.may_write_mem() && !i.may_trap(),
        }
    }

    /// True if the instruction can be executed speculatively (hoisted past a
    /// branch): pure and never trapping.
    pub fn is_speculatable(&self) -> bool {
        match self {
            Inst::Bin { op, .. } => !op.may_trap(),
            Inst::FBin { .. }
            | Inst::Icmp { .. }
            | Inst::Fcmp { .. }
            | Inst::Select { .. }
            | Inst::Cast { .. }
            | Inst::Gep { .. } => true,
            Inst::Call { callee, .. } => {
                known::effects_of(callee) == known::MemEffects::None && !known::may_trap(callee)
            }
            _ => false,
        }
    }
}

/// A block terminator.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// `ret ty v` / `ret void`
    Ret { ty: Ty, val: Option<Operand> },
    /// `br label %target`
    Br { target: BlockId },
    /// `br i1 c, label %t, label %f`
    CondBr { cond: Operand, t: BlockId, f: BlockId },
    /// `switch ty v, label %default [ k0, label %b0 ... ]`
    Switch { ty: Ty, val: Operand, default: BlockId, cases: Vec<(i64, BlockId)> },
    /// `unreachable`
    Unreachable,
}

impl Term {
    /// Successor blocks, in branch order (cond-br: true then false).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Ret { .. } | Term::Unreachable => vec![],
            Term::Br { target } => vec![*target],
            Term::CondBr { t, f, .. } => vec![*t, *f],
            Term::Switch { default, cases, .. } => {
                let mut v = vec![*default];
                v.extend(cases.iter().map(|(_, b)| *b));
                v
            }
        }
    }

    /// The value a conditional branch or a switch branches on.
    pub fn condition(&self) -> Option<Operand> {
        match self {
            Term::CondBr { cond, .. } | Term::Switch { val: cond, .. } => Some(*cond),
            _ => None,
        }
    }

    /// The successor taken when [`Term::condition`] is `c`, if `c` picks
    /// one (`undef` picks none).
    pub fn target_for(&self, c: Constant) -> Option<BlockId> {
        match self {
            Term::CondBr { t, .. } if c.is_true() => Some(*t),
            Term::CondBr { f, .. } if c.is_false() => Some(*f),
            Term::Switch { ty, default, cases, .. } => {
                let bits = c.as_bits()?;
                let case = cases.iter().find(|(k, _)| ty.wrap(*k as u64) == bits);
                Some(case.map_or(*default, |(_, b)| *b))
            }
            _ => None,
        }
    }

    /// The successor always taken because the condition is a constant.
    pub fn constant_target(&self) -> Option<BlockId> {
        match self.condition()? {
            Operand::Const(c) => self.target_for(c),
            _ => None,
        }
    }

    /// Mutate every successor block id in place.
    pub fn map_successors(&mut self, mut f: impl FnMut(&mut BlockId)) {
        match self {
            Term::Ret { .. } | Term::Unreachable => {}
            Term::Br { target } => f(target),
            Term::CondBr { t, f: fb, .. } => {
                f(t);
                f(fb);
            }
            Term::Switch { default, cases, .. } => {
                f(default);
                for (_, b) in cases {
                    f(b);
                }
            }
        }
    }

    /// Visit every (value) operand of the terminator.
    pub fn visit_operands(&self, mut f: impl FnMut(Operand)) {
        match self {
            Term::Ret { val: Some(v), .. } => f(*v),
            Term::CondBr { cond, .. } => f(*cond),
            Term::Switch { val, .. } => f(*val),
            _ => {}
        }
    }

    /// Mutate every (value) operand of the terminator in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Term::Ret { val: Some(v), .. } => f(v),
            Term::CondBr { cond, .. } => f(cond),
            Term::Switch { val, .. } => f(val),
            _ => {}
        }
    }
}

/// Why constant evaluation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// Division or remainder by zero (or signed `MIN / -1` overflow).
    DivByZero,
}

/// Evaluate an integer binary operation on raw (zero-extended) bits.
///
/// # Errors
///
/// Returns [`EvalError::DivByZero`] for division/remainder by zero and for
/// the overflowing `MIN / -1` signed cases (which trap, as in LLVM where they
/// are immediate UB we make defined-as-trap).
pub fn eval_binop(op: BinOp, ty: Ty, a: u64, b: u64) -> Result<u64, EvalError> {
    let wrap = |v: u64| ty.wrap(v);
    let sa = ty.sext(a);
    let sb = ty.sext(b);
    Ok(match op {
        BinOp::Add => wrap(a.wrapping_add(b)),
        BinOp::Sub => wrap(a.wrapping_sub(b)),
        BinOp::Mul => wrap(a.wrapping_mul(b)),
        BinOp::UDiv => {
            if b == 0 {
                return Err(EvalError::DivByZero);
            }
            wrap(a / b)
        }
        BinOp::SDiv => {
            if sb == 0 || (sa == ty.sext(ty.mask() ^ (ty.mask() >> 1)) && sb == -1) {
                return Err(EvalError::DivByZero);
            }
            wrap((sa / sb) as u64)
        }
        BinOp::URem => {
            if b == 0 {
                return Err(EvalError::DivByZero);
            }
            wrap(a % b)
        }
        BinOp::SRem => {
            if sb == 0 || (sa == ty.sext(ty.mask() ^ (ty.mask() >> 1)) && sb == -1) {
                return Err(EvalError::DivByZero);
            }
            wrap((sa % sb) as u64)
        }
        BinOp::Shl => {
            if b >= ty.bits() as u64 {
                0
            } else {
                wrap(a << b)
            }
        }
        BinOp::LShr => {
            if b >= ty.bits() as u64 {
                0
            } else {
                wrap(a >> b)
            }
        }
        BinOp::AShr => {
            if b >= ty.bits() as u64 {
                if sa < 0 {
                    ty.mask()
                } else {
                    0
                }
            } else {
                wrap((sa >> b) as u64)
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
    })
}

/// Evaluate an integer comparison on raw (zero-extended) bits.
pub fn eval_icmp(pred: IcmpPred, ty: Ty, a: u64, b: u64) -> bool {
    let sa = ty.sext(a);
    let sb = ty.sext(b);
    match pred {
        IcmpPred::Eq => a == b,
        IcmpPred::Ne => a != b,
        IcmpPred::Ugt => a > b,
        IcmpPred::Uge => a >= b,
        IcmpPred::Ult => a < b,
        IcmpPred::Ule => a <= b,
        IcmpPred::Sgt => sa > sb,
        IcmpPred::Sge => sa >= sb,
        IcmpPred::Slt => sa < sb,
        IcmpPred::Sle => sa <= sb,
    }
}

/// Evaluate a float binary operation on raw bits.
pub fn eval_fbinop(op: FBinOp, a: u64, b: u64) -> u64 {
    let fa = f64::from_bits(a);
    let fb = f64::from_bits(b);
    let r = match op {
        FBinOp::FAdd => fa + fb,
        FBinOp::FSub => fa - fb,
        FBinOp::FMul => fa * fb,
        FBinOp::FDiv => fa / fb,
    };
    r.to_bits()
}

/// Evaluate a float comparison on raw bits.
pub fn eval_fcmp(pred: FcmpPred, a: u64, b: u64) -> bool {
    let fa = f64::from_bits(a);
    let fb = f64::from_bits(b);
    match pred {
        FcmpPred::Oeq => fa == fb,
        // Ordered not-equal: false when either operand is NaN (unlike Une).
        FcmpPred::One => !fa.is_nan() && !fb.is_nan() && fa != fb,
        FcmpPred::Olt => fa < fb,
        FcmpPred::Ole => fa <= fb,
        FcmpPred::Ogt => fa > fb,
        FcmpPred::Oge => fa >= fb,
        FcmpPred::Une => !(fa == fb),
    }
}

/// Evaluate a cast on raw bits.
pub fn eval_cast(op: CastOp, from: Ty, to: Ty, v: u64) -> u64 {
    match op {
        CastOp::Zext => to.wrap(v),
        CastOp::Sext => to.wrap(from.sext(v) as u64),
        CastOp::Trunc => to.wrap(v),
        CastOp::FpToSi => {
            let f = f64::from_bits(v);
            let bits = to.bits();
            let (min, max) = if bits == 64 {
                (i64::MIN as f64, i64::MAX as f64)
            } else {
                (-((1i64 << (bits - 1)) as f64), ((1i64 << (bits - 1)) - 1) as f64)
            };
            let clamped = if f.is_nan() { 0.0 } else { f.clamp(min, max) };
            to.wrap(clamped as i64 as u64)
        }
        CastOp::SiToFp => (from.sext(v) as f64).to_bits(),
    }
}

/// Fold a binary operation over [`Constant`] operands, if both are integer
/// constants of the right type. `undef` and mismatched types fold to `None`.
pub fn fold_binop(
    op: BinOp,
    ty: Ty,
    a: Constant,
    b: Constant,
) -> Option<Result<Constant, EvalError>> {
    match (a, b) {
        (Constant::Int { bits: ba, ty: ta }, Constant::Int { bits: bb, ty: tb })
            if ta == ty && tb == ty =>
        {
            Some(eval_binop(op, ty, ba, bb).map(|bits| Constant::Int { bits, ty }))
        }
        _ => None,
    }
}

/// Fold an integer comparison over [`Constant`] operands.
pub fn fold_icmp(pred: IcmpPred, ty: Ty, a: Constant, b: Constant) -> Option<Constant> {
    match (a, b) {
        (Constant::Int { bits: ba, ty: ta }, Constant::Int { bits: bb, ty: tb })
            if ta == ty && tb == ty =>
        {
            Some(Constant::bool(eval_icmp(pred, ty, ba, bb)))
        }
        (Constant::Null, Constant::Null) if ty == Ty::Ptr => {
            Some(Constant::bool(eval_icmp(pred, Ty::I64, 0, 0)))
        }
        _ => None,
    }
}

/// Fold a cast over a [`Constant`] operand.
pub fn fold_cast(op: CastOp, from: Ty, to: Ty, v: Constant) -> Option<Constant> {
    match v {
        Constant::Int { bits, ty } if ty == from => {
            let out = eval_cast(op, from, to, bits);
            Some(if to == Ty::F64 {
                Constant::Float(out)
            } else {
                Constant::Int { bits: out, ty: to }
            })
        }
        Constant::Float(bits) if from == Ty::F64 => {
            let out = eval_cast(op, from, to, bits);
            Some(Constant::Int { bits: out, ty: to })
        }
        _ => None,
    }
}

/// Fold a float binary operation over [`Constant`] operands.
pub fn fold_fbinop(op: FBinOp, a: Constant, b: Constant) -> Option<Constant> {
    match (a, b) {
        (Constant::Float(ba), Constant::Float(bb)) => {
            Some(Constant::Float(eval_fbinop(op, ba, bb)))
        }
        _ => None,
    }
}

/// Fold a float comparison over [`Constant`] operands.
pub fn fold_fcmp(pred: FcmpPred, a: Constant, b: Constant) -> Option<Constant> {
    match (a, b) {
        (Constant::Float(ba), Constant::Float(bb)) => Some(Constant::bool(eval_fcmp(pred, ba, bb))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_wraps_at_width() {
        assert_eq!(eval_binop(BinOp::Add, Ty::I8, 0xff, 1).unwrap(), 0);
        assert_eq!(eval_binop(BinOp::Add, Ty::I64, u64::MAX, 1).unwrap(), 0);
        assert_eq!(eval_binop(BinOp::Mul, Ty::I8, 16, 16).unwrap(), 0);
    }

    #[test]
    fn division_semantics() {
        assert_eq!(eval_binop(BinOp::UDiv, Ty::I8, 7, 2).unwrap(), 3);
        assert_eq!(eval_binop(BinOp::SDiv, Ty::I8, 0xf9, 2).unwrap(), Ty::I8.wrap(-3i64 as u64)); // -7/2 = -3
        assert_eq!(eval_binop(BinOp::UDiv, Ty::I8, 1, 0), Err(EvalError::DivByZero));
        // i8 MIN / -1 traps.
        assert_eq!(eval_binop(BinOp::SDiv, Ty::I8, 0x80, 0xff), Err(EvalError::DivByZero));
        assert_eq!(eval_binop(BinOp::SRem, Ty::I8, 0xf9, 2).unwrap(), Ty::I8.wrap(-1i64 as u64)); // -7%2 = -1
                                                                                                  // i64 MIN / -1 traps too.
        assert_eq!(
            eval_binop(BinOp::SDiv, Ty::I64, i64::MIN as u64, u64::MAX),
            Err(EvalError::DivByZero)
        );
    }

    #[test]
    fn shift_semantics_total() {
        assert_eq!(eval_binop(BinOp::Shl, Ty::I32, 1, 33).unwrap(), 0);
        assert_eq!(eval_binop(BinOp::LShr, Ty::I32, 8, 40).unwrap(), 0);
        assert_eq!(eval_binop(BinOp::AShr, Ty::I8, 0x80, 100).unwrap(), 0xff);
        assert_eq!(eval_binop(BinOp::AShr, Ty::I8, 0x40, 100).unwrap(), 0);
        assert_eq!(eval_binop(BinOp::Shl, Ty::I8, 1, 3).unwrap(), 8);
        assert_eq!(eval_binop(BinOp::AShr, Ty::I8, 0x80, 1).unwrap(), 0xc0);
    }

    #[test]
    fn icmp_signedness() {
        assert!(eval_icmp(IcmpPred::Ugt, Ty::I8, 0xff, 1));
        assert!(!eval_icmp(IcmpPred::Sgt, Ty::I8, 0xff, 1)); // -1 > 1 is false
        assert!(eval_icmp(IcmpPred::Slt, Ty::I8, 0x80, 0)); // -128 < 0
        assert!(eval_icmp(IcmpPred::Eq, Ty::I64, 5, 5));
    }

    #[test]
    fn icmp_negated_and_swapped_are_involutions() {
        for p in IcmpPred::ALL {
            assert_eq!(p.negated().negated(), p);
            assert_eq!(p.swapped().swapped(), p);
            for (a, b) in [(3u64, 9u64), (9, 3), (5, 5), (0xff, 0)] {
                let direct = eval_icmp(p, Ty::I8, a, b);
                assert_eq!(direct, !eval_icmp(p.negated(), Ty::I8, a, b));
                assert_eq!(direct, eval_icmp(p.swapped(), Ty::I8, b, a));
            }
        }
    }

    #[test]
    fn casts() {
        assert_eq!(eval_cast(CastOp::Zext, Ty::I8, Ty::I32, 0xff), 0xff);
        assert_eq!(eval_cast(CastOp::Sext, Ty::I8, Ty::I32, 0xff), 0xffff_ffff);
        assert_eq!(eval_cast(CastOp::Trunc, Ty::I32, Ty::I8, 0x1234), 0x34);
        assert_eq!(eval_cast(CastOp::SiToFp, Ty::I8, Ty::F64, 0xff), (-1f64).to_bits());
        assert_eq!(eval_cast(CastOp::FpToSi, Ty::F64, Ty::I8, 1000f64.to_bits()), 0x7f);
        assert_eq!(eval_cast(CastOp::FpToSi, Ty::F64, Ty::I8, f64::NAN.to_bits()), 0);
        assert_eq!(
            eval_cast(CastOp::FpToSi, Ty::F64, Ty::I64, 1e300f64.to_bits()),
            i64::MAX as u64
        );
    }

    #[test]
    fn fold_helpers() {
        let c = |v| Constant::int(Ty::I32, v);
        assert_eq!(fold_binop(BinOp::Add, Ty::I32, c(2), c(3)), Some(Ok(c(5))));
        assert_eq!(fold_binop(BinOp::UDiv, Ty::I32, c(1), c(0)), Some(Err(EvalError::DivByZero)));
        assert_eq!(fold_binop(BinOp::Add, Ty::I32, c(2), Constant::Undef(Ty::I32)), None);
        assert_eq!(fold_icmp(IcmpPred::Slt, Ty::I32, c(-1), c(0)), Some(Constant::bool(true)));
        assert_eq!(
            fold_cast(CastOp::Sext, Ty::I32, Ty::I64, c(-1)),
            Some(Constant::int(Ty::I64, -1))
        );
        assert_eq!(
            fold_fbinop(FBinOp::FAdd, Constant::float(1.5), Constant::float(2.5)),
            Some(Constant::float(4.0))
        );
        assert_eq!(
            fold_fcmp(FcmpPred::Olt, Constant::float(1.0), Constant::float(2.0)),
            Some(Constant::bool(true))
        );
    }

    #[test]
    fn term_successors() {
        let t = Term::Switch {
            ty: Ty::I64,
            val: Operand::int(Ty::I64, 0),
            default: BlockId(0),
            cases: vec![(1, BlockId(1)), (2, BlockId(2))],
        };
        assert_eq!(t.successors(), vec![BlockId(0), BlockId(1), BlockId(2)]);
        let r = Term::Ret { ty: Ty::Void, val: None };
        assert!(r.successors().is_empty());
    }

    #[test]
    fn inst_operand_visitation() {
        let i = Inst::Select {
            dst: Reg(0),
            ty: Ty::I64,
            c: Operand::Reg(Reg(1)),
            t: Operand::int(Ty::I64, 1),
            f: Operand::Reg(Reg(2)),
        };
        let mut n = 0;
        i.visit_operands(|_| n += 1);
        assert_eq!(n, 3);
        assert_eq!(i.dst(), Some(Reg(0)));
        assert_eq!(i.dst_ty(), Ty::I64);
    }

    #[test]
    fn effect_classification() {
        let ld = Inst::Load { dst: Reg(0), ty: Ty::I64, ptr: Operand::Reg(Reg(1)) };
        assert!(!ld.may_write_mem() && ld.may_trap());
        let st =
            Inst::Store { ty: Ty::I64, val: Operand::int(Ty::I64, 0), ptr: Operand::Reg(Reg(1)) };
        assert!(st.may_write_mem());
        let add = Inst::Bin {
            dst: Reg(0),
            op: BinOp::Add,
            ty: Ty::I64,
            a: Operand::Reg(Reg(1)),
            b: Operand::Reg(Reg(2)),
        };
        assert!(add.is_speculatable() && add.is_removable_if_unused());
        let div = Inst::Bin {
            dst: Reg(0),
            op: BinOp::SDiv,
            ty: Ty::I64,
            a: Operand::Reg(Reg(1)),
            b: Operand::Reg(Reg(2)),
        };
        assert!(!div.is_speculatable());
    }
}
