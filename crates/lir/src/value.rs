//! Registers, constants and operands.

use crate::func::GlobalId;
use crate::types::Ty;
use std::fmt;

/// A virtual SSA register.
///
/// Registers are function-local and print as `%<n>`. The register file is
/// unbounded; [`crate::Function::new_reg`] hands out fresh ones.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl Reg {
    /// Index into dense per-register side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A compile-time constant.
///
/// Integer constants store their value zero-extended in `bits`, masked to the
/// width of `ty`; this makes `Eq`/`Hash` canonical. Floats store raw IEEE-754
/// bits so that `Eq`/`Hash` are well defined (NaN payloads compare by bits).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Constant {
    /// Integer constant of the given integer type.
    Int {
        /// Value, zero-extended to 64 bits and masked to `ty`'s width.
        bits: u64,
        /// The integer type (`i1` … `i64`).
        ty: Ty,
    },
    /// `f64` constant, stored as raw bits.
    Float(u64),
    /// The null pointer.
    Null,
    /// An undefined value of the given type (LLVM `undef`).
    Undef(Ty),
}

impl Constant {
    /// Build an integer constant, wrapping `v` to the width of `ty`.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not an integer type.
    pub fn int(ty: Ty, v: i64) -> Constant {
        assert!(ty.is_int(), "integer constant of non-integer type {ty}");
        Constant::Int { bits: ty.wrap(v as u64), ty }
    }

    /// Build a boolean (`i1`) constant.
    pub fn bool(b: bool) -> Constant {
        Constant::int(Ty::I1, b as i64)
    }

    /// Build an `f64` constant.
    pub fn float(v: f64) -> Constant {
        Constant::Float(v.to_bits())
    }

    /// The type of this constant.
    pub fn ty(self) -> Ty {
        match self {
            Constant::Int { ty, .. } => ty,
            Constant::Float(_) => Ty::F64,
            Constant::Null => Ty::Ptr,
            Constant::Undef(ty) => ty,
        }
    }

    /// The value as a sign-extended `i64`, if this is an integer constant.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Constant::Int { bits, ty } => Some(ty.sext(bits)),
            _ => None,
        }
    }

    /// The value as zero-extended raw bits, if this is an integer constant.
    pub fn as_bits(self) -> Option<u64> {
        match self {
            Constant::Int { bits, .. } => Some(bits),
            _ => None,
        }
    }

    /// True if this is the `i1` constant `true`.
    pub fn is_true(self) -> bool {
        self == Constant::bool(true)
    }

    /// True if this is the `i1` constant `false`.
    pub fn is_false(self) -> bool {
        self == Constant::bool(false)
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Int { bits, ty: Ty::I1 } => {
                f.write_str(if *bits == 1 { "true" } else { "false" })
            }
            Constant::Int { bits, ty } => write!(f, "{}", ty.sext(*bits)),
            Constant::Float(bits) => write!(f, "f0x{bits:016x}"),
            Constant::Null => f.write_str("null"),
            Constant::Undef(_) => f.write_str("undef"),
        }
    }
}

/// An instruction operand: a register, a constant, a global, or a function
/// symbol (for indirect references; direct calls name their callee).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// An SSA register.
    Reg(Reg),
    /// An immediate constant.
    Const(Constant),
    /// The address of a module global.
    Global(GlobalId),
}

impl Operand {
    /// Integer-constant convenience constructor.
    pub fn int(ty: Ty, v: i64) -> Operand {
        Operand::Const(Constant::int(ty, v))
    }

    /// Boolean-constant convenience constructor.
    pub fn bool(b: bool) -> Operand {
        Operand::Const(Constant::bool(b))
    }

    /// The register, if this operand is one.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// The constant, if this operand is one.
    pub fn as_const(self) -> Option<Constant> {
        match self {
            Operand::Const(c) => Some(c),
            _ => None,
        }
    }

    /// The integer value, if this operand is an integer constant.
    pub fn as_int(self) -> Option<i64> {
        self.as_const().and_then(Constant::as_int)
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<Constant> for Operand {
    fn from(c: Constant) -> Operand {
        Operand::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_constants_are_canonical() {
        // -1 at i8 and 255 at i8 are the same constant.
        assert_eq!(Constant::int(Ty::I8, -1), Constant::int(Ty::I8, 255));
        assert_eq!(Constant::int(Ty::I8, -1).as_int(), Some(-1));
        assert_eq!(Constant::int(Ty::I8, 255).as_bits(), Some(0xff));
        // Same bits at different widths are different constants.
        assert_ne!(Constant::int(Ty::I8, 1), Constant::int(Ty::I16, 1));
    }

    #[test]
    fn bool_helpers() {
        assert!(Constant::bool(true).is_true());
        assert!(Constant::bool(false).is_false());
        assert!(!Constant::int(Ty::I64, 1).is_true());
    }

    #[test]
    fn float_constants_compare_by_bits() {
        let nan1 = Constant::float(f64::NAN);
        let nan2 = Constant::float(f64::NAN);
        assert_eq!(nan1, nan2);
        assert_ne!(Constant::float(0.0), Constant::float(-0.0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Constant::int(Ty::I8, -1).to_string(), "-1");
        assert_eq!(Constant::int(Ty::I64, 42).to_string(), "42");
        assert_eq!(Constant::bool(true).to_string(), "true");
        assert_eq!(Constant::bool(false).to_string(), "false");
        assert_eq!(Constant::Null.to_string(), "null");
        assert_eq!(Reg(7).to_string(), "%7");
    }

    #[test]
    fn operand_accessors() {
        let r = Operand::Reg(Reg(3));
        assert_eq!(r.as_reg(), Some(Reg(3)));
        assert_eq!(r.as_const(), None);
        let c = Operand::int(Ty::I32, -5);
        assert_eq!(c.as_int(), Some(-5));
    }

    #[test]
    #[should_panic(expected = "non-integer type")]
    fn int_constant_rejects_float_type() {
        let _ = Constant::int(Ty::F64, 1);
    }
}
