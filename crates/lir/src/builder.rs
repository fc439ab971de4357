//! A convenience builder for constructing functions in code.
//!
//! Used heavily by tests, examples and the synthetic workload generator.
//! The builder keeps a current insertion block; instruction helpers return
//! the defined register as an [`Operand`].
//!
//! # Example
//!
//! ```
//! use lir::builder::FunctionBuilder;
//! use lir::{BinOp, Ty};
//!
//! let mut b = FunctionBuilder::new("double_plus_one", Ty::I64);
//! let x = b.param(Ty::I64);
//! let entry = b.new_block("entry");
//! b.switch_to(entry);
//! let two_x = b.bin(BinOp::Add, Ty::I64, x, x);
//! let r = b.bin(BinOp::Add, Ty::I64, two_x, lir::Operand::int(Ty::I64, 1));
//! b.ret(Ty::I64, Some(r));
//! let f = b.finish();
//! assert_eq!(f.blocks.len(), 1);
//! ```

use crate::func::{BlockId, Function, Phi};
use crate::inst::{BinOp, CastOp, FBinOp, FcmpPred, IcmpPred, Inst, Term};
use crate::types::Ty;
use crate::value::Operand;

/// Incremental function builder.
#[derive(Debug)]
pub struct FunctionBuilder {
    f: Function,
    cur: Option<BlockId>,
}

impl FunctionBuilder {
    /// Start building a function with the given name and return type.
    pub fn new(name: impl Into<String>, ret: Ty) -> FunctionBuilder {
        FunctionBuilder { f: Function::new(name, ret), cur: None }
    }

    /// Append a parameter.
    pub fn param(&mut self, ty: Ty) -> Operand {
        Operand::Reg(self.f.add_param(ty))
    }

    /// Create a new (empty, unreachable-terminated) block.
    pub fn new_block(&mut self, name: impl Into<String>) -> BlockId {
        self.f.add_block(name)
    }

    /// Set the insertion point.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = Some(b);
    }

    /// The current insertion block.
    ///
    /// # Panics
    ///
    /// Panics if no block has been selected with [`switch_to`](Self::switch_to).
    pub fn current(&self) -> BlockId {
        self.cur.expect("no insertion block selected")
    }

    /// Access the function under construction.
    pub fn function(&self) -> &Function {
        &self.f
    }

    fn push(&mut self, inst: Inst) -> Operand {
        let dst = inst.dst();
        let cur = self.current();
        self.f.block_mut(cur).insts.push(inst);
        dst.map_or(Operand::Const(crate::value::Constant::Undef(Ty::Void)), Operand::Reg)
    }

    /// Integer binary operation.
    pub fn bin(&mut self, op: BinOp, ty: Ty, a: Operand, b: Operand) -> Operand {
        let dst = self.f.new_reg();
        self.push(Inst::Bin { dst, op, ty, a, b })
    }

    /// Float binary operation.
    pub fn fbin(&mut self, op: FBinOp, a: Operand, b: Operand) -> Operand {
        let dst = self.f.new_reg();
        self.push(Inst::FBin { dst, op, a, b })
    }

    /// Integer comparison.
    pub fn icmp(&mut self, pred: IcmpPred, ty: Ty, a: Operand, b: Operand) -> Operand {
        let dst = self.f.new_reg();
        self.push(Inst::Icmp { dst, pred, ty, a, b })
    }

    /// Float comparison.
    pub fn fcmp(&mut self, pred: FcmpPred, a: Operand, b: Operand) -> Operand {
        let dst = self.f.new_reg();
        self.push(Inst::Fcmp { dst, pred, a, b })
    }

    /// Select.
    pub fn select(&mut self, ty: Ty, c: Operand, t: Operand, f: Operand) -> Operand {
        let dst = self.f.new_reg();
        self.push(Inst::Select { dst, ty, c, t, f })
    }

    /// Cast.
    pub fn cast(&mut self, op: CastOp, from: Ty, to: Ty, v: Operand) -> Operand {
        let dst = self.f.new_reg();
        self.push(Inst::Cast { dst, op, from, to, v })
    }

    /// Stack allocation of `size` bytes.
    pub fn alloca(&mut self, size: u64) -> Operand {
        let dst = self.f.new_reg();
        self.push(Inst::Alloca { dst, size, align: 8 })
    }

    /// Load.
    pub fn load(&mut self, ty: Ty, ptr: Operand) -> Operand {
        let dst = self.f.new_reg();
        self.push(Inst::Load { dst, ty, ptr })
    }

    /// Store.
    pub fn store(&mut self, ty: Ty, val: Operand, ptr: Operand) {
        self.push(Inst::Store { ty, val, ptr });
    }

    /// Pointer arithmetic (byte offset).
    pub fn gep(&mut self, base: Operand, offset: Operand) -> Operand {
        let dst = self.f.new_reg();
        self.push(Inst::Gep { dst, base, offset })
    }

    /// Call with a result.
    pub fn call(
        &mut self,
        ret: Ty,
        callee: impl Into<String>,
        args: Vec<(Ty, Operand)>,
    ) -> Operand {
        let dst = self.f.new_reg();
        self.push(Inst::Call { dst: Some(dst), ret, callee: callee.into(), args })
    }

    /// Call without a result.
    pub fn call_void(&mut self, callee: impl Into<String>, args: Vec<(Ty, Operand)>) {
        self.push(Inst::Call { dst: None, ret: Ty::Void, callee: callee.into(), args });
    }

    /// Insert an empty φ-node in `block`, returning its register; incomings
    /// are filled in later with [`add_incoming`](Self::add_incoming).
    pub fn phi(&mut self, block: BlockId, ty: Ty) -> Operand {
        let dst = self.f.new_reg();
        self.f.block_mut(block).phis.push(Phi { dst, ty, incomings: vec![] });
        Operand::Reg(dst)
    }

    /// Add an incoming edge to a φ created with [`phi`](Self::phi).
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not a φ register in `block`.
    pub fn add_incoming(&mut self, block: BlockId, phi: Operand, pred: BlockId, v: Operand) {
        let r = phi.as_reg().expect("phi operand");
        let p = self
            .f
            .block_mut(block)
            .phis
            .iter_mut()
            .find(|p| p.dst == r)
            .expect("phi not found in block");
        p.incomings.push((pred, v));
    }

    /// Unconditional branch terminator.
    pub fn br(&mut self, target: BlockId) {
        let cur = self.current();
        self.f.block_mut(cur).term = Term::Br { target };
    }

    /// Conditional branch terminator.
    pub fn cond_br(&mut self, cond: Operand, t: BlockId, fb: BlockId) {
        let cur = self.current();
        self.f.block_mut(cur).term = Term::CondBr { cond, t, f: fb };
    }

    /// Switch terminator.
    pub fn switch(&mut self, ty: Ty, val: Operand, default: BlockId, cases: Vec<(i64, BlockId)>) {
        let cur = self.current();
        self.f.block_mut(cur).term = Term::Switch { ty, val, default, cases };
    }

    /// Return terminator.
    pub fn ret(&mut self, ty: Ty, val: Option<Operand>) {
        let cur = self.current();
        self.f.block_mut(cur).term = Term::Ret { ty, val };
    }

    /// Finish and return the function.
    pub fn finish(self) -> Function {
        self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_loop_with_phi() {
        // for (i = 0; i < n; i++) sum += i; return sum
        let mut b = FunctionBuilder::new("sum", Ty::I64);
        let n = b.param(Ty::I64);
        let entry = b.new_block("entry");
        let header = b.new_block("header");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        b.switch_to(entry);
        b.br(header);
        let i = b.phi(header, Ty::I64);
        let sum = b.phi(header, Ty::I64);
        b.switch_to(header);
        let c = b.icmp(IcmpPred::Slt, Ty::I64, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let sum2 = b.bin(BinOp::Add, Ty::I64, sum, i);
        let i2 = b.bin(BinOp::Add, Ty::I64, i, Operand::int(Ty::I64, 1));
        b.br(header);
        b.add_incoming(header, i, entry, Operand::int(Ty::I64, 0));
        b.add_incoming(header, i, body, i2);
        b.add_incoming(header, sum, entry, Operand::int(Ty::I64, 0));
        b.add_incoming(header, sum, body, sum2);
        b.switch_to(exit);
        b.ret(Ty::I64, Some(sum));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.block(BlockId(1)).phis.len(), 2);
        assert!(crate::verify::verify_function(&f).is_ok());
    }

    #[test]
    fn memory_helpers() {
        let mut b = FunctionBuilder::new("mem", Ty::I64);
        let e = b.new_block("entry");
        b.switch_to(e);
        let p = b.alloca(16);
        let q = b.gep(p, Operand::int(Ty::I64, 8));
        b.store(Ty::I64, Operand::int(Ty::I64, 5), q);
        let v = b.load(Ty::I64, q);
        b.ret(Ty::I64, Some(v));
        let f = b.finish();
        assert_eq!(f.blocks[0].insts.len(), 4);
        assert!(crate::verify::verify_function(&f).is_ok());
    }
}
