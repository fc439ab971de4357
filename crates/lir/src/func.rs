//! Modules, functions, blocks and φ-nodes.

use crate::inst::{Inst, Term};
use crate::types::Ty;
use crate::value::{Constant, Operand, Reg};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of a basic block within its function (index into
/// [`Function::blocks`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index into dense per-block side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Identifier of a module global (index into [`Module::globals`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

impl GlobalId {
    /// Index into [`Module::globals`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A φ-node. One incoming operand per predecessor edge.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Phi {
    /// The defined register.
    pub dst: Reg,
    /// Type of the defined register.
    pub ty: Ty,
    /// `(predecessor block, value flowing in along that edge)` pairs.
    pub incomings: Vec<(BlockId, Operand)>,
}

impl Phi {
    /// The operand flowing in from predecessor `pred`, if present.
    pub fn incoming_from(&self, pred: BlockId) -> Option<Operand> {
        self.incomings.iter().find(|(b, _)| *b == pred).map(|(_, v)| *v)
    }
}

/// A basic block: φ-nodes, straight-line instructions, one terminator.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Block {
    /// Label (unique within the function).
    pub name: String,
    /// φ-nodes (conceptually executed in parallel on entry).
    pub phis: Vec<Phi>,
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Term,
}

impl Block {
    /// An empty block with the given label, terminated by `unreachable`.
    pub fn new(name: impl Into<String>) -> Block {
        Block { name: name.into(), phis: Vec::new(), insts: Vec::new(), term: Term::Unreachable }
    }
}

/// A function definition. Its `Hash` covers what its text shows, and
/// leaves out the register allocation counter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Function {
    /// Symbol name (without the `@`).
    pub name: String,
    /// Return type.
    pub ret: Ty,
    /// Parameters: register and type. Parameter registers are ordinary SSA
    /// registers defined at function entry.
    pub params: Vec<(Reg, Ty)>,
    /// Basic blocks. `blocks[0]` is the entry block.
    pub blocks: Vec<Block>,
    next_reg: u32,
}

impl Hash for Function {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let Function { name, ret, params, blocks, next_reg: _ } = self;
        (name, ret, params, blocks).hash(state);
    }
}

impl Function {
    /// Create an empty function (no blocks yet).
    pub fn new(name: impl Into<String>, ret: Ty) -> Function {
        Function { name: name.into(), ret, params: Vec::new(), blocks: Vec::new(), next_reg: 0 }
    }

    /// Append a parameter, allocating its register.
    pub fn add_param(&mut self, ty: Ty) -> Reg {
        let r = self.new_reg();
        self.params.push((r, ty));
        r
    }

    /// Allocate a fresh register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// One past the highest allocated register number (size for dense
    /// per-register side tables).
    pub fn reg_bound(&self) -> usize {
        self.next_reg as usize
    }

    /// Append a new empty block and return its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new(name));
        id
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Borrow a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutably borrow a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterate over `(BlockId, &Block)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Number of instructions (φs + insts + terminators), a proxy for
    /// function size used in reports.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.phis.len() + b.insts.len() + 1).sum()
    }

    /// Count uses of each register across the whole function.
    pub fn use_counts(&self) -> Vec<u32> {
        let mut uses = vec![0u32; self.reg_bound()];
        let mut count = |op: Operand| {
            if let Operand::Reg(r) = op {
                uses[r.index()] += 1;
            }
        };
        for b in &self.blocks {
            for phi in &b.phis {
                for &(_, v) in &phi.incomings {
                    count(v);
                }
            }
            for inst in &b.insts {
                inst.visit_operands(&mut count);
            }
            b.term.visit_operands(&mut count);
        }
        uses
    }

    /// Map from register to the block defining it (φs and instructions;
    /// parameters map to the entry block).
    pub fn def_blocks(&self) -> Vec<Option<BlockId>> {
        let mut defs = vec![None; self.reg_bound()];
        for &(r, _) in &self.params {
            defs[r.index()] = Some(self.entry());
        }
        for (id, b) in self.iter_blocks() {
            for phi in &b.phis {
                defs[phi.dst.index()] = Some(id);
            }
            for inst in &b.insts {
                if let Some(d) = inst.dst() {
                    defs[d.index()] = Some(id);
                }
            }
        }
        defs
    }

    /// Rewrite every operand of every φ, instruction and terminator with `f`.
    pub fn map_operands(&mut self, mut f: impl FnMut(&mut Operand)) {
        for b in &mut self.blocks {
            for phi in &mut b.phis {
                for (_, v) in &mut phi.incomings {
                    f(v);
                }
            }
            for inst in &mut b.insts {
                inst.map_operands(&mut f);
            }
            b.term.map_operands(&mut f);
        }
    }

    /// Replace all uses of register `from` with operand `to`.
    pub fn replace_all_uses(&mut self, from: Reg, to: Operand) {
        self.map_operands(|op| {
            if *op == Operand::Reg(from) {
                *op = to;
            }
        });
    }

    /// Produce a copy with registers renumbered densely in program order and
    /// blocks in reverse-post-order. Two functions that differ only in
    /// register numbering / block order / block names become structurally
    /// equal after canonicalization; the driver uses this to detect whether a
    /// pass actually transformed a function.
    pub fn canonicalized(&self) -> Function {
        let cfg = crate::cfg::Cfg::new(self);
        // Block order: RPO; unreachable blocks are dropped. The old → new
        // tables are dense, indexed by the old id.
        let order = &cfg.rpo;
        let mut block_map: Vec<Option<BlockId>> = vec![None; self.blocks.len()];
        for (new, &old) in order.iter().enumerate() {
            block_map[old.index()] = Some(BlockId(new as u32));
        }
        let new_block = |b: &BlockId| block_map.get(b.index()).copied().flatten();
        let mut out = Function::new(self.name.clone(), self.ret);
        let mut reg_map: Vec<Option<Reg>> = vec![None; self.reg_bound()];
        for &(r, ty) in &self.params {
            let nr = out.add_param(ty);
            bind_reg(&mut reg_map, r, nr);
        }
        // First pass: allocate result registers in program order.
        for &bid in order {
            let b = self.block(bid);
            for phi in &b.phis {
                let nr = out.new_reg();
                bind_reg(&mut reg_map, phi.dst, nr);
            }
            for inst in &b.insts {
                if let Some(d) = inst.dst() {
                    let nr = out.new_reg();
                    bind_reg(&mut reg_map, d, nr);
                }
            }
        }
        let new_reg = |r: Reg| reg_map.get(r.index()).copied().flatten();
        let map_op = |op: &mut Operand| {
            if let Operand::Reg(r) = op {
                // Uses of registers defined in unreachable code keep their
                // number shifted into fresh space; such functions are not
                // verifier-clean anyway.
                if let Some(nr) = new_reg(*r) {
                    *op = Operand::Reg(nr);
                }
            }
        };
        for (new_idx, &bid) in order.iter().enumerate() {
            let b = self.block(bid);
            let mut nb = Block {
                name: format!("b{new_idx}"),
                phis: b.phis.clone(),
                insts: b.insts.clone(),
                term: b.term.clone(),
            };
            for phi in &mut nb.phis {
                phi.dst = new_reg(phi.dst).expect("φ results were numbered in the first pass");
                // Drop incomings from unreachable predecessors.
                phi.incomings.retain(|(p, _)| new_block(p).is_some());
                for (p, v) in &mut phi.incomings {
                    *p = new_block(p).expect("kept incomings come from reachable blocks");
                    map_op(v);
                }
                phi.incomings.sort_by_key(|(p, _)| *p);
            }
            for inst in &mut nb.insts {
                if let Some(d) = inst.dst() {
                    set_dst(inst, new_reg(d).expect("results were numbered in the first pass"));
                }
                inst.map_operands(map_op);
            }
            nb.term.map_successors(|s| {
                *s = new_block(s).expect("a reachable block's successors are reachable");
            });
            nb.term.map_operands(map_op);
            out.blocks.push(nb);
        }
        out
    }
}

/// Record `old → new` in a dense register table, growing it for a register
/// at or past the function's [`Function::reg_bound`].
fn bind_reg(map: &mut Vec<Option<Reg>>, old: Reg, new: Reg) {
    if old.index() >= map.len() {
        map.resize(old.index() + 1, None);
    }
    map[old.index()] = Some(new);
}

/// Overwrite the destination register of an instruction.
///
/// # Panics
///
/// Panics if the instruction does not define a register.
pub fn set_dst(inst: &mut Inst, new: Reg) {
    match inst {
        Inst::Bin { dst, .. }
        | Inst::FBin { dst, .. }
        | Inst::Icmp { dst, .. }
        | Inst::Fcmp { dst, .. }
        | Inst::Select { dst, .. }
        | Inst::Cast { dst, .. }
        | Inst::Alloca { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::Gep { dst, .. } => *dst = new,
        Inst::Call { dst, .. } => *dst = Some(new),
        Inst::Store { .. } => panic!("store defines no register"),
    }
}

/// A module global: a fixed-size array of `i64` words.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Global {
    /// Symbol name (without the `@`).
    pub name: String,
    /// Initial contents; the global occupies `8 * words.len()` bytes.
    pub words: Vec<i64>,
    /// Whether the global is immutable (`constant` in the assembly). The
    /// optimizer may fold loads from constant globals.
    pub is_const: bool,
}

impl Global {
    /// Size of the global in bytes.
    pub fn size(&self) -> u64 {
        8 * self.words.len() as u64
    }
}

/// Declaration of an external function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuncDecl {
    /// Symbol name (without the `@`).
    pub name: String,
    /// Return type.
    pub ret: Ty,
    /// Parameter types.
    pub params: Vec<Ty>,
}

/// A compilation unit: globals, external declarations, function definitions.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Module {
    /// Module name (informational).
    pub name: String,
    /// Globals, indexed by [`GlobalId`].
    pub globals: Vec<Global>,
    /// External function declarations.
    pub declarations: Vec<FuncDecl>,
    /// Function definitions.
    pub functions: Vec<Function>,
}

impl Module {
    /// An empty module with the given name.
    pub fn new(name: impl Into<String>) -> Module {
        Module { name: name.into(), ..Module::default() }
    }

    /// Find a function definition by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<(GlobalId, &Global)> {
        self.globals
            .iter()
            .enumerate()
            .find(|(_, g)| g.name == name)
            .map(|(i, g)| (GlobalId(i as u32), g))
    }

    /// Add a global, returning its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(g);
        id
    }

    /// Total instruction count over all functions.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(Function::inst_count).sum()
    }
}

/// Convenience: the undef constant of a type as an operand.
pub fn undef(ty: Ty) -> Operand {
    Operand::Const(Constant::Undef(ty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    fn two_block_fn() -> Function {
        let mut f = Function::new("t", Ty::I64);
        let p = f.add_param(Ty::I64);
        let e = f.add_block("entry");
        let x = f.new_reg();
        let b2 = f.add_block("next");
        f.block_mut(e).insts.push(Inst::Bin {
            dst: x,
            op: BinOp::Add,
            ty: Ty::I64,
            a: Operand::Reg(p),
            b: Operand::int(Ty::I64, 1),
        });
        f.block_mut(e).term = Term::Br { target: b2 };
        f.block_mut(b2).term = Term::Ret { ty: Ty::I64, val: Some(Operand::Reg(x)) };
        f
    }

    #[test]
    fn reg_allocation_is_dense() {
        let mut f = Function::new("t", Ty::Void);
        let a = f.new_reg();
        let b = f.new_reg();
        assert_eq!((a, b), (Reg(0), Reg(1)));
        assert_eq!(f.reg_bound(), 2);
    }

    #[test]
    fn def_blocks_index_by_register() {
        let f = two_block_fn();
        let defs = f.def_blocks();
        assert_eq!(defs[0], Some(BlockId(0)));
        assert_eq!(defs[1], Some(BlockId(0)));
    }

    #[test]
    fn use_counts_count_all_positions() {
        let f = two_block_fn();
        let uses = f.use_counts();
        assert_eq!(uses[0], 1); // param used by add
        assert_eq!(uses[1], 1); // add used by ret
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let mut f = two_block_fn();
        f.replace_all_uses(Reg(1), Operand::int(Ty::I64, 9));
        match &f.block(BlockId(1)).term {
            Term::Ret { val: Some(v), .. } => assert_eq!(v.as_int(), Some(9)),
            t => panic!("unexpected terminator {t:?}"),
        }
    }

    #[test]
    fn canonicalize_is_stable_under_renumbering() {
        let f = two_block_fn();
        // Renumber registers by shifting them.
        let mut g = f.clone();
        g.next_reg = 10;
        let shifted = g.new_reg();
        // rename reg 1 -> shifted everywhere (def + uses)
        for b in &mut g.blocks {
            for inst in &mut b.insts {
                if inst.dst() == Some(Reg(1)) {
                    set_dst(inst, shifted);
                }
            }
        }
        g.replace_all_uses(Reg(1), Operand::Reg(shifted));
        assert_ne!(f, g);
        assert_eq!(f.canonicalized(), g.canonicalized());
    }

    #[test]
    fn canonicalize_drops_unreachable_blocks() {
        let mut f = two_block_fn();
        f.add_block("dead"); // unreachable, terminated by unreachable
        let c = f.canonicalized();
        assert_eq!(c.blocks.len(), 2);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new("m");
        m.functions.push(two_block_fn());
        let gid = m.add_global(Global { name: "g".into(), words: vec![1, 2], is_const: false });
        assert!(m.function("t").is_some());
        assert!(m.function("nope").is_none());
        let (id, g) = m.global_by_name("g").unwrap();
        assert_eq!(id, gid);
        assert_eq!(g.size(), 16);
    }
}
