//! Reference interpreter with a flat, bounds-checked memory model.
//!
//! The interpreter defines the observable semantics used by differential
//! tests: the returned value, the final contents of module globals, and the
//! ordered trace of memory-writing external calls. Stack allocations are
//! function-local and deliberately *not* observable, so optimizations that
//! delete or renumber allocas compare equal.
//!
//! Semantics match [`crate::inst`]'s evaluation helpers exactly. Division by
//! zero, out-of-bounds accesses, null dereferences and calls to unknown
//! symbols [trap](Trap). Execution is fuel-limited so non-terminating
//! programs yield [`Trap::OutOfFuel`]; differential tests skip such inputs
//! (the paper's validator likewise guarantees nothing for non-terminating
//! runs).

use crate::func::{BlockId, Function, Module};
use crate::inst::{self, Inst, Term};
use crate::types::Ty;
use crate::value::{Constant, Operand, Reg};
use std::collections::HashMap;
use std::fmt;

/// Why execution stopped abnormally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trap {
    /// Integer division or remainder by zero (or signed overflow case).
    DivByZero,
    /// Memory access outside any live allocation.
    OutOfBounds {
        /// The faulting address.
        addr: u64,
    },
    /// The instruction budget was exhausted (likely non-termination).
    OutOfFuel,
    /// Call to a function that is neither defined nor known.
    UnknownFunction(String),
    /// An `unreachable` terminator was executed.
    Unreachable,
    /// Call recursion exceeded the depth limit.
    StackOverflow,
    /// A value required at runtime was `undef`.
    UndefValue,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::DivByZero => f.write_str("division by zero"),
            Trap::OutOfBounds { addr } => write!(f, "out-of-bounds access at {addr:#x}"),
            Trap::OutOfFuel => f.write_str("out of fuel"),
            Trap::UnknownFunction(n) => write!(f, "call to unknown function @{n}"),
            Trap::Unreachable => f.write_str("executed unreachable"),
            Trap::StackOverflow => f.write_str("call depth exceeded"),
            Trap::UndefValue => f.write_str("use of undef value"),
        }
    }
}

impl std::error::Error for Trap {}

/// The observable result of a successful run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// The returned value, as raw bits (`None` for `void`).
    pub ret: Option<u64>,
    /// Final contents of every module global, in declaration order.
    pub globals: Vec<Vec<u8>>,
    /// Ordered trace of memory-writing external calls: `(name, args)`.
    pub trace: Vec<(String, Vec<u64>)>,
}

/// Execution limits.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Maximum number of instructions executed before [`Trap::OutOfFuel`].
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { fuel: 200_000, max_depth: 32 }
    }
}

/// A live allocation.
#[derive(Clone, Copy, Debug)]
struct Region {
    start: u64,
    len: u64,
}

struct Machine<'m> {
    module: &'m Module,
    mem: HashMap<u64, u8>,
    regions: Vec<Region>,
    next_addr: u64,
    fuel: u64,
    trace: Vec<(String, Vec<u64>)>,
    global_addrs: Vec<u64>,
}

/// Address of the first global; the module's globals follow in order.
pub const GLOBAL_BASE: u64 = 0x1_0000;
/// Unallocated bytes after each global, so an overrun traps.
pub const GLOBAL_RED_ZONE: u64 = 64;
/// First stack address: every `alloca` base is at or above it.
pub const STACK_BASE: u64 = 0x100_0000;

/// The base address of each of `module`'s globals, in declaration order,
/// and the end of the global region. Anything that models this
/// interpreter's memory (the SAT encoder, whose models are replayed here)
/// must lay globals out the same way.
pub fn global_layout(module: &Module) -> (Vec<u64>, u64) {
    let mut addr = GLOBAL_BASE;
    let bases = module
        .globals
        .iter()
        .map(|g| {
            let base = addr;
            addr += g.size() + GLOBAL_RED_ZONE;
            base
        })
        .collect();
    (bases, addr)
}

impl<'m> Machine<'m> {
    fn new(module: &'m Module, fuel: u64) -> Machine<'m> {
        let mut m = Machine {
            module,
            mem: HashMap::new(),
            regions: Vec::new(),
            next_addr: STACK_BASE,
            fuel,
            trace: Vec::new(),
            global_addrs: global_layout(module).0,
        };
        for (g, &addr) in module.globals.iter().zip(&m.global_addrs) {
            m.regions.push(Region { start: addr, len: g.size() });
            for (i, w) in g.words.iter().enumerate() {
                let bytes = (*w as u64).to_le_bytes();
                for (j, b) in bytes.iter().enumerate() {
                    m.mem.insert(addr + (i as u64) * 8 + j as u64, *b);
                }
            }
        }
        m
    }

    fn alloc(&mut self, size: u64, align: u64) -> u64 {
        let align = align.max(1);
        let start = self.next_addr.div_ceil(align) * align;
        self.regions.push(Region { start, len: size });
        self.next_addr = start + size + 32; // red zone
        start
    }

    fn region_of(&self, addr: u64, size: u64) -> Option<Region> {
        self.regions
            .iter()
            .copied()
            .find(|r| addr >= r.start && addr.saturating_add(size) <= r.start + r.len)
    }

    fn load_bytes(&self, addr: u64, size: u64) -> Result<u64, Trap> {
        if self.region_of(addr, size).is_none() {
            return Err(Trap::OutOfBounds { addr });
        }
        let mut v = 0u64;
        for i in 0..size {
            v |= (*self.mem.get(&(addr + i)).unwrap_or(&0) as u64) << (8 * i);
        }
        Ok(v)
    }

    fn store_bytes(&mut self, addr: u64, size: u64, v: u64) -> Result<(), Trap> {
        if self.region_of(addr, size).is_none() {
            return Err(Trap::OutOfBounds { addr });
        }
        for i in 0..size {
            self.mem.insert(addr + i, (v >> (8 * i)) as u8);
        }
        Ok(())
    }

    fn burn(&mut self, n: u64) -> Result<(), Trap> {
        if self.fuel < n {
            self.fuel = 0;
            return Err(Trap::OutOfFuel);
        }
        self.fuel -= n;
        Ok(())
    }
}

/// Deterministic 64-bit mixer used to model opaque external functions.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Run function `fname` of `m` on raw-bit `args`.
///
/// # Errors
///
/// Returns a [`Trap`] for abnormal termination; see the module docs for the
/// trap taxonomy.
pub fn run(m: &Module, fname: &str, args: &[u64], cfg: &ExecConfig) -> Result<Outcome, Trap> {
    let f = m.function(fname).ok_or_else(|| Trap::UnknownFunction(fname.to_owned()))?;
    let mut machine = Machine::new(m, cfg.fuel);
    let ret = call_function(&mut machine, f, args, cfg.max_depth)?;
    let globals = m
        .globals
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let base = machine.global_addrs[i];
            (0..g.size()).map(|off| *machine.mem.get(&(base + off)).unwrap_or(&0)).collect()
        })
        .collect();
    Ok(Outcome { ret, globals, trace: machine.trace })
}

fn call_function(
    machine: &mut Machine<'_>,
    f: &Function,
    args: &[u64],
    depth: u32,
) -> Result<Option<u64>, Trap> {
    if depth == 0 {
        return Err(Trap::StackOverflow);
    }
    let mut regs: Vec<Option<u64>> = vec![None; f.reg_bound()];
    for (i, &(r, _)) in f.params.iter().enumerate() {
        regs[r.index()] = Some(args.get(i).copied().unwrap_or(0));
    }
    let mut cur = f.entry();
    let mut prev: Option<BlockId> = None;
    loop {
        let block = f.block(cur);
        // Parallel φ evaluation.
        if let Some(p) = prev {
            let mut staged: Vec<(Reg, u64)> = Vec::with_capacity(block.phis.len());
            for phi in &block.phis {
                let v = phi
                    .incoming_from(p)
                    .ok_or(Trap::UndefValue)
                    .and_then(|op| eval_operand(machine, &regs, op))?;
                staged.push((phi.dst, v));
            }
            for (r, v) in staged {
                regs[r.index()] = Some(v);
            }
            machine.burn(block.phis.len() as u64)?;
        }
        for inst in &block.insts {
            machine.burn(1)?;
            exec_inst(machine, f, &mut regs, inst, depth)?;
        }
        machine.burn(1)?;
        match &block.term {
            Term::Ret { val, .. } => {
                return match val {
                    None => Ok(None),
                    Some(v) => Ok(Some(eval_operand(machine, &regs, *v)?)),
                };
            }
            Term::Br { target } => {
                prev = Some(cur);
                cur = *target;
            }
            Term::CondBr { cond, t, f: fb } => {
                let c = eval_operand(machine, &regs, *cond)?;
                prev = Some(cur);
                cur = if c & 1 == 1 { *t } else { *fb };
            }
            Term::Switch { ty, val, default, cases } => {
                let v = eval_operand(machine, &regs, *val)?;
                let mut target = *default;
                for (k, b) in cases {
                    if ty.wrap(*k as u64) == v {
                        target = *b;
                        break;
                    }
                }
                prev = Some(cur);
                cur = target;
            }
            Term::Unreachable => return Err(Trap::Unreachable),
        }
    }
}

fn eval_operand(machine: &Machine<'_>, regs: &[Option<u64>], op: Operand) -> Result<u64, Trap> {
    match op {
        Operand::Reg(r) => regs[r.index()].ok_or(Trap::UndefValue),
        Operand::Const(Constant::Int { bits, .. }) => Ok(bits),
        Operand::Const(Constant::Float(bits)) => Ok(bits),
        Operand::Const(Constant::Null) => Ok(0),
        Operand::Const(Constant::Undef(_)) => Err(Trap::UndefValue),
        Operand::Global(g) => Ok(machine.global_addrs[g.index()]),
    }
}

fn exec_inst(
    machine: &mut Machine<'_>,
    f: &Function,
    regs: &mut Vec<Option<u64>>,
    instr: &Inst,
    depth: u32,
) -> Result<(), Trap> {
    let set = |regs: &mut Vec<Option<u64>>, r: Reg, v: u64| regs[r.index()] = Some(v);
    match instr {
        Inst::Bin { dst, op, ty, a, b } => {
            let va = eval_operand(machine, regs, *a)?;
            let vb = eval_operand(machine, regs, *b)?;
            let v = inst::eval_binop(*op, *ty, va, vb).map_err(|_| Trap::DivByZero)?;
            set(regs, *dst, v);
        }
        Inst::FBin { dst, op, a, b } => {
            let va = eval_operand(machine, regs, *a)?;
            let vb = eval_operand(machine, regs, *b)?;
            set(regs, *dst, inst::eval_fbinop(*op, va, vb));
        }
        Inst::Icmp { dst, pred, ty, a, b } => {
            let va = eval_operand(machine, regs, *a)?;
            let vb = eval_operand(machine, regs, *b)?;
            let t = if ty.is_ptr() { Ty::I64 } else { *ty };
            set(regs, *dst, inst::eval_icmp(*pred, t, va, vb) as u64);
        }
        Inst::Fcmp { dst, pred, a, b } => {
            let va = eval_operand(machine, regs, *a)?;
            let vb = eval_operand(machine, regs, *b)?;
            set(regs, *dst, inst::eval_fcmp(*pred, va, vb) as u64);
        }
        Inst::Select { dst, c, t, f: fv, .. } => {
            let vc = eval_operand(machine, regs, *c)?;
            let v = if vc & 1 == 1 {
                eval_operand(machine, regs, *t)?
            } else {
                eval_operand(machine, regs, *fv)?
            };
            set(regs, *dst, v);
        }
        Inst::Cast { dst, op, from, to, v } => {
            let vv = eval_operand(machine, regs, *v)?;
            set(regs, *dst, inst::eval_cast(*op, *from, *to, vv));
        }
        Inst::Alloca { dst, size, align } => {
            let addr = machine.alloc(*size, *align);
            set(regs, *dst, addr);
        }
        Inst::Load { dst, ty, ptr } => {
            let p = eval_operand(machine, regs, *ptr)?;
            let v = machine.load_bytes(p, ty.bytes())?;
            let v = if ty.is_int() { ty.wrap(v) } else { v };
            set(regs, *dst, v);
        }
        Inst::Store { ty, val, ptr } => {
            let v = eval_operand(machine, regs, *val)?;
            let p = eval_operand(machine, regs, *ptr)?;
            machine.store_bytes(p, ty.bytes(), v)?;
        }
        Inst::Gep { dst, base, offset } => {
            let b = eval_operand(machine, regs, *base)?;
            let o = eval_operand(machine, regs, *offset)?;
            set(regs, *dst, b.wrapping_add(o));
        }
        Inst::Call { dst, callee, args, .. } => {
            let mut vals = Vec::with_capacity(args.len());
            for (_, a) in args {
                vals.push(eval_operand(machine, regs, *a)?);
            }
            let r = call_any(machine, callee, &vals, depth)?;
            if let Some(d) = dst {
                set(regs, *d, r.unwrap_or(0));
            }
            let _ = f;
        }
    }
    Ok(())
}

fn call_any(
    machine: &mut Machine<'_>,
    callee: &str,
    args: &[u64],
    depth: u32,
) -> Result<Option<u64>, Trap> {
    if let Some(f) = machine.module.function(callee) {
        return call_function(machine, f, args, depth - 1);
    }
    machine.burn(1)?;
    let arg = |i: usize| args.get(i).copied().unwrap_or(0);
    match callee {
        "strlen" => {
            let p = arg(0);
            let mut n = 0u64;
            loop {
                machine.burn(1)?;
                let b = machine.load_bytes(p + n, 1)?;
                if b == 0 {
                    break;
                }
                n += 1;
            }
            Ok(Some(n))
        }
        "atoi" => {
            let p = arg(0);
            let mut n: i64 = 0;
            let mut i = 0u64;
            let mut neg = false;
            let first = machine.load_bytes(p, 1)?;
            if first == b'-' as u64 {
                neg = true;
                i = 1;
            }
            loop {
                machine.burn(1)?;
                let b = machine.load_bytes(p + i, 1)?;
                if !(b as u8).is_ascii_digit() {
                    break;
                }
                n = n.wrapping_mul(10).wrapping_add((b - b'0' as u64) as i64);
                i += 1;
            }
            Ok(Some(if neg { n.wrapping_neg() } else { n } as u64))
        }
        "memset" => {
            let (p, x, l) = (arg(0), arg(1), arg(2));
            machine.trace.push(("memset".into(), args.to_vec()));
            for i in 0..l {
                machine.burn(1)?;
                machine.store_bytes(p + i, 1, x & 0xff)?;
            }
            Ok(Some(p))
        }
        "memcpy" => {
            let (d, s, l) = (arg(0), arg(1), arg(2));
            machine.trace.push(("memcpy".into(), args.to_vec()));
            for i in 0..l {
                machine.burn(1)?;
                let b = machine.load_bytes(s + i, 1)?;
                machine.store_bytes(d + i, 1, b)?;
            }
            Ok(Some(d))
        }
        "abs" => Ok(Some((arg(0) as i64).wrapping_abs() as u64)),
        "ext_pure" => Ok(Some(splitmix64(arg(0) ^ 0xe7_15))),
        "ext_ro" => {
            let v = machine.load_bytes(arg(0), 8)?;
            Ok(Some(splitmix64(v ^ arg(1))))
        }
        "ext_rw" => {
            let p = arg(0);
            machine.trace.push(("ext_rw".into(), args.to_vec()));
            let v = machine.load_bytes(p, 8)?;
            machine.store_bytes(p, 8, splitmix64(v))?;
            Ok(Some(v))
        }
        "sink" => {
            machine.trace.push(("sink".into(), args.to_vec()));
            Ok(None)
        }
        other => Err(Trap::UnknownFunction(other.to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    fn run_src(src: &str, fname: &str, args: &[u64]) -> Result<Outcome, Trap> {
        let m = parse_module(src).expect("parse");
        run(&m, fname, args, &ExecConfig::default())
    }

    #[test]
    fn arithmetic_and_branching() {
        let src = "\
define i64 @max(i64 %a, i64 %b) {
entry:
  %c = icmp sgt i64 %a, %b
  br i1 %c, label %l, label %r
l:
  ret i64 %a
r:
  ret i64 %b
}
";
        assert_eq!(run_src(src, "max", &[3, 9]).unwrap().ret, Some(9));
        assert_eq!(run_src(src, "max", &[9, 3]).unwrap().ret, Some(9));
    }

    #[test]
    fn loop_sums() {
        let src = "\
define i64 @sum(i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %b ]
  %s = phi i64 [ 0, %entry ], [ %s2, %b ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %b, label %e
b:
  %s2 = add i64 %s, %i
  %i2 = add i64 %i, 1
  br label %h
e:
  ret i64 %s
}
";
        assert_eq!(run_src(src, "sum", &[10]).unwrap().ret, Some(45));
        assert_eq!(run_src(src, "sum", &[0]).unwrap().ret, Some(0));
    }

    #[test]
    fn memory_and_globals() {
        let src = "\
@g = global [2 x i64] [5, 0]

define i64 @bump() {
entry:
  %v = load i64, ptr @g
  %v2 = add i64 %v, 1
  %q = gep ptr @g, i64 8
  store i64 %v2, ptr %q
  ret i64 %v
}
";
        let out = run_src(src, "bump", &[]).unwrap();
        assert_eq!(out.ret, Some(5));
        let g = &out.globals[0];
        assert_eq!(u64::from_le_bytes(g[8..16].try_into().unwrap()), 6);
    }

    #[test]
    fn allocas_are_not_observable() {
        let src = "\
define i64 @local() {
entry:
  %p = alloca 8, align 8
  store i64 41, ptr %p
  %v = load i64, ptr %p
  %r = add i64 %v, 1
  ret i64 %r
}
";
        let out = run_src(src, "local", &[]).unwrap();
        assert_eq!(out.ret, Some(42));
        assert!(out.globals.is_empty());
        assert!(out.trace.is_empty());
    }

    #[test]
    fn traps() {
        let div =
            "define i64 @d(i64 %a, i64 %b) {\nentry:\n  %q = sdiv i64 %a, %b\n  ret i64 %q\n}\n";
        assert_eq!(run_src(div, "d", &[1, 0]), Err(Trap::DivByZero));
        assert_eq!(run_src(div, "d", &[10, 2]).unwrap().ret, Some(5));

        let oob = "define i64 @o() {\nentry:\n  %p = alloca 8, align 8\n  %q = gep ptr %p, i64 64\n  %v = load i64, ptr %q\n  ret i64 %v\n}\n";
        assert!(matches!(run_src(oob, "o", &[]), Err(Trap::OutOfBounds { .. })));

        let inf = "define void @i() {\nentry:\n  br label %entry\n}\n";
        assert_eq!(run_src(inf, "i", &[]), Err(Trap::OutOfFuel));

        let unk = "define void @u() {\nentry:\n  call void @mystery()\n  ret void\n}\n";
        assert_eq!(run_src(unk, "u", &[]), Err(Trap::UnknownFunction("mystery".into())));
    }

    #[test]
    fn libc_strlen_and_memset() {
        let src = "\
define i64 @f() {
entry:
  %p = alloca 16, align 8
  call i64 @memset(ptr %p, i64 65, i64 7)
  %z = gep ptr %p, i64 7
  call i64 @memset(ptr %z, i64 0, i64 9)
  %n = call i64 @strlen(ptr %p)
  ret i64 %n
}
";
        let out = run_src(src, "f", &[]).unwrap();
        assert_eq!(out.ret, Some(7));
        assert_eq!(out.trace.len(), 2);
        assert_eq!(out.trace[0].0, "memset");
    }

    #[test]
    fn sink_records_trace() {
        let src = "\
define void @f(i64 %x) {
entry:
  call void @sink(i64 %x)
  call void @sink(i64 7)
  ret void
}
";
        let out = run_src(src, "f", &[3]).unwrap();
        assert_eq!(out.trace, vec![("sink".into(), vec![3]), ("sink".into(), vec![7])]);
    }

    #[test]
    fn internal_calls_work() {
        let src = "\
define i64 @callee(i64 %x) {
entry:
  %r = mul i64 %x, 3
  ret i64 %r
}

define i64 @caller(i64 %x) {
entry:
  %r = call i64 @callee(i64 %x)
  %s = add i64 %r, 1
  ret i64 %s
}
";
        assert_eq!(run_src(src, "caller", &[5]).unwrap().ret, Some(16));
    }

    #[test]
    fn phi_evaluation_is_parallel() {
        // Swap via φ: both φs must read the pre-transfer values.
        let src = "\
define i64 @swap(i64 %n) {
entry:
  br label %h
h:
  %a = phi i64 [ 0, %entry ], [ %b, %h ]
  %b = phi i64 [ 1, %entry ], [ %a, %h ]
  %i = phi i64 [ 0, %entry ], [ %i2, %h ]
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, %n
  br i1 %c, label %h, label %e
e:
  %r = mul i64 %a, 10
  %r2 = add i64 %r, %b
  ret i64 %r2
}
";
        // Parallel: (a,b) swaps each trip: (0,1)→(1,0)→(0,1); exits with
        // (a,b)=(0,1) so r=1. Sequential evaluation would yield 11.
        assert_eq!(run_src(src, "swap", &[3]).unwrap().ret, Some(1));
    }

    #[test]
    fn switch_dispatch() {
        let src = "\
define i64 @sw(i64 %x) {
entry:
  switch i64 %x, label %d [ 1, label %a 2, label %b ]
a:
  ret i64 100
b:
  ret i64 200
d:
  ret i64 0
}
";
        assert_eq!(run_src(src, "sw", &[1]).unwrap().ret, Some(100));
        assert_eq!(run_src(src, "sw", &[2]).unwrap().ret, Some(200));
        assert_eq!(run_src(src, "sw", &[9]).unwrap().ret, Some(0));
    }
}
