//! LICM — loop-invariant code motion.
//!
//! Hoists loop-invariant computations to the loop preheader:
//!
//! * speculatable instructions (pure arithmetic, comparisons, `gep`, casts)
//!   whenever their operands are invariant;
//! * trapping-but-pure instructions (divisions) and invariant **loads** when
//!   their block dominates every exiting block (so they execute on every
//!   complete trip) and, for loads, no store/writing call in the loop may
//!   alias the location;
//! * calls to **readonly, argument-memory-only** known functions (`strlen`,
//!   `atoi`, …) under the same conditions — this is LLVM's libc knowledge,
//!   and the paper's main LICM false-alarm source (§5.3): the validator can
//!   only check these hoists with the opt-in libc rules.

use crate::alias::Aliasing;
use crate::{Ctx, Pass};
use lir::func::{BlockId, Function};
use lir::inst::Inst;
use lir::loops::{Analyses, LoopId};
use lir::transform::loop_simplify;
use lir::value::{Operand, Reg};
use std::collections::HashSet;

/// The LICM pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Licm;

impl Pass for Licm {
    fn name(&self) -> &'static str {
        "licm"
    }

    fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
        run_licm(f)
    }
}

/// Run LICM on every loop, innermost first. Returns `true` on change.
///
/// Hoisting moves instructions only, so the CFG analyses built for
/// [`loop_simplify`] stay valid across every hoist.
pub fn run_licm(f: &mut Function) -> bool {
    let mut an = Analyses::new(f);
    let mut changed = loop_simplify(f, &mut an);
    if an.lf.is_reducible() {
        // After a hoist, rescan from the innermost loop again.
        while an.lf.innermost_first().into_iter().any(|lid| hoist_loop(f, &an, lid)) {
            changed = true;
        }
    }
    debug_assert!(an.describes(f), "stale analyses after LICM");
    changed
}

/// True when a `sz`-byte access at `ptr` provably cannot trap: the pointer
/// is a constant offset into a stack allocation and the access stays in
/// bounds.
fn derefable(f: &Function, aa: &Aliasing, ptr: Operand, sz: u64) -> bool {
    let info = aa.ptr_info(f, ptr);
    let crate::alias::PtrBase::Alloca(r) = info.base else { return false };
    let Some(off) = info.offset else { return false };
    let locs = crate::util::def_locs(f);
    match crate::util::def_inst(f, &locs, r) {
        Some(Inst::Alloca { size, .. }) => off >= 0 && (off as u64).saturating_add(sz) <= *size,
        _ => false,
    }
}

fn hoist_loop(f: &mut Function, an: &Analyses, lid: LoopId) -> bool {
    let Analyses { cfg, dt, lf } = an;
    let Some(preheader) = lf.preheader(cfg, lid) else { return false };
    let l = lf.get(lid);
    let body: HashSet<BlockId> = l.body.iter().copied().collect();

    // Registers defined inside the loop.
    let mut defined_in: HashSet<Reg> = HashSet::new();
    for &b in &l.body {
        for phi in &f.block(b).phis {
            defined_in.insert(phi.dst);
        }
        for inst in &f.block(b).insts {
            if let Some(d) = inst.dst() {
                defined_in.insert(d);
            }
        }
    }
    let invariant_op = |op: Operand, hoisted: &HashSet<Reg>, defined_in: &HashSet<Reg>| match op {
        Operand::Reg(r) => !defined_in.contains(&r) || hoisted.contains(&r),
        _ => true,
    };

    // Memory writes inside the loop.
    let mut writes: Vec<(Operand, u64)> = Vec::new(); // (ptr, size)
    let mut has_unknown_write = false;
    for &b in &l.body {
        for inst in &f.block(b).insts {
            match inst {
                Inst::Store { ty, ptr, .. } => writes.push((*ptr, ty.bytes())),
                Inst::Call { callee, .. } if lir::known::effects_of(callee).may_write() => {
                    has_unknown_write = true;
                }
                _ => {}
            }
        }
    }

    // Guaranteed-to-execute approximation: block dominates all exiting
    // blocks of the loop.
    let exiting: Vec<BlockId> = {
        let mut v: Vec<BlockId> = l.exits.iter().map(|(s, _)| *s).collect();
        v.sort();
        v.dedup();
        v
    };
    let dominates_exits = |b: BlockId| exiting.iter().all(|e| dt.dominates(b, *e));

    let mut hoisted: HashSet<Reg> = HashSet::new();
    let mut moved: Vec<Inst> = Vec::new();
    loop {
        // Hoisting removed instructions; the alias context's definition map
        // indexes into instruction lists and must be rebuilt per rescan.
        let aa = Aliasing::new(f);
        let mut progress = false;
        for &bid in &l.body {
            let insts = f.block(bid).insts.clone();
            for (i, inst) in insts.iter().enumerate() {
                let Some(dst) = inst.dst() else { continue };
                if hoisted.contains(&dst) {
                    continue;
                }
                let mut ops_invariant = true;
                inst.visit_operands(|op| {
                    ops_invariant &= invariant_op(op, &hoisted, &defined_in);
                });
                if !ops_invariant {
                    continue;
                }
                let ok = match inst {
                    _ if inst.is_speculatable() => true,
                    // Divisions and similar: pure but trapping.
                    Inst::Bin { .. } => dominates_exits(bid),
                    Inst::Load { ty, ptr, .. } => {
                        let sz = ty.bytes();
                        // Loads may be hoisted when guaranteed to execute,
                        // or speculated when the pointer is provably
                        // dereferenceable (an in-bounds stack slot) — the
                        // same distinction LLVM draws.
                        (dominates_exits(bid) || derefable(f, &aa, *ptr, sz))
                            && !has_unknown_write
                            && writes.iter().all(|(w, wsz)| aa.no_alias(f, *w, *wsz, *ptr, sz))
                    }
                    Inst::Call { callee, args, .. } => {
                        // Readonly, argmem-only known calls (strlen, atoi…).
                        lir::known::is_readonly_argmem(callee)
                            && dominates_exits(bid)
                            && !has_unknown_write
                            && args.iter().all(|(tyy, a)| {
                                !tyy.is_ptr()
                                    || writes.iter().all(|(w, wsz)| {
                                        // The call may read any extent from
                                        // its pointer args: require disjoint
                                        // *bases*, approximated by no-alias
                                        // at a huge size.
                                        aa.no_alias(f, *w, *wsz, *a, 1 << 20)
                                    })
                            })
                    }
                    _ => false,
                };
                if !ok {
                    continue;
                }
                // Hoist: remove from the block, remember for the preheader.
                let mut blk = f.block_mut(bid);
                let inst = blk.insts.remove(i);
                let _ = &mut blk;
                moved.push(inst);
                hoisted.insert(dst);
                progress = true;
                break; // indices shifted; rescan this loop
            }
            if progress {
                break;
            }
        }
        if !progress {
            break;
        }
    }
    if moved.is_empty() {
        return false;
    }
    let ph = f.block_mut(preheader);
    ph.insts.extend(moved);
    // `body` set unused beyond definitions; keep for clarity.
    let _ = body;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::interp::{run, ExecConfig};
    use lir::parse::parse_module;
    use lir::verify::verify_function;

    fn licm(src: &str) -> (lir::func::Module, lir::func::Module) {
        let m = parse_module(src).unwrap();
        let mut m2 = m.clone();
        run_licm(&mut m2.functions[0]);
        verify_function(&m2.functions[0]).unwrap_or_else(|e| panic!("{e}\n{}", m2.functions[0]));
        (m, m2)
    }

    fn block_of<'f>(f: &'f Function, name: &str) -> &'f lir::func::Block {
        f.iter_blocks().find(|(_, b)| b.name == name).unwrap().1
    }

    const INVARIANT_MUL: &str = "\
define i64 @f(i64 %a, i64 %b, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %s = phi i64 [ 0, %entry ], [ %s2, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %e
body:
  %inv = mul i64 %a, %b
  %s2 = add i64 %s, %inv
  %i2 = add i64 %i, 1
  br label %h
e:
  ret i64 %s
}
";

    #[test]
    fn hoists_invariant_arithmetic() {
        let (m, m2) = licm(INVARIANT_MUL);
        let body = block_of(&m2.functions[0], "body");
        assert!(
            !body.insts.iter().any(|i| matches!(i, Inst::Bin { op: lir::inst::BinOp::Mul, .. })),
            "mul should be hoisted: {}",
            m2.functions[0]
        );
        for n in [0u64, 1, 5] {
            assert_eq!(
                run(&m, "f", &[3, 4, n], &ExecConfig::default()).unwrap(),
                run(&m2, "f", &[3, 4, n], &ExecConfig::default()).unwrap()
            );
        }
    }

    #[test]
    fn hoists_invariant_load_when_no_aliasing_store() {
        let src = "\
define i64 @f(i64 %n) {
entry:
  %p = alloca 8, align 8
  %acc = alloca 8, align 8
  store i64 7, ptr %p
  store i64 0, ptr %acc
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %e
body:
  %v = load i64, ptr %p
  %cur = load i64, ptr %acc
  %nxt = add i64 %cur, %v
  store i64 %nxt, ptr %acc
  %i2 = add i64 %i, 1
  br label %h
e:
  %r = load i64, ptr %acc
  ret i64 %r
}
";
        let (m, m2) = licm(src);
        let body = block_of(&m2.functions[0], "body");
        // load %p hoisted (no aliasing store: %acc is a distinct alloca);
        // load %acc must stay (stored each iteration).
        let loads = body.insts.iter().filter(|i| matches!(i, Inst::Load { .. })).count();
        assert_eq!(loads, 1, "{}", m2.functions[0]);
        for n in [0u64, 1, 4] {
            assert_eq!(
                run(&m, "f", &[n], &ExecConfig::default()).unwrap(),
                run(&m2, "f", &[n], &ExecConfig::default()).unwrap()
            );
        }
    }

    #[test]
    fn hoists_strlen_like_llvm() {
        // The paper's LICM example: strlen(p) is hoisted out of the loop.
        let src = "\
define i64 @f(ptr %p, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %len = call i64 @strlen(ptr %p)
  %c = icmp slt i64 %i, %len
  br i1 %c, label %body, label %e
body:
  %i2 = add i64 %i, 1
  br label %h
e:
  ret i64 %i
}
";
        let (_, m2) = licm(src);
        // The call sits in the header (the paper's `i < strlen(p)` bound),
        // so it is guaranteed to execute and hoists to the preheader.
        let header = block_of(&m2.functions[0], "h");
        assert!(
            !header.insts.iter().any(|i| matches!(i, Inst::Call { .. })),
            "strlen should be hoisted: {}",
            m2.functions[0]
        );
    }

    #[test]
    fn does_not_hoist_strlen_past_aliasing_store() {
        let src = "\
define i64 @f(ptr %p, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %e
body:
  %q = gep ptr %p, i64 %i
  store i8 0, ptr %q
  %len = call i64 @strlen(ptr %p)
  %i2 = add i64 %len, %i
  br label %h
e:
  ret i64 %i
}
";
        let (_, m2) = licm(src);
        let body = block_of(&m2.functions[0], "body");
        assert!(
            body.insts.iter().any(|i| matches!(i, Inst::Call { .. })),
            "strlen must not be hoisted past a store into *p"
        );
    }

    #[test]
    fn does_not_hoist_division_from_guarded_block() {
        // The division is behind a branch inside the loop: it does not
        // dominate the exit, so hoisting could introduce a trap.
        let src = "\
define i64 @f(i64 %a, i64 %b, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %latch ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %e
body:
  %nz = icmp ne i64 %b, 0
  br i1 %nz, label %div, label %latch
div:
  %q = sdiv i64 %a, %b
  call void @sink(i64 %q)
  br label %latch
latch:
  %i2 = add i64 %i, 1
  br label %h
e:
  ret i64 %i
}
";
        let (m, m2) = licm(src);
        let div = block_of(&m2.functions[0], "div");
        assert!(
            div.insts.iter().any(|i| matches!(i, Inst::Bin { op: lir::inst::BinOp::SDiv, .. })),
            "guarded sdiv must stay: {}",
            m2.functions[0]
        );
        // b = 0 must still work when the guard skips the division.
        for args in [[6u64, 0, 3], [6, 2, 3]] {
            assert_eq!(
                run(&m, "f", &args, &ExecConfig::default()).unwrap(),
                run(&m2, "f", &args, &ExecConfig::default()).unwrap()
            );
        }
    }

    #[test]
    fn hoists_chains_transitively() {
        let src = "\
define i64 @f(i64 %a, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %e
body:
  %t1 = mul i64 %a, %a
  %t2 = add i64 %t1, 5
  %t3 = mul i64 %t2, %t1
  %i2 = add i64 %i, %t3
  br label %h
e:
  ret i64 %i
}
";
        let (_, m2) = licm(src);
        let body = block_of(&m2.functions[0], "body");
        assert_eq!(body.insts.len(), 1, "only i2 = add i, t3 stays: {}", m2.functions[0]);
    }

    #[test]
    fn nested_loops_hoist_to_outer_preheader() {
        let src = "\
define i64 @f(i64 %a, i64 %n) {
entry:
  br label %oh
oh:
  %i = phi i64 [ 0, %entry ], [ %i2, %olatch ]
  %oc = icmp slt i64 %i, %n
  br i1 %oc, label %ih0, label %e
ih0:
  br label %ih
ih:
  %j = phi i64 [ 0, %ih0 ], [ %j2, %ibody ]
  %ic = icmp slt i64 %j, %n
  br i1 %ic, label %ibody, label %olatch
ibody:
  %inv = mul i64 %a, %a
  %j2 = add i64 %j, %inv
  br label %ih
olatch:
  %i2 = add i64 %i, 1
  br label %oh
e:
  ret i64 %i
}
";
        let (m, m2) = licm(src);
        // The invariant mul leaves both loops entirely.
        for (_, b) in m2.functions[0].iter_blocks() {
            if b.name == "ibody" || b.name == "ih" || b.name == "oh" {
                assert!(!b
                    .insts
                    .iter()
                    .any(|i| matches!(i, Inst::Bin { op: lir::inst::BinOp::Mul, .. })));
            }
        }
        for n in [0u64, 2, 3] {
            assert_eq!(
                run(&m, "f", &[5, n], &ExecConfig::default()).unwrap(),
                run(&m2, "f", &[5, n], &ExecConfig::default()).unwrap()
            );
        }
    }
}
