//! DSE — dead-store elimination.
//!
//! Two classes of dead stores are removed, matching LLVM's pass:
//!
//! 1. **Overwritten stores**: a store followed (in the same block) by
//!    another store that must-alias the same location, with no intervening
//!    instruction that may read the location.
//! 2. **Dead-at-exit stores**: stores to non-escaping allocas that are never
//!    loaded from anywhere in the function — the memory dies with the frame,
//!    so the stores are unobservable.
//!
//! The validator's load/store simplification and dead-store purge rules
//! (paper §4, rules 10–11 plus sharing) are what make this pass checkable.

use crate::alias::{non_escaping_allocas, Aliasing, PtrBase};
use crate::{Ctx, Pass};
use lir::func::Function;
use lir::inst::Inst;
use lir::intern::IdSet;

/// The DSE pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dse;

impl Pass for Dse {
    fn name(&self) -> &'static str {
        "dse"
    }

    fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
        run_dse(f)
    }
}

/// Run DSE. Returns `true` on change.
pub fn run_dse(f: &mut Function) -> bool {
    let mut changed = false;
    changed |= remove_overwritten_stores(f);
    changed |= remove_stores_to_dead_allocas(f);
    changed
}

fn remove_overwritten_stores(f: &mut Function) -> bool {
    let aa = Aliasing::new(f);
    let mut dead: Vec<(usize, usize)> = Vec::new(); // (block, inst index)
    for (bi, b) in f.blocks.iter().enumerate() {
        for (i, inst) in b.insts.iter().enumerate() {
            let Inst::Store { ty, ptr, .. } = inst else { continue };
            let size = ty.bytes();
            // Scan forward for a killing store.
            'scan: for later in &b.insts[i + 1..] {
                match later {
                    Inst::Store { ty: ty2, ptr: ptr2, .. } => {
                        if aa.must_alias(f, *ptr2, *ptr) && ty2.bytes() >= size {
                            dead.push((bi, i));
                            break 'scan;
                        }
                        // A store that may alias only blocks reuse if it can
                        // partially overwrite; conservatively stop unless
                        // provably disjoint.
                        if !aa.no_alias(f, *ptr2, ty2.bytes(), *ptr, size) {
                            break 'scan;
                        }
                    }
                    Inst::Load { ty: lty, ptr: lptr, .. }
                        if !aa.no_alias(f, *lptr, lty.bytes(), *ptr, size) =>
                    {
                        break 'scan; // may observe the stored value
                    }
                    Inst::Call { callee, .. } if lir::known::effects_of(callee).may_read() => {
                        break 'scan;
                    }
                    _ => {}
                }
            }
        }
    }
    let any = !dead.is_empty();
    for (bi, i) in dead.into_iter().rev() {
        f.blocks[bi].insts.remove(i);
    }
    any
}

fn remove_stores_to_dead_allocas(f: &mut Function) -> bool {
    let aa = Aliasing::new(f);
    let ne = non_escaping_allocas(f);
    // Allocas that are loaded from (through any pointer that may reach them).
    let mut loaded: IdSet<lir::value::Reg> = IdSet::default();
    for (_, b) in f.iter_blocks() {
        for inst in &b.insts {
            let ptr = match inst {
                Inst::Load { ptr, .. } => Some(*ptr),
                // Readonly/argmem calls read through pointer args.
                Inst::Call { args, callee, .. } => {
                    if lir::known::effects_of(callee).may_read() {
                        for (tyy, a) in args {
                            if tyy.is_ptr() {
                                if let PtrBase::Alloca(r) = aa.ptr_info(f, *a).base {
                                    loaded.insert(r);
                                }
                            }
                        }
                    }
                    None
                }
                _ => None,
            };
            if let Some(p) = ptr {
                if let PtrBase::Alloca(r) = aa.ptr_info(f, p).base {
                    loaded.insert(r);
                }
            }
        }
    }
    // Collect dead stores first (the alias queries borrow `f`), then remove.
    let mut changed = false;
    let mut dead: Vec<(usize, usize)> = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for (i, inst) in b.insts.iter().enumerate() {
            if let Inst::Store { ptr, .. } = inst {
                if let PtrBase::Alloca(r) = aa.ptr_info(f, *ptr).base {
                    if ne.contains(&r) && !loaded.contains(&r) {
                        dead.push((bi, i));
                    }
                }
            }
        }
    }
    for (bi, i) in dead.iter().rev() {
        f.blocks[*bi].insts.remove(*i);
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse::parse_module;
    use lir::verify::verify_function;

    fn dse(src: &str) -> Function {
        let m = parse_module(src).unwrap();
        let mut f = m.functions[0].clone();
        run_dse(&mut f);
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        f
    }

    fn store_count(f: &Function) -> usize {
        f.blocks.iter().flat_map(|b| &b.insts).filter(|i| matches!(i, Inst::Store { .. })).count()
    }

    #[test]
    fn overwritten_store_removed() {
        let f = dse(
            "define i64 @f(ptr %p) {\nentry:\n  store i64 1, ptr %p\n  store i64 2, ptr %p\n  %v = load i64, ptr %p\n  ret i64 %v\n}\n",
        );
        assert_eq!(store_count(&f), 1);
    }

    #[test]
    fn intervening_load_blocks_removal() {
        let f = dse(
            "define i64 @f(ptr %p) {\nentry:\n  store i64 1, ptr %p\n  %v = load i64, ptr %p\n  store i64 2, ptr %p\n  ret i64 %v\n}\n",
        );
        assert_eq!(store_count(&f), 2);
    }

    #[test]
    fn noalias_load_does_not_block() {
        let f = dse(
            "define i64 @f() {\nentry:\n  %p = alloca 8, align 8\n  %q = alloca 8, align 8\n  store i64 9, ptr %q\n  store i64 1, ptr %p\n  %v = load i64, ptr %q\n  store i64 2, ptr %p\n  ret i64 %v\n}\n",
        );
        // store 1 to %p is overwritten (the load from %q doesn't protect
        // it), and %p is never loaded at all, so the dead-alloca sweep also
        // removes the overwriting store: only the store to %q survives.
        assert_eq!(store_count(&f), 1);
    }

    #[test]
    fn stores_to_never_loaded_alloca_removed() {
        let f = dse(
            "define i64 @f(i64 %x) {\nentry:\n  %p = alloca 8, align 8\n  store i64 %x, ptr %p\n  %y = add i64 %x, 1\n  ret i64 %y\n}\n",
        );
        assert_eq!(store_count(&f), 0);
    }

    #[test]
    fn escaping_alloca_stores_kept() {
        let f = dse(
            "define void @f(ptr %out) {\nentry:\n  %p = alloca 8, align 8\n  store ptr %p, ptr %out\n  store i64 1, ptr %p\n  ret void\n}\n",
        );
        assert_eq!(store_count(&f), 2);
    }

    #[test]
    fn readonly_call_protects_stores() {
        let f = dse(
            "define i64 @f() {\nentry:\n  %p = alloca 8, align 8\n  store i64 65, ptr %p\n  %n = call i64 @strlen(ptr %p)\n  ret i64 %n\n}\n",
        );
        assert_eq!(store_count(&f), 1);
    }

    #[test]
    fn behaviour_preserved() {
        use lir::interp::{run, ExecConfig};
        let src = "\
define i64 @f(i64 %x) {
entry:
  %p = alloca 8, align 8
  %dead = alloca 8, align 8
  store i64 %x, ptr %dead
  store i64 1, ptr %p
  store i64 %x, ptr %p
  %v = load i64, ptr %p
  ret i64 %v
}
";
        let m = parse_module(src).unwrap();
        let mut m2 = m.clone();
        run_dse(&mut m2.functions[0]);
        for x in [0u64, 7, u64::MAX] {
            assert_eq!(
                run(&m, "f", &[x], &ExecConfig::default()).unwrap(),
                run(&m2, "f", &[x], &ExecConfig::default()).unwrap()
            );
        }
    }
}
