//! Shared helpers for passes: definition maps, trivial dead-code sweeping.

use lir::func::{BlockId, Function};
use lir::inst::Inst;
use lir::value::Reg;

/// Location of an instruction: `(block, index)`.
pub type InstLoc = (BlockId, usize);

/// Map from register to the location of its defining instruction. φ defs and
/// parameters map to `None` (they are not `Inst`s).
pub fn def_locs(f: &Function) -> Vec<Option<InstLoc>> {
    let mut defs: Vec<Option<InstLoc>> = vec![None; f.reg_bound()];
    for (id, b) in f.iter_blocks() {
        for (i, inst) in b.insts.iter().enumerate() {
            if let Some(d) = inst.dst() {
                defs[d.index()] = Some((id, i));
            }
        }
    }
    defs
}

/// Look up the defining instruction of `r`, if it is an instruction result.
pub fn def_inst<'f>(f: &'f Function, defs: &[Option<InstLoc>], r: Reg) -> Option<&'f Inst> {
    let (b, i) = defs.get(r.index()).copied().flatten()?;
    Some(&f.block(b).insts[i])
}

/// Remove instructions whose results are unused and which are removable
/// (pure, non-trapping, or `alloca`). Iterates to a fixpoint so chains of
/// dead definitions disappear. Returns `true` on change.
///
/// Unlike [ADCE](crate::adce) this keeps dead φ-cycles alive, since every φ
/// feeding another φ counts as used.
pub fn sweep_trivially_dead(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let uses = f.use_counts();
        let mut any = false;
        for b in &mut f.blocks {
            let before = b.insts.len() + b.phis.len();
            b.insts.retain(|inst| match inst.dst() {
                Some(d) => uses[d.index()] > 0 || !inst.is_removable_if_unused(),
                None => true,
            });
            b.phis.retain(|phi| uses[phi.dst.index()] > 0);
            any |= b.insts.len() + b.phis.len() != before;
        }
        if !any {
            return changed;
        }
        changed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse::parse_module;

    #[test]
    fn def_locs_finds_instructions() {
        let m = parse_module(
            "define i64 @f(i64 %x) {\nentry:\n  %y = add i64 %x, 1\n  %z = add i64 %y, 1\n  ret i64 %z\n}\n",
        )
        .unwrap();
        let f = &m.functions[0];
        let defs = def_locs(f);
        assert_eq!(defs[0], None); // parameter
        assert_eq!(defs[1], Some((BlockId(0), 0)));
        assert_eq!(defs[2], Some((BlockId(0), 1)));
        assert!(def_inst(f, &defs, Reg(1)).is_some());
    }

    #[test]
    fn sweep_removes_dead_chains_but_keeps_effects() {
        let m = parse_module(
            "define i64 @f(i64 %x, ptr %p) {\nentry:\n  %a = add i64 %x, 1\n  %b = mul i64 %a, 2\n  store i64 %x, ptr %p\n  %c = load i64, ptr %p\n  ret i64 %x\n}\n",
        )
        .unwrap();
        let mut f = m.functions[0].clone();
        assert!(sweep_trivially_dead(&mut f));
        // %a, %b, %c removed (the load result is unused but loads may trap —
        // loads are removable when unused? No: may_trap makes them kept).
        let remaining: Vec<_> = f.blocks[0].insts.iter().map(|i| i.dst()).collect();
        assert_eq!(f.blocks[0].insts.len(), 2); // store + load stay
        assert!(remaining.contains(&None));
    }

    #[test]
    fn sweep_keeps_dead_phi_cycles() {
        let m = parse_module(
            "define void @f(i64 %n) {\nentry:\n  br label %h\nh:\n  %i = phi i64 [ 0, %entry ], [ %i2, %h ]\n  %i2 = add i64 %i, 1\n  %c = icmp slt i64 %i2, %n\n  br i1 %c, label %h, label %e\ne:\n  ret void\n}\n",
        )
        .unwrap();
        let mut f = m.functions[0].clone();
        sweep_trivially_dead(&mut f);
        // The φ-cycle %i/%i2 feeds the branch condition; everything stays.
        assert_eq!(f.blocks[1].phis.len(), 1);
    }
}
