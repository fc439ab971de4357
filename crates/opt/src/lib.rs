//! `lir-opt` — the "black box" optimizer the validator validates.
//!
//! From-scratch reimplementations of the LLVM passes exercised by the PLDI
//! 2011 paper "Evaluating Value-Graph Translation Validation for LLVM":
//!
//! | paper pass | module |
//! |---|---|
//! | mem2reg (input preprocessing) | [`mem2reg`] |
//! | ADCE — aggressive dead-code elimination | [`adce`] |
//! | GVN — global value numbering with alias analysis | [`gvn`] |
//! | SCCP — sparse conditional constant propagation | [`sccp`] |
//! | LICM — loop-invariant code motion | [`licm`] |
//! | LD — loop deletion | [`loopdel`] |
//! | LU — loop unswitching | [`unswitch`] |
//! | DSE — dead-store elimination | [`dse`] |
//! | instcombine (paper §4, "optimization-specific rules") | [`instcombine`] |
//!
//! Passes are function-local ([`Pass`]) and are orchestrated by
//! [`PassManager`]; [`paper_pipeline`] builds the exact pipeline of §5.1
//! from [`PAPER_PASSES`].
//! The optimizer consults the same [known-function table](lir::known) LLVM
//! uses libc knowledge for, which is what produces the paper's
//! characteristic LICM false alarms when the validator's libc rules are off.

pub mod adce;
pub mod alias;
pub mod dse;
pub mod gvn;
pub mod instcombine;
pub mod licm;
pub mod loopdel;
pub mod mem2reg;
pub mod sccp;
pub mod simplifycfg;
pub mod unswitch;
pub mod util;

use lir::func::{Function, Global, Module};

/// Read-only module context available to function passes.
#[derive(Clone, Copy, Debug)]
pub struct Ctx<'a> {
    /// Module globals (for constant-global folding and aliasing).
    pub globals: &'a [Global],
}

impl<'a> Ctx<'a> {
    /// Context over a module.
    pub fn of(m: &'a Module) -> Ctx<'a> {
        Ctx { globals: &m.globals }
    }

    /// An empty context (no globals), for tests.
    pub fn empty() -> Ctx<'static> {
        Ctx { globals: &[] }
    }
}

/// A function-level optimization pass.
pub trait Pass {
    /// Short name used in reports (matches the paper's abbreviations).
    fn name(&self) -> &'static str;

    /// Run on one function; return `true` if the function changed.
    fn run(&self, f: &mut Function, ctx: &Ctx<'_>) -> bool;
}

/// An ordered list of passes run function-by-function.
///
/// Passes are held as `Send + Sync` trait objects so a `PassManager` can be
/// shared across the driver's validation worker threads (passes are
/// stateless configuration; all mutable state lives in the function being
/// optimized).
pub struct PassManager {
    passes: Vec<Box<dyn Pass + Send + Sync>>,
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>())
            .finish()
    }
}

impl PassManager {
    /// An empty pass manager.
    pub fn new() -> PassManager {
        PassManager { passes: Vec::new() }
    }

    /// Append a pass.
    pub fn add(&mut self, p: Box<dyn Pass + Send + Sync>) -> &mut Self {
        self.passes.push(p);
        self
    }

    /// The registered pass names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Number of registered passes (= number of chain-validation steps).
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// True when no passes are registered.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// The name of the pass at step `idx` (panics when out of range, like
    /// indexing).
    pub fn step_name(&self, idx: usize) -> &'static str {
        self.passes[idx].name()
    }

    /// Run only the pass at step `idx` on one function — the unit chain
    /// validation steps each function through the pipeline with. Returns
    /// the pass's own `changed` flag; panics when `idx` is out of range.
    pub fn run_step_function(&self, idx: usize, f: &mut Function, ctx: &Ctx<'_>) -> bool {
        let p = &self.passes[idx];
        let changed = p.run(f, ctx);
        debug_assert!(
            lir::verify::verify_function(f).is_ok(),
            "pass {} broke function @{}:\n{}\n{:?}",
            p.name(),
            f.name,
            f,
            lir::verify::verify_function(f).err()
        );
        changed
    }

    /// Run only the pass at step `idx` over every function of a module.
    /// Because passes are function-local, running steps 0..len() in order
    /// over one module produces exactly the module
    /// [`PassManager::run_module`] produces. Returns `true` if anything
    /// changed; panics when `idx` is out of range.
    pub fn run_step(&self, idx: usize, m: &mut Module) -> bool {
        let Module { globals, functions, .. } = m;
        let ctx = Ctx { globals };
        let mut changed = false;
        for f in functions {
            changed |= self.run_step_function(idx, f, &ctx);
        }
        changed
    }

    /// Run all passes on one function. Returns `true` if anything changed.
    pub fn run_function(&self, f: &mut Function, ctx: &Ctx<'_>) -> bool {
        let mut changed = false;
        for idx in 0..self.len() {
            changed |= self.run_step_function(idx, f, ctx);
        }
        changed
    }

    /// Run all passes over every function of a module.
    pub fn run_module(&self, m: &mut Module) -> bool {
        let Module { globals, functions, .. } = m;
        let ctx = Ctx { globals };
        let mut changed = false;
        for f in functions {
            changed |= self.run_function(f, &ctx);
        }
        changed
    }
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::new()
    }
}

/// Every pass name [`pass_by_name`] recognizes, in registry order (the
/// paper abbreviations). Error messages and CLI help list this, and
/// `pass_by_name` is tested to stay in sync with it.
pub const KNOWN_PASSES: [&str; 10] =
    ["adce", "gvn", "sccp", "licm", "ld", "lu", "dse", "instcombine", "mem2reg", "simplifycfg"];

/// The names [`pass_by_name`] recognizes, as a slice (see [`KNOWN_PASSES`]).
pub fn known_passes() -> &'static [&'static str] {
    &KNOWN_PASSES
}

/// Construct one pass by its paper abbreviation.
///
/// Recognized names: `adce`, `gvn`, `sccp`, `licm`, `ld` (loop deletion),
/// `lu` (loop unswitching), `dse`, `instcombine`, `mem2reg`, `simplifycfg`
/// (the [`KNOWN_PASSES`] registry).
pub fn pass_by_name(name: &str) -> Option<Box<dyn Pass + Send + Sync>> {
    Some(match name {
        "adce" => Box::new(adce::Adce),
        "gvn" => Box::new(gvn::Gvn),
        "sccp" => Box::new(sccp::Sccp),
        "licm" => Box::new(licm::Licm),
        "ld" => Box::new(loopdel::LoopDeletion),
        "lu" => Box::new(unswitch::LoopUnswitch),
        "dse" => Box::new(dse::Dse),
        "instcombine" => Box::new(instcombine::InstCombine),
        "mem2reg" => Box::new(mem2reg::Mem2Reg),
        "simplifycfg" => Box::new(simplifycfg::SimplifyCfg),
        _ => return None,
    })
}

/// The paper's §5.1 pipeline order: ADCE, GVN, SCCP, LICM, loop deletion,
/// loop unswitching, DSE.
pub const PAPER_PASSES: [&str; 7] = ["adce", "gvn", "sccp", "licm", "ld", "lu", "dse"];

/// The paper's experimental pipeline: the [`PAPER_PASSES`] in order.
pub fn paper_pipeline() -> PassManager {
    let mut pm = PassManager::new();
    for name in PAPER_PASSES {
        pm.add(pass_by_name(name).expect("known pass"));
    }
    pm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_has_paper_order() {
        let pm = paper_pipeline();
        assert_eq!(pm.names(), vec!["adce", "gvn", "sccp", "licm", "ld", "lu", "dse"]);
    }

    #[test]
    fn pass_by_name_rejects_unknown() {
        assert!(pass_by_name("magic").is_none());
        assert!(pass_by_name("gvn").is_some());
    }

    /// The advertised registry and the constructor stay in sync.
    #[test]
    fn known_passes_all_resolve() {
        for &name in known_passes() {
            let p = pass_by_name(name).unwrap_or_else(|| panic!("`{name}` must resolve"));
            assert_eq!(p.name(), name, "registry name and pass name must agree");
        }
    }

    /// Every pass's flag says whether it changed a function whose only
    /// possible edit is deleting its two unreachable blocks.
    #[test]
    fn every_pass_reports_an_unreachable_block_sweep() {
        let src = "define i64 @f(i64 %a) {\n\
                   entry:\n  ret i64 %a\n\
                   dead:\n  br label %dead2\n\
                   dead2:\n  ret i64 0\n\
                   }\n";
        let before = lir::parse::parse_module(src).expect("parse").functions.remove(0);
        for &name in known_passes() {
            let mut after = before.clone();
            let flag = pass_by_name(name).expect("known pass").run(&mut after, &Ctx::empty());
            assert_eq!(flag, after != before, "`{name}` returned {flag}:\n{after}");
        }
    }

    /// `run_step` over every step equals `run_module` (passes are
    /// function-local, so the iteration orders commute).
    #[test]
    fn run_step_sequence_equals_run_module() {
        let src = "define i64 @f(i1 %c) {\n\
                   entry:\n  br i1 %c, label %t, label %e\n\
                   t:\n  br label %j\n\
                   e:\n  br label %j\n\
                   j:\n  %a = phi i64 [ 1, %t ], [ 2, %e ]\n\
                   %b = phi i64 [ 1, %t ], [ 2, %e ]\n\
                   %s = sub i64 %a, %b\n  %d = add i64 3, 3\n  %m = mul i64 %s, %d\n\
                   ret i64 %m\n\
                   }\n\
                   define i64 @g(i64 %x) {\nentry:\n  %y = add i64 %x, 0\n  ret i64 %y\n}\n";
        let m = lir::parse::parse_module(src).expect("parse");
        let pm = paper_pipeline();
        assert_eq!(pm.len(), 7);
        assert!(!pm.is_empty());
        assert_eq!(pm.step_name(1), "gvn");
        let mut whole = m.clone();
        pm.run_module(&mut whole);
        let mut stepped = m.clone();
        for k in 0..pm.len() {
            pm.run_step(k, &mut stepped);
        }
        assert_eq!(format!("{whole}"), format!("{stepped}"));
    }
}
