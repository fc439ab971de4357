//! Benchmark profiles mirroring Table 1 of the paper.
//!
//! The paper evaluates on the pure-C programs of SPEC CPU2006 plus SQLite.
//! Those sources (and clang) are not available here, so each benchmark is
//! replaced by a **seeded synthetic profile** that preserves the properties
//! the evaluation depends on: the function-count scale (÷12 of Table 1,
//! lower-bounded), the size distribution (most functions small, a long tail
//! of large ones), and the code style that drives each benchmark's
//! validation behaviour — branch-heavy parser/compiler code (gcc,
//! perlbench, sjeng), numeric loop kernels (lbm, milc, hmmer, sphinx),
//! pointer/memory-heavy code (SQLite, mcf, h264ref), libc usage and
//! switch-based dispatch. Table 1's original numbers are retained in
//! [`Profile::paper`] so the Table-1 harness can print paper-vs-ours.
//!
//! Besides the *what* to optimize, this module also pins the *how*: the
//! pipeline [`Schedule`]s chain validation sweeps — the paper's §5.1
//! pipeline ([`paper_schedule`]), one-pass singletons
//! ([`singleton_schedules`], the Fig. 5 axis), and a seeded shuffled-order
//! stress schedule ([`shuffled_schedule`]) that exercises pass interactions
//! the fixed order never hits.

use crate::rng::SplitMix64;
pub use lir_opt::PAPER_PASSES;
use lir_opt::{pass_by_name, PassManager};

/// Table 1 facts for the real benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PaperRow {
    /// LLVM-assembly file size as printed in Table 1 (e.g. "5.6M").
    pub size: &'static str,
    /// Lines of assembly, thousands (e.g. 136 for "136K").
    pub loc_k: u32,
    /// Number of functions.
    pub functions: u32,
}

/// A synthetic stand-in for one Table-1 benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// Benchmark name, as in Table 1.
    pub name: &'static str,
    /// The original Table-1 row.
    pub paper: PaperRow,
    /// Number of functions to generate (paper count ÷ 12, min 10).
    pub functions: usize,
    /// Generation seed (distinct per benchmark, fixed for reproducibility).
    pub seed: u64,
    /// Average straight-line segment length (instructions).
    pub avg_segment: usize,
    /// Probability that a region becomes a loop.
    pub loop_prob: f64,
    /// Probability that a region becomes an if/else.
    pub branch_prob: f64,
    /// Probability that a region becomes a switch.
    pub switch_prob: f64,
    /// Probability of memory traffic (allocas/global loads & stores).
    pub mem_prob: f64,
    /// Probability of libc calls (`strlen`, `atoi`, `memset`, …).
    pub libc_prob: f64,
    /// Probability of floating-point arithmetic.
    pub float_prob: f64,
    /// Fraction of functions drawn from the "large" tail (hundreds to
    /// thousands of instructions — the scale the paper stresses in §1).
    pub tail_prob: f64,
    /// Maximum region nesting depth.
    pub max_depth: usize,
    /// Probability that a memory op expands into a GEP *web*: a chain of
    /// offset pointers into one buffer with interleaved loads and stores
    /// (mem2reg/DSE stress). `0.0` in the Table-1 profiles — the fuzz axes
    /// below must not perturb their pinned generation streams.
    pub gep_web_prob: f64,
    /// Extra φ-nodes emitted at every if/switch join beyond the one the
    /// region always produces (φ-web stress for the normalizer's φ rules).
    /// `0` in the Table-1 profiles.
    pub phi_web: usize,
    /// Probability that an arithmetic op is a *potentially trapping*
    /// division (`sdiv`/`srem` with a register divisor). The reference
    /// interpreter traps on a zero divisor, so this axis exercises the
    /// validator's trap guarantee boundary. `0.0` in the Table-1 profiles.
    pub trap_prob: f64,
    /// Maximum number of switch cases (the Table-1 profiles pin the
    /// historical `3`; switch-dense fuzz profiles raise it).
    pub switch_cases: usize,
    /// Probability that a loop body contains an invariant guard
    /// (unswitch fodder). The historical generator hard-coded `0.25`.
    pub guard_prob: f64,
    /// Probability that a loop body nests another loop (subject to
    /// `max_depth`). The historical generator hard-coded `0.25`; the
    /// deep-loops fuzz profile raises both.
    pub nest_prob: f64,
}

/// The neutral profile every other profile derives from (Table-1 defaults
/// for the legacy axes, all fuzz axes off). Exposed so [`crate::fuzz`] can
/// build its campaign profiles from the same baseline.
pub fn base_profile() -> Profile {
    Profile {
        name: "",
        paper: PaperRow { size: "", loc_k: 0, functions: 0 },
        functions: 10,
        seed: 0,
        avg_segment: 6,
        loop_prob: 0.35,
        branch_prob: 0.45,
        switch_prob: 0.10,
        mem_prob: 0.35,
        libc_prob: 0.10,
        float_prob: 0.05,
        tail_prob: 0.06,
        max_depth: 3,
        gep_web_prob: 0.0,
        phi_web: 0,
        trap_prob: 0.0,
        switch_cases: 3,
        guard_prob: 0.25,
        nest_prob: 0.25,
    }
}

/// The twelve benchmarks of Table 1.
pub fn profiles() -> Vec<Profile> {
    let base = base_profile();
    let scale = |n: u32| ((n / 12).max(10)) as usize;
    vec![
        Profile {
            name: "SQLite",
            paper: PaperRow { size: "5.6M", loc_k: 136, functions: 1363 },
            functions: scale(1363),
            seed: 1,
            mem_prob: 0.55,
            libc_prob: 0.18,
            float_prob: 0.0,
            switch_prob: 0.15,
            ..base
        },
        Profile {
            name: "bzip2",
            paper: PaperRow { size: "904K", loc_k: 23, functions: 104 },
            functions: scale(104),
            seed: 2,
            loop_prob: 0.5,
            mem_prob: 0.45,
            ..base
        },
        Profile {
            name: "gcc",
            paper: PaperRow { size: "63M", loc_k: 1480, functions: 5745 },
            functions: scale(5745),
            seed: 3,
            branch_prob: 0.6,
            switch_prob: 0.25,
            libc_prob: 0.15,
            tail_prob: 0.10,
            avg_segment: 8,
            ..base
        },
        Profile {
            name: "h264ref",
            paper: PaperRow { size: "7.3M", loc_k: 190, functions: 610 },
            functions: scale(610),
            seed: 4,
            loop_prob: 0.55,
            mem_prob: 0.5,
            float_prob: 0.10,
            ..base
        },
        Profile {
            name: "hmmer",
            paper: PaperRow { size: "3.3M", loc_k: 90, functions: 644 },
            functions: scale(644),
            seed: 5,
            loop_prob: 0.6,
            float_prob: 0.20,
            ..base
        },
        Profile {
            name: "lbm",
            paper: PaperRow { size: "161K", loc_k: 5, functions: 19 },
            functions: scale(19),
            seed: 6,
            loop_prob: 0.7,
            float_prob: 0.55,
            tail_prob: 0.25,
            avg_segment: 10,
            ..base
        },
        Profile {
            name: "libquantum",
            paper: PaperRow { size: "337K", loc_k: 9, functions: 115 },
            functions: scale(115),
            seed: 7,
            loop_prob: 0.5,
            float_prob: 0.15,
            ..base
        },
        Profile {
            name: "mcf",
            paper: PaperRow { size: "149K", loc_k: 3, functions: 24 },
            functions: scale(24),
            seed: 8,
            mem_prob: 0.6,
            loop_prob: 0.5,
            ..base
        },
        Profile {
            name: "milc",
            paper: PaperRow { size: "1.2M", loc_k: 32, functions: 237 },
            functions: scale(237),
            seed: 9,
            float_prob: 0.5,
            loop_prob: 0.6,
            ..base
        },
        Profile {
            name: "perlbench",
            paper: PaperRow { size: "15M", loc_k: 399, functions: 1998 },
            functions: scale(1998),
            seed: 10,
            branch_prob: 0.65,
            switch_prob: 0.3,
            libc_prob: 0.25,
            tail_prob: 0.08,
            ..base
        },
        Profile {
            name: "sjeng",
            paper: PaperRow { size: "1.5M", loc_k: 39, functions: 166 },
            functions: scale(166),
            seed: 11,
            branch_prob: 0.6,
            switch_prob: 0.2,
            ..base
        },
        Profile {
            name: "sphinx",
            paper: PaperRow { size: "1.7M", loc_k: 44, functions: 391 },
            functions: scale(391),
            seed: 12,
            float_prob: 0.4,
            loop_prob: 0.5,
            ..base
        },
    ]
}

/// Look up one profile by (case-insensitive) name.
pub fn profile(name: &str) -> Option<Profile> {
    profiles().into_iter().find(|p| p.name.eq_ignore_ascii_case(name))
}

/// A named pass ordering: the unit the chain-validation harnesses sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Schedule name (used in reports and bench artifacts).
    pub name: String,
    /// Pass names, in run order; every entry must be a
    /// `lir_opt::known_passes` name.
    pub passes: Vec<&'static str>,
}

impl Schedule {
    /// Build the `PassManager` that runs this schedule.
    ///
    /// # Panics
    ///
    /// Panics if a pass name is unknown — schedules constructed by this
    /// module only carry registry names, so this fires only on hand-built
    /// schedules with a typo.
    pub fn pass_manager(&self) -> PassManager {
        let mut pm = PassManager::new();
        for name in &self.passes {
            pm.add(pass_by_name(name).unwrap_or_else(|| {
                panic!(
                    "schedule `{}`: unknown pass `{name}` (known: {})",
                    self.name,
                    lir_opt::known_passes().join(", ")
                )
            }));
        }
        pm
    }
}

/// The paper's §5.1 pipeline as a schedule.
pub fn paper_schedule() -> Schedule {
    Schedule { name: "paper".to_owned(), passes: PAPER_PASSES.to_vec() }
}

/// One single-pass schedule per paper pass — the per-optimization axis of
/// Fig. 5, as chain-validation inputs.
pub fn singleton_schedules() -> Vec<Schedule> {
    PAPER_PASSES.iter().map(|&p| Schedule { name: format!("only-{p}"), passes: vec![p] }).collect()
}

/// The paper pipeline in a seed-determined shuffled order (Fisher–Yates
/// over [`SplitMix64`]): a stress schedule that runs passes in orders the
/// fixed pipeline never exercises, while staying reproducible — the same
/// seed always yields the same order.
pub fn shuffled_schedule(seed: u64) -> Schedule {
    let mut passes = PAPER_PASSES.to_vec();
    let mut rng = SplitMix64::seed_from_u64(seed);
    for i in (1..passes.len()).rev() {
        let j = rng.gen_range(0..=i);
        passes.swap(i, j);
    }
    Schedule { name: format!("shuffled-{seed:#06x}"), passes }
}

/// The default schedule sweep for chain harnesses: the paper pipeline, the
/// seven singletons, and one pinned shuffled-order stress schedule.
pub fn schedules() -> Vec<Schedule> {
    let mut out = vec![paper_schedule()];
    out.extend(singleton_schedules());
    out.push(shuffled_schedule(0xc4a1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_benchmarks_matching_table1() {
        let ps = profiles();
        assert_eq!(ps.len(), 12);
        let total_paper: u32 = ps.iter().map(|p| p.paper.functions).sum();
        assert_eq!(
            total_paper,
            1363 + 104 + 5745 + 610 + 644 + 19 + 115 + 24 + 237 + 1998 + 166 + 391
        );
        assert!(ps.iter().all(|p| p.functions >= 10));
        // Distinct seeds so benchmarks differ.
        let mut seeds: Vec<u64> = ps.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(profile("sqlite").is_some());
        assert!(profile("GCC").is_some());
        assert!(profile("nope").is_none());
    }

    #[test]
    fn schedules_resolve_and_cover_the_paper_pipeline() {
        let all = schedules();
        // paper + 7 singletons + 1 shuffled.
        assert_eq!(all.len(), 1 + PAPER_PASSES.len() + 1);
        for s in &all {
            let pm = s.pass_manager();
            assert_eq!(pm.len(), s.passes.len(), "schedule `{}` must build fully", s.name);
            assert_eq!(pm.names(), s.passes, "schedule `{}` order must survive", s.name);
        }
        assert_eq!(paper_schedule().passes, PAPER_PASSES);
        assert_eq!(
            paper_schedule().pass_manager().names(),
            lir_opt::paper_pipeline().names(),
            "paper_schedule drifted from lir_opt::paper_pipeline"
        );
    }

    #[test]
    fn shuffled_schedule_is_seed_stable_and_a_permutation() {
        let a = shuffled_schedule(0xc4a1);
        let b = shuffled_schedule(0xc4a1);
        assert_eq!(a, b, "same seed, same order");
        let mut sorted = a.passes.clone();
        sorted.sort_unstable();
        let mut paper = PAPER_PASSES.to_vec();
        paper.sort_unstable();
        assert_eq!(sorted, paper, "a shuffle is a permutation, not a subset");
        // Distinct seeds disagree somewhere (for these two pinned seeds).
        assert_ne!(shuffled_schedule(1).passes, shuffled_schedule(2).passes);
    }
}
