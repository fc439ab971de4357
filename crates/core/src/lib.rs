//! `llvm-md-core` — the normalizing value-graph translation validator
//! (reproduction of Tristan, Govereau & Morrisett, *Evaluating Value-Graph
//! Translation Validation for LLVM*, PLDI 2011).
//!
//! Given a function before and after optimization, the validator
//!
//! 1. converts both to monadic gated SSA ([`gated_ssa`]),
//! 2. merges the two value graphs into one hash-consed [`SharedGraph`]
//!    so equal subterms are equal node ids ([`graph`]),
//! 3. **normalizes** the graph with rewrite [`rules`] that mirror what the
//!    optimizer does — φ simplification, constant folding, alias-aware
//!    memory rules, η rules and commuting rules, grouped exactly as the
//!    paper's ablations toggle them — re-maximizing sharing after every
//!    round, with μ-[`cycles`] matched by speculative unification and/or
//!    Hopcroft partitioning,
//! 4. answers `true` iff both functions' ⟨return value, observable final
//!    memory⟩ roots normalize to the same nodes ([`mod@validate`]),
//! 5. and, on failure, **triages the alarm** ([`triage`]): differential
//!    interpretation over a seeded input battery classifies it as a real
//!    miscompilation (with a minimized, replayable witness) or a suspected
//!    validator incompleteness (with the rewrite trace and the divergent
//!    normalized roots) — the distinction the paper's evaluation measures.
//!
//! A `true` verdict means the optimized function has the same semantics for
//! every terminating, non-trapping execution (the paper's guarantee, §2).
//!
//! For pass-by-pass *chain* validation (the driver's `chain` module), the
//! [`cache`] layer adds structural [`fingerprint`]s and a fingerprint-keyed
//! [`GraphCache`] of gated graphs, so adjacent validation steps share the
//! middle module's graphs and fingerprint-equal functions skip their
//! queries entirely ([`Validator::validate_cascade_cached`]).
//!
//! # Example
//!
//! ```
//! use lir::parse::parse_module;
//! use llvm_md_core::validate::validate;
//!
//! let orig = parse_module(
//!     "define i64 @f(i64 %a) {\nentry:\n  %x1 = add i64 3, 3\n  %x2 = mul i64 %a, %x1\n  %x3 = add i64 %x2, %x2\n  ret i64 %x3\n}\n",
//! )?;
//! let opt = parse_module(
//!     "define i64 @f(i64 %a) {\nentry:\n  %y1 = mul i64 %a, 6\n  %y2 = shl i64 %y1, 1\n  ret i64 %y2\n}\n",
//! )?;
//! let verdict = validate(&orig.functions[0], &opt.functions[0]);
//! assert!(verdict.validated);
//! # Ok::<(), lir::parse::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod alias;
pub mod bitblast;
pub mod cache;
pub mod cycles;
pub mod egraph;
pub mod graph;
pub mod rules;
pub mod sat;
pub mod triage;
pub mod validate;
pub mod wire;

pub use bitblast::{blast_ret_pair, BlastReport, BlastResult};
pub use cache::{fingerprint, fingerprint_canonical, CacheStats, GraphCache};
pub use cycles::MatchStrategy;
pub use egraph::{SaturationLimits, SaturationStats};
pub use gated_ssa::Interning;
pub use graph::SharedGraph;
pub use rules::{RewriteCounts, RuleSet, RULE_ENGINE_VERSION};
pub use sat::{SatOptions, SatOutcome, SatSkip, SatStats, SolverStats};
pub use triage::{
    Cascade, Triage, TriageClass, TriageOptions, TriagedVerdict, VerdictClass, Witness,
};
pub use validate::{
    validate, Deadline, DivergentRoots, FailReason, Fixpoint, Limits, Normalizer, ValidationStats,
    Validator, Verdict,
};
pub use wire::{Json, ToWire, WireError, SCHEMA_VERSION};
