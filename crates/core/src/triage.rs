//! Alarm triage: classify every failed validation by differential
//! interpretation.
//!
//! The paper's evaluation hinges on telling two kinds of alarm apart: a
//! **false alarm** (the transformation is correct but the normalizer could
//! not prove it — a validator incompleteness, §5) and a **real
//! miscompilation** (the optimizer actually changed observable behaviour).
//! The [`Verdict`] alone cannot distinguish them; this module can, by
//! *running* both functions.
//!
//! Given an alarm, triage executes the original and the optimized function
//! through the reference interpreter ([`lir::interp::run`]) over a seeded
//! battery of generated inputs (the generator's type knowledge, driven by
//! [`SplitMix64`]) and compares the observable outcomes ⟨return value,
//! final global memory, external-call trace, trap behaviour⟩:
//!
//! * **any divergence** ⇒ [`TriageClass::RealMiscompile`], carrying a
//!   [`Witness`]: a *minimized* input vector plus both observed outcomes,
//!   replayable through the interpreter;
//! * **agreement across the whole battery** ⇒
//!   [`TriageClass::SuspectedIncomplete`], carrying the rewrite-rule trace
//!   ([`RewriteCounts`]) and the first divergent normalized graph roots —
//!   the evidence a rule author needs to close the incompleteness.
//!
//! Triage honours the validator's guarantee boundary: the paper's verdict
//! promises equal semantics only for **terminating, non-trapping**
//! executions of the original, so battery inputs on which the original
//! traps are *skipped*, and resource exhaustion ([`Trap::OutOfFuel`],
//! [`Trap::StackOverflow`]) on either side is never counted as divergence.
//! A trap **introduced** by the optimized side on an input where the
//! original runs clean *is* divergence.
//!
//! Classification is conservative in exactly one direction: a
//! `RealMiscompile` verdict is always backed by a concrete, replayable
//! witness, while `SuspectedIncomplete` means only that the battery found
//! no divergence (a miscompilation that hides from every tried input is
//! still classified as suspected-incomplete — differential testing cannot
//! prove equivalence, only disprove it).
//!
//! # Example
//!
//! ```
//! use lir::parse::parse_module;
//! use llvm_md_core::triage::{Cascade, TriageClass, TriageOptions};
//! use llvm_md_core::Validator;
//!
//! let m = parse_module(
//!     "define i64 @inc(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  ret i64 %x\n}\n",
//! )?;
//! // A "miscompiled" variant: the increment became +2.
//! let bad = parse_module(
//!     "define i64 @inc(i64 %a) {\nentry:\n  %x = add i64 %a, 2\n  ret i64 %x\n}\n",
//! )?;
//! let cascade = Cascade::Triage(TriageOptions::default());
//! let triaging = Validator { cascade, ..Validator::new() };
//! let tv = triaging.validate_cascade(&m, &m.functions[0], &bad.functions[0]);
//! let triage = tv.triage.expect("alarm was triaged");
//! assert_eq!(triage.class, TriageClass::RealMiscompile);
//! let w = triage.witness.expect("real miscompiles carry a witness");
//! assert_ne!(Ok(w.original), w.optimized);
//! # Ok::<(), lir::parse::ParseError>(())
//! ```

use crate::bitblast::{blast_ret_pair, BlastResult};
use crate::cache::GraphCache;
use crate::rules::RewriteCounts;
use crate::sat::{SatOptions, SatOutcome, SatSkip, SatStats};
use crate::validate::{Deadline, DivergentRoots, Fixpoint, Validator, Verdict};
use lir::func::{Function, Module};
use lir::interp::{run, ExecConfig, Outcome, Trap};
use lir::types::Ty;
use llvm_md_workload::rng::SplitMix64;
use std::time::Instant;

/// How an alarm was classified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriageClass {
    /// The two functions observably diverge: the optimizer (or whatever
    /// produced the optimized side) changed semantics. Always carries a
    /// replayable [`Witness`].
    RealMiscompile,
    /// No divergence found across the battery: the alarm is suspected to be
    /// a validator incompleteness (the paper's *false alarm*). Carries the
    /// rewrite trace and the divergent normalized roots as debugging
    /// evidence.
    SuspectedIncomplete,
}

impl std::fmt::Display for TriageClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TriageClass::RealMiscompile => f.write_str("real miscompile"),
            TriageClass::SuspectedIncomplete => f.write_str("suspected incompleteness"),
        }
    }
}

/// A concrete input on which the original and optimized functions
/// observably diverge, plus what each side did. Replayable: running
/// [`lir::interp::run`] over the environments from [`build_envs`] with
/// `args` reproduces exactly these outcomes.
#[derive(Clone, Debug)]
pub struct Witness {
    /// Raw-bit argument values, one per function parameter, minimized by
    /// greedy per-coordinate shrinking (each coordinate is as simple as the
    /// shrink budget could make it while preserving the divergence).
    pub args: Vec<u64>,
    /// The original function's outcome (always a clean run — inputs on
    /// which the original traps are outside the validator's guarantee and
    /// are skipped, never used as witnesses).
    pub original: Outcome,
    /// The optimized function's outcome: a different clean outcome, or a
    /// trap the original did not have.
    pub optimized: Result<Outcome, Trap>,
}

/// Configuration for one triage run.
#[derive(Clone, Copy, Debug)]
pub struct TriageOptions {
    /// Seed for the input battery (mixed with the function name so sibling
    /// functions get distinct but deterministic batteries).
    pub seed: u64,
    /// Number of input vectors to try before concluding agreement.
    pub battery: usize,
    /// Maximum additional interpreter pair-runs spent minimizing a witness.
    pub shrink_budget: usize,
    /// Interpreter instruction budget per run.
    pub fuel: u64,
    /// Interpreter call-depth limit per run.
    pub max_depth: u32,
}

impl Default for TriageOptions {
    fn default() -> Self {
        TriageOptions {
            seed: 0x7219_5eed_ba77_e121,
            battery: 24,
            shrink_budget: 128,
            fuel: 100_000,
            max_depth: 32,
        }
    }
}

/// The result of triaging one alarm.
#[derive(Clone, Debug)]
pub struct Triage {
    /// Real miscompile or suspected validator incompleteness.
    pub class: TriageClass,
    /// The minimized diverging input — present iff `class` is
    /// [`TriageClass::RealMiscompile`].
    pub witness: Option<Witness>,
    /// The rewrite-rule trace of the failed validation query (which rule
    /// groups fired, and how often, before the roots still differed).
    pub rewrites: RewriteCounts,
    /// The first divergent normalized graph roots of the failed query, when
    /// normalization reached a fixpoint (see
    /// [`ValidationStats::divergent_roots`](crate::validate::ValidationStats::divergent_roots)).
    pub divergent_roots: Option<DivergentRoots>,
    /// Battery inputs actually compared (original ran clean on these).
    pub inputs_run: usize,
    /// Battery inputs skipped because the original trapped or either side
    /// exhausted interpreter resources.
    pub inputs_skipped: usize,
    /// What the tier-2 bit-precise query did, when a tiered entry point ran
    /// (`None` on plain triaged runs). A [`SatOutcome::Proved`] outcome
    /// upgrades the pair to [`VerdictClass::ProvedEquivalent`]; a
    /// [`SatOutcome::Refuted`] outcome has already escalated `class` to
    /// [`TriageClass::RealMiscompile`] and filled `witness`.
    pub sat: Option<SatStats>,
}

impl Triage {
    /// True when the tier-2 query proved the pair bit-precisely equivalent
    /// (UNSAT) — the alarm was a false alarm, certified.
    pub fn sat_proved(&self) -> bool {
        self.sat.and_then(|s| s.outcome) == Some(SatOutcome::Proved)
    }
}

/// A [`Verdict`] plus, for alarms, its triage classification.
#[derive(Clone, Debug)]
pub struct TriagedVerdict {
    /// The validation verdict.
    pub verdict: Verdict,
    /// `Some` iff the verdict is an alarm (`validated == false`).
    pub triage: Option<Triage>,
}

impl TriagedVerdict {
    /// Did the pair validate? (Validated pairs carry no triage.)
    pub fn validated(&self) -> bool {
        self.verdict.validated
    }

    /// The pair's [`VerdictClass`] — the projection differential-fuzzing
    /// oracles compare (see [`VerdictClass::of`]).
    pub fn class(&self) -> VerdictClass {
        VerdictClass::of(self.verdict.validated, self.triage.as_ref())
    }
}

/// The three-way outcome of validating *and* triaging one function pair —
/// the oracle alphabet of the differential-fuzzing campaign: a fuzzed
/// module is *interesting* when some pair's class is
/// [`VerdictClass::RealMiscompile`] (soundness finding) and the reducer
/// shrinks it while that class is preserved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictClass {
    /// The validator proved the pair equivalent.
    Validated,
    /// Tier-1 validation failed, but the tier-2 bit-precise query proved
    /// the return roots equal on every input (UNSAT): a certified false
    /// alarm — the transformation is correct, only the normalizer was
    /// incomplete.
    ProvedEquivalent,
    /// Validation failed but the triage battery found no divergence: a
    /// suspected validator incompleteness (the paper's false alarm).
    SuspectedIncomplete,
    /// Validation failed *and* differential interpretation produced a
    /// witness: the pair observably diverges.
    RealMiscompile,
}

impl VerdictClass {
    /// Project a tier-1 outcome and its triage onto the four classes. An
    /// alarm that was never triaged (a [`Cascade::Graph`] run, as in an
    /// untriaged `llvm-md serve`) classifies conservatively as
    /// [`VerdictClass::SuspectedIncomplete`] — only interpreter evidence
    /// may escalate to [`VerdictClass::RealMiscompile`], and only a tier-2
    /// UNSAT proof may upgrade to [`VerdictClass::ProvedEquivalent`].
    pub fn of(validated: bool, triage: Option<&Triage>) -> VerdictClass {
        match triage {
            None if validated => VerdictClass::Validated,
            None => VerdictClass::SuspectedIncomplete,
            Some(t) if t.sat_proved() => VerdictClass::ProvedEquivalent,
            Some(t) if t.class == TriageClass::RealMiscompile => VerdictClass::RealMiscompile,
            Some(_) => VerdictClass::SuspectedIncomplete,
        }
    }
}

impl std::fmt::Display for VerdictClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerdictClass::Validated => f.write_str("validated"),
            VerdictClass::ProvedEquivalent => f.write_str("proved-equivalent"),
            VerdictClass::SuspectedIncomplete => f.write_str("suspected-incomplete"),
            VerdictClass::RealMiscompile => f.write_str("real-miscompile"),
        }
    }
}

impl std::str::FromStr for VerdictClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "validated" => Ok(VerdictClass::Validated),
            "proved-equivalent" => Ok(VerdictClass::ProvedEquivalent),
            "suspected-incomplete" => Ok(VerdictClass::SuspectedIncomplete),
            "real-miscompile" => Ok(VerdictClass::RealMiscompile),
            other => Err(format!("unknown verdict class `{other}`")),
        }
    }
}

/// Build the two interpretation environments for a function pair: `env`
/// with the original spliced in under its own name, and `env` with the
/// optimized function spliced in under the *original's* name (so both
/// sides run against the same globals and the same — original — sibling
/// functions, isolating the transformation under test).
pub fn build_envs(env: &Module, original: &Function, optimized: &Function) -> (Module, Module) {
    let splice = |f: &Function| {
        let mut m = env.clone();
        let mut f = f.clone();
        f.name = original.name.clone();
        match m.functions.iter().position(|g| g.name == original.name) {
            Some(i) => m.functions[i] = f,
            None => m.functions.push(f),
        }
        m
    };
    (splice(original), splice(optimized))
}

/// What one battery input showed.
enum Probe {
    /// Original trapped, or resources ran out: outside the guarantee.
    Skip,
    /// Both sides produced the same observable outcome.
    Agree,
    /// Observable divergence: the original's clean outcome vs the
    /// optimized side's outcome.
    Diverge(Outcome, Result<Outcome, Trap>),
}

/// Run both sides on `args` and compare observable outcomes.
fn probe(
    orig_env: &Module,
    opt_env: &Module,
    fname: &str,
    args: &[u64],
    cfg: &ExecConfig,
) -> Probe {
    let a = match run(orig_env, fname, args, cfg) {
        Ok(out) => out,
        // Any trap on the original side — semantic or resource — is outside
        // the validator's guarantee ("terminating, non-trapping").
        Err(_) => return Probe::Skip,
    };
    match run(opt_env, fname, args, cfg) {
        // Resource exhaustion is never semantic evidence.
        Err(Trap::OutOfFuel | Trap::StackOverflow) => Probe::Skip,
        Err(t) => Probe::Diverge(a, Err(t)),
        Ok(b) if a != b => Probe::Diverge(a, Ok(b)),
        Ok(_) => Probe::Agree,
    }
}

/// Sample one argument of type `ty`. Corner rows (0..4) are fixed
/// broadcast values; later rows draw from the seeded stream with a bias
/// toward boundary-shaped integers.
fn sample_arg(ty: Ty, row: usize, rng: &mut SplitMix64) -> u64 {
    const CORNERS: [u64; 4] = [0, 1, 2, u64::MAX];
    match ty {
        Ty::I1 => {
            if row < CORNERS.len() {
                CORNERS[row] & 1
            } else {
                rng.gen_range(0..=1u64)
            }
        }
        Ty::I8 | Ty::I16 | Ty::I32 | Ty::I64 => {
            let raw = if row < CORNERS.len() {
                CORNERS[row]
            } else {
                match rng.gen_range(0..6u32) {
                    0 | 1 => rng.gen_range(0..=16u64),
                    2 => rng.gen_range(0..=255u64),
                    3 => (rng.gen_range(1..=64u64)).wrapping_neg(),
                    4 => 1u64 << rng.gen_range(0..63u32 as u64),
                    _ => rng.next_u64(),
                }
            };
            ty.wrap(raw)
        }
        Ty::F64 => {
            if row < CORNERS.len() {
                [0.0f64, 1.0, -1.0, 0.5][row].to_bits()
            } else {
                let mag = (rng.gen_f64() - 0.5) * 256.0;
                mag.to_bits()
            }
        }
        // No way to conjure a valid address from outside: pass null. Runs
        // that dereference it trap on the original side and are skipped.
        Ty::Ptr => 0,
        Ty::Void => 0,
    }
}

/// One battery row of arguments for `f`.
fn sample_args(f: &Function, row: usize, rng: &mut SplitMix64) -> Vec<u64> {
    f.params.iter().map(|&(_, ty)| sample_arg(ty, row, rng)).collect()
}

/// Stable 64-bit hash of the function name (the shared
/// [`llvm_md_workload::rng::fnv1a`]), used to give sibling functions
/// distinct deterministic batteries from one seed.
fn name_hash(name: &str) -> u64 {
    llvm_md_workload::rng::fnv1a(name.as_bytes())
}

/// Shrink candidates for one coordinate, simplest first.
fn shrink_candidates(v: u64) -> Vec<u64> {
    let mut c = vec![0, 1, 2, v >> 32, v & 0xffff, v & 0xff, v >> 1];
    c.retain(|&x| x != v);
    c.dedup();
    c
}

/// Greedy per-coordinate minimization of a diverging input vector: try
/// simpler values for each coordinate, keeping any change that preserves
/// divergence, until a fixpoint or the budget runs out. The result is the
/// [`Witness`]: the minimized vector with both sides' outcomes on it.
fn minimize(
    orig_env: &Module,
    opt_env: &Module,
    fname: &str,
    mut args: Vec<u64>,
    cfg: &ExecConfig,
    mut budget: usize,
) -> Witness {
    'shrink: loop {
        let mut improved = false;
        for i in 0..args.len() {
            for cand in shrink_candidates(args[i]) {
                if budget == 0 {
                    break 'shrink;
                }
                budget -= 1;
                let prev = std::mem::replace(&mut args[i], cand);
                match probe(orig_env, opt_env, fname, &args, cfg) {
                    Probe::Diverge(..) => {
                        improved = true;
                        break; // keep the simpler value, move on
                    }
                    _ => args[i] = prev,
                }
            }
        }
        if !improved {
            break;
        }
    }
    // Re-probe the minimized vector for the outcomes to record.
    let Probe::Diverge(original, optimized) = probe(orig_env, opt_env, fname, &args, cfg) else {
        unreachable!("minimize only keeps diverging inputs");
    };
    Witness { args, original, optimized }
}

/// Triage one alarm: differentially interpret `original` vs `optimized`
/// (both spliced into `env`, see [`build_envs`]) over the seeded battery
/// and classify the failed `verdict`.
///
/// The battery is deterministic: the same `(env, functions, options)`
/// always produce the same classification and the same witness, regardless
/// of which thread runs the triage — the driver's parallel engine relies
/// on this.
pub fn triage_alarm(
    env: &Module,
    original: &Function,
    optimized: &Function,
    verdict: &Verdict,
    opts: &TriageOptions,
) -> Triage {
    let (orig_env, opt_env) = build_envs(env, original, optimized);
    let fname = original.name.as_str();
    let cfg = ExecConfig { fuel: opts.fuel, max_depth: opts.max_depth };
    let mut rng = SplitMix64::seed_from_u64(opts.seed ^ name_hash(fname));
    let mut inputs_run = 0;
    let mut inputs_skipped = 0;
    let mut witness = None;
    for row in 0..opts.battery {
        let args = sample_args(original, row, &mut rng);
        match probe(&orig_env, &opt_env, fname, &args, &cfg) {
            Probe::Skip => inputs_skipped += 1,
            Probe::Agree => inputs_run += 1,
            Probe::Diverge(..) => {
                inputs_run += 1;
                witness =
                    Some(minimize(&orig_env, &opt_env, fname, args, &cfg, opts.shrink_budget));
                break;
            }
        }
    }
    Triage {
        class: if witness.is_some() {
            TriageClass::RealMiscompile
        } else {
            TriageClass::SuspectedIncomplete
        },
        witness,
        rewrites: verdict.stats.rewrites,
        divergent_roots: verdict.stats.divergent_roots.clone(),
        inputs_run,
        inputs_skipped,
        sat: None,
    }
}

/// A [`SatStats`] that records why tier 2 never ran for this pair.
fn sat_skip(reason: SatSkip) -> SatStats {
    SatStats { outcome: Some(SatOutcome::Skipped(reason)), ..SatStats::default() }
}

/// Tier 2: refine a triaged `SuspectedIncomplete` alarm with the
/// bit-precise SAT query (see [`blast_ret_pair`]). Fills `triage.sat` —
/// always, so the record says *why* when the query never ran — and, on a
/// replayed counterexample, escalates `triage.class` to
/// [`TriageClass::RealMiscompile`] with the minimized witness.
///
/// Scope: the query only runs when the tier-1 fixpoint exists (the failure
/// was `RootsDiffer`) and the observable-memory roots already merged in
/// tier 1 — memory divergence can involve externally visible call traces
/// the encoding does not model. An UNSAT answer is a sound equivalence
/// proof ([`SatOutcome::Proved`]); a SAT model is only a *candidate*
/// counterexample and must replay through the interpreter before anything
/// escalates (a model may assign an over-approximated unknown — a loop
/// residual, an external call result — a value no real execution produces).
fn sat_refine(
    env: &Module,
    original: &Function,
    optimized: &Function,
    fix: Option<&Fixpoint>,
    triage: &mut Triage,
    topts: &TriageOptions,
    sopts: &SatOptions,
) {
    let Some(fix) = fix else {
        triage.sat = Some(sat_skip(SatSkip::Reason));
        return;
    };
    if !fix.graph.same(fix.mem.0, fix.mem.1) {
        triage.sat = Some(sat_skip(SatSkip::MemoryRoots));
        return;
    }
    let t0 = Instant::now();
    let params: Vec<Ty> = original.params.iter().map(|&(_, t)| t).collect();
    let deadline = Deadline::starting_now(sopts.max_time);
    let report = blast_ret_pair(env, fix, &params, sopts, &deadline);
    let outcome = match report.result {
        BlastResult::Proved => SatOutcome::Proved,
        BlastResult::Capped => SatOutcome::Capped,
        BlastResult::Unsupported => SatOutcome::Skipped(SatSkip::UnsupportedOp),
        BlastResult::Model(args) => {
            let (orig_env, opt_env) = build_envs(env, original, optimized);
            let fname = original.name.as_str();
            let cfg = ExecConfig { fuel: topts.fuel, max_depth: topts.max_depth };
            match probe(&orig_env, &opt_env, fname, &args, &cfg) {
                Probe::Diverge(..) => {
                    triage.class = TriageClass::RealMiscompile;
                    triage.witness =
                        Some(minimize(&orig_env, &opt_env, fname, args, &cfg, topts.shrink_budget));
                    SatOutcome::Refuted
                }
                _ => SatOutcome::Inconclusive,
            }
        }
    };
    triage.sat = Some(SatStats {
        outcome: Some(outcome),
        vars: report.vars,
        clauses: report.clauses,
        unrolled: report.unrolled,
        residuals: report.residuals,
        solver: report.solver,
        duration: t0.elapsed(),
    });
}

/// Which tiers run after a tier-1 alarm — the one switch every layer (the
/// driver's entry points, chain validation, `llvm-md serve`, the fuzzing
/// campaign) reads from [`Validator::cascade`]:
///
/// * [`Cascade::Graph`] (the default) runs tier 1 only: value-graph
///   normalization, the paper's validator. Alarms carry no triage.
/// * [`Cascade::Triage`] adds differential triage of every alarm
///   ([`triage_alarm`]): a real miscompile with a minimized witness, or a
///   suspected incompleteness with the rewrite trace.
/// * [`Cascade::Tiered`] adds, after triage, the tier-2 bit-precise SAT
///   query on every in-scope `SuspectedIncomplete` alarm. UNSAT upgrades
///   the pair to [`VerdictClass::ProvedEquivalent`] (the tier-1
///   [`Verdict`] is kept unchanged as the tier-1 record); a SAT model that
///   replays through the interpreter as a real divergence escalates to
///   [`TriageClass::RealMiscompile`] with a minimized witness.
///   Out-of-scope and budget-capped pairs keep the triage classification,
///   with the skip reason recorded in [`Triage::sat`]. Tier 2 replays its
///   models with the triage options, so it never runs without triage.
///
/// ```
/// use lir::parse::parse_module;
/// use llvm_md_core::sat::SatOptions;
/// use llvm_md_core::triage::{Cascade, TriageOptions, VerdictClass};
/// use llvm_md_core::{RuleSet, Validator};
///
/// // (a | b) + (a & b) == a + b: true bit-for-bit, but not a graph
/// // identity — a rule-less tier 1 alarms, tier 2 proves it.
/// let m = parse_module(
///     "define i64 @f(i64 %a, i64 %b) {\nentry:\n  %o = or i64 %a, %b\n  %n = and i64 %a, %b\n  %r = add i64 %o, %n\n  ret i64 %r\n}\n",
/// )?;
/// let opt = parse_module(
///     "define i64 @f(i64 %a, i64 %b) {\nentry:\n  %r = add i64 %a, %b\n  ret i64 %r\n}\n",
/// )?;
/// let cascade = Cascade::Tiered(TriageOptions::default(), SatOptions::default());
/// let strict = Validator { rules: RuleSet::none(), cascade, ..Validator::new() };
/// let tv = strict.validate_cascade(&m, &m.functions[0], &opt.functions[0]);
/// assert!(!tv.validated(), "tier 1 alone cannot prove this pair");
/// assert_eq!(tv.class(), VerdictClass::ProvedEquivalent);
///
/// // The same pair without tier 2: triage finds no divergence.
/// let cascade = Cascade::Triage(TriageOptions::default());
/// let triaging = Validator { cascade, ..strict };
/// let tv = triaging.validate_cascade(&m, &m.functions[0], &opt.functions[0]);
/// assert_eq!(tv.class(), VerdictClass::SuspectedIncomplete);
///
/// // Tier 1 alone: the alarm stays untriaged.
/// let graph = Validator { cascade: Cascade::Graph, ..strict };
/// let tv = graph.validate_cascade(&m, &m.functions[0], &opt.functions[0]);
/// assert!(tv.triage.is_none());
/// # Ok::<(), lir::parse::ParseError>(())
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub enum Cascade {
    /// Tier 1 only.
    #[default]
    Graph,
    /// Tier 1, then differential triage of every alarm.
    Triage(TriageOptions),
    /// Tier 1, triage, then the tier-2 SAT query on in-scope alarms.
    Tiered(TriageOptions, SatOptions),
}

impl Cascade {
    /// Whether alarms are triaged (every variant but [`Cascade::Graph`]).
    pub fn triages(&self) -> bool {
        !matches!(self, Cascade::Graph)
    }

    /// Whether the tier-2 SAT query runs.
    pub fn tier2(&self) -> bool {
        matches!(self, Cascade::Tiered(..))
    }
}

impl Validator {
    /// Validate `optimized` against `original` and run the configured
    /// [`Cascade`] on an alarm. `env` supplies the globals and sibling
    /// functions both sides run against under triage — pass the module the
    /// original function came from (an empty module works for
    /// self-contained functions). Validated pairs, and every pair under
    /// [`Cascade::Graph`], carry no triage.
    pub fn validate_cascade(
        &self,
        env: &Module,
        original: &Function,
        optimized: &Function,
    ) -> TriagedVerdict {
        let (verdict, fix) = self.validate_with_fixpoint(original, optimized);
        let triage = self.cascade_alarm(env, original, optimized, &verdict, fix.as_ref());
        TriagedVerdict { verdict, triage }
    }

    /// [`Validator::validate_cascade`] through a [`GraphCache`], for a
    /// caller that holds the *canonical* forms of both functions
    /// ([`Function::canonicalized`]) and their [`fingerprint_canonical`]s
    /// `fps`: both gated graphs come from the cache (a miss gates the
    /// canonical form), and the query runs exactly like the uncached path
    /// under one deadline. The cascade interprets the canonical forms
    /// against `env` and hands tier 2 this query's own fixpoint.
    ///
    /// [`fingerprint_canonical`]: crate::cache::fingerprint_canonical
    pub fn validate_cascade_cached(
        &self,
        env: &Module,
        original: &Function,
        optimized: &Function,
        fps: (u64, u64),
        cache: &GraphCache,
    ) -> TriagedVerdict {
        let (verdict, fix) = self.query(original, optimized, || {
            let lookup = |fp, f| cache.gated_with(fp, || gated_ssa::build_with(f, self.interning));
            (lookup(fps.0, original), lookup(fps.1, optimized))
        });
        let triage = self.cascade_alarm(env, original, optimized, &verdict, fix.as_ref());
        TriagedVerdict { verdict, triage }
    }

    /// The cascade after tier 1; `fix` is the tier-1 fixpoint, which only
    /// tier 2 reads.
    fn cascade_alarm(
        &self,
        env: &Module,
        original: &Function,
        optimized: &Function,
        verdict: &Verdict,
        fix: Option<&Fixpoint>,
    ) -> Option<Triage> {
        if verdict.validated {
            return None;
        }
        let topts = match &self.cascade {
            Cascade::Graph => return None,
            Cascade::Triage(t) | Cascade::Tiered(t, _) => t,
        };
        let mut triage = triage_alarm(env, original, optimized, verdict, topts);
        if let Cascade::Tiered(_, sopts) = &self.cascade {
            if triage.class == TriageClass::RealMiscompile {
                triage.sat = Some(sat_skip(SatSkip::Classified));
            } else {
                sat_refine(env, original, optimized, fix, &mut triage, topts, sopts);
            }
        }
        Some(triage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse::parse_module;

    fn module(src: &str) -> Module {
        parse_module(src).expect("parse")
    }

    /// `v` with the triage-only cascade at default options.
    fn triaging(v: Validator) -> Validator {
        Validator { cascade: Cascade::Triage(TriageOptions::default()), ..v }
    }

    #[test]
    fn flipped_add_is_a_real_miscompile_with_minimal_witness() {
        let m = module("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  ret i64 %x\n}\n");
        let bad =
            module("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 2\n  ret i64 %x\n}\n");
        let tv =
            triaging(Validator::new()).validate_cascade(&m, &m.functions[0], &bad.functions[0]);
        assert!(!tv.validated());
        let t = tv.triage.expect("alarm triaged");
        assert_eq!(t.class, TriageClass::RealMiscompile);
        let w = t.witness.expect("witness");
        // +1 vs +2 diverge on every input; the shrinker reaches all-zeros.
        assert_eq!(w.args, vec![0]);
        assert_eq!(w.original.ret, Some(1));
        assert_eq!(w.optimized.as_ref().unwrap().ret, Some(2));
    }

    #[test]
    fn equivalent_but_unprovable_pair_is_suspected_incomplete() {
        // a+3+0 vs a+3: genuinely equal, but unprovable without the
        // constant-folding rule group — the paper's false-alarm shape.
        let m = module(
            "define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 3\n  %y = add i64 %x, 0\n  ret i64 %y\n}\n",
        );
        let opt =
            module("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 3\n  ret i64 %x\n}\n");
        let strict = Validator { rules: crate::rules::RuleSet::none(), ..Validator::new() };
        let tv = triaging(strict).validate_cascade(&m, &m.functions[0], &opt.functions[0]);
        assert!(!tv.validated(), "no-rules validator cannot prove x+0 = x");
        let t = tv.triage.expect("alarm triaged");
        assert_eq!(t.class, TriageClass::SuspectedIncomplete);
        assert!(t.witness.is_none());
        assert!(t.inputs_run > 0, "battery must have compared real runs");
        let roots = t.divergent_roots.expect("fixpoint failure records roots");
        assert_ne!(roots.original, roots.optimized);
    }

    #[test]
    fn introduced_trap_is_divergence() {
        let m = module("define i64 @f(i64 %a) {\nentry:\n  ret i64 %a\n}\n");
        let bad =
            module("define i64 @f(i64 %a) {\nentry:\n  %q = sdiv i64 %a, 0\n  ret i64 %q\n}\n");
        let tv =
            triaging(Validator::new()).validate_cascade(&m, &m.functions[0], &bad.functions[0]);
        let t = tv.triage.expect("alarm triaged");
        assert_eq!(t.class, TriageClass::RealMiscompile);
        let w = t.witness.expect("witness");
        assert_eq!(w.optimized, Err(Trap::DivByZero));
    }

    #[test]
    fn original_trap_is_skipped_not_divergence() {
        // The original traps on every input (division by zero): the
        // validator guarantees nothing, so triage must not call the
        // transformed side a miscompile no matter what it returns.
        let m = module("define i64 @f(i64 %a) {\nentry:\n  %q = sdiv i64 %a, 0\n  ret i64 %q\n}\n");
        let opt = module("define i64 @f(i64 %a) {\nentry:\n  ret i64 7\n}\n");
        let tv =
            triaging(Validator::new()).validate_cascade(&m, &m.functions[0], &opt.functions[0]);
        let t = tv.triage.expect("alarm triaged");
        assert_eq!(t.class, TriageClass::SuspectedIncomplete);
        assert_eq!(t.inputs_run, 0);
        assert!(t.inputs_skipped > 0);
    }

    #[test]
    fn battery_is_deterministic() {
        let m = module(
            "define i64 @f(i64 %a, i64 %b) {\nentry:\n  %x = mul i64 %a, %b\n  ret i64 %x\n}\n",
        );
        let bad = module(
            "define i64 @f(i64 %a, i64 %b) {\nentry:\n  %x = add i64 %a, %b\n  ret i64 %x\n}\n",
        );
        let v = triaging(Validator::new());
        let t1 = v.validate_cascade(&m, &m.functions[0], &bad.functions[0]).triage.unwrap();
        let t2 = v.validate_cascade(&m, &m.functions[0], &bad.functions[0]).triage.unwrap();
        assert_eq!(t1, t2, "same inputs, same options: identical triage");
    }

    #[test]
    fn globals_are_part_of_the_observable_outcome() {
        // Dropping a global store changes no return value, only final
        // memory — triage must still see the divergence.
        let m = module(
            "@g = global [1 x i64] [0]\n\ndefine void @f(i64 %x) {\nentry:\n  store i64 %x, ptr @g\n  ret void\n}\n",
        );
        let bad = module(
            "@g = global [1 x i64] [0]\n\ndefine void @f(i64 %x) {\nentry:\n  ret void\n}\n",
        );
        let tv =
            triaging(Validator::new()).validate_cascade(&m, &m.functions[0], &bad.functions[0]);
        let t = tv.triage.expect("alarm triaged");
        assert_eq!(t.class, TriageClass::RealMiscompile);
        let w = t.witness.expect("witness");
        assert_ne!(w.args, vec![0], "storing 0 is indistinguishable from not storing");
    }
}
