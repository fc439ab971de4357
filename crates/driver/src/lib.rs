//! `llvm-md-driver` — the LLVM-MD tool itself (paper §2).
//!
//! LLVM-MD is "an optimizer that certifies that the semantics of the program
//! is preserved": it runs the off-the-shelf optimizer on every function,
//! validates each transformed function against its original, and **splices
//! the original back** whenever validation fails — the pseudo-code of §2:
//!
//! ```text
//! function llvm-md(var input) {
//!     output = opt -options input
//!     for each function f in input {
//!         if (!validate f_in f_out) { replace f_out by f_in in output }
//!     }
//!     return output
//! }
//! ```
//!
//! The driver also produces the per-function records behind the paper's
//! evaluation: which functions the optimizer changed, which of those
//! validated, per-rule rewrite counts and wall-clock times (Figs. 4–8).
//!
//! # The cascade
//!
//! Every entry point runs the [`Cascade`] configured on its [`Validator`]
//! (`validator.cascade`; tier 1 only by default). Under
//! [`Cascade::Triage`], every paired alarm is post-processed through
//! `llvm_md_core::triage`: differential interpretation over a seeded input
//! battery classifies the alarm as a real miscompilation (with a minimized,
//! replayable witness) or a suspected validator incompleteness (with the
//! rewrite trace and divergent normalized roots). Triage runs on the same
//! worker pool as validation — each worker triages the alarms it
//! discovers — and is deterministic per function, so reports still agree
//! at any worker count (`Report`'s equality includes the triage
//! classification).
//!
//! [`Cascade::Tiered`] extends triage with the bit-precise SAT query
//! (`llvm_md_core::bitblast` + `llvm_md_core::sat`) on every in-scope
//! `SuspectedIncomplete` alarm: an UNSAT result upgrades the pair to
//! proved-equivalent — and the certified output **keeps the optimized
//! function** (no splice-back; the proof is the certificate tier 1 could
//! not produce) — while a SAT model that replays as a concrete divergence
//! escalates to a real miscompile with a minimized witness.
//! [`Report::proved_equivalent`] counts the upgrades;
//! [`FunctionRecord::class`] projects each record into the four-way
//! verdict vocabulary.
//!
//! # Chain validation
//!
//! The one-shot entry points above validate input-vs-final-output, which
//! composes every pass's incompleteness into one verdict and cannot say
//! *which* pass broke a function. The [`chain`] module fixes both: a
//! [`ChainValidator`] runs the `PassManager` step-by-step, validates every
//! adjacent module pair on the same worker pool (sharing gated graphs and
//! skipping fingerprint-identical functions through
//! `llvm_md_core::cache`), and produces a [`ChainReport`] with per-pass
//! reports, a pass-level [`Blame`] for every alarm, and a
//! certified-composition cross-check against the end-to-end verdict.
//!
//! # Concurrency
//!
//! Per-function validation queries are independent, so the driver runs them
//! through a [`ValidationEngine`]: a `std::thread::scope` worker pool
//! (worker count configurable, default [`default_workers`]) that seeds each
//! worker with a contiguous chunk of the queries in its own deque and lets
//! idle workers **steal** from busy ones (LIFO local pop, FIFO steal — see
//! [`mod@pool`]), aggregating the [`FunctionRecord`]s back **in
//! deterministic input order**. At `workers = 1` no threads are spawned and
//! the report is identical to the historical serial driver; at any worker
//! count the report differs only in wall-clock durations and the
//! schedule-dependent [`PoolStats`] counters, which — like
//! `llvm_md_core::CacheStats` — are outside every report's equality: the
//! determinism contract, generated from each record's field table, skips
//! durations and scheduling-dependent counters. The certifying pipeline
//! ([`ValidationEngine::validate_corpus`], with
//! [`ValidationEngine::llvm_md`] as its one-module call) runs **one job per
//! (module, function)**: the job optimizes its function, checks whether it
//! changed, and validates it right away, so optimization and validation
//! share the pool with no stage barrier between them — see the
//! `fig4_scaling` benchmark.
//!
//! # Function pairing
//!
//! Original and optimized functions are paired **by name**, not position:
//! an optimizer that reorders, drops, or invents a function can no longer
//! silently mispair the validation queries. A function missing from the
//! optimized module is reported as a [`FailReason::MissingFunction`] alarm
//! (and, in the certifying entry points, its original is spliced back into
//! the output); a function the input never had is a
//! [`FailReason::ExtraFunction`] alarm. Extra functions are *deliberately
//! left in* the certified output: there is no original to splice over them,
//! and removing them could dangle references from other output functions —
//! the alarm record is the signal that the module contains code the
//! validator never certified, and callers deciding to trust the output must
//! check [`Report::alarms`] first (exactly as for any other alarm, where
//! the paper's splice already restored the original).

pub mod chain;
pub mod fuzz;
pub mod pool;
pub mod serve;
pub mod store;
mod wirefmt;

pub use chain::{Blame, ChainReport, ChainStep, ChainValidator, Composition};
pub use fuzz::{
    campaign_pass_manager, CampaignConfig, CampaignReport, Finding, FindingKind, FuzzCampaign,
    ProfileStats, Repro,
};
pub use pool::{pool_stats, PoolStats};
pub use serve::{ServeCounters, ServeEnd, Server};
pub use store::{StoreStats, VerdictStore, SHARDS};

use lir::func::{Function, Module};
use lir_opt::{Ctx, PassManager};
use llvm_md_core::triage::{Cascade, Triage, TriageOptions, TriagedVerdict};
use llvm_md_core::{
    FailReason, RewriteCounts, SatOptions, SaturationStats, Validator, VerdictClass,
};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// The outcome of optimizing-and-validating one function.
#[derive(Clone, Debug)]
pub struct FunctionRecord {
    /// Function name.
    pub name: String,
    /// Instruction count before optimization.
    pub insts_before: usize,
    /// Instruction count after optimization.
    pub insts_after: usize,
    /// Did the optimizer change the function? (Compared after block/register
    /// renumbering, so pure renaming doesn't count.)
    pub transformed: bool,
    /// Did the validator accept the transformation? Untransformed functions
    /// are trivially valid and not counted in the paper's per-optimization
    /// charts.
    pub validated: bool,
    /// Failure reason for alarms.
    pub reason: Option<FailReason>,
    /// Validation wall-clock time.
    pub duration: Duration,
    /// Rewrites the validator needed, per rule group.
    pub rewrites: RewriteCounts,
    /// Normalization rounds.
    pub rounds: usize,
    /// What the saturation engine did, when it ran (`None` under the
    /// destructive normalizer and when the fallback never engaged).
    pub saturation: Option<SaturationStats>,
    /// Alarm triage, when the validator's cascade triages and this
    /// record is a *paired* alarm (pairing alarms — missing/extra functions
    /// — have no pair to interpret differentially and stay `None`).
    pub triage: Option<Triage>,
}

impl FunctionRecord {
    /// The record's [`VerdictClass`] projection ([`VerdictClass::of`]):
    /// untriaged alarms classify conservatively as suspected-incomplete; a
    /// tier-2 UNSAT proof upgrades to [`VerdictClass::ProvedEquivalent`].
    pub fn class(&self) -> VerdictClass {
        VerdictClass::of(self.validated, self.triage.as_ref())
    }
}

/// Aggregated results over a module (one bar of Fig. 4 / one column group of
/// Fig. 5).
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Per-function outcomes, in input-module order (records for functions
    /// only present in the output module follow, in output order).
    pub records: Vec<FunctionRecord>,
    /// Total optimizer time (the sum of per-function optimizer times — CPU
    /// work, not wall-clock, once the engine optimizes functions
    /// concurrently).
    pub opt_time: Duration,
    /// Total validation time (the sum of per-query durations — CPU work,
    /// not wall-clock, once the engine runs queries concurrently).
    pub validate_time: Duration,
}

impl Report {
    /// Number of functions the optimizer transformed.
    pub fn transformed(&self) -> usize {
        self.records.iter().filter(|r| r.transformed).count()
    }

    /// Number of transformed functions that validated.
    pub fn validated(&self) -> usize {
        self.records.iter().filter(|r| r.transformed && r.validated).count()
    }

    /// Number of alarms (transformed functions that failed validation).
    pub fn alarms(&self) -> usize {
        self.transformed() - self.validated()
    }

    /// Fraction of transformed functions validated (the paper's headline
    /// metric). `1.0` when nothing was transformed.
    pub fn validation_rate(&self) -> f64 {
        let t = self.transformed();
        if t == 0 {
            1.0
        } else {
            self.validated() as f64 / t as f64
        }
    }

    /// Sum of the validator's rewrite counts.
    pub fn total_rewrites(&self) -> u64 {
        self.records.iter().map(|r| r.rewrites.total()).sum()
    }

    /// Triaged alarms of `class` (records without triage never count).
    fn triaged(&self, class: VerdictClass) -> usize {
        self.records.iter().filter(|r| r.triage.is_some() && r.class() == class).count()
    }

    /// Alarms the triage layer classified as real miscompilations (only
    /// ever non-zero on reports from a triaging cascade).
    pub fn real_miscompiles(&self) -> usize {
        self.triaged(VerdictClass::RealMiscompile)
    }

    /// Alarms the triage layer classified as suspected validator
    /// incompletenesses (the paper's false alarms) that tier 2 did not
    /// subsequently prove equivalent.
    pub fn suspected_incomplete(&self) -> usize {
        self.triaged(VerdictClass::SuspectedIncomplete)
    }

    /// Alarms the tier-2 bit-precise query proved equivalent (UNSAT): the
    /// certified false alarms. Only ever non-zero on reports from
    /// [`Cascade::Tiered`] runs.
    pub fn proved_equivalent(&self) -> usize {
        self.triaged(VerdictClass::ProvedEquivalent)
    }
}

/// True when the optimizer actually changed the function, modulo register
/// and block renumbering.
pub fn changed(before: &Function, after: &Function) -> bool {
    before.canonicalized() != after.canonicalized()
}

/// A pass pipeline named a pass `pass_by_name` doesn't know.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownPass(pub String);

impl std::fmt::Display for UnknownPass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown pass `{}`; known passes: {}", self.0, lir_opt::known_passes().join(", "))
    }
}

impl std::error::Error for UnknownPass {}

/// The default worker count: the `LLVM_MD_WORKERS` environment variable
/// when set to a positive integer, else `std::thread::available_parallelism`
/// (1 when the platform can't say).
///
/// The env override lets `ci/bench_baseline.sh` and multi-core
/// re-baselining runs control parallelism without code edits — every bench
/// bin that builds a [`ValidationEngine::new`] (or puts [`default_workers`]
/// on a worker axis) honors it. A malformed or zero value is ignored.
pub fn default_workers() -> usize {
    if let Some(n) = std::env::var("LLVM_MD_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// One name-paired validation query: which record it reports into and which
/// input/output functions it compares.
pub(crate) struct PairJob {
    pub(crate) slot: usize,
    pub(crate) in_idx: usize,
    pub(crate) out_idx: usize,
}

/// The result of pairing an input module against an optimizer's output:
/// pre-filled records (input order, then output-only extras), the
/// transformed pairs still to validate, and the pairing alarms as
/// `(record slot, function index)`: input functions the output dropped
/// (for the certifying splice-back) and output functions the input lacks.
pub(crate) struct Pairing {
    pub(crate) records: Vec<FunctionRecord>,
    pub(crate) jobs: Vec<PairJob>,
    pub(crate) dropped: Vec<(usize, usize)>,
    pub(crate) extra: Vec<(usize, usize)>,
}

fn blank_record(name: &str, insts_before: usize, insts_after: usize) -> FunctionRecord {
    FunctionRecord {
        name: name.to_owned(),
        insts_before,
        insts_after,
        transformed: false,
        validated: true,
        reason: None,
        duration: Duration::ZERO,
        rewrites: RewriteCounts::default(),
        rounds: 0,
        saturation: None,
        triage: None,
    }
}

/// Pair `input` against `output` by function name. Records keep input-module
/// order; output-only functions append in output order, so the result is
/// deterministic for a given pair of modules. Duplicate names on either
/// side pair positionally among themselves (first input copy ↔ first output
/// copy, …); every unmatched copy still gets a missing/extra alarm record —
/// nothing is silently skipped.
pub(crate) fn pair_functions(input: &Module, output: &Module) -> Pairing {
    pair_functions_by(&input.functions, &output.functions, |i, o| {
        changed(&input.functions[i], &output.functions[o])
    })
}

/// [`pair_functions`] over function slices, with a pluggable
/// transformed-predicate over `(input index, output index)`. Chain
/// validation pairs `&Function` views of each step's versions and passes
/// fingerprint inequality here, so each distinct version is fingerprinted
/// once instead of compared structurally once per adjacent pair.
pub(crate) fn pair_functions_by(
    input: &[impl Borrow<Function>],
    output: &[impl Borrow<Function>],
    is_changed: impl Fn(usize, usize) -> bool,
) -> Pairing {
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::with_capacity(output.len());
    for (i, f) in output.iter().enumerate() {
        by_name.entry(f.borrow().name.as_str()).or_default().push(i);
    }
    let mut records = Vec::with_capacity(input.len());
    let mut jobs = Vec::new();
    let mut dropped = Vec::new();
    for (in_idx, fi) in input.iter().map(Borrow::borrow).enumerate() {
        let next_with_name = by_name.get_mut(fi.name.as_str()).and_then(|idxs| {
            if idxs.is_empty() {
                None
            } else {
                Some(idxs.remove(0))
            }
        });
        match next_with_name {
            Some(out_idx) => {
                let fo: &Function = output[out_idx].borrow();
                let transformed = is_changed(in_idx, out_idx);
                let mut rec = blank_record(&fi.name, fi.inst_count(), fo.inst_count());
                rec.transformed = transformed;
                if transformed {
                    jobs.push(PairJob { slot: records.len(), in_idx, out_idx });
                }
                records.push(rec);
            }
            None => {
                // The optimizer dropped (or renamed) this function: there is
                // nothing to validate against — alarm, never silently skip.
                let mut rec = blank_record(&fi.name, fi.inst_count(), 0);
                rec.transformed = true;
                rec.validated = false;
                rec.reason = Some(FailReason::MissingFunction);
                dropped.push((records.len(), in_idx));
                records.push(rec);
            }
        }
    }
    // Whatever is left in the map never existed in the input (including
    // surplus same-name duplicates): alarm on each, in output order.
    let mut extra_idx: Vec<usize> = by_name.into_values().flatten().collect();
    extra_idx.sort_unstable();
    let mut extra = Vec::with_capacity(extra_idx.len());
    for out_idx in extra_idx {
        let fo: &Function = output[out_idx].borrow();
        let mut rec = blank_record(&fo.name, 0, fo.inst_count());
        rec.transformed = true;
        rec.validated = false;
        rec.reason = Some(FailReason::ExtraFunction);
        extra.push((records.len(), out_idx));
        records.push(rec);
    }
    Pairing { records, jobs, dropped, extra }
}

/// A parallel validation engine: a scoped worker pool that fans independent
/// per-function queries out over an atomic work queue.
///
/// The engine is configuration only (a worker count) — it holds no threads
/// between calls, so it is `Copy` and trivially `Send + Sync`; each entry
/// point spawns its scoped workers, drains the queue, and joins before
/// returning. Results are always aggregated in deterministic input order,
/// and at `workers = 1` every entry point degenerates to the exact
/// historical serial loop (no threads spawned at all).
#[derive(Clone, Copy, Debug)]
pub struct ValidationEngine {
    workers: usize,
}

impl Default for ValidationEngine {
    fn default() -> Self {
        ValidationEngine::new()
    }
}

impl ValidationEngine {
    /// An engine with [`default_workers`] workers.
    pub fn new() -> ValidationEngine {
        ValidationEngine::with_workers(default_workers())
    }

    /// An engine with an explicit worker count (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> ValidationEngine {
        ValidationEngine { workers: workers.max(1) }
    }

    /// The strictly-serial engine (`workers = 1`): byte-identical reports to
    /// the historical serial driver.
    pub fn serial() -> ValidationEngine {
        ValidationEngine::with_workers(1)
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Map `f` over `items` on the worker pool; results come back in item
    /// order. Workers start on their own contiguous chunk of the batch and
    /// steal from busy neighbors once it drains ([`mod@pool`]), so long
    /// queries don't stall the rest of the batch behind a static partition.
    /// With one worker (or one item) the map runs inline on the calling
    /// thread.
    pub(crate) fn run_jobs<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        pool::run_stealing(workers, items, f)
    }

    /// Validate the paired jobs of one or more modules on the pool and run
    /// the validator's [`Cascade`] on each alarm. Each job is `(input
    /// module, output module, pairing job)`; the input module is the
    /// interpretation environment. Triage rides the same worker that ran
    /// the failed validation query, so a batch with a handful of alarms
    /// pays for interpretation only on those — and the per-function triage
    /// battery is deterministic, so the aggregated records are identical at
    /// any worker count.
    fn validate_jobs(
        &self,
        jobs: &[(&Module, &Module, &PairJob)],
        validator: &Validator,
    ) -> Vec<TriagedVerdict> {
        self.run_jobs(jobs, |(input, output, job)| {
            validator.validate_cascade(
                input,
                &input.functions[job.in_idx],
                &output.functions[job.out_idx],
            )
        })
    }

    /// Fold one verdict per job, taken in order from `verdicts`, back into
    /// the records; returns the summed validation time. With `splice =
    /// Some((input, output))`, rejected functions in `output` are replaced
    /// by their originals from `input`.
    pub(crate) fn merge_verdicts(
        records: &mut [FunctionRecord],
        jobs: &[PairJob],
        verdicts: &mut impl Iterator<Item = TriagedVerdict>,
        mut splice: Option<(&Module, &mut Module)>,
    ) -> Duration {
        let mut total = Duration::ZERO;
        for job in jobs {
            let TriagedVerdict { verdict: v, triage } =
                verdicts.next().expect("one verdict per job");
            let rec = &mut records[job.slot];
            rec.validated = v.validated;
            rec.reason = v.reason;
            rec.duration = v.stats.duration;
            rec.rewrites = v.stats.rewrites;
            rec.rounds = v.stats.rounds;
            rec.saturation = v.stats.saturation;
            rec.triage = triage;
            total += v.stats.duration;
            // The paper's splice: keep the unoptimized original — unless
            // tier 2 proved the pair equivalent, in which case the
            // transformation is certified despite the tier-1 alarm.
            let proved = rec.triage.as_ref().is_some_and(Triage::sat_proved);
            if !rec.validated && !proved {
                if let Some((input, output)) = splice.as_mut() {
                    output.functions[job.out_idx] = input.functions[job.in_idx].clone();
                }
            }
        }
        total
    }

    /// Restore functions the optimizer dropped: append the originals to the
    /// certified output (their records already alarm `MissingFunction`).
    fn restore_dropped(input: &Module, output: &mut Module, dropped: &[(usize, usize)]) {
        for &(_, in_idx) in dropped {
            output.functions.push(input.functions[in_idx].clone());
        }
    }

    /// Run the `llvm-md` pipeline: optimize every function of `input` with
    /// `pm` and validate each transformed one, in one pool job per
    /// function; run the validator's [`Cascade`] on each alarm, and splice
    /// originals back over rejected transformations (including functions
    /// the optimizer dropped outright; a tier-2 proof keeps the optimized
    /// function). Returns the certified module and the per-function report
    /// — exactly [`ValidationEngine::validate_corpus`] over the one module.
    pub fn llvm_md(
        &self,
        input: &Module,
        pm: &PassManager,
        validator: &Validator,
    ) -> (Module, Report) {
        self.validate_corpus(std::slice::from_ref(input), pm, validator)
            .pop()
            .expect("one result per input module")
    }

    /// [`ValidationEngine::llvm_md`] under [`Cascade::Tiered`]. Kept only
    /// because the repository benchmark (`perfbench`) calls it by name;
    /// new code sets `validator.cascade` instead.
    pub fn llvm_md_tiered(
        &self,
        input: &Module,
        pm: &PassManager,
        validator: &Validator,
        topts: &TriageOptions,
        sopts: &SatOptions,
    ) -> (Module, Report) {
        self.llvm_md(
            input,
            pm,
            &Validator { cascade: Cascade::Tiered(*topts, *sopts), ..*validator },
        )
    }

    /// Validate a pre-optimized pair of modules function-by-function on the
    /// pool (used when the caller wants to control optimization
    /// separately), running the validator's [`Cascade`] on each alarm with
    /// the *input* module as the interpretation environment. No splicing:
    /// `output` is the caller's.
    pub fn validate_modules(
        &self,
        input: &Module,
        output: &Module,
        validator: &Validator,
    ) -> Report {
        let Pairing { mut records, jobs, .. } = pair_functions(input, output);
        let flat: Vec<_> = jobs.iter().map(|j| (input, output, j)).collect();
        let mut verdicts = self.validate_jobs(&flat, validator).into_iter();
        let validate_time = Self::merge_verdicts(&mut records, &jobs, &mut verdicts, None);
        Report { records, opt_time: Duration::ZERO, validate_time }
    }

    /// [`ValidationEngine::validate_modules`] under [`Cascade::Tiered`].
    /// Kept only because the repository benchmark (`perfbench`) calls it by
    /// name; new code sets `validator.cascade` instead.
    pub fn validate_modules_tiered(
        &self,
        input: &Module,
        output: &Module,
        validator: &Validator,
        topts: &TriageOptions,
        sopts: &SatOptions,
    ) -> Report {
        let validator = Validator { cascade: Cascade::Tiered(*topts, *sopts), ..*validator };
        self.validate_modules(input, output, &validator)
    }

    /// Stream a whole corpus of modules through the pool as **one flat batch
    /// of per-function jobs**. Passes are function-local, so each job
    /// optimizes one function (against its module's globals), checks
    /// whether the optimizer changed it, and — when it did and the function
    /// kept its name — runs the validator's [`Cascade`] on the pair at once.
    /// Optimization and validation of different functions (and modules)
    /// interleave freely; nothing waits on a module-wide optimize stage.
    ///
    /// Each certified module is then rebuilt from its job results (name,
    /// globals and declarations from the input) and paired with its input
    /// by name. Passes map functions 1:1 in order, so every name-paired
    /// `(i, i)` takes job `i`'s verdict; a pair with different indices can
    /// only come from a pass that renamed a function, and those run in a
    /// second pool batch. Rejected functions are spliced back and dropped
    /// ones restored, as in [`ValidationEngine::llvm_md`]. Returns the
    /// certified module and report per input, in input order; each report
    /// is identical to a staged run (optimize the module, then
    /// [`ValidationEngine::validate_modules`], then splice) modulo
    /// wall-clock durations, and its `opt_time` is the summed per-function
    /// optimizer time.
    pub fn validate_corpus(
        &self,
        inputs: &[Module],
        pm: &PassManager,
        validator: &Validator,
    ) -> Vec<(Module, Report)> {
        // Batch 1: optimize-and-validate, one job per (module, function).
        let jobs: Vec<(&Module, &Function)> =
            inputs.iter().flat_map(|m| m.functions.iter().map(move |f| (m, f))).collect();
        let mut fused = self
            .run_jobs(&jobs, |&(input, orig)| {
                let mut f = orig.clone();
                let t0 = Instant::now();
                pm.run_function(&mut f, &Ctx::of(input));
                let opt_time = t0.elapsed();
                let changed = changed(orig, &f);
                let verdict = (changed && f.name == orig.name)
                    .then(|| validator.validate_cascade(input, orig, &f));
                FusedJob { function: f, opt_time, changed, verdict }
            })
            .into_iter();
        // Rebuild each output module and pair it by name, reusing the jobs'
        // `changed` flags for the identity pairs.
        let mut modules: Vec<(Module, Pairing, Vec<Option<TriagedVerdict>>, Duration)> =
            Vec::with_capacity(inputs.len());
        for input in inputs {
            let mut output = Module {
                name: input.name.clone(),
                globals: input.globals.clone(),
                declarations: input.declarations.clone(),
                functions: Vec::with_capacity(input.functions.len()),
            };
            let (mut flags, mut verdicts, mut opt_time) = (Vec::new(), Vec::new(), Duration::ZERO);
            for job in fused.by_ref().take(input.functions.len()) {
                output.functions.push(job.function);
                flags.push(job.changed);
                verdicts.push(job.verdict);
                opt_time += job.opt_time;
            }
            let pairing = pair_functions_by(&input.functions, &output.functions, |i, o| {
                if i == o {
                    flags[i]
                } else {
                    changed(&input.functions[i], &output.functions[o])
                }
            });
            modules.push((output, pairing, verdicts, opt_time));
        }
        // Batch 2: pairs a renaming pass moved off the diagonal.
        let moved: Vec<_> = inputs
            .iter()
            .zip(&modules)
            .flat_map(|(input, (output, p, ..))| {
                p.jobs.iter().filter(|j| j.in_idx != j.out_idx).map(move |j| (input, output, j))
            })
            .collect();
        let mut moved = self.validate_jobs(&moved, validator).into_iter();
        // Hand each module its verdicts in job order, splice, report.
        inputs
            .iter()
            .zip(modules)
            .map(|(input, (mut output, p, mut speculative, opt_time))| {
                let mut verdicts = p.jobs.iter().map(|j| {
                    if j.in_idx == j.out_idx {
                        speculative[j.in_idx].take().expect("a changed, same-named function")
                    } else {
                        moved.next().expect("one verdict per moved pair")
                    }
                });
                let mut records = p.records;
                let splice = Some((input, &mut output));
                let validate_time =
                    Self::merge_verdicts(&mut records, &p.jobs, &mut verdicts, splice);
                Self::restore_dropped(input, &mut output, &p.dropped);
                (output, Report { records, opt_time, validate_time })
            })
            .collect()
    }
}

/// One fused job's result: the optimized function, its optimizer time,
/// whether the optimizer changed it, and its speculative verdict (run when
/// it changed and kept its name; unused if a renamed same-named copy
/// shifted its pairing off the diagonal).
struct FusedJob {
    function: Function,
    opt_time: Duration,
    changed: bool,
    verdict: Option<TriagedVerdict>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::interp::{run, ExecConfig};
    use lir::parse::parse_module;
    use lir_opt::{paper_pipeline, Ctx, Pass};

    fn module(src: &str) -> Module {
        parse_module(src).expect("parse")
    }

    #[test]
    fn pipeline_validates_simple_module() {
        let m = module(
            "define i64 @fold(i64 %a) {\n\
             entry:\n  %x = add i64 3, 3\n  %y = mul i64 %a, %x\n  ret i64 %y\n\
             }\n\
             define i64 @dead(i64 %a) {\n\
             entry:\n  %d = add i64 %a, 9\n  %u = mul i64 %d, %d\n  ret i64 %a\n\
             }\n",
        );
        let (out, report) =
            ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &Validator::new());
        assert_eq!(report.records.len(), 2);
        // The dead-code function must have been transformed and validated.
        let dead = report.records.iter().find(|r| r.name == "dead").unwrap();
        assert!(dead.transformed);
        assert!(dead.validated, "{:?}", dead.reason);
        // Behaviour is preserved on the certified output.
        for args in [[0u64], [7], [123456]] {
            let a = run(&m, "dead", &args, &ExecConfig::default()).unwrap();
            let b = run(&out, "dead", &args, &ExecConfig::default()).unwrap();
            assert_eq!(a.ret, b.ret);
        }
    }

    #[test]
    fn rejected_functions_are_spliced_back() {
        // A validator with no rules rejects almost any real transformation;
        // the output must then equal the input function.
        let m = module(
            "define i64 @f(i64 %a) {\n\
             entry:\n  %x = add i64 2, 3\n  %y = mul i64 %a, %x\n  ret i64 %y\n\
             }\n",
        );
        let strict = Validator { rules: llvm_md_core::RuleSet::none(), ..Validator::new() };
        let (out, report) = ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &strict);
        let rec = &report.records[0];
        if rec.transformed && !rec.validated {
            assert!(!changed(&m.functions[0], &out.functions[0]), "original spliced back");
        }
    }

    #[test]
    fn untransformed_functions_are_not_counted() {
        let m = module("define i64 @id(i64 %a) {\nentry:\n  ret i64 %a\n}\n");
        let (_, report) =
            ValidationEngine::serial().llvm_md(&m, &paper_pipeline(), &Validator::new());
        assert_eq!(report.transformed(), 0);
        assert_eq!(report.validation_rate(), 1.0);
    }

    #[test]
    fn single_pass_report() {
        let m = module(
            "define i64 @f(i1 %c) {\n\
             entry:\n  br i1 %c, label %t, label %e\n\
             t:\n  br label %j\n\
             e:\n  br label %j\n\
             j:\n  %a = phi i64 [ 1, %t ], [ 2, %e ]\n\
             %b = phi i64 [ 1, %t ], [ 2, %e ]\n\
             %s = sub i64 %a, %b\n  ret i64 %s\n\
             }\n",
        );
        let gvn = campaign_pass_manager(&["gvn".to_owned()]).expect("known pass");
        let (_, report) = ValidationEngine::serial().llvm_md(&m, &gvn, &Validator::new());
        let rec = &report.records[0];
        assert!(rec.transformed, "GVN merges the equivalent phis");
        assert!(rec.validated, "{:?}", rec.reason);
    }

    #[test]
    fn unknown_pass_is_an_error_not_a_panic() {
        let err = campaign_pass_manager(&["no-such-pass".to_owned()]).unwrap_err();
        assert_eq!(err, UnknownPass("no-such-pass".to_owned()));
        assert!(err.to_string().contains("no-such-pass"));
    }

    /// Two functions whose *positions* swap but whose names stay put must
    /// pair by name: nothing was transformed, so nothing alarms.
    #[test]
    fn reordered_output_pairs_by_name() {
        let m = module(
            "define i64 @one(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  ret i64 %x\n}\n\
             define i64 @two(i64 %a) {\nentry:\n  %x = add i64 %a, 2\n  ret i64 %x\n}\n",
        );
        let mut out = m.clone();
        out.functions.reverse();
        let report = ValidationEngine::serial().validate_modules(&m, &out, &Validator::new());
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.transformed(), 0, "name pairing must see identical functions");
        // Records stay in input order regardless of output order.
        assert_eq!(report.records[0].name, "one");
        assert_eq!(report.records[1].name, "two");
    }

    /// A dropped function is an alarm, not a silent truncation.
    #[test]
    fn dropped_function_alarms_missing() {
        let m = module(
            "define i64 @keep(i64 %a) {\nentry:\n  ret i64 %a\n}\n\
             define i64 @gone(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  ret i64 %x\n}\n",
        );
        let mut out = m.clone();
        out.functions.pop();
        let report = ValidationEngine::serial().validate_modules(&m, &out, &Validator::new());
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.alarms(), 1);
        let gone = report.records.iter().find(|r| r.name == "gone").expect("recorded");
        assert!(gone.transformed && !gone.validated);
        assert_eq!(gone.reason, Some(FailReason::MissingFunction));
    }

    /// A function the input never had is an alarm too.
    #[test]
    fn extra_function_alarms() {
        let m = module("define i64 @f(i64 %a) {\nentry:\n  ret i64 %a\n}\n");
        let out = module(
            "define i64 @f(i64 %a) {\nentry:\n  ret i64 %a\n}\n\
             define i64 @ghost(i64 %a) {\nentry:\n  ret i64 %a\n}\n",
        );
        let report = ValidationEngine::serial().validate_modules(&m, &out, &Validator::new());
        assert_eq!(report.records.len(), 2);
        let ghost = report.records.iter().find(|r| r.name == "ghost").expect("recorded");
        assert_eq!(ghost.reason, Some(FailReason::ExtraFunction));
        assert_eq!(report.alarms(), 1);
    }

    /// A duplicate-named output function (a buggy optimizer emitted two
    /// copies of `@f`) pairs its first copy and alarms the surplus one as
    /// `ExtraFunction` — never silently skips it.
    #[test]
    fn duplicate_named_output_functions_alarm() {
        let m = module("define i64 @f(i64 %a) {\nentry:\n  ret i64 %a\n}\n");
        let mut out = m.clone();
        let dup = out.functions[0].clone();
        out.functions.push(dup);
        let report = ValidationEngine::serial().validate_modules(&m, &out, &Validator::new());
        assert_eq!(report.records.len(), 2, "both copies recorded");
        assert_eq!(report.records[0].name, "f");
        assert!(!report.records[0].transformed, "first copy pairs with the input");
        assert_eq!(report.records[1].reason, Some(FailReason::ExtraFunction));
        assert_eq!(report.alarms(), 1);
    }

    /// A pass that renames every function makes each original "missing" and
    /// each renamed copy "extra"; the certified output must restore the
    /// originals.
    struct RenameAll;
    impl Pass for RenameAll {
        fn name(&self) -> &'static str {
            "rename-all"
        }
        fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
            f.name.push_str(".renamed");
            true
        }
    }

    #[test]
    fn renamed_functions_alarm_and_originals_are_restored() {
        let m = module("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  ret i64 %x\n}\n");
        let mut pm = PassManager::new();
        pm.add(Box::new(RenameAll));
        let (out, report) = ValidationEngine::serial().llvm_md(&m, &pm, &Validator::new());
        // One missing (f) + one extra (f.renamed), both alarms.
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.alarms(), 2);
        assert_eq!(report.records[0].reason, Some(FailReason::MissingFunction));
        assert_eq!(report.records[1].reason, Some(FailReason::ExtraFunction));
        // The certified output still contains the original @f.
        let restored = out.function("f").expect("dropped function restored");
        assert!(!changed(&m.functions[0], restored));
    }

    /// The engine at any worker count reproduces the serial report and the
    /// serial certified output.
    #[test]
    fn engine_matches_serial_driver() {
        let m = module(
            "define i64 @fold(i64 %a) {\n\
             entry:\n  %x = add i64 3, 3\n  %y = mul i64 %a, %x\n  ret i64 %y\n\
             }\n\
             define i64 @dead(i64 %a) {\n\
             entry:\n  %d = add i64 %a, 9\n  %u = mul i64 %d, %d\n  ret i64 %a\n\
             }\n\
             define i64 @id(i64 %a) {\nentry:\n  ret i64 %a\n}\n",
        );
        let v = Validator::new();
        let pm = paper_pipeline();
        let (serial_out, serial_rep) = ValidationEngine::serial().llvm_md(&m, &pm, &v);
        for workers in [1, 2, 4, 7] {
            let engine = ValidationEngine::with_workers(workers);
            assert_eq!(engine.workers(), workers);
            let (out, rep) = engine.llvm_md(&m, &pm, &v);
            assert_eq!(serial_rep, rep, "workers={workers}: report outcomes differ");
            assert_eq!(
                format!("{serial_out}"),
                format!("{out}"),
                "workers={workers}: certified modules differ"
            );
        }
    }

    /// Triaged runs classify alarms: a broken "optimizer" that flips a
    /// comparison yields a real miscompile with a witness; splice-back
    /// still restores the original.
    #[test]
    fn triaged_pipeline_classifies_a_real_miscompile() {
        struct FlipFirstIcmp;
        impl Pass for FlipFirstIcmp {
            fn name(&self) -> &'static str {
                "flip-first-icmp"
            }
            fn run(&self, f: &mut Function, _ctx: &Ctx<'_>) -> bool {
                for b in &mut f.blocks {
                    for inst in &mut b.insts {
                        if let lir::inst::Inst::Icmp { pred, .. } = inst {
                            *pred = pred.negated();
                            return true;
                        }
                    }
                }
                false
            }
        }
        let m = module(
            "define i64 @max(i64 %a, i64 %b) {\n\
             entry:\n  %c = icmp sgt i64 %a, %b\n  br i1 %c, label %l, label %r\n\
             l:\n  ret i64 %a\n\
             r:\n  ret i64 %b\n\
             }\n",
        );
        let mut pm = PassManager::new();
        pm.add(Box::new(FlipFirstIcmp));
        let triaging =
            Validator { cascade: Cascade::Triage(TriageOptions::default()), ..Validator::new() };
        let (out, report) = ValidationEngine::serial().llvm_md(&m, &pm, &triaging);
        assert_eq!(report.alarms(), 1);
        assert_eq!(report.real_miscompiles(), 1);
        assert_eq!(report.suspected_incomplete(), 0);
        let rec = &report.records[0];
        let triage = rec.triage.as_ref().expect("alarm triaged");
        assert!(triage.witness.is_some(), "real miscompile carries a witness");
        // The miscompiled function was spliced back.
        assert!(!changed(&m.functions[0], &out.functions[0]));
    }

    /// Triage is deterministic across worker counts: report equality (which
    /// includes the triage classification and witness) must hold between a
    /// serial and a parallel triaged run.
    #[test]
    fn triaged_reports_agree_across_worker_counts() {
        let m = module(
            "define i64 @fold(i64 %a) {\n\
             entry:\n  %x = add i64 3, 3\n  %y = mul i64 %a, %x\n  ret i64 %y\n\
             }\n\
             define i64 @dead(i64 %a) {\n\
             entry:\n  %d = add i64 %a, 9\n  %u = mul i64 %d, %d\n  ret i64 %a\n\
             }\n",
        );
        // A rule-less validator alarms on every real transformation, so the
        // triage path actually runs.
        let strict = Validator {
            rules: llvm_md_core::RuleSet::none(),
            cascade: Cascade::Triage(TriageOptions::default()),
            ..Validator::new()
        };
        let pm = paper_pipeline();
        let (_, serial) = ValidationEngine::serial().llvm_md(&m, &pm, &strict);
        assert!(serial.alarms() > 0, "strict validator must alarm here");
        assert_eq!(
            serial.real_miscompiles(),
            0,
            "honest optimizer output must never triage as a miscompile"
        );
        assert_eq!(serial.suspected_incomplete(), serial.alarms());
        for workers in [2, 4] {
            let engine = ValidationEngine::with_workers(workers);
            let (_, rep) = engine.llvm_md(&m, &pm, &strict);
            assert_eq!(serial, rep, "workers={workers}: triaged outcomes differ");
        }
    }

    /// `validate_corpus` over a batch equals per-module `llvm_md` runs.
    #[test]
    fn corpus_batch_matches_per_module_runs() {
        let mods: Vec<Module> = [
            "define i64 @a(i64 %x) {\nentry:\n  %y = add i64 3, 3\n  %z = mul i64 %x, %y\n  ret i64 %z\n}\n",
            "define i64 @b(i64 %x) {\nentry:\n  %d = add i64 %x, 9\n  %u = mul i64 %d, %d\n  ret i64 %x\n}\n",
            "define i64 @c(i64 %x) {\nentry:\n  ret i64 %x\n}\n",
        ]
        .iter()
        .map(|s| module(s))
        .collect();
        let v = Validator::new();
        let pm = paper_pipeline();
        for workers in [1, 3] {
            let engine = ValidationEngine::with_workers(workers);
            let batch = engine.validate_corpus(&mods, &pm, &v);
            assert_eq!(batch.len(), mods.len());
            for (m, (out, rep)) in mods.iter().zip(&batch) {
                let (serial_out, serial_rep) = ValidationEngine::serial().llvm_md(m, &pm, &v);
                assert_eq!(serial_rep, *rep, "workers={workers}: corpus report differs");
                assert_eq!(format!("{serial_out}"), format!("{out}"));
            }
        }
    }
}
