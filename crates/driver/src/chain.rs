//! Per-pass chain validation: validate the pipeline step-by-step and blame
//! the first pass that breaks each function.
//!
//! The paper evaluates LLVM's pipeline pass-by-pass (Figs. 5–8), but the
//! one-shot driver entry points only check input-vs-final-output: every
//! pass's incompleteness composes into one verdict, and an alarm cannot say
//! *which* pass is at fault. A [`ChainValidator`] instead materializes every
//! intermediate module (M0 →pass0→ M1 →pass1→ … →passn-1→ Mn), validates
//! each **adjacent pair** on the driver's worker pool, and reports:
//!
//! * a per-pass [`Report`] for every step ([`ChainStep`]);
//! * a [`Blame`] for every alarming function — the *first* failing step,
//!   with that step's triage attached, so a `RealMiscompile` names the
//!   guilty pass along with its replayable witness;
//! * the **certified-composition verdict**: if every step validates, the
//!   chain validates (semantic preservation composes transitively), which
//!   [`ChainReport::composition`] cross-checks against the one-shot
//!   end-to-end verdict over the same functions.
//!
//! # The graph cache
//!
//! Adjacent pairs share a module — Mk is the optimized side of step k−1 and
//! the original side of step k — so the chain runs every query through one
//! `llvm_md_core::cache::GraphCache`: each version's functions are
//! fingerprinted once ([`llvm_md_core::fingerprint`]), fingerprint-equal
//! pairs (functions the pass didn't touch) skip validation outright with a
//! recorded skip stat, and gated-SSA graphs are built once per distinct
//! fingerprint and reused by both adjacent steps *and* the end-to-end
//! cross-check (whose sides, M0 and Mn, are always already cached).
//!
//! # Determinism
//!
//! Everything in a [`ChainReport`] except wall-clock durations and the
//! [`CacheStats`] counters is deterministic at any worker count
//! (`ChainReport`'s equality checks exactly that projection): records
//! aggregate in step/input order, triage batteries are seeded per function,
//! and cached graphs are built from canonicalized functions so a verdict
//! can never depend on which worker populated the cache first. The hit/miss
//! counters *can* race (two workers may both miss one key) and are excluded.

use crate::{pair_functions_by, PairJob, Pairing, Report, ValidationEngine};
use lir::func::Module;
use lir_opt::PassManager;
use llvm_md_core::cache::fingerprint_canonical;
use llvm_md_core::cache::{CacheStats, GraphCache};
use llvm_md_core::triage::{Triage, TriageClass, TriagedVerdict};
use llvm_md_core::{FailReason, Validator};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Pass-level blame for one alarming function: the first chain step whose
/// validation failed, with that step's evidence.
#[derive(Clone, Debug)]
pub struct Blame {
    /// The function that alarmed.
    pub function: String,
    /// Index of the first failing step (0-based; `steps[step]` in the
    /// report).
    pub step: usize,
    /// Name of the pass that ran at that step — the blamed pass.
    pub pass: String,
    /// The failing step's failure reason.
    pub reason: Option<FailReason>,
    /// The failing step's triage (present when the chain ran with triage
    /// and the alarm was a paired one): a `RealMiscompile` here means *this
    /// pass* observably broke the function, witness attached.
    pub triage: Option<Triage>,
}

impl Blame {
    /// True when the blamed step's triage proved a real miscompilation.
    pub fn is_miscompile(&self) -> bool {
        self.triage.as_ref().is_some_and(|t| t.class == TriageClass::RealMiscompile)
    }
}

impl std::fmt::Display for Blame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{} first fails at step {} (`{}`)", self.function, self.step, self.pass)?;
        if let Some(reason) = &self.reason {
            write!(f, ": {reason}")?;
        }
        match &self.triage {
            Some(t) if t.class == TriageClass::RealMiscompile => {
                write!(f, " — real miscompile")?;
                if let Some(w) = &t.witness {
                    write!(f, ", witness args {:?}", w.args)?;
                }
                Ok(())
            }
            Some(_) => write!(f, " — suspected validator incompleteness"),
            None => Ok(()),
        }
    }
}

/// One step of a validated chain: the pass that ran and the adjacent-pair
/// validation report (`records` compare M(k) against M(k+1); `opt_time` is
/// this pass's optimization time).
#[derive(Clone, Debug)]
pub struct ChainStep {
    /// The pass name (`PassManager::step_name` of this step's index).
    pub pass: String,
    /// The adjacent-pair validation report.
    pub report: Report,
}

/// The certified-composition cross-check: per-function agreement between
/// the chained verdict and the one-shot end-to-end verdict, over the
/// functions the whole pipeline transformed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Composition {
    /// Functions the whole pipeline transformed (end-to-end).
    pub transformed: usize,
    /// ... that the one-shot end-to-end query validated.
    pub end_to_end_validated: usize,
    /// ... that the chain certified (every step that changed them
    /// validated — composition of per-step semantic preservation).
    pub chain_certified: usize,
    /// ... certified by the chain but not by the end-to-end query: the
    /// decomposition win (adjacent modules are closer, so per-step proofs
    /// succeed where the composed proof exhausts the rules).
    pub chain_only: usize,
    /// ... validated end-to-end but not chain-certified: a step-level
    /// incompleteness the composed query happened to normalize through.
    pub end_to_end_only: usize,
}

impl Composition {
    /// Chained validation rate over the pipeline-transformed functions
    /// (`1.0` when nothing was transformed).
    pub fn chain_rate(&self) -> f64 {
        if self.transformed == 0 {
            1.0
        } else {
            self.chain_certified as f64 / self.transformed as f64
        }
    }

    /// End-to-end validation rate over the same functions.
    pub fn end_to_end_rate(&self) -> f64 {
        if self.transformed == 0 {
            1.0
        } else {
            self.end_to_end_validated as f64 / self.transformed as f64
        }
    }
}

/// The outcome of validating a pipeline pass-by-pass.
#[derive(Clone, Debug, Default)]
pub struct ChainReport {
    /// One entry per pass, in pipeline order.
    pub steps: Vec<ChainStep>,
    /// The one-shot M0-vs-Mn cross-check report (its `opt_time` is the sum
    /// of the per-step optimization times).
    pub end_to_end: Report,
    /// Pass-level blame for every alarming function, in step order then
    /// record order (one blame per function: its first failing step).
    pub blames: Vec<Blame>,
    /// Graph-cache counters for the whole chain run (reporting data; see
    /// the module docs on determinism).
    pub cache: CacheStats,
}

/// One per-function row of [`ChainReport`]'s cross-step aggregation.
/// Functions are keyed by `(name, per-step occurrence index)` so
/// duplicate-named copies — which `pair_functions` pairs positionally among
/// themselves and records separately — stay separate here too; nothing is
/// silently merged.
struct StepOutcome<'a> {
    name: &'a str,
    occurrence: usize,
    transformed: bool,
    certified: bool,
}

/// Per-name occurrence counter: returns 0 for the first `name`, 1 for the
/// next duplicate, … (the positional-copy index `pair_functions` uses).
fn occurrence<'a>(counts: &mut HashMap<&'a str, usize>, name: &'a str) -> usize {
    let slot = counts.entry(name).and_modify(|n| *n += 1).or_insert(0);
    *slot
}

impl ChainReport {
    /// Per-function aggregate over the steps, in first-seen order:
    /// transformed at some step / every transformed step validated.
    fn step_outcomes(&self) -> Vec<StepOutcome<'_>> {
        let mut order: Vec<(&str, usize)> = Vec::new();
        let mut agg: HashMap<(&str, usize), (bool, bool)> = HashMap::new();
        for step in &self.steps {
            let mut occ: HashMap<&str, usize> = HashMap::new();
            for rec in &step.report.records {
                let key = (rec.name.as_str(), occurrence(&mut occ, &rec.name));
                let entry = agg.entry(key).or_insert_with(|| {
                    order.push(key);
                    (false, true)
                });
                entry.0 |= rec.transformed;
                if rec.transformed && !rec.validated {
                    entry.1 = false;
                }
            }
        }
        order
            .into_iter()
            .map(|key| {
                let (transformed, certified) = agg[&key];
                StepOutcome { name: key.0, occurrence: key.1, transformed, certified }
            })
            .collect()
    }

    /// Which `(name, occurrence)` pairs the chain certified (no failing
    /// transformed step) — shared by the composition cross-checks.
    fn certified_map(&self) -> HashMap<(&str, usize), bool> {
        self.step_outcomes().into_iter().map(|o| ((o.name, o.occurrence), o.certified)).collect()
    }

    /// Functions some step transformed.
    pub fn chain_transformed(&self) -> usize {
        self.step_outcomes().iter().filter(|o| o.transformed).count()
    }

    /// Functions some step transformed whose every transformed step
    /// validated — the chain-certified functions.
    pub fn chain_validated(&self) -> usize {
        self.step_outcomes().iter().filter(|o| o.transformed && o.certified).count()
    }

    /// `chain_validated / chain_transformed` (`1.0` when no step
    /// transformed anything). One aggregation pass, not two.
    pub fn chain_validation_rate(&self) -> f64 {
        let outcomes = self.step_outcomes();
        let t = outcomes.iter().filter(|o| o.transformed).count();
        if t == 0 {
            1.0
        } else {
            outcomes.iter().filter(|o| o.transformed && o.certified).count() as f64 / t as f64
        }
    }

    /// The certified-composition verdict for the whole module: every step
    /// fully validated, so the chain proves Mn preserves M0 by
    /// transitivity.
    pub fn certifies(&self) -> bool {
        self.steps.iter().all(|s| s.report.alarms() == 0)
    }

    /// The blame for `function`, when it alarmed anywhere in the chain.
    pub fn blame_for(&self, function: &str) -> Option<&Blame> {
        self.blames.iter().find(|b| b.function == function)
    }

    /// Cross-check the chained verdicts against the one-shot end-to-end
    /// verdicts over the functions the pipeline transformed.
    pub fn composition(&self) -> Composition {
        let certified = self.certified_map();
        let mut occ: HashMap<&str, usize> = HashMap::new();
        let mut c = Composition::default();
        for rec in &self.end_to_end.records {
            let key = (rec.name.as_str(), occurrence(&mut occ, &rec.name));
            if !rec.transformed {
                continue;
            }
            c.transformed += 1;
            let e2e_ok = rec.validated;
            let chain_ok = certified.get(&key).copied().unwrap_or(false);
            if e2e_ok {
                c.end_to_end_validated += 1;
            }
            if chain_ok {
                c.chain_certified += 1;
            }
            if chain_ok && !e2e_ok {
                c.chain_only += 1;
            }
            if e2e_ok && !chain_ok {
                c.end_to_end_only += 1;
            }
        }
        c
    }

    /// Soundness cross-check between the two verdicts: a chain-certified
    /// function must never triage as a real miscompile end-to-end (either
    /// would be a validator bug). The reverse directions are legitimate
    /// incompleteness, not inconsistency.
    pub fn composition_consistent(&self) -> bool {
        let certified = self.certified_map();
        let mut occ: HashMap<&str, usize> = HashMap::new();
        self.end_to_end.records.iter().all(|rec| {
            let key = (rec.name.as_str(), occurrence(&mut occ, &rec.name));
            let real_miscompile =
                rec.triage.as_ref().is_some_and(|t| t.class == TriageClass::RealMiscompile);
            !(real_miscompile && certified.get(&key).copied().unwrap_or(false))
        })
    }
}

/// Validates a `PassManager` pipeline step-by-step on a worker pool (see
/// the [module docs](self)). Alarms — step-level *and* end-to-end — go
/// through the validator's `Cascade`: with triage, blames carry witnesses
/// and the composition cross-check can compare miscompile
/// classifications; with tier 2, a blamed pass whose alarm tier 2 proves
/// equivalent is a certified false alarm, and a replayed SAT counterexample
/// escalates the blame to a real miscompile with a witness.
#[derive(Clone, Copy, Debug)]
pub struct ChainValidator {
    engine: ValidationEngine,
}

impl ChainValidator {
    /// A chain validator running its queries on `engine`'s worker pool.
    pub fn new(engine: ValidationEngine) -> ChainValidator {
        ChainValidator { engine }
    }

    /// The underlying engine.
    pub fn engine(&self) -> ValidationEngine {
        self.engine
    }

    /// Run `pm` one pass at a time over `input` and validate every adjacent
    /// module pair (plus the end-to-end pair) against `validator`.
    pub fn validate_chain(
        &self,
        input: &Module,
        pm: &PassManager,
        validator: &Validator,
    ) -> ChainReport {
        let n = pm.len();
        // 1. Materialize every intermediate module. Passes are
        //    function-local, so stepping the pipeline produces exactly the
        //    module `run_module` would (asserted by lir_opt's tests).
        let mut versions: Vec<Module> = Vec::with_capacity(n + 1);
        let mut opt_times: Vec<Duration> = Vec::with_capacity(n);
        versions.push(input.clone());
        for k in 0..n {
            let mut next = versions[k].clone();
            let t0 = Instant::now();
            pm.run_step(k, &mut next);
            opt_times.push(t0.elapsed());
            versions.push(next);
        }
        // 2. Canonicalize and fingerprint every version once; each vector
        //    serves as the "original" side of one pair and the "optimized"
        //    side of the next — the shared-middle-module reuse. The
        //    canonical forms are kept for the run so cache misses gate them
        //    directly instead of canonicalizing a second time (one extra
        //    module copy per version, traded for one less CFG rebuild per
        //    distinct function version).
        let canon: Vec<Vec<lir::func::Function>> = versions
            .iter()
            .map(|m| m.functions.iter().map(|f| f.canonicalized()).collect())
            .collect();
        let fps: Vec<Vec<u64>> =
            canon.iter().map(|fs| fs.iter().map(fingerprint_canonical).collect()).collect();
        // 3. Pair each adjacent version (step k compares Mk with Mk+1;
        //    step n is the end-to-end M0 vs Mn cross-check) by name; a
        //    function is transformed iff its fingerprints differ.
        //    Fingerprint-equal pairs are the skipped queries.
        let sides = |k: usize| if k == n { (0, n) } else { (k, k + 1) };
        let cache = GraphCache::new();
        let pairings: Vec<Pairing> = (0..=n)
            .map(|k| {
                let (a, b) = sides(k);
                pair_functions_by(&versions[a], &versions[b], |i, o| fps[a][i] != fps[b][o])
            })
            .collect();
        // Untransformed (fingerprint-equal) pairs never become jobs: their
        // queries are skipped outright, including the end-to-end
        // cross-check's pairs — count them all, per CacheStats::skips.
        let skipped: u64 = pairings
            .iter()
            .map(|p| p.records.iter().filter(|r| !r.transformed).count() as u64)
            .sum();
        cache.record_skips(skipped);
        // 4. One flat batch over the pool, in step order: queries from
        //    different steps interleave freely, so the pool never idles on
        //    a step boundary.
        let flat: Vec<(usize, &PairJob)> = pairings
            .iter()
            .enumerate()
            .flat_map(|(k, p)| p.jobs.iter().map(move |j| (k, j)))
            .collect();
        let outcomes = self.engine.run_jobs(&flat, |&(k, job)| {
            let (vin, vout) = sides(k);
            let verdict = validator.validate_cached_canonical(
                &canon[vin][job.in_idx],
                &canon[vout][job.out_idx],
                (fps[vin][job.in_idx], fps[vout][job.out_idx]),
                &cache,
            );
            // The cascade interprets the *raw* functions: the step's input
            // module is the interpretation environment, so the blame
            // evidence replays against the module exactly as the blamed
            // pass saw it. The cached verdict carries no fixpoint, so tier
            // 2 re-derives it — alarms only, the validated common case
            // never pays.
            let triage = validator.refine_alarm(
                &versions[vin],
                &versions[vin].functions[job.in_idx],
                &versions[vout].functions[job.out_idx],
                &verdict,
            );
            TriagedVerdict { verdict, triage }
        });
        // 5. Hand each step its outcomes, in input order within the step
        //    (the determinism contract); the end-to-end report comes last.
        let mut outcomes = outcomes.into_iter();
        let mut reports: Vec<Report> = pairings
            .into_iter()
            .enumerate()
            .map(|(k, p)| {
                let mut records = p.records;
                let validate_time =
                    ValidationEngine::merge_verdicts(&mut records, &p.jobs, &mut outcomes, None);
                let opt_time = if k == n { opt_times.iter().sum() } else { opt_times[k] };
                Report { records, opt_time, validate_time }
            })
            .collect();
        let end_to_end = reports.pop().expect("the end-to-end report");
        let steps: Vec<ChainStep> = reports
            .into_iter()
            .enumerate()
            .map(|(k, report)| ChainStep { pass: pm.step_name(k).to_owned(), report })
            .collect();
        // 6. Blame: the first failing step per function, in step order.
        //    Deduplication keys on (name, occurrence) so duplicate-named
        //    copies each keep their own blame.
        let mut blames: Vec<Blame> = Vec::new();
        let mut blamed: HashSet<(String, usize)> = HashSet::new();
        for (k, step) in steps.iter().enumerate() {
            let mut occ: HashMap<&str, usize> = HashMap::new();
            for rec in &step.report.records {
                let slot = occurrence(&mut occ, &rec.name);
                if rec.transformed && !rec.validated && blamed.insert((rec.name.clone(), slot)) {
                    blames.push(Blame {
                        function: rec.name.clone(),
                        step: k,
                        pass: step.pass.clone(),
                        reason: rec.reason.clone(),
                        triage: rec.triage.clone(),
                    });
                }
            }
        }
        ChainReport { steps, end_to_end, blames, cache: cache.stats() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse::parse_module;
    use lir_opt::paper_pipeline;
    use llvm_md_core::triage::{Cascade, TriageOptions};
    use llvm_md_workload::{BrokenPass, BugKind};

    fn module(src: &str) -> Module {
        parse_module(src).expect("parse")
    }

    /// `v` with the triage-only cascade at default options.
    fn triaging(v: Validator) -> Validator {
        Validator { cascade: Cascade::Triage(TriageOptions::default()), ..v }
    }

    fn corpus_module() -> Module {
        module(
            "define i64 @fold(i64 %a) {\n\
             entry:\n  %x = add i64 3, 3\n  %y = mul i64 %a, %x\n  ret i64 %y\n\
             }\n\
             define i64 @dead(i64 %a) {\n\
             entry:\n  %d = add i64 %a, 9\n  %u = mul i64 %d, %d\n  ret i64 %a\n\
             }\n\
             define i64 @id(i64 %a) {\nentry:\n  ret i64 %a\n}\n",
        )
    }

    /// An honest pipeline chain-certifies the corpus module, agrees with
    /// the end-to-end verdict, and reuses cached graphs.
    #[test]
    fn honest_chain_certifies_and_caches() {
        let m = corpus_module();
        let pm = paper_pipeline();
        let v = Validator::new();
        let chain = ChainValidator::new(ValidationEngine::serial()).validate_chain(&m, &pm, &v);
        assert_eq!(chain.steps.len(), pm.len());
        assert_eq!(chain.steps[0].pass, "adce");
        assert!(chain.certifies(), "honest pipeline must chain-certify: {:?}", chain.blames);
        assert!(chain.blames.is_empty());
        assert!(chain.composition_consistent());
        let comp = chain.composition();
        assert!(comp.transformed > 0, "the pipeline changes this module");
        assert_eq!(comp.chain_certified, comp.transformed);
        // Untouched functions were skipped, and the end-to-end cross-check
        // reused both endpoint graphs from the chain's cache.
        assert!(chain.cache.skips > 0, "{:?}", chain.cache);
        assert!(chain.cache.hits > 0, "{:?}", chain.cache);
        // The end-to-end cross-check agrees with the plain driver's verdict.
        let (_, plain) = ValidationEngine::serial().llvm_md(&m, &pm, &v);
        assert_eq!(chain.end_to_end.records.len(), plain.records.len());
        for (a, b) in chain.end_to_end.records.iter().zip(&plain.records) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.transformed, b.transformed, "@{}", a.name);
            assert_eq!(a.validated, b.validated, "@{}", a.name);
        }
    }

    /// A broken pass mid-pipeline gets blamed — not its honest neighbors —
    /// and the blame carries a real-miscompile witness.
    #[test]
    fn broken_pass_mid_pipeline_is_blamed() {
        let m = module(
            "define i64 @max(i64 %a, i64 %b) {\n\
             entry:\n  %c = icmp sgt i64 %a, %b\n  br i1 %c, label %l, label %r\n\
             l:\n  ret i64 %a\n\
             r:\n  ret i64 %b\n\
             }\n",
        );
        let mut pm = PassManager::new();
        pm.add(lir_opt::pass_by_name("adce").expect("known"));
        pm.add(Box::new(BrokenPass(BugKind::FlipComparison)));
        pm.add(lir_opt::pass_by_name("dse").expect("known"));
        let v = triaging(Validator::new());
        let chain = ChainValidator::new(ValidationEngine::serial()).validate_chain(&m, &pm, &v);
        assert!(!chain.certifies());
        let blame = chain.blame_for("max").expect("the miscompiled function is blamed");
        assert_eq!(blame.step, 1);
        assert_eq!(blame.pass, "flip-comparison");
        assert!(blame.is_miscompile(), "triage must witness the divergence: {blame}");
        assert!(blame.triage.as_ref().unwrap().witness.is_some());
        assert!(chain.composition_consistent());
        // The display form names the pass.
        assert!(format!("{blame}").contains("flip-comparison"));
    }

    /// Chain reports are worker-count deterministic (the chain analogue of
    /// the engine's determinism contract).
    #[test]
    fn chain_reports_agree_across_worker_counts() {
        let m = corpus_module();
        let pm = paper_pipeline();
        // A strict validator produces step alarms, exercising blame and
        // triage determinism too.
        let strict =
            triaging(Validator { rules: llvm_md_core::RuleSet::none(), ..Validator::new() });
        let serial =
            ChainValidator::new(ValidationEngine::serial()).validate_chain(&m, &pm, &strict);
        assert!(!serial.blames.is_empty(), "strict validator must blame something");
        for workers in [2, 4] {
            let par = ChainValidator::new(ValidationEngine::with_workers(workers))
                .validate_chain(&m, &pm, &strict);
            assert_eq!(serial, par, "workers={workers}: chain outcomes differ");
        }
    }

    /// A pass that renames a function mid-chain blames that step with
    /// missing/extra pairing alarms.
    #[test]
    fn renaming_step_is_blamed() {
        struct RenameAll;
        impl lir_opt::Pass for RenameAll {
            fn name(&self) -> &'static str {
                "rename-all"
            }
            fn run(&self, f: &mut lir::func::Function, _ctx: &lir_opt::Ctx<'_>) -> bool {
                f.name.push_str(".renamed");
                true
            }
        }
        let m = module("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  ret i64 %x\n}\n");
        let mut pm = PassManager::new();
        pm.add(lir_opt::pass_by_name("adce").expect("known"));
        pm.add(Box::new(RenameAll));
        let chain = ChainValidator::new(ValidationEngine::serial()).validate_chain(
            &m,
            &pm,
            &Validator::new(),
        );
        let blame = chain.blame_for("f").expect("dropped name blamed");
        assert_eq!(blame.step, 1);
        assert_eq!(blame.pass, "rename-all");
        assert_eq!(blame.reason, Some(FailReason::MissingFunction));
        assert!(!chain.certifies());
    }

    /// Duplicate-named functions (pathological input `pair_functions`
    /// handles by positional copy-pairing) each keep their own blame and
    /// their own aggregation slot — the name-keyed rollup must not merge
    /// them.
    #[test]
    fn duplicate_named_functions_blame_separately() {
        let mut m = module(
            "define i64 @f(i64 %a, i64 %b) {\n\
             entry:\n  %c = icmp sgt i64 %a, %b\n  br i1 %c, label %l, label %r\n\
             l:\n  ret i64 %a\n\
             r:\n  ret i64 %b\n\
             }\n",
        );
        let dup = m.functions[0].clone();
        m.functions.push(dup);
        let mut pm = PassManager::new();
        pm.add(Box::new(BrokenPass(BugKind::FlipComparison)));
        let chain = ChainValidator::new(ValidationEngine::serial()).validate_chain(
            &m,
            &pm,
            &triaging(Validator::new()),
        );
        // The broken pass flips both copies; each alarms and each is blamed.
        assert_eq!(chain.blames.len(), 2, "both copies must be blamed: {:?}", chain.blames);
        assert!(chain.blames.iter().all(|b| b.function == "f" && b.pass == "flip-comparison"));
        assert_eq!(chain.chain_transformed(), 2, "aggregation must keep the copies separate");
        assert_eq!(chain.chain_validated(), 0);
        assert_eq!(chain.composition().transformed, 2);
    }

    /// An empty pipeline yields an empty chain whose end-to-end pair is the
    /// identity: everything skips, nothing alarms.
    #[test]
    fn empty_pipeline_chain_is_trivial() {
        let m = corpus_module();
        let chain = ChainValidator::new(ValidationEngine::serial()).validate_chain(
            &m,
            &PassManager::new(),
            &Validator::new(),
        );
        assert!(chain.steps.is_empty());
        assert!(chain.certifies());
        assert_eq!(chain.chain_transformed(), 0);
        assert_eq!(chain.chain_validation_rate(), 1.0);
        assert_eq!(chain.end_to_end.transformed(), 0);
    }
}
