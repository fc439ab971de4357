//! Differential fuzzing campaigns: stream generated modules through the
//! optimize→validate→triage pipeline and hard-fail on soundness findings.
//!
//! A campaign draws seed-reproducible modules from the named fuzz profiles
//! (`llvm_md_workload::fuzz`), batches each profile's stream through
//! [`ValidationEngine::validate_corpus`] under a triage-only [`Cascade`]
//! (the campaign's [`CampaignConfig::triage`] options) on the worker pool, and
//! cross-checks every verdict against the differential-interpretation
//! oracle:
//!
//! * **validated** — fine; counted into the per-profile validation rate;
//! * **suspected incompleteness** — expected on an honest optimizer (the
//!   paper's false alarms); counted, never fatal;
//! * **real miscompile** — on an *unmodified* pass pipeline this means the
//!   optimizer or the validator is unsound. The campaign records it as a
//!   [`Finding`], shrinks the module with the outcome-preserving reducer
//!   (`llvm_md_workload::reduce`, oracle = "the pair still classifies as a
//!   real miscompile"), and the harness persists it as a replayable repro.
//!
//! Every `chain_every`-th module additionally runs through the
//! [`ChainValidator`]: a chain-certified function that triages as an
//! end-to-end real miscompile ([`ChainReport::composition_consistent`]
//! violated) is a second finding class, minimized the same way.
//!
//! Campaigns are deterministic modulo wall-clock: the same
//! [`CampaignConfig`] produces equal [`CampaignReport`]s (equality skips
//! the wall-clock) at any worker count — findings, minimized repros and
//! per-profile rates included — which is what lets CI pin a fixed-seed
//! smoke.
//!
//! # Repro files
//!
//! A persisted repro is the minimized module's assembly prefixed by
//! `; fuzz-*` header comments (profile, index, function, kind, class,
//! witness, pipeline, campaign seed). Comments are transparent to
//! [`lir::parse::parse_module`], so the whole file parses as a module;
//! [`parse_repro`] recovers the metadata and [`replay_repro`] re-runs the
//! recorded pipeline and checks the recorded outcome class reproduces.
//! Free-text header values (profile, function) are quoted/escaped with the
//! wire format's shared helper (`llvm_md_core::wire::quote`/`unquote`);
//! bare un-quoted values are still accepted on parse for older repros.

use crate::chain::{ChainReport, ChainValidator};
use crate::{Report, UnknownPass, ValidationEngine};
use lir::func::Module;
use lir::parse::parse_module;
use lir_opt::{pass_by_name, PassManager};
use llvm_md_core::triage::VerdictClass;
use llvm_md_core::{wire, Cascade, TriageClass, TriageOptions, Validator};
use llvm_md_workload::fuzz::{campaign_modules, fuzz_profiles};
use llvm_md_workload::reduce::{reduce_module, ReduceOptions, ReduceStats};
use llvm_md_workload::{BrokenPass, BugKind, DEFAULT_CAMPAIGN_SEED, PAPER_PASSES};
use std::time::{Duration, Instant};

/// Configuration of one fuzzing campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Campaign seed: together with a profile name and a module index it
    /// addresses every module the campaign generates.
    pub seed: u64,
    /// Modules generated per fuzz profile.
    pub modules_per_profile: usize,
    /// The pipeline under test, as pass names. Known optimizer passes
    /// (`lir_opt::known_passes`) and injected bug names
    /// (`llvm_md_workload::BugKind::name`) both resolve — see
    /// [`campaign_pass_manager`].
    pub passes: Vec<String>,
    /// Additionally chain-validate every `chain_every`-th module of each
    /// profile (`0` disables the chain cross-check).
    pub chain_every: usize,
    /// Triage battery configuration (shared by validation triage, the
    /// chain cross-check and the reducer oracle).
    pub triage: TriageOptions,
    /// Reducer bounds for minimizing findings.
    pub reduce: ReduceOptions,
    /// Keep (and minimize) at most this many findings; the rest are still
    /// *counted* ([`CampaignReport::findings_truncated`]) but not stored —
    /// an injected-bug campaign would otherwise minimize hundreds of
    /// copies of the same bug.
    pub max_findings: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: DEFAULT_CAMPAIGN_SEED,
            modules_per_profile: 96,
            passes: PAPER_PASSES.iter().map(|&p| p.to_owned()).collect(),
            chain_every: 16,
            triage: TriageOptions::default(),
            reduce: ReduceOptions { budget: 500 },
            max_findings: 8,
        }
    }
}

/// Resolve a campaign pipeline: every name is either a known optimizer
/// pass or an injected-bug name (so persisted repros of broken-pass
/// campaigns replay byte-for-byte).
pub fn campaign_pass_manager(passes: &[String]) -> Result<PassManager, UnknownPass> {
    let mut pm = PassManager::new();
    for name in passes {
        if let Some(p) = pass_by_name(name) {
            pm.add(p);
        } else if let Some(kind) = BugKind::all().into_iter().find(|k| k.name() == name) {
            pm.add(Box::new(BrokenPass(kind)));
        } else {
            return Err(UnknownPass(name.clone()));
        }
    }
    Ok(pm)
}

/// What kind of soundness finding a repro captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// A function pair that validation rejected and differential
    /// interpretation proved divergent.
    Miscompile,
    /// A chain-certified function that nonetheless triages as an
    /// end-to-end real miscompile (the chain/composition soundness
    /// cross-check failed).
    ChainInconsistency,
}

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FindingKind::Miscompile => f.write_str("miscompile"),
            FindingKind::ChainInconsistency => f.write_str("chain-inconsistency"),
        }
    }
}

impl std::str::FromStr for FindingKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "miscompile" => Ok(FindingKind::Miscompile),
            "chain-inconsistency" => Ok(FindingKind::ChainInconsistency),
            other => Err(format!("unknown finding kind `{other}`")),
        }
    }
}

/// One soundness finding: the offending module, its minimized form, and
/// the evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Fuzz profile the module came from.
    pub profile: String,
    /// Module index within the profile's stream (regenerable from
    /// `(profile, campaign seed, index)`).
    pub index: usize,
    /// The diverging function (for [`FindingKind::ChainInconsistency`],
    /// the chain-certified function that still miscompiled end-to-end).
    pub function: String,
    /// Finding class.
    pub kind: FindingKind,
    /// Witness arguments from the triage layer, when one was recorded.
    pub witness: Vec<u64>,
    /// The original generated module.
    pub module: Module,
    /// The reducer's minimized module (still exhibits the finding).
    pub minimized: Module,
    /// What the reduction run did.
    pub reduce_stats: ReduceStats,
}

impl Finding {
    /// A stable file name for persisting this finding's repro.
    pub fn file_name(&self) -> String {
        format!("repro-{}-{:05}-{}.ll", self.profile.to_lowercase(), self.index, self.function)
    }
}

/// Per-profile aggregation of a campaign run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileStats {
    /// Profile name.
    pub profile: String,
    /// Modules generated and validated.
    pub modules: usize,
    /// Functions across those modules.
    pub functions: usize,
    /// Functions the pipeline transformed.
    pub transformed: usize,
    /// Transformed functions that validated.
    pub validated: usize,
    /// Alarms triaged as suspected validator incompleteness.
    pub suspected_incomplete: usize,
    /// Alarms triaged as real miscompiles (soundness findings).
    pub real_miscompiles: usize,
    /// Missing/extra-function pairing alarms (always 0 for the in-tree
    /// passes, which never rename).
    pub pairing_alarms: usize,
    /// Modules additionally run through the chain validator.
    pub chain_runs: usize,
    /// ... of which the chain fully certified.
    pub chain_certified: usize,
    /// ... of which violated the chain/composition soundness cross-check.
    pub chain_inconsistent: usize,
}

impl ProfileStats {
    /// Fraction of transformed functions validated (`1.0` when nothing was
    /// transformed).
    pub fn validation_rate(&self) -> f64 {
        if self.transformed == 0 {
            1.0
        } else {
            self.validated as f64 / self.transformed as f64
        }
    }
}

/// The outcome of one campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// The campaign seed (copied from the config).
    pub seed: u64,
    /// The pipeline under test (copied from the config).
    pub passes: Vec<String>,
    /// Per-profile statistics, in `fuzz_profiles()` order.
    pub profiles: Vec<ProfileStats>,
    /// Stored (minimized) findings, in discovery order.
    pub findings: Vec<Finding>,
    /// Findings beyond [`CampaignConfig::max_findings`] that were counted
    /// but not stored/minimized.
    pub findings_truncated: usize,
    /// Campaign wall-clock (excluded from equality).
    pub wall: Duration,
}

impl CampaignReport {
    /// Total modules generated.
    pub fn modules_generated(&self) -> usize {
        self.profiles.iter().map(|p| p.modules).sum()
    }

    /// Total soundness findings (stored and truncated, miscompiles and
    /// chain inconsistencies).
    pub fn soundness_failures(&self) -> usize {
        self.findings.len() + self.findings_truncated
    }
}

/// Runs fuzzing campaigns on a [`ValidationEngine`] worker pool.
#[derive(Clone, Debug)]
pub struct FuzzCampaign {
    engine: ValidationEngine,
    config: CampaignConfig,
}

impl FuzzCampaign {
    /// A campaign with an explicit engine and configuration.
    pub fn new(engine: ValidationEngine, config: CampaignConfig) -> FuzzCampaign {
        FuzzCampaign { engine, config }
    }

    /// The configuration this campaign runs.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Run the campaign. Every check runs `validator` under a triage-only
    /// [`Cascade`] with [`CampaignConfig::triage`], whatever cascade the
    /// caller configured.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPass`] when the configured pipeline names a pass
    /// that neither the optimizer registry nor the bug injector knows.
    pub fn run(&self, validator: &Validator) -> Result<CampaignReport, UnknownPass> {
        let t0 = Instant::now();
        let validator = &triaging(validator, &self.config.triage);
        let pm = campaign_pass_manager(&self.config.passes)?;
        let mut report = CampaignReport {
            seed: self.config.seed,
            passes: self.config.passes.clone(),
            ..CampaignReport::default()
        };
        for profile in fuzz_profiles() {
            let modules =
                campaign_modules(&profile, self.config.seed, self.config.modules_per_profile);
            let results = self.engine.validate_corpus(&modules, &pm, validator);
            let mut stats = ProfileStats {
                profile: profile.name.to_owned(),
                modules: modules.len(),
                ..ProfileStats::default()
            };
            for (index, (module, (_, rep))) in modules.iter().zip(&results).enumerate() {
                self.fold_module(&pm, validator, &mut report, &mut stats, index, module, rep);
            }
            if self.config.chain_every > 0 {
                for index in (0..modules.len()).step_by(self.config.chain_every) {
                    let chain = ChainValidator::new(self.engine).validate_chain(
                        &modules[index],
                        &pm,
                        validator,
                    );
                    stats.chain_runs += 1;
                    if chain.certifies() {
                        stats.chain_certified += 1;
                    }
                    if !chain.composition_consistent() {
                        stats.chain_inconsistent += 1;
                        self.record_chain_finding(
                            &pm,
                            validator,
                            &mut report,
                            profile.name,
                            index,
                            &modules[index],
                            &chain,
                        );
                    }
                }
            }
            report.profiles.push(stats);
        }
        report.wall = t0.elapsed();
        Ok(report)
    }

    /// Fold one module's validation report into the stats, recording (and
    /// minimizing) any real-miscompile finding.
    #[allow(clippy::too_many_arguments)]
    fn fold_module(
        &self,
        pm: &PassManager,
        validator: &Validator,
        report: &mut CampaignReport,
        stats: &mut ProfileStats,
        index: usize,
        module: &Module,
        rep: &Report,
    ) {
        stats.functions += module.functions.len();
        for rec in &rep.records {
            if rec.transformed {
                stats.transformed += 1;
            }
            if rec.transformed && rec.validated {
                stats.validated += 1;
            }
            if matches!(
                rec.reason,
                Some(llvm_md_core::FailReason::MissingFunction)
                    | Some(llvm_md_core::FailReason::ExtraFunction)
            ) {
                stats.pairing_alarms += 1;
                continue;
            }
            let Some(triage) = &rec.triage else { continue };
            match triage.class {
                TriageClass::SuspectedIncomplete => stats.suspected_incomplete += 1,
                TriageClass::RealMiscompile => {
                    stats.real_miscompiles += 1;
                    let witness =
                        triage.witness.as_ref().map(|w| w.args.clone()).unwrap_or_default();
                    if report.findings.len() >= self.config.max_findings {
                        report.findings_truncated += 1;
                        continue;
                    }
                    let fname = rec.name.clone();
                    let oracle = |cand: &Module| {
                        miscompile_reproduces(cand, &fname, pm, validator, &self.config.triage)
                    };
                    let (minimized, reduce_stats) =
                        reduce_module(module, oracle, &self.config.reduce);
                    report.findings.push(Finding {
                        profile: stats.profile.clone(),
                        index,
                        function: rec.name.clone(),
                        kind: FindingKind::Miscompile,
                        witness,
                        module: module.clone(),
                        minimized,
                        reduce_stats,
                    });
                }
            }
        }
    }

    /// Record (and minimize) a chain/composition soundness violation.
    #[allow(clippy::too_many_arguments)]
    fn record_chain_finding(
        &self,
        pm: &PassManager,
        validator: &Validator,
        report: &mut CampaignReport,
        profile: &str,
        index: usize,
        module: &Module,
        chain: &ChainReport,
    ) {
        // The function that is chain-certified yet miscompiles end-to-end.
        let record = chain.end_to_end.records.iter().find(|r| {
            r.class() == VerdictClass::RealMiscompile && chain.blame_for(&r.name).is_none()
        });
        let function = record.map(|r| r.name.clone()).unwrap_or_default();
        let witness = record
            .and_then(|r| r.triage.as_ref()?.witness.as_ref())
            .map(|w| w.args.clone())
            .unwrap_or_default();
        if report.findings.len() >= self.config.max_findings {
            report.findings_truncated += 1;
            return;
        }
        let oracle = |cand: &Module| {
            let ch =
                ChainValidator::new(ValidationEngine::serial()).validate_chain(cand, pm, validator);
            !ch.composition_consistent()
        };
        let (minimized, reduce_stats) = reduce_module(module, oracle, &self.config.reduce);
        report.findings.push(Finding {
            profile: profile.to_owned(),
            index,
            function,
            kind: FindingKind::ChainInconsistency,
            witness,
            module: module.clone(),
            minimized,
            reduce_stats,
        });
    }
}

/// The miscompile oracle: does `function` of `cand`, pushed through the
/// pipeline, still classify as a real miscompile? Shared by the campaign's
/// reducer calls and [`replay_repro`], so a minimized repro is interesting
/// by construction under exactly the check replay performs.
pub fn miscompile_reproduces(
    cand: &Module,
    function: &str,
    pm: &PassManager,
    validator: &Validator,
    triage: &TriageOptions,
) -> bool {
    let mut out = cand.clone();
    pm.run_module(&mut out);
    let (Some(orig), Some(opt)) = (cand.function(function), out.function(function)) else {
        return false;
    };
    triaging(validator, triage).validate_cascade(cand, orig, opt).class()
        == VerdictClass::RealMiscompile
}

/// `validator` under the triage-only cascade every campaign check runs.
fn triaging(validator: &Validator, triage: &TriageOptions) -> Validator {
    Validator { cascade: Cascade::Triage(*triage), ..*validator }
}

/// A parsed repro file: the minimized module plus the metadata needed to
/// replay it.
#[derive(Clone, Debug, PartialEq)]
pub struct Repro {
    /// Fuzz profile the original module came from.
    pub profile: String,
    /// Module index within that profile's stream.
    pub index: usize,
    /// The diverging function.
    pub function: String,
    /// Finding kind.
    pub kind: FindingKind,
    /// Witness arguments (may be empty for chain inconsistencies).
    pub witness: Vec<u64>,
    /// The pipeline under test.
    pub passes: Vec<String>,
    /// The campaign seed the module was generated under.
    pub seed: u64,
    /// The minimized module.
    pub module: Module,
}

/// Render a finding as a self-contained, replayable repro file (see the
/// [module docs](self) for the format).
///
/// Free-text header values (profile and function names) are quoted with the
/// wire format's one escaping helper ([`llvm_md_core::wire::quote`]) — the
/// repro header and the serve protocol share a single quoting
/// implementation instead of two private copies.
pub fn repro_to_string(finding: &Finding, seed: u64, passes: &[String]) -> String {
    let witness = finding.witness.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",");
    format!(
        "; fuzz-repro v1\n\
         ; fuzz-profile: {}\n\
         ; fuzz-index: {}\n\
         ; fuzz-function: {}\n\
         ; fuzz-kind: {}\n\
         ; fuzz-witness: {}\n\
         ; fuzz-passes: {}\n\
         ; fuzz-seed: {:#018x}\n\
         {}",
        wire::quote(&finding.profile),
        finding.index,
        wire::quote(&finding.function),
        finding.kind,
        witness,
        passes.join(","),
        seed,
        finding.minimized
    )
}

/// Parse a repro file produced by [`repro_to_string`].
///
/// # Errors
///
/// Returns a description of the first missing/malformed header field, or
/// the parse error of the embedded module.
pub fn parse_repro(text: &str) -> Result<Repro, String> {
    let field = |key: &str| -> Result<String, String> {
        let raw = text
            .lines()
            .find_map(|l| l.trim().strip_prefix(&format!("; fuzz-{key}: ")))
            .map(str::trim)
            .ok_or_else(|| format!("repro is missing the `; fuzz-{key}:` header"))?;
        // Free-text values are wire-quoted since the serve protocol landed;
        // bare values (pre-wire repros, hand-written files) stay accepted.
        if raw.starts_with('"') {
            wire::unquote(raw).map_err(|e| format!("bad `; fuzz-{key}:` value {raw}: {e}"))
        } else {
            Ok(raw.to_owned())
        }
    };
    if !text.lines().any(|l| l.trim() == "; fuzz-repro v1") {
        return Err("not a fuzz repro (no `; fuzz-repro v1` header)".to_owned());
    }
    let witness_text = field("witness")?;
    let witness = if witness_text.is_empty() {
        Vec::new()
    } else {
        witness_text
            .split(',')
            .map(|a| a.trim().parse::<u64>().map_err(|e| format!("bad witness arg `{a}`: {e}")))
            .collect::<Result<Vec<u64>, String>>()?
    };
    let seed_text = field("seed")?;
    let seed = seed_text
        .strip_prefix("0x")
        .map_or_else(|| seed_text.parse::<u64>(), |h| u64::from_str_radix(h, 16))
        .map_err(|e| format!("bad seed `{seed_text}`: {e}"))?;
    let module = parse_module(text).map_err(|e| format!("embedded module: {e}"))?;
    Ok(Repro {
        profile: field("profile")?,
        index: field("index")?.parse().map_err(|e| format!("bad index: {e}"))?,
        function: field("function")?,
        kind: field("kind")?.parse()?,
        witness,
        passes: field("passes")?.split(',').map(|p| p.trim().to_owned()).collect(),
        seed,
        module,
    })
}

/// The outcome of replaying a repro.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Did the recorded finding reproduce?
    pub reproduced: bool,
}

/// Replay a repro: rebuild its recorded pipeline and re-run the check its
/// kind encodes (miscompile classification for [`FindingKind::Miscompile`],
/// the chain/composition cross-check for
/// [`FindingKind::ChainInconsistency`]).
///
/// # Errors
///
/// Returns [`UnknownPass`] when the recorded pipeline no longer resolves.
pub fn replay_repro(
    repro: &Repro,
    validator: &Validator,
    triage: &TriageOptions,
) -> Result<ReplayOutcome, UnknownPass> {
    let pm = campaign_pass_manager(&repro.passes)?;
    let reproduced = match repro.kind {
        FindingKind::Miscompile => {
            miscompile_reproduces(&repro.module, &repro.function, &pm, validator, triage)
        }
        FindingKind::ChainInconsistency => {
            let chain = ChainValidator::new(ValidationEngine::serial()).validate_chain(
                &repro.module,
                &pm,
                &triaging(validator, triage),
            );
            !chain.composition_consistent()
        }
    };
    Ok(ReplayOutcome { reproduced })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> CampaignConfig {
        CampaignConfig {
            modules_per_profile: 2,
            chain_every: 2,
            triage: TriageOptions { battery: 6, ..TriageOptions::default() },
            reduce: ReduceOptions { budget: 120 },
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn honest_pipeline_finds_nothing() {
        let campaign = FuzzCampaign::new(ValidationEngine::serial(), quick_config());
        let report = campaign.run(&Validator::new()).expect("known pipeline");
        assert_eq!(report.soundness_failures(), 0, "{:#?}", report.findings);
        assert_eq!(report.profiles.len(), fuzz_profiles().len());
        assert!(report.modules_generated() > 0);
        assert!(report.profiles.iter().all(|p| p.pairing_alarms == 0));
    }

    #[test]
    fn injected_bug_is_found_minimized_and_replayable() {
        let mut config = quick_config();
        config.passes = vec!["adce".to_owned(), "flip-comparison".to_owned(), "dse".to_owned()];
        config.max_findings = 2;
        let campaign = FuzzCampaign::new(ValidationEngine::serial(), config.clone());
        let report = campaign.run(&Validator::new()).expect("bug names resolve");
        assert!(report.soundness_failures() > 0, "the broken pass must be caught");
        let finding = report.findings.first().expect("at least one stored finding");
        assert_eq!(finding.kind, FindingKind::Miscompile);
        assert!(
            finding.reduce_stats.insts_after <= finding.reduce_stats.insts_before,
            "{:?}",
            finding.reduce_stats
        );
        // Round-trip through the repro format and replay.
        let text = repro_to_string(finding, report.seed, &report.passes);
        let repro = parse_repro(&text).expect("repro parses");
        assert_eq!(repro.function, finding.function);
        assert_eq!(repro.seed, report.seed);
        assert_eq!(repro.passes, report.passes);
        let outcome = replay_repro(&repro, &Validator::new(), &config.triage).expect("replays");
        assert!(outcome.reproduced, "minimized repro must reproduce the miscompile");
    }

    #[test]
    fn unknown_pipeline_name_errors() {
        let mut config = quick_config();
        config.passes = vec!["no-such-pass".to_owned()];
        let campaign = FuzzCampaign::new(ValidationEngine::serial(), config);
        assert!(campaign.run(&Validator::new()).is_err());
    }

    #[test]
    fn repro_parse_rejects_garbage() {
        assert!(parse_repro("define i64 @f() {\nentry:\n  ret i64 0\n}\n").is_err());
        assert!(parse_repro("; fuzz-repro v1\n").is_err(), "missing fields must error");
    }
}
