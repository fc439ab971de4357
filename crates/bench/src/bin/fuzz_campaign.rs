//! Differential fuzzing campaign harness: generate seed-addressed modules
//! from every named fuzz profile, stream them through the
//! optimize→validate→triage pipeline (and periodically the chain
//! validator), and hard-fail with a minimized, replayable repro on any
//! soundness finding.
//!
//! Modes:
//!
//! * **campaign** (default): run [`llvm_md_driver::FuzzCampaign`] and write
//!   `BENCH_fuzz.json`. A real miscompile on the *unmodified* pipeline is
//!   an optimizer/validator soundness bug: the repro is persisted under
//!   `--repro-dir` and the process exits non-zero.
//! * **`--inject <bug>`**: splice a known-broken pass
//!   (`flip-comparison`, `drop-store`, `skip-phi`) into a short pipeline
//!   (`adce → <bug> → dse`). The campaign must now *find* the bug: the
//!   harness asserts at least one finding, that the reducer shrank it,
//!   persists it, and self-replays the persisted file. Exit is zero iff
//!   the bug was caught and reproduces.
//! * **`--replay <file>`**: parse a persisted repro and re-run the recorded
//!   check; exit zero iff the recorded outcome reproduces.
//!
//! Flags: `--seed N` (decimal or 0x-hex; default the committed
//! `DEFAULT_CAMPAIGN_SEED`), `--modules N` (per profile, default 96),
//! `--chain-every N` (default 16, 0 disables), `--battery N` (default 16),
//! `--reduce-budget N` (default 500), `--max-findings N` (default 8),
//! `--repro-dir DIR` (default `$BENCH_OUT_DIR/fuzz-repros` or
//! `./fuzz-repros`). Worker count honors `LLVM_MD_WORKERS`.

use llvm_md_bench::{str_flag, u64_flag, usize_flag, write_artifact};
use llvm_md_core::{Json, TriageOptions, Validator};
use llvm_md_driver::{
    default_workers, CampaignConfig, Finding, FuzzCampaign, ProfileStats, Repro, ValidationEngine,
};
use llvm_md_workload::reduce::ReduceOptions;
use llvm_md_workload::{BugKind, DEFAULT_CAMPAIGN_SEED};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn repro_dir() -> PathBuf {
    str_flag("--repro-dir").map_or_else(
        || {
            std::env::var_os("BENCH_OUT_DIR")
                .map_or_else(|| PathBuf::from("."), PathBuf::from)
                .join("fuzz-repros")
        },
        PathBuf::from,
    )
}

/// Read, parse and replay one persisted repro: `Ok` iff its recorded
/// finding still shows.
fn replay(file: &Path, triage: &TriageOptions) -> Result<Repro, String> {
    let shown = file.display();
    let text =
        std::fs::read_to_string(file).map_err(|e| format!("cannot read repro `{shown}`: {e}"))?;
    let repro: Repro = text.parse().map_err(|e| format!("cannot parse repro `{shown}`: {e}"))?;
    match repro.reproduces(&Validator::new(), triage) {
        Ok(true) => Ok(repro),
        Ok(false) => Err(format!("NOT reproduced: the recorded {} no longer shows", repro.kind)),
        Err(e) => Err(format!("replay of `{shown}` failed: {e}")),
    }
}

/// A profile's counters as artifact fields, in artifact order.
fn count_fields(p: &ProfileStats) -> Vec<(&'static str, Json)> {
    let n = |v: usize| Json::num(v as f64);
    vec![
        ("functions", n(p.functions)),
        ("transformed", n(p.transformed)),
        ("validated", n(p.validated)),
        ("validation_rate", Json::num(p.validation_rate())),
        ("suspected_incomplete", n(p.suspected_incomplete)),
        ("real_miscompiles", n(p.real_miscompiles)),
        ("pairing_alarms", n(p.pairing_alarms)),
        ("chain_runs", n(p.chain_runs)),
        ("chain_certified", n(p.chain_certified)),
        ("chain_inconsistent", n(p.chain_inconsistent)),
    ]
}

fn finding_json(f: &Finding) -> Json {
    let r = &f.repro;
    Json::obj([
        ("profile", Json::str(r.profile.clone())),
        ("index", Json::num(r.index as f64)),
        ("function", Json::str(r.function.clone())),
        ("kind", Json::str(r.kind.to_string())),
        ("witness", Json::Arr(r.witness.iter().map(|&a| Json::str(a.to_string())).collect())),
        ("insts_before", Json::num(f.reduce_stats.insts_before as f64)),
        ("insts_after", Json::num(f.reduce_stats.insts_after as f64)),
        ("reduce_oracle_calls", Json::num(f.reduce_stats.oracle_calls as f64)),
        ("reduce_accepted", Json::num(f.reduce_stats.accepted as f64)),
        ("file", Json::str(r.file_name())),
    ])
}

fn main() -> ExitCode {
    let battery = usize_flag("--battery", 16);
    let triage = TriageOptions { battery, ..TriageOptions::default() };
    if let Some(file) = str_flag("--replay") {
        return match replay(Path::new(&file), &triage) {
            Ok(r) => {
                println!(
                    "reproduced {file}: profile {} module {} function @{} ({}), pipeline [{}]",
                    r.profile,
                    r.index,
                    r.function,
                    r.kind,
                    r.passes.join(", ")
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let inject = str_flag("--inject");
    let passes: Vec<String> = match &inject {
        None => llvm_md_workload::PAPER_PASSES.iter().map(|&p| p.to_owned()).collect(),
        Some(bug) => {
            if !BugKind::all().iter().any(|k| k.name() == bug) {
                eprintln!(
                    "unknown bug `{bug}`; known: {}",
                    BugKind::all().map(|k| k.name()).join(", ")
                );
                return ExitCode::FAILURE;
            }
            vec!["adce".to_owned(), bug.clone(), "dse".to_owned()]
        }
    };
    let config = CampaignConfig {
        seed: u64_flag("--seed", DEFAULT_CAMPAIGN_SEED),
        modules_per_profile: usize_flag("--modules", 96),
        passes,
        chain_every: match str_flag("--chain-every") {
            Some(v) => v.parse().unwrap_or(16),
            None => 16,
        },
        triage,
        reduce: ReduceOptions { budget: usize_flag("--reduce-budget", 500) },
        max_findings: usize_flag("--max-findings", 8),
    };
    let workers = default_workers();
    let engine = ValidationEngine::with_workers(workers);
    println!(
        "fuzz campaign: seed {:#018x}, {} modules/profile, pipeline [{}], \
         chain every {}, battery {}, {workers} worker(s)",
        config.seed,
        config.modules_per_profile,
        config.passes.join(", "),
        config.chain_every,
        config.triage.battery
    );

    let campaign = FuzzCampaign::new(engine, config.clone());
    let report = match campaign.run(&Validator::new()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:14} | {:>7} {:>6} {:>6} {:>6} {:>7} {:>6} {:>6} | {:>5} {:>5}",
        "profile", "modules", "fns", "xform", "ok", "rate", "incompl", "miscmp", "chain", "incons"
    );
    println!("{}", "-".repeat(92));
    for p in &report.profiles {
        println!(
            "{:14} | {:>7} {:>6} {:>6} {:>6} {:>6.1}% {:>6} {:>6} | {:>5} {:>5}",
            p.profile,
            p.modules,
            p.functions,
            p.transformed,
            p.validated,
            100.0 * p.validation_rate(),
            p.suspected_incomplete,
            p.real_miscompiles,
            p.chain_runs,
            p.chain_inconsistent
        );
    }
    println!("{}", "-".repeat(92));
    println!(
        "{} modules, {} findings ({} stored, {} truncated), wall {:.2}s",
        report.modules_generated(),
        report.soundness_failures(),
        report.findings.len(),
        report.findings_truncated,
        report.wall.as_secs_f64()
    );

    let dir = repro_dir();
    if !report.findings.is_empty() {
        std::fs::create_dir_all(&dir).expect("create repro dir");
    }
    for f in &report.findings {
        let path = dir.join(f.repro.file_name());
        std::fs::write(&path, f.repro.to_string()).expect("write repro");
        println!(
            "  finding: {} @{} ({}), witness {:?}, {} -> {} insts, persisted {}",
            f.repro.profile,
            f.repro.function,
            f.repro.kind,
            f.repro.witness,
            f.reduce_stats.insts_before,
            f.reduce_stats.insts_after,
            path.display()
        );
    }

    let total = report.profiles.iter().fold(ProfileStats::default(), |t, p| ProfileStats {
        profile: String::new(),
        modules: t.modules + p.modules,
        functions: t.functions + p.functions,
        transformed: t.transformed + p.transformed,
        validated: t.validated + p.validated,
        suspected_incomplete: t.suspected_incomplete + p.suspected_incomplete,
        real_miscompiles: t.real_miscompiles + p.real_miscompiles,
        pairing_alarms: t.pairing_alarms + p.pairing_alarms,
        chain_runs: t.chain_runs + p.chain_runs,
        chain_certified: t.chain_certified + p.chain_certified,
        chain_inconsistent: t.chain_inconsistent + p.chain_inconsistent,
    });
    let mut fields = vec![
        ("exhibit", Json::str("fuzz_campaign")),
        ("seed", Json::str(format!("{:#018x}", report.seed))),
        ("modules_per_profile", Json::num(config.modules_per_profile as f64)),
        ("chain_every", Json::num(config.chain_every as f64)),
        ("battery", Json::num(config.triage.battery as f64)),
        ("workers", Json::num(workers as f64)),
        ("passes", Json::Arr(report.passes.iter().map(Json::str).collect())),
        ("injected", Json::str(inject.clone().unwrap_or_default())),
        ("modules_generated", Json::num(total.modules as f64)),
    ];
    fields.extend(count_fields(&total));
    let profiles = report.profiles.iter().map(|p| {
        let head =
            [("profile", Json::str(p.profile.clone())), ("modules", Json::num(p.modules as f64))];
        Json::obj(head.into_iter().chain(count_fields(p)))
    });
    fields.extend([
        ("soundness_failures", Json::num(report.soundness_failures() as f64)),
        ("findings_truncated", Json::num(report.findings_truncated as f64)),
        ("profiles", Json::Arr(profiles.collect())),
        ("findings", Json::Arr(report.findings.iter().map(finding_json).collect())),
        ("wall_s", Json::num(report.wall.as_secs_f64())),
    ]);
    let path = write_artifact("fuzz", &Json::obj(fields)).expect("write BENCH_fuzz.json");
    println!("wrote {}", path.display());

    match inject {
        None => {
            if report.soundness_failures() > 0 {
                eprintln!(
                    "SOUNDNESS FAILURE: {} real divergence(s) on the unmodified pipeline; \
                     minimized repros persisted under {}",
                    report.soundness_failures(),
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
            println!("no soundness failures on the unmodified pipeline");
            ExitCode::SUCCESS
        }
        Some(bug) => {
            // The campaign must catch the injected bug, shrink it, and the
            // persisted repro must replay.
            if report.soundness_failures() == 0 {
                eprintln!("injected bug `{bug}` was NOT found — detection gap");
                return ExitCode::FAILURE;
            }
            let finding = &report.findings[0];
            let stats = finding.reduce_stats;
            if stats.insts_after > stats.insts_before {
                eprintln!("reducer grew the repro: {stats:?}");
                return ExitCode::FAILURE;
            }
            let path = dir.join(finding.repro.file_name());
            match replay(&path, &config.triage) {
                Ok(_) => {
                    println!(
                        "injected bug `{bug}` found, minimized \
                         ({} -> {} insts) and replayed from {}",
                        stats.insts_before,
                        stats.insts_after,
                        path.display()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("persisted repro failed to replay: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
