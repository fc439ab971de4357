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
    default_workers, parse_repro, replay_repro, repro_to_string, CampaignConfig, CampaignReport,
    Finding, FuzzCampaign, ValidationEngine,
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

fn replay_mode(file: &str, triage: &TriageOptions) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read repro `{file}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let repro = match parse_repro(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot parse repro `{file}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replaying {file}: profile {} module {} function @{} ({}), pipeline [{}]",
        repro.profile,
        repro.index,
        repro.function,
        repro.kind,
        repro.passes.join(", ")
    );
    match replay_repro(&repro, &Validator::new(), triage) {
        Ok(outcome) if outcome.reproduced => {
            println!("reproduced: the recorded {} still shows", repro.kind);
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("NOT reproduced: the recorded {} no longer shows", repro.kind);
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn persist_findings(report: &CampaignReport, dir: &Path) -> Vec<(String, PathBuf)> {
    if report.findings.is_empty() {
        return Vec::new();
    }
    std::fs::create_dir_all(dir).expect("create repro dir");
    report
        .findings
        .iter()
        .map(|f| {
            let path = dir.join(f.file_name());
            std::fs::write(&path, repro_to_string(f, report.seed, &report.passes))
                .expect("write repro");
            (f.file_name(), path)
        })
        .collect()
}

fn finding_json(f: &Finding, file: &str) -> Json {
    Json::obj([
        ("profile", Json::str(f.profile.clone())),
        ("index", Json::num(f.index as f64)),
        ("function", Json::str(f.function.clone())),
        ("kind", Json::str(f.kind.to_string())),
        ("witness", Json::Arr(f.witness.iter().map(|&a| Json::str(a.to_string())).collect())),
        ("insts_before", Json::num(f.reduce_stats.insts_before as f64)),
        ("insts_after", Json::num(f.reduce_stats.insts_after as f64)),
        ("reduce_oracle_calls", Json::num(f.reduce_stats.oracle_calls as f64)),
        ("reduce_accepted", Json::num(f.reduce_stats.accepted as f64)),
        ("file", Json::str(file)),
    ])
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let battery = usize_flag("--battery", 16);
    let triage = TriageOptions { battery, ..TriageOptions::default() };
    if let Some(file) = str_flag("--replay") {
        return replay_mode(&file, &triage);
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
    let persisted = persist_findings(&report, &dir);
    for (finding, (name, path)) in report.findings.iter().zip(&persisted) {
        println!(
            "  finding: {} @{} ({}), witness {:?}, {} -> {} insts, persisted {}",
            finding.profile,
            finding.function,
            finding.kind,
            finding.witness,
            finding.reduce_stats.insts_before,
            finding.reduce_stats.insts_after,
            path.display()
        );
        let _ = name;
    }

    let totals = |f: fn(&llvm_md_driver::ProfileStats) -> usize| -> usize {
        report.profiles.iter().map(f).sum()
    };
    let transformed = totals(|p| p.transformed);
    let validated = totals(|p| p.validated);
    let artifact = Json::obj([
        ("exhibit", Json::str("fuzz_campaign")),
        ("seed", Json::str(format!("{:#018x}", report.seed))),
        ("modules_per_profile", Json::num(config.modules_per_profile as f64)),
        ("chain_every", Json::num(config.chain_every as f64)),
        ("battery", Json::num(config.triage.battery as f64)),
        ("workers", Json::num(workers as f64)),
        ("passes", Json::Arr(report.passes.iter().map(Json::str).collect())),
        ("injected", Json::str(inject.clone().unwrap_or_default())),
        ("modules_generated", Json::num(report.modules_generated() as f64)),
        ("functions", Json::num(totals(|p| p.functions) as f64)),
        ("transformed", Json::num(transformed as f64)),
        ("validated", Json::num(validated as f64)),
        (
            "validation_rate",
            Json::num(if transformed == 0 { 1.0 } else { validated as f64 / transformed as f64 }),
        ),
        ("suspected_incomplete", Json::num(totals(|p| p.suspected_incomplete) as f64)),
        ("real_miscompiles", Json::num(totals(|p| p.real_miscompiles) as f64)),
        ("pairing_alarms", Json::num(totals(|p| p.pairing_alarms) as f64)),
        ("chain_runs", Json::num(totals(|p| p.chain_runs) as f64)),
        ("chain_certified", Json::num(totals(|p| p.chain_certified) as f64)),
        ("chain_inconsistent", Json::num(totals(|p| p.chain_inconsistent) as f64)),
        ("soundness_failures", Json::num(report.soundness_failures() as f64)),
        ("findings_truncated", Json::num(report.findings_truncated as f64)),
        (
            "profiles",
            Json::Arr(
                report
                    .profiles
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("profile", Json::str(p.profile.clone())),
                            ("modules", Json::num(p.modules as f64)),
                            ("functions", Json::num(p.functions as f64)),
                            ("transformed", Json::num(p.transformed as f64)),
                            ("validated", Json::num(p.validated as f64)),
                            ("validation_rate", Json::num(p.validation_rate())),
                            ("suspected_incomplete", Json::num(p.suspected_incomplete as f64)),
                            ("real_miscompiles", Json::num(p.real_miscompiles as f64)),
                            ("pairing_alarms", Json::num(p.pairing_alarms as f64)),
                            ("chain_runs", Json::num(p.chain_runs as f64)),
                            ("chain_certified", Json::num(p.chain_certified as f64)),
                            ("chain_inconsistent", Json::num(p.chain_inconsistent as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "findings",
            Json::Arr(
                report
                    .findings
                    .iter()
                    .zip(&persisted)
                    .map(|(f, (name, _))| finding_json(f, name))
                    .collect(),
            ),
        ),
        ("wall_s", Json::num(report.wall.as_secs_f64())),
    ]);
    let path = write_artifact("fuzz", &artifact).expect("write BENCH_fuzz.json");
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
            if finding.reduce_stats.insts_after > finding.reduce_stats.insts_before {
                eprintln!("reducer grew the repro: {:?}", finding.reduce_stats);
                return ExitCode::FAILURE;
            }
            let (_, path) = &persisted[0];
            let text = std::fs::read_to_string(path).expect("read back persisted repro");
            let repro = parse_repro(&text).expect("persisted repro parses");
            match replay_repro(&repro, &Validator::new(), &config.triage) {
                Ok(o) if o.reproduced => {
                    println!(
                        "injected bug `{bug}` found, minimized \
                         ({} -> {} insts) and replayed from {}",
                        finding.reduce_stats.insts_before,
                        finding.reduce_stats.insts_after,
                        path.display()
                    );
                    ExitCode::SUCCESS
                }
                _ => {
                    eprintln!("persisted repro failed to replay");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
