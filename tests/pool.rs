//! Work-stealing pool determinism lockdown.
//!
//! The `ValidationEngine` runs batches on per-worker deques with stealing
//! (`llvm_md_driver::pool`). Validation queries are pure, results are
//! aggregated by job index, and the job set is static, so every report type
//! must be equal (timings aside) at *any* worker count — steals move
//! work between threads, never change it. The [`PoolStats`] steal/batch
//! counters are the one schedule-dependent observable; like
//! `llvm_md_core::CacheStats` they are reporting data, explicitly excluded
//! from the determinism contract, and that exclusion is what the last test
//! pins down.

use llvm_md::core::{Cascade, TriageOptions, Validator};
use llvm_md::driver::{pool_stats, CampaignConfig, ChainValidator, FuzzCampaign, ValidationEngine};
use llvm_md::opt::paper_pipeline;
use llvm_md::workload::{generate, paper_schedule, profiles, ReduceOptions};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn test_module(seed: u64) -> llvm_md::lir::func::Module {
    let mut p = profiles()[(seed % 12) as usize];
    p.functions = 8;
    p.seed = seed * 7919 + 11;
    generate(&p)
}

/// `Report` equality holds at workers {1, 2, 4, 8}: the one-shot
/// pipeline report and the certified module match the serial run exactly.
#[test]
fn report_is_identical_at_all_worker_counts() {
    let m = test_module(3);
    let pm = paper_pipeline();
    let v = Validator::new();
    let (serial_out, serial_rep) = ValidationEngine::serial().llvm_md(&m, &pm, &v);
    for workers in WORKER_COUNTS {
        let (out, rep) = ValidationEngine::with_workers(workers).llvm_md(&m, &pm, &v);
        assert_eq!(rep, serial_rep, "workers={workers}: report diverged");
        assert_eq!(format!("{out}"), format!("{serial_out}"), "workers={workers}");
    }
}

/// `ChainReport` equality holds at workers {1, 2, 4, 8}, including
/// the per-pass blame and the certified-composition cross-check.
#[test]
fn chain_report_is_identical_at_all_worker_counts() {
    let m = test_module(7);
    let pm = paper_schedule().pass_manager();
    let opts = TriageOptions { battery: 6, ..TriageOptions::default() };
    let v = Validator { cascade: Cascade::Triage(opts), ..Validator::new() };
    let serial = ChainValidator::new(ValidationEngine::serial()).validate_chain(&m, &pm, &v);
    for workers in WORKER_COUNTS {
        let par = ChainValidator::new(ValidationEngine::with_workers(workers))
            .validate_chain(&m, &pm, &v);
        assert_eq!(serial, par, "workers={workers}: chain report diverged");
    }
}

/// `CampaignReport` equality holds at workers {1, 2, 4, 8}: findings,
/// minimized repros and per-profile stats all match the serial campaign.
#[test]
fn campaign_report_is_identical_at_all_worker_counts() {
    let config = CampaignConfig {
        modules_per_profile: 2,
        chain_every: 2,
        triage: TriageOptions { battery: 6, ..TriageOptions::default() },
        reduce: ReduceOptions { budget: 120 },
        max_findings: 2,
        ..CampaignConfig::default()
    };
    let v = Validator::new();
    let serial = FuzzCampaign::new(ValidationEngine::serial(), config.clone())
        .run(&v)
        .expect("known pipeline");
    for workers in WORKER_COUNTS {
        let par = FuzzCampaign::new(ValidationEngine::with_workers(workers), config.clone())
            .run(&v)
            .expect("known pipeline");
        assert_eq!(par, serial, "workers={workers}: campaign diverged");
    }
}

/// The steal/batch counters are *outside* the determinism contract: two
/// runs whose `PoolStats` deltas differ still compare equal, and
/// no report type even exposes the counters. Serial runs bypass the pool
/// entirely (no batch is counted), parallel runs advance the batch counter.
#[test]
fn pool_counters_are_excluded_from_the_outcome_contract() {
    let m = test_module(13);
    let pm = paper_pipeline();
    let v = Validator::new();

    let before_serial = pool_stats();
    let (_, serial_rep) = ValidationEngine::serial().llvm_md(&m, &pm, &v);
    let after_serial = pool_stats();
    assert_eq!(
        after_serial.batches, before_serial.batches,
        "workers=1 must run inline and never touch the pool"
    );

    let before_par = pool_stats();
    let (_, par_rep) = ValidationEngine::with_workers(4).llvm_md(&m, &pm, &v);
    let after_par = pool_stats();
    assert!(after_par.batches > before_par.batches, "parallel batches must be counted");
    assert!(after_par.steals >= before_par.steals, "steal counter must be monotone");

    // Counters moved between the two runs; the outcome contract is
    // untouched by them.
    assert_eq!(par_rep, serial_rep, "counters must not leak into report equality");
}
