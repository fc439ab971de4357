//! Table 3 (this repo's chain-validation exhibit): end-to-end vs per-pass
//! chained validation over the pinned suite, plus pass-level blame over the
//! injected-bug corpus.
//!
//! **Sweep 1 — the pinned synthetic suite.** Every module is validated two
//! ways: the one-shot end-to-end driver (`ValidationEngine::llvm_md`) and
//! the `ChainValidator` (per-pass, fingerprint-skipping, graph-cached).
//! The harness records both validation rates over the same
//! pipeline-transformed functions (the chained rate must be ≥ the
//! end-to-end rate — adjacent modules are closer, so per-step proofs
//! succeed where the composed proof exhausts the rules), both wall-clocks,
//! and the chain's cache hit/skip counters. Every chain run is repeated at
//! 1 and 4 workers and checked for `ChainReport` equality — the chain's
//! determinism contract.
//!
//! **Sweep 2 — the injected-bug corpus.** Each ground-truth bug becomes a
//! broken pass spliced mid-pipeline (`adce → <bug> → dse`); the chain must
//! blame exactly the broken pass, with a real-miscompile triage and a
//! replayable witness. Any misblame aborts the run — this is the
//! pass-level-blame guarantee the subsystem exists for.
//!
//! Writes `BENCH_chain.json`. Flags: `--scale N` (default 4), `--battery N`
//! (default 16). Worker count honors `LLVM_MD_WORKERS` (via
//! `default_workers`).

use lir_opt::PassManager;
use llvm_md_bench::{scale_from_args, suite, usize_flag, write_artifact};
use llvm_md_core::{Cascade, Json, TriageOptions, Validator};
use llvm_md_driver::{default_workers, ChainValidator, Composition, ValidationEngine};
use llvm_md_workload::{injected_corpus, paper_schedule, BrokenPass};
use std::time::Instant;

fn main() {
    let scale = scale_from_args();
    let opts = TriageOptions { battery: usize_flag("--battery", 16), ..TriageOptions::default() };
    let validator = Validator::new();
    let triaging = Validator { cascade: Cascade::Triage(opts), ..validator };
    let schedule = paper_schedule();
    let pm = schedule.pass_manager();
    let workers = default_workers();
    let engine = ValidationEngine::with_workers(workers);
    let modules = suite(scale);

    println!(
        "Table 3: end-to-end vs per-pass chained validation (suite at 1/{scale} scale, \
         schedule `{}`, {workers} worker(s))",
        schedule.name
    );
    println!(
        "{:12} | {:>6} {:>9} {:>9} {:>11} {:>9} | {:>9} {:>9}",
        "benchmark",
        "xform",
        "e2e ok",
        "chain ok",
        "chain-only",
        "hit rate",
        "e2e wall",
        "chain wall"
    );
    println!("{}", "-".repeat(96));

    let mut total = Composition::default();
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    let mut cache_skips = 0u64;
    let mut e2e_wall = 0.0f64;
    let mut chain_wall = 0.0f64;
    let mut rows = Vec::new();
    for (profile, m) in &modules {
        // One-shot end-to-end baseline wall-clock (the historical driver).
        let t0 = Instant::now();
        let _ = engine.llvm_md(m, &pm, &validator);
        let e2e_s = t0.elapsed().as_secs_f64();
        // The chain, with the determinism cross-check at 1 and 4 workers.
        let t1 = Instant::now();
        let chain = ChainValidator::new(engine).validate_chain(m, &pm, &triaging);
        let chain_s = t1.elapsed().as_secs_f64();
        for probe_workers in [1usize, 4] {
            let probe = ChainValidator::new(ValidationEngine::with_workers(probe_workers))
                .validate_chain(m, &pm, &triaging);
            assert_eq!(
                chain, probe,
                "{}: chain outcome diverged at {probe_workers} worker(s)",
                profile.name
            );
        }
        assert!(
            chain.composition_consistent(),
            "{}: a chain-certified function triaged as an end-to-end miscompile",
            profile.name
        );
        let comp = chain.composition();
        // Per module this is a loud warning, not an assert: `end_to_end_only`
        // (a step-level incompleteness the composed query normalized
        // through) is legitimate in the data model, and a single module may
        // dip. The suite-level inequality below is the gated invariant.
        if comp.chain_rate() < comp.end_to_end_rate() {
            println!(
                "  !! {}: chained rate {:.3} below end-to-end {:.3} \
                 ({} e2e-only function(s)) — a step-level incompleteness",
                profile.name,
                comp.chain_rate(),
                comp.end_to_end_rate(),
                comp.end_to_end_only
            );
        }
        total.transformed += comp.transformed;
        total.end_to_end_validated += comp.end_to_end_validated;
        total.chain_certified += comp.chain_certified;
        total.chain_only += comp.chain_only;
        total.end_to_end_only += comp.end_to_end_only;
        cache_hits += chain.cache.hits;
        cache_misses += chain.cache.misses;
        cache_skips += chain.cache.skips;
        e2e_wall += e2e_s;
        chain_wall += chain_s;
        println!(
            "{:12} | {:>6} {:>9} {:>9} {:>11} {:>8.1}% | {:>8.2}s {:>8.2}s",
            profile.name,
            comp.transformed,
            comp.end_to_end_validated,
            comp.chain_certified,
            comp.chain_only,
            100.0 * chain.cache.hit_rate(),
            e2e_s,
            chain_s
        );
        rows.push(Json::obj([
            ("benchmark", Json::str(profile.name)),
            ("transformed", Json::num(comp.transformed as f64)),
            ("end_to_end_validated", Json::num(comp.end_to_end_validated as f64)),
            ("chain_certified", Json::num(comp.chain_certified as f64)),
            ("chain_only", Json::num(comp.chain_only as f64)),
            ("end_to_end_only", Json::num(comp.end_to_end_only as f64)),
            ("cache_hits", Json::num(chain.cache.hits as f64)),
            ("cache_misses", Json::num(chain.cache.misses as f64)),
            ("cache_skips", Json::num(chain.cache.skips as f64)),
            ("end_to_end_wall_s", Json::num(e2e_s)),
            ("chain_wall_s", Json::num(chain_s)),
        ]));
    }
    println!("{}", "-".repeat(96));
    let hit_rate = if cache_hits + cache_misses == 0 {
        0.0
    } else {
        cache_hits as f64 / (cache_hits + cache_misses) as f64
    };
    assert!(cache_hits > 0, "a chained suite run must reuse cached graphs");
    // The headline invariant (empirical for the current rule set, enforced
    // at suite granularity and re-checked by the CI chain smoke): the
    // decomposition never certifies fewer functions than the one shot.
    assert!(
        total.chain_rate() >= total.end_to_end_rate(),
        "suite chained validation rate fell below end-to-end ({:.4} < {:.4}; {} e2e-only)",
        total.chain_rate(),
        total.end_to_end_rate(),
        total.end_to_end_only
    );
    println!(
        "suite: chained rate {:.1}% vs end-to-end {:.1}% over {} transformed \
         ({} chain-only, {} e2e-only); cache hit rate {:.1}%, {} skips",
        100.0 * total.chain_rate(),
        100.0 * total.end_to_end_rate(),
        total.transformed,
        total.chain_only,
        total.end_to_end_only,
        100.0 * hit_rate,
        cache_skips
    );

    // Sweep 2: every injected bug, spliced mid-pipeline, must be blamed on
    // exactly the broken pass.
    let bugs = injected_corpus();
    println!("\ninjected-bug blame (pipeline: adce -> <bug> -> dse):");
    let mut bug_rows = Vec::new();
    let mut blamed_correctly = 0;
    for bug in &bugs {
        let mut broken_pm = PassManager::new();
        broken_pm.add(lir_opt::pass_by_name("adce").expect("known pass"));
        broken_pm.add(Box::new(BrokenPass(bug.kind)));
        broken_pm.add(lir_opt::pass_by_name("dse").expect("known pass"));
        let chain = ChainValidator::new(engine).validate_chain(&bug.module, &broken_pm, &triaging);
        let blame = chain.blame_for(bug.function);
        let correct = blame.is_some_and(|b| b.pass == bug.kind.name() && b.is_miscompile());
        if correct {
            blamed_correctly += 1;
        }
        match blame {
            Some(b) => println!("  {:18} -> {b}", bug.name),
            None => println!("  {:18} -> NOT BLAMED (chain certified a miscompile!)", bug.name),
        }
        let witness_args: Vec<Json> = blame
            .and_then(|b| b.triage.as_ref())
            .and_then(|t| t.witness.as_ref())
            .map(|w| w.args.iter().map(|&a| Json::str(a.to_string())).collect())
            .unwrap_or_default();
        bug_rows.push(Json::obj([
            ("bug", Json::str(bug.name)),
            ("kind", Json::str(bug.kind.name())),
            ("function", Json::str(bug.function)),
            ("blamed_pass", Json::str(blame.map_or("<none>", |b| b.pass.as_str()).to_owned())),
            ("blamed_step", Json::num(blame.map_or(-1.0, |b| b.step as f64))),
            ("correct", Json::Bool(correct)),
            ("witness", Json::Arr(witness_args)),
        ]));
    }
    assert_eq!(
        blamed_correctly,
        bugs.len(),
        "every injected bug must be blamed on its broken pass"
    );
    println!("{}/{} bugs blamed on the correct pass", blamed_correctly, bugs.len());

    let artifact = Json::obj([
        ("exhibit", Json::str("table3_chain")),
        ("scale", Json::num(scale as f64)),
        ("battery", Json::num(opts.battery as f64)),
        ("workers", Json::num(workers as f64)),
        ("schedule", Json::str(schedule.name.clone())),
        ("passes", Json::Arr(schedule.passes.iter().map(|&p| Json::str(p)).collect())),
        ("suite_transformed", Json::num(total.transformed as f64)),
        ("end_to_end_validated", Json::num(total.end_to_end_validated as f64)),
        ("chain_certified", Json::num(total.chain_certified as f64)),
        ("end_to_end_rate", Json::num(total.end_to_end_rate())),
        ("chain_rate", Json::num(total.chain_rate())),
        ("chain_only", Json::num(total.chain_only as f64)),
        ("end_to_end_only", Json::num(total.end_to_end_only as f64)),
        ("cache_hits", Json::num(cache_hits as f64)),
        ("cache_misses", Json::num(cache_misses as f64)),
        ("cache_skips", Json::num(cache_skips as f64)),
        ("cache_hit_rate", Json::num(hit_rate)),
        ("end_to_end_wall_s", Json::num(e2e_wall)),
        ("chain_wall_s", Json::num(chain_wall)),
        ("workers_cross_checked", Json::Arr(vec![Json::num(1.0), Json::num(4.0)])),
        ("benchmarks", Json::Arr(rows)),
        ("injected_bugs", Json::num(bugs.len() as f64)),
        ("injected_blamed_correctly", Json::num(blamed_correctly as f64)),
        ("injected_detail", Json::Arr(bug_rows)),
    ]);
    let path = write_artifact("chain", &artifact).expect("write BENCH_chain.json");
    println!("wrote {}", path.display());
}
