#!/usr/bin/env bash
# Regenerate the perf-baseline artifacts at the repo root:
#
#   BENCH_fig4.json     end-to-end pipeline: validated fraction + wall-clock
#   BENCH_micro.json    micro-benchmarks: gating / import / rebuild / validate / parse /
#                       canonicalize / optimize / prepare medians
#   BENCH_scaling.json  parallel engine throughput at 1/2/4/N workers
#   BENCH_triage.json   alarm-triage rates per rule-set ablation
#   BENCH_chain.json    end-to-end vs per-pass chained validation + blame
#   BENCH_fuzz.json     differential fuzz campaign: per-profile rates, 0 findings
#   BENCH_sat.json      tier-2 SAT on surviving alarms: upgrades + solver stats
#   BENCH_ablation.json cycle-matching ablation: validated rate per match strategy
#
# Future PRs compare their numbers against the committed artifacts, so the
# perf trajectory of the validator is mechanical to follow. Extra arguments
# (e.g. `--scale 1` for the full suite) are forwarded to fig4_pipeline and
# the other scaled bins (scaling, triage, chain, ablation).
# Set BENCH_OUT_DIR to write the artifacts somewhere else (ci/check.sh does,
# for its smoke run).
#
# Worker counts: every bin that builds a default ValidationEngine honors
# the LLVM_MD_WORKERS env var (see driver::default_workers), so a re-baseline
# at another worker count is `LLVM_MD_WORKERS=8 ci/bench_baseline.sh`, no
# code edits needed. The committed BENCH_scaling.json was recorded on a
# 2-core machine: 1.65x at 2 workers and 1.66x at 4 (flat past the core
# count); see README.md.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> fig4 pipeline (BENCH_fig4.json)"
cargo run --release --offline -q -p llvm_md_bench --bin fig4_pipeline -- "$@"

echo "==> micro-benchmarks (BENCH_micro.json)"
cargo bench --offline -q -p llvm_md_bench

echo "==> engine scaling (BENCH_scaling.json)"
cargo run --release --offline -q -p llvm_md_bench --bin fig4_scaling -- "$@"

echo "==> alarm triage (BENCH_triage.json)"
cargo run --release --offline -q -p llvm_md_bench --bin table2_triage -- "$@"

echo "==> chain validation (BENCH_chain.json)"
cargo run --release --offline -q -p llvm_md_bench --bin table3_chain -- "$@"

echo "==> fuzz campaign (BENCH_fuzz.json)"
# The campaign is seeded, not scaled: the committed default seed + budget
# reproduce the artifact exactly (extra args like --scale are ignored).
cargo run --release --offline -q -p llvm_md_bench --bin fuzz_campaign

echo "==> tier-2 SAT (BENCH_sat.json)"
# Pinned at the artifact's own default scale 4: the provable surviving
# alarm is not present in smaller suites (extra args are not forwarded).
cargo run --release --offline -q -p llvm_md_bench --bin table4_sat

echo "==> cycle-matching ablation (BENCH_ablation.json)"
cargo run --release --offline -q -p llvm_md_bench --bin ablation_cycle_matching -- "$@"

out="${BENCH_OUT_DIR:-.}"
echo "wrote: $(cd "$out" && ls BENCH_fig4.json BENCH_micro.json BENCH_scaling.json BENCH_triage.json BENCH_chain.json BENCH_fuzz.json BENCH_sat.json BENCH_ablation.json) in $out"
