#!/usr/bin/env bash
# The pre-PR gate and the one gate definition: the `gate` job of
# .github/workflows/ci.yml checks out, installs the toolchain, restores the
# cache and runs exactly this script. Everything is --offline — the
# workspace has zero crates.io dependencies by policy (see README.md), so a
# hermetic run is always possible.
#
# Usage: ci/check.sh [--fast]
#   --fast   skip the release build, the doc build and the examples/triage
#            smoke tests (quick inner-loop check: fmt + clippy + tests)

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

if [[ $fast -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --workspace --all-targets --release --offline

  echo "==> cargo doc (-D warnings)"
  # Doc rot gates the PR: crates/core and crates/gated carry
  # #![warn(missing_docs)], and RUSTDOCFLAGS promotes every rustdoc warning
  # (missing docs, broken intra-doc links) to an error.
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q
fi

echo "==> cargo test"
cargo test -q --workspace --offline

if [[ $fast -eq 0 ]]; then
  echo "==> examples smoke test"
  for e in quickstart certify_pipeline catch_miscompilation rule_ablation triage_alarm chain_blame fuzz_and_reduce; do
    echo "---- example $e"
    cargo run --release --offline -q --example "$e" > /dev/null
  done

  echo "==> parallel engine smoke (2 workers)"
  # Exercise the ValidationEngine worker pool on every gate: a small-scale
  # fig4_scaling run at exactly 2 workers (artifact goes to a throwaway dir
  # so the committed BENCH_scaling.json baseline is not clobbered).
  BENCH_OUT_DIR="$(mktemp -d)" cargo run --release --offline -q -p llvm_md_bench \
    --bin fig4_scaling -- --scale 16 --workers 2 --repeats 1 > /dev/null

  echo "==> triage + saturation smoke (bugs caught under every ablation, fallback beats destructive)"
  # table2_triage asserts nothing by itself, so check its artifact: every
  # ablation — the two equality-saturation rows included — must report
  # injected_caught == injected_bugs; the saturate-fallback row must alarm
  # strictly less than the full destructive row (the e-graph exists to
  # discharge those false alarms, never to add one); and no saturation run
  # may die on a budget cap on the pinned suite.
  triage_dir="$(mktemp -d)"
  BENCH_OUT_DIR="$triage_dir" cargo run --release --offline -q -p llvm_md_bench \
    --bin table2_triage -- --scale 16 --battery 8 > /dev/null
  python3 - "$triage_dir/BENCH_triage.json" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
for row in data["ablations"]:
    assert row["injected_caught"] == row["injected_bugs"] > 0, \
        f"triage missed a miscompile under rules {row['rules']!r}: {row}"
    assert row["suite_real_miscompiles"] == 0, \
        f"suite pair misclassified as miscompile under rules {row['rules']!r}"
    assert row["saturation_capped"] == 0, \
        f"saturation hit a budget cap on the pinned suite under {row['rules']!r}: {row}"
by_norm = {r["normalizer"]: r for r in data["ablations"] if r["rules"].startswith("full")}
dest, fb = by_norm["destructive"], by_norm["saturate-fallback"]
assert dest["suite_alarms"] > 0, "no stubborn destructive alarms left to discharge?"
assert fb["suite_alarms"] < dest["suite_alarms"], \
    f"saturate-fallback must alarm strictly less than destructive: " \
    f"{fb['suite_alarms']} vs {dest['suite_alarms']}"
assert fb["saturation_runs"] == dest["suite_alarms"], \
    "fallback must saturate exactly the destructive alarms"
print(f"triage smoke OK: {data['ablations'][0]['injected_bugs']} bugs caught under "
      f"{len(data['ablations'])} ablations; saturation smoke OK: fallback "
      f"{fb['suite_alarms']} alarms vs destructive {dest['suite_alarms']}")
EOF

  echo "==> chain smoke (2-worker chain vs serial end-to-end, cache must hit)"
  # table3_chain asserts internally that every chain run matches itself at
  # 1 and 4 workers (ChainReport equality, which skips timings), that the
  # chained rate is >= the end-to-end rate, and that all injected bugs are
  # blamed on the correct pass; LLVM_MD_WORKERS=2 makes the primary run a
  # 2-worker pool.
  # The artifact check re-verifies the invariants the gate cares about.
  chain_dir="$(mktemp -d)"
  BENCH_OUT_DIR="$chain_dir" LLVM_MD_WORKERS=2 cargo run --release --offline -q \
    -p llvm_md_bench --bin table3_chain -- --scale 16 --battery 8 > /dev/null
  python3 - "$chain_dir/BENCH_chain.json" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
assert data["workers"] == 2, f"LLVM_MD_WORKERS override ignored: {data['workers']}"
assert data["cache_hits"] > 0, "chained run must report a nonzero cache-hit count"
assert data["cache_skips"] > 0, "untouched functions must be fingerprint-skipped"
assert data["chain_rate"] >= data["end_to_end_rate"], \
    f"chained rate {data['chain_rate']} fell below end-to-end {data['end_to_end_rate']}"
assert data["injected_blamed_correctly"] == data["injected_bugs"] > 0, \
    f"pass-level blame missed a bug: {data['injected_detail']}"
print(f"chain smoke OK: rate {data['chain_rate']:.3f} vs e2e {data['end_to_end_rate']:.3f}, "
      f"{data['cache_hits']} cache hits, {data['cache_skips']} skips, "
      f"{data['injected_blamed_correctly']}/{data['injected_bugs']} bugs blamed correctly")
EOF

  echo "==> tier-2 SAT smoke (>=1 surviving alarm proved equivalent, 0 soundness inversions, proofs under 1000 conflicts)"
  # table4_sat already asserts the two gate invariants internally (and exits
  # nonzero on failure); the artifact check re-verifies them and pins the
  # expected shape. Runs at the artifact's own default scale 4: the
  # provable surviving alarm is not in the 1/16 suite. With the encoder's
  # structural hashing the headline UNSAT proof needs 0 conflicts (48,126
  # without it), so a proof that needs search again means the hashing was
  # lost: the conflict bound fails on a deterministic count, not a timing.
  sat_dir="$(mktemp -d)"
  BENCH_OUT_DIR="$sat_dir" cargo run --release --offline -q -p llvm_md_bench \
    --bin table4_sat -- --scale 4 --battery 8 > /dev/null
  python3 - "$sat_dir/BENCH_sat.json" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
assert data["headline_proved"] >= 1, \
    "tier 2 failed to upgrade any surviving sat-fallback alarm to proved-equivalent"
assert data["soundness_inversions"] == 0, \
    f"tier 2 proved an injected miscompile equivalent: {data['configs']}"
for row in data["configs"]:
    assert row["injected_caught"] == row["injected_bugs"] > 0, \
        f"tiered cascade missed a miscompile under {row['rules']!r}: {row}"
    assert row["suite_escalated"] == 0, \
        f"suite pair escalated to miscompile under {row['rules']!r}"
    for alarm in row["alarm_detail"]:
        if alarm["outcome"] == "proved":
            assert alarm["conflicts"] < 1000, \
                f"proof needed {alarm['conflicts']} conflicts (structural hashing lost?): {alarm}"
print(f"tier-2 smoke OK: {data['headline_proved']} surviving alarm(s) proved equivalent, "
      f"0 inversions across {len(data['configs'])} configs")
EOF

  echo "==> fuzz smoke (fixed seed: clean pipeline finds nothing, injected bug is caught + reduced + replayed)"
  # Small-budget differential fuzz campaign at the committed default seed.
  # Run 1 — unmodified pipeline: nonzero modules across >= 5 profiles, zero
  # soundness failures (the bin itself exits nonzero on a finding).
  fuzz_dir="$(mktemp -d)"
  BENCH_OUT_DIR="$fuzz_dir" cargo run --release --offline -q -p llvm_md_bench \
    --bin fuzz_campaign -- --modules 8 --battery 8 > /dev/null
  python3 - "$fuzz_dir/BENCH_fuzz.json" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
assert data["modules_generated"] > 0, data
assert len(data["profiles"]) >= 5, f"campaign must span >=5 profiles: {len(data['profiles'])}"
assert data["soundness_failures"] == 0, \
    f"soundness failure on the unmodified pipeline: {data['findings']}"
assert data["pairing_alarms"] == 0, data
print(f"fuzz smoke OK: {data['modules_generated']} modules across "
      f"{len(data['profiles'])} profiles, 0 soundness failures")
EOF
  # Run 2 — known-broken pass spliced in: the campaign must find it, the
  # reducer must shrink it, and the persisted repro must replay (the bin
  # exits nonzero on any of those failing; the artifact check re-verifies
  # the shrink).
  BENCH_OUT_DIR="$fuzz_dir" cargo run --release --offline -q -p llvm_md_bench \
    --bin fuzz_campaign -- --modules 2 --battery 8 --max-findings 1 \
    --inject flip-comparison --repro-dir "$fuzz_dir/repros" > /dev/null
  python3 - "$fuzz_dir/BENCH_fuzz.json" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
assert data["soundness_failures"] > 0, "injected bug not found"
f = data["findings"][0]
# Same invariant the bin enforces: the reducer must never grow a repro
# (an already-minimal finding may legitimately not shrink).
assert f["insts_after"] <= f["insts_before"], f"reducer grew the repro: {f}"
print(f"fuzz inject smoke OK: {data['soundness_failures']} finding(s), first reduced "
      f"{f['insts_before']} -> {f['insts_after']} insts")
EOF
  # Run 3 — standalone replay of the persisted repro.
  for r in "$fuzz_dir"/repros/*.ll; do
    cargo run --release --offline -q -p llvm_md_bench --bin fuzz_campaign -- --replay "$r" \
      > /dev/null
    echo "replay OK: $r"
  done

  echo "==> serve smoke (repeat batch must be 100% store hits, byte-identical verdicts)"
  # Two identical framed batches through `llvm-md serve --stdin` with an
  # on-disk store: batch 1 validates, batch 2 must answer every function
  # from the store (validations_run == 0) with byte-identical verdict
  # lines.
  serve_dir="$(mktemp -d)"
  cat > "$serve_dir/orig.ll" <<'LL'
; module smoke
define i64 @double(i64 %x) {
entry:
  %r = add i64 %x, %x
  ret i64 %r
}

define i64 @id(i64 %x) {
entry:
  ret i64 %x
}
LL
  cat > "$serve_dir/opt.ll" <<'LL'
; module smoke
define i64 @double(i64 %x) {
entry:
  %r = shl i64 %x, 1
  ret i64 %r
}

define i64 @id(i64 %x) {
entry:
  ret i64 %x
}
LL
  python3 - "$serve_dir" <<'EOF'
import json, sys, os
d = sys.argv[1]
orig = open(os.path.join(d, "orig.ll")).read()
opt = open(os.path.join(d, "opt.ll")).read()
with open(os.path.join(d, "requests.txt"), "w") as f:
    for rid in ("b1", "b2"):
        body = json.dumps({"schema_version": 1, "type": "validate", "id": rid,
                           "original": orig, "optimized": opt}, separators=(",", ":"))
        f.write(f"{len(body.encode())}\n{body}")
    body = json.dumps({"schema_version": 1, "type": "shutdown", "id": "x"},
                      separators=(",", ":"))
    f.write(f"{len(body.encode())}\n{body}")
EOF
  cargo run --release --offline -q --bin llvm-md -- serve --stdin \
    --store "$serve_dir/store" < "$serve_dir/requests.txt" > "$serve_dir/responses.txt"
  python3 - "$serve_dir/responses.txt" <<'EOF'
import json, sys
raw = [l.rstrip("\n") for l in open(sys.argv[1]) if l.strip()]
lines = [json.loads(l) for l in raw]
ends = [l for l in lines if l["type"] == "batch-end"]
# Raw line text, not parsed dicts: replay must be byte-identical (key order
# and number formatting included), which dict equality would not check.
verdicts = [t for t, l in zip(raw, lines) if l["type"] == "verdict"]
assert len(ends) == 2, f"expected 2 batches: {ends}"
n = ends[0]["functions"]
assert n > 0 and ends[0]["store_hits"] == 0, ends[0]
assert ends[1]["store_hits"] == n, f"batch 2 must be all store hits: {ends[1]}"
assert ends[1]["validations_run"] == 0, f"batch 2 must not re-validate: {ends[1]}"
assert ends[0]["validated"] == ends[1]["validated"], (ends[0], ends[1])
b1, b2 = verdicts[:n], verdicts[n:]
assert len(b2) == n and b1 == b2, "replayed verdict lines must be byte-identical to batch 1"
assert any(l["type"] == "shutdown-ok" for l in lines), "shutdown must be acknowledged"
print(f"serve smoke OK: {n} functions, batch 2 {ends[1]['store_hits']} hits / 0 validations")
EOF

  echo "==> benchmark known-answer smoke (every perfbench workload at seed 0 must report correct: true)"
  # One short run per workload of the repo benchmark (BENCHMARK.json). Each
  # run checks its known answers: 963 transformed / 882 validated on the
  # pinned suite, all 6 injected bugs reported as real miscompiles, chain
  # composition, byte-identical serve replays. A change that moves a verdict
  # fails here rather than at benchmark time. The runs reuse the release
  # build in target/; the drift records of earlier runs are dropped first so
  # only this run's own checks decide.
  bench_dir="$(mktemp -d)"
  rm -rf target/perfbench-work/drift
  for w in suite-tier1 suite-chain fuzz-cascade serve-mixed; do
    CARGO_TARGET_DIR=target python3 perfbench/run.py --workload "$w" --seed 0 --seconds 1 \
      --trace 0 > "$bench_dir/$w.txt" || true
    python3 - "$w" "$bench_dir/$w.txt" <<'EOF'
import json, sys
w, out = sys.argv[1], open(sys.argv[2]).read()
lines = out.strip().splitlines()
result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
assert result.get("correct") is True, f"benchmark {w} failed its known-answer checks:\n{out}"
print(f"bench smoke OK: {w}, {result['attempted']} checks")
EOF
  done

  echo "==> bench artifacts smoke (ci/bench_baseline.sh --scale 8 writes well-formed JSON)"
  # Every artifact writer runs end to end and emits parseable JSON. The
  # artifacts go to a throwaway dir so the committed baselines are not
  # clobbered.
  artifacts_dir="$(mktemp -d)"
  BENCH_OUT_DIR="$artifacts_dir" ci/bench_baseline.sh --scale 8 > /dev/null
  for a in fig4 micro scaling triage chain fuzz sat; do
    python3 -m json.tool "$artifacts_dir/BENCH_$a.json" > /dev/null
  done
  echo "bench artifacts smoke OK"

  echo "==> perf gate (micro medians vs committed BENCH_micro.json, fail on >2x regression)"
  # Guard the hash-consing/interner win: re-run the micro benchmarks into a
  # throwaway dir and compare per-axis medians against the committed
  # baseline. Shared CI boxes are noisy and uniformly slower/faster than the
  # recording machine, so the per-axis ratio is first calibrated by the
  # batch-median ratio (a machine that is 1.5x slower on *everything* is
  # load, not a regression); only a >2x *calibrated* regression — one axis
  # losing ground against its siblings, i.e. an algorithmic loss — fails
  # the gate, with a 4x raw-ratio backstop so a uniform across-the-board
  # loss cannot hide behind its own calibration. Axes present on only one
  # side fail loudly: renaming a benchmark without re-baselining would
  # otherwise un-gate it silently.
  perf_dir="$(mktemp -d)"
  BENCH_OUT_DIR="$perf_dir" cargo bench --offline -q -p llvm_md_bench > /dev/null
  python3 - BENCH_micro.json "$perf_dir/BENCH_micro.json" <<'EOF'
import json, sys
base = {b["name"]: b["median_ns"] for b in json.load(open(sys.argv[1]))["benchmarks"]}
cur = {b["name"]: b["median_ns"] for b in json.load(open(sys.argv[2]))["benchmarks"]}
assert base.keys() == cur.keys(), \
    f"benchmark axes drifted from the baseline (re-run ci/bench_baseline.sh): " \
    f"only-baseline={sorted(base.keys() - cur.keys())} only-current={sorted(cur.keys() - base.keys())}"
ratios = {n: cur[n] / base[n] for n in base}
machine = sorted(ratios.values())[len(ratios) // 2]  # batch-median = machine speed
bad = [n for n in sorted(base) if ratios[n] / machine > 2 or ratios[n] > 4]
assert not bad, f"perf regression vs committed baseline (machine factor {machine:.2f}x): " \
    + ", ".join(f"{n} {base[n]}ns -> {cur[n]}ns ({ratios[n]:.2f}x raw, "
                f"{ratios[n] / machine:.2f}x calibrated)" for n in bad)
worst = max(ratios[n] / machine for n in base)
print(f"perf gate OK: {len(base)} axes within 2x calibrated (machine factor "
      f"{machine:.2f}x, worst calibrated ratio {worst:.2f}x)")
EOF
fi

echo "OK: all checks passed"
