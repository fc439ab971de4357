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

  echo "==> llvm-md chain smoke (honest chain exits 0; a flipped comparison is blamed on its pass, witness attached)"
  # The CLI face of chain validation, at 2 workers. Run 1: the paper
  # pipeline over an honest module must exit 0, blame nothing and report a
  # consistent composition. Run 2: a broken pass between two honest ones
  # must exit 1 with exactly one blame, at step 1, naming flip-comparison,
  # with the triage witness that replays the divergence.
  cli_chain_dir="$(mktemp -d)"
  cat > "$cli_chain_dir/max.ll" <<'LL'
define i64 @max(i64 %a, i64 %b) {
entry:
  %dead = add i64 %a, 9
  %c = icmp sgt i64 %a, %b
  br i1 %c, label %l, label %r
l:
  ret i64 %a
r:
  ret i64 %b
}

define i64 @fold(i64 %a) {
entry:
  %x = add i64 3, 3
  %y = mul i64 %a, %x
  ret i64 %y
}
LL
  cargo run --release --offline -q --bin llvm-md -- chain "$cli_chain_dir/max.ll" \
    --workers 2 > "$cli_chain_dir/honest.json"
  status=0
  cargo run --release --offline -q --bin llvm-md -- chain "$cli_chain_dir/max.ll" \
    --triage --workers 2 --passes adce,flip-comparison,dse > "$cli_chain_dir/broken.json" \
    || status=$?
  [[ $status -eq 1 ]] || { echo "llvm-md chain on a broken pass exited $status, want 1"; exit 1; }
  python3 - "$cli_chain_dir" <<'EOF'
import json, os, sys
honest = json.load(open(os.path.join(sys.argv[1], "honest.json")))
assert honest["type"] == "chain-report" and honest["consistent"] is True, honest
assert honest["blames"] == 0 and honest["report"]["blames"] == [], honest["report"]["blames"]
assert any(r["transformed"] for s in honest["report"]["steps"] for r in s["report"]["records"]), \
    "the honest module must be transformed by some pass"
broken = json.load(open(os.path.join(sys.argv[1], "broken.json")))
blames = broken["report"]["blames"]
assert broken["blames"] == 1 and len(blames) == 1, blames
b = blames[0]
assert b["step"] == 1 and b["pass"] == "flip-comparison", b
assert b["triage"]["class"] == "real-miscompile" and b["triage"]["witness"], b
print(f"llvm-md chain smoke OK: honest chain blames nothing; @{b['function']} blamed on "
      f"{b['pass']} at step {b['step']}, witness args {b['triage']['witness']['args']}")
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

  echo "==> serve smoke (repeat batches must be 100% store hits, byte-identical verdicts)"
  # Three framed batches through `llvm-md serve --stdin` with an on-disk
  # store: batch 1 validates; batch 2 repeats it exactly and is answered in
  # direct mode, without parsing; batch 3 changes only a comment in the
  # original text, so it misses the request manifest and takes the parse
  # path. Batches 2 and 3 must answer every function from the store
  # (validations_run == 0) with verdict lines byte-identical to batch 1's,
  # and the `stats` reply must count exactly one direct replay. A frame
  # before batch 1 declares a `[1000000000000 x i64]` global: it must get
  # an error line, not an 8 TB allocation, and batch 1 must follow normally.
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
hostile = "@g = global [1000000000000 x i64] [0]\n" + orig
with open(os.path.join(d, "requests.txt"), "w") as f:
    for rid, original in (("hostile", hostile), ("b1", orig), ("b2", orig),
                          ("b3", orig + "; edited\n")):
        body = json.dumps({"schema_version": 1, "type": "validate", "id": rid,
                           "original": original, "optimized": opt}, separators=(",", ":"))
        f.write(f"{len(body.encode())}\n{body}")
    for kind in ("stats", "shutdown"):
        body = json.dumps({"schema_version": 1, "type": kind, "id": "x"},
                          separators=(",", ":"))
        f.write(f"{len(body.encode())}\n{body}")
EOF
  cargo run --release --offline -q --bin llvm-md -- serve --stdin \
    --store "$serve_dir/store" < "$serve_dir/requests.txt" > "$serve_dir/responses.txt"
  python3 - "$serve_dir/responses.txt" <<'EOF'
import json, re, sys
raw = [l.rstrip("\n") for l in open(sys.argv[1]) if l.strip()]
lines = [json.loads(l) for l in raw]
ends = [l for l in lines if l["type"] == "batch-end"]
# Raw line text, not parsed dicts: replay must be byte-identical (key order
# and number formatting included), which dict equality would not check.
verdicts = [t for t, l in zip(raw, lines) if l["type"] == "verdict"]
assert len(ends) == 3, f"expected 3 batches: {ends}"
errors = [i for i, l in enumerate(lines) if l["type"] == "error"]
assert [lines[i].get("id") for i in errors] == ["hostile"], f"hostile global: {lines}"
after = [l for l in lines[errors[0] + 1:] if l["type"] == "batch-end"]
assert after and after[0]["id"] == "b1", f"the frame after the hostile one must be served: {lines}"
n = ends[0]["functions"]
assert n > 0 and ends[0]["store_hits"] == 0, ends[0]
for b, end in enumerate(ends[1:], 2):
    assert end["store_hits"] == n, f"batch {b} must be all store hits: {end}"
    assert end["validations_run"] == 0, f"batch {b} must not re-validate: {end}"
    assert end["validated"] == ends[0]["validated"], (ends[0], end)
assert len(verdicts) == 3 * n, verdicts
b1, b2, b3 = verdicts[:n], verdicts[n:2 * n], verdicts[2 * n:]
assert b1 == b2 == b3, "replayed verdict lines must be byte-identical to batch 1"
stats = [l for l in lines if l["type"] == "stats"]
assert len(stats) == 1 and stats[0]["direct_replays"] == 1, \
    f"only the exact repeat may be answered without parsing: {stats}"
assert any(l["type"] == "shutdown-ok" for l in lines), "shutdown must be acknowledged"
# Store format v2: every verdict line opens with the fixed-width serving
# stamp, `{"stamp":"<16 hex digits>",`.
stamp = re.compile(r'\{"stamp":"[0-9a-f]{16}",')
assert all(stamp.match(t) for t in verdicts), f"unstamped verdict line: {verdicts}"
print(f"serve smoke OK: {n} functions, batches 2-3 {n} hits / 0 validations, 1 direct replay, "
      "hostile global answered with an error line")
EOF

  echo "==> serve stamp smoke (a battery-1 verdict must not answer a battery-64 server)"
  # f(x) = x == 7 ? 1 : 0 "optimized" to `ret 0`: a one-input triage
  # battery misses the miscompile and a 64-input battery finds it. A
  # `--triage --battery 1` server writes the store; a `--battery 64` server
  # over the same store must re-validate (validations_run == 1) and answer
  # real-miscompile, because the serving stamp covers the triage options.
  cat > "$serve_dir/eq7.ll" <<'LL'
define i64 @f(i64 %x) {
entry:
  %c = icmp eq i64 %x, 7
  %r = select i1 %c, i64 1, i64 0
  ret i64 %r
}
LL
  cat > "$serve_dir/ret0.ll" <<'LL'
define i64 @f(i64 %x) {
entry:
  ret i64 0
}
LL
  python3 - "$serve_dir" <<'EOF'
import json, sys, os
d = sys.argv[1]
body = json.dumps({"schema_version": 1, "type": "validate", "id": "eq7",
                   "original": open(os.path.join(d, "eq7.ll")).read(),
                   "optimized": open(os.path.join(d, "ret0.ll")).read()}, separators=(",", ":"))
open(os.path.join(d, "eq7.txt"), "w").write(f"{len(body.encode())}\n{body}")
EOF
  for battery in 1 64; do
    cargo run --release --offline -q --bin llvm-md -- serve --stdin --triage --battery "$battery" \
      --store "$serve_dir/stamp-store" < "$serve_dir/eq7.txt" > "$serve_dir/battery-$battery.txt"
  done
  python3 - "$serve_dir" <<'EOF'
import json, sys, os, re
d = sys.argv[1]
def batch(battery):
    raw = [l.rstrip("\n") for l in open(os.path.join(d, f"battery-{battery}.txt")) if l.strip()]
    lines = [json.loads(l) for l in raw]
    verdicts = [t for t, l in zip(raw, lines) if l["type"] == "verdict"]
    ends = [l for l in lines if l["type"] == "batch-end"]
    assert len(verdicts) == 1 and len(ends) == 1, raw
    assert re.match(r'\{"stamp":"[0-9a-f]{16}",', verdicts[0]), verdicts[0]
    return json.loads(verdicts[0]), ends[0]
v1, e1 = batch(1)
v64, e64 = batch(64)
assert v1["class"] == "suspected-incomplete" and e1["validations_run"] == 1, (v1["class"], e1)
assert e64["validations_run"] == 1 and e64["store_hits"] == 0, f"battery 64 replayed: {e64}"
assert v64["class"] == "real-miscompile", f"battery 64 must find the miscompile: {v64['class']}"
print("serve stamp smoke OK: battery 1 suspected-incomplete, battery 64 re-validated as real-miscompile")
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
  for a in fig4 micro scaling triage chain fuzz sat ablation; do
    python3 -m json.tool "$artifacts_dir/BENCH_$a.json" > /dev/null
  done
  echo "bench artifacts smoke OK"

  echo "==> rate exhibits smoke (fig5-fig8, ablation, table1 at --scale 16: validated <= transformed)"
  # No other step runs these bins. Each must run end to end and write
  # parseable JSON, and every configuration row of the five rate exhibits
  # must validate no more functions than its optimizer output transformed.
  rates_dir="$(mktemp -d)"
  for b in fig5_per_opt fig6_gvn_rules fig7_licm_rules fig8_sccp_rules \
    ablation_cycle_matching table1_suite; do
    BENCH_OUT_DIR="$rates_dir" cargo run --release --offline -q -p llvm_md_bench \
      --bin "$b" -- --scale 16 > /dev/null
  done
  python3 - "$rates_dir" <<'EOF'
import json, os, sys
axes = {"fig5": "passes", "fig6": "steps", "fig7": "configs", "fig8": "steps",
        "ablation": "strategies"}
for name in [*axes, "table1"]:
    data = json.load(open(os.path.join(sys.argv[1], f"BENCH_{name}.json")))
    assert data["scale"] == 16, f"BENCH_{name}.json: {data['scale']}"
    for row in data.get(axes.get(name), []):
        assert row["validated"] <= row["transformed"], f"BENCH_{name}.json: {row}"
    assert name == "table1" or data[axes[name]], f"BENCH_{name}.json has no rows"
print(f"rate exhibits smoke OK: {len(axes)} rate artifacts + table1 parse, "
      f"validated <= transformed in every row")
EOF

  echo "==> artifact identity (BENCH_fig4.json at default and 1 worker, BENCH_chain.json, BENCH_sat.json, BENCH_triage.json, BENCH_fuzz.json, BENCH_ablation.json regenerate at their committed settings)"
  # The artifacts are deterministic apart from their wall-clock fields (keys
  # ending in _s, _ms or _ns), so regenerating them at the settings they were
  # committed with must reproduce every other value. A change that moves a
  # verdict, a blame, a triage, cache or SAT count re-baselines the artifact
  # in the same commit. fig4 is the default validator's verdicts over the
  # pinned suite, regenerated twice: at the default worker count (the
  # fused optimize-and-validate jobs on the work-stealing pool) and at
  # LLVM_MD_WORKERS=1 (the same jobs inline, serially); both must match.
  # The chain run is serial: cache hit/miss counts race between workers.
  # The fuzz campaign runs at its defaults, serially (the
  # artifact records the worker count), with repros kept out of the tree.
  # The ablation pins every cycle-matching strategy's verdicts, not just
  # the default's.
  ident_dir="$(mktemp -d)"
  BENCH_OUT_DIR="$ident_dir" cargo run --release --offline -q \
    -p llvm_md_bench --bin fig4_pipeline -- --scale 4 > /dev/null
  mkdir "$ident_dir/serial"
  BENCH_OUT_DIR="$ident_dir/serial" LLVM_MD_WORKERS=1 cargo run --release --offline -q \
    -p llvm_md_bench --bin fig4_pipeline -- --scale 4 > /dev/null
  BENCH_OUT_DIR="$ident_dir" cargo run --release --offline -q \
    -p llvm_md_bench --bin ablation_cycle_matching -- --scale 4 > /dev/null
  BENCH_OUT_DIR="$ident_dir" LLVM_MD_WORKERS=1 cargo run --release --offline -q \
    -p llvm_md_bench --bin table3_chain -- --scale 4 --battery 16 > /dev/null
  BENCH_OUT_DIR="$ident_dir" LLVM_MD_WORKERS=1 cargo run --release --offline -q \
    -p llvm_md_bench --bin fuzz_campaign -- --repro-dir "$ident_dir/repros" > /dev/null
  for b in table4_sat table2_triage; do
    BENCH_OUT_DIR="$ident_dir" cargo run --release --offline -q -p llvm_md_bench \
      --bin "$b" -- --scale 4 --battery 16 > /dev/null
  done
  python3 - "$ident_dir" BENCH_fig4.json serial/BENCH_fig4.json BENCH_chain.json BENCH_sat.json \
    BENCH_triage.json BENCH_fuzz.json BENCH_ablation.json <<'EOF'
import json, os, sys
def untimed(x):
    if isinstance(x, dict):
        return {k: untimed(v) for k, v in x.items() if not k.endswith(("_s", "_ms", "_ns"))}
    if isinstance(x, list):
        return [untimed(v) for v in x]
    return x
for name in sys.argv[2:]:
    committed = untimed(json.load(open(os.path.basename(name))))
    fresh = untimed(json.load(open(os.path.join(sys.argv[1], name))))
    moved = sorted(k for k in committed.keys() | fresh.keys() if committed.get(k) != fresh.get(k))
    assert not moved, f"{name} does not regenerate at its committed settings; moved: {moved}"
print(f"artifact identity OK: {', '.join(sys.argv[2:])} match apart from timing fields")
EOF

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
