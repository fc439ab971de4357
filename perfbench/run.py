#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the release `llvm-md` binary and the `perfbench` package from
source (into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
workload in a fresh process and relays its output. The last line printed
is the one-line JSON result. Scratch files (store directories, traces,
drift records) live under `<target dir>/perfbench-work`.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("suite-tier1", "suite-chain", "fuzz-cascade", "serve-mixed")
# One run must end within 180 s; the build of the first run may take longer.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    needed = ["Cargo.toml", "crates", os.path.join("src", "bin", "llvm-md.rs"),
              os.path.join("perfbench", "Cargo.toml")]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        sys.exit("perfbench: run from the repository root; missing: " + ", ".join(missing))

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("LLVM_MD_")}
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "llvm-md"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))

    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--llvm-md", os.path.join(target, "release", "llvm-md"),
        "--work-dir", work,
    ]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
