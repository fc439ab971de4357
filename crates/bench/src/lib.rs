//! `llvm-md-bench` — the harness that regenerates every table and figure of
//! the paper's evaluation (§5).
//!
//! One binary per exhibit:
//!
//! | exhibit | binary | what it prints |
//! |---|---|---|
//! | Table 1 | `table1_suite` | per-benchmark size / LOC / #functions, paper vs generated |
//! | Fig. 4 | `fig4_pipeline` | % functions validated under the full pipeline, per benchmark, plus wall-clock times (§5.1) |
//! | scaling | `fig4_scaling` | parallel-engine throughput over the pinned suite at 1/2/4/N workers (see `ValidationEngine`) |
//! | Fig. 5 | `fig5_per_opt` | per-optimization transformed/validated counts per benchmark |
//! | Fig. 6 | `fig6_gvn_rules` | GVN validation % as rule groups accumulate |
//! | Fig. 7 | `fig7_licm_rules` | LICM validation %, no rules vs all rules vs +libc |
//! | Fig. 8 | `fig8_sccp_rules` | SCCP validation % over its four rule configurations |
//! | §5.4 | `ablation_cycle_matching` | unification vs partitioning vs combined |
//! | Table 2 | `table2_triage` | alarm-triage rates per rule ablation: suite false alarms vs injected-bug catches |
//! | Table 3 | `table3_chain` | end-to-end vs per-pass chained validation (rates, wall-clock, cache hits) + injected-bug pass blame |
//! | fuzzing | `fuzz_campaign` | differential fuzzing campaign: per-profile validation rates, soundness findings with minimized replayable repros (`--inject`, `--replay`) |
//!
//! Micro-benchmarks (gating, normalization, end-to-end validation at
//! several function sizes) live in `benches/micro.rs`, driven by the
//! in-repo [`timing`] harness (warmup + median-of-N; no criterion — the
//! workspace is zero-dependency and builds offline).
//!
//! Every binary accepts `--scale N` (default 4): benchmark function counts
//! are divided by `N` so a full figure regenerates in seconds; `--scale 1`
//! runs the full synthetic suite. Each binary also writes a
//! machine-readable `BENCH_<exhibit>.json` (see [`write_artifact`]) so the
//! perf trajectory across PRs can be compared mechanically.

pub mod timing;

use lir::func::Module;
use llvm_md_core::Json;
use llvm_md_workload::Profile;
use std::path::PathBuf;

/// Parse a positive-integer `<flag> N` command-line argument, falling back
/// to `default` when the flag is absent, malformed, or zero — the one
/// flag-parsing pipeline every bench bin shares (`--scale`, `--battery`,
/// `--repeats`, …).
pub fn usize_flag(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

/// Parse a `--scale N` argument (default 4).
pub fn scale_from_args() -> usize {
    usize_flag("--scale", 4)
}

/// Parse a string-valued `<flag> VALUE` command-line argument.
pub fn str_flag(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// Parse a `u64`-valued `<flag> N` argument; decimal and `0x`-prefixed hex
/// are both accepted (campaign seeds print as hex). Falls back to
/// `default` when absent or malformed.
pub fn u64_flag(flag: &str, default: u64) -> u64 {
    str_flag(flag)
        .and_then(|v| {
            v.strip_prefix("0x")
                .map_or_else(|| v.parse::<u64>().ok(), |h| u64::from_str_radix(h, 16).ok())
        })
        .unwrap_or(default)
}

/// The benchmark suite at `1/scale` of the profile function counts (a
/// re-export of `llvm_md_workload::generate_suite`, which also backs the
/// driver's corpus batching).
pub fn suite(scale: usize) -> Vec<(Profile, Module)> {
    llvm_md_workload::generate_suite(scale)
}

/// Render `validated/transformed` as a percentage (100% when nothing was
/// transformed).
pub fn pct(validated: usize, transformed: usize) -> f64 {
    if transformed == 0 {
        100.0
    } else {
        100.0 * validated as f64 / transformed as f64
    }
}

/// Write `BENCH_<name>.json` into `$BENCH_OUT_DIR` (default: the workspace
/// root, so artifacts land in one place whether the caller is a `cargo run`
/// binary, whose working directory is wherever cargo was invoked, or a
/// `cargo bench` harness, whose working directory is the package root).
/// Returns the path written.
pub fn write_artifact(name: &str, body: &Json) -> std::io::Result<PathBuf> {
    let dir = std::env::var_os("BENCH_OUT_DIR").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
        PathBuf::from,
    );
    let path = dir.join(format!("BENCH_{name}.json"));
    body.write_to(&path)?;
    Ok(path)
}

/// A fixed-width horizontal bar for terminal "figures".
pub fn bar(fraction: f64, width: usize) -> String {
    let n = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < n { '#' } else { '.' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_scales_down() {
        let s = suite(50);
        assert_eq!(s.len(), 12);
        assert!(s.iter().all(|(p, m)| m.functions.len() == p.functions));
        assert!(s.iter().all(|(p, _)| p.functions >= 5));
    }

    #[test]
    fn pct_handles_zero() {
        assert_eq!(pct(0, 0), 100.0);
        assert_eq!(pct(1, 2), 50.0);
    }

    #[test]
    fn bar_renders() {
        assert_eq!(bar(0.5, 10), "#####.....");
        assert_eq!(bar(1.2, 4), "####");
    }
}
