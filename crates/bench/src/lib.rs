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
//!
//! The configuration studies (Figs. 5–8, §5.4, and the suite sweeps of
//! Tables 2 and 4) validate one optimizer output under several validators.
//! [`sweep`] runs them: it optimizes each module once and validates that
//! output under every configuration, so adding a configuration costs
//! validation only. Figs. 5–8 and §5.4 then print and write their totals
//! through one [`RateTable`].

pub mod timing;

use lir::func::Module;
use lir_opt::PassManager;
use llvm_md_core::{Json, Validator};
use llvm_md_driver::{Report, ValidationEngine};
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

/// A pass manager that runs the one pass `name` (a paper abbreviation, see
/// [`lir_opt::known_passes`]): the per-optimization experiment of Fig. 5.
///
/// # Panics
///
/// On an unknown pass name; every caller names a known pass.
pub fn one_pass(name: &str) -> PassManager {
    let pass = lir_opt::pass_by_name(name).unwrap_or_else(|| panic!("unknown pass `{name}`"));
    let mut pm = PassManager::new();
    pm.add(pass);
    pm
}

/// Optimize each module once with `pm`, then validate that output under
/// every validator ([`ValidationEngine::validate_modules`]). Returns
/// `reports[module][validator]`. The optimizer never sees the validator,
/// so each report equals `engine.llvm_md(module, pm, validator).1` under
/// the timing-blind `Report ==`, for one optimizer run per module instead
/// of one per configuration.
pub fn sweep<'a>(
    engine: &ValidationEngine,
    modules: impl IntoIterator<Item = &'a Module>,
    pm: &PassManager,
    validators: &[Validator],
) -> Vec<Vec<Report>> {
    modules
        .into_iter()
        .map(|m| {
            let mut out = m.clone();
            pm.run_module(&mut out);
            validators.iter().map(|v| engine.validate_modules(m, &out, v)).collect()
        })
        .collect()
}

/// `(transformed, validated)` summed per configuration over
/// `reports[module][configuration]`.
pub fn totals(reports: &[Vec<Report>]) -> Vec<(usize, usize)> {
    let mut totals = vec![(0, 0); reports.first().map_or(0, Vec::len)];
    for row in reports {
        for (total, r) in totals.iter_mut().zip(row) {
            total.0 += r.transformed();
            total.1 += r.validated();
        }
    }
    totals
}

/// A validation-rate exhibit (Figs. 5–8, §5.4): one row per suite
/// benchmark, one column per configuration.
pub struct RateTable {
    /// The configuration labels, one per column.
    labels: Vec<&'static str>,
    /// The benchmark names, one per row.
    names: Vec<&'static str>,
    /// `reports[row][column]`, as a [`sweep`] returns them.
    reports: Vec<Vec<Report>>,
}

impl RateTable {
    /// Tabulate `reports[benchmark][column]` over `suite`'s benchmarks.
    pub fn new(
        suite: &[(Profile, Module)],
        labels: &[&'static str],
        reports: Vec<Vec<Report>>,
    ) -> RateTable {
        let names = suite.iter().map(|(p, _)| p.name).collect();
        RateTable { labels: labels.to_vec(), names, reports }
    }

    /// Print one row per benchmark, then the overall row: the transformed
    /// count (every column validates the same optimizer output) and each
    /// column's validation rate, in columns as wide as the widest label
    /// (8 at least).
    pub fn print_rates(&self) {
        let width = self.labels.iter().map(|l| l.len()).max().unwrap_or(0).max(8);
        print!("{:12} {:>6} |", "benchmark", "xform");
        for label in &self.labels {
            print!(" {label:>width$}");
        }
        let rule = "-".repeat(21 + self.labels.len() * (width + 1));
        println!("\n{rule}");
        let row = |name: &str, cells: &[(usize, usize)]| {
            print!("{name:12} {:>6} |", cells[0].0);
            for &(t, v) in cells {
                print!(" {:>w$.1}%", pct(v, t), w = width - 1);
            }
            println!();
        };
        for (name, reports) in self.names.iter().zip(&self.reports) {
            row(name, &totals(std::slice::from_ref(reports)));
        }
        println!("{rule}");
        row("overall", &totals(&self.reports));
    }

    /// Write the per-column totals to `BENCH_<name>.json` as `{exhibit,
    /// scale, <axis>: [{<key>: label, transformed, validated,
    /// validated_pct}]}` and print the path.
    pub fn write(&self, name: &str, exhibit: &str, scale: usize, (axis, key): (&str, &str)) {
        let columns = self.labels.iter().zip(totals(&self.reports)).map(|(label, (t, v))| {
            Json::obj([
                (key, Json::str(*label)),
                ("transformed", Json::num(t as f64)),
                ("validated", Json::num(v as f64)),
                ("validated_pct", Json::num(pct(v, t))),
            ])
        });
        let artifact = Json::obj([
            ("exhibit", Json::str(exhibit)),
            ("scale", Json::num(scale as f64)),
            (axis, Json::arr(columns)),
        ]);
        let path = write_artifact(name, &artifact)
            .unwrap_or_else(|e| panic!("write BENCH_{name}.json: {e}"));
        println!("wrote {}", path.display());
    }
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

    /// One optimizer run per module validated under each configuration
    /// gives the reports of one whole `llvm_md` run per configuration.
    #[test]
    fn sweep_matches_llvm_md_per_configuration() {
        let suite = suite(50);
        let modules = || suite.iter().map(|(_, m)| m);
        let engine = ValidationEngine::new();
        let tier1 = Validator::new();
        let triage = llvm_md_core::TriageOptions { battery: 8, ..Default::default() };
        let triaging = Validator { cascade: llvm_md_core::Cascade::Triage(triage), ..tier1 };
        let validators = [tier1, triaging];
        for pm in [lir_opt::paper_pipeline(), one_pass("gvn")] {
            let reports = sweep(&engine, modules(), &pm, &validators);
            assert_eq!(reports.len(), suite.len());
            let mut alarms = 0;
            for (m, row) in modules().zip(&reports) {
                for (v, report) in validators.iter().zip(row) {
                    assert_eq!(*report, engine.llvm_md(m, &pm, v).1);
                    alarms += report.alarms();
                }
            }
            assert!(totals(&reports).iter().all(|&(t, v)| v <= t && t > 0));
            if pm.len() > 1 {
                assert!(alarms > 0, "the pipeline sweep must exercise the triage cascade");
            }
        }
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
