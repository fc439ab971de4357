//! `perfbench` — the repository benchmark.
//!
//! One binary, four workloads, run from outside the program: every input is
//! generated here from `--seed`, and the program under test only ever sees
//! those inputs through its public entry points (the in-process workloads)
//! or through the shipped `llvm-md serve` binary (the serve workload).
//!
//! ```text
//! perfbench --workload <suite-tier1|suite-chain|fuzz-cascade|serve-mixed>
//!           --seed N --seconds S --trace <0|1> --llvm-md PATH --work-dir DIR
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs one untraced pass and then the same inputs once more through each
//! layer's public functions, one call at a time, recording spans in memory;
//! it reports the per-layer metrics and writes the spans to
//! `DIR/trace-<workload>-<seed>.jsonl`. The last line of standard output is
//! always the one-line JSON result. `perfbench/run.py` builds this binary
//! and `llvm-md` and is the command to run; `perfbench/README.md` lists the
//! workloads and metrics.

mod inproc;
mod layers;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub llvm_md: PathBuf,
    pub work: PathBuf,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The deterministic counts of one workload at one seed. They repeat
/// exactly run to run; the drift guard compares them with the previous run
/// at the same seed, so generator or verdict drift cannot pass as a timing
/// change.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Drift {
    pub pairs: usize,
    pub transformed: usize,
    pub validated: usize,
    pub alarms: usize,
    pub proved: usize,
    pub store_hits: usize,
    /// FNV-1a over every per-function verdict class, in request order.
    pub classes: u64,
}

impl Drift {
    fn render(&self) -> String {
        format!(
            "pairs={} transformed={} validated={} alarms={} proved={} store_hits={} classes={:016x}",
            self.pairs,
            self.transformed,
            self.validated,
            self.alarms,
            self.proved,
            self.store_hits,
            self.classes
        )
    }
}

/// Operations attempted and failed. Every request and every known-answer
/// check is an attempt; a failed check prints why on standard error.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }
}

/// What one workload run hands back.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    pub drift: Drift,
    /// Queries that ended on `Limits::max_time` (see
    /// `layers::deadline_capped`): their time is the budget, not the work.
    pub deadline_caps: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut llvm_md, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad --seed `{value}`"))?)
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            "--llvm-md" => llvm_md = Some(PathBuf::from(value)),
            "--work-dir" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        llvm_md: llvm_md.ok_or("--llvm-md is required")?,
        work: work.ok_or("--work-dir is required")?,
    })
}

/// Compare this run's deterministic counts with the previous run's at the
/// same workload and seed (traced and untraced runs share the record), and
/// record them when there is no previous run.
fn drift_guard(args: &Args, out: &mut Outcome) -> std::io::Result<()> {
    let dir = args.work.join("drift");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.txt", args.workload, args.seed));
    let now = out.drift.render();
    println!("drift {} seed={}: {now}", args.workload, args.seed);
    match std::fs::read_to_string(&path) {
        Ok(before) => {
            let before = before.trim().to_owned();
            out.checks.check(before == now, || {
                format!(
                    "DRIFT: {} at seed {} changed since the previous run\n  before: {before}\n  now:    {now}",
                    args.workload, args.seed
                )
            });
        }
        Err(_) => std::fs::write(&path, format!("{now}\n"))?,
    }
    Ok(())
}

fn result_line(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.checks.failed == 0,
        out.checks.attempted.max(1),
        out.checks.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    let run = match args.workload.as_str() {
        "suite-tier1" => inproc::suite_tier1(&args),
        "suite-chain" => inproc::suite_chain(&args),
        "fuzz-cascade" => inproc::fuzz_cascade(&args),
        "serve-mixed" => serve::serve_mixed(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = drift_guard(&args, &mut out) {
        eprintln!("perfbench: drift record: {e}");
        return ExitCode::FAILURE;
    }
    if out.deadline_caps > 0 {
        println!(
            "UNSTEADY: {} at seed {}: {} queries ended on the Limits::max_time deadline; their time is the budget and their stats depend on machine speed",
            args.workload, args.seed, out.deadline_caps
        );
    }
    if !args.trace {
        let ok = 1.0 - out.checks.failed as f64 / out.checks.attempted.max(1) as f64;
        out.metrics.push(metric("ok_frac", ok, "frac"));
    }
    for m in &out.metrics {
        println!("  {:24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
