//! Zero-dependency micro-benchmark timer: warmup, then median-of-N samples.
//!
//! Replaces `criterion` so the workspace builds offline. Much simpler, but
//! keeps the two properties the perf trajectory needs:
//!
//! * a **warmup** phase so caches/branch predictors settle before sampling;
//! * **median** of many fixed-iteration samples, which is robust to the
//!   occasional scheduler hiccup a mean would smear in.
//!
//! Every sample runs the closure a fixed number of iterations (auto-sized
//! so one sample lasts roughly [`Config::target_sample`]) and records the
//! per-iteration time. Results go to stdout as a table and, via
//! [`BenchReport`], to a machine-readable `BENCH_*.json` consumed by the
//! perf-trajectory tooling (see `ci/bench_baseline.sh`).

use llvm_md_core::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sampling parameters.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Wall-clock spent in warmup before any sample is recorded.
    pub warmup: Duration,
    /// Number of recorded samples (the median is over these).
    pub samples: usize,
    /// Rough wall-clock target for one sample; iterations-per-sample is
    /// sized so a sample lasts about this long.
    pub target_sample: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            warmup: Duration::from_millis(60),
            samples: 25,
            target_sample: Duration::from_millis(8),
        }
    }
}

/// One benchmark's aggregated timing.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark id (`group/param`).
    pub name: String,
    /// Median per-iteration time.
    pub median: Duration,
    /// Fastest per-iteration sample (lower bound on true cost).
    pub min: Duration,
    /// Iterations per sample actually used.
    pub iters_per_sample: u64,
    /// Number of recorded samples.
    pub samples: usize,
}

/// Run `f` under `cfg` and aggregate. The closure's result is passed
/// through [`black_box`] so the computation cannot be optimized away.
pub fn bench<T>(name: &str, cfg: &Config, mut f: impl FnMut() -> T) -> Measurement {
    // Warmup, and in passing estimate the cost of one iteration.
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < cfg.warmup || warm_iters == 0 {
        black_box(f());
        warm_iters += 1;
    }
    let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
    let iters = ((cfg.target_sample.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 1 << 20);

    let mut per_iter_times: Vec<Duration> = Vec::with_capacity(cfg.samples);
    for _ in 0..cfg.samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        per_iter_times.push(t0.elapsed() / iters as u32);
    }
    per_iter_times.sort();
    Measurement {
        name: name.to_string(),
        median: per_iter_times[per_iter_times.len() / 2],
        min: per_iter_times[0],
        iters_per_sample: iters,
        samples: cfg.samples,
    }
}

/// Collects measurements and writes the machine-readable JSON artifact.
#[derive(Default)]
pub struct BenchReport {
    measurements: Vec<Measurement>,
}

impl BenchReport {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run one benchmark, print a human line, and record it.
    pub fn run<T>(&mut self, name: &str, cfg: &Config, f: impl FnMut() -> T) {
        let m = bench(name, cfg, f);
        println!(
            "{:40} median {:>12.3?}  min {:>12.3?}  ({} iters x {} samples)",
            m.name, m.median, m.min, m.iters_per_sample, m.samples
        );
        self.measurements.push(m);
    }

    /// The JSON body: `{"benchmarks": [{name, median_ns, min_ns, ...}]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "benchmarks",
            Json::arr(self.measurements.iter().map(|m| {
                Json::obj([
                    ("name", Json::str(&m.name)),
                    ("median_ns", Json::num(m.median.as_nanos() as f64)),
                    ("min_ns", Json::num(m.min.as_nanos() as f64)),
                    ("iters_per_sample", Json::num(m.iters_per_sample as f64)),
                    ("samples", Json::num(m.samples as f64)),
                ])
            })),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> Config {
        Config {
            warmup: Duration::from_micros(200),
            samples: 5,
            target_sample: Duration::from_micros(200),
        }
    }

    #[test]
    fn measures_something_positive() {
        // `black_box` each input: over a constant range the fold becomes a
        // constant (or a closed form) in release builds, and an iteration
        // that rounds to 0 ns would fail the median check.
        let m = bench("spin", &fast_cfg(), || {
            (0..100u64).fold(0u64, |a, x| a.wrapping_add(black_box(x) * x))
        });
        assert!(m.median > Duration::ZERO);
        assert!(m.min <= m.median);
        assert_eq!(m.samples, 5);
    }

    #[test]
    fn report_serializes() {
        let mut r = BenchReport::new();
        r.run("a/1", &fast_cfg(), || 1 + 1);
        let text = r.to_json().to_string();
        assert!(text.contains("\"benchmarks\""), "{text}");
        assert!(text.contains("\"a/1\""), "{text}");
        assert!(text.contains("\"median_ns\""), "{text}");
    }
}
