//! Small numeric helpers: order statistics, timed set-up, peak memory.

use std::time::Instant;

/// Median of `v` (`0.0` when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile of `v` (`p` in `0..=1`; `0.0` when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Run `f` [`SETUP_REPS`] times; return the median wall time in seconds and
/// the last result.
pub fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        last = Some(f()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((median(&times), last.expect("SETUP_REPS >= 1")))
}

/// Peak resident set (`VmHWM`) of process `pid` (`None`: this process), in
/// MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A seeded permutation of `0..n` (Fisher–Yates); seed 0 is the identity.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    if seed != 0 {
        let mut rng = llvm_md::workload::SplitMix64::seed_from_u64(seed);
        for i in (1..n).rev() {
            p.swap(i, rng.gen_range(0..=i));
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn permutations() {
        assert_eq!(permutation(5, 0), vec![0, 1, 2, 3, 4]);
        let mut p = permutation(50, 7);
        assert_eq!(p, permutation(50, 7));
        assert_ne!(p, permutation(50, 8));
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }
}
