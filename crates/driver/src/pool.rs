//! The work-stealing worker pool behind [`ValidationEngine`].
//!
//! Jobs (indices into the caller's item slice) are seeded into per-worker
//! deques as contiguous chunks in input order. Each worker pops its own
//! deque LIFO — the tail of its chunk is the most recently touched cache
//! lines — and, when its deque runs dry, steals FIFO from the next
//! non-empty victim (scanning round-robin from its right-hand neighbor), so
//! a steal takes the *oldest* job of the victim's chunk and leaves the
//! victim its hot tail. Compared to the previous single shared atomic
//! counter, contention is now per-deque: workers only synchronize when a
//! chunk is exhausted, not on every job.
//!
//! **Determinism.** The job set is static (seeded once, nothing enqueues
//! during the run) and every job is popped exactly once, so each item is
//! mapped exactly once no matter how the steals interleave; results are
//! written back by job index and returned in input order. Validation
//! queries are pure, so schedule only moves wall-clock time around — the
//! driver's report equalities hold at every worker count.
//! [`PoolStats`] steal/batch counters, by contrast, *do* vary with
//! scheduling; like `llvm_md_core::CacheStats` they are reporting data and
//! deliberately excluded from every determinism contract.
//!
//! Termination: deques only drain, so once one worker's full scan finds
//! every deque empty, no job can appear later — exiting is safe even while
//! other workers still run their last (already popped) jobs.
//!
//! [`ValidationEngine`]: crate::ValidationEngine

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Process-wide count of parallel batches dispatched through the pool.
static BATCHES: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of jobs obtained by stealing from another worker.
static STEALS: AtomicU64 = AtomicU64::new(0);

/// Cumulative work-stealing counters for this process.
///
/// Like [`CacheStats`](llvm_md_core::CacheStats), these are **reporting
/// data, not part of any determinism contract**: how many steals a batch
/// sees depends on OS scheduling and varies run to run, while the reports
/// built on the pool (`Report`, `ChainReport`, `CampaignReport`) stay
/// equal at every worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel batches dispatched (serial `workers = 1` runs don't count —
    /// they never enter the pool).
    pub batches: u64,
    /// Jobs executed by a worker other than the one they were seeded to.
    pub steals: u64,
}

/// A snapshot of the process-wide pool counters.
pub fn pool_stats() -> PoolStats {
    PoolStats { batches: BATCHES.load(Ordering::Relaxed), steals: STEALS.load(Ordering::Relaxed) }
}

/// Map `f` over `items` with `workers` threads on sharded work-stealing
/// deques; results return in input order. The calling thread is worker 0,
/// so a batch spawns `workers - 1` threads. Callers guarantee
/// `2 <= workers <= items.len()` (the serial case stays inline in
/// `run_jobs`).
pub(crate) fn run_stealing<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    debug_assert!((2..=n).contains(&workers), "serial runs bypass the pool");
    // Seed contiguous chunks of job indices, in input order.
    let chunk = n.div_ceil(workers);
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = (w * chunk).min(n);
            let hi = ((w + 1) * chunk).min(n);
            Mutex::new((lo..hi).collect())
        })
        .collect();
    BATCHES.fetch_add(1, Ordering::Relaxed);

    // One worker's loop: pop its own deque, steal once it drains, and
    // return the `(job index, result)` pairs it ran.
    let work = |w: usize| -> Vec<(usize, R)> {
        let mut done = Vec::new();
        loop {
            // LIFO from our own deque first.
            let mut job = deques[w].lock().expect("pool deque poisoned").pop_back();
            if job.is_none() {
                // FIFO steal, scanning victims from our right.
                for off in 1..workers {
                    let v = (w + off) % workers;
                    job = deques[v].lock().expect("pool deque poisoned").pop_front();
                    if job.is_some() {
                        STEALS.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            // Deques only drain: a fully empty scan is final.
            let Some(i) = job else { break };
            done.push((i, f(&items[i])));
        }
        done
    };

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|s| {
        // Worker 0 is the calling thread: only workers 1.. are spawned.
        let work = &work;
        let handles: Vec<_> = (1..workers).map(|w| s.spawn(move || work(w))).collect();
        let mine = work(0);
        let theirs = handles.into_iter().map(|h| h.join().expect("validation worker panicked"));
        for (i, r) in std::iter::once(mine).chain(theirs).flatten() {
            slots[i] = Some(r);
        }
    });
    slots.into_iter().map(|r| r.expect("work deques covered every job")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every job runs exactly once and results come back in input order,
    /// for worker counts around and past the item count.
    #[test]
    fn stealing_covers_every_job_in_order() {
        let items: Vec<usize> = (0..97).collect();
        for workers in [2, 3, 4, 8] {
            let out = run_stealing(workers.min(items.len()), &items, |&i| i * 2);
            assert_eq!(out, items.iter().map(|&i| i * 2).collect::<Vec<_>>());
        }
    }

    /// Unbalanced jobs force steals: one seeded chunk is far slower than
    /// the rest, so the other workers must drain it FIFO for the batch to
    /// finish — and the steal counter (reporting data only) records that.
    #[test]
    fn unbalanced_batches_steal() {
        let before = pool_stats();
        // 2 workers, 64 jobs: worker 0's whole chunk (jobs 0..32) is slow,
        // worker 1's chunk is instant, so worker 1 must steal to finish.
        let items: Vec<usize> = (0..64).collect();
        let out = run_stealing(2, &items, |&i| {
            if i < 32 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        let after = pool_stats();
        assert!(after.batches > before.batches, "batch must be counted");
        assert!(after.steals > before.steals, "an unbalanced batch must steal");
    }
}
