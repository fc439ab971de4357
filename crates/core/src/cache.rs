//! Structural fingerprints and the keyed gated-graph cache — the substrate
//! of per-pass chain validation (`llvm_md_driver::chain`).
//!
//! A pass pipeline validated step-by-step (M0→M1→…→Mn) touches each
//! intermediate module **twice**: Mk is the optimized side of step k−1 and
//! the original side of step k. Rebuilding gated SSA for both roles — and
//! re-validating functions a pass never touched — wastes most of the chain's
//! work. This module removes both costs:
//!
//! * [`fingerprint`] — an FNV-1a hash of the function's *canonical* printed
//!   form ([`Function::canonicalized`]), so pure register renumbering and
//!   block reordering never count as a change (the same invariance the
//!   driver's `changed` predicate provides, collapsed into one `u64` that is
//!   computed once per module version and compared across every adjacent
//!   pair). Equal fingerprints let a chain step **skip the validation query
//!   entirely** — the same determinism-pinning FNV idiom
//!   `tests/determinism.rs` uses to pin the generated corpus.
//! * [`GraphCache`] — a fingerprint-keyed, thread-safe cache of built
//!   gated-SSA graphs. The graph for Mk's version of a function is built
//!   once and reused by both adjacent steps (and by the end-to-end
//!   cross-check query, whose two sides are always already cached after a
//!   chain run).
//!
//! Cached graphs are built from the **canonicalized** function, so whichever
//! α-equivalent instance populates an entry first, the stored graph is
//! byte-identical — verdicts computed through the cache cannot depend on
//! worker scheduling. [`CacheStats`] hit/miss totals, by contrast, *can*
//! race (two workers may both miss the same key and build concurrently), so
//! they are reporting data and deliberately excluded from the driver's
//! determinism contracts (`ChainReport`'s field table marks them `timing`).
//!
//! Fingerprints are 64-bit hashes, not proofs: two *different* functions
//! colliding would skip a query that should have run. FNV-1a over the full
//! canonical text makes that a ≈2⁻⁶⁴-per-pair event — the same residual risk
//! the pinned-corpus fingerprint already accepts — and the end-to-end
//! cross-check (which validates M0 against Mn through the normal path)
//! bounds the blast radius to a single chain step.

use crate::validate::{Deadline, FailReason, ValidationStats, Validator, Verdict};
use gated_ssa::{GateError, GatedFunction};
use lir::func::{Function, Module};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

// The one FNV-1a implementation (shared with campaign seed derivation and
// the `tests/determinism.rs` fingerprint idiom, so they can never diverge).
// FNV-1a is byte-serial, so streaming the canonical rendering into the
// hasher (`fmt::Write`) yields the exact value `fnv1a(text.as_bytes())`
// would — fingerprints persisted by older binaries (verdict stores, chain
// caches) stay valid — without materializing the printed function.
use lir::intern::Fnv1a;

/// The structural fingerprint of a function: FNV-1a over its canonicalized
/// printed form. Two functions that differ only in register numbering,
/// block order or block names fingerprint identically; any structural
/// change (and the function *name*) changes the hash.
pub fn fingerprint(f: &Function) -> u64 {
    fingerprint_canonical(&f.canonicalized())
}

/// [`fingerprint`] for a function that is *already* canonical
/// ([`Function::canonicalized`] output) — callers that keep the canonical
/// form around (chain validation does, to feed
/// [`GraphCache::gated_canonical`]) pay canonicalization once, not twice.
pub fn fingerprint_canonical(canonical: &Function) -> u64 {
    use std::fmt::Write;
    use std::hash::Hasher;
    let mut h = Fnv1a::new();
    write!(h, "{canonical}").expect("hashing Display output cannot fail");
    h.finish()
}

/// Fingerprints for every function of a module, in function order — the
/// per-version vector chain validation computes once and indexes from both
/// adjacent pairs.
pub fn module_fingerprints(m: &Module) -> Vec<u64> {
    m.functions.iter().map(fingerprint).collect()
}

/// A cached gated-SSA build outcome. Gate *errors* are cached too:
/// an irreducible function stays irreducible for every query that asks.
pub type CachedGated = Arc<Result<GatedFunction, GateError>>;

/// Hit/miss/skip counters for one [`GraphCache`].
///
/// `hits`/`misses` count gated-graph lookups; `skips` counts validation
/// queries that never ran because the two fingerprints were equal. Totals
/// can vary slightly with worker scheduling (concurrent misses on one key
/// both count), so these are reporting data, not part of any determinism
/// contract.
#[derive(Clone, Copy, Debug, Default, Eq)]
pub struct CacheStats {
    /// Gated-graph lookups served from the cache.
    pub hits: u64,
    /// Gated-graph lookups that had to build.
    pub misses: u64,
    /// Validation queries skipped outright via fingerprint equality.
    pub skips: u64,
    /// Entries evicted to stay under the capacity bound
    /// ([`GraphCache::with_capacity`]); always `0` for unbounded caches.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of gated-graph lookups served from the cache (`0.0` when
    /// nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, fingerprint-keyed cache of gated-SSA graphs.
///
/// One `GraphCache` lives for one chain-validation run (the keys are
/// fingerprints of that run's module versions); workers on the driver's
/// pool share it by reference. Builds happen outside the lock — two workers
/// racing on one key may both build, and the first insert wins, which is
/// harmless because canonicalized builds are byte-identical per key.
///
/// [`GraphCache::new`] is unbounded (right for one bounded chain run);
/// long-lived holders — the serve daemon keeps one across requests — use
/// [`GraphCache::with_capacity`], which evicts least-recently-used entries
/// past the cap and counts them in [`CacheStats::evictions`].
#[derive(Debug)]
pub struct GraphCache {
    inner: Mutex<CacheInner>,
}

#[derive(Debug)]
struct CacheInner {
    map: HashMap<u64, (CachedGated, u64)>,
    stats: CacheStats,
    /// Monotonic access counter backing the LRU order.
    stamp: u64,
    /// Entry cap (`usize::MAX` = unbounded).
    cap: usize,
}

impl Default for GraphCache {
    fn default() -> GraphCache {
        GraphCache::new()
    }
}

impl GraphCache {
    /// An empty, unbounded cache.
    pub fn new() -> GraphCache {
        GraphCache::with_capacity(usize::MAX)
    }

    /// An empty cache bounded to at most `cap` graphs: inserting past the
    /// cap evicts least-recently-used entries (a batch at a time, so
    /// steady-state inserts don't re-sort on every call).
    pub fn with_capacity(cap: usize) -> GraphCache {
        GraphCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                stats: CacheStats::default(),
                stamp: 0,
                cap: cap.max(1),
            }),
        }
    }

    /// The gated-SSA graph for a function whose [`fingerprint`] is `fp`,
    /// building (from the canonicalized form) and caching it on first use.
    pub fn gated(&self, fp: u64, f: &Function) -> CachedGated {
        self.gated_with(fp, || gated_ssa::build(&f.canonicalized()))
    }

    /// [`GraphCache::gated`] for a caller that already holds the function's
    /// *canonical* form (e.g. because it just computed the fingerprint from
    /// it): skips the re-canonicalization a miss in `gated` would pay.
    pub fn gated_canonical(&self, fp: u64, canonical: &Function) -> CachedGated {
        self.gated_with(fp, || gated_ssa::build(canonical))
    }

    /// Lookup-or-build: `build` runs only on a miss, outside the lock —
    /// gating can be expensive and queries for *different* keys must not
    /// serialize behind it. Builders must gate a canonical form, so the
    /// cached graph is independent of which α-equivalent instance (and
    /// which worker) got here first.
    fn gated_with(
        &self,
        fp: u64,
        build: impl FnOnce() -> Result<GatedFunction, GateError>,
    ) -> CachedGated {
        {
            let mut inner = self.inner.lock().expect("graph cache poisoned");
            inner.stamp += 1;
            let stamp = inner.stamp;
            if let Some(entry) = inner.map.get_mut(&fp) {
                entry.1 = stamp;
                let g = Arc::clone(&entry.0);
                inner.stats.hits += 1;
                return g;
            }
        }
        let built: CachedGated = Arc::new(build());
        let mut inner = self.inner.lock().expect("graph cache poisoned");
        inner.stats.misses += 1;
        inner.stamp += 1;
        let stamp = inner.stamp;
        let g = Arc::clone(&inner.map.entry(fp).or_insert((built, stamp)).0);
        inner.evict_over_cap();
        g
    }

    /// Record `n` validation queries skipped via fingerprint equality.
    pub fn record_skips(&self, n: u64) {
        self.inner.lock().expect("graph cache poisoned").stats.skips += n;
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("graph cache poisoned").stats
    }

    /// Number of cached graphs.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("graph cache poisoned").map.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CacheInner {
    /// Evict least-recently-used entries when over capacity. Evicts in a
    /// batch down to ⅞ of the cap (not just one entry), so a cache sitting
    /// at its cap doesn't pay a full sort on every subsequent insert.
    fn evict_over_cap(&mut self) {
        if self.map.len() <= self.cap {
            return;
        }
        let target = (self.cap - self.cap / 8).max(1);
        let mut by_age: Vec<(u64, u64)> =
            self.map.iter().map(|(&fp, &(_, stamp))| (stamp, fp)).collect();
        by_age.sort_unstable();
        let surplus = self.map.len() - target;
        for &(_, fp) in by_age.iter().take(surplus) {
            self.map.remove(&fp);
            self.stats.evictions += 1;
        }
    }
}

impl Validator {
    /// [`Validator::validate`] through a [`GraphCache`]: `fps` are the
    /// precomputed [`fingerprint`]s of `(original, optimized)`.
    ///
    /// Equal fingerprints short-circuit to a validated verdict without
    /// building anything (recorded as a skip — the functions are
    /// structurally identical modulo renaming, which is semantics
    /// preservation by construction). Otherwise both gated graphs come from
    /// the cache and the query runs under one [`Deadline`] exactly like the
    /// uncached path; cache hits simply don't pay the gating cost again.
    pub fn validate_cached(
        &self,
        original: &Function,
        optimized: &Function,
        fps: (u64, u64),
        cache: &GraphCache,
    ) -> Verdict {
        self.validate_cached_impl(original, optimized, fps, cache, false)
    }

    /// [`Validator::validate_cached`] for callers that hold the *canonical*
    /// forms of both functions (chain validation keeps them from computing
    /// the fingerprints): cache misses gate them directly instead of
    /// re-canonicalizing. Semantically identical — canonicalization only
    /// renames/reorders.
    pub fn validate_cached_canonical(
        &self,
        original: &Function,
        optimized: &Function,
        fps: (u64, u64),
        cache: &GraphCache,
    ) -> Verdict {
        self.validate_cached_impl(original, optimized, fps, cache, true)
    }

    fn validate_cached_impl(
        &self,
        original: &Function,
        optimized: &Function,
        fps: (u64, u64),
        cache: &GraphCache,
        canonical: bool,
    ) -> Verdict {
        let deadline = Deadline::starting_now(self.limits.max_time);
        let mut stats = ValidationStats::default();
        if fps.0 == fps.1 {
            cache.record_skips(1);
            stats.duration = deadline.elapsed();
            return Verdict { validated: true, reason: None, stats };
        }
        let sig = |f: &Function| (f.ret, f.params.iter().map(|&(_, t)| t).collect::<Vec<_>>());
        if sig(original) != sig(optimized) {
            stats.duration = deadline.elapsed();
            return Verdict::fail(FailReason::Signature, stats);
        }
        // Like `GraphCache::gated(_canonical)` but honoring this
        // validator's interner mode (both modes build byte-identical
        // graphs, so mixed-mode sharing of one cache stays sound).
        let lookup = |fp: u64, f: &Function| {
            if canonical {
                cache.gated_with(fp, || gated_ssa::build_with(f, self.interning))
            } else {
                cache.gated_with(fp, || gated_ssa::build_with(&f.canonicalized(), self.interning))
            }
        };
        let go = lookup(fps.0, original);
        let gt = lookup(fps.1, optimized);
        let go = match go.as_ref() {
            Ok(g) => g,
            Err(e) => {
                stats.duration = deadline.elapsed();
                return Verdict::fail(FailReason::Gate(e.clone()), stats);
            }
        };
        let gt = match gt.as_ref() {
            Ok(g) => g,
            Err(e) => {
                stats.duration = deadline.elapsed();
                return Verdict::fail(FailReason::Gate(e.clone()), stats);
            }
        };
        if deadline.expired() {
            stats.duration = deadline.elapsed();
            return Verdict::fail(FailReason::Budget, stats);
        }
        let mut v = self.validate_gated_with_deadline(go, gt, &deadline);
        v.stats.duration = deadline.elapsed();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse::parse_module;

    fn func(src: &str) -> Function {
        parse_module(src).expect("parse").functions.remove(0)
    }

    /// The streamed fingerprint (canonical rendering fed incrementally into
    /// the FNV hasher) equals FNV-1a over the materialized string — the
    /// compatibility that keeps persisted verdict-store keys and chain
    /// caches valid across the streaming change.
    #[test]
    fn streamed_fingerprint_matches_string_hash() {
        let f = func("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 3\n  ret i64 %x\n}\n");
        let canonical = f.canonicalized();
        let text = format!("{canonical}");
        assert_eq!(
            fingerprint_canonical(&canonical),
            llvm_md_workload::rng::fnv1a(text.as_bytes())
        );
    }

    /// Renaming/renumbering never changes the fingerprint; structure does.
    #[test]
    fn fingerprint_is_alpha_invariant() {
        let a = func("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 3\n  ret i64 %x\n}\n");
        let b = func("define i64 @f(i64 %q) {\nstart:\n  %zz = add i64 %q, 3\n  ret i64 %zz\n}\n");
        let c = func("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 4\n  ret i64 %x\n}\n");
        assert_eq!(fingerprint(&a), fingerprint(&b), "renaming must not change the fingerprint");
        assert_ne!(fingerprint(&a), fingerprint(&c), "a structural change must");
        // The function name participates: same body, different name.
        let mut d = a.clone();
        d.name = "g".to_owned();
        assert_ne!(fingerprint(&a), fingerprint(&d));
    }

    /// Second lookup of the same key is a hit and returns the same graph.
    #[test]
    fn cache_hits_share_one_build() {
        let f = func("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 3\n  ret i64 %x\n}\n");
        let fp = fingerprint(&f);
        let cache = GraphCache::new();
        let g1 = cache.gated(fp, &f);
        let g2 = cache.gated(fp, &f);
        assert!(Arc::ptr_eq(&g1, &g2), "hit must return the cached build");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, ..CacheStats::default() });
        assert_eq!(cache.len(), 1);
    }

    /// The cached path and the plain path agree on the verdict.
    #[test]
    fn validate_cached_matches_validate() {
        let orig = func(
            "define i64 @f(i64 %a) {\nentry:\n  %x1 = add i64 3, 3\n  %x2 = mul i64 %a, %x1\n  ret i64 %x2\n}\n",
        );
        let opt = func("define i64 @f(i64 %a) {\nentry:\n  %y = mul i64 %a, 6\n  ret i64 %y\n}\n");
        let bad = func("define i64 @f(i64 %a) {\nentry:\n  %y = mul i64 %a, 7\n  ret i64 %y\n}\n");
        let v = Validator::new();
        let cache = GraphCache::new();
        let fo = fingerprint(&orig);
        let good = v.validate_cached(&orig, &opt, (fo, fingerprint(&opt)), &cache);
        assert_eq!(good.validated, v.validate(&orig, &opt).validated);
        assert!(good.validated, "{:?}", good.reason);
        let alarm = v.validate_cached(&orig, &bad, (fo, fingerprint(&bad)), &cache);
        assert!(!alarm.validated);
        assert_eq!(alarm.reason, Some(FailReason::RootsDiffer));
        // The original's graph was reused across the two queries.
        assert_eq!(cache.stats().hits, 1);
    }

    /// Equal fingerprints skip the query entirely and record the skip.
    #[test]
    fn equal_fingerprints_skip_validation() {
        let f = func("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 3\n  ret i64 %x\n}\n");
        let renamed =
            func("define i64 @f(i64 %b) {\nentry:\n  %y = add i64 %b, 3\n  ret i64 %y\n}\n");
        let cache = GraphCache::new();
        let fp = fingerprint(&f);
        assert_eq!(fp, fingerprint(&renamed));
        let v = Validator::new().validate_cached(&f, &renamed, (fp, fp), &cache);
        assert!(v.validated);
        assert_eq!(v.stats.rounds, 0, "skip must not normalize");
        assert_eq!(cache.stats(), CacheStats { skips: 1, ..CacheStats::default() });
        assert!(cache.is_empty(), "skip must not build a graph");
    }

    /// A bounded cache evicts its least-recently-used graphs, keeps hot
    /// ones, and counts the evictions.
    #[test]
    fn bounded_cache_evicts_lru() {
        let funcs: Vec<Function> = (0..12)
            .map(|i| {
                func(&format!(
                    "define i64 @f{i}(i64 %a) {{\nentry:\n  %x = add i64 %a, {i}\n  ret i64 %x\n}}\n"
                ))
            })
            .collect();
        let fps: Vec<u64> = funcs.iter().map(fingerprint).collect();
        let cache = GraphCache::with_capacity(8);
        for (fp, f) in fps.iter().zip(&funcs) {
            cache.gated(*fp, f);
            // Keep key 0 hot so recency (not insertion order) decides.
            cache.gated(fps[0], &funcs[0]);
        }
        assert!(cache.len() <= 8, "cap must bound the cache, len={}", cache.len());
        let stats = cache.stats();
        assert!(stats.evictions > 0, "inserting past the cap must evict");
        let before = cache.stats().hits;
        cache.gated(fps[0], &funcs[0]);
        assert_eq!(cache.stats().hits, before + 1, "the hot key must have survived eviction");
        // An unbounded cache never evicts.
        let unbounded = GraphCache::new();
        for (fp, f) in fps.iter().zip(&funcs) {
            unbounded.gated(*fp, f);
        }
        assert_eq!(unbounded.stats().evictions, 0);
        assert_eq!(unbounded.len(), funcs.len());
    }

    /// Gate errors are cached and reported like the plain path.
    #[test]
    fn gate_errors_are_cached() {
        // Irreducible CFG: two-way entry into a cycle.
        let irr = func(
            "define i64 @f(i1 %c) {\n\
             entry:\n  br i1 %c, label %a, label %b\n\
             a:\n  br label %b\n\
             b:\n  br label %a\n\
             }\n",
        );
        let ok = func("define i64 @f(i1 %c) {\nentry:\n  ret i64 0\n}\n");
        let cache = GraphCache::new();
        let v = Validator::new().validate_cached(
            &ok,
            &irr,
            (fingerprint(&ok), fingerprint(&irr)),
            &cache,
        );
        assert!(matches!(v.reason, Some(FailReason::Gate(_))), "{:?}", v.reason);
    }
}
