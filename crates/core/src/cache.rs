//! Structural fingerprints and the keyed gated-graph cache — the substrate
//! of per-pass chain validation (`llvm_md_driver::chain`).
//!
//! A pass pipeline validated step-by-step (M0→M1→…→Mn) touches each
//! intermediate module **twice**: Mk is the optimized side of step k−1 and
//! the original side of step k. Rebuilding gated SSA for both roles — and
//! re-validating functions a pass never touched — wastes most of the chain's
//! work. This module removes both costs:
//!
//! * [`fingerprint`] — an FNV-1a hash over the structure of the function's
//!   *canonical* form ([`Function::canonicalized`]), so pure register
//!   renumbering and block reordering never count as a change (the same
//!   invariance the driver's `changed` predicate provides, collapsed into
//!   one `u64` that is
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
//! canonical structure makes that a ≈2⁻⁶⁴-per-pair event — the same residual risk
//! the pinned-corpus fingerprint already accepts — and the end-to-end
//! cross-check (which validates M0 against Mn through the normal path)
//! bounds the blast radius to a single chain step.

use gated_ssa::{GateError, GatedFunction};
use lir::func::Function;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

// The one FNV-1a implementation (shared with campaign seed derivation and
// the `tests/determinism.rs` fingerprint idiom, so they can never diverge).
use lir::intern::Fnv1a;

/// The structural fingerprint of a function: FNV-1a over the structure of
/// its canonical form. Two functions that differ only in register
/// numbering, block order or block names fingerprint identically; any
/// structural change (and the function *name*) changes the hash.
pub fn fingerprint(f: &Function) -> u64 {
    fingerprint_canonical(&f.canonicalized())
}

/// [`fingerprint`] for a function that is *already* canonical
/// ([`Function::canonicalized`] output) — callers that keep the canonical
/// form around (chain validation does, to feed
/// [`Validator::validate_cascade_cached`]) pay canonicalization once, not
/// twice.
///
/// The hash walks the function's fields ([`Function`]'s `Hash`, which
/// covers everything its text shows) instead of formatting its text: two
/// canonical functions get equal keys exactly when their prints are equal
/// (`tests/properties.rs` checks this on the suite and the fuzz campaign),
/// at about a third of the cost of hashing the print. The keys are
/// persisted by the verdict store, so a change to this walk is a store
/// format change. The walk is the standard library's derived `Hash`, whose
/// byte stream the toolchain may change; a store written by another
/// toolchain then only misses.
///
/// [`Validator::validate_cascade_cached`]: crate::Validator::validate_cascade_cached
pub fn fingerprint_canonical(canonical: &Function) -> u64 {
    let mut h = Fnv1a::new();
    canonical.hash(&mut h);
    h.finish()
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

/// A map bounded by an entry cap with least-recently-used eviction — the
/// one policy behind [`GraphCache`] and the driver's verdict store. Every
/// access stamps its entry from a monotonic counter; [`Lru::evict_over_cap`]
/// drops the oldest stamps in a batch down to ⅞ of the cap (not just one
/// entry), so a map sitting at its cap doesn't pay a full sort on every
/// later insert. Inserts never evict by themselves: the holder decides
/// when ([`GraphCache`] after every miss, the store after every put and
/// once after loading its files).
#[derive(Debug)]
pub struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    stamp: u64,
    cap: usize,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// An empty map holding at most `cap` entries (at least 1;
    /// `usize::MAX` never evicts).
    pub fn new(cap: usize) -> Lru<K, V> {
        Lru { map: HashMap::new(), stamp: 0, cap: cap.max(1) }
    }

    /// The value for `key`, marking it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let entry = self.map.get_mut(key)?;
        self.stamp += 1;
        entry.1 = self.stamp;
        Some(&entry.0)
    }

    /// Insert `value` under `key`, replacing any earlier value: the later
    /// insert wins.
    pub fn insert(&mut self, key: K, value: V) {
        self.stamp += 1;
        self.map.insert(key, (value, self.stamp));
    }

    /// The value under `key`, inserting `value` only when the key is
    /// absent: the first insert wins.
    pub fn get_or_insert(&mut self, key: K, value: V) -> &V {
        self.stamp += 1;
        &self.map.entry(key).or_insert((value, self.stamp)).0
    }

    /// Evict least-recently-used entries down to ⅞ of the cap when over
    /// it; returns how many were evicted.
    pub fn evict_over_cap(&mut self) -> u64 {
        if self.map.len() <= self.cap {
            return 0;
        }
        let surplus = self.map.len() - (self.cap - self.cap / 8).max(1);
        let oldest: Vec<K> =
            self.oldest_first().into_iter().take(surplus).map(|(&key, _)| key).collect();
        for key in &oldest {
            self.map.remove(key);
        }
        surplus as u64
    }

    /// Every entry, least recently used first.
    pub fn oldest_first(&self) -> Vec<(&K, &V)> {
        let mut entries: Vec<(&K, &(V, u64))> = self.map.iter().collect();
        entries.sort_unstable_by_key(|(_, (_, stamp))| *stamp);
        entries.into_iter().map(|(key, (value, _))| (key, value)).collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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
/// [`GraphCache::with_capacity`] bounds it with the shared [`Lru`] policy
/// and counts evictions in [`CacheStats::evictions`].
#[derive(Debug)]
pub struct GraphCache {
    inner: Mutex<CacheInner>,
}

#[derive(Debug)]
struct CacheInner {
    graphs: Lru<u64, CachedGated>,
    stats: CacheStats,
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
    /// cap evicts least-recently-used entries ([`Lru::evict_over_cap`]).
    pub fn with_capacity(cap: usize) -> GraphCache {
        GraphCache {
            inner: Mutex::new(CacheInner { graphs: Lru::new(cap), stats: CacheStats::default() }),
        }
    }

    /// The gated-SSA graph for a function whose [`fingerprint`] is `fp`,
    /// given its *canonical* form ([`Function::canonicalized`]), building
    /// and caching it on first use.
    pub fn gated_canonical(&self, fp: u64, canonical: &Function) -> CachedGated {
        self.gated_with(fp, || gated_ssa::build(canonical))
    }

    /// Lookup-or-build: `build` runs only on a miss, outside the lock —
    /// gating can be expensive and queries for *different* keys must not
    /// serialize behind it. Builders must gate a canonical form, so the
    /// cached graph is independent of which α-equivalent instance (and
    /// which worker) got here first.
    pub(crate) fn gated_with(
        &self,
        fp: u64,
        build: impl FnOnce() -> Result<GatedFunction, GateError>,
    ) -> CachedGated {
        {
            let mut inner = self.inner.lock().expect("graph cache poisoned");
            if let Some(g) = inner.graphs.get(&fp).map(Arc::clone) {
                inner.stats.hits += 1;
                return g;
            }
        }
        let built: CachedGated = Arc::new(build());
        let mut inner = self.inner.lock().expect("graph cache poisoned");
        inner.stats.misses += 1;
        let g = Arc::clone(inner.graphs.get_or_insert(fp, built));
        inner.stats.evictions += inner.graphs.evict_over_cap();
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
        self.inner.lock().expect("graph cache poisoned").graphs.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatOptions;
    use crate::triage::{Cascade, TriageOptions, VerdictClass};
    use crate::{FailReason, RuleSet, Validator};
    use lir::func::Module;
    use lir::parse::parse_module;

    fn func(src: &str) -> Function {
        parse_module(src).expect("parse").functions.remove(0)
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
        let f = func("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 3\n  ret i64 %x\n}\n")
            .canonicalized();
        let fp = fingerprint_canonical(&f);
        let cache = GraphCache::new();
        let g1 = cache.gated_canonical(fp, &f);
        let g2 = cache.gated_canonical(fp, &f);
        assert!(Arc::ptr_eq(&g1, &g2), "hit must return the cached build");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, ..CacheStats::default() });
        assert_eq!(cache.len(), 1);
    }

    /// The cached cascade on canonical forms reports exactly what the
    /// uncached cascade reports on the raw forms — for a validated pair, a
    /// `RootsDiffer` alarm, and a pair only tier 2 proves, which shows the
    /// cached query hands its own fixpoint to tier 2.
    #[test]
    fn cached_cascade_matches_uncached() {
        let orig = func(
            "define i64 @f(i64 %a) {\nentry:\n  %x1 = add i64 3, 3\n  %x2 = mul i64 %a, %x1\n  ret i64 %x2\n}\n",
        );
        let opt = func("define i64 @f(i64 %a) {\nentry:\n  %y = mul i64 %a, 6\n  ret i64 %y\n}\n");
        let bad = func("define i64 @f(i64 %a) {\nentry:\n  %y = mul i64 %a, 7\n  ret i64 %y\n}\n");
        let or_and = func(
            "define i64 @f(i64 %a, i64 %b) {\nentry:\n  %o = or i64 %a, %b\n  %n = and i64 %a, %b\n  %r = add i64 %o, %n\n  ret i64 %r\n}\n",
        );
        let sum = func(
            "define i64 @f(i64 %a, i64 %b) {\nentry:\n  %r = add i64 %a, %b\n  ret i64 %r\n}\n",
        );
        let cascade = Cascade::Tiered(TriageOptions::default(), SatOptions::default());
        let v = Validator { cascade, ..Validator::new() };
        let strict = Validator { rules: RuleSet::none(), ..v };
        let env = Module::default();
        let cache = GraphCache::new();
        let differ = Some(FailReason::RootsDiffer);
        let cases = [
            (&v, &orig, &opt, None, VerdictClass::Validated),
            (&v, &orig, &bad, differ.clone(), VerdictClass::RealMiscompile),
            (&strict, &or_and, &sum, differ, VerdictClass::ProvedEquivalent),
        ];
        for (v, o, t, reason, class) in cases {
            let (co, ct) = (o.canonicalized(), t.canonicalized());
            let fps = (fingerprint_canonical(&co), fingerprint_canonical(&ct));
            let cached = v.validate_cascade_cached(&env, &co, &ct, fps, &cache);
            assert_eq!(cached, v.validate_cascade(&env, o, t), "{class}");
            assert_eq!(cached.verdict.reason, reason, "{class}");
            assert_eq!(cached.class(), class);
        }
        // The original's graph was reused across the first two queries.
        assert_eq!(cache.stats().hits, 1);
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
                .canonicalized()
            })
            .collect();
        let fps: Vec<u64> = funcs.iter().map(fingerprint_canonical).collect();
        let cache = GraphCache::with_capacity(8);
        for (fp, f) in fps.iter().zip(&funcs) {
            cache.gated_canonical(*fp, f);
            // Keep key 0 hot so recency (not insertion order) decides.
            cache.gated_canonical(fps[0], &funcs[0]);
        }
        assert!(cache.len() <= 8, "cap must bound the cache, len={}", cache.len());
        let stats = cache.stats();
        assert!(stats.evictions > 0, "inserting past the cap must evict");
        let before = cache.stats().hits;
        cache.gated_canonical(fps[0], &funcs[0]);
        assert_eq!(cache.stats().hits, before + 1, "the hot key must have survived eviction");
        // An unbounded cache never evicts.
        let unbounded = GraphCache::new();
        for (fp, f) in fps.iter().zip(&funcs) {
            unbounded.gated_canonical(*fp, f);
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
        )
        .canonicalized();
        let ok = func("define i64 @f(i1 %c) {\nentry:\n  ret i64 0\n}\n").canonicalized();
        let cache = GraphCache::new();
        let fps = (fingerprint_canonical(&ok), fingerprint_canonical(&irr));
        let tv =
            Validator::new().validate_cascade_cached(&Module::default(), &ok, &irr, fps, &cache);
        assert!(matches!(tv.verdict.reason, Some(FailReason::Gate(_))), "{:?}", tv.verdict.reason);
        assert_eq!(cache.len(), 2, "the gate error is cached like a graph");
    }
}
