//! The persistent verdict store: a sharded, fingerprint-pair-keyed,
//! append-only cache of encoded verdict lines that survives across runs.
//!
//! PR 4's in-process `GraphCache` made re-validation of unchanged functions
//! free *within* one run; this store makes it free *across* runs — the
//! "millions of compilations, validate only what changed" deployment story.
//! The key is the pair of structural fingerprints
//! (`llvm_md_core::cache::fingerprint`) of the original and optimized
//! function; because fingerprints are computed over the canonicalized
//! printed form, a pair that re-appears in any later compilation (same
//! source function, same optimizer output, modulo renaming) maps to the
//! same key and replays its stored verdict **byte-identically** — the store
//! keeps the encoded wire line verbatim, so a repeated batch through
//! `llvm-md serve` answers with exactly the bytes of the first run.
//!
//! # On-disk layout
//!
//! A store directory holds [`SHARDS`] JSON-lines files, `shard-00.jsonl` …
//! `shard-15.jsonl`; each line is one wire-format verdict document (it
//! embeds its own key as `orig_fp`/`opt_fp`, plus `schema_version`). A
//! shard is chosen by FNV-1a over the key bytes, so lines distribute evenly
//! and a future distributed deployment can move whole shards between nodes.
//!
//! Durability is append-only: every insert appends one line and flushes.
//! Crash safety is by construction — a torn final line (no trailing
//! newline, or one that doesn't parse) is ignored at load, never fatal,
//! and everything before it is intact. [`VerdictStore::compact`] rewrites
//! each shard from the live in-memory index via write-to-temp-then-rename,
//! so a crash mid-compaction leaves either the old or the new shard file,
//! both valid.
//!
//! # Bounding
//!
//! The in-memory index (and, after compaction, the disk) is bounded by an
//! entry cap with the shared LRU eviction policy (`llvm_md_core::cache::Lru`,
//! also behind `GraphCache::with_capacity`): a long-running daemon's memory
//! is `O(cap)`, not `O(entries ever seen)`.

use llvm_md_core::cache::Lru;
use llvm_md_core::wire::{self, Json};
use llvm_md_workload::rng::fnv1a;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Number of shard files per store directory.
pub const SHARDS: usize = 16;

/// The default entry cap ([`VerdictStore::open`]).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Counters for one [`VerdictStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live entries in the index.
    pub entries: usize,
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted (including overwrites of an existing key).
    pub inserts: u64,
    /// Entries evicted to stay under the capacity bound.
    pub evictions: u64,
    /// Entries loaded from disk when the store was opened.
    pub loaded: usize,
    /// Disk lines dropped at load (torn tail or schema skew) — nonzero
    /// after an unclean shutdown, never an error.
    pub dropped_lines: usize,
}

struct Inner {
    /// Encoded wire verdict lines, stored verbatim (no trailing newline).
    lines: Lru<(u64, u64), String>,
    stats: StoreStats,
    /// Lazily opened append handles, one per shard (`None` for in-memory
    /// stores).
    appenders: Vec<Option<File>>,
}

/// A persistent, sharded, LRU-bounded verdict store. Thread-safe: the serve
/// loop's workers share it by reference.
pub struct VerdictStore {
    dir: Option<PathBuf>,
    inner: Mutex<Inner>,
}

/// The shard index of a key: FNV-1a over the 16 key bytes.
pub fn shard_of(key: (u64, u64)) -> usize {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&key.0.to_le_bytes());
    bytes[8..].copy_from_slice(&key.1.to_le_bytes());
    (fnv1a(&bytes) % SHARDS as u64) as usize
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:02}.jsonl"))
}

/// Extract the `(orig_fp, opt_fp)` key a stored verdict line embeds.
pub fn line_key(doc: &Json) -> Result<(u64, u64), wire::WireError> {
    Ok((doc.u64_field("orig_fp")?, doc.u64_field("opt_fp")?))
}

impl VerdictStore {
    /// Open (creating if needed) the store at `dir` with the given entry
    /// cap, loading every parseable line from the shard files. Torn or
    /// stale lines are counted in [`StoreStats::dropped_lines`] and
    /// skipped; a later line for a key seen earlier wins (append-only
    /// update semantics).
    pub fn open(dir: &Path, cap: usize) -> std::io::Result<VerdictStore> {
        std::fs::create_dir_all(dir)?;
        let mut inner = Inner::new(cap);
        for shard in 0..SHARDS {
            let path = shard_path(dir, shard);
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let mut rest = text.as_str();
            while let Some(nl) = rest.find('\n') {
                let line = &rest[..nl];
                rest = &rest[nl + 1..];
                match wire::parse(line).and_then(|doc| {
                    wire::check_version(&doc)?;
                    line_key(&doc).map(|key| (key, doc))
                }) {
                    Ok((key, _)) => inner.lines.insert(key, line.to_owned()),
                    Err(_) => inner.stats.dropped_lines += 1,
                }
            }
            // A final segment without a trailing newline is a torn append:
            // ignore it (crash tolerance), count it if non-empty.
            if !rest.is_empty() {
                inner.stats.dropped_lines += 1;
            }
        }
        inner.stats.loaded = inner.lines.len();
        inner.stats.evictions += inner.lines.evict_over_cap();
        inner.stats.entries = inner.lines.len();
        Ok(VerdictStore { dir: Some(dir.to_owned()), inner: Mutex::new(inner) })
    }

    /// An ephemeral store with no backing directory (for tests and
    /// `--store none` runs): same index, same bounds, nothing persisted.
    pub fn in_memory(cap: usize) -> VerdictStore {
        VerdictStore { dir: None, inner: Mutex::new(Inner::new(cap)) }
    }

    /// The backing directory (`None` for in-memory stores).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Look up the stored verdict line for a fingerprint pair, bumping its
    /// LRU stamp on a hit.
    pub fn get(&self, key: (u64, u64)) -> Option<String> {
        let mut inner = self.inner.lock().expect("verdict store poisoned");
        let line = inner.lines.get(&key).cloned();
        match line {
            Some(_) => inner.stats.hits += 1,
            None => inner.stats.misses += 1,
        }
        line
    }

    /// Insert (or overwrite) the verdict line for a key, appending it to
    /// the key's shard file and flushing before returning — a crash right
    /// after `put` loses nothing.
    pub fn put(&self, key: (u64, u64), line: &str) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "verdict lines are newline-framed");
        let mut inner = self.inner.lock().expect("verdict store poisoned");
        inner.lines.insert(key, line.to_owned());
        inner.stats.inserts += 1;
        inner.stats.evictions += inner.lines.evict_over_cap();
        inner.stats.entries = inner.lines.len();
        if let Some(dir) = &self.dir {
            let shard = shard_of(key);
            if inner.appenders[shard].is_none() {
                inner.appenders[shard] = Some(
                    OpenOptions::new().create(true).append(true).open(shard_path(dir, shard))?,
                );
            }
            let file = inner.appenders[shard].as_mut().expect("appender just opened");
            file.write_all(line.as_bytes())?;
            file.write_all(b"\n")?;
            file.flush()?;
        }
        Ok(())
    }

    /// Rewrite every shard from the live index (write-to-temp, then
    /// rename), dropping evicted and superseded lines from disk. A no-op
    /// for in-memory stores.
    pub fn compact(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("verdict store poisoned");
        let Some(dir) = &self.dir else { return Ok(()) };
        // Group live lines per shard, oldest first, so a recovery load
        // reconstructs the same LRU order.
        let mut per_shard: Vec<String> = vec![String::new(); SHARDS];
        for (&key, line) in inner.lines.oldest_first() {
            let buf = &mut per_shard[shard_of(key)];
            buf.push_str(line);
            buf.push('\n');
        }
        for (shard, buf) in per_shard.into_iter().enumerate() {
            let final_path = shard_path(dir, shard);
            let tmp_path = dir.join(format!("shard-{shard:02}.jsonl.tmp"));
            std::fs::write(&tmp_path, buf)?;
            std::fs::rename(&tmp_path, &final_path)?;
        }
        // Old append handles point at unlinked inodes now; reopen lazily.
        for a in &mut inner.appenders {
            *a = None;
        }
        Ok(())
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("verdict store poisoned");
        StoreStats { entries: inner.lines.len(), ..inner.stats }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("verdict store poisoned").lines.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Inner {
    fn new(cap: usize) -> Inner {
        Inner {
            lines: Lru::new(cap),
            stats: StoreStats::default(),
            appenders: (0..SHARDS).map(|_| None).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llvm_md_core::wire::u64_hex;

    fn line(key: (u64, u64), payload: &str) -> String {
        wire::envelope(
            "verdict",
            [
                ("orig_fp".to_owned(), u64_hex(key.0)),
                ("opt_fp".to_owned(), u64_hex(key.1)),
                ("payload".to_owned(), Json::str(payload)),
            ],
        )
        .to_string()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("llvm-md-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_survives_reopen() {
        let dir = tmpdir("reopen");
        let key = (0xdead_beef_0123_4567, 0xfeed_face_89ab_cdef);
        let text = line(key, "first");
        {
            let store = VerdictStore::open(&dir, 64).expect("open");
            assert!(store.get(key).is_none());
            store.put(key, &text).expect("put");
            assert_eq!(store.get(key).as_deref(), Some(text.as_str()));
        }
        let store = VerdictStore::open(&dir, 64).expect("reopen");
        assert_eq!(store.stats().loaded, 1);
        assert_eq!(store.get(key).as_deref(), Some(text.as_str()), "line replayed verbatim");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn later_appends_win_on_reload() {
        let dir = tmpdir("update");
        let key = (1, 2);
        {
            let store = VerdictStore::open(&dir, 64).expect("open");
            store.put(key, &line(key, "old")).expect("put");
            store.put(key, &line(key, "new")).expect("put");
        }
        let store = VerdictStore::open(&dir, 64).expect("reopen");
        assert_eq!(store.get(key), Some(line(key, "new")));
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn final line (simulated crash mid-append) is skipped, not fatal,
    /// and every complete line before it survives.
    #[test]
    fn truncated_shard_tail_is_ignored() {
        let dir = tmpdir("torn");
        let keys: Vec<(u64, u64)> = (0..8).map(|i| (i, i + 100)).collect();
        {
            let store = VerdictStore::open(&dir, 64).expect("open");
            for &key in &keys {
                store.put(key, &line(key, "v")).expect("put");
            }
        }
        // Chop the last 10 bytes off every non-empty shard: each loses its
        // final line's tail.
        let mut torn_shards = 0;
        for shard in 0..SHARDS {
            let path = shard_path(&dir, shard);
            if let Ok(text) = std::fs::read_to_string(&path) {
                if !text.is_empty() {
                    std::fs::write(&path, &text[..text.len().saturating_sub(10)]).unwrap();
                    torn_shards += 1;
                }
            }
        }
        assert!(torn_shards > 0, "test needs at least one populated shard");
        let store = VerdictStore::open(&dir, 64).expect("reopen after tear");
        let stats = store.stats();
        assert_eq!(stats.dropped_lines, torn_shards, "exactly the torn tails dropped");
        assert_eq!(stats.loaded, keys.len() - torn_shards, "intact lines all survive");
        for &key in &keys {
            if let Some(l) = store.get(key) {
                assert_eq!(l, line(key, "v"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_drops_superseded_lines_and_preserves_live_ones() {
        let dir = tmpdir("compact");
        let key = (3, 4);
        {
            let store = VerdictStore::open(&dir, 64).expect("open");
            for i in 0..10 {
                store.put(key, &line(key, &format!("v{i}"))).expect("put");
            }
            store.compact().expect("compact");
            // Appends after compaction must keep working.
            store.put((5, 6), &line((5, 6), "post")).expect("put after compact");
        }
        let shard_bytes: usize = (0..SHARDS)
            .filter_map(|s| std::fs::metadata(shard_path(&dir, s)).ok())
            .map(|m| m.len() as usize)
            .sum();
        assert!(shard_bytes < 10 * line(key, "v0").len(), "compaction must drop dead lines");
        let store = VerdictStore::open(&dir, 64).expect("reopen");
        assert_eq!(store.get(key), Some(line(key, "v9")));
        assert_eq!(store.get((5, 6)), Some(line((5, 6), "post")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capacity_bounds_the_index_with_lru_eviction() {
        let store = VerdictStore::in_memory(16);
        let hot = (0, 0);
        store.put(hot, &line(hot, "hot")).expect("put");
        for i in 1..100u64 {
            store.put((i, i), &line((i, i), "cold")).expect("put");
            assert!(store.get(hot).is_some(), "hot key must survive (touched every round)");
        }
        let stats = store.stats();
        assert!(stats.entries <= 16, "cap must bound the index, entries={}", stats.entries);
        assert!(stats.evictions > 0);
        assert_eq!(stats.inserts, 100);
    }

    #[test]
    fn keys_spread_over_shards() {
        let mut used = [false; SHARDS];
        for i in 0..256u64 {
            used[shard_of((i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))] = true;
        }
        let populated = used.iter().filter(|&&u| u).count();
        assert!(populated >= SHARDS / 2, "256 keys must reach most shards, got {populated}");
    }
}
