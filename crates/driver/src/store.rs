//! The persistent verdict store: a sharded, fingerprint-pair-keyed,
//! append-only cache of encoded verdict lines that survives across runs.
//!
//! PR 4's in-process `GraphCache` made re-validation of unchanged functions
//! free *within* one run; this store makes it free *across* runs — the
//! "millions of compilations, validate only what changed" deployment story.
//! The key is the pair of structural fingerprints
//! (`llvm_md_core::cache::fingerprint`) of the original and optimized
//! function; because fingerprints are computed over the canonicalized
//! structure, a pair that re-appears in any later compilation (same
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
//! # Format v2: the serving stamp
//!
//! Every line opens with a fixed-width [`ServingStamp`] field,
//! `{"stamp":"<16 hex digits>",`: FNV-1a over the wire encoding of the
//! writer's verdict-relevant validator configuration. A lookup names the
//! stamp it serves under ([`VerdictStore::lookup`]) and gets a line only
//! when those leading bytes are equal, so a store shared by differently
//! configured servers never answers one with another's verdict, and the
//! check reads no JSON. Whether the line's class is `validated` is kept
//! beside it in the index, set when it is put and when it is loaded.
//! Lines without the stamp (format v1) are dropped at load, and a v1 line
//! put in memory never matches a stamp: either way the pair re-validates
//! and its entry is overwritten.
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
use llvm_md_core::wire::{self, Json, ToWire};
use llvm_md_core::{Validator, VerdictClass};
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
    /// Disk lines dropped at load (torn tail, schema skew or no serving
    /// stamp) — nonzero after an unclean shutdown or a format upgrade,
    /// never an error.
    pub dropped_lines: usize,
}

/// The serving stamp: FNV-1a over a validator's verdict-relevant
/// configuration (its [`ToWire`] encoding, which leaves out the interner
/// and the wall-clock budgets). Two servers share stored verdicts exactly
/// when their stamps are equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServingStamp {
    /// `{"stamp":"<16 hex digits>",`.
    prefix: String,
}

/// `{"stamp":"` — how every format-v2 line starts.
const STAMP_OPEN: &str = "{\"stamp\":\"";

/// Bytes of a line's stamp field, from the opening brace through the comma
/// after the 16 hex digits.
pub const STAMP_WIDTH: usize = STAMP_OPEN.len() + 16 + 2;

impl ServingStamp {
    /// The stamp of everything `validator` would answer.
    pub fn of(validator: &Validator) -> ServingStamp {
        let hash = fnv1a(validator.to_wire().to_string().as_bytes());
        ServingStamp { prefix: format!("{STAMP_OPEN}{hash:016x}\",") }
    }

    /// The [`STAMP_WIDTH`] bytes every line under this stamp starts with.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Encode `doc`, a non-empty object, with this stamp as its first
    /// field.
    pub fn line(&self, doc: &Json) -> String {
        let body = doc.to_string();
        debug_assert!(body.starts_with('{') && body.len() > 2, "stamped lines are objects");
        format!("{}{}", self.prefix, &body[1..])
    }
}

/// Whether `line` opens with a well-formed stamp field (format v2).
fn is_stamped(line: &str) -> bool {
    line.get(..STAMP_WIDTH).is_some_and(|p| {
        p.starts_with(STAMP_OPEN)
            && p.ends_with("\",")
            && p[STAMP_OPEN.len()..STAMP_WIDTH - 2].bytes().all(|b| b.is_ascii_hexdigit())
    })
}

/// Whether a parsed verdict document's class is `validated`.
fn is_validated(doc: &Json) -> bool {
    doc.get("class").and_then(Json::as_str) == Some(VerdictClass::Validated.to_string().as_str())
}

/// One indexed line and whether its class is `validated`.
struct Entry {
    line: String,
    validated: bool,
}

struct Inner {
    /// Encoded wire verdict lines, stored verbatim (no trailing newline).
    lines: Lru<(u64, u64), Entry>,
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
    /// cap, loading every parseable, stamped line from the shard files.
    /// Torn, stale-schema and unstamped lines are counted in
    /// [`StoreStats::dropped_lines`] and skipped; a later line for a key
    /// seen earlier wins (append-only update semantics).
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
                    line_key(&doc).map(|key| (key, is_validated(&doc)))
                }) {
                    Ok((key, validated)) if is_stamped(line) => {
                        inner.lines.insert(key, Entry { line: line.to_owned(), validated })
                    }
                    _ => inner.stats.dropped_lines += 1,
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

    /// Look up the stored verdict line for a fingerprint pair, whatever
    /// its stamp, bumping its LRU position on a hit.
    pub fn get(&self, key: (u64, u64)) -> Option<String> {
        self.find(key, |_| true).map(|(line, _)| line)
    }

    /// Look up the line for a fingerprint pair written under `stamp`:
    /// `(line, validated)` when the line's leading bytes equal the stamp's
    /// prefix. A line under another stamp counts as a miss.
    pub fn lookup(&self, key: (u64, u64), stamp: &ServingStamp) -> Option<(String, bool)> {
        self.find(key, |line| line.starts_with(stamp.prefix()))
    }

    fn find(&self, key: (u64, u64), accept: impl Fn(&str) -> bool) -> Option<(String, bool)> {
        let mut inner = self.inner.lock().expect("verdict store poisoned");
        let found = inner
            .lines
            .get(&key)
            .filter(|e| accept(&e.line))
            .map(|e| (e.line.clone(), e.validated));
        match found {
            Some(_) => inner.stats.hits += 1,
            None => inner.stats.misses += 1,
        }
        found
    }

    /// Insert (or overwrite) the verdict line for a key, reading whether
    /// its class is `validated` from the line itself. See
    /// [`VerdictStore::put_verdict`].
    pub fn put(&self, key: (u64, u64), line: &str) -> std::io::Result<()> {
        let validated = wire::parse(line).is_ok_and(|doc| is_validated(&doc));
        self.put_verdict(key, line, validated)
    }

    /// Insert (or overwrite) the verdict line for a key, whose class is
    /// `validated` or not, appending it to the key's shard file and
    /// flushing before returning — a crash right after the put loses
    /// nothing.
    pub fn put_verdict(&self, key: (u64, u64), line: &str, validated: bool) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "verdict lines are newline-framed");
        let mut inner = self.inner.lock().expect("verdict store poisoned");
        inner.lines.insert(key, Entry { line: line.to_owned(), validated });
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
        for (&key, entry) in inner.lines.oldest_first() {
            let buf = &mut per_shard[shard_of(key)];
            buf.push_str(&entry.line);
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
    use llvm_md_core::MatchStrategy;

    fn stamp() -> ServingStamp {
        ServingStamp::of(&Validator::new())
    }

    fn line(key: (u64, u64), payload: &str) -> String {
        stamp().line(&wire::envelope(
            "verdict",
            [
                ("orig_fp".to_owned(), u64_hex(key.0)),
                ("opt_fp".to_owned(), u64_hex(key.1)),
                ("payload".to_owned(), Json::str(payload)),
            ],
        ))
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

    /// A format-v1 line (no stamp field) is dropped at load; in memory it
    /// never matches a stamp. A stamped line answers only its own stamp.
    #[test]
    fn unstamped_lines_never_answer_a_lookup() {
        let dir = tmpdir("v1");
        let (old, new) = ((1, 1), (2, 2));
        let v1 = |key: (u64, u64)| line(key, "v")[STAMP_WIDTH - 1..].replacen(',', "{", 1);
        assert!(v1(old).starts_with("{\"schema_version\""), "{}", v1(old));
        let other =
            ServingStamp::of(&Validator { strategy: MatchStrategy::None, ..Validator::new() });
        {
            let store = VerdictStore::open(&dir, 64).expect("open");
            store.put(old, &v1(old)).expect("put");
            store.put(new, &line(new, "v")).expect("put");
            assert!(store.lookup(old, &stamp()).is_none(), "a v1 line matches no stamp");
            assert!(store.lookup(new, &other).is_none(), "another stamp's line is a miss");
            assert_eq!(store.lookup(new, &stamp()), Some((line(new, "v"), false)));
            assert_eq!(store.get(old), Some(v1(old)), "`get` ignores stamps");
            let stats = store.stats();
            assert_eq!((stats.hits, stats.misses), (2, 2));
        }
        let store = VerdictStore::open(&dir, 64).expect("reopen");
        let stats = store.stats();
        assert_eq!((stats.loaded, stats.dropped_lines), (1, 1), "the v1 line is dropped at load");
        assert!(store.get(old).is_none());
        std::fs::remove_dir_all(&dir).ok();
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
