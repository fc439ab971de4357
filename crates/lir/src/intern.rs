//! Hash-consing primitives: a stable FNV-1a hasher, a fast word-at-a-time
//! hasher for in-memory tables (and the std maps over it, [`IdMap`] and
//! [`IdSet`]), an open-addressing slot table, and a string interner.
//!
//! The value-graph layers (`gated-ssa`, `llvm-md-core`) maintain maximal
//! sharing by interning every node at creation; this module supplies the
//! machinery they share. Two hashers, two jobs:
//!
//! * [`fnv1a`] / [`Fnv1a`] are the repo's one *stable* byte-string hash:
//!   seed material, structural fingerprints, store shard routing, battery
//!   derivation and fuzz addressing all use it, so values persisted by
//!   older binaries — verdict stores, chain caches, committed
//!   `BENCH_*.json` baselines — remain valid. Its output must never change.
//! * [`WordHasher`] buckets the node interners and the id-keyed std maps.
//!   Their hashes are never persisted and node ids do not depend on them
//!   (see [`HashSlots`]), so it is free to trade stability for speed.
//!
//! std's `DefaultHasher` is explicitly *not* stable across releases and
//! must not leak into anything persisted.
//!
//! # Which hasher a map gets
//!
//! [`IdMap`] and [`IdSet`] are std's maps over [`WordHasher`]. They are
//! for keys the program builds from ids it mints itself: node, block,
//! register and callee ids, and the nodes and expressions over them, which
//! the node interners already bucket with `WordHasher`. Such keys are a
//! few small integers, which SipHash (std's default) hashes several times
//! slower. Wherever a client chooses the keys outright — register and
//! label names in `lir::parse`, the request
//! fingerprints of `llvm_md_core::cache::Lru`, the addresses of
//! `lir::interp`'s memory — the maps keep std's keyed `RandomState`,
//! because `WordHasher` is unkeyed and crafted keys could make every
//! lookup collide. The `Interning::Naive` reference interners of the two
//! value-graph layers keep std maps as well: they exist to check the
//! `WordHasher`-bucketed tables against an independent hash.
//!
//! Swapping a map's hasher changes its iteration order and nothing else,
//! and no pinned output depends on that order. Under `RandomState` the
//! order was already seeded afresh in every process, so an output that
//! followed it could not have been pinned. The one loop that walks a map
//! and mutates shared state, `partition_refine`'s loop over its
//! `by_class` groups in `llvm_md_core::cycles`, unions disjoint groups of
//! μs, and those unions commute.
//!
//! [`HashSlots`] is a bare-bones open-addressing table mapping a
//! precomputed 64-bit hash to a `u32` payload (a node or string index).
//! It stores no keys: the caller resolves candidate payloads against its
//! own arena through an equality closure, which is what lets the graph
//! interners avoid keeping a second copy of every node. Entries can be
//! removed, which the shared value graph's incremental rebuild uses to
//! re-file only the nodes whose key changed.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A std map keyed by program-minted ids, hashed with [`WordHasher`] (see
/// the module doc for when to use it). Build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A std set of program-minted ids, hashed with [`WordHasher`] (see the
/// module doc for when to use it). Build one with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

/// FNV-1a offset basis (the hash of the empty string).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`: the repo's one stable byte-string hash.
///
/// `llvm_md_workload::rng::fnv1a` re-exports this function so existing
/// call sites (cache fingerprints, fuzz-campaign addressing) keep their
/// import path; the implementation lives here because `lir` is the root
/// of the crate graph and the node interners need it too.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// An incremental FNV-1a hasher.
///
/// FNV-1a is byte-serial, so feeding the same bytes in any chunking
/// produces the same value as [`fnv1a`] over the concatenation. The
/// struct implements both [`std::hash::Hasher`] (for hashing structured
/// keys field by field) and [`std::fmt::Write`] (for streaming a
/// `Display` rendering straight into the hash without materializing the
/// string — `llvm_md_core::cache` fingerprints canonicalized functions
/// this way).
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    // Fixed-width integers hash as their little-endian bytes so the
    // digest does not depend on the host's endianness.
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// The FxHash multiplier (the constant rustc's interners use).
const WORD_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// A word-at-a-time hasher for in-memory hash-consing tables (the FxHash
/// recipe): every integer write mixes one 64-bit word with a rotate, an
/// xor and a multiply, where FNV-1a spends one dependent multiply per
/// byte.
///
/// Not stable and not for anything persisted or seeded — use [`Fnv1a`]
/// there. It is safe for the node interners because a [`HashSlots`]
/// table's payload assignment depends only on insertion order and the
/// caller's equality, never on the hash values themselves. Like the FNV
/// hash it replaced there, it is unkeyed: it offers no protection
/// against keys crafted to collide.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        WordHasher(0)
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(WORD_MUL);
    }
}

impl Hasher for WordHasher {
    /// The state with its high bits rotated down into the low ones.
    ///
    /// After the last multiply, the low bits depend only on the low bits
    /// of the last word, while the high bits depend on every input bit.
    /// [`HashSlots`] takes the home slot from the low bits, so unrotated,
    /// keys that differ only in high bits (float constants, shifted
    /// integers) would all share one home slot. Rotating by 21 puts bits
    /// 43..63 at the bottom; the amount was picked by measuring slot
    /// spread over the key shapes the node-hash tests pin. An xor fold
    /// (`h ^ h >> 32`) measured worse on every one of them.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(21)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.add(i as u64);
    }
}

/// Payload value marking an empty slot. Arena indices are dense from 0,
/// so `u32::MAX` can never be a legitimate payload.
const EMPTY: u32 = u32::MAX;

/// An open-addressing hash table from precomputed 64-bit hashes to `u32`
/// payloads, with key storage left to the caller.
///
/// [`get`](HashSlots::get) probes linearly from `hash`'s home slot and
/// hands each candidate whose stored hash matches to an equality closure;
/// the caller compares against its own arena, so the table never clones
/// keys. Stored hashes make growth a pure rehash (no key re-hashing).
/// Capacity is a power of two, the home slot is the hash's low bits, and
/// the table grows at 7/8 load.
///
/// [`remove`](HashSlots::remove) deletes by backward shift, so the table
/// never holds tombstones and a lookup's probe ends at the first free slot
/// exactly as if the removed entry had never been inserted.
///
/// As long as callers insert only after a missed [`get`](HashSlots::get),
/// which payload a lookup returns depends only on the insertion and
/// removal order and on `eq`, never on the hash values: a weaker or
/// different hash changes probe lengths, not results. Removal keeps that
/// rule intact, since it only ever takes a key out.
#[derive(Clone, Debug, Default)]
pub struct HashSlots {
    /// `(hash, payload)` pairs; `payload == EMPTY` marks a free slot.
    slots: Vec<(u64, u32)>,
    /// Number of occupied slots.
    len: usize,
}

impl HashSlots {
    /// An empty table. No allocation until the first insert.
    pub fn new() -> Self {
        HashSlots::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Look up `hash`, resolving collisions through `eq`: every stored
    /// payload whose hash matches is offered to `eq`, and the first one
    /// it accepts is returned.
    pub fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, p) = self.slots[i];
            if p == EMPTY {
                return None;
            }
            if h == hash && eq(p) {
                return Some(p);
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert `payload` under `hash`. The caller must have established
    /// via [`get`](HashSlots::get) that no equal key is present; the
    /// table allows distinct keys with colliding hashes.
    pub fn insert(&mut self, hash: u64, payload: u32) {
        debug_assert_ne!(payload, EMPTY, "payload u32::MAX is the empty-slot sentinel");
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, payload);
        self.len += 1;
    }

    /// Remove the entry whose payload `eq` accepts among those stored
    /// under `hash`, returning its payload. Removal shifts the rest of the
    /// probe cluster back (no tombstones), so every remaining key is still
    /// found and lookups never lengthen.
    pub fn remove(&mut self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut hole = hash as usize & mask;
        loop {
            let (h, p) = self.slots[hole];
            if p == EMPTY {
                return None;
            }
            if h == hash && eq(p) {
                break;
            }
            hole = (hole + 1) & mask;
        }
        let removed = self.slots[hole].1;
        // Backward shift: an entry later in the cluster moves into the hole
        // unless its home slot lies cyclically after the hole (then the
        // hole does not sit on its probe path).
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (h, p) = self.slots[j];
            if p == EMPTY {
                break;
            }
            let from_home = j.wrapping_sub(h as usize) & mask;
            let from_hole = j.wrapping_sub(hole) & mask;
            if from_home >= from_hole {
                self.slots[hole] = (h, p);
                hole = j;
            }
        }
        self.slots[hole] = (0, EMPTY);
        self.len -= 1;
        Some(removed)
    }

    /// Remove every entry, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.slots.fill((0, EMPTY));
        self.len = 0;
    }

    /// Double the capacity (or allocate the initial table) and rehash.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); new_cap]);
        let mask = new_cap - 1;
        for (h, p) in old {
            if p == EMPTY {
                continue;
            }
            let mut i = h as usize & mask;
            while self.slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (h, p);
        }
    }
}

/// A string interner: each distinct string is stored once and addressed
/// by a dense `u32` index, in first-interned order.
///
/// The value graphs use this for callee names — [`intern`](StrTab::intern)
/// replaces the `Vec<String>` + `HashMap<String, id>` pair so a name is
/// stored exactly once, in one shared buffer.
#[derive(Clone, Debug, Default)]
pub struct StrTab {
    /// All interned strings, concatenated.
    data: String,
    /// `(start, end)` byte spans into `data`, indexed by string id.
    spans: Vec<(u32, u32)>,
    /// FNV hash of the string → string id.
    slots: HashSlots,
}

impl StrTab {
    /// An empty table.
    pub fn new() -> Self {
        StrTab::default()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Intern `s`, returning its dense index. Equal strings always get
    /// the same index; indices count up from 0 in first-interned order.
    pub fn intern(&mut self, s: &str) -> u32 {
        let hash = fnv1a(s.as_bytes());
        let spans = &self.spans;
        let data = &self.data;
        if let Some(id) = self.slots.get(hash, |i| {
            let (a, b) = spans[i as usize];
            &data[a as usize..b as usize] == s
        }) {
            return id;
        }
        let id = self.spans.len() as u32;
        let start = self.data.len() as u32;
        self.data.push_str(s);
        self.spans.push((start, self.data.len() as u32));
        self.slots.insert(hash, id);
        id
    }

    /// The string with index `id`. Panics if `id` was never returned by
    /// [`intern`](StrTab::intern) on this table.
    pub fn get(&self, id: u32) -> &str {
        let (a, b) = self.spans[id as usize];
        &self.data[a as usize..b as usize]
    }

    /// Iterate over all interned strings in index order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.spans.iter().map(|&(a, b)| &self.data[a as usize..b as usize])
    }

    /// Remove every string, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
        self.spans.clear();
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn fnv1a_matches_reference_values() {
        // Published FNV-1a test vectors (empty string = offset basis).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_hashing_is_chunking_independent() {
        let whole = fnv1a(b"hello, world");
        let mut h = Fnv1a::new();
        h.write(b"hello");
        h.write(b", ");
        h.write(b"world");
        assert_eq!(h.finish(), whole);

        let mut w = Fnv1a::new();
        let tail = ", world";
        write!(w, "hello{tail}").unwrap();
        assert_eq!(w.finish(), whole);
    }

    #[test]
    fn integer_writes_hash_as_le_bytes() {
        let mut a = Fnv1a::new();
        a.write_u32(0x0102_0304);
        a.write_u64(5);
        let mut b = Fnv1a::new();
        b.write(&[4, 3, 2, 1, 5, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn slots_get_insert_roundtrip() {
        let keys: Vec<String> = (0..200).map(|i| format!("key-{i}")).collect();
        let mut t = HashSlots::new();
        for (i, k) in keys.iter().enumerate() {
            let h = fnv1a(k.as_bytes());
            assert_eq!(t.get(h, |p| keys[p as usize] == *k), None);
            t.insert(h, i as u32);
        }
        assert_eq!(t.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            let h = fnv1a(k.as_bytes());
            assert_eq!(t.get(h, |p| keys[p as usize] == *k), Some(i as u32));
        }
        assert_eq!(t.get(fnv1a(b"absent"), |_| true), None);
    }

    #[test]
    fn slots_disambiguate_colliding_hashes_via_eq() {
        // Two distinct keys filed under the same hash: `get` must offer
        // both candidates to `eq` and return the accepted one.
        let mut t = HashSlots::new();
        t.insert(42, 0);
        t.insert(42, 1);
        assert_eq!(t.get(42, |p| p == 1), Some(1));
        assert_eq!(t.get(42, |p| p == 0), Some(0));
        assert_eq!(t.get(42, |_| false), None);
    }

    #[test]
    fn slots_clear_keeps_capacity_and_reuses() {
        let mut t = HashSlots::new();
        for i in 0..100 {
            t.insert(i * 31, i as u32);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(31, |_| true), None);
        t.insert(7, 9);
        assert_eq!(t.get(7, |p| p == 9), Some(9));
    }

    #[test]
    fn slots_remove_shifts_wrapping_clusters_back() {
        // Every key's home is one of the last three slots of a 16-slot
        // table, so the clusters wrap past the end into slot 0 and up.
        let home = |k: u32| 13 + (k as u64 % 3) + 16 * (k as u64 / 3);
        let mut t = HashSlots::new();
        for k in 0..12 {
            t.insert(home(k), k);
        }
        assert_eq!(t.slots.len(), 16, "12 entries stay under 7/8 load");
        let mut present: Vec<u32> = (0..12).collect();
        // Remove from the front, the wrapped middle and the tail of the run.
        for k in [0, 7, 11, 3, 4, 9] {
            assert_eq!(t.remove(home(k), |p| p == k), Some(k));
            present.retain(|&p| p != k);
            assert_eq!(t.len(), present.len());
            assert_eq!(t.get(home(k), |p| p == k), None, "removed key {k} still found");
            assert_eq!(t.remove(home(k), |p| p == k), None, "removed twice");
            for &p in &present {
                assert_eq!(t.get(home(p), |q| q == p), Some(p), "key {p} lost after removing {k}");
            }
        }
        // Refill the freed slots and drain the table.
        for k in [0, 7, 11] {
            t.insert(home(k), k);
            present.push(k);
        }
        for &k in &present {
            assert_eq!(t.remove(home(k), |p| p == k), Some(k));
        }
        assert!(t.is_empty());
        assert!(t.slots.iter().all(|&(_, p)| p == EMPTY), "no tombstones left behind");
    }

    #[test]
    fn slots_remove_finds_the_one_eq_accepts() {
        let mut t = HashSlots::new();
        for p in 0..5 {
            t.insert(42, p);
        }
        assert_eq!(t.remove(42, |p| p == 2), Some(2));
        assert_eq!(t.remove(42, |_| false), None);
        for p in [0, 1, 3, 4] {
            assert_eq!(t.get(42, |q| q == p), Some(p));
        }
        assert_eq!(HashSlots::new().remove(42, |_| true), None, "empty table");
    }

    #[test]
    fn word_hasher_mixes_one_word_per_integer_write() {
        let hash = |f: &dyn Fn(&mut WordHasher)| {
            let mut h = WordHasher::new();
            f(&mut h);
            h.finish()
        };
        // Every integer width is one zero-extended word...
        let one = hash(&|h| h.write_u64(7));
        assert_eq!(hash(&|h| h.write_u8(7)), one);
        assert_eq!(hash(&|h| h.write_u32(7)), one);
        assert_eq!(hash(&|h| h.write_usize(7)), one);
        // ...byte slices go in as little-endian words...
        assert_eq!(hash(&|h| h.write(&7u64.to_le_bytes())), one);
        assert_eq!(hash(&|h| h.write(&[7])), one);
        // ...and order matters.
        let pair = |x, y| {
            hash(&move |h: &mut WordHasher| {
                h.write_u32(x);
                h.write_u32(y);
            })
        };
        assert_ne!(pair(1, 2), pair(2, 1));
    }

    #[test]
    fn slot_payloads_do_not_depend_on_the_hash() {
        // Intern a key stream with repeats the way the node interners do
        // (look up, insert on a miss). Ids must come out identical whether
        // the keys spread over the table or every key collides: payloads
        // depend on insertion order and equality, never on hash values.
        fn intern_all(stream: &[u64], hash: impl Fn(u64) -> u64) -> Vec<u32> {
            let mut keys: Vec<u64> = Vec::new();
            let mut t = HashSlots::new();
            let mut out = Vec::new();
            for &k in stream {
                let h = hash(k);
                let id = match t.get(h, |p| keys[p as usize] == k) {
                    Some(p) => p,
                    None => {
                        let p = keys.len() as u32;
                        keys.push(k);
                        t.insert(h, p);
                        p
                    }
                };
                out.push(id);
            }
            out
        }
        let stream: Vec<u64> = (0..600u64).map(|i| (i * 7919) % 211).collect();
        let spread = intern_all(&stream, word);
        assert_eq!(spread, intern_all(&stream, |_| 42));
        assert_eq!(spread, intern_all(&stream, |k| fnv1a(&k.to_le_bytes())));
        assert_eq!(spread.iter().max(), Some(&210), "211 distinct keys, dense ids");
    }

    fn word(k: u64) -> u64 {
        let mut h = WordHasher::new();
        h.write_u64(k);
        h.finish()
    }

    #[test]
    fn slot_payloads_do_not_depend_on_the_hash_under_removal() {
        // The same interning stream with removals interleaved: every third
        // step drops the entry of an earlier key, and a later repeat of that
        // key mints a fresh id. Ids must still come out identical whether
        // the keys spread, all collide, or hash another way.
        fn intern_and_remove(stream: &[u64], hash: impl Fn(u64) -> u64) -> Vec<u32> {
            let mut keys: Vec<u64> = Vec::new();
            let mut t = HashSlots::new();
            let mut out = Vec::new();
            for (step, &k) in stream.iter().enumerate() {
                let h = hash(k);
                let id = match t.get(h, |p| keys[p as usize] == k) {
                    Some(p) => p,
                    None => {
                        let p = keys.len() as u32;
                        keys.push(k);
                        t.insert(h, p);
                        p
                    }
                };
                out.push(id);
                if step % 3 == 2 {
                    let gone = stream[step / 2];
                    let removed = t.remove(hash(gone), |p| keys[p as usize] == gone);
                    out.push(removed.unwrap_or(u32::MAX));
                }
            }
            out
        }
        let stream: Vec<u64> = (0..900u64).map(|i| (i * 7919) % 97).collect();
        let spread = intern_and_remove(&stream, word);
        assert_eq!(spread, intern_and_remove(&stream, |_| 42));
        assert_eq!(spread, intern_and_remove(&stream, |k| fnv1a(&k.to_le_bytes())));
        assert!(
            spread.iter().filter(|&&p| p != u32::MAX).max() > Some(&96),
            "removed keys re-mint"
        );
    }

    #[test]
    fn strtab_interns_to_stable_dense_ids() {
        let mut t = StrTab::new();
        let a = t.intern("memcpy");
        let b = t.intern("malloc");
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.intern("memcpy"), a);
        assert_eq!(t.get(a), "memcpy");
        assert_eq!(t.get(b), "malloc");
        assert_eq!(t.iter().collect::<Vec<_>>(), ["memcpy", "malloc"]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn strtab_survives_growth() {
        let mut t = StrTab::new();
        let ids: Vec<u32> = (0..500).map(|i| t.intern(&format!("f{i}"))).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*id, i as u32);
            assert_eq!(t.get(*id), format!("f{i}"));
            assert_eq!(t.intern(&format!("f{i}")), *id);
        }
    }
}
