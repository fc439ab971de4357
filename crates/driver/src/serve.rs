//! The `llvm-md serve` loop: a persistent validation service over the
//! versioned wire format.
//!
//! A [`Server`] owns a [`VerdictStore`] and a [`ValidationEngine`] and
//! answers **length-prefixed batch requests** from any `BufRead` — stdin in
//! `llvm-md serve --stdin`, a Unix socket connection in
//! [`Server::serve_unix`]; both run the exact same handler, so the protocol
//! is transport-independent.
//!
//! # Framing
//!
//! A request is one frame: an ASCII decimal byte length on its own line,
//! then exactly that many bytes of wire-format JSON (blank lines between
//! frames are ignored):
//!
//! ```text
//! 98
//! {"schema_version":1,"type":"validate","id":"b1","original":"…ll…","optimized":"…ll…"}
//! ```
//!
//! Responses are JSON lines, one document per line. A `validate` request
//! streams `batch-begin`, one `verdict` line per function (input-module
//! order, then output-only extras), and `batch-end`. The other request
//! types — `stats`, `flush`, `shutdown` — answer with a single line.
//!
//! # The store contract
//!
//! Every paired function's verdict line is keyed by its fingerprint pair
//! and kept in the store **verbatim**. A later batch (same process or not —
//! the store is on disk) containing a fingerprint pair the store has seen
//! answers from the store without re-validating, and the replayed line is
//! byte-identical to the first run's. `verdict` lines deliberately carry no
//! request id (`batch-begin`/`batch-end` carry the per-request bookkeeping
//! instead). They do carry the verdict's wall-clock fields (`duration_ns`,
//! and `triage.sat.duration_ns` under tier 2), which a re-validation would
//! not reproduce: replay is byte-identical because the store returns the
//! stored bytes. Pairing alarms (missing/extra functions) have no
//! fingerprint pair; their lines are rebuilt per batch, deterministically.
//!
//! A verdict is only worth replaying to a server that would have computed
//! it, so every verdict line opens with the server's [`ServingStamp`], a
//! fixed-width `{"stamp":"<16 hex digits>",` field hashing every
//! verdict-relevant validator setting: the normalizer and
//! [`RULE_ENGINE_VERSION`], the rule set, the cycle-matching strategy, the
//! rewrite and saturation limits, and the cascade with its triage and
//! tier-2 options. Left out are the interner, which never changes a
//! verdict, and the two wall-clock budgets. The stamp is computed once, in
//! [`Server::new`]. A stored line replays exactly when its first bytes
//! equal the server's stamp; anything else — another configuration's line
//! or a format-v1 line without a stamp — is a store miss, and the pair
//! re-validates and overwrites the entry under the current stamp. Whether
//! a line is `validated` is kept beside it in the store index, so a replay
//! compares bytes and reads no JSON. The `normalizer` and `rule_engine`
//! fields after the stamp are for human readers; replay never reads them.
//!
//! # Direct mode
//!
//! Most of a repeated request's time would go to re-deriving what the
//! server already knows: parsing both modules, fingerprinting every
//! function and pairing them by name. So the server keeps an in-memory,
//! LRU-bounded **request manifest** ([`MANIFEST_CAPACITY`] entries), after
//! ccache's direct mode:
//!
//! - **Key:** FNV-1a of the `original` field and FNV-1a of the `optimized`
//!   field, over their raw, still-escaped JSON bytes as the frame carries
//!   them ([`wire::scan`]). A one-byte change anywhere (a comment,
//!   whitespace) is a different key, and so is the same text escaped
//!   differently (`\u0041` for `A`): unescaping is deterministic, so such
//!   a resend is only a miss, answered by the parse path.
//! - **Value:** what the parse path derived from those texts: the input
//!   module's name and, per record slot in order, either a name-paired
//!   function's `(orig_fp, opt_fp)` store key or a pairing alarm's name,
//!   fingerprints and reason.
//!
//! Every frame is scanned once, validating the whole document without
//! building it; only the parse path, on a manifest miss, unescapes the two
//! module texts. A manifest hit looks every store key up under the stamp,
//! rebuilds the pairing-alarm lines, and streams `batch-begin`, the lines
//! and `batch-end` without unescaping, parsing or hashing anything but the
//! two raw fields. The answer is byte-identical to what the parse path
//! writes for the same store state. If any slot's line is missing (evicted
//! from the store) or under another stamp (overwritten by another
//! configuration), the whole batch falls back to the parse path, which
//! reuses the lookups direct mode already made, so the store counts each
//! lookup once, and re-validates what it must. A manifest is written only
//! after its batch completed, so a request that answered an `error` line
//! never has one.
//!
//! The trust model is the store's: a manifest key, like a fingerprint, is
//! a 64-bit FNV-1a hash, and two different texts with one hash would
//! share an answer. The manifest carries no stamp because parsing,
//! fingerprinting and pairing depend on the text alone; every verdict it
//! points at still passes the stamp check. The manifest is not persisted:
//! after a restart, the first repeat of each request takes the parse path
//! (answered from the store) and the next one is direct.

use crate::store::{ServingStamp, StoreStats, VerdictStore, SHARDS};
use crate::{pair_functions_by, PairJob, Pairing, ValidationEngine};
use lir::func::Module;
use lir::intern::fnv1a;
use lir::parse::parse_module;
use lir::verify::verify_function;
use llvm_md_core::cache::{fingerprint, Lru};
use llvm_md_core::triage::TriagedVerdict;
use llvm_md_core::wire::{self, u64_hex, Json, RawDoc, ToWire};
use llvm_md_core::{FailReason, ValidationStats, Validator, Verdict, RULE_ENGINE_VERSION};
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Frames larger than this are rejected — the daemon reads untrusted input
/// and must not be an allocation bomb.
pub const MAX_FRAME: usize = 64 << 20;

/// Distinct requests the direct-mode manifest remembers (see "Direct
/// mode" above); least recently used ones are evicted past it.
pub const MANIFEST_CAPACITY: usize = 1 << 16;

/// How a serve loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeEnd {
    /// The input reached EOF.
    Eof,
    /// The client sent a `shutdown` request.
    Shutdown,
}

/// Session counters (across every connection the server has handled).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// `validate` batches handled.
    pub batches: u64,
    /// Function verdict lines streamed.
    pub functions: u64,
    /// Validation queries actually run (store misses on non-identical
    /// pairs).
    pub validations_run: u64,
    /// `validate` batches answered in direct mode, without parsing.
    pub direct_replays: u64,
}

/// The two `validate` fields holding module texts, which only the parse
/// path decodes.
const MODULE_FIELDS: [&str; 2] = ["original", "optimized"];

/// The persistent validation service: engine + validator + verdict store
/// behind the transport-independent request handler. Every pair the server
/// validates runs the validator's [`Cascade`](llvm_md_core::Cascade).
pub struct Server {
    engine: ValidationEngine,
    validator: Validator,
    /// The validator's serving stamp, which opens every verdict line.
    stamp: ServingStamp,
    store: VerdictStore,
    /// Direct mode's request manifest, keyed by the FNV-1a pair of the two
    /// module texts.
    manifests: Mutex<Lru<(u64, u64), Manifest>>,
    batches: AtomicU64,
    functions: AtomicU64,
    validations_run: AtomicU64,
    direct_replays: AtomicU64,
}

/// What the parse path derived from one request's two texts: the input
/// module's name and how to answer each record slot, in order.
struct Manifest {
    module: String,
    slots: Vec<ManifestSlot>,
}

/// One record slot of a [`Manifest`].
#[derive(Clone)]
enum ManifestSlot {
    /// A name-paired function, answered by its `(orig_fp, opt_fp)` store
    /// line.
    Stored((u64, u64)),
    /// A pairing alarm (a function only one side has), whose line is
    /// rebuilt per batch.
    Alarm { name: String, orig_fp: Option<u64>, opt_fp: Option<u64>, reason: Option<FailReason> },
}

/// One store lookup under the serving stamp: the key, and the line with
/// its `validated` flag when it hit.
type Lookup = ((u64, u64), Option<(String, bool)>);

/// One verdict line plus the classification bookkeeping `batch-end` needs.
struct SlotOutcome {
    line: String,
    validated: bool,
    from_store: bool,
}

impl Server {
    /// A server over the given engine, validator (whose cascade decides
    /// which tiers run after an alarm) and verdict store.
    pub fn new(engine: ValidationEngine, validator: Validator, store: VerdictStore) -> Server {
        Server {
            engine,
            validator,
            stamp: ServingStamp::of(&validator),
            store,
            manifests: Mutex::new(Lru::new(MANIFEST_CAPACITY)),
            batches: AtomicU64::new(0),
            functions: AtomicU64::new(0),
            validations_run: AtomicU64::new(0),
            direct_replays: AtomicU64::new(0),
        }
    }

    /// The underlying verdict store.
    pub fn store(&self) -> &VerdictStore {
        &self.store
    }

    /// The session counters so far.
    pub fn counters(&self) -> ServeCounters {
        ServeCounters {
            batches: self.batches.load(Ordering::Relaxed),
            functions: self.functions.load(Ordering::Relaxed),
            validations_run: self.validations_run.load(Ordering::Relaxed),
            direct_replays: self.direct_replays.load(Ordering::Relaxed),
        }
    }

    /// Serve frames from `input`, writing response lines to `output`, until
    /// EOF or a `shutdown` request. Malformed *requests* answer with an
    /// `error` line and the loop continues; malformed *framing* (a bad
    /// length prefix) also answers with an `error` line but ends the loop,
    /// because the stream can no longer be resynchronized.
    pub fn serve<R: BufRead, W: Write>(&self, mut input: R, mut output: W) -> io::Result<ServeEnd> {
        loop {
            let payload = match read_frame(&mut input) {
                Ok(Some(p)) => p,
                Ok(None) => return Ok(ServeEnd::Eof),
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    write_line(&mut output, &error_line(None, &e.to_string()))?;
                    return Ok(ServeEnd::Eof);
                }
                Err(e) => return Err(e),
            };
            match self.handle(&payload, &mut output)? {
                ServeStep::Continue => {}
                ServeStep::Shutdown => return Ok(ServeEnd::Shutdown),
            }
        }
    }

    /// Bind a Unix socket at `path` (replacing any stale socket file) and
    /// serve connections sequentially with the same handler as
    /// [`Server::serve`], until a client sends `shutdown`. Per-connection
    /// I/O errors drop that connection and keep accepting.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &std::path::Path) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        for stream in listener.incoming() {
            let stream = stream?;
            let reader = io::BufReader::new(stream.try_clone()?);
            match self.serve(reader, stream) {
                Ok(ServeEnd::Shutdown) => break,
                Ok(ServeEnd::Eof) | Err(_) => continue,
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    fn handle<W: Write>(&self, payload: &str, output: &mut W) -> io::Result<ServeStep> {
        // One validating scan of the frame; every field but the two module
        // texts is decoded.
        let scanned = wire::scan(payload).and_then(|raw| {
            let doc = raw.decode_except(&MODULE_FIELDS);
            wire::check_version(&doc)?;
            Ok((raw, doc))
        });
        let (raw, doc) = match scanned {
            Ok(scanned) => scanned,
            Err(e) => {
                write_line(output, &error_line(None, &e.to_string()))?;
                return Ok(ServeStep::Continue);
            }
        };
        let id = doc.get("id").and_then(Json::as_str).unwrap_or("").to_owned();
        match wire::doc_type(&doc) {
            Ok("validate") => self.handle_validate(&id, &raw, output)?,
            Ok("stats") => write_line(output, &self.stats_line(&id))?,
            Ok("flush") => {
                let line = match self.store.compact() {
                    Ok(()) => wire::envelope(
                        "flush-ok",
                        [("id", Json::str(&id)), ("entries", Json::num(self.store.len() as f64))],
                    )
                    .to_string(),
                    Err(e) => error_line(Some(&id), &format!("flush failed: {e}")),
                };
                write_line(output, &line)?;
            }
            Ok("shutdown") => {
                let line = match self.store.compact() {
                    Ok(()) => wire::envelope("shutdown-ok", [("id", Json::str(&id))]).to_string(),
                    Err(e) => error_line(Some(&id), &format!("shutdown flush failed: {e}")),
                };
                write_line(output, &line)?;
                return Ok(ServeStep::Shutdown);
            }
            Ok(other) => write_line(
                output,
                &error_line(Some(&id), &format!("unknown request type `{other}`")),
            )?,
            Err(e) => write_line(output, &error_line(Some(&id), &e.to_string()))?,
        }
        Ok(ServeStep::Continue)
    }

    /// Handle one `validate` batch. A request whose two texts the manifest
    /// knows is answered in direct mode; otherwise pair by name, answer
    /// repeat fingerprint pairs from the store, validate only the rest on
    /// the worker pool, and stream one verdict line per function in
    /// deterministic record order.
    fn handle_validate<W: Write>(&self, id: &str, raw: &RawDoc, output: &mut W) -> io::Result<()> {
        // The manifest key hashes the raw field bytes, when both are
        // strings.
        let text_hash =
            |key| raw.raw(key).filter(|v| v.starts_with('"')).map(|v| fnv1a(v.as_bytes()));
        let request = text_hash("original").zip(text_hash("optimized"));
        let fetched = match request.map(|key| self.replay_manifest(key)) {
            Some(Ok((module, outcomes))) => {
                self.write_batch(output, id, &module, &outcomes, 0)?;
                self.direct_replays.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            Some(Err(fetched)) => fetched,
            None => Vec::new(),
        };
        let parsed = parse_side("original", raw.str_field("original"))
            .and_then(|input| Ok((input, parse_side("optimized", raw.str_field("optimized"))?)));
        let (input, output_mod) = match parsed {
            Ok(pair) => pair,
            Err(e) => return write_line(output, &error_line(Some(id), &e.to_string())),
        };
        let fps_in: Vec<u64> = input.functions.iter().map(fingerprint).collect();
        let fps_out: Vec<u64> = output_mod.functions.iter().map(fingerprint).collect();
        // Every name-paired function becomes a job; fingerprints (not the
        // driver's structural predicate) decide below what actually runs.
        let Pairing { records, jobs, dropped, extra } =
            pair_functions_by(&input.functions, &output_mod.functions, |_, _| true);
        // The manifest: each job's store key, and each pairing alarm with
        // the fingerprint of the very copy that went unpaired.
        let mut entries: Vec<Option<ManifestSlot>> = vec![None; records.len()];
        let mut job_at: Vec<Option<&PairJob>> = vec![None; records.len()];
        for job in &jobs {
            entries[job.slot] =
                Some(ManifestSlot::Stored((fps_in[job.in_idx], fps_out[job.out_idx])));
            job_at[job.slot] = Some(job);
        }
        let alarm = |slot: usize, orig_fp, opt_fp| ManifestSlot::Alarm {
            name: records[slot].name.clone(),
            orig_fp,
            opt_fp,
            reason: records[slot].reason.clone(),
        };
        for &(slot, i) in &dropped {
            entries[slot] = Some(alarm(slot, Some(fps_in[i]), None));
        }
        for &(slot, o) in &extra {
            entries[slot] = Some(alarm(slot, None, Some(fps_out[o])));
        }
        let manifest = Manifest {
            module: input.name.clone(),
            slots: entries.into_iter().map(|e| e.expect("every record slot paired")).collect(),
        };
        // Store pass: answer repeat fingerprint pairs verbatim; identical
        // pairs get a deterministic skip verdict; the rest queue for the
        // pool. A lookup direct mode already made, in the same slot order,
        // is reused rather than repeated.
        let mut fetched = fetched.into_iter().peekable();
        let mut pending: Vec<&PairJob> = Vec::new();
        let mut slots: Vec<Option<SlotOutcome>> = Vec::with_capacity(records.len());
        for (slot, entry) in manifest.slots.iter().enumerate() {
            let outcome = match entry {
                &ManifestSlot::Stored(key) => {
                    let found = match fetched.next_if(|(k, _)| *k == key) {
                        Some((_, found)) => found,
                        None => self.store.lookup(key, &self.stamp),
                    };
                    match found {
                        Some((line, validated)) => {
                            Some(SlotOutcome { line, validated, from_store: true })
                        }
                        None if key.0 == key.1 => {
                            let tv = unqueried(true, None);
                            let line = self.verdict_line(
                                &records[slot].name,
                                Some(key.0),
                                Some(key.1),
                                &tv,
                            );
                            let _ = self.store.put_verdict(key, &line, true);
                            Some(SlotOutcome { line, validated: true, from_store: false })
                        }
                        None => {
                            pending.push(job_at[slot].expect("stored slots are jobs"));
                            None
                        }
                    }
                }
                ManifestSlot::Alarm { name, orig_fp, opt_fp, reason } => {
                    Some(self.pairing_alarm(name, *orig_fp, *opt_fp, reason))
                }
            };
            slots.push(outcome);
        }
        // Untrusted IR: every pair about to be validated must be well-formed
        // SSA, or graph construction would panic on it. Replays and
        // identical pairs never reach the validator and pay nothing.
        let malformed = pending.iter().find_map(|job| {
            [
                ("original", &input.functions[job.in_idx]),
                ("optimized", &output_mod.functions[job.out_idx]),
            ]
            .into_iter()
            .find_map(|(side, f)| Some((side, verify_function(f).err()?)))
        });
        if let Some((side, e)) = malformed {
            let msg = format!(
                "field `{side}`: function @{} is malformed: {}",
                e.function,
                e.problems.join("; ")
            );
            return write_line(output, &error_line(Some(id), &msg));
        }
        // Pool pass: validate the genuinely new pairs and run the cascade.
        let outcomes = self.engine.run_jobs(&pending, |job| {
            self.validator.validate_cascade(
                &input,
                &input.functions[job.in_idx],
                &output_mod.functions[job.out_idx],
            )
        });
        self.validations_run.fetch_add(pending.len() as u64, Ordering::Relaxed);
        for (job, tv) in pending.iter().zip(outcomes) {
            let key = (fps_in[job.in_idx], fps_out[job.out_idx]);
            let validated = tv.verdict.validated;
            let line = self.verdict_line(&records[job.slot].name, Some(key.0), Some(key.1), &tv);
            let _ = self.store.put_verdict(key, &line, validated);
            slots[job.slot] = Some(SlotOutcome { line, validated, from_store: false });
        }
        let outcomes: Vec<SlotOutcome> =
            slots.into_iter().map(|s| s.expect("every record slot filled")).collect();
        self.write_batch(output, id, &input.name, &outcomes, pending.len())?;
        // Both fields were strings, or parsing would have failed.
        if let Some(key) = request {
            let mut manifests = self.manifests.lock().expect("manifest poisoned");
            manifests.insert(key, manifest);
            manifests.evict_over_cap();
        }
        Ok(())
    }

    /// Direct mode: answer a request the manifest knows from the store
    /// alone, as `(module name, slot outcomes)`. `Err` — fall back to the
    /// parse path — when the manifest has no entry or a stored slot
    /// misses; it carries the lookups made so far, in slot order, up to
    /// and including the miss.
    fn replay_manifest(
        &self,
        request: (u64, u64),
    ) -> Result<(String, Vec<SlotOutcome>), Vec<Lookup>> {
        let mut manifests = self.manifests.lock().expect("manifest poisoned");
        let Some(manifest) = manifests.get(&request) else { return Err(Vec::new()) };
        let mut lookups: Vec<Lookup> = Vec::new();
        for slot in &manifest.slots {
            if let &ManifestSlot::Stored(key) = slot {
                let found = self.store.lookup(key, &self.stamp);
                let missed = found.is_none();
                lookups.push((key, found));
                if missed {
                    return Err(lookups);
                }
            }
        }
        let mut hits = lookups.into_iter().map(|(_, found)| found.expect("every lookup hit"));
        let outcomes = manifest
            .slots
            .iter()
            .map(|slot| match slot {
                ManifestSlot::Stored(_) => {
                    let (line, validated) = hits.next().expect("one lookup per stored slot");
                    SlotOutcome { line, validated, from_store: true }
                }
                ManifestSlot::Alarm { name, orig_fp, opt_fp, reason } => {
                    self.pairing_alarm(name, *orig_fp, *opt_fp, reason)
                }
            })
            .collect();
        Ok((manifest.module.clone(), outcomes))
    }

    /// A pairing alarm's line (a function only one side has), rebuilt per
    /// batch.
    fn pairing_alarm(
        &self,
        name: &str,
        orig_fp: Option<u64>,
        opt_fp: Option<u64>,
        reason: &Option<FailReason>,
    ) -> SlotOutcome {
        let line = self.verdict_line(name, orig_fp, opt_fp, &unqueried(false, reason.clone()));
        SlotOutcome { line, validated: false, from_store: false }
    }

    /// Stream one answered batch — `batch-begin`, the verdict lines in
    /// record order, `batch-end` — and count it. Both the parse path and
    /// direct mode answer through here.
    fn write_batch<W: Write>(
        &self,
        output: &mut W,
        id: &str,
        module: &str,
        outcomes: &[SlotOutcome],
        validations_run: usize,
    ) -> io::Result<()> {
        let store_hits = outcomes.iter().filter(|o| o.from_store).count();
        let validated = outcomes.iter().filter(|o| o.validated).count();
        write_line(
            output,
            &wire::envelope(
                "batch-begin",
                [
                    ("id", Json::str(id)),
                    ("module", Json::str(module)),
                    ("functions", Json::num(outcomes.len() as f64)),
                ],
            )
            .to_string(),
        )?;
        for o in outcomes {
            write_line(output, &o.line)?;
        }
        write_line(
            output,
            &wire::envelope(
                "batch-end",
                [
                    ("id", Json::str(id)),
                    ("functions", Json::num(outcomes.len() as f64)),
                    ("validated", Json::num(validated as f64)),
                    ("alarms", Json::num((outcomes.len() - validated) as f64)),
                    ("store_hits", Json::num(store_hits as f64)),
                    ("validations_run", Json::num(validations_run as f64)),
                ],
            )
            .to_string(),
        )?;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.functions.fetch_add(outcomes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// One wire verdict line: the serving stamp first, then (function
    /// name, fingerprint pair, triaged verdict) with the normalizer and
    /// rule-engine version for readers, and **no request id**. The
    /// verdict's wall-clock fields (`duration_ns`, and
    /// `triage.sat.duration_ns` under tier 2) vary between computations;
    /// replays are byte-identical because the store keeps and returns the
    /// line verbatim.
    fn verdict_line(
        &self,
        function: &str,
        orig_fp: Option<u64>,
        opt_fp: Option<u64>,
        tv: &TriagedVerdict,
    ) -> String {
        let fp = |f: Option<u64>| f.map(u64_hex).unwrap_or(Json::Null);
        self.stamp.line(&wire::envelope(
            "verdict",
            [
                ("function", Json::str(function)),
                ("orig_fp", fp(orig_fp)),
                ("opt_fp", fp(opt_fp)),
                ("normalizer", self.validator.normalizer.to_wire()),
                ("rule_engine", Json::num(RULE_ENGINE_VERSION as f64)),
                ("class", tv.class().to_wire()),
                ("verdict", tv.to_wire()),
            ],
        ))
    }

    fn stats_line(&self, id: &str) -> String {
        let s: StoreStats = self.store.stats();
        let c = self.counters();
        wire::envelope(
            "stats",
            [
                ("id", Json::str(id)),
                ("workers", Json::num(self.engine.workers() as f64)),
                ("normalizer", self.validator.normalizer.to_wire()),
                ("rule_engine", Json::num(RULE_ENGINE_VERSION as f64)),
                ("batches", Json::num(c.batches as f64)),
                ("functions", Json::num(c.functions as f64)),
                ("validations_run", Json::num(c.validations_run as f64)),
                ("direct_replays", Json::num(c.direct_replays as f64)),
                (
                    "store",
                    Json::obj([
                        ("entries", Json::num(s.entries as f64)),
                        ("hits", Json::num(s.hits as f64)),
                        ("misses", Json::num(s.misses as f64)),
                        ("inserts", Json::num(s.inserts as f64)),
                        ("evictions", Json::num(s.evictions as f64)),
                        ("loaded", Json::num(s.loaded as f64)),
                        ("dropped_lines", Json::num(s.dropped_lines as f64)),
                        ("shards", Json::num(SHARDS as f64)),
                    ]),
                ),
            ],
        )
        .to_string()
    }
}

enum ServeStep {
    Continue,
    Shutdown,
}

/// Longest accepted length line, newline included. A `usize` has at most
/// 20 decimal digits, so a longer line is not a length, and reading no
/// further keeps a newline-free stream of digits from growing the buffer.
const MAX_HEADER: usize = 32;

/// Read one length-prefixed frame: a decimal byte count on its own line
/// (blank lines before it are skipped), then exactly that many payload
/// bytes. `Ok(None)` at EOF; `InvalidData` on an unparseable or overlong
/// length line.
fn read_frame<R: BufRead>(input: &mut R) -> io::Result<Option<String>> {
    let mut header = String::new();
    loop {
        header.clear();
        if io::Read::take(&mut *input, MAX_HEADER as u64).read_line(&mut header)? == 0 {
            return Ok(None);
        }
        if header.len() >= MAX_HEADER && !header.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length line exceeds the {MAX_HEADER}-byte cap"),
            ));
        }
        if !header.trim().is_empty() {
            break;
        }
    }
    let len: usize = header.trim().parse().map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, format!("bad frame length `{}`", header.trim()))
    })?;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len];
    input.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

fn write_line<W: Write>(output: &mut W, line: &str) -> io::Result<()> {
    output.write_all(line.as_bytes())?;
    output.write_all(b"\n")?;
    output.flush()
}

fn error_line(id: Option<&str>, message: &str) -> String {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", Json::str(id)));
    }
    fields.push(("message", Json::str(message)));
    wire::envelope("error", fields).to_string()
}

/// Parse the module text of one `validate` field.
fn parse_side(key: &str, text: Result<String, wire::WireError>) -> Result<Module, wire::WireError> {
    parse_module(&text?)
        .map_err(|e| wire::WireError::schema(format!("field `{key}`: unparseable module: {e}")))
}

/// A verdict decided without a validation query (a pairing alarm, or a
/// fingerprint-identical pair): empty stats, no triage.
fn unqueried(validated: bool, reason: Option<FailReason>) -> TriagedVerdict {
    let stats = ValidationStats::default();
    TriagedVerdict { verdict: Verdict { validated, reason, stats }, triage: None }
}
