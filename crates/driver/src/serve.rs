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
//! Verdicts are only comparable across runs that used the same rewrite
//! engine and the same cascade, so every line is stamped with the server's
//! [`Normalizer`] mode, [`RULE_ENGINE_VERSION`] and whether tier 2 ran. A
//! stored line whose stamp disagrees with the serving configuration is
//! *not* replayed — the pair re-validates and the store entry is
//! overwritten under the current stamp. The same holds for an alarm line
//! whose triage does not match the server's cascade: a triaging server
//! never replays an untriaged alarm, nor the reverse. Lines written before
//! the stamp existed decode as `destructive` at engine version 1, so an
//! unchanged destructive server keeps replaying its old store.

use crate::store::{StoreStats, VerdictStore, SHARDS};
use crate::{pair_functions_by, PairJob, Pairing, ValidationEngine};
use lir::func::Module;
use lir::parse::parse_module;
use llvm_md_core::cache::fingerprint;
use llvm_md_core::triage::{Cascade, TriagedVerdict};
use llvm_md_core::wire::{self, u64_hex, Json, ToWire};
use llvm_md_core::{
    FailReason, Normalizer, ValidationStats, Validator, Verdict, VerdictClass, RULE_ENGINE_VERSION,
};
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Frames larger than this are rejected — the daemon reads untrusted input
/// and must not be an allocation bomb.
pub const MAX_FRAME: usize = 64 << 20;

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
}

/// The persistent validation service: engine + validator + verdict store
/// behind the transport-independent request handler. Every pair the server
/// validates runs the validator's [`Cascade`].
pub struct Server {
    engine: ValidationEngine,
    validator: Validator,
    store: VerdictStore,
    batches: AtomicU64,
    functions: AtomicU64,
    validations_run: AtomicU64,
}

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
            store,
            batches: AtomicU64::new(0),
            functions: AtomicU64::new(0),
            validations_run: AtomicU64::new(0),
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
        let doc = match wire::parse(payload).and_then(|doc| {
            wire::check_version(&doc)?;
            Ok(doc)
        }) {
            Ok(doc) => doc,
            Err(e) => {
                write_line(output, &error_line(None, &e.to_string()))?;
                return Ok(ServeStep::Continue);
            }
        };
        let id = doc.get("id").and_then(Json::as_str).unwrap_or("").to_owned();
        match wire::doc_type(&doc) {
            Ok("validate") => self.handle_validate(&id, &doc, output)?,
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

    /// Handle one `validate` batch: pair by name, answer repeat fingerprint
    /// pairs from the store, validate only the rest on the worker pool, and
    /// stream one verdict line per function in deterministic record order.
    fn handle_validate<W: Write>(&self, id: &str, doc: &Json, output: &mut W) -> io::Result<()> {
        let (input, output_mod) = match parse_pair(doc) {
            Ok(pair) => pair,
            Err(e) => return write_line(output, &error_line(Some(id), &e.to_string())),
        };
        let fps_in: Vec<u64> = input.functions.iter().map(fingerprint).collect();
        let fps_out: Vec<u64> = output_mod.functions.iter().map(fingerprint).collect();
        // Every name-paired function becomes a job; fingerprints (not the
        // driver's structural predicate) decide below what actually runs.
        let Pairing { records, jobs, dropped: _ } =
            pair_functions_by(&input, &output_mod, |_, _| true);
        let mut slots: Vec<Option<SlotOutcome>> = Vec::with_capacity(records.len());
        slots.resize_with(records.len(), || None);
        // Pairing alarms (no fingerprint pair, nothing to validate): build
        // their deterministic lines straight from the records.
        for (slot, rec) in records.iter().enumerate() {
            if let Some(reason @ (FailReason::MissingFunction | FailReason::ExtraFunction)) =
                rec.reason.clone()
            {
                let fps = match reason {
                    FailReason::MissingFunction => {
                        (Some(fingerprint_by_name(&input, &rec.name)), None)
                    }
                    _ => (None, Some(fingerprint_by_name(&output_mod, &rec.name))),
                };
                let tv = unqueried(false, Some(reason));
                slots[slot] = Some(SlotOutcome {
                    line: self.verdict_line(&rec.name, fps.0, fps.1, &tv),
                    validated: false,
                    from_store: false,
                });
            }
        }
        // Store pass: answer repeat fingerprint pairs verbatim; identical
        // pairs get a deterministic skip verdict; the rest queue for the
        // pool.
        let mut pending: Vec<&PairJob> = Vec::new();
        for job in &jobs {
            let key = (fps_in[job.in_idx], fps_out[job.out_idx]);
            let name = &records[job.slot].name;
            let stored = self.store.get(key).and_then(|line| {
                let validated =
                    replayable(&line, self.validator.normalizer, &self.validator.cascade)?;
                Some((line, validated))
            });
            if let Some((line, validated)) = stored {
                slots[job.slot] = Some(SlotOutcome { line, validated, from_store: true });
            } else if key.0 == key.1 {
                let line =
                    self.verdict_line(name, Some(key.0), Some(key.1), &unqueried(true, None));
                let _ = self.store.put(key, &line);
                slots[job.slot] = Some(SlotOutcome { line, validated: true, from_store: false });
            } else {
                pending.push(job);
            }
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
            let _ = self.store.put(key, &line);
            slots[job.slot] = Some(SlotOutcome { line, validated, from_store: false });
        }
        // Stream: batch-begin, verdict lines in record order, batch-end.
        let outcomes: Vec<SlotOutcome> =
            slots.into_iter().map(|s| s.expect("every record slot filled")).collect();
        let store_hits = outcomes.iter().filter(|o| o.from_store).count();
        let validated = outcomes.iter().filter(|o| o.validated).count();
        write_line(
            output,
            &wire::envelope(
                "batch-begin",
                [
                    ("id", Json::str(id)),
                    ("module", Json::str(&input.name)),
                    ("functions", Json::num(outcomes.len() as f64)),
                ],
            )
            .to_string(),
        )?;
        for o in &outcomes {
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
                    ("validations_run", Json::num(pending.len() as f64)),
                ],
            )
            .to_string(),
        )?;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.functions.fetch_add(outcomes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// One wire verdict line: (function name, fingerprint pair, triaged
    /// verdict) plus the server's fixed engine configuration, and **no
    /// request id**. The verdict's wall-clock fields (`duration_ns`, and
    /// `triage.sat.duration_ns` under tier 2) vary between computations;
    /// replays are byte-identical because the store keeps and returns the
    /// line verbatim. The `normalizer`/`rule_engine`/`tier2` stamp
    /// identifies the rewrite engine and cascade depth the verdict was
    /// computed under, so a store shared across configurations never
    /// replays a verdict from a different one.
    fn verdict_line(
        &self,
        function: &str,
        orig_fp: Option<u64>,
        opt_fp: Option<u64>,
        tv: &TriagedVerdict,
    ) -> String {
        let fp = |f: Option<u64>| f.map(u64_hex).unwrap_or(Json::Null);
        wire::envelope(
            "verdict",
            [
                ("function", Json::str(function)),
                ("orig_fp", fp(orig_fp)),
                ("opt_fp", fp(opt_fp)),
                ("normalizer", self.validator.normalizer.to_wire()),
                ("rule_engine", Json::num(RULE_ENGINE_VERSION as f64)),
                ("tier2", Json::Bool(self.validator.cascade.tier2())),
                ("class", tv.class().to_wire()),
                ("verdict", tv.to_wire()),
            ],
        )
        .to_string()
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

fn parse_pair(doc: &Json) -> Result<(Module, Module), wire::WireError> {
    let parse_side = |key: &str| -> Result<Module, wire::WireError> {
        parse_module(doc.str_field(key)?)
            .map_err(|e| wire::WireError::schema(format!("field `{key}`: unparseable module: {e}")))
    };
    Ok((parse_side("original")?, parse_side("optimized")?))
}

/// A verdict decided without a validation query (a pairing alarm, or a
/// fingerprint-identical pair): empty stats, no triage.
fn unqueried(validated: bool, reason: Option<FailReason>) -> TriagedVerdict {
    let stats = ValidationStats::default();
    TriagedVerdict { verdict: Verdict { validated, reason, stats }, triage: None }
}

fn fingerprint_by_name(m: &Module, name: &str) -> u64 {
    m.functions
        .iter()
        .find(|f| f.name == name)
        .map(fingerprint)
        .expect("pairing produced this record from this module")
}

/// Whether a stored verdict line may be replayed by a server running
/// `normalizer` at [`RULE_ENGINE_VERSION`] under `cascade`: `Some(validated)`
/// when it may (`validated` is whether its class says so), `None` when the
/// pair must re-validate. A line without the engine stamp predates it and
/// decodes as `destructive` at engine version 1; a line without the `tier2`
/// stamp predates tier 2 and decodes as tier-1-only. An alarm line replays
/// only when it carries a triage exactly when the cascade triages
/// (validated lines never carry one, so they replay under any cascade).
/// Mismatches and corrupt lines are store misses, never replayed — in
/// particular, a tier-2 server re-validates every stored tier-1-only
/// verdict so its alarms get the bit-precise query, and a triaging server
/// re-validates every untriaged alarm so it gets a class and a witness.
fn replayable(line: &str, normalizer: Normalizer, cascade: &Cascade) -> Option<bool> {
    let doc = wire::parse(line).ok()?;
    let line_norm = match doc.get("normalizer") {
        None => Normalizer::Destructive,
        Some(v) => Normalizer::parse(v.as_str()?)?,
    };
    let line_engine = match doc.get("rule_engine") {
        None => 1,
        Some(v) => wire::parse_u64(v).ok()?,
    };
    let line_tier2 = match doc.get("tier2") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return None,
    };
    let validated = doc.get("class").and_then(Json::as_str)
        == Some(VerdictClass::Validated.to_string().as_str());
    let triaged =
        doc.get("verdict").and_then(|v| v.get("triage")).is_some_and(|t| !matches!(t, Json::Null));
    let matches = line_norm == normalizer
        && line_engine == RULE_ENGINE_VERSION
        && line_tier2 == cascade.tier2()
        && (validated || triaged == cascade.triages());
    matches.then_some(validated)
}
