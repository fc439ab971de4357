//! Integration tests for the `llvm-md serve` loop: the framed request
//! protocol end to end, over in-memory buffers (no process spawning).
//!
//! The load-bearing property is the store contract: sending the *same*
//! batch twice must answer the second entirely from the verdict store —
//! zero validations run — with **byte-identical** verdict lines. The same
//! holds across a daemon restart when the store is on disk.

use llvm_md::core::wire::{self, Json};
use llvm_md::core::{Cascade, Normalizer, TriageOptions, Validator, RULE_ENGINE_VERSION};
use llvm_md::driver::store::line_key;
use llvm_md::driver::{ServeEnd, Server, ValidationEngine, VerdictStore};
use llvm_md::opt::paper_pipeline;
use llvm_md::workload::{generate_suite, injected_corpus};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("llvm-md-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A module pair (printed `.ll` text) from the deterministic suite, with
/// the paper pipeline applied to the output side.
fn suite_pair(index: usize) -> (String, String) {
    let suite = generate_suite(2);
    let (_, module) = &suite[index % suite.len()];
    let mut output = module.clone();
    paper_pipeline().run_module(&mut output);
    (format!("{module}"), format!("{output}"))
}

fn frame(doc: &Json) -> String {
    let text = doc.to_string();
    format!("{}\n{}", text.len(), text)
}

fn validate_request(id: &str, original: &str, optimized: &str) -> String {
    frame(&wire::envelope(
        "validate",
        [
            ("id", Json::str(id)),
            ("original", Json::str(original)),
            ("optimized", Json::str(optimized)),
        ],
    ))
}

fn control_request(kind: &str, id: &str) -> String {
    frame(&wire::envelope(kind, [("id", Json::str(id))]))
}

fn new_server(store: VerdictStore) -> Server {
    Server::new(ValidationEngine::with_workers(2), Validator::new(), store)
}

/// Run a request script through a server, returning parsed response lines.
fn run_script(server: &Server, script: &str) -> (ServeEnd, Vec<Json>) {
    let mut out = Vec::new();
    let end = server.serve(script.as_bytes(), &mut out).expect("serve loop");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    let lines = text
        .lines()
        .map(|l| wire::parse(l).unwrap_or_else(|e| panic!("unparseable response `{l}`: {e}")))
        .collect();
    (end, lines)
}

fn lines_of_type<'a>(lines: &'a [Json], ty: &str) -> Vec<&'a Json> {
    lines.iter().filter(|l| wire::doc_type(l).ok() == Some(ty)).collect()
}

fn field_u64(doc: &Json, key: &str) -> u64 {
    doc.u64_field(key).unwrap_or_else(|e| panic!("field `{key}`: {e}"))
}

#[test]
fn repeat_batch_is_answered_entirely_from_the_store() {
    let (original, optimized) = suite_pair(0);
    let script = format!(
        "{}{}{}",
        validate_request("b1", &original, &optimized),
        validate_request("b2", &original, &optimized),
        control_request("shutdown", "x"),
    );
    let server = new_server(VerdictStore::in_memory(1 << 16));
    let (end, lines) = run_script(&server, &script);
    assert_eq!(end, ServeEnd::Shutdown);

    let ends = lines_of_type(&lines, "batch-end");
    assert_eq!(ends.len(), 2);
    let functions = field_u64(ends[0], "functions");
    assert!(functions > 0);
    assert_eq!(field_u64(ends[0], "store_hits"), 0, "first batch cannot hit the store");
    assert_eq!(field_u64(ends[1], "store_hits"), functions, "second batch must be 100% store hits");
    assert_eq!(field_u64(ends[1], "validations_run"), 0, "second batch must not re-validate");
    assert_eq!(field_u64(ends[0], "validated"), field_u64(ends[1], "validated"));

    // Byte-identical replay: the verdict lines of both batches (re-encoded
    // from the parsed docs, which is byte-stable by the wire fixpoint) and
    // of the raw stream must match one-for-one.
    let verdicts: Vec<String> =
        lines_of_type(&lines, "verdict").iter().map(|v| v.to_string()).collect();
    assert_eq!(verdicts.len() as u64, functions * 2);
    let (first, second) = verdicts.split_at(functions as usize);
    assert_eq!(first, second, "replayed verdict lines must be byte-identical");
}

#[test]
fn store_hits_survive_a_daemon_restart() {
    let dir = tmpdir("restart");
    let (original, optimized) = suite_pair(1);
    let batch = validate_request("warm", &original, &optimized);

    let first_lines = {
        let server = new_server(VerdictStore::open(&dir, 1 << 16).unwrap());
        let script = format!("{}{}", batch, control_request("shutdown", "x"));
        let (_, lines) = run_script(&server, &script);
        lines
    };
    let first_verdicts: Vec<String> =
        lines_of_type(&first_lines, "verdict").iter().map(|v| v.to_string()).collect();
    assert!(!first_verdicts.is_empty());

    // A fresh server over the same directory: everything is a hit.
    let server = new_server(VerdictStore::open(&dir, 1 << 16).unwrap());
    assert_eq!(server.store().len(), first_verdicts.len());
    let script = format!("{}{}", batch, control_request("shutdown", "x"));
    let (_, lines) = run_script(&server, &script);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "store_hits") as usize, first_verdicts.len());
    assert_eq!(field_u64(end, "validations_run"), 0);
    let verdicts: Vec<String> =
        lines_of_type(&lines, "verdict").iter().map(|v| v.to_string()).collect();
    assert_eq!(verdicts, first_verdicts, "disk-replayed verdicts must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stored verdict only replays for a server running the same rewrite
/// engine: lines are stamped with the normalizer mode and rule-engine
/// version, a mismatch is a store miss, and the recomputed verdict
/// overwrites the entry under the current stamp.
#[test]
fn store_replay_requires_a_matching_engine_stamp() {
    let dir = tmpdir("stamp");
    let (original, optimized) = suite_pair(0);
    let batch = validate_request("b", &original, &optimized);
    let script = format!("{}{}", batch, control_request("shutdown", "x"));

    // Warm the store under the default destructive engine.
    let functions = {
        let server = new_server(VerdictStore::open(&dir, 1 << 16).unwrap());
        let (_, lines) = run_script(&server, &script);
        field_u64(lines_of_type(&lines, "batch-end")[0], "functions")
    };
    assert!(functions > 0);

    // A saturation-fallback server over the same store: every stored line
    // is stamped `destructive`, so nothing replays — every pair is
    // recomputed and restamped.
    let sat = Validator { normalizer: Normalizer::SaturateFallback, ..Validator::new() };
    let server = Server::new(
        ValidationEngine::with_workers(2),
        sat,
        VerdictStore::open(&dir, 1 << 16).unwrap(),
    );
    let (_, lines) = run_script(&server, &script);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "store_hits"), 0, "destructive verdicts must not answer saturation");
    for v in lines_of_type(&lines, "verdict") {
        assert_eq!(v.str_field("normalizer").unwrap(), "saturate-fallback");
        assert_eq!(field_u64(v, "rule_engine"), RULE_ENGINE_VERSION);
    }

    // The same configuration again: the restamped lines now replay fully.
    let server = Server::new(
        ValidationEngine::with_workers(2),
        sat,
        VerdictStore::open(&dir, 1 << 16).unwrap(),
    );
    let (_, lines) = run_script(&server, &script);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "store_hits"), functions);
    assert_eq!(field_u64(end, "validations_run"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lines written before the engine stamp existed decode as `destructive`
/// at rule-engine version 1: a destructive server keeps replaying them
/// byte-for-byte, a saturating server does not.
#[test]
fn untagged_legacy_lines_replay_only_under_the_destructive_engine() {
    let dir = tmpdir("legacy");
    let (original, optimized) = suite_pair(1);
    let batch = validate_request("b", &original, &optimized);
    let script = format!("{}{}", batch, control_request("shutdown", "x"));

    // Produce stamped lines, then overwrite each store entry with the
    // stamp fields stripped — the exact bytes a pre-stamp daemon wrote.
    let legacy: Vec<String> = {
        let server = new_server(VerdictStore::open(&dir, 1 << 16).unwrap());
        let (_, lines) = run_script(&server, &script);
        lines_of_type(&lines, "verdict")
            .iter()
            .map(|v| {
                let Json::Obj(fields) = (*v).clone() else { panic!("verdict must be an object") };
                let stripped = Json::Obj(
                    fields
                        .into_iter()
                        .filter(|(k, _)| k != "normalizer" && k != "rule_engine")
                        .collect(),
                );
                let key = line_key(&stripped).expect("verdicts carry a fingerprint pair");
                let line = stripped.to_string();
                server.store().put(key, &line).unwrap();
                line
            })
            .collect()
    };
    assert!(!legacy.is_empty());

    // A destructive server replays the legacy bytes verbatim.
    let server = new_server(VerdictStore::open(&dir, 1 << 16).unwrap());
    let (_, lines) = run_script(&server, &script);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "store_hits") as usize, legacy.len());
    let replayed: Vec<String> =
        lines_of_type(&lines, "verdict").iter().map(|v| v.to_string()).collect();
    assert_eq!(replayed, legacy, "legacy lines must replay byte-identically");

    // A saturating server treats every legacy line as a miss.
    let sat = Validator { normalizer: Normalizer::Saturate, ..Validator::new() };
    let server = Server::new(
        ValidationEngine::with_workers(2),
        sat,
        VerdictStore::open(&dir, 1 << 16).unwrap(),
    );
    let (_, lines) = run_script(&server, &script);
    assert_eq!(field_u64(lines_of_type(&lines, "batch-end")[0], "store_hits"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stored line whose `rule_engine` stamp is not a whole number is
/// malformed, not an older or newer engine: it is a store miss, never
/// truncated to engine 1 and replayed.
#[test]
fn fractional_engine_stamps_are_store_misses() {
    let dir = tmpdir("fractional-stamp");
    let (original, optimized) = suite_pair(1);
    let batch = validate_request("b", &original, &optimized);
    let script = format!("{}{}", batch, control_request("shutdown", "x"));
    for stamp in [1.5, 1.99] {
        let server = new_server(VerdictStore::open(&dir, 1 << 16).unwrap());
        let (_, lines) = run_script(&server, &script);
        let verdicts = lines_of_type(&lines, "verdict");
        assert!(!verdicts.is_empty());
        for v in &verdicts {
            let Json::Obj(fields) = (*v).clone() else { panic!("verdict must be an object") };
            let restamped = Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| if k == "rule_engine" { (k, Json::num(stamp)) } else { (k, v) })
                    .collect(),
            );
            let key = line_key(&restamped).expect("verdicts carry a fingerprint pair");
            server.store().put(key, &restamped.to_string()).unwrap();
        }

        let server = new_server(VerdictStore::open(&dir, 1 << 16).unwrap());
        let (_, lines) = run_script(&server, &script);
        let end = lines_of_type(&lines, "batch-end")[0];
        assert_eq!(field_u64(end, "store_hits"), 0, "rule_engine {stamp} must not replay");
        assert_eq!(field_u64(end, "validations_run") as usize, verdicts.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An alarm line replays only under a cascade that triages exactly when
/// the line's writer did: a triaging server over a store written by a
/// plain server re-validates the untriaged alarm (and then answers the
/// real-miscompile class with its witness) instead of replaying
/// `suspected-incomplete`. Validated lines carry no triage and replay
/// under either cascade.
#[test]
fn triaging_server_never_replays_an_untriaged_alarm() {
    let dir = tmpdir("triage-stamp");
    let bug = injected_corpus().into_iter().find(|b| b.name == "flip_max").expect("flip_max");
    let batch = validate_request("b", &format!("{}", bug.module), &format!("{}", bug.broken));
    let script = format!("{}{}", batch, control_request("shutdown", "x"));
    let verdict_for = |lines: &[Json], function: &str| -> Json {
        lines_of_type(lines, "verdict")
            .into_iter()
            .find(|v| v.str_field("function").ok() == Some(function))
            .unwrap_or_else(|| panic!("no verdict line for @{function}"))
            .clone()
    };
    let triaging =
        Validator { cascade: Cascade::Triage(TriageOptions::default()), ..Validator::new() };
    let triaging_server = || {
        Server::new(
            ValidationEngine::with_workers(2),
            triaging,
            VerdictStore::open(&dir, 1 << 16).unwrap(),
        )
    };

    // A plain server writes the store: the alarm is untriaged.
    let plain = {
        let server = new_server(VerdictStore::open(&dir, 1 << 16).unwrap());
        let (_, lines) = run_script(&server, &script);
        verdict_for(&lines, bug.function)
    };
    assert_eq!(plain.str_field("class").unwrap(), "suspected-incomplete");

    // A triaging server over that store must not replay it.
    let server = triaging_server();
    let (_, lines) = run_script(&server, &script);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "validations_run"), 1, "the untriaged alarm must re-validate");
    let triaged = verdict_for(&lines, bug.function);
    assert_eq!(triaged.str_field("class").unwrap(), "real-miscompile");
    let witness = triaged
        .get("verdict")
        .and_then(|v| v.opt_field("triage"))
        .and_then(|t| t.opt_field("witness"));
    assert!(witness.is_some(), "a real miscompile carries a witness: {triaged}");

    // The restamped line now replays for the triaging server, and a plain
    // server over the triaged store re-validates it in turn.
    let (_, lines) = run_script(&triaging_server(), &script);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "validations_run"), 0);
    assert_eq!(verdict_for(&lines, bug.function).to_string(), triaged.to_string());
    let (_, lines) = run_script(&new_server(VerdictStore::open(&dir, 1 << 16).unwrap()), &script);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "validations_run"), 1);
    let replain = verdict_for(&lines, bug.function);
    assert_eq!(replain.str_field("class").unwrap(), "suspected-incomplete");
    assert!(replain.get("verdict").and_then(|v| v.opt_field("triage")).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_and_flush_report_store_state() {
    let (original, optimized) = suite_pair(0);
    let script = format!(
        "{}{}{}{}",
        validate_request("b1", &original, &optimized),
        control_request("stats", "s1"),
        control_request("flush", "f1"),
        control_request("shutdown", "x"),
    );
    let server = new_server(VerdictStore::in_memory(1 << 16));
    let (_, lines) = run_script(&server, &script);
    let stats = lines_of_type(&lines, "stats")[0];
    assert_eq!(field_u64(stats, "batches"), 1);
    assert!(field_u64(stats, "functions") > 0);
    let store = stats.field("store").unwrap();
    assert_eq!(field_u64(store, "entries"), field_u64(stats, "functions"));
    let flush = lines_of_type(&lines, "flush-ok")[0];
    assert!(field_u64(flush, "entries") > 0);
    assert_eq!(lines_of_type(&lines, "shutdown-ok").len(), 1);
}

#[test]
fn malformed_frames_produce_error_lines_not_crashes() {
    let server = new_server(VerdictStore::in_memory(1 << 16));

    // Well-framed but semantically broken requests: the loop answers each
    // with an error line and keeps going.
    let bad_json = "17\n{not json at all}";
    let bad_version =
        frame(&Json::obj([(wire::VERSION_KEY, Json::num(999.0)), ("type", Json::str("validate"))]));
    let bad_type = frame(&wire::envelope("frobnicate", [("id", Json::str("q"))]));
    let bad_module = frame(&wire::envelope(
        "validate",
        [
            ("id", Json::str("m")),
            ("original", Json::str("define i64 @f( syntax error")),
            ("optimized", Json::str("")),
        ],
    ));
    let script = format!(
        "{bad_json}{bad_version}{bad_type}{bad_module}{}",
        control_request("shutdown", "x")
    );
    let (end, lines) = run_script(&server, &script);
    assert_eq!(end, ServeEnd::Shutdown, "the loop must survive bad requests");
    assert_eq!(lines_of_type(&lines, "error").len(), 4);

    // A broken *frame* (length prefix that is not a number) is not
    // recoverable — the loop reports one error line and ends.
    let (end, lines) = run_script(&server, "not-a-length\ngarbage");
    assert_eq!(end, ServeEnd::Eof);
    assert_eq!(lines_of_type(&lines, "error").len(), 1);
}

/// A client stream of `left` ASCII digits and no newline, counting how
/// many bytes the server pulled from it.
struct DigitStream {
    left: usize,
    pulled: usize,
}

impl std::io::Read for DigitStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.left);
        buf[..n].fill(b'7');
        self.left -= n;
        self.pulled += n;
        Ok(n)
    }
}

#[test]
fn newline_free_length_header_is_capped() {
    // 1 MiB of digits with no newline: the server must give up on the
    // length line after a few bytes, answer one error line and end,
    // rather than buffer the whole stream hunting for a newline.
    let server = new_server(VerdictStore::in_memory(1 << 16));
    let mut stream = DigitStream { left: 1 << 20, pulled: 0 };
    let mut out = Vec::new();
    let end = server.serve(std::io::BufReader::new(&mut stream), &mut out).expect("serve loop");
    assert_eq!(end, ServeEnd::Eof);
    let text = String::from_utf8(out).expect("responses are UTF-8");
    let lines: Vec<Json> = text.lines().map(|l| wire::parse(l).expect("response parses")).collect();
    assert_eq!(lines.len(), 1, "{text}");
    assert_eq!(lines_of_type(&lines, "error").len(), 1, "{text}");
    // A buffer fill (8 KiB) may have been pulled; the megabyte must not.
    assert!(stream.pulled <= 64 << 10, "server read {} header bytes", stream.pulled);
}
