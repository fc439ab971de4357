//! Integration tests for the `llvm-md serve` loop: the framed request
//! protocol end to end, over in-memory buffers (no process spawning).
//!
//! The load-bearing property is the store contract: sending the *same*
//! batch twice must answer the second entirely from the verdict store —
//! zero validations run — with **byte-identical** verdict lines. The same
//! holds across a daemon restart when the store is on disk.
//!
//! Direct mode (a request whose two texts the server has answered before,
//! replayed without parsing) must write exactly what the parse path writes
//! for the same store state, and must fall back to it whenever a stored
//! line is missing or not replayable.

use llvm_md::core::wire::{self, Json};
use llvm_md::core::{
    fingerprint, Cascade, Interning, Limits, MatchStrategy, Normalizer, RuleSet, SatOptions,
    SaturationLimits, TriageOptions, Validator, RULE_ENGINE_VERSION,
};
use llvm_md::driver::store::{line_key, ServingStamp, STAMP_WIDTH};
use llvm_md::driver::{ServeEnd, Server, ValidationEngine, VerdictStore};
use llvm_md::lir::parse::parse_module;
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

/// Run a request script through a server, returning the raw response
/// lines.
fn run_raw(server: &Server, script: &str) -> (ServeEnd, Vec<String>) {
    let mut out = Vec::new();
    let end = server.serve(script.as_bytes(), &mut out).expect("serve loop");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    (end, text.lines().map(str::to_owned).collect())
}

/// Run a request script through a server, returning parsed response lines.
fn run_script(server: &Server, script: &str) -> (ServeEnd, Vec<Json>) {
    let (end, raw) = run_raw(server, script);
    let lines = raw
        .iter()
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

/// A stored line with its stamp bytes changed: one hex digit of the stamp
/// field is replaced, so the line is well-formed but under another stamp.
fn restamped(line: &str) -> String {
    let at = STAMP_WIDTH - 3;
    let digit = if &line[at..at + 1] == "0" { "1" } else { "0" };
    format!("{}{digit}{}", &line[..at], &line[at + 1..])
}

/// How a format-v1 verdict line carried the old stamp fields.
#[derive(Clone, Copy, Debug)]
enum V1Stamp {
    /// `normalizer`, `rule_engine` and `tier2`, as a v1 server wrote them.
    Tagged,
    /// None of them: the bytes of a server older than the engine stamp.
    Untagged,
    /// A `rule_engine` that is not a whole number.
    Engine(f64),
}

/// The format-v1 bytes of a verdict line: no `stamp`, and the old stamp
/// fields as `stamp` says.
fn v1_line(verdict: &Json, stamp: V1Stamp) -> String {
    let Json::Obj(fields) = verdict.clone() else { panic!("verdict must be an object") };
    let mut old = Vec::new();
    for (k, v) in fields {
        let engine = k == "rule_engine";
        match (stamp, k.as_str()) {
            (_, "stamp") | (V1Stamp::Untagged, "normalizer" | "rule_engine") => {}
            (V1Stamp::Engine(x), "rule_engine") => old.push((k, Json::num(x))),
            _ => old.push((k, v)),
        }
        if engine && !matches!(stamp, V1Stamp::Untagged) {
            old.push(("tier2".to_owned(), Json::Bool(false)));
        }
    }
    Json::Obj(old).to_string()
}

/// The format-v2 rule for a v1 line: it is a store miss, the pair
/// re-validates, the entry is overwritten under the v2 stamp, and that line
/// then replays. In memory the v1 line never matches a stamp; on disk it is
/// dropped when the store loads, whatever the reading server's engine.
fn check_v1_lines_are_misses(stamp: V1Stamp) {
    let (original, optimized) = suite_pair(1);
    let batch = validate_request("b", &original, &optimized);
    let server = new_server(VerdictStore::in_memory(1 << 16));
    let (_, lines) = run_script(&server, &batch);
    let prefix = ServingStamp::of(&Validator::new()).prefix().to_owned();
    let verdicts: Vec<Json> = lines_of_type(&lines, "verdict").into_iter().cloned().collect();
    assert!(!verdicts.is_empty());
    let v1_lines: Vec<(_, String)> = verdicts
        .iter()
        .map(|v| (line_key(v).expect("verdicts carry a fingerprint pair"), v1_line(v, stamp)))
        .collect();
    assert!(v1_lines.iter().all(|(_, l)| l.starts_with(r#"{"schema_version":1,"type":"verdict""#)));

    // In memory: the v1 lines replace the entries under a running server,
    // whose repeat is a miss on every pair.
    for (key, line) in &v1_lines {
        server.store().put(*key, line).unwrap();
    }
    let (_, lines) = run_script(&server, &batch);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "store_hits"), 0, "{stamp:?}: a v1 line must not replay");
    assert_eq!(field_u64(end, "validations_run") as usize, verdicts.len(), "{stamp:?}");
    assert!(lines_of_type(&lines, "verdict").iter().all(|v| v.to_string().starts_with(&prefix)));
    let (_, lines) = run_script(&server, &batch);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "store_hits") as usize, verdicts.len(), "{stamp:?}: overwritten");

    // On disk: a store holding only v1 lines loads none of them, under the
    // destructive engine or a saturating one.
    let dir = tmpdir(&format!("v1-{stamp:?}"));
    let write_v1 = || {
        let _ = std::fs::remove_dir_all(&dir);
        let store = VerdictStore::open(&dir, 1 << 16).unwrap();
        for (key, line) in &v1_lines {
            store.put(*key, line).unwrap();
        }
    };
    write_v1();
    let sat = Validator { normalizer: Normalizer::Saturate, ..Validator::new() };
    let server = Server::new(
        ValidationEngine::with_workers(2),
        sat,
        VerdictStore::open(&dir, 1 << 16).unwrap(),
    );
    assert_eq!(server.store().stats().dropped_lines, v1_lines.len(), "{stamp:?}: saturate");
    let (_, lines) = run_script(&server, &batch);
    assert_eq!(field_u64(lines_of_type(&lines, "batch-end")[0], "store_hits"), 0, "{stamp:?}");

    write_v1();
    let server = new_server(VerdictStore::open(&dir, 1 << 16).unwrap());
    assert_eq!(server.store().stats().dropped_lines, v1_lines.len(), "{stamp:?}");
    let (_, lines) = run_script(&server, &batch);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "store_hits"), 0, "{stamp:?}");
    assert_eq!(field_u64(end, "validations_run") as usize, verdicts.len(), "{stamp:?}");
    let server = new_server(VerdictStore::open(&dir, 1 << 16).unwrap());
    let (_, lines) = run_script(&server, &batch);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "store_hits") as usize, verdicts.len(), "{stamp:?}: v2 on disk");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A format-v1 line with the old `normalizer`, `rule_engine` and `tier2`
/// fields is a store miss and is overwritten under the v2 stamp.
#[test]
fn v1_lines_are_store_misses_and_are_overwritten() {
    check_v1_lines_are_misses(V1Stamp::Tagged);
}

/// Lines written before the engine stamp existed once decoded as
/// `destructive` at rule-engine version 1. Under format v2 they carry no
/// serving stamp, so they replay under no engine at all, the destructive
/// one included: each is a miss and is overwritten.
#[test]
fn untagged_legacy_lines_replay_only_under_the_destructive_engine() {
    check_v1_lines_are_misses(V1Stamp::Untagged);
}

/// A v1 line whose `rule_engine` is not a whole number is a store miss,
/// never truncated to engine 1 and replayed.
#[test]
fn fractional_engine_stamps_are_store_misses() {
    for engine in [1.5, 1.99] {
        check_v1_lines_are_misses(V1Stamp::Engine(engine));
    }
}

/// `f(x) = x == 7 ? 1 : 0` "optimized" to `ret 0`: a miscompile that a
/// one-input triage battery misses and a 64-input battery catches.
const EQ7: &str = "define i64 @f(i64 %x) {\nentry:\n  %c = icmp eq i64 %x, 7\n  \
                   %r = select i1 %c, i64 1, i64 0\n  ret i64 %r\n}\n";
const EQ7_BROKEN: &str = "define i64 @f(i64 %x) {\nentry:\n  ret i64 0\n}\n";

fn battery(battery: usize) -> Validator {
    let triage = TriageOptions { battery, ..TriageOptions::default() };
    Validator { cascade: Cascade::Triage(triage), ..Validator::new() }
}

/// A store written by a `--triage --battery 1` server must not answer a
/// `--battery 64` server, which re-validates and finds the miscompile.
#[test]
fn battery_64_server_does_not_replay_a_battery_1_verdict() {
    let dir = tmpdir("battery");
    let script = validate_request("b", EQ7, EQ7_BROKEN);
    let serve = |validator: Validator| {
        let server = Server::new(
            ValidationEngine::with_workers(2),
            validator,
            VerdictStore::open(&dir, 1 << 16).unwrap(),
        );
        let (_, lines) = run_script(&server, &script);
        let end = lines_of_type(&lines, "batch-end")[0].clone();
        let class = lines_of_type(&lines, "verdict")[0].str_field("class").unwrap().to_owned();
        (end, class)
    };
    let (end, class) = serve(battery(1));
    assert_eq!(field_u64(&end, "validations_run"), 1);
    assert_eq!(class, "suspected-incomplete", "one input misses x == 7");
    let (end, class) = serve(battery(64));
    assert_eq!(field_u64(&end, "store_hits"), 0, "{end}");
    assert_eq!(field_u64(&end, "validations_run"), 1, "{end}");
    assert_eq!(class, "real-miscompile");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serve a two-function pair (one validated, one alarm) under `first`,
/// then under `second` over the same store: whether the second server
/// replayed every stored line (`true`) or none of them (`false`).
fn second_server_replays(tag: &str, first: Validator, second: Validator) -> bool {
    let dir = tmpdir(&format!("stamp-{tag}"));
    let double = "define i64 @double(i64 %x) {\nentry:\n  %r = add i64 %x, %x\n  ret i64 %r\n}\n";
    let shl = "define i64 @double(i64 %x) {\nentry:\n  %r = shl i64 %x, 1\n  ret i64 %r\n}\n";
    let script = validate_request("b", &format!("{double}{EQ7}"), &format!("{shl}{EQ7_BROKEN}"));
    let serve = |validator: Validator| {
        let server = Server::new(
            ValidationEngine::with_workers(2),
            validator,
            VerdictStore::open(&dir, 1 << 16).unwrap(),
        );
        let (_, lines) = run_script(&server, &script);
        lines_of_type(&lines, "batch-end")[0].clone()
    };
    assert_eq!(field_u64(&serve(first), "validations_run"), 2, "{tag}");
    let end = serve(second);
    let _ = std::fs::remove_dir_all(&dir);
    match (field_u64(&end, "store_hits"), field_u64(&end, "validations_run")) {
        (2, 0) => true,
        (0, 2) => false,
        _ => panic!("{tag}: a stamp either matches every line or none: {end}"),
    }
}

#[test]
fn changed_rule_set_is_a_store_miss() {
    let changed = Validator { rules: RuleSet { libc: true, ..RuleSet::all() }, ..Validator::new() };
    assert!(!second_server_replays("rules", Validator::new(), changed));
}

#[test]
fn changed_match_strategy_is_a_store_miss() {
    let changed = Validator { strategy: MatchStrategy::Partition, ..Validator::new() };
    assert!(!second_server_replays("strategy", Validator::new(), changed));
}

#[test]
fn changed_limits_are_a_store_miss() {
    let limits = Limits { max_rounds: 47, ..Limits::default() };
    let changed = Validator { limits, ..Validator::new() };
    assert!(!second_server_replays("limits", Validator::new(), changed));
}

#[test]
fn changed_saturation_limits_are_a_store_miss() {
    let saturation = SaturationLimits { max_classes: 1_000, ..SaturationLimits::default() };
    let changed = Validator { saturation, ..Validator::new() };
    assert!(!second_server_replays("saturation", Validator::new(), changed));
}

#[test]
fn changed_triage_options_are_a_store_miss() {
    let base = battery(24);
    for (field, triage) in [
        ("seed", TriageOptions { seed: 1, ..TriageOptions::default() }),
        ("shrink_budget", TriageOptions { shrink_budget: 7, ..TriageOptions::default() }),
        ("fuel", TriageOptions { fuel: 99_999, ..TriageOptions::default() }),
        ("max_depth", TriageOptions { max_depth: 31, ..TriageOptions::default() }),
    ] {
        let changed = Validator { cascade: Cascade::Triage(triage), ..Validator::new() };
        assert!(!second_server_replays(field, base, changed), "{field}");
    }
}

#[test]
fn changed_sat_options_are_a_store_miss() {
    let tiered = |sat| Validator {
        cascade: Cascade::Tiered(TriageOptions::default(), sat),
        ..Validator::new()
    };
    let changed = SatOptions { max_conflicts: 1_000, ..SatOptions::default() };
    assert!(!second_server_replays("sat", tiered(SatOptions::default()), tiered(changed)));
}

#[test]
fn changed_normalizer_is_a_store_miss() {
    let changed = Validator { normalizer: Normalizer::SaturateFallback, ..Validator::new() };
    assert!(!second_server_replays("normalizer", Validator::new(), changed));
}

#[test]
fn changed_cascade_variant_is_a_store_miss() {
    let tiered = Validator {
        cascade: Cascade::Tiered(TriageOptions::default(), SatOptions::default()),
        ..Validator::new()
    };
    assert!(!second_server_replays("graph-triage", Validator::new(), battery(24)));
    assert!(!second_server_replays("triage-tiered", battery(24), tiered));
}

/// The interner and the two wall-clock budgets are outside the stamp: a
/// server that changes only those replays the store.
#[test]
fn interning_and_wall_clock_budgets_still_replay() {
    let tiered = Validator {
        cascade: Cascade::Tiered(TriageOptions::default(), SatOptions::default()),
        ..Validator::new()
    };
    let naive = Validator { interning: Interning::Naive, ..tiered };
    let limits = Limits { max_time: std::time::Duration::from_secs(9), ..Limits::default() };
    let sat = SatOptions { max_time: std::time::Duration::from_secs(9), ..SatOptions::default() };
    let slow_tier1 = Validator { limits, ..tiered };
    let slow_tier2 =
        Validator { cascade: Cascade::Tiered(TriageOptions::default(), sat), ..tiered };
    for (tag, changed) in
        [("interning", naive), ("max_time", slow_tier1), ("sat-max_time", slow_tier2)]
    {
        assert!(second_server_replays(tag, tiered, changed), "{tag}");
    }
}

/// A triaging server's stamp differs from a plain server's, so it never
/// replays an untriaged alarm: over a store written by a plain server it
/// re-validates the alarm (and then answers the real-miscompile class with
/// its witness) instead of replaying `suspected-incomplete`, and the
/// reverse holds too. The triaged line replays only while its stamp bytes
/// are intact.
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

    let (plain_line, triaged_line) = (plain.to_string(), triaged.to_string());
    assert_ne!(plain_line[..STAMP_WIDTH], triaged_line[..STAMP_WIDTH], "the stamps differ");

    // The restamped line now replays for the triaging server...
    let (_, lines) = run_script(&triaging_server(), &script);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "validations_run"), 0);
    assert_eq!(verdict_for(&lines, bug.function).to_string(), triaged_line);

    // ...but not once its stamp bytes change.
    let key = line_key(&triaged).expect("a transformed pair has a key");
    triaging_server().store().put(key, &restamped(&triaged_line)).unwrap();
    let (_, lines) = run_script(&triaging_server(), &script);
    let end = lines_of_type(&lines, "batch-end")[0];
    assert_eq!(field_u64(end, "validations_run"), 1, "a changed stamp re-validates");
    assert_eq!(verdict_for(&lines, bug.function).str_field("class").unwrap(), "real-miscompile");

    // A plain server over the triaged store re-validates in turn.
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
    assert_eq!(field_u64(stats, "direct_replays"), 0, "a first batch is never direct");
    assert!(field_u64(stats, "functions") > 0);
    let store = stats.field("store").unwrap();
    assert_eq!(field_u64(store, "entries"), field_u64(stats, "functions"));
    let flush = lines_of_type(&lines, "flush-ok")[0];
    assert!(field_u64(flush, "entries") > 0);
    assert_eq!(lines_of_type(&lines, "shutdown-ok").len(), 1);

    // The same texts again, after the flush: answered without parsing, and
    // counted as a direct replay.
    let script = format!(
        "{}{}",
        validate_request("b2", &original, &optimized),
        control_request("stats", "s2"),
    );
    let (_, lines) = run_script(&server, &script);
    let stats = lines_of_type(&lines, "stats")[0];
    assert_eq!(field_u64(stats, "batches"), 2);
    assert_eq!(field_u64(stats, "direct_replays"), 1);
    assert_eq!(server.counters().direct_replays, 1);
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

/// Malformed SSA in a validate frame (a use of an undefined register, a
/// register defined twice) parses but would panic graph construction: the
/// server answers that one request with an error line, runs nothing, and
/// keeps serving the next frame.
#[test]
fn malformed_ssa_is_an_error_line_not_a_crash() {
    let good = "define i64 @f(i64 %x) {\nentry:\n  %r = add i64 %x, 0\n  ret i64 %r\n}\n";
    let optimized = "define i64 @f(i64 %x) {\nentry:\n  ret i64 %x\n}\n";
    let undefined = "define i64 @f(i64 %x) {\nentry:\n  %r = add i64 %y, 0\n  ret i64 %r\n}\n";
    let twice = "define i64 @f(i64 %x) {\nentry:\n  %r = add i64 %x, 0\n  \
                 %r = add i64 %x, 1\n  ret i64 %r\n}\n";
    for (tag, bad) in [("undefined", undefined), ("twice", twice)] {
        parse_module(bad).unwrap_or_else(|e| panic!("{tag}: the frame must parse: {e}"));
        let server = new_server(VerdictStore::in_memory(1 << 16));
        let script = format!(
            "{}{}{}",
            validate_request("bad", bad, optimized),
            validate_request("good", good, optimized),
            control_request("shutdown", "s")
        );
        let (end, lines) = run_script(&server, &script);
        assert_eq!(end, ServeEnd::Shutdown, "{tag}: the loop must survive malformed SSA");
        let errors = lines_of_type(&lines, "error");
        assert_eq!(errors.len(), 1, "{tag}: {lines:?}");
        assert_eq!(errors[0].get("id").and_then(Json::as_str), Some("bad"), "{tag}");
        let ends = lines_of_type(&lines, "batch-end");
        assert_eq!(ends.len(), 1, "{tag}: only the good frame gets a batch");
        assert_eq!(ends[0].get("id").and_then(Json::as_str), Some("good"), "{tag}");
        assert_eq!(field_u64(ends[0], "functions"), 1, "{tag}");
        assert_eq!(field_u64(ends[0], "validated"), 1, "{tag}");
        assert_eq!(lines_of_type(&lines, "verdict").len(), 1, "{tag}");
        assert_eq!(lines_of_type(&lines, "shutdown-ok").len(), 1, "{tag}");
        assert_eq!(server.counters().validations_run, 1, "{tag}: the bad frame ran nothing");
    }
}

/// A global declaring a huge element count (or `-1`, which a cast turns
/// into `usize::MAX`) must not size an allocation: each such frame gets an
/// error line, and the server goes on to answer the next frame normally.
#[test]
fn hostile_global_sizes_are_error_lines_not_crashes() {
    let body = "define i64 @f(i64 %x) {\nentry:\n  ret i64 %x\n}\n";
    let server = new_server(VerdictStore::in_memory(1 << 16));
    let mut script = String::new();
    for size in ["1000000000000", "-1"] {
        let hostile = format!("@g = global [{size} x i64] [0]\n{body}");
        script += &validate_request(size, &hostile, body);
    }
    script += &validate_request("good", body, body);
    script += &control_request("shutdown", "s");
    let (end, lines) = run_script(&server, &script);
    assert_eq!(end, ServeEnd::Shutdown, "the loop must survive hostile globals");
    let errors: Vec<_> =
        lines_of_type(&lines, "error").iter().map(|e| e.get("id").and_then(Json::as_str)).collect();
    assert_eq!(errors, [Some("1000000000000"), Some("-1")], "{lines:?}");
    let ends = lines_of_type(&lines, "batch-end");
    assert_eq!(ends.len(), 1, "only the good frame gets a batch: {lines:?}");
    assert_eq!(ends[0].get("id").and_then(Json::as_str), Some("good"));
    assert_eq!(field_u64(ends[0], "functions"), 1);
    assert_eq!(field_u64(ends[0], "validated"), 1);
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

/// A pairing alarm on a duplicate-named function carries the fingerprint
/// of the copy that went unpaired, not that of the first copy with the
/// name — for a copy the optimizer dropped and for a copy it added.
#[test]
fn duplicate_name_pairing_alarms_fingerprint_the_unpaired_copy() {
    let add = "define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  ret i64 %x\n}\n";
    let mul = "define i64 @f(i64 %a) {\nentry:\n  %x = mul i64 %a, 3\n  ret i64 %x\n}\n";
    let both = format!("{add}{mul}");
    let mul_fp = fingerprint(&parse_module(mul).expect("parse").functions[0]);
    let script = format!(
        "{}{}{}",
        validate_request("missing", &both, add),
        validate_request("extra", add, &both),
        control_request("shutdown", "x"),
    );
    let (_, lines) = run_script(&new_server(VerdictStore::in_memory(64)), &script);
    // Each batch answers the paired first copy, then the unpaired `mul`.
    let verdicts = lines_of_type(&lines, "verdict");
    assert_eq!(verdicts.len(), 4);
    assert_eq!(field_u64(verdicts[1], "orig_fp"), mul_fp, "the dropped copy");
    assert_eq!(verdicts[1].get("opt_fp"), Some(&Json::Null));
    assert_eq!(field_u64(verdicts[3], "opt_fp"), mul_fp, "the added copy");
    assert_eq!(verdicts[3].get("orig_fp"), Some(&Json::Null));
}

/// `n` dependent `add`s in one block: a graph as deep as it is long.
fn add_chain(n: usize) -> String {
    let mut f = String::from("define i64 @f(i64 %x) {\nentry:\n  %v0 = add i64 %x, 1\n");
    for i in 1..n {
        f += &format!("  %v{i} = add i64 %v{}, %x\n", i - 1);
    }
    f + &format!("  ret i64 %v{}\n}}\n", n - 1)
}

/// A counting loop whose body is `n` dependent `add`s.
fn loop_with_add_body(n: usize) -> String {
    let mut f = String::from(
        "define i64 @f(i64 %x) {\nentry:\n  br label %h\nh:\n\
         \x20 %i = phi i64 [ 0, %entry ], [ %i2, %b ]\n\
         \x20 %c = icmp slt i64 %i, %x\n  br i1 %c, label %b, label %d\nb:\n\
         \x20 %a0 = add i64 %i, %x\n",
    );
    for k in 1..n {
        f += &format!("  %a{k} = add i64 %a{}, %x\n", k - 1);
    }
    f + &format!("  %i2 = add i64 %a{}, 1\n  br label %h\nd:\n  ret i64 %i\n}}\n", n - 1)
}

/// Deep graphs validated against `ret i64 %x` are answered within the
/// validator's deadline: one 8,000-add chain and one loop with a
/// 4,000-add body, each a single frame. Cycle matching used to refine the
/// whole graph once per level of depth (about 17 s and 4 s) even though
/// neither side has two loops to match.
#[test]
fn deep_graphs_are_answered_within_the_deadline() {
    let identity = "define i64 @f(i64 %x) {\nentry:\n  ret i64 %x\n}\n";
    let max_time = Limits::default().max_time;
    for (name, original) in [("chain", add_chain(8_000)), ("loop", loop_with_add_body(4_000))] {
        let script = format!(
            "{}{}",
            validate_request(name, &original, identity),
            control_request("shutdown", "x")
        );
        let server = new_server(VerdictStore::in_memory(1 << 16));
        let (end, lines) = run_script(&server, &script);
        assert_eq!(end, ServeEnd::Shutdown, "{name}");
        assert!(lines_of_type(&lines, "error").is_empty(), "{name}: {lines:?}");
        let ends = lines_of_type(&lines, "batch-end");
        assert_eq!(ends.len(), 1, "{name}: one complete batch");
        assert_eq!(field_u64(ends[0], "functions"), 1, "{name}");
        let verdicts = lines_of_type(&lines, "verdict");
        assert_eq!(verdicts.len(), 1, "{name}");
        let v = verdicts[0].get("verdict").and_then(|v| v.get("verdict")).expect("tier-1 verdict");
        assert_eq!(
            v.get("reason").and_then(|r| r.str_field("kind").ok()),
            Some("roots-differ"),
            "{name}: {v}"
        );
        let stats = v.get("stats").expect("stats");
        let took = std::time::Duration::from_nanos(field_u64(stats, "duration_ns"));
        assert!(took < max_time, "{name}: {took:?} is past the {max_time:?} deadline");
    }
}

/// The verdict lines of every batch in a raw response stream, one vector
/// per `batch-end`, and the `batch-begin`/`batch-end` lines with their
/// request id removed.
fn batches(raw: &[String]) -> Vec<(Vec<String>, String, String)> {
    let without_id = |line: &str| {
        let Json::Obj(fields) = wire::parse(line).expect("response parses") else {
            panic!("response must be an object: {line}")
        };
        Json::Obj(fields.into_iter().filter(|(k, _)| k != "id").collect()).to_string()
    };
    let mut out = Vec::new();
    let mut current: Option<(Vec<String>, String)> = None;
    for line in raw {
        let doc = wire::parse(line).expect("response parses");
        match wire::doc_type(&doc).expect("typed response") {
            "batch-begin" => current = Some((Vec::new(), without_id(line))),
            "verdict" => current.as_mut().expect("verdict inside a batch").0.push(line.clone()),
            "batch-end" => {
                let (verdicts, begin) = current.take().expect("batch-end closes a batch");
                out.push((verdicts, begin, without_id(line)));
            }
            _ => {}
        }
    }
    out
}

/// Two modules whose pairing raises every kind of pairing alarm: `@g` is
/// dropped, `@k` is extra, and the second `@h` (a duplicate name) is
/// dropped too, next to two transformed pairs and one unchanged pair.
fn alarm_pair() -> (String, String) {
    let f = "define i64 @f(i64 %x) {\nentry:\n  %r = add i64 %x, %x\n  ret i64 %r\n}\n";
    let f_opt = "define i64 @f(i64 %x) {\nentry:\n  %r = shl i64 %x, 1\n  ret i64 %r\n}\n";
    let g = "define i64 @g(i64 %x) {\nentry:\n  ret i64 %x\n}\n";
    let h_add = "define i64 @h(i64 %a) {\nentry:\n  %x = add i64 %a, 0\n  ret i64 %x\n}\n";
    let h_opt = "define i64 @h(i64 %a) {\nentry:\n  ret i64 %a\n}\n";
    let h_mul = "define i64 @h(i64 %a) {\nentry:\n  %x = mul i64 %a, 3\n  ret i64 %x\n}\n";
    let id = "define i64 @id(i64 %x) {\nentry:\n  ret i64 %x\n}\n";
    let k = "define i64 @k(i64 %x) {\nentry:\n  %r = sub i64 %x, 1\n  ret i64 %r\n}\n";
    (
        format!("; module alarms\n{f}{g}{h_add}{h_mul}{id}"),
        format!("; module alarms\n{f_opt}{h_opt}{id}{k}"),
    )
}

/// Direct mode writes exactly what the parse path writes for the same
/// store state: the verdict lines (pairing alarms for a dropped, an extra
/// and a duplicate-named function included), the counts and the module
/// name. A one-comment change to either text misses the manifest but hits
/// the store by fingerprint, so it takes the parse path with 100% store
/// hits; only exact repeats are direct.
#[test]
fn direct_replay_matches_the_parse_path() {
    let (original, optimized) = alarm_pair();
    let script = format!(
        "{}{}{}{}{}",
        validate_request("first", &original, &optimized),
        validate_request("direct", &original, &optimized),
        validate_request("orig-comment", &format!("{original}; edited\n"), &optimized),
        validate_request("opt-comment", &original, &format!("{optimized}; edited\n")),
        control_request("stats", "s"),
    );
    let server = new_server(VerdictStore::in_memory(1 << 16));
    let (_, raw) = run_raw(&server, &script);
    let lines: Vec<Json> = raw.iter().map(|l| wire::parse(l).expect("response parses")).collect();
    let ends = lines_of_type(&lines, "batch-end");
    assert_eq!(ends.len(), 4, "{raw:?}");
    assert_eq!(field_u64(ends[0], "functions"), 6, "f, g, h, the second h, id, the extra k");
    for end in &ends[1..] {
        assert_eq!(field_u64(end, "store_hits"), 3, "every paired function hits the store: {end}");
        assert_eq!(field_u64(end, "validations_run"), 0, "{end}");
    }
    let stats = lines_of_type(&lines, "stats")[0];
    assert_eq!(field_u64(stats, "direct_replays"), 1, "only the exact repeat is direct");

    let answers = batches(&raw);
    let (direct, parsed) = (&answers[1], &answers[2..]);
    for answer in parsed {
        assert_eq!(answer, direct, "the direct answer must equal the parse path's, byte for byte");
    }
    assert_eq!(answers[0].0, direct.0, "replayed verdict lines equal the first answer's");
    assert!(direct.1.contains(r#""module":"alarms""#), "{}", direct.1);
    let reasons: Vec<String> = lines_of_type(&lines, "verdict")[6..12]
        .iter()
        .filter_map(|v| v.get("verdict")?.get("verdict")?.get("reason")?.str_field("kind").ok())
        .map(str::to_owned)
        .collect();
    assert_eq!(reasons, ["missing-function", "missing-function", "extra-function"]);
}

/// The manifest keys on the raw, still-escaped field bytes: the same texts
/// escaped differently (`\u0064` for `d`) miss it and take the parse
/// path, which unescapes them to the same modules and answers the same
/// lines from the store.
#[test]
fn differently_escaped_resend_is_a_manifest_miss() {
    let (original, optimized) = alarm_pair();
    let plain = validate_request("a", &original, &optimized);
    let escaped = plain.replacen("define", "\\u0064efine", 1);
    assert_ne!(escaped, plain);
    let escaped = {
        let body = escaped.split_once('\n').expect("framed").1;
        format!("{}\n{body}", body.len())
    };
    let server = new_server(VerdictStore::in_memory(1 << 16));
    let (_, raw) = run_raw(&server, &format!("{plain}{escaped}{plain}"));
    let answers = batches(&raw);
    assert_eq!(answers.len(), 3);
    assert_eq!(server.counters().direct_replays, 1, "only the byte-identical resend is direct");
    let end = wire::parse(&answers[1].2).unwrap();
    assert_eq!(field_u64(&end, "validations_run"), 0, "the escaped resend hits the store");
    assert_eq!(answers[1].0, answers[0].0, "same modules, same verdict lines");
    assert_eq!(answers[2], answers[1], "direct mode answers as the parse path did");
}

/// A manifest whose store lines are gone (evicted from a one-entry store)
/// or no longer replayable (stamp bytes changed) falls back to the parse
/// path: the repeat re-validates and answers the same classes, never an
/// error. The fallback reuses the lookups direct mode made, so the store
/// counts one lookup per paired function per batch.
#[test]
fn manifest_with_missing_or_stale_lines_falls_back() {
    let (original, optimized) = suite_pair(0);
    let batch = |id: &str| validate_request(id, &original, &optimized);
    let classes = |lines: &[Json]| -> Vec<String> {
        lines_of_type(lines, "verdict")
            .iter()
            .map(|v| v.str_field("class").expect("class").to_owned())
            .collect()
    };

    // A roomy store: the repeat is direct, then a restamped line forces
    // the next repeat back onto the parse path.
    let server = new_server(VerdictStore::in_memory(1 << 16));
    let (_, first) = run_script(&server, &batch("b1"));
    let (_, second) = run_script(&server, &batch("b2"));
    assert_eq!(server.counters().direct_replays, 1);
    assert_eq!(classes(&second), classes(&first));
    let transformed = lines_of_type(&first, "verdict")
        .into_iter()
        .find(|v| v.get("orig_fp") != v.get("opt_fp"))
        .expect("suite module 0 has a transformed function")
        .clone();
    let stale = restamped(&transformed.to_string());
    server.store().put(line_key(&transformed).unwrap(), &stale).unwrap();
    let (_, third) = run_script(&server, &batch("b3"));
    let end = lines_of_type(&third, "batch-end")[0];
    assert_eq!(field_u64(end, "validations_run"), 1, "the stale line re-validates");
    assert_eq!(server.counters().direct_replays, 1, "a stale line is never replayed directly");
    assert_eq!(classes(&third), classes(&first));
    let paired =
        lines_of_type(&first, "verdict").iter().filter(|v| line_key(v).is_ok()).count() as u64;
    let stats = server.store().stats();
    assert_eq!(stats.hits + stats.misses, 3 * paired, "one lookup per paired function per batch");

    // A one-entry store keeps only the batch's last line: the repeat's
    // manifest points at evicted lines and must re-validate.
    let server = new_server(VerdictStore::in_memory(1));
    let (_, first) = run_script(&server, &batch("b1"));
    let (_, second) = run_script(&server, &batch("b2"));
    assert!(lines_of_type(&second, "error").is_empty(), "{second:?}");
    let ends = (lines_of_type(&first, "batch-end")[0], lines_of_type(&second, "batch-end")[0]);
    assert!(field_u64(ends.1, "validations_run") > 0, "evicted lines re-validate: {}", ends.1);
    assert_eq!(field_u64(ends.1, "validated"), field_u64(ends.0, "validated"));
    assert_eq!(server.counters().direct_replays, 0);
    assert_eq!(classes(&second), classes(&first));
}

/// A malformed-SSA frame leaves no manifest: sent twice, it answers two
/// `error` lines, while a good frame sent twice is replayed directly once.
#[test]
fn malformed_ssa_frames_are_never_replayed_directly() {
    let undefined = "define i64 @f(i64 %x) {\nentry:\n  %r = add i64 %y, 0\n  ret i64 %r\n}\n";
    let good = "define i64 @f(i64 %x) {\nentry:\n  %r = add i64 %x, 0\n  ret i64 %r\n}\n";
    let optimized = "define i64 @f(i64 %x) {\nentry:\n  ret i64 %x\n}\n";
    let script = format!(
        "{}{}{}{}",
        validate_request("bad1", undefined, optimized),
        validate_request("good1", good, optimized),
        validate_request("bad2", undefined, optimized),
        validate_request("good2", good, optimized),
    );
    let server = new_server(VerdictStore::in_memory(1 << 16));
    let (_, lines) = run_script(&server, &script);
    let errors = lines_of_type(&lines, "error");
    let ids: Vec<&str> = errors.iter().filter_map(|e| e.get("id").and_then(Json::as_str)).collect();
    assert_eq!(ids, ["bad1", "bad2"], "{lines:?}");
    assert_eq!(lines_of_type(&lines, "batch-end").len(), 2);
    assert_eq!(server.counters().direct_replays, 1, "only the good repeat is direct");
    assert_eq!(server.counters().validations_run, 1, "neither bad frame ran anything");
}

/// The manifest lives in memory: after a restart on the same store
/// directory, the first repeat takes the parse path with 100% store hits,
/// and the second one is direct. All three answers are the same lines.
#[test]
fn restart_parses_once_then_replays_directly() {
    let dir = tmpdir("direct-restart");
    let (original, optimized) = suite_pair(1);
    let batch = |id: &str| validate_request(id, &original, &optimized);
    let first = {
        let server = new_server(VerdictStore::open(&dir, 1 << 16).unwrap());
        let (_, raw) =
            run_raw(&server, &format!("{}{}", batch("b1"), control_request("shutdown", "x")));
        batches(&raw).remove(0)
    };
    let server = new_server(VerdictStore::open(&dir, 1 << 16).unwrap());
    let (_, raw) = run_raw(&server, &batch("b2"));
    assert_eq!(server.counters().direct_replays, 0, "the manifest does not survive a restart");
    let parsed = batches(&raw).remove(0);
    let end = wire::parse(&parsed.2).unwrap();
    assert_eq!(field_u64(&end, "store_hits"), field_u64(&end, "functions"));
    assert_eq!(field_u64(&end, "validations_run"), 0);
    let (_, raw) = run_raw(&server, &batch("b3"));
    assert_eq!(server.counters().direct_replays, 1, "the second repeat is direct");
    let direct = batches(&raw).remove(0);
    assert_eq!(direct, parsed, "direct and parse-path answers must be byte-identical");
    assert_eq!(first.0, direct.0, "verdict lines replay byte-identically across the restart");
    let _ = std::fs::remove_dir_all(&dir);
}
