//! `serve-mixed`: the shipped `llvm-md serve --stdin --store <fresh dir>`
//! in its default configuration, as a child process, with one client on
//! one connection in a closed loop.
//!
//! Each request is a fuzz module pair (original plus optimized `.ll`).
//! Every pair is sent twice in a round, in a seeded order: the first send
//! is new, the second repeats it. A new pair validates and appends to
//! the store (a write); a repeat is answered from the store (a read). A
//! run is a number of rounds of the same request sequence, each against a
//! fresh server and a fresh store directory, which is removed afterwards.

use crate::layers::{self, Counts, Walls};
use crate::stats::{median, peak_rss_mb, percentile, permutation, ratio, SETUP_REPS};
use crate::trace::Tracer;
use crate::{metric, Args, Checks, Drift, Outcome};
use llvm_md::core::cache::fingerprint;
use llvm_md::core::triage::{TriagedVerdict, VerdictClass};
use llvm_md::core::wire::{self, u64_hex, Json, ToWire};
use llvm_md::core::{ValidationStats, Validator, Verdict, RULE_ENGINE_VERSION};
use llvm_md::driver::default_workers;
use llvm_md::driver::store::{VerdictStore, DEFAULT_CAPACITY};
use llvm_md::lir::func::Module;
use llvm_md::lir::intern::Fnv1a;
use llvm_md::lir::parse::parse_module;
use llvm_md::opt::paper_pipeline;
use llvm_md::workload::fuzz::{campaign_module, fuzz_profiles};
use llvm_md::workload::DEFAULT_CAMPAIGN_SEED;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Requests per round; half are repeats, so one round gives a few hundred
/// samples of each latency class.
const ROUND_REQUESTS: usize = 500;

/// Salt separating the request-mix stream from the module generator.
const MIX_SALT: u64 = 0x5e2e_d15c_0000_0001;

struct Request {
    /// The wire document (without the length prefix).
    text: String,
    /// Which distinct module pair it carries.
    pair: usize,
}

/// The request sequence of one round: every distinct pair is sent twice,
/// once new and once as a repeat. The request-mix seed (`seed`) shuffles
/// the sequence, which places each repeat at some distance after its first
/// send. The `k`-th new pair is module `k / 6` of fuzz profile `k % 6` at
/// the default campaign seed, optimized with the paper pipeline, so every
/// seed sends the same set of distinct pairs and replays each of them once:
/// the seed changes the order, never which modules the latencies measure.
fn build_requests(seed: u64) -> Vec<Request> {
    let campaign_seed = DEFAULT_CAMPAIGN_SEED;
    // Slots `2s` and `2s + 1` of the shuffle carry the same pair; pairs are
    // numbered in the order they are first sent.
    let slots = permutation(ROUND_REQUESTS, seed ^ MIX_SALT);
    let profiles = fuzz_profiles();
    let pm = paper_pipeline();
    let mut pairs: Vec<(String, String)> = Vec::new();
    let mut pair_of_slot: Vec<Option<usize>> = vec![None; ROUND_REQUESTS / 2];
    let mut pair_of: Vec<usize> = Vec::with_capacity(ROUND_REQUESTS);
    for slot in slots {
        let pair = *pair_of_slot[slot / 2].get_or_insert_with(|| {
            let k = pairs.len();
            let original =
                campaign_module(&profiles[k % profiles.len()], campaign_seed, k / profiles.len());
            let mut optimized = original.clone();
            pm.run_module(&mut optimized);
            pairs.push((original.to_string(), optimized.to_string()));
            k
        });
        pair_of.push(pair);
    }
    pair_of
        .into_iter()
        .enumerate()
        .map(|(i, pair)| {
            let (original, optimized) = &pairs[pair];
            let text = wire::envelope(
                "validate",
                [
                    ("id", Json::str(format!("q{i}"))),
                    ("original", Json::str(original)),
                    ("optimized", Json::str(optimized)),
                ],
            )
            .to_string();
            Request { text, pair }
        })
        .collect()
}

/// The `type` of a response line (the envelope's first `type` key).
fn line_type(line: &str) -> &str {
    const KEY: &str = "\"type\":\"";
    line.find(KEY)
        .map(|i| &line[i + KEY.len()..])
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
}

/// A running `llvm-md serve --stdin` child. Dropping it kills and reaps
/// the child and removes its store directory.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    store: PathBuf,
}

impl Server {
    fn spawn(llvm_md: &Path, store: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(&store);
        let mut child = Command::new(llvm_md)
            .args(["serve", "--stdin", "--store"])
            .arg(&store)
            .env_remove("LLVM_MD_WORKERS")
            .env_remove("LLVM_MD_NORMALIZER")
            .env_remove("LLVM_MD_TIER2")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", llvm_md.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Server { child, stdin, stdout, store })
    }

    fn send(&mut self, text: &str) -> Result<(), String> {
        let w = &mut self.stdin;
        write!(w, "{}\n{text}", text.len())
            .and_then(|()| w.flush())
            .map_err(|e| format!("send to server: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server closed its output".to_owned()),
            Ok(_) => {
                line.truncate(line.trim_end_matches('\n').len());
                Ok(line)
            }
            Err(e) => Err(format!("read from server: {e}")),
        }
    }

    /// Send a `validate` request; return every response line through
    /// `batch-end` (or the `error` line that replaces it).
    fn validate(&mut self, text: &str) -> Result<Vec<String>, String> {
        self.send(text)?;
        let mut lines = Vec::new();
        loop {
            let line = self.line()?;
            let end = matches!(line_type(&line), "batch-end" | "error");
            lines.push(line);
            if end {
                return Ok(lines);
            }
        }
    }

    fn control(&mut self, kind: &str) -> Result<String, String> {
        self.send(&wire::envelope(kind, [("id", Json::str(kind))]).to_string())?;
        self.line()
    }

    /// Send `shutdown`, wait for the child and check it exited cleanly.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = self.control("shutdown")?;
        if line_type(&reply) != "shutdown-ok" {
            return Err(format!("shutdown answered `{reply}`"));
        }
        let status = self.child.wait().map_err(|e| format!("wait for server: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// Spawn a server on a fresh store and wait for its first reply.
fn start_server(args: &Args, tag: &str) -> Result<Server, String> {
    let store = args.work.join(format!("serve-store-{}-{tag}", std::process::id()));
    let mut server = Server::spawn(&args.llvm_md, store)?;
    let reply = server.control("stats")?;
    if line_type(&reply) != "stats" {
        return Err(format!("first reply was `{reply}`"));
    }
    Ok(server)
}

/// What one round of requests showed.
struct Round {
    /// `(latency ms, every function hit the store)` per request.
    latencies: Vec<(f64, bool)>,
    wall_s: f64,
    rss_mb: f64,
    /// Verdict class codes per request.
    classes: Vec<Vec<u8>>,
    /// Transformed function pairs answered, repeats included.
    answered: usize,
    /// Counts over the distinct pairs of the round.
    drift: Drift,
}

/// Send the whole sequence to a fresh server and check every answer: a
/// `batch-end` for each request, and byte-identical verdict lines for each
/// repeat of a pair.
fn run_round(
    args: &Args,
    requests: &[Request],
    tag: &str,
    checks: &mut Checks,
) -> Result<Round, String> {
    let mut server = start_server(args, tag)?;
    let mut responses = Vec::with_capacity(requests.len());
    let mut times = Vec::with_capacity(requests.len());
    let start = Instant::now();
    for r in requests {
        let t0 = Instant::now();
        responses.push(server.validate(&r.text)?);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb(Some(server.child.id())).unwrap_or(0.0);
    server.shutdown()?;

    let mut drift = Drift::default();
    let mut hash = Fnv1a::new();
    let mut first: Vec<Option<&[String]>> = Vec::new();
    let mut latencies = Vec::with_capacity(requests.len());
    let mut classes = Vec::with_capacity(requests.len());
    let mut answered = 0;
    for (i, (r, lines)) in requests.iter().zip(&responses).enumerate() {
        let (verdicts, end) = match lines.as_slice() {
            [begin, verdicts @ .., end]
                if line_type(begin) == "batch-begin" && line_type(end) == "batch-end" =>
            {
                (verdicts, end)
            }
            _ => {
                checks.check(false, || {
                    format!("request {i}: {}", lines.last().map_or("", |l| l.as_str()))
                });
                latencies.push((times[i], false));
                classes.push(Vec::new());
                continue;
            }
        };
        let end = wire::parse(end).map_err(|e| format!("batch-end: {e}"))?;
        let functions = end.u64_field("functions").map_err(|e| e.to_string())?;
        let hits = end.u64_field("store_hits").map_err(|e| e.to_string())?;
        latencies.push((times[i], functions > 0 && hits == functions));
        drift.store_hits += hits as usize;
        if first.len() <= r.pair {
            first.resize(r.pair + 1, None);
        }
        let repeat = first[r.pair].is_some();
        let same = match first[r.pair] {
            Some(prev) => prev == verdicts,
            None => {
                first[r.pair] = Some(verdicts);
                true
            }
        };
        checks.check(same, || format!("request {i}: repeat differs from the first answer"));
        let mut codes = Vec::with_capacity(verdicts.len());
        for v in verdicts {
            let doc = wire::parse(v).map_err(|e| format!("verdict line: {e}"))?;
            let class: VerdictClass = doc
                .str_field("class")
                .map_err(|e| e.to_string())?
                .parse()
                .map_err(|e: String| e)?;
            let transformed = doc.get("orig_fp") != doc.get("opt_fp");
            codes.push(class as u8);
            answered += usize::from(transformed);
            // Counts over distinct pairs: every seed sends the same set.
            if !repeat {
                drift.pairs += 1;
                drift.transformed += usize::from(transformed);
                drift.validated += usize::from(transformed && class == VerdictClass::Validated);
            }
        }
        hash.write(&codes);
        classes.push(codes);
    }
    drift.alarms = drift.transformed - drift.validated;
    drift.classes = hash.finish();
    Ok(Round { latencies, wall_s, rss_mb, classes, answered, drift })
}

/// The verdict line `llvm-md serve` writes for a pair, in its default
/// configuration (destructive normalizer, no tier 2).
fn verdict_line(
    validator: &Validator,
    function: &str,
    fps: (u64, u64),
    tv: &TriagedVerdict,
) -> String {
    wire::envelope(
        "verdict",
        [
            ("function", Json::str(function)),
            ("orig_fp", u64_hex(fps.0)),
            ("opt_fp", u64_hex(fps.1)),
            ("normalizer", validator.normalizer.to_wire()),
            ("rule_engine", Json::num(RULE_ENGINE_VERSION as f64)),
            ("tier2", Json::Bool(false)),
            ("class", tv.class().to_wire()),
            ("verdict", tv.to_wire()),
        ],
    )
    .to_string()
}

/// One request through the layers the server calls, one at a time:
/// `wire::parse`, `parse_module`, `fingerprint`, `VerdictStore::get`, tier 1
/// on each miss, the verdict line's encoding and `VerdictStore::put`.
fn traced_request(
    tr: &mut Tracer,
    c: &mut Counts,
    validator: &Validator,
    store: &VerdictStore,
    text: &str,
) -> Result<Vec<u8>, String> {
    let doc = tr.span("wire.parse", |_| wire::parse(text)).map_err(|e| e.to_string())?;
    c.wire_bytes += text.len() as u64;
    wire::check_version(&doc).map_err(|e| e.to_string())?;
    let side =
        |key: &str| -> Result<&str, String> { doc.str_field(key).map_err(|e| e.to_string()) };
    let (original, optimized) = (side("original")?, side("optimized")?);
    let (input, output): (Module, Module) =
        match tr.span("parse", |_| (parse_module(original), parse_module(optimized))) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return Err(e.to_string()),
        };
    c.parse_bytes += (original.len() + optimized.len()) as u64;
    let pairs = layers::pair_by_name(&input, &output);
    let fps: Vec<(u64, u64)> = tr.span("fingerprint", |_| {
        pairs.iter().map(|(f, g)| (fingerprint(f), fingerprint(g))).collect()
    });
    let mut lines = Vec::with_capacity(pairs.len());
    let mut codes = Vec::with_capacity(pairs.len());
    for (&(f, g), &key) in pairs.iter().zip(&fps) {
        if let Some(line) = tr.span("store.get", |_| store.get(key)) {
            c.store_hits += 1;
            c.wire_bytes += line.len() as u64;
            let class = tr.span("wire.parse", |_| {
                wire::parse(&line).ok().and_then(|d| {
                    d.str_field("class").ok().and_then(|s| s.parse::<VerdictClass>().ok())
                })
            });
            codes.push(class.ok_or("stored line has no class")? as u8);
            lines.push(line);
            continue;
        }
        c.store_misses += 1;
        let verdict = if key.0 == key.1 {
            Verdict { validated: true, reason: None, stats: ValidationStats::default() }
        } else {
            layers::tier1(tr, c, validator, f, g)
        };
        let tv = TriagedVerdict { verdict, triage: None };
        let line = tr.span("wire.encode", |_| verdict_line(validator, &f.name, key, &tv));
        c.wire_bytes += line.len() as u64;
        tr.span("store.put", |_| store.put(key, &line)).map_err(|e| format!("store put: {e}"))?;
        c.store_bytes_appended += line.len() as u64 + 1;
        codes.push(tv.class() as u8);
        lines.push(line);
    }
    let frame = tr.span("wire.encode", |_| {
        let begin = wire::envelope("batch-begin", [("functions", Json::num(lines.len() as f64))]);
        let end = wire::envelope("batch-end", [("functions", Json::num(lines.len() as f64))]);
        begin.to_string().len() + end.to_string().len()
    });
    c.wire_bytes += frame as u64;
    Ok(codes)
}

pub fn serve_mixed(args: &Args) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    // Set-up is timed until the server's first reply; its shutdown is not.
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut requests = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built = build_requests(args.seed);
        let server = start_server(args, "setup")?;
        times.push(t0.elapsed().as_secs_f64());
        server.shutdown()?;
        requests = built;
    }
    let setup_s = median(&times);
    let repeats = requests
        .iter()
        .enumerate()
        .filter(|(i, r)| requests[..*i].iter().any(|p| p.pair == r.pair))
        .count();
    println!("  {} requests per round, {repeats} repeats", requests.len());
    let first = run_round(args, &requests, "r0", &mut checks)?;
    if args.trace {
        let validator = Validator::new();
        let dir = args.work.join(format!("serve-store-{}-traced", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            VerdictStore::open(&dir, DEFAULT_CAPACITY).map_err(|e| format!("open store: {e}"))?;
        let (mut tr, mut c) = (Tracer::new(), Counts::default());
        let t0 = Instant::now();
        let traced: Result<Vec<Vec<u8>>, String> = requests
            .iter()
            .map(|r| tr.request(|tr| traced_request(tr, &mut c, &validator, &store, &r.text)))
            .collect();
        let traced_s = t0.elapsed().as_secs_f64();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        for (i, (a, b)) in traced?.iter().zip(&first.classes).enumerate() {
            checks
                .check(a == b, || format!("request {i}: traced verdicts differ from the server's"));
        }
        let path = args.work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
        layers::print_span_table(&tr);
        let walls =
            Walls { untraced_s: first.wall_s, traced_s, workers: default_workers(), steals: 0 };
        let metrics = layers::per_layer_metrics(&tr, &c, &walls);
        return Ok(Outcome {
            checks,
            metrics,
            drift: first.drift,
            deadline_caps: c.deadline_caps as usize,
        });
    }
    let mut rounds = vec![first];
    while rounds.iter().map(|r| r.wall_s).sum::<f64>() < args.seconds {
        let r = run_round(args, &requests, &format!("r{}", rounds.len()), &mut checks)?;
        checks.check(r.drift == rounds[0].drift, || {
            "round answers differ from the first round".to_owned()
        });
        rounds.push(r);
    }
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let round_s: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let lat = |replay: bool| -> Vec<f64> {
        rounds.iter().flat_map(|r| &r.latencies).filter(|l| l.1 == replay).map(|l| l.0).collect()
    };
    let (fresh, replays) = (lat(false), lat(true));
    let d = &rounds[0].drift;
    println!(
        "  {} rounds, {} requests ({} with a store miss, {} all-hit) in {wall:.3} s",
        rounds.len(),
        fresh.len() + replays.len(),
        fresh.len(),
        replays.len()
    );
    let rss: Vec<f64> = rounds.iter().map(|r| r.rss_mb).collect();
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("fn_per_s", ratio(rounds[0].answered as f64, median(&round_s)), "1/s"),
        metric("request_p50_ms", median(&fresh), "ms"),
        metric("request_p90_ms", percentile(&fresh, 0.9), "ms"),
        metric("replay_p50_ms", median(&replays), "ms"),
        metric("replay_p90_ms", percentile(&replays, 0.9), "ms"),
        metric("validated_frac", ratio(d.validated as f64, d.transformed as f64), "frac"),
        metric("decided_frac", ratio(d.validated as f64, d.transformed as f64), "frac"),
        metric("peak_rss_mb", median(&rss), "MB"),
    ];
    let drift = rounds.swap_remove(0).drift;
    Ok(Outcome { checks, metrics, drift, deadline_caps: 0 })
}
