//! The three in-process workloads: `suite-tier1`, `suite-chain` and
//! `fuzz-cascade`. Each runs in a closed loop (the next request is sent
//! when the previous one is answered) from one client thread; the engine
//! uses its default worker count.

use crate::layers::{self, Cascade, Counts, Walls};
use crate::stats::{median, peak_rss_mb, percentile, permutation, ratio, timed_setup};
use crate::trace::Tracer;
use crate::{metric, Args, Checks, Drift, Metric, Outcome};
use llvm_md::core::cache::{fingerprint_canonical, GraphCache};
use llvm_md::core::triage::{TriageOptions, VerdictClass};
use llvm_md::core::{Normalizer, RuleSet, SatOptions, Validator};
use llvm_md::driver::{
    changed, pool_stats, ChainReport, ChainValidator, FunctionRecord, ValidationEngine,
};
use llvm_md::lir::func::{Function, Module};
use llvm_md::lir::intern::fnv1a;
use llvm_md::opt::{paper_pipeline, PassManager};
use llvm_md::workload::fuzz::{campaign_modules, fuzz_profiles};
use llvm_md::workload::{generate_suite, injected_corpus, InjectedBug, DEFAULT_CAMPAIGN_SEED};
use std::collections::HashSet;
use std::time::Instant;

/// Fuzz modules per profile in `fuzz-cascade` (the campaign default).
const FUZZ_MODULES_PER_PROFILE: usize = 96;

/// One request's answer: a class code per function pair, in record order,
/// and the counts derived from them. Two answers to the same request must
/// be equal on every pass and in both the traced and the untraced run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Answer {
    pub classes: Vec<u8>,
    pub transformed: usize,
    pub validated: usize,
    pub proved: usize,
    pub real: usize,
}

impl Answer {
    fn push(&mut self, transformed: bool, class: VerdictClass) {
        self.classes.push(class as u8);
        if transformed {
            self.transformed += 1;
            match class {
                VerdictClass::Validated => self.validated += 1,
                VerdictClass::ProvedEquivalent => self.proved += 1,
                VerdictClass::RealMiscompile => self.real += 1,
                VerdictClass::SuspectedIncomplete => {}
            }
        }
    }

    fn extend(&mut self, other: Answer) {
        self.classes.extend(other.classes);
        self.transformed += other.transformed;
        self.validated += other.validated;
        self.proved += other.proved;
        self.real += other.real;
    }

    fn of_records<'a>(records: impl IntoIterator<Item = &'a FunctionRecord>) -> Answer {
        let mut a = Answer::default();
        for r in records {
            a.push(r.transformed, r.class());
        }
        a
    }
}

/// Totals over a set of answers (one pass over the workload).
fn total(answers: &[Answer]) -> Answer {
    let mut t = Answer::default();
    for a in answers {
        t.extend(a.clone());
    }
    t
}

fn drift_of(answers: &[Answer]) -> Drift {
    let t = total(answers);
    Drift {
        pairs: t.classes.len(),
        transformed: t.transformed,
        validated: t.validated,
        alarms: t.transformed - t.validated - t.proved,
        proved: t.proved,
        store_hits: 0,
        classes: fnv1a(&t.classes),
    }
}

/// The pinned Table-1 suite at scale 1, its modules submitted in a seeded
/// order (seed 0 keeps the generated order). The content stays pinned, so
/// the known answers hold at every seed and the suite's heavy tail does not
/// move between seeds; the order moves how the pool interleaves the work.
fn suite_corpus(seed: u64) -> Vec<Module> {
    let mut suite: Vec<Option<Module>> =
        generate_suite(1).into_iter().map(|(_, m)| Some(m)).collect();
    permutation(suite.len(), seed)
        .into_iter()
        .map(|i| suite[i].take().expect("permutation"))
        .collect()
}

/// Closed-loop measurement: whole passes over the requests until `seconds`
/// have elapsed. Each answer must equal the warm-up pass's answer.
struct Loop {
    latencies_ms: Vec<f64>,
    /// Wall time of each whole pass.
    passes_s: Vec<f64>,
}

fn closed_loop(
    seconds: f64,
    reference: &[Answer],
    checks: &mut Checks,
    mut request: impl FnMut(usize) -> Answer,
) -> Loop {
    let start = Instant::now();
    let mut latencies_ms = Vec::new();
    let mut passes_s = Vec::new();
    while passes_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let pass = Instant::now();
        for (i, want) in reference.iter().enumerate() {
            let t0 = Instant::now();
            let got = request(i);
            latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            checks.check(&got == want, || {
                format!("request {i}: verdict classes differ from the warm-up pass")
            });
        }
        passes_s.push(pass.elapsed().as_secs_f64());
    }
    Loop { latencies_ms, passes_s }
}

/// The end-to-end metrics of an in-process workload; `per_pass` is the
/// count `fn_per_s` divides by the median pass time. No verdict store sits
/// in front of the engine, so a repeated request is recomputed: every timed
/// request repeats one the warm-up pass already answered, and the request
/// and replay latencies are the same samples.
fn e2e_metrics(setup_s: f64, lp: &Loop, per_pass: usize, reference: &[Answer]) -> Vec<Metric> {
    let t = total(reference);
    let lat = &lp.latencies_ms;
    println!(
        "  {} requests in {} passes, {:.3} s",
        lat.len(),
        lp.passes_s.len(),
        lp.passes_s.iter().sum::<f64>()
    );
    vec![
        metric("setup_s", setup_s, "s"),
        metric("fn_per_s", ratio(per_pass as f64, median(&lp.passes_s)), "1/s"),
        metric("request_p50_ms", median(lat), "ms"),
        metric("request_p90_ms", percentile(lat, 0.9), "ms"),
        metric("replay_p50_ms", median(lat), "ms"),
        metric("replay_p90_ms", percentile(lat, 0.9), "ms"),
        metric("validated_frac", ratio(t.validated as f64, t.transformed as f64), "frac"),
        metric(
            "decided_frac",
            ratio((t.validated + t.proved + t.real) as f64, t.transformed as f64),
            "frac",
        ),
        metric("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0), "MB"),
    ]
}

/// Run the traced pass: one untraced pass first (its wall time and
/// answers are the baseline), then `traced` over the same requests.
fn traced_run(
    args: &Args,
    engine: &ValidationEngine,
    reference: &[Answer],
    checks: &mut Checks,
    mut untraced: impl FnMut(usize) -> Answer,
    mut traced: impl FnMut(&mut Tracer, &mut Counts, usize) -> Answer,
) -> Result<(Vec<Metric>, usize), String> {
    let steals = pool_stats().steals;
    let t0 = Instant::now();
    let plain: Vec<Answer> = (0..reference.len()).map(&mut untraced).collect();
    let untraced_s = t0.elapsed().as_secs_f64();
    let steals = pool_stats().steals - steals;
    checks.check(plain == reference, || "untraced pass differs from the warm-up pass".to_owned());
    let (mut tr, mut c) = (Tracer::new(), Counts::default());
    let t1 = Instant::now();
    let answers: Vec<Answer> =
        (0..reference.len()).map(|i| tr.request(|tr| traced(tr, &mut c, i))).collect();
    let traced_s = t1.elapsed().as_secs_f64();
    for (i, (a, b)) in answers.iter().zip(&plain).enumerate() {
        checks
            .check(a == b, || format!("request {i}: traced verdicts differ from the untraced run"));
    }
    let path = args.work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    tr.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());
    layers::print_span_table(&tr);
    let walls = Walls { untraced_s, traced_s, workers: engine.workers(), steals };
    Ok((layers::per_layer_metrics(&tr, &c, &walls), c.deadline_caps as usize))
}

/// Optimize (unless `output` is given) and validate one module through the
/// layers, pairing functions by name as the driver does.
fn traced_module(
    tr: &mut Tracer,
    c: &mut Counts,
    validator: &Validator,
    pm: &PassManager,
    input: &Module,
    output: Option<&Module>,
    cascade: Option<&Cascade>,
) -> Answer {
    let optimized;
    let output = match output {
        Some(o) => o,
        None => {
            let mut o = input.clone();
            tr.span("opt", |_| pm.run_module(&mut o));
            c.opt_insts_removed += insts(input) - insts(&o);
            optimized = o;
            &optimized
        }
    };
    let mut a = Answer::default();
    for (original, opt) in layers::pair_by_name(input, output) {
        if !changed(original, opt) {
            a.push(false, VerdictClass::Validated);
            continue;
        }
        let v = layers::tier1(tr, c, validator, original, opt);
        let class = match cascade {
            Some(k) => layers::cascade(tr, c, validator, input, (original, opt), &v, k),
            None if v.validated => VerdictClass::Validated,
            None => VerdictClass::SuspectedIncomplete,
        };
        a.push(true, class);
    }
    a
}

fn insts(m: &Module) -> i64 {
    m.functions.iter().map(|f| f.inst_count() as i64).sum()
}

/// `suite-tier1`: the pinned suite as one closed batch through
/// `ValidationEngine::validate_corpus` with the paper pipeline and the
/// default validator.
pub fn suite_tier1(args: &Args) -> Result<Outcome, String> {
    let (setup_s, corpus) = timed_setup(|| Ok(suite_corpus(args.seed)))?;
    let (pm, validator, engine) = (paper_pipeline(), Validator::new(), ValidationEngine::new());
    let mut checks = Checks::default();
    let batch = |_: usize| {
        let reports = engine.validate_corpus(&corpus, &pm, &validator);
        Answer::of_records(reports.iter().flat_map(|(_, r)| &r.records))
    };
    let warm = engine.validate_corpus(&corpus, &pm, &validator);
    let caps = warm
        .iter()
        .flat_map(|(_, r)| &r.records)
        .filter(|r| layers::deadline_capped(r.duration, r.saturation, &validator))
        .count();
    let reference = vec![Answer::of_records(warm.iter().flat_map(|(_, r)| &r.records))];
    {
        let r = &reference[0];
        checks.check(r.transformed == 963 && r.validated == 882, || {
            format!(
                "pinned suite: want 963 transformed / 882 validated, got {} / {}",
                r.transformed, r.validated
            )
        });
    }
    let drift = drift_of(&reference);
    if args.trace {
        let (metrics, caps) =
            traced_run(args, &engine, &reference, &mut checks, batch, |tr, c, _| {
                let mut a = Answer::default();
                for m in &corpus {
                    a.extend(traced_module(tr, c, &validator, &pm, m, None, None));
                }
                a
            })?;
        return Ok(Outcome { checks, metrics, drift, deadline_caps: caps });
    }
    let lp = closed_loop(args.seconds, &reference, &mut checks, batch);
    let metrics = e2e_metrics(setup_s, &lp, total(&reference).transformed, &reference);
    Ok(Outcome { checks, metrics, drift, deadline_caps: caps })
}

/// Per-function chain answer over the end-to-end `(name, transformed,
/// validated)` records: class code 0 for an untransformed function, else
/// `1 + end-to-end validated + 2 × chain certified`, where a function is
/// chain-certified unless it is in `failing` (some step transformed it and
/// did not validate). "Validated" counts chain-certified functions.
fn chain_answer_of<'a>(
    e2e: impl IntoIterator<Item = (&'a str, bool, bool)>,
    failing: &HashSet<&str>,
) -> Answer {
    let mut a = Answer::default();
    for (name, transformed, validated) in e2e {
        if !transformed {
            a.classes.push(0);
            continue;
        }
        let certified = !failing.contains(name);
        a.classes.push(1 + u8::from(validated) + 2 * u8::from(certified));
        a.transformed += 1;
        a.validated += usize::from(certified);
    }
    a
}

/// End-to-end validations in a chain answer (class codes 2 and 4).
fn chain_e2e_validated(a: &Answer) -> usize {
    a.classes.iter().filter(|&&c| c == 2 || c == 4).count()
}

fn chain_report_answer(r: &ChainReport) -> Answer {
    let failing: HashSet<&str> = r
        .steps
        .iter()
        .flat_map(|s| &s.report.records)
        .filter(|r| r.transformed && !r.validated)
        .map(|r| r.name.as_str())
        .collect();
    let e2e = r.end_to_end.records.iter().map(|r| (r.name.as_str(), r.transformed, r.validated));
    chain_answer_of(e2e, &failing)
}

/// `suite-chain`: the same suite through `ChainValidator::validate_chain`,
/// module after module; one request is the whole suite (per-module requests
/// would make the latency percentiles fall between modules of very
/// different cost).
pub fn suite_chain(args: &Args) -> Result<Outcome, String> {
    let (setup_s, corpus) = timed_setup(|| Ok(suite_corpus(args.seed)))?;
    let (pm, validator, engine) = (paper_pipeline(), Validator::new(), ValidationEngine::new());
    let chain = ChainValidator::new(engine);
    let mut checks = Checks::default();
    let batch = |_: usize| {
        let mut a = Answer::default();
        for m in &corpus {
            a.extend(chain_report_answer(&chain.validate_chain(m, &pm, &validator)));
        }
        a
    };
    let mut caps = 0;
    let mut warm = Answer::default();
    for m in &corpus {
        let r = chain.validate_chain(m, &pm, &validator);
        checks.check(r.composition_consistent(), || {
            format!("{}: chain composition inconsistent", m.name)
        });
        caps += r
            .steps
            .iter()
            .flat_map(|s| &s.report.records)
            .chain(&r.end_to_end.records)
            .filter(|r| layers::deadline_capped(r.duration, r.saturation, &validator))
            .count();
        warm.extend(chain_report_answer(&r));
    }
    let e2e = chain_e2e_validated(&warm);
    checks.check(warm.validated >= e2e, || {
        format!("chain certified {} < end-to-end validated {e2e}", warm.validated)
    });
    let reference = vec![warm];
    let drift = drift_of(&reference);
    if args.trace {
        let (metrics, caps) =
            traced_run(args, &engine, &reference, &mut checks, batch, |tr, c, _| {
                let mut a = Answer::default();
                for m in &corpus {
                    a.extend(traced_chain(tr, c, &validator, &pm, m));
                }
                a
            })?;
        return Ok(Outcome { checks, metrics, drift, deadline_caps: caps });
    }
    let lp = closed_loop(args.seconds, &reference, &mut checks, batch);
    let metrics = e2e_metrics(setup_s, &lp, reference[0].validated, &reference);
    Ok(Outcome { checks, metrics, drift, deadline_caps: caps })
}

/// Chain validation of one module through the layers: `PassManager::run_step`
/// per pass, canonical fingerprints per version, then every transformed
/// adjacent pair (and the end-to-end pair) through one `GraphCache`.
fn traced_chain(
    tr: &mut Tracer,
    c: &mut Counts,
    validator: &Validator,
    pm: &PassManager,
    input: &Module,
) -> Answer {
    let n = pm.len();
    let mut versions = vec![input.clone()];
    for k in 0..n {
        let mut next = versions[k].clone();
        tr.span("opt", |_| pm.run_step(k, &mut next));
        c.opt_insts_removed += insts(&versions[k]) - insts(&next);
        versions.push(next);
    }
    let (canon, fps): (Vec<Vec<Function>>, Vec<Vec<u64>>) = tr.span("fingerprint", |_| {
        let canon: Vec<Vec<Function>> = versions
            .iter()
            .map(|m| m.functions.iter().map(Function::canonicalized).collect())
            .collect();
        let fps = canon.iter().map(|fs| fs.iter().map(fingerprint_canonical).collect()).collect();
        (canon, fps)
    });
    let cache = GraphCache::new();
    let mut failing: HashSet<&str> = HashSet::new();
    let mut e2e: Vec<(&str, bool, bool)> = Vec::new();
    let pairs = (0..n).map(|k| (k, k + 1)).chain(std::iter::once((0, n)));
    for (a, b) in pairs {
        for (i, f) in versions[a].functions.iter().enumerate() {
            let j = versions[b]
                .functions
                .iter()
                .position(|g| g.name == f.name)
                .expect("passes keep functions");
            let transformed = fps[a][i] != fps[b][j];
            let validated = if transformed {
                let v = layers::tier1_cached(
                    tr,
                    c,
                    validator,
                    &canon[a][i],
                    &canon[b][j],
                    (fps[a][i], fps[b][j]),
                    &cache,
                );
                v.validated
            } else {
                cache.record_skips(1);
                true
            };
            if (a, b) == (0, n) {
                e2e.push((f.name.as_str(), transformed, validated));
            } else if transformed && !validated {
                failing.insert(f.name.as_str());
            }
        }
    }
    let s = cache.stats();
    c.cache_hits += s.hits;
    c.cache_misses += s.misses;
    c.cache_skips += s.skips;
    chain_answer_of(e2e, &failing)
}

/// `fuzz-cascade`: the fuzz corpus at the default campaign seed over all
/// six profiles plus the injected-bug corpus, one module per request, in a
/// seeded order, through the full cascade (`RuleSet::full()`,
/// saturate-fallback, default triage and SAT options). The campaign seed is
/// pinned because other campaign seeds draw queries that run into the 5 s
/// `Limits::max_time` deadline, whose time is the budget, not the work.
pub fn fuzz_cascade(args: &Args) -> Result<Outcome, String> {
    let (setup_s, (modules, bugs)) = timed_setup(|| {
        let modules: Vec<Module> = fuzz_profiles()
            .iter()
            .flat_map(|p| campaign_modules(p, DEFAULT_CAMPAIGN_SEED, FUZZ_MODULES_PER_PROFILE))
            .collect();
        Ok((modules, injected_corpus()))
    })?;
    let bugs: Vec<InjectedBug> = bugs;
    let pm = paper_pipeline();
    let validator = Validator {
        rules: RuleSet::full(),
        normalizer: Normalizer::SaturateFallback,
        ..Validator::new()
    };
    let opts = Cascade { triage: TriageOptions::default(), sat: SatOptions::default() };
    let engine = ValidationEngine::new();
    let mut checks = Checks::default();
    let order = permutation(modules.len() + bugs.len(), args.seed);
    let bug = |i: usize| order[i].checked_sub(modules.len()).map(|b| &bugs[b]);
    let report = |i: usize| match bug(i) {
        None => {
            engine.llvm_md_tiered(&modules[order[i]], &pm, &validator, &opts.triage, &opts.sat).1
        }
        Some(b) => engine.validate_modules_tiered(
            &b.module,
            &b.broken,
            &validator,
            &opts.triage,
            &opts.sat,
        ),
    };
    let request = |i: usize| Answer::of_records(&report(i).records);
    let mut caps = 0;
    let mut reference = Vec::with_capacity(order.len());
    for i in 0..order.len() {
        let r = report(i);
        caps += r
            .records
            .iter()
            .filter(|r| layers::deadline_capped(r.duration, r.saturation, &validator))
            .count();
        reference.push(Answer::of_records(&r.records));
    }
    for (i, a) in reference.iter().enumerate() {
        let Some(b) = bug(i) else { continue };
        let slot = b
            .module
            .functions
            .iter()
            .position(|f| f.name == b.function)
            .expect("bug target exists");
        let class = a.classes[slot];
        checks.check(class == VerdictClass::RealMiscompile as u8, || {
            format!("injected bug {} came back as class {class}, not real-miscompile", b.name)
        });
        checks.check(a.proved == 0, || {
            format!("injected bug {}: a pair came back proved-equivalent", b.name)
        });
    }
    let drift = drift_of(&reference);
    if args.trace {
        let (metrics, caps) =
            traced_run(args, &engine, &reference, &mut checks, request, |tr, c, i| match bug(i) {
                None => {
                    traced_module(tr, c, &validator, &pm, &modules[order[i]], None, Some(&opts))
                }
                Some(b) => {
                    traced_module(tr, c, &validator, &pm, &b.module, Some(&b.broken), Some(&opts))
                }
            })?;
        return Ok(Outcome { checks, metrics, drift, deadline_caps: caps });
    }
    let lp = closed_loop(args.seconds, &reference, &mut checks, request);
    let metrics = e2e_metrics(setup_s, &lp, total(&reference).transformed, &reference);
    Ok(Outcome { checks, metrics, drift, deadline_caps: caps })
}
