//! Traced calls into each layer's public entry points, one call at a time,
//! and the per-layer metrics computed from their spans and counts.
//!
//! Each function mirrors what the program does between two layer calls
//! (the order of checks, the shared deadline), so the traced pass reaches
//! the same verdicts as the untraced one; `main` fails the run when it does
//! not.

use crate::stats::ratio;
use crate::trace::{Tracer, REQUEST};
use crate::{metric, Metric};
use llvm_md::core::bitblast::{blast_ret_pair, BlastResult};
use llvm_md::core::cache::GraphCache;
use llvm_md::core::triage::{build_envs, triage_alarm, TriageClass, TriageOptions, VerdictClass};
use llvm_md::core::{
    Deadline, FailReason, SatOptions, SaturationStats, ValidationStats, Validator, Verdict,
};
use llvm_md::gated::GatedFunction;
use llvm_md::lir::func::{Function, Module};
use llvm_md::lir::interp::{run, ExecConfig, Trap};
use std::time::Duration;

/// Work counted at the layer boundaries of one traced pass.
#[derive(Default)]
pub struct Counts {
    pub opt_insts_removed: i64,
    pub gated_nodes: u64,
    pub gated_errors: u64,
    pub rounds: u64,
    pub rewrites: u64,
    pub cycle_merges: u64,
    pub nodes_initial: u64,
    pub nodes_final: u64,
    pub budget_fails: u64,
    pub deadline_caps: u64,
    pub egraph_runs: u64,
    pub egraph_discharged: u64,
    pub egraph_iterations: u64,
    pub egraph_e_nodes: u64,
    pub egraph_capped: u64,
    pub triage_alarms: u64,
    pub triage_inputs_run: u64,
    pub triage_real: u64,
    pub tier2_queries: u64,
    pub tier2_proved: u64,
    pub tier2_skipped: u64,
    pub sat_vars: u64,
    pub sat_clauses: u64,
    pub sat_conflicts: u64,
    pub sat_propagations: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_skips: u64,
    pub parse_bytes: u64,
    pub wire_bytes: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_bytes_appended: u64,
}

/// Tier-2 cascade options (triage, then the bit-precise query).
pub struct Cascade {
    pub triage: TriageOptions,
    pub sat: SatOptions,
}

/// True when a query ended on `Limits::max_time`: its tier-1 time reached
/// the budget, or saturation stopped unsaturated before its iteration cap.
/// Such a query's time is the budget, and its stats depend on machine
/// speed.
pub fn deadline_capped(
    duration: Duration,
    saturation: Option<SaturationStats>,
    validator: &Validator,
) -> bool {
    duration >= validator.limits.max_time
        || saturation
            .is_some_and(|s| !s.saturated && s.iterations < validator.saturation.max_iterations)
}

fn fail(reason: FailReason, deadline: &Deadline) -> Verdict {
    let stats = ValidationStats { duration: deadline.elapsed(), ..ValidationStats::default() };
    Verdict { validated: false, reason: Some(reason), stats }
}

fn same_signature(a: &Function, b: &Function) -> bool {
    let sig = |f: &Function| (f.ret, f.params.iter().map(|&(_, t)| t).collect::<Vec<_>>());
    sig(a) == sig(b)
}

/// The `normalize` layer: `Validator::validate_gated_with_deadline` (graph
/// import, rules and cycle matching), with its `ValidationStats` counted.
fn normalize(
    tr: &mut Tracer,
    c: &mut Counts,
    validator: &Validator,
    go: &GatedFunction,
    gt: &GatedFunction,
    deadline: &Deadline,
) -> Verdict {
    let v = tr.span("normalize", |_| validator.validate_gated_with_deadline(go, gt, deadline));
    let s = &v.stats;
    c.rounds += s.rounds as u64;
    c.rewrites += s.rewrites.total();
    c.cycle_merges += s.cycle_merges as u64;
    c.nodes_initial += s.nodes_initial as u64;
    c.nodes_final += s.nodes_final as u64;
    c.budget_fails += u64::from(v.reason == Some(FailReason::Budget));
    c.deadline_caps += u64::from(deadline_capped(s.duration, s.saturation, validator));
    if let Some(sat) = s.saturation {
        c.egraph_runs += 1;
        c.egraph_iterations += sat.iterations as u64;
        c.egraph_e_nodes += sat.e_nodes as u64;
        c.egraph_capped += u64::from(!sat.saturated);
        c.egraph_discharged += u64::from(v.validated);
    }
    v
}

/// Tier 1 on one pair, as `Validator::validate` runs it: signature check,
/// `gated_ssa::build_with` on both sides, then [`normalize`], all under one
/// deadline.
pub fn tier1(
    tr: &mut Tracer,
    c: &mut Counts,
    validator: &Validator,
    original: &Function,
    optimized: &Function,
) -> Verdict {
    let deadline = Deadline::starting_now(validator.limits.max_time);
    if !same_signature(original, optimized) {
        return fail(FailReason::Signature, &deadline);
    }
    let (go, gt) = tr.span("gated", |_| {
        (
            llvm_md::gated::build_with(original, validator.interning),
            llvm_md::gated::build_with(optimized, validator.interning),
        )
    });
    for g in [&go, &gt] {
        match g {
            Ok(g) => c.gated_nodes += g.graph.len() as u64,
            Err(_) => c.gated_errors += 1,
        }
    }
    let (go, gt) = match (go, gt) {
        (Ok(go), Ok(gt)) => (go, gt),
        (Err(e), _) | (_, Err(e)) => return fail(FailReason::Gate(e), &deadline),
    };
    if deadline.expired() {
        return fail(FailReason::Budget, &deadline);
    }
    normalize(tr, c, validator, &go, &gt, &deadline)
}

/// Tier 1 through a `GraphCache`, as chain validation runs it
/// (`Validator::validate_cached_canonical` on a transformed pair): the
/// gated graphs come from `GraphCache::gated_canonical`.
pub fn tier1_cached(
    tr: &mut Tracer,
    c: &mut Counts,
    validator: &Validator,
    original: &Function,
    optimized: &Function,
    fps: (u64, u64),
    cache: &GraphCache,
) -> Verdict {
    let deadline = Deadline::starting_now(validator.limits.max_time);
    if !same_signature(original, optimized) {
        return fail(FailReason::Signature, &deadline);
    }
    let mut lookup = |fp: u64, f: &Function| {
        let misses = cache.stats().misses;
        let g = tr.span("gated", |_| cache.gated_canonical(fp, f));
        if cache.stats().misses > misses {
            match g.as_ref() {
                Ok(g) => c.gated_nodes += g.graph.len() as u64,
                Err(_) => c.gated_errors += 1,
            }
        }
        g
    };
    let go = lookup(fps.0, original);
    let gt = lookup(fps.1, optimized);
    let (go, gt) = match (go.as_ref(), gt.as_ref()) {
        (Ok(go), Ok(gt)) => (go, gt),
        (Err(e), _) | (_, Err(e)) => return fail(FailReason::Gate(e.clone()), &deadline),
    };
    if deadline.expired() {
        return fail(FailReason::Budget, &deadline);
    }
    normalize(tr, c, validator, go, gt, &deadline)
}

/// Whether argument vector `args` makes the pair observably diverge, by the
/// rule the triage layer uses: a trap or resource limit on the original
/// side, or a resource limit on the optimized side, is no evidence.
fn diverges(
    env: &Module,
    original: &Function,
    optimized: &Function,
    args: &[u64],
    t: &TriageOptions,
) -> bool {
    let (orig_env, opt_env) = build_envs(env, original, optimized);
    let cfg = ExecConfig { fuel: t.fuel, max_depth: t.max_depth };
    let Ok(a) = run(&orig_env, &original.name, args, &cfg) else { return false };
    match run(&opt_env, &original.name, args, &cfg) {
        Err(Trap::OutOfFuel | Trap::StackOverflow) => false,
        Err(_) => true,
        Ok(b) => a != b,
    }
}

/// The cascade behind a tier-1 alarm, as `Validator::validate_tiered` runs
/// it: `triage_alarm`, then — for a suspected incompleteness whose tier-1
/// fixpoint has merged memory roots — `blast_ret_pair`, replaying a SAT
/// model through the interpreter before it counts. The fixpoint is
/// re-derived with `Validator::validate_with_fixpoint` (span `refix`).
pub fn cascade(
    tr: &mut Tracer,
    c: &mut Counts,
    validator: &Validator,
    env: &Module,
    (original, optimized): (&Function, &Function),
    verdict: &Verdict,
    opts: &Cascade,
) -> VerdictClass {
    if verdict.validated {
        return VerdictClass::Validated;
    }
    let t = tr.span("triage", |_| triage_alarm(env, original, optimized, verdict, &opts.triage));
    c.triage_alarms += 1;
    c.triage_inputs_run += t.inputs_run as u64;
    if t.class == TriageClass::RealMiscompile {
        c.triage_real += 1;
        c.tier2_skipped += 1;
        return VerdictClass::RealMiscompile;
    }
    // Only a `RootsDiffer` alarm has a fixpoint to hand to tier 2.
    let fix = if verdict.reason == Some(FailReason::RootsDiffer) {
        tr.span("refix", |_| validator.validate_with_fixpoint(original, optimized)).1
    } else {
        None
    };
    let Some(fix) = fix.filter(|f| f.graph.same(f.mem.0, f.mem.1)) else {
        c.tier2_skipped += 1;
        return VerdictClass::SuspectedIncomplete;
    };
    let params: Vec<_> = original.params.iter().map(|&(_, t)| t).collect();
    let report = tr.span("tier2", |_| {
        let deadline = Deadline::starting_now(opts.sat.max_time);
        blast_ret_pair(env, &fix, &params, &opts.sat, &deadline)
    });
    c.tier2_queries += 1;
    c.sat_vars += report.vars as u64;
    c.sat_clauses += report.clauses as u64;
    c.sat_conflicts += report.solver.conflicts;
    c.sat_propagations += report.solver.propagations;
    match report.result {
        BlastResult::Proved => {
            c.tier2_proved += 1;
            VerdictClass::ProvedEquivalent
        }
        BlastResult::Model(args) => {
            if tr.span("triage", |_| diverges(env, original, optimized, &args, &opts.triage)) {
                c.triage_real += 1;
                VerdictClass::RealMiscompile
            } else {
                VerdictClass::SuspectedIncomplete
            }
        }
        BlastResult::Capped | BlastResult::Unsupported => VerdictClass::SuspectedIncomplete,
    }
}

/// Pair functions by name, in input order. The in-tree passes never add,
/// drop or rename a function, so every input function has exactly one
/// partner.
pub fn pair_by_name<'a>(
    input: &'a Module,
    output: &'a Module,
) -> Vec<(&'a Function, &'a Function)> {
    assert_eq!(
        input.functions.len(),
        output.functions.len(),
        "{}: function count changed",
        input.name
    );
    input
        .functions
        .iter()
        .map(|f| {
            let g = output.function(&f.name).unwrap_or_else(|| panic!("@{} was dropped", f.name));
            (f, g)
        })
        .collect()
}

/// Spans that run on the validation pool's workers in the untraced
/// program: their summed time is the pool's service time.
const POOL_SPANS: [&str; 6] = ["opt", "gated", "normalize", "triage", "refix", "tier2"];

/// Wall times of the untraced and the traced pass over the same inputs.
pub struct Walls {
    pub untraced_s: f64,
    pub traced_s: f64,
    pub workers: usize,
    pub steals: u64,
}

/// Every per-layer metric, in `BENCHMARK.json` order. Times are self times
/// (span minus its children) summed over the traced pass, in ms.
pub fn per_layer_metrics(tr: &Tracer, c: &Counts, w: &Walls) -> Vec<Metric> {
    let sum = tr.summary();
    let t = |name: &str| sum.get(name).copied().unwrap_or_default();
    let ms = |name: &str| t(name).self_ms;
    let n = |x: u64| x as f64;
    let pool_ms: f64 = POOL_SPANS.iter().map(|s| ms(s)).sum();
    let request = t(REQUEST);
    vec![
        metric("opt.busy_ms", ms("opt"), "ms"),
        metric("opt.insts_removed", c.opt_insts_removed as f64, "count"),
        metric("gated.busy_ms", ms("gated"), "ms"),
        metric("gated.nodes", n(c.gated_nodes), "count"),
        metric("gated.errors", n(c.gated_errors), "count"),
        metric("normalize.busy_ms", ms("normalize"), "ms"),
        metric("normalize.max_ms", t("normalize").max_ms, "ms"),
        metric("normalize.rounds", n(c.rounds), "count"),
        metric("normalize.rewrites", n(c.rewrites), "count"),
        metric("normalize.cycle_merges", n(c.cycle_merges), "count"),
        metric("normalize.nodes_initial", n(c.nodes_initial), "count"),
        metric("normalize.nodes_final", n(c.nodes_final), "count"),
        metric("normalize.budget_fails", n(c.budget_fails), "count"),
        metric("normalize.deadline_caps", n(c.deadline_caps), "count"),
        metric("egraph.runs", n(c.egraph_runs), "count"),
        metric("egraph.discharged", n(c.egraph_discharged), "count"),
        metric("egraph.iterations", n(c.egraph_iterations), "count"),
        metric("egraph.e_nodes", n(c.egraph_e_nodes), "count"),
        metric("egraph.capped", n(c.egraph_capped), "count"),
        metric("triage.busy_ms", ms("triage"), "ms"),
        metric("triage.alarms", n(c.triage_alarms), "count"),
        metric("triage.inputs_run", n(c.triage_inputs_run), "count"),
        metric("triage.real_miscompiles", n(c.triage_real), "count"),
        metric("tier2.busy_ms", ms("tier2"), "ms"),
        metric("tier2.max_ms", t("tier2").max_ms, "ms"),
        metric("tier2.queries", n(c.tier2_queries), "count"),
        metric("tier2.proved", n(c.tier2_proved), "count"),
        metric("tier2.skipped", n(c.tier2_skipped), "count"),
        metric("sat.vars", n(c.sat_vars), "count"),
        metric("sat.clauses", n(c.sat_clauses), "count"),
        metric("sat.conflicts", n(c.sat_conflicts), "count"),
        metric("sat.propagations", n(c.sat_propagations), "count"),
        metric("cache.fingerprint_ms", ms("fingerprint"), "ms"),
        metric("cache.hits", n(c.cache_hits), "count"),
        metric("cache.misses", n(c.cache_misses), "count"),
        metric("cache.skips", n(c.cache_skips), "count"),
        metric("cache.hit_rate", ratio(n(c.cache_hits), n(c.cache_hits + c.cache_misses)), "frac"),
        metric("parse.busy_ms", ms("parse"), "ms"),
        metric("parse.bytes", n(c.parse_bytes), "bytes"),
        metric("wire.parse_ms", ms("wire.parse"), "ms"),
        metric("wire.encode_ms", ms("wire.encode"), "ms"),
        metric("wire.bytes", n(c.wire_bytes), "bytes"),
        metric("store.get_ms", ms("store.get"), "ms"),
        metric("store.put_ms", ms("store.put"), "ms"),
        metric("store.hits", n(c.store_hits), "count"),
        metric("store.misses", n(c.store_misses), "count"),
        metric("store.bytes_appended", n(c.store_bytes_appended), "bytes"),
        metric("pool.busy_share", ratio(pool_ms / 1e3, w.workers as f64 * w.untraced_s), "frac"),
        metric("pool.steals", n(w.steals), "count"),
        metric("trace.overhead_frac", ratio(w.traced_s - w.untraced_s, w.untraced_s), "frac"),
        metric("trace.uncovered_frac", ratio(request.self_ms, request.total_ms), "frac"),
    ]
}

/// Print the span table (count, total and self time per span name).
pub fn print_span_table(tr: &Tracer) {
    println!(
        "  {:12} {:>8} {:>12} {:>12} {:>10}",
        "span", "count", "total_ms", "self_ms", "max_ms"
    );
    for (name, t) in tr.summary() {
        println!(
            "  {name:12} {:>8} {:>12.3} {:>12.3} {:>10.3}",
            t.count, t.total_ms, t.self_ms, t.max_ms
        );
    }
}
