//! The validator: gate both functions, merge into a shared graph, normalize
//! until the roots merge or nothing more applies (paper §2, Fig. 1).

use crate::cycles::{match_cycles, MatchStrategy};
use crate::egraph::{self, SaturationLimits, SaturationStats};
use crate::graph::SharedGraph;
use crate::rules::{apply_rules, RewriteCounts, RuleBudgets, RuleSet};
use crate::triage::Cascade;
use gated_ssa::{GateError, GatedFunction, Interning};
use lir::func::Function;
use std::time::{Duration, Instant};

/// A wall-clock budget for one validation query, started once and shared by
/// every phase of the query — gating, graph import, and normalization all
/// charge against the same clock, so a query cannot exceed
/// [`Limits::max_time`] by splitting the work across phases.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn starting_now(budget: Duration) -> Deadline {
        Deadline { start: Instant::now(), budget }
    }

    /// Has the budget been exhausted?
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    /// Wall-clock time since the deadline was started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Resource limits for one validation query.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum rewrite/rebuild rounds before giving up.
    pub max_rounds: usize,
    /// Maximum graph size (nodes, including superseded) before giving up.
    pub max_nodes: usize,
    /// Wall-clock budget per validation query.
    pub max_time: Duration,
    /// Graph-level loop-unswitch splits allowed per query (0 disables the
    /// speculative rule; see [`crate::rules::RuleBudgets`]).
    pub unswitch_budget: u32,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_rounds: 48,
            max_nodes: 1_000_000,
            max_time: Duration::from_secs(5),
            unswitch_budget: 0,
        }
    }
}

/// Which normalization engine decides equivalence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Normalizer {
    /// The paper's engine: destructive ordered rewriting — one winning rule
    /// per node per round, the rewritten structure replaces the redex.
    #[default]
    Destructive,
    /// Equality saturation ([`crate::egraph`]): the same rules applied
    /// non-destructively until fixpoint or budget, immune to application
    /// order.
    Saturate,
    /// Destructive first (keeping the hot path's speed); if it ends in a
    /// `RootsDiffer` fixpoint, keep the graph — every recorded equality is
    /// sound — and saturate from there.
    SaturateFallback,
}

impl Normalizer {
    /// Stable lowercase name, used by the CLI flag, the env override, and
    /// the wire format.
    pub fn as_str(self) -> &'static str {
        match self {
            Normalizer::Destructive => "destructive",
            Normalizer::Saturate => "saturate",
            Normalizer::SaturateFallback => "saturate-fallback",
        }
    }

    /// Inverse of [`Normalizer::as_str`].
    pub fn parse(s: &str) -> Option<Normalizer> {
        match s {
            "destructive" => Some(Normalizer::Destructive),
            "saturate" => Some(Normalizer::Saturate),
            "saturate-fallback" => Some(Normalizer::SaturateFallback),
            _ => None,
        }
    }
}

impl std::fmt::Display for Normalizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A configured validator.
#[derive(Clone, Copy, Debug, Default)]
pub struct Validator {
    /// Enabled rule groups.
    pub rules: RuleSet,
    /// Cycle-matching strategy.
    pub strategy: MatchStrategy,
    /// Resource limits.
    pub limits: Limits,
    /// Interner mode for the value graphs ([`Interning::Fast`] by default;
    /// [`Interning::Naive`] retains the pre-arena interner as the
    /// differential-testing oracle — both produce identical verdicts and
    /// statistics).
    pub interning: Interning,
    /// Which normalization engine decides equivalence.
    pub normalizer: Normalizer,
    /// Budgets for the saturation engine (unused under
    /// [`Normalizer::Destructive`]).
    pub saturation: SaturationLimits,
    /// Which tiers run after a tier-1 alarm ([`Cascade::Graph`], tier 1
    /// only, by default). Read by [`Validator::validate_cascade`] and
    /// [`Validator::refine_alarm`]; the tier-1 methods
    /// ([`Validator::validate`], `validate_with_fixpoint`,
    /// `validate_gated*`, `validate_cached*`) ignore it.
    pub cascade: Cascade,
}

/// Why validation failed (any of these counts as an *alarm*; assuming the
/// optimizer is correct, a false alarm — §5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailReason {
    /// A side could not be gated.
    Gate(GateError),
    /// The functions have different signatures (not a transformation).
    Signature,
    /// Normalization reached a fixpoint with distinct roots.
    RootsDiffer,
    /// A resource limit was hit.
    Budget,
    /// The optimized module has no function of this name — the optimizer
    /// dropped or renamed it (a driver-level pairing alarm; there is nothing
    /// to validate against).
    MissingFunction,
    /// The optimized module has a function the original module lacks (a
    /// driver-level pairing alarm).
    ExtraFunction,
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailReason::Gate(e) => write!(f, "gating failed: {e}"),
            FailReason::Signature => f.write_str("signature mismatch"),
            FailReason::RootsDiffer => f.write_str("normalized roots differ"),
            FailReason::Budget => f.write_str("resource budget exhausted"),
            FailReason::MissingFunction => f.write_str("function missing from optimized module"),
            FailReason::ExtraFunction => f.write_str("function absent from original module"),
        }
    }
}

/// The first pair of normalized graph roots that refused to merge, rendered
/// as (truncated) S-expressions. Captured only on [`FailReason::RootsDiffer`]
/// fixpoint failures — the evidence the alarm-triage layer hands a rule
/// author hunting a validator incompleteness.
#[derive(Clone, Debug, Eq)]
pub struct DivergentRoots {
    /// The original function's normalized root term.
    pub original: String,
    /// The optimized function's normalized root term.
    pub optimized: String,
}

/// Statistics from one validation query.
#[derive(Clone, Debug, Default)]
pub struct ValidationStats {
    /// Nodes after importing both functions.
    pub nodes_initial: usize,
    /// Live nodes at the end.
    pub nodes_final: usize,
    /// Rewrite/rebuild rounds executed.
    pub rounds: usize,
    /// Rewrites per rule group.
    pub rewrites: RewriteCounts,
    /// Unions performed by the cycle matcher.
    pub cycle_merges: usize,
    /// Wall-clock time spent.
    pub duration: Duration,
    /// On [`FailReason::RootsDiffer`]: the first pair of normalized roots
    /// that stayed distinct (return roots if they differ, else the
    /// observable-memory roots). `None` on success and on budget/gate
    /// failures, where no normalized fixpoint exists to render. Populated
    /// by the destructive *and* the saturation engine.
    pub divergent_roots: Option<DivergentRoots>,
    /// What the saturation engine did, when it ran (`None` under
    /// [`Normalizer::Destructive`], and under
    /// [`Normalizer::SaturateFallback`] when the destructive pass already
    /// decided the query).
    pub saturation: Option<SaturationStats>,
}

/// The outcome of one validation query.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// `true` when the two functions provably have the same semantics (for
    /// terminating, non-trapping executions — the paper's guarantee).
    pub validated: bool,
    /// Why validation failed, when it did.
    pub reason: Option<FailReason>,
    /// Work performed.
    pub stats: ValidationStats,
}

impl Verdict {
    pub(crate) fn fail(reason: FailReason, stats: ValidationStats) -> Verdict {
        Verdict { validated: false, reason: Some(reason), stats }
    }
}

/// The normalized fixpoint a [`FailReason::RootsDiffer`] verdict stopped
/// at: the shared graph after every sound rewrite and cycle merge, plus the
/// two sides' roots. Every equality recorded in the graph's union-find is
/// proved, so downstream consumers (the tier-2 bit-blaster) may treat
/// merged nodes as equal and only have to decide the roots that stayed
/// distinct.
#[derive(Debug)]
pub struct Fixpoint {
    /// The shared graph at the fixpoint.
    pub graph: SharedGraph,
    /// Return-value roots `(original, optimized)` (`None` for `void`).
    pub ret: Option<(gated_ssa::NodeId, gated_ssa::NodeId)>,
    /// Observable-memory roots `(original, optimized)`.
    pub mem: (gated_ssa::NodeId, gated_ssa::NodeId),
}

/// Root terms longer than this are cut mid-render: the triage evidence
/// needs the *shape* of the disagreement, not a megabyte of S-expression.
const ROOT_DISPLAY_CAP: usize = 240;

/// Render the first divergent root pair: return roots if they disagree,
/// else the observable-memory roots (`None` if, impossibly, both agree).
fn first_divergent_roots(
    g: &SharedGraph,
    ret_o: Option<gated_ssa::NodeId>,
    ret_t: Option<gated_ssa::NodeId>,
    mem_o: gated_ssa::NodeId,
    mem_t: gated_ssa::NodeId,
) -> Option<DivergentRoots> {
    let show = |n: Option<gated_ssa::NodeId>| match n {
        Some(n) => g.display_capped(n, ROOT_DISPLAY_CAP),
        None => "(void)".to_owned(),
    };
    let ret_differ = match (ret_o, ret_t) {
        (Some(a), Some(b)) => !g.same(a, b),
        (None, None) => false,
        _ => true,
    };
    if ret_differ {
        Some(DivergentRoots { original: show(ret_o), optimized: show(ret_t) })
    } else if !g.same(mem_o, mem_t) {
        Some(DivergentRoots { original: show(Some(mem_o)), optimized: show(Some(mem_t)) })
    } else {
        None
    }
}

impl Validator {
    /// A validator with the paper's default configuration.
    pub fn new() -> Validator {
        Validator::default()
    }

    /// Validate that `optimized` preserves the semantics of `original`.
    ///
    /// The functions must have the same signature (they are the same
    /// function before and after optimization). The whole query — gating
    /// *and* normalization — runs under one [`Deadline`] of
    /// [`Limits::max_time`], so expensive gating eats into the
    /// normalization budget instead of extending it. Tier 1 only: this
    /// ignores [`Validator::cascade`] (see [`Validator::validate_cascade`]).
    pub fn validate(&self, original: &Function, optimized: &Function) -> Verdict {
        self.validate_with_fixpoint(original, optimized).0
    }

    /// Like [`Validator::validate`], but on a [`FailReason::RootsDiffer`]
    /// fixpoint also returns the normalized [`Fixpoint`] state, so a
    /// second-tier decision procedure can pick up exactly where
    /// normalization stopped. `None` on success and on every other failure
    /// (no fixpoint exists to hand over).
    pub fn validate_with_fixpoint(
        &self,
        original: &Function,
        optimized: &Function,
    ) -> (Verdict, Option<Fixpoint>) {
        let deadline = Deadline::starting_now(self.limits.max_time);
        let mut stats = ValidationStats::default();
        let sig = |f: &Function| (f.ret, f.params.iter().map(|&(_, t)| t).collect::<Vec<_>>());
        if sig(original) != sig(optimized) {
            stats.duration = deadline.elapsed();
            return (Verdict::fail(FailReason::Signature, stats), None);
        }
        let go = match gated_ssa::build_with(original, self.interning) {
            Ok(g) => g,
            Err(e) => {
                stats.duration = deadline.elapsed();
                return (Verdict::fail(FailReason::Gate(e), stats), None);
            }
        };
        let gt = match gated_ssa::build_with(optimized, self.interning) {
            Ok(g) => g,
            Err(e) => {
                stats.duration = deadline.elapsed();
                return (Verdict::fail(FailReason::Gate(e), stats), None);
            }
        };
        if deadline.expired() {
            stats.duration = deadline.elapsed();
            return (Verdict::fail(FailReason::Budget, stats), None);
        }
        let (mut v, fix) = self.gated_fixpoint(&go, &gt, &deadline);
        v.stats.duration = deadline.elapsed();
        (v, fix)
    }

    /// Validate two already-gated functions (exposed for benchmarks that
    /// want to separate gating time from normalization time). The query
    /// gets a fresh [`Deadline`] of [`Limits::max_time`]; callers that
    /// already spent budget on gating should use
    /// [`Validator::validate_gated_with_deadline`] instead.
    pub fn validate_gated(&self, original: &GatedFunction, optimized: &GatedFunction) -> Verdict {
        let deadline = Deadline::starting_now(self.limits.max_time);
        self.validate_gated_with_deadline(original, optimized, &deadline)
    }

    /// Validate two already-gated functions against an externally-started
    /// deadline, so gating and normalization share one wall-clock budget.
    /// Every exit path populates the stats (`nodes_initial`, `duration`).
    pub fn validate_gated_with_deadline(
        &self,
        original: &GatedFunction,
        optimized: &GatedFunction,
        deadline: &Deadline,
    ) -> Verdict {
        self.gated_fixpoint(original, optimized, deadline).0
    }

    /// The gated query, keeping the normalized graph on a `RootsDiffer`
    /// fixpoint (see [`Validator::validate_with_fixpoint`]).
    fn gated_fixpoint(
        &self,
        original: &GatedFunction,
        optimized: &GatedFunction,
        deadline: &Deadline,
    ) -> (Verdict, Option<Fixpoint>) {
        let mut budgets = RuleBudgets { unswitches: self.limits.unswitch_budget };
        let mut stats = ValidationStats::default();
        let mut g = SharedGraph::with_interning(self.interning);
        let mo = g.import(original);
        let mt = g.import(optimized);
        let root = |gf: &GatedFunction, map: &[gated_ssa::NodeId]| {
            let ret = gf.ret.map(|r| map[r.index()]);
            let mem = map[gf.mem.index()];
            (ret, mem)
        };
        let (ret_o, mem_o) = root(original, &mo);
        let (ret_t, mem_t) = root(optimized, &mt);
        stats.nodes_initial = g.len();
        let mut roots: Vec<gated_ssa::NodeId> = vec![mem_o, mem_t];
        roots.extend(ret_o);
        roots.extend(ret_t);
        if ret_o.is_some() != ret_t.is_some() {
            stats.nodes_final = g.live_count(&roots);
            stats.duration = deadline.elapsed();
            stats.divergent_roots = first_divergent_roots(&g, ret_o, ret_t, mem_o, mem_t);
            // A root-arity mismatch is not a normalized fixpoint — there is
            // nothing bit-precise to decide.
            return (Verdict::fail(FailReason::RootsDiffer, stats), None);
        }

        let equal = |g: &SharedGraph| -> bool {
            g.same(mem_o, mem_t)
                && ret_o.is_none_or(|r| g.same(r, ret_t.expect("both sides return")))
        };

        enum End {
            Proved,
            Budget,
            Fixpoint,
        }

        let destructive =
            |g: &mut SharedGraph, stats: &mut ValidationStats, budgets: &mut RuleBudgets| -> End {
                loop {
                    g.rebuild();
                    stats.rounds += 1;
                    if equal(g) {
                        return End::Proved;
                    }
                    if stats.rounds >= self.limits.max_rounds
                        || g.len() >= self.limits.max_nodes
                        || deadline.expired()
                    {
                        return End::Budget;
                    }
                    let n = apply_rules(g, &roots, &self.rules, &mut stats.rewrites, budgets);
                    if n == 0 {
                        g.rebuild();
                        if equal(g) {
                            return End::Proved;
                        }
                        let merged = match_cycles(g, &roots, self.strategy);
                        stats.cycle_merges += merged;
                        if merged == 0 {
                            return End::Fixpoint;
                        }
                    }
                }
            };
        let saturate = |g: &mut SharedGraph,
                        stats: &mut ValidationStats,
                        budgets: &mut RuleBudgets|
         -> egraph::Outcome {
            egraph::saturate(g, &roots, &equal, self, deadline, stats, budgets)
        };

        let end = match self.normalizer {
            Normalizer::Destructive => destructive(&mut g, &mut stats, &mut budgets),
            Normalizer::Saturate => match saturate(&mut g, &mut stats, &mut budgets) {
                egraph::Outcome::Proved => End::Proved,
                egraph::Outcome::Saturated => End::Fixpoint,
                egraph::Outcome::Capped => End::Budget,
            },
            Normalizer::SaturateFallback => match destructive(&mut g, &mut stats, &mut budgets) {
                End::Fixpoint => match saturate(&mut g, &mut stats, &mut budgets) {
                    egraph::Outcome::Proved => End::Proved,
                    // The destructive pass already reached a fixpoint with
                    // divergent roots; a capped saturation retry must not
                    // upgrade that `RootsDiffer` alarm to `Budget`.
                    egraph::Outcome::Saturated | egraph::Outcome::Capped => End::Fixpoint,
                },
                other => other,
            },
        };

        stats.nodes_final = g.live_count(&roots);
        stats.duration = deadline.elapsed();
        match end {
            End::Proved => (Verdict { validated: true, reason: None, stats }, None),
            End::Budget => (Verdict::fail(FailReason::Budget, stats), None),
            End::Fixpoint => {
                stats.divergent_roots = first_divergent_roots(&g, ret_o, ret_t, mem_o, mem_t);
                let fix = Fixpoint { graph: g, ret: ret_o.zip(ret_t), mem: (mem_o, mem_t) };
                (Verdict::fail(FailReason::RootsDiffer, stats), Some(fix))
            }
        }
    }
}

/// Validate with the default configuration (all paper rules, combined cycle
/// matching).
pub fn validate(original: &Function, optimized: &Function) -> Verdict {
    Validator::new().validate(original, optimized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::parse::parse_module;

    fn func(src: &str) -> Function {
        parse_module(src).expect("parse").functions.remove(0)
    }

    /// Compile-time audit: the driver's `ValidationEngine` shares one
    /// `Validator` across `std::thread::scope` workers and sends `Verdict`s
    /// back, so these must stay `Send + Sync` (plain-data configuration and
    /// results, no interior mutability).
    #[test]
    fn validator_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Validator>();
        assert_send_sync::<Limits>();
        assert_send_sync::<Deadline>();
        assert_send_sync::<Verdict>();
        assert_send_sync::<FailReason>();
        assert_send_sync::<ValidationStats>();
    }

    /// Every failure path must report how long the query ran and (when a
    /// graph was built) how big it was — the paper's timing figures sum
    /// per-query durations, so a zeroed duration under-counts.
    #[test]
    fn early_failures_populate_stats() {
        let f = func("define i64 @f(i64 %a) {\nentry:\n  ret i64 %a\n}\n");
        let g = func("define void @f(i64 %a) {\nentry:\n  ret void\n}\n");
        // Signature mismatch: no graph, but the clock must have been read.
        let v = Validator::new().validate(&f, &g);
        assert_eq!(v.reason, Some(FailReason::Signature));
        assert!(v.stats.duration > Duration::ZERO, "signature failure must time itself");
        // Root-arity mismatch straight through the gated entry point: the
        // graph was imported, so nodes_initial and duration must be set.
        let gf = gated_ssa::build(&f).expect("reducible");
        let gg = gated_ssa::build(&g).expect("reducible");
        let v = Validator::new().validate_gated(&gf, &gg);
        assert_eq!(v.reason, Some(FailReason::RootsDiffer));
        assert!(v.stats.nodes_initial > 0, "root-arity failure must count imported nodes");
        assert!(v.stats.duration > Duration::ZERO, "root-arity failure must time itself");
    }

    /// Gating charges against the same budget as normalization: with an
    /// already-expired deadline the query must fail `Budget` without
    /// normalizing for another `max_time`.
    #[test]
    fn gating_time_counts_against_the_budget() {
        let f = func("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 3\n  ret i64 %x\n}\n");
        let v = Validator {
            limits: Limits { max_time: Duration::ZERO, ..Limits::default() },
            ..Validator::new()
        };
        let verdict = v.validate(&f, &f);
        assert!(!verdict.validated);
        assert_eq!(verdict.reason, Some(FailReason::Budget));
    }

    #[test]
    fn identical_functions_validate_with_no_rules() {
        let f = func("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 3\n  ret i64 %x\n}\n");
        let v = Validator { rules: RuleSet::none(), ..Validator::new() };
        let verdict = v.validate(&f, &f);
        assert!(verdict.validated, "{:?}", verdict.reason);
        assert_eq!(verdict.stats.rewrites.total(), 0);
    }

    /// The paper's §3.1 example: `x1 = 3+3; x2 = a*x1; x3 = x2+x2` vs
    /// `y1 = a*6; y2 = y1 << 1`.
    #[test]
    fn paper_section_3_1_basic_block() {
        let orig = func(
            "define i64 @f(i64 %a) {\nentry:\n  %x1 = add i64 3, 3\n  %x2 = mul i64 %a, %x1\n  %x3 = add i64 %x2, %x2\n  ret i64 %x3\n}\n",
        );
        let opt = func(
            "define i64 @f(i64 %a) {\nentry:\n  %y1 = mul i64 %a, 6\n  %y2 = shl i64 %y1, 1\n  ret i64 %y2\n}\n",
        );
        assert!(
            !Validator { rules: RuleSet::none(), ..Validator::new() }
                .validate(&orig, &opt)
                .validated
        );
        let verdict = validate(&orig, &opt);
        assert!(verdict.validated, "{:?}", verdict.reason);
        assert!(verdict.stats.rewrites.constfold > 0);
    }

    /// The paper's §4 GVN+SCCP example: both reduce to `return 1`.
    #[test]
    fn paper_section_4_gvn_sccp_example() {
        let orig = func(
            "define i64 @f(i1 %c) {\n\
             entry:\n  br i1 %c, label %t, label %e\n\
             t:\n  br label %j\n\
             e:\n  br label %j\n\
             j:\n  %a = phi i64 [ 1, %t ], [ 2, %e ]\n\
             %b = phi i64 [ 1, %t ], [ 2, %e ]\n\
             %d = phi i64 [ 1, %t ], [ 1, %e ]\n\
             %cc = icmp eq i64 %a, %b\n\
             br i1 %cc, label %t2, label %e2\n\
             t2:\n  br label %j2\n\
             e2:\n  br label %j2\n\
             j2:\n  %x = phi i64 [ %d, %t2 ], [ 0, %e2 ]\n  ret i64 %x\n\
             }\n",
        );
        let opt = func("define i64 @f(i1 %c) {\nentry:\n  ret i64 1\n}\n");
        let verdict = validate(&orig, &opt);
        assert!(verdict.validated, "{:?}", verdict.reason);
        assert!(verdict.stats.rewrites.phi > 0, "{:?}", verdict.stats.rewrites);
        // Without φ rules this must not validate.
        let no_phi =
            Validator { rules: RuleSet { phi: false, ..RuleSet::all() }, ..Validator::new() };
        assert!(!no_phi.validate(&orig, &opt).validated);
    }

    /// The paper's §4 LICM example: constant propagation + loop-invariant
    /// code motion + loop deletion turn the loop into `return a + 3`.
    #[test]
    fn paper_section_4_licm_example() {
        let orig = func(
            "define i64 @f(i64 %a, i64 %n) {\n\
             entry:\n  br label %head\n\
             head:\n  %i = phi i64 [ 0, %entry ], [ %i2, %body ]\n\
             %x = phi i64 [ undef, %entry ], [ %x2, %body ]\n\
             %c = icmp slt i64 %i, %n\n  br i1 %c, label %body, label %done\n\
             body:\n  %x2 = add i64 %a, 3\n  %i2 = add i64 %i, 1\n  br label %head\n\
             done:\n  ret i64 %x\n\
             }\n",
        );
        let _ = orig;
        // The paper's exact example returns x after the loop, where x is
        // assigned in every iteration; with a zero-trip count x would be
        // undef, so the honest equivalent uses a +3 that dominates the exit:
        let orig = func(
            "define i64 @f(i64 %a, i64 %n) {\n\
             entry:\n  br label %head\n\
             head:\n  %i = phi i64 [ 0, %entry ], [ %i2, %body ]\n\
             %c = icmp slt i64 %i, %n\n  br i1 %c, label %body, label %head2\n\
             body:\n  %x2 = add i64 %a, 3\n  %i2 = add i64 %i, 1\n  br label %head\n\
             head2:\n  %x3 = add i64 %a, 3\n  ret i64 %x3\n\
             }\n",
        );
        let opt = func(
            "define i64 @f(i64 %a, i64 %n) {\nentry:\n  %x = add i64 %a, 3\n  ret i64 %x\n}\n",
        );
        let verdict = validate(&orig, &opt);
        assert!(verdict.validated, "{:?}", verdict.reason);
    }

    /// Store-to-load forwarding through distinct allocas (the paper's §3.1
    /// side-effects example).
    #[test]
    fn alloca_store_forwarding() {
        let orig = func(
            "define i64 @f(i64 %x, i64 %y) {\n\
             entry:\n  %p1 = alloca 8, align 8\n  %p2 = alloca 8, align 8\n\
             store i64 %x, ptr %p1\n  store i64 %y, ptr %p2\n\
             %z = load i64, ptr %p1\n  ret i64 %z\n\
             }\n",
        );
        let opt = func("define i64 @f(i64 %x, i64 %y) {\nentry:\n  ret i64 %x\n}\n");
        let verdict = validate(&orig, &opt);
        assert!(verdict.validated, "{:?}", verdict.reason);
        assert!(verdict.stats.rewrites.loadstore > 0);
        // Without load/store rules: alarm.
        let v =
            Validator { rules: RuleSet { loadstore: false, ..RuleSet::all() }, ..Validator::new() };
        assert!(!v.validate(&orig, &opt).validated);
    }

    /// A transformation that changes semantics must *never* validate.
    #[test]
    fn miscompilation_is_rejected() {
        let orig = func("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  ret i64 %x\n}\n");
        let bad = func("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 2\n  ret i64 %x\n}\n");
        let verdict =
            Validator { rules: RuleSet::full(), ..Validator::new() }.validate(&orig, &bad);
        assert!(!verdict.validated);
        assert_eq!(verdict.reason, Some(FailReason::RootsDiffer));
    }

    #[test]
    fn swapped_branch_conditions_are_distinguished() {
        // §3.2: replacing a<b by a>=b must be caught.
        let orig = func(
            "define i64 @f(i64 %a, i64 %b) {\n\
             entry:\n  %c = icmp slt i64 %a, %b\n  br i1 %c, label %t, label %e\n\
             t:\n  br label %j\n\
             e:\n  br label %j\n\
             j:\n  %x = phi i64 [ 1, %t ], [ 2, %e ]\n  ret i64 %x\n\
             }\n",
        );
        let bad = func(
            "define i64 @f(i64 %a, i64 %b) {\n\
             entry:\n  %c = icmp sge i64 %a, %b\n  br i1 %c, label %t, label %e\n\
             t:\n  br label %j\n\
             e:\n  br label %j\n\
             j:\n  %x = phi i64 [ 1, %t ], [ 2, %e ]\n  ret i64 %x\n\
             }\n",
        );
        assert!(
            !Validator { rules: RuleSet::full(), ..Validator::new() }
                .validate(&orig, &bad)
                .validated
        );
    }

    /// Dead-store elimination against stack memory: the ObsMem purge.
    #[test]
    fn dead_stack_store_elimination_validates() {
        let orig = func(
            "define i64 @f(i64 %x) {\n\
             entry:\n  %p = alloca 8, align 8\n  store i64 %x, ptr %p\n  ret i64 %x\n\
             }\n",
        );
        let opt = func("define i64 @f(i64 %x) {\nentry:\n  ret i64 %x\n}\n");
        let verdict = validate(&orig, &opt);
        assert!(verdict.validated, "{:?}", verdict.reason);
    }

    /// Identical loops validate with cycle matching; a loop vs a different
    /// loop does not.
    #[test]
    fn loops_match_by_unification() {
        let src = "define i64 @f(i64 %n) {\n\
                   entry:\n  br label %h\n\
                   h:\n  %i = phi i64 [ 0, %entry ], [ %i2, %b ]\n\
                   %c = icmp slt i64 %i, %n\n  br i1 %c, label %b, label %d\n\
                   b:\n  %i2 = add i64 %i, 1\n  br label %h\n\
                   d:\n  ret i64 %i\n\
                   }\n";
        let orig = func(src);
        let opt = func(src); // identical text: the identity "transformation"
        let verdict = validate(&orig, &opt);
        assert!(verdict.validated, "{:?}", verdict.reason);
        let bad = func(&src.replace("add i64 %i, 1", "add i64 %i, 2"));
        assert!(!validate(&orig, &bad).validated);
    }

    /// Global stores are observable and must match.
    #[test]
    fn global_store_differences_are_alarms() {
        let m1 = parse_module("global @g 8\ndefine void @f(i64 %x) {\nentry:\n  store i64 %x, ptr @g\n  ret void\n}\n");
        let m2 = parse_module("global @g 8\ndefine void @f(i64 %x) {\nentry:\n  ret void\n}\n");
        if let (Ok(m1), Ok(m2)) = (m1, m2) {
            let verdict = validate(&m1.functions[0], &m2.functions[0]);
            assert!(!verdict.validated, "dropping a global store must alarm");
        }
    }
}
