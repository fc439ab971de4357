//! Micro-benchmarks (`cargo bench -p llvm_md_bench`): the validator's
//! moving parts at several function sizes — gating (monadic gated SSA
//! construction), shared-graph import + hash-consing, one congruence
//! rebuild over an original/optimized pair, end-to-end validation of
//! identity and of a pipeline-optimized function, the serve miss path's
//! parsing and canonicalization, the paper pipeline on one function,
//! gated-SSA CFG preparation, and equality saturation on fuzz pairs that
//! the destructive engine leaves unproved.
//!
//! The paper's efficiency claim (§4.1) is that validation work is
//! proportional to the number of transformations, not to program size:
//! `validate_identity` (zero transformations) should stay near the cost of
//! graph construction even as functions grow.
//!
//! Uses the in-repo timer (`llvm_md_bench::timing`) — warmup then
//! median-of-N — and writes `BENCH_micro.json` to the working directory
//! (or `$BENCH_OUT_DIR`) for the perf trajectory.

use lir::func::{Function, Module};
use lir_opt::paper_pipeline;
use llvm_md_bench::timing::{BenchReport, Config};
use llvm_md_bench::write_artifact;
use llvm_md_core::{Normalizer, RuleSet, Validator};
use llvm_md_workload::fuzz::campaign_module;
use llvm_md_workload::{fuzz_profiles, profiles, DEFAULT_CAMPAIGN_SEED};

/// A generated module whose functions average roughly `size` instructions.
fn sized_module(size: usize) -> Module {
    let mut p = profiles()[0];
    p.functions = 40;
    p.tail_prob = 0.0;
    p.avg_segment = (size / 12).max(2);
    p.seed = size as u64 * 7 + 1;
    llvm_md_workload::generate(&p)
}

/// The function closest to `size` instructions in `m`.
fn pick(m: &Module, size: usize) -> &Function {
    m.functions.iter().min_by_key(|f| f.inst_count().abs_diff(size)).expect("non-empty module")
}

const SIZES: [usize; 3] = [16, 64, 256];

/// Fuzz pairs on which the destructive engine stops at `RootsDiffer` and
/// saturation runs: `(profile index, campaign module index, function)` at
/// the default campaign seed, each validated against its paper-pipeline
/// output. They stop at 121, 455 and 689 live e-nodes, after 4, 2 and 17
/// iterations.
const SATURATING: [(usize, usize, &str); 3] = [(0, 1, "f3"), (1, 9, "f2"), (0, 9, "f2")];

fn main() {
    let cfg = Config::default();
    let mut report = BenchReport::new();
    let validator = Validator::new();

    for size in SIZES {
        let m = sized_module(size);
        let f = pick(&m, size);
        let name = format!("gating/{}", f.inst_count());
        report.run(&name, &cfg, || gated_ssa::build(f).expect("gates"));
    }

    for size in SIZES {
        let m = sized_module(size);
        let f = pick(&m, size);
        let gf = gated_ssa::build(f).expect("gates");
        let name = format!("shared_graph_import/{}", f.inst_count());
        report.run(&name, &cfg, || {
            let mut g = llvm_md_core::SharedGraph::new();
            let map = g.import(&gf);
            let map2 = g.import(&gf);
            (map, map2)
        });
    }

    for size in SIZES {
        let m = sized_module(size);
        let mut opt = m.clone();
        paper_pipeline().run_module(&mut opt);
        let fi = pick(&m, size);
        let fo = opt.functions.iter().find(|f| f.name == fi.name).expect("same function");
        let (gi, go) = (gated_ssa::build(fi).expect("gates"), gated_ssa::build(fo).expect("gates"));
        let name = format!("shared_graph_rebuild/{}", fi.inst_count());
        report.run(&name, &cfg, || {
            let mut g = llvm_md_core::SharedGraph::new();
            let maps = (g.import(&gi), g.import(&go));
            (g.rebuild(), maps)
        });
    }

    for size in SIZES {
        let m = sized_module(size);
        let f = pick(&m, size);
        let name = format!("validate_identity/{}", f.inst_count());
        report.run(&name, &cfg, || validator.validate(f, f));
    }

    for size in SIZES {
        let m = sized_module(size);
        let mut opt = m.clone();
        paper_pipeline().run_module(&mut opt);
        let fi = pick(&m, size);
        let fo = opt.functions.iter().find(|f| f.name == fi.name).expect("same function");
        let name = format!("validate_pipeline/{}", fi.inst_count());
        report.run(&name, &cfg, || validator.validate(fi, fo));
    }

    // A serve store miss parses both texts, then canonicalizes every
    // function to fingerprint it.
    for size in SIZES {
        let m = sized_module(size);
        let text = m.to_string();
        let name = format!("parse_module/{}", pick(&m, size).inst_count());
        report.run(&name, &cfg, || lir::parse::parse_module(&text).expect("parses"));
    }

    for size in SIZES {
        let m = sized_module(size);
        let f = pick(&m, size);
        let name = format!("canonicalize/{}", f.inst_count());
        report.run(&name, &cfg, || f.canonicalized());
    }

    // The optimizer's share of a suite pass: every paper-pipeline pass on
    // one function (a fresh clone each time).
    let pm = paper_pipeline();
    for size in SIZES {
        let m = sized_module(size);
        let ctx = lir_opt::Ctx::of(&m);
        let f = pick(&m, size);
        let name = format!("optimize/{}", f.inst_count());
        report.run(&name, &cfg, || pm.run_function(&mut f.clone(), &ctx));
    }

    for size in SIZES {
        let m = sized_module(size);
        let f = pick(&m, size);
        let name = format!("prepare/{}", f.inst_count());
        report.run(&name, &cfg, || gated_ssa::prepare(f).expect("reducible"));
    }

    // Equality saturation, after the destructive pass it falls back from.
    // The axis is named by the live e-nodes when saturation stops.
    let saturating =
        Validator { rules: RuleSet::full(), normalizer: Normalizer::SaturateFallback, ..validator };
    for (profile, index, name) in SATURATING {
        let m = campaign_module(&fuzz_profiles()[profile], DEFAULT_CAMPAIGN_SEED, index);
        let mut opt = m.clone();
        paper_pipeline().run_module(&mut opt);
        let fi = m.functions.iter().find(|f| f.name == name).expect("pinned function");
        let fo = opt.functions.iter().find(|f| f.name == name).expect("same function");
        let stats = saturating.validate(fi, fo).stats.saturation.expect("saturation runs");
        let name = format!("saturate/{}", stats.e_nodes);
        report.run(&name, &cfg, || saturating.validate(fi, fo));
    }

    let path = write_artifact("micro", &report.to_json()).expect("write BENCH_micro.json");
    println!("wrote {}", path.display());
}
