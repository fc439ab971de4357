//! Micro-benchmarks (`cargo bench -p llvm_md_bench`): the validator's
//! moving parts at several function sizes — gating (monadic gated SSA
//! construction), shared-graph import + hash-consing, one congruence
//! rebuild over an original/optimized pair, and end-to-end validation of
//! identity and of a pipeline-optimized function.
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
use llvm_md_core::Validator;
use llvm_md_workload::profiles;

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

    let path = write_artifact("micro", &report.to_json()).expect("write BENCH_micro.json");
    println!("wrote {}", path.display());
}
