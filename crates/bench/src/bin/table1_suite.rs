//! Table 1: test-suite information — per-benchmark assembly size, line
//! count and function count; the paper's original numbers next to the
//! generated stand-in suite.
//!
//! Writes `BENCH_table1.json` with the generated-suite rows.

use llvm_md_bench::{scale_from_args, suite, write_artifact};
use llvm_md_core::Json;

fn main() {
    let scale = scale_from_args();
    println!("Table 1: test suite information (synthetic stand-ins at 1/{scale} scale)");
    println!(
        "{:12} | {:>8} {:>8} {:>9} | {:>8} {:>8} {:>9}",
        "", "paper", "paper", "paper", "ours", "ours", "ours"
    );
    println!(
        "{:12} | {:>8} {:>8} {:>9} | {:>8} {:>8} {:>9}",
        "benchmark", "size", "LOC", "functions", "size", "LOC", "functions"
    );
    println!("{}", "-".repeat(78));
    let mut tot_funcs_paper = 0u32;
    let mut tot_funcs_ours = 0usize;
    let mut tot_insts = 0usize;
    let mut rows = Vec::new();
    for (p, m) in suite(scale) {
        let text: String = m.functions.iter().map(|f| format!("{f}\n")).collect();
        let loc = text.lines().count();
        let size = text.len();
        tot_funcs_paper += p.paper.functions;
        tot_funcs_ours += m.functions.len();
        tot_insts += m.inst_count();
        println!(
            "{:12} | {:>8} {:>7}K {:>9} | {:>7}K {:>8} {:>9}",
            p.name,
            p.paper.size,
            p.paper.loc_k,
            p.paper.functions,
            size / 1024,
            loc,
            m.functions.len()
        );
        rows.push(Json::obj([
            ("benchmark", Json::str(p.name)),
            ("size_bytes", Json::num(size as f64)),
            ("loc", Json::num(loc as f64)),
            ("functions", Json::num(m.functions.len() as f64)),
            ("instructions", Json::num(m.inst_count() as f64)),
        ]));
    }
    println!("{}", "-".repeat(78));
    println!(
        "{:12} | {:>8} {:>8} {:>9} | {:>8} {:>8} {:>9}   ({} instructions total)",
        "total", "", "", tot_funcs_paper, "", "", tot_funcs_ours, tot_insts
    );
    let artifact = Json::obj([
        ("exhibit", Json::str("table1_suite")),
        ("scale", Json::num(scale as f64)),
        ("functions", Json::num(tot_funcs_ours as f64)),
        ("instructions", Json::num(tot_insts as f64)),
        ("benchmarks", Json::Arr(rows)),
    ]);
    let path = write_artifact("table1", &artifact).expect("write BENCH_table1.json");
    println!("wrote {}", path.display());
}
