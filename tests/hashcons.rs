//! Differential lockdown for the hash-consed arena interner.
//!
//! `gated_ssa::ValueGraph` and `llvm_md_core::SharedGraph` intern nodes
//! through open-addressed hash slots (`lir::intern`) by default
//! ([`Interning::Fast`]), but both retain the original `HashMap`-backed
//! interner as an oracle ([`Interning::Naive`]). Node-id assignment feeds
//! rule order-sensitivity (smallest-id gate selection, `find`-ordered
//! merges), so the two interners must agree *byte-for-byte* on every graph
//! they build — any divergence shows up as a verdict, triage, or stats
//! difference somewhere in the corpus. These tests drive both modes through
//! the full pipeline over the Table-1 suites, all fuzz profiles and the
//! injected-bug corpus, plus direct interner-invariant checks.

use llvm_md::core::{Cascade, Interning, TriageOptions, Validator};
use llvm_md::driver::ValidationEngine;
use llvm_md::gated::{build_with, Node, ValueGraph};
use llvm_md::lir::inst::{BinOp, IcmpPred};
use llvm_md::lir::parse::parse_module;
use llvm_md::lir::types::Ty;
use llvm_md::opt::paper_pipeline;
use llvm_md::workload::{
    campaign_modules, corpus_modules, fuzz_profiles, injected_corpus, suite_batch,
    DEFAULT_CAMPAIGN_SEED,
};

fn fast() -> Validator {
    let v = Validator::new();
    assert_eq!(v.interning, Interning::Fast, "fast interning must be the default");
    v
}

fn naive() -> Validator {
    Validator { interning: Interning::Naive, ..Validator::new() }
}

/// Both interners must produce equal reports (timings aside) and
/// byte-identical certified modules. Checked at 1 worker (serial path) and
/// 4 (work-stealing path).
fn assert_modes_agree(m: &llvm_md::lir::func::Module, label: &str) {
    let pm = paper_pipeline();
    for workers in [1usize, 4] {
        let engine = ValidationEngine::with_workers(workers);
        let (out_f, rep_f) = engine.llvm_md(m, &pm, &fast());
        let (out_n, rep_n) = engine.llvm_md(m, &pm, &naive());
        assert_eq!(
            rep_f, rep_n,
            "{label}, workers={workers}: fast/naive interning reports diverge"
        );
        assert_eq!(
            format!("{out_f}"),
            format!("{out_n}"),
            "{label}, workers={workers}: certified modules differ"
        );
    }
}

/// The synthetic Table-1 suite validates identically under both interners.
#[test]
fn table1_suites_agree_across_interners() {
    for (i, m) in suite_batch(8).iter().enumerate() {
        assert_modes_agree(m, &format!("suite module {i}"));
    }
}

/// Every fuzz-campaign profile validates identically under both interners.
#[test]
fn fuzz_profiles_agree_across_interners() {
    for p in fuzz_profiles() {
        for (i, m) in campaign_modules(&p, DEFAULT_CAMPAIGN_SEED, 2).iter().enumerate() {
            assert_modes_agree(m, &format!("profile {} module {i}", p.name));
        }
    }
}

/// The injected-bug corpus — where verdicts are alarms and triage runs the
/// differential interpreter — agrees across interners down to the triage
/// classification, and the targeted function's raw verdict agrees on every
/// stats field (durations excluded: they are wall-clock).
#[test]
fn injected_bugs_agree_across_interners() {
    let cascade = Cascade::Triage(TriageOptions { battery: 8, ..TriageOptions::default() });
    let (fast_t, naive_t) = (Validator { cascade, ..fast() }, Validator { cascade, ..naive() });
    for bug in injected_corpus() {
        for workers in [1usize, 4] {
            let engine = ValidationEngine::with_workers(workers);
            let rep_f = engine.validate_modules(&bug.module, &bug.broken, &fast_t);
            let rep_n = engine.validate_modules(&bug.module, &bug.broken, &naive_t);
            assert_eq!(
                rep_f, rep_n,
                "{} ({:?}), workers={workers}: triaged reports diverge",
                bug.name, bug.kind
            );
        }
        let orig = bug.module.functions.iter().find(|f| f.name == bug.function).expect("target");
        let broke = bug.broken.functions.iter().find(|f| f.name == bug.function).expect("target");
        let vf = fast().validate(orig, broke);
        let vn = naive().validate(orig, broke);
        assert_eq!(vf, vn, "{}: verdicts differ", bug.name);
    }
}

/// The hand-written §3–§4 corpus builds node-for-node identical gated
/// graphs under both interners: same node sequence and same roots — the
/// strongest form of "the fast interner assigns the same ids".
#[test]
fn gated_builds_are_node_identical_across_interners() {
    for (name, m) in corpus_modules() {
        for f in &m.functions {
            let gf = build_with(f, Interning::Fast);
            let gn = build_with(f, Interning::Naive);
            match (gf, gn) {
                (Ok(gf), Ok(gn)) => {
                    assert_eq!(gf.ret, gn.ret, "{name}/{}: return roots differ", f.name);
                    assert_eq!(gf.mem, gn.mem, "{name}/{}: memory roots differ", f.name);
                    assert_eq!(gf.graph.len(), gn.graph.len(), "{name}/{}", f.name);
                    for ((i, a), (j, b)) in gf.graph.iter().zip(gn.graph.iter()) {
                        assert_eq!(i, j);
                        assert_eq!(a, b, "{name}/{}: node {i:?} differs", f.name);
                    }
                }
                (Err(ef), Err(en)) => {
                    assert_eq!(
                        format!("{ef:?}"),
                        format!("{en:?}"),
                        "{name}/{}: gate errors differ",
                        f.name
                    );
                }
                (f_res, n_res) => panic!(
                    "{name}/{}: one interner gated, the other refused: fast={f_res:?} naive={n_res:?}",
                    f.name
                ),
            }
        }
    }
}

/// Interning invariant: two node ids are equal iff the nodes are
/// structurally equal. Positive direction via re-adding identical nodes;
/// negative direction via adversarial near-misses (swapped operands,
/// changed type, changed operator, changed node kind over the same
/// children) plus a full pairwise sweep of the arena.
#[test]
fn id_equality_is_structural_equality() {
    let mut g = ValueGraph::new();
    let a = g.add(Node::Param(0));
    let b = g.add(Node::Param(1));
    assert_eq!(g.add(Node::Param(0)), a, "identical node must reuse its id");

    let add = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
    assert_eq!(g.add(Node::Bin(BinOp::Add, Ty::I64, a, b)), add);

    // Near-misses: each differs from `add` in exactly one coordinate.
    let near = [
        Node::Bin(BinOp::Add, Ty::I64, b, a),    // swapped operands
        Node::Bin(BinOp::Add, Ty::I32, a, b),    // different type
        Node::Bin(BinOp::Sub, Ty::I64, a, b),    // different operator
        Node::Icmp(IcmpPred::Eq, Ty::I64, a, b), // different kind, same children
    ];
    for n in near {
        let id = g.add(n.clone());
        assert_ne!(id, add, "near-miss {n:?} must not collapse into {add:?}");
        assert_eq!(g.add(n), id, "near-miss must still intern stably");
    }

    // Pairwise: the arena never holds two structurally equal nodes.
    for (i, ni) in g.iter() {
        for (j, nj) in g.iter() {
            assert_eq!(i == j, ni == nj, "ids {i:?},{j:?} break the interning invariant");
        }
    }
}

/// μ-nodes are nominal — `add` must refuse them (they go through
/// `new_mu`/`patch_mu`), and two μ-nodes with identical shape keep distinct
/// ids.
#[test]
fn mu_nodes_are_nominal_not_interned() {
    let mut g = ValueGraph::new();
    let init = g.add(Node::Param(0));
    let m1 = g.new_mu(1, init);
    let m2 = g.new_mu(1, init);
    assert_ne!(m1, m2, "mu nodes must never be hash-consed together");
}

/// `reset` empties the arena but keeps it usable: re-interning the same
/// node sequence afterwards yields the same ids from a clean slate.
#[test]
fn arena_reset_reuses_cleanly() {
    let mut g = ValueGraph::with_interning(Interning::Fast);
    let build = |g: &mut ValueGraph| {
        let a = g.add(Node::Param(0));
        let b = g.add(Node::Param(1));
        let s = g.add(Node::Bin(BinOp::Mul, Ty::I64, a, b));
        let c = g.callee("callee_one");
        (a, b, s, c)
    };
    let first = build(&mut g);
    g.reset();
    assert!(g.is_empty(), "reset must empty the arena");
    let second = build(&mut g);
    assert_eq!(first, second, "a reset arena must re-assign identical ids");
    assert_eq!(g.callee_name(second.3), "callee_one");
}

/// Callee names live in a string table; they must survive a full
/// print → parse → rebuild roundtrip and intern to stable ids.
#[test]
fn string_table_roundtrips_through_print_parse() {
    let src = "define i64 @caller(i64 %a) {\n\
               entry:\n  %x = call i64 @helper_alpha(i64 %a)\n  %y = call i64 @helper_beta(i64 %x)\n  %z = call i64 @helper_alpha(i64 %y)\n  ret i64 %z\n}\n\
               define i64 @helper_alpha(i64 %a) {\nentry:\n  %r = add i64 %a, 1\n  ret i64 %r\n}\n\
               define i64 @helper_beta(i64 %a) {\nentry:\n  %r = mul i64 %a, 2\n  ret i64 %r\n}\n";
    let m = parse_module(src).expect("parses");
    let reparsed = parse_module(&format!("{m}")).expect("printed module reparses");
    let f = &m.functions[0];
    let f2 = &reparsed.functions[0];
    let g1 = build_with(f, Interning::Fast).expect("gates");
    let g2 = build_with(f2, Interning::Fast).expect("gates after roundtrip");
    assert_eq!(g1.ret, g2.ret);
    assert_eq!(g1.graph.len(), g2.graph.len());
    for ((i, a), (_, b)) in g1.graph.iter().zip(g2.graph.iter()) {
        assert_eq!(a, b, "node {i:?} differs after print/parse roundtrip");
        if let (Node::CallVal { callee: ca, .. }, Node::CallVal { callee: cb, .. }) = (a, b) {
            assert_eq!(
                g1.graph.callee_name(*ca),
                g2.graph.callee_name(*cb),
                "callee name drifted through the string table"
            );
        }
    }
}
