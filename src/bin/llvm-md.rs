//! The unified `llvm-md` command-line tool.
//!
//! ```text
//! llvm-md validate <original.ll> <optimized.ll> [options]
//! llvm-md chain    <input.ll> [--passes p1,p2,…] [options]
//! llvm-md serve    [--stdin | --socket PATH] [--store DIR] [options]
//! ```
//!
//! * `validate` — pair the two modules by function name, validate every
//!   pair, print the wire-format report to stdout. Exit code 1 when any
//!   function alarms.
//! * `chain` — run a pass pipeline step-by-step with per-pass blame
//!   (default pipeline: the paper's seven passes), print the wire-format
//!   chain report. Exit code 1 when any function is blamed.
//! * `serve` — the persistent validation daemon: length-prefixed batch
//!   requests in, one wire verdict line per function out, repeat
//!   fingerprint pairs answered from the verdict store without
//!   re-validating. See the "Running the service" section of README.md for
//!   the protocol.
//!
//! Shared options: `--workers N` (default: `LLVM_MD_WORKERS` or all
//! cores), `--normalizer MODE` (`destructive`, `saturate`, or
//! `saturate-fallback`; default `destructive`), `--triage` (classify every
//! alarm by differential interpretation), `--battery N` (triage battery
//! size; implies `--triage`), `--tier2` (run the bit-precise SAT query on
//! in-scope alarms; implies `--triage`). The flags build one `Validator`
//! whose `Cascade` every subcommand runs. Serve options: `--store DIR`
//! (persistent store directory; in-memory when omitted), `--cap N` (store
//! entry cap).

use llvm_md::core::wire::{self, Json, ToWire};
use llvm_md::core::{Cascade, Normalizer, SatOptions, TriageOptions, Validator};
use llvm_md::driver::serve::Server;
use llvm_md::driver::store::{VerdictStore, DEFAULT_CAPACITY};
use llvm_md::driver::{campaign_pass_manager, ChainValidator, ValidationEngine};
use llvm_md::lir::func::Module;
use llvm_md::lir::parse::parse_module;
use llvm_md::workload::PAPER_PASSES;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  llvm-md validate <original.ll> <optimized.ll> [--normalizer MODE] [--triage] [--tier2] [--battery N] [--workers N]\n  llvm-md chain <input.ll> [--passes p1,p2,...] [--normalizer MODE] [--triage] [--tier2] [--battery N] [--workers N]\n  llvm-md serve [--stdin | --socket PATH] [--store DIR] [--cap N] [--normalizer MODE] [--triage] [--tier2] [--battery N] [--workers N]\n  (MODE: destructive | saturate | saturate-fallback)"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("llvm-md: {msg}");
    std::process::exit(2);
}

/// Pull `--flag VALUE` out of `args`, returning the value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        fail(&format!("{flag} needs a value"));
    }
    args.remove(i);
    Some(args.remove(i))
}

/// Pull a bare `--flag` out of `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

struct Common {
    engine: ValidationEngine,
    validator: Validator,
}

fn common_options(args: &mut Vec<String>) -> Common {
    let workers = take_value(args, "--workers")
        .map(|v| v.parse::<usize>().unwrap_or_else(|_| fail(&format!("bad --workers `{v}`"))));
    let battery = take_value(args, "--battery")
        .map(|v| v.parse::<usize>().unwrap_or_else(|_| fail(&format!("bad --battery `{v}`"))));
    let normalizer = match take_value(args, "--normalizer") {
        Some(v) => {
            Normalizer::parse(&v).unwrap_or_else(|| fail(&format!("bad --normalizer `{v}`")))
        }
        None => Normalizer::default(),
    };
    let triage = take_flag(args, "--triage");
    let tier2 = take_flag(args, "--tier2");
    let engine = match workers {
        Some(n) => ValidationEngine::with_workers(n),
        None => ValidationEngine::new(),
    };
    let topts = TriageOptions {
        battery: battery.unwrap_or(TriageOptions::default().battery),
        ..TriageOptions::default()
    };
    // Tier 2 needs an interpreter budget to replay SAT models: --tier2
    // implies triage.
    let cascade = if tier2 {
        Cascade::Tiered(topts, SatOptions::default())
    } else if triage || battery.is_some() {
        Cascade::Triage(topts)
    } else {
        Cascade::Graph
    };
    Common { engine, validator: Validator { normalizer, cascade, ..Validator::new() } }
}

fn load_module(path: &str) -> Module {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read `{path}`: {e}")));
    parse_module(&text).unwrap_or_else(|e| fail(&format!("cannot parse `{path}`: {e}")))
}

fn cmd_validate(mut args: Vec<String>) -> ExitCode {
    let opts = common_options(&mut args);
    let [original, optimized] = args.as_slice() else { usage() };
    let (input, output) = (load_module(original), load_module(optimized));
    let report = opts.engine.validate_modules(&input, &output, &opts.validator);
    let doc = wire::envelope(
        "report",
        [
            ("module", Json::str(&input.name)),
            ("functions", Json::num(report.records.len() as f64)),
            ("transformed", Json::num(report.transformed() as f64)),
            ("validated", Json::num(report.validated() as f64)),
            ("alarms", Json::num(report.alarms() as f64)),
            ("report", report.to_wire()),
        ],
    );
    println!("{doc}");
    if report.alarms() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_chain(mut args: Vec<String>) -> ExitCode {
    let opts = common_options(&mut args);
    let passes: Vec<String> = take_value(&mut args, "--passes")
        .map(|v| v.split(',').map(|p| p.trim().to_owned()).collect())
        .unwrap_or_else(|| PAPER_PASSES.iter().map(|&p| p.to_owned()).collect());
    let [input_path] = args.as_slice() else { usage() };
    let input = load_module(input_path);
    let pm = campaign_pass_manager(&passes).unwrap_or_else(|e| fail(&e.to_string()));
    let report = ChainValidator::new(opts.engine).validate_chain(&input, &pm, &opts.validator);
    let doc = wire::envelope(
        "chain-report",
        [
            ("module", Json::str(&input.name)),
            ("passes", Json::Arr(passes.iter().map(Json::str).collect())),
            ("blames", Json::num(report.blames.len() as f64)),
            ("consistent", Json::Bool(report.composition_consistent())),
            ("report", report.to_wire()),
        ],
    );
    println!("{doc}");
    if report.blames.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_serve(mut args: Vec<String>) -> ExitCode {
    let opts = common_options(&mut args);
    let store_dir = take_value(&mut args, "--store");
    let cap = take_value(&mut args, "--cap")
        .map(|v| v.parse::<usize>().unwrap_or_else(|_| fail(&format!("bad --cap `{v}`"))))
        .unwrap_or(DEFAULT_CAPACITY);
    let socket = take_value(&mut args, "--socket");
    let stdin_mode = take_flag(&mut args, "--stdin");
    if !args.is_empty() {
        fail(&format!("unexpected argument `{}`", args[0]));
    }
    if socket.is_some() && stdin_mode {
        fail("--stdin and --socket are mutually exclusive");
    }
    let store = match store_dir {
        Some(dir) => VerdictStore::open(std::path::Path::new(&dir), cap)
            .unwrap_or_else(|e| fail(&format!("cannot open store `{dir}`: {e}"))),
        None => VerdictStore::in_memory(cap),
    };
    let server = Server::new(opts.engine, opts.validator, store);
    match socket {
        Some(path) => serve_socket(&server, &path),
        None => {
            // Default transport is stdin (the explicit --stdin flag is
            // accepted for clarity in scripts).
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            match server.serve(stdin.lock(), stdout.lock()) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("llvm-md serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[cfg(unix)]
fn serve_socket(server: &Server, path: &str) -> ExitCode {
    match server.serve_unix(std::path::Path::new(path)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("llvm-md serve: socket `{path}`: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(not(unix))]
fn serve_socket(_server: &Server, _path: &str) -> ExitCode {
    eprintln!("llvm-md serve: --socket requires a Unix platform; use --stdin");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "validate" => cmd_validate(args),
        "chain" => cmd_chain(args),
        "serve" => cmd_serve(args),
        "--help" | "-h" | "help" => usage(),
        other => fail(&format!("unknown subcommand `{other}`")),
    }
}
