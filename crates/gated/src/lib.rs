//! `gated-ssa` — Monadic Gated SSA construction for the LLVM-MD
//! translation-validation reproduction (PLDI 2011, §2–3).
//!
//! This crate turns an [`lir::Function`] into a referentially transparent
//! **value graph**:
//!
//! 1. [`prep`] canonicalizes the CFG (single return, loop preheaders, single
//!    latches, dedicated exits) and rejects irreducible control flow;
//! 2. [`mod@build`] threads two abstract state chains (memory contents and the
//!    allocation chain) through the instructions — the *monadic* part — and
//!    replaces φ-nodes with **gated φs** (branch conditions attached),
//!    **μ-nodes** at loop headers and **η-nodes** at loop exits — the
//!    *gated* part;
//! 3. the result is a hash-consed [`node::ValueGraph`] plus roots for the
//!    returned value and the observable final memory.
//!
//! The normalizing validator in `llvm-md-core` merges two such graphs into
//! one shared graph and rewrites it to decide semantic equality.
//!
//! # Example
//!
//! ```
//! use lir::parse::parse_module;
//!
//! let m = parse_module(
//!     "define i64 @double(i64 %x) {\n\
//!      entry:\n\
//!        %y = add i64 %x, %x\n\
//!        ret i64 %y\n\
//!      }\n",
//! )?;
//! let gated = gated_ssa::build(&m.functions[0])?;
//! // The return root is the `add` node over the parameter.
//! assert_eq!(gated.graph.display(gated.ret.unwrap()), "(add p0 p0)");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod build;
pub mod node;
pub mod prep;

pub use build::{build, build_prepared, build_prepared_with, build_with, GatedFunction};
pub use node::{CalleeId, Interning, Node, NodeId, ValueGraph};
pub use prep::{prepare, single_return, GateError, Prepared};
