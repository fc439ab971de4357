//! Field tables ([`llvm_md_core::wire_record!`]) for the driver's report
//! vocabulary: [`FunctionRecord`]/[`Report`] and the chain layer's
//! [`Blame`]/[`ChainStep`]/[`ChainReport`], which `llvm-md validate` and
//! `llvm-md chain` print, plus the fuzz campaign's [`CampaignReport`],
//! which only needs the determinism contract.
//!
//! Layouts follow the core conventions: durations as integer nanoseconds
//! under `_ns` keys. Each table also generates the record's `PartialEq`,
//! which skips the `[timing]` fields: durations, and the chain's
//! [`CacheStats`](llvm_md_core::CacheStats) counters, which depend on which
//! worker missed first. Two runs over the same inputs compare equal at any
//! worker count.

use crate::chain::{Blame, ChainReport, ChainStep};
use crate::fuzz::CampaignReport;
use crate::{FunctionRecord, Report};
use llvm_md_core::wire_record;

wire_record! {
    impl ToWire, PartialEq for FunctionRecord {
        name: "name",
        insts_before: "insts_before",
        insts_after: "insts_after",
        transformed: "transformed",
        validated: "validated",
        reason: "reason",
        duration: "duration_ns" [timing],
        rewrites: "rewrites",
        rounds: "rounds",
        saturation: "saturation",
        triage: "triage",
    }
    impl ToWire, PartialEq for Report {
        records: "records",
        opt_time: "opt_time_ns" [timing],
        validate_time: "validate_time_ns" [timing],
    }
    impl ToWire, PartialEq for Blame {
        function: "function",
        step: "step",
        pass: "pass",
        reason: "reason",
        triage: "triage",
    }
    impl ToWire, PartialEq for ChainStep {
        pass: "pass",
        report: "report",
    }
    impl ToWire, PartialEq for ChainReport {
        steps: "steps",
        end_to_end: "end_to_end",
        blames: "blames",
        cache: "cache" [timing],
    }
    impl PartialEq for CampaignReport {
        seed,
        passes,
        profiles,
        findings,
        findings_truncated,
        wall [timing],
    }
}
