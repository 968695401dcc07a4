//! # fastbn-bench
//!
//! Workload definitions and measurement helpers reproducing the Fast-BNI
//! (PPoPP'23) evaluation. The paper's six bnlearn networks are replaced by
//! seeded analogues with matching node counts, arc counts and arity
//! distributions (see `docs/ARCHITECTURE.md`); the paper's published
//! Table-1 numbers are carried alongside each workload so harness output
//! can print paper-vs-measured side by side.
//!
//! Three measurement paths cover the three ways queries execute (see
//! `docs/ARCHITECTURE.md` at the repository root): [`measure::run_cases`]
//! (one session, one query at a time), [`measure::run_cases_batch`] (one
//! `run_batch` call), and [`measure::run_cases_serve`] (closed-loop
//! concurrent clients against a one-model `RoutedServer`, with p50/p99
//! latency percentiles).
//!
//! The report binaries (`table1`, `sweep`, `serve`) additionally emit
//! their measurements as schema-versioned `BENCH_*.json` perf records
//! via `--json PATH` (the [`report`] module); committed baselines live
//! in `perf/` at the repository root, and the `gate` binary compares a
//! fresh run against a baseline — failing on a >30% throughput
//! regression — as CI's perf-trajectory check.

// No unsafe code: raw-pointer and atomics tricks live in the audited
// modules of fastbn-potential/parallel/inference (see FB-L4 in
// crates/analyze); everything here must stay checkable by construction.
#![forbid(unsafe_code)]

pub mod measure;
pub mod report;
pub mod workloads;

pub use measure::{
    batch_of, best_over_threads, percentile, prepare, run_cases, run_cases_batch, run_cases_serve,
    run_cases_serve_with, solver_for, EngineTiming, LatencySummary, ServeOpts, ServeRun,
};
pub use report::{compare, BenchReport, BenchRow, GateOutcome, MachineInfo, RowComparison};
pub use workloads::{adaptivity_workloads, all_workloads, workload_by_name, PaperRow, Workload};
