//! # fastbn-potential
//!
//! Potential tables over discrete variable domains, plus the three
//! "dominant potential table operations" the Fast-BNI paper identifies and
//! parallelizes (§2): **marginalization**, **extension** (multiply a
//! smaller-domain message into a larger-domain table), and **reduction**
//! (zero out entries inconsistent with evidence).
//!
//! The paper's "key step ... is to find the index mappings between the
//! original and the updated tables"; [`index_map`] implements those
//! mappings three ways, matching the engines that consume them:
//!
//! * incremental **odometers** (constant amortized work per entry) for the
//!   optimized sequential engine,
//! * **chunk-local odometers** seeded by one mixed-radix decode per chunk
//!   for the parallel engines, and
//! * fully **materialized mapping arrays** for the Element engine, which
//!   reproduces the GPU design of precomputing mapping tables.
//!
//! All three consume precompiled [`plan::KernelPlan`]s: one plan per
//! (source, target) domain pair holds the strides, fiber offsets, and a
//! layout classification selecting blocked fast paths when the mapped
//! variables form a contiguous inner or outer block — compiled once,
//! executed allocation-free.
//!
//! Sequential ops live in [`ops`], parallel ops (driven by a
//! [`fastbn_parallel::ThreadPool`] + [`fastbn_parallel::Schedule`]) in
//! [`ops_par`]. Parallel results are bit-identical to sequential ones: for
//! every output entry, contributions are accumulated in ascending source
//! index order in both paths (the determinism policy in
//! `docs/ARCHITECTURE.md`). Where these operations sit
//! in the full stack is mapped in `docs/ARCHITECTURE.md` at the
//! repository root.

// Every unsafe operation inside an `unsafe fn` must sit in its own
// `unsafe {}` block with a SAFETY comment (enforced by fastbn-analyze
// FB-L1 plus this lint).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod domain;
pub mod index_map;
pub mod ops;
pub mod ops_par;
pub mod plan;
pub mod table;

pub use domain::Domain;
pub use index_map::{embedding_strides, fiber_offsets, Odometer};
pub use plan::{multiply_marginalize, KernelPlan, Layout};
pub use table::PotentialTable;
