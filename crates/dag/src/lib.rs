//! # rsg-dag — DAG application model for LSDE workflow scheduling
//!
//! This crate implements the application model of Huang, Casanova & Chien,
//! *"Automatic Resource Specification Generation for Resource Selection"*
//! (SC 2007; dissertation Chapter III.1): a workflow application is a
//! weighted directed acyclic graph whose nodes are indivisible tasks (with
//! computational cost in seconds on a reference CPU) and whose edges carry
//! the cost of transferring intermediate files (in seconds at a reference
//! bandwidth of 10 Gbps).
//!
//! The crate provides:
//!
//! * [`Dag`] / [`DagBuilder`] — the immutable task-graph representation
//!   with levels, width, height and topological order computed at build
//!   time (module [`graph`]).
//! * [`DagStats`] — the six DAG characteristics the paper's prediction
//!   models are built on: size *n*, communication-to-computation ratio
//!   (CCR), parallelism α, density δ, regularity β and mean computational
//!   cost ω (module [`stats`]).
//! * [`RandomDagSpec`] — the random DAG generator parameterized by those
//!   characteristics, used for the observation and validation sets of
//!   Chapters IV–VI (module [`random`]).
//! * [`montage`] — the Montage astronomy workflow instances (1629 and
//!   4469 tasks) with the task performance models of Table IV-2.
//! * [`workflows`] — auxiliary real-application shapes (SCEC-style chain
//!   bundles, EMAN-style bags, fork/join pipelines).
//! * [`critical`] — critical-path machinery (top/bottom levels, ALAP)
//!   shared by the scheduling heuristics.

#![warn(missing_docs)]

pub mod critical;
pub mod graph;
pub mod io;
pub mod mixed;
pub mod montage;
pub mod random;
pub mod stats;
pub mod workflows;

pub use critical::CriticalPathInfo;
pub use graph::{Dag, DagBuilder, DagCheck, DagError, Edge, RawDag, TaskId};
pub use mixed::{MixedDag, ParallelProfile};
pub use random::RandomDagSpec;
pub use stats::DagStats;

/// Reference CPU clock rate (MHz) on which task computational costs are
/// expressed throughout the paper's Chapter IV/V workloads (1.5 GHz host,
/// Table IV-2).
pub const REFERENCE_CLOCK_MHZ: f64 = 1500.0;

/// Reference network bandwidth (bits per second) used to convert file
/// sizes into edge costs in seconds (Section III.1.1: 10 Gbps, the upper
/// bound achievable on e.g. the TeraGrid).
pub const REFERENCE_BANDWIDTH_BPS: f64 = 10e9;
