//! # rsg-platform — synthetic large-scale distributed environments
//!
//! The paper runs entirely in simulation over synthetic resources
//! (Section III.4.1): a compute-resource generator in the style of Kee,
//! Casanova & Chien instantiates a multi-cluster resource universe that
//! is representative of deployed technology (1000 clusters / 33,667
//! hosts in Chapter IV), and a BRITE-style topology generator provides
//! network connectivity between the clusters. This crate re-implements
//! both substrates plus the *resource collection* (RC) abstraction the
//! prediction models reason about, and the EC2-style resource cost model
//! of Section V.3.2.1.
//!
//! * [`generator`] — the Kee-style synthetic compute-resource generator
//!   (cluster counts, sizes, clock-rate distributions, technology-year
//!   trend).
//! * [`topology`] — Waxman / Barabási–Albert / hierarchical topology
//!   generation with link capacity classes, plus pairwise bottleneck
//!   bandwidth and latency.
//! * [`platform`] — the merged [`Platform`]: clusters
//!   mapped onto topology nodes.
//! * [`rc`] — [`ResourceCollection`]: the host
//!   set handed to a scheduling heuristic, with controlled clock-rate and
//!   bandwidth heterogeneity.
//! * [`cost`] — the Amazon-EC2-derived cost model ($0.10/hour per
//!   1.7 GHz instance, clock-scaled).
//! * [`delta`] — live platform change records
//!   ([`PlatformDelta`]): host join/leave, clock and
//!   bandwidth drift, price changes, with validation, transactional
//!   apply and the [`DeltaSequencer`](delta::DeltaSequencer) that
//!   orders a delta stream for the push engine and the audit alike.

#![warn(missing_docs)]

pub mod cluster;
pub mod cost;
pub mod delta;
pub mod file;
pub mod generator;
pub mod platform;
pub mod rc;
pub mod topology;

pub use cluster::{Arch, Cluster, ClusterId};
pub use cost::CostModel;
pub use delta::{DeltaError, PlatformDelta};
pub use file::{PlatformFile, PlatformFileError};
pub use generator::ResourceGenSpec;
pub use platform::Platform;
pub use rc::{ClockClasses, CommModel, ResourceCollection};
pub use topology::{Topology, TopologySpec};

/// Reference bandwidth (bits/s) all communication costs are expressed
/// against — 10 Gbps (Section III.1.1).
pub const REFERENCE_BANDWIDTH_BPS: f64 = 10e9;
