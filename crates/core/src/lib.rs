//! # rsg-core — automatic resource specification generation
//!
//! The primary contribution of Huang, Casanova & Chien, *"Automatic
//! Resource Specification Generation for Resource Selection"* (SC 2007):
//! given a DAG-structured workflow, predict the resource-collection
//! size, clock-rate range and scheduling heuristic that minimize the
//! application turn-around time (optionally trading performance for
//! cost), and emit that prediction as a concrete resource specification
//! for vgES (vgDL), Condor (ClassAds) and SWORD (XML) — with degraded
//! alternatives when the optimal request cannot be fulfilled.
//!
//! The pipeline (Figure V-1 / VII-1):
//!
//! ```text
//! DAG characteristics ─┬─> heuristic prediction model ──┐
//!                      └─> RC size prediction model ────┼─> spec generator ─> vgDL / ClassAd / SWORD
//!        utility function ──────────────────────────────┘        │
//!                                                alternative-spec algorithm
//! ```
//!
//! * [`curve`] — turnaround-vs-RC-size curves (the raw phenomenon).
//! * [`knee`] — knee detection with the paper's threshold θ.
//! * [`planefit`] — least-squares fit of `log2(knee) = aα + bβ + c`.
//! * [`observation`] — observation-set driver (Table V-1 grid).
//! * [`sizemodel`] — the size prediction model with bilinear
//!   interpolation across DAG size and CCR, one plane per grid cell and
//!   per threshold.
//! * [`persist`] — TSV (de)serialization of trained models.
//! * [`store`] — crash-safe artifact store: checksummed envelopes,
//!   atomic writes, quarantine, and the sweep checkpoint journal.
//! * [`optsearch`] — the Table V-3 heuristic that derives the *actual*
//!   optimal RC size around a prediction.
//! * [`validate`] — the Table V-5/V-7 validation metrics.
//! * [`utility`] — performance/cost trade-off (Section V.3.2.3).
//! * [`heterogeneity`] — clock-rate-heterogeneity extension (Section V.4).
//! * [`scr`] — scheduler-clock-ratio correction (Section V.7).
//! * [`heurmodel`] — the heuristic prediction model (Chapter VI).
//! * [`specgen`] — the resource specification generator (Chapter VII).
//! * [`mixedspec`] — the mixed-parallel extension (clusters per DAG node).
//! * [`alternative`] — alternative resource specifications (Section VII.4).

#![warn(missing_docs)]

pub mod alternative;
pub mod curve;
pub mod heterogeneity;
pub mod heurmodel;
pub mod knee;
pub mod mixedspec;
pub mod observation;
pub mod optsearch;
pub mod persist;
pub mod planefit;
pub mod push;
pub mod scr;
pub mod sizemodel;
pub mod specgen;
pub mod store;
pub mod utility;
pub mod validate;

pub use alternative::{
    attempt_from_outcome, ladder_violations, negotiate, negotiate_with_retry, Alternative,
    BindAttempt, Degradation, Negotiated, NegotiationStats, RetryPolicy, Unfulfillable,
};
pub use curve::{turnaround_curve, Curve, CurveConfig, CurveEvaluator, RcFamily};
pub use heurmodel::HeuristicPredictionModel;
pub use knee::find_knee;
pub use observation::{
    measure_checkpointed, sweep_fingerprint, CheckpointConfig, KneeTable, ObservationGrid,
};
pub use planefit::PlaneFit;
pub use push::{
    measure_on_platform, AuditReport, BatchOutcome, DeltaJournal, DeltaRecord, PushEngine,
    Staleness,
};
pub use sizemodel::{SizePredictionModel, ThresholdedSizeModel};
pub use specgen::{ResourceSpec, SpecGenerator, SpecViolation};
pub use store::{StoreError, SweepJournal};
pub use utility::UtilityFunction;

/// The paper's default knee threshold: 0.1% (Section V.2.2).
pub const DEFAULT_KNEE_THRESHOLD: f64 = 0.001;

/// The threshold ladder used for the utility trade-off (Section
/// V.3.2.3): 0.1%, 0.5%, 1%, 2%, 5%, 10%.
pub const THRESHOLD_LADDER: [f64; 6] = [0.001, 0.005, 0.01, 0.02, 0.05, 0.10];
