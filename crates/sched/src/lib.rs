//! # rsg-sched — DAG scheduling heuristics and turn-around accounting
//!
//! Implements the application-scheduling layer of the paper (Sections
//! III.3, IV.2.3, V.6): list-scheduling heuristics that map DAG tasks
//! onto a [`ResourceCollection`](rsg_platform::ResourceCollection),
//! producing a [`Schedule`] whose makespan — combined with a model of
//! the *scheduling time* itself — yields the paper's figure of merit,
//! the **application turn-around time**:
//!
//! ```text
//! turnaround = scheduling time + makespan (+ resource-selection time)
//! ```
//!
//! Heuristics (Figures IV-2/IV-3, V-12…V-15):
//!
//! * [`Mcp`](heuristics::Mcp) — Modified Critical Path, the reference
//!   "complex" heuristic: ALAP-ordered tasks, each placed on the host
//!   that finishes it soonest.
//! * [`Greedy`](heuristics::Greedy) — the "simple" heuristic: ready
//!   tasks FIFO, earliest-available host, no communication awareness.
//! * [`Dls`](heuristics::Dls) — Dynamic Level Scheduling (Sih & Lee),
//!   the most expensive heuristic: global (task, host) dynamic-level
//!   maximization.
//! * [`Fca`](heuristics::Fca) — fastest-clock assignment (reconstructed
//!   from the dissertation's description; see DESIGN.md): critical-path
//!   priority, fastest available host, communication ignored.
//! * [`Fcfs`](heuristics::Fcfs) — first-come-first-serve on the earliest
//!   available host.
//!
//! Scheduling time is modeled deterministically by counting each
//! heuristic's elementary operations and converting them to seconds at a
//! reference scheduler clock of 2.80 GHz ([`SchedTimeModel`]), exactly
//! the knob the paper turns in its SCR study (Section V.7). Measured
//! wall-clock is also recorded.
//!
//! The [`fault`] and [`chaos`] modules add the robustness layer: seeded
//! host-churn plans (crashes, outages, joins) injected into the replay
//! engine, with a rescue rescheduler that re-places lost work on
//! survivors and reports a *resilient* turn-around time
//! ([`turnaround::resilient_turnaround`]).

#![warn(missing_docs)]

pub mod bounds;
pub mod chaos;
pub mod context;
pub mod fault;
pub mod heuristics;
pub mod schedule;
pub mod simulator;
pub mod timemodel;
pub mod turnaround;

pub use bounds::makespan_lower_bound;
pub use chaos::{execute_with_faults, ChaosError, ChaosOutcome, ChaosStats};
pub use context::ExecutionContext;
pub use fault::{FaultError, FaultEvent, FaultPlan, FaultPlanSpec};
pub use heuristics::{Heuristic, HeuristicKind};
pub use schedule::{Schedule, ScheduleError};
pub use simulator::{makespan_stretch, replay, try_replay, Perturbation, PerturbationError};
pub use timemodel::{OpCount, SchedTimeModel};
pub use turnaround::{
    evaluate, evaluate_ladder, evaluate_prefix, evaluate_reference, evaluate_with_schedule,
    resilient_turnaround, ResilienceReport, TurnaroundReport,
};

/// Reference scheduler clock (MHz): the paper runs heuristics on
/// 2.80 GHz Intel Xeon machines (Section III.4.2).
pub const SCHEDULER_CLOCK_MHZ: f64 = 2800.0;
