//! Application turn-around time accounting (Section III.2.3): the sum of
//! the scheduling-heuristic execution time and the application makespan,
//! plus — when explicit resource selection is used — the time spent by
//! the resource-selection system.
//!
//! Turnaround-vs-size sweeps evaluate one DAG at every size of a ladder
//! on prefixes of one RC ([`evaluate_ladder`]). MCP under uniform
//! connectivity schedules all of a ladder's sizes in one pass (the
//! crate's `McpLadder`); every other heuristic, and MCP under
//! non-uniform connectivity, evaluates size by size. Either way each
//! size's report is the one [`evaluate_prefix`] gives at that size, and
//! the work counters (`sched.schedules_evaluated`, `sched.placements`,
//! the placement-kernel counters) count one schedule per size.

use crate::chaos::ChaosOutcome;
use crate::context::ExecutionContext;
use crate::heuristics::{HeuristicKind, McpLadder};
use crate::schedule::Schedule;
use crate::timemodel::{OpCount, SchedTimeModel};
use rsg_dag::Dag;
use rsg_obs::{Counter, TimingHistogram};
use rsg_platform::{CommModel, ResourceCollection};
use std::time::Instant;

/// Recovery wall-clock charged per chaos run (modeled rescue time).
static OBS_RECOVERY_WALL: TimingHistogram = TimingHistogram::new("sched.chaos.recovery_wall");

/// Schedules produced through the optimized evaluation paths.
static OBS_SCHEDULES: Counter = Counter::new("sched.schedules_evaluated");
/// Task placements performed (one per task per schedule).
static OBS_PLACEMENTS: Counter = Counter::new("sched.placements");
/// Schedules produced through the reference implementations.
static OBS_SCHEDULES_REF: Counter = Counter::new("sched.schedules_reference");

/// The per-heuristic wall-clock histogram (one `static` per
/// [`HeuristicKind`], so the hot path stays allocation- and lock-free).
fn heuristic_wall(kind: HeuristicKind) -> &'static TimingHistogram {
    static MCP: TimingHistogram = TimingHistogram::new("sched.wall.mcp");
    static GREEDY: TimingHistogram = TimingHistogram::new("sched.wall.greedy");
    static DLS: TimingHistogram = TimingHistogram::new("sched.wall.dls");
    static FCA: TimingHistogram = TimingHistogram::new("sched.wall.fca");
    static FCFS: TimingHistogram = TimingHistogram::new("sched.wall.fcfs");
    match kind {
        HeuristicKind::Mcp => &MCP,
        HeuristicKind::Greedy => &GREEDY,
        HeuristicKind::Dls => &DLS,
        HeuristicKind::Fca => &FCA,
        HeuristicKind::Fcfs => &FCFS,
    }
}

/// Everything measured for one (DAG, RC, heuristic) evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TurnaroundReport {
    /// Heuristic evaluated.
    pub heuristic: HeuristicKind,
    /// RC size used.
    pub rc_size: usize,
    /// Modeled scheduling time, seconds (op-count model).
    pub sched_time_s: f64,
    /// Application makespan, seconds.
    pub makespan_s: f64,
    /// Resource-selection time, seconds (0 for implicit selection).
    pub selection_time_s: f64,
    /// Wall-clock actually spent running the heuristic here, seconds.
    pub wallclock_s: f64,
    /// Raw operation count.
    pub ops: OpCount,
}

impl TurnaroundReport {
    /// The figure of merit: scheduling time + makespan + selection time.
    pub fn turnaround_s(&self) -> f64 {
        self.sched_time_s + self.makespan_s + self.selection_time_s
    }
}

/// Turn-around accounting under faults: the fault-free report plus the
/// chaos-replayed makespan and the modeled cost of the rescue
/// rescheduler's re-ranking work.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// The fault-free evaluation this run degrades from.
    pub baseline: TurnaroundReport,
    /// Makespan of the fault-injected, rescued timeline, seconds.
    pub chaos_makespan_s: f64,
    /// Modeled time spent re-ranking orphans onto survivors, seconds
    /// (rescue ops through the same [`SchedTimeModel`] as scheduling).
    pub rescue_time_s: f64,
    /// Partial execution discarded when in-flight tasks were killed,
    /// seconds.
    pub work_lost_s: f64,
    /// Fault/recovery counters of the run.
    pub stats: crate::chaos::ChaosStats,
}

impl ResilienceReport {
    /// The robustness figure of merit:
    /// `selection + scheduling + chaos makespan + rescue time`.
    pub fn resilient_turnaround_s(&self) -> f64 {
        self.baseline.sched_time_s
            + self.baseline.selection_time_s
            + self.chaos_makespan_s
            + self.rescue_time_s
    }

    /// Recovery overhead: how much the faults cost beyond the
    /// fault-free turnaround (makespan growth + rescue ranking time).
    /// Exactly zero for a zero-fault run.
    pub fn recovery_overhead_s(&self) -> f64 {
        self.chaos_makespan_s - self.baseline.makespan_s + self.rescue_time_s
    }
}

/// Combines a fault-free [`TurnaroundReport`] with a
/// [`ChaosOutcome`] into the resilient turn-around accounting, pricing
/// the rescue rescheduler's ranking work through `model` and recording
/// the recovery wall in the `sched.chaos.recovery_wall` histogram.
pub fn resilient_turnaround(
    baseline: &TurnaroundReport,
    outcome: &ChaosOutcome,
    model: &SchedTimeModel,
) -> ResilienceReport {
    let rescue_time_s = model.seconds(OpCount(outcome.stats.rescue_ops));
    let report = ResilienceReport {
        baseline: baseline.clone(),
        chaos_makespan_s: outcome.makespan,
        rescue_time_s,
        work_lost_s: outcome.work_lost_s,
        stats: outcome.stats,
    };
    if rsg_obs::enabled() {
        OBS_RECOVERY_WALL.record_secs(report.recovery_overhead_s().max(0.0));
    }
    report
}

/// Runs `heuristic` on `(dag, rc)` and assembles the report. The
/// schedule itself is discarded; use [`evaluate_with_schedule`] to keep
/// it.
pub fn evaluate(
    dag: &Dag,
    rc: &ResourceCollection,
    heuristic: HeuristicKind,
    model: &SchedTimeModel,
) -> TurnaroundReport {
    evaluate_with_schedule(dag, rc, heuristic, model).0
}

/// Evaluates `heuristic` on the first `size` hosts of `rc` — equivalent
/// to `evaluate(dag, &rc.prefix(size), …)` but without materializing
/// the prefix RC. The workhorse of turnaround-vs-size sweeps: one
/// max-size RC is built per host family and every size borrows a prefix
/// view of it.
pub fn evaluate_prefix(
    dag: &Dag,
    rc: &ResourceCollection,
    size: usize,
    heuristic: HeuristicKind,
    model: &SchedTimeModel,
) -> TurnaroundReport {
    let ctx = ExecutionContext::with_host_limit(dag, rc, size);
    evaluate_ctx(&ctx, heuristic, model).0
}

/// [`evaluate_prefix`] at every size of `sizes` (any order, repeats
/// allowed), one report per size in the order given. MCP under uniform
/// connectivity schedules every size in one pass (`McpLadder`); each
/// report's `wallclock_s` is then an equal share of that pass.
pub fn evaluate_ladder(
    dag: &Dag,
    rc: &ResourceCollection,
    sizes: &[usize],
    heuristic: HeuristicKind,
    model: &SchedTimeModel,
) -> Vec<TurnaroundReport> {
    if heuristic != HeuristicKind::Mcp || *rc.comm_model() != CommModel::Uniform || sizes.is_empty()
    {
        return sizes
            .iter()
            .map(|&s| evaluate_prefix(dag, rc, s, heuristic, model))
            .collect();
    }
    let ctxs: Vec<ExecutionContext<'_>> = sizes
        .iter()
        .map(|&s| ExecutionContext::with_host_limit(dag, rc, s))
        .collect();
    let t0 = Instant::now();
    let ladder = McpLadder::schedule(&ctxs);
    let wallclock_s = t0.elapsed().as_secs_f64() / sizes.len() as f64;
    ctxs.iter()
        .enumerate()
        .map(|(s, ctx)| {
            debug_assert!(
                ladder.schedule_at(s).validate(ctx).is_ok(),
                "MCP ladder produced an invalid schedule"
            );
            report(
                ctx,
                heuristic,
                ladder.ops[s],
                ladder.makespan(s),
                wallclock_s,
                model,
            )
        })
        .collect()
}

/// Like [`evaluate`] but also returns the schedule.
pub fn evaluate_with_schedule(
    dag: &Dag,
    rc: &ResourceCollection,
    heuristic: HeuristicKind,
    model: &SchedTimeModel,
) -> (TurnaroundReport, Schedule) {
    let ctx = ExecutionContext::new(dag, rc);
    evaluate_ctx(&ctx, heuristic, model)
}

/// Like [`evaluate`], but through the reference (fast-kernel-free)
/// heuristic implementations — the before-optimization baseline of the
/// sweep benchmark. The report is identical except for `wallclock_s`.
pub fn evaluate_reference(
    dag: &Dag,
    rc: &ResourceCollection,
    heuristic: HeuristicKind,
    model: &SchedTimeModel,
) -> TurnaroundReport {
    let ctx = ExecutionContext::new(dag, rc);
    let t0 = Instant::now();
    let (sched, ops) = heuristic.run_reference(&ctx);
    let wallclock_s = t0.elapsed().as_secs_f64();
    OBS_SCHEDULES_REF.incr();
    heuristic_wall(heuristic).record_secs(wallclock_s);
    TurnaroundReport {
        heuristic,
        rc_size: ctx.hosts(),
        sched_time_s: model.seconds(ops),
        makespan_s: sched.makespan(),
        selection_time_s: 0.0,
        wallclock_s,
        ops,
    }
}

fn evaluate_ctx(
    ctx: &ExecutionContext<'_>,
    heuristic: HeuristicKind,
    model: &SchedTimeModel,
) -> (TurnaroundReport, Schedule) {
    let t0 = Instant::now();
    let (sched, ops) = heuristic.run(ctx);
    let wallclock_s = t0.elapsed().as_secs_f64();
    debug_assert!(
        sched.validate(ctx).is_ok(),
        "heuristic produced invalid schedule"
    );
    let report = report(ctx, heuristic, ops, sched.makespan(), wallclock_s, model);
    (report, sched)
}

/// Counts one schedule of `ctx` and assembles its report.
fn report(
    ctx: &ExecutionContext<'_>,
    heuristic: HeuristicKind,
    ops: OpCount,
    makespan_s: f64,
    wallclock_s: f64,
    model: &SchedTimeModel,
) -> TurnaroundReport {
    OBS_SCHEDULES.incr();
    OBS_PLACEMENTS.add(ctx.dag.len() as u64);
    heuristic_wall(heuristic).record_secs(wallclock_s);
    TurnaroundReport {
        heuristic,
        rc_size: ctx.hosts(),
        sched_time_s: model.seconds(ops),
        makespan_s,
        selection_time_s: 0.0,
        wallclock_s,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_dag::RandomDagSpec;

    #[test]
    fn turnaround_sums_components() {
        let r = TurnaroundReport {
            heuristic: HeuristicKind::Mcp,
            rc_size: 4,
            sched_time_s: 1.5,
            makespan_s: 10.0,
            selection_time_s: 0.5,
            wallclock_s: 0.0,
            ops: OpCount(100),
        };
        assert!((r.turnaround_s() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn evaluate_reports_consistent_numbers() {
        let dag = RandomDagSpec {
            size: 100,
            ccr: 0.5,
            parallelism: 0.6,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(1);
        let rc = ResourceCollection::homogeneous(8, 1500.0);
        let model = SchedTimeModel::default();
        let (r, s) = evaluate_with_schedule(&dag, &rc, HeuristicKind::Mcp, &model);
        assert_eq!(r.rc_size, 8);
        assert!((r.makespan_s - s.makespan()).abs() < 1e-12);
        assert!(r.sched_time_s > 0.0);
        assert_eq!(r.sched_time_s, model.seconds(r.ops));
    }

    #[test]
    fn resilient_turnaround_prices_recovery() {
        let dag = RandomDagSpec {
            size: 60,
            ccr: 0.4,
            parallelism: 0.6,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(5);
        let rc = ResourceCollection::heterogeneous(6, 3000.0, 0.3, 5);
        let model = SchedTimeModel::default();
        let (baseline, sched) = evaluate_with_schedule(&dag, &rc, HeuristicKind::Mcp, &model);

        // Zero-fault chaos run: overhead is exactly zero and the
        // resilient turnaround equals the plain turnaround.
        let clean = crate::chaos::execute_with_faults(
            &dag,
            &rc,
            &sched,
            &crate::fault::FaultPlan::empty(),
            &crate::simulator::Perturbation::none(),
        )
        .unwrap();
        let r0 = resilient_turnaround(&baseline, &clean, &model);
        assert_eq!(r0.rescue_time_s, 0.0);
        assert_eq!(r0.recovery_overhead_s(), 0.0);
        assert_eq!(r0.resilient_turnaround_s(), baseline.turnaround_s());

        // A crash makes recovery cost strictly positive.
        let plan = crate::fault::FaultPlan::new(vec![crate::fault::FaultEvent::Crash {
            host: sched.host[0] as usize,
            at_s: sched.makespan() * 0.25,
        }])
        .unwrap();
        let hit = crate::chaos::execute_with_faults(
            &dag,
            &rc,
            &sched,
            &plan,
            &crate::simulator::Perturbation::none(),
        )
        .unwrap();
        let r1 = resilient_turnaround(&baseline, &hit, &model);
        assert!(r1.rescue_time_s > 0.0);
        assert!(r1.resilient_turnaround_s() > baseline.turnaround_s());
    }

    #[test]
    fn prefix_evaluation_matches_materialized_prefix() {
        let dag = RandomDagSpec {
            size: 120,
            ccr: 0.5,
            parallelism: 0.6,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(3);
        let model = SchedTimeModel::default();
        let rc = ResourceCollection::heterogeneous(64, 3000.0, 0.3, 9)
            .with_bandwidth_heterogeneity(0.4, 13);
        for kind in HeuristicKind::all() {
            for size in [1usize, 5, 23, 64] {
                let via_prefix = evaluate_prefix(&dag, &rc, size, kind, &model);
                let materialized = evaluate(&dag, &rc.prefix(size), kind, &model);
                assert_eq!(via_prefix.rc_size, materialized.rc_size);
                assert_eq!(via_prefix.ops, materialized.ops, "{kind} P={size}");
                assert_eq!(
                    via_prefix.makespan_s, materialized.makespan_s,
                    "{kind} P={size}"
                );
                assert_eq!(via_prefix.sched_time_s, materialized.sched_time_s);
            }
        }
    }

    #[test]
    fn bigger_rc_costs_more_scheduling_for_mcp() {
        let dag = RandomDagSpec {
            size: 200,
            ccr: 0.1,
            parallelism: 0.7,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(2);
        let model = SchedTimeModel::default();
        let small = evaluate(
            &dag,
            &ResourceCollection::homogeneous(10, 1500.0),
            HeuristicKind::Mcp,
            &model,
        );
        let big = evaluate(
            &dag,
            &ResourceCollection::homogeneous(200, 1500.0),
            HeuristicKind::Mcp,
            &model,
        );
        assert!(big.sched_time_s > small.sched_time_s * 5.0);
        // ... while the makespan should not get worse.
        assert!(big.makespan_s <= small.makespan_s + 1e-9);
    }
}
