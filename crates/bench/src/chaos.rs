//! Fault-injected execution and selection hardening (`bench_chaos`).
//!
//! Two sweeps, both fully deterministic (every number derives from
//! simulated time, never wall-clock):
//!
//! 1. **Crash fraction × RC size.** For each crash fraction the knee-size
//!    request (θ = 1%) and a speculative +25% over-provisioned request
//!    are executed under seeded fault plans
//!    ([`rsg_sched::FaultPlanSpec`]) and rescued by the chaos engine
//!    ([`rsg_sched::execute_with_faults`]). The headline is the
//!    *knee-size stretch*: resilient turnaround relative to the
//!    fault-free run at the same size, and whether over-provisioning
//!    buys that stretch back. The zero-fault column doubles as a live
//!    differential check — it must be bit-identical to the plain
//!    simulator replay or the run panics.
//!
//! 2. **Selector flakiness × retrying negotiator.** A hand-built
//!    resource spec and its degradation ladder
//!    ([`rsg_core::alternative::alternatives`]) are bound against a
//!    vgES finder wrapped in the flaky injector
//!    ([`rsg_select::FlakySelector`]), driven by the retrying
//!    negotiator ([`rsg_core::negotiate_with_retry`]). Per-rate
//!    attempt/backoff/rung statistics are tabulated, followed by the
//!    `core.negotiate.*` counters `rsg-obs` recorded during the
//!    negotiation loop (deltas, so the output does not depend on what
//!    ran before in the same process).

use crate::experiments::Scale;
use crate::report::{secs, Table};
use rsg_core::alternative::{alternatives, attempt_from_outcome, negotiate_with_retry};
use rsg_core::curve::CurveConfig;
use rsg_core::specgen::ResourceSpec;
use rsg_core::{find_knee, turnaround_curve, RetryPolicy, SpecGenerator};
use rsg_dag::{Dag, RandomDagSpec};
use rsg_obs::RunReport;
use rsg_platform::{Platform, ResourceGenSpec, TopologySpec};
use rsg_sched::{
    evaluate_with_schedule, execute_with_faults, replay, resilient_turnaround, ExecutionContext,
    FaultPlanSpec, Perturbation, SchedTimeModel,
};
use rsg_select::vgdl::AggregateKind;
use rsg_select::{FlakyConfig, FlakySelector, VgesFinder};

/// Knee threshold of the chaos sweep: 1%.
const KNEE_THETA: f64 = 0.01;

/// Speculative over-provisioning factor compared against the knee.
const OVERPROVISION: f64 = 1.25;

/// Negotiations run per flakiness rate.
const NEGOTIATIONS_PER_RATE: usize = 20;

/// The negotiation counters reported after the negotiator table.
const NEGOTIATE_COUNTERS: [&str; 6] = [
    "core.negotiate.attempts.original",
    "core.negotiate.attempts.slower_clock",
    "core.negotiate.attempts.wider_het",
    "core.negotiate.attempts.smaller_size",
    "core.negotiate.bound",
    "core.negotiate.unfulfillable",
];

/// One (crash fraction, RC size) cell of the chaos sweep, averaged over
/// the DAG instances.
struct ChaosCell {
    mean_turnaround_s: f64,
    mean_resilient_s: f64,
    tasks_lost: u64,
    tasks_rescued: u64,
}

/// Aggregated negotiator behaviour at one flakiness rate.
struct NegotiatorCell {
    rate: f64,
    bound: usize,
    unfulfillable: usize,
    mean_attempts: f64,
    mean_rung: f64,
    mean_backoff_s: f64,
    mean_elapsed_s: f64,
}

fn instances(scale: Scale) -> Vec<Dag> {
    let (count, size) = scale.pick((3, 50), (5, 80));
    (0..count)
        .map(|seed| {
            RandomDagSpec {
                size,
                ccr: 0.4,
                parallelism: 0.6,
                density: 0.5,
                regularity: 0.5,
                mean_comp: 10.0,
            }
            .generate(seed)
        })
        .collect()
}

/// Runs every DAG at `size` hosts under a fault plan drawn for
/// `crash_fraction` and returns the averaged cell. Zero-fault cells are
/// asserted bit-identical to the plain replay.
fn chaos_cell(dags: &[Dag], cfg: &CurveConfig, size: usize, crash_fraction: f64) -> ChaosCell {
    let rc = cfg.rc_family.build(size);
    let model = SchedTimeModel::default();
    let mut cell = ChaosCell {
        mean_turnaround_s: 0.0,
        mean_resilient_s: 0.0,
        tasks_lost: 0,
        tasks_rescued: 0,
    };
    for (di, dag) in dags.iter().enumerate() {
        let (report, schedule) = evaluate_with_schedule(dag, &rc, cfg.heuristic, &model);
        let plan = FaultPlanSpec {
            seed: (di as u64).wrapping_mul(7919) ^ (crash_fraction * 1000.0) as u64,
            crash_fraction,
            outage_fraction: crash_fraction * 0.5,
            joins: usize::from(crash_fraction > 0.0),
            horizon_s: (report.makespan_s * 0.9).max(1.0),
            ..Default::default()
        }
        .generate(rc.len());
        let out = execute_with_faults(dag, &rc, &schedule, &plan, &Perturbation::none())
            .expect("the home node survives every generated plan");
        // Completeness: the rescue rescheduler must finish every task.
        for i in 0..dag.len() {
            assert!(
                out.start[i].is_finite() && out.finish[i] >= out.start[i],
                "task {i} lost under crash fraction {crash_fraction} at size {size}"
            );
        }
        if crash_fraction == 0.0 {
            // Live differential check: zero faults ⇒ bit-identical to
            // the plain simulator replay.
            let ctx = ExecutionContext::new(dag, &rc);
            let r = replay(&ctx, &schedule, &Perturbation::none());
            assert_eq!(
                out.makespan.to_bits(),
                r.makespan.to_bits(),
                "zero-fault chaos diverged from replay at size {size}"
            );
            for i in 0..dag.len() {
                assert_eq!(out.start[i].to_bits(), r.start[i].to_bits());
                assert_eq!(out.finish[i].to_bits(), r.finish[i].to_bits());
            }
        }
        let res = resilient_turnaround(&report, &out, &model);
        cell.mean_turnaround_s += report.turnaround_s();
        cell.mean_resilient_s += res.resilient_turnaround_s();
        cell.tasks_lost += res.stats.tasks_lost;
        cell.tasks_rescued += res.stats.tasks_rescued;
    }
    let n = dags.len() as f64;
    cell.mean_turnaround_s /= n;
    cell.mean_resilient_s /= n;
    cell
}

/// Runs [`NEGOTIATIONS_PER_RATE`] negotiations at one flakiness rate
/// over distinct flaky-selector seeds and aggregates the outcome.
fn negotiator_cell(
    ladder: &[rsg_core::Alternative],
    platform: &Platform,
    policy: &RetryPolicy,
    rate: f64,
) -> NegotiatorCell {
    let finder = VgesFinder::default();
    let mut cell = NegotiatorCell {
        rate,
        bound: 0,
        unfulfillable: 0,
        mean_attempts: 0.0,
        mean_rung: 0.0,
        mean_backoff_s: 0.0,
        mean_elapsed_s: 0.0,
    };
    for run in 0..NEGOTIATIONS_PER_RATE {
        let cfg = FlakyConfig::from_seed_rate(0xC0FFEE ^ run as u64, rate);
        let mut flaky = FlakySelector::new(cfg).expect("valid flaky config");
        let result = negotiate_with_retry(ladder, policy, |spec| {
            let vg = SpecGenerator::to_vgdl(spec);
            attempt_from_outcome(flaky.select(|| finder.find(platform, &vg)), spec.min_size)
        });
        let stats = match &result {
            Ok(n) => {
                cell.bound += 1;
                cell.mean_rung += n.rung as f64;
                &n.stats
            }
            Err(u) => {
                cell.unfulfillable += 1;
                &u.stats
            }
        };
        cell.mean_attempts += stats.attempts as f64;
        cell.mean_backoff_s += stats.backoff_total_s;
        cell.mean_elapsed_s += stats.elapsed_s;
        if rate == 0.0 {
            let n = result.as_ref().expect("healthy selector must bind");
            assert_eq!(n.rung, 0, "healthy selector must bind the original spec");
            assert_eq!(n.stats.attempts, 1, "healthy bind must take one ask");
        }
    }
    let n = NEGOTIATIONS_PER_RATE as f64;
    cell.mean_attempts /= n;
    cell.mean_backoff_s /= n;
    cell.mean_elapsed_s /= n;
    if cell.bound > 0 {
        cell.mean_rung /= cell.bound as f64;
    }
    cell
}

/// The chaos sweep and the negotiator sweep, as two tables and the
/// negotiation counters.
pub fn bench_chaos(scale: Scale) -> String {
    let dags = instances(scale);
    let cfg = CurveConfig::default();

    eprintln!(
        "bench_chaos: {} instances of {} tasks, θ = {KNEE_THETA}",
        dags.len(),
        dags[0].len()
    );
    let curve = turnaround_curve(&dags, &cfg);
    let knee = find_knee(&curve, KNEE_THETA);
    let over = ((knee as f64 * OVERPROVISION).ceil() as usize).max(knee + 1);
    eprintln!("bench_chaos: knee size {knee}, over-provisioned size {over}");

    let mut chaos_table = Table::new(vec![
        "crash frac",
        "size (role)",
        "turnaround",
        "resilient",
        "stretch",
        "lost",
        "rescued",
    ]);
    for &f in scale.pick(&[0.0, 0.2][..], &[0.0, 0.1, 0.2, 0.3, 0.4][..]) {
        eprintln!("bench_chaos: crash fraction {:.0}%...", f * 100.0);
        for (size, role) in [(knee, "knee"), (over, "over")] {
            let c = chaos_cell(&dags, &cfg, size, f);
            chaos_table.row(vec![
                format!("{:.0}%", f * 100.0),
                format!("{size} ({role})"),
                secs(c.mean_turnaround_s),
                secs(c.mean_resilient_s),
                format!("{:.3}x", c.mean_resilient_s / c.mean_turnaround_s),
                c.tasks_lost.to_string(),
                c.tasks_rescued.to_string(),
            ]);
        }
    }
    let mut out =
        chaos_table.render("Chaos sweep: crash fraction x RC size (knee vs +25% over-provisioned)");

    // --- Negotiator sweep -------------------------------------------------
    eprintln!("bench_chaos: building degradation ladder...");
    let platform = Platform::generate(
        ResourceGenSpec {
            clusters: 40,
            year: 2006,
            target_hosts: Some(1200),
        },
        TopologySpec::default(),
        11,
    );
    let original = ResourceSpec {
        rc_size: knee as u32,
        min_size: ((knee / 2).max(1)) as u32,
        clock_mhz: (1200.0, 3500.0),
        heuristic: cfg.heuristic,
        aggregate: AggregateKind::LooseBagOf,
        threshold: KNEE_THETA,
        memory_mb: 512,
    };
    let ladder = alternatives(&original, &dags, &[3000.0, 2500.0, 2000.0], &cfg);
    eprintln!("bench_chaos: ladder has {} rungs", ladder.len());

    // A 20 s attempt deadline sits below the injector's 30 s latency
    // spikes, so a spiked reply counts as a transient timeout rather
    // than a slow success — the sweep then exercises the backoff and
    // ladder-descent paths, not just the happy path.
    let policy = RetryPolicy {
        attempt_deadline_s: 20.0,
        ..RetryPolicy::default()
    };
    let before = RunReport::capture();
    rsg_obs::enable(true);
    let negotiator: Vec<NegotiatorCell> = scale
        .pick(&[0.0, 0.35][..], &[0.0, 0.2, 0.4, 0.6][..])
        .iter()
        .map(|&rate| {
            eprintln!("bench_chaos: negotiating at flakiness rate {rate}...");
            negotiator_cell(&ladder, &platform, &policy, rate)
        })
        .collect();
    let after = RunReport::capture();
    rsg_obs::enable(false);

    let mut neg_table = Table::new(vec![
        "flaky rate",
        "bound",
        "unfulfillable",
        "mean attempts",
        "mean rung",
        "mean backoff",
        "mean elapsed",
    ]);
    for c in &negotiator {
        neg_table.row(vec![
            format!("{:.0}%", c.rate * 100.0),
            format!("{}/{NEGOTIATIONS_PER_RATE}", c.bound),
            c.unfulfillable.to_string(),
            format!("{:.2}", c.mean_attempts),
            format!("{:.2}", c.mean_rung),
            secs(c.mean_backoff_s),
            secs(c.mean_elapsed_s),
        ]);
    }
    out += &neg_table.render("Retrying negotiator vs flaky selector (20 negotiations per rate)");

    let mut counters = Table::new(vec!["counter", "count"]);
    for name in NEGOTIATE_COUNTERS {
        let delta = after.counter(name) - before.counter(name);
        counters.row(vec![name.to_string(), delta.to_string()]);
    }
    let backoffs = |r: &RunReport| r.histogram("core.negotiate.backoff").map_or(0, |h| h.count);
    counters.row(vec![
        "core.negotiate.backoff (records)".to_string(),
        (backoffs(&after) - backoffs(&before)).to_string(),
    ]);
    out += &counters.render("rsg-obs negotiation counters over the negotiator sweep");
    out
}
