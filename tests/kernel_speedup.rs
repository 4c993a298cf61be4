//! Speedup gates for the sweep fast path and the placement kernel.
//!
//! - The optimized sweep (`observation::measure`) on the fast grid must
//!   be at least 5× faster than the reference sweep (`measure_naive`).
//! - DLS through the placement kernel on a 300-task DAG over 1,000
//!   homogeneous hosts must be at least 10× faster than its naive scan.
//! - The size-batched MCP ladder on fast-grid-shaped DAGs (100–800
//!   tasks, homogeneous RC) must be at least 1.2× faster than one
//!   `evaluate_ladder` call per ladder size.
//!
//! Wall time cannot be gated in the regular test run: a shared or debug
//! build cannot hold these ratios. The test is therefore ignored by
//! default and refuses to run unoptimized. Run it by hand, on an
//! otherwise idle machine, with
//!
//! ```text
//! cargo test --release --test kernel_speedup -- --ignored --nocapture
//! ```
//!
//! That the fast paths compute the same results is checked on every
//! test run: `observation::tests::fast_measure_matches_naive` for the
//! sweep, `fast_kernel_equiv::host_scaling_fast_kernel_matches_naive`
//! for the kernel and `fast_kernel_equiv::mcp_ladder_matches_naive_per_size`
//! for the batched ladder.

use rsg::core::curve::{size_ladder, CurveConfig};
use rsg::core::observation::{measure, measure_naive, ObservationGrid};
use rsg::core::THRESHOLD_LADDER;
use rsg::prelude::*;
use rsg::sched::{evaluate_ladder, ExecutionContext};
use std::hint::black_box;
use std::time::Instant;

/// Refinement rounds of the timed sweeps.
const REFINE_ROUNDS: u32 = 2;

/// Runs of `f` per second: one untimed warm-up, then repeats until at
/// least 3 runs and `min_s` seconds have accumulated.
fn runs_per_second(mut f: impl FnMut(), min_s: f64) -> f64 {
    f();
    let mut runs = 0u32;
    let t0 = Instant::now();
    loop {
        f();
        runs += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if runs >= 3 && elapsed >= min_s {
            return f64::from(runs) / elapsed;
        }
    }
}

#[test]
#[ignore = "timing gate: cargo test --release --test kernel_speedup -- --ignored"]
fn fast_paths_hold_their_speedups() {
    if cfg!(debug_assertions) {
        panic!("the speedup gates only hold for an optimized build; run with --release");
    }

    let grid = ObservationGrid::fast();
    let cfg = CurveConfig::default();
    let t0 = Instant::now();
    let naive = measure_naive(&grid, &cfg, &THRESHOLD_LADDER, REFINE_ROUNDS);
    let naive_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let fast = measure(&grid, &cfg, &THRESHOLD_LADDER, REFINE_ROUNDS);
    let fast_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        fast, naive,
        "the optimized sweep diverged from the reference"
    );
    let sweep_speedup = naive_s / fast_s;
    eprintln!("sweep: naive {naive_s:.2} s, fast {fast_s:.2} s, {sweep_speedup:.2}x");

    let dag = RandomDagSpec {
        size: 300,
        ccr: 0.1,
        parallelism: 0.6,
        density: 0.5,
        regularity: 0.5,
        mean_comp: 20.0,
    }
    .generate(11);
    let rc = ResourceCollection::homogeneous(1000, 1500.0);
    let ctx = ExecutionContext::new(&dag, &rc);
    let fast_per_s = runs_per_second(
        || {
            black_box(HeuristicKind::Dls.run(black_box(&ctx)));
        },
        0.2,
    );
    let naive_per_s = runs_per_second(
        || {
            black_box(HeuristicKind::Dls.run_reference(black_box(&ctx)));
        },
        0.2,
    );
    let dls_speedup = fast_per_s / naive_per_s;
    eprintln!("DLS, 1k hosts: fast {fast_per_s:.1}/s, naive {naive_per_s:.1}/s, {dls_speedup:.1}x");

    // One instance per fast-grid size, each over its own ladder on the
    // sweep's homogeneous RC.
    let dags: Vec<_> = [(100, 0.1, 0.5), (300, 0.5, 0.7), (800, 0.01, 0.9)]
        .iter()
        .enumerate()
        .map(|(i, &(size, ccr, parallelism))| {
            RandomDagSpec {
                size,
                ccr,
                parallelism,
                density: 0.5,
                regularity: 0.5,
                mean_comp: 40.0,
            }
            .generate(i as u64)
        })
        .collect();
    let ladders: Vec<Vec<usize>> = dags
        .iter()
        .map(|d| size_ladder(d.width() as usize))
        .collect();
    let rc = cfg.rc_family.build(800);
    let model = cfg.time_model;
    let batched_per_s = runs_per_second(
        || {
            for (dag, ladder) in dags.iter().zip(&ladders) {
                black_box(evaluate_ladder(
                    dag,
                    &rc,
                    ladder,
                    HeuristicKind::Mcp,
                    &model,
                ));
            }
        },
        0.5,
    );
    let per_size_per_s = runs_per_second(
        || {
            for (dag, ladder) in dags.iter().zip(&ladders) {
                for &size in ladder {
                    black_box(evaluate_ladder(
                        dag,
                        &rc,
                        &[size],
                        HeuristicKind::Mcp,
                        &model,
                    ));
                }
            }
        },
        0.5,
    );
    let ladder_speedup = batched_per_s / per_size_per_s;
    eprintln!(
        "MCP ladders: batched {batched_per_s:.1}/s, per size {per_size_per_s:.1}/s, \
         {ladder_speedup:.2}x"
    );

    assert!(
        sweep_speedup >= 5.0,
        "end-to-end sweep speedup {sweep_speedup:.2}x is below the required 5x"
    );
    assert!(
        dls_speedup >= 10.0,
        "DLS kernel speedup at 1k hosts is {dls_speedup:.1}x, below the required 10x"
    );
    assert!(
        ladder_speedup >= 1.2,
        "batched MCP ladder speedup {ladder_speedup:.2}x is below the required 1.2x"
    );
}
