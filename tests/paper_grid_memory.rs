//! The paper's own observation grid (Table V-1), restricted to DAG
//! sizes up to 1,000 tasks (756 cells × 10 instances), runs to
//! completion within a stated memory bound: the sweep streams its cells
//! in waves and holds only one wave's DAGs at a time.
//!
//! It takes about 15 s optimized on 2 cores and far longer
//! unoptimized, so the test is ignored by default and refuses to run
//! unoptimized. It is the only test in its
//! binary, so the process's peak resident set (`VmHWM` in
//! `/proc/self/status`, Linux only) is this sweep's alone. Run it with
//!
//! ```text
//! cargo test --release --test paper_grid_memory -- --ignored --nocapture
//! ```

use rsg::core::curve::CurveConfig;
use rsg::core::observation::{measure, ObservationGrid};
use rsg::core::THRESHOLD_LADDER;

/// Peak-RSS bound: a fixed base (binary, allocator, the grid-wide RC and
/// tables) plus an allowance per worker thread. A wave holds four cells
/// per thread, and a cell holds 10 DAGs of up to 1,000 tasks and about
/// 125k edges (3–4 MiB each), so one thread's share of a wave is about
/// 120 MiB at the grid's densest cells. Materializing the whole grid
/// instead would hold all 7,560 DAGs.
const BASE_MIB: u64 = 64;
const PER_THREAD_MIB: u64 = 160;

/// The process's peak resident set, in MiB.
fn peak_rss_mib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status (Linux)");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a VmHWM line in kB");
    kib / 1024
}

#[test]
#[ignore = "slow: cargo test --release --test paper_grid_memory -- --ignored"]
fn paper_grid_to_1000_tasks_streams_within_a_memory_bound() {
    if cfg!(debug_assertions) {
        panic!("the paper grid takes minutes unoptimized; run with --release");
    }
    let mut grid = ObservationGrid::paper();
    grid.sizes.retain(|&s| s <= 1000);
    assert_eq!(grid.cells(), 756);

    let tables = measure(&grid, &CurveConfig::default(), &THRESHOLD_LADDER, 0);
    assert_eq!(tables.len(), THRESHOLD_LADDER.len());
    for table in &tables {
        assert_eq!(table.knees().len(), grid.cells());
        assert!(table.knees().iter().all(|&k| k >= 1.0));
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let bound = BASE_MIB + PER_THREAD_MIB * threads;
    let peak = peak_rss_mib();
    eprintln!(
        "paper grid (sizes <= 1000): peak RSS {peak} MiB on {threads} threads, bound {bound} MiB"
    );
    assert!(
        peak <= bound,
        "peak RSS {peak} MiB exceeds {bound} MiB ({BASE_MIB} + {PER_THREAD_MIB} per thread × {threads})"
    );
}
