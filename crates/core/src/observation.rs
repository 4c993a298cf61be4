//! Observation-set driver (Section V.2.3).
//!
//! The paper builds its size prediction model by measuring knee values
//! over the cross product of DAG characteristics in Table V-1 (1260
//! configurations × 10 instances). This module drives that sweep — in
//! parallel with rayon — and stores the per-cell knees for every
//! threshold of interest.
//!
//! A grid cell (`Cell`) is the unit of work: generate its instances,
//! evaluate them over its RC-size ladder, take its knees. One driver
//! (`sweep`) streams the cells a run still owes through those steps
//! in waves of a few cells per worker thread, dropping each wave's DAGs
//! before generating the next, so memory holds a wave rather than the
//! grid. [`measure`], the checkpointed driver and the platform-aware
//! sweep of [`crate::push`] are thin callers of it; the push engine
//! keeps its cells and recomputes them through the same steps
//! (`evaluate_cells`).

use crate::curve::{mean_turnaround_reference, mean_turnarounds, size_ladder, Curve, CurveConfig};
use crate::knee::{find_knee, first_probe, refine_knee};
use crate::store::{fnv1a, StoreError, SweepJournal};
use rayon::prelude::*;
use rsg_dag::{Dag, RandomDagSpec};
use rsg_obs::Counter;
use rsg_platform::ResourceCollection;
use rsg_sched::{evaluate_ladder, TurnaroundReport};
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::PathBuf;

/// DAG instances generated for grid cells ([`Cell::generate`]).
static OBS_DAGS: Counter = Counter::new("core.sweep.dags_generated");
/// Ladder-point schedule evaluations (a cell's ladder step).
static OBS_LADDER_EVALS: Counter = Counter::new("core.sweep.ladder_evals");
/// Knee-refinement probe evaluations that missed the per-cell memo.
static OBS_REFINE_EVALS: Counter = Counter::new("core.sweep.refine_evals");
/// Knee-refinement probes served from the per-cell memo.
static OBS_MEMO_HITS: Counter = Counter::new("core.sweep.memo_hits");

/// The observation-grid axes (Table V-1) and instance count.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationGrid {
    /// DAG sizes (tasks).
    pub sizes: Vec<usize>,
    /// CCR values.
    pub ccrs: Vec<f64>,
    /// Parallelism values α.
    pub alphas: Vec<f64>,
    /// Regularity values β.
    pub betas: Vec<f64>,
    /// Fixed density δ.
    pub density: f64,
    /// Fixed mean computational cost ω, seconds.
    pub mean_comp: f64,
    /// Instances per configuration.
    pub instances: usize,
}

impl ObservationGrid {
    /// The full Table V-1 grid: 5 × 6 × 7 × 6 = 1260 configurations, 10
    /// instances each. Paper-scale: hours of CPU even in Rust.
    pub fn paper() -> ObservationGrid {
        ObservationGrid {
            sizes: vec![100, 500, 1000, 5000, 10_000],
            ccrs: vec![0.01, 0.1, 0.3, 0.5, 0.8, 1.0],
            alphas: vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            betas: vec![0.01, 0.1, 0.3, 0.5, 0.8, 1.0],
            density: 0.5,
            mean_comp: 40.0,
            instances: 10,
        }
    }

    /// A reduced grid that trains a usable model in seconds-to-minutes;
    /// the default for examples and the `fast` experiment preset.
    pub fn fast() -> ObservationGrid {
        ObservationGrid {
            sizes: vec![100, 300, 800],
            ccrs: vec![0.01, 0.1, 0.5, 1.0],
            alphas: vec![0.3, 0.5, 0.7, 0.9],
            betas: vec![0.01, 0.5, 1.0],
            density: 0.5,
            mean_comp: 40.0,
            instances: 3,
        }
    }

    /// A minimal grid for unit tests.
    pub fn tiny() -> ObservationGrid {
        ObservationGrid {
            sizes: vec![50, 200],
            ccrs: vec![0.01, 0.5],
            alphas: vec![0.4, 0.7],
            betas: vec![0.1, 0.9],
            density: 0.5,
            mean_comp: 20.0,
            instances: 2,
        }
    }

    /// Number of configurations (cells).
    pub fn cells(&self) -> usize {
        self.sizes.len() * self.ccrs.len() * self.alphas.len() * self.betas.len()
    }

    fn index(&self, si: usize, ci: usize, ai: usize, bi: usize) -> usize {
        ((si * self.ccrs.len() + ci) * self.alphas.len() + ai) * self.betas.len() + bi
    }

    /// The [`RandomDagSpec`] of one cell.
    pub fn spec(&self, si: usize, ci: usize, ai: usize, bi: usize) -> RandomDagSpec {
        RandomDagSpec {
            size: self.sizes[si],
            ccr: self.ccrs[ci],
            parallelism: self.alphas[ai],
            density: self.density,
            regularity: self.betas[bi],
            mean_comp: self.mean_comp,
        }
    }

    /// Deterministic instances of one cell (one when the grid asks for
    /// none), exactly the DAGs every sweep evaluates for it.
    pub fn instances_of(&self, si: usize, ci: usize, ai: usize, bi: usize) -> Vec<Dag> {
        Cell::generate(self, (si, ci, ai, bi)).dags
    }
}

/// Deterministic seed per grid cell.
fn cell_seed(si: usize, ci: usize, ai: usize, bi: usize) -> u64 {
    let mut z = (si as u64) << 48 | (ci as u64) << 32 | (ai as u64) << 16 | bi as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Measured knee values over a grid for one threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct KneeTable {
    /// The grid the knees were measured on.
    pub grid: ObservationGrid,
    /// The knee threshold θ.
    pub theta: f64,
    knees: Vec<f64>,
}

impl KneeTable {
    /// The raw knee values in grid-index order (see
    /// [`ObservationGrid::cells`]).
    pub fn knees(&self) -> &[f64] {
        &self.knees
    }

    /// Knee at a cell.
    pub fn knee(&self, si: usize, ci: usize, ai: usize, bi: usize) -> f64 {
        self.knees[self.grid.index(si, ci, ai, bi)]
    }

    /// The `(α, β, log2 knee)` samples of one `(size, CCR)` slice — the
    /// Figure V-4 surface.
    pub fn plane_samples(&self, si: usize, ci: usize) -> Vec<(f64, f64, f64)> {
        let mut out = Vec::new();
        for (ai, &a) in self.grid.alphas.iter().enumerate() {
            for (bi, &b) in self.grid.betas.iter().enumerate() {
                let k = self.knee(si, ci, ai, bi).max(1.0);
                out.push((a, b, k.log2()));
            }
        }
        out
    }
}

pub(crate) fn cell_list(grid: &ObservationGrid) -> Vec<(usize, usize, usize, usize)> {
    (0..grid.sizes.len())
        .flat_map(|si| {
            (0..grid.ccrs.len()).flat_map(move |ci| {
                (0..grid.alphas.len())
                    .flat_map(move |ai| (0..grid.betas.len()).map(move |bi| (si, ci, ai, bi)))
            })
        })
        .collect()
}

pub(crate) fn assemble_tables(
    grid: &ObservationGrid,
    cells: &[(usize, usize, usize, usize)],
    per_cell: &[Vec<f64>],
    thetas: &[f64],
) -> Vec<KneeTable> {
    thetas
        .iter()
        .enumerate()
        .map(|(ti, &theta)| {
            let mut knees = vec![0.0f64; grid.cells()];
            for (cell_idx, &(si, ci, ai, bi)) in cells.iter().enumerate() {
                knees[grid.index(si, ci, ai, bi)] = per_cell[cell_idx][ti];
            }
            KneeTable {
                grid: grid.clone(),
                theta,
                knees,
            }
        })
        .collect()
}

/// One grid cell's DAG instances and RC-size ladder: the unit of work
/// of every sweep driver and of the push engine. A cell's knees depend
/// only on its own instances and the RC it is evaluated on, so cells
/// can be computed in any order, on any thread or in any process, with
/// bit-identical results.
pub(crate) struct Cell {
    dags: Vec<Dag>,
    ladder: Vec<usize>,
}

impl Cell {
    /// Generates the instances of grid cell `(si, ci, ai, bi)` (one when
    /// the grid asks for none).
    pub(crate) fn generate(grid: &ObservationGrid, cell: (usize, usize, usize, usize)) -> Cell {
        Cell::new(
            (0..grid.instances.max(1))
                .map(|k| Cell::instance(grid, cell, k))
                .collect(),
        )
    }

    /// Instance `k` of a cell, seeded `cell_seed + k`: the one seed rule,
    /// so an instance never depends on the order instances are made in.
    fn instance(
        grid: &ObservationGrid,
        (si, ci, ai, bi): (usize, usize, usize, usize),
        k: usize,
    ) -> Dag {
        OBS_DAGS.incr();
        grid.spec(si, ci, ai, bi)
            .generate(cell_seed(si, ci, ai, bi).wrapping_add(k as u64))
    }

    fn new(dags: Vec<Dag>) -> Cell {
        let width = dags
            .iter()
            .map(|d| d.width() as usize)
            .max()
            .expect("a cell has at least one instance");
        Cell {
            ladder: size_ladder(width),
            dags,
        }
    }

    /// The largest RC size the cell's ladder reaches: its widest
    /// instance's width, so never more than the cell's DAG size.
    pub(crate) fn cap(&self) -> usize {
        *self.ladder.last().expect("a ladder is never empty")
    }

    /// The ladder step of instance `k`: its turnaround at every ladder
    /// size, on prefixes of `rc`, in one [`evaluate_ladder`] call.
    fn ladder(&self, k: usize, rc: &ResourceCollection, cfg: &CurveConfig) -> Vec<f64> {
        OBS_LADDER_EVALS.add(self.ladder.len() as u64);
        evaluate_ladder(
            &self.dags[k],
            rc,
            &self.ladder,
            cfg.heuristic,
            &cfg.time_model,
        )
        .iter()
        .map(TurnaroundReport::turnaround_s)
        .collect()
    }

    /// The curve step: the mean of the per-instance ladders, summed in
    /// instance order (the same left-to-right fold as [`measure_naive`]).
    fn curve(&self, ladders: &[Vec<f64>]) -> Curve {
        let points = self
            .ladder
            .iter()
            .enumerate()
            .map(|(j, &s)| {
                let mut total = 0.0f64;
                for inst in ladders {
                    total += inst[j];
                }
                (s, total / ladders.len() as f64)
            })
            .collect();
        Curve { points }
    }

    /// The knee step: the cell's knee for every threshold. Refinement
    /// probes share one `(size → mean)` memo, seeded with the curve,
    /// across all thresholds.
    ///
    /// Every threshold's first bisection probe depends on the curve
    /// alone, so the probes the memo cannot serve are evaluated up
    /// front, together. Each of them is one the bisection evaluates
    /// anyway, so the memo is still filled (and the probes counted) at
    /// the moment the bisection asks for them, and the work and the
    /// counters are those of probing one size at a time.
    fn knees(
        &self,
        curve: &Curve,
        rc: &ResourceCollection,
        cfg: &CurveConfig,
        thetas: &[f64],
        refine_rounds: u32,
    ) -> Vec<f64> {
        if refine_rounds == 0 {
            return thetas
                .iter()
                .map(|&theta| find_knee(curve, theta) as f64)
                .collect();
        }
        let mut memo: HashMap<usize, f64> = curve.points.iter().copied().collect();
        let mut first: Vec<usize> = Vec::new();
        for s in thetas.iter().filter_map(|&theta| first_probe(curve, theta)) {
            if !memo.contains_key(&s) && !first.contains(&s) {
                first.push(s);
            }
        }
        let means = mean_turnarounds(&self.dags, rc, &first, cfg);
        let mut evaluated: HashMap<usize, f64> = first.into_iter().zip(means).collect();
        thetas
            .iter()
            .map(|&theta| {
                refine_knee(curve, theta, refine_rounds, |s| {
                    if let Some(&cached) = memo.get(&s) {
                        OBS_MEMO_HITS.incr();
                        return cached;
                    }
                    OBS_REFINE_EVALS.incr();
                    let mean = evaluated
                        .remove(&s)
                        .unwrap_or_else(|| mean_turnarounds(&self.dags, rc, &[s], cfg)[0]);
                    memo.insert(s, mean);
                    mean
                }) as f64
            })
            .collect()
    }
}

/// Computes the knees of `cells` (all of one grid), the i-th on
/// `rcs[i]`, in two phases on the caller's span stack: `evaluate` runs
/// the ladder and curve steps in parallel over (cell × instance), so a
/// few expensive cells cannot serialize the tail, and `knees` runs the
/// knee step in parallel over cells.
pub(crate) fn evaluate_cells(
    cells: &[&Cell],
    rcs: &[&ResourceCollection],
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
) -> Vec<Vec<f64>> {
    let eval_span = rsg_obs::span("evaluate");
    let n = cells.first().map_or(1, |c| c.dags.len());
    let ladders: Vec<Vec<f64>> = (0..cells.len() * n)
        .into_par_iter()
        .map(|i| cells[i / n].ladder(i % n, rcs[i / n], cfg))
        .collect();
    let curves: Vec<Curve> = cells
        .iter()
        .zip(ladders.chunks(n))
        .map(|(cell, ladders)| cell.curve(ladders))
        .collect();
    drop(eval_span);

    let _knee_span = rsg_obs::span("knees");
    (0..cells.len())
        .into_par_iter()
        .map(|c| cells[c].knees(&curves[c], rcs[c], cfg, thetas, refine_rounds))
        .collect()
}

/// Cells per wave of [`sweep`]: enough to keep every worker busy through
/// each phase while only this many cells' DAGs are alive.
fn wave_cells() -> usize {
    4 * rayon::current_num_threads()
}

/// The one sweep driver behind [`measure`], [`measure_checkpointed`] and
/// [`measure_on_platform`](crate::push::measure_on_platform).
///
/// Yields each cell of `owed` (grid-cell indices), in that order, with
/// the cell and its knees. Cells are computed in waves of
/// [`wave_cells`], each wave when the previous one has been consumed:
/// generate the wave's instances (span `generate`, parallel over cell ×
/// instance), then [`evaluate_cells`] on the RC `rc` gives each cell.
/// Only the wave being computed or consumed holds DAGs.
pub(crate) fn sweep<'a>(
    grid: &'a ObservationGrid,
    cfg: &'a CurveConfig,
    thetas: &'a [f64],
    refine_rounds: u32,
    owed: Vec<usize>,
    rc: impl Fn(&Cell) -> Cow<'a, ResourceCollection> + 'a,
) -> impl Iterator<Item = (usize, Cell, Vec<f64>)> + 'a {
    let cells = cell_list(grid);
    let ninst = grid.instances.max(1);
    let waves: Vec<Vec<usize>> = owed.chunks(wave_cells()).map(<[usize]>::to_vec).collect();
    waves.into_iter().flat_map(move |wave| {
        let gen_span = rsg_obs::span("generate");
        let mut dags = (0..wave.len() * ninst)
            .into_par_iter()
            .map(|i| Cell::instance(grid, cells[wave[i / ninst]], i % ninst))
            .collect::<Vec<Dag>>()
            .into_iter();
        let batch: Vec<Cell> = wave
            .iter()
            .map(|_| Cell::new(dags.by_ref().take(ninst).collect()))
            .collect();
        let rcs: Vec<Cow<'a, ResourceCollection>> = batch.iter().map(&rc).collect();
        drop(gen_span);

        let knees = evaluate_cells(
            &batch.iter().collect::<Vec<_>>(),
            &rcs.iter().map(AsRef::as_ref).collect::<Vec<_>>(),
            cfg,
            thetas,
            refine_rounds,
        );
        wave.into_iter()
            .zip(batch)
            .zip(knees)
            .map(|((c, cell), knees)| (c, cell, knees))
            .collect::<Vec<_>>()
    })
}

/// The RC every cell of a plain sweep takes prefixes of: the grid's
/// largest DAG size bounds every cell's [`Cell::cap`], and the family's
/// draws are prefix-stable, so one collection serves the whole grid.
fn family_rc(grid: &ObservationGrid, cfg: &CurveConfig) -> ResourceCollection {
    cfg.rc_family
        .build(grid.sizes.iter().copied().max().unwrap_or(1))
}

/// Measures knee tables for every threshold in `thetas` over the grid.
/// `refine_rounds > 0` bisects between ladder points for sharper knees.
///
/// This is the optimized sweep — bit-identical to [`measure_naive`]:
///
/// * cells stream through one driver in waves, so only a few cells' DAGs
///   are in memory at once, and each wave's evaluations run in parallel
///   over `(cell × instance)`;
/// * one RC sized for the whole grid is built once and every evaluation
///   uses a prefix view of it (prefix-stable families);
/// * per-cell `(size → mean turnaround)` results are memoized and
///   shared between curve sampling and knee refinement across all
///   thresholds;
/// * MCP/DLS placement goes through the candidate-set kernel
///   ([`rsg_sched::heuristics::placement`]) where it applies.
pub fn measure(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
) -> Vec<KneeTable> {
    let _sweep = rsg_obs::span("sweep");
    let rc = family_rc(grid, cfg);
    let all = (0..grid.cells()).collect();
    let per_cell: Vec<Vec<f64>> = sweep(grid, cfg, thetas, refine_rounds, all, |_| {
        Cow::Borrowed(&rc)
    })
    .map(|(_, _, knees)| knees)
    .collect();
    assemble_tables(grid, &cell_list(grid), &per_cell, thetas)
}

/// Version tag folded into [`sweep_fingerprint`]; bump whenever the
/// sweep algorithm changes in a way that invalidates journaled cells.
pub const SWEEP_CODE_VERSION: &str = "sweep-v1";

/// Identity of one sweep: grid, curve configuration, threshold ladder,
/// refinement depth and [`SWEEP_CODE_VERSION`] — the inputs that decide
/// what a journaled cell's knees are, and nothing else. A checkpoint
/// journal records this digest in its header; on restart a mismatch
/// quarantines the journal instead of resuming cells that no longer
/// mean the same thing. Whether observability is on is deliberately not
/// an input: a journal written with `--report` or `--trace` resumes
/// without them and vice versa (a resumed run reports the cells it
/// replayed, `core.store.cells_resumed`, and no sweep work).
pub fn sweep_fingerprint(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
) -> u64 {
    fnv1a(format!("{SWEEP_CODE_VERSION}|{grid:?}|{cfg:?}|{thetas:?}|{refine_rounds}").as_bytes())
}

/// Configuration for a checkpointed sweep ([`measure_checkpointed`]).
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where the cell journal lives (created if missing, replayed and
    /// extended if present).
    pub journal_path: PathBuf,
    /// Abort with [`StoreError::Aborted`] after computing this many new
    /// cells — the fault-injection hook the kill-and-resume tests use.
    /// `None` runs to completion.
    pub cell_budget: Option<usize>,
}

impl CheckpointConfig {
    /// A checkpoint configuration that runs to completion.
    pub fn new(journal_path: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            journal_path: journal_path.into(),
            cell_budget: None,
        }
    }
}

/// [`measure`] with cell-granular crash recovery: every completed cell
/// is appended to a checksummed journal, and a restarted sweep replays
/// the journal and generates and computes only the missing cells —
/// yielding tables bit-identical to an uninterrupted [`measure`] run.
///
/// Cells are journaled as their wave lands, so a killed sweep loses at
/// most the wave in flight. Per-cell results are computed by the same
/// cell steps as [`measure`] on the same RC prefixes, and cells are
/// mutually independent, so the floats match bitwise.
pub fn measure_checkpointed(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
    checkpoint: &CheckpointConfig,
) -> Result<Vec<KneeTable>, StoreError> {
    let _sweep = rsg_obs::span("sweep_checkpointed");
    // Open (replay) the journal first: a stale fingerprint quarantines
    // it before any compute is spent.
    let journal = SweepJournal::open(
        &checkpoint.journal_path,
        sweep_fingerprint(grid, cfg, thetas, refine_rounds),
        thetas.len(),
    )?;
    let mut done = journal.completed().clone();
    let mut owed: Vec<usize> = (0..grid.cells())
        .filter(|c| !done.contains_key(c))
        .collect();
    let budget = checkpoint.cell_budget.unwrap_or(usize::MAX);
    let truncated = budget < owed.len();
    owed.truncate(budget);

    let rc = family_rc(grid, cfg);
    for (c, _, knees) in sweep(grid, cfg, thetas, refine_rounds, owed, |_| {
        Cow::Borrowed(&rc)
    }) {
        journal.append(c, &knees)?;
        done.insert(c, knees);
    }
    if truncated {
        return Err(StoreError::Aborted {
            completed: done.len(),
            total: grid.cells(),
        });
    }
    let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); grid.cells()];
    for (c, knees) in done {
        per_cell[c] = knees;
    }
    Ok(assemble_tables(grid, &cell_list(grid), &per_cell, thetas))
}

/// The unoptimized observation sweep: parallel over cells only, a fresh
/// exact-size RC per evaluation, full host scans in MCP/DLS, no
/// memoization. Kept as the reference implementation — [`measure`] must
/// produce bit-identical tables (asserted by
/// `tests::fast_measure_matches_naive`, by the benchmark's `train`
/// workload, and by the ignored `kernel_speedup` test, which also gates
/// the speedup between the two).
pub fn measure_naive(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
) -> Vec<KneeTable> {
    let _sweep = rsg_obs::span("sweep_naive");
    let cells = cell_list(grid);

    // Per-cell knees for each theta, in parallel over cells.
    let per_cell: Vec<Vec<f64>> = cells
        .par_iter()
        .map(|&(si, ci, ai, bi)| {
            let dags = grid.instances_of(si, ci, ai, bi);
            let width = dags.iter().map(|d| d.width() as usize).max().unwrap();
            let points = size_ladder(width)
                .into_iter()
                .map(|s| (s, mean_turnaround_reference(&dags, s, cfg)))
                .collect();
            let curve = Curve { points };
            thetas
                .iter()
                .map(|&theta| {
                    let k = if refine_rounds > 0 {
                        refine_knee(&curve, theta, refine_rounds, |s| {
                            mean_turnaround_reference(&dags, s, cfg)
                        })
                    } else {
                        find_knee(&curve, theta)
                    };
                    k as f64
                })
                .collect()
        })
        .collect();

    assemble_tables(grid, &cells, &per_cell, thetas)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_measures() {
        let grid = ObservationGrid::tiny();
        let tables = measure(&grid, &CurveConfig::default(), &[0.001, 0.05], 0);
        assert_eq!(tables.len(), 2);
        let t = &tables[0];
        for si in 0..grid.sizes.len() {
            for ci in 0..grid.ccrs.len() {
                for ai in 0..grid.alphas.len() {
                    for bi in 0..grid.betas.len() {
                        let k = t.knee(si, ci, ai, bi);
                        assert!(k >= 1.0, "knee {k} must be >= 1");
                    }
                }
            }
        }
    }

    #[test]
    fn fast_measure_matches_naive() {
        // The tiny grid, and 180 cheap cells: many waves at any thread
        // count a CI runner has, so cells on both sides of every wave
        // boundary are checked bit for bit.
        let many = ObservationGrid {
            sizes: vec![10, 25, 40],
            ccrs: vec![0.01, 0.5, 1.0],
            alphas: vec![0.3, 0.5, 0.7, 0.9],
            betas: vec![0.01, 0.3, 0.5, 0.8, 1.0],
            density: 0.5,
            mean_comp: 20.0,
            instances: 2,
        };
        let cfg = CurveConfig::default();
        for grid in [ObservationGrid::tiny(), many] {
            for refine in [0u32, 2] {
                let fast = measure(&grid, &cfg, &[0.001, 0.05], refine);
                let naive = measure_naive(&grid, &cfg, &[0.001, 0.05], refine);
                assert_eq!(
                    fast,
                    naive,
                    "{} cells, refine_rounds = {refine}",
                    grid.cells()
                );
            }
        }
    }

    #[test]
    fn knee_grows_with_parallelism() {
        // Low-CCR slice: higher α needs more hosts (Table V-2 trend).
        let grid = ObservationGrid {
            sizes: vec![300],
            ccrs: vec![0.01],
            alphas: vec![0.3, 0.8],
            betas: vec![0.8],
            density: 0.5,
            mean_comp: 20.0,
            instances: 2,
        };
        let t = &measure(&grid, &CurveConfig::default(), &[0.001], 0)[0];
        let low = t.knee(0, 0, 0, 0);
        let high = t.knee(0, 0, 1, 0);
        assert!(
            high > low,
            "knee should grow with parallelism: α=0.3 → {low}, α=0.8 → {high}"
        );
    }

    #[test]
    fn higher_threshold_never_bigger_knee() {
        let grid = ObservationGrid::tiny();
        let tables = measure(&grid, &CurveConfig::default(), &[0.001, 0.10], 0);
        for si in 0..grid.sizes.len() {
            for ci in 0..grid.ccrs.len() {
                for ai in 0..grid.alphas.len() {
                    for bi in 0..grid.betas.len() {
                        assert!(tables[1].knee(si, ci, ai, bi) <= tables[0].knee(si, ci, ai, bi));
                    }
                }
            }
        }
    }

    #[test]
    fn checkpointed_matches_plain_and_resumes() {
        let dir = std::env::temp_dir().join(format!("rsg_ckpt_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let grid = ObservationGrid::tiny();
        let cfg = CurveConfig::default();
        let thetas = [0.001, 0.05];
        let plain = measure(&grid, &cfg, &thetas, 2);

        // Clean checkpointed run, then a resume-everything run: both
        // must be bit-identical to the plain sweep.
        let ckpt = CheckpointConfig::new(dir.join("sweep.journal"));
        let full = measure_checkpointed(&grid, &cfg, &thetas, 2, &ckpt).unwrap();
        assert_eq!(full, plain);
        let resumed = measure_checkpointed(&grid, &cfg, &thetas, 2, &ckpt).unwrap();
        assert_eq!(resumed, plain);

        // Abort after 3 cells on a fresh journal, then finish: the
        // resumed tables must still be bit-identical.
        let mut aborting = CheckpointConfig::new(dir.join("sweep_abort.journal"));
        aborting.cell_budget = Some(3);
        let err = measure_checkpointed(&grid, &cfg, &thetas, 2, &aborting).unwrap_err();
        match err {
            StoreError::Aborted { completed, total } => {
                assert_eq!(completed, 3);
                assert_eq!(total, grid.cells());
            }
            other => panic!("expected an abort, got {other:?}"),
        }
        aborting.cell_budget = None;
        let finished = measure_checkpointed(&grid, &cfg, &thetas, 2, &aborting).unwrap();
        assert_eq!(finished, plain);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_fingerprint_tracks_inputs() {
        let grid = ObservationGrid::tiny();
        let cfg = CurveConfig::default();
        let base = sweep_fingerprint(&grid, &cfg, &[0.001], 0);
        assert_eq!(base, sweep_fingerprint(&grid, &cfg, &[0.001], 0));
        assert_ne!(base, sweep_fingerprint(&grid, &cfg, &[0.001], 2));
        assert_ne!(base, sweep_fingerprint(&grid, &cfg, &[0.05], 0));
        let mut other = grid.clone();
        other.instances += 1;
        assert_ne!(base, sweep_fingerprint(&other, &cfg, &[0.001], 0));
    }

    #[test]
    fn cell_instances_deterministic() {
        let grid = ObservationGrid::tiny();
        let a = grid.instances_of(0, 0, 0, 0);
        let b = grid.instances_of(0, 0, 0, 0);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].edge_count(), b[0].edge_count());
        let c = grid.instances_of(0, 0, 0, 1);
        // Different cell, different DAG shape (regularity differs).
        assert!(a[0].level_sizes() != c[0].level_sizes() || a[0].edge_count() != c[0].edge_count());
    }

    #[test]
    fn plane_samples_cover_slice() {
        let grid = ObservationGrid::tiny();
        let t = &measure(&grid, &CurveConfig::default(), &[0.001], 0)[0];
        let samples = t.plane_samples(0, 0);
        assert_eq!(samples.len(), grid.alphas.len() * grid.betas.len());
        assert!(samples.iter().all(|&(_, _, z)| z >= 0.0));
    }
}
