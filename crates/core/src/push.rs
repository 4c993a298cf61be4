//! Push-mode incremental recomputation with self-healing reconciliation.
//!
//! The paper sweeps a *static* platform snapshot; a long-lived service
//! tracks a live grid where hosts join and leave, clocks and bandwidths
//! drift, and prices change. A full resweep per change is unaffordable
//! and a missed change is silently wrong, so this module maintains the
//! model state — sweep cells, knee tables, planar fits, the cost
//! model — as an explicit dependency DAG keyed by the sweep fingerprint
//! (the same digest the checkpoint journals record), and propagates
//! [`PlatformDelta`](rsg_platform::delta::PlatformDelta)s through it,
//! dirtying and recomputing only the cells whose platform footprint
//! actually changed.
//!
//! Robustness is the headline contract, in three layers:
//!
//! * **Transport** — deltas arrive through [`DeltaJournal`], the delta
//!   instantiation of the store's checksummed line journal: torn tails
//!   truncate back to the last good record, a damaged or mismatched
//!   header quarantines the file to `*.corrupt`, and every record
//!   carries a sequence number so the engine can detect duplicates,
//!   reorderings and gaps instead of trusting delivery order.
//! * **Apply** — [`PushEngine::submit_batch`] hands each batch to a
//!   [`DeltaSequencer`], the one state machine that classifies and
//!   applies records: transactional (one bad record rolls back the
//!   whole batch), duplicates (seq ≤ applied) idempotently skipped,
//!   out-of-order records parked in a bounded buffer until the gap
//!   fills (quarantine-and-resync, never a panic). `rsg audit` folds
//!   journals through the same sequencer, so its prediction of a boot
//!   replay is the replay. The [`Staleness`] stamp (applied seq + lag)
//!   rides on every answer so a consumer always knows how current the
//!   state is.
//! * **Audit** — [`PushEngine::audit`] periodically recomputes a
//!   seeded random sample of cells from scratch off the live platform
//!   and asserts bit-identity against the incremental state. Any
//!   divergence quarantines the cell, forces a selective recompute,
//!   and bumps `push.divergence` — the engine heals itself rather than
//!   serving the wrong number.
//!
//! Bit-identity between the incremental state and a from-scratch
//! resweep ([`measure_on_platform`]) is structural, not numerical luck:
//! both paths derive each cell's [`RcFamily`] from the platform with
//! the same function and evaluate the cell with the same cell steps
//! (`observation::evaluate_cells`), and cells are mutually independent.

use crate::curve::{CurveConfig, RcFamily};
use crate::observation::{
    assemble_tables, cell_list, evaluate_cells, sweep, sweep_fingerprint, Cell, KneeTable,
    ObservationGrid,
};
use crate::sizemodel::ThresholdedSizeModel;
use crate::store::fnv1a;
use rsg_obs::Counter;
use rsg_platform::delta::{DeltaError, DeltaSequencer};
use rsg_platform::{CostModel, Platform, ResourceCollection};
use std::borrow::Cow;

pub use crate::store::DeltaJournal;
pub use rsg_platform::delta::{DeltaRecord, MAX_PARKED};

/// Deltas applied to the live platform (post-dedup, post-ordering).
static OBS_DELTAS_APPLIED: Counter = Counter::new("push.deltas_applied");
/// Duplicate deltas (seq ≤ applied or already parked) skipped idempotently.
static OBS_DELTAS_DUPLICATE: Counter = Counter::new("push.deltas_duplicate");
/// Out-of-order deltas parked awaiting a gap fill.
static OBS_DELTAS_PARKED: Counter = Counter::new("push.deltas_parked");
/// Deltas dropped as invalid or unparkable (bounded buffer overflow).
static OBS_DELTAS_REJECTED: Counter = Counter::new("push.deltas_rejected");
/// Cells dirtied by delta propagation.
static OBS_CELLS_DIRTIED: Counter = Counter::new("push.cells_dirtied");
/// Cells recomputed (delta propagation + divergence repair).
static OBS_CELLS_RECOMPUTED: Counter = Counter::new("push.cells_recomputed");
/// Anti-entropy audit passes run.
static OBS_AUDITS: Counter = Counter::new("push.audits");
/// Audited cells whose incremental state diverged from scratch.
static OBS_DIVERGENCE: Counter = Counter::new("push.divergence");
/// Batches that closed a pre-existing sequence gap.
static OBS_RESYNCS: Counter = Counter::new("push.resyncs");

/// Lifecycle of one node in the model dependency DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Consistent with the current platform.
    Clean,
    /// Invalidated by a delta; awaiting recompute.
    Dirty,
    /// Failed an anti-entropy audit; excluded until selectively
    /// recomputed.
    Quarantined,
}

/// What a dependency-DAG node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// One sweep cell (index into the grid's cell list).
    Cell(usize),
    /// The assembled knee tables (one per θ), downstream of every cell.
    Tables,
    /// The planar fits / thresholded size model, downstream of the
    /// tables.
    Fit,
    /// The resource cost model, downstream of price deltas only.
    Cost,
}

/// One node of the model dependency DAG: a stable key (derived from the
/// sweep fingerprint), what it models, which nodes it depends on, and
/// its lifecycle state.
#[derive(Debug, Clone)]
pub struct DepNode {
    /// Stable identity: `fnv1a("{sweep_fp}|{kind}")` — ties every node
    /// to the sweep configuration the journals are keyed by.
    pub key: u64,
    /// What the node models.
    pub kind: NodeKind,
    /// Indices (into the engine's node list) this node depends on.
    pub deps: Vec<usize>,
    /// Current lifecycle state.
    pub state: NodeState,
}

/// How current the engine's answers are: the last applied delta
/// sequence number and how many known deltas are still unapplied
/// (parked behind a gap). Wall-clock age is layered on by the serving
/// tier — the engine itself is clock-free so replay stays
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Staleness {
    /// Highest contiguously applied sequence number.
    pub applied_seq: u64,
    /// Highest sequence number ever accepted (see
    /// [`DeltaSequencer::highest_seen`]).
    pub highest_seen: u64,
    /// `highest_seen - applied_seq`: 0 means fully current.
    pub lag: u64,
}

/// What one [`PushEngine::submit_batch`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Records applied to the platform (batch + drained parked).
    pub applied: usize,
    /// Records skipped as duplicates.
    pub duplicates: usize,
    /// Records parked awaiting a gap fill.
    pub parked: usize,
    /// Previously parked records dropped at drain time (invalid against
    /// the state the gap fill produced).
    pub rejected: usize,
    /// Cells dirtied by the applied deltas.
    pub dirtied: usize,
    /// Cells recomputed (== dirtied; recompute is eager).
    pub recomputed: usize,
    /// Whether this batch closed a pre-existing sequence gap.
    pub resynced: bool,
}

/// What one [`PushEngine::audit`] pass found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// Cells recomputed from scratch and compared.
    pub checked: usize,
    /// Cells whose incremental state diverged (each was quarantined and
    /// selectively recomputed before this call returned).
    pub divergent: usize,
}

/// Derives the [`RcFamily`] a cell of capacity `cap` sees on
/// `platform`: walk clusters fastest-first until the prefix holds `cap`
/// hosts (the cell's *footprint*), then summarize the prefix as a
/// family — fastest clock as the nominal clock, clock spread as
/// heterogeneity, worst intra-footprint communication factor as
/// bandwidth heterogeneity. Deltas outside the footprint leave the
/// family — and therefore the cell — untouched; that locality is what
/// makes single-cluster deltas cheap.
///
/// Both the incremental engine and [`measure_on_platform`] call this
/// exact function, so their per-cell inputs are bit-identical by
/// construction.
pub fn derive_family(platform: &Platform, base: &CurveConfig, cap: usize) -> RcFamily {
    let order = platform.clusters_by_clock_desc();
    let clusters = platform.clusters();
    let mut prefix = Vec::new();
    let mut hosts = 0usize;
    for id in order {
        prefix.push(id);
        hosts += clusters[id.index()].hosts as usize;
        if hosts >= cap {
            break;
        }
    }
    let fastest = clusters[prefix[0].index()].clock_mhz;
    let slowest = clusters[prefix[prefix.len() - 1].index()].clock_mhz;
    let heterogeneity = (1.0 - slowest / fastest).clamp(0.0, 0.95);
    let mut max_cf = 1.0f64;
    for (i, &a) in prefix.iter().enumerate() {
        for &b in prefix.iter().skip(i + 1) {
            max_cf = max_cf.max(platform.comm_factor(a, b));
        }
    }
    let bw_heterogeneity = (1.0 - 1.0 / max_cf).clamp(0.0, 0.95);
    RcFamily {
        clock_mhz: fastest,
        heterogeneity,
        bw_heterogeneity,
        seed: base.rc_family.seed,
    }
}

/// Every cell's [`RcFamily`] on `platform` ([`derive_family`] at the
/// cell's ladder cap).
fn families(platform: &Platform, cfg: &CurveConfig, cells: &[Cell]) -> Vec<RcFamily> {
    cells
        .iter()
        .map(|cell| derive_family(platform, cfg, cell.cap()))
        .collect()
}

/// From-scratch platform-aware sweep: every cell evaluated against the
/// RC its footprint on `platform` implies. This is the reference the
/// anti-entropy audit and the convergence tests compare the incremental
/// state against — and the expensive thing [`PushEngine`] exists to
/// avoid rerunning per delta.
pub fn measure_on_platform(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
    platform: &Platform,
) -> Vec<KneeTable> {
    let per_cell: Vec<Vec<f64>> = sweep_on_platform(grid, cfg, thetas, refine_rounds, platform)
        .map(|(_, knees)| knees)
        .collect();
    assemble_tables(grid, &cell_list(grid), &per_cell, thetas)
}

/// Every cell of `grid` with its knees, in grid-cell order, each cell
/// evaluated on the RC its footprint on `platform` implies.
fn sweep_on_platform<'a>(
    grid: &'a ObservationGrid,
    cfg: &'a CurveConfig,
    thetas: &'a [f64],
    refine_rounds: u32,
    platform: &'a Platform,
) -> impl Iterator<Item = (Cell, Vec<f64>)> + 'a {
    let all = (0..grid.cells()).collect();
    sweep(grid, cfg, thetas, refine_rounds, all, |cell| {
        Cow::Owned(derive_family(platform, cfg, cell.cap()).build(cell.cap()))
    })
    .map(|(_, cell, knees)| (cell, knees))
}

/// The push-mode incremental recomputation engine. See the module docs
/// for the contract; see [`PushEngine::submit_batch`] for the delta
/// path and [`PushEngine::audit`] for the reconciliation path.
pub struct PushEngine {
    grid: ObservationGrid,
    cfg: CurveConfig,
    thetas: Vec<f64>,
    refine_rounds: u32,
    fingerprint: u64,
    cells: Vec<Cell>,
    sequencer: DeltaSequencer,
    families: Vec<RcFamily>,
    per_cell: Vec<Vec<f64>>,
    tables: Vec<KneeTable>,
    model: ThresholdedSizeModel,
    nodes: Vec<DepNode>,
}

impl PushEngine {
    /// Builds the engine with a full initial sweep of `platform` — the
    /// last full sweep it ever needs while the journal stays healthy.
    pub fn new(
        grid: ObservationGrid,
        cfg: CurveConfig,
        thetas: Vec<f64>,
        refine_rounds: u32,
        platform: Platform,
        cost: CostModel,
    ) -> PushEngine {
        let fingerprint = sweep_fingerprint(&grid, &cfg, &thetas, refine_rounds);
        let (cells, per_cell): (Vec<Cell>, Vec<Vec<f64>>) =
            sweep_on_platform(&grid, &cfg, &thetas, refine_rounds, &platform).unzip();
        let ncells = cells.len();
        let families = families(&platform, &cfg, &cells);
        let tables = assemble_tables(&grid, &cell_list(&grid), &per_cell, &thetas);
        let model = ThresholdedSizeModel::fit(&tables);

        // The explicit dependency DAG: cells feed the tables, the
        // tables feed the fit; the cost model stands alone under price
        // deltas. Keys fold the sweep fingerprint so a node's identity
        // changes exactly when the journals' identity does.
        let key = |tag: &str| fnv1a(format!("{fingerprint:016x}|{tag}").as_bytes());
        let mut nodes: Vec<DepNode> = (0..ncells)
            .map(|c| DepNode {
                key: key(&format!("cell/{c}")),
                kind: NodeKind::Cell(c),
                deps: Vec::new(),
                state: NodeState::Clean,
            })
            .collect();
        nodes.push(DepNode {
            key: key("tables"),
            kind: NodeKind::Tables,
            deps: (0..ncells).collect(),
            state: NodeState::Clean,
        });
        nodes.push(DepNode {
            key: key("fit"),
            kind: NodeKind::Fit,
            deps: vec![ncells],
            state: NodeState::Clean,
        });
        nodes.push(DepNode {
            key: key("cost"),
            kind: NodeKind::Cost,
            deps: Vec::new(),
            state: NodeState::Clean,
        });

        PushEngine {
            grid,
            cfg,
            thetas,
            refine_rounds,
            fingerprint,
            cells,
            sequencer: DeltaSequencer::new(platform, cost),
            families,
            per_cell,
            tables,
            model,
            nodes,
        }
    }

    /// The engine's sweep fingerprint — the digest its delta journal
    /// and dependency-DAG node keys are derived from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The current (delta-tracked) platform.
    pub fn platform(&self) -> &Platform {
        self.sequencer.platform()
    }

    /// The current cost model.
    pub fn cost(&self) -> CostModel {
        self.sequencer.cost()
    }

    /// The knee tables consistent with every applied delta.
    pub fn tables(&self) -> &[KneeTable] {
        &self.tables
    }

    /// The thresholded size model fitted to [`tables`](Self::tables).
    pub fn model(&self) -> &ThresholdedSizeModel {
        &self.model
    }

    /// The dependency DAG (cells, tables, fit, cost) for introspection.
    pub fn nodes(&self) -> &[DepNode] {
        &self.nodes
    }

    /// Number of sweep cells under management.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// How current the engine is. `lag > 0` means a sequence gap is
    /// open: the source must re-deliver the missing records (resync) —
    /// until then answers are stale-but-stamped, never wrong.
    pub fn staleness(&self) -> Staleness {
        Staleness {
            applied_seq: self.sequencer.applied_seq(),
            highest_seen: self.sequencer.highest_seen(),
            lag: self.sequencer.lag(),
        }
    }

    /// The lowest missing sequence number, when a gap is open.
    pub fn gap(&self) -> Option<u64> {
        self.sequencer.gap()
    }

    /// Applies a batch of delta records transactionally: the
    /// [`DeltaSequencer`] decides which records apply, skip, park or
    /// refuse the batch (see [`DeltaSequencer::submit_batch`]); a
    /// refused batch returns `Err` with no state change — the serving
    /// tier maps this to a 422 with the batch rolled back.
    ///
    /// When anything applied, the dirty set is recomputed eagerly:
    /// per-cell families are rederived from the mutated platform and
    /// exactly the cells whose family changed are recomputed, then the
    /// downstream tables and fit rebuilt.
    pub fn submit_batch(&mut self, records: &[DeltaRecord]) -> Result<BatchOutcome, DeltaError> {
        let seq = self.sequencer.submit_batch(records)?;
        OBS_DELTAS_APPLIED.add(seq.applied as u64);
        OBS_DELTAS_DUPLICATE.add(seq.duplicates as u64);
        OBS_DELTAS_PARKED.add(seq.parked as u64);
        OBS_DELTAS_REJECTED.add(seq.rejected as u64);
        if seq.resynced {
            OBS_RESYNCS.incr();
        }
        let (dirtied, recomputed) = if seq.applied > 0 {
            self.propagate()
        } else {
            (0, 0)
        };
        Ok(BatchOutcome {
            applied: seq.applied,
            duplicates: seq.duplicates,
            parked: seq.parked,
            rejected: seq.rejected,
            dirtied,
            recomputed,
            resynced: seq.resynced,
        })
    }

    /// Rederives every cell's family from the current platform, marks
    /// the changed ones dirty in the dependency DAG, recomputes exactly
    /// those, and rebuilds the downstream tables and fit. Returns
    /// `(dirtied, recomputed)`.
    fn propagate(&mut self) -> (usize, usize) {
        let ncells = self.cells.len();
        let fresh = families(self.sequencer.platform(), &self.cfg, &self.cells);
        let dirty: Vec<usize> = (0..ncells)
            .filter(|&c| fresh[c] != self.families[c])
            .collect();
        OBS_CELLS_DIRTIED.add(dirty.len() as u64);
        OBS_CELLS_RECOMPUTED.add(dirty.len() as u64);
        self.families = fresh;
        if dirty.is_empty() {
            return (0, 0);
        }

        for &c in &dirty {
            self.nodes[c].state = NodeState::Dirty;
        }
        self.nodes[ncells].state = NodeState::Dirty;
        self.nodes[ncells + 1].state = NodeState::Dirty;
        let recomputed = self.recompute(&dirty, &self.families);
        for (&c, knees) in dirty.iter().zip(recomputed) {
            self.per_cell[c] = knees;
            self.nodes[c].state = NodeState::Clean;
        }
        self.rebuild_downstream();
        (dirty.len(), dirty.len())
    }

    /// Recomputes the knees of cells `which`, cell `c` on the RC of
    /// `families[c]`.
    fn recompute(&self, which: &[usize], families: &[RcFamily]) -> Vec<Vec<f64>> {
        let cells: Vec<&Cell> = which.iter().map(|&c| &self.cells[c]).collect();
        let rcs: Vec<ResourceCollection> = which
            .iter()
            .map(|&c| families[c].build(self.cells[c].cap()))
            .collect();
        evaluate_cells(
            &cells,
            &rcs.iter().collect::<Vec<_>>(),
            &self.cfg,
            &self.thetas,
            self.refine_rounds,
        )
    }

    /// Rebuilds the tables and fit nodes from the per-cell state.
    fn rebuild_downstream(&mut self) {
        let ncells = self.cells.len();
        self.tables = assemble_tables(
            &self.grid,
            &cell_list(&self.grid),
            &self.per_cell,
            &self.thetas,
        );
        self.model = ThresholdedSizeModel::fit(&self.tables);
        self.nodes[ncells].state = NodeState::Clean;
        self.nodes[ncells + 1].state = NodeState::Clean;
    }

    /// Anti-entropy audit: recomputes a seeded random sample of cells
    /// from scratch off the live platform and compares bit-for-bit
    /// against the incremental state. A divergent cell is quarantined,
    /// selectively recomputed from the fresh value, and counted in
    /// `push.divergence`; the downstream tables and fit are rebuilt
    /// before the call returns, so the engine never keeps serving a
    /// number it knows to be wrong.
    ///
    /// The sample is deterministic in `(fingerprint, applied_seq,
    /// salt)` — two replicas auditing at the same point check the same
    /// cells.
    pub fn audit(&mut self, sample: usize, salt: u64) -> AuditReport {
        OBS_AUDITS.incr();
        let ncells = self.cells.len();
        let applied_seq = self.sequencer.applied_seq();
        let mut state = self
            .fingerprint
            .wrapping_add(applied_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(salt);
        let mut picked = std::collections::BTreeSet::new();
        for _ in 0..sample.min(ncells) * 4 {
            // splitmix64 step
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            picked.insert((z % ncells as u64) as usize);
            if picked.len() >= sample.min(ncells) {
                break;
            }
        }

        let mut report = AuditReport {
            checked: picked.len(),
            divergent: 0,
        };
        let picked: Vec<usize> = picked.into_iter().collect();
        let families = families(self.sequencer.platform(), &self.cfg, &self.cells);
        let recomputed = self.recompute(&picked, &families);
        let mut repaired = false;
        for (&c, fresh) in picked.iter().zip(recomputed) {
            let identical = fresh.len() == self.per_cell[c].len()
                && fresh
                    .iter()
                    .zip(&self.per_cell[c])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !identical {
                self.nodes[c].state = NodeState::Quarantined;
                OBS_DIVERGENCE.incr();
                report.divergent += 1;
                self.per_cell[c] = fresh;
                self.families[c] = families[c];
                self.nodes[c].state = NodeState::Clean;
                OBS_CELLS_RECOMPUTED.incr();
                repaired = true;
            }
        }
        if repaired {
            self.rebuild_downstream();
        }
        report
    }

    /// Test / drill hook: corrupts one cell's incremental state in a
    /// way only the anti-entropy audit can detect (the dependency DAG
    /// still reads `Clean`). Used by the convergence tests and the
    /// chaos bench to prove the audit actually repairs divergence.
    pub fn poison_cell(&mut self, c: usize) {
        for k in &mut self.per_cell[c] {
            *k += 1.0;
        }
        self.rebuild_downstream();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::THRESHOLD_LADDER;
    use rsg_platform::delta::PlatformDelta;
    use rsg_platform::{ClusterId, ResourceGenSpec, TopologySpec};

    fn tiny_platform() -> Platform {
        Platform::generate(
            ResourceGenSpec {
                clusters: 12,
                year: 2006,
                target_hosts: Some(420),
            },
            TopologySpec::default(),
            11,
        )
    }

    fn engine() -> PushEngine {
        PushEngine::new(
            ObservationGrid::tiny(),
            CurveConfig::default(),
            THRESHOLD_LADDER.to_vec(),
            0,
            tiny_platform(),
            CostModel::default(),
        )
    }

    #[test]
    fn initial_state_matches_from_scratch() {
        let eng = engine();
        let reference = measure_on_platform(
            &ObservationGrid::tiny(),
            &CurveConfig::default(),
            &THRESHOLD_LADDER,
            0,
            &tiny_platform(),
        );
        assert_eq!(eng.tables(), &reference[..]);
    }

    #[test]
    fn duplicate_and_out_of_order_records_converge() {
        let mut eng = engine();
        let slowest = *eng.platform().clusters_by_clock_desc().last().unwrap();
        let fastest = eng.platform().clusters_by_clock_desc()[0];
        let r1 = DeltaRecord {
            seq: 1,
            delta: PlatformDelta::HostJoin {
                cluster: slowest,
                hosts: 3,
            },
        };
        let r2 = DeltaRecord {
            seq: 2,
            delta: PlatformDelta::ClockDrift {
                cluster: fastest,
                clock_mhz: eng.platform().clusters()[fastest.index()].clock_mhz + 100.0,
            },
        };
        let r3 = DeltaRecord {
            seq: 3,
            delta: PlatformDelta::PriceChange {
                dollars_per_hour: 0.2,
            },
        };
        // Deliver out of order with duplicates: 3, 1, 3, 2, 1.
        let out = eng.submit_batch(&[r3, r1]).unwrap();
        assert_eq!(out.applied, 1); // r1
        assert_eq!(out.parked, 1); // r3
        assert_eq!(eng.staleness().lag, 2);
        assert_eq!(eng.gap(), Some(2));
        let out = eng.submit_batch(&[r3, r2, r1]).unwrap();
        assert_eq!(out.applied, 2); // r2 + drained r3
        assert_eq!(out.duplicates, 2);
        assert!(out.resynced);
        assert_eq!(eng.staleness().lag, 0);
        assert_eq!(eng.gap(), None);
        assert_eq!(eng.cost().dollars_per_hour, 0.2);

        // Incremental state now matches a from-scratch sweep of the
        // final platform, bit for bit.
        let reference = measure_on_platform(
            &ObservationGrid::tiny(),
            &CurveConfig::default(),
            &THRESHOLD_LADDER,
            0,
            eng.platform(),
        );
        assert_eq!(eng.tables(), &reference[..]);
    }

    #[test]
    fn bad_delta_rolls_back_whole_batch() {
        let mut eng = engine();
        let before_seq = eng.staleness().applied_seq;
        let slowest = *eng.platform().clusters_by_clock_desc().last().unwrap();
        let good = DeltaRecord {
            seq: 1,
            delta: PlatformDelta::HostJoin {
                cluster: slowest,
                hosts: 1,
            },
        };
        let bad = DeltaRecord {
            seq: 2,
            delta: PlatformDelta::ClockDrift {
                cluster: ClusterId(0),
                clock_mhz: f64::INFINITY,
            },
        };
        let err = eng.submit_batch(&[good, bad]).unwrap_err();
        assert!(matches!(err, DeltaError::BadClock(_)));
        // Nothing committed — not even the good record.
        assert_eq!(eng.staleness().applied_seq, before_seq);
        assert_eq!(eng.staleness().lag, 0);
    }

    #[test]
    fn audit_detects_and_repairs_poison() {
        let mut eng = engine();
        eng.poison_cell(0);
        // Audit the whole grid so cell 0 is certainly sampled.
        let report = eng.audit(eng.cells(), 7);
        assert_eq!(report.divergent, 1);
        let reference = measure_on_platform(
            &ObservationGrid::tiny(),
            &CurveConfig::default(),
            &THRESHOLD_LADDER,
            0,
            eng.platform(),
        );
        assert_eq!(eng.tables(), &reference[..]);
        // A second audit finds nothing.
        let report = eng.audit(eng.cells(), 7);
        assert_eq!(report.divergent, 0);
    }

    #[test]
    fn out_of_footprint_delta_dirties_nothing() {
        let mut eng = engine();
        // The slowest cluster is outside every cell's footprint (caps
        // are small relative to the fast prefix), so shrinking it is
        // invisible to the models.
        let slowest = *eng.platform().clusters_by_clock_desc().last().unwrap();
        let rec = DeltaRecord {
            seq: 1,
            delta: PlatformDelta::HostLeave {
                cluster: slowest,
                hosts: 1,
            },
        };
        let out = eng.submit_batch(&[rec]).unwrap();
        assert_eq!(out.applied, 1);
        assert_eq!(out.dirtied, 0);
        assert_eq!(out.recomputed, 0);
    }

    #[test]
    fn parked_buffer_is_bounded() {
        let mut eng = engine();
        let slowest = *eng.platform().clusters_by_clock_desc().last().unwrap();
        let far: Vec<DeltaRecord> = (0..MAX_PARKED as u64 + 10)
            .map(|i| DeltaRecord {
                seq: 1_000_000 + i,
                delta: PlatformDelta::HostJoin {
                    cluster: slowest,
                    hosts: 1,
                },
            })
            .collect();
        let out = eng.submit_batch(&far).unwrap();
        assert_eq!(out.parked, MAX_PARKED);
        assert_eq!(out.rejected, 10);
        assert_eq!(out.applied, 0);
        // Rejected records do not ratchet highest_seen: the lag counts
        // only what was actually accepted (applied or parked).
        let s = eng.staleness();
        assert_eq!(s.highest_seen, 1_000_000 + MAX_PARKED as u64 - 1);
    }

    #[test]
    fn conflicting_parked_payload_rejects_the_batch() {
        let mut eng = engine();
        let parked = DeltaRecord {
            seq: 5,
            delta: PlatformDelta::PriceChange {
                dollars_per_hour: 0.2,
            },
        };
        let out = eng.submit_batch(&[parked]).unwrap();
        assert_eq!(out.parked, 1);

        // Same payload redelivered: legal idempotent duplicate.
        let out = eng.submit_batch(&[parked]).unwrap();
        assert_eq!(out.duplicates, 1);

        // Different payload under the same seq: the source contradicts
        // itself — refuse the batch, don't silently keep either side.
        let conflict = DeltaRecord {
            seq: 5,
            delta: PlatformDelta::PriceChange {
                dollars_per_hour: 0.9,
            },
        };
        let err = eng.submit_batch(&[conflict]).unwrap_err();
        assert_eq!(err, DeltaError::ConflictingSeq(5));
        // Nothing changed: the original parked record is still there.
        assert_eq!(eng.staleness().highest_seen, 5);
        assert_eq!(eng.gap(), Some(1));
    }
}
