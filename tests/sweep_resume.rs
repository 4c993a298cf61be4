//! Kill-and-resume integration tests for the checkpointed observation
//! sweep: a sweep aborted mid-run must resume from its journal and
//! produce knee tables *byte-identical* to an uninterrupted run, with
//! zero recomputed or regenerated completed cells (asserted through the
//! `core.store.*` and `core.sweep.*` obs counters).

use rsg::core::curve::CurveConfig;
use rsg::core::observation::{measure, measure_checkpointed, CheckpointConfig, ObservationGrid};
use rsg::core::persist::knee_tables_to_tsv;
use rsg::core::store::{self, StoreError, SweepJournal};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("rsg-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&d);
    d
}

#[test]
fn aborted_sweep_resumes_bit_identical_with_no_recompute() {
    let _guard = rsg::obs::test_guard();
    let grid = ObservationGrid::tiny();
    let cfg = CurveConfig::default();
    let thetas = [0.001, 0.05];
    let refine = 2;
    let total = grid.cells();
    let abort_after = 5;
    assert!(abort_after < total);

    // The ground truth: an uninterrupted (non-checkpointed) sweep.
    let clean = measure(&grid, &cfg, &thetas, refine);
    let clean_tsv = knee_tables_to_tsv(&clean);

    let journal = tmpdir("abort").join("sweep.journal");
    let _ = std::fs::remove_file(&journal);
    rsg::obs::enable(true);

    // Run 1: the injected cell budget kills the sweep mid-way. The
    // journal must hold exactly the completed cells.
    rsg::obs::reset();
    let mut ckpt = CheckpointConfig::new(&journal);
    ckpt.cell_budget = Some(abort_after);
    let err = measure_checkpointed(&grid, &cfg, &thetas, refine, &ckpt).unwrap_err();
    match err {
        StoreError::Aborted {
            completed,
            total: t,
        } => {
            assert_eq!(completed, abort_after);
            assert_eq!(t, total);
        }
        other => panic!("expected an abort, got {other:?}"),
    }
    let report = rsg::obs::RunReport::capture();
    assert_eq!(report.counter("core.store.cells_resumed"), 0);
    assert_eq!(
        report.counter("core.store.cells_checkpointed"),
        abort_after as u64
    );
    assert_eq!(
        report.counter("core.sweep.dags_generated"),
        (abort_after * grid.instances) as u64,
        "the aborted run generates only the cells it computed"
    );

    // Run 2: restart with no budget. Every journaled cell is resumed —
    // not recomputed — and the tables are byte-identical to the clean
    // run.
    rsg::obs::reset();
    ckpt.cell_budget = None;
    let resumed = measure_checkpointed(&grid, &cfg, &thetas, refine, &ckpt).unwrap();
    let report = rsg::obs::RunReport::capture();
    assert_eq!(
        report.counter("core.store.cells_resumed"),
        abort_after as u64,
        "exactly the aborted run's cells must be served from the journal"
    );
    assert_eq!(
        report.counter("core.store.cells_checkpointed"),
        (total - abort_after) as u64
    );
    assert_eq!(
        report.counter("core.sweep.dags_generated"),
        ((total - abort_after) * grid.instances) as u64,
        "resume generates only the cells it still owes"
    );
    assert_eq!(
        knee_tables_to_tsv(&resumed),
        clean_tsv,
        "resumed tables must serialize byte-identically to a clean run"
    );

    // Run 3: everything is journaled now. The sweep replays the whole
    // grid and performs zero ladder evaluations.
    rsg::obs::reset();
    let replayed = measure_checkpointed(&grid, &cfg, &thetas, refine, &ckpt).unwrap();
    let report = rsg::obs::RunReport::capture();
    assert_eq!(report.counter("core.store.cells_resumed"), total as u64);
    assert_eq!(
        report.counter("core.sweep.ladder_evals"),
        0,
        "a fully-journaled sweep must not re-evaluate any cell"
    );
    assert_eq!(report.counter("core.sweep.dags_generated"), 0);
    assert_eq!(knee_tables_to_tsv(&replayed), clean_tsv);

    rsg::obs::enable(false);
}

#[test]
fn damaged_journal_tail_recomputes_only_the_tail() {
    let _guard = rsg::obs::test_guard();
    let grid = ObservationGrid::tiny();
    let cfg = CurveConfig::default();
    let thetas = [0.01];
    let clean_tsv = knee_tables_to_tsv(&measure(&grid, &cfg, &thetas, 0));

    let journal = tmpdir("torn").join("sweep.journal");
    let _ = std::fs::remove_file(&journal);
    let ckpt = CheckpointConfig::new(&journal);
    measure_checkpointed(&grid, &cfg, &thetas, 0, &ckpt).unwrap();

    // Simulate a crash mid-append: leave half a cell line at the tail.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        f.write_all(b"cell\t999\t4.0").unwrap();
    }
    let resumed = measure_checkpointed(&grid, &cfg, &thetas, 0, &ckpt).unwrap();
    assert_eq!(knee_tables_to_tsv(&resumed), clean_tsv);
}

#[test]
fn corrupt_journal_is_quarantined_not_trusted() {
    // measure_checkpointed bumps the global core.store.* counters that
    // the resume test asserts on exactly.
    let _guard = rsg::obs::test_guard();
    let grid = ObservationGrid::tiny();
    let cfg = CurveConfig::default();
    let thetas = [0.01];
    let clean_tsv = knee_tables_to_tsv(&measure(&grid, &cfg, &thetas, 0));

    let dir = tmpdir("corrupt");
    let journal = dir.join("sweep.journal");
    let _ = std::fs::remove_file(dir.join("sweep.journal.corrupt"));
    std::fs::write(&journal, "not a journal at all\ncell\t0\tgarbage\n").unwrap();
    let ckpt = CheckpointConfig::new(&journal);
    let tables = measure_checkpointed(&grid, &cfg, &thetas, 0, &ckpt).unwrap();
    assert_eq!(knee_tables_to_tsv(&tables), clean_tsv);
    assert!(
        dir.join("sweep.journal.corrupt").exists(),
        "the damaged journal must be preserved for inspection"
    );
}

#[test]
fn journal_verify_reports_cells() {
    // See corrupt_journal_is_quarantined_not_trusted.
    let _guard = rsg::obs::test_guard();
    let grid = ObservationGrid::tiny();
    let cfg = CurveConfig::default();
    let thetas = [0.001, 0.05];
    let journal = tmpdir("verify").join("sweep.journal");
    let _ = std::fs::remove_file(&journal);
    let ckpt = CheckpointConfig::new(&journal);
    measure_checkpointed(&grid, &cfg, &thetas, 0, &ckpt).unwrap();
    let (_fp, t, good, bad) = SweepJournal::verify(&journal).unwrap();
    assert_eq!(t, thetas.len());
    assert_eq!(good, grid.cells());
    assert_eq!(bad, 0);
}

#[test]
fn envelope_survives_crash_simulation() {
    // A torn artifact write (the temp file) never shadows the real
    // slot, and a damaged envelope read is a typed error.
    let dir = tmpdir("envelope");
    let path = dir.join("artifact.tsv");
    store::write_atomic(&path, "knee-tables", "v1\n").unwrap();
    // Leftover temp file from a "crashed" writer must not disturb reads.
    std::fs::write(dir.join("artifact.tsv.tmp-99999"), "partial garbage").unwrap();
    assert_eq!(store::read_artifact(&path, "knee-tables").unwrap(), "v1\n");
    // Truncate the artifact itself: typed corruption, never a panic.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() - 2]).unwrap();
    let err = store::read_artifact(&path, "knee-tables").unwrap_err();
    assert!(err.is_corruption(), "{err:?}");
}
