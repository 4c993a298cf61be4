//! Live platform tracking for the serving tier.
//!
//! [`PushTracker`] wraps the core [`PushEngine`] with everything the
//! daemon needs around it: delta-batch linting (via `rsg-analyze`, so
//! a bad batch is refused before any state mutates), an optional
//! durable [`DeltaJournal`] replayed on boot, wall-clock staleness
//! (the engine itself is clock-free; the tracker stamps gap age so
//! `/readyz` can flip once answers get too stale), and an automatic
//! anti-entropy audit cadence — every [`AUDIT_EVERY_BATCHES`]th batch
//! triggers a seeded sample audit without any operator timer.
//!
//! The tracker is built lazily on first use: a daemon that never sees
//! a delta never pays for the initial sweep.

use rsg_analyze::{code_for, lint_delta_batch, DeltaDiagnostic};
use rsg_core::observation::ObservationGrid;
use rsg_core::push::{AuditReport, BatchOutcome, DeltaJournal, DeltaRecord, PushEngine, Staleness};
use rsg_core::{CurveConfig, StoreError, THRESHOLD_LADDER};
use rsg_obs::Counter;
use rsg_platform::delta::DeltaError;
use rsg_platform::{CostModel, Platform, ResourceGenSpec, TopologySpec};
use std::path::PathBuf;
use std::sync::{Mutex, RwLock};
use std::time::Instant;

/// Recovered journal records the boot replay had to drop (each one was
/// individually refused by the engine — e.g. a record that was
/// drain-dropped live and is just as invalid on replay). Nonzero after
/// boot is survivable but worth an operator's look.
static OBS_REPLAY_DROPPED: Counter = Counter::new("push.replay_dropped");

/// A full audit pass is forced after this many accepted delta batches —
/// the "periodic" in periodic anti-entropy, counted in batches rather
/// than wall time so the cadence is deterministic under test.
pub const AUDIT_EVERY_BATCHES: u64 = 16;

/// Cells sampled by one automatic audit pass (explicit audits pick
/// their own sample size).
pub const AUDIT_SAMPLE: usize = 4;

/// Why a delta batch was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// The batch tripped error-level delta lints, or the engine itself
    /// refused it (it validates state the lints cannot see — its
    /// parked buffer); nothing was applied.
    Lint(Vec<DeltaDiagnostic>),
    /// The engine applied the batch but the journal could not durably
    /// record it. The in-memory state (and every answer) already
    /// reflects the batch; redelivering it once the journal is healthy
    /// is safe (idempotent) and restores durability. Journaling happens
    /// *after* apply so the journal can never hold records the engine
    /// refused — replay never resurrects a rejected batch.
    Journal(StoreError),
}

/// Everything one accepted batch produced, for the admin response.
#[derive(Debug, Clone, Copy)]
pub struct SubmitOutcome {
    /// What the engine did with the records.
    pub batch: BatchOutcome,
    /// Staleness after the batch.
    pub staleness: Staleness,
    /// The automatic audit, when this batch crossed the cadence.
    pub audit: Option<AuditReport>,
}

/// Serving-tier wrapper around the push engine: lint → apply →
/// journal → audit cadence, plus wall-clock gap age.
pub struct PushTracker {
    engine: Mutex<PushEngine>,
    journal: Option<DeltaJournal>,
    /// Snapshot of the engine's staleness stamp, refreshed at the end
    /// of every accepted batch. Answer threads read this instead of
    /// locking the engine, so a long recompute (which holds the engine
    /// lock) never blocks `/spec`, `/predict`, `/lint` or `/readyz`.
    stamp: RwLock<Staleness>,
    /// When the currently open sequence gap was first observed; `None`
    /// while fully contiguous. Drives the staleness age.
    gap_since: Mutex<Option<Instant>>,
    batches: Mutex<u64>,
    /// Subject every delta diagnostic from this tracker carries: the
    /// journal path when one is configured, else the admin endpoint.
    subject: String,
}

impl PushTracker {
    /// Builds the tracker over the deterministic negotiation platform
    /// (the same 40-cluster / 1200-host universe the CLI and the
    /// negotiation path bind against) with the tiny observation grid —
    /// small enough that the initial sweep is a boot-time cost, real
    /// enough that every delta path exercises the full kernel. When
    /// `journal_path` is set, the journal is opened (torn tails
    /// truncated, corrupt files quarantined) and every recovered
    /// record replayed through the engine.
    pub fn new(journal_path: Option<PathBuf>) -> Result<PushTracker, StoreError> {
        let subject = journal_path.as_deref().map_or_else(
            || "/admin/platform".to_string(),
            |p| p.display().to_string(),
        );
        let platform = Platform::generate(
            ResourceGenSpec {
                clusters: 40,
                year: 2006,
                target_hosts: Some(1200),
            },
            TopologySpec::default(),
            11,
        );
        let mut engine = PushEngine::new(
            ObservationGrid::tiny(),
            CurveConfig::default(),
            THRESHOLD_LADDER.to_vec(),
            0,
            platform,
            CostModel::default(),
        );
        let journal = match journal_path {
            Some(p) => {
                let j = DeltaJournal::open(&p, engine.fingerprint())?;
                // Replay record-by-record, in file order, with the same
                // tolerance the live drain path has: a recovered record
                // the engine refuses (e.g. one that was drain-dropped
                // live and is just as invalid replayed) is dropped and
                // counted, never allowed to poison the rest of the
                // replay. Replaying the whole file as one batch would
                // give such a record strict batch validation and roll
                // back *everything* — durable state silently gone.
                let dropped = j
                    .recovered()
                    .iter()
                    .filter(|rec| engine.submit_batch(std::slice::from_ref(rec)).is_err())
                    .count();
                OBS_REPLAY_DROPPED.add(dropped as u64);
                Some(j)
            }
            None => None,
        };
        let gap_open = engine.gap().is_some();
        let stamp = engine.staleness();
        Ok(PushTracker {
            engine: Mutex::new(engine),
            journal,
            stamp: RwLock::new(stamp),
            gap_since: Mutex::new(gap_open.then(Instant::now)),
            subject,
            batches: Mutex::new(0),
        })
    }

    /// Lints, applies and journals one delta batch. Any error-level
    /// lint — or an engine refusal — rejects the whole batch (422
    /// upstream) with no state change. Journaling happens only *after*
    /// the engine accepts, so the journal never records a batch the
    /// caller was told was refused; a journal-write failure after apply
    /// is reported as [`SubmitError::Journal`] (redeliver to restore
    /// durability — idempotent). On success the staleness snapshot, gap
    /// clock and audit cadence advance.
    pub fn submit(&self, records: &[DeltaRecord]) -> Result<SubmitOutcome, SubmitError> {
        let mut engine = self.engine.lock().unwrap_or_else(|e| e.into_inner());
        let subject = self.subject.clone();
        let diags = lint_delta_batch(
            records,
            engine.platform(),
            engine.staleness().applied_seq,
            &subject,
        );
        if !diags.is_empty() {
            return Err(SubmitError::Lint(diags));
        }
        // The engine can still refuse what the lints passed: it sees
        // state they cannot — a gap fill drains parked records that
        // reshape the platform under later in-batch records, and a
        // redelivered seq can conflict with a parked payload. Either
        // way the engine is transactional: nothing was applied.
        let batch = match engine.submit_batch(records) {
            Ok(b) => b,
            Err(e) => {
                let seq = match e {
                    DeltaError::ConflictingSeq(s) => s,
                    _ => 0,
                };
                return Err(SubmitError::Lint(vec![DeltaDiagnostic {
                    code: code_for(&e),
                    subject,
                    seq,
                    detail: e.to_string(),
                }]));
            }
        };
        let staleness = engine.staleness();
        *self.stamp.write().unwrap_or_else(|e| e.into_inner()) = staleness;
        self.note_gap(engine.gap().is_some());
        if let Some(j) = &self.journal {
            if let Err(e) = j.append_batch(records) {
                return Err(SubmitError::Journal(e));
            }
        }

        let mut audit = None;
        {
            let mut batches = self.batches.lock().unwrap_or_else(|e| e.into_inner());
            *batches += 1;
            if (*batches).is_multiple_of(AUDIT_EVERY_BATCHES) {
                audit = Some(engine.audit(AUDIT_SAMPLE, *batches));
            }
        }
        Ok(SubmitOutcome {
            batch,
            staleness,
            audit,
        })
    }

    /// Runs an explicit anti-entropy audit over `sample` cells.
    pub fn audit(&self, sample: usize, salt: u64) -> AuditReport {
        let mut engine = self.engine.lock().unwrap_or_else(|e| e.into_inner());
        engine.audit(sample, salt)
    }

    /// Current staleness stamp plus wall-clock age: `age_s` is how long
    /// the oldest unapplied delta has been waiting (0 while fully
    /// contiguous). Wrong answers are impossible either way — age only
    /// measures how far behind the live platform the answers run.
    ///
    /// Reads the cached snapshot, never the engine lock — a batch
    /// mid-recompute cannot stall the answer path that calls this on
    /// every response.
    pub fn staleness(&self) -> (Staleness, f64) {
        let staleness = *self.stamp.read().unwrap_or_else(|e| e.into_inner());
        let gap = self.gap_since.lock().unwrap_or_else(|e| e.into_inner());
        let age_s = gap.map_or(0.0, |t| t.elapsed().as_secs_f64());
        (staleness, age_s)
    }

    /// Test hook: poisons one engine cell so an audit has something to
    /// find (see [`PushEngine::poison_cell`]).
    #[doc(hidden)]
    pub fn poison_cell(&self, c: usize) {
        let mut engine = self.engine.lock().unwrap_or_else(|e| e.into_inner());
        engine.poison_cell(c);
    }

    fn note_gap(&self, open: bool) {
        let mut gap = self.gap_since.lock().unwrap_or_else(|e| e.into_inner());
        match (open, gap.is_some()) {
            (true, false) => *gap = Some(Instant::now()),
            (false, true) => *gap = None,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_platform::delta::PlatformDelta;
    use rsg_platform::ClusterId;

    #[test]
    fn tracker_lints_journals_and_tracks_gaps() {
        let dir = std::env::temp_dir().join(format!("rsg-tracker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deltas.journal");

        let tracker = PushTracker::new(Some(path.clone())).unwrap();
        // Bad batch → lint refusal, no state change.
        let bad = [DeltaRecord {
            seq: 1,
            delta: PlatformDelta::ClockDrift {
                cluster: ClusterId(0),
                clock_mhz: f64::NAN,
            },
        }];
        match tracker.submit(&bad) {
            Err(SubmitError::Lint(diags)) => {
                assert!(!diags.is_empty());
                // Journal-backed trackers attribute every refusal to
                // the journal file, so multi-stream operators can tell
                // which stream misbehaved.
                assert!(
                    diags
                        .iter()
                        .all(|d| d.subject == path.display().to_string()),
                    "{diags:?}"
                );
            }
            other => panic!("expected a lint refusal, got {other:?}"),
        }
        assert_eq!(tracker.staleness().0.applied_seq, 0);

        // Gapped batch → parked, staleness age starts ticking.
        let gapped = [DeltaRecord {
            seq: 2,
            delta: PlatformDelta::PriceChange {
                dollars_per_hour: 0.2,
            },
        }];
        let out = tracker.submit(&gapped).unwrap();
        assert_eq!(out.batch.parked, 1);
        assert_eq!(out.staleness.lag, 2);

        // Fill the gap → contiguous again, age resets.
        let fill = [DeltaRecord {
            seq: 1,
            delta: PlatformDelta::PriceChange {
                dollars_per_hour: 0.15,
            },
        }];
        let out = tracker.submit(&fill).unwrap();
        assert_eq!(out.batch.applied, 2);
        assert!(out.batch.resynced);
        let (staleness, age_s) = tracker.staleness();
        assert_eq!(staleness.lag, 0);
        assert_eq!(age_s, 0.0);
        drop(tracker);

        // A rebuilt tracker replays the journal to the same state.
        let tracker = PushTracker::new(Some(path)).unwrap();
        let (staleness, _) = tracker.staleness();
        assert_eq!(staleness.applied_seq, 2);
        assert_eq!(staleness.lag, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn conflicting_parked_redelivery_maps_to_delta002() {
        let tracker = PushTracker::new(None).unwrap();
        let parked = [DeltaRecord {
            seq: 2,
            delta: PlatformDelta::PriceChange {
                dollars_per_hour: 0.2,
            },
        }];
        assert_eq!(tracker.submit(&parked).unwrap().batch.parked, 1);
        let conflict = [DeltaRecord {
            seq: 2,
            delta: PlatformDelta::PriceChange {
                dollars_per_hour: 0.9,
            },
        }];
        match tracker.submit(&conflict) {
            Err(SubmitError::Lint(diags)) => {
                assert_eq!(diags.len(), 1);
                assert_eq!(diags[0].code, rsg_analyze::DeltaCode::ConflictingSeq);
                assert_eq!(diags[0].seq, 2);
                // Journal-less trackers attribute to the live endpoint.
                assert_eq!(diags[0].subject, "/admin/platform");
            }
            other => panic!("expected a DELTA002 refusal, got {other:?}"),
        }
        // The refusal changed nothing: the original record still parks.
        assert_eq!(tracker.staleness().0.highest_seen, 2);
    }

    /// The review scenario: a parked record that turns invalid when its
    /// gap fills is drain-dropped live and the stream continues. The
    /// journal holds both records, so a naive whole-batch replay would
    /// give the dropped record strict validation, error, and roll back
    /// the entire recovered state. Record-by-record replay must land on
    /// exactly the live outcome instead.
    #[test]
    fn replay_tolerates_drain_dropped_records() {
        let dir = std::env::temp_dir().join(format!("rsg-tracker-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deltas.journal");

        // Same platform the tracker builds, to read real host counts.
        let platform = Platform::generate(
            ResourceGenSpec {
                clusters: 40,
                year: 2006,
                target_hosts: Some(1200),
            },
            TopologySpec::default(),
            11,
        );
        let (c, have) = platform
            .clusters()
            .iter()
            .enumerate()
            .map(|(i, cl)| (i, cl.hosts))
            .find(|&(_, h)| h >= 4)
            .expect("a cluster with at least 4 hosts");
        let c = ClusterId(c as u32);

        let tracker = PushTracker::new(Some(path.clone())).unwrap();
        // seq 2 parks; it is valid against the *current* platform but
        // will underflow once seq 1 shrinks the cluster.
        let out = tracker
            .submit(&[DeltaRecord {
                seq: 2,
                delta: PlatformDelta::HostLeave {
                    cluster: c,
                    hosts: have - 1,
                },
            }])
            .unwrap();
        assert_eq!(out.batch.parked, 1);
        // seq 1 fills the gap and shrinks the cluster, so draining
        // seq 2 underflows: it is dropped and the stream continues.
        let out = tracker
            .submit(&[DeltaRecord {
                seq: 1,
                delta: PlatformDelta::HostLeave {
                    cluster: c,
                    hosts: 2,
                },
            }])
            .unwrap();
        assert_eq!(out.batch.applied, 1);
        assert_eq!(out.batch.rejected, 1);
        let (live, _) = tracker.staleness();
        assert_eq!(live.applied_seq, 2);
        assert_eq!(live.lag, 0);
        drop(tracker);

        // Reboot: the replay must reproduce the live state, not roll
        // back to seq 0 because the drain-dropped record re-errors.
        let tracker = PushTracker::new(Some(path)).unwrap();
        let (replayed, age_s) = tracker.staleness();
        assert_eq!(replayed, live);
        assert_eq!(age_s, 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
