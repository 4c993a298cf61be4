//! Differential proof that the push engine commits exactly what the
//! [`DeltaSequencer`] decides: the sequencer `rsg audit` folds delta
//! journals with must agree bit-for-bit with the live [`PushEngine`]
//! on every verdict — per-batch accept/reject, the outcome counters,
//! the final `applied_seq` / `highest_seen`, and the folded platform
//! itself — over seeded streams of valid, gapped, conflicting and
//! journal-corrupted deliveries.
//!
//! If these two ever disagree, `rsg audit` would either bless a
//! deployment the server will refuse to boot, or condemn one it would
//! happily serve. Neither is tolerable, so this test is the contract.

use rsg::core::curve::CurveConfig;
use rsg::core::observation::ObservationGrid;
use rsg::core::push::{BatchOutcome, DeltaJournal, DeltaRecord, PushEngine};
use rsg::core::THRESHOLD_LADDER;
use rsg::platform::delta::{DeltaSequencer, PlatformDelta, SequenceOutcome};
use rsg::platform::{ClusterId, CostModel, Platform, ResourceGenSpec, TopologySpec};

fn platform() -> Platform {
    let spec = ResourceGenSpec {
        clusters: 8,
        year: 2006,
        target_hosts: Some(240),
    };
    Platform::generate(spec, TopologySpec::default(), 11)
}

fn engine() -> PushEngine {
    PushEngine::new(
        ObservationGrid::tiny(),
        CurveConfig::default(),
        THRESHOLD_LADDER.to_vec(),
        0,
        platform(),
        CostModel::default(),
    )
}

/// splitmix64 — the streams must be identical across runs and machines.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of `n` deltas legal when applied in order — the same
/// generator the push-convergence test uses.
fn delta_stream(p: &Platform, n: usize, seed: u64) -> Vec<DeltaRecord> {
    let mut state = seed;
    let mut scratch = p.clone();
    let mut cost = CostModel::default();
    let mut out = Vec::with_capacity(n);
    for seq in 1..=n as u64 {
        let clusters = scratch.clusters().len();
        let delta = loop {
            let c = ClusterId((splitmix(&mut state) % clusters as u64) as u32);
            let have = scratch.clusters()[c.index()].hosts;
            let candidate = match splitmix(&mut state) % 5 {
                0 => PlatformDelta::HostJoin {
                    cluster: c,
                    hosts: 1 + (splitmix(&mut state) % 4) as u32,
                },
                1 if have > 2 => PlatformDelta::HostLeave {
                    cluster: c,
                    hosts: 1,
                },
                2 => PlatformDelta::ClockDrift {
                    cluster: c,
                    clock_mhz: (scratch.clusters()[c.index()].clock_mhz
                        * (0.95 + (splitmix(&mut state) % 11) as f64 / 100.0))
                        .clamp(900.0, 30_000.0),
                },
                3 => PlatformDelta::BandwidthDrift {
                    cluster: c,
                    factor: 0.5 + (splitmix(&mut state) % 100) as f64 / 100.0,
                },
                _ => PlatformDelta::PriceChange {
                    dollars_per_hour: 0.05 + (splitmix(&mut state) % 40) as f64 / 100.0,
                },
            };
            if candidate.apply(&mut scratch, &mut cost).is_ok() {
                break candidate;
            }
        };
        out.push(DeltaRecord { seq, delta });
    }
    out
}

/// Mutates a legal stream into one of the hostile shapes the auditor
/// must judge identically to the engine.
fn distort(stream: &mut Vec<DeltaRecord>, shape: u64, state: &mut u64) {
    match shape {
        // Valid, but shuffled with duplicates — at-least-once delivery.
        0 => {
            for i in (1..stream.len()).rev() {
                let j = (splitmix(state) % (i as u64 + 1)) as usize;
                stream.swap(i, j);
            }
            let dupes: Vec<DeltaRecord> = stream.iter().step_by(3).copied().collect();
            stream.extend(dupes);
        }
        // Gapped: drop a record from the middle, never redelivered.
        1 => {
            let drop = 1 + (splitmix(state) as usize % (stream.len() - 1));
            stream.remove(drop);
        }
        // Conflicting redelivery: one seq arrives twice with different
        // payloads.
        2 => {
            let i = (splitmix(state) as usize) % stream.len();
            let mut twin = stream[i];
            twin.delta = PlatformDelta::PriceChange {
                dollars_per_hour: 123.75,
            };
            stream.push(twin);
        }
        // Everything at once: shuffle, duplicate, drop, contradict.
        _ => {
            distort(stream, 0, state);
            distort(stream, 1, state);
            distort(stream, 2, state);
        }
    }
}

fn assert_outcomes_match(
    seed: u64,
    batch: usize,
    fold: &Result<SequenceOutcome, rsg::platform::delta::DeltaError>,
    real: &Result<BatchOutcome, rsg::platform::delta::DeltaError>,
) {
    match (fold, real) {
        (Ok(f), Ok(r)) => {
            let f = (f.applied, f.duplicates, f.parked, f.rejected, f.resynced);
            let r = (r.applied, r.duplicates, r.parked, r.rejected, r.resynced);
            assert_eq!(f, r, "seed {seed:#x} batch {batch}: outcome drift");
        }
        (Err(fe), Err(re)) => {
            assert_eq!(
                format!("{fe:?}"),
                format!("{re:?}"),
                "seed {seed:#x} batch {batch}: refusal drift"
            );
        }
        (f, r) => {
            panic!("seed {seed:#x} batch {batch}: verdict drift — fold {f:?} vs engine {r:?}")
        }
    }
}

fn assert_platforms_match(seed: u64, fold: &DeltaSequencer, eng: &PushEngine) {
    assert_eq!(
        fold.applied_seq(),
        eng.staleness().applied_seq,
        "seed {seed:#x}: applied_seq drift"
    );
    assert_eq!(
        fold.highest_seen(),
        eng.staleness().highest_seen,
        "seed {seed:#x}: highest_seen drift"
    );
    assert_eq!(fold.gap(), eng.gap(), "seed {seed:#x}: gap drift");
    let (fp, ep) = (fold.platform(), eng.platform());
    assert_eq!(
        fp.clusters().len(),
        ep.clusters().len(),
        "seed {seed:#x}: cluster count drift"
    );
    for (i, (a, b)) in fp.clusters().iter().zip(ep.clusters()).enumerate() {
        assert_eq!(
            a.hosts, b.hosts,
            "seed {seed:#x}: host drift at cluster {i}"
        );
        assert_eq!(
            a.clock_mhz.to_bits(),
            b.clock_mhz.to_bits(),
            "seed {seed:#x}: clock drift at cluster {i}"
        );
    }
    assert_eq!(
        fold.cost().dollars_per_hour.to_bits(),
        eng.cost().dollars_per_hour.to_bits(),
        "seed {seed:#x}: cost drift"
    );
}

/// The core differential property: for seeded valid / gapped /
/// conflicting streams, delivered in identical batch segmentation, the
/// static fold and the live engine return bit-identical verdicts and
/// end in bit-identical platform state.
#[test]
fn static_fold_matches_push_engine_on_hostile_streams() {
    // One engine build per case is the expensive part (a full tiny
    // sweep); 12 cases × 4 shapes stays well under tier-1 budget.
    for case in 0..12u64 {
        let seed = 0xA0D1_7000 + case;
        let shape = case % 4;
        let mut state = seed ^ 0xFACE_FEED;
        let mut stream = delta_stream(&platform(), 8, seed);
        distort(&mut stream, shape, &mut state);

        let mut eng = engine();
        let mut fold = DeltaSequencer::new(platform(), CostModel::default());
        let batch_len = 1 + (splitmix(&mut state) as usize % 4);
        for (b, chunk) in stream.chunks(batch_len).enumerate() {
            let f = fold.submit_batch(chunk);
            let r = eng.submit_batch(chunk);
            assert_outcomes_match(seed, b, &f, &r);
        }
        assert_platforms_match(seed, &fold, &eng);
    }
}

/// The corrupt-tail path: a journal with a damaged record in the middle
/// truncates on open; replaying the surviving prefix record-by-record
/// (exactly how the serve boot path does it) must leave fold and engine
/// in the same state, and the fold's tolerant `replay` must refuse
/// nothing the engine would have accepted.
#[test]
fn static_fold_matches_push_engine_through_corrupt_journal_replay() {
    let seed = 0xC0DE_D00Du64;
    let stream = delta_stream(&platform(), 10, seed);

    let dir = std::env::temp_dir().join(format!("rsg-fold-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let jpath = dir.join("deltas.journal");
    let mut eng = engine();
    {
        let j = DeltaJournal::open(&jpath, eng.fingerprint()).expect("journal");
        for rec in &stream {
            j.append(rec).expect("append");
        }
    }
    let text = std::fs::read_to_string(&jpath).expect("read");
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(lines.len() / 2, "delta\t9999\tprice\t0.5\t0123456789abcdef");
    std::fs::write(&jpath, format!("{}\n", lines.join("\n"))).expect("rewrite");

    // The auditor reads without truncating; the boot path truncates.
    // Both see the same surviving prefix.
    let (_, audited, damaged) = DeltaJournal::read_records(&jpath).expect("read_records");
    let j = DeltaJournal::open(&jpath, eng.fingerprint()).expect("reopen");
    assert_eq!(audited, j.recovered(), "auditor and boot replay disagree");
    assert!(damaged > 0, "the spliced record must be counted as damage");

    let mut fold = DeltaSequencer::new(platform(), CostModel::default());
    let refusals = fold.replay(&audited);
    for rec in &audited {
        eng.submit_batch(std::slice::from_ref(rec)).expect("replay");
    }
    assert!(
        refusals.is_empty(),
        "fold refused records the engine accepted: {refusals:?}"
    );
    assert_platforms_match(seed, &fold, &eng);

    let _ = std::fs::remove_dir_all(&dir);
}
