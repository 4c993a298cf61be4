//! End-to-end convergence proof for the push-mode incremental engine:
//! a seeded delta stream delivered shuffled, with duplicates and one
//! corrupt journal record, must leave the engine bit-identical to a
//! from-scratch sweep of the final platform — with zero divergence
//! found by the anti-entropy audit and zero `push.divergence` counted.
//!
//! Small enough for every test run, hostile enough to exercise the
//! journal's torn-tail truncation and the quarantine-and-resync
//! redelivery path. The cells single deltas dirty are pinned by
//! `tests/work_counters.rs`.

use rsg::core::curve::CurveConfig;
use rsg::core::observation::ObservationGrid;
use rsg::core::push::{measure_on_platform, DeltaJournal, DeltaRecord, PushEngine};
use rsg::core::THRESHOLD_LADDER;
use rsg::platform::delta::PlatformDelta;
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

/// splitmix64 — the stream must be identical across runs and machines.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of `n` deltas, each validated against a scratch
/// platform so the sequence stays legal when applied in order.
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

#[test]
fn hostile_delta_stream_converges_to_the_from_scratch_sweep() {
    let _guard = rsg::obs::test_guard();
    rsg::obs::enable(true);
    rsg::obs::reset();

    let stream = delta_stream(&platform(), 10, 0x5EED_CAFE);

    // Shuffle into a hostile delivery order and duplicate every third
    // record — out-of-order arrival plus at-least-once redelivery.
    let mut order: Vec<usize> = (0..stream.len()).collect();
    let mut state = 0x5EED_CAFEu64 ^ 0xDEAD_BEEF;
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut delivery: Vec<DeltaRecord> = order.iter().map(|&i| stream[i]).collect();
    let dupes: Vec<DeltaRecord> = delivery.iter().step_by(3).copied().collect();
    delivery.extend(dupes);

    // Journal the delivery, then splice one corrupt record into the
    // middle of the file — its checksum cannot match, so replay must
    // truncate there (everything after a damaged record is untrusted).
    let dir = std::env::temp_dir().join(format!("rsg-push-conv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let jpath = dir.join("deltas.journal");
    let fp = engine().fingerprint();
    {
        let j = DeltaJournal::open(&jpath, fp).expect("journal");
        for rec in &delivery {
            j.append(rec).expect("append");
        }
    }
    let text = std::fs::read_to_string(&jpath).expect("read journal");
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(lines.len() / 2, "delta\t9999\tprice\t0.5\t0123456789abcdef");
    std::fs::write(&jpath, format!("{}\n", lines.join("\n"))).expect("rewrite");

    // Replay the surviving prefix into a fresh engine, then redeliver
    // the full stream: idempotent apply drops what the prefix already
    // covered and the redelivery closes the truncation gap.
    let j = DeltaJournal::open(&jpath, fp).expect("reopen");
    let recovered: Vec<DeltaRecord> = j.recovered().to_vec();
    assert!(
        recovered.len() < delivery.len(),
        "the corrupt record must truncate the replay ({} of {} survived)",
        recovered.len(),
        delivery.len()
    );
    let mut eng = engine();
    for chunk in recovered.chunks(4) {
        eng.submit_batch(chunk).expect("replay chunk");
    }
    for chunk in delivery.chunks(4) {
        eng.submit_batch(chunk).expect("resync chunk");
    }
    assert_eq!(eng.staleness().lag, 0, "redelivery must close every gap");
    assert_eq!(eng.gap(), None);

    // Bit-identity against a from-scratch sweep of the final platform:
    // the incremental path must not be approximately right.
    let reference = measure_on_platform(
        &ObservationGrid::tiny(),
        &CurveConfig::default(),
        &THRESHOLD_LADDER,
        0,
        eng.platform(),
    );
    assert_eq!(
        eng.tables(),
        &reference[..],
        "incremental state diverged from the from-scratch sweep"
    );

    // The anti-entropy audit over every cell agrees.
    let report = eng.audit(eng.cells(), 0x5EED_CAFE);
    assert_eq!(report.checked, eng.cells());
    assert_eq!(report.divergent, 0);

    // Counter-level contract: deltas applied, at least one resync,
    // zero divergence ever recorded. (capture() drops zero counters,
    // so divergence must be absent.)
    let counters = rsg::obs::RunReport::capture().counters;
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(get("push.deltas_applied"), stream.len() as u64);
    assert!(get("push.deltas_duplicate") > 0, "duplicates were injected");
    assert!(
        get("push.resyncs") >= 1,
        "the truncation gap forced a resync"
    );
    assert_eq!(get("push.divergence"), 0);

    // The delta journal reports through the store's counters: one
    // fsync for the fresh header plus one per appended record, one
    // checksum failure (the spliced record ending the replay), one
    // replay that recovered records, nothing quarantined.
    assert_eq!(get("core.store.fsyncs"), 1 + delivery.len() as u64);
    assert_eq!(get("core.store.checksum_failures"), 1);
    assert_eq!(get("core.store.journal_replays"), 1);
    assert_eq!(get("core.store.quarantined"), 0);

    rsg::obs::reset();
    rsg::obs::enable(false);
    let _ = std::fs::remove_dir_all(&dir);
}
