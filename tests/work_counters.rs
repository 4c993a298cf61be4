//! Exact work counters for the three paths the program is measured on.
//!
//! The paper charges a scheduler by a modeled operation count (§III.3,
//! Fig V-12), so the work the program does is deterministic and can be
//! pinned exactly. One test runs three jobs in order and compares their
//! counters against `tests/fixtures/work_counters.tsv`:
//!
//! - `sweep`: the tiny observation sweep (`measure` on
//!   `ObservationGrid::tiny()`, the threshold ladder, 2 refinement
//!   rounds). It runs once with observability off and once with
//!   collection and live tracing on, and the knee tables of the two
//!   runs must be identical: instrumentation never perturbs results.
//! - `spec`: a fixed set of `/spec` bodies with full DAG documents,
//!   half of them negotiating, run in process through
//!   `rsg_serve::handlers::handle` over the shipped `models/` tree.
//! - `push`: three single-delta batches on a tiny-grid `PushEngine`
//!   (single-host join outside the footprint, price change only, clock
//!   drift on the fastest cluster), each with its `BatchOutcome`
//!   `dirtied`/`recomputed`.
//!
//! Pinned: every `sched.*` counter except `sched.kernel.scratch_*`
//! (those follow how the rayon shim hands work to threads), plus
//! `core.sweep.*`, `core.negotiate.attempts.*` and
//! `push.cells_recomputed`. A change that makes the program do more or
//! less work fails here, whatever the wall clock says.
//!
//! The obs registry is process-global. This file holds a single test,
//! so it owns its process and needs no `obs::test_guard()`.
//!
//! Regenerate after an intentional change with
//! `RSG_UPDATE_GOLDEN=1 cargo test --test work_counters`.

use rsg::core::curve::CurveConfig;
use rsg::core::observation::{measure, ObservationGrid};
use rsg::core::push::{DeltaRecord, PushEngine};
use rsg::core::THRESHOLD_LADDER;
use rsg::dag::io::write_dag;
use rsg::dag::RandomDagSpec;
use rsg::platform::delta::PlatformDelta;
use rsg::platform::{CostModel, Platform, ResourceGenSpec, TopologySpec};
use rsg::serve::handlers::{handle, ServerContext};
use rsg::serve::{Deadline, HttpRequest, ModelRegistry};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// A deadline no request reaches, so no answer depends on timing.
const DEADLINE_S: f64 = 3600.0;

/// Whether a counter is pinned.
fn pinned(name: &str) -> bool {
    (name.starts_with("sched.") && !name.starts_with("sched.kernel.scratch_"))
        || name.starts_with("core.sweep.")
        || name.starts_with("core.negotiate.attempts.")
        || name == "push.cells_recomputed"
}

/// Appends the pinned counters recorded since the last reset as
/// `job\tcounter\tvalue` rows.
fn counters(out: &mut String, job: &str) {
    for (name, value) in rsg::obs::RunReport::capture().counters {
        if pinned(&name) {
            writeln!(out, "{job}\t{name}\t{value}").unwrap();
        }
    }
}

fn tiny_sweep() -> Vec<rsg::core::observation::KneeTable> {
    measure(
        &ObservationGrid::tiny(),
        &CurveConfig::default(),
        &THRESHOLD_LADDER,
        2,
    )
}

/// The `/spec` bodies: four seeded DAGs of 100–400 tasks, each sent
/// without and with `"negotiate": true`.
fn spec_bodies() -> Vec<String> {
    let mut out = Vec::new();
    for (i, size) in [100, 200, 300, 400].into_iter().enumerate() {
        let spec = RandomDagSpec {
            size,
            ccr: 0.1 + 0.25 * i as f64,
            parallelism: 0.45 + 0.05 * i as f64,
            density: 0.5,
            regularity: 0.2 + 0.2 * i as f64,
            mean_comp: 40.0,
        };
        let text = rsg::obs::json::escape(&write_dag(&spec.generate(100 + i as u64)));
        for negotiate in [false, true] {
            out.push(format!("{{\"dag\": {text}, \"negotiate\": {negotiate}}}"));
        }
    }
    out
}

fn push_engine() -> PushEngine {
    let platform = Platform::generate(
        ResourceGenSpec {
            clusters: 12,
            year: 2006,
            target_hosts: Some(420),
        },
        TopologySpec::default(),
        11,
    );
    PushEngine::new(
        ObservationGrid::tiny(),
        CurveConfig::default(),
        THRESHOLD_LADDER.to_vec(),
        0,
        platform,
        CostModel::default(),
    )
}

#[test]
fn work_counters_match_the_pinned_golden() {
    let mut actual = String::from("# job\tcounter\tvalue\n");

    // Job 1: the tiny sweep, obs off and then obs + tracing on.
    rsg::obs::enable(false);
    let plain = tiny_sweep();
    rsg::obs::enable(true);
    rsg::obs::set_trace(true);
    rsg::obs::reset();
    let traced = tiny_sweep();
    rsg::obs::set_trace(false);
    assert_eq!(
        traced, plain,
        "the sweep diverged when observability and tracing were enabled"
    );
    counters(&mut actual, "sweep");

    // Job 2: `/spec` bodies through the in-process handler.
    let models = Path::new(env!("CARGO_MANIFEST_DIR")).join("models");
    let registry = ModelRegistry::load(&models).expect("load the shipped models/ tree");
    let ctx = ServerContext::new(registry, DEADLINE_S);
    rsg::obs::reset();
    for (i, body) in spec_bodies().into_iter().enumerate() {
        let req = HttpRequest {
            method: "POST".to_string(),
            path: "/spec".to_string(),
            body,
        };
        let resp = handle(&ctx, &req, &Deadline::start(DEADLINE_S));
        assert_eq!(resp.status, 200, "/spec body {i}: {}", resp.body);
    }
    counters(&mut actual, "spec");

    // Job 3: single-delta batches on a tiny-grid push engine. The
    // engine's initial sweep is not part of the job.
    let mut eng = push_engine();
    let by_clock = eng.platform().clusters_by_clock_desc();
    let slowest = *by_clock.last().expect("clusters");
    let fastest = by_clock[0];
    let fast_clock = eng.platform().clusters()[fastest.index()].clock_mhz;
    let cases = [
        (
            "host_join",
            PlatformDelta::HostJoin {
                cluster: slowest,
                hosts: 1,
            },
        ),
        (
            "price",
            PlatformDelta::PriceChange {
                dollars_per_hour: 0.42,
            },
        ),
        (
            "fastest_clock_drift",
            PlatformDelta::ClockDrift {
                cluster: fastest,
                clock_mhz: fast_clock * 1.02,
            },
        ),
    ];
    rsg::obs::reset();
    for (seq, (name, delta)) in (1..).zip(cases) {
        let out = eng
            .submit_batch(&[DeltaRecord { seq, delta }])
            .expect("apply");
        writeln!(actual, "push\tcase.{name}.dirtied\t{}", out.dirtied).unwrap();
        writeln!(actual, "push\tcase.{name}.recomputed\t{}", out.recomputed).unwrap();
    }
    counters(&mut actual, "push");
    rsg::obs::enable(false);

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/work_counters.tsv");
    if std::env::var_os("RSG_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with RSG_UPDATE_GOLDEN=1)", path.display()));
    let drift = drift(&want, &actual);
    assert!(
        drift.is_empty(),
        "work counters drifted from their pinned values:\n{drift}\
         if the change is intentional, regenerate with RSG_UPDATE_GOLDEN=1"
    );
}

/// One `job counter: pinned -> now` line per row whose value differs
/// or that only one side has.
fn drift(want: &str, actual: &str) -> String {
    let rows = |text: &str| -> BTreeMap<String, String> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once('\t'))
            .map(|(key, value)| (key.replace('\t', " "), value.to_string()))
            .collect()
    };
    let (want, actual) = (rows(want), rows(actual));
    let mut out = String::new();
    for key in want.keys().chain(actual.keys()).collect::<BTreeSet<_>>() {
        let (w, a) = (want.get(key), actual.get(key));
        if w != a {
            let show = |v: Option<&String>| v.map_or("-", String::as_str).to_string();
            writeln!(out, "  {key}: {} -> {}", show(w), show(a)).unwrap();
        }
    }
    out
}
