//! Journal identity does not depend on observability.
//!
//! A sweep journal's header and the serving push engine's delta journal
//! both carry a sweep fingerprint. If `--report` or `--trace` changed it,
//! a journal written by an observed run would be quarantined by the next
//! unobserved one (a complete `rsg train --journal` sweep regenerated, a
//! daemon restart losing its applied deltas) and `rsg audit` would flag
//! the daemon's own journal. The fingerprint must therefore be the same
//! with observability off, on, and on with tracing, and equal to the
//! digest `rsg audit` expects of the serving engine.
//!
//! The obs switches are process-global. This file holds a single test,
//! so it owns its process and needs no `obs::test_guard()`.

use rsg::analyze::serve_engine_fingerprint;
use rsg::core::curve::CurveConfig;
use rsg::core::observation::{sweep_fingerprint, ObservationGrid};
use rsg::core::push::PushEngine;
use rsg::core::THRESHOLD_LADDER;
use rsg::platform::{CostModel, Platform, ResourceGenSpec, TopologySpec};

/// The sweep fingerprint and a freshly built serving-shaped engine's
/// fingerprint under the current obs configuration.
fn fingerprints() -> (u64, u64) {
    let sweep = sweep_fingerprint(
        &ObservationGrid::tiny(),
        &CurveConfig::default(),
        &THRESHOLD_LADDER,
        0,
    );
    let platform = Platform::generate(
        ResourceGenSpec {
            clusters: 4,
            year: 2006,
            target_hosts: Some(60),
        },
        TopologySpec::default(),
        11,
    );
    let engine = PushEngine::new(
        ObservationGrid::tiny(),
        CurveConfig::default(),
        THRESHOLD_LADDER.to_vec(),
        0,
        platform,
        CostModel::default(),
    );
    (sweep, engine.fingerprint())
}

#[test]
fn journal_fingerprints_ignore_observability() {
    rsg::obs::enable(false);
    rsg::obs::set_trace(false);
    let off = fingerprints();
    assert_eq!(off.0, off.1, "sweep and push engine disagree (obs off)");
    assert_eq!(
        off.0,
        serve_engine_fingerprint(),
        "audit expects another digest"
    );

    rsg::obs::enable(true);
    let on = fingerprints();
    rsg::obs::set_trace(true);
    let traced = fingerprints();
    rsg::obs::set_trace(false);
    rsg::obs::enable(false);

    assert_eq!(on, off, "obs on changed the journal fingerprint");
    assert_eq!(
        traced, off,
        "obs on + trace changed the journal fingerprint"
    );
}
