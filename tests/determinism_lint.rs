//! Source-level determinism lint: the pipeline's persisted artifacts
//! (models, journals, reports, rendered specs) must be byte-reproducible
//! across runs and machines. That dies quietly when wall-clock time or
//! unordered iteration leaks into a fingerprint, a persisted file or a
//! rendered document — so this test scans the workspace source and
//! confines the dangerous constructs to reviewed allowlists.
//!
//! To use one of these constructs in a new file, add the file here and
//! say why in the comment — the point is a reviewed decision, not a ban.

use std::path::{Path, PathBuf};

/// `Instant::now` is fine for *measuring* durations (telemetry, bench
/// timing, retry backoff) but must never feed a fingerprint or a
/// persisted artifact. Each entry has been reviewed to do only the
/// former.
const INSTANT_ALLOWLIST: &[&str] = &[
    "crates/serve/src/push.rs",      // staleness gap age (never persisted)
    "crates/serve/src/deadline.rs",  // request deadline stamping
    "crates/serve/src/lifecycle.rs", // drain-completion timeout wait
    "crates/core/src/store.rs",      // write-duration telemetry
    "crates/obs/src/lib.rs",         // span/report timing
    "crates/obs/src/span.rs",        // span timing
    "crates/sched/src/chaos.rs",     // negotiation elapsed/backoff
    "crates/sched/src/heuristics/scratch.rs", // bank-reset histogram, obs-gated
    "crates/sched/src/turnaround.rs", // scheduling-time measurement
    "crates/sched/src/simulator.rs", // scheduling-time measurement
    "tests/kernel_speedup.rs",       // ignored release-only speedup gates
];

/// `HashMap` iteration order is nondeterministic; files that hold one
/// must sort before rendering or persisting. Each entry has been
/// reviewed to do so.
const HASHMAP_ALLOWLIST: &[&str] = &[
    "crates/core/src/curve.rs",       // memo cache, keyed lookups only
    "crates/core/src/store.rs",       // journal resume index, keyed lookups only
    "crates/core/src/observation.rs", // curve-point memo, keyed lookups only
];

/// Collects every `.rs` file under `crates/`, `src/` and `tests/`,
/// skipping the vendored compat shims (external API surface, not ours
/// to lint) and this lint itself (its needle strings are not uses).
fn rust_sources() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    walk(&root.join("crates"), &mut out);
    walk(&root.join("src"), &mut out);
    walk(&root.join("tests"), &mut out);
    out.retain(|p| {
        let r = rel(p);
        !r.starts_with("crates/compat/") && r != "tests/determinism_lint.rs"
    });
    assert!(out.len() > 20, "source walk looks broken: {out:?}");
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel(path: &Path) -> String {
    path.strip_prefix(env!("CARGO_MANIFEST_DIR"))
        .unwrap()
        .to_str()
        .unwrap()
        .replace('\\', "/")
}

/// Files containing `needle`, minus the allowlist; empty means clean.
fn offenders(needle: &str, allowlist: &[&str]) -> Vec<String> {
    rust_sources()
        .iter()
        .filter(|p| std::fs::read_to_string(p).unwrap().contains(needle))
        .map(|p| rel(p))
        .filter(|r| !allowlist.contains(&r.as_str()))
        .collect()
}

#[test]
fn no_wall_clock_time_anywhere() {
    let hits = offenders("SystemTime", &[]);
    assert!(
        hits.is_empty(),
        "SystemTime found in {hits:?} — wall-clock time must never \
         reach a fingerprint or persisted artifact; use a caller-supplied \
         timestamp or a monotonic Instant for durations"
    );
}

#[test]
fn instant_now_only_in_reviewed_timing_code() {
    let hits = offenders("Instant::now", INSTANT_ALLOWLIST);
    assert!(
        hits.is_empty(),
        "Instant::now found outside the reviewed timing allowlist: {hits:?}"
    );
}

#[test]
fn hashmap_only_in_reviewed_files() {
    let hits = offenders("HashMap", HASHMAP_ALLOWLIST);
    assert!(
        hits.is_empty(),
        "HashMap found outside the reviewed allowlist: {hits:?} — \
         use BTreeMap (ordered) or sort before rendering/persisting, \
         then extend the allowlist with a justification"
    );
}

/// The allowlists themselves must not go stale: every listed file still
/// exists and still contains the construct it is excused for.
#[test]
fn allowlists_are_not_stale() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (needle, list) in [
        ("Instant::now", INSTANT_ALLOWLIST),
        ("HashMap", HASHMAP_ALLOWLIST),
    ] {
        for entry in list {
            let text = std::fs::read_to_string(root.join(entry))
                .unwrap_or_else(|e| panic!("stale allowlist entry {entry}: {e}"));
            assert!(
                text.contains(needle),
                "{entry} no longer contains {needle} — drop it from the allowlist"
            );
        }
    }
}
