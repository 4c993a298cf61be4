//! Golden tests of the paper reproduction: each experiment's fast-scale
//! report must equal its `results/<ID>.txt` byte for byte, and must
//! hold the paper's stated bounds (`rsg_bench::claims`).
//!
//! `quick_ids_match_their_goldens` runs in every test run: the
//! experiments that need no trained size model and take well under a
//! second. `every_id_matches_its_golden_cold_warm_and_resumed` runs the
//! rest too; it is ignored by default and refuses to run unoptimized:
//!
//! ```text
//! cargo test --release --test reproduce -- --ignored
//! ```
//!
//! It also trains the size model from a cold sweep journal, a complete
//! one and one truncated after some cells, and checks that the model's
//! reports are the same each time. Regenerate the goldens after an
//! intentional change with `RSG_UPDATE_GOLDEN=1` on either test.

use rsg_bench::{claims, experiment, Scale, EXPERIMENTS};
use std::path::{Path, PathBuf};

/// The experiments that train no size model.
const QUICK_IDS: [&str; 11] = [
    "fig4_5",
    "fig4_6",
    "fig5_2",
    "fig5_3",
    "fig5_5",
    "fig7_6",
    "fig7_7",
    "tab6_1",
    "tab6_2",
    "tab6_3",
    "ablation_refine",
];

fn golden(id: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/{id}.txt"))
}

/// Runs `id` at fast scale and compares its report with the golden.
fn check(id: &str) {
    let run = experiment(id).unwrap_or_else(|| panic!("no experiment {id}"));
    let report = run(Scale::Fast);
    assert_eq!(claims::violations(id, &report), Vec::<String>::new());
    let path = golden(id);
    if std::env::var_os("RSG_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &report).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with RSG_UPDATE_GOLDEN=1)", path.display()));
    if report != want {
        let line = want
            .lines()
            .zip(report.lines())
            .position(|(w, r)| w != r)
            .unwrap_or_else(|| want.lines().count().min(report.lines().count()));
        panic!(
            "{id} drifted from {} at line {}:\n  golden: {:?}\n  now:    {:?}\n\
             if the change is intentional, regenerate with RSG_UPDATE_GOLDEN=1",
            path.display(),
            line + 1,
            want.lines().nth(line),
            report.lines().nth(line),
        );
    }
}

#[test]
fn quick_ids_match_their_goldens() {
    for id in QUICK_IDS {
        check(id);
    }
}

#[test]
#[ignore = "slow: cargo test --release --test reproduce -- --ignored"]
fn every_id_matches_its_golden_cold_warm_and_resumed() {
    if cfg!(debug_assertions) {
        panic!("the experiments take minutes unoptimized; run with --release");
    }
    // The size model's sweep journal, as `trained_size_model` names it
    // (tests run from the package root). A journal it could not replay
    // would be moved to `.corrupt`.
    let journal = Path::new("target/rsg_sweep_fast.journal");
    let quarantined = Path::new("target/rsg_sweep_fast.journal.corrupt");
    let lines = || std::fs::read_to_string(journal).unwrap().lines().count();

    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(quarantined);
    check("tab5_5");
    let complete = lines();
    assert!(complete > 2, "the cold sweep journaled {complete} lines");

    for &(id, _) in EXPERIMENTS {
        check(id);
    }
    assert_eq!(
        lines(),
        complete,
        "a warm start must not extend the journal"
    );
    assert!(
        !quarantined.exists(),
        "a warm start must replay the journal"
    );

    // Keep the header and the first half of the cells, as a killed
    // sweep leaves them; the resumed sweep computes the rest.
    let text = std::fs::read_to_string(journal).unwrap();
    let kept: String = text.split_inclusive('\n').take(complete / 2).collect();
    std::fs::write(journal, kept).unwrap();
    check("tab5_5");
    assert_eq!(
        lines(),
        complete,
        "the resumed sweep must complete the journal"
    );
    assert!(
        !quarantined.exists(),
        "a resumed start must replay the journal"
    );
}
