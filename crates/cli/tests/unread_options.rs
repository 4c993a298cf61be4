//! A command rejects every option it does not read: the real binary
//! exits with the usage code (2), names the option and the command on
//! stderr, and does no work — a misspelt `--journal` must not train a
//! model without its checkpoint, and the removed `--shards` must not
//! silently train in one process.

use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch directory for one case.
fn scratch(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsg-cli-unread-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `rsg` with `args`; returns the exit code and stderr.
fn rsg(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rsg"))
        .args(args)
        .output()
        .expect("run rsg");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn misspelt_option_is_a_usage_error() {
    let dir = scratch("misspelt");
    let (model, journal) = (dir.join("m.tsv"), dir.join("j"));
    let (code, stderr) = rsg(&[
        "train",
        "--grid",
        "tiny",
        "--jounral",
        journal.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("'train' takes no option --jounral"),
        "{stderr}"
    );
    assert!(!model.exists(), "no model may be trained");
    assert!(!journal.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shards_option_is_a_usage_error() {
    let dir = scratch("shards");
    let model = dir.join("m.tsv");
    let (code, stderr) = rsg(&[
        "train",
        "--grid",
        "tiny",
        "--shards",
        "2",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("'train' takes no option --shards"),
        "{stderr}"
    );
    assert!(!model.exists(), "no model may be trained");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn another_commands_option_is_a_usage_error() {
    // `--negotiate` is a flag of `spec`, not of `stats`.
    let (code, stderr) = rsg(&["stats", "missing.dag", "--negotiate"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("'stats' takes no option --negotiate"),
        "{stderr}"
    );
}
