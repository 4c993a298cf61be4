//! One artifact format, one discovery rule: models exist on disk only
//! as `rsg-artifact` envelopes, and the serving
//! registry, `rsg audit`, `--preflight` and the CLI loaders agree on
//! which file is the model and whether it loads.

use rsg::analyze::{audit_tree, Code};
use rsg::core::{store, StoreError};
use rsg::serve::ModelRegistry;
use rsg_cli::CliError;
use std::path::{Path, PathBuf};

/// A size model that passes every MODEL lint, in its envelope.
fn enveloped_model() -> String {
    let clean = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/audit/clean/models/size_model.tsv");
    std::fs::read_to_string(clean).expect("clean fixture model")
}

/// The same model's bare payload: not an artifact.
fn bare_model() -> String {
    enveloped_model().split_once('\n').unwrap().1.to_string()
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rsg-artifact-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tree holding `files` (relative path, loadable?) and empty
/// directories `dirs`.
fn tree(tag: &str, files: &[(&str, bool)], dirs: &[&str]) -> PathBuf {
    let root = scratch(tag);
    for d in dirs {
        std::fs::create_dir_all(root.join(d)).unwrap();
    }
    for &(rel, loadable) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let text = if loadable {
            enveloped_model()
        } else {
            bare_model()
        };
        std::fs::write(path, text).unwrap();
    }
    root
}

fn run(args: &[&str]) -> (Result<(), CliError>, String) {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let result = rsg_cli::run(&argv, &mut out);
    (result, String::from_utf8(out).unwrap())
}

/// Boot and the audit must agree: the registry loads exactly when the
/// audit raises no AUDIT001, and then from the file `expect` names.
fn assert_agree(root: &Path, expect: Option<&str>) {
    let name = root.display().to_string();
    let registry = ModelRegistry::load(root);
    let audit = audit_tree(root).expect("audit walk");
    let refused = audit.codes().contains(&Code::Audit001);
    assert_eq!(
        registry.is_ok(),
        !refused,
        "{name}: registry {:?} vs audit\n{}",
        registry.as_ref().err(),
        audit.to_human()
    );
    match (registry, expect) {
        (Ok(r), Some(want)) => {
            let got = r.size_model_path.unwrap();
            let got = Path::new(&got).strip_prefix(root).unwrap();
            assert_eq!(got, Path::new(want), "{name}");
        }
        (Err(_), None) => {}
        (r, want) => panic!("{name}: expected {want:?}, registry gave {r:?}"),
    }
}

#[test]
fn registry_and_audit_agree_on_which_model_they_pick() {
    // The exact name wins over a lexicographically earlier variant
    // (`-` sorts before `.`).
    let t = tree(
        "exact",
        &[("size_model.tsv", true), ("size_model-a.tsv", false)],
        &[],
    );
    assert_agree(&t, Some("size_model.tsv"));
    let t = tree(
        "exact-bad",
        &[("size_model.tsv", false), ("size_model-a.tsv", true)],
        &[],
    );
    assert_agree(&t, None);

    // Without the exact name, the lexicographically first variant.
    let t = tree(
        "first",
        &[("size_model_a.tsv", true), ("size_model_b.tsv", false)],
        &[],
    );
    assert_agree(&t, Some("size_model_a.tsv"));
    let t = tree(
        "first-bad",
        &[("size_model_a.tsv", false), ("size_model_b.tsv", true)],
        &[],
    );
    assert_agree(&t, None);

    // A `models/` directory shadows the root.
    let t = tree(
        "models-dir",
        &[("size_model.tsv", false), ("models/size_model.tsv", true)],
        &[],
    );
    assert_agree(&t, Some("models/size_model.tsv"));
    let t = tree(
        "models-dir-bad",
        &[("size_model.tsv", true), ("models/size_model.tsv", false)],
        &[],
    );
    assert_agree(&t, None);

    // Only regular files count: a directory named like the model is
    // passed over by both, not picked by one and refused by the other.
    let t = tree(
        "directory",
        &[("models/size_model_b.tsv", true)],
        &["models/size_model.tsv"],
    );
    assert_agree(&t, Some("models/size_model_b.tsv"));
    assert!(audit_tree(&t).unwrap().is_clean());
}

#[test]
fn bare_model_is_refused_by_every_path() {
    let root = tree("bare", &[("models/size_model.tsv", false)], &[]);
    let model = root.join("models/size_model.tsv");

    let e = ModelRegistry::load(&root).unwrap_err();
    assert!(matches!(e, StoreError::BadMagic { .. }), "{e:?}");

    let audit = audit_tree(&root).unwrap();
    assert!(audit.errors() > 0, "{}", audit.to_human());
    let (r, out) = run(&["audit", root.to_str().unwrap()]);
    assert_eq!(r.unwrap_err().exit_code(), 6);
    // The detail column quotes the file's start with its tab escaped.
    let row = out
        .lines()
        .find(|l| l.contains("AUDIT001"))
        .unwrap_or_else(|| panic!("no AUDIT001 row: {out}"));
    assert!(row.contains(r"starts 'rsg-size-model\tv1"), "{row}");
    assert!(!row.contains('\t'), "raw tab in the audit table: {row:?}");

    let (r, _) = run(&["serve", "--models", root.to_str().unwrap(), "--preflight"]);
    assert_eq!(r.unwrap_err().exit_code(), 6);

    let dag = root.join("wf.dag");
    let (r, _) = run(&[
        "gen",
        "random",
        "--size",
        "60",
        "--out",
        dag.to_str().unwrap(),
    ]);
    r.unwrap();
    let (r, _) = run(&[
        "predict",
        "--model",
        model.to_str().unwrap(),
        dag.to_str().unwrap(),
    ]);
    assert_eq!(r.unwrap_err().exit_code(), 4);
}

/// No program writes `knee-tables` envelopes any more, so the audit
/// treats one like any other unknown kind: intact or damaged, AUDIT002.
#[test]
fn knee_tables_envelope_audits_clean_and_damage_is_audit002() {
    let root = tree("knees", &[("models/size_model.tsv", true)], &[]);
    let path = root.join("knee_tables.tsv");
    let table = "rsg-knee-table\tv1\ntheta\t0.05\nsizes\t100\nccrs\t0.1\nalphas\t0.5\n\
                 betas\t0.5\ngrid\t0.5\t10\t1\nknees\t24\nend\n";
    store::write_atomic(&path, "knee-tables", table).unwrap();

    let (r, out) = run(&["store", "verify", path.to_str().unwrap()]);
    r.unwrap();
    assert!(out.contains("artifact 'knee-tables'"), "{out}");
    let audit = audit_tree(&root).unwrap();
    assert_eq!(audit.codes(), vec![Code::Audit002], "{}", audit.to_human());
    assert!(
        audit
            .to_human()
            .contains("unknown artifact kind 'knee-tables'"),
        "{}",
        audit.to_human()
    );

    // Flip one payload byte: the checksum catches it, still AUDIT002.
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 2] ^= 0x01;
    std::fs::write(&path, bytes).unwrap();
    let audit = audit_tree(&root).unwrap();
    assert_eq!(audit.codes(), vec![Code::Audit002], "{}", audit.to_human());
}

#[test]
fn train_without_out_prints_a_loadable_envelope() {
    let dir = scratch("train-stdout");
    let dag = dir.join("wf.dag");
    let (r, _) = run(&[
        "gen",
        "random",
        "--size",
        "60",
        "--out",
        dag.to_str().unwrap(),
    ]);
    r.unwrap();
    // `--report` writes its file and keeps its summary off stdout, so the
    // printed envelope still verifies.
    let report = dir.join("r.json");
    let with_report = ["--report", report.to_str().unwrap()];
    for extra in [&[][..], &with_report[..]] {
        let args: Vec<&str> = ["train", "--grid", "tiny"]
            .iter()
            .chain(extra)
            .copied()
            .collect();
        let (r, stdout) = run(&args);
        r.unwrap();
        let model = dir.join("m.tsv");
        std::fs::write(&model, &stdout).unwrap();

        let (r, out) = run(&["store", "verify", model.to_str().unwrap()]);
        r.unwrap_or_else(|e| panic!("{args:?}: {e}"));
        assert!(out.contains("OK — artifact 'size-model'"), "{out}");

        let (r, out) = run(&[
            "predict",
            "--model",
            model.to_str().unwrap(),
            dag.to_str().unwrap(),
        ]);
        r.unwrap();
        assert!(out.contains("threshold"), "{out}");
    }
    let report = std::fs::read_to_string(&report).expect("--report wrote its file");
    assert!(report.contains("rsg_obs_report"), "{report}");
}
