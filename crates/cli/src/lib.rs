//! # rsg-cli — command-line front end
//!
//! ```text
//! rsg gen random --size 1000 --ccr 0.1 --out wf.dag
//! rsg gen montage --tasks 1629 --out montage.dag
//! rsg stats wf.dag
//! rsg curve wf.dag --heuristic MCP
//! rsg train --grid fast --out model.tsv
//! rsg predict --model model.tsv wf.dag
//! rsg spec --model model.tsv wf.dag --lang all --clock 3500
//! rsg dot wf.dag
//! ```
//!
//! The binary is a thin wrapper over [`run`]; everything is testable
//! through the library.

#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{ArgError, Args};

use std::io::Write;

/// Errors surfaced to the user. Each class maps to a distinct process
/// exit code (see [`CliError::exit_code`]) so scripts can react without
/// scraping stderr.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (usage is printed). Exit 2.
    Usage(String),
    /// The OS refused an I/O operation (missing file, permissions, full
    /// disk). Exit 3.
    Io(String),
    /// A persisted artifact is damaged on disk (bad magic, truncation,
    /// checksum mismatch). Exit 4.
    Corrupt(String),
    /// An artifact read cleanly but does not decode (parse error, wrong
    /// kind, stale fingerprint). Exit 5.
    Decode(String),
    /// Any other runtime failure. Exit 1.
    Failed(String),
    /// `rsg lint` found error-level diagnostics. Exit 6.
    Lint(String),
}

impl CliError {
    /// The process exit code for this error class: usage 2, I/O 3,
    /// corruption 4, decode 5, lint findings 6, everything else 1.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Corrupt(_) => 4,
            CliError::Decode(_) => 5,
            CliError::Lint(_) => 6,
            CliError::Failed(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(m) => write!(f, "{m}"),
            CliError::Corrupt(m) => {
                write!(f, "{m} — quarantine or delete the file and regenerate it")
            }
            CliError::Decode(m) => write!(f, "{m}"),
            CliError::Lint(m) => write!(f, "{m}"),
            CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Failed(e.to_string())
    }
}

impl From<rsg_core::StoreError> for CliError {
    fn from(e: rsg_core::StoreError) -> Self {
        use rsg_core::StoreError as S;
        let msg = e.to_string();
        match e {
            S::Io { .. } => CliError::Io(msg),
            S::BadMagic { .. } | S::Version { .. } | S::Truncated { .. } | S::Checksum { .. } => {
                CliError::Corrupt(msg)
            }
            S::Kind { .. } | S::Parse { .. } | S::Fingerprint { .. } => CliError::Decode(msg),
            S::Aborted { .. } => CliError::Failed(msg),
        }
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
rsg — automatic resource specification generation (SC'07 reproduction)

USAGE:
  rsg gen random  --size N [--ccr X] [--parallelism A] [--density D]
                  [--regularity B] [--mean-comp W] [--seed S] [--out FILE]
  rsg gen montage [--tasks 1629|4469] [--ccr X] [--out FILE]
  rsg stats   FILE
  rsg curve   FILE [--heuristic MCP|DLS|FCA|FCFS|Greedy]
  rsg train   [--grid tiny|fast|paper] [--out FILE] [--journal FILE]
  rsg train-heuristic [--preset fast|paper] [--out FILE]
  rsg predict --model FILE DAGFILE
  rsg spec    (--model FILE | --grid tiny|fast) DAGFILE
              [--lang vgdl|classad|sword|all]
              [--clock MHZ] [--het H] [--heuristic NAME]
              [--heuristic-model FILE]
              [--negotiate] [--selector-flaky SEED:RATE]
  rsg chaos   FILE [--hosts N] [--clock MHZ] [--het H] [--heuristic NAME]
              [--faults SEED:RATE] [--outages RATE] [--joins K]
  rsg dot     FILE [--out FILE]
  rsg store   verify PATH...
  rsg lint    FILE... [--format human|json|tsv] [--platform]
  rsg audit   DIR [--format human|json|tsv]
  rsg serve   --models DIR [--addr HOST:PORT] [--admin-addr HOST:PORT]
              [--workers N] [--queue N] [--deadline-s S]
              [--max-staleness S] [--delta-journal FILE] [--preflight]

`rsg train` and `rsg train-heuristic` write the model as a checksummed
store envelope to --out FILE, or else to stdout (progress to stderr).
`rsg train --journal FILE` checkpoints each completed sweep cell to
FILE; a re-run with the same grid resumes from the first missing cell.
`rsg store verify` checks the envelope/journal checksums of persisted
artifacts without modifying them; it understands store envelopes,
sweep journals and platform delta journals.
`rsg lint` statically analyzes spec and DAG files (vgDL, ClassAd,
SWORD XML, rsg-spec, rsg-dag — the kind is sniffed from the content);
all spec files in one invocation are treated as renderings of the same
request and cross-checked. `--platform` additionally checks
satisfiability against a deterministic platform model. Error-level
diagnostics exit 6.

`rsg audit` statically verifies a whole deployment tree — models,
platform file, sweep/delta journals, spec corpus — as one artifact
graph: fingerprint-chain binding, an abstract fold of the delta
stream onto the platform (gaps, conflicts, refusals, clamp
saturation), post-fold spec satisfiability, and MODEL00x sanity lints
on the trained models. Same report formats and exit discipline as
`rsg lint`.

`rsg serve` starts a long-lived HTTP/JSON service answering /spec,
/predict, /lint, /metrics, /healthz and /readyz from models loaded as
generation 1 out of --models DIR (size_model*.tsv required,
heur_model*.tsv optional). `--admin-addr` (loopback only) adds
/admin/reload (hot model swap with rollback), /admin/drain (graceful
shutdown) and /admin/platform (live platform delta batches).
`--max-staleness S` flips /readyz to 503 once a delta-sequence gap has
been open longer than S seconds; `--delta-journal FILE` makes accepted
deltas durable and replays them on boot. `--preflight` audits the
--models tree before binding a socket: error-level findings refuse to
boot (exit 6, report on stderr), warnings are printed and served
through. See docs/API.md for the wire
format and docs/OPERATIONS.md for running, reloading and draining it.

Exit codes: 0 ok, 1 failure, 2 usage, 3 I/O, 4 corrupt artifact,
5 decode error, 6 lint diagnostics.

Global options (any command):
  --trace          print live span enter/exit lines to stderr
  --report FILE    write a run report (counters, span timings,
                   histograms); '.tsv' extension selects TSV, anything
                   else JSON. Implies collection; a summary table is
                   printed to stderr.

FILE '-' reads the DAG from stdin.
";

/// Boolean (value-less) flags: `--trace` is global, `--negotiate` is
/// read by `spec`, `--platform` by `lint`, `--preflight` by `serve`
/// (flag names must be known before parsing).
const GLOBAL_FLAGS: &[&str] = &["trace", "negotiate", "platform", "preflight"];

/// Dispatches a full argument vector (without the program name).
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut args = Args::new_with_flags(argv, GLOBAL_FLAGS);
    let trace = args.flag("trace");
    let report_path = args.opt("report").map(str::to_string);
    let observing = trace || report_path.is_some();
    if observing {
        // Fresh data for this run; collection stays on afterwards so a
        // caller embedding several runs can aggregate across them.
        rsg_obs::enable(true);
        rsg_obs::set_trace(trace);
        rsg_obs::reset();
    }
    let cmd = args
        .positional()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    let result = match cmd.as_str() {
        "gen" => commands::gen(&mut args, out),
        "stats" => commands::stats(&mut args, out),
        "curve" => commands::curve(&mut args, out),
        "train" => commands::train(&mut args, out),
        "train-heuristic" => commands::train_heuristic(&mut args, out),
        "predict" => commands::predict(&mut args, out),
        "spec" => commands::spec(&mut args, out),
        "chaos" => commands::chaos(&mut args, out),
        "dot" => commands::dot(&mut args, out),
        "store" => commands::store(&mut args, out),
        "lint" => commands::lint(&mut args, out),
        "audit" => commands::audit(&mut args, out),
        "serve" => commands::serve(&mut args, out),
        "help" | "--help" | "-h" => {
            out.write_all(USAGE.as_bytes())?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    if observing && result.is_ok() {
        let report = rsg_obs::RunReport::capture();
        if let Some(p) = &report_path {
            let body = if p.ends_with(".tsv") {
                report.to_tsv()
            } else {
                report.to_json()
            };
            std::fs::write(p, body)
                .map_err(|e| CliError::Failed(format!("cannot write report {p}: {e}")))?;
        }
        // The summary goes to stderr so stdout stays the command's own
        // output (an envelope `rsg train` prints must still verify).
        eprint!("\n--- run report ---\n{}", report.summary());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(args: &[&str]) -> String {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        String::from_utf8(out).unwrap()
    }

    fn run_err(args: &[&str]) -> CliError {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out).unwrap_err()
    }

    #[test]
    fn help_prints_usage() {
        let s = run_ok(&["help"]);
        assert!(s.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        assert!(matches!(run_err(&["frobnicate"]), CliError::Usage(_)));
        assert!(matches!(run_err(&[]), CliError::Usage(_)));
    }

    #[test]
    fn gen_stats_pipeline() {
        let dir = std::env::temp_dir().join("rsg-cli-test-gen");
        let _ = std::fs::create_dir_all(&dir);
        let file = dir.join("wf.dag");
        let path = file.to_str().unwrap();
        run_ok(&[
            "gen", "random", "--size", "120", "--ccr", "0.2", "--seed", "7", "--out", path,
        ]);
        let s = run_ok(&["stats", path]);
        assert!(s.contains("size"));
        assert!(s.contains("120"));
        let dot = run_ok(&["dot", path]);
        assert!(dot.contains("digraph"));
    }

    #[test]
    fn montage_gen_and_curve() {
        let dir = std::env::temp_dir().join("rsg-cli-test-m");
        let _ = std::fs::create_dir_all(&dir);
        let file = dir.join("m.dag");
        let path = file.to_str().unwrap();
        run_ok(&["gen", "montage", "--tasks", "1629", "--out", path]);
        let s = run_ok(&["curve", path, "--heuristic", "FCFS"]);
        assert!(s.contains("knee"));
    }

    #[test]
    fn train_predict_spec_pipeline() {
        let dir = std::env::temp_dir().join("rsg-cli-test-tp");
        let _ = std::fs::create_dir_all(&dir);
        let model = dir.join("model.tsv");
        let dagf = dir.join("wf.dag");
        let (model_p, dag_p) = (model.to_str().unwrap(), dagf.to_str().unwrap());
        run_ok(&["train", "--grid", "tiny", "--out", model_p]);
        run_ok(&[
            "gen",
            "random",
            "--size",
            "150",
            "--ccr",
            "0.1",
            "--parallelism",
            "0.6",
            "--out",
            dag_p,
        ]);
        let p = run_ok(&["predict", "--model", model_p, dag_p]);
        assert!(p.contains("threshold"));
        let s = run_ok(&["spec", "--model", model_p, dag_p, "--lang", "all"]);
        assert!(s.contains("vgDL") && s.contains("ClassAd") && s.contains("SWORD"));
        let v = run_ok(&["spec", "--model", model_p, dag_p, "--lang", "vgdl"]);
        assert!(v.contains("Clock >="));
    }

    #[test]
    fn heuristic_model_train_and_use() {
        let dir = std::env::temp_dir().join("rsg-cli-test-hm");
        let _ = std::fs::create_dir_all(&dir);
        let hm = dir.join("heur.tsv");
        let model = dir.join("size.tsv");
        let dagf = dir.join("wf.dag");
        // A custom tiny heuristic model document (hand-written, in its
        // envelope) plus a tiny size model trained via the CLI.
        rsg_core::store::write_atomic(
            &hm,
            rsg_core::persist::HEUR_MODEL_KIND,
            "rsg-heur-model\tv1\nsizes\t100\nccrs\t0.1\ncell\t0\t0\tFCFS:1.0\tMCP:2.0\nend\n",
        )
        .unwrap();
        run_ok(&["train", "--grid", "tiny", "--out", model.to_str().unwrap()]);
        run_ok(&[
            "gen",
            "random",
            "--size",
            "100",
            "--out",
            dagf.to_str().unwrap(),
        ]);
        let s = run_ok(&[
            "spec",
            "--model",
            model.to_str().unwrap(),
            dagf.to_str().unwrap(),
            "--heuristic-model",
            hm.to_str().unwrap(),
            "--lang",
            "vgdl",
        ]);
        assert!(s.contains("FCFS"), "the persisted winner must be used: {s}");
    }

    #[test]
    fn chaos_reports_faults_and_stretch() {
        let dir = std::env::temp_dir().join("rsg-cli-test-chaos");
        let _ = std::fs::create_dir_all(&dir);
        let file = dir.join("wf.dag");
        let path = file.to_str().unwrap();
        run_ok(&[
            "gen", "random", "--size", "80", "--ccr", "0.3", "--seed", "3", "--out", path,
        ]);
        // Zero faults: stretch is exactly 1, nothing lost or rescued.
        let calm = run_ok(&["chaos", path, "--hosts", "8"]);
        assert!(calm.contains("stretch 1.000x"), "{calm}");
        assert!(calm.contains("0 crashes, 0 outages, 0 joins"), "{calm}");
        // Heavy churn: the run still completes and reports recovery.
        let stormy = run_ok(&[
            "chaos",
            path,
            "--hosts",
            "8",
            "--faults",
            "7:0.4",
            "--outages",
            "0.25",
            "--joins",
            "1",
            "--het",
            "0.3",
        ]);
        assert!(stormy.contains("resilient"), "{stormy}");
        assert!(stormy.contains("1 joins"), "{stormy}");
        assert!(matches!(
            run_err(&["chaos", path, "--faults", "nonsense"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["chaos", path, "--faults", "7:1.5"]),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn spec_negotiates_against_flaky_selector() {
        let dir = std::env::temp_dir().join("rsg-cli-test-neg");
        let _ = std::fs::create_dir_all(&dir);
        let model = dir.join("model.tsv");
        let dagf = dir.join("wf.dag");
        let (model_p, dag_p) = (model.to_str().unwrap(), dagf.to_str().unwrap());
        run_ok(&["train", "--grid", "tiny", "--out", model_p]);
        run_ok(&[
            "gen", "random", "--size", "100", "--ccr", "0.2", "--out", dag_p,
        ]);
        // A reachable clock tier and a healthy selector: binds rung 0.
        let s = run_ok(&[
            "spec",
            "--model",
            model_p,
            dag_p,
            "--lang",
            "vgdl",
            "--clock",
            "1400",
            "--het",
            "0.5",
            "--negotiate",
        ]);
        assert!(s.contains("negotiation"), "{s}");
        assert!(s.contains("bound rung"), "{s}");
        // Same spec through a deterministic flaky selector still ends
        // with a verdict (bound or unfulfillable — never a hang).
        let f = run_ok(&[
            "spec",
            "--model",
            model_p,
            dag_p,
            "--lang",
            "vgdl",
            "--clock",
            "1400",
            "--het",
            "0.5",
            "--selector-flaky",
            "9:0.6",
        ]);
        assert!(
            f.contains("bound rung") || f.contains("unfulfillable"),
            "{f}"
        );
        assert!(matches!(
            run_err(&[
                "spec",
                "--model",
                model_p,
                dag_p,
                "--selector-flaky",
                "9:2.0"
            ]),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn store_verify_and_exit_codes() {
        let dir = std::env::temp_dir().join("rsg-cli-test-store");
        let _ = std::fs::create_dir_all(&dir);
        let model = dir.join("model.tsv");
        let model_p = model.to_str().unwrap();
        run_ok(&["train", "--grid", "tiny", "--out", model_p]);

        // The trained model is an envelope and verifies.
        let s = run_ok(&["store", "verify", model_p]);
        assert!(s.contains("OK"), "{s}");
        assert!(s.contains("size-model"), "{s}");

        // Flip a payload byte: verify fails with a corruption error
        // (exit code 4), and loading it is typed, not a panic.
        let good = std::fs::read_to_string(&model).unwrap();
        let mut bytes = good.clone().into_bytes();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01;
        std::fs::write(&model, bytes).unwrap();
        let e = run_err(&["store", "verify", model_p]);
        assert!(matches!(e, CliError::Corrupt(_)), "{e:?}");
        assert_eq!(e.exit_code(), 4);
        let dagf = dir.join("wf.dag");
        run_ok(&[
            "gen",
            "random",
            "--size",
            "100",
            "--out",
            dagf.to_str().unwrap(),
        ]);
        let e = run_err(&["predict", "--model", model_p, dagf.to_str().unwrap()]);
        assert!(matches!(e, CliError::Corrupt(_)), "{e:?}");

        // A bare model (the envelope header stripped) is not an
        // artifact: it is refused as corrupt (4), not loaded.
        let payload = good.split_once('\n').unwrap().1;
        std::fs::write(&model, payload).unwrap();
        let e = run_err(&["predict", "--model", model_p, dagf.to_str().unwrap()]);
        assert!(matches!(e, CliError::Corrupt(_)), "{e:?}");
        assert_eq!(e.exit_code(), 4);

        // An intact envelope around a garbage payload is a decode
        // error (5), and a missing file an I/O error (3).
        let garbage = "rsg-size-model\tv1\ntheta\tnonsense\n";
        rsg_core::store::write_atomic(&model, rsg_core::persist::SIZE_MODEL_KIND, garbage).unwrap();
        let e = run_err(&["predict", "--model", model_p, dagf.to_str().unwrap()]);
        assert!(matches!(e, CliError::Decode(_)), "{e:?}");
        assert_eq!(e.exit_code(), 5);
        let e = run_err(&[
            "predict",
            "--model",
            "/nonexistent/m.tsv",
            dagf.to_str().unwrap(),
        ]);
        assert!(matches!(e, CliError::Io(_)), "{e:?}");
        assert_eq!(e.exit_code(), 3);

        // Usage errors for the store command itself.
        assert!(matches!(run_err(&["store", "verify"]), CliError::Usage(_)));
        assert!(matches!(
            run_err(&["store", "frobnicate"]),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn store_verify_covers_delta_and_sweep_journals() {
        use rsg_core::push::{DeltaJournal, DeltaRecord};
        use rsg_platform::delta::PlatformDelta;
        let dir =
            std::env::temp_dir().join(format!("rsg-cli-test-journals-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // A delta journal verifies by magic, reporting its record count.
        let dj = dir.join("deltas.journal");
        let j = DeltaJournal::open(&dj, 0xdead_beef).unwrap();
        for seq in 1..=3u64 {
            j.append(&DeltaRecord {
                seq,
                delta: PlatformDelta::PriceChange {
                    dollars_per_hour: 0.1 * seq as f64,
                },
            })
            .unwrap();
        }
        drop(j);
        let s = run_ok(&["store", "verify", dj.to_str().unwrap()]);
        assert!(s.contains("delta journal"), "{s}");
        assert!(s.contains("3 deltas"), "{s}");

        // Flip a byte in the last record: decode error (5), and the
        // report names the damage.
        let mut bytes = std::fs::read(&dj).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x01;
        std::fs::write(&dj, bytes).unwrap();
        let e = run_err(&["store", "verify", dj.to_str().unwrap()]);
        assert!(matches!(e, CliError::Decode(_)), "{e:?}");
        assert_eq!(e.exit_code(), 5);

        // A sweep journal verifies by its header; a damaged header is a
        // corrupt artifact (4).
        let sj = dir.join("sweep.journal");
        std::fs::write(&sj, "rsg-sweep-journal\tv1\t0000000000000abc\t6\n").unwrap();
        let s = run_ok(&["store", "verify", sj.to_str().unwrap()]);
        assert!(
            s.contains("sweep journal, fingerprint 0000000000000abc"),
            "{s}"
        );
        std::fs::write(&sj, "rsg-sweep-journal\tGARBAGE\n").unwrap();
        let e = run_err(&["store", "verify", sj.to_str().unwrap()]);
        assert_eq!(e.exit_code(), 4, "{e:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_journal_checkpoints_and_verifies() {
        let dir = std::env::temp_dir().join("rsg-cli-test-journal");
        let _ = std::fs::create_dir_all(&dir);
        let journal = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&journal);
        let model = dir.join("model.tsv");
        let (journal_p, model_p) = (journal.to_str().unwrap(), model.to_str().unwrap());
        let s = run_ok(&[
            "train",
            "--grid",
            "tiny",
            "--journal",
            journal_p,
            "--out",
            model_p,
        ]);
        assert!(s.contains("checkpointed"), "{s}");
        // The journal verifies, and a re-run resumes from it.
        let v = run_ok(&["store", "verify", journal_p, model_p]);
        assert!(v.contains("sweep journal"), "{v}");
        assert_eq!(v.matches("OK").count(), 2, "{v}");
        run_ok(&[
            "train",
            "--grid",
            "tiny",
            "--journal",
            journal_p,
            "--out",
            model_p,
        ]);
    }

    #[test]
    fn spec_rejects_bad_lang() {
        assert!(matches!(
            run_err(&["spec", "--model", "x", "y", "--lang", "klingon"]),
            CliError::Usage(_) | CliError::Failed(_)
        ));
    }

    #[test]
    fn lint_clean_dag_and_spec() {
        let dir = std::env::temp_dir().join("rsg-cli-test-lint-ok");
        let _ = std::fs::create_dir_all(&dir);
        let dagf = dir.join("wf.dag");
        let dag_p = dagf.to_str().unwrap();
        run_ok(&[
            "gen", "random", "--size", "60", "--ccr", "0.2", "--seed", "5", "--out", dag_p,
        ]);
        let s = run_ok(&["lint", dag_p]);
        assert!(s.contains("no diagnostics"), "{s}");

        // A well-formed native spec lints clean in every format, with
        // and without the platform satisfiability check.
        let specf = dir.join("rc.spec");
        std::fs::write(
            &specf,
            "rsg-spec v1\nrung none\nsize 20\nmin 10\nclock 1000 3600\n\
             heuristic MCP\nthreshold 0.95\nmemory 512\nend\n",
        )
        .unwrap();
        let spec_p = specf.to_str().unwrap();
        let j = run_ok(&["lint", spec_p, "--format", "json", "--platform"]);
        assert!(j.contains("\"rsg_analyze_report\": \"v1\""), "{j}");
        assert!(j.contains("\"errors\": 0"), "{j}");
        let t = run_ok(&["lint", spec_p, "--format", "tsv"]);
        assert!(t.starts_with("rsg-analyze-report\tv1"), "{t}");
        assert!(t.ends_with("end\n"), "{t}");
    }

    #[test]
    fn lint_errors_exit_6() {
        let dir = std::env::temp_dir().join("rsg-cli-test-lint-bad");
        let _ = std::fs::create_dir_all(&dir);
        // An inverted clock range is an error-level diagnostic.
        let specf = dir.join("bad.spec");
        std::fs::write(
            &specf,
            "rsg-spec v1\nrung none\nsize 20\nclock 3600 1000\nend\n",
        )
        .unwrap();
        let e = run_err(&["lint", specf.to_str().unwrap()]);
        assert!(matches!(e, CliError::Lint(_)), "{e:?}");
        assert_eq!(e.exit_code(), 6);

        // A spec unsatisfiable against the platform model is only an
        // error when --platform is passed.
        let unsat = dir.join("unsat.spec");
        std::fs::write(
            &unsat,
            "rsg-spec v1\nrung none\nsize 20\nclock 10000 20000\nend\n",
        )
        .unwrap();
        run_ok(&["lint", unsat.to_str().unwrap()]);
        let e = run_err(&["lint", unsat.to_str().unwrap(), "--platform"]);
        assert!(matches!(e, CliError::Lint(_)), "{e:?}");

        // Bad flag values and missing files keep their own exit codes.
        assert!(matches!(
            run_err(&["lint", unsat.to_str().unwrap(), "--format", "yaml"]),
            CliError::Usage(_)
        ));
        assert!(matches!(run_err(&["lint"]), CliError::Usage(_)));
        assert!(matches!(
            run_err(&["lint", "/nonexistent/x.spec"]),
            CliError::Io(_)
        ));
    }
}
