//! End-to-end test of the `--trace` / `--report` observability flags:
//! one `rsg spec --grid tiny` invocation must produce a schema-valid
//! JSON run report covering every pipeline stage (sweep, knee
//! refinement, heuristic prediction, spec emission).
//!
//! Runs as its own process so the global obs registry is not shared
//! with other test binaries.

use rsg_obs::json::Json;

fn run(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    rsg_cli::run(&argv, &mut out).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    String::from_utf8(out).unwrap()
}

#[test]
fn spec_report_covers_the_whole_pipeline() {
    // `run` with obs flags resets the global registry; keep the two
    // obs-enabled tests from interleaving.
    let _guard = rsg_obs::test_guard();
    let dir = std::env::temp_dir().join("rsg-cli-test-report");
    let _ = std::fs::create_dir_all(&dir);
    let dag = dir.join("wf.dag");
    let report = dir.join("run.json");
    let (dag_p, report_p) = (dag.to_str().unwrap(), report.to_str().unwrap());

    run(&[
        "gen", "random", "--size", "120", "--seed", "3", "--out", dag_p,
    ]);
    let out = run(&[
        "spec", "--grid", "tiny", dag_p, "--lang", "all", "--report", report_p,
    ]);

    // The human-readable summary goes to stderr: stdout is the
    // command's own output only.
    assert!(
        !out.contains("--- run report ---") && !out.contains("== spans =="),
        "summary leaked into stdout: {out}"
    );

    // The report file is valid JSON with the expected shape.
    let text = std::fs::read_to_string(report_p).expect("report written");
    let doc = Json::parse(&text).expect("report must be valid JSON");
    assert_eq!(
        doc.get("rsg_obs_report").and_then(Json::as_str),
        Some("v1"),
        "schema marker"
    );

    // Spans: nested tree containing the sweep with its three phases.
    let spans = doc.get("spans").and_then(Json::as_array).unwrap();
    let find = |name: &str| {
        spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
    };
    let sweep = find("sweep").expect("sweep span");
    let phases: Vec<&str> = sweep
        .get("children")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|c| c.get("name").and_then(Json::as_str))
        .collect();
    for phase in ["generate", "evaluate", "knees"] {
        assert!(phases.contains(&phase), "sweep phase {phase}: {phases:?}");
    }
    assert!(sweep.get("total_s").and_then(Json::as_f64).unwrap() > 0.0);
    find("train_size_model").expect("size-model fit span");
    find("train_heuristic").expect("heuristic-model span");
    let specgen = find("specgen").expect("specgen span group");
    let emits: Vec<&str> = specgen
        .get("children")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|c| c.get("name").and_then(Json::as_str))
        .collect();
    for emit in ["predict", "emit_vgdl", "emit_classad", "emit_sword"] {
        assert!(emits.contains(&emit), "specgen child {emit}: {emits:?}");
    }

    // Counters: the sweep worked and knee refinement actually ran.
    let counters = doc.get("counters").and_then(Json::as_object).unwrap();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(0.0)
    };
    assert!(counter("core.sweep.dags_generated") > 0.0);
    assert!(counter("core.sweep.ladder_evals") > 0.0);
    assert!(
        counter("core.knee.refine_iterations") > 0.0,
        "refinement ran"
    );
    assert!(counter("sched.schedules_evaluated") > 0.0);
    assert!(counter("sched.placements") > 0.0);
    assert_eq!(counter("core.specgen.specs_generated"), 1.0);

    // Histograms: per-heuristic scheduling wall-clock was recorded.
    let hists = doc.get("histograms").and_then(Json::as_array).unwrap();
    let mcp = hists
        .iter()
        .find(|h| h.get("name").and_then(Json::as_str) == Some("sched.wall.mcp"))
        .expect("MCP wall histogram");
    assert!(mcp.get("count").and_then(Json::as_f64).unwrap() > 0.0);
    let buckets = mcp.get("buckets").and_then(Json::as_array).unwrap();
    let total: f64 = buckets
        .iter()
        .map(|b| b.get("count").and_then(Json::as_f64).unwrap())
        .sum();
    assert_eq!(Some(total), mcp.get("count").and_then(Json::as_f64));
}

#[test]
fn tsv_report_and_commands_without_obs_flags_are_clean() {
    let _guard = rsg_obs::test_guard();
    let dir = std::env::temp_dir().join("rsg-cli-test-report-tsv");
    let _ = std::fs::create_dir_all(&dir);
    let dag = dir.join("wf.dag");
    let report = dir.join("run.tsv");
    let (dag_p, report_p) = (dag.to_str().unwrap(), report.to_str().unwrap());

    // No obs flags → no summary section in the output.
    let out = run(&["gen", "random", "--size", "80", "--out", dag_p]);
    assert!(!out.contains("run report"));

    // A '.tsv' report path selects the TSV serialization.
    run(&["stats", dag_p, "--report", report_p]);
    let tsv = std::fs::read_to_string(report_p).unwrap();
    assert!(tsv.starts_with("rsg-obs-report\tv1\n"));
    assert!(tsv.ends_with("end\n"));
}
