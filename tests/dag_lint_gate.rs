//! The `/spec` lint gate and the DAG reader agree: a document passes
//! `analyze` without error-level diagnostics exactly when `read_dag`
//! builds it. The handler reads the DAG only after the gate passed, so
//! this makes its post-lint "cannot parse 'dag'" 400 unreachable.

use proptest::prelude::*;
use rsg::analyze::dag_lints::lint_dag;
use rsg::analyze::{analyze, Input};
use rsg::dag::io::{read_dag, read_dag_raw, write_dag};
use rsg::dag::RandomDagSpec;

/// Applies one change to a written DAG document: a defect, or for
/// kinds 7, 10 and 11 a harmless change. `at` picks the task or edge it
/// lands on.
fn mutate(lines: &mut Vec<String>, kind: u32, at: usize) {
    let tasks = lines.iter().filter(|l| l.starts_with("task ")).count();
    let edges: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("edge "))
        .collect();
    let end = lines.len() - 1;
    let fields =
        |line: &str| -> Vec<String> { line.split_whitespace().map(String::from).collect() };
    let first_task = lines.iter().position(|l| l.starts_with("task ")).unwrap();
    match kind {
        // Duplicate an edge line.
        0 if !edges.is_empty() => {
            let dup = lines[edges[at % edges.len()]].clone();
            lines.insert(end, dup);
        }
        // Self edge.
        1 => lines.insert(end, format!("edge {t} {t} 0.5", t = at % tasks)),
        // Dangling endpoint.
        2 => lines.insert(end, format!("edge {} {} 0.5", at % tasks, tasks + at % 3)),
        // Reversed edge: a two-task cycle.
        3 if !edges.is_empty() => {
            let f = fields(&lines[edges[at % edges.len()]]);
            lines.insert(end, format!("edge {} {} {}", f[2], f[1], f[3]));
        }
        // NaN edge cost.
        4 if !edges.is_empty() => {
            let i = edges[at % edges.len()];
            let f = fields(&lines[i]);
            lines[i] = format!("edge {} {} NaN", f[1], f[2]);
        }
        // Negative task cost.
        5 => {
            let t = at % tasks;
            lines[first_task + t] = format!("task {t} -2.5");
        }
        // Bad reference clock.
        6 => {
            let i = lines
                .iter()
                .position(|l| l.starts_with("refclock"))
                .unwrap();
            lines[i] = format!("refclock {}", ["0", "-1500", "NaN", "inf"][at % 4]);
        }
        // An edge id that is not an unsigned integer.
        9 => lines.insert(end, format!("edge -1 {}.9 0.5", at % tasks)),
        // An edge line ahead of the tasks it names.
        10 if !edges.is_empty() => {
            let edge = lines.remove(edges[at % edges.len()]);
            lines.insert(first_task, edge);
        }
        // Zero task cost: a warning, not an error.
        7 => {
            let t = at % tasks;
            lines[first_task + t] = format!("task {t} 0");
        }
        // A different, valid reference clock.
        _ => {
            let i = lines
                .iter()
                .position(|l| l.starts_with("refclock"))
                .unwrap();
            lines[i] = "refclock 2400".into();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn lint_gate_passes_exactly_the_docs_read_dag_builds(
        size in 1usize..40,
        density in 1u32..=10,
        seed in 0u64..1_000_000,
        mutations in prop::collection::vec((0u32..12, 0usize..10_000), 0..=3),
    ) {
        let spec = RandomDagSpec {
            size,
            ccr: 0.5,
            parallelism: 0.5,
            density: f64::from(density) / 10.0,
            regularity: 0.5,
            mean_comp: 10.0,
        };
        let mut lines: Vec<String> = write_dag(&spec.generate(seed))
            .lines()
            .map(String::from)
            .collect();
        for &(kind, at) in &mutations {
            mutate(&mut lines, kind, at);
        }
        let text = lines.join("\n") + "\n";

        let gate_passes = analyze(&[Input::new("d", &text)], None).errors() == 0;
        let read = read_dag(&text);
        prop_assert_eq!(gate_passes, read.is_ok(), "{:?}\n{}", read.err(), text);
        if let Ok(dag) = read {
            let raw = read_dag_raw(&text).expect("a readable DAG decodes raw");
            prop_assert_eq!(lint_dag(&raw, "d").1, Some(dag.width()));
        }
    }
}
