//! DAG lint family (`DAG001`–`DAG005`): structural and weight checks
//! over the *raw* decoded DAG, so a defective document yields
//! diagnostics instead of a builder panic or a single opaque error.
//! The checks themselves are `rsg-dag`'s one validating pass; this
//! module only maps its defects to codes.

use crate::diag::{Code, Diagnostic};
use rsg_dag::io::RawDag;
use rsg_dag::DagError;

/// Lints one raw DAG: maps the defects of its validating pass
/// ([`RawDag::check`]) to diagnostics. `subject` names the input in the
/// diagnostics.
///
/// Returns the findings plus the DAG's maximum level width when the
/// graph is valid enough to compute one (used by the cross-file
/// `DAG005` width-vs-spec-size check).
pub fn lint_dag(raw: &RawDag, subject: &str) -> (Vec<Diagnostic>, Option<u32>) {
    let check = raw.check();
    let mut out = Vec::new();
    let n = raw.tasks.len();

    // --- DAG003: weights --------------------------------------------
    if let Some(mhz) = check.ref_clock {
        out.push(Diagnostic::error(
            Code::Dag003,
            subject,
            format!("reference clock {mhz} MHz is not a positive finite rate"),
        ));
    }
    let mut bad_tasks = check.tasks.iter().peekable();
    for (id, &cost) in raw.tasks.iter().enumerate() {
        if bad_tasks.next_if(|&&(t, _)| t as usize == id).is_some() {
            out.push(Diagnostic::error(
                Code::Dag003,
                subject,
                format!("task {id} has invalid computation cost {cost}"),
            ));
        } else if cost == 0.0 {
            out.push(Diagnostic::warn(
                Code::Dag003,
                subject,
                format!("task {id} has zero computation cost"),
            ));
        }
    }
    for &(i, defect) in &check.edges {
        if let DagError::InvalidCost(comm) = defect {
            let (a, b, _) = raw.edges[i];
            out.push(Diagnostic::error(
                Code::Dag003,
                subject,
                format!("edge {a} -> {b} has invalid communication cost {comm}"),
            ));
        }
    }

    // --- DAG002: structural defects ---------------------------------
    if n == 0 {
        out.push(Diagnostic::error(Code::Dag002, subject, "DAG has no tasks"));
    }
    for &(i, defect) in &check.edges {
        let (a, b, _) = raw.edges[i];
        let detail = match defect {
            DagError::UnknownTask(_) => {
                format!("edge {a} -> {b} references an unknown task (task count {n})")
            }
            DagError::SelfEdge(_) => format!("self edge on task {a}"),
            DagError::DuplicateEdge(..) => format!("duplicate edge {a} -> {b}"),
            _ => continue,
        };
        out.push(Diagnostic::error(Code::Dag002, subject, detail));
    }

    // --- DAG001: cycles (over the well-formed edges) -----------------
    if !check.cycle.is_empty() {
        out.push(Diagnostic::error(
            Code::Dag001,
            subject,
            format!("cycle among tasks {:?}", check.cycle),
        ));
    }

    // --- DAG004: orphan tasks ----------------------------------------
    // A task no edge touches, in a graph that otherwise *has* edges,
    // is almost always a generator or transcription bug. A fully
    // disconnected DAG (no edges at all) is a legitimate bag of tasks.
    if !raw.edges.is_empty() && n > 1 {
        let mut touched = vec![false; n];
        for &(a, b, _) in &raw.edges {
            if (a as usize) < n {
                touched[a as usize] = true;
            }
            if (b as usize) < n {
                touched[b as usize] = true;
            }
        }
        for (id, t) in touched.iter().enumerate() {
            if !t {
                out.push(Diagnostic::warn(
                    Code::Dag004,
                    subject,
                    format!("task {id} is connected to nothing else in the DAG"),
                ));
            }
        }
    }

    (out, check.width())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_dag::io::read_dag_raw;

    fn raw(doc: &str) -> RawDag {
        read_dag_raw(doc).expect("syntactically valid doc")
    }

    #[test]
    fn clean_dag_has_no_findings_and_a_width() {
        let doc = "rsg-dag v1\ntask 0 1.0\ntask 1 2.0\ntask 2 2.0\n\
                   edge 0 1 0.5\nedge 0 2 0.5\nend\n";
        let (diags, width) = lint_dag(&raw(doc), "t");
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(width, Some(2));
    }

    #[test]
    fn cycle_is_a_diagnostic_not_a_panic() {
        let doc = "rsg-dag v1\ntask 0 1.0\ntask 1 1.0\ntask 2 1.0\n\
                   edge 0 1 0.1\nedge 1 2 0.1\nedge 2 1 0.1\nend\n";
        let (diags, width) = lint_dag(&raw(doc), "t");
        assert!(diags.iter().any(|d| d.code == Code::Dag001));
        assert!(width.is_none());
        let cyc = diags.iter().find(|d| d.code == Code::Dag001).unwrap();
        assert!(cyc.detail.contains('1') && cyc.detail.contains('2'));
    }

    #[test]
    fn structural_defects_and_weights() {
        let doc = "rsg-dag v1\ntask 0 1.0\ntask 1 nan\ntask 2 0.0\n\
                   edge 0 1 0.1\nedge 0 1 0.1\nedge 1 1 0.2\nedge 0 9 0.3\nedge 1 2 -1.0\nend\n";
        let (diags, _) = lint_dag(&raw(doc), "t");
        let codes: Vec<_> = diags.iter().map(|d| (d.code, d.severity)).collect();
        use crate::diag::Severity::*;
        assert!(codes.contains(&(Code::Dag003, Error)), "NaN task cost");
        assert!(codes.contains(&(Code::Dag003, Warn)), "zero task cost");
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Dag002 && d.detail.contains("duplicate")));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Dag002 && d.detail.contains("self edge")));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Dag002 && d.detail.contains("unknown task")));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Dag003 && d.detail.contains("-1")));
    }

    #[test]
    fn orphan_task_warns_only_when_graph_has_edges() {
        let doc = "rsg-dag v1\ntask 0 1.0\ntask 1 1.0\ntask 2 1.0\nedge 0 1 0.1\nend\n";
        let (diags, _) = lint_dag(&raw(doc), "t");
        assert!(diags
            .iter()
            .any(|d| d.code == Code::Dag004 && d.detail.contains("task 2")));
        // A pure bag of tasks is fine.
        let bag = "rsg-dag v1\ntask 0 1.0\ntask 1 1.0\nend\n";
        let (diags, width) = lint_dag(&raw(bag), "t");
        assert!(diags.is_empty());
        assert_eq!(width, Some(2));
    }
}
