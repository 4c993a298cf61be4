//! The paper's stated bounds, checked against an experiment's output.
//!
//! Each check reads the numbers the experiment printed — the text
//! `results/<ID>.txt` pins — so a bound holds exactly when the report a
//! reader sees satisfies it. Output a check cannot read is itself a
//! violation: a renamed table must not pass silently.

use crate::report::pct;

/// Figure V-4: the paper's bound on the planar fit's mean relative
/// error of log2(knee).
pub const PLANE_FIT_MAX_ERROR: f64 = 0.16;

/// Table V-5: the paper's worst average degradation of any quadrant.
pub const VALIDATION_MAX_DEGRADATION: f64 = 0.0193;

/// The violated bounds of experiment `id` given its `output`, one line
/// each; empty when every bound holds or `id` states none.
pub fn violations(id: &str, output: &str) -> Vec<String> {
    match id {
        "fig5_4" => plane_fit(output),
        "fig5_5" => knee_growth(output),
        "tab5_5" => validation_degradation(output),
        "tab6_4" => heuristic_verdicts(output),
        _ => Vec::new(),
    }
}

/// Figure V-4: the planar fit's mean relative error is at most 16%.
fn plane_fit(output: &str) -> Vec<String> {
    let error = output
        .lines()
        .find_map(|l| l.strip_prefix("mean relative error of the fit: "))
        .and_then(|rest| percent(rest.split_whitespace().next()?));
    match error {
        Some(e) if e <= PLANE_FIT_MAX_ERROR => Vec::new(),
        Some(e) => vec![format!(
            "Fig V-4: planar-fit mean relative error {} exceeds the paper's {}",
            pct(e),
            pct(PLANE_FIT_MAX_ERROR)
        )],
        None => vec!["Fig V-4: no readable planar-fit error line".to_string()],
    }
}

/// Figure V-5: the knee grows with DAG size for every β — each β column
/// rises strictly from one size row to the next.
fn knee_growth(output: &str) -> Vec<String> {
    let title = "Figure V-5: knee vs DAG size (CCR=0.01, alpha=0.7)";
    let (header, rows) = match csv_table(output, title) {
        Ok(table) => table,
        Err(v) => return vec![v],
    };
    if header.first() != Some(&"size") || header.len() < 2 || rows.len() < 2 {
        return vec![format!(
            "{title}: expected a size column, beta columns and at least two sizes, \
             found {header:?} with {} rows",
            rows.len()
        )];
    }
    let mut violations = Vec::new();
    for (c, &beta) in header.iter().enumerate().skip(1) {
        let column: Option<Vec<(&str, f64)>> = rows
            .iter()
            .map(|r| Some((*r.first()?, r.get(c)?.parse().ok()?)))
            .collect();
        let Some(column) = column else {
            violations.push(format!("{title}: unreadable {beta} column"));
            continue;
        };
        for pair in column.windows(2) {
            let ((n0, k0), (n1, k1)) = (pair[0], pair[1]);
            if k1 <= k0 {
                violations.push(format!(
                    "Fig V-5: the {beta} knee does not grow with DAG size: {k0} at n={n0}, \
                     {k1} at n={n1}"
                ));
            }
        }
    }
    violations
}

/// Table V-5: no quadrant row averages more than the paper's worst
/// degradation, 1.93%.
fn validation_degradation(output: &str) -> Vec<String> {
    let title = "Table V-5: size prediction model validation";
    check_rows(
        output,
        title,
        &["quadrant", "sizes", "avg degradation"],
        |r| match percent(r[2]) {
            Some(d) if d <= VALIDATION_MAX_DEGRADATION => None,
            Some(_) => Some(format!(
                "Table V-5: {} n={}: average degradation {} exceeds the paper's worst {}",
                r[0],
                r[1],
                r[2],
                pct(VALIDATION_MAX_DEGRADATION)
            )),
            None => Some(format!("Table V-5: unreadable degradation '{}'", r[2])),
        },
    )
}

/// Table VI-4: no validation point's heuristic prediction is wrong.
fn heuristic_verdicts(output: &str) -> Vec<String> {
    let title = "Table VI-4 / Figure VI-4: heuristic model validation breakdown";
    let columns = [
        "size",
        "CCR",
        "predicted",
        "actual best",
        "degradation",
        "verdict",
    ];
    check_rows(output, title, &columns, |r| {
        (r[5] == "wrong").then(|| {
            format!(
                "Table VI-4: n={} CCR={}: predicted {} but {} is best ({} degradation)",
                r[0], r[1], r[2], r[3], r[4]
            )
        })
    })
}

/// The header and rows of the CSV form of the table titled `title`; a
/// missing table is a violation.
fn csv_table<'a>(
    output: &'a str,
    title: &str,
) -> Result<(Vec<&'a str>, Vec<Vec<&'a str>>), String> {
    let heading = format!("== {title} ==");
    let mut lines = output
        .lines()
        .skip_while(|l| *l != heading)
        .skip_while(|l| *l != "--- csv ---")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split(',').collect::<Vec<_>>());
    let header = lines
        .next()
        .ok_or_else(|| format!("{title}: table not found"))?;
    Ok((header, lines.collect()))
}

/// Applies `check` to every row of the CSV form of the table titled
/// `title`, with the row's cells in `columns` order; a missing table,
/// column or cell is a violation.
fn check_rows(
    output: &str,
    title: &str,
    columns: &[&str],
    check: impl Fn(&[&str]) -> Option<String>,
) -> Vec<String> {
    let (header, rows) = match csv_table(output, title) {
        Ok(table) => table,
        Err(v) => return vec![v],
    };
    let Some(index) = columns
        .iter()
        .map(|c| header.iter().position(|h| h == c))
        .collect::<Option<Vec<_>>>()
    else {
        return vec![format!(
            "{title}: expected columns {columns:?}, found {header:?}"
        )];
    };
    let mut violations = Vec::new();
    for row in &rows {
        match index
            .iter()
            .map(|&i| row.get(i).copied())
            .collect::<Option<Vec<_>>>()
        {
            Some(cells) => violations.extend(check(&cells)),
            None => violations.push(format!("{title}: short row {row:?}")),
        }
    }
    if rows.is_empty() {
        violations.push(format!("{title}: no rows"));
    }
    violations
}

/// `"2.55%"` → 0.0255.
fn percent(s: &str) -> Option<f64> {
    s.strip_suffix('%')?.parse::<f64>().ok().map(|p| p / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Table;

    fn tab5_5(degradations: &[&str]) -> String {
        let mut t = Table::new(vec!["quadrant", "sizes", "avg degradation", "included"]);
        for (i, d) in degradations.iter().enumerate() {
            t.row(vec![
                "mid sizes x mid CCR".to_string(),
                (100 * i).to_string(),
                d.to_string(),
                "6".to_string(),
            ]);
        }
        t.render("Table V-5: size prediction model validation") + "(paper: ...)\n"
    }

    fn tab6_4(verdicts: &[&str]) -> String {
        let mut t = Table::new(vec![
            "size",
            "CCR",
            "predicted",
            "actual best",
            "degradation",
            "verdict",
        ]);
        for v in verdicts {
            t.row(vec!["447", "0.255", "FCFS", "MCP", "7.00%", v]);
        }
        t.render("Table VI-4 / Figure VI-4: heuristic model validation breakdown")
    }

    #[test]
    fn plane_fit_bound() {
        let line = |e: &str| {
            format!("planar fit: ...\nmean relative error of the fit: {e} (paper: <= 16%)\n")
        };
        assert!(violations("fig5_4", &line("2.55%")).is_empty());
        assert!(violations("fig5_4", &line("16.00%")).is_empty());
        let v = violations("fig5_4", &line("16.01%"));
        assert_eq!(
            v,
            ["Fig V-4: planar-fit mean relative error 16.01% exceeds the paper's 16.00%"]
        );
        assert_eq!(violations("fig5_4", "nothing here").len(), 1);
    }

    #[test]
    fn validation_degradation_bound() {
        assert!(violations("tab5_5", &tab5_5(&["0.66%", "1.93%"])).is_empty());
        let v = violations("tab5_5", &tab5_5(&["0.66%", "1.94%", "-"]));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(
            v[0].contains("mid sizes x mid CCR n=100") && v[0].contains("1.94%"),
            "{v:?}"
        );
        assert!(v[1].contains("unreadable"), "{v:?}");
        assert_eq!(
            violations("tab5_5", &tab5_5(&[])),
            ["Table V-5: size prediction model validation: no rows"]
        );
        assert_eq!(violations("tab5_5", "").len(), 1);
    }

    #[test]
    fn heuristic_verdict_bound() {
        assert!(violations("tab6_4", &tab6_4(&["correct", "acceptable (<=5%)"])).is_empty());
        let v = violations("tab6_4", &tab6_4(&["correct", "wrong"]));
        assert_eq!(
            v,
            ["Table VI-4: n=447 CCR=0.255: predicted FCFS but MCP is best (7.00% degradation)"]
        );
    }

    #[test]
    fn knee_growth_bound() {
        let fig5_5 = |rows: &[[&str; 4]]| {
            let mut t = Table::new(vec!["size", "beta=0.01", "beta=0.5", "beta=1"]);
            for r in rows {
                t.row(r.to_vec());
            }
            t.render("Figure V-5: knee vs DAG size (CCR=0.01, alpha=0.7)")
        };
        let pinned = [
            ["100", "36", "29", "25"],
            ["300", "133", "73", "50"],
            ["800", "180", "133", "98"],
        ];
        assert!(violations("fig5_5", &fig5_5(&pinned)).is_empty());
        let mut flat = pinned;
        flat[2][2] = "73";
        assert_eq!(
            violations("fig5_5", &fig5_5(&flat)),
            ["Fig V-5: the beta=0.5 knee does not grow with DAG size: 73 at n=300, 73 at n=800"]
        );
        let mut garbled = pinned;
        garbled[1][3] = "-";
        assert_eq!(
            violations("fig5_5", &fig5_5(&garbled)),
            ["Figure V-5: knee vs DAG size (CCR=0.01, alpha=0.7): unreadable beta=1 column"]
        );
        assert_eq!(violations("fig5_5", &fig5_5(&pinned[..1])).len(), 1);
        assert_eq!(violations("fig5_5", "").len(), 1);
    }

    #[test]
    fn experiments_without_bounds_pass() {
        assert!(violations("fig4_5", "").is_empty());
    }
}
