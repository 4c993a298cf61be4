//! Chapter VI — the heuristic prediction model: its observation set
//! (Table VI-1), per-heuristic turnaround (Table VI-2, Figure VI-1), the
//! decision surface (Figure VI-2), heterogeneity robustness (Table VI-3)
//! and validation (Tables VI-4/VI-5, Figures VI-4/VI-5).

use crate::experiments::{heuristic_training, instances, spec, trained_heuristic_model, Scale};
use crate::report::{pct, secs, Table};
use rsg_core::curve::{turnaround_curve, turnaround_curve_sizes, CurveConfig, RcFamily};
use rsg_core::heurmodel::HeuristicTraining;
use rsg_dag::RandomDagSpec;
use rsg_sched::HeuristicKind;
use std::fmt::Write as _;

/// Table VI-1: the observation set used to derive the heuristic
/// prediction model — DAG characteristics, heuristics compared, and
/// instance policy, at both scales.
pub fn tab6_1(scale: Scale) -> String {
    let mut out = String::new();
    for (label, t) in [
        ("fast preset", HeuristicTraining::fast()),
        ("paper (Table VI-1)", HeuristicTraining::paper()),
    ] {
        let mut table = Table::new(vec!["characteristic", "values"]);
        table.row(vec!["DAG sizes".to_string(), format!("{:?}", t.sizes)]);
        table.row(vec!["CCR".to_string(), format!("{:?}", t.ccrs)]);
        table.row(vec![
            "heuristics".to_string(),
            t.heuristics
                .iter()
                .map(|h| h.name())
                .collect::<Vec<_>>()
                .join(", "),
        ]);
        table.row(vec!["parallelism".to_string(), t.alpha.to_string()]);
        table.row(vec!["regularity".to_string(), t.beta.to_string()]);
        table.row(vec!["density".to_string(), t.density.to_string()]);
        table.row(vec!["mean comp (s)".to_string(), t.mean_comp.to_string()]);
        table.row(vec!["instances/cell".to_string(), t.instances.to_string()]);
        out += &table.render(&format!(
            "Table VI-1: heuristic-model observation set ({label})"
        ));
    }
    let _ = writeln!(
        out,
        "active scale for the other chapter-VI binaries: {scale:?}"
    );
    out
}

/// Table VI-2: application turn-around times per heuristic for the
/// smallest observation size (100 tasks in the paper) across RC sizes.
pub fn tab6_2(scale: Scale) -> String {
    let dags = instances(spec(100, 0.1, 0.7, 0.5), scale.instances(), 66);
    let sizes = [1usize, 2, 4, 8, 16, 32];
    let heuristics = [
        HeuristicKind::Mcp,
        HeuristicKind::Dls,
        HeuristicKind::Fca,
        HeuristicKind::Fcfs,
        HeuristicKind::Greedy,
    ];

    let mut table = Table::new(
        std::iter::once("RC size".to_string())
            .chain(heuristics.iter().map(|h| h.to_string()))
            .collect(),
    );
    let curves: Vec<_> = heuristics
        .iter()
        .map(|&h| {
            turnaround_curve_sizes(
                &dags,
                &sizes,
                &CurveConfig {
                    heuristic: h,
                    ..CurveConfig::default()
                },
            )
        })
        .collect();
    for (i, &s) in sizes.iter().enumerate() {
        let mut row = vec![s.to_string()];
        for c in &curves {
            row.push(secs(c.points[i].1));
        }
        table.row(row);
    }
    table.render("Table VI-2: turnaround per heuristic, DAG size 100")
}

/// The lowest mean turnaround over `dags` of `heuristic` on the
/// `rc_family` curve.
fn optimal_turnaround(dags: &[rsg_dag::Dag], heuristic: HeuristicKind, rc_family: RcFamily) -> f64 {
    let cfg = CurveConfig {
        heuristic,
        rc_family,
        ..CurveConfig::default()
    };
    turnaround_curve(dags, &cfg).argmin().1
}

/// Table VI-3: performance degradation when the heuristic model is
/// trained at resource heterogeneity 0.3 but resources are homogeneous
/// (and vice versa) — the heterogeneity robustness check.
pub fn tab6_3(scale: Scale) -> String {
    let base = CurveConfig::default().rc_family;
    let mut table = Table::new(vec![
        "size",
        "heuristic",
        "H=0 optimal",
        "H=0.3 optimal",
        "delta",
    ]);
    for n in scale.pick(vec![100, 400], vec![100, 1000, 5000]) {
        let dags = instances(spec(n, 0.1, 0.7, 0.5), scale.instances(), n as u64 ^ 3);
        for h in [HeuristicKind::Mcp, HeuristicKind::Fca, HeuristicKind::Fcfs] {
            let hom = optimal_turnaround(&dags, h, base);
            let het = optimal_turnaround(
                &dags,
                h,
                RcFamily {
                    heterogeneity: 0.3,
                    ..base
                },
            );
            table.row(vec![
                n.to_string(),
                h.to_string(),
                format!("{hom:.1}"),
                format!("{het:.1}"),
                pct(het / hom - 1.0),
            ]);
        }
    }
    table.render("Table VI-3: optimal turnaround, heterogeneity 0.3 vs 0")
}

/// Tables VI-4/VI-5 and Figures VI-4/VI-5: validation of the combined
/// heuristic + size prediction models on off-grid points — breakdown of
/// correct / acceptable / wrong predictions and the mean degradation
/// from the best possible turnaround.
pub fn tab6_4(scale: Scale) -> String {
    let training = heuristic_training(scale);
    let model = trained_heuristic_model(scale);

    // Validation points: geometric midpoints of the size grid at both
    // on-grid and midpoint CCRs (Table VI-4).
    let mut points: Vec<(usize, f64)> = Vec::new();
    for w in training.sizes.windows(2) {
        let mid = ((w[0] * w[1]) as f64).sqrt() as usize;
        for cw in training.ccrs.windows(2) {
            points.push((mid, (cw[0] + cw[1]) / 2.0));
        }
        points.push((mid, training.ccrs[0]));
    }

    let mut table = Table::new(vec![
        "size",
        "CCR",
        "predicted",
        "actual best",
        "degradation",
        "verdict",
    ]);
    let mut correct = 0usize;
    let mut acceptable = 0usize;
    let mut wrong = 0usize;
    let mut total_deg = 0.0;
    let homogeneous = CurveConfig::default().rc_family;
    for &(n, ccr) in &points {
        let spec = RandomDagSpec {
            size: n,
            ccr,
            parallelism: training.alpha,
            density: training.density,
            regularity: training.beta,
            mean_comp: training.mean_comp,
        };
        let dags = instances(spec, scale.instances(), n as u64 ^ ccr.to_bits());
        let predicted = model.predict_chars(n as f64, ccr);
        // Ground truth: every heuristic's optimal turnaround.
        let mut best = (predicted, f64::INFINITY);
        let mut predicted_t = f64::INFINITY;
        for &h in &training.heuristics {
            let t = optimal_turnaround(&dags, h, homogeneous);
            if t < best.1 {
                best = (h, t);
            }
            if h == predicted {
                predicted_t = t;
            }
        }
        let deg = (predicted_t / best.1 - 1.0).max(0.0);
        total_deg += deg;
        let verdict = if predicted == best.0 {
            correct += 1;
            "correct"
        } else if deg <= 0.05 {
            acceptable += 1;
            "acceptable (<=5%)"
        } else {
            wrong += 1;
            "wrong"
        };
        table.row(vec![
            n.to_string(),
            format!("{ccr}"),
            predicted.to_string(),
            best.0.to_string(),
            pct(deg),
            verdict.to_string(),
        ]);
    }
    let mut out = table.render("Table VI-4 / Figure VI-4: heuristic model validation breakdown");
    let _ = writeln!(
        out,
        "correct: {correct}, acceptable: {acceptable}, wrong: {wrong} (of {})",
        points.len()
    );
    let _ = writeln!(
        out,
        "Figure VI-5: mean degradation from best possible turnaround: {}",
        pct(total_deg / points.len() as f64)
    );
    out
}

/// Figure VI-1 and Figure VI-2: optimal application turn-around time
/// per heuristic as a function of DAG size, and the MCP-vs-FCA decision
/// surface over (size, CCR).
pub fn fig6_1(scale: Scale) -> String {
    let training = heuristic_training(scale);
    let model = trained_heuristic_model(scale);

    // Figure VI-1: per-heuristic optimal turnaround vs size (first CCR).
    let mut fig = Table::new(
        std::iter::once("size".to_string())
            .chain(training.heuristics.iter().map(|h| h.to_string()))
            .collect(),
    );
    for (si, &n) in model.sizes.iter().enumerate() {
        let cell = model.cell(si, 0);
        let mut row = vec![n.to_string()];
        for &(_, t) in &cell.optimal_turnaround {
            row.push(secs(t));
        }
        fig.row(row);
    }
    let mut out = fig.render(&format!(
        "Figure VI-1: optimal turnaround per heuristic vs DAG size (CCR={})",
        model.ccrs[0]
    ));

    // Figure VI-2: the winner per (size, CCR) cell.
    let mut surface = Table::new(
        std::iter::once("size\\CCR".to_string())
            .chain(model.ccrs.iter().map(|c| format!("{c}")))
            .collect(),
    );
    for (si, &n) in model.sizes.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for ci in 0..model.ccrs.len() {
            row.push(model.cell(si, ci).best().to_string());
        }
        surface.row(row);
    }
    out += &surface.render("Figure VI-2: best-heuristic decision surface");
    for &ccr in &model.ccrs {
        let _ = match model.mcp_crossover_size(ccr) {
            Some(n) => writeln!(out, "CCR {ccr}: MCP loses the lead at size {n}"),
            None => writeln!(out, "CCR {ccr}: no crossover inside the grid"),
        };
    }
    out
}
