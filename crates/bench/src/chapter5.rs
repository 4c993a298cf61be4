//! Chapter V — the size prediction model (the SC'07 core): turnaround
//! curves and their knees (Figures V-2…V-6, Table V-2), the model's
//! validation (Tables V-5…V-9, Figure V-7) and its sensitivity to
//! heterogeneity, heuristics and SCR (Figures V-8…V-24).

use crate::experiments::{instances, spec, trained_size_model, Scale};
use crate::report::{pct, secs, Table};
use rsg_core::curve::{mean_turnaround, turnaround_curve, CurveConfig, RcFamily};
use rsg_core::heterogeneity::{heterogeneity_sweep, HeterogeneityAdjustment};
use rsg_core::knee::find_knee;
use rsg_core::optsearch::optimal_size_search;
use rsg_core::planefit::PlaneFit;
use rsg_core::scr::{scr_sweep, ScrModel};
use rsg_core::utility::UtilityFunction;
use rsg_core::validate::{
    validate_config, validate_width_practice, ConfigValidation, ValidationSummary,
};
use rsg_dag::montage::{montage_1629_actual, montage_4469_actual};
use rsg_dag::{DagStats, RandomDagSpec};
use rsg_platform::CostModel;
use rsg_sched::HeuristicKind;
use std::fmt::Write as _;

/// Figure V-2: application turn-around time as a function of RC size
/// for various regularity values (size 1000, CCR 0.01, parallelism 0.6
/// at full scale).
pub fn fig5_2(scale: Scale) -> String {
    let n = scale.pick(400, 1000);
    let betas = [0.01, 0.1, 0.5, 1.0];
    let cfg = CurveConfig::default();
    let curves: Vec<_> = betas
        .iter()
        .map(|&beta| {
            let dags = instances(spec(n, 0.01, 0.6, beta), scale.instances(), beta.to_bits());
            turnaround_curve(&dags, &cfg)
        })
        .collect();

    // Join the sampled sizes across all curves.
    let mut sizes: Vec<usize> = curves
        .iter()
        .flat_map(|c| c.points.iter().map(|&(s, _)| s))
        .collect();
    sizes.sort_unstable();
    sizes.dedup();

    let mut table = Table::new(
        std::iter::once("RC size".to_string())
            .chain(betas.iter().map(|b| format!("beta={b}")))
            .collect(),
    );
    for &s in &sizes {
        let mut row = vec![s.to_string()];
        for c in &curves {
            row.push(c.at(s).map_or_else(|| "-".into(), secs));
        }
        table.row(row);
    }
    table.render(&format!(
        "Figure V-2: turnaround vs RC size (n={n}, CCR=0.01, alpha=0.6)"
    ))
}

/// Figure V-3: turnaround vs RC size for a bigger DAG (size 5000, CCR
/// 0.01, parallelism 0.7) — the knee sharpens and the curve rises again
/// as scheduling time dominates.
pub fn fig5_3(scale: Scale) -> String {
    let n = scale.pick(800, 5000);
    let cfg = CurveConfig::default();
    let mut out = String::new();
    let mut table = Table::new(vec![
        "beta",
        "knee @0.1%",
        "turnaround@knee (s)",
        "turnaround@width (s)",
    ]);
    for beta in [0.01, 0.5, 1.0] {
        let dags = instances(spec(n, 0.01, 0.7, beta), scale.instances(), beta.to_bits());
        let curve = turnaround_curve(&dags, &cfg);
        let knee = find_knee(&curve, 0.001);
        let t_knee = curve.at(knee).unwrap();
        let t_width = curve.points.last().unwrap().1;
        table.row(vec![
            format!("{beta}"),
            knee.to_string(),
            secs(t_knee),
            secs(t_width),
        ]);
        let _ = writeln!(out, "curve beta={beta}:");
        for &(s, t) in &curve.points {
            let _ = writeln!(out, "  {s:>7}  {}", secs(t));
        }
    }
    out += &table.render(&format!(
        "Figure V-3: knees (n={n}, CCR=0.01, alpha=0.7); turnaround rises past the knee"
    ));
    out
}

/// The Chapter V anchor configuration: the biggest observation size at
/// CCR 0.01 (n = 5000 in the paper's Table V-2; the fast grid's largest
/// size otherwise).
fn chapter5_anchor_size(scale: Scale) -> usize {
    scale.pick(500, 5000)
}

/// The α axis of the anchor knee grid (Table V-2, Figure V-4).
const GRID_ALPHAS: [f64; 7] = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
/// The β axis of the anchor knee grid (Table V-2, Figure V-4).
const GRID_BETAS: [f64; 6] = [0.01, 0.1, 0.3, 0.5, 0.8, 1.0];

/// The knee at θ = 0.1% of every (α, β) cell of the anchor grid at
/// CCR 0.01, α-major.
fn anchor_knees(scale: Scale) -> Vec<usize> {
    let n = chapter5_anchor_size(scale);
    let cfg = CurveConfig::default();
    let mut knees = Vec::new();
    for a in GRID_ALPHAS {
        for b in GRID_BETAS {
            let dags = instances(
                spec(n, 0.01, a, b),
                scale.instances(),
                a.to_bits() ^ b.to_bits(),
            );
            knees.push(find_knee(&turnaround_curve(&dags, &cfg), 0.001));
        }
    }
    knees
}

/// Table V-2: knee values over the α × β grid for the anchor DAG size
/// at CCR = 0.01 (5000 tasks in the paper).
pub fn tab5_2(scale: Scale) -> String {
    let mut table = Table::new(
        std::iter::once("alpha\\beta".to_string())
            .chain(GRID_BETAS.iter().map(|b| format!("{b}")))
            .collect(),
    );
    let knees = anchor_knees(scale);
    for (a, row) in GRID_ALPHAS.iter().zip(knees.chunks(GRID_BETAS.len())) {
        table.row(
            std::iter::once(format!("{a}"))
                .chain(row.iter().map(usize::to_string))
                .collect(),
        );
    }
    let n = chapter5_anchor_size(scale);
    table.render(&format!("Table V-2: knee values (n={n}, CCR=0.01)"))
}

/// Figure V-4: the log2(knee) surface over (α, β) is planar — fit the
/// plane and report the mean relative error (the paper reports at most
/// 16% for the 5000-task slice).
pub fn fig5_4(scale: Scale) -> String {
    let n = chapter5_anchor_size(scale);
    let mut samples = Vec::new();
    let mut table = Table::new(vec!["alpha", "beta", "knee", "log2(knee)"]);
    let cells = GRID_ALPHAS
        .iter()
        .flat_map(|&a| GRID_BETAS.iter().map(move |&b| (a, b)));
    for ((a, b), knee) in cells.zip(anchor_knees(scale)) {
        let knee = knee.max(1) as f64;
        samples.push((a, b, knee.log2()));
        table.row(vec![
            format!("{a}"),
            format!("{b}"),
            format!("{knee}"),
            format!("{:.3}", knee.log2()),
        ]);
    }
    let mut out = table.render(&format!("Figure V-4: log2 knee surface (n={n}, CCR=0.01)"));
    let fit = PlaneFit::fit(&samples);
    let _ = writeln!(
        out,
        "planar fit: log2(knee) = {:.3}*alpha + {:.3}*beta + {:.3}",
        fit.a, fit.b, fit.c
    );
    let _ = writeln!(
        out,
        "mean relative error of the fit: {} (paper: <= 16%)",
        pct(fit.mean_relative_error(&samples))
    );
    out
}

/// Figure V-5: knee values as a function of DAG size (CCR 0.01,
/// parallelism 0.7) for various regularity values.
pub fn fig5_5(scale: Scale) -> String {
    let sizes = scale.pick(vec![100, 300, 800], vec![100, 500, 1000, 5000, 10_000]);
    let betas = [0.01, 0.5, 1.0];
    let cfg = CurveConfig::default();
    let mut table = Table::new(
        std::iter::once("size".to_string())
            .chain(betas.iter().map(|b| format!("beta={b}")))
            .collect(),
    );
    for n in sizes {
        let mut row = vec![n.to_string()];
        for &b in &betas {
            let dags = instances(
                spec(n, 0.01, 0.7, b),
                scale.instances(),
                (n as u64) ^ b.to_bits(),
            );
            row.push(find_knee(&turnaround_curve(&dags, &cfg), 0.001).to_string());
        }
        table.row(row);
    }
    table.render("Figure V-5: knee vs DAG size (CCR=0.01, alpha=0.7)")
}

/// Figure V-6: knee values as a function of CCR (anchor size,
/// regularity 0.01) for various parallelism values.
pub fn fig5_6(scale: Scale) -> String {
    let n = chapter5_anchor_size(scale);
    let alphas = [0.5, 0.7, 0.9];
    let cfg = CurveConfig::default();
    let mut table = Table::new(
        std::iter::once("CCR".to_string())
            .chain(alphas.iter().map(|a| format!("alpha={a}")))
            .collect(),
    );
    for ccr in [0.01, 0.1, 0.3, 0.5, 0.8, 1.0] {
        let mut row = vec![format!("{ccr}")];
        for &a in &alphas {
            let dags = instances(
                spec(n, ccr, a, 0.01),
                scale.instances(),
                ccr.to_bits() ^ a.to_bits(),
            );
            row.push(find_knee(&turnaround_curve(&dags, &cfg), 0.001).to_string());
        }
        table.row(row);
    }
    table.render(&format!("Figure V-6: knee vs CCR (n={n}, beta=0.01)"))
}

/// Figure V-7: utility vs knee threshold — the threshold ladder trades
/// turnaround degradation for (negative) relative cost; a 1%-for-10%
/// utility picks an interior threshold.
pub fn fig5_7(scale: Scale) -> String {
    let (model, cfg) = trained_size_model(scale);
    let cost = CostModel::default();
    let dags = instances(
        spec(scale.pick(500, 5000), 0.1, 0.7, 0.5),
        scale.instances(),
        77,
    );
    let stats = DagStats::measure(&dags[0]);

    // Ground truth optimum around the strictest prediction.
    let predicted0 = model.strictest().predict(&stats);
    let opt = optimal_size_search(&dags, predicted0, &cfg);
    let c_opt = cost.execution_cost(&cfg.rc_family.build(opt.size), opt.turnaround_s);

    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "threshold",
        "predicted size",
        "degradation",
        "relative cost",
        "utility (1%:10%)",
    ]);
    let utility = UtilityFunction::one_for_ten();
    for m in &model.models {
        let size = m.predict(&stats);
        let t = mean_turnaround(&dags, size, &cfg);
        let deg = (t / opt.turnaround_s - 1.0).max(0.0);
        let c = cost.execution_cost(&cfg.rc_family.build(size), t);
        let rel = cost.relative_cost(c, c_opt);
        rows.push((m.theta, deg, rel));
        table.row(vec![
            pct(m.theta),
            size.to_string(),
            pct(deg),
            pct(rel),
            format!("{:.4}", utility.score(deg, rel)),
        ]);
    }
    let mut out = table.render("Figure V-7: utility vs threshold");
    let pick = utility.choose(&rows);
    let _ = writeln!(
        out,
        "1%-for-10% utility selects threshold {} (row {pick})",
        pct(rows[pick].0),
    );
    out
}

/// Figures V-8/V-9: performance degradation and relative cost as a
/// function of clock-rate heterogeneity when the homogeneous prediction
/// is used unchanged.
pub fn fig5_8(scale: Scale) -> String {
    let (model, cfg) = trained_size_model(scale);
    let hs = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let mut out = String::new();
    for n in scale.pick([300, 800], [1000, 5000]) {
        let dags = instances(spec(n, 0.1, 0.7, 0.5), scale.instances(), n as u64);
        let prediction = model.strictest().predict(&DagStats::measure(&dags[0]));
        let pts = heterogeneity_sweep(&dags, prediction, &cfg, &hs, &CostModel::default());
        let mut table = Table::new(vec![
            "H",
            "degradation",
            "relative cost",
            "optimal size",
            "optimal turnaround (s)",
        ]);
        for p in &pts {
            table.row(vec![
                format!("{}", p.heterogeneity),
                pct(p.degradation),
                pct(p.relative_cost),
                p.optimal_size.to_string(),
                format!("{:.1}", p.optimal_turnaround_s),
            ]);
        }
        out += &table.render(&format!(
            "Figures V-8/V-9: heterogeneity sweep, homogeneous prediction {prediction} (n={n})"
        ));
    }
    out
}

/// Figures V-10/V-11: change of the *optimal* RC size and optimal
/// turnaround as clock-rate heterogeneity grows, plus the fitted linear
/// size-adjustment used by the spec generator.
pub fn fig5_10(scale: Scale) -> String {
    let (model, cfg) = trained_size_model(scale);
    let hs = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let dags = instances(
        spec(scale.pick(500, 5000), 0.1, 0.7, 0.5),
        scale.instances(),
        31,
    );
    let prediction = model.strictest().predict(&DagStats::measure(&dags[0]));
    let pts = heterogeneity_sweep(&dags, prediction, &cfg, &hs, &CostModel::default());

    let mut table = Table::new(vec!["H", "optimal size", "optimal turnaround (s)"]);
    for p in &pts {
        table.row(vec![
            format!("{}", p.heterogeneity),
            p.optimal_size.to_string(),
            format!("{:.1}", p.optimal_turnaround_s),
        ]);
    }
    let mut out =
        table.render("Figures V-10/V-11: optimal RC size and turnaround vs heterogeneity");
    let adj = HeterogeneityAdjustment::fit(&pts);
    let _ = writeln!(
        out,
        "fitted size adjustment: size(H) = size(0) * (1 + {:.3} * H)",
        adj.gamma
    );
    let _ = writeln!(
        out,
        "tolerance for <=5% degradation: H <= {:.2}",
        HeterogeneityAdjustment::tolerance_for(&pts, 0.05)
    );
    out
}

/// Figures V-16/V-17: performance degradation and relative cost of the
/// size model under different scheduling heuristics and resource
/// conditions (homogeneous / clock-heterogeneous / bandwidth-
/// heterogeneous) — the Chapter V sensitivity analysis.
pub fn fig5_16(scale: Scale) -> String {
    // The model is trained with the MCP reference heuristic; the
    // sensitivity question is how far its predictions degrade when a
    // different heuristic or resource condition is used.
    let (model, base) = trained_size_model(scale);
    let strictest = model.strictest();
    let cost = CostModel::default();
    let dags = instances(
        spec(scale.pick(500, 5000), 0.1, 0.7, 0.5),
        scale.instances(),
        55,
    );

    let conditions = [
        ("homogeneous", base.rc_family),
        (
            "clock het 0.3",
            RcFamily {
                heterogeneity: 0.3,
                ..base.rc_family
            },
        ),
        (
            "bw het 0.5",
            RcFamily {
                bw_heterogeneity: 0.5,
                ..base.rc_family
            },
        ),
    ];
    let heuristics = [
        HeuristicKind::Mcp,
        HeuristicKind::Dls,
        HeuristicKind::Fca,
        HeuristicKind::Fcfs,
    ];

    let mut table = Table::new(vec![
        "heuristic",
        "condition",
        "predicted",
        "optimal",
        "degradation",
        "relative cost",
    ]);
    for h in heuristics {
        for (cond, fam) in conditions {
            let cfg = CurveConfig {
                heuristic: h,
                rc_family: fam,
                ..base
            };
            let v = validate_config(&dags, strictest, &cfg, &cost);
            table.row(vec![
                h.to_string(),
                cond.to_string(),
                v.predicted_size.to_string(),
                v.optimal_size.to_string(),
                pct(v.degradation),
                pct(v.relative_cost),
            ]);
        }
    }
    table.render("Figures V-16/V-17: heuristic x resource-condition sensitivity")
}

/// Figures V-18…V-24: predicted RC size change as a function of SCR
/// (the scheduling-to-computation clock-rate ratio), with the fitted
/// power-law formulas of Figures V-23/V-24.
pub fn fig5_18(scale: Scale) -> String {
    let scrs = [0.25, 0.5, 1.0, 2.0, 4.0];
    let base = CurveConfig::default();
    let cheap = |size, alpha| RandomDagSpec {
        mean_comp: 5.0,
        ..spec(size, 0.01, alpha, 0.5)
    };
    let configs = [
        (
            "small DAG, homogeneous",
            cheap(scale.pick(300, 1000), 0.7),
            0.0_f64,
        ),
        (
            "larger DAG, homogeneous",
            cheap(scale.pick(800, 5000), 0.9),
            0.0,
        ),
        (
            "larger DAG, heterogeneity 0.3",
            cheap(scale.pick(800, 5000), 0.9),
            0.3,
        ),
    ];

    let mut out = String::new();
    for (label, spec, het) in configs {
        let dags = instances(spec, scale.instances(), het.to_bits() ^ spec.size as u64);
        let cfg = CurveConfig {
            rc_family: RcFamily {
                heterogeneity: het,
                ..base.rc_family
            },
            ..base
        };
        let pts = scr_sweep(&dags, &cfg, &scrs, 0.01);
        let mut table = Table::new(vec!["SCR", "knee"]);
        for p in &pts {
            table.row(vec![format!("{}", p.scr), p.knee.to_string()]);
        }
        out += &table.render(&format!("Figures V-18..V-22: knee vs SCR ({label})"));
        let m = ScrModel::fit(&pts);
        let _ = writeln!(
            out,
            "Figure V-23/V-24 formula for {label}: {}\n",
            m.formula()
        );
    }
    out
}

/// Table V-5: validation of the size prediction model — average
/// predicted-size difference, performance degradation and relative
/// cost, split into four quadrants: {observation-set, midpoint} DAG
/// sizes × {observation-set, midpoint} CCR values.
pub fn tab5_5(scale: Scale) -> String {
    let (model, cfg) = trained_size_model(scale);
    let strictest = model.strictest();
    let (grid_sizes, grid_ccrs) = strictest.axes();
    let cost = CostModel::default();

    let midpoints =
        |xs: &[f64]| -> Vec<f64> { xs.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect() };
    let mid_sizes = midpoints(grid_sizes);
    let mid_ccrs = midpoints(grid_ccrs);

    // Validation points: per size, a couple of (alpha, beta) combos.
    let combos = [(0.5, 0.5), (0.7, 0.9)];

    let mut table = Table::new(vec![
        "quadrant",
        "sizes",
        "avg size diff",
        "avg degradation",
        "avg relative cost",
        "included",
        "excluded",
    ]);
    for (q_label, sizes, ccrs) in [
        ("obs sizes x obs CCR", grid_sizes, grid_ccrs),
        ("obs sizes x mid CCR", grid_sizes, &mid_ccrs[..]),
        ("mid sizes x obs CCR", &mid_sizes[..], grid_ccrs),
        ("mid sizes x mid CCR", &mid_sizes[..], &mid_ccrs[..]),
    ] {
        for &n in sizes {
            let mut results: Vec<ConfigValidation> = Vec::new();
            for &ccr in ccrs {
                for &(a, b) in &combos {
                    let salt = (n as u64) ^ ccr.to_bits();
                    let dags = instances(spec(n as usize, ccr, a, b), scale.instances(), salt);
                    results.push(validate_config(&dags, strictest, &cfg, &cost));
                }
            }
            let s = ValidationSummary::aggregate(&results);
            table.row(vec![
                q_label.to_string(),
                format!("{}", n as usize),
                pct(s.avg_size_diff),
                pct(s.avg_degradation),
                pct(s.avg_relative_cost),
                s.included.to_string(),
                s.excluded.to_string(),
            ]);
        }
    }
    table.render("Table V-5: size prediction model validation")
        + "(paper: size diff 9-17%, degradation 0.18-1.93%, relative cost negative)\n"
}

/// Table V-6: effects of varying DAG size between two observation
/// points — the midpoint should be the worst case and intermediate
/// sizes in between.
pub fn tab5_6(scale: Scale) -> String {
    let (model, cfg) = trained_size_model(scale);
    let strictest = model.strictest();
    let (grid_sizes, _) = strictest.axes();
    // The last two observation sizes bracket the sweep.
    let lo = grid_sizes[grid_sizes.len() - 2] as usize;
    let hi = *grid_sizes.last().unwrap() as usize;
    let steps = 5usize;
    let cost = CostModel::default();

    let mut table = Table::new(vec![
        "size",
        "predicted",
        "optimal",
        "degradation",
        "relative cost",
    ]);
    for k in 0..=steps {
        let n = lo + (hi - lo) * k / steps;
        let dags = instances(spec(n, 0.1, 0.7, 0.5), scale.instances(), n as u64);
        let v = validate_config(&dags, strictest, &cfg, &cost);
        table.row(vec![
            n.to_string(),
            v.predicted_size.to_string(),
            v.optimal_size.to_string(),
            pct(v.degradation),
            pct(v.relative_cost),
        ]);
    }
    table.render(&format!(
        "Table V-6: varying DAG size between observation points {lo} and {hi}"
    ))
}

/// Table V-7: the current practice — requesting the DAG width — versus
/// the prediction model: similar turnaround for small DAGs, but runaway
/// size and cost as DAGs grow.
pub fn tab5_7(scale: Scale) -> String {
    let (model, cfg) = trained_size_model(scale);
    let strictest = model.strictest();
    let (grid_sizes, _) = strictest.axes();
    let cost = CostModel::default();

    let mut table = Table::new(vec![
        "DAG size",
        "width size diff",
        "width degradation",
        "width rel cost",
        "model rel cost",
    ]);
    for &n in grid_sizes {
        let dags = instances(
            spec(n as usize, 0.1, 0.7, 0.5),
            scale.instances(),
            n.to_bits(),
        );
        let base = validate_config(&dags, strictest, &cfg, &cost);
        let width = validate_width_practice(&dags, &base, &cfg, &cost);
        table.row(vec![
            format!("{}", n as usize),
            pct(width.size_diff),
            pct(width.degradation),
            pct(width.relative_cost),
            pct(base.relative_cost),
        ]);
    }
    table.render("Table V-7: DAG width as the RC size (current practice)")
        + "(paper: width practice up to ~880% size diff and 10x cost for big DAGs)\n"
}

/// Tables V-8/V-9: applying the predictive model to the Montage DAGs —
/// level populations, then model-vs-current-practice across knee
/// thresholds.
pub fn tab5_9(scale: Scale) -> String {
    // Table V-8: level populations.
    let mut levels = Table::new(vec!["level", "task", "1629-task", "4469-task"]);
    let d1629 = montage_1629_actual();
    let d4469 = montage_4469_actual();
    for (i, name) in rsg_dag::montage::MONTAGE_TASK_NAMES.iter().enumerate() {
        levels.row(vec![
            (i + 1).to_string(),
            name.to_string(),
            d1629.level_size(i as u32).to_string(),
            d4469.level_size(i as u32).to_string(),
        ]);
    }
    let mut out = levels.render("Table V-8: Montage level populations");

    let (model, cfg) = trained_size_model(scale);
    let cost = CostModel::default();
    let dags = match scale {
        Scale::Full => vec![d1629, d4469],
        Scale::Fast => vec![d1629],
    };
    for dag in &dags {
        let stats = DagStats::measure(dag);
        let insts = vec![dag.clone()];
        let predicted0 = model.strictest().predict(&stats);
        let opt = optimal_size_search(&insts, predicted0, &cfg);
        let c_opt = cost.execution_cost(&cfg.rc_family.build(opt.size), opt.turnaround_s);

        let mut table = Table::new(vec![
            "threshold",
            "model size",
            "model degradation",
            "model rel cost",
        ]);
        for m in &model.models {
            let size = m.predict(&stats);
            let t = mean_turnaround(&insts, size, &cfg);
            let c = cost.execution_cost(&cfg.rc_family.build(size), t);
            table.row(vec![
                pct(m.theta),
                size.to_string(),
                pct((t / opt.turnaround_s - 1.0).max(0.0)),
                pct(cost.relative_cost(c, c_opt)),
            ]);
        }
        out += &table.render(&format!(
            "Table V-9: predictive model on Montage {} (optimal size {} @ {:.1}s)",
            dag.len(),
            opt.size,
            opt.turnaround_s
        ));

        // Current practice: the width.
        let width = stats.width as usize;
        let t_w = mean_turnaround(&insts, width, &cfg);
        let c_w = cost.execution_cost(&cfg.rc_family.build(width), t_w);
        let _ = writeln!(
            out,
            "current practice (width {width}): degradation {}, relative cost {}\n",
            pct((t_w / opt.turnaround_s - 1.0).max(0.0)),
            pct(cost.relative_cost(c_w, c_opt)),
        );
    }
    out
}
