//! Beyond the paper: two ablations of the size model's design choices
//! and the robustness of a predicted-size schedule to runtime host
//! degradation.

use crate::experiments::{instances, spec, trained_size_model, Scale};
use crate::report::{pct, Table};
use rsg_core::curve::{mean_turnaround, turnaround_curve, CurveConfig};
use rsg_core::knee::{find_knee, refine_knee};
use rsg_core::optsearch::optimal_size_search;
use rsg_dag::DagStats;
use rsg_sched::simulator::{makespan_stretch, HostSlowdown, Perturbation};
use rsg_sched::{ExecutionContext, HeuristicKind};
use std::fmt::Write as _;

/// Ablation: bilinear interpolation of knee values across (DAG size,
/// CCR) — the paper's choice — versus snapping to the nearest grid
/// cell. Evaluated on midpoint configurations where interpolation
/// should matter most.
pub fn ablation_interp(scale: Scale) -> String {
    let (model, cfg) = trained_size_model(scale);
    let strictest = model.strictest();
    let (grid_sizes, grid_ccrs) = strictest.axes();

    let mut table = Table::new(vec![
        "config",
        "bilinear size",
        "nearest size",
        "optimal",
        "bilinear degradation",
        "nearest degradation",
    ]);
    for sw in grid_sizes.windows(2) {
        let n = ((sw[0] + sw[1]) / 2.0) as usize;
        for cw in grid_ccrs.windows(2).take(2) {
            let ccr = (cw[0] + cw[1]) / 2.0;
            let dags = instances(
                spec(n, ccr, 0.7, 0.5),
                scale.instances(),
                n as u64 ^ ccr.to_bits(),
            );
            let stats = DagStats::measure(&dags[0]);
            let bilinear = strictest.predict(&stats);
            // Nearest-cell prediction: snap n and CCR to the closest
            // grid values before predicting.
            let snap = |xs: &[f64], x: f64| -> f64 {
                *xs.iter()
                    .min_by(|a, b| (**a - x).abs().total_cmp(&(**b - x).abs()))
                    .unwrap()
            };
            let nearest = {
                let k = strictest.predict_chars(
                    snap(grid_sizes, n as f64),
                    snap(grid_ccrs, ccr),
                    stats.parallelism,
                    stats.regularity,
                );
                (k.round() as usize).clamp(1, stats.width as usize)
            };
            let opt = optimal_size_search(&dags, bilinear, &cfg);
            let d = |size: usize| {
                (mean_turnaround(&dags, size, &cfg) / opt.turnaround_s - 1.0).max(0.0)
            };
            table.row(vec![
                format!("n={n} ccr={ccr:.3}"),
                bilinear.to_string(),
                nearest.to_string(),
                opt.size.to_string(),
                pct(d(bilinear)),
                pct(d(nearest)),
            ]);
        }
    }
    table.render("Ablation: bilinear vs nearest-cell size prediction on midpoint configs")
}

/// Ablation: does bisection-refinement of the knee between geometric
/// ladder points improve the size prediction (vs the coarse ladder
/// knee)? The model's plane fit absorbs ladder quantization, so the
/// paper-relevant question is whether refinement changes prediction
/// quality enough to justify its extra curve evaluations.
pub fn ablation_refine(scale: Scale) -> String {
    let cfg = CurveConfig::default();
    let mut table = Table::new(vec![
        "config",
        "coarse knee",
        "refined knee",
        "coarse degradation",
        "refined degradation",
        "extra evals",
    ]);
    for (label, n, ccr, alpha) in [
        ("n=300 ccr=0.01 a=0.7", 300usize, 0.01, 0.7),
        ("n=500 ccr=0.1  a=0.6", 500, 0.1, 0.6),
        ("n=800 ccr=0.5  a=0.8", 800, 0.5, 0.8),
    ] {
        let dags = instances(spec(n, ccr, alpha, 0.5), scale.instances(), n as u64);
        let curve = turnaround_curve(&dags, &cfg);
        let coarse = find_knee(&curve, 0.001);
        let mut extra = 0usize;
        let refined = refine_knee(&curve, 0.001, 6, |s| {
            extra += 1;
            mean_turnaround(&dags, s, &cfg)
        });
        // Quality: degradation of each knee vs the searched optimum.
        let opt = optimal_size_search(&dags, coarse, &cfg);
        let d =
            |size: usize| (mean_turnaround(&dags, size, &cfg) / opt.turnaround_s - 1.0).max(0.0);
        table.row(vec![
            label.to_string(),
            coarse.to_string(),
            refined.to_string(),
            pct(d(coarse)),
            pct(d(refined)),
            extra.to_string(),
        ]);
    }
    table.render("Ablation: knee refinement (6 bisection rounds) vs coarse ladder knee")
}

/// Robustness of the predicted-size schedule to runtime resource
/// degradation — the operational scenario the vgMON monitor of Section
/// II.4.1 exists to detect. Replays MCP schedules at the predicted RC
/// size through the event-driven simulator while a fraction of hosts
/// slows down mid-run.
pub fn robustness(scale: Scale) -> String {
    let (model, cfg) = trained_size_model(scale);
    let dags = instances(
        spec(scale.pick(500, 5000), 0.1, 0.7, 0.5),
        scale.instances(),
        0x52,
    );
    let predicted = model.strictest().predict(&DagStats::measure(&dags[0]));
    let rc = cfg.rc_family.build(predicted);
    let mut out = format!("predicted RC size: {predicted} hosts\n");

    let mut table = Table::new(vec![
        "slowed hosts",
        "slowdown factor",
        "onset (fraction of makespan)",
        "mean makespan stretch",
    ]);
    for (frac_hosts, factor, onset) in [
        (0.1, 0.5, 0.0),
        (0.1, 0.25, 0.0),
        (0.25, 0.5, 0.0),
        (0.25, 0.5, 0.5),
        (0.5, 0.5, 0.0),
        (0.1, 0.1, 0.25),
    ] {
        let mut total = 0.0;
        for dag in &dags {
            let ctx = ExecutionContext::new(dag, &rc);
            let (s, _) = HeuristicKind::Mcp.run(&ctx);
            let k = ((rc.len() as f64) * frac_hosts).ceil() as usize;
            let p = Perturbation {
                host_slowdowns: (0..k)
                    .map(|h| HostSlowdown {
                        host: h,
                        from_s: s.makespan() * onset,
                        factor,
                    })
                    .collect(),
                comm_stretch: 1.0,
            };
            total += makespan_stretch(&ctx, &s, &p);
        }
        table.row(vec![
            format!("{:.0}%", frac_hosts * 100.0),
            format!("{factor}"),
            format!("{onset}"),
            format!("{:.3}x", total / dags.len() as f64),
        ]);
    }
    out += &table.render("Robustness: makespan stretch under mid-run host degradation");
    let _ = writeln!(
        out,
        "(even a few degraded hosts gate the whole DAG: static schedules are\n \
         brittle, which is exactly why vgES pairs selection with the vgMON\n \
         monitoring layer the paper describes)"
    );
    out
}
