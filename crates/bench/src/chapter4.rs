//! Chapter IV — why explicit resource selection: the six Table IV-1
//! schemes ({MCP, Greedy} × {universe, top hosts, VG}) on Montage
//! (Figures IV-5…IV-8) and on random DAGs (Figures IV-9…IV-14).

use crate::experiments::{instances, Scale};
use crate::report::{secs, Table};
use rsg_dag::montage::{MontageComm, MontageSpec};
use rsg_dag::{Dag, RandomDagSpec};
use rsg_platform::{Platform, ResourceGenSpec, TopologySpec};
use rsg_sched::{evaluate, HeuristicKind, SchedTimeModel, TurnaroundReport};
use rsg_select::selection_time::SelectionTimeModel;
use rsg_select::vgdl::{Aggregate, AggregateKind, CmpOp, NodeConstraint, VgdlSpec};
use rsg_select::VgesFinder;

/// The experiment resource universe: the paper's 1000-cluster /
/// 33,667-host LSDE at full scale, a 200-cluster / 6000-host one at
/// fast scale.
fn universe(scale: Scale) -> Platform {
    let spec = match scale {
        Scale::Full => ResourceGenSpec::paper_universe(),
        Scale::Fast => ResourceGenSpec {
            clusters: 200,
            year: 2006,
            target_hosts: Some(6000),
        },
    };
    Platform::generate(spec, TopologySpec::default(), 42)
}

/// The Montage workload (paper: 4469 tasks; fast: 1629).
fn montage(scale: Scale, comm: MontageComm) -> Dag {
    scale
        .pick(MontageSpec::m1629(comm), MontageSpec::m4469(comm))
        .generate()
}

/// One row of the Chapter IV six-scheme comparison (Table IV-1 matrix).
struct SchemeRow {
    /// Scheme label, e.g. "MCP / VG".
    label: String,
    /// Full turnaround report.
    report: TurnaroundReport,
}

/// Runs the six Chapter IV schemes on a DAG over a platform: {MCP,
/// Greedy} × {universe, top hosts, VG}. `vg_clock_mhz` is the Figure
/// IV-4 clock floor for the VG request.
fn six_schemes(dag: &Dag, platform: &Platform, vg_clock_mhz: f64) -> Vec<SchemeRow> {
    let model = SchedTimeModel::default();
    let sel = SelectionTimeModel::default();
    let width = dag.width() as usize;

    let universe_rc = platform.universe_rc();
    let top_rc = platform.top_hosts_rc(width.min(platform.total_hosts()));
    let vg_spec = VgdlSpec::single(Aggregate {
        kind: AggregateKind::TightBagOf,
        var: "nodes".into(),
        min: (width / 5).max(1) as u32,
        max: width as u32,
        rank: Some("Nodes".into()),
        constraints: vec![NodeConstraint::num("Clock", CmpOp::Ge, vg_clock_mhz)],
    });
    let vg_rc = VgesFinder::default()
        .find(platform, &vg_spec)
        .unwrap_or_else(|| platform.top_hosts_rc((width / 5).max(1)));

    let mut rows = Vec::new();
    for heuristic in [HeuristicKind::Mcp, HeuristicKind::Greedy] {
        for (name, rc, selected) in [
            ("universe", &universe_rc, false),
            ("top hosts", &top_rc, true),
            ("VG", &vg_rc, true),
        ] {
            let mut report = evaluate(dag, rc, heuristic, &model);
            if selected {
                report.selection_time_s = sel.seconds(platform.clusters().len());
            }
            rows.push(SchemeRow {
                label: format!("{heuristic} / {name}"),
                report,
            });
        }
    }
    rows
}

/// Mean turnaround of the six schemes over DAG instances — used by the
/// Chapter IV random-DAG sweeps. Returns `(label, mean turnaround)`.
fn scheme_means(dags: &[Dag], platform: &Platform, vg_clock_mhz: f64) -> Vec<(String, f64)> {
    let mut sums: Vec<(String, f64)> = Vec::new();
    for dag in dags {
        for row in six_schemes(dag, platform, vg_clock_mhz) {
            let t = row.report.turnaround_s();
            if let Some(slot) = sums.iter_mut().find(|(l, _)| *l == row.label) {
                slot.1 += t;
            } else {
                sums.push((row.label, t));
            }
        }
    }
    for slot in &mut sums {
        slot.1 /= dags.len() as f64;
    }
    sums
}

/// The Table IV-3 random-DAG default configuration at a given scale.
fn chapter4_default_spec(scale: Scale) -> RandomDagSpec {
    RandomDagSpec {
        size: scale.pick(900, 4469),
        ccr: 1.0,
        parallelism: 0.5,
        density: 0.5,
        regularity: 0.5,
        // The paper's 40 s mean cost; the fast preset scales it down so
        // that the scheduling-time/makespan balance of the 33,667-host
        // universe is preserved on the reduced 6,000-host one.
        mean_comp: scale.pick(8.0, 40.0),
    }
}

/// Figure IV-5: running the Montage workflow with actual communication
/// costs — scheduling time, makespan, selection time and turnaround for
/// the six schemes.
pub fn fig4_5(scale: Scale) -> String {
    montage_schemes(
        scale,
        MontageComm::ActualFiles,
        "",
        "Figure IV-5: Montage with actual communication costs",
    )
}

/// Figure IV-6: the Montage workflow with equal communication and
/// computation costs (CCR = 1) — communication now matters and the VG
/// abstraction pulls ahead of the naive "top hosts".
pub fn fig4_6(scale: Scale) -> String {
    montage_schemes(
        scale,
        MontageComm::Ccr(1.0),
        " at CCR=1",
        "Figure IV-6: Montage with CCR = 1",
    )
}

/// The six schemes on one Montage DAG: Figures IV-5 and IV-6.
fn montage_schemes(scale: Scale, comm: MontageComm, setup: &str, title: &str) -> String {
    let platform = universe(scale);
    let dag = montage(scale, comm);
    let mut out = format!(
        "Montage {} tasks{setup} on {} hosts ({scale:?} scale)\n",
        dag.len(),
        platform.total_hosts(),
    );
    let mut table = Table::new(vec![
        "scheme",
        "sched time (s)",
        "makespan (s)",
        "VG time (s)",
        "turnaround (s)",
    ]);
    for row in six_schemes(&dag, &platform, 3000.0) {
        table.row(vec![
            row.label.clone(),
            secs(row.report.sched_time_s),
            secs(row.report.makespan_s),
            secs(row.report.selection_time_s),
            secs(row.report.turnaround_s()),
        ]);
    }
    out += &table.render(title);
    out
}

/// Figures IV-7 and IV-8: Montage makespan and turnaround ratios
/// relative to MCP-on-universe while varying the CCR
/// {0.1, 0.5, 1, 2, 10}.
pub fn fig4_7(scale: Scale) -> String {
    let platform = universe(scale);
    let mut makespan = Table::new(vec![
        "CCR",
        "MCP/top",
        "MCP/VG",
        "Greedy/universe",
        "Greedy/top",
        "Greedy/VG",
    ]);
    let mut turnaround = makespan.clone();
    let schemes = [
        "MCP / top hosts",
        "MCP / VG",
        "Greedy / universe",
        "Greedy / top hosts",
        "Greedy / VG",
    ];
    for ccr in [0.1, 0.5, 1.0, 2.0, 10.0] {
        let rows = six_schemes(&montage(scale, MontageComm::Ccr(ccr)), &platform, 3000.0);
        let report = |label: &str| &rows.iter().find(|r| r.label == label).unwrap().report;
        let base = report("MCP / universe");
        let ratios = |metric: fn(&TurnaroundReport) -> f64| -> Vec<String> {
            std::iter::once(format!("{ccr}"))
                .chain(
                    schemes
                        .iter()
                        .map(|&s| format!("{:.2}", metric(report(s)) / metric(base))),
                )
                .collect()
        };
        makespan.row(ratios(|r| r.makespan_s));
        turnaround.row(ratios(TurnaroundReport::turnaround_s));
    }
    makespan.render("Figure IV-7: Montage makespan ratio vs MCP-on-universe, varying CCR")
        + &turnaround
            .render("Figure IV-8: Montage turnaround ratio vs MCP-on-universe, varying CCR")
}

/// Figure IV-9: varying DAG sizes for random DAGs (Table IV-3 sizes).
pub fn fig4_9(scale: Scale) -> String {
    let sizes = scale.pick([44.0, 150.0, 450.0, 900.0], [44.0, 447.0, 4469.0, 8938.0]);
    chapter4_random_sweep(
        scale,
        "Figure IV-9: varying DAG size",
        "size",
        &sizes,
        |s, v| {
            s.size = v as usize;
        },
    )
}

/// Figure IV-10: varying CCR for random DAGs (Table IV-3 values).
pub fn fig4_10(scale: Scale) -> String {
    let ccrs = [0.1, 0.2, 1.0, 2.0, 10.0];
    chapter4_random_sweep(scale, "Figure IV-10: varying CCR", "CCR", &ccrs, |s, v| {
        s.ccr = v;
    })
}

/// Figure IV-11: varying parallelism for random DAGs.
pub fn fig4_11(scale: Scale) -> String {
    let alphas = [0.1, 0.2, 0.5, 0.8, 1.0];
    let title = "Figure IV-11: varying parallelism";
    chapter4_random_sweep(scale, title, "parallelism", &alphas, |s, v| {
        s.parallelism = v;
    })
}

/// Figure IV-12: varying density for random DAGs.
pub fn fig4_12(scale: Scale) -> String {
    let deltas = [0.1, 0.2, 0.5, 0.8, 1.0];
    chapter4_random_sweep(
        scale,
        "Figure IV-12: varying density",
        "density",
        &deltas,
        |s, v| {
            s.density = v;
        },
    )
}

/// Figure IV-13: varying regularity for random DAGs.
pub fn fig4_13(scale: Scale) -> String {
    let betas = [0.1, 0.2, 0.5, 0.8, 1.0];
    let title = "Figure IV-13: varying regularity";
    chapter4_random_sweep(scale, title, "regularity", &betas, |s, v| {
        s.regularity = v;
    })
}

/// Figure IV-14: varying mean computational cost for random DAGs.
pub fn fig4_14(scale: Scale) -> String {
    let omegas = [1.0, 5.0, 40.0, 100.0];
    let title = "Figure IV-14: varying mean computational cost";
    chapter4_random_sweep(scale, title, "mean comp (s)", &omegas, |s, v| {
        s.mean_comp = v;
    })
}

/// The driver of Figures IV-9…IV-14: vary one random-DAG characteristic
/// of the Table IV-3 defaults and tabulate mean turnaround ratios
/// relative to the Greedy-on-VG scheme (the paper's Figure IV-9
/// baseline).
fn chapter4_random_sweep(
    scale: Scale,
    title: &str,
    axis: &str,
    values: &[f64],
    apply: impl Fn(&mut RandomDagSpec, f64),
) -> String {
    let platform = universe(scale);
    let schemes = [
        "MCP / universe",
        "MCP / top hosts",
        "MCP / VG",
        "Greedy / top hosts",
        "Greedy / VG",
    ];
    let mut table = Table::new(vec![
        axis,
        "MCP/universe",
        "MCP/top",
        "MCP/VG",
        "Greedy/top",
        "Greedy/VG",
    ]);
    for &v in values {
        let mut spec = chapter4_default_spec(scale);
        apply(&mut spec, v);
        let dags = instances(spec, scale.instances(), v.to_bits());
        let means = scheme_means(&dags, &platform, 2500.0);
        let mean = |label: &str| means.iter().find(|(l, _)| l == label).unwrap().1;
        let base = mean("Greedy / VG");
        table.row(
            std::iter::once(format!("{v}"))
                .chain(schemes.iter().map(|&s| format!("{:.2}", mean(s) / base)))
                .collect(),
        );
    }
    table.render(&format!("{title} (ratios vs Greedy/VG)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_schemes_cover_matrix() {
        let p = Platform::generate(
            ResourceGenSpec {
                clusters: 30,
                year: 2006,
                target_hosts: Some(600),
            },
            TopologySpec::default(),
            3,
        );
        let dag = rsg_dag::workflows::fork_join(2, 20, 10.0, 1.0);
        let rows = six_schemes(&dag, &p, 1000.0);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|r| r.label == "MCP / universe"));
        assert!(rows.iter().any(|r| r.label == "Greedy / VG"));
        // Selected schemes carry selection time; implicit ones don't.
        for r in &rows {
            if r.label.ends_with("universe") {
                assert_eq!(r.report.selection_time_s, 0.0);
            } else {
                assert!(r.report.selection_time_s > 0.0);
            }
        }
    }

    #[test]
    fn scheme_means_average() {
        let p = Platform::generate(
            ResourceGenSpec {
                clusters: 20,
                year: 2006,
                target_hosts: Some(400),
            },
            TopologySpec::default(),
            4,
        );
        let dags = instances(
            RandomDagSpec {
                size: 60,
                ccr: 0.5,
                parallelism: 0.5,
                density: 0.5,
                regularity: 0.5,
                mean_comp: 10.0,
            },
            2,
            9,
        );
        let means = scheme_means(&dags, &p, 500.0);
        assert_eq!(means.len(), 6);
        assert!(means.iter().all(|(_, t)| *t > 0.0));
    }
}
