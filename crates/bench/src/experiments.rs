//! Shared machinery for the per-figure/per-table experiment binaries.
//!
//! Every binary honours the `RSG_SCALE` environment variable: the
//! default `fast` preset reproduces each experiment's *shape* in
//! seconds-to-minutes on a laptop core; `RSG_SCALE=full` switches to the
//! paper's parameters (Table IV-3 / V-1 scale — hours of CPU).

use crate::report::scale_is_full;
use rsg_core::curve::CurveConfig;
use rsg_dag::montage::{MontageComm, MontageSpec};
use rsg_dag::{Dag, RandomDagSpec};
use rsg_platform::{Platform, ResourceGenSpec, TopologySpec};
use rsg_sched::{evaluate, HeuristicKind, SchedTimeModel, TurnaroundReport};
use rsg_select::selection_time::SelectionTimeModel;
use rsg_select::vgdl::{Aggregate, AggregateKind, CmpOp, NodeConstraint, VgdlSpec};
use rsg_select::VgesFinder;

/// The experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced parameters; same qualitative shape.
    Fast,
    /// The paper's parameters.
    Full,
}

impl Scale {
    /// Reads `RSG_SCALE` (`full` → [`Scale::Full`]).
    pub fn from_env() -> Scale {
        if scale_is_full() {
            Scale::Full
        } else {
            Scale::Fast
        }
    }

    /// Instances per configuration (paper: 10).
    pub fn instances(self) -> usize {
        match self {
            Scale::Fast => 3,
            Scale::Full => 10,
        }
    }
}

/// The experiment resource universe: the paper's 1000-cluster /
/// 33,667-host LSDE at full scale, a 200-cluster / 6000-host one at
/// fast scale.
pub fn universe(scale: Scale) -> Platform {
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
pub fn montage(scale: Scale, comm: MontageComm) -> Dag {
    match scale {
        Scale::Full => MontageSpec::m4469(comm).generate(),
        Scale::Fast => MontageSpec::m1629(comm).generate(),
    }
}

/// Instances of a random-DAG configuration with deterministic seeds.
pub fn instances(spec: RandomDagSpec, count: usize, salt: u64) -> Vec<Dag> {
    (0..count)
        .map(|k| spec.generate(salt.wrapping_mul(0x9E37).wrapping_add(k as u64)))
        .collect()
}

/// One row of the Chapter IV six-scheme comparison (Table IV-1 matrix).
#[derive(Debug, Clone)]
pub struct SchemeRow {
    /// Scheme label, e.g. "MCP / VG".
    pub label: String,
    /// Full turnaround report.
    pub report: TurnaroundReport,
}

/// Runs the six Chapter IV schemes on a DAG over a platform: {MCP,
/// Greedy} × {universe, top hosts, VG}. `vg_clock_mhz` is the Figure
/// IV-4 clock floor for the VG request.
pub fn six_schemes(dag: &Dag, platform: &Platform, vg_clock_mhz: f64) -> Vec<SchemeRow> {
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

/// The Table IV-3 random-DAG default configuration at a given scale.
pub fn chapter4_default_spec(scale: Scale) -> RandomDagSpec {
    RandomDagSpec {
        size: match scale {
            Scale::Full => 4469,
            Scale::Fast => 900,
        },
        ccr: 1.0,
        parallelism: 0.5,
        density: 0.5,
        regularity: 0.5,
        // The paper's 40 s mean cost; the fast preset scales it down so
        // that the scheduling-time/makespan balance of the 33,667-host
        // universe is preserved on the reduced 6,000-host one.
        mean_comp: match scale {
            Scale::Full => 40.0,
            Scale::Fast => 8.0,
        },
    }
}

/// The default curve configuration (MCP, reference clock, default
/// scheduling-time model).
pub fn default_curve_config() -> CurveConfig {
    CurveConfig::default()
}

/// Mean turnaround of the six schemes over DAG instances — used by the
/// Chapter IV random-DAG sweeps. Returns `(label, mean turnaround)`.
pub fn scheme_means(dags: &[Dag], platform: &Platform, vg_clock_mhz: f64) -> Vec<(String, f64)> {
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

/// The Chapter V observation grid at a given scale (Table V-1 at full
/// scale).
pub fn observation_grid(scale: Scale) -> rsg_core::observation::ObservationGrid {
    match scale {
        Scale::Full => rsg_core::observation::ObservationGrid::paper(),
        Scale::Fast => rsg_core::observation::ObservationGrid::fast(),
    }
}

/// A short stable digest of everything the observation sweep depends
/// on — grid axes, curve configuration, thresholds, refinement, and the
/// observability configuration — used to key sweep caches so a config
/// change cannot serve stale tables. The obs fingerprint matters
/// because a sweep served from cache records no counters or spans: an
/// instrumented run must not be satisfied by a cache entry written with
/// observability off (or vice versa).
fn sweep_cache_key(
    grid: &rsg_core::observation::ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
) -> String {
    // The same digest checkpoint journals record in their header
    // (grid + curve config + thetas + refinement + obs fingerprint +
    // sweep code version), so cache entries and journals invalidate
    // together.
    format!(
        "{:016x}",
        rsg_core::sweep_fingerprint(grid, cfg, thetas, refine_rounds)
    )
}

/// Measures (or loads) the observation-sweep knee tables for a grid and
/// configuration, cached as TSV under
/// `target/rsg_knee_tables_<key>.tsv` where `<key>` digests the grid,
/// curve config, thresholds, refinement and the current
/// [`rsg_obs::config_fingerprint`] (delete the file or set
/// `RSG_NO_CACHE=1` to re-measure).
pub fn observed_knee_tables(
    grid: &rsg_core::observation::ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
) -> Vec<rsg_core::KneeTable> {
    let sweep = || {
        eprintln!(
            "[training] observation sweep on {} configurations x {} instances ...",
            grid.cells(),
            grid.instances
        );
        rsg_core::observation::measure(grid, cfg, thetas, refine_rounds)
    };
    if std::env::var("RSG_NO_CACHE").is_ok() {
        return sweep();
    }
    let key = sweep_cache_key(grid, cfg, thetas, refine_rounds);
    let cache = std::path::PathBuf::from(format!("target/rsg_knee_tables_{key}.tsv"));
    // The store quarantines a corrupt or stale entry to `*.corrupt` and
    // re-measures; a cache problem can never fail the experiment.
    rsg_core::store::load_or_rebuild(
        &cache,
        rsg_core::persist::KNEE_TABLES_KIND,
        |payload| {
            let tables = rsg_core::persist::knee_tables_from_tsv(payload)?;
            let matches = tables.len() == thetas.len()
                && tables
                    .iter()
                    .zip(thetas)
                    .all(|(t, &th)| t.theta == th && t.grid == *grid);
            if !matches {
                return Err(rsg_core::StoreError::parse(
                    rsg_core::persist::KNEE_TABLES_KIND,
                    1,
                    "cache entry does not match the requested sweep",
                ));
            }
            eprintln!(
                "[training] loaded cached knee tables from {}",
                cache.display()
            );
            Ok(tables)
        },
        || {
            let tables = sweep();
            let payload = rsg_core::persist::knee_tables_to_tsv(&tables);
            (tables, payload)
        },
        |w| eprintln!("[training] knee-table cache {}: {w}", cache.display()),
    )
}

/// Trains the thresholded size model for the whole threshold ladder at
/// the given scale, printing progress. Both the measured knee tables
/// and the fitted model are cached as TSV under `target/` (delete the
/// files or set `RSG_NO_CACHE=1` to retrain).
pub fn trained_size_model(scale: Scale) -> (rsg_core::ThresholdedSizeModel, CurveConfig) {
    let cfg = default_curve_config();
    let retrain = || {
        let grid = observation_grid(scale);
        let tables = observed_knee_tables(&grid, &cfg, &rsg_core::THRESHOLD_LADDER, 0);
        let model = rsg_core::ThresholdedSizeModel::fit(&tables);
        let payload = model.to_tsv();
        (model, payload)
    };
    if std::env::var("RSG_NO_CACHE").is_ok() {
        return (retrain().0, cfg);
    }
    let cache = std::path::PathBuf::from(format!(
        "target/rsg_size_model_{}.tsv",
        if scale == Scale::Full { "full" } else { "fast" }
    ));
    let model = rsg_core::store::load_or_rebuild(
        &cache,
        rsg_core::persist::SIZE_MODEL_KIND,
        |payload| {
            let model = rsg_core::ThresholdedSizeModel::from_tsv(payload)?;
            eprintln!(
                "[training] loaded cached size model from {}",
                cache.display()
            );
            Ok(model)
        },
        retrain,
        |w| eprintln!("[training] size-model cache {}: {w}", cache.display()),
    );
    (model, cfg)
}

/// The Chapter V anchor configuration: the biggest observation size at
/// CCR 0.01 (n = 5000 in the paper's Table V-2; the fast grid's largest
/// size otherwise).
pub fn chapter5_anchor_size(scale: Scale) -> usize {
    match scale {
        Scale::Full => 5000,
        Scale::Fast => 500,
    }
}

/// Driver shared by the Figure IV-9…IV-14 binaries: vary one random-DAG
/// characteristic and print mean turnaround ratios relative to the
/// Greedy-on-VG scheme (the paper's Figure IV-9 baseline).
pub fn chapter4_random_sweep(
    title: &str,
    axis: &str,
    values: &[f64],
    mut apply: impl FnMut(&mut RandomDagSpec, f64),
) {
    let scale = Scale::from_env();
    let platform = universe(scale);
    let mut table = crate::report::Table::new(vec![
        axis.to_string(),
        "MCP/universe".to_string(),
        "MCP/top".to_string(),
        "MCP/VG".to_string(),
        "Greedy/top".to_string(),
        "Greedy/VG".to_string(),
    ]);
    for &v in values {
        let mut spec = chapter4_default_spec(scale);
        apply(&mut spec, v);
        let dags = instances(spec, scale.instances(), v.to_bits());
        let means = scheme_means(&dags, &platform, 2500.0);
        let base = means
            .iter()
            .find(|(l, _)| l == "Greedy / VG")
            .map(|(_, t)| *t)
            .expect("baseline present");
        let ratio = |label: &str| -> String {
            let t = means.iter().find(|(l, _)| l == label).unwrap().1;
            format!("{:.2}", t / base)
        };
        table.row(vec![
            format!("{v}"),
            ratio("MCP / universe"),
            ratio("MCP / top hosts"),
            ratio("MCP / VG"),
            ratio("Greedy / top hosts"),
            ratio("Greedy / VG"),
        ]);
    }
    table.print(title);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_fast() {
        // Unless RSG_SCALE=full is exported by the harness.
        if std::env::var("RSG_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Fast);
        }
    }

    #[test]
    fn sweep_cache_key_tracks_obs_config() {
        let _guard = rsg_obs::test_guard();
        let grid = rsg_core::observation::ObservationGrid::tiny();
        let cfg = default_curve_config();
        let off = sweep_cache_key(&grid, &cfg, &[0.05], 1);
        rsg_obs::enable(true);
        let on = sweep_cache_key(&grid, &cfg, &[0.05], 1);
        rsg_obs::enable(false);
        assert_ne!(
            off, on,
            "an instrumented sweep must not share a cache entry with an obs-off one"
        );
    }

    #[test]
    fn corrupt_sweep_cache_quarantined_and_rebuilt() {
        // Serialized with other obs-touching tests: the cache key
        // digests the global obs configuration.
        let _guard = rsg_obs::test_guard();
        if std::env::var("RSG_NO_CACHE").is_ok() {
            return;
        }
        let grid = rsg_core::observation::ObservationGrid::tiny();
        let cfg = default_curve_config();
        let thetas = [0.02, 0.05];
        let clean = observed_knee_tables(&grid, &cfg, &thetas, 0);
        let key = sweep_cache_key(&grid, &cfg, &thetas, 0);
        let cache = format!("target/rsg_knee_tables_{key}.tsv");
        let quarantined = format!("{cache}.corrupt");
        let _ = std::fs::remove_file(&quarantined);

        // Garbage in the cache slot: the sweep must recover — the
        // entry is quarantined, re-measured, and the result identical.
        std::fs::write(&cache, "garbage bytes, definitely not an envelope").unwrap();
        let recovered = observed_knee_tables(&grid, &cfg, &thetas, 0);
        assert_eq!(recovered, clean);
        assert!(
            std::path::Path::new(&quarantined).exists(),
            "damaged entry must be preserved as {quarantined}"
        );

        // The rebuilt slot serves loads again (same tables, no sweep:
        // the envelope now present decodes cleanly).
        let reloaded = observed_knee_tables(&grid, &cfg, &thetas, 0);
        assert_eq!(reloaded, clean);
        let _ = std::fs::remove_file(&quarantined);
    }

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
