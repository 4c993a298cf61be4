//! Chapter VII — specification generation: the generated ClassAd,
//! SWORD query and vgDL for Montage (Figures VII-3…VII-5), and the
//! clock-rate × RC-size trade-off behind alternative specifications
//! (Figures VII-6/VII-7).

use crate::experiments::{instances, spec, trained_heuristic_model, trained_size_model, Scale};
use crate::report::{secs, Table};
use rsg_core::alternative::tier_size_threshold;
use rsg_core::curve::{mean_turnaround, CurveConfig, RcFamily};
use rsg_core::specgen::{GeneratorConfig, SpecGenerator};
use std::fmt::Write as _;

/// Figures VII-3/VII-4/VII-5: the specifications generated for the
/// Montage DAG in all three resource-selection languages.
pub fn fig7_3(scale: Scale) -> String {
    let (size_model, _) = trained_size_model(scale);
    let generator = SpecGenerator::new(size_model, trained_heuristic_model(scale).clone());

    let dag = match scale {
        Scale::Full => rsg_dag::montage::montage_4469_actual(),
        Scale::Fast => rsg_dag::montage::montage_1629_actual(),
    };
    let spec = generator.generate(&dag, &GeneratorConfig::default());
    let mut out = format!(
        "Montage {} tasks -> RC size {} (min {}), clocks {:.0}..{:.0} MHz, heuristic {}\n\n",
        dag.len(),
        spec.rc_size,
        spec.min_size,
        spec.clock_mhz.0,
        spec.clock_mhz.1,
        spec.heuristic
    );
    let _ = writeln!(out, "== Figure VII-3: generated ClassAd ==");
    let _ = writeln!(out, "{}\n", SpecGenerator::to_classad(&spec));
    let _ = writeln!(out, "== Figure VII-4: generated SWORD XML query ==");
    let _ = writeln!(
        out,
        "{}",
        rsg_select::sword::write_sword(&SpecGenerator::to_sword(&spec))
    );
    let _ = writeln!(out, "== Figure VII-5: generated vgDL ==");
    let _ = writeln!(out, "{}", SpecGenerator::to_vgdl(&spec));
    out
}

/// Figure VII-6 / Table VII-2: application turn-around time as a
/// function of compute clock rate and RC size — the surface behind the
/// alternative-specification trade-off.
pub fn fig7_6(scale: Scale) -> String {
    let clocks = [3500.0, 3000.0, 2500.0, 2000.0, 1500.0];
    let spec = spec(scale.pick(800, 5000), 0.1, 0.8, 0.8);
    let mut out = format!(
        "Table VII-2 setup: n={}, CCR=0.1, alpha=0.8, clock tiers {:?}\n",
        spec.size, clocks
    );
    let dags = instances(spec, scale.instances(), 88);

    let mut table = Table::new(
        std::iter::once("size\\clock".to_string())
            .chain(clocks.iter().map(|c| format!("{c:.0} MHz")))
            .collect(),
    );
    for s in scale.pick(
        vec![25, 50, 100, 200, 400],
        vec![50, 100, 200, 400, 800, 1600],
    ) {
        let mut row = vec![s.to_string()];
        for clock in clocks {
            let cfg = CurveConfig {
                rc_family: RcFamily::homogeneous(clock),
                ..CurveConfig::default()
            };
            row.push(secs(mean_turnaround(&dags, s, &cfg)));
        }
        table.row(row);
    }
    out += &table.render("Figure VII-6: turnaround vs clock rate x RC size");
    out
}

/// Figure VII-7: the relative RC-size threshold for moving from 3.5 GHz
/// collections to slower tiers — how many more slow hosts make up for
/// the clock deficit.
pub fn fig7_7(scale: Scale) -> String {
    let dags = instances(
        spec(scale.pick(800, 5000), 0.1, 0.8, 0.8),
        scale.instances(),
        99,
    );
    let cfg = CurveConfig::default();
    let tiers = [3000.0, 2500.0, 2000.0];

    let mut table = Table::new(
        std::iter::once("base size @3.5GHz".to_string())
            .chain(tiers.iter().map(|t| format!("ratio to {t:.0} MHz")))
            .collect(),
    );
    for s in scale.pick([25, 50, 100, 200], [50, 100, 200, 400]) {
        let mut row = vec![s.to_string()];
        for tier in tiers {
            row.push(match tier_size_threshold(&dags, s, 3500.0, tier, &cfg) {
                Some(r) => format!("{r:.2}"),
                None => "n/a".to_string(),
            });
        }
        table.row(row);
    }
    table.render("Figure VII-7: relative RC-size thresholds for slower clock tiers")
        + "(a ratio r means: prefer the slower tier only if it offers >= r x the hosts)\n"
}
