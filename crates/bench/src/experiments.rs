//! Shared machinery for the experiments: the scale preset, seeded DAG
//! instances and the trained size and heuristic models.
//!
//! Every experiment takes a [`Scale`]: the `fast` preset reproduces each
//! experiment's *shape* in seconds on a laptop core; `full` switches to
//! the paper's parameters (Table IV-3 / V-1 scale — hours of CPU).

use rsg_core::curve::CurveConfig;
use rsg_core::heurmodel::{HeuristicPredictionModel, HeuristicTraining};
use rsg_core::observation::{measure, measure_checkpointed, CheckpointConfig, ObservationGrid};
use rsg_core::{ThresholdedSizeModel, THRESHOLD_LADDER};
use rsg_dag::{Dag, RandomDagSpec};
use std::sync::OnceLock;

/// The experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced parameters; same qualitative shape.
    Fast,
    /// The paper's parameters.
    Full,
}

impl Scale {
    /// The preset's name on the command line (`fast` / `full`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Fast => "fast",
            Scale::Full => "full",
        }
    }

    /// The preset called `name`, if any.
    pub fn from_name(name: &str) -> Option<Scale> {
        [Scale::Fast, Scale::Full]
            .into_iter()
            .find(|s| s.name() == name)
    }

    /// Instances per configuration (paper: 10).
    pub fn instances(self) -> usize {
        self.pick(3, 10)
    }

    /// `fast` at the fast preset, `full` at the paper's.
    pub fn pick<T>(self, fast: T, full: T) -> T {
        match self {
            Scale::Fast => fast,
            Scale::Full => full,
        }
    }
}

/// The random-DAG configuration most Chapter V–VII experiments vary:
/// density 0.5 and a 40 s mean computational cost, with the given size,
/// CCR, parallelism α and regularity β.
pub fn spec(size: usize, ccr: f64, parallelism: f64, regularity: f64) -> RandomDagSpec {
    RandomDagSpec {
        size,
        ccr,
        parallelism,
        density: 0.5,
        regularity,
        mean_comp: 40.0,
    }
}

/// Instances of a random-DAG configuration with deterministic seeds.
pub fn instances(spec: RandomDagSpec, count: usize, salt: u64) -> Vec<Dag> {
    (0..count)
        .map(|k| spec.generate(salt.wrapping_mul(0x9E37).wrapping_add(k as u64)))
        .collect()
}

/// Trains the thresholded size model for the whole threshold ladder at
/// the given scale: the observation sweep (Table V-1 grid at full scale)
/// through the checkpoint journal `target/rsg_sweep_<scale>.journal`,
/// then the fit. The journal's header digests the grid, curve
/// configuration, thresholds, refinement and sweep code version, so a
/// journal of any other sweep is quarantined rather than replayed; a
/// complete journal replays without computing, whether or not the run
/// is observed, and a killed sweep resumes where it stopped. A journal
/// that cannot be written never fails the experiment: the sweep then
/// runs without one.
pub fn trained_size_model(scale: Scale) -> (ThresholdedSizeModel, CurveConfig) {
    let cfg = CurveConfig::default();
    let grid = scale.pick(ObservationGrid::fast(), ObservationGrid::paper());
    let journal = format!("target/rsg_sweep_{}.journal", scale.name());
    eprintln!(
        "[training] observation sweep on {} configurations x {} instances, journal {journal} ...",
        grid.cells(),
        grid.instances
    );
    let checkpoint = CheckpointConfig::new(&journal);
    let tables = measure_checkpointed(&grid, &cfg, &THRESHOLD_LADDER, 0, &checkpoint)
        .unwrap_or_else(|e| {
            eprintln!("[training] {e}; sweeping without the journal");
            measure(&grid, &cfg, &THRESHOLD_LADDER, 0)
        });
    (ThresholdedSizeModel::fit(&tables), cfg)
}

/// The heuristic-model observation set (Table VI-1 at full scale).
pub fn heuristic_training(scale: Scale) -> HeuristicTraining {
    scale.pick(HeuristicTraining::fast(), HeuristicTraining::paper())
}

/// The heuristic prediction model trained on [`heuristic_training`]
/// with the default curve configuration. Trained once per process per
/// scale: every experiment that needs it shares the one model.
pub fn trained_heuristic_model(scale: Scale) -> &'static HeuristicPredictionModel {
    static MODELS: [OnceLock<HeuristicPredictionModel>; 2] = [OnceLock::new(), OnceLock::new()];
    MODELS[scale.pick(0, 1)].get_or_init(|| {
        let training = heuristic_training(scale);
        eprintln!(
            "[training] heuristic model on {} x {} cells ...",
            training.sizes.len(),
            training.ccrs.len()
        );
        HeuristicPredictionModel::train(&training, &CurveConfig::default())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_round_trip() {
        for scale in [Scale::Fast, Scale::Full] {
            assert_eq!(Scale::from_name(scale.name()), Some(scale));
        }
        assert_eq!(Scale::from_name("paper"), None);
    }
}
