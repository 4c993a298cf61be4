//! Knee detection (Section V.2.2).
//!
//! "We define the best RC size as the smallest RC size such that a
//! bigger RC size would improve turnaround time by less than a
//! threshold of 0.1%." The threshold guards against experimental
//! fluctuation; larger thresholds (0.5% … 10%) implement the
//! cost/performance trade-off of Section V.3.2.3.

use crate::curve::Curve;
use rsg_obs::Counter;

/// Bisection iterations performed by [`refine_knee`] (across all
/// cells and thresholds of a sweep).
static OBS_REFINE_ITERS: Counter = Counter::new("core.knee.refine_iterations");
/// [`refine_knee`] calls that converged (interval closed) before
/// exhausting their round budget.
static OBS_REFINE_CONVERGED: Counter = Counter::new("core.knee.refine_converged_early");

/// Finds the knee of a sampled curve for threshold `theta` (e.g. 0.001
/// for the paper's 0.1%): the smallest sampled size whose turnaround is
/// within `theta` of everything achievable with more hosts.
pub fn find_knee(curve: &Curve, theta: f64) -> usize {
    assert!(!curve.points.is_empty(), "empty curve");
    assert!(theta >= 0.0);
    let n = curve.points.len();
    // Suffix minima of turnaround over strictly larger sizes.
    let mut suffix_min = vec![f64::INFINITY; n + 1];
    for i in (0..n).rev() {
        suffix_min[i] = suffix_min[i + 1].min(curve.points[i].1);
    }
    for i in 0..n {
        let (size, t) = curve.points[i];
        // Improvement achievable by any bigger RC:
        let best_later = suffix_min[i + 1];
        if best_later >= t * (1.0 - theta) {
            return size;
        }
    }
    curve.points[n - 1].0
}

/// Knees for several thresholds at once (ascending thresholds give
/// non-increasing knees).
pub fn find_knees(curve: &Curve, thetas: &[f64]) -> Vec<usize> {
    thetas.iter().map(|&t| find_knee(curve, t)).collect()
}

/// The interval `(lo, hi]` that [`refine_knee`] bisects for `theta`
/// (from the sampled point before the coarse knee to the coarse knee)
/// and the turnaround a size must come within `theta` of; `Err` with
/// the coarse knee when it is the first sampled point.
fn bracket(curve: &Curve, theta: f64) -> Result<(usize, usize, f64), usize> {
    let coarse = find_knee(curve, theta);
    let idx = curve
        .points
        .iter()
        .position(|&(s, _)| s == coarse)
        .expect("knee is a sampled point");
    if idx == 0 {
        return Err(coarse);
    }
    // Turnaround that must not be improvable by more than theta: the
    // minimum over everything >= the coarse knee.
    let target = curve.points[idx..]
        .iter()
        .map(|&(_, t)| t)
        .fold(f64::INFINITY, f64::min);
    Ok((curve.points[idx - 1].0, coarse, target))
}

/// The size the first bisection round of [`refine_knee`] evaluates for
/// `theta` (given at least one round), if it evaluates one. It depends
/// on the curve alone, so a caller can evaluate the first probes of
/// several thresholds together.
pub fn first_probe(curve: &Curve, theta: f64) -> Option<usize> {
    let (lo, hi, _) = bracket(curve, theta).ok()?;
    (hi - lo > 1).then_some((lo + hi) / 2)
}

/// Refines a coarse knee by sampling between the preceding ladder point
/// and the knee: `eval(size)` must return the mean turnaround at that
/// size. Performs up to `rounds` bisection rounds.
pub fn refine_knee(
    curve: &Curve,
    theta: f64,
    rounds: u32,
    mut eval: impl FnMut(usize) -> f64,
) -> usize {
    let (mut lo, mut hi, target) = match bracket(curve, theta) {
        Ok(interval) => interval,
        Err(coarse) => return coarse,
    };
    for _ in 0..rounds {
        if hi - lo <= 1 {
            OBS_REFINE_CONVERGED.incr();
            break;
        }
        OBS_REFINE_ITERS.incr();
        let mid = (lo + hi) / 2;
        let t_mid = eval(mid);
        if target >= t_mid * (1.0 - theta) {
            hi = mid; // mid already achieves within-theta performance
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(points: &[(usize, f64)]) -> Curve {
        Curve {
            points: points.to_vec(),
        }
    }

    #[test]
    fn knee_of_flattening_curve() {
        // Gains: 2.5% between sizes 4 and 8, then 0.026% — under the
        // 0.1% threshold the knee is 8; a 5% threshold tolerates the
        // 2.5% gain too and stops at 4.
        let c = curve(&[(1, 100.0), (2, 50.0), (4, 40.0), (8, 39.0), (16, 38.99)]);
        assert_eq!(find_knee(&c, 0.001), 8);
        assert_eq!(find_knee(&c, 0.05), 4);
    }

    #[test]
    fn knee_when_curve_rises_again() {
        // Scheduling time makes big RCs worse (Figure V-3): knee sits at
        // the minimum.
        let c = curve(&[(1, 100.0), (4, 40.0), (16, 35.0), (64, 45.0), (256, 80.0)]);
        assert_eq!(find_knee(&c, 0.001), 16);
    }

    #[test]
    fn knee_monotone_in_threshold() {
        let c = curve(&[
            (1, 100.0),
            (2, 70.0),
            (4, 50.0),
            (8, 42.0),
            (16, 40.0),
            (32, 39.8),
            (64, 39.79),
        ]);
        let knees = find_knees(&c, &crate::THRESHOLD_LADDER);
        assert!(
            knees.windows(2).all(|w| w[0] >= w[1]),
            "higher threshold, smaller knee: {knees:?}"
        );
    }

    #[test]
    fn single_point_curve() {
        let c = curve(&[(1, 10.0)]);
        assert_eq!(find_knee(&c, 0.001), 1);
    }

    #[test]
    fn monotone_decreasing_to_the_end() {
        // Still improving at the last sample: knee = last size.
        let c = curve(&[(1, 100.0), (2, 50.0), (4, 25.0)]);
        assert_eq!(find_knee(&c, 0.001), 4);
    }

    #[test]
    fn refine_narrows_interval() {
        // True underlying function: turnaround 100/size until 20, flat
        // after; coarse ladder samples at 16 and 32 put the knee at 32;
        // refinement should find ~20-24.
        let f = |s: usize| -> f64 {
            if s >= 20 {
                5.0
            } else {
                100.0 / s as f64
            }
        };
        let c = curve(&[(1, f(1)), (4, f(4)), (16, f(16)), (32, f(32)), (64, f(64))]);
        let refined = refine_knee(&c, 0.001, 8, f);
        assert!(
            (20..=24).contains(&refined),
            "refined knee {refined} should be near 20"
        );
    }

    #[test]
    fn first_probe_is_the_first_evaluation() {
        let c = curve(&[(1, 100.0), (4, 25.0), (16, 6.25), (32, 5.0), (64, 5.0)]);
        let mut probes = Vec::new();
        refine_knee(&c, 0.001, 3, |s| {
            probes.push(s);
            5.0
        });
        assert_eq!(first_probe(&c, 0.001), Some(24));
        assert_eq!(probes.first().copied(), Some(24));
        // A knee on the first point, or an interval already closed.
        assert_eq!(first_probe(&curve(&[(1, 5.0), (2, 5.0)]), 0.001), None);
        assert_eq!(first_probe(&curve(&[(1, 10.0), (2, 5.0)]), 0.001), None);
    }

    #[test]
    fn refine_on_first_point_is_identity() {
        let c = curve(&[(1, 5.0), (2, 5.0)]);
        assert_eq!(refine_knee(&c, 0.001, 4, |_| 5.0), 1);
    }
}
