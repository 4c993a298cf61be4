//! Turnaround-vs-RC-size curves (Figures V-2 / V-3).
//!
//! The raw material of the size prediction model: for one DAG
//! configuration (averaged over instances), evaluate the application
//! turn-around time over a ladder of RC sizes built from one consistent
//! host family.

use rsg_dag::Dag;
use rsg_obs::Counter;
use rsg_platform::ResourceCollection;
use rsg_sched::{evaluate, evaluate_ladder, evaluate_reference, HeuristicKind, SchedTimeModel};
use std::collections::HashMap;

/// [`CurveEvaluator`] lookups served from the per-size memo.
static OBS_CURVE_MEMO_HITS: Counter = Counter::new("core.curve.memo_hits");
/// [`CurveEvaluator`] lookups that had to schedule (memo misses).
static OBS_CURVE_MEMO_MISSES: Counter = Counter::new("core.curve.memo_misses");
/// Times a [`CurveEvaluator`] outgrew its RC and rebuilt it.
static OBS_CURVE_RC_REBUILDS: Counter = Counter::new("core.curve.rc_rebuilds");

/// A family of resource collections parameterized only by size, so that
/// curves vary exactly one variable (prefix-stable heterogeneous draws,
/// see [`ResourceCollection::heterogeneous`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcFamily {
    /// Nominal (fastest) clock, MHz.
    pub clock_mhz: f64,
    /// Clock heterogeneity in `[0, 1)` (0 = homogeneous, Section V.4).
    pub heterogeneity: f64,
    /// Bandwidth heterogeneity in `[0, 1)` (Section V.5).
    pub bw_heterogeneity: f64,
    /// Seed of the host draws.
    pub seed: u64,
}

impl RcFamily {
    /// Homogeneous family at the given clock — the Chapter V baseline.
    pub fn homogeneous(clock_mhz: f64) -> RcFamily {
        RcFamily {
            clock_mhz,
            heterogeneity: 0.0,
            bw_heterogeneity: 0.0,
            seed: 0,
        }
    }

    /// Homogeneous family at the DAG reference clock (speed factor 1).
    pub fn reference() -> RcFamily {
        Self::homogeneous(rsg_dag::REFERENCE_CLOCK_MHZ)
    }

    /// Builds the RC of a given size.
    pub fn build(&self, size: usize) -> ResourceCollection {
        let rc = if self.heterogeneity == 0.0 {
            ResourceCollection::homogeneous(size, self.clock_mhz)
        } else {
            ResourceCollection::heterogeneous(size, self.clock_mhz, self.heterogeneity, self.seed)
        };
        if self.bw_heterogeneity > 0.0 {
            rc.with_bandwidth_heterogeneity(self.bw_heterogeneity, self.seed ^ 0xBEEF)
        } else {
            rc
        }
    }
}

/// Everything fixed while a curve sweeps RC size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveConfig {
    /// Scheduling heuristic.
    pub heuristic: HeuristicKind,
    /// Scheduling-time model.
    pub time_model: SchedTimeModel,
    /// Host family.
    pub rc_family: RcFamily,
}

impl Default for CurveConfig {
    fn default() -> Self {
        CurveConfig {
            heuristic: HeuristicKind::Mcp,
            time_model: SchedTimeModel::default(),
            rc_family: RcFamily::reference(),
        }
    }
}

/// A sampled turnaround-vs-size curve: `(rc_size, mean turnaround)`
/// pairs in increasing size order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Curve {
    /// Sampled points.
    pub points: Vec<(usize, f64)>,
}

impl Curve {
    /// The size with the lowest turnaround (smallest such size on ties).
    pub fn argmin(&self) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for &(s, t) in &self.points {
            if t < best.1 {
                best = (s, t);
            }
        }
        best
    }

    /// Turnaround at a sampled size, if that exact size was sampled.
    pub fn at(&self, size: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, t)| *t)
    }
}

/// Geometric size ladder from 1 to `max` (inclusive), growth ~1.35,
/// always containing 1, 2 and `max`.
pub fn size_ladder(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut out = vec![1usize];
    let mut x = 2.0f64;
    while (x as usize) < max {
        let v = x as usize;
        if *out.last().unwrap() != v {
            out.push(v);
        }
        x *= 1.35;
    }
    if *out.last().unwrap() != max {
        out.push(max);
    }
    out
}

/// Mean turnaround of `dags` on RCs of the exact given size.
///
/// Builds a fresh RC per call — the simple reference path. Sweeps that
/// revisit sizes (curves, knee refinement, the optimal-size search)
/// should go through a [`CurveEvaluator`], which reuses one max-size RC
/// across all sizes and memoizes results, with bit-identical numbers.
pub fn mean_turnaround(dags: &[Dag], size: usize, cfg: &CurveConfig) -> f64 {
    let rc = cfg.rc_family.build(size);
    let total: f64 = dags
        .iter()
        .map(|d| evaluate(d, &rc, cfg.heuristic, &cfg.time_model).turnaround_s())
        .sum();
    total / dags.len() as f64
}

/// [`mean_turnaround`] through the reference (fast-kernel-free)
/// heuristic implementations: fresh RC per call, full host scans. The
/// before-optimization baseline of the sweep benchmark; returns the
/// same numbers as every optimized path.
pub fn mean_turnaround_reference(dags: &[Dag], size: usize, cfg: &CurveConfig) -> f64 {
    let rc = cfg.rc_family.build(size);
    let total: f64 = dags
        .iter()
        .map(|d| evaluate_reference(d, &rc, cfg.heuristic, &cfg.time_model).turnaround_s())
        .sum();
    total / dags.len() as f64
}

/// Memoizing turnaround evaluator over one `(dags, cfg)` pair.
///
/// Two reuse layers, both bit-identical to [`mean_turnaround`]:
///
/// * **RC prefix reuse** — one maximum-size RC is built and every
///   smaller size is evaluated as a prefix view of it, all the sizes a
///   call still needs in one [`evaluate_ladder`] per instance. Valid
///   because [`RcFamily`] draws are prefix-stable: `build(k)` equals
///   the first `k` hosts of `build(n)` for any `n ≥ k`.
/// * **Per-size memoization** — curve sampling, knee refinement (which
///   bisects over already-sampled neighborhoods, once per threshold)
///   and the Table V-3 search revisit sizes; each size is scheduled
///   once.
pub struct CurveEvaluator<'a> {
    dags: &'a [Dag],
    cfg: CurveConfig,
    rc: ResourceCollection,
    memo: HashMap<usize, f64>,
}

impl<'a> CurveEvaluator<'a> {
    /// Creates an evaluator with an RC pre-built for sizes up to
    /// `capacity` (it grows on demand past that).
    pub fn new(dags: &'a [Dag], cfg: &CurveConfig, capacity: usize) -> CurveEvaluator<'a> {
        assert!(!dags.is_empty());
        CurveEvaluator {
            dags,
            cfg: *cfg,
            rc: cfg.rc_family.build(capacity.max(1)),
            memo: HashMap::new(),
        }
    }

    /// The configuration this evaluator sweeps.
    pub fn cfg(&self) -> &CurveConfig {
        &self.cfg
    }

    /// Mean turnaround of the instance set at `size` (memoized).
    pub fn mean_turnaround(&mut self, size: usize) -> f64 {
        self.fill(&[size]);
        self.memo[&size]
    }

    /// Samples a curve at explicit sizes (sorted, deduplicated).
    pub fn curve(&mut self, sizes: &[usize]) -> Curve {
        self.fill(sizes);
        let mut points: Vec<(usize, f64)> = sizes.iter().map(|&s| (s, self.memo[&s])).collect();
        points.sort_by_key(|&(s, _)| s);
        points.dedup_by_key(|&mut (s, _)| s);
        Curve { points }
    }

    /// Memoizes the mean turnaround at every size of `sizes`, all the
    /// sizes not yet memoized in one [`mean_turnarounds`].
    fn fill(&mut self, sizes: &[usize]) {
        let mut fresh: Vec<usize> = Vec::new();
        for &s in sizes {
            if self.memo.contains_key(&s) || fresh.contains(&s) {
                OBS_CURVE_MEMO_HITS.incr();
            } else {
                OBS_CURVE_MEMO_MISSES.incr();
                fresh.push(s);
            }
        }
        let Some(&largest) = fresh.iter().max() else {
            return;
        };
        if largest > self.rc.len() {
            OBS_CURVE_RC_REBUILDS.incr();
            self.rc = self.cfg.rc_family.build(largest);
        }
        let means = mean_turnarounds(self.dags, &self.rc, &fresh, &self.cfg);
        self.memo.extend(fresh.into_iter().zip(means));
    }
}

/// Mean turnaround of `dags` at every size of `sizes`, on prefixes of
/// `rc`: one [`evaluate_ladder`] per instance, each size's turnarounds
/// summed in instance order.
pub(crate) fn mean_turnarounds(
    dags: &[Dag],
    rc: &ResourceCollection,
    sizes: &[usize],
    cfg: &CurveConfig,
) -> Vec<f64> {
    let mut totals = vec![0.0f64; sizes.len()];
    for d in dags {
        let reports = evaluate_ladder(d, rc, sizes, cfg.heuristic, &cfg.time_model);
        for (total, r) in totals.iter_mut().zip(&reports) {
            *total += r.turnaround_s();
        }
    }
    totals.iter().map(|t| t / dags.len() as f64).collect()
}

/// Samples a turnaround curve for a set of DAG instances over the
/// geometric ladder up to the DAGs' maximum width.
pub fn turnaround_curve(dags: &[Dag], cfg: &CurveConfig) -> Curve {
    assert!(!dags.is_empty());
    let width = dags.iter().map(|d| d.width() as usize).max().unwrap();
    turnaround_curve_sizes(dags, &size_ladder(width), cfg)
}

/// Samples a curve at explicit sizes (one shared max-size RC).
pub fn turnaround_curve_sizes(dags: &[Dag], sizes: &[usize], cfg: &CurveConfig) -> Curve {
    let capacity = sizes.iter().copied().max().unwrap_or(1);
    CurveEvaluator::new(dags, cfg, capacity).curve(sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_dag::RandomDagSpec;

    fn dags() -> Vec<Dag> {
        (0..3)
            .map(|seed| {
                RandomDagSpec {
                    size: 200,
                    ccr: 0.1,
                    parallelism: 0.6,
                    density: 0.5,
                    regularity: 0.5,
                    mean_comp: 10.0,
                }
                .generate(seed)
            })
            .collect()
    }

    #[test]
    fn ladder_shape() {
        let l = size_ladder(100);
        assert_eq!(l[0], 1);
        assert!(l.contains(&2));
        assert_eq!(*l.last().unwrap(), 100);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(size_ladder(1), vec![1]);
        assert_eq!(size_ladder(2), vec![1, 2]);
    }

    #[test]
    fn curve_decreases_then_flattens() {
        let ds = dags();
        let c = turnaround_curve(&ds, &CurveConfig::default());
        assert!(c.points.len() >= 5);
        let first = c.points[0].1;
        let (argmin, best) = c.argmin();
        assert!(best < first, "parallelism should help");
        assert!(argmin > 1);
    }

    #[test]
    fn argmin_finds_smallest_min() {
        let c = Curve {
            points: vec![(1, 10.0), (2, 5.0), (4, 5.0), (8, 6.0)],
        };
        assert_eq!(c.argmin(), (2, 5.0));
        assert_eq!(c.at(4), Some(5.0));
        assert_eq!(c.at(3), None);
    }

    #[test]
    fn evaluator_matches_reference_mean_turnaround() {
        let ds = dags();
        // Heterogeneous clocks + bandwidth: the hardest prefix case
        // (and one where the fast placement kernel declines).
        let cfg = CurveConfig {
            rc_family: RcFamily {
                clock_mhz: 3000.0,
                heterogeneity: 0.3,
                bw_heterogeneity: 0.4,
                seed: 7,
            },
            ..CurveConfig::default()
        };
        let mut eval = CurveEvaluator::new(&ds, &cfg, 40);
        for size in [1usize, 3, 17, 40, 64] {
            let reference = mean_turnaround(&ds, size, &cfg);
            assert_eq!(eval.mean_turnaround(size), reference, "size {size}");
            // Memoized second read.
            assert_eq!(eval.mean_turnaround(size), reference, "size {size}");
        }
        // Default (homogeneous, MCP fast path) family too.
        let cfg = CurveConfig::default();
        let mut eval = CurveEvaluator::new(&ds, &cfg, 16);
        for size in [1usize, 8, 16] {
            assert_eq!(eval.mean_turnaround(size), mean_turnaround(&ds, size, &cfg));
        }
    }

    #[test]
    fn batched_curve_matches_reference_mean_turnaround() {
        let ds = dags();
        let heterogeneous = CurveConfig {
            rc_family: RcFamily {
                clock_mhz: 3000.0,
                heterogeneity: 0.3,
                bw_heterogeneity: 0.4,
                seed: 7,
            },
            ..CurveConfig::default()
        };
        for cfg in [CurveConfig::default(), heterogeneous] {
            // Unsorted, repeated, partly memoized sizes past the
            // evaluator's capacity.
            let mut eval = CurveEvaluator::new(&ds, &cfg, 8);
            eval.mean_turnaround(5);
            let curve = eval.curve(&[40, 3, 5, 1, 40, 2, 13]);
            let sizes: Vec<usize> = curve.points.iter().map(|&(s, _)| s).collect();
            assert_eq!(sizes, [1, 2, 3, 5, 13, 40]);
            for (size, t) in curve.points {
                let reference = mean_turnaround(&ds, size, &cfg);
                assert_eq!(t.to_bits(), reference.to_bits(), "size {size}");
            }
        }
    }

    #[test]
    fn heterogeneous_family_prefix_consistency() {
        let fam = RcFamily {
            clock_mhz: 3000.0,
            heterogeneity: 0.3,
            bw_heterogeneity: 0.0,
            seed: 5,
        };
        let small = fam.build(10);
        let big = fam.build(30);
        assert_eq!(&big.clocks()[..10], small.clocks());
    }

    #[test]
    fn reference_family_has_unit_speed() {
        let rc = RcFamily::reference().build(4);
        assert_eq!(rc.clock_mhz(0), rsg_dag::REFERENCE_CLOCK_MHZ);
    }
}
