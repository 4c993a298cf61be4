//! Random DAG generator parameterized by the Section III.1.1
//! characteristics.
//!
//! The observation and validation sets of Chapters IV–VI are built from
//! "arbitrary DAG configurations" — cross products of (size, CCR,
//! parallelism, density, regularity, mean computational cost), ten
//! distinct instances per configuration (Tables IV-3, V-1, V-4). This
//! module generates such instances so that the *measured* characteristics
//! track the requested ones:
//!
//! * the number of levels is `h = round(n / τ)` with `τ = n^α`;
//! * level populations are drawn around `τ` with maximum deviation
//!   `(1 − β)·τ`, and one level is pinned at the maximum deviation so the
//!   measured regularity is close to β;
//! * each non-entry task draws `max(1, round(δ·size(prev)))` distinct
//!   parents from the immediately preceding level, which both realizes
//!   the density and guarantees the task's level;
//! * computational costs are uniform in `[ω/2, 3ω/2]`; each edge cost is
//!   `CCR · w_v(parent) · jitter` with symmetric jitter of mean 1, so the
//!   measured CCR is unbiased.

use crate::graph::{Dag, DagBuilder, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification for one random-DAG *configuration* (Table IV-3 / V-1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomDagSpec {
    /// DAG size `n` (number of tasks). Must be ≥ 1.
    pub size: usize,
    /// Target communication-to-computation ratio.
    pub ccr: f64,
    /// Target parallelism `α ∈ [0, 1]`.
    pub parallelism: f64,
    /// Target density `δ ∈ (0, 1]`.
    pub density: f64,
    /// Target regularity `β ∈ (−∞, 1]`; values in `[0.01, 1.0]` are used
    /// by the paper.
    pub regularity: f64,
    /// Mean computational cost `ω` in seconds on the reference CPU.
    pub mean_comp: f64,
}

impl RandomDagSpec {
    /// Mean tasks per level `τ = n^α`.
    pub fn tau(&self) -> f64 {
        (self.size as f64).powf(self.parallelism).max(1.0)
    }

    /// Expected number of levels.
    pub fn expected_height(&self) -> usize {
        ((self.size as f64 / self.tau()).round() as usize).max(1)
    }

    /// Generates one DAG instance with the given seed. Instances with the
    /// same `(spec, seed)` are bit-identical.
    pub fn generate(&self, seed: u64) -> Dag {
        let mut rng = StdRng::seed_from_u64(seed);
        self.generate_with(&mut rng)
    }

    /// Generates one DAG instance from an arbitrary RNG.
    pub fn generate_with<R: Rng>(&self, rng: &mut R) -> Dag {
        assert!(self.size >= 1, "DAG size must be >= 1");
        assert!(
            (0.0..=1.0).contains(&self.parallelism),
            "parallelism must be in [0,1]"
        );
        assert!(
            self.density > 0.0 && self.density <= 1.0,
            "density must be in (0,1]"
        );
        assert!(self.mean_comp > 0.0, "mean computational cost must be > 0");
        assert!(self.ccr >= 0.0, "CCR must be >= 0");

        let n = self.size;
        let level_sizes = self.sample_level_sizes(rng);
        let h = level_sizes.len();
        debug_assert_eq!(level_sizes.iter().sum::<usize>(), n);

        // Parents each task of level i >= 1 draws from level i-1. It
        // depends on the level sizes alone, so the edge count is exact.
        let k = |i: usize| {
            ((self.density * level_sizes[i - 1] as f64).round() as usize)
                .clamp(1, level_sizes[i - 1])
        };
        let m = (1..h).map(|i| k(i) * level_sizes[i]).sum();
        let mut b = DagBuilder::with_capacity(n, m);
        b.name(format!(
            "random(n={n},ccr={},a={},d={},r={})",
            self.ccr, self.parallelism, self.density, self.regularity
        ));

        // Tasks, level by level; remember ids per level.
        let mut levels: Vec<Vec<TaskId>> = Vec::with_capacity(h);
        let mut comp: Vec<f64> = Vec::with_capacity(n);
        for &s in &level_sizes {
            let mut ids = Vec::with_capacity(s);
            for _ in 0..s {
                let w = self.mean_comp * rng.gen_range(0.5..1.5);
                comp.push(w);
                ids.push(b.add_task(w));
            }
            levels.push(ids);
        }

        // Edges: each task in level i (i >= 1) draws parents from level
        // i-1.
        for i in 1..h {
            let prev = &levels[i - 1];
            for &child in &levels[i] {
                for &parent in &sample_distinct(prev, k(i), rng) {
                    let jitter = rng.gen_range(0.75..1.25);
                    let w_c = self.ccr * comp[parent.index()] * jitter;
                    b.add_edge(parent, child, w_c)
                        .expect("generator produces valid edges");
                }
            }
        }

        b.build().expect("generator produces acyclic graphs")
    }

    /// Draws the per-level populations: mean `τ`, maximum deviation
    /// `(1 − β)·τ`, one level pinned at the max deviation, total exactly
    /// `n`.
    fn sample_level_sizes<R: Rng>(&self, rng: &mut R) -> Vec<usize> {
        let n = self.size;
        let tau = self.tau();
        let h = self.expected_height();
        if h == 1 {
            return vec![n];
        }
        let dev = ((1.0 - self.regularity) * tau).max(0.0);
        let lo = (tau - dev).max(1.0);
        let hi = (tau + dev).max(lo + f64::EPSILON);

        let mut sizes: Vec<f64> = (0..h)
            .map(|_| {
                if dev < 0.5 {
                    tau
                } else {
                    rng.gen_range(lo..hi)
                }
            })
            .collect();
        // Pin one interior level at the maximum positive deviation so the
        // measured β is close to the target.
        if dev >= 0.5 && h >= 2 {
            let pin = rng.gen_range(0..h);
            sizes[pin] = hi;
        }

        // Rescale to sum exactly to n using largest-remainder rounding,
        // preserving each level >= 1.
        let total: f64 = sizes.iter().sum();
        let scale = n as f64 / total;
        let mut rounded: Vec<usize> = sizes
            .iter()
            .map(|s| ((s * scale).floor() as usize).max(1))
            .collect();
        let mut assigned: isize = rounded.iter().sum::<usize>() as isize;
        // Distribute the remainder (positive or negative) one at a time,
        // preferring the levels with the largest fractional part.
        let mut order: Vec<usize> = (0..h).collect();
        order.sort_by(|&a, &b| {
            let fa = sizes[a] * scale - (sizes[a] * scale).floor();
            let fb = sizes[b] * scale - (sizes[b] * scale).floor();
            fb.partial_cmp(&fa).unwrap()
        });
        let mut idx = 0usize;
        while assigned < n as isize {
            rounded[order[idx % h]] += 1;
            assigned += 1;
            idx += 1;
        }
        idx = 0;
        while assigned > n as isize {
            let l = order[h - 1 - (idx % h)];
            if rounded[l] > 1 {
                rounded[l] -= 1;
                assigned -= 1;
            }
            idx += 1;
        }
        debug_assert_eq!(rounded.iter().sum::<usize>(), n);
        rounded
    }
}

/// Samples `k` distinct elements from `pool` (k <= pool.len()) by partial
/// Fisher-Yates on an index scratch.
fn sample_distinct<R: Rng>(pool: &[TaskId], k: usize, rng: &mut R) -> Vec<TaskId> {
    debug_assert!(k <= pool.len());
    if k == pool.len() {
        return pool.to_vec();
    }
    // For small k relative to the pool, rejection sampling is cheaper
    // than shuffling the whole pool.
    if k * 4 <= pool.len() {
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        while chosen.len() < k {
            let i = rng.gen_range(0..pool.len());
            if !chosen.contains(&i) {
                chosen.push(i);
            }
        }
        return chosen.into_iter().map(|i| pool[i]).collect();
    }
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    for i in 0..k {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..k].iter().map(|&i| pool[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DagStats;

    fn spec(n: usize, ccr: f64, a: f64, d: f64, r: f64) -> RandomDagSpec {
        RandomDagSpec {
            size: n,
            ccr,
            parallelism: a,
            density: d,
            regularity: r,
            mean_comp: 40.0,
        }
    }

    #[test]
    fn exact_size() {
        for &n in &[1usize, 7, 44, 447, 1000] {
            let d = spec(n, 0.5, 0.5, 0.5, 0.5).generate(42);
            assert_eq!(d.len(), n, "n={n}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let s = spec(500, 0.3, 0.6, 0.4, 0.8);
        let a = s.generate(7);
        let b = s.generate(7);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edge_count(), b.edge_count());
        let sa = DagStats::measure(&a);
        let sb = DagStats::measure(&b);
        assert_eq!(sa, sb);
        let c = s.generate(8);
        let sc = DagStats::measure(&c);
        assert!(sa != sc || a.edge_count() != c.edge_count());
    }

    #[test]
    fn parallelism_tracks_target() {
        for &a in &[0.3, 0.5, 0.7, 0.9] {
            let d = spec(2000, 0.1, a, 0.5, 0.8).generate(1);
            let s = DagStats::measure(&d);
            assert!(
                (s.parallelism - a).abs() < 0.08,
                "target {a} measured {}",
                s.parallelism
            );
        }
    }

    #[test]
    fn ccr_tracks_target() {
        for &ccr in &[0.01, 0.1, 1.0, 10.0] {
            let d = spec(1000, ccr, 0.5, 0.5, 0.8).generate(3);
            let s = DagStats::measure(&d);
            assert!(
                (s.ccr - ccr).abs() / ccr < 0.12,
                "target {ccr} measured {}",
                s.ccr
            );
        }
    }

    #[test]
    fn mean_comp_tracks_target() {
        let d = spec(2000, 0.5, 0.5, 0.5, 0.5).generate(11);
        let s = DagStats::measure(&d);
        assert!((s.mean_comp - 40.0).abs() / 40.0 < 0.06, "{}", s.mean_comp);
    }

    #[test]
    fn density_tracks_target() {
        for &delta in &[0.1, 0.5, 1.0] {
            let d = spec(1000, 0.5, 0.6, delta, 1.0).generate(5);
            let s = DagStats::measure(&d);
            assert!(
                (s.density - delta).abs() < 0.15,
                "target {delta} measured {}",
                s.density
            );
        }
    }

    #[test]
    fn regularity_tracks_target() {
        for &beta in &[0.1, 0.5, 1.0] {
            let d = spec(2000, 0.5, 0.6, 0.5, beta).generate(9);
            let s = DagStats::measure(&d);
            assert!(
                (s.regularity - beta).abs() < 0.25,
                "target {beta} measured {}",
                s.regularity
            );
        }
    }

    #[test]
    fn alpha_zero_is_chainlike() {
        let d = spec(50, 0.5, 0.0, 1.0, 1.0).generate(2);
        assert_eq!(d.width(), 1);
        assert_eq!(d.height(), 50);
    }

    #[test]
    fn alpha_one_is_bag() {
        let d = spec(50, 0.5, 1.0, 1.0, 1.0).generate(2);
        assert_eq!(d.height(), 1);
        assert_eq!(d.edge_count(), 0);
    }

    #[test]
    fn every_non_entry_has_parent_in_previous_level() {
        let d = spec(800, 0.5, 0.6, 0.3, 0.5).generate(13);
        for t in d.tasks() {
            let lvl = d.level(t);
            if lvl == 0 {
                assert!(d.parents(t).is_empty());
            } else {
                assert!(d.parents(t).iter().all(|e| d.level(e.task) == lvl - 1));
                assert!(!d.parents(t).is_empty());
            }
        }
    }

    #[test]
    fn sample_distinct_is_distinct() {
        let pool: Vec<TaskId> = (0..20).map(TaskId).collect();
        let mut rng = StdRng::seed_from_u64(0);
        for k in [1usize, 3, 10, 20] {
            let s = sample_distinct(&pool, k, &mut rng);
            assert_eq!(s.len(), k);
            let mut sorted = s.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), k);
        }
    }
}
