//! The DAG characteristics of Section III.1.1.
//!
//! These six quantities drive both prediction models of the paper:
//!
//! * size `n` and height `h` (and `τ = n/h`, tasks per level),
//! * CCR — the mean over all edges of `w_c(e) / w_v(parent(e))`,
//! * parallelism `α = log τ / log n`,
//! * density `δ` — mean fraction of the previous level each task depends
//!   on,
//! * regularity `β = 1 − max_k |size(l_k) − τ| / τ`,
//! * mean computational cost `ω`.

use crate::graph::Dag;

/// Measured characteristics of a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagStats {
    /// DAG size `n` (number of tasks).
    pub size: usize,
    /// Height `h` (number of levels).
    pub height: u32,
    /// Average number of tasks per level, `τ = n / h`.
    pub tasks_per_level: f64,
    /// DAG width (maximum tasks in any level).
    pub width: u32,
    /// Communication-to-computation ratio.
    pub ccr: f64,
    /// Parallelism `α ∈ [0, 1]`.
    pub parallelism: f64,
    /// Density `δ ∈ (0, 1]`.
    pub density: f64,
    /// Regularity `β ≤ 1` (can be negative for very irregular DAGs such
    /// as Montage, Section V.3.4.1).
    pub regularity: f64,
    /// Mean computational cost `ω` (seconds on the reference CPU).
    pub mean_comp: f64,
}

impl DagStats {
    /// Measures all characteristics of `dag`.
    pub fn measure(dag: &Dag) -> DagStats {
        let n = dag.len();
        let h = dag.height();
        let tau = dag.tasks_per_level();

        DagStats {
            size: n,
            height: h,
            tasks_per_level: tau,
            width: dag.width(),
            ccr: ccr(dag),
            parallelism: parallelism_of(n, tau),
            density: density(dag),
            regularity: regularity_of(dag.level_sizes(), tau),
            mean_comp: dag.total_work() / n as f64,
        }
    }
}

/// `CCR = (1/m) Σ_k w_c(e_k) / w_v(parent(e_k))` over all `m` edges; zero
/// for edge-free DAGs.
pub fn ccr(dag: &Dag) -> f64 {
    let mut sum = 0.0;
    let mut m = 0usize;
    for t in dag.tasks() {
        let w = dag.comp(t);
        for e in dag.children(t) {
            // Edges out of zero-cost tasks contribute nothing rather than
            // an infinite ratio; the generators never produce them.
            if w > 0.0 {
                sum += e.comm / w;
            }
            m += 1;
        }
    }
    if m == 0 {
        0.0
    } else {
        sum / m as f64
    }
}

/// Parallelism `α = log(τ) / log(n)`; by convention 0 for chains (τ = 1)
/// and 1 for a single-level bag (τ = n). A single-task DAG has α = 0.
pub fn parallelism_of(n: usize, tau: f64) -> f64 {
    if n <= 1 || tau <= 1.0 {
        return 0.0;
    }
    (tau.ln() / (n as f64).ln()).clamp(0.0, 1.0)
}

/// Density `δ`: the average, over all tasks that have parents, of the
/// fraction of the previous level the task depends on.
pub fn density(dag: &Dag) -> f64 {
    let mut sum = 0.0;
    let mut counted = 0usize;
    for t in dag.tasks() {
        let parents = dag.parents(t);
        if parents.is_empty() {
            continue;
        }
        let lvl = dag.level(t);
        debug_assert!(lvl >= 1);
        let prev = dag.level_size(lvl - 1).max(1);
        sum += parents.len() as f64 / prev as f64;
        counted += 1;
    }
    if counted == 0 {
        // A bag of independent tasks: density is undefined in the paper;
        // we report 0 so the value is still totally ordered.
        0.0
    } else {
        sum / counted as f64
    }
}

/// Regularity `β = 1 − max_k |size(l_k) − τ| / τ`.
pub fn regularity_of(level_sizes: &[u32], tau: f64) -> f64 {
    if level_sizes.is_empty() || tau <= 0.0 {
        return 1.0;
    }
    let max_dev = level_sizes
        .iter()
        .map(|&s| (s as f64 - tau).abs())
        .fold(0.0f64, f64::max);
    1.0 - max_dev / tau
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::example_dag;

    #[test]
    fn example_dag_stats_match_paper_worked_example() {
        // Section III.1.1.1: n = 8, h = 4, τ = 2, α = 1/3, β = 0.5,
        // mean comp = 10. (The paper's δ uses a level convention our
        // builder reproduces only approximately for cross-level edges, so
        // δ is checked for plausibility, not the exact 0.667.)
        let d = example_dag();
        let s = DagStats::measure(&d);
        assert_eq!(s.size, 8);
        assert_eq!(s.height, 4);
        assert!((s.tasks_per_level - 2.0).abs() < 1e-12);
        assert!((s.parallelism - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.regularity - 0.5).abs() < 1e-12);
        assert!((s.mean_comp - 10.0).abs() < 1e-12);
        assert!(s.density > 0.0 && s.density <= 1.0);
        assert!(s.ccr > 0.2 && s.ccr < 0.6);
    }

    #[test]
    fn chain_has_zero_parallelism() {
        let d = crate::workflows::chain(10, 5.0, 1.0);
        let s = DagStats::measure(&d);
        assert_eq!(s.height, 10);
        assert_eq!(s.parallelism, 0.0);
        assert_eq!(s.width, 1);
        assert!((s.regularity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bag_has_full_parallelism() {
        let d = crate::workflows::bag(64, 5.0);
        let s = DagStats::measure(&d);
        assert_eq!(s.height, 1);
        assert!((s.parallelism - 1.0).abs() < 1e-12);
        assert_eq!(s.ccr, 0.0);
        assert_eq!(s.density, 0.0);
    }

    #[test]
    fn ccr_matches_hand_computation() {
        // Two tasks, comp 10, edge comm 5 -> CCR = 0.5.
        let mut b = crate::DagBuilder::new();
        let a = b.add_task(10.0);
        let c = b.add_task(10.0);
        b.add_edge(a, c, 5.0).unwrap();
        let d = b.build().unwrap();
        assert!((ccr(&d) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn regularity_of_uniform_levels_is_one() {
        assert!((regularity_of(&[4, 4, 4], 4.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regularity_can_go_negative() {
        // τ = 2, one level of 5 tasks: dev = 3 -> β = 1 - 1.5 = -0.5.
        assert!((regularity_of(&[5, 1], 2.0) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallelism_bounds() {
        assert_eq!(parallelism_of(1, 1.0), 0.0);
        assert_eq!(parallelism_of(100, 1.0), 0.0);
        assert!((parallelism_of(100, 100.0) - 1.0).abs() < 1e-12);
        let mid = parallelism_of(100, 10.0);
        assert!((mid - 0.5).abs() < 1e-12);
    }
}
