//! Mixed-parallel applications (the paper's stated extension, Section
//! III.1): workflows whose nodes are themselves *data-parallel* tasks
//! that execute on a whole cluster rather than a single host.
//!
//! "For future work, we can expand the results of this dissertation to
//! mixed-parallel applications by generating resource specifications
//! requiring clusters instead of hosts for each node in the DAG."
//!
//! A [`MixedDag`] wraps a plain [`Dag`] with, per task, a processor
//! demand and an Amdahl serial fraction; the effective execution time
//! of a task given `p` processors at the reference clock is
//!
//! ```text
//! t(p) = w_v · (serial + (1 − serial) / min(p, demand))
//! ```
//!
//! The specification-generation side lives in
//! `rsg-core::specgen::mixed` — it partitions tasks into demand
//! classes and emits a multi-aggregate vgDL (one `ClusterOf` per
//! class).

use crate::graph::{Dag, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Data-parallel annotation of one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelProfile {
    /// Processors the task can exploit (≥ 1; 1 = sequential task).
    pub demand: u32,
    /// Amdahl serial fraction in `[0, 1]`.
    pub serial_fraction: f64,
}

impl ParallelProfile {
    /// A sequential task.
    pub fn sequential() -> ParallelProfile {
        ParallelProfile {
            demand: 1,
            serial_fraction: 1.0,
        }
    }

    /// Speedup-adjusted execution time for `w_v` seconds of sequential
    /// work on `p` processors.
    pub fn time(&self, w_v: f64, p: u32) -> f64 {
        let p = p.clamp(1, self.demand) as f64;
        w_v * (self.serial_fraction + (1.0 - self.serial_fraction) / p)
    }
}

/// A workflow whose nodes are (possibly) data-parallel tasks.
#[derive(Debug, Clone)]
pub struct MixedDag {
    dag: Dag,
    profiles: Vec<ParallelProfile>,
}

impl MixedDag {
    /// Annotates a DAG; `profiles` must cover every task.
    pub fn new(dag: Dag, profiles: Vec<ParallelProfile>) -> MixedDag {
        assert_eq!(profiles.len(), dag.len(), "one profile per task");
        assert!(profiles.iter().all(|p| p.demand >= 1));
        assert!(profiles
            .iter()
            .all(|p| (0.0..=1.0).contains(&p.serial_fraction)));
        MixedDag { dag, profiles }
    }

    /// The underlying task graph.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Profile of a task.
    pub fn profile(&self, t: TaskId) -> ParallelProfile {
        self.profiles[t.index()]
    }

    /// Execution time of `t` on `p` reference-clock processors.
    pub fn task_time(&self, t: TaskId, p: u32) -> f64 {
        self.profile(t).time(self.dag.comp(t), p)
    }

    /// The distinct processor demands, descending — the cluster classes
    /// a mixed specification must request.
    pub fn demand_classes(&self) -> Vec<u32> {
        let mut ds: Vec<u32> = self.profiles.iter().map(|p| p.demand).collect();
        ds.sort_unstable_by(|a, b| b.cmp(a));
        ds.dedup();
        ds
    }

    /// Tasks per demand class, aligned with [`Self::demand_classes`].
    pub fn class_populations(&self) -> Vec<(u32, usize)> {
        self.demand_classes()
            .into_iter()
            .map(|d| {
                let count = self.profiles.iter().filter(|p| p.demand == d).count();
                (d, count)
            })
            .collect()
    }

    /// Serialized makespan lower bound on unlimited clusters at the
    /// reference clock: the critical path with every task at full
    /// parallel speedup.
    pub fn ideal_critical_path(&self) -> f64 {
        let mut bl = vec![0.0f64; self.dag.len()];
        for &t in self.dag.topological_order().iter().rev() {
            let mine = self.task_time(t, self.profile(t).demand);
            let best_child = self
                .dag
                .children(t)
                .iter()
                .map(|e| e.comm + bl[e.task.index()])
                .fold(0.0f64, f64::max);
            bl[t.index()] = mine + best_child;
        }
        self.dag
            .entries()
            .map(|t| bl[t.index()])
            .fold(0.0f64, f64::max)
    }
}

/// Generates a synthetic mixed-parallel workflow: a random DAG whose
/// tasks draw their demands from `demand_choices` and serial fractions
/// uniformly from `[0.02, 0.2]`.
pub fn random_mixed(
    spec: crate::random::RandomDagSpec,
    demand_choices: &[u32],
    seed: u64,
) -> MixedDag {
    assert!(!demand_choices.is_empty());
    let dag = spec.generate(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D31_5845_4421_u64);
    let profiles = (0..dag.len())
        .map(|_| ParallelProfile {
            demand: demand_choices[rng.gen_range(0..demand_choices.len())],
            serial_fraction: rng.gen_range(0.02..0.2),
        })
        .collect();
    MixedDag::new(dag, profiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomDagSpec;

    fn spec() -> RandomDagSpec {
        RandomDagSpec {
            size: 60,
            ccr: 0.1,
            parallelism: 0.5,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 100.0,
        }
    }

    #[test]
    fn amdahl_speedup() {
        let p = ParallelProfile {
            demand: 16,
            serial_fraction: 0.1,
        };
        let t1 = p.time(100.0, 1);
        let t16 = p.time(100.0, 16);
        assert!((t1 - 100.0).abs() < 1e-9);
        // 0.1 + 0.9/16 = 0.15625
        assert!((t16 - 15.625).abs() < 1e-9);
        // More processors than demand: no further gain.
        assert_eq!(p.time(100.0, 64), t16);
    }

    #[test]
    fn sequential_profile_flat() {
        let p = ParallelProfile::sequential();
        assert_eq!(p.time(10.0, 1), 10.0);
        assert_eq!(p.time(10.0, 100), 10.0);
    }

    #[test]
    fn demand_classes_sorted_distinct() {
        let m = random_mixed(spec(), &[8, 32, 8, 128], 1);
        let classes = m.demand_classes();
        assert!(classes.windows(2).all(|w| w[0] > w[1]));
        for d in &classes {
            assert!([8u32, 32, 128].contains(d));
        }
        let pops = m.class_populations();
        let total: usize = pops.iter().map(|(_, c)| c).sum();
        assert_eq!(total, m.dag().len());
    }

    #[test]
    fn ideal_cp_below_sequential_cp() {
        let m = random_mixed(spec(), &[64], 2);
        let seq_cp = rsg_cp(&m);
        assert!(m.ideal_critical_path() < seq_cp);
        assert!(m.ideal_critical_path() > 0.0);
    }

    fn rsg_cp(m: &MixedDag) -> f64 {
        crate::critical::CriticalPathInfo::compute(m.dag()).cp
    }

    #[test]
    #[should_panic(expected = "one profile per task")]
    fn profile_count_checked() {
        let dag = crate::workflows::bag(3, 1.0);
        MixedDag::new(dag, vec![ParallelProfile::sequential()]);
    }
}
