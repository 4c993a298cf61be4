//! Critical-path machinery shared by the scheduling heuristics.
//!
//! The Modified Critical Path heuristic (Figure IV-2) needs, per node:
//! the *bottom level* `BL_i` — length of the longest path from the node
//! to an exit node, counting both node and edge weights — and the ALAP
//! time `ALAP_i = CP − BL_i` where `CP` is the critical-path length of
//! the whole DAG. DLS needs the *static level* (bottom level on node
//! weights only).

use crate::graph::{Dag, TaskId};

/// Per-node critical-path quantities for a [`Dag`].
#[derive(Debug, Clone)]
pub struct CriticalPathInfo {
    /// `BL_i`: longest node+edge-weight path from the node to an exit,
    /// including the node itself.
    pub bottom_level: Vec<f64>,
    /// `TL_i`: longest node+edge-weight path from an entry to the node,
    /// excluding the node itself (earliest possible start on an
    /// infinitely wide reference platform).
    pub top_level: Vec<f64>,
    /// Static level: longest path of node weights only to an exit
    /// (including the node) — DLS's `SL`.
    pub static_level: Vec<f64>,
    /// Critical-path length `CP` of the DAG (node + edge weights).
    pub cp: f64,
}

impl CriticalPathInfo {
    /// Computes all quantities in two topological sweeps, O(V + E).
    pub fn compute(dag: &Dag) -> CriticalPathInfo {
        let n = dag.len();
        let mut bottom_level = vec![0.0f64; n];
        let mut static_level = vec![0.0f64; n];
        let mut top_level = vec![0.0f64; n];

        // Reverse topological sweep for bottom/static levels.
        for &t in dag.topological_order().iter().rev() {
            let w = dag.comp(t);
            let mut bl = 0.0f64;
            let mut sl = 0.0f64;
            for e in dag.children(t) {
                bl = bl.max(e.comm + bottom_level[e.task.index()]);
                sl = sl.max(static_level[e.task.index()]);
            }
            bottom_level[t.index()] = w + bl;
            static_level[t.index()] = w + sl;
        }

        // Forward sweep for top levels.
        for &t in dag.topological_order() {
            let mut tl = 0.0f64;
            for e in dag.parents(t) {
                tl = tl.max(top_level[e.task.index()] + dag.comp(e.task) + e.comm);
            }
            top_level[t.index()] = tl;
        }

        let cp = bottom_level
            .iter()
            .zip(dag.tasks())
            .filter(|(_, t)| dag.parents(*t).is_empty())
            .map(|(bl, _)| *bl)
            .fold(0.0f64, f64::max);

        CriticalPathInfo {
            bottom_level,
            top_level,
            static_level,
            cp,
        }
    }

    /// `ALAP_i = CP − BL_i` (Figure IV-2).
    #[inline]
    pub fn alap(&self, t: TaskId) -> f64 {
        self.cp - self.bottom_level[t.index()]
    }

    /// Tasks on the critical path: those with `TL + BL == CP` (within
    /// floating-point tolerance).
    pub fn critical_tasks(&self, dag: &Dag) -> Vec<TaskId> {
        let eps = 1e-9 * self.cp.max(1.0);
        dag.tasks()
            .filter(|t| {
                (self.top_level[t.index()] + self.bottom_level[t.index()] - self.cp).abs() <= eps
            })
            .collect()
    }
}

/// MCP's task priority order (Figure IV-2): task ids sorted by the key
/// `(ALAP, level, min-child-ALAP, id)`.
///
/// Ordering by the ascending lists of ALAP values of each node and its
/// descendants reduces to this key: a node's own ALAP is the minimum of
/// its list and the minimum descendant ALAP the second element, so the
/// O(V²) descendant lists never need materializing. The `level`
/// component keeps the order topological when zero-weight ties occur.
pub fn mcp_priority_order(dag: &Dag, info: &CriticalPathInfo) -> Vec<u32> {
    let min_child_alap: Vec<f64> = dag
        .tasks()
        .map(|t| {
            dag.children(t)
                .iter()
                .fold(f64::INFINITY, |m, e| m.min(info.alap(e.task)))
        })
        .collect();
    let mut order: Vec<u32> = (0..dag.len() as u32).collect();
    order.sort_by(|&a, &b| {
        let (ta, tb) = (TaskId(a), TaskId(b));
        info.alap(ta)
            .total_cmp(&info.alap(tb))
            .then(dag.level(ta).cmp(&dag.level(tb)))
            .then(min_child_alap[a as usize].total_cmp(&min_child_alap[b as usize]))
            .then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{example_dag, DagBuilder};

    #[test]
    fn chain_cp_is_total_weight() {
        let d = crate::workflows::chain(5, 10.0, 2.0);
        let info = CriticalPathInfo::compute(&d);
        // 5 nodes * 10 + 4 edges * 2
        assert!((info.cp - 58.0).abs() < 1e-9);
        // Every node of a chain is critical.
        assert_eq!(info.critical_tasks(&d).len(), 5);
    }

    #[test]
    fn alap_of_entry_on_cp_is_zero() {
        let d = example_dag();
        let info = CriticalPathInfo::compute(&d);
        let crit = info.critical_tasks(&d);
        assert!(!crit.is_empty());
        // Some entry node must be critical, with ALAP 0.
        let entry_crit = crit.iter().find(|t| d.parents(**t).is_empty()).unwrap();
        assert!(info.alap(*entry_crit).abs() < 1e-9);
    }

    #[test]
    fn bottom_level_monotone_along_edges() {
        let d = example_dag();
        let info = CriticalPathInfo::compute(&d);
        for t in d.tasks() {
            for e in d.children(t) {
                assert!(
                    info.bottom_level[t.index()]
                        >= info.bottom_level[e.task.index()] + d.comp(t) - 1e-12
                );
            }
        }
    }

    #[test]
    fn top_plus_bottom_bounded_by_cp() {
        let d = example_dag();
        let info = CriticalPathInfo::compute(&d);
        for t in d.tasks() {
            assert!(info.top_level[t.index()] + info.bottom_level[t.index()] <= info.cp + 1e-9);
        }
    }

    #[test]
    fn static_level_ignores_comm() {
        let mut b = DagBuilder::new();
        let a = b.add_task(10.0);
        let c = b.add_task(20.0);
        b.add_edge(a, c, 100.0).unwrap();
        let d = b.build().unwrap();
        let info = CriticalPathInfo::compute(&d);
        assert!((info.static_level[0] - 30.0).abs() < 1e-12);
        assert!((info.bottom_level[0] - 130.0).abs() < 1e-12);
    }

    #[test]
    fn diamond_critical_path() {
        // a -> b,c -> d with asymmetric weights: CP goes through the
        // heavier branch.
        let mut bld = DagBuilder::new();
        let a = bld.add_task(1.0);
        let b = bld.add_task(10.0);
        let c = bld.add_task(2.0);
        let d_ = bld.add_task(1.0);
        bld.add_edge(a, b, 0.0).unwrap();
        bld.add_edge(a, c, 0.0).unwrap();
        bld.add_edge(b, d_, 0.0).unwrap();
        bld.add_edge(c, d_, 0.0).unwrap();
        let d = bld.build().unwrap();
        let info = CriticalPathInfo::compute(&d);
        assert!((info.cp - 12.0).abs() < 1e-12);
        let crit = info.critical_tasks(&d);
        assert!(crit.contains(&b));
        assert!(!crit.contains(&c));
    }

    #[test]
    fn cached_critical_path_matches_compute() {
        let d = crate::RandomDagSpec {
            size: 150,
            ccr: 1.0,
            parallelism: 0.6,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(3);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fresh = CriticalPathInfo::compute(&d);
        let cached = d.critical_path();
        assert_eq!(bits(&cached.bottom_level), bits(&fresh.bottom_level));
        assert_eq!(bits(&cached.top_level), bits(&fresh.top_level));
        assert_eq!(bits(&cached.static_level), bits(&fresh.static_level));
        assert_eq!(cached.cp.to_bits(), fresh.cp.to_bits());
        assert_eq!(d.mcp_order(), mcp_priority_order(&d, &fresh).as_slice());

        // Filled once: later calls return the same storage.
        assert!(std::ptr::eq(cached, d.critical_path()));
        assert!(std::ptr::eq(d.mcp_order(), d.mcp_order()));

        // A clone carries equal values.
        let c = d.clone();
        assert_eq!(
            bits(&c.critical_path().bottom_level),
            bits(&fresh.bottom_level)
        );
        assert_eq!(bits(&c.critical_path().top_level), bits(&fresh.top_level));
        assert_eq!(
            bits(&c.critical_path().static_level),
            bits(&fresh.static_level)
        );
        assert_eq!(c.critical_path().cp.to_bits(), fresh.cp.to_bits());
        assert_eq!(c.mcp_order(), d.mcp_order());
    }
}
