//! FCA — fastest-clock assignment (Figure V-14; reconstructed).
//!
//! The dissertation text characterizes its heuristic set as spanning
//! "what is used in practice and … representative classes … based on how
//! each heuristic treats the critical path", with FCA as the cheap,
//! clock-aware member that wins over MCP for large DAGs because its
//! scheduling time is nearly independent of the DAG/RC product (Figures
//! VI-1/VI-2). The pseudo-code figure is not part of the provided text,
//! so FCA is reconstructed as (see DESIGN.md, substitution 4):
//!
//! 1. order tasks by descending bottom level (critical path first);
//! 2. for each task, estimate its data-ready time ignoring pairwise
//!    connectivity (reference-bandwidth transfer from every parent);
//! 3. place it on the fastest host that is idle by that time, falling
//!    back to the host/tier giving the earliest start (faster tier wins
//!    ties);
//! 4. actual start/finish times are then computed with the real
//!    communication factors.
//!
//! Hosts are grouped into clock *tiers* (distinct clock values, fastest
//! first), each tier holding a min-heap of ready times — `O(V (T + log
//! P + parents))` where `T` is the number of tiers (1 for homogeneous
//! RCs).

use super::common::{log2_ops, F64};
use super::{Heuristic, HeuristicKind};
use crate::context::ExecutionContext;
use crate::schedule::Schedule;
use crate::timemodel::OpCount;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Fastest-clock assignment scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fca;

impl Heuristic for Fca {
    fn kind(&self) -> HeuristicKind {
        HeuristicKind::Fca
    }

    fn schedule(&self, ctx: &ExecutionContext<'_>) -> (Schedule, OpCount) {
        let dag = ctx.dag;
        let n = dag.len();
        let hosts = ctx.hosts();
        let mut ops = OpCount::default();

        // Priority: bottom level descending (critical tasks first); the
        // level tie-break keeps the order topological under zero
        // weights.
        // Bottom levels come from the DAG's cache; the sweeps are still
        // charged.
        let info = dag.critical_path();
        ops += 2 * (n as u64 + dag.edge_count() as u64);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            let (ta, tb) = (rsg_dag::TaskId(a), rsg_dag::TaskId(b));
            dag.level(ta)
                .cmp(&dag.level(tb))
                .then(info.bottom_level[b as usize].total_cmp(&info.bottom_level[a as usize]))
                .then(a.cmp(&b))
        });
        ops += n as u64 * log2_ops(n);

        // Clock tiers, fastest first (only the context's hosts — the
        // RC behind `ctx` may be a larger prefix-shared family).
        let mut tier_clocks: Vec<f64> = (0..hosts).map(|h| ctx.clock_mhz(h)).collect();
        tier_clocks.sort_by(|a, b| b.total_cmp(a));
        tier_clocks.dedup();
        let tier_of = |clock: f64| -> usize {
            tier_clocks
                .iter()
                .position(|&c| c == clock)
                .expect("clock belongs to a tier")
        };
        let mut tiers: Vec<BinaryHeap<Reverse<(F64, u32)>>> =
            vec![BinaryHeap::new(); tier_clocks.len()];
        for h in 0..hosts {
            tiers[tier_of(ctx.clock_mhz(h))].push(Reverse((F64(0.0), h as u32)));
        }

        let mut sched = Schedule::with_capacity(n);

        for &ti in &order {
            let t = rsg_dag::TaskId(ti);
            let i = t.index();
            let parents = dag.parents(t);
            // Connectivity-oblivious data-ready estimate (factor 1).
            let mut est_ready = 0.0f64;
            for e in parents {
                let arr = sched.finish[e.task.index()] + e.comm;
                if arr > est_ready {
                    est_ready = arr;
                }
            }
            ops += parents.len() as u64;

            // Fastest tier with an idle host by est_ready; otherwise the
            // earliest-start candidate, faster tier winning ties.
            let mut chosen: Option<usize> = None;
            let mut fallback: Option<(f64, usize)> = None; // (start, tier)
            for (ti_idx, tier) in tiers.iter().enumerate() {
                ops += 1;
                if let Some(Reverse((F64(ready), _))) = tier.peek() {
                    if *ready <= est_ready {
                        chosen = Some(ti_idx);
                        break;
                    }
                    let start = ready.max(est_ready);
                    if fallback.is_none_or(|(s, _)| start < s) {
                        fallback = Some((start, ti_idx));
                    }
                }
            }
            let tier_idx = chosen.unwrap_or_else(|| fallback.expect("RC has hosts").1);
            let Reverse((F64(avail), h)) = tiers[tier_idx].pop().expect("tier non-empty");
            let h = h as usize;

            // Real timing with actual communication factors.
            let start = avail.max(ctx.data_ready(t, h, &sched.finish, &sched.host));
            let finish = start + ctx.task_time(t, h);
            ops += parents.len() as u64 + log2_ops(hosts);

            sched.host[i] = h as u32;
            sched.start[i] = start;
            sched.finish[i] = finish;
            tiers[tier_idx].push(Reverse((F64(finish), h as u32)));
        }

        (sched, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_platform::ResourceCollection;

    #[test]
    fn fca_uses_fastest_hosts_first() {
        let dag = rsg_dag::workflows::bag(2, 10.0);
        let rc = ResourceCollection::new(
            vec![1500.0, 3000.0, 3000.0, 750.0],
            rsg_platform::CommModel::Uniform,
        );
        let ctx = ExecutionContext::new(&dag, &rc);
        let (s, _) = Fca.schedule(&ctx);
        s.validate(&ctx).unwrap();
        // Both tasks land on the two 3 GHz hosts.
        for &h in &s.host {
            assert_eq!(ctx.rc.clock_mhz(h as usize), 3000.0);
        }
        assert!((s.makespan() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fca_cheaper_than_mcp() {
        let dag = rsg_dag::RandomDagSpec {
            size: 300,
            ccr: 0.5,
            parallelism: 0.6,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(5);
        let rc = ResourceCollection::heterogeneous(200, 3000.0, 0.3, 2);
        let ctx = ExecutionContext::new(&dag, &rc);
        let (_, fca_ops) = Fca.schedule(&ctx);
        let (_, mcp_ops) = super::super::Mcp.schedule(&ctx);
        assert!(
            fca_ops.0 * 4 < mcp_ops.0,
            "fca {} vs mcp {}",
            fca_ops.0,
            mcp_ops.0
        );
    }

    #[test]
    fn fca_valid_on_heterogeneous_bandwidth() {
        let dag = rsg_dag::RandomDagSpec {
            size: 120,
            ccr: 2.0,
            parallelism: 0.5,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(6);
        let rc = ResourceCollection::heterogeneous(20, 3000.0, 0.4, 4)
            .with_bandwidth_heterogeneity(0.5, 9);
        let ctx = ExecutionContext::new(&dag, &rc);
        let (s, _) = Fca.schedule(&ctx);
        s.validate(&ctx).unwrap();
    }

    #[test]
    fn homogeneous_rc_has_single_tier() {
        // With one tier FCA degenerates to earliest-available-fastest,
        // still valid and parallel.
        let dag = rsg_dag::workflows::bag(6, 10.0);
        let rc = ResourceCollection::homogeneous(6, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        let (s, _) = Fca.schedule(&ctx);
        s.validate(&ctx).unwrap();
        assert!((s.makespan() - 10.0).abs() < 1e-9);
        assert_eq!(s.hosts_used(), 6);
    }
}
