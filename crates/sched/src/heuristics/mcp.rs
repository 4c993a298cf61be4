//! Modified Critical Path (Wu & Gajski), Figure IV-2 / V-12.
//!
//! 1. Compute the critical path `CP` and per-node bottom levels `BL_i`
//!    (node + edge weights); `ALAP_i = CP − BL_i`.
//! 2. Order nodes by the lexicographic comparison of the ascending lists
//!    of ALAP values of each node and its descendants. Because a node's
//!    own ALAP is always the minimum of its list and the minimum
//!    descendant ALAP is the second element, the order is realized by
//!    the sort key `(ALAP, level, min-child-ALAP, id)` without
//!    materializing the O(V²) descendant lists (the `level` component
//!    keeps the order topological when zero-weight ties occur). The
//!    order depends on the DAG alone ([`mcp_priority_order`]): [`Mcp`]
//!    reads the DAG's cached copy, [`McpNaive`] recomputes it.
//! 3. Schedule each node on the host that completes it soonest.
//!
//! Operation accounting: the dominant cost is the placement scan — for
//! every task, every host is evaluated against every parent — i.e.
//! `(V + E) · P` elementary evaluations, plus the `V log V` priority
//! sort, charged on every schedule even when the order comes from the
//! cache. This is the polynomial growth in RC size that creates the
//! turnaround knee of Chapter V.

use super::common::log2_ops;
use super::placement::{self, PlacementIndex};
use super::scratch;
use super::{Heuristic, HeuristicKind};
use crate::context::ExecutionContext;
use crate::schedule::Schedule;
use crate::timemodel::OpCount;
use rsg_dag::critical::mcp_priority_order;
use rsg_dag::CriticalPathInfo;

/// The Modified Critical Path heuristic. Uses the candidate-set
/// placement kernel when it applies (bit-identical schedules; see
/// [`super::placement`]), the full host scan otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mcp;

/// MCP with the fast placement kernel disabled: always the full host
/// scan. Reference implementation for differential tests and benches.
#[derive(Debug, Clone, Copy, Default)]
pub struct McpNaive;

impl Heuristic for Mcp {
    fn kind(&self) -> HeuristicKind {
        HeuristicKind::Mcp
    }

    fn schedule(&self, ctx: &ExecutionContext<'_>) -> (Schedule, OpCount) {
        schedule_impl(ctx, true)
    }
}

impl Heuristic for McpNaive {
    fn kind(&self) -> HeuristicKind {
        HeuristicKind::Mcp
    }

    fn schedule(&self, ctx: &ExecutionContext<'_>) -> (Schedule, OpCount) {
        schedule_impl(ctx, false)
    }
}

fn schedule_impl(ctx: &ExecutionContext<'_>, use_fast: bool) -> (Schedule, OpCount) {
    let dag = ctx.dag;
    let n = dag.len();
    let hosts = ctx.hosts();
    let mut ops = OpCount::default();

    // The priority order depends on the DAG alone: the fast path reads
    // the DAG's cached order, the reference recomputes it from scratch.
    // Either way the modeled cost is charged on every schedule — it is
    // part of the scheduling time that shapes the knee.
    let fresh_order;
    let order: &[u32] = if use_fast {
        dag.mcp_order()
    } else {
        fresh_order = mcp_priority_order(dag, &CriticalPathInfo::compute(dag));
        &fresh_order
    };
    ops += 2 * (n as u64 + dag.edge_count() as u64); // two CP sweeps
    ops += n as u64 * log2_ops(n); // priority sort

    let mut sched = Schedule::with_capacity(n);
    if use_fast {
        // Fast path: pooled host-ready array (zero steady-state
        // allocation), candidate-set kernel when it engages, the
        // loop-swapped flat scan otherwise. Both are bit-identical to
        // the reference scan below.
        let mut host_ready = scratch::take_ready(hosts);
        let mut index = PlacementIndex::new(ctx);
        let mut flat = if index.is_none() {
            Some(scratch::take_flat())
        } else {
            None
        };
        for &ti in order {
            let t = rsg_dag::TaskId(ti);
            let i = t.index();
            let parents = dag.parents(t).len() as u64;
            let (best_finish, best_host, best_start) = match index.as_mut() {
                Some(ix) => ix.mcp_best(ctx, t, &sched, &host_ready),
                None => placement::mcp_flat_best(
                    ctx,
                    t,
                    &sched,
                    &host_ready,
                    flat.as_mut()
                        .expect("flat buffer on declined path")
                        .get(hosts),
                ),
            };
            // Modeled cost of the full scan, regardless of how the
            // winner was found: the scan *is* the phenomenon the paper
            // measures, and the knee tables depend on it.
            ops += hosts as u64 * (1 + parents);
            sched.host[i] = best_host as u32;
            sched.start[i] = best_start;
            sched.finish[i] = best_finish;
            host_ready.set(best_host, best_finish);
            if let Some(ix) = index.as_mut() {
                ix.update(best_host, best_finish);
            }
        }
    } else {
        // Reference scan: one pass over hosts per task, data-ready
        // folded per host. Kept verbatim as the differential baseline.
        let mut host_ready = vec![0.0f64; hosts];
        for &ti in order {
            let t = rsg_dag::TaskId(ti);
            let i = t.index();
            let parents = dag.parents(t).len() as u64;
            let mut best_finish = f64::INFINITY;
            let mut best_host = 0usize;
            let mut best_start = 0.0f64;
            for (h, &ready) in host_ready.iter().enumerate() {
                let est = ready.max(ctx.data_ready(t, h, &sched.finish, &sched.host));
                let fin = est + ctx.task_time(t, h);
                if fin < best_finish {
                    best_finish = fin;
                    best_host = h;
                    best_start = est;
                }
            }
            ops += hosts as u64 * (1 + parents);
            sched.host[i] = best_host as u32;
            sched.start[i] = best_start;
            sched.finish[i] = best_finish;
            host_ready[best_host] = best_finish;
        }
    }

    (sched, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_dag::{DagBuilder, RandomDagSpec};
    use rsg_platform::ResourceCollection;

    #[test]
    fn mcp_parallelizes_independent_tasks() {
        let dag = rsg_dag::workflows::bag(4, 10.0);
        let rc = ResourceCollection::homogeneous(4, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        let (s, _) = Mcp.schedule(&ctx);
        s.validate(&ctx).unwrap();
        assert!((s.makespan() - 10.0).abs() < 1e-9);
        assert_eq!(s.hosts_used(), 4);
    }

    #[test]
    fn mcp_prefers_fast_hosts() {
        let dag = rsg_dag::workflows::chain(3, 10.0, 0.0);
        let rc = ResourceCollection::new(vec![1500.0, 6000.0], rsg_platform::CommModel::Uniform);
        let ctx = ExecutionContext::new(&dag, &rc);
        let (s, _) = Mcp.schedule(&ctx);
        s.validate(&ctx).unwrap();
        // Everything belongs on the 4x host: 3 * 10 / 4.
        assert!((s.makespan() - 7.5).abs() < 1e-9);
        assert!(s.host.iter().all(|&h| h == 1));
    }

    #[test]
    fn mcp_avoids_expensive_transfers() {
        // Parent-child with a transfer far more expensive than serial
        // execution: MCP must co-locate.
        let mut b = DagBuilder::new();
        let a = b.add_task(10.0);
        let c = b.add_task(10.0);
        b.add_edge(a, c, 1000.0).unwrap();
        let dag = b.build().unwrap();
        let rc = ResourceCollection::homogeneous(2, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        let (s, _) = Mcp.schedule(&ctx);
        s.validate(&ctx).unwrap();
        assert_eq!(s.host[0], s.host[1]);
        assert!((s.makespan() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn op_count_grows_linearly_with_hosts() {
        let dag = RandomDagSpec {
            size: 200,
            ccr: 0.5,
            parallelism: 0.6,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(4);
        let rc_small = ResourceCollection::homogeneous(10, 1500.0);
        let rc_big = ResourceCollection::homogeneous(100, 1500.0);
        let ops_small = Mcp.schedule(&ExecutionContext::new(&dag, &rc_small)).1 .0;
        let ops_big = Mcp.schedule(&ExecutionContext::new(&dag, &rc_big)).1 .0;
        let ratio = ops_big as f64 / ops_small as f64;
        assert!(
            (5.0..11.0).contains(&ratio),
            "op growth should be ~linear in P, got {ratio}"
        );
    }

    #[test]
    fn fast_kernel_matches_naive_scan() {
        // Each DAG is scheduled at several prefix sizes of one RC: the
        // first fast call fills the DAG's priority cache, later ones
        // read it. Every call must match the from-scratch reference,
        // op count included. The full RC takes the candidate-set
        // kernel; a small prefix may fall back to the flat scan.
        let rcs = [
            ResourceCollection::homogeneous(40, 1500.0),
            ResourceCollection::new(
                [1500.0, 2800.0, 750.0, 2800.0].repeat(10),
                rsg_platform::CommModel::Uniform,
            ),
        ];
        for rc in &rcs {
            for seed in 0..4 {
                let dag = RandomDagSpec {
                    size: 150,
                    ccr: 1.0,
                    parallelism: 0.6,
                    density: 0.5,
                    regularity: 0.5,
                    mean_comp: 10.0,
                }
                .generate(seed);
                for size in [40, 13, 4, 40] {
                    let ctx = ExecutionContext::with_host_limit(&dag, rc, size);
                    if size == rc.len() {
                        assert!(super::super::placement::fast_placement_available(&ctx));
                    }
                    let (fast, fast_ops) = Mcp.schedule(&ctx);
                    let (naive, naive_ops) = McpNaive.schedule(&ctx);
                    assert_eq!(fast.host, naive.host, "seed {seed} size {size}");
                    assert_eq!(fast.start, naive.start, "seed {seed} size {size}");
                    assert_eq!(fast.finish, naive.finish, "seed {seed} size {size}");
                    assert_eq!(fast_ops, naive_ops, "seed {seed} size {size}");
                }
            }
        }
    }

    #[test]
    fn alap_order_schedules_critical_path_first() {
        // The critical entry (largest BL) must be placed before the
        // other entry.
        let mut b = DagBuilder::new();
        let heavy = b.add_task(100.0);
        let light = b.add_task(1.0);
        let sink = b.add_task(1.0);
        b.add_edge(heavy, sink, 0.0).unwrap();
        b.add_edge(light, sink, 0.0).unwrap();
        let dag = b.build().unwrap();
        let rc = ResourceCollection::homogeneous(1, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        let (s, _) = Mcp.schedule(&ctx);
        s.validate(&ctx).unwrap();
        assert!(s.start[0] < s.start[1], "critical task first");
    }
}
