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
//!
//! The order is the same at every RC size, so [`McpLadder`] schedules a
//! DAG at every size of a ladder (prefixes of one RC) in one pass: one
//! MCP state per size, all advanced task by task, with `finish` and
//! `host` laid out `[task][size]`. Under uniform connectivity the two
//! critical-parent passes over a task's parents then run once per
//! parent edge for all sizes, as branch-free loops over a contiguous
//! row of sizes ([`placement::critical_parents`]); each size's placement
//! stays scalar (the candidate-set index, or the flat scan where the
//! index declines). Every size gets the schedule, and is charged the
//! operation count, it would get alone: [`Mcp`] is the batch of one.

use super::common::log2_ops;
use super::placement::{self, CriticalParent, PlacementIndex};
use super::scratch;
use super::{Heuristic, HeuristicKind};
use crate::context::ExecutionContext;
use crate::schedule::Schedule;
use crate::timemodel::OpCount;
use rsg_dag::critical::mcp_priority_order;
use rsg_dag::{CriticalPathInfo, TaskId};
use rsg_platform::CommModel;

/// The Modified Critical Path heuristic: the size-batched `McpLadder`
/// at one size (see the module docs).
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
        let McpLadder {
            host,
            start,
            finish,
            ops,
            ..
        } = McpLadder::schedule(std::slice::from_ref(ctx));
        (
            Schedule {
                host,
                start,
                finish,
            },
            ops[0],
        )
    }
}

impl Heuristic for McpNaive {
    fn kind(&self) -> HeuristicKind {
        HeuristicKind::Mcp
    }

    fn schedule(&self, ctx: &ExecutionContext<'_>) -> (Schedule, OpCount) {
        schedule_reference(ctx)
    }
}

/// MCP schedules of one DAG at several RC sizes — prefixes of one RC —
/// computed together (see the module docs). Entries are laid out
/// `[task][size]`, sizes in the order of the contexts they came from.
pub(crate) struct McpLadder {
    /// Sizes per task row.
    width: usize,
    host: Vec<u32>,
    start: Vec<f64>,
    finish: Vec<f64>,
    /// Modeled operation count of each size's schedule.
    pub(crate) ops: Vec<OpCount>,
}

impl McpLadder {
    /// Schedules `ctxs[0].dag` once per context (at least one). Every
    /// context must pair that DAG with the same RC; under non-uniform
    /// connectivity only one context is accepted (its data-ready times
    /// are per host, with nothing to share across sizes).
    pub(crate) fn schedule(ctxs: &[ExecutionContext<'_>]) -> McpLadder {
        let (dag, rc) = (ctxs[0].dag, ctxs[0].rc);
        debug_assert!(ctxs
            .iter()
            .all(|c| std::ptr::eq(c.dag, dag) && std::ptr::eq(c.rc, rc)));
        let uniform = *rc.comm_model() == CommModel::Uniform;
        assert!(
            uniform || ctxs.len() == 1,
            "MCP schedules several sizes together only under uniform connectivity"
        );
        let w = ctxs.len();
        let n = dag.len();

        // The priority order depends on the DAG alone and is cached with
        // it; its modeled cost (two CP sweeps, the priority sort) is
        // still charged on every schedule, as is the full scan of every
        // host against every parent, however the winner is found: the
        // scan *is* the phenomenon the paper measures, and the knee
        // tables depend on it.
        let order = dag.mcp_order();
        let tasks_and_edges = n as u64 + dag.edge_count() as u64;
        let ops = ctxs
            .iter()
            .map(|c| {
                OpCount(
                    2 * tasks_and_edges
                        + n as u64 * log2_ops(n)
                        + c.hosts() as u64 * tasks_and_edges,
                )
            })
            .collect();

        let mut host = vec![u32::MAX; n * w];
        let mut start = vec![0.0f64; n * w];
        let mut finish = vec![0.0f64; n * w];
        // Per-size placement state: a host-ready array (one pooled
        // buffer, size `s` at `offsets[s]`) and the candidate-set index
        // where it engages; the sizes where it declines share one flat
        // data-ready buffer.
        let offsets: Vec<usize> = ctxs
            .iter()
            .scan(0, |next, c| {
                let at = *next;
                *next += c.hosts();
                Some(at)
            })
            .collect();
        let mut host_ready = scratch::take_ready(offsets[w - 1] + ctxs[w - 1].hosts());
        let mut index: Vec<Option<PlacementIndex>> = ctxs.iter().map(PlacementIndex::new).collect();
        let mut flat = scratch::take_flat();
        let flat_hosts = ctxs
            .iter()
            .zip(&index)
            .filter(|(_, ix)| ix.is_none())
            .map(|(c, _)| c.hosts())
            .max()
            .unwrap_or(0);
        let dr = flat.get(flat_hosts);
        let (mut d, mut h1, mut ready) = (vec![0.0f64; w], vec![0u32; w], vec![0.0f64; w]);

        for &ti in order {
            let t = TaskId(ti);
            let row = t.index() * w;
            if uniform && w == 1 {
                // The batch of one: the scalar passes, whose branches
                // beat the batch's selects at a width of one.
                let cp = CriticalParent::of(&ctxs[0], t, &finish, &host);
                (d[0], h1[0], ready[0]) = (cp.d, cp.host, cp.ready);
            } else if uniform {
                placement::critical_parents(
                    dag.parents(t),
                    &finish,
                    &host,
                    &mut d,
                    &mut h1,
                    &mut ready,
                );
            }
            for (s, ctx) in ctxs.iter().enumerate() {
                let at = offsets[s];
                let hosts_ready = &host_ready[at..at + ctx.hosts()];
                let cp = CriticalParent {
                    d: d[s],
                    host: h1[s],
                    ready: ready[s],
                };
                let (best_finish, best_host, best_start) = match &index[s] {
                    Some(ix) => ix.mcp_best(ctx, t, &cp, hosts_ready),
                    None => {
                        let dr = &mut dr[..ctx.hosts()];
                        if uniform {
                            cp.fill(dr);
                        } else {
                            placement::fill_data_ready(ctx, t, &finish, &host, dr);
                        }
                        placement::mcp_flat_best(ctx, t, hosts_ready, dr)
                    }
                };
                host[row + s] = best_host as u32;
                start[row + s] = best_start;
                finish[row + s] = best_finish;
                host_ready.set(at + best_host, best_finish);
                if let Some(ix) = &mut index[s] {
                    ix.update(best_host, best_finish);
                }
            }
        }

        McpLadder {
            width: w,
            host,
            start,
            finish,
            ops,
        }
    }

    /// Size `s`'s entries of a `[task][size]` array, in task order.
    fn column<'a, T: Copy>(&self, v: &'a [T], s: usize) -> impl Iterator<Item = T> + 'a {
        v.iter().skip(s).step_by(self.width).copied()
    }

    /// Makespan of size `s`'s schedule ([`Schedule::makespan`]).
    pub(crate) fn makespan(&self, s: usize) -> f64 {
        crate::schedule::makespan(self.column(&self.start, s), self.column(&self.finish, s))
    }

    /// Size `s`'s schedule.
    pub(crate) fn schedule_at(&self, s: usize) -> Schedule {
        Schedule {
            host: self.column(&self.host, s).collect(),
            start: self.column(&self.start, s).collect(),
            finish: self.column(&self.finish, s).collect(),
        }
    }
}

/// Reference scan: the priority order recomputed from scratch, one pass
/// over hosts per task, data-ready folded per host. Kept verbatim as the
/// differential baseline.
fn schedule_reference(ctx: &ExecutionContext<'_>) -> (Schedule, OpCount) {
    let dag = ctx.dag;
    let n = dag.len();
    let hosts = ctx.hosts();
    let mut ops = OpCount::default();
    let order = mcp_priority_order(dag, &CriticalPathInfo::compute(dag));
    ops += 2 * (n as u64 + dag.edge_count() as u64); // two CP sweeps
    ops += n as u64 * log2_ops(n); // priority sort

    let mut sched = Schedule::with_capacity(n);
    let mut host_ready = vec![0.0f64; hosts];
    for &ti in &order {
        let t = TaskId(ti);
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
