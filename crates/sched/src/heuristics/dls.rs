//! DLS — Dynamic Level Scheduling (Sih & Lee), Figure V-13.
//!
//! At each step DLS evaluates every (ready task, host) pair and commits
//! the pair with the greatest *dynamic level*
//!
//! ```text
//! DL(t, h) = SL(t) − max(data_ready(t, h), host_ready(h)) + Δ(t, h)
//! Δ(t, h)  = w̄(t) − w(t, h)
//! ```
//!
//! where `SL` is the static level (bottom level on node weights only)
//! and `w̄(t)` the task's execution time on a median-speed host. DLS is
//! the most expensive heuristic in the Chapter V.6 comparison — its
//! elementary-operation count reflects every pair evaluation a careful
//! direct implementation performs.
//!
//! # Incremental dynamic-level maintenance
//!
//! The reference implementation ([`DlsNaive`]) re-touches every ready
//! candidate after each commit: candidates whose cached best host is
//! the modified host `h` get a full `O(P)` re-evaluation, every other
//! candidate gets a single-column probe of `h` guarded by a strict
//! `dl > best` update. That probe provably never fires: committing to
//! `h` only *raises* `host_ready[h]` (the committed start is at least
//! the previous ready time), data-ready of an already-ready candidate
//! is frozen, and any change to `host_ready[h′]` fully re-evaluates the
//! candidates cached on `h′` — so `DL(t₂, h)` can only have decayed
//! since `t₂`'s last full evaluation, and the strict compare against a
//! max that already included column `h` always fails.
//!
//! [`Dls`] therefore maintains the dynamic levels incrementally:
//!
//! * a lazy-deletion max-heap over `(dl, task)` replaces the per-step
//!   `O(|ready|)` argmax scan (stale entries are skipped on pop);
//! * per-host buckets track which candidates cache each best host, so a
//!   commit to `h` rescans only `bucket[h]` instead of all of `ready`;
//! * the provably-dead single-column probes are skipped *without
//!   touching their floats*, while their modeled cost is still charged
//!   exactly via running weight sums (`Σ(2+parents)` over live
//!   candidates, and per best-host) — the elementary-operation count,
//!   which drives the paper's scheduling-time model, stays bit-identical
//!   to the reference.
//!
//! Full evaluations go through the candidate-set placement kernel when
//! it applies and the loop-swapped flat scan otherwise (both
//! bit-identical to the reference column fold; see
//! [`super::placement`]), and all per-host state comes from the
//! thread-local [`scratch`](super::scratch) pool.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::common::F64;
use super::placement::{self, PlacementIndex};
use super::scratch;
use super::{Heuristic, HeuristicKind};
use crate::context::ExecutionContext;
use crate::schedule::Schedule;
use crate::timemodel::OpCount;
use rsg_dag::{CriticalPathInfo, TaskId};

/// Single-column DLS probes skipped (and charged in bulk) because the
/// incremental invariant proves them dead.
static OBS_SKIPS: rsg_obs::Counter = rsg_obs::Counter::new("sched.kernel.dls_incremental_skips");
/// Candidates fully re-evaluated because their cached best host was the
/// one modified by the last commit.
static OBS_RESCANS: rsg_obs::Counter = rsg_obs::Counter::new("sched.kernel.dls_full_rescans");

/// Dynamic Level Scheduling with incremental dynamic-level maintenance
/// (bit-identical schedules *and* op counts; see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dls;

/// The reference DLS: per-step rescan of every ready candidate with the
/// full per-host column folds. Differential baseline for tests and
/// benches.
#[derive(Debug, Clone, Copy, Default)]
pub struct DlsNaive;

impl Heuristic for Dls {
    fn kind(&self) -> HeuristicKind {
        HeuristicKind::Dls
    }

    fn schedule(&self, ctx: &ExecutionContext<'_>) -> (Schedule, OpCount) {
        schedule_incremental(ctx)
    }
}

impl Heuristic for DlsNaive {
    fn kind(&self) -> HeuristicKind {
        HeuristicKind::Dls
    }

    fn schedule(&self, ctx: &ExecutionContext<'_>) -> (Schedule, OpCount) {
        schedule_reference(ctx)
    }
}

fn schedule_incremental(ctx: &ExecutionContext<'_>) -> (Schedule, OpCount) {
    let dag = ctx.dag;
    let n = dag.len();
    let hosts = ctx.hosts();
    let mut ops = OpCount::default();

    // Static levels come from the DAG's cache; the two CP sweeps are
    // still charged, exactly as the reference pays them.
    let info = dag.critical_path();
    ops += 2 * (n as u64 + dag.edge_count() as u64);
    let median_speed = scratch::median_speed(ctx);

    let mut sched = Schedule::with_capacity(n);
    let mut host_ready = scratch::take_ready(hosts);
    let mut state = scratch::take_dls(hosts);
    let mut remaining_parents: Vec<u32> =
        dag.tasks().map(|t| dag.parents(t).len() as u32).collect();

    let mut index = PlacementIndex::new(ctx);
    let mut flat = if index.is_none() {
        Some(scratch::take_flat())
    } else {
        None
    };

    // Full evaluation of one candidate over all hosts — no op charge
    // here; callers charge the modeled cost at the call site.
    let mut eval_full = |t: TaskId,
                         sched: &Schedule,
                         host_ready: &[f64],
                         index: &mut Option<PlacementIndex>|
     -> (f64, usize, f64) {
        let sl = info.static_level[t.index()];
        let wbar = dag.comp(t) / median_speed;
        match index.as_mut() {
            Some(ix) => ix.dls_best(ctx, t, sched, host_ready, sl, wbar),
            None => {
                let dr = flat
                    .as_mut()
                    .expect("flat buffer on declined path")
                    .get(hosts);
                placement::fill_data_ready(ctx, t, &sched.finish, &sched.host, dr);
                placement::dls_flat_best(ctx, t, host_ready, sl, wbar, dr)
            }
        }
    };

    // Per-candidate cached state (task-indexed).
    let mut in_ready = vec![false; n];
    let mut dl = vec![0.0f64; n];
    let mut best_host = vec![0u32; n];
    let mut best_start = vec![0.0f64; n];
    // Position within the best host's bucket, for O(1) removal.
    let mut pos = vec![0u32; n];
    // Lazy-deletion max-heap: `(dl, lowest task id wins ties)`. An
    // entry is live iff the task is still ready *and* its cached dl
    // bits match; everything else is skipped on pop.
    let mut heap: BinaryHeap<(F64, Reverse<u32>)> = BinaryHeap::with_capacity(n);
    // Σ (2 + parents) over ready candidates — the bulk charge for the
    // skipped single-column probes.
    let mut weight_sum = 0u64;
    let mut live = 0u64;
    let weight = |t: TaskId| 2 + dag.parents(t).len() as u64;

    // Registers a freshly evaluated candidate in every structure.
    macro_rules! insert {
        ($t:expr, $best:expr) => {{
            let t: TaskId = $t;
            let (d, bh, st): (f64, usize, f64) = $best;
            let i = t.index();
            in_ready[i] = true;
            dl[i] = d;
            best_host[i] = bh as u32;
            best_start[i] = st;
            pos[i] = state.bucket_push(bh, t.0);
            state.sh_add(bh, weight(t));
            weight_sum += weight(t);
            live += 1;
            heap.push((F64(d), Reverse(t.0)));
        }};
    }

    for t in dag.entries() {
        let best = eval_full(t, &sched, &host_ready, &mut index);
        // Modeled cost of the full scan the reference performs when a
        // task becomes ready.
        ops += hosts as u64 * weight(t);
        insert!(t, best);
    }

    let mut scheduled = 0usize;
    while scheduled < n {
        // Pop the live maximum (highest dl, lowest task id on ties) —
        // the same pair the reference's linear argmax selects.
        let t = loop {
            let (F64(d), Reverse(ti)) = heap.pop().expect("ready set non-empty");
            let i = ti as usize;
            if in_ready[i] && dl[i].to_bits() == d.to_bits() {
                break TaskId(ti);
            }
        };
        // The reference charges one comparison per ready candidate for
        // the argmax, including the winner.
        ops += live;
        let i = t.index();
        let h = best_host[i] as usize;
        // Remove the winner from the candidate structures.
        in_ready[i] = false;
        live -= 1;
        weight_sum -= weight(t);
        state.sh_sub(h, weight(t));
        if let Some(moved) = state.bucket_swap_remove(h, pos[i]) {
            pos[moved as usize] = pos[i];
        }

        let start = best_start[i];
        let finish = start + ctx.task_time(t, h);
        sched.host[i] = h as u32;
        sched.start[i] = start;
        sched.finish[i] = finish;
        host_ready.set(h, finish);
        if let Some(ix) = index.as_mut() {
            ix.update(h, finish);
        }
        scheduled += 1;

        // Newly ready children: full evaluation, like the reference.
        for e in dag.children(t) {
            let c = e.task;
            remaining_parents[c.index()] -= 1;
            if remaining_parents[c.index()] == 0 {
                let best = eval_full(c, &sched, &host_ready, &mut index);
                ops += hosts as u64 * weight(c);
                insert!(c, best);
            }
        }

        // The reference now sweeps every ready candidate: a full
        // re-evaluation for those cached on `h` (their best may have
        // degraded), a single-column probe of `h` for the rest. The
        // probes provably never change anything (module docs), so only
        // the bucket is rescanned — but the modeled cost of the whole
        // sweep is charged exactly: `hosts · (2+parents)` per bucket
        // member, `2+parents` per skipped candidate.
        let bucket_weight = state.sh(h);
        ops += (weight_sum - bucket_weight) + hosts as u64 * bucket_weight;
        let rescan = state.snapshot_bucket(h);
        OBS_RESCANS.add(rescan.len() as u64);
        OBS_SKIPS.add(live - rescan.len() as u64);
        for &ti in &rescan {
            let t2 = TaskId(ti);
            let i2 = t2.index();
            debug_assert!(in_ready[i2]);
            let (d2, bh2, st2) = eval_full(t2, &sched, &host_ready, &mut index);
            if bh2 != h {
                // Moved buckets: O(1) swap-remove plus re-push.
                let w = weight(t2);
                state.sh_sub(h, w);
                if let Some(moved) = state.bucket_swap_remove(h, pos[i2]) {
                    pos[moved as usize] = pos[i2];
                }
                pos[i2] = state.bucket_push(bh2, ti);
                state.sh_add(bh2, w);
            }
            best_host[i2] = bh2 as u32;
            best_start[i2] = st2;
            if d2.to_bits() != dl[i2].to_bits() {
                dl[i2] = d2;
                heap.push((F64(d2), Reverse(ti)));
            }
        }
        state.return_snapshot(rescan);
    }

    (sched, ops)
}

fn schedule_reference(ctx: &ExecutionContext<'_>) -> (Schedule, OpCount) {
    struct Cand {
        task: TaskId,
        best_dl: f64,
        best_host: usize,
        best_start: f64,
    }

    let dag = ctx.dag;
    let n = dag.len();
    let hosts = ctx.hosts();
    let mut ops = OpCount::default();

    let info = CriticalPathInfo::compute(dag);
    ops += 2 * (n as u64 + dag.edge_count() as u64);

    // Median-speed execution time per task.
    let median_speed = {
        let mut sp: Vec<f64> = (0..hosts).map(|h| ctx.speed(h)).collect();
        sp.sort_by(f64::total_cmp);
        sp[sp.len() / 2]
    };

    let mut sched = Schedule::with_capacity(n);
    let mut host_ready = vec![0.0f64; hosts];
    let mut remaining_parents: Vec<u32> =
        dag.tasks().map(|t| dag.parents(t).len() as u32).collect();

    // Evaluates DL over all hosts for one task; returns the best.
    let eval_all =
        |t: TaskId, sched: &Schedule, host_ready: &[f64], ops: &mut OpCount| -> (f64, usize, f64) {
            let sl = info.static_level[t.index()];
            let wbar = dag.comp(t) / median_speed;
            let mut best = (f64::NEG_INFINITY, 0usize, 0.0f64);
            for (h, &ready) in host_ready.iter().enumerate() {
                let start = ready.max(ctx.data_ready(t, h, &sched.finish, &sched.host));
                let dl = sl - start + (wbar - ctx.task_time(t, h));
                if dl > best.0 {
                    best = (dl, h, start);
                }
            }
            *ops += hosts as u64 * (2 + dag.parents(t).len() as u64);
            best
        };

    let mut ready: Vec<Cand> = Vec::new();
    for t in dag.entries() {
        let (dl, h, st) = eval_all(t, &sched, &host_ready, &mut ops);
        ready.push(Cand {
            task: t,
            best_dl: dl,
            best_host: h,
            best_start: st,
        });
    }

    let mut scheduled = 0usize;
    while scheduled < n {
        // Commit the globally best (task, host) pair.
        let (bi, _) = ready
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.best_dl.total_cmp(&b.best_dl).then(b.task.cmp(&a.task)))
            .expect("ready set non-empty while tasks remain");
        ops += ready.len() as u64;
        let cand = ready.swap_remove(bi);
        let t = cand.task;
        let i = t.index();
        let h = cand.best_host;
        let start = cand.best_start;
        let finish = start + ctx.task_time(t, h);
        sched.host[i] = h as u32;
        sched.start[i] = start;
        sched.finish[i] = finish;
        host_ready[h] = finish;
        scheduled += 1;

        // Newly ready children: full evaluation.
        for e in dag.children(t) {
            let c = e.task;
            remaining_parents[c.index()] -= 1;
            if remaining_parents[c.index()] == 0 {
                let (dl, bh, st) = eval_all(c, &sched, &host_ready, &mut ops);
                ready.push(Cand {
                    task: c,
                    best_dl: dl,
                    best_host: bh,
                    best_start: st,
                });
            }
        }

        // Existing candidates: only host h changed. Re-evaluate that
        // column; tasks whose cached best was h need a full rescan
        // (their best may have degraded).
        for cand in &mut ready {
            let t2 = cand.task;
            if cand.best_host == h {
                let (dl, bh, st) = eval_all(t2, &sched, &host_ready, &mut ops);
                cand.best_dl = dl;
                cand.best_host = bh;
                cand.best_start = st;
            } else {
                let sl = info.static_level[t2.index()];
                let wbar = dag.comp(t2) / median_speed;
                let start = host_ready[h].max(ctx.data_ready(t2, h, &sched.finish, &sched.host));
                let dl = sl - start + (wbar - ctx.task_time(t2, h));
                ops += 2 + dag.parents(t2).len() as u64;
                if dl > cand.best_dl {
                    cand.best_dl = dl;
                    cand.best_host = h;
                    cand.best_start = start;
                }
            }
        }
    }

    (sched, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_dag::RandomDagSpec;
    use rsg_platform::ResourceCollection;

    #[test]
    fn dls_valid_and_sensible_on_random_dag() {
        let dag = RandomDagSpec {
            size: 150,
            ccr: 0.5,
            parallelism: 0.6,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(7);
        let rc = ResourceCollection::heterogeneous(12, 3000.0, 0.3, 3);
        let ctx = ExecutionContext::new(&dag, &rc);
        let (s, ops) = Dls.schedule(&ctx);
        s.validate(&ctx).unwrap();
        assert!(ops.0 > 0);
    }

    #[test]
    fn dls_prefers_fast_hosts_for_chain() {
        let dag = rsg_dag::workflows::chain(4, 10.0, 0.0);
        let rc = ResourceCollection::new(vec![1500.0, 6000.0], rsg_platform::CommModel::Uniform);
        let ctx = ExecutionContext::new(&dag, &rc);
        let (s, _) = Dls.schedule(&ctx);
        s.validate(&ctx).unwrap();
        assert!((s.makespan() - 10.0).abs() < 1e-9, "{}", s.makespan());
        assert!(s.host.iter().all(|&h| h == 1));
    }

    #[test]
    fn dls_is_most_expensive() {
        let dag = RandomDagSpec {
            size: 200,
            ccr: 0.5,
            parallelism: 0.6,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(8);
        let rc = ResourceCollection::homogeneous(50, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        let (_, dls_ops) = Dls.schedule(&ctx);
        let (_, mcp_ops) = super::super::Mcp.schedule(&ctx);
        assert!(
            dls_ops.0 > mcp_ops.0,
            "dls {} should exceed mcp {}",
            dls_ops.0,
            mcp_ops.0
        );
    }

    /// Schedules `dag` at each prefix size of `rc` in turn and checks
    /// the incremental DLS against the reference, op count included.
    /// The first call fills the DAG's critical-path cache, later calls
    /// read it.
    fn assert_matches_reference_at_prefixes(
        dag: &rsg_dag::Dag,
        rc: &ResourceCollection,
        sizes: &[usize],
        tag: &str,
    ) {
        for &size in sizes {
            let ctx = ExecutionContext::with_host_limit(dag, rc, size);
            let (fast, fast_ops) = Dls.schedule(&ctx);
            let (naive, naive_ops) = DlsNaive.schedule(&ctx);
            assert_eq!(fast.host, naive.host, "{tag} size {size}");
            assert_eq!(fast.start, naive.start, "{tag} size {size}");
            assert_eq!(fast.finish, naive.finish, "{tag} size {size}");
            assert_eq!(fast_ops, naive_ops, "{tag} size {size}");
        }
    }

    #[test]
    fn fast_kernel_matches_naive_scan() {
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
                let ctx = ExecutionContext::new(&dag, rc);
                assert!(super::super::placement::fast_placement_available(&ctx));
                // The full RC takes the candidate-set kernel; a small
                // prefix may fall back to the flat scan.
                assert_matches_reference_at_prefixes(
                    &dag,
                    rc,
                    &[40, 13, 4, 40],
                    &format!("seed {seed}"),
                );
            }
        }
    }

    #[test]
    fn incremental_matches_reference_on_declined_configs() {
        // Heterogeneous clocks and bandwidth heterogeneity force the
        // flat-scan path; the incremental maintenance must still be
        // bit-identical (schedule and op count) to the reference.
        for seed in 0..3 {
            let dag = RandomDagSpec {
                size: 120,
                ccr: 1.0,
                parallelism: 0.6,
                density: 0.5,
                regularity: 0.5,
                mean_comp: 10.0,
            }
            .generate(seed);
            for rc in [
                ResourceCollection::heterogeneous(17, 3000.0, 0.4, seed),
                ResourceCollection::heterogeneous(17, 3000.0, 0.4, seed)
                    .with_bandwidth_heterogeneity(0.3, seed + 1),
            ] {
                let ctx = ExecutionContext::new(&dag, &rc);
                assert!(!super::super::placement::fast_placement_available(&ctx));
                assert_matches_reference_at_prefixes(
                    &dag,
                    &rc,
                    &[17, 9, 2, 17],
                    &format!("seed {seed}"),
                );
            }
        }
    }

    #[test]
    fn dls_incremental_matches_quality_of_mcp_roughly() {
        // DLS and MCP should be within 2x of each other on a moderate
        // workload (both are critical-path heuristics).
        let dag = RandomDagSpec {
            size: 120,
            ccr: 1.0,
            parallelism: 0.5,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 20.0,
        }
        .generate(11);
        let rc = ResourceCollection::homogeneous(10, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        let (d, _) = Dls.schedule(&ctx);
        let (m, _) = super::super::Mcp.schedule(&ctx);
        d.validate(&ctx).unwrap();
        let ratio = d.makespan() / m.makespan();
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }
}
