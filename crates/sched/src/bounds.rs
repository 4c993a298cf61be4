//! Makespan lower bounds.
//!
//! Chapter IV compares turnaround times against "a lower bound on
//! application makespan by assuming all tasks run on hosts as fast as
//! the fastest available host and that all data transfers take place on
//! network links as fast as the fastest network link available". Two
//! bounds are provided: the paper's (critical path with edge costs at
//! the reference bandwidth) and a true lower bound (computation-only
//! critical path vs aggregate-work bound), which is valid even when a
//! schedule co-locates the whole critical path.

use crate::context::ExecutionContext;

/// A true makespan lower bound for the context:
/// `max(comp-only critical path at the fastest clock, total work /
/// aggregate speed)`.
pub fn makespan_lower_bound(ctx: &ExecutionContext<'_>) -> f64 {
    let info = ctx.dag.critical_path();
    let fastest = (0..ctx.hosts()).map(|h| ctx.speed(h)).fold(0.0, f64::max);
    let cp_comp = ctx
        .dag
        .entries()
        .map(|t| info.static_level[t.index()])
        .fold(0.0f64, f64::max);
    let aggregate: f64 = (0..ctx.hosts()).map(|h| ctx.speed(h)).sum();
    (cp_comp / fastest).max(ctx.dag.total_work() / aggregate)
}

/// The paper's Chapter IV bound: full critical path (node + edge
/// weights, edges at the reference bandwidth) executed at the fastest
/// clock.
pub fn paper_lower_bound(ctx: &ExecutionContext<'_>) -> f64 {
    let fastest = (0..ctx.hosts()).map(|h| ctx.speed(h)).fold(0.0, f64::max);
    // Edge weights are not divided by clock; only node weights scale,
    // so the clock-scaled bottom levels need a dedicated sweep:
    let dag = ctx.dag;
    let mut bl = vec![0.0f64; dag.len()];
    for &t in dag.topological_order().iter().rev() {
        let mut m = 0.0f64;
        for e in dag.children(t) {
            m = m.max(e.comm + bl[e.task.index()]);
        }
        bl[t.index()] = dag.comp(t) / fastest + m;
    }
    dag.entries().map(|t| bl[t.index()]).fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::HeuristicKind;
    use crate::ExecutionContext;
    use rsg_dag::RandomDagSpec;
    use rsg_platform::ResourceCollection;

    #[test]
    fn bound_below_every_heuristic() {
        let dag = RandomDagSpec {
            size: 100,
            ccr: 0.5,
            parallelism: 0.6,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(3);
        for rc in [
            ResourceCollection::homogeneous(10, 1500.0),
            ResourceCollection::heterogeneous(10, 3000.0, 0.4, 1),
        ] {
            let ctx = ExecutionContext::new(&dag, &rc);
            let lb = makespan_lower_bound(&ctx);
            for kind in HeuristicKind::all() {
                let (s, _) = kind.run(&ctx);
                assert!(
                    s.makespan() >= lb - 1e-9,
                    "{kind}: makespan {} below bound {lb}",
                    s.makespan()
                );
            }
        }
    }

    #[test]
    fn chain_bound_is_cp() {
        let dag = rsg_dag::workflows::chain(5, 10.0, 1.0);
        let rc = ResourceCollection::homogeneous(4, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        // comp-only CP = 50 at speed 1.
        assert!((makespan_lower_bound(&ctx) - 50.0).abs() < 1e-9);
        // Paper bound includes edges: 54.
        assert!((paper_lower_bound(&ctx) - 54.0).abs() < 1e-9);
    }

    #[test]
    fn work_bound_kicks_in_for_bags() {
        let dag = rsg_dag::workflows::bag(100, 10.0);
        let rc = ResourceCollection::homogeneous(10, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        // 1000 s of work over 10 unit-speed hosts.
        assert!((makespan_lower_bound(&ctx) - 100.0).abs() < 1e-9);
    }
}
