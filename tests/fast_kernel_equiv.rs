//! Differential property tests for the candidate-set placement kernel:
//! on every random DAG × uniform-connectivity RC where the fast path
//! engages, MCP and DLS must produce bit-identical schedules (host,
//! start, finish) and identical modeled operation counts to the naive
//! full-host-scan reference implementations. The size-batched MCP
//! ladder (`evaluate_ladder`) must report, at every size, exactly what
//! the naive scan gives at that size alone. This is the contract that
//! lets the observation sweep use the kernel without perturbing any
//! paper-facing number.

use proptest::prelude::*;
use rsg::prelude::*;
use rsg::sched::heuristics::{fast_placement_available, Dls, DlsNaive, Mcp, McpNaive};
use rsg::sched::{
    evaluate_ladder, evaluate_prefix, ExecutionContext, Heuristic, OpCount, SchedTimeModel,
};

fn dag_spec_strategy() -> impl Strategy<Value = RandomDagSpec> {
    (
        10usize..250,
        0.0f64..2.0,
        0.0f64..=1.0,
        0.05f64..=1.0,
        0.01f64..=1.0,
        1.0f64..50.0,
    )
        .prop_map(
            |(size, ccr, parallelism, density, regularity, mean_comp)| RandomDagSpec {
                size,
                ccr,
                parallelism,
                density,
                regularity,
                mean_comp,
            },
        )
}

/// A uniform-connectivity RC with few speed classes — the configurations
/// the fast path accepts. `classes * 4 <= hosts` holds by construction.
fn fast_path_rc(classes: usize, extra_hosts: usize) -> ResourceCollection {
    let pool = [1500.0f64, 2800.0, 750.0];
    let hosts = classes * 4 + extra_hosts;
    let clocks: Vec<f64> = (0..hosts).map(|h| pool[h % classes]).collect();
    ResourceCollection::new(clocks, rsg::platform::CommModel::Uniform)
}

/// A DAG on which exact float ties are the norm: integer compute costs
/// in {1, 2, 3} and communication costs in {0, 1}, so many parents
/// arrive at the same instant, zero-cost edges make co-location free,
/// and all parents often sit on one host. Shape 0 is a random DAG
/// (each task takes up to three earlier tasks as parents), shape 1 a
/// fork-join pipeline, shape 2 a bag of independent tasks.
fn tie_heavy_dag(shape: u8, size: usize, seed: u64) -> Dag {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let comp = |rng: &mut rand::rngs::StdRng| rng.gen_range(1..4u32) as f64;
    let mut b = DagBuilder::new();
    match shape {
        0 => {
            for i in 0..size {
                let t = b.add_task(comp(&mut rng));
                let mut parents: Vec<usize> = Vec::new();
                for _ in 0..rng.gen_range(0..4usize).min(i) {
                    let p = rng.gen_range(0..i);
                    if !parents.contains(&p) {
                        parents.push(p);
                        let comm = rng.gen_range(0..2u32) as f64;
                        b.add_edge(TaskId(p as u32), t, comm).unwrap();
                    }
                }
            }
        }
        1 => {
            let width = 1 + size / 8;
            let mut prev_sink = None;
            for _ in 0..size.div_ceil(width + 2) {
                let src = b.add_task(comp(&mut rng));
                if let Some(ps) = prev_sink {
                    b.add_edge(ps, src, rng.gen_range(0..2u32) as f64).unwrap();
                }
                let sink = b.add_task(comp(&mut rng));
                for _ in 0..width {
                    let w = b.add_task(comp(&mut rng));
                    b.add_edge(src, w, rng.gen_range(0..2u32) as f64).unwrap();
                    b.add_edge(w, sink, rng.gen_range(0..2u32) as f64).unwrap();
                }
                prev_sink = Some(sink);
            }
        }
        _ => {
            for _ in 0..size {
                b.add_task(comp(&mut rng));
            }
        }
    }
    b.build().unwrap()
}

fn assert_same_schedule(
    label: &str,
    fast: (&rsg::sched::Schedule, rsg::sched::OpCount),
    naive: (&rsg::sched::Schedule, rsg::sched::OpCount),
) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(fast.0.host, naive.0.host, "{label}: host placement");
    assert_eq!(
        bits(&fast.0.start),
        bits(&naive.0.start),
        "{label}: start bits"
    );
    assert_eq!(
        bits(&fast.0.finish),
        bits(&naive.0.finish),
        "{label}: finish bits"
    );
    assert_eq!(fast.1, naive.1, "{label}: op counts");
}

/// One ladder rung as `(rc size, ops, makespan bits, turnaround bits)`.
type Rung = (usize, OpCount, u64, u64);

/// MCP at the first `size` hosts of `rc` through the naive scan.
fn naive_rung(dag: &Dag, rc: &ResourceCollection, size: usize, model: &SchedTimeModel) -> Rung {
    let ctx = ExecutionContext::with_host_limit(dag, rc, size);
    let (sched, ops) = McpNaive.schedule(&ctx);
    let makespan = sched.makespan();
    let turnaround = model.seconds(ops) + makespan + 0.0;
    (ctx.hosts(), ops, makespan.to_bits(), turnaround.to_bits())
}

/// `evaluate_ladder` over `sizes` ≡ the naive scan and
/// `evaluate_prefix` at each size on its own, bit for bit.
fn assert_ladder_matches_naive(label: &str, dag: &Dag, rc: &ResourceCollection, sizes: &[usize]) {
    let model = SchedTimeModel::default();
    let rung = |r: &rsg::sched::TurnaroundReport| -> Rung {
        (
            r.rc_size,
            r.ops,
            r.makespan_s.to_bits(),
            r.turnaround_s().to_bits(),
        )
    };
    let ladder = evaluate_ladder(dag, rc, sizes, HeuristicKind::Mcp, &model);
    assert_eq!(ladder.len(), sizes.len(), "{label}: one report per size");
    for (report, &size) in ladder.iter().zip(sizes) {
        let single = evaluate_prefix(dag, rc, size, HeuristicKind::Mcp, &model);
        assert_eq!(
            rung(report),
            naive_rung(dag, rc, size, &model),
            "{label}: size {size} of {sizes:?} vs McpNaive"
        );
        assert_eq!(
            rung(report),
            rung(&single),
            "{label}: size {size} of {sizes:?} vs evaluate_prefix"
        );
    }
}

/// A ladder over an RC of `hosts` hosts: `drawn` sizes (unsorted, some
/// past the RC, clamped) plus 3, 1, 2 — where a one-class RC's index
/// declines (`classes·4 > hosts`) — the full RC and a repeat.
fn ladder_of(mut drawn: Vec<usize>, hosts: usize) -> Vec<usize> {
    drawn.extend([3, 1, 2, hosts, drawn[0]]);
    drawn
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The size-batched MCP ladder on homogeneous and few-class RCs,
    /// where one batch mixes kernel sizes and declined (flat-scan) ones.
    #[test]
    fn mcp_ladder_matches_naive_per_size(
        spec in dag_spec_strategy(),
        seed in 0u64..1000,
        classes in 1usize..4,
        extra_hosts in 0usize..60,
        drawn in prop::collection::vec(0usize..80, 1..8),
    ) {
        let dag = spec.generate(seed);
        let rc = fast_path_rc(classes, extra_hosts);
        prop_assert!(fast_placement_available(&ExecutionContext::new(&dag, &rc)));
        prop_assert!(!fast_placement_available(&ExecutionContext::with_host_limit(&dag, &rc, 3)));
        assert_ladder_matches_naive("MCP ladder", &dag, &rc, &ladder_of(drawn, rc.len()));
    }

    /// The size-batched MCP ladder on tie-heavy integer-cost DAGs.
    #[test]
    fn tie_heavy_mcp_ladder_matches_naive_per_size(
        shape in 0u8..3,
        size in 1usize..160,
        seed in 0u64..100_000,
        classes in 1usize..4,
        extra_hosts in 0usize..24,
        drawn in prop::collection::vec(0usize..40, 1..8),
    ) {
        let dag = tie_heavy_dag(shape, size, seed);
        let rc = fast_path_rc(classes, extra_hosts);
        assert_ladder_matches_naive("MCP ladder/ties", &dag, &rc, &ladder_of(drawn, rc.len()));
    }

    /// A bandwidth-heterogeneous RC: `evaluate_ladder` evaluates size by
    /// size, with the same reports.
    #[test]
    fn bandwidth_heterogeneous_mcp_ladder_matches_naive_per_size(
        spec in dag_spec_strategy(),
        seed in 0u64..1000,
        hosts in 1usize..40,
        drawn in prop::collection::vec(0usize..48, 1..6),
    ) {
        let dag = spec.generate(seed);
        let rc = ResourceCollection::homogeneous(hosts, 1500.0)
            .with_bandwidth_heterogeneity(0.3, seed);
        prop_assert!(rc.comm_model() != &rsg::platform::CommModel::Uniform);
        assert_ladder_matches_naive("MCP ladder/bandwidth", &dag, &rc, &ladder_of(drawn, hosts));
    }

    /// MCP through the kernel ≡ the naive scan, bit for bit.
    #[test]
    fn mcp_fast_kernel_equivalent(
        spec in dag_spec_strategy(),
        seed in 0u64..1000,
        classes in 1usize..4,
        extra_hosts in 0usize..120,
    ) {
        let dag = spec.generate(seed);
        let rc = fast_path_rc(classes, extra_hosts);
        let ctx = ExecutionContext::new(&dag, &rc);
        prop_assert!(fast_placement_available(&ctx));
        let (s_fast, ops_fast) = Mcp.schedule(&ctx);
        let (s_naive, ops_naive) = McpNaive.schedule(&ctx);
        assert_same_schedule("MCP", (&s_fast, ops_fast), (&s_naive, ops_naive));
    }

    /// DLS through the kernel ≡ the naive scan, bit for bit.
    #[test]
    fn dls_fast_kernel_equivalent(
        spec in dag_spec_strategy(),
        seed in 0u64..1000,
        classes in 1usize..4,
        extra_hosts in 0usize..60,
    ) {
        let dag = spec.generate(seed);
        let rc = fast_path_rc(classes, extra_hosts);
        let ctx = ExecutionContext::new(&dag, &rc);
        prop_assert!(fast_placement_available(&ctx));
        let (s_fast, ops_fast) = Dls.schedule(&ctx);
        let (s_naive, ops_naive) = DlsNaive.schedule(&ctx);
        assert_same_schedule("DLS", (&s_fast, ops_fast), (&s_naive, ops_naive));
    }

    /// When the kernel declines (non-uniform bandwidth, or continuously
    /// heterogeneous clocks), the gated heuristics still match the
    /// reference — the gate itself must never perturb results.
    #[test]
    fn declined_fast_path_is_harmless(
        spec in dag_spec_strategy(),
        seed in 0u64..1000,
        hosts in 1usize..40,
        het in 0.05f64..0.6,
    ) {
        let dag = spec.generate(seed);
        let rc = ResourceCollection::heterogeneous(hosts, 3000.0, het, seed)
            .with_bandwidth_heterogeneity(0.3, seed ^ 5);
        let ctx = ExecutionContext::new(&dag, &rc);
        prop_assert!(!fast_placement_available(&ctx));
        let (s_fast, ops_fast) = Mcp.schedule(&ctx);
        let (s_naive, ops_naive) = McpNaive.schedule(&ctx);
        assert_same_schedule("MCP/declined", (&s_fast, ops_fast), (&s_naive, ops_naive));
        let (d_fast, d_ops_fast) = Dls.schedule(&ctx);
        let (d_naive, d_ops_naive) = DlsNaive.schedule(&ctx);
        assert_same_schedule("DLS/declined", (&d_fast, d_ops_fast), (&d_naive, d_ops_naive));
    }

    /// Tie-heavy integer-cost DAGs on homogeneous or 2–3-class RCs: the
    /// critical-parent candidate set must reproduce the naive scans'
    /// first-wins tie-breaks exactly, for MCP and DLS.
    #[test]
    fn tie_heavy_fast_kernel_equivalent(
        shape in 0u8..3,
        size in 1usize..160,
        seed in 0u64..100_000,
        classes in 1usize..4,
        extra_hosts in 0usize..24,
    ) {
        let dag = tie_heavy_dag(shape, size, seed);
        let rc = fast_path_rc(classes, extra_hosts);
        let ctx = ExecutionContext::new(&dag, &rc);
        prop_assert!(fast_placement_available(&ctx));
        let (s_fast, ops_fast) = Mcp.schedule(&ctx);
        let (s_naive, ops_naive) = McpNaive.schedule(&ctx);
        assert_same_schedule("MCP/ties", (&s_fast, ops_fast), (&s_naive, ops_naive));
        let (d_fast, d_ops_fast) = Dls.schedule(&ctx);
        let (d_naive, d_ops_naive) = DlsNaive.schedule(&ctx);
        assert_same_schedule("DLS/ties", (&d_fast, d_ops_fast), (&d_naive, d_ops_naive));
    }

    /// Continuously heterogeneous clocks under uniform connectivity: the
    /// kernel declines, and the flat scan's critical-parent data-ready
    /// fill must still match the naive scans bit for bit.
    #[test]
    fn declined_uniform_fast_path_is_harmless(
        spec in dag_spec_strategy(),
        seed in 0u64..1000,
        hosts in 1usize..40,
        het in 0.05f64..0.6,
        tie_shape in 0u8..4,
    ) {
        let dag = if tie_shape < 3 {
            tie_heavy_dag(tie_shape, spec.size, seed)
        } else {
            spec.generate(seed)
        };
        let rc = ResourceCollection::heterogeneous(hosts, 3000.0, het, seed);
        prop_assert_eq!(rc.comm_model(), &rsg::platform::CommModel::Uniform);
        let ctx = ExecutionContext::new(&dag, &rc);
        prop_assert!(!fast_placement_available(&ctx));
        let (s_fast, ops_fast) = Mcp.schedule(&ctx);
        let (s_naive, ops_naive) = McpNaive.schedule(&ctx);
        assert_same_schedule("MCP/uniform", (&s_fast, ops_fast), (&s_naive, ops_naive));
        let (d_fast, d_ops_fast) = Dls.schedule(&ctx);
        let (d_naive, d_ops_naive) = DlsNaive.schedule(&ctx);
        assert_same_schedule("DLS/uniform", (&d_fast, d_ops_fast), (&d_naive, d_ops_naive));
    }

    /// Prefix evaluation over one max-size RC ≡ a fresh reference
    /// evaluation on the materialized prefix, for every heuristic — the
    /// sweep's RC-reuse contract end to end.
    #[test]
    fn prefix_reuse_matches_reference(
        spec in dag_spec_strategy(),
        seed in 0u64..1000,
        size in 1usize..64,
    ) {
        let dag = spec.generate(seed);
        let family = rsg::core::curve::RcFamily::reference();
        let big = family.build(64);
        let exact = family.build(size);
        let model = rsg::sched::SchedTimeModel::default();
        for kind in HeuristicKind::all() {
            let via_prefix = rsg::sched::evaluate_prefix(&dag, &big, size, kind, &model);
            let reference = rsg::sched::evaluate_reference(&dag, &exact, kind, &model);
            prop_assert_eq!(via_prefix.ops, reference.ops, "{} ops", kind);
            prop_assert_eq!(
                via_prefix.makespan_s,
                reference.makespan_s,
                "{} makespan", kind
            );
            prop_assert_eq!(
                via_prefix.sched_time_s,
                reference.sched_time_s,
                "{} sched time", kind
            );
        }
    }
}

/// The kernel up the host axis: MCP and DLS on a 300-task DAG over
/// homogeneous RCs of 10 to 10,000 hosts, where the fast path skips
/// almost every host the naive scan visits. Schedules and op counts
/// must still match the reference bit for bit.
#[test]
fn host_scaling_fast_kernel_matches_naive() {
    let dag = RandomDagSpec {
        size: 300,
        ccr: 0.1,
        parallelism: 0.6,
        density: 0.5,
        regularity: 0.5,
        mean_comp: 20.0,
    }
    .generate(11);
    for hosts in [10, 100, 1000, 10_000] {
        let rc = ResourceCollection::homogeneous(hosts, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        assert!(fast_placement_available(&ctx), "P={hosts}");
        for kind in [HeuristicKind::Mcp, HeuristicKind::Dls] {
            let (s_fast, ops_fast) = kind.run(&ctx);
            let (s_naive, ops_naive) = kind.run_reference(&ctx);
            assert_same_schedule(
                &format!("{kind} P={hosts}"),
                (&s_fast, ops_fast),
                (&s_naive, ops_naive),
            );
        }
    }
}
