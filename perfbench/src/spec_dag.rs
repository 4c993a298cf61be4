//! `spec-dag`: a closed loop on 2 connections, each request a `/spec`
//! with a full `dag` document; half of them negotiate.
//!
//! Here the lint gate and the DAG parse are nearly the whole handler,
//! and negotiation roughly doubles it; transport is a small share.

use crate::serving::{self, Sample, DEADLINE_S};
use crate::trace::Tracer;
use crate::{median, percentile, secs, Args, Report, Rng};
use rsg_analyze::Input;
use rsg_core::alternative::{alternatives, attempt_from_outcome, negotiate_with_retry};
use rsg_core::curve::CurveConfig;
use rsg_core::specgen::{ResourceSpec, SpecGenerator};
use rsg_core::RetryPolicy;
use rsg_dag::io::{read_dag, write_dag};
use rsg_dag::{Dag, DagStats, RandomDagSpec};
use rsg_obs::json::{escape, Json};
use rsg_platform::Platform;
use rsg_select::{FlakyConfig, FlakySelector, VgesFinder};
use rsg_serve::handlers::ServerContext;
use rsg_serve::http::HttpRequest;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Timed set-ups per run; `setup_s` is their median. One takes about
/// 0.3 s.
const SETUPS: usize = 9;

/// Distinct DAGs per seed. Every seed draws the same mix: sizes evenly
/// spaced over 100–800 tasks, and each other parameter from its own
/// slice of its range (slice `i·k mod DAGS` for DAG `i`, a fixed
/// pairing), jittered within the slice. Seeds differ in the DAGs drawn,
/// not in how much work the pool holds, so the tail of the latency
/// distribution means the same thing for every seed.
const DAGS: usize = 24;

/// Client connections of the closed loop.
const CLIENTS: usize = 2;

/// A draw from slice `(i·stride) mod DAGS` of `[lo, hi)`; `stride` is
/// coprime with `DAGS`, so each slice is used once.
fn sliced(rng: &mut Rng, i: usize, stride: usize, lo: f64, hi: f64) -> f64 {
    let slot = (i * stride % DAGS) as f64;
    lo + (hi - lo) * (slot + rng.range(0.0, 1.0)) / DAGS as f64
}

/// The request bodies: DAG `i` without negotiation at `2i`, with it at
/// `2i + 1`. Parallelism stays at most 0.65 so the largest DAG
/// document stays well under the server's 1 MiB body limit.
fn requests(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(2 * DAGS);
    for i in 0..DAGS {
        let spec = RandomDagSpec {
            size: 100 + i * 700 / (DAGS - 1),
            ccr: sliced(&mut rng, i, 11, 0.1, 1.0),
            parallelism: sliced(&mut rng, i, 7, 0.45, 0.65),
            density: 0.5,
            regularity: sliced(&mut rng, i, 5, 0.2, 0.9),
            mean_comp: 40.0,
        };
        let text = escape(&write_dag(&spec.generate(rng.next_u64())));
        for negotiate in [false, true] {
            let body = format!("{{\"dag\": {text}, \"negotiate\": {negotiate}}}");
            out.push(serving::raw_post("/spec", &body));
        }
    }
    out
}

/// Laps over the pool in each client's visiting order: more than a
/// client completes in a minute.
const LAPS: usize = 256;

/// Each client's visiting order: `LAPS` laps over every body, each lap
/// a fresh seeded permutation of its own, as independent callers would
/// send. With one fixed cycle per client, both clients keep about the
/// phase the first lap's timing gave them, so the same pairs of bodies
/// would run side by side on the two cores for the whole run.
fn orders(seed: u64, n: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed ^ 0x0DE5);
    (0..CLIENTS)
        .map(|_| {
            let mut order = Vec::with_capacity(LAPS * n);
            for _ in 0..LAPS {
                let mut lap: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut lap);
                order.extend(lap);
            }
            order
        })
        .collect()
}

/// Sends every body once across the clients, so lazy state (the
/// negotiation platform, allocator pools) is built before timing.
fn warmup(report: &mut Report, addr: SocketAddr, raws: &[Vec<u8>]) {
    let results: Vec<(usize, Result<u16, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    (c..raws.len())
                        .step_by(CLIENTS)
                        .map(|i| (i, serving::send(addr, &raws[i]).map(|r| r.status)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warmup client"))
            .collect()
    });
    for (i, r) in results {
        report.check(matches!(r, Ok(200)), || {
            format!("warmup request {i}: {r:?}")
        });
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let ((mut server, raws), setup_s) = crate::timed_setups(SETUPS, || {
        let server = serving::boot(false, None);
        let raws = requests(args.seed);
        warmup(&mut report, server.addr(), &raws);
        (server, raws)
    });
    let addr = server.addr();
    let orders = orders(args.seed, raws.len());

    let queue_before = serving::queue_wait_snapshot();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = orders
            .iter()
            .map(|order| {
                let (raws, stop) = (&raws, &stop);
                s.spawn(move || serving::closed_loop(addr, raws, order, stop))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(args.seconds));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window_s = secs(started);
    let queue_after = serving::queue_wait_snapshot();
    let rss = crate::peak_rss_mb();
    server.shutdown();

    let ctx = ServerContext::new(serving::load_registry(), DEADLINE_S);
    let refs = serving::reference_hashes(&ctx, &raws);
    serving::verify(&mut report, &samples, &refs);

    let ok: Vec<f64> = samples
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| s.ms)
        .collect();
    let rps = ok.len() as f64 / window_s;
    let (p50, p95, p99) = (median(&ok), percentile(&ok, 0.95), percentile(&ok, 0.99));
    report.metric("ops_per_s", rps);
    report.metric("p50_ms", p50);
    report.metric("p95_ms", p95);
    report.metric("setup_s", median(&setup_s));
    report.metric("peak_rss_mb", rss);
    report.figure("spec_rps", rps, "1/s");
    report.figure("spec_p50_ms", p50, "ms");
    report.figure("spec_p95_ms", p95, "ms");
    report.figure("spec_p99_ms", p99, "ms");
    report.figure("spec_samples", ok.len() as f64, "count");
    report.figure("setup_s", median(&setup_s), "s");
    report.figure("peak_rss_mb", rss, "MiB");

    if args.trace {
        let client = serving::per_body_median_ms(&samples, raws.len());
        let queue_wait = serving::queue_wait_mean_ms(queue_before, queue_after);
        traced(&mut report, args, &ctx, &raws, &client, queue_wait);
    }
    report
}

/// `alternatives` + `negotiate_with_retry` as the handler calls them
/// for a request without a `flaky` block. Returns the rung bound, if
/// any.
fn negotiate(spec: &ResourceSpec, dag: &Dag, platform: &Platform) -> Option<usize> {
    let mut flaky = FlakySelector::new(FlakyConfig::default()).expect("default flaky config");
    let tiers: Vec<f64> = [3000.0, 2500.0, 2000.0]
        .into_iter()
        .filter(|&t| t < spec.clock_mhz.1)
        .collect();
    let ladder = alternatives(
        spec,
        std::slice::from_ref(dag),
        &tiers,
        &CurveConfig::default(),
    );
    let finder = VgesFinder::default();
    let policy = RetryPolicy {
        total_deadline_s: DEADLINE_S.min(RetryPolicy::default().total_deadline_s),
        ..RetryPolicy::default()
    };
    negotiate_with_retry(&ladder, &policy, |s| {
        let vg = SpecGenerator::to_vgdl(s);
        attempt_from_outcome(flaky.select(|| finder.find(platform, &vg)), s.min_size)
    })
    .ok()
    .map(|n| n.rung)
}

/// The handler's stages, re-executed through their public calls:
/// parse, lint, DAG read, stats, generation, the three renderings and
/// (when asked) negotiation.
fn stages(tr: &mut Tracer, ctx: &ServerContext, req: &HttpRequest, platform: &Platform) -> bool {
    let body = serving::traced_parse(tr, req);
    let text = body.get("dag").and_then(Json::as_str).expect("a dag body");
    let lint = tr.span("analyze.lint", |_| {
        rsg_analyze::analyze(&[Input::new("request.dag", text)], None)
    });
    let dag = tr
        .span("dag.io.read", |_| read_dag(text))
        .expect("a generated DAG reads back");
    let stats = tr.span("dag.stats", |_| DagStats::measure(&dag));
    let spec = serving::traced_generate_and_render(tr, ctx, &stats);
    if matches!(body.get("negotiate"), Some(Json::Bool(true))) {
        tr.span("core.alternative.negotiate", |_| {
            negotiate(&spec, &dag, platform)
        });
    }
    lint.errors() == 0
}

/// Passes over every distinct request in the traced run.
const TRACED_PASSES: usize = 2;

/// The expected share of `handlers::handle` left to the handler itself
/// beside the re-executed stages: the summary, the knee-ladder JSON, the
/// answer assembly and `meta`, about 1% of a DAG request.
const RESIDUAL_BAND: (f64, f64) = (-0.08, 0.08);

fn traced(
    report: &mut Report,
    args: &Args,
    ctx: &ServerContext,
    raws: &[Vec<u8>],
    client_ms: &[Option<f64>],
    queue_wait_ms: f64,
) {
    let platform = serving::daemon_platform();
    let mut dirty = 0;
    let st = serving::trace_requests(report, ctx, raws, TRACED_PASSES, |tr, req| {
        if !stages(tr, ctx, req, &platform) {
            dirty += 1;
        }
    });
    report.check(dirty == 0, || {
        format!("{dirty} traced DAGs failed the lint gate")
    });
    serving::report_serving(report, &st, raws, client_ms, RESIDUAL_BAND);
    let m = |s| serving::layer_median(&st.tr, s, 1.0);
    report.metric("serve.queue_wait_ms", queue_wait_ms);
    report.metric("analyze.lint_ms", m("analyze.lint"));
    report.metric("dag.io.read_ms", m("dag.io.read"));
    report.metric("dag.stats_ms", m("dag.stats"));
    report.metric(
        "core.alternative.negotiate_ms",
        m("core.alternative.negotiate"),
    );
    crate::record_counters(
        report,
        &st.handler_counters,
        &[
            "core.negotiate.attempts.original",
            "core.negotiate.attempts.smaller_size",
            "core.negotiate.attempts.slower_clock",
            "core.negotiate.attempts.wider_het",
            "sched.placements",
            "sched.schedules_evaluated",
            "sched.placement.fast_kernel",
            "sched.kernel.scratch_builds",
            "sched.kernel.scratch_hits",
        ],
    );
    crate::write_trace(args, "requests", &st.tr.to_tsv());
}
