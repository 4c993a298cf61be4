//! `live-platform`: writes beside reads.
//!
//! One connection sends `/admin/platform` delta batches open-loop at a
//! fixed rate into a journaled daemon; the other reads `/spec`
//! closed-loop with `characteristics` bodies. The delta mix is skewed
//! toward the fastest clusters — the tiny grid's footprint — so a
//! stated share of batches dirties sweep cells: this exercises the push
//! recompute and the journal fsync, and shows whether that work takes
//! the cores away from readers. The reads skip lint and DAG parsing, so
//! an HTTP-layer change shows here and not on `spec-dag`.

use crate::serving::{self, Sample, DEADLINE_S};
use crate::trace::Tracer;
use crate::{median, percentile, secs, Args, Report, Rng};
use rsg_analyze::lint_delta_batch;
use rsg_core::curve::CurveConfig;
use rsg_core::observation::ObservationGrid;
use rsg_core::push::{DeltaJournal, DeltaRecord, PushEngine};
use rsg_core::THRESHOLD_LADDER;
use rsg_dag::DagStats;
use rsg_obs::json::{escape, Json};
use rsg_platform::delta::PlatformDelta;
use rsg_platform::{ClusterId, CostModel};
use rsg_serve::handlers::ServerContext;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Timed set-ups per run; `setup_s` is their median. One takes about 40 ms,
/// most of it the push-tracker build, so a short host stall moves a
/// single one by half.
const SETUPS: usize = 25;

/// Distinct read bodies per seed.
const READS: usize = 64;

/// Delta batches sent per second, on a fixed schedule.
const BATCH_RATE: f64 = 50.0;

/// Every `FOOTPRINT_EVERY`th batch (10%) leads with a clock drift of
/// the fastest cluster. Every tiny-grid cell draws its hosts from that
/// cluster first, so such a batch dirties every cell: the same recompute
/// for every seed, which keeps the delta-latency tail comparable across
/// seeds. The rest touch the slower half of the platform or the price,
/// which dirties no cell.
const FOOTPRINT_EVERY: usize = 10;

/// Footprint batches sit at even stream positions, and the daemon audits
/// after batch `k` only when `k + 1` is a multiple of `AUDIT_EVERY`, an
/// odd position: no batch both recomputes every cell and audits, for
/// any seed.
const FOOTPRINT_OFFSET: usize = 4;
const _: () = assert!(
    FOOTPRINT_EVERY.is_multiple_of(2)
        && FOOTPRINT_OFFSET.is_multiple_of(2)
        && AUDIT_EVERY.is_multiple_of(2)
);

/// Batches sent during set-up; the first one builds the push tracker.
const WARMUP_BATCHES: usize = 4;

/// The daemon's automatic audit cadence and sample
/// (`rsg_serve::push::AUDIT_EVERY_BATCHES`, `AUDIT_SAMPLE`), mirrored by
/// the traced in-process engine so both do the same work.
const AUDIT_EVERY: u64 = rsg_serve::push::AUDIT_EVERY_BATCHES;

fn read_requests(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed ^ 0x7EAD);
    (0..READS)
        .map(|_| {
            let size = rng.range(100f64.ln(), 5000f64.ln()).exp().round();
            let body = format!(
                "{{\"characteristics\": {{\"size\": {size}, \"ccr\": {:.3}, \"parallelism\": {:.3}, \
                 \"density\": {:.3}, \"regularity\": {:.3}, \"mean_comp\": {:.1}}}}}",
                rng.range(0.01, 1.0),
                rng.range(0.3, 0.9),
                rng.range(0.2, 0.8),
                rng.range(0.01, 1.0),
                rng.range(10.0, 60.0)
            );
            serving::raw_post("/spec", &body)
        })
        .collect()
}

/// The seeded delta stream: `batches` batches of 1–3 records with
/// consecutive sequence numbers from 1, each valid against the platform
/// the earlier records produced.
fn delta_stream(seed: u64, batches: usize) -> Vec<Vec<DeltaRecord>> {
    let mut rng = Rng::new(seed ^ 0xDE17A);
    let base = serving::daemon_platform();
    let mut platform = base.clone();
    let mut cost = CostModel::default();
    let order = base.clusters_by_clock_desc();
    let fastest = order[0];
    let slow: Vec<ClusterId> = order[order.len() / 2..].to_vec();
    let clock = |c: ClusterId| base.clusters()[c.index()].clock_mhz;
    let mut seq = 0u64;
    (0..batches)
        .map(|k| {
            let footprint = k % FOOTPRINT_EVERY == FOOTPRINT_OFFSET;
            let len = 1 + rng.below(3);
            let mut batch = Vec::with_capacity(len);
            while batch.len() < len {
                let delta = if footprint && batch.is_empty() {
                    PlatformDelta::ClockDrift {
                        cluster: fastest,
                        clock_mhz: clock(fastest) * rng.range(0.97, 1.03),
                    }
                } else {
                    let c = slow[rng.below(slow.len())];
                    match rng.below(5) {
                        0 => PlatformDelta::HostJoin {
                            cluster: c,
                            hosts: 1 + rng.below(3) as u32,
                        },
                        1 => PlatformDelta::HostLeave {
                            cluster: c,
                            hosts: 1,
                        },
                        2 => PlatformDelta::ClockDrift {
                            cluster: c,
                            clock_mhz: clock(c) * rng.range(0.97, 1.03),
                        },
                        3 => PlatformDelta::BandwidthDrift {
                            cluster: c,
                            factor: rng.range(0.6, 1.0),
                        },
                        _ => PlatformDelta::PriceChange {
                            dollars_per_hour: rng.range(0.05, 0.45),
                        },
                    }
                };
                if delta.apply(&mut platform, &mut cost).is_ok() {
                    seq += 1;
                    batch.push(DeltaRecord { seq, delta });
                }
            }
            batch
        })
        .collect()
}

fn batch_request(batch: &[DeltaRecord]) -> Vec<u8> {
    let deltas: Vec<String> = batch
        .iter()
        .map(|r| {
            format!(
                "{{\"seq\": {}, \"delta\": {}}}",
                r.seq,
                escape(&r.delta.to_tsv())
            )
        })
        .collect();
    serving::raw_post(
        "/admin/platform",
        &format!("{{\"deltas\": [{}]}}", deltas.join(", ")),
    )
}

/// One delta batch as the feeder saw it.
struct Fed {
    /// Send time minus due time, milliseconds.
    late_ms: f64,
    /// Due time to the 200, milliseconds.
    ms: f64,
    /// `(dirtied, recomputed)` from the admin answer, or why it failed.
    outcome: Result<(u64, u64), String>,
}

fn post_batch(admin: SocketAddr, raw: &[u8]) -> Result<(u64, u64), String> {
    let reply = serving::send(admin, raw)?;
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.body));
    }
    let body = Json::parse(&reply.body).map_err(|e| format!("answer is not JSON: {e}"))?;
    let field = |k: &str| body.get(k).and_then(Json::as_f64).map(|v| v as u64);
    match (field("dirtied"), field("recomputed")) {
        (Some(d), Some(r)) => Ok((d, r)),
        _ => Err(format!("answer lacks dirtied/recomputed: {}", reply.body)),
    }
}

/// The open-loop feeder: batch `k` is due `k / BATCH_RATE` seconds after
/// `start` and is sent then, or as soon as the previous answer arrives
/// when the daemon runs behind.
fn feed(admin: SocketAddr, raws: &[Vec<u8>], start: Instant) -> Vec<Fed> {
    raws.iter()
        .enumerate()
        .map(|(k, raw)| {
            let due = start + Duration::from_secs_f64(k as f64 / BATCH_RATE);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
            let outcome = post_batch(admin, raw);
            let ms = due.elapsed().as_secs_f64() * 1e3;
            Fed {
                late_ms,
                ms,
                outcome,
            }
        })
        .collect()
}

/// The final full anti-entropy audit: every cell recomputed from
/// scratch must match, and no delta may be left unapplied.
fn final_audit(report: &mut Report, admin: SocketAddr) {
    let raw = serving::raw_post("/admin/platform", "{\"audit\": {\"sample\": 1000000}}");
    let outcome = serving::send(admin, &raw).and_then(|r| {
        let body = Json::parse(&r.body).map_err(|e| format!("audit answer is not JSON: {e}"))?;
        let num = |outer: &str, k: &str| {
            body.get(outer)
                .and_then(|o| o.get(k))
                .and_then(Json::as_f64)
        };
        match (
            r.status,
            num("audit", "divergent"),
            num("audit", "checked"),
            num("staleness", "lag"),
        ) {
            (200, Some(d), Some(c), Some(l)) if d == 0.0 && l == 0.0 && c > 0.0 => Ok(()),
            _ => Err(format!("audit: status {}: {}", r.status, r.body)),
        }
    });
    report.check(outcome.is_ok(), || {
        format!("final audit failed: {outcome:?}")
    });
}

struct Setup {
    server: rsg_serve::Server,
    reads: Vec<Vec<u8>>,
    stream: Vec<Vec<DeltaRecord>>,
    warmup: Vec<Result<(u64, u64), String>>,
}

fn setup(report: &mut Report, args: &Args, journal: &Path, batches: usize) -> Setup {
    let _ = std::fs::remove_file(journal);
    let server = serving::boot(true, Some(journal.to_path_buf()));
    let admin = server.admin_addr().expect("admin surface");
    let reads = read_requests(args.seed);
    let stream = delta_stream(args.seed, WARMUP_BATCHES + batches);
    let warmup: Vec<_> = stream[..WARMUP_BATCHES]
        .iter()
        .map(|b| post_batch(admin, &batch_request(b)))
        .collect();
    for (i, w) in warmup.iter().enumerate() {
        report.check(w.is_ok(), || format!("warmup batch {i}: {w:?}"));
    }
    for (i, raw) in reads.iter().enumerate() {
        let r = serving::send(server.addr(), raw);
        report.check(matches!(&r, Ok(r) if r.status == 200), || {
            format!("warmup read {i} failed")
        });
    }
    Setup {
        server,
        reads,
        stream,
        warmup,
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let work = crate::work_dir("live-platform");
    let batches = (BATCH_RATE * args.seconds).round().max(1.0) as usize;
    let mut k = 0;
    let (
        (
            Setup {
                mut server,
                reads,
                stream,
                warmup,
            },
            journal,
        ),
        setup_s,
    ) = crate::timed_setups(SETUPS, || {
        k += 1;
        let journal = work.join(format!("deltas-{k}.journal"));
        (setup(&mut report, args, &journal, batches), journal)
    });
    let (addr, admin) = (server.addr(), server.admin_addr().expect("admin surface"));
    let batch_raws: Vec<Vec<u8>> = stream[WARMUP_BATCHES..]
        .iter()
        .map(|b| batch_request(b))
        .collect();
    let mut order: Vec<usize> = (0..reads.len()).collect();
    Rng::new(args.seed ^ 0x0DE5).shuffle(&mut order);

    let queue_before = serving::queue_wait_snapshot();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (samples, fed): (Vec<Sample>, Vec<Fed>) = std::thread::scope(|s| {
        let reader = s.spawn(|| serving::closed_loop(addr, &reads, &order, &stop));
        let fed = feed(admin, &batch_raws, started);
        stop.store(true, Ordering::Relaxed);
        (reader.join().expect("reader thread"), fed)
    });
    let window_s = secs(started);
    let queue_after = serving::queue_wait_snapshot();
    let rss = crate::peak_rss_mb();
    final_audit(&mut report, admin);
    server.shutdown();
    check_journal(&mut report, "the daemon's", &journal, &stream);

    let ctx = ServerContext::new(serving::load_registry(), DEADLINE_S);
    let refs = serving::reference_hashes(&ctx, &reads);
    serving::verify(&mut report, &samples, &refs);
    for (k, f) in fed.iter().enumerate() {
        report.check(f.outcome.is_ok(), || {
            format!("delta batch {k}: {:?}", f.outcome)
        });
    }

    let ok_reads: Vec<f64> = samples
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| s.ms)
        .collect();
    let delta_ms: Vec<f64> = fed
        .iter()
        .filter(|f| f.outcome.is_ok())
        .map(|f| f.ms)
        .collect();
    let late_ms: Vec<f64> = fed.iter().map(|f| f.late_ms).collect();
    let dirtied: Vec<u64> = fed
        .iter()
        .filter_map(|f| f.outcome.as_ref().ok().map(|o| o.0))
        .collect();
    let dirty_share = dirtied.iter().filter(|&&d| d > 0).count() as f64 / fed.len() as f64;
    let rps = ok_reads.len() as f64 / window_s;
    let (d50, d95, d99) = (
        median(&delta_ms),
        percentile(&delta_ms, 0.95),
        percentile(&delta_ms, 0.99),
    );
    report.metric("ops_per_s", rps);
    report.metric("p50_ms", d50);
    report.metric("p95_ms", d95);
    report.metric("setup_s", median(&setup_s));
    report.metric("peak_rss_mb", rss);
    report.figure("spec_rps", rps, "1/s");
    report.figure("spec_p50_ms", median(&ok_reads), "ms");
    report.figure("spec_p99_ms", percentile(&ok_reads, 0.99), "ms");
    report.figure("spec_samples", ok_reads.len() as f64, "count");
    report.figure("delta_p50_ms", d50, "ms");
    report.figure("delta_p95_ms", d95, "ms");
    report.figure("delta_p99_ms", d99, "ms");
    report.figure("delta_batches", fed.len() as f64, "count");
    report.figure("delta_lateness_p50_ms", median(&late_ms), "ms");
    report.figure("delta_lateness_max_ms", percentile(&late_ms, 1.0), "ms");
    report.figure("push.dirty_share", dirty_share, "share");
    report.figure("setup_s", median(&setup_s), "s");
    report.figure("peak_rss_mb", rss, "MiB");

    if args.trace {
        report.metric("push.dirty_share", dirty_share);
        report.metric("delta.lateness_p50_ms", median(&late_ms));
        report.metric("delta.lateness_max_ms", percentile(&late_ms, 1.0));
        report.metric(
            "serve.queue_wait_ms",
            serving::queue_wait_mean_ms(queue_before, queue_after),
        );
        let client = serving::per_body_median_ms(&samples, reads.len());
        let st = serving::trace_requests(&mut report, &ctx, &reads, TRACED_PASSES, |tr, req| {
            let body = serving::traced_parse(tr, req);
            let c = body.get("characteristics").expect("a characteristics body");
            serving::traced_generate_and_render(tr, &ctx, &stats_from_characteristics(c));
        });
        serving::report_serving(&mut report, &st, &reads, &client, RESIDUAL_BAND);
        crate::write_trace(args, "reads", &st.tr.to_tsv());
        let served: Vec<Result<(u64, u64), String>> = warmup
            .into_iter()
            .chain(fed.into_iter().map(|f| f.outcome))
            .collect();
        traced_deltas(&mut report, args, &work, &stream, &served);
    }
    let _ = std::fs::remove_dir_all(&work);
    report
}

/// The `characteristics` → stats step of the `/spec` handler (height
/// and width derived from size and parallelism, `τ = n^α`).
fn stats_from_characteristics(c: &Json) -> DagStats {
    let f = |k: &str| {
        c.get(k)
            .and_then(Json::as_f64)
            .expect("a generated characteristic")
    };
    let (size, parallelism) = (f("size"), f("parallelism"));
    let tau = size.powf(parallelism.clamp(0.0, 1.0)).max(1.0);
    DagStats {
        size: size as usize,
        height: (size / tau).round().max(1.0) as u32,
        tasks_per_level: tau,
        width: tau.ceil() as u32,
        ccr: f("ccr"),
        parallelism,
        density: f("density"),
        regularity: f("regularity"),
        mean_comp: f("mean_comp"),
    }
}

/// Passes over every distinct read in the traced run.
const TRACED_PASSES: usize = 4;

/// The expected share of `handlers::handle` left to the handler itself
/// beside the re-executed read stages: the summary, the knee-ladder
/// JSON, the answer assembly and `meta`, about a quarter of a
/// characteristics read.
const RESIDUAL_BAND: (f64, f64) = (0.1, 0.45);

/// Checks that a delta journal holds exactly the records of `stream`,
/// in order and undamaged, read back through `DeltaJournal::read_records`.
fn check_journal(report: &mut Report, whose: &str, path: &Path, stream: &[Vec<DeltaRecord>]) {
    let key = |r: &DeltaRecord| (r.seq, r.delta.to_tsv());
    let want: Vec<_> = stream.iter().flatten().map(key).collect();
    let read = DeltaJournal::read_records(path).map_err(|e| e.to_string());
    let outcome = read.and_then(|(_, records, damaged)| {
        let got: Vec<_> = records.iter().map(key).collect();
        if damaged > 0 {
            Err(format!("{damaged} damaged lines"))
        } else if got != want {
            Err(format!(
                "{} records where {} were journaled",
                got.len(),
                want.len()
            ))
        } else {
            Ok(())
        }
    });
    report.check(outcome.is_ok(), || {
        format!("{whose} delta journal: {outcome:?}")
    });
}

/// Replays the whole delta stream through the calls the daemon's push
/// tracker makes — `lint_delta_batch`, `PushEngine::submit_batch`,
/// `DeltaJournal::append_batch`, and the audit cadence — on an engine
/// built like the tracker's. Each batch must dirty and recompute exactly
/// what the daemon reported for it, and the journal must read back as
/// the stream. Returns the `rsg-obs` counters the replay recorded.
fn replay_deltas(
    report: &mut Report,
    tr: &mut Tracer,
    journal_path: &Path,
    stream: &[Vec<DeltaRecord>],
    served: &[Result<(u64, u64), String>],
) -> BTreeMap<String, u64> {
    let mut engine = PushEngine::new(
        ObservationGrid::tiny(),
        CurveConfig::default(),
        THRESHOLD_LADDER.to_vec(),
        0,
        serving::daemon_platform(),
        CostModel::default(),
    );
    let _ = std::fs::remove_file(journal_path);
    let journal = DeltaJournal::open(journal_path, engine.fingerprint())
        .expect("open the traced delta journal");
    let before = crate::obs_counters();
    let mut recomputed = 0u64;
    for (k, batch) in stream.iter().enumerate() {
        tr.set_request(k as u64);
        let outcome = tr.span("delta", |tr| {
            let diags = tr.span("analyze.delta_lint", |_| {
                lint_delta_batch(
                    batch,
                    engine.platform(),
                    engine.staleness().applied_seq,
                    "/admin/platform",
                )
            });
            if !diags.is_empty() {
                return Err(format!("{} lint diagnostics", diags.len()));
            }
            let out = tr
                .span("core.push.submit", |_| engine.submit_batch(batch))
                .map_err(|e| e.to_string())?;
            tr.span("core.store.journal_append", |_| journal.append_batch(batch))
                .map_err(|e| e.to_string())?;
            if (k as u64 + 1).is_multiple_of(AUDIT_EVERY) {
                tr.span("core.push.audit", |_| {
                    engine.audit(rsg_serve::push::AUDIT_SAMPLE, k as u64 + 1)
                });
            }
            Ok((out.dirtied as u64, out.recomputed as u64))
        });
        if let Ok((_, r)) = outcome {
            recomputed += r;
        }
        let same = match (&outcome, served.get(k)) {
            (Ok(a), Some(Ok(b))) => a == b,
            _ => false,
        };
        report.check(same, || {
            format!(
                "delta batch {k}: traced {outcome:?}, daemon {:?}",
                served.get(k)
            )
        });
    }
    let mut counters = crate::counter_delta(&before, &crate::obs_counters());
    counters.insert("push.cells_recomputed".into(), recomputed);
    drop(journal);
    check_journal(report, "the replayed", journal_path, stream);
    counters
}

/// The traced delta path: the stream replayed twice on fresh engines,
/// the first time under spans. The two replays' work counters must
/// match.
fn traced_deltas(
    report: &mut Report,
    args: &Args,
    work: &Path,
    stream: &[Vec<DeltaRecord>],
    served: &[Result<(u64, u64), String>],
) {
    let mut tr = Tracer::new(true);
    let runs = [
        replay_deltas(
            report,
            &mut tr,
            &work.join("traced.journal"),
            stream,
            served,
        ),
        replay_deltas(
            report,
            &mut Tracer::new(false),
            &work.join("repeat.journal"),
            stream,
            served,
        ),
    ];
    let total = tr.total_ms("delta");
    let unattributed = tr.total_self_ms("delta") / total;
    report.check(unattributed <= crate::UNATTRIBUTED_TOLERANCE, || {
        format!("traced layers leave {unattributed:.3} of the delta path unattributed")
    });
    let prev = report
        .metrics
        .get("trace.unattributed_share")
        .copied()
        .unwrap_or(0.0);
    report.metric("trace.unattributed_share", prev.max(unattributed));
    report.figure("traced_delta_ms", median(&tr.duration_ms("delta")), "ms");
    report.figure("traced_delta_unattributed_share", unattributed, "share");
    let m = |s| serving::layer_median(&tr, s, 1.0);
    report.metric("analyze.delta_lint_ms", m("analyze.delta_lint"));
    report.metric("core.push.submit_ms", m("core.push.submit"));
    report.metric(
        "core.store.journal_append_ms",
        m("core.store.journal_append"),
    );
    crate::record_counters(
        report,
        &runs,
        &[
            "push.cells_recomputed",
            "sched.placements",
            "sched.schedules_evaluated",
            "sched.placement.fast_kernel",
            "sched.kernel.scratch_builds",
            "sched.kernel.scratch_hits",
            "core.sweep.ladder_evals",
            "core.sweep.refine_evals",
            "core.sweep.memo_hits",
        ],
    );
    crate::write_trace(args, "deltas", &tr.to_tsv());
}
