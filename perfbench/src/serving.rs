//! Pieces shared by the two serving workloads: the model set, the
//! socket client and its closed loop, the `/spec` oracle and the
//! traced in-process request.

use crate::trace::Tracer;
use crate::{median, Report};
use rsg_core::specgen::{GeneratorConfig, ResourceSpec, SpecGenerator};
use rsg_dag::DagStats;
use rsg_obs::json::{escape, Json};
use rsg_platform::{Platform, ResourceGenSpec, TopologySpec};
use rsg_serve::handlers::{handle, ServerContext};
use rsg_serve::http::{read_request, write_response, HttpRequest, HttpResponse};
use rsg_serve::{Deadline, ModelRegistry, ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The server's default per-request budget (`ServeConfig::default()`),
/// also used for the in-process reference and traced requests.
pub const DEADLINE_S: f64 = 30.0;

/// Largest request body the server accepts (`ServeConfig::default()`).
pub const MAX_BODY: usize = 1 << 20;

/// The shipped model tree the daemon serves from.
pub fn load_registry() -> ModelRegistry {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../models");
    ModelRegistry::load(std::path::Path::new(dir)).expect("load the shipped models/ tree")
}

/// The deterministic 40-cluster platform the daemon both negotiates
/// against and tracks with its push engine.
pub fn daemon_platform() -> Platform {
    Platform::generate(
        ResourceGenSpec {
            clusters: 40,
            year: 2006,
            target_hosts: Some(1200),
        },
        TopologySpec::default(),
        11,
    )
}

/// Boots the daemon the serving workloads drive: 2 workers on an
/// ephemeral loopback port, optionally with the admin surface and a
/// delta journal.
pub fn boot(admin: bool, delta_journal: Option<std::path::PathBuf>) -> Server {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        admin_addr: admin.then(|| "127.0.0.1:0".to_string()),
        workers: 2,
        delta_journal,
        ..ServeConfig::default()
    };
    Server::spawn(&cfg, load_registry()).expect("boot the server")
}

/// The raw bytes of one `POST` request.
pub fn raw_post(path: &str, body: &str) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body.as_bytes());
    raw
}

/// One response as the client saw it.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// Sends one request on a fresh connection and reads the whole
/// response (the server closes every connection after answering).
pub fn send(addr: SocketAddr, raw: &[u8]) -> Result<Reply, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set timeout: {e}"))?;
    s.write_all(raw).map_err(|e| format!("send: {e}"))?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(buf).map_err(|_| "response is not UTF-8".to_string())?;
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| {
            format!(
                "no status line in {:?}",
                text.chars().take(60).collect::<String>()
            )
        })?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply { status, body })
}

/// The part of a `/spec` answer that must not depend on when or where
/// it was computed: everything before `"meta"` (which carries elapsed
/// time, deadline and staleness).
pub fn answer_prefix(body: &str) -> &str {
    body.find(", \"meta\": ").map_or(body, |i| &body[..i])
}

pub fn prefix_hash(body: &str) -> u64 {
    rsg_core::store::fnv1a(answer_prefix(body).as_bytes())
}

/// One timed request of a closed loop.
pub struct Sample {
    /// Index of the request body sent.
    pub idx: usize,
    /// Connect to fully-read response, milliseconds.
    pub ms: f64,
    /// `Ok(hash of the answer prefix)` for a 200, else why it failed.
    pub outcome: Result<u64, String>,
}

/// One closed-loop client: sends `raws[order[k % len]]` for k = 0, 1, …
/// until `stop` is set, each request only after the previous answer.
pub fn closed_loop(
    addr: SocketAddr,
    raws: &[Vec<u8>],
    order: &[usize],
    stop: &AtomicBool,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let idx = order[k % order.len()];
        k += 1;
        let started = Instant::now();
        let reply = send(addr, &raws[idx]);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let outcome = match reply {
            Ok(r) if r.status == 200 => Ok(prefix_hash(&r.body)),
            Ok(r) => Err(format!(
                "status {}: {}",
                r.status,
                r.body.chars().take(200).collect::<String>()
            )),
            Err(e) => Err(e),
        };
        out.push(Sample { idx, ms, outcome });
    }
    out
}

/// The oracle: the answer prefix of every distinct request, computed
/// in process by `handlers::handle` over the same models. `None` when
/// the reference itself is not a 200.
pub fn reference_hashes(ctx: &ServerContext, raws: &[Vec<u8>]) -> Vec<Option<u64>> {
    raws.iter()
        .map(|raw| {
            let req = read_request(&mut &raw[..], MAX_BODY).expect("a generated request parses");
            let resp = handle(ctx, &req, &Deadline::start(DEADLINE_S));
            (resp.status == 200).then(|| prefix_hash(&resp.body))
        })
        .collect()
}

/// Counts every sample as one attempted operation, failed when it was
/// not a 200 or its answer differs from the in-process reference.
pub fn verify(report: &mut Report, samples: &[Sample], refs: &[Option<u64>]) {
    for s in samples {
        match (&s.outcome, refs[s.idx]) {
            (Ok(h), Some(r)) if *h == r => report.check(true, String::new),
            (Ok(_), Some(_)) => report.check(false, || {
                format!(
                    "request {}: answer differs from the in-process reference",
                    s.idx
                )
            }),
            (Ok(_), None) => report.check(false, || {
                format!("request {}: the in-process reference is not a 200", s.idx)
            }),
            (Err(e), _) => report.check(false, || format!("request {}: {e}", s.idx)),
        }
    }
}

/// Per-body median client latency over the successful samples.
pub fn per_body_median_ms(samples: &[Sample], bodies: usize) -> Vec<Option<f64>> {
    let mut by: Vec<Vec<f64>> = vec![Vec::new(); bodies];
    for s in samples.iter().filter(|s| s.outcome.is_ok()) {
        by[s.idx].push(s.ms);
    }
    by.iter()
        .map(|v| (!v.is_empty()).then(|| median(v)))
        .collect()
}

/// `(count, total ns)` of the server's `serve.latency.queue_wait`
/// histogram so far.
pub fn queue_wait_snapshot() -> (u64, u64) {
    rsg_obs::RunReport::capture()
        .histogram("serve.latency.queue_wait")
        .map_or((0, 0), |h| (h.count, h.sum_ns))
}

/// Mean queue wait between two snapshots, milliseconds.
pub fn queue_wait_mean_ms(before: (u64, u64), after: (u64, u64)) -> f64 {
    let n = after.0 - before.0;
    if n == 0 {
        0.0
    } else {
        (after.1 - before.1) as f64 / n as f64 / 1e6
    }
}

/// One request through the public serving calls under spans:
/// `http::read_request` on the request bytes, `handlers::handle`, and
/// `http::write_response` into a buffer. Returns the parsed request, the
/// response and the response size.
pub fn traced_request(
    tr: &mut Tracer,
    ctx: &ServerContext,
    raw: &[u8],
) -> (HttpRequest, HttpResponse, usize) {
    tr.span("request", |tr| {
        let req = tr
            .span("serve.http.read", |_| read_request(&mut &raw[..], MAX_BODY))
            .expect("a generated request parses");
        let deadline = Deadline::start(DEADLINE_S);
        let resp = tr.span("serve.handle", |_| handle(ctx, &req, &deadline));
        let mut out = Vec::with_capacity(resp.body.len() + 256);
        tr.span("serve.http.write", |_| write_response(&mut out, &resp))
            .expect("writing into a buffer cannot fail");
        (req, resp, out.len())
    })
}

/// Spec generation and rendering as the `/spec` handler does them: the
/// knee-ladder predictions, the spec itself, and the three renderings
/// escaped into the answer.
pub fn traced_generate_and_render(
    tr: &mut Tracer,
    ctx: &ServerContext,
    stats: &DagStats,
) -> ResourceSpec {
    let generation = ctx.store().current();
    let spec = tr.span("core.specgen.generate", |_| {
        let ladder: Vec<usize> = generation
            .registry
            .size_model
            .models
            .iter()
            .map(|m| m.predict(stats))
            .collect();
        std::hint::black_box(ladder);
        generation
            .generator
            .generate_from_stats(stats, &GeneratorConfig::default())
    });
    tr.span("select.render", |_| {
        let vgdl = SpecGenerator::to_vgdl(&spec).to_string();
        let classad = SpecGenerator::to_classad(&spec).to_string();
        let sword = rsg_select::sword::write_sword(&SpecGenerator::to_sword(&spec));
        std::hint::black_box((escape(&vgdl), escape(&classad), escape(&sword)));
    });
    spec
}

/// Median per-op self time of a layer, in the unit the metric uses.
pub fn layer_median(tr: &Tracer, span: &str, scale: f64) -> f64 {
    crate::median_or_zero(&tr.self_ms(span)) * scale
}

/// Parses a request body the way the handler does, under its span.
pub fn traced_parse(tr: &mut Tracer, req: &HttpRequest) -> Json {
    tr.span("obs.json.parse", |_| Json::parse(&req.body))
        .expect("a generated body is valid JSON")
}

/// Per-key medians, for comparisons per distinct request.
pub fn per_key_median(pairs: impl Iterator<Item = (usize, f64)>) -> BTreeMap<usize, f64> {
    let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (k, v) in pairs {
        by.entry(k).or_default().push(v);
    }
    by.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// The traced run of a serving workload.
pub struct ServingTrace {
    pub tr: Tracer,
    /// `(request index, untraced read + handle + write ms)`.
    untraced: Vec<(usize, f64)>,
    bytes_out: Vec<f64>,
    /// `rsg-obs` counters recorded by the traced `handlers::handle`
    /// calls alone, one map per pass over the requests.
    pub handler_counters: Vec<BTreeMap<String, u64>>,
}

/// `passes` passes over every distinct request. Each request runs once
/// untraced (the same calls under a disabled tracer) and once traced,
/// alternating which goes first; then `stages` re-executes the
/// handler's stages under a `stages` span with the same request id.
pub fn trace_requests(
    report: &mut Report,
    ctx: &ServerContext,
    raws: &[Vec<u8>],
    passes: usize,
    mut stages: impl FnMut(&mut Tracer, &HttpRequest),
) -> ServingTrace {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut untraced = Vec::new();
    let mut bytes_out = Vec::new();
    let mut handler_counters = Vec::with_capacity(passes);
    for pass in 0..passes {
        let mut counters = BTreeMap::new();
        for (i, raw) in raws.iter().enumerate() {
            let mut baseline = || {
                let started = Instant::now();
                traced_request(&mut off, ctx, raw);
                untraced.push((i, crate::secs(started) * 1e3));
            };
            let untraced_first = (pass + i) % 2 == 0;
            if untraced_first {
                baseline();
            }
            tr.set_request((pass * raws.len() + i) as u64);
            let before = crate::obs_counters();
            let (req, resp, n) = traced_request(&mut tr, ctx, raw);
            for (k, v) in crate::counter_delta(&before, &crate::obs_counters()) {
                *counters.entry(k).or_insert(0) += v;
            }
            report.check(resp.status == 200, || {
                format!("traced request {i}: {}", resp.status)
            });
            bytes_out.push(n as f64);
            if !untraced_first {
                baseline();
            }
            tr.span("stages", |tr| stages(tr, &req));
        }
        handler_counters.push(counters);
    }
    ServingTrace {
        tr,
        untraced,
        bytes_out,
        handler_counters,
    }
}

/// Reports the per-layer metrics every serving workload has, and checks
/// that the layers add up.
///
/// The handler residual is the share of the `handlers::handle` total
/// that the re-executed stages do not cover: the handler's own routing
/// and answer assembly (`serve.handlers.self_ms`). It must stay inside
/// `residual_band`, the range the workload expects. A stage copy that
/// drifts from the handler moves it out, in either direction: work the
/// handler does and the copy does not raises it, work only the copy
/// does lowers it.
///
/// The unattributed share is the request spans' own self time plus any
/// excess of the stages over the handler, over the traced end-to-end
/// time; it must stay within [`crate::UNATTRIBUTED_TOLERANCE`].
pub fn report_serving(
    report: &mut Report,
    st: &ServingTrace,
    raws: &[Vec<u8>],
    client_ms: &[Option<f64>],
    residual_band: (f64, f64),
) {
    let tr = &st.tr;
    let n = raws.len() as u64;
    let request = tr.per_request_ms("request");
    let handle = tr.per_request_ms("serve.handle");
    let stages = tr.per_request_ms("stages");
    let traced_by = per_key_median(request.iter().map(|(&r, &ms)| ((r % n) as usize, ms)));
    let base_by = per_key_median(st.untraced.iter().copied());
    let overhead: Vec<f64> = traced_by.iter().map(|(i, t)| t - base_by[i]).collect();
    let own: Vec<f64> = handle
        .iter()
        .map(|(r, h)| h - stages.get(r).copied().unwrap_or(0.0))
        .collect();
    let total: f64 = request.values().sum();
    let handle_total: f64 = handle.values().sum();
    let residual = handle_total - stages.values().sum::<f64>();
    let residual_share = residual / handle_total;
    let (lo, hi) = residual_band;
    report.check((lo..=hi).contains(&residual_share), || {
        format!(
            "the re-executed stages leave {residual_share:.3} of handlers::handle \
             uncovered, outside the expected {lo}..{hi}"
        )
    });
    let unattributed = (tr.total_self_ms("request") + (-residual).max(0.0)) / total;
    report.check(unattributed <= crate::UNATTRIBUTED_TOLERANCE, || {
        format!("traced layers leave {unattributed:.3} of the request unattributed")
    });
    report.figure("handler_residual_share", residual_share, "share");
    let diffs: Vec<f64> = traced_by
        .iter()
        .filter_map(|(&i, &t)| client_ms.get(i).copied().flatten().map(|c| c - t))
        .collect();
    let bytes_in: Vec<f64> = raws.iter().map(|r| r.len() as f64).collect();
    let request_ms: Vec<f64> = request.values().copied().collect();
    let m = |s| layer_median(tr, s, 1.0);
    // Transport: per distinct request, the untraced client round trip
    // minus the traced in-process read + handle + write.
    report.metric("serve.transport_ms", crate::median_or_zero(&diffs));
    report.metric("serve.http.read_ms", m("serve.http.read"));
    report.metric("serve.http.write_ms", m("serve.http.write"));
    report.metric("serve.http.bytes_in", median(&bytes_in));
    report.metric("serve.http.bytes_out", median(&st.bytes_out));
    report.metric("serve.handle_ms", m("serve.handle"));
    report.metric("serve.handlers.self_ms", median(&own));
    report.metric("obs.json.parse_ms", m("obs.json.parse"));
    report.metric(
        "core.specgen.generate_us",
        layer_median(tr, "core.specgen.generate", 1e3),
    );
    report.metric("select.render_us", layer_median(tr, "select.render", 1e3));
    report.metric("trace.e2e_ms", median(&request_ms));
    report.metric("trace.overhead_ms", crate::median_or_zero(&overhead));
    report.metric("trace.unattributed_share", unattributed);
}
