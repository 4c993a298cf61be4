//! Endpoint handlers: JSON in, JSON out.
//!
//! Every request is linted **before** it is served: a submitted DAG
//! runs through `rsg-analyze` first, and error-level diagnostics come
//! back as structured 4xx bodies (parse failures as 400, semantic
//! defects as 422) instead of a spec generated from garbage. The happy
//! path then runs the exact same code the CLI runs —
//! [`SpecGenerator`] over the registry's models — which is what makes
//! a served `/spec` response byte-identical to `rsg spec` output for
//! the same input and models.
//!
//! Every model-endpoint request clones one `Arc<`[`Generation`]`>` at
//! dispatch and answers entirely from it, so a hot reload landing
//! mid-request can never mix two model sets in one response. The
//! lifecycle trio — [`ModelStore`], [`Lifecycle`], [`ShedState`] —
//! hangs off the shared [`ServerContext`]; `/readyz` and `/metrics`
//! report it, and the shed gate consults it after routing but before
//! any model work.

use crate::deadline::Deadline;
use crate::http::{HttpRequest, HttpResponse};
use crate::lifecycle::Lifecycle;
use crate::push::{PushTracker, SubmitError, SubmitOutcome};
use crate::registry::{Generation, ModelRegistry, ModelStore, ReloadOutcome};
use crate::shed::{ShedLevel, ShedState, SHED_DEGRADED, SHED_EARLY};
use rsg_analyze::{DeltaDiagnostic, Diagnostic, Input};
use rsg_core::alternative::{alternatives, attempt_from_outcome, negotiate_with_retry};
use rsg_core::curve::CurveConfig;
use rsg_core::heurmodel::HeuristicPredictionModel;
use rsg_core::push::{DeltaRecord, Staleness};
use rsg_core::specgen::{GeneratorConfig, SpecGenerator};
use rsg_core::RetryPolicy;
use rsg_dag::io::read_dag;
use rsg_dag::{Dag, DagStats};
use rsg_obs::json::{escape, num, Json};
use rsg_obs::{Counter, RunReport, TimingHistogram};
use rsg_platform::delta::PlatformDelta;
use rsg_platform::{Platform, ResourceGenSpec, TopologySpec};
use rsg_sched::HeuristicKind;
use rsg_select::{FlakyConfig, FlakySelector, VgesFinder};
use std::sync::OnceLock;

static REQ_SPEC: Counter = Counter::new("serve.requests.spec");
static REQ_PREDICT: Counter = Counter::new("serve.requests.predict");
static REQ_LINT: Counter = Counter::new("serve.requests.lint");
static REQ_HEALTHZ: Counter = Counter::new("serve.requests.healthz");
static REQ_READYZ: Counter = Counter::new("serve.requests.readyz");
static REQ_METRICS: Counter = Counter::new("serve.requests.metrics");
static REQ_ADMIN: Counter = Counter::new("serve.requests.admin");
static LINT_REJECTED: Counter = Counter::new("serve.lint.rejected");
static DEADLINE_EXPIRED: Counter = Counter::new("serve.deadline.expired");
static HANDLER_LATENCY: TimingHistogram = TimingHistogram::new("serve.latency.handler");

/// Default brownout threshold: smoothed queue wait, seconds.
pub const DEFAULT_BROWNOUT_AT_S: f64 = 0.5;
/// Default shed threshold: smoothed queue wait, seconds.
pub const DEFAULT_SHED_AT_S: f64 = 2.0;

/// Shared per-process serving state: the generation-stamped model
/// store, the admission lifecycle, the shed state, and the lazily
/// built negotiation platform. One `Arc` of this hangs off every
/// worker; the models themselves rotate inside the store.
pub struct ServerContext {
    store: ModelStore,
    lifecycle: Lifecycle,
    shed: ShedState,
    default_deadline_s: f64,
    platform: OnceLock<Platform>,
    /// Live platform tracker, built on first `/admin/platform` batch
    /// (the initial sweep is paid once, and only by deployments that
    /// actually stream deltas). `Err` pins the boot failure so every
    /// later batch reports it instead of retrying a broken journal.
    push: OnceLock<Result<PushTracker, String>>,
    max_staleness_s: Option<f64>,
    delta_journal: Option<std::path::PathBuf>,
}

impl ServerContext {
    /// Builds the context with the default shed thresholds; the boot
    /// registry becomes generation 1.
    pub fn new(registry: ModelRegistry, default_deadline_s: f64) -> ServerContext {
        ServerContext::with_shedding(
            registry,
            default_deadline_s,
            DEFAULT_BROWNOUT_AT_S,
            DEFAULT_SHED_AT_S,
        )
    }

    /// Builds the context with explicit brownout/shed queue-wait
    /// thresholds (seconds; `0` disables that level).
    pub fn with_shedding(
        registry: ModelRegistry,
        default_deadline_s: f64,
        brownout_at_s: f64,
        shed_at_s: f64,
    ) -> ServerContext {
        ServerContext {
            store: ModelStore::new(registry),
            lifecycle: Lifecycle::new(),
            shed: ShedState::new(brownout_at_s, shed_at_s),
            default_deadline_s,
            platform: OnceLock::new(),
            push: OnceLock::new(),
            max_staleness_s: None,
            delta_journal: None,
        }
    }

    /// Configures live platform tracking: the `/readyz` staleness bound
    /// (`None` disables the 503) and an optional durable delta journal.
    /// Call before the context is shared; the tracker itself is still
    /// built lazily on the first delta batch.
    pub fn configure_push(
        &mut self,
        max_staleness_s: Option<f64>,
        delta_journal: Option<std::path::PathBuf>,
    ) {
        self.max_staleness_s = max_staleness_s;
        self.delta_journal = delta_journal;
    }

    /// The staleness bound `/readyz` enforces, when configured.
    pub fn max_staleness_s(&self) -> Option<f64> {
        self.max_staleness_s
    }

    /// The live platform tracker, built (and its journal replayed) on
    /// first use. A boot failure is sticky and structured, never a
    /// panic.
    fn tracker(&self) -> Result<&PushTracker, &str> {
        self.push
            .get_or_init(|| PushTracker::new(self.delta_journal.clone()).map_err(|e| e.to_string()))
            .as_ref()
            .map_err(String::as_str)
    }

    /// Current staleness stamp and wall-clock age, if the tracker has
    /// been built. `None` means no delta has ever arrived: answers are
    /// definitionally fresh.
    pub fn push_staleness(&self) -> Option<(Staleness, f64)> {
        match self.push.get() {
            Some(Ok(t)) => Some(t.staleness()),
            _ => None,
        }
    }

    /// The per-request wall-clock budget used when a request body does
    /// not carry its own `deadline_s`.
    pub fn default_deadline_s(&self) -> f64 {
        self.default_deadline_s
    }

    /// The generation-stamped model store answering this process's
    /// requests.
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// Admission lifecycle (running/draining plus pending count).
    pub fn lifecycle(&self) -> &Lifecycle {
        &self.lifecycle
    }

    /// Adaptive shed state fed by the worker loop.
    pub fn shed(&self) -> &ShedState {
        &self.shed
    }

    /// The deterministic 2006-era platform the negotiation path binds
    /// against (the same one `rsg spec --negotiate` and `rsg lint
    /// --platform` use). Built on first use, then cached hot.
    fn platform(&self) -> &Platform {
        self.platform.get_or_init(|| {
            Platform::generate(
                ResourceGenSpec {
                    clusters: 40,
                    year: 2006,
                    target_hosts: Some(1200),
                },
                TopologySpec::default(),
                11,
            )
        })
    }
}

/// Routes one parsed request to its handler. `accepted` is the
/// deadline stamped when the connection was accepted; POST bodies may
/// narrow (or widen) its budget via `deadline_s`.
pub fn handle(ctx: &ServerContext, req: &HttpRequest, accepted: &Deadline) -> HttpResponse {
    let started = Deadline::start(f64::INFINITY);
    let resp = route(ctx, req, accepted);
    HANDLER_LATENCY.record_secs(started.elapsed_s());
    resp
}

fn route(ctx: &ServerContext, req: &HttpRequest, accepted: &Deadline) -> HttpResponse {
    // `req.path` carries the query string verbatim; no endpoint takes
    // query parameters, but probes like `GET /healthz?probe=1` are
    // routine from load balancers, so match on the path alone.
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            REQ_HEALTHZ.incr();
            healthz(ctx)
        }
        ("GET", "/readyz") => {
            REQ_READYZ.incr();
            readyz(ctx)
        }
        ("GET", "/metrics") => {
            REQ_METRICS.incr();
            metrics(ctx)
        }
        ("POST", "/spec") => {
            REQ_SPEC.incr();
            shed_gate(ctx).unwrap_or_else(|| with_deadline(ctx, req, accepted, spec_endpoint))
        }
        ("POST", "/predict") => {
            REQ_PREDICT.incr();
            shed_gate(ctx).unwrap_or_else(|| with_deadline(ctx, req, accepted, predict_endpoint))
        }
        ("POST", "/lint") => {
            REQ_LINT.incr();
            shed_gate(ctx).unwrap_or_else(|| with_deadline(ctx, req, accepted, lint_endpoint))
        }
        // Test-only route for exercising worker panic isolation over a
        // real socket; compiled out of release builds.
        #[cfg(test)]
        ("POST", "/__test/panic") => panic!("test-injected handler panic"),
        (_, "/healthz" | "/readyz" | "/metrics") => {
            error(405, "method", "use GET for this endpoint", &[])
        }
        (_, "/spec" | "/predict" | "/lint") => error(
            405,
            "method",
            "use POST with a JSON body for this endpoint",
            &[],
        ),
        (_, path) => error(404, "not-found", &format!("no such endpoint: {path}"), &[]),
    }
}

/// The shed gate for model endpoints: under [`ShedLevel::Shed`] the
/// request is refused before any parsing or model work, with a
/// `Retry-After` from the observed drain rate. Probes never pass
/// through here, so an overloaded process stays observable.
fn shed_gate(ctx: &ServerContext) -> Option<HttpResponse> {
    if ctx.shed.level() == ShedLevel::Shed {
        SHED_EARLY.incr();
        Some(shed_response(ctx))
    } else {
        None
    }
}

/// Whether model endpoints should run degraded (extras disabled)
/// right now, counting the request once when they should.
fn browned_out(ctx: &ServerContext) -> bool {
    if ctx.shed.level() >= ShedLevel::Brownout {
        SHED_DEGRADED.incr();
        true
    } else {
        false
    }
}

/// Parses the JSON body, applies the request's own `deadline_s` (still
/// measured from accept), answers 504 when the budget is already
/// spent, and otherwise dispatches.
fn with_deadline(
    ctx: &ServerContext,
    req: &HttpRequest,
    accepted: &Deadline,
    f: impl FnOnce(&ServerContext, &Json, &Deadline) -> HttpResponse,
) -> HttpResponse {
    let body = match Json::parse(&req.body) {
        Ok(v @ Json::Obj(_)) => v,
        Ok(_) => return error(400, "usage", "request body must be a JSON object", &[]),
        Err(e) => {
            return error(
                400,
                "usage",
                &format!("request body is not valid JSON: {e}"),
                &[],
            )
        }
    };
    let deadline = match body.get("deadline_s").and_then(Json::as_f64) {
        Some(s) => accepted.with_budget(s),
        None => *accepted,
    };
    if deadline.expired() {
        DEADLINE_EXPIRED.incr();
        let mut resp = error(
            504,
            "deadline",
            &format!(
                "request deadline of {:.3} s expired after {:.3} s (queue wait included)",
                deadline.budget_s(),
                deadline.elapsed_s()
            ),
            &[],
        );
        resp.retry_after_s = Some(1);
        return resp;
    }
    f(ctx, &body, &deadline)
}

// ---------------------------------------------------------------- spec

fn spec_endpoint(ctx: &ServerContext, body: &Json, deadline: &Deadline) -> HttpResponse {
    let generation = ctx.store.current();
    let degraded = browned_out(ctx);
    let (stats, dag) = match request_stats(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    // Heuristic override mirrors `rsg spec --heuristic NAME`.
    let spec = match body.get("heuristic").and_then(Json::as_str) {
        Some(name) => {
            let Some(h) = HeuristicKind::parse(name) else {
                return error(
                    400,
                    "usage",
                    &format!("unknown heuristic '{name}' (MCP|DLS|FCA|FCFS|Greedy)"),
                    &[],
                );
            };
            let generator = SpecGenerator::new(
                generation.registry.size_model.clone(),
                HeuristicPredictionModel::fixed(h),
            );
            generator.generate_from_stats(&stats, &generator_config(body))
        }
        None => generation
            .generator
            .generate_from_stats(&stats, &generator_config(body)),
    };

    let vgdl = SpecGenerator::to_vgdl(&spec);
    let classad = SpecGenerator::to_classad(&spec);
    let sword = rsg_select::sword::write_sword(&SpecGenerator::to_sword(&spec));
    // This summary string is byte-identical to the first line `rsg
    // spec` prints — the e2e test depends on that.
    let summary = format!(
        "RC size {} (min {}), clocks {:.0}..{:.0} MHz, heuristic {}, threshold {:.1}%",
        spec.rc_size,
        spec.min_size,
        spec.clock_mhz.0,
        spec.clock_mhz.1,
        spec.heuristic,
        spec.threshold * 100.0
    );

    let negotiation = match (body.get("negotiate"), &dag) {
        (Some(Json::Bool(true)), Some(dag)) => {
            match negotiate(ctx, &spec, dag, body, deadline, degraded) {
                Ok(n) => Some(n),
                Err(resp) => return resp,
            }
        }
        (Some(Json::Bool(true)), None) => {
            return error(
                400,
                "usage",
                "negotiation needs a full 'dag' (alternatives are grounded on the DAG)",
                &[],
            )
        }
        _ => None,
    };

    let mut out = String::from("{");
    out.push_str(&format!("\"summary\": {}", escape(&summary)));
    out.push_str(&format!(
        ", \"heuristic\": {}",
        escape(spec.heuristic.name())
    ));
    out.push_str(&format!(", \"rc_size\": {}", spec.rc_size));
    out.push_str(&format!(", \"min_size\": {}", spec.min_size));
    out.push_str(&format!(", \"threshold\": {}", num(spec.threshold)));
    out.push_str(&format!(
        ", \"clock_mhz\": [{}, {}]",
        num(spec.clock_mhz.0),
        num(spec.clock_mhz.1)
    ));
    out.push_str(&format!(", \"memory_mb\": {}", spec.memory_mb));
    out.push_str(&format!(
        ", \"aggregate\": {}",
        escape(&format!("{:?}", spec.aggregate))
    ));
    out.push_str(&format!(
        ", \"knee_ladder\": {}",
        knee_ladder(&generation, &stats)
    ));
    out.push_str(&format!(
        ", \"over_provision\": {{\"width\": {}, \"rc_over_min\": {}}}",
        stats.width,
        num(f64::from(spec.rc_size) / f64::from(spec.min_size.max(1)))
    ));
    out.push_str(&format!(
        ", \"renderings\": {{\"vgdl\": {}, \"classad\": {}, \"sword\": {}}}",
        escape(&vgdl.to_string()),
        escape(&classad.to_string()),
        escape(&sword)
    ));
    if let Some(n) = negotiation {
        out.push_str(&format!(", \"negotiation\": {n}"));
    }
    push_meta_and_report(ctx, &mut out, body, deadline, &generation, degraded);
    out.push('}');
    HttpResponse::json(200, out)
}

/// The generator knobs a request body may set; the defaults are the
/// CLI's defaults, so an empty body reproduces `rsg spec` exactly.
fn generator_config(body: &Json) -> GeneratorConfig {
    let mut cfg = GeneratorConfig {
        target_clock_mhz: body
            .get("clock_mhz")
            .and_then(Json::as_f64)
            .unwrap_or(3500.0),
        heterogeneity_tolerance: body
            .get("heterogeneity")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        ..Default::default()
    };
    if let Some(m) = body.get("memory_mb").and_then(Json::as_f64) {
        if m >= 1.0 && m.is_finite() {
            cfg.memory_mb = m as u32;
        }
    }
    cfg
}

/// Per-threshold knee predictions — the `rsg predict` table as JSON.
fn knee_ladder(generation: &Generation, stats: &DagStats) -> String {
    let mut out = String::from("[");
    for (i, m) in generation.registry.size_model.models.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"threshold\": {}, \"rc_size\": {}}}",
            num(m.theta),
            m.predict(stats)
        ));
    }
    out.push(']');
    out
}

/// Binds the generated spec against the vgES finder over the cached
/// platform, walking the degradation ladder with retries. The
/// request's remaining wall budget seeds the negotiator's total
/// simulated-time deadline, so an almost-expired request cannot start
/// an open-ended negotiation. Under brownout the retry ladder
/// collapses to one attempt per rung — the first expense shed.
fn negotiate(
    ctx: &ServerContext,
    spec: &rsg_core::ResourceSpec,
    dag: &Dag,
    body: &Json,
    deadline: &Deadline,
    degraded: bool,
) -> Result<String, HttpResponse> {
    let flaky_cfg = match body.get("flaky") {
        Some(f) => {
            let seed = f.get("seed").and_then(Json::as_f64).unwrap_or(0.0);
            let rate = f.get("rate").and_then(Json::as_f64).unwrap_or(0.0);
            if !(0.0..=1.0).contains(&rate) {
                return Err(error(400, "usage", "flaky.rate must be in [0, 1]", &[]));
            }
            FlakyConfig::from_seed_rate(seed as u64, rate)
        }
        None => FlakyConfig::default(),
    };
    let mut flaky = FlakySelector::new(flaky_cfg)
        .map_err(|e| error(400, "usage", &format!("flaky config: {e}"), &[]))?;
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
    let platform = ctx.platform();
    let mut policy = RetryPolicy {
        total_deadline_s: deadline
            .remaining_s()
            .min(RetryPolicy::default().total_deadline_s),
        ..RetryPolicy::default()
    };
    if degraded {
        policy.max_attempts_per_rung = 1;
    }
    let result = negotiate_with_retry(&ladder, &policy, |s| {
        let vg = SpecGenerator::to_vgdl(s);
        attempt_from_outcome(flaky.select(|| finder.find(platform, &vg)), s.min_size)
    });
    Ok(match result {
        Ok(n) => format!(
            "{{\"bound\": true, \"rung\": {}, \"degradation\": {}, \"hosts\": {}, \
             \"attempts\": {}, \"transient_failures\": {}, \"backoff_total_s\": {}, \
             \"elapsed_s\": {}}}",
            n.rung,
            escape(&format!("{:?}", ladder[n.rung].degradation)),
            n.value.len(),
            n.stats.attempts,
            n.stats.transient_failures,
            num(n.stats.backoff_total_s),
            num(n.stats.elapsed_s)
        ),
        Err(u) => format!(
            "{{\"bound\": false, \"attempts\": {}, \"rungs_visited\": {}, \
             \"transient_failures\": {}, \"permanent_rejections\": {}, \
             \"deadline_hit\": {}}}",
            u.stats.attempts,
            u.stats.rungs_visited,
            u.stats.transient_failures,
            u.stats.permanent_rejections,
            u.deadline_hit
        ),
    })
}

// ------------------------------------------------------------- predict

fn predict_endpoint(ctx: &ServerContext, body: &Json, deadline: &Deadline) -> HttpResponse {
    let generation = ctx.store.current();
    let degraded = browned_out(ctx);
    let (stats, _) = match request_stats(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let heuristic = generation.registry.heuristic_model.predict(&stats);
    let mut out = String::from("{");
    out.push_str(&format!("\"heuristic\": {}", escape(heuristic.name())));
    out.push_str(&format!(
        ", \"knee_ladder\": {}",
        knee_ladder(&generation, &stats)
    ));
    out.push_str(&format!(
        ", \"stats\": {{\"size\": {}, \"width\": {}, \"ccr\": {}, \"parallelism\": {}, \
         \"density\": {}, \"regularity\": {}, \"mean_comp\": {}}}",
        stats.size,
        stats.width,
        num(stats.ccr),
        num(stats.parallelism),
        num(stats.density),
        num(stats.regularity),
        num(stats.mean_comp)
    ));
    push_meta_and_report(ctx, &mut out, body, deadline, &generation, degraded);
    out.push('}');
    HttpResponse::json(200, out)
}

// ---------------------------------------------------------------- lint

fn lint_endpoint(ctx: &ServerContext, body: &Json, deadline: &Deadline) -> HttpResponse {
    let generation = ctx.store.current();
    let degraded = browned_out(ctx);
    let Some(docs) = body.get("documents").and_then(Json::as_array) else {
        return error(
            400,
            "usage",
            "lint needs a 'documents' array of {name, text} objects",
            &[],
        );
    };
    let mut inputs = Vec::with_capacity(docs.len());
    for (i, d) in docs.iter().enumerate() {
        let name = d
            .get("name")
            .and_then(Json::as_str)
            .map_or_else(|| format!("document-{i}"), str::to_string);
        let Some(text) = d.get("text").and_then(Json::as_str) else {
            return error(
                400,
                "usage",
                &format!("document '{name}' has no 'text'"),
                &[],
            );
        };
        inputs.push(Input::new(&name, text));
    }
    if inputs.is_empty() {
        return error(400, "usage", "lint needs at least one document", &[]);
    }
    let with_platform = matches!(body.get("platform"), Some(Json::Bool(true)));
    let platform = with_platform.then(|| ctx.platform());
    let report = rsg_analyze::analyze(&inputs, platform);
    if report.errors() > 0 {
        LINT_REJECTED.incr();
        return error(
            422,
            "lint",
            &format!("{} error-level diagnostic(s)", report.errors()),
            &report.diagnostics,
        );
    }
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"errors\": 0, \"warnings\": {}, \"diagnostics\": {}",
        report.warnings(),
        diagnostics_json(&report.diagnostics)
    ));
    push_meta_and_report(ctx, &mut out, body, deadline, &generation, degraded);
    out.push('}');
    HttpResponse::json(200, out)
}

// -------------------------------------- healthz, readyz and metrics

/// Pure liveness: answers 200 whenever the process can parse and
/// route at all, regardless of drain/reload/shed state. Load
/// balancers that want routability must probe `/readyz` instead.
fn healthz(ctx: &ServerContext) -> HttpResponse {
    let generation = ctx.store.current();
    let r = &generation.registry;
    let thresholds: Vec<String> = r.size_model.models.iter().map(|m| num(m.theta)).collect();
    let size_src = r.size_model_path.as_deref().unwrap_or("inline");
    let heur_src = r
        .heuristic_model_path
        .clone()
        .unwrap_or_else(|| "fixed".to_string());
    let body = format!(
        "{{\"status\": \"ok\", \"generation\": {}, \"models\": {{\"size_model\": {}, \
         \"heuristic_model\": {}, \"thresholds\": [{}]}}, \"endpoints\": [\"/spec\", \
         \"/predict\", \"/lint\", \"/metrics\", \"/healthz\", \"/readyz\"]}}",
        generation.number,
        escape(size_src),
        escape(&heur_src),
        thresholds.join(", ")
    );
    HttpResponse::json(200, body)
}

/// Readiness: 200 only while the process is running, not mid-reload,
/// and not shedding — anything else is a 503 with `Retry-After`, so
/// load balancers stop routing *before* a drain completes rather than
/// after the socket dies.
fn readyz(ctx: &ServerContext) -> HttpResponse {
    let draining = ctx.lifecycle.draining();
    let reloading = ctx.store.reloading();
    let level = ctx.shed.level();
    let staleness = ctx.push_staleness();
    // Staleness flips readiness only past the configured bound: a
    // stale-but-flagged answer keeps flowing (every response carries
    // its stamp), but load balancers stop routing here once the gap
    // has been open longer than the operator tolerates.
    let stale = match (ctx.max_staleness_s, &staleness) {
        (Some(bound), Some((_, age_s))) => *age_s > bound,
        _ => false,
    };
    let ready = !draining && !reloading && level != ShedLevel::Shed && !stale;
    let body = format!(
        "{{\"ready\": {}, \"state\": {}, \"reloading\": {}, \"shed\": {}, \
         \"generation\": {}, \"pending\": {}, \"stale\": {}, \"staleness\": {}}}",
        ready,
        escape(ctx.lifecycle.state().label()),
        reloading,
        escape(level.label()),
        ctx.store.generation(),
        ctx.lifecycle.pending(),
        stale,
        staleness_json(staleness)
    );
    let mut resp = HttpResponse::json(if ready { 200 } else { 503 }, body);
    if !ready {
        resp.retry_after_s = Some(if level == ShedLevel::Shed {
            ctx.shed.retry_after_s(ctx.lifecycle.pending())
        } else {
            1
        });
    }
    resp
}

/// Snapshot of every `serve.*` counter and histogram, plus the
/// lifecycle block (state, pending, both generations, shed level and
/// the last reload outcome). Histograms carry mean and bracketed
/// p50/p99/p999 (2× bucket resolution, as documented on
/// [`rsg_obs::HistogramSnapshot::quantile_s`]).
fn metrics(ctx: &ServerContext) -> HttpResponse {
    let report = RunReport::capture();
    let mut out = String::from("{\"counters\": {");
    let mut first = true;
    for (name, value) in report
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("serve.") || n.starts_with("push."))
    {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("{}: {}", escape(name), value));
    }
    out.push_str("}, \"histograms\": {");
    let mut first = true;
    for h in report
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("serve."))
    {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!(
            "{}: {{\"count\": {}, \"mean_s\": {}, \"p50_s\": {}, \"p99_s\": {}, \
             \"p999_s\": {}, \"max_s\": {}}}",
            escape(&h.name),
            h.count,
            num(h.mean_s()),
            num(h.quantile_s(0.50)),
            num(h.quantile_s(0.99)),
            num(h.quantile_s(0.999)),
            num(h.max_ns as f64 / 1e9)
        ));
    }
    out.push_str("}, \"lifecycle\": {");
    out.push_str(&format!(
        "\"state\": {}, \"pending\": {}, \"generation\": {}, \"previous_generation\": {}, \
         \"reloading\": {}, \"shed_level\": {}, \"queue_wait_ewma_s\": {}, \
         \"service_ewma_s\": {}, \"last_reload\": {}",
        escape(ctx.lifecycle.state().label()),
        ctx.lifecycle.pending(),
        ctx.store.generation(),
        ctx.store.previous_generation(),
        ctx.store.reloading(),
        escape(ctx.shed.level().label()),
        num(ctx.shed.queue_wait_ewma_s()),
        num(ctx.shed.service_ewma_s()),
        reload_outcome_json(&ctx.store.last_outcome())
    ));
    out.push_str("}}");
    HttpResponse::json(200, out)
}

fn reload_outcome_json(outcome: &ReloadOutcome) -> String {
    match outcome {
        ReloadOutcome::Never => "{\"outcome\": \"never\"}".to_string(),
        ReloadOutcome::Swapped { from, to } => {
            format!("{{\"outcome\": \"swapped\", \"from\": {from}, \"to\": {to}}}")
        }
        ReloadOutcome::RolledBack { kept, error } => format!(
            "{{\"outcome\": \"rolled-back\", \"kept\": {kept}, \"error\": {}}}",
            escape(error)
        ),
    }
}

// ------------------------------------------------------- admin surface

/// Routes one request on the loopback-only admin listener. Reload,
/// drain and platform deltas are POST-only; everything else 404s so
/// the admin port leaks nothing beyond its three verbs.
pub fn handle_admin(ctx: &ServerContext, req: &HttpRequest) -> HttpResponse {
    REQ_ADMIN.incr();
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("POST", "/admin/reload") => admin_reload(ctx, req),
        ("POST", "/admin/drain") => admin_drain(ctx),
        ("POST", "/admin/platform") => admin_platform(ctx, req),
        (_, "/admin/reload" | "/admin/drain" | "/admin/platform") => {
            error(405, "method", "use POST for admin endpoints", &[])
        }
        (_, path) => error(
            404,
            "not-found",
            &format!("no such admin endpoint: {path}"),
            &[],
        ),
    }
}

/// `POST /admin/reload {"dir": "<model dir>"}`: loads, lints and swaps
/// in a new model generation; on any failure the old generation keeps
/// serving and the error comes back as a structured 500.
fn admin_reload(ctx: &ServerContext, req: &HttpRequest) -> HttpResponse {
    let dir = match Json::parse(&req.body) {
        Ok(v @ Json::Obj(_)) => match v.get("dir").and_then(Json::as_str) {
            Some(d) if !d.is_empty() => d.to_string(),
            _ => {
                return error(
                    400,
                    "usage",
                    "reload needs {\"dir\": \"<model directory>\"}",
                    &[],
                )
            }
        },
        _ => return error(400, "usage", "request body must be a JSON object", &[]),
    };
    match ctx.store.reload(std::path::Path::new(&dir)) {
        Ok(generation) => HttpResponse::json(
            200,
            format!(
                "{{\"reloaded\": true, \"generation\": {}, \"previous_generation\": {}, \
                 \"dir\": {}}}",
                generation.number,
                ctx.store.previous_generation(),
                escape(&dir)
            ),
        ),
        Err(e) => error(
            500,
            "reload",
            &format!(
                "reload rejected; generation {} kept serving: {e}",
                ctx.store.generation()
            ),
            &[],
        ),
    }
}

/// `POST /admin/drain`: flips the lifecycle into draining and
/// acknowledges. The serving loop notices, refuses new admissions,
/// finishes what is in flight, and exits; the caller polls the process
/// (or this socket) to see it go.
fn admin_drain(ctx: &ServerContext) -> HttpResponse {
    let flipped = ctx.lifecycle.begin_drain();
    HttpResponse::json(
        200,
        format!(
            "{{\"draining\": true, \"first_request\": {}, \"pending\": {}}}",
            flipped,
            ctx.lifecycle.pending()
        ),
    )
}

/// `POST /admin/platform {"deltas": [{"seq": 1, "delta": "host-join\t3\t5"}, ...]}`:
/// applies one platform-delta batch through the push engine. The batch
/// is linted first (`rsg-analyze` delta lints); any error-level finding
/// refuses the whole batch with a 422 and **no** state change. An
/// optional `"audit": {"sample": N, "salt": N}` runs an explicit
/// anti-entropy pass (alone, or after the batch applies).
fn admin_platform(ctx: &ServerContext, req: &HttpRequest) -> HttpResponse {
    let body = match Json::parse(&req.body) {
        Ok(v @ Json::Obj(_)) => v,
        Ok(_) => return error(400, "usage", "request body must be a JSON object", &[]),
        Err(e) => {
            return error(
                400,
                "usage",
                &format!("request body is not valid JSON: {e}"),
                &[],
            )
        }
    };
    let deltas = body.get("deltas").and_then(Json::as_array);
    let audit_req = body.get("audit");
    if deltas.is_none() && audit_req.is_none() {
        return error(
            400,
            "usage",
            "platform needs {\"deltas\": [{\"seq\", \"delta\"}, ...]} and/or {\"audit\": {...}}",
            &[],
        );
    }
    let records = match parse_delta_records(deltas.unwrap_or(&[])) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let tracker = match ctx.tracker() {
        Ok(t) => t,
        Err(e) => {
            return error(
                500,
                "push",
                &format!("platform tracker failed to start: {e}"),
                &[],
            )
        }
    };
    let mut out = String::from("{\"accepted\": true");
    if !records.is_empty() {
        match tracker.submit(&records) {
            Ok(outcome) => push_submit_outcome(&mut out, &outcome),
            Err(SubmitError::Lint(diags)) => {
                return delta_error(
                    422,
                    "delta",
                    &format!(
                        "delta batch rejected: {} error-level diagnostic(s); nothing was applied",
                        diags.len()
                    ),
                    &diags,
                )
            }
            Err(SubmitError::Journal(e)) => {
                return error(
                    500,
                    "journal",
                    &format!(
                        "delta batch applied in memory but the journal write failed; \
                         redeliver the batch (idempotent) once the journal is healthy \
                         to restore durability: {e}"
                    ),
                    &[],
                )
            }
        }
    }
    if let Some(a) = audit_req {
        let sample = a
            .get("sample")
            .and_then(Json::as_f64)
            .map_or(crate::push::AUDIT_SAMPLE, |v| v.max(1.0) as usize);
        let salt = a.get("salt").and_then(Json::as_f64).map_or(0.0, f64::abs) as u64;
        let report = tracker.audit(sample, salt);
        out.push_str(&format!(
            ", \"audit\": {{\"checked\": {}, \"divergent\": {}}}",
            report.checked, report.divergent
        ));
    }
    let (staleness, age_s) = tracker.staleness();
    out.push_str(&format!(
        ", \"staleness\": {}}}",
        staleness_json(Some((staleness, age_s)))
    ));
    HttpResponse::json(200, out)
}

/// Decodes the `"deltas"` array: each element needs an integral
/// `"seq"` ≥ 1 that fits a u64 and a `"delta"` TSV string in the
/// journal record grammar. A malformed element is a 400 (the envelope
/// is wrong); a well-formed delta with bad *values* is left to the
/// lints, which answer 422.
fn parse_delta_records(deltas: &[Json]) -> Result<Vec<DeltaRecord>, HttpResponse> {
    let mut records = Vec::with_capacity(deltas.len());
    for (i, d) in deltas.iter().enumerate() {
        let seq = match d.get("seq").and_then(Json::as_f64) {
            Some(s) if s.is_finite() && s >= 0.0 && s.fract() == 0.0 && s <= 2f64.powi(53) => {
                s as u64
            }
            _ => {
                return Err(error(
                    400,
                    "usage",
                    &format!("deltas[{i}].seq must be a non-negative integer"),
                    &[],
                ))
            }
        };
        let Some(tsv) = d.get("delta").and_then(Json::as_str) else {
            return Err(error(
                400,
                "usage",
                &format!("deltas[{i}].delta must be a TSV delta string"),
                &[],
            ));
        };
        let delta = match PlatformDelta::from_tsv(tsv) {
            Ok(delta) => delta,
            Err(e) => {
                return Err(delta_error(
                    422,
                    "delta",
                    &format!("deltas[{i}] does not parse; nothing was applied"),
                    &[DeltaDiagnostic {
                        code: rsg_analyze::DeltaCode::BadValue,
                        subject: "/admin/platform".to_string(),
                        seq,
                        detail: e.to_string(),
                    }],
                ))
            }
        };
        records.push(DeltaRecord { seq, delta });
    }
    Ok(records)
}

/// Appends one accepted batch's outcome fields to the response body.
fn push_submit_outcome(out: &mut String, outcome: &SubmitOutcome) {
    let b = outcome.batch;
    out.push_str(&format!(
        ", \"applied\": {}, \"duplicates\": {}, \"parked\": {}, \"rejected\": {}, \
         \"dirtied\": {}, \"recomputed\": {}, \"resynced\": {}",
        b.applied, b.duplicates, b.parked, b.rejected, b.dirtied, b.recomputed, b.resynced
    ));
    if let Some(a) = outcome.audit {
        out.push_str(&format!(
            ", \"auto_audit\": {{\"checked\": {}, \"divergent\": {}}}",
            a.checked, a.divergent
        ));
    }
}

/// Renders the staleness stamp every response carries: the highest
/// contiguously applied delta sequence, how many deltas are known but
/// unapplied (`lag`), and how long the oldest gap has been open.
/// `None` (no tracker, no deltas ever) renders as fully fresh.
fn staleness_json(staleness: Option<(Staleness, f64)>) -> String {
    let (s, age_s) = staleness.unwrap_or((
        Staleness {
            applied_seq: 0,
            highest_seen: 0,
            lag: 0,
        },
        0.0,
    ));
    format!(
        "{{\"applied_seq\": {}, \"highest_seen\": {}, \"lag\": {}, \"age_s\": {}}}",
        s.applied_seq,
        s.highest_seen,
        s.lag,
        num(age_s)
    )
}

// ------------------------------------------------------- shared pieces

/// Extracts the DAG characteristics a request describes: either a full
/// `rsg-dag v1` document under `"dag"` (linted before anything else)
/// or the paper's six characteristics under `"characteristics"`.
fn request_stats(body: &Json) -> Result<(DagStats, Option<Dag>), HttpResponse> {
    if let Some(text) = body.get("dag").and_then(Json::as_str) {
        // Lint first: parse failures are 400, semantic defects 422.
        let report = rsg_analyze::analyze(&[Input::new("request.dag", text)], None);
        if report.errors() > 0 {
            LINT_REJECTED.incr();
            let parse_failure = report
                .diagnostics
                .iter()
                .any(|d| d.code.as_str().starts_with("PARSE"));
            let status = if parse_failure { 400 } else { 422 };
            return Err(error(
                status,
                "lint",
                &format!(
                    "request DAG rejected: {} error-level diagnostic(s)",
                    report.errors()
                ),
                &report.diagnostics,
            ));
        }
        let dag = read_dag(text)
            .map_err(|e| error(400, "usage", &format!("cannot parse 'dag': {e}"), &[]))?;
        return Ok((DagStats::measure(&dag), Some(dag)));
    }
    if let Some(c) = body.get("characteristics") {
        return Ok((stats_from_characteristics(c)?, None));
    }
    Err(error(
        400,
        "usage",
        "request needs either 'dag' (an rsg-dag v1 document) or 'characteristics'",
        &[],
    ))
}

/// Builds a [`DagStats`] from the six explicit characteristics. Height
/// and width are derived from size and parallelism (`τ = n^α`) unless
/// `width` is given explicitly; the width caps the predicted RC size
/// exactly as it does for a measured DAG.
fn stats_from_characteristics(c: &Json) -> Result<DagStats, HttpResponse> {
    let need = |key: &str| -> Result<f64, HttpResponse> {
        c.get(key)
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite())
            .ok_or_else(|| {
                error(
                    400,
                    "usage",
                    &format!("characteristics need a finite numeric '{key}'"),
                    &[],
                )
            })
    };
    let size = need("size")?;
    if size < 1.0 {
        return Err(error(
            400,
            "usage",
            "characteristics.size must be at least 1",
            &[],
        ));
    }
    let ccr = need("ccr")?;
    let parallelism = need("parallelism")?;
    let density = need("density")?;
    let regularity = need("regularity")?;
    let mean_comp = need("mean_comp")?;
    let tau = size.powf(parallelism.clamp(0.0, 1.0)).max(1.0);
    let width = match c.get("width").and_then(Json::as_f64) {
        Some(w) if w.is_finite() && w >= 1.0 => w as u32,
        _ => tau.ceil() as u32,
    };
    let height = (size / tau).round().max(1.0) as u32;
    Ok(DagStats {
        size: size as usize,
        height,
        tasks_per_level: tau,
        width,
        ccr,
        parallelism,
        density,
        regularity,
        mean_comp,
    })
}

/// Appends the response `meta` object — elapsed, deadline, the answer
/// generation, the platform staleness stamp and (under brownout) a
/// `"degraded": true` marker — and,
/// when the request asked for one with `"report": true` and the
/// process is not browned out, a full `rsg-obs` run-report snapshot.
/// Skipping the report under brownout is the cheapest extra to shed:
/// capturing it walks every registered histogram.
fn push_meta_and_report(
    ctx: &ServerContext,
    out: &mut String,
    body: &Json,
    deadline: &Deadline,
    generation: &Generation,
    degraded: bool,
) {
    out.push_str(&format!(
        ", \"meta\": {{\"elapsed_s\": {}, \"deadline_s\": {}, \"generation\": {}, \
         \"staleness\": {}",
        num(deadline.elapsed_s()),
        num(deadline.budget_s()),
        generation.number,
        staleness_json(ctx.push_staleness())
    ));
    if degraded {
        out.push_str(", \"degraded\": true");
    }
    out.push('}');
    if !degraded && matches!(body.get("report"), Some(Json::Bool(true))) {
        let report = RunReport::capture().to_json();
        out.push_str(&format!(", \"report\": {}", report.trim_end()));
    }
}

/// The structured error body shared by every endpoint:
/// `{"error": {"status", "kind", "message", "diagnostics"}}`.
fn error(status: u16, kind: &str, message: &str, diagnostics: &[Diagnostic]) -> HttpResponse {
    let mut body = format!(
        "{{\"error\": {{\"status\": {status}, \"kind\": {}, \"message\": {}",
        escape(kind),
        escape(message)
    );
    if !diagnostics.is_empty() {
        body.push_str(&format!(
            ", \"diagnostics\": {}",
            diagnostics_json(diagnostics)
        ));
    }
    body.push_str("}}");
    HttpResponse::json(status, body)
}

/// The structured error body for delta-batch refusals — same shape as
/// [`error`], but the diagnostics carry `DELTA00x` codes and sequence
/// numbers instead of lint subjects. All delta diagnostics are
/// error-severity by construction.
fn delta_error(
    status: u16,
    kind: &str,
    message: &str,
    diagnostics: &[DeltaDiagnostic],
) -> HttpResponse {
    let mut body = format!(
        "{{\"error\": {{\"status\": {status}, \"kind\": {}, \"message\": {}",
        escape(kind),
        escape(message)
    );
    if !diagnostics.is_empty() {
        body.push_str(", \"diagnostics\": [");
        for (i, d) in diagnostics.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            body.push_str(&format!(
                "{{\"code\": {}, \"severity\": \"error\", \"subject\": {}, \"seq\": {}, \
                 \"detail\": {}}}",
                escape(d.code.as_str()),
                escape(&d.subject),
                d.seq,
                escape(&d.detail)
            ));
        }
        body.push(']');
    }
    body.push_str("}}");
    HttpResponse::json(status, body)
}

fn diagnostics_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"code\": {}, \"severity\": {}, \"subject\": {}, \"detail\": {}}}",
            escape(d.code.as_str()),
            escape(d.severity.label()),
            escape(&d.subject),
            escape(&d.detail)
        ));
    }
    out.push(']');
    out
}

/// The canned overload response the acceptor writes when the admission
/// queue is full — built without touching the request at all.
pub fn overload_response() -> HttpResponse {
    let mut resp = error(
        503,
        "overload",
        "admission queue is full; retry shortly",
        &[],
    );
    resp.retry_after_s = Some(1);
    resp
}

/// The canned 503 the acceptor writes while draining — new work is
/// refused so the pending count can only fall.
pub fn draining_response() -> HttpResponse {
    let mut resp = error(
        503,
        "draining",
        "this instance is draining for shutdown; retry against another instance",
        &[],
    );
    resp.retry_after_s = Some(1);
    resp
}

/// The shed-gate 503: refused before any model work, with a
/// `Retry-After` telling the client when the observed backlog will
/// have drained.
pub fn shed_response(ctx: &ServerContext) -> HttpResponse {
    let mut resp = error(
        503,
        "shed",
        "shedding load: queue wait exceeds the shed threshold; retry after the backlog drains",
        &[],
    );
    resp.retry_after_s = Some(ctx.shed().retry_after_s(ctx.lifecycle().pending()));
    resp
}

/// The canned 500 a worker writes after catching a handler panic —
/// built without touching any request state (it may be poisoned).
pub fn panic_response() -> HttpResponse {
    error(
        500,
        "internal",
        "the request handler panicked; the failure is counted in serve.panics",
        &[],
    )
}

/// The response for a request whose deadline expired while it sat in
/// the admission queue.
pub fn queue_deadline_response(deadline: &Deadline) -> HttpResponse {
    DEADLINE_EXPIRED.incr();
    let mut resp = error(
        504,
        "deadline",
        &format!(
            "request spent its whole {:.3} s budget queued ({:.3} s)",
            deadline.budget_s(),
            deadline.elapsed_s()
        ),
        &[],
    );
    resp.retry_after_s = Some(1);
    resp
}

/// Maps a request-read failure onto a structured 4xx: oversized bodies
/// to 413, oversized header blocks to 431, read timeouts (slowloris,
/// stalled uploads) to 408, everything else to 400.
pub fn bad_request_response(e: &crate::http::HttpError) -> HttpResponse {
    match e {
        crate::http::HttpError::TooLarge(n) => error(
            413,
            "usage",
            &format!("request body of {n} bytes exceeds the limit"),
            &[],
        ),
        crate::http::HttpError::HeadersTooLarge(what) => error(
            431,
            "usage",
            &format!("request header block exceeds the limit: {what}"),
            &[],
        ),
        crate::http::HttpError::Timeout => error(
            408,
            "timeout",
            "the request did not arrive in full before the read deadline",
            &[],
        ),
        other => error(400, "usage", &other.to_string(), &[]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_core::observation::{measure, ObservationGrid};
    use rsg_core::ThresholdedSizeModel;

    fn ctx() -> ServerContext {
        let tables = measure(
            &ObservationGrid::tiny(),
            &CurveConfig::default(),
            &rsg_core::THRESHOLD_LADDER,
            0,
        );
        let registry = ModelRegistry::from_models(
            ThresholdedSizeModel::fit(&tables),
            HeuristicPredictionModel::fixed(HeuristicKind::Mcp),
        );
        ServerContext::new(registry, 30.0)
    }

    fn post(ctx: &ServerContext, path: &str, body: &str) -> HttpResponse {
        let req = HttpRequest {
            method: "POST".into(),
            path: path.into(),
            body: body.into(),
        };
        handle(ctx, &req, &Deadline::start(30.0))
    }

    fn dag_text() -> String {
        let dag = rsg_dag::RandomDagSpec {
            size: 80,
            ccr: 0.2,
            parallelism: 0.6,
            density: 0.5,
            regularity: 0.7,
            mean_comp: 20.0,
        }
        .generate(7);
        rsg_dag::io::write_dag(&dag)
    }

    #[test]
    fn queue_full_rejection_is_a_structured_error() {
        // Contract for the acceptor's canned overload 503: built with
        // zero request state, yet still the full structured error body
        // — a shed client must be able to machine-parse the refusal
        // exactly like any other error, and must get a Retry-After.
        let resp = overload_response();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after_s, Some(1));
        let v = Json::parse(&resp.body).expect("overload body is valid JSON");
        let err = v.get("error").expect("structured error envelope");
        assert_eq!(err.get("status").and_then(Json::as_f64), Some(503.0));
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("overload"));
        let msg = err.get("message").and_then(Json::as_str).unwrap();
        assert!(msg.contains("queue"), "message names the queue: {msg}");
    }

    #[test]
    fn spec_from_dag_matches_generator_output() {
        let ctx = ctx();
        let body = format!("{{\"dag\": {}}}", escape(&dag_text()));
        let resp = post(&ctx, "/spec", &body);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert!(v
            .get("summary")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("RC size "));
        let renders = v.get("renderings").unwrap();
        assert!(renders
            .get("vgdl")
            .and_then(Json::as_str)
            .unwrap()
            .contains("Clock >="));
        assert!(renders
            .get("classad")
            .and_then(Json::as_str)
            .unwrap()
            .contains("Count"));
        assert!(renders
            .get("sword")
            .and_then(Json::as_str)
            .unwrap()
            .contains("<num_machines>"));
        let ladder = v.get("knee_ladder").and_then(Json::as_array).unwrap();
        assert_eq!(ladder.len(), rsg_core::THRESHOLD_LADDER.len());
        // Every response names the generation that answered it.
        assert_eq!(
            v.get("meta").and_then(|m| m.get("generation")),
            Some(&Json::Num(1.0))
        );
    }

    #[test]
    fn spec_from_characteristics_works_without_a_dag() {
        let ctx = ctx();
        let resp = post(
            &ctx,
            "/spec",
            "{\"characteristics\": {\"size\": 200, \"ccr\": 0.1, \"parallelism\": 0.6, \
             \"density\": 0.5, \"regularity\": 0.8, \"mean_comp\": 20}}",
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert!(v.get("rc_size").and_then(Json::as_f64).unwrap() >= 1.0);
    }

    #[test]
    fn malformed_dag_is_a_structured_400() {
        let ctx = ctx();
        let resp = post(
            &ctx,
            "/spec",
            "{\"dag\": \"rsg-dag v1\\ntask zero\\nend\\n\"}",
        );
        assert_eq!(resp.status, 400, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        let diags = v
            .get("error")
            .and_then(|e| e.get("diagnostics"))
            .and_then(Json::as_array)
            .unwrap();
        assert!(diags
            .iter()
            .any(|d| d.get("code").and_then(Json::as_str) == Some("PARSE004")));
    }

    #[test]
    fn semantically_bad_dag_is_a_422() {
        // A cyclic DAG parses but fails the DAG lints.
        let ctx = ctx();
        let cyclic = "rsg-dag v1\ntask 0 1.0\ntask 1 1.0\nedge 0 1 0.1\nedge 1 0 0.1\nend\n";
        let resp = post(&ctx, "/spec", &format!("{{\"dag\": {}}}", escape(cyclic)));
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(resp.body.contains("DAG001"), "{}", resp.body);
    }

    #[test]
    fn bad_reference_clock_is_a_422() {
        // The reference clock divides host speeds, so a zero, negative or
        // non-finite one would silently change the answer.
        let ctx = ctx();
        for clock in ["0", "-1500", "NaN", "inf"] {
            let text = format!(
                "rsg-dag v1\nrefclock {clock}\ntask 0 1.0\ntask 1 1.0\ntask 2 1.0\n\
                 edge 0 1 0.1\nedge 0 2 0.1\nend\n"
            );
            let resp = post(&ctx, "/spec", &format!("{{\"dag\": {}}}", escape(&text)));
            assert_eq!(resp.status, 422, "refclock {clock}: {}", resp.body);
            assert!(resp.body.contains("DAG003"), "{}", resp.body);
            assert!(resp.body.contains("reference clock"), "{}", resp.body);
        }
    }

    #[test]
    fn expired_deadline_is_a_504() {
        let ctx = ctx();
        let body = format!("{{\"dag\": {}, \"deadline_s\": 0.0}}", escape(&dag_text()));
        let resp = post(&ctx, "/spec", &body);
        assert_eq!(resp.status, 504, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("deadline")
        );
        assert_eq!(resp.retry_after_s, Some(1));
    }

    #[test]
    fn negotiation_binds_against_the_platform() {
        let ctx = ctx();
        let body = format!(
            "{{\"dag\": {}, \"clock_mhz\": 1400, \"heterogeneity\": 0.5, \"negotiate\": true}}",
            escape(&dag_text())
        );
        let resp = post(&ctx, "/spec", &body);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        let n = v.get("negotiation").expect("negotiation block");
        assert_eq!(n.get("bound"), Some(&Json::Bool(true)), "{}", resp.body);
    }

    #[test]
    fn predict_returns_heuristic_and_ladder() {
        let ctx = ctx();
        let resp = post(
            &ctx,
            "/predict",
            "{\"characteristics\": {\"size\": 500, \"ccr\": 0.3, \"parallelism\": 0.5, \
             \"density\": 0.5, \"regularity\": 0.8, \"mean_comp\": 40}}",
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("heuristic").and_then(Json::as_str), Some("MCP"));
        assert!(!v
            .get("knee_ladder")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn lint_endpoint_mirrors_cli_semantics() {
        let ctx = ctx();
        // Clean spec document: 200.
        let ok = post(
            &ctx,
            "/lint",
            "{\"documents\": [{\"name\": \"rc.spec\", \"text\": \"rsg-spec v1\\nrung none\\n\
             size 20\\nmin 10\\nclock 1000 3600\\nheuristic MCP\\nthreshold 0.95\\n\
             memory 512\\nend\\n\"}]}",
        );
        assert_eq!(ok.status, 200, "{}", ok.body);
        // Inverted clock range: 422 with the diagnostic attached.
        let bad = post(
            &ctx,
            "/lint",
            "{\"documents\": [{\"name\": \"bad.spec\", \"text\": \"rsg-spec v1\\nrung none\\n\
             size 20\\nclock 3600 1000\\nend\\n\"}]}",
        );
        assert_eq!(bad.status, 422, "{}", bad.body);
        assert!(bad.body.contains("SPEC003"), "{}", bad.body);
    }

    #[test]
    fn unknown_routes_and_methods_are_typed() {
        let ctx = ctx();
        let req = HttpRequest {
            method: "GET".into(),
            path: "/nope".into(),
            body: String::new(),
        };
        assert_eq!(handle(&ctx, &req, &Deadline::start(30.0)).status, 404);
        let req = HttpRequest {
            method: "DELETE".into(),
            path: "/spec".into(),
            body: String::new(),
        };
        assert_eq!(handle(&ctx, &req, &Deadline::start(30.0)).status, 405);
        let resp = post(&ctx, "/spec", "not json");
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn query_strings_are_ignored_when_routing() {
        // LB/k8s probes routinely append query params; they must not
        // turn a live endpoint into a 404.
        let ctx = ctx();
        for path in ["/healthz?probe=1", "/metrics?format=json"] {
            let req = HttpRequest {
                method: "GET".into(),
                path: path.into(),
                body: String::new(),
            };
            let resp = handle(&ctx, &req, &Deadline::start(30.0));
            assert_eq!(resp.status, 200, "{path}: {}", resp.body);
        }
        let resp = post(
            &ctx,
            "/spec?verbose=1",
            "{\"characteristics\": {\"size\": 50, \"ccr\": 0.2, \"parallelism\": 0.5, \
             \"density\": 0.5, \"regularity\": 0.8, \"mean_comp\": 10}}",
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    #[test]
    fn deep_json_body_is_a_400_not_a_crash() {
        let ctx = ctx();
        let resp = post(&ctx, "/spec", &"[".repeat(300 * 1024));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("not valid JSON"), "{}", resp.body);
    }

    #[test]
    fn healthz_and_metrics_render() {
        let ctx = ctx();
        let req = HttpRequest {
            method: "GET".into(),
            path: "/healthz".into(),
            body: String::new(),
        };
        let resp = handle(&ctx, &req, &Deadline::start(30.0));
        assert_eq!(resp.status, 200);
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        let req = HttpRequest {
            method: "GET".into(),
            path: "/metrics".into(),
            body: String::new(),
        };
        let resp = handle(&ctx, &req, &Deadline::start(30.0));
        assert_eq!(resp.status, 200);
        let v = Json::parse(&resp.body).expect("metrics is valid JSON");
        let lc = v.get("lifecycle").expect("lifecycle block");
        assert_eq!(lc.get("state").and_then(Json::as_str), Some("running"));
        assert_eq!(lc.get("generation"), Some(&Json::Num(1.0)));
        assert_eq!(lc.get("previous_generation"), Some(&Json::Num(0.0)));
        assert_eq!(
            lc.get("last_reload")
                .and_then(|r| r.get("outcome"))
                .and_then(Json::as_str),
            Some("never")
        );
    }

    #[test]
    fn readyz_reflects_drain_and_reload_state() {
        let ctx = ctx();
        let req = HttpRequest {
            method: "GET".into(),
            path: "/readyz".into(),
            body: String::new(),
        };
        let resp = handle(&ctx, &req, &Deadline::start(30.0));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("ready"), Some(&Json::Bool(true)));
        // Draining flips readiness to 503 while liveness stays 200.
        ctx.lifecycle().begin_drain();
        let resp = handle(&ctx, &req, &Deadline::start(30.0));
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert_eq!(resp.retry_after_s, Some(1));
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("state").and_then(Json::as_str), Some("draining"));
        let live = HttpRequest {
            method: "GET".into(),
            path: "/healthz".into(),
            body: String::new(),
        };
        assert_eq!(handle(&ctx, &live, &Deadline::start(30.0)).status, 200);
    }

    #[test]
    fn shed_gate_refuses_model_work_but_not_probes() {
        let ctx = ctx();
        // Push the queue-wait EWMA far past the shed threshold.
        for _ in 0..64 {
            ctx.shed().observe_queue_wait(10.0);
            ctx.shed().observe_service(0.5);
        }
        for _ in 0..4 {
            ctx.lifecycle().admit();
        }
        let resp = post(
            &ctx,
            "/spec",
            "{\"characteristics\": {\"size\": 50, \"ccr\": 0.2, \"parallelism\": 0.5, \
             \"density\": 0.5, \"regularity\": 0.8, \"mean_comp\": 10}}",
        );
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert!(resp.body.contains("\"shed\""), "{}", resp.body);
        let ra = resp.retry_after_s.expect("shed carries Retry-After");
        assert!((1..=60).contains(&ra), "retry-after {ra}");
        // Probes still answer.
        for path in ["/healthz", "/metrics"] {
            let req = HttpRequest {
                method: "GET".into(),
                path: path.into(),
                body: String::new(),
            };
            assert_eq!(handle(&ctx, &req, &Deadline::start(30.0)).status, 200);
        }
        for _ in 0..4 {
            ctx.lifecycle().finish();
        }
    }

    #[test]
    fn brownout_disables_the_report_extra() {
        let ctx = ctx();
        // Sit between brownout and shed.
        for _ in 0..64 {
            ctx.shed().observe_queue_wait(1.0);
        }
        assert_eq!(ctx.shed().level(), ShedLevel::Brownout);
        let resp = post(
            &ctx,
            "/spec",
            "{\"report\": true, \"characteristics\": {\"size\": 50, \"ccr\": 0.2, \
             \"parallelism\": 0.5, \"density\": 0.5, \"regularity\": 0.8, \"mean_comp\": 10}}",
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert!(
            v.get("report").is_none(),
            "report must be shed: {}",
            resp.body
        );
        assert_eq!(
            v.get("meta").and_then(|m| m.get("degraded")),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn admin_surface_reloads_and_drains() {
        let ctx = ctx();
        // Unknown admin path and wrong method are typed.
        let req = HttpRequest {
            method: "GET".into(),
            path: "/admin/reload".into(),
            body: String::new(),
        };
        assert_eq!(handle_admin(&ctx, &req).status, 405);
        let req = HttpRequest {
            method: "POST".into(),
            path: "/admin/nope".into(),
            body: String::new(),
        };
        assert_eq!(handle_admin(&ctx, &req).status, 404);
        // Reload without a dir is a 400; with a bad dir a 500 that
        // names the kept generation.
        let req = HttpRequest {
            method: "POST".into(),
            path: "/admin/reload".into(),
            body: "{}".into(),
        };
        assert_eq!(handle_admin(&ctx, &req).status, 400);
        let req = HttpRequest {
            method: "POST".into(),
            path: "/admin/reload".into(),
            body: "{\"dir\": \"/nonexistent/rsg-models\"}".into(),
        };
        let resp = handle_admin(&ctx, &req);
        assert_eq!(resp.status, 500, "{}", resp.body);
        assert!(resp.body.contains("generation 1 kept"), "{}", resp.body);
        assert_eq!(ctx.store().generation(), 1);
        // Drain acknowledges and flips the lifecycle.
        let req = HttpRequest {
            method: "POST".into(),
            path: "/admin/drain".into(),
            body: String::new(),
        };
        let resp = handle_admin(&ctx, &req);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(ctx.lifecycle().draining());
    }
}
