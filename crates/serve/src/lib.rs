//! `rsg-serve` — a long-lived HTTP/JSON specification service.
//!
//! Everything the one-shot CLI does per invocation — load models,
//! lint the input, predict the knee, choose a heuristic, render
//! vgDL / ClassAds / SWORD — this crate does per *request*, from
//! models loaded once and shared hot across a worker pool:
//!
//! - [`registry::ModelRegistry`] loads the size and heuristic models
//!   through the same envelope-verified store path as the CLI, so a
//!   served response is byte-identical to a CLI run over the same
//!   files. [`registry::ModelStore`] wraps it in a generation-stamped
//!   holder so `/admin/reload` can swap in new models — validated
//!   first, rolled back on any failure — without dropping a request.
//! - [`server::Server`] is the acceptor + bounded-queue + worker-pool
//!   loop; admission control answers 503 before a worker is tied up,
//!   and an optional loopback-only admin listener speaks
//!   `/admin/reload` and `/admin/drain`.
//! - [`lifecycle::Lifecycle`] tracks running/draining plus the pending
//!   request count, so a drain can refuse new work and provably finish
//!   what is in flight before the process exits.
//! - [`shed::ShedState`] grades queue-wait pressure into
//!   normal/brownout/shed: expensive extras are disabled before any
//!   request is refused, and refusals carry a `Retry-After` derived
//!   from the observed drain rate.
//! - [`deadline::Deadline`] stamps every connection at accept; the
//!   budget covers queue wait, bounds the request *read* (slowloris
//!   gets a 408), and seeds the negotiator's simulated-time deadline.
//! - [`handlers`] routes `/spec`, `/predict`, `/lint`, `/metrics`,
//!   `/healthz` and `/readyz`, linting every submitted DAG with
//!   `rsg-analyze` before serving it and mapping diagnostics onto
//!   structured 4xx bodies.
//! - [`push`] tracks a *live* platform: `/admin/platform` delta
//!   batches are linted, journaled, and propagated through the core
//!   incremental-recomputation engine; every answer carries a
//!   staleness stamp and `/readyz` flips once staleness exceeds the
//!   configured bound.
//! - [`chaostcp`] is the seeded socket-level chaos harness that
//!   drives all of the above hostile paths against a real daemon
//!   (the `serve_chaos` binary, and the CI chaos-smoke step).
//!
//! The wire format is documented in `docs/API.md`; running, draining,
//! reloading and tuning a server is documented in
//! `docs/OPERATIONS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaostcp;
pub mod deadline;
pub mod handlers;
pub mod http;
pub mod lifecycle;
pub mod push;
pub mod registry;
pub mod server;
pub mod shed;

pub use chaostcp::{ChaosConfig, ChaosReport};
pub use deadline::Deadline;
pub use handlers::ServerContext;
pub use http::{HttpRequest, HttpResponse};
pub use lifecycle::{Lifecycle, ServiceState};
pub use push::{PushTracker, SubmitError, SubmitOutcome};
pub use registry::{Generation, ModelRegistry, ModelStore, ReloadOutcome};
pub use server::{ServeConfig, Server};
pub use shed::{ShedLevel, ShedState};
