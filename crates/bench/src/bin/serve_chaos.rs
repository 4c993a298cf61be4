//! Seeded chaos client for `rsg-serve`.
//!
//! Fires the socket-level fault-injection suite
//! ([`rsg_serve::chaostcp`]) at a daemon and checks that every fault is
//! classified and survived:
//!
//! ```text
//! serve_chaos [--seed N] [--deadline-s S]
//!             [--target HOST:PORT]          # external daemon (CI)
//!             [--admin HOST:PORT]           # reload-under-load cycle
//!             [--reload-dir DIR] [--drain]  # …with these models; then drain
//! ```
//!
//! Without `--target` it boots an in-process daemon. With `--admin`
//! it also runs (a) a reload-under-load cycle when `--reload-dir` is
//! given — concurrent `/spec` clients must see zero failures across
//! repeated `/admin/reload`s, including a deliberately bad model dir
//! that must roll back — and (b) the delta-stream fault scenarios
//! against `/admin/platform`: corrupt record, duplicate flood,
//! out-of-order burst, and deltas landing mid-reload, after which the
//! daemon must still be alive and fully convergent. With `--drain` it
//! finishes by draining the daemon. Exits 1 on any contract
//! violation, which is what the CI chaos-smoke step keys off, and 0
//! otherwise.

use rsg_core::curve::CurveConfig;
use rsg_core::heurmodel::HeuristicPredictionModel;
use rsg_core::observation::{measure, ObservationGrid};
use rsg_core::ThresholdedSizeModel;
use rsg_sched::HeuristicKind;
use rsg_serve::{ModelRegistry, ServeConfig, Server};
use std::io::{Read, Write as IoWrite};
use std::net::{SocketAddr, TcpStream};

/// The `/spec` request the clients send: characteristics-only, so the
/// daemon runs the full predict-and-render path without DAG parsing.
const BODY: &str = "{\"characteristics\": {\"size\": 200, \"ccr\": 0.2, \"parallelism\": 0.6, \
                    \"density\": 0.5, \"regularity\": 0.7, \"mean_comp\": 30}}";

/// One `/spec` request that tolerates nothing: any non-200, short
/// read, or connect failure is returned as an error string.
fn checked_request(addr: SocketAddr) -> Result<(), String> {
    let status = post_status(addr, "/spec", BODY)?;
    if status.starts_with("HTTP/1.1 200") {
        Ok(())
    } else {
        Err(format!("non-200: {status}"))
    }
}

/// POSTs `body` to `path`; returns the status line.
fn post_status(addr: SocketAddr, path: &str, body: &str) -> Result<String, String> {
    post(addr, path, body).map(|(status, _)| status)
}

/// POSTs `body` to `path` on a fresh connection; returns (status
/// line, body).
fn post(addr: SocketAddr, path: &str, body: &str) -> Result<(String, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    write!(
        s,
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    s.read_to_string(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    let status = reply.lines().next().unwrap_or("").to_string();
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// One price-change delta batch body (cheap: dirties no sweep cells,
/// so the scenarios stress the delta pipeline, not the kernel).
fn price_batch(seqs: &[u64]) -> String {
    let deltas: Vec<String> = seqs
        .iter()
        .map(|s| {
            format!(
                "{{\"seq\": {s}, \"delta\": \"price\\t0.{:02}\"}}",
                10 + s % 80
            )
        })
        .collect();
    format!("{{\"deltas\": [{}]}}", deltas.join(", "))
}

/// Delta-stream fault scenarios against a live daemon's
/// `/admin/platform`: a corrupt record (422, nothing applied), a
/// duplicate flood (idempotent), an out-of-order burst (parked then
/// drained), and deltas landing during `/admin/reload`s. The daemon
/// must stay alive and end fully convergent (lag 0). Assumes a fresh
/// daemon (delta sequence starts at 1). Returns violations.
fn delta_scenarios(addr: SocketAddr, admin: SocketAddr, reload_dir: Option<&str>) -> Vec<String> {
    let mut violations = Vec::new();
    fn check(
        violations: &mut Vec<String>,
        name: &str,
        got: Result<(String, String), String>,
        want: &str,
        body_has: &str,
    ) {
        match got {
            Ok((status, body)) if status.starts_with(want) && body.contains(body_has) => {}
            Ok((status, body)) => violations.push(format!(
                "{name}: got '{status}' body '{}', want '{want}' containing '{body_has}'",
                body.chars().take(200).collect::<String>()
            )),
            Err(e) => violations.push(format!("{name}: {e}")),
        }
    }

    // Corrupt record: refused wholesale, nothing applied.
    check(
        &mut violations,
        "corrupt-record",
        post(
            admin,
            "/admin/platform",
            "{\"deltas\": [{\"seq\": 1, \"delta\": \"price\\tNaN\"}]}",
        ),
        "HTTP/1.1 422",
        "DELTA",
    );

    // Duplicate flood: the same two records, many times over.
    check(
        &mut violations,
        "duplicate-flood-first",
        post(admin, "/admin/platform", &price_batch(&[1, 2])),
        "HTTP/1.1 200",
        "\"applied\": 2",
    );
    for i in 0..10 {
        check(
            &mut violations,
            &format!("duplicate-flood-{i}"),
            post(admin, "/admin/platform", &price_batch(&[1, 2])),
            "HTTP/1.1 200",
            "\"duplicates\": 2",
        );
    }

    // Out-of-order burst: 5 and 4 park, 3 drains the chain.
    check(
        &mut violations,
        "out-of-order-park",
        post(admin, "/admin/platform", &price_batch(&[5, 4])),
        "HTTP/1.1 200",
        "\"parked\": 2",
    );
    check(
        &mut violations,
        "out-of-order-drain",
        post(admin, "/admin/platform", &price_batch(&[3])),
        "HTTP/1.1 200",
        "\"resynced\": true",
    );

    // Deltas during reloads: both admin verbs interleaved must all
    // succeed, and the stream must stay contiguous.
    std::thread::scope(|scope| {
        let reloads = scope.spawn(|| {
            let mut local = Vec::new();
            if let Some(dir) = reload_dir {
                for i in 0..3 {
                    match post_status(admin, "/admin/reload", &format!("{{\"dir\": \"{dir}\"}}")) {
                        Ok(status) if status.starts_with("HTTP/1.1 200") => {}
                        other => local.push(format!("delta-during-reload reload {i}: {other:?}")),
                    }
                }
            }
            local
        });
        for seq in 6..=10u64 {
            check(
                &mut violations,
                &format!("delta-during-reload-seq{seq}"),
                post(admin, "/admin/platform", &price_batch(&[seq])),
                "HTTP/1.1 200",
                "\"applied\": 1",
            );
        }
        violations.extend(reloads.join().expect("reload thread"));
    });

    // Convergent and alive: lag 0 on the final stamp, /readyz green.
    check(
        &mut violations,
        "final-convergence",
        post(admin, "/admin/platform", "{\"audit\": {\"sample\": 4}}"),
        "HTTP/1.1 200",
        "\"lag\": 0",
    );
    check(
        &mut violations,
        "final-audit-clean",
        post(admin, "/admin/platform", "{\"audit\": {\"sample\": 4}}"),
        "HTTP/1.1 200",
        "\"divergent\": 0",
    );
    if let Err(e) = checked_request(addr) {
        violations.push(format!("daemon dead after delta scenarios: {e}"));
    }
    violations
}

/// Reload-under-load: concurrent `/spec` clients while `cycles`
/// reloads land (one of them a deliberately bad directory that must
/// roll back). Returns the list of violations.
fn reload_under_load(
    addr: SocketAddr,
    admin: SocketAddr,
    reload_dir: &str,
    cycles: usize,
) -> Vec<String> {
    let stop = std::sync::atomic::AtomicBool::new(false);
    let failures = std::sync::Mutex::new(Vec::<String>::new());
    std::thread::scope(|scope| {
        for client in 0..4 {
            let stop = &stop;
            let failures = &failures;
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    if let Err(e) = checked_request(addr) {
                        failures
                            .lock()
                            .unwrap()
                            .push(format!("client {client}: {e}"));
                    }
                }
            });
        }
        for cycle in 0..cycles {
            // Every third cycle aims at a bad directory: the reload
            // must fail with a 500 and the clients must never notice.
            let (dir, want) = if cycle % 3 == 2 {
                ("/nonexistent/rsg-chaos-models", "HTTP/1.1 500")
            } else {
                (reload_dir, "HTTP/1.1 200")
            };
            match post_status(admin, "/admin/reload", &format!("{{\"dir\": \"{dir}\"}}")) {
                Ok(status) if status.starts_with(want) => {}
                Ok(status) => failures.lock().unwrap().push(format!(
                    "reload cycle {cycle}: got '{status}', want '{want}'"
                )),
                Err(e) => failures
                    .lock()
                    .unwrap()
                    .push(format!("reload cycle {cycle}: {e}")),
            }
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    failures.into_inner().unwrap()
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let seed = arg_value("--seed")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FF_EE00);
    let deadline_s = arg_value("--deadline-s")
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(2.0);
    let target = arg_value("--target");
    let admin = arg_value("--admin");
    let reload_dir = arg_value("--reload-dir");
    let drain = std::env::args().any(|a| a == "--drain");

    // Either drive an external daemon (CI) or boot one in-process.
    let mut local: Option<Server> = None;
    let addr: SocketAddr = match &target {
        Some(t) => t.parse().expect("bad --target address"),
        None => {
            eprintln!("serve_chaos: training models (tiny grid)…");
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
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                default_deadline_s: deadline_s,
                ..ServeConfig::default()
            };
            let server = Server::spawn(&cfg, registry).expect("spawn server");
            let a = server.addr();
            local = Some(server);
            a
        }
    };

    let chaos_cfg = rsg_serve::ChaosConfig {
        seed,
        deadline_hint_s: deadline_s,
        read_timeout_s: 15.0,
        connections_per_fault: 3,
    };
    eprintln!("serve_chaos: seed {seed}, target {addr}, deadline hint {deadline_s}s");
    let report = match rsg_serve::chaostcp::run_chaos(addr, &chaos_cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve_chaos: {e}");
            std::process::exit(1);
        }
    };
    eprint!("{}", report.render());
    let mut failed = !report.passed();

    if let Some(admin) = &admin {
        let admin: SocketAddr = admin.parse().expect("bad --admin address");
        if let Some(dir) = &reload_dir {
            eprintln!("serve_chaos: reload-under-load cycle against {admin}…");
            let violations = reload_under_load(addr, admin, dir, 6);
            if violations.is_empty() {
                eprintln!("  ok   reload-under-load       6 cycle(s), zero dropped requests");
            } else {
                failed = true;
                eprintln!("  FAIL reload-under-load");
                for v in &violations {
                    eprintln!("       - {v}");
                }
            }
        }
        eprintln!("serve_chaos: delta-stream scenarios against {admin}…");
        let violations = delta_scenarios(addr, admin, reload_dir.as_deref());
        if violations.is_empty() {
            eprintln!(
                "  ok   delta-stream           corrupt / duplicate-flood / out-of-order / \
                 reload-interleave, convergent"
            );
        } else {
            failed = true;
            eprintln!("  FAIL delta-stream");
            for v in &violations {
                eprintln!("       - {v}");
            }
        }
        if drain {
            match post_status(admin, "/admin/drain", "") {
                Ok(status) if status.starts_with("HTTP/1.1 200") => {
                    eprintln!("  ok   drain acknowledged");
                }
                other => {
                    failed = true;
                    eprintln!("  FAIL drain: {other:?}");
                }
            }
        }
    }

    if let Some(mut server) = local {
        server.shutdown();
    }
    if failed {
        eprintln!("serve_chaos: FAILED (seed {seed})");
        std::process::exit(1);
    }
    eprintln!("serve_chaos: passed (seed {seed})");
}
