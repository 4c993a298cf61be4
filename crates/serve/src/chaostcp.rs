//! Socket-level chaos harness: deterministic, seeded fault injection
//! against a *real* running daemon.
//!
//! PR 3 gave the scheduler a fault model; this module gives the
//! serving stack one. Each scenario opens raw TCP connections to the
//! target and misbehaves in a specific way — dripping header bytes
//! slowloris-style, tearing writes at seeded offsets, closing mid-body,
//! sending garbage prefixes, flooding headers, declaring absurd
//! `Content-Length`s, or stalling reads — and then asserts the daemon's
//! contract for hostile input:
//!
//! - **zero aborts**: a liveness probe answers 200 after every
//!   scenario;
//! - **zero hangs**: every connection resolves (response or clean
//!   close) within the harness read timeout;
//! - **correct classification**: each fault gets its documented status
//!   (400 malformed, 408 timeout, 413 body cap, 431 header caps) or a
//!   clean connection close — never a worker death, never silence.
//!
//! Everything is driven by one [`ChaosConfig::seed`] through a
//! SplitMix64 generator, so a CI failure reproduces exactly with the
//! same seed. The harness needs no clock reads of its own: hangs are
//! bounded by socket read timeouts, and the slowloris drip length is
//! derived from the target's configured deadline
//! ([`ChaosConfig::deadline_hint_s`]).
//!
//! Run it with the `serve_chaos` binary (in-process daemon) or
//! `serve_chaos --target HOST:PORT` (external daemon, as CI does).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Knobs for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for every randomized choice (garbage bytes, tear offsets).
    pub seed: u64,
    /// The target daemon's default request deadline, seconds. The
    /// slowloris drip runs past it so the 408 path actually fires.
    pub deadline_hint_s: f64,
    /// Hang bound, seconds: a connection with no response and no close
    /// within this window is a harness failure.
    pub read_timeout_s: f64,
    /// Connections per scenario.
    pub connections_per_fault: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xC0FF_EE00,
            deadline_hint_s: 2.0,
            read_timeout_s: 10.0,
            connections_per_fault: 4,
        }
    }
}

/// What one faulty connection got back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A parseable HTTP status line arrived.
    Status(u16),
    /// The daemon closed the connection without writing a response —
    /// legitimate for clients that vanish mid-request.
    Closed,
    /// Nothing happened within the read timeout. Always a failure.
    Hang,
}

/// One scenario's results.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Scenario name (stable, used in CI logs).
    pub name: &'static str,
    /// Connections attempted.
    pub attempts: usize,
    /// Human-readable descriptions of every contract violation.
    pub failures: Vec<String>,
}

/// The full chaos report: per-scenario outcomes plus the final
/// liveness verdict.
#[derive(Debug)]
pub struct ChaosReport {
    /// Outcomes in execution order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Whether the daemon answered every inter-scenario liveness probe.
    pub daemon_alive: bool,
}

impl ChaosReport {
    /// `true` when the daemon survived with every fault classified.
    pub fn passed(&self) -> bool {
        self.daemon_alive && self.outcomes.iter().all(|o| o.failures.is_empty())
    }

    /// Render the report for humans / CI logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            if o.failures.is_empty() {
                out.push_str(&format!(
                    "  ok   {:24} {} connection(s)\n",
                    o.name, o.attempts
                ));
            } else {
                out.push_str(&format!(
                    "  FAIL {:24} {}/{} violation(s)\n",
                    o.name,
                    o.failures.len(),
                    o.attempts
                ));
                for f in &o.failures {
                    out.push_str(&format!("       - {f}\n"));
                }
            }
        }
        out.push_str(if self.daemon_alive {
            "  ok   daemon alive after every scenario\n"
        } else {
            "  FAIL daemon stopped answering the liveness probe\n"
        });
        out
    }
}

/// SplitMix64: tiny, deterministic, dependency-free. Not for crypto —
/// for reproducible chaos.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Runs every scenario against `addr` and returns the report. The only
/// error is failing to reach the daemon for the *initial* probe —
/// anything after that is recorded in the report instead.
pub fn run_chaos(addr: SocketAddr, cfg: &ChaosConfig) -> std::io::Result<ChaosReport> {
    // The daemon must be up before chaos starts, else every scenario
    // "fails" vacuously.
    let initial = probe(addr, cfg);
    if initial != Reply::Status(200) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            format!("target {addr} failed the pre-chaos liveness probe: {initial:?}"),
        ));
    }
    let mut rng = SplitMix64(cfg.seed);
    let mut outcomes = Vec::new();
    let mut daemon_alive = true;
    type Scenario = fn(SocketAddr, &ChaosConfig, &mut SplitMix64, &mut Vec<String>);
    let scenarios: [(&'static str, Scenario); 9] = [
        ("garbage-prefix", garbage_prefix),
        ("torn-request-line", torn_request_line),
        ("torn-writes-valid", torn_writes_valid),
        ("mid-body-close", mid_body_close),
        ("header-flood", header_flood),
        ("oversized-header", oversized_header),
        ("huge-content-length", huge_content_length),
        ("stalled-read", stalled_read),
        ("slowloris-drip", slowloris_drip),
    ];
    for (name, scenario) in scenarios {
        let mut failures = Vec::new();
        let attempts = cfg.connections_per_fault.max(1);
        scenario(addr, cfg, &mut rng, &mut failures);
        // The daemon must still be alive and answering after every
        // scenario — a single dead worker shows up here immediately.
        if probe(addr, cfg) != Reply::Status(200) {
            failures.push("daemon failed the post-scenario liveness probe".to_string());
            daemon_alive = false;
        }
        outcomes.push(ScenarioOutcome {
            name,
            attempts,
            failures,
        });
        if !daemon_alive {
            break; // no point torturing a corpse; report what we have
        }
    }
    Ok(ChaosReport {
        outcomes,
        daemon_alive,
    })
}

/// GET /healthz with the harness timeout.
fn probe(addr: SocketAddr, cfg: &ChaosConfig) -> Reply {
    let Ok(mut s) = connect(addr, cfg) else {
        return Reply::Hang;
    };
    if write!(s, "GET /healthz HTTP/1.1\r\nHost: chaos\r\n\r\n").is_err() {
        return Reply::Closed;
    }
    read_reply(&mut s)
}

fn connect(addr: SocketAddr, cfg: &ChaosConfig) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, Duration::from_secs_f64(cfg.read_timeout_s))?;
    s.set_read_timeout(Some(Duration::from_secs_f64(cfg.read_timeout_s)))?;
    s.set_write_timeout(Some(Duration::from_secs_f64(cfg.read_timeout_s)))?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// Drains the connection and classifies what came back.
fn read_reply(s: &mut TcpStream) -> Reply {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                // A full response always ends after Content-Length
                // bytes and the server closes; keep reading to EOF but
                // bail out if someone sends us a flood.
                if raw.len() > 1 << 20 {
                    break;
                }
            }
            Err(_) => {
                // Timeout with bytes already received still counts as
                // a response if the status line parses; with nothing
                // received it is a hang.
                break;
            }
        }
    }
    parse_status(&raw)
}

fn parse_status(raw: &[u8]) -> Reply {
    if raw.is_empty() {
        return Reply::Closed;
    }
    let text = String::from_utf8_lossy(raw);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|code| code.parse::<u16>().ok());
    match status {
        Some(code) => Reply::Status(code),
        None => Reply::Closed, // bytes but no status line: treat as close
    }
}

fn check(
    failures: &mut Vec<String>,
    scenario: &str,
    attempt: usize,
    got: &Reply,
    accept: &[Reply],
) {
    if !accept.contains(got) {
        failures.push(format!(
            "{scenario}#{attempt}: got {got:?}, accepted {accept:?}"
        ));
    }
}

// ------------------------------------------------------------ scenarios

/// Random non-HTTP bytes, properly terminated: must be a 400, never a
/// crash or a hang.
fn garbage_prefix(
    addr: SocketAddr,
    cfg: &ChaosConfig,
    rng: &mut SplitMix64,
    failures: &mut Vec<String>,
) {
    for attempt in 0..cfg.connections_per_fault.max(1) {
        let Ok(mut s) = connect(addr, cfg) else {
            failures.push(format!("garbage-prefix#{attempt}: connect failed"));
            continue;
        };
        let len = 8 + rng.below(512);
        let mut garbage = Vec::with_capacity(len + 4);
        for _ in 0..len {
            // Printable-ish bytes, never CR/LF, so the terminator we
            // append is the only one.
            garbage.push(b' ' + (rng.next() % 94) as u8);
        }
        garbage.extend_from_slice(b"\r\n\r\n");
        if s.write_all(&garbage).is_err() {
            // Early server-side close is acceptable.
            continue;
        }
        let got = read_reply(&mut s);
        check(
            failures,
            "garbage-prefix",
            attempt,
            &got,
            &[Reply::Status(400)],
        );
    }
}

/// A request line cut off at a seeded offset, then write-shutdown: the
/// daemon sees EOF mid-headers and must close (or answer 400), never
/// hang.
fn torn_request_line(
    addr: SocketAddr,
    cfg: &ChaosConfig,
    rng: &mut SplitMix64,
    failures: &mut Vec<String>,
) {
    let line = b"POST /spec HTTP/1.1\r\nContent-Length: 10\r\n";
    for attempt in 0..cfg.connections_per_fault.max(1) {
        let Ok(mut s) = connect(addr, cfg) else {
            failures.push(format!("torn-request-line#{attempt}: connect failed"));
            continue;
        };
        let cut = 1 + rng.below(line.len() - 1);
        if s.write_all(&line[..cut]).is_err() {
            continue;
        }
        let _ = s.shutdown(Shutdown::Write);
        let got = read_reply(&mut s);
        check(
            failures,
            "torn-request-line",
            attempt,
            &got,
            &[Reply::Closed, Reply::Status(400)],
        );
    }
}

/// A fully valid request delivered in pathological fragments (seeded
/// split points, including mid-CRLF): correctness demands a 200 — torn
/// writes are legal TCP, not a fault.
fn torn_writes_valid(
    addr: SocketAddr,
    cfg: &ChaosConfig,
    rng: &mut SplitMix64,
    failures: &mut Vec<String>,
) {
    let body = "{\"characteristics\": {\"size\": 60, \"ccr\": 0.2, \"parallelism\": 0.5, \
                \"density\": 0.5, \"regularity\": 0.8, \"mean_comp\": 10}}";
    let raw = format!(
        "POST /spec HTTP/1.1\r\nHost: chaos\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    for attempt in 0..cfg.connections_per_fault.max(1) {
        let Ok(mut s) = connect(addr, cfg) else {
            failures.push(format!("torn-writes-valid#{attempt}: connect failed"));
            continue;
        };
        let bytes = raw.as_bytes();
        let mut sent = 0;
        let mut write_failed = false;
        while sent < bytes.len() {
            let n = 1 + rng.below(7.min(bytes.len() - sent));
            if s.write_all(&bytes[sent..sent + n]).is_err() {
                write_failed = true;
                break;
            }
            let _ = s.flush();
            sent += n;
        }
        if write_failed {
            failures.push(format!(
                "torn-writes-valid#{attempt}: write failed mid-request"
            ));
            continue;
        }
        let got = read_reply(&mut s);
        // 503 is admission control under load, which is allowed; what
        // is not allowed is a parse error or silence.
        check(
            failures,
            "torn-writes-valid",
            attempt,
            &got,
            &[Reply::Status(200), Reply::Status(503)],
        );
    }
}

/// Valid headers declaring a body, a seeded fraction of it, then a
/// close: the daemon must treat the vanished client as exactly that.
fn mid_body_close(
    addr: SocketAddr,
    cfg: &ChaosConfig,
    rng: &mut SplitMix64,
    failures: &mut Vec<String>,
) {
    for attempt in 0..cfg.connections_per_fault.max(1) {
        let Ok(mut s) = connect(addr, cfg) else {
            failures.push(format!("mid-body-close#{attempt}: connect failed"));
            continue;
        };
        let declared = 64 + rng.below(512);
        let sent = rng.below(declared);
        let head =
            format!("POST /spec HTTP/1.1\r\nHost: chaos\r\nContent-Length: {declared}\r\n\r\n");
        if s.write_all(head.as_bytes()).is_err() {
            continue;
        }
        let partial: Vec<u8> = (0..sent).map(|_| b'x').collect();
        let _ = s.write_all(&partial);
        let _ = s.shutdown(Shutdown::Write);
        let got = read_reply(&mut s);
        check(
            failures,
            "mid-body-close",
            attempt,
            &got,
            &[Reply::Closed, Reply::Status(400)],
        );
    }
}

/// More header lines than [`crate::http::MAX_HEADER_COUNT`]: must be
/// 431 (or a close if the daemon hangs up first).
fn header_flood(
    addr: SocketAddr,
    cfg: &ChaosConfig,
    rng: &mut SplitMix64,
    failures: &mut Vec<String>,
) {
    for attempt in 0..cfg.connections_per_fault.max(1) {
        let Ok(mut s) = connect(addr, cfg) else {
            failures.push(format!("header-flood#{attempt}: connect failed"));
            continue;
        };
        let lines = crate::http::MAX_HEADER_COUNT + 1 + rng.below(64);
        let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..lines {
            raw.push_str(&format!("X-Flood-{i}: {}\r\n", rng.next()));
        }
        raw.push_str("\r\n");
        if s.write_all(raw.as_bytes()).is_err() {
            continue;
        }
        let got = read_reply(&mut s);
        check(
            failures,
            "header-flood",
            attempt,
            &got,
            &[Reply::Status(431), Reply::Closed],
        );
    }
}

/// One header larger than [`crate::http::MAX_HEADER_BYTES`]: 431.
fn oversized_header(
    addr: SocketAddr,
    cfg: &ChaosConfig,
    rng: &mut SplitMix64,
    failures: &mut Vec<String>,
) {
    for attempt in 0..cfg.connections_per_fault.max(1) {
        let Ok(mut s) = connect(addr, cfg) else {
            failures.push(format!("oversized-header#{attempt}: connect failed"));
            continue;
        };
        let pad = crate::http::MAX_HEADER_BYTES + 1024 + rng.below(4096);
        let raw = format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(pad)
        );
        if s.write_all(raw.as_bytes()).is_err() {
            // The daemon may 431 and close before we finish writing
            // the flood; that is the defense working.
            continue;
        }
        let got = read_reply(&mut s);
        check(
            failures,
            "oversized-header",
            attempt,
            &got,
            &[Reply::Status(431), Reply::Closed],
        );
    }
}

/// A `Content-Length` past the body cap (413) and an unparseable one
/// (400) — both rejected before any body byte is read.
fn huge_content_length(
    addr: SocketAddr,
    cfg: &ChaosConfig,
    rng: &mut SplitMix64,
    failures: &mut Vec<String>,
) {
    for attempt in 0..cfg.connections_per_fault.max(1) {
        let Ok(mut s) = connect(addr, cfg) else {
            failures.push(format!("huge-content-length#{attempt}: connect failed"));
            continue;
        };
        let (value, accept): (String, &[Reply]) = if attempt % 2 == 0 {
            // Parseable but far past any sane cap.
            (
                format!("{}", (1u64 << 31) + rng.next() % (1 << 20)),
                &[Reply::Status(413)],
            )
        } else {
            // Unparseable.
            ("9".repeat(40), &[Reply::Status(400)])
        };
        let raw = format!("POST /spec HTTP/1.1\r\nHost: chaos\r\nContent-Length: {value}\r\n\r\n");
        if s.write_all(raw.as_bytes()).is_err() {
            continue;
        }
        let got = read_reply(&mut s);
        check(failures, "huge-content-length", attempt, &got, accept);
    }
}

/// A valid request whose client never reads the response and then
/// leaves: the daemon's write timeout must reclaim the worker. We only
/// assert daemon survival (via the scenario-exit probe).
fn stalled_read(
    addr: SocketAddr,
    cfg: &ChaosConfig,
    rng: &mut SplitMix64,
    failures: &mut Vec<String>,
) {
    for attempt in 0..cfg.connections_per_fault.max(1) {
        let Ok(mut s) = connect(addr, cfg) else {
            failures.push(format!("stalled-read#{attempt}: connect failed"));
            continue;
        };
        if write!(s, "GET /healthz HTTP/1.1\r\nHost: chaos\r\n\r\n").is_err() {
            continue;
        }
        // Stall, then abandon without reading. Responses are small
        // enough to fit the socket buffer, so this mostly exercises
        // the write path's independence from client cooperation.
        std::thread::sleep(Duration::from_millis(50 + rng.below(200) as u64));
        drop(s);
    }
}

/// Header bytes dripped one at a time past the daemon's request
/// deadline: the deadline re-check inside the request reader must cut
/// the connection off with a 408 (or a close), bounding total drip
/// time even though every single byte lands inside the per-read
/// socket timeout.
fn slowloris_drip(
    addr: SocketAddr,
    cfg: &ChaosConfig,
    rng: &mut SplitMix64,
    failures: &mut Vec<String>,
) {
    // One connection is enough — this scenario costs wall time by
    // design, and the contract is identical across connections.
    let attempt = 0;
    let Ok(mut s) = connect(addr, cfg) else {
        failures.push("slowloris-drip#0: connect failed".to_string());
        return;
    };
    let head = b"GET /healthz HTTP/1.1\r\nX-Drip: ";
    if s.write_all(head).is_err() {
        failures.push("slowloris-drip#0: initial write failed".to_string());
        return;
    }
    // Drip one byte every 100 ms for deadline + 3 s; stop early the
    // moment the daemon gives up on us (write error).
    let drips = ((cfg.deadline_hint_s + 3.0) * 10.0) as usize;
    for _ in 0..drips {
        std::thread::sleep(Duration::from_millis(100));
        let byte = [b'a' + (rng.next() % 26) as u8];
        if s.write_all(&byte).is_err() || s.flush().is_err() {
            break;
        }
    }
    let got = read_reply(&mut s);
    check(
        failures,
        "slowloris-drip",
        attempt,
        &got,
        &[Reply::Status(408), Reply::Closed],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::server::{ServeConfig, Server};
    use rsg_core::curve::CurveConfig;
    use rsg_core::heurmodel::HeuristicPredictionModel;
    use rsg_core::observation::{measure, ObservationGrid};
    use rsg_core::ThresholdedSizeModel;
    use rsg_sched::HeuristicKind;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = SplitMix64(43);
        assert_ne!(a.next(), c.next());
        for _ in 0..1000 {
            assert!(a.below(7) < 7);
        }
    }

    #[test]
    fn status_parsing_classifies_replies() {
        assert_eq!(parse_status(b""), Reply::Closed);
        assert_eq!(
            parse_status(b"HTTP/1.1 408 Request Timeout\r\n"),
            Reply::Status(408)
        );
        assert_eq!(parse_status(b"not http"), Reply::Closed);
    }

    #[test]
    fn full_chaos_run_against_a_live_daemon_passes() {
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
            // Short deadline so the slowloris scenario resolves fast.
            default_deadline_s: 1.0,
            ..ServeConfig::default()
        };
        let server = Server::spawn(&cfg, registry).unwrap();
        let chaos = ChaosConfig {
            seed: 7,
            deadline_hint_s: 1.0,
            read_timeout_s: 10.0,
            connections_per_fault: 2,
        };
        let report = run_chaos(server.addr(), &chaos).expect("daemon reachable");
        assert!(report.passed(), "chaos report:\n{}", report.render());
        assert_eq!(report.outcomes.len(), 9, "all scenarios ran");
    }
}
