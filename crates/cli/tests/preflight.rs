//! End-to-end test of `rsg serve --preflight`: the real binary, a real
//! deployment tree. A tree that fails the audit must refuse to boot —
//! structured TSV diagnostics on stderr, the lint exit code, and no
//! socket ever bound — while a clean tree must report the preflight
//! verdict and then come up serving, and a tree holding the daemon's
//! own delta journal must stay clean.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn audit_fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/audit")
}

/// Spawns `rsg serve` with `args` and reads its stdout up to and
/// including the first line containing `until`. Returns the running
/// child and the lines read; panics (after killing the child) if
/// stdout ends first, which means the server died early.
fn boot(args: &[&str], until: &str) -> (Child, Vec<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rsg"))
        .arg("serve")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rsg serve");
    // Stdout is line-buffered; read until the marker (or EOF).
    let mut lines = Vec::new();
    let reader = BufReader::new(child.stdout.take().unwrap());
    for line in reader.lines() {
        let line = line.expect("read server stdout");
        let done = line.contains(until);
        lines.push(line);
        if done {
            return (child, lines);
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("server never printed {until:?}:\n{}", lines.join("\n"))
}

/// The `host:port` after `http://` in a boot line.
fn addr_in(line: &str) -> String {
    line.split("http://")
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .expect("addr in the boot line")
        .to_string()
}

/// One request on its own connection; returns the status and body.
fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read reply");
    let status = raw.split(' ').nth(1).and_then(|v| v.parse().ok());
    let payload = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string());
    (status.unwrap_or(0), payload.unwrap_or_default())
}

#[test]
fn preflight_refuses_to_boot_a_defective_tree() {
    let bad = audit_fixtures().join("defect/AUDIT004_sequence_gap");
    let output = Command::new(env!("CARGO_BIN_EXE_rsg"))
        .args(["serve", "--models", bad.to_str().unwrap(), "--preflight"])
        .output()
        .expect("spawn rsg serve");
    assert_eq!(
        output.status.code(),
        Some(6),
        "preflight failure must use the lint exit code"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    // Structured diagnostics, machine-splittable, before the refusal.
    assert!(
        stderr.contains("rsg-analyze-report\tv1"),
        "stderr must carry the TSV report header:\n{stderr}"
    );
    assert!(
        stderr.contains("diag\tAUDIT004\terror\t"),
        "stderr must name the failing artifact:\n{stderr}"
    );
    assert!(stderr.contains("refusing to boot"), "{stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        !stdout.contains("listening"),
        "a refused boot must never bind a socket:\n{stdout}"
    );
}

#[test]
fn preflight_boots_and_serves_a_clean_tree() {
    let clean = audit_fixtures().join("clean");
    let (mut child, lines) = boot(
        &[
            "--models",
            clean.to_str().unwrap(),
            "--preflight",
            "--addr",
            "127.0.0.1:0",
        ],
        "listening on http://",
    );
    let boot_log = lines.join("\n");

    // The preflight verdict must precede the bind, and the socket must
    // actually answer.
    assert!(
        lines[0].starts_with("preflight:") && lines[0].contains("clean"),
        "first boot line must be the preflight verdict:\n{boot_log}"
    );
    let addr = addr_in(lines.last().unwrap());
    let alive = std::net::TcpStream::connect(&addr).is_ok();
    let _ = child.kill();
    let _ = child.wait();
    assert!(alive, "could not connect to {addr}:\n{boot_log}");
}

/// The daemon keys its delta journal with the serving engine's sweep
/// fingerprint. The daemon records metrics (observability on) while
/// `rsg audit` does not, so the two must agree on that digest whatever
/// the observability setting, or the audit would flag — and
/// `--preflight` refuse — the daemon's own journal.
#[test]
fn daemon_delta_journal_audits_clean_and_passes_preflight() {
    let tree = std::env::temp_dir().join(format!("rsg-preflight-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tree);
    std::fs::create_dir_all(tree.join("models")).unwrap();
    std::fs::copy(
        audit_fixtures().join("clean/models/size_model.tsv"),
        tree.join("models/size_model.tsv"),
    )
    .unwrap();
    let models = tree.to_str().unwrap();
    let journal = tree.join("deltas.journal");

    let (mut child, lines) = boot(
        &[
            "--models",
            models,
            "--addr",
            "127.0.0.1:0",
            "--admin-addr",
            "127.0.0.1:0",
            "--delta-journal",
            journal.to_str().unwrap(),
        ],
        "admin surface on http://",
    );
    let admin = addr_in(lines.last().unwrap());
    let (status, body) = request(
        &admin,
        "POST",
        "/admin/platform",
        r#"{"deltas": [{"seq": 1, "delta": "price\t0.25"}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"applied\": 1"), "{body}");
    let (status, body) = request(&admin, "POST", "/admin/drain", "");
    assert_eq!(status, 200, "{body}");
    let exit = child.wait().expect("daemon exit");
    assert!(exit.success(), "drained daemon exited with {exit}");
    assert!(journal.exists(), "the daemon wrote no delta journal");

    let audit = Command::new(env!("CARGO_BIN_EXE_rsg"))
        .args(["audit", models])
        .output()
        .expect("spawn rsg audit");
    assert!(
        audit.status.success(),
        "rsg audit failed on the daemon's own tree:\n{}",
        String::from_utf8_lossy(&audit.stdout)
    );

    let (mut child, lines) = boot(
        &["--models", models, "--preflight", "--addr", "127.0.0.1:0"],
        "listening on http://",
    );
    let _ = child.kill();
    let _ = child.wait();
    assert!(
        lines[0].starts_with("preflight:") && lines[0].contains("clean"),
        "preflight must pass the daemon's own tree:\n{}",
        lines.join("\n")
    );
    let _ = std::fs::remove_dir_all(&tree);
}
