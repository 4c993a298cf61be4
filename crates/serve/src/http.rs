//! A minimal HTTP/1.1 subset: enough to parse one request per
//! connection and write one response, with no dependencies.
//!
//! The server speaks `Connection: close` — one request, one response,
//! one TCP connection. That keeps the worker pool's accounting trivial
//! (a queued item *is* a request) and matches the closed-loop clients
//! of the benchmark and the chaos harness. Bodies are read by `Content-Length` only; chunked
//! encoding is rejected as a 400.
//!
//! Everything the reader accepts is bounded — header bytes
//! ([`MAX_HEADER_BYTES`]), header count ([`MAX_HEADER_COUNT`]), body
//! bytes (caller-supplied), and wall time (an optional [`Deadline`]
//! checked between reads) — so a hostile client can exhaust neither
//! memory nor a worker's patience. The chaos harness
//! ([`crate::chaostcp`]) drives every one of these limits over a real
//! socket.

use crate::deadline::Deadline;
use std::io::{Read, Write};

/// Cap on the request-line + header block, bytes. A legitimate request
/// to this API carries a handful of short headers; 16 KiB is generous.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Cap on the number of header lines. The API needs two
/// (`Content-Length`, optionally `Host`); 64 tolerates chatty proxies.
pub const MAX_HEADER_COUNT: usize = 64;

/// A parsed request: method, path and (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request path, query string included verbatim (routing ignores
    /// the query string; no endpoint takes query parameters).
    pub path: String,
    /// Request body (UTF-8; empty when absent).
    pub body: String,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes were not a parseable HTTP/1.1 request.
    Malformed(String),
    /// The declared body exceeds the configured limit.
    TooLarge(usize),
    /// The header block exceeds [`MAX_HEADER_BYTES`] or
    /// [`MAX_HEADER_COUNT`] (answered 431).
    HeadersTooLarge(String),
    /// The client ran out the read clock: a socket read timed out, or
    /// the request's [`Deadline`] expired mid-read (answered 408).
    Timeout,
    /// The socket failed mid-read (client gone; nothing to answer).
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(n) => write!(f, "request body of {n} bytes exceeds the limit"),
            HttpError::HeadersTooLarge(m) => write!(f, "request headers too large: {m}"),
            HttpError::Timeout => write!(f, "timed out reading the request"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// Reads one HTTP/1.1 request from `stream`, honoring `Content-Length`
/// up to `max_body` bytes. Equivalent to
/// [`read_request_with_deadline`] with no deadline (kept as the simple
/// entry point for tests and tools that read from buffers).
pub fn read_request(stream: &mut dyn Read, max_body: usize) -> Result<HttpRequest, HttpError> {
    read_request_with_deadline(stream, max_body, None)
}

/// Reads one HTTP/1.1 request, additionally giving up with
/// [`HttpError::Timeout`] once `deadline` expires. Socket read
/// timeouts only bound a *single* `read()`; a byte-dripping client
/// (slowloris) passes each per-read timeout while holding the worker
/// indefinitely, so the deadline is re-checked between reads.
pub fn read_request_with_deadline(
    stream: &mut dyn Read,
    max_body: usize,
    deadline: Option<&Deadline>,
) -> Result<HttpRequest, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_terminator(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(HttpError::HeadersTooLarge(format!(
                "header block exceeds {MAX_HEADER_BYTES} bytes"
            )));
        }
        if deadline.is_some_and(Deadline::expired) {
            return Err(HttpError::Timeout);
        }
        let n = read_classified(stream, &mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed(
                "connection closed before the header terminator".into(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    // The mid-read cap above fires while the flood is still arriving;
    // this one catches a block that sneaks its terminator into the
    // same read that crossed the limit.
    if head_end > MAX_HEADER_BYTES {
        return Err(HttpError::HeadersTooLarge(format!(
            "header block of {head_end} bytes exceeds {MAX_HEADER_BYTES}"
        )));
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("header block is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing path".into()))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::Malformed("not an HTTP/1.x request".into())),
    }

    let mut content_length = 0usize;
    let mut header_count = 0usize;
    for line in lines {
        header_count += 1;
        if header_count > MAX_HEADER_COUNT {
            return Err(HttpError::HeadersTooLarge(format!(
                "more than {MAX_HEADER_COUNT} header lines"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length '{value}'")))?;
        } else if name == "transfer-encoding" {
            return Err(HttpError::Malformed(
                "chunked transfer encoding is not supported".into(),
            ));
        }
    }
    if content_length > max_body {
        return Err(HttpError::TooLarge(content_length));
    }

    let body_start = head_end + 4;
    let mut body: Vec<u8> = buf[body_start.min(buf.len())..].to_vec();
    while body.len() < content_length {
        if deadline.is_some_and(Deadline::expired) {
            return Err(HttpError::Timeout);
        }
        let n = read_classified(stream, &mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body =
        String::from_utf8(body).map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?;
    Ok(HttpRequest { method, path, body })
}

/// One `read()` with its error classified: a socket-timeout errno
/// (`WouldBlock`/`TimedOut`, which is what `SO_RCVTIMEO` produces)
/// becomes [`HttpError::Timeout`] so the caller can answer 408; every
/// other failure stays an I/O error (client gone, nothing to answer).
fn read_classified(stream: &mut dyn Read, chunk: &mut [u8]) -> Result<usize, HttpError> {
    use std::io::ErrorKind;
    stream.read(chunk).map_err(|e| match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    })
}

/// Byte offset of the `\r\n\r\n` header terminator, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Retry-After` header value in seconds, when the server is
    /// shedding load (503/504).
    pub retry_after_s: Option<u32>,
}

impl HttpResponse {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> HttpResponse {
        HttpResponse {
            status,
            body,
            retry_after_s: None,
        }
    }
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// Serializes `resp` onto the stream (`Connection: close` style).
pub fn write_response(stream: &mut dyn Write, resp: &HttpResponse) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        status_text(resp.status),
        resp.body.len()
    );
    if let Some(s) = resp.retry_after_s {
        head.push_str(&format!("Retry-After: {s}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<HttpRequest, HttpError> {
        read_request(&mut raw.as_bytes(), 1024)
    }

    #[test]
    fn parses_get_without_body() {
        let r = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.body, "");
    }

    #[test]
    fn parses_post_with_content_length() {
        let r = parse(
            "POST /spec HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, "{\"a\":1}");
    }

    #[test]
    fn body_split_across_reads_is_reassembled() {
        // A reader that yields one byte at a time.
        struct Trickle<'a>(&'a [u8], usize);
        impl Read for Trickle<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                out[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let r = read_request(&mut Trickle(raw, 0), 1024).unwrap();
        assert_eq!(r.body, "body");
    }

    #[test]
    fn rejects_garbage_oversize_and_chunked() {
        assert!(matches!(
            parse("NONSENSE\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(HttpError::TooLarge(9999))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x SPDY/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_header_block_is_431_not_400() {
        // A single endless header line: the byte cap trips before the
        // terminator ever arrives, whether or not the line ends.
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_BYTES + 8)
        );
        assert!(matches!(parse(&raw), Err(HttpError::HeadersTooLarge(_))));
        // Same cap when the flood never terminates at all.
        let endless = format!("GET / HTTP/1.1\r\n{}", "X: y\r\n".repeat(MAX_HEADER_BYTES));
        assert!(matches!(
            parse(&endless),
            Err(HttpError::HeadersTooLarge(_))
        ));
    }

    #[test]
    fn too_many_header_lines_is_431() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADER_COUNT + 1) {
            raw.push_str(&format!("X-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(parse(&raw), Err(HttpError::HeadersTooLarge(_))));
        // Exactly at the cap still parses.
        let mut ok = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADER_COUNT - 1) {
            ok.push_str(&format!("X-{i}: v\r\n"));
        }
        ok.push_str("\r\n");
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn expired_deadline_mid_read_is_a_timeout() {
        // A reader that never finishes the header block; the expired
        // deadline must cut it off as Timeout, not loop forever.
        struct Dribble(usize);
        impl Read for Dribble {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.0 += 1;
                out[0] = b'a';
                Ok(1)
            }
        }
        let spent = Deadline::start(0.0);
        let e = read_request_with_deadline(&mut Dribble(0), 1024, Some(&spent));
        assert!(matches!(e, Err(HttpError::Timeout)), "{e:?}");
        // And mid-body: headers complete, body never does.
        struct HeadThenDribble(Vec<u8>, usize);
        impl Read for HeadThenDribble {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.1 < self.0.len() {
                    let n = (self.0.len() - self.1).min(out.len());
                    out[..n].copy_from_slice(&self.0[self.1..self.1 + n]);
                    self.1 += n;
                    return Ok(n);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                out[0] = b'x';
                Ok(1)
            }
        }
        let head = b"POST /x HTTP/1.1\r\nContent-Length: 900\r\n\r\n".to_vec();
        let d = Deadline::start(0.02);
        let e = read_request_with_deadline(&mut HeadThenDribble(head, 0), 1024, Some(&d));
        assert!(matches!(e, Err(HttpError::Timeout)), "{e:?}");
    }

    #[test]
    fn socket_timeout_errno_maps_to_timeout() {
        struct TimesOut;
        impl Read for TimesOut {
            fn read(&mut self, _out: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
        }
        assert!(matches!(
            read_request(&mut TimesOut, 1024),
            Err(HttpError::Timeout)
        ));
    }

    #[test]
    fn response_serialization_includes_retry_after() {
        let mut out = Vec::new();
        let resp = HttpResponse {
            status: 503,
            body: "{}".into(),
            retry_after_s: Some(1),
        };
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
