//! A minimal HTTP/1.1 server and Prometheus text exposition, for the
//! search observatory's `/metrics`, `/status`, and `/healthz` endpoints.
//!
//! Like the rest of `rt` this is dependency-free: the server is a
//! [`crate::net::Listener`] accept loop on a pair of supervised worker
//! slots ([`crate::supervise::Supervisor`]), and the exposition writer/
//! parser speak the Prometheus text format directly. The surface is
//! deliberately tiny — `GET`-only, `Connection: close`, no keep-alive,
//! no TLS — because its one job is letting `curl`/`watch`/a scraper
//! read a live search's state.
//!
//! ```no_run
//! use rt::http::{Response, Server};
//!
//! let handle = Server::new()
//!     .route("/healthz", || Response::ok("text/plain", "ok\n".into()))
//!     .bind("127.0.0.1:0")
//!     .unwrap();
//! println!("listening on http://{}", handle.addr());
//! handle.stop();
//! ```
//!
//! Handlers only *read* shared state (a metrics snapshot, a status
//! cell); they never block on or mutate the computation being observed,
//! which is what lets a `--serve` run produce a byte-identical trace to
//! an unserved one.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::net::Listener;
use crate::obs::MetricValue;
use crate::supervise::Supervisor;

/// Number of supervised accept-loop threads per server. Two keeps one
/// slow client from blocking the next scrape without growing into a
/// real thread pool.
const ACCEPT_SLOTS: usize = 2;
/// Largest request head we will buffer before answering 431.
const MAX_HEAD: usize = 8 * 1024;
/// How often an idle accept slot checks the stop flag, and how long it
/// backs off after an accept error.
const STOP_POLL: Duration = Duration::from_millis(10);
/// Per-read socket deadline, so a stalled client cannot pin an accept
/// slot for long.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Per-write socket deadline: a client that stops draining its receive
/// buffer errors out instead of blocking the response write forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// Total budget for receiving one request head. The per-read timeout
/// alone is not a slowloris guard — a client dribbling one byte every
/// 1.9 s would extend it indefinitely; this caps the whole head.
const HEAD_DEADLINE: Duration = Duration::from_secs(5);

/// Per-connection socket deadlines, bundled so tests can exercise the
/// slowloris guard with short values.
#[derive(Debug, Clone, Copy)]
struct ConnLimits {
    read_timeout: Duration,
    write_timeout: Duration,
    head_deadline: Duration,
}

const DEFAULT_LIMITS: ConnLimits = ConnLimits {
    read_timeout: READ_TIMEOUT,
    write_timeout: WRITE_TIMEOUT,
    head_deadline: HEAD_DEADLINE,
};

/// An HTTP response a route handler produces.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code (200, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A 200 response with the given content type and body.
    pub fn ok(content_type: &'static str, body: String) -> Self {
        Self {
            status: 200,
            content_type,
            body,
        }
    }

    /// A 404 response.
    pub fn not_found() -> Self {
        Self {
            status: 404,
            content_type: "text/plain",
            body: "not found\n".to_string(),
        }
    }

    fn status_reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            431 => "Request Header Fields Too Large",
            _ => "Response",
        }
    }

    fn write_to(&self, stream: &mut TcpStream) {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.status_reason(),
            self.content_type,
            self.body.len()
        );
        // A client hanging up mid-write is its problem, not ours.
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(self.body.as_bytes());
        let _ = stream.flush();
    }
}

type Handler = Arc<dyn Fn() -> Response + Send + Sync>;

/// A route table under construction; [`Server::bind`] turns it into a
/// live [`ServerHandle`].
#[derive(Default, Clone)]
pub struct Server {
    routes: Vec<(String, Handler)>,
}

impl Server {
    /// An empty route table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `handler` for exact-path GETs of `path` (the query
    /// string, if any, is ignored for matching).
    pub fn route(
        mut self,
        path: &str,
        handler: impl Fn() -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes.push((path.to_string(), Arc::new(handler)));
        self
    }

    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving on background threads. The returned handle stops
    /// the server when dropped.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the address cannot be bound.
    pub fn bind(self, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = Listener::bind(addr)?;
        let local = listener.local_addr()?;
        let listener = Arc::new(listener);
        let stop = Arc::new(AtomicBool::new(false));
        let routes = Arc::new(self.routes);

        let mut supervisor = Supervisor::new();
        for _ in 0..ACCEPT_SLOTS {
            let listener = Arc::clone(&listener);
            let stop = Arc::clone(&stop);
            let routes = Arc::clone(&routes);
            supervisor.spawn(move |ctx| {
                while ctx.is_current() && !stop.load(Ordering::Acquire) {
                    match listener.accept_timeout(STOP_POLL) {
                        Ok(Some((stream, _peer))) => {
                            serve_connection(stream, &routes, DEFAULT_LIMITS)
                        }
                        Ok(None) => {}
                        // Transient accept errors (ECONNABORTED etc.):
                        // back off briefly and keep serving.
                        Err(_) => std::thread::sleep(STOP_POLL),
                    }
                }
            });
        }

        Ok(ServerHandle {
            addr: local,
            stop,
            _supervisor: supervisor,
        })
    }
}

/// A running server. Dropping the handle (or calling
/// [`ServerHandle::stop`]) asks the accept loops to wind down; they
/// exit within one poll interval.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    _supervisor: Supervisor,
}

impl ServerHandle {
    /// The actual bound address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown of the accept loops. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads one request head, dispatches it against the route table, and
/// writes one response. Any protocol violation gets a plain 4xx; a
/// client still dribbling its head at the total deadline gets a 408.
fn serve_connection(mut stream: TcpStream, routes: &[(String, Handler)], limits: ConnLimits) {
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let deadline = std::time::Instant::now() + limits.head_deadline;

    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let complete = loop {
        // Each read waits no longer than the head budget has left, so
        // byte-at-a-time dribbling cannot extend the deadline.
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            Response {
                status: 408,
                content_type: "text/plain",
                body: "request head too slow\n".to_string(),
            }
            .write_to(&mut stream);
            return;
        }
        let _ = stream.set_read_timeout(Some(limits.read_timeout.min(remaining)));
        match stream.read(&mut buf) {
            Ok(0) => break false,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") {
                    break true;
                }
                if head.len() > MAX_HEAD {
                    Response {
                        status: 431,
                        content_type: "text/plain",
                        body: "request head too large\n".to_string(),
                    }
                    .write_to(&mut stream);
                    return;
                }
            }
            Err(ref e)
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                // Per-read timeout: loop back; the deadline check above
                // decides whether the connection still has budget.
                continue;
            }
            Err(_) => break false,
        }
    };
    if !complete {
        return; // client hung up or timed out before finishing the head
    }

    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m, t),
        _ => {
            Response {
                status: 400,
                content_type: "text/plain",
                body: "malformed request line\n".to_string(),
            }
            .write_to(&mut stream);
            return;
        }
    };
    if method != "GET" {
        Response {
            status: 405,
            content_type: "text/plain",
            body: "only GET is supported\n".to_string(),
        }
        .write_to(&mut stream);
        return;
    }
    let path = target.split('?').next().unwrap_or(target);
    let response = routes
        .iter()
        .find(|(p, _)| p == path)
        .map(|(_, h)| h())
        .unwrap_or_else(Response::not_found);
    response.write_to(&mut stream);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Formats an f64 the way the Prometheus text format spells special
/// values (`+Inf`, `-Inf`, `NaN`).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// A metric name sanitized to the Prometheus grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — the registry's dotted names
/// (`engine.cache_hits`) become underscored (`engine_cache_hits`).
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Splits a registry key into its metric name and (possibly empty)
/// label block. Labeled keys are built by `rt::obs::labeled_key` as
/// `name{k="v",...}` with values already escaped, so the block after
/// the first `{` passes through to the exposition verbatim.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(at) => (&key[..at], &key[at..]),
        None => (key, ""),
    }
}

/// Appends one more `label="value"` pair to a rendered label block
/// (`""` or `{...}`), used to merge `quantile` into a summary sample's
/// existing labels.
fn with_label(block: &str, label: &str, value: &str) -> String {
    match block.strip_suffix('}') {
        Some(open) if open.len() > 1 => format!("{open},{label}=\"{value}\"}}"),
        _ => format!("{{{label}=\"{value}\"}}"),
    }
}

/// Renders a metrics snapshot (as returned by `Obs::snapshot`) in the
/// Prometheus text exposition format. Counters and gauges become one
/// sample each; histograms become a summary: `{quantile=...}` samples
/// plus `_sum` and `_count`. Labeled registry keys
/// (`name{worker="a:1"}`) render with their label block intact —
/// label values were escaped at key-build time
/// (`rt::obs::labeled_key`), so quotes, backslashes, and newlines in
/// values survive the text format. A `# TYPE` line is emitted once per
/// family: snapshots are sorted, so all series of one family are
/// adjacent.
pub fn prometheus_text(entries: &[(String, MetricValue)]) -> String {
    let mut out = String::new();
    let mut last_family: Option<String> = None;
    for (key, value) in entries {
        let (raw_name, labels) = split_key(key);
        let n = prom_name(raw_name);
        if last_family.as_deref() != Some(n.as_str()) {
            let kind = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "summary",
            };
            out.push_str(&format!("# TYPE {n} {kind}\n"));
            last_family = Some(n.clone());
        }
        match value {
            MetricValue::Counter(c) => {
                out.push_str(&format!("{n}{labels} {c}\n"));
            }
            MetricValue::Gauge(g) => {
                out.push_str(&format!("{n}{labels} {}\n", prom_f64(*g)));
            }
            MetricValue::Histogram(h) => {
                for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                    out.push_str(&format!(
                        "{n}{} {}\n",
                        with_label(labels, "quantile", q),
                        prom_f64(v)
                    ));
                }
                out.push_str(&format!("{n}_sum{labels} {}\n", prom_f64(h.sum)));
                out.push_str(&format!("{n}_count{labels} {}\n", h.count));
            }
        }
    }
    out
}

/// One parsed exposition sample: metric name, labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// `(label, value)` pairs in appearance order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit()
}

fn parse_value(text: &str) -> Option<f64> {
    match text {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse().ok(),
    }
}

/// Parses and validates Prometheus text exposition, the checker side of
/// [`prometheus_text`]. Comment lines (`# HELP` / `# TYPE` / plain
/// comments) are skipped; every other non-empty line must be a valid
/// sample.
///
/// # Errors
///
/// Returns `"line N: reason"` for the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(samples)
}

/// Decoded `(name, value)` label pairs and the text after the block's
/// closing `}`.
type LabelBlock<'a> = (Vec<(String, String)>, &'a str);

/// Parses a label block body (after the opening `{`) handling the
/// text-format escapes in quoted values — `\\`, `\"`, and `\n` — so a
/// value may contain `}`, `,`, or `"` without breaking the line apart.
/// Returns the decoded pairs and the remainder after the closing `}`.
fn parse_label_block<'a>(body: &'a str, line: &str) -> Result<LabelBlock<'a>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim_start();
    loop {
        if let Some(tail) = rest.strip_prefix('}') {
            return Ok((labels, tail));
        }
        let key_end = rest
            .char_indices()
            .find(|&(_, c)| !is_name_char(c))
            .map_or(rest.len(), |(i, _)| i);
        let key = &rest[..key_end];
        if key.is_empty() || !key.chars().next().is_some_and(is_name_start) {
            return Err(format!("bad label name in {line:?}"));
        }
        rest = rest[key_end..]
            .strip_prefix('=')
            .and_then(|r| r.strip_prefix('"'))
            .ok_or_else(|| format!("unquoted label value in {line:?}"))?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let after_quote = loop {
            let (i, c) = chars
                .next()
                .ok_or_else(|| format!("unterminated label value in {line:?}"))?;
            match c {
                '"' => break i + 1,
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => {
                        return Err(format!(
                            "bad escape \\{} in {line:?}",
                            other.map_or(String::new(), |(_, c)| c.to_string())
                        ))
                    }
                },
                other => value.push(other),
            }
        };
        labels.push((key.to_string(), value));
        rest = rest[after_quote..].trim_start();
        if let Some(tail) = rest.strip_prefix(',') {
            rest = tail.trim_start();
        } else if !rest.starts_with('}') {
            return Err(format!("expected ',' or '}}' in label set of {line:?}"));
        }
    }
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let mut chars = line.char_indices().peekable();
    match chars.peek() {
        Some(&(_, c)) if is_name_start(c) => {}
        _ => return Err(format!("bad metric name in {line:?}")),
    }
    let mut name_end = line.len();
    for (i, c) in line.char_indices() {
        if !is_name_char(c) {
            name_end = i;
            break;
        }
    }
    let name = line[..name_end].to_string();
    let mut rest = &line[name_end..];

    let mut labels = Vec::new();
    if let Some(stripped) = rest.strip_prefix('{') {
        let (parsed, tail) = parse_label_block(stripped, line)?;
        labels = parsed;
        rest = tail;
    }

    let mut fields = rest.split_whitespace();
    let value_text = fields
        .next()
        .ok_or_else(|| format!("missing value in {line:?}"))?;
    let value =
        parse_value(value_text).ok_or_else(|| format!("bad value {value_text:?}"))?;
    // An optional trailing timestamp (integer milliseconds) is allowed.
    if let Some(ts) = fields.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("bad timestamp {ts:?}"))?;
    }
    if fields.next().is_some() {
        return Err(format!("trailing garbage in {line:?}"));
    }
    Ok(Sample { name, labels, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::HistogramSummary;
    use std::net::TcpListener;

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let status: u16 = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_routes_and_404s() {
        let handle = Server::new()
            .route("/healthz", || Response::ok("text/plain", "ok\n".into()))
            .route("/echo", || Response::ok("application/json", "{\"a\":1}".into()))
            .bind("127.0.0.1:0")
            .expect("bind");
        let addr = handle.addr();

        assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));
        assert_eq!(get(addr, "/echo").0, 200);
        assert_eq!(get(addr, "/healthz?verbose=1").0, 200, "query ignored");
        assert_eq!(get(addr, "/nope").0, 404);
        handle.stop();
    }

    #[test]
    fn rejects_non_get_and_garbage() {
        let handle = Server::new()
            .route("/x", || Response::ok("text/plain", "x".into()))
            .bind("127.0.0.1:0")
            .expect("bind");
        let addr = handle.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /x HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 405"), "got {text:?}");

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "complete nonsense\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "got {text:?}");
    }

    #[test]
    fn stop_ends_the_accept_loop() {
        let handle = Server::new()
            .route("/x", || Response::ok("text/plain", "x".into()))
            .bind("127.0.0.1:0")
            .expect("bind");
        let addr = handle.addr();
        assert_eq!(get(addr, "/x").0, 200);
        handle.stop();
        // Give the poll loops a moment to observe the flag; afterwards a
        // connection may still be accepted by the OS backlog but never
        // answered. We only assert the handle API is idempotent.
        handle.stop();
    }

    #[test]
    fn slowloris_head_gets_408_at_the_deadline() {
        // Drive serve_connection directly with a tight budget so the
        // test stays fast; the server path uses the same code with
        // DEFAULT_LIMITS.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let limits = ConnLimits {
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_millis(200),
            head_deadline: Duration::from_millis(200),
        };
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let routes: Vec<(String, Handler)> = vec![(
                "/x".to_string(),
                Arc::new(|| Response::ok("text/plain", "x".into())),
            )];
            serve_connection(stream, &routes, limits);
        });

        let start = std::time::Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        // Dribble an incomplete head slowly, never finishing it.
        for chunk in ["GET ", "/x H", "TTP/1."] {
            let _ = stream.write_all(chunk.as_bytes());
            std::thread::sleep(Duration::from_millis(80));
        }
        let mut text = String::new();
        let _ = stream.read_to_string(&mut text);
        server.join().unwrap();
        assert!(
            text.starts_with("HTTP/1.1 408"),
            "expected 408 for a dribbled head, got {text:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "deadline must cut the connection off promptly"
        );
    }

    #[test]
    fn partial_head_timeout_closes_within_budget() {
        // A client that connects and sends nothing is dropped once the
        // head budget lapses, freeing the accept slot.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let limits = ConnLimits {
            read_timeout: Duration::from_millis(40),
            write_timeout: Duration::from_millis(200),
            head_deadline: Duration::from_millis(120),
        };
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            serve_connection(stream, &[], limits);
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut text = String::new();
        let _ = stream.read_to_string(&mut text);
        server.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 408"), "got {text:?}");
    }

    #[test]
    fn exposition_round_trips() {
        let entries = vec![
            ("engine.models_evaluated".to_string(), MetricValue::Counter(42)),
            ("search.hypervolume".to_string(), MetricValue::Gauge(0.125)),
            (
                "span.train_s".to_string(),
                MetricValue::Histogram(HistogramSummary {
                    count: 3,
                    sum: 0.5,
                    p50: 0.1,
                    p90: 0.2,
                    p99: 0.3,
                }),
            ),
        ];
        let text = prometheus_text(&entries);
        assert!(text.contains("# TYPE engine_models_evaluated counter"));
        assert!(text.contains("engine_models_evaluated 42"));
        assert!(text.contains("search_hypervolume 0.125"));
        assert!(text.contains("span_train_s{quantile=\"0.99\"}"));
        assert!(text.contains("span_train_s_count 3"));

        let samples = parse_exposition(&text).expect("parses");
        assert_eq!(samples.len(), 2 + 5);
        let hv = samples
            .iter()
            .find(|s| s.name == "search_hypervolume")
            .unwrap();
        assert_eq!(hv.value, 0.125);
        let q99 = samples
            .iter()
            .find(|s| s.labels == vec![("quantile".to_string(), "0.99".to_string())])
            .unwrap();
        assert_eq!(q99.name, "span_train_s");
        assert_eq!(q99.value, 0.3);
    }

    #[test]
    fn labeled_families_render_and_round_trip() {
        let weird = "pa\\th \"q\"\nend"; // backslash, quotes, newline
        let entries = vec![
            (
                crate::obs::labeled_key("cluster.worker_jobs", &[("worker", "127.0.0.1:9471")]),
                MetricValue::Counter(7),
            ),
            (
                crate::obs::labeled_key("cluster.worker_jobs", &[("worker", weird)]),
                MetricValue::Counter(9),
            ),
            (
                crate::obs::labeled_key(
                    "cluster.worker_eval_s",
                    &[("worker", "127.0.0.1:9471")],
                ),
                MetricValue::Histogram(HistogramSummary {
                    count: 2,
                    sum: 0.3,
                    p50: 0.1,
                    p90: 0.2,
                    p99: 0.2,
                }),
            ),
        ];
        let text = prometheus_text(&entries);
        // One TYPE line per family even with several labeled series.
        assert_eq!(text.matches("# TYPE cluster_worker_jobs counter").count(), 1);
        assert!(text.contains("cluster_worker_jobs{worker=\"127.0.0.1:9471\"} 7"));
        // The summary merges quantile into the existing label block.
        assert!(text
            .contains("cluster_worker_eval_s{worker=\"127.0.0.1:9471\",quantile=\"0.5\"}"));
        assert!(text.contains("cluster_worker_eval_s_sum{worker=\"127.0.0.1:9471\"}"));

        let samples = parse_exposition(&text).expect("parses");
        let odd = samples
            .iter()
            .find(|s| s.name == "cluster_worker_jobs" && s.value == 9.0)
            .expect("escaped series survives");
        assert_eq!(odd.labels, vec![("worker".to_string(), weird.to_string())]);
    }

    #[test]
    fn label_parser_handles_escapes_and_rejects_bad_ones() {
        let samples =
            parse_exposition("m{a=\"x\\\\y\",b=\"q\\\"z\",c=\"l\\nr\"} 1\n").expect("parses");
        assert_eq!(
            samples[0].labels,
            vec![
                ("a".to_string(), "x\\y".to_string()),
                ("b".to_string(), "q\"z".to_string()),
                ("c".to_string(), "l\nr".to_string()),
            ]
        );
        // A `}` inside a quoted value must not terminate the block.
        let samples = parse_exposition("m{a=\"v}w\"} 2\n").expect("parses");
        assert_eq!(samples[0].labels[0].1, "v}w");
        assert!(parse_exposition("m{a=\"v\\qx\"} 1\n").is_err(), "unknown escape");
        assert!(parse_exposition("m{a=\"open 1\n").is_err(), "unterminated value");
        assert!(parse_exposition("m{a=\"v\"b=\"w\"} 1\n").is_err(), "missing comma");
        assert!(parse_exposition("m{} 3\n").is_ok(), "empty label set");
    }

    #[test]
    fn exposition_parser_rejects_malformed_lines() {
        assert!(parse_exposition("ok 1\n").is_ok());
        assert!(parse_exposition("0bad 1\n").is_err());
        assert!(parse_exposition("name\n").is_err());
        assert!(parse_exposition("name notanumber\n").is_err());
        assert!(parse_exposition("name{k=\"v\" 1\n").is_err());
        assert!(parse_exposition("name{k=v} 1\n").is_err());
        assert!(parse_exposition("name 1 2 3\n").is_err());
        assert!(parse_exposition("name +Inf\nname2 NaN\n# comment\n").is_ok());
        assert!(parse_exposition("name 1 1700000000000\n").is_ok(), "timestamp ok");
    }

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("engine.cache_hits"), "engine_cache_hits");
        assert_eq!(prom_name("span.train_s"), "span_train_s");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name("a:b"), "a:b");
    }
}
