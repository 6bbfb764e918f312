//! Minimal HTTP/1.1 server over `std::net`.
//!
//! Enough of the protocol for the demo service and its tests: request
//! line + headers + `Content-Length` bodies in, status + headers + body
//! out, HTTP/1.1 persistent connections (`Connection: keep-alive`
//! semantics, including pipelined requests — unparsed bytes are buffered
//! per connection, not per request). This module holds the wire types
//! and the one incremental request parser (`try_parse`); [`HttpServer`]
//! serves through [`crate::event_loop`], the readiness loop. Linux is the
//! supported serving platform: the `polling` shim has only an epoll
//! backend, and elsewhere spawning reports `io::ErrorKind::Unsupported`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cap on request body size (1 MiB). Single queries are tiny and even
/// bulk `/ingest` batches fit comfortably, so anything bigger is a client
/// bug or abuse; it is rejected with `413 Payload Too Large` and the
/// connection closes (the unread body cannot be skipped safely).
pub const MAX_BODY: usize = 1 << 20;

/// Cap on requests served over one persistent connection, so a chatty
/// client cannot pin a worker forever.
pub(crate) const MAX_REQUESTS_PER_CONNECTION: usize = 256;

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The path portion of the request target.
    pub path: String,
    /// The raw query string after `?` (empty when absent). The API is
    /// JSON-body based; the query string only carries per-request flags
    /// like `?trace=1`.
    pub query: String,
    /// Protocol version from the request line (`HTTP/1.1`, `HTTP/1.0`).
    pub version: String,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The value of a `key=value` query parameter (no percent-decoding;
    /// the API only uses plain flags). A bare `key` yields `Some("")`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }

    /// Whether a boolean query flag is set: `?name`, `?name=1` or
    /// `?name=true`.
    pub fn query_flag(&self, name: &str) -> bool {
        matches!(self.query_param(name), Some("" | "1" | "true"))
    }

    /// Whether the client wants the connection kept open after the
    /// response: HTTP/1.1 defaults to keep-alive unless `Connection:
    /// close`; earlier versions must opt in with `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.split(',').any(|t| t.trim() == "close") => false,
            Some(v) if v.split(',').any(|t| t.trim() == "keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }
}

/// An HTTP response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content type header value.
    pub content_type: &'static str,
    /// The body.
    pub body: Vec<u8>,
    /// Seconds for a `retry-after` header — shed responses (429/503)
    /// tell well-behaved clients when to come back.
    pub retry_after: Option<u64>,
}

impl Response {
    /// 200 with a JSON body.
    pub fn json(body: impl ToString) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.to_string().into_bytes(),
            retry_after: None,
        }
    }

    /// An error status with a JSON `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: crate::json::Json::obj([("error", crate::json::Json::str(message))])
                .to_string()
                .into_bytes(),
            retry_after: None,
        }
    }

    /// 200 with an HTML body (the demo landing page).
    pub fn html(body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body: body.into(),
            retry_after: None,
        }
    }

    /// 200 with an arbitrary text body (the `/metrics` exposition).
    pub fn text(content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type,
            body: body.into(),
            retry_after: None,
        }
    }

    /// Attaches a `retry-after` header value (seconds).
    pub fn with_retry_after(mut self, secs: u64) -> Response {
        self.retry_after = Some(secs);
        self
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            410 => "Gone",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// The full wire form (status line + headers + body) as one buffer —
    /// what the event loop queues for vectored writes.
    pub(crate) fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let retry = self
            .retry_after
            .map(|s| format!("retry-after: {s}\r\n"))
            .unwrap_or_default();
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{retry}connection: {}\r\n\r\n",
            self.status,
            self.status_text(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

/// Upper bound on the request head (request line + headers): the
/// parser works on buffered bytes, so it needs an explicit cap against
/// unterminated-header floods.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Outcome of trying to parse one request off the front of a buffer.
#[derive(Debug)]
pub(crate) enum Parsed {
    /// The buffer does not yet hold a complete request.
    NeedMore,
    /// One complete request, consuming the first `usize` buffer bytes.
    Complete(Box<Request>, usize),
    /// Protocol error: answer `(status, message)` and close. The
    /// remaining buffer bytes are untrustworthy (smuggling hardening)
    /// and must be discarded.
    Bad(u16, String),
}

/// Parses one request off the front of `buf` — the one request parser
/// the readiness loop feeds its connection buffers to. Malformed request line → 400; any
/// `transfer-encoding` → 400 (chunked smuggling); unparseable
/// `content-length` → 400; body beyond [`MAX_BODY`] → 413, decided
/// before the body arrives; lines may end `\r\n` or bare `\n`; header
/// lines without a colon are ignored; the head section is capped at
/// [`MAX_HEAD_BYTES`].
pub(crate) fn try_parse(buf: &[u8]) -> Parsed {
    // Find the end of the head: the first empty line.
    let mut line_start = 0usize;
    let mut lines: Vec<&[u8]> = Vec::new();
    let mut head_end = None;
    for (i, &b) in buf.iter().enumerate() {
        if b == b'\n' {
            let mut line = &buf[line_start..i];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            if line.is_empty() && !lines.is_empty() {
                head_end = Some(i + 1);
                break;
            }
            if line.is_empty() {
                // Leading blank line before any request line.
                return Parsed::Bad(400, "malformed request line".into());
            }
            lines.push(line);
            line_start = i + 1;
        }
    }
    let Some(head_end) = head_end else {
        return if buf.len() > MAX_HEAD_BYTES {
            Parsed::Bad(400, format!("request head exceeds {MAX_HEAD_BYTES} bytes"))
        } else {
            Parsed::NeedMore
        };
    };

    let request_line = String::from_utf8_lossy(lines[0]);
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_owned(), t.to_owned()),
        _ => return Parsed::Bad(400, "malformed request line".into()),
    };
    let version = parts.next().unwrap_or("HTTP/1.0").to_owned();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target, String::new()),
    };

    let mut headers = Vec::new();
    for line in &lines[1..] {
        let text = String::from_utf8_lossy(line);
        if let Some((k, v)) = text.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
        }
    }

    // Chunked bodies are not implemented; on a persistent connection an
    // unread chunked body would be re-parsed as pipelined requests
    // (request smuggling), so reject and close.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Parsed::Bad(
            400,
            "transfer-encoding is not supported; send a content-length body".into(),
        );
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Parsed::Bad(400, format!("invalid content-length {v:?}")),
        },
    };
    if content_length > MAX_BODY {
        return Parsed::Bad(
            413,
            format!("body of {content_length} bytes exceeds the {MAX_BODY}-byte limit"),
        );
    }
    let total = head_end + content_length;
    if buf.len() < total {
        return Parsed::NeedMore;
    }
    Parsed::Complete(
        Box::new(Request {
            method,
            path,
            query,
            version,
            headers,
            body: buf[head_end..total].to_vec(),
        }),
        total,
    )
}

/// The request handler signature.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Per-request-iteration connection control, consulted *before* the next
/// request is read off the wire — the cheapest place to shed: no parse,
/// no dispatch, no queueing.
#[derive(Clone, Copy, Debug)]
pub struct ConnControl {
    /// Read/write timeout for the next request on this connection. This
    /// doubles as the keep-alive idle timeout; an overload policy
    /// shrinks it to reclaim workers pinned by idle connections.
    pub idle_timeout: std::time::Duration,
    /// `Some(retry_after_secs)`: shed this connection now — a canned
    /// `503` with `retry-after` is written without reading a byte, and
    /// the connection closes.
    pub shed: Option<u64>,
}

impl Default for ConnControl {
    fn default() -> Self {
        ConnControl {
            idle_timeout: std::time::Duration::from_secs(10),
            shed: None,
        }
    }
}

/// The connection-policy signature: called once per request iteration
/// on every connection.
pub type ConnPolicy = Arc<dyn Fn() -> ConnControl + Send + Sync>;

/// A running server with its worker pool.
pub struct HttpServer;

/// Handle to a spawned server: address for clients, shutdown for tests.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Assembles a handle around the event-loop thread. The no-op wake
    /// connection in [`ServerHandle::shutdown`] unblocks its epoll wait
    /// (the listener turns readable).
    pub(crate) fn from_parts(
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        thread: std::thread::JoinHandle<()>,
    ) -> ServerHandle {
        ServerHandle {
            addr,
            stop,
            accept_thread: Some(thread),
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept loop. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl HttpServer {
    /// Binds `127.0.0.1:port` (port 0 = ephemeral, for tests) and serves
    /// `handler` on `workers` threads. Returns immediately.
    pub fn spawn(port: u16, workers: usize, handler: Handler) -> io::Result<ServerHandle> {
        Self::spawn_with_policy(port, workers, handler, Arc::new(ConnControl::default))
    }

    /// [`HttpServer::spawn`] with a connection policy: before each
    /// request is read, `policy` decides the idle timeout and whether to
    /// shed the connection outright (canned `503` + `retry-after`,
    /// written without reading the request — overload protection at the
    /// accept/read boundary, before any parse or queueing).
    pub fn spawn_with_policy(
        port: u16,
        workers: usize,
        handler: Handler,
        policy: ConnPolicy,
    ) -> io::Result<ServerHandle> {
        assert!(workers >= 1);
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        // Readiness loop: one thread owns every socket, `workers`
        // threads run handlers. Idle keep-alive connections cost a
        // registered fd, not a parked worker. Off Linux the poller —
        // and so this call — fails with `io::ErrorKind::Unsupported`.
        crate::event_loop::spawn(listener, workers, handler, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{http_get, http_post};
    use crate::json::Json;
    use std::io::{Read, Write};

    fn echo_handler() -> Handler {
        Arc::new(|req: &Request| match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/ping") => Response::json(Json::str("pong")),
            ("POST", "/echo") => Response {
                status: 200,
                content_type: "application/json",
                body: req.body.clone(),
                retry_after: None,
            },
            _ => Response::error(404, "no such route"),
        })
    }

    fn echo_server() -> ServerHandle {
        HttpServer::spawn(0, 2, echo_handler()).unwrap()
    }

    #[test]
    fn get_and_post_round_trip() {
        let server = &echo_server();
        let (status, body) = http_get(server.addr(), "/ping").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, Json::str("pong"));

        let payload = Json::obj([("x", Json::Num(1.5)), ("tag", Json::str("香港"))]);
        let (status, body) = http_post(server.addr(), "/echo", &payload).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, payload);
    }

    #[test]
    fn unknown_route_is_404() {
        let server = echo_server();
        let (status, body) = http_get(server.addr(), "/nope").unwrap();
        assert_eq!(status, 404);
        assert!(body.get("error").is_some());
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = &echo_server();
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..8 {
            handles.push(std::thread::spawn(move || {
                for i in 0..20 {
                    let payload =
                        Json::obj([("t", Json::Num(t as f64)), ("i", Json::Num(i as f64))]);
                    let (status, body) = http_post(addr, "/echo", &payload).unwrap();
                    assert_eq!(status, 200);
                    assert_eq!(body, payload);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server = echo_server();
        let addr = server.addr();
        server.shutdown();
        // Subsequent requests fail to connect or to complete.
        let result = http_get(addr, "/ping");
        assert!(result.is_err() || result.unwrap().0 != 200);
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = Request {
            method: "GET".into(),
            path: "/".into(),
            query: String::new(),
            version: "HTTP/1.1".into(),
            headers: vec![("content-type".into(), "application/json".into())],
            body: Vec::new(),
        };
        assert_eq!(req.header("Content-Type"), Some("application/json"));
        assert_eq!(req.header("x-missing"), None);
    }

    #[test]
    fn query_string_parses_into_params_and_flags() {
        let req = |query: &str| Request {
            method: "GET".into(),
            path: "/query".into(),
            query: query.into(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: Vec::new(),
        };
        assert!(req("trace=1").query_flag("trace"));
        assert!(req("trace").query_flag("trace"));
        assert!(req("a=2&trace=true").query_flag("trace"));
        assert!(!req("trace=0").query_flag("trace"));
        assert!(!req("").query_flag("trace"));
        assert!(!req("notrace=1").query_flag("trace"));
        assert_eq!(req("a=2&b=x").query_param("b"), Some("x"));
        assert_eq!(req("a=2").query_param("b"), None);
    }

    #[test]
    fn keep_alive_defaults_follow_http_version() {
        let req = |version: &str, conn: Option<&str>| Request {
            method: "GET".into(),
            path: "/".into(),
            query: String::new(),
            version: version.into(),
            headers: conn
                .map(|v| vec![("connection".to_owned(), v.to_owned())])
                .unwrap_or_default(),
            body: Vec::new(),
        };
        assert!(req("HTTP/1.1", None).wants_keep_alive());
        assert!(!req("HTTP/1.1", Some("close")).wants_keep_alive());
        assert!(!req("HTTP/1.0", None).wants_keep_alive());
        assert!(req("HTTP/1.0", Some("keep-alive")).wants_keep_alive());
        assert!(req("HTTP/1.1", Some("Keep-Alive, Upgrade")).wants_keep_alive());
    }

    // -- the request parser --------------------------------------------------

    fn complete(buf: &[u8]) -> (Request, usize) {
        match try_parse(buf) {
            Parsed::Complete(req, n) => (*req, n),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_get_without_body() {
        let (req, n) = complete(b"GET /health?x=1 HTTP/1.1\r\nhost: t\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.header("host"), Some("t"));
        assert!(req.body.is_empty());
        assert_eq!(n, b"GET /health?x=1 HTTP/1.1\r\nhost: t\r\n\r\n".len());
    }

    #[test]
    fn parses_post_with_body_and_leftover_pipelined_bytes() {
        let raw = b"POST /q HTTP/1.1\r\ncontent-length: 4\r\n\r\nbodyGET / HTTP/1.1\r\n\r\n";
        let (req, n) = complete(raw);
        assert_eq!(req.body, b"body");
        // The second pipelined request parses from the leftover.
        let (req2, _) = complete(&raw[n..]);
        assert_eq!(req2.method, "GET");
    }

    #[test]
    fn incomplete_head_and_incomplete_body_need_more() {
        assert!(matches!(try_parse(b"GET / HTTP/1.1\r\nhos"), Parsed::NeedMore));
        assert!(matches!(
            try_parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc"),
            Parsed::NeedMore
        ));
        assert!(matches!(try_parse(b""), Parsed::NeedMore));
    }

    #[test]
    fn bare_newlines_end_lines_too() {
        let (req, _) = complete(b"GET /x HTTP/1.1\nhost: t\n\n");
        assert_eq!(req.path, "/x");
        assert_eq!(req.header("host"), Some("t"));
    }

    #[test]
    fn malformed_request_line_is_400() {
        assert!(matches!(try_parse(b"GARBAGE\r\n\r\n"), Parsed::Bad(400, _)));
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        let raw = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        match try_parse(raw) {
            Parsed::Bad(400, msg) => assert!(msg.contains("transfer-encoding")),
            other => panic!("expected Bad(400), got {other:?}"),
        }
    }

    #[test]
    fn unparseable_content_length_is_400() {
        let raw = b"POST / HTTP/1.1\r\ncontent-length: banana\r\n\r\n";
        assert!(matches!(try_parse(raw), Parsed::Bad(400, _)));
    }

    #[test]
    fn oversized_body_is_413_before_the_body_arrives() {
        let raw = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(try_parse(raw.as_bytes()), Parsed::Bad(413, _)));
    }

    #[test]
    fn missing_version_defaults_to_http_10() {
        let (req, _) = complete(b"GET /\r\n\r\n");
        assert_eq!(req.version, "HTTP/1.0");
        assert!(!req.wants_keep_alive());
    }

    #[test]
    fn unterminated_head_is_bounded() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 16));
        assert!(matches!(try_parse(&raw), Parsed::Bad(400, _)));
    }

    // -- wire-level cases, run against both servers --------------------------

    /// Sends `raw` on a fresh connection and reads until the server closes.
    fn send_and_drain(server: &ServerHandle, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(raw).unwrap();
        let mut all = String::new();
        stream.read_to_string(&mut all).unwrap();
        all
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        use std::io::{BufRead, BufReader};

        let read_one = |stream: &mut TcpStream| -> (u16, String, String) {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut status_line = String::new();
            reader.read_line(&mut status_line).unwrap();
            let status: u16 = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
            let mut connection = String::new();
            let mut content_length = 0usize;
            loop {
                let mut h = String::new();
                reader.read_line(&mut h).unwrap();
                let h = h.trim_end();
                if h.is_empty() {
                    break;
                }
                if let Some((k, v)) = h.split_once(':') {
                    match k.trim().to_ascii_lowercase().as_str() {
                        "connection" => connection = v.trim().to_owned(),
                        "content-length" => content_length = v.trim().parse().unwrap(),
                        _ => {}
                    }
                }
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).unwrap();
            (status, connection, String::from_utf8(body).unwrap())
        };

        let server = &echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for i in 0..3 {
            let payload = format!("{{\"i\": {i}}}");
            let req = format!(
                "POST /echo HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{payload}",
                payload.len()
            );
            stream.write_all(req.as_bytes()).unwrap();
            let (status, connection, body) = read_one(&mut stream);
            assert_eq!(status, 200, "request {i} on the shared connection");
            assert_eq!(connection, "keep-alive");
            assert_eq!(body, payload);
        }

        // An explicit close is honored: response says close, then EOF.
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let (status, connection, _) = read_one(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(connection, "close");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "server must close after Connection: close");
    }

    #[test]
    fn invalid_content_length_is_rejected_and_connection_closed() {
        let server = &echo_server();
        for bad in ["abc", "99999999999999999999999", "-1"] {
            let all = send_and_drain(
                server,
                format!(
                    "POST /echo HTTP/1.1\r\ncontent-length: {bad}\r\n\r\nGET /ping HTTP/1.1\r\n\r\n"
                )
                .as_bytes(),
            );
            // One 400 and a closed connection — the trailing bytes must
            // never be interpreted as a second request.
            assert!(all.starts_with("HTTP/1.1 400"), "{bad}: {all}");
            assert_eq!(all.matches("HTTP/1.1").count(), 1, "{bad}: {all}");
            assert!(all.contains("connection: close"));
        }
    }

    #[test]
    fn oversized_body_is_413_and_connection_closed() {
        let server = &echo_server();
        // Declare a body one byte over the named limit; the server must
        // answer 413 (not a generic 400) before reading any of it, then
        // close so the unread bytes are never parsed as requests.
        let all = send_and_drain(
            server,
            format!("POST /echo HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1).as_bytes(),
        );
        assert!(all.starts_with("HTTP/1.1 413"), "{all}");
        assert!(all.contains("Payload Too Large"), "{all}");
        assert!(all.contains(&format!("{MAX_BODY}-byte limit")), "{all}");
        assert!(all.contains("connection: close"));
        // A body exactly at the limit is still readable (no off-by-one).
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let body = vec![b'x'; MAX_BODY];
        let head = format!("POST /echo HTTP/1.1\r\ncontent-length: {MAX_BODY}\r\n\r\n");
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(&body).unwrap();
        let mut first_line = [0u8; 12];
        stream.read_exact(&mut first_line).unwrap();
        assert_eq!(&first_line, b"HTTP/1.1 200");
    }

    #[test]
    fn chunked_bodies_are_rejected_and_connection_closed() {
        let server = &echo_server();
        // A chunked body whose content could smuggle a second request if
        // it were left in the connection buffer.
        let all = send_and_drain(
            server,
            b"POST /echo HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
              24\r\nGET /ping HTTP/1.1\r\nhost: smuggled\r\n\r\n\r\n0\r\n\r\n",
        );
        // Exactly one response — the 400 — and the smuggled GET is never
        // answered because the connection closes.
        assert!(all.starts_with("HTTP/1.1 400"), "{all}");
        assert_eq!(all.matches("HTTP/1.1").count(), 1, "{all}");
        assert!(all.contains("connection: close"));
    }

    #[test]
    fn pipelined_requests_are_all_answered() {
        let server = &echo_server();
        // Two back-to-back requests in one write; the second arrives while
        // the first is still being processed and must not be lost.
        let all = send_and_drain(
            server,
            b"GET /ping HTTP/1.1\r\n\r\nGET /ping HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert_eq!(all.matches("HTTP/1.1 200 OK").count(), 2, "{all}");
        assert_eq!(all.matches("pong").count(), 2);
    }

    #[test]
    fn request_cap_closes_a_chatty_connection() {
        let server = &echo_server();
        // Exactly the cap, pipelined, none asking to close: every one is
        // answered, the last says `close`, and the server hangs up.
        let all = send_and_drain(
            server,
            &b"GET /ping HTTP/1.1\r\n\r\n".repeat(MAX_REQUESTS_PER_CONNECTION),
        );
        assert_eq!(
            all.matches("HTTP/1.1 200 OK").count(),
            MAX_REQUESTS_PER_CONNECTION
        );
        assert_eq!(all.matches("connection: close").count(), 1);
        let last = all.rfind("HTTP/1.1 200 OK").unwrap();
        assert!(all[last..].contains("connection: close"), "cap must close");
    }

    #[test]
    fn eof_mid_request_is_answered_400() {
        let server = &echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /echo HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut all = String::new();
        stream.read_to_string(&mut all).unwrap();
        assert!(all.starts_with("HTTP/1.1 400"), "{all}");
        assert!(all.contains("mid-request"), "{all}");
    }
}
