//! A minimal HTTP/1.1 subset over blocking std I/O — just enough wire
//! protocol for the service endpoints, hardened for untrusted peers:
//!
//! * request line + headers are read with an explicit byte cap;
//! * bodies require `Content-Length` (no chunked encoding; repeats must
//!   agree) and are capped;
//! * every parse failure maps to a 4xx status instead of a panic or an
//!   unbounded allocation.
//!
//! Responses always carry `Content-Length` and `Connection: close`; the
//! server handles one request per connection, which keeps the admission
//! accounting exact (one connection = one unit of work).

use std::io::{self, Read, Write};

/// Cap on the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string (`/schedule`).
    pub path: String,
    /// Raw query string without the `?` (may be empty).
    pub query: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of query parameter `key`, if present (`a=1&b=2` syntax;
    /// no percent-decoding — the API uses plain token values only).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be read; maps onto a 4xx response.
#[derive(Debug, PartialEq, Eq)]
pub enum RequestError {
    /// Malformed request line or header (→ 400).
    BadRequest(String),
    /// Head exceeded [`MAX_HEAD_BYTES`] (→ 431).
    HeadTooLarge,
    /// Body exceeded the configured cap (→ 413).
    BodyTooLarge {
        /// The enforced cap in bytes.
        limit: usize,
    },
    /// The peer closed or timed out mid-request (no response possible).
    Io(io::ErrorKind),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e.kind())
    }
}

/// Reads one request from `stream`, enforcing the body cap.
///
/// # Errors
///
/// [`RequestError`] for malformed, oversized or interrupted requests.
pub fn read_request<S: Read>(stream: &mut S, max_body: usize) -> Result<Request, RequestError> {
    // Read byte-wise up to the blank line; MAX_HEAD_BYTES bounds the loop.
    // (One-byte reads are fine at this scale; requests are tiny and the
    // server is request-per-connection.)
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        if head.len() >= MAX_HEAD_BYTES {
            return Err(RequestError::HeadTooLarge);
        }
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(RequestError::Io(io::ErrorKind::UnexpectedEof));
        }
        head.push(byte[0]);
    }
    let head = String::from_utf8(head)
        .map_err(|_| RequestError::BadRequest("head is not UTF-8".into()))?;
    let mut lines = head.lines();
    let request_line =
        lines.next().ok_or_else(|| RequestError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method =
        parts.next().ok_or_else(|| RequestError::BadRequest("missing method".into()))?.to_owned();
    let target =
        parts.next().ok_or_else(|| RequestError::BadRequest("missing request target".into()))?;
    let version = parts.next().unwrap_or("HTTP/1.0");
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::BadRequest(format!("unsupported version {version}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::BadRequest(format!("malformed header {line:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            let n = value
                .trim()
                .parse()
                .map_err(|_| RequestError::BadRequest("bad Content-Length".into()))?;
            // Repeats of one value frame the body one way (RFC 9110 §8.6
            // lets a recipient accept them); two values would let a proxy
            // and this server disagree on where the request ends.
            if content_length.is_some_and(|prev| prev != n) {
                return Err(RequestError::BadRequest("conflicting Content-Length".into()));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(RequestError::BadRequest("chunked bodies are not supported".into()));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(RequestError::BodyTooLarge { limit: max_body });
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Request { method, path, query, body })
}

/// A response ready to serialise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers as `(name, value)` pairs.
    pub extra_headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Instructions the cycle-accurate run behind the response executed,
    /// `[ahead, stepped]`: for `/metrics`, never written to the client.
    pub simulated: [u64; 2],
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
            simulated: [0; 2],
        }
    }

    /// A plaintext response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
            simulated: [0; 2],
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(status, format!("{{\"error\":{}}}", crate::json::string(message)))
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.extra_headers.push((name.to_owned(), value));
        self
    }

    /// The value of extra header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.extra_headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serialises the response (status line, headers, body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        for (name, value) in &self.extra_headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Writes the response to `stream`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error (peer gone, write timeout).
    pub fn write_to<S: Write>(&self, stream: &mut S) -> io::Result<()> {
        stream.write_all(&self.to_bytes())?;
        stream.flush()
    }
}

/// The reason phrase for the status codes the service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, RequestError> {
        read_request(&mut raw.as_bytes(), 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let r =
            parse("POST /schedule?cores=8 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/schedule");
        assert_eq!(r.query_param("cores"), Some("8"));
        assert_eq!(r.query_param("zeta"), None);
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn parses_a_bare_get() {
        let r = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
    }

    #[test]
    fn rejects_oversized_bodies_without_allocating_them() {
        let e = parse("POST /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n").unwrap_err();
        assert_eq!(e, RequestError::BodyTooLarge { limit: 1024 });
    }

    #[test]
    fn rejects_oversized_heads() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..2000 {
            raw.push_str(&format!("X-Pad-{i}: aaaaaaaaaaaaaaaa\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(&raw).unwrap_err(), RequestError::HeadTooLarge);
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(parse("\r\n\r\n").unwrap_err(), RequestError::BadRequest(_)));
        assert!(matches!(parse("GET\r\n\r\n").unwrap_err(), RequestError::BadRequest(_)));
        assert!(matches!(parse("GET / SPDY/3\r\n\r\n").unwrap_err(), RequestError::BadRequest(_)));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err(),
            RequestError::BadRequest(_)
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err(),
            RequestError::BadRequest(_)
        ));
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let e = parse("POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 6\r\n\r\nhello!")
            .unwrap_err();
        assert_eq!(e, RequestError::BadRequest("conflicting Content-Length".into()));
    }

    #[test]
    fn repeated_equal_content_lengths_frame_one_body() {
        let r = parse("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn truncated_requests_are_io_errors() {
        assert!(matches!(parse("GET / HTTP/1.1\r\n").unwrap_err(), RequestError::Io(_)));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").unwrap_err(),
            RequestError::Io(_)
        ));
    }

    #[test]
    fn responses_serialise_with_length_and_close() {
        let r = Response::text(200, "ok\n").with_header("Retry-After", "1".to_owned());
        let s = String::from_utf8(r.to_bytes()).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Content-Length: 3\r\n"));
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.contains("Retry-After: 1\r\n"));
        assert!(s.ends_with("\r\n\r\nok\n"));
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let r = Response::text(200, "ok").with_header("X-L15-Trace-Dropped", "7".to_owned());
        assert_eq!(r.header("x-l15-trace-dropped"), Some("7"));
        assert_eq!(r.header("X-L15-TRACE-DROPPED"), Some("7"));
        assert_eq!(r.header("x-missing"), None);
    }

    /// Every status literal a response is built with, in the crate's
    /// sources, has a reason phrase.
    #[test]
    fn every_status_the_crate_returns_has_a_phrase() {
        let sources = [
            include_str!("api.rs"),
            include_str!("online.rs"),
            include_str!("server.rs"),
            include_str!("http.rs"),
        ];
        let mut statuses: Vec<u16> = Vec::new();
        for src in sources {
            for prefix in ["error(", "json(", "text(", "=> "] {
                for (at, _) in src.match_indices(prefix) {
                    let rest = src[at + prefix.len()..].trim_start();
                    let digits = &rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(0)];
                    statuses.extend(digits.parse::<u16>().ok().filter(|s| (100..600).contains(s)));
                }
            }
        }
        for want in [200, 400, 404, 405, 409, 413, 422, 429, 431, 500, 503] {
            assert!(statuses.contains(&want), "the scan misses {want}");
        }
        for status in statuses {
            assert_ne!(status_text(status), "Unknown", "{status} has no reason phrase");
        }
    }

    #[test]
    fn error_envelope_is_json() {
        let r = Response::error(400, "bad \"thing\"");
        assert_eq!(String::from_utf8(r.body).unwrap(), "{\"error\":\"bad \\\"thing\\\"\"}");
    }
}
