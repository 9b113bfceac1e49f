//! A hand-rolled HTTP/1.1 message layer: request parsing over a byte
//! buffer, response writing, and (for the bundled client) response
//! parsing.
//!
//! The parser is **incremental and pure**: [`parse_request`] looks at a
//! byte buffer and either returns a complete request plus the number of
//! bytes it consumed, asks for more bytes, or fails — the connection
//! loop owns the socket, timeouts and shutdown flag. Purity is what
//! makes the malformed-input suite a plain unit test.
//!
//! Allocation is bounded by [`Limits`]: header bytes are capped before
//! the terminator search gives up, and a hostile `Content-Length` is
//! rejected from the header alone — the body is never buffered, let
//! alone allocated, past [`Limits::max_body_bytes`].

use std::fmt;
use std::io::{self, Read, Write};

/// Hard caps the parser enforces; see the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest request head (request line + headers + terminator).
    pub max_header_bytes: usize,
    /// Largest accepted `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_header_bytes: 8 * 1024,
            max_body_bytes: 16 * 1024 * 1024,
        }
    }
}

/// Why a request failed to parse. Every variant maps to a clean `400`
/// on the wire ([`HttpParseError::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// The request head exceeded [`Limits::max_header_bytes`] without
    /// terminating.
    HeaderTooLarge,
    /// `Content-Length` exceeded [`Limits::max_body_bytes`].
    BodyTooLarge(u64),
    /// The request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// A header line is malformed (or the head is not valid UTF-8).
    BadHeader,
    /// `Content-Length` is present but not a number.
    BadContentLength,
    /// `Transfer-Encoding` bodies are not supported.
    UnsupportedTransferEncoding,
    /// The peer closed the connection mid-request.
    Truncated,
}

impl HttpParseError {
    /// The status code the error reports as. The malformed-input
    /// contract is "clean 400s": every parse failure is a client error,
    /// never a connection-killing panic or a 500.
    pub fn status(&self) -> u16 {
        400
    }
}

impl fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpParseError::HeaderTooLarge => write!(f, "request header section too large"),
            HttpParseError::BodyTooLarge(n) => {
                write!(f, "declared content-length {n} exceeds the body limit")
            }
            HttpParseError::BadRequestLine => write!(f, "malformed request line"),
            HttpParseError::BadHeader => write!(f, "malformed header"),
            HttpParseError::BadContentLength => write!(f, "content-length is not a number"),
            HttpParseError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding is not supported; send content-length")
            }
            HttpParseError::Truncated => write!(f, "connection closed mid-request"),
        }
    }
}

impl std::error::Error for HttpParseError {}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target with any query string stripped (`/v1/traces`).
    pub path: String,
    /// The query string, without the leading `?` (empty when absent) —
    /// the ring endpoints read their `peek=1` flag from it.
    pub query: String,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First header value under `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Attempts to parse one request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a complete request is
/// buffered, `Ok(None)` when more bytes are needed (and no limit is
/// exceeded yet).
///
/// # Errors
///
/// [`HttpParseError`] on malformed input or exceeded [`Limits`]; an
/// oversized `Content-Length` fails here, from the head alone, before
/// any body byte is buffered.
pub fn parse_request(
    buf: &[u8],
    limits: &Limits,
) -> Result<Option<(HttpRequest, usize)>, HttpParseError> {
    let head_end = match find_terminator(buf, limits.max_header_bytes) {
        Terminator::At(end) => end,
        Terminator::NotYet => return Ok(None),
        Terminator::PastLimit => return Err(HttpParseError::HeaderTooLarge),
    };
    let head = buf
        .get(..head_end)
        .and_then(|head| std::str::from_utf8(head).ok())
        .ok_or(HttpParseError::BadHeader)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpParseError::BadRequestLine)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method.is_empty()
        || target.is_empty()
        || parts.next().is_some()
        || !(version == "HTTP/1.1" || version == "HTTP/1.0")
        || !method.bytes().all(|b| b.is_ascii_alphabetic())
    {
        return Err(HttpParseError::BadRequestLine);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(HttpParseError::BadHeader)?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpParseError::BadHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(HttpParseError::UnsupportedTransferEncoding);
    }
    // Conflicting duplicate Content-Length headers are the classic
    // request-smuggling desync vector (RFC 9112 §6.3): reject them
    // outright rather than silently picking one.
    let mut lengths = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str());
    let content_length: u64 = match lengths.next() {
        Some(v) => {
            if lengths.any(|other| other != v) {
                return Err(HttpParseError::BadContentLength);
            }
            v.parse().map_err(|_| HttpParseError::BadContentLength)?
        }
        None => 0,
    };
    if content_length > limits.max_body_bytes as u64 {
        return Err(HttpParseError::BodyTooLarge(content_length));
    }
    let content_length = content_length as usize;

    let body_start = head_end + 4;
    let Some(body) = buf.get(body_start..body_start + content_length) else {
        return Ok(None);
    };
    let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
        Some(c) if c == "close" => false,
        Some(c) if c == "keep-alive" => true,
        _ => version == "HTTP/1.1",
    };
    let request = HttpRequest {
        method,
        path,
        query,
        headers,
        body: body.to_vec(),
        keep_alive,
    };
    Ok(Some((request, body_start + content_length)))
}

enum Terminator {
    At(usize),
    NotYet,
    PastLimit,
}

/// Position of `\r\n\r\n` in `buf`, giving up past `limit` bytes.
fn find_terminator(buf: &[u8], limit: usize) -> Terminator {
    let window = buf.get(..limit + 4).unwrap_or(buf);
    match window.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(p) if p <= limit => Terminator::At(p),
        Some(_) => Terminator::PastLimit,
        None if buf.len() > limit => Terminator::PastLimit,
        None => Terminator::NotYet,
    }
}

/// The canonical reason phrase for the status codes this wire uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one `application/json` response to `w`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_response(w: &mut impl Write, status: u16, body: &str, close: bool) -> io::Result<()> {
    write_response_with_type(w, status, "application/json", body, close)
}

/// Writes one response with an explicit `Content-Type` to `w` (the
/// `/v1/metrics` endpoint serves Prometheus text exposition, not JSON).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_response_with_type(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    w.write_all(head.as_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// One parsed response (the bundled client's half of the protocol).
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The body as UTF-8 (lossy — diagnostics only).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Parses the body as JSON.
    ///
    /// # Errors
    ///
    /// Non-UTF-8 or malformed JSON bodies.
    pub fn json(&self) -> Result<crate::json::Json, crate::json::JsonError> {
        let text = std::str::from_utf8(&self.body).map_err(|_| crate::json::JsonError {
            offset: 0,
            message: "body is not valid UTF-8".into(),
        })?;
        crate::json::parse(text)
    }
}

/// Reads exactly one response off `r` (blocking).
///
/// # Errors
///
/// I/O errors, or `InvalidData` on a malformed response.
pub fn read_response(r: &mut impl Read) -> io::Result<HttpResponse> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = r.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed before response head"));
        }
        buf.extend_from_slice(chunk.get(..n).ok_or_else(|| bad("read past the buffer"))?);
    };
    let head = buf
        .get(..head_end)
        .and_then(|head| std::str::from_utf8(head).ok())
        .ok_or_else(|| bad("non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = buf.get(head_end + 4..).unwrap_or_default().to_vec();
    while body.len() < content_length {
        let n = r.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(chunk.get(..n).ok_or_else(|| bad("read past the buffer"))?);
    }
    body.truncate(content_length);
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits::default()
    }

    #[test]
    fn parses_a_post_with_body_and_reports_consumed_bytes() {
        let raw = b"POST /v1/models/m/classify?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcdEXTRA";
        let (req, used) = parse_request(raw, &limits()).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/models/m/classify");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
        assert_eq!(&raw[used..], b"EXTRA");
    }

    #[test]
    fn incomplete_requests_ask_for_more_bytes() {
        assert!(parse_request(b"GET /he", &limits()).unwrap().is_none());
        assert!(parse_request(b"GET /v1/health HTTP/1.1\r\n", &limits())
            .unwrap()
            .is_none());
        // Complete head, body still in flight.
        assert!(parse_request(
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            &limits()
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn a_body_is_complete_exactly_at_the_buffer_end() {
        // (buffered bytes, Some(consumed) once complete, None while short)
        let cases: [(&[u8], Option<usize>); 2] = [
            (b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc", Some(41)),
            (b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nabc", None),
        ];
        for (raw, want) in cases {
            let got = parse_request(raw, &limits()).unwrap();
            assert_eq!(got.as_ref().map(|(_, used)| *used), want, "{raw:?}");
            if let Some((req, used)) = got {
                assert_eq!(used, raw.len());
                assert_eq!(req.body, raw[used - req.body.len()..]);
            }
        }
    }

    #[test]
    fn oversized_content_length_fails_from_the_head_alone() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n";
        assert!(matches!(
            parse_request(raw, &limits()),
            Err(HttpParseError::BodyTooLarge(99_999_999_999))
        ));
    }

    #[test]
    fn header_section_is_capped() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(vec![b'a'; limits().max_header_bytes + 16]);
        assert!(matches!(
            parse_request(&raw, &limits()),
            Err(HttpParseError::HeaderTooLarge)
        ));
    }

    #[test]
    fn malformed_heads_are_clean_400s() {
        for raw in [
            &b"NONSENSE\r\n\r\n"[..],
            b"GET  HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"G3T / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 44\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET / HTTP/1.1\r\nX: \xff\xfe\r\n\r\n",
        ] {
            let err = parse_request(raw, &limits()).expect_err("must reject");
            assert_eq!(err.status(), 400, "{err}");
        }
    }

    #[test]
    fn identical_duplicate_content_lengths_collapse() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        let (req, _) = parse_request(raw, &limits()).unwrap().unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!parse_request(raw, &limits()).unwrap().unwrap().0.keep_alive);
        let raw = b"GET / HTTP/1.0\r\n\r\n";
        assert!(!parse_request(raw, &limits()).unwrap().unwrap().0.keep_alive);
        let raw = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        assert!(parse_request(raw, &limits()).unwrap().unwrap().0.keep_alive);
    }

    #[test]
    fn response_round_trips_through_reader() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "{\"ok\":true}", false).unwrap();
        let resp = read_response(&mut wire.as_slice()).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.json().unwrap().get("ok").unwrap().as_bool(),
            Some(true)
        );
    }
}
