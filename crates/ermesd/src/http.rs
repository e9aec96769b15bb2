//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The daemon needs a deliberately small slice of the protocol: request
//! line + headers + `Content-Length` bodies, keep-alive, and plain-text
//! responses. Chunked transfer encoding, multipart, compression, and
//! TLS are out of scope — a reverse proxy provides those in production,
//! exactly as it would for any internal analysis backend. Implemented on
//! `std::io` only, matching the workspace's vendoring philosophy.

use std::io::{BufRead, Read, Write};

/// Hard cap on the request line + headers (a spec body has its own,
/// separately configured cap).
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Decoded query parameters, in declaration order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of query parameter `name`, if present.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of header `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be produced from the connection.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// A protocol violation; the connection must be answered with the
    /// given status and then closed.
    Malformed {
        /// HTTP status to respond with (400, 413, or 501).
        status: u16,
        /// Human-readable reason, sent as the body.
        reason: String,
    },
    /// An I/O failure (timeout, reset); no response is possible.
    Io(std::io::Error),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn malformed(status: u16, reason: impl Into<String>) -> ReadError {
    ReadError::Malformed {
        status,
        reason: reason.into(),
    }
}

/// Reads one request from `reader`.
///
/// `max_body` bounds the `Content-Length` the server is willing to
/// buffer; larger requests are rejected with a 413-classed error before
/// any body byte is read.
///
/// # Errors
///
/// [`ReadError::Closed`] on clean EOF before the first byte,
/// [`ReadError::Malformed`] on protocol violations, [`ReadError::Io`]
/// when the underlying stream fails.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, ReadError> {
    let mut header_bytes = 0usize;
    let request_line = match read_line(reader, &mut header_bytes)? {
        None => return Err(ReadError::Closed),
        Some(line) if line.is_empty() => return Err(malformed(400, "empty request line")),
        Some(line) => line,
    };
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(malformed(400, "malformed request line"));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(malformed(400, "malformed request line"));
    }
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut header_bytes)?
            .ok_or_else(|| malformed(400, "connection closed mid-headers"))?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(malformed(400, format!("malformed header line `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    // Bodies are framed by Content-Length only. A request using a
    // transfer encoding (e.g. `chunked`) would be parsed as body-less and
    // its chunk data then misread as the next pipelined request on the
    // keep-alive connection — so reject it outright, before any body byte
    // is consumed. `identity` is the no-op encoding and equivalent to the
    // header's absence.
    if let Some((_, te)) = headers.iter().find(|(k, _)| k == "transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(malformed(
                501,
                format!("transfer-encoding `{te}` is not supported; use content-length framing"),
            ));
        }
    }
    // Two differing lengths frame the body two ways: a proxy honoring the
    // other one would split the stream elsewhere (RFC 9112 §6.3).
    let mut lengths = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v);
    let content_length = match lengths.next() {
        None => 0,
        Some(v) if lengths.any(|other| other != v) => {
            return Err(malformed(400, "conflicting content-length headers"));
        }
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| malformed(400, format!("invalid content-length `{v}`")))?,
    };
    if content_length > max_body {
        return Err(malformed(
            413,
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let (path, query) = match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, qs)) => (path.to_string(), parse_query(qs)),
    };
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// Reads one CRLF- (or bare-LF-) terminated line, enforcing the header
/// budget. `None` = clean EOF before any byte.
fn read_line<R: BufRead>(
    reader: &mut R,
    header_bytes: &mut usize,
) -> Result<Option<String>, ReadError> {
    let mut line = Vec::new();
    let budget = MAX_HEADER_BYTES - (*header_bytes).min(MAX_HEADER_BYTES);
    let read = reader
        .by_ref()
        .take(budget as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if read == 0 {
        return Ok(None);
    }
    if read > budget {
        return Err(malformed(413, "request headers too large"));
    }
    *header_bytes += read;
    while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| malformed(400, "non-UTF-8 request header"))
}

/// Splits `a=1&b=2` into pairs, percent-decoding both sides (`+` as
/// space, `%XX` as the byte — enough for the numeric/CSV parameters the
/// API takes).
fn parse_query(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// An HTTP response ready to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 400, 404, 413, 422, 429, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (name, value), e.g. `Retry-After`.
    pub extra_headers: Vec<(&'static str, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// The standard reason phrase for the status code.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Content Too Large",
            422 => "Unprocessable Content",
            429 => "Too Many Requests",
            // nginx's convention for "client hung up before the response
            // was ready"; the body can only ever land in a packet capture,
            // but the status keeps the request log truthful.
            499 => "Client Closed Request",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes status line, headers, and body to `writer`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (peer gone); the caller drops the
    /// connection.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        if parx::faultpoint::hit("http.write").fired() {
            // Simulate a dying peer / full socket buffer: emit a prefix of
            // the head and fail. The truncation point is before the blank
            // line, so the client can never mistake the fragment for a
            // complete response — a detectable failure, not corruption.
            let cut = head.len() / 2;
            writer.write_all(&head.as_bytes()[..cut])?;
            let _ = writer.flush();
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "faultpoint `http.write`: injected short write",
            ));
        }
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// A parsed HTTP response — the client side of the protocol, used by
/// the cluster coordinator to talk to worker ermesd instances. Same
/// deliberately small slice as [`read_request`]: status line, headers,
/// `Content-Length` body.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn invalid(reason: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, reason.into())
}

/// Reads one response from `reader`. `max_body` bounds the body the
/// client is willing to buffer (a worker's sweep-point lines are tiny;
/// a relayed explore report is bounded by the server's own cap).
///
/// # Errors
///
/// `InvalidData` on protocol violations (including a missing or
/// oversized `Content-Length`), `UnexpectedEof` when the peer closes
/// mid-response — the signal the coordinator's retry logic treats as a
/// transient worker failure.
pub fn read_response<R: BufRead>(
    reader: &mut R,
    max_body: usize,
) -> std::io::Result<ClientResponse> {
    let mut header_bytes = 0usize;
    let status_line = match read_line(reader, &mut header_bytes) {
        Ok(Some(line)) => line,
        Ok(None) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            ))
        }
        Err(ReadError::Io(e)) => return Err(e),
        Err(ReadError::Malformed { reason, .. }) => return Err(invalid(reason)),
        Err(ReadError::Closed) => unreachable!("read_line reports EOF as None"),
    };
    let mut parts = status_line.splitn(3, ' ');
    let (Some(version), Some(status), _) = (parts.next(), parts.next(), parts.next()) else {
        return Err(invalid(format!("malformed status line `{status_line}`")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid(format!("unexpected protocol `{version}`")));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| invalid(format!("non-numeric status `{status}`")))?;
    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut header_bytes) {
            Ok(Some(line)) => line,
            Ok(None) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-headers",
                ))
            }
            Err(ReadError::Io(e)) => return Err(e),
            Err(ReadError::Malformed { reason, .. }) => return Err(invalid(reason)),
            Err(ReadError::Closed) => unreachable!("read_line reports EOF as None"),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(invalid(format!("malformed header line `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| invalid(format!("invalid content-length `{v}`")))?,
    };
    if content_length > max_body {
        return Err(invalid(format!(
            "response body of {content_length} bytes exceeds the {max_body}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// Serializes one client request to `writer`: the coordinator's worker
/// link always closes the connection after one exchange (subjobs are
/// coarse, and per-request connections make retry/hedge bookkeeping
/// trivially correct).
///
/// # Errors
///
/// Propagates I/O failures; the caller treats them as a transient
/// worker failure and retries on the next ring replica.
pub fn write_request<W: Write>(
    writer: &mut W,
    method: &str,
    target: &str,
    headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "{method} {target} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(text.as_bytes()), 1024)
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /explore?target=2000&jobs=2 HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("valid request");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/explore");
        assert_eq!(req.query_param("target"), Some("2000"));
        assert_eq!(req.query_param("jobs"), Some("2"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse("POST /analyze HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").expect("valid");
        assert_eq!(req.body, b"hello");
        assert_eq!(req.header("content-length"), Some("5"));
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").expect("valid");
        assert!(!req.keep_alive());
    }

    #[test]
    fn clean_eof_reports_closed() {
        assert!(matches!(parse(""), Err(ReadError::Closed)));
    }

    #[test]
    fn malformed_request_line_is_rejected() {
        for bad in ["GARBAGE\r\n\r\n", "GET /\r\n\r\n", "GET / SPDY/3\r\n\r\n"] {
            assert!(
                matches!(parse(bad), Err(ReadError::Malformed { status: 400, .. })),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn oversized_body_is_rejected_with_413() {
        let text = "POST /analyze HTTP/1.1\r\nContent-Length: 9999\r\n\r\n";
        assert!(matches!(
            parse(text),
            Err(ReadError::Malformed { status: 413, .. })
        ));
    }

    #[test]
    fn oversized_headers_are_rejected() {
        let mut text = String::from("GET / HTTP/1.1\r\n");
        for i in 0..2000 {
            text.push_str(&format!("x-h{i}: {}\r\n", "v".repeat(20)));
        }
        text.push_str("\r\n");
        assert!(matches!(
            parse(&text),
            Err(ReadError::Malformed { status: 413, .. })
        ));
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected_with_501() {
        // Without the check, this parsed as a body-less request and the
        // chunk data (`5\r\nhello\r\n0\r\n\r\n`) was then misread as the
        // next pipelined request on the keep-alive connection.
        let text = "POST /analyze HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    5\r\nhello\r\n0\r\n\r\n";
        let mut reader = BufReader::new(text.as_bytes());
        let err = read_request(&mut reader, 1024).expect_err("chunked must be rejected");
        match err {
            ReadError::Malformed { status, reason } => {
                assert_eq!(status, 501);
                assert!(reason.contains("chunked"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn compressed_transfer_encoding_is_rejected_with_501() {
        let text =
            "POST /analyze HTTP/1.1\r\nTransfer-Encoding: gzip\r\nContent-Length: 2\r\n\r\nok";
        assert!(matches!(
            parse(text),
            Err(ReadError::Malformed { status: 501, .. })
        ));
    }

    #[test]
    fn identity_transfer_encoding_is_equivalent_to_absent() {
        let text =
            "POST /analyze HTTP/1.1\r\nTransfer-Encoding: identity\r\nContent-Length: 2\r\n\r\nok";
        let req = parse(text).expect("identity encoding is a no-op");
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn query_decoding_handles_percent_and_plus() {
        let req = parse("GET /x?a=1%2C2%2C3&b=hello+world&flag HTTP/1.1\r\n\r\n").expect("valid");
        assert_eq!(req.query_param("a"), Some("1,2,3"));
        assert_eq!(req.query_param("b"), Some("hello world"));
        assert_eq!(req.query_param("flag"), Some(""));
    }

    #[test]
    fn response_serializes_with_length() {
        let mut out = Vec::new();
        Response::text(200, "body")
            .write_to(&mut out, true)
            .expect("writes");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 4\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nbody"));
    }

    #[test]
    fn client_response_round_trips_through_the_server_writer() {
        let mut wire = Vec::new();
        let mut response = Response::text(429, "busy\n");
        response
            .extra_headers
            .push(("retry-after", "3".to_string()));
        response.write_to(&mut wire, false).expect("writes");
        let parsed =
            read_response(&mut BufReader::new(wire.as_slice()), 1024).expect("parses back");
        assert_eq!(parsed.status, 429);
        assert_eq!(parsed.body, b"busy\n");
        assert_eq!(parsed.header("retry-after"), Some("3"));
        assert_eq!(parsed.header("connection"), Some("close"));
    }

    #[test]
    fn truncated_response_reports_unexpected_eof() {
        let mut wire = Vec::new();
        Response::text(200, "0123456789")
            .write_to(&mut wire, false)
            .expect("writes");
        for cut in 0..wire.len() {
            let err = read_response(&mut BufReader::new(&wire[..cut]), 1024)
                .expect_err("must not parse a prefix");
            // A cut at a line boundary reads as EOF; mid-line it reads
            // as a malformed line. Either way the coordinator sees an
            // error (a retryable one), never a truncated-but-Ok body.
            assert!(
                matches!(
                    err.kind(),
                    std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::InvalidData
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn oversized_response_body_is_rejected() {
        let mut wire = Vec::new();
        Response::text(200, vec![b'x'; 64])
            .write_to(&mut wire, false)
            .expect("writes");
        let err = read_response(&mut BufReader::new(wire.as_slice()), 16).expect_err("too big");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn client_request_round_trips_through_the_server_parser() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            "POST",
            "/shard/sweeppoint?target=1200",
            &[("x-ermes-trace", "7/9".to_string())],
            b"{\"spec\":1}",
        )
        .expect("writes");
        let req =
            read_request(&mut BufReader::new(wire.as_slice()), 1024).expect("server parses it");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/shard/sweeppoint");
        assert_eq!(req.query_param("target"), Some("1200"));
        assert_eq!(req.header("x-ermes-trace"), Some("7/9"));
        assert_eq!(req.body, b"{\"spec\":1}");
        assert!(!req.keep_alive(), "worker link is one-shot");
    }

    #[test]
    fn two_requests_on_one_connection() {
        let text = "GET /healthz HTTP/1.1\r\n\r\nPOST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let mut reader = BufReader::new(text.as_bytes());
        let first = read_request(&mut reader, 1024).expect("first");
        assert_eq!(first.path, "/healthz");
        let second = read_request(&mut reader, 1024).expect("second");
        assert_eq!(second.body, b"ok");
        assert!(matches!(
            read_request(&mut reader, 1024),
            Err(ReadError::Closed)
        ));
    }
}
