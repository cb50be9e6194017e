//! Minimal HTTP/1.1 framing — just enough protocol for the ANN service,
//! hand-rolled in keeping with the repo's zero-dependency rule, and shared
//! by both ends of the connection: the server reads requests and writes
//! responses through it, the [client](crate::client) the reverse.
//!
//! Supported: start-line + header parsing, `Content-Length` bodies,
//! keep-alive connection reuse (including pipelined messages), and
//! fixed-status responses. Deliberately absent: chunked transfer
//! encoding, multipart, compression, TLS — a production deployment would
//! sit this behind a terminating proxy.
//!
//! Every message leaves in **one** write ([`write_message`]): a head and a
//! body sent as two small segments make the second wait for the peer's
//! delayed ACK (~40 ms on Linux) under Nagle's algorithm.

use std::io::{self, IoSlice, Read, Write};

/// Upper bound on a message head (start line + headers). A head larger
/// than this is rejected rather than buffered without bound.
const MAX_HEAD: usize = 16 * 1024;

/// Upper bound on a request body. Collection creation ships the full
/// point set inline, so this is sized for ~1M points of JSON rather
/// than for queries (which are tiny).
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// One framed HTTP message, request or response.
#[derive(Debug)]
pub struct Message {
    /// The start line: `METHOD target HTTP/1.1` or `HTTP/1.1 status reason`.
    pub start_line: String,
    /// The `Connection` header, when sent: `false` for `close`.
    pub keep_alive: Option<bool>,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Reads the messages of one connection, in order.
///
/// Owns the connection's one receive buffer: whatever arrives past the end
/// of a message (a pipelined next request) stays in it and starts the next
/// [`read_message`](MessageReader::read_message). The source is passed per
/// call so the owner keeps its socket for writing and probing.
#[derive(Debug)]
pub struct MessageReader {
    /// `buf[..len]` is received and not yet consumed.
    buf: Vec<u8>,
    len: usize,
    max_body: usize,
}

impl MessageReader {
    /// A reader that rejects bodies longer than `max_body`.
    pub fn new(max_body: usize) -> Self {
        MessageReader {
            buf: vec![0; MAX_HEAD],
            len: 0,
            max_body,
        }
    }

    /// Reads one message from `src`.
    ///
    /// Returns `Ok(None)` on a clean EOF before any byte of a new message
    /// (the peer closed a keep-alive connection), `Err(InvalidData)` on a
    /// malformed, truncated or oversized one, and the source's own error
    /// otherwise.
    pub fn read_message(&mut self, src: &mut impl Read) -> io::Result<Option<Message>> {
        // Head: read until the blank line, scanning only what is new.
        let mut scanned = 0;
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buf[..self.len], scanned) {
                break end;
            }
            scanned = self.len.saturating_sub(3);
            if self.len == self.buf.len() {
                return Err(bad("message head too large"));
            }
            let n = match src.read(&mut self.buf[self.len..]) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if n == 0 {
                if self.len == 0 {
                    return Ok(None);
                }
                return Err(bad("connection closed mid-message"));
            }
            self.len += n;
        };

        let head =
            std::str::from_utf8(&self.buf[..head_end - 4]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let start_line = lines.next().unwrap_or_default().to_string();
        let mut content_length = None;
        let mut keep_alive = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad("malformed header line"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                // RFC 9112 §6.3: a repeated or non-decimal length leaves the
                // body's end ambiguous to anything in front of us; reject it.
                if content_length.is_some() {
                    return Err(bad("repeated Content-Length"));
                }
                match value.parse() {
                    Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => content_length = Some(n),
                    _ => return Err(bad("bad Content-Length")),
                }
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = Some(!value.eq_ignore_ascii_case("close"));
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(bad("chunked bodies not supported"));
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > self.max_body {
            return Err(bad("message body too large"));
        }

        // Body: what came with the head, then the rest straight from the
        // source into the one allocation the caller keeps.
        let mut body = Vec::new();
        body.try_reserve_exact(content_length)
            .map_err(|_| bad("message body too large to buffer"))?;
        let buffered = content_length.min(self.len - head_end);
        body.extend_from_slice(&self.buf[head_end..head_end + buffered]);
        let missing = (content_length - buffered) as u64;
        if src.take(missing).read_to_end(&mut body)? as u64 != missing {
            return Err(bad("connection closed mid-body"));
        }

        // Anything past this message opens the next one.
        let consumed = head_end + buffered;
        self.buf.copy_within(consumed..self.len, 0);
        self.len -= consumed;
        Ok(Some(Message {
            start_line,
            keep_alive,
            body,
        }))
    }
}

/// Index just past the first `\r\n\r\n` that starts at or after `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| from + p + 4)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes `head` and `body` as one message: a vectored write hands both
/// to the socket at once, so they leave in the same segment(s) without
/// being copied into one buffer first.
pub fn write_message(dst: &mut impl Write, mut head: &[u8], mut body: &[u8]) -> io::Result<()> {
    while !head.is_empty() || !body.is_empty() {
        match dst.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                let of_head = n.min(head.len());
                head = &head[of_head..];
                body = &body[n - of_head..];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    dst.flush()
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Path component, without the query string.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First value of query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether boolean-ish query flag `key` is set (`1`, `true`, `yes`,
    /// or present with no value).
    pub fn query_flag(&self, key: &str) -> bool {
        self.query_param(key)
            .is_some_and(|v| v.is_empty() || v == "1" || v == "true" || v == "yes")
    }

    /// Body as UTF-8, or `None` if it is not valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Reads the connection's next request.
///
/// Returns `Ok(None)` on a clean EOF before any bytes of a new request
/// (the client closed a keep-alive connection), and `Err` on a malformed
/// or oversized request.
pub fn read_request(
    reader: &mut MessageReader,
    src: &mut impl Read,
) -> io::Result<Option<Request>> {
    let Some(msg) = reader.read_message(src)? else {
        return Ok(None);
    };
    let mut parts = msg.start_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts.next().ok_or_else(|| bad("missing path"))?;
    let version = parts.next().unwrap_or("HTTP/1.0");
    let (path, query_str) = target.split_once('?').unwrap_or((target, ""));
    let query = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        body: msg.body,
        // HTTP/1.1 defaults to keep-alive; only `Connection: close` opts out.
        keep_alive: msg.keep_alive.unwrap_or(version == "HTTP/1.1"),
    }))
}

/// Writes one request with a `Content-Length` body, keep-alive.
pub fn write_request(
    dst: &mut impl Write,
    method: &str,
    target: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: ann-serve\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    );
    write_message(dst, head.as_bytes(), body.as_bytes())
}

/// Canonical reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one `application/json` response. `keep_alive` echoes the
/// request's connection preference back in the `Connection` header.
pub fn write_response(
    dst: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    write_message(dst, head.as_bytes(), body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source that hands out its parts one `read` at a time, then EOF.
    struct Parts<'a>(Vec<&'a [u8]>);

    impl Read for Parts<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(part) = self.0.first_mut() else {
                return Ok(0);
            };
            let n = part.len().min(buf.len());
            buf[..n].copy_from_slice(&part[..n]);
            *part = &part[n..];
            if part.is_empty() {
                self.0.remove(0);
            }
            Ok(n)
        }
    }

    const POST: &[u8] =
        b"POST /collections/c/query?trace=1&x HTTP/1.1\r\nHost: h\r\nContent-Length: 11\r\n\r\n{\"k\":\"\xc3\xa9\"}\n";

    fn assert_is_post(req: &Request) {
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/collections/c/query");
        assert!(req.query_flag("trace") && req.query_flag("x"));
        assert_eq!(req.body_str(), Some("{\"k\":\"é\"}\n"));
        assert!(req.keep_alive);
    }

    #[test]
    fn request_torn_at_every_byte_reads_the_same() {
        for cut in 1..POST.len() {
            let mut src = Parts(vec![&POST[..cut], &POST[cut..]]);
            let mut reader = MessageReader::new(MAX_BODY);
            let req = read_request(&mut reader, &mut src)
                .unwrap_or_else(|e| panic!("cut at {cut}: {e}"))
                .unwrap_or_else(|| panic!("cut at {cut}: no request"));
            assert_is_post(&req);
            let next = read_request(&mut reader, &mut src).expect("clean EOF");
            assert!(next.is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn pipelined_requests_are_read_in_order() {
        let get = b"GET /health HTTP/1.0\r\n\r\n";
        let wire = [POST, get, POST].concat();
        // In one segment, and torn inside the second message's head.
        for cut in [wire.len(), POST.len() + 7] {
            let mut src = Parts(vec![&wire[..cut], &wire[cut..]]);
            let mut reader = MessageReader::new(MAX_BODY);
            let mut next = || read_request(&mut reader, &mut src).expect("well-formed");
            assert_is_post(&next().expect("first"));
            let health = next().expect("second");
            assert_eq!(
                (health.method.as_str(), health.path.as_str()),
                ("GET", "/health")
            );
            assert!(health.body.is_empty() && !health.keep_alive);
            assert_is_post(&next().expect("third"));
            assert!(next().is_none());
        }
    }

    #[test]
    fn malformed_messages_are_invalid_data() {
        let long_head = [b"GET / HTTP/1.1\r\nX: ".as_slice(), &[b'a'; MAX_HEAD]].concat();
        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let table: [(&str, &[u8]); 11] = [
            ("EOF inside the head", b"GET / HTTP/1.1\r\nHost"),
            ("EOF inside the body", &POST[..POST.len() - 1]),
            ("head over MAX_HEAD", &long_head),
            ("body over MAX_BODY", big_body.as_bytes()),
            (
                "Transfer-Encoding",
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            ),
            ("non-UTF-8 head", b"GET /\xff HTTP/1.1\r\n\r\n"),
            ("header without a colon", b"GET / HTTP/1.1\r\nHost\r\n\r\n"),
            (
                "Content-Length not a number",
                b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            ),
            (
                "Content-Length with a sign",
                b"POST / HTTP/1.1\r\nContent-Length: +1\r\n\r\nx",
            ),
            (
                "two Content-Length headers",
                b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx",
            ),
            ("no target", b"GET\r\n\r\n"),
        ];
        for (what, wire) in table {
            let mut reader = MessageReader::new(MAX_BODY);
            let err = read_request(&mut reader, &mut Parts(vec![wire])).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        let mut reader = MessageReader::new(MAX_BODY);
        let empty = read_request(&mut reader, &mut Parts(vec![])).expect("clean EOF");
        assert!(empty.is_none());
    }

    /// A sink that takes at most `step` bytes per call, like a socket with
    /// a nearly full send buffer, and counts the calls.
    struct Dribble {
        got: Vec<u8>,
        step: usize,
        calls: usize,
    }

    impl Dribble {
        fn new(step: usize) -> Self {
            Dribble {
                got: Vec::new(),
                step,
                calls: 0,
            }
        }
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.step;
            for b in bufs {
                let n = b.len().min(room);
                self.got.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.step - room)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_message_is_one_write_and_survives_short_writes() {
        let mut whole = Dribble::new(usize::MAX);
        write_response(&mut whole, 200, "{\"ok\":true}", true).expect("write");
        assert_eq!(whole.calls, 1, "head and body must leave in one write");
        let mut response = MessageReader::new(MAX_BODY);
        let msg = response
            .read_message(&mut whole.got.as_slice())
            .expect("well-formed")
            .expect("one message");
        assert_eq!(msg.start_line, "HTTP/1.1 200 OK");
        assert_eq!(
            (msg.keep_alive, msg.body.as_slice()),
            (Some(true), b"{\"ok\":true}".as_slice())
        );

        for step in 1..=whole.got.len() {
            let mut short = Dribble::new(step);
            write_response(&mut short, 200, "{\"ok\":true}", true).expect("write");
            assert_eq!(short.got, whole.got, "{step} bytes per write");
        }
        let mut no_body = Dribble::new(usize::MAX);
        write_request(&mut no_body, "GET", "/health", "").expect("write");
        assert!(no_body
            .got
            .ends_with(b"Content-Length: 0\r\nConnection: keep-alive\r\n\r\n"));
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest", 0), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest", 14), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest", 15), None);
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n", 0), None);
    }

    #[test]
    fn reason_phrases_cover_error_codes() {
        use ann_core::wire::ErrorCode;
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::Cancelled,
            ErrorCode::DeadlineExceeded,
            ErrorCode::VisitBudgetExhausted,
            ErrorCode::IoBudgetExhausted,
            ErrorCode::StorageFailed,
            ErrorCode::CollectionNotFound,
            ErrorCode::CollectionExists,
            ErrorCode::InvalidCollection,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            assert_ne!(reason(code.http_status()), "Unknown", "{code:?}");
        }
    }
}
