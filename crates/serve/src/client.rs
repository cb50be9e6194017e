//! A minimal blocking HTTP client for the ANN service — enough for the
//! integration tests, the CI smoke test, and the closed-loop load
//! generator, without pulling in an HTTP dependency.
//!
//! [`Conn`] is one keep-alive connection (the closed-loop benchmark
//! drives one per simulated client); [`Client`] wraps an address with
//! request helpers that open a fresh connection per call.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use ann_core::wire::{QueryOutcome, QuerySpec, WireError};

use crate::http::{write_request, MessageReader};

/// One HTTP response: status code and body bytes (always read fully).
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// The status code (200, 429, ...).
    pub status: u16,
    /// The response body.
    pub body: String,
}

impl HttpResponse {
    /// Parses the body as a [`QueryOutcome`] (only meaningful on 200s).
    pub fn outcome(&self) -> Result<QueryOutcome, WireError> {
        QueryOutcome::from_json(&self.body)
    }
}

/// A single keep-alive connection to the server.
pub struct Conn {
    stream: TcpStream,
    reader: MessageReader,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            // No cap on a response: it carries a whole result set.
            reader: MessageReader::new(usize::MAX),
        })
    }

    /// Sends one request and reads the full response.
    pub fn request(&mut self, method: &str, target: &str, body: &str) -> io::Result<HttpResponse> {
        write_request(&mut self.stream, method, target, body)?;
        let msg = self
            .reader
            .read_message(&mut self.stream)?
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        let invalid = |what| io::Error::new(io::ErrorKind::InvalidData, what);
        let status = msg
            .start_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let body = String::from_utf8(msg.body).map_err(|_| invalid("non-UTF-8 body"))?;
        Ok(HttpResponse { status, body })
    }
}

/// Address + convenience helpers; one fresh connection per call.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

impl Client {
    /// A client for `addr` (e.g. `"127.0.0.1:7071"`).
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into() }
    }

    /// Opens a keep-alive connection for a request sequence.
    pub fn conn(&self) -> io::Result<Conn> {
        Conn::connect(&self.addr)
    }

    /// One-shot request on a fresh connection.
    pub fn request(&self, method: &str, target: &str, body: &str) -> io::Result<HttpResponse> {
        self.conn()?.request(method, target, body)
    }

    /// `GET /health`.
    pub fn health(&self) -> io::Result<HttpResponse> {
        self.request("GET", "/health", "")
    }

    /// Creates a collection from `[x, y]` points (oids are positions).
    pub fn create_collection(
        &self,
        id: &str,
        kind: &str,
        points: &[[f64; 2]],
    ) -> io::Result<HttpResponse> {
        let mut body = format!("{{\"id\":\"{id}\",\"kind\":\"{kind}\",\"points\":[");
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("[{},{}]", p[0], p[1]));
        }
        body.push_str("]}");
        self.request("POST", "/collections", &body)
    }

    /// Runs `spec` against collection `id` (self-join).
    pub fn query(&self, id: &str, spec: &QuerySpec) -> io::Result<HttpResponse> {
        self.request("POST", &format!("/collections/{id}/query"), &spec.to_json())
    }

    /// Runs `spec` against collection `id` with up to `threads`
    /// intra-query worker threads (`0` = one per core). The server
    /// clamps the grant to its global compute-token budget, so this is
    /// a request, not a guarantee — results are identical either way.
    pub fn query_threads(
        &self,
        id: &str,
        threads: usize,
        spec: &QuerySpec,
    ) -> io::Result<HttpResponse> {
        self.request(
            "POST",
            &format!("/collections/{id}/query?threads={threads}"),
            &spec.to_json(),
        )
    }

    /// Runs `spec` against the snapshot `version` of collection `id`
    /// (time travel; the version must still be in the history window).
    pub fn query_at(&self, id: &str, version: u32, spec: &QuerySpec) -> io::Result<HttpResponse> {
        self.request(
            "POST",
            &format!("/collections/{id}/query?version={version}"),
            &spec.to_json(),
        )
    }

    /// Appends `[x, y]` points to a versioned collection; oids continue
    /// from the current count.
    pub fn insert_points(&self, id: &str, points: &[[f64; 2]]) -> io::Result<HttpResponse> {
        let mut body = "{\"points\":[".to_string();
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("[{},{}]", p[0], p[1]));
        }
        body.push_str("]}");
        self.request("POST", &format!("/collections/{id}/insert"), &body)
    }

    /// Drops collection `id`.
    pub fn drop_collection(&self, id: &str) -> io::Result<HttpResponse> {
        self.request("DELETE", &format!("/collections/{id}"), "")
    }

    /// `POST /admin/shutdown`.
    pub fn shutdown_server(&self) -> io::Result<HttpResponse> {
        self.request("POST", "/admin/shutdown", "")
    }
}
