//! The owned, serializable query surface: [`QuerySpec`] / [`QueryOutcome`]
//! with a versioned JSON wire schema, plus the stable error-code space the
//! serving layer maps onto HTTP statuses.
//!
//! [`QuerySpec`] is the one description of a query ([`crate::query`]
//! defines it); this module gives it its JSON form. It borrows nothing and
//! holds its deadline as a time budget, so it crosses a process boundary
//! as is. The serving crate (`ann-serve`) parses a `QuerySpec` off the
//! wire, attaches the runtime-only pieces (cancel token, tracer) to make
//! an [`AnnRequest`](crate::query::AnnRequest) server-side, and runs it
//! through the same canonical [`query::run`](crate::query::run) path
//! every in-process caller uses.
//!
//! Everything here is hand-rolled over `std` (no serde), in the same
//! style as [`ExecutionReport::to_json`](crate::trace::ExecutionReport):
//! the wire layer stays dependency-free, and output is deterministic, so
//! golden fixtures and byte-identity gates are meaningful.
//!
//! # Schema versioning
//!
//! See [`WIRE_SCHEMA_VERSION`] for the bump rule.

pub use crate::query::QuerySpec;

use crate::query::{Algorithm, MetricChoice};
use crate::resilience::{BudgetKind, QueryError};
use crate::stats::{AnnOutput, AnnStats, NeighborPair};
use crate::trace::{json_escape, json_io, json_num, write_json_num, ExecutionReport};
use ann_store::{write_json_members, RetryPolicy, StoreError};
use std::fmt::{self, Write as _};
use std::time::Duration;

/// Current version of the JSON wire schema, emitted as the `"v"` field of
/// every [`QuerySpec`] and [`QueryOutcome`] document.
///
/// **Bump rule:** adding a new *optional* field (absent ⇒ old behavior)
/// is backward compatible and does **not** bump the version. Removing or
/// renaming a field, changing a field's type or meaning, or making a new
/// field mandatory **does** bump it. Parsers accept documents whose `v`
/// is less than or equal to the current version (older optional fields
/// simply default) and reject anything newer with
/// [`WireError::UnsupportedVersion`] — a v1 server never silently
/// misreads a v2 request. New [`Algorithm`] / [`MetricChoice`] variants
/// ride on the existing version: unknown names are a schema error, which
/// is exactly the signal an old server should give for a too-new request.
///
/// Additions under this rule so far (no bump, all optional):
/// * `"version"` on [`QuerySpec`] — pin the query to an MVCC snapshot
///   version of a versioned collection (absent ⇒ latest);
/// * `"version"` on [`QueryOutcome`] — the snapshot version the query
///   actually ran against (absent ⇒ the collection is unversioned);
/// * `"threads"` on [`QuerySpec`] — intra-query worker threads (absent ⇒
///   `1`, the serial path). For MBA it is written inside the algorithm
///   object, where v1 always wrote it; for every other algorithm at top
///   level, and only when not `1`. A v1 document may set both: the top
///   level wins unless it is `1` (v1's precedence, applied by the parser
///   alone). Both sites are bounded by [`MAX_WIRE_THREADS`].
pub const WIRE_SCHEMA_VERSION: u64 = 1;

/// Largest thread count accepted from the wire, at either `"threads"`
/// site. `0` ("one worker per core") and `1..=MAX_WIRE_THREADS` are
/// valid; larger values are a schema error. No real box has more cores
/// than this, and an unbounded value would otherwise reach
/// `resolve_threads` verbatim and translate into an attempt to spawn that
/// many OS threads.
pub const MAX_WIRE_THREADS: usize = 1024;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a wire document failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// The bytes are not well-formed JSON.
    Parse {
        /// Byte offset of the failure.
        at: usize,
        /// What the parser expected or found.
        what: String,
    },
    /// Well-formed JSON that does not match the schema (missing field,
    /// wrong type, unknown enum name, out-of-range value).
    Schema(String),
    /// The document's `"v"` is newer than [`WIRE_SCHEMA_VERSION`].
    UnsupportedVersion(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Parse { at, what } => write!(f, "JSON parse error at byte {at}: {what}"),
            WireError::Schema(what) => write!(f, "schema error: {what}"),
            WireError::UnsupportedVersion(v) => write!(
                f,
                "unsupported wire schema version {v} (this build speaks <= {WIRE_SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Minimal JSON value model + parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Minimal by design: objects keep insertion order
/// in a `Vec` (no hashing, deterministic iteration), and the parser
/// enforces a nesting depth limit so adversarial network input cannot
/// blow the stack. Non-negative integer literals that fit a `u64` parse
/// to [`Int`](Self::Int) so full-range oids transit losslessly; every
/// other number is an `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no sign, fraction, or exponent)
    /// that fits a `u64`, kept bit-lossless — object ids use the full
    /// 64-bit range, which `f64` cannot represent past 2^53.
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as `(key, value)` pairs in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(s: &str) -> Result<JsonValue, WireError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.err("trailing data after JSON document"));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64` (integer literals convert, losing bits past
    /// 2^53 — distances on our wire always carry a `.` or exponent, so
    /// they never take this path).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`: any [`Int`](Self::Int) (full 64-bit range),
    /// or a non-integer-literal number that still is a non-negative
    /// integer representable exactly in an `f64` (e.g. `1e3`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize` (via [`as_u64`](Self::as_u64)).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn write_pretty(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = |f: &mut fmt::Formatter<'_>, depth: usize| write!(f, "\n{:1$}", "", 2 * depth);
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(i) => write!(f, "{i}"),
            JsonValue::Num(n) => write_json_num(f, *n),
            JsonValue::Str(s) => write!(f, "\"{}\"", json_escape(s)),
            JsonValue::Arr(items) if items.is_empty() => f.write_str("[]"),
            JsonValue::Obj(fields) if fields.is_empty() => f.write_str("{}"),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    f.write_str(if i == 0 { "" } else { "," })?;
                    pad(f, depth + 1)?;
                    item.write_pretty(f, depth + 1)?;
                }
                pad(f, depth)?;
                f.write_str("]")
            }
            JsonValue::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i == 0 { "" } else { "," })?;
                    pad(f, depth + 1)?;
                    write!(f, "\"{}\": ", json_escape(key))?;
                    value.write_pretty(f, depth + 1)?;
                }
                pad(f, depth)?;
                f.write_str("}")
            }
        }
    }
}

/// The document, pretty-printed: two-space indent, one array item or
/// object field per line. Non-finite numbers print as `null`; everything
/// else parses back ([`JsonValue::parse`]) to an equal value, nesting
/// depth permitting.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_pretty(f, 0)
    }
}

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: impl Into<String>) -> WireError {
        WireError::Parse {
            at: self.at,
            what: what.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            // Duplicate keys are a wire-compat hazard: RFC 8259 leaves the
            // behavior unspecified, so one parser's "first wins" is another
            // parser's "last wins" — e.g. a smuggled second "version" field
            // could pin a different snapshot than an auditing proxy saw.
            // Hard-reject instead of silently picking one.
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, WireError> {
        let end = self.at + 4;
        let slice = self
            .bytes
            .get(self.at..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.at = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.at += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if !self.literal("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000
                                    + (((hi as u32) - 0xD800) << 10)
                                    + ((lo as u32) - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad surrogate pair"))?
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| self.err("unpaired surrogate"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.at += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(b) => {
                    // Consume one UTF-8 scalar, validated from its own
                    // 1-4 bytes: looking any further ahead per character
                    // makes parsing quadratic in the document's length.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let scalar = self
                        .bytes
                        .get(self.at..self.at + len)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(scalar);
                    self.at += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, WireError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.at]).map_err(|_| self.err("bad number"))?;
        // Plain non-negative integer literals stay lossless as u64 (oids
        // use the full 64-bit range); anything signed, fractional,
        // exponential, or > u64::MAX falls back to f64.
        if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(i) = text.parse::<u64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(format!("bad number {text:?}")))
    }
}

// ---------------------------------------------------------------------------
// CollectionId
// ---------------------------------------------------------------------------

/// A validated collection name: what the serving layer keys its registry
/// (and on-disk files) by.
///
/// Restricted to 1–64 characters of `[A-Za-z0-9_-]` so an id is always a
/// safe filename component — no separators, no traversal, no hidden
/// files.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CollectionId(String);

impl CollectionId {
    /// Validates and wraps a collection name.
    pub fn new(name: &str) -> Result<Self, WireError> {
        if name.is_empty() || name.len() > 64 {
            return Err(WireError::Schema(format!(
                "collection id must be 1-64 characters, got {}",
                name.len()
            )));
        }
        if !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(WireError::Schema(format!(
                "collection id {name:?} may only contain [A-Za-z0-9_-]"
            )));
        }
        Ok(CollectionId(name.to_string()))
    }

    /// The validated name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CollectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for CollectionId {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CollectionId::new(s)
    }
}

// ---------------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------------

/// The stable, numeric error space of the wire API.
///
/// Every failure a remote client can observe maps onto exactly one code;
/// codes are append-only (a released number never changes meaning), and
/// the enum is `#[non_exhaustive]` so clients must leave room for codes
/// added later. `1xxx` are per-query failures, `2xxx` are collection /
/// store failures, `3xxx` are server-side admission failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// Malformed or schema-invalid request body (HTTP 400).
    BadRequest,
    /// The request's cancel token fired — for the server, the client
    /// disconnected mid-query (HTTP 499, nginx-style).
    Cancelled,
    /// The per-request deadline passed mid-traversal (HTTP 504).
    DeadlineExceeded,
    /// The node-visit budget ran out (HTTP 422: the request as stated is
    /// unsatisfiable within its own limits).
    VisitBudgetExhausted,
    /// The physical-read budget ran out (HTTP 422).
    IoBudgetExhausted,
    /// The storage layer failed after retries (HTTP 500).
    StorageFailed,
    /// No collection with the requested id (HTTP 404).
    CollectionNotFound,
    /// A collection with the requested id already exists (HTTP 409).
    CollectionExists,
    /// The collection definition is invalid (HTTP 400).
    InvalidCollection,
    /// The admission queue is full; retry later (HTTP 429).
    Overloaded,
    /// The server is shutting down (HTTP 503).
    ShuttingDown,
    /// Anything else (HTTP 500).
    Internal,
}

impl ErrorCode {
    /// The stable numeric code.
    pub fn code(self) -> u16 {
        match self {
            ErrorCode::BadRequest => 1000,
            ErrorCode::Cancelled => 1001,
            ErrorCode::DeadlineExceeded => 1002,
            ErrorCode::VisitBudgetExhausted => 1003,
            ErrorCode::IoBudgetExhausted => 1004,
            ErrorCode::StorageFailed => 1005,
            ErrorCode::CollectionNotFound => 2000,
            ErrorCode::CollectionExists => 2001,
            ErrorCode::InvalidCollection => 2002,
            ErrorCode::Overloaded => 3000,
            ErrorCode::ShuttingDown => 3001,
            ErrorCode::Internal => 5000,
        }
    }

    /// The HTTP status the serving layer responds with.
    pub fn http_status(self) -> u16 {
        match self {
            ErrorCode::BadRequest | ErrorCode::InvalidCollection => 400,
            ErrorCode::Cancelled => 499,
            ErrorCode::DeadlineExceeded => 504,
            ErrorCode::VisitBudgetExhausted | ErrorCode::IoBudgetExhausted => 422,
            ErrorCode::StorageFailed | ErrorCode::Internal => 500,
            ErrorCode::CollectionNotFound => 404,
            ErrorCode::CollectionExists => 409,
            ErrorCode::Overloaded => 429,
            ErrorCode::ShuttingDown => 503,
        }
    }

    /// Short stable label, used as the `"error"` field on the wire.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::VisitBudgetExhausted => "visit-budget-exhausted",
            ErrorCode::IoBudgetExhausted => "io-budget-exhausted",
            ErrorCode::StorageFailed => "storage-failed",
            ErrorCode::CollectionNotFound => "collection-not-found",
            ErrorCode::CollectionExists => "collection-exists",
            ErrorCode::InvalidCollection => "invalid-collection",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        }
    }

    /// The code a [`QueryError`] surfaces as.
    pub fn from_query_error(e: &QueryError) -> Self {
        match e {
            QueryError::Cancelled => ErrorCode::Cancelled,
            QueryError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            QueryError::BudgetExhausted {
                budget: BudgetKind::Visits,
                ..
            } => ErrorCode::VisitBudgetExhausted,
            QueryError::BudgetExhausted {
                budget: BudgetKind::Io,
                ..
            } => ErrorCode::IoBudgetExhausted,
            QueryError::Io(_) => ErrorCode::StorageFailed,
        }
    }

    /// The code a [`StoreError`] surfaces as (outside a query, e.g. while
    /// creating or loading a collection).
    pub fn from_store_error(e: &StoreError) -> Self {
        match e {
            // Asking for a version outside the retained history window is
            // a client-side mistake, not a storage fault.
            StoreError::VersionNotRetained(_) => ErrorCode::BadRequest,
            StoreError::Corrupt { .. } => ErrorCode::StorageFailed,
            _ => ErrorCode::StorageFailed,
        }
    }

    /// Renders the standard error body: `{"error", "code", "message"}`.
    pub fn error_json(self, message: &str) -> String {
        format!(
            "{{\"error\":\"{}\",\"code\":{},\"message\":\"{}\"}}",
            self.label(),
            self.code(),
            json_escape(message)
        )
    }
}

// ---------------------------------------------------------------------------
// QuerySpec
// ---------------------------------------------------------------------------

/// The wire form of a [`QuerySpec`]: the one description of a query,
/// defined beside [`AnnRequest`](crate::query::AnnRequest) in
/// [`crate::query`].
impl QuerySpec {
    /// Serializes to the versioned JSON wire form. Deterministic: equal
    /// specs produce byte-identical documents (the round-trip property
    /// tests pin this).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str(&format!("{{\"v\":{WIRE_SCHEMA_VERSION},"));
        out.push_str("\"algorithm\":");
        match self.algorithm {
            // v1 writes MBA's worker count inside its object, always.
            Algorithm::Mba {
                traversal,
                expansion,
            } => {
                out.push_str(&format!(
                    "{{\"name\":\"mba\",\"traversal\":\"{}\",\"expansion\":\"{}\",\"threads\":{}}}",
                    traversal_name(traversal),
                    expansion_name(expansion),
                    self.threads
                ));
            }
            Algorithm::Bnn { group_size } => {
                out.push_str(&format!("{{\"name\":\"bnn\",\"group_size\":{group_size}}}"));
            }
            Algorithm::Mnn => out.push_str("{\"name\":\"mnn\"}"),
            Algorithm::Hnn { avg_cell_occupancy } => {
                out.push_str(&format!(
                    "{{\"name\":\"hnn\",\"avg_cell_occupancy\":{}}}",
                    json_num(avg_cell_occupancy)
                ));
            } // `Algorithm` is non_exhaustive for downstream crates only;
              // in-crate this match is exhaustive today and must be updated
              // together with any new variant.
        }
        out.push_str(&format!(
            ",\"metric\":\"{}\",\"k\":{},\"exclude_self\":{}",
            metric_wire_name(self.metric),
            self.k,
            self.exclude_self
        ));
        if let Some(budget) = self.deadline_in {
            out.push_str(&format!(",\"deadline_ms\":{}", budget.as_millis()));
        }
        if let Some(pages) = self.io_budget {
            out.push_str(&format!(",\"io_budget\":{pages}"));
        }
        if let Some(nodes) = self.visit_budget {
            out.push_str(&format!(",\"visit_budget\":{nodes}"));
        }
        if let Some(policy) = self.retry {
            out.push_str(&format!(
                ",\"retry\":{{\"max_attempts\":{},\"backoff_ms\":{}}}",
                policy.max_attempts,
                policy.backoff.as_millis()
            ));
        }
        if let Some(version) = self.version {
            out.push_str(&format!(",\"version\":{version}"));
        }
        if self.threads != 1 && !matches!(self.algorithm, Algorithm::Mba { .. }) {
            out.push_str(&format!(",\"threads\":{}", self.threads));
        }
        out.push('}');
        out
    }

    /// Parses the versioned JSON wire form (see [`WIRE_SCHEMA_VERSION`]
    /// for the compatibility rule).
    pub fn from_json(s: &str) -> Result<Self, WireError> {
        let doc = JsonValue::parse(s)?;
        Self::from_value(&doc)
    }

    /// Parses a spec out of an already-parsed [`JsonValue`] (the serving
    /// layer parses the body once and picks fields out).
    pub fn from_value(doc: &JsonValue) -> Result<Self, WireError> {
        let v = doc
            .get("v")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| WireError::Schema("missing integer field \"v\"".into()))?;
        if v > WIRE_SCHEMA_VERSION {
            return Err(WireError::UnsupportedVersion(v));
        }
        let alg = doc
            .get("algorithm")
            .ok_or_else(|| WireError::Schema("missing field \"algorithm\"".into()))?;
        let name = alg
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| WireError::Schema("algorithm needs a string \"name\"".into()))?;
        let mut mba_threads = None;
        let algorithm = match name {
            "mba" => {
                let mut traversal = crate::mba::Traversal::default();
                let mut expansion = crate::mba::Expansion::default();
                if let Some(t) = alg.get("traversal") {
                    traversal = traversal_from_name(t.as_str().ok_or_else(|| {
                        WireError::Schema("\"traversal\" must be a string".into())
                    })?)?;
                }
                if let Some(e) = alg.get("expansion") {
                    expansion = expansion_from_name(e.as_str().ok_or_else(|| {
                        WireError::Schema("\"expansion\" must be a string".into())
                    })?)?;
                }
                mba_threads = alg.get("threads").map(wire_threads).transpose()?;
                Algorithm::Mba {
                    traversal,
                    expansion,
                }
            }
            "bnn" => {
                let group_size = match alg.get("group_size") {
                    None => {
                        if let Algorithm::Bnn { group_size } = Algorithm::bnn() {
                            group_size
                        } else {
                            unreachable!("Algorithm::bnn() is Bnn")
                        }
                    }
                    Some(g) => {
                        let g = g.as_usize().ok_or_else(|| {
                            WireError::Schema("\"group_size\" must be an integer".into())
                        })?;
                        if g == 0 {
                            return Err(WireError::Schema(
                                "\"group_size\" must be positive".into(),
                            ));
                        }
                        g
                    }
                };
                Algorithm::Bnn { group_size }
            }
            "mnn" => Algorithm::Mnn,
            "hnn" => {
                let avg_cell_occupancy = match alg.get("avg_cell_occupancy") {
                    None => {
                        if let Algorithm::Hnn { avg_cell_occupancy } = Algorithm::hnn() {
                            avg_cell_occupancy
                        } else {
                            unreachable!("Algorithm::hnn() is Hnn")
                        }
                    }
                    Some(o) => {
                        let o = o.as_f64().ok_or_else(|| {
                            WireError::Schema("\"avg_cell_occupancy\" must be a number".into())
                        })?;
                        if !(o.is_finite() && o > 0.0) {
                            return Err(WireError::Schema(
                                "\"avg_cell_occupancy\" must be finite and positive".into(),
                            ));
                        }
                        o
                    }
                };
                Algorithm::Hnn { avg_cell_occupancy }
            }
            other => {
                return Err(WireError::Schema(format!(
                    "unknown algorithm {other:?} (expected mba|bnn|mnn|hnn)"
                )))
            }
        };
        let metric = match doc.get("metric") {
            None => MetricChoice::default(),
            Some(m) => metric_from_wire_name(
                m.as_str()
                    .ok_or_else(|| WireError::Schema("\"metric\" must be a string".into()))?,
            )?,
        };
        let k = doc
            .get("k")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| WireError::Schema("missing integer field \"k\"".into()))?;
        let exclude_self = match doc.get("exclude_self") {
            None => false,
            Some(b) => b
                .as_bool()
                .ok_or_else(|| WireError::Schema("\"exclude_self\" must be a bool".into()))?,
        };
        let opt_u64 = |key: &str| -> Result<Option<u64>, WireError> {
            match doc.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(val) => val
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| WireError::Schema(format!("{key:?} must be an integer"))),
            }
        };
        let retry = match doc.get("retry") {
            None | Some(JsonValue::Null) => None,
            Some(r) => {
                let max_attempts = r
                    .get("max_attempts")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| {
                        WireError::Schema("retry needs an integer \"max_attempts\"".into())
                    })?;
                if max_attempts == 0 || max_attempts > u32::MAX as u64 {
                    return Err(WireError::Schema(
                        "\"max_attempts\" must be in 1..=2^32-1".into(),
                    ));
                }
                let backoff_ms = match r.get("backoff_ms") {
                    None => 0,
                    Some(b) => b.as_u64().ok_or_else(|| {
                        WireError::Schema("\"backoff_ms\" must be an integer".into())
                    })?,
                };
                Some(RetryPolicy {
                    max_attempts: max_attempts as u32,
                    backoff: Duration::from_millis(backoff_ms),
                })
            }
        };
        let version = match opt_u64("version")? {
            None => None,
            Some(0) => {
                return Err(WireError::Schema(
                    "\"version\" must be a positive integer".into(),
                ))
            }
            Some(v) => Some(
                u32::try_from(v)
                    .map_err(|_| WireError::Schema("\"version\" must fit in 32 bits".into()))?,
            ),
        };
        let threads = match doc.get("threads") {
            None | Some(JsonValue::Null) => 1,
            Some(t) => wire_threads(t)?,
        };
        // v1's precedence between the two sites: the top-level count
        // wins unless it is (or defaults to) 1.
        let threads = match (threads, mba_threads) {
            (1, Some(inner)) => inner,
            (top, _) => top,
        };
        Ok(QuerySpec {
            k,
            exclude_self,
            metric,
            algorithm,
            deadline_in: opt_u64("deadline_ms")?.map(Duration::from_millis),
            io_budget: opt_u64("io_budget")?,
            visit_budget: opt_u64("visit_budget")?,
            retry,
            version,
            threads,
        })
    }
}

/// Parses and bounds a wire-level thread count (see
/// [`MAX_WIRE_THREADS`]). Shared by both `"threads"` sites so neither can
/// smuggle an unbounded value past validation.
fn wire_threads(t: &JsonValue) -> Result<usize, WireError> {
    let threads = t
        .as_usize()
        .ok_or_else(|| WireError::Schema("\"threads\" must be an integer".into()))?;
    if threads > MAX_WIRE_THREADS {
        return Err(WireError::Schema(format!(
            "\"threads\" must be at most {MAX_WIRE_THREADS}"
        )));
    }
    Ok(threads)
}

fn traversal_name(t: crate::mba::Traversal) -> &'static str {
    match t {
        crate::mba::Traversal::DepthFirst => "depth-first",
        crate::mba::Traversal::BreadthFirst => "breadth-first",
    }
}

fn traversal_from_name(s: &str) -> Result<crate::mba::Traversal, WireError> {
    match s {
        "depth-first" => Ok(crate::mba::Traversal::DepthFirst),
        "breadth-first" => Ok(crate::mba::Traversal::BreadthFirst),
        other => Err(WireError::Schema(format!("unknown traversal {other:?}"))),
    }
}

fn expansion_name(e: crate::mba::Expansion) -> &'static str {
    match e {
        crate::mba::Expansion::Bidirectional => "bidirectional",
        crate::mba::Expansion::Unidirectional => "unidirectional",
    }
}

fn expansion_from_name(s: &str) -> Result<crate::mba::Expansion, WireError> {
    match s {
        "bidirectional" => Ok(crate::mba::Expansion::Bidirectional),
        "unidirectional" => Ok(crate::mba::Expansion::Unidirectional),
        other => Err(WireError::Schema(format!("unknown expansion {other:?}"))),
    }
}

/// The wire name of a [`MetricChoice`].
pub fn metric_wire_name(m: MetricChoice) -> &'static str {
    match m {
        MetricChoice::Nxn => "nxn",
        MetricChoice::MaxMax => "maxmax",
    }
}

/// Parses a [`MetricChoice`] wire name.
pub fn metric_from_wire_name(s: &str) -> Result<MetricChoice, WireError> {
    match s {
        "nxn" => Ok(MetricChoice::Nxn),
        "maxmax" => Ok(MetricChoice::MaxMax),
        other => Err(WireError::Schema(format!(
            "unknown metric {other:?} (expected nxn|maxmax)"
        ))),
    }
}

// ---------------------------------------------------------------------------
// QueryOutcome
// ---------------------------------------------------------------------------

/// The owned, serializable result of one query: the neighbor pairs and
/// work counters of [`AnnOutput`], plus (when the client asked to trace)
/// the run's [`ExecutionReport`] inline.
#[derive(Clone, Debug, Default)]
pub struct QueryOutcome {
    /// Neighbor pairs, in the algorithm's canonical emission order.
    pub results: Vec<NeighborPair>,
    /// Work counters for the run.
    pub stats: AnnStats,
    /// The execution trace, when one was recorded.
    pub report: Option<ExecutionReport>,
    /// The snapshot version the query ran against, when the collection
    /// is versioned. Reported even when the client did not pin one, so a
    /// follow-up time-travel query can name exactly what it saw.
    pub version: Option<u32>,
}

impl From<AnnOutput> for QueryOutcome {
    fn from(out: AnnOutput) -> Self {
        QueryOutcome {
            results: out.results,
            stats: out.stats,
            report: None,
            version: None,
        }
    }
}

impl QueryOutcome {
    /// Attaches an execution report (builder-style).
    pub fn with_report(mut self, report: ExecutionReport) -> Self {
        self.report = Some(report);
        self
    }

    /// Records the snapshot version the query ran against
    /// (builder-style).
    pub fn with_version(mut self, version: u32) -> Self {
        self.version = Some(version);
        self
    }

    /// Serializes to the versioned JSON wire form. Distances use the
    /// shortest round-trip `f64` rendering, so a client parsing them back
    /// recovers bit-identical values — the serving differential gates
    /// compare result bytes across the wire.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.results.len() * 48);
        // Pairs are written in place: a `String` sink cannot fail, and a
        // temporary per pair would be three allocations on the hot path.
        let _ = write!(
            out,
            "{{\"v\":{WIRE_SCHEMA_VERSION},\"count\":{},\"pairs\":[",
            self.results.len()
        );
        for (i, p) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"r\":{},\"s\":{},\"dist\":", p.r_oid, p.s_oid);
            let _ = write_json_num(&mut out, p.dist);
            out.push('}');
        }
        out.push_str("],\"stats\":{");
        write_json_members(&mut out, &self.stats.counters());
        out.push_str(",\"io\":");
        out.push_str(&json_io(&self.stats.io));
        out.push('}');
        if let Some(version) = self.version {
            out.push_str(&format!(",\"version\":{version}"));
        }
        if let Some(report) = &self.report {
            out.push_str(",\"trace\":");
            out.push_str(&report.to_json());
        }
        out.push('}');
        out
    }

    /// Parses the wire form back into pairs and counters. The `"trace"`
    /// section, when present, is not reconstructed (its Rust type is not
    /// wire-parseable today); [`QueryOutcome::report`] comes back `None`.
    pub fn from_json(s: &str) -> Result<Self, WireError> {
        let doc = JsonValue::parse(s)?;
        let v = doc
            .get("v")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| WireError::Schema("missing integer field \"v\"".into()))?;
        if v > WIRE_SCHEMA_VERSION {
            return Err(WireError::UnsupportedVersion(v));
        }
        let pairs = doc
            .get("pairs")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| WireError::Schema("missing array field \"pairs\"".into()))?;
        let mut results = Vec::with_capacity(pairs.len());
        for p in pairs {
            let r_oid = p
                .get("r")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| WireError::Schema("pair needs integer \"r\"".into()))?;
            let s_oid = p
                .get("s")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| WireError::Schema("pair needs integer \"s\"".into()))?;
            let dist = p
                .get("dist")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| WireError::Schema("pair needs number \"dist\"".into()))?;
            results.push(NeighborPair { r_oid, s_oid, dist });
        }
        let stats = match doc.get("stats") {
            Some(st) => stats_from_value(st)?,
            None => AnnStats::default(),
        };
        let version =
            match doc.get("version") {
                None | Some(JsonValue::Null) => None,
                Some(v) => Some(v.as_u64().and_then(|v| u32::try_from(v).ok()).ok_or_else(
                    || WireError::Schema("\"version\" must be a 32-bit integer".into()),
                )?),
            };
        Ok(QueryOutcome {
            results,
            stats,
            report: None,
            version,
        })
    }
}

/// Decodes the `stats` object. An absent counter reads as zero; a counter
/// that is not an integer, or a section that is not an object, is a
/// schema error.
fn stats_from_value(st: &JsonValue) -> Result<AnnStats, WireError> {
    let mut stats = AnnStats::default();
    read_counters(st, "stats", &mut stats.counters_mut())?;
    if let Some(io) = st.get("io") {
        read_counters(io, "io", &mut stats.io.counters_mut())?;
    }
    Ok(stats)
}

fn read_counters(
    doc: &JsonValue,
    section: &str,
    counters: &mut [(&'static str, &mut u64)],
) -> Result<(), WireError> {
    if !matches!(doc, JsonValue::Obj(_)) {
        return Err(WireError::Schema(format!("{section:?} must be an object")));
    }
    for (key, slot) in counters {
        if let Some(v) = doc.get(key) {
            **slot = v.as_u64().ok_or_else(|| {
                WireError::Schema(format!("{section} {key:?} must be an integer"))
            })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_store::IoSnapshot;

    #[test]
    fn json_value_parses_scalars_and_nesting() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-3.5e2").unwrap(), JsonValue::Num(-350.0));
        assert_eq!(
            JsonValue::parse("\"a\\nb\\u0041\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("a\nbA😀".into())
        );
        let v = JsonValue::parse(" { \"a\" : [ 1 , {\"b\": false} ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].get("b"),
            Some(&JsonValue::Bool(false))
        );
    }

    #[test]
    fn json_value_displays_pretty_and_parses_back() {
        let v = JsonValue::Obj(vec![
            ("id".into(), JsonValue::Str("a\"b".into())),
            ("n".into(), JsonValue::Int(u64::MAX)),
            ("x".into(), JsonValue::Num(2.0)),
            ("nan".into(), JsonValue::Num(f64::NAN)),
            (
                "rows".into(),
                JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Arr(vec![])]),
            ),
            ("none".into(), JsonValue::Obj(vec![])),
        ]);
        let text = v.to_string();
        assert_eq!(
            text,
            "{\n  \"id\": \"a\\\"b\",\n  \"n\": 18446744073709551615,\n  \"x\": 2.0,\n  \
             \"nan\": null,\n  \"rows\": [\n    true,\n    []\n  ],\n  \"none\": {}\n}"
        );
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back.get("n"), Some(&JsonValue::Int(u64::MAX)));
        assert_eq!(back.get("nan"), Some(&JsonValue::Null));
        assert_eq!(back.get("id"), v.get("id"));
    }

    #[test]
    fn json_value_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"\\q\"",
            "\"\\ud800\"",
            "nan",
            "+1",
            "01x",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Depth bomb: must error, not overflow the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time_one_scalar_at_a_time() {
        // 1 MiB of 1-, 2-, 3- and 4-byte scalars: minutes if each
        // character re-validates the rest of the document.
        let unit = "a\u{e9}\u{20ac}\u{1f600}";
        let text = unit.repeat((1 << 20) / unit.len());
        let doc = format!("[\"{text}\",\"tail\"]");
        let parsed = JsonValue::parse(&doc).expect("valid document");
        let items = parsed.as_arr().expect("array");
        assert_eq!(items[0].as_str(), Some(text.as_str()));
        assert_eq!(items[1].as_str(), Some("tail"));

        // The parser is only ever handed a `&str`, but its string scanner
        // must not trust that: a scalar cut short, a stray continuation
        // byte and an overlong lead are all rejected from their own bytes.
        for raw in [
            b"\"ab\xe2\x82".as_slice(),
            b"\"ab\xe2\x82\"",
            b"\"\x82\"",
            b"\"\xf0\x9f\x98",
            b"\"\xc0\xaf\"",
        ] {
            let mut p = Parser { bytes: raw, at: 0 };
            let err = p.string().expect_err("invalid UTF-8 must not parse");
            assert!(
                matches!(&err, WireError::Parse { what, .. } if what == "invalid UTF-8"),
                "{raw:?}: {err}"
            );
        }
    }

    #[test]
    fn json_value_rejects_trailing_data() {
        for bad in ["1 2", "{} {}", "null,", "[1]x", "true false", "\"a\"\"b\""] {
            assert!(
                matches!(
                    JsonValue::parse(bad),
                    Err(WireError::Parse { what, .. }) if what.contains("trailing")
                        || what.contains("expected"),
                ),
                "accepted trailing bytes in {bad:?}"
            );
        }
    }

    #[test]
    fn json_value_rejects_duplicate_object_keys() {
        for bad in [
            r#"{"a":1,"a":2}"#,
            r#"{"a":1,"b":2,"a":3}"#,
            r#"{"v":1,"k":1,"version":2,"version":3}"#,
            r#"{"outer":{"x":1,"x":2}}"#,
        ] {
            let e = JsonValue::parse(bad).unwrap_err();
            assert!(
                matches!(&e, WireError::Parse { what, .. } if what.contains("duplicate")),
                "accepted duplicate keys in {bad:?}: {e:?}"
            );
        }
        // Same key at *different* nesting levels is fine.
        assert!(JsonValue::parse(r#"{"a":{"a":1},"b":[{"a":2}]}"#).is_ok());
    }

    #[test]
    fn spec_version_field_parses_and_validates() {
        let spec = QuerySpec::from_json(r#"{"v":1,"algorithm":{"name":"mnn"},"k":1,"version":7}"#)
            .unwrap();
        assert_eq!(spec.version, Some(7));
        // Absent means latest; zero and out-of-range are schema errors.
        let spec = QuerySpec::from_json(r#"{"v":1,"algorithm":{"name":"mnn"},"k":1}"#).unwrap();
        assert_eq!(spec.version, None);
        assert!(
            QuerySpec::from_json(r#"{"v":1,"algorithm":{"name":"mnn"},"k":1,"version":0}"#)
                .is_err()
        );
        assert!(QuerySpec::from_json(
            r#"{"v":1,"algorithm":{"name":"mnn"},"k":1,"version":4294967296}"#
        )
        .is_err());
    }

    #[test]
    fn outcome_version_field_round_trips() {
        let outcome = QueryOutcome {
            version: Some(5),
            ..QueryOutcome::default()
        };
        let json = outcome.to_json();
        assert!(json.contains("\"version\":5"));
        let back = QueryOutcome::from_json(&json).unwrap();
        assert_eq!(back.version, Some(5));
        // Unversioned outcomes omit the field entirely.
        let json = QueryOutcome::default().to_json();
        assert!(!json.contains("version"));
        assert_eq!(QueryOutcome::from_json(&json).unwrap().version, None);
    }

    #[test]
    fn spec_threads_field_round_trips_without_schema_bump() {
        // Absent means serial; the field is additive under WIRE_SCHEMA_VERSION 1.
        let spec = QuerySpec::from_json(r#"{"v":1,"algorithm":{"name":"mnn"},"k":1}"#).unwrap();
        assert_eq!(spec.threads, 1);
        assert!(!spec.to_json().contains("threads"));

        let spec = QuerySpec::from_json(r#"{"v":1,"algorithm":{"name":"mnn"},"k":1,"threads":4}"#)
            .unwrap();
        assert_eq!(spec.threads, 4);
        let json = spec.to_json();
        assert!(json.contains("\"threads\":4"));
        assert!(
            json.contains("\"v\":1"),
            "threads must not bump the schema version"
        );
        let back = QuerySpec::from_json(&json).unwrap();
        assert_eq!(back.threads, 4);

        // 0 is valid on the wire: "one worker per core".
        let spec = QuerySpec::from_json(r#"{"v":1,"algorithm":{"name":"mnn"},"k":1,"threads":0}"#)
            .unwrap();
        assert_eq!(spec.threads, 0);
        assert!(spec.to_json().contains("\"threads\":0"));

        // Null is treated as absent; fractions are schema errors.
        let spec =
            QuerySpec::from_json(r#"{"v":1,"algorithm":{"name":"mnn"},"k":1,"threads":null}"#)
                .unwrap();
        assert_eq!(spec.threads, 1);
        assert!(
            QuerySpec::from_json(r#"{"v":1,"algorithm":{"name":"mnn"},"k":1,"threads":2.5}"#)
                .is_err()
        );
    }

    #[test]
    fn wire_threads_are_bounded_at_both_sites() {
        // Request-level field: the cap is inclusive.
        let at_cap =
            format!(r#"{{"v":1,"algorithm":{{"name":"mnn"}},"k":1,"threads":{MAX_WIRE_THREADS}}}"#);
        assert_eq!(
            QuerySpec::from_json(&at_cap).unwrap().threads,
            MAX_WIRE_THREADS
        );
        let over = format!(
            r#"{{"v":1,"algorithm":{{"name":"mnn"}},"k":1,"threads":{}}}"#,
            MAX_WIRE_THREADS + 1
        );
        assert!(QuerySpec::from_json(&over).is_err());

        // The MBA variant's own knob goes through the same validation —
        // it must not smuggle an unbounded spawn count past the schema.
        let over_mba = format!(
            r#"{{"v":1,"algorithm":{{"name":"mba","threads":{}}},"k":1}}"#,
            MAX_WIRE_THREADS + 1
        );
        assert!(QuerySpec::from_json(&over_mba).is_err());
        let ok_mba =
            format!(r#"{{"v":1,"algorithm":{{"name":"mba","threads":{MAX_WIRE_THREADS}}},"k":1}}"#);
        assert_eq!(
            QuerySpec::from_json(&ok_mba).unwrap().threads,
            MAX_WIRE_THREADS
        );
    }

    #[test]
    fn both_threads_sites_resolve_by_v1_precedence() {
        let parse = |alg: &str, top: &str| {
            let doc = format!(r#"{{"v":1,"algorithm":{{"name":"mba"{alg}}},"k":1{top}}}"#);
            QuerySpec::from_json(&doc).unwrap().threads
        };
        assert_eq!(parse(r#","threads":4"#, ""), 4);
        assert_eq!(parse(r#","threads":4"#, r#","threads":1"#), 4);
        assert_eq!(parse(r#","threads":4"#, r#","threads":2"#), 2);
        assert_eq!(parse("", r#","threads":3"#), 3);
        // MBA writes its count where v1 did: inside the algorithm object.
        let spec = QuerySpec {
            threads: 3,
            ..QuerySpec::default()
        };
        let json = spec.to_json();
        assert!(json.contains(r#""bidirectional","threads":3}"#), "{json}");
        assert_eq!(json.matches("threads").count(), 1, "{json}");
    }

    #[test]
    fn spec_threads_survives_request_conversion() {
        let spec = QuerySpec::from_json(
            r#"{"v":1,"algorithm":{"name":"bnn","group_size":64},"k":2,"threads":3}"#,
        )
        .unwrap();
        let req = spec.to_request();
        assert_eq!(req.spec.threads, 3);
        assert_eq!(req.spec, spec);
    }

    #[test]
    fn as_u64_rejects_fractions_negatives_and_huge() {
        assert_eq!(JsonValue::Num(3.0).as_u64(), Some(3));
        assert_eq!(JsonValue::Num(3.5).as_u64(), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Num(1e300).as_u64(), None);
    }

    #[test]
    fn full_range_u64_integers_parse_losslessly() {
        // Oids above 2^53 must not be squeezed through an f64.
        assert_eq!(
            JsonValue::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            JsonValue::parse("18001450823293731629").unwrap().as_u64(),
            Some(18001450823293731629)
        );
        // Past u64::MAX the literal falls back to f64 and is rejected
        // as an integer.
        assert_eq!(
            JsonValue::parse("18446744073709551616").unwrap().as_u64(),
            None
        );
    }

    #[test]
    fn collection_id_validation() {
        assert!(CollectionId::new("tac-2d_v1").is_ok());
        assert!(CollectionId::new("").is_err());
        assert!(CollectionId::new("a/b").is_err());
        assert!(CollectionId::new("..").is_err());
        assert!(CollectionId::new(&"x".repeat(65)).is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = QuerySpec {
            k: 7,
            exclude_self: true,
            metric: MetricChoice::MaxMax,
            algorithm: Algorithm::Bnn { group_size: 64 },
            deadline_in: Some(Duration::from_millis(1500)),
            io_budget: Some(10_000),
            visit_budget: None,
            retry: Some(RetryPolicy {
                max_attempts: 4,
                backoff: Duration::from_millis(2),
            }),
            version: Some(12),
            threads: 2,
        };
        let json = spec.to_json();
        let back = QuerySpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        // Serialization is deterministic: a second trip is byte-stable.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn spec_defaults_match_request_defaults() {
        let spec = QuerySpec::from_json(r#"{"v":1,"algorithm":{"name":"mnn"},"k":1}"#).unwrap();
        assert_eq!(spec, QuerySpec::new(Algorithm::Mnn));
        assert_eq!(crate::query::AnnRequest::new(Algorithm::Mnn).spec, spec);
    }

    #[test]
    fn spec_rejects_newer_versions_and_unknown_names() {
        let e = QuerySpec::from_json(r#"{"v":2,"algorithm":{"name":"mnn"},"k":1}"#).unwrap_err();
        assert_eq!(e, WireError::UnsupportedVersion(2));
        assert!(QuerySpec::from_json(r#"{"v":1,"algorithm":{"name":"quantum"},"k":1}"#).is_err());
        assert!(QuerySpec::from_json(
            r#"{"v":1,"algorithm":{"name":"mba","traversal":"sideways"},"k":1}"#
        )
        .is_err());
        assert!(QuerySpec::from_json(r#"{"v":1,"algorithm":{"name":"mnn"}}"#).is_err());
    }

    #[test]
    fn request_conversion_preserves_knobs() {
        let spec = QuerySpec {
            k: 3,
            exclude_self: true,
            metric: MetricChoice::Nxn,
            algorithm: Algorithm::mba(),
            deadline_in: Some(Duration::from_secs(60)),
            io_budget: Some(5),
            visit_budget: Some(6),
            retry: Some(RetryPolicy {
                max_attempts: 2,
                backoff: Duration::ZERO,
            }),
            version: Some(4),
            threads: 1,
        };
        // The request holds the spec itself: nothing is copied or
        // re-based, the deadline budget included.
        assert_eq!(spec.to_request().spec, spec);
    }

    #[test]
    fn outcome_round_trips_pairs_bit_exactly() {
        let outcome = QueryOutcome {
            results: vec![
                NeighborPair {
                    r_oid: 0,
                    s_oid: 9,
                    dist: 0.1 + 0.2, // not exactly 0.3: stresses shortest round-trip
                },
                NeighborPair {
                    r_oid: 1,
                    s_oid: 3,
                    dist: 1.0e8 + 1.0 / 3.0,
                },
            ],
            // Every counter the wire carries, each distinct and non-zero.
            stats: AnnStats {
                distance_computations: 12,
                lpqs_created: 13,
                enqueued: 14,
                pruned_on_probe: 15,
                pruned_in_queue: 16,
                r_nodes_expanded: 3,
                s_nodes_expanded: 4,
                io: IoSnapshot {
                    logical_reads: 21,
                    physical_reads: 22,
                    physical_writes: 23,
                    retries: 24,
                    checksum_failures: 25,
                    pool_hits: 26,
                    pool_misses: 27,
                    lock_contention: 28,
                    evictions: 29,
                    quarantined_pages: 30,
                    quarantine_hits: 31,
                },
            },
            report: None,
            version: None,
        };
        let back = QueryOutcome::from_json(&outcome.to_json()).unwrap();
        assert_eq!(back.results.len(), 2);
        for (a, b) in outcome.results.iter().zip(&back.results) {
            assert_eq!(a.r_oid, b.r_oid);
            assert_eq!(a.s_oid, b.s_oid);
            assert_eq!(a.dist.to_bits(), b.dist.to_bits(), "distance not bit-exact");
        }
        assert_eq!(back.stats, outcome.stats);

        // A counter section that is not an object is a schema error; an
        // absent one decodes as zeros.
        for bad in [
            r#"{"v":1,"pairs":[],"stats":5}"#,
            r#"{"v":1,"pairs":[],"stats":null}"#,
            r#"{"v":1,"pairs":[],"stats":[]}"#,
            r#"{"v":1,"pairs":[],"stats":{"io":7}}"#,
            r#"{"v":1,"pairs":[],"stats":{"io":"x"}}"#,
        ] {
            let got = QueryOutcome::from_json(bad);
            assert!(matches!(got, Err(WireError::Schema(_))), "{bad}: {got:?}");
        }
        for absent in [r#"{"v":1,"pairs":[]}"#, r#"{"v":1,"pairs":[],"stats":{}}"#] {
            let got = QueryOutcome::from_json(absent).unwrap();
            assert_eq!(got.stats, AnnStats::default(), "{absent}");
        }
    }

    #[test]
    fn error_codes_are_stable_and_mapped() {
        assert_eq!(ErrorCode::Cancelled.code(), 1001);
        assert_eq!(ErrorCode::Overloaded.http_status(), 429);
        assert_eq!(
            ErrorCode::from_query_error(&QueryError::DeadlineExceeded),
            ErrorCode::DeadlineExceeded
        );
        let body = ErrorCode::CollectionNotFound.error_json("no such collection \"x\"");
        let doc = JsonValue::parse(&body).unwrap();
        assert_eq!(doc.get("code").unwrap().as_u64(), Some(2000));
        assert_eq!(
            doc.get("error").unwrap().as_str(),
            Some("collection-not-found")
        );
    }
}
