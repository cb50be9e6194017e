//! The ANN server: acceptor, per-connection threads, and the bounded
//! query worker pool.
//!
//! # Threading model
//!
//! Three thread families (DESIGN.md §14):
//!
//! * **one acceptor** blocks on [`TcpListener::accept`] and spawns a
//!   connection thread per client;
//! * **one connection thread per client** parses HTTP, serves the cheap
//!   control-plane routes inline, and *submits* queries to the worker
//!   pool, then waits for the reply while polling its socket for
//!   disconnect;
//! * **N query workers** (the only threads that touch an index) each own
//!   a [`QueryScratch`] reused across every query they run, so the
//!   steady-state data plane allocates nothing per request.
//!
//! # Admission control
//!
//! The submit queue is bounded: when `queue_depth` queries are already
//! waiting, new ones are rejected immediately with HTTP 429
//! ([`ErrorCode::Overloaded`]) instead of building an unbounded backlog —
//! the client owns the retry decision.
//!
//! A second, per-connection limit paces the requests of one connection
//! (`Pacer`): a token bucket of `REQUEST_BURST` requests refilled one
//! per `REQUEST_INTERVAL`. A request that finds the bucket empty waits
//! on the connection thread for its token — before it is routed, so it
//! holds no worker, queue slot or snapshot pin while it waits. A
//! connection that sends back-to-back small queries is therefore served
//! on the clock, at the same rate whatever the host's cores are doing,
//! and cannot take the workers from the others.
//!
//! # Cancellation on disconnect
//!
//! Every query gets a fresh [`CancelToken`] shared between the worker
//! and the connection thread. While the worker runs, the connection
//! thread `peek`s its socket every few milliseconds without blocking; a
//! clean EOF there means the client is gone, so it fires the token and
//! the traversal aborts at its next node expansion with all buffer-pool
//! pins released (the PR 7 clean-abort contract, asserted by the
//! disconnect test).

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ann_core::query::{run_scratch, Algorithm, AnnRequest, Input};
use ann_core::resilience::CancelToken;
use ann_core::scratch::QueryScratch;
use ann_core::trace::RecordingSink;
use ann_core::wire::{CollectionId, ErrorCode, JsonValue, QueryOutcome, QuerySpec};
use ann_geom::Point;
use ann_store::sync::{unpoisoned, Mutex};

use crate::http::{read_request, write_response, MessageReader, Request, MAX_BODY};
use crate::metrics::Metrics;
use crate::registry::{ApiError, Collection, IndexKind, Registry, SERVE_DIMS};

/// How often a waiting connection thread polls its socket for client
/// disconnect (and re-checks the reply channel).
const DISCONNECT_POLL: Duration = Duration::from_millis(10);

/// One request per connection is due every `REQUEST_INTERVAL`; a
/// connection that has been slower than that may run up to
/// `REQUEST_BURST` requests ahead of the schedule.
const REQUEST_INTERVAL: Duration = Duration::from_millis(2);
const REQUEST_BURST: u32 = 256;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Query worker threads (the data-plane parallelism).
    pub workers: usize,
    /// Maximum queries waiting for a worker before 429s start.
    pub queue_depth: usize,
    /// Directory holding collection files and sidecars.
    pub data_dir: PathBuf,
    /// Buffer-pool frames per collection.
    pub pool_frames: usize,
    /// Extra intra-query compute tokens shared by every worker. A worker
    /// always owns one implicit token for the query it runs; a query
    /// asking for `threads = n` grabs up to `n - 1` extras from this
    /// global pool (non-blocking — whatever it gets bounds its fan-out),
    /// so `workers × threads` can never oversubscribe the box. `0` means
    /// auto: whatever `available_parallelism` leaves beyond `workers`.
    pub compute_tokens: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            data_dir: PathBuf::from("ann-serve-data"),
            pool_frames: 256,
            compute_tokens: 0,
        }
    }
}

/// Global intra-query compute budget (DESIGN.md §16).
///
/// Counts the *extra* worker threads (beyond the query worker itself)
/// currently granted to in-flight queries. Admission is non-blocking:
/// a query wanting `n` threads takes `min(n - 1, available)` extras and
/// runs with what it got — degrading toward serial under load instead
/// of queueing, so a burst of `threads=8` requests cannot stack up
/// `workers × 8` runnable threads.
struct ComputeTokens {
    total: usize,
    avail: AtomicUsize,
    /// High-water mark of simultaneously granted tokens (test
    /// observability: asserts the cap was never pierced).
    high_water: AtomicUsize,
}

impl ComputeTokens {
    fn new(total: usize) -> Self {
        ComputeTokens {
            total,
            avail: AtomicUsize::new(total),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Takes up to `want` tokens, returning how many were granted
    /// (possibly zero). Never blocks.
    fn try_take(&self, want: usize) -> usize {
        let mut cur = self.avail.load(Ordering::Relaxed);
        loop {
            let take = cur.min(want);
            if take == 0 {
                return 0;
            }
            match self.avail.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.high_water
                        .fetch_max(self.total - (cur - take), Ordering::AcqRel);
                    return take;
                }
                Err(now) => cur = now,
            }
        }
    }

    fn put(&self, n: usize) {
        if n > 0 {
            self.avail.fetch_add(n, Ordering::AcqRel);
        }
    }
}

/// A point-in-time view of the compute-token pool (for tests and ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeTokenStats {
    /// Pool capacity (extra threads beyond the worker pool).
    pub total: usize,
    /// Tokens currently available.
    pub available: usize,
    /// Most tokens ever granted simultaneously.
    pub high_water: usize,
}

/// One queued query: everything a worker needs, plus the reply channel.
struct Job {
    r: Arc<Collection>,
    s: Arc<Collection>,
    spec: QuerySpec,
    trace: bool,
    cancel: CancelToken,
    reply: mpsc::Sender<Result<String, ApiError>>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded submit queue between connection threads and workers.
struct WorkQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    cap: usize,
}

enum SubmitError {
    Full,
    Closed,
}

impl WorkQueue {
    fn new(cap: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Non-blocking admission: `Full` is the 429 path.
    fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(SubmitError::Closed);
        }
        if st.jobs.len() >= self.cap {
            return Err(SubmitError::Full);
        }
        st.jobs.push_back(job);
        drop(st);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` means the queue is closed and
    /// drained, i.e. the worker should exit.
    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = unpoisoned(self.cond.wait(st));
        }
    }

    /// Closes the queue: pending jobs are failed with `ShuttingDown`,
    /// blocked workers wake and exit once drained.
    fn close(&self) {
        let drained: Vec<Job> = {
            let mut st = self.state.lock();
            st.closed = true;
            st.jobs.drain(..).collect()
        };
        self.cond.notify_all();
        for job in drained {
            let _ = job.reply.send(Err(ApiError::new(
                ErrorCode::ShuttingDown,
                "server is shutting down",
            )));
        }
    }
}

/// Shared server context, one `Arc` per thread.
struct Ctx {
    registry: Registry,
    metrics: Metrics,
    queue: WorkQueue,
    compute: ComputeTokens,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`shutdown`](Server::shutdown) (or POST `/admin/shutdown`) first.
pub struct Server {
    ctx: Arc<Ctx>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and acceptor, and returns
    /// immediately. The bound address (with the resolved ephemeral port)
    /// is [`addr`](Server::addr).
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let registry = Registry::open(&config.data_dir, config.pool_frames)?;
        let workers_n = config.workers.max(1);
        let tokens = if config.compute_tokens == 0 {
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .saturating_sub(workers_n)
        } else {
            config.compute_tokens
        };
        let ctx = Arc::new(Ctx {
            registry,
            metrics: Metrics::new(),
            queue: WorkQueue::new(config.queue_depth),
            compute: ComputeTokens::new(tokens),
            shutdown: AtomicBool::new(false),
            addr,
        });

        let workers = (0..workers_n)
            .map(|i| {
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("ann-serve-worker-{i}"))
                    .spawn(move || worker_loop(&ctx))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let acceptor = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("ann-serve-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, &ctx))?
        };

        Ok(Server {
            ctx,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// The collection registry (tests reach through this to assert pool
    /// state, e.g. `pinned_frames() == 0` after a disconnect).
    pub fn registry(&self) -> &Registry {
        &self.ctx.registry
    }

    /// The server metrics block.
    pub fn metrics(&self) -> &Metrics {
        &self.ctx.metrics
    }

    /// A snapshot of the intra-query compute-token pool (tests assert
    /// the high-water mark never exceeds the configured cap and that
    /// every grant is returned).
    pub fn compute_token_stats(&self) -> ComputeTokenStats {
        ComputeTokenStats {
            total: self.ctx.compute.total,
            available: self.ctx.compute.avail.load(Ordering::Acquire),
            high_water: self.ctx.compute.high_water.load(Ordering::Acquire),
        }
    }

    /// Whether shutdown has been requested (by [`shutdown`](Server::shutdown)
    /// or the `/admin/shutdown` route).
    pub fn is_shutting_down(&self) -> bool {
        self.ctx.shutdown.load(Ordering::Acquire)
    }

    /// Initiates shutdown and joins the acceptor and workers. Pending
    /// queued queries are failed with `ShuttingDown`; in-flight ones run
    /// to completion. Connection threads exit as their clients hang up.
    pub fn shutdown(mut self) {
        initiate_shutdown(&self.ctx);
        self.join();
    }

    /// Blocks until shutdown is triggered elsewhere (the
    /// `/admin/shutdown` route) and the acceptor and workers have
    /// exited. This is the binary's main-thread parking spot.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Sets the shutdown flag, closes the queue, and pokes the acceptor
/// awake with a throwaway connection.
fn initiate_shutdown(ctx: &Ctx) {
    if ctx.shutdown.swap(true, Ordering::AcqRel) {
        return; // already shutting down
    }
    ctx.queue.close();
    let _ = TcpStream::connect(ctx.addr);
}

fn acceptor_loop(listener: TcpListener, ctx: &Arc<Ctx>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if ctx.shutdown.load(Ordering::Acquire) {
            return;
        }
        let ctx = Arc::clone(ctx);
        // Connection threads are detached: they exit when their client
        // hangs up (or after the post-shutdown response they serve).
        let _ = std::thread::Builder::new()
            .name("ann-serve-conn".to_string())
            .spawn(move || connection_loop(stream, &ctx));
    }
}

fn worker_loop(ctx: &Ctx) {
    // The per-worker scratch: reused across every query this worker
    // runs, so steady-state serving does not allocate per request.
    let mut scratch = QueryScratch::<SERVE_DIMS>::new();
    while let Some(job) = ctx.queue.pop() {
        let result = execute(&job, &mut scratch, ctx);
        // A send error means the connection thread is gone (client
        // disconnected and the handler returned); nothing to do.
        let _ = job.reply.send(result);
    }
}

/// Runs one query on a worker thread and serializes the outcome.
///
/// Both sides are pinned `ReadContext`s: the R side pins
/// `spec.version` (latest when unset), the S side pins latest — except
/// for a self-join, which *shares* R's pin so both sides observe the same
/// version even while a writer commits mid-query. Every query therefore
/// runs the one `run_scratch` instance over a pair of snapshots, whatever
/// structures back the two collections.
fn execute(
    job: &Job,
    scratch: &mut QueryScratch<SERVE_DIMS>,
    ctx: &Ctx,
) -> Result<String, ApiError> {
    let metrics = &ctx.metrics;
    let sink = RecordingSink::new();
    let mut req: AnnRequest<'_> = job.spec.to_request();
    req = req.cancel_token(job.cancel.clone());
    if job.trace {
        req = req.trace(&sink);
    }
    let r_pin = job.r.pin(job.spec.version)?;
    let s_pin = if Arc::ptr_eq(&job.r, &job.s) {
        None
    } else {
        Some(job.s.pin(None)?)
    };
    let s_side = s_pin.as_ref().unwrap_or(&r_pin);
    // Intra-query parallelism rides on compute tokens: this worker is
    // one implicit token, and the spec's `threads` asks for extras from
    // the global pool. Whatever the pool grants bounds the fan-out —
    // under contention a query silently degrades toward serial rather
    // than oversubscribing the box. Grabbed after the pin fallible
    // section so every early return above cannot strand a grant.
    //
    // `effective_threads` is the core's own precedence rule (the MBA
    // variant's wire-level `threads` knob applies whenever the
    // request-level value is 1), so the ask covers exactly what the join
    // driver would resolve; the variant knob is overwritten with the
    // grant below — otherwise a body like
    // {"algorithm":{"name":"mba",...,"threads":N}} with no top-level
    // field would bypass the compute-token clamp entirely.
    let wanted = ann_core::morsel::resolve_threads(req.effective_threads());
    let extra = if wanted > 1 {
        ctx.compute.try_take(wanted - 1)
    } else {
        0
    };
    let granted = 1 + extra;
    req = req.threads(granted);
    if let Algorithm::Mba {
        ref mut threads, ..
    } = req.algorithm
    {
        *threads = granted;
    }
    // A panic inside the traversal must not kill this worker thread
    // (workers are never respawned) or strand the granted tokens; the
    // unwind surfaces to the client as a typed internal error instead.
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_scratch(&req, Input::Index(&r_pin), Input::Index(s_side), scratch)
    }));
    ctx.compute.put(extra);
    let ran = match ran {
        Ok(ran) => ran,
        Err(_) => {
            return Err(ApiError::new(
                ErrorCode::Internal,
                "query execution panicked; the worker recovered",
            ))
        }
    };
    match ran {
        Ok(out) => {
            metrics.record_query(&out.stats);
            // The unified entrypoint returns canonical (r_oid, dist,
            // s_oid) order at every thread count, so the response bytes
            // are already independent of the granted fan-out.
            let mut outcome = QueryOutcome::from(out);
            outcome.version = Some(r_pin.version());
            if job.trace {
                outcome = outcome.with_report(sink.report(&format!(
                    "serve:{}:{}",
                    job.r.id,
                    job.spec.algorithm.name()
                )));
            }
            Ok(outcome.to_json())
        }
        Err(e) => {
            if job.cancel.is_cancelled() {
                metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Err(ApiError::new(
                ErrorCode::from_query_error(&e),
                e.to_string(),
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

/// What a route handler produced: status + JSON body, plus whether this
/// response must close the connection regardless of keep-alive.
struct Reply {
    status: u16,
    body: String,
    close: bool,
    /// A query a worker ran to a result: its request-read to
    /// response-written time goes into the latency histogram.
    executed: bool,
}

impl Reply {
    fn ok(body: impl Into<String>) -> Self {
        Reply::status(200, body)
    }

    fn status(status: u16, body: impl Into<String>) -> Self {
        Reply {
            status,
            body: body.into(),
            close: false,
            executed: false,
        }
    }

    fn err(e: &ApiError) -> Self {
        Reply::status(e.code.http_status(), e.code.error_json(&e.message))
    }
}

/// The token bucket of one connection, kept as the time its next request
/// is due: the schedule is absolute, so a late wake-up or a slow query is
/// made up by the requests after it instead of shifting every later one.
struct Pacer {
    due: Instant,
}

impl Pacer {
    /// A full bucket.
    fn new(now: Instant) -> Self {
        Pacer {
            due: Pacer::full_at(now),
        }
    }

    /// The `due` of a bucket that is full at `now`.
    fn full_at(now: Instant) -> Instant {
        now.checked_sub(REQUEST_INTERVAL * (REQUEST_BURST - 1))
            .unwrap_or(now)
    }

    /// Books the request that arrived at `now` and returns how long it
    /// has to wait for its token.
    fn admit(&mut self, now: Instant) -> Duration {
        // An idle connection saves up at most a full bucket.
        self.due = self.due.max(Pacer::full_at(now));
        let wait = self.due.saturating_duration_since(now);
        self.due += REQUEST_INTERVAL;
        wait
    }
}

fn connection_loop(mut stream: TcpStream, ctx: &Ctx) {
    // Responses are written whole, so there is nothing for Nagle to
    // coalesce; leaving it on only delays a reply behind an unacked one.
    let _ = stream.set_nodelay(true);
    let mut reader = MessageReader::new(MAX_BODY);
    let mut pacer = Pacer::new(Instant::now());
    loop {
        let req = match read_request(&mut reader, &mut stream) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean close between requests
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let body = ErrorCode::BadRequest.error_json(&e.to_string());
                let _ = write_response(&mut stream, 400, &body, false);
                return;
            }
            Err(_) => return, // socket error mid-request
        };
        let read_at = Instant::now();
        let wait = pacer.admit(read_at);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        ctx.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let keep_alive = req.keep_alive && !ctx.shutdown.load(Ordering::Acquire);
        let reply = match route(&req, &mut stream, ctx) {
            Some(reply) => reply,
            None => {
                // Client disconnected while its query ran; nothing to
                // write and the handler already did the accounting.
                return;
            }
        };
        ctx.metrics.count_status(reply.status);
        let keep = keep_alive && !reply.close;
        let written = write_response(&mut stream, reply.status, &reply.body, keep);
        if reply.executed {
            ctx.metrics.record_latency(read_at.elapsed());
        }
        if written.is_err() || !keep {
            return;
        }
    }
}

/// Routes one request. `None` means the connection died mid-query and
/// there is nobody left to answer.
fn route(req: &Request, stream: &mut TcpStream, ctx: &Ctx) -> Option<Reply> {
    let path = req.path.trim_matches('/').to_string();
    let segs: Vec<&str> = if path.is_empty() {
        Vec::new()
    } else {
        path.split('/').collect()
    };
    let reply = match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["health"]) => Reply::ok("{\"ok\":true}"),
        ("GET", ["metrics"]) => Reply::ok(ctx.metrics.to_json()),
        ("GET", ["collections"]) => {
            let names = ctx.registry.list();
            let items: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
            Reply::ok(format!("{{\"collections\":[{}]}}", items.join(",")))
        }
        ("POST", ["collections"]) => match create_collection(req, ctx) {
            Ok(reply) => reply,
            Err(e) => Reply::err(&e),
        },
        ("GET", ["collections", id]) => match describe_collection(id, ctx) {
            Ok(reply) => reply,
            Err(e) => Reply::err(&e),
        },
        ("DELETE", ["collections", id]) => match parse_id(id).and_then(|id| {
            ctx.registry.drop_collection(&id)?;
            Ok(Reply::ok(format!("{{\"dropped\":\"{id}\"}}")))
        }) {
            Ok(reply) => reply,
            Err(e) => Reply::err(&e),
        },
        ("POST", ["collections", id, "query"]) => {
            return query_route(id, req, stream, ctx);
        }
        ("POST", ["collections", id, "insert"]) => match insert_route(id, req, ctx) {
            Ok(reply) => reply,
            Err(e) => Reply::err(&e),
        },
        ("POST", ["admin", "shutdown"]) => {
            initiate_shutdown(ctx);
            let mut reply = Reply::ok("{\"shutting_down\":true}");
            reply.close = true;
            reply
        }
        (_, ["health" | "metrics" | "collections" | "admin", ..]) => Reply::status(
            405,
            ErrorCode::BadRequest.error_json("method not allowed for this route"),
        ),
        _ => Reply::status(
            404,
            ErrorCode::BadRequest.error_json(&format!("no route for {} /{path}", req.method)),
        ),
    };
    Some(reply)
}

fn parse_id(raw: &str) -> Result<CollectionId, ApiError> {
    CollectionId::new(raw).map_err(|e| ApiError::new(ErrorCode::BadRequest, e.to_string()))
}

fn describe_collection(raw_id: &str, ctx: &Ctx) -> Result<Reply, ApiError> {
    let id = parse_id(raw_id)?;
    let coll = ctx.registry.get(&id)?;
    Ok(Reply::ok(format!(
        "{{\"id\":\"{}\",\"kind\":\"{}\",\"points\":{},\"versioned\":true,\"latest_version\":{}}}",
        coll.id,
        coll.kind.as_str(),
        coll.num_points(),
        coll.handle.latest()
    )))
}

/// `POST /collections` — body `{"id": "...", "kind": "mbrqt"|"rstar",
/// "points": [[x, y], ...]}`; oids are the array positions.
fn create_collection(req: &Request, ctx: &Ctx) -> Result<Reply, ApiError> {
    let bad = |msg: &str| ApiError::new(ErrorCode::BadRequest, msg);
    let body = req.body_str().ok_or_else(|| bad("body must be UTF-8"))?;
    let doc = JsonValue::parse(body).map_err(|e| bad(&e.to_string()))?;
    let id = parse_id(
        doc.get("id")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("missing string field \"id\""))?,
    )?;
    let kind = IndexKind::parse(
        doc.get("kind")
            .and_then(JsonValue::as_str)
            .unwrap_or("mbrqt"),
    )?;
    let points = parse_points(&doc)?;
    let coll = ctx.registry.create(&id, kind, &points)?;
    Ok(Reply::status(
        201,
        format!(
            "{{\"id\":\"{}\",\"kind\":\"{}\",\"points\":{}}}",
            coll.id,
            coll.kind.as_str(),
            coll.num_points()
        ),
    ))
}

/// Parses the `"points"` array of a create/insert body.
fn parse_points(doc: &JsonValue) -> Result<Vec<Point<SERVE_DIMS>>, ApiError> {
    let bad = |msg: &str| ApiError::new(ErrorCode::BadRequest, msg);
    let raw_points = doc
        .get("points")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| bad("missing array field \"points\""))?;
    let mut points: Vec<Point<SERVE_DIMS>> = Vec::with_capacity(raw_points.len());
    for (i, rp) in raw_points.iter().enumerate() {
        let coords = rp
            .as_arr()
            .filter(|a| a.len() == SERVE_DIMS)
            .ok_or_else(|| bad(&format!("point {i} must be [x, y]")))?;
        let mut p = [0.0f64; SERVE_DIMS];
        for (d, c) in coords.iter().enumerate() {
            p[d] = c
                .as_f64()
                .filter(|v| v.is_finite())
                .ok_or_else(|| bad(&format!("point {i} coordinate {d} must be finite")))?;
        }
        points.push(Point(p));
    }
    Ok(points)
}

/// `POST /collections/{id}/insert` — body `{"points": [[x, y], ...]}`.
/// Appends to a versioned collection; oids continue from the current
/// point count and each point commits its own snapshot version.
///
/// Runs inline on the connection thread: inserts go through the
/// collection's writer lock anyway, so routing them through the query
/// worker pool would only let a slow writer starve readers of workers —
/// the one thing MVCC is here to prevent.
fn insert_route(raw_id: &str, req: &Request, ctx: &Ctx) -> Result<Reply, ApiError> {
    if ctx.shutdown.load(Ordering::Acquire) {
        return Err(ApiError::new(
            ErrorCode::ShuttingDown,
            "server is shutting down",
        ));
    }
    let bad = |msg: &str| ApiError::new(ErrorCode::BadRequest, msg);
    let id = parse_id(raw_id)?;
    let body = req.body_str().ok_or_else(|| bad("body must be UTF-8"))?;
    let doc = JsonValue::parse(body).map_err(|e| bad(&e.to_string()))?;
    let points = parse_points(&doc)?;
    if points.is_empty() {
        return Err(bad("\"points\" must be non-empty"));
    }
    let coll = ctx.registry.get(&id)?;
    let (first_oid, version) = coll.insert_points(&points)?;
    Ok(Reply::ok(format!(
        "{{\"inserted\":{},\"first_oid\":{first_oid},\"version\":{version}}}",
        points.len()
    )))
}

/// `POST /collections/{id}/query[?trace=1][&target={other}]` — body is a
/// [`QuerySpec`] document. Queries `{id}` (as R) against `target` (as S,
/// default: itself).
fn query_route(raw_id: &str, req: &Request, stream: &mut TcpStream, ctx: &Ctx) -> Option<Reply> {
    let submitted = match prepare_query(raw_id, req, ctx) {
        Ok(parts) => parts,
        Err(e) => return Some(Reply::err(&e)),
    };
    let (cancel, rx) = match submit_query(submitted, ctx) {
        Ok(pair) => pair,
        Err(e) => {
            if e.code == ErrorCode::Overloaded {
                ctx.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            }
            return Some(Reply::err(&e));
        }
    };
    await_reply(stream, &cancel, &rx)
}

struct PreparedQuery {
    r: Arc<Collection>,
    s: Arc<Collection>,
    spec: QuerySpec,
    trace: bool,
}

fn prepare_query(raw_id: &str, req: &Request, ctx: &Ctx) -> Result<PreparedQuery, ApiError> {
    if ctx.shutdown.load(Ordering::Acquire) {
        return Err(ApiError::new(
            ErrorCode::ShuttingDown,
            "server is shutting down",
        ));
    }
    let id = parse_id(raw_id)?;
    let body = req
        .body_str()
        .ok_or_else(|| ApiError::new(ErrorCode::BadRequest, "body must be UTF-8"))?;
    let mut spec = QuerySpec::from_json(body)
        .map_err(|e| ApiError::new(ErrorCode::BadRequest, e.to_string()))?;
    // `?version=` overrides the spec's optional version field, so
    // time-travel reads work without re-serializing the body.
    if let Some(raw) = req.query_param("version") {
        let v = raw.parse::<u32>().ok().filter(|v| *v > 0).ok_or_else(|| {
            ApiError::new(ErrorCode::BadRequest, "version must be a positive integer")
        })?;
        spec.version = Some(v);
    }
    // `?threads=` overrides the spec's threads field the same way —
    // `0` is "one worker per core", subject to the compute-token cap.
    // Bounded like the body field (wire::MAX_WIRE_THREADS) so the
    // query-param path cannot smuggle an unbounded value either.
    if let Some(raw) = req.query_param("threads") {
        let t = raw
            .parse::<usize>()
            .ok()
            .filter(|t| *t <= ann_core::wire::MAX_WIRE_THREADS)
            .ok_or_else(|| {
                ApiError::new(
                    ErrorCode::BadRequest,
                    format!(
                        "threads must be an integer between 0 and {}",
                        ann_core::wire::MAX_WIRE_THREADS
                    ),
                )
            })?;
        spec.threads = t;
    }
    let r = ctx.registry.get(&id)?;
    let s = match req.query_param("target") {
        Some(target) => ctx.registry.get(&parse_id(target)?)?,
        None => Arc::clone(&r),
    };
    Ok(PreparedQuery {
        r,
        s,
        spec,
        trace: req.query_flag("trace"),
    })
}

type ReplyRx = mpsc::Receiver<Result<String, ApiError>>;

fn submit_query(q: PreparedQuery, ctx: &Ctx) -> Result<(CancelToken, ReplyRx), ApiError> {
    let cancel = CancelToken::new();
    let (tx, rx) = mpsc::channel();
    let job = Job {
        r: q.r,
        s: q.s,
        spec: q.spec,
        trace: q.trace,
        cancel: cancel.clone(),
        reply: tx,
    };
    match ctx.queue.try_submit(job) {
        Ok(()) => Ok((cancel, rx)),
        Err(SubmitError::Full) => Err(ApiError::new(
            ErrorCode::Overloaded,
            "query queue is full, retry later",
        )),
        Err(SubmitError::Closed) => Err(ApiError::new(
            ErrorCode::ShuttingDown,
            "server is shutting down",
        )),
    }
}

/// Waits for the worker's reply while watching the socket: a clean EOF
/// while the query is still running fires the cancel token. Returns
/// `None` when the client is gone (nothing to write back).
fn await_reply(stream: &mut TcpStream, cancel: &CancelToken, rx: &ReplyRx) -> Option<Reply> {
    let mut client_gone = false;
    let result = loop {
        match rx.recv_timeout(DISCONNECT_POLL) {
            Ok(result) => break result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if !client_gone && socket_disconnected(stream) {
                    client_gone = true;
                    cancel.cancel();
                    // Keep looping: the worker's clean abort releases
                    // the traversal's pins before it replies.
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Worker dropped the channel without a reply (shutdown
                // drain already answered, or a worker panic).
                break Err(ApiError::new(ErrorCode::Internal, "query lost"));
            }
        }
    };
    if client_gone {
        return None;
    }
    Some(match result {
        Ok(body) => Reply {
            executed: true,
            ..Reply::ok(body)
        },
        Err(e) => Reply::err(&e),
    })
}

/// True when the peer has closed its end: a zero-byte `peek`. The probe
/// never waits — the socket is non-blocking for its duration, so "nothing
/// sent, still connected" comes back as `WouldBlock` at once.
fn socket_disconnected(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => e.kind() != ErrorKind::WouldBlock,
    };
    // A socket stuck non-blocking could not carry the reply either.
    stream.set_nonblocking(false).is_err() || gone
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_spends_a_bucket_then_keeps_the_schedule() {
        let t0 = Instant::now() + Duration::from_secs(1);
        let mut p = Pacer::new(t0);
        for _ in 0..REQUEST_BURST {
            assert_eq!(p.admit(t0), Duration::ZERO);
        }
        // Empty: one request per interval, measured from the schedule and
        // not from when the previous request happened to be admitted.
        assert_eq!(p.admit(t0), REQUEST_INTERVAL);
        let late = t0 + REQUEST_INTERVAL * 3;
        assert_eq!(p.admit(late), Duration::ZERO);
        assert_eq!(p.admit(late), Duration::ZERO);
        assert_eq!(p.admit(late), REQUEST_INTERVAL);
        // Idle for a long time: a full bucket again, and no more.
        let idle = late + Duration::from_secs(60);
        for _ in 0..REQUEST_BURST {
            assert_eq!(p.admit(idle), Duration::ZERO);
        }
        assert_eq!(p.admit(idle), REQUEST_INTERVAL);
    }
}
