//! End-to-end gates for the serving front-end (DESIGN.md §14):
//!
//! * control-plane CRUD + error surface over real sockets;
//! * the serving-vs-library differential: for fuzz-generated workloads
//!   (checker's generator), the bytes a client parses off the wire are
//!   identical to what the in-process `query::run` path returns;
//! * ≥ 32 concurrent closed-loop clients with zero failed requests and
//!   byte-identical results (the acceptance criterion);
//! * admission control: a saturated one-worker server answers 429;
//! * cancellation-on-disconnect: a client that hangs up mid-query is
//!   cancelled, and a cold follow-up query answers byte-identically to
//!   the library;
//! * graceful shutdown and reopen-from-disk.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ann_core::query::{run, Algorithm, AnnRequest, Input};
use ann_core::stats::AnnStats;
use ann_core::wire::{QueryOutcome, QuerySpec};
use ann_datagen::Rng;
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_serve::client::{Client, Conn};
use ann_serve::registry::Collection;
use ann_serve::server::{Server, ServerConfig};
use ann_store::{BufferPool, MemDisk};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ann-serve-test-{}-{}-{}",
        std::process::id(),
        tag,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start_server(tag: &str, workers: usize, queue_depth: usize, pool_frames: usize) -> Server {
    start_server_tokens(tag, workers, queue_depth, pool_frames, 0)
}

fn start_server_tokens(
    tag: &str,
    workers: usize,
    queue_depth: usize,
    pool_frames: usize,
    compute_tokens: usize,
) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        data_dir: temp_dir(tag),
        pool_frames,
        compute_tokens,
    })
    .expect("server starts")
}

/// Canonical comparison form: the outcome's pairs with stats zeroed and
/// the version stripped, so equality means "byte-identical results"
/// without coupling to pool counters (which legitimately vary under
/// concurrency) or to which snapshot version served the query.
fn pairs_json(mut results: Vec<ann_core::stats::NeighborPair>) -> String {
    // The server serializes canonical `(r_oid, dist, s_oid)` order;
    // library-side references arrive in traversal order and must be
    // canonicalized the same way before the byte compare.
    results.sort_by(|a, b| {
        (a.r_oid, a.dist, a.s_oid)
            .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
            .expect("distances are finite")
    });
    QueryOutcome {
        results,
        stats: AnnStats::default(),
        report: None,
        version: None,
    }
    .to_json()
}

fn server_pairs(body: &str) -> String {
    let outcome = QueryOutcome::from_json(body)
        .unwrap_or_else(|e| panic!("server body must parse as QueryOutcome: {e}\n{body}"));
    pairs_json(outcome.results)
}

/// Runs `spec` in-process over freshly built MBRQTs (R, and optionally a
/// separate S) with positional oids — the library-side reference for the
/// differential tests.
fn library_pairs(r_pts: &[Point<2>], s_pts: Option<&[Point<2>]>, spec: &QuerySpec) -> String {
    let keyed = |pts: &[Point<2>]| -> Vec<(u64, Point<2>)> {
        pts.iter()
            .enumerate()
            .map(|(i, p)| (i as u64, *p))
            .collect()
    };
    let pool_r = Arc::new(BufferPool::new(MemDisk::new(), 256));
    let ir = Mbrqt::bulk_build(pool_r, &keyed(r_pts), &MbrqtConfig::default()).expect("build R");
    let req = spec.to_request();
    let out = match s_pts {
        None => run(&req, Input::Index(&ir), Input::Index(&ir)),
        Some(s) => {
            let pool_s = Arc::new(BufferPool::new(MemDisk::new(), 256));
            let is =
                Mbrqt::bulk_build(pool_s, &keyed(s), &MbrqtConfig::default()).expect("build S");
            run(&req, Input::Index(&ir), Input::Index(&is))
        }
    }
    .expect("library run");
    pairs_json(out.results)
}

fn to_rows(pts: &[Point<2>]) -> Vec<[f64; 2]> {
    pts.iter().map(|p| [p.0[0], p.0[1]]).collect()
}

/// Deterministic uniform points for the load tests.
fn uniform_points(n: usize, seed: u64) -> Vec<Point<2>> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| Point([rng.f64() * 1000.0, rng.f64() * 1000.0]))
        .collect()
}

#[test]
fn crud_and_query_roundtrip() {
    let server = start_server("crud", 2, 16, 256);
    let client = Client::new(server.addr().to_string());

    assert_eq!(client.health().expect("health").status, 200);

    let resp = client
        .create_collection("demo", "mbrqt", &[[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        .expect("create");
    assert_eq!(resp.status, 201, "{}", resp.body);

    // Duplicate name → 409.
    let dup = client
        .create_collection("demo", "mbrqt", &[[0.0, 0.0]])
        .expect("dup request");
    assert_eq!(dup.status, 409, "{}", dup.body);

    let listed = client.request("GET", "/collections", "").expect("list");
    assert!(listed.body.contains("\"demo\""), "{}", listed.body);

    let desc = client
        .request("GET", "/collections/demo", "")
        .expect("describe");
    assert_eq!(desc.status, 200);
    assert!(desc.body.contains("\"points\":3"), "{}", desc.body);

    let spec = QuerySpec {
        exclude_self: true,
        ..QuerySpec::default()
    };
    let q = client.query("demo", &spec).expect("query");
    assert_eq!(q.status, 200, "{}", q.body);
    let outcome = q.outcome().expect("outcome parses");
    assert_eq!(outcome.results.len(), 3);

    // `k = usize::MAX` asks for every other point, not a worker panic.
    let every = format!(
        r#"{{"v":1,"algorithm":{{"name":"mba"}},"k":{},"exclude_self":true}}"#,
        usize::MAX
    );
    let q = client
        .request("POST", "/collections/demo/query", &every)
        .expect("huge-k query");
    assert_eq!(q.status, 200, "{}", q.body);
    assert_eq!(q.outcome().expect("outcome parses").results.len(), 3 * 2);

    // Traced query returns the report inline.
    let traced = client
        .request("POST", "/collections/demo/query?trace=1", &spec.to_json())
        .expect("traced query");
    assert_eq!(traced.status, 200);
    assert!(traced.body.contains("\"trace\":"), "{}", traced.body);

    // Unknown collection → 404; malformed body → 400; bad id → 400.
    let missing = client.query("nope", &spec).expect("missing");
    assert_eq!(missing.status, 404, "{}", missing.body);
    let bad = client
        .request("POST", "/collections/demo/query", "{not json")
        .expect("bad body");
    assert_eq!(bad.status, 400, "{}", bad.body);
    let bad_id = client
        .request("POST", "/collections/b%d/query", &spec.to_json())
        .expect("bad id");
    assert_eq!(bad_id.status, 400, "{}", bad_id.body);
    let no_route = client.request("GET", "/nothing/here", "").expect("404");
    assert_eq!(no_route.status, 404);
    let wrong_method = client.request("PUT", "/collections", "").expect("405");
    assert_eq!(wrong_method.status, 405);

    let metrics = client.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("\"queries\":"), "{}", metrics.body);

    let dropped = client.drop_collection("demo").expect("drop");
    assert_eq!(dropped.status, 200, "{}", dropped.body);
    let gone = client.query("demo", &spec).expect("query dropped");
    assert_eq!(gone.status, 404, "{}", gone.body);

    server.shutdown();
}

/// `/metrics` `queries` counts every query executed to a verdict: a
/// typed error — here a visit budget of one — counts like an answer.
#[test]
fn typed_query_errors_count_as_queries() {
    let server = start_server("verdicts", 1, 16, 256);
    let client = Client::new(server.addr().to_string());
    let resp = client
        .create_collection("budget", "mbrqt", &to_rows(&uniform_points(200, 7)))
        .expect("create");
    assert_eq!(resp.status, 201, "{}", resp.body);
    let spec = QuerySpec {
        visit_budget: Some(1),
        ..QuerySpec::default()
    };
    assert!(
        spec.to_json().contains("\"visit_budget\":1"),
        "{}",
        spec.to_json()
    );
    let q = client.query("budget", &spec).expect("query");
    assert_eq!(q.status, 422, "{}", q.body);
    assert_eq!(server.metrics().queries.load(Ordering::Relaxed), 1);
    server.shutdown();
}

/// The serving differential: fuzz-generated workloads through the full
/// socket path must return byte-identical results to `query::run`.
#[test]
fn server_results_match_library_for_fuzz_workloads() {
    let server = start_server("diff", 2, 16, 256);
    let client = Client::new(server.addr().to_string());
    let mut rng = Rng::new(0x5E4E11);
    let mut ran = 0usize;
    let mut case_idx = 0usize;
    while ran < 24 {
        case_idx += 1;
        let case = checker::gen::diff_case::<2>(&mut rng);
        let r_pts: Vec<Point<2>> = case.r.iter().map(|(_, p)| *p).collect();
        let s_pts: Vec<Point<2>> = case.s.iter().map(|(_, p)| *p).collect();
        let self_join = case.exclude_self || r_pts == s_pts;
        if r_pts.is_empty() || s_pts.is_empty() {
            continue; // served collections hold at least one point
        }
        let mut spec = QuerySpec::new(match ran % 4 {
            0 => Algorithm::mba(),
            1 => Algorithm::Bnn {
                group_size: case.group_size,
            },
            2 => Algorithm::Mnn,
            _ => Algorithm::Hnn {
                avg_cell_occupancy: case.avg_cell_occupancy,
            },
        });
        spec.k = case.k.min(64);
        spec.exclude_self = case.exclude_self;
        if ran % 2 == 1 {
            spec.metric = ann_core::query::MetricChoice::MaxMax;
        }

        let r_name = format!("diff-r-{case_idx}");
        let created = client
            .create_collection(&r_name, "mbrqt", &to_rows(&r_pts))
            .expect("create R");
        assert_eq!(created.status, 201, "{}", created.body);

        let (target_query, expected) = if self_join {
            (
                format!("/collections/{r_name}/query"),
                library_pairs(&r_pts, None, &spec),
            )
        } else {
            let s_name = format!("diff-s-{case_idx}");
            let created = client
                .create_collection(&s_name, "mbrqt", &to_rows(&s_pts))
                .expect("create S");
            assert_eq!(created.status, 201, "{}", created.body);
            (
                format!("/collections/{r_name}/query?target={s_name}"),
                library_pairs(&r_pts, Some(&s_pts), &spec),
            )
        };

        let resp = client
            .request("POST", &target_query, &spec.to_json())
            .expect("query");
        assert_eq!(resp.status, 200, "case {case_idx}: {}", resp.body);
        assert_eq!(
            server_pairs(&resp.body),
            expected,
            "case {case_idx} ({:?}): server diverged from query::run",
            spec.algorithm
        );
        ran += 1;
    }
    server.shutdown();
}

/// The acceptance criterion: ≥ 32 concurrent closed-loop clients, zero
/// failed requests, every result byte-identical to the library path.
#[test]
fn sustains_32_concurrent_clients_with_identical_results() {
    const CLIENTS: usize = 32;
    const REQUESTS_PER_CLIENT: usize = 6;

    let server = start_server("load", 4, 64, 256);
    let client = Client::new(server.addr().to_string());
    let points = uniform_points(2000, 0xA11CE);
    let created = client
        .create_collection("load", "mbrqt", &to_rows(&points))
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);

    let spec = QuerySpec {
        k: 2,
        exclude_self: true,
        ..QuerySpec::default()
    };
    let expected = Arc::new(library_pairs(&points, None, &spec));
    let addr = server.addr().to_string();
    let spec_json = Arc::new(spec.to_json());

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let spec_json = Arc::clone(&spec_json);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut conn = Conn::connect(&addr).expect("connect");
                for _ in 0..REQUESTS_PER_CLIENT {
                    let resp = conn
                        .request("POST", "/collections/load/query", &spec_json)
                        .expect("query");
                    assert_eq!(resp.status, 200, "failed request: {}", resp.body);
                    assert_eq!(
                        server_pairs(&resp.body),
                        *expected,
                        "concurrent result diverged"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let m = server.metrics();
    assert_eq!(
        m.queries.load(Ordering::Relaxed),
        (CLIENTS * REQUESTS_PER_CLIENT) as u64
    );
    assert_eq!(m.rejected.load(Ordering::Relaxed), 0);
    server.shutdown();
}

/// A deliberately tiny server (one worker, queue depth one) holds at most
/// two unanswered queries — one running, one queued — so of three sent at
/// the same instant at least one must be shed with 429.
#[test]
fn saturated_server_answers_429() {
    const OFFERED: usize = 3;
    let server = start_server("overload", 1, 1, 16);
    let client = Client::new(server.addr().to_string());
    let points = uniform_points(30_000, 0xBEEF);
    let created = client
        .create_collection("big", "mbrqt", &to_rows(&points))
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);

    // Slow query, but deadline-bounded so the test always terminates.
    let spec = AnnRequest::new(Algorithm::mba())
        .k(8)
        .exclude_self(true)
        .deadline_in(Duration::from_secs(10))
        .spec;
    let spec_json = spec.to_json();

    // Every sender connects first and writes only after the barrier, so
    // all three requests reach admission control a socket write apart —
    // against a query that runs for hundreds of milliseconds. A round in
    // which the first query nevertheless finished before the last one
    // arrived (the process was descheduled between two writes) saturated
    // nothing, and is repeated.
    let barrier = std::sync::Barrier::new(OFFERED);
    let mut rounds = 0;
    let rejected = loop {
        rounds += 1;
        assert!(
            rounds <= 10,
            "three simultaneous queries never saturated a 1-worker/1-slot server"
        );
        let replies: Vec<_> = std::thread::scope(|scope| {
            let senders: Vec<_> = (0..OFFERED)
                .map(|_| {
                    scope.spawn(|| {
                        let mut conn = client.conn().expect("connect");
                        barrier.wait();
                        conn.request("POST", "/collections/big/query", &spec_json)
                            .expect("query")
                    })
                })
                .collect();
            senders
                .into_iter()
                .map(|h| h.join().expect("sender thread"))
                .collect()
        });
        for reply in &replies {
            assert!(
                matches!(reply.status, 200 | 429 | 504),
                "a query completes, is shed, or hits its deadline, got {}",
                reply.status
            );
        }
        if let Some(shed) = replies.into_iter().find(|r| r.status == 429) {
            break shed;
        }
    };
    assert!(rejected.body.contains("\"code\":3000"), "{}", rejected.body);
    assert!(server.metrics().rejected.load(Ordering::Relaxed) >= 1);
    server.shutdown();
}

/// Sends an all-NN self-join of `coll` (`k = 32`: about a second over the
/// disconnect tests' 30 000 points in a release build) to `target` by
/// hand, and hangs up without reading the response as soon as the
/// traversal has read a page. The pin reads the meta page, the traversal
/// everything after it; a query cancelled before its first read would be
/// refused up front, never reaching the traversal under test. Dropping
/// the stream sends FIN: the connection thread's next 10 ms poll sees
/// EOF and fires the CancelToken while the join is still running.
fn hang_up_mid_query(server: &Server, coll: &Collection, target: &str) {
    let body = QuerySpec {
        k: 32,
        exclude_self: true,
        ..QuerySpec::default()
    }
    .to_json();
    let reads_before = coll.pool.stats().logical_reads;
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let head = format!(
        "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    stream.flush().expect("flush");
    let deadline = Instant::now() + Duration::from_secs(20);
    while coll.pool.stats().logical_reads < reads_before + 2 {
        assert!(Instant::now() < deadline, "the query never started");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// After an aborted query on `coll`, a follow-up over a cold node cache
/// and pool (at `threads` workers) answers byte-identically to the
/// library over `points`: the clean-abort contract, over a real socket.
fn assert_cold_follow_up(client: &Client, coll: &Collection, points: &[Point<2>], threads: usize) {
    let quick = QuerySpec {
        k: 1,
        io_budget: Some(100_000),
        ..QuerySpec::default()
    };
    let handle = coll
        .versioned_handle()
        .expect("served collections are versioned");
    handle.cache().clear();
    coll.pool.clear().expect("clear the collection's pool");
    let resp = client
        .query_threads(&coll.id.to_string(), threads, &quick)
        .expect("follow-up query");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        server_pairs(&resp.body),
        library_pairs(points, None, &quick),
        "cold follow-up after the abort diverged from the library"
    );
}

/// Client disconnect mid-query cancels the traversal, and the server then
/// answers a cold follow-up byte-identically (the clean-abort contract,
/// over a real socket).
#[test]
fn disconnect_mid_query_cancels_and_releases_pins() {
    let server = start_server("disconnect", 1, 4, 16);
    let client = Client::new(server.addr().to_string());
    let points = uniform_points(30_000, 0xD15C);
    let created = client
        .create_collection("victim", "mbrqt", &to_rows(&points))
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);
    let coll = server
        .registry()
        .get(&"victim".parse().expect("id"))
        .expect("collection");

    hang_up_mid_query(&server, &coll, "/collections/victim/query");

    // The worker must observe the cancellation and abort cleanly.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let cancelled = server.metrics().cancelled.load(Ordering::Relaxed);
        if cancelled >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "query was never cancelled after client disconnect"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The server keeps serving afterwards, byte for byte.
    assert_cold_follow_up(&client, &coll, &points, 1);
    server.shutdown();
}

/// Graceful shutdown over the wire: the endpoint answers, the server
/// drains, and the port closes.
#[test]
fn shutdown_endpoint_stops_the_server() {
    let server = start_server("shutdown", 2, 8, 64);
    let addr = server.addr();
    let client = Client::new(addr.to_string());
    let created = client
        .create_collection("tiny", "mbrqt", &[[0.0, 0.0], [1.0, 1.0]])
        .expect("create");
    assert_eq!(created.status, 201);

    let resp = client.shutdown_server().expect("shutdown request");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(server.is_shutting_down());
    server.wait();

    // The listener is gone: a fresh connection must fail outright.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after shutdown"
    );
}

/// A response leaves in one write. When head and body left as two small
/// segments, the body waited out the client's delayed ACK: ~44 ms per
/// response, 8.8 s for this loop. Two seconds is a 100x margin over what
/// it takes now, not a timing race.
#[test]
fn keep_alive_small_responses_do_not_stall() {
    let server = start_server("nostall", 1, 4, 16);
    let mut conn = Conn::connect(server.addr()).expect("connect");
    let started = Instant::now();
    for _ in 0..200 {
        let resp = conn.request("GET", "/health", "").expect("health");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "200 keep-alive round trips took {took:?}: a response is stalling"
    );
    server.shutdown();
}

/// A client may send its next request before reading the previous
/// response; bytes past `Content-Length` open the next request.
#[test]
fn pipelined_requests_each_get_their_response() {
    let server = start_server("pipeline", 1, 4, 16);
    let client = Client::new(server.addr().to_string());
    let created = client
        .create_collection("p", "mbrqt", &[[0.0, 0.0], [1.0, 1.0], [3.0, 1.0]])
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);

    let spec = QuerySpec {
        exclude_self: true,
        ..QuerySpec::default()
    }
    .to_json();
    let wire = format!(
        "POST /collections/p/query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{spec}\
         GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        spec.len()
    );
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(wire.as_bytes()).expect("write both");
    let mut answers = String::new();
    stream.read_to_string(&mut answers).expect("read both");
    assert_eq!(
        answers.matches("HTTP/1.1 200 OK\r\n").count(),
        2,
        "{answers}"
    );
    assert!(answers.contains("\"count\":3"), "{answers}");
    assert!(answers.ends_with("{\"ok\":true}"), "{answers}");
    server.shutdown();
}

/// Time travel over the wire: every committed snapshot version stays
/// queryable (byte-identically) until it ages out of the history window,
/// and an aged-out version is a client error, not a storage fault.
#[test]
fn time_travel_queries_pin_old_versions() {
    let server = start_server("timetravel", 2, 16, 256);
    let client = Client::new(server.addr().to_string());
    // Corners first: MBRQT's universe is the bulk-build bounding box, so
    // later inserts must land inside it.
    let created = client
        .create_collection("tt", "mbrqt", &[[0.0, 0.0], [1000.0, 1000.0], [10.0, 10.0]])
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);

    let spec = QuerySpec {
        k: 1,
        exclude_self: true,
        ..QuerySpec::default()
    };

    // The version the bulk build committed.
    let before = client.query("tt", &spec).expect("query v1");
    assert_eq!(before.status, 200, "{}", before.body);
    let v1 = before
        .outcome()
        .expect("outcome")
        .version
        .expect("versioned collection stamps outcomes");
    assert_eq!(before.outcome().expect("outcome").results.len(), 3);

    let ins = client
        .insert_points("tt", &[[500.0, 500.0], [501.0, 500.0]])
        .expect("insert");
    assert_eq!(ins.status, 200, "{}", ins.body);
    assert!(ins.body.contains("\"inserted\":2"), "{}", ins.body);

    // Latest now sees five points; the pinned v1 read is byte-identical
    // to the pre-insert response.
    let after = client.query("tt", &spec).expect("query latest");
    assert_eq!(after.status, 200, "{}", after.body);
    let after_outcome = after.outcome().expect("outcome");
    assert_eq!(after_outcome.results.len(), 5);
    assert!(after_outcome.version.expect("stamped") > v1);
    let pinned = client.query_at("tt", v1, &spec).expect("query at v1");
    assert_eq!(pinned.status, 200, "{}", pinned.body);
    assert_eq!(
        pinned.outcome().expect("outcome").version,
        Some(v1),
        "{}",
        pinned.body
    );
    assert_eq!(
        server_pairs(&pinned.body),
        server_pairs(&before.body),
        "time-travel read diverged from the original v1 response"
    );

    // Describe surfaces versioning; a never-committed future version and
    // (after enough commits) an aged-out one are client errors.
    let desc = client
        .request("GET", "/collections/tt", "")
        .expect("describe");
    assert!(desc.body.contains("\"versioned\":true"), "{}", desc.body);
    let future = client
        .query_at("tt", 10_000, &spec)
        .expect("future version");
    assert_eq!(future.status, 400, "{}", future.body);
    for _ in 0..12 {
        // Push v1 out of the bounded history window (keep = 8).
        let ins = client
            .insert_points("tt", &[[499.0, 499.0]])
            .expect("filler insert");
        assert_eq!(ins.status, 200, "{}", ins.body);
    }
    let aged = client.query_at("tt", v1, &spec).expect("aged version");
    assert_eq!(aged.status, 400, "{}", aged.body);
    server.shutdown();
}

/// The MVCC + registry race gate: over a restarted server (so the first
/// touch is a lazy open), many clients race first-touch gets and queries
/// against a writer committing inserts on the same collection. Exactly
/// one open happens, zero requests fail, and when the dust settles no
/// buffer frame is left pinned.
#[test]
fn parallel_first_touch_and_writer_commits_leave_nothing_pinned() {
    const READERS: usize = 8;
    const QUERIES_PER_READER: usize = 12;
    const WRITER_BATCHES: usize = 20;

    let dir = temp_dir("race");
    let config = |dir: &PathBuf| ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 64,
        data_dir: dir.clone(),
        pool_frames: 256,
        compute_tokens: 0,
    };

    // Build the collection on a first server, then restart so the racing
    // requests below all hit a cold registry.
    let mut points = vec![Point([0.0, 0.0]), Point([1000.0, 1000.0])];
    points.extend(uniform_points(1500, 0xFACE));
    let first = Server::start(config(&dir)).expect("first server");
    let client = Client::new(first.addr().to_string());
    let created = client
        .create_collection("race", "mbrqt", &to_rows(&points))
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);
    first.shutdown();

    let server = Server::start(config(&dir)).expect("second server");
    let addr = server.addr().to_string();
    let spec = QuerySpec {
        k: 1,
        exclude_self: true,
        ..QuerySpec::default()
    };
    let spec_json = Arc::new(spec.to_json());

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let addr = addr.clone();
            let spec_json = Arc::clone(&spec_json);
            std::thread::spawn(move || {
                let mut conn = Conn::connect(&addr).expect("connect");
                for _ in 0..QUERIES_PER_READER {
                    let resp = conn
                        .request("POST", "/collections/race/query", &spec_json)
                        .expect("query");
                    assert_eq!(resp.status, 200, "reader failed: {}", resp.body);
                    let outcome = QueryOutcome::from_json(&resp.body).expect("outcome parses");
                    // Whatever version was pinned, the result set is one
                    // neighbor per point of that snapshot.
                    assert!(outcome.results.len() >= 1502, "{}", resp.body);
                    assert!(outcome.version.is_some(), "{}", resp.body);
                }
            })
        })
        .collect();
    let writer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let client = Client::new(addr);
            let mut rng = Rng::new(0xD0C5);
            for _ in 0..WRITER_BATCHES {
                let batch: Vec<[f64; 2]> = (0..3)
                    .map(|_| [rng.f64() * 1000.0, rng.f64() * 1000.0])
                    .collect();
                let resp = client.insert_points("race", &batch).expect("insert");
                assert_eq!(resp.status, 200, "writer failed: {}", resp.body);
            }
        })
    };
    for h in readers {
        h.join().expect("reader thread");
    }
    writer.join().expect("writer thread");

    // All those racing first touches opened the collection exactly once.
    assert_eq!(server.registry().open_count(), 1);
    let a = server
        .registry()
        .get(&"race".parse().expect("id"))
        .expect("get");
    let b = server
        .registry()
        .get(&"race".parse().expect("id"))
        .expect("get");
    assert!(Arc::ptr_eq(&a, &b), "registry handed out distinct handles");

    // Every request completed, so no reader pin survives.
    let store = a.versioned_handle().expect("versioned").store();
    assert_eq!(
        store.pinned_readers(),
        0,
        "snapshots left pinned after the race"
    );
    let final_count = 1502 + (WRITER_BATCHES as u64) * 3;
    assert_eq!(a.num_points(), final_count);
    server.shutdown();
}

/// Collections persist: a new server over the same data dir reopens them
/// lazily and returns identical results.
#[test]
fn collections_reopen_from_disk_across_restarts() {
    let dir = temp_dir("reopen");
    let config = |dir: &PathBuf| ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 8,
        data_dir: dir.clone(),
        pool_frames: 64,
        compute_tokens: 0,
    };
    let points = uniform_points(500, 0x0DD);
    let spec = QuerySpec {
        k: 3,
        exclude_self: true,
        ..QuerySpec::default()
    };

    let first = Server::start(config(&dir)).expect("first server");
    let client = Client::new(first.addr().to_string());
    let created = client
        .create_collection("persist", "mbrqt", &to_rows(&points))
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);
    let before = client.query("persist", &spec).expect("query before");
    assert_eq!(before.status, 200);
    first.shutdown();

    let second = Server::start(config(&dir)).expect("second server");
    let client = Client::new(second.addr().to_string());
    let listed = client.request("GET", "/collections", "").expect("list");
    assert!(listed.body.contains("\"persist\""), "{}", listed.body);
    let after = client.query("persist", &spec).expect("query after");
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(
        server_pairs(&after.body),
        server_pairs(&before.body),
        "reopened collection returned different results"
    );
    second.shutdown();
}

/// `GET /collections` names only collections a client can fetch: a stray
/// sidecar whose stem is no valid collection id is left out, including
/// one whose quote would otherwise break the response's JSON.
#[test]
fn listing_names_only_reachable_collections() {
    let dir = temp_dir("list");
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 8,
        data_dir: dir.clone(),
        pool_frames: 64,
        compute_tokens: 0,
    })
    .expect("server starts");
    let client = Client::new(server.addr().to_string());
    let created = client
        .create_collection("kept", "mbrqt", &[[0.0, 0.0], [1.0, 1.0]])
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);
    for stray in ["bad name", "q\""] {
        std::fs::write(dir.join(format!("{stray}.meta.json")), "{}").expect("stray sidecar");
    }

    let listed = client.request("GET", "/collections", "").expect("list");
    assert_eq!(listed.status, 200, "{}", listed.body);
    let doc = ann_core::wire::JsonValue::parse(&listed.body)
        .unwrap_or_else(|e| panic!("the listing must be JSON ({e}): {}", listed.body));
    let names: Vec<&str> = doc
        .get("collections")
        .and_then(|c| c.as_arr())
        .expect("a collections array")
        .iter()
        .map(|n| n.as_str().expect("names are strings"))
        .collect();
    assert_eq!(names, ["kept"]);
    server.shutdown();
}

/// A sidecar without `versions_head` (what a build before versioned
/// collections wrote) is refused as an invalid collection, not opened.
#[test]
fn pre_versioning_collection_is_rejected_on_open() {
    use ann_core::wire::{CollectionId, ErrorCode};
    use ann_serve::Registry;
    use ann_store::FileDisk;

    let dir = temp_dir("upgrade");
    let id = CollectionId::new("old").expect("id");
    let keyed: Vec<(u64, Point<2>)> = uniform_points(300, 0x01D)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p))
        .collect();
    let disk = FileDisk::create(dir.join("old.pages")).expect("create pages");
    let pool = Arc::new(BufferPool::new(disk, 64));
    let tree =
        Mbrqt::bulk_build(Arc::clone(&pool), &keyed, &MbrqtConfig::default()).expect("bulk build");
    pool.flush_all().expect("flush");
    std::fs::write(
        dir.join("old.meta.json"),
        format!(
            "{{\"v\":1,\"kind\":\"mbrqt\",\"meta_page\":{},\"points\":{},\"pool_frames\":64}}",
            tree.meta_page(),
            keyed.len()
        ),
    )
    .expect("write sidecar");

    let registry = Registry::open(&dir, 64).expect("registry");
    let err = registry
        .get(&id)
        .err()
        .expect("a sidecar without a manifest head");
    assert_eq!(err.code, ErrorCode::InvalidCollection, "{}", err.message);
    assert!(err.message.contains("versions_head"), "{}", err.message);
}

/// A collection is an MBRQT. Asking to create an R\*-tree collection is
/// a 400 that names the one accepted kind, leaving `kind` out still means
/// `"mbrqt"`, and the sidecar of an R\*-tree collection an earlier build
/// served is refused as an invalid collection, not read as a corrupt
/// MBRQT.
#[test]
fn rstar_collections_are_refused_at_create_and_on_open() {
    use ann_core::wire::{CollectionId, ErrorCode};
    use ann_rstar::{RStar, RStarConfig};
    use ann_serve::Registry;
    use ann_store::{FileDisk, DEFAULT_KEEP};

    let server = start_server("kinds", 1, 4, 64);
    let client = Client::new(server.addr().to_string());
    let rows = to_rows(&uniform_points(50, 0x4B));
    let refused = client
        .create_collection("tree", "rstar", &rows)
        .expect("create rstar");
    assert_eq!(refused.status, 400, "{}", refused.body);
    assert!(refused.body.contains("\"bad-request\""), "{}", refused.body);
    assert!(refused.body.contains("\\\"mbrqt\\\""), "{}", refused.body);
    let listed = client.request("GET", "/collections", "").expect("list");
    assert!(!listed.body.contains("\"tree\""), "{}", listed.body);
    let points: Vec<String> = rows.iter().map(|[x, y]| format!("[{x:?},{y:?}]")).collect();
    let body = format!("{{\"id\":\"plain\",\"points\":[{}]}}", points.join(","));
    let defaulted = client
        .request("POST", "/collections", &body)
        .expect("create without kind");
    assert_eq!(defaulted.status, 201, "{}", defaulted.body);
    assert!(
        defaulted.body.contains("\"kind\":\"mbrqt\""),
        "{}",
        defaulted.body
    );
    server.shutdown();

    let dir = temp_dir("rstar-sidecar");
    let keyed: Vec<(u64, Point<2>)> = (0..).zip(uniform_points(300, 0x5D)).collect();
    let disk = FileDisk::create(dir.join("old.pages")).expect("create pages");
    let pool = Arc::new(BufferPool::new(disk, 64));
    let mut tree =
        RStar::bulk_build(Arc::clone(&pool), &keyed, &RStarConfig::default()).expect("STR build");
    let head = tree.enable_versioning(DEFAULT_KEEP).expect("versioning");
    pool.flush_all().expect("flush");
    std::fs::write(
        dir.join("old.meta.json"),
        format!(
            "{{\"v\":1,\"kind\":\"rstar\",\"meta_page\":{},\"versions_head\":{head}}}\n",
            tree.meta_page()
        ),
    )
    .expect("write sidecar");
    drop((tree, pool));

    let registry = Registry::open(&dir, 64).expect("registry");
    let err = registry
        .get(&CollectionId::new("old").expect("id"))
        .err()
        .expect("an R*-tree sidecar");
    assert_eq!(err.code, ErrorCode::InvalidCollection, "{}", err.message);
    assert!(err.message.contains("no longer served"), "{}", err.message);
}

/// An insert batch with a point outside the collection's universe (the
/// bulk build's bounding box) is the client's error: a 400 naming the
/// first such point, with nothing of the batch committed.
#[test]
fn out_of_universe_insert_is_refused_whole() {
    use ann_core::wire::JsonValue;

    let server = start_server("universe", 1, 4, 64);
    let client = Client::new(server.addr().to_string());
    let created = client
        .create_collection("box", "mbrqt", &[[0.0, 0.0], [10.0, 10.0], [5.0, 5.0]])
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);
    let describe = || {
        let resp = client
            .request("GET", "/collections/box", "")
            .expect("describe");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = JsonValue::parse(&resp.body).expect("describe JSON");
        let field = |key: &str| doc.get(key).and_then(JsonValue::as_u64).expect(key);
        (field("points"), field("latest_version"))
    };
    let before = describe();

    let refused = client
        .insert_points("box", &[[1.0, 1.0], [2.0, 2.0], [20.0, 3.0], [4.0, 4.0]])
        .expect("insert");
    assert_eq!(refused.status, 400, "{}", refused.body);
    assert!(refused.body.contains("\"bad-request\""), "{}", refused.body);
    assert!(refused.body.contains("point 2 "), "{}", refused.body);
    assert!(refused.body.contains("universe"), "{}", refused.body);
    assert_eq!(describe(), before, "a refused batch committed points");

    let accepted = client
        .insert_points("box", &[[1.0, 1.0], [10.0, 0.0]])
        .expect("insert");
    assert_eq!(accepted.status, 200, "{}", accepted.body);
    assert_eq!(describe(), (before.0 + 2, before.1 + 2));
    server.shutdown();
}

/// The point count — and with it the next oid — is tree state: after a
/// restart it comes back from the tree's own meta page, which every insert
/// commits. (Sidecars once carried `points`, the bulk-build count; reading
/// it back handed out oid 10 a second time.)
#[test]
fn point_count_and_oids_survive_restart() {
    use ann_core::brute::brute_force_aknn;
    use ann_core::query::run_scratch;
    use ann_core::scratch::QueryScratch;
    use ann_core::wire::CollectionId;
    use ann_serve::{IndexKind, Registry};

    let name = "counted";
    let dir = temp_dir("count");
    let id = CollectionId::new(name).expect("id");
    // Corners first, so every later point is inside the MBRQT universe.
    let mut points = vec![Point([0.0, 0.0]), Point([1000.0, 1000.0])];
    points.extend(uniform_points(11, 0xC0));
    {
        let registry = Registry::open(&dir, 64).expect("registry");
        let coll = registry
            .create(&id, IndexKind::Mbrqt, &points[..10])
            .expect("create");
        let (first_oid, _) = coll.insert_points(&points[10..12]).expect("insert");
        assert_eq!(first_oid, 10);
    }

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 4,
        data_dir: dir,
        pool_frames: 64,
        compute_tokens: 0,
    })
    .expect("server over the same directory");
    let coll = server.registry().get(&id).expect("reopen");
    assert_eq!(coll.num_points(), 12);
    let client = Client::new(server.addr().to_string());
    let described = client
        .request("GET", &format!("/collections/{name}"), "")
        .expect("describe");
    assert!(
        described.body.contains("\"points\":12"),
        "{}",
        described.body
    );
    let inserted = client
        .insert_points(name, &to_rows(&points[12..]))
        .expect("insert after restart");
    assert!(
        inserted.body.contains("\"first_oid\":12"),
        "{}",
        inserted.body
    );

    let keyed: Vec<(u64, Point<2>)> = (0..).zip(points).collect();
    let spec = QuerySpec {
        k: 2,
        exclude_self: true,
        ..QuerySpec::default()
    };
    let ctx = coll.pin(None).expect("pin");
    let out = run_scratch(
        &spec.to_request(),
        Input::Index(&ctx),
        Input::Index(&ctx),
        &mut QueryScratch::new(),
    )
    .expect("self-join");
    let truth = brute_force_aknn(&keyed, &keyed, spec.k, true);
    assert_eq!(pairs_json(out.results), pairs_json(truth));
    drop((ctx, coll));
    server.shutdown();
}

/// A collection's pool size is the serving process's `pool_frames`: one
/// created under 64 frames reopens through 256 in a server started with
/// 256, from the sidecar the registry writes and from one an earlier build
/// wrote, which also carried `points` and `pool_frames`.
#[test]
fn reopened_collection_reads_through_the_servers_pool_size() {
    use ann_core::wire::{CollectionId, JsonValue};
    use ann_serve::{IndexKind, Registry};

    let points = uniform_points(300, 0x9F);
    for earlier_sidecar in [false, true] {
        let dir = temp_dir("pool-size");
        let id = CollectionId::new("sized").expect("id");
        let registry = Registry::open(&dir, 64).expect("registry");
        let created = registry
            .create(&id, IndexKind::Mbrqt, &points)
            .expect("create");
        assert_eq!(created.pool.capacity(), 64);
        drop((created, registry));
        if earlier_sidecar {
            let path = dir.join("sized.meta.json");
            let doc = JsonValue::parse(&std::fs::read_to_string(&path).expect("sidecar"))
                .expect("sidecar JSON");
            let field = |key: &str| doc.get(key).and_then(JsonValue::as_u64).expect(key);
            let (meta_page, head) = (field("meta_page"), field("versions_head"));
            std::fs::write(
                &path,
                format!(
                    "{{\"v\":1,\"kind\":\"mbrqt\",\"meta_page\":{meta_page},\"points\":300,\"pool_frames\":64,\"versions_head\":{head}}}\n"
                ),
            )
            .expect("rewrite sidecar");
        }

        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth: 4,
            data_dir: dir,
            pool_frames: 256,
            compute_tokens: 0,
        })
        .expect("server over the same directory");
        let coll = server.registry().get(&id).expect("reopen");
        assert_eq!(coll.pool.capacity(), 256, "earlier={earlier_sidecar}");
        let spec = QuerySpec {
            exclude_self: true,
            ..QuerySpec::default()
        };
        let answer = Client::new(server.addr().to_string())
            .query("sized", &spec)
            .expect("query");
        assert_eq!(answer.status, 200, "{}", answer.body);
        let outcome = QueryOutcome::from_json(&answer.body).expect("an outcome");
        assert_eq!(outcome.results.len(), 300);
        drop(coll);
        server.shutdown();
    }
}

/// Intra-query parallelism over the wire: `?threads=` and the spec's
/// additive `threads` field both reach the engine, results stay
/// byte-identical to the serial path, the schema version is unchanged,
/// and every granted compute token comes back.
#[test]
fn threads_round_trip_matches_serial_without_schema_bump() {
    let server = start_server_tokens("threads", 2, 16, 256, 8);
    let client = Client::new(server.addr().to_string());
    let points = uniform_points(1200, 0x7188);
    let created = client
        .create_collection("par", "mbrqt", &to_rows(&points))
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);

    let spec = QuerySpec {
        k: 2,
        exclude_self: true,
        ..QuerySpec::default()
    };

    let serial = client.query("par", &spec).expect("serial query");
    assert_eq!(serial.status, 200, "{}", serial.body);
    let expected = library_pairs(&points, None, &spec);
    assert_eq!(server_pairs(&serial.body), expected);

    // `?threads=` path (overrides the body).
    for threads in [0usize, 2, 4, 8] {
        let resp = client
            .query_threads("par", threads, &spec)
            .expect("threaded query");
        assert_eq!(resp.status, 200, "threads={threads}: {}", resp.body);
        assert_eq!(
            server_pairs(&resp.body),
            expected,
            "threads={threads}: parallel result diverged from serial over the wire"
        );
    }

    // Spec-field path: same wire version byte (`"v":1`), no schema bump.
    let mut spec_t = spec.clone();
    spec_t.threads = 3;
    let body = spec_t.to_json();
    assert!(body.contains("\"v\":1"), "{body}");
    assert!(body.contains("\"threads\":3"), "{body}");
    let resp = client
        .request("POST", "/collections/par/query", &body)
        .expect("spec-threads query");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(server_pairs(&resp.body), expected);

    // Garbage is a 400, not a crash.
    let bad = client
        .request(
            "POST",
            "/collections/par/query?threads=lots",
            &spec.to_json(),
        )
        .expect("bad threads");
    assert_eq!(bad.status, 400, "{}", bad.body);

    // Every extra token was returned and the cap held throughout.
    let tokens = server.compute_token_stats();
    assert_eq!(tokens.total, 8);
    assert_eq!(tokens.available, 8, "leaked compute tokens: {tokens:?}");
    assert!(tokens.high_water >= 1, "no grant ever happened: {tokens:?}");
    assert!(tokens.high_water <= tokens.total);
    server.shutdown();
}

/// The MBA variant's own wire-level `threads` knob must not bypass the
/// compute-token clamp: a body with no top-level `threads` field but a
/// big algorithm-level fan-out used to sail past the grant (the core
/// falls back to the variant knob whenever the request level is 1) and
/// spawn that many OS threads per query. The server now folds the knob
/// into the ask and overwrites it with the grant; values beyond the
/// wire cap are rejected outright.
#[test]
fn mba_variant_threads_cannot_bypass_compute_cap() {
    const TOKENS: usize = 2;
    let server = start_server_tokens("mbacap", 2, 16, 256, TOKENS);
    let client = Client::new(server.addr().to_string());
    let points = uniform_points(1000, 0xB1A5);
    let created = client
        .create_collection("mbacap", "mbrqt", &to_rows(&points))
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);

    let spec = QuerySpec {
        k: 2,
        exclude_self: true,
        ..QuerySpec::default()
    };
    let expected = library_pairs(&points, None, &spec);

    // No top-level `threads`; the variant asks for a 64-way fan-out.
    let body = r#"{"v":1,"algorithm":{"name":"mba","traversal":"depth-first","expansion":"bidirectional","threads":64},"k":2,"exclude_self":true}"#;
    let resp = client
        .request("POST", "/collections/mbacap/query", body)
        .expect("variant-threads query");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(server_pairs(&resp.body), expected);

    let tokens = server.compute_token_stats();
    assert_eq!(tokens.total, TOKENS);
    assert_eq!(
        tokens.available, TOKENS,
        "leaked compute tokens: {tokens:?}"
    );
    assert!(
        tokens.high_water <= TOKENS,
        "variant knob pierced the compute cap: {tokens:?}"
    );

    // Beyond the wire bound the request never reaches the engine.
    let huge = r#"{"v":1,"algorithm":{"name":"mba","traversal":"depth-first","expansion":"bidirectional","threads":100000},"k":2}"#;
    let resp = client
        .request("POST", "/collections/mbacap/query", huge)
        .expect("over-cap variant threads");
    assert_eq!(resp.status, 400, "{}", resp.body);
    let resp = client
        .request(
            "POST",
            "/collections/mbacap/query?threads=100000",
            &spec.to_json(),
        )
        .expect("over-cap query param");
    assert_eq!(resp.status, 400, "{}", resp.body);
    server.shutdown();
}

/// The oversubscription gate: 32 concurrent clients all demanding
/// `threads=8` against a tiny token budget. Results stay identical,
/// nothing fails, the grant high-water never pierces the cap, and the
/// pool refills completely once the burst drains.
#[test]
fn compute_token_cap_holds_under_32_concurrent_clients() {
    const CLIENTS: usize = 32;
    const REQUESTS_PER_CLIENT: usize = 3;
    const TOKENS: usize = 3;

    let server = start_server_tokens("tokencap", 4, 64, 256, TOKENS);
    let client = Client::new(server.addr().to_string());
    let points = uniform_points(1500, 0xCAB);
    let created = client
        .create_collection("cap", "mbrqt", &to_rows(&points))
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);

    let spec = QuerySpec {
        k: 2,
        exclude_self: true,
        ..QuerySpec::default()
    };
    let expected = Arc::new(library_pairs(&points, None, &spec));
    let spec_json = Arc::new(spec.to_json());
    let addr = server.addr().to_string();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let spec_json = Arc::clone(&spec_json);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut conn = Conn::connect(&addr).expect("connect");
                for _ in 0..REQUESTS_PER_CLIENT {
                    let resp = conn
                        .request("POST", "/collections/cap/query?threads=8", &spec_json)
                        .expect("query");
                    assert_eq!(resp.status, 200, "failed request: {}", resp.body);
                    assert_eq!(
                        server_pairs(&resp.body),
                        *expected,
                        "token-clamped result diverged"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let tokens = server.compute_token_stats();
    assert_eq!(tokens.total, TOKENS);
    assert_eq!(
        tokens.available, TOKENS,
        "burst left tokens unreturned: {tokens:?}"
    );
    assert!(
        tokens.high_water <= TOKENS,
        "workers × threads pierced the compute cap: {tokens:?}"
    );
    assert_eq!(
        server.metrics().queries.load(Ordering::Relaxed),
        (CLIENTS * REQUESTS_PER_CLIENT) as u64
    );
    server.shutdown();
}

/// Disconnect-mid-query with intra-query parallelism: the fired cancel
/// token must reach every morsel worker, the whole fan-out must abort,
/// no compute token may leak, and a cold parallel follow-up answers
/// byte-identically.
#[test]
fn disconnect_cancels_parallel_query_and_releases_everything() {
    let server = start_server_tokens("par-disconnect", 1, 4, 16, 8);
    let client = Client::new(server.addr().to_string());
    let points = uniform_points(30_000, 0xF1F0);
    let created = client
        .create_collection("victim", "mbrqt", &to_rows(&points))
        .expect("create");
    assert_eq!(created.status, 201, "{}", created.body);
    let coll = server
        .registry()
        .get(&"victim".parse().expect("id"))
        .expect("collection");

    // The fired token trips the engine's abort flag, which stops every
    // worker at its next pop/tick.
    hang_up_mid_query(&server, &coll, "/collections/victim/query?threads=4");

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if server.metrics().cancelled.load(Ordering::Relaxed) >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "parallel query was never cancelled after client disconnect"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let tokens = server.compute_token_stats();
    assert_eq!(
        tokens.available, tokens.total,
        "aborted query leaked compute tokens: {tokens:?}"
    );

    // The server keeps serving afterwards — in parallel, even.
    assert_cold_follow_up(&client, &coll, &points, 2);
    server.shutdown();
}

/// `GET /metrics`, byte for byte: every counter distinct, a few recorded
/// latencies in three histogram buckets.
#[test]
fn metrics_document_is_pinned() {
    let m = ann_serve::Metrics::new();
    let counters = [
        &m.requests,
        &m.ok,
        &m.client_errors,
        &m.server_errors,
        &m.rejected,
        &m.cancelled,
        &m.queries,
        &m.distance_computations,
        &m.nodes_expanded,
        &m.logical_reads,
        &m.physical_reads,
    ];
    for (i, c) in counters.into_iter().enumerate() {
        c.fetch_add(10 + i as u64, Ordering::Relaxed);
    }
    m.record_query(&AnnStats {
        distance_computations: 100,
        r_nodes_expanded: 3,
        s_nodes_expanded: 4,
        io: ann_store::IoSnapshot {
            logical_reads: 5,
            physical_reads: 6,
            ..Default::default()
        },
        ..Default::default()
    });
    m.count_status(200);
    m.count_status(404);
    m.count_status(500);
    for us in [3, 100, 100, 5000] {
        m.record_latency(Duration::from_micros(us));
    }
    assert_eq!(
        m.to_json(),
        "{\"requests\":10,\"ok\":12,\"client_errors\":13,\"server_errors\":14,\"rejected\":14,\
         \"cancelled\":15,\"queries\":17,\"distance_computations\":117,\"nodes_expanded\":25,\
         \"logical_reads\":24,\"physical_reads\":26,\
         \"latency_us\":{\"p50\":128,\"p95\":8192,\"p99\":8192}}"
    );
}
