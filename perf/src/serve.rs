//! The serving workloads: an in-process `Server`, driven over loopback HTTP
//! by keep-alive `Conn`s — closed-loop readers and, in the mixed traffic, an
//! open-loop writer on a fixed schedule.

use crate::check;
use crate::gen;
use crate::layers;
use crate::measure::{median, ms, peak_rss_mb, tail, us, Report};
use crate::trace::Trace;
use crate::{err, Res, RunArgs};
use ann_core::prelude::*;
use ann_core::QueryScratch;
use ann_geom::Point;
use ann_serve::{Client, Collection, Conn, IndexKind, Server, ServerConfig};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct ServeWorkload {
    /// Points in the collection when traffic starts.
    pub n: usize,
    pub k: usize,
    /// Closed-loop reader connections.
    pub readers: usize,
    /// Whether an open-loop writer inserts beside the readers.
    pub writer: bool,
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The writer's schedule: one batch of `BATCH` points is due every
/// `INSERT_EVERY`, whatever the server does.
const INSERT_EVERY: Duration = Duration::from_millis(100);
const BATCH: usize = 2;
/// Every how-manieth mixed-traffic response is kept (360 KB each) and verified
/// by brute force after the run. By position, not by chance, so that the
/// bodies held add the same few MiB to every run's peak memory.
const DEEP_CHECK_EVERY: usize = 40;
const COLLECTION: &str = "bench";

struct Env {
    /// `Some` until dropped; `Server::shutdown` consumes it.
    server: Option<Server>,
    addr: String,
    coll: Arc<Collection>,
    /// Initial points, then the points the writer will insert, in order.
    points: Vec<(u64, Point<2>)>,
    spec: QuerySpec,
    /// Version of the collection before any insert.
    v0: u32,
}

impl Drop for Env {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Env {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }
}

fn set_up(w: &ServeWorkload, args: &RunArgs, rep: usize) -> Res<Env> {
    let inserts = if w.writer {
        BATCH * (args.seconds.as_millis() / INSERT_EVERY.as_millis() + 2) as usize
    } else {
        0
    };
    // The generator's first two points are the corners of the sky, so every
    // later insert falls inside the universe the MBRQT fixed at its build.
    let points = gen::tac_like(w.n + inserts, args.seed);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: crate::host_cores(),
        data_dir: args.tmp.join(format!("serve-{rep}")),
        ..ServerConfig::default()
    })
    .map_err(err("starting the server"))?;
    let addr = server.addr().to_string();
    let initial: Vec<[f64; 2]> = points[..w.n].iter().map(|(_, p)| p.0).collect();
    let created = Client::new(addr.clone())
        .create_collection(COLLECTION, "mbrqt", &initial)
        .map_err(err("creating the collection"))?;
    if created.status != 201 {
        return Err(format!(
            "create answered {}: {}",
            created.status, created.body
        ));
    }
    let id = CollectionId::new(COLLECTION).map_err(err("collection id"))?;
    let coll = server
        .registry()
        .get(&id)
        .map_err(|e| format!("registry.get: {}", e.message))?;
    let v0 = coll.latest_version().ok_or("collection is not versioned")?;
    let mut spec = QuerySpec::new(Algorithm::mba());
    spec.k = w.k;
    spec.exclude_self = true;
    let env = Env {
        server: Some(server),
        addr,
        coll,
        points,
        spec,
        v0,
    };
    // Warm-up: the node cache holds the initial version afterwards.
    let mut conn = Conn::connect(&env.addr).map_err(err("connecting"))?;
    for _ in 0..3 {
        let resp = conn
            .request("POST", &query_path(false), &env.spec.to_json())
            .map_err(err("warm-up query"))?;
        if resp.status != 200 {
            return Err(format!("warm-up query answered {}", resp.status));
        }
    }
    Ok(env)
}

fn query_path(traced: bool) -> String {
    let trace = if traced { "?trace=1" } else { "" };
    format!("/collections/{COLLECTION}/query{trace}")
}

/// What one connection saw.
#[derive(Default)]
struct Log {
    lat_ms: Vec<f64>,
    /// How late the open-loop generator sent each request.
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Response bodies kept for the brute-force check after the run.
    kept: Vec<String>,
}

impl Log {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

/// The integer after the first `key` in `body`.
fn int_after(body: &str, key: &str) -> Option<u64> {
    let rest = &body[body.find(key)? + key.len()..];
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    rest[..digits].parse().ok()
}

/// The bytes of the `"pairs"` array of a `QueryOutcome` document.
fn pairs_section(body: &str) -> Option<&str> {
    let start = body.find("\"pairs\":[")? + "\"pairs\":[".len();
    let end = start + body[start..].find("],\"stats\":")?;
    Some(&body[start..end])
}

/// What every query response must satisfy, checked between requests.
struct Expect<'a> {
    k: usize,
    n0: usize,
    v0: u32,
    /// Read-only traffic: the library's own pairs for the same spec, which
    /// every response must equal byte for byte.
    pairs: Option<&'a str>,
}

impl Expect<'_> {
    fn check(&self, body: &str) -> Res<()> {
        // `count` opens the document; `version` follows the stats, ahead of
        // any trace report with fields of the same names.
        let count = int_after(body, "\"count\":").ok_or("no count in the response")?;
        let stats = body
            .find("],\"stats\":")
            .ok_or("no stats in the response")?;
        let version =
            int_after(&body[stats..], ",\"version\":").ok_or("no version in the response")?;
        // Every inserted point commits one version.
        let n = self.n0 as u64 + version.saturating_sub(u64::from(self.v0));
        if count != self.k as u64 * n {
            return Err(format!(
                "{count} pairs at version {version}, expected {}",
                self.k as u64 * n
            ));
        }
        if let Some(want) = self.pairs {
            if pairs_section(body) != Some(want) {
                return Err("response pairs differ from the library's".into());
            }
        }
        Ok(())
    }
}

/// Closed loop: the next query is sent when the previous response is in.
fn reader(env: &Env, expect: &Expect<'_>, until: Instant, tr: &mut Trace) -> Log {
    let mut log = Log::default();
    let path = query_path(tr.enabled());
    let body = env.spec.to_json();
    let mut conn = None;
    while Instant::now() < until {
        log.attempted += 1;
        if conn.is_none() {
            match Conn::connect(&env.addr) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    log.fail(format!("connect: {e}"));
                    continue;
                }
            }
        }
        let c = conn.as_mut().expect("connected above");
        // Latency is send to full body received; the traced pass then also
        // decodes, as a client would, so the span tree shows that cost.
        let (resp, took) = tr.span("op", |tr| {
            let t = Instant::now();
            let resp = tr.span("serve.client.request", |_| c.request("POST", &path, &body));
            let took = t.elapsed();
            if let (true, Ok(r)) = (tr.enabled(), &resp) {
                if let Err(e) = tr.span("core.wire.decode", |_| r.outcome()) {
                    return (Err(std::io::Error::other(e.to_string())), took);
                }
            }
            (resp, took)
        });
        match resp {
            Err(e) => {
                log.fail(format!("query: {e}"));
                conn = None;
            }
            Ok(r) if r.status != 200 => log.fail(format!("query answered {}", r.status)),
            Ok(r) => {
                log.lat_ms.push(ms(took));
                if let Err(e) = expect.check(&r.body) {
                    log.fail(e);
                } else if expect.pairs.is_none() && log.lat_ms.len() % DEEP_CHECK_EVERY == 0 {
                    log.kept.push(r.body);
                }
            }
        }
    }
    log
}

/// Open loop: batch `j` is due at `t0 + j * INSERT_EVERY` and its latency is
/// timed from then, so a stall delays — and counts against — later batches.
fn writer(env: &Env, n0: usize, first: usize, t0: Instant, until: Instant, tr: &mut Trace) -> Log {
    let mut log = Log::default();
    let path = format!("/collections/{COLLECTION}/insert");
    let mut conn = None;
    for j in first.. {
        let due = t0 + INSERT_EVERY * (j - first) as u32;
        let at = n0 + j * BATCH;
        if due >= until || at + BATCH > env.points.len() {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        log.late_ms.push(ms(due.elapsed()));
        log.attempted += 1;
        let coords: Vec<String> = env.points[at..at + BATCH]
            .iter()
            .map(|(_, p)| format!("[{},{}]", p.0[0], p.0[1]))
            .collect();
        let body = format!("{{\"points\":[{}]}}", coords.join(","));
        if conn.is_none() {
            match Conn::connect(&env.addr) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    log.fail(format!("connect: {e}"));
                    continue;
                }
            }
        }
        let c = conn.as_mut().expect("connected above");
        let resp = tr.span("op", |tr| {
            tr.span("serve.client.request", |_| c.request("POST", &path, &body))
        });
        let took = due.elapsed();
        match resp {
            Err(e) => {
                log.fail(format!("insert: {e}"));
                conn = None;
            }
            Ok(r) if r.status != 200 => log.fail(format!("insert answered {}", r.status)),
            Ok(r) => {
                log.lat_ms.push(ms(took));
                let want_version = u64::from(env.v0) + ((j + 1) * BATCH) as u64;
                if int_after(&r.body, "\"first_oid\":") != Some(at as u64)
                    || int_after(&r.body, "\"version\":") != Some(want_version)
                {
                    log.fail(format!("insert {j} answered {}", r.body));
                }
            }
        }
    }
    log
}

/// What one window of traffic produced.
struct Traffic {
    queries: Log,
    inserts: Log,
    window_s: f64,
    traces: Vec<Trace>,
    /// Insert batches sent so far, so a later window continues the schedule.
    batches: usize,
}

/// Runs the workload's traffic for `window`: `w.readers` readers and, in
/// mixed traffic, the writer. `epoch` switches span recording on.
fn traffic(
    w: &ServeWorkload,
    env: &Env,
    expect: &Expect<'_>,
    window: Duration,
    first_batch: usize,
    epoch: Option<Instant>,
) -> Traffic {
    let t0 = Instant::now();
    let until = t0 + window;
    let trace = |thread: u32| epoch.map_or_else(Trace::off, |e| Trace::on(e, thread));
    let (reader_logs, writer_log) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..w.readers)
            .map(|i| {
                let mut tr = trace(1 + i as u32);
                s.spawn(move || {
                    let log = reader(env, expect, until, &mut tr);
                    (log, tr)
                })
            })
            .collect();
        let writer_log = w.writer.then(|| {
            let mut tr = trace(1 + w.readers as u32);
            let log = writer(env, w.n, first_batch, t0, until, &mut tr);
            (log, tr)
        });
        let reader_logs: Vec<_> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (reader_logs, writer_log)
    });
    let window_s = t0.elapsed().as_secs_f64();
    let mut queries = Log::default();
    let mut traces = Vec::new();
    for (log, tr) in reader_logs {
        queries.lat_ms.extend(log.lat_ms);
        queries.attempted += log.attempted;
        queries.failed += log.failed;
        queries.errors.extend(log.errors);
        queries.kept.extend(log.kept);
        traces.push(tr);
    }
    let (inserts, wtr) = writer_log.unwrap_or_else(|| (Log::default(), Trace::off()));
    traces.push(wtr);
    let batches = first_batch + inserts.attempted as usize;
    Traffic {
        queries,
        inserts,
        window_s,
        traces,
        batches,
    }
}

/// The same spec through the library, on a pinned snapshot of the served
/// collection: `(pin time, run time, output)`.
fn lib_run(
    env: &Env,
    scratch: &mut QueryScratch<2>,
    sink: Option<&RecordingSink>,
    tr: &mut Trace,
) -> Res<(Duration, Duration, AnnOutput)> {
    tr.span("op", |tr| {
        let t = Instant::now();
        let ctx = tr
            .span("serve.registry.pin", |_| env.coll.pin(None))
            .map_err(|e| format!("pin: {}", e.message))?;
        let pin = t.elapsed();
        let mut req = env.spec.to_request();
        if let Some(sink) = sink {
            req = req.trace(sink);
        }
        let t = Instant::now();
        let out = tr
            .span("core.query.run_scratch", |_| {
                req.run_scratch(Input::Index(&ctx), Input::Index(&ctx), scratch)
            })
            .map_err(err("library query"))?;
        Ok((pin, t.elapsed(), out))
    })
}

/// Folds both logs into the report's counts and verifies the kept bodies by
/// brute force over the point prefix their version names.
fn account(w: &ServeWorkload, env: &Env, t: &Traffic, rep: &mut Report) {
    rep.attempted += t.queries.attempted + t.inserts.attempted;
    rep.failed += t.queries.failed + t.inserts.failed;
    for e in t.queries.errors.iter().chain(&t.inserts.errors) {
        rep.fail(e.clone());
    }
    for body in &t.queries.kept {
        let verified = QueryOutcome::from_json(body)
            .map_err(err("decoding a kept response"))
            .and_then(|o| {
                let version = o.version.ok_or("kept response has no version")?;
                let n = w.n + (version - env.v0) as usize;
                check::brute_force(&env.points[..n], w.k, &o.results, 0..n)
            });
        if let Err(e) = verified {
            rep.failed += 1;
            rep.fail(e);
        }
    }
}

pub fn run(w: &ServeWorkload, args: &RunArgs) -> Report {
    let mut rep = Report::default();
    let ran = if args.trace {
        traced(w, args, &mut rep)
    } else {
        timed(w, args, &mut rep)
    };
    if let Err(e) = ran {
        rep.fail(e);
    }
    rep
}

/// The library's pairs for the workload's spec, as the wire renders them,
/// after the benchmark's own brute force has confirmed them.
fn expected_pairs(w: &ServeWorkload, env: &Env) -> Res<String> {
    let (_, _, out) = lib_run(env, &mut QueryScratch::new(), None, &mut Trace::off())?;
    check::brute_force(&env.points[..w.n], w.k, &out.results, 0..w.n)?;
    let json = QueryOutcome::from(out).to_json();
    Ok(pairs_section(&json)
        .ok_or("no pairs in the library outcome")?
        .to_string())
}

fn timed(w: &ServeWorkload, args: &RunArgs, rep: &mut Report) -> Res<()> {
    let mut setups = Vec::new();
    let mut env = None;
    for i in 0..SETUP_REPS {
        drop(env.take());
        let t = Instant::now();
        env = Some(set_up(w, args, i)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let env = env.expect("SETUP_REPS > 0");
    let pairs = if w.writer {
        None
    } else {
        Some(expected_pairs(w, &env)?)
    };
    let expect = Expect {
        k: w.k,
        n0: w.n,
        v0: env.v0,
        pairs: pairs.as_deref(),
    };
    let t = traffic(w, &env, &expect, args.seconds, 0, None);
    let log = &t.queries;
    rep.set("setup_s", median(&setups));
    rep.set_n("op_p50_ms", median(&log.lat_ms), log.lat_ms.len());
    rep.set_n(
        "ops_per_s",
        log.lat_ms.len() as f64 / t.window_s,
        log.lat_ms.len(),
    );
    rep.set("peak_rss_mb", peak_rss_mb());
    account(w, &env, &t, rep);
    Ok(())
}

/// The traced pass: a window of untraced traffic, a window of traced traffic
/// (`?trace=1`, spans around every client call), then the per-layer probes.
fn traced(w: &ServeWorkload, args: &RunArgs, rep: &mut Report) -> Res<()> {
    let epoch = Instant::now();
    let mut tr = Trace::on(epoch, 0);
    let env = tr.span("setup", |_| set_up(w, args, 0))?;
    let expect = Expect {
        k: w.k,
        n0: w.n,
        v0: env.v0,
        pairs: None,
    };
    // The library's share of a request: the same spec on a pinned snapshot,
    // before and after the untraced window, because the writer's inserts
    // make the collection, and with it the join, grow through the window.
    let mut scratch = QueryScratch::new();
    let (mut pins, mut runs) = (Vec::new(), Vec::new());
    let mut sample_lib = |tr: &mut Trace| -> Res<()> {
        for _ in 0..5 {
            let (pin, run, _) = lib_run(&env, &mut scratch, None, tr)?;
            pins.push(us(pin));
            runs.push(ms(pin + run));
        }
        Ok(())
    };
    sample_lib(&mut tr)?;
    let plain = traffic(w, &env, &expect, args.seconds / 2, 0, None);
    sample_lib(&mut tr)?;
    let lib_equiv = (median(&runs[..5]) + median(&runs[5..])) / 2.0;
    let spanned = traffic(
        w,
        &env,
        &expect,
        args.seconds / 4,
        plain.batches,
        Some(epoch),
    );
    account(w, &env, &plain, rep);
    account(w, &env, &spanned, rep);

    let query_p50 = median(&plain.queries.lat_ms);
    rep.set_n(
        "serve.http.query_p50_ms",
        query_p50,
        plain.queries.lat_ms.len(),
    );
    rep.set(
        "serve.http.query_p90_ms",
        tail(&plain.queries.lat_ms, 0.90).unwrap_or(0.0),
    );
    rep.set_n(
        "serve.http.insert_p50_ms",
        median(&plain.inserts.lat_ms),
        plain.inserts.lat_ms.len(),
    );
    rep.set("serve.loadgen.lateness_ms", median(&plain.inserts.late_ms));
    rep.set(
        "trace.overhead_pct",
        (median(&spanned.queries.lat_ms) / query_p50 - 1.0) * 100.0,
    );
    rep.set(
        "serve.registry.versions_committed",
        f64::from(env.coll.latest_version().unwrap_or(env.v0) - env.v0),
    );
    let metrics = env.server().metrics();
    rep.set(
        "serve.server.reported_p50_ms",
        metrics.latency_quantile_us(0.5) as f64 / 1e3,
    );
    rep.set(
        "serve.server.rejected",
        metrics.rejected.load(Ordering::Relaxed) as f64,
    );

    // GET /health: accept, parse, route and write with no query behind it.
    let mut conn = Conn::connect(&env.addr).map_err(err("connecting"))?;
    let mut rtt = Vec::new();
    for _ in 0..30 {
        let t = Instant::now();
        let resp = tr
            .span("serve.http.health", |_| conn.request("GET", "/health", ""))
            .map_err(err("GET /health"))?;
        rtt.push(us(t.elapsed()));
        if resp.status != 200 {
            rep.fail(format!("/health answered {}", resp.status));
        }
    }
    rep.set_n("serve.http.health_rtt_us", median(&rtt), rtt.len());

    rep.set_n("serve.registry.pin_us", median(&pins), pins.len());
    rep.set_n("serve.server.lib_equiv_ms", lib_equiv, runs.len());
    rep.set("serve.server.overhead_ms", query_p50 - lib_equiv);

    let cache = env
        .coll
        .versioned_handle()
        .ok_or("collection is not versioned")?
        .cache();
    if w.writer {
        // A query that follows a commit reads a version the node cache has
        // not seen; commit one so the counts below describe that query.
        env.coll
            .insert_points(&[env.points[0].1])
            .map_err(|e| format!("insert_points: {}", e.message))?;
    }
    let before = cache.stats();
    let sink = RecordingSink::new();
    let (_, took, out) = lib_run(&env, &mut scratch, Some(&sink), &mut tr)?;
    let after = cache.stats();
    let (hits, misses) = (
        (after.hits - before.hits) as f64,
        (after.misses - before.misses) as f64,
    );
    let join_phase = layers::join_phase_s(&sink);
    layers::join_counts(&out.stats, env.coll.num_points() as f64, rep);
    rep.set("core.mba.join_phase_s", join_phase);
    rep.set("core.query.overhead_ms", ms(took) - join_phase * 1e3);
    rep.set("core.node_cache.hit_rate", hits / (hits + misses).max(1.0));
    rep.set("core.node_cache.misses_per_join", misses);
    let pairs = out.results.len().max(1) as f64;
    let outcome = QueryOutcome::from(out.clone()).with_version(env.v0);
    layers::sort(out, args.seed, rep, &mut tr);

    // Wire: the outcome the server would send for that run, and the spec.
    let mut json = String::new();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        json = tr.span("core.wire.encode", |_| outcome.to_json());
        enc.push(us(t.elapsed()) / pairs);
        let t = Instant::now();
        tr.span("core.wire.decode", |_| QueryOutcome::from_json(&json))
            .map_err(err("decoding the outcome"))?;
        dec.push(us(t.elapsed()) / pairs);
    }
    rep.set("core.wire.encode_us_per_pair", median(&enc));
    rep.set("core.wire.decode_us_per_pair", median(&dec));
    rep.set("core.wire.bytes_per_pair", json.len() as f64 / pairs);
    let spec_json = env.spec.to_json();
    let mut parse = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        QuerySpec::from_json(&spec_json).map_err(err("parsing the spec"))?;
        parse.push(us(t.elapsed()));
    }
    rep.set_n("core.wire.spec_parse_us", median(&parse), parse.len());

    // Registry: create, then single-point inserts, in process.
    let initial: Vec<Point<2>> = env.points[..w.n].iter().map(|(_, p)| *p).collect();
    let probe_id = CollectionId::new("probe").map_err(err("collection id"))?;
    let t = Instant::now();
    let probe = tr
        .span("serve.registry.create", |_| {
            env.server()
                .registry()
                .create(&probe_id, IndexKind::Mbrqt, &initial)
        })
        .map_err(|e| format!("registry.create: {}", e.message))?;
    rep.set("serve.registry.create_ms", ms(t.elapsed()));
    let mut ins = Vec::new();
    for p in initial.iter().take(32) {
        let t = Instant::now();
        tr.span("serve.registry.insert_points", |_| {
            probe.insert_points(&[*p])
        })
        .map_err(|e| format!("insert_points: {}", e.message))?;
        ins.push(us(t.elapsed()));
    }
    rep.set_n(
        "serve.registry.insert_us_per_point",
        median(&ins),
        ins.len(),
    );

    // The layers below the server, on a snapshot of the served tree.
    let ctx = env
        .coll
        .pin(None)
        .map_err(|e| format!("pin: {}", e.message))?;
    rep.set("mbrqt.pages", f64::from(env.coll.pool.num_pages()));
    rep.set(
        "mbrqt.points_per_leaf",
        layers::points_per_leaf(&ctx).map_err(err("validate"))?,
    );
    let nodes = layers::decode_all(&ctx).map_err(err("walking the snapshot"))?;
    let pages: Vec<_> = nodes.iter().map(|(p, _)| *p).collect();
    layers::geom(&nodes, rep, &mut tr).map_err(err("kernel probe"))?;
    layers::pool(ctx.snapshot(), &env.coll.pool, &pages, rep, &mut tr)
        .map_err(err("pool probe"))?;
    layers::decode(&ctx, &pages, rep, &mut tr).map_err(err("decode probe"))?;
    layers::mbrqt_insert(
        &env.points[..w.n],
        &args.tmp.join("insert.db"),
        rep,
        &mut tr,
    )
    .map_err(err("insert probe"))?;
    rep.set("host.cores", crate::host_cores() as f64);
    rep.set("core.par.threads", args.threads as f64);

    let mut traces = vec![tr];
    traces.extend(spanned.traces);
    crate::finish_trace(args, traces, rep);
    Ok(())
}
