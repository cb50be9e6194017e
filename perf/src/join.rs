//! The in-process join workloads: an all-kNN self-join through
//! `AnnRequest::run_scratch`. The timed op is the serial MBA join; the traced
//! pass also runs the parallel MBA and BNN paths over the same points.

use crate::check;
use crate::gen;
use crate::layers;
use crate::measure::{median, ms, peak_rss_mb, HostSpeed, Report};
use crate::trace::Trace;
use crate::{err, Res, RunArgs};
use ann_core::prelude::*;
use ann_core::query::NoIndex;
use ann_core::QueryScratch;
use ann_geom::Point;
use ann_gorder::{gorder_join, GorderConfig};
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_rstar::{RStar, RStarConfig};
use ann_store::{BufferPool, FileDisk, PageId};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A join path over the workload's points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// MBA over one MBRQT, serial.
    Serial,
    /// MBA over one MBRQT, `threads(T)`.
    Par,
    /// BNN: plain query points over an R*-tree.
    Bnn,
}

pub struct JoinWorkload {
    pub dims: usize,
    pub n: usize,
    pub k: usize,
    /// Buffer-pool frames shared by both trees.
    pub frames: usize,
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `peak_rss_mb` is read after this many timed joins: the process's
/// high-water mark still climbs ~10 MiB with every 10-D join (157 MiB after 7,
/// from 63 MiB after the set-ups), so it is only comparable at a fixed count.
const RSS_AFTER_OPS: usize = 5;
/// Query points checked against brute force.
const BRUTE_SAMPLE: usize = 2000;

type Points<const D: usize> = Vec<(u64, Point<D>)>;

/// Generated points, one file-backed pool, and the trees built over it so
/// far. A tree is built on the first op that needs it, so a set-up pays only
/// for the MBRQT the timed op reads and the R*-tree is built untimed.
struct Env<const D: usize> {
    points: Points<D>,
    pool: Arc<BufferPool>,
    mbrqt: Option<Mbrqt<D>>,
    rstar: Option<RStar<D>>,
    scratch: QueryScratch<D>,
    mbrqt_build: Duration,
    rstar_build: Duration,
    mbrqt_pages: PageId,
    rstar_pages: PageId,
}

impl<const D: usize> Env<D> {
    fn new(w: &JoinWorkload, points: Points<D>, file: &Path) -> Res<Self> {
        let disk = FileDisk::create(file).map_err(err("creating the index file"))?;
        Ok(Env {
            points,
            pool: Arc::new(BufferPool::new(disk, w.frames)),
            mbrqt: None,
            rstar: None,
            scratch: QueryScratch::new(),
            mbrqt_build: Duration::ZERO,
            rstar_build: Duration::ZERO,
            mbrqt_pages: 0,
            rstar_pages: 0,
        })
    }

    fn build(&mut self, kind: Kind) -> Res<()> {
        let t = Instant::now();
        let before = self.pool.num_pages();
        if kind == Kind::Bnn {
            if self.rstar.is_none() {
                let tree = RStar::bulk_build(
                    Arc::clone(&self.pool),
                    &self.points,
                    &RStarConfig::default(),
                )
                .map_err(err("R*-tree build"))?;
                self.rstar = Some(tree);
                self.rstar_build = t.elapsed();
                self.rstar_pages = self.pool.num_pages() - before;
            }
        } else if self.mbrqt.is_none() {
            let tree = Mbrqt::bulk_build(
                Arc::clone(&self.pool),
                &self.points,
                &MbrqtConfig::default(),
            )
            .map_err(err("MBRQT build"))?;
            self.mbrqt = Some(tree);
            self.mbrqt_build = t.elapsed();
            self.mbrqt_pages = self.pool.num_pages() - before;
        }
        Ok(())
    }

    /// One self-join of `kind`, in canonical order.
    fn op(
        &mut self,
        w: &JoinWorkload,
        kind: Kind,
        threads: usize,
        sink: Option<&RecordingSink>,
    ) -> Res<AnnOutput> {
        self.build(kind)?;
        let algorithm = if kind == Kind::Bnn {
            Algorithm::bnn()
        } else {
            Algorithm::mba()
        };
        let mut req = AnnRequest::new(algorithm).k(w.k).exclude_self(true);
        if kind == Kind::Par {
            req = req.threads(threads);
        }
        if let Some(sink) = sink {
            req = req.trace(sink);
        }
        let ran = match (&self.mbrqt, &self.rstar, kind) {
            (_, Some(tree), Kind::Bnn) => req.run_scratch(
                Input::<D, NoIndex>::Points(&self.points),
                Input::Index(tree),
                &mut self.scratch,
            ),
            (Some(tree), _, _) => {
                req.run_scratch(Input::Index(tree), Input::Index(tree), &mut self.scratch)
            }
            _ => unreachable!("build() made the tree this kind needs"),
        };
        ran.map_err(err("join"))
    }
}

fn set_up<const D: usize>(
    w: &JoinWorkload,
    args: &RunArgs,
    generate: fn(usize, u64) -> Points<D>,
    rep: usize,
) -> Res<Env<D>> {
    let file = args.tmp.join(format!("index-{rep}.db"));
    let mut env = Env::new(w, generate(w.n, args.seed), &file)?;
    // One warm-up join: decoded-node caches and pool reach the state every
    // timed op then starts from.
    env.op(w, Kind::Serial, args.threads, None)?;
    Ok(env)
}

pub fn run(w: &JoinWorkload, args: &RunArgs) -> Report {
    let mut rep = Report::default();
    let ran = match (w.dims, args.trace) {
        (2, false) => timed::<2>(w, args, gen::tac_like, &mut rep),
        (2, true) => traced::<2>(w, args, gen::tac_like, &mut rep),
        (10, false) => timed::<10>(w, args, gen::fc_like, &mut rep),
        (10, true) => traced::<10>(w, args, gen::fc_like, &mut rep),
        (d, _) => Err(format!("no generator for {d} dimensions")),
    };
    if let Err(e) = ran {
        rep.fail(e);
    }
    rep
}

fn timed<const D: usize>(
    w: &JoinWorkload,
    args: &RunArgs,
    generate: fn(usize, u64) -> Points<D>,
    rep: &mut Report,
) -> Res<()> {
    // Set-up and join both run on this thread, so both are quoted at the
    // calibrated host speed (see `HostSpeed`); the wall medians are printed
    // beside them.
    let mut host = HostSpeed::new();
    let mut setups = Vec::new();
    let mut env = None;
    for i in 0..SETUP_REPS {
        drop(env.take());
        let (made, _, took) = host.time(|| set_up::<D>(w, args, generate, i));
        env = Some(made?);
        setups.push(took.as_secs_f64());
    }
    let mut env = env.expect("SETUP_REPS > 0");

    // Closed loop, one op in flight. Each output is compared with the first
    // between timed intervals; the first is verified after the loop.
    let mut lat = Vec::new();
    let mut wall = Vec::new();
    let mut rss = None;
    let mut reference: Option<AnnOutput> = None;
    let started = Instant::now();
    while started.elapsed() < args.seconds {
        rep.attempted += 1;
        let (out, raw, took) = host.time(|| env.op(w, Kind::Serial, args.threads, None));
        wall.push(ms(raw));
        if wall.len() == RSS_AFTER_OPS {
            rss = Some(peak_rss_mb());
        }
        match (out, &reference) {
            (Err(e), _) => {
                rep.failed += 1;
                rep.fail(e);
            }
            (Ok(out), None) => {
                lat.push(ms(took));
                reference = Some(out);
            }
            (Ok(out), Some(first)) => {
                lat.push(ms(took));
                if out.results != first.results {
                    rep.failed += 1;
                }
            }
        }
    }
    println!("wall op_p50_ms {}", median(&wall));
    rep.set("setup_s", median(&setups));
    rep.set_n("op_p50_ms", median(&lat), lat.len());
    rep.set_n(
        "ops_per_s",
        lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3),
        lat.len(),
    );
    rep.set("peak_rss_mb", rss.unwrap_or_else(peak_rss_mb));

    // Every timed op returned the reference's pairs, so its verdict is theirs:
    // brute force on a sample, and the two other join paths byte for byte.
    let reference = reference.ok_or("no join completed")?;
    let rows = check::sample(w.n, BRUTE_SAMPLE, args.seed);
    let verified = check::brute_force(&env.points, w.k, &reference.results, rows).and_then(|()| {
        for other in [Kind::Par, Kind::Bnn] {
            if env.op(w, other, args.threads, None)?.results != reference.results {
                return Err(format!("serial MBA and {other:?} outputs differ"));
            }
        }
        Ok(())
    });
    if let Err(e) = verified {
        rep.failed = rep.attempted;
        rep.fail(e);
    }
    Ok(())
}

/// The traced pass: the serial join alternately untraced and traced, then
/// the parallel and BNN paths and GORDER, then the per-layer probes.
fn traced<const D: usize>(
    w: &JoinWorkload,
    args: &RunArgs,
    generate: fn(usize, u64) -> Points<D>,
    rep: &mut Report,
) -> Res<()> {
    let mut tr = Trace::on(Instant::now(), 0);
    let mut env = tr.span("setup", |_| set_up::<D>(w, args, generate, 0))?;
    let n = w.n as f64;
    // One join of `kind` with the library's RecordingSink attached, inside
    // benchmark-side spans: `(output, its wall ms, its join-phase seconds)`.
    let spanned = |env: &mut Env<D>, kind: Kind, tr: &mut Trace| -> Res<(AnnOutput, f64, f64)> {
        let sink = RecordingSink::new();
        let t = Instant::now();
        let out = tr.span("op", |tr| {
            tr.span("core.query.run_scratch", |_| {
                env.op(w, kind, args.threads, Some(&sink))
            })
        })?;
        let took = ms(t.elapsed());
        if sink.open_spans() != 0 {
            return Err("the library's RecordingSink has open spans after a join".into());
        }
        Ok((out, took, layers::join_phase_s(&sink)))
    };
    let plain = |env: &mut Env<D>, kind: Kind| -> Res<f64> {
        let t = Instant::now();
        env.op(w, kind, args.threads, None)?;
        Ok(ms(t.elapsed()))
    };

    let (mut serial_ms, mut serial_traced_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    let started = Instant::now();
    while serial_ms.len() < 2 || started.elapsed() < args.seconds / 2 {
        serial_ms.push(plain(&mut env, Kind::Serial)?);
        let cache = env_cache(&env);
        let (out, took, join_s) = spanned(&mut env, Kind::Serial, &mut tr)?;
        let (hits, misses) = env_cache(&env);
        serial_traced_ms.push(took);
        rep.attempted += 1;
        last = Some((out, took, join_s, hits - cache.0, misses - cache.1));
    }
    let (serial, took, join_s, hits, misses) = last.expect("the loop ran at least twice");
    layers::join_counts(&serial.stats, n, rep);
    rep.set(
        "core.node_cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    rep.set("core.node_cache.misses_per_join", misses as f64);
    rep.set("core.mba.join_phase_s", join_s);
    rep.set("core.query.overhead_ms", took - join_s * 1e3);
    rep.set(
        "trace.overhead_pct",
        (median(&serial_traced_ms) / median(&serial_ms) - 1.0) * 100.0,
    );

    // The other two join paths: twice untraced for their time, once traced
    // for their counts.
    let par_ms = [plain(&mut env, Kind::Par)?, plain(&mut env, Kind::Par)?];
    let (par, _, _) = spanned(&mut env, Kind::Par, &mut tr)?;
    let bnn_ms = [plain(&mut env, Kind::Bnn)?, plain(&mut env, Kind::Bnn)?];
    let (bnn, _, _) = spanned(&mut env, Kind::Bnn, &mut tr)?;
    rep.attempted += 2;
    if serial.results != par.results || serial.results != bnn.results {
        rep.failed += 2;
        rep.fail("serial MBA, parallel MBA and BNN outputs differ");
    }
    let speedup = median(&serial_ms) / median(&par_ms);
    rep.set_n("core.par.join_ms", median(&par_ms), par_ms.len());
    rep.set("core.par.speedup", speedup);
    rep.set("core.par.efficiency", speedup / args.threads as f64);
    rep.set("core.par.threads", args.threads as f64);
    rep.set("host.cores", crate::host_cores() as f64);
    rep.set(
        "store.lock_contention_per_join",
        par.stats.io.lock_contention as f64,
    );
    rep.set_n("core.bnn.join_ms", median(&bnn_ms), bnn_ms.len());
    rep.set(
        "core.bnn.dist_comps_per_point",
        bnn.stats.distance_computations as f64 / n,
    );
    rep.set("core.bnn.enqueued_per_point", bnn.stats.enqueued as f64 / n);

    layers::sort(serial, args.seed, rep, &mut tr);

    let cfg = GorderConfig {
        k: w.k,
        exclude_self: true,
        ..GorderConfig::default()
    };
    let t = Instant::now();
    let gorder = tr
        .span("gorder.join", |_| {
            gorder_join(&env.points, &env.points, Arc::clone(&env.pool), &cfg)
        })
        .map_err(err("GORDER join"))?;
    rep.set("gorder.join_s", t.elapsed().as_secs_f64());
    rep.set(
        "gorder.dist_comps_per_point",
        gorder.stats.distance_computations as f64 / n,
    );

    rep.set("mbrqt.build_s", env.mbrqt_build.as_secs_f64());
    rep.set("rstar.build_s", env.rstar_build.as_secs_f64());
    rep.set("mbrqt.pages", f64::from(env.mbrqt_pages));
    rep.set("rstar.pages", f64::from(env.rstar_pages));
    let mbrqt = env.mbrqt.as_ref().expect("the serial join built it");
    rep.set(
        "mbrqt.points_per_leaf",
        layers::points_per_leaf(mbrqt).map_err(err("validate"))?,
    );
    let nodes = layers::decode_all(mbrqt).map_err(err("walking the MBRQT"))?;
    let pages: Vec<PageId> = nodes.iter().map(|(p, _)| *p).collect();
    layers::geom(&nodes, rep, &mut tr).map_err(err("kernel probe"))?;
    layers::pool(&*env.pool, &env.pool, &pages, rep, &mut tr).map_err(err("pool probe"))?;
    layers::decode(mbrqt, &pages, rep, &mut tr).map_err(err("decode probe"))?;
    layers::mbrqt_insert(&env.points, &args.tmp.join("insert.db"), rep, &mut tr)
        .map_err(err("insert probe"))?;

    crate::finish_trace(args, vec![tr], rep);
    Ok(())
}

/// `(hits, misses)` of the MBRQT's decoded-node cache.
fn env_cache<const D: usize>(env: &Env<D>) -> (u64, u64) {
    env.mbrqt
        .as_ref()
        .and_then(|t| t.node_cache())
        .map_or((0, 0), |c| {
            let s = c.stats();
            (s.hits, s.misses)
        })
}
