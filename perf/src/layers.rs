//! Per-layer probes shared by the join and serve workloads: each times one
//! public call of a layer, replayed over the workload's own index.

use crate::gen::Rng;
use crate::measure::{median, ms, us, Report};
use crate::trace::Trace;
use ann_core::index::validate;
use ann_core::{AnnOutput, AnnStats, DecodedNode, Entry, RecordingSink, SpatialIndex};
use ann_geom::kernels::{dist_sq_batch, min_min_dist_sq_batch, nxn_dist_sq_batch};
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_store::{BufferPool, FileDisk, PageId, PageStore, Result, DEFAULT_KEEP};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long each probe repeats its round; the median round is reported.
const PROBE_BUDGET: Duration = Duration::from_millis(40);
const MIN_ROUNDS: usize = 5;
/// Pages a pool probe touches: fewer than the 64-frame pool holds, so a
/// resident round never evicts.
const PROBE_PAGES: usize = 32;

/// Repeats `round` for [`PROBE_BUDGET`] and returns the median of the values
/// it yields (each a time per unit of work).
fn median_round(mut round: impl FnMut() -> Result<f64>) -> Result<f64> {
    let started = Instant::now();
    let mut vals = Vec::new();
    while vals.len() < MIN_ROUNDS || started.elapsed() < PROBE_BUDGET {
        vals.push(round()?);
    }
    Ok(median(&vals))
}

/// Every node of `index`, decoded, with the first page of each.
pub fn decode_all<const D: usize, I: SpatialIndex<D>>(
    index: &I,
) -> Result<Vec<(PageId, DecodedNode<D>)>> {
    let mut out = Vec::new();
    let mut stack = vec![index.root_page()];
    while let Some(page) = stack.pop() {
        let node = index.read_node(page)?;
        for e in &node.entries {
            if let Entry::Node(child) = e {
                stack.push(child.page);
            }
        }
        out.push((page, DecodedNode::new(node)));
    }
    Ok(out)
}

/// `geom.*`: the batched kernels over the index's own leaves and internal
/// nodes, every entry of a node taking its turn as the owner, which is the
/// leaf-pair and node-pair shape the joins spend their time in.
pub fn geom<const D: usize>(
    nodes: &[(PageId, DecodedNode<D>)],
    rep: &mut Report,
    tr: &mut Trace,
) -> Result<()> {
    let mut out = Vec::new();
    let dist = tr.span("geom.dist_sq_batch", |_| {
        median_round(|| {
            let t = Instant::now();
            let mut work = 0usize;
            for (_, node) in nodes {
                let Some(points) = node.leaf_points() else {
                    continue;
                };
                for i in 0..points.len {
                    dist_sq_batch(&points.point::<D>(i), &points, &mut out);
                    black_box(&out);
                }
                work += points.len * points.len;
            }
            Ok(t.elapsed().as_nanos() as f64 / work.max(1) as f64)
        })
    })?;
    rep.set("geom.dist_batch_ns_per_point", dist);

    let mut mbr_probe = |name: &'static str, nxn: bool, tr: &mut Trace| {
        tr.span(name, |_| {
            median_round(|| {
                let t = Instant::now();
                let mut work = 0usize;
                for (_, node) in nodes {
                    if node.is_leaf {
                        continue;
                    }
                    let mbrs = node.soa_mbrs();
                    for i in 0..mbrs.len {
                        let owner = mbrs.mbr::<D>(i);
                        if nxn {
                            nxn_dist_sq_batch(&owner, &mbrs, &mut out);
                        } else {
                            min_min_dist_sq_batch(&owner, &mbrs, &mut out);
                        }
                        black_box(&out);
                    }
                    work += mbrs.len * mbrs.len;
                }
                Ok(t.elapsed().as_nanos() as f64 / work.max(1) as f64)
            })
        })
    };
    let nxn = mbr_probe("geom.nxn_dist_sq_batch", true, tr)?;
    let minmin = mbr_probe("geom.min_min_dist_sq_batch", false, tr)?;
    rep.set("geom.nxn_batch_ns_per_mbr", nxn);
    rep.set("geom.minmin_batch_ns_per_mbr", minmin);
    Ok(())
}

/// `store.pool_hit_ns` / `store.pool_miss_us`: `with_page` on resident pages,
/// and on the same pages after `clear()` has emptied the pool.
pub fn pool<S: PageStore>(
    store: &S,
    pool: &BufferPool,
    pages: &[PageId],
    rep: &mut Report,
    tr: &mut Trace,
) -> Result<()> {
    let pages = &pages[..pages.len().min(PROBE_PAGES).min(pool.capacity() / 2)];
    let touch = |store: &S| -> Result<()> {
        for &p in pages {
            black_box(store.with_page(p, |b| b[0])?);
        }
        Ok(())
    };
    let miss = tr.span("store.pool.miss", |tr| {
        median_round(|| {
            tr.span("store.pool.clear", |_| pool.clear())?;
            let t = Instant::now();
            touch(store)?;
            Ok(us(t.elapsed()) / pages.len() as f64)
        })
    })?;
    let hit = tr.span("store.pool.hit", |_| {
        median_round(|| {
            let t = Instant::now();
            for _ in 0..64 {
                touch(store)?;
            }
            Ok(t.elapsed().as_nanos() as f64 / (64 * pages.len()) as f64)
        })
    })?;
    rep.set("store.pool_miss_us", miss);
    rep.set("store.pool_hit_ns", hit);
    Ok(())
}

/// `core.node.decode_us`: `read_node` plus the SoA mirror, pool resident.
pub fn decode<const D: usize, I: SpatialIndex<D>>(
    index: &I,
    pages: &[PageId],
    rep: &mut Report,
    tr: &mut Trace,
) -> Result<()> {
    let pages = &pages[..pages.len().min(PROBE_PAGES)];
    let v = tr.span("core.node.decode", |_| {
        median_round(|| {
            let t = Instant::now();
            for &p in pages {
                black_box(DecodedNode::new(index.read_node(p)?));
            }
            Ok(us(t.elapsed()) / pages.len() as f64)
        })
    })?;
    rep.set("core.node.decode_us", v);
    Ok(())
}

/// The counts one MBA join reports about itself: pruning quality, read apart
/// from kernel speed, and the pool traffic it caused.
pub fn join_counts(stats: &AnnStats, points: f64, rep: &mut Report) {
    rep.set(
        "core.mba.dist_comps_per_point",
        stats.distance_computations as f64 / points,
    );
    rep.set(
        "core.mba.enqueued_per_point",
        stats.enqueued as f64 / points,
    );
    rep.set(
        "core.mba.nodes_expanded_per_point",
        (stats.r_nodes_expanded + stats.s_nodes_expanded) as f64 / points,
    );
    rep.set(
        "core.mba.probe_prune_ratio",
        stats.pruned_on_probe as f64 / stats.entries_probed().max(1) as f64,
    );
    rep.set(
        "store.logical_reads_per_join",
        stats.io.logical_reads as f64,
    );
    rep.set(
        "store.physical_reads_per_join",
        stats.io.physical_reads as f64,
    );
    rep.set("store.evictions_per_join", stats.io.evictions as f64);
    rep.set("store.pool_hit_rate", stats.io.hit_rate());
}

/// `core.query.sort_ms`: the canonical sort of a seeded shuffle of a join's
/// result, which is what the query path pays after the traversal.
pub fn sort(mut out: AnnOutput, seed: u64, rep: &mut Report, tr: &mut Trace) {
    Rng::new(seed ^ 0x50).shuffle(&mut out.results);
    let t = Instant::now();
    tr.span("core.query.sort", |_| out.sort());
    rep.set("core.query.sort_ms", ms(t.elapsed()));
}

/// Seconds the library's own sink attributes to the `join` phase.
pub fn join_phase_s(sink: &RecordingSink) -> f64 {
    sink.report("join")
        .phases
        .iter()
        .find(|p| p.phase == "join")
        .map_or(0.0, |p| p.wall_seconds)
}

/// Objects per leaf, from the library's own structural validation.
pub fn points_per_leaf<const D: usize, I: SpatialIndex<D>>(index: &I) -> Result<f64> {
    let shape = validate(index)?;
    Ok(shape.objects as f64 / shape.leaves.max(1) as f64)
}

/// `mbrqt.insert_us`: versioned single-point inserts into a fresh tree over
/// `points`, each its own committed version as in the server.
pub fn mbrqt_insert<const D: usize>(
    points: &[(u64, Point<D>)],
    file: &Path,
    rep: &mut Report,
    tr: &mut Trace,
) -> Result<()> {
    const INSERTS: usize = 64;
    let pool = Arc::new(BufferPool::new(FileDisk::create(file)?, 256));
    let mut tree = Mbrqt::bulk_build(pool, points, &MbrqtConfig::default())?;
    tree.enable_versioning(DEFAULT_KEEP)?;
    let mut took = Vec::with_capacity(INSERTS);
    for i in 0..INSERTS {
        // A copy of an indexed point always lies inside the fixed universe.
        let (_, p) = points[i * points.len() / INSERTS];
        let oid = (points.len() + i) as u64;
        let t = Instant::now();
        tr.span("mbrqt.insert", |_| tree.insert(oid, p))?;
        took.push(us(t.elapsed()));
    }
    rep.set_n("mbrqt.insert_us", median(&took), took.len());
    Ok(())
}
