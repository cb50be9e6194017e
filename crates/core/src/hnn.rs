//! **HNN** — hash-based ANN over a spatial grid (Zhang et al. SSDBM 2004,
//! building on the PBSM partitioning of Patel & DeWitt).
//!
//! Neither input needs an index: the target set `S` is hashed into a
//! uniform grid whose cell edge is chosen so the average occupancy is a
//! small constant, and each query point searches its own cell and then
//! expanding Chebyshev "rings" of cells, stopping when the nearest
//! possible point of the next ring is farther than the current `k`-th
//! best candidate.
//!
//! Cell contents are stored structure-of-arrays (oids beside column-major
//! coordinates), so each visited cell feeds one
//! [`ann_geom::kernels::dist_sq_batch`] call instead of a pointer-chasing
//! scalar loop.
//!
//! The paper (§2) notes two weaknesses that this implementation makes
//! measurable rather than hides:
//!
//! * **skew** — a uniform grid puts thousands of points in hot cells, and
//!   ring pruning does not help within a cell;
//! * **dimensionality** — a ring at Chebyshev radius ρ contains
//!   `(2ρ+1)^D − (2ρ−1)^D` cells, which explodes with `D`, so HNN is only
//!   sensible in low dimensions.

#![allow(clippy::needless_range_loop)] // fixed-D kernels index 0..D

use crate::exec::{self, ExecCtx, Join, Spill};
use crate::morsel::{chunk_ranges, POINT_MORSEL};
use crate::resilience::QueryResult;
use crate::scratch::{self_join_room, KBestSet, QueryScratch};
use crate::stats::AnnOutput;
use crate::trace::{Phase, PruneReason};
use ann_geom::{kernels, Mbr, Point, SoaPoints};
use std::collections::HashMap;
use std::ops::Range;

/// One grid cell's points, structure-of-arrays.
struct CellSoa<const D: usize> {
    oids: Vec<u64>,
    /// Column-major: `coords[d * len + i]` is dimension `d` of point `i`.
    coords: Vec<f64>,
}

impl<const D: usize> CellSoa<D> {
    fn from_points(points: Vec<(u64, Point<D>)>) -> Self {
        let len = points.len();
        let mut oids = Vec::with_capacity(len);
        let mut coords = Vec::with_capacity(D * len);
        for d in 0..D {
            coords.extend(points.iter().map(|(_, p)| p[d]));
        }
        oids.extend(points.iter().map(|(oid, _)| *oid));
        CellSoa { oids, coords }
    }

    fn len(&self) -> usize {
        self.oids.len()
    }

    fn points(&self) -> SoaPoints<'_> {
        SoaPoints::new(self.oids.len(), &self.coords)
    }
}

struct Grid<const D: usize> {
    cells: HashMap<[i32; D], CellSoa<D>>,
    origin: [f64; D],
    cell_edge: f64,
    /// Componentwise bounds of the occupied cells.
    cell_lo: [i32; D],
    cell_hi: [i32; D],
}

impl<const D: usize> Grid<D> {
    fn build(s: &[(u64, Point<D>)], avg_occupancy: f64) -> Self {
        let bounds = Mbr::from_points(s.iter().map(|(_, p)| p));
        // Never more cells than points: an occupancy below one only
        // spreads `S` thinner, and a tiny one would ask for more cells
        // than a cell index can address.
        let cells_wanted = (s.len() as f64 / avg_occupancy)
            .min(s.len() as f64)
            .max(1.0);
        // Edge length so the grid has ≈ cells_wanted cells. Naively that
        // is (volume / cells_wanted)^(1/D), but flat or near-flat extents
        // (collinear data, duplicated coordinates) would drive the
        // geometric mean toward zero and explode the per-dimension cell
        // counts of the wide extents. Water-fill instead: find the prefix
        // of the largest extents whose edge swallows every smaller extent
        // in a single cell, so only genuinely wide dimensions are split.
        let mut ext: Vec<f64> = (0..D)
            .map(|d| bounds.extent(d))
            .filter(|e| *e > 0.0)
            .collect();
        ext.sort_by(|a, b| b.partial_cmp(a).expect("finite extents"));
        let mut cell_edge = 1.0; // all points coincident: one cell
        let mut prod = 1.0f64;
        for (j, &e) in ext.iter().enumerate() {
            prod *= e;
            let edge = (prod / cells_wanted).powf(1.0 / (j + 1) as f64);
            let next = ext.get(j + 1).copied().unwrap_or(0.0);
            if edge >= next {
                cell_edge = edge.max(1e-12);
                break;
            }
        }
        let mut grid = Grid {
            cells: HashMap::new(),
            origin: bounds.lo,
            cell_edge,
            cell_lo: [i32::MAX; D],
            cell_hi: [i32::MIN; D],
        };
        // Bucket row-wise first, then freeze each bucket into its SoA
        // layout (column-major layouts cannot grow a point at a time).
        let mut buckets: HashMap<[i32; D], Vec<(u64, Point<D>)>> = HashMap::new();
        for &(oid, p) in s {
            let c = grid.cell_of(&p);
            for d in 0..D {
                grid.cell_lo[d] = grid.cell_lo[d].min(c[d]);
                grid.cell_hi[d] = grid.cell_hi[d].max(c[d]);
            }
            buckets.entry(c).or_default().push((oid, p));
        }
        grid.cells = buckets
            .into_iter()
            .map(|(c, pts)| (c, CellSoa::from_points(pts)))
            .collect();
        grid
    }

    /// Chebyshev distance from `home` to the farthest occupied cell —
    /// rings beyond this are guaranteed empty.
    fn max_ring_from(&self, home: &[i32; D]) -> i32 {
        let mut reach = 0i32;
        for d in 0..D {
            reach = reach
                .max((home[d] - self.cell_lo[d]).abs())
                .max((self.cell_hi[d] - home[d]).abs());
        }
        reach
    }

    /// Chebyshev distance from `home` to the *nearest* occupied-box cell —
    /// all smaller rings are guaranteed empty, so the search starts here.
    fn min_ring_from(&self, home: &[i32; D]) -> i32 {
        let mut need = 0i32;
        for d in 0..D {
            if home[d] < self.cell_lo[d] {
                need = need.max(self.cell_lo[d] - home[d]);
            } else if home[d] > self.cell_hi[d] {
                need = need.max(home[d] - self.cell_hi[d]);
            }
        }
        need
    }

    fn cell_of(&self, p: &Point<D>) -> [i32; D] {
        let mut c = [0i32; D];
        for d in 0..D {
            c[d] = ((p[d] - self.origin[d]) / self.cell_edge).floor() as i32;
        }
        c
    }

    /// Visits every cell at Chebyshev distance exactly `ring` from `home`.
    fn for_ring(&self, home: &[i32; D], ring: i32, mut f: impl FnMut(&CellSoa<D>)) {
        let mut offset = [0i32; D];
        self.ring_rec(home, ring, 0, false, &mut offset, &mut f);
    }

    fn ring_rec(
        &self,
        home: &[i32; D],
        ring: i32,
        dim: usize,
        pinned: bool,
        offset: &mut [i32; D],
        f: &mut impl FnMut(&CellSoa<D>),
    ) {
        if dim == D {
            if !pinned {
                return; // interior cell: belongs to a smaller ring
            }
            let mut cell = *home;
            for d in 0..D {
                cell[d] += offset[d];
            }
            if let Some(points) = self.cells.get(&cell) {
                f(points);
            }
            return;
        }
        // Clip the offset range to the occupied cell box: rings mostly
        // outside the box would otherwise enumerate millions of empty
        // cells on skewed data.
        let lo = (-ring).max(self.cell_lo[dim] - home[dim]);
        let hi = ring.min(self.cell_hi[dim] - home[dim]);
        for o in lo..=hi {
            offset[dim] = o;
            self.ring_rec(home, ring, dim + 1, pinned || o.abs() == ring, offset, f);
        }
    }
}

/// One HNN join: both point sets, the grid over `S` and the request's
/// knobs. Shared read-only by every worker.
struct Hnn<'a, const D: usize> {
    r: &'a [(u64, Point<D>)],
    s: &'a [(u64, Point<D>)],
    grid: Grid<D>,
    k: usize,
    /// `k`, plus one in self-join mode.
    k_eff: usize,
    exclude_self: bool,
}

/// A worker's HNN state beside its scratch and output.
struct Local {
    /// Rings never visited, tallied while tracing.
    rings_cut: u64,
    /// The cell distance buffer, recycled across query points.
    dist_buf: Vec<f64>,
}

type Worker<'w, const D: usize> = exec::Worker<'w, D, Local>;

impl<const D: usize> Join<D> for Hnn<'_, D> {
    /// A slice of `R`. Each point's ring search touches only its own
    /// heap and buffers, so per-point results are independent of
    /// scheduling.
    type Morsel = Range<usize>;
    type Local = Local;

    fn local(&self, scratch: &mut QueryScratch<D>) -> Local {
        Local {
            rings_cut: 0,
            dist_buf: scratch.take_f64(),
        }
    }

    fn seeds(&self, _lead: &mut Worker<'_, D>) -> Vec<Range<usize>> {
        chunk_ranges(self.r.len(), POINT_MORSEL)
    }

    /// HNN performs no I/O, so an I/O budget never trips here;
    /// cancellation, deadlines and the visit budget are checked once per
    /// query point (the poolless analogue of one node expansion), and
    /// cancellation and deadlines again before every ring, so one point's
    /// search cannot outlive them.
    fn step(
        &self,
        w: &mut Worker<'_, D>,
        range: Range<usize>,
        _spill: &mut Spill<'_, Range<usize>>,
    ) -> QueryResult<()> {
        for &(r_oid, r_pt) in &self.r[range] {
            w.guard.tick()?;
            run_point(self, w, r_oid, r_pt)?;
        }
        Ok(())
    }

    fn retire(&self, w: Worker<'_, D>) -> AnnOutput {
        exec::emit_pruned(
            w.tracer,
            "euclidean",
            &[(PruneReason::RingCutoff, w.local.rings_cut)],
        );
        w.scratch.put_f64(w.local.dist_buf);
        w.out
    }
}

/// Evaluates AkNN without any index: spatial-hash `S` into a grid of
/// about `avg_cell_occupancy` points per cell, then ring-search per query
/// point, skipping same-oid pairs under `exclude_self`.
///
/// HNN reads no buffer pool; the interesting trace signals are the phase
/// wall times (grid build vs ring search) and the ring-cutoff prunes.
pub(crate) fn run<const D: usize>(
    ctx: ExecCtx<'_, D>,
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    k: usize,
    avg_cell_occupancy: f64,
    exclude_self: bool,
) -> QueryResult<AnnOutput> {
    assert!(avg_cell_occupancy > 0.0);
    let degenerate = k == 0 || r.is_empty() || s.is_empty();
    exec::drive(ctx, degenerate, |frame| {
        // One pass over `S`, shared read-only by every worker.
        let grid = frame.phase(Phase::Build, || Grid::build(s, avg_cell_occupancy));
        frame.join(&Hnn {
            r,
            s,
            grid,
            k,
            k_eff: self_join_room(k, exclude_self),
            exclude_self,
        })
    })
}

/// The ring search for one query point.
fn run_point<const D: usize>(
    join: &Hnn<'_, D>,
    w: &mut Worker<'_, D>,
    r_oid: u64,
    r_pt: Point<D>,
) -> QueryResult<()> {
    let (s, grid, k_eff) = (join.s, &join.grid, join.k_eff);
    let exec::Worker {
        tracer,
        guard,
        scratch,
        out,
        local: Local {
            rings_cut: rings_cut_total,
            dist_buf,
        },
        ..
    } = w;
    let home = grid.cell_of(&r_pt);
    let max_ring = grid.max_ring_from(&home);
    let mut best = KBestSet::new(k_eff, scratch.take_kbest());
    let mut ring = grid.min_ring_from(&home);
    let mut seen = 0usize;
    loop {
        // The nearest any point of ring ρ can be is (ρ-1) cell edges (the
        // query may sit on its own cell's boundary).
        let ring_min = (ring - 1).max(0) as f64 * grid.cell_edge;
        if ring_min * ring_min > best.bound_sq() {
            if tracer.enabled() && ring <= max_ring {
                // Rings `ring..=max_ring` are never visited.
                *rings_cut_total += (max_ring - ring + 1) as u64;
            }
            break;
        }
        guard.preflight()?;
        grid.for_ring(&home, ring, |cell| {
            seen += cell.len();
            // One kernel call per cell; an excluded self-pair's distance
            // lands in the buffer but is never offered or counted, exactly
            // like the scalar skip.
            kernels::dist_sq_batch(&r_pt, &cell.points(), dist_buf);
            for (i, &s_oid) in cell.oids.iter().enumerate() {
                if join.exclude_self && s_oid == r_oid {
                    continue;
                }
                out.stats.distance_computations += 1;
                best.offer(dist_buf[i], s_oid);
            }
        });
        ring += 1;
        // Beyond the farthest occupied cell every further ring is empty —
        // and once every point of S has been seen, no ring can add
        // candidates (`k_eff ≥ |S|` never yields a finite bound, so this
        // is the only cutoff that fires there).
        if ring > max_ring || seen >= s.len() {
            break;
        }
    }
    scratch.put_kbest(best.emit(r_oid, join.k, &mut out.results));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_aknn;
    use crate::query::{Algorithm, AnnRequest, Input, NoIndex};

    fn hnn(r: &[(u64, Point<2>)], s: &[(u64, Point<2>)], req: &AnnRequest<'_>) -> AnnOutput {
        req.run(
            Input::<2, NoIndex>::Points(r),
            Input::<2, NoIndex>::Points(s),
        )
        .unwrap()
    }

    fn pts(n: usize, seed: u64) -> Vec<(u64, Point<2>)> {
        // Simple LCG so this module needs no dev-deps.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| (i as u64, Point::new([next() * 100.0, next() * 100.0])))
            .collect()
    }

    fn check(r: &[(u64, Point<2>)], s: &[(u64, Point<2>)], req: &AnnRequest<'_>) {
        let got = hnn(r, s, req);
        let mut want = brute_force_aknn(r, s, req.spec.k, req.spec.exclude_self);
        want.sort_by(|a, b| {
            (a.r_oid, a.dist, a.s_oid)
                .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
                .unwrap()
        });
        assert_eq!(got.results.len(), want.len());
        for (g, w) in got.results.iter().zip(&want) {
            assert_eq!(g.r_oid, w.r_oid);
            assert!((g.dist - w.dist).abs() < 1e-9, "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn matches_brute_force() {
        let r = pts(500, 1);
        let s = pts(600, 2);
        check(&r, &s, &AnnRequest::new(Algorithm::hnn()));
    }

    #[test]
    fn matches_brute_force_k5_self_join() {
        let p = pts(400, 3);
        check(
            &p,
            &p,
            &AnnRequest::new(Algorithm::hnn()).k(5).exclude_self(true),
        );
    }

    #[test]
    fn skewed_data_still_exact() {
        // All of S crammed into one corner: the hot-cell weakness the
        // paper mentions — slow, but must stay exact.
        let r = pts(200, 4);
        let s: Vec<(u64, Point<2>)> = pts(500, 5)
            .into_iter()
            .map(|(o, p)| (o, Point::new([p[0] * 0.01, p[1] * 0.01])))
            .collect();
        check(&r, &s, &AnnRequest::new(Algorithm::hnn()));
    }

    #[test]
    fn k_exceeding_cardinality() {
        let r = pts(50, 6);
        let s = pts(5, 7);
        check(&r, &s, &AnnRequest::new(Algorithm::hnn()).k(20));
    }

    #[test]
    fn empty_inputs() {
        let p = pts(10, 8);
        let req = AnnRequest::new(Algorithm::hnn());
        assert!(hnn(&[], &p, &req).results.is_empty());
        assert!(hnn(&p, &[], &req).results.is_empty());
    }

    #[test]
    fn occupancy_knob_is_performance_only() {
        let r = pts(300, 9);
        let s = pts(300, 10);
        for occ in [1.0, 8.0, 64.0] {
            let alg = Algorithm::Hnn {
                avg_cell_occupancy: occ,
            };
            check(&r, &s, &AnnRequest::new(alg));
        }
    }
}
