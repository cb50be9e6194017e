//! Batched distance kernels over structure-of-arrays (SoA) candidate sets.
//!
//! The ANN inner loops all have the same shape: one owner (a query point or
//! an LPQ owner MBR) scanned against *many* candidates (the entries of a
//! decoded node, the points of a grid cell). The scalar metrics in
//! [`crate::dist`] / [`crate::nxndist`] evaluate one candidate at a time
//! from array-of-structs entries; the kernels here take the candidates as
//! column-major slices ([`SoaPoints`] / [`SoaMbrs`]) and process them in
//! blocks of [`LANES`] with one accumulator per candidate.
//!
//! # The bit-identity contract
//!
//! Every kernel is **bit-identical** to its scalar counterpart: for every
//! candidate `i`, the produced `f64` has exactly the bits that
//! `min_min_dist_sq(m, &candidate_i)` (etc.) would produce. This holds by
//! construction, not by accident:
//!
//! * blocks are unrolled **across candidates**, never across dimensions —
//!   each candidate's accumulator sees its per-dimension contributions in
//!   the same `d = 0..D` order as the scalar loop, so IEEE-754 rounding is
//!   performed in the same sequence;
//! * each per-dimension contribution uses the exact same expression tree as
//!   the scalar metric (`(m.lo[d] - hi).max(lo - m.hi[d]).max(0.0)` for
//!   MINMINDIST, the Algorithm-1 endpoint/midpoint evaluation for NXNDIST,
//!   ...), so the individual contributions are bit-equal too;
//! * [`dist_sq_batch`] and [`min_min_dist_sq_batch`] — the kernels every
//!   node scan runs — keep their block remainders in the lane loop; the
//!   other MBR kernels fall back to the scalar functions on a gathered
//!   [`Mbr`], which is trivially identical.

use crate::{Mbr, Point};

/// Candidates processed per unrolled block. Sixteen independent `f64`
/// accumulators fill four 256-bit vector registers, and a 16-wide block
/// amortizes the per-block slice checks far enough that they disappear
/// from the profile; the value is a tuning knob, not a correctness
/// parameter (remainders are bit-equal to the scalar metrics either way).
pub const LANES: usize = 16;

/// A borrowed column-major view of `len` points: coordinate `d` of point
/// `i` lives at `cols[d * len + i]`.
#[derive(Clone, Copy, Debug)]
pub struct SoaPoints<'a> {
    /// Number of points.
    pub len: usize,
    /// Column-major coordinates, `D * len` long.
    pub cols: &'a [f64],
}

impl<'a> SoaPoints<'a> {
    /// Wraps column-major point coordinates.
    #[inline]
    pub fn new(len: usize, cols: &'a [f64]) -> Self {
        SoaPoints { len, cols }
    }

    /// Views the points as degenerate MBRs (`lo == hi` alias the same
    /// columns) — exactly how the scalar code treats objects via
    /// [`Mbr::from_point`].
    #[inline]
    pub fn as_mbrs(&self) -> SoaMbrs<'a> {
        SoaMbrs {
            len: self.len,
            lo: self.cols,
            hi: self.cols,
        }
    }

    /// Gathers point `i` back into AoS form.
    #[inline]
    pub fn point<const D: usize>(&self, i: usize) -> Point<D> {
        debug_assert_eq!(self.cols.len(), D * self.len);
        let mut c = [0.0; D];
        for d in 0..D {
            c[d] = self.cols[d * self.len + i];
        }
        Point(c)
    }
}

/// A borrowed column-major view of `len` MBRs: bound `d` of rectangle `i`
/// lives at `lo[d * len + i]` / `hi[d * len + i]`. Degenerate (point) MBRs
/// may alias `lo` and `hi` to the same slice.
#[derive(Clone, Copy, Debug)]
pub struct SoaMbrs<'a> {
    /// Number of rectangles.
    pub len: usize,
    /// Column-major lower bounds, `D * len` long.
    pub lo: &'a [f64],
    /// Column-major upper bounds, `D * len` long.
    pub hi: &'a [f64],
}

impl<'a> SoaMbrs<'a> {
    /// Wraps column-major MBR bounds.
    #[inline]
    pub fn new(len: usize, lo: &'a [f64], hi: &'a [f64]) -> Self {
        SoaMbrs { len, lo, hi }
    }

    /// Gathers rectangle `i` back into AoS form.
    #[inline]
    pub fn mbr<const D: usize>(&self, i: usize) -> Mbr<D> {
        debug_assert_eq!(self.lo.len(), D * self.len);
        debug_assert_eq!(self.hi.len(), D * self.len);
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for d in 0..D {
            lo[d] = self.lo[d * self.len + i];
            hi[d] = self.hi[d * self.len + i];
        }
        Mbr { lo, hi }
    }
}

#[inline]
fn prepare(out: &mut Vec<f64>, len: usize) {
    // Every kernel overwrites `out[0..len]` in full, so a warm buffer of
    // the right length needs no zero-fill pass — that pass would double
    // the memory traffic of the cheap kernels (D=2 DIST² writes 8 bytes
    // per candidate; zeroing first writes another 8).
    if out.len() != len {
        out.clear();
        out.resize(len, 0.0);
    }
}

/// Borrows the `LANES`-wide window of column `d` starting at candidate
/// `i` as a fixed-size array, hoisting the bounds check out of the
/// unrolled lane loops (an indexed `cols[base + l]` per lane defeats
/// autovectorization).
#[inline(always)]
fn lanes(cols: &[f64], base: usize) -> &[f64; LANES] {
    cols[base..base + LANES].try_into().expect("LANES window")
}

/// Batched [`Point::dist_sq`]: `out[i] = q.dist_sq(points[i])`, bit-exact.
///
/// No candidate is gathered back into a [`Point`]: the last `n % LANES`
/// candidates — all of them when `n < LANES`, and a 10-D leaf holds about a
/// dozen points — run the same lane loop over a narrower window, each
/// accumulator still seeing its terms in ascending `d` exactly like the
/// scalar loop.
pub fn dist_sq_batch<const D: usize>(q: &Point<D>, points: &SoaPoints<'_>, out: &mut Vec<f64>) {
    let n = points.len;
    debug_assert_eq!(points.cols.len(), D * n);
    prepare(out, n);
    let cols = points.cols;
    let mut i = 0;
    while i + LANES <= n {
        let mut acc = [0.0f64; LANES];
        for d in 0..D {
            let col = lanes(cols, d * n + i);
            for l in 0..LANES {
                // Same expression as the scalar loop in `Point::dist_sq`;
                // `q - p` vs `p - q` would also be bit-equal after
                // squaring, but there is no reason to differ at all.
                let diff = q.0[d] - col[l];
                acc[l] += diff * diff;
            }
        }
        out[i..i + LANES].copy_from_slice(&acc);
        i += LANES;
    }
    if i < n {
        let mut acc = [0.0f64; LANES];
        for d in 0..D {
            let col = &cols[d * n + i..(d + 1) * n];
            for (a, c) in acc.iter_mut().zip(col) {
                let diff = q.0[d] - c;
                *a += diff * diff;
            }
        }
        out[i..].copy_from_slice(&acc[..n - i]);
    }
}

/// Batched [`crate::min_min_dist_sq`]: `out[i] = MINMINDIST²(m, mbrs[i])`,
/// bit-exact.
///
/// Like [`dist_sq_batch`], it gathers no candidate back into an [`Mbr`]:
/// the last `n % LANES` run the lane loop over a narrower window. A 10-D
/// leaf holds about a dozen points, so every probe of one by a node owner
/// is such a remainder.
pub fn min_min_dist_sq_batch<const D: usize>(m: &Mbr<D>, mbrs: &SoaMbrs<'_>, out: &mut Vec<f64>) {
    let n = mbrs.len;
    debug_assert_eq!(mbrs.lo.len(), D * n);
    prepare(out, n);
    let mut i = 0;
    while i + LANES <= n {
        let mut acc = [0.0f64; LANES];
        for d in 0..D {
            let lo = lanes(mbrs.lo, d * n + i);
            let hi = lanes(mbrs.hi, d * n + i);
            for l in 0..LANES {
                let gap = (m.lo[d] - hi[l]).max(lo[l] - m.hi[d]).max(0.0);
                acc[l] += gap * gap;
            }
        }
        out[i..i + LANES].copy_from_slice(&acc);
        i += LANES;
    }
    if i < n {
        let mut acc = [0.0f64; LANES];
        for d in 0..D {
            let lo = &mbrs.lo[d * n + i..(d + 1) * n];
            let hi = &mbrs.hi[d * n + i..(d + 1) * n];
            for ((a, l), h) in acc.iter_mut().zip(lo).zip(hi) {
                let gap = (m.lo[d] - h).max(l - m.hi[d]).max(0.0);
                *a += gap * gap;
            }
        }
        out[i..].copy_from_slice(&acc[..n - i]);
    }
}

/// Batched [`crate::nxn_dist_sq`]: `out[i] = NXNDIST²(m, mbrs[i])`,
/// bit-exact — including the final `MINMINDIST` cancellation clamp.
pub fn nxn_dist_sq_batch<const D: usize>(m: &Mbr<D>, mbrs: &SoaMbrs<'_>, out: &mut Vec<f64>) {
    let n = mbrs.len;
    debug_assert_eq!(mbrs.lo.len(), D * n);
    prepare(out, n);
    let mut i = 0;
    while i + LANES <= n {
        // First pass (Algorithm 1 lines 3-5) per lane: S = Σ MAXDIST_d²,
        // fused with the cancellation floor Σ gap_d² (both read the same
        // columns, and each accumulator still sees its contributions in
        // ascending-d order, so both sums round exactly like their
        // scalar counterparts).
        let mut s = [0.0f64; LANES];
        let mut floor = [0.0f64; LANES];
        for d in 0..D {
            let lo = lanes(mbrs.lo, d * n + i);
            let hi = lanes(mbrs.hi, d * n + i);
            for l in 0..LANES {
                let md = (m.hi[d] - lo[l]).max(hi[l] - m.lo[d]);
                s[l] += md * md;
                let gap = (m.lo[d] - hi[l]).max(lo[l] - m.hi[d]).max(0.0);
                floor[l] += gap * gap;
            }
        }
        // Second pass (lines 6-9): swap each MAXDIST_d² for MAXMIN_d²,
        // keep the min. MAXDIST_d is recomputed from the same columns —
        // bit-equal to the first pass, and far cheaper than keeping a
        // D × LANES array of squares spilled across the block. The
        // midpoint test is written as a select so the lane loop stays
        // branchless.
        let mut min_s = s;
        for d in 0..D {
            let lo = lanes(mbrs.lo, d * n + i);
            let hi = lanes(mbrs.hi, d * n + i);
            let (lm, um) = (m.lo[d], m.hi[d]);
            for l in 0..LANES {
                let (ln, un) = (lo[l], hi[l]);
                let md = (um - ln).max(un - lm);
                let f = |p: f64| (p - ln).abs().min((p - un).abs());
                let ends = f(lm).max(f(um));
                let mid = 0.5 * (ln + un);
                let mm = if lm <= mid && mid <= um {
                    ends.max(f(mid))
                } else {
                    ends
                };
                min_s[l] = min_s[l].min(s[l] - md * md + mm * mm);
            }
        }
        // Cancellation clamp, exactly as the scalar NXNDIST applies it.
        let mut res = [0.0f64; LANES];
        for l in 0..LANES {
            res[l] = min_s[l].max(floor[l]);
        }
        out[i..i + LANES].copy_from_slice(&res);
        i += LANES;
    }
    while i < n {
        out[i] = crate::nxn_dist_sq(m, &mbrs.mbr::<D>(i));
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{min_min_dist_sq, min_min_dist_sq_within, nxn_dist_sq};
    use ann_datagen::Rng;

    /// Adversarial candidate set: large offsets (cancellation), coincident
    /// points, degenerate and fat boxes. Returns (lo, hi) columns.
    fn gen_mbrs<const D: usize>(rng: &mut Rng, n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut lo = vec![0.0; D * n];
        let mut hi = vec![0.0; D * n];
        for i in 0..n {
            let offset = match i % 4 {
                0 => 0.0,
                1 => 1e8,
                2 => -1e8,
                _ => 1e-8,
            };
            let degenerate = i % 3 == 0;
            for d in 0..D {
                let a = offset + rng.f64() * 10.0;
                let b = if degenerate { a } else { a + rng.f64() * 5.0 };
                lo[d * n + i] = a.min(b);
                hi[d * n + i] = a.max(b);
            }
        }
        (lo, hi)
    }

    fn gen_owner<const D: usize>(rng: &mut Rng) -> Mbr<D> {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for d in 0..D {
            let a = rng.f64() * 20.0 - 10.0;
            let b = a + rng.f64() * 8.0;
            lo[d] = a;
            hi[d] = b;
        }
        Mbr { lo, hi }
    }

    fn check_dims<const D: usize>(seed: u64) {
        let mut rng = Rng::new(seed);
        // Every split of `n` into full blocks and an in-loop tail, and a
        // run of whole blocks.
        for n in (0..=2 * LANES + 1).chain([64]) {
            let (lo, hi) = gen_mbrs::<D>(&mut rng, n);
            let mbrs = SoaMbrs::new(n, &lo, &hi);
            let m = gen_owner::<D>(&mut rng);
            let mut out = Vec::new();

            min_min_dist_sq_batch(&m, &mbrs, &mut out);
            for i in 0..n {
                let want = min_min_dist_sq(&m, &mbrs.mbr::<D>(i));
                assert_eq!(out[i].to_bits(), want.to_bits(), "minmin D={D} n={n} i={i}");
            }

            nxn_dist_sq_batch(&m, &mbrs, &mut out);
            for i in 0..n {
                let want = nxn_dist_sq(&m, &mbrs.mbr::<D>(i));
                assert_eq!(out[i].to_bits(), want.to_bits(), "nxn D={D} n={n} i={i}");
            }

            // The scalar early exit the scans run accepts exactly the
            // MINMINDISTs within the bound, bit-equal.
            for bound in [0.0, 1.0, 1e4, f64::INFINITY] {
                for i in 0..n {
                    let full = min_min_dist_sq(&m, &mbrs.mbr::<D>(i));
                    match min_min_dist_sq_within(&m, &mbrs.mbr::<D>(i), bound) {
                        Some(v) => {
                            assert!(full <= bound, "within D={D} n={n} i={i}");
                            assert_eq!(v.to_bits(), full.to_bits());
                        }
                        None => assert!(full > bound, "within D={D} n={n} i={i}"),
                    }
                }
            }

            // Point distances against the same columns viewed as points.
            let pts = SoaPoints::new(n, &lo);
            let q = Point(m.lo);
            let mut dout = Vec::new();
            dist_sq_batch(&q, &pts, &mut dout);
            for i in 0..n {
                let want = q.dist_sq(&pts.point::<D>(i));
                assert_eq!(dout[i].to_bits(), want.to_bits(), "dist D={D} n={n} i={i}");
            }
        }
    }

    #[test]
    fn bit_identical_to_scalar_d1() {
        check_dims::<1>(0xD1);
    }

    #[test]
    fn bit_identical_to_scalar_d2() {
        check_dims::<2>(0xD2);
    }

    #[test]
    fn bit_identical_to_scalar_d8() {
        check_dims::<8>(0xD8);
    }

    #[test]
    fn bit_identical_to_scalar_d10() {
        check_dims::<10>(0xDA);
    }

    #[test]
    fn point_view_matches_degenerate_mbrs() {
        let mut rng = Rng::new(7);
        let (cols, _) = gen_mbrs::<2>(&mut rng, 9);
        let pts = SoaPoints::new(9, &cols);
        let m = gen_owner::<2>(&mut rng);
        let mut a = Vec::new();
        let mut b = Vec::new();
        // dist_sq on a degenerate owner == min_min on point MBRs.
        let q = Point(m.lo);
        dist_sq_batch(&q, &pts, &mut a);
        min_min_dist_sq_batch(&Mbr::from_point(&q), &pts.as_mbrs(), &mut b);
        for i in 0..9 {
            assert_eq!(a[i].to_bits(), b[i].to_bits());
        }
    }

    /// The identity the exact point×leaf scan rests on: between two
    /// *points*, both upper-bound metrics and MINMINDIST are `dist_sq`,
    /// bit for bit — NXNDIST's cancellation clamp collapses onto the
    /// MINMINDIST sum, MAXMAXDIST adds the same `|q − p|²` terms in the
    /// same order — so a point owner can score a leaf with one kernel.
    fn check_point_pair_identity<const D: usize>(seed: u64) {
        use crate::{MaxMaxDist, NxnDist, PruneMetric};
        let mut rng = Rng::new(seed);
        let offsets = [0.0, 1e8, -1e8, 1e-8];
        for case in 0..256 {
            let mut q = [0.0; D];
            let mut p = [0.0; D];
            for d in 0..D {
                q[d] = offsets[case % 4] + rng.f64() * 10.0;
                p[d] = offsets[(case / 4) % 4] + rng.f64() * 10.0;
            }
            match case % 5 {
                // Coincident points.
                3 => p = q,
                // Equal coordinates in one dimension only.
                4 => p[case % D] = q[case % D],
                _ => {}
            }
            let (q, p) = (Point(q), Point(p));
            let (qm, pm) = (Mbr::from_point(&q), Mbr::from_point(&p));
            let want = q.dist_sq(&p).to_bits();
            for (name, got) in [
                ("minmin", min_min_dist_sq(&qm, &pm)),
                ("nxn", NxnDist::upper_sq(&qm, &pm)),
                ("maxmax", MaxMaxDist::upper_sq(&qm, &pm)),
            ] {
                assert_eq!(got.to_bits(), want, "{name} D={D} {q:?} {p:?}");
            }
        }
    }

    #[test]
    fn point_pair_metrics_equal_dist_sq_bitwise() {
        check_point_pair_identity::<1>(0xA1);
        check_point_pair_identity::<2>(0xA2);
        check_point_pair_identity::<8>(0xA8);
        check_point_pair_identity::<10>(0xAA);
    }

    /// Every split of `n` into full blocks and an in-loop tail.
    fn check_dist_tails<const D: usize>(seed: u64) {
        let mut rng = Rng::new(seed);
        let mut out = Vec::new();
        for n in 0..=2 * LANES + 1 {
            let (cols, _) = gen_mbrs::<D>(&mut rng, n);
            let pts = SoaPoints::new(n, &cols);
            let q = Point(gen_owner::<D>(&mut rng).lo);
            dist_sq_batch(&q, &pts, &mut out);
            assert_eq!(out.len(), n);
            for i in 0..n {
                let want = q.dist_sq(&pts.point::<D>(i));
                assert_eq!(out[i].to_bits(), want.to_bits(), "D={D} n={n} i={i}");
            }
        }
    }

    #[test]
    fn dist_sq_batch_tails_are_bit_identical() {
        check_dist_tails::<1>(0xB1);
        check_dist_tails::<2>(0xB2);
        check_dist_tails::<8>(0xB8);
        check_dist_tails::<10>(0xBA);
    }

    #[test]
    fn output_vec_capacity_is_reused() {
        let mut rng = Rng::new(11);
        let (lo, hi) = gen_mbrs::<2>(&mut rng, 64);
        let mbrs = SoaMbrs::new(64, &lo, &hi);
        let m = gen_owner::<2>(&mut rng);
        let mut out = Vec::with_capacity(64);
        min_min_dist_sq_batch(&m, &mbrs, &mut out);
        let cap = out.capacity();
        for _ in 0..10 {
            min_min_dist_sq_batch(&m, &mbrs, &mut out);
            assert_eq!(out.capacity(), cap);
        }
    }
}
