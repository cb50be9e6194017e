//! The benchmark's own exhaustive kNN, independent of the library's.

use crate::gen::Rng;
use ann_core::NeighborPair;
use ann_geom::Point;

/// `count` distinct positions in `0..n`, drawn from `seed`.
pub fn sample(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..n).collect();
    Rng::new(seed ^ 0xB5).shuffle(&mut rows);
    rows.truncate(count);
    rows
}

/// Checks `pairs` (the canonical-order output of a `k`-NN self-join of
/// `points`, self excluded, oids being positions) against exhaustive search
/// for the query points at `rows`: same neighbour, same distance bits, ties
/// broken by the smaller `s_oid`.
pub fn brute_force<const D: usize>(
    points: &[(u64, Point<D>)],
    k: usize,
    pairs: &[NeighborPair],
    rows: impl IntoIterator<Item = usize>,
) -> Result<(), String> {
    let n = points.len();
    if pairs.len() != n * k {
        return Err(format!("{} pairs, expected {}", pairs.len(), n * k));
    }
    let mut best: Vec<(f64, u64)> = Vec::with_capacity(k + 1);
    for r in rows {
        let (r_oid, rp) = points[r];
        best.clear();
        for &(s_oid, sp) in points {
            if s_oid == r_oid {
                continue;
            }
            let mut d2 = 0.0;
            for d in 0..D {
                let diff = rp.0[d] - sp.0[d];
                d2 += diff * diff;
            }
            if best.len() == k && (d2, s_oid) >= best[k - 1] {
                continue;
            }
            let at = best.partition_point(|b| *b < (d2, s_oid));
            best.insert(at, (d2, s_oid));
            best.truncate(k);
        }
        // Oids are positions, so the canonical order puts r's pairs here.
        for (j, &(d2, s_oid)) in best.iter().enumerate() {
            let got = pairs[r * k + j];
            let want = d2.sqrt();
            if got.r_oid != r_oid || got.s_oid != s_oid || got.dist.to_bits() != want.to_bits() {
                return Err(format!(
                    "brute force disagrees at r={r_oid} rank {j}: got ({}, {}, {}), \
                     want ({r_oid}, {s_oid}, {want})",
                    got.r_oid, got.s_oid, got.dist
                ));
            }
        }
    }
    Ok(())
}
