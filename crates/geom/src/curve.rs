//! The Hilbert space-filling curve over `D`-dimensional grids.
//!
//! [`hilbert`] is the Hilbert curve via Skilling's transpose algorithm.
//! The BNN baseline uses it to form spatially-coherent groups of query
//! points.
//!
//! It operates on integer grid coordinates; [`GridMapper`] quantizes
//! floating-point points into such a grid over a dataset's bounding box.

use crate::{Mbr, Point};

/// Maximum bits per dimension so that a `D`-dimensional key fits in `u128`.
#[inline]
fn bits_for<const D: usize>() -> u32 {
    (128 / D as u32).min(21)
}

/// Quantizes points of a bounded region into an integer grid, for use with
/// the space-filling curves in this module.
#[derive(Clone, Debug)]
pub struct GridMapper<const D: usize> {
    bounds: Mbr<D>,
    /// Grid resolution in bits per dimension.
    bits: u32,
    scale: [f64; D],
}

impl<const D: usize> GridMapper<D> {
    /// Creates a mapper over `bounds` with the maximum resolution that still
    /// packs a full `D`-dimensional key into 128 bits (capped at 21 bits per
    /// dimension).
    pub fn new(bounds: Mbr<D>) -> Self {
        let bits = bits_for::<D>();
        let cells = (1u64 << bits) as f64;
        let mut scale = [0.0; D];
        for d in 0..D {
            let ext = bounds.hi[d] - bounds.lo[d];
            scale[d] = if ext > 0.0 { cells / ext } else { 0.0 };
        }
        GridMapper {
            bounds,
            bits,
            scale,
        }
    }

    /// Grid resolution in bits per dimension.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Quantizes `p` into grid cell coordinates (clamped to the grid).
    #[inline]
    pub fn cell(&self, p: &Point<D>) -> [u32; D] {
        let max_cell = (1u64 << self.bits) - 1;
        let mut out = [0u32; D];
        for d in 0..D {
            let v = ((p.0[d] - self.bounds.lo[d]) * self.scale[d]) as i64;
            out[d] = v.clamp(0, max_cell as i64) as u32;
        }
        out
    }

    /// The Hilbert key of `p`.
    #[inline]
    pub fn hilbert_key(&self, p: &Point<D>) -> u128 {
        hilbert(&self.cell(p), self.bits)
    }
}

/// The Hilbert-curve index of a grid cell, via Skilling's transpose
/// algorithm (AIP Conf. Proc. 707, 2004).
///
/// Takes `D` coordinates of `bits` bits each and returns the scalar curve
/// position in `[0, 2^(D*bits))`. Distinct cells map to distinct positions
/// (the curve is a bijection), and curve-adjacent positions are always
/// grid-adjacent cells — the locality property that makes Hilbert grouping
/// effective.
pub fn hilbert<const D: usize>(cell: &[u32; D], bits: u32) -> u128 {
    debug_assert!(bits as usize * D <= 128 && bits <= 31);
    let mut x = *cell;

    // --- Skilling's AxestoTranspose ---
    let m = 1u32 << (bits - 1);
    // Inverse undo of the Gray-code rotation.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..D {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of x[0]
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..D {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    q = m;
    while q > 1 {
        if x[D - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }

    // x now holds the "transposed" index; interleave into a scalar with
    // x[0] contributing the most significant bit of each group.
    let mut key = 0u128;
    for b in (0..bits).rev() {
        for &xi in x.iter() {
            key = (key << 1) | u128::from((xi >> b) & 1);
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_is_a_bijection_on_small_grids() {
        // 2-D, 4 bits: all 256 cells map to distinct keys covering 0..256.
        let mut keys = vec![];
        for x in 0..16u32 {
            for y in 0..16u32 {
                keys.push(hilbert(&[x, y], 4));
            }
        }
        keys.sort_unstable();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(*k, i as u128);
        }
    }

    #[test]
    fn hilbert_is_a_bijection_in_3d() {
        let mut keys = vec![];
        for x in 0..8u32 {
            for y in 0..8u32 {
                for z in 0..8u32 {
                    keys.push(hilbert(&[x, y, z], 3));
                }
            }
        }
        keys.sort_unstable();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(*k, i as u128);
        }
    }

    #[test]
    fn hilbert_consecutive_positions_are_adjacent_cells() {
        // Invert by brute force on a 16x16 grid and check the walk is a
        // sequence of unit steps — the defining property of the curve.
        let mut by_key = vec![[0u32; 2]; 256];
        for x in 0..16u32 {
            for y in 0..16u32 {
                by_key[hilbert(&[x, y], 4) as usize] = [x, y];
            }
        }
        for w in by_key.windows(2) {
            let dx = w[0][0].abs_diff(w[1][0]);
            let dy = w[0][1].abs_diff(w[1][1]);
            assert_eq!(dx + dy, 1, "non-adjacent step {:?} -> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn grid_mapper_quantizes_and_clamps() {
        let bounds = Mbr::new([0.0, 0.0], [10.0, 10.0]);
        let g = GridMapper::new(bounds);
        let cells = 1u64 << g.bits();
        assert_eq!(g.cell(&Point::new([0.0, 0.0])), [0, 0]);
        let top = g.cell(&Point::new([10.0, 10.0]));
        assert_eq!(top, [(cells - 1) as u32, (cells - 1) as u32]);
        // Out-of-bounds points clamp instead of wrapping.
        assert_eq!(g.cell(&Point::new([-5.0, 20.0])), [0, (cells - 1) as u32]);
    }

    #[test]
    fn grid_mapper_handles_degenerate_extent() {
        // All points share x = 3: extent 0 must not divide by zero.
        let bounds = Mbr::new([3.0, 0.0], [3.0, 10.0]);
        let g = GridMapper::new(bounds);
        let c = g.cell(&Point::new([3.0, 5.0]));
        assert_eq!(c[0], 0);
    }

    #[test]
    fn hilbert_at_full_bits_spans_the_whole_key_range() {
        // 21 bits per dimension is the mapper's full 2-D resolution
        // (42-bit keys). The curve starts at the origin, every key stays
        // inside [0, 2^42), and the grid corners map to distinct keys.
        let bits = 21;
        let max = (1u32 << bits) - 1;
        assert_eq!(hilbert(&[0u32, 0u32], bits), 0);
        let corners = [[0, 0], [max, 0], [0, max], [max, max]];
        let mut keys: Vec<u128> = corners.iter().map(|c| hilbert(c, bits)).collect();
        for &k in &keys {
            assert!(k < 1u128 << (2 * bits));
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4, "corner cells collide");
        // Unit-step walks along opposite grid edges keep keys distinct —
        // injectivity exercised at full resolution, far from the origin.
        let mut seen = std::collections::HashSet::new();
        for step in 0..1000u32 {
            assert!(seen.insert(hilbert(&[max - step, max], bits)));
            assert!(seen.insert(hilbert(&[0, step], bits)));
        }
    }

    #[test]
    fn hilbert_at_full_bits_in_3d() {
        // 3-D also caps at 21 bits per dimension (63-bit keys).
        let bits = super::bits_for::<3>();
        assert_eq!(bits, 21);
        let max = (1u32 << bits) - 1;
        assert_eq!(hilbert(&[0u32, 0, 0], bits), 0);
        let mut keys: Vec<u128> = [[max, 0, 0], [0, max, 0], [0, 0, max], [max, max, max]]
            .iter()
            .map(|c| hilbert(c, bits))
            .collect();
        for &k in &keys {
            assert!(k < 1u128 << (3 * bits));
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn grid_mapper_survives_extreme_extents_at_full_bits() {
        // A box spanning ~1e154 in every direction: the scale factor is
        // tiny but finite, and the corners still land on the grid corners.
        let g = GridMapper::new(Mbr::new([-1e154, -1e154], [1e154, 1e154]));
        assert_eq!(g.bits(), 21);
        let max = (1u64 << g.bits()) as u32 - 1;
        assert_eq!(g.cell(&Point::new([-1e154, -1e154])), [0, 0]);
        assert_eq!(g.cell(&Point::new([1e154, 1e154])), [max, max]);
        assert_eq!(g.hilbert_key(&Point::new([-1e154, -1e154])), 0);
        assert!(g.hilbert_key(&Point::new([1e154, 1e154])) < 1u128 << 42);

        // A box of near-denormal extent: the scale factor is ~2e306, so
        // the product overflows to ±infinity for far-away points and the
        // saturating float→int cast must clamp to the grid, not wrap.
        let g = GridMapper::new(Mbr::new([0.0, 0.0], [1e-300, 1e-300]));
        assert_eq!(g.cell(&Point::new([0.0, 0.0])), [0, 0]);
        assert_eq!(g.cell(&Point::new([1e-300, 1e-300])), [max, max]);
        assert_eq!(g.cell(&Point::new([1.0, -1.0])), [max, 0]);

        // Wildly asymmetric extents quantize each dimension independently.
        let g = GridMapper::new(Mbr::new([0.0, 0.0], [1e300, 1e-12]));
        let c = g.cell(&Point::new([5e299, 0.75e-12]));
        assert!(c[0].abs_diff(1 << 20) <= 1, "mid-extent cell: {}", c[0]);
        assert!(c[1].abs_diff(3 << 19) <= 1, "3/4-extent cell: {}", c[1]);
    }

    #[test]
    fn keys_sort_nearby_points_together() {
        // Points in the same quadrant should be contiguous on the curve
        // relative to a far-away point.
        let bounds = Mbr::new([0.0, 0.0], [1.0, 1.0]);
        let g = GridMapper::new(bounds);
        let a = Point::new([0.1, 0.1]);
        let b = Point::new([0.12, 0.11]);
        let far = Point::new([0.9, 0.95]);
        let (ka, kb, kf) = (g.hilbert_key(&a), g.hilbert_key(&b), g.hilbert_key(&far));
        assert!(ka.abs_diff(kb) < ka.abs_diff(kf));
        assert!(kb.abs_diff(kf) > ka.abs_diff(kb));
    }
}
