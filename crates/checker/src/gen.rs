//! Adversarial workload generation.
//!
//! Every generator is biased toward the inputs that historically break
//! nearest-neighbor code: exact distance ties (integer grids, duplicated
//! and coincident points), degenerate geometry (collinear sets, point
//! MBRs), distribution skew, large coordinate offsets (floating-point
//! cancellation), and boundary cardinalities (`|S| ∈ {0, 1}`,
//! `k ∈ {0, 1, |S|−1, |S|, >|S|}`).

use ann_datagen::Rng;
use ann_geom::Point;

/// Point-set shapes the generators produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Uniform over the box.
    Uniform,
    /// Small-integer lattice coordinates — exact distance ties abound.
    Grid,
    /// Grid points, each repeated under several distinct oids.
    Duplicates,
    /// Every point identical.
    Coincident,
    /// All points on one line.
    Collinear,
    /// A few tight clusters.
    Clustered,
    /// Power-law marginal: dense near the origin.
    Skewed,
}

pub const SHAPES: [Shape; 7] = [
    Shape::Uniform,
    Shape::Grid,
    Shape::Duplicates,
    Shape::Coincident,
    Shape::Collinear,
    Shape::Clustered,
    Shape::Skewed,
];

/// Coordinate transforms: power-of-two scales keep lattice coordinates
/// exactly representable (preserving exact ties), the large offset forces
/// catastrophic cancellation in subtraction-based metric formulas.
pub const SCALES: [f64; 3] = [1.0, 1024.0, 0.0078125];
pub const OFFSETS: [f64; 2] = [0.0, 1.0e8];

/// Generates `n` points of the given shape inside `[offset, offset +
/// 8·scale]^D`, with oids `0, stride, 2·stride, …` (a non-unit stride
/// decouples oid order from generation order, stressing tie-breaks).
pub fn points<const D: usize>(
    rng: &mut Rng,
    n: usize,
    shape: Shape,
    scale: f64,
    offset: f64,
    oid_stride: u64,
) -> Vec<(u64, Point<D>)> {
    let coord = |rng: &mut Rng, shape: Shape| -> f64 {
        let v = match shape {
            Shape::Uniform => rng.f64() * 8.0,
            // 0..=8 integer lattice: many exactly-equal distances.
            Shape::Grid | Shape::Duplicates => rng.range(0, 9) as f64,
            Shape::Skewed => {
                let u = rng.f64();
                u * u * u * 8.0
            }
            _ => unreachable!("handled by the outer match"),
        };
        v * scale + offset
    };
    let mut out: Vec<(u64, Point<D>)> = Vec::with_capacity(n);
    match shape {
        Shape::Uniform | Shape::Grid | Shape::Skewed => {
            for _ in 0..n {
                let mut c = [0.0; D];
                for v in c.iter_mut() {
                    *v = coord(rng, shape);
                }
                out.push((0, Point::new(c)));
            }
        }
        Shape::Duplicates => {
            while out.len() < n {
                let mut c = [0.0; D];
                for v in c.iter_mut() {
                    *v = coord(rng, shape);
                }
                // 1-4 copies of the same coordinates, distinct oids.
                let copies = rng.range(1, 5).min(n - out.len());
                for _ in 0..copies {
                    out.push((0, Point::new(c)));
                }
            }
        }
        Shape::Coincident => {
            let mut c = [0.0; D];
            for v in c.iter_mut() {
                *v = rng.range(0, 9) as f64 * scale + offset;
            }
            out.extend((0..n).map(|_| (0, Point::new(c))));
        }
        Shape::Collinear => {
            let mut dir = [0.0; D];
            for v in dir.iter_mut() {
                *v = rng.range(0, 4) as f64;
            }
            if dir.iter().all(|v| *v == 0.0) {
                dir[0] = 1.0;
            }
            for _ in 0..n {
                let t = rng.range(0, 9) as f64;
                let mut c = [0.0; D];
                for (v, dv) in c.iter_mut().zip(dir) {
                    *v = t * dv * scale + offset;
                }
                out.push((0, Point::new(c)));
            }
        }
        Shape::Clustered => {
            let clusters = rng.range(1, 4);
            let mut centers = Vec::with_capacity(clusters);
            for _ in 0..clusters {
                let mut c = [0.0; D];
                for v in c.iter_mut() {
                    *v = rng.range(0, 9) as f64 * scale + offset;
                }
                centers.push(c);
            }
            for _ in 0..n {
                let center = *rng.pick(&centers);
                let mut c = [0.0; D];
                for (v, cv) in c.iter_mut().zip(center) {
                    // Offsets on a fine power-of-two sub-lattice: tight
                    // clusters that still produce exact ties.
                    *v = cv + rng.range(0, 3) as f64 * 0.25 * scale;
                }
                out.push((0, Point::new(c)));
            }
        }
    }
    for (i, (oid, _)) in out.iter_mut().enumerate() {
        *oid = i as u64 * oid_stride;
    }
    out
}

/// One differential test case: a full join configuration.
#[derive(Clone, Debug)]
pub struct DiffCase<const D: usize> {
    pub r: Vec<(u64, Point<D>)>,
    pub s: Vec<(u64, Point<D>)>,
    pub k: usize,
    /// Self-join semantics (implies `r == s`).
    pub exclude_self: bool,
    /// BNN group size for this case.
    pub group_size: usize,
    /// HNN occupancy knob for this case.
    pub avg_cell_occupancy: f64,
}

/// Draws a random differential case; deterministic in `rng`.
pub fn diff_case<const D: usize>(rng: &mut Rng) -> DiffCase<D> {
    let shape = *rng.pick(&SHAPES);
    let scale = *rng.pick(&SCALES);
    let offset = *rng.pick(&OFFSETS);
    let oid_stride = *rng.pick(&[1u64, 3]);
    let self_join = rng.chance(0.4);
    // Small cardinalities keep brute force cheap while still spanning
    // multiple index nodes (node capacities are shrunk by the driver);
    // boundary sizes 0 and 1 get extra mass.
    let draw_n = |rng: &mut Rng| match rng.range(0, 10) {
        0 => 0,
        1 => 1,
        2 => 2,
        _ => rng.range(3, 41),
    };
    let ns_draw = draw_n(rng);
    let s = points::<D>(rng, ns_draw, shape, scale, offset, oid_stride);
    let r = if self_join {
        s.clone()
    } else {
        let nr_draw = draw_n(rng);
        points::<D>(rng, nr_draw, shape, scale, offset, oid_stride)
    };
    let ns = s.len();
    let k_choices = [0, 1, 2, ns.saturating_sub(1), ns, ns + 3];
    let k = *rng.pick(&k_choices);
    DiffCase {
        r,
        s,
        k,
        exclude_self: self_join && rng.chance(0.7),
        group_size: *rng.pick(&[1usize, 4, 64]),
        avg_cell_occupancy: *rng.pick(&[1.0, 8.0]),
    }
}
