//! Synthetic dataset generation for the ANN experiments.
//!
//! The paper evaluates on (Table 2):
//!
//! * `500K2D` / `500K4D` / `500K6D` — 500 K synthetic points produced with
//!   a modified GSTD generator;
//! * **TAC** — the Twin Astrographic Catalog, ~700 K real 2-D star
//!   positions;
//! * **FC** — Forest Cover Type, 580 K tuples projected to their 10 real
//!   attributes.
//!
//! The two real datasets are not redistributable here, so this crate ships
//! *simulated* stand-ins ([`tac_like`], [`fc_like`]) that preserve the
//! properties the experiments actually exercise — cardinality,
//! dimensionality, clustering (TAC) and strong inter-attribute correlation
//! (FC, which is what gives GORDER's PCA step its leverage). The GSTD-style
//! generators ([`uniform`], [`gaussian_clusters`], [`skewed`]) cover the
//! synthetic workloads.
//!
//! Everything is deterministic given a seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod io;
mod rng;

pub use rng::{for_each_case, splitmix64, Rng};

use ann_geom::Point;

/// A labelled dataset description, mirroring the paper's Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Paper name (e.g. `"500K2D"`, `"TAC"`, `"FC"`).
    pub name: &'static str,
    /// Cardinality used in the paper.
    pub cardinality: usize,
    /// Dimensionality.
    pub dims: usize,
    /// Short description.
    pub description: &'static str,
}

/// The paper's Table 2.
pub const TABLE2: &[DatasetSpec] = &[
    DatasetSpec {
        name: "500K2D",
        cardinality: 500_000,
        dims: 2,
        description: "2D point data (GSTD-style synthetic)",
    },
    DatasetSpec {
        name: "500K4D",
        cardinality: 500_000,
        dims: 4,
        description: "4D point data (GSTD-style synthetic)",
    },
    DatasetSpec {
        name: "500K6D",
        cardinality: 500_000,
        dims: 6,
        description: "6D point data (GSTD-style synthetic)",
    },
    DatasetSpec {
        name: "TAC",
        cardinality: 700_000,
        dims: 2,
        description: "2D Twin Astrographic Catalog data (simulated stand-in)",
    },
    DatasetSpec {
        name: "FC",
        cardinality: 580_000,
        dims: 10,
        description: "10D Forest Cover Type data (simulated stand-in)",
    },
];

/// One standard-normal sample via Box-Muller.
fn normal(rng: &mut Rng) -> f64 {
    loop {
        let u1 = rng.range_f64(f64::EPSILON, 1.0);
        let u2 = rng.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// `n` points uniform in the unit cube.
pub fn uniform<const D: usize>(n: usize, seed: u64) -> Vec<(u64, Point<D>)> {
    uniform_stream(n, seed).collect()
}

/// The exact sequence [`uniform`] materializes, as a lazy iterator: the
/// streaming bulk builders consume this directly, so arbitrarily large
/// datasets never exist in memory at once.
pub fn uniform_stream<const D: usize>(
    n: usize,
    seed: u64,
) -> impl Iterator<Item = (u64, Point<D>)> {
    let mut rng = Rng::new(seed);
    (0..n).map(move |i| {
        let mut c = [0.0; D];
        for v in c.iter_mut() {
            *v = rng.f64();
        }
        (i as u64, Point::new(c))
    })
}

/// `n` points from a mixture of `clusters` spherical gaussians with the
/// given standard deviation, cluster centers uniform in the unit cube.
/// Samples are clamped to `[0, 1]^D` so dataset bounds stay stable.
pub fn gaussian_clusters<const D: usize>(
    n: usize,
    clusters: usize,
    sigma: f64,
    seed: u64,
) -> Vec<(u64, Point<D>)> {
    assert!(clusters >= 1, "need at least one cluster");
    let mut rng = Rng::new(seed);
    let centers: Vec<[f64; D]> = (0..clusters)
        .map(|_| {
            let mut c = [0.0; D];
            for v in c.iter_mut() {
                *v = rng.range_f64(0.1, 0.9);
            }
            c
        })
        .collect();
    (0..n)
        .map(|i| {
            let center = centers[rng.range(0, clusters)];
            let mut c = [0.0; D];
            for (d, v) in c.iter_mut().enumerate() {
                *v = (center[d] + sigma * normal(&mut rng)).clamp(0.0, 1.0);
            }
            (i as u64, Point::new(c))
        })
        .collect()
}

/// `n` points with power-law (Zipf-like) skew towards the origin in every
/// dimension: coordinate `= u^alpha` for uniform `u`. `alpha > 1` crowds
/// points near 0 — the skewed workloads that defeat spatial hashing (the
/// paper's §2 remark on HNN).
pub fn skewed<const D: usize>(n: usize, alpha: f64, seed: u64) -> Vec<(u64, Point<D>)> {
    assert!(alpha > 0.0, "alpha must be positive");
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let mut c = [0.0; D];
            for v in c.iter_mut() {
                *v = rng.f64().powf(alpha);
            }
            (i as u64, Point::new(c))
        })
        .collect()
}

/// A simulated Twin Astrographic Catalog: `n` 2-D "star positions" in
/// (right ascension [0, 360), declination [-90, 90]) degrees.
///
/// Star catalogs are strongly clustered (open clusters and the galactic
/// band over a sparse background); the stand-in mixes ~65 % points drawn
/// from several hundred small gaussian clusters concentrated around an
/// inclined band with ~35 % near-uniform background — large, 2-D and
/// non-uniform, which is what the TAC experiments exercise.
pub fn tac_like(n: usize, seed: u64) -> Vec<(u64, Point<2>)> {
    let mut rng = Rng::new(seed);
    let n_clusters = 400.max(n / 2000);
    // Cluster centers concentrated around a sinusoidal "galactic band".
    let centers: Vec<(f64, f64, f64)> = (0..n_clusters)
        .map(|_| {
            let ra = rng.range_f64(0.0, 360.0);
            let band = 25.0 * (ra.to_radians() * 1.0).sin();
            let dec = (band + 18.0 * normal(&mut rng)).clamp(-89.0, 89.0);
            let sigma = rng.range_f64(0.05, 1.2);
            (ra, dec, sigma)
        })
        .collect();
    (0..n)
        .map(|i| {
            let (ra, dec) = if rng.chance(0.65) {
                let (cra, cdec, sigma) = centers[rng.range(0, n_clusters)];
                (
                    (cra + sigma * normal(&mut rng)).rem_euclid(360.0),
                    (cdec + sigma * normal(&mut rng)).clamp(-90.0, 90.0),
                )
            } else {
                (rng.range_f64(0.0, 360.0), rng.range_f64(-90.0, 90.0))
            };
            (i as u64, Point::new([ra, dec]))
        })
        .collect()
}

/// A simulated Forest Cover dataset: `n` 10-D points whose dimensions are
/// linear combinations of 3 latent "terrain" factors plus noise, rescaled
/// to the unit cube and quantized to integer-like grids.
///
/// Two properties of the real FC attributes matter to the experiments and
/// are both preserved:
///
/// * they are strongly correlated (elevation, slope, three hillshade
///   readings, distances to hydrology/roads/fire points all reflect the
///   same terrain), which is what lets GORDER's PCA step concentrate
///   variance in few principal components;
/// * they are *integers* with coarse ranges (hillshade is 0-255, slope
///   0-66 degrees, ...), and each row describes one 30 m terrain cell —
///   adjacent cells in uniform terrain repeat entire attribute profiles,
///   so the dataset is full of duplicate values and exact-duplicate
///   points. Nearest-neighbor distances are tiny or zero, which
///   index-based pruning feeds on (and which turns out to decide the
///   MBA-vs-GORDER comparison; see EXPERIMENTS.md). The stand-in
///   therefore quantizes every dimension to a realistic resolution and
///   samples rows from a pool of `n / 5` distinct profiles.
pub fn fc_like(n: usize, seed: u64) -> Vec<(u64, Point<10>)> {
    let mut rng = Rng::new(seed);
    let distinct = (n / 5).max(1);
    // Fixed mixing matrix: 10 attributes from 3 latent factors.
    // Rows chosen so groups of attributes share factors (like the three
    // hillshade readings do in the real data).
    const MIX: [[f64; 3]; 10] = [
        [1.00, 0.10, 0.05],
        [0.90, 0.20, 0.00],
        [0.80, -0.30, 0.10],
        [0.10, 1.00, 0.05],
        [0.05, 0.95, -0.10],
        [-0.20, 0.85, 0.15],
        [0.15, 0.05, 1.00],
        [0.00, -0.10, 0.90],
        [0.25, 0.15, 0.80],
        [0.50, 0.50, 0.50],
    ];
    const NOISE: f64 = 0.15;
    let mut raw = Vec::with_capacity(distinct);
    let mut lo = [f64::INFINITY; 10];
    let mut hi = [f64::NEG_INFINITY; 10];
    for _ in 0..distinct {
        // Latents: two gaussian, one bimodal (forest type regimes).
        let f0 = normal(&mut rng);
        let f1 = normal(&mut rng);
        let f2 = 0.6 * normal(&mut rng) + if rng.chance(0.5) { 1.2 } else { -1.2 };
        let mut c = [0.0; 10];
        for (d, row) in MIX.iter().enumerate() {
            c[d] = row[0] * f0 + row[1] * f1 + row[2] * f2 + NOISE * normal(&mut rng);
            lo[d] = lo[d].min(c[d]);
            hi[d] = hi[d].max(c[d]);
        }
        raw.push(c);
    }
    // Integer resolutions mirroring the real attribute ranges:
    // elevation (~2000 distinct meters), aspect (360°), slope (~66°),
    // 3 × hillshade (0-255), 4 × horizontal/vertical distances (~1400
    // distinct values in the raw data).
    const LEVELS: [f64; 10] = [
        2000.0, 360.0, 66.0, 255.0, 255.0, 255.0, 1400.0, 1400.0, 1400.0, 700.0,
    ];
    let profiles: Vec<[f64; 10]> = raw
        .into_iter()
        .map(|mut c| {
            for d in 0..10 {
                let ext = hi[d] - lo[d];
                let unit = if ext > 0.0 { (c[d] - lo[d]) / ext } else { 0.5 };
                c[d] = (unit * LEVELS[d]).round() / LEVELS[d];
            }
            c
        })
        .collect();
    (0..n)
        .map(|i| {
            let profile = *rng.pick(&profiles);
            (i as u64, Point::new(profile))
        })
        .collect()
}

/// The synthetic `500K{2,4,6}D`-style dataset at an arbitrary scale:
/// GSTD-like gaussian-cluster data in `D` dimensions.
pub fn synthetic_nd<const D: usize>(n: usize, seed: u64) -> Vec<(u64, Point<D>)> {
    gaussian_clusters::<D>(n, 50, 0.03, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_geom::Mbr;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform::<2>(100, 7), uniform::<2>(100, 7));
        assert_eq!(tac_like(100, 7), tac_like(100, 7));
        assert_eq!(fc_like(100, 7), fc_like(100, 7));
        assert_ne!(uniform::<2>(100, 7), uniform::<2>(100, 8));
    }

    #[test]
    fn uniform_stream_matches_materialized_uniform() {
        let eager = uniform::<3>(500, 42);
        let lazy: Vec<_> = uniform_stream::<3>(500, 42).collect();
        assert_eq!(eager, lazy);
    }

    #[test]
    fn uniform_fills_unit_cube() {
        let pts = uniform::<3>(5000, 1);
        let mbr = Mbr::from_points(pts.iter().map(|(_, p)| p));
        for d in 0..3 {
            assert!(mbr.lo[d] >= 0.0 && mbr.hi[d] <= 1.0);
            assert!(mbr.extent(d) > 0.9, "should nearly fill the cube");
        }
    }

    #[test]
    fn oids_are_sequential() {
        let pts = uniform::<2>(100, 3);
        for (i, (oid, _)) in pts.iter().enumerate() {
            assert_eq!(*oid, i as u64);
        }
    }

    #[test]
    fn gaussian_clusters_are_clustered() {
        // Mean nearest-neighbor distance of clustered data is far below
        // uniform data of the same cardinality.
        let clustered = gaussian_clusters::<2>(2000, 10, 0.01, 5);
        let uni = uniform::<2>(2000, 5);
        let mean_nn = |pts: &[(u64, Point<2>)]| {
            let mut total = 0.0;
            for (i, (_, p)) in pts.iter().enumerate() {
                let mut best = f64::INFINITY;
                for (j, (_, q)) in pts.iter().enumerate() {
                    if i != j {
                        best = best.min(p.dist_sq(q));
                    }
                }
                total += best.sqrt();
            }
            total / pts.len() as f64
        };
        assert!(mean_nn(&clustered) < mean_nn(&uni) * 0.8);
    }

    #[test]
    fn skew_crowds_towards_origin() {
        let pts = skewed::<2>(5000, 3.0, 9);
        let below = pts.iter().filter(|(_, p)| p[0] < 0.125).count();
        // u^3 < 0.125 iff u < 0.5: about half the mass is below 0.125.
        assert!(below > 2000, "skew should crowd the origin: {below}");
        assert!(pts.iter().all(|(_, p)| p[0] >= 0.0 && p[0] <= 1.0));
    }

    #[test]
    fn tac_like_is_in_sky_coordinates_and_clustered() {
        let pts = tac_like(20_000, 11);
        assert!(pts
            .iter()
            .all(|(_, p)| (0.0..360.0).contains(&p[0]) && (-90.0..=90.0).contains(&p[1])));
        // Clustering: count occupied cells of a coarse grid; clustered data
        // occupies far fewer cells than uniform would.
        let mut cells = std::collections::HashSet::new();
        for (_, p) in &pts {
            cells.insert(((p[0] / 4.0) as i32, (p[1] / 4.0) as i32));
        }
        assert!(
            cells.len() < 3500,
            "TAC-like data should be clumpy, got {} occupied cells",
            cells.len()
        );
    }

    #[test]
    fn fc_like_is_unit_scaled_and_correlated() {
        let pts = fc_like(5000, 13);
        for (_, p) in &pts {
            for d in 0..10 {
                assert!((0.0..=1.0).contains(&p[d]));
            }
        }
        // Attributes 0 and 1 share the dominant latent factor: their
        // Pearson correlation must be strong.
        let n = pts.len() as f64;
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for (_, p) in &pts {
            sx += p[0];
            sy += p[1];
            sxx += p[0] * p[0];
            syy += p[1] * p[1];
            sxy += p[0] * p[1];
        }
        let cov = sxy / n - (sx / n) * (sy / n);
        let vx = sxx / n - (sx / n) * (sx / n);
        let vy = syy / n - (sy / n) * (sy / n);
        let corr = cov / (vx * vy).sqrt();
        assert!(corr > 0.7, "dims 0,1 should correlate strongly: {corr}");
    }

    #[test]
    fn fc_like_contains_exact_duplicates() {
        // The real Forest Cover data repeats whole attribute profiles
        // across adjacent terrain cells; the stand-in must too.
        let pts = fc_like(5000, 17);
        let distinct: std::collections::HashSet<_> = pts
            .iter()
            .map(|(_, p)| p.coords().map(f64::to_bits))
            .collect();
        assert!(distinct.len() <= 1000, "expected ≤ n/5 distinct profiles");
        assert!(distinct.len() > 500, "profiles should mostly all be used");
    }

    #[test]
    fn table2_matches_paper() {
        assert_eq!(TABLE2.len(), 5);
        assert_eq!(TABLE2[3].name, "TAC");
        assert_eq!(TABLE2[3].cardinality, 700_000);
        assert_eq!(TABLE2[4].dims, 10);
    }
}
