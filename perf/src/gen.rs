//! Seeded input generators on an in-tree splitmix64.
//!
//! The generators live here, not in the library, so both commits of a
//! comparison see byte-identical inputs whatever happens to `ann-datagen`
//! (which needs `rand` and cannot build offline anyway). The shapes mirror
//! `ann_datagen::{tac_like, fc_like}`.

use ann_geom::Point;

/// splitmix64 stream (Steele, Lea & Flood 2014).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box-Muller; `1 - unit()` keeps the log finite).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// TAC-like 2-D sky positions: 65 % of the points fall in 400 Gaussian
/// clusters whose centres follow a sinusoidal band, the rest are uniform.
///
/// The sky (cluster centres and widths) is the same for every seed; the seed
/// draws the points. The first two points are the corners of the sky, so the
/// bounding box — an MBRQT's universe, which fixes where it splits and what
/// it accepts as a later insert — is the same too. Seeds then differ as
/// samples of one distribution do, and a join's work varies by sampling noise
/// only (a 2 000-point tree took 24 or 32 ms per query depending on where a
/// seed's extreme points put the splits).
pub fn tac_like(n: usize, seed: u64) -> Vec<(u64, Point<2>)> {
    const CLUSTERS: usize = 400;
    const SKY: u64 = 0x7AC;
    let mut sky = Rng::new(SKY);
    let centres: Vec<(f64, f64, f64)> = (0..CLUSTERS)
        .map(|_| {
            let ra = sky.range(0.0, 360.0);
            let band = 25.0 * ra.to_radians().sin();
            let dec = (band + 18.0 * sky.normal()).clamp(-89.0, 89.0);
            (ra, dec, sky.range(0.05, 1.2))
        })
        .collect();
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let p = if i < 2 {
                [[0.0, -90.0], [360.0, 90.0]][i]
            } else if rng.unit() < 0.65 {
                let (cra, cdec, sigma) = centres[rng.below(CLUSTERS)];
                [
                    (cra + sigma * rng.normal()).rem_euclid(360.0),
                    (cdec + sigma * rng.normal()).clamp(-90.0, 90.0),
                ]
            } else {
                [rng.range(0.0, 360.0), rng.range(-90.0, 90.0)]
            };
            (i as u64, Point(p))
        })
        .collect()
}

/// FC-like 10-D terrain rows: 10 correlated attributes mixed from 3 latent
/// factors plus noise, rescaled to the unit cube, quantised to integer-like
/// resolutions, and sampled from `n / 5` distinct profiles (so exact
/// duplicates are common, as in the real Forest Cover data).
///
/// As with the sky of [`tac_like`], the profiles are the same for every seed
/// and each occurs at least once; the seed draws how often. Every seed then
/// has the same distinct points and bounding box, and a join's time and
/// memory vary by sampling noise only (with seeded profiles, peak memory
/// differed by 13 % between seeds and by 0.5 % between runs of one seed).
pub fn fc_like(n: usize, seed: u64) -> Vec<(u64, Point<10>)> {
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
    const LEVELS: [f64; 10] = [
        2000.0, 360.0, 66.0, 255.0, 255.0, 255.0, 1400.0, 1400.0, 1400.0, 700.0,
    ];
    const TERRAIN: u64 = 0xFC;
    let mut rng = Rng::new(TERRAIN);
    let distinct = (n / 5).max(1);
    let mut lo = [f64::INFINITY; 10];
    let mut hi = [f64::NEG_INFINITY; 10];
    let mut profiles: Vec<[f64; 10]> = (0..distinct)
        .map(|_| {
            let f0 = rng.normal();
            let f1 = rng.normal();
            let regime = if rng.unit() < 0.5 { 1.2 } else { -1.2 };
            let f2 = 0.6 * rng.normal() + regime;
            let mut c = [0.0; 10];
            for (d, row) in MIX.iter().enumerate() {
                c[d] = row[0] * f0 + row[1] * f1 + row[2] * f2 + NOISE * rng.normal();
                lo[d] = lo[d].min(c[d]);
                hi[d] = hi[d].max(c[d]);
            }
            c
        })
        .collect();
    for c in &mut profiles {
        for d in 0..10 {
            let ext = hi[d] - lo[d];
            let unit = if ext > 0.0 { (c[d] - lo[d]) / ext } else { 0.5 };
            c[d] = (unit * LEVELS[d]).round() / LEVELS[d];
        }
    }
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let profile = if i < distinct { i } else { rng.below(distinct) };
            (i as u64, Point(profiles[profile]))
        })
        .collect()
}

/// FNV-1a over the oid and the coordinate bits of every point.
pub fn checksum<const D: usize>(points: &[(u64, Point<D>)]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (oid, p) in points {
        eat(*oid);
        for c in p.0 {
            eat(c.to_bits());
        }
    }
    h
}

/// Checks that seed 1 still yields the inputs the committed numbers were
/// taken on, and that the seed matters.
///
/// The expected values hold on any IEEE-754 host whose `ln`/`cos`/`sin`
/// round as this container's libm does; a mismatch means the generators
/// (or libm) changed and earlier results are not comparable.
pub fn self_test() -> Result<(), String> {
    const TAC_SEED1: u64 = 0x7202_F06C_30B3_5CF0;
    const FC_SEED1: u64 = 0x908D_FFCB_B910_77BA;
    let tac = checksum(&tac_like(4096, 1));
    let fc = checksum(&fc_like(4096, 1));
    if tac != TAC_SEED1 || fc != FC_SEED1 {
        return Err(format!(
            "generator checksums moved: tac_like {tac:#018x} (want {TAC_SEED1:#018x}), \
             fc_like {fc:#018x} (want {FC_SEED1:#018x})"
        ));
    }
    if tac == checksum(&tac_like(4096, 2)) || fc == checksum(&fc_like(4096, 2)) {
        return Err("seeds 1 and 2 generate the same points".into());
    }
    Ok(())
}
