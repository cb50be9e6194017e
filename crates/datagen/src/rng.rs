//! The workspace's one seeded generator — a SplitMix64 stream (Steele,
//! Lea & Flood 2014). Datasets, the checker's workloads and every
//! randomized test draw from it, so a seed reproduces the exact same case
//! on any platform and no external RNG crate is needed.

/// The SplitMix64 output function of `seed + γ`: a stateless mixer, also
/// used on its own to derive fault positions and fill bytes from an index.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed-driven generator; every case derives from one `u64`.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a stream; equal seeds yield equal streams forever.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: splitmix64(seed),
        }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`; `hi > lo` required.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi > lo);
        loop {
            // Rounding can land exactly on `hi`; redraw so the bound holds.
            let v = lo + (hi - lo) * self.f64();
            if v < hi {
                return v;
            }
        }
    }

    /// Uniform in `[lo, hi)`; `hi > lo` required.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(hi > lo);
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform pick from a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range(0, xs.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.range(0, i + 1));
        }
    }
}

/// Runs `property` on `cases` independent streams forked from `seed` — the
/// driver of the workspace's property tests. When the property panics, the
/// failing case and the seed that replays it alone go to stderr before the
/// panic propagates.
pub fn for_each_case(seed: u64, cases: usize, mut property: impl FnMut(&mut Rng)) {
    struct Running(usize, u64);
    impl Drop for Running {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "property failed at case {}: replay with Rng::new({:#x})",
                    self.0, self.1
                );
            }
        }
    }
    let mut parent = Rng::new(seed);
    for case in 0..cases {
        let case_seed = parent.next_u64();
        let _running = Running(case, case_seed);
        property(&mut Rng::new(case_seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    /// The stream is a contract: fixed fuzz seeds, the checker's
    /// regression cases and the committed datasets all replay it.
    #[test]
    fn stream_is_pinned() {
        let mut r = Rng::new(0);
        let got = [
            r.next_u64(),
            r.next_u64(),
            Rng::new(r.next_u64()).next_u64(),
        ];
        assert_eq!(
            got,
            [
                0xb382_a305_f441_4f5e,
                0x631a_9154_fbab_f717,
                0x7d71_00fd_a5e1_760c
            ]
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!((3..9).contains(&r.range(3, 9)));
            assert!((-2.5..0.5).contains(&r.range_f64(-2.5, 0.5)));
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut xs: Vec<u32> = (0..100).collect();
        Rng::new(1).shuffle(&mut xs);
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
        xs.sort_unstable();
        assert_eq!(xs, (0..100).collect::<Vec<_>>());
    }
}
