//! Deterministic, seedable pseudo-random number generation.
//!
//! Two classic generators, implemented from their reference descriptions:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer. One u64 of
//!   state, equidistributed output; used to expand a single `u64` seed
//!   into the larger state of other generators and as the per-case seed
//!   derivation function of the property engine.
//! * [`Xoshiro256pp`] — Blackman & Vigna's xoshiro256++ 1.0, a fast
//!   all-purpose generator with 256 bits of state and a 2^256 − 1 period.
//!   [`SmallRng`] aliases it, mirroring the role `rand::rngs::SmallRng`
//!   played before the workspace went dependency-free.
//!
//! The [`Rng`] trait carries the small sampling surface the codebase
//! actually uses: [`gen_range`](Rng::gen_range) over integer and `f64`
//! ranges, [`gen_bool`](Rng::gen_bool) and [`shuffle`](Rng::shuffle).
//! Simulation code takes `&mut impl Rng` (or `R: Rng + ?Sized`) exactly as
//! it previously took the `rand` trait of the same name.

/// SplitMix64: one multiply-free addition per draw plus a finalising mixer.
///
/// Reference: <https://prng.di.unimi.it/splitmix64.c> (public domain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Every seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One-shot SplitMix64 mix of `x`: the output the generator seeded with
/// `x` would produce first. Handy as a cheap, high-quality hash for seed
/// derivation.
pub fn splitmix64(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// The 64-bit FNV-1a offset basis: the `acc` a fresh [`fnv1a`] digest
/// starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `bytes`, continuing from `acc` (chain calls to hash a
/// stream fragment by fragment). The workspace's one content digest:
/// property base seeds, plan digests, loadgen response digests.
#[inline]
pub fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// xoshiro256++ 1.0 (Blackman & Vigna, 2019).
///
/// Reference: <https://prng.di.unimi.it/xoshiro256plusplus.c> (public
/// domain). Seeded via SplitMix64 as the authors recommend, so a single
/// `u64` seed never produces the forbidden all-zero state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the 256-bit state by running SplitMix64 on `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }

    /// Builds a generator from raw state. At least one word must be
    /// non-zero (the all-zero state is a fixed point).
    ///
    /// # Panics
    ///
    /// Panics on the all-zero state.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro256++ state must not be all zero");
        Xoshiro256pp { s }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The workspace's default small, fast generator (xoshiro256++), in the
/// role `rand::rngs::SmallRng` used to play. Construct with
/// [`Xoshiro256pp::seed_from_u64`].
pub type SmallRng = Xoshiro256pp;

/// A range that [`Rng::gen_range`] can sample from: `lo..hi` and
/// `lo..=hi` over the integer types the workspace uses, plus `f64`.
pub trait SampleRange<T> {
    /// Draws one uniformly distributed value from the range.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform draw from `[0, span)` by rejection sampling (unbiased).
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    // Reject draws from the final partial copy of [0, span).
    let zone = u64::MAX - (u64::MAX % span);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range called with empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range called with empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Full 64-bit domain: every draw is in range.
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(uniform_below(rng, span as u64) as $t)
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Converts a draw into the unit interval `[0, 1)` using the top 53 bits.
fn unit_f64<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range called with empty f64 range");
        let v = self.start + unit_f64(rng) * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.end.next_down()
        } else {
            v
        }
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range called with empty f64 range");
        // Scale by 2^53 − 1 so both endpoints are reachable.
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        (lo + unit * (hi - lo)).clamp(lo, hi)
    }
}

/// The sampling surface simulation and test code draws from, mirroring the
/// method names of the `rand` trait it replaces.
pub trait Rng {
    /// The next raw 64-bit draw.
    fn next_u64(&mut self) -> u64;

    /// Uniform draw from `range` (`lo..hi` or `lo..=hi`).
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// A Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability must be in [0, 1]");
        unit_f64(self) < p
    }

    /// Fisher–Yates shuffle of `slice` in place.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = uniform_below(self, i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

impl Rng for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        Xoshiro256pp::next_u64(self)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference outputs of splitmix64.c for seed = 1234567.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    #[test]
    fn fnv1a_matches_reference_vectors_and_chains() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(FNV1A_OFFSET, b""), FNV1A_OFFSET);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV1A_OFFSET, b"foo"), b"bar"), fnv1a(FNV1A_OFFSET, b"foobar"));
    }

    #[test]
    fn xoshiro256pp_matches_reference_vectors() {
        // Reference outputs of xoshiro256plusplus.c with the state
        // {1, 2, 3, 4}.
        let mut x = Xoshiro256pp::from_state([1, 2, 3, 4]);
        assert_eq!(x.next_u64(), 41943041);
        assert_eq!(x.next_u64(), 58720359);
        assert_eq!(x.next_u64(), 3588806011781223);
        assert_eq!(x.next_u64(), 3591011842654386);
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    #[should_panic(expected = "all zero")]
    fn all_zero_state_is_rejected() {
        let _ = Xoshiro256pp::from_state([0; 4]);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..2000 {
            let v = r.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let v = r.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&v));
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let g = r.gen_range(1.0f64..=2.0);
            assert!((1.0..=2.0).contains(&g));
            let u = r.gen_range(10u64..=10);
            assert_eq!(u, 10);
        }
    }

    #[test]
    fn gen_range_covers_the_domain() {
        let mut r = SmallRng::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 buckets should be hit: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = SmallRng::seed_from_u64(1);
        let _ = r.gen_range(5usize..5);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.2)).count();
        assert!((1700..2300).contains(&hits), "got {hits} hits for p=0.2");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // With 50! arrangements a fixed-point result is implausible.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn trait_objects_and_reborrows_work() {
        // The `R: Rng + ?Sized` pattern used across the workspace.
        fn takes_generic<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0u64..100)
        }
        let mut r = SmallRng::seed_from_u64(9);
        let v = takes_generic(&mut r);
        assert!(v < 100);
        let mut borrow = &mut r;
        let w = takes_generic(&mut borrow);
        assert!(w < 100);
    }
}
