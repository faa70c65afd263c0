//! Deterministic random-number plumbing.
//!
//! Every stochastic choice in the workspace — trace generation, frame
//! placement, mix selection — flows through [`DetRng`], seeded from an
//! explicit `u64` (optionally combined with a name). Two runs with the same
//! configuration are therefore bit-identical, which the integration tests
//! assert.
//!
//! The generator is a hand-rolled xoshiro256++ (seeded through SplitMix64)
//! so the workspace carries no external RNG dependency and builds with no
//! registry access. It is a statistical PRNG, not a cryptographic one —
//! exactly what a simulator needs.

/// FNV-1a hash of a byte string; used to derive per-workload seeds from
/// names without pulling in a hashing crate.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One step of SplitMix64 — used to expand a `u64` seed into the
/// xoshiro256++ state so that similar seeds still yield unrelated streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic random source.
///
/// ```
/// use psa_common::DetRng;
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

crate::persist_struct!(DetRng { state });

impl DetRng {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            state: [0; 4].map(|_| splitmix64(&mut sm)),
        }
    }

    /// A generator whose stream depends on both `seed` and `name`, so each
    /// named workload gets an independent stream for any base seed.
    pub fn for_name(seed: u64, name: &str) -> Self {
        Self::new(seed ^ fnv1a(name.as_bytes()).rotate_left(17))
    }

    /// Next raw 64-bit value (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`, bias-free (Lemire's widening
    /// multiply with rejection).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            // Rejection zone is < 2^64 mod bound; `wrapping_neg % bound`
            // computes it without 128-bit division. The zone is itself
            // < bound, so `low >= bound` accepts without evaluating the
            // modulo at all — the division only runs in the rare draws
            // (probability < bound / 2^64) where `low` lands under bound.
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index into empty range");
        self.below(len as u64) as usize
    }

    /// The top 53 bits of the next raw value: the integer that
    /// [`unit`](Self::unit) scales into `[0, 1)`.
    #[inline]
    pub fn unit_bits(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision: exactly
    /// `unit_bits() · 2^-53`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.unit_bits() as f64 * UNIT
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`): the
    /// same outcome as `unit() < p`, decided on the integer draw (see
    /// [`chance_cutoff`]).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.hit(chance_cutoff(p))
    }

    /// Bernoulli draw against a precomputed [`chance_cutoff`]: true when
    /// the next [`unit_bits`](Self::unit_bits) lies below `cutoff`.
    #[inline]
    pub fn hit(&mut self, cutoff: u64) -> bool {
        self.unit_bits() < cutoff
    }

    /// Uniformly pick a reference out of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

/// `2^-53`, the step between consecutive [`DetRng::unit`] values.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// The integer cutoff of a Bernoulli draw with probability `p` (clamped
/// to `[0, 1]`): `unit() < p` holds exactly when `unit_bits() < cutoff`,
/// for every draw.
///
/// `unit()` is `k · 2^-53` for the integer `k = unit_bits() < 2^53`, and
/// both that product and `p · 2^53` are exact in f64 (a power-of-two
/// scale only moves the exponent). So `unit() < p` is `k < p · 2^53`,
/// which for an integer `k` is `k < ceil(p · 2^53)`. A NaN `p` gives 0,
/// which no draw is below, as no draw is below NaN.
pub fn chance_cutoff(p: f64) -> u64 {
    (p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
}

/// Integer cutoffs for a weighted pick over fixed, non-negative
/// `weights`: the pick for a draw `k = unit_bits()` is the number of
/// cutoffs `k` reaches, which equals [`weighted_fold`] at `k` for every
/// `k < 2^53`.
///
/// The fold never decreases as `k` grows (its target `k · 2^-53 · total`
/// and every difference taken from it are monotone under rounding, and a
/// larger target passes every bucket a smaller one passes), so the draws
/// that pick index `i` or later are exactly those at or above the least
/// such `k`. Each of the `weights.len() - 1` cutoffs is that least `k`,
/// found by binary search against the fold itself; `2^53` marks an index
/// no draw reaches.
///
/// # Panics
///
/// Panics if `weights` is empty or does not sum to a positive value.
pub fn weighted_cutoffs(weights: &[f64]) -> Vec<u64> {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    (1..weights.len())
        .map(|i| {
            let (mut lo, mut hi) = (0u64, 1u64 << 53);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if weighted_fold(weights, total, mid) >= i {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        })
        .collect()
}

/// The floating-point weighted pick for the draw `k = unit_bits()`:
/// scale `unit()` by `total` and walk the buckets, taking the last one
/// when rounding carries the target past them all. The reference that
/// [`weighted_cutoffs`] is searched against.
///
/// # Panics
///
/// Panics if `weights` is empty or `total` is not positive.
pub fn weighted_fold(weights: &[f64], total: f64, k: u64) -> usize {
    assert!(total > 0.0, "weights must sum to a positive value");
    let mut target = k as f64 * UNIT * total;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_across_instances() {
        let mut a = DetRng::for_name(42, "milc");
        let mut b = DetRng::for_name(42, "milc");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn name_changes_stream() {
        let mut a = DetRng::for_name(42, "milc");
        let mut b = DetRng::for_name(42, "soplex");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should diverge");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(1);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(2);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // clamped
    }

    /// The f64 Bernoulli draw that [`chance_cutoff`] replaces, at the
    /// draw `k = unit_bits()`.
    fn unit_below(k: u64, p: f64) -> bool {
        (k as f64 * UNIT) < p.clamp(0.0, 1.0)
    }

    #[test]
    fn chance_cutoff_matches_the_float_draw_around_the_cutoff() {
        let subnormal = f64::MIN_POSITIVE / 4.0;
        let ps = [
            0.0,
            UNIT,
            1.0 / 16384.0,
            1.0 / 2048.0,
            1.0 / 64.0,
            0.1,
            1.0 / 3.0,
            0.9,
            1.0 - UNIT,
            1.0,
            2.0,
            -1.0,
            subnormal,
            f64::NAN,
        ];
        for p in ps {
            let c = chance_cutoff(p);
            for k in [c.wrapping_sub(1), c, c + 1] {
                if k < 1 << 53 {
                    assert_eq!(k < c, unit_below(k, p), "p {p:e}, cutoff {c}, k {k}");
                }
            }
        }
        assert_eq!(chance_cutoff(UNIT), 1);
        assert_eq!(chance_cutoff(1.0 / 16384.0), 1 << 39);
        assert_eq!(chance_cutoff(1.0 - UNIT), (1 << 53) - 1);
        assert_eq!(chance_cutoff(1.0), 1 << 53);
    }

    #[test]
    fn chance_draws_what_the_float_test_draws() {
        let (mut a, mut b) = (DetRng::new(9), DetRng::new(9));
        for i in 0..10_000 {
            let p = f64::from(i % 97) / 96.0;
            assert_eq!(a.chance(p), b.unit() < p);
        }
    }

    /// The f64 weighted pick that [`weighted_cutoffs`] replaces.
    fn pick_weighted(r: &mut DetRng, weights: &[f64]) -> usize {
        weighted_fold(weights, weights.iter().sum(), r.unit_bits())
    }

    fn pick(cutoffs: &[u64], k: u64) -> usize {
        cutoffs.iter().filter(|&&c| k >= c).count()
    }

    #[test]
    fn weighted_cutoffs_match_the_fold_at_every_cutoff() {
        let mixes: [&[f64]; 6] = [
            &[0.0, 1.0, 0.0],
            &[1.0, 3.0],
            &[0.1, 0.2, 0.3, 0.0, 1e-12, 0.05, 0.0],
            &[0.3, 0.3, 0.3, 0.1],
            &[1e-300, 1.0, 1e-300],
            &[0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ];
        for w in mixes {
            let total: f64 = w.iter().sum();
            let cutoffs = weighted_cutoffs(w);
            assert_eq!(cutoffs.len(), w.len() - 1);
            for k in cutoffs.iter().flat_map(|&c| [c.wrapping_sub(1), c, c + 1]) {
                if k < 1 << 53 {
                    assert_eq!(pick(&cutoffs, k), weighted_fold(w, total, k), "{w:?} k {k}");
                }
            }
            for k in [0, (1 << 53) - 1] {
                assert_eq!(pick(&cutoffs, k), weighted_fold(w, total, k), "{w:?} k {k}");
            }
        }
    }

    #[test]
    fn weighted_pick_respects_zero_weights() {
        let cutoffs = weighted_cutoffs(&[0.0, 1.0, 0.0]);
        let mut r = DetRng::new(3);
        for _ in 0..100 {
            assert_eq!(pick(&cutoffs, r.unit_bits()), 1);
        }
    }

    #[test]
    fn weighted_pick_roughly_proportional() {
        let cutoffs = weighted_cutoffs(&[1.0, 3.0]);
        let (mut r, mut oracle) = (DetRng::new(4), DetRng::new(4));
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            let i = pick(&cutoffs, r.unit_bits());
            assert_eq!(i, pick_weighted(&mut oracle, &[1.0, 3.0]));
            counts[i] += 1;
        }
        let frac = counts[1] as f64 / 10_000.0;
        assert!((frac - 0.75).abs() < 0.03, "got {frac}");
    }

    #[test]
    fn fnv_distinguishes_names() {
        assert_ne!(fnv1a(b"lbm"), fnv1a(b"mcf"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
