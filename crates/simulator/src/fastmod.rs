//! Division-free `x % n` for a divisor fixed at construction.
//!
//! Set indices and bank indices are taken on every probe of the cache
//! arrays and every memory access, always against a geometry that never
//! changes after the machine is built. A power-of-two divisor (the L1 and
//! L2 set counts, the default bank counts) reduces to a mask; any other
//! divisor (the 6 144- or 12 288-set L3, a 3-way bank split) uses the
//! Lemire–Kaser–Kurz reciprocal: with `M = ⌈2¹²⁸ / n⌉`, `x mod n` is the
//! high 64 bits of `(M·x mod 2¹²⁸) · n` — three multiplications, exact
//! for every 64-bit `x` and `n`.

/// A fixed divisor with its precomputed mask or reciprocal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Modulus {
    n: u64,
    /// `n - 1` when `n` is a power of two.
    mask: Option<u64>,
    /// `⌈2¹²⁸ / n⌉` (wrapping to 0 for `n == 1`, which takes the mask path).
    magic: u128,
}

impl Modulus {
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub(crate) fn new(n: u64) -> Self {
        assert!(n > 0, "modulus must be positive");
        Self {
            n,
            mask: n.is_power_of_two().then(|| n - 1),
            magic: (u128::MAX / n as u128).wrapping_add(1),
        }
    }

    /// `x % n`.
    #[inline]
    pub(crate) fn of(&self, x: u64) -> u64 {
        if let Some(mask) = self.mask {
            return x & mask;
        }
        let low = self.magic.wrapping_mul(x as u128);
        let n = self.n as u128;
        let bottom = ((low as u64) as u128 * n) >> 64;
        let top = (low >> 64) * n;
        ((bottom + top) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_the_remainder_operator() {
        let mut rng = SmallRng::seed_from_u64(7);
        // The geometries the bench targets build (L1/L2/L3 sets, whole and
        // sliced 2-, 3- and 4-ways; bank counts) plus awkward divisors.
        let divisors = [
            1u64,
            2,
            3,
            7,
            10,
            11,
            16,
            21,
            22,
            32,
            64,
            512,
            3_072,
            4_096,
            6_144,
            12_288,
            u32::MAX as u64,
            (1 << 40) + 3,
            u64::MAX - 1,
            u64::MAX,
        ];
        for n in divisors {
            let m = Modulus::new(n);
            for x in [0, 1, n - 1, n, n.wrapping_add(1), u64::MAX, u64::MAX - 1] {
                assert_eq!(m.of(x), x % n, "{x} % {n}");
            }
            for _ in 0..20_000 {
                let x: u64 = rng.gen();
                assert_eq!(m.of(x), x % n, "{x} % {n}");
                let small = x >> rng.gen_range(0..64u32);
                assert_eq!(m.of(small), small % n, "{small} % {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn zero_divisor_is_rejected() {
        let _ = Modulus::new(0);
    }
}
