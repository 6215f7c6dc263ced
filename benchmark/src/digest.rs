//! `sim_digest`: one 64-bit hash over every exact (simulated) counter a
//! cell returns.
//!
//! The counters are folded in through their derived `Debug` rendering,
//! which covers every field of `RunResult`, `MachineStats`, `TxnStats`,
//! `SharedStats` and `StormShardReport` — including fields a later PR
//! adds — without this package naming them one by one. A simulator-only
//! speed-up must leave the digest of every workload unchanged.

use std::fmt::Debug;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds in one integer (fingerprints, nested digests).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes());
        self
    }

    /// Folds in every field of `v` through its `Debug` form.
    pub fn debug(&mut self, v: &impl Debug) -> &mut Self {
        self.bytes(format!("{v:?}").as_bytes());
        // Separator, so ("ab", "c") and ("a", "bc") differ.
        self.bytes(&[0xff]);
        self
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_boundaries_matter() {
        let d = |parts: &[&str]| {
            let mut d = Digest::new();
            for p in parts {
                d.debug(p);
            }
            d.finish()
        };
        assert_eq!(d(&["ab", "c"]), d(&["ab", "c"]));
        assert_ne!(d(&["ab", "c"]), d(&["a", "bc"]));
        assert_ne!(d(&["a", "b"]), d(&["b", "a"]));
        assert_ne!(Digest::new().u64(1).finish(), Digest::new().u64(2).finish());
    }
}
