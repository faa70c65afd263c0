//! A fast, deterministic hasher for simulator-internal hash containers.
//!
//! The standard library's default hasher (SipHash with a per-process
//! random seed) is built to resist hash-flooding from untrusted input.
//! The simulator's hash containers key on values it generates itself —
//! page numbers, region ids — so that defence buys nothing, while the
//! per-lookup cost sits directly on the address-translation hot path
//! (a region lookup for each translation that leaves the previous 4KB
//! page).
//!
//! [`FxHasher`] is the word-at-a-time multiply-rotate scheme used by the
//! Rust compiler's `FxHashMap`: fold each 8-byte chunk into the state
//! with a rotate, xor and a multiply by a 64-bit constant derived from
//! the golden ratio. It is seedless, so hashes are identical across
//! processes — nothing observable depends on that (the codec writes hash
//! containers sorted by key precisely so iteration order never leaks),
//! but it keeps behaviour easy to reason about.
//!
//! # Example
//!
//! ```
//! use psa_common::fxhash::FxHashMap;
//!
//! let mut seen: FxHashMap<u64, u32> = FxHashMap::default();
//! seen.insert(0x2000, 1);
//! assert_eq!(seen.get(&0x2000), Some(&1));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// 2^64 / φ, the multiplicative constant (same as rustc's FxHash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The word-at-a-time multiply-rotate hasher.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add_to_hash(u64::from_le_bytes(bytes[..8].try_into().expect("len 8")));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut tail = [0u8; 8];
            tail[..bytes.len()].copy_from_slice(bytes);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let hash = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn byte_stream_chunks_match_alignment() {
        // Hashing the same logical bytes in one call is a fixed function
        // of the input, whatever the split.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_alias_works() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
    }
}
