//! Power-of-two geometry helpers for cache and TLB shapes.

/// Error returned when a structure shape is not realisable in hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeometryError {
    what: &'static str,
    value: u64,
}

impl GeometryError {
    pub(crate) fn new(what: &'static str, value: u64) -> Self {
        Self { what, value }
    }
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} must be a non-zero power of two, got {}",
            self.what, self.value
        )
    }
}

impl std::error::Error for GeometryError {}

/// log2 of a power of two.
///
/// # Errors
///
/// Returns [`GeometryError`] if `value` is zero or not a power of two.
///
/// ```
/// # use psa_common::geometry::checked_log2;
/// assert_eq!(checked_log2("sets", 64).unwrap(), 6);
/// assert!(checked_log2("sets", 48).is_err());
/// ```
pub fn checked_log2(what: &'static str, value: u64) -> Result<u32, GeometryError> {
    if value == 0 || !value.is_power_of_two() {
        return Err(GeometryError::new(what, value));
    }
    Ok(value.trailing_zeros())
}

/// Fold a 64-bit value down to `bits` bits by XOR-ing `bits`-wide chunks.
///
/// Used to build well-distributed table indices out of page numbers and
/// signatures without a multiplicative hash (matching the cheap hardware
/// index functions prefetcher papers assume).
#[inline]
pub const fn xor_fold(mut value: u64, bits: u32) -> u64 {
    debug_assert!(bits > 0 && bits < 64);
    let mask = (1u64 << bits) - 1;
    let mut out = 0u64;
    while value != 0 {
        out ^= value & mask;
        value >>= bits;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_of_powers() {
        for shift in 0..63 {
            assert_eq!(checked_log2("x", 1 << shift).unwrap(), shift);
        }
    }

    #[test]
    fn log2_rejects_non_powers() {
        for v in [0u64, 3, 6, 100, u64::MAX] {
            let err = checked_log2("ways", v).unwrap_err();
            assert!(err.to_string().contains("ways"));
        }
    }

    #[test]
    fn xor_fold_stays_in_range() {
        for v in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert!(xor_fold(v, 9) < 512);
        }
    }

    #[test]
    fn xor_fold_distributes_consecutive_pages() {
        // Consecutive page numbers must not collapse onto one index.
        let idx: Vec<u64> = (0..16).map(|p| xor_fold(p, 4)).collect();
        let unique: std::collections::HashSet<_> = idx.iter().collect();
        assert_eq!(unique.len(), 16);
    }
}
