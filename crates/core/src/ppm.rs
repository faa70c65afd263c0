//! The Page-size Propagation Module (PPM) itself.
//!
//! PPM's mechanism (§IV-A of the paper):
//!
//! 1. first-level caches are VIPT, so on an L1D miss the page size of the
//!    missed block is available as address-translation metadata;
//! 2. PPM stores that page size as **one extra bit** in the L1D MSHR entry
//!    (`psa_cache::MshrMeta::huge` in this codebase);
//! 3. L2C prefetchers engage on L2C accesses — i.e. L1 misses — so the bit
//!    travels to the prefetcher with the request stream.
//!
//! Storage overhead: 1 bit per L1D MSHR entry for two concurrent page
//! sizes; `ceil(log2(N))` bits for `N` page sizes ([`Ppm::bits_required`]).
//!
//! In this simulator the type decides whether the prefetching module sees
//! the page size at all (original prefetchers do not) and audits that the
//! MSHR bit equals the translation's page size. Because the bit is the
//! translation's page size, the "Magic" oracle of the paper's motivation
//! sections (§III-B/III-C) sees the same value: PPM loses nothing relative
//! to magic propagation, and this simulator builds one machine for both.

use psa_common::PageSize;

/// Where the prefetching module's page-size bit comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageSizeSource {
    /// No information: the module must assume 4KB (original prefetchers).
    #[default]
    None,
    /// The bit stored in the L1D MSHR entry by PPM.
    Ppm,
}

/// PPM as the prefetching module sees it: resolves the page size of each
/// access and audits that the MSHR bit equals the translation's page size.
/// Holds configuration only, so it carries no state into a snapshot.
#[derive(Debug, Clone, Default)]
pub struct Ppm {
    source: PageSizeSource,
}

impl Ppm {
    /// A module reading page size from `source`.
    pub fn new(source: PageSizeSource) -> Self {
        Self { source }
    }

    /// The configured source.
    pub fn source(&self) -> PageSizeSource {
        self.source
    }

    /// Bits PPM must add to each L1D MSHR entry to distinguish `n`
    /// concurrently supported page sizes (§IV-A1, "Additional Page Sizes").
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn bits_required(n: u32) -> u32 {
        assert!(n > 0, "at least one page size");
        u32::BITS - (n - 1).leading_zeros()
    }

    /// Resolve the page size the prefetcher sees for one L2C access.
    ///
    /// `mshr_bit` is the page-size bit the L1D MSHR carried for this miss;
    /// `oracle` is the true page size from the page table. With
    /// [`PageSizeSource::None`] the result is always 4KB (original
    /// prefetcher behaviour); with `Ppm` the MSHR bit is used.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the PPM bit disagrees with the oracle — that would
    /// mean the propagation path corrupted the metadata.
    pub fn resolve(&self, mshr_bit: bool, oracle: PageSize) -> PageSize {
        debug_assert_eq!(
            PageSize::from_bit(mshr_bit),
            oracle,
            "PPM bit must match the translation metadata"
        );
        match self.source {
            PageSizeSource::None => PageSize::Size4K,
            PageSizeSource::Ppm => PageSize::from_bit(mshr_bit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_overhead_formula() {
        // Two page sizes (4KB + 2MB): one bit, as the paper states.
        assert_eq!(Ppm::bits_required(2), 1);
        // 4KB + 2MB + 1GB: two bits.
        assert_eq!(Ppm::bits_required(3), 2);
        assert_eq!(Ppm::bits_required(4), 2);
        assert_eq!(Ppm::bits_required(5), 3);
        assert_eq!(Ppm::bits_required(1), 0);
    }

    #[test]
    fn none_source_always_4k() {
        let p = Ppm::new(PageSizeSource::None);
        assert_eq!(p.resolve(true, PageSize::Size2M), PageSize::Size4K);
        assert_eq!(p.resolve(false, PageSize::Size4K), PageSize::Size4K);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "PPM bit must match")]
    fn corrupted_bit_is_caught() {
        let p = Ppm::new(PageSizeSource::Ppm);
        p.resolve(false, PageSize::Size2M);
    }
}
