//! Address and cache-line newtypes.
//!
//! The simulator distinguishes *virtual* addresses (what the traced program
//! sees) from *physical* addresses (what the caches below L1 and the DRAM
//! see). Confusing the two spaces is the classic source of prefetcher bugs —
//! and the entire premise of the paper is that L2C/LLC prefetchers only see
//! physical addresses — so the two spaces get distinct types that cannot be
//! mixed accidentally.

use std::fmt;

/// Cache line (block) size in bytes, matching the paper's 64-byte blocks.
pub const LINE_BYTES: u64 = 64;
/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// The page sizes the simulated system supports concurrently.
///
/// The paper's evaluation targets x86 with Linux THP enabled, which
/// transparently provides 4KB and 2MB pages (1GB pages require manual
/// `hugetlbfs` mapping and are out of scope, exactly as in the paper).
///
/// In PPM this enum is what the single MSHR page-size bit encodes:
/// `0 → Size4K`, `1 → Size2M`.
///
/// ```
/// use psa_common::PageSize;
/// assert_eq!(PageSize::Size4K.lines(), 64);
/// assert_eq!(PageSize::Size2M.lines(), 32_768);
/// assert_eq!(PageSize::from_bit(true), PageSize::Size2M);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PageSize {
    /// Standard 4KB page.
    #[default]
    Size4K,
    /// 2MB large page (Linux THP).
    Size2M,
}

impl PageSize {
    /// Page size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => 4096,
            PageSize::Size2M => 2 * 1024 * 1024,
        }
    }

    /// log2 of the page size in bytes (12 or 21).
    #[inline]
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Size4K => 12,
            PageSize::Size2M => 21,
        }
    }

    /// Number of 64-byte cache lines the page holds (64 or 32768).
    #[inline]
    pub const fn lines(self) -> u64 {
        self.bytes() / LINE_BYTES
    }

    /// log2 of [`PageSize::lines`] (6 or 15).
    #[inline]
    pub const fn line_shift(self) -> u32 {
        self.shift() - LINE_SHIFT
    }

    /// Maximum in-page line delta magnitude a prefetcher may speculate with:
    /// 64 for 4KB pages and 32768 for 2MB pages (paper §III-C, footnote 4).
    #[inline]
    pub const fn max_delta(self) -> i64 {
        self.lines() as i64
    }

    /// Decode the MSHR page-size bit (`false` → 4KB, `true` → 2MB).
    #[inline]
    pub const fn from_bit(bit: bool) -> Self {
        if bit {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        }
    }

    /// Encode as the MSHR page-size bit.
    #[inline]
    pub const fn bit(self) -> bool {
        matches!(self, PageSize::Size2M)
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => f.write_str("4KB"),
            PageSize::Size2M => f.write_str("2MB"),
        }
    }
}

macro_rules! addr_type {
    ($(#[$doc:meta])* $name:ident, $line:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Wrap a raw byte address.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw byte address.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// The cache line containing this address.
            #[inline]
            pub const fn line(self) -> $line {
                $line(self.0 >> LINE_SHIFT)
            }

            /// Page number of the page of `size` containing this address.
            #[inline]
            pub const fn page_number(self, size: PageSize) -> u64 {
                self.0 >> size.shift()
            }

            /// Byte offset within the page of `size` containing this address.
            #[inline]
            pub const fn page_offset(self, size: PageSize) -> u64 {
                self.0 & (size.bytes() - 1)
            }

            /// Address rounded down to the start of its page of `size`.
            #[inline]
            pub const fn page_base(self, size: PageSize) -> Self {
                Self(self.0 & !(size.bytes() - 1))
            }

            /// Line count of a page of `size`; convenience re-export used in
            /// doc examples.
            #[inline]
            pub const fn page_size_lines(self, size: PageSize) -> u64 {
                let _ = self;
                size.lines()
            }

            /// Add a signed byte offset, saturating at zero.
            #[inline]
            pub fn offset(self, delta: i64) -> Self {
                Self(self.0.saturating_add_signed(delta))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self::new(raw)
            }
        }

        $(#[$doc])*
        ///
        /// This is the *line-number* companion type: the byte address shifted
        /// right by [`LINE_SHIFT`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $line(u64);

        impl $line {
            /// Wrap a raw line number (byte address >> 6).
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw line number.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// First byte address of the line.
            #[inline]
            pub const fn addr(self) -> $name {
                $name(self.0 << LINE_SHIFT)
            }

            /// Page number of the page of `size` containing this line.
            #[inline]
            pub const fn page_number(self, size: PageSize) -> u64 {
                self.0 >> size.line_shift()
            }

            /// Line index within its page of `size`
            /// (0..64 for 4KB, 0..32768 for 2MB).
            #[inline]
            pub const fn page_offset(self, size: PageSize) -> u64 {
                self.0 & (size.lines() - 1)
            }

            /// Apply a signed line delta; `None` on numeric underflow.
            #[inline]
            pub fn checked_add(self, delta: i64) -> Option<Self> {
                self.0.checked_add_signed(delta).map(Self)
            }

            /// Whether `self` and `other` lie in the same page of `size`.
            #[inline]
            pub const fn same_page(self, other: Self, size: PageSize) -> bool {
                self.page_number(size) == other.page_number(size)
            }
        }

        impl fmt::Display for $line {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "line {:#x}", self.0)
            }
        }

        impl From<u64> for $line {
            fn from(raw: u64) -> Self {
                Self::new(raw)
            }
        }
    };
}

addr_type!(
    /// A **virtual** byte address, as seen by the traced program, the L1
    /// caches and the TLB hierarchy.
    VAddr,
    VLine
);

macro_rules! persist_addr {
    ($($ty:ident),*) => {
        $(impl crate::codec::Persist for $ty {
            fn save(&self, e: &mut crate::codec::Enc) {
                e.put_u64(self.0);
            }
            fn load(
                &mut self,
                d: &mut crate::codec::Dec,
            ) -> Result<(), crate::codec::CodecError> {
                self.0 = d.get_u64()?;
                Ok(())
            }
        })*
    };
}

persist_addr!(VAddr, VLine, PAddr, PLine);

impl crate::codec::Persist for PageSize {
    fn save(&self, e: &mut crate::codec::Enc) {
        e.put_u8(u8::from(self.bit()));
    }
    fn load(&mut self, d: &mut crate::codec::Dec) -> Result<(), crate::codec::CodecError> {
        *self = match d.get_u8()? {
            0 => PageSize::Size4K,
            1 => PageSize::Size2M,
            _ => return Err(crate::codec::CodecError::Corrupt("page size tag")),
        };
        Ok(())
    }
}

addr_type!(
    /// A **physical** byte address, as seen by the L2C, LLC, DRAM and — the
    /// paper's focus — the lower-level cache prefetchers.
    PAddr,
    PLine
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_constants_match_paper() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Size4K.lines(), 64);
        assert_eq!(PageSize::Size2M.lines(), 32768);
        // Paper footnote 4: deltas range ±64 in 4KB pages, ±32768 in 2MB.
        assert_eq!(PageSize::Size4K.max_delta(), 64);
        assert_eq!(PageSize::Size2M.max_delta(), 32768);
    }

    #[test]
    fn page_size_bit_roundtrip() {
        for size in [PageSize::Size4K, PageSize::Size2M] {
            assert_eq!(PageSize::from_bit(size.bit()), size);
        }
        assert!(!PageSize::Size4K.bit());
        assert!(PageSize::Size2M.bit());
    }

    #[test]
    fn line_extraction() {
        let a = PAddr::new(0x1234_5678);
        assert_eq!(a.line().raw(), 0x1234_5678 >> 6);
        assert_eq!(a.line().addr().raw(), 0x1234_5678 & !0x3f);
    }

    #[test]
    fn page_number_and_offset() {
        let a = VAddr::new(0x0020_1040);
        assert_eq!(a.page_number(PageSize::Size4K), 0x201);
        assert_eq!(a.page_offset(PageSize::Size4K), 0x40);
        assert_eq!(a.page_number(PageSize::Size2M), 0x1);
        assert_eq!(a.page_base(PageSize::Size2M).raw(), 0x0020_0000);
    }

    #[test]
    fn line_page_geometry() {
        // Line 64 is the first line of the second 4KB page.
        let l = PLine::new(64);
        assert_eq!(l.page_number(PageSize::Size4K), 1);
        assert_eq!(l.page_offset(PageSize::Size4K), 0);
        assert_eq!(l.page_number(PageSize::Size2M), 0);
        assert_eq!(l.page_offset(PageSize::Size2M), 64);
    }

    #[test]
    fn line_delta_arithmetic() {
        let a = PLine::new(100);
        let b = a.checked_add(-36).unwrap();
        assert_eq!(b.raw(), 64);
        assert_eq!(PLine::new(1).checked_add(-2), None);
    }

    #[test]
    fn same_page_respects_size() {
        let a = PLine::new(63);
        let b = PLine::new(64);
        assert!(!a.same_page(b, PageSize::Size4K));
        assert!(a.same_page(b, PageSize::Size2M));
    }

    #[test]
    fn display_formats() {
        assert_eq!(PageSize::Size4K.to_string(), "4KB");
        assert_eq!(PageSize::Size2M.to_string(), "2MB");
        assert_eq!(PAddr::new(0xff).to_string(), "0xff");
        assert_eq!(VLine::new(0x10).to_string(), "line 0x10");
    }

    #[test]
    fn virtual_and_physical_are_distinct_types() {
        fn takes_phys(_: PAddr) {}
        takes_phys(PAddr::new(1));
        // VAddr would not compile here; the distinction is the point.
    }

    #[test]
    fn offset_saturates_at_zero() {
        assert_eq!(PAddr::new(10).offset(-100).raw(), 0);
        assert_eq!(PAddr::new(10).offset(100).raw(), 110);
    }
}
