//! Memory-address synthesis for the workload generators.
//!
//! The paper observes that "for a certain application, the memory addresses it
//! touches differ only in the lower 20 bits" (§IV-B); the XOR distribution
//! function of Nexus# exploits exactly that. [`AddrRegion`] hands out 48-bit
//! addresses that mimic this layout: a fixed high part per allocation region and
//! a dense, stride-separated low part, so the distribution-function study in
//! Fig. 3 and the distribution ablation of the paper report see realistic
//! inputs.

use serde::{Deserialize, Serialize};

/// Mask of the 48 address bits the hardware manager considers.
pub const ADDR_MASK_48: u64 = (1 << 48) - 1;

/// A contiguous allocation region handing out representative parameter
/// addresses (e.g. one per image line, matrix block or macroblock row).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AddrRegion {
    base: u64,
    stride: u64,
    issued: u64,
}

impl AddrRegion {
    /// Creates a region starting at `base` (clamped to 48 bits) with a given
    /// stride between consecutive objects.
    ///
    /// # Panics
    /// Panics if `stride` is zero.
    pub fn new(base: u64, stride: u64) -> Self {
        assert!(stride > 0, "address stride must be non-zero");
        AddrRegion {
            base: base & ADDR_MASK_48,
            stride,
            issued: 0,
        }
    }

    /// A region laid out like a typical heap allocation of the benchmark data:
    /// 64-byte cache-line stride, with the region index selecting bits above
    /// bit 20 so that different logical arrays of the same application still
    /// share the high bits (the paper's observation).
    pub fn benchmark_array(region_index: u64) -> Self {
        // High part common to the whole application; distinct arrays are offset
        // by 1 MiB so they only differ in bits [20..24) and below.
        let base = 0x7f3a_0000_0000u64 + region_index * (1 << 20);
        AddrRegion::new(base, 64)
    }

    /// Address of the `i`-th object of the region (does not advance the cursor).
    #[inline]
    pub fn addr(&self, i: u64) -> u64 {
        (self.base + i * self.stride) & ADDR_MASK_48
    }

    /// Hands out the next address in the region.
    // Not an `Iterator`: this never ends and returns `u64` directly, and the
    // generator call-sites read better with a plain method.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let a = self.addr(self.issued);
        self.issued += 1;
        a
    }

    /// Number of addresses handed out via [`AddrRegion::next`].
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Base address of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Stride between consecutive objects.
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

/// Address of a 2-D object (e.g. a macroblock or matrix block) within a region
/// laid out row-major.
pub fn addr_2d(region: &AddrRegion, row: u64, col: u64, cols: u64) -> u64 {
    region.addr(row * cols + col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_48_bit_and_strided() {
        let r = AddrRegion::new(0x1_2345_6789_0000, 64);
        assert_eq!(r.base() >> 48, 0, "base must be clamped to 48 bits");
        assert_eq!(r.base(), 0x2345_6789_0000);
        assert_eq!(r.addr(1) - r.addr(0), 64);
        assert_eq!(r.addr(10) - r.addr(0), 640);
    }

    #[test]
    fn next_advances_cursor() {
        let mut r = AddrRegion::new(0x1000, 8);
        assert_eq!(r.next(), 0x1000);
        assert_eq!(r.next(), 0x1008);
        assert_eq!(r.issued(), 2);
        assert_eq!(r.stride(), 8);
    }

    #[test]
    fn benchmark_arrays_share_high_bits() {
        let a = AddrRegion::benchmark_array(0);
        let b = AddrRegion::benchmark_array(5);
        // Arrays of the same application differ only in the low ~23 bits.
        assert_eq!(a.base() >> 24, b.base() >> 24);
        assert_ne!(a.base(), b.base());
    }

    #[test]
    fn addr_2d_is_row_major() {
        let r = AddrRegion::new(0, 4);
        assert_eq!(addr_2d(&r, 0, 0, 10), 0);
        assert_eq!(addr_2d(&r, 0, 3, 10), 12);
        assert_eq!(addr_2d(&r, 2, 3, 10), (2 * 10 + 3) * 4);
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_rejected() {
        let _ = AddrRegion::new(0, 0);
    }
}
