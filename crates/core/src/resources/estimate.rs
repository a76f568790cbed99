//! Design-side resource estimation.
//!
//! A-priori resource counts are inexact — the paper is frank that "a precise
//! count is nearly impossible without an actual HDL implementation" — but they
//! are "still necessary to avoid creating initial designs that are physically
//! unrealizable." This module provides the accounting helpers RAT expects its
//! users to apply with "vendor-specific knowledge", e.g. the paper's example
//! rule that a 32-bit fixed-point multiply on a Xilinx V4 needs two dedicated
//! 18-bit multipliers.

/// A design's estimated resource usage, in the target device's units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// DSP blocks (vendor granularity).
    pub dsp: u32,
    /// Block RAMs.
    pub bram: u32,
    /// Logic cells (slices / ALUTs per device).
    pub logic: u64,
}

impl ResourceEstimate {
    /// Elementwise sum of two estimates (composing kernels in one design).
    pub fn plus(self, other: ResourceEstimate) -> ResourceEstimate {
        ResourceEstimate {
            dsp: self.dsp + other.dsp,
            bram: self.bram + other.bram,
            logic: self.logic + other.logic,
        }
    }

    /// The estimate for `n` replicated parallel kernels plus this base.
    pub fn replicate(self, n: u32) -> ResourceEstimate {
        ResourceEstimate {
            dsp: self.dsp * n,
            bram: self.bram * n,
            logic: self.logic * u64::from(n),
        }
    }
}

/// Dedicated multipliers needed for one `bits`-wide fixed-point multiply on a
/// device with `native_width`-bit multipliers, using the paper's convention:
/// one per `native_width`-bit span of the operand (the paper's example:
/// "32-bit fixed-point multiplications on Xilinx V4 FPGAs require two
/// dedicated 18-bit multipliers").
pub fn dsps_for_multiplier(bits: u32, native_width: u32) -> u32 {
    assert!(bits > 0 && native_width > 0, "widths must be positive");
    bits.div_ceil(native_width)
}

/// Block RAMs needed to hold `bytes` of buffer, given `bram_bytes` per block.
/// Any non-empty buffer takes at least one block. A count past `u32::MAX`
/// saturates there, so it still fails every device's resource test.
pub fn brams_for_buffer(bytes: u64, bram_bytes: u64) -> u32 {
    assert!(bram_bytes > 0, "block size must be positive");
    u32::try_from(bytes.div_ceil(bram_bytes)).unwrap_or(u32::MAX)
}

/// Bytes in one 18-kbit Xilinx block RAM.
pub const XILINX_BRAM18_BYTES: u64 = 18 * 1024 / 8;

/// Bytes in one Altera M4K block (4.5 kbit including parity; 4 kbit usable).
pub const ALTERA_M4K_BYTES: u64 = 4 * 1024 / 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rule_32bit_needs_two_18bit_multipliers() {
        assert_eq!(dsps_for_multiplier(32, 18), 2);
    }

    #[test]
    fn an_18bit_multiply_fits_one_mac() {
        // The 1-D PDF design chose 18-bit fixed point "so that only one Xilinx
        // 18x18 MAC unit would be needed per multiplication".
        assert_eq!(dsps_for_multiplier(18, 18), 1);
        assert_eq!(dsps_for_multiplier(17, 18), 1);
        assert_eq!(dsps_for_multiplier(19, 18), 2);
    }

    #[test]
    fn wide_multiplies_scale() {
        assert_eq!(dsps_for_multiplier(54, 18), 3);
        assert_eq!(dsps_for_multiplier(64, 18), 4);
    }

    #[test]
    fn bram_counting_rounds_up() {
        assert_eq!(brams_for_buffer(0, XILINX_BRAM18_BYTES), 0);
        assert_eq!(brams_for_buffer(1, XILINX_BRAM18_BYTES), 1);
        assert_eq!(brams_for_buffer(2304, XILINX_BRAM18_BYTES), 1);
        assert_eq!(brams_for_buffer(2305, XILINX_BRAM18_BYTES), 2);
    }

    #[test]
    fn bram_count_saturates_instead_of_wrapping() {
        // 2^32 + 10 blocks used to truncate to 10.
        let bytes = ((1u64 << 32) + 10) * XILINX_BRAM18_BYTES;
        assert_eq!(brams_for_buffer(bytes, XILINX_BRAM18_BYTES), u32::MAX);
        assert_eq!(brams_for_buffer(u64::MAX, ALTERA_M4K_BYTES), u32::MAX);
        let most = u64::from(u32::MAX) * XILINX_BRAM18_BYTES;
        assert_eq!(brams_for_buffer(most, XILINX_BRAM18_BYTES), u32::MAX);
        assert_eq!(brams_for_buffer(most - 1, XILINX_BRAM18_BYTES), u32::MAX);
        assert_eq!(
            brams_for_buffer(most - XILINX_BRAM18_BYTES, XILINX_BRAM18_BYTES),
            u32::MAX - 1
        );
    }

    #[test]
    fn estimates_compose() {
        let a = ResourceEstimate {
            dsp: 2,
            bram: 3,
            logic: 100,
        };
        let b = ResourceEstimate {
            dsp: 1,
            bram: 0,
            logic: 50,
        };
        assert_eq!(
            a.plus(b),
            ResourceEstimate {
                dsp: 3,
                bram: 3,
                logic: 150
            }
        );
        assert_eq!(
            a.replicate(4),
            ResourceEstimate {
                dsp: 8,
                bram: 12,
                logic: 400
            }
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_multiplier_panics() {
        dsps_for_multiplier(0, 18);
    }
}
