//! Q-number format descriptions.

use std::fmt;

/// Maximum total width (sign + integer + fractional bits) supported by [`QFormat`].
///
/// Raw values are stored in `i64`; 63 data bits plus sign is the widest that fits.
pub const MAX_TOTAL_BITS: u32 = 63;

/// A fixed-point number format: `Q<int_bits>.<frac_bits>`, optionally signed.
///
/// The representable value of a raw integer `r` is `r / 2^frac_bits`. For a signed
/// format the total width is `1 + int_bits + frac_bits` (one sign bit); for an
/// unsigned format it is `int_bits + frac_bits`.
///
/// `QFormat::signed(0, 17)` is the 18-bit format the RAT paper's PDF estimation
/// kernel uses (one sign bit, 17 fractional bits, values in `[-1, 1)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    signed: bool,
    int_bits: u32,
    frac_bits: u32,
}

/// Rounding mode applied when a value is quantized to fewer fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Round to the nearest representable value; ties away from zero.
    ///
    /// This is the default because it halves the worst-case quantization error
    /// relative to truncation (ULP/2 instead of ULP).
    #[default]
    Nearest,
    /// Round toward negative infinity (drop the extra bits). This is what a bare
    /// right-shift does in hardware and is the cheapest option in logic.
    Floor,
    /// Round toward zero.
    TowardZero,
    /// Round toward positive infinity.
    Ceil,
}

/// Overflow policy applied when a value exceeds the format's range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Overflow {
    /// Clamp to the nearest representable extreme. Typical for DSP datapaths.
    #[default]
    Saturate,
    /// Two's-complement wraparound, as unguarded hardware adders do.
    Wrap,
}

/// Error returned when constructing an invalid [`QFormat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError(String);

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fixed-point format: {}", self.0)
    }
}

impl std::error::Error for FormatError {}

impl QFormat {
    /// A signed format with `int_bits` integer bits and `frac_bits` fractional bits
    /// (plus an implicit sign bit).
    pub fn signed(int_bits: u32, frac_bits: u32) -> Result<Self, FormatError> {
        Self::new(true, int_bits, frac_bits)
    }

    /// An unsigned format with `int_bits` integer bits and `frac_bits` fractional bits.
    pub fn unsigned(int_bits: u32, frac_bits: u32) -> Result<Self, FormatError> {
        Self::new(false, int_bits, frac_bits)
    }

    fn new(signed: bool, int_bits: u32, frac_bits: u32) -> Result<Self, FormatError> {
        let data_bits = int_bits
            .checked_add(frac_bits)
            .ok_or_else(|| FormatError("bit counts overflow".into()))?;
        let total = data_bits + u32::from(signed);
        if total == 0 {
            return Err(FormatError("zero-width format".into()));
        }
        if total > MAX_TOTAL_BITS {
            return Err(FormatError(format!(
                "total width {total} exceeds the supported maximum of {MAX_TOTAL_BITS} bits"
            )));
        }
        Ok(Self {
            signed,
            int_bits,
            frac_bits,
        })
    }

    /// Whether the format has a sign bit.
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// Number of integer bits (excluding any sign bit).
    pub fn int_bits(&self) -> u32 {
        self.int_bits
    }

    /// Number of fractional bits.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Total storage width in bits, including the sign bit if signed.
    pub fn total_bits(&self) -> u32 {
        self.int_bits + self.frac_bits + u32::from(self.signed)
    }

    /// The smallest raw value representable in this format.
    pub fn raw_min(&self) -> i64 {
        if self.signed {
            -(1i64 << (self.int_bits + self.frac_bits))
        } else {
            0
        }
    }

    /// The largest raw value representable in this format.
    pub fn raw_max(&self) -> i64 {
        let data_bits = self.int_bits + self.frac_bits;
        if data_bits == 63 {
            i64::MAX
        } else {
            (1i64 << data_bits) - 1
        }
    }

    /// The smallest representable real value.
    pub fn min_value(&self) -> f64 {
        self.raw_min() as f64 * self.ulp()
    }

    /// The largest representable real value.
    pub fn max_value(&self) -> f64 {
        self.raw_max() as f64 * self.ulp()
    }

    /// The value of one unit in the last place: `2^-frac_bits`.
    pub fn ulp(&self) -> f64 {
        (2.0f64).powi(-(self.frac_bits as i32))
    }

    /// Whether `value` lies within this format's representable range.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.min_value() && value <= self.max_value()
    }

    /// Clamp `raw` into the format's raw range (saturation) or wrap it
    /// (two's-complement), per `policy`.
    pub(crate) fn fit_raw(&self, raw: i64, policy: Overflow) -> i64 {
        let (lo, hi) = (self.raw_min(), self.raw_max());
        if raw >= lo && raw <= hi {
            return raw;
        }
        match policy {
            Overflow::Saturate => raw.clamp(lo, hi),
            Overflow::Wrap => {
                let span = (hi as i128) - (lo as i128) + 1;
                let off = (raw as i128 - lo as i128).rem_euclid(span);
                (lo as i128 + off) as i64
            }
        }
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix = if self.signed { "Q" } else { "UQ" };
        write!(f, "{prefix}{}.{}", self.int_bits, self.frac_bits)
    }
}

impl std::str::FromStr for QFormat {
    type Err = FormatError;

    /// Parse the `Display` notation: `Q<int>.<frac>` (signed) or
    /// `UQ<int>.<frac>` (unsigned), e.g. `Q0.17`, `UQ8.0`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (signed, rest) = if let Some(r) = s.strip_prefix("UQ") {
            (false, r)
        } else if let Some(r) = s.strip_prefix('Q') {
            (true, r)
        } else {
            return Err(FormatError(format!("'{s}' must start with Q or UQ")));
        };
        let (i, f) = rest
            .split_once('.')
            .ok_or_else(|| FormatError(format!("'{s}' needs an int.frac pair")))?;
        let int_bits: u32 = i
            .parse()
            .map_err(|e| FormatError(format!("bad integer bits in '{s}': {e}")))?;
        let frac_bits: u32 = f
            .parse()
            .map_err(|e| FormatError(format!("bad fractional bits in '{s}': {e}")))?;
        Self::new(signed, int_bits, frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_17_is_the_paper_pdf_format() {
        let fmt = QFormat::signed(0, 17).unwrap();
        assert_eq!(fmt.total_bits(), 18);
        assert_eq!(fmt.min_value(), -1.0);
        assert!(fmt.max_value() < 1.0);
        assert!((fmt.max_value() - (1.0 - fmt.ulp())).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(QFormat::signed(3, 4).unwrap().to_string(), "Q3.4");
        assert_eq!(QFormat::unsigned(8, 0).unwrap().to_string(), "UQ8.0");
    }

    #[test]
    fn rejects_zero_and_oversized_widths() {
        assert!(QFormat::unsigned(0, 0).is_err());
        assert!(QFormat::signed(0, 0).is_ok()); // sign bit alone: 1-bit format
        assert!(QFormat::signed(40, 23).is_err()); // 64 bits total
        assert!(QFormat::signed(40, 22).is_ok()); // 63 bits total
        assert!(QFormat::unsigned(63, 0).is_ok());
        assert!(QFormat::unsigned(64, 0).is_err());
    }

    #[test]
    fn raw_range_signed() {
        let fmt = QFormat::signed(1, 2).unwrap(); // 4-bit total
        assert_eq!(fmt.raw_min(), -8);
        assert_eq!(fmt.raw_max(), 7);
        assert_eq!(fmt.min_value(), -2.0);
        assert_eq!(fmt.max_value(), 1.75);
    }

    #[test]
    fn raw_range_unsigned() {
        let fmt = QFormat::unsigned(2, 2).unwrap();
        assert_eq!(fmt.raw_min(), 0);
        assert_eq!(fmt.raw_max(), 15);
        assert_eq!(fmt.max_value(), 3.75);
    }

    #[test]
    fn fit_raw_saturates_at_both_ends() {
        let fmt = QFormat::signed(1, 2).unwrap();
        assert_eq!(fmt.fit_raw(100, Overflow::Saturate), 7);
        assert_eq!(fmt.fit_raw(-100, Overflow::Saturate), -8);
        assert_eq!(fmt.fit_raw(3, Overflow::Saturate), 3);
    }

    #[test]
    fn fit_raw_wraps_modularly() {
        let fmt = QFormat::signed(1, 2).unwrap(); // raw range [-8, 7], span 16
        assert_eq!(fmt.fit_raw(8, Overflow::Wrap), -8);
        assert_eq!(fmt.fit_raw(-9, Overflow::Wrap), 7);
        assert_eq!(fmt.fit_raw(23, Overflow::Wrap), 7);
        assert_eq!(fmt.fit_raw(24, Overflow::Wrap), -8);
    }

    #[test]
    fn ulp_halves_per_fractional_bit() {
        assert_eq!(QFormat::signed(0, 1).unwrap().ulp(), 0.5);
        assert_eq!(QFormat::signed(0, 10).unwrap().ulp(), 1.0 / 1024.0);
    }

    #[test]
    fn widest_format_raw_max() {
        let fmt = QFormat::unsigned(63, 0).unwrap();
        assert_eq!(fmt.raw_max(), i64::MAX);
    }

    #[test]
    fn parse_round_trips_display() {
        for fmt in [
            QFormat::signed(0, 17).unwrap(),
            QFormat::signed(3, 4).unwrap(),
            QFormat::unsigned(8, 0).unwrap(),
            QFormat::unsigned(0, 31).unwrap(),
        ] {
            let parsed: QFormat = fmt.to_string().parse().unwrap();
            assert_eq!(parsed, fmt);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("X0.17".parse::<QFormat>().is_err());
        assert!("Q017".parse::<QFormat>().is_err());
        assert!("Q0.abc".parse::<QFormat>().is_err());
        assert!("Q40.23".parse::<QFormat>().is_err()); // 64 bits total
        assert!("Qx.1".parse::<QFormat>().is_err());
    }
}
