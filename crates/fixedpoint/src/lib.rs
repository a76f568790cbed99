//! Runtime-parameterized fixed-point arithmetic for FPGA design-space exploration.
//!
//! FPGA datapaths use custom bit-widths: an 18-bit fixed-point multiply maps onto a
//! single Xilinx 18x18 MAC, while 32-bit needs two. Choosing the narrowest format
//! that stays within an application's error tolerance is the essence of the RAT
//! numerical-precision test (Holland et al., HPRCTA'07, §3.2). This crate provides:
//!
//! - [`QFormat`]: a signed/unsigned Q-number format with configurable integer and
//!   fractional bit counts (up to 63 total bits),
//! - [`Fx`]: a fixed-point value carrying its format, with saturating/wrapping
//!   arithmetic and explicit rounding,
//! - [`error::ErrorStats`]: error accumulation against a reference computation
//!   (max absolute/relative error, RMS, SNR),
//! - [`range::RangeAnalysis`]: dynamic-range scan of sample data to size the
//!   integer field,
//! - [`search`]: minimal-bit-width search under an error tolerance, the
//!   automated analogue of the paper's "18-bit fixed point had only ~2% max
//!   error" design decision.
//!
//! # Example
//!
//! ```
//! use fixedpoint::{QFormat, Fx, Rounding, Overflow};
//!
//! // Q1.17 in 18 bits, the format the paper's PDF kernel uses.
//! let fmt = QFormat::signed(0, 17).unwrap();
//! let a = Fx::from_f64(0.25, fmt, Rounding::Nearest, Overflow::Saturate);
//! let b = Fx::from_f64(0.50, fmt, Rounding::Nearest, Overflow::Saturate);
//! let sum = a.add(b, Overflow::Saturate);
//! assert_eq!(sum.to_f64(), 0.75);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod error;
pub mod float;
pub mod format;
pub mod range;
pub mod search;
pub mod value;

pub use error::ErrorStats;
pub use float::MiniFloat;
pub use format::{Overflow, QFormat, Rounding};
pub use range::RangeAnalysis;
pub use value::Fx;
