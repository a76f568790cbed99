//! # RAT — RC Amenability Test
//!
//! A Rust reproduction of *"RAT: A Methodology for Predicting Performance in
//! Application Design Migration to FPGAs"* (Holland, Nagarajan, Conger, Jacobs,
//! George — HPRCTA'07). This facade crate re-exports the workspace's public API:
//!
//! - [`core`] ([`rat_core`]): the RAT methodology — throughput equations,
//!   utilization metrics, inverse solvers, worksheets, precision and resource
//!   tests, sweeps, sensitivity and uncertainty analysis.
//! - [`sim`] ([`fpga_sim`]): a discrete-event FPGA co-processor platform
//!   simulator used as the validation substrate (interconnects, pipelined
//!   kernels, buffering schedules, traces).
//! - [`fixed`] ([`fixedpoint`]): fixed-point arithmetic with error and
//!   dynamic-range analysis, backing the numerical-precision test.
//! - [`apps`] ([`rat_apps`]): the paper's three case studies — 1-D/2-D
//!   Parzen-window PDF estimation and molecular dynamics.
//!
//! ## Quickstart
//!
//! ```
//! use rat::core::worksheet::Worksheet;
//!
//! // The paper's Table 2: 1-D PDF estimation on a Nallatech H101 (V4 LX100).
//! let input = rat::apps::pdf1d::rat_input(150.0e6);
//! let report = Worksheet::new(input).analyze().unwrap();
//! assert!(report.speedup > 10.0 && report.speedup < 11.0);
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub use fixedpoint as fixed;
pub use fpga_sim as sim;
pub use rat_core as core;

/// The paper's case-study applications.
pub mod apps {
    pub use rat_apps::pdf::{pdf1d, pdf2d};
    pub use rat_apps::{datagen, md, pdf, sort};
}
