//! # RC Amenability Test (RAT)
//!
//! An implementation of the RAT methodology from *"RAT: A Methodology for
//! Predicting Performance in Application Design Migration to FPGAs"* (Holland,
//! Nagarajan, Conger, Jacobs, George — HPRCTA'07). RAT answers, **before any
//! hardware is written**, whether a specific application design on a specific
//! FPGA platform is likely to meet its performance goals, using three tests:
//!
//! 1. **Throughput** ([`throughput`], [`worksheet`]): closed-form predictions
//!    of communication time (Eqs. 1–3), computation time (Eq. 4), total RC
//!    execution time under single/double buffering (Eqs. 5–6), speedup
//!    (Eq. 7), and utilizations (Eqs. 8–11).
//! 2. **Numerical precision** ([`precision`]): is the chosen number format's
//!    error within tolerance, and is a cheaper format available?
//! 3. **Resources** ([`resources`]): does the design fit the device?
//!
//! Beyond the paper's worksheet, this crate adds the machinery a practicing
//! team needs around it: inverse solvers ([`solve`]) for "what throughput_proc
//! do I need for 10x?", parameter sweeps ([`sweep`]), local sensitivity
//! analysis ([`sensitivity`]), Monte-Carlo uncertainty propagation
//! ([`uncertainty`]), multi-kernel application analysis ([`multistage`]), the
//! Figure-1 methodology flow as an executable state machine ([`methodology`]),
//! and a deterministic parallel job executor ([`engine`]) the batch analyses
//! run on.
//!
//! Every dimensioned model input and output is a typed quantity from
//! [`quantity`] — [`quantity::Bytes`], [`quantity::Freq`],
//! [`quantity::Seconds`], [`quantity::Throughput`] — so unit mistakes (MHz
//! where Hz was meant, Mbps where MB/s was meant) are compile errors rather
//! than silently wrong predictions. See `DESIGN.md` §10 for the conventions.
//!
//! ## Example: the paper's §4.3 worked example
//!
//! ```
//! use rat_core::params::*;
//! use rat_core::quantity::{Freq, Seconds, Throughput};
//! use rat_core::worksheet::Worksheet;
//!
//! // Table 2: 1-D PDF estimation at fclock = 150 MHz.
//! let input = RatInput {
//!     name: "1-D PDF".into(),
//!     dataset: DatasetParams { elements_in: 512, elements_out: 1, bytes_per_element: 4 },
//!     comm: CommParams {
//!         ideal_bandwidth: Throughput::from_mbytes_per_sec(1000.0),
//!         alpha_write: 0.37,
//!         alpha_read: 0.16,
//!     },
//!     comp: CompParams {
//!         ops_per_element: 768.0,
//!         throughput_proc: 20.0,
//!         fclock: Freq::from_mhz(150.0),
//!     },
//!     software: SoftwareParams { t_soft: Seconds::new(0.578), iterations: 400 },
//!     buffering: Buffering::Single,
//! };
//! let report = Worksheet::new(input).analyze().unwrap();
//! assert!((report.throughput.t_comp.seconds() - 1.31e-4).abs() < 1e-6); // §4.3: 1.31E-4 s
//! assert!((report.speedup - 10.6).abs() < 0.1);                         // Table 3: 10.6
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod breakeven;
pub mod clock;
pub mod comparison;
pub mod engine;
pub mod error;
pub mod explore;
pub mod methodology;
pub mod multifpga;
pub mod multistage;
pub mod optimize;
pub mod params;
pub mod precision;
pub mod quantity;
pub mod report;
pub mod resources;
pub mod sensitivity;
pub mod simd;
pub mod solve;
pub mod streaming;
pub mod sweep;
pub mod table;
pub mod telemetry;
pub mod throughput;
pub mod uncertainty;
pub mod utilization;
pub mod validation;
pub mod worksheet;

pub use error::RatError;
pub use params::{Buffering, CommParams, CompParams, DatasetParams, RatInput, SoftwareParams};
pub use quantity::{Bytes, Cycles, Elements, Freq, Seconds, Throughput};
pub use report::Report;
pub use throughput::ThroughputPrediction;
pub use worksheet::Worksheet;
