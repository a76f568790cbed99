//! Discrete-event FPGA co-processor platform simulator.
//!
//! The RAT paper validates its analytical predictions against wall-clock
//! measurements of real FPGA platforms (a Nallatech H101-PCIXM card on PCI-X and
//! an XtremeData XD1000 on HyperTransport). This crate is the reproduction's
//! stand-in for that hardware: a simulator detailed enough to exhibit the
//! *mechanisms* that made the paper's predictions err —
//!
//! - per-transfer interconnect setup latency that dominates small transfers
//!   (1-D PDF's communication came in 4.5x over prediction),
//! - sustained-bandwidth curves that differ by transfer size from what a
//!   single-size microbenchmark suggests (2-D PDF's 6x communication miss),
//! - pipeline fill/drain and stall cycles that shave ~15–40% off ideal
//!   operations-per-cycle,
//! - data-dependent computation whose cycle count is a function of the actual
//!   dataset (molecular dynamics),
//! - host API call and kernel-synchronization overheads invisible to the
//!   analytical model.
//!
//! # Architecture
//!
//! - [`time::SimTime`]: picosecond-resolution simulation time.
//! - [`queue::EventQueue`]: deterministic discrete-event queue.
//! - [`interconnect::Interconnect`]: bus models with setup latency and a
//!   size-dependent sustained-efficiency curve ([`interconnect::AlphaCurve`]).
//! - [`kernel`]: the [`kernel::HardwareKernel`] trait and stock implementations
//!   ([`pipeline::PipelinedKernel`], [`kernel::TabulatedKernel`]).
//! - [`platform::Platform`]: a host + interconnect + FPGA assembly that executes
//!   an [`platform::AppRun`] under single- or double-buffered scheduling and
//!   returns a [`platform::Measurement`] with a full [`trace::Trace`].
//! - [`trace::TraceSink`]: where spans go during execution — a materialized
//!   [`trace::FullTrace`], a counting [`trace::SummarySink`], or a
//!   [`trace::NullSink`] for trace-free summary runs, which additionally
//!   unlock steady-state fast-forward ([`platform::FastForward`]): periodic
//!   schedules are detected and skipped arithmetically, bit-identically to
//!   exhaustive simulation.
//! - [`microbench`]: derive the "alpha" sustained-fraction parameters the same
//!   way the paper does — by timing simulated transfers.
//! - [`catalog`]: the two platforms the paper evaluates, plus a generic PCIe-like
//!   profile.
//!
//! # Example
//!
//! ```
//! use fpga_sim::catalog;
//! use fpga_sim::kernel::TabulatedKernel;
//! use fpga_sim::platform::{AppRun, BufferMode, Platform};
//! use rat_core::quantity::Freq;
//!
//! let platform = Platform::new(catalog::nallatech_h101());
//! let kernel = TabulatedKernel::uniform("demo", 1000, 4); // 4 batches, 1000 cycles each
//! let run = AppRun::builder()
//!     .iterations(4)
//!     .input_bytes_per_iter(2048)
//!     .output_bytes_per_iter(2048)
//!     .buffer_mode(BufferMode::Double)
//!     .build();
//! let m = platform.execute(&kernel, &run, Freq::from_mhz(100.0)).unwrap();
//! assert!(m.total.as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod cache;
pub mod catalog;
pub mod digest;
pub mod host;
pub mod interconnect;
pub mod kernel;
pub mod microbench;
pub mod pipeline;
pub mod platform;
pub mod queue;
pub mod time;
pub mod trace;

pub use cache::{CacheStats, SimCache, SimSummary};
pub use digest::{run_key, SpecDigest};
pub use interconnect::{AlphaCurve, Direction, Interconnect};
pub use kernel::{Batch, HardwareKernel, TabulatedKernel};
pub use pipeline::{PipelineSpec, PipelinedKernel, StallModel};
pub use platform::{AppRun, BufferMode, FastForward, Measurement, Platform, PlatformSpec};
pub use time::SimTime;
pub use trace::{FullTrace, NullSink, SummarySink, Trace, TraceSink};
