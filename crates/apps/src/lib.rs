//! The RAT paper's case-study applications, implemented end to end.
//!
//! Each case study provides four artifacts:
//!
//! 1. a **software baseline** — the real algorithm in Rust (sequential, and
//!    parallel as jobs on the [`rat_core::engine::Engine`] worker pool),
//!    standing in for the paper's C-on-Xeon/Opteron codes;
//! 2. a **hardware design model** — the microarchitecture the paper describes
//!    (e.g. Figure 3's eight parallel pipelines), expressed as an
//!    [`fpga_sim`] kernel with calibrated fill/stall behaviour plus a
//!    [`rat_core`] resource estimate;
//! 3. the **RAT worksheet input** — the paper's Table 2 / 5 / 8 parameters;
//! 4. a **simulated execution** on the corresponding catalog platform,
//!    producing the "actual" columns of Tables 3 / 6 / 9.
//!
//! | Case study | Paper section | Platform |
//! |---|---|---|
//! | [`pdf::pdf1d`] 1-D Parzen-window PDF estimation | §4 | Nallatech H101 (V4 LX100) |
//! | [`pdf::pdf2d`] 2-D Parzen-window PDF estimation | §5.1 | Nallatech H101 (V4 LX100) |
//! | [`pdf::ndim`] d-dimensional generalization | extends §5.1 | Nallatech H101 (V4 LX100) |
//! | [`md`] molecular dynamics | §5.2 | XtremeData XD1000 (EP2S180) |
//! | [`sort`] bitonic sorting (negative result) | §3.1's element example | Nallatech H101 (V4 LX100) |

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod datagen;
pub mod md;
pub mod pdf;
pub mod sort;
