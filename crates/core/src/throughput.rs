//! The RAT throughput test: Equations (1) through (7), and the assembly of
//! Eqs. (5)–(11) every analysis shares.
//!
//! Predicted performance is two terms — CPU↔FPGA communication time and FPGA
//! computation time — combined per the buffering discipline, then held against
//! the software baseline for a speedup figure. Reconfiguration and setup times
//! are ignored, exactly as the paper specifies.
//!
//! Every function here returns a typed [`Seconds`] (or a dimensionless `f64`
//! for ratios), so a caller cannot confuse a per-iteration time with a cycle
//! count or a rate.
//!
//! Eqs. (2)–(4) are written once as kernels over quantities, and
//! Eqs. (5)–(11) plus the comm-bound ceiling once over one point's terms
//! (`rc_seconds`, `predict`, `ceiling`). The per-input functions below read
//! [`RatInput`] fields into them; [`crate::solve::batch`] reads decoded
//! columns into the same ones.

use crate::error::RatError;
use crate::params::{Buffering, RatInput};
use crate::quantity::{Bytes, Freq, Seconds, Throughput};
use crate::utilization;

/// The transfer-time kernel shared by Equations (1)–(3):
/// `t = bytes / (efficiency * throughput_ideal)`.
///
/// This is the **single** implementation of the paper's communication-time
/// arithmetic. The analytic worksheet ([`t_write`]/[`t_read`]) and the cycle
/// simulator's interconnect model both call it, so the two can never diverge
/// (`tests/comm_time_dedup.rs` pins this).
#[inline]
pub fn transfer_seconds(bytes: Bytes, efficiency: f64, ideal_bandwidth: Throughput) -> Seconds {
    bytes / (efficiency * ideal_bandwidth)
}

/// Equation (2): time to write one iteration's input block host→FPGA.
///
/// `t_write = N_elements,in * N_bytes/elt / (alpha_write * throughput_ideal)`
pub fn t_write(input: &RatInput) -> Seconds {
    transfer_seconds(
        input.input_bytes(),
        input.comm.alpha_write,
        input.comm.ideal_bandwidth,
    )
}

/// Equation (3): time to read one iteration's output block FPGA→host.
pub fn t_read(input: &RatInput) -> Seconds {
    transfer_seconds(
        input.output_bytes(),
        input.comm.alpha_read,
        input.comm.ideal_bandwidth,
    )
}

/// Equation (1): total communication time per iteration.
pub fn t_comm(input: &RatInput) -> Seconds {
    t_write(input) + t_read(input)
}

/// The computation-time kernel of Equation (4):
/// `t = elements * ops_per_element / (f_clock * throughput_proc)`.
#[inline]
pub(crate) fn compute_seconds(elements: u64, ops: f64, fclock: Freq, tp: f64) -> Seconds {
    elements as f64 * ops / (fclock * tp)
}

/// Equation (4): computation time per iteration.
///
/// `t_comp = N_elements,in * N_ops/elt / (f_clock * throughput_proc)`
pub fn t_comp(input: &RatInput) -> Seconds {
    let (elements, c) = (input.dataset.elements_in, &input.comp);
    compute_seconds(elements, c.ops_per_element, c.fclock, c.throughput_proc)
}

/// Equation (5) or (6): the RC time of `iterations` iterations, serialized
/// (single buffering) or overlapped (double buffering, steady state).
#[inline]
pub(crate) fn rc_seconds(
    t_comm: Seconds,
    t_comp: Seconds,
    iterations: u64,
    buffering: Buffering,
) -> Seconds {
    let iterations = iterations as f64;
    match buffering {
        Buffering::Single => iterations * (t_comm + t_comp),
        Buffering::Double => iterations * t_comm.max(t_comp),
    }
}

/// [`rc_seconds`] on `input`'s own terms.
fn t_rc_under(input: &RatInput, buffering: Buffering) -> Seconds {
    let iterations = input.software.iterations;
    rc_seconds(t_comm(input), t_comp(input), iterations, buffering)
}

/// Equation (5): single-buffered RC execution time.
pub fn t_rc_single(input: &RatInput) -> Seconds {
    t_rc_under(input, Buffering::Single)
}

/// Equation (6): double-buffered RC execution time (steady-state overlap).
pub fn t_rc_double(input: &RatInput) -> Seconds {
    t_rc_under(input, Buffering::Double)
}

/// RC execution time under the input's buffering assumption.
pub fn t_rc(input: &RatInput) -> Seconds {
    t_rc_under(input, input.buffering)
}

/// Equation (7): predicted speedup over the software baseline (dimensionless).
pub fn speedup(input: &RatInput) -> f64 {
    input.software.t_soft / t_rc(input)
}

/// All throughput-test outputs for one input, in one struct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPrediction {
    /// Per-iteration input (host→FPGA) transfer time, Eq. (2).
    pub t_write: Seconds,
    /// Per-iteration output (FPGA→host) transfer time, Eq. (3).
    pub t_read: Seconds,
    /// Per-iteration communication time, Eq. (1).
    pub t_comm: Seconds,
    /// Per-iteration computation time, Eq. (4).
    pub t_comp: Seconds,
    /// Total RC execution time, Eq. (5) or (6) per the buffering assumption.
    pub t_rc: Seconds,
    /// Speedup over software, Eq. (7).
    pub speedup: f64,
    /// Communication utilization, Eq. (9) or (11).
    pub util_comm: f64,
    /// Computation utilization, Eq. (8) or (10).
    pub util_comp: f64,
    /// Buffering assumption the prediction was made under.
    pub buffering: Buffering,
}

impl ThroughputPrediction {
    /// Validate `input` and run the complete throughput test on it.
    pub fn analyze(input: &RatInput) -> Result<Self, RatError> {
        input.validate()?;
        Ok(predict(
            t_write(input),
            t_read(input),
            t_comp(input),
            input.software.iterations,
            input.software.t_soft,
            input.buffering,
        ))
    }

    /// Whether the design is communication-bound (`t_comm > t_comp`). For a
    /// communication-bound design, double buffering cannot rescue throughput —
    /// the channel itself is the bottleneck, and the paper notes it is a
    /// single, serialized resource.
    pub fn comm_bound(&self) -> bool {
        self.t_comm > self.t_comp
    }
}

/// Equations (5)–(11) for one design point from its per-iteration terms
/// (Eqs. 2–4), iteration count and software baseline. Inlined, a caller
/// that reads only some fields pays only for those.
#[inline]
pub(crate) fn predict(
    t_write: Seconds,
    t_read: Seconds,
    t_comp: Seconds,
    iterations: u64,
    t_soft: Seconds,
    buffering: Buffering,
) -> ThroughputPrediction {
    let t_comm = t_write + t_read;
    let t_rc = rc_seconds(t_comm, t_comp, iterations, buffering);
    let (util_comp, util_comm) = match buffering {
        Buffering::Single => (
            utilization::util_comp_single(t_comm, t_comp),
            utilization::util_comm_single(t_comm, t_comp),
        ),
        Buffering::Double => (
            utilization::util_comp_double(t_comm, t_comp),
            utilization::util_comm_double(t_comm, t_comp),
        ),
    };
    ThroughputPrediction {
        t_write,
        t_read,
        t_comm,
        t_comp,
        t_rc,
        speedup: t_soft / t_rc,
        util_comm,
        util_comp,
        buffering,
    }
}

/// The speedup ceiling as computation becomes infinitely fast: the
/// communication-bound limit `t_soft / (N_iter * t_comm)`.
#[inline]
pub(crate) fn ceiling(t_comm: Seconds, iterations: u64, t_soft: Seconds) -> f64 {
    t_soft / (iterations as f64 * t_comm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;
    use crate::quantity::Freq;

    /// §4.3 works the 150 MHz case end to end; Table 3 lists all three clocks.
    #[test]
    fn paper_worked_example_tcomp() {
        let input = pdf1d_example();
        // "t_comp = 512 * 768 / (150 MHz * 20 ops/cycle) = 1.31E-4 secs"
        assert!((t_comp(&input).seconds() - 1.31072e-4).abs() < 1e-9);
    }

    #[test]
    fn paper_worked_example_tcomm() {
        let input = pdf1d_example();
        // Write: 2048 B at 0.37 GB/s = 5.54e-6; read: 4 B at 0.16 GB/s = 2.5e-8.
        assert!((t_write(&input).seconds() - 5.5351e-6).abs() < 1e-9);
        assert!((t_read(&input).seconds() - 2.5e-8).abs() < 1e-10);
        // Table 3: t_comm = 5.56E-6 s.
        assert!((t_comm(&input).seconds() - 5.56e-6).abs() < 5e-9);
    }

    #[test]
    fn paper_worked_example_trc_and_speedup() {
        let input = pdf1d_example();
        // "t_RC_SB = 400 * (5.56E-6 + 1.31E-4) = 5.46E-2 secs"
        assert!((t_rc_single(&input).seconds() - 5.46e-2).abs() < 2e-4);
        // Table 3: speedup 10.6 at 150 MHz.
        assert!((speedup(&input) - 10.6).abs() < 0.05);
    }

    #[test]
    fn table3_all_three_clocks() {
        // (fclock MHz, t_comp, t_RC, speedup) — the paper's predicted columns.
        let cases = [
            (75.0e6, 2.62e-4, 1.07e-1, 5.4),
            (100.0e6, 1.97e-4, 8.09e-2, 7.2),
            (150.0e6, 1.31e-4, 5.46e-2, 10.6),
        ];
        for (f, tc, trc, sp) in cases {
            let input = pdf1d_example().with_fclock(Freq::from_hz(f));
            assert!(
                (t_comp(&input).seconds() - tc).abs() / tc < 0.01,
                "t_comp at {f} Hz: {} vs paper {tc}",
                t_comp(&input)
            );
            assert!(
                (t_rc(&input).seconds() - trc).abs() / trc < 0.01,
                "t_RC at {f} Hz: {} vs paper {trc}",
                t_rc(&input)
            );
            assert!(
                (speedup(&input) - sp).abs() / sp < 0.01,
                "speedup at {f} Hz: {} vs paper {sp}",
                speedup(&input)
            );
        }
    }

    #[test]
    fn double_buffering_hides_the_smaller_term() {
        let input = pdf1d_example();
        let db = t_rc_double(&input);
        // Compute-bound: DB time is iterations * t_comp.
        assert!((db - 400.0 * t_comp(&input)).seconds().abs() < 1e-12);
        assert!(db < t_rc_single(&input));
    }

    #[test]
    fn db_equals_sb_only_when_one_term_vanishes() {
        // As t_comm -> 0, SB -> DB.
        let mut input = pdf1d_example();
        input.comm.alpha_write = 1.0;
        input.comm.alpha_read = 1.0;
        // effectively free communication
        input.comm.ideal_bandwidth = Throughput::from_bytes_per_sec(1e18);
        let sb = t_rc_single(&input);
        let db = t_rc_double(&input);
        assert!((sb - db) / sb < 1e-6);
    }

    #[test]
    fn prediction_struct_is_consistent() {
        let input = pdf1d_example();
        let p = ThroughputPrediction::analyze(&input).unwrap();
        assert_eq!(p.t_comm, t_comm(&input));
        assert_eq!(p.t_comp, t_comp(&input));
        assert_eq!(p.t_rc, t_rc(&input));
        assert_eq!(p.speedup, speedup(&input));
        assert!(!p.comm_bound(), "1-D PDF is compute-bound");
        // SB utilizations partition the iteration.
        assert!((p.util_comm + p.util_comp - 1.0).abs() < 1e-12);
        // Table 3: util_comm 4% at 150 MHz.
        assert!((p.util_comm - 0.04).abs() < 0.005);
    }

    #[test]
    fn analyze_rejects_invalid_input() {
        let mut input = pdf1d_example();
        input.comm.alpha_read = 0.0;
        assert!(ThroughputPrediction::analyze(&input).is_err());
    }

    #[test]
    fn speedup_scales_linearly_with_fclock_when_compute_dominates() {
        let input = pdf1d_example().with_buffering(Buffering::Double);
        let s100 = speedup(&input.with_fclock(Freq::from_mhz(100.0)));
        let s150 = speedup(&input.with_fclock(Freq::from_mhz(150.0)));
        // DB + compute-bound: speedup strictly proportional to clock.
        assert!((s150 / s100 - 1.5).abs() < 1e-9);
    }
}
