//! CPU–FPGA interconnect models.
//!
//! A transfer of `n` bytes costs `setup_latency + n / (efficiency(n) · ideal_bw)`.
//! The *efficiency curve* captures what a documented peak bandwidth never tells
//! you: protocol framing, DMA descriptor overheads, driver bounce-buffer limits.
//! The paper derives its `alpha` parameters by microbenchmarking one transfer
//! size; [`crate::microbench`] reproduces that procedure against these models —
//! including the failure mode where the probed size is unrepresentative
//! (the 2-D PDF case study's 6x communication underestimate).

use crate::time::SimTime;
use rat_core::quantity::{Bytes, Seconds, Throughput};
use rat_core::throughput::transfer_seconds;

/// Transfer direction, named from the host's perspective (matching the paper:
/// "write" moves input data host→FPGA, "read" returns results FPGA→host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Host → FPGA (input data).
    Write,
    /// FPGA → host (results).
    Read,
}

/// Piecewise-linear sustained-efficiency curve over transfer size.
///
/// Points are `(payload_bytes, efficiency)` with `0 < efficiency <= 1`; sizes
/// between points interpolate linearly in `log2(size)`, sizes outside the table
/// clamp to the nearest endpoint. Curves need not be monotone — real driver
/// stacks have cliffs (e.g. when a transfer exceeds a pinned bounce buffer).
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaCurve {
    points: Vec<(u64, f64)>,
}

impl AlphaCurve {
    /// A size-independent efficiency.
    pub fn flat(efficiency: f64) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1], got {efficiency}"
        );
        Self {
            points: vec![(1, efficiency)],
        }
    }

    /// Build from `(payload_bytes, efficiency)` breakpoints.
    ///
    /// Panics if empty, not strictly increasing in size, or with any efficiency
    /// outside `(0, 1]`.
    pub fn from_points(points: Vec<(u64, f64)>) -> Self {
        assert!(!points.is_empty(), "AlphaCurve needs at least one point");
        for w in points.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "AlphaCurve sizes must be strictly increasing"
            );
        }
        for &(size, eff) in &points {
            assert!(size > 0, "AlphaCurve sizes must be positive");
            assert!(
                eff > 0.0 && eff <= 1.0,
                "efficiency must be in (0, 1], got {eff}"
            );
        }
        Self { points }
    }

    /// The `(payload_bytes, efficiency)` breakpoints defining this curve.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Sustained efficiency for a transfer of `bytes`.
    pub fn efficiency(&self, bytes: u64) -> f64 {
        let bytes = bytes.max(1);
        let first = self.points[0];
        let last = *self.points.last().expect("non-empty by construction");
        if bytes <= first.0 {
            return first.1;
        }
        if bytes >= last.0 {
            return last.1;
        }
        // Find the bracketing pair and interpolate in log2(size).
        for w in self.points.windows(2) {
            let (s0, e0) = w[0];
            let (s1, e1) = w[1];
            if bytes >= s0 && bytes <= s1 {
                let x = ((bytes as f64).log2() - (s0 as f64).log2())
                    / ((s1 as f64).log2() - (s0 as f64).log2());
                return e0 + x * (e1 - e0);
            }
        }
        unreachable!("bytes within table range must bracket")
    }
}

/// A CPU–FPGA interconnect: peak bandwidth, per-transfer setup latency, and
/// direction-specific efficiency curves.
#[derive(Debug, Clone)]
pub struct Interconnect {
    /// Human-readable name (e.g. "133MHz 64-bit PCI-X").
    pub name: String,
    /// Documented peak bandwidth (the paper's `throughput_ideal`).
    pub ideal_bw: Throughput,
    /// Fixed cost to start a host→FPGA transfer (DMA descriptor setup, doorbell).
    pub setup_write: SimTime,
    /// Fixed cost to start an FPGA→host transfer.
    pub setup_read: SimTime,
    /// Sustained-efficiency curve for host→FPGA payload movement.
    pub alpha_write: AlphaCurve,
    /// Sustained-efficiency curve for FPGA→host payload movement.
    pub alpha_read: AlphaCurve,
    /// Largest single DMA the driver programs. Payloads beyond this split into
    /// chunks, each paying the setup latency — the mechanism behind many real
    /// drivers' large-transfer throughput plateaus. `None` disables splitting.
    pub max_dma_bytes: Option<u64>,
}

impl Interconnect {
    /// Time for one transfer of `bytes` in `dir`: setup latency plus payload time
    /// at the sustained rate for that size, chunked by [`Self::max_dma_bytes`].
    /// Zero-byte transfers take zero time.
    pub fn transfer_time(&self, bytes: u64, dir: Direction) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        let (setup, curve) = match dir {
            Direction::Write => (self.setup_write, &self.alpha_write),
            Direction::Read => (self.setup_read, &self.alpha_read),
        };
        // All payload durations flow through the shared Eq. (1)–(3) kernel in
        // `rat_core::throughput` — the analytic model and this simulator can
        // never disagree on what a byte costs on the wire.
        let payload = |n: u64| transfer_seconds(Bytes::new(n), curve.efficiency(n), self.ideal_bw);
        match self.max_dma_bytes {
            Some(max) if bytes > max => {
                assert!(max > 0, "max_dma_bytes must be positive");
                let full_chunks = bytes / max;
                let tail = bytes % max;
                let mut total = SimTime::from_seconds(payload(max) * full_chunks as f64);
                for _ in 0..full_chunks {
                    total += setup;
                }
                if tail > 0 {
                    total += setup + SimTime::from_seconds(payload(tail));
                }
                total
            }
            _ => setup + SimTime::from_seconds(payload(bytes)),
        }
    }

    /// Effective end-to-end bandwidth for a transfer of `bytes`, setup latency
    /// included. This is what a microbenchmark observes.
    pub fn effective_bandwidth(&self, bytes: u64, dir: Direction) -> Throughput {
        let t = self.transfer_time(bytes, dir).as_seconds();
        if t == Seconds::ZERO {
            Throughput::from_bytes_per_sec(0.0)
        } else {
            Bytes::new(bytes) / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_bus() -> Interconnect {
        Interconnect {
            name: "test".into(),
            ideal_bw: Throughput::from_bytes_per_sec(1.0e9),
            setup_write: SimTime::from_us(2),
            setup_read: SimTime::from_us(10),
            alpha_write: AlphaCurve::flat(0.8),
            alpha_read: AlphaCurve::flat(0.8),
            max_dma_bytes: None,
        }
    }

    #[test]
    fn flat_curve_is_size_independent() {
        let c = AlphaCurve::flat(0.5);
        assert_eq!(c.efficiency(1), 0.5);
        assert_eq!(c.efficiency(1 << 30), 0.5);
    }

    #[test]
    fn curve_interpolates_in_log_size() {
        let c = AlphaCurve::from_points(vec![(1024, 0.2), (4096, 0.6)]);
        assert_eq!(c.efficiency(1024), 0.2);
        assert_eq!(c.efficiency(4096), 0.6);
        // 2048 is the log-midpoint of 1024..4096.
        assert!((c.efficiency(2048) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn curve_clamps_outside_table() {
        let c = AlphaCurve::from_points(vec![(1024, 0.2), (4096, 0.6)]);
        assert_eq!(c.efficiency(1), 0.2);
        assert_eq!(c.efficiency(1 << 20), 0.6);
    }

    #[test]
    fn non_monotone_curves_allowed() {
        // Bounce-buffer cliff: efficiency collapses for large transfers.
        let c = AlphaCurve::from_points(vec![(2048, 0.16), (16384, 0.35), (262144, 0.027)]);
        assert!(c.efficiency(16384) > c.efficiency(2048));
        assert!(c.efficiency(262144) < c.efficiency(2048));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_points_panic() {
        AlphaCurve::from_points(vec![(4096, 0.5), (1024, 0.2)]);
    }

    #[test]
    #[should_panic(expected = "in (0, 1]")]
    fn zero_efficiency_panics() {
        AlphaCurve::flat(0.0);
    }

    #[test]
    fn transfer_time_includes_setup() {
        let bus = test_bus();
        // 8000 bytes at 0.8 * 1 GB/s = 10 us payload + 2 us setup.
        let t = bus.transfer_time(8000, Direction::Write);
        assert_eq!(t, SimTime::from_us(12));
    }

    #[test]
    fn zero_bytes_is_free() {
        let bus = test_bus();
        assert_eq!(bus.transfer_time(0, Direction::Read), SimTime::ZERO);
    }

    #[test]
    fn setup_dominates_small_reads() {
        let bus = test_bus();
        let t = bus.transfer_time(4, Direction::Read);
        // 4 bytes payload is ~5 ns; setup is 10 us.
        assert!(t > SimTime::from_us(10));
        assert!(t < SimTime::from_us(11));
    }

    #[test]
    fn dma_chunking_pays_setup_per_chunk() {
        let mut bus = test_bus();
        bus.max_dma_bytes = Some(4000);
        // 12,000 bytes = 3 full chunks: 3 setups (2 us each) + 15 us payload.
        let t = bus.transfer_time(12_000, Direction::Write);
        assert_eq!(t, SimTime::from_us(3 * 2 + 15));
        // With a tail: 10,000 bytes = 2 full + 2000 tail = 3 setups (6 us)
        // + 12.5 us payload = 18.5 us.
        let t = bus.transfer_time(10_000, Direction::Write);
        assert_eq!(t, SimTime::from_ps(18_500_000));
    }

    #[test]
    fn chunking_never_speeds_a_transfer_up() {
        let mut chunked = test_bus();
        chunked.max_dma_bytes = Some(4096);
        let whole = test_bus();
        for bytes in [100u64, 4096, 5000, 100_000, 1 << 20] {
            let tc = chunked.transfer_time(bytes, Direction::Read);
            let tw = whole.transfer_time(bytes, Direction::Read);
            assert!(tc >= tw, "{bytes} bytes: chunked {tc} < whole {tw}");
        }
    }

    #[test]
    fn transfers_within_the_dma_limit_are_unaffected() {
        let mut bus = test_bus();
        bus.max_dma_bytes = Some(8192);
        let whole = test_bus();
        assert_eq!(
            bus.transfer_time(8192, Direction::Write),
            whole.transfer_time(8192, Direction::Write)
        );
    }

    #[test]
    fn effective_bandwidth_below_ideal_and_grows_with_size() {
        let bus = test_bus();
        let small = bus.effective_bandwidth(2048, Direction::Write);
        let large = bus.effective_bandwidth(1 << 22, Direction::Write);
        assert!(small < large);
        assert!(large < bus.ideal_bw);
        // Large transfers approach the sustained (alpha-limited) rate.
        assert!(large.bytes_per_sec() > 0.79e9);
    }
}
