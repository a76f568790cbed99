//! `rat-perfbench`: the repository's benchmark. It drives the release `rat`
//! binary from outside on three workloads (`serve_unique`, `serve_hot`,
//! `design_search`), checks every output against the in-process render, and
//! in a separate traced run replays the same generated ops through each
//! layer's public functions. See `perfbench/README.md`.

pub mod client;
pub mod design;
pub mod expect;
pub mod gen;
pub mod host;
pub mod replay;
pub mod serve;
pub mod stats;

/// The workloads, in the order the README describes them.
pub const WORKLOADS: [&str; 3] = ["serve_unique", "serve_hot", "design_search"];

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// One slice of a timed window: a fixed interval of serve load, or one
/// rotation of design_search ops. Rates and per-op costs are taken per
/// slice and reported as the median slice, so a burst of hypervisor steal
/// moves a few slices rather than the whole figure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    pub wall_s: f64,
    pub ok: u64,
    pub cpu_s: f64,
}

/// What one end-to-end run measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// Median set-up time over the run's repeated set-ups (s).
    pub setup_s: f64,
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    /// Wall time of the timed window (s).
    pub wall_s: f64,
    /// Client-observed latency of each op (ns).
    pub latencies_ns: Vec<u64>,
    /// CPU time of the program under test over the window (s).
    pub cpu_s: f64,
    /// Peak resident set of the program under test (KiB).
    pub rss_kib: i64,
    pub slices: Vec<Slice>,
    pub first_error: Option<String>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
    /// The daemon's `/metrics` right after the window (serve workloads).
    pub metrics_text: Option<String>,
}

impl E2e {
    /// Median over slices of successful ops per second.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.wall_s > 0.0)
            .map(|s| s.ok as f64 / s.wall_s)
            .collect();
        stats::median(&rates)
    }

    /// Median over slices of program CPU per successful op (µs).
    pub fn cpu_us_per_op(&self) -> f64 {
        let costs: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.ok > 0)
            .map(|s| s.cpu_s * 1e6 / s.ok as f64)
            .collect();
        stats::median(&costs)
    }

    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        v
    }

    /// The five end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let sorted = self.sorted_latencies();
        let p50_ns = stats::median(&sorted.iter().map(|&x| x as f64).collect::<Vec<_>>());
        vec![
            ("setup_s", self.setup_s, "s"),
            ("ops_per_s", self.ops_per_s(), "1/s"),
            ("latency_p50_us", p50_ns / 1e3, "us"),
            ("cpu_us_per_op", self.cpu_us_per_op(), "us"),
            ("rss_peak_mb", self.rss_kib as f64 / 1024.0, "MiB"),
        ]
    }
}

/// The benchmark's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`. Non-finite values print as 0 so the line stays JSON.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
