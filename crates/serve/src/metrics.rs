//! Server-side observability: request counters, a fixed-bucket latency
//! histogram, and the plaintext `GET /metrics` rendering.
//!
//! The pipeline's own counters (engine jobs, simulator events, cache hits)
//! live in a `rat_core::telemetry` collector, which counts with span
//! recording off; [`ServerMetrics::render`] reads them from it with
//! [`Telemetry::counter`]. Nothing in a daemon drains that collector, so
//! each `pipeline_*` line is cumulative over the process's lifetime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use fpga_sim::CacheStats;
use rat_core::telemetry::{Metric, Telemetry};

/// The status codes the server can emit, in rendering order.
pub const STATUSES: [u16; 9] = [200, 400, 404, 405, 408, 413, 422, 500, 503];

/// Latency histogram with power-of-two microsecond buckets: bucket `i`
/// counts requests in `[2^i, 2^(i+1))` µs, with the last bucket open-ended.
/// Fixed buckets keep recording lock-free-cheap (one index computation, one
/// add under the caller's lock) and render compactly.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; Histogram::BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Histogram {
    /// Bucket count: `2^31` µs ≈ 36 minutes in the top open-ended bucket.
    pub const BUCKETS: usize = 32;

    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; Histogram::BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    fn bucket_index(us: u64) -> usize {
        ((64 - us.leading_zeros()).saturating_sub(1) as usize).min(Histogram::BUCKETS - 1)
    }

    /// Record one request latency.
    pub fn record(&mut self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_index(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Total recorded requests.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Estimate quantile `q` in microseconds (upper bucket bound), `None`
    /// while empty. Bucket resolution makes this an estimate within 2x,
    /// which is plenty to tell a 40 µs warm hit from a 40 ms cold miss.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if i + 1 >= Histogram::BUCKETS {
                    self.max_us
                } else {
                    (1u64 << (i + 1)) - 1
                });
            }
        }
        Some(self.max_us)
    }

    /// Render as `latency_us_bucket{le="..."} n` lines plus count/sum/max.
    pub fn render(&self, out: &mut String) {
        let mut cumulative = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if *n == 0 {
                continue;
            }
            let le = if i + 1 >= Histogram::BUCKETS {
                "+Inf".to_string()
            } else {
                format!("{}", 1u64 << (i + 1))
            };
            out.push_str(&format!("latency_us_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("latency_us_count {}\n", self.count));
        out.push_str(&format!("latency_us_sum {}\n", self.sum_us));
        out.push_str(&format!("latency_us_max {}\n", self.max_us));
        for (label, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
            if let Some(v) = self.quantile_us(q) {
                out.push_str(&format!("latency_us_{label} {v}\n"));
            }
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Cumulative server metrics shared by every worker.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections rejected with 503 because the queue was full.
    pub rejected_busy: AtomicU64,
    /// Responses by status code, indexed like [`STATUSES`].
    status_counts: [AtomicU64; STATUSES.len()],
    /// Latency histogram over all served requests.
    latency: Mutex<Histogram>,
}

impl ServerMetrics {
    /// A zeroed collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one response with `status`, taking `latency` from queue-entry
    /// to response-written.
    pub fn observe(&self, status: u16, latency: Duration) {
        if let Some(i) = STATUSES.iter().position(|s| *s == status) {
            self.status_counts[i].fetch_add(1, Ordering::Relaxed);
        }
        self.latency.lock().expect("latency lock").record(latency);
    }

    /// Total responses with `status` so far.
    pub fn status_count(&self, status: u16) -> u64 {
        STATUSES
            .iter()
            .position(|s| *s == status)
            .map(|i| self.status_counts[i].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Render the plaintext `/metrics` body: serve-layer counters, the
    /// latency histogram, `pipeline`'s counters, the live simulator-cache
    /// statistics, and (when the response cache is on) the
    /// rendered-response cache occupancy.
    pub fn render(
        &self,
        pipeline: &Telemetry,
        cache: &CacheStats,
        queue_depth: usize,
        queue_high_water: usize,
        workers: usize,
        responses: Option<crate::respcache::ResponseCacheStats>,
    ) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("serve_workers {workers}\n"));
        out.push_str(&format!("serve_queue_depth {queue_depth}\n"));
        out.push_str(&format!(
            "serve_queue_depth_high_water {queue_high_water}\n"
        ));
        out.push_str(&format!(
            "serve_accepted_total {}\n",
            self.accepted.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "serve_rejected_busy_total {}\n",
            self.rejected_busy.load(Ordering::Relaxed)
        ));
        for (i, s) in STATUSES.iter().enumerate() {
            let n = self.status_counts[i].load(Ordering::Relaxed);
            if n > 0 {
                out.push_str(&format!("serve_responses_total{{status=\"{s}\"}} {n}\n"));
            }
        }
        self.latency.lock().expect("latency lock").render(&mut out);
        for m in Metric::ALL {
            out.push_str(&format!(
                "pipeline_{} {}\n",
                m.name().replace('.', "_"),
                pipeline.counter(m)
            ));
        }
        out.push_str(&format!("cache_hits {}\n", cache.hits));
        out.push_str(&format!("cache_misses {}\n", cache.misses));
        out.push_str(&format!("cache_entries {}\n", cache.entries));
        out.push_str(&format!(
            "cache_shard_contention {}\n",
            cache.shard_contention
        ));
        if let Some(r) = responses {
            out.push_str(&format!("response_cache_entries {}\n", r.entries));
            out.push_str(&format!("response_cache_bytes {}\n", r.bytes));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_power_of_two_microseconds() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(u64::MAX), Histogram::BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_recorded_latencies() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), None);
        for _ in 0..99 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(50));
        let p50 = h.quantile_us(0.50).unwrap();
        let p999 = h.quantile_us(0.999).unwrap();
        assert!(
            p50 <= 31,
            "p50 estimate {p50} should be in the 10 µs bucket"
        );
        assert!(
            p999 >= 32_768,
            "p999 estimate {p999} should see the 50 ms outlier"
        );
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn render_includes_counters_and_cache_stats() {
        let m = ServerMetrics::new();
        m.accepted.fetch_add(3, Ordering::Relaxed);
        m.observe(200, Duration::from_micros(100));
        m.observe(422, Duration::from_micros(200));
        let stats = CacheStats {
            hits: 7,
            misses: 2,
            entries: 2,
            shard_contention: 1,
        };
        // A private collector with span recording off: its counters still
        // count, and rendering reads them without resetting them.
        let pipeline = Telemetry::new();
        pipeline.add(Metric::ResponseCacheHits, 5);
        pipeline.add(Metric::SimEvents, 40);
        pipeline.gauge_max(Metric::QueueHighWater, 6);
        pipeline.gauge_max(Metric::QueueHighWater, 2);
        let text = m.render(
            &pipeline,
            &stats,
            4,
            9,
            2,
            Some(crate::respcache::ResponseCacheStats {
                entries: 3,
                bytes: 1234,
            }),
        );
        assert!(text.contains("serve_workers 2"), "{text}");
        assert!(text.contains("serve_queue_depth 4"), "{text}");
        assert!(text.contains("serve_queue_depth_high_water 9"), "{text}");
        assert!(text.contains("serve_accepted_total 3"), "{text}");
        assert!(
            text.contains("serve_responses_total{status=\"200\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("serve_responses_total{status=\"422\"} 1"),
            "{text}"
        );
        assert!(text.contains("latency_us_count 2"), "{text}");
        assert!(text.contains("cache_hits 7"), "{text}");
        assert!(text.contains("cache_shard_contention 1"), "{text}");
        // The simulator cache's counters appear once, from its own stats.
        for gone in ["hits", "misses", "shard_contention"] {
            assert!(!text.contains(&format!("pipeline_cache_{gone}")), "{text}");
        }
        assert!(text.contains("pipeline_sim_events 40\n"), "{text}");
        assert!(text.contains("pipeline_sim_queue_high_water 6\n"), "{text}");
        assert_eq!(pipeline.counter(Metric::SimEvents), 40);
        assert!(text.contains("pipeline_mc_samples 0"), "{text}");
        // The stage-graph counters are part of the schema even when idle:
        // dashboards scrape them unconditionally.
        assert!(text.contains("pipeline_stage_hits 0"), "{text}");
        assert!(text.contains("pipeline_stage_misses 0"), "{text}");
        assert!(text.contains("pipeline_stage_comm_hits 0"), "{text}");
        assert!(text.contains("pipeline_stage_comm_misses 0"), "{text}");
        assert!(!text.contains("pipeline_stage_resource"), "{text}");
        // The serving-layer counters added with the response cache and the
        // solve coalescer are likewise always present.
        assert!(text.contains("pipeline_cache_response_hits 5\n"), "{text}");
        assert!(text.contains("pipeline_cache_response_misses 0"), "{text}");
        assert!(
            text.contains("pipeline_cache_response_inflight_waits 0"),
            "{text}"
        );
        assert!(text.contains("pipeline_coalesce_batches 0"), "{text}");
        assert!(text.contains("pipeline_coalesce_requests 0"), "{text}");
        assert!(text.contains("response_cache_entries 3"), "{text}");
        assert!(text.contains("response_cache_bytes 1234"), "{text}");
    }
}
