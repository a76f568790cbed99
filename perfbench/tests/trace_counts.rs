//! The traced replay's counts repeat exactly for a fixed seed: response-cache
//! hits and misses, stage hits and misses, optimize evaluations and front
//! size, simulator events and engine jobs.
//!
//! Alone in its own test binary: the replays read the process-wide
//! telemetry collector, which tests running beside them would also feed.

use rat_core::telemetry::Metric;
use rat_perfbench::replay::{self, ServeSizes};

/// Small enough for a test, large enough that the cache evicts.
const SIZES: ServeSizes = ServeSizes {
    budget: 256 << 10,
    measured: 600,
    telemetry_ops: 50,
};

#[test]
fn traced_counts_repeat_for_a_fixed_seed() {
    let unique = |seed| replay::serve_unique(seed, SIZES).expect("unique replay");
    let (a, b) = (unique(11), unique(11));
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.warmup_ops, b.warmup_ops);
    assert_eq!(
        (a.raw_hit_ratio, a.canonical_hit_ratio),
        (b.raw_hit_ratio, b.canonical_hit_ratio)
    );
    assert_eq!(a.mismatches, 0, "{:?}", a.first_mismatch);
    assert!(a.counts.get(Metric::ResponseCacheMisses) > 0);
    assert!(a.counts.get(Metric::SimEvents) > 0);
    assert!(a.counts.get(Metric::StageHits) + a.counts.get(Metric::StageMisses) > 0);
    assert!(
        a.cache_bytes as f64 >= 0.9 * 2.0 * SIZES.budget as f64,
        "cache never filled"
    );

    let hot = |seed| replay::serve_hot(seed, SIZES).expect("hot replay");
    let (h1, h2) = (hot(11), hot(11));
    assert_eq!(h1.counts, h2.counts);
    assert_eq!(
        h1.raw_hit_ratio, 1.0,
        "every timed hot request hits the raw tier"
    );

    let design = |seed| replay::design(seed, 2, &[]).expect("design replay");
    let (d1, d2) = (design(11), design(11));
    assert_eq!(d1.counts, d2.counts);
    assert_eq!(d1.mismatches, 0, "{:?}", d1.first_mismatch);
    assert!(d1.evals_per_op > 0.0 && d1.front_per_op > 0.0);
    assert!(d1.counts.get(Metric::EngineJobs) > 0);

    assert_ne!(unique(12).counts, a.counts, "another seed, other counts");
}
