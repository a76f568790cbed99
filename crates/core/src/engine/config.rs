//! Engine configuration.

/// Configuration for an analysis [`super::Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for the job pool. `0` means "one per hardware thread".
    pub jobs: usize,
    /// Root seed for per-job RNG streams ([`super::job_rng`]). Defaults to
    /// 2007, the paper's publication year and the seed the seed-repo analyses
    /// were calibrated against.
    pub root_seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 0,
            root_seed: 2007,
        }
    }
}

impl EngineConfig {
    /// Set the worker-thread count (`0` = hardware parallelism).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Set the root seed for per-job RNG streams.
    pub fn with_root_seed(mut self, seed: u64) -> Self {
        self.root_seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_auto_threads_cached_paper_seed() {
        let c = EngineConfig::default();
        assert_eq!(c.jobs, 0);
        assert_eq!(c.root_seed, 2007);
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::default().with_jobs(4).with_root_seed(99);
        assert_eq!(
            c,
            EngineConfig {
                jobs: 4,
                root_seed: 99,
            }
        );
    }
}
