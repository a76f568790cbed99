//! The stages of the analytic chain and their structural hit/miss accounting.
//!
//! The RAT model is a chain of sub-models — communication time (Eqs. 1–3),
//! computation time (Eq. 4), overlap/buffering (Eqs. 5–6 and 8–11), and
//! speedup with its ceiling (Eq. 7). Each **stage** reads a fixed set of
//! fields, so varying one axis leaves every stage that does not read it
//! unchanged:
//!
//! | stage     | reads                                                       |
//! |-----------|-------------------------------------------------------------|
//! | `comm`    | `elements_in/out`, `bytes_per_element`, both alphas, bandwidth |
//! | `comp`    | `elements_in`, `ops_per_element`, `throughput_proc`, `fclock` |
//! | `overlap` | `t_comm`, `t_comp` (stage outputs), `iterations`            |
//! | `speedup` | `t_rc` terms, `t_comm`, `t_soft`, `iterations`              |
//!
//! The stages themselves are plain functions ([`crate::throughput`],
//! [`crate::utilization`], and the batch kernels in [`crate::solve::batch`]);
//! nothing is cached between calls. What this module owns is the accounting.
//! A [`BatchStagePlan`] says which stages vary, derived **structurally**:
//! across a batch from which columns it carries
//! ([`crate::solve::batch::BatchPoints::stage_plan`]), or between two inputs
//! from which fields differ ([`BatchStagePlan::between`], what `rat watch`
//! reports). The batch kernels compute a uniform stage once and reuse it for
//! every remaining point, so those points are hits by construction;
//! [`record_batch`] reports the counts to [`crate::telemetry`] (surfaced by
//! `--metrics` and the serve `GET /metrics` endpoint).

use crate::telemetry::{self, Metric};

/// The four analytic stages, in dependency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Communication time, Eqs. (1)–(3).
    Comm,
    /// Computation time, Eq. (4).
    Comp,
    /// Overlap/buffering: execution times (Eqs. 5–6) and utilizations
    /// (Eqs. 8–11) under both disciplines.
    Overlap,
    /// Speedup (Eq. 7) under both disciplines plus the communication-bound
    /// ceiling.
    Speedup,
}

impl Stage {
    /// Every stage, in dependency order.
    pub const ALL: [Stage; 4] = [Stage::Comm, Stage::Comp, Stage::Overlap, Stage::Speedup];

    /// Short stable name (used by `rat watch` status lines).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Comm => "comm",
            Stage::Comp => "comp",
            Stage::Overlap => "overlap",
            Stage::Speedup => "speedup",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Comm => 0,
            Stage::Comp => 1,
            Stage::Overlap => 2,
            Stage::Speedup => 3,
        }
    }

    fn hit_metric(self) -> Metric {
        match self {
            Stage::Comm => Metric::StageCommHits,
            Stage::Comp => Metric::StageCompHits,
            Stage::Overlap => Metric::StageOverlapHits,
            Stage::Speedup => Metric::StageSpeedupHits,
        }
    }

    fn miss_metric(self) -> Metric {
        match self {
            Stage::Comm => Metric::StageCommMisses,
            Stage::Comp => Metric::StageCompMisses,
            Stage::Overlap => Metric::StageOverlapMisses,
            Stage::Speedup => Metric::StageSpeedupMisses,
        }
    }
}

/// Per-stage hit/miss totals, indexed by [`Stage::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Hits (stage outputs reused) per stage.
    pub hits: [u64; 4],
    /// Misses (stage outputs computed) per stage.
    pub misses: [u64; 4],
}

impl StageCounters {
    /// Hits recorded for one stage.
    pub fn hits_for(&self, stage: Stage) -> u64 {
        self.hits[stage.index()]
    }

    /// Misses recorded for one stage.
    pub fn misses_for(&self, stage: Stage) -> u64 {
        self.misses[stage.index()]
    }

    /// Total hits across all stages.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Total misses across all stages.
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }
}

/// Does nothing: no stage state is cached between calls, so there is
/// nothing to clear. Kept so callers that reset between runs still build.
pub fn clear_session_cache() {}

/// Which stages vary, across a batch or between two inputs. A stage varies
/// iff some field it reads may differ; the values are never inspected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStagePlan {
    /// Whether a communication-stage input varies.
    pub comm_varies: bool,
    /// Whether a computation-stage input varies.
    pub comp_varies: bool,
    /// Whether the overlap stage's inputs vary (either upstream stage, or
    /// `iterations`).
    pub overlap_varies: bool,
    /// Whether the speedup stage's inputs vary (the overlap stage's, or
    /// `t_soft`).
    pub speedup_varies: bool,
}

impl BatchStagePlan {
    /// Whether `stage`'s inputs vary under this plan.
    pub fn varies(&self, stage: Stage) -> bool {
        match stage {
            Stage::Comm => self.comm_varies,
            Stage::Comp => self.comp_varies,
            Stage::Overlap => self.overlap_varies,
            Stage::Speedup => self.speedup_varies,
        }
    }

    /// The hit/miss counters a batch of `n` points contributes: a varying
    /// stage recomputes at every point (`n` misses); a uniform stage
    /// computes once and is reused for the rest (1 miss, `n-1` hits). An
    /// empty batch records nothing.
    pub fn counters(&self, n: u64) -> StageCounters {
        let mut c = StageCounters::default();
        if n == 0 {
            return c;
        }
        for stage in Stage::ALL {
            let i = stage.index();
            if self.varies(stage) {
                c.misses[i] = n;
            } else {
                c.misses[i] = 1;
                c.hits[i] = n - 1;
            }
        }
        c
    }
}

/// Record one batch's structural stage counters into telemetry.
pub fn record_batch(plan: &BatchStagePlan, n: u64) {
    let c = plan.counters(n);
    telemetry::add(Metric::StageHits, c.total_hits());
    telemetry::add(Metric::StageMisses, c.total_misses());
    for stage in Stage::ALL {
        let i = stage.index();
        if c.hits[i] > 0 {
            telemetry::add(stage.hit_metric(), c.hits[i]);
        }
        if c.misses[i] > 0 {
            telemetry::add(stage.miss_metric(), c.misses[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_plan_counter_arithmetic() {
        // A single-axis fclock sweep: comm uniform, everything downstream
        // varies.
        let plan = BatchStagePlan {
            comm_varies: false,
            comp_varies: true,
            overlap_varies: true,
            speedup_varies: true,
        };
        let c = plan.counters(3);
        assert_eq!(c.hits_for(Stage::Comm), 2);
        assert_eq!(c.misses_for(Stage::Comm), 1);
        assert_eq!(c.misses_for(Stage::Comp), 3);
        assert_eq!(c.misses_for(Stage::Overlap), 3);
        assert_eq!(c.misses_for(Stage::Speedup), 3);
        assert_eq!(c.total_hits(), 2);
        assert_eq!(c.total_misses(), 10);
        // Empty batches record nothing at all.
        assert_eq!(plan.counters(0), StageCounters::default());
        // A fully-uniform batch is one miss + n-1 hits per stage.
        let uniform = BatchStagePlan {
            comm_varies: false,
            comp_varies: false,
            overlap_varies: false,
            speedup_varies: false,
        };
        let c = uniform.counters(5);
        assert_eq!(c.total_misses(), 4);
        assert_eq!(c.total_hits(), 16);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["comm", "comp", "overlap", "speedup"]);
    }
}
