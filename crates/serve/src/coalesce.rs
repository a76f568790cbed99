//! Cross-request solve coalescing.
//!
//! When several `/v1/solve` requests are in flight at once, evaluating them
//! one-by-one repeats the per-worksheet work (validation, `t_comm`,
//! `t_comp`, the ceiling) once per request. The coalescer instead
//! drains everything pending into one batch, groups it by worksheet, and
//! evaluates each group through [`rat_core::solve::inverse_quad_batch`] —
//! whose elements are bit-identical to the scalar [`inverse_quad`] path, so
//! a coalesced response is byte-for-byte the solo response.
//!
//! The shape is leader election on one mutex/condvar pair: a submitter
//! parks its job, and whoever finds no active leader drains the pending
//! list, evaluates it outside the lock, scatters results into each job's
//! slot, and wakes everyone. Submitters that wake without a result loop —
//! either becoming the next leader or waiting again. The leader runs pure
//! total arithmetic (no I/O, no panics on any input the parser admits), so
//! leadership always terminates.
//!
//! [`inverse_quad`]: rat_core::solve::inverse_quad

use std::sync::{Arc, Condvar, Mutex};

use rat_core::params::RatInput;
use rat_core::solve::{inverse_quad_batch, InverseQuad};
use rat_core::telemetry::{self, Metric};

/// Cap on jobs drained into one batch; keeps a pathological backlog from
/// turning one leader pass into an unbounded stall for its first submitter.
const MAX_BATCH: usize = 1024;

struct Job {
    input: RatInput,
    target: f64,
    slot: Arc<Mutex<Option<InverseQuad>>>,
}

#[derive(Default)]
struct State {
    pending: Vec<Job>,
    leader_active: bool,
}

/// The per-server coalescer. Cheap when idle: a solo request becomes a
/// batch of one with a single lock round-trip.
#[derive(Default)]
pub struct Coalescer {
    state: Mutex<State>,
    changed: Condvar,
}

impl Coalescer {
    /// Evaluate the inverse quad for one request, possibly batched with
    /// whatever else is pending. Blocks until this request's result exists.
    pub fn solve(&self, input: &RatInput, target: f64) -> InverseQuad {
        let slot = Arc::new(Mutex::new(None));
        let mut st = self.state.lock().expect("coalescer poisoned");
        st.pending.push(Job {
            input: input.clone(),
            target,
            slot: Arc::clone(&slot),
        });

        loop {
            if let Some(quad) = slot.lock().expect("coalescer slot poisoned").take() {
                return quad;
            }
            if !st.leader_active {
                st.leader_active = true;
                let batch: Vec<Job> = {
                    let n = st.pending.len().min(MAX_BATCH);
                    st.pending.drain(..n).collect()
                };
                drop(st);

                evaluate(&batch);

                st = self.state.lock().expect("coalescer poisoned");
                st.leader_active = false;
                self.changed.notify_all();
                // The leader's own job was in the drained batch (jobs are
                // drained oldest-first and ours predates leadership), so
                // the next loop iteration finds the slot filled.
            } else {
                st = self.changed.wait(st).expect("coalescer poisoned");
            }
        }
    }
}

/// Group a drained batch by worksheet and evaluate each group as one
/// column set, scattering per-job results.
fn evaluate(batch: &[Job]) {
    let mut visited = vec![false; batch.len()];
    for i in 0..batch.len() {
        if visited[i] {
            continue;
        }
        let mut members = vec![i];
        for j in (i + 1)..batch.len() {
            if !visited[j] && batch[j].input == batch[i].input {
                visited[j] = true;
                members.push(j);
            }
        }
        let targets: Vec<f64> = members.iter().map(|&j| batch[j].target).collect();
        if members.len() >= 2 {
            telemetry::add(Metric::CoalesceBatches, 1);
            telemetry::add(Metric::CoalesceRequests, members.len() as u64);
        }
        let quads = inverse_quad_batch(&batch[i].input, &targets);
        for (&j, quad) in members.iter().zip(quads) {
            *batch[j].slot.lock().expect("coalescer slot poisoned") = Some(quad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn pdf1d_example() -> rat_core::params::RatInput {
        rat_apps::pdf::pdf1d::rat_input(150.0e6)
    }
    use rat_core::solve::inverse_quad;
    use std::sync::Barrier;

    fn assert_same(a: &InverseQuad, b: &InverseQuad) {
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "coalesced quad must match the scalar quad exactly"
        );
    }

    #[test]
    fn solo_solve_matches_the_scalar_path() {
        let c = Coalescer::default();
        let input = pdf1d_example();
        assert_same(&c.solve(&input, 8.0), &inverse_quad(&input, 8.0));
    }

    #[test]
    fn a_storm_of_concurrent_solves_all_match_their_scalar_answers() {
        let c = Arc::new(Coalescer::default());
        let n = 16;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let c = Arc::clone(&c);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    // Two distinct worksheets and a spread of targets,
                    // including infeasible and nonsensical ones.
                    let mut input = pdf1d_example();
                    if i % 2 == 0 {
                        input.comp.throughput_proc += 1.0;
                    }
                    let target = match i % 4 {
                        0 => 8.0,
                        1 => 1e9,  // infeasible
                        2 => -3.0, // rejected target
                        _ => 2.5,
                    };
                    barrier.wait();
                    let got = c.solve(&input, target);
                    (input, target, got)
                })
            })
            .collect();
        for h in handles {
            let (input, target, got) = h.join().unwrap();
            assert_same(&got, &inverse_quad(&input, target));
        }
    }
}
