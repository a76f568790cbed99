//! Deterministic per-job RNG streams.
//!
//! A parallel Monte-Carlo analysis must not let thread scheduling touch its
//! random numbers: results have to be bit-identical whether the engine runs
//! on one thread or sixteen, and whether a given sample executed first or
//! last. The fix is to derive each job's RNG from `(root_seed, job_index)`
//! alone — never from a shared stream that jobs consume in completion order.
//!
//! The derivation is `seed_from_u64(mix(root_seed) ^ job_index)`. The mix
//! step (a splitmix64 finalizer) matters: with a raw `root ^ index`, two
//! root seeds differing in low bits — 42 and 43, say — would produce the
//! *same set* of job seeds in permuted order (`42 ^ j == 43 ^ (j ^ 1)`),
//! making every order-insensitive statistic identical across "different"
//! seeds. Mixing the root first puts different analyses in unrelated regions
//! of seed space, while jobs within one analysis stay a dense, collision-free
//! `base ^ j` family. `seed_from_u64` then expands each value through
//! rand_core's PCG32 construction before it keys ChaCha8.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// splitmix64's finalizer: a bijective avalanche mix over `u64`.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG stream for job `job_index` of an analysis rooted at `root_seed`.
pub fn job_rng(root_seed: u64, job_index: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(mix(root_seed) ^ job_index)
}

/// The number of `u64` draws [`job_rng_first_draws`] yields per stream: one
/// ChaCha block is 16 `u32` words, i.e. eight `next_u64` results.
pub const FIRST_BLOCK_DRAWS: usize = 8;

/// The first eight `u64` draws of every job stream in `lo..hi`, computed in
/// bulk: entry `i` holds what `job_rng(root_seed, lo + i).next_u64()` would
/// return on its first eight calls, bit for bit. Internally the ChaCha keys
/// for all streams are derived up front (the same PCG32 expansion
/// `seed_from_u64` uses) and the first keystream blocks are produced eight
/// streams at a time through the AVX2 multi-buffer block function — this is
/// the draw phase of batched Monte-Carlo, where per-sample RNG construction
/// would otherwise dominate.
pub fn job_rng_first_draws(root_seed: u64, lo: u64, hi: u64) -> Vec<[u64; FIRST_BLOCK_DRAWS]> {
    let mixed = mix(root_seed);
    let n = (hi - lo) as usize;
    let mut keys: Vec<[u32; 8]> = Vec::with_capacity(n);
    let mut j = lo;
    while j + 4 <= hi {
        keys.extend(rand::seed_words_from_u64_x4([
            mixed ^ j,
            mixed ^ (j + 1),
            mixed ^ (j + 2),
            mixed ^ (j + 3),
        ]));
        j += 4;
    }
    keys.extend((j..hi).map(|j| rand::seed_words_from_u64(mixed ^ j)));
    rand_chacha::chacha8_first_draws(&keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_reproducible() {
        let a: f64 = job_rng(2007, 3).gen();
        let b: f64 = job_rng(2007, 3).gen();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn distinct_jobs_get_distinct_streams() {
        let draws: Vec<u64> = (0..64).map(|j| job_rng(2007, j).gen::<u64>()).collect();
        let mut unique = draws.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), draws.len(), "adjacent job streams collided");
    }

    #[test]
    fn bulk_first_draws_match_per_job_rng_streams() {
        use rand::RngCore;
        // 0..21 covers two full AVX2 groups plus a scalar tail, and a nonzero
        // `lo` checks the offset arithmetic.
        for (lo, hi) in [(0u64, 21u64), (1000, 1013)] {
            let bulk = job_rng_first_draws(2007, lo, hi);
            assert_eq!(bulk.len(), (hi - lo) as usize);
            for (i, draws) in bulk.iter().enumerate() {
                let mut rng = job_rng(2007, lo + i as u64);
                for (d, &got) in draws.iter().enumerate() {
                    assert_eq!(got, rng.next_u64(), "job {} draw {d}", lo + i as u64);
                }
            }
        }
    }

    #[test]
    fn adjacent_root_seeds_do_not_permute_each_other() {
        // The failure mode mix() exists to prevent: without it, root seeds 42
        // and 43 would generate identical job-seed sets in different order.
        let a: Vec<u64> = (0..64).map(|j| job_rng(42, j).gen::<u64>()).collect();
        let mut b: Vec<u64> = (0..64).map(|j| job_rng(43, j).gen::<u64>()).collect();
        let mut a_sorted = a.clone();
        a_sorted.sort_unstable();
        b.sort_unstable();
        assert_ne!(a_sorted, b, "root seeds 42/43 produced permuted streams");
    }
}
