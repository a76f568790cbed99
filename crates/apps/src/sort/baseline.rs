//! Software sorting baselines.
//!
//! A hand-rolled bottom-up merge sort (the classic software counterpart of a
//! merging network) plus a two-job parallel variant on the analysis
//! [`Engine`], with `slice::sort_unstable` available as the "tuned library"
//! reference the benchmarks compare against.

use rat_core::engine::Engine;

/// Bottom-up (iterative) merge sort; stable, O(n log n), no recursion.
pub fn merge_sort(data: &mut [u32]) {
    let n = data.len();
    if n < 2 {
        return;
    }
    let mut buf = vec![0u32; n];
    let mut width = 1;
    let mut src_is_data = true;
    while width < n {
        {
            let (src, dst): (&[u32], &mut [u32]) = if src_is_data {
                (&*data, &mut buf)
            } else {
                (&buf, data)
            };
            let mut i = 0;
            while i < n {
                let mid = (i + width).min(n);
                let end = (i + 2 * width).min(n);
                merge_runs(&src[i..mid], &src[mid..end], &mut dst[i..end]);
                i = end;
            }
        }
        src_is_data = !src_is_data;
        width *= 2;
    }
    if !src_is_data {
        data.copy_from_slice(&buf);
    }
}

fn merge_runs(a: &[u32], b: &[u32], out: &mut [u32]) {
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Parallel merge sort: the two halves are [`merge_sort`]ed as two
/// [`Engine`] jobs, then merged on one thread. Good enough as a multicore
/// baseline without reimplementing parallel merge.
pub fn merge_sort_parallel(data: &mut [u32]) {
    let (lo, hi) = data.split_at(data.len() / 2);
    let halves = Engine::default().run(2, |h| {
        let mut half = if h == 0 { lo.to_vec() } else { hi.to_vec() };
        merge_sort(&mut half);
        half
    });
    merge_runs(&halves[0], &halves[1], data);
}

/// Sort each `block`-sized chunk independently — the exact work the bitonic
/// hardware performs per iteration (the host merges blocks afterwards, in
/// both the software and hardware formulations, so block sorting is the
/// apples-to-apples unit).
pub fn sort_blocks(data: &mut [u32], block: usize) {
    assert!(block > 0, "block size must be positive");
    for chunk in data.chunks_mut(block) {
        chunk.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_keys(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn merge_sort_sorts() {
        for n in [0usize, 1, 2, 3, 100, 1000, 4096, 5000] {
            let mut v = random_keys(n, n as u64);
            let mut expect = v.clone();
            expect.sort_unstable();
            merge_sort(&mut v);
            assert_eq!(v, expect, "n = {n}");
        }
    }

    #[test]
    fn merge_sort_handles_presorted_and_reversed() {
        let mut v: Vec<u32> = (0..1000).collect();
        merge_sort(&mut v);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        let mut v: Vec<u32> = (0..1000).rev().collect();
        merge_sort(&mut v);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merge_sort_handles_duplicates() {
        let mut v = vec![5u32; 257];
        v.extend([1, 9, 5, 3]);
        merge_sort(&mut v);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(v.iter().filter(|&&x| x == 5).count(), 258);
    }

    #[test]
    fn parallel_matches_sequential() {
        for n in [0usize, 1, 10_000, 10_001] {
            let mut a = random_keys(n, 7);
            let mut b = a.clone();
            merge_sort(&mut a);
            merge_sort_parallel(&mut b);
            assert_eq!(a, b, "n = {n}");
        }
    }

    #[test]
    fn sort_blocks_sorts_each_block_only() {
        let mut v = random_keys(1024, 11);
        sort_blocks(&mut v, 256);
        for chunk in v.chunks(256) {
            assert!(chunk.windows(2).all(|w| w[0] <= w[1]));
        }
        // The whole array is (almost surely) not globally sorted.
        assert!(!v.windows(2).all(|w| w[0] <= w[1]));
    }
}
