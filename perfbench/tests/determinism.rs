//! The benchmark's own checks on its generators: inputs are valid, serve
//! bodies never repeat, and a different seed gives a different stream.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use fpga_sim::SimCache;
use rat_perfbench::expect;
use rat_perfbench::gen::{DesignCase, HotStream, ServeStream, GROUP};

#[test]
fn every_generated_request_is_answered_200() {
    let engine = expect::engine(1);
    let sims = SimCache::new();
    for seed in [1, 2, 3] {
        for stream in [0, 1] {
            let s = ServeStream { seed, stream };
            for i in 0..40 * GROUP {
                let op = s.op(i);
                if let Err(e) = expect::serve_body(&op, &engine, &sims) {
                    panic!(
                        "seed {seed} stream {stream} op {i} {}: {e}\n{}",
                        op.path(),
                        op.body
                    );
                }
            }
        }
    }
}

#[test]
fn serve_unique_bodies_are_all_distinct() {
    let mut seen = std::collections::HashSet::new();
    for stream in [0, 1, 2] {
        let s = ServeStream { seed: 9, stream };
        for i in 0..50 * GROUP {
            assert!(
                seen.insert(s.op(i).body),
                "stream {stream} op {i} repeats a body"
            );
        }
    }
}

#[test]
fn design_ops_succeed_and_cover_both_kinds() {
    let engine = expect::engine(2);
    for k in 0..4 {
        let case = DesignCase::generate(5, k);
        assert_eq!(case.corners() > 0, k % 2 == 1);
        if let Err(e) = expect::design_stdout(&case, &engine) {
            panic!("design op {k}: {e}");
        }
    }
}

#[test]
fn a_different_seed_gives_a_different_stream() {
    let a = ServeStream { seed: 1, stream: 0 };
    let b = ServeStream { seed: 2, stream: 0 };
    assert_ne!(a.group(0), b.group(0));
    assert_eq!(a.group(0), ServeStream { seed: 1, stream: 0 }.group(0));
    assert_ne!(HotStream::new(1).ops, HotStream::new(2).ops);
    let (x, y) = (DesignCase::generate(1, 0), DesignCase::generate(2, 0));
    assert_ne!(x.toml, y.toml);
}
