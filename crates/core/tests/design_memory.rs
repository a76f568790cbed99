//! Memory pins for a cold design search: the peak live heap of `optimize`
//! and `explore`, counted per thread by this binary's allocator.
//!
//! A search should hold only what it prints. Both runs below stay on the
//! calling thread (`Engine::sequential()`; `explore` runs no engine jobs),
//! so the calling thread's count is the whole heap the search used. Each
//! bound is the measured peak plus a stated margin; the designs each
//! replaced (a list of every feasible point's objectives, and before it a
//! full report and two device clones per front member; a materialized
//! corner list, per-buffering index and column copies and a ranked list of
//! every passing corner) peaked well above it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rat_core::engine::Engine;
use rat_core::explore::{explore, DesignSpace};
use rat_core::optimize::{optimize, OptimizeConfig, OptimizeSpace};
use rat_core::params::{Buffering, RatInput};

thread_local! {
    /// Bytes this thread has allocated and not yet freed. Memory freed on
    /// another thread than the one that allocated it skews both threads'
    /// counts, so the measured runs keep everything on one thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, tracking the calling thread's live and peak heap
/// bytes.
struct Tracking;

fn grow(bytes: isize) {
    // A const-initialized `Cell` has no destructor, so the slots are never
    // torn down; `try_with` only guards the case anyway.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; tracking
// touches only thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Run `f` and return its output with the most heap bytes this thread held
/// at once while it ran, above what it held before.
fn peak_live_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    let peak = PEAK.with(Cell::get);
    (out, usize::try_from(peak - before).unwrap_or(0))
}

fn worksheet(name: &str) -> RatInput {
    let path = format!(
        "{}/../../worksheets/{name}.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(path).expect("shipped worksheet");
    toml::from_str(&text).expect("shipped worksheet parses")
}

/// The benchmark's search: the 2-D PDF worksheet, 32 generations of 1,024,
/// seed 7. Its outcome holds 1,553 front members, and the search keeps a
/// generation's feasible points only until that generation's skyline has
/// run. The run peaked at 464,882 bytes when this pin was set, so the bound
/// leaves ~235 KB. When the outcome also listed every feasible point's
/// objectives (24 bytes each, 31,842 of them in a 32,768-point buffer), the
/// run peaked at 1,199,922 bytes; when each member also carried a full
/// report and two device clones, at 2,539,594 bytes.
#[test]
fn a_cold_optimize_holds_its_outcome_and_little_else() {
    let space = OptimizeSpace::around(worksheet("pdf2d"));
    let config = OptimizeConfig {
        seed: 7,
        generations: 32,
        population: 1024,
    };
    let engine = Engine::sequential();
    let (out, peak) = peak_live_bytes(|| optimize(&engine, &space, &config).unwrap());
    assert!(out.front.len() > 1000, "front {}", out.front.len());
    const BOUND: usize = 700_000;
    assert!(
        peak <= BOUND,
        "optimize peaked at {peak} live heap bytes (bound {BOUND}, front {})",
        out.front.len()
    );
}

/// The benchmark's explore grid: 96 clocks and 96 throughputs from 0.5x to
/// 1.49x the 2-D PDF worksheet's values, both bufferings, at half its
/// speedup. The streaming pass holds the two 9,216-point grid columns and
/// one speedup column per buffering, 294,912 bytes, and peaked at 300,337
/// bytes when this pin was set, so the bound leaves ~100 KB. The
/// enumerate-rank-select pass it replaced peaked at 942,215 bytes.
#[test]
fn a_96_by_96_explore_holds_its_grid_columns_and_little_else() {
    let base = worksheet("pdf2d");
    let steps = |x: f64| -> Vec<f64> { (0..96).map(|i| x * (0.5 + i as f64 / 96.0)).collect() };
    let space = DesignSpace {
        fclocks: steps(base.comp.fclock.hz()),
        throughput_procs: steps(base.comp.throughput_proc),
        bufferings: vec![Buffering::Single, Buffering::Double],
        base: base.clone(),
    };
    let target = 0.5
        * rat_core::worksheet::Worksheet::new(base)
            .analyze()
            .unwrap()
            .speedup;
    let (out, peak) = peak_live_bytes(|| explore(&space, target).unwrap());
    assert!(out.passing > 1000, "passing {}", out.passing);
    const BOUND: usize = 400_000;
    assert!(
        peak <= BOUND,
        "explore peaked at {peak} live heap bytes (bound {BOUND}, {} passing)",
        out.passing
    );
}
