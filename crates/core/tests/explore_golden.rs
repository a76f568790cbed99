//! Golden renders for `rat explore` on design-search-sized grids.
//!
//! `explore` gates a whole grid through the batch kernel and prints the
//! passing count, the ten fastest corners and the cheapest one. These
//! fixtures pin that text byte for byte on the grid shape of the benchmark's
//! design-search ops: 96 clocks × 96 `throughput_proc` values × both
//! bufferings around the paper's 1-D and 2-D PDF worksheets, each axis
//! spanning 0.5–1.49× the worksheet's own value, at half the base speedup
//! and at a threshold nothing meets. One more grid repeats clock and
//! `throughput_proc` values, so exact speedup ties pin the ranking order
//! (ties keep enumeration order) and the cheapest corner's tie-break (the
//! first in ranked order wins). CI runs this suite with SIMD on and off.

use rat_core::explore::{explore, DesignSpace};
use rat_core::params::{Buffering, RatInput};
use rat_core::worksheet::Worksheet;

/// Grid points per axis.
const AXIS: usize = 96;

fn worksheet(toml_src: &str) -> RatInput {
    let input: RatInput = toml::from_str(toml_src).expect("worksheet parses");
    input.validate().expect("worksheet validates");
    input
}

/// `x` rounded to `digits` decimal places (negative: to tens, thousands...).
fn round(x: f64, digits: i32) -> f64 {
    let p = 10f64.powi(digits);
    (x * p).round() / p
}

/// `AXIS` values from 0.5× to just under 1.5× `center`, rounded.
fn axis(center: f64, digits: i32) -> Vec<f64> {
    (0..AXIS)
        .map(|i| round(center * (0.5 + i as f64 / AXIS as f64), digits))
        .collect()
}

fn grid(base: &RatInput) -> DesignSpace {
    DesignSpace {
        fclocks: axis(base.comp.fclock.hz(), -3),
        throughput_procs: axis(base.comp.throughput_proc, 4),
        bufferings: vec![Buffering::Single, Buffering::Double],
        base: base.clone(),
    }
}

fn check(space: &DesignSpace, min_speedup: f64, fixture: &str) {
    let got = explore(space, min_speedup).expect("grid explores").render();
    assert_eq!(got.trim_end_matches('\n'), fixture.trim_end_matches('\n'));
}

fn half_and_exhausted(toml_src: &str, half: &str, exhausted: &str) {
    let base = worksheet(toml_src);
    let speedup = Worksheet::new(base.clone()).analyze().unwrap().speedup;
    let space = grid(&base);
    check(&space, round(0.5 * speedup, 3), half);
    // Every corner is at most ~2.2x the base design's speedup.
    check(&space, round(100.0 * speedup, 3), exhausted);
}

#[test]
fn pdf1d_design_search_grid() {
    half_and_exhausted(
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../worksheets/pdf1d.toml"
        )),
        include_str!("fixtures/explore_pdf1d_half.txt"),
        include_str!("fixtures/explore_pdf1d_exhausted.txt"),
    );
}

#[test]
fn pdf2d_design_search_grid() {
    half_and_exhausted(
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../worksheets/pdf2d.toml"
        )),
        include_str!("fixtures/explore_pdf2d_half.txt"),
        include_str!("fixtures/explore_pdf2d_exhausted.txt"),
    );
}

/// Repeated axis values give exactly tied corners with identical names, and
/// under double buffering every communication-bound corner (f_clock ×
/// throughput_proc above ~7.1e10 for this worksheet) has the same speedup,
/// t_soft / (iterations × t_comm), so distinct corners tie too: the top
/// rows must list them in enumeration order. At a threshold every corner
/// meets, the cheapest coordinates (20 ops/cycle at 150 MHz) pass under
/// both bufferings; single buffering comes first in enumeration order,
/// double buffering first in ranked order, and the ranked order wins.
#[test]
fn repeated_axis_values_pin_tie_order() {
    let base = worksheet(include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../worksheets/pdf1d.toml"
    )));
    let space = DesignSpace {
        fclocks: vec![1.5e9, 1.0e9, 1.5e9, 0.15e9],
        throughput_procs: vec![120.0, 80.0, 20.0, 80.0],
        bufferings: vec![Buffering::Single, Buffering::Double],
        base,
    };
    check(
        &space,
        1.0,
        include_str!("fixtures/explore_repeated_axes.txt"),
    );
}
