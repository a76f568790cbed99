//! Guided design-space optimization with `rat optimize`.
//!
//! Instead of sweeping every axis exhaustively, the cross-entropy search
//! samples candidate designs (clock, parallelism, buffering, device,
//! precision), evaluates each generation through the batched analytic
//! kernels, gates them through the Eq. (9)–(11) resource test, and adapts
//! toward the feasible elite. The result is a Pareto front of speedup vs
//! computation utilization vs resource pressure — reproducible bit for bit
//! from the seed, at any job count.
//!
//! ```sh
//! cargo run --example guided_optimization
//! ```

use rat::core::engine::Engine;
use rat::core::optimize::{optimize, OptimizeConfig, OptimizeSpace};
use rat::core::resources::device::virtex4_lx100;
use rat::fixed::QFormat;

fn main() {
    // 1. The paper's 1-D PDF design (Table 2), searched over the default
    //    space: clocks from half the worksheet's 150 MHz up to it,
    //    parallelism from one op/cycle up to the worksheet's 20, both
    //    buffering disciplines, the full device catalog, and the paper's
    //    18/32-bit fixed-point candidates.
    let base = rat::apps::pdf1d::rat_input(150.0e6);
    let engine = Engine::default();
    let space = OptimizeSpace::around(base.clone());
    let config = OptimizeConfig {
        seed: 2007,
        generations: 12,
        population: 128,
        // (OptimizeConfig::default() searches harder; this budget already
        // converges for the paper worksheets — see the bench evidence.)
    };
    let outcome = optimize(&engine, &space, &config).expect("pdf1d space has feasible points");
    println!("{}", outcome.render());
    println!(
        "{} evaluations, {} feasible, {} front points — same seed, same front, \
         at 1, 2, or 8 jobs.\n",
        outcome.evals,
        outcome.feasible_evals,
        outcome.front.len()
    );

    // 2. Constrain the search to the paper's actual part (Virtex-4 LX100 on
    //    the Nallatech H101) and 18-bit arithmetic: the front now reflects
    //    what that board can really hold.
    let constrained = OptimizeSpace {
        devices: vec![virtex4_lx100()],
        precisions: vec![QFormat::signed(0, 17).expect("Q0.17 is valid")],
        ..OptimizeSpace::around(base)
    };
    let outcome = optimize(&engine, &constrained, &config).expect("LX100 fits the 1-D PDF");
    //    A front member derives its full report and resource verdict on
    //    demand, so only the points you look at cost anything.
    let best = outcome.best();
    let report = best.report();
    let resources = best.resources();
    println!("On the paper's own hardware: {}", best.display_name());
    println!(
        "  speedup {:.2}x (t_comm {:.3e} s, t_comp {:.3e} s), {} of {} DSPs, fits: {}\n",
        report.speedup,
        report.throughput.t_comm.seconds(),
        report.throughput.t_comp.seconds(),
        resources.estimate.dsp,
        resources.device.dsp_blocks,
        resources.fits
    );

    // 3. Not every design has a feasible point: molecular dynamics buffers
    //    its whole 16384-particle dataset, which exceeds every catalog
    //    device's block RAM — the search reports *that*, not a fantasy
    //    front.
    let md = rat::apps::md::rat::rat_input(100.0e6);
    let md_space = OptimizeSpace::around(md);
    match optimize(&engine, &md_space, &config) {
        Ok(_) => unreachable!("md's full-dataset buffer cannot fit"),
        Err(e) => println!("Molecular dynamics: {e}"),
    }
}
