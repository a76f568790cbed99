//! The outputs the program must produce, rendered in-process through the
//! same public functions the daemon and the CLI call.

use fpga_sim::SimCache;
use rat_core::engine::{Engine, EngineConfig};
use rat_core::params::RatInput;
use rat_serve::api::{self, OptimizeSpec};

use crate::gen::{DesignCase, DesignOp, ServeOp};

/// The engine a `rat --jobs <jobs>` process builds.
pub fn engine(jobs: usize) -> Engine {
    Engine::new(EngineConfig::default().with_jobs(jobs))
}

/// The exact JSON body `rat serve` answers `op` with:
/// `parse_mode_request` → `handle` (non-strict solve renders through
/// `solve_report_from_quad`) → `to_json`.
pub fn serve_body(op: &ServeOp, engine: &Engine, sims: &SimCache) -> Result<String, String> {
    let req = api::parse_mode_request(op.mode(), &op.body).map_err(|e| e.to_json())?;
    let ok = api::handle(engine, &req, Some(sims)).map_err(|e| e.to_json())?;
    Ok(ok.to_json())
}

/// The worksheet exactly as the CLI loads it from the TOML file.
pub fn load_worksheet(toml_text: &str) -> Result<RatInput, String> {
    let input: RatInput = toml::from_str(toml_text).map_err(|e| e.to_string())?;
    input.validate().map_err(|e| e.to_string())?;
    Ok(input)
}

/// The exact stdout of the CLI op: the report plus `main`'s newline.
pub fn design_stdout(case: &DesignCase, engine: &Engine) -> Result<String, String> {
    let input = load_worksheet(&case.toml)?;
    let report = match &case.op {
        DesignOp::Optimize {
            seed,
            generations,
            population,
        } => {
            let spec = OptimizeSpec {
                seed: Some(*seed),
                generations: Some(*generations),
                population: Some(*population),
                ..OptimizeSpec::default()
            };
            api::optimize_report(engine, &input, &spec)
        }
        DesignOp::Explore {
            min_speedup,
            fclocks,
            throughput_procs,
        } => api::explore_report(
            &input,
            *min_speedup,
            Some(fclocks.clone()),
            Some(throughput_procs.clone()),
            None,
        ),
    }
    .map_err(|e| e.to_string())?;
    Ok(report + "\n")
}
