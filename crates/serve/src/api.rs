//! The analysis API surface shared by the CLI and the server.
//!
//! [`ApiRequest`] is the one request type for the analysis modes and
//! [`handle`] the one runner. The server parses a JSON body into an
//! [`ApiRequest`] ([`parse_mode_request`]); the CLI builds the same request
//! from argv; both run it through [`handle`], which returns the **exact
//! report text** the CLI prints. That shared code path is the parity
//! contract: `crates/serve/tests/parity.rs` asserts the JSON body a warm
//! server returns is byte-identical to what a cold CLI process computes,
//! and it holds because there is only one runner and one renderer.
//!
//! Each validation rule lives in one place. The front ends check syntax
//! only (a JSON field's type, an argv flag's value); [`ApiRequest::check_shape`]
//! checks the rules both surfaces share, the explore and optimize size caps
//! included; the core checks every value; and the daemon-only size caps
//! (the sweep and Monte-Carlo `MAX_*` below) stay in [`parse_mode_request`].
//!
//! The error side mirrors the CLI the same way. [`RatError`] classes map
//! onto HTTP status codes exactly as they map onto CLI exit codes
//! (DESIGN.md §10 and §14):
//!
//! | class | CLI exit | HTTP status |
//! |-------|----------|-------------|
//! | usage / malformed request | 2 | 400 |
//! | invalid parameter, quantity, or TOML | 3 | 400 |
//! | infeasible | 4 | 422 |
//! | simulation failure | 5 | 500 |
//!
//! plus the protocol-level codes an HTTP surface needs: 404 unknown route,
//! 405 wrong method, 408 request timeout, 413 oversized body, 503 queue
//! full / draining.

use std::fmt::Write;

use fixedpoint::QFormat;
use fpga_sim::SimCache;
use rat_core::engine::Engine;
use rat_core::explore::{explore, DesignSpace};
use rat_core::optimize::{optimize, OptimizeConfig, OptimizeSpace};
use rat_core::params::{Buffering, RatInput};
use rat_core::sweep::SweepParam;
use rat_core::telemetry::json::{self, escaped_len, push_escaped, Json};
use rat_core::uncertainty::ParamRange;
use rat_core::RatError;

/// Monte-Carlo sample count used when a request does not specify one — the
/// same 10 000 the CLI's `uncertainty` command always uses.
pub const DEFAULT_MC_SAMPLES: usize = 10_000;

/// Upper bound on Monte-Carlo samples per request: a resident service must
/// not let one request monopolize the workers.
pub const MAX_MC_SAMPLES: usize = 1_000_000;

/// Upper bound on sweep values per request.
pub const MAX_SWEEP_VALUES: usize = 100_000;

/// Upper bound on design-space corners per explore request, from the CLI
/// or the daemon.
pub const MAX_EXPLORE_CORNERS: usize = 1_000_000;

/// Upper bound on guided-search evaluations (generations × population) per
/// optimize request, from the CLI or the daemon.
pub const MAX_OPTIMIZE_EVALS: u64 = 1_000_000;

/// A model-pipeline failure plus the context line describing what the
/// service (or CLI) was doing — rendered as `error: <context>` /
/// `caused by: <source>`, matching the CLI's stderr format.
#[derive(Debug)]
pub struct ModeError {
    /// What was being attempted (e.g. `solving 'md' for 10x speedup`).
    pub context: Option<String>,
    /// The underlying pipeline failure; determines exit code and status.
    pub source: RatError,
}

impl ModeError {
    /// Wrap `source` with a context line.
    pub fn with_context(context: impl Into<String>, source: RatError) -> Self {
        ModeError {
            context: Some(context.into()),
            source,
        }
    }
}

impl From<RatError> for ModeError {
    fn from(source: RatError) -> Self {
        ModeError {
            context: None,
            source,
        }
    }
}

/// The top line: the context if there is one, else the failure itself.
impl std::fmt::Display for ModeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.context {
            Some(context) => write!(f, "{context}"),
            None => write!(f, "{}", self.source),
        }
    }
}

/// The failure is the `caused by:` line under a context, and is the top
/// line itself without one.
impl std::error::Error for ModeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.context.as_ref().map(|_| &self.source as _)
    }
}

/// The HTTP status for a [`RatError`] class — the same partition the CLI
/// maps onto exit codes 3/4/5 (usage errors, exit 2, are requests that
/// never reach the pipeline and map to 400 at the protocol layer).
pub fn http_status(e: &RatError) -> u16 {
    match e {
        RatError::InvalidParameter(_) | RatError::InvalidQuantity { .. } => 400,
        RatError::Infeasible(_) => 422,
        RatError::Simulation(_) => 500,
    }
}

/// Every failure the service can report, each with a pinned status code and
/// a `caused by:` chain for the error body.
#[derive(Debug)]
pub enum ApiError {
    /// 400: the request itself is malformed (bad JSON, missing or mistyped
    /// fields, unparsable worksheet TOML, unknown parameter names).
    BadRequest {
        /// What the server was doing when the request fell over.
        what: String,
        /// The underlying reason (parser message, offending value).
        cause: String,
    },
    /// 404: no such route.
    UnknownRoute(String),
    /// 405: the route exists but not with this method.
    WrongMethod {
        /// The requested path.
        path: String,
        /// The method the route supports.
        allowed: &'static str,
    },
    /// 408: the client did not deliver a complete request in time.
    Timeout,
    /// 413: the declared body length exceeds the server's limit.
    TooLarge {
        /// The configured body-size limit in bytes.
        limit: usize,
    },
    /// 503: the bounded request queue is full, or the server is draining.
    Busy,
    /// A model-pipeline failure; status from [`http_status`].
    Mode(ModeError),
}

impl ApiError {
    /// Shorthand for a 400 with context and cause.
    pub fn bad_request(what: impl Into<String>, cause: impl Into<String>) -> Self {
        ApiError::BadRequest {
            what: what.into(),
            cause: cause.into(),
        }
    }

    /// The HTTP status code for this error.
    pub fn status(&self) -> u16 {
        match self {
            ApiError::BadRequest { .. } => 400,
            ApiError::UnknownRoute(_) => 404,
            ApiError::WrongMethod { .. } => 405,
            ApiError::Timeout => 408,
            ApiError::TooLarge { .. } => 413,
            ApiError::Busy => 503,
            ApiError::Mode(m) => http_status(&m.source),
        }
    }

    /// The top-line message (the CLI's `error: ...` line).
    pub fn message(&self) -> String {
        match self {
            ApiError::BadRequest { what, .. } => what.clone(),
            ApiError::UnknownRoute(path) => format!("no such route: {path}"),
            ApiError::WrongMethod { path, allowed } => {
                format!("method not allowed on {path} (use {allowed})")
            }
            ApiError::Timeout => "request timed out before a complete read".into(),
            ApiError::TooLarge { limit } => {
                format!("request body exceeds the {limit}-byte limit")
            }
            ApiError::Busy => "server is at capacity or draining; retry later".into(),
            ApiError::Mode(m) => m.to_string(),
        }
    }

    /// The `caused by:` chain under the top line.
    pub fn causes(&self) -> Vec<String> {
        match self {
            ApiError::BadRequest { cause, .. } => vec![cause.clone()],
            ApiError::Mode(m) => std::error::Error::source(m)
                .map(|c| c.to_string())
                .into_iter()
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The JSON error body: `{"error": ..., "caused_by": [...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"error\": \"");
        push_escaped(&mut out, &self.message());
        out.push_str("\", \"caused_by\": [");
        for (i, c) in self.causes().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            push_escaped(&mut out, c);
            out.push('"');
        }
        out.push_str("]}");
        out
    }
}

impl From<ModeError> for ApiError {
    fn from(m: ModeError) -> Self {
        ApiError::Mode(m)
    }
}

/// The one JSON string escaper, under the name load generators import.
pub use rat_core::telemetry::json::escape as escape_json;

/// A successful analysis response: the mode name plus the rendered report.
/// The `report` string is byte-identical to what the CLI prints (minus the
/// trailing newline `main` appends).
#[derive(Debug, Clone, PartialEq)]
pub struct ApiOk {
    /// The analysis mode that produced the report.
    pub mode: &'static str,
    /// The rendered report text.
    pub report: String,
}

impl ApiOk {
    /// The JSON success envelope: `{"mode": ..., "report": ...}`, allocated
    /// once, at its exact length, since the response cache keeps it and
    /// charges its budget `len()`, not capacity.
    pub fn to_json(&self) -> String {
        const HEAD: &str = "{\"mode\": \"";
        const MID: &str = "\", \"report\": \"";
        const TAIL: &str = "\"}";
        let len = HEAD.len() + self.mode.len() + MID.len() + escaped_len(&self.report) + TAIL.len();
        let mut out = String::with_capacity(len);
        out.push_str(HEAD);
        out.push_str(self.mode);
        out.push_str(MID);
        push_escaped(&mut out, &self.report);
        out.push_str(TAIL);
        out
    }
}

// ---------------------------------------------------------------------------
// Shared argument parsing (CLI flags and request JSON use the same names).
// ---------------------------------------------------------------------------

/// Parse a sweep-parameter name. The accepted names are the CLI's.
pub fn parse_param(name: &str) -> Result<SweepParam, String> {
    match name {
        "fclock" => Ok(SweepParam::Fclock),
        "alpha-write" => Ok(SweepParam::AlphaWrite),
        "alpha-read" => Ok(SweepParam::AlphaRead),
        "alpha" => Ok(SweepParam::AlphaBoth),
        "throughput-proc" => Ok(SweepParam::ThroughputProc),
        "ops-per-element" => Ok(SweepParam::OpsPerElement),
        "elements-in" => Ok(SweepParam::ElementsIn),
        "iterations" => Ok(SweepParam::Iterations),
        other => Err(format!("unknown sweep parameter '{other}'")),
    }
}

/// Parse a buffering-discipline name (`single` | `double`).
pub fn parse_buffering(name: &str) -> Result<Buffering, String> {
    match name {
        "single" => Ok(Buffering::Single),
        "double" => Ok(Buffering::Double),
        other => Err(format!("unknown buffering '{other}' (single|double)")),
    }
}

/// Parse and validate a worksheet from its TOML text.
pub fn parse_worksheet(toml_text: &str) -> Result<RatInput, ApiError> {
    let input: RatInput = toml::from_str(toml_text)
        .map_err(|e| ApiError::bad_request("parsing worksheet_toml", e.to_string()))?;
    input.validate().map_err(|source| {
        ApiError::Mode(ModeError::with_context(
            format!("validating worksheet '{}'", input.name),
            source,
        ))
    })?;
    Ok(input)
}

// ---------------------------------------------------------------------------
// Mode renderers that take more than a core type's `render()`.
// ---------------------------------------------------------------------------

/// `rat solve` without `--strict`: every sub-solve renders inline, feasible
/// or not, and the report always succeeds. The coalesced server path
/// evaluates quads in cross-request batches and feeds them here, so solo
/// and batched responses share one renderer — the only way the
/// byte-identity contract can hold by construction.
pub fn solve_report_from_quad(
    input: &RatInput,
    target: f64,
    quad: &rat_core::solve::InverseQuad,
) -> String {
    let write = |out: &mut String| -> std::fmt::Result {
        writeln!(
            out,
            "Inverse solve for {target}x speedup on '{}':",
            input.name
        )?;
        match &quad.throughput_proc {
            Ok(v) => writeln!(out, "  required throughput_proc: {v:.1} ops/cycle"),
            Err(e) => writeln!(out, "  throughput_proc: {e}"),
        }?;
        match &quad.fclock {
            Ok(v) => writeln!(out, "  required f_clock:         {:.1} MHz", v.mhz()),
            Err(e) => writeln!(out, "  f_clock: {e}"),
        }?;
        match &quad.alpha_scale {
            Ok(v) => writeln!(out, "  required alpha scale:     {v:.2}x current"),
            Err(e) => writeln!(out, "  alpha: {e}"),
        }?;
        match &quad.ceiling {
            Ok(v) => writeln!(out, "  speedup ceiling (comm-bound wall): {v:.1}x"),
            Err(e) => writeln!(out, "  ceiling: {e}"),
        }
    };
    // Five lines of about 50 bytes, one of which holds the name.
    let mut out = String::with_capacity(256 + input.name.len());
    write(&mut out).expect("writing to a String does not fail");
    out
}

/// `rat solve --strict`: any infeasible sub-solve is a hard error (CLI exit
/// code 4, HTTP 422) instead of an inline annotation. Errors take the
/// sub-solves in order: throughput_proc, then f_clock, alpha, ceiling.
pub fn solve_report_strict_from_quad(
    input: &RatInput,
    target: f64,
    quad: &rat_core::solve::InverseQuad,
) -> Result<String, ModeError> {
    let wrap = |source: &RatError| {
        ModeError::with_context(
            format!("solving '{}' for {target}x speedup", input.name),
            source.clone(),
        )
    };
    let tp = quad.throughput_proc.as_ref().map_err(wrap)?;
    let fclk = quad.fclock.as_ref().map_err(wrap)?;
    let alpha = quad.alpha_scale.as_ref().map_err(wrap)?;
    let ceiling = quad.ceiling.as_ref().map_err(wrap)?;
    Ok(format!(
        "Inverse solve for {target}x speedup on '{}':\n\
         \x20 required throughput_proc: {tp:.1} ops/cycle\n\
         \x20 required f_clock:         {:.1} MHz\n\
         \x20 required alpha scale:     {alpha:.2}x current\n\
         \x20 speedup ceiling (comm-bound wall): {ceiling:.1}x\n",
        input.name,
        fclk.mhz(),
    ))
}

/// `rat explore`: throughput-gate the cartesian corner space around a base
/// worksheet. `None` axes default to the base worksheet's own value
/// (clock, throughput) or to both disciplines (buffering).
pub fn explore_report(
    input: &RatInput,
    min_speedup: f64,
    fclocks: Option<Vec<f64>>,
    throughput_procs: Option<Vec<f64>>,
    bufferings: Option<Vec<Buffering>>,
) -> Result<String, RatError> {
    let space = DesignSpace {
        fclocks: fclocks.unwrap_or_else(|| vec![input.comp.fclock.hz()]),
        throughput_procs: throughput_procs.unwrap_or_else(|| vec![input.comp.throughput_proc]),
        bufferings: bufferings.unwrap_or_else(|| vec![Buffering::Single, Buffering::Double]),
        base: input.clone(),
    };
    Ok(explore(&space, min_speedup)?.render())
}

/// Axis overrides for a guided search, shared by the CLI flags and the JSON
/// body — `None` means "use the [`OptimizeSpace::around`] default".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptimizeSpec {
    /// Search seed; `None` uses the engine's root seed (the CLI default), so
    /// an unseeded request matches the CLI byte-for-byte.
    pub seed: Option<u64>,
    /// Generations to run; `None` = [`OptimizeConfig::default`].
    pub generations: Option<u32>,
    /// Candidates per generation; `None` = [`OptimizeConfig::default`].
    pub population: Option<usize>,
    /// Clock range in Hz, inclusive.
    pub fclock_range: Option<(f64, f64)>,
    /// `throughput_proc` range in ops/cycle, inclusive.
    pub throughput_range: Option<(f64, f64)>,
    /// Buffering candidates.
    pub bufferings: Option<Vec<Buffering>>,
    /// Device candidates, as case-insensitive catalog-name substrings.
    pub devices: Option<Vec<String>>,
    /// Fixed-point precision candidates, as total bit widths.
    pub precision_bits: Option<Vec<u32>>,
}

impl OptimizeSpec {
    /// Resolve the spec against a base worksheet into a concrete space and
    /// config, naming the offending field on failure.
    pub fn resolve(
        &self,
        input: &RatInput,
        default_seed: u64,
    ) -> Result<(OptimizeSpace, OptimizeConfig), RatError> {
        let mut space = OptimizeSpace::around(input.clone());
        if let Some(r) = self.fclock_range {
            space.fclock_hz = r;
        }
        if let Some(r) = self.throughput_range {
            space.throughput_proc = r;
        }
        if let Some(b) = &self.bufferings {
            space.bufferings = b.clone();
        }
        if let Some(names) = &self.devices {
            let mut devices = Vec::with_capacity(names.len());
            for n in names {
                devices.push(rat_core::resources::device::find_device(n).ok_or_else(|| {
                    RatError::quantity("devices", format!("no catalog device matches '{n}'"))
                })?);
            }
            space.devices = devices;
        }
        if let Some(bits) = &self.precision_bits {
            let mut precisions = Vec::with_capacity(bits.len());
            for &b in bits {
                let total = b.checked_sub(1).ok_or_else(|| {
                    RatError::quantity("precision_bits", "width must be at least 1 bit".to_string())
                })?;
                precisions.push(QFormat::signed(0, total).map_err(|e| {
                    RatError::quantity("precision_bits", format!("{b}-bit format: {e}"))
                })?);
            }
            space.precisions = precisions;
        }
        let defaults = OptimizeConfig::default();
        let config = OptimizeConfig {
            seed: self.seed.unwrap_or(default_seed),
            generations: self.generations.unwrap_or(defaults.generations),
            population: self.population.unwrap_or(defaults.population),
        };
        Ok((space, config))
    }
}

/// `rat optimize`: deterministic guided search over the design space around
/// a base worksheet, on `engine`. Same seed → byte-identical front at every
/// worker and thread count.
pub fn optimize_report(
    engine: &Engine,
    input: &RatInput,
    spec: &OptimizeSpec,
) -> Result<String, RatError> {
    let (space, config) = spec.resolve(input, engine.config().root_seed)?;
    Ok(optimize(engine, &space, &config)?.render())
}

/// The clock band a case-study simulation accepts, checked by `rat trace`
/// and `POST /v1/simulate` alike: 1 MHz to 1 THz. The simulator's time is
/// picosecond integers, so past 1 THz a cycle rounds to zero, and a slow
/// enough clock overflows the makespan (sort's at about 1e-9 MHz, pdf2d's
/// at 1e-4 MHz). The floor sits far above those onsets and far below the
/// paper's 75–150 MHz designs.
pub fn check_clock_mhz(mhz: f64) -> Result<(), RatError> {
    if (1.0..=1.0e6).contains(&mhz) {
        Ok(())
    } else {
        Err(RatError::simulation(format!(
            "clock must be in [1, 1e6] MHz, got {mhz:?}"
        )))
    }
}

/// Cached case-study simulation: run one of the four shipped hardware
/// designs on its simulated platform at `mhz`, memoized through `cache` so
/// repeated points cost a hash lookup instead of a simulation. This is the
/// endpoint that exercises cross-request simulator-cache sharing.
pub fn simulate_report(app: &str, mhz: f64, cache: Option<&SimCache>) -> Result<String, ModeError> {
    let wrap = |source: RatError| {
        ModeError::with_context(format!("simulating {app} at {mhz:.1} MHz"), source)
    };
    check_clock_mhz(mhz).map_err(wrap)?;
    let fclock_hz = mhz * 1.0e6;
    let summary = match app {
        "pdf1d" => rat_apps::pdf::pdf1d::design().simulate_summary(fclock_hz, cache),
        "pdf2d" => rat_apps::pdf::pdf2d::design().simulate_summary(fclock_hz, cache),
        "md" => {
            rat_apps::md::hw::MdDesign::paper_scale_analytic().simulate_summary(fclock_hz, cache)
        }
        "sort" => rat_apps::sort::rat::design().simulate_summary(fclock_hz, cache),
        other => {
            return Err(wrap(RatError::simulation(format!(
                "unknown case study '{other}' (pdf1d|pdf2d|md|sort)"
            ))))
        }
    };
    Ok(format!(
        "simulated {app} at {mhz:.1} MHz over {} iterations:\n\
         \x20 total (t_RC)   {}\n\
         \x20 comm busy      {}  ({:.1}% of makespan)\n\
         \x20 compute busy   {}  ({:.1}% of makespan)\n\
         \x20 host overhead  {}\n",
        summary.iterations,
        summary.total,
        summary.comm_busy,
        summary.channel_utilization() * 100.0,
        summary.compute_busy,
        summary.compute_utilization() * 100.0,
        summary.host_overhead,
    ))
}

// ---------------------------------------------------------------------------
// Request parsing and dispatch for the HTTP surface.
// ---------------------------------------------------------------------------

/// A parsed analysis request, ready to run: what `parse_mode_request` reads
/// from a JSON body and what the CLI builds from argv.
#[derive(Debug, Clone)]
pub enum ApiRequest {
    /// `POST /v1/solve`
    Solve {
        /// The validated worksheet.
        input: RatInput,
        /// Target speedup.
        target: f64,
        /// Whether infeasible sub-solves are hard errors (422).
        strict: bool,
    },
    /// `POST /v1/sweep`
    Sweep {
        /// The validated worksheet.
        input: RatInput,
        /// Which parameter to sweep.
        param: SweepParam,
        /// The values to sweep over.
        values: Vec<f64>,
    },
    /// `POST /v1/uncertainty`
    Uncertainty {
        /// The validated worksheet.
        input: RatInput,
        /// Uncertain-parameter ranges.
        ranges: Vec<ParamRange>,
        /// Monte-Carlo sample count.
        samples: usize,
        /// Explicit RNG seed; `None` uses the engine's root seed (the CLI
        /// default), so an unseeded request matches the CLI byte-for-byte.
        seed: Option<u64>,
    },
    /// `POST /v1/explore`
    Explore {
        /// The validated worksheet (the base design).
        input: RatInput,
        /// Pass/fail speedup threshold.
        min_speedup: f64,
        /// Clock axis (Hz); defaults to the base worksheet's clock.
        fclocks: Option<Vec<f64>>,
        /// Parallelism axis; defaults to the base worksheet's value.
        throughput_procs: Option<Vec<f64>>,
        /// Buffering axis; defaults to both disciplines.
        bufferings: Option<Vec<Buffering>>,
    },
    /// `POST /v1/optimize`
    Optimize {
        /// The validated worksheet (the base design).
        input: RatInput,
        /// Search axes and knobs.
        spec: OptimizeSpec,
    },
    /// `POST /v1/sensitivity`
    Sensitivity {
        /// The validated worksheet.
        input: RatInput,
    },
    /// `POST /v1/simulate`
    Simulate {
        /// Case-study name (`pdf1d` | `pdf2d` | `md` | `sort`).
        app: String,
        /// Clock in MHz.
        mhz: f64,
    },
}

impl ApiRequest {
    /// The stable mode name echoed in the response envelope.
    pub fn mode(&self) -> &'static str {
        match self {
            ApiRequest::Solve { .. } => "solve",
            ApiRequest::Sweep { .. } => "sweep",
            ApiRequest::Uncertainty { .. } => "uncertainty",
            ApiRequest::Explore { .. } => "explore",
            ApiRequest::Optimize { .. } => "optimize",
            ApiRequest::Sensitivity { .. } => "sensitivity",
            ApiRequest::Simulate { .. } => "simulate",
        }
    }

    /// The shape rules both surfaces share, checked by [`handle`] before it
    /// runs anything: a sweep needs a value and an uncertainty run a range,
    /// an explore has at most [`MAX_EXPLORE_CORNERS`] corners and a search
    /// at most [`MAX_OPTIMIZE_EVALS`] evaluations. A violation is a
    /// malformed request (CLI exit 2, HTTP 400).
    pub fn check_shape(&self) -> Result<(), ApiError> {
        let cause = match self {
            ApiRequest::Sweep { values, .. } if values.is_empty() => {
                "sweep needs at least one value".to_string()
            }
            ApiRequest::Uncertainty { ranges, .. } if ranges.is_empty() => {
                "uncertainty needs at least one (param, lo, hi) range".to_string()
            }
            ApiRequest::Explore {
                fclocks,
                throughput_procs,
                bufferings,
                ..
            } => {
                let corners = fclocks
                    .as_ref()
                    .map_or(1, Vec::len)
                    .saturating_mul(throughput_procs.as_ref().map_or(1, Vec::len))
                    .saturating_mul(bufferings.as_ref().map_or(2, Vec::len));
                if corners <= MAX_EXPLORE_CORNERS {
                    return Ok(());
                }
                format!("design space has {corners} corners; at most {MAX_EXPLORE_CORNERS}")
            }
            ApiRequest::Optimize { spec, .. } => {
                let defaults = OptimizeConfig::default();
                let evals = u64::from(spec.generations.unwrap_or(defaults.generations))
                    .saturating_mul(spec.population.unwrap_or(defaults.population) as u64);
                if evals <= MAX_OPTIMIZE_EVALS {
                    return Ok(());
                }
                format!(
                    "generations x population is {evals} evaluations; \
                     at most {MAX_OPTIMIZE_EVALS}"
                )
            }
            _ => return Ok(()),
        };
        Err(bad_body(cause))
    }
}

/// All mode route suffixes under `/v1/`, in documentation order.
pub const MODES: [&str; 7] = [
    "solve",
    "sweep",
    "uncertainty",
    "explore",
    "optimize",
    "sensitivity",
    "simulate",
];

/// A 400 for a request body that is not the shape a mode needs.
fn bad_body(cause: impl Into<String>) -> ApiError {
    ApiError::bad_request("reading request body", cause)
}

fn require<'a, 'j>(doc: &'a Json<'j>, key: &str) -> Result<&'a Json<'j>, ApiError> {
    doc.get(key)
        .ok_or_else(|| bad_body(format!("missing '{key}'")))
}

fn require_str<'a>(doc: &'a Json<'_>, key: &str) -> Result<&'a str, ApiError> {
    require(doc, key)?
        .as_str()
        .ok_or_else(|| bad_body(format!("'{key}' must be a string")))
}

fn require_f64(doc: &Json<'_>, key: &str) -> Result<f64, ApiError> {
    require(doc, key)?
        .as_f64()
        .ok_or_else(|| bad_body(format!("'{key}' must be a number")))
}

fn optional_f64(doc: &Json<'_>, key: &str) -> Result<Option<f64>, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad_body(format!("'{key}' must be a number"))),
    }
}

/// A JSON number as an integer that fits the field's type `T`. JSON numbers
/// are doubles, so only integers up to 2^53 are exact; larger ones are
/// refused rather than rounded. Value rules (at least one generation, a
/// supported precision width, …) are the core's.
fn int_field<T: TryFrom<u64>>(key: &str, v: f64) -> Result<T, ApiError> {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if v.fract() == 0.0 && (0.0..=EXACT).contains(&v) {
        if let Ok(n) = T::try_from(v as u64) {
            return Ok(n);
        }
    }
    Err(bad_body(format!(
        "'{key}' must be a non-negative integer that fits {}, got {v}",
        std::any::type_name::<T>()
    )))
}

fn optional_int<T: TryFrom<u64>>(doc: &Json<'_>, key: &str) -> Result<Option<T>, ApiError> {
    optional_f64(doc, key)?
        .map(|v| int_field(key, v))
        .transpose()
}

fn optional_bool(doc: &Json<'_>, key: &str) -> Result<bool, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(bad_body(format!("'{key}' must be a boolean"))),
    }
}

fn f64_list(v: &Json<'_>, key: &str) -> Result<Vec<f64>, ApiError> {
    v.as_array()
        .ok_or_else(|| bad_body(format!("'{key}' must be an array")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| bad_body(format!("'{key}' must contain only numbers")))
        })
        .collect()
}

fn optional_f64_list(doc: &Json<'_>, key: &str) -> Result<Option<Vec<f64>>, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => f64_list(v, key).map(Some),
    }
}

fn optional_str_list(doc: &Json<'_>, key: &str) -> Result<Option<Vec<String>>, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let not_strings = || bad_body(format!("'{key}' must be an array of strings"));
            let arr = v.as_array().ok_or_else(not_strings)?;
            let mut out = Vec::with_capacity(arr.len());
            for s in arr {
                out.push(s.as_str().ok_or_else(not_strings)?.to_string());
            }
            Ok(Some(out))
        }
    }
}

fn parse_buffering_list(doc: &Json<'_>) -> Result<Option<Vec<Buffering>>, ApiError> {
    match optional_str_list(doc, "bufferings")? {
        None => Ok(None),
        Some(names) => {
            let mut out = Vec::with_capacity(names.len());
            for n in &names {
                out.push(parse_buffering(n).map_err(bad_body)?);
            }
            Ok(Some(out))
        }
    }
}

/// Parse the JSON body of `POST /v1/<mode>` into a runnable request. This
/// checks each field's JSON type and the daemon's sweep and Monte-Carlo
/// size caps, which protect a shared worker pool; [`handle`] and the core
/// check everything else.
pub fn parse_mode_request(mode: &str, body: &str) -> Result<ApiRequest, ApiError> {
    let doc =
        json::parse(body).map_err(|e| ApiError::bad_request("parsing request body as JSON", e))?;
    if doc.as_object().is_none() {
        return Err(bad_body("top-level value must be an object"));
    }
    match mode {
        "solve" => {
            let input = parse_worksheet(require_str(&doc, "worksheet_toml")?)?;
            let target = require_f64(&doc, "target")?;
            let strict = optional_bool(&doc, "strict")?;
            Ok(ApiRequest::Solve {
                input,
                target,
                strict,
            })
        }
        "sweep" => {
            let input = parse_worksheet(require_str(&doc, "worksheet_toml")?)?;
            let param = parse_param(require_str(&doc, "param")?).map_err(bad_body)?;
            let values = f64_list(require(&doc, "values")?, "values")?;
            if values.len() > MAX_SWEEP_VALUES {
                return Err(bad_body(format!(
                    "at most {MAX_SWEEP_VALUES} sweep values per request"
                )));
            }
            Ok(ApiRequest::Sweep {
                input,
                param,
                values,
            })
        }
        "uncertainty" => {
            let input = parse_worksheet(require_str(&doc, "worksheet_toml")?)?;
            let ranges_json = require(&doc, "ranges")?
                .as_array()
                .ok_or_else(|| bad_body("'ranges' must be an array"))?;
            let mut ranges = Vec::with_capacity(ranges_json.len());
            for r in ranges_json {
                let param = parse_param(require_str(r, "param")?).map_err(bad_body)?;
                let lo = require_f64(r, "lo")?;
                let hi = require_f64(r, "hi")?;
                ranges.push(ParamRange::new(param, lo, hi));
            }
            let samples = optional_int(&doc, "samples")?.unwrap_or(DEFAULT_MC_SAMPLES);
            if samples > MAX_MC_SAMPLES {
                return Err(bad_body(format!(
                    "at most {MAX_MC_SAMPLES} Monte-Carlo samples per request"
                )));
            }
            let seed = optional_int(&doc, "seed")?;
            Ok(ApiRequest::Uncertainty {
                input,
                ranges,
                samples,
                seed,
            })
        }
        "explore" => {
            let input = parse_worksheet(require_str(&doc, "worksheet_toml")?)?;
            let min_speedup = require_f64(&doc, "min_speedup")?;
            let fclocks = optional_f64_list(&doc, "fclocks")?;
            let throughput_procs = optional_f64_list(&doc, "throughput_procs")?;
            let bufferings = parse_buffering_list(&doc)?;
            Ok(ApiRequest::Explore {
                input,
                min_speedup,
                fclocks,
                throughput_procs,
                bufferings,
            })
        }
        "optimize" => {
            let input = parse_worksheet(require_str(&doc, "worksheet_toml")?)?;
            let seed = optional_int(&doc, "seed")?;
            let generations = optional_int(&doc, "generations")?;
            let population = optional_int(&doc, "population")?;
            let pair = |key: &str| -> Result<Option<(f64, f64)>, ApiError> {
                match optional_f64_list(&doc, key)? {
                    None => Ok(None),
                    Some(v) if v.len() == 2 => Ok(Some((v[0], v[1]))),
                    Some(v) => Err(bad_body(format!(
                        "'{key}' must be a [lo, hi] pair, got {} values",
                        v.len()
                    ))),
                }
            };
            let fclock_range = pair("fclock_range")?;
            let throughput_range = pair("throughput_range")?;
            let bufferings = parse_buffering_list(&doc)?;
            let devices = optional_str_list(&doc, "devices")?;
            let precision_bits = optional_f64_list(&doc, "precision_bits")?
                .map(|bits| {
                    bits.into_iter()
                        .map(|b| int_field("precision_bits", b))
                        .collect()
                })
                .transpose()?;
            Ok(ApiRequest::Optimize {
                input,
                spec: OptimizeSpec {
                    seed,
                    generations,
                    population,
                    fclock_range,
                    throughput_range,
                    bufferings,
                    devices,
                    precision_bits,
                },
            })
        }
        "sensitivity" => {
            let input = parse_worksheet(require_str(&doc, "worksheet_toml")?)?;
            Ok(ApiRequest::Sensitivity { input })
        }
        "simulate" => {
            let app = require_str(&doc, "app")?.to_string();
            let mhz = require_f64(&doc, "mhz")?;
            Ok(ApiRequest::Simulate { app, mhz })
        }
        other => Err(ApiError::UnknownRoute(format!("/v1/{other}"))),
    }
}

/// Run a parsed request on `engine`, memoizing simulations through `cache`.
/// This is the one runner: `rat serve` calls it for every request but a
/// coalesced solve, and the CLI for its six analysis modes. The success
/// value's `report` is byte-identical to the CLI's stdout for the same
/// inputs; a pipeline failure carries a `running <mode> for worksheet
/// '<name>'` context line.
pub fn handle(
    engine: &Engine,
    req: &ApiRequest,
    cache: Option<&SimCache>,
) -> Result<ApiOk, ApiError> {
    req.check_shape()?;
    let mode = req.mode();
    let wrap = |input: &RatInput, source: RatError| {
        ApiError::Mode(ModeError::with_context(
            format!("running {mode} for worksheet '{}'", input.name),
            source,
        ))
    };
    let report = match req {
        ApiRequest::Solve {
            input,
            target,
            strict,
        } => {
            let quad = rat_core::solve::inverse_quad(input, *target);
            if *strict {
                solve_report_strict_from_quad(input, *target, &quad)?
            } else {
                solve_report_from_quad(input, *target, &quad)
            }
        }
        ApiRequest::Sweep {
            input,
            param,
            values,
        } => rat_core::sweep::sweep_with(engine, input, *param, values)
            .map_err(|e| wrap(input, e))?
            .render(),
        ApiRequest::Uncertainty {
            input,
            ranges,
            samples,
            seed,
        } => {
            let seed = seed.unwrap_or(engine.config().root_seed);
            rat_core::uncertainty::propagate_with(engine, input, ranges, *samples, seed)
                .map_err(|e| wrap(input, e))?
                .render()
        }
        ApiRequest::Explore {
            input,
            min_speedup,
            fclocks,
            throughput_procs,
            bufferings,
        } => explore_report(
            input,
            *min_speedup,
            fclocks.clone(),
            throughput_procs.clone(),
            bufferings.clone(),
        )
        .map_err(|e| wrap(input, e))?,
        ApiRequest::Optimize { input, spec } => {
            optimize_report(engine, input, spec).map_err(|e| wrap(input, e))?
        }
        ApiRequest::Sensitivity { input } => rat_core::sensitivity::analyze_with(engine, input)
            .map_err(|e| wrap(input, e))?
            .render(),
        ApiRequest::Simulate { app, mhz } => {
            simulate_report(app, *mhz, cache).map_err(ApiError::Mode)?
        }
    };
    Ok(ApiOk { mode, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_toml() -> String {
        toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).expect("serializable")
    }

    #[test]
    fn status_table_mirrors_cli_exit_codes() {
        // exit 3 → 400, exit 4 → 422, exit 5 → 500.
        assert_eq!(http_status(&RatError::InvalidParameter("x".into())), 400);
        assert_eq!(http_status(&RatError::quantity("comp.fclock", "bad")), 400);
        assert_eq!(http_status(&RatError::Infeasible("wall".into())), 422);
        assert_eq!(http_status(&RatError::simulation("diverged")), 500);
        // exit 2 (usage) → 400 at the protocol layer.
        assert_eq!(ApiError::bad_request("x", "y").status(), 400);
    }

    #[test]
    fn protocol_errors_have_distinct_statuses() {
        assert_eq!(ApiError::UnknownRoute("/nope".into()).status(), 404);
        assert_eq!(
            ApiError::WrongMethod {
                path: "/metrics".into(),
                allowed: "GET"
            }
            .status(),
            405
        );
        assert_eq!(ApiError::Timeout.status(), 408);
        assert_eq!(ApiError::TooLarge { limit: 1 }.status(), 413);
        assert_eq!(ApiError::Busy.status(), 503);
    }

    #[test]
    fn error_bodies_carry_the_cause_chain() {
        let e = ApiError::Mode(ModeError::with_context(
            "solving 'x' for 10x speedup",
            RatError::Infeasible("communication alone exceeds budget".into()),
        ));
        let body = e.to_json();
        assert!(
            body.contains("\"error\": \"solving 'x' for 10x speedup\""),
            "{body}"
        );
        assert!(body.contains("caused_by"), "{body}");
        assert!(body.contains("infeasible: communication"), "{body}");
    }

    #[test]
    fn escape_handles_quotes_newlines_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        // Round-trips through the strict reader.
        let s = "line1\nline2\t\"quoted\"";
        let body = format!("{{\"x\": \"{}\"}}", escape_json(s));
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("x").and_then(Json::as_str), Some(s));
    }

    #[test]
    fn parse_solve_request_round_trips() {
        let body = format!(
            "{{\"worksheet_toml\": \"{}\", \"target\": 8.0}}",
            escape_json(&ws_toml())
        );
        let req = parse_mode_request("solve", &body).unwrap();
        match &req {
            ApiRequest::Solve {
                input,
                target,
                strict,
            } => {
                assert_eq!(input.dataset.elements_in, 512);
                assert_eq!(*target, 8.0);
                assert!(!strict);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let ok = handle(&Engine::sequential(), &req, None).unwrap();
        assert_eq!(ok.mode, "solve");
        let input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
        assert_eq!(
            ok.report,
            solve_report_from_quad(&input, 8.0, &rat_core::solve::inverse_quad(&input, 8.0))
        );
    }

    #[test]
    fn success_bodies_are_allocated_at_their_exact_length() {
        let ws = escape_json(&ws_toml());
        let with_ws = |fields: &str| format!("{{\"worksheet_toml\": \"{ws}\"{fields}}}");
        let engine = Engine::sequential();
        let sims = SimCache::new();
        for (mode, body) in [
            ("solve", with_ws(", \"target\": 8.0")),
            ("sweep", with_ws(", \"param\": \"fclock\", \"values\": [75e6, 150e6]")),
            ("sensitivity", with_ws("")),
            (
                "uncertainty",
                with_ws(", \"samples\": 64, \"ranges\": [{\"param\": \"fclock\", \"lo\": 1e8, \"hi\": 2e8}]"),
            ),
            ("explore", with_ws(", \"min_speedup\": 4.0, \"fclocks\": [100e6, 150e6]")),
            ("simulate", "{\"app\": \"pdf1d\", \"mhz\": 150.0}".to_string()),
        ] {
            let req = parse_mode_request(mode, &body).unwrap();
            let ok = handle(&engine, &req, Some(&sims)).unwrap();
            let json = ok.to_json();
            assert_eq!(json.capacity(), json.len(), "{mode}");
            let doc = json::parse(&json).unwrap();
            assert_eq!(doc.get("mode").and_then(Json::as_str), Some(mode));
            assert_eq!(doc.get("report").and_then(Json::as_str), Some(&*ok.report));
        }
    }

    #[test]
    fn parse_rejects_missing_and_mistyped_fields() {
        assert!(matches!(
            parse_mode_request("solve", "{\"target\": 8}"),
            Err(ApiError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_mode_request("solve", "not json"),
            Err(ApiError::BadRequest { .. })
        ));
        assert!(matches!(
            parse_mode_request("solve", "[1,2]"),
            Err(ApiError::BadRequest { .. })
        ));
        let body = format!(
            "{{\"worksheet_toml\": \"{}\", \"target\": \"ten\"}}",
            escape_json(&ws_toml())
        );
        assert!(matches!(
            parse_mode_request("solve", &body),
            Err(ApiError::BadRequest { .. })
        ));
        let body = format!(
            "{{\"worksheet_toml\": \"{}\", \"param\": \"warp\", \"values\": [1]}}",
            escape_json(&ws_toml())
        );
        assert!(matches!(
            parse_mode_request("sweep", &body),
            Err(ApiError::BadRequest { .. })
        ));
    }

    #[test]
    fn invalid_worksheet_maps_to_the_taxonomy_not_400_json() {
        let bad = ws_toml().replace("150000000.0", "-1.0");
        let body = format!(
            "{{\"worksheet_toml\": \"{}\", \"target\": 8.0}}",
            escape_json(&bad)
        );
        let err = parse_mode_request("solve", &body).unwrap_err();
        assert_eq!(err.status(), 400, "{err:?}");
        assert!(err.to_json().contains("fclock"), "{}", err.to_json());
    }

    #[test]
    fn undecodable_worksheet_is_a_bad_request_with_the_decoder_message() {
        let bad = ws_toml().replace("fclock = 150000000.0", "fclock = \"150 parsecs\"");
        let body = format!(
            "{{\"worksheet_toml\": \"{}\", \"target\": 8.0}}",
            escape_json(&bad)
        );
        match parse_mode_request("solve", &body) {
            Err(ApiError::BadRequest { what, cause }) => {
                assert_eq!(what, "parsing worksheet_toml");
                assert_eq!(
                    cause,
                    "TOML parse error: comp: fclock: unknown frequency unit `parsecs` in `150 parsecs`"
                );
            }
            other => panic!("expected a 400 from the decoder, got {other:?}"),
        }
    }

    #[test]
    fn simulate_report_is_deterministic_and_cached() {
        let cache = SimCache::new();
        let a = simulate_report("pdf1d", 150.0, Some(&cache)).unwrap();
        let before = cache.stats();
        let b = simulate_report("pdf1d", 150.0, Some(&cache)).unwrap();
        let after = cache.stats();
        assert_eq!(a, b);
        assert!(after.hits > before.hits, "{after:?} vs {before:?}");
        assert!(a.contains("total (t_RC)"), "{a}");
        // Bad inputs are simulation-class errors, not panics: clocks outside
        // [1, 1e6] MHz, including ones slow enough to overflow the makespan.
        for mhz in [0.0, 0.999, 1.0e-9, -150.0, 1.000_001e6, f64::NAN] {
            let err = simulate_report("sort", mhz, Some(&cache)).unwrap_err();
            assert_eq!(http_status(&err.source), 500, "{mhz}");
        }
        assert!(simulate_report("sort", 1.0, Some(&cache)).is_ok());
        let err = simulate_report("warp", 100.0, Some(&cache)).unwrap_err();
        assert!(err.source.to_string().contains("unknown case study"));
    }

    #[test]
    fn shape_rules_are_bad_requests_from_handle() {
        let input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
        let engine = Engine::sequential();
        let empty = [
            ApiRequest::Sweep {
                input: input.clone(),
                param: SweepParam::Fclock,
                values: Vec::new(),
            },
            ApiRequest::Uncertainty {
                input,
                ranges: Vec::new(),
                samples: DEFAULT_MC_SAMPLES,
                seed: None,
            },
        ];
        for req in &empty {
            match handle(&engine, req, None) {
                Err(ApiError::BadRequest { cause, .. }) => {
                    assert!(cause.contains("needs at least one"), "{cause}")
                }
                other => panic!("{} with nothing to vary: {other:?}", req.mode()),
            }
        }
    }

    #[test]
    fn size_caps_are_bad_requests_from_handle_for_both_surfaces() {
        let input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
        let explore =
            |clocks: usize, tps: usize, bufferings: Option<Vec<Buffering>>| ApiRequest::Explore {
                input: input.clone(),
                min_speedup: 1.0,
                fclocks: Some(vec![1.0e8; clocks]),
                throughput_procs: Some(vec![1.0; tps]),
                bufferings,
            };
        let optimize = |generations: u32, population: usize| ApiRequest::Optimize {
            input: input.clone(),
            spec: OptimizeSpec {
                generations: Some(generations),
                population: Some(population),
                ..OptimizeSpec::default()
            },
        };
        // At the caps: 1,000 × 500 × both bufferings, and 1,000 × 1,000.
        for req in [
            explore(1000, 500, None),
            explore(1000, 1000, Some(vec![Buffering::Double])),
            optimize(1000, 1000),
        ] {
            assert!(req.check_shape().is_ok(), "{}", req.mode());
        }
        let engine = Engine::sequential();
        for (req, want) in [
            (
                explore(1000, 501, None),
                "design space has 1002000 corners; at most 1000000",
            ),
            (
                optimize(1, 1 << 60),
                "generations x population is 1152921504606846976 evaluations; at most 1000000",
            ),
            (
                optimize(1100, 1000),
                "generations x population is 1100000 evaluations; at most 1000000",
            ),
        ] {
            match handle(&engine, &req, None) {
                Err(ApiError::BadRequest { cause, .. }) => assert_eq!(cause, want),
                other => panic!("{}: {other:?}", req.mode()),
            }
        }
    }

    #[test]
    fn integer_fields_check_only_that_the_number_fits() {
        let ws = escape_json(&ws_toml());
        let optimize = |fields: &str| {
            parse_mode_request(
                "optimize",
                &format!("{{\"worksheet_toml\": \"{ws}\", {fields}}}"),
            )
        };
        // Fractions, negatives and values past the field's type are syntax
        // errors the parser names.
        for fields in [
            "\"seed\": 1.5",
            "\"seed\": -1",
            "\"seed\": 1e300",
            "\"generations\": 5e9",
            "\"precision_bits\": [18, 4294967296]",
        ] {
            match optimize(fields) {
                Err(ApiError::BadRequest { cause, .. }) => {
                    assert!(cause.contains("non-negative integer that fits"), "{cause}")
                }
                other => panic!("{fields}: {other:?}"),
            }
        }
        // Zero generations and a 64-bit width parse; the core rejects them
        // when the request runs, naming the field.
        for (fields, field) in [
            ("\"generations\": 0", "generations"),
            ("\"precision_bits\": [64]", "precision_bits"),
        ] {
            let req = optimize(fields).unwrap();
            let err = handle(&Engine::sequential(), &req, None).unwrap_err();
            assert_eq!(err.status(), 400, "{fields}");
            assert!(err.causes()[0].contains(field), "{fields}: {err:?}");
        }
        // The daemon's sample cap is the parser's.
        let body = format!(
            "{{\"worksheet_toml\": \"{ws}\", \"samples\": {}, \
             \"ranges\": [{{\"param\": \"fclock\", \"lo\": 1e8, \"hi\": 2e8}}]}}",
            MAX_MC_SAMPLES + 1
        );
        assert!(matches!(
            parse_mode_request("uncertainty", &body),
            Err(ApiError::BadRequest { .. })
        ));
    }

    #[test]
    fn explore_defaults_mirror_the_cli() {
        let input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
        let via_api = explore_report(&input, 5.0, None, None, None).unwrap();
        let space = DesignSpace {
            base: input.clone(),
            fclocks: vec![input.comp.fclock.hz()],
            throughput_procs: vec![input.comp.throughput_proc],
            bufferings: vec![Buffering::Single, Buffering::Double],
        };
        assert_eq!(via_api, explore(&space, 5.0).unwrap().render());
    }
}
