//! `rat` — the RC Amenability Test command-line tool.
//!
//! ```text
//! rat analyze <worksheet.toml>             run the RAT worksheet
//! rat clocks <worksheet.toml> <MHz>...     analyze at several clocks
//! rat solve <worksheet.toml> <speedup>     inverse-solve for the target
//! rat sweep <worksheet.toml> <param> <v>.. sweep one parameter
//! rat sensitivity <worksheet.toml>         rank parameter elasticities
//! rat explore <worksheet.toml> <speedup>   throughput-gate a design space
//! rat microbench <platform>                derive alpha(size) tables
//! rat reproduce <artifact|all> [--fast]    regenerate paper tables/figures
//! rat bench [--json] [--quick] [--serve]   time hot paths vs their baselines
//! rat serve [--port N] [--workers N]       resident analysis daemon
//! rat example-worksheet                    print a starter worksheet
//! ```
//!
//! The six analysis modes `rat serve` also answers (solve, sweep,
//! sensitivity, uncertainty, explore, optimize) build the daemon's
//! `rat_serve::api::ApiRequest` from argv and run it through
//! `rat_serve::api::handle`, so a server response body is byte-identical to
//! this CLI's stdout for the same request (see DESIGN.md §14).

#![cfg_attr(not(test), warn(unused_crate_dependencies))]
// Every byte of stdout goes through `write_stdout`, which turns a closed
// pipe into a quiet exit instead of a `println!` panic.
#![warn(clippy::print_stdout)]

use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

use rat_core::engine::{Engine, EngineConfig};
use rat_core::params::{Buffering, RatInput};
use rat_core::quantity::Freq;
use rat_core::sweep::SweepParam;
use rat_core::telemetry;
use rat_core::uncertainty::ParamRange;
use rat_core::worksheet::Worksheet;
use rat_core::RatError;
use rat_serve::api::{self, ApiError, ApiRequest, ModeError, OptimizeSpec};

/// A CLI failure: a command-line usage problem, a worksheet I/O or parse
/// failure, or an error from the model pipeline — each class mapped to a
/// distinct process exit code so scripts can tell "you typed it wrong" from
/// "the design is infeasible" (see DESIGN.md §10):
///
/// | exit code | class |
/// |-----------|-------|
/// | 0 | success |
/// | 2 | usage error (unknown command, bad flag, missing argument) |
/// | 3 | invalid worksheet parameter, quantity, or TOML |
/// | 4 | infeasible solve (no parameter value reaches the target) |
/// | 5 | simulator failure |
/// | 6 | I/O failure (worksheet file, stdout, `--profile` output) |
#[derive(Debug)]
enum CliError {
    /// The command line itself is wrong.
    Usage(String),
    /// A worksheet file could not be read.
    Io {
        /// Path as given on the command line.
        path: String,
        /// Underlying filesystem error, rendered via the source chain.
        source: std::io::Error,
    },
    /// A worksheet file is not valid TOML for a RAT input.
    Parse {
        /// Path as given on the command line.
        path: String,
        /// The deserializer's message (already names the offending field).
        message: String,
    },
    /// The model pipeline rejected the inputs or failed while running: the
    /// same error `rat serve` answers with. A context line (what was being
    /// attempted) renders as the `error:` line with the [`RatError`] on the
    /// `caused by:` chain; the [`RatError`] decides the exit code.
    Mode(ModeError),
    /// Writing the output to stdout failed. A `BrokenPipe` (the reader
    /// stopped early, as in `rat ... | head`) ends the run quietly, exit 0.
    Stdout(std::io::Error),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    /// The process exit code for this error class.
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Parse { .. } => 3,
            CliError::Mode(m) => match m.source {
                RatError::InvalidParameter(_) | RatError::InvalidQuantity { .. } => 3,
                RatError::Infeasible(_) => 4,
                RatError::Simulation(_) => 5,
            },
            CliError::Io { .. } | CliError::Stdout(_) => 6,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { path, .. } => write!(f, "reading {path}"),
            CliError::Parse { path, message } => write!(f, "parsing {path}: {message}"),
            CliError::Mode(m) => write!(f, "{m}"),
            CliError::Stdout(_) => write!(f, "writing to stdout"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } | CliError::Stdout(source) => Some(source),
            CliError::Mode(m) => std::error::Error::source(m),
            _ => None,
        }
    }
}

impl From<RatError> for CliError {
    fn from(e: RatError) -> Self {
        CliError::Mode(e.into())
    }
}

/// A failure from the shared runner: a pipeline failure keeps its context
/// line and exit code, and a malformed request is a usage error whose
/// message is the cause `rat serve` puts in its 400 body.
impl From<ApiError> for CliError {
    fn from(e: ApiError) -> Self {
        match e {
            ApiError::Mode(m) => CliError::Mode(m),
            ApiError::BadRequest { cause, .. } => CliError::Usage(cause),
            other => CliError::Usage(other.message()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_global_flags(&args) {
        Ok(v) => v,
        Err(err) => {
            report_error(&err);
            return ExitCode::from(err.exit_code());
        }
    };
    let telemetry_on = flags.metrics || flags.profile.is_some();
    if telemetry_on {
        telemetry::global().enable();
    }
    let engine = Engine::new(flags.config);
    let result = {
        let command = flags
            .rest
            .first()
            .cloned()
            .unwrap_or_else(|| "help".to_string());
        let _run_span = telemetry::span_args(
            "rat.run",
            vec![("command", telemetry::ArgValue::Str(command.into()))],
        );
        dispatch(&engine, &flags.rest)
    }
    .and_then(|output| write_stdout(&output));
    let code = match result {
        Ok(()) => {
            report_engine_stats(&engine);
            ExitCode::SUCCESS
        }
        // The reader stopped early (`rat ... | head`): nothing went wrong.
        Err(CliError::Stdout(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(err) => {
            report_error(&err);
            ExitCode::from(err.exit_code())
        }
    };
    if telemetry_on {
        if let Err(err) = emit_telemetry(flags.metrics, flags.profile.as_deref()) {
            report_error(&err);
            // Preserve the dispatch failure's code if there was one;
            // otherwise the telemetry I/O failure becomes the exit code.
            if code == ExitCode::SUCCESS {
                return ExitCode::from(err.exit_code());
            }
        }
    }
    code
}

/// Write `text` and a newline to stdout through one locked handle, flushed,
/// so a write failure is an error value rather than a `println!` panic.
fn write_stdout(text: &str) -> Result<(), CliError> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{text}")
        .and_then(|()| out.flush())
        .map_err(CliError::Stdout)
}

/// Render an error (and its full `caused by:` source chain) on stderr.
fn report_error(err: &CliError) {
    eprintln!("error: {err}");
    let mut source = std::error::Error::source(err);
    while let Some(cause) = source {
        eprintln!("  caused by: {cause}");
        source = cause.source();
    }
    if matches!(err, CliError::Usage(_)) {
        eprintln!("run `rat help` for usage");
    }
}

/// Drain the global telemetry collector and emit what the flags asked for:
/// the tree summary on stderr (`--metrics`; stdout stays byte-identical to
/// an uninstrumented run) and/or the chrome-trace JSON file (`--profile`).
fn emit_telemetry(metrics: bool, profile: Option<&str>) -> Result<(), CliError> {
    let profile_data = telemetry::global().drain();
    if metrics {
        eprint!("{}", profile_data.render_tree());
    }
    if let Some(path) = profile {
        std::fs::write(path, profile_data.to_chrome_json()).map_err(|source| CliError::Io {
            path: path.to_string(),
            source,
        })?;
    }
    Ok(())
}

/// Engine and cache counters go to stderr so stdout stays byte-identical
/// across `--jobs` settings (wall/cpu times vary run to run).
fn report_engine_stats(engine: &Engine) {
    let stats = engine.stats();
    if stats.jobs_run > 0 {
        eprintln!("{}", stats.render());
    }
    let cache = fpga_sim::SimCache::global().stats();
    if cache.hits + cache.misses > 0 {
        eprintln!(
            "sim cache: {} hit(s), {} miss(es) ({:.0}% hit rate)",
            cache.hits,
            cache.misses,
            cache.hit_rate() * 100.0
        );
    }
}

/// The global flags every command accepts, stripped from the argument list.
struct GlobalFlags {
    /// Engine configuration (`--jobs`).
    config: EngineConfig,
    /// Print the telemetry tree summary on stderr (`--metrics`).
    metrics: bool,
    /// Write a chrome-trace JSON profile to this path (`--profile <path>`).
    profile: Option<String>,
    /// Remaining (command) arguments.
    rest: Vec<String>,
}

/// Strip the global `--jobs N` / `--jobs=N` / `--metrics` /
/// `--profile <path.json>` flags from the argument list, returning them plus
/// the remaining (command) arguments. `rat serve` rejects the last two.
fn parse_global_flags(args: &[String]) -> Result<GlobalFlags, CliError> {
    let mut flags = GlobalFlags {
        config: EngineConfig::default(),
        metrics: false,
        profile: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            flags.config = flags.config.with_jobs(flag_value(&mut it, a)?);
        } else if let Some(n) = a.strip_prefix("--jobs=") {
            flags.config = flags.config.with_jobs(parse_arg("--jobs value", n)?);
        } else if a == "--metrics" {
            flags.metrics = true;
        } else if a == "--profile" {
            flags.profile = Some(flag_value(&mut it, a)?);
        } else if let Some(p) = a.strip_prefix("--profile=") {
            if p.is_empty() {
                return Err(CliError::usage("--profile needs a value"));
            }
            flags.profile = Some(p.to_string());
        } else {
            flags.rest.push(a.clone());
        }
    }
    // A daemon exports its counters at GET /metrics; these flags would
    // record its spans for its whole lifetime and drain them only at exit.
    if (flags.metrics || flags.profile.is_some())
        && flags.rest.first().is_some_and(|c| c == "serve")
    {
        return Err(CliError::usage(
            "`rat serve` takes no --metrics or --profile: read its counters at GET /metrics",
        ));
    }
    Ok(flags)
}

/// Test-facing entry point: parse global flags, build the engine, dispatch.
/// Telemetry flags are parsed but not enabled here — the global collector is
/// process-wide, and in-process tests must not leak spans into each other;
/// the end-to-end flag behavior is covered by `tests/cli_binary.rs`.
#[cfg(test)]
fn run(args: &[String]) -> Result<String, CliError> {
    let flags = parse_global_flags(args)?;
    dispatch(&Engine::new(flags.config), &flags.rest)
}

fn dispatch(engine: &Engine, args: &[String]) -> Result<String, CliError> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "help" | "--help" | "-h" => Ok(usage()),
        "analyze" => {
            let input = load_worksheet(args.get(1))?;
            let mut markdown = false;
            for a in args.iter().skip(2) {
                match a.as_str() {
                    "--markdown" => markdown = true,
                    other => return Err(unexpected(cmd, other)),
                }
            }
            let report = Worksheet::new(input).analyze()?;
            if markdown {
                Ok(report.render_markdown())
            } else {
                Ok(report.render())
            }
        }
        "clocks" => {
            let input = load_worksheet(args.get(1))?;
            let clocks = parse_mhz_list(&args[2..])?;
            let reports = Worksheet::new(input).analyze_clocks(&clocks)?;
            let mut out = String::new();
            for r in reports {
                out.push_str(&r.render_performance());
                out.push('\n');
            }
            Ok(out)
        }
        "solve" | "sweep" | "sensitivity" | "uncertainty" | "explore" | "optimize" => {
            let req = mode_request(cmd, &args[1..])?;
            Ok(api::handle(engine, &req, None)?.report)
        }
        "multi-fpga" => {
            let input = load_worksheet(args.get(1))?;
            let max: u32 = args
                .get(2)
                .map(|v| parse_arg("device count", v))
                .transpose()?
                .unwrap_or(16);
            no_more(cmd, args, 3)?;
            let curve = rat_core::multifpga::scaling_curve_with(engine, &input, max)?;
            let sat = rat_core::multifpga::saturating_devices(&input)?;
            Ok(format!(
                "{}channel saturates the scaling at {sat} device(s)\n",
                curve.render()
            ))
        }
        "streaming" => {
            let input = load_worksheet(args.get(1))?;
            let duplex = match args.get(2).map(String::as_str) {
                None | Some("half") => rat_core::streaming::ChannelDuplex::Half,
                Some("full") => rat_core::streaming::ChannelDuplex::Full,
                Some(other) => {
                    return Err(CliError::usage(format!(
                        "unknown duplex '{other}' (half|full)"
                    )))
                }
            };
            no_more(cmd, args, 3)?;
            let s = rat_core::streaming::analyze(&input, duplex)?;
            Ok(s.render())
        }
        "microbench" => {
            let spec = parse_platform(args.get(1).map(String::as_str).unwrap_or(""))?;
            no_more(cmd, args, 2)?;
            let table = fpga_sim::microbench::alpha_table(
                &spec.interconnect,
                &fpga_sim::microbench::standard_sizes(),
            );
            Ok(format!(
                "alpha(size) for {}:\n{}",
                spec.name,
                fpga_sim::microbench::render_alpha_table(&table)
            ))
        }
        "reproduce" => {
            let mut what = None;
            let mut fast = false;
            for a in args.iter().skip(1) {
                match a.as_str() {
                    "--fast" => fast = true,
                    other if other.starts_with("--") || what.is_some() => {
                        return Err(unexpected(cmd, other))
                    }
                    other => what = Some(other),
                }
            }
            let what = what.unwrap_or("all");
            if what == "all" {
                let mut out = String::new();
                for a in rat_bench::all_artifacts_with(engine, fast) {
                    out.push_str(&format!("==== {} — {} ====\n{}\n", a.id, a.title, a.body));
                }
                Ok(out)
            } else {
                rat_bench::artifact(what, fast)
                    .map(|a| format!("==== {} — {} ====\n{}", a.id, a.title, a.body))
                    .ok_or_else(|| {
                        CliError::usage(format!(
                            "unknown artifact '{what}' (table1..table10, figure1..figure3)"
                        ))
                    })
            }
        }
        "trace" => {
            let app = args.get(1).map(String::as_str);
            // Optional `--mhz <v>` overrides the case study's tuned clock. It
            // passes the clock check `POST /v1/simulate` makes, so an
            // out-of-band clock or a simulator rejection exits 5 with
            // context rather than panicking.
            let mut mhz_override = None;
            let mut csv = false;
            let mut it = args.iter().skip(2);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--mhz" => mhz_override = Some(flag_value(&mut it, a)?),
                    "--csv" => csv = true,
                    other => return Err(unexpected(cmd, other)),
                }
            }
            let (name, default_mhz, t_soft) = match app {
                Some("pdf1d") => ("pdf1d", 150.0, rat_apps::pdf::pdf1d::T_SOFT),
                Some("pdf2d") => ("pdf2d", 150.0, rat_apps::pdf::pdf2d::T_SOFT),
                Some("md") => ("md", 100.0, rat_apps::md::rat::T_SOFT),
                Some("sort") => ("sort", 150.0, rat_apps::sort::rat::T_SOFT),
                other => {
                    return Err(CliError::usage(format!(
                        "trace needs a case study (pdf1d|pdf2d|md|sort), got {other:?}"
                    )))
                }
            };
            let mhz: f64 = mhz_override.unwrap_or(default_mhz);
            let fclk = mhz * 1.0e6;
            let simulating = |source: RatError| {
                CliError::Mode(ModeError::with_context(
                    format!("simulating {name} at {:.1} MHz", fclk / 1.0e6),
                    source,
                ))
            };
            api::check_clock_mhz(mhz).map_err(simulating)?;
            let measurement = match name {
                "pdf1d" => rat_apps::pdf::pdf1d::design().try_simulate(fclk),
                "pdf2d" => rat_apps::pdf::pdf2d::design().try_simulate(fclk),
                "md" => rat_apps::md::hw::MdDesign::paper_scale_analytic().try_simulate(fclk),
                _ => rat_apps::sort::rat::design().try_simulate(fclk),
            }
            .map_err(|e| simulating(e.into()))?;
            if csv {
                Ok(measurement.trace.to_csv())
            } else {
                Ok(format!(
                    "{}\nsimulated at {:.0} MHz; speedup {:.1}x\n\nfirst-iterations Gantt:\n{}",
                    measurement.render(),
                    fclk / 1e6,
                    t_soft / measurement.total.as_secs_f64(),
                    measurement.trace.render_gantt(100)
                ))
            }
        }
        "devices" => {
            no_more(cmd, args, 1)?;
            let mut out = String::from("Device catalog:\n");
            for d in rat_core::resources::device::all_devices() {
                out.push_str(&format!(
                    "  {:<28} {:>4} {}  {:>4} BRAMs  {:>7} {}\n",
                    d.name,
                    d.dsp_blocks,
                    d.dsp_name,
                    d.bram_blocks,
                    d.logic_cells,
                    d.logic_kind.name()
                ));
            }
            Ok(out)
        }
        "compare" => {
            let designs = args[1..]
                .iter()
                .map(|p| load_worksheet(Some(p)))
                .collect::<Result<Vec<_>, _>>()?;
            let cmp = rat_core::comparison::DesignComparison::compare(&designs)?;
            Ok(cmp.render())
        }
        "breakeven" => {
            let input = load_worksheet(args.get(1))?;
            let missing = || CliError::usage("breakeven needs <dev-hours> <runs-per-day>");
            let dev_hours: f64 = parse_arg("dev-hours", args.get(2).ok_or_else(missing)?)?;
            let runs_per_day: f64 = parse_arg("runs-per-day", args.get(3).ok_or_else(missing)?)?;
            no_more(cmd, args, 4)?;
            let cost = rat_core::breakeven::MigrationCost {
                development_hours: dev_hours,
                runs_per_day,
            };
            let be = rat_core::breakeven::BreakEven::analyze(&input, &cost)?;
            Ok(be.render())
        }
        "bench" => {
            let json = args.iter().any(|a| a == "--json");
            let quick = args.iter().any(|a| a == "--quick");
            let serve = args.iter().any(|a| a == "--serve");
            for a in &args[1..] {
                if a != "--json" && a != "--quick" && a != "--serve" {
                    return Err(CliError::usage(format!("unknown bench flag '{a}'")));
                }
            }
            let mut report = rat_bench::hotbench::run(quick);
            if serve {
                // The cold-CLI comparison spawns this very binary.
                let rat = std::env::current_exe().map_err(|source| CliError::Io {
                    path: "<current executable>".into(),
                    source,
                })?;
                let load = rat_serve::loadgen::run(&rat, quick).map_err(|source| CliError::Io {
                    path: "serve load generator".into(),
                    source,
                })?;
                report.serve = Some(rat_bench::hotbench::ServeBench {
                    requests: load.requests,
                    rps: load.rps,
                    close_requests: load.close_requests,
                    close_rps: load.close_rps,
                    keepalive_vs_close_rps: load.keepalive_vs_close_rps,
                    reuse_ratio: load.reuse_ratio,
                    connect_p50_us: load.connect_p50_us,
                    p50_us: load.p50_us,
                    p99_us: load.p99_us,
                    p999_us: load.p999_us,
                    warm_uncached_p50_us: load.warm_uncached_p50_us,
                    warm_cached_p50_us: load.warm_cached_p50_us,
                    warm_cached_speedup: load.warm_cached_speedup,
                    warm_solve_p50_us: load.warm_solve_p50_us,
                    cold_cli_solve_p50_us: load.cold_cli_solve_p50_us,
                    warm_vs_cold: load.warm_vs_cold,
                });
            }
            if json {
                Ok(report.to_json())
            } else {
                Ok(report.render())
            }
        }
        "serve" => {
            let mut config = rat_serve::ServeConfig {
                workers: 0,
                engine_jobs: engine.config().jobs,
                ..rat_serve::ServeConfig::default()
            };
            let mut it = args.iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--port" => config.port = flag_value(&mut it, a)?,
                    "--addr" => config.addr = flag_value(&mut it, a)?,
                    "--workers" => config.workers = flag_value(&mut it, a)?,
                    "--queue" => {
                        config.queue_capacity = flag_value(&mut it, a)?;
                        if config.queue_capacity == 0 {
                            return Err(CliError::usage("--queue needs a capacity of at least 1"));
                        }
                    }
                    "--no-response-cache" => config.response_cache_bytes = 0,
                    other => return Err(unexpected("serve", other)),
                }
            }
            let workers = config.workers;
            let handle = rat_serve::Server::start(config).map_err(|source| CliError::Io {
                path: "binding serve listener".into(),
                source,
            })?;
            rat_serve::server::install_signal_shutdown(handle.stop_trigger());
            // The readiness line goes to stderr immediately (stdout carries
            // only the final summary, printed after the drain completes).
            eprintln!(
                "rat serve: listening on http://{} ({} worker(s); POST /shutdown or SIGINT to drain)",
                handle.addr(),
                if workers == 0 {
                    std::thread::available_parallelism().map_or(2, |n| n.get())
                } else {
                    workers
                }
            );
            let summary = handle.join();
            Ok(format!(
                "serve: drained cleanly after {} accepted connection(s) \
                 ({} ok, {} errored, {} rejected busy)\n",
                summary.accepted, summary.ok, summary.errored, summary.rejected_busy
            ))
        }
        "watch" => {
            let mut path: Option<&String> = None;
            let mut poll_ms: u64 = 250;
            let mut max_renders: u64 = 0;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--poll-ms" => poll_ms = flag_value(&mut it, a)?,
                    "--max-renders" => max_renders = flag_value(&mut it, a)?,
                    other if other.starts_with("--") => return Err(unexpected("watch", other)),
                    _ => {
                        if path.replace(a).is_some() {
                            return Err(CliError::usage("watch takes exactly one worksheet"));
                        }
                    }
                }
            }
            watch(path, poll_ms, max_renders)
        }
        "example-worksheet" => {
            no_more(cmd, args, 1)?;
            Ok(example_worksheet())
        }
        other => Err(CliError::usage(format!("unknown command '{other}'"))),
    }
}

/// `rat watch`: poll the worksheet file and re-run the analysis whenever its
/// contents change. The per-render stderr line marks each stage `hit` when
/// every field it reads is bit-equal to the previous render's input, so the
/// user sees which parts of the model an edit touched.
///
/// The first render happens immediately and its errors are fatal (a watch on
/// an unreadable or invalid worksheet is a mistake worth stopping for).
/// Later renders report errors on stderr and keep watching — a half-saved
/// edit shouldn't kill the session. With `--max-renders N` (N > 0) the final
/// render is returned as the command output; otherwise the loop runs until
/// interrupted and every render is printed as it happens.
fn watch(path: Option<&String>, poll_ms: u64, max_renders: u64) -> Result<String, CliError> {
    let path = path.ok_or_else(|| CliError::usage("missing worksheet path"))?;
    let mut digest = watch_digest(path)?;
    let mut prev = None;
    let first = watch_render(path, 1, &mut prev)?;
    let mut renders: u64 = 1;
    if max_renders == 1 {
        return Ok(first);
    }
    write_stdout(&first)?;
    loop {
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
        let next = match watch_digest(path) {
            Ok(d) => d,
            Err(err) => {
                report_error(&err);
                continue;
            }
        };
        if next == digest {
            continue;
        }
        digest = next;
        match watch_render(path, renders + 1, &mut prev) {
            Ok(out) => {
                renders += 1;
                if max_renders != 0 && renders >= max_renders {
                    return Ok(out);
                }
                write_stdout(&out)?;
            }
            Err(err) => report_error(&err),
        }
    }
}

/// FNV-1a digest of the worksheet's bytes. Content-keyed rather than
/// mtime-keyed: editors that rewrite identical bytes don't trigger renders,
/// and rapid successive writes within one mtime granule still do.
fn watch_digest(path: &String) -> Result<u64, CliError> {
    let bytes = std::fs::read(path).map_err(|e| CliError::Io {
        path: path.clone(),
        source: e,
    })?;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    Ok(hash)
}

/// One watch render: re-parse the worksheet, run the analysis, and report
/// per-stage hit/miss on stderr against `prev`, the last input that rendered
/// successfully. With no previous input every stage is a miss.
fn watch_render(path: &String, k: u64, prev: &mut Option<RatInput>) -> Result<String, CliError> {
    use rat_core::solve::stages::{BatchStagePlan, Stage};
    let input = load_worksheet(Some(path))?;
    let report = Worksheet::new(input).analyze()?;
    let plan = prev
        .as_ref()
        .map(|p| BatchStagePlan::between(p, &report.input));
    let mut status = format!("watch[{k}]: stages");
    let mut hits = 0;
    for stage in Stage::ALL {
        let hit = plan.is_some_and(|p| !p.varies(stage));
        hits += usize::from(hit);
        let verdict = if hit { "hit" } else { "miss" };
        status.push_str(&format!(" {}={verdict}", stage.name()));
    }
    status.push_str(&format!(
        " (hits {hits}, misses {})",
        Stage::ALL.len() - hits
    ));
    eprintln!("{status}");
    *prev = Some(report.input.clone());
    Ok(report.render())
}

fn usage() -> String {
    "rat — RC Amenability Test (Holland et al., HPRCTA'07)

USAGE:
  rat analyze <worksheet.toml> [--markdown] run the RAT worksheet, print the report
  rat watch <worksheet.toml> [--poll-ms N] [--max-renders N]
                                            re-render on worksheet change; stderr
                                            marks each stage hit/miss by whether
                                            its inputs changed since last render
  rat clocks <worksheet.toml> <MHz>...      analyze the design at several clocks
  rat solve <worksheet.toml> <speedup> [--strict]
                                            required throughput_proc / fclock / alpha
                                            (--strict: infeasible targets exit 4)
  rat sweep <worksheet.toml> <param> <v>... sweep one parameter
                                            (fclock|alpha-write|alpha-read|alpha|
                                             throughput-proc|ops-per-element|
                                             elements-in|iterations)
  rat sensitivity <worksheet.toml>          rank speedup elasticity per parameter
  rat explore <ws.toml> <min-speedup> [--fclocks v,v..] [--throughput-procs v,v..]
              [--bufferings single,double]  throughput-gate a design space around
                                            the worksheet (defaults: base values,
                                            both buffering disciplines)
  rat optimize <ws.toml> [--seed N] [--generations N] [--population N]
               [--fclock-range lo,hi] [--throughput-range lo,hi]
               [--bufferings single,double] [--devices lx100,sx55]
               [--precision-bits 18,32]     guided search over the design space:
                                            seeded population search on the batch
                                            kernels, Pareto front of speedup vs
                                            utilization vs resources (same seed →
                                            byte-identical front at every --jobs)
  rat multi-fpga <worksheet.toml> [max]     scaling curve across devices (default 16)
  rat streaming <worksheet.toml> [half|full] streaming-mode throughput analysis
  rat uncertainty <ws.toml> <p> <lo> <hi>.. Monte-Carlo speedup distribution
  rat microbench <nallatech|xd1000|pcie>    derive alpha(size) like the paper's Sec 4.2
  rat trace <pdf1d|pdf2d|md|sort> [--csv] [--mhz V]
                                            simulate a case study, dump trace/Gantt
  rat devices                               list the FPGA device catalog
  rat compare <ws1.toml> <ws2.toml>...      rank candidate designs
  rat breakeven <ws.toml> <hours> <runs/day> development-vs-savings break-even
  rat reproduce <id|all> [--fast]           regenerate paper tables/figures
  rat bench [--json] [--quick] [--serve]    time the hot paths against their
                                            unoptimized baselines (--serve adds
                                            resident-server load generation)
  rat serve [--addr A] [--port N] [--workers N] [--queue N] [--no-response-cache]
                                            resident analysis daemon: HTTP/1.1+JSON
                                            (keep-alive) on POST /v1/{solve,sweep,
                                            uncertainty,explore,optimize,
                                            sensitivity,simulate}, plus
                                            GET /healthz, GET /metrics, and
                                            POST /shutdown (graceful drain)
  rat example-worksheet                     print a starter worksheet (Table 2)

GLOBAL OPTIONS (any command):
  --jobs N     run analysis jobs on N threads (0 = auto; results are
               bit-identical at every thread count)
  --metrics    print a wall-clock span tree + typed counters on stderr
  --profile P  write a Chrome trace_event JSON profile to P
               (load in chrome://tracing or https://ui.perfetto.dev)

Engine and cache counters are reported on stderr; stdout carries only the
analysis output and is byte-identical across --jobs settings and with or
without --metrics/--profile.
"
    .to_string()
}

fn load_worksheet(path: Option<&String>) -> Result<RatInput, CliError> {
    let path = path.ok_or_else(|| CliError::usage("missing worksheet path"))?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.clone(),
        source: e,
    })?;
    let input: RatInput = toml::from_str(&text).map_err(|e| CliError::Parse {
        path: path.clone(),
        message: e.to_string(),
    })?;
    input.validate()?;
    Ok(input)
}

fn parse_mhz_list(args: &[String]) -> Result<Vec<Freq>, CliError> {
    if args.is_empty() {
        return Err(CliError::usage(
            "clocks needs at least one frequency in MHz",
        ));
    }
    args.iter()
        .map(|a| parse_arg("frequency", a).map(Freq::from_mhz))
        .collect()
}

/// Build the request `rat serve` parses from a JSON body, for one of the
/// six analysis modes both surfaces share. Only argv syntax is checked
/// here: the worksheet loads, each value parses, no argument is left over.
/// `api::handle` checks the shape rules and the core every value, for the
/// CLI and the daemon alike.
fn mode_request(mode: &str, args: &[String]) -> Result<ApiRequest, CliError> {
    // `--strict` may sit anywhere in a solve; every other flag follows the
    // positional arguments.
    let strict = mode == "solve" && args.iter().any(|a| a == "--strict");
    let mut it = args.iter().filter(|a| !(strict && *a == "--strict"));
    let input = load_worksheet(it.next())?;
    let req = match mode {
        "solve" => ApiRequest::Solve {
            target: parse_arg(
                "target speedup",
                it.next()
                    .ok_or_else(|| CliError::usage("solve needs a target speedup"))?,
            )?,
            strict,
            input,
        },
        "sweep" => ApiRequest::Sweep {
            param: parse_param(it.next().map_or("", String::as_str))?,
            values: it
                .by_ref()
                .map(|v| parse_arg("sweep value", v))
                .collect::<Result<_, _>>()?,
            input,
        },
        "sensitivity" => ApiRequest::Sensitivity { input },
        "uncertainty" => {
            // Ranges as triples: <param> <lo> <hi> ...
            let rest: Vec<&str> = it.by_ref().map(String::as_str).collect();
            let ranges = rest
                .chunks(3)
                .map(|triple| match triple {
                    [param, lo, hi] => Ok(ParamRange::new(
                        parse_param(param)?,
                        parse_arg("range low", lo)?,
                        parse_arg("range high", hi)?,
                    )),
                    partial => Err(CliError::usage(format!(
                        "incomplete uncertainty range '{}': need <param> <lo> <hi>",
                        partial.join(" ")
                    ))),
                })
                .collect::<Result<_, _>>()?;
            ApiRequest::Uncertainty {
                input,
                ranges,
                samples: api::DEFAULT_MC_SAMPLES,
                seed: None,
            }
        }
        "explore" => {
            let min_speedup = parse_arg(
                "minimum speedup",
                it.next()
                    .ok_or_else(|| CliError::usage("explore needs a minimum speedup"))?,
            )?;
            let (mut fclocks, mut throughput_procs, mut bufferings) = (None, None, None);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--fclocks" => fclocks = Some(flag_list(&mut it, a)?),
                    "--throughput-procs" => throughput_procs = Some(flag_list(&mut it, a)?),
                    "--bufferings" => bufferings = Some(buffering_list(&mut it, a)?),
                    other => return Err(unexpected(mode, other)),
                }
            }
            ApiRequest::Explore {
                input,
                min_speedup,
                fclocks,
                throughput_procs,
                bufferings,
            }
        }
        "optimize" => {
            let mut spec = OptimizeSpec::default();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--seed" => spec.seed = Some(flag_value(&mut it, a)?),
                    "--generations" => spec.generations = Some(flag_value(&mut it, a)?),
                    "--population" => spec.population = Some(flag_value(&mut it, a)?),
                    "--fclock-range" => spec.fclock_range = Some(flag_pair(&mut it, a)?),
                    "--throughput-range" => spec.throughput_range = Some(flag_pair(&mut it, a)?),
                    "--bufferings" => spec.bufferings = Some(buffering_list(&mut it, a)?),
                    "--devices" => spec.devices = Some(flag_list(&mut it, a)?),
                    "--precision-bits" => spec.precision_bits = Some(flag_list(&mut it, a)?),
                    other => return Err(unexpected(mode, other)),
                }
            }
            ApiRequest::Optimize { input, spec }
        }
        other => return Err(CliError::usage(format!("unknown command '{other}'"))),
    };
    match it.next() {
        Some(extra) => Err(unexpected(mode, extra)),
        None => Ok(req),
    }
}

/// Fail with [`unexpected`] on `args[i]`, if there is one: `command`
/// takes only the arguments before it.
fn no_more(command: &str, args: &[String], i: usize) -> Result<(), CliError> {
    args.get(i)
        .map_or(Ok(()), |arg| Err(unexpected(command, arg)))
}

/// The error for an argument `command` does not take, naming it.
fn unexpected(command: &str, arg: &str) -> CliError {
    if arg.starts_with("--") {
        CliError::usage(format!("unknown {command} flag '{arg}'"))
    } else {
        CliError::usage(format!("unexpected {command} argument '{arg}'"))
    }
}

/// Parse one argument, naming it on failure: `bad <what> '<text>': <why>`.
fn parse_arg<T: FromStr>(what: &str, text: &str) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .map_err(|e| CliError::usage(format!("bad {what} '{text}': {e}")))
}

/// The argument after `flag`, parsed; `<flag> needs a value` if argv ends.
fn flag_value<'a, T: FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    let text = it
        .next()
        .ok_or_else(|| CliError::usage(format!("{flag} needs a value")))?;
    parse_arg(&format!("{flag} value"), text)
}

/// The comma-separated list after `flag` (`--fclocks 100e6,150e6`).
fn flag_list<'a, T: FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<Vec<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    let text: String = flag_value(it, flag)?;
    let what = format!("{flag} value");
    text.split(',')
        .map(|v| parse_arg(&what, v.trim()))
        .collect()
}

/// The `lo,hi` pair after `flag` (`--fclock-range 1e8,2e8`).
fn flag_pair<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<(f64, f64), CliError> {
    let v: Vec<f64> = flag_list(it, flag)?;
    match v[..] {
        [lo, hi] => Ok((lo, hi)),
        _ => Err(CliError::usage(format!(
            "{flag} needs a lo,hi pair, got {} value(s)",
            v.len()
        ))),
    }
}

/// The buffering list after `flag` (`--bufferings single,double`).
fn buffering_list<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<Vec<Buffering>, CliError> {
    flag_list::<String>(it, flag)?
        .iter()
        .map(|b| api::parse_buffering(b).map_err(CliError::usage))
        .collect()
}

/// Parameter names are owned by the shared API layer so the CLI and the
/// server accept (and reject) exactly the same spellings.
fn parse_param(name: &str) -> Result<SweepParam, CliError> {
    api::parse_param(name).map_err(CliError::usage)
}

fn parse_platform(name: &str) -> Result<fpga_sim::platform::PlatformSpec, CliError> {
    match name {
        "nallatech" => Ok(fpga_sim::catalog::nallatech_h101()),
        "xd1000" => Ok(fpga_sim::catalog::xd1000()),
        "pcie" => Ok(fpga_sim::catalog::generic_pcie_gen2_x8()),
        other => Err(CliError::usage(format!(
            "unknown platform '{other}' (nallatech|xd1000|pcie)"
        ))),
    }
}

fn example_worksheet() -> String {
    let input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
    format!(
        "# RAT worksheet (the paper's Table 2: 1-D PDF estimation)\n{}",
        toml::to_string(&input).expect("serializable")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_runs_without_args() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&["help".into()]).unwrap().contains("reproduce"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate".into()]).is_err());
    }

    #[test]
    fn example_worksheet_round_trips() {
        let text = example_worksheet();
        let parsed: RatInput = toml::from_str(&text).unwrap();
        assert_eq!(parsed.dataset.elements_in, 512);
    }

    #[test]
    fn analyze_from_a_temp_file() {
        let dir = std::env::temp_dir().join("rat-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ws.toml");
        std::fs::write(&path, example_worksheet()).unwrap();
        let out = run(&["analyze".into(), path.to_string_lossy().into_owned()]).unwrap();
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("10.6"), "{out}");
        let md = run(&[
            "analyze".into(),
            path.to_string_lossy().into_owned(),
            "--markdown".into(),
        ])
        .unwrap();
        assert!(md.starts_with("## RAT analysis"), "{md}");
    }

    #[test]
    fn solve_prints_all_four_answers() {
        let dir = std::env::temp_dir().join("rat-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ws2.toml");
        std::fs::write(&path, example_worksheet()).unwrap();
        let out = run(&[
            "solve".into(),
            path.to_string_lossy().into_owned(),
            "8".into(),
        ])
        .unwrap();
        assert!(out.contains("throughput_proc"));
        assert!(out.contains("f_clock"));
        assert!(out.contains("ceiling"));
    }

    #[test]
    fn microbench_platforms_parse() {
        for p in ["nallatech", "xd1000", "pcie"] {
            let out = run(&["microbench".into(), p.into()]).unwrap();
            assert!(out.contains("alpha_write"), "{p}");
        }
        assert!(run(&["microbench".into(), "cray".into()]).is_err());
    }

    #[test]
    fn reproduce_single_artifact() {
        let out = run(&["reproduce".into(), "table2".into(), "--fast".into()]).unwrap();
        assert!(out.contains("Table 2"));
        assert!(run(&["reproduce".into(), "table42".into()]).is_err());
    }

    #[test]
    fn exit_codes_distinguish_error_classes() {
        assert_eq!(CliError::usage("x").exit_code(), 2);
        assert_eq!(
            CliError::from(RatError::quantity("comp.fclock", "must be positive")).exit_code(),
            3
        );
        assert_eq!(
            CliError::from(RatError::Infeasible("wall".into())).exit_code(),
            4
        );
        assert_eq!(
            CliError::from(RatError::simulation("diverged")).exit_code(),
            5
        );
        let io = CliError::Io {
            path: "ws.toml".into(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        assert_eq!(io.exit_code(), 6);
        // The I/O class carries its cause on the source chain.
        assert!(std::error::Error::source(&io).is_some());
    }

    #[test]
    fn malformed_worksheet_names_the_field() {
        let dir = std::env::temp_dir().join("rat-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.toml");
        std::fs::write(&path, example_worksheet().replace("150000000.0", "-1.0")).unwrap();
        let err = run(&["analyze".into(), path.to_string_lossy().into_owned()]).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("fclock"), "{err}");
    }

    #[test]
    fn param_names_parse() {
        assert!(parse_param("fclock").is_ok());
        assert!(parse_param("alpha").is_ok());
        assert!(parse_param("warp-factor").is_err());
    }

    #[test]
    fn mhz_list_scales_to_hz() {
        let v = parse_mhz_list(&["75".into(), "150".into()]).unwrap();
        assert_eq!(v, vec![Freq::from_mhz(75.0), Freq::from_mhz(150.0)]);
        assert!(parse_mhz_list(&[]).is_err());
    }

    #[test]
    fn trace_command_renders_and_exports() {
        let out = run(&["trace".into(), "sort".into()]).unwrap();
        assert!(out.contains("Gantt"), "{out}");
        assert!(out.contains("speedup"), "{out}");
        let csv = run(&["trace".into(), "sort".into(), "--csv".into()]).unwrap();
        assert!(csv.starts_with("resource,label,start_ps"));
        assert!(run(&["trace".into(), "unknown-app".into()]).is_err());
        assert!(run(&["trace".into()]).is_err());
    }

    #[test]
    fn devices_compare_breakeven_via_cli() {
        let out = run(&["devices".into()]).unwrap();
        assert!(out.contains("LX100"));
        assert!(out.contains("EP2S180"));

        let dir = std::env::temp_dir().join("rat-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("cmp-a.toml");
        let b = dir.join("cmp-b.toml");
        std::fs::write(&a, example_worksheet()).unwrap();
        std::fs::write(&b, example_worksheet().replace("150000000", "75000000")).unwrap();
        let out = run(&[
            "compare".into(),
            a.to_string_lossy().into_owned(),
            b.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert!(out.contains("spread"), "{out}");

        let out = run(&[
            "breakeven".into(),
            a.to_string_lossy().into_owned(),
            "500".into(),
            "1000".into(),
        ])
        .unwrap();
        assert!(out.contains("days to break even"), "{out}");
        assert!(run(&["breakeven".into(), a.to_string_lossy().into_owned()]).is_err());
    }

    #[test]
    fn multifpga_streaming_uncertainty_via_cli() {
        let dir = std::env::temp_dir().join("rat-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ws4.toml");
        std::fs::write(&path, example_worksheet()).unwrap();
        let ws = path.to_string_lossy().into_owned();

        let out = run(&["multi-fpga".into(), ws.clone(), "8".into()]).unwrap();
        assert!(out.contains("Devices"), "{out}");
        assert!(out.contains("saturates"), "{out}");

        let out = run(&["streaming".into(), ws.clone()]).unwrap();
        assert!(out.contains("sustained rate"), "{out}");
        assert!(run(&["streaming".into(), ws.clone(), "quantum".into()]).is_err());

        let out = run(&[
            "uncertainty".into(),
            ws.clone(),
            "fclock".into(),
            "75e6".into(),
            "150e6".into(),
        ])
        .unwrap();
        assert!(out.contains("median"), "{out}");
        assert!(run(&["uncertainty".into(), ws]).is_err());
    }

    #[test]
    fn jobs_flag_is_stripped_and_output_identical() {
        let dir = std::env::temp_dir().join("rat-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ws5.toml");
        std::fs::write(&path, example_worksheet()).unwrap();
        let ws = path.to_string_lossy().into_owned();

        let seq = run(&[
            "--jobs".into(),
            "1".into(),
            "uncertainty".into(),
            ws.clone(),
            "fclock".into(),
            "75e6".into(),
            "150e6".into(),
        ])
        .unwrap();
        let par = run(&[
            "uncertainty".into(),
            ws.clone(),
            "--jobs=8".into(),
            "fclock".into(),
            "75e6".into(),
            "150e6".into(),
        ])
        .unwrap();
        assert_eq!(seq, par, "--jobs must not change stdout");

        let seq = run(&[
            "--jobs".into(),
            "1".into(),
            "sweep".into(),
            ws.clone(),
            "fclock".into(),
            "75e6".into(),
            "150e6".into(),
        ])
        .unwrap();
        let par = run(&[
            "--jobs".into(),
            "4".into(),
            "sweep".into(),
            ws,
            "fclock".into(),
            "75e6".into(),
            "150e6".into(),
        ])
        .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn batched_stdout_is_byte_identical_to_the_golden_fixture() {
        // The checked-in fixtures are the pre-batching scalar pipeline's
        // stdout (plus the trailing newline `main` prints). The batched
        // kernels must reproduce them byte-for-byte at every thread count —
        // this is the acceptance gate for the SoA rewrite.
        let dir = std::env::temp_dir().join("rat-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ws6.toml");
        std::fs::write(&path, example_worksheet()).unwrap();
        let ws = path.to_string_lossy().into_owned();

        for jobs in ["1", "2", "8"] {
            let out = run(&[
                format!("--jobs={jobs}"),
                "uncertainty".into(),
                ws.clone(),
                "fclock".into(),
                "75e6".into(),
                "150e6".into(),
            ])
            .unwrap();
            assert_eq!(
                format!("{out}\n"),
                include_str!("../testdata/golden_uncertainty.txt"),
                "uncertainty stdout drifted at --jobs={jobs}"
            );

            let out = run(&[
                format!("--jobs={jobs}"),
                "sweep".into(),
                ws.clone(),
                "fclock".into(),
                "75e6".into(),
                "100e6".into(),
                "125e6".into(),
                "150e6".into(),
            ])
            .unwrap();
            assert_eq!(
                format!("{out}\n"),
                include_str!("../testdata/golden_sweep.txt"),
                "sweep stdout drifted at --jobs={jobs}"
            );
        }
    }

    #[test]
    fn jobs_flag_rejects_garbage() {
        assert!(run(&["--jobs".into()]).is_err());
        assert!(run(&["--jobs".into(), "many".into(), "help".into()]).is_err());
        assert!(run(&["--jobs=lots".into(), "help".into()]).is_err());
    }

    #[test]
    fn bench_emits_scenarios_and_json() {
        let json = run(&["bench".into(), "--json".into(), "--quick".into()]).unwrap();
        assert!(json.contains("\"scenarios\""), "{json}");
        assert!(json.contains("\"execute_summary_fast_forward\""), "{json}");
        assert!(json.contains("\"speedup\""), "{json}");
        let text = run(&["bench".into(), "--quick".into()]).unwrap();
        assert!(text.contains("Hot-path benchmarks"), "{text}");
        assert!(run(&["bench".into(), "--loud".into()]).is_err());
    }

    #[test]
    fn sweep_via_cli() {
        let dir = std::env::temp_dir().join("rat-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ws3.toml");
        std::fs::write(&path, example_worksheet()).unwrap();
        let out = run(&[
            "sweep".into(),
            path.to_string_lossy().into_owned(),
            "fclock".into(),
            "75e6".into(),
            "150e6".into(),
        ])
        .unwrap();
        assert!(out.contains("Sweep of f_clock"));
    }

    /// Build an argv for `run` from string literals.
    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_string()).collect()
    }

    /// A scratch copy of the example worksheet, for argv tests.
    fn scratch_worksheet(name: &str) -> String {
        let dir = std::env::temp_dir().join("rat-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, example_worksheet()).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn argv_builds_the_request_the_daemon_parses_from_json() {
        // The canonical cache key hashes every field of a request, so equal
        // keys mean the CLI and `rat serve` would run the same request.
        let ws = scratch_worksheet("ws-request.toml");
        let ws_json = api::escape_json(&example_worksheet());
        let json = |fields: &str| format!("{{\"worksheet_toml\": \"{ws_json}\"{fields}}}");
        let cases = [
            (
                "solve",
                argv(&["--strict", &ws, "4"]),
                json(", \"target\": 4, \"strict\": true"),
            ),
            (
                "sweep",
                argv(&[&ws, "fclock", "75e6", "-1"]),
                json(", \"param\": \"fclock\", \"values\": [75e6, -1]"),
            ),
            ("sensitivity", argv(&[&ws]), json("")),
            (
                "uncertainty",
                argv(&[&ws, "fclock", "75e6", "150e6", "alpha", "0.5", "0.9"]),
                json(
                    ", \"ranges\": [{\"param\": \"fclock\", \"lo\": 75e6, \"hi\": 150e6}, \
                     {\"param\": \"alpha\", \"lo\": 0.5, \"hi\": 0.9}]",
                ),
            ),
            (
                "explore",
                argv(&[&ws, "5", "--fclocks", "1e8, 2e8", "--bufferings", "double"]),
                json(
                    ", \"min_speedup\": 5, \"fclocks\": [1e8, 2e8], \
                     \"bufferings\": [\"double\"]",
                ),
            ),
            (
                "optimize",
                argv(&[
                    &ws,
                    "--seed",
                    "3",
                    "--population",
                    "64",
                    "--fclock-range",
                    "1e8,2e8",
                    "--devices",
                    "lx100,sx55",
                    "--precision-bits",
                    "18",
                ]),
                json(
                    ", \"seed\": 3, \"population\": 64, \"fclock_range\": [1e8, 2e8], \
                     \"devices\": [\"lx100\", \"sx55\"], \"precision_bits\": [18]",
                ),
            ),
        ];
        for (mode, args, body) in cases {
            let cli = mode_request(mode, &args).unwrap();
            let daemon = api::parse_mode_request(mode, &body).unwrap();
            assert_eq!(
                rat_serve::keys::request_key(&cli, 1, 1),
                rat_serve::keys::request_key(&daemon, 1, 1),
                "{mode}: {cli:?} vs {daemon:?}"
            );
        }
    }

    #[test]
    fn leftover_arguments_are_usage_errors_naming_them() {
        let ws = scratch_worksheet("ws-leftover.toml");
        let cases = [
            (argv(&["solve", &ws, "8", "9"]), "'9'"),
            (argv(&["solve", &ws, "8", "--bogus"]), "'--bogus'"),
            (
                argv(&["sweep", &ws, "fclock", "1e8", "--bogus"]),
                "'--bogus'",
            ),
            (argv(&["sensitivity", &ws, "--bogus"]), "'--bogus'"),
            (argv(&["sensitivity", &ws, "extra"]), "'extra'"),
            (
                argv(&[
                    "uncertainty",
                    &ws,
                    "fclock",
                    "75e6",
                    "150e6",
                    "alpha",
                    "0.5",
                ]),
                "'alpha 0.5'",
            ),
            (argv(&["explore", &ws, "5", "extra"]), "'extra'"),
            (argv(&["optimize", &ws, "--seed", "1", "extra"]), "'extra'"),
        ];
        for (args, named) in cases {
            let err = run(&args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{args:?}: {err}");
            assert!(err.to_string().contains(named), "{args:?}: {err}");
        }
    }

    #[test]
    fn optimize_via_cli_is_seed_deterministic() {
        let dir = std::env::temp_dir().join("rat-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ws-opt.toml");
        std::fs::write(&path, example_worksheet()).unwrap();
        let ws = path.to_string_lossy().into_owned();
        let args = argv(&[
            "optimize",
            &ws,
            "--seed",
            "7",
            "--generations",
            "4",
            "--population",
            "48",
        ]);
        let a = run(&args).unwrap();
        let b = run(&args).unwrap();
        assert_eq!(a, b, "same seed must render the same front");
        assert!(a.contains("Guided design-space search (seed 7"), "{a}");
        assert!(a.contains("best speedup:"), "{a}");
    }

    /// The robustness contract for `rat optimize` inputs: degenerate
    /// ranges are exit 3 naming the field, all-infeasible spaces are
    /// exit 4 with the resource test on the `caused by:` chain, a legal
    /// single-candidate space still answers, and unknown flags are usage
    /// errors.
    #[test]
    fn optimize_edge_spaces_hit_the_documented_exit_codes() {
        let dir = std::env::temp_dir().join("rat-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ws-opt-edge.toml");
        std::fs::write(&path, example_worksheet()).unwrap();
        let ws = path.to_string_lossy().into_owned();

        // Inverted (empty) range → exit 3, field named on the chain.
        let err = run(&argv(&["optimize", &ws, "--fclock-range", "2e8,1e8"])).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        let cause = std::error::Error::source(&err)
            .expect("context chain")
            .to_string();
        assert!(cause.contains("fclock_range"), "{cause}");

        // Unknown device → exit 3 naming `devices`.
        let err = run(&argv(&["optimize", &ws, "--devices", "asic9000"])).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        let cause = std::error::Error::source(&err)
            .expect("context chain")
            .to_string();
        assert!(cause.contains("devices"), "{cause}");

        // All-infeasible space (32-bit lanes need 2 of the LX25's 48 DSPs
        // each, so 30–40 lanes never fit) → exit 4, context line plus the
        // resource-test infeasibility on the chain.
        let err = run(&argv(&[
            "optimize",
            &ws,
            "--seed",
            "3",
            "--generations",
            "2",
            "--population",
            "32",
            "--devices",
            "lx25",
            "--precision-bits",
            "32",
            "--throughput-range",
            "30,40",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("running optimize"), "{err}");
        let cause = std::error::Error::source(&err)
            .expect("context chain")
            .to_string();
        assert!(
            cause.contains("infeasible") && cause.contains("resource test"),
            "{cause}"
        );

        // A single-candidate space is legal and yields a one-point front.
        let out = run(&argv(&[
            "optimize",
            &ws,
            "--generations",
            "1",
            "--population",
            "1",
            "--fclock-range",
            "1.5e8,1.5e8",
            "--throughput-range",
            "20,20",
            "--bufferings",
            "single",
            "--devices",
            "ep2s180",
            "--precision-bits",
            "18",
        ]))
        .unwrap();
        assert!(out.contains("front 1)"), "{out}");

        // Unknown flags are usage errors.
        let err = run(&argv(&["optimize", &ws, "--frobnicate", "1"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }
}
