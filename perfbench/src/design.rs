//! The design_search workload, end to end: sequential cold `rat --jobs 2`
//! CLI processes alternating `optimize` and `explore`.

use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::expect;
use crate::gen::{DesignCase, ROTATION};
use crate::host;
use crate::stats::median;
use crate::{E2e, Slice};

/// `rat devices` runs before the window; one more runs after each rotation,
/// so the start-up samples span the whole run. `setup_s` is their median.
const STARTUPS: usize = 21;

/// A CLI op that runs longer than this is killed and counted as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// What one CLI process did.
pub struct Run {
    pub success: bool,
    pub stdout: Vec<u8>,
    pub wall_ns: u64,
}

/// Spawn `rat args…`, capture stdout, and kill it past `OP_TIMEOUT`.
fn run_cli(rat: &Path, args: &[String]) -> io::Result<Run> {
    let started = Instant::now();
    let mut child = Command::new(rat)
        .args(args)
        .env_remove("RAT_SIM_CACHE")
        .env_remove("RAT_FORCE_SCALAR")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id();
    let (done, watch) = mpsc::channel::<()>();
    let watchdog = thread::spawn(move || {
        if watch.recv_timeout(OP_TIMEOUT) == Err(mpsc::RecvTimeoutError::Timeout) {
            host::kill_pid(pid);
        }
    });
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let status = child.wait();
    let wall_ns = started.elapsed().as_nanos() as u64;
    let _ = done.send(());
    let _ = watchdog.join();
    read?;
    Ok(Run {
        success: status?.success(),
        stdout,
        wall_ns,
    })
}

/// The worksheet file the ops share; each op rewrites it.
fn worksheet_path(work: &Path) -> PathBuf {
    work.join("design-search.toml")
}

/// Write op `k`'s worksheet and run it through the CLI.
fn run_op(rat: &Path, path: &Path, seed: u64, k: u64) -> io::Result<Run> {
    let case = DesignCase::generate(seed, k);
    std::fs::write(path, &case.toml)?;
    run_cli(rat, &case.args(&path.to_string_lossy()))
}

/// Run the first `n` design_search ops through the CLI, for the traced
/// run of another workload: `(stdout, wall ns)` per op.
pub fn first_ops(rat: &Path, work: &Path, seed: u64, n: u64) -> io::Result<Vec<(Vec<u8>, u64)>> {
    let path = worksheet_path(work);
    let out = (0..n)
        .map(|k| run_op(rat, &path, seed, k).map(|r| (r.stdout, r.wall_ns)))
        .collect();
    let _ = std::fs::remove_file(&path);
    out
}

/// Run design_search end to end. `work` is a scratch directory inside the
/// checkout. Returns the e2e figures and each op's stdout (for the trace).
pub fn run(rat: &Path, work: &Path, seed: u64, seconds: f64) -> io::Result<(E2e, Vec<Run>)> {
    let mut notes = Vec::new();
    let devices: Vec<String> = vec!["--jobs".into(), "2".into(), "devices".into()];
    let startup = || -> io::Result<f64> {
        let r = run_cli(rat, &devices)?;
        if !r.success || r.stdout.is_empty() {
            return Err(io::Error::other("`rat devices` failed"));
        }
        Ok(r.wall_ns as f64 * 1e-9)
    };
    let mut startup_s = Vec::new();
    for _ in 0..STARTUPS {
        startup_s.push(startup()?);
    }

    let path = worksheet_path(work);
    let mut runs = Vec::new();
    let mut slices = Vec::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut k = 0u64;
    // Whole rotations only, so every slice has the same op mix; the
    // start-up sample between rotations is outside every slice.
    while Instant::now() < deadline {
        let (t0, u0) = (Instant::now(), host::children_usage());
        for _ in 0..ROTATION {
            runs.push(run_op(rat, &path, seed, k)?);
            k += 1;
        }
        slices.push(Slice {
            wall_s: t0.elapsed().as_secs_f64(),
            ok: ROTATION,
            cpu_s: host::children_usage().cpu_s - u0.cpu_s,
        });
        startup_s.push(startup()?);
    }
    let wall_s = started.elapsed().as_secs_f64();
    notes.push(format!(
        "set-up: {} `rat --jobs 2 devices` runs, min {:.2} ms, median {:.2} ms, max {:.2} ms",
        startup_s.len(),
        startup_s.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        median(&startup_s) * 1e3,
        startup_s.iter().copied().fold(0.0, f64::max) * 1e3
    ));
    let _ = std::fs::remove_file(&path);

    // Every op's stdout against the library, two ops at a time (the
    // reports are byte-identical at any --jobs).
    let failures: Vec<(u64, String)> = thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|lane| {
                let runs = &runs;
                s.spawn(move || {
                    let engine = expect::engine(1);
                    let mut bad = Vec::new();
                    for (k, run) in runs.iter().enumerate().skip(lane as usize).step_by(2) {
                        let case = DesignCase::generate(seed, k as u64);
                        let want = expect::design_stdout(&case, &engine);
                        if !run.success {
                            bad.push((k as u64, format!("op {k}: non-zero exit")));
                        } else if want.as_deref().ok().map(str::as_bytes) != Some(&run.stdout[..]) {
                            bad.push((
                                k as u64,
                                format!("op {k}: stdout differs from the library"),
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verify thread"))
            .collect()
    });
    notes.push(format!(
        "verified {} CLI ops against the library: {} differ or failed",
        runs.len(),
        failures.len()
    ));

    let kind_p50_ms = |parity: usize| {
        let walls: Vec<f64> = runs
            .iter()
            .skip(parity)
            .step_by(2)
            .map(|r| r.wall_ns as f64 * 1e-6)
            .collect();
        median(&walls)
    };
    notes.push(format!(
        "per kind: optimize p50 {:.2} ms, explore p50 {:.2} ms",
        kind_p50_ms(0),
        kind_p50_ms(1)
    ));

    let failed = failures.len() as u64;
    let e2e = E2e {
        setup_s: median(&startup_s),
        attempted: runs.len() as u64,
        ok: runs.len() as u64 - failed,
        failed,
        wall_s,
        latencies_ns: runs.iter().map(|r| r.wall_ns).collect(),
        cpu_s: slices.iter().map(|s| s.cpu_s).sum(),
        rss_kib: host::children_usage().maxrss_kib,
        slices,
        first_error: failures.into_iter().min().map(|(_, e)| e),
        notes,
        metrics_text: None,
    };
    Ok((e2e, runs))
}
