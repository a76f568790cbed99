//! The serve workloads, end to end: a `rat serve` daemon driven from this
//! process over two keep-alive connections in a closed loop.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use fpga_sim::SimCache;

use crate::client::{metric, Client};
use crate::expect;
use crate::gen::{GroupCache, HotStream, ServeOp, ServeStream};
use crate::host;
use crate::stats::median;
use crate::{E2e, Slice};

/// Closed-loop clients, each on its own keep-alive connection; also the
/// daemon's worker count. Two of each saturate the two vCPUs the benchmark
/// was sized on: an idle vCPU's wake-up would otherwise dominate µs-scale
/// round trips.
const CONNECTIONS: usize = 2;

/// serve_unique set-ups per run, all before the window (each fills a fresh
/// daemon's cache, ~2.5 s); the reported `setup_s` is their median.
const UNIQUE_SETUPS: usize = 3;

/// serve_hot set-ups (spawn, ready, prime; ~10 ms each) before and after
/// the window, so their median spans the run rather than one moment of it.
const HOT_SETUPS: (usize, usize) = (11, 10);

/// The set-up ends once both response-cache tiers hold this share of what
/// their budgets allow. A shard that evicts stays within one entry of its
/// budget, so at 99% every shard is full and every insert evicts.
pub(crate) const FILL_SHARE: f64 = 0.99;

/// Length of one slice of the timed window.
const SLICE_S: f64 = 0.25;

/// During the fill, thread 0 reads `/metrics` every this many requests.
const FILL_POLL: u64 = 256;

/// The daemon's response-cache budget (its default; the raw alias tier may
/// hold the same again).
pub fn cache_budget_bytes() -> usize {
    rat_serve::ServeConfig::default().response_cache_bytes
}

/// A running `rat --jobs 1 serve --workers 2` process.
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub pid: u32,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawn the daemon on an ephemeral port and wait for its readiness line.
    pub fn spawn(rat: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(rat)
            .args(["--jobs", "1", "serve", "--port", "0", "--workers"])
            .arg(CONNECTIONS.to_string())
            .env_remove("RAT_SIM_CACHE")
            .env_remove("RAT_FORCE_SCALAR")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let pid = child.id();
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let reader = thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                // Past the readiness line, stderr is only drained.
                if let (Some(rest), Some(tx)) =
                    (line.split("listening on http://").nth(1), tx.take())
                {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                }
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
            stderr: Some(reader),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| io::Error::other("rat serve printed no readiness line"))?;
        daemon.addr = addr
            .parse()
            .map_err(|_| io::Error::other(format!("unparsable listen address '{addr}'")))?;
        Ok(daemon)
    }

    /// `GET /metrics` on a fresh connection.
    pub fn metrics(&self) -> io::Result<String> {
        let mut body = Vec::new();
        let status = Client::new(self.addr).send("GET", "/metrics", "", &mut body)?;
        if status != 200 {
            return Err(io::Error::other(format!("/metrics answered {status}")));
        }
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    /// `POST /shutdown`, then wait for the drain; kill after 30 s.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut body = Vec::new();
        let sent = Client::new(self.addr).send("POST", "/shutdown", "", &mut body);
        let mut child = self.child.take().expect("running");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait()? {
                break Some(status);
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            thread::sleep(Duration::from_millis(2));
        };
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        sent?;
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(io::Error::other(format!("rat serve exited with {s}"))),
            None => Err(io::Error::other("rat serve did not drain within 30 s")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// Drive the set-up stream until both cache tiers are past their budgets.
/// Returns the number of requests sent.
fn fill(addr: SocketAddr, stream: ServeStream) -> io::Result<u64> {
    let threshold = FILL_SHARE * 2.0 * cache_budget_bytes() as f64;
    let next = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let results: Vec<io::Result<()>> = thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|t| {
                let (next, done) = (&next, &done);
                s.spawn(move || -> io::Result<()> {
                    let mut client = Client::new(addr);
                    let mut groups = GroupCache::default();
                    let mut body = Vec::new();
                    let mut sent = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let op = groups.op(&stream, i);
                        let status = client.send("POST", op.path(), &op.body, &mut body);
                        if status.as_ref().ok() != Some(&200) {
                            done.store(true, Ordering::Relaxed);
                            return Err(io::Error::other(format!(
                                "set-up request {i} ({}) failed: {status:?}",
                                op.path()
                            )));
                        }
                        sent += 1;
                        if t == 0 && sent.is_multiple_of(FILL_POLL) {
                            client.send("GET", "/metrics", "", &mut body)?;
                            let text = String::from_utf8_lossy(&body);
                            let bytes = metric(&text, "response_cache_bytes").unwrap_or(0.0);
                            if bytes >= threshold {
                                done.store(true, Ordering::Relaxed);
                            }
                        }
                        if started.elapsed() > Duration::from_secs(150) {
                            done.store(true, Ordering::Relaxed);
                            return Err(io::Error::other("response cache never filled"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fill thread"))
            .collect()
    });
    for r in results {
        r?;
    }
    Ok(next.load(Ordering::Relaxed))
}

/// What the timed window sends.
enum Source<'a> {
    Unique(ServeStream),
    Hot(&'a HotStream, &'a [String]),
}

/// One completed serve_unique response, kept for verification.
struct Kept {
    index: u64,
    start: usize,
    len: usize,
}

#[derive(Default)]
struct ThreadOutcome {
    attempted: u64,
    ok: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
    arena: Vec<u8>,
    kept: Vec<Kept>,
    first_error: Option<String>,
}

/// The timed window: closed loop on `CONNECTIONS` connections until
/// `seconds` have passed, while this thread samples the daemon's CPU time
/// every `SLICE_S`. Returns per-thread outcomes, the slices, and the wall
/// time.
fn window(
    addr: SocketAddr,
    pid: u32,
    source: &Source,
    seconds: f64,
) -> (Vec<ThreadOutcome>, Vec<Slice>, f64) {
    let next = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let barrier = Barrier::new(CONNECTIONS + 1);
    let mut wall = 0.0;
    let mut slices = Vec::new();
    let outcomes = thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let (next, completed, barrier) = (&next, &completed, &barrier);
                s.spawn(move || {
                    let mut out = ThreadOutcome::default();
                    let mut client = Client::new(addr);
                    let mut groups = GroupCache::default();
                    let mut body = Vec::with_capacity(16 * 1024);
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (op, expected): (&ServeOp, Option<&String>) = match source {
                            Source::Unique(stream) => (groups.op(stream, i), None),
                            Source::Hot(hot, bodies) => {
                                let k = hot.pick(i);
                                (&hot.ops[k], Some(&bodies[k]))
                            }
                        };
                        out.attempted += 1;
                        let t = Instant::now();
                        let status = client.send("POST", op.path(), &op.body, &mut body);
                        let ns = t.elapsed().as_nanos() as u64;
                        let error = match status {
                            Ok(200) => match expected {
                                // Hot responses repeat 64 bodies, so each is
                                // compared as it arrives instead of kept.
                                Some(want) if want.as_bytes() != body.as_slice() => Some(format!(
                                    "request {i}: body differs from the in-process render"
                                )),
                                _ => None,
                            },
                            Ok(code) => Some(format!("request {i} ({}): status {code}", op.path())),
                            Err(e) => Some(format!("request {i} ({}): {e}", op.path())),
                        };
                        match error {
                            None => {
                                completed.fetch_add(1, Ordering::Relaxed);
                                out.ok += 1;
                                out.latencies_ns.push(ns);
                                if expected.is_none() {
                                    out.kept.push(Kept {
                                        index: i,
                                        start: out.arena.len(),
                                        len: body.len(),
                                    });
                                    out.arena.extend_from_slice(&body);
                                }
                            }
                            Some(e) => {
                                out.failed += 1;
                                out.first_error.get_or_insert(e);
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let sample = || {
            (
                started.elapsed().as_secs_f64(),
                completed.load(Ordering::Relaxed),
                host::process_cpu_s(pid).unwrap_or(0.0),
            )
        };
        let mut last = sample();
        let mut boundary = SLICE_S;
        while boundary <= seconds + 1e-9 {
            thread::sleep(Duration::from_secs_f64((boundary - last.0).max(0.0)));
            let now = sample();
            slices.push(Slice {
                wall_s: now.0 - last.0,
                ok: now.1 - last.1,
                cpu_s: now.2 - last.2,
            });
            last = now;
            boundary += SLICE_S;
        }
        let outs: Vec<ThreadOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        wall = started.elapsed().as_secs_f64();
        outs
    });
    (outcomes, slices, wall)
}

/// Compare every kept serve_unique response with the in-process render.
/// Returns `(mismatches, first mismatch)`.
fn verify_unique(stream: ServeStream, outcomes: &[ThreadOutcome]) -> (u64, Option<String>) {
    let mut all: Vec<(u64, &[u8])> = outcomes
        .iter()
        .flat_map(|o| {
            o.kept
                .iter()
                .map(|k| (k.index, &o.arena[k.start..k.start + k.len]))
        })
        .collect();
    all.sort_unstable_by_key(|(i, _)| *i);
    let half = all.len().div_ceil(2).max(1);
    let results: Vec<(u64, Option<String>)> = thread::scope(|s| {
        let handles: Vec<_> = all
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    let engine = expect::engine(1);
                    let sims = SimCache::new();
                    let mut groups = GroupCache::default();
                    let mut bad = 0u64;
                    let mut first = None;
                    for (i, got) in chunk {
                        let op = groups.op(&stream, *i);
                        let ok = matches!(expect::serve_body(op, &engine, &sims),
                                          Ok(want) if want.as_bytes() == *got);
                        if !ok {
                            bad += 1;
                            first.get_or_insert_with(|| {
                                format!(
                                    "request {i} ({}): body differs from the in-process render",
                                    op.path()
                                )
                            });
                        }
                    }
                    (bad, first)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread"))
            .collect()
    });
    results
        .into_iter()
        .fold((0, None), |(n, first), (b, f)| (n + b, first.or(f)))
}

/// The in-process render of every hot request.
fn hot_bodies(hot: &HotStream) -> Result<Vec<String>, String> {
    let engine = expect::engine(1);
    let sims = SimCache::new();
    hot.ops
        .iter()
        .map(|op| expect::serve_body(op, &engine, &sims))
        .collect()
}

/// Send each hot request once, pipelined on one connection (the daemon
/// reads them back to back; ~45 KB of requests and ~30 KB of answers fit
/// the loopback socket buffers), checking each answer.
fn prime(addr: SocketAddr, hot: &HotStream, bodies: &[String]) -> io::Result<()> {
    let mut client = Client::new(addr);
    for op in &hot.ops {
        client.write_request("POST", op.path(), &op.body)?;
    }
    let mut body = Vec::new();
    for (op, want) in hot.ops.iter().zip(bodies) {
        let status = client.read_response(&mut body)?;
        if status != 200 || want.as_bytes() != body.as_slice() {
            return Err(io::Error::other(format!(
                "priming {} answered {status} with an unexpected body",
                op.path()
            )));
        }
    }
    Ok(())
}

/// Run serve_unique (`hot == false`) or serve_hot end to end.
pub fn run(rat: &Path, seed: u64, seconds: f64, hot: bool) -> io::Result<E2e> {
    let mut notes = Vec::new();
    let hot_set = if hot {
        let stream = HotStream::new(seed);
        let bodies = hot_bodies(&stream).map_err(io::Error::other)?;
        Some((stream, bodies))
    } else {
        None
    };
    let (before, after) = if hot { HOT_SETUPS } else { (UNIQUE_SETUPS, 0) };
    let mut setup_s = Vec::new();
    let mut ready_ms = Vec::new();
    let mut fill_requests = 0;
    let mut set_up = || -> io::Result<Daemon> {
        let t0 = Instant::now();
        let d = Daemon::spawn(rat)?;
        ready_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match &hot_set {
            Some((stream, bodies)) => prime(d.addr, stream, bodies)?,
            None => fill_requests = fill(d.addr, ServeStream { seed, stream: 1 })?,
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(d)
    };
    let mut daemon = set_up()?;
    for _ in 1..before {
        daemon.shutdown()?;
        daemon = set_up()?;
    }
    if !hot {
        let text = daemon.metrics()?;
        notes.push(format!(
            "set-up: response cache at {:.1} MiB in {} entries before the window",
            metric(&text, "response_cache_bytes").unwrap_or(0.0) / (1 << 20) as f64,
            metric(&text, "response_cache_entries").unwrap_or(0.0)
        ));
    }

    let source = match &hot_set {
        Some((stream, bodies)) => Source::Hot(stream, bodies),
        None => Source::Unique(ServeStream { seed, stream: 0 }),
    };
    let cpu0 = host::process_cpu_s(daemon.pid).unwrap_or(0.0);
    let (outcomes, slices, wall_s) = window(daemon.addr, daemon.pid, &source, seconds);
    let cpu1 = host::process_cpu_s(daemon.pid).unwrap_or(0.0);
    let rss_kib = host::process_hwm_kib(daemon.pid).unwrap_or(0);
    let metrics_text = daemon.metrics()?;
    daemon.shutdown()?;
    for _ in 0..after {
        set_up()?.shutdown()?;
    }
    if !hot {
        notes.push(format!(
            "set-up: {fill_requests} requests filled the response cache past {:.0}% of 2 x {} MiB",
            FILL_SHARE * 100.0,
            cache_budget_bytes() >> 20
        ));
    }
    notes.push(format!(
        "set-up: {} runs ({before} before the window, {after} after), spawn-to-ready median \
         {:.2} ms, set-up median {:.4} s",
        setup_s.len(),
        median(&ready_ms),
        median(&setup_s)
    ));

    let mut e2e = E2e {
        setup_s: median(&setup_s),
        wall_s,
        cpu_s: cpu1 - cpu0,
        rss_kib,
        slices,
        metrics_text: Some(metrics_text),
        ..E2e::default()
    };
    for o in &outcomes {
        e2e.attempted += o.attempted;
        e2e.ok += o.ok;
        e2e.failed += o.failed;
        e2e.latencies_ns.extend_from_slice(&o.latencies_ns);
        if e2e.first_error.is_none() {
            e2e.first_error = o.first_error.clone();
        }
    }
    if let Source::Unique(stream) = source {
        let kept_bytes: usize = outcomes.iter().map(|o| o.arena.len()).sum();
        let (bad, first) = verify_unique(stream, &outcomes);
        notes.push(format!(
            "verified {} responses ({:.1} MiB) against the in-process render: {bad} differ",
            e2e.ok,
            kept_bytes as f64 / (1 << 20) as f64
        ));
        e2e.ok -= bad;
        e2e.failed += bad;
        if e2e.first_error.is_none() {
            e2e.first_error = first;
        }
    } else {
        notes.push(format!(
            "verified {} responses against the in-process render of the 64 hot requests",
            e2e.ok
        ));
    }
    e2e.notes = notes;
    Ok(e2e)
}
