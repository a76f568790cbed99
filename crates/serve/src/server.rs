//! The resident daemon: acceptor, bounded queue, worker pool, shutdown.
//!
//! Threading model: one acceptor thread pushes accepted connections into a
//! bounded queue; N worker threads pop, each owning a **warm
//! [`Engine`]** reused across requests, and run the full
//! read-route-handle-respond cycle per *connection* — which, since
//! connections are persistent, may be many requests. The queue is the only
//! coordination point, and its bound is the backpressure contract — when
//! it fills, the acceptor answers `503` inline instead of letting latency
//! grow without bound.
//!
//! Three serving-path accelerations live here (all with escape hatches):
//!
//! - **Keep-alive**: a worker loops requests on its connection until the
//!   client closes, asks to close, idles past [`ServeConfig::keepalive_idle`],
//!   or hits [`ServeConfig::max_requests_per_conn`].
//! - **Response cache**: deterministic `/v1/*` responses are cached by
//!   content-addressed digest with single-flight dedup
//!   (see [`crate::respcache`]); disable with `response_cache_bytes: 0`
//!   (the CLI's `--no-response-cache`).
//! - **Solve coalescing**: concurrent `/v1/solve` computations are drained
//!   into cross-request batches (see [`crate::coalesce`]) whose per-request
//!   answers are bit-identical to the solo path.
//!
//! The daemon never turns span recording on. `GET /metrics` reads the
//! pipeline counters live from the process-global telemetry collector,
//! which counts whether or not spans are recorded, and nothing here drains
//! it.
//!
//! Shutdown is a drain, not an abort: `POST /shutdown` (or SIGINT/SIGTERM
//! via [`install_signal_shutdown`]) sets the stop flag and wakes the
//! acceptor with a loopback connection; the acceptor stops accepting and
//! closes the queue; workers finish every connection already queued (their
//! final responses advertise `Connection: close`) and exit;
//! [`ServerHandle::join`] then returns a [`ServeSummary`]. No thread is
//! detached, so a joined server has provably leaked nothing.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fpga_sim::SimCache;
use rat_core::engine::{Engine, EngineConfig};
use rat_core::telemetry;

use crate::api::{self, ApiError, ApiRequest};
use crate::coalesce::Coalescer;
use crate::http::{self, Connection, ReadError, Request};
use crate::keys;
use crate::metrics::ServerMetrics;
use crate::queue::BoundedQueue;
use crate::respcache::{Lookup, ResponseCache};

/// Server configuration, all fields defaulted for tests (`port: 0` binds an
/// ephemeral port). Request bodies are capped at [`http::MAX_BODY_BYTES`]
/// (413 beyond it), a constant.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (default loopback).
    pub addr: String,
    /// TCP port; `0` picks an ephemeral port (the bound address is on the
    /// returned handle).
    pub port: u16,
    /// Worker threads, each with a warm engine. `0` = available parallelism.
    pub workers: usize,
    /// Bound on queued connections before the acceptor answers 503.
    pub queue_capacity: usize,
    /// `jobs` for each worker's engine (0 = engine default). Workers already
    /// provide request-level parallelism, so per-request engine fan-out
    /// defaults to sequential.
    pub engine_jobs: usize,
    /// Per-request read deadline; a client that stalls mid-request gets 408.
    pub request_timeout: Duration,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it silently.
    pub keepalive_idle: Duration,
    /// Requests served on one connection before the server answers the
    /// last with `Connection: close` — bounds per-connection resource
    /// pinning under a client that never lets go.
    pub max_requests_per_conn: u64,
    /// Byte budget for the rendered-response cache; `0` disables it
    /// (every request recomputes, as `--no-response-cache`).
    pub response_cache_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1".into(),
            port: 0,
            workers: 2,
            queue_capacity: 128,
            engine_jobs: 1,
            request_timeout: Duration::from_secs(10),
            keepalive_idle: Duration::from_secs(5),
            max_requests_per_conn: 1000,
            response_cache_bytes: 16 * 1024 * 1024,
        }
    }
}

struct Shared {
    stop: AtomicBool,
    queue: BoundedQueue<(TcpStream, Instant)>,
    metrics: ServerMetrics,
    config: ServeConfig,
    addr: SocketAddr,
    /// `None` when the cache is disabled (`response_cache_bytes: 0`).
    respcache: Option<Arc<ResponseCache>>,
    coalescer: Coalescer,
}

impl Shared {
    /// Request a drain: future accepts stop, queued work still completes.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept(). The no-op
        // connection is accepted (or fails — either way accept returns) and
        // immediately closed once the stop flag is observed.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A cloneable trigger that initiates graceful shutdown — handed to the
/// signal watcher and available to tests.
#[derive(Clone)]
pub struct StopTrigger {
    shared: Arc<Shared>,
}

impl StopTrigger {
    /// Initiate the drain (idempotent).
    pub fn trigger(&self) {
        self.shared.request_stop();
    }
}

/// Final accounting returned by [`ServerHandle::join`].
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Connections accepted over the server's lifetime. With keep-alive,
    /// one connection can account for many requests, so `ok + errored`
    /// may exceed this.
    pub accepted: u64,
    /// Requests answered 200.
    pub ok: u64,
    /// Requests answered with any non-200 status.
    pub errored: u64,
    /// Connections bounced with 503 by the full-queue backpressure path.
    pub rejected_busy: u64,
}

/// A running server. Dropping the handle without calling [`join`] aborts
/// the process's threads unjoined — call [`ServerHandle::shutdown`] (or
/// `join` after an external trigger) for a clean drain.
///
/// [`join`]: ServerHandle::join
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The cumulative server metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// A trigger that initiates graceful shutdown from another thread.
    pub fn stop_trigger(&self) -> StopTrigger {
        StopTrigger {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Block until the server has fully drained (after `POST /shutdown`, a
    /// signal, or [`StopTrigger::trigger`]), then return the final
    /// accounting. Joins every thread the server started.
    pub fn join(self) -> ServeSummary {
        self.acceptor.join().expect("acceptor thread panicked");
        // No more pushes are possible; close so workers drain and exit.
        self.shared.queue.close();
        for w in self.workers {
            w.join().expect("worker thread panicked");
        }
        let m = &self.shared.metrics;
        let ok = m.status_count(200);
        let total: u64 = crate::metrics::STATUSES
            .iter()
            .map(|s| m.status_count(*s))
            .sum();
        ServeSummary {
            accepted: m.accepted.load(Ordering::Relaxed),
            ok,
            errored: total - ok,
            rejected_busy: m.rejected_busy.load(Ordering::Relaxed),
        }
    }

    /// Trigger shutdown and [`join`](ServerHandle::join) — the programmatic
    /// equivalent of `POST /shutdown`.
    pub fn shutdown(self) -> ServeSummary {
        self.shared.request_stop();
        self.join()
    }
}

/// The server type; [`Server::start`] is the entry point.
pub struct Server;

impl Server {
    /// Bind and start: spawns the acceptor and `config.workers` workers,
    /// returns immediately with a handle.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind((config.addr.as_str(), config.port))?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            config.workers
        };
        let respcache = if config.response_cache_bytes > 0 {
            Some(ResponseCache::new(config.response_cache_bytes))
        } else {
            None
        };
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            queue: BoundedQueue::new(config.queue_capacity),
            metrics: ServerMetrics::new(),
            config,
            addr,
            respcache,
            coalescer: Coalescer::default(),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &shared))?
        };
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(ServerHandle {
            shared,
            acceptor,
            workers: worker_handles,
        })
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            // The wake-up connection (or a straggler past the drain point).
            break;
        }
        // Responses are written whole, so Nagle buys nothing — and on a
        // kept-alive connection it interacts with delayed ACK to stall
        // every second response by tens of milliseconds.
        let _ = stream.set_nodelay(true);
        shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        if let Err((mut stream, queued_at)) = shared.queue.try_push((stream, Instant::now())) {
            // Backpressure: answer inline rather than queueing unboundedly.
            shared.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
            let err = ApiError::Busy;
            let _ = http::write_json(&mut stream, err.status(), &err.to_json(), false);
            // Drain whatever request bytes the client already sent before
            // dropping the socket: closing with unread data pending makes
            // the kernel send RST, which can discard the 503 the client
            // has not read yet.
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
            let _ = std::io::copy(&mut stream, &mut std::io::sink());
            shared.metrics.observe(err.status(), queued_at.elapsed());
        }
    }
}

fn worker_loop(shared: &Shared) {
    let engine = Engine::new(EngineConfig::default().with_jobs(shared.config.engine_jobs));
    while let Some((stream, queued_at)) = shared.queue.pop() {
        serve_connection(shared, &engine, stream, queued_at);
    }
}

/// Handle one connection end to end — possibly many requests under
/// keep-alive. Never panics on client input: every failure maps to a
/// status + JSON error body, and a client that vanished mid-write is simply
/// logged as the status we tried to send.
fn serve_connection(shared: &Shared, engine: &Engine, stream: TcpStream, queued_at: Instant) {
    let _ = stream.set_write_timeout(Some(shared.config.request_timeout));
    let mut conn = Connection::new(stream);
    let mut served = 0u64;
    loop {
        // The first request owes us bytes (the client connected for a
        // reason); later ones may simply never come, which is an idle
        // close, not an error.
        let between_requests = served > 0;
        let wait = if between_requests {
            shared.config.keepalive_idle
        } else {
            shared.config.request_timeout
        };
        let fallback_start = Instant::now();
        let (req, first_byte) = match conn.read_request(
            wait,
            shared.config.request_timeout,
            http::MAX_BODY_BYTES,
            between_requests,
        ) {
            Ok(ok) => ok,
            Err(ReadError::Idle) => break,
            Err(ReadError::Protocol(e)) => {
                // Framing is unsynchronized after a protocol error, so the
                // answer always closes the connection.
                let _ = http::write_json(conn.stream(), e.status(), &e.to_json(), false);
                let start = if between_requests {
                    fallback_start
                } else {
                    queued_at
                };
                shared.metrics.observe(e.status(), start.elapsed());
                break;
            }
        };
        // Queue time counts against the first request only; later requests
        // are measured from their first byte.
        let start = if between_requests {
            first_byte
        } else {
            queued_at
        };
        let keep = req.keep_alive
            && served + 1 < shared.config.max_requests_per_conn
            && !shared.stop.load(Ordering::SeqCst);
        let status = match route(shared, engine, &req) {
            Ok(Response::Json(body)) => {
                let _ = http::write_json(conn.stream(), 200, &body, keep);
                200
            }
            Ok(Response::Text(body)) => {
                let _ = http::write_response(
                    conn.stream(),
                    200,
                    "text/plain; charset=utf-8",
                    &body,
                    keep,
                );
                200
            }
            Err(e) => {
                let _ = http::write_json(conn.stream(), e.status(), &e.to_json(), keep);
                e.status()
            }
        };
        shared.metrics.observe(status, start.elapsed());
        served += 1;
        if !keep {
            break;
        }
    }
}

enum Response {
    Json(Arc<String>),
    Text(String),
}

fn route(shared: &Shared, engine: &Engine, req: &Request) -> Result<Response, ApiError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok(Response::Text("ok\n".into())),
        ("GET", "/metrics") => Ok(Response::Text(shared.metrics.render(
            telemetry::global(),
            &SimCache::global().stats(),
            shared.queue.len(),
            shared.queue.high_water(),
            shared.config.workers,
            shared.respcache.as_deref().map(|c| c.stats()),
        ))),
        ("POST", "/shutdown") => {
            shared.request_stop();
            Ok(Response::Json(Arc::new(
                "{\"status\": \"draining\"}".into(),
            )))
        }
        (_, "/healthz") | (_, "/metrics") => Err(ApiError::WrongMethod {
            path: req.path.clone(),
            allowed: "GET",
        }),
        (_, "/shutdown") => Err(ApiError::WrongMethod {
            path: req.path.clone(),
            allowed: "POST",
        }),
        (method, path) => {
            let Some(mode) = path.strip_prefix("/v1/") else {
                return Err(ApiError::UnknownRoute(path.into()));
            };
            if !api::MODES.contains(&mode) {
                return Err(ApiError::UnknownRoute(path.into()));
            }
            if method != "POST" {
                return Err(ApiError::WrongMethod {
                    path: path.into(),
                    allowed: "POST",
                });
            }
            let Some(cache) = &shared.respcache else {
                let parsed = api::parse_mode_request(mode, &req.body)?;
                return Ok(Response::Json(Arc::new(
                    run_mode(shared, engine, &parsed)?.to_json(),
                )));
            };

            // Tier 1: byte-exact repeat — skip parsing entirely. Every
            // `/v1/*` mode is deterministic given (payload, engine knobs):
            // seeds resolve against the engine's root seed and the
            // simulator is a deterministic event machine, so replaying
            // cached bytes is indistinguishable from recomputing.
            let raw = keys::raw_key(path, &req.body);
            if let Some(body) = cache.lookup_raw(raw) {
                return Ok(Response::Json(body));
            }

            let parsed = api::parse_mode_request(mode, &req.body)?;
            let key = keys::request_key(
                &parsed,
                engine.config().root_seed,
                shared.config.engine_jobs,
            );
            match cache.begin(key) {
                Lookup::Hit(body) => {
                    cache.alias_raw(raw, &body);
                    Ok(Response::Json(body))
                }
                Lookup::Miss(guard) => {
                    // Errors are not cached: on `?`, the guard's Drop marks
                    // the flight failed and waiters retry for themselves.
                    let ok = run_mode(shared, engine, &parsed)?;
                    let body = Arc::new(ok.to_json());
                    guard.complete(Arc::clone(&body));
                    cache.alias_raw(raw, &body);
                    Ok(Response::Json(body))
                }
            }
        }
    }
}

/// Evaluate one parsed request. Solve goes through the coalescer so
/// concurrent solves share batched evaluation; everything else is the
/// engine path the CLI also uses.
fn run_mode(shared: &Shared, engine: &Engine, parsed: &ApiRequest) -> Result<api::ApiOk, ApiError> {
    match parsed {
        ApiRequest::Solve {
            input,
            target,
            strict,
        } => {
            let quad = shared.coalescer.solve(input, *target);
            let report = if *strict {
                api::solve_report_strict_from_quad(input, *target, &quad).map_err(ApiError::Mode)?
            } else {
                api::solve_report_from_quad(input, *target, &quad)
            };
            Ok(api::ApiOk {
                mode: "solve",
                report,
            })
        }
        _ => api::handle(engine, parsed, Some(SimCache::global())),
    }
}

// ---------------------------------------------------------------------------
// Signal handling: SIGINT/SIGTERM → graceful drain, via a self-pipe. The
// handler itself only writes one byte (async-signal-safe); a watcher thread
// does the actual shutdown. Hand-declared libc externs — the workspace has
// no libc crate and does not take new dependencies.
// ---------------------------------------------------------------------------

/// Install SIGINT + SIGTERM handlers that trigger a graceful drain of the
/// server behind `trigger`. Returns `false` (and installs nothing) on
/// non-Unix platforms or if the self-pipe cannot be created. Call at most
/// once per process.
pub fn install_signal_shutdown(trigger: StopTrigger) -> bool {
    #[cfg(unix)]
    {
        unix_signal::install(trigger)
    }
    #[cfg(not(unix))]
    {
        let _ = trigger;
        false
    }
}

#[cfg(unix)]
mod unix_signal {
    use super::StopTrigger;
    use std::sync::atomic::{AtomicI32, Ordering};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn pipe(fds: *mut i32) -> i32;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    }

    static WRITE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: one write to the self-pipe.
        let fd = WRITE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            let byte = 1u8;
            unsafe {
                let _ = write(fd, &byte, 1);
            }
        }
    }

    pub(super) fn install(trigger: StopTrigger) -> bool {
        let mut fds = [-1i32; 2];
        // SAFETY: pipe(2) with a valid two-element array.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return false;
        }
        let (read_fd, write_fd) = (fds[0], fds[1]);
        WRITE_FD.store(write_fd, Ordering::SeqCst);
        // SAFETY: installing an async-signal-safe handler for SIGINT/SIGTERM.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
        std::thread::Builder::new()
            .name("serve-signal".into())
            .spawn(move || {
                let mut buf = [0u8; 1];
                // SAFETY: blocking read on our own pipe's read end.
                let n = unsafe { read(read_fd, buf.as_mut_ptr(), 1) };
                if n > 0 {
                    trigger.trigger();
                }
            })
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// One request on its own connection (`Connection: close`, so
    /// `read_to_string` terminates under keep-alive defaults).
    fn send_raw(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn get_close(addr: SocketAddr, path: &str) -> String {
        send_raw(
            addr,
            &format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n"),
        )
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> String {
        send_raw(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn healthz_metrics_and_shutdown_round_trip() {
        let handle = Server::start(ServeConfig::default()).unwrap();
        let addr = handle.addr();

        let health = get_close(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        let ws = toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap();
        let body = format!(
            "{{\"worksheet_toml\": \"{}\", \"target\": 8.0}}",
            crate::api::escape_json(&ws)
        );
        let resp = post(addr, "/v1/solve", &body);
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("\"mode\": \"solve\""), "{resp}");
        assert!(resp.contains("Inverse solve"), "{resp}");

        let metrics = get_close(addr, "/metrics");
        assert!(metrics.contains("serve_accepted_total"), "{metrics}");
        assert!(metrics.contains("latency_us_count"), "{metrics}");

        let bye = post(addr, "/shutdown", "");
        assert!(bye.contains("draining"), "{bye}");
        let summary = handle.join();
        assert!(summary.accepted >= 4, "{summary:?}");
        assert!(summary.ok >= 4, "{summary:?}");
    }

    #[test]
    fn a_kept_alive_connection_serves_many_requests() {
        let handle = Server::start(ServeConfig::default()).unwrap();
        let addr = handle.addr();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        for i in 0..3 {
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            // Frame the response by its Content-Length trailer ("ok\n").
            let mut buf = Vec::new();
            let mut byte = [0u8; 1];
            while !buf.ends_with(b"\r\n\r\nok\n") {
                assert!(s.read(&mut byte).unwrap() > 0, "server closed early at {i}");
                buf.push(byte[0]);
            }
            let text = String::from_utf8_lossy(&buf);
            assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
            assert!(text.contains("Connection: keep-alive"), "{text}");
        }
        drop(s);
        let summary = handle.shutdown();
        assert!(summary.ok >= 3, "{summary:?}");
        // Three requests, one connection (plus none others).
        assert_eq!(summary.accepted, 1, "{summary:?}");
    }

    #[test]
    fn protocol_errors_map_to_their_statuses_and_daemon_survives() {
        let handle = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = handle.addr();

        let resp = get_close(addr, "/nope");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        let resp = get_close(addr, "/v1/solve");
        assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
        let resp = send_raw(addr, "POST /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
        let resp = post(addr, "/v1/solve", "this is not json");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("caused_by"), "{resp}");

        // After all that abuse, a good request still works.
        let ws = toml::to_string(&rat_apps::pdf::pdf1d::rat_input(150.0e6)).unwrap();
        let body = format!(
            "{{\"worksheet_toml\": \"{}\", \"target\": 2.0}}",
            crate::api::escape_json(&ws)
        );
        let resp = post(addr, "/v1/solve", &body);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");

        handle.shutdown();
    }

    #[test]
    fn stop_trigger_drains_without_a_shutdown_request() {
        let handle = Server::start(ServeConfig::default()).unwrap();
        let trigger = handle.stop_trigger();
        trigger.trigger();
        let summary = handle.join();
        assert_eq!(summary.ok, 0);
    }
}
