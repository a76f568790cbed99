//! The traced run: the same generated ops replayed in-process, one layer's
//! public function at a time, each call timed from outside. No span is
//! added to the program; counts come from what it already exports
//! (`telemetry::global().drain()`).
//!
//! Replays are single-threaded and sized by op count, not by time, so their
//! counts repeat exactly for a fixed seed.

use std::collections::{BTreeMap, HashMap};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fpga_sim::SimCache;
use rat_core::engine::Engine;
use rat_core::params::Buffering;
use rat_core::solve::batch::{speedup_batch, BatchPoints};
use rat_core::solve::stages::clear_session_cache;
use rat_core::sweep::SweepParam;
use rat_core::telemetry::{self, json, Metric, Profile};
use rat_serve::api::{self, ApiOk, ApiRequest};
use rat_serve::coalesce::Coalescer;
use rat_serve::http::{self, Connection};
use rat_serve::keys;
use rat_serve::respcache::{Lookup, ResponseCache};

use crate::client::Client;
use crate::expect;
use crate::gen::{DesignCase, DesignOp, HotStream, ServeOp, ServeStream, ROUTES};
use crate::serve::FILL_SHARE;

/// The daemon drains its telemetry collector every this many requests; the
/// replay does the same so span buffers behave alike.
const TELEMETRY_DRAIN_INTERVAL: u64 = 64;

/// Counters kept from the telemetry drains of a replay.
const COUNTED: [Metric; 8] = [
    Metric::ResponseCacheHits,
    Metric::ResponseCacheMisses,
    Metric::StageHits,
    Metric::StageMisses,
    Metric::SimRuns,
    Metric::SimEvents,
    Metric::EngineJobs,
    Metric::OptimizeEvals,
];

/// Summed counters across drains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    fn absorb(&mut self, p: &Profile) {
        for m in COUNTED.iter().chain([&Metric::OptimizeFrontSize]) {
            *self.0.entry(m.name()).or_insert(0) += p.metric(*m);
        }
    }

    pub fn get(&self, m: Metric) -> u64 {
        self.0.get(m.name()).copied().unwrap_or(0)
    }
}

/// Time spent in one layer: total and how many ops reached it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub ns: u64,
    pub ops: u64,
}

impl Acc {
    /// Mean microseconds per op that reached the layer (0 if none did).
    pub fn us(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64 / 1e3
        }
    }
}

/// `ROUTES` index of `/v1/simulate`.
const SIMULATE: usize = 5;

/// Serve-path layers, in request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Layer {
    HttpRead,
    KeysRaw,
    CacheLookup,
    JsonParse,
    WorksheetParse,
    KeysCanonical,
    /// `api.compute_us.<mode>`, indexed like [`ROUTES`].
    Compute(usize),
    /// Inside `Compute(solve)`: the coalescer's share. Not summed twice.
    CoalesceSolve,
    Render,
    CacheFill,
    HttpWrite,
}

impl Layer {
    fn name(self) -> &'static str {
        const COMPUTE: [&str; 6] = [
            "api.compute_us.solve",
            "api.compute_us.sweep",
            "api.compute_us.sensitivity",
            "api.compute_us.uncertainty",
            "api.compute_us.explore",
            "api.compute_us.simulate",
        ];
        match self {
            Layer::HttpRead => "http.read_us",
            Layer::KeysRaw => "keys.raw_us",
            Layer::CacheLookup => "respcache.lookup_us",
            Layer::JsonParse => "json.parse_us",
            Layer::WorksheetParse => "worksheet.parse_us",
            Layer::KeysCanonical => "keys.canonical_us",
            Layer::Compute(r) => COMPUTE[r],
            Layer::CoalesceSolve => "coalesce.solve_us",
            Layer::Render => "api.render_us",
            Layer::CacheFill => "respcache.fill_us",
            Layer::HttpWrite => "http.write_us",
        }
    }
}

/// The layer times of one op, folded into [`Acc`]s when the op ends.
#[derive(Default)]
struct OpClock {
    spent: Vec<(Layer, u64)>,
}

impl OpClock {
    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.spent.push((layer, t.elapsed().as_nanos() as u64));
        out
    }
}

/// The daemon's per-request state, built from the same public types.
struct ServerState {
    cache: Arc<ResponseCache>,
    coalescer: Coalescer,
    sims: SimCache,
    engine: Engine,
    raw_lookups: u64,
    raw_hits: u64,
    canonical_lookups: u64,
    canonical_hits: u64,
}

impl ServerState {
    fn new(budget: usize) -> ServerState {
        ServerState {
            cache: ResponseCache::new(budget),
            coalescer: Coalescer::default(),
            sims: SimCache::new(),
            engine: expect::engine(1),
            raw_lookups: 0,
            raw_hits: 0,
            canonical_lookups: 0,
            canonical_hits: 0,
        }
    }

    /// Everything `rat serve` does for a `/v1/*` request between reading it
    /// and writing the answer, in the daemon's order: raw-tier lookup, then
    /// parse, canonical key and single-flight lookup, then compute (solve
    /// through the coalescer), render, and the cache fill.
    fn process(
        &mut self,
        path: &str,
        body: &str,
        clock: &mut OpClock,
    ) -> Result<Arc<String>, String> {
        let route = ROUTES
            .iter()
            .position(|(_, p)| *p == path)
            .ok_or_else(|| format!("unknown route {path}"))?;
        let mode = ROUTES[route].0;
        let raw = clock.time(Layer::KeysRaw, || keys::raw_key(path, body));
        self.raw_lookups += 1;
        if let Some(hit) = clock.time(Layer::CacheLookup, || self.cache.lookup_raw(raw)) {
            self.raw_hits += 1;
            return Ok(hit);
        }
        let doc = clock
            .time(Layer::JsonParse, || json::parse(body))
            .map_err(|e| format!("JSON: {e}"))?;
        if let Some(ws) = doc.get("worksheet_toml").and_then(json::Json::as_str) {
            clock
                .time(Layer::WorksheetParse, || api::parse_worksheet(ws))
                .map_err(|e| e.to_json())?;
        }
        let parsed = api::parse_mode_request(mode, body).map_err(|e| e.to_json())?;
        let root_seed = self.engine.config().root_seed;
        let key = clock.time(Layer::KeysCanonical, || {
            keys::request_key(&parsed, root_seed, 1)
        });
        self.canonical_lookups += 1;
        let cache = Arc::clone(&self.cache);
        match clock.time(Layer::CacheLookup, || cache.begin(key)) {
            Lookup::Hit(hit) => {
                self.canonical_hits += 1;
                clock.time(Layer::CacheFill, || cache.alias_raw(raw, &hit));
                Ok(hit)
            }
            Lookup::Miss(guard) => {
                let ok = self.compute(route, &parsed, clock)?;
                let text = clock.time(Layer::Render, || ok.to_json());
                let body = Arc::new(text);
                clock.time(Layer::CacheFill, || {
                    guard.complete(Arc::clone(&body));
                    cache.alias_raw(raw, &body);
                });
                Ok(body)
            }
        }
    }

    fn compute(
        &mut self,
        route: usize,
        parsed: &ApiRequest,
        clock: &mut OpClock,
    ) -> Result<ApiOk, String> {
        let started = Instant::now();
        let ok = match parsed {
            ApiRequest::Solve {
                input,
                target,
                strict: false,
            } => {
                let quad = clock.time(Layer::CoalesceSolve, || {
                    self.coalescer.solve(input, *target)
                });
                ApiOk {
                    mode: "solve",
                    report: api::solve_report_from_quad(input, *target, &quad),
                }
            }
            _ => api::handle(&self.engine, parsed, Some(&self.sims)).map_err(|e| e.to_json())?,
        };
        clock
            .spent
            .push((Layer::Compute(route), started.elapsed().as_nanos() as u64));
        Ok(ok)
    }
}

/// Serve replay sizes.
#[derive(Debug, Clone, Copy)]
pub struct ServeSizes {
    /// Response-cache budget (the daemon's default in the benchmark).
    pub budget: usize,
    /// Ops timed after the warm-up.
    pub measured: u64,
    /// Ops in each telemetry on/off pass.
    pub telemetry_ops: u64,
}

/// What a serve replay measured.
#[derive(Debug, Clone, Default)]
pub struct ServeTrace {
    pub warmup_ops: u64,
    pub measured: u64,
    pub layers: BTreeMap<&'static str, Acc>,
    /// Mean of the per-op sum of all layer times (µs).
    pub layer_sum_us: f64,
    pub raw_hit_ratio: f64,
    pub canonical_hit_ratio: f64,
    pub cache_bytes: usize,
    pub cache_entries: usize,
    pub simcache_entries: u64,
    pub counts: Counts,
    /// Total simulate compute time (ns) over the timed ops.
    pub simulate_ns: u64,
    pub telemetry_overhead_us: f64,
    /// Replayed responses that differ from the in-process render.
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
}

/// The replay's warm-up: what the e2e set-up does to the daemon.
#[derive(Clone, Copy)]
enum Warmup<'a> {
    /// Send the set-up stream until both cache tiers pass `FILL_SHARE`.
    Fill(ServeStream),
    /// Send each hot request once.
    Prime(&'a [ServeOp]),
}

/// A loopback socket pair: the client half writes requests and reads
/// answers, the server half is a daemon-style [`Connection`].
struct Wire {
    client: Client,
    server: Connection,
    _listener: TcpListener,
}

impl Wire {
    fn new() -> std::io::Result<Wire> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut client = Client::new(listener.local_addr()?);
        // Connect (the kernel completes the handshake before accept).
        client.write_request("GET", "/healthz", "")?;
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut server = Connection::new(stream);
        server
            .read_request(
                Duration::from_secs(5),
                Duration::from_secs(5),
                http::MAX_BODY_BYTES,
                false,
            )
            .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        http::write_response(server.stream(), 200, "text/plain", "ok\n", true)?;
        client.read_response(&mut Vec::new())?;
        Ok(Wire {
            client,
            server,
            _listener: listener,
        })
    }
}

/// Replay serve ops: warm up, then time `measured` ops layer by layer over
/// a loopback socket. `next(i)` is the `i`-th measured op.
fn serve(
    warmup: Warmup,
    next: &(dyn Fn(u64) -> ServeOp + Sync),
    sizes: ServeSizes,
) -> Result<ServeTrace, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut wire = Wire::new().map_err(io)?;
    let mut state = ServerState::new(sizes.budget);
    // A daemon worker starts with an empty stage memo; so does the replay.
    clear_session_cache();
    telemetry::global().enable();
    telemetry::global().drain();
    let mut trace = ServeTrace::default();

    let mut scratch = OpClock::default();
    match warmup {
        Warmup::Fill(stream) => {
            let threshold = FILL_SHARE * 2.0 * sizes.budget as f64;
            let mut i = 0;
            // `stats` walks every entry, so it is read once per drain.
            while i % TELEMETRY_DRAIN_INTERVAL != 0
                || (state.cache.stats().bytes as f64) < threshold
            {
                let op = stream.op(i);
                state.process(op.path(), &op.body, &mut scratch)?;
                scratch.spent.clear();
                i += 1;
                if i % TELEMETRY_DRAIN_INTERVAL == 0 {
                    telemetry::global().drain();
                }
            }
            trace.warmup_ops = i;
        }
        Warmup::Prime(ops) => {
            for op in ops {
                state.process(op.path(), &op.body, &mut scratch)?;
            }
            trace.warmup_ops = ops.len() as u64;
        }
    }
    telemetry::global().drain();
    state.raw_lookups = 0;
    state.raw_hits = 0;
    state.canonical_lookups = 0;
    state.canonical_hits = 0;

    let mut layers: BTreeMap<Layer, Acc> = BTreeMap::new();
    let mut sum_ns = 0u64;
    let mut simulate_ns = 0u64;
    let mut answers: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut response = Vec::new();
    for i in 0..sizes.measured {
        let op = next(i);
        let mut clock = OpClock::default();
        wire.client
            .write_request("POST", op.path(), &op.body)
            .map_err(io)?;
        let (req, _) = clock
            .time(Layer::HttpRead, || {
                wire.server.read_request(
                    Duration::from_secs(5),
                    Duration::from_secs(5),
                    http::MAX_BODY_BYTES,
                    true,
                )
            })
            .map_err(|e| format!("{e:?}"))?;
        let body = state.process(&req.path, &req.body, &mut clock)?;
        clock
            .time(Layer::HttpWrite, || {
                http::write_json(wire.server.stream(), 200, &body, true)
            })
            .map_err(io)?;
        let status = wire.client.read_response(&mut response).map_err(io)?;
        if status != 200 {
            return Err(format!("replayed op {i} answered {status}"));
        }
        answers.push((i, std::mem::take(&mut response)));

        let mut touched: BTreeMap<Layer, u64> = BTreeMap::new();
        for (layer, ns) in clock.spent {
            *touched.entry(layer).or_insert(0) += ns;
        }
        for (layer, ns) in touched {
            let acc = layers.entry(layer).or_default();
            acc.ns += ns;
            acc.ops += 1;
            if layer != Layer::CoalesceSolve {
                sum_ns += ns;
            }
            if layer == Layer::Compute(SIMULATE) {
                simulate_ns += ns;
            }
        }
        if (i + 1) % TELEMETRY_DRAIN_INTERVAL == 0 {
            trace.counts.absorb(&telemetry::global().drain());
        }
    }
    trace.counts.absorb(&telemetry::global().drain());

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    trace.measured = sizes.measured;
    trace.layers = layers.into_iter().map(|(l, a)| (l.name(), a)).collect();
    trace.layer_sum_us = ratio(sum_ns, sizes.measured) / 1e3;
    trace.raw_hit_ratio = ratio(state.raw_hits, state.raw_lookups);
    trace.canonical_hit_ratio = ratio(state.canonical_hits, state.canonical_lookups);
    let stats = state.cache.stats();
    trace.cache_bytes = stats.bytes;
    trace.cache_entries = stats.entries;
    trace.simcache_entries = state.sims.stats().entries;
    trace.simulate_ns = simulate_ns;

    // Every replayed answer against the in-process render, on a fresh
    // thread so this thread's stage memo is left as the replay made it.
    let (bad, first) = thread::scope(|s| {
        s.spawn(|| {
            let engine = expect::engine(1);
            let sims = SimCache::new();
            // serve_hot repeats 64 bodies; render each distinct one once.
            let mut renders: HashMap<String, Result<String, String>> = HashMap::new();
            let mut bad = 0;
            let mut first = None;
            for (i, got) in &answers {
                let op = next(*i);
                let want = renders
                    .entry(op.body.clone())
                    .or_insert_with(|| expect::serve_body(&op, &engine, &sims));
                let ok = matches!(want, Ok(want) if want.as_bytes() == got.as_slice());
                if !ok {
                    bad += 1;
                    first.get_or_insert_with(|| format!("replayed op {i} ({}) differs", op.path()));
                }
            }
            (bad, first)
        })
        .join()
        .expect("verify thread")
    });
    trace.mismatches = bad;
    trace.first_mismatch = first;
    drop(answers);

    let prime = match warmup {
        Warmup::Fill(_) => &[][..],
        Warmup::Prime(ops) => ops,
    };
    trace.telemetry_overhead_us = telemetry_overhead(prime, next, sizes);
    telemetry::global().enable();
    Ok(trace)
}

/// Collector-on minus collector-off cost per op of the server-side path
/// (`process`), each pass on a fresh thread with a fresh state; three
/// alternating rounds, medians compared.
fn telemetry_overhead(
    prime: &[ServeOp],
    next: &(dyn Fn(u64) -> ServeOp + Sync),
    sizes: ServeSizes,
) -> f64 {
    let ops: Vec<ServeOp> = (0..sizes.telemetry_ops).map(next).collect();
    let mut on = Vec::new();
    let mut off = Vec::new();
    for _ in 0..3 {
        for enabled in [false, true] {
            let secs = thread::scope(|s| {
                s.spawn(|| {
                    if enabled {
                        telemetry::global().enable();
                    } else {
                        telemetry::global().disable();
                    }
                    let mut state = ServerState::new(sizes.budget);
                    let mut clock = OpClock::default();
                    for op in prime {
                        let _ = state.process(op.path(), &op.body, &mut clock);
                    }
                    telemetry::global().drain();
                    let started = Instant::now();
                    for (i, op) in ops.iter().enumerate() {
                        let _ = state.process(op.path(), &op.body, &mut clock);
                        clock.spent.clear();
                        if (i as u64 + 1).is_multiple_of(TELEMETRY_DRAIN_INTERVAL) {
                            telemetry::global().drain();
                        }
                    }
                    telemetry::global().drain();
                    started.elapsed().as_secs_f64()
                })
                .join()
                .expect("telemetry pass")
            });
            if enabled { &mut on } else { &mut off }.push(secs);
        }
    }
    let n = ops.len().max(1) as f64;
    (crate::stats::median(&on) - crate::stats::median(&off)) * 1e6 / n
}

/// The serve_unique replay: fill from the set-up stream, then time
/// `sizes.measured` ops of the timed stream.
pub fn serve_unique(seed: u64, sizes: ServeSizes) -> Result<ServeTrace, String> {
    let stream = ServeStream { seed, stream: 0 };
    serve(
        Warmup::Fill(ServeStream { seed, stream: 1 }),
        &|i| stream.op(i),
        sizes,
    )
}

/// The serve_hot replay: prime the hot set, then time its seeded order.
pub fn serve_hot(seed: u64, sizes: ServeSizes) -> Result<ServeTrace, String> {
    let hot = HotStream::new(seed);
    serve(
        Warmup::Prime(&hot.ops),
        &|i| hot.ops[hot.pick(i)].clone(),
        sizes,
    )
}

/// What a design_search replay measured (means are per op of the kind).
#[derive(Debug, Clone, Default)]
pub struct DesignTrace {
    pub ops: u64,
    pub optimize_ops: u64,
    pub explore_ops: u64,
    /// Untraced library time per optimize op (µs).
    pub optimize_us: f64,
    /// Optimize self time outside engine batches, traced (µs per op).
    pub fold_us: f64,
    pub evals_per_op: f64,
    pub front_per_op: f64,
    pub engine_jobs_per_op: f64,
    /// Batch wall time not covered by the busiest thread's jobs (µs/op).
    pub dispatch_us: f64,
    pub explore_us_per_corner: f64,
    pub batch_ns_per_point: f64,
    pub stage_hit_ratio: f64,
    /// Mean untraced library time per op, both kinds (µs).
    pub library_us: f64,
    /// Per op, CLI wall minus untraced library time (µs), for ops that
    /// also ran end to end.
    pub cli_overhead_us: Vec<f64>,
    pub counts: Counts,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
}

fn run_case(case: &DesignCase, engine: &Engine) -> Result<String, String> {
    clear_session_cache();
    expect::design_stdout(case, engine)
}

/// Time `speedup_batch` over an explore op's grid, partitioned by buffering
/// as `explore` does. Returns nanoseconds.
fn time_batch_kernel(case: &DesignCase) -> Result<u64, String> {
    let DesignOp::Explore {
        fclocks,
        throughput_procs,
        ..
    } = &case.op
    else {
        return Ok(0);
    };
    let input = expect::load_worksheet(&case.toml)?;
    let n = fclocks.len() * throughput_procs.len();
    let f_col: Vec<f64> = (0..n)
        .map(|i| fclocks[i / throughput_procs.len()])
        .collect();
    let t_col: Vec<f64> = (0..n)
        .map(|i| throughput_procs[i % throughput_procs.len()])
        .collect();
    let mut ns = 0;
    for b in [Buffering::Single, Buffering::Double] {
        let base = input.with_buffering(b);
        let mut batch = BatchPoints::new(&base, n);
        batch.push_column(SweepParam::Fclock, f_col.clone());
        batch.push_column(SweepParam::ThroughputProc, t_col.clone());
        let t = Instant::now();
        std::hint::black_box(speedup_batch(&batch).map_err(|e| e.to_string())?);
        ns += t.elapsed().as_nanos() as u64;
    }
    Ok(ns)
}

/// Busy time of each thread's `engine.job` spans inside `[start, end]`.
fn dispatch_ns(spans: &[telemetry::SpanRecord]) -> u64 {
    spans
        .iter()
        .filter(|b| b.name == "engine.batch")
        .map(|batch| {
            let mut busy: BTreeMap<u64, u64> = BTreeMap::new();
            for j in spans.iter().filter(|j| {
                j.name == "engine.job" && j.start_ns >= batch.start_ns && j.end_ns <= batch.end_ns
            }) {
                *busy.entry(j.tid).or_insert(0) += j.duration_ns();
            }
            let busiest = busy.values().copied().max().unwrap_or(0);
            batch.duration_ns().saturating_sub(busiest)
        })
        .sum()
}

/// Replay the first `ops` design_search ops in-process with `rat --jobs 2`'s
/// engine: once traced (spans and counts), once untraced (library time).
/// `cli` holds the e2e stdout and wall time of each op that ran end to end.
pub fn design(seed: u64, ops: u64, cli: &[(Vec<u8>, u64)]) -> Result<DesignTrace, String> {
    let mut t = DesignTrace::default();
    let (
        mut opt_ns,
        mut fold_ns,
        mut dispatch,
        mut explore_ns,
        mut corners,
        mut kernel_ns,
        mut library_ns,
    ) = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for k in 0..ops {
        let case = DesignCase::generate(seed, k);

        telemetry::global().enable();
        telemetry::global().drain();
        let traced = run_case(&case, &expect::engine(2))?;
        telemetry::global().disable();
        let profile = telemetry::global().drain();
        t.counts.absorb(&profile);

        let engine = expect::engine(2);
        let started = Instant::now();
        let report = run_case(&case, &engine)?;
        let ns = started.elapsed().as_nanos() as u64;
        drop(engine);
        library_ns += ns;

        if traced != report {
            t.mismatches += 1;
            t.first_mismatch
                .get_or_insert(format!("op {k}: traced and untraced reports differ"));
        }
        if let Some((stdout, wall_ns)) = cli.get(k as usize) {
            if stdout.as_slice() != report.as_bytes() {
                t.mismatches += 1;
                t.first_mismatch
                    .get_or_insert(format!("op {k}: CLI stdout differs from the library"));
            }
            t.cli_overhead_us.push((*wall_ns as f64 - ns as f64) / 1e3);
        }
        match case.op {
            DesignOp::Optimize { .. } => {
                t.optimize_ops += 1;
                opt_ns += ns;
                let span = |name: &str| -> u64 {
                    profile
                        .spans
                        .iter()
                        .filter(|s| s.name == name)
                        .map(|s| s.duration_ns())
                        .sum()
                };
                fold_ns += span("optimize").saturating_sub(span("engine.batch"));
                dispatch += dispatch_ns(&profile.spans);
            }
            DesignOp::Explore { .. } => {
                t.explore_ops += 1;
                explore_ns += ns;
                corners += case.corners() as u64;
                kernel_ns += time_batch_kernel(&case)?;
            }
        }
    }
    telemetry::global().enable();
    let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    t.ops = ops;
    t.optimize_us = per(opt_ns, t.optimize_ops) / 1e3;
    t.fold_us = per(fold_ns, t.optimize_ops) / 1e3;
    t.dispatch_us = per(dispatch, t.optimize_ops) / 1e3;
    t.evals_per_op = per(t.counts.get(Metric::OptimizeEvals), t.optimize_ops);
    t.front_per_op = per(t.counts.get(Metric::OptimizeFrontSize), t.optimize_ops);
    t.engine_jobs_per_op = per(t.counts.get(Metric::EngineJobs), t.optimize_ops);
    t.explore_us_per_corner = per(explore_ns, corners) / 1e3;
    t.batch_ns_per_point = per(kernel_ns, corners);
    t.library_us = per(library_ns, ops) / 1e3;
    let (hits, misses) = (
        t.counts.get(Metric::StageHits),
        t.counts.get(Metric::StageMisses),
    );
    t.stage_hit_ratio = per(hits, hits + misses);
    Ok(t)
}
