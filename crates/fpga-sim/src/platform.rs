//! The co-processor platform: host + interconnect + FPGA, executing an
//! application run under single- or double-buffered scheduling.
//!
//! This is a discrete-event simulation over two exclusive resources — the
//! interconnect channel and the compute fabric — plus host overheads that
//! serialize the control loop. Single buffering reproduces the paper's
//! Figure-2 `R1 C1 W1 R2 C2 W2 …` schedule; double buffering provides two
//! input buffers so transfers overlap computation, reproducing both the
//! compute-bound and communication-bound overlap scenarios.
//!
//! Buffered schedules settle into a short repeating period, so trace-free
//! runs (the analysis hot path) do not need to simulate every iteration:
//! once the same relative resource state recurs, the simulator advances
//! whole periods arithmetically and only plays out the warm-up and the
//! drain event by event ([`FastForward`]). The skipped region is provably
//! identical to what event simulation would produce, so every scalar result
//! is bit-identical to the exhaustive path.

use crate::cache::SimSummary;
use crate::host::HostModel;
use crate::interconnect::{Direction, Interconnect};
use crate::kernel::{Batch, HardwareKernel};
use crate::queue::EventQueue;
use crate::time::SimTime;
use crate::trace::{FullTrace, NullSink, Resource, Trace, TraceSink};
use rat_core::quantity::Freq;
use rat_core::telemetry::{self, ArgValue, Metric};
use rat_core::RatError;
use std::collections::VecDeque;
use std::fmt;

/// Buffering discipline for the input side of the co-processor loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferMode {
    /// One buffer: communication and computation fully serialize
    /// (paper Eq. 5: `t_RC = N_iter * (t_comm + t_comp)`).
    Single,
    /// Two buffers: the next input transfer overlaps the current computation
    /// (paper Eq. 6: `t_RC ~= N_iter * max(t_comm, t_comp)` at steady state).
    Double,
}

/// A platform definition: its interconnect and host-overhead model.
#[derive(Debug, Clone)]
pub struct PlatformSpec {
    /// Human-readable platform name (e.g. "Nallatech H101-PCIXM / V4 LX100").
    pub name: String,
    /// The CPU–FPGA interconnect.
    pub interconnect: Interconnect,
    /// Host-side overheads.
    pub host: HostModel,
    /// One-time FPGA configuration (bitstream load) cost, charged before the
    /// first transfer. The RAT equations ignore it by design
    /// ("Reconfiguration and other setup times are ignored", §3.1); modeling
    /// it here lets the simulator show *when that assumption breaks* — short
    /// runs on platforms with ~100 ms configuration times.
    pub reconfiguration: SimTime,
}

/// One application execution: how much data moves per iteration and how the
/// loop is buffered.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRun {
    /// Number of communication+computation iterations (`N_iter`).
    pub iterations: u64,
    /// Elements per buffered batch (drives kernel cycle counts).
    pub elements_per_iter: u64,
    /// Bytes written host→FPGA per iteration.
    pub input_bytes_per_iter: u64,
    /// Bytes read FPGA→host per iteration (0 if results accumulate on-chip).
    pub output_bytes_per_iter: u64,
    /// Bytes read once after the last iteration (e.g. the 1-D PDF's final
    /// 256-bin block).
    pub final_output_bytes: u64,
    /// Buffering discipline.
    pub buffer_mode: BufferMode,
    /// If true, per-iteration output streams back *during* computation (DMA
    /// bursts interleaved with compute), hiding its latency. The streamed
    /// occupancy is recorded in the trace but does not block other transfers —
    /// an approximation valid while streamed traffic is far below channel
    /// capacity, as in the MD case study.
    pub streamed_output: bool,
    /// Number of parallel kernel instances batches may be dispatched to:
    /// replicated kernels on one FPGA, or multiple FPGAs sharing the host
    /// interconnect (the paper's §6 future-work scenario). The channel remains
    /// a single serialized resource; under double buffering, input buffering
    /// scales to `parallel_kernels + 1` so every instance can stay fed.
    pub parallel_kernels: u32,
}

impl AppRun {
    /// Start building an [`AppRun`].
    pub fn builder() -> AppRunBuilder {
        AppRunBuilder::default()
    }

    /// Upper bound on simultaneously pending scheduler events: one in-flight
    /// channel transfer, one compute-or-sync completion per kernel instance,
    /// and the one-time reconfiguration event. Lets the event queue allocate
    /// its storage once ([`crate::queue::EventQueue::with_capacity`]).
    pub fn peak_pending_events(&self) -> usize {
        self.parallel_kernels as usize + 2
    }
}

/// Builder for [`AppRun`].
#[derive(Debug, Clone)]
pub struct AppRunBuilder {
    run: AppRun,
}

impl Default for AppRunBuilder {
    fn default() -> Self {
        Self {
            run: AppRun {
                iterations: 1,
                elements_per_iter: 1,
                input_bytes_per_iter: 0,
                output_bytes_per_iter: 0,
                final_output_bytes: 0,
                buffer_mode: BufferMode::Single,
                streamed_output: false,
                parallel_kernels: 1,
            },
        }
    }
}

impl AppRunBuilder {
    /// Set the number of iterations (`N_iter`). Must be at least 1.
    pub fn iterations(mut self, n: u64) -> Self {
        self.run.iterations = n;
        self
    }

    /// Set elements per batch.
    pub fn elements_per_iter(mut self, n: u64) -> Self {
        self.run.elements_per_iter = n;
        self
    }

    /// Set bytes written host→FPGA per iteration.
    pub fn input_bytes_per_iter(mut self, n: u64) -> Self {
        self.run.input_bytes_per_iter = n;
        self
    }

    /// Set bytes read FPGA→host per iteration.
    pub fn output_bytes_per_iter(mut self, n: u64) -> Self {
        self.run.output_bytes_per_iter = n;
        self
    }

    /// Set bytes read once after the final iteration.
    pub fn final_output_bytes(mut self, n: u64) -> Self {
        self.run.final_output_bytes = n;
        self
    }

    /// Set the buffering discipline.
    pub fn buffer_mode(mut self, mode: BufferMode) -> Self {
        self.run.buffer_mode = mode;
        self
    }

    /// Enable streamed (compute-overlapped) output.
    pub fn streamed_output(mut self, on: bool) -> Self {
        self.run.streamed_output = on;
        self
    }

    /// Set the number of parallel kernel instances (default 1).
    pub fn parallel_kernels(mut self, n: u32) -> Self {
        self.run.parallel_kernels = n;
        self
    }

    /// Finish building.
    pub fn build(self) -> AppRun {
        self.run
    }
}

/// Execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// `iterations` was zero.
    NoIterations,
    /// The clock frequency was not a positive finite number.
    BadClock,
    /// `parallel_kernels` was zero.
    NoKernels,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoIterations => write!(f, "application run needs at least one iteration"),
            ExecError::BadClock => write!(f, "clock frequency must be positive and finite"),
            ExecError::NoKernels => write!(f, "application run needs at least one kernel instance"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ExecError> for RatError {
    fn from(e: ExecError) -> Self {
        RatError::simulation(e.to_string())
    }
}

/// What the simulated platform measured.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// End-to-end execution time (makespan), the paper's measured `t_RC`.
    pub total: SimTime,
    /// Blocking channel occupancy: input transfers, non-streamed output
    /// transfers, and the final read, including host API call overhead. This is
    /// what timing the transfer calls measures — the paper's "actual" `t_comm`.
    pub comm_busy: SimTime,
    /// Channel occupancy of streamed (compute-overlapped) outputs.
    pub streamed_comm: SimTime,
    /// FPGA kernel occupancy — the paper's "actual" `t_comp`.
    pub compute_busy: SimTime,
    /// Host kernel-synchronization time not attributed to comm or comp.
    pub host_overhead: SimTime,
    /// Iterations executed.
    pub iterations: u64,
    /// Full execution trace.
    pub trace: Trace,
}

impl Measurement {
    /// Mean blocking communication time per iteration (final read excluded
    /// proportionally — it is amortized into the mean, matching how the paper
    /// folds the 1-D PDF's single final read into per-iteration figures).
    pub fn comm_per_iter(&self) -> SimTime {
        SimTime::from_ps(self.comm_busy.as_ps() / self.iterations)
    }

    /// Mean computation time per iteration.
    pub fn comp_per_iter(&self) -> SimTime {
        SimTime::from_ps(self.compute_busy.as_ps() / self.iterations)
    }

    /// Fraction of the makespan the channel was (blockingly) busy.
    pub fn channel_utilization(&self) -> f64 {
        self.comm_busy.as_secs_f64() / self.total.as_secs_f64()
    }

    /// Fraction of the makespan the compute fabric was busy.
    pub fn compute_utilization(&self) -> f64 {
        self.compute_busy.as_secs_f64() / self.total.as_secs_f64()
    }

    /// Render a one-screen summary of the measurement.
    pub fn render(&self) -> String {
        format!(
            "measured over {} iterations:\n\
             \x20 total (t_RC)     {}\n\
             \x20 comm busy        {}  ({:.1}% of makespan; {} per iteration)\n\
             \x20 compute busy     {}  ({:.1}% of makespan; {} per iteration)\n\
             \x20 streamed output  {}\n\
             \x20 host overhead    {}\n",
            self.iterations,
            self.total,
            self.comm_busy,
            self.channel_utilization() * 100.0,
            self.comm_per_iter(),
            self.compute_busy,
            self.compute_utilization() * 100.0,
            self.comp_per_iter(),
            self.streamed_comm,
            self.host_overhead,
        )
    }
}

/// Whether the simulator may arithmetically skip steady-state periods.
///
/// Fast-forward only ever engages where it is invisible: on sinks that do not
/// record spans ([`TraceSink::RECORDS`] is false) under kernels that declare
/// an index-uniform tail ([`HardwareKernel::uniform_from`]). Skipped periods
/// are extrapolated exactly, so the resulting
/// [`SimSummary`] is bit-identical to an exhaustive
/// run — `Off` exists for differential testing and for timing the exhaustive
/// path, not because the answers differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FastForward {
    /// Skip steady-state periods when provably safe (the default).
    #[default]
    Auto,
    /// Simulate every event.
    Off,
}

/// A simulated co-processor platform.
#[derive(Debug, Clone)]
pub struct Platform {
    spec: PlatformSpec,
    fast_forward: FastForward,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the Done suffix is the point: completions drive the DES
enum Ev {
    ReconfigDone,
    InputDone { iter: u64, dur: SimTime },
    ComputeDone { iter: u64, start: SimTime },
    SyncDone { iter: u64, start: SimTime },
    OutputDone { dur: SimTime },
    FinalReadDone { dur: SimTime },
}

impl Platform {
    /// Create a platform from its spec. Fast-forward defaults to
    /// [`FastForward::Auto`].
    pub fn new(spec: PlatformSpec) -> Self {
        Self {
            spec,
            fast_forward: FastForward::Auto,
        }
    }

    /// Set the fast-forward policy (builder style).
    pub fn with_fast_forward(mut self, mode: FastForward) -> Self {
        self.fast_forward = mode;
        self
    }

    /// The platform definition.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// The current fast-forward policy.
    pub fn fast_forward(&self) -> FastForward {
        self.fast_forward
    }

    /// Execute `run` with `kernel` clocked at `fclock`, returning the
    /// measurement. Deterministic: same inputs, same schedule. The trace is
    /// fully materialized, so this path always simulates every event.
    pub fn execute<K: HardwareKernel + ?Sized>(
        &self,
        kernel: &K,
        run: &AppRun,
        fclock: Freq,
    ) -> Result<Measurement, ExecError> {
        let (summary, sink) = self.execute_with(kernel, run, fclock, FullTrace::new())?;
        let trace = sink.into_trace();
        debug_assert_eq!(
            summary.total,
            trace.end(),
            "makespan tracking diverged from the trace"
        );
        Ok(Measurement {
            total: summary.total,
            comm_busy: summary.comm_busy,
            streamed_comm: summary.streamed_comm,
            compute_busy: summary.compute_busy,
            host_overhead: summary.host_overhead,
            iterations: summary.iterations,
            trace,
        })
    }

    /// Execute `run`, feeding every scheduled span to `sink` and returning
    /// the scalar [`SimSummary`] together with the
    /// sink. This is the engine under both [`Platform::execute`] (a
    /// [`FullTrace`] sink) and [`Platform::execute_summary`] (a
    /// [`NullSink`]). Steady-state fast-forward engages only when the policy
    /// is [`FastForward::Auto`], the sink does not record, and the kernel
    /// declares an index-uniform tail; results are bit-identical either way.
    pub fn execute_with<K: HardwareKernel + ?Sized, S: TraceSink>(
        &self,
        kernel: &K,
        run: &AppRun,
        fclock: Freq,
        sink: S,
    ) -> Result<(SimSummary, S), ExecError> {
        self.execute_inner(kernel, run, fclock, sink)
            .map(|(summary, sink, _)| (summary, sink))
    }

    /// [`Platform::execute_with`] plus the number of events actually popped —
    /// the observable that pins fast-forward engagement in tests.
    fn execute_inner<K: HardwareKernel + ?Sized, S: TraceSink>(
        &self,
        kernel: &K,
        run: &AppRun,
        fclock: Freq,
        sink: S,
    ) -> Result<(SimSummary, S, u64), ExecError> {
        if run.iterations == 0 {
            return Err(ExecError::NoIterations);
        }
        if !(fclock.hz().is_finite() && fclock.hz() > 0.0) {
            return Err(ExecError::BadClock);
        }
        if run.parallel_kernels == 0 {
            return Err(ExecError::NoKernels);
        }
        // The span switch is read once per run, then monomorphized away:
        // with `TEL = false` every span guard below constant-folds to `None`,
        // so the disabled path carries no drop glue or landing pads in the
        // hot loop — measurably free, not just branch-predicted free. Both
        // paths count events and the queue's high-water mark.
        if telemetry::enabled() {
            self.execute_phases::<K, S, true>(kernel, run, fclock, sink)
        } else {
            self.execute_phases::<K, S, false>(kernel, run, fclock, sink)
        }
    }

    /// The simulation body shared by the span-recording (`TEL = true`) and
    /// bare (`TEL = false`) paths; results and counters are identical
    /// between the two.
    fn execute_phases<K: HardwareKernel + ?Sized, S: TraceSink, const TEL: bool>(
        &self,
        kernel: &K,
        run: &AppRun,
        fclock: Freq,
        sink: S,
    ) -> Result<(SimSummary, S, u64), ExecError> {
        let run_span = if TEL {
            Some(telemetry::span_args(
                "sim.run",
                vec![("iterations", ArgValue::U64(run.iterations))],
            ))
        } else {
            None
        };
        let setup_span = if TEL {
            Some(telemetry::span("sim.setup"))
        } else {
            None
        };
        let ff_from = match self.fast_forward {
            FastForward::Auto if !S::RECORDS => kernel.uniform_from(),
            _ => None,
        };
        let mut sim = Sim::new(&self.spec, kernel, run, fclock, sink, ff_from);
        sim.start();
        drop(setup_span);
        let loop_span = if TEL {
            Some(telemetry::span("sim.event_loop"))
        } else {
            None
        };
        let mut events = 0u64;
        let mut queue_high_water = 0usize;
        while let Some((_, ev)) = sim.q.pop() {
            events += 1;
            queue_high_water = queue_high_water.max(sim.q.len());
            // Sync completions are the periodicity anchor: every schedule has
            // exactly one per iteration, so probing there sees each candidate
            // period exactly once.
            let at_anchor = sim.ff_active() && matches!(ev, Ev::SyncDone { .. });
            sim.handle(ev);
            if at_anchor {
                // Probe count is bounded (MAX_FF_CHECKPOINTS, then ff_done),
                // so a span per probe stays cheap even on long runs.
                let ff_span = if TEL {
                    Some(telemetry::span("sim.fast_forward"))
                } else {
                    None
                };
                sim.try_fast_forward();
                drop(ff_span);
            }
        }
        drop(loop_span);
        let teardown_span = if TEL {
            Some(telemetry::span("sim.teardown"))
        } else {
            None
        };
        let (summary, sink) = sim.finish();
        drop(teardown_span);
        telemetry::add(Metric::SimRuns, 1);
        telemetry::add(Metric::SimEvents, events);
        telemetry::gauge_max(Metric::QueueHighWater, queue_high_water as u64);
        drop(run_span);
        Ok((summary, sink, events))
    }

    /// Execute `run`, memoized through `cache` when one is given: a content
    /// hash of `(platform spec, kernel spec, run, fclock)` keys the lookup,
    /// so a repeated point costs a hash instead of a simulation. A cache hit
    /// skips input validation too — the hit proves an identical run already
    /// validated and executed. Returns the scalar
    /// [`SimSummary`] — the full
    /// trace is only produced by [`Platform::execute`]).
    pub fn execute_summary<K: HardwareKernel + ?Sized>(
        &self,
        kernel: &K,
        run: &AppRun,
        fclock: Freq,
        cache: Option<&crate::cache::SimCache>,
    ) -> Result<crate::cache::SimSummary, ExecError> {
        let key = cache.map(|c| (c, crate::digest::run_key(&self.spec, kernel, run, fclock)));
        if let Some((c, k)) = key {
            if let Some(hit) = c.lookup(k) {
                return Ok(hit);
            }
        }
        let summary = self.execute_with(kernel, run, fclock, NullSink)?.0;
        if let Some((c, k)) = key {
            c.insert(k, summary);
        }
        Ok(summary)
    }
}

/// Cap on steady-state probes per run: schedules whose period exceeds this
/// many sync anchors are simulated exhaustively rather than probed forever.
const MAX_FF_CHECKPOINTS: usize = 64;

/// One steady-state probe: the relative resource-state signature plus the
/// absolute clock and counter values needed to extrapolate whole periods if
/// a later probe matches.
struct Checkpoint {
    sig: Vec<u64>,
    now: SimTime,
    next_input: u64,
    inputs_done: u64,
    next_compute: u64,
    computes_done: u64,
    outputs_done: u64,
    comm_busy: SimTime,
    streamed_comm: SimTime,
    compute_busy: SimTime,
    host_overhead: SimTime,
}

/// Scheduler state for one execution.
struct Sim<'a, K: ?Sized, S> {
    spec: &'a PlatformSpec,
    kernel: &'a K,
    run: &'a AppRun,
    fclock: Freq,
    q: EventQueue<Ev>,
    sink: S,
    /// Latest span end seen so far; equals `Trace::end()` of a full trace.
    end_max: SimTime,
    // Resource state.
    channel_free: bool,
    compute_units_free: u32,
    input_buffers_free: u32,
    // Progress counters.
    next_input: u64,
    inputs_done: u64,
    next_compute: u64,
    computes_done: u64,
    pending_outputs: VecDeque<u64>,
    outputs_done: u64,
    expected_outputs: u64,
    final_read_issued: bool,
    configured: bool,
    // Accounting.
    comm_busy: SimTime,
    streamed_comm: SimTime,
    compute_busy: SimTime,
    host_overhead: SimTime,
    // Steady-state fast-forward. `ff_from` is the batch index from which the
    // kernel is index-uniform (`None` disables detection entirely).
    ff_from: Option<u64>,
    ff_done: bool,
    ff_checkpoints: Vec<Checkpoint>,
}

impl<'a, K: HardwareKernel + ?Sized, S: TraceSink> Sim<'a, K, S> {
    fn new(
        spec: &'a PlatformSpec,
        kernel: &'a K,
        run: &'a AppRun,
        fclock: Freq,
        sink: S,
        ff_from: Option<u64>,
    ) -> Self {
        // Single buffering serializes everything through one buffer, so extra
        // kernel instances sit idle; double buffering scales buffering with
        // the instance count to keep every instance fed.
        let buffers = match run.buffer_mode {
            BufferMode::Single => 1,
            BufferMode::Double => run.parallel_kernels + 1,
        };
        let expected_outputs = if run.output_bytes_per_iter > 0 && !run.streamed_output {
            run.iterations
        } else {
            0
        };
        Self {
            spec,
            kernel,
            run,
            fclock,
            q: EventQueue::with_capacity(run.peak_pending_events()),
            sink,
            end_max: SimTime::ZERO,
            channel_free: true,
            compute_units_free: run.parallel_kernels,
            input_buffers_free: buffers,
            next_input: 0,
            inputs_done: 0,
            next_compute: 0,
            computes_done: 0,
            pending_outputs: VecDeque::new(),
            outputs_done: 0,
            expected_outputs,
            final_read_issued: false,
            configured: spec.reconfiguration == SimTime::ZERO,
            comm_busy: SimTime::ZERO,
            streamed_comm: SimTime::ZERO,
            compute_busy: SimTime::ZERO,
            host_overhead: SimTime::ZERO,
            ff_from,
            ff_done: false,
            ff_checkpoints: Vec::new(),
        }
    }

    /// Record a span: track the makespan and forward to the sink. The label
    /// is a closure so non-recording sinks never pay for `format!`.
    fn record(
        &mut self,
        resource: Resource,
        label: impl FnOnce() -> String,
        start: SimTime,
        end: SimTime,
    ) {
        self.end_max = self.end_max.max(end);
        self.sink.record(resource, label, start, end);
    }

    fn start(&mut self) {
        if !self.configured {
            let cfg = self.spec.reconfiguration;
            self.record(Resource::Host, || "CFG".into(), SimTime::ZERO, cfg);
            self.q.schedule(cfg, Ev::ReconfigDone);
            return;
        }
        self.try_issue();
        // An app with no input data still computes: handle in try_issue.
    }

    /// Duration of one transfer as the host experiences it: API call plus bus time.
    fn xfer(&self, bytes: u64, dir: Direction) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        self.spec.host.api_call_overhead + self.spec.interconnect.transfer_time(bytes, dir)
    }

    fn try_issue(&mut self) {
        loop {
            let mut progressed = false;

            // Channel arbitration: outputs normally drain before new inputs
            // load (keeping the single-buffer schedule R1 C1 W1 R2 … and
            // Figure 2's double-buffered interleaving R1 R2 W1 R3 W2 …), but a
            // *starving* compute engine — idle with no landed batch to run —
            // takes precedence: for output-heavy workloads, strict
            // output-first arbitration would serialize input behind output
            // every iteration and forfeit the Eq.-(6) steady state.
            if self.channel_free {
                let can_input = self.next_input < self.run.iterations
                    && self.input_buffers_free > 0
                    && self.run.input_bytes_per_iter > 0;
                let compute_starving =
                    self.compute_units_free > 0 && self.next_compute == self.inputs_done;
                if can_input && (compute_starving || self.pending_outputs.is_empty()) {
                    let iter = self.next_input;
                    self.next_input += 1;
                    self.input_buffers_free -= 1;
                    let dur = self.xfer(self.run.input_bytes_per_iter, Direction::Write);
                    self.channel_free = false;
                    let now = self.q.now();
                    self.record(Resource::Comm, || format!("R{}", iter + 1), now, now + dur);
                    self.q.schedule_after(dur, Ev::InputDone { iter, dur });
                    progressed = true;
                } else if let Some(iter) = self.pending_outputs.pop_front() {
                    let dur = self.xfer(self.run.output_bytes_per_iter, Direction::Read);
                    self.channel_free = false;
                    let now = self.q.now();
                    self.record(Resource::Comm, || format!("W{}", iter + 1), now, now + dur);
                    self.q.schedule_after(dur, Ev::OutputDone { dur });
                    progressed = true;
                } else if self.ready_for_final_read() {
                    self.final_read_issued = true;
                    let dur = self.xfer(self.run.final_output_bytes, Direction::Read);
                    self.channel_free = false;
                    let now = self.q.now();
                    self.record(Resource::Comm, || "WF".into(), now, now + dur);
                    self.q.schedule_after(dur, Ev::FinalReadDone { dur });
                    progressed = true;
                }
            }

            // Inputless apps: mark iterations' input as implicitly done.
            if self.run.input_bytes_per_iter == 0 && self.next_input < self.run.iterations {
                self.next_input = self.run.iterations;
                self.inputs_done = self.run.iterations;
                progressed = true;
            }

            // Compute: dispatch every landed batch a free kernel instance can
            // take (in order — batches are independent, so ordering is just
            // determinism).
            while self.compute_units_free > 0 && self.next_compute < self.inputs_done {
                let iter = self.next_compute;
                self.next_compute += 1;
                self.compute_units_free -= 1;
                let batch = Batch {
                    index: iter,
                    elements: self.run.elements_per_iter,
                    bytes: self.run.input_bytes_per_iter,
                };
                let cycles = self.kernel.batch_cycles(&batch);
                let dur = SimTime::from_cycles(cycles, self.fclock);
                let now = self.q.now();
                self.record(Resource::Comp, || format!("C{}", iter + 1), now, now + dur);
                self.compute_busy += dur;
                self.q
                    .schedule_after(dur, Ev::ComputeDone { iter, start: now });
                progressed = true;
            }

            if !progressed {
                break;
            }
        }
    }

    fn ready_for_final_read(&self) -> bool {
        self.run.final_output_bytes > 0
            && !self.final_read_issued
            && self.computes_done == self.run.iterations
            && self.outputs_done == self.expected_outputs
            && self.pending_outputs.is_empty()
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::ReconfigDone => {
                self.configured = true;
                self.host_overhead += self.spec.reconfiguration;
            }
            Ev::InputDone { iter: _, dur } => {
                self.channel_free = true;
                self.inputs_done += 1;
                self.comm_busy += dur;
            }
            Ev::ComputeDone { iter, start } => {
                self.computes_done += 1;
                let sync = self.spec.host.kernel_sync_overhead;
                if sync > SimTime::ZERO {
                    let now = self.q.now();
                    self.record(Resource::Host, || format!("S{}", iter + 1), now, now + sync);
                }
                self.q.schedule_after(sync, Ev::SyncDone { iter, start });
            }
            Ev::SyncDone { iter, start } => {
                self.compute_units_free += 1;
                self.host_overhead += self.spec.host.kernel_sync_overhead;
                if self.run.output_bytes_per_iter > 0 {
                    if self.run.streamed_output {
                        // The output streamed back during the computation; record
                        // its (overlapped) channel occupancy retroactively.
                        let dur = self
                            .spec
                            .interconnect
                            .transfer_time(self.run.output_bytes_per_iter, Direction::Read);
                        self.record(
                            Resource::Comm,
                            || format!("W{}~", iter + 1),
                            start,
                            start + dur,
                        );
                        self.streamed_comm += dur;
                    } else {
                        self.pending_outputs.push_back(iter);
                    }
                }
                // Double buffering frees the input buffer once computation has
                // consumed it; single buffering must also drain the output
                // (the lone buffer holds the results until the read completes).
                let frees_now = match self.run.buffer_mode {
                    BufferMode::Double => true,
                    BufferMode::Single => {
                        self.run.output_bytes_per_iter == 0 || self.run.streamed_output
                    }
                };
                if frees_now {
                    self.input_buffers_free += 1;
                }
            }
            Ev::OutputDone { dur } => {
                self.channel_free = true;
                self.outputs_done += 1;
                self.comm_busy += dur;
                if self.run.buffer_mode == BufferMode::Single {
                    self.input_buffers_free += 1;
                }
            }
            Ev::FinalReadDone { dur } => {
                self.channel_free = true;
                self.comm_busy += dur;
            }
        }
        self.try_issue();
    }

    fn finish(self) -> (SimSummary, S) {
        debug_assert_eq!(
            self.computes_done, self.run.iterations,
            "not all batches computed"
        );
        debug_assert_eq!(
            self.outputs_done, self.expected_outputs,
            "not all outputs drained"
        );
        (
            SimSummary {
                total: self.end_max,
                comm_busy: self.comm_busy,
                streamed_comm: self.streamed_comm,
                compute_busy: self.compute_busy,
                host_overhead: self.host_overhead,
                iterations: self.run.iterations,
            },
            self.sink,
        )
    }

    /// Whether fast-forward detection is still live for this run.
    fn ff_active(&self) -> bool {
        self.ff_from.is_some() && !self.ff_done
    }

    /// The run's relative resource-state signature: everything the
    /// scheduler's future decisions depend on, expressed modulo batch index
    /// (offsets to `computes_done`) and absolute time (offsets to `now`).
    /// Counters pinned at their terminal value encode as a sentinel — their
    /// offset to the moving base would otherwise never repeat (inputless runs
    /// pin `next_input`/`inputs_done` at `iterations` from the start).
    /// Equality is exact, never hashed, so a match can never be a collision.
    fn signature(&self) -> Vec<u64> {
        const PINNED: u64 = u64::MAX;
        let base = self.computes_done;
        let rel = |x: u64, limit: u64| {
            if x >= limit {
                PINNED
            } else {
                x.wrapping_sub(base)
            }
        };
        let mut sig = Vec::with_capacity(10 + self.pending_outputs.len() + 4 * self.q.len());
        sig.push(u64::from(self.channel_free));
        sig.push(u64::from(self.configured));
        sig.push(u64::from(self.final_read_issued));
        sig.push(u64::from(self.compute_units_free));
        sig.push(u64::from(self.input_buffers_free));
        sig.push(rel(self.next_input, self.run.iterations));
        sig.push(rel(self.inputs_done, self.run.iterations));
        sig.push(rel(self.next_compute, self.run.iterations));
        sig.push(rel(self.outputs_done, self.expected_outputs));
        sig.push(self.pending_outputs.len() as u64);
        for &o in &self.pending_outputs {
            sig.push(o.wrapping_sub(base));
        }
        let now = self.q.now();
        for (t, ev) in self.q.pending_in_order() {
            sig.push((t - now).as_ps());
            match *ev {
                Ev::ReconfigDone => sig.push(0),
                Ev::InputDone { iter, dur } => {
                    sig.push(1);
                    sig.push(iter.wrapping_sub(base));
                    sig.push(dur.as_ps());
                }
                Ev::ComputeDone { iter, start } => {
                    sig.push(2);
                    sig.push(iter.wrapping_sub(base));
                    sig.push((now - start).as_ps());
                }
                Ev::SyncDone { iter, start } => {
                    sig.push(3);
                    sig.push(iter.wrapping_sub(base));
                    sig.push((now - start).as_ps());
                }
                Ev::OutputDone { dur } => {
                    sig.push(4);
                    sig.push(dur.as_ps());
                }
                Ev::FinalReadDone { dur } => {
                    sig.push(5);
                    sig.push(dur.as_ps());
                }
            }
        }
        sig
    }

    /// Steady-state detection and jump, probed after each handled `SyncDone`.
    ///
    /// Two probes with equal signatures prove the schedule is periodic: every
    /// scheduler decision depends only on the signature-visible relative
    /// state plus run constants (the kernel being index-uniform past
    /// `ff_from`), so from a repeated state the future replays translated in
    /// time and batch index. We advance `k` whole periods arithmetically —
    /// clock and pending events shifted by `k·period`, each counter by `k`
    /// times its per-period delta — capped strictly below every counter's
    /// terminal value so no equality guard (`next_input < iterations`,
    /// final-read readiness) flips inside the skipped region, then resume
    /// event simulation for the drain.
    fn try_fast_forward(&mut self) {
        let Some(from) = self.ff_from else { return };
        if self.ff_done {
            return;
        }
        // Wait until dispatch has reached the kernel's uniform tail; stop
        // probing once the run is in its drain phase.
        if self.next_compute < from || self.computes_done >= self.run.iterations {
            return;
        }
        let sig = self.signature();
        let now = self.q.now();
        let Some(hit) = self.ff_checkpoints.iter().position(|c| c.sig == sig) else {
            if self.ff_checkpoints.len() >= MAX_FF_CHECKPOINTS {
                // No period inside the probe window: stop paying for probes.
                self.ff_done = true;
                self.ff_checkpoints.clear();
            } else {
                self.ff_checkpoints.push(Checkpoint {
                    sig,
                    now,
                    next_input: self.next_input,
                    inputs_done: self.inputs_done,
                    next_compute: self.next_compute,
                    computes_done: self.computes_done,
                    outputs_done: self.outputs_done,
                    comm_busy: self.comm_busy,
                    streamed_comm: self.streamed_comm,
                    compute_busy: self.compute_busy,
                    host_overhead: self.host_overhead,
                });
            }
            return;
        };
        let prev = self.ff_checkpoints.swap_remove(hit);

        let dt = now - prev.now;
        // Per-period progress. Pinned counters have delta 0; every advancing
        // counter moves by the same base delta (their signature offsets to
        // `computes_done` matched across the period).
        let d_ni = self.next_input - prev.next_input;
        let d_id = self.inputs_done - prev.inputs_done;
        let d_nc = self.next_compute - prev.next_compute;
        let d_cd = self.computes_done - prev.computes_done;
        let d_od = self.outputs_done - prev.outputs_done;
        // Whole periods to skip, strictly below every terminal value.
        let caps = [
            (self.next_input, d_ni, self.run.iterations),
            (self.inputs_done, d_id, self.run.iterations),
            (self.next_compute, d_nc, self.run.iterations),
            (self.computes_done, d_cd, self.run.iterations),
            (self.outputs_done, d_od, self.expected_outputs),
        ];
        let k = caps
            .iter()
            .filter(|&&(_, d, _)| d > 0)
            .map(|&(x, d, limit)| (limit - 1 - x) / d)
            .min()
            .unwrap_or(0);
        // One jump per run: after it only the drain remains.
        self.ff_done = true;
        self.ff_checkpoints.clear();
        if dt == SimTime::ZERO || k == 0 {
            return;
        }
        let scaled = |t: SimTime| -> Option<SimTime> {
            u64::try_from(u128::from(t.as_ps()) * u128::from(k))
                .ok()
                .map(SimTime::from_ps)
        };
        let (Some(offset), Some(j_comm), Some(j_streamed), Some(j_compute), Some(j_host)) = (
            scaled(dt),
            scaled(self.comm_busy - prev.comm_busy),
            scaled(self.streamed_comm - prev.streamed_comm),
            scaled(self.compute_busy - prev.compute_busy),
            scaled(self.host_overhead - prev.host_overhead),
        ) else {
            return; // would overflow the clock: simulate instead
        };
        let iter_shift = k * d_cd;
        telemetry::add(Metric::FfJumps, 1);
        telemetry::add(Metric::FfPeriodsSkipped, k);
        self.q.jump(offset, |ev| match ev {
            Ev::InputDone { iter, dur } => Ev::InputDone {
                iter: iter + iter_shift,
                dur,
            },
            Ev::ComputeDone { iter, start } => Ev::ComputeDone {
                iter: iter + iter_shift,
                start: start + offset,
            },
            Ev::SyncDone { iter, start } => Ev::SyncDone {
                iter: iter + iter_shift,
                start: start + offset,
            },
            other => other,
        });
        self.next_input += k * d_ni;
        self.inputs_done += k * d_id;
        self.next_compute += k * d_nc;
        self.computes_done += k * d_cd;
        self.outputs_done += k * d_od;
        for o in &mut self.pending_outputs {
            *o += iter_shift;
        }
        self.comm_busy += j_comm;
        self.streamed_comm += j_streamed;
        self.compute_busy += j_compute;
        self.host_overhead += j_host;
        // `end_max` is deliberately not shifted: every span end in the
        // skipped region is dominated by its final-period counterpart, which
        // the post-jump simulation records at the same absolute time the
        // exhaustive run would.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect::AlphaCurve;
    use crate::kernel::TabulatedKernel;
    use rat_core::quantity::Throughput;

    /// A 1 GHz kernel clock: cycle counts read directly as nanoseconds.
    const GHZ: Freq = Freq::from_hz(1.0e9);

    /// A bus moving 1 byte per nanosecond with no setup cost: transfer time in
    /// ns equals the byte count, making schedules easy to reason about.
    fn unit_bus() -> PlatformSpec {
        PlatformSpec {
            name: "unit".into(),
            interconnect: Interconnect {
                name: "unit-bus".into(),
                ideal_bw: Throughput::from_bytes_per_sec(1.0e9),
                setup_write: SimTime::ZERO,
                setup_read: SimTime::ZERO,
                alpha_write: AlphaCurve::flat(1.0),
                alpha_read: AlphaCurve::flat(1.0),
                max_dma_bytes: None,
            },
            host: HostModel::IDEAL,
            reconfiguration: SimTime::ZERO,
        }
    }

    /// Kernel taking `cycles` per batch at 1 GHz: duration in ns equals cycles.
    fn run_case(
        mode: BufferMode,
        in_bytes: u64,
        out_bytes: u64,
        comp_cycles: u64,
        iters: u64,
    ) -> Measurement {
        let platform = Platform::new(unit_bus());
        let kernel = TabulatedKernel::uniform("k", comp_cycles, iters as usize);
        let run = AppRun::builder()
            .iterations(iters)
            .elements_per_iter(1)
            .input_bytes_per_iter(in_bytes)
            .output_bytes_per_iter(out_bytes)
            .buffer_mode(mode)
            .build();
        platform.execute(&kernel, &run, GHZ).unwrap()
    }

    #[test]
    fn single_buffer_is_fully_serial() {
        // Per iteration: 100 ns in + 300 ns compute + 50 ns out = 450 ns.
        let m = run_case(BufferMode::Single, 100, 50, 300, 4);
        assert_eq!(m.total, SimTime::from_ns(4 * 450));
        assert_eq!(m.comm_busy, SimTime::from_ns(4 * 150));
        assert_eq!(m.compute_busy, SimTime::from_ns(4 * 300));
        assert!(!m.trace.has_overlap());
    }

    #[test]
    fn double_buffer_compute_bound_hides_comm() {
        // Compute (300) > comm (100 + 50): steady state is compute-limited.
        let m = run_case(BufferMode::Double, 100, 50, 300, 10);
        // First input (100) + 10 computes back-to-back (3000) + final drain (50).
        assert_eq!(m.total, SimTime::from_ns(100 + 10 * 300 + 50));
        assert!(m.trace.has_overlap());
    }

    #[test]
    fn double_buffer_comm_bound_saturates_channel() {
        // Comm (200 + 150 = 350) > compute (100): channel is the bottleneck.
        let m = run_case(BufferMode::Double, 200, 150, 100, 10);
        // Channel busy continuously after the first input; makespan ≈
        // N*(in+out) + first fill + last compute tail.
        let lower = SimTime::from_ns(10 * 350);
        assert!(
            m.total >= lower,
            "makespan {} below channel bound {lower}",
            m.total
        );
        // Within one iteration's slack of the bound.
        assert!(m.total <= lower + SimTime::from_ns(350 + 100));
        assert!(m.trace.has_overlap());
    }

    #[test]
    fn double_buffer_never_slower_than_single() {
        for (inb, outb, comp) in [(100, 50, 300), (200, 150, 100), (64, 64, 64), (10, 0, 500)] {
            let sb = run_case(BufferMode::Single, inb, outb, comp, 8);
            let db = run_case(BufferMode::Double, inb, outb, comp, 8);
            assert!(
                db.total <= sb.total,
                "DB ({}) slower than SB ({}) for in={inb} out={outb} comp={comp}",
                db.total,
                sb.total
            );
        }
    }

    #[test]
    fn makespan_at_least_each_resource_bound() {
        let m = run_case(BufferMode::Double, 128, 128, 200, 16);
        assert!(m.total >= m.comm_busy.max(m.compute_busy));
    }

    #[test]
    fn no_output_means_no_write_spans() {
        let m = run_case(BufferMode::Single, 100, 0, 100, 3);
        assert!(m.trace.spans().iter().all(|s| !s.label.starts_with('W')));
        assert_eq!(m.comm_busy, SimTime::from_ns(300));
    }

    #[test]
    fn final_read_happens_after_everything() {
        let platform = Platform::new(unit_bus());
        let kernel = TabulatedKernel::uniform("k", 100, 3);
        let run = AppRun::builder()
            .iterations(3)
            .input_bytes_per_iter(50)
            .final_output_bytes(400)
            .build();
        let m = platform.execute(&kernel, &run, GHZ).unwrap();
        // 3*(50+100) serial + 400 final read.
        assert_eq!(m.total, SimTime::from_ns(3 * 150 + 400));
        let final_span = m.trace.spans().iter().find(|s| s.label == "WF").unwrap();
        assert_eq!(final_span.end, m.total);
    }

    #[test]
    fn streamed_output_hides_behind_compute() {
        let platform = Platform::new(unit_bus());
        let kernel = TabulatedKernel::uniform("k", 1000, 1);
        let run = AppRun::builder()
            .iterations(1)
            .input_bytes_per_iter(200)
            .output_bytes_per_iter(500)
            .streamed_output(true)
            .build();
        let m = platform.execute(&kernel, &run, GHZ).unwrap();
        // Output (500 ns) streams during compute (1000 ns): total = 200 + 1000.
        assert_eq!(m.total, SimTime::from_ns(1200));
        assert_eq!(m.comm_busy, SimTime::from_ns(200));
        assert_eq!(m.streamed_comm, SimTime::from_ns(500));
    }

    #[test]
    fn host_overheads_serialize_the_loop() {
        let mut spec = unit_bus();
        spec.host = HostModel {
            api_call_overhead: SimTime::from_ns(10),
            kernel_sync_overhead: SimTime::from_ns(20),
        };
        let platform = Platform::new(spec);
        let kernel = TabulatedKernel::uniform("k", 100, 2);
        let run = AppRun::builder()
            .iterations(2)
            .input_bytes_per_iter(50)
            .output_bytes_per_iter(30)
            .build();
        let m = platform.execute(&kernel, &run, GHZ).unwrap();
        // Per iter: (10+50) in + 100 comp + 20 sync + (10+30) out = 220.
        assert_eq!(m.total, SimTime::from_ns(440));
        assert_eq!(m.host_overhead, SimTime::from_ns(40));
        // API overhead is folded into measured comm, as a host-side timer would.
        assert_eq!(m.comm_busy, SimTime::from_ns(2 * (60 + 40)));
    }

    #[test]
    fn zero_iterations_rejected() {
        let platform = Platform::new(unit_bus());
        let kernel = TabulatedKernel::uniform("k", 1, 1);
        let run = AppRun::builder().iterations(0).build();
        assert_eq!(
            platform.execute(&kernel, &run, GHZ).unwrap_err(),
            ExecError::NoIterations
        );
    }

    #[test]
    fn bad_clock_rejected() {
        let platform = Platform::new(unit_bus());
        let kernel = TabulatedKernel::uniform("k", 1, 1);
        let run = AppRun::builder()
            .iterations(1)
            .input_bytes_per_iter(1)
            .build();
        assert_eq!(
            platform
                .execute(&kernel, &run, Freq::from_hz(0.0))
                .unwrap_err(),
            ExecError::BadClock
        );
        assert_eq!(
            platform
                .execute(&kernel, &run, Freq::from_hz(f64::NAN))
                .unwrap_err(),
            ExecError::BadClock
        );
    }

    #[test]
    fn inputless_app_still_computes() {
        let m = run_case(BufferMode::Single, 0, 0, 500, 4);
        assert_eq!(m.total, SimTime::from_ns(2000));
        assert_eq!(m.comm_busy, SimTime::ZERO);
    }

    #[test]
    fn per_iteration_means() {
        let m = run_case(BufferMode::Single, 100, 0, 300, 4);
        assert_eq!(m.comm_per_iter(), SimTime::from_ns(100));
        assert_eq!(m.comp_per_iter(), SimTime::from_ns(300));
    }

    #[test]
    fn utilizations_sum_to_one_when_serial_and_overhead_free() {
        let m = run_case(BufferMode::Single, 100, 50, 300, 5);
        let sum = m.channel_utilization() + m.compute_utilization();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "serial schedule should split the makespan, got {sum}"
        );
    }

    #[test]
    fn measurement_eq_error_types() {
        assert_eq!(
            ExecError::NoIterations.to_string(),
            "application run needs at least one iteration"
        );
        assert!(ExecError::BadClock.to_string().contains("positive"));
    }

    #[test]
    fn trace_labels_match_figure2_notation() {
        let m = run_case(BufferMode::Single, 10, 10, 10, 2);
        let labels: Vec<_> = m.trace.spans().iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["R1", "C1", "W1", "R2", "C2", "W2"]);
    }

    #[test]
    fn partial_eq_ne_exec_error() {
        assert_ne!(ExecError::NoIterations, ExecError::BadClock);
    }

    fn run_parallel(kernels: u32, in_bytes: u64, comp_cycles: u64, iters: u64) -> Measurement {
        let platform = Platform::new(unit_bus());
        let kernel = TabulatedKernel::uniform("k", comp_cycles, iters as usize);
        let run = AppRun::builder()
            .iterations(iters)
            .elements_per_iter(1)
            .input_bytes_per_iter(in_bytes)
            .buffer_mode(BufferMode::Double)
            .parallel_kernels(kernels)
            .build();
        platform.execute(&kernel, &run, GHZ).unwrap()
    }

    #[test]
    fn parallel_kernels_overlap_compute() {
        // Compute-bound single instance: 100 ns in, 1000 ns compute, 8 iters.
        let one = run_parallel(1, 100, 1000, 8);
        let two = run_parallel(2, 100, 1000, 8);
        let four = run_parallel(4, 100, 1000, 8);
        // One instance: makespan ~ 100 + 8*1000.
        assert_eq!(one.total, SimTime::from_ns(100 + 8 * 1000));
        // Two instances: compute halves (channel feeds both easily).
        assert!(two.total < one.total);
        assert!(four.total < two.total);
        // Aggregate kernel occupancy is schedule-independent.
        assert_eq!(one.compute_busy, four.compute_busy);
    }

    #[test]
    fn parallel_kernels_hit_the_channel_wall() {
        // Channel time per iteration (500 ns in) exceeds compute/4 (250 ns):
        // beyond 4 instances the channel is the bottleneck and more kernels
        // cannot help — the paper's "the channel is only a single resource".
        let m4 = run_parallel(4, 500, 1000, 16);
        let m8 = run_parallel(8, 500, 1000, 16);
        let channel_bound = SimTime::from_ns(16 * 500);
        assert!(m4.total >= channel_bound);
        // No meaningful gain past the wall (within one iteration's slack).
        assert!(m8.total + SimTime::from_ns(1) >= channel_bound);
        assert!(m4.total.saturating_sub(m8.total) <= SimTime::from_ns(1500));
    }

    #[test]
    fn single_buffering_wastes_extra_kernels() {
        let platform = Platform::new(unit_bus());
        let kernel = TabulatedKernel::uniform("k", 1000, 4);
        let mk = |kernels: u32| {
            let run = AppRun::builder()
                .iterations(4)
                .elements_per_iter(1)
                .input_bytes_per_iter(100)
                .buffer_mode(BufferMode::Single)
                .parallel_kernels(kernels)
                .build();
            platform.execute(&kernel, &run, GHZ).unwrap().total
        };
        assert_eq!(
            mk(1),
            mk(8),
            "one buffer serializes regardless of kernel count"
        );
    }

    #[test]
    fn zero_kernels_rejected() {
        let platform = Platform::new(unit_bus());
        let kernel = TabulatedKernel::uniform("k", 1, 1);
        let run = AppRun::builder().iterations(1).parallel_kernels(0).build();
        assert_eq!(
            platform.execute(&kernel, &run, GHZ).unwrap_err(),
            ExecError::NoKernels
        );
    }

    #[test]
    fn parallel_compute_spans_overlap_in_trace() {
        let m = run_parallel(2, 10, 1000, 4);
        let comps: Vec<_> = m.trace.spans_on(Resource::Comp).collect();
        assert_eq!(comps.len(), 4);
        // C1 and C2 overlap in time.
        assert!(comps[0].start < comps[1].end && comps[1].start < comps[0].end);
    }

    #[test]
    fn measurement_render_summarizes() {
        let m = run_case(BufferMode::Single, 100, 50, 300, 4);
        let s = m.render();
        assert!(s.contains("4 iterations"));
        assert!(s.contains("total (t_RC)"));
        assert!(s.contains("comm busy"));
        assert!(s.contains("compute busy"));
    }

    #[test]
    fn reconfiguration_delays_everything_once() {
        let mut spec = unit_bus();
        spec.reconfiguration = SimTime::from_us(100);
        let platform = Platform::new(spec);
        let kernel = TabulatedKernel::uniform("k", 100, 3);
        let run = AppRun::builder()
            .iterations(3)
            .elements_per_iter(1)
            .input_bytes_per_iter(50)
            .build();
        let m = platform.execute(&kernel, &run, GHZ).unwrap();
        // 100 us configuration + 3 * (50 + 100) ns of work.
        assert_eq!(m.total, SimTime::from_us(100) + SimTime::from_ns(450));
        assert_eq!(m.host_overhead, SimTime::from_us(100));
        // The configuration span appears in the trace before any transfer.
        let cfg = m.trace.spans().iter().find(|s| s.label == "CFG").unwrap();
        assert_eq!(cfg.start, SimTime::ZERO);
        let first_xfer = m.trace.spans_on(Resource::Comm).next().unwrap();
        assert!(first_xfer.start >= cfg.end);
    }

    #[test]
    fn reconfiguration_breaks_rat_assumption_only_for_short_runs() {
        // A long run amortizes the bitstream load; a short one is dominated
        // by it — quantifying when the paper's "reconfiguration ... ignored"
        // assumption is safe.
        let mut spec = unit_bus();
        spec.reconfiguration = SimTime::from_us(100);
        let platform = Platform::new(spec.clone());
        let kernel_short = TabulatedKernel::uniform("k", 1000, 1);
        let run_short = AppRun::builder()
            .iterations(1)
            .input_bytes_per_iter(100)
            .build();
        let short = platform.execute(&kernel_short, &run_short, GHZ).unwrap();
        let cfg_share_short = spec.reconfiguration.as_secs_f64() / short.total.as_secs_f64();
        assert!(
            cfg_share_short > 0.9,
            "short run is configuration-dominated"
        );

        let kernel_long = TabulatedKernel::uniform("k", 1000, 10_000);
        let run_long = AppRun::builder()
            .iterations(10_000)
            .input_bytes_per_iter(100)
            .build();
        let long = platform.execute(&kernel_long, &run_long, GHZ).unwrap();
        let cfg_share_long = spec.reconfiguration.as_secs_f64() / long.total.as_secs_f64();
        assert!(cfg_share_long < 0.01, "long run amortizes configuration");
    }

    use crate::cache::SimSummary;
    use crate::trace::{FullTrace, NullSink};

    /// Fast-forwarded and exhaustive trace-free summaries of the same run.
    fn ff_vs_exhaustive<K: HardwareKernel>(
        spec: &PlatformSpec,
        kernel: &K,
        run: &AppRun,
    ) -> (SimSummary, SimSummary) {
        let fast = Platform::new(spec.clone())
            .execute_summary(kernel, run, GHZ, None)
            .unwrap();
        let slow = Platform::new(spec.clone())
            .with_fast_forward(FastForward::Off)
            .execute_summary(kernel, run, GHZ, None)
            .unwrap();
        (fast, slow)
    }

    #[test]
    fn fast_forward_matches_exhaustive_matrix() {
        for mode in [BufferMode::Single, BufferMode::Double] {
            for (inb, outb, comp) in [
                (100, 50, 300),
                (200, 150, 100),
                (64, 64, 64),
                (10, 0, 500),
                (0, 0, 250),
            ] {
                for sync_ns in [0, 20] {
                    let mut spec = unit_bus();
                    spec.host = HostModel {
                        api_call_overhead: SimTime::from_ns(5),
                        kernel_sync_overhead: SimTime::from_ns(sync_ns),
                    };
                    let kernel = TabulatedKernel::uniform("k", comp, 1);
                    let run = AppRun::builder()
                        .iterations(193)
                        .elements_per_iter(1)
                        .input_bytes_per_iter(inb)
                        .output_bytes_per_iter(outb)
                        .buffer_mode(mode)
                        .build();
                    let (fast, slow) = ff_vs_exhaustive(&spec, &kernel, &run);
                    assert_eq!(
                        fast, slow,
                        "mode={mode:?} in={inb} out={outb} comp={comp} sync={sync_ns}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_forward_matches_with_streaming_and_final_read() {
        let spec = unit_bus();
        let kernel = TabulatedKernel::uniform("k", 400, 1);
        let streamed = AppRun::builder()
            .iterations(300)
            .input_bytes_per_iter(100)
            .output_bytes_per_iter(80)
            .streamed_output(true)
            .buffer_mode(BufferMode::Double)
            .build();
        let (fast, slow) = ff_vs_exhaustive(&spec, &kernel, &streamed);
        assert_eq!(fast, slow);

        let with_final = AppRun::builder()
            .iterations(300)
            .input_bytes_per_iter(100)
            .final_output_bytes(4096)
            .buffer_mode(BufferMode::Double)
            .build();
        let (fast, slow) = ff_vs_exhaustive(&spec, &kernel, &with_final);
        assert_eq!(fast, slow);
    }

    #[test]
    fn fast_forward_matches_with_parallel_kernels() {
        for kernels in [1, 2, 3, 4] {
            let spec = unit_bus();
            let kernel = TabulatedKernel::uniform("k", 1000, 1);
            let run = AppRun::builder()
                .iterations(257)
                .input_bytes_per_iter(100)
                .buffer_mode(BufferMode::Double)
                .parallel_kernels(kernels)
                .build();
            let (fast, slow) = ff_vs_exhaustive(&spec, &kernel, &run);
            assert_eq!(fast, slow, "parallel_kernels={kernels}");
        }
    }

    #[test]
    fn fast_forward_matches_inputless_run() {
        let spec = unit_bus();
        let kernel = TabulatedKernel::uniform("k", 500, 1);
        let run = AppRun::builder().iterations(400).build();
        let (fast, slow) = ff_vs_exhaustive(&spec, &kernel, &run);
        assert_eq!(fast, slow);
        assert_eq!(fast.total, SimTime::from_ns(400 * 500));
    }

    #[test]
    fn fast_forward_matches_with_reconfiguration() {
        let mut spec = unit_bus();
        spec.reconfiguration = SimTime::from_us(100);
        let kernel = TabulatedKernel::uniform("k", 100, 1);
        let run = AppRun::builder()
            .iterations(300)
            .input_bytes_per_iter(50)
            .build();
        let (fast, slow) = ff_vs_exhaustive(&spec, &kernel, &run);
        assert_eq!(fast, slow);
    }

    #[test]
    fn fast_forward_waits_out_a_nonuniform_prefix() {
        // The first 20 batches vary; the tail is constant. Fast-forward may
        // only engage once dispatch reaches the tail — and must still agree.
        let mut cycles: Vec<u64> = (0..20).map(|i| 100 + 13 * i).collect();
        cycles.push(300);
        let kernel = TabulatedKernel::new("k", cycles);
        assert_eq!(kernel.uniform_from(), Some(20));
        let spec = unit_bus();
        let run = AppRun::builder()
            .iterations(300)
            .input_bytes_per_iter(100)
            .output_bytes_per_iter(50)
            .buffer_mode(BufferMode::Double)
            .build();
        let (fast, slow) = ff_vs_exhaustive(&spec, &kernel, &run);
        assert_eq!(fast, slow);
    }

    #[test]
    fn fast_forward_skips_most_events() {
        let kernel = TabulatedKernel::uniform("k", 300, 1);
        let run = AppRun::builder()
            .iterations(10_000)
            .elements_per_iter(1)
            .input_bytes_per_iter(100)
            .output_bytes_per_iter(50)
            .buffer_mode(BufferMode::Double)
            .build();
        let (fast, _, fast_events) = Platform::new(unit_bus())
            .execute_inner(&kernel, &run, GHZ, NullSink)
            .unwrap();
        let (slow, _, slow_events) = Platform::new(unit_bus())
            .with_fast_forward(FastForward::Off)
            .execute_inner(&kernel, &run, GHZ, NullSink)
            .unwrap();
        assert_eq!(fast, slow);
        assert!(slow_events >= 40_000, "slow path popped {slow_events}");
        assert!(
            fast_events < 1_000,
            "fast-forward did not engage: {fast_events} events popped"
        );
    }

    #[test]
    fn recording_sinks_never_fast_forward() {
        // A full trace must show every iteration, so Auto may not skip when
        // the sink records.
        let kernel = TabulatedKernel::uniform("k", 300, 1);
        let run = AppRun::builder()
            .iterations(500)
            .input_bytes_per_iter(100)
            .buffer_mode(BufferMode::Double)
            .build();
        let (_, sink, events) = Platform::new(unit_bus())
            .execute_inner(&kernel, &run, GHZ, FullTrace::new())
            .unwrap();
        assert!(events >= 1_000, "recording run popped only {events} events");
        assert_eq!(sink.into_trace().spans_on(Resource::Comp).count(), 500);
    }

    #[test]
    fn uniform_from_none_disables_fast_forward() {
        struct OpaqueKernel(TabulatedKernel);
        impl HardwareKernel for OpaqueKernel {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn batch_cycles(&self, b: &Batch) -> rat_core::quantity::Cycles {
                self.0.batch_cycles(b)
            }
            fn spec_digest(&self) -> u128 {
                self.0.spec_digest()
            }
            // uniform_from: default None — behaviour is uniform but undeclared.
        }
        let kernel = OpaqueKernel(TabulatedKernel::uniform("k", 300, 1));
        let run = AppRun::builder()
            .iterations(500)
            .input_bytes_per_iter(100)
            .buffer_mode(BufferMode::Double)
            .build();
        let (summary, _, events) = Platform::new(unit_bus())
            .execute_inner(&kernel, &run, GHZ, NullSink)
            .unwrap();
        assert!(events >= 1_000, "undeclared kernel still fast-forwarded");
        let reference = Platform::new(unit_bus())
            .execute_summary(&kernel.0, &run, GHZ, None)
            .unwrap();
        assert_eq!(summary, reference);
    }

    #[test]
    fn null_sink_summary_matches_full_trace_scalars() {
        let platform = Platform::new(unit_bus()).with_fast_forward(FastForward::Off);
        let kernel = TabulatedKernel::uniform("k", 300, 1);
        let run = AppRun::builder()
            .iterations(50)
            .input_bytes_per_iter(100)
            .output_bytes_per_iter(50)
            .buffer_mode(BufferMode::Double)
            .build();
        let (summary, _) = platform.execute_with(&kernel, &run, GHZ, NullSink).unwrap();
        let m = platform.execute(&kernel, &run, GHZ).unwrap();
        assert_eq!(summary, SimSummary::from(&m));
    }

    #[test]
    fn peak_pending_events_bounds_the_queue() {
        let run = AppRun::builder().parallel_kernels(4).build();
        assert_eq!(run.peak_pending_events(), 6);
    }
}
