//! Execution traces and Gantt rendering.
//!
//! Every platform execution records which resource (interconnect channel,
//! compute fabric, host) was busy when, and with what. Rendering the trace as
//! an ASCII Gantt chart reproduces the paper's Figure 2 (single- vs
//! double-buffered overlap scenarios) from *simulated* schedules rather than a
//! hand-drawn idealization.

use crate::time::SimTime;
use std::fmt::Write as _;

/// The resource a trace span occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The CPU–FPGA interconnect channel (a single, serialized resource).
    Comm,
    /// The FPGA compute fabric.
    Comp,
    /// Host-side overhead (API calls, kernel synchronization).
    Host,
}

impl Resource {
    fn row_label(self) -> &'static str {
        match self {
            Resource::Comm => "Comm",
            Resource::Comp => "Comp",
            Resource::Host => "Host",
        }
    }
}

/// One busy interval on a resource.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which resource was busy.
    pub resource: Resource,
    /// Short label, e.g. `R1`, `W1`, `C1` (the paper's Figure-2 notation).
    pub label: String,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

impl Span {
    /// Duration of the span.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// A complete execution trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a busy interval. Zero-length spans are kept (they mark events).
    pub fn record(
        &mut self,
        resource: Resource,
        label: impl Into<String>,
        start: SimTime,
        end: SimTime,
    ) {
        assert!(end >= start, "span must not end before it starts");
        self.spans.push(Span {
            resource,
            label: label.into(),
            start,
            end,
        });
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans on one resource, in recording order.
    pub fn spans_on(&self, resource: Resource) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.resource == resource)
    }

    /// Total busy time on a resource (spans on one resource never overlap,
    /// since each resource is exclusive).
    pub fn busy(&self, resource: Resource) -> SimTime {
        self.spans_on(resource).map(Span::duration).sum()
    }

    /// The end of the latest span (the makespan), or zero for an empty trace.
    pub fn end(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Whether any `Comm` span overlaps any `Comp` span — i.e. whether the
    /// schedule actually achieved communication/computation overlap.
    pub fn has_overlap(&self) -> bool {
        self.spans_on(Resource::Comm).any(|c| {
            self.spans_on(Resource::Comp)
                .any(|p| c.start < p.end && p.start < c.end)
        })
    }

    /// Busy fraction of `resource` in each of `windows` equal slices of the
    /// makespan — a utilization timeline for spotting warm-up, steady-state,
    /// and drain phases. Returns an empty vector for an empty trace.
    pub fn utilization_profile(&self, resource: Resource, windows: usize) -> Vec<f64> {
        let end = self.end();
        if end == SimTime::ZERO || windows == 0 {
            return Vec::new();
        }
        let total_ps = end.as_ps();
        (0..windows)
            .map(|w| {
                let w_start = total_ps * w as u64 / windows as u64;
                let w_end = total_ps * (w as u64 + 1) / windows as u64;
                if w_end == w_start {
                    return 0.0;
                }
                let busy: u64 = self
                    .spans_on(resource)
                    .map(|s| {
                        let a = s.start.as_ps().max(w_start);
                        let b = s.end.as_ps().min(w_end);
                        b.saturating_sub(a)
                    })
                    .sum();
                busy as f64 / (w_end - w_start) as f64
            })
            .collect()
    }

    /// Export the trace as CSV (`resource,label,start_ps,end_ps,duration_ps`)
    /// for external plotting tools.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("resource,label,start_ps,end_ps,duration_ps\n");
        for s in &self.spans {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                s.resource.row_label(),
                s.label,
                s.start.as_ps(),
                s.end.as_ps(),
                s.duration().as_ps()
            ));
        }
        out
    }

    /// Export the trace as Chrome `trace_event` JSON, loadable in
    /// `chrome://tracing` / Perfetto alongside host-side profiles: simulated
    /// spans appear on `pid` [`rat_core::telemetry::chrome::PID_SIM`] with one `tid` lane per
    /// resource (Comm = 1, Comp = 2, Host = 3), timestamps converted from
    /// simulated picoseconds to the format's microseconds. Spans keep
    /// recording order within each lane, so output is deterministic.
    pub fn to_chrome_json(&self) -> String {
        use rat_core::telemetry::chrome::{self, ChromeEvent};
        use rat_core::telemetry::ArgValue;
        let tid = |r: Resource| match r {
            Resource::Comm => 1,
            Resource::Comp => 2,
            Resource::Host => 3,
        };
        let mut events: Vec<(u64, usize, ChromeEvent)> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let lane = tid(s.resource);
                (
                    lane,
                    i,
                    ChromeEvent {
                        name: if s.label.is_empty() {
                            s.resource.row_label().to_string()
                        } else {
                            s.label.clone()
                        },
                        cat: "sim".to_string(),
                        pid: chrome::PID_SIM,
                        tid: lane,
                        ts_us: s.start.as_ps() as f64 / 1e6,
                        dur_us: s.duration().as_ps() as f64 / 1e6,
                        args: vec![(
                            "resource".to_string(),
                            ArgValue::Str(s.resource.row_label().into()),
                        )],
                    },
                )
            })
            .collect();
        events.sort_by_key(|a| (a.0, a.1));
        let events: Vec<ChromeEvent> = events.into_iter().map(|(_, _, e)| e).collect();
        chrome::render_events(&events, &[])
    }

    /// Channel-idle gaps between consecutive `Comm` spans longer than
    /// `threshold` — the "bubbles" a designer hunts when communication
    /// underperforms. Returns `(gap_start, gap_end)` pairs.
    pub fn comm_gaps(&self, threshold: SimTime) -> Vec<(SimTime, SimTime)> {
        let mut spans: Vec<&Span> = self.spans_on(Resource::Comm).collect();
        spans.sort_by_key(|s| s.start);
        spans
            .windows(2)
            .filter_map(|w| {
                let gap_start = w[0].end;
                let gap_end = w[1].start;
                (gap_end > gap_start && gap_end - gap_start > threshold)
                    .then_some((gap_start, gap_end))
            })
            .collect()
    }

    /// Render an ASCII Gantt chart `width` characters wide, in the style of the
    /// paper's Figure 2: one row per resource, labelled segments.
    ///
    /// ```text
    /// Comm |R1··|W1|R2··|W2|
    /// Comp |    |C1····|C2····|
    /// ```
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(20);
        let end = self.end();
        if end == SimTime::ZERO {
            return String::from("(empty trace)\n");
        }
        let scale = |t: SimTime| -> usize {
            ((u128::from(t.as_ps()) * width as u128) / u128::from(end.as_ps())) as usize
        };
        let mut out = String::new();
        for res in [Resource::Comm, Resource::Comp, Resource::Host] {
            let spans: Vec<&Span> = self.spans_on(res).collect();
            if spans.is_empty() {
                continue;
            }
            let mut row = vec![b' '; width + 1];
            for s in &spans {
                let (a, b) = (scale(s.start), scale(s.end).max(scale(s.start) + 1));
                let b = b.min(width);
                for c in row.iter_mut().take(b).skip(a) {
                    *c = b'-';
                }
                // Stamp the label at the segment start.
                for (i, ch) in s.label.bytes().enumerate() {
                    if a + i < b {
                        row[a + i] = ch;
                    }
                }
                if a < row.len() && s.label.is_empty() {
                    row[a] = b'#';
                }
            }
            let line = String::from_utf8(row).expect("ASCII by construction");
            writeln!(out, "{:>4} |{}|", res.row_label(), line.trim_end())
                .expect("writing to a String cannot fail");
        }
        writeln!(out, "     0{:>w$}", end.to_string(), w = width - 1)
            .expect("writing to a String cannot fail");
        out
    }
}

/// Destination for the busy intervals a simulation produces.
///
/// The simulator is generic over its sink so summary runs pay nothing for
/// trace detail they will discard: [`FullTrace`] materializes every span
/// (labels included), and [`NullSink`] drops everything.
///
/// `label` is a closure, not a string: sinks that keep no labels never invoke
/// it, so the hot path skips the `format!` entirely.
pub trait TraceSink {
    /// Whether this sink needs to observe every individual span. Non-recording
    /// sinks (`RECORDS == false`) permit steady-state fast-forward — skipped
    /// periods record nothing — while recording sinks force the exhaustive
    /// event-by-event schedule so their view stays complete.
    const RECORDS: bool;

    /// Record one busy interval on `resource`. Implementations that keep no
    /// labels must not call `label`.
    fn record(
        &mut self,
        resource: Resource,
        label: impl FnOnce() -> String,
        start: SimTime,
        end: SimTime,
    );
}

/// A [`TraceSink`] that materializes the full [`Trace`], labels and all.
#[derive(Debug, Clone, Default)]
pub struct FullTrace {
    trace: Trace,
}

impl FullTrace {
    /// An empty full-trace sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl TraceSink for FullTrace {
    const RECORDS: bool = true;

    fn record(
        &mut self,
        resource: Resource,
        label: impl FnOnce() -> String,
        start: SimTime,
        end: SimTime,
    ) {
        self.trace.record(resource, label(), start, end);
    }
}

/// A [`TraceSink`] that drops every span. The cheapest sink, and the one
/// summary runs use: with no recording requirement, the simulator may also
/// fast-forward through steady-state periods.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const RECORDS: bool = false;

    fn record(
        &mut self,
        _resource: Resource,
        _label: impl FnOnce() -> String,
        _start: SimTime,
        _end: SimTime,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_us(n)
    }

    #[test]
    fn busy_sums_spans() {
        let mut t = Trace::new();
        t.record(Resource::Comm, "R1", us(0), us(5));
        t.record(Resource::Comm, "W1", us(10), us(12));
        t.record(Resource::Comp, "C1", us(5), us(10));
        assert_eq!(t.busy(Resource::Comm), us(7));
        assert_eq!(t.busy(Resource::Comp), us(5));
        assert_eq!(t.busy(Resource::Host), SimTime::ZERO);
        assert_eq!(t.end(), us(12));
    }

    #[test]
    fn overlap_detection() {
        let mut serial = Trace::new();
        serial.record(Resource::Comm, "R1", us(0), us(5));
        serial.record(Resource::Comp, "C1", us(5), us(10));
        assert!(!serial.has_overlap());

        let mut overlapped = Trace::new();
        overlapped.record(Resource::Comm, "R2", us(3), us(8));
        overlapped.record(Resource::Comp, "C1", us(0), us(6));
        assert!(overlapped.has_overlap());
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert_eq!(Trace::new().render_gantt(40), "(empty trace)\n");
    }

    #[test]
    fn gantt_contains_rows_and_labels() {
        let mut t = Trace::new();
        t.record(Resource::Comm, "R1", us(0), us(50));
        t.record(Resource::Comp, "C1", us(50), us(100));
        let g = t.render_gantt(40);
        assert!(g.contains("Comm |"), "missing Comm row:\n{g}");
        assert!(g.contains("Comp |"), "missing Comp row:\n{g}");
        assert!(g.contains("R1"), "missing R1 label:\n{g}");
        assert!(g.contains("C1"), "missing C1 label:\n{g}");
    }

    #[test]
    fn gantt_rows_scale_to_width() {
        let mut t = Trace::new();
        t.record(Resource::Comm, "R1", us(0), us(100));
        let g = t.render_gantt(60);
        let comm_line = g.lines().find(|l| l.contains("Comm")).unwrap();
        // The busy run should span roughly the full width.
        let dashes = comm_line
            .chars()
            .filter(|&c| c == '-' || c == 'R' || c == '1')
            .count();
        assert!(
            dashes >= 55,
            "expected near-full row, got {dashes} in {comm_line:?}"
        );
    }

    #[test]
    #[should_panic(expected = "end before it starts")]
    fn backwards_span_panics() {
        let mut t = Trace::new();
        t.record(Resource::Comm, "X", us(5), us(1));
    }

    #[test]
    fn utilization_profile_localizes_busy_periods() {
        let mut t = Trace::new();
        // Comp busy only in the first half of a 100 us trace.
        t.record(Resource::Comp, "C1", us(0), us(50));
        t.record(Resource::Comm, "W1", us(50), us(100));
        let comp = t.utilization_profile(Resource::Comp, 4);
        assert_eq!(comp.len(), 4);
        assert!((comp[0] - 1.0).abs() < 1e-9);
        assert!((comp[1] - 1.0).abs() < 1e-9);
        assert_eq!(comp[2], 0.0);
        assert_eq!(comp[3], 0.0);
        let comm = t.utilization_profile(Resource::Comm, 4);
        assert_eq!(comm, vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn utilization_profile_partial_windows() {
        let mut t = Trace::new();
        t.record(Resource::Comp, "C1", us(25), us(75));
        t.record(Resource::Comm, "pad", us(0), us(100)); // sets the makespan
        let p = t.utilization_profile(Resource::Comp, 2);
        assert!((p[0] - 0.5).abs() < 1e-9);
        assert!((p[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_profile_edge_cases() {
        assert!(Trace::new()
            .utilization_profile(Resource::Comp, 8)
            .is_empty());
        let mut t = Trace::new();
        t.record(Resource::Comp, "C1", us(0), us(10));
        assert!(t.utilization_profile(Resource::Comp, 0).is_empty());
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let mut t = Trace::new();
        t.record(Resource::Comm, "R1", us(0), us(5));
        t.record(Resource::Comp, "C1", us(5), us(10));
        let csv = t.to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "resource,label,start_ps,end_ps,duration_ps");
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "Comm,R1,0,5000000,5000000");
        assert!(lines[2].starts_with("Comp,C1,"));
    }

    #[test]
    fn chrome_export_lanes_spans_by_resource() {
        let mut t = Trace::new();
        t.record(Resource::Comp, "C1", us(5), us(10));
        t.record(Resource::Comm, "R1", us(0), us(5));
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.contains("\"name\": \"R1\""), "{json}");
        assert!(json.contains("\"name\": \"C1\""), "{json}");
        assert!(json.contains("\"pid\": 2"), "{json}");
        // Comm lane (tid 1) sorts before Comp lane (tid 2).
        let r1 = json.find("\"R1\"").expect("R1");
        let c1 = json.find("\"C1\"").expect("C1");
        assert!(r1 < c1, "{json}");
        // 5 us span → ts/dur in microseconds.
        assert!(json.contains("\"ts\": 0.000, \"dur\": 5.000"), "{json}");
    }

    #[test]
    fn comm_gaps_finds_bubbles() {
        let mut t = Trace::new();
        t.record(Resource::Comm, "R1", us(0), us(5));
        t.record(Resource::Comm, "W1", us(20), us(25)); // 15 us bubble
        t.record(Resource::Comm, "R2", us(25), us(30)); // back-to-back
        let gaps = t.comm_gaps(us(1));
        assert_eq!(gaps, vec![(us(5), us(20))]);
        assert!(t.comm_gaps(us(20)).is_empty());
    }

    #[test]
    fn full_trace_sink_materializes_spans() {
        let mut sink = FullTrace::new();
        sink.record(Resource::Comm, || "R1".into(), us(0), us(5));
        sink.record(Resource::Comp, || "C1".into(), us(5), us(9));
        let trace = sink.into_trace();
        assert_eq!(trace.spans().len(), 2);
        assert_eq!(trace.spans()[0].label, "R1");
        assert_eq!(trace.end(), us(9));
    }

    #[test]
    fn null_sink_drops_everything_without_building_labels() {
        let mut sink = NullSink;
        // The label closure must never run on a label-free sink.
        sink.record(
            Resource::Comm,
            || panic!("NullSink must not build labels"),
            us(0),
            us(5),
        );
        const { assert!(!NullSink::RECORDS) };
    }

    #[test]
    fn spans_on_filters_resource() {
        let mut t = Trace::new();
        t.record(Resource::Comm, "R1", us(0), us(1));
        t.record(Resource::Comp, "C1", us(1), us(2));
        t.record(Resource::Comm, "W1", us(2), us(3));
        let labels: Vec<_> = t
            .spans_on(Resource::Comm)
            .map(|s| s.label.as_str())
            .collect();
        assert_eq!(labels, vec!["R1", "W1"]);
    }
}
