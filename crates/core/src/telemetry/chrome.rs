//! Chrome `trace_event` export.
//!
//! Emits the object form of the [Trace Event Format] — a `traceEvents` array
//! of `"ph": "X"` (complete) events — loadable in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev). Timestamps and durations are
//! microseconds with nanosecond precision (three decimals). Everything is
//! hand-rolled JSON: the repo has no serde_json, and the format is flat
//! enough that the one string escaper ([`super::json::escape`]) suffices.
//!
//! Two producers share this module: [`super::Profile::to_chrome_json`]
//! (host-side wall-clock spans, `pid` 1) and the simulator's trace bridge
//! (simulated time on virtual resources, `pid` 2), so a combined view never
//! confuses host nanoseconds with simulated picoseconds.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use super::json::escape;
use super::{ArgValue, Profile};

/// `pid` used for host wall-clock spans.
pub const PID_HOST: u64 = 1;
/// `pid` used for simulated-time spans bridged from the simulator's trace.
pub const PID_SIM: u64 = 2;

/// One complete ("X") event, ready to serialize.
#[derive(Debug, Clone)]
pub struct ChromeEvent {
    /// Event name (shown on the slice).
    pub name: String,
    /// Category string (used by trace viewers for filtering).
    pub cat: String,
    /// Process id lane.
    pub pid: u64,
    /// Thread id lane within the process.
    pub tid: u64,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Extra `args` entries (`key` → already-primitive value).
    pub args: Vec<(String, ArgValue)>,
}

fn arg_json(v: &ArgValue) -> String {
    match v {
        ArgValue::U64(n) => n.to_string(),
        ArgValue::F64(x) => {
            if x.is_finite() {
                format!("{x}")
            } else {
                format!("\"{x}\"")
            }
        }
        ArgValue::Str(s) => format!("\"{}\"", escape(s)),
    }
}

fn event_json(e: &ChromeEvent) -> String {
    let mut args = String::new();
    for (i, (k, v)) in e.args.iter().enumerate() {
        if i > 0 {
            args.push_str(", ");
        }
        args.push_str(&format!("\"{}\": {}", escape(k), arg_json(v)));
    }
    format!(
        "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": {}, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{args}}}}}",
        escape(&e.name),
        escape(&e.cat),
        e.pid,
        e.tid,
        e.ts_us,
        e.dur_us,
    )
}

/// Serialize events (one per line inside the array) plus an optional
/// `metrics` object into the top-level trace wrapper.
pub fn render_events(events: &[ChromeEvent], metrics: &[(&str, u64)]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(&event_json(e));
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\n\"displayTimeUnit\": \"ms\",\n\"metrics\": {");
    for (i, (k, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {v}", escape(k)));
    }
    out.push_str("}}\n");
    out
}

/// Convert a drained [`Profile`] into chrome-trace JSON: one complete event
/// per span on `pid` [`PID_HOST`], ordered by `(tid, start, seq)` so output
/// is deterministic for a given execution, with the span's full path and
/// typed arguments in `args` and non-zero metrics in the trailer object.
pub fn render_profile(profile: &Profile) -> String {
    let mut spans: Vec<&super::SpanRecord> = profile.spans.iter().collect();
    spans.sort_by_key(|a| (a.tid, a.start_ns, a.seq));
    let events: Vec<ChromeEvent> = spans
        .iter()
        .map(|s| {
            let mut args = vec![("path".to_string(), ArgValue::Str(s.path.as_str().into()))];
            for (k, v) in &s.args {
                args.push(((*k).to_string(), v.clone()));
            }
            ChromeEvent {
                name: s.name.to_string(),
                cat: "host".to_string(),
                pid: PID_HOST,
                tid: s.tid,
                ts_us: s.start_ns as f64 / 1e3,
                dur_us: s.duration_ns() as f64 / 1e3,
                args,
            }
        })
        .collect();
    let metrics: Vec<(&str, u64)> = profile
        .metrics
        .iter()
        .filter(|(_, v)| *v > 0)
        .map(|(m, v)| (m.name(), *v))
        .collect();
    render_events(&events, &metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::json::{self, Json};
    use crate::telemetry::{Metric, Telemetry};

    #[test]
    fn escaping_covers_specials() {
        let special = "a\"b\\c\nd\u{1}";
        let event = ChromeEvent {
            name: special.to_string(),
            cat: special.to_string(),
            pid: PID_HOST,
            tid: 0,
            ts_us: 0.0,
            dur_us: 1.0,
            args: vec![(special.to_string(), ArgValue::Str(special.into()))],
        };
        let trace = render_events(&[event], &[(special, 3)]);
        let escaped = "a\\\"b\\\\c\\nd\\u0001";
        assert!(
            trace.contains(&format!("\"name\": \"{escaped}\"")),
            "{trace}"
        );
        assert!(
            trace.contains(&format!("\"cat\": \"{escaped}\"")),
            "{trace}"
        );
        assert!(
            trace.contains(&format!("\"{escaped}\": \"{escaped}\"")),
            "{trace}"
        );
        assert!(trace.contains(&format!("\"{escaped}\": 3")), "{trace}");
        // The strict reader takes the trace back to the original text.
        let doc = json::parse(&trace).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some(special));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get(special).and_then(Json::as_str), Some(special));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get(special).and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn profile_renders_loadable_structure() {
        let t = Telemetry::new();
        t.enable();
        {
            let _a = t.span("run");
            let _b = t.span_args("job", vec![("job", ArgValue::U64(7))]);
        }
        t.add(Metric::EngineJobs, 1);
        let json = t.drain().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"job\""));
        assert!(json.contains("\"path\": \"run/job\""));
        assert!(json.contains("\"job\": 7"));
        assert!(json.contains("\"engine.jobs\": 1"));
        assert!(json.trim_end().ends_with("}}"));
        // Balanced braces/brackets — cheap structural sanity without a parser.
        let balance = |open: char, close: char| {
            json.chars().filter(|c| *c == open).count()
                == json.chars().filter(|c| *c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
    }

    #[test]
    fn events_order_by_tid_then_time() {
        let t = Telemetry::new();
        t.enable();
        {
            let _a = t.span("first");
        }
        {
            let _b = t.span("second");
        }
        let json = t.drain().to_chrome_json();
        let first = json.find("\"first\"").expect("first event");
        let second = json.find("\"second\"").expect("second event");
        assert!(first < second);
    }
}
