//! Streaming-application throughput analysis.
//!
//! §3.1: the throughput test "models FPGAs as co-processors to general-purpose
//! processors but the framework can be adjusted for streaming applications."
//! This module is that adjustment. A streaming design never round-trips
//! buffers: data flows through the FPGA continuously, so the sustained rate is
//! the *minimum* of the channel's element rate and the datapath's element
//! rate, and total time is `N / rate` plus a fill latency that vanishes for
//! large N.
//!
//! ```
//! # use rat_core::quantity::{Freq, Seconds, Throughput};
//! # let input = rat_core::params::RatInput {
//! #     name: "demo".into(),
//! #     dataset: rat_core::params::DatasetParams { elements_in: 512, elements_out: 1, bytes_per_element: 4 },
//! #     comm: rat_core::params::CommParams { ideal_bandwidth: Throughput::from_bytes_per_sec(1.0e9), alpha_write: 0.37, alpha_read: 0.16 },
//! #     comp: rat_core::params::CompParams { ops_per_element: 768.0, throughput_proc: 20.0, fclock: Freq::from_mhz(150.0) },
//! #     software: rat_core::params::SoftwareParams { t_soft: Seconds::new(0.578), iterations: 400 },
//! #     buffering: rat_core::params::Buffering::Double,
//! # };
//! use rat_core::streaming::{analyze, ChannelDuplex, StreamBottleneck};
//! let s = analyze(&input, ChannelDuplex::Half).unwrap();
//! assert_eq!(s.bottleneck, StreamBottleneck::Compute);
//! assert!(s.speedup > 10.0);
//! ```

use crate::error::RatError;
use crate::params::RatInput;
use crate::quantity::Seconds;
use crate::table::{sci, TextTable};

/// Whether the interconnect can move input and output concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChannelDuplex {
    /// One shared channel: input and output bytes serialize (PCI-X, and the
    /// assumption behind the paper's Eq. (1)).
    #[default]
    Half,
    /// Independent input and output paths (full-duplex links such as
    /// HyperTransport or PCIe): the slower direction limits.
    Full,
}

/// What limits a streaming design's sustained rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamBottleneck {
    /// The interconnect: elements arrive/depart slower than the datapath
    /// consumes them.
    Channel,
    /// The datapath: the FPGA kernel is the limiting rate.
    Compute,
}

/// Outputs of the streaming throughput test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingPrediction {
    /// Element rate the input path sustains (elements/s).
    pub input_rate: f64,
    /// Element rate the output path sustains (elements/s);
    /// `f64::INFINITY` when the design emits nothing per element.
    pub output_rate: f64,
    /// Combined channel element rate under the duplex assumption.
    pub channel_rate: f64,
    /// Element rate the datapath sustains (elements/s).
    pub compute_rate: f64,
    /// Sustained end-to-end rate: `min(channel_rate, compute_rate)`.
    pub sustained_rate: f64,
    /// Which side limits.
    pub bottleneck: StreamBottleneck,
    /// Time to stream the whole dataset (`elements_in * iterations` elements).
    pub t_stream: Seconds,
    /// Speedup over the software baseline.
    pub speedup: f64,
    /// Duplex assumption used.
    pub duplex: ChannelDuplex,
}

impl StreamingPrediction {
    /// Fraction of channel capacity the stream consumes (1.0 when
    /// channel-bound) — the headroom left for other traffic.
    pub fn channel_utilization(&self) -> f64 {
        self.sustained_rate / self.channel_rate
    }

    /// Fraction of datapath capacity in use (1.0 when compute-bound).
    pub fn compute_utilization(&self) -> f64 {
        self.sustained_rate / self.compute_rate
    }

    /// Render as a table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new()
            .title("Streaming throughput prediction")
            .header(["Metric", "Value"]);
        t.row(["input rate (elts/s)".to_string(), sci(self.input_rate)]);
        t.row(["output rate (elts/s)".to_string(), sci(self.output_rate)]);
        t.row(["channel rate (elts/s)".to_string(), sci(self.channel_rate)]);
        t.row(["compute rate (elts/s)".to_string(), sci(self.compute_rate)]);
        t.row([
            "sustained rate (elts/s)".to_string(),
            sci(self.sustained_rate),
        ]);
        t.row([
            "bottleneck".to_string(),
            match self.bottleneck {
                StreamBottleneck::Channel => "channel".to_string(),
                StreamBottleneck::Compute => "compute".to_string(),
            },
        ]);
        t.row(["t_stream (sec)".to_string(), sci(self.t_stream.seconds())]);
        t.row(["speedup".to_string(), format!("{:.2}", self.speedup)]);
        t.render()
    }
}

/// Run the streaming throughput test over the same Table-1 parameters the
/// buffered test uses. The dataset is `elements_in * iterations` elements;
/// per-element byte and op costs come straight from the worksheet.
pub fn analyze(input: &RatInput, duplex: ChannelDuplex) -> Result<StreamingPrediction, RatError> {
    input.validate()?;
    let bytes_in = input.dataset.bytes_per_element as f64;
    // Output bytes *per input element*: the design emits
    // elements_out / elements_in output elements for each input element.
    let out_ratio = input.dataset.elements_out as f64 / input.dataset.elements_in as f64;
    let bytes_out = out_ratio * input.dataset.bytes_per_element as f64;

    let input_rate =
        (input.comm.alpha_write * input.comm.ideal_bandwidth).bytes_per_sec() / bytes_in;
    let output_rate = if bytes_out == 0.0 {
        f64::INFINITY
    } else {
        (input.comm.alpha_read * input.comm.ideal_bandwidth).bytes_per_sec() / bytes_out
    };
    let channel_rate = match duplex {
        // Serialized: per-element time adds.
        ChannelDuplex::Half => {
            1.0 / (1.0 / input_rate
                + if bytes_out == 0.0 {
                    0.0
                } else {
                    1.0 / output_rate
                })
        }
        ChannelDuplex::Full => input_rate.min(output_rate),
    };
    let compute_rate =
        (input.comp.fclock * input.comp.throughput_proc).hz() / input.comp.ops_per_element;
    let sustained_rate = channel_rate.min(compute_rate);
    let bottleneck = if channel_rate <= compute_rate {
        StreamBottleneck::Channel
    } else {
        StreamBottleneck::Compute
    };
    // Converted before multiplying: the u64 product can overflow.
    let total_elements = input.dataset.elements_in as f64 * input.software.iterations as f64;
    let t_stream = Seconds::new(total_elements / sustained_rate);
    Ok(StreamingPrediction {
        input_rate,
        output_rate,
        channel_rate,
        compute_rate,
        sustained_rate,
        bottleneck,
        t_stream,
        speedup: input.software.t_soft / t_stream,
        duplex,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::pdf1d_example;
    use crate::throughput;

    #[test]
    fn pdf1d_streams_faster_than_buffered() {
        // Streaming removes the serialize-then-compute round trip; for the
        // compute-bound 1-D PDF the stream rate equals the datapath rate and
        // total time beats even the double-buffered Eq. (6) slightly (no
        // first-iteration fill in the continuum model).
        let input = pdf1d_example();
        let s = analyze(&input, ChannelDuplex::Half).unwrap();
        assert_eq!(s.bottleneck, StreamBottleneck::Compute);
        let db = throughput::t_rc_double(&input);
        assert!(s.t_stream <= db * 1.001, "stream {} vs DB {db}", s.t_stream);
        assert!(s.speedup >= 10.9, "streaming speedup {}", s.speedup);
    }

    #[test]
    fn compute_rate_matches_eq4_per_element() {
        let input = pdf1d_example();
        let s = analyze(&input, ChannelDuplex::Half).unwrap();
        // Eq. (4) per element: ops/elt / (fclock * tp) seconds per element.
        let per_elt = (input.comp.ops_per_element
            / (input.comp.fclock * input.comp.throughput_proc))
            .seconds();
        assert!((s.compute_rate - 1.0 / per_elt).abs() / s.compute_rate < 1e-12);
    }

    #[test]
    fn channel_bound_stream() {
        // Inflate per-element work the channel must carry: 4 KB elements.
        let mut input = pdf1d_example();
        input.dataset.bytes_per_element = 4096;
        input.dataset.elements_out = input.dataset.elements_in; // echo out
        let s = analyze(&input, ChannelDuplex::Half).unwrap();
        assert_eq!(s.bottleneck, StreamBottleneck::Channel);
        assert!((s.channel_utilization() - 1.0).abs() < 1e-12);
        assert!(s.compute_utilization() < 1.0);
    }

    #[test]
    fn full_duplex_beats_half_duplex_when_both_directions_matter() {
        let mut input = pdf1d_example();
        input.dataset.elements_out = input.dataset.elements_in;
        let half = analyze(&input, ChannelDuplex::Half).unwrap();
        let full = analyze(&input, ChannelDuplex::Full).unwrap();
        assert!(full.channel_rate > half.channel_rate);
        // With no output, duplex does not matter.
        let mut quiet = pdf1d_example();
        quiet.dataset.elements_out = 0;
        let h = analyze(&quiet, ChannelDuplex::Half).unwrap();
        let f = analyze(&quiet, ChannelDuplex::Full).unwrap();
        assert!((h.channel_rate - f.channel_rate).abs() / h.channel_rate < 1e-12);
    }

    #[test]
    fn zero_output_rate_is_infinite() {
        let mut input = pdf1d_example();
        input.dataset.elements_out = 0;
        let s = analyze(&input, ChannelDuplex::Half).unwrap();
        assert_eq!(s.output_rate, f64::INFINITY);
    }

    #[test]
    fn render_names_the_bottleneck() {
        let s = analyze(&pdf1d_example(), ChannelDuplex::Half).unwrap();
        assert!(s.render().contains("compute"));
    }

    #[test]
    fn a_dataset_past_u64_max_elements_streams_in_finite_time() {
        let mut input = pdf1d_example();
        input.dataset.elements_in = 1 << 32;
        input.software.iterations = 1 << 32;
        let s = analyze(&input, ChannelDuplex::Half).unwrap();
        assert!(
            s.t_stream.is_finite() && s.t_stream > Seconds::ZERO,
            "{}",
            s.t_stream
        );
        assert_eq!(s.t_stream.seconds(), 2f64.powi(64) / s.sustained_rate);
        assert!(s.speedup.is_finite() && s.speedup > 0.0, "{}", s.speedup);
    }

    #[test]
    fn invalid_input_rejected() {
        let mut input = pdf1d_example();
        input.comm.alpha_write = 0.0;
        assert!(analyze(&input, ChannelDuplex::Half).is_err());
    }
}
