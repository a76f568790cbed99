//! RAT input parameters (the paper's Table 1).
//!
//! The worksheet groups its inputs into four categories: dataset,
//! communication, computation, and software. Dimensioned inputs use the
//! typed quantities of [`crate::quantity`] — bandwidth as [`Throughput`],
//! clock as [`Freq`], time as [`Seconds`] — with unit conversions confined
//! to constructors and rendering.
//!
//! A worksheet file is TOML. [`RatInput`] and its five parts read themselves
//! from a parsed [`toml::Value`] tree through `TryFrom<&toml::Value<'_>>`,
//! and `From<&RatInput> for toml::Value<'_>` writes one back, so
//! `toml::from_str::<RatInput>` and `toml::to_string(&input)` are the whole
//! worksheet codec. Decoding ignores unknown keys and names the path to a
//! bad field (`comp: fclock: ...`); quantities also accept suffixed strings
//! such as `"150 MHz"`.

use crate::error::RatError;
use crate::quantity::{Bytes, Elements, Freq, Seconds, Throughput};
use toml::{Error, Value};

/// Dataset parameters: how big one buffered block of the problem is.
///
/// An *element* is the paper's unit tying communication to computation: "a
/// value in an array to be sorted, an atom in a molecular dynamics simulation,
/// or a single character in a string-matching algorithm" (§3.1). Elements in
/// and out may differ — the 1-D PDF consumes 512 elements per iteration but
/// emits one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetParams {
    /// Elements transferred host→FPGA per iteration (`N_elements,input`).
    pub elements_in: u64,
    /// Elements transferred FPGA→host per iteration (`N_elements,output`).
    pub elements_out: u64,
    /// Bytes per element on the communication channel (`N_bytes/element`).
    pub bytes_per_element: u64,
}

/// Communication parameters: properties of the CPU–FPGA interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommParams {
    /// Documented peak interconnect bandwidth (`throughput_ideal`; the paper
    /// quotes MB/s). Worksheets may write a bare bytes/second number or a
    /// suffixed string such as `"1000 MB/s"` or `"8 Gbps"`.
    pub ideal_bandwidth: Throughput,
    /// Fraction of ideal throughput sustained host→FPGA (`alpha_write`),
    /// from a microbenchmark.
    pub alpha_write: f64,
    /// Fraction of ideal throughput sustained FPGA→host (`alpha_read`).
    pub alpha_read: f64,
}

/// Computation parameters: how much work per element and how fast the design
/// retires it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompParams {
    /// Operations per element (`N_ops/element`), measured from the algorithm
    /// structure. What counts as one "operation" is the designer's choice, as
    /// long as `throughput_proc` uses the same convention (§3.1's Booth
    /// multiplier discussion).
    pub ops_per_element: f64,
    /// Operations completed per clock cycle (`throughput_proc`). Equals
    /// ops/element for a fully pipelined design; a fraction of it otherwise.
    pub throughput_proc: f64,
    /// FPGA clock frequency (`f_clock`). Worksheets may write a bare Hz
    /// number or a suffixed string such as `"133 MHz"`.
    pub fclock: Freq,
}

/// Software baseline parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareParams {
    /// Execution time of the sequential software baseline (`t_soft`), for the
    /// *whole* problem. Worksheets may write bare seconds or `"578 ms"`.
    pub t_soft: Seconds,
    /// Number of communication+computation iterations needed to cover the
    /// whole problem (`N_iter`).
    pub iterations: u64,
}

/// Buffering discipline assumed by the prediction (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Buffering {
    /// Single-buffered: communication and computation serialize (Eq. 5).
    #[default]
    Single,
    /// Double-buffered: the longer of communication and computation hides the
    /// shorter at steady state (Eq. 6). Only meaningful with enough iterations
    /// to amortize the pipeline startup.
    Double,
}

/// A complete RAT worksheet input (the paper's Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct RatInput {
    /// Name of the application design under analysis.
    pub name: String,
    /// Dataset parameters.
    pub dataset: DatasetParams,
    /// Communication parameters.
    pub comm: CommParams,
    /// Computation parameters.
    pub comp: CompParams,
    /// Software baseline parameters.
    pub software: SoftwareParams,
    /// Buffering assumption.
    pub buffering: Buffering,
}

impl RatInput {
    /// Copy every numeric parameter block from `other`, leaving `name`
    /// untouched. The parameter blocks are all `Copy`, so this is a handful
    /// of struct assignments — it lets hot loops (Monte-Carlo sampling,
    /// corner enumeration) restore a scratch input from a base point without
    /// re-allocating the name string each time.
    pub fn copy_params_from(&mut self, other: &RatInput) {
        self.dataset = other.dataset;
        self.comm = other.comm;
        self.comp = other.comp;
        self.software = other.software;
        self.buffering = other.buffering;
    }

    /// Validate every parameter, returning the first violation.
    ///
    /// Checks positivity/finiteness of rates and times, `alpha` in `(0, 1]`,
    /// at least one iteration, and that [`RatInput::input_bytes`] and
    /// [`RatInput::output_bytes`] fit a `u64`. Dimensioned fields report a
    /// field-named [`RatError::InvalidQuantity`]; dimensionless ones report
    /// [`RatError::InvalidParameter`]. `elements_out` may be zero (results may
    /// accumulate on-chip), but `elements_in` must be positive — a design that
    /// consumes no data computes nothing RAT can reason about.
    pub fn validate(&self) -> Result<(), RatError> {
        let d = &self.dataset;
        if d.elements_in == 0 {
            return Err(RatError::param("elements_in must be at least 1"));
        }
        if d.bytes_per_element == 0 {
            return Err(RatError::param("bytes_per_element must be at least 1"));
        }
        let bpe = d.bytes_per_element;
        for (side, n) in [("in", d.elements_in), ("out", d.elements_out)] {
            if n.checked_mul(bpe).is_none() {
                return Err(RatError::param(format!(
                    "elements_{side} * bytes_per_element = {n} * {bpe} bytes overflows a u64"
                )));
            }
        }
        let c = &self.comm;
        let bw = c.ideal_bandwidth.bytes_per_sec();
        if !(bw.is_finite() && bw > 0.0) {
            return Err(RatError::quantity(
                "comm.ideal_bandwidth",
                format!("must be positive and finite, got {bw} B/s"),
            ));
        }
        for (name, alpha) in [("alpha_write", c.alpha_write), ("alpha_read", c.alpha_read)] {
            if !(alpha.is_finite() && alpha > 0.0 && alpha <= 1.0) {
                return Err(RatError::param(format!(
                    "{name} must be in (0, 1], got {alpha}"
                )));
            }
        }
        let p = &self.comp;
        if !(p.ops_per_element.is_finite() && p.ops_per_element > 0.0) {
            return Err(RatError::param(format!(
                "ops_per_element must be positive, got {}",
                p.ops_per_element
            )));
        }
        if !(p.throughput_proc.is_finite() && p.throughput_proc > 0.0) {
            return Err(RatError::param(format!(
                "throughput_proc must be positive, got {}",
                p.throughput_proc
            )));
        }
        let hz = p.fclock.hz();
        if !(hz.is_finite() && hz > 0.0) {
            return Err(RatError::quantity(
                "comp.fclock",
                format!("must be positive and finite, got {hz} Hz"),
            ));
        }
        let s = &self.software;
        let t = s.t_soft.seconds();
        if !(t.is_finite() && t > 0.0) {
            return Err(RatError::quantity(
                "software.t_soft",
                format!("must be positive and finite, got {t} s"),
            ));
        }
        if s.iterations == 0 {
            return Err(RatError::param("iterations must be at least 1"));
        }
        Ok(())
    }

    /// Bytes moved host→FPGA per iteration.
    pub fn input_bytes(&self) -> Bytes {
        Elements::new(self.dataset.elements_in) * Bytes::new(self.dataset.bytes_per_element)
    }

    /// Bytes moved FPGA→host per iteration.
    pub fn output_bytes(&self) -> Bytes {
        Elements::new(self.dataset.elements_out) * Bytes::new(self.dataset.bytes_per_element)
    }

    /// A copy of this input with a different clock frequency — the paper's
    /// Tables 3/6/9 evaluate each design at 75, 100, and 150 MHz.
    pub fn with_fclock(&self, fclock: Freq) -> Self {
        let mut next = self.clone();
        next.comp.fclock = fclock;
        next
    }

    /// A copy with a different buffering assumption.
    pub fn with_buffering(&self, buffering: Buffering) -> Self {
        let mut next = self.clone();
        next.buffering = buffering;
        next
    }
}

impl TryFrom<&Value<'_>> for DatasetParams {
    type Error = Error;
    fn try_from(value: &Value<'_>) -> Result<Self, Error> {
        let t = value.table("DatasetParams")?;
        Ok(DatasetParams {
            elements_in: t.field("elements_in")?,
            elements_out: t.field("elements_out")?,
            bytes_per_element: t.field("bytes_per_element")?,
        })
    }
}

impl TryFrom<&Value<'_>> for CommParams {
    type Error = Error;
    fn try_from(value: &Value<'_>) -> Result<Self, Error> {
        let t = value.table("CommParams")?;
        Ok(CommParams {
            ideal_bandwidth: t.field("ideal_bandwidth")?,
            alpha_write: t.field("alpha_write")?,
            alpha_read: t.field("alpha_read")?,
        })
    }
}

impl TryFrom<&Value<'_>> for CompParams {
    type Error = Error;
    fn try_from(value: &Value<'_>) -> Result<Self, Error> {
        let t = value.table("CompParams")?;
        Ok(CompParams {
            ops_per_element: t.field("ops_per_element")?,
            throughput_proc: t.field("throughput_proc")?,
            fclock: t.field("fclock")?,
        })
    }
}

impl TryFrom<&Value<'_>> for SoftwareParams {
    type Error = Error;
    fn try_from(value: &Value<'_>) -> Result<Self, Error> {
        let t = value.table("SoftwareParams")?;
        Ok(SoftwareParams {
            t_soft: t.field("t_soft")?,
            iterations: t.field("iterations")?,
        })
    }
}

impl TryFrom<&Value<'_>> for Buffering {
    type Error = Error;
    fn try_from(value: &Value<'_>) -> Result<Self, Error> {
        let unknown = |tag: &str| Error::new(format!("unknown variant `{tag}` for enum Buffering"));
        match value {
            Value::Str(s) => match s.as_ref() {
                "Single" => Ok(Buffering::Single),
                "Double" => Ok(Buffering::Double),
                tag => Err(unknown(tag)),
            },
            // `{ Variant = data }` tags a data-carrying variant; `Buffering`
            // has none, so any tag is unknown.
            Value::Map(entries) if entries.len() == 1 => Err(unknown(&entries[0].0)),
            other => Err(Error::expected(
                "string or single-entry map for enum Buffering",
                other,
            )),
        }
    }
}

impl TryFrom<&Value<'_>> for RatInput {
    type Error = Error;
    fn try_from(value: &Value<'_>) -> Result<Self, Error> {
        let t = value.table("RatInput")?;
        Ok(RatInput {
            name: t.field("name")?,
            dataset: t.field("dataset")?,
            comm: t.field("comm")?,
            comp: t.field("comp")?,
            software: t.field("software")?,
            buffering: t.field("buffering")?,
        })
    }
}

/// A table from `(key, value)` pairs, in order.
fn table_of<'a, const N: usize>(entries: [(&'static str, Value<'a>); N]) -> Value<'a> {
    Value::Map(entries.map(|(k, v)| (k.into(), v)).into())
}

/// The worksheet as TOML: quantities in their base units (Hz, seconds,
/// bytes/second), field order as declared. The writer puts the scalars
/// `name` and `buffering` before the four tables.
impl<'a> From<&'a RatInput> for Value<'a> {
    fn from(input: &'a RatInput) -> Self {
        let (d, c, p, s) = (&input.dataset, &input.comm, &input.comp, &input.software);
        table_of([
            ("name", input.name.as_str().into()),
            (
                "dataset",
                table_of([
                    ("elements_in", d.elements_in.into()),
                    ("elements_out", d.elements_out.into()),
                    ("bytes_per_element", d.bytes_per_element.into()),
                ]),
            ),
            (
                "comm",
                table_of([
                    ("ideal_bandwidth", c.ideal_bandwidth.bytes_per_sec().into()),
                    ("alpha_write", c.alpha_write.into()),
                    ("alpha_read", c.alpha_read.into()),
                ]),
            ),
            (
                "comp",
                table_of([
                    ("ops_per_element", p.ops_per_element.into()),
                    ("throughput_proc", p.throughput_proc.into()),
                    ("fclock", p.fclock.hz().into()),
                ]),
            ),
            (
                "software",
                table_of([
                    ("t_soft", s.t_soft.seconds().into()),
                    ("iterations", s.iterations.into()),
                ]),
            ),
            (
                "buffering",
                match input.buffering {
                    Buffering::Single => "Single",
                    Buffering::Double => "Double",
                }
                .into(),
            ),
        ])
    }
}

#[cfg(test)]
pub(crate) fn pdf1d_example() -> RatInput {
    // The paper's Table 2, at 150 MHz.
    RatInput {
        name: "1-D PDF".into(),
        dataset: DatasetParams {
            elements_in: 512,
            elements_out: 1,
            bytes_per_element: 4,
        },
        comm: CommParams {
            ideal_bandwidth: Throughput::from_bytes_per_sec(1.0e9),
            alpha_write: 0.37,
            alpha_read: 0.16,
        },
        comp: CompParams {
            ops_per_element: 768.0,
            throughput_proc: 20.0,
            fclock: Freq::from_mhz(150.0),
        },
        software: SoftwareParams {
            t_soft: Seconds::new(0.578),
            iterations: 400,
        },
        buffering: Buffering::Single,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_input_validates() {
        assert!(pdf1d_example().validate().is_ok());
    }

    #[test]
    fn rejects_zero_elements_in() {
        let mut i = pdf1d_example();
        i.dataset.elements_in = 0;
        assert!(
            matches!(i.validate(), Err(RatError::InvalidParameter(m)) if m.contains("elements_in"))
        );
    }

    #[test]
    fn allows_zero_elements_out() {
        let mut i = pdf1d_example();
        i.dataset.elements_out = 0;
        assert!(i.validate().is_ok());
    }

    #[test]
    fn rejects_alpha_out_of_range() {
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let mut i = pdf1d_example();
            i.comm.alpha_read = bad;
            assert!(
                i.validate().is_err(),
                "alpha_read = {bad} should be rejected"
            );
        }
        let mut i = pdf1d_example();
        i.comm.alpha_write = 1.0;
        assert!(i.validate().is_ok(), "alpha exactly 1.0 is legal");
    }

    #[test]
    fn rejects_nonpositive_rates_and_times() {
        let mut i = pdf1d_example();
        i.comp.fclock = Freq::from_hz(0.0);
        assert!(
            matches!(i.validate(), Err(RatError::InvalidQuantity { field, .. }) if field == "comp.fclock")
        );
        let mut i = pdf1d_example();
        i.comp.throughput_proc = -3.0;
        assert!(i.validate().is_err());
        let mut i = pdf1d_example();
        i.software.t_soft = Seconds::ZERO;
        assert!(
            matches!(i.validate(), Err(RatError::InvalidQuantity { field, .. }) if field == "software.t_soft")
        );
        let mut i = pdf1d_example();
        i.software.iterations = 0;
        assert!(i.validate().is_err());
        let mut i = pdf1d_example();
        i.comm.ideal_bandwidth = Throughput::from_bytes_per_sec(f64::NAN);
        assert!(
            matches!(i.validate(), Err(RatError::InvalidQuantity { field, .. }) if field == "comm.ideal_bandwidth")
        );
    }

    #[test]
    fn byte_accessors() {
        let i = pdf1d_example();
        assert_eq!(i.input_bytes(), Bytes::new(2048));
        assert_eq!(i.output_bytes(), Bytes::new(4));
    }

    #[test]
    fn with_fclock_changes_only_clock() {
        let i = pdf1d_example();
        let j = i.with_fclock(Freq::from_mhz(75.0));
        assert_eq!(j.comp.fclock, Freq::from_hz(75.0e6));
        assert_eq!(j.comp.ops_per_element, i.comp.ops_per_element);
        assert_eq!(j.dataset, i.dataset);
    }

    #[test]
    fn serde_round_trip_via_toml() {
        let i = pdf1d_example();
        let text = toml::to_string(&i).unwrap();
        let back: RatInput = toml::from_str(&text).unwrap();
        assert_eq!(back, i);
    }

    #[test]
    fn worksheet_accepts_suffixed_quantity_strings() {
        let text = toml::to_string(&pdf1d_example()).unwrap();
        let suffixed = text
            .replace(
                "ideal_bandwidth = 1000000000.0",
                "ideal_bandwidth = \"1000 MB/s\"",
            )
            .replace("fclock = 150000000.0", "fclock = \"150 MHz\"")
            .replace("t_soft = 0.578", "t_soft = \"578 ms\"");
        assert_ne!(text, suffixed, "replacements must hit");
        let back: RatInput = toml::from_str(&suffixed).unwrap();
        let reference = pdf1d_example();
        assert_eq!(back.comm.ideal_bandwidth, reference.comm.ideal_bandwidth);
        assert_eq!(back.comp.fclock, reference.comp.fclock);
        assert!((back.software.t_soft.seconds() - 0.578).abs() < 1e-12);
    }

    /// Apply one edit to the example worksheet's TOML and decode the
    /// result, keeping the error's display text.
    fn decode_edited(from: &str, to: &str) -> Result<RatInput, String> {
        let text = toml::to_string(&pdf1d_example()).unwrap();
        assert!(text.contains(from), "edit `{from}` must hit:\n{text}");
        toml::from_str(&text.replace(from, to)).map_err(|e| e.to_string())
    }

    #[test]
    fn worksheet_rejects_bad_quantity_with_field_name() {
        // (edit from, edit to, the exact decode error after the prefix)
        let rows = [
            (
                "fclock = 150000000.0",
                "fclock = \"150 parsecs\"",
                "comp: fclock: unknown frequency unit `parsecs` in `150 parsecs`",
            ),
            (
                "buffering = \"Single\"",
                "buffering = \"Triple\"",
                "buffering: unknown variant `Triple` for enum Buffering",
            ),
            (
                "buffering = \"Single\"",
                "buffering = 3",
                "buffering: expected string or single-entry map for enum Buffering, found integer",
            ),
            (
                "buffering = \"Single\"",
                "buffering = { Single = 1 }",
                "buffering: unknown variant `Single` for enum Buffering",
            ),
            (
                "alpha_read = 0.16\n",
                "",
                "comm: missing field `alpha_read`",
            ),
            ("name = \"1-D PDF\"\n", "", "missing field `name`"),
            (
                "elements_in = 512",
                "elements_in = -5",
                "dataset: elements_in: negative integer -5 for u64",
            ),
            (
                "elements_in = 512",
                "elements_in = \"many\"",
                "dataset: elements_in: invalid u64 `many`",
            ),
            (
                "iterations = 400",
                "iterations = 1.5",
                "software: iterations: expected integer, found float",
            ),
            (
                "alpha_write = 0.37",
                "alpha_write = \"high\"",
                "comm: alpha_write: expected float, found string",
            ),
            (
                "t_soft = 0.578",
                "t_soft = true",
                "software: t_soft: expected duration, found bool",
            ),
            (
                "name = \"1-D PDF\"",
                "name = 3",
                "name: expected string, found integer",
            ),
            (
                "[dataset]",
                "dataset = 3\n[unused]",
                "dataset: expected map for struct DatasetParams, found integer",
            ),
            (
                "[comp]",
                "[comp.inner]",
                "comp: missing field `ops_per_element`",
            ),
            (
                "fclock = 150000000.0",
                "fclock = \"1e400 MHz\"",
                "comp: fclock: `1e400 MHz` is not a finite number",
            ),
            (
                "fclock = 150000000.0",
                "fclock = \"1e300 GHz\"",
                "comp: fclock: frequency must be finite, got inf",
            ),
            (
                "fclock = 150000000.0",
                "fclock = \"MHz\"",
                "comp: fclock: `MHz` has no leading number",
            ),
            (
                "iterations = 400",
                "iterations = 400\niterations = 400",
                "duplicate key `iterations`",
            ),
        ];
        for (from, to, want) in rows {
            match decode_edited(from, to) {
                Err(e) => assert_eq!(e, format!("TOML parse error: {want}"), "`{from}` -> `{to}`"),
                Ok(input) => panic!("`{from}` -> `{to}` decoded: {input:?}"),
            }
        }
        assert_eq!(
            toml::from_str::<RatInput>("").unwrap_err().to_string(),
            "TOML parse error: missing field `name`"
        );
    }

    #[test]
    fn worksheet_accepts_coerced_numbers_and_unknown_keys() {
        // Each edit must decode to the unedited example.
        let rows = [
            ("elements_in = 512", "elements_in = 512.0"),
            ("elements_in = 512", "elements_in = \"512\""),
            ("ops_per_element = 768.0", "ops_per_element = 768"),
            (
                "[dataset]\n",
                "[dataset]\nhistory = [[1, 0.9], [1024, 0.37]]\n",
            ),
            (
                "name = \"1-D PDF\"",
                "name = \"1-D PDF\"\nmeta = { author = \"x\", rev = 2 }",
            ),
            (
                "iterations = 400",
                "iterations = 400\n\n[[runs]]\nid = 1\n\n[[runs]]\nid = 2",
            ),
        ];
        for (from, to) in rows {
            let input = decode_edited(from, to)
                .unwrap_or_else(|e| panic!("`{from}` -> `{to}` rejected: {e}"));
            assert_eq!(input, pdf1d_example(), "`{from}` -> `{to}`");
        }
        // NaN decodes; validation is what rejects it.
        let input = decode_edited("alpha_read = 0.16", "alpha_read = nan").unwrap();
        assert!(input.comm.alpha_read.is_nan());
        assert!(
            matches!(input.validate(), Err(RatError::InvalidParameter(m)) if m.contains("alpha_read"))
        );
    }
}
