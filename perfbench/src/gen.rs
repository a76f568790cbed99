//! Seeded input generators: worksheet variants, the serve request stream and
//! the design-search CLI op stream. The same seed always gives the same
//! inputs; the program under test only ever sees the generated text.

use rat_apps::{md, pdf};
use rat_core::params::{Buffering, RatInput};
use rat_core::quantity::Freq;
use rat_core::worksheet::Worksheet;
use rat_serve::api::escape_json;

/// SplitMix64: tiny, seedable, and plenty for choosing inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Round to `digits` decimals, so generated numbers stay short in request
/// text (the program parses whatever is written; only the length matters).
fn round(x: f64, digits: i32) -> f64 {
    let p = 10f64.powi(digits);
    (x * p).round() / p
}

/// A worksheet variant around case study `base` (0 = 1-D PDF, 1 = 2-D PDF,
/// 2 = MD): dataset size, α, throughput_proc, f_clock and buffering are
/// drawn from `rng`.
pub fn worksheet(rng: &mut Rng, name: String, base: u64) -> RatInput {
    let mut ws = match base {
        0 => pdf::pdf1d::rat_input(150.0e6),
        1 => pdf::pdf2d::rat_input(150.0e6),
        _ => md::rat::rat_input(100.0e6),
    };
    ws.name = name;
    ws.dataset.elements_in =
        ((ws.dataset.elements_in as f64 * rng.range(0.5, 2.0)).round() as u64).max(1);
    // Below 1 with room to spare: sensitivity perturbs each input upward.
    ws.comm.alpha_write = round(
        (ws.comm.alpha_write * rng.range(0.7, 1.3)).clamp(0.01, 0.95),
        3,
    );
    ws.comm.alpha_read = round(
        (ws.comm.alpha_read * rng.range(0.7, 1.3)).clamp(0.01, 0.95),
        3,
    );
    ws.comp.throughput_proc = round(ws.comp.throughput_proc * rng.range(0.5, 1.5), 3).max(0.5);
    ws.comp.fclock = Freq::from_hz(round(rng.range(75.0e6, 200.0e6), -3));
    ws.buffering = if rng.below(2) == 0 {
        Buffering::Single
    } else {
        Buffering::Double
    };
    ws
}

/// The serve routes, as `(mode, path)`.
pub const ROUTES: [(&str, &str); 6] = [
    ("solve", "/v1/solve"),
    ("sweep", "/v1/sweep"),
    ("sensitivity", "/v1/sensitivity"),
    ("uncertainty", "/v1/uncertainty"),
    ("explore", "/v1/explore"),
    ("simulate", "/v1/simulate"),
];

/// One generated HTTP request: route and JSON body.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOp {
    /// Index into [`ROUTES`].
    pub route: usize,
    pub body: String,
}

impl ServeOp {
    pub fn mode(&self) -> &'static str {
        ROUTES[self.route].0
    }

    pub fn path(&self) -> &'static str {
        ROUTES[self.route].1
    }
}

/// Requests per worksheet variant: 3 solves with distinct targets and one
/// each of sweep, sensitivity, uncertainty, explore and simulate.
pub const GROUP: u64 = 8;

/// The serve_unique request generator. Request `i` belongs to worksheet
/// group `i / GROUP`; every body in a stream is distinct, and different
/// streams of one seed never share a body (names carry the stream).
#[derive(Debug, Clone, Copy)]
pub struct ServeStream {
    pub seed: u64,
    pub stream: u64,
}

impl ServeStream {
    /// The 8 requests of group `g`, in their shuffled order.
    pub fn group(&self, g: u64) -> Vec<ServeOp> {
        let mut rng = Rng::new(self.seed, (self.stream << 40) ^ g);
        let base = rng.below(3);
        let ws = worksheet(
            &mut rng,
            format!("w{}-{}-{g}", self.seed, self.stream),
            base,
        );
        let toml_text = toml::to_string(&ws).expect("worksheets serialize");
        let ws_json = escape_json(&toml_text);
        let mut kinds: Vec<u8> = vec![0, 0, 0, 1, 2, 3, 4, 5];
        for i in (1..kinds.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            kinds.swap(i, j);
        }
        let t0 = rng.range(1.5, 12.0);
        let mut solves = 0;
        kinds
            .iter()
            .enumerate()
            .map(|(slot, &route)| {
                let body = match route {
                    0 => {
                        let target = round(t0 * (1.0 + 0.37 * solves as f64), 3);
                        solves += 1;
                        format!("{{\"worksheet_toml\": \"{ws_json}\", \"target\": {target}}}")
                    }
                    1 => {
                        let (param, lo, hi, digits) = match rng.below(4) {
                            0 => ("fclock", 50.0e6, 250.0e6, -3),
                            1 => ("throughput-proc", 1.0, 64.0, 3),
                            2 => ("alpha-write", 0.05, 1.0, 3),
                            _ => ("alpha-read", 0.05, 1.0, 3),
                        };
                        let values: Vec<String> = (0..4)
                            .map(|_| round(rng.range(lo, hi), digits).to_string())
                            .collect();
                        format!(
                            "{{\"worksheet_toml\": \"{ws_json}\", \"param\": \"{param}\", \
                             \"values\": [{}]}}",
                            values.join(", ")
                        )
                    }
                    2 => format!("{{\"worksheet_toml\": \"{ws_json}\"}}"),
                    3 => {
                        let a = round(rng.range(0.05, 0.5), 3);
                        let f = round(rng.range(60.0e6, 120.0e6), -3);
                        format!(
                            "{{\"worksheet_toml\": \"{ws_json}\", \"ranges\": [\
                             {{\"param\": \"alpha-write\", \"lo\": {a}, \"hi\": {}}}, \
                             {{\"param\": \"fclock\", \"lo\": {f}, \"hi\": {}}}], \
                             \"samples\": 256, \"seed\": {}}}",
                            round(a + rng.range(0.05, 0.5), 3),
                            round(f + rng.range(10.0e6, 100.0e6), -3),
                            rng.below(1 << 40)
                        )
                    }
                    4 => {
                        let clocks: Vec<String> = (0..3)
                            .map(|_| round(rng.range(50.0e6, 250.0e6), -3).to_string())
                            .collect();
                        format!(
                            "{{\"worksheet_toml\": \"{ws_json}\", \"min_speedup\": {}, \
                             \"fclocks\": [{}]}}",
                            round(rng.range(1.0, 10.0), 2),
                            clocks.join(", ")
                        )
                    }
                    _ => {
                        // A distinct clock for every simulate in every
                        // stream, so each one runs the simulator.
                        let app = ["pdf1d", "pdf2d", "md", "sort"][rng.below(4) as usize];
                        let tag = ((self.stream << 40) ^ (g * GROUP + slot as u64)) as f64;
                        let mhz = 50.0 + 150.0 * (tag * 0.618_033_988_749_895).fract();
                        format!("{{\"app\": \"{app}\", \"mhz\": {:.6}}}", round(mhz, 6))
                    }
                };
                ServeOp {
                    route: route as usize,
                    body,
                }
            })
            .collect()
    }

    /// Request `i`, regenerated from scratch.
    pub fn op(&self, i: u64) -> ServeOp {
        self.group(i / GROUP).swap_remove((i % GROUP) as usize)
    }
}

/// Per-thread memo of the last generated group, so a client pays for one
/// worksheet serialization per group rather than per request.
#[derive(Debug, Default)]
pub struct GroupCache {
    group: Option<(u64, Vec<ServeOp>)>,
}

impl GroupCache {
    pub fn op<'a>(&'a mut self, stream: &ServeStream, i: u64) -> &'a ServeOp {
        let g = i / GROUP;
        if self.group.as_ref().map(|(k, _)| *k) != Some(g) {
            self.group = Some((g, stream.group(g)));
        }
        &self.group.as_ref().expect("just filled").1[(i % GROUP) as usize]
    }
}

/// Size of the serve_hot request set.
const HOT_SET: u64 = 64;

/// The serve_hot stream: `HOT_SET` requests of the serve_unique generator
/// (its own stream), drawn in a seeded order.
#[derive(Debug, Clone)]
pub struct HotStream {
    pub seed: u64,
    pub ops: Vec<ServeOp>,
}

impl HotStream {
    pub fn new(seed: u64) -> HotStream {
        let stream = ServeStream { seed, stream: 2 };
        HotStream {
            seed,
            ops: (0..HOT_SET).map(|i| stream.op(i)).collect(),
        }
    }

    /// Which hot request the `i`-th timed request sends.
    pub fn pick(&self, i: u64) -> usize {
        (Rng::new(self.seed ^ 0x5EED, i).next_u64() % HOT_SET) as usize
    }
}

/// Guided-search size for design_search optimize ops.
const OPT_GENERATIONS: u32 = 32;
const OPT_POPULATION: usize = 1024;
/// Explore grid: clocks × throughputs × both bufferings = 18,432 corners.
const EXPLORE_AXIS: usize = 96;

/// Ops in one design_search rotation: optimize and explore on each design.
pub const ROTATION: u64 = 4;

/// One design_search CLI op.
#[derive(Debug, Clone)]
pub enum DesignOp {
    Optimize {
        seed: u64,
        generations: u32,
        population: usize,
    },
    Explore {
        min_speedup: f64,
        fclocks: Vec<f64>,
        throughput_procs: Vec<f64>,
    },
}

/// A design_search op with its worksheet, as TOML text.
#[derive(Debug, Clone)]
pub struct DesignCase {
    pub toml: String,
    pub op: DesignOp,
}

impl DesignCase {
    /// Op `k` of the design_search stream: even ops optimize, odd ops
    /// explore, and each pair alternates between the 1-D and 2-D PDF
    /// designs. The two optimize regimes differ about threefold in cost
    /// (2-D fronts hold ~1,500 points, 1-D ones ~40), so a fixed rotation
    /// keeps every window's mix, and its cost, the same. MD is left out: its
    /// optimize front is empty by design (exit 4).
    pub fn generate(seed: u64, k: u64) -> DesignCase {
        let mut rng = Rng::new(seed, (3 << 40) ^ k);
        let ws = worksheet(&mut rng, format!("d{seed}-{k}"), (k / 2) % 2);
        let toml = toml::to_string(&ws).expect("worksheets serialize");
        let op = if k.is_multiple_of(2) {
            DesignOp::Optimize {
                seed: rng.below(1 << 40),
                generations: OPT_GENERATIONS,
                population: OPT_POPULATION,
            }
        } else {
            let base = Worksheet::new(ws.clone())
                .analyze()
                .expect("generated worksheets validate")
                .speedup;
            let axis = |center: f64, digits: i32| -> Vec<f64> {
                (0..EXPLORE_AXIS)
                    .map(|i| round(center * (0.5 + i as f64 / EXPLORE_AXIS as f64), digits))
                    .collect()
            };
            DesignOp::Explore {
                min_speedup: round(base * rng.range(0.3, 0.7), 3),
                fclocks: axis(ws.comp.fclock.hz(), -3),
                throughput_procs: axis(ws.comp.throughput_proc, 4),
            }
        };
        DesignCase { toml, op }
    }

    /// Corners an explore op gates (0 for optimize).
    pub fn corners(&self) -> usize {
        match &self.op {
            DesignOp::Optimize { .. } => 0,
            DesignOp::Explore {
                fclocks,
                throughput_procs,
                ..
            } => fclocks.len() * throughput_procs.len() * 2,
        }
    }

    /// The `rat` arguments after the worksheet path is known.
    pub fn args(&self, worksheet_path: &str) -> Vec<String> {
        let csv = |vs: &[f64]| vs.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        let mut args: Vec<String> = vec!["--jobs".into(), "2".into()];
        match &self.op {
            DesignOp::Optimize {
                seed,
                generations,
                population,
            } => args.extend([
                "optimize".into(),
                worksheet_path.into(),
                "--seed".into(),
                seed.to_string(),
                "--generations".into(),
                generations.to_string(),
                "--population".into(),
                population.to_string(),
            ]),
            DesignOp::Explore {
                min_speedup,
                fclocks,
                throughput_procs,
            } => args.extend([
                "explore".into(),
                worksheet_path.into(),
                min_speedup.to_string(),
                "--fclocks".into(),
                csv(fclocks),
                "--throughput-procs".into(),
                csv(throughput_procs),
            ]),
        }
        args
    }
}
