//! Content-addressed cache keys for rendered responses.
//!
//! Two tiers, both 128-bit FNV-1a digests via [`fpga_sim::SpecDigest`] (the
//! same framed scheme the simulation cache keys its runs by):
//!
//! - [`raw_key`]: digest of the route plus the *byte-exact* request body.
//!   Cheap enough to compute before any parsing, so a repeated identical
//!   request skips JSON and TOML decoding entirely — the warm fast path.
//! - [`request_key`]: digest of the *canonicalized* parsed request plus the
//!   engine knobs that feed determinism (root seed, jobs). Two bodies that
//!   differ only in JSON whitespace, key order, or an explicit seed equal to
//!   the default all collapse onto one entry.
//!
//! Every field is framed (length-prefixed strings, tagged options, counted
//! lists) exactly as `fpga-sim`'s digest does, so no two field sequences can
//! collide by concatenation.

use fpga_sim::SpecDigest;
use rat_core::params::{Buffering, RatInput};
use rat_core::sweep::SweepParam;
use rat_core::uncertainty::ParamRange;

use crate::api::{ApiRequest, OptimizeSpec};

/// Key for the raw fast tier: route + exact body bytes. Any byte difference
/// is a different key; canonicalization is the parsed tier's job.
pub fn raw_key(path: &str, body: &str) -> u128 {
    let mut d = SpecDigest::new();
    d.write_str("response-raw-v1");
    d.write_str(path);
    d.write_str(body);
    d.finish()
}

fn write_f64_list(d: &mut SpecDigest, vs: &[f64]) {
    d.write_u64(vs.len() as u64);
    for &v in vs {
        d.write_f64(v);
    }
}

fn write_opt_f64_list(d: &mut SpecDigest, vs: Option<&Vec<f64>>) {
    match vs {
        None => d.write_tag(0),
        Some(vs) => {
            d.write_tag(1);
            write_f64_list(d, vs);
        }
    }
}

fn buffering_tag(b: Buffering) -> u8 {
    match b {
        Buffering::Single => 0,
        Buffering::Double => 1,
    }
}

fn write_opt_bufferings(d: &mut SpecDigest, bs: Option<&Vec<Buffering>>) {
    match bs {
        None => d.write_tag(0),
        Some(bs) => {
            d.write_tag(1);
            d.write_u64(bs.len() as u64);
            for &b in bs {
                d.write_tag(buffering_tag(b));
            }
        }
    }
}

fn param_tag(p: SweepParam) -> u8 {
    match p {
        SweepParam::Fclock => 0,
        SweepParam::AlphaWrite => 1,
        SweepParam::AlphaRead => 2,
        SweepParam::AlphaBoth => 3,
        SweepParam::ThroughputProc => 4,
        SweepParam::OpsPerElement => 5,
        SweepParam::ElementsIn => 6,
        SweepParam::Iterations => 7,
    }
}

fn write_input(d: &mut SpecDigest, input: &RatInput) {
    d.write_str(&input.name);
    d.write_u64(input.dataset.elements_in);
    d.write_u64(input.dataset.elements_out);
    d.write_u64(input.dataset.bytes_per_element);
    d.write_f64(input.comm.ideal_bandwidth.bytes_per_sec());
    d.write_f64(input.comm.alpha_write);
    d.write_f64(input.comm.alpha_read);
    d.write_f64(input.comp.ops_per_element);
    d.write_f64(input.comp.throughput_proc);
    d.write_f64(input.comp.fclock.hz());
    d.write_f64(input.software.t_soft.seconds());
    d.write_u64(input.software.iterations);
    d.write_tag(buffering_tag(input.buffering));
}

fn write_optimize_spec(d: &mut SpecDigest, spec: &OptimizeSpec, root_seed: u64) {
    // The seed resolves against the engine default so an explicit
    // `"seed": <root_seed>` and an unseeded request share an entry.
    d.write_u64(spec.seed.unwrap_or(root_seed));
    match spec.generations {
        None => d.write_tag(0),
        Some(g) => {
            d.write_tag(1);
            d.write_u64(u64::from(g));
        }
    }
    match spec.population {
        None => d.write_tag(0),
        Some(p) => {
            d.write_tag(1);
            d.write_u64(p as u64);
        }
    }
    for range in [spec.fclock_range, spec.throughput_range] {
        match range {
            None => d.write_tag(0),
            Some((lo, hi)) => {
                d.write_tag(1);
                d.write_f64(lo);
                d.write_f64(hi);
            }
        }
    }
    write_opt_bufferings(d, spec.bufferings.as_ref());
    match &spec.devices {
        None => d.write_tag(0),
        Some(ds) => {
            d.write_tag(1);
            d.write_u64(ds.len() as u64);
            for dev in ds {
                d.write_str(dev);
            }
        }
    }
    match &spec.precision_bits {
        None => d.write_tag(0),
        Some(bits) => {
            d.write_tag(1);
            d.write_u64(bits.len() as u64);
            for &b in bits {
                d.write_u64(u64::from(b));
            }
        }
    }
}

fn write_ranges(d: &mut SpecDigest, ranges: &[ParamRange]) {
    d.write_u64(ranges.len() as u64);
    for r in ranges {
        d.write_tag(param_tag(r.param));
        d.write_f64(r.lo);
        d.write_f64(r.hi);
    }
}

/// Key for the canonical tier: the parsed request plus the engine knobs a
/// response depends on. Seeds resolve to their engine defaults here, so the
/// key captures what will actually be computed, not how it was spelled.
pub fn request_key(req: &ApiRequest, root_seed: u64, jobs: usize) -> u128 {
    let mut d = SpecDigest::new();
    d.write_str("response-v1");
    d.write_u64(root_seed);
    d.write_u64(jobs as u64);
    match req {
        ApiRequest::Solve {
            input,
            target,
            strict,
        } => {
            d.write_tag(0);
            write_input(&mut d, input);
            d.write_f64(*target);
            d.write_tag(u8::from(*strict));
        }
        ApiRequest::Sweep {
            input,
            param,
            values,
        } => {
            d.write_tag(1);
            write_input(&mut d, input);
            d.write_tag(param_tag(*param));
            write_f64_list(&mut d, values);
        }
        ApiRequest::Uncertainty {
            input,
            ranges,
            samples,
            seed,
        } => {
            d.write_tag(2);
            write_input(&mut d, input);
            write_ranges(&mut d, ranges);
            d.write_u64(*samples as u64);
            d.write_u64(seed.unwrap_or(root_seed));
        }
        ApiRequest::Explore {
            input,
            min_speedup,
            fclocks,
            throughput_procs,
            bufferings,
        } => {
            d.write_tag(3);
            write_input(&mut d, input);
            d.write_f64(*min_speedup);
            write_opt_f64_list(&mut d, fclocks.as_ref());
            write_opt_f64_list(&mut d, throughput_procs.as_ref());
            write_opt_bufferings(&mut d, bufferings.as_ref());
        }
        ApiRequest::Optimize { input, spec } => {
            d.write_tag(4);
            write_input(&mut d, input);
            write_optimize_spec(&mut d, spec, root_seed);
        }
        ApiRequest::Sensitivity { input } => {
            d.write_tag(5);
            write_input(&mut d, input);
        }
        ApiRequest::Simulate { app, mhz } => {
            d.write_tag(6);
            d.write_str(app);
            d.write_f64(*mhz);
        }
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    fn pdf1d_example() -> rat_core::params::RatInput {
        rat_apps::pdf::pdf1d::rat_input(150.0e6)
    }

    fn solve_req(target: f64, strict: bool) -> ApiRequest {
        ApiRequest::Solve {
            input: pdf1d_example(),
            target,
            strict,
        }
    }

    #[test]
    fn equal_requests_share_a_key_and_knobs_split_it() {
        let a = request_key(&solve_req(8.0, false), 42, 1);
        let b = request_key(&solve_req(8.0, false), 42, 1);
        assert_eq!(a, b);
        assert_ne!(a, request_key(&solve_req(8.0, true), 42, 1), "strict flag");
        assert_ne!(a, request_key(&solve_req(9.0, false), 42, 1), "target");
        assert_ne!(a, request_key(&solve_req(8.0, false), 43, 1), "root seed");
        assert_ne!(a, request_key(&solve_req(8.0, false), 42, 2), "jobs");
    }

    #[test]
    fn explicit_default_seed_collapses_onto_unseeded() {
        let input = pdf1d_example();
        let ranges = vec![ParamRange::new(SweepParam::AlphaWrite, 0.3, 0.6)];
        let unseeded = ApiRequest::Uncertainty {
            input: input.clone(),
            ranges: ranges.clone(),
            samples: 100,
            seed: None,
        };
        let seeded = ApiRequest::Uncertainty {
            input,
            ranges,
            samples: 100,
            seed: Some(42),
        };
        assert_eq!(request_key(&unseeded, 42, 1), request_key(&seeded, 42, 1));
        assert_ne!(request_key(&unseeded, 7, 1), request_key(&seeded, 7, 1));
    }

    #[test]
    fn raw_key_is_byte_exact() {
        assert_eq!(raw_key("/v1/solve", "{}"), raw_key("/v1/solve", "{}"));
        assert_ne!(raw_key("/v1/solve", "{}"), raw_key("/v1/solve", "{ }"));
        assert_ne!(raw_key("/v1/solve", "{}"), raw_key("/v1/sweep", "{}"));
    }

    #[test]
    fn modes_never_collide() {
        let input = pdf1d_example();
        let keys = [
            request_key(&solve_req(8.0, false), 42, 1),
            request_key(
                &ApiRequest::Sensitivity {
                    input: input.clone(),
                },
                42,
                1,
            ),
            request_key(
                &ApiRequest::Simulate {
                    app: "sort".into(),
                    mhz: 147.0,
                },
                42,
                1,
            ),
            request_key(
                &ApiRequest::Optimize {
                    input,
                    spec: OptimizeSpec::default(),
                },
                42,
                1,
            ),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
