//! Content hashing of simulation run specifications.
//!
//! The analysis engine memoizes platform executions: two runs with the same
//! platform spec, kernel spec, workload, and clock are the same simulation and
//! must return the same [`crate::platform::Measurement`] summary. The cache
//! key is therefore a *content* digest over every input that influences the
//! schedule — not an object identity — so equal specs built independently
//! (e.g. two `catalog::nallatech_h101()` calls) collide on purpose, and a
//! one-picosecond change to a calibration constant separates them.
//!
//! The digest is 128-bit FNV-1a. It is not cryptographic; it only needs to
//! make accidental collisions between the handful of distinct run specs a
//! workspace ever simulates astronomically unlikely, while staying
//! dependency-free and byte-stable across platforms and runs.

use crate::host::HostModel;
use crate::interconnect::{AlphaCurve, Interconnect};
use crate::kernel::HardwareKernel;
use crate::platform::{AppRun, BufferMode, PlatformSpec};
use crate::time::SimTime;
use rat_core::quantity::Freq;

/// Version tag that seeds every digest. Nothing keyed by it outlives the
/// process (the [`crate::SimCache`] lives in memory), so a simulator change
/// needs no bump; changing it would move every digest, the response cache's
/// keys and their shard spread included.
const SCHEMA: &str = "fpga-sim-run-v1";

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental 128-bit FNV-1a hasher over spec content.
///
/// Field writes are framed (length-prefixed for variable-size data, tagged for
/// enums) so that adjacent fields cannot alias: `("ab", "c")` and
/// `("a", "bc")` digest differently.
#[derive(Debug, Clone)]
pub struct SpecDigest {
    state: u128,
}

impl SpecDigest {
    /// A fresh hasher seeded with the schema version.
    pub fn new() -> Self {
        let mut d = SpecDigest { state: FNV_OFFSET };
        d.write_str(SCHEMA);
        d
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb an `f64` by bit pattern (so `-0.0` and `0.0` differ, and NaN
    /// payloads are preserved — bit-identity is the contract).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorb a string, length-framed.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Absorb a small enum discriminant.
    pub fn write_tag(&mut self, tag: u8) {
        self.write_bytes(&[tag]);
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for SpecDigest {
    fn default() -> Self {
        Self::new()
    }
}

/// Types whose content participates in a run key.
pub trait Digestible {
    /// Absorb this value's content into `d`.
    fn digest_into(&self, d: &mut SpecDigest);
}

impl Digestible for SimTime {
    fn digest_into(&self, d: &mut SpecDigest) {
        d.write_u64(self.as_ps());
    }
}

impl Digestible for AlphaCurve {
    fn digest_into(&self, d: &mut SpecDigest) {
        let points = self.points();
        d.write_u64(points.len() as u64);
        for &(size, eff) in points {
            d.write_u64(size);
            d.write_f64(eff);
        }
    }
}

impl Digestible for Interconnect {
    fn digest_into(&self, d: &mut SpecDigest) {
        d.write_str(&self.name);
        // Digested as the raw bytes/second bit pattern — the same bits the
        // pre-typed field held, so every digest stayed where it was.
        d.write_f64(self.ideal_bw.bytes_per_sec());
        self.setup_write.digest_into(d);
        self.setup_read.digest_into(d);
        self.alpha_write.digest_into(d);
        self.alpha_read.digest_into(d);
        match self.max_dma_bytes {
            None => d.write_tag(0),
            Some(max) => {
                d.write_tag(1);
                d.write_u64(max);
            }
        }
    }
}

impl Digestible for HostModel {
    fn digest_into(&self, d: &mut SpecDigest) {
        self.api_call_overhead.digest_into(d);
        self.kernel_sync_overhead.digest_into(d);
    }
}

impl Digestible for PlatformSpec {
    fn digest_into(&self, d: &mut SpecDigest) {
        d.write_str(&self.name);
        self.interconnect.digest_into(d);
        self.host.digest_into(d);
        self.reconfiguration.digest_into(d);
    }
}

impl Digestible for BufferMode {
    fn digest_into(&self, d: &mut SpecDigest) {
        d.write_tag(match self {
            BufferMode::Single => 0,
            BufferMode::Double => 1,
        });
    }
}

impl Digestible for AppRun {
    fn digest_into(&self, d: &mut SpecDigest) {
        d.write_u64(self.iterations);
        d.write_u64(self.elements_per_iter);
        d.write_u64(self.input_bytes_per_iter);
        d.write_u64(self.output_bytes_per_iter);
        d.write_u64(self.final_output_bytes);
        self.buffer_mode.digest_into(d);
        d.write_tag(u8::from(self.streamed_output));
        d.write_u64(u64::from(self.parallel_kernels));
    }
}

/// The memoization key for one platform execution: platform spec + kernel
/// spec + workload + clock, under the current schema-version salt.
pub fn run_key<K: HardwareKernel + ?Sized>(
    spec: &PlatformSpec,
    kernel: &K,
    run: &AppRun,
    fclock: Freq,
) -> u128 {
    let mut d = SpecDigest::new();
    spec.digest_into(&mut d);
    let kd = kernel.spec_digest();
    d.write_u64(kd as u64);
    d.write_u64((kd >> 64) as u64);
    run.digest_into(&mut d);
    d.write_f64(fclock.hz());
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::kernel::TabulatedKernel;

    const F150: Freq = Freq::from_hz(150.0e6);
    const F100: Freq = Freq::from_hz(100.0e6);

    fn run() -> AppRun {
        AppRun::builder()
            .iterations(4)
            .elements_per_iter(512)
            .input_bytes_per_iter(2048)
            .output_bytes_per_iter(1024)
            .build()
    }

    #[test]
    fn equal_content_equal_key() {
        let k = TabulatedKernel::uniform("k", 100, 4);
        let a = run_key(&catalog::nallatech_h101(), &k, &run(), F150);
        let b = run_key(&catalog::nallatech_h101(), &k, &run(), F150);
        assert_eq!(a, b, "independently built equal specs must collide");
    }

    #[test]
    fn every_field_separates_keys() {
        let k = TabulatedKernel::uniform("k", 100, 4);
        let base = run_key(&catalog::nallatech_h101(), &k, &run(), F150);

        // Platform calibration constant.
        let mut spec = catalog::nallatech_h101();
        spec.interconnect.setup_write += SimTime::from_ps(1);
        assert_ne!(run_key(&spec, &k, &run(), F150), base);

        // Kernel spec.
        let k2 = TabulatedKernel::uniform("k", 101, 4);
        assert_ne!(run_key(&catalog::nallatech_h101(), &k2, &run(), F150), base);

        // Workload.
        let mut r = run();
        r.iterations = 5;
        assert_ne!(run_key(&catalog::nallatech_h101(), &k, &r, F150), base);

        // Clock.
        assert_ne!(run_key(&catalog::nallatech_h101(), &k, &run(), F100), base);
    }

    #[test]
    fn framing_prevents_field_aliasing() {
        let mut a = SpecDigest::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = SpecDigest::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn platforms_in_catalog_are_distinct() {
        let k = TabulatedKernel::uniform("k", 100, 4);
        let keys: Vec<u128> = [
            catalog::nallatech_h101(),
            catalog::xd1000(),
            catalog::generic_pcie_gen2_x8(),
        ]
        .iter()
        .map(|p| run_key(p, &k, &run(), F100))
        .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[1], keys[2]);
        assert_ne!(keys[0], keys[2]);
    }
}
