//! FPGA device catalog.
//!
//! Capacities for the devices the paper's case studies target, from the
//! vendors' 2007-era datasheets (Xilinx DS112 for Virtex-4, Altera Stratix-II
//! handbook). RAT's resource test only needs the three headline capacities —
//! DSP blocks, block RAMs, logic elements — plus the vendor's naming for each.

/// The flavour of basic logic element a vendor counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicKind {
    /// Xilinx slices (each: 2 LUTs + 2 flip-flops in Virtex-4).
    Slices,
    /// Altera adaptive look-up tables.
    Aluts,
    /// Generic LUT count for devices modelled loosely.
    Luts,
}

impl LogicKind {
    /// Vendor name used in resource tables.
    pub fn name(self) -> &'static str {
        match self {
            LogicKind::Slices => "Slices",
            LogicKind::Aluts => "ALUTs",
            LogicKind::Luts => "LUTs",
        }
    }
}

/// An FPGA device's headline capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    /// Device name, e.g. "Xilinx Virtex-4 LX100".
    pub name: String,
    /// Vendor's name for the DSP resource (e.g. "48-bit DSPs", "9-bit DSPs") —
    /// the granularity differs per vendor, so counts are not comparable across
    /// devices.
    pub dsp_name: String,
    /// Number of DSP blocks (in the vendor's granularity).
    pub dsp_blocks: u32,
    /// Number of block RAMs.
    pub bram_blocks: u32,
    /// Number of logic cells (in `logic_kind` units).
    pub logic_cells: u64,
    /// What the logic cells are.
    pub logic_kind: LogicKind,
    /// Native width of one dedicated multiplier, in bits (18 for both Xilinx
    /// DSP48 and Altera's 18x18 mode).
    pub native_mult_width: u32,
}

/// Xilinx Virtex-4 LX100 — the user FPGA on the Nallatech H101-PCIXM card
/// (1-D and 2-D PDF case studies). 96 DSP48 slices, 240 18-kbit block RAMs,
/// 49,152 slices.
pub fn virtex4_lx100() -> FpgaDevice {
    FpgaDevice {
        name: "Xilinx Virtex-4 LX100".into(),
        dsp_name: "48-bit DSPs".into(),
        dsp_blocks: 96,
        bram_blocks: 240,
        logic_cells: 49_152,
        logic_kind: LogicKind::Slices,
        native_mult_width: 18,
    }
}

/// Xilinx Virtex-4 SX55 — the DSP-heavy sibling the paper cites as evidence of
/// multiplier demand ("families of chips (e.g. Xilinx Virtex-4 SX series) with
/// extra multipliers"). 512 DSP48 slices, 320 block RAMs, 24,576 slices.
pub fn virtex4_sx55() -> FpgaDevice {
    FpgaDevice {
        name: "Xilinx Virtex-4 SX55".into(),
        dsp_name: "48-bit DSPs".into(),
        dsp_blocks: 512,
        bram_blocks: 320,
        logic_cells: 24_576,
        logic_kind: LogicKind::Slices,
        native_mult_width: 18,
    }
}

/// Altera Stratix-II EP2S180 — the user FPGA in the XtremeData XD1000
/// (molecular-dynamics case study). 768 9-bit DSP elements (96 full DSP
/// blocks), 768 M4K block RAMs, 143,520 ALUTs.
pub fn stratix2_ep2s180() -> FpgaDevice {
    FpgaDevice {
        name: "Altera Stratix-II EP2S180".into(),
        dsp_name: "9-bit DSPs".into(),
        dsp_blocks: 768,
        bram_blocks: 768,
        logic_cells: 143_520,
        logic_kind: LogicKind::Aluts,
        native_mult_width: 18,
    }
}

/// Xilinx Virtex-4 LX25 — the entry-level sibling, useful for "would this
/// design fit a cheaper part?" iterations. 48 DSP48s, 72 block RAMs,
/// 10,752 slices.
pub fn virtex4_lx25() -> FpgaDevice {
    FpgaDevice {
        name: "Xilinx Virtex-4 LX25".into(),
        dsp_name: "48-bit DSPs".into(),
        dsp_blocks: 48,
        bram_blocks: 72,
        logic_cells: 10_752,
        logic_kind: LogicKind::Slices,
        native_mult_width: 18,
    }
}

/// Xilinx Virtex-5 LX330 — the next generation after the paper's hardware,
/// for "what would a part upgrade buy?" studies. 192 DSP48Es, 288 36-kbit
/// block RAMs, 51,840 slices (each twice a V4 slice).
pub fn virtex5_lx330() -> FpgaDevice {
    FpgaDevice {
        name: "Xilinx Virtex-5 LX330".into(),
        dsp_name: "48-bit DSPs".into(),
        dsp_blocks: 192,
        bram_blocks: 288,
        logic_cells: 51_840,
        logic_kind: LogicKind::Slices,
        native_mult_width: 18,
    }
}

/// All catalogued devices.
pub fn all_devices() -> Vec<FpgaDevice> {
    vec![
        virtex4_lx25(),
        virtex4_lx100(),
        virtex4_sx55(),
        virtex5_lx330(),
        stratix2_ep2s180(),
    ]
}

/// Find a device by (case-insensitive) substring of its name.
pub fn find_device(needle: &str) -> Option<FpgaDevice> {
    let lower = needle.to_lowercase();
    all_devices()
        .into_iter()
        .find(|d| d.name.to_lowercase().contains(&lower))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lx100_capacities_match_datasheet() {
        let d = virtex4_lx100();
        assert_eq!(d.dsp_blocks, 96);
        assert_eq!(d.bram_blocks, 240);
        assert_eq!(d.logic_cells, 49_152);
        assert_eq!(d.logic_kind, LogicKind::Slices);
    }

    #[test]
    fn sx_series_trades_logic_for_dsps() {
        let lx = virtex4_lx100();
        let sx = virtex4_sx55();
        assert!(sx.dsp_blocks > lx.dsp_blocks);
        assert!(sx.logic_cells < lx.logic_cells);
    }

    #[test]
    fn ep2s180_uses_altera_naming() {
        let d = stratix2_ep2s180();
        assert_eq!(d.logic_kind.name(), "ALUTs");
        assert_eq!(d.dsp_name, "9-bit DSPs");
        assert_eq!(d.dsp_blocks, 768);
    }

    #[test]
    fn catalog_is_nonempty_and_named() {
        let all = all_devices();
        assert_eq!(all.len(), 5);
        assert!(all.iter().all(|d| !d.name.is_empty()));
    }

    #[test]
    fn find_device_by_substring() {
        assert_eq!(find_device("lx100").unwrap().dsp_blocks, 96);
        assert_eq!(find_device("EP2S180").unwrap().logic_kind, LogicKind::Aluts);
        assert!(find_device("stratix").is_some());
        assert!(find_device("cyclone").is_none());
    }

    #[test]
    fn family_scaling_is_sensible() {
        assert!(virtex4_lx25().dsp_blocks < virtex4_lx100().dsp_blocks);
        assert!(virtex5_lx330().dsp_blocks > virtex4_lx100().dsp_blocks);
    }
}
