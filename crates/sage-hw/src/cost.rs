//! Area, power, and energy of SAGe's logic units (Table 1).
//!
//! Constants are the paper's Design Compiler synthesis results at the
//! 22 nm node, 1 GHz: one SU + RCU + CU (+ double registers for mode 3)
//! per SSD channel.

/// Area/power of one logic unit instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicUnitCost {
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in mW at 1 GHz.
    pub power_mw: f64,
}

/// Scan Unit (per channel).
pub const SCAN_UNIT: LogicUnitCost = LogicUnitCost {
    area_mm2: 0.000_045,
    power_mw: 0.014,
};
/// Read Construction Unit (per channel).
pub const READ_CONSTRUCTION_UNIT: LogicUnitCost = LogicUnitCost {
    area_mm2: 0.000_017,
    power_mw: 0.023,
};
/// Double registers for flash-stream operation (per channel, only for
/// in-SSD integration — mode 3 in Fig. 12).
pub const DOUBLE_REGISTERS: LogicUnitCost = LogicUnitCost {
    area_mm2: 0.000_20,
    power_mw: 0.035,
};
/// Control Unit (per channel).
pub const CONTROL_UNIT: LogicUnitCost = LogicUnitCost {
    area_mm2: 0.000_029,
    power_mw: 0.025,
};

/// Approximate combined area in mm² of three Cortex-R4 cores scaled to
/// 22 nm (back-computed from the paper's "0.7% of the three cores"
/// claim for an 8-channel, in-SSD configuration).
pub const THREE_CORTEX_R4_MM2: f64 = 0.333;

/// How SAGe's hardware is integrated (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntegrationMode {
    /// Mode 1: standalone device behind PCIe/CXL.
    Pcie,
    /// Mode 2: on the analysis accelerator's die.
    OnChip,
    /// Mode 3: inside the SSD controller (needs double registers).
    InSsd,
}

/// Total hardware cost for a given channel count and integration mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwCost {
    /// Channel count (one SU/RCU/CU set per channel).
    pub channels: usize,
    /// Integration mode.
    pub mode: IntegrationMode,
}

impl HwCost {
    /// Creates the cost model.
    pub fn new(channels: usize, mode: IntegrationMode) -> HwCost {
        HwCost { channels, mode }
    }

    /// `true` when double registers are instantiated.
    pub fn has_double_registers(&self) -> bool {
        self.mode == IntegrationMode::InSsd
    }

    /// Total area in mm².
    pub fn total_area_mm2(&self) -> f64 {
        let mut per_channel =
            SCAN_UNIT.area_mm2 + READ_CONSTRUCTION_UNIT.area_mm2 + CONTROL_UNIT.area_mm2;
        if self.has_double_registers() {
            per_channel += DOUBLE_REGISTERS.area_mm2;
        }
        per_channel * self.channels as f64
    }

    /// Total logic power in mW (excluding double registers, reported
    /// separately in Table 1).
    pub fn base_power_mw(&self) -> f64 {
        (SCAN_UNIT.power_mw + READ_CONSTRUCTION_UNIT.power_mw + CONTROL_UNIT.power_mw)
            * self.channels as f64
    }

    /// Double-register power in mW (0 unless in-SSD).
    pub fn double_register_power_mw(&self) -> f64 {
        if self.has_double_registers() {
            DOUBLE_REGISTERS.power_mw * self.channels as f64
        } else {
            0.0
        }
    }

    /// Total power in mW.
    pub fn total_power_mw(&self) -> f64 {
        self.base_power_mw() + self.double_register_power_mw()
    }

    /// Area as a fraction of a reference controller area (the paper
    /// compares against the three Cortex-R4 cores of a SATA SSD
    /// controller: ~0.295 mm² at 22 nm scaling).
    pub fn fraction_of_ssd_controller_cores(&self) -> f64 {
        self.total_area_mm2() / THREE_CORTEX_R4_MM2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_channel_matches_table1_totals() {
        let hw = HwCost::new(8, IntegrationMode::InSsd);
        // Table 1: total 0.002 mm² and 0.49 mW (+0.28 for mode 3).
        assert!((hw.total_area_mm2() - 0.002).abs() < 0.0005);
        assert!((hw.base_power_mw() - 0.49).abs() < 0.01);
        assert!((hw.double_register_power_mw() - 0.28).abs() < 0.01);
    }

    #[test]
    fn pcie_mode_has_no_double_registers() {
        let hw = HwCost::new(8, IntegrationMode::Pcie);
        assert_eq!(hw.double_register_power_mw(), 0.0);
        assert!(hw.total_area_mm2() < HwCost::new(8, IntegrationMode::InSsd).total_area_mm2());
    }

    #[test]
    fn area_fraction_is_below_one_percent() {
        let hw = HwCost::new(8, IntegrationMode::InSsd);
        let frac = hw.fraction_of_ssd_controller_cores();
        assert!(frac > 0.004 && frac < 0.01, "fraction {frac}");
    }

    #[test]
    fn cost_scales_with_channels() {
        let a = HwCost::new(4, IntegrationMode::InSsd);
        let b = HwCost::new(8, IntegrationMode::InSsd);
        assert!((b.total_area_mm2() / a.total_area_mm2() - 2.0).abs() < 1e-9);
    }
}
