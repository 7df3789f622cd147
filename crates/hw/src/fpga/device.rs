//! FPGA device catalog.
//!
//! The paper searches two Intel devices: an Arria 10 GX 1150 at 250 MHz
//! (759 GFLOP/s FP32 peak, one DDR4 bank at 19.2 GB/s on the dev kit)
//! and a Stratix 10 2800 at 400 MHz with 4 DDR banks ("scaling back the
//! roofline to 4.6 available TFLOP/s"). Changing the search target is
//! just a different [`FpgaDevice`] value — "all that is required to
//! change the design search space ... is the hardware configuration
//! used by the hardware database worker" (§III-C).


/// External DRAM configuration attached to the accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrConfig {
    /// Number of independent DDR banks.
    pub banks: u32,
    /// Peak bandwidth of one bank in GB/s.
    pub gb_per_s_per_bank: f64,
}

impl DdrConfig {
    /// `banks` DDR4-2400 banks at 19.2 GB/s each, the Arria 10 dev
    /// kit's memory (one bank there).
    pub fn ddr4(banks: u32) -> Self {
        Self {
            banks,
            gb_per_s_per_bank: 19.2,
        }
    }

    /// Total bandwidth in bytes per second.
    pub fn bytes_per_s(&self) -> f64 {
        self.banks as f64 * self.gb_per_s_per_bank * 1e9
    }
}

/// An FPGA device plus board attributes relevant to the overlay model.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    /// Marketing name, e.g. `"Arria 10 GX 1150"`.
    pub name: String,
    /// Hardened floating-point DSP blocks (one FP32 FMA each per cycle).
    pub dsp_blocks: u32,
    /// M20K embedded memory blocks (20 kbit each).
    pub m20k_blocks: u32,
    /// Adaptive logic modules.
    pub alms: u32,
    /// Target overlay clock in MHz (the paper's achieved OpenCL Fmax).
    pub clock_mhz: f64,
    /// Attached DRAM.
    pub ddr: DdrConfig,
}

impl FpgaDevice {
    /// Intel Arria 10 GX 1150 at 250 MHz with `banks` DDR4 banks.
    ///
    /// Peak FP32 = 2 · 1518 DSP · 250 MHz = 759 GFLOP/s, matching §IV.
    pub fn arria10_gx1150(banks: u32) -> Self {
        Self {
            name: "Arria 10 GX 1150".to_string(),
            dsp_blocks: 1518,
            m20k_blocks: 2713,
            alms: 427_200,
            clock_mhz: 250.0,
            ddr: DdrConfig::ddr4(banks),
        }
    }

    /// Intel Stratix 10 GX 2800 at 400 MHz with `banks` DDR4 banks.
    ///
    /// Peak FP32 = 2 · 5760 DSP · 400 MHz = 4.608 TFLOP/s — the paper's
    /// "4.6 available TFLOP/s" roofline.
    pub fn stratix10_2800(banks: u32) -> Self {
        Self {
            name: "Stratix 10 2800".to_string(),
            dsp_blocks: 5760,
            m20k_blocks: 11_721,
            alms: 933_120,
            clock_mhz: 400.0,
            ddr: DdrConfig::ddr4(banks),
        }
    }

    /// Clock frequency in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_mhz * 1e6
    }

    /// Device peak FP32 throughput in FLOP/s (2 ops per DSP per cycle).
    pub fn peak_flops(&self) -> f64 {
        2.0 * self.dsp_blocks as f64 * self.clock_hz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arria10_peak_matches_paper() {
        let d = FpgaDevice::arria10_gx1150(1);
        assert!((d.peak_flops() / 1e9 - 759.0).abs() < 1e-6);
    }

    #[test]
    fn stratix10_peak_matches_paper() {
        let d = FpgaDevice::stratix10_2800(4);
        assert!((d.peak_flops() / 1e12 - 4.608).abs() < 1e-3);
    }

    #[test]
    fn ddr_bandwidth_scales_linearly_with_banks() {
        assert_eq!(DdrConfig::ddr4(1).bytes_per_s(), 19.2e9);
        assert_eq!(DdrConfig::ddr4(2).bytes_per_s(), 38.4e9);
        assert_eq!(DdrConfig::ddr4(4).bytes_per_s(), 76.8e9);
    }
}
