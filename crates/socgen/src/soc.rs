//! SoC configurations and top-level assembly.

use crate::program::default_program;
use ssresf_netlist::{Design, NetlistError};

/// Memory technology of the SoC's data memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// Six-transistor SRAM.
    Sram,
    /// 1T1C DRAM (with a refresh counter in the macro periphery).
    Dram,
    /// Radiation-hardened (DICE-style) SRAM.
    RadHardSram,
}

impl MemoryKind {
    /// Display name matching the paper's Table I.
    pub fn name(self) -> &'static str {
        match self {
            MemoryKind::Sram => "SRAM",
            MemoryKind::Dram => "DRAM",
            MemoryKind::RadHardSram => "Rad-hard SRAM",
        }
    }

    /// The bit-cell kind used in the generated array.
    pub fn bit_cell(self) -> ssresf_netlist::CellKind {
        match self {
            MemoryKind::Sram => ssresf_netlist::CellKind::SramBit,
            MemoryKind::Dram => ssresf_netlist::CellKind::DramBit,
            MemoryKind::RadHardSram => ssresf_netlist::CellKind::RadHardBit,
        }
    }
}

/// Bus protocol family; selects the fabric's pipeline depth and per-lane
/// complexity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusKind {
    /// Simple single-stage peripheral bus.
    Apb,
    /// Two-stage pipelined high-performance bus.
    Ahb,
    /// Multi-channel three-stage interconnect.
    Axi,
}

impl BusKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BusKind::Apb => "APB",
            BusKind::Ahb => "AHB",
            BusKind::Axi => "AXI",
        }
    }

    /// Number of register pipeline stages per data lane.
    pub fn pipeline_stages(self) -> usize {
        match self {
            BusKind::Apb => 1,
            BusKind::Ahb => 2,
            BusKind::Axi => 3,
        }
    }
}

/// Instruction-set configuration of the generated cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Base integer ISA (8-bit synthetic datapath).
    Rv32i,
    /// Base + hardware multiplier.
    Rv32im,
    /// Base + multiplier + FPU-style second datapath.
    Rv32imf,
    /// Base + multiplier + FPU + atomic unit with doubled FPU width.
    Rv32imafd,
    /// 64-bit base (16-bit synthetic datapath, 8 registers).
    Rv64i,
}

impl Isa {
    /// Display name matching the paper's Table I.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Rv32i => "RV32I",
            Isa::Rv32im => "RV32IM",
            Isa::Rv32imf => "RV32IMF",
            Isa::Rv32imafd => "RV32IMAFD",
            Isa::Rv64i => "RV64I",
        }
    }

    /// Synthetic datapath width in bits.
    pub fn width(self) -> usize {
        match self {
            Isa::Rv64i => 16,
            _ => 8,
        }
    }

    /// Register-file address bits (4 or 8 registers).
    pub fn reg_addr_bits(self) -> usize {
        match self {
            Isa::Rv64i => 3,
            _ => 2,
        }
    }

    /// Whether the core has a hardware multiplier (M).
    pub fn has_mul(self) -> bool {
        !matches!(self, Isa::Rv32i | Isa::Rv64i)
    }

    /// Whether the core has the FPU-style datapath (F).
    pub fn has_fpu(self) -> bool {
        matches!(self, Isa::Rv32imf | Isa::Rv32imafd)
    }

    /// Whether the core has the atomic unit (A, implies widened FPU for D).
    pub fn has_atomic(self) -> bool {
        matches!(self, Isa::Rv32imafd)
    }

    /// The workload program for this ISA.
    pub fn program(self) -> crate::program::Program {
        default_program(self.has_mul(), self.has_fpu(), self.has_atomic())
    }
}

/// Full configuration of one generated SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Benchmark name (e.g. `PULP SoC_1`).
    pub name: String,
    /// Memory technology.
    pub memory: MemoryKind,
    /// Nominal memory capacity in bytes (extrapolated; see
    /// [`SocInfo::memory_scale_factor`]).
    pub memory_bytes: u64,
    /// Bus protocol family.
    pub bus: BusKind,
    /// Bus width in data lanes (bits).
    pub bus_width: usize,
    /// Core ISA.
    pub isa: Isa,
    /// Number of CPU cores (1 or 2).
    pub cores: usize,
    /// Address bits of the elaborated memory sub-array (`2^n` rows are
    /// physically instantiated). The CPU and bus always address the low
    /// [`MEM_ADDR_BITS`] rows; rows above them are streamed statistically —
    /// they exist as real bit cells for fault injection, while capacity
    /// beyond `2^n` rows is extrapolated through
    /// [`SocInfo::memory_scale_factor`] (Eq. 2). The Table-1 presets use
    /// [`MEM_ADDR_BITS`]; scale presets like [`SocConfig::mega`] raise it.
    pub memory_rows_log2: usize,
}

impl SocConfig {
    /// The ten benchmark configurations of the paper's Table I.
    pub fn table1() -> Vec<SocConfig> {
        let kb = 1024u64;
        let mb = 1024 * kb;
        let spec: [(&str, MemoryKind, u64, BusKind, usize, Isa, usize); 10] = [
            (
                "PULP SoC_1",
                MemoryKind::Sram,
                64 * kb,
                BusKind::Apb,
                8,
                Isa::Rv32i,
                1,
            ),
            (
                "PULP SoC_2",
                MemoryKind::Dram,
                64 * kb,
                BusKind::Apb,
                16,
                Isa::Rv32i,
                2,
            ),
            (
                "PULP SoC_3",
                MemoryKind::Sram,
                256 * kb,
                BusKind::Ahb,
                32,
                Isa::Rv32im,
                1,
            ),
            (
                "PULP SoC_4",
                MemoryKind::Dram,
                256 * kb,
                BusKind::Ahb,
                64,
                Isa::Rv32im,
                2,
            ),
            (
                "PULP SoC_5",
                MemoryKind::Sram,
                mb,
                BusKind::Axi,
                128,
                Isa::Rv32imf,
                1,
            ),
            (
                "PULP SoC_6",
                MemoryKind::Dram,
                mb,
                BusKind::Axi,
                256,
                Isa::Rv32imf,
                2,
            ),
            (
                "PULP SoC_7",
                MemoryKind::Sram,
                2 * mb,
                BusKind::Apb,
                512,
                Isa::Rv32imafd,
                1,
            ),
            (
                "PULP SoC_8",
                MemoryKind::Dram,
                2 * mb,
                BusKind::Apb,
                1024,
                Isa::Rv32imafd,
                2,
            ),
            (
                "PULP SoC_9",
                MemoryKind::Sram,
                4 * mb,
                BusKind::Ahb,
                2048,
                Isa::Rv64i,
                1,
            ),
            (
                "PULP SoC_10",
                MemoryKind::RadHardSram,
                4 * mb,
                BusKind::Ahb,
                4096,
                Isa::Rv64i,
                2,
            ),
        ];
        spec.into_iter()
            .map(
                |(name, memory, memory_bytes, bus, bus_width, isa, cores)| SocConfig {
                    name: name.to_owned(),
                    memory,
                    memory_bytes,
                    bus,
                    bus_width,
                    isa,
                    cores,
                    memory_rows_log2: MEM_ADDR_BITS,
                },
            )
            .collect()
    }

    /// The rad-hard evaluation preset: SoC_1's size and ISA with the
    /// radiation-hardened memory technology. Pair with
    /// [`harden_registers`] to also swap the register flops for their
    /// hardened drop-ins — together they model a fully rad-hard build of
    /// the smallest benchmark, the differential-campaign reference target.
    pub fn rad_hard() -> SocConfig {
        SocConfig {
            name: "PULP SoC_RH".to_owned(),
            memory: MemoryKind::RadHardSram,
            ..SocConfig::table1()[0].clone()
        }
    }

    /// The million-cell scale preset: SoC_9's technology choices with a
    /// `2^15`-row streamed memory sub-array, putting the flattened netlist
    /// past one million cells while the nominal 64 MiB capacity stays
    /// extrapolated. The scale-smoke bench budgets build+cluster+campaign
    /// on this preset.
    pub fn mega() -> SocConfig {
        let mb = 1024 * 1024u64;
        SocConfig {
            name: "PULP SoC_Mega".to_owned(),
            memory: MemoryKind::Sram,
            memory_bytes: 64 * mb,
            bus: BusKind::Ahb,
            bus_width: 16,
            isa: Isa::Rv64i,
            cores: 1,
            memory_rows_log2: 15,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a descriptive [`NetlistError::Parse`]-style message via
    /// `Result<(), String>` when fields are out of range.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=2).contains(&self.cores) {
            return Err(format!("cores must be 1 or 2, got {}", self.cores));
        }
        if self.bus_width == 0 || self.bus_width > 8192 {
            return Err(format!("bus_width {} out of range", self.bus_width));
        }
        if self.memory_bytes == 0 {
            return Err("memory_bytes must be positive".into());
        }
        if !(MEM_ADDR_BITS..=20).contains(&self.memory_rows_log2) {
            return Err(format!(
                "memory_rows_log2 {} out of range {MEM_ADDR_BITS}..=20",
                self.memory_rows_log2
            ));
        }
        if (1u64 << self.memory_rows_log2) * self.isa.width() as u64 > self.memory_bytes * 8 {
            return Err(format!(
                "memory_rows_log2 {} elaborates more bits than the nominal capacity",
                self.memory_rows_log2
            ));
        }
        Ok(())
    }
}

/// Metadata of a generated SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct SocInfo {
    /// The configuration it was generated from.
    pub config: SocConfig,
    /// Bits physically instantiated in the memory sub-array.
    pub memory_bits_modeled: u64,
    /// `capacity_bits / memory_bits_modeled` — the statistical factor by
    /// which memory-array SER and cross-section measurements on the
    /// sub-array extrapolate to the nominal capacity.
    pub memory_scale_factor: f64,
}

/// A generated SoC: design plus metadata.
#[derive(Debug)]
pub struct BuiltSoc {
    /// The hierarchical design (top module set).
    pub design: Design,
    /// Generation metadata.
    pub info: SocInfo,
}

/// Address bits the CPU and bus fabric drive (16 addressable words); also
/// the smallest — and the Table-1 presets' — elaborated sub-array depth
/// (see [`SocConfig::memory_rows_log2`]).
pub const MEM_ADDR_BITS: usize = 4;

/// Builds the complete SoC for `config`.
///
/// The top module is named after the config (sanitized) and has ports
/// `clk`, `rst_n`, `out_*` (the CPU output port), and status bits
/// `bus_parity`, `mem_parity`, `alive_*`, `fpu_flag_*`, `amo_flag_*`.
///
/// # Errors
///
/// Propagates netlist construction failures; panics on an invalid config
/// (validate with [`SocConfig::validate`] first).
pub fn build_soc(config: &SocConfig) -> Result<BuiltSoc, NetlistError> {
    if let Err(msg) = config.validate() {
        panic!("invalid SocConfig: {msg}");
    }
    crate::topbuild::build(config)
}

/// Rad-hard register emission hook: swaps every cell of the flattened SoC
/// that has a hardened drop-in variant (`Dff`/`Dffr` →
/// `HardDff`/`HardDffr`, `SramBit`/`DramBit` → `RadHardBit`) in place,
/// preserving cell ids and behavior.
///
/// Memory bit cells are governed by [`MemoryKind`] at generation time
/// (`RadHardSram` arrays already instantiate `RadHardBit`), so on a
/// [`SocConfig::rad_hard`] build this hook only touches the register
/// flops, completing the rad-hard build. Enable-flops (`Dffre`) have no
/// hardened variant and are left untouched.
pub fn harden_registers(flat: &mut ssresf_netlist::FlatNetlist) -> ssresf_netlist::HardeningReport {
    let targets: Vec<ssresf_netlist::CellId> = flat
        .iter_cells()
        .filter(|(_, c)| ssresf_netlist::hardened_kind(c.kind).is_some())
        .map(|(id, _)| id)
        .collect();
    flat.ff_harden(&targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_parameters() {
        let configs = SocConfig::table1();
        assert_eq!(configs.len(), 10);
        assert_eq!(configs[0].bus_width, 8);
        assert_eq!(configs[9].bus_width, 4096);
        assert_eq!(configs[9].memory, MemoryKind::RadHardSram);
        assert_eq!(configs[4].isa, Isa::Rv32imf);
        assert_eq!(configs[1].cores, 2);
        // Bus widths double down the table.
        for pair in configs.windows(2) {
            assert_eq!(pair[1].bus_width, pair[0].bus_width * 2);
        }
        for c in &configs {
            assert!(c.validate().is_ok(), "{}", c.name);
        }
    }

    #[test]
    fn isa_extension_flags() {
        assert!(!Isa::Rv32i.has_mul());
        assert!(Isa::Rv32im.has_mul() && !Isa::Rv32im.has_fpu());
        assert!(Isa::Rv32imf.has_fpu() && !Isa::Rv32imf.has_atomic());
        assert!(Isa::Rv32imafd.has_atomic());
        assert_eq!(Isa::Rv64i.width(), 16);
        assert_eq!(Isa::Rv64i.reg_addr_bits(), 3);
        assert_eq!(Isa::Rv32i.width(), 8);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = SocConfig::table1()[0].clone();
        c.cores = 3;
        assert!(c.validate().is_err());
        let mut c = SocConfig::table1()[0].clone();
        c.bus_width = 0;
        assert!(c.validate().is_err());
        let mut c = SocConfig::table1()[0].clone();
        c.memory_bytes = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_memory_rows() {
        let mut c = SocConfig::table1()[0].clone();
        c.memory_rows_log2 = MEM_ADDR_BITS - 1;
        assert!(c.validate().is_err());
        let mut c = SocConfig::table1()[0].clone();
        c.memory_rows_log2 = 21;
        assert!(c.validate().is_err());
        // Elaborating more bits than the nominal capacity is contradictory.
        let mut c = SocConfig::table1()[0].clone();
        c.memory_bytes = 16;
        c.memory_rows_log2 = 8;
        assert!(c.validate().is_err());
    }

    #[test]
    fn mega_preset_streams_its_memory() {
        let mega = SocConfig::mega();
        assert!(mega.validate().is_ok());
        assert_eq!(mega.memory_rows_log2, 15);
        // The nominal capacity stays extrapolated: far more bits than the
        // elaborated sub-array.
        let modeled = (1u64 << mega.memory_rows_log2) * mega.isa.width() as u64;
        assert!(mega.memory_bytes * 8 > modeled);
    }

    #[test]
    fn streamed_subarray_reports_full_capacity_scale() {
        // A modestly deepened sub-array must lower the extrapolation factor
        // exactly in proportion and elaborate the extra rows for real.
        let mut c = SocConfig::table1()[0].clone();
        c.memory_rows_log2 = 6;
        let shallow = build_soc(&SocConfig::table1()[0]).unwrap();
        let deep = build_soc(&c).unwrap();
        assert_eq!(
            deep.info.memory_bits_modeled,
            shallow.info.memory_bits_modeled * 4
        );
        assert!(
            (deep.info.memory_scale_factor - shallow.info.memory_scale_factor / 4.0).abs() < 1e-9
        );
        let flat = deep.design.flatten().unwrap();
        let bits = flat
            .iter_cells()
            .filter(|(_, cell)| cell.kind.is_memory_bit())
            .count() as u64;
        assert_eq!(bits, deep.info.memory_bits_modeled);
        flat.levelize().unwrap();
    }

    #[test]
    fn isa_programs_grow_with_extensions() {
        assert!(Isa::Rv32imafd.program().len() > Isa::Rv32i.program().len());
    }

    #[test]
    fn rad_hard_preset_is_soc1_with_hard_memory() {
        let preset = SocConfig::rad_hard();
        let soc1 = &SocConfig::table1()[0];
        assert!(preset.validate().is_ok());
        assert_eq!(preset.memory, MemoryKind::RadHardSram);
        assert_eq!(preset.bus_width, soc1.bus_width);
        assert_eq!(preset.isa, soc1.isa);
        assert_eq!(preset.memory_bytes, soc1.memory_bytes);
    }

    #[test]
    fn harden_registers_swaps_flops_in_place() {
        use ssresf_netlist::CellKind;
        let built = build_soc(&SocConfig::rad_hard()).unwrap();
        let mut flat = built.design.flatten().unwrap();
        let cell_count = flat.cells().len();
        let soft_flops = flat
            .iter_cells()
            .filter(|(_, c)| matches!(c.kind, CellKind::Dff | CellKind::Dffr))
            .count();
        assert!(soft_flops > 0, "SoC must have plain flops to harden");
        // Memory already instantiates RadHardBit under this preset.
        assert!(flat
            .iter_cells()
            .any(|(_, c)| c.kind == CellKind::RadHardBit));

        let report = harden_registers(&mut flat);
        assert_eq!(report.hardened.len(), soft_flops);
        assert_eq!(report.added_cells, 0);
        assert_eq!(flat.cells().len(), cell_count);
        assert!(report.transistors_after > report.transistors_before);
        assert_eq!(
            flat.iter_cells()
                .filter(|(_, c)| matches!(c.kind, CellKind::Dff | CellKind::Dffr))
                .count(),
            0
        );
        // Still a valid, simulatable netlist.
        flat.levelize().unwrap();
    }
}
