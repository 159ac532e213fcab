//! The standard-cell library understood by SSRESF.
//!
//! Every primitive cell has a fixed pin convention: a list of named input
//! pins followed by exactly one output pin. Sequential cells are clocked on
//! the rising edge of their `CLK` pin. Memory bit cells ([`CellKind::SramBit`],
//! [`CellKind::DramBit`], [`CellKind::RadHardBit`]) behave like write-enabled
//! flip-flops but carry distinct [`RadiationClass`]es so the radiation model
//! can assign them different single-event cross-sections.

/// Kind of a primitive standard cell.
///
/// The pin conventions (in order) are documented per variant; the single
/// output pin is named `Y` for combinational cells, `Q` for sequential cells
/// and `O` for tie cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellKind {
    /// Constant 0 driver. Pins: `O`.
    Tie0,
    /// Constant 1 driver. Pins: `O`.
    Tie1,
    /// Buffer. Pins: `A` → `Y`.
    Buf,
    /// Inverter. Pins: `A` → `Y`.
    Inv,
    /// 2-input AND. Pins: `A`, `B` → `Y`.
    And2,
    /// 2-input OR. Pins: `A`, `B` → `Y`.
    Or2,
    /// 2-input NAND. Pins: `A`, `B` → `Y`.
    Nand2,
    /// 2-input NOR. Pins: `A`, `B` → `Y`.
    Nor2,
    /// 2-input XOR. Pins: `A`, `B` → `Y`.
    Xor2,
    /// 2-input XNOR. Pins: `A`, `B` → `Y`.
    Xnor2,
    /// 3-input AND. Pins: `A`, `B`, `C` → `Y`.
    And3,
    /// 3-input OR. Pins: `A`, `B`, `C` → `Y`.
    Or3,
    /// 3-input NAND. Pins: `A`, `B`, `C` → `Y`.
    Nand3,
    /// 3-input NOR. Pins: `A`, `B`, `C` → `Y`.
    Nor3,
    /// 2:1 multiplexer, `Y = S ? D1 : D0`. Pins: `D0`, `D1`, `S` → `Y`.
    Mux2,
    /// AND-OR-invert, `Y = !((A & B) | C)`. Pins: `A`, `B`, `C` → `Y`.
    Aoi21,
    /// OR-AND-invert, `Y = !((A | B) & C)`. Pins: `A`, `B`, `C` → `Y`.
    Oai21,
    /// Rising-edge D flip-flop. Pins: `CLK`, `D` → `Q`.
    Dff,
    /// D flip-flop with asynchronous active-low reset. Pins: `CLK`, `D`, `RSTN` → `Q`.
    Dffr,
    /// D flip-flop with clock enable. Pins: `CLK`, `D`, `EN` → `Q`.
    Dffe,
    /// D flip-flop with async active-low reset and enable.
    /// Pins: `CLK`, `D`, `RSTN`, `EN` → `Q`.
    Dffre,
    /// Level-sensitive latch, transparent while `EN` is high. Pins: `EN`, `D` → `Q`.
    Latch,
    /// Radiation-hardened (DICE) D flip-flop; pin- and behavior-compatible
    /// with [`CellKind::Dff`] but roughly twice the area and a strongly
    /// reduced SEU cross-section. Pins: `CLK`, `D` → `Q`.
    HardDff,
    /// Radiation-hardened D flip-flop with active-low reset; pin- and
    /// behavior-compatible with [`CellKind::Dffr`]. Pins: `CLK`, `D`, `RSTN` → `Q`.
    HardDffr,
    /// Six-transistor SRAM storage bit. Pins: `CLK`, `WE`, `D` → `Q`.
    SramBit,
    /// One-transistor-one-capacitor DRAM storage bit. Pins: `CLK`, `WE`, `D` → `Q`.
    DramBit,
    /// Radiation-hardened (e.g. DICE) SRAM storage bit. Pins: `CLK`, `WE`, `D` → `Q`.
    RadHardBit,
}

/// Radiation susceptibility class of a cell, used to select the single-event
/// cross-section curve in the radiation model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RadiationClass {
    /// Combinational logic: susceptible to single-event transients (SET).
    Combinational,
    /// Flip-flops and latches: susceptible to single-event upsets (SEU).
    FlipFlop,
    /// SRAM bit cells: high SEU susceptibility.
    SramCell,
    /// DRAM bit cells: capacitive storage, lower direct-upset susceptibility.
    DramCell,
    /// Radiation-hardened storage: strongly reduced SEU susceptibility.
    RadHardCell,
}

/// All cell kinds, in declaration order (`ALL_CELL_KINDS[kind as usize]`
/// is `kind`), for exhaustive iteration in tests and for per-kind tables
/// indexed by `kind as usize`.
pub const ALL_CELL_KINDS: &[CellKind] = &[
    CellKind::Tie0,
    CellKind::Tie1,
    CellKind::Buf,
    CellKind::Inv,
    CellKind::And2,
    CellKind::Or2,
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::And3,
    CellKind::Or3,
    CellKind::Nand3,
    CellKind::Nor3,
    CellKind::Mux2,
    CellKind::Aoi21,
    CellKind::Oai21,
    CellKind::Dff,
    CellKind::Dffr,
    CellKind::Dffe,
    CellKind::Dffre,
    CellKind::Latch,
    CellKind::HardDff,
    CellKind::HardDffr,
    CellKind::SramBit,
    CellKind::DramBit,
    CellKind::RadHardBit,
];

impl CellKind {
    /// Library name of the cell, as emitted in structural Verilog.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Tie0 => "TIE0",
            CellKind::Tie1 => "TIE1",
            CellKind::Buf => "BUF",
            CellKind::Inv => "INV",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::And3 => "AND3",
            CellKind::Or3 => "OR3",
            CellKind::Nand3 => "NAND3",
            CellKind::Nor3 => "NOR3",
            CellKind::Mux2 => "MUX2",
            CellKind::Aoi21 => "AOI21",
            CellKind::Oai21 => "OAI21",
            CellKind::Dff => "DFF",
            CellKind::Dffr => "DFFR",
            CellKind::Dffe => "DFFE",
            CellKind::Dffre => "DFFRE",
            CellKind::Latch => "LATCH",
            CellKind::HardDff => "HDFF",
            CellKind::HardDffr => "HDFFR",
            CellKind::SramBit => "SRAMB",
            CellKind::DramBit => "DRAMB",
            CellKind::RadHardBit => "RHSRAMB",
        }
    }

    /// Looks up a cell kind from its library [`name`](CellKind::name).
    pub fn from_name(name: &str) -> Option<CellKind> {
        ALL_CELL_KINDS.iter().copied().find(|k| k.name() == name)
    }

    /// Names of the input pins, in canonical connection order.
    #[inline]
    pub const fn input_pins(self) -> &'static [&'static str] {
        match self {
            CellKind::Tie0 | CellKind::Tie1 => &[],
            CellKind::Buf | CellKind::Inv => &["A"],
            CellKind::And2
            | CellKind::Or2
            | CellKind::Nand2
            | CellKind::Nor2
            | CellKind::Xor2
            | CellKind::Xnor2 => &["A", "B"],
            CellKind::And3 | CellKind::Or3 | CellKind::Nand3 | CellKind::Nor3 => &["A", "B", "C"],
            CellKind::Mux2 => &["D0", "D1", "S"],
            CellKind::Aoi21 | CellKind::Oai21 => &["A", "B", "C"],
            CellKind::Dff | CellKind::HardDff => &["CLK", "D"],
            CellKind::Dffr | CellKind::HardDffr => &["CLK", "D", "RSTN"],
            CellKind::Dffe => &["CLK", "D", "EN"],
            CellKind::Dffre => &["CLK", "D", "RSTN", "EN"],
            CellKind::Latch => &["EN", "D"],
            CellKind::SramBit | CellKind::DramBit | CellKind::RadHardBit => &["CLK", "WE", "D"],
        }
    }

    /// Name of the single output pin.
    pub fn output_pin(self) -> &'static str {
        match self {
            CellKind::Tie0 | CellKind::Tie1 => "O",
            k if k.is_sequential() => "Q",
            _ => "Y",
        }
    }

    /// Number of input pins.
    #[inline]
    pub const fn num_inputs(self) -> usize {
        self.input_pins().len()
    }

    /// Whether the cell holds state (flip-flops, latches and memory bits).
    #[inline]
    pub fn is_sequential(self) -> bool {
        matches!(
            self,
            CellKind::Dff
                | CellKind::Dffr
                | CellKind::Dffe
                | CellKind::Dffre
                | CellKind::Latch
                | CellKind::HardDff
                | CellKind::HardDffr
                | CellKind::SramBit
                | CellKind::DramBit
                | CellKind::RadHardBit
        )
    }

    /// Whether the cell is a memory bit cell.
    pub fn is_memory_bit(self) -> bool {
        matches!(
            self,
            CellKind::SramBit | CellKind::DramBit | CellKind::RadHardBit
        )
    }

    /// Whether the cell is purely combinational.
    #[inline]
    pub fn is_combinational(self) -> bool {
        !self.is_sequential()
    }

    /// Whether the cell has an asynchronous active-low reset on its `RSTN`
    /// pin (input pin 2), which forces the state to `0` whenever it reads
    /// `0`, between clock edges as well as at them. Every engine asks this
    /// one predicate.
    #[inline]
    pub fn has_async_reset(self) -> bool {
        matches!(self, CellKind::Dffr | CellKind::Dffre | CellKind::HardDffr)
    }

    /// Radiation susceptibility class of the cell.
    pub fn radiation_class(self) -> RadiationClass {
        match self {
            CellKind::SramBit => RadiationClass::SramCell,
            CellKind::DramBit => RadiationClass::DramCell,
            CellKind::RadHardBit => RadiationClass::RadHardCell,
            CellKind::HardDff | CellKind::HardDffr => RadiationClass::RadHardCell,
            k if k.is_sequential() => RadiationClass::FlipFlop,
            _ => RadiationClass::Combinational,
        }
    }

    /// Approximate transistor count, used as a cell-complexity feature and as
    /// an area proxy when scaling cross-sections.
    pub fn transistor_count(self) -> u32 {
        match self {
            CellKind::Tie0 | CellKind::Tie1 => 2,
            CellKind::Inv => 2,
            CellKind::Buf => 4,
            CellKind::Nand2 | CellKind::Nor2 => 4,
            CellKind::And2 | CellKind::Or2 => 6,
            CellKind::Nand3 | CellKind::Nor3 => 6,
            CellKind::And3 | CellKind::Or3 => 8,
            CellKind::Xor2 | CellKind::Xnor2 => 8,
            CellKind::Aoi21 | CellKind::Oai21 => 6,
            CellKind::Mux2 => 10,
            CellKind::Latch => 10,
            CellKind::Dff => 20,
            CellKind::Dffe => 24,
            CellKind::Dffr => 24,
            CellKind::Dffre => 28,
            CellKind::HardDff => 40,
            CellKind::HardDffr => 48,
            CellKind::SramBit => 6,
            CellKind::DramBit => 1,
            CellKind::RadHardBit => 12,
        }
    }
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_round_trips_for_all_kinds() {
        for &kind in ALL_CELL_KINDS {
            assert_eq!(CellKind::from_name(kind.name()), Some(kind));
        }
    }

    #[test]
    fn all_kinds_are_listed_in_declaration_order() {
        for (i, &kind) in ALL_CELL_KINDS.iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
        }
    }

    #[test]
    fn from_name_rejects_unknown() {
        assert_eq!(CellKind::from_name("NAND9"), None);
        assert_eq!(CellKind::from_name(""), None);
    }

    #[test]
    fn sequential_cells_output_q() {
        for &kind in ALL_CELL_KINDS {
            if kind.is_sequential() {
                assert_eq!(kind.output_pin(), "Q", "{kind}");
            }
        }
    }

    #[test]
    fn combinational_and_sequential_partition() {
        for &kind in ALL_CELL_KINDS {
            assert_ne!(kind.is_sequential(), kind.is_combinational());
        }
    }

    #[test]
    fn async_reset_kinds_read_rstn_on_pin_2() {
        for &kind in ALL_CELL_KINDS {
            if kind.has_async_reset() {
                assert!(kind.is_sequential(), "{kind}");
                assert_eq!(kind.input_pins()[2], "RSTN", "{kind}");
            } else {
                assert!(!kind.input_pins().contains(&"RSTN"), "{kind}");
            }
        }
    }

    #[test]
    fn memory_bits_have_memory_radiation_classes() {
        assert_eq!(
            CellKind::SramBit.radiation_class(),
            RadiationClass::SramCell
        );
        assert_eq!(
            CellKind::DramBit.radiation_class(),
            RadiationClass::DramCell
        );
        assert_eq!(
            CellKind::RadHardBit.radiation_class(),
            RadiationClass::RadHardCell
        );
        assert_eq!(CellKind::Dff.radiation_class(), RadiationClass::FlipFlop);
        assert_eq!(
            CellKind::Nand2.radiation_class(),
            RadiationClass::Combinational
        );
    }

    #[test]
    fn pin_counts_are_consistent() {
        assert_eq!(CellKind::Tie0.num_inputs(), 0);
        assert_eq!(CellKind::Mux2.num_inputs(), 3);
        assert_eq!(CellKind::Dffre.num_inputs(), 4);
        for &kind in ALL_CELL_KINDS {
            // Pin names within a cell are unique.
            let pins = kind.input_pins();
            for (i, a) in pins.iter().enumerate() {
                for b in &pins[i + 1..] {
                    assert_ne!(a, b, "{kind}");
                }
            }
        }
    }

    #[test]
    fn transistor_counts_are_positive_and_ordered_sanely() {
        for &kind in ALL_CELL_KINDS {
            assert!(kind.transistor_count() >= 1);
        }
        assert!(CellKind::Dff.transistor_count() > CellKind::Inv.transistor_count());
        assert!(CellKind::RadHardBit.transistor_count() > CellKind::SramBit.transistor_count());
    }
}
