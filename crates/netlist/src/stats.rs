//! Summary statistics over flat netlists.

use crate::cell::RadiationClass;
use crate::features::ModuleClass;
use crate::flat::FlatNetlist;
use std::collections::BTreeMap;
use std::fmt;

/// Aggregated statistics of a [`FlatNetlist`], useful for reports and for
/// sanity-checking generated SoCs.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Total primitive cells.
    pub cells: usize,
    /// Total nets.
    pub nets: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Combinational cell count.
    pub combinational: usize,
    /// Sequential cell count (flip-flops, latches, memory bits).
    pub sequential: usize,
    /// Memory bit-cell count.
    pub memory_bits: usize,
    /// Total transistor estimate.
    pub transistors: u64,
    /// Cell count per kind name.
    pub by_kind: BTreeMap<String, usize>,
    /// Cell count per radiation class name.
    pub by_radiation_class: BTreeMap<String, usize>,
    /// Cell count per inferred module class name.
    pub by_module_class: BTreeMap<String, usize>,
    /// Average fanout over driven nets.
    pub avg_fanout: f64,
    /// Maximum fanout.
    pub max_fanout: usize,
}

impl NetlistStats {
    /// Computes statistics for `netlist`.
    pub fn compute(netlist: &FlatNetlist) -> Self {
        let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
        let mut by_radiation_class: BTreeMap<String, usize> = BTreeMap::new();
        let mut by_module_class: BTreeMap<String, usize> = BTreeMap::new();
        let mut combinational = 0;
        let mut sequential = 0;
        let mut memory_bits = 0;
        let mut transistors: u64 = 0;

        for (_, cell) in netlist.iter_cells() {
            *by_kind.entry(cell.kind.name().to_owned()).or_default() += 1;
            let rad = radiation_class_name(cell.kind.radiation_class());
            *by_radiation_class.entry(rad.to_owned()).or_default() += 1;
            let class = ModuleClass::infer(netlist.paths().resolve(cell.path).segments());
            *by_module_class.entry(class.name().to_owned()).or_default() += 1;
            if cell.kind.is_sequential() {
                sequential += 1;
            } else {
                combinational += 1;
            }
            if cell.kind.is_memory_bit() {
                memory_bits += 1;
            }
            transistors += u64::from(cell.kind.transistor_count());
        }

        let mut fanout_sum = 0usize;
        let mut fanout_count = 0usize;
        let mut max_fanout = 0usize;
        for net in netlist.nets() {
            if net.driver.is_some() {
                fanout_sum += net.loads.len();
                fanout_count += 1;
                max_fanout = max_fanout.max(net.loads.len());
            }
        }

        NetlistStats {
            cells: netlist.cells().len(),
            nets: netlist.nets().len(),
            inputs: netlist.primary_inputs().len(),
            outputs: netlist.primary_outputs().len(),
            combinational,
            sequential,
            memory_bits,
            transistors,
            by_kind,
            by_radiation_class,
            by_module_class,
            avg_fanout: if fanout_count == 0 {
                0.0
            } else {
                fanout_sum as f64 / fanout_count as f64
            },
            max_fanout,
        }
    }
}

fn radiation_class_name(class: RadiationClass) -> &'static str {
    match class {
        RadiationClass::Combinational => "combinational",
        RadiationClass::FlipFlop => "flipflop",
        RadiationClass::SramCell => "sram",
        RadiationClass::DramCell => "dram",
        RadiationClass::RadHardCell => "radhard",
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cells: {} ({} comb, {} seq, {} memory bits)",
            self.cells, self.combinational, self.sequential, self.memory_bits
        )?;
        writeln!(
            f,
            "nets: {} (in {}, out {}), avg fanout {:.2}, max fanout {}",
            self.nets, self.inputs, self.outputs, self.avg_fanout, self.max_fanout
        )?;
        writeln!(f, "transistors: ~{}", self.transistors)?;
        for (name, count) in &self.by_module_class {
            writeln!(f, "  module class {name}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::design::{Design, ModuleBuilder, PortDir};

    fn small_netlist() -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("top");
        let clk = mb.port("clk", PortDir::Input);
        let a = mb.port("a", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        let na = mb.net("na");
        mb.cell("u_inv", CellKind::Inv, &[a], &[na]).unwrap();
        mb.cell("u_ff", CellKind::Dff, &[clk, na], &[y]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    #[test]
    fn compute_counts_kinds_and_classes() {
        let stats = NetlistStats::compute(&small_netlist());
        assert_eq!(stats.cells, 2);
        assert_eq!(stats.combinational, 1);
        assert_eq!(stats.sequential, 1);
        assert_eq!(stats.memory_bits, 0);
        assert_eq!(stats.by_kind.get(CellKind::Inv.name()), Some(&1));
        assert_eq!(stats.by_kind.get(CellKind::Dff.name()), Some(&1));
        assert_eq!(stats.by_kind.get(CellKind::Nand2.name()), None);
        assert_eq!(stats.by_radiation_class.get("flipflop"), Some(&1));
    }

    #[test]
    fn fanout_statistics() {
        let stats = NetlistStats::compute(&small_netlist());
        // na feeds the FF; y feeds nothing; clk/a are primary-input driven.
        assert!(stats.avg_fanout > 0.0);
        assert!(stats.max_fanout >= 1);
    }

    #[test]
    fn display_is_nonempty() {
        let stats = NetlistStats::compute(&small_netlist());
        assert!(stats.to_string().contains("cells: 2"));
    }
}
