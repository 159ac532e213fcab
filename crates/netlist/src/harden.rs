//! Radiation-hardening netlist transformations (ECO-style edits on flat
//! netlists).
//!
//! The point of sensitivity analysis is to harden what matters: this module
//! applies **triple modular redundancy** to selected cells — the cell is
//! triplicated and a majority voter (`maj(a,b,c) = ab | bc | ca`) drives the
//! original output net, so an upset in any single replica is masked. The
//! SSRESF pipeline's predicted sensitive-node list is the natural input
//! (see `ssresf::hardening`).

use crate::cell::CellKind;
use crate::error::NetlistError;
use crate::flat::{CellId, Driver, FlatNetlist, NetId};
use crate::path::HierPath;

/// Summary of a hardening transformation.
#[derive(Debug, Clone, PartialEq)]
pub struct HardeningReport {
    /// Cells that were triplicated.
    pub hardened: Vec<CellId>,
    /// Primitive cells added (replicas + voter gates).
    pub added_cells: usize,
    /// Transistor count before hardening.
    pub transistors_before: u64,
    /// Transistor count after hardening.
    pub transistors_after: u64,
}

impl HardeningReport {
    /// Relative area overhead (`after / before − 1`).
    pub fn area_overhead(&self) -> f64 {
        if self.transistors_before == 0 {
            0.0
        } else {
            self.transistors_after as f64 / self.transistors_before as f64 - 1.0
        }
    }
}

impl FlatNetlist {
    /// Adds a fresh undriven net. The name is taken verbatim as a root-level
    /// leaf, so [`FlatNetlist::net_full_name`] returns it unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the 32-bit net id space is exhausted (use elaboration-time
    /// construction, which reports [`NetlistError::TooLarge`], for netlists
    /// anywhere near that size).
    pub fn add_net(&mut self, name: String) -> NetId {
        let root = self.paths_mut().intern(HierPath::root());
        let leaf = self.intern_name(&name).expect("net name arena exhausted");
        self.push_net_parts(root, leaf)
            .expect("net id space exhausted")
    }

    /// Adds a primitive cell, wiring its pins into the connectivity.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PinArity`] on arity mismatch and
    /// [`NetlistError::MultipleDrivers`] when `output` is already driven.
    pub fn add_cell(
        &mut self,
        name: String,
        path: crate::path::PathId,
        kind: CellKind,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<CellId, NetlistError> {
        if inputs.len() != kind.num_inputs() {
            return Err(NetlistError::PinArity {
                cell: name,
                kind: kind.name(),
                expected: (kind.num_inputs(), 1),
                got: (inputs.len(), 1),
            });
        }
        if self.net(output).driver.is_some() {
            return Err(NetlistError::MultipleDrivers(self.net_full_name(output)));
        }
        let leaf = self.intern_name(&name)?;
        let id = self.push_cell_parts(leaf, path, kind, inputs, output)?;
        for (pin, &net) in inputs.iter().enumerate() {
            self.append_load(net, (id, pin as u8));
        }
        self.set_driver(output, Some(Driver::Cell(id)));
        Ok(id)
    }

    /// Moves the output of `cell` from its current net to `new_output`
    /// (which must be undriven). The old net is left driverless; existing
    /// loads stay attached to it.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] when `new_output` already
    /// has a driver.
    pub fn retarget_output(
        &mut self,
        cell: CellId,
        new_output: NetId,
    ) -> Result<NetId, NetlistError> {
        if self.net(new_output).driver.is_some() {
            return Err(NetlistError::MultipleDrivers(
                self.net_full_name(new_output),
            ));
        }
        let old = self.cell(cell).output;
        self.set_driver(old, None);
        self.set_driver(new_output, Some(Driver::Cell(cell)));
        self.set_cell_output(cell, new_output);
        Ok(old)
    }

    /// Applies TMR to every cell in `targets`: the cell is triplicated and
    /// a 2-of-3 majority voter takes over its original output net, so all
    /// downstream loads see the voted value.
    ///
    /// Tie cells cannot be hardened (their output is constant anyway) and
    /// are skipped; every other kind, sequential or combinational, is
    /// supported.
    ///
    /// # Errors
    ///
    /// Propagates edit failures; on success the netlist's name lookup is
    /// rebuilt.
    pub fn tmr_harden(&mut self, targets: &[CellId]) -> Result<HardeningReport, NetlistError> {
        let before: u64 = self
            .cells()
            .iter()
            .map(|c| u64::from(c.kind.transistor_count()))
            .sum();
        let cells_before = self.cells().len();
        let mut hardened = Vec::new();

        for &target in targets {
            let kind = self.cell(target).kind;
            if matches!(kind, CellKind::Tie0 | CellKind::Tie1) {
                continue;
            }
            let base = self.cell_full_name(target).replace('.', "_");
            let path = self.cell(target).path;
            let inputs = self.cell(target).inputs.to_vec();
            let original_out = self.cell(target).output;

            // Replica outputs.
            let qa = self.add_net(format!("{base}_tmr_qa"));
            let qb = self.add_net(format!("{base}_tmr_qb"));
            let qc = self.add_net(format!("{base}_tmr_qc"));
            self.retarget_output(target, qa)?;
            self.add_cell(format!("{base}_tmr_b"), path, kind, &inputs, qb)?;
            self.add_cell(format!("{base}_tmr_c"), path, kind, &inputs, qc)?;

            // Majority voter driving the original net.
            let ab = self.add_net(format!("{base}_tmr_ab"));
            let bc = self.add_net(format!("{base}_tmr_bc"));
            let ca = self.add_net(format!("{base}_tmr_ca"));
            self.add_cell(
                format!("{base}_tmr_and_ab"),
                path,
                CellKind::And2,
                &[qa, qb],
                ab,
            )?;
            self.add_cell(
                format!("{base}_tmr_and_bc"),
                path,
                CellKind::And2,
                &[qb, qc],
                bc,
            )?;
            self.add_cell(
                format!("{base}_tmr_and_ca"),
                path,
                CellKind::And2,
                &[qc, qa],
                ca,
            )?;
            self.add_cell(
                format!("{base}_tmr_vote"),
                path,
                CellKind::Or3,
                &[ab, bc, ca],
                original_out,
            )?;
            hardened.push(target);
        }

        self.rebuild_lookup();
        let after: u64 = self
            .cells()
            .iter()
            .map(|c| u64::from(c.kind.transistor_count()))
            .sum();
        Ok(HardeningReport {
            hardened,
            added_cells: self.cells().len() - cells_before,
            transistors_before: before,
            transistors_after: after,
        })
    }

    /// Swaps every cell in `targets` that has a radiation-hardened drop-in
    /// replacement (see [`hardened_kind`]) for that replacement, in place.
    ///
    /// The swap preserves cell ids, pin wiring, and simulation behavior —
    /// hardened kinds are behavior-identical — so an injection schedule
    /// addressed by `CellId` stays valid on the transformed netlist. The
    /// radiation model sees the difference: hardened kinds carry
    /// [`RadiationClass::RadHardCell`](crate::cell::RadiationClass) with its
    /// high-LET-threshold cross-section. Cells without a hardened variant
    /// (latches, enable flops, combinational logic) are skipped.
    pub fn ff_harden(&mut self, targets: &[CellId]) -> HardeningReport {
        let before: u64 = self
            .cells()
            .iter()
            .map(|c| u64::from(c.kind.transistor_count()))
            .sum();
        let mut hardened = Vec::new();
        for &target in targets {
            if let Some(hard) = hardened_kind(self.cell(target).kind) {
                self.set_cell_kind(target, hard);
                hardened.push(target);
            }
        }
        let after: u64 = self
            .cells()
            .iter()
            .map(|c| u64::from(c.kind.transistor_count()))
            .sum();
        HardeningReport {
            hardened,
            added_cells: 0,
            transistors_before: before,
            transistors_after: after,
        }
    }
}

/// The pin-compatible radiation-hardened replacement for `kind`, if the
/// library has one: plain and resettable flip-flops map to their DICE
/// variants, and SRAM/DRAM bits map to the hardened storage bit.
pub fn hardened_kind(kind: CellKind) -> Option<CellKind> {
    match kind {
        CellKind::Dff => Some(CellKind::HardDff),
        CellKind::Dffr => Some(CellKind::HardDffr),
        CellKind::SramBit | CellKind::DramBit => Some(CellKind::RadHardBit),
        _ => None,
    }
}

/// Picks the sequential members of `targets` (voters mask SEUs; hardening
/// combinational cells is also possible but guards only against SETs).
pub fn sequential_only(netlist: &FlatNetlist, targets: &[CellId]) -> Vec<CellId> {
    targets
        .iter()
        .copied()
        .filter(|&c| netlist.cell(c).kind.is_sequential())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{Design, ModuleBuilder, PortDir};

    fn toggler() -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("t");
        let clk = mb.port("clk", PortDir::Input);
        let rst_n = mb.port("rst_n", PortDir::Input);
        let q = mb.port("q", PortDir::Output);
        let nq = mb.net("nq");
        mb.cell("u_inv", CellKind::Inv, &[q], &[nq]).unwrap();
        mb.cell("u_ff", CellKind::Dffr, &[clk, nq, rst_n], &[q])
            .unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    #[test]
    fn tmr_adds_replicas_and_voter() {
        let mut flat = toggler();
        let ff = flat.cell_by_name("u_ff").unwrap();
        let report = flat.tmr_harden(&[ff]).unwrap();
        assert_eq!(report.hardened, vec![ff]);
        // 2 replicas + 3 ANDs + 1 OR3.
        assert_eq!(report.added_cells, 6);
        assert!(report.area_overhead() > 0.5);
        // The original output net is now voter-driven.
        let q = flat.net_by_name("q").unwrap();
        let driver = match flat.net(q).driver {
            Some(Driver::Cell(c)) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(flat.cell(driver).kind, CellKind::Or3);
        // Still a valid, levelizable netlist.
        flat.levelize().unwrap();
    }

    #[test]
    fn tmr_preserves_golden_behavior() {
        // Checked end-to-end in the sim-level integration tests; here we
        // validate connectivity invariants: every net with loads has a
        // driver and arities hold.
        let mut flat = toggler();
        let ff = flat.cell_by_name("u_ff").unwrap();
        let inv = flat.cell_by_name("u_inv").unwrap();
        flat.tmr_harden(&[ff, inv]).unwrap();
        for (i, net) in flat.nets().iter().enumerate() {
            if !net.loads.is_empty() {
                assert!(
                    net.driver.is_some() || flat.primary_inputs().contains(&NetId(i as u32)),
                    "undriven loaded net {}",
                    flat.net_full_name(NetId(i as u32))
                );
            }
            for &(cell, pin) in net.loads {
                assert_eq!(flat.cell(cell).inputs[pin as usize], NetId(i as u32));
            }
        }
        for (id, cell) in flat.iter_cells() {
            assert_eq!(cell.inputs.len(), cell.kind.num_inputs());
            assert_eq!(flat.net(cell.output).driver, Some(Driver::Cell(id)));
        }
    }

    #[test]
    fn tie_cells_are_skipped() {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("t");
        let y = mb.port("y", PortDir::Output);
        mb.cell("u_tie", CellKind::Tie1, &[], &[y]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        let mut flat = design.flatten().unwrap();
        let tie = flat.cell_by_name("u_tie").unwrap();
        let report = flat.tmr_harden(&[tie]).unwrap();
        assert!(report.hardened.is_empty());
        assert_eq!(report.added_cells, 0);
    }

    #[test]
    fn ff_harden_swaps_kinds_in_place() {
        let mut flat = toggler();
        let ff = flat.cell_by_name("u_ff").unwrap();
        let inv = flat.cell_by_name("u_inv").unwrap();
        let cells_before = flat.cells().len();
        let report = flat.ff_harden(&[ff, inv]);
        // Only the flop has a hardened variant; the inverter is skipped.
        assert_eq!(report.hardened, vec![ff]);
        assert_eq!(report.added_cells, 0);
        assert_eq!(flat.cells().len(), cells_before);
        assert_eq!(flat.cell(ff).kind, CellKind::HardDffr);
        assert_eq!(flat.cell(inv).kind, CellKind::Inv);
        // Dffr 24T -> HardDffr 48T.
        assert_eq!(
            report.transistors_after - report.transistors_before,
            u64::from(CellKind::HardDffr.transistor_count())
                - u64::from(CellKind::Dffr.transistor_count())
        );
        flat.levelize().unwrap();
    }

    #[test]
    fn hardened_kind_is_pin_compatible() {
        for &kind in crate::cell::ALL_CELL_KINDS {
            if let Some(hard) = hardened_kind(kind) {
                assert_eq!(kind.input_pins(), hard.input_pins(), "{kind}");
                assert!(hard.transistor_count() > kind.transistor_count(), "{kind}");
                assert_eq!(
                    hard.radiation_class(),
                    crate::cell::RadiationClass::RadHardCell
                );
            }
        }
    }

    #[test]
    fn sequential_only_filters() {
        let flat = toggler();
        let all: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let seq = sequential_only(&flat, &all);
        assert_eq!(seq.len(), 1);
        assert!(flat.cell(seq[0]).kind.is_sequential());
    }

    #[test]
    fn retarget_output_rejects_driven_net() {
        let mut flat = toggler();
        let ff = flat.cell_by_name("u_ff").unwrap();
        let nq = flat.net_by_name("nq").unwrap();
        assert!(matches!(
            flat.retarget_output(ff, nq),
            Err(NetlistError::MultipleDrivers(_))
        ));
    }
}
