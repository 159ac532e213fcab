//! Discretized LET spectra and on-orbit SER-rate integration.
//!
//! Beam experiments use a single LET; real environments expose devices to a
//! spectrum. An [`LetSpectrum`] is a set of `(LET, differential flux)` bins;
//! [`LetSpectrum::event_rate`] folds it with a device's cross-section curve
//! (`rate = Σ flux_i · σ(LET_i)`), the standard CREME-style rate estimate.

use crate::database::SoftErrorDatabase;
use crate::units::{Flux, Let};
use ssresf_netlist::FlatNetlist;

/// One bin of a discretized LET spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumBin {
    /// Bin LET.
    pub let_value: Let,
    /// Integral particle flux attributed to the bin.
    pub flux: Flux,
}

/// A discretized LET spectrum.
#[derive(Debug, Clone, PartialEq)]
pub struct LetSpectrum {
    bins: Vec<SpectrumBin>,
}

impl LetSpectrum {
    /// Builds a spectrum from bins (sorted by LET internally).
    pub fn new(mut bins: Vec<SpectrumBin>) -> Self {
        bins.sort_by(|a, b| {
            a.let_value
                .value()
                .partial_cmp(&b.let_value.value())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        LetSpectrum { bins }
    }

    /// A galactic-cosmic-ray-like power-law spectrum: flux falls off as
    /// `LET^-2.2` from `total_flux` spread over bins between LET 1 and 100.
    pub fn galactic(total_flux: Flux) -> Self {
        let lets = [1.0, 2.0, 5.0, 10.0, 20.0, 37.0, 60.0, 100.0];
        let weights: Vec<f64> = lets.iter().map(|l: &f64| l.powf(-2.2)).collect();
        let total_weight: f64 = weights.iter().sum();
        let bins = lets
            .iter()
            .zip(&weights)
            .map(|(&l, &w)| SpectrumBin {
                let_value: Let::new(l),
                flux: Flux::new(total_flux.value() * w / total_weight),
            })
            .collect();
        LetSpectrum::new(bins)
    }

    /// The bins, ascending in LET.
    pub fn bins(&self) -> &[SpectrumBin] {
        &self.bins
    }

    /// Total integral flux.
    pub fn total_flux(&self) -> Flux {
        Flux::new(self.bins.iter().map(|b| b.flux.value()).sum())
    }

    /// Chip-level `(SEU, SET)` event rates in events/second:
    /// `Σ_bins flux · σ_chip(LET)`.
    pub fn event_rate(&self, db: &SoftErrorDatabase, netlist: &FlatNetlist) -> (f64, f64) {
        let mut seu = 0.0;
        let mut set = 0.0;
        for bin in &self.bins {
            let (bin_seu, bin_set) = db.chip_cross_sections(netlist, bin.let_value);
            seu += bin.flux.value() * bin_seu.value();
            set += bin.flux.value() * bin_set.value();
        }
        (seu, set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssresf_netlist::{CellKind, Design, ModuleBuilder, PortDir};

    fn tiny_netlist() -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("t");
        let clk = mb.port("clk", PortDir::Input);
        let a = mb.port("a", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        let w = mb.net("w");
        mb.cell("u0", CellKind::Inv, &[a], &[w]).unwrap();
        mb.cell("u1", CellKind::Dff, &[clk, w], &[y]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    #[test]
    fn bins_are_sorted_and_flux_conserved() {
        let spectrum = LetSpectrum::new(vec![
            SpectrumBin {
                let_value: Let::new(50.0),
                flux: Flux::new(1.0),
            },
            SpectrumBin {
                let_value: Let::new(2.0),
                flux: Flux::new(3.0),
            },
        ]);
        assert!(spectrum.bins()[0].let_value.value() < spectrum.bins()[1].let_value.value());
        assert_eq!(spectrum.total_flux().value(), 4.0);
    }

    #[test]
    fn galactic_spectrum_is_soft() {
        let spectrum = LetSpectrum::galactic(Flux::new(1e5));
        assert!((spectrum.total_flux().value() - 1e5).abs() < 1.0);
        // Low-LET bins dominate a power-law spectrum.
        let first = spectrum.bins().first().unwrap().flux.value();
        let last = spectrum.bins().last().unwrap().flux.value();
        assert!(first > 100.0 * last);
    }

    #[test]
    fn event_rate_scales_with_total_flux() {
        let db = SoftErrorDatabase::standard();
        let netlist = tiny_netlist();
        let lo = LetSpectrum::galactic(Flux::new(1e5)).event_rate(&db, &netlist);
        let hi = LetSpectrum::galactic(Flux::new(1e7)).event_rate(&db, &netlist);
        assert!(hi.0 > 99.0 * lo.0 && hi.0 < 101.0 * lo.0);
        assert!(hi.1 > 99.0 * lo.1 && hi.1 < 101.0 * lo.1);
        assert!(lo.0 > 0.0 && lo.1 > 0.0);
    }

    #[test]
    fn hard_spectrum_outpaces_soft_at_equal_flux() {
        let db = SoftErrorDatabase::standard();
        let netlist = tiny_netlist();
        let soft = LetSpectrum::galactic(Flux::new(1e6)).event_rate(&db, &netlist);
        let hard = LetSpectrum::new(vec![SpectrumBin {
            let_value: Let::new(100.0),
            flux: Flux::new(1e6),
        }])
        .event_rate(&db, &netlist);
        assert!(hard.0 > soft.0);
    }
}
