//! Flux-driven fault-campaign generation.
//!
//! Given a netlist, an environment and an exposure window, a [`FluxCampaign`]
//! turns the physics into concrete simulator faults: particle strikes arrive
//! as a Poisson process with rate `flux × Σσ_cell(LET)`, each strike picks a
//! victim cell with probability proportional to its cross-section, and
//! becomes an SEU (sequential victim) or a SET with a LET-dependent pulse
//! width (combinational victim).

use crate::database::SoftErrorDatabase;
use crate::environment::RadiationEnvironment;
use crate::error::RadiationError;
use crate::pulse::PulseWidthModel;
use crate::units::Let;
use rand::Rng;
use ssresf_netlist::{CellId, FlatNetlist};
use ssresf_sim::{Fault, SetFault, SeuFault};

/// Configuration of a flux-driven campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluxCampaignConfig {
    /// The particle environment.
    pub environment: RadiationEnvironment,
    /// Number of simulated clock cycles in the exposure window.
    pub exposure_cycles: u64,
    /// Wall-clock duration of one simulated cycle, in seconds.
    pub cycle_time_s: f64,
    /// SET pulse-width model.
    pub pulse_model: PulseWidthModel,
}

impl FluxCampaignConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RadiationError::Config`] when the window is empty or the
    /// cycle time non-positive.
    pub fn validate(&self) -> Result<(), RadiationError> {
        if self.exposure_cycles == 0 {
            return Err(RadiationError::Config("exposure_cycles is 0".into()));
        }
        if !(self.cycle_time_s > 0.0 && self.cycle_time_s.is_finite()) {
            return Err(RadiationError::Config(format!(
                "cycle_time_s {} must be positive",
                self.cycle_time_s
            )));
        }
        Ok(())
    }

    /// Exposure duration in seconds.
    pub fn exposure_seconds(&self) -> f64 {
        self.exposure_cycles as f64 * self.cycle_time_s
    }
}

/// Poisson-arrival fault generator for one netlist and environment.
#[derive(Debug)]
pub struct FluxCampaign<'a> {
    database: &'a SoftErrorDatabase,
    config: FluxCampaignConfig,
}

impl<'a> FluxCampaign<'a> {
    /// Creates a campaign.
    ///
    /// # Errors
    ///
    /// Propagates [`FluxCampaignConfig::validate`] failures.
    pub fn new(
        database: &'a SoftErrorDatabase,
        config: FluxCampaignConfig,
    ) -> Result<Self, RadiationError> {
        config.validate()?;
        Ok(FluxCampaign { database, config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &FluxCampaignConfig {
        &self.config
    }

    /// Per-cell upset rates (events/second) at this campaign's LET and flux.
    pub fn cell_rates(&self, netlist: &FlatNetlist) -> Vec<f64> {
        let env = self.config.environment;
        let flux = env.flux.value();
        netlist
            .iter_cells()
            .map(|(_, cell)| {
                let sigma = if cell.kind.is_sequential() {
                    self.database.seu_cross_section(cell.kind, env.let_value)
                } else {
                    self.database.set_cross_section(cell.kind, env.let_value)
                };
                sigma * flux
            })
            .collect()
    }

    /// Expected number of strikes over the exposure window.
    pub fn expected_events(&self, netlist: &FlatNetlist) -> f64 {
        self.cell_rates(netlist).iter().sum::<f64>() * self.config.exposure_seconds()
    }

    /// Generates the concrete fault list for one exposure, as
    /// `(victim cell, fault)` pairs like every other fault source.
    ///
    /// The number of faults is Poisson-distributed around
    /// [`expected_events`](FluxCampaign::expected_events); victims are drawn
    /// with probability proportional to their cross-sections; strike times
    /// are uniform over the window.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        netlist: &FlatNetlist,
        rng: &mut R,
    ) -> Vec<(CellId, Fault)> {
        let rates = self.cell_rates(netlist);
        let total: f64 = rates.iter().sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let exposure_cycles = self.config.exposure_cycles;
        // Not `total * exposure_seconds()`: reassociating the product can
        // move lambda by an ulp and with it the Poisson draws.
        let lambda = total * exposure_cycles as f64 * self.config.cycle_time_s;
        let count = sample_poisson(lambda, rng);

        // Cumulative weights for victim selection.
        let mut cumulative = Vec::with_capacity(rates.len());
        let mut acc = 0.0;
        for &r in &rates {
            acc += r;
            cumulative.push(acc);
        }

        let mut faults = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let pick = rng.gen::<f64>() * total;
            let idx = cumulative
                .partition_point(|&c| c < pick)
                .min(rates.len() - 1);
            let cell = CellId(idx as u32);
            let cycle = rng.gen_range(0..exposure_cycles);
            let fault = strike_fault(
                netlist,
                cell,
                cycle,
                self.config.environment.let_value,
                &self.config.pulse_model,
                rng,
            );
            faults.push((cell, fault));
        }
        faults
    }
}

/// Maps one particle strike on `cell` at `cycle` to the fault it deposits:
/// an SEU when the cell holds state, otherwise a SET on its output net.
/// Draws the sub-cycle offset, then — for a SET only — one pulse width at
/// `let_value`.
///
/// Every fault source maps strikes through this function: the flux-driven
/// [`FluxCampaign`] and the per-cell campaign runner in the `ssresf` crate,
/// so a strike's fault depends only on its cell, cycle, LET and RNG state.
pub fn strike_fault<R: Rng + ?Sized>(
    netlist: &FlatNetlist,
    cell: CellId,
    cycle: u64,
    let_value: Let,
    pulse: &PulseWidthModel,
    rng: &mut R,
) -> Fault {
    let victim = netlist.cell(cell);
    let offset = rng.gen::<f64>() * 0.999;
    if victim.kind.is_sequential() {
        Fault::Seu(SeuFault {
            cell,
            cycle,
            offset,
        })
    } else {
        Fault::Set(SetFault {
            net: victim.output,
            cycle,
            offset,
            width: pulse.sample_width(let_value, rng),
        })
    }
}

/// Samples a Poisson-distributed count.
///
/// Uses Knuth's product method for small rates and a normal approximation
/// above `λ = 64`.
pub fn sample_poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    assert!(lambda >= 0.0 && lambda.is_finite(), "bad lambda {lambda}");
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 64.0 {
        let limit = (-lambda).exp();
        let mut product = 1.0;
        let mut count = 0u64;
        loop {
            product *= rng.gen::<f64>();
            if product <= limit {
                return count;
            }
            count += 1;
        }
    }
    // Box-Muller normal approximation for large rates.
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let sample = lambda + lambda.sqrt() * z;
    sample.max(0.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Flux, Let};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ssresf_netlist::{CellKind, Design, ModuleBuilder, PortDir};

    fn small_netlist() -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("dut");
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

    fn config(flux: f64) -> FluxCampaignConfig {
        FluxCampaignConfig {
            environment: RadiationEnvironment::new(Let::new(37.0), Flux::new(flux)),
            exposure_cycles: 100,
            cycle_time_s: 10e-9,
            pulse_model: PulseWidthModel::standard(),
        }
    }

    #[test]
    fn config_validation() {
        let mut cfg = config(1e8);
        cfg.exposure_cycles = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = config(1e8);
        cfg.cycle_time_s = 0.0;
        assert!(cfg.validate().is_err());
        assert!(config(1e8).validate().is_ok());
    }

    #[test]
    fn expected_events_scale_with_flux() {
        let db = SoftErrorDatabase::standard();
        let netlist = small_netlist();
        let low = FluxCampaign::new(&db, config(1e8)).unwrap();
        let high = FluxCampaign::new(&db, config(8e8)).unwrap();
        let el = low.expected_events(&netlist);
        let eh = high.expected_events(&netlist);
        assert!(eh > 7.9 * el && eh < 8.1 * el);
    }

    #[test]
    fn generated_faults_match_victim_types() {
        let db = SoftErrorDatabase::standard();
        let netlist = small_netlist();
        // Astronomically high flux so we reliably get faults.
        let campaign = FluxCampaign::new(&db, config(1e17)).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let faults = campaign.generate(&netlist, &mut rng);
        assert!(!faults.is_empty());
        for &(cell, fault) in &faults {
            let kind = netlist.cell(cell).kind;
            match fault {
                Fault::Seu(f) => {
                    assert!(kind.is_sequential());
                    assert_eq!(f.cell, cell);
                    assert!(f.cycle < 100);
                }
                Fault::Set(f) => {
                    assert!(kind.is_combinational());
                    assert_eq!(f.net, netlist.cell(cell).output);
                    assert!(f.width > 0.0 && f.width <= 0.5);
                }
            }
            assert!(fault.validate().is_ok());
        }
    }

    #[test]
    fn poisson_mean_is_close_to_lambda() {
        let mut rng = StdRng::seed_from_u64(5);
        for &lambda in &[0.5, 3.0, 20.0, 200.0] {
            let n = 3000;
            let sum: u64 = (0..n).map(|_| sample_poisson(lambda, &mut rng)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.15,
                "lambda {lambda} mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_rate_yields_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }

    /// One line per fault: victim, kind, cycle, offset and (SET) net and
    /// width. `f64` Display prints the shortest string that reads back to
    /// the same bits, so equal lines mean bit-equal faults.
    fn render(faults: &[(CellId, Fault)]) -> Vec<String> {
        faults
            .iter()
            .map(|(cell, fault)| match fault {
                Fault::Seu(f) => format!("seu c{} @{} +{}", cell.0, f.cycle, f.offset),
                Fault::Set(f) => format!(
                    "set c{} n{} @{} +{} w{}",
                    cell.0, f.net.0, f.cycle, f.offset, f.width
                ),
            })
            .collect()
    }

    #[test]
    fn generated_faults_are_pinned_for_a_fixed_seed() {
        let db = SoftErrorDatabase::standard();
        let netlist = small_netlist();
        // Cell 0 is the inverter (SET on net 3), cell 1 the flip-flop.
        let campaign = FluxCampaign::new(&db, config(1e14)).unwrap();
        let generated = campaign.generate(&netlist, &mut StdRng::seed_from_u64(1));
        assert_eq!(
            render(&generated),
            [
                "seu c1 @81 +0.681023268407208",
                "seu c1 @6 +0.08133323934945735",
                "seu c1 @12 +0.28662444346891536",
                "seu c1 @51 +0.7130570320404206",
                "set c0 n3 @99 +0.5972543208725418 w0.12818350866435757",
                "seu c1 @43 +0.2530198745190228",
                "seu c1 @54 +0.7474870934928332",
                "seu c1 @66 +0.8609664563740482",
                "seu c1 @23 +0.6555792937029588",
                "seu c1 @83 +0.32410879688901223",
                "seu c1 @89 +0.9117774735154007",
                "seu c1 @13 +0.3253579670822184",
                "seu c1 @39 +0.08764310322945006",
                "seu c1 @15 +0.9573737712826141",
                "seu c1 @52 +0.06830162814777146",
            ]
        );
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let db = SoftErrorDatabase::standard();
        let netlist = small_netlist();
        let campaign = FluxCampaign::new(&db, config(1e16)).unwrap();
        let a = campaign.generate(&netlist, &mut StdRng::seed_from_u64(42));
        let b = campaign.generate(&netlist, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
