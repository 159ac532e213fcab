//! Build, persist and query the SET/SEU soft-error database (paper Fig. 3),
//! then generate a flux-driven Poisson fault campaign from it.
//!
//! ```sh
//! cargo run --release --example radiation_database
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use ssresf_json::{FromJson, ToJson};
use ssresf_netlist::CellKind;
use ssresf_radiation::{
    FluxCampaign, FluxCampaignConfig, Let, PulseWidthModel, RadiationEnvironment, SoftErrorDatabase,
};
use ssresf_socgen::{build_soc, SocConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The database holds SET/SEU cross-sections at the paper's calibration
    // LETs (1.0 / 37.0 / 100.0 MeV·cm²/mg) for every library cell.
    let db = SoftErrorDatabase::standard();
    println!("database entries: {}", db.entries().len());
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "cell", "σ@LET1", "σ@LET37", "σ@LET100"
    );
    for kind in [
        CellKind::Nand2,
        CellKind::Dff,
        CellKind::SramBit,
        CellKind::DramBit,
        CellKind::RadHardBit,
    ] {
        let sigma = |l: f64| {
            let let_v = Let::new(l);
            db.seu_cross_section(kind, let_v) + db.set_cross_section(kind, let_v)
        };
        println!(
            "{:<10} {:>12.3e} {:>12.3e} {:>12.3e}",
            kind.name(),
            sigma(1.0),
            sigma(37.0),
            sigma(100.0)
        );
    }

    // Persist and reload (the artifact a lab would version-control).
    let json = db.to_json().to_string_pretty();
    let restored = SoftErrorDatabase::from_json(&ssresf_json::parse(&json)?)?;
    println!(
        "\nserialized {} bytes of JSON; reload matches: {}",
        json.len(),
        restored.entries().len() == db.entries().len()
    );

    // Environment-driven campaign on a real netlist: Poisson arrivals at a
    // beam-like flux over a 10k-cycle exposure.
    let soc = build_soc(&SocConfig::table1()[0])?;
    let netlist = soc.design.flatten()?;
    let campaign = FluxCampaign::new(
        &db,
        FluxCampaignConfig {
            environment: RadiationEnvironment::heavy_ion_beam(),
            exposure_cycles: 10_000,
            cycle_time_s: 10e-9,
            pulse_model: PulseWidthModel::standard(),
        },
    )?;
    println!(
        "\nexpected strikes on {} over {:.0} µs at {}: {:.3}",
        soc.info.config.name,
        10_000.0 * 10e-3,
        RadiationEnvironment::heavy_ion_beam().flux,
        campaign.expected_events(&netlist)
    );

    // Amplify the flux so a sampled exposure actually contains strikes.
    let hot = FluxCampaign::new(
        &db,
        FluxCampaignConfig {
            environment: RadiationEnvironment::new(
                Let::new(100.0),
                ssresf_radiation::Flux::new(5e14),
            ),
            exposure_cycles: 10_000,
            cycle_time_s: 10e-9,
            pulse_model: PulseWidthModel::standard(),
        },
    )?;
    let mut rng = StdRng::seed_from_u64(7);
    let faults = hot.generate(&netlist, &mut rng);
    let seu = faults
        .iter()
        .filter(|f| matches!(f.fault, ssresf_sim::Fault::Seu(_)))
        .count();
    println!(
        "amplified beam: {} strikes generated ({} SEU, {} SET)",
        faults.len(),
        seu,
        faults.len() - seu
    );
    Ok(())
}
