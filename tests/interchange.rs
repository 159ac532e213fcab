//! Interchange-format tests spanning crates: structural Verilog and VCD
//! round trips on generated SoCs, and soft-error database persistence.

use ssresf::{Dut, EngineKind, Workload};
use ssresf_json::{FromJson, ToJson};
use ssresf_netlist::verilog::{parse_verilog, write_verilog};
use ssresf_netlist::NetlistStats;
use ssresf_radiation::SoftErrorDatabase;
use ssresf_sim::vcd::{parse_vcd, write_vcd};
use ssresf_sim::{Engine, EventDrivenEngine, Logic};
use ssresf_socgen::{build_soc, SocConfig};

#[test]
fn soc_survives_verilog_round_trip_with_identical_behavior() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let text = write_verilog(&soc.design);
    let reparsed = parse_verilog(&text).unwrap();

    let a = soc.design.flatten().unwrap();
    let b = reparsed.flatten().unwrap();
    assert_eq!(
        NetlistStats::compute(&a).by_kind,
        NetlistStats::compute(&b).by_kind
    );

    // The reparsed netlist executes the workload identically.
    let wl = Workload {
        reset_cycles: 3,
        run_cycles: 40,
    };
    let ta = Dut::from_conventions(&a)
        .unwrap()
        .run(EngineKind::EventDriven, &wl, &[])
        .unwrap();
    let tb = Dut::from_conventions(&b)
        .unwrap()
        .run(EngineKind::EventDriven, &wl, &[])
        .unwrap();
    assert!(ta.trace.matches(&tb.trace));
}

#[test]
fn soc_waveforms_round_trip_through_vcd() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let clk = netlist.net_by_name("clk").unwrap();
    let mut engine = EventDrivenEngine::new(&netlist, clk).unwrap();
    let outputs: Vec<_> = netlist.primary_outputs().to_vec();
    engine.record(&outputs);

    let rst = netlist.net_by_name("rst_n").unwrap();
    engine.poke(rst, Logic::Zero);
    engine.step_cycle();
    engine.step_cycle();
    engine.poke(rst, Logic::One);
    for (id, cell) in netlist.iter_cells() {
        if cell.kind.is_memory_bit() {
            engine.set_cell_state(id, Logic::Zero);
        }
    }
    for _ in 0..30 {
        engine.step_cycle();
    }

    let wave = engine.wave_trace();
    let text = write_vcd(&wave);
    let parsed = parse_vcd(&text).unwrap();
    assert_eq!(parsed.signals.len(), wave.signals.len());
    // Change streams survive byte-for-byte.
    for (orig, round) in wave.signals.iter().zip(&parsed.signals) {
        assert_eq!(orig.changes, round.changes, "{}", orig.name);
    }
    // Something actually toggled during the run.
    assert!(wave.signals.iter().any(|s| s.toggles() > 4));
}

#[test]
fn soft_error_database_persists_and_reloads() {
    let db = SoftErrorDatabase::standard();
    let json = db.to_json().to_string_pretty();
    assert!(json.contains("SRAMB"));
    assert!(json.contains("seu_cm2"));
    let restored = SoftErrorDatabase::from_json(&ssresf_json::parse(&json).unwrap()).unwrap();
    assert_eq!(restored.entries().len(), db.entries().len());

    // The restored database drives identical chip cross-sections.
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let let37 = ssresf_radiation::Let::new(37.0);
    let (a_seu, a_set) = db.chip_cross_sections(&netlist, let37);
    let (b_seu, b_set) = restored.chip_cross_sections(&netlist, let37);
    assert!((a_seu.value() - b_seu.value()).abs() < a_seu.value() * 1e-9);
    assert!((a_set.value() - b_set.value()).abs() < a_set.value() * 1e-9);
}
