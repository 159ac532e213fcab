//! Full-SoC integration tests: every Table-I configuration builds, and the
//! generated SoCs actually execute their workload identically on both
//! simulation engines.

use ssresf_netlist::verilog::write_verilog;
use ssresf_netlist::{FlatNetlist, NetlistStats, StableHasher};
use ssresf_sim::{CycleTrace, Engine, EventDrivenEngine, LevelizedEngine, Logic, Testbench};
use ssresf_socgen::{build_soc, SocConfig};

/// Runs the SoC workload: reset, post-reset memory preload, then `cycles`
/// cycles sampling all primary outputs.
fn run_workload<E: Engine>(mut engine: E, flat: &FlatNetlist, cycles: u64) -> CycleTrace {
    let rst = flat.net_by_name("rst_n").unwrap();
    engine.poke(rst, Logic::Zero);
    for _ in 0..3 {
        engine.step_cycle();
    }
    engine.poke(rst, Logic::One);
    // Memory image load happens after reset so write-enables are defined.
    for (id, cell) in flat.iter_cells() {
        if cell.kind.is_memory_bit() {
            engine.set_cell_state(id, Logic::Zero);
        }
    }
    let mut tb = Testbench::new(engine);
    tb.run(0, cycles)
}

#[test]
fn all_table1_configs_build_and_flatten() {
    let mut last_cells = 0;
    for config in SocConfig::table1() {
        let built = build_soc(&config).unwrap();
        let flat = built.design.flatten().unwrap();
        let stats = NetlistStats::compute(&flat);
        assert!(
            stats.cells > 400,
            "{}: only {} cells",
            config.name,
            stats.cells
        );
        // Module class inference must find all three subsystems.
        for class in ["cpu", "bus", "memory"] {
            assert!(
                stats.by_module_class.contains_key(class),
                "{}: missing {class}",
                config.name
            );
        }
        // Memory scaling metadata is consistent.
        assert!(built.info.memory_scale_factor >= 1.0);
        assert_eq!(
            built.info.memory_bits_modeled,
            (built.info.config.memory_bytes as f64 * 8.0 / built.info.memory_scale_factor).round()
                as u64
        );
        // Netlists must be simulatable (no combinational loops).
        flat.levelize().unwrap();
        last_cells = last_cells.max(stats.cells);
    }
    // The biggest config is substantially larger than the smallest.
    let small = build_soc(&SocConfig::table1()[0]).unwrap();
    let small_cells = small.design.flatten().unwrap().cells().len();
    assert!(
        last_cells > 4 * small_cells,
        "{small_cells} vs {last_cells}"
    );
}

/// Pins what elaboration produces for every preset: the flat netlist's
/// cell count and content hash (every cell, net, name and connection),
/// and a digest of the design written as Verilog (every module, port, net
/// and cell in declaration order). A change to the builder, `flatten` or
/// the writer that renames, reorders or rewires anything fails here.
#[test]
fn elaboration_of_every_preset_is_pinned() {
    let mut configs = SocConfig::table1();
    configs.push(SocConfig::rad_hard());
    // Debug builds run the tests, so the scale preset is pinned at a
    // 256-row sub-array instead of its 32k rows.
    let mut mega = SocConfig::mega();
    mega.memory_rows_log2 = 8;
    configs.push(mega);
    // (name, cells, content hash, Verilog digest)
    let expected = [
        (
            "PULP SoC_1",
            1075,
            "351199d9824afad29bc5339be93376ae",
            "b94cb844800f8da7fe001cdf332bde86",
        ),
        (
            "PULP SoC_2",
            1823,
            "b5956a33cb63dd0a0ff08a1a97700dde",
            "90c475ec0ffb8efae76109cca70a51a4",
        ),
        (
            "PULP SoC_3",
            1509,
            "733dc1405187ed3052691346701e6293",
            "c192b082569e83834213990c86ddf949",
        ),
        (
            "PULP SoC_4",
            2678,
            "6ff0cb1601d6b6bb6569535e9377cc91",
            "086512841b71c2ed7d7ca2fa57bb7bee",
        ),
        (
            "PULP SoC_5",
            2284,
            "bc436e93f68931fc4332b1bf26f1d7bf",
            "95f9ffc7d90aeeef332802fef32e4fd4",
        ),
        (
            "PULP SoC_6",
            4215,
            "7a7eb5f2af4d0be6443a76fc9a977ad7",
            "2c58478b9b7a17fd0172bc63109df001",
        ),
        (
            "PULP SoC_7",
            2626,
            "a10e50186be9a1426e001c2f949e2c40",
            "655f43dba1144ff77960ec31f507d14f",
        ),
        (
            "PULP SoC_8",
            4925,
            "68d81e538c353a76b833cefb6db6405d",
            "ac458bb884508704c075df754dc5bfe5",
        ),
        (
            "PULP SoC_9",
            7953,
            "b78c0fe561189939d530f09f000f8122",
            "ff0517a325f7536976cef6f9bd4eb035",
        ),
        (
            "PULP SoC_10",
            15252,
            "061289e6aa08b9583e77f2410e7f4cc4",
            "a0b545c3bfe1a099a32c753af9cac1f8",
        ),
        (
            "PULP SoC_RH",
            1075,
            "51a0681823665c6e5e68c0ce6d52a6ce",
            "88a5604e41d067e25f2408f4e5094cbc",
        ),
        (
            "PULP SoC_Mega",
            11769,
            "72a2855439f3f5b45a0fe5f775f46412",
            "ee2afec4e5fcc12840f0d37d9da97b8f",
        ),
    ];
    assert_eq!(configs.len(), expected.len());
    for (config, (name, cells, content, verilog)) in configs.iter().zip(expected) {
        assert_eq!(config.name, name);
        let design = build_soc(config).unwrap().design;
        let mut text = StableHasher::new();
        text.update(write_verilog(&design).as_bytes());
        assert_eq!(text.finish().to_hex(), verilog, "{name}: Verilog digest");
        let flat = design.flatten().unwrap();
        assert_eq!(flat.num_cells(), cells, "{name}: cell count");
        assert_eq!(
            flat.content_hash().to_hex(),
            content,
            "{name}: content hash"
        );
    }
}

#[test]
fn soc1_engines_agree_and_workload_progresses() {
    let config = SocConfig::table1()[0].clone();
    let built = build_soc(&config).unwrap();
    let flat = built.design.flatten().unwrap();
    let clk = flat.net_by_name("clk").unwrap();

    let ev = run_workload(EventDrivenEngine::new(&flat, clk).unwrap(), &flat, 80);
    let lv = run_workload(LevelizedEngine::new(&flat, clk).unwrap(), &flat, 80);
    assert!(
        ev.matches(&lv),
        "engines diverge: {:?}",
        ev.diff(&lv).into_iter().take(5).collect::<Vec<_>>()
    );

    // The CPU reaches its OUT instruction: the output port becomes nonzero.
    let out_cols: Vec<usize> = ev
        .signals
        .iter()
        .enumerate()
        .filter(|(_, s)| s.starts_with("out0_"))
        .map(|(i, _)| i)
        .collect();
    assert!(!out_cols.is_empty());
    let some_out_nonzero = ev
        .rows
        .iter()
        .any(|row| out_cols.iter().any(|&c| row[c] == Logic::One));
    assert!(some_out_nonzero, "workload never produced output");

    // Every sampled output is defined (no residual X after preload).
    let last = ev.rows.last().unwrap();
    assert!(
        last.iter().all(|v| v.is_defined()),
        "undefined outputs at end: {last:?}"
    );

    // The liveness bit (xor of the PC) toggles as the program loops.
    let alive_col = ev.signals.iter().position(|s| s == "alive_0").unwrap();
    let toggles = ev
        .rows
        .windows(2)
        .filter(|w| w[0][alive_col] != w[1][alive_col])
        .count();
    assert!(toggles > 10, "PC appears stuck (alive toggled {toggles}x)");
}

#[test]
fn dual_core_soc_runs_both_cores() {
    let config = SocConfig::table1()[1].clone(); // SoC_2: 2 cores
    let built = build_soc(&config).unwrap();
    let flat = built.design.flatten().unwrap();
    let clk = flat.net_by_name("clk").unwrap();
    let trace = run_workload(EventDrivenEngine::new(&flat, clk).unwrap(), &flat, 120);

    for core in 0..2 {
        let alive_col = trace
            .signals
            .iter()
            .position(|s| *s == format!("alive_{core}"))
            .unwrap();
        let toggles = trace
            .rows
            .windows(2)
            .filter(|w| w[0][alive_col] != w[1][alive_col])
            .count();
        assert!(toggles > 5, "core {core} stuck ({toggles} toggles)");
    }
}

#[test]
fn soc_netlist_round_trips_through_verilog() {
    let config = SocConfig::table1()[0].clone();
    let built = build_soc(&config).unwrap();
    let text = write_verilog(&built.design);
    let reparsed = ssresf_netlist::verilog::parse_verilog(&text).unwrap();
    let a = built.design.flatten().unwrap();
    let b = reparsed.flatten().unwrap();
    assert_eq!(a.cells().len(), b.cells().len());
    assert_eq!(a.nets().len(), b.nets().len());
    assert_eq!(a.primary_outputs().len(), b.primary_outputs().len());
}

#[test]
fn isa_and_width_scale_cell_counts() {
    let configs = SocConfig::table1();
    let cells = |i: usize| {
        build_soc(&configs[i])
            .unwrap()
            .design
            .flatten()
            .unwrap()
            .cells()
            .len()
    };
    // SoC_3 (RV32IM, 32-bit AHB) > SoC_1 (RV32I, 8-bit APB).
    assert!(cells(2) > cells(0));
    // SoC_9 (RV64I, 2048-bit AHB) dwarfs SoC_3.
    assert!(cells(8) > 3 * cells(2));
}
