//! Cross-engine integration tests: the event-driven and levelized engines
//! must agree on golden runs, and faults must propagate sensibly in both.
//! The bit-parallel kernel, which the levelized engine is one lane of, is
//! checked lane by lane against the independent oracle.

use ssresf_netlist::{CellKind, Design, FlatNetlist, ModuleBuilder, PortDir};
use ssresf_sim::{
    drive_random_inputs, Engine, EngineTelemetry, EventDrivenEngine, Fault, LevelizedEngine, Lfsr,
    Logic, OracleEngine, SetFault, SeuFault, Testbench,
};
use ssresf_socgen::{build_soc, SocConfig};

/// Builds an `n`-bit synchronous up-counter with async active-low reset.
/// Outputs `q_0 .. q_{n-1}`.
fn counter(n: usize) -> FlatNetlist {
    let mut design = Design::new();
    let mut mb = ModuleBuilder::new("counter");
    let clk = mb.port("clk", PortDir::Input);
    let rst_n = mb.port("rst_n", PortDir::Input);
    let qs: Vec<_> = (0..n)
        .map(|i| mb.port(format!("q_{i}"), PortDir::Output))
        .collect();

    // Ripple incrementer: d0 = !q0; carry chain c_i = q0 & .. & q_i.
    let mut carry = qs[0];
    for (i, &q) in qs.iter().enumerate() {
        let d = mb.net(format!("d_{i}"));
        if i == 0 {
            mb.cell(format!("u_inc_{i}"), CellKind::Inv, &[q], &[d])
                .unwrap();
        } else {
            mb.cell(format!("u_inc_{i}"), CellKind::Xor2, &[q, carry], &[d])
                .unwrap();
            if i + 1 < n {
                let c = mb.net(format!("c_{i}"));
                mb.cell(format!("u_carry_{i}"), CellKind::And2, &[q, carry], &[c])
                    .unwrap();
                carry = c;
            }
        }
        mb.cell(format!("u_ff_{i}"), CellKind::Dffr, &[clk, d, rst_n], &[q])
            .unwrap();
    }

    let id = design.add_module(mb.finish()).unwrap();
    design.set_top(id).unwrap();
    design.flatten().unwrap()
}

fn count_value(row: &[Logic]) -> Option<u64> {
    let mut v = 0u64;
    for (i, bit) in row.iter().enumerate() {
        match bit.to_bool() {
            Some(true) => v |= 1 << i,
            Some(false) => {}
            None => return None,
        }
    }
    Some(v)
}

#[test]
fn counter_counts_on_event_engine() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let engine = EventDrivenEngine::new(&flat, clk).unwrap();
    let mut tb = Testbench::new(engine);
    let trace = tb.run(2, 10);
    let values: Vec<u64> = trace.rows.iter().map(|r| count_value(r).unwrap()).collect();
    assert_eq!(values, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
}

#[test]
fn counter_counts_on_levelized_engine() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let engine = LevelizedEngine::new(&flat, clk).unwrap();
    let mut tb = Testbench::new(engine);
    let trace = tb.run(2, 10);
    let values: Vec<u64> = trace.rows.iter().map(|r| count_value(r).unwrap()).collect();
    assert_eq!(values, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
}

#[test]
fn counter_wraps_around() {
    let flat = counter(3);
    let clk = flat.net_by_name("clk").unwrap();
    let engine = EventDrivenEngine::new(&flat, clk).unwrap();
    let mut tb = Testbench::new(engine);
    let trace = tb.run(2, 9);
    let values: Vec<u64> = trace.rows.iter().map(|r| count_value(r).unwrap()).collect();
    assert_eq!(values, vec![1, 2, 3, 4, 5, 6, 7, 0, 1]);
}

#[test]
fn engines_agree_on_golden_run() {
    let flat = counter(6);
    let clk = flat.net_by_name("clk").unwrap();
    let ev = EventDrivenEngine::new(&flat, clk).unwrap();
    let lv = LevelizedEngine::new(&flat, clk).unwrap();
    let golden_ev = Testbench::new(ev).run(3, 40);
    let golden_lv = Testbench::new(lv).run(3, 40);
    assert!(
        golden_ev.matches(&golden_lv),
        "divergences: {:?}",
        golden_ev.diff(&golden_lv)
    );
}

/// A random combinational cloud feeding a register bank — engines must agree
/// under LFSR stimulus too.
fn random_pipeline(seed: u32) -> FlatNetlist {
    let mut design = Design::new();
    let mut mb = ModuleBuilder::new("pipe");
    let clk = mb.port("clk", PortDir::Input);
    let rst_n = mb.port("rst_n", PortDir::Input);
    let ins: Vec<_> = (0..4)
        .map(|i| mb.port(format!("in_{i}"), PortDir::Input))
        .collect();
    let outs: Vec<_> = (0..4)
        .map(|i| mb.port(format!("out_{i}"), PortDir::Output))
        .collect();

    let mut lfsr = Lfsr::new(seed);
    let mut wires = ins.clone();
    let kinds = [
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Aoi21,
    ];
    for i in 0..24 {
        let kind = kinds[(lfsr.next_bits(3)) as usize % kinds.len()];
        let picks: Vec<_> = (0..kind.num_inputs())
            .map(|_| wires[lfsr.next_bits(8) as usize % wires.len()])
            .collect();
        let w = mb.net(format!("w_{i}"));
        mb.cell(format!("u_g{i}"), kind, &picks, &[w]).unwrap();
        wires.push(w);
    }
    for (i, &out) in outs.iter().enumerate() {
        let d = wires[wires.len() - 1 - i];
        mb.cell(
            format!("u_ff_{i}"),
            CellKind::Dffr,
            &[clk, d, rst_n],
            &[out],
        )
        .unwrap();
    }
    let id = design.add_module(mb.finish()).unwrap();
    design.set_top(id).unwrap();
    design.flatten().unwrap()
}

#[test]
fn engines_agree_on_random_pipelines() {
    for seed in [1u32, 7, 99] {
        let flat = random_pipeline(seed);
        let clk = flat.net_by_name("clk").unwrap();
        let inputs: Vec<_> = (0..4)
            .map(|i| flat.net_by_name(&format!("in_{i}")).unwrap())
            .collect();

        // Drive both engines with identical LFSR input streams.
        let run = |flat: &FlatNetlist, which: u8| match which {
            0 => {
                let engine = EventDrivenEngine::new(flat, clk).unwrap();
                let mut tb = Testbench::new(engine);
                let mut l = Lfsr::new(seed ^ 0xdead);
                tb.run_with_stimulus(3, 30, |_, e| drive_random_inputs(e, &inputs, &mut l))
            }
            _ => {
                let engine = LevelizedEngine::new(flat, clk).unwrap();
                let mut tb = Testbench::new(engine);
                let mut l = Lfsr::new(seed ^ 0xdead);
                tb.run_with_stimulus(3, 30, |_, e| drive_random_inputs(e, &inputs, &mut l))
            }
        };
        let a = run(&flat, 0);
        let b = run(&flat, 1);
        assert!(a.matches(&b), "seed {seed}: {:?}", a.diff(&b));
    }
}

#[test]
fn seu_diverges_from_golden_then_counts_wrong() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();

    let golden = {
        let engine = EventDrivenEngine::new(&flat, clk).unwrap();
        Testbench::new(engine).run(2, 10)
    };

    let faulty = {
        let engine = EventDrivenEngine::new(&flat, clk).unwrap();
        let mut tb = Testbench::new(engine);
        // Flip bit 2 of the counter in (post-reset) cycle 4. Fault cycles
        // count absolute engine cycles: 2 reset cycles + 4.
        let ff = flat.cell_by_name("u_ff_2").unwrap();
        tb.engine_mut().schedule_fault(Fault::Seu(SeuFault {
            cell: ff,
            cycle: 2 + 4,
            offset: 0.3,
        }));
        tb.run(2, 10)
    };

    let diffs = golden.diff(&faulty);
    assert!(!diffs.is_empty(), "SEU was masked entirely");
    // The upset lands in cycle 4's samples: bit 2 flips from its golden value.
    assert!(diffs.iter().any(|d| d.cycle == 4));
    // Before the fault the traces agree.
    assert!(diffs.iter().all(|d| d.cycle >= 4));
}

#[test]
fn seu_in_levelized_engine_also_diverges() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let golden = {
        let engine = LevelizedEngine::new(&flat, clk).unwrap();
        Testbench::new(engine).run(2, 10)
    };
    let faulty = {
        let engine = LevelizedEngine::new(&flat, clk).unwrap();
        let mut tb = Testbench::new(engine);
        let ff = flat.cell_by_name("u_ff_2").unwrap();
        tb.engine_mut().schedule_fault(Fault::Seu(SeuFault {
            cell: ff,
            cycle: 2 + 4,
            offset: 0.0,
        }));
        tb.run(2, 10)
    };
    let diffs = golden.diff(&faulty);
    assert!(diffs.iter().any(|d| d.cycle == 4));
    assert!(diffs.iter().all(|d| d.cycle >= 4));
}

#[test]
fn short_set_pulse_far_from_edge_is_masked_in_event_engine() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let golden = {
        let engine = EventDrivenEngine::new(&flat, clk).unwrap();
        Testbench::new(engine).run(2, 10)
    };
    let faulty = {
        let engine = EventDrivenEngine::new(&flat, clk).unwrap();
        let mut tb = Testbench::new(engine);
        // Narrow pulse just after the posedge on the d_1 net: it decays long
        // before the next capture, so no soft error results.
        let net = flat.net_by_name("d_1").unwrap();
        tb.engine_mut().schedule_fault(Fault::Set(SetFault {
            net,
            cycle: 2 + 3,
            offset: 0.25,
            width: 0.05,
        }));
        tb.run(2, 10)
    };
    assert!(
        golden.matches(&faulty),
        "pulse should be temporally masked: {:?}",
        golden.diff(&faulty)
    );
}

#[test]
fn set_pulse_spanning_the_edge_is_latched_in_event_engine() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let golden = {
        let engine = EventDrivenEngine::new(&flat, clk).unwrap();
        Testbench::new(engine).run(2, 10)
    };
    let faulty = {
        let engine = EventDrivenEngine::new(&flat, clk).unwrap();
        let mut tb = Testbench::new(engine);
        // A pulse that is still active at the *next* rising edge gets
        // captured into the flip-flop: d_0 is the INV output feeding ff_0.
        let net = flat.net_by_name("d_0").unwrap();
        tb.engine_mut().schedule_fault(Fault::Set(SetFault {
            net,
            cycle: 2 + 3,
            offset: 0.9,
            width: 0.2,
        }));
        tb.run(2, 10)
    };
    let diffs = golden.diff(&faulty);
    assert!(!diffs.is_empty(), "edge-spanning pulse must be captured");
    assert!(diffs.iter().all(|d| d.cycle >= 4));
}

#[test]
fn set_in_levelized_engine_is_cycle_wide_and_latched() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let golden = {
        let engine = LevelizedEngine::new(&flat, clk).unwrap();
        Testbench::new(engine).run(2, 10)
    };
    let faulty = {
        let engine = LevelizedEngine::new(&flat, clk).unwrap();
        let mut tb = Testbench::new(engine);
        let net = flat.net_by_name("d_0").unwrap();
        tb.engine_mut().schedule_fault(Fault::Set(SetFault {
            net,
            cycle: 2 + 3,
            offset: 0.5,
            width: 0.1,
        }));
        tb.run(2, 10)
    };
    // The cycle-accurate engine widens the pulse across the whole cycle, so
    // it is always observed (pessimistic, like compiled-code fault flows).
    assert!(!golden.matches(&faulty));
}

#[test]
fn activity_accumulates_on_toggling_nets() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let engine = EventDrivenEngine::new(&flat, clk).unwrap();
    let mut tb = Testbench::new(engine);
    tb.run(2, 16);
    let activity = tb.engine().activity();
    let q0 = flat.net_by_name("q_0").unwrap();
    let q3 = flat.net_by_name("q_3").unwrap();
    // Bit 0 toggles every cycle; bit 3 toggles every 8 cycles.
    assert!(activity[q0.index()] > activity[q3.index()]);
    let per_cycle = tb.engine().activity_per_cycle();
    assert!(per_cycle[q0.index()] > 0.5);
}

#[test]
fn event_engine_wave_recording_produces_vcd() {
    let flat = counter(2);
    let clk = flat.net_by_name("clk").unwrap();
    let mut engine = EventDrivenEngine::new(&flat, clk).unwrap();
    let q0 = flat.net_by_name("q_0").unwrap();
    engine.record(&[clk, q0]);
    let mut tb = Testbench::new(engine);
    tb.run(2, 4);
    let wave = tb.engine().wave_trace();
    assert_eq!(wave.signals.len(), 2);
    assert!(wave.signal("clk").unwrap().toggles() >= 8);

    let text = ssresf_sim::vcd::write_vcd(&wave);
    let parsed = ssresf_sim::vcd::parse_vcd(&text).unwrap();
    assert_eq!(parsed.signals.len(), 2);
}

/// Resets the engine, runs `total` cycles sampling `outputs`, and snapshots
/// after `snap_at` post-reset cycles.
fn run_and_snapshot<E: Engine>(
    engine: &mut E,
    rst: ssresf_netlist::NetId,
    outputs: &[ssresf_netlist::NetId],
    snap_at: usize,
    total: usize,
) -> (Vec<Vec<Logic>>, ssresf_sim::EngineState) {
    engine.poke(rst, Logic::Zero);
    engine.step_cycle();
    engine.step_cycle();
    engine.poke(rst, Logic::One);
    let mut rows = Vec::new();
    let mut snap = None;
    for c in 0..total {
        engine.step_cycle();
        rows.push(engine.sample(outputs));
        if c + 1 == snap_at {
            snap = Some(engine.snapshot());
        }
    }
    (rows, snap.expect("snapshot taken"))
}

#[test]
fn snapshot_restore_resumes_bit_identically_on_both_engines() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let rst = flat.net_by_name("rst_n").unwrap();
    let outputs = flat.primary_outputs().to_vec();

    let mut ev = EventDrivenEngine::new(&flat, clk).unwrap();
    let (ev_rows, ev_snap) = run_and_snapshot(&mut ev, rst, &outputs, 8, 20);
    let mut ev_resumed = EventDrivenEngine::new(&flat, clk).unwrap();
    ev_resumed.restore(&ev_snap);
    assert_eq!(ev_resumed.cycle(), ev_snap.cycle());
    for row in ev_rows.iter().skip(8) {
        ev_resumed.step_cycle();
        assert_eq!(&ev_resumed.sample(&outputs), row);
    }
    // Counters included: a resumed run snapshots as the uninterrupted one.
    assert_eq!(ev_resumed.snapshot(), ev.snapshot());

    let mut lv = LevelizedEngine::new(&flat, clk).unwrap();
    let (lv_rows, lv_snap) = run_and_snapshot(&mut lv, rst, &outputs, 8, 20);
    let mut lv_resumed = LevelizedEngine::new(&flat, clk).unwrap();
    lv_resumed.restore(&lv_snap);
    for row in lv_rows.iter().skip(8) {
        lv_resumed.step_cycle();
        assert_eq!(&lv_resumed.sample(&outputs), row);
    }
    assert_eq!(lv_resumed.snapshot(), lv.snapshot());
}

#[test]
fn restored_engine_honors_later_faults_identically() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let rst = flat.net_by_name("rst_n").unwrap();
    let outputs = flat.primary_outputs().to_vec();
    let ff = flat.cell_by_name("u_ff_1").unwrap();
    // Fires at absolute cycle 14 (2 reset + 12), after the cycle-10 snapshot.
    let fault = Fault::Seu(SeuFault {
        cell: ff,
        cycle: 14,
        offset: 0.4,
    });

    // Golden reference provides the snapshot; the from-scratch faulty run
    // is identical to golden until the fault fires.
    let mut golden = EventDrivenEngine::new(&flat, clk).unwrap();
    let (_, snap) = run_and_snapshot(&mut golden, rst, &outputs, 8, 8);

    let mut scratch = EventDrivenEngine::new(&flat, clk).unwrap();
    scratch.poke(rst, Logic::Zero);
    scratch.step_cycle();
    scratch.step_cycle();
    scratch.poke(rst, Logic::One);
    scratch.schedule_fault(fault);
    let mut scratch_rows = Vec::new();
    for _ in 0..20 {
        scratch.step_cycle();
        scratch_rows.push(scratch.sample(&outputs));
    }

    let mut resumed = EventDrivenEngine::new(&flat, clk).unwrap();
    resumed.restore(&snap);
    resumed.schedule_fault(fault);
    for row in scratch_rows.iter().skip(8) {
        resumed.step_cycle();
        assert_eq!(&resumed.sample(&outputs), row);
    }
}

#[test]
#[should_panic(expected = "cannot restore")]
fn restoring_a_mismatched_snapshot_kind_panics() {
    let flat = counter(2);
    let clk = flat.net_by_name("clk").unwrap();
    let ev = EventDrivenEngine::new(&flat, clk).unwrap();
    let mut lv = LevelizedEngine::new(&flat, clk).unwrap();
    lv.restore(&ev.snapshot());
}

#[test]
fn snapshots_converge_ignoring_activity_counters() {
    let flat = counter(3);
    let clk = flat.net_by_name("clk").unwrap();
    let rst = flat.net_by_name("rst_n").unwrap();
    let outputs = flat.primary_outputs().to_vec();

    // Two runs reaching the same cycle the same way converge...
    let mut a = EventDrivenEngine::new(&flat, clk).unwrap();
    let mut b = EventDrivenEngine::new(&flat, clk).unwrap();
    let (_, snap_a) = run_and_snapshot(&mut a, rst, &outputs, 6, 6);
    let (_, snap_b) = run_and_snapshot(&mut b, rst, &outputs, 6, 6);
    assert!(snap_a.converged_with(&snap_b));

    // ...but not with a different cycle count or engine kind.
    let mut c = EventDrivenEngine::new(&flat, clk).unwrap();
    let (_, snap_c) = run_and_snapshot(&mut c, rst, &outputs, 7, 7);
    assert!(!snap_a.converged_with(&snap_c));
    let mut l = LevelizedEngine::new(&flat, clk).unwrap();
    let (_, snap_l) = run_and_snapshot(&mut l, rst, &outputs, 6, 6);
    assert!(!snap_a.converged_with(&snap_l));
}

#[test]
#[should_panic(expected = "cannot represent Z")]
fn levelized_engine_rejects_z() {
    let flat = counter(2);
    let clk = flat.net_by_name("clk").unwrap();
    let rst = flat.net_by_name("rst_n").unwrap();
    let mut lv = LevelizedEngine::new(&flat, clk).unwrap();
    lv.poke(rst, Logic::Z);
}

// ---------------------------------------------------------------------------
// Bit-parallel kernel: lane-for-lane equivalence with the oracle. The
// levelized engine is the kernel's one-word golden lane, so it cannot be
// the reference; activity, which the oracle's chaotic iteration counts
// differently, is compared against the one-word engine across widths.

use ssresf_sim::{BitParallelEngine, LaneMask};

fn golden_lane_matches_oracle_at_width<const W: usize>() {
    for seed in [1u32, 7, 99] {
        let flat = random_pipeline(seed);
        let clk = flat.net_by_name("clk").unwrap();
        let inputs: Vec<_> = (0..4)
            .map(|i| flat.net_by_name(&format!("in_{i}")).unwrap())
            .collect();

        let scalar = {
            let engine = OracleEngine::new(&flat, clk).unwrap();
            let mut tb = Testbench::new(engine);
            let mut l = Lfsr::new(seed ^ 0xbeef);
            tb.run_with_stimulus(3, 30, |_, e| drive_random_inputs(e, &inputs, &mut l))
        };
        let batched = {
            let engine = BitParallelEngine::<W>::new(&flat, clk).unwrap();
            let mut tb = Testbench::new(engine);
            let mut l = Lfsr::new(seed ^ 0xbeef);
            tb.run_with_stimulus(3, 30, |_, e| drive_random_inputs(e, &inputs, &mut l))
        };
        assert!(
            scalar.matches(&batched),
            "W={W} seed {seed}: {:?}",
            scalar.diff(&batched)
        );
    }
}

#[test]
fn bitparallel_golden_lane_matches_oracle_all_widths() {
    golden_lane_matches_oracle_at_width::<1>();
    golden_lane_matches_oracle_at_width::<4>();
    golden_lane_matches_oracle_at_width::<8>();
}

#[test]
fn bitparallel_counter_counts_and_activity_matches() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();

    let batched = BitParallelEngine::<4>::new(&flat, clk).unwrap();
    let mut tb = Testbench::new(batched);
    let trace = tb.run(2, 10);
    let values: Vec<u64> = trace.rows.iter().map(|r| count_value(r).unwrap()).collect();
    assert_eq!(values, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    let oracle = Testbench::new(OracleEngine::new(&flat, clk).unwrap()).run(2, 10);
    assert!(trace.matches(&oracle), "{:?}", trace.diff(&oracle));

    // Golden-lane activity accounting does not depend on the width.
    let one_word = LevelizedEngine::new(&flat, clk).unwrap();
    let mut stb = Testbench::new(one_word);
    stb.run(2, 10);
    assert_eq!(tb.engine().activity(), stb.engine().activity());
}

/// Per-lane faults reproduce scalar single-fault runs bit-for-bit: one
/// batched run with distinct faults equals the same number of oracle
/// runs, at every supported lane width.
fn lanes_match_scalar_single_fault_runs_at_width<const W: usize>(lane_stride: usize) {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let rst = flat.net_by_name("rst_n").unwrap();
    let outputs = flat.primary_outputs().to_vec();

    // A mix of SEUs and SETs across cells, nets and cycles.
    let mut faults = Vec::new();
    for i in 0..4 {
        let cell = flat.cell_by_name(&format!("u_ff_{i}")).unwrap();
        for cycle in [3u64, 5, 8, 11] {
            faults.push(Fault::Seu(SeuFault {
                cell,
                cycle,
                offset: 0.25,
            }));
        }
        let net = flat.net_by_name(&format!("d_{i}")).unwrap();
        for cycle in [4u64, 7, 10] {
            faults.push(Fault::Set(SetFault {
                net,
                cycle,
                offset: 0.5,
                width: 0.1,
            }));
        }
    }
    // Spread the fault lanes across the word's 64-bit chunks.
    let lanes: Vec<usize> = (0..faults.len()).map(|i| 1 + i * lane_stride).collect();
    assert!(*lanes.last().unwrap() < W * 64);

    let drive = |engine: &mut dyn Engine| {
        engine.poke(rst, Logic::Zero);
        engine.step_cycle();
        engine.step_cycle();
        engine.poke(rst, Logic::One);
    };

    let mut batch = BitParallelEngine::<W>::new(&flat, clk).unwrap();
    drive(&mut batch);
    for (i, &f) in faults.iter().enumerate() {
        batch.schedule_fault_in_lane(lanes[i], f);
    }
    let mut lane_rows: Vec<Vec<Vec<Logic>>> = vec![Vec::new(); faults.len() + 1];
    for _ in 0..16 {
        batch.step_cycle();
        for (i, rows) in lane_rows.iter_mut().enumerate() {
            let lane = if i == 0 { 0 } else { lanes[i - 1] };
            rows.push(batch.sample_lane(&outputs, lane));
        }
    }

    for (i, &f) in faults.iter().enumerate() {
        let mut scalar = OracleEngine::new(&flat, clk).unwrap();
        drive(&mut scalar);
        scalar.schedule_fault(f);
        for row in &lane_rows[i + 1] {
            scalar.step_cycle();
            assert_eq!(
                &scalar.sample(&outputs),
                row,
                "W={W} lane {} fault {f:?}",
                lanes[i]
            );
        }
    }

    // Lane 0 stayed golden.
    let mut golden = OracleEngine::new(&flat, clk).unwrap();
    drive(&mut golden);
    for row in &lane_rows[0] {
        golden.step_cycle();
        assert_eq!(&golden.sample(&outputs), row);
    }
}

#[test]
fn bitparallel_lanes_match_scalar_single_fault_runs_all_widths() {
    // 28 faults: packed into one chunk at W = 1, strided across chunks at
    // the wider widths so cross-chunk lane bookkeeping is exercised.
    lanes_match_scalar_single_fault_runs_at_width::<1>(1);
    lanes_match_scalar_single_fault_runs_at_width::<4>(9);
    lanes_match_scalar_single_fault_runs_at_width::<8>(18);
}

fn divergence_tracks_fault_lane_at_width<const W: usize>(lane: usize) {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let rst = flat.net_by_name("rst_n").unwrap();
    let ff = flat.cell_by_name("u_ff_2").unwrap();

    let mut batch = BitParallelEngine::<W>::new(&flat, clk).unwrap();
    batch.poke(rst, Logic::Zero);
    batch.step_cycle();
    batch.step_cycle();
    batch.poke(rst, Logic::One);
    batch.schedule_fault_in_lane(
        lane,
        Fault::Seu(SeuFault {
            cell: ff,
            cycle: 6,
            offset: 0.0,
        }),
    );
    // Pending fault counts as divergence (the lane's future differs).
    assert_eq!(batch.diverged_lanes(), LaneMask::bit(lane));
    for _ in 0..3 {
        batch.step_cycle();
    }
    assert_eq!(batch.diverged_lanes(), LaneMask::bit(lane));
    for _ in 0..2 {
        batch.step_cycle();
    }
    // Fault fired at cycle 6: the lane has genuinely diverged in state.
    assert_eq!(batch.diverged_lanes(), LaneMask::bit(lane));
    let q2 = flat.net_by_name("q_2").unwrap();
    assert_eq!(batch.lanes_differing_from_golden(q2), LaneMask::bit(lane));
}

#[test]
fn bitparallel_divergence_tracks_fault_lanes_only_all_widths() {
    divergence_tracks_fault_lane_at_width::<1>(5);
    divergence_tracks_fault_lane_at_width::<4>(200);
    divergence_tracks_fault_lane_at_width::<8>(450);
}

#[test]
fn bitparallel_snapshot_interop_with_levelized() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let rst = flat.net_by_name("rst_n").unwrap();
    let outputs = flat.primary_outputs().to_vec();

    // Scalar checkpoint broadcast-restores into a batch...
    let mut scalar = LevelizedEngine::new(&flat, clk).unwrap();
    let (rows, snap) = run_and_snapshot(&mut scalar, rst, &outputs, 8, 20);
    let mut batch = BitParallelEngine::<4>::new(&flat, clk).unwrap();
    batch.restore(&snap);
    assert_eq!(batch.cycle(), snap.cycle());
    for row in rows.iter().skip(8) {
        batch.step_cycle();
        assert_eq!(&batch.sample(&outputs), row);
        // All lanes carry the same (golden) values after a broadcast.
        assert!(batch.diverged_lanes().none());
    }
    // The work counter resumes from the snapshot, so the widths agree on
    // the whole snapshot.
    assert_eq!(batch.snapshot(), scalar.snapshot());

    // ...and a golden batch snapshot restores into a scalar engine.
    let mut batch2 = BitParallelEngine::<8>::new(&flat, clk).unwrap();
    let (rows2, snap2) = run_and_snapshot(&mut batch2, rst, &outputs, 8, 20);
    assert_eq!(rows, rows2);
    let mut resumed = LevelizedEngine::new(&flat, clk).unwrap();
    resumed.restore(&snap2);
    for row in rows2.iter().skip(8) {
        resumed.step_cycle();
        assert_eq!(&resumed.sample(&outputs), row);
    }
}

#[test]
#[should_panic(expected = "cannot restore")]
fn bitparallel_rejects_event_driven_snapshot() {
    let flat = counter(2);
    let clk = flat.net_by_name("clk").unwrap();
    let ev = EventDrivenEngine::new(&flat, clk).unwrap();
    let mut bp = BitParallelEngine::<1>::new(&flat, clk).unwrap();
    bp.restore(&ev.snapshot());
}

#[test]
#[should_panic(expected = "diverged")]
fn bitparallel_refuses_snapshot_after_divergence() {
    let flat = counter(2);
    let clk = flat.net_by_name("clk").unwrap();
    let ff = flat.cell_by_name("u_ff_0").unwrap();
    let mut bp = BitParallelEngine::<8>::new(&flat, clk).unwrap();
    bp.schedule_fault_in_lane(
        300,
        Fault::Seu(SeuFault {
            cell: ff,
            cycle: 0,
            offset: 0.0,
        }),
    );
    let _ = bp.snapshot();
}

#[test]
fn bitparallel_word_evals_count_sweep_work() {
    let flat = counter(4);
    let clk = flat.net_by_name("clk").unwrap();
    let mut bp = BitParallelEngine::<1>::new(&flat, clk).unwrap();
    let before = bp.word_evals();
    bp.step_cycle();
    let per_cycle = bp.word_evals() - before;
    // One sweep evaluates every combinational cell once; async fixpoint may
    // add sweeps but never in a settled golden run past reset.
    assert!(per_cycle >= 1);
    let t = bp.telemetry();
    assert_eq!(t.word_evals, bp.word_evals());
    assert_eq!(t.cells_evaluated, 0);
}

/// A toggler and a data flop with async reset, a plain flop and a memory
/// bit: every kind of site a bit-parallel cycle can disturb.
///
/// `q0` toggles (`u_ff_0`, Dffr), `q1` accumulates `d` through the
/// combinational net `x1` (`u_ff_1`, Dffr), `u_bit` writes `q0 & d` when
/// `we` is high, `y = m ^ q1`, and `z = q0 ^ q2` where `q2` registers `y`
/// without a reset (`u_ff_2`, Dff).
fn lane_probe() -> FlatNetlist {
    let mut design = Design::new();
    let mut mb = ModuleBuilder::new("probe");
    let clk = mb.port("clk", PortDir::Input);
    let rst_n = mb.port("rst_n", PortDir::Input);
    let d = mb.port("d", PortDir::Input);
    let we = mb.port("we", PortDir::Input);
    let y = mb.port("y", PortDir::Output);
    let z = mb.port("z", PortDir::Output);
    let [q0, nq0, q1, x1, dm, m, q2] =
        ["q0", "nq0", "q1", "x1", "dm", "m", "q2"].map(|n| mb.net(n));
    mb.cell("u_ff_0", CellKind::Dffr, &[clk, nq0, rst_n], &[q0])
        .unwrap();
    mb.cell("u_inv", CellKind::Inv, &[q0], &[nq0]).unwrap();
    mb.cell("u_x1", CellKind::Xor2, &[q1, d], &[x1]).unwrap();
    mb.cell("u_ff_1", CellKind::Dffr, &[clk, x1, rst_n], &[q1])
        .unwrap();
    mb.cell("u_dm", CellKind::And2, &[q0, d], &[dm]).unwrap();
    mb.cell("u_bit", CellKind::SramBit, &[clk, we, dm], &[m])
        .unwrap();
    mb.cell("u_y", CellKind::Xor2, &[m, q1], &[y]).unwrap();
    mb.cell("u_ff_2", CellKind::Dff, &[clk, y], &[q2]).unwrap();
    mb.cell("u_z", CellKind::Xor2, &[q0, q2], &[z]).unwrap();
    let id = design.add_module(mb.finish()).unwrap();
    design.set_top(id).unwrap();
    design.flatten().unwrap()
}

/// Checks a bit-parallel run cycle by cycle against a full-state reference:
/// SETs on a primary input (two lanes, same net, same cycle), on a flop Q
/// net and on a combinational net, and SEUs on an async-reset flop (once
/// during reset) and on a memory bit. After every cycle, `diverged_lanes`
/// must equal a scan of every net and every cell state plus the lanes with
/// pending faults, every lane must equal an oracle run of its single fault
/// in every net and cell, and golden-lane activity must equal the one-word
/// engine's golden run.
fn lanes_match_full_state_reference_at_width<const W: usize>(lane_stride: usize) {
    let flat = lane_probe();
    let net = |name: &str| flat.net_by_name(name).unwrap();
    let cell = |name: &str| flat.cell_by_name(name).unwrap();
    let (clk, rst_n, d, we) = (net("clk"), net("rst_n"), net("d"), net("we"));
    let set = |net, cycle| {
        Fault::Set(SetFault {
            net,
            cycle,
            offset: 0.5,
            width: 0.2,
        })
    };
    let seu = |cell, cycle| {
        Fault::Seu(SeuFault {
            cell,
            cycle,
            offset: 0.5,
        })
    };
    let faults = [
        set(rst_n, 6),
        set(rst_n, 6),
        set(net("q0"), 4),
        set(net("x1"), 5),
        seu(cell("u_ff_1"), 1),
        seu(cell("u_ff_1"), 7),
        seu(cell("u_bit"), 3),
        set(d, 9),
    ];
    let lanes: Vec<usize> = (0..faults.len()).map(|i| 1 + i * lane_stride).collect();
    assert!(*lanes.last().unwrap() < W * 64);

    // Reset for two cycles, `d` high throughout (so SETs on `rst_n` and
    // `d` persist), `we` pulsed every third cycle.
    let stimulate = |engine: &mut dyn Engine, cycle: u64| {
        match cycle {
            0 => {
                engine.poke(rst_n, Logic::Zero);
                engine.poke(d, Logic::One);
            }
            2 => engine.poke(rst_n, Logic::One),
            _ => {}
        }
        engine.poke(we, Logic::from(cycle.is_multiple_of(3)));
    };

    let mut batch = BitParallelEngine::<W>::new(&flat, clk).unwrap();
    for (&lane, &fault) in lanes.iter().zip(&faults) {
        batch.schedule_fault_in_lane(lane, fault);
    }
    let mut one_word = LevelizedEngine::new(&flat, clk).unwrap();
    let mut golden = OracleEngine::new(&flat, clk).unwrap();
    let mut scalars: Vec<OracleEngine> = faults
        .iter()
        .map(|&fault| {
            let mut e = OracleEngine::new(&flat, clk).unwrap();
            e.schedule_fault(fault);
            e
        })
        .collect();

    let nets: Vec<_> = (0..flat.num_nets() as u32)
        .map(ssresf_netlist::NetId)
        .collect();
    let cells: Vec<_> = flat.iter_cells().map(|(id, _)| id).collect();
    for cycle in 0..16u64 {
        stimulate(&mut batch, cycle);
        stimulate(&mut one_word, cycle);
        stimulate(&mut golden, cycle);
        batch.step_cycle();
        one_word.step_cycle();
        golden.step_cycle();
        for e in &mut scalars {
            stimulate(e, cycle);
            e.step_cycle();
        }

        let mut reference = LaneMask::<W>::EMPTY;
        for lane in 1..W * 64 {
            let differs = nets
                .iter()
                .any(|&n| batch.peek_lane(n, lane) != batch.peek_lane(n, 0))
                || cells
                    .iter()
                    .any(|&c| batch.cell_state_lane(c, lane) != batch.cell_state_lane(c, 0));
            if differs {
                reference.set(lane);
            }
        }
        for (&lane, fault) in lanes.iter().zip(&faults) {
            if fault.cycle() > cycle {
                reference.set(lane);
            }
        }
        assert_eq!(batch.diverged_lanes(), reference, "W={W} cycle {cycle}");

        for (lane, scalar) in
            std::iter::once((0, &golden)).chain(lanes.iter().copied().zip(&scalars))
        {
            for &n in &nets {
                assert_eq!(
                    batch.peek_lane(n, lane),
                    scalar.peek(n),
                    "W={W} cycle {cycle} lane {lane} net {}",
                    flat.net_full_name(n)
                );
            }
            for &c in &cells {
                assert_eq!(
                    batch.cell_state_lane(c, lane),
                    scalar.cell_state(c),
                    "W={W} cycle {cycle} lane {lane} cell {}",
                    flat.cell_full_name(c)
                );
            }
        }
        assert_eq!(batch.activity(), one_word.activity(), "W={W} cycle {cycle}");
    }
    // Every fault was observable somewhere along the run.
    assert!(scalars.iter().all(|s| nets
        .iter()
        .any(|&n| s.activity()[n.index()] != golden.activity()[n.index()])));
}

#[test]
fn bitparallel_lanes_match_full_state_reference_all_widths() {
    lanes_match_full_state_reference_at_width::<1>(1);
    lanes_match_full_state_reference_at_width::<4>(36);
    lanes_match_full_state_reference_at_width::<8>(70);
}

/// An 8-bit one-hot-written SRAM column: bits share `we`/`d`, outputs fold
/// into a XOR parity chain observed at `parity`.
fn sram_column(bits: usize) -> FlatNetlist {
    let mut design = Design::new();
    let mut mb = ModuleBuilder::new("column");
    let clk = mb.port("clk", PortDir::Input);
    let we = mb.port("we", PortDir::Input);
    let d = mb.port("d", PortDir::Input);
    let parity = mb.port("parity", PortDir::Output);
    let mut chain = None;
    for i in 0..bits {
        let q = mb.net(format!("q_{i}"));
        mb.cell(format!("u_bit_{i}"), CellKind::SramBit, &[clk, we, d], &[q])
            .unwrap();
        chain = Some(match chain {
            None => q,
            Some(prev) => {
                let x = mb.net(format!("x_{i}"));
                mb.cell(format!("u_x_{i}"), CellKind::Xor2, &[prev, q], &[x])
                    .unwrap();
                x
            }
        });
    }
    mb.cell("u_ob", CellKind::Buf, &[chain.unwrap()], &[parity])
        .unwrap();
    let id = design.add_module(mb.finish()).unwrap();
    design.set_top(id).unwrap();
    design.flatten().unwrap()
}

/// The batched preload must land in exactly the state the per-cell loop
/// produces — net values, stored states and toggle activity — on every
/// engine, and the subsequent cycles must sample identical traces.
#[test]
fn batched_preload_matches_per_cell_preload() {
    let flat = sram_column(8);
    let clk = flat.net_by_name("clk").unwrap();
    let we = flat.net_by_name("we").unwrap();
    let d = flat.net_by_name("d").unwrap();
    let parity = flat.net_by_name("parity").unwrap();
    let bits: Vec<_> = flat
        .iter_cells()
        .filter(|(_, c)| c.kind.is_memory_bit())
        .map(|(id, _)| id)
        .collect();
    assert_eq!(bits.len(), 8);

    fn drive<E: Engine>(
        engine: &mut E,
        we: ssresf_netlist::NetId,
        d: ssresf_netlist::NetId,
        parity: ssresf_netlist::NetId,
    ) -> Vec<Logic> {
        engine.poke(we, Logic::One);
        engine.poke(d, Logic::One);
        let mut trace = Vec::new();
        for _ in 0..4 {
            engine.step_cycle();
            trace.push(engine.peek(parity));
        }
        trace
    }

    let run = |batched: bool| {
        let mut results = Vec::new();
        {
            let mut e = EventDrivenEngine::new(&flat, clk).unwrap();
            if batched {
                e.set_cell_states(&bits, Logic::Zero);
            } else {
                for &b in &bits {
                    e.set_cell_state(b, Logic::Zero);
                }
            }
            let values: Vec<Logic> = (0..flat.nets().len())
                .map(|i| e.peek(ssresf_netlist::NetId(i as u32)))
                .collect();
            let activity = e.activity().to_vec();
            results.push((values, activity, drive(&mut e, we, d, parity)));
        }
        {
            let mut e = LevelizedEngine::new(&flat, clk).unwrap();
            if batched {
                e.set_cell_states(&bits, Logic::Zero);
            } else {
                for &b in &bits {
                    e.set_cell_state(b, Logic::Zero);
                }
            }
            let values: Vec<Logic> = (0..flat.nets().len())
                .map(|i| e.peek(ssresf_netlist::NetId(i as u32)))
                .collect();
            let activity = e.activity().to_vec();
            results.push((values, activity, drive(&mut e, we, d, parity)));
        }
        results
    };

    let per_cell = run(false);
    let batched = run(true);
    for (engine, (a, b)) in per_cell.iter().zip(&batched).enumerate() {
        assert_eq!(a.0, b.0, "engine {engine}: settled net values differ");
        assert_eq!(a.1, b.1, "engine {engine}: toggle activity differs");
        assert_eq!(a.2, b.2, "engine {engine}: post-preload trace differs");
    }
    // The preload is observable at all: the parity chain resolves to a
    // defined value (all eight bits written 1 -> even parity).
    assert_eq!(batched[1].2.last(), Some(&Logic::Zero));
}

fn soc1() -> FlatNetlist {
    build_soc(&SocConfig::table1()[0])
        .unwrap()
        .design
        .flatten()
        .unwrap()
}

/// The campaign's run prologue: three reset cycles, then the post-reset
/// memory-image load.
fn reset_and_preload<E: Engine>(engine: &mut E, flat: &FlatNetlist) {
    let rst = flat.net_by_name("rst_n").unwrap();
    engine.poke(rst, Logic::Zero);
    for _ in 0..3 {
        engine.step_cycle();
    }
    engine.poke(rst, Logic::One);
    let memory: Vec<_> = flat
        .iter_cells()
        .filter(|(_, c)| c.kind.is_memory_bit())
        .map(|(id, _)| id)
        .collect();
    engine.set_cell_states(&memory, Logic::Zero);
}

/// The schedule counters: `(events_processed, delta_cycles, wheel_advances)`.
fn schedule(t: EngineTelemetry) -> (u64, u64, u64) {
    (t.events_processed, t.delta_cycles, t.wheel_advances)
}

/// Pins the event-driven engine's exact schedule on SoC_1: a golden run
/// and two checkpointed resumes. A queue that runs same-time events in
/// another order (e.g. LIFO within a timestamp) changes these counts.
#[test]
fn event_schedule_counters_are_pinned_on_soc1() {
    let flat = soc1();
    let clk = flat.net_by_name("clk").unwrap();
    let outputs = flat.primary_outputs().to_vec();

    let mut golden = EventDrivenEngine::new(&flat, clk).unwrap();
    reset_and_preload(&mut golden, &flat);
    let mut golden_rows = Vec::new();
    let mut checkpoint = None;
    for done in 1..=40 {
        golden.step_cycle();
        golden_rows.push(golden.sample(&outputs));
        if done == 10 {
            checkpoint = Some(golden.snapshot());
        }
    }
    assert_eq!(schedule(golden.telemetry()), GOLDEN);
    let checkpoint = checkpoint.expect("checkpoint taken");

    // Resumes the checkpoint with one fault two cycles later; returns the
    // resumed segment's counters and its output rows.
    let resume = |fault: Fault| {
        let mut engine = EventDrivenEngine::new(&flat, clk).unwrap();
        engine.restore(&checkpoint);
        let base = engine.telemetry();
        engine.schedule_fault(fault);
        let rows: Vec<_> = (0..30)
            .map(|_| {
                engine.step_cycle();
                engine.sample(&outputs)
            })
            .collect();
        (schedule(engine.telemetry().since(base)), rows)
    };
    let seu = Fault::Seu(SeuFault {
        cell: flat.cell_by_name("u_cpu0.u_pc_ff_0").unwrap(),
        cycle: checkpoint.cycle() + 2,
        offset: 0.25,
    });
    let set = Fault::Set(SetFault {
        net: flat.net_by_name("u_cpu0.alu_op0").unwrap(),
        cycle: checkpoint.cycle() + 2,
        offset: 0.9,
        width: 0.3,
    });
    for (fault, expected) in [(seu, SEU_RESUME), (set, SET_RESUME)] {
        let (counters, rows) = resume(fault);
        assert_eq!(counters, expected, "{fault:?}");
        // Both faults are observable, so the pinned schedules are faulty
        // ones, not the golden schedule replayed.
        assert_ne!(rows, golden_rows[10..], "{fault:?}");
    }
}

/// Counters of the 40-cycle golden run, construction settle included.
const GOLDEN: (u64, u64, u64) = (22_408, 21_669, 739);
/// Counters of the 30 resumed cycles after the checkpoint.
const SEU_RESUME: (u64, u64, u64) = (15_374, 14_821, 553);
const SET_RESUME: (u64, u64, u64) = (15_361, 14_815, 546);

/// A SET starting at the last time unit of a cycle with a full-period
/// width leaves its release pending almost two periods ahead — the
/// farthest event the engine ever schedules. A snapshot taken then must
/// restore exactly, both in place and into a fresh engine.
#[test]
fn snapshot_round_trips_with_a_release_at_the_horizon() {
    let flat = soc1();
    let clk = flat.net_by_name("clk").unwrap();
    let outputs = flat.primary_outputs().to_vec();
    let net = flat.net_by_name("u_cpu0.alu_op0").unwrap();

    let mut golden = EventDrivenEngine::new(&flat, clk).unwrap();
    let mut faulty = EventDrivenEngine::new(&flat, clk).unwrap();
    for engine in [&mut golden, &mut faulty] {
        reset_and_preload(engine, &flat);
        for _ in 0..5 {
            engine.step_cycle();
        }
    }
    faulty.schedule_fault(Fault::Set(SetFault {
        net,
        cycle: faulty.cycle(),
        offset: 0.999,
        width: 1.0,
    }));
    golden.step_cycle();
    faulty.step_cycle();
    // The pulse is still forced: its release has not fired yet.
    assert_ne!(faulty.peek(net), golden.peek(net));

    let snap = faulty.snapshot();
    faulty.restore(&snap);
    assert_eq!(faulty.snapshot(), snap);
    let mut fresh = EventDrivenEngine::new(&flat, clk).unwrap();
    fresh.restore(&snap);
    assert_eq!(fresh.snapshot(), snap);

    for _ in 0..20 {
        faulty.step_cycle();
        fresh.step_cycle();
        assert_eq!(fresh.sample(&outputs), faulty.sample(&outputs));
    }
    assert_eq!(fresh.snapshot(), faulty.snapshot());
}

/// A `kind` flop with `D` tied high and its reset pin behind a buffer on
/// `rst_n`, so a SET on the buffer output (`rb`) reaches the reset pin.
fn buffered_reset_flop(kind: CellKind) -> FlatNetlist {
    let mut design = Design::new();
    let mut mb = ModuleBuilder::new("buffered_reset");
    let clk = mb.port("clk", PortDir::Input);
    let rst_n = mb.port("rst_n", PortDir::Input);
    let q = mb.port("q", PortDir::Output);
    let [one, rb] = ["one", "rb"].map(|n| mb.net(n));
    mb.cell("u_one", CellKind::Tie1, &[], &[one]).unwrap();
    mb.cell("u_rb", CellKind::Buf, &[rst_n], &[rb]).unwrap();
    mb.cell("u_ff", kind, &[clk, one, rb], &[q]).unwrap();
    let id = design.add_module(mb.finish()).unwrap();
    design.set_top(id).unwrap();
    design.flatten().unwrap()
}

/// Q over five cycles with `rst_n` high and a SET on `rb` in cycle 2.
fn reset_set_trace<E: Engine>(mut engine: E) -> Vec<Logic> {
    let flat = engine.netlist();
    let (rst_n, rb, q) = (
        flat.net_by_name("rst_n").unwrap(),
        flat.net_by_name("rb").unwrap(),
        flat.net_by_name("q").unwrap(),
    );
    engine.poke(rst_n, Logic::One);
    engine.schedule_fault(Fault::Set(SetFault {
        net: rb,
        cycle: 2,
        offset: 0.5,
        width: 0.2,
    }));
    (0..5)
        .map(|_| {
            engine.step_cycle();
            engine.peek(q)
        })
        .collect()
}

#[test]
fn hard_dffr_reset_is_asynchronous_like_dffr_on_every_engine() {
    let traces = |kind: CellKind| {
        let flat = buffered_reset_flop(kind);
        let clk = flat.net_by_name("clk").unwrap();
        [
            reset_set_trace(EventDrivenEngine::new(&flat, clk).unwrap()),
            reset_set_trace(LevelizedEngine::new(&flat, clk).unwrap()),
            reset_set_trace(OracleEngine::new(&flat, clk).unwrap()),
        ]
    };
    let dffr = traces(CellKind::Dffr);
    // The SET resets the flop in every engine, so the comparison below
    // exercises the reset path.
    assert!(dffr.iter().all(|t| t[2] == Logic::Zero), "{dffr:?}");
    assert_eq!(traces(CellKind::HardDffr), dffr);
}

/// A netlist holding every cell kind three times, created in an order that
/// interleaves the kinds, so each kind run of the kernel's sweep program
/// is exercised and the sequential list cuts into many runs. Combinational
/// cells read primary inputs, any sequential output and earlier
/// combinational outputs; sequential cells read any net. Reset pins read
/// `rst_n` directly, through a gate on `in_0` (so resets also fire
/// mid-run), or straight from an earlier reset flop's Q, so one pass of
/// the asynchronous-reset fixpoint can force a flop that the same pass
/// reset.
fn every_kind_netlist() -> FlatNetlist {
    use ssresf_netlist::cell::ALL_CELL_KINDS;
    let mut design = Design::new();
    let mut mb = ModuleBuilder::new("every_kind");
    let clk = mb.port("clk", PortDir::Input);
    let rst_n = mb.port("rst_n", PortDir::Input);
    let inputs: Vec<_> = (0..6)
        .map(|i| mb.port(format!("in_{i}"), PortDir::Input))
        .collect();
    let y = mb.port("y", PortDir::Output);
    let rst_g = mb.net("rst_g");
    mb.cell("u_rst_g", CellKind::And2, &[rst_n, inputs[0]], &[rst_g])
        .unwrap();

    let n = ALL_CELL_KINDS.len();
    let kinds: Vec<CellKind> = (0..3)
        .flat_map(|copy| (0..n).map(move |i| ALL_CELL_KINDS[(i * 7 + copy * 5) % n]))
        .collect();
    let outs: Vec<_> = (0..kinds.len()).map(|i| mb.net(format!("n_{i}"))).collect();
    let mut seed = 0x2545_f491u32;
    let mut pick = |bound: usize| {
        seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (seed >> 8) as usize % bound
    };
    let mut reset_q = rst_n;
    for (i, &kind) in kinds.iter().enumerate() {
        // Nets this cell may read without closing a combinational loop.
        let pool: Vec<_> = inputs
            .iter()
            .copied()
            .chain(
                (0..kinds.len())
                    .filter(|&j| kinds[j].is_sequential() || (j < i && kind.is_combinational()))
                    .map(|j| outs[j]),
            )
            .chain(
                kind.is_sequential()
                    .then_some(outs.clone())
                    .into_iter()
                    .flatten(),
            )
            .collect();
        let pins: Vec<_> = kind
            .input_pins()
            .iter()
            .map(|&pin| match pin {
                "CLK" => clk,
                "RSTN" => [rst_n, rst_g, reset_q][i % 3],
                _ => pool[pick(pool.len())],
            })
            .collect();
        mb.cell(format!("u_{i}_{}", kind.name()), kind, &pins, &[outs[i]])
            .unwrap();
        if kind.has_async_reset() {
            reset_q = outs[i];
        }
    }
    let last = outs.len() - 1;
    mb.cell("u_y", CellKind::Xor2, &[outs[last], outs[last - 1]], &[y])
        .unwrap();
    let id = design.add_module(mb.finish()).unwrap();
    design.set_top(id).unwrap();
    design.flatten().unwrap()
}

/// Runs every kind through the kernel at width `W`: each fault lane holds
/// one SEU (sequential cells) or SET (combinational outputs and two
/// primary inputs), and after every cycle of a random-stimulus run every
/// lane must equal an oracle run of its fault in every net and cell state.
/// The sweep's work counter must read one word evaluation per
/// combinational cell per sweep.
fn every_kind_lanes_match_oracle_at_width<const W: usize>() {
    let flat = every_kind_netlist();
    let net = |name: &str| flat.net_by_name(name).unwrap();
    let (clk, rst_n) = (net("clk"), net("rst_n"));
    let inputs: Vec<_> = (0..6).map(|i| net(&format!("in_{i}"))).collect();
    let cells: Vec<_> = flat.iter_cells().map(|(id, _)| id).collect();
    let kinds: std::collections::BTreeSet<_> = cells.iter().map(|&c| flat.cell_kind(c)).collect();
    assert_eq!(kinds.len(), 27, "every kind is present");
    let comb_cells = cells
        .iter()
        .filter(|&&c| flat.cell_kind(c).is_combinational())
        .count() as u64;

    let mut faults: Vec<Fault> = cells
        .iter()
        .take(60)
        .map(|&cell| {
            let cycle = 2 + u64::from(cell.0) % 11;
            if flat.cell_kind(cell).is_sequential() {
                Fault::Seu(SeuFault {
                    cell,
                    cycle,
                    offset: 0.5,
                })
            } else {
                Fault::Set(SetFault {
                    net: flat.cell_output(cell),
                    cycle,
                    offset: 0.5,
                    width: 0.3,
                })
            }
        })
        .collect();
    for (net, cycle) in [(rst_n, 6), (inputs[1], 4)] {
        faults.push(Fault::Set(SetFault {
            net,
            cycle,
            offset: 0.5,
            width: 0.3,
        }));
    }
    let stride = (W * 64 - 2) / faults.len();
    let lanes: Vec<usize> = (0..faults.len()).map(|i| 1 + i * stride).collect();

    // Reset for two cycles, then random inputs every cycle.
    let mut lfsr = Lfsr::new(0x5eed);
    let stimulus: Vec<Vec<Logic>> = (0..16)
        .map(|_| {
            (0..inputs.len())
                .map(|_| Logic::from(lfsr.next_bit()))
                .collect()
        })
        .collect();
    let stimulate = |engine: &mut dyn Engine, cycle: usize| {
        engine.poke(rst_n, Logic::from(cycle >= 2));
        for (&input, &v) in inputs.iter().zip(&stimulus[cycle]) {
            engine.poke(input, v);
        }
    };

    let mut batch = BitParallelEngine::<W>::new(&flat, clk).unwrap();
    for (&lane, &fault) in lanes.iter().zip(&faults) {
        batch.schedule_fault_in_lane(lane, fault);
    }
    let mut golden = OracleEngine::new(&flat, clk).unwrap();
    let mut scalars: Vec<OracleEngine> = faults
        .iter()
        .map(|&fault| {
            let mut e = OracleEngine::new(&flat, clk).unwrap();
            e.schedule_fault(fault);
            e
        })
        .collect();
    let nets: Vec<_> = (0..flat.num_nets() as u32)
        .map(ssresf_netlist::NetId)
        .collect();
    let mut visible = vec![false; faults.len()];
    for cycle in 0..stimulus.len() {
        stimulate(&mut batch, cycle);
        stimulate(&mut golden, cycle);
        batch.step_cycle();
        golden.step_cycle();
        for e in &mut scalars {
            stimulate(e, cycle);
            e.step_cycle();
        }
        assert_eq!(
            batch.word_evals(),
            comb_cells * batch.telemetry().delta_cycles,
            "W={W} cycle {cycle}"
        );
        for (lane, scalar) in
            std::iter::once((0, &golden)).chain(lanes.iter().copied().zip(&scalars))
        {
            for &n in &nets {
                assert_eq!(
                    batch.peek_lane(n, lane),
                    scalar.peek(n),
                    "W={W} cycle {cycle} lane {lane} net {}",
                    flat.net_full_name(n)
                );
            }
            for &c in &cells {
                assert_eq!(
                    batch.cell_state_lane(c, lane),
                    scalar.cell_state(c),
                    "W={W} cycle {cycle} lane {lane} cell {}",
                    flat.cell_full_name(c)
                );
            }
        }
        for (seen, scalar) in visible.iter_mut().zip(&scalars) {
            *seen |= nets.iter().any(|&n| scalar.peek(n) != golden.peek(n));
        }
    }
    // Most faults became visible in some net, so the lanes were not
    // compared against a trivially equal golden run.
    let seen = visible.iter().filter(|&&v| v).count();
    assert!(
        seen > faults.len() / 2,
        "W={W}: only {seen} of {} faults were ever visible",
        faults.len()
    );
}

#[test]
fn bitparallel_every_kind_lane_matches_oracle_all_widths() {
    every_kind_lanes_match_oracle_at_width::<1>();
    every_kind_lanes_match_oracle_at_width::<4>();
    every_kind_lanes_match_oracle_at_width::<8>();
}
