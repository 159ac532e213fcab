//! Criterion micro-benchmarks of the two simulation engines — the
//! VCS-vs-CVC performance comparison underlying the paper's Table III.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use ssresf::{Dut, EngineKind, GoldenRun, Workload};
use ssresf_netlist::CellId;
use ssresf_sim::{Fault, SetFault, SeuFault};
use ssresf_socgen::{build_soc, SocConfig};

fn bench_golden_runs(c: &mut Criterion) {
    let soc = build_soc(&SocConfig::table1()[0]).expect("soc builds");
    let flat = soc.design.flatten().expect("soc flattens");
    let dut = Dut::from_conventions(&flat).expect("conventions");
    let workload = Workload {
        reset_cycles: 3,
        run_cycles: 30,
    };

    let mut group = c.benchmark_group("golden_run_soc1");
    for kind in [EngineKind::EventDriven, EngineKind::Levelized] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| dut.run(kind, &workload, &[]).expect("run succeeds"));
            },
        );
    }
    group.finish();
}

fn bench_injection_run(c: &mut Criterion) {
    let soc = build_soc(&SocConfig::table1()[0]).expect("soc builds");
    let flat = soc.design.flatten().expect("soc flattens");
    let dut = Dut::from_conventions(&flat).expect("conventions");
    let workload = Workload {
        reset_cycles: 3,
        run_cycles: 30,
    };
    let ff = flat
        .iter_cells()
        .find(|(_, cell)| cell.kind.is_sequential())
        .map(|(id, _)| id)
        .expect("soc has flip-flops");
    let fault = ssresf_sim::Fault::Seu(ssresf_sim::SeuFault {
        cell: ff,
        cycle: 10,
        offset: 0.3,
    });

    let mut group = c.benchmark_group("seu_injection_soc1");
    for kind in [EngineKind::EventDriven, EngineKind::Levelized] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| dut.run(kind, &workload, &[fault]).expect("run succeeds"));
            },
        );
    }
    group.finish();
}

/// One lane-queue sweep from reset of SoC_10 at 64, 256 and 512 lanes,
/// with a fault in every lane but the golden one: the bit-parallel
/// kernel's per-width ledger. Each width prints its word evaluations per
/// sweep, so a time per iteration divides into a time per word evaluation.
fn bench_kernel_widths(c: &mut Criterion) {
    let soc = build_soc(&SocConfig::table1()[9]).expect("soc builds");
    let flat = soc.design.flatten().expect("soc flattens");
    let dut = Dut::from_conventions(&flat).expect("conventions");
    let workload = Workload {
        reset_cycles: 3,
        run_cycles: 100,
    };
    let golden = dut
        .run_golden_with_checkpoints(EngineKind::Levelized, &workload, 0)
        .expect("golden run succeeds");
    // Cells spread over the netlist, cycles over the workload: an SEU for
    // a sequential cell, a SET on the output of a combinational one.
    let faults = |lanes: usize| -> Vec<Fault> {
        (1..lanes)
            .map(|i| {
                let cell = CellId(((i * 7919) % flat.num_cells()) as u32);
                let cycle = (i as u64 * 13) % workload.run_cycles;
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
                        width: 0.5,
                    })
                }
            })
            .collect()
    };

    let mut group = c.benchmark_group("lane_queue_sweep_soc10");
    sweep_at_width::<1>(&mut group, &dut, &workload, &golden, &faults(64));
    sweep_at_width::<4>(&mut group, &dut, &workload, &golden, &faults(256));
    sweep_at_width::<8>(&mut group, &dut, &workload, &golden, &faults(512));
    group.finish();
}

fn sweep_at_width<const W: usize>(
    group: &mut BenchmarkGroup<'_>,
    dut: &Dut<'_>,
    workload: &Workload,
    golden: &GoldenRun,
    faults: &[Fault],
) {
    let sweep = || {
        let outcome = dut
            .run_batch_queue::<W>(workload, faults, golden, false, false, None)
            .expect("sweep runs");
        assert_eq!(outcome.occupancy.len(), 1, "the faults fill one sweep");
        outcome.work
    };
    let lanes = W * 64;
    println!(
        "lane_queue_sweep_soc10/{lanes}: {} word evaluations per sweep",
        sweep()
    );
    group.bench_with_input(BenchmarkId::from_parameter(lanes), &(), |b, _| {
        b.iter(sweep)
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_golden_runs, bench_injection_run, bench_kernel_widths
}
criterion_main!(benches);
