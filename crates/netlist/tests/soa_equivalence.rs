//! Property test: the struct-of-arrays flat netlist is observationally
//! identical to the array-of-structs layout it replaced.
//!
//! A reference elaborator below reproduces the pre-refactor algorithm
//! verbatim — per-cell/per-net heap records, joined hierarchical name
//! strings, loads pushed at cell-creation time, Kahn levelization with a
//! ready *stack* — and every generated circuit is checked field by field:
//! accessors, name lookups, connectivity, levelization order and depths,
//! path-interning order (hence `layer_signatures`), and extracted features.

use ssresf_netlist::cell::CellKind;
use ssresf_netlist::design::{Design, PortDir};
use ssresf_netlist::features::{CONE_CAP, DEPTH_OBS_SATURATED, STRUCTURAL_FEATURE_NAMES};
use ssresf_netlist::{
    CellFeatures, CircuitSpec, Driver, FeatureExtractor, GateSpec, ModuleBuilder, ModuleClass,
    ModuleId, NetId, GENERATOR_KINDS,
};

// ---------------------------------------------------------------------------
// Reference (pre-refactor) elaboration
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefDriver {
    Cell(usize),
    PrimaryInput,
}

struct RefCell {
    name: String,
    path: Vec<String>,
    kind: CellKind,
    inputs: Vec<usize>,
    output: usize,
}

struct RefNet {
    name: String,
    driver: Option<RefDriver>,
    loads: Vec<(usize, u8)>,
}

struct RefFlat {
    cells: Vec<RefCell>,
    nets: Vec<RefNet>,
    primary_inputs: Vec<usize>,
    primary_outputs: Vec<usize>,
    /// Paths in interning order (root first).
    paths: Vec<Vec<String>>,
}

fn join(path: &[String], leaf: &str) -> String {
    if path.is_empty() {
        leaf.to_owned()
    } else {
        format!("{}.{leaf}", path.join("."))
    }
}

fn reference_flatten(design: &Design) -> RefFlat {
    let top = design.top().expect("test designs set a top");
    let top_module = design.module(top);
    let mut flat = RefFlat {
        cells: Vec::new(),
        nets: Vec::new(),
        primary_inputs: Vec::new(),
        primary_outputs: Vec::new(),
        paths: vec![Vec::new()],
    };

    let mut net_map = Vec::with_capacity(top_module.nets.len());
    for name in &top_module.nets {
        net_map.push(flat.nets.len());
        flat.nets.push(RefNet {
            name: name.clone(),
            driver: None,
            loads: Vec::new(),
        });
    }
    for port in &top_module.ports {
        let net = net_map[port.net.index()];
        match port.dir {
            PortDir::Input => {
                flat.primary_inputs.push(net);
                flat.nets[net].driver = Some(RefDriver::PrimaryInput);
            }
            PortDir::Output => flat.primary_outputs.push(net),
        }
    }
    reference_expand(design, top, &[], &net_map, &mut flat);
    flat
}

fn reference_expand(
    design: &Design,
    module_id: ModuleId,
    path: &[String],
    net_map: &[usize],
    flat: &mut RefFlat,
) {
    let module = design.module(module_id);
    for cell in &module.cells {
        let id = flat.cells.len();
        let inputs: Vec<usize> = cell.inputs.iter().map(|n| net_map[n.index()]).collect();
        let output = net_map[cell.output.index()];
        // The AoS layout pushed loads at cell-creation time: global cell
        // order ascending, pin order ascending within a cell.
        for (pin, &net) in inputs.iter().enumerate() {
            flat.nets[net].loads.push((id, pin as u8));
        }
        assert!(flat.nets[output].driver.is_none(), "multiple drivers");
        flat.nets[output].driver = Some(RefDriver::Cell(id));
        flat.cells.push(RefCell {
            name: join(path, &cell.name),
            path: path.to_vec(),
            kind: cell.kind,
            inputs,
            output,
        });
    }
    for inst in &module.instances {
        let child = design.module(inst.module);
        let mut child_path = path.to_vec();
        child_path.push(inst.name.clone());
        if !flat.paths.contains(&child_path) {
            flat.paths.push(child_path.clone());
        }
        let mut child_map: Vec<Option<usize>> = vec![None; child.nets.len()];
        for (port, &conn) in child.ports.iter().zip(&inst.connections) {
            child_map[port.net.index()] = Some(net_map[conn.index()]);
        }
        let mut resolved = Vec::with_capacity(child.nets.len());
        for (i, bound) in child_map.iter().enumerate() {
            resolved.push(match bound {
                Some(id) => *id,
                None => {
                    let id = flat.nets.len();
                    flat.nets.push(RefNet {
                        name: join(&child_path, &child.nets[i]),
                        driver: None,
                        loads: Vec::new(),
                    });
                    id
                }
            });
        }
        reference_expand(design, inst.module, &child_path, &resolved, flat);
    }
}

/// The pre-refactor Kahn levelization: ready stack seeded in cell order,
/// LIFO pop, depth computed at pop time.
fn reference_levelize(flat: &RefFlat) -> (Vec<usize>, Vec<u32>, u32) {
    let n = flat.cells.len();
    let mut pending = vec![0u32; n];
    let mut ready = Vec::new();
    let mut order = Vec::new();
    let mut depth = vec![0u32; n];
    let comb_driver = |net: usize| -> Option<usize> {
        match flat.nets[net].driver {
            Some(RefDriver::Cell(c)) if flat.cells[c].kind.is_combinational() => Some(c),
            _ => None,
        }
    };
    for (i, cell) in flat.cells.iter().enumerate() {
        if cell.kind.is_sequential() {
            continue;
        }
        let count = cell
            .inputs
            .iter()
            .filter(|&&net| comb_driver(net).is_some())
            .count() as u32;
        pending[i] = count;
        if count == 0 {
            ready.push(i);
        }
    }
    let mut max_depth = 0;
    while let Some(id) = ready.pop() {
        order.push(id);
        let mut d = 0;
        for &input in &flat.cells[id].inputs {
            if let Some(driver) = comb_driver(input) {
                d = d.max(depth[driver] + 1);
            }
        }
        depth[id] = d;
        max_depth = max_depth.max(d);
        for &(load, _) in &flat.nets[flat.cells[id].output].loads {
            if flat.cells[load].kind.is_combinational() {
                pending[load] -= 1;
                if pending[load] == 0 {
                    ready.push(load);
                }
            }
        }
    }
    assert_eq!(
        order.len(),
        flat.cells
            .iter()
            .filter(|c| c.kind.is_combinational())
            .count(),
        "reference levelization stuck"
    );
    (order, depth, max_depth)
}

/// Backward BFS over the reference arrays from a seed cell set.
fn reference_backward_bfs(flat: &RefFlat, seeds: &[usize]) -> Vec<u32> {
    const UNOBSERVABLE: u32 = u32::MAX;
    let mut dist = vec![UNOBSERVABLE; flat.cells.len()];
    let mut queue = std::collections::VecDeque::new();
    for &cell in seeds {
        if dist[cell] != 0 {
            dist[cell] = 0;
            queue.push_back(cell);
        }
    }
    while let Some(cell) = queue.pop_front() {
        let d = dist[cell];
        for &input in &flat.cells[cell].inputs {
            if let Some(RefDriver::Cell(driver)) = flat.nets[input].driver {
                if dist[driver] > d + 1 {
                    dist[driver] = d + 1;
                    queue.push_back(driver);
                }
            }
        }
    }
    dist
}

/// Uncapped transitive cone size over the reference arrays. The SoA
/// extractor stops expanding at `CONE_CAP`, which yields the same value as
/// clamping the full cone size (either the whole cone was counted, or the
/// count saturated at exactly the cap).
fn reference_cone(flat: &RefFlat, root: usize, fanin: bool) -> usize {
    let mut seen = vec![root];
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(cell) = queue.pop_front() {
        let push =
            |next: usize, seen: &mut Vec<usize>, queue: &mut std::collections::VecDeque<usize>| {
                if !seen.contains(&next) {
                    seen.push(next);
                    queue.push_back(next);
                }
            };
        if fanin {
            for &input in &flat.cells[cell].inputs {
                if let Some(RefDriver::Cell(driver)) = flat.nets[input].driver {
                    push(driver, &mut seen, &mut queue);
                }
            }
        } else {
            for &(load, _) in &flat.nets[flat.cells[cell].output].loads {
                push(load, &mut seen, &mut queue);
            }
        }
    }
    (seen.len() - 1).min(CONE_CAP)
}

/// COP forward/backward passes over the reference arrays, visiting cells in
/// the reference levelized order (asserted identical to the SoA order, so
/// float accumulation order matches bit for bit).
fn reference_cop(flat: &RefFlat, order: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let mut p = vec![0.5; flat.nets.len()];
    for &id in order {
        let cell = &flat.cells[id];
        let input = |pin: usize| p[cell.inputs[pin]];
        let out = match cell.kind {
            CellKind::Tie0 => 0.0,
            CellKind::Tie1 => 1.0,
            CellKind::Buf => input(0),
            CellKind::Inv => 1.0 - input(0),
            CellKind::And2 => input(0) * input(1),
            CellKind::And3 => input(0) * input(1) * input(2),
            CellKind::Nand2 => 1.0 - input(0) * input(1),
            CellKind::Nand3 => 1.0 - input(0) * input(1) * input(2),
            CellKind::Or2 => 1.0 - (1.0 - input(0)) * (1.0 - input(1)),
            CellKind::Or3 => 1.0 - (1.0 - input(0)) * (1.0 - input(1)) * (1.0 - input(2)),
            CellKind::Nor2 => (1.0 - input(0)) * (1.0 - input(1)),
            CellKind::Nor3 => (1.0 - input(0)) * (1.0 - input(1)) * (1.0 - input(2)),
            CellKind::Xor2 => {
                let (a, b) = (input(0), input(1));
                a * (1.0 - b) + b * (1.0 - a)
            }
            CellKind::Xnor2 => {
                let (a, b) = (input(0), input(1));
                1.0 - (a * (1.0 - b) + b * (1.0 - a))
            }
            CellKind::Mux2 => {
                let (d0, d1, s) = (input(0), input(1), input(2));
                (1.0 - s) * d0 + s * d1
            }
            CellKind::Aoi21 => (1.0 - input(0) * input(1)) * (1.0 - input(2)),
            CellKind::Oai21 => 1.0 - (1.0 - (1.0 - input(0)) * (1.0 - input(1))) * input(2),
            _ => 0.5,
        };
        p[cell.output] = out;
    }

    let mut obs = vec![0.0f64; flat.nets.len()];
    for &out in &flat.primary_outputs {
        obs[out] = 1.0;
    }
    for cell in flat.cells.iter().filter(|c| c.kind.is_sequential()) {
        for &input in &cell.inputs {
            obs[input] = 1.0;
        }
    }
    for &id in order.iter().rev() {
        let cell = &flat.cells[id];
        let out_obs = obs[cell.output];
        if out_obs == 0.0 {
            continue;
        }
        let ip = |pin: usize| p[cell.inputs[pin]];
        for (pin, &input) in cell.inputs.iter().enumerate() {
            let sens = match cell.kind {
                CellKind::Buf | CellKind::Inv | CellKind::Xor2 | CellKind::Xnor2 => 1.0,
                CellKind::And2 | CellKind::Nand2 => ip(1 - pin),
                CellKind::Or2 | CellKind::Nor2 => 1.0 - ip(1 - pin),
                CellKind::And3 | CellKind::Nand3 => (0..3).filter(|&j| j != pin).map(ip).product(),
                CellKind::Or3 | CellKind::Nor3 => {
                    (0..3).filter(|&j| j != pin).map(|j| 1.0 - ip(j)).product()
                }
                CellKind::Mux2 => match pin {
                    0 => 1.0 - ip(2),
                    1 => ip(2),
                    _ => ip(0) * (1.0 - ip(1)) + ip(1) * (1.0 - ip(0)),
                },
                CellKind::Aoi21 => match pin {
                    0 => ip(1) * (1.0 - ip(2)),
                    1 => ip(0) * (1.0 - ip(2)),
                    _ => 1.0 - ip(0) * ip(1),
                },
                CellKind::Oai21 => match pin {
                    0 => (1.0 - ip(1)) * ip(2),
                    1 => (1.0 - ip(0)) * ip(2),
                    _ => 1.0 - (1.0 - ip(0)) * (1.0 - ip(1)),
                },
                _ => 0.0,
            };
            let through = out_obs * sens;
            if through > obs[input] {
                obs[input] = through;
            }
        }
    }
    (p, obs)
}

/// The pre-refactor feature pipeline on the reference arrays, extended with
/// independent implementations of the graph-feature columns.
fn reference_features(flat: &RefFlat, depth_fwd: &[u32], order: &[usize]) -> Vec<Vec<f64>> {
    const UNOBSERVABLE: u32 = u32::MAX;
    let n = flat.cells.len();
    let mut obs = vec![UNOBSERVABLE; n];
    let mut queue = std::collections::VecDeque::new();
    for &out in &flat.primary_outputs {
        if let Some(RefDriver::Cell(cell)) = flat.nets[out].driver {
            if obs[cell] > 0 {
                obs[cell] = 0;
                queue.push_back(cell);
            }
        }
    }
    for cell in flat.cells.iter().filter(|c| c.kind.is_sequential()) {
        for &input in &cell.inputs {
            if let Some(RefDriver::Cell(driver)) = flat.nets[input].driver {
                if obs[driver] > 1 {
                    obs[driver] = 1;
                    queue.push_back(driver);
                }
            }
        }
    }
    while let Some(cell) = queue.pop_front() {
        let d = obs[cell];
        for &input in &flat.cells[cell].inputs {
            if let Some(RefDriver::Cell(driver)) = flat.nets[input].driver {
                if obs[driver] > d + 1 {
                    obs[driver] = d + 1;
                    queue.push_back(driver);
                }
            }
        }
    }

    let po_seeds: Vec<usize> = flat
        .primary_outputs
        .iter()
        .filter_map(|&out| match flat.nets[out].driver {
            Some(RefDriver::Cell(cell)) => Some(cell),
            _ => None,
        })
        .collect();
    let mut ff_seeds = Vec::new();
    for cell in flat.cells.iter().filter(|c| c.kind.is_sequential()) {
        for &input in &cell.inputs {
            if let Some(RefDriver::Cell(driver)) = flat.nets[input].driver {
                ff_seeds.push(driver);
            }
        }
    }
    let depth_po = reference_backward_bfs(flat, &po_seeds);
    let depth_ff = reference_backward_bfs(flat, &ff_seeds);
    let saturate = |d: u32| match d {
        UNOBSERVABLE => DEPTH_OBS_SATURATED,
        d => f64::from(d).min(DEPTH_OBS_SATURATED),
    };
    let (cop_p, cop_obs) = reference_cop(flat, order);

    flat.cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let class = ModuleClass::infer(&cell.path);
            let (is_cpu, is_bus, is_memory) = match class {
                ModuleClass::Cpu => (1.0, 0.0, 0.0),
                ModuleClass::Bus => (0.0, 1.0, 0.0),
                ModuleClass::Memory => (0.0, 0.0, 1.0),
                ModuleClass::Other => (0.0, 0.0, 0.0),
            };
            let mut neighbors: Vec<usize> = Vec::new();
            for &input in &cell.inputs {
                if let Some(RefDriver::Cell(driver)) = flat.nets[input].driver {
                    if driver != i && !neighbors.contains(&driver) {
                        neighbors.push(driver);
                    }
                }
            }
            for &(load, _) in &flat.nets[cell.output].loads {
                if load != i && !neighbors.contains(&load) {
                    neighbors.push(load);
                }
            }
            let p = cop_p[cell.output];
            let o = cop_obs[cell.output];
            vec![
                flat.nets[cell.output].loads.len() as f64,
                cell.inputs.len() as f64,
                f64::from(depth_fwd[i]),
                match obs[i] {
                    UNOBSERVABLE => DEPTH_OBS_SATURATED,
                    d => f64::from(d),
                },
                f64::from(cell.kind.transistor_count()),
                if cell.kind.is_sequential() { 1.0 } else { 0.0 },
                cell.path.len() as f64,
                is_cpu,
                is_bus,
                is_memory,
                neighbors.len() as f64,
                0.0,
                reference_cone(flat, i, true) as f64,
                reference_cone(flat, i, false) as f64,
                saturate(depth_po[i]),
                saturate(depth_ff[i]),
                p,
                o,
                o * 2.0 * p * (1.0 - p),
            ]
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The equivalence check
// ---------------------------------------------------------------------------

/// Checks `design`'s flat netlist against the reference elaboration and
/// returns the (checked) extracted features.
fn assert_equivalent(design: &Design) -> Vec<CellFeatures> {
    let flat = design.flatten().expect("test circuits flatten");
    let reference = reference_flatten(design);

    assert_eq!(flat.cells().len(), reference.cells.len());
    assert_eq!(flat.nets().len(), reference.nets.len());
    assert_eq!(
        flat.primary_inputs()
            .iter()
            .map(|n| n.index())
            .collect::<Vec<_>>(),
        reference.primary_inputs
    );
    assert_eq!(
        flat.primary_outputs()
            .iter()
            .map(|n| n.index())
            .collect::<Vec<_>>(),
        reference.primary_outputs
    );

    for (id, cell) in flat.iter_cells() {
        let expected = &reference.cells[id.index()];
        assert_eq!(flat.cell_full_name(id), expected.name);
        assert_eq!(cell.kind, expected.kind);
        assert_eq!(
            cell.inputs.iter().map(|n| n.index()).collect::<Vec<_>>(),
            expected.inputs
        );
        assert_eq!(cell.output.index(), expected.output);
        assert_eq!(
            flat.paths().resolve(cell.path).segments(),
            expected.path.as_slice()
        );
        assert_eq!(
            flat.cell_by_name(&expected.name),
            Some(id),
            "{}",
            expected.name
        );
    }

    for (i, expected) in reference.nets.iter().enumerate() {
        let id = NetId(i as u32);
        let net = flat.net(id);
        assert_eq!(flat.net_full_name(id), expected.name);
        assert_eq!(
            flat.net_by_name(&expected.name),
            Some(id),
            "{}",
            expected.name
        );
        let driver = net.driver.map(|d| match d {
            Driver::Cell(c) => RefDriver::Cell(c.index()),
            Driver::PrimaryInput => RefDriver::PrimaryInput,
        });
        assert_eq!(driver, expected.driver, "{}", expected.name);
        assert_eq!(
            net.loads
                .iter()
                .map(|&(c, p)| (c.index(), p))
                .collect::<Vec<_>>(),
            expected.loads,
            "{}",
            expected.name
        );
        assert_eq!(flat.fanout(id), expected.loads.len());
    }

    // Path interning order drives layer_signatures: same paths, same order,
    // and the signature invariant holds against the reference paths.
    let interned: Vec<Vec<String>> = flat
        .paths()
        .iter()
        .map(|(_, p)| p.segments().to_vec())
        .collect();
    assert_eq!(interned, reference.paths);
    let max_depth_paths = reference.paths.iter().map(Vec::len).max().unwrap_or(0);
    for depth in 1..=max_depth_paths.max(1) {
        let sigs = flat.paths().layer_signatures(depth);
        for (ia, a) in flat.paths().iter() {
            for (ib, b) in flat.paths().iter() {
                for slot in 0..depth {
                    assert_eq!(
                        sigs.of(ia)[slot] == sigs.of(ib)[slot],
                        a.layer(slot + 1) == b.layer(slot + 1)
                    );
                }
            }
        }
    }

    // Levelization: the evaluation order is the reference visit order
    // sorted by (depth, kind, id); identical depths.
    let lv = flat.levelize().expect("test circuits are loop-free");
    let (ref_order, ref_depth, ref_max) = reference_levelize(&reference);
    let mut ref_eval_order = ref_order.clone();
    ref_eval_order.sort_by_key(|&c| (ref_depth[c], reference.cells[c].kind, c));
    assert_eq!(
        lv.order.iter().map(|c| c.index()).collect::<Vec<_>>(),
        ref_eval_order
    );
    assert_eq!(lv.cell_depth, ref_depth);
    assert_eq!(lv.max_depth, ref_max);

    // Feature extraction: bit-identical vectors.
    let fx = FeatureExtractor::new(&flat).unwrap();
    let features = fx.extract(None);
    let expected = reference_features(&reference, &ref_depth, &ref_order);
    assert_eq!(features.len(), expected.len());
    for (got, want) in features.iter().zip(&expected) {
        assert_eq!(got.values, *want, "cell {}", flat.cell_full_name(got.cell));
    }
    features
}

// ---------------------------------------------------------------------------
// Circuit generation
// ---------------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_spec(seed: u64, gates: std::ops::Range<u64>) -> CircuitSpec {
    let mut s = seed;
    let gates = (splitmix(&mut s) % (gates.end - gates.start) + gates.start) as usize;
    CircuitSpec {
        name: format!("soa_eq_{seed}"),
        inputs: (splitmix(&mut s) % 5 + 1) as usize,
        gates: (0..gates)
            .map(|_| GateSpec {
                kind: GENERATOR_KINDS[(splitmix(&mut s) as usize) % GENERATOR_KINDS.len()],
                operands: vec![
                    splitmix(&mut s) as u16,
                    splitmix(&mut s) as u16,
                    splitmix(&mut s) as u16,
                ],
            })
            .collect(),
        ff_d: (0..(splitmix(&mut s) % 4 + 1))
            .map(|_| splitmix(&mut s) as u16)
            .collect(),
        outputs: (splitmix(&mut s) % 3 + 1) as usize,
    }
}

/// A three-level hierarchy with repeated instances, exercising shared
/// module name caches and non-root path interning.
fn nested_design() -> Design {
    let mut design = Design::new();

    let mut leaf = ModuleBuilder::new("leaf");
    let a = leaf.port("a", PortDir::Input);
    let b = leaf.port("b", PortDir::Input);
    let y = leaf.port("y", PortDir::Output);
    let w = leaf.net("w");
    leaf.cell("u_x", CellKind::Xor2, &[a, b], &[w]).unwrap();
    leaf.cell("u_n", CellKind::Inv, &[w], &[y]).unwrap();
    let leaf_id = design.add_module(leaf.finish()).unwrap();

    let mut mid = ModuleBuilder::new("mem_bank");
    let a = mid.port("a", PortDir::Input);
    let b = mid.port("b", PortDir::Input);
    let y = mid.port("y", PortDir::Output);
    let t0 = mid.net("t0");
    let t1 = mid.net("t1");
    mid.instance("u_l0", leaf_id, &[a, b, t0]).unwrap();
    mid.instance("u_l1", leaf_id, &[t0, b, t1]).unwrap();
    mid.cell("u_o", CellKind::Or2, &[t0, t1], &[y]).unwrap();
    let mid_id = design.add_module(mid.finish()).unwrap();

    let mut top = ModuleBuilder::new("top");
    let clk = top.port("clk", PortDir::Input);
    let x = top.port("x", PortDir::Input);
    let z = top.port("z", PortDir::Input);
    let out = top.port("out", PortDir::Output);
    let m0 = top.net("m0");
    let m1 = top.net("m1");
    let q = top.net("q");
    top.instance("u_cpu_bank", mid_id, &[x, z, m0]).unwrap();
    top.instance("u_bus_bank", mid_id, &[m0, z, m1]).unwrap();
    top.instance("u_solo", leaf_id, &[x, m1, q]).unwrap();
    top.cell("u_ff", CellKind::Dff, &[clk, q], &[out]).unwrap();
    let top_id = design.add_module(top.finish()).unwrap();
    design.set_top(top_id).unwrap();
    design
}

#[test]
fn generated_circuits_match_reference_layout() {
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    for seed in 0..cases {
        let spec = random_spec(0xC0FF_EE00 ^ (seed.wrapping_mul(0x9E37_79B9)), 4..28);
        assert_equivalent(&spec.build_design());
    }
}

/// Circuits of 200–399 gates, where cones reach `CONE_CAP` in both
/// directions: the extractor settles most such cells from a saturated
/// neighbour instead of a BFS, and the reference counts every cone in full.
#[test]
fn large_circuits_saturate_cones_and_match_reference_layout() {
    let columns = ["fanin_cone", "fanout_cone"].map(|name| {
        STRUCTURAL_FEATURE_NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap()
    });
    // Per cone column: (capped, uncapped) cells over all specs.
    let mut counts = [(0usize, 0usize); 2];
    for seed in 0..6u64 {
        let spec = random_spec(0x0BAD_C0DE ^ (seed.wrapping_mul(0x9E37_79B9)), 200..400);
        let features = assert_equivalent(&spec.build_design());
        for (count, &column) in counts.iter_mut().zip(&columns) {
            for f in &features {
                if f.values[column] == CONE_CAP as f64 {
                    count.0 += 1;
                } else {
                    count.1 += 1;
                }
            }
        }
    }
    for (name, (capped, uncapped)) in ["fanin_cone", "fanout_cone"].iter().zip(counts) {
        assert!(
            capped > 0 && uncapped > 0,
            "{name}: {capped} capped and {uncapped} uncapped cells"
        );
    }
}

#[test]
fn nested_hierarchy_matches_reference_layout() {
    assert_equivalent(&nested_design());
}
