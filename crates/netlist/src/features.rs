//! Structural feature extraction for sensitive-node classification.
//!
//! The SSRESF SVM classifier (paper §III-E) learns from "structural features
//! of the netlist". This module computes, for every cell of a
//! [`FlatNetlist`], the candidate feature set from which the paper's forward
//! feature selection (Fig. 5) picks the best subset:
//!
//! | index | name | description |
//! |---|---|---|
//! | 0 | `fanout` | loads on the cell's output net |
//! | 1 | `fanin` | number of input pins |
//! | 2 | `depth_fwd` | combinational depth from the nearest source |
//! | 3 | `depth_obs` | cell hops to the nearest observation point |
//! | 4 | `transistors` | transistor-count complexity proxy |
//! | 5 | `is_sequential` | 1 for state-holding cells |
//! | 6 | `hier_depth` | hierarchy depth of the instance path |
//! | 7 | `is_cpu` | one-hot module class: CPU logic |
//! | 8 | `is_bus` | one-hot module class: bus fabric |
//! | 9 | `is_memory` | one-hot module class: memory |
//! | 10 | `neighborhood` | distinct cells at distance 1 |
//! | 11 | `activity` | toggle activity of the output net (from simulation) |
//! | 12 | `fanin_cone` | transitive fan-in cells (saturates at [`CONE_CAP`]) |
//! | 13 | `fanout_cone` | transitive fan-out cells (saturates at [`CONE_CAP`]) |
//! | 14 | `depth_po` | cell hops to the nearest primary output |
//! | 15 | `depth_ff` | cell hops to the nearest flip-flop data input |
//! | 16 | `cop_ctrl` | COP signal probability of the output net |
//! | 17 | `cop_obs` | COP observability of the output net |
//! | 18 | `cop_product` | COP toggle detectability `obs * 2p(1-p)` |
//!
//! Features 12–18 are the *graph* signals from the FsimNN / graph-theory
//! SEU literature: cone sizes and depths capture how much downstream state
//! a flipped node can corrupt, and the COP (controllability/observability
//! program) products estimate how likely a flip is to propagate to an
//! observation point under random stimulus.

use crate::flat::{CellId, Driver, FlatNetlist};
use std::collections::VecDeque;

/// Names of the candidate features, indexed like the extracted vectors.
pub const STRUCTURAL_FEATURE_NAMES: &[&str] = &[
    "fanout",
    "fanin",
    "depth_fwd",
    "depth_obs",
    "transistors",
    "is_sequential",
    "hier_depth",
    "is_cpu",
    "is_bus",
    "is_memory",
    "neighborhood",
    "activity",
    "fanin_cone",
    "fanout_cone",
    "depth_po",
    "depth_ff",
    "cop_ctrl",
    "cop_obs",
    "cop_product",
];

/// Coarse functional class of the module containing a cell, inferred from
/// its hierarchical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleClass {
    /// CPU core logic.
    Cpu,
    /// Bus/interconnect fabric.
    Bus,
    /// Memory arrays and their periphery.
    Memory,
    /// Anything else (pads, clocking, glue).
    Other,
}

impl ModuleClass {
    /// Infers the class from a hierarchical path's segments.
    ///
    /// Matching is case-insensitive on well-known substrings (`cpu`/`core`,
    /// `bus`/`axi`/`ahb`/`apb`/`noc`, `mem`/`ram`/`sram`/`dram`).
    pub fn infer(segments: &[String]) -> ModuleClass {
        for seg in segments {
            let s = seg.to_ascii_lowercase();
            if s.contains("cpu") || s.contains("core") {
                return ModuleClass::Cpu;
            }
            if s.contains("bus")
                || s.contains("axi")
                || s.contains("ahb")
                || s.contains("apb")
                || s.contains("noc")
            {
                return ModuleClass::Bus;
            }
            if s.contains("mem") || s.contains("ram") {
                return ModuleClass::Memory;
            }
        }
        ModuleClass::Other
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ModuleClass::Cpu => "cpu",
            ModuleClass::Bus => "bus",
            ModuleClass::Memory => "memory",
            ModuleClass::Other => "other",
        }
    }
}

impl std::fmt::Display for ModuleClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The extracted feature record of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFeatures {
    /// The cell this record describes.
    pub cell: CellId,
    /// Inferred module class.
    pub module_class: ModuleClass,
    /// Feature values, indexed like [`STRUCTURAL_FEATURE_NAMES`].
    pub values: Vec<f64>,
}

/// Computes [`CellFeatures`] for every cell of a netlist.
///
/// # Example
///
/// ```
/// use ssresf_netlist::{CellKind, Design, FeatureExtractor, ModuleBuilder, PortDir};
///
/// # fn main() -> Result<(), ssresf_netlist::NetlistError> {
/// let mut design = Design::new();
/// let mut mb = ModuleBuilder::new("top");
/// let a = mb.port("a", PortDir::Input);
/// let y = mb.port("y", PortDir::Output);
/// mb.cell("u0", CellKind::Inv, &[a], &[y])?;
/// let id = design.add_module(mb.finish())?;
/// design.set_top(id)?;
/// let flat = design.flatten()?;
/// let features = FeatureExtractor::new(&flat)?.extract(None);
/// assert_eq!(features.len(), 1);
/// assert_eq!(features[0].values.len(), 19);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FeatureExtractor<'a> {
    netlist: &'a FlatNetlist,
    depth_fwd: Vec<u32>,
    depth_obs: Vec<u32>,
    depth_po: Vec<u32>,
    depth_ff: Vec<u32>,
    fanin_cone: Vec<u32>,
    fanout_cone: Vec<u32>,
    /// Module class and hierarchy depth per interned path, indexed by
    /// `PathId`: a netlist has a handful of paths but up to millions of
    /// cells.
    path_class: Vec<(ModuleClass, f64)>,
    /// Per-net COP signal probability (probability the net carries 1).
    cop_ctrl: Vec<f64>,
    /// Per-net COP observability (probability a flip propagates out).
    cop_obs: Vec<f64>,
}

/// Sentinel observation distance for cells from which no observation point
/// is reachable.
///
/// Real BFS distances are bounded by the cell count, which elaboration caps
/// below `u32::MAX - 2` (see [`NetlistError::TooLarge`](crate::NetlistError)),
/// so a finite distance can never collide with the sentinel.
const UNOBSERVABLE: u32 = u32::MAX;

/// Feature-space substitute for the unobservable distance: dead-end cells
/// enter scaling as this saturated depth, never as the raw `u32` sentinel
/// (which would dwarf every other feature and wreck normalization).
pub const DEPTH_OBS_SATURATED: f64 = 64.0;

/// Saturation value of the transitive fan-in/fan-out cone features.
///
/// A cone feature is the number of cells reachable from the cell, clamped
/// to `CONE_CAP`. The clamp makes the value independent of traversal order
/// (either the whole cone is counted, or the value is the cap), lets a
/// fallback BFS stop after `CONE_CAP` cells on mega-scale netlists whose
/// clock/enable nets fan out to tens of thousands of loads, and lets
/// [`FeatureExtractor::new`] settle a cell next to a saturated neighbour
/// without any BFS.
pub const CONE_CAP: usize = 64;

impl<'a> FeatureExtractor<'a> {
    /// Prepares the per-cell depth, cone and COP columns and the per-path
    /// module classes of `netlist`, so that extraction only reads them.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalLoop`](crate::NetlistError::CombinationalLoop)
    /// from levelization.
    pub fn new(netlist: &'a FlatNetlist) -> Result<Self, crate::NetlistError> {
        let lv = netlist.levelize()?;
        let depth_obs = observation_distances(netlist);
        let depth_po = po_distances(netlist);
        let depth_ff = ff_distances(netlist);
        let cop_ctrl = cop_signal_probability(netlist, &lv.order);
        let cop_obs = cop_observability(netlist, &lv.order, &cop_ctrl);
        let path_class = netlist
            .paths()
            .iter()
            .map(|(_, path)| (ModuleClass::infer(path.segments()), path.depth() as f64))
            .collect();
        Ok(FeatureExtractor {
            netlist,
            depth_fwd: lv.cell_depth,
            depth_obs,
            depth_po,
            depth_ff,
            fanin_cone: cone_sizes(netlist, ConeDirection::Fanin),
            fanout_cone: cone_sizes(netlist, ConeDirection::Fanout),
            path_class,
            cop_ctrl,
            cop_obs,
        })
    }

    /// Extracts features for all cells.
    ///
    /// `activity` optionally supplies per-net toggle activity (in toggles per
    /// cycle) measured by a golden simulation; when absent the activity
    /// feature is 0 for every cell.
    pub fn extract(&self, activity: Option<&[f64]>) -> Vec<CellFeatures> {
        self.netlist
            .iter_cells()
            .map(|(id, _)| self.extract_cell(id, activity))
            .collect()
    }

    /// Extracts the feature record of a single cell.
    pub fn extract_cell(&self, id: CellId, activity: Option<&[f64]>) -> CellFeatures {
        let netlist = self.netlist;
        let cell = netlist.cell(id);
        let (module_class, hier_depth) = self.path_class[cell.path.index()];

        let fanout = netlist.fanout(cell.output) as f64;
        let fanin = cell.inputs.len() as f64;
        let depth_fwd = f64::from(self.depth_fwd[id.index()]);
        let depth_obs = match self.depth_obs[id.index()] {
            UNOBSERVABLE => DEPTH_OBS_SATURATED,
            d => f64::from(d),
        };
        let transistors = f64::from(cell.kind.transistor_count());
        let is_sequential = if cell.kind.is_sequential() { 1.0 } else { 0.0 };
        let (is_cpu, is_bus, is_memory) = match module_class {
            ModuleClass::Cpu => (1.0, 0.0, 0.0),
            ModuleClass::Bus => (0.0, 1.0, 0.0),
            ModuleClass::Memory => (0.0, 0.0, 1.0),
            ModuleClass::Other => (0.0, 0.0, 0.0),
        };
        let neighborhood = neighborhood_size(netlist, id) as f64;
        let act = activity.map(|a| a[cell.output.index()]).unwrap_or(0.0);
        let fanin_cone = f64::from(self.fanin_cone[id.index()]);
        let fanout_cone = f64::from(self.fanout_cone[id.index()]);
        let depth_po = saturate_depth(self.depth_po[id.index()]);
        let depth_ff = saturate_depth(self.depth_ff[id.index()]);
        let p = self.cop_ctrl[cell.output.index()];
        let obs = self.cop_obs[cell.output.index()];
        // Toggle detectability: probability the output flips under random
        // stimulus (2p(1-p)) times the probability the flip is observed.
        let cop_product = obs * 2.0 * p * (1.0 - p);

        CellFeatures {
            cell: id,
            module_class,
            values: vec![
                fanout,
                fanin,
                depth_fwd,
                depth_obs,
                transistors,
                is_sequential,
                hier_depth,
                is_cpu,
                is_bus,
                is_memory,
                neighborhood,
                act,
                fanin_cone,
                fanout_cone,
                depth_po,
                depth_ff,
                p,
                obs,
                cop_product,
            ],
        }
    }
}

/// Maps a BFS distance into feature space, saturating the unreachable
/// sentinel (and any distance beyond it) at [`DEPTH_OBS_SATURATED`].
fn saturate_depth(d: u32) -> f64 {
    match d {
        UNOBSERVABLE => DEPTH_OBS_SATURATED,
        d => f64::from(d).min(DEPTH_OBS_SATURATED),
    }
}

/// Number of distinct cells adjacent to `id` (input drivers plus output loads).
fn neighborhood_size(netlist: &FlatNetlist, id: CellId) -> usize {
    let cell = netlist.cell(id);
    let loads = netlist.net(cell.output).loads;
    // Sort + dedup rather than a `contains` scan per candidate: a memory
    // macro's write-enable or address driver fans out to tens of thousands
    // of loads, and the quadratic scan dominated whole-chip extraction.
    let mut neighbors: Vec<CellId> = Vec::with_capacity(cell.inputs.len() + loads.len());
    for &input in cell.inputs {
        if let Some(Driver::Cell(driver)) = netlist.net(input).driver {
            if driver != id {
                neighbors.push(driver);
            }
        }
    }
    for &(load, _) in loads {
        if load != id {
            neighbors.push(load);
        }
    }
    neighbors.sort_unstable();
    neighbors.dedup();
    neighbors.len()
}

/// Per-cell hop distance to the nearest observation point: a primary output
/// net (distance 0) or a sequential cell's data input (distance 1).
fn observation_distances(netlist: &FlatNetlist) -> Vec<u32> {
    let mut dist = vec![UNOBSERVABLE; netlist.cells().len()];
    let mut queue = VecDeque::new();

    // Seeds at distance 0: cells driving a primary output.
    for &out in netlist.primary_outputs() {
        if let Some(Driver::Cell(cell)) = netlist.net(out).driver {
            if dist[cell.index()] > 0 {
                dist[cell.index()] = 0;
                queue.push_back(cell);
            }
        }
    }
    // Seeds at distance 1: cells feeding any sequential cell.
    for (_, cell) in netlist.iter_cells() {
        if !cell.kind.is_sequential() {
            continue;
        }
        for &input in cell.inputs {
            if let Some(Driver::Cell(driver)) = netlist.net(input).driver {
                if dist[driver.index()] > 1 {
                    dist[driver.index()] = 1;
                    queue.push_back(driver);
                }
            }
        }
    }

    // BFS backward through input drivers. The queue was seeded in
    // nondecreasing distance order (all 0s pushed before any 1s only if we
    // pushed them that way — they were), so plain BFS yields shortest hops.
    while let Some(cell) = queue.pop_front() {
        let d = dist[cell.index()];
        for &input in netlist.cell(cell).inputs {
            if let Some(Driver::Cell(driver)) = netlist.net(input).driver {
                if dist[driver.index()] > d + 1 {
                    dist[driver.index()] = d + 1;
                    queue.push_back(driver);
                }
            }
        }
    }
    dist
}

/// Backward BFS from a seed set toward input drivers, yielding per-cell hop
/// distances ([`UNOBSERVABLE`] where no seed is reachable).
fn backward_distances(netlist: &FlatNetlist, seeds: &[CellId]) -> Vec<u32> {
    let mut dist = vec![UNOBSERVABLE; netlist.cells().len()];
    let mut queue = VecDeque::new();
    for &cell in seeds {
        if dist[cell.index()] != 0 {
            dist[cell.index()] = 0;
            queue.push_back(cell);
        }
    }
    while let Some(cell) = queue.pop_front() {
        let d = dist[cell.index()];
        for &input in netlist.cell(cell).inputs {
            if let Some(Driver::Cell(driver)) = netlist.net(input).driver {
                if dist[driver.index()] > d + 1 {
                    dist[driver.index()] = d + 1;
                    queue.push_back(driver);
                }
            }
        }
    }
    dist
}

/// Per-cell hop distance to the nearest primary output (distance 0 for the
/// cell driving the PO net itself).
fn po_distances(netlist: &FlatNetlist) -> Vec<u32> {
    let mut seeds = Vec::new();
    for &out in netlist.primary_outputs() {
        if let Some(Driver::Cell(cell)) = netlist.net(out).driver {
            seeds.push(cell);
        }
    }
    backward_distances(netlist, &seeds)
}

/// Per-cell hop distance to the nearest state-holding cell's input
/// (distance 0 for a cell feeding a flip-flop or memory bit directly).
fn ff_distances(netlist: &FlatNetlist) -> Vec<u32> {
    let mut seeds = Vec::new();
    for (_, cell) in netlist.iter_cells() {
        if !cell.kind.is_sequential() {
            continue;
        }
        for &input in cell.inputs {
            if let Some(Driver::Cell(driver)) = netlist.net(input).driver {
                seeds.push(driver);
            }
        }
    }
    backward_distances(netlist, &seeds)
}

/// Traversal direction of a cone.
#[derive(Clone, Copy)]
enum ConeDirection {
    Fanin,
    Fanout,
}

impl ConeDirection {
    /// Direct neighbours of `cell` in this direction: the cells driving its
    /// inputs (fan-in) or loading its output (fan-out), repeats included.
    fn neighbours(self, netlist: &FlatNetlist, cell: CellId) -> impl Iterator<Item = CellId> + '_ {
        let (inputs, loads) = match self {
            ConeDirection::Fanin => (netlist.cell_inputs(cell), &[][..]),
            ConeDirection::Fanout => (&[][..], netlist.net_loads(netlist.cell_output(cell))),
        };
        let drivers = inputs
            .iter()
            .filter_map(|&net| match netlist.net_driver(net) {
                Some(Driver::Cell(driver)) => Some(driver),
                _ => None,
            });
        drivers.chain(loads.iter().map(|&(load, _)| load))
    }
}

/// Capped cone sizes of every cell in one direction, indexed by cell.
///
/// One exact rule settles most cells without a BFS: when a direct
/// neighbour `n != root` already has a saturated cone, root's cone is
/// saturated too. Root reaches `n` and everything `n` reaches, and that
/// set minus root still holds `CONE_CAP` cells: `n` itself plus at least
/// `CONE_CAP - 1` of the `CONE_CAP` or more cells beyond `n`. Every other
/// cell runs the bounded [`cone_size`] BFS, so each value equals the
/// per-cell BFS whatever the visiting order. The order only decides how
/// often the rule fires: drivers mostly have lower ids than their loads,
/// so fan-in cones are visited in id order and fan-out cones in reverse.
fn cone_sizes(netlist: &FlatNetlist, dir: ConeDirection) -> Vec<u32> {
    const PENDING: u32 = u32::MAX;
    let cap = CONE_CAP as u32;
    let n = netlist.num_cells() as u32;
    let mut sizes = vec![PENDING; n as usize];
    for k in 0..n {
        let root = CellId(match dir {
            ConeDirection::Fanin => k,
            ConeDirection::Fanout => n - 1 - k,
        });
        // Root's own entry is still pending, so a self-loop never counts.
        let saturated = dir
            .neighbours(netlist, root)
            .any(|next| sizes[next.index()] == cap);
        sizes[root.index()] = if saturated {
            cap
        } else {
            cone_size(netlist, root, dir) as u32
        };
    }
    sizes
}

/// Transitive fan-in or fan-out cone size of `root`, capped at
/// [`CONE_CAP`].
///
/// Counts distinct cells reachable from `root` (excluding `root` itself),
/// stopping as soon as the count reaches the cap. The returned value is
/// traversal-order independent: below the cap the whole cone was
/// enumerated; at the cap the value is exactly `CONE_CAP`.
fn cone_size(netlist: &FlatNetlist, root: CellId, dir: ConeDirection) -> usize {
    // A HashSet would allocate buckets per cell and a bitmap over all
    // cells would cost O(n) per cell; a small sorted vec stays
    // O(CONE_CAP log CONE_CAP).
    let mut seen: Vec<CellId> = Vec::with_capacity(CONE_CAP + 1);
    seen.push(root);
    let mut queue: VecDeque<CellId> = VecDeque::with_capacity(CONE_CAP);
    queue.push_back(root);
    let mut count = 0usize;
    while let Some(cell) = queue.pop_front() {
        for next in dir.neighbours(netlist, cell) {
            if let Err(pos) = seen.binary_search(&next) {
                seen.insert(pos, next);
                queue.push_back(next);
                count += 1;
                if count >= CONE_CAP {
                    return count;
                }
            }
        }
    }
    count
}

/// COP forward pass: per-net probability of carrying logic 1 under random
/// stimulus.
///
/// Primary inputs, undriven nets and state-holding outputs are pseudo-PIs
/// at probability 0.5; tie cells pin their nets to 0/1; combinational
/// cells combine their input probabilities in levelized order with the
/// standard independence assumption.
fn cop_signal_probability(netlist: &FlatNetlist, order: &[CellId]) -> Vec<f64> {
    use crate::cell::CellKind;
    let mut p = vec![0.5; netlist.nets().len()];
    for &id in order {
        let cell = netlist.cell(id);
        let input = |pin: usize| p[cell.inputs[pin].index()];
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
            // Mux2 pins: D0, D1, S.
            CellKind::Mux2 => {
                let (d0, d1, s) = (input(0), input(1), input(2));
                (1.0 - s) * d0 + s * d1
            }
            // Y = !((A & B) | C)
            CellKind::Aoi21 => (1.0 - input(0) * input(1)) * (1.0 - input(2)),
            // Y = !((A | B) & C)
            CellKind::Oai21 => 1.0 - (1.0 - (1.0 - input(0)) * (1.0 - input(1))) * input(2),
            // State-holding cells are pseudo-PIs; levelization excludes
            // them from `order`, so this arm is unreachable but keeps the
            // match exhaustive against new combinational kinds.
            _ => 0.5,
        };
        p[cell.output.index()] = out;
    }
    p
}

/// COP backward pass: per-net probability that a value flip propagates to
/// an observation point (primary output or state-holding cell input).
///
/// Observation nets start at 1.0; each combinational cell, visited in
/// reverse levelized order, passes `obs(output) * sensitization(pin)` back
/// to each input net, where the sensitization probability is the chance
/// the other inputs let the pin control the output. Reconvergent paths
/// take the max over branches.
fn cop_observability(netlist: &FlatNetlist, order: &[CellId], p: &[f64]) -> Vec<f64> {
    use crate::cell::CellKind;
    let mut obs = vec![0.0; netlist.nets().len()];
    for &out in netlist.primary_outputs() {
        obs[out.index()] = 1.0;
    }
    for (_, cell) in netlist.iter_cells() {
        if cell.kind.is_sequential() {
            for &input in cell.inputs {
                obs[input.index()] = 1.0;
            }
        }
    }
    for &id in order.iter().rev() {
        let cell = netlist.cell(id);
        let out_obs = obs[cell.output.index()];
        if out_obs == 0.0 {
            continue;
        }
        let ip = |pin: usize| p[cell.inputs[pin].index()];
        for (pin, &input) in cell.inputs.iter().enumerate() {
            let sens = match cell.kind {
                CellKind::Buf | CellKind::Inv | CellKind::Xor2 | CellKind::Xnor2 => 1.0,
                CellKind::And2 | CellKind::Nand2 => ip(1 - pin),
                CellKind::Or2 | CellKind::Nor2 => 1.0 - ip(1 - pin),
                CellKind::And3 | CellKind::Nand3 => {
                    let others: f64 = (0..3).filter(|&j| j != pin).map(ip).product();
                    others
                }
                CellKind::Or3 | CellKind::Nor3 => {
                    (0..3).filter(|&j| j != pin).map(|j| 1.0 - ip(j)).product()
                }
                // Mux2 pins: D0, D1, S. A data pin controls the output
                // when selected; the select controls it when D0 != D1.
                CellKind::Mux2 => match pin {
                    0 => 1.0 - ip(2),
                    1 => ip(2),
                    _ => ip(0) * (1.0 - ip(1)) + ip(1) * (1.0 - ip(0)),
                },
                // Y = !((A & B) | C): A controls when B=1 and C=0; C
                // controls when A&B=0.
                CellKind::Aoi21 => match pin {
                    0 => ip(1) * (1.0 - ip(2)),
                    1 => ip(0) * (1.0 - ip(2)),
                    _ => 1.0 - ip(0) * ip(1),
                },
                // Y = !((A | B) & C): A controls when B=0 and C=1; C
                // controls when A|B=1.
                CellKind::Oai21 => match pin {
                    0 => (1.0 - ip(1)) * ip(2),
                    1 => (1.0 - ip(0)) * ip(2),
                    _ => 1.0 - (1.0 - ip(0)) * (1.0 - ip(1)),
                },
                // Tie cells have no inputs; state-holding kinds are not
                // levelized.
                _ => 0.0,
            };
            let through = out_obs * sens;
            if through > obs[input.index()] {
                obs[input.index()] = through;
            }
        }
    }
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::design::{Design, ModuleBuilder, PortDir};

    fn pipeline_netlist() -> FlatNetlist {
        // in -> INV -> AND(+in2) -> DFF -> BUF -> out
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("pipe");
        let clk = mb.port("clk", PortDir::Input);
        let a = mb.port("a", PortDir::Input);
        let b = mb.port("b", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        let na = mb.net("na");
        let anded = mb.net("anded");
        let q = mb.net("q");
        mb.cell("u_inv", CellKind::Inv, &[a], &[na]).unwrap();
        mb.cell("u_and", CellKind::And2, &[na, b], &[anded])
            .unwrap();
        mb.cell("u_ff", CellKind::Dff, &[clk, anded], &[q]).unwrap();
        mb.cell("u_buf", CellKind::Buf, &[q], &[y]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    #[test]
    fn module_class_inference() {
        let class = |s: &str| ModuleClass::infer(&[s.to_string()]);
        assert_eq!(class("u_cpu0"), ModuleClass::Cpu);
        assert_eq!(class("riscv_core"), ModuleClass::Cpu);
        assert_eq!(class("axi_xbar"), ModuleClass::Bus);
        assert_eq!(class("apb_bridge"), ModuleClass::Bus);
        assert_eq!(class("sram_bank"), ModuleClass::Memory);
        assert_eq!(class("u_pll"), ModuleClass::Other);
        assert_eq!(ModuleClass::infer(&[]), ModuleClass::Other);
    }

    #[test]
    fn feature_vector_has_documented_width() {
        let flat = pipeline_netlist();
        let fx = FeatureExtractor::new(&flat).unwrap();
        let feats = fx.extract(None);
        assert_eq!(feats.len(), 4);
        for f in &feats {
            assert_eq!(f.values.len(), STRUCTURAL_FEATURE_NAMES.len());
        }
    }

    #[test]
    fn observation_distance_decreases_toward_outputs() {
        let flat = pipeline_netlist();
        let fx = FeatureExtractor::new(&flat).unwrap();
        let idx = |name: &str| flat.cell_by_name(name).unwrap().index();
        // u_buf drives the primary output: distance 0.
        assert_eq!(fx.depth_obs[idx("u_buf")], 0);
        // u_and feeds the DFF: distance 1.
        assert_eq!(fx.depth_obs[idx("u_and")], 1);
        // u_inv is one hop further.
        assert_eq!(fx.depth_obs[idx("u_inv")], 2);
    }

    #[test]
    fn forward_depth_matches_levelization() {
        let flat = pipeline_netlist();
        let fx = FeatureExtractor::new(&flat).unwrap();
        let feats = fx.extract(None);
        let inv = flat.cell_by_name("u_inv").unwrap();
        let and = flat.cell_by_name("u_and").unwrap();
        let depth = |id: CellId| {
            feats
                .iter()
                .find(|f| f.cell == id)
                .map(|f| f.values[2])
                .unwrap()
        };
        assert_eq!(depth(inv), 0.0);
        assert_eq!(depth(and), 1.0);
    }

    #[test]
    fn activity_is_looked_up_per_output_net() {
        let flat = pipeline_netlist();
        let fx = FeatureExtractor::new(&flat).unwrap();
        let mut activity = vec![0.0; flat.nets().len()];
        let q = flat.net_by_name("q").unwrap();
        activity[q.index()] = 0.5;
        let ff = flat.cell_by_name("u_ff").unwrap();
        let feats = fx.extract_cell(ff, Some(&activity));
        assert_eq!(*feats.values.last().unwrap(), 0.5);
    }

    #[test]
    fn sequential_flag_set_only_for_ffs() {
        let flat = pipeline_netlist();
        let fx = FeatureExtractor::new(&flat).unwrap();
        for f in fx.extract(None) {
            let is_seq = flat.cell(f.cell).kind.is_sequential();
            assert_eq!(f.values[5] == 1.0, is_seq);
        }
    }

    #[test]
    fn dead_end_cell_saturates_depth_obs() {
        // u_dead drives a net with no loads that is not a primary output:
        // no observation point is reachable, so the u32 sentinel applies.
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("top");
        let a = mb.port("a", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        let w = mb.net("w");
        mb.cell("u0", CellKind::Inv, &[a], &[y]).unwrap();
        mb.cell("u_dead", CellKind::Inv, &[a], &[w]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        let flat = design.flatten().unwrap();

        let fx = FeatureExtractor::new(&flat).unwrap();
        let dead = flat.cell_by_name("u_dead").unwrap();
        let feats = fx.extract_cell(dead, None);
        // The sentinel must never leak into the feature vector as a giant
        // finite value; it saturates at the named cap.
        assert_eq!(feats.values[3], DEPTH_OBS_SATURATED);
        for &v in &feats.values {
            assert!(v.is_finite() && v <= DEPTH_OBS_SATURATED.max(100.0), "{v}");
        }
        // An observable cell keeps its real (small) distance.
        let live = flat.cell_by_name("u0").unwrap();
        assert_eq!(fx.extract_cell(live, None).values[3], 0.0);
    }

    fn feature_index(name: &str) -> usize {
        STRUCTURAL_FEATURE_NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap()
    }

    #[test]
    fn cone_sizes_count_transitive_neighbors() {
        let flat = pipeline_netlist();
        let fx = FeatureExtractor::new(&flat).unwrap();
        let feats = |name: &str| fx.extract_cell(flat.cell_by_name(name).unwrap(), None);
        let fanin = feature_index("fanin_cone");
        let fanout = feature_index("fanout_cone");
        // u_inv has no cell drivers upstream, and everything downstream.
        let inv = feats("u_inv");
        assert_eq!(inv.values[fanin], 0.0);
        assert_eq!(inv.values[fanout], 3.0); // and, ff, buf
                                             // u_buf sees the whole chain upstream and nothing downstream.
        let buf = feats("u_buf");
        assert_eq!(buf.values[fanin], 3.0);
        assert_eq!(buf.values[fanout], 0.0);
    }

    #[test]
    fn cone_size_saturates_at_cap() {
        // A root driving CONE_CAP + 8 loads must report exactly CONE_CAP.
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("wide");
        let a = mb.port("a", PortDir::Input);
        let w = mb.net("w");
        mb.cell("u_root", CellKind::Buf, &[a], &[w]).unwrap();
        for i in 0..(CONE_CAP + 8) {
            let y = mb.port(format!("y{i}"), PortDir::Output);
            mb.cell(format!("u{i}"), CellKind::Inv, &[w], &[y]).unwrap();
        }
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        let flat = design.flatten().unwrap();
        let fx = FeatureExtractor::new(&flat).unwrap();
        let root = flat.cell_by_name("u_root").unwrap();
        let v = fx.extract_cell(root, None);
        assert_eq!(v.values[feature_index("fanout_cone")], CONE_CAP as f64);
    }

    /// A ring of `len` cells: `len - 1` buffers closed by one flip-flop.
    /// The flip-flop's output net is the primary output, so no cell outside
    /// the ring loads it and every cone is exactly the rest of the ring.
    fn ring_netlist(len: usize) -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("ring");
        let clk = mb.port("clk", PortDir::Input);
        let q = mb.port("q", PortDir::Output);
        let mut prev = q;
        for i in 0..len - 1 {
            let next = mb.net(format!("w{i}"));
            mb.cell(format!("u{i}"), CellKind::Buf, &[prev], &[next])
                .unwrap();
            prev = next;
        }
        mb.cell("u_ff", CellKind::Dff, &[clk, prev], &[q]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    #[test]
    fn ring_cones_stop_one_short_of_the_cap_and_reach_it() {
        // A ring of CONE_CAP cells reaches CONE_CAP - 1 others, so no cell
        // may saturate even though every neighbour's cone is one short of
        // the cap; one more cell brings every cone to exactly the cap.
        for (len, cone) in [(CONE_CAP, CONE_CAP - 1), (CONE_CAP + 1, CONE_CAP)] {
            let flat = ring_netlist(len);
            assert_eq!(flat.num_cells(), len);
            let fx = FeatureExtractor::new(&flat).unwrap();
            for f in fx.extract(None) {
                let name = flat.cell_full_name(f.cell);
                for feat in ["fanin_cone", "fanout_cone"] {
                    let got = f.values[feature_index(feat)];
                    assert_eq!(got, cone as f64, "{feat} of {name} in a ring of {len}");
                }
            }
        }
    }

    #[test]
    fn po_and_ff_depths_follow_the_pipeline() {
        let flat = pipeline_netlist();
        let fx = FeatureExtractor::new(&flat).unwrap();
        let depth = |name: &str, feat: &str| {
            fx.extract_cell(flat.cell_by_name(name).unwrap(), None)
                .values[feature_index(feat)]
        };
        // u_buf drives the PO directly; u_ff is one hop behind it; the
        // logic upstream of the FF is separated from the PO by the FF.
        assert_eq!(depth("u_buf", "depth_po"), 0.0);
        assert_eq!(depth("u_ff", "depth_po"), 1.0);
        assert_eq!(depth("u_and", "depth_po"), 2.0);
        // u_and feeds the FF data pin directly; u_inv is one hop further;
        // u_buf never reaches a flip-flop input.
        assert_eq!(depth("u_and", "depth_ff"), 0.0);
        assert_eq!(depth("u_inv", "depth_ff"), 1.0);
        assert_eq!(depth("u_buf", "depth_ff"), DEPTH_OBS_SATURATED);
    }

    #[test]
    fn cop_probabilities_match_hand_computation() {
        let flat = pipeline_netlist();
        let fx = FeatureExtractor::new(&flat).unwrap();
        let value = |name: &str, feat: &str| {
            fx.extract_cell(flat.cell_by_name(name).unwrap(), None)
                .values[feature_index(feat)]
        };
        // p(na) = 1 - 0.5 = 0.5; p(anded) = p(na) * p(b) = 0.25.
        assert_eq!(value("u_inv", "cop_ctrl"), 0.5);
        assert_eq!(value("u_and", "cop_ctrl"), 0.25);
        // FF output is a pseudo-PI at 0.5; the buffer copies it.
        assert_eq!(value("u_buf", "cop_ctrl"), 0.5);
        // u_buf drives the PO: fully observable.
        assert_eq!(value("u_buf", "cop_obs"), 1.0);
        // u_and feeds the FF data input: fully observable.
        assert_eq!(value("u_and", "cop_obs"), 1.0);
        // u_inv is observed through the AND gate, sensitized when b=1.
        assert_eq!(value("u_inv", "cop_obs"), 0.5);
        // cop_product = obs * 2p(1-p): u_and has p=0.25, obs=1.
        assert_eq!(value("u_and", "cop_product"), 2.0 * 0.25 * 0.75);
        // Every COP value stays a probability.
        for f in fx.extract(None) {
            for feat in ["cop_ctrl", "cop_obs", "cop_product"] {
                let v = f.values[feature_index(feat)];
                assert!((0.0..=1.0).contains(&v), "{feat} = {v}");
            }
        }
    }
}
