//! Elaboration of hierarchical designs into flat netlists.
//!
//! A [`FlatNetlist`] is the form consumed by the simulator, the clustering
//! algorithm and the feature extractor: a flat array of primitive cells, each
//! tagged with its hierarchical instance path, plus fully resolved nets with
//! driver/load connectivity.
//!
//! # Storage layout
//!
//! The netlist is stored struct-of-arrays so million-cell SoCs fit in a few
//! contiguous allocations instead of one heap object per cell:
//!
//! - cell kind/output/path/name are parallel `u32`-sized columns;
//! - input pins live in one shared CSR pool (`cell_pin_start` offsets into
//!   `pin_pool`), replacing a per-cell `Vec<NetId>`;
//! - net loads live in a second CSR-style pool with per-net `(start, len)`
//!   spans, which [`FlatNetlist::add_cell`] grows by relocating a net's span
//!   to the pool tail (load order is preserved exactly);
//! - leaf names are interned into a [`NameArena`] (one string buffer plus
//!   offsets), and net names are stored as `(PathId, leaf)` pairs instead of
//!   joined hierarchical strings;
//! - the name-lookup tables behind [`FlatNetlist::cell_by_name`] and
//!   [`FlatNetlist::net_by_name`] are built lazily on first query and keyed
//!   by `(PathId, leaf)`, so campaigns that address cells by id never pay
//!   for them;
//! - the [`Levelization`] behind [`FlatNetlist::levelize`] is built once,
//!   on first call, and shared by every engine and the feature extractor;
//!   it carries the simulation kernel's sweep program (the evaluation lists
//!   cut into [`KindRuns`] with inline pins).
//!
//! Cell and net ids stay dense `u32` indices; minting past the 32-bit id
//! space is a [`NetlistError::TooLarge`] error instead of a silent wrap.

use crate::cell::CellKind;
use crate::design::{Design, PortDir};
use crate::error::NetlistError;
use crate::path::{HierPath, PathId, PathInterner};
use crate::ModuleId;
use ssresf_json::{FromJson, ToJson, Value};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Identifier of a cell in a [`FlatNetlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

impl CellId {
    /// Raw index of the cell.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a net in a [`FlatNetlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// Raw index of the net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ToJson for CellId {
    fn to_json(&self) -> Value {
        self.0.to_json()
    }
}

impl FromJson for CellId {
    fn from_json(value: &Value) -> Result<Self, String> {
        u32::from_json(value).map(CellId)
    }
}

impl ToJson for NetId {
    fn to_json(&self) -> Value {
        self.0.to_json()
    }
}

impl FromJson for NetId {
    fn from_json(value: &Value) -> Result<Self, String> {
        u32::from_json(value).map(NetId)
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// The output pin of a cell.
    Cell(CellId),
    /// A primary input of the flattened design.
    PrimaryInput,
}

/// In-array driver encoding: a plain cell index, or one of two sentinels.
const NO_DRIVER: u32 = u32::MAX;
const PI_DRIVER: u32 = u32::MAX - 1;

fn encode_driver(driver: Option<Driver>) -> u32 {
    match driver {
        None => NO_DRIVER,
        Some(Driver::PrimaryInput) => PI_DRIVER,
        Some(Driver::Cell(cell)) => cell.0,
    }
}

fn decode_driver(raw: u32) -> Option<Driver> {
    match raw {
        NO_DRIVER => None,
        PI_DRIVER => Some(Driver::PrimaryInput),
        cell => Some(Driver::Cell(CellId(cell))),
    }
}

/// Largest id value that can be minted; the two values above it are
/// reserved for the driver-encoding sentinels.
const MAX_ID: usize = (u32::MAX - 2) as usize;

/// Mints the id for the next element of a column of current length `len`,
/// or fails with [`NetlistError::TooLarge`] once the 32-bit id space (minus
/// the reserved sentinels) is exhausted. Every cell/net/name id in a
/// [`FlatNetlist`] passes through this guard, so ids can never silently
/// wrap and alias.
pub(crate) fn checked_id(len: usize, what: &'static str) -> Result<u32, NetlistError> {
    if len > MAX_ID {
        return Err(NetlistError::TooLarge { what });
    }
    Ok(len as u32)
}

/// Interned identifier of a leaf name in a [`NameArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(u32);

/// Append-only arena of leaf-name strings: one shared byte buffer plus an
/// end offset per name. Unlike [`PathInterner`] it does not deduplicate —
/// leaf names are mostly unique — but elaboration interns each module's
/// name set once, so repeated instances of a module share entries.
#[derive(Debug, Clone, Default)]
pub struct NameArena {
    data: String,
    ends: Vec<u32>,
}

impl NameArena {
    /// Appends `name`, returning its id.
    pub(crate) fn intern(&mut self, name: &str) -> Result<NameId, NetlistError> {
        let id = checked_id(self.ends.len(), "leaf names")?;
        let end = self.data.len() + name.len();
        if end > MAX_ID {
            return Err(NetlistError::TooLarge {
                what: "leaf-name bytes",
            });
        }
        self.data.push_str(name);
        self.ends.push(end as u32);
        Ok(NameId(id))
    }

    /// Resolves an id back to its string.
    pub fn resolve(&self, id: NameId) -> &str {
        let i = id.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.data[start..self.ends[i] as usize]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// Borrowed view of one cell of a [`FlatNetlist`].
///
/// Views are cheap `Copy` handles assembled on access from the underlying
/// columns; they borrow the netlist, not a per-cell heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellView<'a> {
    /// Leaf instance name (unique within its parent module instance).
    pub name: &'a str,
    /// Hierarchical instance path of the containing module.
    pub path: PathId,
    /// Library cell kind.
    pub kind: CellKind,
    /// Input nets in canonical pin order.
    pub inputs: &'a [NetId],
    /// Net driven by the output pin.
    pub output: NetId,
}

/// Borrowed view of one net of a [`FlatNetlist`].
///
/// Net names are stored as `(PathId, leaf)` pairs; use
/// [`FlatNetlist::net_full_name`] to materialize the joined hierarchical
/// name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetView<'a> {
    /// The unique driver, if any.
    pub driver: Option<Driver>,
    /// Cells reading this net, as `(cell, input-pin index)` pairs.
    pub loads: &'a [(CellId, u8)],
}

/// Indexable, iterable view over all cells (see [`FlatNetlist::cells`]).
#[derive(Clone, Copy)]
pub struct CellsView<'a> {
    nl: &'a FlatNetlist,
}

impl<'a> CellsView<'a> {
    /// Number of cells.
    pub fn len(self) -> usize {
        self.nl.num_cells()
    }

    /// Whether the netlist has no cells.
    pub fn is_empty(self) -> bool {
        self.nl.num_cells() == 0
    }

    /// Iterates over cell views in id order.
    pub fn iter(self) -> CellIter<'a> {
        CellIter {
            nl: self.nl,
            next: 0,
        }
    }
}

impl<'a> IntoIterator for CellsView<'a> {
    type Item = CellView<'a>;
    type IntoIter = CellIter<'a>;
    fn into_iter(self) -> CellIter<'a> {
        self.iter()
    }
}

/// Iterator over [`CellView`]s in id order.
pub struct CellIter<'a> {
    nl: &'a FlatNetlist,
    next: u32,
}

impl<'a> Iterator for CellIter<'a> {
    type Item = CellView<'a>;
    fn next(&mut self) -> Option<CellView<'a>> {
        if (self.next as usize) < self.nl.num_cells() {
            let view = self.nl.cell(CellId(self.next));
            self.next += 1;
            Some(view)
        } else {
            None
        }
    }
}

/// Indexable, iterable view over all nets (see [`FlatNetlist::nets`]).
#[derive(Clone, Copy)]
pub struct NetsView<'a> {
    nl: &'a FlatNetlist,
}

impl<'a> NetsView<'a> {
    /// Number of nets.
    pub fn len(self) -> usize {
        self.nl.num_nets()
    }

    /// Whether the netlist has no nets.
    pub fn is_empty(self) -> bool {
        self.nl.num_nets() == 0
    }

    /// Iterates over net views in id order.
    pub fn iter(self) -> NetIter<'a> {
        NetIter {
            nl: self.nl,
            next: 0,
        }
    }
}

impl<'a> IntoIterator for NetsView<'a> {
    type Item = NetView<'a>;
    type IntoIter = NetIter<'a>;
    fn into_iter(self) -> NetIter<'a> {
        self.iter()
    }
}

/// Iterator over [`NetView`]s in id order.
pub struct NetIter<'a> {
    nl: &'a FlatNetlist,
    next: u32,
}

impl<'a> Iterator for NetIter<'a> {
    type Item = NetView<'a>;
    fn next(&mut self) -> Option<NetView<'a>> {
        if (self.next as usize) < self.nl.num_nets() {
            let view = self.nl.net(NetId(self.next));
            self.next += 1;
            Some(view)
        } else {
            None
        }
    }
}

/// Result of levelizing the combinational portion of a netlist: the one
/// evaluation schedule that every engine and the feature extractor read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    /// The evaluation order: every combinational cell, sorted by
    /// `(depth, kind, id)`. Each cell's combinational drivers come before
    /// it, and cells of one kind at one depth are adjacent.
    pub order: Vec<CellId>,
    /// The sequential cells (flip-flops, latches, memory bits) in id order.
    pub sequential: Vec<CellId>,
    /// Per-cell combinational depth. Sequential cells and tie cells have
    /// depth 0; a combinational cell's depth is one more than the maximum
    /// depth among its input drivers.
    pub cell_depth: Vec<u32>,
    /// Maximum combinational depth in the design.
    pub max_depth: u32,
    /// `order` cut into kind runs, with every cell's pins inline: the
    /// combinational sweep of the simulation kernel.
    pub order_runs: KindRuns,
    /// `sequential` cut into kind runs, with every cell's pins inline: the
    /// capture and Q-drive phases of the simulation kernel.
    pub sequential_runs: KindRuns,
}

/// A maximal stretch of consecutive cells of one kind in one of a
/// [`Levelization`]'s lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindRun {
    /// The kind of every cell in the run.
    pub kind: CellKind,
    /// Position of the run's first cell in its list.
    pub start: u32,
    /// Position one past the run's last cell.
    pub end: u32,
    /// Position of the run's first pin slot in its program's pin pool.
    pin_start: usize,
}

/// A cell list compiled for a sweep: its kind runs, and each cell's nets
/// stored inline in list order, so a sweep reads pins sequentially and
/// dispatches on a kind once per run instead of once per cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindRuns {
    /// The runs, in list order; neighbouring runs differ in kind.
    runs: Vec<KindRun>,
    /// Per cell, in list order: its input nets in pin order, then its
    /// output net (`kind.num_inputs() + 1` slots).
    pins: Vec<NetId>,
}

impl KindRuns {
    fn compile(netlist: &FlatNetlist, cells: &[CellId]) -> KindRuns {
        let slots = cells
            .iter()
            .map(|&c| netlist.cell_inputs(c).len() + 1)
            .sum();
        let mut program = KindRuns {
            runs: Vec::new(),
            pins: Vec::with_capacity(slots),
        };
        for (i, &cell) in cells.iter().enumerate() {
            let kind = netlist.cell_kind(cell);
            match program.runs.last_mut() {
                Some(run) if run.kind == kind => run.end += 1,
                _ => program.runs.push(KindRun {
                    kind,
                    start: i as u32,
                    end: i as u32 + 1,
                    pin_start: program.pins.len(),
                }),
            }
            program.pins.extend_from_slice(netlist.cell_inputs(cell));
            program.pins.push(netlist.cell_output(cell));
        }
        program
    }

    /// The runs, in list order; neighbouring runs differ in kind.
    pub fn runs(&self) -> &[KindRun] {
        &self.runs
    }

    /// The pin slots of `run`'s cells: `run.kind.num_inputs() + 1` per
    /// cell, in list order (the inputs in pin order, then the output).
    pub fn pins(&self, run: &KindRun) -> &[NetId] {
        let len = (run.end - run.start) as usize * (run.kind.num_inputs() + 1);
        &self.pins[run.pin_start..run.pin_start + len]
    }

    /// `run`'s cells in list order, each as its position in the list, its
    /// input nets and its output net.
    pub fn cells(&self, run: &KindRun) -> impl Iterator<Item = (usize, &[NetId], NetId)> {
        let arity = run.kind.num_inputs();
        (run.start as usize..)
            .zip(self.pins(run).chunks_exact(arity + 1))
            .map(move |(i, cell)| (i, &cell[..arity], cell[arity]))
    }
}

type LazyLookup<T> = OnceLock<HashMap<PathId, HashMap<Box<str>, T>>>;

/// A flattened gate-level netlist (struct-of-arrays storage; see the
/// module docs for the layout).
#[derive(Debug, Clone, Default)]
pub struct FlatNetlist {
    /// Name of the top module this netlist was flattened from.
    pub top_name: String,
    paths: PathInterner,
    names: NameArena,
    // Cell columns (parallel, indexed by CellId).
    cell_name: Vec<NameId>,
    cell_path: Vec<PathId>,
    cell_kind: Vec<CellKind>,
    cell_output: Vec<NetId>,
    /// CSR offsets into `pin_pool`; length `cells + 1` (leading 0).
    cell_pin_start: Vec<u32>,
    pin_pool: Vec<NetId>,
    // Net columns (parallel, indexed by NetId).
    net_name: Vec<NameId>,
    net_path: Vec<PathId>,
    net_driver: Vec<u32>,
    net_load_start: Vec<u32>,
    net_load_len: Vec<u32>,
    load_pool: Vec<(CellId, u8)>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    cell_lookup: LazyLookup<CellId>,
    net_lookup: LazyLookup<NetId>,
    levelization: OnceLock<Result<Levelization, NetlistError>>,
}

impl FlatNetlist {
    /// All cells.
    pub fn cells(&self) -> CellsView<'_> {
        CellsView { nl: self }
    }

    /// All nets.
    pub fn nets(&self) -> NetsView<'_> {
        NetsView { nl: self }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cell_kind.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_driver.len()
    }

    /// Resolves a cell id.
    ///
    /// Assembling the view resolves the cell's leaf name; simulation hot
    /// loops read single columns through [`FlatNetlist::cell_kind`],
    /// [`FlatNetlist::cell_inputs`] and [`FlatNetlist::cell_output`]
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn cell(&self, id: CellId) -> CellView<'_> {
        let i = id.index();
        CellView {
            name: self.names.resolve(self.cell_name[i]),
            path: self.cell_path[i],
            kind: self.cell_kind[i],
            inputs: self.cell_inputs(id),
            output: self.cell_output[i],
        }
    }

    /// A cell's library kind.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (likewise for the other column
    /// accessors).
    #[inline]
    pub fn cell_kind(&self, id: CellId) -> CellKind {
        self.cell_kind[id.index()]
    }

    /// A cell's input nets, in canonical pin order.
    #[inline]
    pub fn cell_inputs(&self, id: CellId) -> &[NetId] {
        let i = id.index();
        &self.pin_pool[self.cell_pin_start[i] as usize..self.cell_pin_start[i + 1] as usize]
    }

    /// The net a cell's output pin drives.
    #[inline]
    pub fn cell_output(&self, id: CellId) -> NetId {
        self.cell_output[id.index()]
    }

    /// Resolves a net id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn net(&self, id: NetId) -> NetView<'_> {
        NetView {
            driver: self.net_driver(id),
            loads: self.net_loads(id),
        }
    }

    /// A net's unique driver, if any.
    #[inline]
    pub fn net_driver(&self, id: NetId) -> Option<Driver> {
        decode_driver(self.net_driver[id.index()])
    }

    /// Cells reading a net, as `(cell, input-pin index)` pairs.
    #[inline]
    pub fn net_loads(&self, id: NetId) -> &[(CellId, u8)] {
        let i = id.index();
        let start = self.net_load_start[i] as usize;
        &self.load_pool[start..start + self.net_load_len[i] as usize]
    }

    /// Primary inputs (top-module input ports), in port order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary outputs (top-module output ports), in port order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// The interner resolving cell [`PathId`]s.
    pub fn paths(&self) -> &PathInterner {
        &self.paths
    }

    /// The arena resolving cell and net leaf names.
    pub fn names(&self) -> &NameArena {
        &self.names
    }

    pub(crate) fn paths_mut(&mut self) -> &mut PathInterner {
        &mut self.paths
    }

    /// Full hierarchical name of a cell.
    pub fn cell_full_name(&self, id: CellId) -> String {
        let i = id.index();
        self.paths
            .resolve(self.cell_path[i])
            .join(self.names.resolve(self.cell_name[i]))
    }

    /// Full hierarchical name of a net.
    pub fn net_full_name(&self, id: NetId) -> String {
        let i = id.index();
        self.paths
            .resolve(self.net_path[i])
            .join(self.names.resolve(self.net_name[i]))
    }

    /// Looks a cell up by full hierarchical name.
    ///
    /// The lookup table is built on first query (keyed `(PathId, leaf)`, so
    /// path prefixes are never duplicated) and invalidated by mutation.
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        let map = self.cell_lookup.get_or_init(|| {
            let mut map: HashMap<PathId, HashMap<Box<str>, CellId>> = HashMap::new();
            for i in 0..self.num_cells() {
                map.entry(self.cell_path[i]).or_default().insert(
                    self.names.resolve(self.cell_name[i]).into(),
                    CellId(i as u32),
                );
            }
            map
        });
        self.resolve_qualified(name, map)
    }

    /// Looks a net up by full hierarchical name.
    ///
    /// Built lazily like [`FlatNetlist::cell_by_name`].
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        let map = self.net_lookup.get_or_init(|| {
            let mut map: HashMap<PathId, HashMap<Box<str>, NetId>> = HashMap::new();
            for i in 0..self.num_nets() {
                map.entry(self.net_path[i])
                    .or_default()
                    .insert(self.names.resolve(self.net_name[i]).into(), NetId(i as u32));
            }
            map
        });
        self.resolve_qualified(name, map)
    }

    /// Resolves a dotted hierarchical name against a `(PathId, leaf)` map by
    /// trying every path/leaf split, longest path prefix first (leaf names
    /// normally contain no dots, so the first hit is the unique answer).
    fn resolve_qualified<T: Copy>(
        &self,
        name: &str,
        map: &HashMap<PathId, HashMap<Box<str>, T>>,
    ) -> Option<T> {
        let try_one = |path: &HierPath, leaf: &str| -> Option<T> {
            let path_id = self.paths.find(path)?;
            map.get(&path_id).and_then(|m| m.get(leaf)).copied()
        };
        for (i, _) in name.rmatch_indices('.') {
            let path = HierPath::from_segments(name[..i].split('.'));
            if let Some(v) = try_one(&path, &name[i + 1..]) {
                return Some(v);
            }
        }
        try_one(&HierPath::root(), name)
    }

    /// Number of cells whose output fans out to `net`'s loads.
    pub fn fanout(&self, net: NetId) -> usize {
        self.net_load_len[net.index()] as usize
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn iter_cells(&self) -> impl Iterator<Item = (CellId, CellView<'_>)> {
        (0..self.num_cells() as u32).map(|i| (CellId(i), self.cell(CellId(i))))
    }

    /// Drops the lazy name tables and the levelization so the next query
    /// rebuilds them. Called by the mutation API ([`FlatNetlist::add_net`],
    /// [`FlatNetlist::add_cell`], [`FlatNetlist::retarget_output`]);
    /// elaboration pushes into a netlist whose caches were never built.
    pub(crate) fn invalidate_caches(&mut self) {
        self.cell_lookup = OnceLock::new();
        self.net_lookup = OnceLock::new();
        self.levelization = OnceLock::new();
    }

    /// Appends a net stored as `(path, leaf)`.
    pub(crate) fn push_net_parts(
        &mut self,
        path: PathId,
        name: NameId,
    ) -> Result<NetId, NetlistError> {
        let id = checked_id(self.num_nets(), "nets")?;
        debug_assert!(self.load_pool.len() <= MAX_ID);
        self.net_name.push(name);
        self.net_path.push(path);
        self.net_driver.push(NO_DRIVER);
        self.net_load_start.push(self.load_pool.len() as u32);
        self.net_load_len.push(0);
        Ok(NetId(id))
    }

    /// Appends a cell's columns (connectivity — loads, driver — is wired by
    /// the caller).
    pub(crate) fn push_cell_parts(
        &mut self,
        name: NameId,
        path: PathId,
        kind: CellKind,
        inputs: impl ExactSizeIterator<Item = NetId>,
        output: NetId,
    ) -> Result<CellId, NetlistError> {
        let id = checked_id(self.num_cells(), "cells")?;
        if self.pin_pool.len() + inputs.len() > MAX_ID {
            return Err(NetlistError::TooLarge { what: "input pins" });
        }
        if self.cell_pin_start.is_empty() {
            self.cell_pin_start.push(0);
        }
        self.cell_name.push(name);
        self.cell_path.push(path);
        self.cell_kind.push(kind);
        self.cell_output.push(output);
        self.pin_pool.extend(inputs);
        self.cell_pin_start.push(self.pin_pool.len() as u32);
        Ok(CellId(id))
    }

    /// Interns a leaf name.
    pub(crate) fn intern_name(&mut self, name: &str) -> Result<NameId, NetlistError> {
        self.names.intern(name)
    }

    pub(crate) fn set_driver(&mut self, net: NetId, driver: Option<Driver>) {
        self.net_driver[net.index()] = encode_driver(driver);
    }

    /// Swaps a cell's kind in place, never turning a sequential cell
    /// combinational or back. The name tables stay valid; the levelization
    /// is dropped, since its kind runs and its order key read kinds.
    pub(crate) fn set_cell_kind(&mut self, cell: CellId, kind: CellKind) {
        debug_assert_eq!(
            self.cell_kind[cell.index()].is_sequential(),
            kind.is_sequential()
        );
        self.cell_kind[cell.index()] = kind;
        self.levelization = OnceLock::new();
    }

    pub(crate) fn set_cell_output(&mut self, cell: CellId, output: NetId) {
        self.cell_output[cell.index()] = output;
    }

    /// Appends one load to a net's span. When the span is not at the pool
    /// tail it is relocated there first, preserving entry order, so load
    /// slices stay contiguous under ECO-style edits; the hole it leaves is
    /// dead pool space (reclaimed only by re-elaboration, which ECO batches
    /// never need).
    pub(crate) fn append_load(&mut self, net: NetId, entry: (CellId, u8)) {
        let i = net.index();
        let start = self.net_load_start[i] as usize;
        let len = self.net_load_len[i] as usize;
        assert!(self.load_pool.len() < MAX_ID, "load pool exhausted");
        if start + len != self.load_pool.len() {
            let pool_end = self.load_pool.len();
            for k in 0..len {
                let moved = self.load_pool[start + k];
                self.load_pool.push(moved);
            }
            self.net_load_start[i] = pool_end as u32;
        }
        self.load_pool.push(entry);
        self.net_load_len[i] = (len + 1) as u32;
    }

    /// Builds the load CSR in one counting pass over the pin pool. Per-net
    /// load order is `(cell id, pin)` ascending — exactly the order in
    /// which elaboration wires cells up.
    fn build_loads(&mut self) {
        let nets = self.num_nets();
        let mut counts = vec![0u32; nets];
        for net in &self.pin_pool {
            counts[net.index()] += 1;
        }
        let mut start = vec![0u32; nets];
        let mut acc = 0u32;
        for (slot, &count) in start.iter_mut().zip(&counts) {
            *slot = acc;
            acc += count;
        }
        let mut fill = start.clone();
        let mut pool = vec![(CellId(0), 0u8); self.pin_pool.len()];
        for c in 0..self.num_cells() {
            for (pin, &net) in self.cell_inputs(CellId(c as u32)).iter().enumerate() {
                let slot = fill[net.index()];
                fill[net.index()] += 1;
                pool[slot as usize] = (CellId(c as u32), pin as u8);
            }
        }
        self.net_load_start = start;
        self.net_load_len = counts;
        self.load_pool = pool;
    }

    /// Levelizes the combinational portion of the netlist.
    ///
    /// Sources are primary inputs, tie cells and sequential-cell outputs.
    /// The result is computed on the first call and cached until the
    /// netlist is next edited, so every later call borrows the same
    /// [`Levelization`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if combinational cells
    /// form a cycle.
    pub fn levelize(&self) -> Result<&Levelization, NetlistError> {
        self.levelization
            .get_or_init(|| self.compute_levelization())
            .as_ref()
            .map_err(Clone::clone)
    }

    fn compute_levelization(&self) -> Result<Levelization, NetlistError> {
        let n = self.num_cells();
        let mut pending: Vec<u32> = vec![0; n];
        let mut order = Vec::new();
        let mut sequential = Vec::new();
        let mut ready = Vec::new();
        let mut cell_depth = vec![0u32; n];

        for (i, slot) in pending.iter_mut().enumerate() {
            if self.cell_kind[i].is_sequential() {
                // Sequential cells are sources; they never wait on inputs here.
                sequential.push(CellId(i as u32));
                continue;
            }
            let mut count = 0;
            for &input in self.cell_inputs(CellId(i as u32)) {
                if let Some(Driver::Cell(driver)) = self.net_driver(input) {
                    if self.cell_kind[driver.index()].is_combinational() {
                        count += 1;
                    }
                }
            }
            *slot = count;
            if count == 0 {
                ready.push(CellId(i as u32));
            }
        }

        let mut max_depth = 0;
        while let Some(id) = ready.pop() {
            order.push(id);
            let mut depth = 0;
            for &input in self.cell_inputs(id) {
                if let Some(Driver::Cell(driver)) = self.net_driver(input) {
                    if self.cell_kind[driver.index()].is_combinational() {
                        depth = depth.max(cell_depth[driver.index()] + 1);
                    }
                }
            }
            cell_depth[id.index()] = depth;
            max_depth = max_depth.max(depth);
            for &(load, _pin) in self.net_loads(self.cell_output(id)) {
                if self.cell_kind[load.index()].is_combinational() {
                    pending[load.index()] -= 1;
                    if pending[load.index()] == 0 {
                        ready.push(load);
                    }
                }
            }
        }

        if order.len() + sequential.len() != n {
            // Find a cell stuck in the cycle for the error message.
            let stuck = (0..n)
                .find(|&i| self.cell_kind[i].is_combinational() && pending[i] > 0)
                .map(|i| self.net_full_name(self.cell_output[i]))
                .unwrap_or_default();
            return Err(NetlistError::CombinationalLoop(stuck));
        }

        // Depth strictly grows along every combinational edge, so the
        // (depth, kind, id) order is topological; the keys are unique.
        order.sort_unstable_by_key(|c| (cell_depth[c.index()], self.cell_kind[c.index()], c.0));
        Ok(Levelization {
            order_runs: KindRuns::compile(self, &order),
            sequential_runs: KindRuns::compile(self, &sequential),
            order,
            sequential,
            cell_depth,
            max_depth,
        })
    }
}

/// Per-module interned leaf names, shared across that module's instances.
struct ModuleNames {
    cells: Vec<NameId>,
    nets: Vec<NameId>,
}

/// The interned names of `module_id`, interning them on the module's first
/// visit. `cache` is indexed by [`ModuleId`].
fn module_names<'c>(
    design: &Design,
    module_id: ModuleId,
    flat: &mut FlatNetlist,
    cache: &'c mut [Option<ModuleNames>],
) -> Result<&'c ModuleNames, NetlistError> {
    let slot = &mut cache[module_id.index()];
    if slot.is_none() {
        let module = design.module(module_id);
        let mut names = ModuleNames {
            cells: Vec::with_capacity(module.cells.len()),
            nets: Vec::with_capacity(module.nets.len()),
        };
        for cell in &module.cells {
            names.cells.push(flat.intern_name(&cell.name)?);
        }
        for net in &module.nets {
            names.nets.push(flat.intern_name(net)?);
        }
        *slot = Some(names);
    }
    Ok(slot.as_ref().expect("interned above"))
}

impl Design {
    /// Flattens the design starting from its top module.
    ///
    /// Every module instance is expanded recursively; submodule port nets are
    /// merged with the parent nets they connect to. Cell and net names are
    /// prefixed with their dotted instance path.
    ///
    /// # Errors
    ///
    /// - [`NetlistError::NoTop`] when no top module is set.
    /// - [`NetlistError::RecursiveHierarchy`] on instantiation cycles.
    /// - [`NetlistError::MultipleDrivers`] / [`NetlistError::Undriven`] when
    ///   connectivity is inconsistent after merging.
    /// - [`NetlistError::TooLarge`] when the design exceeds the 32-bit
    ///   cell/net id space.
    pub fn flatten(&self) -> Result<FlatNetlist, NetlistError> {
        let top = self.top().ok_or(NetlistError::NoTop)?;
        let mut flat = FlatNetlist {
            top_name: self.module(top).name.clone(),
            ..FlatNetlist::default()
        };
        let root = flat.paths.intern(HierPath::root());
        let mut stack = Vec::new();
        let mut names: Vec<Option<ModuleNames>> = Vec::new();
        names.resize_with(self.modules().len(), || None);

        // Create nets for the top module and record primary ports.
        let top_module = self.module(top);
        let top_names = module_names(self, top, &mut flat, &mut names)?;
        let mut net_map = Vec::with_capacity(top_module.nets.len());
        for &leaf in &top_names.nets {
            net_map.push(flat.push_net_parts(root, leaf)?);
        }
        for port in &top_module.ports {
            let net = net_map[port.net.index()];
            match port.dir {
                PortDir::Input => {
                    flat.primary_inputs.push(net);
                    flat.set_driver(net, Some(Driver::PrimaryInput));
                }
                PortDir::Output => flat.primary_outputs.push(net),
            }
        }

        expand(
            self,
            top,
            root,
            HierPath::root(),
            &net_map,
            &mut flat,
            &mut stack,
            &mut names,
        )?;

        flat.build_loads();

        // Connectivity check: every net with loads (or marked as primary
        // output) must have exactly one driver.
        let mut observed = vec![false; flat.num_nets()];
        for &po in &flat.primary_outputs {
            observed[po.index()] = true;
        }
        for (i, &observed) in observed.iter().enumerate() {
            if flat.net_driver[i] == NO_DRIVER && (flat.net_load_len[i] > 0 || observed) {
                return Err(NetlistError::Undriven(flat.net_full_name(NetId(i as u32))));
            }
        }

        Ok(flat)
    }
}

#[allow(clippy::too_many_arguments)]
fn expand(
    design: &Design,
    module_id: ModuleId,
    path_id: PathId,
    path: HierPath,
    net_map: &[NetId],
    flat: &mut FlatNetlist,
    stack: &mut Vec<ModuleId>,
    names: &mut [Option<ModuleNames>],
) -> Result<(), NetlistError> {
    if stack.contains(&module_id) {
        return Err(NetlistError::RecursiveHierarchy(
            design.module(module_id).name.clone(),
        ));
    }
    stack.push(module_id);
    let module = design.module(module_id);
    let leaves = &module_names(design, module_id, flat, names)?.cells;

    for (cell, &leaf) in module.cells.iter().zip(leaves) {
        let inputs = cell.inputs.iter().map(|n| net_map[n.index()]);
        let output = net_map[cell.output.index()];
        if flat.net_driver(output).is_some() {
            return Err(NetlistError::MultipleDrivers(flat.net_full_name(output)));
        }
        let cell_id = flat.push_cell_parts(leaf, path_id, cell.kind, inputs, output)?;
        flat.set_driver(output, Some(Driver::Cell(cell_id)));
    }

    for inst in &module.instances {
        let child = design.module(inst.module);
        let child_path = path.child(&inst.name);
        let child_path_id = flat.paths.intern(child_path.clone());
        let child_nets = &module_names(design, inst.module, flat, names)?.nets;

        // Bind port nets to parent nets; allocate new flat nets for the rest.
        let mut child_map: Vec<Option<NetId>> = vec![None; child.nets.len()];
        for (port, &conn) in child.ports.iter().zip(&inst.connections) {
            child_map[port.net.index()] = Some(net_map[conn.index()]);
        }
        let mut resolved = Vec::with_capacity(child.nets.len());
        for (i, bound) in child_map.iter().enumerate() {
            let id = match bound {
                Some(id) => *id,
                None => flat.push_net_parts(child_path_id, child_nets[i])?,
            };
            resolved.push(id);
        }

        expand(
            design,
            inst.module,
            child_path_id,
            child_path,
            &resolved,
            flat,
            stack,
            names,
        )?;
    }

    stack.pop();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::ModuleBuilder;

    /// Two-level hierarchy: top instantiates two half adders.
    fn hierarchical_design() -> Design {
        let mut design = Design::new();

        let mut ha = ModuleBuilder::new("half_adder");
        let a = ha.port("a", PortDir::Input);
        let b = ha.port("b", PortDir::Input);
        let s = ha.port("s", PortDir::Output);
        let c = ha.port("c", PortDir::Output);
        ha.cell("u_xor", CellKind::Xor2, &[a, b], &[s]).unwrap();
        ha.cell("u_and", CellKind::And2, &[a, b], &[c]).unwrap();
        let ha_id = design.add_module(ha.finish()).unwrap();

        let mut top = ModuleBuilder::new("top");
        let x = top.port("x", PortDir::Input);
        let y = top.port("y", PortDir::Input);
        let z = top.port("z", PortDir::Input);
        let sum = top.port("sum", PortDir::Output);
        let carry = top.port("carry", PortDir::Output);
        let s0 = top.net("s0");
        let c0 = top.net("c0");
        let c1 = top.net("c1");
        top.instance("u_ha0", ha_id, &[x, y, s0, c0]).unwrap();
        top.instance("u_ha1", ha_id, &[s0, z, sum, c1]).unwrap();
        top.cell("u_or", CellKind::Or2, &[c0, c1], &[carry])
            .unwrap();
        let top_id = design.add_module(top.finish()).unwrap();
        design.set_top(top_id).unwrap();
        design
    }

    #[test]
    fn flatten_counts_cells_and_ports() {
        let flat = hierarchical_design().flatten().unwrap();
        assert_eq!(flat.cells().len(), 5); // 2 per half adder + 1 OR
        assert_eq!(flat.primary_inputs().len(), 3);
        assert_eq!(flat.primary_outputs().len(), 2);
    }

    #[test]
    fn flatten_assigns_paths() {
        let flat = hierarchical_design().flatten().unwrap();
        let names: Vec<String> = flat
            .iter_cells()
            .map(|(id, _)| flat.cell_full_name(id))
            .collect();
        assert!(names.contains(&"u_ha0.u_xor".to_string()));
        assert!(names.contains(&"u_ha1.u_and".to_string()));
        assert!(names.contains(&"u_or".to_string()));
    }

    #[test]
    fn flatten_merges_port_nets() {
        let flat = hierarchical_design().flatten().unwrap();
        // The net s0 connects u_ha0's output to u_ha1's input — one flat net.
        let s0 = flat.net_by_name("s0").unwrap();
        assert!(matches!(flat.net(s0).driver, Some(Driver::Cell(_))));
        assert_eq!(flat.net(s0).loads.len(), 2); // u_ha1.u_xor and u_ha1.u_and
    }

    #[test]
    fn lookup_by_name_round_trips() {
        let flat = hierarchical_design().flatten().unwrap();
        for (id, _) in flat.iter_cells() {
            let name = flat.cell_full_name(id);
            assert_eq!(flat.cell_by_name(&name), Some(id));
        }
    }

    #[test]
    fn net_names_round_trip_through_parts() {
        let flat = hierarchical_design().flatten().unwrap();
        for i in 0..flat.num_nets() {
            let id = NetId(i as u32);
            let name = flat.net_full_name(id);
            assert_eq!(flat.net_by_name(&name), Some(id), "{name}");
        }
        // Instance-internal nets keep their dotted prefix... none exist in
        // this design (all half-adder nets are ports), so check a cell path
        // indirectly: u_ha0.u_xor drives the parent net s0.
        let s0 = flat.net_by_name("s0").unwrap();
        assert_eq!(flat.net_full_name(s0), "s0");
    }

    #[test]
    fn flatten_requires_top() {
        let design = Design::new();
        assert_eq!(design.flatten().unwrap_err(), NetlistError::NoTop);
    }

    #[test]
    fn undriven_loaded_net_is_rejected() {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("bad");
        let y = mb.port("y", PortDir::Output);
        let floating = mb.net("floating");
        mb.cell("u0", CellKind::Buf, &[floating], &[y]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        assert!(matches!(
            design.flatten().unwrap_err(),
            NetlistError::Undriven(_)
        ));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("bad");
        let a = mb.port("a", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        mb.cell("u0", CellKind::Buf, &[a], &[y]).unwrap();
        mb.cell("u1", CellKind::Inv, &[a], &[y]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        assert!(matches!(
            design.flatten().unwrap_err(),
            NetlistError::MultipleDrivers(_)
        ));
    }

    #[test]
    fn levelize_orders_by_depth() {
        let flat = hierarchical_design().flatten().unwrap();
        let lv = flat.levelize().unwrap();
        assert_eq!(lv.order.len(), 5);
        // The OR gate consumes c0 (depth 1) and c1 (depth 2 via s0) so its
        // depth must exceed both half-adder gates it depends on.
        let or_id = flat.cell_by_name("u_or").unwrap();
        let ha1_and = flat.cell_by_name("u_ha1.u_and").unwrap();
        assert!(lv.cell_depth[or_id.index()] > lv.cell_depth[ha1_and.index()]);
        assert_eq!(lv.max_depth, lv.cell_depth[or_id.index()]);
        // `order` is the evaluation order: strictly ascending
        // (depth, kind, id).
        let key = |c: &CellId| (lv.cell_depth[c.index()], flat.cell_kind(*c), c.0);
        assert!(lv.order.windows(2).all(|w| key(&w[0]) < key(&w[1])));
        // Cached: a second call borrows the same levelization.
        assert!(std::ptr::eq(lv, flat.levelize().unwrap()));
    }

    /// Checks that `program` is `cells` cut into maximal kind runs, with
    /// each cell's inputs and output inline in list order.
    fn assert_compiled(flat: &FlatNetlist, cells: &[CellId], program: &KindRuns) {
        let mut next = 0;
        let mut pins = Vec::new();
        for (i, run) in program.runs.iter().enumerate() {
            assert_eq!(run.start, next, "runs tile the list");
            assert!(run.end > run.start, "runs are non-empty");
            if i > 0 {
                assert_ne!(program.runs[i - 1].kind, run.kind, "runs are maximal");
            }
            assert_eq!(run.pin_start, pins.len());
            let mut run_pins = Vec::new();
            for &cell in &cells[run.start as usize..run.end as usize] {
                assert_eq!(flat.cell_kind(cell), run.kind);
                run_pins.extend_from_slice(flat.cell_inputs(cell));
                run_pins.push(flat.cell_output(cell));
            }
            assert_eq!(program.pins(run), &run_pins[..]);
            for (i, inputs, output) in program.cells(run) {
                assert_eq!(inputs, flat.cell_inputs(cells[i]));
                assert_eq!(output, flat.cell_output(cells[i]));
            }
            pins.extend(run_pins);
            next = run.end;
        }
        assert_eq!(next as usize, cells.len());
        assert_eq!(program.pins, pins);
    }

    #[test]
    fn kind_runs_tile_both_lists_with_inline_pins() {
        use crate::generate::{CircuitSpec, GateSpec, GENERATOR_KINDS};
        let mut seed = 7u32;
        let mut next = || {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 16) as u16
        };
        let spec = CircuitSpec {
            name: "runs".into(),
            inputs: 4,
            gates: (0..90)
                .map(|g| GateSpec {
                    kind: GENERATOR_KINDS[(g * 7) % GENERATOR_KINDS.len()],
                    operands: vec![next(), next(), next()],
                })
                .collect(),
            ff_d: (0..12).map(|_| next()).collect(),
            outputs: 3,
        };
        let flat = spec.flatten().unwrap();
        let lv = flat.levelize().unwrap();
        assert!(!lv.order.is_empty() && !lv.sequential.is_empty());
        assert_compiled(&flat, &lv.order, &lv.order_runs);
        assert_compiled(&flat, &lv.sequential, &lv.sequential_runs);
        // Cells of one kind at one depth share a run, so a depth holds at
        // most one run per kind.
        let mut seen = std::collections::HashSet::new();
        for run in &lv.order_runs.runs {
            let depth = lv.cell_depth[lv.order[run.start as usize].index()];
            assert!(seen.insert((depth, run.kind)), "{depth} {}", run.kind);
        }
    }

    #[test]
    fn levelize_detects_loop() {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("looped");
        let a = mb.port("a", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        let w = mb.net("w");
        mb.cell("u0", CellKind::And2, &[a, y], &[w]).unwrap();
        mb.cell("u1", CellKind::Buf, &[w], &[y]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        let flat = design.flatten().unwrap();
        assert!(matches!(
            flat.levelize().unwrap_err(),
            NetlistError::CombinationalLoop(_)
        ));
    }

    #[test]
    fn sequential_cells_break_loops() {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("toggler");
        let clk = mb.port("clk", PortDir::Input);
        let q = mb.port("q", PortDir::Output);
        let nq = mb.net("nq");
        mb.cell("u_inv", CellKind::Inv, &[q], &[nq]).unwrap();
        mb.cell("u_ff", CellKind::Dff, &[clk, nq], &[q]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        let flat = design.flatten().unwrap();
        let lv = flat.levelize().unwrap();
        assert_eq!(lv.order.len(), 1); // just the inverter
        assert_eq!(lv.max_depth, 0);
        assert_eq!(lv.sequential, vec![flat.cell_by_name("u_ff").unwrap()]);
    }

    #[test]
    fn checked_id_rejects_id_space_exhaustion() {
        assert_eq!(checked_id(0, "cells").unwrap(), 0);
        assert_eq!(checked_id(41, "cells").unwrap(), 41);
        assert_eq!(
            checked_id((u32::MAX - 2) as usize, "cells").unwrap(),
            u32::MAX - 2
        );
        // The two top values are reserved for driver-encoding sentinels.
        assert_eq!(
            checked_id((u32::MAX - 1) as usize, "cells").unwrap_err(),
            NetlistError::TooLarge { what: "cells" }
        );
        assert_eq!(
            checked_id(u32::MAX as usize, "nets").unwrap_err(),
            NetlistError::TooLarge { what: "nets" }
        );
        assert_eq!(
            checked_id(usize::MAX, "nets").unwrap_err(),
            NetlistError::TooLarge { what: "nets" }
        );
    }

    #[test]
    fn too_large_error_displays_the_overflowing_column() {
        let err = checked_id(usize::MAX, "cells").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cells"), "{msg}");
        assert!(msg.contains("32-bit"), "{msg}");
    }

    #[test]
    fn name_arena_round_trips() {
        let mut arena = NameArena::default();
        let a = arena.intern("u_inv").unwrap();
        let b = arena.intern("").unwrap();
        let c = arena.intern("u_ff").unwrap();
        assert_eq!(arena.resolve(a), "u_inv");
        assert_eq!(arena.resolve(b), "");
        assert_eq!(arena.resolve(c), "u_ff");
        assert_eq!(arena.len(), 3);
    }

    #[test]
    fn mutation_invalidates_lazy_lookup() {
        let mut flat = hierarchical_design().flatten().unwrap();
        assert!(flat.cell_by_name("u_or").is_some()); // builds the table
        let fresh = flat.add_net("fresh_net".to_owned());
        assert_eq!(flat.net_by_name("fresh_net"), Some(fresh));
        let path = flat.cell(flat.cell_by_name("u_or").unwrap()).path;
        let id = flat
            .add_cell(
                "u_extra".to_owned(),
                path,
                CellKind::Buf,
                &[flat.net_by_name("s0").unwrap()],
                fresh,
            )
            .unwrap();
        assert_eq!(flat.cell_by_name("u_extra"), Some(id));
    }

    #[test]
    fn edits_drop_the_cached_levelization() {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("top");
        let clk = mb.port("clk", PortDir::Input);
        let a = mb.port("a", PortDir::Input);
        let q = mb.port("q", PortDir::Output);
        let y = mb.port("y", PortDir::Output);
        let nq = mb.net("nq");
        let d = mb.net("d");
        mb.cell("u_ff", CellKind::Dff, &[clk, d], &[q]).unwrap();
        mb.cell("u_inv", CellKind::Inv, &[q], &[nq]).unwrap();
        mb.cell("u_and", CellKind::And2, &[nq, a], &[d]).unwrap();
        mb.cell("u_buf", CellKind::Buf, &[d], &[y]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();

        // `cached` meets every edit with a filled cache; `fresh` is never
        // levelized, so a clone of it levelizes from scratch.
        let mut cached = design.flatten().unwrap();
        let mut fresh = design.flatten().unwrap();
        let ff = cached.cell_by_name("u_ff").unwrap();
        let inv = cached.cell_by_name("u_inv").unwrap();
        let root = cached.cell(inv).path;
        let nq = cached.net_by_name("nq").unwrap();
        let a = cached.net_by_name("a").unwrap();
        let extra = NetId(cached.num_nets() as u32);
        let moved = NetId(extra.0 + 1);
        let edits: [&dyn Fn(&mut FlatNetlist); 6] = [
            &|nl| assert_eq!(nl.add_net("extra".into()), extra),
            &|nl| {
                nl.add_cell("u_extra".into(), root, CellKind::Xor2, &[nq, a], extra)
                    .unwrap();
            },
            &|nl| assert_eq!(nl.add_net("moved".into()), moved),
            &|nl| assert_eq!(nl.retarget_output(inv, moved).unwrap(), nq),
            &|nl| assert_eq!(nl.tmr_harden(&[ff]).unwrap().added_cells, 6),
            &|nl| assert_eq!(nl.ff_harden(&[ff]).hardened, vec![ff]),
        ];
        for (step, edit) in edits.iter().enumerate() {
            let before = cached.levelize().unwrap().clone();
            edit(&mut cached);
            edit(&mut fresh);
            let after = fresh.clone().levelize().unwrap().clone();
            assert_eq!(cached.levelize().unwrap(), &after, "edit {step}");
            if step == 3 {
                // Moving a driver changes the levelization.
                assert_ne!(before, after);
            }
        }
        assert_eq!(cached.levelize().unwrap().sequential.len(), 3);
    }
}
