//! Hierarchical gate-level designs.
//!
//! A [`Design`] holds a set of [`Module`]s. Each module contains single-bit
//! nets, primitive [`Cell`]s referencing the [`CellKind`] library, and
//! [`Instance`]s of other modules. Modules are built with
//! [`ModuleBuilder`], which enforces name uniqueness and pin arity at
//! construction time.

use crate::cell::CellKind;
use crate::error::NetlistError;
use crate::{LocalNetId, ModuleId};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Driven from outside the module.
    Input,
    /// Driven from inside the module.
    Output,
}

/// A single-bit module port bound to a local net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name (also the name of the bound net).
    pub name: String,
    /// Direction as seen from inside the module.
    pub dir: PortDir,
    /// The local net carrying the port value.
    pub net: LocalNetId,
}

/// A primitive cell instance inside a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Instance name, unique within the module.
    pub name: String,
    /// Library cell kind.
    pub kind: CellKind,
    /// Input nets in the kind's canonical pin order.
    pub inputs: Vec<LocalNetId>,
    /// The net driven by the cell's output pin.
    pub output: LocalNetId,
}

/// An instance of another module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Instance name, unique within the module.
    pub name: String,
    /// The instantiated module.
    pub module: ModuleId,
    /// Parent nets bound to the module's ports, in port order.
    pub connections: Vec<LocalNetId>,
}

/// A module definition: ports, nets, primitive cells and submodule instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// Module name, unique within the design.
    pub name: String,
    /// Ports in declaration order.
    pub ports: Vec<Port>,
    /// Net names, indexed by [`LocalNetId`].
    pub nets: Vec<String>,
    /// Primitive cells.
    pub cells: Vec<Cell>,
    /// Submodule instances.
    pub instances: Vec<Instance>,
}

impl Module {
    /// Number of primitive cells directly in this module (not descendants).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    fn item_name(&self, item: Item) -> &str {
        match item {
            Item::Cell(i) => &self.cells[i as usize].name,
            Item::Instance(i) => &self.instances[i as usize].name,
        }
    }
}

/// Hasher for keys that already are mixed 64-bit hashes: it passes the
/// key through unchanged.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("name tables are keyed by u64 hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Index-only name table: maps each name's hash to the carrier (a net, a
/// cell or an instance) that holds the name, without storing the string.
/// Hashes come from a randomly keyed SipHash (see [`ModuleBuilder`]), so
/// names read from a file cannot be chosen to pile into one bucket.
/// Every hit is confirmed against the carrier's own name, so two names
/// with one hash stay distinct: the first keeps the hash slot and later
/// ones go to `spill`, which stays empty unless two names share all 64
/// hash bits.
#[derive(Debug)]
struct NameTable<V> {
    by_hash: HashMap<u64, V, BuildHasherDefault<PassThrough>>,
    spill: HashMap<String, V>,
}

impl<V> Default for NameTable<V> {
    fn default() -> Self {
        NameTable {
            by_hash: HashMap::default(),
            spill: HashMap::new(),
        }
    }
}

impl<V: Copy> NameTable<V> {
    /// The carrier of `name`, whose hash is `hash`. When no carrier has the
    /// name yet, records `fresh` as its carrier and returns `None`.
    /// `is_named(v)` tells whether carrier `v` is called `name`.
    fn get_or_insert(
        &mut self,
        hash: u64,
        name: &str,
        fresh: V,
        is_named: impl Fn(V) -> bool,
    ) -> Option<V> {
        match self.by_hash.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(fresh);
                None
            }
            Entry::Occupied(slot) if is_named(*slot.get()) => Some(*slot.get()),
            Entry::Occupied(_) => match self.spill.get(name) {
                Some(&v) => Some(v),
                None => {
                    self.spill.insert(name.to_owned(), fresh);
                    None
                }
            },
        }
    }
}

/// A cell or an instance, by index: the two share one namespace.
#[derive(Debug, Clone, Copy)]
enum Item {
    Cell(u32),
    Instance(u32),
}

/// Incremental builder for a [`Module`].
///
/// Its name tables hold indices into the module under construction, not
/// copies of the names, so each name is stored once.
///
/// # Example
///
/// ```
/// use ssresf_netlist::{CellKind, ModuleBuilder, PortDir};
///
/// # fn main() -> Result<(), ssresf_netlist::NetlistError> {
/// let mut mb = ModuleBuilder::new("inverter");
/// let a = mb.port("a", PortDir::Input);
/// let y = mb.port("y", PortDir::Output);
/// mb.cell("u0", CellKind::Inv, &[a], &[y])?;
/// let module = mb.finish();
/// assert_eq!(module.cell_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
    /// Hashes each name once per call, for both tables.
    hasher: RandomState,
    net_names: NameTable<LocalNetId>,
    item_names: NameTable<Item>,
    anon_counter: u32,
}

impl ModuleBuilder {
    /// Starts building a module called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            module: Module {
                name: name.into(),
                ports: Vec::new(),
                nets: Vec::new(),
                cells: Vec::new(),
                instances: Vec::new(),
            },
            hasher: RandomState::new(),
            net_names: NameTable::default(),
            item_names: NameTable::default(),
            anon_counter: 0,
        }
    }

    /// Declares a port, creating (or reusing) the net of the same name.
    pub fn port(&mut self, name: impl Into<String>, dir: PortDir) -> LocalNetId {
        let name = name.into();
        let net = self.net(name.clone());
        self.module.ports.push(Port { name, dir, net });
        net
    }

    /// Returns the net called `name`, creating it if necessary.
    pub fn net(&mut self, name: impl Into<String>) -> LocalNetId {
        let name = name.into();
        let hash = self.hasher.hash_one(&name);
        self.intern_net(name, hash).0
    }

    /// The net called `name` (hash `hash`), and whether this call created
    /// it.
    fn intern_net(&mut self, name: String, hash: u64) -> (LocalNetId, bool) {
        let fresh = LocalNetId(self.module.nets.len() as u32);
        let nets = &self.module.nets;
        match self
            .net_names
            .get_or_insert(hash, &name, fresh, |id| nets[id.index()] == name)
        {
            Some(id) => (id, false),
            None => {
                self.module.nets.push(name);
                (fresh, true)
            }
        }
    }

    /// Creates a fresh uniquely named net with the given prefix.
    pub fn fresh_net(&mut self, prefix: &str) -> LocalNetId {
        loop {
            let candidate = format!("{prefix}_{}", self.anon_counter);
            self.anon_counter += 1;
            let hash = self.hasher.hash_one(&candidate);
            if let (id, true) = self.intern_net(candidate, hash) {
                return id;
            }
        }
    }

    /// Records `name` (hash `hash`) as the name of `item`, the cell or
    /// instance about to be pushed; `false` when a cell or instance already
    /// has it.
    fn claim_item(&mut self, name: &str, hash: u64, item: Item) -> bool {
        let module = &self.module;
        self.item_names
            .get_or_insert(hash, name, item, |held| module.item_name(held) == name)
            .is_none()
    }

    /// Adds a primitive cell.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PinArity`] when the connection counts don't
    /// match `kind`, and [`NetlistError::DuplicateName`] for a reused
    /// instance name.
    pub fn cell(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        inputs: &[LocalNetId],
        outputs: &[LocalNetId],
    ) -> Result<(), NetlistError> {
        let name = name.into();
        let hash = self.hasher.hash_one(&name);
        self.add_cell(name, hash, kind, inputs, outputs)
    }

    fn add_cell(
        &mut self,
        name: String,
        hash: u64,
        kind: CellKind,
        inputs: &[LocalNetId],
        outputs: &[LocalNetId],
    ) -> Result<(), NetlistError> {
        if inputs.len() != kind.num_inputs() || outputs.len() != 1 {
            return Err(NetlistError::PinArity {
                cell: name,
                kind: kind.name(),
                expected: (kind.num_inputs(), 1),
                got: (inputs.len(), outputs.len()),
            });
        }
        let cell = Item::Cell(self.module.cells.len() as u32);
        if !self.claim_item(&name, hash, cell) {
            return Err(NetlistError::DuplicateName(name));
        }
        self.module.cells.push(Cell {
            name,
            kind,
            inputs: inputs.to_vec(),
            output: outputs[0],
        });
        Ok(())
    }

    /// Adds an instance of `module`, whose port list the caller must match
    /// positionally with `connections`.
    ///
    /// Arity against the actual module definition is validated by
    /// [`Design::add_module`], since the builder does not have access to
    /// other modules.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] for a reused instance name.
    pub fn instance(
        &mut self,
        name: impl Into<String>,
        module: ModuleId,
        connections: &[LocalNetId],
    ) -> Result<(), NetlistError> {
        let name = name.into();
        let instance = Item::Instance(self.module.instances.len() as u32);
        let hash = self.hasher.hash_one(&name);
        if !self.claim_item(&name, hash, instance) {
            return Err(NetlistError::DuplicateName(name));
        }
        self.module.instances.push(Instance {
            name,
            module,
            connections: connections.to_vec(),
        });
        Ok(())
    }

    /// Name of the module being built.
    pub fn name(&self) -> &str {
        &self.module.name
    }

    /// Finishes and returns the module.
    pub fn finish(self) -> Module {
        self.module
    }
}

/// A complete hierarchical design: a set of modules plus a designated top.
#[derive(Debug, Clone, Default)]
pub struct Design {
    modules: Vec<Module>,
    by_name: HashMap<String, ModuleId>,
    top: Option<ModuleId>,
}

impl Design {
    /// Creates an empty design.
    pub fn new() -> Self {
        Design::default()
    }

    /// Adds a module, validating its instance connections against modules
    /// already present (hierarchies must therefore be added bottom-up).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if a module of the same name
    /// exists or two ports share a name, [`NetlistError::UnknownModule`] /
    /// [`NetlistError::PortMismatch`] for bad instance references.
    pub fn add_module(&mut self, module: Module) -> Result<ModuleId, NetlistError> {
        if self.by_name.contains_key(&module.name) {
            return Err(NetlistError::DuplicateName(module.name));
        }
        let mut port_names = HashSet::with_capacity(module.ports.len());
        if let Some(port) = module.ports.iter().find(|p| !port_names.insert(&p.name)) {
            return Err(NetlistError::DuplicateName(port.name.clone()));
        }
        for inst in &module.instances {
            let target = self
                .modules
                .get(inst.module.index())
                .ok_or_else(|| NetlistError::UnknownModule(format!("#{}", inst.module.0)))?;
            if target.ports.len() != inst.connections.len() {
                return Err(NetlistError::PortMismatch {
                    instance: inst.name.clone(),
                    module: target.name.clone(),
                    ports: target.ports.len(),
                    connections: inst.connections.len(),
                });
            }
        }
        let id = ModuleId(self.modules.len() as u32);
        self.by_name.insert(module.name.clone(), id);
        self.modules.push(module);
        Ok(id)
    }

    /// Declares `id` as the top module.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownModule`] for an id not in this design.
    pub fn set_top(&mut self, id: ModuleId) -> Result<(), NetlistError> {
        if id.index() >= self.modules.len() {
            return Err(NetlistError::UnknownModule(format!("#{}", id.0)));
        }
        self.top = Some(id);
        Ok(())
    }

    /// The top module id, if set.
    pub fn top(&self) -> Option<ModuleId> {
        self.top
    }

    /// Resolves a module id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this design.
    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.index()]
    }

    /// Looks a module up by name.
    pub fn module_by_name(&self, name: &str) -> Option<ModuleId> {
        self.by_name.get(name).copied()
    }

    /// All modules, in insertion (bottom-up) order.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverter_module() -> Module {
        let mut mb = ModuleBuilder::new("inverter");
        let a = mb.port("a", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        mb.cell("u0", CellKind::Inv, &[a], &[y]).unwrap();
        mb.finish()
    }

    #[test]
    fn builder_reuses_named_nets() {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.net("w");
        let b = mb.net("w");
        assert_eq!(a, b);
        let c = mb.net("x");
        assert_ne!(a, c);
    }

    #[test]
    fn fresh_net_never_collides() {
        let mut mb = ModuleBuilder::new("m");
        mb.net("t_0");
        let n = mb.fresh_net("t");
        let module = mb.finish();
        assert_ne!(module.nets[n.index()], "t_0");
    }

    #[test]
    fn cell_arity_is_checked() {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.net("a");
        let y = mb.net("y");
        let err = mb.cell("u0", CellKind::Nand2, &[a], &[y]).unwrap_err();
        assert!(matches!(err, NetlistError::PinArity { .. }));
    }

    #[test]
    fn duplicate_cell_name_rejected() {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.net("a");
        let y = mb.net("y");
        let z = mb.net("z");
        mb.cell("u0", CellKind::Inv, &[a], &[y]).unwrap();
        let err = mb.cell("u0", CellKind::Inv, &[a], &[z]).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("u0".into()));
    }

    #[test]
    fn cells_and_instances_share_one_namespace() {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.net("a");
        let y = mb.net("y");
        mb.cell("u0", CellKind::Inv, &[a], &[y]).unwrap();
        let err = mb.instance("u0", ModuleId(0), &[a]).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("u0".into()));
        mb.instance("u1", ModuleId(0), &[a]).unwrap();
        let err = mb.cell("u1", CellKind::Inv, &[a], &[y]).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("u1".into()));
        let module = mb.finish();
        assert_eq!(module.cells.len(), 1);
        assert_eq!(module.instances.len(), 1);
    }

    #[test]
    fn net_ids_survive_table_growth() {
        let mut mb = ModuleBuilder::new("m");
        let names: Vec<String> = (0..20_000).map(|i| format!("n_{i}")).collect();
        let ids: Vec<LocalNetId> = names.iter().map(|n| mb.net(n.as_str())).collect();
        for (i, (name, &id)) in names.iter().zip(&ids).enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(mb.net(name.as_str()), id, "{name}");
        }
        assert_eq!(mb.finish().nets, names);
    }

    #[test]
    fn generated_names_skip_explicit_ones() {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.net("a");
        let t0 = mb.net("t_0");
        let t1 = mb.net("t_1");
        let fresh = mb.fresh_net("t");
        assert!(![a, t0, t1].contains(&fresh));
        let module = mb.finish();
        assert_eq!(module.nets[fresh.index()], "t_2");
    }

    #[test]
    fn colliding_hashes_keep_names_apart() {
        // Every name below is probed with one forced hash value, so the
        // tables must tell them apart by comparing strings.
        const HASH: u64 = 7;
        let mut mb = ModuleBuilder::new("m");
        let (a, created_a) = mb.intern_net("a".into(), HASH);
        let (b, created_b) = mb.intern_net("b".into(), HASH);
        let (c, created_c) = mb.intern_net("c".into(), HASH);
        assert!(created_a && created_b && created_c);
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
        assert_eq!(mb.intern_net("a".into(), HASH), (a, false));
        assert_eq!(mb.intern_net("b".into(), HASH), (b, false));
        assert_eq!(mb.intern_net("c".into(), HASH), (c, false));

        mb.add_cell("u0".into(), HASH, CellKind::Inv, &[a], &[b])
            .unwrap();
        mb.add_cell("u1".into(), HASH, CellKind::Inv, &[a], &[c])
            .unwrap();
        for name in ["u0", "u1"] {
            let err = mb
                .add_cell(name.into(), HASH, CellKind::Inv, &[a], &[c])
                .unwrap_err();
            assert_eq!(err, NetlistError::DuplicateName(name.into()));
        }
        let module = mb.finish();
        assert_eq!(module.nets, ["a", "b", "c"]);
        assert_eq!(module.cells.len(), 2);
    }

    #[test]
    fn design_rejects_duplicate_port_names() {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.port("a", PortDir::Input);
        let again = mb.port("a", PortDir::Input);
        assert_eq!(a, again);
        let y = mb.port("y", PortDir::Output);
        mb.cell("u0", CellKind::Inv, &[a], &[y]).unwrap();
        let err = Design::new().add_module(mb.finish()).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("a".into()));
    }

    #[test]
    fn design_rejects_duplicate_module_names() {
        let mut design = Design::new();
        design.add_module(inverter_module()).unwrap();
        let err = design.add_module(inverter_module()).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("inverter".into()));
    }

    #[test]
    fn design_rejects_port_mismatch() {
        let mut design = Design::new();
        let inv = design.add_module(inverter_module()).unwrap();
        let mut mb = ModuleBuilder::new("top");
        let a = mb.port("a", PortDir::Input);
        mb.instance("u_inv", inv, &[a]).unwrap();
        let err = design.add_module(mb.finish()).unwrap_err();
        assert!(matches!(err, NetlistError::PortMismatch { .. }));
    }

    #[test]
    fn lookup_by_name() {
        let mut design = Design::new();
        let id = design.add_module(inverter_module()).unwrap();
        assert_eq!(design.module_by_name("inverter"), Some(id));
        assert_eq!(design.module_by_name("missing"), None);
        assert_eq!(design.module(id).name, "inverter");
    }

    #[test]
    fn set_top_validates_id() {
        let mut design = Design::new();
        assert!(design.set_top(ModuleId(0)).is_err());
        let id = design.add_module(inverter_module()).unwrap();
        design.set_top(id).unwrap();
        assert_eq!(design.top(), Some(id));
    }
}
