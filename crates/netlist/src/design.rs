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
use std::collections::HashMap;

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

    /// Looks up a port index by name.
    pub fn port_index(&self, name: &str) -> Option<usize> {
        self.ports.iter().position(|p| p.name == name)
    }
}

/// Incremental builder for a [`Module`].
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
    net_names: HashMap<String, LocalNetId>,
    item_names: HashMap<String, ()>,
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
            net_names: HashMap::new(),
            item_names: HashMap::new(),
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
        if let Some(&id) = self.net_names.get(&name) {
            return id;
        }
        let id = LocalNetId(self.module.nets.len() as u32);
        self.net_names.insert(name.clone(), id);
        self.module.nets.push(name);
        id
    }

    /// Creates a fresh uniquely named net with the given prefix.
    pub fn fresh_net(&mut self, prefix: &str) -> LocalNetId {
        loop {
            let candidate = format!("{prefix}_{}", self.anon_counter);
            self.anon_counter += 1;
            if !self.net_names.contains_key(&candidate) {
                return self.net(candidate);
            }
        }
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
        if inputs.len() != kind.num_inputs() || outputs.len() != 1 {
            return Err(NetlistError::PinArity {
                cell: name,
                kind: kind.name(),
                expected: (kind.num_inputs(), 1),
                got: (inputs.len(), outputs.len()),
            });
        }
        if self.item_names.insert(name.clone(), ()).is_some() {
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

    /// Adds a primitive cell with an auto-generated unique name.
    pub fn auto_cell(
        &mut self,
        prefix: &str,
        kind: CellKind,
        inputs: &[LocalNetId],
        output: LocalNetId,
    ) -> Result<(), NetlistError> {
        let name = loop {
            let candidate = format!("{prefix}_{}", self.anon_counter);
            self.anon_counter += 1;
            if !self.item_names.contains_key(&candidate) {
                break candidate;
            }
        };
        self.cell(name, kind, inputs, &[output])
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
        if self.item_names.insert(name.clone(), ()).is_some() {
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
    /// exists, [`NetlistError::UnknownModule`] / [`NetlistError::PortMismatch`]
    /// for bad instance references.
    pub fn add_module(&mut self, module: Module) -> Result<ModuleId, NetlistError> {
        if self.by_name.contains_key(&module.name) {
            return Err(NetlistError::DuplicateName(module.name));
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

    /// Rebuilds the name lookup table (needed after deserialization).
    pub fn rebuild_lookup(&mut self) {
        self.by_name = self
            .modules
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.clone(), ModuleId(i as u32)))
            .collect();
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
