//! Gate-level netlist substrate for the SSRESF radiation-effects framework.
//!
//! This crate provides everything SSRESF needs to represent and manipulate
//! gate-level circuits:
//!
//! - a [`CellKind`] standard-cell library (combinational gates, flip-flops,
//!   latches and memory bit cells) with per-cell radiation classes,
//! - a hierarchical [`Design`] made of [`Module`]s, primitive [`Cell`]s and
//!   submodule [`Instance`]s, built through [`ModuleBuilder`],
//! - elaboration into a [`FlatNetlist`] that records, for every cell, its
//!   hierarchical instance path — the raw material for the paper's
//!   Algorithm-1 clustering distance,
//! - a structural-Verilog [writer](verilog::write_verilog) and
//!   [parser](verilog::parse_verilog) for interchange,
//! - [levelization](flat::FlatNetlist::levelize) and structural
//!   [feature extraction](features) feeding the SVM classifier.
//!
//! # Example
//!
//! ```
//! use ssresf_netlist::{CellKind, Design, ModuleBuilder, PortDir};
//!
//! # fn main() -> Result<(), ssresf_netlist::NetlistError> {
//! let mut design = Design::new();
//! let mut mb = ModuleBuilder::new("toggler");
//! let clk = mb.port("clk", PortDir::Input);
//! let q = mb.port("q", PortDir::Output);
//! let nq = mb.net("nq");
//! mb.cell("u_inv", CellKind::Inv, &[q], &[nq])?;
//! mb.cell("u_ff", CellKind::Dff, &[clk, nq], &[q])?;
//! let top = design.add_module(mb.finish())?;
//! design.set_top(top)?;
//! let flat = design.flatten()?;
//! assert_eq!(flat.cells().len(), 2);
//! # Ok(())
//! # }
//! ```

pub mod cell;
pub mod design;
pub mod error;
pub mod features;
pub mod flat;
pub mod generate;
pub mod harden;
pub mod hash;
pub mod path;
pub mod stats;
pub mod verilog;

pub use cell::{CellKind, RadiationClass};
pub use design::{Cell, Design, Instance, Module, ModuleBuilder, Port, PortDir};
pub use error::NetlistError;
pub use features::{
    CellFeatures, FeatureExtractor, ModuleClass, DEPTH_OBS_SATURATED, STRUCTURAL_FEATURE_NAMES,
};
pub use flat::{CellId, CellView, Driver, FlatNetlist, NetId, NetView};
pub use generate::{CircuitSpec, GateSpec, GENERATOR_KINDS};
pub use harden::{hardened_kind, HardeningReport};
pub use hash::{ContentHash, StableHasher};
pub use path::{HierPath, LayerSignatures, PathId, PathInterner, ABSENT_LAYER};
pub use stats::NetlistStats;

/// Identifier of a module within a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub(crate) u32);

impl ModuleId {
    /// Raw index of the module inside its design.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a net local to a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalNetId(pub(crate) u32);

impl LocalNetId {
    /// Raw index of the net inside its module.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
