//! Gate-level logic simulation for the SSRESF radiation-effects framework.
//!
//! Two independently implemented engines share one [`Engine`] interface:
//!
//! - [`EventDrivenEngine`] — a four-state event-driven simulator with unit
//!   gate delays and sub-cycle timing, standing in for the commercial
//!   Synopsys VCS simulator the paper uses;
//! - [`LevelizedEngine`] — a cycle-accurate, compiled-style oblivious
//!   simulator, standing in for OSS-CVC.
//!
//! Golden (fault-free) runs of the two engines agree cycle-for-cycle, which
//! the integration tests verify; their differing treatment of sub-cycle SET
//! pulses mirrors the accuracy/performance trade-off between the paper's two
//! simulators.
//!
//! Fault injection ([`Fault`], [`SetFault`], [`SeuFault`]) plays the role of
//! the paper's VPI-driven force/release interface, and [`vcd`] implements the
//! VCD dump/compare loop used for soft-error detection.
//!
//! # Example
//!
//! ```
//! use ssresf_netlist::{CellKind, Design, ModuleBuilder, PortDir};
//! use ssresf_sim::{Engine, EventDrivenEngine, Logic, Testbench};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 1-bit toggler with an active-low reset.
//! let mut design = Design::new();
//! let mut mb = ModuleBuilder::new("toggler");
//! let clk = mb.port("clk", PortDir::Input);
//! let rst_n = mb.port("rst_n", PortDir::Input);
//! let q = mb.port("q", PortDir::Output);
//! let nq = mb.net("nq");
//! mb.cell("u_inv", CellKind::Inv, &[q], &[nq])?;
//! mb.cell("u_ff", CellKind::Dffr, &[clk, nq, rst_n], &[q])?;
//! let id = design.add_module(mb.finish())?;
//! design.set_top(id)?;
//! let flat = design.flatten()?;
//!
//! let clk_net = flat.net_by_name("clk").unwrap();
//! let engine = EventDrivenEngine::new(&flat, clk_net)?;
//! let mut tb = Testbench::new(engine);
//! let trace = tb.run(2, 4);
//! // After reset the toggler alternates 1, 0, 1, 0.
//! assert_eq!(trace.rows[0][0], Logic::One);
//! assert_eq!(trace.rows[1][0], Logic::Zero);
//! # Ok(())
//! # }
//! ```

pub mod bitparallel;
mod codec;
pub mod engine;
pub mod error;
pub mod eval;
pub mod event;
pub mod inject;
pub mod levelized;
pub mod oracle;
pub mod testbench;
pub mod trace;
pub mod value;
pub mod vcd;

pub use bitparallel::{
    BitParallelEngine, LaneMask, LaneWord, LANES, SUPPORTED_LANE_COUNTS, WORD_LANES,
};
pub use engine::{Engine, EngineState, EngineTelemetry};
pub use error::SimError;
pub use eval::{disturb, eval_comb, eval_comb_with_mutant, EvalMutant};
pub use event::{EventDrivenEngine, EventDrivenState};
pub use inject::{Fault, Force, SetFault, SeuFault};
pub use levelized::{LevelizedEngine, LevelizedState};
pub use oracle::{OracleEngine, OracleState};
pub use testbench::{drive_random_inputs, Lfsr, Testbench};
pub use trace::{CycleTrace, Divergence, WaveSignal, WaveTrace};
pub use value::Logic;
