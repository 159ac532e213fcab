//! Single-particle radiation physics for SSRESF.
//!
//! This crate models everything between the particle environment and the
//! logic-level faults injected by [`ssresf_sim`]:
//!
//! - [`Let`] (linear energy transfer) and [`Flux`] newtypes,
//! - [`WeibullCurve`] cross-section curves per cell
//!   [`RadiationClass`](ssresf_netlist::RadiationClass),
//! - the [`SoftErrorDatabase`] of per-cell-kind SET/SEU cross-sections at
//!   calibration LET points (the paper's Fig. 3 database, persisted as JSON),
//! - a SET [pulse-width model](pulse::PulseWidthModel),
//! - [`FluxCampaign`] — Poisson-arrival fault generation over a netlist for
//!   a given environment and exposure window.
//!
//! # Example
//!
//! ```
//! use ssresf_radiation::{Let, SoftErrorDatabase};
//! use ssresf_netlist::CellKind;
//!
//! let db = SoftErrorDatabase::standard();
//! let seu = db.seu_cross_section(CellKind::SramBit, Let::new(37.0));
//! let hardened = db.seu_cross_section(CellKind::RadHardBit, Let::new(37.0));
//! assert!(seu > 100.0 * hardened); // rad-hard cells are far less sensitive
//! ```

pub mod campaign;
pub mod database;
pub mod environment;
pub mod error;
pub mod mission;
pub mod particle;
pub mod pulse;
pub mod spectrum;
pub mod units;
pub mod weibull;

pub use campaign::{stream_seed, FluxCampaign, FluxCampaignConfig, GeneratedFault};
pub use database::{DatabaseEntry, LetPoint, SoftErrorDatabase, CALIBRATION_LETS};
pub use environment::RadiationEnvironment;
pub use error::RadiationError;
pub use mission::{MissionProfile, MissionSegment};
pub use particle::{ParticleEnvironment, ParticleKind};
pub use pulse::PulseWidthModel;
pub use spectrum::{LetSpectrum, SpectrumBin};
pub use units::{Area, Flux, Let};
pub use weibull::WeibullCurve;
