//! Campaign-as-a-service for SSRESF: process-sharded campaign execution
//! with a content-addressed artifact cache.
//!
//! The crate adds two layers on top of the core campaign engine:
//!
//! - **Artifact cache** ([`ArtifactCache`]): a filesystem store addressed
//!   by [`ContentHash`](ssresf_netlist::ContentHash) keys derived from the
//!   netlist content, the campaign config and the seed
//!   ([`key`]). It memoizes merged campaign outcomes, so a repeated job
//!   does no simulation work. Only the coordinator reads or writes it;
//!   every shard simulates its own golden run, which costs less than
//!   reading a stored one back. Hits, misses, evictions and stored bytes
//!   surface through the existing telemetry registry.
//! - **Process-sharded executor** ([`serve_campaign`]): a coordinator
//!   that splits the injection list into contiguous shards, runs each in
//!   a worker *process* (`ssresf-serve worker` children speaking
//!   length-prefixed JSON frames over stdin/stdout — [`frame`]), streams
//!   heartbeats upstream, supports cancellation and an append-only
//!   replayable job log ([`joblog`]), and merges the shard records
//!   deterministically — byte-identical to a single-process
//!   [`run_campaign_with`](ssresf::run_campaign_with), which conformance
//!   check 10 asserts.
//!
//! # Example (in-process sharding with a cache)
//!
//! ```
//! use ssresf_serve::{serve_campaign, CacheConfig, JobSpec, NetlistSpec, ServeOptions};
//! use ssresf_serve::key::smoke_circuit;
//! use ssresf::CampaignConfig;
//! use ssresf_netlist::CellId;
//!
//! # fn main() -> Result<(), String> {
//! let netlist = NetlistSpec::Circuit(smoke_circuit("doc"));
//! let flat = netlist.build()?;
//! let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
//! let spec = JobSpec {
//!     netlist,
//!     cells,
//!     config: CampaignConfig { threads: 1, ..CampaignConfig::default() },
//! };
//! let outcome = serve_campaign(&spec, &ServeOptions::new(2))?;
//! assert!(!outcome.records.is_empty());
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod codec;
pub mod coordinator;
pub mod frame;
pub mod joblog;
pub mod key;
pub mod worker;

pub use cache::{ArtifactCache, NS_CAMPAIGN};
pub use coordinator::{serve_campaign, CacheConfig, ServeOptions};
pub use frame::{read_frame, write_frame, Message};
pub use joblog::{replay, JobLog};
pub use key::{campaign_key, soc_presets, JobSpec, NetlistSpec};
pub use worker::{run_shard_local, run_worker, ShardError};
