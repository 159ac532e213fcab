//! `serve_soc10`: one session against the campaign service.
//!
//! Op: with two `ssresf-serve worker` processes per job and a fresh
//! artifact cache, `serve_campaign` runs one cold brute-force job over all
//! 15,252 SoC_10 cells (levelized, 256-lane batches, 100 cycles, one thread
//! per worker), eight exact repeats of it (campaign-cache hits) and one
//! seed sweep (a golden-run hit with new injections).
//!
//! Why this workload: it is the only one that uses serve — the process
//! fleet, frames, shard merge, cache writes beside cache reads and the JSON
//! codec — and the ROADMAP's honest speed-up divides by a brute-force run,
//! which the cold job is. Eight of its ten jobs repeat earlier work, so it
//! also measures what a cache hit costs (netlist rebuild, content hash,
//! read, parse, decode). It runs no ML, no event-driven engine and no
//! active learning. A session lasts about two seconds because the cold job
//! and the sweep each inject every cell of a 15k-cell SoC.

use crate::trace::{span, Tracer};
use crate::{derive_seed, rate, Digest, OpOutput, Workload};
use ssresf::{
    merge_shard_outcomes, run_campaign_with, CampaignConfig, CampaignOutcome, Dut, EngineKind,
    Instrument, MetricsRegistry,
};
use ssresf_netlist::CellId;
use ssresf_serve::codec::{campaign_outcome_from_json, campaign_outcome_to_json};
use ssresf_serve::{
    campaign_key, run_shard_local, serve_campaign, ArtifactCache, CacheConfig, JobSpec,
    NetlistSpec, ServeOptions, NS_CAMPAIGN,
};
use ssresf_socgen::{build_soc, SocConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Index of SoC_10 in `SocConfig::table1()`.
const SOC_INDEX: usize = 9;
/// Worker processes (= shards) per job.
const WORKERS: usize = 2;
/// Exact repeats of the cold job per session.
const REPEATS: usize = 8;

#[derive(Clone, Copy, PartialEq)]
enum Job {
    Cold,
    Hit,
    Sweep,
}

impl Job {
    fn span(self) -> &'static str {
        match self {
            Job::Cold => "serve.job_cold",
            Job::Hit => "serve.job_hit",
            Job::Sweep => "serve.job_sweep",
        }
    }
}

pub struct Serve {
    soc: SocConfig,
    cold: JobSpec,
    sweep: JobSpec,
    /// Single-process `run_campaign_with` outcomes of `cold` and `sweep`.
    cold_reference: CampaignOutcome,
    sweep_reference: CampaignOutcome,
    worker_binary: PathBuf,
    cache_dir: PathBuf,
    sessions: u64,
    /// Counters of the last session, for `after_op`.
    last: Option<Session>,
}

/// What the pieces timed after a traced session report from it.
struct Session {
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes: f64,
    heartbeats: u64,
}

impl Serve {
    pub fn setup(seed: u64, threads: usize, work_dir: &Path) -> Result<Self, String> {
        // This commit's worker binary is built next to this one; without
        // it the session would silently fall back to in-process shards.
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
        let worker_binary = exe
            .parent()
            .ok_or("the binary has no parent directory")?
            .join("ssresf-serve");
        if !worker_binary.is_file() {
            return Err(format!(
                "worker binary {} is missing; build it with the benchmark",
                worker_binary.display()
            ));
        }

        let soc = SocConfig::table1()[SOC_INDEX].clone();
        let netlist = NetlistSpec::Soc {
            preset: soc.name.clone(),
        };
        let flat = netlist.build()?;
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let config = CampaignConfig {
            workload: ssresf::Workload {
                reset_cycles: 3,
                run_cycles: 100,
            },
            injections_per_cell: 1,
            seed: derive_seed(seed, 3),
            engine: EngineKind::Levelized,
            threads: 1,
            checkpoint_interval: 10,
            early_stop: false,
            batching: true,
            batch_lanes: 256,
            collapse_faults: true,
            lane_refill: true,
            ..CampaignConfig::default()
        };
        let cold = JobSpec {
            netlist: netlist.clone(),
            cells: cells.clone(),
            config,
        };
        let sweep = JobSpec {
            netlist,
            cells,
            config: CampaignConfig {
                seed: derive_seed(seed, 4),
                ..config
            },
        };
        let dut = Dut::from_conventions(&flat).map_err(|e| format!("dut: {e}"))?;
        let reference = |spec: &JobSpec| {
            let config = CampaignConfig {
                threads,
                ..spec.config
            };
            run_campaign_with(&dut, &spec.cells, &config, &Instrument::default())
                .map_err(|e| format!("reference campaign: {e}"))
        };
        Ok(Serve {
            soc,
            cold_reference: reference(&cold)?,
            sweep_reference: reference(&sweep)?,
            cold,
            sweep,
            worker_binary,
            cache_dir: work_dir.join("serve-cache"),
            sessions: 0,
            last: None,
        })
    }

    /// Times the public pieces of a job on their own, once per traced
    /// session, against the session's cache.
    fn pieces(
        &self,
        t: &Tracer,
        root: &Path,
        session: &Session,
    ) -> Result<BTreeMap<&'static str, f64>, String> {
        let spec = &self.cold;
        t.span("serve.netlist_build", || spec.netlist.build())?;
        let built = t
            .span("socgen.build", || build_soc(&self.soc))
            .map_err(|e| format!("build_soc: {e}"))?;
        let flat = t
            .span("netlist.flatten", || built.design.flatten())
            .map_err(|e| format!("flatten: {e}"))?;
        let hash = t.span("netlist.content_hash", || flat.content_hash());
        let key = campaign_key(hash, &spec.cells, &spec.config).to_hex();
        let cache = ArtifactCache::open(root, None, None)
            .map_err(|e| format!("cannot open {}: {e}", root.display()))?;
        let artifact = t
            .span("serve.cache_get", || cache.get(NS_CAMPAIGN, &key))
            .ok_or("the cold job's campaign artifact is not in the cache")?;
        let decoded = t.span("serve.decode", || campaign_outcome_from_json(&artifact))?;
        t.span("serve.encode", || campaign_outcome_to_json(&decoded));
        let metrics = MetricsRegistry::new();
        let hooks = Instrument::with_metrics(&metrics);
        let shards = (0..WORKERS)
            .map(|shard| {
                t.span("serve.shard", || {
                    run_shard_local(spec, shard, WORKERS, None, &hooks)
                })
                .map_err(|e| format!("shard {shard}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let merged = t
            .span("serve.merge", || merge_shard_outcomes(&shards))
            .map_err(|e| format!("merge: {e}"))?;
        if merged.records != self.cold_reference.records {
            return Err("merged local shards differ from the reference".into());
        }

        let times = t.self_times();
        let slowest =
            |f: &dyn Fn(&ssresf::ShardOutcome) -> f64| shards.iter().map(f).fold(0.0, f64::max);
        // The workers of a served job are its shard processes.
        let shard_times = t.durations("serve.shard");
        let shard_s = shard_times.iter().copied().fold(0.0, f64::max);
        let shard_total: f64 = shard_times.iter().sum();
        let mut layers: BTreeMap<&'static str, f64> = times
            .iter()
            .filter_map(|(name, &s)| crate::layer_time_metric(name).map(|m| (m, s)))
            .collect();
        let hits = layers.get("serve.job_hit_s").copied().unwrap_or(0.0);
        layers.insert("serve.job_hit_s", hits / REPEATS as f64);
        layers.insert("serve.shard_s", shard_s);
        let cold = layers.get("serve.job_cold_s").copied().unwrap_or(0.0);
        let fleet_wait = cold
            - shard_s
            - layers.get("serve.merge_s").copied().unwrap_or(0.0)
            - layers.get("serve.encode_s").copied().unwrap_or(0.0);
        // Counts come from the local two-shard run, which packs batches as
        // the served cold job does.
        let injections = merged.records.len() as f64;
        let per_injection = |v: u64| v as f64 / injections.max(1.0);
        let telemetry = &merged.telemetry;
        layers.extend([
            ("serve.fleet_wait_s", fleet_wait),
            (
                "campaign.golden_s",
                slowest(&|s| s.golden_time.as_secs_f64()),
            ),
            (
                "campaign.inject_s",
                slowest(&|s| s.outcome.simulation_time.as_secs_f64()),
            ),
            ("netlist.cells", flat.num_cells() as f64),
            ("campaign.injections", injections),
            ("campaign.work", merged.total_work as f64),
            (
                "campaign.work_per_injection",
                per_injection(merged.total_work - shards[0].golden_work),
            ),
            ("sim.word_evals", telemetry.engine.word_evals as f64),
            (
                "campaign.collapse_frac",
                per_injection(telemetry.collapsed_faults),
            ),
            ("campaign.lane_refills", telemetry.lane_refills as f64),
            (
                "campaign.checkpoint_restore_frac",
                per_injection(telemetry.checkpoint_restores),
            ),
            (
                "campaign.batch_occupancy",
                metrics
                    .histogram("campaign.batch_occupancy")
                    .map_or(0.0, |h| h.mean()),
            ),
            (
                "campaign.worker_imbalance",
                shard_s * shard_times.len() as f64 / shard_total,
            ),
            (
                "campaign.worker_idle_frac",
                1.0 - shard_total / (shard_s * shard_times.len() as f64),
            ),
            ("campaign.soft_errors", merged.soft_errors() as f64),
            (
                "serve.cache_hit_rate",
                rate(session.cache_hits, session.cache_misses),
            ),
            ("serve.cache_bytes", session.cache_bytes),
            ("serve.heartbeats", session.heartbeats as f64),
        ]);
        Ok(layers)
    }

    /// The fresh cache root of the current session.
    fn session_root(&self) -> PathBuf {
        self.cache_dir.join(format!("session-{}", self.sessions))
    }
}

impl Workload for Serve {
    fn op(&mut self, tracer: Option<&Tracer>) -> Result<OpOutput, String> {
        self.sessions += 1;
        self.last = None;
        let root = self.session_root();
        if root.exists() {
            std::fs::remove_dir_all(&root)
                .map_err(|e| format!("cannot clear {}: {e}", root.display()))?;
        }
        let metrics = MetricsRegistry::new();
        let options = ServeOptions {
            shard_count: WORKERS,
            worker_binary: Some(self.worker_binary.clone()),
            cache: Some(CacheConfig {
                root: root.clone(),
                max_bytes: None,
            }),
            metrics: Some(&metrics),
            progress: None,
            job_log: None,
            cancel: None,
        };
        let jobs = std::iter::once(Job::Cold)
            .chain(std::iter::repeat_n(Job::Hit, REPEATS))
            .chain(std::iter::once(Job::Sweep));
        let (mut equal, mut total, mut from_cache) = (0usize, 0usize, 0usize);
        let mut digest = Digest::default();
        for job in jobs {
            let (spec, reference) = match job {
                Job::Sweep => (&self.sweep, &self.sweep_reference),
                Job::Cold | Job::Hit => (&self.cold, &self.cold_reference),
            };
            let outcome = span(tracer, job.span(), || serve_campaign(spec, &options))?;
            if metrics.gauge("shard.count") == Some(0.0) {
                from_cache += 1;
            }
            if outcome.golden != reference.golden {
                return Err("a served golden run differs from the reference".into());
            }
            total += reference.records.len().max(outcome.records.len());
            equal += outcome
                .records
                .iter()
                .zip(&reference.records)
                .filter(|(a, b)| a == b)
                .count();
            if job != Job::Hit {
                digest.records(&outcome.records);
            }
        }
        let accuracy = equal as f64 / total.max(1) as f64;
        if equal != total {
            return Err(format!(
                "{equal} of {total} served records equal the reference"
            ));
        }
        let (hits, misses) = (
            metrics.counter("cache.hits"),
            metrics.counter("cache.misses"),
        );
        self.last = Some(Session {
            cache_hits: hits,
            cache_misses: misses,
            cache_bytes: metrics.gauge("cache.bytes").unwrap_or(0.0),
            heartbeats: metrics.counter("serve.heartbeats"),
        });
        let jobs = REPEATS + 2;
        Ok(OpOutput {
            digest: digest.finish(),
            records: self.cold_reference.records.len() + self.sweep_reference.records.len(),
            soft_errors: self.cold_reference.soft_errors() + self.sweep_reference.soft_errors(),
            chip_ser: 0.0,
            accuracy,
            facts: vec![
                (
                    "repeat share",
                    format!(
                        "{from_cache} of {jobs} jobs served from the campaign cache; \
                         cache hits {hits}, misses {misses}"
                    ),
                ),
                ("served records checked", total.to_string()),
            ],
            layers: BTreeMap::new(),
        })
    }

    /// Times the job's pieces after a traced session, then removes the
    /// session's cache, also after a failed session.
    fn after_op(&mut self, tracer: Option<&Tracer>) -> Result<BTreeMap<&'static str, f64>, String> {
        let root = self.session_root();
        let layers = match (tracer, self.last.take()) {
            (Some(t), Some(session)) => self.pieces(t, &root, &session),
            _ => Ok(BTreeMap::new()),
        };
        if root.exists() {
            std::fs::remove_dir_all(&root)
                .map_err(|e| format!("cannot remove {}: {e}", root.display()))?;
        }
        layers
    }

    fn properties(&self) -> Vec<(&'static str, String)> {
        let c = &self.cold.config;
        vec![
            (
                "netlist",
                format!(
                    "{}, {} cells injected per job",
                    self.soc.name,
                    self.cold.cells.len()
                ),
            ),
            (
                "campaign",
                format!(
                    "{:?} engine, batched at {} lanes, collapse {}, refill {}, \
                     {} run cycles, {} injection per cell, seeds {} and {} (sweep)",
                    c.engine,
                    c.batch_lanes,
                    c.collapse_faults,
                    c.lane_refill,
                    c.workload.run_cycles,
                    c.injections_per_cell,
                    c.seed,
                    self.sweep.config.seed
                ),
            ),
            (
                "session",
                format!(
                    "1 cold job, {REPEATS} repeats, 1 seed sweep; {WORKERS} worker processes \
                     of {} thread each",
                    c.threads
                ),
            ),
            ("worker binary", self.worker_binary.display().to_string()),
        ]
    }
}
