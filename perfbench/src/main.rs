//! The repository benchmark: end-to-end metrics of three workloads, and a
//! separate traced run that times each layer from outside.
//!
//! ```sh
//! python3 perfbench/run.py --workload mega_oneshot --seed 0 --seconds 25 --trace 0
//! ```
//!
//! One process sets a workload up `SETUP_REPEATS` times, then runs its op
//! in a closed loop with one client (the next op starts when the previous
//! one returns) until `--seconds` have passed. Every op's outputs are
//! checked; an op that errors or fails its check counts as failed. The
//! last line of standard output is one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! The traced run alternates an untraced op with a traced one. A traced op
//! records a span around each call into a layer's public functions and
//! reads counts from the program's public outputs and its existing hooks
//! (`Instrument` with a `MetricsRegistry` and a `ProgressSink`); spans are
//! written to `perfbench-work/trace-<workload>-<seed>.json` next to the
//! binary when the run ends.

mod mega;
mod serve;
mod soc5;
mod trace;

use ssresf::{CampaignProgress, ProgressPhase, ProgressSink};
use ssresf_json::Value;
use ssresf_netlist::StableHasher;
use ssresf_sim::Fault;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Setups per run. `setup_s` is the time from process start to the first
/// setup plus the median setup.
const SETUP_REPEATS: usize = 3;

/// Program threads: an explicit count, never 0 ("all cores"), because
/// batched campaign work depends on it.
const MAX_THREADS: usize = 2;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("accuracy", "fraction"),
];

/// Per-layer metrics, printed with `--trace 1`. A `_s` metric is the self
/// time of its layer's spans in one op (the median over the run's traced
/// ops); a layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 52] = [
    ("socgen.build_s", "s"),
    ("netlist.flatten_s", "s"),
    ("netlist.features_s", "s"),
    ("netlist.content_hash_s", "s"),
    ("netlist.cells", "count"),
    ("workload.dut_s", "s"),
    ("clustering.cluster_s", "s"),
    ("sampling.sample_s", "s"),
    ("ser.eval_s", "s"),
    ("sensitivity.label_s", "s"),
    ("campaign.golden_s", "s"),
    ("campaign.inject_s", "s"),
    ("campaign.injections", "count"),
    ("campaign.work", "count"),
    ("campaign.work_per_injection", "count"),
    ("sim.word_evals", "count"),
    ("sim.events", "count"),
    ("campaign.batch_occupancy", "faults"),
    ("campaign.collapse_frac", "fraction"),
    ("campaign.lane_refills", "count"),
    ("campaign.checkpoint_restore_frac", "fraction"),
    ("campaign.worker_imbalance", "ratio"),
    ("campaign.worker_idle_frac", "fraction"),
    ("campaign.soft_errors", "count"),
    ("ser.chip_ser", "fraction"),
    ("mlcore.train_s", "s"),
    ("mlcore.smo_iterations", "count"),
    ("mlcore.kernel_cache_hit_rate", "fraction"),
    ("mlcore.predict_s", "s"),
    ("mlcore.predict_cells_per_s", "1/s"),
    ("active.analyze_s", "s"),
    ("active.rounds", "count"),
    ("active.injected_cells", "count"),
    ("active.injections_saved_frac", "fraction"),
    ("active.round_campaign_s", "s"),
    ("serve.job_cold_s", "s"),
    ("serve.job_hit_s", "s"),
    ("serve.job_sweep_s", "s"),
    ("serve.netlist_build_s", "s"),
    ("serve.cache_get_s", "s"),
    ("serve.decode_s", "s"),
    ("serve.encode_s", "s"),
    ("serve.shard_s", "s"),
    ("serve.merge_s", "s"),
    ("serve.fleet_wait_s", "s"),
    ("serve.cache_hit_rate", "fraction"),
    ("serve.cache_bytes", "bytes"),
    ("serve.heartbeats", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.span_coverage", "fraction"),
    ("trace.ops", "count"),
    ("framework.rest_s", "s"),
];

/// What one op produced, reduced to what the checks compare and the
/// report prints.
pub struct OpOutput {
    /// Digest of every simulated record and prediction the op returned.
    pub digest: String,
    /// Injection records.
    pub records: usize,
    /// Records that are soft errors.
    pub soft_errors: usize,
    /// Chip soft-error rate (Eq. 2), or 0 where the op computes none.
    pub chip_ser: f64,
    /// The workload's `accuracy` metric.
    pub accuracy: f64,
    /// Workload properties observed in the op's outputs.
    pub facts: Vec<(&'static str, String)>,
    /// Per-layer metrics; filled by traced ops only.
    pub layers: BTreeMap<&'static str, f64>,
}

/// One benchmark workload, set up and ready to run ops.
pub trait Workload {
    /// Runs one op. With a tracer, records a span around each layer call
    /// and fills [`OpOutput::layers`].
    fn op(&mut self, tracer: Option<&Tracer>) -> Result<OpOutput, String>;
    /// Runs after each op, untimed. After a traced op it may time further
    /// pieces and return more per-layer metrics.
    fn after_op(
        &mut self,
        _tracer: Option<&Tracer>,
    ) -> Result<BTreeMap<&'static str, f64>, String> {
        Ok(BTreeMap::new())
    }
    /// Properties of the workload that do not depend on an op.
    fn properties(&self) -> Vec<(&'static str, String)>;
}

/// Seeds for the workload's random streams: `base` at workload seed 0 (the
/// configuration the committed numbers were measured with), and a distinct
/// stream for every other workload seed.
pub fn derive_seed(seed: u64, base: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A 128-bit digest of byte chunks.
#[derive(Default)]
pub struct Digest(StableHasher);

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.update(bytes);
    }

    pub fn u64(&mut self, v: u64) {
        self.0.update_u64(v);
    }

    pub fn records(&mut self, records: &[ssresf::InjectionRecord]) {
        let mut buf = Vec::with_capacity(records.len() * 42);
        for r in records {
            let (kind, target, cycle, offset, width) = match r.fault {
                Fault::Set(f) => (0, f.net.0, f.cycle, f.offset, f.width),
                Fault::Seu(f) => (1, f.cell.0, f.cycle, f.offset, 0.0),
            };
            buf.push(kind);
            buf.extend_from_slice(&r.cell.0.to_le_bytes());
            buf.extend_from_slice(&target.to_le_bytes());
            buf.extend_from_slice(&cycle.to_le_bytes());
            buf.extend_from_slice(&offset.to_bits().to_le_bytes());
            buf.extend_from_slice(&width.to_bits().to_le_bytes());
            buf.push(u8::from(r.soft_error));
            buf.extend_from_slice(&(r.divergences as u64).to_le_bytes());
        }
        self.bytes(&buf);
    }

    pub fn predictions(&mut self, predictions: &[(ssresf_netlist::CellId, bool)]) {
        let mut buf = Vec::with_capacity(predictions.len() * 5);
        for &(cell, high) in predictions {
            buf.extend_from_slice(&cell.0.to_le_bytes());
            buf.push(u8::from(high));
        }
        self.bytes(&buf);
    }

    pub fn finish(&self) -> String {
        self.0.finish().to_hex()
    }
}

/// The per-layer metric of a span name: `<name>_s`, when listed.
pub fn layer_time_metric(span: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| name.strip_suffix("_s") == Some(span))
}

/// `hits / (hits + misses)`, or 0 when nothing was looked up.
pub fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Collects the per-worker busy times of every campaign the op runs, from
/// the `Finished` progress reports.
#[derive(Default)]
pub struct WorkerSink {
    /// `(busy per worker, campaign elapsed)` per finished campaign.
    finished: Mutex<Vec<(Vec<Duration>, Duration)>>,
}

impl ProgressSink for WorkerSink {
    fn report(&self, progress: &CampaignProgress) {
        if progress.phase == ProgressPhase::Finished {
            self.finished
                .lock()
                .expect("a campaign worker panicked while reporting")
                .push((
                    progress.workers.iter().map(|w| w.busy).collect(),
                    progress.elapsed,
                ));
        }
    }
}

impl WorkerSink {
    /// Worker imbalance (slowest worker's busy time over the mean, summed
    /// over campaigns) and idle fraction (worker time not busy over worker
    /// time available while injecting).
    pub fn balance(&self) -> (f64, f64) {
        let finished = self
            .finished
            .lock()
            .expect("a campaign worker panicked while reporting");
        let (mut max_sum, mut mean_sum, mut busy_sum, mut available) = (0.0, 0.0, 0.0, 0.0);
        for (busy, elapsed) in finished.iter().filter(|(b, _)| !b.is_empty()) {
            let secs: Vec<f64> = busy.iter().map(Duration::as_secs_f64).collect();
            let total: f64 = secs.iter().sum();
            max_sum += secs.iter().copied().fold(0.0, f64::max);
            mean_sum += total / secs.len() as f64;
            busy_sum += total;
            available += elapsed.as_secs_f64() * secs.len() as f64;
        }
        let imbalance = if mean_sum > 0.0 {
            max_sum / mean_sum
        } else {
            0.0
        };
        let idle = if available > 0.0 {
            (1.0 - busy_sum / available).max(0.0)
        } else {
            0.0
        };
        (imbalance, idle)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB; worker
/// processes are not included.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 25.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Directory for the run's files: next to the binary, so inside the build
/// directory.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("the binary has no parent directory")?
        .join("perfbench-work"))
}

fn setup(
    workload: &str,
    seed: u64,
    threads: usize,
    work_dir: &Path,
) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "mega_oneshot" => Box::new(mega::Mega::setup(seed, threads)?),
        "soc5_active" => Box::new(soc5::Soc5::setup(seed, threads)?),
        "serve_soc10" => Box::new(serve::Serve::setup(seed, threads, work_dir)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (mega_oneshot, soc5_active or serve_soc10)"
            ))
        }
    })
}

fn main() -> ExitCode {
    let process_started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_started) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, process_started: Instant) -> Result<String, String> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS);
    let work_dir = work_dir()?;

    let before_setup = process_started.elapsed();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let w = setup(&args.workload, args.seed, threads, &work_dir)?;
        setups.push(started.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut workload = workload.expect("SETUP_REPEATS is at least 1");
    let setup_s = before_setup.as_secs_f64() + median(&setups);

    let tracer = Tracer::new();
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let limit = Duration::from_secs_f64(args.seconds);
    let run_started = Instant::now();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first: Option<OpOutput> = None;
    let mut walls: BTreeMap<bool, Vec<f64>> = BTreeMap::new();
    let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut peak_rss = None;
    while attempted == 0 || run_started.elapsed() < limit {
        for &traced in modes {
            attempted += 1;
            tracer.set_op(attempted);
            let started = Instant::now();
            let result = if traced {
                tracer.span("op", || workload.op(Some(&tracer)))
            } else {
                workload.op(None)
            };
            let wall = started.elapsed().as_secs_f64();
            if peak_rss.is_none() {
                peak_rss = Some(peak_rss_mib()?);
            }
            let after = workload.after_op(traced.then_some(&tracer));
            let checked = result.and_then(|mut out| {
                out.layers.extend(after?);
                match &first {
                    Some(f) if f.digest != out.digest => Err(format!(
                        "outputs changed between ops: digest {} then {}",
                        f.digest, out.digest
                    )),
                    _ => Ok(out),
                }
            });
            let out = match checked {
                Ok(out) => out,
                Err(e) => {
                    failed += 1;
                    eprintln!("perfbench: op {attempted} failed: {e}");
                    continue;
                }
            };
            walls.entry(traced).or_default().push(wall);
            if traced {
                let uncovered = tracer.self_times().get("op").copied();
                let coverage = 1.0 - uncovered.unwrap_or(wall) / wall;
                layers
                    .entry("trace.span_coverage")
                    .or_default()
                    .push(coverage);
                for (&name, &value) in &out.layers {
                    layers.entry(name).or_default().push(value);
                }
            }
            if first.is_none() {
                first = Some(out);
            }
        }
    }
    // Later ops add allocator fragmentation that varies from run to run;
    // a process that runs one op, as a user's does, peaks during it.
    let peak_rss = peak_rss.expect("the loop runs at least one op");

    let untraced = walls.get(&false).cloned().unwrap_or_default();
    println!("workload: {} (seed {})", args.workload, args.seed);
    for (name, value) in workload.properties() {
        println!("  {name}: {value}");
    }
    println!("  program threads: {threads}");
    println!(
        "  setups: {} at {:?} s",
        setups.len(),
        setups.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>()
    );
    println!(
        "  ops: {attempted} attempted, {failed} failed, {} untraced ({:.1} s of {:.0} s)",
        untraced.len(),
        run_started.elapsed().as_secs_f64(),
        args.seconds
    );
    for (traced, w) in &walls {
        println!(
            "  {} op walls (s): {:?}",
            if *traced { "traced" } else { "untraced" },
            w.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>()
        );
    }
    if let Some(f) = &first {
        for (name, value) in &f.facts {
            println!("  {name}: {value}");
        }
        println!(
            "simulated: records {}, soft errors {}, chip SER {}, digest {}",
            f.records, f.soft_errors, f.chip_ser, f.digest
        );
    }

    let correct = failed == 0 && first.is_some();
    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        metrics.insert(
            name.to_owned(),
            ssresf_json::object([("value", Value::from(value)), ("unit", Value::from(unit))]),
        );
    };
    if args.trace {
        let traced = walls.get(&true).cloned().unwrap_or_default();
        let overhead = if untraced.is_empty() || traced.is_empty() {
            0.0
        } else {
            median(&traced) / median(&untraced) - 1.0
        };
        layers.insert("trace.overhead_frac", vec![overhead]);
        layers.insert("trace.ops", vec![traced.len() as f64]);
        for (name, unit) in PER_LAYER {
            let value = layers.get(name).map_or(0.0, |v| median(v));
            println!("  layer {name}: {value} {unit}");
            put(name, unit, value);
        }
        let unknown: Vec<&&str> = layers
            .keys()
            .filter(|k| !PER_LAYER.iter().any(|(name, _)| name == *k))
            .collect();
        if !unknown.is_empty() {
            return Err(format!("layer metrics missing from PER_LAYER: {unknown:?}"));
        }
        std::fs::create_dir_all(&work_dir)
            .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
        let path = work_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, tracer.to_json().to_string_compact())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    } else {
        let values = [
            setup_s,
            median(&untraced),
            peak_rss,
            first.as_ref().map_or(0.0, |f| f.accuracy),
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            put(name, unit, value);
        }
    }
    Ok(ssresf_json::object([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", ssresf_json::object(metrics)),
    ])
    .to_string_compact())
}
