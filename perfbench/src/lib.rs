//! Repeatable end-to-end and per-layer benchmark of the cell-aware
//! workspace.
//!
//! One process runs one named workload (`campaign`, `hybrid`) with a
//! seed, measures for a requested number of seconds, checks
//! every output it measured against a reference computed in the same
//! process (never timed), and prints a [`Report`]. `BENCHMARK.md`
//! beside this crate explains each workload, the metrics and how layer
//! metrics map onto end-to-end ones.
//!
//! The benchmark only calls the workspace's public functions. Per-layer
//! numbers come from [`spans`] the benchmark opens around its own calls
//! into each layer, from counter deltas of `ca_obs::global()`, and (for
//! the serving probe of a traced `campaign` run) from the wire-v2 timing
//! breakdown the server returns.

pub mod campaign;
pub mod hybrid;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;

pub use report::{Metric, Report, END_TO_END, PER_LAYER};

/// Workloads the command runs, as `BENCHMARK.json` lists them. The
/// serving layers have no workload of their own (see `BENCHMARK.md`);
/// the serving probe of a traced `campaign` run measures them.
pub const WORKLOADS: [&str; 2] = ["campaign", "hybrid"];

/// Input scale. `Tiny` exists for the benchmark's own tests: the same
/// code paths on a handful of cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seeds the submission order of cells and the serving probe's op
    /// sequence and arrival schedule.
    pub seed: u64,
    /// How long the timed phases measure, seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
    /// Executor threads, client connections and server slots.
    pub threads: usize,
    /// Scratch directory for journals, sockets and the span dump.
    pub work_dir: PathBuf,
}

/// Runs the named workload; `None` for an unknown name.
pub fn run(workload: &str, config: &Config) -> Option<Report> {
    match workload {
        "campaign" => Some(campaign::run(config)),
        "hybrid" => Some(hybrid::run(config)),
        _ => None,
    }
}

/// The benchmark's thread budget: never more than the machine has, and
/// never more than two, so results compare across hosts.
pub fn thread_budget() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Runs `f` once; returns its result and its wall time, seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = std::time::Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Peak resident set of this process, MiB (`VmHWM`); 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seeded permutation of `0..n`: the order cells are submitted in.
pub fn submission_order(n: usize, seed: u64) -> Vec<usize> {
    use ca_rng::Rng;
    let mut order: Vec<usize> = (0..n).collect();
    ca_rng::Xoshiro256StarStar::seed_from_u64(seed).shuffle(&mut order);
    order
}

/// The reference `.cam` body of `cell`: characterized on its own,
/// uncached and unjournaled; empty when characterization fails, which
/// no checked output can equal.
pub fn reference_cam(cell: ca_netlist::Cell) -> String {
    ca_core::PreparedCell::characterize(cell, ca_defects::GenerateOptions::default())
        .ok()
        .and_then(|p| p.model)
        .map(|m| ca_defects::to_cam(&m))
        .unwrap_or_default()
}

/// A fresh, empty directory under the run's scratch directory.
pub fn fresh_dir(config: &Config, name: &str) -> PathBuf {
    let dir = config.work_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

/// Writes a traced run's spans as a `trace_event` document beside its
/// other scratch files.
pub fn write_spans(config: &Config, workload: &str, spans: &[spans::SpanRecord]) {
    let path = config
        .work_dir
        .join(format!("trace-{workload}-{}.json", config.seed));
    if let Err(e) = std::fs::write(&path, spans::to_trace_json(spans)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Counter deltas of the program's own `ca_obs` registry, as layer
/// metrics: work counts, the packed engine's lane occupancy (lanes
/// solved over lanes offered) and the cache's hit ratio (hits over
/// lookups).
pub fn layer_counters(delta: &ca_obs::Snapshot, out: &mut BTreeMap<&'static str, (f64, usize)>) {
    let counter = |name: &str| delta.counters.get(name).map_or(0.0, |(_, v)| *v as f64);
    for (metric, source) in [
        ("sim.kernel.compiled", "ca_sim.kernel.compiled"),
        ("sim.packed.lanes", "ca_sim.packed.lanes"),
        ("sim.packed.cone_skips", "ca_sim.packed.cone_skips"),
        ("sim.solver.iterations", "ca_sim.solver.iterations"),
        ("core.cache.hits", "ca_core.cache.hits"),
        ("core.cache.misses", "ca_core.cache.misses"),
        ("core.cache.rejected", "ca_core.cache.rejected"),
        ("store.journal.appends", "ca_store.journal.appends"),
        ("store.journal.fsyncs", "ca_store.journal.fsyncs"),
        ("store.journal.bytes", "ca_store.journal.append_bytes"),
        ("exec.items", "ca_exec.items"),
        ("ml.predict.rows", "ca_ml.predict.rows"),
        ("ml.forest.trees_fitted", "ca_ml.forest.trees_fitted"),
    ] {
        out.insert(metric, (counter(source), 1));
    }
    let blocks = counter("ca_sim.packed.blocks");
    let lanes = counter("ca_sim.packed.lanes");
    let hits = counter("ca_core.cache.hits");
    let lookups = hits + counter("ca_core.cache.misses") + counter("ca_core.cache.bypassed");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.insert(
        "sim.packed.lane_occupancy",
        (ratio(lanes, blocks * 64.0), 1),
    );
    out.insert("core.cache.hit_ratio", (ratio(hits, lookups), 1));
}
