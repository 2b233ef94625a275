//! `ca-bench parallel` — wall-clock benchmark of the parallel
//! characterization engine and the structure-keyed cache.
//!
//! The workload is a realistic variant-heavy library: drive strengths,
//! skew sizing and VT flavors multiply every template into a family of
//! structurally identical cells, exactly the redundancy the cache is
//! built to exploit. The serial baseline runs the plain per-cell
//! conventional flow (one thread, no cache); the engine runs
//! [`characterize_library_robust_with`] under [`FaultPolicy::FailFast`]
//! and an unlimited budget on the `CA_THREADS` executor with a shared
//! [`CharCache`]. Both outputs are compared bit for bit before any number
//! is reported.

// Benchmark results feed BENCH_parallel.json; a stray unwrap would
// abort the run instead of reporting the failure.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::corpus::Profile;
use ca_core::{
    characterize_library_robust_with, CacheStats, CharCache, Executor, FaultPolicy, PreparedCell,
};
use ca_defects::GenerateOptions;
use ca_netlist::library::{generate_library, Library, LibraryConfig};
use ca_netlist::Technology;
use ca_sim::SimBudget;
use std::time::Instant;

/// Measured numbers of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelBench {
    /// Worker threads the engine ran with.
    pub threads: usize,
    /// Library size in cells.
    pub cells: usize,
    /// Serial baseline (1 thread, no cache), seconds.
    pub serial_s: f64,
    /// Engine wall clock, seconds.
    pub parallel_s: f64,
    /// Cache counters of the engine run.
    pub cache: CacheStats,
}

impl ParallelBench {
    /// End-to-end speedup of the engine over the serial baseline.
    pub fn speedup(&self) -> f64 {
        if self.parallel_s > 0.0 {
            self.serial_s / self.parallel_s
        } else {
            0.0
        }
    }

    /// Engine throughput in cells per second.
    pub fn cells_per_sec(&self) -> f64 {
        if self.parallel_s > 0.0 {
            self.cells as f64 / self.parallel_s
        } else {
            0.0
        }
    }

    /// The `BENCH_parallel.json` document (hand-rendered: the workspace
    /// is dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"threads\": {},\n  \"cells\": {},\n  \"serial_s\": {:.3},\n  \
             \"parallel_s\": {:.3},\n  \"cells_per_sec\": {:.2},\n  \"speedup\": {:.2},\n  \
             \"cache_hits\": {},\n  \"cache_misses\": {},\n  \"cache_rejected\": {},\n  \
             \"cache_bypassed\": {},\n  \"cache_hit_rate\": {:.4}\n}}\n",
            self.threads,
            self.cells,
            self.serial_s,
            self.parallel_s,
            self.cells_per_sec(),
            self.speedup(),
            self.cache.hits,
            self.cache.misses,
            self.cache.rejected,
            self.cache.bypassed,
            self.cache.hit_rate()
        )
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "parallel characterization engine — {} cells, {} thread(s)\n  \
             serial baseline: {:.2} s\n  engine:          {:.2} s  ({:.2}x, {:.1} cells/s)\n  \
             cache: {} hits / {} misses ({:.1}% hit rate), {} rejected, {} bypassed\n",
            self.cells,
            self.threads,
            self.serial_s,
            self.parallel_s,
            self.speedup(),
            self.cells_per_sec(),
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.rejected,
            self.cache.bypassed
        )
    }
}

/// The benchmark library: the profile's C40 catalog expanded into skew
/// and VT-flavor families, the variant structure of a production
/// library (every flavor is a sizing-only sibling).
pub fn bench_library(profile: Profile) -> Library {
    let config = LibraryConfig {
        skew_variants: true,
        vt_variants: vec![("LVT".into(), 0.90), ("HVT".into(), 1.10)],
        ..profile.library_config(Technology::C40)
    };
    generate_library(&config)
}

/// Runs the benchmark: serial baseline, then the engine, then a
/// bit-identity check of the two outputs.
///
/// # Panics
///
/// Panics if the engine's models differ from the serial baseline's —
/// a broken cache must never report a speedup.
pub fn run(profile: Profile) -> ParallelBench {
    let library = bench_library(profile);
    let options = GenerateOptions::default();

    // Untimed warm-up on one cell: the serial baseline runs first, so
    // without this it would also pay the one-off process cold-start
    // (page-in, allocator growth) that the engine run — timed second,
    // in a warm process — never sees. The baseline stays cold where it
    // matters (no CharCache, every flavor characterized from scratch);
    // only the process-level warm-up effect is pinned out so speedups
    // here and in BENCH_packed.json are measured against a clean
    // scalar cold path.
    if let Some(first) = library.cells.first() {
        let _ = PreparedCell::characterize(first.cell.clone(), options);
    }

    let serial_start = Instant::now();
    let serial: Vec<PreparedCell> = library
        .cells
        .iter()
        .map(|lc| {
            PreparedCell::characterize(lc.cell.clone(), options).unwrap_or_else(|e| {
                panic!("serial characterization failed for {}: {e}", lc.cell.name())
            })
        })
        .collect();
    let serial_s = serial_start.elapsed().as_secs_f64();

    let executor = Executor::from_env();
    let cache = CharCache::new();
    let parallel_start = Instant::now();
    let prepared = match characterize_library_robust_with(
        &library,
        options,
        &SimBudget::unlimited(),
        FaultPolicy::FailFast,
        &executor,
        &cache,
    ) {
        Ok(outcome) => outcome.prepared,
        Err(e) => panic!("engine characterization failed: {e}"),
    };
    let parallel_s = parallel_start.elapsed().as_secs_f64();

    assert_eq!(prepared.len(), serial.len());
    for (p, s) in prepared.iter().zip(&serial) {
        assert_eq!(p.cell.name(), s.cell.name(), "order must be library order");
        assert_eq!(
            p.model,
            s.model,
            "engine model differs from serial baseline for {}",
            p.cell.name()
        );
    }

    ParallelBench {
        threads: executor.threads(),
        cells: library.len(),
        serial_s,
        parallel_s,
        cache: cache.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_library_contains_flavor_families() {
        let lib = bench_library(Profile::Quick);
        // skew x {SVT, LVT, HVT}: six sizing-only siblings per variant.
        let base = generate_library(&Profile::Quick.library_config(Technology::C40));
        assert_eq!(lib.len(), 3 * base.len());
        assert!(lib.cells.iter().any(|c| c.cell.name().ends_with("LVT")));
        assert!(lib.cells.iter().any(|c| c.cell.name().ends_with("SHVT")));
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let bench = ParallelBench {
            threads: 4,
            cells: 100,
            serial_s: 10.0,
            parallel_s: 2.5,
            cache: CacheStats {
                hits: 80,
                misses: 20,
                rejected: 0,
                bypassed: 0,
            },
        };
        let json = bench.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"speedup\": 4.00"), "{json}");
        assert!(json.contains("\"cache_hit_rate\": 0.8000"), "{json}");
        assert!((bench.cells_per_sec() - 40.0).abs() < 1e-9);
        assert!(bench.render().contains("4.00x"));
    }
}
