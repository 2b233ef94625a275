//! Drives the parallel characterization engine through the facade:
//! characterize a flavor-heavy library with an explicit executor and a
//! shared structure-keyed cache, then show what memoization saved.
//!
//! Output is deterministic (cache hit/miss counts included) at every
//! `CA_THREADS` value, so `diff`ing two runs is a valid probe.

use cell_aware::core::{characterize_library_robust_with, CharCache, Executor, FaultPolicy};
use cell_aware::defects::GenerateOptions;
use cell_aware::netlist::{generate_library, LibraryConfig, Technology};
use cell_aware::sim::SimBudget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Skew and VT flavors multiply every template into families of
    // sizing-only siblings — exactly the duplication the cache exploits.
    let library = generate_library(&LibraryConfig {
        skew_variants: true,
        vt_variants: vec![("LVT".into(), 0.90), ("HVT".into(), 1.10)],
        ..LibraryConfig::quick(Technology::C40)
    });

    let executor = Executor::from_env();
    let cache = CharCache::new();
    // The plain conventional flow: fail on the first broken cell, no
    // budget caps.
    let outcome = characterize_library_robust_with(
        &library,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::FailFast,
        &executor,
        &cache,
    )?;

    print!("{}", outcome.summary(library.technology.name()).render());
    let stats = cache.stats();
    println!(
        "cache: {} hits / {} misses ({:.1}% hit rate), {} rejected, {} bypassed",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.rejected,
        stats.bypassed
    );
    println!(
        "simulated {} of {} cells; the rest were remapped from structural donors",
        stats.misses,
        outcome.prepared.len()
    );
    Ok(())
}
