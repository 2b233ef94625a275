//! The golden is compiled and solved once per cell (DESIGN.md §17), and
//! the detection table runs on the attempt's one wall clock.
//!
//! ONE test function only: the deltas are read from the global metric
//! registry, so a sibling test simulating concurrently in this binary
//! would leak its work into the counts.

use ca_core::{characterize_library_robust_with, CharCache, Executor, FaultPolicy};
use ca_defects::{CaModel, GenerateOptions};
use ca_netlist::library::{generate_library, LibraryConfig};
use ca_netlist::Technology;
use ca_obs::Snapshot;
use ca_sim::{Golden, SimBudget, SimError, Stimulus};
use std::time::Duration;

fn counter(delta: &Snapshot, name: &str) -> u64 {
    delta.counters.get(name).map_or(0, |&(_, v)| v)
}

/// Runs `f` and returns the metric delta it caused.
fn measured(f: impl FnOnce()) -> Snapshot {
    let before = ca_obs::global().snapshot();
    f();
    ca_obs::global().snapshot().delta(&before)
}

#[test]
fn one_kernel_and_one_golden_solve_per_cell() {
    let options = GenerateOptions::default();
    let unlimited = SimBudget::unlimited();

    // A clean library: every cell reaches the golden, and cache hits and
    // misses alike compile exactly one kernel, with no scalar golden.
    let lib = generate_library(&LibraryConfig::quick(Technology::C40));
    let cache = CharCache::new();
    let delta = measured(|| {
        let outcome = characterize_library_robust_with(
            &lib,
            options,
            &unlimited,
            FaultPolicy::SkipAndReport,
            &Executor::with_threads(2),
            &cache,
        )
        .expect("SkipAndReport never fails the batch");
        assert!(
            outcome.quarantine.is_empty(),
            "{}",
            outcome.quarantine.render()
        );
    });
    let stats = cache.stats();
    assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
    assert_eq!(counter(&delta, "ca_sim.kernel.compiled"), lib.len() as u64);
    assert_eq!(counter(&delta, "ca_sim.sim.checked_runs"), 0);

    // The table stage of an attempt whose clock ran out during the
    // pre-flight: it fails on that clock before any faulty block runs.
    let cell = &lib.cells[0].cell;
    let stimuli = Stimulus::all(cell.num_inputs());
    let golden = Golden::solve_checked(cell, stimuli, &unlimited, &unlimited.start())
        .expect("the golden converges");
    let expired = SimBudget {
        wall_clock: Some(Duration::ZERO),
        ..unlimited
    }
    .start();
    let delta = measured(|| {
        let err = CaModel::generate_budgeted(cell, options, &unlimited, &expired, &golden)
            .expect_err("the attempt's clock has run out");
        assert_eq!(
            err,
            SimError::BudgetExceeded {
                resource: "wall clock"
            }
        );
    });
    for name in [
        "ca_sim.kernel.compiled",
        "ca_sim.packed.blocks",
        "ca_sim.solver.solves",
        "ca_sim.sim.runs",
    ] {
        assert_eq!(counter(&delta, name), 0, "{name}");
    }
}
