//! Differential gate for the golden pre-flight (DESIGN.md §17): the
//! packed pre-flight, whose one golden solve also feeds activation
//! extraction and the detection table, must give every cell the verdict
//! the scalar `try_run` pre-flight gives it.
//!
//! For every cell of a salted library, under every budget, the robust
//! driver runs with the packed engine forced on and forced off, at one
//! and at four threads. Each run must quarantine the same cells with the
//! same `(phase, reason, retries)` and export the same `.cam` bytes for
//! the rest.

use ca_core::{
    characterize_library_robust_with, CharCache, Executor, FailurePhase, FaultPolicy, RobustOutcome,
};
use ca_defects::{to_cam, GenerateOptions};
use ca_netlist::corrupt::{corrupt_cell, salt_library, Corruption};
use ca_netlist::library::{generate_library, Library, LibraryCell, LibraryConfig};
use ca_netlist::Technology;
use ca_sim::{set_packed_override, SimBudget};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// The packed switch is process-global: runs that pin it must not
/// interleave.
static PACKED_SWITCH: Mutex<()> = Mutex::new(());

/// One cell's outcome: its `.cam` bytes, or its quarantine verdict.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Model(String),
    Quarantined(FailurePhase, String, u32),
}

fn verdicts(outcome: &RobustOutcome) -> BTreeMap<String, Verdict> {
    let models = outcome.prepared.iter().map(|p| {
        let model = p.model.as_ref().expect("characterized cells carry a model");
        (p.cell.name().to_string(), Verdict::Model(to_cam(model)))
    });
    let quarantined = outcome.quarantine.entries.iter().map(|e| {
        (
            e.cell.clone(),
            Verdict::Quarantined(e.phase, e.reason.clone(), e.retries),
        )
    });
    models.chain(quarantined).collect()
}

/// The budgets of the matrix: each solver iteration cap, then a wall
/// clock that has run out before the first stimulus.
fn budgets() -> Vec<SimBudget> {
    let mut budgets: Vec<SimBudget> = [Some(1), Some(2), Some(4), None]
        .into_iter()
        .map(|cap| SimBudget {
            max_solver_iterations: cap,
            ..SimBudget::unlimited()
        })
        .collect();
    budgets.push(SimBudget {
        wall_clock: Some(Duration::ZERO),
        ..SimBudget::unlimited()
    });
    budgets
}

fn run(lib: &Library, budget: &SimBudget, packed: bool, threads: usize) -> RobustOutcome {
    set_packed_override(Some(packed));
    let outcome = characterize_library_robust_with(
        lib,
        GenerateOptions::default(),
        budget,
        FaultPolicy::SkipAndReport,
        &Executor::with_threads(threads),
        &CharCache::new(),
    );
    set_packed_override(None);
    outcome.expect("SkipAndReport never fails the batch")
}

/// Asserts the packed and scalar pre-flights agree on every cell of
/// `lib` under every budget, at one and four threads. Returns the
/// scalar single-thread verdicts per budget for corpus checks.
fn assert_preflights_agree(lib: &Library) -> Vec<BTreeMap<String, Verdict>> {
    let _switch = PACKED_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    let mut reference = Vec::new();
    for budget in budgets() {
        let scalar = verdicts(&run(lib, &budget, false, 1));
        assert_eq!(scalar.len(), lib.len());
        for (packed, threads) in [(true, 1), (true, 4), (false, 4)] {
            let got = verdicts(&run(lib, &budget, packed, threads));
            for (cell, want) in &scalar {
                assert_eq!(
                    got.get(cell),
                    Some(want),
                    "{cell} under {budget:?}: packed={packed} at {threads} threads \
                     disagrees with the scalar pre-flight"
                );
            }
        }
        reference.push(scalar);
    }
    reference
}

fn quarantined_in(verdicts: &BTreeMap<String, Verdict>, phase: FailurePhase) -> usize {
    verdicts
        .values()
        .filter(|v| matches!(v, Verdict::Quarantined(p, ..) if *p == phase))
        .count()
}

fn salted(tech: Technology) -> Library {
    let mut lib = generate_library(&LibraryConfig::quick(tech));
    let salted = salt_library(&mut lib, 10, 23);
    assert_eq!(salted.len(), 10, "salting lands every corruption twice");
    lib
}

/// Lint-clean cells that oscillate: the oscillator corruption on every
/// four-input cell (four blocks of 64 stimuli each) and on a few quick
/// C40 cells.
fn oscillators() -> Library {
    let wide = generate_library(&LibraryConfig {
        max_inputs: 4,
        max_transistors: 24,
        ..LibraryConfig::quick(Technology::C40)
    });
    let narrow = generate_library(&LibraryConfig::quick(Technology::C40));
    let candidates = wide
        .cells
        .iter()
        .filter(|lc| lc.cell.num_inputs() == 4)
        .chain(narrow.cells.iter().take(6));
    let cells: Vec<LibraryCell> = candidates
        .enumerate()
        .filter_map(|(i, lc)| {
            let bad = corrupt_cell(&lc.cell, Corruption::OscillatorLoop, i as u64).ok()?;
            Some(LibraryCell {
                cell: bad.with_name(format!("{}_OSC{i}", lc.cell.name())),
                ..lc.clone()
            })
        })
        .collect();
    assert!(cells.len() >= 6, "only {} oscillators", cells.len());
    Library {
        technology: Technology::C40,
        cells,
    }
}

#[test]
fn packed_and_scalar_preflights_agree_on_salted_c28() {
    let per_budget = assert_preflights_agree(&salted(Technology::C28));
    // Unlimited: the salted oscillators fail the golden, the rest pass.
    let unlimited = &per_budget[3];
    assert!(quarantined_in(unlimited, FailurePhase::Golden) >= 2);
    assert!(unlimited.values().any(|v| matches!(v, Verdict::Model(_))));
}

#[test]
fn packed_and_scalar_preflights_agree_on_salted_c40() {
    let per_budget = assert_preflights_agree(&salted(Technology::C40));
    // A one-iteration cap stops healthy cells in the golden too; the
    // zero wall clock stops every lint-clean cell there.
    assert!(quarantined_in(&per_budget[0], FailurePhase::Golden) > 2);
    let expired = &per_budget[4];
    for verdict in expired.values() {
        if let Verdict::Quarantined(FailurePhase::Golden, reason, _) = verdict {
            assert!(reason.contains("wall clock"), "{reason}");
        }
    }
    assert!(!expired.values().any(|v| matches!(v, Verdict::Model(_))));
}

#[test]
fn packed_and_scalar_preflights_agree_on_oscillators() {
    let lib = oscillators();
    let per_budget = assert_preflights_agree(&lib);
    let unlimited = &per_budget[3];
    assert_eq!(
        quarantined_in(unlimited, FailurePhase::Golden),
        lib.len(),
        "{unlimited:?}"
    );
}
