//! Differential gate for the per-cell pipeline (DESIGN.md §17). For
//! every cell of a salted library, under every budget, each packed
//! stage must agree with its scalar reference: the pre-flight verdict
//! (`Golden::solve_checked` vs. a `Simulator::try_run` loop), the
//! activation (`Activation::extract` vs. waves read with
//! `SimResult::wave`) and the budgeted table (`generate_budgeted` vs.
//! `generate_budgeted_scalar`). The robust driver, at one and at four
//! threads, must then give each cell the verdict the scalar stages
//! predict: a quarantine with the scalar error, or the `.cam` bytes of
//! the model of the scalar table.

use ca_core::{
    characterize_library_robust_with, Activation, CharCache, CoreError, Executor, FailurePhase,
    FaultPolicy,
};
use ca_defects::{to_cam, CaModel, DefectUniverse, DetectionTable, GenerateOptions};
use ca_netlist::corrupt::{corrupt_cell, salt_library, Corruption};
use ca_netlist::library::{generate_library, Library, LibraryCell, LibraryConfig};
use ca_netlist::lint::{lint, Severity};
use ca_netlist::{Cell, MosKind, Technology};
use ca_sim::{Golden, Injection, SimBudget, SimError, Simulator, Stimulus, Wave};
use std::collections::BTreeMap;
use std::time::Duration;

/// One cell's outcome: its `.cam` bytes, or its quarantine verdict.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Model(String),
    Quarantined(FailurePhase, String, u32),
}

/// What the scalar references predict for one cell: its exact verdict,
/// or only the phase of a failure no simulation decides (lint,
/// multi-output cells).
#[derive(Debug)]
enum Expected {
    Exactly(Verdict),
    Phase(FailurePhase),
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

fn run(lib: &Library, budget: &SimBudget, threads: usize) -> BTreeMap<String, Verdict> {
    let outcome = characterize_library_robust_with(
        lib,
        GenerateOptions::default(),
        budget,
        FaultPolicy::SkipAndReport,
        &Executor::with_threads(threads),
        &CharCache::new(),
    )
    .expect("SkipAndReport never fails the batch");
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

/// The scalar pre-flight: `try_run` over every stimulus in order, the
/// wall clock checked before each.
fn scalar_preflight(cell: &Cell, stimuli: &[Stimulus], budget: &SimBudget) -> Result<(), SimError> {
    let clock = budget.start();
    let sim = Simulator::with_budget(cell, Injection::None, budget);
    for stimulus in stimuli {
        if clock.expired() {
            return Err(SimError::BudgetExceeded {
                resource: "wall clock",
            });
        }
        sim.try_run(stimulus)?;
    }
    Ok(())
}

/// The quarantine verdict of a simulation failure of `cell` in `phase`.
fn sim_failure(cell: &Cell, phase: FailurePhase, err: SimError) -> Expected {
    let cell = cell.name().to_string();
    let err = match err {
        SimError::Oscillated { nets } => CoreError::SolverDiverged { cell, nets },
        SimError::BudgetExceeded { resource } => CoreError::BudgetExceeded {
            cell,
            resource: resource.to_string(),
        },
    };
    Expected::Exactly(Verdict::Quarantined(phase, err.to_string(), 0))
}

/// Scalar output and activity waves per stimulus (an NMOS is active on
/// gate 1, a PMOS on gate 0), or the first stimulus with a non-binary
/// output or gate.
#[allow(clippy::type_complexity)]
fn scalar_waves(cell: &Cell, stimuli: &[Stimulus]) -> Result<(Vec<Wave>, Vec<Vec<Wave>>), usize> {
    let sim = Simulator::new(cell);
    let mut outputs = Vec::new();
    let mut activity = Vec::new();
    for (si, stimulus) in stimuli.iter().enumerate() {
        let result = sim.run(stimulus);
        outputs.push(result.wave(cell.output()).ok_or(si)?);
        let per_t = cell
            .transistor_ids()
            .map(|(_, t)| {
                let gate = result.wave(t.gate()).ok_or(si)?;
                Ok(match t.kind() {
                    MosKind::Nmos => gate,
                    MosKind::Pmos => Wave::from_pair(!gate.initial(), !gate.final_value()),
                })
            })
            .collect::<Result<Vec<Wave>, usize>>()?;
        activity.push(per_t);
    }
    Ok((outputs, activity))
}

/// Asserts the packed activation equals the scalar waves, or fails on
/// the same stimulus as they do; returns that stimulus.
fn assert_activation_matches(cell: &Cell, stimuli: &[Stimulus]) -> Result<(), usize> {
    match (Activation::extract(cell), scalar_waves(cell, stimuli)) {
        (Ok(act), Ok((outputs, activity))) => {
            assert_eq!(act.output_waves(), &outputs[..], "{}", cell.name());
            for (si, per_t) in activity.iter().enumerate() {
                let ids = cell.transistor_ids().map(|(id, _)| id);
                for (t, &wave) in ids.zip(per_t) {
                    assert_eq!(act.transistor_wave(si, t), wave, "{} at {si}", cell.name());
                }
            }
            Ok(())
        }
        (Err(CoreError::GoldenNotBinary { stimulus, .. }), Err(want)) if stimulus == want => {
            Err(want)
        }
        (got, want) => panic!("{}: packed {got:?}, scalar {want:?}", cell.name()),
    }
}

/// Runs every stage of `cell` on both engines under `budget`, asserting
/// they agree, and returns what the driver must report for the cell.
fn expected(cell: &Cell, budget: &SimBudget) -> Expected {
    if lint(cell).iter().any(|f| f.severity == Severity::Error) {
        return Expected::Phase(FailurePhase::Lint);
    }
    let name = cell.name();
    let stimuli = Stimulus::all(cell.num_inputs());
    let clock = budget.start();
    let packed = Golden::solve_checked(cell, stimuli.clone(), budget, &clock);
    let scalar = scalar_preflight(cell, &stimuli, budget);
    assert_eq!(
        packed.as_ref().map(|_| ()).map_err(Clone::clone),
        scalar,
        "{name} pre-flight"
    );
    let golden = match packed {
        Ok(golden) => golden,
        Err(e) => return sim_failure(cell, FailurePhase::Golden, e),
    };
    let universe = DefectUniverse::intra_transistor(cell);
    let policy = GenerateOptions::default().policy;
    let table = DetectionTable::generate_budgeted(&golden, &universe, policy, budget, &clock);
    let scalar = DetectionTable::generate_budgeted_scalar(
        cell,
        &universe,
        &stimuli,
        policy,
        budget,
        &budget.start(),
    );
    assert_eq!(table, scalar, "{name} table");
    let table = match scalar {
        Ok(budgeted) => budgeted.table,
        Err(e) => return sim_failure(cell, FailurePhase::Characterize, e),
    };
    let activation = assert_activation_matches(cell, &stimuli);
    if cell.outputs().len() != 1 {
        return Expected::Phase(FailurePhase::Prepare);
    }
    Expected::Exactly(match activation {
        Err(stimulus) => {
            let cell = name.to_string();
            let err = CoreError::GoldenNotBinary { cell, stimulus };
            Verdict::Quarantined(FailurePhase::Prepare, err.to_string(), 0)
        }
        Ok(()) => Verdict::Model(to_cam(&CaModel {
            defect_simulations: table.defect_simulations(),
            ..CaModel::from_rows(cell, universe, table.rows().to_vec())
        })),
    })
}

/// Asserts every stage agrees with its scalar reference on every cell
/// of `lib` under every budget, and that the driver at one and four
/// threads reports what the references predict. Returns the verdicts
/// per budget for corpus checks.
fn assert_stages_agree(lib: &Library) -> Vec<BTreeMap<String, Verdict>> {
    let mut per_budget = Vec::new();
    for budget in budgets() {
        let verdicts = run(lib, &budget, 1);
        assert_eq!(verdicts, run(lib, &budget, 4), "1 vs 4 threads, {budget:?}");
        assert_eq!(verdicts.len(), lib.len());
        for lc in &lib.cells {
            let got = &verdicts[lc.cell.name()];
            match expected(&lc.cell, &budget) {
                Expected::Exactly(want) => assert_eq!(got, &want, "{budget:?}"),
                Expected::Phase(phase) => assert!(
                    matches!(got, Verdict::Quarantined(p, _, 0) if *p == phase),
                    "{budget:?}: expected a {phase:?} quarantine, got {got:?}"
                ),
            }
        }
        per_budget.push(verdicts);
    }
    per_budget
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
    let per_budget = assert_stages_agree(&salted(Technology::C28));
    // Unlimited: the salted oscillators fail the golden, the rest pass.
    let unlimited = &per_budget[3];
    assert!(quarantined_in(unlimited, FailurePhase::Golden) >= 2);
    assert!(unlimited.values().any(|v| matches!(v, Verdict::Model(_))));
}

#[test]
fn packed_and_scalar_preflights_agree_on_salted_c40() {
    let per_budget = assert_stages_agree(&salted(Technology::C40));
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
    let per_budget = assert_stages_agree(&lib);
    let unlimited = &per_budget[3];
    assert_eq!(
        quarantined_in(unlimited, FailurePhase::Golden),
        lib.len(),
        "{unlimited:?}"
    );
}
