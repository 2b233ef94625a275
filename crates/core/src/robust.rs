//! Fault-tolerant characterization: the one per-cell pipeline, solver
//! budgets and quarantine reports.
//!
//! Real libraries contain damage — hand-edited netlists, extraction
//! artifacts, unintended feedback loops — and a nightly characterization
//! run must degrade per cell, not per library. Every freshly
//! characterized cell therefore runs through one guarded pipeline:
//!
//! 1. **Lint** — structural pre-flight ([`lint()`]); any error-level
//!    finding quarantines the cell before a single simulation is spent.
//! 2. **Golden** — the defect-free cell is simulated with oscillation
//!    detection ([`Simulator::try_run`]); divergence becomes
//!    [`CoreError::SolverDiverged`] instead of silent X-forcing.
//! 3. **Prepare + Characterize** — canonicalization and budgeted model
//!    generation through the [`CharCache`], wrapped in
//!    [`std::panic::catch_unwind`] so even a panicking cell only loses
//!    itself.
//! 4. **Retry** — a budget-exhausted cell is re-run under a
//!    progressively reduced budget (halved defect universe, static-only
//!    stimuli), so a partially characterized — *degraded* — model still
//!    exports.
//!
//! The pipeline has two front ends. The library drivers
//! [`characterize_library_robust_with`] and
//! [`characterize_library_robust_with_session`] fold it over a library:
//! the [`FaultPolicy`] sets the retry count and decides whether a failure
//! aborts the batch or lands in the [`Quarantine`] report. The
//! per-request [`CellService`](crate::service::CellService) runs it under
//! a deadline. DESIGN.md §17 says what each front end owns.

// This module exists to keep broken cells from taking down a batch;
// it must not itself abort on a stray unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::cache::CharCache;
use crate::charlib::{summarize, LibrarySummary};
use crate::error::CoreError;
use crate::matrix::PreparedCell;
use crate::session::{Reuse, Session};
use ca_defects::GenerateOptions;
use ca_exec::Executor;
use ca_netlist::library::Library;
use ca_netlist::lint::{lint, Severity};
use ca_netlist::Cell;
use ca_obs::clock::Deadline;
use ca_obs::Stopwatch;
use ca_sim::{Injection, SimBudget, Simulator, Stimulus};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// What to do when a cell fails characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Abort the batch on the first failure (legacy behaviour).
    FailFast,
    /// Quarantine the cell and continue with the rest of the library.
    SkipAndReport,
    /// Like `SkipAndReport`, but budget-exhausted cells are retried up
    /// to `n` times with a progressively reduced budget: the defect
    /// universe is halved per attempt, stimuli are truncated to the
    /// statics, and the wall-clock/iteration limits are lifted. A retry
    /// that succeeds yields a [degraded](ca_defects::CaModel::degraded)
    /// model.
    RetryWithReducedBudget(u32),
}

/// Pipeline stage at which a quarantined cell failed. The discriminant
/// is persisted in the session journal (see `session::encode_phase`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailurePhase {
    /// Structural lint pre-flight (journal wire v1 tag 0).
    Lint,
    /// Defect-free (golden) sanity simulation (journal wire v1 tag 1).
    Golden,
    /// Activation extraction / canonicalization (journal wire v1 tag 2).
    Prepare,
    /// Budgeted model generation (journal wire v1 tag 3).
    Characterize,
}

impl fmt::Display for FailurePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailurePhase::Lint => write!(f, "lint"),
            FailurePhase::Golden => write!(f, "golden"),
            FailurePhase::Prepare => write!(f, "prepare"),
            FailurePhase::Characterize => write!(f, "characterize"),
        }
    }
}

/// One quarantined cell.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// Cell name.
    pub cell: String,
    /// Stage that failed (after any retries).
    pub phase: FailurePhase,
    /// Human-readable failure reason.
    pub reason: String,
    /// Wall-clock time spent on the cell, retries included.
    pub elapsed: Duration,
    /// Number of reduced-budget retries that were attempted.
    pub retries: u32,
}

/// Report of every cell a robust run could not characterize.
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    /// Entries in library order.
    pub entries: Vec<QuarantineEntry>,
}

impl Quarantine {
    /// Number of quarantined cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether every cell characterized cleanly.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for `cell`, if it was quarantined.
    pub fn entry(&self, cell: &str) -> Option<&QuarantineEntry> {
        self.entries.iter().find(|e| e.cell == cell)
    }

    /// Renders a compact text report, one line per cell.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "quarantine: {} cell(s)", self.len());
        for e in &self.entries {
            let _ = writeln!(
                out,
                "  {} [{}] {} ({} ms, {} retries)",
                e.cell,
                e.phase,
                e.reason,
                e.elapsed.as_millis(),
                e.retries
            );
        }
        out
    }
}

/// Result of the library drivers ([`characterize_library_robust_with`]).
#[derive(Debug)]
pub struct RobustOutcome {
    /// Successfully characterized cells (possibly with degraded models).
    pub prepared: Vec<PreparedCell>,
    /// Cells that failed, with per-cell diagnosis.
    pub quarantine: Quarantine,
}

impl RobustOutcome {
    /// Cells whose model was produced under a reduced budget.
    pub fn degraded_count(&self) -> usize {
        self.prepared
            .iter()
            .filter(|p| p.model.as_ref().is_some_and(|m| m.degraded))
            .count()
    }

    /// The library summary of this outcome: [`summarize`] over the
    /// characterized cells, with the quarantine count filled in.
    pub fn summary(&self, technology: &str) -> LibrarySummary {
        LibrarySummary {
            quarantined: self.quarantine.len(),
            ..summarize(technology, &self.prepared)
        }
    }
}

/// Characterizes every cell of `library` under `budget` on `executor`,
/// sharing `cache` across cells and isolating per-cell failures
/// according to `policy`.
///
/// The invariant callers rely on: `prepared.len() + quarantine.len() ==
/// library.len()` (under [`FaultPolicy::SkipAndReport`] and
/// [`FaultPolicy::RetryWithReducedBudget`]). [`FaultPolicy::FailFast`]
/// with [`SimBudget::unlimited`] is the plain conventional flow: on a
/// clean library its models equal [`PreparedCell::characterize`]'s.
///
/// The outcome is deterministic in everything but per-entry `elapsed`
/// times: `prepared` and `quarantine.entries` are in library order, and
/// under [`FaultPolicy::FailFast`] the error of the *first* failing cell
/// in library order is returned — identical at every thread count.
///
/// # Errors
///
/// Only [`FaultPolicy::FailFast`] returns an error — the first per-cell
/// failure in library order.
pub fn characterize_library_robust_with(
    library: &Library,
    options: GenerateOptions,
    budget: &SimBudget,
    policy: FaultPolicy,
    executor: &Executor,
    cache: &CharCache,
) -> Result<RobustOutcome, CoreError> {
    robust_driver(library, options, budget, policy, executor, cache, None)
}

/// [`characterize_library_robust_with`] bound to a durable [`Session`]:
/// previously journaled cells (complete, degraded *and* — except under
/// [`FaultPolicy::FailFast`] — quarantined) are verified against the
/// incoming library and reused instead of re-simulated, and every fresh
/// outcome is journaled as it lands. A run killed at any point can be
/// re-invoked with the same arguments and converges to the uninterrupted
/// run's models and quarantine verdicts (per-entry `elapsed` aside).
///
/// # Errors
///
/// Only [`FaultPolicy::FailFast`] returns an error — the first per-cell
/// failure in library order.
pub fn characterize_library_robust_with_session(
    library: &Library,
    options: GenerateOptions,
    budget: &SimBudget,
    policy: FaultPolicy,
    executor: &Executor,
    cache: &CharCache,
    session: &Session,
) -> Result<RobustOutcome, CoreError> {
    robust_driver(
        library,
        options,
        budget,
        policy,
        executor,
        cache,
        Some(session),
    )
}

/// Per-cell scheduling outcome of the robust driver.
enum Item {
    /// A model landed (fresh, cache-served or store-served).
    Done(Box<PreparedCell>),
    /// The guarded pipeline failed this run.
    Fail(FailurePhase, CoreError, Duration, u32),
    /// A journaled quarantine verdict replayed from the session store.
    Replay(FailurePhase, String, u32),
}

fn robust_driver(
    library: &Library,
    options: GenerateOptions,
    budget: &SimBudget,
    policy: FaultPolicy,
    executor: &Executor,
    cache: &CharCache,
    session: Option<&Session>,
) -> Result<RobustOutcome, CoreError> {
    // Quarantine verdicts are replayed as their stored reason string; a
    // fail-fast run must surface the original `CoreError` value, which a
    // string cannot reconstruct, so it re-diagnoses instead.
    let plan = session
        .map(|s| {
            s.plan(
                library,
                options,
                budget,
                cache,
                policy != FaultPolicy::FailFast,
            )
        })
        .unwrap_or_default();
    // Each item runs the full guarded pipeline, retries included; the
    // fold below never simulates, so the merge stays in library order.
    let results = executor.map(&library.cells, |_, lc| {
        // One trace span per session cell, named after the cell. The
        // executor adopted a per-item fork of the caller's context, so
        // the id is a pure function of campaign + item — identical at
        // any CA_THREADS and across a crash-resume (DESIGN.md §14).
        let _cell_span = ca_obs::trace::span(lc.cell.name());
        let started = Stopwatch::start();
        match plan.reuse(lc.cell.name()) {
            // Store-verified degraded model: served back to this exact
            // cell (never through the cache — never-a-donor rule).
            Some(Reuse::Degraded(p)) => Item::Done(p.clone()),
            // Store-verified complete model: the session pre-seeded the
            // cache, so this resolves through the certified donor path
            // without lint/golden/simulation.
            Some(Reuse::Complete) => match donor_hit(&lc.cell, options, cache) {
                Ok(p) => Item::Done(Box::new(p)),
                Err((phase, err)) => Item::Fail(phase, err, started.elapsed(), 0),
            },
            Some(Reuse::Quarantined {
                phase,
                retries,
                reason,
            }) => Item::Replay(*phase, reason.clone(), *retries),
            None => {
                let max_retries = match policy {
                    FaultPolicy::RetryWithReducedBudget(n) => n,
                    FaultPolicy::FailFast | FaultPolicy::SkipAndReport => 0,
                };
                let run = characterize_cell_retrying(
                    &lc.cell,
                    options,
                    budget,
                    max_retries,
                    Deadline::never(),
                    cache,
                );
                match run.outcome {
                    Ok(p) => {
                        // Journal under the *configured* budget (not the
                        // reduced retry budget): a resumed run under the
                        // same arguments must find the record.
                        if let Some(s) = session {
                            s.journal_model(&p, options, budget);
                        }
                        Item::Done(Box::new(p))
                    }
                    Err((phase, err)) => {
                        if policy != FaultPolicy::FailFast {
                            if let Some(s) = session {
                                s.journal_quarantine(
                                    &lc.cell,
                                    phase,
                                    &err.to_string(),
                                    run.retries,
                                    options,
                                    budget,
                                );
                            }
                        }
                        Item::Fail(phase, err, started.elapsed(), run.retries)
                    }
                }
            }
        }
    });
    let mut prepared = Vec::with_capacity(library.len());
    let mut quarantine = Quarantine::default();
    // The merge runs on one thread in library order, so these totals are
    // `Outcome` class: they describe the converged result of the run and
    // hold across thread counts *and* crash-resume (a replayed verdict
    // counts exactly like the fresh diagnosis it replaces).
    ca_obs::counter!("ca_core.flow.cells", Outcome).add(library.len() as u64);
    for (lc, item) in library.cells.iter().zip(results) {
        match item {
            Item::Done(p) => {
                if p.model.as_ref().is_some_and(|m| m.degraded) {
                    ca_obs::counter!("ca_core.flow.models_degraded", Outcome).inc();
                } else {
                    ca_obs::counter!("ca_core.flow.models_complete", Outcome).inc();
                }
                prepared.push(*p);
            }
            Item::Fail(phase, err, elapsed, retries) => {
                if policy == FaultPolicy::FailFast {
                    return Err(err);
                }
                ca_obs::counter!("ca_core.flow.quarantined", Outcome).inc();
                ca_obs::counter!("ca_core.flow.retries", Work).add(u64::from(retries));
                quarantine.entries.push(QuarantineEntry {
                    cell: lc.cell.name().to_string(),
                    phase,
                    reason: err.to_string(),
                    elapsed,
                    retries,
                });
            }
            Item::Replay(phase, reason, retries) => {
                ca_obs::counter!("ca_core.flow.quarantined", Outcome).inc();
                quarantine.entries.push(QuarantineEntry {
                    cell: lc.cell.name().to_string(),
                    phase,
                    reason,
                    elapsed: Duration::ZERO,
                    retries,
                });
            }
        }
    }
    if let Some(s) = session {
        s.maybe_compact();
    }
    Ok(RobustOutcome {
        prepared,
        quarantine,
    })
}

/// One cell's fresh run through the pipeline.
pub(crate) struct CellRun {
    /// The final attempt's model, or its failure tagged with the phase.
    pub(crate) outcome: Result<PreparedCell, (FailurePhase, CoreError)>,
    pub(crate) retries: u32,
    /// The deadline, not the budget, was the binding limit: the tighter
    /// wall clock of the final attempt, or expired before a retry.
    pub(crate) deadline_bound: bool,
}

/// The per-cell pipeline both front ends share: lint → golden →
/// prepare/characterize under `budget` clamped to `deadline`, then up to
/// `max_retries` reduced-budget retries while the failure is budget
/// exhaustion. A wall-clock failure under the deadline's clock, or a
/// deadline that expires before a retry, ends the retries: the request
/// ran out of time, the cell did not need less work.
pub(crate) fn characterize_cell_retrying(
    cell: &Cell,
    options: GenerateOptions,
    budget: &SimBudget,
    max_retries: u32,
    deadline: Deadline,
    cache: &CharCache,
) -> CellRun {
    let mut retries = 0;
    let mut attempt = *budget;
    loop {
        let (effective, tightened) = clamp_to_deadline(&attempt, deadline);
        let outcome = characterize_cell_guarded(cell, options, &effective, cache);
        let deadline_bound = match &outcome {
            Err((_, CoreError::BudgetExceeded { resource, .. })) if retries < max_retries => {
                if (tightened && resource == "wall clock") || deadline.expired() {
                    true
                } else {
                    retries += 1;
                    attempt = reduced_budget(budget, cell, retries);
                    continue;
                }
            }
            _ => tightened,
        };
        return CellRun {
            outcome,
            retries,
            deadline_bound,
        };
    }
}

/// Resolves `cell` through the cache's certified donor path alone — no
/// lint, no golden, no journal — for cells whose donor already passed
/// both on a structure-identical netlist (a store-verified record, or a
/// coalesced leader's fresh model). Panic-isolated; any failure is a
/// prepare-phase failure.
pub(crate) fn donor_hit(
    cell: &Cell,
    options: GenerateOptions,
    cache: &CharCache,
) -> Result<PreparedCell, (FailurePhase, CoreError)> {
    isolated(cell.name(), || cache.characterize(cell.clone(), options))
        .map_err(|err| (FailurePhase::Prepare, err))
}

/// Effective budget for one attempt under `deadline`, plus whether the
/// deadline is the *binding* wall constraint (strictly tighter than the
/// attempt budget's own wall clock). A no-op under [`Deadline::never`].
fn clamp_to_deadline(budget: &SimBudget, deadline: Deadline) -> (SimBudget, bool) {
    match deadline.remaining() {
        None => (*budget, false),
        Some(rem) => {
            let wall = match budget.wall_clock {
                Some(configured) if configured <= rem => Some(configured),
                _ => Some(rem),
            };
            let tightened = wall != budget.wall_clock;
            (
                SimBudget {
                    wall_clock: wall,
                    ..*budget
                },
                tightened,
            )
        }
    }
}

/// The budget of retry `attempt` (1-based): truncate the defect universe
/// by half per attempt, keep only the static stimuli, and lift the
/// wall-clock/iteration limits so the reduced work can finish.
fn reduced_budget(budget: &SimBudget, cell: &Cell, attempt: u32) -> SimBudget {
    let full_universe = cell.num_transistors() * 6;
    let ceiling = budget
        .max_defects
        .map_or(full_universe, |d| d.min(full_universe));
    SimBudget {
        max_solver_iterations: None,
        max_stimuli: Some(1usize << cell.num_inputs()),
        max_defects: Some((ceiling >> attempt).max(1)),
        wall_clock: None,
    }
}

/// Runs one cell through lint → golden → prepare/characterize, tagging
/// any failure with the phase it happened in.
fn characterize_cell_guarded(
    cell: &Cell,
    options: GenerateOptions,
    budget: &SimBudget,
    cache: &CharCache,
) -> Result<PreparedCell, (FailurePhase, CoreError)> {
    let name = cell.name().to_string();
    // 1. Structural pre-flight: quarantine broken netlists before any
    // simulation effort is spent on them.
    if let Some(finding) = lint(cell)
        .into_iter()
        .find(|f| f.severity == Severity::Error)
    {
        ca_obs::counter!("ca_core.flow.lint_rejects", Work).inc();
        return Err((
            FailurePhase::Lint,
            CoreError::PrepareFailed {
                cell: name,
                source: finding.to_string(),
            },
        ));
    }
    // 2. Golden sanity: the defect-free cell must converge under every
    // stimulus. `try_run` surfaces oscillation and iteration exhaustion
    // that `run` would silently X-force.
    let sim = Simulator::with_budget(cell, Injection::None, budget);
    let clock = budget.start();
    for stimulus in Stimulus::all(cell.num_inputs()) {
        if clock.expired() {
            return Err((
                FailurePhase::Golden,
                CoreError::BudgetExceeded {
                    cell: name,
                    resource: "wall clock".to_string(),
                },
            ));
        }
        if let Err(e) = sim.try_run(&stimulus) {
            return Err((FailurePhase::Golden, CoreError::from_sim(&name, e)));
        }
    }
    // 3+4. Prepare and characterize, panic-isolated: a defective cell
    // must only lose itself, never the batch.
    match isolated(&name, || {
        cache.characterize_budgeted(cell.clone(), options, budget)
    }) {
        Ok(p) => Ok(p),
        Err(err) => {
            let phase = match &err {
                CoreError::SolverDiverged { .. } | CoreError::BudgetExceeded { .. } => {
                    FailurePhase::Characterize
                }
                _ => FailurePhase::Prepare,
            };
            Err((phase, err))
        }
    }
}

/// Runs `f` under [`catch_unwind`], converting a panic into
/// [`CoreError::PrepareFailed`] with the panic message preserved.
pub(crate) fn isolated<T>(
    cell_name: &str,
    f: impl FnOnce() -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(CoreError::PrepareFailed {
            cell: cell_name.to_string(),
            source: format!("panic: {}", ca_exec::panic_message(&*payload)),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::corrupt::{corrupt_cell, Corruption};
    use ca_netlist::library::{generate_library, LibraryConfig};
    use ca_netlist::{spice, Technology};

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    fn tiny_library() -> Library {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
        lib.cells.truncate(5);
        lib
    }

    #[test]
    fn clean_library_has_empty_quarantine() {
        let lib = tiny_library();
        let outcome = characterize_library_robust_with(
            &lib,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
            FaultPolicy::SkipAndReport,
            &Executor::from_env(),
            &CharCache::new(),
        )
        .unwrap();
        assert_eq!(outcome.prepared.len(), lib.len());
        assert!(outcome.quarantine.is_empty());
        assert_eq!(outcome.degraded_count(), 0);
    }

    #[test]
    fn lint_failure_is_quarantined_without_simulation() {
        let mut lib = tiny_library();
        lib.cells[1].cell =
            corrupt_cell(&lib.cells[1].cell, Corruption::FloatingOutput, 3).unwrap();
        let outcome = characterize_library_robust_with(
            &lib,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
            FaultPolicy::SkipAndReport,
            &Executor::from_env(),
            &CharCache::new(),
        )
        .unwrap();
        assert_eq!(outcome.prepared.len(), lib.len() - 1);
        assert_eq!(outcome.quarantine.len(), 1);
        let entry = &outcome.quarantine.entries[0];
        assert_eq!(entry.phase, FailurePhase::Lint);
        assert!(entry.reason.contains("undriven-output"), "{}", entry.reason);
    }

    #[test]
    fn oscillator_is_diagnosed_by_the_golden_phase() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let bad = corrupt_cell(&cell, Corruption::OscillatorLoop, 5).unwrap();
        let err = characterize_cell_guarded(
            &bad,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
            &CharCache::new(),
        )
        .unwrap_err();
        assert_eq!(err.0, FailurePhase::Golden);
        assert!(
            matches!(err.1, CoreError::SolverDiverged { .. }),
            "{:?}",
            err.1
        );
    }

    #[test]
    fn fail_fast_propagates_the_first_error() {
        let mut lib = tiny_library();
        lib.cells[0].cell = corrupt_cell(&lib.cells[0].cell, Corruption::DanglingGate, 9).unwrap();
        let err = characterize_library_robust_with(
            &lib,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
            FaultPolicy::FailFast,
            &Executor::from_env(),
            &CharCache::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::PrepareFailed { .. }), "{err:?}");
    }

    #[test]
    fn retry_recovers_wall_clock_exhaustion_with_a_degraded_model() {
        let lib = tiny_library();
        // A zero wall clock fails every cell up front; one retry lifts
        // the clock and truncates the work, so every cell comes back
        // degraded instead of quarantined.
        let strangled = SimBudget {
            wall_clock: Some(Duration::ZERO),
            ..SimBudget::unlimited()
        };
        let skip = characterize_library_robust_with(
            &lib,
            GenerateOptions::default(),
            &strangled,
            FaultPolicy::SkipAndReport,
            &Executor::from_env(),
            &CharCache::new(),
        )
        .unwrap();
        assert_eq!(skip.quarantine.len(), lib.len());
        assert!(skip
            .quarantine
            .entries
            .iter()
            .all(|e| e.phase == FailurePhase::Golden && e.reason.contains("wall clock")));
        let retried = characterize_library_robust_with(
            &lib,
            GenerateOptions::default(),
            &strangled,
            FaultPolicy::RetryWithReducedBudget(1),
            &Executor::from_env(),
            &CharCache::new(),
        )
        .unwrap();
        assert!(
            retried.quarantine.is_empty(),
            "{}",
            retried.quarantine.render()
        );
        assert_eq!(retried.prepared.len(), lib.len());
        assert_eq!(retried.degraded_count(), lib.len());
        for p in &retried.prepared {
            let model = p.model.as_ref().unwrap();
            assert!(model.degraded);
            // Static-only retry: no dynamic detection classes.
            assert!(model
                .classes
                .iter()
                .all(|c| c.behavior != ca_defects::Behavior::Dynamic));
        }
    }

    #[test]
    fn retries_do_not_help_structural_failures() {
        let mut lib = tiny_library();
        lib.cells[2].cell =
            corrupt_cell(&lib.cells[2].cell, Corruption::ZeroTransistor, 11).unwrap();
        let outcome = characterize_library_robust_with(
            &lib,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
            FaultPolicy::RetryWithReducedBudget(3),
            &Executor::from_env(),
            &CharCache::new(),
        )
        .unwrap();
        assert_eq!(outcome.quarantine.len(), 1);
        let entry = &outcome.quarantine.entries[0];
        assert_eq!(entry.retries, 0);
        assert!(entry.reason.contains("no-transistors"), "{}", entry.reason);
    }

    #[test]
    fn a_binding_deadline_ends_the_retries() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let run = |budget: &SimBudget, deadline| {
            let options = GenerateOptions::default();
            characterize_cell_retrying(&cell, options, budget, 2, deadline, &CharCache::new())
        };
        // A zero wall clock in the configured budget is the cell's limit:
        // retried into a degraded model.
        let strangled = SimBudget {
            wall_clock: Some(Duration::ZERO),
            ..SimBudget::unlimited()
        };
        let retried = run(&strangled, Deadline::never());
        assert_eq!((retried.retries, retried.deadline_bound), (1, false));
        assert!(retried.outcome.unwrap().model.unwrap().degraded);
        // The same zero limit coming from the deadline is the request's.
        let cut = run(&SimBudget::unlimited(), Deadline::after(Duration::ZERO));
        assert_eq!((cut.retries, cut.deadline_bound), (0, true));
        assert!(matches!(
            cut.outcome,
            Err((FailurePhase::Golden, CoreError::BudgetExceeded { .. }))
        ));
    }

    #[test]
    fn panics_are_converted_to_prepare_failed() {
        let err = isolated::<()>("X", || panic!("boom")).unwrap_err();
        match err {
            CoreError::PrepareFailed { cell, source } => {
                assert_eq!(cell, "X");
                assert!(source.contains("boom"), "{source}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn quarantine_report_renders() {
        let q = Quarantine {
            entries: vec![QuarantineEntry {
                cell: "BAD".into(),
                phase: FailurePhase::Lint,
                reason: "error: no-transistors: cell `BAD` contains no transistors".into(),
                elapsed: Duration::from_millis(2),
                retries: 1,
            }],
        };
        let text = q.render();
        assert!(text.contains("quarantine: 1 cell(s)"));
        assert!(text.contains("BAD [lint]"));
        assert_eq!(q.entry("BAD").unwrap().retries, 1);
        assert!(q.entry("GOOD").is_none());
    }

    #[test]
    fn clamp_to_deadline_tracks_the_binding_constraint() {
        let unlimited = SimBudget::unlimited();
        let (eff, tightened) = clamp_to_deadline(&unlimited, Deadline::never());
        assert_eq!(eff.wall_clock, None);
        assert!(!tightened);
        // Deadline binds an unlimited budget.
        let (eff, tightened) =
            clamp_to_deadline(&unlimited, Deadline::after(Duration::from_secs(5)));
        assert!(tightened);
        assert!(eff.wall_clock.unwrap() <= Duration::from_secs(5));
        // A tighter configured wall clock keeps binding.
        let capped = SimBudget {
            wall_clock: Some(Duration::from_millis(1)),
            ..SimBudget::unlimited()
        };
        let (eff, tightened) =
            clamp_to_deadline(&capped, Deadline::after(Duration::from_secs(3600)));
        assert_eq!(eff.wall_clock, Some(Duration::from_millis(1)));
        assert!(!tightened);
    }
}
