//! Detection tables: the bit matrix `defect × stimulus → detected`.
//!
//! This is the raw product of exhaustive defect simulation (the inner loop
//! of the conventional flow, paper Fig. 1) and the source of the training
//! labels of the ML flow.

use crate::universe::{Defect, DefectId, DefectUniverse};
use ca_netlist::Cell;
use ca_sim::packed::{detect_mask, PackedSim, PackedStimulus};
use ca_sim::{
    BudgetClock, DetectionPolicy, Golden, Injection, SimBudget, SimError, SimResult, Simulator,
    Stimulus, Value,
};
use std::convert::Infallible;
use std::sync::Arc;

/// A packed bit row (one bit per stimulus).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitRow {
    bits: Vec<u64>,
    len: usize,
}

impl BitRow {
    /// An all-zero row of `len` bits.
    pub fn zeros(len: usize) -> BitRow {
        BitRow {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Gets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.bits[i / 64] |= mask;
        } else {
            self.bits[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&b| b != 0)
    }

    /// Indices of set bits.
    pub fn ones(&self) -> Vec<usize> {
        (0..self.len).filter(|&i| self.get(i)).collect()
    }
}

/// Detection results of a full defect universe under a full stimulus set.
///
/// The table shares its stimulus list with the golden solve it was
/// generated against (no per-table copy); a budget-truncated table
/// covers a prefix of that list. Tables compare equal when their
/// stimuli, rows, policy and simulation counts are equal.
#[derive(Debug, Clone)]
pub struct DetectionTable {
    stimuli: Arc<[Stimulus]>,
    /// Length of the `stimuli` prefix the rows cover.
    n_stimuli: usize,
    rows: Vec<BitRow>,
    policy: DetectionPolicy,
    /// Number of defective-cell simulations performed (for the cost model).
    defect_simulations: usize,
}

impl PartialEq for DetectionTable {
    fn eq(&self, other: &DetectionTable) -> bool {
        self.stimuli() == other.stimuli()
            && self.rows == other.rows
            && self.policy == other.policy
            && self.defect_simulations == other.defect_simulations
    }
}

impl Eq for DetectionTable {}

impl DetectionTable {
    /// Simulates every defect of `universe` against `stimuli` on the
    /// bit-parallel packed engine (64 stimuli per solver pass,
    /// DESIGN.md §12): one kernel compile and one golden solve shared
    /// by every defect.
    pub fn generate(
        cell: &Cell,
        universe: &DefectUniverse,
        stimuli: &[Stimulus],
        policy: DetectionPolicy,
    ) -> DetectionTable {
        DetectionTable::generate_packed(&Golden::solve(cell, stimuli.to_vec()), universe, policy)
    }

    /// The scalar reference for [`DetectionTable::generate`]: one
    /// interpreted [`Simulator`] run per (stimulus, defect) pair. No
    /// production path calls it; the differential suites compare the
    /// packed tables against it.
    pub fn generate_scalar(
        cell: &Cell,
        universe: &DefectUniverse,
        stimuli: &[Stimulus],
        policy: DetectionPolicy,
    ) -> DetectionTable {
        let Ok(table) = scalar_table(
            cell,
            universe.defects(),
            stimuli,
            policy,
            &SimBudget::unlimited(),
            |sim, s| Ok::<_, Infallible>(sim.run(s)),
            || Ok(()),
        );
        table
    }

    /// [`DetectionTable::generate`] against an already-solved golden
    /// ([`Golden::solve`]): every defect is evaluated word-parallel over
    /// the golden's blocks, with cone restriction for stuck-opens, and
    /// neither the kernel nor the golden is built again.
    ///
    /// `defect_simulations` reports the *logical* simulation count
    /// (defects × stimuli), so the table compares equal to the scalar
    /// one.
    pub fn generate_packed(
        golden: &Golden,
        universe: &DefectUniverse,
        policy: DetectionPolicy,
    ) -> DetectionTable {
        let n_stimuli = golden.stimuli().len();
        // Unbudgeted: no check can stop the table.
        let unchecked = || Ok::<(), Infallible>(());
        let Ok(rows) = packed_rows(
            golden,
            universe.defects(),
            n_stimuli,
            policy,
            None,
            unchecked,
        );
        DetectionTable {
            stimuli: Arc::clone(golden.stimuli()),
            n_stimuli,
            rows,
            policy,
            defect_simulations: universe.len() * n_stimuli,
        }
    }

    /// Like [`DetectionTable::generate_packed`], but under a
    /// [`SimBudget`] whose run is timed by `clock` (started once per run
    /// by the caller).
    ///
    /// `golden` is the checked golden solve of the cell over its full
    /// stimulus list ([`Golden::solve_checked`]) under the same
    /// `max_solver_iterations`: an oscillating defect-free cell has
    /// already failed there, because its truth table is meaningless.
    /// Semantics:
    ///
    /// - faulty simulation keeps the conservative X-forcing of
    ///   unbudgeted runs — an injected defect may legitimately create
    ///   a ring;
    /// - `max_stimuli` / `max_defects` truncate the work (a prefix of
    ///   the golden's stimuli, of the universe's defects) and mark the
    ///   result degraded;
    /// - `clock` is checked *between* packed blocks (never mid-solve);
    ///   expiry is [`SimError::BudgetExceeded`].
    ///
    /// On success, the table covers `universe.truncated(degraded
    /// defect count)` — callers align their universe with
    /// [`BudgetedTable::defects_covered`].
    pub fn generate_budgeted(
        golden: &Golden,
        universe: &DefectUniverse,
        policy: DetectionPolicy,
        budget: &SimBudget,
        clock: &BudgetClock,
    ) -> Result<BudgetedTable, SimError> {
        let n_stimuli = budget.clamp_stimuli(golden.stimuli().len());
        let n_defects = budget.clamp_defects(universe.len());
        let rows = packed_rows(
            golden,
            &universe.defects()[..n_defects],
            n_stimuli,
            policy,
            budget.max_solver_iterations,
            || check_clock(clock),
        )?;
        Ok(BudgetedTable {
            table: DetectionTable {
                stimuli: Arc::clone(golden.stimuli()),
                n_stimuli,
                rows,
                policy,
                defect_simulations: n_defects * n_stimuli,
            },
            degraded: n_stimuli < golden.stimuli().len() || n_defects < universe.len(),
            defects_covered: n_defects,
        })
    }

    /// The scalar reference for [`DetectionTable::generate_budgeted`],
    /// golden check included: after truncating to the budget, every
    /// kept stimulus's golden must converge under
    /// `max_solver_iterations` ([`Simulator::try_run`]), then every kept
    /// defect is simulated with X-forcing, `clock` checked before each
    /// golden and each faulty run. No production path calls it.
    pub fn generate_budgeted_scalar(
        cell: &Cell,
        universe: &DefectUniverse,
        stimuli: &[Stimulus],
        policy: DetectionPolicy,
        budget: &SimBudget,
        clock: &BudgetClock,
    ) -> Result<BudgetedTable, SimError> {
        let n_stimuli = budget.clamp_stimuli(stimuli.len());
        let n_defects = budget.clamp_defects(universe.len());
        Ok(BudgetedTable {
            table: scalar_table(
                cell,
                &universe.defects()[..n_defects],
                &stimuli[..n_stimuli],
                policy,
                budget,
                |sim, s| sim.try_run(s),
                || check_clock(clock),
            )?,
            degraded: n_stimuli < stimuli.len() || n_defects < universe.len(),
            defects_covered: n_defects,
        })
    }

    /// Generates with the canonical full stimulus set
    /// ([`Stimulus::all`]`(n)`).
    pub fn generate_exhaustive(
        cell: &Cell,
        universe: &DefectUniverse,
        policy: DetectionPolicy,
    ) -> DetectionTable {
        let stimuli = Stimulus::all(cell.num_inputs());
        DetectionTable::generate(cell, universe, &stimuli, policy)
    }

    /// The stimuli the table was generated against.
    pub fn stimuli(&self) -> &[Stimulus] {
        &self.stimuli[..self.n_stimuli]
    }

    /// Detection row of `defect`.
    ///
    /// # Panics
    ///
    /// Panics if `defect` is out of range.
    pub fn row(&self, defect: DefectId) -> &BitRow {
        &self.rows[defect.index()]
    }

    /// All rows in defect-id order.
    pub fn rows(&self) -> &[BitRow] {
        &self.rows
    }

    /// Whether stimulus `stimulus` detects `defect`.
    pub fn detects(&self, defect: DefectId, stimulus: usize) -> bool {
        self.rows[defect.index()].get(stimulus)
    }

    /// The detection policy used.
    pub fn policy(&self) -> DetectionPolicy {
        self.policy
    }

    /// Number of defective-cell simulations that were run.
    pub fn defect_simulations(&self) -> usize {
        self.defect_simulations
    }

    /// Fraction of defects detected by at least one stimulus.
    pub fn coverage(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let detected = self.rows.iter().filter(|r| r.any()).count();
        detected as f64 / self.rows.len() as f64
    }
}

/// A [`DetectionTable`] generated under a [`SimBudget`], with the
/// truncation bookkeeping budgeted callers need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetedTable {
    /// The generated table (rows cover the first
    /// [`defects_covered`](BudgetedTable::defects_covered) defects).
    pub table: DetectionTable,
    /// Whether any budget axis truncated the work (fewer stimuli or
    /// defects than requested).
    pub degraded: bool,
    /// Number of leading universe defects the rows cover.
    pub defects_covered: usize,
}

/// `BudgetExceeded` (`"wall clock"`) once `clock` has expired.
fn check_clock(clock: &BudgetClock) -> Result<(), SimError> {
    if clock.expired() {
        Err(SimError::BudgetExceeded {
            resource: "wall clock",
        })
    } else {
        Ok(())
    }
}

/// The scalar reference body: golden outputs per stimulus through
/// `golden_run` on a defect-free [`Simulator`] (X-forcing `run`, or
/// budget-checked `try_run`), then every defect simulated with
/// X-forcing under `budget`'s iteration cap. `check` runs before every
/// golden and every faulty run.
fn scalar_table<E>(
    cell: &Cell,
    defects: &[Defect],
    stimuli: &[Stimulus],
    policy: DetectionPolicy,
    budget: &SimBudget,
    golden_run: impl Fn(&Simulator, &Stimulus) -> Result<SimResult, E>,
    mut check: impl FnMut() -> Result<(), E>,
) -> Result<DetectionTable, E> {
    let outputs = cell.outputs();
    let golden_sim = Simulator::with_budget(cell, Injection::None, budget);
    let mut golden: Vec<Vec<Value>> = Vec::with_capacity(stimuli.len());
    for stimulus in stimuli {
        check()?;
        let result = golden_run(&golden_sim, stimulus)?;
        golden.push(outputs.iter().map(|&o| result.final_value(o)).collect());
    }
    let mut rows = Vec::with_capacity(defects.len());
    for defect in defects {
        let faulty_sim = Simulator::with_budget(cell, defect.injection, budget);
        let mut row = BitRow::zeros(stimuli.len());
        for (i, stimulus) in stimuli.iter().enumerate() {
            check()?;
            let result = faulty_sim.run(stimulus);
            let detected = outputs
                .iter()
                .enumerate()
                .any(|(oi, &o)| policy.detects(golden[i][oi], result.final_value(o)));
            row.set(i, detected);
        }
        rows.push(row);
    }
    Ok(DetectionTable {
        stimuli: stimuli.into(),
        n_stimuli: stimuli.len(),
        rows,
        policy,
        defect_simulations: defects.len() * stimuli.len(),
    })
}

/// Detection rows of `defects` against `golden` over its first
/// `n_stimuli` stimuli, faulty lanes solved under `max_iterations` with
/// cone restriction for stuck-opens. `check` runs before every (defect,
/// block) unit, never mid-solve, so a failing check stops the table
/// before the next faulty block runs.
fn packed_rows<E>(
    golden: &Golden,
    defects: &[Defect],
    n_stimuli: usize,
    policy: DetectionPolicy,
    max_iterations: Option<usize>,
    mut check: impl FnMut() -> Result<(), E>,
) -> Result<Vec<BitRow>, E> {
    let kernel = golden.kernel();
    // A truncated stimulus prefix gets its own (shorter) blocks; the
    // golden's blocks still hold the right lanes, lane by lane.
    let truncated;
    let packed = if n_stimuli == golden.stimuli().len() {
        golden.packed()
    } else {
        truncated = PackedStimulus::pack(kernel.n_inputs(), &golden.stimuli()[..n_stimuli]);
        &truncated
    };
    let outputs = kernel.outputs();
    let mut rows = Vec::with_capacity(defects.len());
    for defect in defects {
        let faulty = PackedSim::new(kernel, defect.injection, max_iterations);
        let open_t = match defect.injection {
            Injection::Open { transistor, .. } => Some(transistor.index()),
            _ => None,
        };
        let mut row = BitRow::zeros(n_stimuli);
        let mut base = 0;
        for (block, g) in packed.blocks().iter().zip(golden.blocks()) {
            check()?;
            let f = faulty.run_block_against(block, g, open_t);
            let mut mask = detect_mask(g, &f, outputs, policy) & block.lanes;
            while mask != 0 {
                row.set(base + mask.trailing_zeros() as usize, true);
                mask &= mask - 1;
            }
            base += block.occupancy();
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Convenience: simulate a single injection against `stimuli` (used by
/// inference comparisons).
pub fn single_defect_row(
    cell: &Cell,
    injection: Injection,
    stimuli: &[Stimulus],
    policy: DetectionPolicy,
) -> BitRow {
    let flags = ca_sim::detection_row(cell, injection, stimuli, policy);
    let mut row = BitRow::zeros(flags.len());
    for (i, &f) in flags.iter().enumerate() {
        row.set(i, f);
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::spice;

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    #[test]
    fn bitrow_set_get_count() {
        let mut row = BitRow::zeros(100);
        assert_eq!(row.len(), 100);
        row.set(0, true);
        row.set(64, true);
        row.set(99, true);
        assert!(row.get(0) && row.get(64) && row.get(99));
        assert!(!row.get(1));
        assert_eq!(row.count_ones(), 3);
        assert_eq!(row.ones(), vec![0, 64, 99]);
        row.set(64, false);
        assert_eq!(row.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitrow_bounds_checked() {
        let row = BitRow::zeros(10);
        let _ = row.get(10);
    }

    #[test]
    fn nand2_table_has_full_coverage() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let table =
            DetectionTable::generate_exhaustive(&cell, &universe, DetectionPolicy::default());
        assert_eq!(table.rows().len(), 24);
        assert_eq!(table.stimuli().len(), 16);
        // Every intra-transistor defect of a NAND2 is detectable.
        assert!(
            (table.coverage() - 1.0).abs() < 1e-9,
            "{}",
            table.coverage()
        );
        assert_eq!(table.defect_simulations(), 24 * 16);
    }

    #[test]
    fn table_is_deterministic() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let a = DetectionTable::generate_exhaustive(&cell, &universe, DetectionPolicy::default());
        let b = DetectionTable::generate_exhaustive(&cell, &universe, DetectionPolicy::default());
        assert_eq!(a, b);
    }

    /// The checked golden of `cell` over every stimulus, as the
    /// pipeline's pre-flight solves it.
    fn checked_golden(cell: &Cell, budget: &SimBudget) -> Golden {
        let stimuli = Stimulus::all(cell.num_inputs());
        Golden::solve_checked(cell, stimuli, budget, &budget.start()).expect("NAND2 converges")
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_generation() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let policy = DetectionPolicy::default();
        let stimuli = Stimulus::all(2);
        let plain = DetectionTable::generate(&cell, &universe, &stimuli, policy);
        let unlimited = SimBudget::unlimited();
        let budgeted = DetectionTable::generate_budgeted(
            &checked_golden(&cell, &unlimited),
            &universe,
            policy,
            &unlimited,
            &unlimited.start(),
        )
        .expect("NAND2 characterizes");
        assert!(!budgeted.degraded);
        assert_eq!(budgeted.defects_covered, universe.len());
        assert_eq!(budgeted.table, plain);
    }

    #[test]
    fn stimulus_and_defect_caps_truncate_and_degrade() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let policy = DetectionPolicy::default();
        let budget = SimBudget {
            max_stimuli: Some(4),
            max_defects: Some(10),
            ..SimBudget::unlimited()
        };
        let golden = checked_golden(&cell, &budget);
        let b =
            DetectionTable::generate_budgeted(&golden, &universe, policy, &budget, &budget.start())
                .expect("truncation is not an error");
        assert!(b.degraded);
        assert_eq!(b.defects_covered, 10);
        assert_eq!(b.table.rows().len(), 10);
        assert_eq!(b.table.stimuli(), &golden.stimuli()[..4]);
        assert_eq!(b.table.defect_simulations(), 40);
        // The table shares the golden's list yet equals the scalar
        // reference, which holds only the prefix.
        let scalar = DetectionTable::generate_budgeted_scalar(
            &cell,
            &universe,
            golden.stimuli(),
            policy,
            &budget,
            &budget.start(),
        );
        assert_eq!(Ok(b), scalar);
    }

    #[test]
    fn expired_wall_clock_is_budget_exceeded() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let golden = checked_golden(&cell, &SimBudget::unlimited());
        let budget = SimBudget {
            wall_clock: Some(std::time::Duration::ZERO),
            ..SimBudget::unlimited()
        };
        let err = DetectionTable::generate_budgeted(
            &golden,
            &universe,
            DetectionPolicy::default(),
            &budget,
            &budget.start(),
        )
        .expect_err("zero deadline expires before the first faulty block");
        assert_eq!(
            err,
            SimError::BudgetExceeded {
                resource: "wall clock"
            }
        );
    }

    #[test]
    fn single_row_matches_table() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let policy = DetectionPolicy::default();
        let table = DetectionTable::generate_exhaustive(&cell, &universe, policy);
        let d = universe.defects()[5];
        let row = single_defect_row(&cell, d.injection, table.stimuli(), policy);
        assert_eq!(&row, table.row(d.id));
    }
}
