//! The defect-free ("golden") solve of one cell, done once on the packed
//! engine and shared by everything downstream (DESIGN.md §12).
//!
//! The conventional flow (paper Fig. 1) simulates the golden cell once
//! and compares every defect against it. A [`Golden`] holds what that
//! one solve produces — the compiled [`CellKernel`], the stimuli, their
//! packed blocks and the per-block defect-free [`BlockResult`]s — so the
//! golden pre-flight, activation extraction and the detection table read
//! one compile and one solve instead of each paying their own.

use crate::budget::{BudgetClock, SimBudget, SimError};
use crate::injection::Injection;
use crate::kernel::CellKernel;
use crate::packed::{
    BlockResult, LaneOutcome, PackedSim, PackedStimulus, PhaseOutcomes, StimulusBlock,
};
use crate::values::Stimulus;
use ca_netlist::Cell;
use std::sync::Arc;

/// A cell's golden solve over a stimulus list; see the module docs.
#[derive(Debug, Clone)]
pub struct Golden {
    kernel: CellKernel,
    stimuli: Arc<[Stimulus]>,
    packed: PackedStimulus,
    blocks: Vec<BlockResult>,
}

impl Golden {
    /// Compiles `cell` and solves every stimulus with the natural
    /// iteration bound, forcing non-convergent nets to `X` — what the
    /// scalar reference [`Simulator::run`](crate::Simulator::run) gives
    /// over the whole list.
    pub fn solve(cell: &Cell, stimuli: Vec<Stimulus>) -> Golden {
        let kernel = CellKernel::compile(cell);
        let packed = PackedStimulus::pack(kernel.n_inputs(), &stimuli);
        let blocks = {
            let sim = PackedSim::new(&kernel, Injection::None, None);
            packed.blocks().iter().map(|b| sim.run_block(b)).collect()
        };
        Golden {
            kernel,
            stimuli: stimuli.into(),
            packed,
            blocks,
        }
    }

    /// Compiles `cell` and solves every stimulus under `budget`'s
    /// `max_solver_iterations`, requiring convergence — the verdict the
    /// scalar reference [`Simulator::try_run`](crate::Simulator::try_run)
    /// gives over the whole list. `clock` is checked before each block,
    /// never mid-solve.
    ///
    /// # Errors
    ///
    /// [`SimError::BudgetExceeded`] (`"wall clock"`) when `clock` has
    /// expired before a block. Otherwise the error `try_run` raises for
    /// the first non-convergent stimulus, in stimulus order, with a
    /// phase-1 failure winning over a phase-2 one: the unstable nets of
    /// an oscillation, or `"solver iterations"` for a reduced cap.
    pub fn solve_checked(
        cell: &Cell,
        stimuli: Vec<Stimulus>,
        budget: &SimBudget,
        clock: &BudgetClock,
    ) -> Result<Golden, SimError> {
        let kernel = CellKernel::compile(cell);
        let packed = PackedStimulus::pack(kernel.n_inputs(), &stimuli);
        let mut blocks = Vec::with_capacity(packed.blocks().len());
        {
            let sim = PackedSim::new(&kernel, Injection::None, budget.max_solver_iterations);
            for block in packed.blocks() {
                if clock.expired() {
                    return Err(SimError::BudgetExceeded {
                        resource: "wall clock",
                    });
                }
                let result = sim.run_block(block);
                if let Some(err) = first_failure(cell, block, &result) {
                    return Err(err);
                }
                blocks.push(result);
            }
        }
        Ok(Golden {
            kernel,
            stimuli: stimuli.into(),
            packed,
            blocks,
        })
    }

    /// The compiled kernel the golden was solved on.
    pub fn kernel(&self) -> &CellKernel {
        &self.kernel
    }

    /// The solved stimuli, in order (shared, so a consumer that keeps
    /// them — an activation — holds the same list, not a copy).
    pub fn stimuli(&self) -> &Arc<[Stimulus]> {
        &self.stimuli
    }

    /// The stimuli transposed into 64-lane blocks.
    pub fn packed(&self) -> &PackedStimulus {
        &self.packed
    }

    /// The defect-free result of each block of [`Golden::packed`].
    pub fn blocks(&self) -> &[BlockResult] {
        &self.blocks
    }
}

/// The error of the first non-convergent lane of `block`, in lane order,
/// checking phase 1 before phase 2 per lane.
fn first_failure(cell: &Cell, block: &StimulusBlock, result: &BlockResult) -> Option<SimError> {
    let mut lanes = block.lanes;
    while lanes != 0 {
        let lane = lanes.trailing_zeros() as usize;
        lanes &= lanes - 1;
        let p1 = result.p1.lane(lane);
        if p1 != LaneOutcome::Converged {
            return Some(lane_error(cell, &result.p1, p1, lane));
        }
        if block.dynamic & (1u64 << lane) != 0 {
            let p2 = result.p2.lane(lane);
            if p2 != LaneOutcome::Converged {
                return Some(lane_error(cell, &result.p2, p2, lane));
            }
        }
    }
    None
}

/// Builds the [`SimError`] a non-convergent golden lane raises, matching
/// the scalar `try_run` error shape: oscillations name the unstable nets
/// in net-index order, budget exhaustion names the solver-iterations
/// resource.
fn lane_error(cell: &Cell, outcomes: &PhaseOutcomes, class: LaneOutcome, lane: usize) -> SimError {
    match class {
        LaneOutcome::Oscillated => SimError::Oscillated {
            nets: (0..cell.nets().len())
                .filter(|&i| outcomes.unstable[i] & (1u64 << lane) != 0)
                .map(|i| cell.nets()[i].name().to_string())
                .collect(),
        },
        _ => SimError::BudgetExceeded {
            resource: "solver iterations",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use ca_netlist::spice;
    use std::time::Duration;

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    const RING: &str = "\
.SUBCKT OSC A Z VDD VSS
MP0 Z A VDD VDD pch
MN0 Z Z net0 VSS nch
MN1 net0 A VSS VSS nch
.ENDS
";

    /// The scalar pre-flight: `try_run` over every stimulus in order.
    fn scalar_check(cell: &Cell, budget: &SimBudget) -> Result<(), SimError> {
        let sim = Simulator::with_budget(cell, Injection::None, budget);
        for s in Stimulus::all(cell.num_inputs()) {
            sim.try_run(&s)?;
        }
        Ok(())
    }

    fn packed_check(cell: &Cell, budget: &SimBudget) -> Result<Golden, SimError> {
        let stimuli = Stimulus::all(cell.num_inputs());
        Golden::solve_checked(cell, stimuli, budget, &budget.start())
    }

    #[test]
    fn checked_solve_matches_the_scalar_verdict() {
        for src in [NAND2, RING] {
            let cell = spice::parse_cell(src).unwrap();
            for cap in [Some(1), Some(2), Some(4), None] {
                let budget = SimBudget {
                    max_solver_iterations: cap,
                    ..SimBudget::unlimited()
                };
                assert_eq!(
                    packed_check(&cell, &budget).map(|_| ()),
                    scalar_check(&cell, &budget),
                    "{} at cap {cap:?}",
                    cell.name()
                );
            }
        }
    }

    #[test]
    fn converged_golden_equals_the_unchecked_solve() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let checked = packed_check(&cell, &SimBudget::unlimited()).unwrap();
        let plain = Golden::solve(&cell, Stimulus::all(cell.num_inputs()));
        assert_eq!(checked.stimuli(), plain.stimuli());
        assert_eq!(checked.blocks().len(), plain.blocks().len());
        for (a, b) in checked.blocks().iter().zip(plain.blocks()) {
            assert_eq!(a.phase1, b.phase1);
            assert_eq!(a.final_values, b.final_values);
        }
    }

    #[test]
    fn expired_clock_fails_before_the_first_block() {
        let cell = spice::parse_cell(RING).unwrap();
        let budget = SimBudget {
            wall_clock: Some(Duration::ZERO),
            ..SimBudget::unlimited()
        };
        // The oscillation is never reached: the clock is checked first.
        assert_eq!(
            packed_check(&cell, &budget).unwrap_err(),
            SimError::BudgetExceeded {
                resource: "wall clock"
            }
        );
    }
}
