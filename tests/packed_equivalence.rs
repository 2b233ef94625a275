//! Differential fuzz: the packed bit-parallel engine vs. the scalar
//! reference solver (DESIGN.md §12).
//!
//! The packed engine is the only production simulation path because it
//! is bit-identical to the scalar reference. These tests drive both
//! over a random synthesized corpus, `ca_netlist::corrupt` salted
//! variants of it, random defect injections and one very wide cell,
//! asserting identical `SimResult` values per lane, identical
//! `SolveOutcome` classes, and identical detection rows. Generation is
//! seeded through `ca-rng`, so every run exercises the same inputs.

use ca_rng::{Rng, SplitMix64};
use cell_aware::defects::{DefectUniverse, DetectionTable};
use cell_aware::netlist::synth::{
    synthesize, DriveStyle, NetlistStyle, Stage, StageExpr, StagePlan,
};
use cell_aware::netlist::{corrupt_cell, spice, Cell, Corruption, NetId, Terminal, TransistorId};
use cell_aware::sim::packed::{PackedSim, PackedStimulus};
use cell_aware::sim::{
    detection_row, detection_row_scalar, CellKernel, DetectionPolicy, Golden, Injection, SimBudget,
    SimError, Simulator, Stimulus, Value,
};

/// Number of random plans each property is checked against.
const CASES: u64 = 12;

/// Random single-stage pull-down expression over `n_inputs` pins, with
/// bounded depth.
fn random_stage_expr(rng: &mut SplitMix64, n_inputs: u8, depth: usize) -> StageExpr {
    if depth == 0 || rng.gen_index(3) == 0 {
        return StageExpr::pin(rng.gen_index(n_inputs as usize) as u8);
    }
    let arity = 2 + rng.gen_index(2);
    let children: Vec<StageExpr> = (0..arity)
        .map(|_| random_stage_expr(rng, n_inputs, depth - 1))
        .collect();
    if rng.gen_bool() {
        StageExpr::And(children)
    } else {
        StageExpr::Or(children)
    }
}

/// A random valid plan: one inverting stage, optionally buffered, kept
/// small (≤ 20 transistors) so the exhaustive comparisons stay fast.
fn random_plan(rng: &mut SplitMix64) -> StagePlan {
    loop {
        let n = 2 + rng.gen_index(2) as u8;
        let expr = random_stage_expr(rng, n, 2);
        let mut stages = vec![Stage::new(expr)];
        if rng.gen_bool() {
            stages.push(Stage::new(StageExpr::stage(0)));
        }
        let plan = StagePlan::new(n, stages).expect("constructed plans are valid");
        if plan.num_transistors() <= 20 {
            return plan;
        }
    }
}

/// Runs `check` against `CASES` random synthesized cells from a fixed
/// seed stream.
fn for_random_cells(seed: u64, mut check: impl FnMut(Cell)) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..CASES {
        let plan = random_plan(&mut rng);
        let s = synthesize(
            "P",
            &plan,
            1,
            DriveStyle::SharedNets,
            &NetlistStyle::default(),
        )
        .expect("valid plan synthesizes");
        check(s.cell);
    }
}

/// A random injection drawn from the same shapes the defect universe
/// uses, plus arbitrary net-net shorts.
fn random_injection(rng: &mut SplitMix64, cell: &Cell) -> Injection {
    const TERMS: [Terminal; 3] = [Terminal::Drain, Terminal::Gate, Terminal::Source];
    let n_t = cell.num_transistors();
    let n_n = cell.nets().len();
    match rng.gen_index(3) {
        0 => Injection::Open {
            transistor: TransistorId(rng.gen_index(n_t) as u32),
            terminal: TERMS[rng.gen_index(3)],
        },
        1 => {
            let a = rng.gen_index(3);
            let b = (a + 1 + rng.gen_index(2)) % 3;
            Injection::Short {
                transistor: TransistorId(rng.gen_index(n_t) as u32),
                a: TERMS[a],
                b: TERMS[b],
            }
        }
        _ => {
            let a = rng.gen_index(n_n);
            let b = (a + 1 + rng.gen_index(n_n - 1)) % n_n;
            Injection::NetShort {
                a: NetId(a as u32),
                b: NetId(b as u32),
            }
        }
    }
}

/// Scalar per-phase net values, in the same shape as
/// `BlockResult::lane_phases`.
fn scalar_phases(cell: &Cell, injection: Injection, stimulus: &Stimulus) -> Vec<Vec<Value>> {
    let result = Simulator::with_injection(cell, injection).run(stimulus);
    (0..result.num_phases())
        .map(|p| {
            (0..cell.nets().len())
                .map(|i| result.value(p, NetId(i as u32)))
                .collect()
        })
        .collect()
}

/// Asserts the packed engine reproduces every scalar net value of every
/// phase, for every stimulus lane, under `injection`.
fn assert_lanes_match(cell: &Cell, injection: Injection, stimuli: &[Stimulus]) {
    let kernel = CellKernel::compile(cell);
    let packed = PackedStimulus::pack(cell.num_inputs(), stimuli);
    let sim = PackedSim::new(&kernel, injection, None);
    let mut si = 0;
    for block in packed.blocks() {
        let result = sim.run_block(block);
        for lane in 0..block.occupancy() {
            assert_eq!(
                result.lane_phases(lane),
                scalar_phases(cell, injection, &stimuli[si]),
                "cell {} injection {injection} stimulus {si}",
                cell.name()
            );
            si += 1;
        }
    }
}

/// The packed table of `cell`: kernel compile, one golden solve, every
/// defect of `universe` against it.
fn packed_table(cell: &Cell, universe: &DefectUniverse, stimuli: &[Stimulus]) -> DetectionTable {
    let golden = Golden::solve(cell, stimuli.to_vec());
    DetectionTable::generate_packed(&golden, universe, DetectionPolicy::default())
}

/// Packed detection tables equal scalar ones over the synthesized
/// corpus (full intra-transistor universe, exhaustive stimuli).
#[test]
fn tables_match_on_synth_corpus() {
    for_random_cells(41, |cell| {
        let universe = DefectUniverse::intra_transistor(&cell);
        let stimuli = Stimulus::all(cell.num_inputs());
        let scalar =
            DetectionTable::generate_scalar(&cell, &universe, &stimuli, DetectionPolicy::default());
        let packed = packed_table(&cell, &universe, &stimuli);
        assert_eq!(packed, scalar, "cell {}", cell.name());
    });
}

/// Packed detection tables equal scalar ones on every corrupted
/// (structurally pathological) variant the corruptor can produce —
/// including oscillator loops, where both engines must force the same
/// `Xd` values at the iteration cap.
#[test]
fn tables_match_on_corrupted_variants() {
    let mut salt = SplitMix64::new(43);
    for_random_cells(42, |cell| {
        for corruption in Corruption::ALL {
            let Ok(bad) = corrupt_cell(&cell, corruption, salt.next_u64()) else {
                continue;
            };
            let universe = DefectUniverse::intra_transistor(&bad);
            let stimuli = Stimulus::all(bad.num_inputs());
            let scalar = DetectionTable::generate_scalar(
                &bad,
                &universe,
                &stimuli,
                DetectionPolicy::default(),
            );
            let packed = packed_table(&bad, &universe, &stimuli);
            assert_eq!(packed, scalar, "{} on {}", corruption.name(), bad.name());
        }
    });
}

/// Per-lane packed values equal scalar `SimResult` values for random
/// injections, across every phase of every stimulus.
#[test]
fn lane_values_match_under_random_injections() {
    let mut inj_rng = SplitMix64::new(45);
    for_random_cells(44, |cell| {
        let stimuli = Stimulus::all(cell.num_inputs());
        assert_lanes_match(&cell, Injection::None, &stimuli);
        for _ in 0..4 {
            assert_lanes_match(&cell, random_injection(&mut inj_rng, &cell), &stimuli);
        }
    });
}

/// The public (packed) `detection_row` agrees with the scalar reference
/// row for random injections.
#[test]
fn detection_rows_match_per_injection() {
    let mut inj_rng = SplitMix64::new(47);
    for_random_cells(46, |cell| {
        let stimuli = Stimulus::all(cell.num_inputs());
        for _ in 0..3 {
            let injection = random_injection(&mut inj_rng, &cell);
            assert_eq!(
                detection_row(&cell, injection, &stimuli, DetectionPolicy::default()),
                detection_row_scalar(&cell, injection, &stimuli, DetectionPolicy::default()),
                "cell {} injection {injection}",
                cell.name()
            );
        }
    });
}

/// The scalar golden pre-flight: `try_run` over every stimulus in
/// order.
fn scalar_preflight(cell: &Cell, stimuli: &[Stimulus], budget: &SimBudget) -> Result<(), SimError> {
    let sim = Simulator::with_budget(cell, Injection::None, budget);
    stimuli.iter().try_for_each(|s| sim.try_run(s).map(drop))
}

/// Budgeted generation — including `SolveOutcome` error classes under a
/// reduced iteration cap and truncation-degraded runs — is identical on
/// the packed engine (checked golden, then the budgeted table) and on
/// the scalar references (`try_run` pre-flight, then the scalar
/// budgeted table).
#[test]
fn budgeted_outcomes_match_scalar_classes() {
    let budgets = [
        SimBudget::unlimited(),
        SimBudget {
            max_solver_iterations: Some(2),
            ..SimBudget::unlimited()
        },
        SimBudget {
            max_stimuli: Some(5),
            max_defects: Some(7),
            ..SimBudget::unlimited()
        },
    ];
    let policy = DetectionPolicy::default();
    let mut salt = SplitMix64::new(49);
    for_random_cells(48, |cell| {
        // The oscillator variant exercises the golden-oscillation error
        // path; the pristine cell exercises the success paths.
        let mut cells = vec![cell.clone()];
        if let Ok(bad) = corrupt_cell(&cell, Corruption::OscillatorLoop, salt.next_u64()) {
            cells.push(bad);
        }
        for cell in &cells {
            let universe = DefectUniverse::intra_transistor(cell);
            let stimuli = Stimulus::all(cell.num_inputs());
            for budget in &budgets {
                let clock = budget.start();
                let scalar = scalar_preflight(cell, &stimuli, budget).and_then(|()| {
                    DetectionTable::generate_budgeted_scalar(
                        cell, &universe, &stimuli, policy, budget, &clock,
                    )
                });
                let packed = Golden::solve_checked(cell, stimuli.clone(), budget, &clock).and_then(
                    |golden| {
                        DetectionTable::generate_budgeted(
                            &golden, &universe, policy, budget, &clock,
                        )
                    },
                );
                assert_eq!(packed, scalar, "cell {}", cell.name());
            }
        }
    });
}

/// Inverters on one input, each driving its own net, plus an output
/// inverter on the first: `width + 4` nets, wide and shallow.
fn wide_cell(width: usize) -> Cell {
    let mut src = String::from(".SUBCKT WIDE A Z VDD VSS\n");
    for i in 0..width {
        src.push_str(&format!(
            "MP{i} N{i} A VDD VDD pch\nMN{i} N{i} A VSS VSS nch\n"
        ));
    }
    src.push_str("MPZ Z N0 VDD VDD pch\nMNZ Z N0 VSS VSS nch\n.ENDS\n");
    spice::parse_cell(&src).expect("the wide cell parses")
}

/// A cell with more than 512 nets, far wider than any library cell,
/// compiles and runs on the packed engine with the scalar reference's
/// verdicts and rows.
#[test]
fn cells_beyond_the_old_kernel_envelope_match_scalar() {
    let cell = wide_cell(520);
    assert!(cell.nets().len() > 512, "{} nets", cell.nets().len());
    let kernel = CellKernel::compile(&cell);
    assert_eq!(kernel.n_nets(), cell.nets().len());
    let stimuli = Stimulus::all(cell.num_inputs());
    for cap in [Some(1), Some(2), None] {
        let budget = SimBudget {
            max_solver_iterations: cap,
            ..SimBudget::unlimited()
        };
        let packed = Golden::solve_checked(&cell, stimuli.clone(), &budget, &budget.start());
        let scalar = scalar_preflight(&cell, &stimuli, &budget);
        assert_eq!(packed.map(drop), scalar, "cap {cap:?}");
    }
    let t = |name: &str| cell.find_transistor(name).expect("named device");
    let n = |name: &str| cell.find_net(name).expect("named net");
    let policy = DetectionPolicy::default();
    for injection in [
        Injection::Open {
            transistor: t("MN0"),
            terminal: Terminal::Drain,
        },
        Injection::Short {
            transistor: t("MPZ"),
            a: Terminal::Drain,
            b: Terminal::Source,
        },
        Injection::NetShort {
            a: n("N0"),
            b: n("VSS"),
        },
        Injection::Open {
            transistor: t("MP300"),
            terminal: Terminal::Gate,
        },
    ] {
        assert_eq!(
            detection_row(&cell, injection, &stimuli, policy),
            detection_row_scalar(&cell, injection, &stimuli, policy),
            "{injection}"
        );
    }
}
