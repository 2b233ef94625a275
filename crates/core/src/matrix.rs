//! CA-matrix assembly and ML feature encoding (paper Table I, §III/IV).
//!
//! One CA-matrix row is one ⟨stimulus, defect⟩ pair:
//!
//! | columns | content |
//! |---|---|
//! | `n` | input waves, `{0,1,R,F}` coded `0..=3` |
//! | `1` | golden output wave |
//! | `T` | per canonical transistor: activity wave code |
//! | `3T` | per canonical transistor: defect flags on D, G, S |
//! | `1` | defect kind: 0 = free, 1 = open, 2 = short |
//!
//! The label (not part of the features) is the detection bit. Defect-free
//! "free" rows (Table I) carry all-zero flags and label 0. Because all
//! per-transistor columns are indexed by *canonical* position, rows from
//! different cells of the same (inputs, transistors) group align.

use crate::activation::Activation;
use crate::canonical::CanonicalCell;
use crate::error::CoreError;
use ca_defects::{BitRow, CaModel, DefectKind, DefectUniverse, GenerateOptions};
use ca_ml::forest::PREDICT_BLOCK_ROWS;
use ca_ml::{Classifier, Dataset};
use ca_netlist::{Cell, Terminal};
use ca_sim::{BudgetClock, Golden, Injection, SimBudget, Stimulus};

/// Rejects cells the CA-matrix encoding cannot represent. The paper's
/// CA-matrix has a single response column; the conventional flow
/// (`CaModel::generate`) handles multi-output cells, the ML encoding
/// does not.
fn single_output(cell: &Cell) -> Result<(), CoreError> {
    if cell.outputs().len() == 1 {
        return Ok(());
    }
    Err(CoreError::Unsupported(format!(
        "cell `{}` has {} outputs; the CA-matrix encoding is single-output",
        cell.name(),
        cell.outputs().len()
    )))
}

/// Fixed column layout of a cell group's CA-matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixLayout {
    /// Number of primary inputs of the group.
    pub num_inputs: usize,
    /// Number of transistors of the group.
    pub num_transistors: usize,
}

impl MatrixLayout {
    /// Total number of feature columns.
    pub fn num_features(self) -> usize {
        self.num_inputs + 1 + self.num_transistors + 3 * self.num_transistors + 1
    }

    /// Column index of input pin `i`'s wave.
    pub fn input_col(self, i: usize) -> usize {
        i
    }

    /// Column index of the golden output wave.
    pub fn output_col(self) -> usize {
        self.num_inputs
    }

    /// Column index of canonical transistor `k`'s activity wave.
    pub fn activity_col(self, k: usize) -> usize {
        self.num_inputs + 1 + k
    }

    /// Column index of the defect flag for canonical transistor `k`,
    /// terminal `term`.
    pub fn defect_col(self, k: usize, term: Terminal) -> usize {
        let offset = match term {
            Terminal::Drain => 0,
            Terminal::Gate => 1,
            Terminal::Source => 2,
            Terminal::Bulk => panic!("bulk terminals are not part of the CA-matrix"),
        };
        self.num_inputs + 1 + self.num_transistors + 3 * k + offset
    }

    /// Column index of the defect-kind code.
    pub fn kind_col(self) -> usize {
        self.num_features() - 1
    }

    /// Human-readable column names (`A`, ..., `Z`, `N0`, ..., `N0_D`, ...).
    pub fn column_names(self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.num_features());
        for i in 0..self.num_inputs {
            names.push(((b'A' + i as u8) as char).to_string());
        }
        names.push("Z".into());
        for k in 0..self.num_transistors {
            names.push(format!("T{k}"));
        }
        for k in 0..self.num_transistors {
            for term in [Terminal::Drain, Terminal::Gate, Terminal::Source] {
                names.push(format!("T{k}_{term}"));
            }
        }
        names.push("kind".into());
        names
    }
}

/// A cell with everything the ML flow needs: activation, canonical view,
/// defect universe and (for training cells) the ground-truth CA model.
#[derive(Debug, Clone)]
pub struct PreparedCell {
    /// The transistor netlist.
    pub cell: Cell,
    /// Golden activation information.
    pub activation: Activation,
    /// Canonical (renamed) view.
    pub canonical: CanonicalCell,
    /// Defect universe (intra-transistor).
    pub universe: DefectUniverse,
    /// Ground-truth CA model, present for training cells.
    pub model: Option<CaModel>,
}

impl PreparedCell {
    /// Prepares a *training* cell: runs the conventional flow to obtain
    /// ground-truth labels. The golden is solved once and feeds both the
    /// activation and the detection table.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GoldenNotBinary`] for invalid netlists.
    pub fn characterize(cell: Cell, options: GenerateOptions) -> Result<PreparedCell, CoreError> {
        let golden = PreparedCell::plain_golden(&cell)?;
        let mut prepared = PreparedCell::prepare_with(cell, &golden)?;
        prepared.model = Some(CaModel::generate_packed(&prepared.cell, &golden, options));
        Ok(prepared)
    }

    /// Like [`PreparedCell::characterize`], but runs the conventional
    /// flow under a [`SimBudget`]: oscillation and exhausted budgets
    /// become errors instead of silently X-forced values. The golden
    /// must converge on every stimulus under the budget's iteration
    /// cap, exactly as in the robust pipeline's pre-flight, and that one
    /// solve feeds the activation and the detection table.
    ///
    /// Truncating budgets (`max_stimuli` / `max_defects`) produce a
    /// [degraded](CaModel::degraded) model; the prepared cell's universe
    /// is aligned with the (possibly truncated) model universe. Degraded
    /// cells must not be used as ML training cells — their detection
    /// rows cover fewer stimuli than the activation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SolverDiverged`] when the golden cell
    /// oscillates, [`CoreError::BudgetExceeded`] when the wall clock or
    /// iteration budget runs out, and the usual prepare errors.
    pub fn characterize_budgeted(
        cell: Cell,
        options: GenerateOptions,
        budget: &SimBudget,
    ) -> Result<PreparedCell, CoreError> {
        let clock = budget.start();
        let stimuli = Stimulus::all(cell.num_inputs());
        let golden = Golden::solve_checked(&cell, stimuli, budget, &clock)
            .map_err(|e| CoreError::from_sim(cell.name(), e))?;
        PreparedCell::characterize_budgeted_with(cell, options, budget, &clock, &golden)
    }

    /// [`PreparedCell::characterize_budgeted`] inside a run timed by
    /// `clock`, against the run's checked golden solve (see
    /// [`CaModel::generate_budgeted`]). Generation runs before
    /// preparation, so budget failures take precedence over prepare
    /// errors.
    pub(crate) fn characterize_budgeted_with(
        cell: Cell,
        options: GenerateOptions,
        budget: &SimBudget,
        clock: &BudgetClock,
        golden: &Golden,
    ) -> Result<PreparedCell, CoreError> {
        let model = CaModel::generate_budgeted(&cell, options, budget, clock, golden)
            .map_err(|e| CoreError::from_sim(cell.name(), e))?;
        let mut prepared = PreparedCell::prepare_with(cell, golden)?;
        prepared.universe = model.universe.clone();
        prepared.model = Some(model);
        Ok(prepared)
    }

    /// Prepares a *new* cell for inference (no labels). Only the
    /// defect-free golden simulation is run — this is the cheap part the
    /// ML flow keeps from Fig. 1.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GoldenNotBinary`] for invalid netlists.
    pub fn prepare(cell: Cell) -> Result<PreparedCell, CoreError> {
        let golden = PreparedCell::plain_golden(&cell)?;
        PreparedCell::prepare_with(cell, &golden)
    }

    /// [`PreparedCell::prepare`], extracting the activation from
    /// `golden`, the caller's golden solve of `cell` over
    /// [`ca_sim::Stimulus::all`].
    pub(crate) fn prepare_with(cell: Cell, golden: &Golden) -> Result<PreparedCell, CoreError> {
        single_output(&cell)?;
        let activation = Activation::from_golden(&cell, golden)?;
        let canonical = CanonicalCell::build(&cell, &activation)?;
        let universe = DefectUniverse::intra_transistor(&cell);
        Ok(PreparedCell {
            cell,
            activation,
            canonical,
            universe,
            model: None,
        })
    }

    /// The golden solve the plain conventional flow shares between
    /// activation extraction and the detection table: the natural
    /// iteration bound with X-forcing, exactly what each solved on its
    /// own.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] for multi-output cells, before any
    /// simulation is spent on them.
    pub(crate) fn plain_golden(cell: &Cell) -> Result<Golden, CoreError> {
        single_output(cell)?;
        Ok(Golden::solve(cell, Stimulus::all(cell.num_inputs())))
    }

    /// The (inputs, transistors) group key used for training/inference
    /// grouping (paper §II.B).
    pub fn group_key(&self) -> (usize, usize) {
        (self.cell.num_inputs(), self.cell.num_transistors())
    }

    /// The matrix layout of this cell's group.
    pub fn layout(&self) -> MatrixLayout {
        MatrixLayout {
            num_inputs: self.cell.num_inputs(),
            num_transistors: self.cell.num_transistors(),
        }
    }

    /// Encodes the feature row for (`stimulus` index, defect `injection`).
    ///
    /// Pass [`Injection::None`] for a "free" row.
    pub fn encode_row(&self, stimulus: usize, injection: Injection) -> Vec<f32> {
        let layout = self.layout();
        let mut row = vec![0.0f32; layout.num_features()];
        let (head, tail) = row.split_at_mut(layout.defect_col(0, Terminal::Drain));
        self.encode_stimulus(stimulus, head);
        self.encode_defect(injection, tail);
        row
    }

    /// Writes the stimulus columns of a row — inputs, golden output and
    /// activities, every column before the first defect flag — into the
    /// zeroed `out`.
    fn encode_stimulus(&self, stimulus: usize, out: &mut [f32]) {
        let layout = self.layout();
        let stim = &self.activation.stimuli()[stimulus];
        for (i, w) in stim.waves().iter().enumerate() {
            out[layout.input_col(i)] = w.code() as f32;
        }
        out[layout.output_col()] = self.activation.output_waves()[stimulus].code() as f32;
        for (tid, _) in self.cell.transistor_ids() {
            let k = self.canonical.position(tid);
            out[layout.activity_col(k)] =
                self.activation.transistor_wave(stimulus, tid).code() as f32;
        }
    }

    /// Writes the defect columns of a row — flags and kind, every column
    /// from the first defect flag on — into the zeroed `out`.
    fn encode_defect(&self, injection: Injection, out: &mut [f32]) {
        let layout = self.layout();
        let base = layout.defect_col(0, Terminal::Drain);
        let mut flag = |tid: ca_netlist::TransistorId, term: Terminal| {
            let k = self.canonical.position(tid);
            out[layout.defect_col(k, term) - base] = 1.0;
        };
        let kind_code = match injection {
            Injection::None => 0.0,
            Injection::Open {
                transistor,
                terminal,
            } => {
                flag(transistor, terminal);
                1.0
            }
            Injection::Short { transistor, a, b } => {
                flag(transistor, a);
                flag(transistor, b);
                2.0
            }
            Injection::NetShort { a, b } => {
                for (tid, t) in self.cell.transistor_ids() {
                    for term in Terminal::CHANNEL_AND_GATE {
                        if t.terminal(term) == a || t.terminal(term) == b {
                            flag(tid, term);
                        }
                    }
                }
                2.0
            }
        };
        out[layout.kind_col() - base] = kind_code;
    }

    /// Builds the labelled training rows of this cell: one row per
    /// ⟨defect, stimulus⟩ plus the defect-free rows.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no ground-truth model.
    pub fn training_rows(&self, out: &mut Dataset) {
        let model = self
            .model
            .as_ref()
            .expect("training_rows requires a characterized cell");
        let defects = self.universe.defects();
        // Injection 0 is the defect-free one: its rows come first,
        // labelled 0.
        let injections =
            std::iter::once(Injection::None).chain(defects.iter().map(|d| d.injection));
        let encoder = RowEncoder::new(self, injections);
        encoder.push_rows(0..encoder.len(), out, |d, s| match d.checked_sub(1) {
            None => 0,
            Some(d) => u32::from(model.detects(defects[d].id, s)),
        });
    }

    /// Predicts a full CA model with `classifier`: a ⟨defect, stimulus⟩
    /// row is detected when it predicts class 1. The rows are encoded and
    /// predicted in blocks of [`PREDICT_BLOCK_ROWS`], so memory grows with
    /// the cell's stimuli plus its defects, not with their product.
    pub fn predict_model(&self, classifier: &dyn Classifier) -> CaModel {
        let n_stimuli = self.activation.stimuli().len();
        let encoder = RowEncoder::new(self, self.universe.defects().iter().map(|d| d.injection));
        let mut rows = vec![BitRow::zeros(n_stimuli); self.universe.len()];
        let mut block = Dataset::new(self.layout().num_features());
        for first in (0..encoder.len()).step_by(PREDICT_BLOCK_ROWS) {
            let end = (first + PREDICT_BLOCK_ROWS).min(encoder.len());
            block.clear();
            encoder.push_rows(first..end, &mut block, |_, _| 0);
            for (r, label) in (first..end).zip(classifier.predict_batch(&block)) {
                rows[r / n_stimuli].set(r % n_stimuli, label == 1);
            }
        }
        CaModel::from_rows(&self.cell, self.universe.clone(), rows)
    }

    /// Prediction accuracy of `predicted` against this cell's ground
    /// truth (all defects).
    ///
    /// # Panics
    ///
    /// Panics if the cell has no ground-truth model.
    pub fn accuracy_of(&self, predicted: &CaModel) -> f64 {
        self.model
            .as_ref()
            .expect("accuracy requires ground truth")
            .agreement(predicted)
    }

    /// Prediction accuracy restricted to one defect category; the paper
    /// reports opens and shorts separately (§V.A).
    ///
    /// # Panics
    ///
    /// Panics if the cell has no ground-truth model.
    pub fn accuracy_of_kind(&self, predicted: &CaModel, kind: DefectKind) -> f64 {
        self.model
            .as_ref()
            .expect("accuracy requires ground truth")
            .agreement_of_kind(predicted, kind)
    }

    /// Number of defect kinds in the universe: `(opens, shorts)`.
    pub fn defect_counts(&self) -> (usize, usize) {
        let opens = self
            .universe
            .defects()
            .iter()
            .filter(|d| d.kind == DefectKind::Open)
            .count();
        (opens, self.universe.len() - opens)
    }
}

/// Encodes the rows of a list of injections × every stimulus, injection
/// by injection, from two tables computed once: the stimulus columns of
/// each stimulus and the defect columns of each injection. A row is one
/// entry of each, side by side, because the layout puts every stimulus
/// column before the first defect flag.
struct RowEncoder {
    /// Stimulus columns per row.
    split: usize,
    /// Defect columns per row.
    width: usize,
    n_stimuli: usize,
    stimuli: Vec<f32>,
    defects: Vec<f32>,
}

impl RowEncoder {
    fn new(cell: &PreparedCell, injections: impl Iterator<Item = Injection>) -> RowEncoder {
        let layout = cell.layout();
        let split = layout.defect_col(0, Terminal::Drain);
        let width = layout.num_features() - split;
        let n_stimuli = cell.activation.stimuli().len();
        let mut stimuli = vec![0.0f32; n_stimuli * split];
        for (s, cols) in stimuli.chunks_exact_mut(split).enumerate() {
            cell.encode_stimulus(s, cols);
        }
        let mut defects = Vec::new();
        for injection in injections {
            let at = defects.len();
            defects.resize(at + width, 0.0);
            cell.encode_defect(injection, &mut defects[at..]);
        }
        RowEncoder {
            split,
            width,
            n_stimuli,
            stimuli,
            defects,
        }
    }

    /// Number of rows: injections × stimuli.
    fn len(&self) -> usize {
        self.defects.len() / self.width * self.n_stimuli
    }

    /// Appends rows `rows` (row `r` is injection `r / n_stimuli`, stimulus
    /// `r % n_stimuli`) to `out`, labelled `label(injection, stimulus)`.
    fn push_rows(
        &self,
        rows: std::ops::Range<usize>,
        out: &mut Dataset,
        mut label: impl FnMut(usize, usize) -> u32,
    ) {
        let (split, width) = (self.split, self.width);
        let mut row = vec![0.0f32; split + width];
        for r in rows {
            let (d, s) = (r / self.n_stimuli, r % self.n_stimuli);
            row[..split].copy_from_slice(&self.stimuli[s * split..(s + 1) * split]);
            row[split..].copy_from_slice(&self.defects[d * width..(d + 1) * width]);
            out.push_row(&row, label(d, s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::spice;

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MPX Z A VDD VDD pch
MPY Z B VDD VDD pch
MN10 Z A net0 VSS nch
MN11 net0 B VSS VSS nch
.ENDS
";

    fn prepared() -> PreparedCell {
        let cell = spice::parse_cell(NAND2).unwrap();
        PreparedCell::characterize(cell, GenerateOptions::default()).unwrap()
    }

    #[test]
    fn layout_indices_are_disjoint_and_dense() {
        let layout = MatrixLayout {
            num_inputs: 2,
            num_transistors: 4,
        };
        assert_eq!(layout.num_features(), 2 + 1 + 4 + 12 + 1);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2 {
            assert!(seen.insert(layout.input_col(i)));
        }
        assert!(seen.insert(layout.output_col()));
        for k in 0..4 {
            assert!(seen.insert(layout.activity_col(k)));
            for t in [Terminal::Drain, Terminal::Gate, Terminal::Source] {
                assert!(seen.insert(layout.defect_col(k, t)));
            }
        }
        assert!(seen.insert(layout.kind_col()));
        assert_eq!(seen.len(), layout.num_features());
        assert_eq!(layout.column_names().len(), layout.num_features());
    }

    #[test]
    fn free_row_has_zero_flags() {
        let p = prepared();
        let layout = p.layout();
        let row = p.encode_row(0, Injection::None);
        assert_eq!(row[layout.kind_col()], 0.0);
        for k in 0..4 {
            for t in [Terminal::Drain, Terminal::Gate, Terminal::Source] {
                assert_eq!(row[layout.defect_col(k, t)], 0.0);
            }
        }
        // AB=00: both PMOS active, both NMOS passive.
        assert_eq!(row[layout.input_col(0)], 0.0);
        assert_eq!(row[layout.output_col()], 1.0);
    }

    #[test]
    fn short_row_flags_both_terminals() {
        let p = prepared();
        let layout = p.layout();
        let mpx = p.cell.find_transistor("MPX").unwrap();
        let injection = Injection::Short {
            transistor: mpx,
            a: Terminal::Drain,
            b: Terminal::Source,
        };
        let row = p.encode_row(0, injection);
        let k = p.canonical.position(mpx);
        assert_eq!(row[layout.defect_col(k, Terminal::Drain)], 1.0);
        assert_eq!(row[layout.defect_col(k, Terminal::Source)], 1.0);
        assert_eq!(row[layout.defect_col(k, Terminal::Gate)], 0.0);
        assert_eq!(row[layout.kind_col()], 2.0);
        let flags: f32 = (0..4)
            .flat_map(|k| {
                [Terminal::Drain, Terminal::Gate, Terminal::Source]
                    .map(|t| row[layout.defect_col(k, t)])
            })
            .sum();
        assert_eq!(flags, 2.0);
    }

    #[test]
    fn training_rows_count_and_labels() {
        let p = prepared();
        let layout = p.layout();
        let mut data = Dataset::new(layout.num_features());
        p.training_rows(&mut data);
        // 16 free rows + 24 defects x 16 stimuli.
        assert_eq!(data.len(), 16 + 24 * 16);
        // Free rows are labelled 0.
        for i in 0..16 {
            assert_eq!(data.label(i), 0);
        }
        // Some defect rows are labelled 1.
        assert!(data.labels().contains(&1));
    }

    #[test]
    fn training_rows_match_per_row_encoding() {
        let p = prepared();
        let truth = p.model.as_ref().unwrap();
        let mut reference = Dataset::new(p.layout().num_features());
        for s in 0..16 {
            reference.push_row(&p.encode_row(s, Injection::None), 0);
        }
        for d in p.universe.defects() {
            for s in 0..16 {
                let label = u32::from(truth.detects(d.id, s));
                reference.push_row(&p.encode_row(s, d.injection), label);
            }
        }
        let mut data = Dataset::new(p.layout().num_features());
        p.training_rows(&mut data);
        assert_eq!(data, reference);
    }

    /// Answers the rows in the order they are asked, from a script.
    struct Oracle {
        answers: Vec<bool>,
        next: std::cell::Cell<usize>,
    }

    impl Classifier for Oracle {
        fn fit(&mut self, _: &Dataset) {}

        fn predict(&self, _: &[f32]) -> u32 {
            let i = self.next.get();
            self.next.set(i + 1);
            u32::from(self.answers[i])
        }
    }

    #[test]
    fn perfect_oracle_reproduces_ground_truth() {
        let p = prepared();
        let truth = p.model.clone().unwrap();
        // An oracle that re-simulates is exactly the conventional flow;
        // emulate it by looking labels up from the truth model.
        let universe = p.universe.clone();
        let mut cursor = Vec::new();
        for d in universe.defects() {
            for s in 0..16 {
                cursor.push(truth.detects(d.id, s));
            }
        }
        let oracle = Oracle {
            answers: cursor,
            next: std::cell::Cell::new(0),
        };
        let predicted = p.predict_model(&oracle);
        assert!((p.accuracy_of(&predicted) - 1.0).abs() < 1e-12);
        assert_eq!(predicted.classes.len(), truth.classes.len());
    }

    #[test]
    fn defect_counts_split() {
        let p = prepared();
        assert_eq!(p.defect_counts(), (12, 12));
    }

    #[test]
    fn budgeted_characterization_matches_unlimited() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let p = PreparedCell::characterize_budgeted(
            cell,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
        )
        .unwrap();
        let q = prepared();
        assert_eq!(p.model.as_ref().unwrap(), q.model.as_ref().unwrap());
        assert!(!p.model.as_ref().unwrap().degraded);
    }

    #[test]
    fn budgeted_characterization_truncates_universe() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let budget = SimBudget {
            max_defects: Some(10),
            ..SimBudget::unlimited()
        };
        let p =
            PreparedCell::characterize_budgeted(cell, GenerateOptions::default(), &budget).unwrap();
        let model = p.model.as_ref().unwrap();
        assert!(model.degraded);
        assert_eq!(model.universe.len(), 10);
        // The prepared universe is aligned with the truncated model.
        assert_eq!(p.universe.len(), 10);
    }
}
