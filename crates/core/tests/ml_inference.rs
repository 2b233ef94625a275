//! Differential suite: the ML flow's block encoder and batched forest
//! kernel must produce the same `.cam` bytes as the per-row reference —
//! every ⟨defect, stimulus⟩ row encoded on its own and voted by
//! `Classifier::predict` — over the quick Soi28 corpus, at one and four
//! threads.

use ca_core::{train_group_forest, Executor, MlFlow, MlFlowParams, PreparedCell};
use ca_defects::{to_cam, BitRow, CaModel, GenerateOptions};
use ca_ml::{Classifier, RandomForest};
use ca_netlist::library::{generate_library, LibraryConfig};
use ca_netlist::Technology;
use std::collections::BTreeMap;

fn per_row_model(prepared: &PreparedCell, forest: &RandomForest) -> CaModel {
    let n_stimuli = prepared.activation.stimuli().len();
    let rows = prepared
        .universe
        .defects()
        .iter()
        .map(|defect| {
            let mut row = BitRow::zeros(n_stimuli);
            for s in 0..n_stimuli {
                row.set(
                    s,
                    forest.predict(&prepared.encode_row(s, defect.injection)) == 1,
                );
            }
            row
        })
        .collect();
    CaModel::from_rows(&prepared.cell, prepared.universe.clone(), rows)
}

#[test]
fn ml_predictions_match_the_per_row_reference() {
    let corpus: Vec<PreparedCell> = generate_library(&LibraryConfig::quick(Technology::Soi28))
        .cells
        .into_iter()
        .filter_map(|lc| PreparedCell::characterize(lc.cell, GenerateOptions::default()).ok())
        .collect();
    // A smaller row cap than the quick profile's keeps training cheap in
    // unoptimized test builds; inference is what this suite checks, and
    // the forests keep the quick profile's even tree count, so tied votes
    // occur.
    let params = MlFlowParams {
        max_rows_per_cell: Some(2_000),
        ..MlFlowParams::quick()
    };
    let flow = MlFlow::train(&corpus, params.clone()).expect("corpus is characterized");

    // The reference trains each group's forest on its own, as the flow
    // does, and predicts row by row.
    let mut groups: BTreeMap<(usize, usize), Vec<&PreparedCell>> = BTreeMap::new();
    for prepared in &corpus {
        groups
            .entry(prepared.group_key())
            .or_default()
            .push(prepared);
    }
    let forests: BTreeMap<(usize, usize), RandomForest> = groups
        .into_iter()
        .map(|(key, cells)| {
            let (forest, _) = train_group_forest(&cells, &params).expect("group trains");
            (key, forest)
        })
        .collect();
    let reference: Vec<String> = corpus
        .iter()
        .map(|p| to_cam(&per_row_model(p, &forests[&p.group_key()])))
        .collect();

    for threads in [1, 4] {
        let predicted = flow
            .predict_batch(&corpus, &Executor::with_threads(threads))
            .expect("every corpus cell is covered");
        assert_eq!(predicted.len(), corpus.len());
        for ((prepared, model), want) in corpus.iter().zip(&predicted).zip(&reference) {
            assert_eq!(
                &to_cam(model),
                want,
                "{} at {threads} threads",
                prepared.cell.name()
            );
        }
    }
}
