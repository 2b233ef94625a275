//! Micro-bench: random forest training and inference on a real
//! CA-matrix group dataset (the §II.B workload).

use ca_bench::corpus::{build_corpus, Profile};
use ca_bench::microbench::BenchGroup;
use ca_core::train_group_forest;
use ca_ml::Classifier;
use ca_netlist::Technology;
use std::collections::BTreeMap;

fn main() {
    let corpus = build_corpus(Technology::Soi28, Profile::Quick);
    // Largest group = the heaviest realistic training job at this scale.
    let mut by_key: BTreeMap<(usize, usize), Vec<&ca_core::PreparedCell>> = BTreeMap::new();
    for cc in corpus.iter() {
        by_key
            .entry(cc.prepared.group_key())
            .or_default()
            .push(&cc.prepared);
    }
    let (key, cells) = by_key
        .into_iter()
        .max_by_key(|(_, v)| v.len())
        .expect("corpus non-empty");
    let params = Profile::Quick.ml_params();
    let mut group = BenchGroup::new("forest");
    group.sample_size(5);
    group.bench(
        &format!("train_group_{}in_{}t_{}cells", key.0, key.1, cells.len()),
        || train_group_forest(&cells, &params).expect("trains"),
    );
    let (forest, data) = train_group_forest(&cells, &params).expect("trains");
    let rows: Vec<usize> = (0..1000.min(data.len())).collect();
    group.bench("predict_1000_rows", || {
        rows.iter()
            .map(|&i| forest.predict(data.row(i)) as usize)
            .sum::<usize>()
    });
    // The same rows through the batched kernel.
    let batch = data.subset(&rows);
    group.bench("predict_batch_1000_rows", || {
        forest
            .predict_batch(&batch)
            .iter()
            .map(|&l| l as usize)
            .sum::<usize>()
    });
    group.finish();
}
