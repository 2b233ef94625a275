//! `ca_ml.predict.rows` counts rows, not calls: one batch adds its row
//! count once, and per-row prediction adds one per row.
//!
//! ONE test function only: the delta is read from the global metric
//! registry, so a sibling test predicting concurrently in this binary
//! would leak its rows into the count.

use ca_ml::{Classifier, Dataset, ForestParams, RandomForest};

fn rows_counted() -> u64 {
    ca_obs::global()
        .snapshot()
        .counters
        .get("ca_ml.predict.rows")
        .map_or(0, |&(_, v)| v)
}

#[test]
fn predict_rows_counter_adds_the_batch_row_count() {
    let mut data = Dataset::new(2);
    for i in 0..5000u32 {
        let x = (i % 10) as f32;
        data.push_row(&[x, (i % 7) as f32], u32::from(x >= 5.0));
    }
    let mut forest = RandomForest::new(ForestParams {
        num_trees: 6,
        ..ForestParams::quick()
    });
    forest.fit(&data);

    let before = rows_counted();
    let batch = forest.predict_batch(&data);
    assert_eq!(rows_counted() - before, data.len() as u64);

    let before = rows_counted();
    let per_row: Vec<u32> = (0..data.len())
        .map(|i| forest.predict(data.row(i)))
        .collect();
    assert_eq!(rows_counted() - before, data.len() as u64);
    assert_eq!(batch, per_row);

    let before = rows_counted();
    assert!(forest.predict_batch(&Dataset::new(2)).is_empty());
    assert_eq!(rows_counted(), before);
}
