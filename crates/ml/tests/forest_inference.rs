//! Differential suite: `RandomForest::predict_batch` (the batched,
//! early-exit kernel) must equal per-row `Classifier::predict` on every
//! row — tied votes, one class, three classes, root-leaf trees,
//! non-finite features, empty batches and every block boundary.

use ca_ml::forest::PREDICT_BLOCK_ROWS;
use ca_ml::{Classifier, Dataset, ForestParams, RandomForest};
use ca_rng::{Rng, Xoshiro256StarStar};

/// `rows` random rows of small integer codes (the CA-matrix's domain)
/// plus one continuous column; the label follows the first two columns,
/// with `noise` of the labels drawn at random from `0..classes`.
fn random_data(seed: u64, rows: usize, classes: u32, noise: f64) -> Dataset {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut data = Dataset::new(6);
    for _ in 0..rows {
        let mut row = [0.0f32; 6];
        for v in &mut row[..5] {
            *v = rng.gen_index(4) as f32;
        }
        row[5] = rng.gen_f64() as f32 * 10.0;
        let label = if rng.gen_f64() < noise {
            rng.gen_index(classes as usize) as u32
        } else {
            (row[0] as u32 + row[1] as u32) % classes
        };
        data.push_row(&row, label);
    }
    data
}

fn forest(num_trees: usize, seed: u64, data: &Dataset) -> RandomForest {
    let mut forest = RandomForest::new(ForestParams {
        num_trees,
        max_depth: 8,
        seed,
        ..ForestParams::quick()
    });
    forest.fit(data);
    forest
}

/// Asserts batch == per-row on `data`, returning how many rows had a
/// tied top vote (so callers can check ties were exercised).
fn assert_batch_matches_rows(forest: &RandomForest, data: &Dataset) -> usize {
    let batch = forest.predict_batch(data);
    assert_eq!(batch.len(), data.len());
    let mut ties = 0;
    for (i, &got) in batch.iter().enumerate() {
        let row = data.row(i);
        assert_eq!(got, forest.predict(row), "row {i}: {row:?}");
        let proba = forest.predict_proba(row);
        let top = proba.iter().copied().fold(f64::MIN, f64::max);
        if proba.iter().filter(|&&p| p == top).count() > 1 {
            ties += 1;
            // The tie rule: the highest tied class wins.
            let last = proba.iter().rposition(|&p| p == top).unwrap();
            assert_eq!(got as usize, last, "row {i}: {proba:?}");
        }
    }
    ties
}

#[test]
fn even_tree_counts_break_ties_like_per_row_predict() {
    let mut ties = 0;
    for (seed, num_trees) in [(1, 2), (2, 4), (3, 6), (4, 40)] {
        let train = random_data(seed, 400, 2, 0.4);
        let forest = forest(num_trees, seed, &train);
        ties += assert_batch_matches_rows(&forest, &random_data(seed + 100, 600, 2, 0.0));
    }
    assert!(
        ties > 0,
        "noisy labels on even forests must produce tied votes"
    );
}

#[test]
fn single_class_data_predicts_that_class() {
    let train = random_data(5, 200, 1, 0.0);
    let forest = forest(7, 5, &train);
    let eval = random_data(6, 300, 2, 0.0);
    assert_batch_matches_rows(&forest, &eval);
    assert!(forest.predict_batch(&eval).iter().all(|&l| l == 0));
}

#[test]
fn three_class_data_matches() {
    for (seed, num_trees) in [(7, 3), (8, 6), (9, 40)] {
        let forest = forest(num_trees, seed, &random_data(seed, 500, 3, 0.3));
        assert_batch_matches_rows(&forest, &random_data(seed + 100, 700, 3, 0.0));
    }
}

#[test]
fn root_leaf_trees_match() {
    // Constant features leave no split: every tree is a single leaf.
    let mut train = Dataset::new(3);
    for i in 0..50 {
        train.push_row(&[1.0, 2.0, 3.0], u32::from(i % 3 == 0));
    }
    for num_trees in [1, 2, 10] {
        let forest = forest(num_trees, 11, &train);
        assert_batch_matches_rows(&forest, &train);
    }
}

#[test]
fn non_finite_features_match() {
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
    let mut rng = Xoshiro256StarStar::seed_from_u64(13);
    let mut train = random_data(13, 400, 2, 0.2);
    for i in 0..40 {
        let mut row = train.row(i).to_vec();
        row[rng.gen_index(6)] = specials[i % specials.len()];
        train.push_row(&row, train.label(i));
    }
    let forest = forest(10, 13, &train);
    let mut eval = Dataset::new(6);
    for i in 0..500u64 {
        let mut row = random_data(1000 + i, 1, 2, 0.0).row(0).to_vec();
        for v in &mut row {
            if rng.gen_f64() < 0.3 {
                *v = specials[rng.gen_index(specials.len())];
            }
        }
        eval.push_row(&row, 0);
    }
    assert_batch_matches_rows(&forest, &eval);
}

#[test]
fn empty_batch_is_empty() {
    let forest = forest(4, 17, &random_data(17, 100, 2, 0.1));
    assert!(forest.predict_batch(&Dataset::new(6)).is_empty());
    // An unfitted forest has nothing to predict with, but an empty batch
    // asks for nothing.
    let unfitted = RandomForest::new(ForestParams::quick());
    assert!(unfitted.predict_batch(&Dataset::new(6)).is_empty());
}

#[test]
fn batches_either_side_of_the_block_size_match() {
    let forest = forest(8, 19, &random_data(19, 300, 2, 0.3));
    let eval = random_data(20, 2 * PREDICT_BLOCK_ROWS + 1, 2, 0.0);
    for rows in [
        1,
        PREDICT_BLOCK_ROWS - 1,
        PREDICT_BLOCK_ROWS,
        PREDICT_BLOCK_ROWS + 1,
        2 * PREDICT_BLOCK_ROWS + 1,
    ] {
        let idx: Vec<usize> = (0..rows).collect();
        assert_batch_matches_rows(&forest, &eval.subset(&idx));
    }
}
