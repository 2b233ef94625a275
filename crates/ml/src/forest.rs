//! Random Forest classifier: bagged CART trees with feature subsampling.
//!
//! This is the classifier the paper selects after comparing k-NN, SVM,
//! linear and ridge models (§II.B). Determinism: all randomness derives
//! from [`ForestParams::seed`].

use crate::data::Dataset;
use crate::tree::{DecisionTree, TreeParams};
use crate::Classifier;
use ca_rng::{Rng, Xoshiro256StarStar};

/// Hyperparameters of a random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub num_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features examined per split; `None` = `sqrt(num_features)`.
    pub max_features: Option<usize>,
    /// Bootstrap sample size as a fraction of the training set.
    pub bootstrap_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> ForestParams {
        ForestParams {
            num_trees: 100,
            max_depth: 24,
            min_samples_leaf: 1,
            max_features: None,
            bootstrap_fraction: 1.0,
            seed: 0,
        }
    }
}

impl ForestParams {
    /// A smaller, faster configuration for tests and quick sweeps.
    pub fn quick() -> ForestParams {
        ForestParams {
            num_trees: 40,
            max_depth: 20,
            ..ForestParams::default()
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    params: ForestParams,
    trees: Vec<DecisionTree>,
    num_classes: usize,
}

impl RandomForest {
    /// Creates an untrained forest.
    pub fn new(params: ForestParams) -> RandomForest {
        RandomForest {
            params,
            trees: Vec::new(),
            num_classes: 0,
        }
    }

    /// Number of trained trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean per-feature importance across trees (normalized to sum to 1,
    /// empty before training).
    pub fn feature_importance(&self) -> Vec<f64> {
        if self.trees.is_empty() {
            return Vec::new();
        }
        let n = self.trees[0].feature_importance().len();
        let mut sum = vec![0.0f64; n];
        for tree in &self.trees {
            for (s, &v) in sum.iter_mut().zip(tree.feature_importance()) {
                *s += v;
            }
        }
        let total: f64 = sum.iter().sum();
        if total > 0.0 {
            for v in &mut sum {
                *v /= total;
            }
        }
        sum
    }

    /// Per-class vote fractions for `row` (sums to 1).
    ///
    /// # Panics
    ///
    /// Panics if called before [`Classifier::fit`].
    pub fn predict_proba(&self, row: &[f32]) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "predict before fit");
        ca_obs::counter!("ca_ml.predict.rows", Work).inc();
        let total = self.trees.len() as f64;
        self.votes(row)
            .iter()
            .map(|&v| f64::from(v) / total)
            .collect()
    }

    /// Per-class vote counts of every tree for `row`.
    fn votes(&self, row: &[f32]) -> Vec<u32> {
        let mut votes = vec![0u32; self.num_classes.max(1)];
        for tree in &self.trees {
            if let Some(v) = votes.get_mut(tree.leaf_label(row) as usize) {
                *v += 1;
            }
        }
        votes
    }

    /// The batched kernel behind [`Classifier::predict_batch`]: votes the
    /// rows `first..first + len` of `data` tree by tree, so each tree's
    /// nodes stay in cache while it walks the block. A row leaves the
    /// walk once the trees left can no longer change its winner (see
    /// [`decided`]), so its prediction equals [`Classifier::predict`]'s.
    fn predict_block(&self, data: &Dataset, first: usize, len: usize, out: &mut Vec<u32>) {
        let k = self.num_classes.max(1);
        let mut votes = vec![0u32; len * k];
        let mut open: Vec<usize> = (0..len).collect();
        for (t, tree) in self.trees.iter().enumerate() {
            let remaining = self.trees.len() - t - 1;
            open.retain(|&i| {
                let tally = &mut votes[i * k..(i + 1) * k];
                if let Some(v) = tally.get_mut(tree.leaf_label(data.row(first + i)) as usize) {
                    *v += 1;
                }
                !decided(tally, remaining)
            });
            if open.is_empty() {
                break;
            }
        }
        out.extend(votes.chunks_exact(k).map(|tally| winner(tally) as u32));
    }
}

/// Rows per block of [`RandomForest`]'s batched prediction kernel: the
/// block's rows and vote tallies stay in cache while each tree walks it.
pub const PREDICT_BLOCK_ROWS: usize = 4096;

/// The winning class of a vote tally: the most votes, and of tied
/// classes the highest index.
fn winner(tally: &[u32]) -> usize {
    tally
        .iter()
        .enumerate()
        .max_by_key(|&(_, &v)| v)
        .map_or(0, |(c, _)| c)
}

/// Whether `remaining` more votes can no longer change `winner(tally)`:
/// even if they all went to one other class, it would stay behind — a
/// higher class strictly, since it would take a tie.
fn decided(tally: &[u32], remaining: usize) -> bool {
    let lead = winner(tally);
    let lead_votes = tally[lead] as usize;
    tally.iter().enumerate().all(|(c, &v)| {
        let reach = v as usize + remaining;
        c == lead || (c < lead && reach <= lead_votes) || reach < lead_votes
    })
}

impl RandomForest {
    /// [`Classifier::fit`] on an explicit executor. The trained forest is
    /// bit-identical at every thread count: bootstrap sampling stays on
    /// the single sequential master stream, and each tree's fit depends
    /// only on its own sample and per-tree seed.
    pub fn fit_with(&mut self, data: &Dataset, executor: &ca_exec::Executor) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        self.num_classes = data.num_classes().max(1);
        self.trees.clear();
        let mut rng = Xoshiro256StarStar::seed_from_u64(self.params.seed);
        let sample_size =
            ((data.len() as f64 * self.params.bootstrap_fraction).round() as usize).max(1);
        let max_features = self.params.max_features.unwrap_or_else(|| {
            // sqrt(n) is the classic forest default but starves trees when
            // only a handful of columns are informative (as in CA-matrix
            // groups with many all-zero defect flags); n/3 is a better
            // floor for those.
            let n = data.num_features();
            ((n as f64).sqrt().round() as usize).max(n / 3).clamp(1, n)
        });
        // Bootstrap indices are drawn sequentially from the single master
        // stream, exactly as the serial implementation did, so the forest
        // stays bit-identical at every thread count. Only the tree fits —
        // independent given their sample and per-tree seed — go parallel.
        let bootstraps: Vec<Vec<usize>> = (0..self.params.num_trees)
            .map(|_| {
                (0..sample_size)
                    .map(|_| rng.gen_index(data.len()))
                    .collect()
            })
            .collect();
        let (max_depth, min_samples_leaf, seed) = (
            self.params.max_depth,
            self.params.min_samples_leaf,
            self.params.seed,
        );
        let _span = ca_obs::span_root("ca_ml.forest.fit");
        self.trees = executor.map(&bootstraps, |t, indices| {
            // Per-tree fit time is a wall-clock observation (excluded
            // from determinism checks); the tree count is `work`.
            let _tree_span = ca_obs::span_root("ca_ml.forest.fit_tree");
            ca_obs::counter!("ca_ml.forest.trees_fitted", Work).inc();
            let sample = data.subset(indices);
            let mut tree = DecisionTree::new(TreeParams {
                max_depth,
                min_samples_leaf,
                max_features: Some(max_features),
                seed: seed.wrapping_add(t as u64 + 1),
            });
            // A bootstrap sample can miss classes entirely; the tree only
            // sees its own sample, so re-align label space via max class.
            tree.fit(&sample);
            tree
        });
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset) {
        self.fit_with(data, &ca_exec::Executor::from_env());
    }

    /// The class with the most tree votes. A tie goes to the highest
    /// class index, so for CA-matrix rows (class 1 = detected) a tied
    /// vote predicts "detected".
    fn predict(&self, row: &[f32]) -> u32 {
        assert!(!self.trees.is_empty(), "predict before fit");
        ca_obs::counter!("ca_ml.predict.rows", Work).inc();
        winner(&self.votes(row)) as u32
    }

    /// Equal to [`Classifier::predict`] on every row, through the
    /// batched kernel, one block of [`PREDICT_BLOCK_ROWS`] rows at a time.
    fn predict_batch(&self, data: &Dataset) -> Vec<u32> {
        let mut out = Vec::with_capacity(data.len());
        if data.is_empty() {
            return out;
        }
        assert!(!self.trees.is_empty(), "predict before fit");
        ca_obs::counter!("ca_ml.predict.rows", Work).add(data.len() as u64);
        for first in (0..data.len()).step_by(PREDICT_BLOCK_ROWS) {
            let len = PREDICT_BLOCK_ROWS.min(data.len() - first);
            self.predict_block(data, first, len, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_bands() -> Dataset {
        // label = 1 iff feature0 >= 5, with a second noisy feature.
        let mut d = Dataset::new(2);
        for i in 0..200 {
            let x = (i % 10) as f32;
            let noise = ((i * 37) % 7) as f32;
            d.push_row(&[x, noise], u32::from(x >= 5.0));
        }
        d
    }

    #[test]
    fn learns_simple_band() {
        let mut forest = RandomForest::new(ForestParams::quick());
        let data = noisy_bands();
        forest.fit(&data);
        let correct = (0..data.len())
            .filter(|&i| forest.predict(data.row(i)) == data.label(i))
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.98);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = noisy_bands();
        let mut a = RandomForest::new(ForestParams::quick());
        let mut b = RandomForest::new(ForestParams::quick());
        a.fit(&data);
        b.fit(&data);
        for i in 0..data.len() {
            assert_eq!(a.predict(data.row(i)), b.predict(data.row(i)));
        }
    }

    #[test]
    fn proba_sums_to_one() {
        let mut forest = RandomForest::new(ForestParams::quick());
        let data = noisy_bands();
        forest.fit(&data);
        let p = forest.predict_proba(data.row(0));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beats_majority_baseline_on_balanced_data() {
        let data = noisy_bands();
        let mut forest = RandomForest::new(ForestParams::quick());
        forest.fit(&data);
        let majority = data.majority_label().unwrap();
        let baseline =
            data.labels().iter().filter(|&&l| l == majority).count() as f64 / data.len() as f64;
        let accuracy = (0..data.len())
            .filter(|&i| forest.predict(data.row(i)) == data.label(i))
            .count() as f64
            / data.len() as f64;
        assert!(accuracy > baseline);
    }

    #[test]
    fn forest_importance_is_normalized_and_informative() {
        let data = noisy_bands();
        let mut forest = RandomForest::new(ForestParams::quick());
        forest.fit(&data);
        let imp = forest.feature_importance();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[1], "label depends on feature 0: {imp:?}");
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        let data = noisy_bands();
        let mut serial = RandomForest::new(ForestParams::quick());
        serial.fit_with(&data, &ca_exec::Executor::with_threads(1));
        let mut parallel = RandomForest::new(ForestParams::quick());
        parallel.fit_with(&data, &ca_exec::Executor::with_threads(8));
        assert_eq!(serial.num_trees(), parallel.num_trees());
        assert_eq!(serial.feature_importance(), parallel.feature_importance());
        for i in 0..data.len() {
            assert_eq!(
                serial.predict_proba(data.row(i)),
                parallel.predict_proba(data.row(i)),
                "row {i}"
            );
        }
    }

    /// A forest whose trees are single leaves voting `votes[i]`.
    fn fixed_vote_forest(votes: &[u32]) -> RandomForest {
        let leaf = |label: u32| {
            let mut d = Dataset::new(1);
            d.push_row(&[0.0], label);
            let mut tree = DecisionTree::new(TreeParams::default());
            tree.fit(&d);
            tree
        };
        RandomForest {
            params: ForestParams::quick(),
            trees: votes.iter().map(|&l| leaf(l)).collect(),
            num_classes: 2,
        }
    }

    #[test]
    fn tied_vote_goes_to_the_highest_class() {
        let mut batch = Dataset::new(1);
        batch.push_row(&[0.0], 0);
        for (zeros, ones, want) in [(20, 20, 1), (21, 19, 0), (19, 21, 1)] {
            // Both orders: the early exit must not decide a tie too soon.
            for zeros_first in [true, false] {
                let mut votes = [vec![0; zeros], vec![1; ones]].concat();
                if !zeros_first {
                    votes.reverse();
                }
                let forest = fixed_vote_forest(&votes);
                let p = forest.predict_proba(&[0.0]);
                assert_eq!(p[0] * 40.0, zeros as f64);
                assert_eq!(forest.predict(&[0.0]), want, "{zeros}-{ones}");
                assert_eq!(forest.predict_batch(&batch), vec![want], "{zeros}-{ones}");
            }
        }
    }

    #[test]
    fn trains_requested_tree_count() {
        let mut forest = RandomForest::new(ForestParams {
            num_trees: 7,
            ..ForestParams::quick()
        });
        forest.fit(&noisy_bands());
        assert_eq!(forest.num_trees(), 7);
    }
}
