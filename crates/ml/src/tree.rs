//! CART decision tree with Gini impurity.
//!
//! Split search is histogram-based: when a feature's values in a node span
//! a small integer range (the common case for CA-matrix features, which
//! are codes in `0..=3` and flags in `0..=1`), candidate thresholds are
//! scanned in one counting pass; otherwise the node's values are sorted.
//! Feature subsampling (`max_features`) makes the tree usable as a random
//! forest member.

use crate::data::Dataset;
use crate::Classifier;
use ca_rng::{Rng, SplitMix64};

/// Hyperparameters of a decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples a leaf must hold.
    pub min_samples_leaf: usize,
    /// Number of features examined per split; `None` = all.
    pub max_features: Option<usize>,
    /// Seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> TreeParams {
        TreeParams {
            max_depth: 24,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

/// `Node::feature` of a leaf.
const LEAF: u32 = u32::MAX;

/// One 12-byte node of a trained tree, stored flat in
/// `DecisionTree::nodes` (the root at index 0). A split sends a row to
/// `nodes[next]` when `row[feature] <= threshold` and to `nodes[next + 1]`
/// otherwise, so a NaN feature goes right; `build` allocates the two
/// children of a split as an adjacent pair. A leaf has `feature == LEAF`
/// and carries its class label in `next`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    threshold: f32,
    feature: u32,
    next: u32,
}

impl Node {
    fn leaf(label: u32) -> Node {
        Node {
            threshold: 0.0,
            feature: LEAF,
            next: label,
        }
    }
}

/// A trained CART decision tree classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    params: TreeParams,
    nodes: Vec<Node>,
    num_classes: usize,
    rng: SplitMix64,
    importance: Vec<f64>,
}

impl DecisionTree {
    /// Creates an untrained tree with the given parameters.
    pub fn new(params: TreeParams) -> DecisionTree {
        let rng = SplitMix64::new(params.seed ^ 0x9E3779B97F4A7C15);
        DecisionTree {
            params,
            nodes: Vec::new(),
            num_classes: 0,
            rng,
            importance: Vec::new(),
        }
    }

    /// Per-feature importance: total weighted Gini decrease contributed by
    /// splits on each feature, normalized to sum to 1 (all zeros before
    /// training or when the tree is a single leaf).
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Number of nodes in the trained tree (0 before training).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the trained tree.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], i: usize) -> usize {
            let node = nodes[i];
            if node.feature == LEAF {
                0
            } else {
                let left = node.next as usize;
                1 + rec(nodes, left).max(rec(nodes, left + 1))
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// Grows the subtree of `indices` into the already reserved slot `id`.
    fn build(&mut self, data: &Dataset, indices: &mut [usize], depth: usize, id: usize) {
        let counts = class_counts(data, indices, self.num_classes);
        let majority = argmax(&counts);
        let node_gini = gini(&counts, indices.len());
        let stop = depth >= self.params.max_depth
            || indices.len() < 2 * self.params.min_samples_leaf
            || node_gini == 0.0;
        if !stop {
            if let Some((feature, threshold)) = self.best_split(data, indices, &counts) {
                // Partition indices in place.
                let mut mid = 0;
                for i in 0..indices.len() {
                    if data.row(indices[i])[feature] <= threshold {
                        indices.swap(i, mid);
                        mid += 1;
                    }
                }
                if mid >= self.params.min_samples_leaf
                    && indices.len() - mid >= self.params.min_samples_leaf
                {
                    // Mean-decrease-in-impurity bookkeeping.
                    let left_counts = class_counts(data, &indices[..mid], self.num_classes);
                    let right_counts = class_counts(data, &indices[mid..], self.num_classes);
                    let n = indices.len() as f64;
                    let child = (mid as f64 * gini(&left_counts, mid)
                        + (indices.len() - mid) as f64 * gini(&right_counts, indices.len() - mid))
                        / n;
                    self.importance[feature] += n * (node_gini - child).max(0.0);
                    let left = self.nodes.len();
                    self.nodes.extend([Node::leaf(majority); 2]); // placeholders
                    let (left_idx, right_idx) = indices.split_at_mut(mid);
                    self.build(data, left_idx, depth + 1, left);
                    self.build(data, right_idx, depth + 1, left + 1);
                    self.nodes[id] = Node {
                        threshold,
                        feature: u32::try_from(feature)
                            .ok()
                            .filter(|&f| f != LEAF)
                            .expect("feature index below u32::MAX"),
                        next: u32::try_from(left).expect("node index fits in u32"),
                    };
                    return;
                }
            }
        }
        self.nodes[id] = Node::leaf(majority);
    }

    /// Finds the impurity-minimizing `(feature, threshold)` over the
    /// (sub)sampled features, or `None` when nothing improves.
    fn best_split(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        total_counts: &[usize],
    ) -> Option<(usize, f32)> {
        let n_features = data.num_features();
        let k = self
            .params
            .max_features
            .unwrap_or(n_features)
            .min(n_features);
        let mut features: Vec<usize> = (0..n_features).collect();
        // Partial Fisher-Yates to pick k random features.
        for i in 0..k {
            let j = i + self.rng.gen_index(n_features - i);
            features.swap(i, j);
        }
        let mut best: Option<(f64, usize, f32)> = None;
        for &feature in &features[..k] {
            if let Some((threshold, score)) =
                best_threshold(data, indices, feature, total_counts, self.num_classes)
            {
                let improves = match best {
                    None => true,
                    Some((best_score, _, _)) => score < best_score - 1e-12,
                };
                if improves {
                    best = Some((score, feature, threshold));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }

    /// The label of the leaf `row` lands in.
    pub(crate) fn leaf_label(&self, row: &[f32]) -> u32 {
        let nodes = self.nodes.as_slice();
        let mut node = nodes[0];
        while node.feature != LEAF {
            let left = row[node.feature as usize] <= node.threshold;
            node = nodes[node.next as usize + usize::from(!left)];
        }
        node.next
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        self.num_classes = data.num_classes().max(1);
        self.nodes.clear();
        self.importance = vec![0.0; data.num_features()];
        let mut indices: Vec<usize> = (0..data.len()).collect();
        self.nodes.push(Node::leaf(0)); // the root's slot
        self.build(data, &mut indices, 0, 0);
        let total: f64 = self.importance.iter().sum();
        if total > 0.0 {
            for v in &mut self.importance {
                *v /= total;
            }
        }
    }

    fn predict(&self, row: &[f32]) -> u32 {
        assert!(!self.nodes.is_empty(), "predict before fit");
        self.leaf_label(row)
    }
}

fn class_counts(data: &Dataset, indices: &[usize], k: usize) -> Vec<usize> {
    let mut counts = vec![0usize; k];
    for &i in indices {
        counts[data.label(i) as usize] += 1;
    }
    counts
}

fn argmax(counts: &[usize]) -> u32 {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, c)| (c, std::cmp::Reverse(i)))
        .map(|(i, _)| i as u32)
        .unwrap_or(0)
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

/// Scans thresholds of one feature, returning the best `(threshold,
/// weighted child Gini)` strictly better than no split.
fn best_threshold(
    data: &Dataset,
    indices: &[usize],
    feature: usize,
    total_counts: &[usize],
    k: usize,
) -> Option<(f32, f64)> {
    // Detect a small non-negative integer domain for the counting path.
    let mut min_v = f32::INFINITY;
    let mut max_v = f32::NEG_INFINITY;
    let mut integral = true;
    for &i in indices {
        let v = data.row(i)[feature];
        min_v = min_v.min(v);
        max_v = max_v.max(v);
        if v.fract() != 0.0 {
            integral = false;
        }
    }
    if min_v >= max_v {
        return None; // constant feature
    }
    let span = (max_v - min_v) as usize;
    if integral && span <= 64 {
        counting_threshold(data, indices, feature, total_counts, k, min_v, span)
    } else {
        sorting_threshold(data, indices, feature, total_counts, k)
    }
}

fn counting_threshold(
    data: &Dataset,
    indices: &[usize],
    feature: usize,
    total_counts: &[usize],
    k: usize,
    min_v: f32,
    span: usize,
) -> Option<(f32, f64)> {
    let buckets = span + 1;
    let mut hist = vec![0usize; buckets * k];
    for &i in indices {
        let v = data.row(i)[feature];
        let b = (v - min_v) as usize;
        hist[b * k + data.label(i) as usize] += 1;
    }
    let total = indices.len();
    let mut left = vec![0usize; k];
    let mut left_total = 0usize;
    let mut best: Option<(f32, f64)> = None;
    for b in 0..span {
        for c in 0..k {
            left[c] += hist[b * k + c];
        }
        left_total += hist[b * k..b * k + k].iter().sum::<usize>();
        if left_total == 0 || left_total == total {
            continue;
        }
        let right_total = total - left_total;
        let right: Vec<usize> = (0..k).map(|c| total_counts[c] - left[c]).collect();
        let score = (left_total as f64 * gini(&left, left_total)
            + right_total as f64 * gini(&right, right_total))
            / total as f64;
        let threshold = min_v + b as f32 + 0.5;
        if best.is_none_or(|(_, s)| score < s) {
            best = Some((threshold, score));
        }
    }
    best
}

fn sorting_threshold(
    data: &Dataset,
    indices: &[usize],
    feature: usize,
    total_counts: &[usize],
    k: usize,
) -> Option<(f32, f64)> {
    let mut pairs: Vec<(f32, u32)> = indices
        .iter()
        .map(|&i| (data.row(i)[feature], data.label(i)))
        .collect();
    // Total order (invariant D7): the split order feeds the tree
    // structure, which must be canonical even for pathological inputs.
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = pairs.len();
    let mut left = vec![0usize; k];
    let mut best: Option<(f32, f64)> = None;
    for w in 0..total - 1 {
        left[pairs[w].1 as usize] += 1;
        if pairs[w].0 == pairs[w + 1].0 {
            continue;
        }
        let left_total = w + 1;
        let right_total = total - left_total;
        let right: Vec<usize> = (0..k).map(|c| total_counts[c] - left[c]).collect();
        let score = (left_total as f64 * gini(&left, left_total)
            + right_total as f64 * gini(&right, right_total))
            / total as f64;
        let threshold = (pairs[w].0 + pairs[w + 1].0) / 2.0;
        if best.is_none_or(|(_, s)| score < s) {
            best = Some((threshold, score));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> Dataset {
        let mut d = Dataset::new(2);
        for _ in 0..10 {
            d.push_row(&[0.0, 0.0], 0);
            d.push_row(&[0.0, 1.0], 1);
            d.push_row(&[1.0, 0.0], 1);
            d.push_row(&[1.0, 1.0], 0);
        }
        d
    }

    #[test]
    fn learns_xor_exactly() {
        let mut tree = DecisionTree::new(TreeParams::default());
        let data = xor_data();
        tree.fit(&data);
        for i in 0..data.len() {
            assert_eq!(tree.predict(data.row(i)), data.label(i));
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut d = Dataset::new(1);
        d.push_row(&[0.0], 1);
        d.push_row(&[5.0], 1);
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&d);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict(&[3.0]), 1);
    }

    #[test]
    fn depth_limit_respected() {
        let mut tree = DecisionTree::new(TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        });
        tree.fit(&xor_data());
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push_row(&[i as f32], u32::from(i == 9));
        }
        let mut tree = DecisionTree::new(TreeParams {
            min_samples_leaf: 3,
            ..TreeParams::default()
        });
        tree.fit(&d);
        // The lone positive cannot be isolated in a leaf of 1 sample.
        // (It sits in a leaf of >= 3 samples, predicted as majority 0.)
        assert_eq!(tree.predict(&[9.0]), 0);
    }

    #[test]
    fn continuous_features_use_sorting_path() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            let v = i as f32 * 0.37;
            d.push_row(&[v], u32::from(v > 3.0));
        }
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&d);
        assert_eq!(tree.predict(&[0.1]), 0);
        assert_eq!(tree.predict(&[6.9]), 1);
    }

    #[test]
    fn nan_feature_goes_right_as_in_the_fit_partition() {
        let mut d = Dataset::new(1);
        for (v, label) in [(0.0, 0), (0.0, 0), (1.0, 1), (1.0, 1)] {
            d.push_row(&[v], label);
        }
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&d);
        // `NaN <= threshold` is false, so NaN takes the right branch.
        assert_eq!(tree.predict(&[f32::NAN]), 1);
        assert_eq!(tree.predict(&[f32::NEG_INFINITY]), 0);
        assert_eq!(tree.predict(&[f32::INFINITY]), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = xor_data();
        let mut a = DecisionTree::new(TreeParams {
            max_features: Some(1),
            seed: 7,
            ..TreeParams::default()
        });
        let mut b = DecisionTree::new(TreeParams {
            max_features: Some(1),
            seed: 7,
            ..TreeParams::default()
        });
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn importance_points_at_informative_feature() {
        // Feature 1 decides the label; feature 0 is constant noise.
        let mut d = Dataset::new(2);
        for i in 0..40 {
            d.push_row(&[1.0, (i % 2) as f32], (i % 2) as u32);
        }
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&d);
        let imp = tree.feature_importance();
        assert!(imp[1] > 0.99, "{imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot fit on an empty dataset")]
    fn empty_fit_panics() {
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&Dataset::new(2));
    }
}
