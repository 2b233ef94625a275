//! Dataset container shared by all classifiers.
//!
//! Rows are feature vectors of `f32` (the CA-matrix encodes everything as
//! small integers, but `f32` keeps the classifiers generic); labels are
//! dense `u32` class ids starting at 0.

use std::fmt;

/// A labelled dataset, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Vec<f32>,
    labels: Vec<u32>,
    num_features: usize,
}

impl Dataset {
    /// Creates an empty dataset with `num_features` columns.
    pub fn new(num_features: usize) -> Dataset {
        Dataset {
            features: Vec::new(),
            labels: Vec::new(),
            num_features,
        }
    }

    /// Creates a dataset from parts.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` is not a multiple of `num_features` or
    /// the row count disagrees with `labels.len()`.
    pub fn from_parts(features: Vec<f32>, labels: Vec<u32>, num_features: usize) -> Dataset {
        assert!(num_features > 0, "num_features must be positive");
        assert_eq!(features.len() % num_features, 0, "ragged feature matrix");
        assert_eq!(features.len() / num_features, labels.len(), "label count");
        Dataset {
            features,
            labels,
            num_features,
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != num_features()`.
    pub fn push_row(&mut self, row: &[f32], label: u32) {
        assert_eq!(row.len(), self.num_features, "row width mismatch");
        self.features.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Removes every row, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.features.clear();
        self.labels.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of feature columns.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of distinct classes (max label + 1).
    pub fn num_classes(&self) -> usize {
        self.labels.iter().max().map_or(0, |&m| m as usize + 1)
    }

    /// Row `i` as a feature slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.features[i * self.num_features..(i + 1) * self.num_features]
    }

    /// Label of row `i`.
    pub fn label(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Extends with all rows of `other`.
    ///
    /// # Panics
    ///
    /// Panics on differing widths.
    pub fn extend_from(&mut self, other: &Dataset) {
        assert_eq!(self.num_features, other.num_features, "width mismatch");
        self.features.extend_from_slice(&other.features);
        self.labels.extend_from_slice(&other.labels);
    }

    /// A new dataset containing only the rows whose indices are in `idx`.
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.num_features);
        for &i in idx {
            out.push_row(self.row(i), self.label(i));
        }
        out
    }

    /// The most frequent label (ties resolved to the smallest), or `None`
    /// when empty. The *majority-class baseline* any classifier must beat.
    pub fn majority_label(&self) -> Option<u32> {
        if self.labels.is_empty() {
            return None;
        }
        let k = self.num_classes();
        let mut counts = vec![0usize; k];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, c)| (c, std::cmp::Reverse(i)))
            .map(|(i, _)| i as u32)
    }

    /// Per-class row counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes()];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        counts
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dataset({} rows x {} features, {} classes)",
            self.len(),
            self.num_features,
            self.num_classes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(2);
        d.push_row(&[0.0, 1.0], 0);
        d.push_row(&[1.0, 0.0], 1);
        d.push_row(&[1.0, 1.0], 1);
        d
    }

    #[test]
    fn basic_accessors() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.row(1), &[1.0, 0.0]);
        assert_eq!(d.label(2), 1);
        assert_eq!(d.to_string(), "Dataset(3 rows x 2 features, 2 classes)");
    }

    #[test]
    fn majority_and_counts() {
        let d = sample();
        assert_eq!(d.majority_label(), Some(1));
        assert_eq!(d.class_counts(), vec![1, 2]);
        assert_eq!(Dataset::new(3).majority_label(), None);
    }

    #[test]
    fn subset_selects_rows() {
        let d = sample();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[1.0, 1.0]);
        assert_eq!(s.label(1), 0);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_checks_width() {
        let mut d = Dataset::new(2);
        d.push_row(&[1.0], 0);
    }

    #[test]
    fn from_parts_round_trips() {
        let d = Dataset::from_parts(vec![1.0, 2.0, 3.0, 4.0], vec![0, 1], 2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn extend_concatenates() {
        let mut d = sample();
        let other = sample();
        d.extend_from(&other);
        assert_eq!(d.len(), 6);
    }
}
