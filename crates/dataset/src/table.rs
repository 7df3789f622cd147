use std::error::Error;
use std::fmt;

use ecad_tensor::Matrix;
use rt::json::{Cursor, DecodeError, FromJson, Json, ToJson};
use rt::rand::seq::SliceRandom;
use rt::rand::Rng;

/// Error produced while constructing or manipulating a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// Feature row count and label count differ.
    LengthMismatch {
        /// Number of feature rows.
        rows: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A label is out of range for the declared class count.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Declared number of classes.
        classes: usize,
    },
    /// The dataset has no samples.
    Empty,
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::LengthMismatch { rows, labels } => {
                write!(
                    f,
                    "feature rows ({rows}) do not match label count ({labels})"
                )
            }
            DatasetError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            DatasetError::Empty => write!(f, "dataset has no samples"),
        }
    }
}

impl Error for DatasetError {}

/// A classification dataset: a feature matrix and parallel integer labels.
///
/// This is the unit of work the evolutionary engine hands to workers: the
/// simulation worker trains candidate MLPs on it, the baselines crate fits
/// comparison classifiers on it.
///
/// # Example
///
/// ```
/// use ecad_dataset::Dataset;
/// use ecad_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[[0.0, 1.0], [1.0, 0.0]]);
/// let ds = Dataset::new("toy", x, vec![0, 1], 2)?;
/// assert_eq!(ds.len(), 2);
/// # Ok::<(), ecad_dataset::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: String,
    features: Matrix,
    labels: Vec<usize>,
    n_classes: usize,
}

impl Dataset {
    /// Creates a dataset after validating shapes and label ranges.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError`] if the dataset is empty, row/label counts
    /// differ, or a label exceeds `n_classes`.
    pub fn new(
        name: impl Into<String>,
        features: Matrix,
        labels: Vec<usize>,
        n_classes: usize,
    ) -> Result<Self, DatasetError> {
        if features.rows() == 0 {
            return Err(DatasetError::Empty);
        }
        if features.rows() != labels.len() {
            return Err(DatasetError::LengthMismatch {
                rows: features.rows(),
                labels: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= n_classes) {
            return Err(DatasetError::LabelOutOfRange {
                label: bad,
                classes: n_classes,
            });
        }
        Ok(Self {
            name: name.into(),
            features,
            labels,
            n_classes,
        })
    }

    /// Dataset name (e.g. `"credit-g"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has zero samples (never true for a constructed
    /// `Dataset`, but required alongside `len`).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Borrows the feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Borrows the labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Per-class sample counts (length `n_classes`).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Returns a new dataset containing the selected sample indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `indices` is empty.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        assert!(!indices.is_empty(), "subset requires at least one index");
        Dataset {
            name: self.name.clone(),
            features: self.features.select_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            n_classes: self.n_classes,
        }
    }

    /// Splits into `(train, test)` with `test_fraction` of samples in the
    /// test set, after a seeded shuffle.
    ///
    /// # Panics
    ///
    /// Panics if `test_fraction` is not in `(0, 1)` or either side would
    /// be empty.
    pub fn split<R: Rng + ?Sized>(&self, test_fraction: f32, rng: &mut R) -> (Dataset, Dataset) {
        assert!(
            test_fraction > 0.0 && test_fraction < 1.0,
            "test_fraction must be in (0, 1)"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let n_test = ((self.len() as f32 * test_fraction).round() as usize)
            .max(1)
            .min(self.len() - 1);
        let (test_idx, train_idx) = idx.split_at(n_test);
        (self.subset(train_idx), self.subset(test_idx))
    }

    /// Returns a copy with rows shuffled by `rng`.
    pub fn shuffled<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        self.subset(&idx)
    }

    /// Returns a copy truncated to at most `n` samples (the first `n`
    /// after the dataset's existing order). Use after [`Dataset::shuffled`]
    /// for random subsampling.
    pub fn truncated(&self, n: usize) -> Dataset {
        if n >= self.len() {
            return self.clone();
        }
        let idx: Vec<usize> = (0..n.max(1)).collect();
        self.subset(&idx)
    }

    /// Replaces the feature matrix (used by the scaler).
    ///
    /// # Panics
    ///
    /// Panics if the new matrix has a different number of rows.
    pub fn with_features(&self, features: Matrix) -> Dataset {
        assert_eq!(
            features.rows(),
            self.len(),
            "replacement features must keep the sample count"
        );
        Dataset {
            name: self.name.clone(),
            features,
            labels: self.labels.clone(),
            n_classes: self.n_classes,
        }
    }
}

impl ToJson for Dataset {
    /// `f32 → f64` widening is exact and `rt::json` prints the shortest
    /// round-trip form, so features survive encoding bit-exactly.
    fn to_json(&self) -> Json {
        Json::object()
            .insert("name", self.name.as_str())
            .insert("rows", self.len())
            .insert("cols", self.n_features())
            .insert("n_classes", self.n_classes)
            .insert("features", self.features.as_slice())
            .insert("labels", &self.labels)
    }
}

impl FromJson for Dataset {
    fn decode(j: Cursor<'_>) -> Result<Dataset, DecodeError> {
        let (rows, cols): (usize, usize) = (j.get("rows")?, j.get("cols")?);
        let at = j.field("features")?;
        let features: Vec<f32> = Vec::decode(at)?;
        if rows.checked_mul(cols) != Some(features.len()) {
            let n = features.len();
            return Err(at.error(format!("holds {n} values, not {rows} x {cols}")));
        }
        let features = Matrix::from_vec(rows, cols, features);
        Dataset::new(
            j.get::<String>("name")?,
            features,
            j.get("labels")?,
            j.get("n_classes")?,
        )
        .map_err(|e| j.error(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt::rand::rngs::StdRng;
    use rt::rand::SeedableRng;

    fn toy(n: usize) -> Dataset {
        let x = Matrix::from_fn(n, 3, |r, c| (r * 3 + c) as f32);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        Dataset::new("toy", x, labels, 2).unwrap()
    }

    #[test]
    fn new_validates_lengths() {
        let x = Matrix::zeros(2, 2);
        let err = Dataset::new("x", x, vec![0], 2).unwrap_err();
        assert!(matches!(
            err,
            DatasetError::LengthMismatch { rows: 2, labels: 1 }
        ));
    }

    #[test]
    fn new_validates_label_range() {
        let x = Matrix::zeros(2, 2);
        let err = Dataset::new("x", x, vec![0, 5], 2).unwrap_err();
        assert!(matches!(
            err,
            DatasetError::LabelOutOfRange {
                label: 5,
                classes: 2
            }
        ));
    }

    #[test]
    fn new_rejects_empty() {
        let x = Matrix::zeros(0, 2);
        assert_eq!(
            Dataset::new("x", x, vec![], 2).unwrap_err(),
            DatasetError::Empty
        );
    }

    #[test]
    fn class_counts_sum_to_len() {
        let ds = toy(7);
        let counts = ds.class_counts();
        assert_eq!(counts.iter().sum::<usize>(), 7);
        assert_eq!(counts, vec![4, 3]);
    }

    #[test]
    fn subset_preserves_rows() {
        let ds = toy(5);
        let s = ds.subset(&[4, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.features().row(0), ds.features().row(4));
        assert_eq!(s.labels(), &[0, 0]);
    }

    #[test]
    fn split_partitions_all_samples() {
        let ds = toy(20);
        let mut rng = StdRng::seed_from_u64(0);
        let (train, test) = ds.split(0.25, &mut rng);
        assert_eq!(train.len() + test.len(), 20);
        assert_eq!(test.len(), 5);
    }

    #[test]
    fn split_is_deterministic_for_seed() {
        let ds = toy(12);
        let (a_train, _) = ds.split(0.5, &mut StdRng::seed_from_u64(42));
        let (b_train, _) = ds.split(0.5, &mut StdRng::seed_from_u64(42));
        assert_eq!(a_train, b_train);
    }

    #[test]
    #[should_panic(expected = "test_fraction")]
    fn split_rejects_bad_fraction() {
        let ds = toy(4);
        let _ = ds.split(1.5, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn shuffled_keeps_feature_label_pairing() {
        let ds = toy(10);
        let sh = ds.shuffled(&mut StdRng::seed_from_u64(3));
        for r in 0..sh.len() {
            // In `toy`, label == (first feature / 3) % 2.
            let first = sh.features()[(r, 0)] as usize;
            assert_eq!(sh.labels()[r], (first / 3) % 2);
        }
    }

    #[test]
    fn truncated_caps_length() {
        let ds = toy(10);
        assert_eq!(ds.truncated(3).len(), 3);
        assert_eq!(ds.truncated(100).len(), 10);
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!DatasetError::Empty.to_string().is_empty());
    }
}
