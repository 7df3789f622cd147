//! Row-wise and vector operations used by the MLP trainer and baselines.

use crate::Matrix;

mod tanh;
pub use self::tanh::{tanh, tanh_inplace};

/// Row-wise softmax with the max-subtraction trick for numerical stability.
///
/// Each row of the result sums to 1 (up to rounding) and contains only
/// finite values even for large logits.
///
/// # Example
///
/// ```
/// use ecad_tensor::{Matrix, ops};
/// let logits = Matrix::from_rows(&[[1.0, 1.0]]);
/// let p = ops::softmax_rows(&logits);
/// assert!((p[(0, 0)] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        if sum > 0.0 {
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }
    out
}

/// Sums each column into a vector of length `m.cols()`.
///
/// Used for bias gradients (`db = sum_rows(dY)`).
pub fn col_sums(m: &Matrix) -> Vec<f32> {
    let mut sums = vec![0.0f32; m.cols()];
    for row in m.iter_rows() {
        for (s, &v) in sums.iter_mut().zip(row) {
            *s += v;
        }
    }
    sums
}

/// Mean of each column.
pub fn col_means(m: &Matrix) -> Vec<f32> {
    let mut s = col_sums(m);
    let n = m.rows().max(1) as f32;
    for v in &mut s {
        *v /= n;
    }
    s
}

/// Population standard deviation of each column (ddof = 0).
///
/// Columns with zero variance report a standard deviation of 0; callers
/// that scale by this value should guard against division by zero (the
/// dataset scaler substitutes 1.0).
pub fn col_stds(m: &Matrix) -> Vec<f32> {
    let means = col_means(m);
    let mut acc = vec![0.0f32; m.cols()];
    for row in m.iter_rows() {
        for ((a, &v), &mu) in acc.iter_mut().zip(row).zip(&means) {
            let d = v - mu;
            *a += d * d;
        }
    }
    let n = m.rows().max(1) as f32;
    for a in &mut acc {
        *a = (*a / n).sqrt();
    }
    acc
}

/// Mean cross-entropy between softmax probabilities and one-hot targets.
///
/// `probs` and `targets` must have identical shapes; `targets` rows are
/// expected to be one-hot (or a probability distribution). Probabilities
/// are clamped away from zero so the loss stays finite.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn cross_entropy(probs: &Matrix, targets: &Matrix) -> f32 {
    assert_eq!(
        probs.shape(),
        targets.shape(),
        "cross_entropy shape mismatch"
    );
    let mut loss = 0.0f64;
    for (p, t) in probs.as_slice().iter().zip(targets.as_slice()) {
        if *t > 0.0 {
            loss -= (*t as f64) * (p.max(1e-12) as f64).ln();
        }
    }
    (loss / probs.rows().max(1) as f64) as f32
}

/// Fraction of rows where the argmax of `probs` equals the label.
///
/// # Panics
///
/// Panics if `labels.len() != probs.rows()`.
pub fn accuracy(probs: &Matrix, labels: &[usize]) -> f32 {
    assert_eq!(labels.len(), probs.rows(), "labels/rows mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let preds = probs.argmax_rows();
    let hits = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    hits as f32 / labels.len() as f32
}

/// Builds a one-hot matrix with `classes` columns from integer labels.
///
/// # Panics
///
/// Panics if any label is `>= classes`.
pub fn one_hot(labels: &[usize], classes: usize) -> Matrix {
    let mut m = Matrix::zeros(labels.len(), classes);
    for (r, &l) in labels.iter().enumerate() {
        assert!(l < classes, "label {l} out of range for {classes} classes");
        m[(r, l)] = 1.0;
    }
    m
}

/// Euclidean (L2) distance between two equal-length slices.
pub fn euclidean(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        .sqrt()
}

/// Clips every element of `m` into `[-limit, limit]` in place.
///
/// Gradient clipping keeps the evolutionary search robust against
/// candidates whose topology makes training unstable.
pub fn clip_inplace(m: &mut Matrix, limit: f32) {
    m.map_inplace(|x| x.clamp(-limit, limit));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]]);
        let p = softmax_rows(&m);
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_stable_for_huge_logits() {
        let m = Matrix::from_rows(&[[1e30, 1e30 - 1.0]]);
        let p = softmax_rows(&m);
        assert!(p.all_finite());
    }

    #[test]
    fn softmax_orders_match_logits() {
        let m = Matrix::from_rows(&[[0.1, 3.0, -1.0]]);
        let p = softmax_rows(&m);
        assert_eq!(p.argmax_rows(), vec![1]);
    }

    #[test]
    fn col_sums_means_stds() {
        let m = Matrix::from_rows(&[[1.0, 10.0], [3.0, 10.0]]);
        assert_eq!(col_sums(&m), vec![4.0, 20.0]);
        assert_eq!(col_means(&m), vec![2.0, 10.0]);
        let s = col_stds(&m);
        assert!((s[0] - 1.0).abs() < 1e-6);
        assert_eq!(s[1], 0.0);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let probs = Matrix::from_rows(&[[1.0, 0.0]]);
        let targets = Matrix::from_rows(&[[1.0, 0.0]]);
        assert!(cross_entropy(&probs, &targets) < 1e-6);
    }

    #[test]
    fn cross_entropy_wrong_confident_prediction_is_large() {
        let probs = Matrix::from_rows(&[[1e-9, 1.0]]);
        let targets = Matrix::from_rows(&[[1.0, 0.0]]);
        assert!(cross_entropy(&probs, &targets) > 10.0);
    }

    #[test]
    fn cross_entropy_finite_even_for_zero_prob() {
        let probs = Matrix::from_rows(&[[0.0, 1.0]]);
        let targets = Matrix::from_rows(&[[1.0, 0.0]]);
        assert!(cross_entropy(&probs, &targets).is_finite());
    }

    #[test]
    fn accuracy_counts_hits() {
        let probs = Matrix::from_rows(&[[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]]);
        assert!((accuracy(&probs, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn accuracy_empty_is_zero() {
        let probs = Matrix::zeros(0, 3);
        assert_eq!(accuracy(&probs, &[]), 0.0);
    }

    #[test]
    fn one_hot_round_trips_through_argmax() {
        let labels = vec![2usize, 0, 1, 2];
        let m = one_hot(&labels, 3);
        assert_eq!(m.argmax_rows(), labels);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_rejects_out_of_range() {
        let _ = one_hot(&[3], 3);
    }

    #[test]
    fn euclidean_matches_hand_calc() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn clip_bounds_values() {
        let mut m = Matrix::from_rows(&[[-10.0, 0.5, 10.0]]);
        clip_inplace(&mut m, 1.0);
        assert_eq!(m.row(0), &[-1.0, 0.5, 1.0]);
    }
}
