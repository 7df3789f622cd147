use std::fmt;
use std::ops::{Index, IndexMut};


use crate::ShapeError;

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the common currency between the dataset loaders, the MLP
/// trainer, the classical baselines and the hardware models. It is a plain
/// data structure: storage is a single contiguous `Vec<f32>` with row
/// stride equal to the column count, so a row is always a contiguous
/// slice — the layout the blocked GEMM kernel in [`crate::gemm`] expects.
///
/// # Example
///
/// ```
/// use ecad_tensor::Matrix;
///
/// let mut m = Matrix::zeros(2, 3);
/// m[(0, 1)] = 5.0;
/// assert_eq!(m.row(0), &[0.0, 5.0, 0.0]);
/// assert_eq!(m.shape(), (2, 3));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a closure mapping `(row, col)` to a value.
    ///
    /// ```
    /// use ecad_tensor::Matrix;
    /// let m = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
    /// assert_eq!(m.row(1), &[2.0, 3.0]);
    /// ```
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from an iterator of equally-sized rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or no rows are provided.
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].as_ref().len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            let r = r.as_ref();
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the backing row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the backing row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(
            c < self.cols,
            "col {} out of bounds ({} cols)",
            c,
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterates over rows as contiguous slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise sum, returning a new matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Elementwise difference, returning a new matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product, returning a new matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    /// Combines two equally-shaped matrices elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(op, self.shape(), other.shape()));
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Adds `alpha * other` to `self` in place (matrix AXPY).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn axpy_inplace(&mut self, alpha: f32, other: &Matrix) -> Result<(), ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("axpy", self.shape(), other.shape()));
        }
        for (x, &y) in self.data.iter_mut().zip(&other.data) {
            *x += alpha * y;
        }
        Ok(())
    }

    /// Returns a new matrix containing the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Index of the maximum element in each row (ties resolve to the first).
    ///
    /// Used to turn softmax outputs into class predictions.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.iter_rows()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Frobenius norm (square root of the sum of squared elements).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Whether every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for (i, row) in self.iter_rows().take(max_rows).enumerate() {
            write!(f, "  [")?;
            for (j, v) in row.iter().take(8).enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]{}", if i + 1 < self.rows { "," } else { "" })?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_row_major_order() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_and_col_access() {
        let m = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed().shape(), (5, 3));
        assert_eq!(m.transposed()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn add_sub_hadamard() {
        let a = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
        let b = Matrix::filled(2, 2, 2.0);
        assert_eq!(a.add(&b).unwrap().row(0), &[3.0, 4.0]);
        assert_eq!(a.sub(&b).unwrap().row(1), &[1.0, 2.0]);
        assert_eq!(a.hadamard(&b).unwrap().row(0), &[2.0, 4.0]);
    }

    #[test]
    fn shape_mismatch_is_error_not_panic() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let err = a.add(&b).unwrap_err();
        assert_eq!(err.lhs(), (2, 2));
        assert_eq!(err.rhs(), (2, 3));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 3.0);
        a.axpy_inplace(2.0, &b).unwrap();
        assert!(a.as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn select_rows_copies_in_order() {
        let m = Matrix::from_rows(&[[0.0], [1.0], [2.0], [3.0]]);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s.as_slice(), &[3.0, 1.0]);
    }

    #[test]
    fn argmax_rows_first_tie_wins() {
        let m = Matrix::from_rows(&[[0.1, 0.9, 0.9], [2.0, 1.0, 0.0]]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn frobenius_norm_matches_hand_calc() {
        let m = Matrix::from_rows(&[[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.all_finite());
        m[(1, 1)] = f32::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn map_and_scale() {
        let mut m = Matrix::filled(2, 2, 2.0);
        let doubled = m.map(|x| x * 2.0);
        assert!(doubled.as_slice().iter().all(|&x| x == 4.0));
        m.scale_inplace(0.5);
        assert!(m.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn debug_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn clone_round_trip() {
        // The workspace carries no serde; persistence goes through the
        // in-repo `rt::json` (see crates/rt). At this layer we only need
        // value semantics: Clone must preserve equality.
        let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        assert_eq!(m.clone(), m);
    }
}
