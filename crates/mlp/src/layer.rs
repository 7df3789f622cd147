//! A single dense layer with forward and backward passes.

use ecad_tensor::{gemm, init, ops, Matrix};
use rt::rand::Rng;

use crate::Activation;

/// A dense (fully-connected) layer: `y = act(x W + b)`.
///
/// Weights are stored `fan_in x fan_out` so the forward pass is a plain
/// row-major GEMM. He initialization is used for ReLU layers, Xavier for
/// the saturating activations (see [`crate::Mlp`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    weights: Matrix,
    bias: Vec<f32>,
    activation: Activation,
    use_bias: bool,
}

/// Gradients produced by a backward pass through one layer.
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// Gradient of the loss w.r.t. the weights (same shape as weights).
    pub weights: Matrix,
    /// Gradient w.r.t. the bias (empty when the layer has no bias).
    pub bias: Vec<f32>,
}

impl DenseLayer {
    /// Creates a layer with activation-appropriate random initialization.
    pub fn new<R: Rng + ?Sized>(
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        use_bias: bool,
        rng: &mut R,
    ) -> Self {
        let weights = match activation {
            Activation::Relu => init::he(rng, fan_in, fan_out),
            _ => init::xavier(rng, fan_in, fan_out),
        };
        Self {
            weights,
            bias: vec![0.0; if use_bias { fan_out } else { 0 }],
            activation,
            use_bias,
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.weights.rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Whether the layer applies a bias.
    pub fn has_bias(&self) -> bool {
        self.use_bias
    }

    /// Borrows the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Borrows the bias vector (empty when `!has_bias()`).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Forward pass: returns the activated output for a batch.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != fan_in()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut z = if self.use_bias {
            gemm::matmul_bias(x, &self.weights, &self.bias)
        } else {
            gemm::matmul(x, &self.weights)
        };
        let _prof = rt::prof_span!("activation");
        self.activation.apply_inplace(z.as_mut_slice());
        z
    }

    /// Parameter-gradient step of the backward pass.
    ///
    /// Given the layer input `x`, the *activated* output `y` from the
    /// forward pass, and the upstream gradient `d_out` (w.r.t. `y`),
    /// returns the pre-activation gradient `dZ` (what
    /// [`DenseLayer::backward_input`] consumes) plus this layer's
    /// parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent with the forward pass.
    pub fn backward_params(&self, x: &Matrix, y: &Matrix, d_out: &Matrix) -> (Matrix, LayerGrads) {
        // dZ = dY * act'(y), elementwise.
        assert_eq!(d_out.shape(), y.shape(), "forward/backward shape mismatch");
        let (rows, cols) = d_out.shape();
        let dz = self.activation.backward(d_out.as_slice(), y.as_slice());
        let dz = Matrix::from_vec(rows, cols, dz);
        // dW = X^T dZ ; db = col_sums(dZ).
        let weights = gemm::matmul_at_b(x, &dz);
        let bias = if self.use_bias {
            ops::col_sums(&dz)
        } else {
            Vec::new()
        };
        (dz, LayerGrads { weights, bias })
    }

    /// Input-gradient step of the backward pass: `dX = dZ Wᵀ`, the
    /// upstream gradient for the layer below. The first layer's `dX`
    /// is never needed, so [`crate::Mlp::backprop`] skips this step
    /// there.
    ///
    /// # Panics
    ///
    /// Panics if `dz.cols() != fan_out()`.
    pub fn backward_input(&self, dz: &Matrix) -> Matrix {
        gemm::matmul_a_bt(dz, &self.weights)
    }

    /// Mutably borrows the weights (row-major) and bias, for the
    /// optimizer's in-place update.
    pub(crate) fn params_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (self.weights.as_mut_slice(), &mut self.bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt::rand::rngs::StdRng;
    use rt::rand::SeedableRng;

    fn layer(act: Activation, bias: bool) -> DenseLayer {
        let mut rng = StdRng::seed_from_u64(42);
        DenseLayer::new(4, 3, act, bias, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let l = layer(Activation::Relu, true);
        let x = Matrix::zeros(5, 4);
        assert_eq!(l.forward(&x).shape(), (5, 3));
    }

    #[test]
    fn forward_without_bias_is_pure_gemm() {
        let l = layer(Activation::Identity, false);
        let x = Matrix::identity(4);
        let y = l.forward(&x);
        assert_eq!(&y, l.weights());
    }

    #[test]
    fn relu_forward_is_nonnegative() {
        let l = layer(Activation::Relu, true);
        let mut rng = StdRng::seed_from_u64(1);
        let x = ecad_tensor::init::uniform(&mut rng, 8, 4, 3.0);
        assert!(l.forward(&x).as_slice().iter().all(|&v| v >= 0.0));
    }

    /// Numerical gradient check: perturb each weight, compare loss delta
    /// against the analytic gradient. This is the canonical backprop
    /// correctness test.
    #[test]
    fn backward_matches_numerical_gradient() {
        for act in [Activation::Identity, Activation::Tanh, Activation::Sigmoid] {
            let mut l = layer(act, true);
            let mut rng = StdRng::seed_from_u64(7);
            let x = ecad_tensor::init::uniform(&mut rng, 3, 4, 1.0);
            // Loss = sum(y); then dL/dy = ones.
            let y = l.forward(&x);
            let d_out = Matrix::filled(3, 3, 1.0);
            let (_, grads) = l.backward_params(&x, &y, &d_out);

            let eps = 1e-3f32;
            for r in 0..4 {
                for c in 0..3 {
                    let j = r * 3 + c;
                    let orig = l.weights().as_slice()[j];
                    l.params_mut().0[j] = orig + eps;
                    let up: f32 = l.forward(&x).as_slice().iter().sum();
                    l.params_mut().0[j] = orig - eps;
                    let down: f32 = l.forward(&x).as_slice().iter().sum();
                    l.params_mut().0[j] = orig;

                    let numeric = (up - down) / (2.0 * eps);
                    let analytic = grads.weights[(r, c)];
                    assert!(
                        (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                        "{act} w[{r},{c}]: numeric {numeric} analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let l = layer(Activation::Identity, true);
        let x = Matrix::filled(4, 4, 0.5);
        let y = l.forward(&x);
        let d_out = Matrix::filled(4, 3, 1.0);
        let (_, grads) = l.backward_params(&x, &y, &d_out);
        // Identity activation: db = sum over the 4 rows of ones = 4.
        assert_eq!(grads.bias, vec![4.0, 4.0, 4.0]);
    }

    #[test]
    fn no_bias_layer_has_empty_bias_grads() {
        let l = layer(Activation::Relu, false);
        let x = Matrix::zeros(2, 4);
        let y = l.forward(&x);
        let (_, grads) = l.backward_params(&x, &y, &Matrix::zeros(2, 3));
        assert!(grads.bias.is_empty());
        assert!(l.bias().is_empty());
    }

    #[test]
    fn d_input_shape_matches_x() {
        let l = layer(Activation::Tanh, true);
        let x = Matrix::zeros(6, 4);
        let y = l.forward(&x);
        let (dz, _) = l.backward_params(&x, &y, &Matrix::zeros(6, 3));
        assert_eq!(dz.shape(), y.shape());
        assert_eq!(l.backward_input(&dz).shape(), x.shape());
    }
}
