//! The full MLP: a stack of dense layers plus a softmax output head.

use ecad_tensor::{ops, Matrix};
use rt::rand::Rng;

use crate::layer::LayerGrads;
use crate::{Activation, DenseLayer, MlpTopology};

/// A trainable multilayer perceptron instantiated from an
/// [`MlpTopology`].
///
/// The final layer's logits are passed through a row-wise softmax by
/// [`Mlp::predict_proba`]; training couples that softmax with
/// cross-entropy so the output-layer gradient is simply
/// `probs - one_hot(targets)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    topology: MlpTopology,
    layers: Vec<DenseLayer>,
}

impl Mlp {
    /// Instantiates a topology with seeded random weights.
    pub fn from_topology<R: Rng + ?Sized>(topology: &MlpTopology, rng: &mut R) -> Self {
        let mut layers = Vec::with_capacity(topology.depth() + 1);
        let mut fan_in = topology.input();
        for spec in topology.hidden() {
            layers.push(DenseLayer::new(
                fan_in,
                spec.neurons,
                spec.activation,
                spec.bias,
                rng,
            ));
            fan_in = spec.neurons;
        }
        // Implicit output head: identity activation (softmax applied by
        // the loss / predict_proba), always biased.
        layers.push(DenseLayer::new(
            fan_in,
            topology.n_classes(),
            Activation::Identity,
            true,
            rng,
        ));
        Self {
            topology: topology.clone(),
            layers,
        }
    }

    /// The topology this network was instantiated from.
    pub fn topology(&self) -> &MlpTopology {
        &self.topology
    }

    /// The layers, hidden layers first, output head last.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Forward pass returning raw logits (no softmax).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != topology.input()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let _prof = rt::prof_span!("forward");
        let mut h = x.clone();
        for l in &self.layers {
            h = l.forward(&h);
        }
        h
    }

    /// Forward pass retaining every intermediate activation (input
    /// included), for backpropagation. `result[0]` is `x`,
    /// `result.last()` is the logits.
    pub fn forward_trace(&self, x: &Matrix) -> Vec<Matrix> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for l in &self.layers {
            let next = l.forward(acts.last().expect("nonempty"));
            acts.push(next);
        }
        acts
    }

    /// Class probabilities (softmax over logits).
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        ops::softmax_rows(&self.forward(x))
    }

    /// Hard class predictions (argmax of probabilities).
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.forward(x).argmax_rows()
    }

    /// Classification accuracy against integer labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()`.
    pub fn accuracy(&self, x: &Matrix, labels: &[usize]) -> f32 {
        ops::accuracy(&self.forward(x), labels)
    }

    /// Backpropagates softmax-cross-entropy loss for a minibatch.
    ///
    /// Returns per-layer gradients (aligned with [`Mlp::layers`]) and the
    /// batch's mean loss. Gradients are already divided by the batch size
    /// and exclude weight decay, which the optimizer folds into its
    /// update. Each layer runs [`DenseLayer::backward_params`]; every
    /// layer but the first also runs [`DenseLayer::backward_input`] to
    /// feed the layer below — the gradient w.r.t. `x` is never formed.
    pub fn backprop(&self, x: &Matrix, targets_one_hot: &Matrix) -> (Vec<LayerGrads>, f32) {
        let forward_prof = rt::prof_span!("forward");
        let acts = self.forward_trace(x);
        drop(forward_prof);
        let _prof = rt::prof_span!("backward");
        let logits = acts.last().expect("trace nonempty");
        let probs = ops::softmax_rows(logits);
        let loss = ops::cross_entropy(&probs, targets_one_hot);
        let batch = x.rows().max(1) as f32;

        // Softmax+CE gradient w.r.t. logits: (p - t) / batch.
        let mut delta = probs
            .sub(targets_one_hot)
            .expect("target shape must match logits");
        delta.scale_inplace(1.0 / batch);

        let mut grads: Vec<LayerGrads> = Vec::with_capacity(self.layers.len());
        // The output head has Identity activation, so its dZ equals
        // `delta`; hidden layers apply their own derivative.
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (dz, g) = layer.backward_params(&acts[i], &acts[i + 1], &delta);
            grads.push(g);
            if i > 0 {
                delta = layer.backward_input(&dz);
            }
        }
        grads.reverse();
        (grads, loss)
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.topology.param_count()
    }

    /// Whether all weights and biases are finite.
    pub fn is_finite(&self) -> bool {
        self.layers
            .iter()
            .all(|l| l.weights().all_finite() && l.bias().iter().all(|b| b.is_finite()))
    }

    /// Mutably borrows the layers (used by the optimizer's in-place update).
    pub(crate) fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt::prof::{ClockKind, Profiler};
    use rt::rand::rngs::StdRng;
    use rt::rand::SeedableRng;

    fn net() -> Mlp {
        let topo = MlpTopology::builder(4, 3)
            .hidden(6, Activation::Relu, true)
            .hidden(5, Activation::Tanh, false)
            .build();
        Mlp::from_topology(&topo, &mut StdRng::seed_from_u64(0))
    }

    #[test]
    fn layer_count_includes_output_head() {
        assert_eq!(net().layers().len(), 3);
    }

    #[test]
    fn forward_shape_is_batch_by_classes() {
        let n = net();
        let x = Matrix::zeros(7, 4);
        assert_eq!(n.forward(&x).shape(), (7, 3));
    }

    #[test]
    fn forward_trace_lengths() {
        let n = net();
        let x = Matrix::zeros(2, 4);
        let trace = n.forward_trace(&x);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[0], x);
        assert_eq!(trace[3].shape(), (2, 3));
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let n = net();
        let mut rng = StdRng::seed_from_u64(1);
        let x = ecad_tensor::init::uniform(&mut rng, 5, 4, 2.0);
        let p = n.predict_proba(&x);
        for r in 0..5 {
            assert!((p.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn backprop_returns_gradient_per_layer() {
        let n = net();
        let x = Matrix::zeros(4, 4);
        let t = ops::one_hot(&[0, 1, 2, 0], 3);
        let (grads, loss) = n.backprop(&x, &t);
        assert_eq!(grads.len(), 3);
        assert!(loss.is_finite() && loss > 0.0);
        // Gradient shapes align with layer parameter shapes.
        for (g, l) in grads.iter().zip(n.layers()) {
            assert_eq!(g.weights.shape(), l.weights().shape());
            assert_eq!(g.bias.len(), l.bias().len());
        }
    }

    /// Whole-network gradient check through two hidden layers.
    #[test]
    fn backprop_matches_numerical_gradient() {
        let topo = MlpTopology::builder(3, 2)
            .hidden(4, Activation::Tanh, true)
            .build();
        let mut net = Mlp::from_topology(&topo, &mut StdRng::seed_from_u64(5));
        let mut rng = StdRng::seed_from_u64(9);
        let x = ecad_tensor::init::uniform(&mut rng, 4, 3, 1.0);
        let t = ops::one_hot(&[0, 1, 1, 0], 2);

        let (grads, _) = net.backprop(&x, &t);
        let eps = 1e-3f32;
        // Check a sample of weight coordinates in the first layer.
        for (r, c) in [(0, 0), (1, 2), (2, 3)] {
            let loss_at = |nudge: f32, net: &mut Mlp| {
                let w = &mut net.layers_mut()[0].params_mut().0[r * 4 + c];
                let orig = *w;
                *w += nudge;
                let loss = ops::cross_entropy(&net.predict_proba(&x), &t);
                net.layers_mut()[0].params_mut().0[r * 4 + c] = orig;
                loss
            };
            let up = loss_at(eps, &mut net);
            let down = loss_at(-eps, &mut net);
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grads[0].weights[(r, c)];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                "w[{r},{c}]: numeric {numeric} analytic {analytic}"
            );
        }
    }

    /// Work-count pin: one backprop through L layers runs L
    /// weight-gradient GEMMs but only L − 1 input-gradient GEMMs.
    #[test]
    fn backprop_skips_the_first_layers_input_gradient() {
        let gemm_calls = |net: &Mlp| {
            let prof = Profiler::new(ClockKind::Ticks);
            let installed = prof.install();
            net.backprop(&Matrix::zeros(4, 4), &ops::one_hot(&[0, 1, 2, 0], 3));
            drop(installed);
            let root = prof.report();
            let calls = |name| root.find(name).map_or(0, |n| n.calls);
            (calls("gemm_at_b"), calls("gemm_a_bt"))
        };
        assert_eq!(gemm_calls(&net()), (3, 2));
        let head_only = MlpTopology::builder(4, 3).build();
        let head_only = Mlp::from_topology(&head_only, &mut StdRng::seed_from_u64(0));
        assert_eq!(gemm_calls(&head_only), (1, 0));
    }

    #[test]
    fn accuracy_on_labels() {
        let n = net();
        let x = Matrix::zeros(3, 4);
        let preds = n.predict(&x);
        let acc = n.accuracy(&x, &preds);
        assert!((acc - 1.0).abs() < 1e-6);
    }

    #[test]
    fn instantiation_is_deterministic_per_seed() {
        let topo = MlpTopology::builder(4, 2)
            .hidden(3, Activation::Relu, true)
            .build();
        let a = Mlp::from_topology(&topo, &mut StdRng::seed_from_u64(3));
        let b = Mlp::from_topology(&topo, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn is_finite_on_fresh_network() {
        assert!(net().is_finite());
    }
}
