//! First-order optimizers for MLP training.
//!
//! Two optimizers cover the candidates' needs: classic SGD with momentum
//! (robust, cheap) and Adam (fast convergence on the small, noisy
//! tabular benchmarks). Both keep per-parameter state aligned with the
//! network's layers and update each parameter tensor in one in-place
//! pass that also folds in L2 weight decay. Per element, that pass
//! evaluates the same IEEE expressions in the same order as separate
//! decay, state and subtract passes would, so fusing it changes no bits
//! (DESIGN.md §20).

use ecad_tensor::Matrix;

use crate::layer::LayerGrads;
use crate::Mlp;

/// Which optimizer the trainer should use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Stochastic gradient descent with momentum.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient in `[0, 1)`; 0 disables momentum.
        momentum: f32,
    },
    /// Adam (Kingma & Ba) with the usual defaults.
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

impl OptimizerKind {
    /// Standard SGD: `lr = 0.1`, `momentum = 0.9`.
    pub fn sgd() -> Self {
        OptimizerKind::Sgd {
            lr: 0.1,
            momentum: 0.9,
        }
    }

    /// Standard Adam: `lr = 1e-3`.
    pub fn adam() -> Self {
        OptimizerKind::Adam { lr: 1e-3 }
    }
}

impl Default for OptimizerKind {
    fn default() -> Self {
        OptimizerKind::adam()
    }
}

/// Per-layer optimizer state plus the update rule.
#[derive(Debug, Clone)]
pub(crate) enum OptimizerState {
    Sgd(Sgd),
    Adam(Adam),
}

impl OptimizerState {
    pub(crate) fn new(kind: OptimizerKind, net: &Mlp) -> Self {
        match kind {
            OptimizerKind::Sgd { lr, momentum } => OptimizerState::Sgd(Sgd::new(lr, momentum, net)),
            OptimizerKind::Adam { lr } => OptimizerState::Adam(Adam::new(lr, net)),
        }
    }

    pub(crate) fn step(&mut self, net: &mut Mlp, grads: &[LayerGrads], weight_decay: f32) {
        match self {
            OptimizerState::Sgd(s) => s.step(net, grads, weight_decay),
            OptimizerState::Adam(a) => a.step(net, grads, weight_decay),
        }
    }
}

/// The L2-decayed gradient `g + decay * w`; biases pass `decay = 0`.
/// The `> 0` guard matters for bits: `g + 0 * w` would turn `-0.0`
/// into `+0.0` and a non-finite weight into NaN.
#[inline]
fn decayed(g: f32, w: f32, decay: f32) -> f32 {
    if decay > 0.0 {
        g + decay * w
    } else {
        g
    }
}

/// SGD with momentum: `v = mu*v + g; w -= lr*v`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    vel_w: Vec<Matrix>,
    vel_b: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates SGD state shaped for `net`.
    pub fn new(lr: f32, momentum: f32, net: &Mlp) -> Self {
        Self {
            lr,
            momentum,
            vel_w: net
                .layers()
                .iter()
                .map(|l| Matrix::zeros(l.weights().rows(), l.weights().cols()))
                .collect(),
            vel_b: net
                .layers()
                .iter()
                .map(|l| vec![0.0; l.bias().len()])
                .collect(),
        }
    }

    /// Applies one update step. `weight_decay` adds `weight_decay * w`
    /// to every weight gradient first (biases are not decayed).
    ///
    /// # Panics
    ///
    /// Panics if `grads` is not aligned with the network's layers.
    pub fn step(&mut self, net: &mut Mlp, grads: &[LayerGrads], weight_decay: f32) {
        assert_eq!(
            grads.len(),
            self.vel_w.len(),
            "gradient/layer count mismatch"
        );
        let (lr, mu) = (self.lr, self.momentum);
        let update = |params: &mut [f32], grads: &[f32], vel: &mut [f32], decay: f32| {
            assert_eq!(params.len(), grads.len(), "gradient shape mismatch");
            for ((w, &g), v) in params.iter_mut().zip(grads).zip(vel) {
                let g = decayed(g, *w, decay);
                *v = *v * mu + g;
                *w -= *v * lr;
            }
        };
        for (i, layer) in net.layers_mut().iter_mut().enumerate() {
            let (w, b) = layer.params_mut();
            let vel_w = self.vel_w[i].as_mut_slice();
            update(w, grads[i].weights.as_slice(), vel_w, weight_decay);
            update(b, &grads[i].bias, &mut self.vel_b[i], 0.0);
        }
    }
}

/// Adam optimizer with bias-corrected first/second moments.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m_w: Vec<Matrix>,
    v_w: Vec<Matrix>,
    m_b: Vec<Vec<f32>>,
    v_b: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam state shaped for `net` (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f32, net: &Mlp) -> Self {
        let zero_w = |net: &Mlp| -> Vec<Matrix> {
            net.layers()
                .iter()
                .map(|l| Matrix::zeros(l.weights().rows(), l.weights().cols()))
                .collect()
        };
        let zero_b = |net: &Mlp| -> Vec<Vec<f32>> {
            net.layers()
                .iter()
                .map(|l| vec![0.0; l.bias().len()])
                .collect()
        };
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m_w: zero_w(net),
            v_w: zero_w(net),
            m_b: zero_b(net),
            v_b: zero_b(net),
        }
    }

    /// Applies one update step. `weight_decay` adds `weight_decay * w`
    /// to every weight gradient first (biases are not decayed).
    ///
    /// # Panics
    ///
    /// Panics if `grads` is not aligned with the network's layers.
    pub fn step(&mut self, net: &mut Mlp, grads: &[LayerGrads], weight_decay: f32) {
        assert_eq!(grads.len(), self.m_w.len(), "gradient/layer count mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let update = |params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32], decay| {
            assert_eq!(params.len(), grads.len(), "gradient shape mismatch");
            for (((w, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
                let g = decayed(g, *w, decay);
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        };
        for (i, layer) in net.layers_mut().iter_mut().enumerate() {
            let (w, b) = layer.params_mut();
            let (m_w, v_w) = (self.m_w[i].as_mut_slice(), self.v_w[i].as_mut_slice());
            update(w, grads[i].weights.as_slice(), m_w, v_w, weight_decay);
            update(b, &grads[i].bias, &mut self.m_b[i], &mut self.v_b[i], 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, MlpTopology};
    use ecad_tensor::ops;
    use rt::rand::rngs::StdRng;
    use rt::rand::SeedableRng;

    fn quadratic_setup() -> (Mlp, Matrix, Matrix) {
        // Tiny 1-layer net on a separable problem; loss should drop.
        let topo = MlpTopology::builder(2, 2).build();
        let net = Mlp::from_topology(&topo, &mut StdRng::seed_from_u64(0));
        let x = Matrix::from_rows(&[[1.0, 0.0], [0.0, 1.0], [1.0, 0.1], [0.1, 1.0]]);
        let t = ops::one_hot(&[0, 1, 0, 1], 2);
        (net, x, t)
    }

    fn loss_of(net: &Mlp, x: &Matrix, t: &Matrix) -> f32 {
        ops::cross_entropy(&net.predict_proba(x), t)
    }

    #[test]
    fn sgd_reduces_loss() {
        let (mut net, x, t) = quadratic_setup();
        let mut opt = Sgd::new(0.5, 0.0, &net);
        let before = loss_of(&net, &x, &t);
        for _ in 0..50 {
            let (grads, _) = net.backprop(&x, &t);
            opt.step(&mut net, &grads, 0.0);
        }
        let after = loss_of(&net, &x, &t);
        assert!(after < before * 0.5, "before {before} after {after}");
    }

    #[test]
    fn momentum_accelerates_sgd() {
        let (net0, x, t) = quadratic_setup();
        let run = |momentum: f32| {
            let mut net = net0.clone();
            let mut opt = Sgd::new(0.05, momentum, &net);
            for _ in 0..30 {
                let (grads, _) = net.backprop(&x, &t);
                opt.step(&mut net, &grads, 0.0);
            }
            loss_of(&net, &x, &t)
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn adam_reduces_loss() {
        let (mut net, x, t) = quadratic_setup();
        let mut opt = Adam::new(0.05, &net);
        let before = loss_of(&net, &x, &t);
        for _ in 0..100 {
            let (grads, _) = net.backprop(&x, &t);
            opt.step(&mut net, &grads, 0.0);
        }
        let after = loss_of(&net, &x, &t);
        assert!(after < before * 0.3, "before {before} after {after}");
    }

    #[test]
    fn adam_keeps_parameters_finite() {
        let (mut net, x, t) = quadratic_setup();
        let mut opt = Adam::new(0.5, &net);
        for _ in 0..200 {
            let (grads, _) = net.backprop(&x, &t);
            opt.step(&mut net, &grads, 0.0);
        }
        assert!(net.is_finite());
    }

    /// `weight_decay = 0` skips the decay term rather than adding
    /// `0 * w`, which would turn an infinite weight's gradient into NaN.
    #[test]
    fn zero_weight_decay_adds_no_decay_term() {
        let (mut net, x, t) = quadratic_setup();
        let (grads, _) = net.backprop(&x, &t);
        net.layers_mut()[0].params_mut().0[0] = f32::INFINITY;
        Sgd::new(0.1, 0.9, &net).step(&mut net, &grads, 0.0);
        assert_eq!(net.layers()[0].weights().as_slice()[0], f32::INFINITY);
    }

    #[test]
    fn kind_constructors() {
        assert!(matches!(OptimizerKind::sgd(), OptimizerKind::Sgd { .. }));
        assert!(matches!(OptimizerKind::adam(), OptimizerKind::Adam { .. }));
        assert!(matches!(
            OptimizerKind::default(),
            OptimizerKind::Adam { .. }
        ));
    }

    #[test]
    fn optimizer_state_dispatches() {
        let (mut net, x, t) = quadratic_setup();
        let mut st = OptimizerState::new(OptimizerKind::sgd(), &net);
        let before = loss_of(&net, &x, &t);
        for _ in 0..30 {
            let (grads, _) = net.backprop(&x, &t);
            st.step(&mut net, &grads, 0.0);
        }
        assert!(loss_of(&net, &x, &t) < before);
    }

    #[test]
    fn deep_net_trains_with_works_on_all_layer_shapes() {
        let topo = MlpTopology::builder(3, 2)
            .hidden(8, Activation::Relu, true)
            .hidden(4, Activation::Tanh, false)
            .build();
        let mut net = Mlp::from_topology(&topo, &mut StdRng::seed_from_u64(1));
        let x = Matrix::from_rows(&[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]);
        let t = ops::one_hot(&[0, 1], 2);
        let mut opt = Adam::new(0.01, &net);
        let before = loss_of(&net, &x, &t);
        for _ in 0..100 {
            let (grads, _) = net.backprop(&x, &t);
            opt.step(&mut net, &grads, 0.0);
        }
        assert!(loss_of(&net, &x, &t) < before);
    }
}
