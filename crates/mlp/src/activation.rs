//! Hidden-layer activation functions.
//!
//! The activation is one of the four NNA genes the evolutionary engine
//! mutates (§III-A: "number of layers, layer size, activation function,
//! and bias"). The output layer always applies softmax, handled by the
//! trainer, so `Activation` covers hidden layers only.

use ecad_tensor::ops;
use rt::json::{Cursor, DecodeError, FromJson, Json, ToJson};

/// A hidden-layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Logistic sigmoid, `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear layer).
    Identity,
}

impl Activation {
    /// All variants, for mutation sampling.
    pub const ALL: [Activation; 4] = [
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Identity,
    ];

    /// Applies the activation to a single value.
    ///
    /// `Tanh` is [`ops::tanh`], the workspace's port of fdlibm's
    /// `tanhf`, so the result does not depend on the host's libm.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => ops::tanh(x),
            Activation::Identity => x,
        }
    }

    /// Applies the activation to every element of `xs`, bit for bit as
    /// [`apply`](Activation::apply) would: the forward pass of a layer.
    ///
    /// The variant is matched once per slice, not per element, so each
    /// loop is plain enough to vectorize; `Tanh` runs
    /// [`ops::tanh_inplace`].
    pub fn apply_inplace(self, xs: &mut [f32]) {
        match self {
            Activation::Relu => xs.iter_mut().for_each(|x| *x = Activation::Relu.apply(*x)),
            Activation::Sigmoid => xs
                .iter_mut()
                .for_each(|x| *x = Activation::Sigmoid.apply(*x)),
            Activation::Tanh => ops::tanh_inplace(xs),
            Activation::Identity => {}
        }
    }

    /// Derivative expressed in terms of the *activated* output `y`
    /// (`y = apply(x)`), which is what backpropagation has in hand.
    ///
    /// ReLU's derivative at 0 is taken as 0 (the subgradient convention
    /// sklearn and most frameworks use).
    #[inline]
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }

    /// The pre-activation gradient of a layer, given the upstream
    /// gradient `grad` (w.r.t. the activated outputs `y`): element `i`
    /// is `grad[i] * derivative_from_output(y[i])`, bit for bit.
    ///
    /// As in [`apply_inplace`](Activation::apply_inplace), the variant is
    /// matched once per slice. The product is kept even where the
    /// derivative is 0 or 1, so ReLU still gives `-0.0` for a negative
    /// gradient and NaN for an infinite or NaN one.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != y.len()`.
    pub fn backward(self, grad: &[f32], y: &[f32]) -> Vec<f32> {
        assert_eq!(grad.len(), y.len(), "forward/backward shape mismatch");
        // One instance per variant, each with its derivative inlined.
        fn chain(grad: &[f32], y: &[f32], derivative: impl Fn(f32) -> f32) -> Vec<f32> {
            grad.iter()
                .zip(y)
                .map(|(&g, &y)| g * derivative(y))
                .collect()
        }
        match self {
            Activation::Relu => chain(grad, y, |y| Activation::Relu.derivative_from_output(y)),
            Activation::Sigmoid => {
                chain(grad, y, |y| Activation::Sigmoid.derivative_from_output(y))
            }
            Activation::Tanh => chain(grad, y, |y| Activation::Tanh.derivative_from_output(y)),
            Activation::Identity => {
                chain(grad, y, |y| Activation::Identity.derivative_from_output(y))
            }
        }
    }

    /// Short lowercase name (`"relu"`, `"sigmoid"`, ...), used in genome
    /// hashing and report output.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Identity => "identity",
        }
    }

    /// Parses a name produced by [`Activation::name`].
    pub fn from_name(s: &str) -> Option<Activation> {
        Activation::ALL.iter().copied().find(|a| a.name() == s)
    }
}

impl ToJson for Activation {
    /// The [`name`](Activation::name).
    fn to_json(&self) -> Json {
        self.name().to_json()
    }
}

impl FromJson for Activation {
    fn decode(at: Cursor<'_>) -> Result<Activation, DecodeError> {
        let name = at.str()?;
        Activation::from_name(name).ok_or_else(|| at.error(format!("unknown activation {name:?}")))
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-6);
        assert!(s.apply(100.0) <= 1.0);
        assert!(s.apply(-100.0) >= 0.0);
    }

    #[test]
    fn tanh_is_odd() {
        let t = Activation::Tanh;
        assert!((t.apply(1.3) + t.apply(-1.3)).abs() < 1e-6);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in Activation::ALL {
            for &x in &[-2.0f32, -0.5, 0.31, 1.7] {
                let y = act.apply(x);
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative_from_output(y);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{act} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    /// The slice passes give the per-element forms' bits for every
    /// activation. The gradients include ±0, ±inf and NaN, which pin
    /// ReLU's `g * 0.0` (`-0.0` for a negative gradient, NaN for an
    /// infinite or NaN one). No case multiplies two NaNs, whose result
    /// payload Rust leaves unspecified.
    #[test]
    fn slice_passes_match_the_per_element_forms_bitwise() {
        let specials = [
            0.0,
            -0.0,
            1.0,
            -2.5,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let nans = [f32::NAN, f32::from_bits(0xffc0_1234)];
        let spread = (0..200).map(|i| (i as f32 - 100.0) * 0.173);
        let xs: Vec<f32> = specials.iter().copied().chain(spread).collect();
        for act in Activation::ALL {
            let mut ys = xs.clone();
            ys.extend(nans);
            act.apply_inplace(&mut ys);
            for (x, y) in xs.iter().chain(&nans).zip(&ys) {
                assert_eq!(y.to_bits(), act.apply(*x).to_bits(), "{act} forward at {x}");
            }
            ys.truncate(xs.len());
            for g in specials.iter().chain(&nans) {
                let dz = act.backward(&vec![*g; ys.len()], &ys);
                for (d, y) in dz.iter().zip(&ys) {
                    let want = g * act.derivative_from_output(*y);
                    assert_eq!(d.to_bits(), want.to_bits(), "{act} backward g={g} y={y}");
                }
            }
        }
    }

    #[test]
    fn relu_derivative_at_zero_is_zero() {
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
    }

    #[test]
    fn names_round_trip() {
        for a in Activation::ALL {
            assert_eq!(Activation::from_name(a.name()), Some(a));
        }
        assert_eq!(Activation::from_name("swish"), None);
    }
}
