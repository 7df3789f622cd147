//! Minibatch training loop with early stopping.
//!
//! The ECAD simulation worker trains each candidate topology and reports
//! test accuracy; this module is that training loop. It standardizes
//! nothing (callers standardize via `ecad-dataset`'s scaler), shuffles
//! per epoch, supports early stopping on training loss plateau, and
//! fails soft: a candidate whose training diverges returns a
//! [`TrainError::Diverged`] rather than poisoning the search.

use std::error::Error;
use std::fmt;

use ecad_dataset::Dataset;
use ecad_tensor::ops;
use rt::rand::seq::SliceRandom;
use rt::rand::Rng;

use crate::optimizer::OptimizerState;
use crate::{Mlp, MlpTopology, OptimizerKind};

/// Error produced by [`Trainer::fit`].
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The dataset's feature width does not match the topology input.
    InputMismatch {
        /// Topology input width.
        expected: usize,
        /// Dataset feature count.
        found: usize,
    },
    /// The dataset's class count exceeds the topology's output width.
    ClassMismatch {
        /// Topology class count.
        expected: usize,
        /// Dataset class count.
        found: usize,
    },
    /// Training produced non-finite parameters (exploding gradients).
    Diverged {
        /// Epoch at which divergence was detected.
        epoch: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::InputMismatch { expected, found } => {
                write!(
                    f,
                    "topology expects {expected} inputs, dataset has {found} features"
                )
            }
            TrainError::ClassMismatch { expected, found } => {
                write!(
                    f,
                    "topology expects {expected} classes, dataset has {found}"
                )
            }
            TrainError::Diverged { epoch } => {
                write!(f, "training diverged at epoch {epoch}")
            }
        }
    }
}

impl Error for TrainError {}

/// Hyperparameters for one training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Minibatch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Optimizer and learning rate.
    pub optimizer: OptimizerKind,
    /// Stop if training loss fails to improve by `min_delta` for this
    /// many consecutive epochs. `0` disables early stopping.
    pub patience: usize,
    /// Minimum loss improvement that counts as progress.
    pub min_delta: f32,
    /// L2 weight-decay strength (sklearn `MLPClassifier`'s `alpha`):
    /// the optimizer adds `weight_decay * w` to every weight gradient in
    /// its update pass; biases are not decayed. `0.0` disables
    /// regularization.
    pub weight_decay: f32,
    /// GEMM lane count applied via [`ecad_tensor::gemm::set_threads`]
    /// before training. `0` (the default) leaves the process-wide
    /// setting untouched. By the kernels' determinism contract the
    /// trained weights are bit-identical at any value, so this is a
    /// pure throughput knob — safe on cluster workers with any core
    /// count.
    pub gemm_threads: usize,
}

impl TrainConfig {
    /// A fast configuration for searches: Adam, 30 epochs, batch 32,
    /// patience 5. This is the default the evolutionary engine uses per
    /// candidate.
    pub fn fast() -> Self {
        Self {
            epochs: 30,
            batch_size: 32,
            optimizer: OptimizerKind::adam(),
            patience: 5,
            min_delta: 1e-4,
            weight_decay: 1e-4,
            gemm_threads: 0,
        }
    }

    /// A thorough configuration for final refits: Adam, 120 epochs,
    /// batch 32, patience 12.
    pub fn thorough() -> Self {
        Self {
            epochs: 120,
            batch_size: 32,
            optimizer: OptimizerKind::adam(),
            patience: 12,
            min_delta: 1e-5,
            weight_decay: 1e-4,
            gemm_threads: 0,
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::fast()
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Per-epoch mean training loss.
    pub loss_history: Vec<f32>,
    /// Accuracy on the training set after the final epoch.
    pub train_accuracy: f32,
    /// Accuracy on the held-out test set after the final epoch.
    pub test_accuracy: f32,
    /// Epochs actually run (≤ `config.epochs` with early stopping).
    pub epochs_run: usize,
    /// Whether early stopping triggered.
    pub early_stopped: bool,
}

/// Trains [`Mlp`] instances from topologies.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Instantiates `topology`, trains it on `train`, and evaluates on
    /// `test`. Returns the report; use [`Trainer::fit_network`] to keep
    /// the trained network.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] on shape mismatches or divergence.
    pub fn fit<R: Rng + ?Sized>(
        &self,
        topology: &MlpTopology,
        train: &Dataset,
        test: &Dataset,
        rng: &mut R,
    ) -> Result<TrainReport, TrainError> {
        self.fit_network(topology, train, test, rng).map(|(_, r)| r)
    }

    /// Like [`Trainer::fit`] but also returns the trained network.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] on shape mismatches or divergence.
    pub fn fit_network<R: Rng + ?Sized>(
        &self,
        topology: &MlpTopology,
        train: &Dataset,
        test: &Dataset,
        rng: &mut R,
    ) -> Result<(Mlp, TrainReport), TrainError> {
        if train.n_features() != topology.input() {
            return Err(TrainError::InputMismatch {
                expected: topology.input(),
                found: train.n_features(),
            });
        }
        if train.n_classes() > topology.n_classes() {
            return Err(TrainError::ClassMismatch {
                expected: topology.n_classes(),
                found: train.n_classes(),
            });
        }

        if self.config.gemm_threads > 0 {
            ecad_tensor::gemm::set_threads(self.config.gemm_threads);
        }

        let mut net = Mlp::from_topology(topology, rng);
        let mut opt = OptimizerState::new(self.config.optimizer, &net);
        let n = train.len();
        let batch = self.config.batch_size.clamp(1, n);
        let targets = ops::one_hot(train.labels(), topology.n_classes());

        let mut order: Vec<usize> = (0..n).collect();
        let mut loss_history = Vec::with_capacity(self.config.epochs);
        let mut best_loss = f32::INFINITY;
        let mut stale = 0usize;
        let mut early_stopped = false;

        for epoch in 0..self.config.epochs {
            let _prof = rt::prof_span!("epoch");
            order.shuffle(rng);
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(batch) {
                let xb = train.features().select_rows(chunk);
                let tb = targets.select_rows(chunk);
                let (grads, loss) = net.backprop(&xb, &tb);
                opt.step(&mut net, &grads, self.config.weight_decay);
                epoch_loss += loss as f64;
                batches += 1;
            }
            let mean_loss = (epoch_loss / batches.max(1) as f64) as f32;
            loss_history.push(mean_loss);

            if !mean_loss.is_finite() || !net.is_finite() {
                return Err(TrainError::Diverged { epoch });
            }

            if self.config.patience > 0 {
                if mean_loss + self.config.min_delta < best_loss {
                    best_loss = mean_loss;
                    stale = 0;
                } else {
                    stale += 1;
                    if stale >= self.config.patience {
                        early_stopped = true;
                        break;
                    }
                }
            }
        }

        let train_accuracy = net.accuracy(train.features(), train.labels());
        let test_accuracy = net.accuracy(test.features(), test.labels());
        let epochs_run = loss_history.len();
        Ok((
            net,
            TrainReport {
                loss_history,
                train_accuracy,
                test_accuracy,
                epochs_run,
                early_stopped,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activation;
    use ecad_dataset::synth::SyntheticSpec;
    use rt::rand::rngs::StdRng;
    use rt::rand::SeedableRng;

    fn easy_dataset() -> Dataset {
        SyntheticSpec::new("easy", 300, 6, 2)
            .with_class_sep(4.0)
            .with_nonlinearity(0.0)
            .with_seed(0)
            .generate()
    }

    #[test]
    fn fit_learns_separable_data() {
        let ds = easy_dataset();
        let mut rng = StdRng::seed_from_u64(0);
        let (train, test) = ds.split(0.3, &mut rng);
        let topo = MlpTopology::builder(6, 2)
            .hidden(16, Activation::Relu, true)
            .build();
        let report = Trainer::new(TrainConfig::fast())
            .fit(&topo, &train, &test, &mut rng)
            .unwrap();
        assert!(
            report.test_accuracy > 0.9,
            "accuracy {}",
            report.test_accuracy
        );
    }

    #[test]
    fn loss_decreases_over_training() {
        let ds = easy_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let topo = MlpTopology::builder(6, 2)
            .hidden(8, Activation::Tanh, true)
            .build();
        let report = Trainer::new(TrainConfig::fast())
            .fit(&topo, &ds, &ds, &mut rng)
            .unwrap();
        let first = report.loss_history[0];
        let last = *report.loss_history.last().unwrap();
        assert!(last < first, "first {first} last {last}");
    }

    #[test]
    fn input_mismatch_is_reported() {
        let ds = easy_dataset();
        let topo = MlpTopology::builder(99, 2).build();
        let err = Trainer::new(TrainConfig::fast())
            .fit(&topo, &ds, &ds, &mut StdRng::seed_from_u64(0))
            .unwrap_err();
        assert_eq!(
            err,
            TrainError::InputMismatch {
                expected: 99,
                found: 6
            }
        );
    }

    #[test]
    fn class_mismatch_is_reported() {
        let ds = SyntheticSpec::new("c4", 40, 4, 4).generate();
        let topo = MlpTopology::builder(4, 2).build();
        let err = Trainer::new(TrainConfig::fast())
            .fit(&topo, &ds, &ds, &mut StdRng::seed_from_u64(0))
            .unwrap_err();
        assert_eq!(
            err,
            TrainError::ClassMismatch {
                expected: 2,
                found: 4
            }
        );
    }

    #[test]
    fn early_stopping_triggers_on_plateau() {
        let ds = easy_dataset();
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 100;
        cfg.patience = 3;
        cfg.min_delta = 10.0; // impossible improvement => stops after patience
        let report = Trainer::new(cfg)
            .fit(
                &MlpTopology::builder(6, 2).build(),
                &ds,
                &ds,
                &mut StdRng::seed_from_u64(2),
            )
            .unwrap();
        assert!(report.early_stopped);
        assert!(report.epochs_run <= 5);
    }

    #[test]
    fn zero_patience_disables_early_stopping() {
        let ds = easy_dataset();
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 7;
        cfg.patience = 0;
        let report = Trainer::new(cfg)
            .fit(
                &MlpTopology::builder(6, 2).build(),
                &ds,
                &ds,
                &mut StdRng::seed_from_u64(2),
            )
            .unwrap();
        assert_eq!(report.epochs_run, 7);
        assert!(!report.early_stopped);
    }

    #[test]
    fn divergence_is_detected_not_propagated_as_nan() {
        let ds = easy_dataset();
        let mut cfg = TrainConfig::fast();
        // Absurd learning rate to force explosion on a deep net.
        cfg.optimizer = OptimizerKind::Sgd {
            lr: 1e8,
            momentum: 0.99,
        };
        cfg.epochs = 50;
        cfg.patience = 0;
        let topo = MlpTopology::builder(6, 2)
            .hidden(32, Activation::Relu, true)
            .hidden(32, Activation::Relu, true)
            .build();
        let res = Trainer::new(cfg).fit(&topo, &ds, &ds, &mut StdRng::seed_from_u64(3));
        match res {
            Err(TrainError::Diverged { .. }) => {}
            Ok(r) => {
                // If it survived, parameters must still be finite.
                assert!(r.test_accuracy.is_finite());
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn fit_network_returns_usable_model() {
        let ds = easy_dataset();
        let mut rng = StdRng::seed_from_u64(4);
        let topo = MlpTopology::builder(6, 2)
            .hidden(8, Activation::Relu, true)
            .build();
        let (net, report) = Trainer::new(TrainConfig::fast())
            .fit_network(&topo, &ds, &ds, &mut rng)
            .unwrap();
        let acc = net.accuracy(ds.features(), ds.labels());
        assert!((acc - report.train_accuracy).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weight_norm() {
        let ds = easy_dataset();
        let norm_with = |wd: f32| {
            let mut cfg = TrainConfig::fast();
            cfg.epochs = 20;
            cfg.patience = 0;
            cfg.weight_decay = wd;
            let topo = MlpTopology::builder(6, 2)
                .hidden(32, Activation::Relu, true)
                .build();
            let (net, _) = Trainer::new(cfg)
                .fit_network(&topo, &ds, &ds, &mut StdRng::seed_from_u64(8))
                .unwrap();
            net.layers()
                .iter()
                .map(|l| l.weights().frobenius_norm())
                .sum::<f32>()
        };
        assert!(
            norm_with(0.05) < norm_with(0.0),
            "decay must shrink weights"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = easy_dataset();
        let topo = MlpTopology::builder(6, 2)
            .hidden(8, Activation::Relu, true)
            .build();
        let run = |seed: u64| {
            Trainer::new(TrainConfig::fast())
                .fit(&topo, &ds, &ds, &mut StdRng::seed_from_u64(seed))
                .unwrap()
                .test_accuracy
        };
        assert_eq!(run(11), run(11));
    }
}
