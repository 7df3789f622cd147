//! Bitwise oracle for the training step.
//!
//! `reference_fit` is an independent trainer built from public items
//! only and written as the plain minibatch step:
//!
//! * the full backward pass, the first layer's input gradient included;
//! * L2 weight decay as its own AXPY on the weight gradients;
//! * Adam / SGD step matrices materialised, then subtracted.
//!
//! `Trainer::fit_network` skips the unused gradient and fuses decay,
//! optimizer state and update into one in-place pass per tensor, so it
//! must reproduce the reference **bit for bit** — every weight and bias,
//! the loss history and both accuracies — over a seeded sweep of depths,
//! activations, bias flags, optimizers and weight decays, with a ragged
//! last minibatch. A reassociated-Adam mutant that stays within 1e-4 of
//! the reference proves the comparison is not vacuous.

use ecad_dataset::synth::SyntheticSpec;
use ecad_dataset::Dataset;
use ecad_mlp::{Activation, Mlp, MlpTopology, OptimizerKind, TrainConfig, Trainer};
use ecad_tensor::{gemm, ops, Matrix};
use rt::rand::rngs::StdRng;
use rt::rand::seq::SliceRandom;
use rt::rand::SeedableRng;

/// Minibatch size; the 45-row training split leaves a last batch of 5.
const BATCH: usize = 8;

/// How the reference evaluates Adam's step.
#[derive(Clone, Copy, PartialEq)]
enum AdamForm {
    /// `lr * m_hat / (sqrt(v_hat) + eps)`, left to right.
    Exact,
    /// `lr * (m_hat / (sqrt(v_hat) + eps))`: equal on paper, rounded
    /// differently in f32.
    Reassociated,
}

struct RefLayer {
    w: Matrix,
    b: Vec<f32>,
    act: Activation,
    bias: bool,
}

impl RefLayer {
    fn forward(&self, x: &Matrix) -> Matrix {
        let mut z = if self.bias {
            gemm::matmul_bias(x, &self.w, &self.b)
        } else {
            gemm::matmul(x, &self.w)
        };
        let act = self.act;
        z.map_inplace(|v| act.apply(v));
        z
    }
}

fn forward(layers: &[RefLayer], x: &Matrix) -> Matrix {
    layers.iter().fold(x.clone(), |h, l| l.forward(&h))
}

/// Per-layer `(dW, db)` and the batch's mean loss.
fn backprop(layers: &[RefLayer], x: &Matrix, t: &Matrix) -> (Vec<(Matrix, Vec<f32>)>, f32) {
    let mut acts = vec![x.clone()];
    for l in layers {
        let next = l.forward(acts.last().unwrap());
        acts.push(next);
    }
    let probs = ops::softmax_rows(acts.last().unwrap());
    let loss = ops::cross_entropy(&probs, t);
    let mut delta = probs.sub(t).unwrap();
    delta.scale_inplace(1.0 / x.rows().max(1) as f32);
    let mut grads = Vec::new();
    for (i, l) in layers.iter().enumerate().rev() {
        let act = l.act;
        let dz = delta
            .zip_with(&acts[i + 1], "backward", |g, y| {
                g * act.derivative_from_output(y)
            })
            .unwrap();
        let dw = gemm::matmul_at_b(&acts[i], &dz);
        let db = if l.bias {
            ops::col_sums(&dz)
        } else {
            Vec::new()
        };
        // Formed for every layer, the first one included.
        delta = gemm::matmul_a_bt(&dz, &l.w);
        grads.push((dw, db));
    }
    grads.reverse();
    (grads, loss)
}

enum RefOpt {
    Sgd {
        lr: f32,
        momentum: f32,
        vel_w: Vec<Matrix>,
        vel_b: Vec<Vec<f32>>,
    },
    Adam {
        lr: f32,
        form: AdamForm,
        t: i32,
        m_w: Vec<Matrix>,
        v_w: Vec<Matrix>,
        m_b: Vec<Vec<f32>>,
        v_b: Vec<Vec<f32>>,
    },
}

impl RefOpt {
    fn new(kind: OptimizerKind, layers: &[RefLayer], form: AdamForm) -> RefOpt {
        let zero_w = || -> Vec<Matrix> {
            layers
                .iter()
                .map(|l| Matrix::zeros(l.w.rows(), l.w.cols()))
                .collect()
        };
        let zero_b = || -> Vec<Vec<f32>> { layers.iter().map(|l| vec![0.0; l.b.len()]).collect() };
        match kind {
            OptimizerKind::Sgd { lr, momentum } => RefOpt::Sgd {
                lr,
                momentum,
                vel_w: zero_w(),
                vel_b: zero_b(),
            },
            OptimizerKind::Adam { lr } => RefOpt::Adam {
                lr,
                form,
                t: 0,
                m_w: zero_w(),
                v_w: zero_w(),
                m_b: zero_b(),
                v_b: zero_b(),
            },
        }
    }

    /// Computes every layer's step matrices, then subtracts them.
    fn step(&mut self, layers: &mut [RefLayer], grads: &[(Matrix, Vec<f32>)]) {
        let steps: Vec<(Matrix, Vec<f32>)> = match self {
            RefOpt::Sgd {
                lr,
                momentum,
                vel_w,
                vel_b,
            } => (0..layers.len())
                .map(|i| {
                    let (dw, db) = &grads[i];
                    vel_w[i].scale_inplace(*momentum);
                    vel_w[i].axpy_inplace(1.0, dw).unwrap();
                    let mut step_w = vel_w[i].clone();
                    step_w.scale_inplace(*lr);
                    for (v, &g) in vel_b[i].iter_mut().zip(db) {
                        *v = *momentum * *v + g;
                    }
                    let step_b = vel_b[i].iter().map(|&v| *lr * v).collect();
                    (step_w, step_b)
                })
                .collect(),
            RefOpt::Adam {
                lr,
                form,
                t,
                m_w,
                v_w,
                m_b,
                v_b,
            } => {
                *t += 1;
                let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
                let bc1 = 1.0 - beta1.powi(*t);
                let bc2 = 1.0 - beta2.powi(*t);
                let (lr, form) = (*lr, *form);
                let adam = |m: &mut f32, v: &mut f32, g: f32| -> f32 {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let m_hat = *m / bc1;
                    let v_hat = *v / bc2;
                    match form {
                        AdamForm::Exact => lr * m_hat / (v_hat.sqrt() + eps),
                        AdamForm::Reassociated => lr * (m_hat / (v_hat.sqrt() + eps)),
                    }
                };
                (0..layers.len())
                    .map(|i| {
                        let (dw, db) = &grads[i];
                        let mut step_w = Matrix::zeros(dw.rows(), dw.cols());
                        for j in 0..dw.len() {
                            step_w.as_mut_slice()[j] = adam(
                                &mut m_w[i].as_mut_slice()[j],
                                &mut v_w[i].as_mut_slice()[j],
                                dw.as_slice()[j],
                            );
                        }
                        let step_b = (0..db.len())
                            .map(|j| adam(&mut m_b[i][j], &mut v_b[i][j], db[j]))
                            .collect();
                        (step_w, step_b)
                    })
                    .collect()
            }
        };
        for (l, (step_w, step_b)) in layers.iter_mut().zip(&steps) {
            l.w.axpy_inplace(-1.0, step_w).unwrap();
            for (b, s) in l.b.iter_mut().zip(step_b) {
                *b -= s;
            }
        }
    }
}

/// A trained network's observable result as named flat tensors.
type Outcome = Vec<(String, Vec<f32>)>;

fn outcome<'a>(
    params: impl Iterator<Item = (&'a [f32], &'a [f32])>,
    loss_history: &[f32],
    train_accuracy: f32,
    test_accuracy: f32,
) -> Outcome {
    let mut out = Vec::new();
    for (l, (w, b)) in params.enumerate() {
        out.push((format!("layer {l} weights"), w.to_vec()));
        out.push((format!("layer {l} bias"), b.to_vec()));
    }
    out.push(("loss_history".into(), loss_history.to_vec()));
    out.push((
        "[train, test] accuracy".into(),
        vec![train_accuracy, test_accuracy],
    ));
    out
}

/// The straightforward trainer: `Trainer::fit_network`'s RNG use,
/// shuffling and minibatching, with the unfused step.
fn reference_fit(
    topo: &MlpTopology,
    cfg: &TrainConfig,
    (train, test): (&Dataset, &Dataset),
    rng: &mut StdRng,
    form: AdamForm,
) -> Outcome {
    let net = Mlp::from_topology(topo, rng);
    let mut layers: Vec<RefLayer> = net
        .layers()
        .iter()
        .map(|l| RefLayer {
            w: l.weights().clone(),
            b: l.bias().to_vec(),
            act: l.activation(),
            bias: l.has_bias(),
        })
        .collect();
    let mut opt = RefOpt::new(cfg.optimizer, &layers, form);
    let n = train.len();
    let batch = cfg.batch_size.clamp(1, n);
    let targets = ops::one_hot(train.labels(), topo.n_classes());
    let mut order: Vec<usize> = (0..n).collect();
    let mut loss_history = Vec::new();
    for _ in 0..cfg.epochs {
        order.shuffle(rng);
        let (mut epoch_loss, mut batches) = (0.0f64, 0usize);
        for chunk in order.chunks(batch) {
            let xb = train.features().select_rows(chunk);
            let tb = targets.select_rows(chunk);
            let (mut grads, loss) = backprop(&layers, &xb, &tb);
            if cfg.weight_decay > 0.0 {
                for ((dw, _), l) in grads.iter_mut().zip(&layers) {
                    dw.axpy_inplace(cfg.weight_decay, &l.w).unwrap();
                }
            }
            opt.step(&mut layers, &grads);
            epoch_loss += loss as f64;
            batches += 1;
        }
        loss_history.push((epoch_loss / batches.max(1) as f64) as f32);
    }
    let accuracy = |ds: &Dataset| ops::accuracy(&forward(&layers, ds.features()), ds.labels());
    outcome(
        layers.iter().map(|l| (l.w.as_slice(), l.b.as_slice())),
        &loss_history,
        accuracy(train),
        accuracy(test),
    )
}

fn production_fit(
    case: &str,
    topo: &MlpTopology,
    cfg: &TrainConfig,
    (train, test): (&Dataset, &Dataset),
    rng: &mut StdRng,
) -> Outcome {
    let (net, report) = Trainer::new(*cfg)
        .fit_network(topo, train, test, rng)
        .unwrap_or_else(|e| panic!("{case}: fit failed: {e}"));
    assert_eq!(report.epochs_run, cfg.epochs, "{case}: early stop");
    outcome(
        net.layers()
            .iter()
            .map(|l| (l.weights().as_slice(), l.bias())),
        &report.loss_history,
        report.train_accuracy,
        report.test_accuracy,
    )
}

/// The first bitwise difference, naming the tensor, its index and both
/// bit patterns; `None` when every value matches bit for bit.
fn first_mismatch(got: &Outcome, want: &Outcome) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} tensors vs reference {}", got.len(), want.len()));
    }
    for ((name, g), (_, w)) in got.iter().zip(want) {
        if g.len() != w.len() {
            return Some(format!(
                "{name}: length {} vs reference {}",
                g.len(),
                w.len()
            ));
        }
        for (i, (x, y)) in g.iter().zip(w).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Some(format!(
                    "{name} index {i}: got {x:?} (bits {:#010x}) vs reference {y:?} (bits {:#010x})",
                    x.to_bits(),
                    y.to_bits()
                ));
            }
        }
    }
    None
}

fn data() -> (Dataset, Dataset) {
    let ds = SyntheticSpec::new("oracle", 60, 6, 3)
        .with_seed(11)
        .generate();
    let split = ds.split(0.25, &mut StdRng::seed_from_u64(0));
    assert_ne!(split.0.len() % BATCH, 0, "last minibatch must be ragged");
    split
}

fn config(optimizer: OptimizerKind, weight_decay: f32) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: BATCH,
        optimizer,
        patience: 0,
        min_delta: 0.0,
        weight_decay,
        gemm_threads: 0,
    }
}

/// Every `(name, topology, config)` of the sweep: 0–3 hidden layers ×
/// four activations (rotated per layer) × bias on/off, each under Adam,
/// SGD with momentum 0.9 and plain SGD, with and without weight decay.
fn cases() -> Vec<(String, MlpTopology, TrainConfig)> {
    let mut topologies = vec![("head only".to_string(), MlpTopology::builder(6, 3).build())];
    for depth in 1..=3 {
        for first in 0..Activation::ALL.len() {
            for bias in [false, true] {
                let mut b = MlpTopology::builder(6, 3);
                for (i, width) in [5, 7, 4].into_iter().take(depth).enumerate() {
                    b = b.hidden(width, Activation::ALL[(first + i) % 4], bias);
                }
                let name = format!("depth {depth} first {} bias {bias}", Activation::ALL[first]);
                topologies.push((name, b.build()));
            }
        }
    }
    let optimizers = [
        OptimizerKind::Adam { lr: 1e-2 },
        OptimizerKind::Sgd {
            lr: 0.1,
            momentum: 0.9,
        },
        OptimizerKind::Sgd {
            lr: 0.1,
            momentum: 0.0,
        },
    ];
    let mut out = Vec::new();
    for (topo_name, topo) in &topologies {
        for opt in optimizers {
            for wd in [0.0, 1e-4] {
                let name = format!("{topo_name} {opt:?} weight_decay {wd}");
                out.push((name, topo.clone(), config(opt, wd)));
            }
        }
    }
    out
}

#[test]
fn fit_network_matches_reference_bit_for_bit() {
    let (train, test) = data();
    let cases = cases();
    assert_eq!(cases.len(), 25 * 3 * 2);
    for (seed, (case, topo, cfg)) in cases.iter().enumerate() {
        let rng = || StdRng::seed_from_u64(seed as u64);
        let got = production_fit(case, topo, cfg, (&train, &test), &mut rng());
        let want = reference_fit(topo, cfg, (&train, &test), &mut rng(), AdamForm::Exact);
        if let Some(diff) = first_mismatch(&got, &want) {
            panic!("case `{case}` (seed {seed}): {diff}");
        }
    }
}

/// Reassociating Adam's step keeps every value within a 1e-4 relative
/// tolerance of the trainer, which a tolerance check would accept; the
/// bitwise comparison must flag it.
#[test]
fn reassociated_adam_mutant_is_caught() {
    let (train, test) = data();
    let topo = MlpTopology::builder(6, 3)
        .hidden(5, Activation::Tanh, true)
        .hidden(7, Activation::Relu, false)
        .build();
    let cfg = config(OptimizerKind::Adam { lr: 1e-2 }, 1e-4);
    let rng = || StdRng::seed_from_u64(3);
    let got = production_fit("mutant", &topo, &cfg, (&train, &test), &mut rng());
    let exact = reference_fit(&topo, &cfg, (&train, &test), &mut rng(), AdamForm::Exact);
    let mutant = reference_fit(
        &topo,
        &cfg,
        (&train, &test),
        &mut rng(),
        AdamForm::Reassociated,
    );

    assert_eq!(first_mismatch(&got, &exact), None);
    let diff = first_mismatch(&got, &mutant);
    assert!(diff.is_some(), "the reassociated Adam step went unnoticed");
    let diff = diff.unwrap();
    assert!(
        diff.contains("index") && diff.contains("(bits 0x"),
        "{diff}"
    );
    for ((name, g), (_, m)) in got.iter().zip(&mutant) {
        for (x, y) in g.iter().zip(m) {
            assert!(
                (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
                "{name}: the mutant drifted beyond tolerance ({x} vs {y})"
            );
        }
    }
}
