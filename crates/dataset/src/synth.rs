//! Synthetic classification dataset generator.
//!
//! The real benchmark data (OpenML, Keras) is not available offline, so
//! the six paper benchmarks are reproduced as *shape- and
//! difficulty-matched* synthetic datasets (DESIGN.md §2, substitution 3).
//!
//! The generative model is a class-conditional Gaussian mixture in a
//! low-dimensional **informative subspace**, lifted into the full feature
//! space through a random linear map plus a `tanh` non-linear mixing term,
//! with label-flip noise:
//!
//! 1. each class `c` gets `clusters_per_class` centroids on a hypersphere
//!    of radius `class_sep` in `R^{n_informative}`;
//! 2. a sample is its centroid plus isotropic Gaussian spread;
//! 3. the latent point `z` is lifted to `x = A z + nonlinearity * tanh(B z)
//!    + noise`, making the Bayes boundary non-linear (so MLPs beat linear
//!    models when `nonlinearity > 0`);
//! 4. the label is flipped to a different class with probability
//!    `label_noise`, capping attainable accuracy near
//!    `1 - label_noise` — this is the knob that matches each benchmark's
//!    published accuracy band.

use ecad_tensor::{init, ops, Matrix};
use rt::rand::rngs::StdRng;
use rt::rand::{Rng, SeedableRng};

use crate::Dataset;

/// Declarative description of a synthetic dataset.
///
/// Build with [`SyntheticSpec::new`] and the `with_*` setters, then call
/// [`SyntheticSpec::generate`].
///
/// # Example
///
/// ```
/// use ecad_dataset::synth::SyntheticSpec;
///
/// let ds = SyntheticSpec::new("demo", 100, 8, 3).with_seed(7).generate();
/// assert_eq!(ds.len(), 100);
/// assert_eq!(ds.n_classes(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    name: String,
    n_samples: usize,
    n_features: usize,
    n_classes: usize,
    n_informative: usize,
    clusters_per_class: usize,
    class_sep: f32,
    cluster_spread: f32,
    nonlinearity: f32,
    feature_noise: f32,
    label_noise: f32,
    seed: u64,
}

impl SyntheticSpec {
    /// Creates a spec with sensible defaults: informative dimension
    /// `min(16, n_features)`, one cluster per class, separation 2.0,
    /// spread 1.0, mild non-linearity, no label noise, seed 0.
    ///
    /// # Panics
    ///
    /// Panics if any of `n_samples`, `n_features`, `n_classes` is zero or
    /// `n_classes < 2`.
    pub fn new(
        name: impl Into<String>,
        n_samples: usize,
        n_features: usize,
        n_classes: usize,
    ) -> Self {
        assert!(n_samples > 0, "n_samples must be positive");
        assert!(n_features > 0, "n_features must be positive");
        assert!(n_classes >= 2, "need at least two classes");
        Self {
            name: name.into(),
            n_samples,
            n_features,
            n_classes,
            n_informative: n_features.min(16),
            clusters_per_class: 1,
            class_sep: 2.0,
            cluster_spread: 1.0,
            nonlinearity: 0.5,
            feature_noise: 0.1,
            label_noise: 0.0,
            seed: 0,
        }
    }

    /// Sets the number of samples.
    pub fn with_samples(mut self, n: usize) -> Self {
        assert!(n > 0, "n_samples must be positive");
        self.n_samples = n;
        self
    }

    /// Sets the informative subspace dimension (clamped to `n_features`).
    pub fn with_informative(mut self, n: usize) -> Self {
        self.n_informative = n.clamp(1, self.n_features);
        self
    }

    /// Sets the number of Gaussian clusters per class.
    pub fn with_clusters_per_class(mut self, n: usize) -> Self {
        self.clusters_per_class = n.max(1);
        self
    }

    /// Sets the centroid hypersphere radius (larger = easier).
    pub fn with_class_sep(mut self, sep: f32) -> Self {
        self.class_sep = sep.max(0.0);
        self
    }

    /// Sets the isotropic within-cluster spread (larger = harder).
    pub fn with_cluster_spread(mut self, s: f32) -> Self {
        self.cluster_spread = s.max(1e-3);
        self
    }

    /// Sets the weight of the `tanh` non-linear mixing term.
    pub fn with_nonlinearity(mut self, w: f32) -> Self {
        self.nonlinearity = w.max(0.0);
        self
    }

    /// Sets additive per-feature observation noise.
    pub fn with_feature_noise(mut self, s: f32) -> Self {
        self.feature_noise = s.max(0.0);
        self
    }

    /// Sets the label-flip probability (caps attainable accuracy near
    /// `1 - p`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn with_label_noise(mut self, p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "label noise must be in [0, 1)");
        self.label_noise = p;
        self
    }

    /// Sets the RNG seed. Identical specs generate identical datasets.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Dataset name this spec will produce.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sample count this spec will produce.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Feature count this spec will produce.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Class count this spec will produce.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Label-flip probability.
    pub fn label_noise(&self) -> f32 {
        self.label_noise
    }

    /// Generates the dataset described by this spec.
    ///
    /// Deterministic: the same spec (including seed) always produces the
    /// same dataset, which the engine's dedup cache and the reproducible
    /// experiment harness rely on.
    pub fn generate(&self) -> Dataset {
        self.generate_with(lift)
    }

    /// [`generate`](Self::generate) with the lift step passed in, so a
    /// test can run a reference order.
    fn generate_with(
        &self,
        lift: impl Fn(&[f32], &Matrix, &Matrix, &mut [f32], &mut [f32]),
    ) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed ^ fnv1a(self.name.as_bytes()));
        let d = self.n_informative;

        // Per-(class, cluster) centroids on a hypersphere of radius class_sep.
        let total_clusters = self.n_classes * self.clusters_per_class;
        let mut centroids = Vec::with_capacity(total_clusters);
        for _ in 0..total_clusters {
            let mut v: Vec<f32> = (0..d).map(|_| init::standard_normal(&mut rng)).collect();
            let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            for x in &mut v {
                *x *= self.class_sep / norm;
            }
            centroids.push(v);
        }

        // Random lift maps shared by all samples.
        let lift_a = init::gaussian(&mut rng, d, self.n_features, 1.0 / (d as f32).sqrt());
        let lift_b = init::gaussian(&mut rng, d, self.n_features, 1.0 / (d as f32).sqrt());

        let mut features = Matrix::zeros(self.n_samples, self.n_features);
        let mut labels = Vec::with_capacity(self.n_samples);
        let mut z = vec![0.0f32; d];
        let mut nl = vec![0.0f32; self.n_features];
        for s in 0..self.n_samples {
            let class = s % self.n_classes; // balanced classes
            let cluster = rng.gen_range(0..self.clusters_per_class);
            let centroid = &centroids[class * self.clusters_per_class + cluster];
            for (zi, &ci) in z.iter_mut().zip(centroid) {
                *zi = ci + self.cluster_spread * init::standard_normal(&mut rng);
            }
            // The linear part goes into the row and the nonlinear part
            // into `nl`, whose tanh then runs as one slice pass.
            let row = features.row_mut(s);
            lift(&z, &lift_a, &lift_b, row, &mut nl);
            ops::tanh_inplace(&mut nl);
            for (x, &t) in row.iter_mut().zip(&nl) {
                *x = *x
                    + self.nonlinearity * t
                    + self.feature_noise * init::standard_normal(&mut rng);
            }
            // Label-flip noise: move to a uniformly random *other* class.
            let label = if self.label_noise > 0.0 && rng.gen::<f32>() < self.label_noise {
                let shift = rng.gen_range(1..self.n_classes);
                (class + shift) % self.n_classes
            } else {
                class
            };
            labels.push(label);
        }

        Dataset::new(self.name.clone(), features, labels, self.n_classes)
            .expect("generator invariants guarantee a valid dataset")
    }
}

/// Lifts the latent point `z` through both maps: `lin[j] = Σ_i z[i] *
/// lift_a[i, j]` and `nl[j]` likewise through `lift_b`, each sum
/// starting at 0.0 and adding its terms for `i` ascending. The terms
/// are added a row of the map at a time, so every pass reads a map row
/// and a feature row contiguously.
fn lift(z: &[f32], lift_a: &Matrix, lift_b: &Matrix, lin: &mut [f32], nl: &mut [f32]) {
    lin.fill(0.0);
    nl.fill(0.0);
    for (i, &zi) in z.iter().enumerate() {
        for (x, &a) in lin.iter_mut().zip(lift_a.row(i)) {
            *x += zi * a;
        }
        for (n, &b) in nl.iter_mut().zip(lift_b.row(i)) {
            *n += zi * b;
        }
    }
}

/// FNV-1a hash of a byte string; used to fold the dataset name into the
/// seed so differently-named specs with the same seed differ.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_has_requested_shape() {
        let ds = SyntheticSpec::new("s", 50, 12, 4).generate();
        assert_eq!(ds.len(), 50);
        assert_eq!(ds.n_features(), 12);
        assert_eq!(ds.n_classes(), 4);
        assert!(ds.features().all_finite());
    }

    /// The lift as it was first written: each feature a dot product
    /// down a column of the maps.
    fn column_lift(z: &[f32], lift_a: &Matrix, lift_b: &Matrix, lin: &mut [f32], nl: &mut [f32]) {
        for (j, (x, n)) in lin.iter_mut().zip(nl).enumerate() {
            let mut lin = 0.0f32;
            let mut acc = 0.0f32;
            for (i, &zi) in z.iter().enumerate() {
                lin += zi * lift_a[(i, j)];
                acc += zi * lift_b[(i, j)];
            }
            *x = lin;
            *n = acc;
        }
    }

    /// The row-at-a-time lift adds each feature's terms in the column
    /// loop's order, so every dataset keeps its bits.
    #[test]
    fn row_lift_matches_the_column_lift_bitwise() {
        for features in [1, 2, 20, 64, 600] {
            for informative in [1, 7, 20] {
                for clusters in 1..=3 {
                    for noise in [0.0, 0.2] {
                        for seed in [1, 7, 42] {
                            let spec = SyntheticSpec::new("lift", 40, features, 3)
                                .with_informative(informative)
                                .with_clusters_per_class(clusters)
                                .with_label_noise(noise)
                                .with_seed(seed);
                            let (got, want) = (spec.generate(), spec.generate_with(column_lift));
                            let bits = |ds: &Dataset| -> Vec<u32> {
                                ds.features()
                                    .as_slice()
                                    .iter()
                                    .map(|x| x.to_bits())
                                    .collect()
                            };
                            assert_eq!(bits(&got), bits(&want), "{spec:?}");
                            assert_eq!(got.labels(), want.labels(), "{spec:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn classes_are_balanced() {
        let ds = SyntheticSpec::new("s", 100, 4, 4).generate();
        assert_eq!(ds.class_counts(), vec![25, 25, 25, 25]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticSpec::new("s", 30, 5, 2).with_seed(9).generate();
        let b = SyntheticSpec::new("s", 30, 5, 2).with_seed(9).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticSpec::new("s", 30, 5, 2).with_seed(1).generate();
        let b = SyntheticSpec::new("s", 30, 5, 2).with_seed(2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn different_names_differ_even_with_same_seed() {
        let a = SyntheticSpec::new("alpha", 30, 5, 2)
            .with_seed(1)
            .generate();
        let b = SyntheticSpec::new("beta", 30, 5, 2).with_seed(1).generate();
        assert_ne!(a.features(), b.features());
    }

    #[test]
    fn label_noise_flips_approximately_p() {
        let p = 0.3f32;
        let n = 4000;
        let noisy = SyntheticSpec::new("s", n, 4, 2)
            .with_label_noise(p)
            .with_seed(5)
            .generate();
        // Without noise the label would be s % n_classes.
        let flipped = noisy
            .labels()
            .iter()
            .enumerate()
            .filter(|(i, &l)| l != i % 2)
            .count();
        let rate = flipped as f32 / n as f32;
        assert!((rate - p).abs() < 0.03, "flip rate {rate}");
    }

    #[test]
    fn higher_separation_is_easier_for_centroid_classifier() {
        // A nearest-class-mean classifier should do much better on
        // well-separated data than on overlapping data.
        let acc = |sep: f32| {
            let ds = SyntheticSpec::new("s", 400, 10, 2)
                .with_class_sep(sep)
                .with_nonlinearity(0.0)
                .with_seed(11)
                .generate();
            // class means
            let mut means = vec![vec![0.0f32; ds.n_features()]; 2];
            let counts = ds.class_counts();
            for r in 0..ds.len() {
                let l = ds.labels()[r];
                for (m, &v) in means[l].iter_mut().zip(ds.features().row(r)) {
                    *m += v;
                }
            }
            for (m, &c) in means.iter_mut().zip(&counts) {
                for v in m.iter_mut() {
                    *v /= c as f32;
                }
            }
            let mut hits = 0;
            for r in 0..ds.len() {
                let row = ds.features().row(r);
                let d0 = ecad_tensor::ops::euclidean(row, &means[0]);
                let d1 = ecad_tensor::ops::euclidean(row, &means[1]);
                let pred = usize::from(d1 < d0);
                hits += usize::from(pred == ds.labels()[r]);
            }
            hits as f32 / ds.len() as f32
        };
        let easy = acc(6.0);
        let hard = acc(0.2);
        assert!(easy > hard + 0.15, "easy {easy} vs hard {hard}");
    }

    #[test]
    #[should_panic(expected = "label noise")]
    fn rejects_label_noise_of_one() {
        let _ = SyntheticSpec::new("s", 10, 2, 2).with_label_noise(1.0);
    }

    #[test]
    fn informative_clamped_to_features() {
        let spec = SyntheticSpec::new("s", 10, 4, 2).with_informative(100);
        let ds = spec.generate();
        assert_eq!(ds.n_features(), 4);
    }
}
