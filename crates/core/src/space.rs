//! The bounded search space and its genetic operators.
//!
//! "This 'grid' architecture has various design space variables that we
//! allow mutations to take place on" (§III-C). The space bounds every
//! gene, supplies random sampling for the initial population, and the
//! mutation / crossover operators of the steady-state process. All
//! operators are *closed*: they can only produce genomes inside the
//! space, which a property test pins down.

use ecad_mlp::Activation;
use rt::json::{Cursor, DecodeError, FromJson, Json, ToJson};
use rt::rand::seq::SliceRandom;
use rt::rand::Rng;

use crate::genome::{CandidateGenome, HwGenome, LayerGene, NnaGenome};

/// Which hardware family a search explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwFamily {
    /// FPGA systolic grid genes.
    Fpga,
    /// GPU batch genes.
    Gpu,
}

/// Bounds and choice sets for every gene.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Hardware family being searched.
    pub family: HwFamily,
    /// Minimum hidden layers (0 allows a pure softmax classifier).
    pub min_layers: usize,
    /// Maximum hidden layers.
    pub max_layers: usize,
    /// Minimum neurons per hidden layer.
    pub min_neurons: usize,
    /// Maximum neurons per hidden layer.
    pub max_neurons: usize,
    /// Allowed activations.
    pub activations: Vec<Activation>,
    /// Allowed grid row/column counts (FPGA).
    pub grid_dims: Vec<u32>,
    /// Allowed interleave depths (FPGA).
    pub interleaves: Vec<u32>,
    /// Allowed PE vector widths (FPGA).
    pub vec_widths: Vec<u32>,
    /// Allowed inference batch sizes.
    pub batches: Vec<u32>,
}

impl SearchSpace {
    /// The paper-flavoured default space for an FPGA search: up to 4
    /// hidden layers of 4–512 neurons, power-of-two grid genes sized for
    /// an Arria 10 / Stratix 10, batches 1–256.
    pub fn fpga_default() -> Self {
        Self {
            family: HwFamily::Fpga,
            min_layers: 1,
            max_layers: 4,
            min_neurons: 4,
            max_neurons: 512,
            activations: Activation::ALL.to_vec(),
            grid_dims: vec![1, 2, 4, 8, 16],
            interleaves: vec![1, 2, 4, 8, 16, 32],
            vec_widths: vec![1, 2, 4, 8, 16],
            batches: vec![1, 2, 4, 8, 16, 32, 64, 128, 256],
        }
    }

    /// Default space for a GPU search: same NNA genes, larger batches
    /// (GPUs want a large `m`, §III-D; capped at 1024, a realistic
    /// serving batch for the TF-profiled flow the paper measures).
    pub fn gpu_default() -> Self {
        Self {
            family: HwFamily::Gpu,
            batches: vec![32, 64, 128, 256, 512, 1024],
            ..Self::fpga_default()
        }
    }

    /// Restricts layer width (e.g. for tiny datasets).
    pub fn with_neurons(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 1 && min <= max, "invalid neuron bounds");
        self.min_neurons = min;
        self.max_neurons = max;
        self
    }

    /// Restricts depth.
    pub fn with_layers(mut self, min: usize, max: usize) -> Self {
        assert!(min <= max, "invalid layer bounds");
        self.min_layers = min;
        self.max_layers = max;
        self
    }

    /// Samples a uniformly random genome from the space.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CandidateGenome {
        let depth = rng.gen_range(self.min_layers..=self.max_layers);
        let layers = (0..depth).map(|_| self.sample_layer(rng)).collect();
        CandidateGenome {
            nna: NnaGenome { layers },
            hw: self.sample_hw(rng),
        }
    }

    fn sample_layer<R: Rng + ?Sized>(&self, rng: &mut R) -> LayerGene {
        LayerGene {
            neurons: rng.gen_range(self.min_neurons..=self.max_neurons),
            activation: *self
                .activations
                .choose(rng)
                .expect("activations must be non-empty"),
            bias: rng.gen(),
        }
    }

    fn sample_hw<R: Rng + ?Sized>(&self, rng: &mut R) -> HwGenome {
        match self.family {
            HwFamily::Fpga => HwGenome::FpgaGrid {
                rows: *self.grid_dims.choose(rng).expect("grid_dims non-empty"),
                cols: *self.grid_dims.choose(rng).expect("grid_dims non-empty"),
                interleave_m: *self.interleaves.choose(rng).expect("interleaves non-empty"),
                interleave_n: *self.interleaves.choose(rng).expect("interleaves non-empty"),
                vec: *self.vec_widths.choose(rng).expect("vec_widths non-empty"),
                batch: *self.batches.choose(rng).expect("batches non-empty"),
            },
            HwFamily::Gpu => HwGenome::GpuBatch {
                batch: *self.batches.choose(rng).expect("batches non-empty"),
            },
        }
    }

    /// Mutates one randomly chosen gene, returning a new genome.
    ///
    /// Moves: add/remove a layer, re-width a layer (geometric step),
    /// flip its activation or bias, or step one hardware gene to a
    /// neighbouring choice.
    pub fn mutate<R: Rng + ?Sized>(
        &self,
        genome: &CandidateGenome,
        rng: &mut R,
    ) -> CandidateGenome {
        let mut g = genome.clone();
        // 60% of mutations touch the NNA, 40% the hardware — both halves
        // of the co-design space stay in motion.
        if rng.gen_bool(0.6) {
            self.mutate_nna(&mut g.nna, rng);
        } else {
            g.hw = self.mutate_hw(&g.hw, rng);
        }
        g
    }

    fn mutate_nna<R: Rng + ?Sized>(&self, nna: &mut NnaGenome, rng: &mut R) {
        let can_add = nna.layers.len() < self.max_layers;
        let can_remove = nna.layers.len() > self.min_layers;
        let op = rng.gen_range(0..5);
        match op {
            0 if can_add => {
                let at = rng.gen_range(0..=nna.layers.len());
                nna.layers.insert(at, self.sample_layer(rng));
            }
            1 if can_remove => {
                let at = rng.gen_range(0..nna.layers.len());
                nna.layers.remove(at);
            }
            _ => {
                if nna.layers.is_empty() {
                    if can_add {
                        nna.layers.push(self.sample_layer(rng));
                    }
                    return;
                }
                let at = rng.gen_range(0..nna.layers.len());
                let layer = &mut nna.layers[at];
                match rng.gen_range(0..3) {
                    0 => {
                        // Geometric re-width: scale by a factor in
                        // [0.5, 2.0], clamped into bounds.
                        let factor = rng.gen_range(0.5f64..2.0);
                        let w = ((layer.neurons as f64 * factor).round() as usize)
                            .clamp(self.min_neurons, self.max_neurons);
                        layer.neurons = w;
                    }
                    1 => {
                        layer.activation =
                            *self.activations.choose(rng).expect("activations non-empty");
                    }
                    _ => layer.bias = !layer.bias,
                }
            }
        }
    }

    fn mutate_hw<R: Rng + ?Sized>(&self, hw: &HwGenome, rng: &mut R) -> HwGenome {
        fn step<R: Rng + ?Sized>(choices: &[u32], current: u32, rng: &mut R) -> u32 {
            let idx = choices.iter().position(|&c| c == current).unwrap_or(0);
            let next = if rng.gen() {
                idx.saturating_sub(1)
            } else {
                (idx + 1).min(choices.len() - 1)
            };
            choices[next]
        }
        match *hw {
            HwGenome::FpgaGrid {
                rows,
                cols,
                interleave_m,
                interleave_n,
                vec,
                batch,
            } => {
                let mut g = HwGenome::FpgaGrid {
                    rows,
                    cols,
                    interleave_m,
                    interleave_n,
                    vec,
                    batch,
                };
                if let HwGenome::FpgaGrid {
                    ref mut rows,
                    ref mut cols,
                    ref mut interleave_m,
                    ref mut interleave_n,
                    ref mut vec,
                    ref mut batch,
                } = g
                {
                    match rng.gen_range(0..6) {
                        0 => *rows = step(&self.grid_dims, *rows, rng),
                        1 => *cols = step(&self.grid_dims, *cols, rng),
                        2 => *interleave_m = step(&self.interleaves, *interleave_m, rng),
                        3 => *interleave_n = step(&self.interleaves, *interleave_n, rng),
                        4 => *vec = step(&self.vec_widths, *vec, rng),
                        _ => *batch = step(&self.batches, *batch, rng),
                    }
                }
                g
            }
            HwGenome::GpuBatch { batch } => HwGenome::GpuBatch {
                batch: step(&self.batches, batch, rng),
            },
        }
    }

    /// One-point crossover on the layer lists plus a uniform pick of the
    /// hardware genes.
    pub fn crossover<R: Rng + ?Sized>(
        &self,
        a: &CandidateGenome,
        b: &CandidateGenome,
        rng: &mut R,
    ) -> CandidateGenome {
        let cut_a = rng.gen_range(0..=a.nna.layers.len());
        let cut_b = rng.gen_range(0..=b.nna.layers.len());
        let mut layers: Vec<LayerGene> = a.nna.layers[..cut_a]
            .iter()
            .chain(&b.nna.layers[cut_b..])
            .copied()
            .collect();
        // Clamp depth into bounds; refill if the cut produced too few.
        layers.truncate(self.max_layers);
        while layers.len() < self.min_layers {
            layers.push(self.sample_layer(rng));
        }
        CandidateGenome {
            nna: NnaGenome { layers },
            hw: if rng.gen() { a.hw } else { b.hw },
        }
    }

    /// Whether `genome` lies inside this space's bounds.
    pub fn contains(&self, genome: &CandidateGenome) -> bool {
        let depth_ok = (self.min_layers..=self.max_layers).contains(&genome.nna.layers.len());
        let layers_ok = genome.nna.layers.iter().all(|l| {
            (self.min_neurons..=self.max_neurons).contains(&l.neurons)
                && self.activations.contains(&l.activation)
        });
        let hw_ok = match genome.hw {
            HwGenome::FpgaGrid {
                rows,
                cols,
                interleave_m,
                interleave_n,
                vec,
                batch,
            } => {
                self.family == HwFamily::Fpga
                    && self.grid_dims.contains(&rows)
                    && self.grid_dims.contains(&cols)
                    && self.interleaves.contains(&interleave_m)
                    && self.interleaves.contains(&interleave_n)
                    && self.vec_widths.contains(&vec)
                    && self.batches.contains(&batch)
            }
            HwGenome::GpuBatch { batch } => {
                self.family == HwFamily::Gpu && self.batches.contains(&batch)
            }
        };
        depth_ok && layers_ok && hw_ok
    }
}

impl ToJson for SearchSpace {
    fn to_json(&self) -> Json {
        let family = match self.family {
            HwFamily::Fpga => "fpga",
            HwFamily::Gpu => "gpu",
        };
        Json::object()
            .insert("family", family)
            .insert("min_layers", self.min_layers)
            .insert("max_layers", self.max_layers)
            .insert("min_neurons", self.min_neurons)
            .insert("max_neurons", self.max_neurons)
            .insert("activations", &self.activations)
            .insert("grid_dims", &self.grid_dims)
            .insert("interleaves", &self.interleaves)
            .insert("vec_widths", &self.vec_widths)
            .insert("batches", &self.batches)
    }
}

impl FromJson for SearchSpace {
    fn decode(j: Cursor<'_>) -> Result<SearchSpace, DecodeError> {
        let family = j.field("family")?;
        Ok(SearchSpace {
            family: match family.str()? {
                "fpga" => HwFamily::Fpga,
                "gpu" => HwFamily::Gpu,
                other => return Err(family.error(format!("unknown hw family {other:?}"))),
            },
            min_layers: j.get("min_layers")?,
            max_layers: j.get("max_layers")?,
            min_neurons: j.get("min_neurons")?,
            max_neurons: j.get("max_neurons")?,
            activations: j.get("activations")?,
            grid_dims: j.get("grid_dims")?,
            interleaves: j.get("interleaves")?,
            vec_widths: j.get("vec_widths")?,
            batches: j.get("batches")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt::rand::rngs::StdRng;
    use rt::rand::SeedableRng;

    #[test]
    fn sample_stays_in_space() {
        let mut rng = StdRng::seed_from_u64(0);
        for space in [SearchSpace::fpga_default(), SearchSpace::gpu_default()] {
            for _ in 0..200 {
                let g = space.sample(&mut rng);
                assert!(space.contains(&g), "{}", g.describe());
            }
        }
    }

    #[test]
    fn mutation_is_closed() {
        let space = SearchSpace::fpga_default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = space.sample(&mut rng);
        for _ in 0..500 {
            g = space.mutate(&g, &mut rng);
            assert!(space.contains(&g), "escaped: {}", g.describe());
        }
    }

    #[test]
    fn mutation_changes_something_usually() {
        let space = SearchSpace::fpga_default();
        let mut rng = StdRng::seed_from_u64(2);
        let g = space.sample(&mut rng);
        let changed = (0..100).filter(|_| space.mutate(&g, &mut rng) != g).count();
        assert!(
            changed > 70,
            "only {changed}/100 mutations changed the genome"
        );
    }

    #[test]
    fn crossover_is_closed() {
        let space = SearchSpace::fpga_default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let a = space.sample(&mut rng);
            let b = space.sample(&mut rng);
            let c = space.crossover(&a, &b, &mut rng);
            assert!(space.contains(&c), "{}", c.describe());
        }
    }

    #[test]
    fn crossover_inherits_hw_from_a_parent() {
        let space = SearchSpace::fpga_default();
        let mut rng = StdRng::seed_from_u64(4);
        let a = space.sample(&mut rng);
        let b = space.sample(&mut rng);
        for _ in 0..20 {
            let c = space.crossover(&a, &b, &mut rng);
            assert!(c.hw == a.hw || c.hw == b.hw);
        }
    }

    #[test]
    fn gpu_space_samples_gpu_genomes() {
        let space = SearchSpace::gpu_default();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            assert!(!space.sample(&mut rng).hw.is_fpga());
        }
    }

    #[test]
    fn with_bounds_builders() {
        let space = SearchSpace::fpga_default()
            .with_neurons(8, 64)
            .with_layers(2, 3);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let g = space.sample(&mut rng);
            assert!((2..=3).contains(&g.nna.layers.len()));
            assert!(g.nna.layers.iter().all(|l| (8..=64).contains(&l.neurons)));
        }
    }

    #[test]
    #[should_panic(expected = "invalid neuron bounds")]
    fn bad_neuron_bounds_rejected() {
        let _ = SearchSpace::fpga_default().with_neurons(10, 5);
    }

    #[test]
    fn contains_rejects_cross_family() {
        let fpga = SearchSpace::fpga_default();
        let gpu = SearchSpace::gpu_default();
        let mut rng = StdRng::seed_from_u64(7);
        let g = gpu.sample(&mut rng);
        assert!(!fpga.contains(&g));
    }
}
