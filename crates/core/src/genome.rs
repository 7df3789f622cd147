//! Co-design candidate genomes.
//!
//! "The ECAD Evolutionary process ... generates a population of
//! NNA/Hardware co-design candidates each with a complete set of
//! parameters that effect both the accuracy and the hardware
//! performance. The parameters we considered during our searches
//! included number of layers, layer size, activation function, and
//! bias." (§III-A)

use ecad_mlp::{Activation, LayerSpec, MlpTopology};
use rt::json::{Cursor, DecodeError, FromJson, Json, ToJson};

/// The network half of a candidate: an ordered list of hidden-layer
/// genes. Input width and class count come from the dataset, so they are
/// not part of the genome.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NnaGenome {
    /// Hidden layers, in order.
    pub layers: Vec<LayerGene>,
}

/// One hidden layer's genes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerGene {
    /// Neuron count.
    pub neurons: usize,
    /// Activation function.
    pub activation: Activation,
    /// Whether the layer carries a bias vector.
    pub bias: bool,
}

impl NnaGenome {
    /// Builds the concrete topology for a dataset with `input` features
    /// and `n_classes` classes.
    pub fn to_topology(&self, input: usize, n_classes: usize) -> MlpTopology {
        let mut b = MlpTopology::builder(input, n_classes);
        for l in &self.layers {
            b = b.layer(LayerSpec::new(l.neurons, l.activation, l.bias));
        }
        b.build()
    }

    /// Total hidden neurons (the paper's network-size axis).
    pub fn total_neurons(&self) -> usize {
        self.layers.iter().map(|l| l.neurons).sum()
    }

    /// Compact stable description used for hashing and logs,
    /// e.g. `128r+b/64t`.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self
            .layers
            .iter()
            .map(|l| {
                format!(
                    "{}{}{}",
                    l.neurons,
                    &l.activation.name()[..1],
                    if l.bias { "+b" } else { "" }
                )
            })
            .collect();
        parts.join("/")
    }
}

/// The hardware half of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwGenome {
    /// An FPGA systolic-grid configuration (§III-C) plus inference batch.
    FpgaGrid {
        /// PE rows.
        rows: u32,
        /// PE columns.
        cols: u32,
        /// Row interleave (double-buffer depth).
        interleave_m: u32,
        /// Column interleave.
        interleave_n: u32,
        /// PE vector width.
        vec: u32,
        /// Inference batch (the GEMM `m`); FPGAs favour small batches
        /// ("Our design for FPGA does not need to increase batching",
        /// §III-D).
        batch: u32,
    },
    /// A GPU target, whose only knob is the batch size ("Architectures
    /// such as GPU typically batch with a larger M dimension", §III-D).
    GpuBatch {
        /// Inference batch.
        batch: u32,
    },
}

impl HwGenome {
    /// Inference batch size (GEMM `m` dimension).
    pub fn batch(&self) -> u32 {
        match *self {
            HwGenome::FpgaGrid { batch, .. } => batch,
            HwGenome::GpuBatch { batch } => batch,
        }
    }

    /// Whether this genome targets an FPGA.
    pub fn is_fpga(&self) -> bool {
        matches!(self, HwGenome::FpgaGrid { .. })
    }

    /// Compact stable description, e.g. `fpga:8x8x4,il4x4,b16` or
    /// `gpu:b256`.
    pub fn describe(&self) -> String {
        match *self {
            HwGenome::FpgaGrid {
                rows,
                cols,
                interleave_m,
                interleave_n,
                vec,
                batch,
            } => format!("fpga:{rows}x{cols}x{vec},il{interleave_m}x{interleave_n},b{batch}"),
            HwGenome::GpuBatch { batch } => format!("gpu:b{batch}"),
        }
    }
}

/// A complete co-design candidate: NNA genes + hardware genes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CandidateGenome {
    /// Network genes.
    pub nna: NnaGenome,
    /// Hardware genes.
    pub hw: HwGenome,
}

impl CandidateGenome {
    /// Stable 64-bit key for the dedup cache (FNV-1a over the canonical
    /// description). Two genomes with identical phenotypes hash equal.
    pub fn cache_key(&self) -> u64 {
        let desc = self.describe();
        let mut h: u64 = 0xcbf29ce484222325;
        for b in desc.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Canonical description: `<nna>|<hw>`.
    pub fn describe(&self) -> String {
        format!("{}|{}", self.nna.describe(), self.hw.describe())
    }
}

impl std::fmt::Display for CandidateGenome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

impl ToJson for HwGenome {
    fn to_json(&self) -> Json {
        match *self {
            HwGenome::FpgaGrid {
                rows,
                cols,
                interleave_m,
                interleave_n,
                vec,
                batch,
            } => Json::object()
                .insert("kind", "fpga")
                .insert("rows", rows)
                .insert("cols", cols)
                .insert("interleave_m", interleave_m)
                .insert("interleave_n", interleave_n)
                .insert("vec", vec)
                .insert("batch", batch),
            HwGenome::GpuBatch { batch } => {
                Json::object().insert("kind", "gpu").insert("batch", batch)
            }
        }
    }
}

impl FromJson for HwGenome {
    fn decode(j: Cursor<'_>) -> Result<HwGenome, DecodeError> {
        let kind = j.field("kind")?;
        Ok(match kind.str()? {
            "fpga" => HwGenome::FpgaGrid {
                rows: j.get("rows")?,
                cols: j.get("cols")?,
                interleave_m: j.get("interleave_m")?,
                interleave_n: j.get("interleave_n")?,
                vec: j.get("vec")?,
                batch: j.get("batch")?,
            },
            "gpu" => HwGenome::GpuBatch {
                batch: j.get("batch")?,
            },
            other => return Err(kind.error(format!("unknown hw genome kind {other:?}"))),
        })
    }
}

impl ToJson for CandidateGenome {
    fn to_json(&self) -> Json {
        let layers: Vec<Json> = (self.nna.layers.iter())
            .map(|l| {
                Json::object()
                    .insert("neurons", l.neurons)
                    .insert("activation", l.activation)
                    .insert("bias", l.bias)
            })
            .collect();
        Json::object()
            .insert("layers", layers)
            .insert("hw", self.hw)
    }
}

impl FromJson for CandidateGenome {
    fn decode(j: Cursor<'_>) -> Result<CandidateGenome, DecodeError> {
        let layers = j.field("layers")?.list(|l| {
            Ok(LayerGene {
                neurons: l.get("neurons")?,
                activation: l.get("activation")?,
                bias: l.get("bias")?,
            })
        })?;
        Ok(CandidateGenome {
            nna: NnaGenome { layers },
            hw: j.get("hw")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn genome() -> CandidateGenome {
        CandidateGenome {
            nna: NnaGenome {
                layers: vec![
                    LayerGene {
                        neurons: 128,
                        activation: Activation::Relu,
                        bias: true,
                    },
                    LayerGene {
                        neurons: 64,
                        activation: Activation::Tanh,
                        bias: false,
                    },
                ],
            },
            hw: HwGenome::FpgaGrid {
                rows: 8,
                cols: 8,
                interleave_m: 4,
                interleave_n: 4,
                vec: 8,
                batch: 16,
            },
        }
    }

    #[test]
    fn topology_matches_genes() {
        let t = genome().nna.to_topology(784, 10);
        assert_eq!(t.input(), 784);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.hidden()[0].neurons, 128);
        assert_eq!(t.n_classes(), 10);
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(genome().describe(), "128r+b/64t|fpga:8x8x8,il4x4,b16");
    }

    #[test]
    fn cache_key_distinguishes_genomes() {
        let a = genome();
        let mut b = genome();
        b.hw = HwGenome::GpuBatch { batch: 256 };
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(a.cache_key(), genome().cache_key());
    }

    #[test]
    fn cache_key_sensitive_to_every_gene() {
        let base = genome();
        let mut variants = Vec::new();
        let mut v1 = base.clone();
        v1.nna.layers[0].neurons = 129;
        variants.push(v1);
        let mut v2 = base.clone();
        v2.nna.layers[1].bias = true;
        variants.push(v2);
        let mut v3 = base.clone();
        v3.nna.layers[0].activation = Activation::Sigmoid;
        variants.push(v3);
        if let HwGenome::FpgaGrid { ref mut vec, .. } = base.clone().hw {
            let mut v4 = base.clone();
            if let HwGenome::FpgaGrid {
                vec: ref mut vv, ..
            } = v4.hw
            {
                *vv = *vec * 2;
            }
            variants.push(v4);
        }
        for v in variants {
            assert_ne!(v.cache_key(), base.cache_key(), "{}", v.describe());
        }
    }

    #[test]
    fn batch_accessor_covers_both_targets() {
        assert_eq!(genome().hw.batch(), 16);
        assert_eq!(HwGenome::GpuBatch { batch: 512 }.batch(), 512);
    }

    #[test]
    fn total_neurons() {
        assert_eq!(genome().nna.total_neurons(), 192);
    }

    #[test]
    fn display_equals_describe() {
        let g = genome();
        assert_eq!(g.to_string(), g.describe());
    }
}
