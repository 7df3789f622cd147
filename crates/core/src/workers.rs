//! Worker implementations.
//!
//! "The evolutionary search has three workers at its disposal to assess
//! the fitness of various hardware platforms" (§III-B):
//!
//! * the **simulation worker** trains the candidate MLP and, for GPU
//!   and CPU targets, times it on the dispatch roofline
//!   (`ecad_hw::roofline`);
//! * the **hardware database worker** scores FPGA targets through the
//!   overlay model "in a relatively swift manner compared to running
//!   through synthesis tools";
//! * the **physical worker** adds synthesis-level estimates (resource
//!   utilization, power, Fmax).
//!
//! [`CodesignEvaluator`] composes the three into the single evaluation
//! the master dispatches per candidate. Candidates whose hardware genes
//! do not fit the device, or whose training diverges, come back as
//! [`Measurement::infeasible`] rather than an error — the engine scores
//! them at zero fitness and moves on.

use std::mem::discriminant;
use std::time::Instant;

use ecad_dataset::Dataset;
use ecad_hw::cpu::CpuDevice;
use ecad_hw::fpga::{FpgaDevice, FpgaModel, GridConfig, GridError, PhysicalModel};
use ecad_hw::gpu::GpuDevice;
use ecad_mlp::{TrainConfig, Trainer};
use rt::json::{Cursor, DecodeError, FromJson, Json};
use rt::rand::rngs::StdRng;
use rt::rand::SeedableRng;

use rt::obs::Obs;

use crate::genome::{CandidateGenome, HwGenome};
use crate::measurement::{HwMetrics, InfeasibleReason, Measurement};

/// Which hardware the search scores candidates against.
#[derive(Debug, Clone)]
pub enum HwTarget {
    /// An FPGA device evaluated through the hardware-database and
    /// physical workers.
    Fpga(FpgaDevice),
    /// A GPU device evaluated through the simulation worker.
    Gpu(GpuDevice),
    /// A CPU device evaluated through the simulation worker. CPU
    /// candidates use the batch-only [`HwGenome::GpuBatch`] genome —
    /// instruction-set targets have no structural genes, only the GEMM
    /// `m` dimension.
    Cpu(CpuDevice),
}

/// Builds a catalog device from a DDR bank count, which only FPGAs use.
type MakeTarget = fn(u32) -> HwTarget;

/// The device catalog, by the short name INI configs (`device =`),
/// `ecad estimate --device` and the cluster wire use.
pub const CATALOG: [(&str, MakeTarget); 7] = [
    ("arria10", |banks| {
        HwTarget::Fpga(FpgaDevice::arria10_gx1150(banks))
    }),
    ("stratix10", |banks| {
        HwTarget::Fpga(FpgaDevice::stratix10_2800(banks))
    }),
    ("m5000", |_| HwTarget::Gpu(GpuDevice::quadro_m5000())),
    ("titanx", |_| HwTarget::Gpu(GpuDevice::titan_x())),
    ("radeonvii", |_| HwTarget::Gpu(GpuDevice::radeon_vii())),
    ("xeon", |_| HwTarget::Cpu(CpuDevice::xeon_22c())),
    ("desktop", |_| HwTarget::Cpu(CpuDevice::desktop_8c())),
];

/// Why [`HwTarget::catalog`] built no device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogError {
    /// The name is not in [`CATALOG`].
    UnknownDevice,
    /// An FPGA without a DDR bank, whose memory would have no bandwidth.
    NoDdrBanks,
}

impl HwTarget {
    /// Display name of the underlying device.
    pub fn device_name(&self) -> &str {
        match self {
            HwTarget::Fpga(d) => &d.name,
            HwTarget::Gpu(d) => &d.name,
            HwTarget::Cpu(d) => &d.name,
        }
    }

    /// The [`CATALOG`] device called `name`, with `ddr_banks` DDR banks
    /// if it is an FPGA (other devices ignore the count).
    ///
    /// # Errors
    ///
    /// An unknown name, or an FPGA without a bank. Every front end (INI,
    /// `ecad estimate`, the cluster wire) builds its device here.
    pub fn catalog(name: &str, ddr_banks: u32) -> Result<HwTarget, CatalogError> {
        let found = CATALOG.iter().find(|(n, _)| *n == name);
        match found.map(|(_, make)| make(ddr_banks)) {
            None => Err(CatalogError::UnknownDevice),
            Some(HwTarget::Fpga(_)) if ddr_banks == 0 => Err(CatalogError::NoDdrBanks),
            Some(target) => Ok(target),
        }
    }

    /// The wire form `{"device": <catalog name>, "ddr_banks": n}`, `n`
    /// being 0 off an FPGA.
    ///
    /// # Errors
    ///
    /// A device outside the [`CATALOG`] (matched by kind and display
    /// name) cannot cross the wire, which names devices.
    pub fn to_json(&self) -> Result<Json, String> {
        let same = |t: HwTarget| {
            discriminant(&t) == discriminant(self) && t.device_name() == self.device_name()
        };
        let Some((name, _)) = CATALOG.iter().find(|(_, make)| same(make(1))) else {
            return Err(format!("not a catalog device: {:?}", self.device_name()));
        };
        let banks = match self {
            HwTarget::Fpga(d) => d.ddr.banks,
            HwTarget::Gpu(_) | HwTarget::Cpu(_) => 0,
        };
        Ok(Json::object()
            .insert("device", *name)
            .insert("ddr_banks", banks))
    }
}

impl FromJson for HwTarget {
    fn decode(j: Cursor<'_>) -> Result<HwTarget, DecodeError> {
        let device = j.field("device")?;
        let name = device.str()?;
        let banks = j.field("ddr_banks")?;
        let n = u32::decode(banks)?;
        match HwTarget::catalog(name, n) {
            Err(CatalogError::UnknownDevice) => {
                Err(device.error(format!("unknown device {name:?}")))
            }
            // As the encoder writes them: an FPGA has DDR banks, nothing else.
            Ok(target) if matches!(target, HwTarget::Fpga(_)) == (n > 0) => Ok(target),
            _ => Err(banks.expected("at least 1 for an FPGA, 0 for other devices")),
        }
    }
}

/// Evaluates a co-design candidate into a [`Measurement`].
///
/// Object-safe and `Send + Sync` so the engine can share one evaluator
/// across its worker threads.
pub trait Evaluator: Send + Sync {
    /// Scores one candidate. Must not panic on infeasible candidates;
    /// return [`Measurement::infeasible`] instead.
    fn evaluate(&self, genome: &CandidateGenome) -> Measurement;

    /// Name of the hardware this evaluator scores against.
    fn target_name(&self) -> String;
}

/// Runs one evaluation, turning a panic into a
/// [`InfeasibleReason::WorkerPanic`] verdict. The failed attempt
/// consumed real wall clock, so the verdict carries it (Table III's
/// totals must include it). The flag reports whether it panicked.
pub(crate) fn evaluate_caught(
    evaluator: &dyn Evaluator,
    genome: &CandidateGenome,
) -> (Measurement, bool) {
    let started = Instant::now();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| evaluator.evaluate(genome))) {
        Ok(m) => (m, false),
        Err(_) => {
            let mut m = Measurement::infeasible(InfeasibleReason::WorkerPanic);
            m.eval_time_s = started.elapsed().as_secs_f64();
            (m, true)
        }
    }
}

/// The production evaluator: trains the candidate topology on the
/// dataset (simulation worker) and scores its hardware genes on the
/// configured target (hardware database / physical / simulation worker).
#[derive(Debug, Clone)]
pub struct CodesignEvaluator {
    train: Dataset,
    test: Dataset,
    trainer: TrainConfig,
    target: HwTarget,
    seed: u64,
    obs: Obs,
}

impl CodesignEvaluator {
    /// Creates an evaluator over a fixed train/test split.
    ///
    /// Candidate training seeds derive from `seed ^ genome hash`, so a
    /// given candidate always trains identically within a search —
    /// required for the dedup cache to be sound.
    pub fn new(
        train: Dataset,
        test: Dataset,
        trainer: TrainConfig,
        target: HwTarget,
        seed: u64,
    ) -> Self {
        Self {
            train,
            test,
            trainer,
            target,
            seed,
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle: per-stage spans (`train`,
    /// `hw_model`), structured infeasibility events, and hardware-model
    /// telemetry all flow through it. Disabled by default.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Scores `genome`'s hardware genes on the target. The hardware
    /// models only compute; this is the one place that narrates their
    /// verdicts: a warn `fpga_unfit` for a design that does not fit its
    /// device, a debug `bandwidth_bound` with the worst per-layer stall
    /// factor, and a debug `gpu_model`/`cpu_model` with the dispatch
    /// count and efficiency (the paper's 0.3 % GPU-efficiency
    /// observation, visible per candidate). Each model call runs in a
    /// profile span named after it.
    fn hw_metrics(
        &self,
        genome: &CandidateGenome,
        shapes: &[(usize, usize, usize)],
        biases: &[bool],
    ) -> HwMetrics {
        match (&self.target, &genome.hw) {
            (
                HwTarget::Fpga(device),
                HwGenome::FpgaGrid {
                    rows,
                    cols,
                    interleave_m,
                    interleave_n,
                    vec,
                    ..
                },
            ) => {
                let score = || -> Result<HwMetrics, GridError> {
                    let grid = GridConfig::new(*rows, *cols, *interleave_m, *interleave_n, *vec)?;
                    let model = FpgaModel::new(device.clone());
                    let perf = {
                        let _prof = rt::prof_span!("fpga_model");
                        model.evaluate(&grid, shapes)?
                    };
                    if perf.bandwidth_bound {
                        let worst_stall = perf.layers.iter().map(|l| l.stall).fold(1.0, f64::max);
                        rt::debug!(
                            self.obs,
                            "bandwidth_bound",
                            device = device.name.as_str(),
                            worst_stall = worst_stall,
                            efficiency = perf.efficiency,
                        );
                    }
                    let physical = PhysicalModel::new(device.clone()).report(&grid)?;
                    Ok(HwMetrics::Fpga {
                        outputs_per_s: perf.outputs_per_s,
                        efficiency: perf.efficiency,
                        latency_s: perf.latency_s,
                        potential_gflops: perf.potential_gflops,
                        effective_gflops: perf.effective_gflops,
                        bandwidth_bound: perf.bandwidth_bound,
                        power_w: physical.power_w,
                        fmax_mhz: physical.fmax_mhz,
                        dsp_util: physical.resources.dsp_util,
                    })
                };
                score().unwrap_or_else(|e| {
                    rt::warn!(
                        self.obs,
                        "fpga_unfit",
                        device = device.name.as_str(),
                        detail = e.to_string(),
                    );
                    HwMetrics::Infeasible {
                        reason: InfeasibleReason::DeviceFit,
                    }
                })
            }
            (HwTarget::Gpu(device), HwGenome::GpuBatch { .. }) => {
                let perf = {
                    let _prof = rt::prof_span!("gpu_model");
                    device.roofline().evaluate(shapes, biases)
                };
                rt::debug!(
                    self.obs,
                    "gpu_model",
                    device = device.name.as_str(),
                    kernels = perf.dispatches,
                    efficiency = perf.efficiency,
                );
                HwMetrics::Gpu {
                    outputs_per_s: perf.outputs_per_s,
                    efficiency: perf.efficiency,
                    latency_s: perf.total_time_s,
                    effective_gflops: perf.effective_gflops,
                    // The paper measured ~50 W average under MLP load on
                    // a 150 W-class board; scale that observation by
                    // achieved occupancy on top of an idle floor.
                    power_w: 0.25 * device.board_power_w
                        + 0.5 * device.board_power_w * perf.efficiency.min(1.0),
                }
            }
            (HwTarget::Cpu(device), HwGenome::GpuBatch { .. }) => {
                let perf = {
                    let _prof = rt::prof_span!("cpu_model");
                    device.roofline().evaluate(shapes, biases)
                };
                rt::debug!(
                    self.obs,
                    "cpu_model",
                    device = device.name.as_str(),
                    calls = perf.dispatches,
                    efficiency = perf.efficiency,
                );
                HwMetrics::Cpu {
                    outputs_per_s: perf.outputs_per_s,
                    efficiency: perf.efficiency,
                    latency_s: perf.total_time_s,
                    effective_gflops: perf.effective_gflops,
                    power_w: 0.35 * device.tdp_w + 0.65 * device.tdp_w * perf.efficiency.min(1.0),
                }
            }
            (HwTarget::Fpga(_), HwGenome::GpuBatch { .. })
            | (HwTarget::Gpu(_) | HwTarget::Cpu(_), HwGenome::FpgaGrid { .. }) => {
                HwMetrics::Infeasible {
                    reason: InfeasibleReason::TargetMismatch,
                }
            }
        }
    }
}

impl Evaluator for CodesignEvaluator {
    fn evaluate(&self, genome: &CandidateGenome) -> Measurement {
        let start = Instant::now();
        let topology = genome
            .nna
            .to_topology(self.train.n_features(), self.train.n_classes());
        let mut rng = StdRng::seed_from_u64(self.seed ^ genome.cache_key());

        let train_start = Instant::now();
        let fit = {
            let _span = rt::span!(self.obs, "train", neurons = topology.total_neurons());
            Trainer::new(self.trainer).fit(&topology, &self.train, &self.test, &mut rng)
        };
        let train_time_s = train_start.elapsed().as_secs_f64();
        let report = match fit {
            Ok(r) => r,
            Err(e) => {
                rt::warn!(
                    self.obs,
                    "infeasible",
                    stage = "train",
                    reason = InfeasibleReason::TrainingFailure.kind(),
                    detail = e.to_string(),
                );
                let mut m = Measurement::infeasible(InfeasibleReason::TrainingFailure);
                m.eval_time_s = start.elapsed().as_secs_f64();
                m.train_time_s = train_time_s;
                return m;
            }
        };

        let batch = genome.hw.batch() as usize;
        let shapes = topology.gemm_shapes(batch);
        // Bias kernels: the hidden layers' bias genes plus the implicit
        // always-biased output head.
        let mut biases: Vec<bool> = genome.nna.layers.iter().map(|l| l.bias).collect();
        biases.push(true);
        let hw_start = Instant::now();
        let hw = {
            let _span = rt::span!(self.obs, "hw_model", batch = batch);
            self.hw_metrics(genome, &shapes, &biases)
        };
        let hw_time_s = hw_start.elapsed().as_secs_f64();
        if let HwMetrics::Infeasible { reason } = &hw {
            rt::warn!(
                self.obs,
                "infeasible",
                stage = "hw_model",
                reason = reason.kind(),
            );
        }

        Measurement {
            accuracy: report.test_accuracy,
            train_accuracy: report.train_accuracy,
            params: topology.param_count(),
            neurons: topology.total_neurons(),
            hw,
            eval_time_s: start.elapsed().as_secs_f64(),
            train_time_s,
            hw_time_s,
        }
    }

    fn target_name(&self) -> String {
        self.target.device_name().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{LayerGene, NnaGenome};
    use ecad_dataset::synth::SyntheticSpec;
    use ecad_mlp::Activation;

    fn dataset() -> (Dataset, Dataset) {
        let ds = SyntheticSpec::new("worker-test", 160, 8, 2)
            .with_class_sep(3.0)
            .with_seed(0)
            .generate();
        let mut rng = StdRng::seed_from_u64(0);
        ds.split(0.25, &mut rng)
    }

    fn fpga_genome() -> CandidateGenome {
        CandidateGenome {
            nna: NnaGenome {
                layers: vec![LayerGene {
                    neurons: 16,
                    activation: Activation::Relu,
                    bias: true,
                }],
            },
            hw: HwGenome::FpgaGrid {
                rows: 4,
                cols: 4,
                interleave_m: 2,
                interleave_n: 2,
                vec: 4,
                batch: 8,
            },
        }
    }

    fn fpga_evaluator() -> CodesignEvaluator {
        let (train, test) = dataset();
        CodesignEvaluator::new(
            train,
            test,
            TrainConfig::fast(),
            HwTarget::Fpga(FpgaDevice::arria10_gx1150(1)),
            42,
        )
    }

    #[test]
    fn fpga_candidate_gets_full_measurement() {
        let m = fpga_evaluator().evaluate(&fpga_genome());
        assert!(m.accuracy > 0.5, "accuracy {}", m.accuracy);
        assert!(m.hw.is_feasible());
        assert!(m.hw.outputs_per_s() > 0.0);
        assert!(m.eval_time_s > 0.0);
        assert_eq!(m.neurons, 16);
        match m.hw {
            HwMetrics::Fpga {
                power_w, fmax_mhz, ..
            } => {
                assert!(power_w > 20.0 && power_w < 35.0);
                assert!(fmax_mhz > 200.0);
            }
            other => panic!("expected FPGA metrics, got {other:?}"),
        }
    }

    #[test]
    fn gpu_candidate_gets_gpu_metrics() {
        let (train, test) = dataset();
        let eval = CodesignEvaluator::new(
            train,
            test,
            TrainConfig::fast(),
            HwTarget::Gpu(GpuDevice::titan_x()),
            42,
        );
        let mut g = fpga_genome();
        g.hw = HwGenome::GpuBatch { batch: 256 };
        let m = eval.evaluate(&g);
        assert!(matches!(m.hw, HwMetrics::Gpu { .. }));
        assert!(m.hw.outputs_per_s() > 0.0);
    }

    #[test]
    fn cpu_candidate_gets_cpu_metrics() {
        let (train, test) = dataset();
        let eval = CodesignEvaluator::new(
            train,
            test,
            TrainConfig::fast(),
            HwTarget::Cpu(CpuDevice::xeon_22c()),
            42,
        );
        let mut g = fpga_genome();
        g.hw = HwGenome::GpuBatch { batch: 128 };
        let m = eval.evaluate(&g);
        assert!(matches!(m.hw, HwMetrics::Cpu { .. }));
        assert!(m.hw.outputs_per_s() > 0.0);
        assert!(m.hw.power_w() > 0.0);
        assert!(m.hw.outputs_per_joule() > 0.0);
        assert_eq!(eval.target_name(), "Xeon 22-core");
    }

    #[test]
    fn oversized_grid_is_infeasible_not_panic() {
        let mut g = fpga_genome();
        g.hw = HwGenome::FpgaGrid {
            rows: 16,
            cols: 16,
            interleave_m: 2,
            interleave_n: 2,
            vec: 16, // 4096 DSPs > Arria 10's 1518
            batch: 8,
        };
        let m = fpga_evaluator().evaluate(&g);
        assert!(!m.hw.is_feasible());
        // Training succeeded, so accuracy is still reported.
        assert!(m.accuracy > 0.0);
    }

    #[test]
    fn every_unfit_verdict_names_its_device() {
        let sink = rt::obs::CaptureSink::new(rt::obs::Level::Debug);
        let eval = fpga_evaluator().with_obs(Obs::builder().sink(sink.clone()).build());
        // A zero-row grid fails `GridConfig::new`; 4096 DSPs fail the
        // model's fit check.
        for (rows, vec) in [(0, 4), (16, 16)] {
            let mut g = fpga_genome();
            g.hw = HwGenome::FpgaGrid {
                rows,
                cols: 16,
                interleave_m: 2,
                interleave_n: 2,
                vec,
                batch: 8,
            };
            assert!(!eval.evaluate(&g).hw.is_feasible());
        }
        let unfit: Vec<_> = sink
            .take()
            .into_iter()
            .filter(|e| e.name == "fpga_unfit")
            .collect();
        assert_eq!(unfit.len(), 2);
        for e in unfit {
            assert_eq!(e.target, "ecad_core::workers");
            let keys: Vec<&str> = e.fields.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, ["device", "detail"]);
            assert_eq!(e.fields[0].1, rt::obs::Value::from("Arria 10 GX 1150"));
        }
    }

    #[test]
    fn cross_family_genome_is_infeasible() {
        let mut g = fpga_genome();
        g.hw = HwGenome::GpuBatch { batch: 64 };
        let m = fpga_evaluator().evaluate(&g);
        assert!(!m.hw.is_feasible());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let eval = fpga_evaluator();
        let g = fpga_genome();
        let a = eval.evaluate(&g);
        let b = eval.evaluate(&g);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.hw.outputs_per_s(), b.hw.outputs_per_s());
    }

    #[test]
    fn target_name_reports_device() {
        assert_eq!(fpga_evaluator().target_name(), "Arria 10 GX 1150");
    }

    #[test]
    fn catalog_refuses_unknown_names_and_bankless_fpgas() {
        assert!(matches!(
            HwTarget::catalog("tpu", 1),
            Err(CatalogError::UnknownDevice)
        ));
        for (name, make) in CATALOG {
            match (make(1), HwTarget::catalog(name, 0)) {
                (HwTarget::Fpga(_), Err(CatalogError::NoDdrBanks)) => {}
                (HwTarget::Gpu(_) | HwTarget::Cpu(_), Ok(_)) => {}
                (_, got) => panic!("{name} with 0 banks: {got:?}"),
            }
        }
    }
}
