//! Raw evaluation metrics returned by workers.
//!
//! "The Worker returns the raw evaluation information to a Master
//! process" (§III-A). A [`Measurement`] bundles the accuracy from the
//! simulation worker with the hardware metrics from whichever hardware
//! worker scored the candidate; fitness functions then scalarize it.

use std::fmt;

use rt::json::{Cursor, DecodeError, FromJson, Json, ToJson};

/// Why a candidate could not be scored.
///
/// Infeasible candidates are common in a co-design search — the paper's
/// runs reject many grids that exceed the Arria 10's DSP or M20K
/// budget — so the frequent reasons are interned variants that cost no
/// allocation on the hot path. [`InfeasibleReason::Other`] keeps a
/// free-form escape hatch for rare cases. [`InfeasibleReason::kind`]
/// gives the stable label used as a structured telemetry field.
#[derive(Debug, Clone, PartialEq)]
pub enum InfeasibleReason {
    /// The hardware genes exceed the device's resources (DSPs, M20Ks,
    /// ALMs, or a zero-sized grid).
    DeviceFit,
    /// The simulation worker's training run failed (shape mismatch or
    /// divergence).
    TrainingFailure,
    /// The genome's hardware family does not match the search target
    /// (e.g. a batch-only genome scored against an FPGA target).
    TargetMismatch,
    /// The evaluating worker thread panicked.
    WorkerPanic,
    /// The evaluation exceeded the engine's per-candidate deadline
    /// (`eval_timeout`) and was abandoned.
    EvalTimeout,
    /// A transient environmental failure (flaky I/O, a busy device, a
    /// lost worker) that a retry may well not reproduce.
    Transient(String),
    /// Anything else, spelled out.
    Other(String),
}

/// How a failed evaluation should be treated by the retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The failure is tied to the environment, not the candidate:
    /// retrying the same genome may succeed, so the engine retries (up
    /// to `max_retries`) and never caches the failure.
    Transient,
    /// The failure is a property of the candidate itself (it does not
    /// fit the device, its family mismatches the target): retrying
    /// cannot change the verdict, so it is cached and scored as-is.
    Permanent,
}

impl InfeasibleReason {
    /// Stable machine-readable label: `"device-fit"`,
    /// `"training-failure"`, `"target-mismatch"`, `"worker-panic"`,
    /// `"eval-timeout"`, `"transient"`, or `"other"`. Telemetry events
    /// carry this as the `reason` field so traces can be grouped
    /// without parsing prose.
    pub fn kind(&self) -> &'static str {
        match self {
            InfeasibleReason::DeviceFit => "device-fit",
            InfeasibleReason::TrainingFailure => "training-failure",
            InfeasibleReason::TargetMismatch => "target-mismatch",
            InfeasibleReason::WorkerPanic => "worker-panic",
            InfeasibleReason::EvalTimeout => "eval-timeout",
            InfeasibleReason::Transient(_) => "transient",
            InfeasibleReason::Other(_) => "other",
        }
    }

    /// Classifies the failure for the retry policy. Panics, timeouts,
    /// and explicitly transient failures are worth retrying; resource
    /// and shape verdicts are properties of the genome and are not.
    pub fn failure_kind(&self) -> FailureKind {
        match self {
            InfeasibleReason::WorkerPanic
            | InfeasibleReason::EvalTimeout
            | InfeasibleReason::Transient(_) => FailureKind::Transient,
            InfeasibleReason::DeviceFit
            | InfeasibleReason::TrainingFailure
            | InfeasibleReason::TargetMismatch
            | InfeasibleReason::Other(_) => FailureKind::Permanent,
        }
    }
}

impl fmt::Display for InfeasibleReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InfeasibleReason::DeviceFit => {
                f.write_str("hardware genes do not fit the device")
            }
            InfeasibleReason::TrainingFailure => f.write_str("training failed"),
            InfeasibleReason::TargetMismatch => {
                f.write_str("genome family does not match the search target")
            }
            InfeasibleReason::WorkerPanic => f.write_str("worker panicked"),
            InfeasibleReason::EvalTimeout => {
                f.write_str("evaluation exceeded its deadline")
            }
            InfeasibleReason::Transient(text) => {
                write!(f, "transient failure: {text}")
            }
            InfeasibleReason::Other(text) => f.write_str(text),
        }
    }
}

impl From<&str> for InfeasibleReason {
    fn from(text: &str) -> Self {
        InfeasibleReason::Other(text.to_string())
    }
}

impl From<String> for InfeasibleReason {
    fn from(text: String) -> Self {
        InfeasibleReason::Other(text)
    }
}

/// Hardware metrics for one candidate, per target family.
#[derive(Debug, Clone, PartialEq)]
pub enum HwMetrics {
    /// FPGA metrics from the hardware-database and physical workers.
    Fpga {
        /// Classification results per second.
        outputs_per_s: f64,
        /// Effective / potential performance (§IV-D).
        efficiency: f64,
        /// Seconds from run start to first result.
        latency_s: f64,
        /// Roofline after bandwidth ratio, GFLOP/s.
        potential_gflops: f64,
        /// Achieved GFLOP/s.
        effective_gflops: f64,
        /// Whether any layer was bandwidth-stalled.
        bandwidth_bound: bool,
        /// Physical worker: estimated chip power, W.
        power_w: f64,
        /// Physical worker: estimated Fmax, MHz.
        fmax_mhz: f64,
        /// Physical worker: DSP utilization fraction of the device.
        dsp_util: f64,
    },
    /// GPU metrics from the simulation worker.
    Gpu {
        /// Classification results per second.
        outputs_per_s: f64,
        /// Effective FLOP/s over device peak.
        efficiency: f64,
        /// Seconds for one batch.
        latency_s: f64,
        /// Achieved GFLOP/s.
        effective_gflops: f64,
        /// Board power, W (the paper measured ~50 W average under MLP
        /// load via nvidia-smi; reported for per-watt objectives, not
        /// directly comparable to FPGA chip power — §IV).
        power_w: f64,
    },
    /// CPU metrics from the simulation worker.
    Cpu {
        /// Classification results per second.
        outputs_per_s: f64,
        /// Effective FLOP/s over device peak.
        efficiency: f64,
        /// Seconds for one batch.
        latency_s: f64,
        /// Achieved GFLOP/s.
        effective_gflops: f64,
        /// Package power, W.
        power_w: f64,
    },
    /// The candidate's hardware genes do not fit the device (or training
    /// failed); it receives zero fitness but stays in the trace.
    Infeasible {
        /// Why — interned for the common cases so the hot path does
        /// not allocate.
        reason: InfeasibleReason,
    },
}

impl HwMetrics {
    /// Outputs per second; zero when infeasible.
    pub fn outputs_per_s(&self) -> f64 {
        match self {
            HwMetrics::Fpga { outputs_per_s, .. }
            | HwMetrics::Gpu { outputs_per_s, .. }
            | HwMetrics::Cpu { outputs_per_s, .. } => *outputs_per_s,
            HwMetrics::Infeasible { .. } => 0.0,
        }
    }

    /// Hardware efficiency; zero when infeasible.
    pub fn efficiency(&self) -> f64 {
        match self {
            HwMetrics::Fpga { efficiency, .. }
            | HwMetrics::Gpu { efficiency, .. }
            | HwMetrics::Cpu { efficiency, .. } => *efficiency,
            HwMetrics::Infeasible { .. } => 0.0,
        }
    }

    /// Latency in seconds; infinity when infeasible.
    pub fn latency_s(&self) -> f64 {
        match self {
            HwMetrics::Fpga { latency_s, .. }
            | HwMetrics::Gpu { latency_s, .. }
            | HwMetrics::Cpu { latency_s, .. } => *latency_s,
            HwMetrics::Infeasible { .. } => f64::INFINITY,
        }
    }

    /// Estimated power draw in watts; zero when infeasible. FPGA power
    /// is chip power from the physical worker; GPU/CPU power is the
    /// board/package figure — the paper notes this asymmetry and leaves
    /// power out of its conclusions, so per-watt objectives should be
    /// compared within one platform family only.
    pub fn power_w(&self) -> f64 {
        match self {
            HwMetrics::Fpga { power_w, .. }
            | HwMetrics::Gpu { power_w, .. }
            | HwMetrics::Cpu { power_w, .. } => *power_w,
            HwMetrics::Infeasible { .. } => 0.0,
        }
    }

    /// Outputs per second per watt; zero when infeasible.
    pub fn outputs_per_joule(&self) -> f64 {
        let p = self.power_w();
        if p <= 0.0 {
            return 0.0;
        }
        self.outputs_per_s() / p
    }

    /// Whether the candidate was scoreable at all.
    pub fn is_feasible(&self) -> bool {
        !matches!(self, HwMetrics::Infeasible { .. })
    }
}

/// Complete raw measurement for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Test accuracy from the simulation worker's training run.
    pub accuracy: f32,
    /// Training accuracy (overfit diagnostics).
    pub train_accuracy: f32,
    /// Trainable parameter count of the candidate topology.
    pub params: usize,
    /// Total hidden neurons (the paper's network-size axis).
    pub neurons: usize,
    /// Hardware metrics from the matching hardware worker.
    pub hw: HwMetrics,
    /// Wall-clock seconds this evaluation took (Table III's
    /// per-evaluation time).
    pub eval_time_s: f64,
    /// Seconds of `eval_time_s` spent in the simulation worker's
    /// training run.
    pub train_time_s: f64,
    /// Seconds of `eval_time_s` spent in the hardware model.
    pub hw_time_s: f64,
}

impl Measurement {
    /// An infeasible measurement with the given reason; accuracy zero.
    pub fn infeasible(reason: impl Into<InfeasibleReason>) -> Self {
        Self {
            accuracy: 0.0,
            train_accuracy: 0.0,
            params: 0,
            neurons: 0,
            hw: HwMetrics::Infeasible {
                reason: reason.into(),
            },
            eval_time_s: 0.0,
            train_time_s: 0.0,
            hw_time_s: 0.0,
        }
    }

    /// The infeasibility reason, when the candidate was not scoreable.
    pub fn infeasible_reason(&self) -> Option<&InfeasibleReason> {
        match &self.hw {
            HwMetrics::Infeasible { reason } => Some(reason),
            _ => None,
        }
    }

    /// How the retry policy should treat this measurement: `None` for
    /// a feasible result, otherwise the reason's [`FailureKind`].
    pub fn failure_kind(&self) -> Option<FailureKind> {
        self.infeasible_reason().map(InfeasibleReason::failure_kind)
    }
}

impl ToJson for InfeasibleReason {
    fn to_json(&self) -> Json {
        let j = Json::object().insert("kind", self.kind());
        match self {
            InfeasibleReason::Transient(text) | InfeasibleReason::Other(text) => {
                j.insert("text", text.as_str())
            }
            _ => j,
        }
    }
}

impl FromJson for InfeasibleReason {
    fn decode(j: Cursor<'_>) -> Result<InfeasibleReason, DecodeError> {
        // An absent `text` reads as empty.
        let text = || Ok(j.opt("text")?.unwrap_or_default());
        let kind = j.field("kind")?;
        Ok(match kind.str()? {
            "device-fit" => InfeasibleReason::DeviceFit,
            "training-failure" => InfeasibleReason::TrainingFailure,
            "target-mismatch" => InfeasibleReason::TargetMismatch,
            "worker-panic" => InfeasibleReason::WorkerPanic,
            "eval-timeout" => InfeasibleReason::EvalTimeout,
            "transient" => InfeasibleReason::Transient(text()?),
            "other" => InfeasibleReason::Other(text()?),
            other => return Err(kind.error(format!("unknown infeasible reason {other:?}"))),
        })
    }
}

impl ToJson for HwMetrics {
    fn to_json(&self) -> Json {
        let kind = match self {
            HwMetrics::Fpga { .. } => "fpga",
            HwMetrics::Gpu { .. } => "gpu",
            HwMetrics::Cpu { .. } => "cpu",
            HwMetrics::Infeasible { .. } => "infeasible",
        };
        let j = Json::object().insert("kind", kind);
        match self {
            HwMetrics::Fpga {
                outputs_per_s,
                efficiency,
                latency_s,
                potential_gflops,
                effective_gflops,
                bandwidth_bound,
                power_w,
                fmax_mhz,
                dsp_util,
            } => j
                .insert("outputs_per_s", *outputs_per_s)
                .insert("efficiency", *efficiency)
                .insert("latency_s", *latency_s)
                .insert("potential_gflops", *potential_gflops)
                .insert("effective_gflops", *effective_gflops)
                .insert("bandwidth_bound", *bandwidth_bound)
                .insert("power_w", *power_w)
                .insert("fmax_mhz", *fmax_mhz)
                .insert("dsp_util", *dsp_util),
            HwMetrics::Gpu {
                outputs_per_s,
                efficiency,
                latency_s,
                effective_gflops,
                power_w,
            }
            | HwMetrics::Cpu {
                outputs_per_s,
                efficiency,
                latency_s,
                effective_gflops,
                power_w,
            } => j
                .insert("outputs_per_s", *outputs_per_s)
                .insert("efficiency", *efficiency)
                .insert("latency_s", *latency_s)
                .insert("effective_gflops", *effective_gflops)
                .insert("power_w", *power_w),
            HwMetrics::Infeasible { reason } => j.insert("reason", reason),
        }
    }
}

impl FromJson for HwMetrics {
    fn decode(j: Cursor<'_>) -> Result<HwMetrics, DecodeError> {
        let kind = j.field("kind")?;
        Ok(match kind.str()? {
            "fpga" => HwMetrics::Fpga {
                outputs_per_s: j.get("outputs_per_s")?,
                efficiency: j.get("efficiency")?,
                latency_s: j.get("latency_s")?,
                potential_gflops: j.get("potential_gflops")?,
                effective_gflops: j.get("effective_gflops")?,
                bandwidth_bound: j.get("bandwidth_bound")?,
                power_w: j.get("power_w")?,
                fmax_mhz: j.get("fmax_mhz")?,
                dsp_util: j.get("dsp_util")?,
            },
            "gpu" => HwMetrics::Gpu {
                outputs_per_s: j.get("outputs_per_s")?,
                efficiency: j.get("efficiency")?,
                latency_s: j.get("latency_s")?,
                effective_gflops: j.get("effective_gflops")?,
                power_w: j.get("power_w")?,
            },
            "cpu" => HwMetrics::Cpu {
                outputs_per_s: j.get("outputs_per_s")?,
                efficiency: j.get("efficiency")?,
                latency_s: j.get("latency_s")?,
                effective_gflops: j.get("effective_gflops")?,
                power_w: j.get("power_w")?,
            },
            "infeasible" => HwMetrics::Infeasible {
                reason: j.get("reason")?,
            },
            other => return Err(kind.error(format!("unknown hw metrics kind {other:?}"))),
        })
    }
}

impl ToJson for Measurement {
    fn to_json(&self) -> Json {
        Json::object()
            // f32 -> f64 widening is exact, so accuracy round-trips.
            .insert("accuracy", self.accuracy)
            .insert("train_accuracy", self.train_accuracy)
            .insert("params", self.params)
            .insert("neurons", self.neurons)
            .insert("eval_time_s", self.eval_time_s)
            .insert("train_time_s", self.train_time_s)
            .insert("hw_time_s", self.hw_time_s)
            .insert("hw", &self.hw)
    }
}

impl FromJson for Measurement {
    fn decode(j: Cursor<'_>) -> Result<Measurement, DecodeError> {
        Ok(Measurement {
            accuracy: j.get("accuracy")?,
            train_accuracy: j.get("train_accuracy")?,
            params: j.get("params")?,
            neurons: j.get("neurons")?,
            hw: j.get("hw")?,
            eval_time_s: j.get("eval_time_s")?,
            train_time_s: j.get("train_time_s")?,
            hw_time_s: j.get("hw_time_s")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infeasible_defaults() {
        let m = Measurement::infeasible("too many DSPs");
        assert_eq!(m.accuracy, 0.0);
        assert!(!m.hw.is_feasible());
        assert_eq!(m.hw.outputs_per_s(), 0.0);
        assert_eq!(m.hw.efficiency(), 0.0);
        assert!(m.hw.latency_s().is_infinite());
        assert_eq!(m.eval_time_s, 0.0);
        assert_eq!(m.train_time_s, 0.0);
        assert_eq!(m.hw_time_s, 0.0);
        // A free-form &str lands in the Other escape hatch.
        assert_eq!(
            m.infeasible_reason(),
            Some(&InfeasibleReason::Other("too many DSPs".to_string()))
        );
    }

    #[test]
    fn interned_reasons_have_stable_kinds() {
        let cases = [
            (InfeasibleReason::DeviceFit, "device-fit"),
            (InfeasibleReason::TrainingFailure, "training-failure"),
            (InfeasibleReason::TargetMismatch, "target-mismatch"),
            (InfeasibleReason::WorkerPanic, "worker-panic"),
            (InfeasibleReason::EvalTimeout, "eval-timeout"),
            (InfeasibleReason::Transient("device busy".into()), "transient"),
            (InfeasibleReason::Other("weird".into()), "other"),
        ];
        for (reason, kind) in cases {
            assert_eq!(reason.kind(), kind);
            assert!(!reason.to_string().is_empty());
        }
        let m = Measurement::infeasible(InfeasibleReason::DeviceFit);
        assert_eq!(m.infeasible_reason().unwrap().kind(), "device-fit");
        assert!(m
            .infeasible_reason()
            .unwrap()
            .to_string()
            .contains("do not fit"));
    }

    #[test]
    fn failure_kinds_split_transient_from_permanent() {
        use InfeasibleReason as R;
        let transient = [R::WorkerPanic, R::EvalTimeout, R::Transient("io".into())];
        for r in transient {
            assert_eq!(r.failure_kind(), FailureKind::Transient, "{r:?}");
        }
        let permanent = [
            R::DeviceFit,
            R::TrainingFailure,
            R::TargetMismatch,
            R::Other("weird".into()),
        ];
        for r in permanent {
            assert_eq!(r.failure_kind(), FailureKind::Permanent, "{r:?}");
        }
        assert_eq!(
            Measurement::infeasible(R::EvalTimeout).failure_kind(),
            Some(FailureKind::Transient)
        );
    }

    #[test]
    fn accessors_cover_both_families() {
        let f = HwMetrics::Fpga {
            outputs_per_s: 1e6,
            efficiency: 0.4,
            latency_s: 1e-5,
            potential_gflops: 700.0,
            effective_gflops: 280.0,
            bandwidth_bound: true,
            power_w: 27.0,
            fmax_mhz: 245.0,
            dsp_util: 0.3,
        };
        let g = HwMetrics::Gpu {
            outputs_per_s: 2e6,
            efficiency: 0.003,
            latency_s: 2e-4,
            effective_gflops: 36.0,
            power_w: 50.0,
        };
        assert_eq!(f.outputs_per_s(), 1e6);
        assert_eq!(g.outputs_per_s(), 2e6);
        assert!(f.is_feasible() && g.is_feasible());
        assert_eq!(g.efficiency(), 0.003);
        assert_eq!(f.latency_s(), 1e-5);
        assert_eq!(g.power_w(), 50.0);
        assert!((g.outputs_per_joule() - 4e4).abs() < 1e-6);
        let c = HwMetrics::Cpu {
            outputs_per_s: 1e6,
            efficiency: 0.02,
            latency_s: 1e-4,
            effective_gflops: 20.0,
            power_w: 100.0,
        };
        assert_eq!(c.outputs_per_s(), 1e6);
        assert_eq!(c.outputs_per_joule(), 1e4);
    }
}
