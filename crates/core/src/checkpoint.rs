//! Search checkpoint/resume: serialize the engine's full master state
//! to JSON and restore it for a byte-identical continuation.
//!
//! A long co-design run is only as durable as its last checkpoint — the
//! paper's MNIST searches evaluate tens of thousands of models over
//! hours, and the predecessor system (arXiv:1903.02130) distributes
//! work precisely so failures do not lose the search. A
//! [`CheckpointState`] captures everything the steady-state loop needs
//! to continue *exactly* where it left off:
//!
//! * the population and unique-evaluation trace (genome + raw
//!   measurement; scalar fitness is **recomputed** on load because the
//!   JSON layer maps non-finite numbers — infeasible candidates carry
//!   `-inf` fitness — to `null`);
//! * the master RNG's raw PCG64 state, as hex strings (the 128-bit
//!   state does not survive an `f64` JSON number);
//! * the dedup cache (keys as 16-digit hex, for the same reason);
//! * the run counters behind `EngineStats`;
//! * unsampled initial seeds and in-flight/retry work (`pending`), so
//!   multi-threaded runs lose nothing either.
//!
//! For a seeded single-thread run, resuming from a checkpoint written
//! after evaluation *M* replays the identical decision sequence the
//! uninterrupted run would have made from *M* on — same children, same
//! cache hits, same trace events. DESIGN.md §12 gives the argument.
//!
//! [`CheckpointState::save`] writes atomically (temp file + rename) so
//! a crash mid-write never corrupts the previous checkpoint.

use std::io::Write;
use std::path::{Path, PathBuf};

use ecad_mlp::Activation;
use rt::json::{Json, ToJson};

use crate::analytics::OperatorKind;
use crate::engine::EvolutionConfig;
use crate::genome::{CandidateGenome, HwGenome, LayerGene, NnaGenome};
use crate::measurement::{HwMetrics, InfeasibleReason, Measurement};

/// Schema version stamped into every checkpoint file; bump on any
/// incompatible layout change. Version 2 added the per-operator
/// admission counters and the `op` provenance tag on pending jobs
/// (both feed the epoch analytics, whose resumed events must be
/// bit-identical to an uninterrupted run's).
pub const FORMAT_VERSION: u64 = 2;

/// When and where the engine writes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Destination file (written atomically, overwritten each time).
    pub path: PathBuf,
    /// Write after every `every` unique evaluations (and always on a
    /// halt or shutdown request).
    pub every: usize,
}

impl CheckpointPolicy {
    /// A policy writing to `path` every `every` unique evaluations.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        Self {
            path: path.into(),
            every,
        }
    }
}

/// The master loop's running counters. The engine mutates this struct
/// in place, checkpoints carry it, and `/status` publishes it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunCounters {
    /// Unique candidates submitted so far (including pending ones).
    pub submitted_unique: usize,
    /// Candidate-generation attempts consumed (the duplicate-breeding
    /// safety valve's counter).
    pub attempts: usize,
    /// Next dispatch id.
    pub next_id: usize,
    /// Dedup-cache hits so far.
    pub cache_hits: usize,
    /// Final infeasible verdicts so far.
    pub infeasible_count: usize,
    /// Transient-failure retries dispatched so far.
    pub retry_count: usize,
    /// Evaluations abandoned at their deadline so far.
    pub timeout_count: usize,
    /// Worker slots respawned so far.
    pub respawn_count: usize,
    /// Accumulated per-evaluation seconds.
    pub total_eval_time_s: f64,
    /// Accumulated training-stage seconds.
    pub train_time_s: f64,
    /// Accumulated hardware-model seconds.
    pub hw_time_s: f64,
}

/// A unit of work that was dispatched (or scheduled for retry) but not
/// yet finally admitted when the checkpoint was written. Its unique
/// budget is already consumed, so resume re-dispatches it without
/// re-counting.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// Attempt number (0 = first try, k = k-th retry).
    pub attempt: usize,
    /// The candidate to evaluate.
    pub genome: CandidateGenome,
    /// Which operator produced the candidate (epoch analytics
    /// provenance; survives the checkpoint so per-operator admission
    /// rates stay exact across a resume).
    pub op: OperatorKind,
}

/// Everything the engine needs to continue a run. See the module docs
/// for the field-by-field rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Schema version ([`FORMAT_VERSION`]).
    pub version: u64,
    /// Search seed, echoed for validation at resume time.
    pub seed: u64,
    /// Unique-evaluation budget, echoed for validation.
    pub evaluations: usize,
    /// Population capacity, echoed for validation.
    pub population_cap: usize,
    /// Master RNG raw state (PCG64 `state`).
    pub rng_state: u128,
    /// Master RNG raw stream selector (PCG64 `inc`, always odd).
    pub rng_inc: u128,
    /// The run counters behind `EngineStats`, as the loop left them.
    pub counters: RunCounters,
    /// Per-operator `(produced, entered population)` admission
    /// counters, in [`OperatorKind::ALL`] order.
    pub op_counters: [(u64, u64); 4],
    /// Wall-clock seconds consumed before this checkpoint.
    pub wall_time_s: f64,
    /// Unsampled initial seed genomes, in pop order (next-to-submit
    /// last) — nonempty only when interrupted during initial seeding.
    pub seeds_remaining: Vec<CandidateGenome>,
    /// Current population, in insertion order (order matters: the
    /// steady-state replacement draws indices from the RNG).
    pub population: Vec<(CandidateGenome, Measurement)>,
    /// Unique evaluations in completion order.
    pub trace: Vec<(CandidateGenome, Measurement)>,
    /// Dedup cache entries, sorted by key for stable bytes.
    pub cache: Vec<(u64, Measurement)>,
    /// Work dispatched or awaiting retry at checkpoint time.
    pub pending: Vec<PendingJob>,
}

/// Why a checkpoint could not be read or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// File-system failure, stringified.
    Io(String),
    /// The file is not valid JSON.
    Parse(String),
    /// The JSON does not match the checkpoint schema.
    Schema(String),
    /// The checkpoint disagrees with the run configuration.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            CheckpointError::Schema(e) => write!(f, "checkpoint schema error: {e}"),
            CheckpointError::Mismatch(e) => write!(f, "checkpoint/config mismatch: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

pub(crate) fn genome_to_json(g: &CandidateGenome) -> Json {
    let layers: Vec<Json> = g
        .nna
        .layers
        .iter()
        .map(|l| {
            Json::object()
                .insert("neurons", l.neurons)
                .insert("activation", l.activation.name())
                .insert("bias", l.bias)
        })
        .collect();
    let hw = match g.hw {
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
    };
    Json::object().insert("layers", layers).insert("hw", hw)
}

fn reason_to_json(r: &InfeasibleReason) -> Json {
    let j = Json::object().insert("kind", r.kind());
    match r {
        InfeasibleReason::Transient(text) | InfeasibleReason::Other(text) => {
            j.insert("text", text.as_str())
        }
        _ => j,
    }
}

fn hw_metrics_to_json(hw: &HwMetrics) -> Json {
    match hw {
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
        } => Json::object()
            .insert("kind", "fpga")
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
        } => Json::object()
            .insert("kind", "gpu")
            .insert("outputs_per_s", *outputs_per_s)
            .insert("efficiency", *efficiency)
            .insert("latency_s", *latency_s)
            .insert("effective_gflops", *effective_gflops)
            .insert("power_w", *power_w),
        HwMetrics::Cpu {
            outputs_per_s,
            efficiency,
            latency_s,
            effective_gflops,
            power_w,
        } => Json::object()
            .insert("kind", "cpu")
            .insert("outputs_per_s", *outputs_per_s)
            .insert("efficiency", *efficiency)
            .insert("latency_s", *latency_s)
            .insert("effective_gflops", *effective_gflops)
            .insert("power_w", *power_w),
        HwMetrics::Infeasible { reason } => Json::object()
            .insert("kind", "infeasible")
            .insert("reason", reason_to_json(reason)),
    }
}

pub(crate) fn measurement_to_json(m: &Measurement) -> Json {
    Json::object()
        // f32 -> f64 widening is exact, so accuracy round-trips.
        .insert("accuracy", m.accuracy as f64)
        .insert("train_accuracy", m.train_accuracy as f64)
        .insert("params", m.params)
        .insert("neurons", m.neurons)
        .insert("eval_time_s", m.eval_time_s)
        .insert("train_time_s", m.train_time_s)
        .insert("hw_time_s", m.hw_time_s)
        .insert("hw", hw_metrics_to_json(&m.hw))
}

fn pair_to_json(pair: &(CandidateGenome, Measurement)) -> Json {
    Json::object()
        .insert("genome", genome_to_json(&pair.0))
        .insert("measurement", measurement_to_json(&pair.1))
}

impl ToJson for CheckpointState {
    fn to_json(&self) -> Json {
        // Format version 2 fixes the counter keys' order, `operators`
        // included; the bytes of a checkpoint depend on it.
        let c = &self.counters;
        Json::object()
            .insert("version", self.version)
            .insert("seed", format!("{:016x}", self.seed))
            .insert("evaluations", self.evaluations)
            .insert("population_cap", self.population_cap)
            .insert("rng_state", format!("{:032x}", self.rng_state))
            .insert("rng_inc", format!("{:032x}", self.rng_inc))
            .insert("submitted_unique", c.submitted_unique)
            .insert("attempts", c.attempts)
            .insert("next_id", c.next_id)
            .insert("cache_hits", c.cache_hits)
            .insert("infeasible_count", c.infeasible_count)
            .insert("retry_count", c.retry_count)
            .insert("timeout_count", c.timeout_count)
            .insert("respawn_count", c.respawn_count)
            .insert("operators", {
                let mut ops = Json::object();
                for (op, (total, entered)) in
                    OperatorKind::ALL.into_iter().zip(self.op_counters)
                {
                    ops = ops.insert(
                        op.name(),
                        Json::object()
                            .insert("total", total)
                            .insert("entered", entered),
                    );
                }
                ops
            })
            .insert("total_eval_time_s", c.total_eval_time_s)
            .insert("train_time_s", c.train_time_s)
            .insert("hw_time_s", c.hw_time_s)
            .insert("wall_time_s", self.wall_time_s)
            .insert(
                "seeds_remaining",
                self.seeds_remaining
                    .iter()
                    .map(genome_to_json)
                    .collect::<Vec<_>>(),
            )
            .insert(
                "population",
                self.population.iter().map(pair_to_json).collect::<Vec<_>>(),
            )
            .insert(
                "trace",
                self.trace.iter().map(pair_to_json).collect::<Vec<_>>(),
            )
            .insert(
                "cache",
                self.cache
                    .iter()
                    .map(|(k, m)| {
                        Json::object()
                            .insert("key", format!("{k:016x}"))
                            .insert("measurement", measurement_to_json(m))
                    })
                    .collect::<Vec<_>>(),
            )
            .insert(
                "pending",
                self.pending
                    .iter()
                    .map(|p| {
                        Json::object()
                            .insert("attempt", p.attempt)
                            .insert("op", p.op.name())
                            .insert("genome", genome_to_json(&p.genome))
                    })
                    .collect::<Vec<_>>(),
            )
    }
}

// ---------------------------------------------------------------------------
// JSON decoding
// ---------------------------------------------------------------------------

fn schema(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Schema(msg.into())
}

fn get_f64(j: &Json, key: &str) -> Result<f64, CheckpointError> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| schema(format!("missing or non-numeric field {key:?}")))
}

fn get_usize(j: &Json, key: &str) -> Result<usize, CheckpointError> {
    let v = get_f64(j, key)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(schema(format!("field {key:?} is not a non-negative integer")));
    }
    Ok(v as usize)
}

fn get_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, CheckpointError> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| schema(format!("missing or non-string field {key:?}")))
}

fn get_bool(j: &Json, key: &str) -> Result<bool, CheckpointError> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(schema(format!("missing or non-boolean field {key:?}"))),
    }
}

fn get_array<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], CheckpointError> {
    j.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| schema(format!("missing or non-array field {key:?}")))
}

fn hex_u64(j: &Json, key: &str) -> Result<u64, CheckpointError> {
    u64::from_str_radix(get_str(j, key)?, 16)
        .map_err(|_| schema(format!("field {key:?} is not a 64-bit hex string")))
}

fn hex_u128(j: &Json, key: &str) -> Result<u128, CheckpointError> {
    u128::from_str_radix(get_str(j, key)?, 16)
        .map_err(|_| schema(format!("field {key:?} is not a 128-bit hex string")))
}

pub(crate) fn genome_from_json(j: &Json) -> Result<CandidateGenome, CheckpointError> {
    let layers = get_array(j, "layers")?
        .iter()
        .map(|l| {
            let name = get_str(l, "activation")?;
            let activation = Activation::from_name(name)
                .ok_or_else(|| schema(format!("unknown activation {name:?}")))?;
            Ok(LayerGene {
                neurons: get_usize(l, "neurons")?,
                activation,
                bias: get_bool(l, "bias")?,
            })
        })
        .collect::<Result<Vec<_>, CheckpointError>>()?;
    let hw = j
        .get("hw")
        .ok_or_else(|| schema("genome missing hw genes"))?;
    let hw = match get_str(hw, "kind")? {
        "fpga" => HwGenome::FpgaGrid {
            rows: get_usize(hw, "rows")? as u32,
            cols: get_usize(hw, "cols")? as u32,
            interleave_m: get_usize(hw, "interleave_m")? as u32,
            interleave_n: get_usize(hw, "interleave_n")? as u32,
            vec: get_usize(hw, "vec")? as u32,
            batch: get_usize(hw, "batch")? as u32,
        },
        "gpu" => HwGenome::GpuBatch {
            batch: get_usize(hw, "batch")? as u32,
        },
        other => return Err(schema(format!("unknown hw genome kind {other:?}"))),
    };
    Ok(CandidateGenome {
        nna: NnaGenome { layers },
        hw,
    })
}

fn reason_from_json(j: &Json) -> Result<InfeasibleReason, CheckpointError> {
    let text = || {
        j.get("text")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    Ok(match get_str(j, "kind")? {
        "device-fit" => InfeasibleReason::DeviceFit,
        "training-failure" => InfeasibleReason::TrainingFailure,
        "target-mismatch" => InfeasibleReason::TargetMismatch,
        "worker-panic" => InfeasibleReason::WorkerPanic,
        "eval-timeout" => InfeasibleReason::EvalTimeout,
        "transient" => InfeasibleReason::Transient(text()),
        "other" => InfeasibleReason::Other(text()),
        other => return Err(schema(format!("unknown infeasible reason {other:?}"))),
    })
}

fn hw_metrics_from_json(j: &Json) -> Result<HwMetrics, CheckpointError> {
    Ok(match get_str(j, "kind")? {
        "fpga" => HwMetrics::Fpga {
            outputs_per_s: get_f64(j, "outputs_per_s")?,
            efficiency: get_f64(j, "efficiency")?,
            latency_s: get_f64(j, "latency_s")?,
            potential_gflops: get_f64(j, "potential_gflops")?,
            effective_gflops: get_f64(j, "effective_gflops")?,
            bandwidth_bound: get_bool(j, "bandwidth_bound")?,
            power_w: get_f64(j, "power_w")?,
            fmax_mhz: get_f64(j, "fmax_mhz")?,
            dsp_util: get_f64(j, "dsp_util")?,
        },
        "gpu" => HwMetrics::Gpu {
            outputs_per_s: get_f64(j, "outputs_per_s")?,
            efficiency: get_f64(j, "efficiency")?,
            latency_s: get_f64(j, "latency_s")?,
            effective_gflops: get_f64(j, "effective_gflops")?,
            power_w: get_f64(j, "power_w")?,
        },
        "cpu" => HwMetrics::Cpu {
            outputs_per_s: get_f64(j, "outputs_per_s")?,
            efficiency: get_f64(j, "efficiency")?,
            latency_s: get_f64(j, "latency_s")?,
            effective_gflops: get_f64(j, "effective_gflops")?,
            power_w: get_f64(j, "power_w")?,
        },
        "infeasible" => HwMetrics::Infeasible {
            reason: reason_from_json(
                j.get("reason")
                    .ok_or_else(|| schema("infeasible metrics missing reason"))?,
            )?,
        },
        other => return Err(schema(format!("unknown hw metrics kind {other:?}"))),
    })
}

pub(crate) fn measurement_from_json(j: &Json) -> Result<Measurement, CheckpointError> {
    Ok(Measurement {
        // f64 -> f32 narrowing undoes the exact widening done on save.
        accuracy: get_f64(j, "accuracy")? as f32,
        train_accuracy: get_f64(j, "train_accuracy")? as f32,
        params: get_usize(j, "params")?,
        neurons: get_usize(j, "neurons")?,
        hw: hw_metrics_from_json(
            j.get("hw").ok_or_else(|| schema("measurement missing hw"))?,
        )?,
        eval_time_s: get_f64(j, "eval_time_s")?,
        train_time_s: get_f64(j, "train_time_s")?,
        hw_time_s: get_f64(j, "hw_time_s")?,
    })
}

fn pair_from_json(j: &Json) -> Result<(CandidateGenome, Measurement), CheckpointError> {
    Ok((
        genome_from_json(
            j.get("genome")
                .ok_or_else(|| schema("entry missing genome"))?,
        )?,
        measurement_from_json(
            j.get("measurement")
                .ok_or_else(|| schema("entry missing measurement"))?,
        )?,
    ))
}

impl CheckpointState {
    /// Rebuilds a state from parsed checkpoint JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Schema`] when a field is missing,
    /// mistyped, or from an unsupported format version.
    pub fn from_json(j: &Json) -> Result<Self, CheckpointError> {
        let version = get_usize(j, "version")? as u64;
        if version != FORMAT_VERSION {
            return Err(schema(format!(
                "unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
            )));
        }
        let rng_inc = hex_u128(j, "rng_inc")?;
        if rng_inc & 1 == 0 {
            return Err(schema("rng_inc must be odd (corrupted checkpoint?)"));
        }
        Ok(Self {
            version,
            seed: hex_u64(j, "seed")?,
            evaluations: get_usize(j, "evaluations")?,
            population_cap: get_usize(j, "population_cap")?,
            rng_state: hex_u128(j, "rng_state")?,
            rng_inc,
            counters: RunCounters {
                submitted_unique: get_usize(j, "submitted_unique")?,
                attempts: get_usize(j, "attempts")?,
                next_id: get_usize(j, "next_id")?,
                cache_hits: get_usize(j, "cache_hits")?,
                infeasible_count: get_usize(j, "infeasible_count")?,
                retry_count: get_usize(j, "retry_count")?,
                timeout_count: get_usize(j, "timeout_count")?,
                respawn_count: get_usize(j, "respawn_count")?,
                total_eval_time_s: get_f64(j, "total_eval_time_s")?,
                train_time_s: get_f64(j, "train_time_s")?,
                hw_time_s: get_f64(j, "hw_time_s")?,
            },
            op_counters: {
                let ops = j
                    .get("operators")
                    .ok_or_else(|| schema("missing field \"operators\""))?;
                let mut counters = [(0u64, 0u64); 4];
                for (op, slot) in OperatorKind::ALL.into_iter().zip(&mut counters) {
                    let entry = ops.get(op.name()).ok_or_else(|| {
                        schema(format!("operators missing entry {:?}", op.name()))
                    })?;
                    *slot = (
                        get_usize(entry, "total")? as u64,
                        get_usize(entry, "entered")? as u64,
                    );
                }
                counters
            },
            wall_time_s: get_f64(j, "wall_time_s")?,
            seeds_remaining: get_array(j, "seeds_remaining")?
                .iter()
                .map(genome_from_json)
                .collect::<Result<_, _>>()?,
            population: get_array(j, "population")?
                .iter()
                .map(pair_from_json)
                .collect::<Result<_, _>>()?,
            trace: get_array(j, "trace")?
                .iter()
                .map(pair_from_json)
                .collect::<Result<_, _>>()?,
            cache: get_array(j, "cache")?
                .iter()
                .map(|e| {
                    Ok((
                        hex_u64(e, "key")?,
                        measurement_from_json(e.get("measurement").ok_or_else(|| {
                            schema("cache entry missing measurement")
                        })?)?,
                    ))
                })
                .collect::<Result<_, _>>()?,
            pending: get_array(j, "pending")?
                .iter()
                .map(|p| {
                    Ok(PendingJob {
                        attempt: get_usize(p, "attempt")?,
                        op: OperatorKind::parse(get_str(p, "op")?).ok_or_else(|| {
                            schema(format!(
                                "pending entry has unknown operator {:?}",
                                get_str(p, "op").unwrap_or_default()
                            ))
                        })?,
                        genome: genome_from_json(p.get("genome").ok_or_else(|| {
                            schema("pending entry missing genome")
                        })?)?,
                    })
                })
                .collect::<Result<_, _>>()?,
        })
    }

    /// Writes the checkpoint atomically: serialize to `<path>.tmp`,
    /// fsync, then rename over `path`. A crash mid-write leaves the
    /// previous checkpoint intact.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, stringified.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let io = |e: std::io::Error| CheckpointError::Io(e.to_string());
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp).map_err(io)?;
            f.write_all(self.to_json().pretty().as_bytes()).map_err(io)?;
            f.write_all(b"\n").map_err(io)?;
            f.sync_all().map_err(io)?;
        }
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Loads and validates a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Parse`] if it is not JSON, or
    /// [`CheckpointError::Schema`] if it does not match the schema.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let json =
            Json::parse(&text).map_err(|e| CheckpointError::Parse(format!("{e:?}")))?;
        Self::from_json(&json)
    }

    /// Checks the checkpoint against the run configuration it is about
    /// to continue. Seed, budget, and population capacity must match —
    /// a resumed run with different hyperparameters would silently
    /// diverge from the original.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Mismatch`] naming the first
    /// disagreeing field.
    pub fn validate(&self, config: &EvolutionConfig) -> Result<(), CheckpointError> {
        let check = |name: &str, got: u64, want: u64| {
            if got == want {
                Ok(())
            } else {
                Err(CheckpointError::Mismatch(format!(
                    "{name}: checkpoint has {got}, run configured with {want}"
                )))
            }
        };
        check("seed", self.seed, config.seed)?;
        check("evaluations", self.evaluations as u64, config.evaluations as u64)?;
        check(
            "population",
            self.population_cap as u64,
            config.population as u64,
        )?;
        if self.trace.len() > self.evaluations {
            return Err(CheckpointError::Mismatch(format!(
                "trace has {} entries but the budget is {}",
                self.trace.len(),
                self.evaluations
            )));
        }
        Ok(())
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
                cols: 16,
                interleave_m: 4,
                interleave_n: 2,
                vec: 8,
                batch: 16,
            },
        }
    }

    fn measurement() -> Measurement {
        Measurement {
            accuracy: 0.9371,
            train_accuracy: 0.9644,
            params: 12345,
            neurons: 192,
            hw: HwMetrics::Fpga {
                outputs_per_s: 123456.789,
                efficiency: 0.731,
                latency_s: 3.2e-4,
                potential_gflops: 800.5,
                effective_gflops: 585.2,
                bandwidth_bound: true,
                power_w: 29.3,
                fmax_mhz: 303.0,
                dsp_util: 0.42,
            },
            eval_time_s: 0.812,
            train_time_s: 0.7,
            hw_time_s: 0.1,
        }
    }

    fn state() -> CheckpointState {
        CheckpointState {
            version: FORMAT_VERSION,
            seed: 0xdead_beef_0123_4567,
            evaluations: 100,
            population_cap: 16,
            rng_state: 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
            rng_inc: 0x1111_2222_3333_4444_5555_6666_7777_8889,
            counters: RunCounters {
                submitted_unique: 40,
                attempts: 55,
                next_id: 42,
                cache_hits: 15,
                infeasible_count: 3,
                retry_count: 2,
                timeout_count: 1,
                respawn_count: 1,
                total_eval_time_s: 31.25,
                train_time_s: 28.5,
                hw_time_s: 2.5,
            },
            op_counters: [(12, 12), (3, 2), (10, 4), (15, 7)],
            wall_time_s: 35.0,
            seeds_remaining: vec![genome()],
            population: vec![(genome(), measurement())],
            trace: vec![
                (genome(), measurement()),
                (
                    genome(),
                    Measurement::infeasible(InfeasibleReason::EvalTimeout),
                ),
                (
                    genome(),
                    Measurement::infeasible(InfeasibleReason::Transient("io".into())),
                ),
            ],
            cache: vec![(genome().cache_key(), measurement())],
            pending: vec![PendingJob {
                attempt: 1,
                genome: genome(),
                op: OperatorKind::Mutate,
            }],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let s = state();
        let json = s.to_json();
        let back = CheckpointState::from_json(&json).unwrap();
        assert_eq!(s, back);
        // And through the serializer: text -> parse -> decode.
        let reparsed = Json::parse(&json.to_string()).unwrap();
        assert_eq!(CheckpointState::from_json(&reparsed).unwrap(), s);
    }

    #[test]
    fn hex_fields_survive_beyond_f64_precision() {
        let s = state();
        let back =
            CheckpointState::from_json(&Json::parse(&s.to_json().pretty()).unwrap()).unwrap();
        // 128-bit RNG state and 64-bit FNV keys exceed f64's 2^53
        // integer range; hex strings carry them exactly.
        assert_eq!(back.rng_state, s.rng_state);
        assert_eq!(back.rng_inc, s.rng_inc);
        assert_eq!(back.cache[0].0, s.cache[0].0);
        assert_eq!(back.seed, s.seed);
    }

    #[test]
    fn save_load_round_trip_and_atomicity() {
        let dir = std::env::temp_dir().join("ecad-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        let s = state();
        s.save(&path).unwrap();
        assert_eq!(CheckpointState::load(&path).unwrap(), s);
        // The temp file never survives a successful save.
        assert!(!path.with_extension("tmp").exists());
        // Overwriting is atomic: a second save replaces the first.
        let mut s2 = s.clone();
        s2.counters.next_id = 99;
        s2.save(&path).unwrap();
        assert_eq!(CheckpointState::load(&path).unwrap().counters.next_id, 99);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn validate_rejects_mismatched_config() {
        let s = state();
        let mut cfg = EvolutionConfig::small();
        cfg.seed = s.seed;
        cfg.evaluations = s.evaluations;
        cfg.population = s.population_cap;
        assert!(s.validate(&cfg).is_ok());
        cfg.seed ^= 1;
        assert!(matches!(
            s.validate(&cfg),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn schema_errors_name_the_field() {
        let mut json = state().to_json();
        // Corrupt the version.
        json = match json {
            Json::Object(mut fields) => {
                for (k, v) in fields.iter_mut() {
                    if k == "rng_inc" {
                        *v = Json::String("2".into()); // even => invalid
                    }
                }
                Json::Object(fields)
            }
            _ => unreachable!(),
        };
        let err = CheckpointState::from_json(&json).unwrap_err();
        assert!(matches!(err, CheckpointError::Schema(_)));
        assert!(err.to_string().contains("rng_inc"));
    }

    #[test]
    fn version_guard() {
        let json = Json::object().insert("version", 999);
        let err = CheckpointState::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("version"));
    }
}
