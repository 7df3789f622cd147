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

use rt::json::{Cursor, DecodeError, Json, ToJson};

use crate::analytics::OperatorKind;
use crate::engine::EvolutionConfig;
use crate::genome::{pair_from_json, pair_to_json, CandidateGenome};
use crate::measurement::Measurement;

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
    /// The file is not valid JSON: `line:column: message`.
    Parse(String),
    /// The JSON does not match the checkpoint schema.
    Schema(DecodeError),
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
            .insert("seeds_remaining", &self.seeds_remaining)
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
                            .insert("measurement", m)
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
                            .insert("genome", &p.genome)
                    })
                    .collect::<Vec<_>>(),
            )
    }
}

impl CheckpointState {
    /// Rebuilds a state from parsed checkpoint JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Schema`] when a field is missing,
    /// mistyped or out of range, or the format version is unsupported.
    pub fn from_json(j: &Json) -> Result<Self, CheckpointError> {
        Self::decode(Cursor::root(j)).map_err(CheckpointError::Schema)
    }

    fn decode(j: Cursor<'_>) -> Result<Self, DecodeError> {
        let version = j.get("version")?;
        if version != FORMAT_VERSION {
            return Err(j.field("version")?.error(format!(
                "unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
            )));
        }
        let rng_inc: u128 = j.hex("rng_inc")?;
        if rng_inc & 1 == 0 {
            return Err(j
                .field("rng_inc")?
                .error("must be odd (corrupted checkpoint?)"));
        }
        let ops = j.field("operators")?;
        let mut op_counters = [(0, 0); 4];
        for (op, slot) in OperatorKind::ALL.into_iter().zip(&mut op_counters) {
            let entry = ops.field(op.name())?;
            *slot = (entry.get("total")?, entry.get("entered")?);
        }
        Ok(Self {
            version,
            seed: j.hex("seed")?,
            evaluations: j.get("evaluations")?,
            population_cap: j.get("population_cap")?,
            rng_state: j.hex("rng_state")?,
            rng_inc,
            counters: RunCounters {
                submitted_unique: j.get("submitted_unique")?,
                attempts: j.get("attempts")?,
                next_id: j.get("next_id")?,
                cache_hits: j.get("cache_hits")?,
                infeasible_count: j.get("infeasible_count")?,
                retry_count: j.get("retry_count")?,
                timeout_count: j.get("timeout_count")?,
                respawn_count: j.get("respawn_count")?,
                total_eval_time_s: j.get("total_eval_time_s")?,
                train_time_s: j.get("train_time_s")?,
                hw_time_s: j.get("hw_time_s")?,
            },
            op_counters,
            wall_time_s: j.get("wall_time_s")?,
            seeds_remaining: j.get("seeds_remaining")?,
            population: j.field("population")?.list(pair_from_json)?,
            trace: j.field("trace")?.list(pair_from_json)?,
            cache: j
                .field("cache")?
                .list(|e| Ok((e.hex("key")?, e.get("measurement")?)))?,
            pending: j.field("pending")?.list(|p| {
                let op = p.field("op")?;
                let name = op.str()?;
                Ok(PendingJob {
                    attempt: p.get("attempt")?,
                    op: OperatorKind::parse(name)
                        .ok_or_else(|| op.error(format!("unknown operator {name:?}")))?,
                    genome: p.get("genome")?,
                })
            })?,
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
        let json = Json::parse(&text).map_err(|e| CheckpointError::Parse(e.to_string()))?;
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
    use crate::genome::{HwGenome, LayerGene, NnaGenome};
    use crate::measurement::{HwMetrics, InfeasibleReason};
    use ecad_mlp::Activation;

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

    /// Decodes `state()` with the first `from` in its compact text
    /// replaced by `to`.
    fn decode_edited(
        state: &CheckpointState,
        from: &str,
        to: &str,
    ) -> Result<CheckpointState, CheckpointError> {
        let text = state.to_json().to_string();
        assert!(text.contains(from), "{from} not in {text}");
        CheckpointState::from_json(&Json::parse(&text.replacen(from, to, 1)).unwrap())
    }

    #[test]
    fn out_of_range_genome_gene_is_rejected_at_its_path() {
        let mut s = state();
        s.seeds_remaining.clear();
        let err = decode_edited(&s, "\"rows\":8,", "\"rows\":4294967297,").unwrap_err();
        assert!(
            err.to_string()
                .contains("population[0].genome.hw.rows: expected an integer"),
            "{err}"
        );
    }

    #[test]
    fn accuracy_beyond_f32_range_is_rejected_at_its_path() {
        let from = format!("\"accuracy\":{}", measurement().accuracy as f64);
        let err = decode_edited(&state(), &from, "\"accuracy\":1e300").unwrap_err();
        assert!(
            err.to_string()
                .contains("population[0].measurement.accuracy"),
            "{err}"
        );
    }

    #[test]
    fn mistyped_optional_reason_text_is_rejected_at_its_path() {
        let err = decode_edited(&state(), "\"text\":\"io\"", "\"text\":5").unwrap_err();
        assert!(
            err.to_string()
                .contains("trace[2].measurement.hw.reason.text"),
            "{err}"
        );
        // Absent, it still reads as empty.
        let back = decode_edited(&state(), ",\"text\":\"io\"", "").unwrap();
        assert_eq!(
            back.trace[2].1.infeasible_reason(),
            Some(&InfeasibleReason::Transient(String::new()))
        );
    }

    #[test]
    fn version_guard() {
        let json = Json::object().insert("version", 999);
        let err = CheckpointState::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("version"));
    }
}
