//! Search checkpoint/resume: an append-only journal of the master's
//! inputs, resumed by replaying it through the engine's own code.
//!
//! A long co-design run is only as durable as its last checkpoint — the
//! paper's searches evaluate thousands of models over hours, and the
//! predecessor system (arXiv:1903.02130) distributes work precisely so
//! failures do not lose the search. The file is a header line (version,
//! seed, budget, population), then one [`JournalLine`] per event the
//! master acted on: a final verdict, a transient verdict sent back for
//! another attempt, or a folded island migrant. Each records the
//! master's position in the breed stream and the wall clock, the one
//! value replay cannot recompute. [`Engine::resume`](crate::engine::Engine::resume)
//! rebuilds everything else — population, cache, RNG, counters,
//! analytics, meters — by replaying the lines through the live loop's
//! code (DESIGN.md §12). The engine writes the header atomically, then
//! only appends; a crash mid-append leaves a torn last line, which
//! [`CheckpointState::parse`] drops, and that one event is redone.

use std::ffi::OsString;
use std::io::Write;
use std::path::{Path, PathBuf};

use rt::json::{Cursor, DecodeError, FromJson, Json, ToJson};

use crate::cluster::Migrant;
use crate::engine::EvolutionConfig;
use crate::genome::CandidateGenome;
use crate::measurement::{InfeasibleReason, Measurement};

/// Schema version stamped into every checkpoint header; bump on any
/// incompatible layout change. Version 3 replaced the whole-state
/// snapshot of version 2 with the journal.
pub const FORMAT_VERSION: u64 = 3;

/// When and where the engine writes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// The journal file.
    pub path: PathBuf,
    /// Write the buffered journal lines after every `every` unique
    /// evaluations (and always on a halt or shutdown request, and at
    /// the end of the run).
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
/// in place and `/status` publishes it.
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

/// How one evaluation attempt ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The worker answered with this measurement.
    Measured(Measurement),
    /// The attempt's deadline passed first.
    Deadline {
        /// Seconds from dispatch to the deadline.
        after_s: f64,
        /// Whether the slot wedged in the attempt was relaunched.
        respawned: bool,
    },
}

impl Outcome {
    /// The measurement a final verdict admits: the worker's, or for a
    /// deadline an infeasible `EvalTimeout` charged with the wait.
    pub fn into_measurement(self) -> Measurement {
        match self {
            Outcome::Measured(m) => m,
            Outcome::Deadline { after_s, .. } => Measurement {
                eval_time_s: after_s,
                ..Measurement::infeasible(InfeasibleReason::EvalTimeout)
            },
        }
    }
}

/// What one journal line records.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A verdict on a unique submission: final (`last`) and in the
    /// trace, or transient and sent back for another attempt.
    Verdict {
        /// The submission's 0-based index in submission order.
        index: usize,
        /// The candidate.
        genome: CandidateGenome,
        /// How the attempt ended.
        outcome: Outcome,
        /// Whether the verdict is final.
        last: bool,
    },
    /// An island migrant folded into the population.
    Migrant(Migrant),
}

/// One journal line after the header: an event the master acted on.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalLine {
    /// The master's `attempts` counter when it acted: its position in
    /// the breed stream, which replay breeds up to.
    pub attempts: usize,
    /// Wall-clock seconds the run had used when it acted.
    pub wall_s: f64,
    /// The event.
    pub event: JournalEvent,
}

impl ToJson for JournalLine {
    fn to_json(&self) -> Json {
        let line = |kind: &str| {
            Json::object()
                .insert("kind", kind)
                .insert("attempts", self.attempts)
                .insert("wall_s", self.wall_s)
        };
        match &self.event {
            JournalEvent::Verdict {
                index,
                genome,
                outcome,
                last,
            } => {
                let line = line(if *last { "final" } else { "retry" })
                    .insert("index", *index)
                    .insert("genome", genome);
                match outcome {
                    Outcome::Measured(m) => line.insert("measurement", m),
                    Outcome::Deadline { after_s, respawned } => line.insert(
                        "deadline",
                        Json::object()
                            .insert("after_s", *after_s)
                            .insert("respawned", *respawned),
                    ),
                }
            }
            JournalEvent::Migrant(m) => line("migrant")
                .insert("slot", m.slot)
                .insert("genome", &m.genome)
                .insert("measurement", &m.measurement),
        }
    }
}

impl FromJson for JournalLine {
    fn decode(j: Cursor<'_>) -> Result<Self, DecodeError> {
        let (attempts, wall_s) = (j.get("attempts")?, j.get("wall_s")?);
        let kind = j.field("kind")?;
        let event = match kind.str()? {
            "migrant" => JournalEvent::Migrant(Migrant {
                slot: j.get("slot")?,
                genome: j.get("genome")?,
                measurement: j.get("measurement")?,
            }),
            name @ ("final" | "retry") => JournalEvent::Verdict {
                index: j.get("index")?,
                genome: j.get("genome")?,
                outcome: match j.opt("measurement")? {
                    Some(m) => Outcome::Measured(m),
                    None => {
                        let d = j.field("deadline")?;
                        Outcome::Deadline {
                            after_s: d.get("after_s")?,
                            respawned: d.get("respawned")?,
                        }
                    }
                },
                last: name == "final",
            },
            other => return Err(kind.error(format!("unknown journal line kind {other:?}"))),
        };
        Ok(Self {
            attempts,
            wall_s,
            event,
        })
    }
}

/// A checkpoint journal: the header's fields and the lines after it.
/// The header's version is always [`FORMAT_VERSION`]: `parse` refuses
/// any other.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Search seed, echoed for validation at resume time.
    pub seed: u64,
    /// Unique-evaluation budget, echoed for validation.
    pub evaluations: usize,
    /// Population capacity, echoed for validation.
    pub population_cap: usize,
    /// The lines after the header, in the order the master acted.
    pub journal: Vec<JournalLine>,
    /// The final verdicts in admission order: the run's trace, derived
    /// from the journal by [`CheckpointState::push`] and not written.
    pub trace: Vec<(CandidateGenome, Measurement)>,
    /// The 1-based line number of a torn last line that
    /// [`CheckpointState::parse`] dropped: an append a crash cut short.
    pub torn_line: Option<usize>,
}

/// Why a checkpoint could not be read or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// File-system failure, stringified.
    Io(String),
    /// A line is not valid JSON: `line:column: message`.
    Parse(String),
    /// Line `.0` (1-based) does not match the journal schema.
    Schema(usize, DecodeError),
    /// The checkpoint disagrees with the run configuration.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            CheckpointError::Schema(line, e) => {
                write!(f, "checkpoint schema error at line {line}: {e}")
            }
            CheckpointError::Mismatch(e) => write!(f, "checkpoint/config mismatch: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl CheckpointState {
    /// The empty journal of a run with `config`: a header and no lines.
    pub fn new(config: &EvolutionConfig) -> Self {
        Self {
            seed: config.seed,
            evaluations: config.evaluations,
            population_cap: config.population,
            journal: Vec::new(),
            trace: Vec::new(),
            torn_line: None,
        }
    }

    /// Appends a line; a final verdict also joins [`CheckpointState::trace`].
    pub fn push(&mut self, line: JournalLine) {
        if let JournalEvent::Verdict {
            genome,
            outcome,
            last: true,
            ..
        } = &line.event
        {
            let m = outcome.clone().into_measurement();
            self.trace.push((genome.clone(), m));
        }
        self.journal.push(line);
    }

    /// The file's text: the header, then one compact JSON object per
    /// line, each ending in a newline.
    pub fn to_text(&self) -> String {
        let header = Json::object()
            .insert("version", FORMAT_VERSION)
            .insert("seed", format!("{:016x}", self.seed))
            .insert("evaluations", self.evaluations)
            .insert("population_cap", self.population_cap);
        let mut text = format!("{header}\n");
        for line in &self.journal {
            push_line(&mut text, line);
        }
        text
    }

    /// Reads a journal. A last line without its newline, or that is not
    /// JSON, is torn — an append a crash cut short — and is dropped and
    /// recorded in [`CheckpointState::torn_line`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Parse`] (`line:column`) for any other line
    /// that is not JSON, [`CheckpointError::Schema`] for one off schema.
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
        let torn = lines.len() > 1
            && lines
                .last()
                .is_some_and(|last| !last.ends_with('\n') || Json::parse(last).is_err());
        let torn_line = torn.then(|| {
            lines.pop();
            lines.len() + 1
        });
        // A version-2 checkpoint is one pretty-printed document: read it
        // whole, so the version check names what it is.
        let header = parse_line(1, lines.first().unwrap_or(&""))
            .or_else(|e| Json::parse(text).map_err(|_| e))?;
        let mut state = Self::decode_header(Cursor::root(&header))
            .map_err(|e| CheckpointError::Schema(1, e))?;
        state.torn_line = torn_line;
        for (i, text) in lines.iter().enumerate().skip(1) {
            let line = JournalLine::from_json(&parse_line(i + 1, text)?)
                .map_err(|e| CheckpointError::Schema(i + 1, e))?;
            state.push(line);
        }
        Ok(state)
    }

    fn decode_header(j: Cursor<'_>) -> Result<Self, DecodeError> {
        let version: u64 = j.get("version")?;
        if version != FORMAT_VERSION {
            return Err(j.field("version")?.error(format!(
                "unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
            )));
        }
        Ok(Self {
            seed: j.hex("seed")?,
            evaluations: j.get("evaluations")?,
            population_cap: j.get("population_cap")?,
            journal: Vec::new(),
            trace: Vec::new(),
            torn_line: None,
        })
    }

    /// Writes the journal atomically: the whole text to `<path>.tmp`
    /// (the file name with `.tmp` appended), fsync, rename over `path`,
    /// fsync the directory. A crash mid-write leaves the previous file
    /// intact.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, stringified.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        write_atomic(path, &self.to_text())
    }

    /// Loads a journal file; see [`CheckpointState::parse`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the file cannot be read, else
    /// what [`CheckpointState::parse`] returns.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::parse(&std::fs::read_to_string(path).map_err(io)?)
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

fn io(e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(e.to_string())
}

fn push_line(text: &mut String, line: &JournalLine) {
    use std::fmt::Write as _;
    let _ = writeln!(text, "{}", line.to_json());
}

/// Parses line `n` of a journal, locating a failure at `n:column`.
fn parse_line(n: usize, text: &str) -> Result<Json, CheckpointError> {
    Json::parse(text)
        .map_err(|e| CheckpointError::Parse(format!("{n}:{}: {}", e.column, e.message)))
}

fn append(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
    f.write_all(bytes)?;
    f.sync_data()
}

fn write_atomic(path: &Path, text: &str) -> Result<(), CheckpointError> {
    let mut tmp = OsString::from(path.as_os_str());
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(text.as_bytes()).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    std::fs::rename(&tmp, path).map_err(io)?;
    // The rename is durable once the directory entry is.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))
        .and_then(|d| d.sync_all())
        .map_err(io)
}

/// The journal file as a run writes it. `text` holds the header and
/// every line so far; the file holds its first `durable` bytes, or is in
/// an unknown state (`None`) before the first write and after a failed
/// one, when the next flush rewrites it whole and atomically rather than
/// append after a torn line.
pub(crate) struct JournalFile {
    pub(crate) path: PathBuf,
    text: String,
    durable: Option<usize>,
}

impl JournalFile {
    pub(crate) fn new(path: &Path, state: &CheckpointState) -> Self {
        Self {
            path: path.to_path_buf(),
            text: state.to_text(),
            durable: None,
        }
    }

    pub(crate) fn push(&mut self, line: &JournalLine) {
        push_line(&mut self.text, line);
    }

    /// Writes what is buffered: one append plus fsync, or the whole file
    /// atomically while its state is unknown. Returns whether anything
    /// was written.
    pub(crate) fn flush(&mut self) -> Result<bool, CheckpointError> {
        let written = match self.durable {
            Some(n) if n == self.text.len() => return Ok(false),
            Some(n) => append(&self.path, &self.text.as_bytes()[n..]).map_err(io),
            None => write_atomic(&self.path, &self.text),
        };
        self.durable = written.is_ok().then_some(self.text.len());
        written.map(|()| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{HwGenome, LayerGene, NnaGenome};
    use crate::measurement::HwMetrics;
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

    fn verdict(attempts: usize, index: usize, outcome: Outcome, last: bool) -> JournalLine {
        JournalLine {
            attempts,
            wall_s: 0.25 * attempts as f64,
            event: JournalEvent::Verdict {
                index,
                genome: genome(),
                outcome,
                last,
            },
        }
    }

    /// A journal with every line kind: a final verdict, a transient one
    /// (the worker's answer, then a deadline), a migrant, and a final
    /// deadline.
    fn state() -> CheckpointState {
        let mut cfg = EvolutionConfig::small();
        cfg.seed = 0xdead_beef_0123_4567;
        cfg.evaluations = 100;
        let mut s = CheckpointState::new(&cfg);
        let transient = Measurement::infeasible(InfeasibleReason::Transient("io".into()));
        let deadline = |respawned| Outcome::Deadline {
            after_s: 0.05,
            respawned,
        };
        s.push(verdict(1, 0, Outcome::Measured(measurement()), true));
        s.push(verdict(2, 1, Outcome::Measured(transient), false));
        s.push(verdict(2, 1, deadline(true), false));
        s.push(JournalLine {
            attempts: 2,
            wall_s: 0.6,
            event: JournalEvent::Migrant(Migrant {
                slot: 1,
                genome: genome(),
                measurement: measurement(),
            }),
        });
        s.push(verdict(3, 1, deadline(false), true));
        s
    }

    #[test]
    fn text_round_trip_is_exact_and_derives_the_trace() {
        let s = state();
        let text = s.to_text();
        assert_eq!(text.lines().count(), 6);
        assert_eq!(CheckpointState::parse(&text).unwrap(), s);
        // The trace holds the final verdicts only; a deadline is
        // charged as an infeasible timeout.
        assert_eq!(s.trace.len(), 2);
        assert_eq!(s.trace[0], (genome(), measurement()));
        let timed_out = &s.trace[1].1;
        assert_eq!(
            timed_out.infeasible_reason(),
            Some(&InfeasibleReason::EvalTimeout)
        );
        assert_eq!(timed_out.eval_time_s, 0.05);
        // The seed is hex: 64 bits exceed f64's 2^53 integer range.
        assert!(text.starts_with("{\"version\":3,\"seed\":\"deadbeef01234567\","));
    }

    #[test]
    fn save_load_round_trip_and_atomicity() {
        let dir = std::env::temp_dir().join(format!("ecad-checkpoint-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        let s = state();
        s.save(&path).unwrap();
        assert_eq!(CheckpointState::load(&path).unwrap(), s);
        // The temp file never survives a successful save.
        assert!(!dir.join("cp.json.tmp").exists());
        // Overwriting is atomic: a second save replaces the first.
        let mut s2 = s.clone();
        s2.journal.truncate(1);
        s2.save(&path).unwrap();
        assert_eq!(CheckpointState::load(&path).unwrap().journal.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The temp file is `<file name>.tmp`: an unrelated `a.tmp` next to
    /// `a.json` survives, and a checkpoint named `a.tmp` is replaced,
    /// not truncated in place.
    #[test]
    fn save_temp_file_is_private_to_its_target() {
        let dir = std::env::temp_dir().join(format!("ecad-checkpoint-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bystander = dir.join("a.tmp");
        std::fs::write(&bystander, "unrelated").unwrap();
        state().save(&dir.join("a.json")).unwrap();
        assert_eq!(std::fs::read_to_string(&bystander).unwrap(), "unrelated");
        state().save(&bystander).unwrap();
        assert_eq!(CheckpointState::load(&bystander).unwrap(), state());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_file_appends_and_rewrites_after_a_failure() {
        let dir =
            std::env::temp_dir().join(format!("ecad-checkpoint-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.json");
        let s = state();
        let mut header = s.clone();
        header.journal.clear();
        header.trace.clear();
        let mut file = JournalFile::new(&path, &header);
        assert_eq!(file.flush(), Ok(true));
        assert_eq!(file.flush(), Ok(false), "nothing new to write");
        file.push(&s.journal[0]);
        assert_eq!(file.flush(), Ok(true));
        // An append onto a vanished file fails; the next flush rewrites
        // the whole journal instead of appending after a torn line.
        std::fs::remove_file(&path).unwrap();
        file.push(&s.journal[1]);
        assert!(file.flush().is_err());
        std::fs::write(&path, "torn").unwrap();
        for line in &s.journal[2..] {
            file.push(line);
        }
        assert_eq!(file.flush(), Ok(true));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), s.to_text());
        std::fs::remove_dir_all(&dir).unwrap();
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

    /// A torn last line — no newline, or not JSON — is dropped and
    /// recorded; a bad line anywhere else is an error at its line.
    #[test]
    fn torn_last_line_is_dropped_and_a_bad_middle_line_is_located() {
        let s = state();
        let text = s.to_text();
        let cut = text.len() - 40;
        let torn = CheckpointState::parse(&text[..cut]).unwrap();
        assert_eq!(torn.torn_line, Some(6));
        assert_eq!(torn.journal, s.journal[..4]);
        let garbled = CheckpointState::parse(&format!("{}\u{0}\u{0}\n", &text[..cut])).unwrap();
        assert_eq!(garbled.torn_line, Some(6));
        // Without its newline, even a complete last line is torn.
        let unterminated = CheckpointState::parse(text.trim_end()).unwrap();
        assert_eq!(unterminated.journal.len(), 4);

        let mut lines: Vec<&str> = text.lines().collect();
        lines[2] = "{\"kind\":\"retry\",\"attempts\":2,oops}";
        let err = CheckpointState::parse(&(lines.join("\n") + "\n")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint is not valid JSON: 3:30: expected '\"'"
        );
        lines[2] = "{\"kind\":\"retry\",\"attempts\":2}";
        let err = CheckpointState::parse(&(lines.join("\n") + "\n")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint schema error at line 3: missing field \"wall_s\""
        );
    }

    #[test]
    fn schema_errors_name_the_line_and_field() {
        let text = state().to_text();
        let edited = text.replacen("\"rows\":8,", "\"rows\":4294967297,", 2);
        let err = CheckpointState::parse(&edited).unwrap_err();
        assert!(
            err.to_string()
                .contains("line 2: genome.hw.rows: expected an integer"),
            "{err}"
        );
        let from = format!("\"accuracy\":{}", measurement().accuracy as f64);
        let err =
            CheckpointState::parse(&text.replacen(&from, "\"accuracy\":1e300", 1)).unwrap_err();
        assert!(
            err.to_string().contains("line 2: measurement.accuracy"),
            "{err}"
        );
        let err = CheckpointState::parse(&text.replacen("\"final\"", "\"done\"", 1)).unwrap_err();
        assert!(
            err.to_string()
                .contains("line 2: kind: unknown journal line kind"),
            "{err}"
        );
    }

    #[test]
    fn mistyped_optional_reason_text_is_rejected_at_its_path() {
        let text = state().to_text();
        let err =
            CheckpointState::parse(&text.replacen("\"text\":\"io\"", "\"text\":5", 1)).unwrap_err();
        assert!(
            err.to_string()
                .contains("line 3: measurement.hw.reason.text"),
            "{err}"
        );
        // Absent, it still reads as empty.
        let back = CheckpointState::parse(&text.replacen(",\"text\":\"io\"", "", 1)).unwrap();
        let JournalEvent::Verdict {
            outcome: Outcome::Measured(m),
            ..
        } = &back.journal[1].event
        else {
            panic!("line 3 is a measured verdict: {:?}", back.journal[1]);
        };
        assert_eq!(
            m.infeasible_reason(),
            Some(&InfeasibleReason::Transient(String::new()))
        );
    }

    #[test]
    fn version_guard() {
        let err = CheckpointState::parse("{\n  \"version\": 2\n}\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint schema error at line 1: version: unsupported checkpoint version 2 \
             (expected 3)"
        );
        let err = CheckpointState::parse("").unwrap_err();
        assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
    }
}
