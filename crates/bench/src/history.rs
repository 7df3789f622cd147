//! The `BENCH_<date>.json` report, the performance trajectory, and the
//! regression gate.
//!
//! This module is the one owner of the report format. [`Report`] and
//! [`Entry`] encode it ([`ToJson`], field order pinned by a golden
//! test) and decode it strictly ([`FromJson`]); `ecad bench run` turns
//! the `rt::bench` runner's measurements into entries and merges them
//! into a report with [`Report::merge_into`]. On top of the decoder it
//! loads and validates the trailing window of reports, computes
//! per-benchmark trends, and implements the gate semantics behind
//! `ecad bench gate`:
//!
//! * `threshold_p95_ms` — an absolute ceiling on a benchmark's p95;
//! * `max_p95_regression_pct` — the latest p95 may exceed the median
//!   p95 of up to `window_size` *prior* reports by at most this
//!   percentage (exactly at the boundary passes);
//! * `required_passes` — hysteresis: the most recent `required_passes`
//!   reports must *each* pass their own checks (against their own
//!   trailing windows) for the gate to pass, so one lucky run cannot
//!   clear a persistent regression.
//!
//! Missing history is a documented **pass with warning** — a fresh
//! checkout must not fail CI — while a malformed history file is a hard
//! error with a line-numbered location, because silently skipping a
//! corrupt baseline would let regressions through unnoticed. A merge
//! refuses such a file the same way and leaves it untouched.

use std::fmt;
use std::path::{Path, PathBuf};

use rt::bench::BenchResult;
use rt::json::{Cursor, DecodeError, FromJson, Json, ToJson};
use rt::prof::ProfileNode;

use crate::report::TextTable;

/// Version stamp for the `BENCH_*.json` schema; bump on any field
/// rename or semantic change. Additive fields (`nproc`, `gemm_kernel`,
/// an entry's `profile`) need no bump: they are optional on read.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One benchmark's row in a report (the `benchmarks` array entries).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Suite the benchmark belongs to (`kernels`, `models`, ...).
    pub suite: String,
    /// Stable benchmark id within the suite (`gemm/blocked/64`).
    pub id: String,
    /// Median ns/iter.
    pub ns_p50: f64,
    /// 95th-percentile ns/iter — the gate's subject.
    pub ns_p95: f64,
    /// Fastest batch, ns/iter.
    pub ns_min: f64,
    /// Slowest batch, ns/iter.
    pub ns_max: f64,
    /// Mean ns/iter.
    pub ns_mean: f64,
    /// Median throughput, iterations per second.
    pub throughput_per_s: f64,
    /// Measured batches.
    pub samples: u64,
    /// Iterations per batch.
    pub iters_per_sample: u64,
    /// Span-attribution tree of the measurement loop, when the run was
    /// profiled (`ecad bench run --profile`).
    pub profile: Option<ProfileNode>,
}

impl Entry {
    /// The report entry for one measurement of `suite`.
    pub fn from_result(suite: &str, r: BenchResult) -> Entry {
        Entry {
            suite: suite.to_string(),
            id: r.id,
            ns_p50: r.summary.p50_ns,
            ns_p95: r.summary.p95_ns,
            ns_min: r.summary.min_ns,
            ns_max: r.summary.max_ns,
            ns_mean: r.summary.mean_ns,
            throughput_per_s: r.summary.throughput_per_s(),
            samples: r.samples as u64,
            iters_per_sample: r.iters_per_sample,
            profile: r.profile,
        }
    }

    /// Whether this entry survives the `--suite` / `--filter`
    /// selectors.
    pub fn matches(&self, suite: Option<&str>, filter: Option<&str>) -> bool {
        suite.is_none_or(|s| self.suite == s) && filter.is_none_or(|f| self.id.contains(f))
    }

    /// The `suite/id` display key.
    pub fn key(&self) -> String {
        format!("{}/{}", self.suite, self.id)
    }

    fn sort_key(&self) -> (&str, &str) {
        (&self.suite, &self.id)
    }
}

/// One validated `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// UTC date, `YYYY-MM-DD`.
    pub date: String,
    /// UTC timestamp, `YYYY-MM-DDTHH:MM:SSZ`.
    pub created_utc: String,
    /// Git revision of the measured tree.
    pub git_rev: String,
    /// Host core count, when the report records one (reports written
    /// before the header carried `nproc` do not).
    pub nproc: Option<usize>,
    /// GEMM register tile the kernels ran for outputs wider than 8
    /// (`avx512-8x16`, `avx2-8x8`, `portable-4x8`; see
    /// `ecad_tensor::gemm::kernel`), when the report records one
    /// (reports written before the header carried `gemm_kernel` do
    /// not).
    pub gemm_kernel: Option<String>,
    /// Benchmarks; decoded reports hold them sorted by `(suite, id)`,
    /// and the encoder writes them in that order.
    pub entries: Vec<Entry>,
}

impl Report {
    /// An empty report stamped for a run recorded now: the UTC time
    /// (honoring the `SOURCE_DATE_EPOCH` reproducible-builds
    /// convention), the git revision checked out at `repo` (`"unknown"`
    /// outside a checkout), the host's core count, and the GEMM tile it
    /// runs.
    pub fn stamp(repo: &Path) -> Report {
        let secs = std::env::var("SOURCE_DATE_EPOCH")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0)
            });
        Report {
            nproc: std::thread::available_parallelism().ok().map(usize::from),
            gemm_kernel: Some(ecad_tensor::gemm::kernel().to_string()),
            ..Report::at(secs, git_rev(repo))
        }
    }

    /// An empty report stamped at `unix_secs` with `git_rev`, without a
    /// core count or GEMM tile.
    pub fn at(unix_secs: u64, git_rev: impl Into<String>) -> Report {
        let (date, created_utc) = utc_date_time(unix_secs);
        Report {
            date,
            created_utc,
            git_rev: git_rev.into(),
            nproc: None,
            gemm_kernel: None,
            entries: Vec::new(),
        }
    }

    /// The canonical file name, `BENCH_<date>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.date)
    }

    /// Writes this report — one run of `suite` — to `path`, merged with
    /// the report already there: that report's entries of other suites
    /// are kept, its `suite` entries are replaced, and its header gives
    /// way to this one. So all suites can share one file per day.
    ///
    /// # Errors
    ///
    /// An existing file that does not load (as [`load_report`]) is
    /// refused with its location and left untouched; a failed write is
    /// [`HistoryError::Io`].
    pub fn merge_into(mut self, path: &Path, suite: &str) -> Result<(), HistoryError> {
        if path.exists() {
            let existing = load_report(path)?;
            let kept = existing.entries.into_iter().filter(|e| e.suite != suite);
            self.entries.extend(kept);
        }
        std::fs::write(path, self.to_json().pretty() + "\n").map_err(|e| HistoryError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }
}

/// Resolves `git rev-parse HEAD` in `dir`; `"unknown"` when git or the
/// repository is unavailable.
fn git_rev(dir: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Splits a unix timestamp into (`YYYY-MM-DD`, `YYYY-MM-DDTHH:MM:SSZ`)
/// UTC strings, via the standard days-to-civil conversion.
fn utc_date_time(unix_secs: u64) -> (String, String) {
    let days = unix_secs / 86_400;
    let rem = unix_secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // civil_from_days (Howard Hinnant), valid for the unix era.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mo <= 2 { y + 1 } else { y };
    let date = format!("{y:04}-{mo:02}-{d:02}");
    let stamp = format!("{date}T{h:02}:{m:02}:{s:02}Z");
    (date, stamp)
}

/// Error from loading or validating history files.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryError {
    /// Filesystem failure.
    Io {
        /// Offending path.
        path: String,
        /// Underlying error text.
        message: String,
    },
    /// The file is not valid JSON; `line`/`column` are 1-based.
    Parse {
        /// Offending path.
        path: String,
        /// 1-based line of the syntax error.
        line: usize,
        /// 1-based column of the syntax error.
        column: usize,
        /// Parser message.
        message: String,
    },
    /// The JSON parses but violates the report schema; `at` and
    /// `message` are the [`DecodeError`]'s.
    Schema {
        /// Offending path.
        path: String,
        /// Where in the document (`benchmarks[3]`, `gemm_kernel`, ...;
        /// empty for the top-level object).
        at: String,
        /// What is wrong.
        message: String,
    },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Io { path, message } => write!(f, "{path}: {message}"),
            HistoryError::Parse {
                path,
                line,
                column,
                message,
            } => write!(f, "{path}:{line}:{column}: {message}"),
            HistoryError::Schema { path, at, message } if at.is_empty() => {
                write!(f, "{path}: {message}")
            }
            HistoryError::Schema { path, at, message } => {
                write!(f, "{path}: {at}: {message}")
            }
        }
    }
}

impl std::error::Error for HistoryError {}

/// Whether a file name is a history report (`BENCH_*.json`).
pub fn is_bench_file(name: &str) -> bool {
    name.starts_with("BENCH_") && name.ends_with(".json")
}

/// Parses and validates one report document. `path` is only used to
/// label errors.
///
/// # Errors
///
/// [`HistoryError::Parse`] with a 1-based line/column for syntax
/// errors, [`HistoryError::Schema`] for structural violations
/// (wrong/missing fields, non-finite or misordered statistics,
/// duplicate benchmark keys, unsupported `schema_version`).
pub fn parse_report(path: &str, text: &str) -> Result<Report, HistoryError> {
    let doc = Json::parse(text).map_err(|e| HistoryError::Parse {
        path: path.to_string(),
        line: e.line,
        column: e.column,
        message: e.message,
    })?;
    Report::from_json(&doc).map_err(|e| HistoryError::Schema {
        path: path.to_string(),
        at: e.path,
        message: e.message,
    })
}

impl FromJson for Report {
    fn decode(j: Cursor<'_>) -> Result<Report, DecodeError> {
        let version: u64 = j.get("schema_version")?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(j.field("schema_version")?.error(format!(
                "unsupported version {version} (expected {BENCH_SCHEMA_VERSION})"
            )));
        }
        let (date, created_utc, git_rev) =
            (j.get("date")?, j.get("created_utc")?, j.get("git_rev")?);
        let nproc = j.opt("nproc")?;
        if nproc == Some(0) {
            return Err(j.field("nproc")?.expected("a positive integer"));
        }
        let gemm_kernel = j.opt("gemm_kernel")?;
        let benchmarks = j.field("benchmarks")?;
        let mut entries: Vec<Entry> = benchmarks.list(Entry::decode)?;
        entries.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        for pair in entries.windows(2) {
            if pair[0].suite == pair[1].suite && pair[0].id == pair[1].id {
                return Err(benchmarks.error(format!("duplicate benchmark {}", pair[0].key())));
            }
        }
        Ok(Report {
            date,
            created_utc,
            git_rev,
            nproc,
            gemm_kernel,
            entries,
        })
    }
}

impl FromJson for Entry {
    fn decode(j: Cursor<'_>) -> Result<Entry, DecodeError> {
        let ns = |key: &str| {
            let at = j.field(key)?;
            match f64::decode(at)? {
                x if x < 0.0 => Err(at.expected("a non-negative number")),
                x => Ok(x),
            }
        };
        let entry = Entry {
            suite: j.get("suite")?,
            id: j.get("id")?,
            ns_p50: ns("ns_per_iter_p50")?,
            ns_p95: ns("ns_per_iter_p95")?,
            ns_min: ns("ns_per_iter_min")?,
            ns_max: ns("ns_per_iter_max")?,
            ns_mean: ns("ns_per_iter_mean")?,
            throughput_per_s: ns("throughput_per_s")?,
            samples: j.get("samples")?,
            iters_per_sample: j.get("iters_per_sample")?,
            profile: j.opt("profile")?,
        };
        if entry.ns_p50 > entry.ns_p95 {
            return Err(j.error(format!(
                "corrupt summary: p50 {} > p95 {} for {}",
                entry.ns_p50,
                entry.ns_p95,
                entry.key()
            )));
        }
        Ok(entry)
    }
}

impl ToJson for Report {
    /// Entries are written sorted by `(suite, id)`, so the same
    /// measurements serialize to the same bytes in any execution order.
    fn to_json(&self) -> Json {
        let mut entries: Vec<&Entry> = self.entries.iter().collect();
        entries.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        let mut header = Json::object()
            .insert("schema_version", BENCH_SCHEMA_VERSION)
            .insert("date", self.date.as_str())
            .insert("created_utc", self.created_utc.as_str())
            .insert("git_rev", self.git_rev.as_str());
        if let Some(n) = self.nproc {
            header = header.insert("nproc", n);
        }
        if let Some(kernel) = &self.gemm_kernel {
            header = header.insert("gemm_kernel", kernel.as_str());
        }
        header.insert("benchmarks", entries)
    }
}

impl ToJson for Entry {
    /// Field order is part of the schema; `profile` is written only
    /// when present.
    fn to_json(&self) -> Json {
        let entry = Json::object()
            .insert("suite", self.suite.as_str())
            .insert("id", self.id.as_str())
            .insert("ns_per_iter_p50", self.ns_p50)
            .insert("ns_per_iter_p95", self.ns_p95)
            .insert("ns_per_iter_min", self.ns_min)
            .insert("ns_per_iter_max", self.ns_max)
            .insert("ns_per_iter_mean", self.ns_mean)
            .insert("throughput_per_s", self.throughput_per_s)
            .insert("samples", self.samples)
            .insert("iters_per_sample", self.iters_per_sample);
        match &self.profile {
            Some(node) => entry.insert("profile", node.to_json()),
            None => entry,
        }
    }
}

/// Loads and validates one report file.
///
/// # Errors
///
/// [`HistoryError::Io`] when unreadable, else as [`parse_report`].
pub fn load_report(path: &Path) -> Result<Report, HistoryError> {
    let label = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| HistoryError::Io {
        path: label.clone(),
        message: e.to_string(),
    })?;
    parse_report(&label, &text)
}

/// A report plus where it came from, as [`load_history`] returns them.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryFile {
    /// File name (`BENCH_2026-08-09.json`).
    pub name: String,
    /// The validated document.
    pub report: Report,
}

/// Loads every `BENCH_*.json` in `dir`, oldest first (ordered by
/// report date, then creation timestamp, then file name — so several
/// same-day reports still order deterministically).
///
/// An unreadable directory or an empty match set is **not** an error
/// (the gate documents it as pass-with-warning); any individual file
/// that fails to load is.
///
/// # Errors
///
/// As [`load_report`], for the first offending file.
pub fn load_history(dir: &Path) -> Result<Vec<HistoryFile>, HistoryError> {
    let mut names: Vec<String> = match std::fs::read_dir(dir) {
        Err(_) => Vec::new(),
        Ok(iter) => iter
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| is_bench_file(n))
            .collect(),
    };
    names.sort_unstable();
    let mut files = Vec::with_capacity(names.len());
    for name in names {
        let report = load_report(&dir.join(&name))?;
        files.push(HistoryFile { name, report });
    }
    files.sort_by(|a, b| {
        (&a.report.date, &a.report.created_utc, &a.name)
            .cmp(&(&b.report.date, &b.report.created_utc, &b.name))
    });
    Ok(files)
}

/// The directory history lives in by default: the nearest ancestor of
/// the current directory holding a `.git` or a workspace `Cargo.lock`,
/// falling back to the current directory.
pub fn default_dir() -> PathBuf {
    let start = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = start.clone();
    loop {
        if dir.join(".git").exists() || dir.join("Cargo.lock").exists() {
            return dir;
        }
        match dir.parent() {
            Some(parent) => dir = parent.to_path_buf(),
            None => return start,
        }
    }
}

// ---------------------------------------------------------------------
// Trend
// ---------------------------------------------------------------------

/// One report's measurement of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Report date.
    pub date: String,
    /// Report git revision.
    pub git_rev: String,
    /// Median ns/iter.
    pub ns_p50: f64,
    /// p95 ns/iter.
    pub ns_p95: f64,
}

/// One benchmark's trajectory across the history, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Suite name.
    pub suite: String,
    /// Benchmark id.
    pub id: String,
    /// Chronological measurements.
    pub points: Vec<TrendPoint>,
    /// Median p95 of up to `window` reports before the latest; `None`
    /// when the benchmark only appears once.
    pub baseline_p95: Option<f64>,
    /// Latest p95 vs baseline, in percent (positive = slower).
    pub delta_pct: Option<f64>,
}

/// Builds per-benchmark trend rows over the history, sorted by
/// `(suite, id)`. `window` bounds the baseline used for the delta
/// column, mirroring the gate's `window_size`.
pub fn trend(
    history: &[HistoryFile],
    suite: Option<&str>,
    filter: Option<&str>,
    window: usize,
) -> Vec<TrendRow> {
    let mut keys: Vec<(String, String)> = history
        .iter()
        .flat_map(|f| f.report.entries.iter())
        .filter(|e| e.matches(suite, filter))
        .map(|e| (e.suite.clone(), e.id.clone()))
        .collect();
    keys.sort();
    keys.dedup();

    keys.into_iter()
        .map(|(suite, id)| {
            let points: Vec<TrendPoint> = history
                .iter()
                .filter_map(|f| {
                    f.report
                        .entries
                        .iter()
                        .find(|e| e.suite == suite && e.id == id)
                        .map(|e| TrendPoint {
                            date: f.report.date.clone(),
                            git_rev: f.report.git_rev.clone(),
                            ns_p50: e.ns_p50,
                            ns_p95: e.ns_p95,
                        })
                })
                .collect();
            let prior: Vec<f64> = points
                .iter()
                .rev()
                .skip(1)
                .take(window)
                .map(|p| p.ns_p95)
                .collect();
            let baseline_p95 = rt::bench::quantile(&prior, 0.5);
            let delta_pct = baseline_p95.and_then(|b| {
                let latest = points.last()?.ns_p95;
                (b > 0.0).then(|| (latest / b - 1.0) * 100.0)
            });
            TrendRow {
                suite,
                id,
                points,
                baseline_p95,
                delta_pct,
            }
        })
        .collect()
}

/// Renders trend rows as a text table (latest run, baseline, delta).
pub fn trend_table(rows: &[TrendRow]) -> String {
    let mut table = TextTable::new(vec![
        "suite", "benchmark", "runs", "p50", "p95", "baseline", "delta",
    ]);
    for row in rows {
        let latest = row.points.last();
        table.row(vec![
            row.suite.clone(),
            row.id.clone(),
            row.points.len().to_string(),
            latest.map_or("-".into(), |p| format_ns(p.ns_p50)),
            latest.map_or("-".into(), |p| format_ns(p.ns_p95)),
            row.baseline_p95.map_or("-".into(), format_ns),
            row.delta_pct
                .map_or("-".into(), |d| format!("{d:+.1}%")),
        ]);
    }
    table.render()
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

// ---------------------------------------------------------------------
// Gate
// ---------------------------------------------------------------------

/// Gate thresholds and windowing (the AxiomMe-style command surface).
#[derive(Debug, Clone, PartialEq)]
pub struct GateConfig {
    /// Restrict to one suite.
    pub suite: Option<String>,
    /// Substring filter on benchmark ids.
    pub filter: Option<String>,
    /// Absolute ceiling on p95, in milliseconds.
    pub threshold_p95_ms: Option<f64>,
    /// Maximum allowed p95 increase vs the baseline window, percent.
    pub max_p95_regression_pct: Option<f64>,
    /// Baseline: median p95 of up to this many prior reports.
    pub window_size: usize,
    /// The most recent N reports must each pass.
    pub required_passes: usize,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            suite: None,
            filter: None,
            threshold_p95_ms: None,
            max_p95_regression_pct: None,
            window_size: 3,
            required_passes: 1,
        }
    }
}

/// One benchmark × report verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// Date of the evaluated report.
    pub run_date: String,
    /// Suite name.
    pub suite: String,
    /// Benchmark id.
    pub id: String,
    /// The report's p95 ns/iter.
    pub ns_p95: f64,
    /// Median p95 of the trailing window, when one exists.
    pub baseline_p95: Option<f64>,
    /// p95 vs baseline, percent.
    pub delta_pct: Option<f64>,
    /// Whether every applicable check passed.
    pub passed: bool,
    /// Failure explanation (empty when passed).
    pub reason: String,
}

/// The gate's full verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Per-benchmark, per-report verdicts: chronological, then by
    /// `(suite, id)`.
    pub checks: Vec<GateCheck>,
    /// Non-fatal conditions (missing history, short windows, ...).
    pub warnings: Vec<String>,
    /// How many trailing reports were evaluated.
    pub runs_evaluated: usize,
    /// The verdict.
    pub passed: bool,
}

/// Evaluates the gate over a chronological history (as returned by
/// [`load_history`]).
///
/// Empty history, or history whose entries all fall outside the
/// suite/filter selection, passes with a warning. With
/// `required_passes > 1`, the most recent `required_passes` reports
/// are each evaluated against their own trailing baselines; all must
/// pass. A benchmark's first appearance has no baseline and passes the
/// regression check with a warning.
pub fn gate(history: &[HistoryFile], config: &GateConfig) -> GateReport {
    let mut report = GateReport {
        checks: Vec::new(),
        warnings: Vec::new(),
        runs_evaluated: 0,
        passed: true,
    };
    if history.is_empty() {
        report
            .warnings
            .push("no BENCH_*.json history found: gate passes vacuously".to_string());
        return report;
    }
    let required = config.required_passes.max(1);
    if history.len() < required {
        report.warnings.push(format!(
            "history has {} report(s), required_passes is {required}: evaluating all",
            history.len()
        ));
    }
    let first_eval = history.len().saturating_sub(required);
    report.runs_evaluated = history.len() - first_eval;

    let mut any_selected = false;
    for run_idx in first_eval..history.len() {
        let file = &history[run_idx];
        for entry in &file.report.entries {
            if !entry.matches(config.suite.as_deref(), config.filter.as_deref()) {
                continue;
            }
            any_selected = true;
            let prior: Vec<f64> = history[..run_idx]
                .iter()
                .rev()
                .filter_map(|f| {
                    f.report
                        .entries
                        .iter()
                        .find(|e| e.suite == entry.suite && e.id == entry.id)
                        .map(|e| e.ns_p95)
                })
                .take(config.window_size)
                .collect();
            let baseline_p95 = rt::bench::quantile(&prior, 0.5);
            let delta_pct = baseline_p95
                .filter(|b| *b > 0.0)
                .map(|b| (entry.ns_p95 / b - 1.0) * 100.0);

            let mut reasons = Vec::new();
            if let Some(ceiling_ms) = config.threshold_p95_ms {
                if entry.ns_p95 > ceiling_ms * 1e6 {
                    reasons.push(format!(
                        "p95 {} exceeds threshold {ceiling_ms} ms",
                        format_ns(entry.ns_p95)
                    ));
                }
            }
            if let Some(max_pct) = config.max_p95_regression_pct {
                // Compared in ns-space, not on the derived percentage:
                // 110/100 - 1 is not exactly 0.10 in floating point,
                // and the boundary must pass.
                match baseline_p95.filter(|b| *b > 0.0) {
                    Some(b) if entry.ns_p95 > b * (1.0 + max_pct / 100.0) => {
                        reasons.push(format!(
                            "p95 regressed {:+.1}% vs baseline {} (limit {max_pct}%)",
                            delta_pct.expect("baseline implies delta"),
                            format_ns(b)
                        ))
                    }
                    Some(_) => {}
                    None => report.warnings.push(format!(
                        "{}: no baseline in window (first appearance in {}): \
                         regression check skipped",
                        entry.key(),
                        file.report.date
                    )),
                }
            }
            let passed = reasons.is_empty();
            report.passed &= passed;
            report.checks.push(GateCheck {
                run_date: file.report.date.clone(),
                suite: entry.suite.clone(),
                id: entry.id.clone(),
                ns_p95: entry.ns_p95,
                baseline_p95,
                delta_pct,
                passed,
                reason: reasons.join("; "),
            });
        }
    }
    if !any_selected {
        report.warnings.push(
            "no benchmarks matched the suite/filter selection: gate passes vacuously".to_string(),
        );
    }
    report
}

/// Renders a gate report as text: one row per check, then warnings and
/// the verdict.
pub fn gate_table(report: &GateReport) -> String {
    let mut table = TextTable::new(vec![
        "run", "suite", "benchmark", "p95", "baseline", "delta", "verdict",
    ]);
    for c in &report.checks {
        table.row(vec![
            c.run_date.clone(),
            c.suite.clone(),
            c.id.clone(),
            format_ns(c.ns_p95),
            c.baseline_p95.map_or("-".into(), format_ns),
            c.delta_pct.map_or("-".into(), |d| format!("{d:+.1}%")),
            if c.passed {
                "pass".into()
            } else {
                format!("FAIL: {}", c.reason)
            },
        ]);
    }
    let mut out = table.render();
    for w in &report.warnings {
        out.push_str(&format!("warning: {w}\n"));
    }
    out.push_str(&format!(
        "\nbench gate: {} ({} run(s), {} check(s))\n",
        if report.passed { "PASS" } else { "FAIL" },
        report.runs_evaluated,
        report.checks.len()
    ));
    out
}

impl GateReport {
    /// JSON form of the verdict, for `--format json`.
    pub fn to_json(&self) -> Json {
        let checks: Vec<Json> = self
            .checks
            .iter()
            .map(|c| {
                Json::object()
                    .insert("run_date", c.run_date.as_str())
                    .insert("suite", c.suite.as_str())
                    .insert("id", c.id.as_str())
                    .insert("ns_p95", c.ns_p95)
                    .insert("baseline_p95", c.baseline_p95)
                    .insert("delta_pct", c.delta_pct)
                    .insert("passed", c.passed)
                    .insert("reason", c.reason.as_str())
            })
            .collect();
        Json::object()
            .insert("passed", self.passed)
            .insert("runs_evaluated", self.runs_evaluated)
            .insert("checks", Json::Array(checks))
            .insert(
                "warnings",
                Json::Array(
                    self.warnings
                        .iter()
                        .map(|w| Json::String(w.clone()))
                        .collect(),
                ),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(date: &str, entries: &[(&str, &str, f64)]) -> HistoryFile {
        HistoryFile {
            name: format!("BENCH_{date}.json"),
            report: Report {
                date: date.to_string(),
                created_utc: format!("{date}T00:00:00Z"),
                git_rev: "test".to_string(),
                nproc: None,
                gemm_kernel: None,
                entries: entries
                    .iter()
                    .map(|(suite, id, p95)| Entry {
                        suite: suite.to_string(),
                        id: id.to_string(),
                        ns_p50: *p95 * 0.8,
                        ns_p95: *p95,
                        ns_min: *p95 * 0.5,
                        ns_max: *p95 * 1.1,
                        ns_mean: *p95 * 0.85,
                        throughput_per_s: 1e9 / (*p95 * 0.8),
                        samples: 10,
                        iters_per_sample: 100,
                        profile: None,
                    })
                    .collect(),
            },
        }
    }

    #[test]
    fn utc_date_time_matches_known_instants() {
        assert_eq!(
            utc_date_time(0),
            ("1970-01-01".to_string(), "1970-01-01T00:00:00Z".to_string())
        );
        // Leap-year boundary: 2000-02-29.
        assert_eq!(utc_date_time(951_782_400).0, "2000-02-29");
        // End of day wraps correctly.
        assert_eq!(utc_date_time(86_399).1, "1970-01-01T23:59:59Z");
        assert_eq!(utc_date_time(86_400).0, "1970-01-02");
        assert_eq!(Report::at(86_400, "r").file_name(), "BENCH_1970-01-02.json");
    }

    #[test]
    fn trend_tracks_series_and_delta() {
        let history = vec![
            report("2026-01-01", &[("kernels", "gemm/64", 100.0)]),
            report("2026-01-02", &[("kernels", "gemm/64", 110.0)]),
            report("2026-01-03", &[("kernels", "gemm/64", 121.0)]),
        ];
        let rows = trend(&history, None, None, 3);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].points.len(), 3);
        // Baseline = median of {100, 110} = 100 (nearest-rank p50 of a
        // 2-sample set is the lower one); latest 121 → +21%.
        assert_eq!(rows[0].baseline_p95, Some(100.0));
        let delta = rows[0].delta_pct.unwrap();
        assert!((delta - 21.0).abs() < 1e-9, "delta {delta}");
        // Filters narrow the key set.
        assert!(trend(&history, Some("models"), None, 3).is_empty());
        assert!(trend(&history, None, Some("nothing"), 3).is_empty());
    }

    #[test]
    fn gate_empty_history_passes_with_warning() {
        let verdict = gate(&[], &GateConfig::default());
        assert!(verdict.passed);
        assert_eq!(verdict.runs_evaluated, 0);
        assert!(verdict.warnings[0].contains("passes vacuously"));
    }

    #[test]
    fn gate_regression_boundary_is_inclusive() {
        let config = GateConfig {
            max_p95_regression_pct: Some(10.0),
            window_size: 1,
            ..GateConfig::default()
        };
        // Exactly +10% passes…
        let at = vec![
            report("2026-01-01", &[("kernels", "gemm", 100.0)]),
            report("2026-01-02", &[("kernels", "gemm", 110.0)]),
        ];
        assert!(gate(&at, &config).passed);
        // …just above fails.
        let over = vec![
            report("2026-01-01", &[("kernels", "gemm", 100.0)]),
            report("2026-01-02", &[("kernels", "gemm", 110.2)]),
        ];
        let verdict = gate(&over, &config);
        assert!(!verdict.passed);
        assert!(verdict.checks.iter().any(|c| c.reason.contains("regressed")));
    }

    #[test]
    fn gate_threshold_ceiling() {
        let config = GateConfig {
            threshold_p95_ms: Some(1.0),
            ..GateConfig::default()
        };
        let ok = vec![report("2026-01-01", &[("kernels", "gemm", 0.9e6)])];
        assert!(gate(&ok, &config).passed);
        let slow = vec![report("2026-01-01", &[("kernels", "gemm", 1.1e6)])];
        let verdict = gate(&slow, &config);
        assert!(!verdict.passed);
        assert!(verdict.checks[0].reason.contains("threshold"));
    }

    #[test]
    fn gate_first_appearance_passes_with_warning() {
        let config = GateConfig {
            max_p95_regression_pct: Some(5.0),
            ..GateConfig::default()
        };
        let history = vec![report("2026-01-01", &[("kernels", "gemm", 100.0)])];
        let verdict = gate(&history, &config);
        assert!(verdict.passed);
        assert!(verdict
            .warnings
            .iter()
            .any(|w| w.contains("no baseline")));
    }

    #[test]
    fn gate_required_passes_hysteresis() {
        let config = GateConfig {
            max_p95_regression_pct: Some(10.0),
            window_size: 1,
            required_passes: 2,
            ..GateConfig::default()
        };
        // A regression followed by a recovery still fails: the
        // regressed run is inside the required window.
        let regress_then_recover = vec![
            report("2026-01-01", &[("kernels", "gemm", 100.0)]),
            report("2026-01-02", &[("kernels", "gemm", 150.0)]),
            report("2026-01-03", &[("kernels", "gemm", 100.0)]),
        ];
        let verdict = gate(&regress_then_recover, &config);
        assert!(!verdict.passed, "one bad run inside the window must fail");
        assert_eq!(verdict.runs_evaluated, 2);
        // Two clean runs after the regression pass.
        let recovered = vec![
            report("2026-01-01", &[("kernels", "gemm", 150.0)]),
            report("2026-01-02", &[("kernels", "gemm", 100.0)]),
            report("2026-01-03", &[("kernels", "gemm", 100.0)]),
        ];
        assert!(gate(&recovered, &config).passed);
        // required_passes longer than history evaluates what exists
        // and warns.
        let short = vec![report("2026-01-01", &[("kernels", "gemm", 100.0)])];
        let verdict = gate(&short, &config);
        assert!(verdict.passed);
        assert!(verdict.warnings.iter().any(|w| w.contains("required_passes")));
    }

    #[test]
    fn gate_window_median_absorbs_single_spike() {
        // Window of 3 with one outlier in the baseline: the median
        // ignores it.
        let config = GateConfig {
            max_p95_regression_pct: Some(10.0),
            window_size: 3,
            ..GateConfig::default()
        };
        let history = vec![
            report("2026-01-01", &[("kernels", "gemm", 100.0)]),
            report("2026-01-02", &[("kernels", "gemm", 500.0)]),
            report("2026-01-03", &[("kernels", "gemm", 102.0)]),
            report("2026-01-04", &[("kernels", "gemm", 105.0)]),
        ];
        let verdict = gate(&history, &config);
        assert!(verdict.passed, "{}", gate_table(&verdict));
        // Baseline is the median of {100, 500, 102} = 102.
        assert_eq!(verdict.checks[0].baseline_p95, Some(102.0));
    }

    #[test]
    fn gate_unmatched_selection_warns() {
        let history = vec![report("2026-01-01", &[("kernels", "gemm", 1.0)])];
        let config = GateConfig {
            suite: Some("models".to_string()),
            ..GateConfig::default()
        };
        let verdict = gate(&history, &config);
        assert!(verdict.passed);
        assert!(verdict.warnings[0].contains("no benchmarks matched"));
    }
}
