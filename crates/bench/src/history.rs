//! Performance trajectory and the regression gate.
//!
//! `rt::bench` suites persist their measurements as `BENCH_<date>.json`
//! reports at the repo root (schema in `rt::bench`, pinned by a golden
//! test). This module is the read side: it loads and validates the
//! trailing window of reports, computes per-benchmark trends, and
//! implements the gate semantics behind `ecad bench gate`:
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
//! corrupt baseline would let regressions through unnoticed.

use std::fmt;
use std::path::{Path, PathBuf};

use rt::bench::BENCH_SCHEMA_VERSION;
use rt::json::{Cursor, DecodeError, FromJson, Json};

use crate::report::TextTable;

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
}

impl Entry {
    /// Whether this entry survives the `--suite` / `--filter`
    /// selectors.
    pub fn matches(&self, suite: Option<&str>, filter: Option<&str>) -> bool {
        suite.is_none_or(|s| self.suite == s) && filter.is_none_or(|f| self.id.contains(f))
    }

    /// The `suite/id` display key.
    pub fn key(&self) -> String {
        format!("{}/{}", self.suite, self.id)
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
    /// GEMM register tile the kernels ran (`avx2-8x8`,
    /// `portable-4x8`), when the report records one (reports written
    /// before the header carried `gemm_kernel` do not).
    pub gemm_kernel: Option<String>,
    /// Benchmarks, sorted by `(suite, id)`.
    pub entries: Vec<Entry>,
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
        entries.sort_by(|a, b| (&a.suite, &a.id).cmp(&(&b.suite, &b.id)));
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
                    })
                    .collect(),
            },
        }
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
