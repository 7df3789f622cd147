//! `ecad bench` — run the benchmark suites and interrogate the
//! `BENCH_*.json` performance history (run / list / trend / gate).

use std::path::{Path, PathBuf};

use ecad_bench::history::{self, Entry, GateConfig, Report};
use ecad_bench::suites;
use rt::bench::Criterion;
use rt::json::Json;

use crate::args::{ArgError, Parsed};
use crate::commands::CliError;

/// Dispatches `ecad bench <action> [flags]`. `argv` is everything
/// after the `bench` token, so the action lands in the command
/// position of the ordinary parser.
///
/// # Errors
///
/// [`CliError`] on bad arguments or I/O; [`CliError::Gate`] when the
/// regression gate fails, so the binary exits non-zero.
pub fn cmd_bench<I: IntoIterator<Item = String>>(argv: I) -> Result<String, CliError> {
    let parsed = Parsed::parse(argv).map_err(|e| match e {
        ArgError::MissingCommand => {
            ArgError::UnknownCommand("bench (needs an action: run, list, trend, gate)".to_string())
        }
        other => other,
    })?;
    match parsed.command.as_str() {
        "run" => bench_run(&parsed),
        "list" => bench_list(&parsed),
        "trend" => bench_trend(&parsed),
        "gate" => bench_gate(&parsed),
        other => Err(ArgError::UnknownCommand(format!("bench {other}")).into()),
    }
}

/// Where the history lives / the report goes: `--dir` when given, else
/// the enclosing repository root.
fn history_dir(p: &Parsed) -> PathBuf {
    p.get("dir")
        .map(PathBuf::from)
        .unwrap_or_else(history::default_dir)
}

fn non_negative_flag(p: &Parsed, flag: &str) -> Result<Option<f64>, CliError> {
    match p.get(flag) {
        None => Ok(None),
        Some(text) => text
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .map(Some)
            .ok_or_else(|| {
                CliError::Args(ArgError::BadValue {
                    flag: format!("--{flag}"),
                    value: text.to_string(),
                })
            }),
    }
}

/// `text` (default) or `json`.
fn format_of(p: &Parsed) -> Result<&str, CliError> {
    match p.get("format").unwrap_or("text") {
        f @ ("text" | "json") => Ok(f),
        other => Err(CliError::Args(ArgError::BadValue {
            flag: "--format".to_string(),
            value: other.to_string(),
        })),
    }
}

fn load(p: &Parsed) -> Result<Vec<history::HistoryFile>, CliError> {
    history::load_history(&history_dir(p)).map_err(|e| CliError::Domain(e.to_string()))
}

/// `ecad bench run --suite NAME|all`: executes the suite in-process
/// and merges the measurements into `BENCH_<date>.json` (or `--out`).
/// An existing report that does not load is refused, not overwritten.
fn bench_run(p: &Parsed) -> Result<String, CliError> {
    p.check_allowed(&[
        "suite",
        "filter",
        "quick",
        "profile",
        "iters",
        "sample-size",
        "out",
        "dir",
    ])?;
    let suite = p.require("suite")?;
    let selected: Vec<&str> = if suite == "all" {
        suites::names()
    } else {
        vec![suite]
    };

    let dir = history_dir(p);
    let out = match p.get("out") {
        Some(path) => PathBuf::from(path),
        None => dir.join(Report::stamp(&dir).file_name()),
    };
    // The report records the revision of the tree it lands in.
    let repo = out
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));

    let mut text = String::new();
    for name in selected {
        let mut c = Criterion::default();
        if p.is_set("quick") {
            c.quick();
        }
        if p.is_set("profile") {
            c.profile();
        }
        if p.get("iters").is_some() {
            c.iters(p.get_parse("iters", 1u64)?);
        }
        if p.get("sample-size").is_some() {
            c.sample_size(p.get_parse("sample-size", 10usize)?);
        }
        if let Some(f) = p.get("filter") {
            c.filter(f);
        }
        suites::run_suite(name, &mut c).map_err(CliError::Domain)?;
        let results = c.take_results();
        for r in &results {
            text.push_str(&format!(
                "{name}/{}: p50 {:.1} ns/iter, p95 {:.1} ns/iter ({} samples x {} iters)\n",
                r.id, r.summary.p50_ns, r.summary.p95_ns, r.samples, r.iters_per_sample
            ));
        }
        let count = results.len();
        let entries = results
            .into_iter()
            .map(|r| Entry::from_result(name, r))
            .collect();
        Report {
            entries,
            ..Report::stamp(repo)
        }
        .merge_into(&out, name)
        .map_err(|e| CliError::Domain(e.to_string()))?;
        text.push_str(&format!(
            "wrote {} ({count} benchmark(s), suite {name})\n",
            out.display()
        ));
    }
    Ok(text)
}

/// `ecad bench list`: the recorded history, newest last.
fn bench_list(p: &Parsed) -> Result<String, CliError> {
    p.check_allowed(&["dir", "limit", "format"])?;
    let format = format_of(p)?;
    let limit: usize = p.get_parse("limit", 10usize)?;
    let history = load(p)?;
    let shown = &history[history.len().saturating_sub(limit)..];

    if format == "json" {
        let files: Vec<Json> = shown
            .iter()
            .map(|f| {
                Json::object()
                    .insert("file", f.name.as_str())
                    .insert("date", f.report.date.as_str())
                    .insert("created_utc", f.report.created_utc.as_str())
                    .insert("git_rev", f.report.git_rev.as_str())
                    .insert("benchmarks", f.report.entries.len() as f64)
            })
            .collect();
        return Ok(Json::object()
            .insert("reports", Json::Array(files))
            .pretty()
            + "\n");
    }
    if shown.is_empty() {
        return Ok(format!(
            "no BENCH_*.json reports under {}\n",
            history_dir(p).display()
        ));
    }
    let mut out = String::new();
    for f in shown {
        let mut suites: Vec<&str> = f.report.entries.iter().map(|e| e.suite.as_str()).collect();
        suites.dedup();
        out.push_str(&format!(
            "{}  {}  rev {}  {} benchmark(s) [{}]\n",
            f.name,
            f.report.created_utc,
            f.report.git_rev,
            f.report.entries.len(),
            suites.join(", ")
        ));
    }
    Ok(out)
}

/// `ecad bench trend`: per-benchmark trajectory and delta vs the
/// windowed baseline.
fn bench_trend(p: &Parsed) -> Result<String, CliError> {
    p.check_allowed(&["dir", "suite", "filter", "window", "format"])?;
    let format = format_of(p)?;
    let window: usize = p.get_parse("window", 3usize)?;
    let history = load(p)?;
    let rows = history::trend(&history, p.get("suite"), p.get("filter"), window);

    if format == "json" {
        let rows: Vec<Json> = rows
            .iter()
            .map(|row| {
                let points: Vec<Json> = row
                    .points
                    .iter()
                    .map(|pt| {
                        Json::object()
                            .insert("date", pt.date.as_str())
                            .insert("git_rev", pt.git_rev.as_str())
                            .insert("ns_per_iter_p50", pt.ns_p50)
                            .insert("ns_per_iter_p95", pt.ns_p95)
                    })
                    .collect();
                Json::object()
                    .insert("suite", row.suite.as_str())
                    .insert("id", row.id.as_str())
                    .insert("baseline_p95", row.baseline_p95)
                    .insert("delta_pct", row.delta_pct)
                    .insert("points", Json::Array(points))
            })
            .collect();
        return Ok(Json::object().insert("trends", Json::Array(rows)).pretty() + "\n");
    }
    if rows.is_empty() {
        return Ok("no benchmark history matches the selection\n".to_string());
    }
    Ok(history::trend_table(&rows))
}

/// `ecad bench gate`: the regression gate; a failing verdict is
/// returned as [`CliError::Gate`] so the process exits non-zero.
fn bench_gate(p: &Parsed) -> Result<String, CliError> {
    p.check_allowed(&[
        "dir",
        "suite",
        "filter",
        "threshold-p95-ms",
        "max-p95-regression-pct",
        "window-size",
        "required-passes",
        "format",
    ])?;
    let format = format_of(p)?;
    let config = GateConfig {
        suite: p.get("suite").map(str::to_string),
        filter: p.get("filter").map(str::to_string),
        threshold_p95_ms: non_negative_flag(p, "threshold-p95-ms")?,
        max_p95_regression_pct: non_negative_flag(p, "max-p95-regression-pct")?,
        window_size: p.get_parse("window-size", GateConfig::default().window_size)?,
        required_passes: p.get_parse("required-passes", GateConfig::default().required_passes)?,
    };
    let history = load(p)?;
    let verdict = history::gate(&history, &config);
    let rendered = if format == "json" {
        verdict.to_json().pretty() + "\n"
    } else {
        history::gate_table(&verdict)
    };
    if verdict.passed {
        Ok(rendered)
    } else {
        Err(CliError::Gate(rendered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn write_history(dir: &std::path::Path, date: &str, p95: f64) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(
            dir.join(format!("BENCH_{date}.json")),
            format!(
                r#"{{
  "schema_version": 1,
  "date": "{date}",
  "created_utc": "{date}T00:00:00Z",
  "git_rev": "test",
  "benchmarks": [
    {{
      "suite": "kernels",
      "id": "gemm/naive/64",
      "ns_per_iter_p50": {p50},
      "ns_per_iter_p95": {p95},
      "ns_per_iter_min": {p50},
      "ns_per_iter_max": {p95},
      "ns_per_iter_mean": {p50},
      "throughput_per_s": 1000.0,
      "samples": 10,
      "iters_per_sample": 100
    }}
  ]
}}
"#,
                p50 = p95 * 0.8,
            ),
        )
        .unwrap();
    }

    #[test]
    fn bench_needs_action() {
        let err = crate::run(argv("bench")).unwrap_err();
        assert!(err.to_string().contains("needs an action"));
        let err = crate::run(argv("bench frobnicate")).unwrap_err();
        assert!(err.to_string().contains("bench frobnicate"));
    }

    #[test]
    fn run_rejects_unknown_suite() {
        let err = crate::run(argv("bench run --suite nothing")).unwrap_err();
        assert!(err.to_string().contains("unknown suite"));
    }

    /// `bench run` on a real (filtered, pinned-iteration) kernel suite
    /// writes a parseable report, and list/trend/gate consume it.
    #[test]
    fn run_list_trend_gate_round_trip() {
        let dir = std::env::temp_dir().join("ecad_cli_bench_roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let out = crate::run(argv(&format!(
            "bench run --suite kernels --filter argmax --iters 1 --sample-size 2 --dir {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("kernels/matrix/argmax_rows_512"), "got: {out}");
        assert!(out.contains("wrote "), "got: {out}");

        let listed = crate::run(argv(&format!("bench list --dir {}", dir.display()))).unwrap();
        assert!(listed.contains("BENCH_"), "got: {listed}");
        assert!(listed.contains("[kernels]"), "got: {listed}");

        let trend = crate::run(argv(&format!("bench trend --dir {}", dir.display()))).unwrap();
        assert!(trend.contains("argmax_rows_512"), "got: {trend}");

        // A single run has no baseline: the gate passes with a warning.
        let gated = crate::run(argv(&format!(
            "bench gate --dir {} --max-p95-regression-pct 10",
            dir.display()
        )))
        .unwrap();
        assert!(gated.contains("PASS"), "got: {gated}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_fails_on_synthetic_regression() {
        let dir = std::env::temp_dir().join("ecad_cli_bench_gate_fail");
        std::fs::remove_dir_all(&dir).ok();
        write_history(&dir, "2026-01-01", 100.0);
        write_history(&dir, "2026-01-02", 1000.0); // 10x regression
        let err = crate::run(argv(&format!(
            "bench gate --dir {} --max-p95-regression-pct 50 --window-size 1",
            dir.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Gate(_)));
        assert!(err.to_string().contains("FAIL"), "got: {err}");
        assert!(err.to_string().contains("regressed"), "got: {err}");

        // The same history passes under a generous limit.
        let ok = crate::run(argv(&format!(
            "bench gate --dir {} --max-p95-regression-pct 2000 --window-size 1",
            dir.display()
        )))
        .unwrap();
        assert!(ok.contains("PASS"), "got: {ok}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_empty_dir_passes_with_warning() {
        let dir = std::env::temp_dir().join("ecad_cli_bench_gate_empty");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let out = crate::run(argv(&format!("bench gate --dir {}", dir.display()))).unwrap();
        assert!(out.contains("PASS"));
        assert!(out.contains("vacuously"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_rejects_malformed_history_with_location() {
        let dir = std::env::temp_dir().join("ecad_cli_bench_gate_malformed");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_2026-01-01.json"), "{\n  \"schema_version\": 1,\n  oops\n}\n")
            .unwrap();
        let err = crate::run(argv(&format!("bench gate --dir {}", dir.display()))).unwrap_err();
        assert!(err.to_string().contains("BENCH_2026-01-01.json:3:"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trend_json_format_parses(){
        let dir = std::env::temp_dir().join("ecad_cli_bench_trend_json");
        std::fs::remove_dir_all(&dir).ok();
        write_history(&dir, "2026-01-01", 100.0);
        write_history(&dir, "2026-01-02", 110.0);
        let out = crate::run(argv(&format!(
            "bench trend --dir {} --format json",
            dir.display()
        )))
        .unwrap();
        let json = Json::parse(&out).unwrap();
        let trends = json.get("trends").and_then(Json::as_array).unwrap();
        assert_eq!(trends.len(), 1);
        let gate_json = crate::run(argv(&format!(
            "bench gate --dir {} --max-p95-regression-pct 50 --format json",
            dir.display()
        )))
        .unwrap();
        let verdict = Json::parse(&gate_json).unwrap();
        assert_eq!(verdict.get("passed").and_then(Json::as_bool), Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }
}
