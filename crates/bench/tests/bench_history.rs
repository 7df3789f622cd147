//! On-disk tests for `bench::history`: loading `BENCH_*.json` files
//! from a directory, merged rewrites, deterministic output, and the
//! gate end-to-end over synthetic histories.

use std::path::{Path, PathBuf};

use ecad_bench::history::{self, GateConfig, HistoryError};
use rt::bench::{write_report_merged, BenchResult, ReportMeta, Summary};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ecad_bench_history").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn result(id: &str, p95: f64) -> BenchResult {
    BenchResult {
        id: id.to_string(),
        summary: Summary {
            min_ns: p95 * 0.5,
            p50_ns: p95 * 0.8,
            p95_ns: p95,
            max_ns: p95 * 1.5,
            mean_ns: p95 * 0.9,
        },
        samples: 10,
        iters_per_sample: 100,
        profile: None,
    }
}

fn write_day(dir: &Path, day: u64, suite: &str, results: &[BenchResult]) -> PathBuf {
    // One synthetic day per index, spaced well apart.
    let meta = ReportMeta::at(1_700_000_000 + day * 86_400, format!("rev{day}"));
    let path = dir.join(rt::bench::bench_file_name(&meta.date));
    write_report_merged(&path, suite, results, &meta).unwrap();
    path
}

/// Files load oldest-first regardless of creation order, and a
/// same-file rewrite with identical measurements is byte-identical
/// (deterministic iteration order).
#[test]
fn load_history_is_chronological_and_writes_are_stable() {
    let dir = tmp_dir("chronological");
    // Created newest-first on purpose.
    write_day(&dir, 2, "kernels", &[result("gemm", 120.0)]);
    write_day(&dir, 0, "kernels", &[result("gemm", 100.0)]);
    let path = write_day(&dir, 1, "kernels", &[result("gemm", 110.0)]);
    std::fs::write(dir.join("NOT_BENCH.json"), "{}").unwrap();

    let history = history::load_history(&dir).unwrap();
    let p95s: Vec<f64> = history
        .iter()
        .map(|f| f.report.entries[0].ns_p95)
        .collect();
    assert_eq!(p95s, [100.0, 110.0, 120.0]);

    let before = std::fs::read(&path).unwrap();
    write_day(&dir, 1, "kernels", &[result("gemm", 110.0)]);
    assert_eq!(before, std::fs::read(&path).unwrap(), "rewrite must be byte-stable");
}

/// Two suites written into the same day's file on separate calls both
/// survive, sorted by `(suite, id)`; re-writing one suite replaces
/// only its own entries.
#[test]
fn merged_report_keeps_other_suites() {
    let dir = tmp_dir("merge");
    write_day(&dir, 0, "models", &[result("mlp/forward", 500.0)]);
    write_day(&dir, 0, "kernels", &[result("gemm", 100.0), result("argmax", 50.0)]);
    write_day(&dir, 0, "kernels", &[result("gemm", 101.0)]); // replaces kernels only

    let history = history::load_history(&dir).unwrap();
    assert_eq!(history.len(), 1);
    let keys: Vec<String> = history[0].report.entries.iter().map(|e| e.key()).collect();
    assert_eq!(keys, ["kernels/gemm", "models/mlp/forward"]);
    assert_eq!(history[0].report.entries[0].ns_p95, 101.0);
}

/// A syntactically broken file is rejected with its 1-based line and
/// column; a schema-violating file names the offending element.
#[test]
fn malformed_files_are_rejected_with_location() {
    let dir = tmp_dir("malformed");
    let bad = dir.join("BENCH_2026-01-01.json");
    std::fs::write(&bad, "{\n  \"schema_version\": 1,\n  \"date\": oops\n}\n").unwrap();
    let err = history::load_history(&dir).unwrap_err();
    match &err {
        HistoryError::Parse { line, column, path, .. } => {
            assert_eq!(*line, 3, "line in {err}");
            assert!(*column > 1);
            assert!(path.ends_with("BENCH_2026-01-01.json"));
        }
        other => panic!("expected Parse error, got {other:?}"),
    }

    std::fs::write(
        &bad,
        r#"{
  "schema_version": 1,
  "date": "2026-01-01",
  "created_utc": "2026-01-01T00:00:00Z",
  "git_rev": "r",
  "benchmarks": [
    { "suite": "kernels", "id": "gemm" }
  ]
}"#,
    )
    .unwrap();
    let err = history::load_history(&dir).unwrap_err();
    match &err {
        HistoryError::Schema { at, .. } => assert_eq!(at, "benchmarks[0]"),
        other => panic!("expected Schema error, got {other:?}"),
    }

    // Unsupported schema versions are refused rather than misread.
    std::fs::write(
        &bad,
        r#"{
  "schema_version": 99,
  "date": "2026-01-01",
  "created_utc": "2026-01-01T00:00:00Z",
  "git_rev": "r",
  "benchmarks": []
}"#,
    )
    .unwrap();
    let err = history::load_history(&dir).unwrap_err();
    assert!(err.to_string().contains("unsupported version 99"), "{err}");
}

/// End-to-end gate over real files: a 10x p95 regression fails against
/// a 50% limit and passes against a generous one, and hysteresis keeps
/// the gate red while the regressed run is inside the required window.
#[test]
fn gate_over_files_catches_regression() {
    let dir = tmp_dir("gate");
    for (day, p95) in [(0, 100.0), (1, 102.0), (2, 98.0)] {
        write_day(&dir, day, "kernels", &[result("gemm", p95)]);
    }
    write_day(&dir, 3, "kernels", &[result("gemm", 1000.0)]);

    let history = history::load_history(&dir).unwrap();
    let config = GateConfig {
        max_p95_regression_pct: Some(50.0),
        window_size: 3,
        ..GateConfig::default()
    };
    let verdict = history::gate(&history, &config);
    assert!(!verdict.passed);
    assert!(verdict.checks.iter().any(|c| !c.passed && c.reason.contains("regressed")));

    let generous = GateConfig {
        max_p95_regression_pct: Some(2000.0),
        ..config.clone()
    };
    assert!(history::gate(&history, &generous).passed);

    // One clean run after the regression is not enough with
    // required_passes = 2 …
    write_day(&dir, 4, "kernels", &[result("gemm", 100.0)]);
    let history = history::load_history(&dir).unwrap();
    let hysteresis = GateConfig {
        required_passes: 2,
        ..config.clone()
    };
    assert!(!history::gate(&history, &hysteresis).passed);
    // … the absolute ceiling composes with the regression check.
    let ceiling = GateConfig {
        threshold_p95_ms: Some(0.0005), // 500 µs: the spike run violates it
        ..hysteresis.clone()
    };
    let verdict = history::gate(&history, &ceiling);
    assert!(verdict.checks.iter().any(|c| c.reason.contains("threshold")));
}

/// The gate report renders deterministically in both formats.
#[test]
fn gate_output_is_deterministic() {
    let dir = tmp_dir("gate_render");
    write_day(&dir, 0, "kernels", &[result("b", 100.0), result("a", 100.0)]);
    write_day(&dir, 1, "kernels", &[result("a", 105.0), result("b", 103.0)]);
    let history = history::load_history(&dir).unwrap();
    let config = GateConfig {
        max_p95_regression_pct: Some(10.0),
        ..GateConfig::default()
    };
    let first = history::gate(&history, &config);
    let second = history::gate(&history, &config);
    assert_eq!(history::gate_table(&first), history::gate_table(&second));
    assert_eq!(
        first.to_json().pretty(),
        second.to_json().pretty()
    );
    // Checks are ordered by (suite, id) within the run.
    let ids: Vec<&str> = first.checks.iter().map(|c| c.id.as_str()).collect();
    assert_eq!(ids, ["a", "b"]);
}

/// Reports committed before the header carried `nproc` still load;
/// freshly captured metadata records the host's core count.
#[test]
fn reports_without_nproc_still_load() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = history::load_history(&root).unwrap();
    assert!(
        !files.is_empty(),
        "no committed BENCH_*.json under {}",
        root.display()
    );
    assert!(files.iter().any(|f| f.report.nproc.is_none()));

    let meta = ReportMeta::capture(&root);
    let nproc = meta.nproc.expect("available_parallelism on this host");
    let path = tmp_dir("nproc").join(rt::bench::bench_file_name(&meta.date));
    write_report_merged(&path, "kernels", &[result("gemm/x", 10.0)], &meta).unwrap();
    assert_eq!(history::load_report(&path).unwrap().nproc, Some(nproc));
}

/// `ecad bench run` stamps the GEMM tile the host runs into the
/// header, and committed reports written before the field existed
/// still load without it.
#[test]
fn reports_record_the_gemm_kernel() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = history::load_history(&root).unwrap();
    assert!(files.iter().any(|f| f.report.gemm_kernel.is_none()));

    let kernel = ecad_tensor::gemm::kernel();
    assert!(["avx2-8x8", "portable-4x8"].contains(&kernel));
    let path = tmp_dir("gemm_kernel").join("BENCH_kernel.json");
    ecad_bench::suites::write_report(&path, "kernels", &[result("gemm/x", 10.0)]).unwrap();
    let report = history::load_report(&path).unwrap();
    assert_eq!(report.gemm_kernel.as_deref(), Some(kernel));

    let text = std::fs::read_to_string(&path).unwrap();
    let bad = text.replacen(
        &format!("\"gemm_kernel\": \"{kernel}\""),
        "\"gemm_kernel\": 8",
        1,
    );
    assert_ne!(bad, text);
    let err = history::parse_report("bad", &bad).unwrap_err();
    assert!(err.to_string().contains("gemm_kernel"), "{err}");
}
