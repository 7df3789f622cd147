//! Golden + fixpoint tests pinning the `BENCH_*.json` schema.
//!
//! The golden file (`tests/golden/BENCH_golden.json`) is the schema's
//! contract: encoding a fixed [`history::Report`] must be
//! byte-identical to the checked-in copy, re-serializing the parsed
//! document must be byte-identical (the `rt::json` fixpoint property),
//! and decoding the golden file — or any report committed at the repo
//! root — then encoding it again must reproduce its exact bytes.
//! Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test -p ecad-bench --test bench_schema_golden`.

use std::path::{Path, PathBuf};

use ecad_bench::history::{self, Entry, Report};
use rt::bench::{BenchResult, Summary};
use rt::json::{Json, ToJson};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/BENCH_golden.json")
}

/// A fixed report exercising the schema: two suites, exact and
/// fractional nanosecond values, single and multi-sample entries,
/// deliberately registered out of sorted order.
fn golden_report() -> String {
    let result = |id: &str, p50: f64, p95: f64, samples: usize, iters: u64| BenchResult {
        id: id.to_string(),
        summary: Summary {
            min_ns: p50 * 0.5,
            p50_ns: p50,
            p95_ns: p95,
            max_ns: p95 * 2.0,
            mean_ns: (p50 + p95) / 2.0,
        },
        samples,
        iters_per_sample: iters,
        profile: None,
    };
    let report = Report {
        nproc: Some(2),
        gemm_kernel: Some("avx2-8x8".to_string()),
        entries: vec![
            Entry::from_result(
                "models",
                result("mlp/forward/credit_g", 125.5, 150.25, 10, 1000),
            ),
            Entry::from_result(
                "kernels",
                result("matrix/argmax_rows_512", 2048.0, 4096.0, 1, 1),
            ),
            Entry::from_result("kernels", result("gemm/blocked/64", 100.0, 300.0, 25, 7)),
        ],
        ..Report::at(1_786_233_600, "0123456789abcdef") // 2026-08-09T00:00:00Z
    };
    report.to_json().pretty() + "\n"
}

/// Producing the report from code matches the checked-in golden file
/// byte for byte — any schema change (field order, formatting, sort
/// order, version) fails here first.
#[test]
fn emitted_report_matches_golden_file() {
    let generated = golden_report();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &generated).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate with UPDATE_GOLDEN=1)", path.display()));
    assert_eq!(
        generated,
        committed,
        "BENCH schema drifted from the golden file; if intentional, bump \
         BENCH_SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1"
    );
}

/// serialize(parse(golden)) == golden: the schema survives the
/// `rt::json` round trip byte-identically, so merged rewrites of an
/// existing report are stable.
#[test]
fn golden_file_is_a_serializer_fixpoint() {
    let text = golden_report();
    let reparsed = Json::parse(&text).unwrap().pretty() + "\n";
    assert_eq!(text, reparsed);
}

/// The decoder reads every field of the golden report, and encoding
/// what it read reproduces the exact bytes — one model for both
/// directions.
#[test]
fn history_round_trips_golden_report() {
    let text = golden_report();
    let report = history::parse_report("golden", &text).unwrap();
    assert_eq!(report.date, "2026-08-09");
    assert_eq!(report.git_rev, "0123456789abcdef");
    assert_eq!(report.nproc, Some(2));
    assert_eq!(report.gemm_kernel.as_deref(), Some("avx2-8x8"));
    assert_eq!(report.entries.len(), 3);
    // Entries come back sorted by (suite, id) even though they were
    // registered out of order.
    let keys: Vec<String> = report.entries.iter().map(Entry::key).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    assert_eq!(report.to_json().pretty() + "\n", text);
}

/// Every report committed at the repo root decodes and re-encodes to
/// its exact bytes, so merging a run into one of them rewrites nothing
/// but the header and the merged suite.
#[test]
fn committed_reports_round_trip_to_their_bytes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = history::load_history(&root).unwrap();
    assert!(
        !files.is_empty(),
        "no committed BENCH_*.json under {}",
        root.display()
    );
    for file in files {
        let text = std::fs::read_to_string(root.join(&file.name)).unwrap();
        assert_eq!(
            file.report.to_json().pretty() + "\n",
            text,
            "{} does not re-encode to its bytes",
            file.name
        );
    }
}
