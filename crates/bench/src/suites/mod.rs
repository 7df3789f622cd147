//! The benchmark suites, as library code.
//!
//! Each suite is a set of `rt::bench` registrations that used to live
//! in its `benches/<name>.rs` target; the targets are now thin
//! wrappers over [`bench_main`] so the same suites can run in-process
//! under `ecad bench run` (which needs the collected [`BenchResult`]s
//! rather than printed text). Benchmark IDs are stable identifiers —
//! `BENCH_*.json` history, `ecad bench trend`, and the regression gate
//! key on them — so renaming one orphans its recorded history.

use std::path::{Path, PathBuf};

use rt::bench::{BenchResult, Criterion, JsonOut, ReportMeta};

pub mod ablations;
pub mod engine;
pub mod experiments;
pub mod kernels;
pub mod models;
pub mod obs;

/// Every suite, in (name, registration) form — the single registry
/// `cargo bench` targets, `ecad bench run --suite`, and `--suite all`
/// share.
pub const ALL: &[(&str, fn(&mut Criterion))] = &[
    ("ablations", ablations::register),
    ("engine", engine::register),
    ("experiments", experiments::register),
    ("kernels", kernels::register),
    ("models", models::register),
    ("obs", obs::register),
];

/// The registered suite names, in registry (sorted) order.
pub fn names() -> Vec<&'static str> {
    ALL.iter().map(|(name, _)| *name).collect()
}

/// Runs one suite's registrations against `criterion`.
///
/// # Errors
///
/// Returns the unknown name back when no suite matches.
pub fn run_suite(name: &str, criterion: &mut Criterion) -> Result<(), String> {
    match ALL.iter().find(|(n, _)| *n == name) {
        Some((_, register)) => {
            register(criterion);
            Ok(())
        }
        None => Err(format!(
            "unknown suite {name:?} (known: {})",
            names().join(", ")
        )),
    }
}

/// The repository root, resolved from this crate's manifest directory
/// — where `BENCH_<date>.json` reports land by default.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Entry point for the `cargo bench` harness binaries: parses the
/// standard `rt::bench` arguments, runs the named suite, and — unless
/// `--test` or `--no-json` was given — merges the measurements into
/// `BENCH_<date>.json` at the repo root (or the `--json PATH`
/// override).
///
/// # Panics
///
/// Panics on an unknown suite name (a wiring bug in the bench target)
/// or when the report file cannot be written.
pub fn bench_main(suite: &str) {
    let mut criterion = Criterion::from_args();
    run_suite(suite, &mut criterion).expect("bench target names a registered suite");
    if criterion.is_test_mode() {
        return;
    }
    let results = criterion.take_results();
    let out = match criterion.json_out() {
        Some(JsonOut::Disabled) => return,
        Some(JsonOut::Path(path)) => PathBuf::from(path),
        None => {
            let root = repo_root();
            let meta = ReportMeta::capture(&root);
            root.join(rt::bench::bench_file_name(&meta.date))
        }
    };
    write_report(&out, suite, &results).expect("write BENCH report");
    println!(
        "wrote {} ({} benchmark(s), suite {suite})",
        out.display(),
        results.len()
    );
}

/// Merges `results` for `suite` into the report at `path`, stamping
/// fresh metadata resolved from the report's directory, plus the GEMM
/// tile this host runs.
///
/// # Errors
///
/// Propagates the filesystem write error.
pub fn write_report(path: &Path, suite: &str, results: &[BenchResult]) -> std::io::Result<()> {
    let repo = path.parent().filter(|p| !p.as_os_str().is_empty());
    let meta = ReportMeta {
        gemm_kernel: Some(ecad_tensor::gemm::kernel().to_string()),
        ..ReportMeta::capture(repo.unwrap_or_else(|| Path::new(".")))
    };
    rt::bench::write_report_merged(path, suite, results, &meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_resolves() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "registry order is the display order");
        let mut c = Criterion::default();
        assert!(run_suite("no_such_suite", &mut c)
            .unwrap_err()
            .contains("kernels"));
    }

    /// Every suite body runs once in test mode: IDs stay registered and
    /// the closures stay executable. (`cargo bench -- --test` covers
    /// the same path per target; this keeps it in plain `cargo test`.)
    #[test]
    fn kernels_suite_registers_stable_ids() {
        let mut c = Criterion::default();
        c.quiet().filter("argmax");
        // Use a real (cheap) measurement to verify collection works
        // end-to-end through a suite.
        c.iters(1).sample_size(2);
        run_suite("kernels", &mut c).unwrap();
        let ids: Vec<&str> = c.results().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["matrix/argmax_rows_512"]);
    }
}
