//! A minimal wall-clock benchmark runner with the criterion surface the
//! bench targets use: [`Criterion`], [`BenchmarkGroup`], [`Bencher`],
//! [`BenchmarkId`], [`black_box`], and the
//! [`criterion_group!`](crate::criterion_group) /
//! [`criterion_main!`](crate::criterion_main) macros.
//!
//! Methodology: each benchmark is first calibrated — the iteration
//! count is scaled until one batch takes roughly the target sample
//! duration — then timed for up to `sample_size` batches
//! (early-stopped at a per-benchmark time budget), and the
//! min / p50 / p95 / mean per-iteration times are printed. Every
//! measurement is also collected as a [`BenchResult`] (built on the
//! order-statistics [`Summary`] core), and suites can persist a run as
//! a machine-readable `BENCH_<date>.json` report via
//! [`write_report_merged`] — the input to `ecad bench trend` / `gate`.
//!
//! Command-line arguments (via `cargo bench -- <filter>`): any
//! non-flag argument is a substring filter on benchmark names; the
//! `--test` flag runs every benchmark body exactly once without timing
//! (used to smoke-test bench targets quickly); `--quick` shrinks the
//! calibration target and sample count for cheap CI runs;
//! `--sample-size N` and `--iters N` pin the number of measured
//! batches and the per-batch iteration count (`--iters` disables
//! calibration entirely, for run-to-run comparable iteration counts);
//! `--json PATH` redirects the JSON report, `--no-json` suppresses it.

use crate::json::Json;
use std::path::Path;
use std::time::{Duration, Instant};

/// Opaque identity function that prevents the optimizer from deleting
/// a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One batch's timing context, passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f`; the closure's output is passed
    /// through [`black_box`] so it cannot be optimized away.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// A benchmark name, optionally parameterized (`"gemm/64"`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// `name/parameter`, e.g. `BenchmarkId::new("gemm", 64)` → `gemm/64`.
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            text: format!("{name}/{parameter}"),
        }
    }

    /// Just the parameter, for groups whose name already carries the
    /// function identity.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(text: &str) -> BenchmarkId {
        BenchmarkId {
            text: text.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(text: String) -> BenchmarkId {
        BenchmarkId { text }
    }
}

// ---------------------------------------------------------------------
// Summary statistics core
//
// Everything the regression gate consumes reduces to these few
// functions, so they are deliberately tiny and heavily property-tested:
// quantiles are *order statistics* of the sample (nearest-rank), never
// interpolated values that could leave the sample's range.
// ---------------------------------------------------------------------

/// Nearest-rank quantile of an ascending-sorted sample: for
/// `q in [0, 1]` returns the element at rank `ceil(q * n)` (1-based),
/// clamped into the sample. The result is always one of the sample's
/// own values, so it is bounded by min/max, permutation-invariant, and
/// monotone in `q`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// [`quantile_sorted`] over an unsorted sample (sorts a copy);
/// `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        None
    } else {
        Some(quantile_sorted(&sorted, q))
    }
}

/// Converts a per-iteration time to a throughput (iterations per
/// second). The two directions are the same involution — applying it
/// twice round-trips exactly (up to float division).
pub fn throughput_per_s(ns_per_iter: f64) -> f64 {
    1e9 / ns_per_iter
}

/// Converts a throughput (iterations per second) back to ns/iter.
pub fn ns_per_iter(throughput_per_s: f64) -> f64 {
    1e9 / throughput_per_s
}

/// Order-statistics summary of a batch of per-iteration times (ns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Fastest observed batch, ns/iter.
    pub min_ns: f64,
    /// Median (nearest-rank p50), ns/iter.
    pub p50_ns: f64,
    /// Nearest-rank p95, ns/iter.
    pub p95_ns: f64,
    /// Slowest observed batch, ns/iter.
    pub max_ns: f64,
    /// Arithmetic mean, ns/iter.
    pub mean_ns: f64,
}

impl Summary {
    /// Summarizes a sample of per-iteration times. `None` when the
    /// sample is empty or contains a non-finite value.
    pub fn from_samples(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            min_ns: sorted[0],
            p50_ns: quantile_sorted(&sorted, 0.50),
            p95_ns: quantile_sorted(&sorted, 0.95),
            max_ns: sorted[sorted.len() - 1],
            mean_ns: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }

    /// Summarizes the concatenation of two batches, as if they had been
    /// measured as one run. Merging never reorders the quantiles:
    /// `p50 <= p95` holds for any pair of inputs.
    pub fn merge_samples(a: &[f64], b: &[f64]) -> Option<Summary> {
        let mut all = a.to_vec();
        all.extend_from_slice(b);
        Summary::from_samples(&all)
    }

    /// Median throughput, iterations per second.
    pub fn throughput_per_s(&self) -> f64 {
        throughput_per_s(self.p50_ns)
    }
}

/// One benchmark's collected measurement, as recorded by [`Criterion`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Full benchmark id, e.g. `gemm/blocked/64`.
    pub id: String,
    /// Per-iteration timing summary.
    pub summary: Summary,
    /// Number of measured batches.
    pub samples: usize,
    /// Iterations per batch (after calibration, or pinned by
    /// `--iters`).
    pub iters_per_sample: u64,
    /// Span-attribution tree captured during the measurement loop when
    /// `--profile` is active (see [`crate::prof`]); `None` otherwise.
    pub profile: Option<crate::prof::ProfileNode>,
}

/// Default target wall-clock duration for one calibrated batch.
const TARGET_SAMPLE: Duration = Duration::from_millis(5);
/// Default hard cap on measurement time per benchmark (calibration
/// excluded).
const TIME_BUDGET: Duration = Duration::from_secs(3);
/// Default number of measured batches per benchmark.
const DEFAULT_SAMPLE_SIZE: usize = 50;
/// `--quick` measurement settings: one-millisecond batches, few
/// samples — for CI smoke gates, not precision.
const QUICK_SAMPLE: Duration = Duration::from_millis(1);
const QUICK_SAMPLE_SIZE: usize = 11;

/// The benchmark runner; holds the name filter and default sample
/// count. Construct via [`Criterion::default`].
pub struct Criterion {
    filter: Option<String>,
    test_mode: bool,
    sample_size: usize,
    target_sample: Duration,
    time_budget: Duration,
    fixed_iters: Option<u64>,
    quiet: bool,
    json_out: Option<JsonOut>,
    profile: bool,
    results: Vec<BenchResult>,
}

/// Where `from_args` was told to put the JSON report (the suite main
/// decides the default path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonOut {
    /// `--json PATH`: write exactly here.
    Path(String),
    /// `--no-json`: suppress the report.
    Disabled,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            filter: None,
            test_mode: false,
            sample_size: DEFAULT_SAMPLE_SIZE,
            target_sample: TARGET_SAMPLE,
            time_budget: TIME_BUDGET,
            fixed_iters: None,
            quiet: false,
            json_out: None,
            profile: false,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Applies command-line arguments: non-flag arguments become the
    /// substring filter, `--test` switches to run-once mode, `--quick`
    /// to small calibrated batches, `--sample-size N` / `--iters N`
    /// pin the measurement counts, and `--json PATH` / `--no-json`
    /// control report emission.
    pub fn from_args() -> Criterion {
        Criterion::from_arg_list(std::env::args().skip(1))
    }

    /// [`Criterion::from_args`] over an explicit argument list
    /// (testable).
    pub fn from_arg_list<I: IntoIterator<Item = String>>(args: I) -> Criterion {
        let mut c = Criterion::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--test" => c.test_mode = true,
                "--quick" => {
                    c.quick();
                }
                "--sample-size" => {
                    if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                        c.sample_size(n);
                    }
                }
                "--iters" => {
                    if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                        c.iters(n);
                    }
                }
                "--json" => {
                    if let Some(path) = it.next() {
                        c.json_out = Some(JsonOut::Path(path));
                    }
                }
                "--no-json" => c.json_out = Some(JsonOut::Disabled),
                "--profile" => {
                    c.profile();
                }
                // `cargo bench` passes --bench to harness binaries.
                _ if arg.starts_with('-') => {}
                _ => c.filter = Some(arg),
            }
        }
        c
    }

    /// Sets the default number of measured batches.
    pub fn sample_size(&mut self, n: usize) -> &mut Criterion {
        assert!(n > 0, "sample size must be at least 1");
        self.sample_size = n;
        self
    }

    /// Substring filter on benchmark names (what a positional argument
    /// sets).
    pub fn filter(&mut self, needle: impl Into<String>) -> &mut Criterion {
        self.filter = Some(needle.into());
        self
    }

    /// Quick mode: millisecond calibration target and a small sample
    /// count, for CI smoke runs.
    pub fn quick(&mut self) -> &mut Criterion {
        self.target_sample = QUICK_SAMPLE;
        self.sample_size = QUICK_SAMPLE_SIZE;
        self
    }

    /// Attaches a span-attribution profiler (see [`crate::prof`]) to
    /// each benchmark's measurement loop; the captured tree lands in
    /// [`BenchResult::profile`] and the JSON report's `profile` field.
    pub fn profile(&mut self) -> &mut Criterion {
        self.profile = true;
        self
    }

    /// Pins the per-batch iteration count, disabling calibration — the
    /// knob that makes iteration counts identical run to run.
    pub fn iters(&mut self, n: u64) -> &mut Criterion {
        assert!(n > 0, "iteration count must be at least 1");
        self.fixed_iters = Some(n);
        self
    }

    /// Suppresses the human-readable per-benchmark lines (results are
    /// still collected).
    pub fn quiet(&mut self) -> &mut Criterion {
        self.quiet = true;
        self
    }

    /// Whether `--test` (run each body once, no timing) is active.
    pub fn is_test_mode(&self) -> bool {
        self.test_mode
    }

    /// What `--json` / `--no-json` requested, if anything.
    pub fn json_out(&self) -> Option<&JsonOut> {
        self.json_out.as_ref()
    }

    /// The measurements collected so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Consumes the collected measurements.
    pub fn take_results(&mut self) -> Vec<BenchResult> {
        std::mem::take(&mut self.results)
    }

    /// Runs one standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_benchmark(self, &id.text, f);
        self
    }

    /// Opens a named group; benchmarks in it print as `group/bench`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size,
        }
    }

    fn matches(&self, name: &str) -> bool {
        match &self.filter {
            Some(needle) => name.contains(needle.as_str()),
            None => true,
        }
    }
}

/// A set of related benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of measured batches for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be at least 1");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into().text);
        let sample_size = self.sample_size;
        let saved = self.criterion.sample_size;
        self.criterion.sample_size = sample_size;
        run_benchmark(self.criterion, &full, f);
        self.criterion.sample_size = saved;
        self
    }

    /// Runs one benchmark with an explicit input value, mirroring
    /// criterion's `bench_with_input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group. (Nothing to flush; provided for criterion
    /// call-site compatibility.)
    pub fn finish(self) {}
}

fn run_benchmark<F>(criterion: &mut Criterion, name: &str, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    if !criterion.matches(name) {
        return;
    }
    let mut bencher = Bencher {
        iters: criterion.fixed_iters.unwrap_or(1),
        elapsed: Duration::ZERO,
    };

    if criterion.test_mode {
        bencher.iters = 1;
        f(&mut bencher);
        if !criterion.quiet {
            println!("{name}: ok (test mode, 1 iteration)");
        }
        return;
    }

    // Calibrate: grow the batch until it takes about the target sample
    // duration. Skipped entirely when `--iters` pinned the count.
    if criterion.fixed_iters.is_none() {
        loop {
            f(&mut bencher);
            if bencher.elapsed >= criterion.target_sample / 2 || bencher.iters >= 1 << 30 {
                break;
            }
            let per_iter = bencher.elapsed.as_nanos().max(1) / bencher.iters as u128;
            let wanted =
                (criterion.target_sample.as_nanos() / per_iter).max(bencher.iters as u128 * 2);
            bencher.iters = wanted.min(1 << 30) as u64;
        }
    }

    let profiler = criterion
        .profile
        .then(|| crate::prof::Profiler::with_root(crate::prof::ClockKind::Wall, "bench"));
    let install = profiler.as_ref().map(|p| p.install());

    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(criterion.sample_size);
    let started = Instant::now();
    for _ in 0..criterion.sample_size {
        f(&mut bencher);
        per_iter_ns.push(bencher.elapsed.as_nanos() as f64 / bencher.iters as f64);
        if started.elapsed() > criterion.time_budget {
            break;
        }
    }
    drop(install);
    let profile = profiler.map(|p| p.report());

    let summary = Summary::from_samples(&per_iter_ns).expect("at least one finite sample");
    if !criterion.quiet {
        println!(
            "{name}: p50 {} (min {}, mean {}, p95 {}; {} samples x {} iters)",
            format_ns(summary.p50_ns),
            format_ns(summary.min_ns),
            format_ns(summary.mean_ns),
            format_ns(summary.p95_ns),
            per_iter_ns.len(),
            bencher.iters,
        );
    }
    criterion.results.push(BenchResult {
        id: name.to_string(),
        summary,
        samples: per_iter_ns.len(),
        iters_per_sample: bencher.iters,
        profile,
    });
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
// Machine-readable reports (`BENCH_<date>.json`)
// ---------------------------------------------------------------------

/// Version stamp for the `BENCH_*.json` schema; bump on any field
/// rename or semantic change (the golden test in `crates/bench` pins
/// the layout). Additive fields (`nproc`, `gemm_kernel`, an entry's
/// `profile`) need no bump: readers ignore fields they do not know.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Run metadata stamped into every report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportMeta {
    /// UTC calendar date, `YYYY-MM-DD` — also the report's file name
    /// (`BENCH_<date>.json`).
    pub date: String,
    /// UTC timestamp, `YYYY-MM-DDTHH:MM:SSZ`.
    pub created_utc: String,
    /// `git rev-parse HEAD` of the repository the report lands in, or
    /// `"unknown"` outside a checkout.
    pub git_rev: String,
    /// Cores available to the measuring process
    /// (`std::thread::available_parallelism`), so threaded numbers
    /// carry their host's core count. `None` omits the header field.
    pub nproc: Option<usize>,
    /// The GEMM register tile the measured kernels ran
    /// (`ecad_tensor::gemm::kernel()`), so kernel numbers carry the
    /// instruction set they depend on. `None` omits the header field.
    pub gemm_kernel: Option<String>,
}

impl ReportMeta {
    /// Captures the current time (honoring the `SOURCE_DATE_EPOCH`
    /// reproducible-builds convention), the git revision resolved from
    /// `repo_dir`, and the host's available parallelism.
    pub fn capture(repo_dir: &Path) -> ReportMeta {
        let secs = std::env::var("SOURCE_DATE_EPOCH")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0)
            });
        ReportMeta {
            nproc: std::thread::available_parallelism().ok().map(usize::from),
            ..ReportMeta::at(secs, git_rev(repo_dir))
        }
    }

    /// Builds metadata for an explicit unix time and revision, without
    /// a core count or GEMM tile (testable).
    pub fn at(unix_secs: u64, git_rev: impl Into<String>) -> ReportMeta {
        let (date, created_utc) = utc_date_time(unix_secs);
        ReportMeta {
            date,
            created_utc,
            git_rev: git_rev.into(),
            nproc: None,
            gemm_kernel: None,
        }
    }
}

/// Resolves `git rev-parse HEAD` in `dir`; `"unknown"` when git or the
/// repository is unavailable.
pub fn git_rev(dir: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        })
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
pub fn utc_date_time(unix_secs: u64) -> (String, String) {
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

/// The canonical report file name for a `YYYY-MM-DD` date.
pub fn bench_file_name(date: &str) -> String {
    format!("BENCH_{date}.json")
}

/// Serializes one measurement as a report entry. Field order is part
/// of the schema (the golden test pins it).
pub fn result_to_json(suite: &str, r: &BenchResult) -> Json {
    let entry = Json::object()
        .insert("suite", suite)
        .insert("id", r.id.as_str())
        .insert("ns_per_iter_p50", r.summary.p50_ns)
        .insert("ns_per_iter_p95", r.summary.p95_ns)
        .insert("ns_per_iter_min", r.summary.min_ns)
        .insert("ns_per_iter_max", r.summary.max_ns)
        .insert("ns_per_iter_mean", r.summary.mean_ns)
        .insert("throughput_per_s", r.summary.throughput_per_s())
        .insert("samples", r.samples)
        .insert("iters_per_sample", r.iters_per_sample);
    // Additive field: only present under `--profile`, so the pinned
    // golden layout (no profile) is unchanged.
    match &r.profile {
        Some(node) => entry.insert("profile", node.to_json()),
        None => entry,
    }
}

/// Builds a full report document. Entries are sorted by
/// `(suite, id)` so the serialized report is byte-stable for the same
/// measurements regardless of execution order.
pub fn report_to_json(meta: &ReportMeta, entries: Vec<Json>) -> Json {
    let mut entries = entries;
    entries.sort_by(|a, b| entry_sort_key(a).cmp(&entry_sort_key(b)));
    let header = Json::object()
        .insert("schema_version", BENCH_SCHEMA_VERSION)
        .insert("date", meta.date.as_str())
        .insert("created_utc", meta.created_utc.as_str())
        .insert("git_rev", meta.git_rev.as_str());
    let header = match meta.nproc {
        Some(n) => header.insert("nproc", n),
        None => header,
    };
    match &meta.gemm_kernel {
        Some(kernel) => header.insert("gemm_kernel", kernel.as_str()),
        None => header,
    }
    .insert("benchmarks", Json::Array(entries))
}

fn entry_sort_key(e: &Json) -> (String, String) {
    let field = |k: &str| {
        e.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    (field("suite"), field("id"))
}

/// Writes (or merges into) a `BENCH_*.json` report: existing entries
/// from *other* suites in the target file are preserved, entries for
/// `suite` are replaced wholesale, and the metadata is refreshed — so
/// the five `cargo bench` binaries can share one per-day file. A
/// malformed or alien existing file is overwritten.
///
/// # Errors
///
/// Propagates the underlying filesystem write error.
pub fn write_report_merged(
    path: &Path,
    suite: &str,
    results: &[BenchResult],
    meta: &ReportMeta,
) -> std::io::Result<()> {
    let mut entries: Vec<Json> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(existing) = Json::parse(&text) {
            let version = existing
                .get("schema_version")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            if version == BENCH_SCHEMA_VERSION as f64 {
                if let Some(old) = existing.get("benchmarks").and_then(Json::as_array) {
                    entries.extend(
                        old.iter()
                            .filter(|e| {
                                e.get("suite").and_then(Json::as_str) != Some(suite)
                                    && e.get("id").and_then(Json::as_str).is_some()
                            })
                            .cloned(),
                    );
                }
            }
        }
    }
    entries.extend(results.iter().map(|r| result_to_json(suite, r)));
    let report = report_to_json(meta, entries);
    std::fs::write(path, format!("{}\n", report.pretty()))
}

/// Declares a benchmark group function, criterion style:
/// `criterion_group!(benches, bench_a, bench_b);` defines
/// `fn benches()` that runs each listed `fn(&mut Criterion)`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::bench::Criterion::from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `fn main()` running the listed benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        let mut calls = 0u64;
        let mut b = Bencher {
            iters: 17,
            elapsed: Duration::ZERO,
        };
        b.iter(|| calls += 1);
        assert_eq!(calls, 17);
    }

    #[test]
    fn benchmark_ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("gemm", 64).text, "gemm/64");
        assert_eq!(BenchmarkId::from_parameter(128).text, "128");
        assert_eq!(BenchmarkId::from("plain").text, "plain");
    }

    #[test]
    fn filter_matches_substring() {
        let mut c = Criterion::default();
        c.filter = Some("gemm".to_string());
        assert!(c.matches("group/gemm/64"));
        assert!(!c.matches("group/softmax"));
        c.filter = None;
        assert!(c.matches("anything"));
    }

    #[test]
    fn test_mode_runs_body_once() {
        let mut c = Criterion::default();
        c.test_mode = true;
        let mut calls = 0u32;
        c.bench_function("once", |b| {
            calls += 1;
            b.iter(|| ());
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn group_names_prefix_benchmarks() {
        // Run a real (tiny) measurement through the group path in test
        // mode to cover name joining and sample-size override.
        let mut c = Criterion::default();
        c.test_mode = true;
        let mut group = c.benchmark_group("kernels");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("double", 4), &4u32, |b, &n| {
            b.iter(|| n * 2);
        });
        group.finish();
    }

    #[test]
    fn from_arg_list_parses_measurement_knobs() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let c = Criterion::from_arg_list(args("--quick --sample-size 7 --iters 3 gemm"));
        assert_eq!(c.sample_size, 7);
        assert_eq!(c.fixed_iters, Some(3));
        assert_eq!(c.filter.as_deref(), Some("gemm"));
        let c = Criterion::from_arg_list(args("--json /tmp/x.json"));
        assert_eq!(c.json_out(), Some(&JsonOut::Path("/tmp/x.json".into())));
        let c = Criterion::from_arg_list(args("--no-json --test --bench"));
        assert_eq!(c.json_out(), Some(&JsonOut::Disabled));
        assert!(c.is_test_mode());
    }

    #[test]
    fn measurements_are_collected_with_pinned_counts() {
        let mut c = Criterion::default();
        c.quiet().iters(4).sample_size(3);
        c.bench_function("tiny/add", |b| b.iter(|| 1 + 1));
        c.bench_function("tiny/mul", |b| b.iter(|| 2 * 2));
        let results = c.take_results();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.samples, 3);
            assert_eq!(r.iters_per_sample, 4);
            assert!(r.summary.min_ns <= r.summary.p50_ns);
            assert!(r.summary.p50_ns <= r.summary.p95_ns);
            assert!(r.summary.p95_ns <= r.summary.max_ns);
        }
        assert_eq!(results[0].id, "tiny/add");
        assert!(c.results().is_empty(), "take_results drains");
    }

    #[test]
    fn quantile_is_nearest_rank_order_statistic() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(quantile_sorted(&sorted, 0.25), 1.0);
        assert_eq!(quantile_sorted(&sorted, 0.26), 2.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 2.0);
        assert_eq!(quantile_sorted(&sorted, 0.95), 4.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 4.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn summary_rejects_empty_and_non_finite() {
        assert!(Summary::from_samples(&[]).is_none());
        assert!(Summary::from_samples(&[1.0, f64::NAN]).is_none());
        assert!(Summary::from_samples(&[f64::INFINITY]).is_none());
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
        assert_eq!(bench_file_name("1970-01-02"), "BENCH_1970-01-02.json");
    }

    #[test]
    fn reports_merge_per_suite_and_sort_entries() {
        let dir = std::env::temp_dir().join("rt_bench_report_merge");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_1970-01-01.json");
        std::fs::remove_file(&path).ok();
        let result = |id: &str, ns: f64| BenchResult {
            id: id.to_string(),
            summary: Summary::from_samples(&[ns]).unwrap(),
            samples: 1,
            iters_per_sample: 1,
            profile: None,
        };
        let meta = ReportMeta::at(0, "deadbeef");
        write_report_merged(
            &path,
            "zeta",
            &[result("b", 2.0), result("a", 1.0)],
            &meta,
        )
        .unwrap();
        write_report_merged(&path, "alpha", &[result("x", 3.0)], &meta).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(BENCH_SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("git_rev").and_then(Json::as_str), Some("deadbeef"));
        let ids: Vec<(String, String)> = doc
            .get("benchmarks")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                (
                    e.get("suite").and_then(Json::as_str).unwrap().to_string(),
                    e.get("id").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        // Sorted by (suite, id) regardless of write order.
        assert_eq!(
            ids,
            vec![
                ("alpha".into(), "x".into()),
                ("zeta".into(), "a".into()),
                ("zeta".into(), "b".into()),
            ]
        );
        // Re-running a suite replaces its entries instead of appending.
        write_report_merged(&path, "zeta", &[result("a", 9.0)], &meta).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let entries = doc.get("benchmarks").and_then(Json::as_array).unwrap();
        assert_eq!(entries.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    // Property suite for the statistics core: the gate's arithmetic is
    // only trustworthy if these hold for arbitrary samples.
    crate::prop! {
        #![cases(128)]
        /// Summary quantiles are order statistics: members of the
        /// sample, bounded by min/max, with p50 <= p95.
        fn summary_quantiles_are_order_statistics(
            samples in crate::check::vec(1.0f64..1e9, 1..48),
        ) {
            let s = Summary::from_samples(&samples).unwrap();
            let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            crate::prop_assert_eq!(s.min_ns, lo);
            crate::prop_assert_eq!(s.max_ns, hi);
            crate::prop_assert!(samples.contains(&s.p50_ns));
            crate::prop_assert!(samples.contains(&s.p95_ns));
            crate::prop_assert!(lo <= s.p50_ns && s.p50_ns <= s.p95_ns && s.p95_ns <= hi);
            crate::prop_assert!(lo <= s.mean_ns && s.mean_ns <= hi);
        }

        /// Summaries are permutation-invariant: shuffling the sample
        /// changes nothing.
        fn summary_is_permutation_invariant(
            samples in crate::check::vec(1.0f64..1e9, 1..32),
            seed in 0u64..u64::MAX,
        ) {
            use crate::rand::seq::SliceRandom;
            use crate::rand::SeedableRng;
            let mut shuffled = samples.clone();
            let mut rng = crate::rand::rngs::StdRng::seed_from_u64(seed);
            shuffled.shuffle(&mut rng);
            crate::prop_assert_eq!(
                Summary::from_samples(&samples),
                Summary::from_samples(&shuffled)
            );
        }

        /// The nearest-rank quantile is monotone in its rank.
        fn quantile_is_monotone_in_rank(
            samples in crate::check::vec(1.0f64..1e9, 1..32),
            qa in 0.0f64..1.0,
            qb in 0.0f64..1.0,
        ) {
            let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            crate::prop_assert!(
                quantile_sorted(&sorted, lo) <= quantile_sorted(&sorted, hi)
            );
        }

        /// ns/iter → throughput → ns/iter round-trips to within float
        /// division error.
        fn throughput_inversion_round_trips(ns in 1e-3f64..1e12) {
            let back = ns_per_iter(throughput_per_s(ns));
            crate::prop_assert!(
                (back - ns).abs() <= ns * 1e-12,
                "{ns} -> {back}"
            );
        }

        /// Merging batches equals summarizing the concatenation, and
        /// never reorders p50 above p95.
        fn merged_batches_never_reorder_quantiles(
            a in crate::check::vec(1.0f64..1e9, 0..24),
            b in crate::check::vec(1.0f64..1e9, 0..24),
        ) {
            crate::prop_assume!(!a.is_empty() || !b.is_empty());
            let merged = Summary::merge_samples(&a, &b).unwrap();
            let mut all = a.clone();
            all.extend_from_slice(&b);
            crate::prop_assert_eq!(Some(merged), Summary::from_samples(&all));
            crate::prop_assert!(merged.p50_ns <= merged.p95_ns);
        }
    }
}
