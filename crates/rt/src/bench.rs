//! A minimal wall-clock benchmark runner with the criterion surface the
//! suites use: [`Criterion`], [`BenchmarkGroup`], [`Bencher`],
//! [`BenchmarkId`] and [`black_box`].
//!
//! Methodology: each benchmark is first calibrated — the iteration
//! count is scaled until one batch takes roughly the target sample
//! duration — then timed for up to `sample_size` batches
//! (early-stopped at a per-benchmark time budget). Every measurement
//! is collected as a [`BenchResult`], built on the order-statistics
//! [`Summary`] core. The runner only measures: `ecad bench run` turns
//! the results into `BENCH_<date>.json` entries through
//! `ecad_bench::history`, the one module that knows that format.
//!
//! The knobs are methods: [`Criterion::filter`] (substring filter on
//! benchmark names), [`Criterion::quick`] (small batches for cheap CI
//! runs), [`Criterion::sample_size`] and [`Criterion::iters`] (pin the
//! number of measured batches and the per-batch iteration count;
//! `iters` disables calibration entirely, for run-to-run comparable
//! iteration counts) and [`Criterion::profile`].

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

    /// Median throughput, iterations per second.
    pub fn throughput_per_s(&self) -> f64 {
        1e9 / self.p50_ns
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
    /// [`Criterion::iters`]).
    pub iters_per_sample: u64,
    /// Span-attribution tree captured during the measurement loop when
    /// [`Criterion::profile`] is on (see [`crate::prof`]); `None`
    /// otherwise.
    pub profile: Option<crate::prof::ProfileNode>,
}

/// Default target wall-clock duration for one calibrated batch.
const TARGET_SAMPLE: Duration = Duration::from_millis(5);
/// Default hard cap on measurement time per benchmark (calibration
/// excluded).
const TIME_BUDGET: Duration = Duration::from_secs(3);
/// Default number of measured batches per benchmark.
const DEFAULT_SAMPLE_SIZE: usize = 50;
/// [`Criterion::quick`] measurement settings: one-millisecond
/// batches, few samples — for CI smoke gates, not precision.
const QUICK_SAMPLE: Duration = Duration::from_millis(1);
const QUICK_SAMPLE_SIZE: usize = 11;

/// The benchmark runner; holds the name filter and default sample
/// count. Construct via [`Criterion::default`].
pub struct Criterion {
    filter: Option<String>,
    sample_size: usize,
    target_sample: Duration,
    time_budget: Duration,
    fixed_iters: Option<u64>,
    profile: bool,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            filter: None,
            sample_size: DEFAULT_SAMPLE_SIZE,
            target_sample: TARGET_SAMPLE,
            time_budget: TIME_BUDGET,
            fixed_iters: None,
            profile: false,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets the default number of measured batches.
    pub fn sample_size(&mut self, n: usize) -> &mut Criterion {
        assert!(n > 0, "sample size must be at least 1");
        self.sample_size = n;
        self
    }

    /// Substring filter on benchmark names.
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
    /// [`BenchResult::profile`].
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

    // Calibrate: grow the batch until it takes about the target sample
    // duration. Skipped entirely when `iters` pinned the count.
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

    criterion.results.push(BenchResult {
        id: name.to_string(),
        summary: Summary::from_samples(&per_iter_ns).expect("at least one finite sample"),
        samples: per_iter_ns.len(),
        iters_per_sample: bencher.iters,
        profile,
    });
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
    fn group_names_prefix_benchmarks() {
        // A real (tiny) measurement through the group path covers name
        // joining and the group's sample-size override.
        let mut c = Criterion::default();
        c.iters(1).sample_size(3);
        let mut group = c.benchmark_group("kernels");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("double", 4), &4u32, |b, &n| {
            b.iter(|| n * 2);
        });
        group.finish();
        let results = c.take_results();
        assert_eq!(results[0].id, "kernels/double/4");
        assert_eq!(results[0].samples, 10);
        assert_eq!(c.sample_size, 3, "the override ends with the group");
    }

    #[test]
    fn measurements_are_collected_with_pinned_counts() {
        let mut c = Criterion::default();
        c.iters(4).sample_size(3);
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
    }
}
