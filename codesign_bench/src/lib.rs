//! End-to-end benchmark of the ECAD co-design search.
//!
//! One invocation runs one named [`Workload`] at one seed. It generates
//! the inputs from the seed, runs as many seeded single-thread searches
//! through the public API as fit a given number of seconds, checks every
//! result, and reports either the end-to-end metrics ([`END_TO_END`],
//! untraced) or the per-layer breakdown ([`PER_LAYER`], traced). The
//! layers it drives, all from outside: `dataset` → `Search::run`
//! (`core::engine`) → `CodesignEvaluator` (`core::workers`) → `mlp` →
//! `tensor` GEMM, the `hw` models beside them, and `core::cluster` /
//! `rt::net` plus `core::checkpoint` on the cluster workload.
//! README.md records why each workload exists and which end-to-end
//! metric each layer metric should move.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use ecad_core::analytics::ParetoArchive;
use ecad_core::checkpoint::{CheckpointPolicy, CheckpointState};
use ecad_core::cluster::{ClusterHealth, ClusterOptions, WorkerOptions, WorkerServer, WorkerState};
use ecad_core::engine::EvolutionConfig;
use ecad_core::fitness::ObjectiveSet;
use ecad_core::genome::CandidateGenome;
use ecad_core::measurement::Measurement;
use ecad_core::search::{Search, SearchResult};
use ecad_core::space::SearchSpace;
use ecad_core::workers::HwTarget;
use ecad_dataset::benchmarks::{self, Benchmark};
use ecad_dataset::{scaler, Dataset};
use ecad_hw::fpga::FpgaDevice;
use ecad_hw::gpu::GpuDevice;
use ecad_mlp::TrainConfig;
use rt::json::Json;
use rt::obs::{Event, Obs, Sink};
use rt::prof::{ClockKind, ProfileNode, Profiler};
use rt::rand::rngs::StdRng;
use rt::rand::SeedableRng;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["creditg-fpga", "har-gpu", "creditg-cluster-ckpt"];

/// End-to-end metrics of an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("search_wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("best_accuracy", "fraction"),
    ("hypervolume", "unit_box"),
];

/// Per-layer metrics of a traced run: name and unit. Layers a workload
/// does not exercise report 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("dataset.generate_s", "s"),
    ("dataset.prepare_s", "s"),
    ("tensor.gemm_fwd_s", "s"),
    ("tensor.gemm_bwd_s", "s"),
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_us_per_call", "us"),
    ("mlp.activation_s", "s"),
    ("mlp.layer_glue_s", "s"),
    ("mlp.step_other_s", "s"),
    ("mlp.eval_forward_s", "s"),
    ("mlp.epochs", "count"),
    ("mlp.minibatches", "count"),
    ("mlp.us_per_minibatch", "us"),
    ("hw.model_s", "s"),
    ("hw.model_calls", "count"),
    ("hw.infeasible_ratio", "ratio"),
    ("hw.infeasible_train_s", "s"),
    ("workers.eval_s_mean", "s"),
    ("workers.eval_ms_p50", "ms"),
    ("workers.eval_ms_p95", "ms"),
    ("workers.train_s", "s"),
    ("workers.hw_s", "s"),
    ("workers.train_share", "ratio"),
    ("engine.outside_eval_s", "s"),
    ("engine.breed_s", "s"),
    ("engine.dispatch_s", "s"),
    ("engine.replace_s", "s"),
    ("engine.bred", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("cluster.roundtrip_ms_p50", "ms"),
    ("cluster.roundtrip_ms_p95", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// Fewest set-up samples behind the `setup_s` median; runs with fewer
/// searches time extra set-ups.
const MIN_SETUP_SAMPLES: usize = 5;

/// Salt separating the train/test split stream from the search seed.
const SPLIT_SALT: u64 = 0x5eed_0011;

/// One seeded co-design search configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name, as given on the command line.
    pub name: &'static str,
    /// Dataset the inputs are generated from.
    pub benchmark: Benchmark,
    /// Generated samples (25% are held out as the test split).
    pub samples: usize,
    /// Hardware target.
    pub target: HwTarget,
    /// Search space.
    pub space: SearchSpace,
    /// Population size.
    pub population: usize,
    /// Unique-evaluation budget of one search.
    pub evaluations: usize,
    /// Evaluate on one loopback cluster worker and checkpoint after
    /// every unique evaluation.
    pub remote: bool,
    /// Seconds one set-up plus search took on the 2-core host the
    /// benchmark was sized on. It only fixes how many searches a run of
    /// a given length makes; nothing is compared against it.
    pub nominal_s: f64,
}

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Workload> {
        let creditg = Workload {
            name: "creditg-fpga",
            benchmark: Benchmark::CreditG,
            samples: 1_000,
            target: HwTarget::Fpga(FpgaDevice::arria10_gx1150(1)),
            space: SearchSpace::fpga_default()
                .with_neurons(4, 64)
                .with_layers(1, 3),
            population: 16,
            evaluations: 60,
            remote: false,
            nominal_s: 0.9,
        };
        match name {
            "creditg-fpga" => Some(creditg),
            "creditg-cluster-ckpt" => Some(Workload {
                name: "creditg-cluster-ckpt",
                remote: true,
                nominal_s: 1.25,
                ..creditg
            }),
            "har-gpu" => Some(Workload {
                name: "har-gpu",
                benchmark: Benchmark::Har,
                samples: 1_200,
                target: HwTarget::Gpu(GpuDevice::titan_x()),
                space: SearchSpace::gpu_default()
                    .with_neurons(16, 192)
                    .with_layers(1, 3),
                population: 8,
                evaluations: 12,
                remote: false,
                nominal_s: 4.5,
            }),
            _ => None,
        }
    }

    /// The same workload cut to a smoke-test budget.
    pub fn smoke(self) -> Workload {
        Workload {
            samples: self.samples.min(200),
            population: 4,
            evaluations: 8,
            ..self
        }
    }

    /// How many searches a run of `seconds` makes: at least one. With
    /// `traced` each search runs twice, untraced and traced. The count
    /// depends only on the arguments, so a seed always measures the same
    /// inputs.
    pub fn searches(&self, seconds: f64, traced: bool) -> usize {
        let runs_each = if traced { 2.0 } else { 1.0 };
        ((seconds / (runs_each * self.nominal_s)).floor() as usize).max(1)
    }

    /// The same search evaluated in process, without cluster or
    /// checkpoint.
    fn local(&self) -> Workload {
        Workload {
            remote: false,
            ..self.clone()
        }
    }

    fn generate(&self, seed: u64) -> Dataset {
        benchmarks::load(self.benchmark)
            .with_samples(self.samples)
            .with_seed(seed)
            .generate()
    }

    fn evolution(&self, seed: u64) -> EvolutionConfig {
        EvolutionConfig {
            population: self.population,
            evaluations: self.evaluations,
            seed,
            threads: 1,
            ..EvolutionConfig::small()
        }
    }
}

/// The per-candidate trainer of every workload: the fast search trainer
/// cut to 10 epochs with patience 3, on one GEMM lane.
pub fn trainer() -> TrainConfig {
    TrainConfig {
        epochs: 10,
        patience: 3,
        gemm_threads: 1,
        ..TrainConfig::fast()
    }
}

/// Runs `f` inside a benchmark-side span `name` of `prof` (when tracing)
/// and returns its result with its wall time in seconds.
fn timed<T>(prof: Option<&Profiler>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = prof.map(|p| p.enter(name));
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Everything before `Search::run`.
struct Setup {
    train: Dataset,
    test: Dataset,
    server: Option<WorkerServer>,
    seconds: f64,
}

/// Generates the dataset from the seed, splits and standardizes it, and
/// binds the loopback worker of a remote workload.
fn setup(w: &Workload, seed: u64, prof: Option<&Profiler>) -> Result<Setup, String> {
    let start = Instant::now();
    let (data, _) = timed(prof, "dataset.generate", || w.generate(seed));
    let ((train, test), _) = timed(prof, "dataset.prepare", || {
        let mut rng = StdRng::seed_from_u64(seed ^ SPLIT_SALT);
        let (train, test) = data.split(0.25, &mut rng);
        scaler::standardize_pair(&train, &test)
    });
    let server = if w.remote {
        let (bound, _) = timed(prof, "worker.bind", || {
            WorkerServer::bind("127.0.0.1:0", WorkerOptions::default(), Obs::disabled())
        });
        Some(bound.map_err(|e| format!("binding the loopback worker: {e}"))?)
    } else {
        None
    };
    Ok(Setup {
        train,
        test,
        server,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// A bound worker serving on its own thread.
struct LoopbackWorker {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl LoopbackWorker {
    fn serve(server: WorkerServer) -> Result<LoopbackWorker, String> {
        let addr = server
            .local_addr()
            .map_err(|e| format!("loopback worker address: {e}"))?
            .to_string();
        let stop = server.stop_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(LoopbackWorker { addr, stop, thread })
    }

    /// Stops the worker (a finished search has already sent it
    /// `kill_all`) and waits for its thread.
    fn finish(self) -> Result<(), String> {
        self.stop.store(true, Ordering::Release);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("loopback worker: {e}")),
            Err(_) => Err("loopback worker panicked".to_string()),
        }
    }
}

/// Counts the engine's per-write `checkpoint` events without keeping
/// any event; clones share the count.
#[derive(Default, Clone)]
struct CheckpointEvents(Arc<AtomicU64>);

impl Sink for CheckpointEvents {
    fn record(&self, event: &Event) {
        if event.name == "checkpoint" {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A directory inside the working directory for a remote search's
/// checkpoint files, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> Result<ScratchDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = PathBuf::from(".codesign_bench_tmp").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    fn checkpoint(&self) -> PathBuf {
        self.0.join("checkpoint.json")
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails while another run still uses it, which is fine.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What the benchmark measured on the final checkpoint of a remote run.
#[derive(Debug, Clone)]
pub struct CheckpointProbe {
    /// Size of the final checkpoint file.
    pub bytes: u64,
    /// Whether the file loads, validates against the run configuration
    /// and holds the run's trace.
    pub verdict: Result<(), String>,
}

/// One timed search with everything the checks and metrics need.
pub struct Repetition {
    /// Set-up seconds: generation, split, standardization, worker bind.
    pub setup_s: f64,
    /// Wall seconds of `Search::run`.
    pub search_wall_s: f64,
    /// The search's result.
    pub result: SearchResult,
    /// Share of the most frequent class in the test split.
    pub majority_rate: f64,
    /// Worker health of a remote run.
    pub health: Option<Arc<ClusterHealth>>,
    /// Final-checkpoint probe of a remote run.
    pub checkpoint: Option<CheckpointProbe>,
    /// `checkpoint` events the engine emitted (traced runs only).
    pub checkpoint_writes: u64,
    /// Wall-clock profile tree (traced runs only).
    pub profile: Option<ProfileNode>,
}

/// Sets up and runs one search of `w` at `seed`; `traced` attaches a
/// wall-clock profiler and the metrics registry.
///
/// # Errors
///
/// Infrastructure failures (binding the worker, the scratch directory);
/// wrong results are reported by [`check`] instead.
pub fn run_once(w: &Workload, seed: u64, traced: bool) -> Result<Repetition, String> {
    let prof = traced.then(|| Profiler::with_root(ClockKind::Wall, "bench"));
    let setup = setup(w, seed, prof.as_ref())?;
    let majority_rate = majority_rate(&setup.test);
    let events = CheckpointEvents::default();
    let mut search = Search::with_split(&setup.train, &setup.test)
        .without_standardization()
        .target(w.target.clone())
        .space(w.space.clone())
        .objectives(ObjectiveSet::accuracy_and_throughput())
        .population(w.population)
        .evaluations(w.evaluations)
        .seed(seed)
        .threads(1)
        .trainer(trainer());
    if let Some(p) = &prof {
        search = search.obs(
            Obs::builder()
                .sink(events.clone())
                .profiler(p.clone())
                .build(),
        );
    }
    let mut worker = None;
    let mut health = None;
    let mut scratch = None;
    if let Some(server) = setup.server {
        let dir = ScratchDir::create()?;
        let lw = LoopbackWorker::serve(server)?;
        let h = Arc::new(ClusterHealth::new(std::slice::from_ref(&lw.addr)));
        search = search
            .cluster(ClusterOptions {
                workers: vec![lw.addr.clone()],
                ..ClusterOptions::default()
            })
            .cluster_health(Arc::clone(&h))
            .checkpoint(CheckpointPolicy::new(dir.checkpoint(), 1));
        worker = Some(lw);
        health = Some(h);
        scratch = Some(dir);
    }
    let (result, search_wall_s) = timed(prof.as_ref(), "search", || search.run());
    if let Some(lw) = worker {
        lw.finish()?;
    }
    let checkpoint = scratch
        .as_ref()
        .map(|dir| probe_checkpoint(w, seed, &result, &dir.checkpoint(), prof.as_ref()));
    Ok(Repetition {
        setup_s: setup.seconds,
        search_wall_s,
        result,
        majority_rate,
        health,
        checkpoint,
        checkpoint_writes: events.0.load(Ordering::Relaxed),
        profile: prof.map(|p| p.report()),
    })
}

/// Loads the final checkpoint, validates it against the run's
/// configuration, compares its trace with the run's, and saves it
/// again — the load and save inside benchmark spans.
fn probe_checkpoint(
    w: &Workload,
    seed: u64,
    result: &SearchResult,
    path: &Path,
    prof: Option<&Profiler>,
) -> CheckpointProbe {
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let (loaded, _) = timed(prof, "checkpoint.load", || CheckpointState::load(path));
    let verdict = loaded
        .map_err(|e| format!("final checkpoint does not load: {e}"))
        .and_then(|state| {
            state
                .validate(&w.evolution(seed))
                .map_err(|e| format!("final checkpoint does not validate: {e}"))?;
            let held = digest(state.trace.iter().map(|(g, m)| (g, m)));
            if state.trace.len() != result.trace().len() || held != result_digest(result) {
                return Err("final checkpoint does not hold the run's trace".to_string());
            }
            let (saved, _) = timed(prof, "checkpoint.save", || {
                state.save(&path.with_extension("resaved.json"))
            });
            saved.map_err(|e| format!("checkpoint does not save again: {e}"))
        });
    CheckpointProbe { bytes, verdict }
}

fn majority_rate(test: &Dataset) -> f64 {
    let mut counts = vec![0usize; test.n_classes()];
    for &label in test.labels() {
        counts[label] += 1;
    }
    counts.into_iter().max().unwrap_or(0) as f64 / test.len().max(1) as f64
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into FNV-1a state `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a digest of a trace: each candidate's genome, feasibility,
/// accuracy bits and hardware-metric bits, in trace order.
pub fn digest<'a>(trace: impl IntoIterator<Item = (&'a CandidateGenome, &'a Measurement)>) -> u64 {
    trace.into_iter().fold(FNV_OFFSET, |mut h, (genome, m)| {
        h = fnv(h, genome.describe().as_bytes());
        h = fnv(h, &[u8::from(m.hw.is_feasible())]);
        h = fnv(h, &m.accuracy.to_bits().to_le_bytes());
        for v in [
            m.hw.outputs_per_s(),
            m.hw.efficiency(),
            m.hw.latency_s(),
            m.hw.power_w(),
        ] {
            h = fnv(h, &v.to_bits().to_le_bytes());
        }
        h
    })
}

/// Seed of a run's `i`-th search: the SplitMix64 finalizer of the run
/// seed mixed with `i`. The finalizer is a bijection, so runs with
/// nearby seeds share no search.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`digest`] of a search result's trace.
pub fn result_digest(result: &SearchResult) -> u64 {
    digest(result.trace().iter().map(|e| (&e.genome, &e.measurement)))
}

/// Test accuracy of the most accurate feasible candidate.
pub fn best_accuracy(result: &SearchResult) -> Option<f64> {
    result
        .best_by_accuracy()
        .map(|e| f64::from(e.measurement.accuracy))
}

/// Hypervolume of the feasible candidates' oriented objective values in
/// a fresh Pareto archive (the unit box after the archive's squashing).
pub fn hypervolume(result: &SearchResult) -> f64 {
    let mut archive = ParetoArchive::new();
    for e in result.trace() {
        if e.measurement.hw.is_feasible() {
            archive.insert(&result.objectives().oriented_values(&e.measurement));
        }
    }
    archive.hypervolume()
}

/// The output checks of one repetition; returns every failure. `want`,
/// when given, is the digest the repetition must reproduce.
pub fn check(w: &Workload, rep: &Repetition, want: Option<u64>) -> Vec<String> {
    let mut failures = Vec::new();
    let stats = rep.result.stats();
    let done = rep.result.trace().len();
    if rep.result.halted() || done != w.evaluations || stats.models_evaluated != w.evaluations {
        failures.push(format!(
            "budget not met: {done} of {} unique evaluations",
            w.evaluations
        ));
    }
    let retried = stats.retry_count + stats.timeout_count + stats.respawn_count;
    if retried > 0 {
        failures.push(format!(
            "{} retries, {} timeouts, {} respawns",
            stats.retry_count, stats.timeout_count, stats.respawn_count
        ));
    }
    if let Some(health) = &rep.health {
        let lost = health
            .snapshot()
            .iter()
            .filter(|s| s.state == WorkerState::Lost)
            .count();
        if lost > 0 || health.degraded() {
            failures.push(format!(
                "{lost} worker(s) lost, degraded: {}",
                health.degraded()
            ));
        }
    }
    match best_accuracy(&rep.result) {
        Some(acc) if acc > rep.majority_rate => {}
        acc => failures.push(format!(
            "best accuracy {acc:?} does not beat the majority-class rate {}",
            rep.majority_rate
        )),
    }
    let got = result_digest(&rep.result);
    match want {
        Some(want) if want != got => {
            failures.push(format!("result digest {got:016x} differs from {want:016x}"));
        }
        _ => {}
    }
    if let Some(CheckpointProbe {
        verdict: Err(e), ..
    }) = &rep.checkpoint
    {
        failures.push(e.clone());
    }
    failures
}

/// Sums of one profile node name over the whole tree.
#[derive(Debug, Default, Clone, Copy)]
struct NodeSum {
    total_ns: u64,
    self_ns: u64,
    calls: u64,
}

#[derive(Default)]
struct Tally {
    by_name: BTreeMap<String, NodeSum>,
    /// Self time of `forward`/`backward` inside a training epoch.
    step_glue_ns: u64,
    /// Total time of `forward` outside a training epoch (evaluation).
    eval_forward_ns: u64,
}

impl Tally {
    fn of(profile: &ProfileNode) -> Tally {
        let mut t = Tally::default();
        t.walk(profile, "");
        t
    }

    fn walk(&mut self, node: &ProfileNode, parent: &str) {
        let sum = self.by_name.entry(node.name.clone()).or_default();
        sum.total_ns += node.total_ns;
        sum.self_ns += node.self_ns;
        sum.calls += node.calls;
        let in_epoch = parent == "epoch";
        match node.name.as_str() {
            "forward" | "backward" if in_epoch => self.step_glue_ns += node.self_ns,
            "forward" => self.eval_forward_ns += node.total_ns,
            _ => {}
        }
        for child in &node.children {
            self.walk(child, &node.name);
        }
    }

    fn get(&self, names: &[&str]) -> NodeSum {
        names.iter().fold(NodeSum::default(), |acc, n| {
            let s = self.by_name.get(*n).copied().unwrap_or_default();
            NodeSum {
                total_ns: acc.total_ns + s.total_ns,
                self_ns: acc.self_ns + s.self_ns,
                calls: acc.calls + s.calls,
            }
        })
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

fn median(samples: &[f64]) -> f64 {
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-layer metrics of one traced repetition, except the evaluation
/// quantiles and `obs.trace_overhead_pct`, which pool repetitions.
fn layer_metrics(rep: &Repetition) -> BTreeMap<&'static str, f64> {
    let t = rep.profile.as_ref().map(Tally::of).unwrap_or_default();
    let stats = rep.result.stats();
    let trace = rep.result.trace();
    let wall = rep.search_wall_s;

    let gemm_fwd = t.get(&["gemm", "gemm_bias"]);
    let gemm_bwd = t.get(&["gemm_at_b", "gemm_a_bt"]);
    let gemm_calls = gemm_fwd.calls + gemm_bwd.calls;
    let epoch = t.get(&["epoch"]);
    let minibatches = t.get(&["backward"]).calls;
    // Remote workers profile without the evaluator's `hw_model` span;
    // there the model kernels' own nodes stand in.
    let hw = match t.get(&["hw_model"]) {
        s if s.calls > 0 => s,
        _ => t.get(&["fpga_model", "gpu_model", "cpu_model"]),
    };
    let infeasible: Vec<&Measurement> = trace
        .iter()
        .map(|e| &e.measurement)
        .filter(|m| !m.hw.is_feasible())
        .collect();
    let latency = stats.worker_latency.first();
    let ck = rep.checkpoint.as_ref();

    BTreeMap::from([
        (
            "dataset.generate_s",
            secs(t.get(&["dataset.generate"]).total_ns),
        ),
        (
            "dataset.prepare_s",
            secs(t.get(&["dataset.prepare"]).total_ns),
        ),
        ("tensor.gemm_fwd_s", secs(gemm_fwd.self_ns)),
        ("tensor.gemm_bwd_s", secs(gemm_bwd.self_ns)),
        ("tensor.gemm_calls", gemm_calls as f64),
        (
            "tensor.gemm_us_per_call",
            ratio(
                secs(gemm_fwd.self_ns + gemm_bwd.self_ns) * 1e6,
                gemm_calls as f64,
            ),
        ),
        ("mlp.activation_s", secs(t.get(&["activation"]).self_ns)),
        ("mlp.layer_glue_s", secs(t.step_glue_ns)),
        ("mlp.step_other_s", secs(epoch.self_ns)),
        ("mlp.eval_forward_s", secs(t.eval_forward_ns)),
        ("mlp.epochs", epoch.calls as f64),
        ("mlp.minibatches", minibatches as f64),
        (
            "mlp.us_per_minibatch",
            ratio(secs(epoch.total_ns) * 1e6, minibatches as f64),
        ),
        ("hw.model_s", secs(hw.total_ns)),
        ("hw.model_calls", hw.calls as f64),
        (
            "hw.infeasible_ratio",
            ratio(infeasible.len() as f64, trace.len() as f64),
        ),
        (
            "hw.infeasible_train_s",
            infeasible.iter().map(|m| m.train_time_s).sum(),
        ),
        ("workers.eval_s_mean", stats.avg_eval_time_s),
        ("workers.train_s", stats.train_time_s),
        ("workers.hw_s", stats.hw_time_s),
        ("workers.train_share", ratio(stats.train_time_s, wall)),
        ("engine.outside_eval_s", wall - stats.total_eval_time_s),
        ("engine.breed_s", secs(t.get(&["breed"]).total_ns)),
        ("engine.dispatch_s", secs(t.get(&["dispatch"]).total_ns)),
        ("engine.replace_s", secs(t.get(&["replace"]).total_ns)),
        ("engine.bred", t.get(&["breed"]).calls as f64),
        (
            "engine.cache_hit_ratio",
            ratio(
                stats.cache_hits as f64,
                (stats.cache_hits + stats.models_evaluated) as f64,
            ),
        ),
        ("checkpoint.writes", rep.checkpoint_writes as f64),
        ("checkpoint.bytes", ck.map_or(0.0, |c| c.bytes as f64)),
        (
            "checkpoint.save_ms",
            secs(t.get(&["checkpoint.save"]).total_ns) * 1e3,
        ),
        (
            "checkpoint.load_ms",
            secs(t.get(&["checkpoint.load"]).total_ns) * 1e3,
        ),
        (
            "cluster.roundtrip_ms_p50",
            latency.map_or(0.0, |l| l.p50_s * 1e3),
        ),
        (
            "cluster.roundtrip_ms_p95",
            latency.map_or(0.0, |l| l.p95_s * 1e3),
        ),
    ])
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading the peak resident set: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The commit of the working directory's git checkout, read from
/// `.git` directly; `none` outside a checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Outcome of one invocation.
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Unique evaluations run.
    pub attempted: usize,
    /// Unique evaluations of searches that failed a check.
    pub failed: usize,
    /// Metric name, unit and value, in declaration order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Provenance header: key and value.
    pub provenance: Vec<(&'static str, String)>,
    /// Every failed check.
    pub failures: Vec<String>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .fold(Json::object(), |acc, (name, unit, value)| {
                acc.insert(
                    name,
                    Json::object().insert("value", *value).insert("unit", *unit),
                )
            });
        Json::object()
            .insert("correct", self.correct)
            .insert("attempted", self.attempted)
            .insert("failed", self.failed)
            .insert("metrics", metrics)
    }
}

/// Runs a run's searches, checks each one and counts operations.
struct Ledger {
    seeds: Vec<u64>,
    /// Digest of each search's first run; every later run of the same
    /// search must reproduce it.
    digests: Vec<Option<u64>>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Ledger {
    fn new(seed: u64, searches: usize) -> Ledger {
        Ledger {
            seeds: (0..searches).map(|i| sub_seed(seed, i)).collect(),
            digests: vec![None; searches],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Runs search `i` of `w` and checks it.
    fn search(&mut self, w: &Workload, i: usize, traced: bool) -> Result<Repetition, String> {
        let seed = self.seeds[i];
        let rep = run_once(w, seed, traced)?;
        let failures = check(w, &rep, self.digests[i]);
        self.digests[i].get_or_insert(result_digest(&rep.result));
        self.attempted += w.evaluations;
        if !failures.is_empty() {
            self.failed += w.evaluations;
            let label = format!(
                "{} search {i} (seed {seed})",
                if w.remote { "remote" } else { "in-process" }
            );
            self.failures
                .extend(failures.into_iter().map(|f| format!("{label}: {f}")));
        }
        Ok(rep)
    }
}

fn mean(samples: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = samples
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    ratio(sum, n as f64)
}

/// Runs workload `w` at `seed` for about `seconds`: the
/// [`Workload::searches`] searches of seeds [`sub_seed`]`(seed, i)`,
/// each untraced or, with `traced`, once untraced and once traced.
/// Checks every search and reports the end-to-end metrics, or with
/// `traced` the per-layer metrics. A remote workload first runs its
/// first search in process: the remote one must reproduce it.
///
/// # Errors
///
/// Infrastructure failures; see [`run_once`].
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    ecad_tensor::gemm::set_threads(1);
    let searches = w.searches(seconds, traced);
    let mut ledger = Ledger::new(seed, searches);
    if w.remote {
        ledger.search(&w.local(), 0, false)?;
    }
    // Untraced searches' training and wall seconds.
    let (mut train_s, mut wall_s) = (0.0, 0.0);
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    if traced {
        let mut per_rep = Vec::new();
        let mut eval_s = Vec::new();
        let mut traced_wall_s = 0.0;
        for i in 0..searches {
            // Alternate which twin runs first, so warm-up and drift do
            // not bias the overhead.
            for with_trace in [i % 2 == 1, i % 2 == 0] {
                let rep = ledger.search(w, i, with_trace)?;
                if with_trace {
                    per_rep.push(layer_metrics(&rep));
                    eval_s.extend(rep.result.trace().iter().map(|e| e.measurement.eval_time_s));
                    traced_wall_s += rep.search_wall_s;
                } else {
                    train_s += rep.result.stats().train_time_s;
                    wall_s += rep.search_wall_s;
                }
            }
        }
        for name in per_rep[0].keys() {
            metrics.insert(name, mean(per_rep.iter().map(|r| r[name])));
        }
        metrics.insert("workers.eval_ms_p50", quantile(&eval_s, 0.50) * 1e3);
        metrics.insert("workers.eval_ms_p95", quantile(&eval_s, 0.95) * 1e3);
        metrics.insert(
            "obs.trace_overhead_pct",
            (ratio(traced_wall_s, wall_s) - 1.0) * 100.0,
        );
    } else {
        let (mut setups, mut accuracy, mut volume) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..searches {
            let rep = ledger.search(w, i, false)?;
            setups.push(rep.setup_s);
            train_s += rep.result.stats().train_time_s;
            wall_s += rep.search_wall_s;
            accuracy.push(best_accuracy(&rep.result).unwrap_or(0.0));
            volume.push(hypervolume(&rep.result));
        }
        while setups.len() < MIN_SETUP_SAMPLES {
            setups.push(setup(w, ledger.seeds[0], None)?.seconds);
        }
        metrics.insert("setup_s", median(&setups));
        metrics.insert("search_wall_s", wall_s / searches as f64);
        metrics.insert("peak_rss_mb", peak_rss_mib()?);
        metrics.insert("best_accuracy", mean(accuracy));
        metrics.insert("hypervolume", mean(volume));
    }
    let declared: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics = declared
        .iter()
        .map(|&(name, unit)| {
            metrics
                .get(name)
                .map(|v| (name, unit, *v))
                .ok_or_else(|| format!("metric {name} was not measured"))
        })
        .collect::<Result<Vec<_>, String>>()?;

    let run_digest = ledger
        .digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv(h, &d.unwrap_or(0).to_le_bytes()));
    let trainer = trainer();
    let provenance = vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("git_rev", git_rev()),
        ("workload", w.name.to_string()),
        ("seed", seed.to_string()),
        (
            "budget",
            format!(
                "{searches} searches{} of {} unique evaluations, population {}, \
                 {} samples, {} epochs, patience {}, engine threads 1, gemm lanes {}",
                if traced {
                    " (each untraced and traced)"
                } else {
                    ""
                },
                w.evaluations,
                w.population,
                w.samples,
                trainer.epochs,
                trainer.patience,
                trainer.gemm_threads,
            ),
        ),
        ("result_digest", format!("{run_digest:016x}")),
        ("workers.train_share", ratio(train_s, wall_s).to_string()),
    ];
    Ok(Report {
        correct: ledger.failures.is_empty(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        provenance,
        failures: ledger.failures,
    })
}
