//! High-level search drivers.
//!
//! [`Search`] is the fluent front door: point it at a dataset, choose a
//! hardware target and objectives, and run. It wires together the
//! dataset split, standardization, the evaluator, and the engine, and
//! wraps the outcome in a [`SearchResult`] with the analyses the paper's
//! tables and figures need (best-by-accuracy, Pareto front, trace
//! series).

use std::sync::Arc;
use std::time::Duration;

use ecad_dataset::{scaler, Dataset};
use ecad_hw::fpga::FpgaDevice;
use ecad_mlp::TrainConfig;
use rt::rand::rngs::StdRng;
use rt::rand::SeedableRng;
use rt::supervise::ShutdownFlag;

use crate::analytics::StatusCell;
use crate::checkpoint::{CheckpointError, CheckpointPolicy, CheckpointState};
use crate::cluster::{ClusterHealth, ClusterOptions, ClusterPlan, SetupPayload};
use crate::config::FlowConfig;
use crate::engine::{Engine, EngineOutcome, EngineStats, Evaluated, EvolutionConfig};
use crate::fitness::ObjectiveSet;
use crate::pareto;
use crate::space::{HwFamily, SearchSpace};
use crate::workers::{CodesignEvaluator, HwTarget};

/// One point of the evolutionary trace, in the shape the paper's
/// scatter figures plot (accuracy vs outputs/s, §IV-B).
#[derive(Debug, Clone, PartialEq)]
pub struct TracePoint {
    /// Evaluation index (x-axis of convergence plots).
    pub index: usize,
    /// Test accuracy.
    pub accuracy: f32,
    /// Outputs per second on the target hardware.
    pub outputs_per_s: f64,
    /// Hardware efficiency (effective / potential).
    pub efficiency: f64,
    /// Total hidden neurons.
    pub neurons: usize,
    /// Whether the hardware genes were feasible.
    pub feasible: bool,
    /// Canonical genome description.
    pub genome: String,
}

impl rt::json::ToJson for TracePoint {
    fn to_json(&self) -> rt::json::Json {
        rt::json::Json::object()
            .insert("index", self.index)
            .insert("accuracy", self.accuracy)
            .insert("outputs_per_s", self.outputs_per_s)
            .insert("efficiency", self.efficiency)
            .insert("neurons", self.neurons)
            .insert("feasible", self.feasible)
            .insert("genome", &self.genome)
    }
}

/// The outcome of a co-design search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    outcome: EngineOutcome,
    objectives: ObjectiveSet,
    target_name: String,
}

impl SearchResult {
    /// Run-time statistics (Table III shape).
    pub fn stats(&self) -> EngineStats {
        self.outcome.stats.clone()
    }

    /// True when the run stopped early (shutdown request or halt
    /// boundary) rather than exhausting its evaluation budget.
    pub fn halted(&self) -> bool {
        self.outcome.halted
    }

    /// Device the search targeted.
    pub fn target_name(&self) -> &str {
        &self.target_name
    }

    /// All unique evaluations in completion order.
    pub fn trace(&self) -> &[Evaluated] {
        &self.outcome.trace
    }

    /// The highest-fitness candidate.
    pub fn best(&self) -> Option<&Evaluated> {
        self.outcome.best()
    }

    /// The feasible candidate with the highest test accuracy.
    pub fn best_by_accuracy(&self) -> Option<&Evaluated> {
        self.outcome
            .trace
            .iter()
            .filter(|e| e.measurement.hw.is_feasible())
            .max_by(|a, b| {
                a.measurement
                    .accuracy
                    .partial_cmp(&b.measurement.accuracy)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Feasible candidates on the accuracy-vs-throughput Pareto front,
    /// sorted by descending accuracy (the Table IV view).
    pub fn pareto_accuracy_throughput(&self) -> Vec<&Evaluated> {
        let feasible: Vec<&Evaluated> = self
            .outcome
            .trace
            .iter()
            .filter(|e| e.measurement.hw.is_feasible())
            .collect();
        let points: Vec<Vec<f64>> = feasible
            .iter()
            .map(|e| {
                vec![
                    e.measurement.accuracy as f64,
                    e.measurement.hw.outputs_per_s(),
                ]
            })
            .collect();
        let mut front: Vec<&Evaluated> = pareto::pareto_front(&points)
            .into_iter()
            .map(|i| feasible[i])
            .collect();
        front.sort_by(|a, b| {
            b.measurement
                .accuracy
                .partial_cmp(&a.measurement.accuracy)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        front
    }

    /// The trace as plottable points.
    pub fn trace_points(&self) -> Vec<TracePoint> {
        self.outcome
            .trace
            .iter()
            .enumerate()
            .map(|(i, e)| TracePoint {
                index: i,
                accuracy: e.measurement.accuracy,
                outputs_per_s: e.measurement.hw.outputs_per_s(),
                efficiency: e.measurement.hw.efficiency(),
                neurons: e.measurement.neurons,
                feasible: e.measurement.hw.is_feasible(),
                genome: e.genome.describe(),
            })
            .collect()
    }

    /// The objective set the search optimized.
    pub fn objectives(&self) -> &ObjectiveSet {
        &self.objectives
    }

    /// The full evaluation trace as CSV
    /// (`index,accuracy,outputs_per_s,efficiency,latency_s,neurons,params,feasible,fitness,genome`),
    /// one row per unique evaluation — the raw material for external
    /// plotting of the paper's scatter figures.
    pub fn trace_csv(&self) -> String {
        let mut out = String::from(
            "index,accuracy,outputs_per_s,efficiency,latency_s,neurons,params,feasible,fitness,genome\n",
        );
        for (i, e) in self.outcome.trace.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                i,
                e.measurement.accuracy,
                e.measurement.hw.outputs_per_s(),
                e.measurement.hw.efficiency(),
                e.measurement.hw.latency_s(),
                e.measurement.neurons,
                e.measurement.params,
                e.measurement.hw.is_feasible(),
                e.fitness,
                e.genome.describe()
            ));
        }
        out
    }
}

/// Fluent builder for a co-design search.
#[derive(Debug, Clone)]
pub struct Search {
    train: Dataset,
    test: Dataset,
    space: Option<SearchSpace>,
    target: HwTarget,
    objectives: ObjectiveSet,
    evolution: EvolutionConfig,
    trainer: TrainConfig,
    standardize: bool,
    presplit: bool,
    obs: rt::obs::Obs,
    checkpoint: Option<CheckpointPolicy>,
    halt_after: Option<usize>,
    resume_from: Option<CheckpointState>,
    shutdown: Option<ShutdownFlag>,
    status: Option<StatusCell>,
    cluster: Option<ClusterOptions>,
    cluster_health: Option<Arc<ClusterHealth>>,
}

impl Search {
    /// Starts a search on `dataset`, holding out 25% as the test split
    /// (seeded by the evolution seed at [`Search::run`] time: call
    /// [`Search::seed`] before `run` for reproducibility).
    ///
    /// Defaults: Arria 10 (1 DDR bank) target, accuracy-only objective,
    /// small evolution budget, fast trainer, standardization on.
    pub fn on_dataset(dataset: &Dataset) -> Self {
        // The split is re-drawn at run() with the configured seed; stash
        // the full dataset in `train` for now.
        Self {
            train: dataset.clone(),
            test: dataset.clone(),
            space: None,
            target: HwTarget::Fpga(FpgaDevice::arria10_gx1150(1)),
            objectives: ObjectiveSet::accuracy_only(),
            evolution: EvolutionConfig::small(),
            trainer: TrainConfig::fast(),
            standardize: true,
            presplit: false,
            obs: rt::obs::Obs::disabled(),
            checkpoint: None,
            halt_after: None,
            resume_from: None,
            shutdown: None,
            status: None,
            cluster: None,
            cluster_health: None,
        }
    }

    /// Uses an explicit pre-made train/test split (the 1-fold MNIST
    /// protocol, or one fold of a 10-fold run).
    pub fn with_split(train: &Dataset, test: &Dataset) -> Self {
        let mut s = Self::on_dataset(train);
        s.test = test.clone();
        s.presplit = true;
        s
    }

    /// Builds a search from a parsed [`FlowConfig`] and a dataset.
    pub fn from_config(config: &FlowConfig, dataset: &Dataset) -> Self {
        let mut s = Self::on_dataset(dataset);
        s.space = Some(config.space.clone());
        s.target = config.target.clone();
        s.objectives = ObjectiveSet::new(config.objectives.clone());
        s.evolution = config.evolution;
        s.trainer = config.trainer;
        s
    }

    /// Sets the hardware target.
    pub fn target(mut self, target: HwTarget) -> Self {
        self.target = target;
        self
    }

    /// Sets the search space (defaults to the family-appropriate space).
    pub fn space(mut self, space: SearchSpace) -> Self {
        self.space = Some(space);
        self
    }

    /// Sets the objectives.
    pub fn objectives(mut self, objectives: ObjectiveSet) -> Self {
        self.objectives = objectives;
        self
    }

    /// Sets the unique-evaluation budget.
    pub fn evaluations(mut self, n: usize) -> Self {
        self.evolution.evaluations = n;
        self
    }

    /// Sets the population size.
    pub fn population(mut self, n: usize) -> Self {
        self.evolution.population = n;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.evolution.seed = seed;
        self
    }

    /// Sets the worker-thread count (1 = deterministic).
    pub fn threads(mut self, n: usize) -> Self {
        self.evolution.threads = n;
        self
    }

    /// Sets the survivor-selection strategy (weighted scalar by
    /// default; NSGA-II keeps a diverse Pareto frontier alive).
    pub fn selection(mut self, mode: crate::engine::SelectionMode) -> Self {
        self.evolution.selection = mode;
        self
    }

    /// Sets the per-candidate training configuration.
    pub fn trainer(mut self, cfg: TrainConfig) -> Self {
        self.trainer = cfg;
        self
    }

    /// Disables feature standardization (on by default).
    pub fn without_standardization(mut self) -> Self {
        self.standardize = false;
        self
    }

    /// Attaches an observability handle, threaded through the engine
    /// and evaluator: structured events flow to its sinks and run
    /// metrics (counters, per-stage timing histograms) land in its
    /// registry. Disabled by default.
    pub fn obs(mut self, obs: rt::obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Sets a per-evaluation wall-clock deadline. Evaluations that
    /// exceed it are abandoned, retried (up to the retry budget), and
    /// their worker slot is respawned.
    pub fn eval_timeout(mut self, timeout: Duration) -> Self {
        self.evolution.eval_timeout = Some(timeout);
        self
    }

    /// Sets the retry budget for transient failures (worker panics,
    /// deadline timeouts, transient evaluator verdicts).
    pub fn max_retries(mut self, n: usize) -> Self {
        self.evolution.max_retries = n;
        self
    }

    /// Sets the base retry backoff (doubled per attempt, jittered).
    pub fn retry_backoff(mut self, base: Duration) -> Self {
        self.evolution.retry_backoff = base;
        self
    }

    /// Attaches a checkpoint policy: the run's journal is written to the
    /// policy's path every `every` unique evaluations and on halt.
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Halts the search once the trace holds `n` unique evaluations
    /// (deterministic interruption for checkpoint/resume testing).
    pub fn halt_after(mut self, n: usize) -> Self {
        self.halt_after = Some(n);
        self
    }

    /// Resumes from a previously saved checkpoint instead of starting
    /// fresh. The checkpoint must match this search's seed, budget, and
    /// population capacity, and its journal must replay under this
    /// search's configuration; [`Search::try_run`] reports a mismatch as
    /// [`CheckpointError::Mismatch`].
    pub fn resume_from(mut self, state: CheckpointState) -> Self {
        self.resume_from = Some(state);
        self
    }

    /// Attaches a shared status cell that the engine updates as the run
    /// progresses (counters, latest epoch snapshot, lifecycle flags).
    /// Serve it over HTTP with [`crate::analytics::observatory`].
    pub fn status(mut self, status: StatusCell) -> Self {
        self.status = Some(status);
        self
    }

    /// Attaches a cooperative shutdown flag (e.g. wired to
    /// SIGINT/SIGTERM via
    /// [`ShutdownFlag::install_termination_handler`]). When it trips,
    /// the search stops at the next safe boundary and writes a final
    /// checkpoint if a policy is attached.
    pub fn shutdown_flag(mut self, flag: ShutdownFlag) -> Self {
        self.shutdown = Some(flag);
        self
    }

    /// Routes evaluation to remote cluster workers
    /// ([`crate::cluster`]): one engine slot per address in
    /// `options.workers`, each shipping this search's standardized
    /// split, trainer, device, space, and objectives in its session
    /// setup. Requires a catalog device (the wire protocol identifies
    /// targets by name). With an empty worker list the options are
    /// ignored and the search runs locally.
    pub fn cluster(mut self, options: ClusterOptions) -> Self {
        self.cluster = Some(options);
        self
    }

    /// Attaches a shared per-worker health registry
    /// ([`ClusterHealth`]): the engine's remote slots record state
    /// transitions and absorbed worker stats into it, and the
    /// `/workers` endpoint serves snapshots. Only meaningful together
    /// with [`Search::cluster`].
    pub fn cluster_health(mut self, health: Arc<ClusterHealth>) -> Self {
        self.cluster_health = Some(health);
        self
    }

    /// Runs the search.
    ///
    /// # Panics
    ///
    /// Panics if a checkpoint attached via [`Search::resume_from`] does
    /// not match this search's configuration; use [`Search::try_run`]
    /// to handle that case gracefully.
    pub fn run(self) -> SearchResult {
        self.try_run().expect("checkpoint matches search config")
    }

    /// Runs the search, reporting checkpoint mismatches as errors
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Mismatch`] when a checkpoint attached
    /// via [`Search::resume_from`] disagrees with this search's seed,
    /// evaluation budget, or population capacity, or has a journal line
    /// this search would not have written.
    pub fn try_run(self) -> Result<SearchResult, CheckpointError> {
        let (mut train, mut test) = if self.presplit {
            (self.train.clone(), self.test.clone())
        } else {
            let mut rng = StdRng::seed_from_u64(self.evolution.seed ^ 0x5eed_0011);
            self.train.split(0.25, &mut rng)
        };
        if self.standardize {
            let (tr, te) = scaler::standardize_pair(&train, &test);
            train = tr;
            test = te;
        }
        let space = self.space.clone().unwrap_or_else(|| match self.target {
            HwTarget::Fpga(_) => SearchSpace::fpga_default(),
            HwTarget::Gpu(_) | HwTarget::Cpu(_) => SearchSpace::gpu_default(),
        });
        let target_name = self.target.device_name().to_string();
        debug_assert!(
            matches!(
                (&self.target, space.family),
                (HwTarget::Fpga(_), HwFamily::Fpga)
                    | (HwTarget::Gpu(_) | HwTarget::Cpu(_), HwFamily::Gpu)
            ),
            "search space family must match the hardware target"
        );
        // The cluster plan ships the *standardized* split: remote
        // workers must see bit-identical features, or their
        // measurements (and the dedup cache keyed on them) would drift
        // from a local run's.
        let cluster_plan = self
            .cluster
            .as_ref()
            .filter(|o| !o.workers.is_empty())
            .map(|o| ClusterPlan {
                options: o.clone(),
                setup: SetupPayload {
                    seed: self.evolution.seed,
                    train: train.clone(),
                    test: test.clone(),
                    trainer: self.trainer,
                    target: self.target.clone(),
                    space: space.clone(),
                    objectives: self.objectives.clone(),
                    island_every: o.island_every,
                    island_k: o.island_k,
                    // Workers profile each evaluation under the same
                    // clock the coordinator's profiler uses, so their
                    // subtrees graft into one coherent master tree.
                    profile_clock: self
                        .obs
                        .profiler()
                        .map(|p| p.clock().name().to_string()),
                },
            });
        let evaluator = CodesignEvaluator::new(
            train,
            test,
            self.trainer,
            self.target.clone(),
            self.evolution.seed,
        )
        .with_obs(self.obs.clone());
        let mut engine = Engine::new(
            Arc::new(evaluator),
            space,
            self.objectives.clone(),
            self.evolution,
        )
        .with_obs(self.obs.clone());
        if let Some(policy) = self.checkpoint.clone() {
            engine = engine.with_checkpoint(policy);
        }
        if let Some(n) = self.halt_after {
            engine = engine.with_halt_after(n);
        }
        if let Some(flag) = self.shutdown.clone() {
            engine = engine.with_shutdown(flag);
        }
        if let Some(status) = self.status.clone() {
            engine = engine.with_status(status);
        }
        if let Some(plan) = cluster_plan {
            engine = engine.with_cluster(plan);
        }
        if let Some(health) = self.cluster_health.clone() {
            engine = engine.with_cluster_health(health);
        }
        let outcome = match self.resume_from {
            Some(state) => engine.resume(state)?,
            None => engine.run(),
        };
        Ok(SearchResult {
            outcome,
            objectives: self.objectives,
            target_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecad_dataset::synth::SyntheticSpec;
    use ecad_hw::gpu::GpuDevice;

    fn small_dataset() -> Dataset {
        SyntheticSpec::new("search-test", 150, 6, 2)
            .with_class_sep(3.0)
            .with_seed(0)
            .generate()
    }

    fn tiny_search(ds: &Dataset) -> Search {
        let mut trainer = TrainConfig::fast();
        trainer.epochs = 8;
        Search::on_dataset(ds)
            .space(
                SearchSpace::fpga_default()
                    .with_neurons(4, 32)
                    .with_layers(1, 2),
            )
            .evaluations(20)
            .population(8)
            .seed(1)
            .trainer(trainer)
    }

    #[test]
    fn search_runs_and_finds_feasible_candidates() {
        let ds = small_dataset();
        let result = tiny_search(&ds).run();
        assert_eq!(result.stats().models_evaluated, 20);
        let best = result.best_by_accuracy().expect("some feasible candidate");
        assert!(best.measurement.accuracy > 0.5);
        assert_eq!(result.target_name(), "Arria 10 GX 1150");
    }

    #[test]
    fn pareto_front_is_nonempty_and_sorted() {
        let ds = small_dataset();
        let result = tiny_search(&ds)
            .objectives(ObjectiveSet::accuracy_and_throughput())
            .run();
        let front = result.pareto_accuracy_throughput();
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].measurement.accuracy >= w[1].measurement.accuracy);
        }
        // No front member may dominate another.
        for a in &front {
            for b in &front {
                let better_acc = a.measurement.accuracy > b.measurement.accuracy;
                let better_thr =
                    a.measurement.hw.outputs_per_s() > b.measurement.hw.outputs_per_s();
                let geq_acc = a.measurement.accuracy >= b.measurement.accuracy;
                let geq_thr = a.measurement.hw.outputs_per_s() >= b.measurement.hw.outputs_per_s();
                assert!(
                    !(geq_acc && geq_thr && (better_acc || better_thr))
                        || std::ptr::eq(*a, *b)
                        || (a.measurement.accuracy == b.measurement.accuracy
                            && a.measurement.hw.outputs_per_s()
                                == b.measurement.hw.outputs_per_s())
                );
            }
        }
    }

    #[test]
    fn gpu_target_search() {
        let ds = small_dataset();
        let mut trainer = TrainConfig::fast();
        trainer.epochs = 8;
        let result = Search::on_dataset(&ds)
            .target(HwTarget::Gpu(GpuDevice::titan_x()))
            .evaluations(15)
            .population(6)
            .seed(2)
            .trainer(trainer)
            .run();
        assert_eq!(result.target_name(), "Titan X");
        assert!(result.best_by_accuracy().is_some());
    }

    #[test]
    fn trace_points_align_with_trace() {
        let ds = small_dataset();
        let result = tiny_search(&ds).run();
        let pts = result.trace_points();
        assert_eq!(pts.len(), result.trace().len());
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.index, i);
            assert_eq!(p.accuracy, result.trace()[i].measurement.accuracy);
        }
    }

    #[test]
    fn deterministic_for_seed_and_single_thread() {
        let ds = small_dataset();
        let a = tiny_search(&ds).run();
        let b = tiny_search(&ds).run();
        assert_eq!(
            a.best().unwrap().genome.describe(),
            b.best().unwrap().genome.describe()
        );
    }

    #[test]
    fn search_halt_and_resume_matches_uninterrupted() {
        let ds = small_dataset();
        let full = tiny_search(&ds).run();

        let dir = std::env::temp_dir().join("ecad-search-checkpoint");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("halt-resume-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let halted = tiny_search(&ds)
            .checkpoint(CheckpointPolicy::new(&path, 5))
            .halt_after(10)
            .run();
        assert!(halted.halted());
        assert_eq!(halted.trace().len(), 10);

        let state = CheckpointState::load(&path).unwrap();
        let resumed = tiny_search(&ds).resume_from(state).run();
        assert!(!resumed.halted());
        assert_eq!(resumed.trace().len(), full.trace().len());
        // Timing fields are wall-clock and differ between independent
        // runs; every deterministic field must agree.
        for (a, b) in full.trace().iter().zip(resumed.trace().iter()) {
            assert_eq!(a.genome, b.genome);
            assert_eq!(a.measurement.accuracy, b.measurement.accuracy);
            assert_eq!(a.measurement.hw, b.measurement.hw);
            assert_eq!(a.fitness, b.fitness);
        }
        assert_eq!(
            full.best().unwrap().genome.describe(),
            resumed.best().unwrap().genome.describe()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_with_wrong_seed_is_an_error() {
        let ds = small_dataset();
        let dir = std::env::temp_dir().join("ecad-search-checkpoint");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("wrong-seed-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let halted = tiny_search(&ds)
            .checkpoint(CheckpointPolicy::new(&path, 5))
            .halt_after(5)
            .run();
        assert!(halted.halted());

        let state = CheckpointState::load(&path).unwrap();
        let err = tiny_search(&ds).seed(99).resume_from(state).try_run();
        assert!(matches!(err, Err(CheckpointError::Mismatch(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn presplit_search_uses_given_split() {
        let ds = small_dataset();
        let mut rng = StdRng::seed_from_u64(9);
        let (train, test) = ds.split(0.3, &mut rng);
        let mut trainer = TrainConfig::fast();
        trainer.epochs = 6;
        let result = Search::with_split(&train, &test)
            .space(
                SearchSpace::fpga_default()
                    .with_neurons(4, 16)
                    .with_layers(1, 1),
            )
            .evaluations(8)
            .population(4)
            .trainer(trainer)
            .run();
        assert_eq!(result.stats().models_evaluated, 8);
    }
}
