//! The ECAD master process: steady-state evolution over a worker pool.
//!
//! "The Master process orchestrates the evaluation process by
//! distributing the co-design population and by evaluating the results"
//! (§III-A). The engine here is that master:
//!
//! * a **steady-state** population model \[16\]: one child is bred and
//!   one member replaced per step, rather than generational sweeps;
//! * **tournament selection** for parents and worst-of-tournament
//!   replacement for survivors;
//! * a **worker pool** over `rt::sync` channels — each worker thread owns
//!   a shared [`Evaluator`] and scores candidates concurrently;
//! * a **dedup cache**: "potential NNA/HW candidates are first analyzed
//!   for similarities to previous evaluations and duplicates are not
//!   evaluated twice" (Table III note). Cache hits cost no evaluation
//!   budget;
//! * **failure isolation**: a panicking evaluation is caught in the
//!   worker and surfaces as an infeasible measurement, not a crashed
//!   search;
//! * **deadlines and retries**: each dispatch runs under an optional
//!   per-evaluation deadline (`eval_timeout`); failures classified
//!   [`FailureKind::Transient`] (panics, timeouts, explicit transients)
//!   are retried with seeded jittered exponential backoff up to
//!   `max_retries`, while [`FailureKind::Permanent`] verdicts are
//!   cached and scored as-is;
//! * **worker supervision**: workers run in `rt::supervise` slots, so a
//!   slot whose evaluation stalls past its deadline is abandoned and
//!   respawned, and its late result (if any) is dropped as stale;
//! * **checkpoint/resume**: with a [`CheckpointPolicy`] attached, every
//!   verdict the master acts on is appended to a journal, written (with
//!   its fsync) after the next candidate is dispatched, and
//!   [`Engine::resume`] replays it through the loop's own code, so a
//!   seeded single-thread run continues byte-identically (§12);
//! * **one input stream**: the master acts only on verdicts — the
//!   results its slots, local or remote, return on one channel, and the
//!   deadlines it sets itself. Every job a slot receives comes back as
//!   a verdict: a remote slot whose worker is lost evaluates what its
//!   queue still holds in process, so a job never takes a second route
//!   and the master never polls.
//!
//! With `threads = 1` the whole search is deterministic for a fixed
//! seed; more threads trade determinism for wall-clock speed (result
//! arrival order feeds back into breeding).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rt::obs::{Counter, HistogramHandle, Obs};
use rt::rand::rngs::StdRng;
use rt::rand::{Rng, RngCore, SeedableRng};
use rt::supervise::{ShutdownFlag, SlotCtx, Supervisor};
use rt::sync::channel::{self, Receiver, Sender};

use crate::analytics::{
    register_epoch_metrics, AnalyticsConfig, EpochTracker, OperatorKind, StatusCell,
};
use crate::checkpoint::{
    CheckpointError, CheckpointPolicy, CheckpointState, JournalFile, JournalLine, Outcome,
    RunCounters,
};
use crate::cluster::{ClusterHealth, ClusterPlan, RemoteSlot};
use crate::fitness::ObjectiveSet;
use crate::genome::CandidateGenome;
use crate::measurement::{FailureKind, InfeasibleReason, Measurement};
use crate::protocol::{self, DispatchLedger, ResultClass};
use crate::space::SearchSpace;
use crate::workers::{evaluate_caught, Evaluator};

/// How the steady-state loop selects survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMode {
    /// Weighted-sum scalarization of the objective set (the paper's
    /// configuration-file fitness path). Cheap and effective when the
    /// weights express the intended trade.
    WeightedScalar,
    /// NSGA-II style survival: the child joins the population, then the
    /// individual with the worst (non-domination rank, crowding
    /// distance) is evicted. Maintains a diverse Pareto frontier without
    /// hand-tuned weights — an extension of the paper's Pareto analysis
    /// into the selection loop itself.
    Nsga2,
}

/// Steady-state GA hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolutionConfig {
    /// Population size.
    pub population: usize,
    /// Budget of *unique* model evaluations (cache hits are free),
    /// including the initial population.
    pub evaluations: usize,
    /// Tournament size for selection and replacement.
    pub tournament: usize,
    /// Probability a child is produced by crossover (otherwise a mutated
    /// copy of one parent).
    pub crossover_rate: f64,
    /// RNG seed for the whole search.
    pub seed: u64,
    /// Worker threads. `1` gives a deterministic search.
    pub threads: usize,
    /// Survivor-selection strategy.
    pub selection: SelectionMode,
    /// Per-evaluation deadline. A dispatch that has not reported by
    /// then is abandoned (its slot respawned) and treated as a
    /// transient failure. `None` disables deadlines.
    pub eval_timeout: Option<Duration>,
    /// How many times a transiently failed candidate (panic, timeout,
    /// explicit transient) is re-dispatched before its last verdict is
    /// accepted. Retries cost no unique-evaluation budget.
    pub max_retries: usize,
    /// Base delay before the first retry; doubles per attempt with
    /// ±50% deterministic jitter seeded from the search seed and the
    /// candidate's cache key.
    pub retry_backoff: Duration,
    /// Epoch analytics: snapshot cadence and stall-detector policy
    /// (see [`crate::analytics`]).
    pub analytics: AnalyticsConfig,
}

impl EvolutionConfig {
    /// Small-budget defaults suitable for interactive runs.
    pub fn small() -> Self {
        Self {
            population: 16,
            evaluations: 120,
            tournament: 3,
            crossover_rate: 0.5,
            seed: 0,
            threads: 1,
            selection: SelectionMode::WeightedScalar,
            eval_timeout: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(5),
            analytics: AnalyticsConfig::default(),
        }
    }
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// An evaluated candidate as held in the population and trace.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The candidate's genes.
    pub genome: CandidateGenome,
    /// Raw worker measurement.
    pub measurement: Measurement,
    /// Scalarized fitness (larger is better).
    pub fitness: f64,
}

/// Coordinator-observed latency estimate for one remote worker — the
/// hook for future speed-aware scheduling. Quantiles come from the
/// engine's per-worker log-histograms, so they cost nothing extra on
/// the hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerLatency {
    /// Worker address (`host:port`).
    pub addr: String,
    /// Successful jobs measured.
    pub jobs: u64,
    /// Median job round-trip, seconds (dispatch → evaluated).
    pub p50_s: f64,
    /// 95th-percentile job round-trip, seconds.
    pub p95_s: f64,
}

/// Run-time statistics in the shape of the paper's Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Unique NNA/HW combinations evaluated.
    pub models_evaluated: usize,
    /// Candidates served from the dedup cache instead of re-evaluating.
    pub cache_hits: usize,
    /// Sum of per-evaluation times, seconds (Table III "Total Evaluation
    /// Time").
    pub total_eval_time_s: f64,
    /// Mean per-evaluation time, seconds (Table III "AVG Model
    /// Evaluation Time").
    pub avg_eval_time_s: f64,
    /// Wall-clock time of the whole search, seconds.
    pub wall_time_s: f64,
    /// Unique evaluations that came back infeasible (device-fit,
    /// training failure, target mismatch, or worker panic).
    pub infeasible_count: usize,
    /// Sum of per-evaluation seconds spent in the simulation worker's
    /// training stage.
    pub train_time_s: f64,
    /// Sum of per-evaluation seconds spent in the hardware models.
    pub hw_time_s: f64,
    /// Transient failures (panics, timeouts, explicit transients) that
    /// were scheduled for another attempt.
    pub retry_count: usize,
    /// Dispatches abandoned because they missed their `eval_timeout`
    /// deadline.
    pub timeout_count: usize,
    /// Worker slots abandoned and relaunched after holding a timed-out
    /// claim.
    pub respawn_count: usize,
    /// Per-remote-worker latency estimates (empty on local runs and
    /// when the metrics registry is disabled).
    pub worker_latency: Vec<WorkerLatency>,
}

/// Everything a finished search produces.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Final population, unsorted.
    pub population: Vec<Evaluated>,
    /// Every unique evaluation, in completion order — the raw material
    /// for the paper's scatter plots and Pareto fronts.
    pub trace: Vec<Evaluated>,
    /// Run-time statistics.
    pub stats: EngineStats,
    /// True when the run stopped early — a shutdown request or
    /// `halt_after` boundary — rather than exhausting its budget. A
    /// halted run with a checkpoint policy attached has written a
    /// resumable checkpoint.
    pub halted: bool,
}

impl EngineOutcome {
    /// The member with the highest scalar fitness.
    pub fn best(&self) -> Option<&Evaluated> {
        self.trace.iter().max_by(|a, b| by_fitness(a, b))
    }
}

/// Orders candidates by scalar fitness, treating incomparable values as
/// equal (so `max_by` keeps the last of tied picks and `min_by` the
/// first).
fn by_fitness(a: &Evaluated, b: &Evaluated) -> std::cmp::Ordering {
    a.fitness
        .partial_cmp(&b.fitness)
        .unwrap_or(std::cmp::Ordering::Equal)
}

/// The steady-state evolutionary engine.
#[derive(Clone)]
pub struct Engine {
    evaluator: Arc<dyn Evaluator>,
    space: SearchSpace,
    objectives: ObjectiveSet,
    config: EvolutionConfig,
    obs: Obs,
    checkpoint: Option<CheckpointPolicy>,
    halt_after: Option<usize>,
    shutdown: ShutdownFlag,
    status: StatusCell,
    cluster: Option<ClusterPlan>,
}

/// The ledger payload: a unique submission's index (its journal key),
/// candidate, and the operator that bred it.
struct Submission {
    index: usize,
    genome: CandidateGenome,
    op: OperatorKind,
}

/// A submission with its attempt number (0 = first try).
type Attempt = protocol::Job<Submission>;

/// The engine's concrete ledger: wall-clock deadlines over the shared
/// protocol state machine (model checks instantiate the same machine
/// with virtual-time ticks).
type EngineLedger = DispatchLedger<Submission, Instant>;

/// A job on a slot queue: dispatch id and candidate.
type Job = (usize, CandidateGenome);

/// A slot's answer: dispatch id and verdict (the ledger holds the
/// candidate).
type Reply = (usize, Measurement);

/// Deterministic jittered exponential backoff: base × 2^(attempt−1),
/// scaled by a factor in [0.5, 1.5) drawn from an RNG seeded by the
/// search seed, the candidate's cache key, and the attempt number —
/// never from the master RNG, so retries leave the breeding sequence
/// untouched.
fn backoff_delay(cfg: &EvolutionConfig, key: u64, attempt: usize) -> Duration {
    let exp = attempt.saturating_sub(1).min(10) as u32;
    let base = cfg.retry_backoff.saturating_mul(1u32 << exp);
    let mut rng = StdRng::seed_from_u64(
        cfg.seed ^ key ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let factor = 0.5 + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(factor)
}

/// The job loop every evaluation slot runs, local or remote: receive,
/// claim, evaluate inside an `evaluate` span, release, send, until its
/// queue closes, the master hangs up, or its generation goes stale.
/// `evaluate` returns the verdict and whether the evaluation panicked.
/// The span enters the profile only on a thread that installed the
/// profiler.
fn slot_loop(
    ctx: &SlotCtx,
    jobs: &Receiver<Job>,
    results: &Sender<Reply>,
    obs: &Obs,
    mut evaluate: impl FnMut(usize, &CandidateGenome) -> (Measurement, bool),
) {
    while let Ok((id, genome)) = jobs.recv() {
        ctx.claim(id as u64);
        let span = rt::span!(obs, "evaluate", worker = ctx.slot(), id = id);
        let (m, panicked) = evaluate(id, &genome);
        if panicked {
            let reason = InfeasibleReason::WorkerPanic.kind();
            rt::warn!(obs, "infeasible", stage = "worker", reason = reason);
        }
        drop(span);
        ctx.release(id as u64);
        if results.send((id, m)).is_err() || !ctx.is_current() {
            return;
        }
    }
}

/// The evaluation slots and the channels the master drives them
/// through. Slots live in `rt::supervise` slots on detached threads: a
/// hung evaluation can be abandoned (scoped threads would force a join
/// that never returns). A local run has `threads` slots on one shared
/// queue. A cluster run has one remote slot per worker, each on its
/// own queue so jobs route deterministically (`id % workers`), giving
/// every worker a reproducible job stream — the property that makes
/// cross-wire profile subtrees byte-stable under the ticks clock. Every
/// job a slot receives comes back as a verdict: a slot whose worker is
/// lost evaluates what its queue still holds in process. Once every
/// worker is lost the run adds local slots on the shared queue.
struct Pool {
    supervisor: Supervisor,
    shared_tx: Sender<Job>,
    shared_rx: Receiver<Job>,
    results_tx: Sender<Reply>,
    results: Receiver<Reply>,
    acks_tx: Sender<()>,
    acks: Receiver<()>,
    remotes: Vec<Sender<Job>>,
    /// The cluster's worker states, which routing and *tend cluster*
    /// read (`None` on a local run).
    health: Option<Arc<ClusterHealth>>,
    /// Dispatches the fill phase keeps in flight: one per slot.
    depth: usize,
}

impl Pool {
    /// The channels, with no slot yet: a resumed run replays its journal
    /// before any slot, or remote session, starts.
    fn new(engine: &Engine) -> Self {
        let (shared_tx, shared_rx) = channel::unbounded();
        let (results_tx, results) = channel::unbounded();
        let (acks_tx, acks) = channel::unbounded();
        Self {
            supervisor: Supervisor::new(),
            shared_tx,
            shared_rx,
            results_tx,
            results,
            acks_tx,
            acks,
            remotes: Vec::new(),
            health: engine.cluster.as_ref().map(|p| Arc::clone(&p.health)),
            depth: 0,
        }
    }

    /// Spawns the slots: one remote slot per cluster worker, else
    /// `threads` local ones.
    fn spawn(&mut self, engine: &Engine) {
        match &engine.cluster {
            Some(plan) => {
                for index in 0..plan.options.workers.len() {
                    self.spawn_remote(engine, plan, index);
                }
                self.depth = self.remotes.len();
            }
            None => self.spawn_local(engine),
        }
    }

    /// Spawns `threads` local in-process slots on the shared queue: a
    /// local run's whole pool, or a cluster run's fallback once its last
    /// remote worker is lost.
    fn spawn_local(&mut self, engine: &Engine) {
        for _ in 0..engine.config.threads {
            let (jobs, results) = (self.shared_rx.clone(), self.results_tx.clone());
            let (evaluator, obs) = (Arc::clone(&engine.evaluator), engine.obs.clone());
            self.supervisor.spawn(move |ctx| {
                // The slot's `evaluate` span and the evaluator's spans
                // and kernel-level prof_span! sites (gemm, activation,
                // …) record under the engine's tree.
                let _prof_install = obs.profiler().map(|p| p.install());
                slot_loop(ctx, &jobs, &results, &obs, |_, genome| {
                    evaluate_caught(&*evaluator, genome)
                });
            });
        }
        self.depth = engine.config.threads;
    }

    /// Spawns the remote slot for worker `index`. Until its worker is
    /// lost the thread installs no profiler, so its `evaluate` span
    /// records no frame: the worker's own tick domain (grafted via
    /// `Profile` frames) stays the only profile this slot contributes,
    /// and the close event stays byte-identical to a local slot's. Once
    /// the worker's health cell reads `Lost` — a respawned slot may find
    /// it so — the slot evaluates what its queue still holds in process,
    /// profiled as a local slot is.
    fn spawn_remote(&mut self, engine: &Engine, plan: &ClusterPlan, index: usize) {
        let (tx, jobs) = channel::unbounded::<Job>();
        self.remotes.push(tx);
        let (results, acks) = (self.results_tx.clone(), self.acks_tx.clone());
        let (evaluator, obs) = (Arc::clone(&engine.evaluator), engine.obs.clone());
        let (plan, seed) = (plan.clone(), engine.config.seed);
        self.supervisor.spawn(move |ctx| {
            let mut remote = RemoteSlot::new(&plan, index, seed, &obs);
            let install = || obs.profiler().map(|p| p.install());
            let mut lost = plan.health.is_lost(index);
            let mut _prof_install = if lost { install() } else { None };
            slot_loop(ctx, &jobs, &results, &obs, |id, genome| {
                if lost {
                    return evaluate_caught(&*evaluator, genome);
                }
                let verdict = remote.evaluate(ctx.slot(), id, genome);
                lost = plan.health.is_lost(index);
                if lost {
                    _prof_install = install();
                }
                verdict
            });
            // The ack waits for the master to drop this slot's queue.
            remote.close();
            let _ = acks.send(());
        });
    }

    /// Routes one dispatched job. A cluster job goes to remote slot
    /// `id % n`, or the next one whose worker is not lost. A job of a
    /// local run, or of a cluster run whose every worker is lost, goes
    /// to the shared queue, which the degraded run's local slots
    /// consume.
    fn route(&self, id: usize, genome: CandidateGenome) {
        let slot = self.health.as_ref().and_then(|h| h.next_live(id));
        let queue = slot.map_or(&self.shared_tx, |slot| &self.remotes[slot]);
        queue.send((id, genome)).expect("slots alive");
    }

    /// Drops every remote queue and waits (briefly, bounded) for each
    /// remote slot's acknowledgement: slots answer the drain by killing
    /// their sessions — a best-effort `kill_all` so workers wind down
    /// now instead of waiting out their idle timeout — and without the
    /// wait a coordinator process can exit before that reaches the wire.
    /// A slot whose worker is lost has no session left and acknowledges
    /// at once. Idle local slots exit once the pool, and with it the
    /// shared queue, drops.
    fn hang_up(&mut self) {
        let slots = self.remotes.len();
        self.remotes.clear();
        let grace = Instant::now() + Duration::from_secs(2);
        for _ in 0..slots {
            if self.acks.recv_deadline(grace).is_err() {
                break;
            }
        }
    }
}

/// Engine counters and the per-evaluation time histogram, registered
/// (with the epoch metrics) when the run starts so `/metrics` lists
/// them from the first scrape.
struct Meters {
    evaluated: Counter,
    cache_hits: Counter,
    infeasible: Counter,
    retries: Counter,
    timeouts: Counter,
    respawns: Counter,
    eval_time: HistogramHandle,
}

impl Meters {
    fn register(obs: &Obs) -> Self {
        register_epoch_metrics(obs);
        Self {
            evaluated: obs.counter("engine.models_evaluated"),
            cache_hits: obs.counter("engine.cache_hits"),
            infeasible: obs.counter("engine.infeasible"),
            retries: obs.counter("engine.retries"),
            timeouts: obs.counter("engine.timeouts"),
            respawns: obs.counter("engine.respawns"),
            eval_time: obs.histogram("engine.eval_time_s"),
        }
    }
}

/// One run of the master loop. Its methods are the loop's phases:
/// [`Run::tend_cluster`], [`Run::fill`], [`Run::wait`],
/// [`Run::on_result`], [`Run::on_deadline`] and [`Run::finish`].
/// [`Run::replay`] drives the same code from a checkpoint journal.
struct Run<'e> {
    /// The engine; during replay, a copy of it without event sinks.
    engine: &'e Engine,
    start: Instant,
    /// Wall-clock seconds a resumed journal had already used.
    prior_wall: f64,
    rng: StdRng,
    population: Vec<Evaluated>,
    trace: Vec<Evaluated>,
    cache: HashMap<u64, Measurement>,
    /// Initial-population genomes not yet submitted, next one last.
    seeds: Vec<CandidateGenome>,
    counters: RunCounters,
    tracker: EpochTracker,
    ledger: EngineLedger,
    /// The checkpoint journal, when a policy is attached (after replay).
    journal: Option<JournalFile>,
    /// A periodic journal write is due, to be made once the next
    /// candidate is dispatched (see the loop in `Engine::run_inner`).
    journal_due: bool,
    meters: Meters,
    pool: Pool,
    halted: bool,
}

impl<'e> Run<'e> {
    /// Starts a run from its seed and, when resuming, replays the journal
    /// silently on `quiet`, a copy of `engine` with a disabled `Obs`. Only
    /// then does the run count as started and its slots spawn, so a
    /// refused journal costs nothing. Then writes the header, which
    /// records the running policy's cadence, and the replayed lines
    /// atomically, which drops a torn tail and covers resuming into
    /// another path.
    fn start(
        engine: &'e Engine,
        quiet: &'e Engine,
        resumed: Option<CheckpointState>,
    ) -> Result<Self, CheckpointError> {
        let cfg = engine.config;
        let mut run = Run {
            engine: quiet,
            start: Instant::now(),
            prior_wall: 0.0,
            rng: StdRng::seed_from_u64(cfg.seed),
            population: Vec::with_capacity(cfg.population),
            trace: Vec::new(),
            cache: HashMap::new(),
            seeds: Vec::new(),
            counters: RunCounters::default(),
            tracker: EpochTracker::new(cfg.analytics, cfg.population),
            ledger: EngineLedger::new(),
            journal: None,
            journal_due: false,
            meters: Meters::register(&engine.obs),
            pool: Pool::new(engine),
            halted: false,
        };
        if resumed.is_none() {
            rt::info!(
                engine.obs,
                "search_start",
                target = engine.evaluator.target_name(),
                population = cfg.population,
                evaluations = cfg.evaluations,
                tournament = cfg.tournament,
                seed = cfg.seed,
                threads = cfg.threads,
                selection = match cfg.selection {
                    SelectionMode::WeightedScalar => "weighted-scalar",
                    SelectionMode::Nsga2 => "nsga2",
                },
            );
        }
        run.seeds = (0..cfg.population.min(cfg.evaluations))
            .map(|_| engine.space.sample(&mut run.rng))
            .collect();
        run.seeds.reverse(); // pop() takes them in creation order
        let lines = match resumed {
            Some(state) => {
                run.replay(&state)?;
                // Trace level on purpose: the resumed run's Debug-level
                // JSONL must continue the interrupted file byte-for-byte,
                // so no extra Debug+ event may appear here (and no second
                // search_start).
                rt::trace!(engine.obs, "resume", evaluations_done = run.trace.len());
                state.journal
            }
            None => Vec::new(),
        };
        run.engine = engine;
        engine.status.note_started();
        run.pool.spawn(engine);
        if let Some(policy) = &engine.checkpoint {
            run.journal = Some(JournalFile::new(policy, &cfg, &lines));
            run.flush_journal();
        }
        Ok(run)
    }

    /// Rebuilds the run from a checkpoint journal with the live loop's
    /// own code: for each line, breeds up to the position it records,
    /// then applies it. Submissions bred without a final verdict become
    /// the first dispatches, at the attempt their retry lines reached.
    /// Refuses ([`CheckpointError::Mismatch`]) the first line this run
    /// would not have written: a verdict on another candidate than it
    /// bred, a position it never reaches, or another retry decision.
    fn replay(&mut self, state: &CheckpointState) -> Result<(), CheckpointError> {
        let mut open: BTreeMap<usize, Attempt> = BTreeMap::new();
        for (i, line) in state.journal.iter().enumerate() {
            let refuse = |why: String| {
                CheckpointError::Mismatch(format!("journal line {}: {why}", i + 2))
            };
            while self.counters.attempts < line.attempts && self.can_breed() {
                if let Some(payload) = self.breed_next() {
                    open.insert(payload.index, Attempt { payload, attempt: 0 });
                }
            }
            if self.counters.attempts != line.attempts {
                let at = line.attempts;
                return Err(refuse(format!("this run never reaches breed position {at}")));
            }
            let index = line.index;
            let job = open
                .remove(&index)
                .filter(|job| job.payload.genome == line.genome)
                .ok_or_else(|| {
                    refuse(format!("this run bred another candidate as submission {index}"))
                })?;
            let id = self.counters.next_id;
            self.counters.next_id += 1;
            match (self.settle(id, job, line.outcome.clone()), line.last) {
                (Some(job), false) => {
                    open.insert(index, job);
                }
                (None, true) => {}
                _ => return Err(refuse("this run decides its retry otherwise".into())),
            }
            self.prior_wall = line.wall_s;
        }
        let now = Instant::now();
        for job in open.into_values() {
            self.ledger.schedule_retry(now, job.attempt, job.payload);
        }
        Ok(())
    }

    /// Cluster phase: degrades to `threads` local slots on the shared
    /// queue once every worker is lost — a warning, not a dead search
    /// with jobs in flight.
    fn tend_cluster(&mut self) {
        let Some(health) = &self.pool.health else {
            return;
        };
        if health.degraded() || health.next_live(0).is_some() {
            return;
        }
        let engine = self.engine;
        rt::warn!(engine.obs, "cluster_degraded", local_slots = engine.config.threads);
        health.set_degraded();
        self.pool.spawn_local(engine);
    }

    /// Fill phase: keeps one dispatch in flight per slot, taking retries
    /// whose backoff has elapsed first (a resumed run's open
    /// submissions among them), then fresh candidates.
    fn fill(&mut self) {
        let now = Instant::now();
        while self.ledger.in_flight_len() < self.pool.depth {
            let Some((attempt, payload)) = self.ledger.pop_ready_retry(now) else {
                break;
            };
            self.dispatch(Attempt { payload, attempt });
        }
        while self.ledger.in_flight_len() < self.pool.depth && self.can_breed() {
            if let Some(payload) = self.breed_next() {
                self.dispatch(Attempt { payload, attempt: 0 });
            }
        }
    }

    /// Whether another candidate may be bred: unique budget left, and
    /// the duplicate-breeding safety valve not yet tripped.
    fn can_breed(&self) -> bool {
        let cfg = &self.engine.config;
        self.counters.submitted_unique < cfg.evaluations
            && self.counters.attempts < cfg.evaluations * Engine::MAX_ATTEMPT_FACTOR
    }

    /// Breeds the next candidate: the next initial seed, else a child of
    /// the population. A duplicate is served from the cache and admitted
    /// on the spot (no budget, no worker round-trip); a new genome
    /// becomes the next unique submission.
    fn breed_next(&mut self) -> Option<Submission> {
        let (genome, op) = {
            // Scoped to candidate selection only: the span must close
            // before the job is handed to the pool, so master-side clock
            // reads never overlap a running worker (which would make
            // ticks-clock profiles depend on thread interleaving).
            let _prof = rt::prof_span!("dispatch");
            match self.seeds.pop() {
                Some(g) => (g, OperatorKind::Seed),
                None => self.engine.breed(&self.population, &mut self.rng),
            }
        };
        self.counters.attempts += 1;
        let key = genome.cache_key();
        if let Some(cached) = self.cache.get(&key) {
            // Cached repeats are not re-appended to the trace (Table III
            // counts unique models), but still say something about their
            // operator's usefulness.
            self.counters.cache_hits += 1;
            self.meters.cache_hits.inc();
            rt::debug!(self.engine.obs, "cache_hit", key = format!("{key:016x}"));
            let m = cached.clone();
            let (_, entered) =
                self.engine.admit(genome, m, &mut self.population, &mut self.rng);
            self.tracker.record_op(op, entered);
            return None;
        }
        let index = self.counters.submitted_unique;
        self.counters.submitted_unique += 1;
        Some(Submission { index, genome, op })
    }

    /// Hands one job to the pool under the next dispatch id. The
    /// `submit` (or `retry`) event goes out before the genome does: with
    /// one thread the master then blocks on the result, so the worker's
    /// own events always land after it — the property that makes seeded
    /// traces replayable.
    fn dispatch(&mut self, Attempt { payload, attempt }: Attempt) {
        let id = self.counters.next_id;
        self.counters.next_id += 1;
        let key = payload.genome.cache_key();
        if attempt == 0 {
            rt::debug!(self.engine.obs, "submit", id = id, key = format!("{key:016x}"));
        } else {
            rt::warn!(
                self.engine.obs,
                "retry",
                id = id,
                attempt = attempt,
                key = format!("{key:016x}"),
            );
        }
        let deadline = self.engine.config.eval_timeout.map(|t| Instant::now() + t);
        let genome = payload.genome.clone();
        self.ledger.dispatch(id as u64, payload, attempt, deadline);
        self.pool.route(id, genome);
    }

    /// Wait phase: sleeps until a result arrives (`Some`) or the
    /// earliest deadline or retry-ready time passes (`None`). Every job
    /// a slot receives comes back as a verdict, so the master needs no
    /// other wake-up: a worker turns `Lost` before the verdict that
    /// reports it is sent, and *tend cluster* reads it on the next turn
    /// of the loop.
    fn wait(&self) -> Option<Reply> {
        // The pool holds a result sender, so neither call can see a
        // disconnected channel: `None` always means a timeout.
        match self.ledger.next_wake() {
            None => self.pool.results.recv().ok(),
            Some(deadline) => self.pool.results.recv_deadline(deadline).ok(),
        }
    }

    /// Result phase: settles a fresh result; a stale one is dropped.
    fn on_result(&mut self, (id, m): Reply) {
        let job = match self.ledger.take_result(id as u64) {
            ResultClass::Fresh(job) => job,
            ResultClass::Stale => {
                // A timed-out dispatch finally reported; its verdict was
                // already decided.
                rt::trace!(self.engine.obs, "late_result", id = id);
                return;
            }
            ResultClass::Unknown => unreachable!("result for in-flight id"),
        };
        if let Some(job) = self.settle(id, job, Outcome::Measured(m)) {
            self.schedule_retry(job);
        }
    }

    /// Deadline phase: abandons every overdue dispatch. The ledger marks
    /// each id stale so its late result (if one ever arrives) drops on
    /// receipt. A timeout is transient, so it retries like any other
    /// until the budget runs out.
    fn on_deadline(&mut self) {
        let engine = self.engine;
        let after_s = engine.config.eval_timeout.map_or(0.0, |t| t.as_secs_f64());
        for (id, job) in self.ledger.expire(Instant::now()) {
            let id = id as usize;
            rt::warn!(engine.obs, "eval_timeout", id = id, attempt = job.attempt);
            let supervisor = &self.pool.supervisor;
            let slot = supervisor.claimed_slot(id as u64);
            if let Some(slot) = slot {
                // The slot is wedged inside this job: abandon its thread
                // and start a fresh one.
                supervisor.respawn(slot);
                rt::warn!(engine.obs, "worker_respawn", slot = slot, id = id);
            }
            let respawned = slot.is_some();
            if let Some(job) = self.settle(id, job, Outcome::Deadline { after_s, respawned }) {
                self.schedule_retry(job);
            }
        }
    }

    /// Applies one attempt's verdict, live or replayed: accounts the
    /// attempt and journals the verdict. A transient failure with
    /// attempts left comes back for another attempt; otherwise the
    /// verdict is final and admitted.
    fn settle(&mut self, id: usize, job: Attempt, outcome: Outcome) -> Option<Attempt> {
        let c = &mut self.counters;
        let transient = match &outcome {
            Outcome::Measured(m) => {
                c.total_eval_time_s += m.eval_time_s;
                c.train_time_s += m.train_time_s;
                c.hw_time_s += m.hw_time_s;
                self.meters.eval_time.record(m.eval_time_s);
                m.failure_kind() == Some(FailureKind::Transient)
            }
            Outcome::Deadline { respawned, .. } => {
                c.timeout_count += 1;
                self.meters.timeouts.inc();
                if *respawned {
                    c.respawn_count += 1;
                    self.meters.respawns.inc();
                }
                true
            }
        };
        let last = !transient || job.attempt >= self.engine.config.max_retries;
        let Submission { index, genome, op } = job.payload;
        let wall_s = self.wall_time_s();
        if let Some(journal) = &mut self.journal {
            journal.push(&JournalLine {
                attempts: self.counters.attempts,
                wall_s,
                index,
                genome: genome.clone(),
                outcome: outcome.clone(),
                last,
            });
        }
        if !last {
            self.counters.retry_count += 1;
            self.meters.retries.inc();
            let payload = Submission { index, genome, op };
            return Some(Attempt {
                payload,
                attempt: job.attempt + 1,
            });
        }
        if let Outcome::Deadline { after_s, .. } = outcome {
            // The wait itself is wall clock spent on this candidate.
            self.counters.total_eval_time_s += after_s;
        }
        self.finalize(id, genome, outcome.into_measurement(), op);
        None
    }

    /// Puts a transiently failed job back on the ledger's retry queue,
    /// ready after its backoff.
    fn schedule_retry(&mut self, job: Attempt) {
        let key = job.payload.genome.cache_key();
        let ready = Instant::now() + backoff_delay(&self.engine.config, key, job.attempt);
        self.ledger.schedule_retry(ready, job.attempt, job.payload);
    }

    /// Admits a final verdict: counts it, caches it, scores and admits
    /// it, appends it to the trace, then publishes epoch analytics and
    /// status, and marks the periodic journal write due.
    fn finalize(&mut self, id: usize, genome: CandidateGenome, m: Measurement, op: OperatorKind) {
        let engine = self.engine;
        self.meters.evaluated.inc();
        if !m.hw.is_feasible() {
            self.counters.infeasible_count += 1;
            self.meters.infeasible.inc();
        }
        // Transient verdicts (an exhausted retry budget) stay out of the
        // cache: a duplicate later gets a fresh chance instead of
        // inheriting a flaky failure.
        if m.failure_kind() != Some(FailureKind::Transient) {
            self.cache.insert(genome.cache_key(), m.clone());
        }
        let (eval, entered) = engine.admit(genome, m, &mut self.population, &mut self.rng);
        self.tracker.record_op(op, entered);
        // The tracker ignores an infeasible candidate's objectives.
        let oriented = if eval.fitness.is_finite() {
            engine.objectives.oriented_values(&eval.measurement)
        } else {
            Vec::new()
        };
        self.tracker.observe(&oriented, eval.fitness);
        rt::info!(
            engine.obs,
            "evaluated",
            id = id,
            accuracy = eval.measurement.accuracy,
            fitness = eval.fitness,
            feasible = eval.measurement.hw.is_feasible(),
        );
        self.trace.push(eval);
        let done = self.trace.len();
        if self.tracker.should_snapshot(done) {
            let (snap, stall_fired) =
                self.tracker.snapshot(done, &self.population, self.counters.cache_hits);
            engine.emit_epoch(&snap, stall_fired);
            snap.publish(&engine.obs);
            engine.status.note_snapshot(snap);
        }
        engine.status.note_counters(done, self.counters);
        if engine.checkpoint.as_ref().is_some_and(|p| done.is_multiple_of(p.every)) {
            self.journal_due = true;
        }
    }

    fn wall_time_s(&self) -> f64 {
        self.prior_wall + self.start.elapsed().as_secs_f64()
    }

    /// Writes the journal's buffered lines, downgrading failure to a
    /// warning event — a full disk must not kill a search that is
    /// otherwise healthy, and the lines stay buffered for the next
    /// write. The status cell learns about successful writes so
    /// `/status` can report checkpoint age. Any write clears the due
    /// mark, so replay's marks end with `start`'s atomic write.
    fn flush_journal(&mut self) {
        self.journal_due = false;
        let Some(journal) = &mut self.journal else {
            return;
        };
        match journal.flush() {
            Ok(false) => {}
            Ok(true) => {
                self.engine.status.note_checkpoint();
                rt::trace!(
                    self.engine.obs,
                    "checkpoint",
                    evaluations_done = self.trace.len(),
                    path = journal.path.display().to_string(),
                );
            }
            Err(e) => rt::warn!(self.engine.obs, "checkpoint_error", error = e.to_string()),
        }
    }

    /// Finish phase: winds the pool down, then reports the run.
    fn finish(mut self) -> EngineOutcome {
        self.pool.hang_up();
        let engine = self.engine;
        let c = self.counters;
        let models_evaluated = self.trace.len();
        if !self.halted {
            rt::info!(
                engine.obs,
                "search_end",
                models_evaluated = models_evaluated,
                cache_hits = c.cache_hits,
                infeasible = c.infeasible_count,
            );
            self.flush_journal();
        }
        engine.status.note_counters(models_evaluated, c);
        engine.status.note_done();
        engine.obs.flush();
        let stats = EngineStats {
            models_evaluated,
            cache_hits: c.cache_hits,
            total_eval_time_s: c.total_eval_time_s,
            avg_eval_time_s: if models_evaluated > 0 {
                c.total_eval_time_s / models_evaluated as f64
            } else {
                0.0
            },
            wall_time_s: self.wall_time_s(),
            infeasible_count: c.infeasible_count,
            train_time_s: c.train_time_s,
            hw_time_s: c.hw_time_s,
            retry_count: c.retry_count,
            timeout_count: c.timeout_count,
            respawn_count: c.respawn_count,
            worker_latency: engine
                .cluster
                .as_ref()
                .map_or_else(Vec::new, |plan| plan.worker_latency(&engine.obs)),
        };
        EngineOutcome {
            population: self.population,
            trace: self.trace,
            stats,
            halted: self.halted,
        }
    }
}

impl Engine {
    /// Safety valve: stop generating children after this many multiples
    /// of the evaluation budget, in case mutation keeps producing cached
    /// duplicates.
    const MAX_ATTEMPT_FACTOR: usize = 50;

    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the population, evaluations, tournament size, or thread
    /// count is zero.
    pub fn new(
        evaluator: Arc<dyn Evaluator>,
        space: SearchSpace,
        objectives: ObjectiveSet,
        config: EvolutionConfig,
    ) -> Self {
        assert!(config.population > 0, "population must be positive");
        assert!(config.evaluations > 0, "evaluation budget must be positive");
        assert!(config.tournament > 0, "tournament size must be positive");
        assert!(config.threads > 0, "need at least one worker thread");
        Self {
            evaluator,
            space,
            objectives,
            config,
            obs: Obs::disabled(),
            checkpoint: None,
            halt_after: None,
            shutdown: ShutdownFlag::new(),
            status: StatusCell::new(),
            cluster: None,
        }
    }

    /// Attaches an observability handle. Every master-loop decision
    /// (breeding, cache hits, tournament and replacement picks) and
    /// per-evaluation outcome is narrated through it as structured
    /// events, and the run's counters and timing histograms land in its
    /// metrics registry. Disabled by default.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a checkpoint policy: the run journals every verdict it
    /// acts on to the policy's path under a header that records
    /// `every`, writing the buffered lines every `every` unique
    /// evaluations (once the next candidate is dispatched), on any
    /// halt, and at natural completion.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Halts the run once the trace holds `n` unique evaluations —
    /// deterministic interruption for checkpoint/resume tests and
    /// budget slicing.
    pub fn with_halt_after(mut self, n: usize) -> Self {
        self.halt_after = Some(n);
        self
    }

    /// Attaches a cooperative shutdown flag (e.g. one wired to
    /// SIGINT/SIGTERM). When it trips, the run stops at the next safe
    /// boundary, writes a checkpoint if a policy is attached, and
    /// returns with `halted = true`.
    pub fn with_shutdown(mut self, flag: ShutdownFlag) -> Self {
        self.shutdown = flag;
        self
    }

    /// Routes evaluation to remote cluster workers instead of local
    /// threads: one supervised slot per worker address, each holding a
    /// framed TCP session ([`crate::cluster`]). Network failures are
    /// classified transient (the job retries through the ordinary
    /// ledger machinery, possibly on another worker). A worker whose
    /// reconnect budget is exhausted reads `Lost` in the plan's
    /// [`ClusterHealth`]: routing skips it, and its slot evaluates the
    /// jobs already queued on it in process. When every worker is lost
    /// the engine degrades to `config.threads` local in-process slots
    /// with a warning rather than dying. With an empty worker list the
    /// plan is ignored.
    pub fn with_cluster(mut self, plan: ClusterPlan) -> Self {
        if !plan.options.workers.is_empty() {
            self.cluster = Some(plan);
        }
        self
    }

    /// Attaches a shared status cell the engine keeps current (latest
    /// epoch snapshot, counters, checkpoint age) for the `/status`
    /// endpoint. The engine only writes to it; readers never touch
    /// engine state, so a live observer cannot perturb the search.
    pub fn with_status(mut self, status: StatusCell) -> Self {
        self.status = status;
        self
    }

    /// Runs the search to budget exhaustion (or until halted).
    pub fn run(&self) -> EngineOutcome {
        self.run_inner(None).expect("a fresh run replays no journal")
    }

    /// Continues a run from its checkpoint journal by replaying it (see
    /// [`crate::checkpoint`]). For a seeded single-thread search the
    /// continuation is byte-identical to the uninterrupted run: same
    /// candidates, same trace suffix, same final population.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Mismatch`] when the checkpoint's
    /// seed, budget, or population capacity disagree with this engine's
    /// configuration, or at the first journal line this engine would
    /// not have written — as under another tournament size, crossover
    /// rate or search space.
    pub fn resume(&self, state: CheckpointState) -> Result<EngineOutcome, CheckpointError> {
        state.validate(&self.config)?;
        self.run_inner(Some(state))
    }

    /// The master loop (§III-A) as a sequence of named phases over the
    /// dispatch ledger; [`Run`] holds its state.
    fn run_inner(
        &self,
        resumed: Option<CheckpointState>,
    ) -> Result<EngineOutcome, CheckpointError> {
        // Master-side prof_span! sites (dispatch/breed/replace) record
        // under the engine's profile tree when one is attached.
        let _prof_install = self.obs.profiler().map(|p| p.install());
        // Replay runs on a copy of the engine whose `Obs` is disabled.
        let quiet = resumed.is_some().then(|| Engine {
            obs: Obs::disabled(),
            ..self.clone()
        });
        let mut run = Run::start(self, quiet.as_ref().unwrap_or(self), resumed)?;
        loop {
            let halt = self.shutdown.is_requested()
                || self.halt_after.is_some_and(|n| run.trace.len() >= n);
            run.tend_cluster();
            if halt {
                // Trace level for the same reason as `resume`: the halted
                // file must be a byte-prefix of the uninterrupted run's
                // Debug-level JSONL.
                rt::trace!(self.obs, "halt", evaluations_done = run.trace.len());
                run.halted = true;
                run.flush_journal();
                break;
            }
            run.fill();
            // The periodic journal write waits until the next candidate
            // is out, so its fsync overlaps that evaluation instead of
            // idling the worker.
            if run.journal_due {
                run.flush_journal();
            }
            if run.ledger.quiescent() {
                break;
            }
            match run.wait() {
                Some(reply) => run.on_result(reply),
                None => run.on_deadline(),
            }
        }
        Ok(run.finish())
    }

    /// Emits the `epoch` trace event, whose fields are the record's
    /// [`PopulationSnapshot::fields`](crate::analytics::PopulationSnapshot::fields),
    /// and the `stall` warning on a detector rising edge. Every field
    /// is derived from deterministic engine state — no clocks — so
    /// seeded traces stay byte-reproducible with analytics on.
    fn emit_epoch(&self, snap: &crate::analytics::PopulationSnapshot, stall_fired: bool) {
        if self.obs.is_enabled(rt::obs::Level::Info) {
            self.obs
                .emit(rt::obs::Level::Info, module_path!(), "epoch", snap.fields());
        }
        if stall_fired {
            rt::warn!(
                self.obs,
                "stall",
                epoch = snap.epoch,
                window = self.config.analytics.stall_window,
                hypervolume = snap.hypervolume,
                best_fitness = snap.best_fitness,
            );
        }
    }

    fn score(&self, genome: CandidateGenome, measurement: Measurement) -> Evaluated {
        let fitness = self.objectives.scalar(&measurement);
        Evaluated {
            genome,
            measurement,
            fitness,
        }
    }

    /// Scores a measured candidate and inserts it into the population
    /// (steady-state replacement). Returns the evaluated record plus
    /// whether it actually entered the population (filled a slot or
    /// displaced a member) — the per-operator success signal.
    fn admit(
        &self,
        genome: CandidateGenome,
        measurement: Measurement,
        population: &mut Vec<Evaluated>,
        rng: &mut StdRng,
    ) -> (Evaluated, bool) {
        let _prof = rt::prof_span!("replace");
        let eval = self.score(genome, measurement);
        if population.len() < self.config.population {
            population.push(eval.clone());
            return (eval, true);
        }
        match self.config.selection {
            SelectionMode::WeightedScalar => {
                // Worst-of-tournament replacement: the child replaces
                // the weakest of `tournament` random members if it
                // beats them.
                let worst_idx = (0..self.config.tournament)
                    .map(|_| rng.gen_range(0..population.len()))
                    .min_by(|&a, &b| by_fitness(&population[a], &population[b]))
                    .expect("tournament >= 1");
                let replaced = eval.fitness > population[worst_idx].fitness;
                rt::trace!(
                    self.obs,
                    "replace",
                    victim = worst_idx,
                    victim_fitness = population[worst_idx].fitness,
                    replaced = replaced,
                );
                if replaced {
                    population[worst_idx] = eval.clone();
                }
                (eval, replaced)
            }
            SelectionMode::Nsga2 => {
                // Child joins, then the (rank, crowding)-worst member
                // is evicted. The child "entered" unless it was itself
                // the evicted member (it sat at the last index).
                population.push(eval.clone());
                let evict = Self::nsga2_worst(&self.rank_keys(population.iter()));
                rt::trace!(self.obs, "replace", victim = evict, replaced = true);
                let entered = evict != population.len() - 1;
                population.swap_remove(evict);
                (eval, entered)
            }
        }
    }

    /// Oriented objective vectors for ranking; infeasible candidates map
    /// to `-inf` everywhere so they always land in the last front.
    fn rank_keys<'a>(&self, members: impl Iterator<Item = &'a Evaluated>) -> Vec<Vec<f64>> {
        members
            .map(|e| {
                if e.measurement.hw.is_feasible() {
                    self.objectives.oriented_values(&e.measurement)
                } else {
                    vec![f64::NEG_INFINITY; self.objectives.objectives().len()]
                }
            })
            .collect()
    }

    /// Index of the NSGA-II-worst point: last non-domination front,
    /// lowest crowding distance within it.
    fn nsga2_worst(points: &[Vec<f64>]) -> usize {
        let fronts = crate::pareto::non_dominated_sort(points);
        let last = fronts.last().expect("nonempty population");
        let members: Vec<Vec<f64>> = last.iter().map(|&i| points[i].clone()).collect();
        let crowding = crate::pareto::crowding_distance(&members);
        last.iter()
            .copied()
            .zip(crowding)
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("last front nonempty")
    }

    /// Breeds one child from the current population (or samples fresh if
    /// the population is still too small), tagging it with the operator
    /// that produced it for the epoch analytics.
    fn breed(&self, population: &[Evaluated], rng: &mut StdRng) -> (CandidateGenome, OperatorKind) {
        let _prof = rt::prof_span!("breed");
        if population.len() < 2 {
            rt::trace!(self.obs, "breed", method = "sample");
            return (self.space.sample(rng), OperatorKind::Sample);
        }
        let a = self.tournament_select(population, rng);
        let (child, op) = if rng.gen_bool(self.config.crossover_rate) {
            rt::trace!(self.obs, "breed", method = "crossover");
            let b = self.tournament_select(population, rng);
            (
                self.space.crossover(&a.genome, &b.genome, rng),
                OperatorKind::Crossover,
            )
        } else {
            rt::trace!(self.obs, "breed", method = "mutate");
            (a.genome.clone(), OperatorKind::Mutate)
        };
        (self.space.mutate(&child, rng), op)
    }

    fn tournament_select<'a>(
        &self,
        population: &'a [Evaluated],
        rng: &mut StdRng,
    ) -> &'a Evaluated {
        let picks: Vec<&Evaluated> = (0..self.config.tournament)
            .map(|_| &population[rng.gen_range(0..population.len())])
            .collect();
        let winner = match self.config.selection {
            SelectionMode::WeightedScalar => picks
                .into_iter()
                .max_by(|a, b| by_fitness(a, b))
                .expect("tournament >= 1"),
            SelectionMode::Nsga2 => {
                // Crowded tournament: a non-dominated pick wins.
                let keys = self.rank_keys(picks.iter().copied());
                picks[crate::pareto::non_dominated_sort(&keys)[0][0]]
            }
        };
        rt::trace!(
            self.obs,
            "tournament",
            size = self.config.tournament,
            winner_fitness = winner.fitness,
        );
        winner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::{Objective, ObjectiveSet};
    use crate::measurement::HwMetrics;

    /// A fast synthetic evaluator: fitness landscape is a function of
    /// the genome alone, no MLP training. Lets engine tests run in
    /// microseconds and be exactly repeatable.
    struct ToyEvaluator {
        /// Panic on genomes whose first layer has exactly this width
        /// (failure-injection hook).
        panic_on_width: Option<usize>,
    }

    impl Evaluator for ToyEvaluator {
        fn evaluate(&self, genome: &CandidateGenome) -> Measurement {
            if let Some(w) = self.panic_on_width {
                if genome.nna.layers.first().map(|l| l.neurons) == Some(w) {
                    panic!("injected failure");
                }
            }
            // "Accuracy" peaks when total neurons approach 256.
            let neurons = genome.nna.total_neurons() as f32;
            let accuracy = 1.0 - ((neurons - 256.0).abs() / 512.0).min(1.0);
            Measurement {
                accuracy,
                train_accuracy: accuracy,
                params: neurons as usize * 10,
                neurons: neurons as usize,
                hw: HwMetrics::Gpu {
                    outputs_per_s: 1e6 / (1.0 + neurons as f64),
                    efficiency: 0.01,
                    latency_s: 1e-4,
                    effective_gflops: 1.0,
                    power_w: 50.0,
                },
                eval_time_s: 1e-6,
                train_time_s: 6e-7,
                hw_time_s: 4e-7,
            }
        }

        fn target_name(&self) -> String {
            "toy".to_string()
        }
    }

    fn engine(evals: usize, seed: u64, threads: usize) -> Engine {
        let cfg = EvolutionConfig {
            population: 12,
            evaluations: evals,
            tournament: 3,
            crossover_rate: 0.5,
            seed,
            threads,
            selection: SelectionMode::WeightedScalar,
            ..EvolutionConfig::small()
        };
        Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            SearchSpace::gpu_default(),
            ObjectiveSet::accuracy_only(),
            cfg,
        )
    }

    #[test]
    fn respects_evaluation_budget_exactly() {
        let out = engine(50, 1, 1).run();
        assert_eq!(out.stats.models_evaluated, 50);
        assert_eq!(out.trace.len(), 50);
    }

    #[test]
    fn search_improves_over_random_start() {
        let out = engine(150, 2, 1).run();
        let first_quarter_best = out.trace[..30]
            .iter()
            .map(|e| e.fitness)
            .fold(f64::MIN, f64::max);
        let overall_best = out.best().unwrap().fitness;
        assert!(overall_best >= first_quarter_best);
        // The toy optimum (256 neurons -> accuracy 1.0) should be
        // approached.
        assert!(overall_best > 0.9, "best fitness {overall_best}");
    }

    #[test]
    fn deterministic_with_one_thread() {
        let a = engine(60, 7, 1).run();
        let b = engine(60, 7, 1).run();
        let fa: Vec<f64> = a.trace.iter().map(|e| e.fitness).collect();
        let fb: Vec<f64> = b.trace.iter().map(|e| e.fitness).collect();
        assert_eq!(fa, fb);
        assert_eq!(a.best().unwrap().genome, b.best().unwrap().genome);
    }

    #[test]
    fn cache_prevents_duplicate_evaluations() {
        // Tiny space: duplicates are inevitable, so the cache must fire.
        let space = SearchSpace::gpu_default()
            .with_layers(1, 1)
            .with_neurons(4, 6);
        let cfg = EvolutionConfig {
            population: 8,
            evaluations: 40,
            tournament: 3,
            crossover_rate: 0.5,
            seed: 3,
            threads: 1,
            selection: SelectionMode::WeightedScalar,
            ..EvolutionConfig::small()
        };
        let eng = Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            space,
            ObjectiveSet::accuracy_only(),
            cfg,
        );
        let out = eng.run();
        assert!(
            out.stats.cache_hits > 0,
            "expected cache hits in a tiny space"
        );
        // Unique evaluations cannot exceed the distinct-genome count:
        // 3 widths x 4 activations x 2 bias x 8 batches = 192 (bounded).
        assert!(out.stats.models_evaluated <= 40);
    }

    #[test]
    fn worker_panic_becomes_infeasible_candidate() {
        let space = SearchSpace::gpu_default();
        let cfg = EvolutionConfig {
            population: 8,
            evaluations: 30,
            tournament: 2,
            crossover_rate: 0.5,
            seed: 5,
            threads: 2,
            selection: SelectionMode::WeightedScalar,
            ..EvolutionConfig::small()
        };
        let eng = Engine::new(
            // Panic on a width that random sampling will hit eventually;
            // even if not hit, the search must complete.
            Arc::new(ToyEvaluator {
                panic_on_width: Some(100),
            }),
            space,
            ObjectiveSet::accuracy_only(),
            cfg,
        );
        let out = eng.run();
        assert_eq!(out.stats.models_evaluated, 30);
        // Any panicked candidates appear as infeasible in the trace.
        for e in &out.trace {
            if !e.measurement.hw.is_feasible() {
                assert_eq!(e.fitness, f64::NEG_INFINITY);
            }
        }
    }

    #[test]
    fn multithreaded_run_completes_budget() {
        let out = engine(80, 11, 4).run();
        assert_eq!(out.stats.models_evaluated, 80);
        assert!(out.population.len() <= 12);
        assert!(out.stats.wall_time_s > 0.0);
    }

    #[test]
    fn population_respects_capacity() {
        let out = engine(100, 13, 1).run();
        assert_eq!(out.population.len(), 12);
    }

    #[test]
    fn stats_time_accounting() {
        let out = engine(25, 17, 1).run();
        assert!(out.stats.total_eval_time_s > 0.0);
        assert!((out.stats.avg_eval_time_s - out.stats.total_eval_time_s / 25.0).abs() < 1e-12);
    }

    #[test]
    fn stats_track_stage_times_and_infeasibles() {
        let out = engine(25, 17, 1).run();
        // The toy evaluator reports fixed per-stage times and never
        // fails, so the totals are exact multiples.
        assert_eq!(out.stats.infeasible_count, 0);
        assert!((out.stats.train_time_s - 25.0 * 6e-7).abs() < 1e-12);
        assert!((out.stats.hw_time_s - 25.0 * 4e-7).abs() < 1e-12);
    }

    #[test]
    fn observed_run_emits_lifecycle_events_and_counters() {
        let sink = rt::obs::CaptureSink::new(rt::obs::Level::Trace);
        let obs = rt::obs::Obs::builder().sink(Arc::clone(&sink)).build();
        let space = SearchSpace::gpu_default()
            .with_layers(1, 1)
            .with_neurons(4, 6); // tiny space forces cache hits
        let cfg = EvolutionConfig {
            population: 8,
            evaluations: 40,
            tournament: 3,
            crossover_rate: 0.5,
            seed: 3,
            threads: 1,
            selection: SelectionMode::WeightedScalar,
            ..EvolutionConfig::small()
        };
        let out = Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            space,
            ObjectiveSet::accuracy_only(),
            cfg,
        )
        .with_obs(obs.clone())
        .run();

        let events = sink.take();
        let has = |name: &str| events.iter().any(|e| e.name == name);
        for required in [
            "search_start",
            "submit",
            "evaluated",
            "cache_hit",
            "breed",
            "tournament",
            "replace",
            "search_end",
        ] {
            assert!(has(required), "missing event kind {required:?}");
        }
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("submit"), out.stats.models_evaluated);
        assert_eq!(count("evaluated"), out.stats.models_evaluated);
        assert_eq!(count("cache_hit"), out.stats.cache_hits);

        // The acceptance identity: counters sum to models + cache hits.
        let metric = |name: &str| {
            obs.snapshot()
                .iter()
                .find_map(|(n, v)| match (n == name, v) {
                    (true, rt::obs::MetricValue::Counter(c)) => Some(*c),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("no counter {name:?}"))
        };
        assert_eq!(
            metric("engine.models_evaluated") + metric("engine.cache_hits"),
            (out.stats.models_evaluated + out.stats.cache_hits) as u64
        );
        assert_eq!(metric("engine.infeasible"), out.stats.infeasible_count as u64);
    }

    fn numeric_field(e: &rt::obs::Event, key: &str) -> f64 {
        e.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| match v {
                rt::obs::Value::F64(x) => *x,
                rt::obs::Value::U64(x) => *x as f64,
                rt::obs::Value::I64(x) => *x as f64,
                other => panic!("field {key:?} is not numeric: {other:?}"),
            })
            .unwrap_or_else(|| panic!("epoch event missing field {key:?}"))
    }

    #[test]
    fn epoch_events_fire_with_monotone_hypervolume() {
        let sink = rt::obs::CaptureSink::new(rt::obs::Level::Trace);
        let obs = rt::obs::Obs::builder().sink(Arc::clone(&sink)).build();
        let out = engine(60, 7, 1).with_obs(obs.clone()).run();

        let events = sink.take();
        let epochs: Vec<_> = events.iter().filter(|e| e.name == "epoch").collect();
        // population 12, 60 evaluations => one epoch per population.
        assert_eq!(epochs.len(), 5);
        let mut prev_hv = 0.0;
        for (i, e) in epochs.iter().enumerate() {
            assert_eq!(numeric_field(e, "epoch") as usize, i + 1);
            assert_eq!(numeric_field(e, "evaluations") as usize, (i + 1) * 12);
            let hv = numeric_field(e, "hypervolume");
            assert!(hv >= prev_hv, "hypervolume fell: {prev_hv} -> {hv}");
            prev_hv = hv;
            assert!(numeric_field(e, "gene_entropy_bits") >= 0.0);
            assert!((0.0..=1.0).contains(&numeric_field(e, "mean_distance")));
        }
        assert!(prev_hv > 0.0, "feasible toy run must accumulate volume");

        // Operator totals account for every admission: unique
        // evaluations plus cache-hit re-admissions.
        let last = epochs.last().unwrap();
        let produced = ["seed_total", "sample_total", "crossover_total", "mutate_total"]
            .iter()
            .map(|k| numeric_field(last, k) as usize)
            .sum::<usize>();
        assert_eq!(produced, out.stats.models_evaluated + out.stats.cache_hits);

        // Every field of the last epoch has its `search.<field>` gauge,
        // holding the same number (booleans as 0/1), and the registry
        // has no other `search.*` metric.
        let metrics = obs.snapshot();
        let gauge = |name: &str| {
            metrics
                .iter()
                .find_map(|(n, v)| match (n == name, v) {
                    (true, rt::obs::MetricValue::Gauge(g)) => Some(*g),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("no gauge {name:?}"))
        };
        for (key, value) in &last.fields {
            let want = match value {
                rt::obs::Value::Bool(b) => f64::from(u8::from(*b)),
                _ => numeric_field(last, key),
            };
            assert_eq!(gauge(&format!("search.{key}")), want, "{key}");
        }
        assert_eq!(
            metrics
                .iter()
                .filter(|(n, _)| n.starts_with("search."))
                .count(),
            last.fields.len()
        );
        assert_eq!(gauge("search.epoch"), 5.0);
        assert!(gauge("search.best_fitness") > 0.0);
    }

    #[test]
    fn resumed_run_reports_identical_epochs() {
        let epoch_lines = |events: &[rt::obs::Event]| -> Vec<String> {
            events
                .iter()
                .filter(|e| e.name == "epoch")
                .map(|e| e.to_json(Some(0), false).to_string())
                .collect()
        };

        let full_sink = rt::obs::CaptureSink::new(rt::obs::Level::Trace);
        let full_obs = rt::obs::Obs::builder().sink(Arc::clone(&full_sink)).build();
        let _ = engine(40, 47, 1).with_obs(full_obs).run();
        let full = epoch_lines(&full_sink.take());
        assert_eq!(full.len(), 3); // epochs at 12, 24, 36

        let path = tmp_path("epoch-resume.json");
        let first_sink = rt::obs::CaptureSink::new(rt::obs::Level::Trace);
        let first_obs = rt::obs::Obs::builder()
            .sink(Arc::clone(&first_sink))
            .build();
        // Halt at 20: mid-epoch, so the tracker state to rebuild is a
        // partial chunk — the hardest restore case.
        let _ = engine(40, 47, 1)
            .with_obs(first_obs)
            .with_checkpoint(CheckpointPolicy::new(&path, 5))
            .with_halt_after(20)
            .run();
        let state = CheckpointState::load(&path).unwrap();
        let resumed_sink = rt::obs::CaptureSink::new(rt::obs::Level::Trace);
        let resumed_obs = rt::obs::Obs::builder()
            .sink(Arc::clone(&resumed_sink))
            .build();
        let _ = engine(40, 47, 1)
            .with_obs(resumed_obs)
            .resume(state)
            .unwrap();

        let mut stitched = epoch_lines(&first_sink.take());
        stitched.extend(epoch_lines(&resumed_sink.take()));
        assert_eq!(stitched, full, "resumed epoch events must be bit-identical");
        std::fs::remove_file(&path).unwrap();
    }

    /// `/status`'s `epoch` is the `fields` object of the run's last
    /// `epoch` trace line.
    #[test]
    fn status_cell_tracks_run_lifecycle() {
        use rt::json::Json;
        let sink = rt::obs::CaptureSink::new(rt::obs::Level::Trace);
        let obs = rt::obs::Obs::builder().sink(Arc::clone(&sink)).build();
        let status = crate::analytics::StatusCell::new();
        let out = engine(24, 9, 1)
            .with_obs(obs)
            .with_status(status.clone())
            .run();
        let json = Json::parse(&status.to_json().to_string()).unwrap();
        assert_eq!(json.get("running"), Some(&Json::Bool(false)));
        assert_eq!(json.get("done"), Some(&Json::Bool(true)));
        assert_eq!(
            json.get("models_evaluated").and_then(Json::as_f64),
            Some(out.stats.models_evaluated as f64)
        );
        let epoch = json.get("epoch").expect("epoch snapshot present");
        assert_eq!(epoch.get("evaluations").and_then(Json::as_f64), Some(24.0));
        let last = sink
            .take()
            .into_iter()
            .rfind(|e| e.name == "epoch")
            .expect("an epoch event");
        let line = Json::parse(&last.to_json(Some(0), false).to_string()).unwrap();
        assert_eq!(Some(epoch), line.get("fields"));
    }

    #[test]
    fn multiobjective_search_keeps_throughput_pressure() {
        let cfg = EvolutionConfig {
            population: 12,
            evaluations: 150,
            tournament: 3,
            crossover_rate: 0.5,
            seed: 23,
            threads: 1,
            selection: SelectionMode::WeightedScalar,
            ..EvolutionConfig::small()
        };
        let accuracy_only = Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            SearchSpace::gpu_default(),
            ObjectiveSet::accuracy_only(),
            EvolutionConfig { seed: 23, ..cfg },
        )
        .run();
        let combined = Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            SearchSpace::gpu_default(),
            ObjectiveSet::new(vec![
                Objective::maximize("accuracy").with_weight(0.2),
                Objective::maximize("log_throughput").with_weight(1.0),
            ]),
            cfg,
        )
        .run();
        // Toy throughput falls with neurons, so the throughput-weighted
        // search should settle on smaller networks.
        let mean_neurons = |o: &EngineOutcome| {
            o.population
                .iter()
                .map(|e| e.measurement.neurons)
                .sum::<usize>() as f64
                / o.population.len() as f64
        };
        assert!(mean_neurons(&combined) < mean_neurons(&accuracy_only));
    }

    #[test]
    fn nsga2_mode_completes_and_keeps_population_size() {
        let cfg = EvolutionConfig {
            population: 10,
            evaluations: 80,
            tournament: 3,
            crossover_rate: 0.5,
            seed: 31,
            threads: 1,
            selection: SelectionMode::Nsga2,
            ..EvolutionConfig::small()
        };
        let out = Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            SearchSpace::gpu_default(),
            ObjectiveSet::new(vec![
                Objective::maximize("accuracy"),
                Objective::maximize("log_throughput"),
            ]),
            cfg,
        )
        .run();
        assert_eq!(out.stats.models_evaluated, 80);
        assert_eq!(out.population.len(), 10);
    }

    #[test]
    fn nsga2_population_is_more_diverse_on_the_front() {
        // The toy landscape trades accuracy (peak at 256 neurons)
        // against throughput (falls with neurons). NSGA-II should keep
        // a wider spread of neuron counts than scalarization collapses
        // to.
        let run = |selection: SelectionMode, seed: u64| {
            let cfg = EvolutionConfig {
                population: 14,
                evaluations: 200,
                tournament: 3,
                crossover_rate: 0.5,
                seed,
                threads: 1,
                selection,
                ..EvolutionConfig::small()
            };
            let out = Engine::new(
                Arc::new(ToyEvaluator {
                    panic_on_width: None,
                }),
                SearchSpace::gpu_default(),
                ObjectiveSet::new(vec![
                    Objective::maximize("accuracy"),
                    Objective::maximize("log_throughput"),
                ]),
                cfg,
            )
            .run();
            let neurons: Vec<f32> = out
                .population
                .iter()
                .map(|e| e.measurement.neurons as f32)
                .collect();
            ecad_tensor::stats::std_dev(&neurons)
        };
        // Average over a few seeds to damp run-to-run noise.
        let spread = |mode: SelectionMode| (run(mode, 1) + run(mode, 2) + run(mode, 3)) / 3.0;
        let nsga = spread(SelectionMode::Nsga2);
        let scalar = spread(SelectionMode::WeightedScalar);
        assert!(
            nsga > scalar * 0.8,
            "nsga2 spread {nsga} should not collapse below scalar spread {scalar}"
        );
    }

    #[test]
    fn nsga2_deterministic_per_seed() {
        let run = || {
            let cfg = EvolutionConfig {
                population: 8,
                evaluations: 40,
                tournament: 2,
                crossover_rate: 0.5,
                seed: 5,
                threads: 1,
                selection: SelectionMode::Nsga2,
                ..EvolutionConfig::small()
            };
            Engine::new(
                Arc::new(ToyEvaluator {
                    panic_on_width: None,
                }),
                SearchSpace::gpu_default(),
                ObjectiveSet::accuracy_only(),
                cfg,
            )
            .run()
            .trace
            .iter()
            .map(|e| e.genome.describe())
            .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    // ------------------------------------------------------------------
    // Fault tolerance: deadlines, retries, supervision, checkpoints.
    // With `retry_backoff: Duration::ZERO` and one thread, retries are
    // re-dispatched before any fresh candidate, so the FaultyEvaluator's
    // global call indices stay deterministic.
    // ------------------------------------------------------------------

    use crate::checkpoint::{CheckpointPolicy, CheckpointState};
    use crate::faults::{FaultKind, FaultSchedule, FaultyEvaluator};
    use std::time::Duration;

    fn faulty_engine(schedule: FaultSchedule, cfg: EvolutionConfig) -> Engine {
        Engine::new(
            Arc::new(FaultyEvaluator::new(
                Arc::new(ToyEvaluator {
                    panic_on_width: None,
                }),
                schedule,
            )),
            SearchSpace::gpu_default(),
            ObjectiveSet::accuracy_only(),
            cfg,
        )
    }

    fn fault_cfg(evals: usize, seed: u64) -> EvolutionConfig {
        EvolutionConfig {
            population: 4,
            evaluations: evals,
            tournament: 2,
            seed,
            retry_backoff: Duration::ZERO,
            ..EvolutionConfig::small()
        }
    }

    #[test]
    fn transient_failures_are_retried_and_counted() {
        // Calls 1 and 4 fail transiently; with zero backoff each retry
        // is the very next call and succeeds. The budget is unaffected.
        let schedule = FaultSchedule::new()
            .at(1, FaultKind::Transient)
            .at(4, FaultKind::Transient);
        let out = faulty_engine(schedule, fault_cfg(8, 41)).run();
        assert_eq!(out.stats.models_evaluated, 8);
        assert_eq!(out.stats.retry_count, 2);
        assert_eq!(out.stats.timeout_count, 0);
        assert_eq!(out.stats.respawn_count, 0);
        assert!(!out.halted);
        assert!(out.trace.iter().all(|e| e.measurement.hw.is_feasible()));
    }

    #[test]
    fn stalled_evaluation_times_out_and_respawns_the_slot() {
        // Call 2 stalls for 2s against a 50ms deadline: the dispatch is
        // abandoned (timeout + respawn), retried clean, and the stale
        // thread's late result is dropped.
        let schedule = FaultSchedule::new().at(2, FaultKind::Stall(Duration::from_secs(2)));
        let cfg = EvolutionConfig {
            eval_timeout: Some(Duration::from_millis(50)),
            ..fault_cfg(6, 42)
        };
        let out = faulty_engine(schedule, cfg).run();
        assert_eq!(out.stats.models_evaluated, 6);
        assert_eq!(out.stats.timeout_count, 1);
        assert_eq!(out.stats.respawn_count, 1);
        assert_eq!(out.stats.retry_count, 1);
        assert!(out.trace.iter().all(|e| e.measurement.hw.is_feasible()));
    }

    #[test]
    fn injected_panics_are_retried_then_succeed() {
        let schedule = FaultSchedule::new().at(3, FaultKind::Panic);
        let out = faulty_engine(schedule, fault_cfg(8, 43)).run();
        assert_eq!(out.stats.models_evaluated, 8);
        assert_eq!(out.stats.retry_count, 1);
        assert!(out.trace.iter().all(|e| e.measurement.hw.is_feasible()));
    }

    #[test]
    fn exhausted_retries_accept_the_last_transient_verdict() {
        // The same candidate fails on its first try and both retries
        // (max_retries = 2 ⇒ calls 0, 1, 2 are one candidate), so its
        // transient verdict becomes final — and is NOT cached.
        let schedule = FaultSchedule::new()
            .at(0, FaultKind::Transient)
            .at(1, FaultKind::Transient)
            .at(2, FaultKind::Transient);
        let out = faulty_engine(schedule, fault_cfg(5, 44)).run();
        assert_eq!(out.stats.models_evaluated, 5);
        assert_eq!(out.stats.retry_count, 2);
        assert_eq!(out.stats.infeasible_count, 1);
        let failed: Vec<_> = out
            .trace
            .iter()
            .filter(|e| !e.measurement.hw.is_feasible())
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(
            failed[0].measurement.infeasible_reason().map(|r| r.kind()),
            Some("transient")
        );
    }

    #[test]
    fn panic_wall_clock_lands_in_total_eval_time() {
        // With retries disabled, the panicking attempt's verdict is
        // final; its measurement must still carry the elapsed wall
        // clock (a crashed evaluation is not free).
        let schedule = FaultSchedule::new().at(0, FaultKind::Panic);
        let cfg = EvolutionConfig {
            max_retries: 0,
            ..fault_cfg(4, 45)
        };
        let out = faulty_engine(schedule, cfg).run();
        let panicked: Vec<_> = out
            .trace
            .iter()
            .filter(|e| {
                e.measurement.infeasible_reason().map(|r| r.kind()) == Some("worker-panic")
            })
            .collect();
        assert_eq!(panicked.len(), 1);
        assert!(
            panicked[0].measurement.eval_time_s > 0.0,
            "panicked attempt must record its elapsed time"
        );
    }

    #[test]
    fn shutdown_flag_halts_before_any_work() {
        let flag = rt::supervise::ShutdownFlag::new();
        flag.request();
        let out = engine(50, 46, 1).with_shutdown(flag).run();
        assert!(out.halted);
        assert_eq!(out.stats.models_evaluated, 0);
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ecad-engine-checkpoint");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn halt_checkpoint_resume_matches_uninterrupted_run() {
        let uninterrupted = engine(40, 47, 1).run();

        let path = tmp_path("halt-resume.json");
        let first = engine(40, 47, 1)
            .with_checkpoint(CheckpointPolicy::new(&path, 5))
            .with_halt_after(20)
            .run();
        assert!(first.halted);
        assert_eq!(first.stats.models_evaluated, 20);

        let state = CheckpointState::load(&path).unwrap();
        let resumed = engine(40, 47, 1).resume(state).unwrap();
        assert!(!resumed.halted);
        assert_eq!(resumed.stats.models_evaluated, 40);

        let describe =
            |o: &EngineOutcome| -> Vec<String> {
                o.trace.iter().map(|e| e.genome.describe()).collect()
            };
        assert_eq!(describe(&resumed), describe(&uninterrupted));
        let fitnesses = |o: &EngineOutcome| -> Vec<f64> {
            o.trace.iter().map(|e| e.fitness).collect()
        };
        assert_eq!(fitnesses(&resumed), fitnesses(&uninterrupted));
        let pop = |o: &EngineOutcome| -> Vec<String> {
            o.population.iter().map(|e| e.genome.describe()).collect()
        };
        assert_eq!(pop(&resumed), pop(&uninterrupted));
        assert_eq!(
            resumed.best().unwrap().genome,
            uninterrupted.best().unwrap().genome
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_seed() {
        let path = tmp_path("mismatch.json");
        let _ = engine(20, 48, 1)
            .with_checkpoint(CheckpointPolicy::new(&path, 5))
            .with_halt_after(10)
            .run();
        let state = CheckpointState::load(&path).unwrap();
        assert!(engine(20, 999, 1).resume(state).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn periodic_checkpoint_reflects_final_state_after_completion() {
        let path = tmp_path("periodic.json");
        let out = engine(30, 49, 1)
            .with_checkpoint(CheckpointPolicy::new(&path, 7))
            .run();
        let state = CheckpointState::load(&path).unwrap();
        assert_eq!(state.trace.len(), out.stats.models_evaluated);
        // Every verdict is final: nothing is left to re-dispatch.
        assert!(state.journal.iter().all(|l| l.last));
        // Resuming a completed run is a no-op that returns the same
        // final population.
        let resumed = engine(30, 49, 1).resume(state).unwrap();
        assert_eq!(resumed.stats.models_evaluated, 30);
        assert_eq!(
            resumed.best().unwrap().genome,
            out.best().unwrap().genome
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn faulted_run_still_resumes_deterministically() {
        // Faults + checkpoint/resume compose: halt mid-run under a
        // transient-fault schedule, resume, and still complete the
        // budget. (Call indices shift across the restore boundary, so
        // only aggregate behavior is asserted here; byte-identity is
        // exercised by the fault-free tests above.)
        let schedule = FaultSchedule::new()
            .at(1, FaultKind::Transient)
            .at(6, FaultKind::Transient);
        let path = tmp_path("faulted-resume.json");
        let first = faulty_engine(schedule, fault_cfg(12, 50))
            .with_checkpoint(CheckpointPolicy::new(&path, 4))
            .with_halt_after(8)
            .run();
        assert!(first.halted);
        let state = CheckpointState::load(&path).unwrap();
        let resumed = faulty_engine(FaultSchedule::new(), fault_cfg(12, 50))
            .resume(state)
            .unwrap();
        assert_eq!(resumed.stats.models_evaluated, 12);
        assert_eq!(resumed.stats.retry_count, 2);
        std::fs::remove_file(&path).unwrap();
    }

    /// A resumed run's registry counts the whole run, as its stats do:
    /// the counters restart from the checkpoint's totals, not from zero.
    #[test]
    fn resumed_run_meters_count_the_whole_run() {
        let schedule = FaultSchedule::new()
            .at(1, FaultKind::Transient)
            .at(6, FaultKind::Transient);
        let path = tmp_path("metered-resume.json");
        let first = faulty_engine(schedule, fault_cfg(24, 51))
            .with_checkpoint(CheckpointPolicy::new(&path, 1))
            .with_halt_after(10)
            .run();
        assert!(first.halted && first.stats.retry_count == 2);
        let state = CheckpointState::load(&path).unwrap();
        let obs = Obs::builder().build();
        let resumed = faulty_engine(FaultSchedule::new(), fault_cfg(24, 51))
            .with_obs(obs.clone())
            .resume(state)
            .unwrap();
        let counter = |name: &str| match obs.snapshot().into_iter().find(|(n, _)| n == name) {
            Some((_, rt::obs::MetricValue::Counter(c))) => c as usize,
            other => panic!("{name}: {other:?}"),
        };
        let s = &resumed.stats;
        assert_eq!(s.models_evaluated, 24);
        assert_eq!(counter("engine.models_evaluated"), s.models_evaluated);
        assert_eq!(counter("engine.cache_hits"), s.cache_hits);
        assert_eq!(counter("engine.infeasible"), s.infeasible_count);
        assert_eq!(counter("engine.retries"), 2);
        assert_eq!(counter("engine.timeouts"), s.timeout_count);
        assert_eq!(counter("engine.respawns"), s.respawn_count);
        std::fs::remove_file(&path).unwrap();
    }

    /// Replay feeds the eval-time histogram too: after a resume it holds
    /// one sample per measured attempt of the whole run, the replayed
    /// retries included.
    #[test]
    fn resumed_run_eval_time_histogram_counts_the_whole_run() {
        let schedule = FaultSchedule::new().at(2, FaultKind::Transient);
        let path = tmp_path("histogram-resume.json");
        let _ = faulty_engine(schedule, fault_cfg(16, 52))
            .with_checkpoint(CheckpointPolicy::new(&path, 1))
            .with_halt_after(8)
            .run();
        let obs = Obs::builder().build();
        let resumed = faulty_engine(FaultSchedule::new(), fault_cfg(16, 52))
            .with_obs(obs.clone())
            .resume(CheckpointState::load(&path).unwrap())
            .unwrap();
        let samples = obs.snapshot().into_iter().find_map(|(n, v)| match v {
            rt::obs::MetricValue::Histogram(h) if n == "engine.eval_time_s" => Some(h.count),
            _ => None,
        });
        let s = &resumed.stats;
        assert_eq!(s.retry_count, 1);
        assert_eq!(samples, Some((s.models_evaluated + s.retry_count) as u64));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn zero_population_rejected() {
        let cfg = EvolutionConfig {
            population: 0,
            ..EvolutionConfig::small()
        };
        let _ = Engine::new(
            Arc::new(ToyEvaluator {
                panic_on_width: None,
            }),
            SearchSpace::gpu_default(),
            ObjectiveSet::accuracy_only(),
            cfg,
        );
    }
}
