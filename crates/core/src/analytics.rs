//! Per-epoch evolution analytics: population snapshots, Pareto-archive
//! hypervolume, genome diversity, operator success rates, and a stall
//! detector — the "search observatory" layer.
//!
//! The paper's value claim is the *trajectory* of the search: Pareto
//! frontiers tightening over generations (§III-B, Figs. 4–7). The raw
//! per-evaluation events from `rt::obs` cannot answer "is this run
//! converging, stalling, or collapsing in diversity?" without grepping
//! JSONL by hand, so every N unique evaluations (an **epoch**; the
//! engine is steady-state, so N defaults to the population size) the
//! engine asks an [`EpochTracker`] for a [`PopulationSnapshot`]:
//!
//! * fitness quantiles over the current population;
//! * **hypervolume** of a grow-only Pareto archive of all feasible
//!   oriented objective vectors, against a fixed reference point (see
//!   [`squash`] for the bounding convention) — the scalar convergence
//!   measure of multi-objective search;
//! * **genome diversity**: mean per-gene Shannon entropy and mean
//!   pairwise normalized Hamming distance over the population's gene
//!   tokens;
//! * dedup-cache hit rate and per-operator admission rates (which of
//!   seed/sample/crossover/mutate offspring actually entered the
//!   population);
//! * a **stall** verdict: hypervolume *and* best fitness flat for
//!   `stall_window` consecutive epochs.
//!
//! Snapshots are emitted as structured `epoch` events and metric
//! gauges; [`StatusCell`] + [`observatory`] expose the latest one over
//! HTTP for live scraping. Everything here is deterministic: no clocks,
//! no hash-map iteration orders, no RNG — a `--serve`d run's trace is
//! byte-identical to an unserved one, and a resumed run replays to the
//! same epoch values.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rt::json::{Json, ToJson};
use rt::obs::Obs;

use crate::checkpoint::RunCounters;
use crate::engine::Evaluated;
use crate::genome::{CandidateGenome, HwGenome};
use crate::pareto::dominates;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Epoch analytics knobs, carried inside
/// [`crate::engine::EvolutionConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticsConfig {
    /// Unique evaluations per epoch. `0` (the default) means "use the
    /// population size" — one epoch per population's worth of steady-
    /// state replacements, the closest analogue of a generation.
    pub epoch_size: usize,
    /// Number of epochs both hypervolume and best fitness must stay
    /// flat (within [`AnalyticsConfig::stall_epsilon`]) before the
    /// stall detector fires.
    pub stall_window: usize,
    /// Flatness threshold for the stall detector.
    pub stall_epsilon: f64,
}

impl Default for AnalyticsConfig {
    fn default() -> Self {
        Self {
            epoch_size: 0,
            stall_window: 5,
            stall_epsilon: 1e-9,
        }
    }
}

// ---------------------------------------------------------------------------
// Operator provenance
// ---------------------------------------------------------------------------

/// How a candidate was produced. The engine stamps every dispatch with
/// its operator so the per-epoch report can say *which* operators are
/// still producing offspring good enough to enter the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatorKind {
    /// Initial-population seed.
    Seed,
    /// Fresh random sample (population still too small to breed).
    Sample,
    /// Two-parent crossover (plus mutation).
    Crossover,
    /// Mutated copy of one parent.
    Mutate,
}

impl OperatorKind {
    /// All operators, in stable report order.
    pub const ALL: [OperatorKind; 4] = [
        OperatorKind::Seed,
        OperatorKind::Sample,
        OperatorKind::Crossover,
        OperatorKind::Mutate,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            OperatorKind::Seed => "seed",
            OperatorKind::Sample => "sample",
            OperatorKind::Crossover => "crossover",
            OperatorKind::Mutate => "mutate",
        }
    }

    fn index(self) -> usize {
        match self {
            OperatorKind::Seed => 0,
            OperatorKind::Sample => 1,
            OperatorKind::Crossover => 2,
            OperatorKind::Mutate => 3,
        }
    }
}

/// Per-operator `(offspring produced, offspring that entered the
/// population)` counters, indexed by [`OperatorKind::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorStats {
    counts: [(u64, u64); 4],
}

impl OperatorStats {
    /// Records one admitted candidate: `entered` says whether it
    /// displaced (or filled) a population slot.
    pub fn record(&mut self, op: OperatorKind, entered: bool) {
        let slot = &mut self.counts[op.index()];
        slot.0 += 1;
        if entered {
            slot.1 += 1;
        }
    }

    /// Offspring produced by `op`.
    pub fn total(&self, op: OperatorKind) -> u64 {
        self.counts[op.index()].0
    }

    /// Offspring by `op` that entered the population.
    pub fn entered(&self, op: OperatorKind) -> u64 {
        self.counts[op.index()].1
    }

    /// Admission rate for `op` (`0.0` before it produced anything).
    pub fn rate(&self, op: OperatorKind) -> f64 {
        let (total, entered) = self.counts[op.index()];
        if total == 0 {
            0.0
        } else {
            entered as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Hypervolume
// ---------------------------------------------------------------------------

/// Squashes one oriented objective value into `(0, 1)` with the
/// monotone map `atan(v)/π + 0.5`. This fixes the hypervolume reference
/// point once and for all: the archive lives in the unit box with the
/// **origin** as reference, regardless of objective scales, so volumes
/// from different runs of the same objective set are comparable and the
/// measure never needs a per-problem nadir point. `-inf` maps to 0,
/// `+inf` to 1, `NaN` to 0; dominance is preserved because the map is
/// strictly increasing on the reals.
pub fn squash(v: f64) -> f64 {
    if v.is_nan() {
        return 0.0;
    }
    if v == f64::INFINITY {
        return 1.0;
    }
    if v == f64::NEG_INFINITY {
        return 0.0;
    }
    v.atan() / std::f64::consts::PI + 0.5
}

/// A grow-only archive of mutually non-dominated points in the unit
/// box. Inserting a point removes the members it dominates and rejects
/// it if an existing member dominates (or equals) it, so the dominated
/// region — and therefore [`ParetoArchive::hypervolume`] — can only
/// grow: the report's hypervolume column is monotone non-decreasing by
/// construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParetoArchive {
    points: Vec<Vec<f64>>,
}

impl ParetoArchive {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of archived (non-dominated) points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Inserts a candidate's *oriented* objective vector (larger is
    /// better; see
    /// [`crate::fitness::ObjectiveSet::oriented_values`]). Returns
    /// whether the point joined the archive.
    pub fn insert(&mut self, oriented: &[f64]) -> bool {
        let p: Vec<f64> = oriented.iter().map(|&v| squash(v)).collect();
        if self
            .points
            .iter()
            .any(|q| q == &p || dominates(q, &p))
        {
            return false;
        }
        self.points.retain(|q| !dominates(&p, q));
        self.points.push(p);
        true
    }

    /// Exact hypervolume of the archive's dominated region against the
    /// origin of the unit box, by recursive slicing on the last
    /// objective. Exponential in dimensions in the worst case, but the
    /// objective sets here have 1–3 dimensions and archives stay small.
    pub fn hypervolume(&self) -> f64 {
        hypervolume_of(&self.points)
    }
}

fn hypervolume_of(points: &[Vec<f64>]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let d = points[0].len();
    if d == 1 {
        return points.iter().map(|p| p[0]).fold(0.0, f64::max);
    }
    // Slice along the last dimension: between consecutive heights, the
    // cross-section is the (d-1)-volume of the points at or above the
    // slab, projected down.
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[b][d - 1]
            .partial_cmp(&points[a][d - 1])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut volume = 0.0;
    for (i, &pi) in order.iter().enumerate() {
        let top = points[pi][d - 1];
        let bottom = order
            .get(i + 1)
            .map_or(0.0, |&next| points[next][d - 1]);
        let slab = top - bottom;
        if slab <= 0.0 {
            continue;
        }
        let projected: Vec<Vec<f64>> = order[..=i]
            .iter()
            .map(|&j| points[j][..d - 1].to_vec())
            .collect();
        volume += slab * hypervolume_of(&projected);
    }
    volume
}

// ---------------------------------------------------------------------------
// Diversity
// ---------------------------------------------------------------------------

/// Population diversity over gene tokens.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Diversity {
    /// Mean per-gene Shannon entropy, in bits.
    pub gene_entropy_bits: f64,
    /// Mean pairwise normalized Hamming distance in `[0, 1]`.
    pub mean_distance: f64,
}

/// A genome flattened into comparable gene tokens: per layer (padded to
/// the population's deepest network with a sentinel) the neuron count,
/// an activation tag, and the bias bit; then seven hardware tokens
/// (family tag, grid, interleave, vector width, batch — zeros for the
/// knob-free GPU positions).
fn gene_tokens(g: &CandidateGenome, max_layers: usize) -> Vec<u64> {
    const ABSENT: u64 = u64::MAX;
    let mut t = Vec::with_capacity(max_layers * 3 + 7);
    for i in 0..max_layers {
        match g.nna.layers.get(i) {
            Some(l) => {
                t.push(l.neurons as u64);
                t.push(l.activation.name().as_bytes()[0] as u64);
                t.push(u64::from(l.bias));
            }
            None => t.extend([ABSENT; 3]),
        }
    }
    match g.hw {
        HwGenome::FpgaGrid {
            rows,
            cols,
            interleave_m,
            interleave_n,
            vec,
            batch,
        } => t.extend([
            1,
            u64::from(rows),
            u64::from(cols),
            u64::from(interleave_m),
            u64::from(interleave_n),
            u64::from(vec),
            u64::from(batch),
        ]),
        HwGenome::GpuBatch { batch } => t.extend([0, 0, 0, 0, 0, 0, u64::from(batch)]),
    }
    t
}

/// Computes [`Diversity`] for a set of genomes.
///
/// Determinism note: entropy terms are summed over *sorted* token runs
/// (never a hash-map iteration), so the float result is identical
/// across processes — a resumed run reports bit-identical diversity.
pub fn population_diversity(genomes: &[&CandidateGenome]) -> Diversity {
    if genomes.is_empty() {
        return Diversity::default();
    }
    let max_layers = genomes
        .iter()
        .map(|g| g.nna.layers.len())
        .max()
        .unwrap_or(0);
    let vectors: Vec<Vec<u64>> = genomes
        .iter()
        .map(|g| gene_tokens(g, max_layers))
        .collect();
    let genes = vectors[0].len();
    let n = vectors.len();

    let mut entropy_sum = 0.0;
    for gene in 0..genes {
        let mut tokens: Vec<u64> = vectors.iter().map(|v| v[gene]).collect();
        tokens.sort_unstable();
        let mut h = 0.0;
        let mut run_start = 0;
        for i in 1..=n {
            if i == n || tokens[i] != tokens[run_start] {
                let p = (i - run_start) as f64 / n as f64;
                h -= p * p.log2();
                run_start = i;
            }
        }
        entropy_sum += h;
    }

    let mut distance_sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            let differing = vectors[i]
                .iter()
                .zip(&vectors[j])
                .filter(|(a, b)| a != b)
                .count();
            distance_sum += differing as f64 / genes as f64;
            pairs += 1;
        }
    }

    Diversity {
        gene_entropy_bits: entropy_sum / genes as f64,
        mean_distance: if pairs == 0 {
            0.0
        } else {
            distance_sum / pairs as f64
        },
    }
}

// ---------------------------------------------------------------------------
// Fitness quantiles
// ---------------------------------------------------------------------------

/// Quantile summary of the population's finite fitness values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FitnessSummary {
    /// How many members carry a finite fitness (infeasible candidates
    /// sit at `-inf` and are excluded from the quantiles).
    pub finite: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Summarizes a fitness slice; non-finite entries are dropped and all
/// fields are zero when nothing finite remains.
pub fn fitness_summary(fitnesses: &[f64]) -> FitnessSummary {
    let mut v: Vec<f64> = fitnesses.iter().copied().filter(|f| f.is_finite()).collect();
    if v.is_empty() {
        return FitnessSummary::default();
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let q = |p: f64| -> f64 {
        // Linear interpolation between closest ranks.
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    FitnessSummary {
        finite: v.len(),
        min: v[0],
        p25: q(0.25),
        p50: q(0.50),
        p75: q(0.75),
        max: v[v.len() - 1],
        mean: v.iter().sum::<f64>() / v.len() as f64,
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// One epoch's analytics, the payload of the `epoch` trace event and
/// the `/status` endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSnapshot {
    /// Completed epoch number (1-based).
    pub epoch: usize,
    /// Unique evaluations completed so far.
    pub evaluations: usize,
    /// Current population size.
    pub population: usize,
    /// Whether any feasible candidate has been seen yet.
    pub has_best: bool,
    /// Best scalar fitness so far (`0.0` until `has_best`; the raw
    /// `-inf` placeholder would not survive JSON).
    pub best_fitness: f64,
    /// Fitness quantiles over the current population.
    pub fitness: FitnessSummary,
    /// Pareto-archive hypervolume (monotone non-decreasing).
    pub hypervolume: f64,
    /// Pareto-archive size.
    pub archive_size: usize,
    /// Mean per-gene entropy of the population, bits.
    pub gene_entropy_bits: f64,
    /// Mean pairwise normalized Hamming distance of the population.
    pub mean_distance: f64,
    /// Dedup-cache hits / (hits + unique evaluations).
    pub cache_hit_rate: f64,
    /// Per-operator admission counters.
    pub operators: OperatorStats,
    /// Whether the stall detector currently considers the run flat.
    pub stalled: bool,
}

impl ToJson for PopulationSnapshot {
    fn to_json(&self) -> Json {
        let mut ops = Json::object();
        for op in OperatorKind::ALL {
            ops = ops.insert(
                op.name(),
                Json::object()
                    .insert("total", self.operators.total(op))
                    .insert("entered", self.operators.entered(op))
                    .insert("rate", self.operators.rate(op)),
            );
        }
        Json::object()
            .insert("epoch", self.epoch)
            .insert("evaluations", self.evaluations)
            .insert("population", self.population)
            .insert("has_best", self.has_best)
            .insert("best_fitness", self.best_fitness)
            .insert(
                "fitness",
                Json::object()
                    .insert("finite", self.fitness.finite)
                    .insert("min", self.fitness.min)
                    .insert("p25", self.fitness.p25)
                    .insert("p50", self.fitness.p50)
                    .insert("p75", self.fitness.p75)
                    .insert("max", self.fitness.max)
                    .insert("mean", self.fitness.mean),
            )
            .insert("hypervolume", self.hypervolume)
            .insert("archive_size", self.archive_size)
            .insert("gene_entropy_bits", self.gene_entropy_bits)
            .insert("mean_distance", self.mean_distance)
            .insert("cache_hit_rate", self.cache_hit_rate)
            .insert("operators", ops)
            .insert("stalled", self.stalled)
    }
}

// ---------------------------------------------------------------------------
// The tracker
// ---------------------------------------------------------------------------

/// Accumulates per-evaluation observations and produces a
/// [`PopulationSnapshot`] at every epoch boundary, including the stall
/// verdict. The engine owns one per run; a resumed run rebuilds it by
/// replaying its checkpoint journal through the same calls, so it
/// reports bit-identical epochs.
#[derive(Debug, Clone)]
pub struct EpochTracker {
    epoch_size: usize,
    stall_window: usize,
    stall_epsilon: f64,
    archive: ParetoArchive,
    best: f64,
    hv_reported: f64,
    /// `(hypervolume, best)` per completed epoch.
    history: Vec<(f64, f64)>,
    stalled: bool,
    ops: OperatorStats,
}

impl EpochTracker {
    /// A tracker for a run with the given population size (the default
    /// epoch length when the config leaves `epoch_size` at 0).
    pub fn new(cfg: AnalyticsConfig, population: usize) -> Self {
        let epoch_size = if cfg.epoch_size == 0 {
            population.max(1)
        } else {
            cfg.epoch_size
        };
        Self {
            epoch_size,
            stall_window: cfg.stall_window.max(1),
            stall_epsilon: cfg.stall_epsilon,
            archive: ParetoArchive::new(),
            best: f64::NEG_INFINITY,
            hv_reported: 0.0,
            history: Vec::new(),
            stalled: false,
            ops: OperatorStats::default(),
        }
    }

    /// Evaluations per epoch after defaulting.
    pub fn epoch_size(&self) -> usize {
        self.epoch_size
    }

    /// Feeds one finalized unique evaluation. `oriented` is the
    /// candidate's oriented objective vector (ignored — along with the
    /// archive/best update — when the fitness is not finite, i.e. the
    /// candidate is infeasible).
    pub fn observe(&mut self, oriented: &[f64], fitness: f64) {
        if !fitness.is_finite() {
            return;
        }
        if fitness > self.best {
            self.best = fitness;
        }
        self.archive.insert(oriented);
    }

    /// Records operator provenance for one admitted candidate.
    pub fn record_op(&mut self, op: OperatorKind, entered: bool) {
        self.ops.record(op, entered);
    }

    /// Whether `trace_len` unique evaluations complete an epoch.
    pub fn should_snapshot(&self, trace_len: usize) -> bool {
        trace_len > 0 && trace_len % self.epoch_size == 0
    }

    /// Flat iff both hypervolume and best fitness moved less than
    /// epsilon over the last `stall_window` epochs. Before the first
    /// feasible candidate `best` is `-inf` on both sides and the
    /// difference is NaN, which never satisfies the comparison — the
    /// detector cannot fire on an all-infeasible prefix.
    fn is_stalled(&self) -> bool {
        if self.history.len() <= self.stall_window {
            return false;
        }
        let (hv_now, best_now) = self.history[self.history.len() - 1];
        let (hv_then, best_then) = self.history[self.history.len() - 1 - self.stall_window];
        (hv_now - hv_then).abs() <= self.stall_epsilon
            && (best_now - best_then).abs() <= self.stall_epsilon
    }

    /// Produces the snapshot for the epoch ending at `trace_len`
    /// evaluations, advancing the history and stall state. The second
    /// return is true exactly when the stall detector fired on this
    /// epoch (a rising edge — already-stalled epochs do not re-fire).
    pub fn snapshot(
        &mut self,
        trace_len: usize,
        population: &[Evaluated],
        cache_hits: usize,
    ) -> (PopulationSnapshot, bool) {
        let was_stalled = self.stalled;
        // The archive's dominated region only grows, so this max is a
        // mathematical no-op; it additionally shields the *reported*
        // column from any floating-point wobble in the recomputation.
        self.hv_reported = self.hv_reported.max(self.archive.hypervolume());
        let (hv, best) = (self.hv_reported, self.best);
        self.history.push((hv, best));
        self.stalled = self.is_stalled();
        let fired = self.stalled && !was_stalled;

        let fitnesses: Vec<f64> = population.iter().map(|e| e.fitness).collect();
        let genomes: Vec<&CandidateGenome> = population.iter().map(|e| &e.genome).collect();
        let diversity = population_diversity(&genomes);
        let denominator = cache_hits + trace_len;
        let snapshot = PopulationSnapshot {
            epoch: trace_len / self.epoch_size,
            evaluations: trace_len,
            population: population.len(),
            has_best: best.is_finite(),
            best_fitness: if best.is_finite() { best } else { 0.0 },
            fitness: fitness_summary(&fitnesses),
            hypervolume: hv,
            archive_size: self.archive.len(),
            gene_entropy_bits: diversity.gene_entropy_bits,
            mean_distance: diversity.mean_distance,
            cache_hit_rate: if denominator == 0 {
                0.0
            } else {
                cache_hits as f64 / denominator as f64
            },
            operators: self.ops,
            stalled: self.stalled,
        };
        (snapshot, fired)
    }
}

/// A gauge name and the snapshot field it shows.
type EpochGauge = (&'static str, fn(&PopulationSnapshot) -> f64);

/// The `search.*` gauges an epoch snapshot refreshes.
const EPOCH_GAUGES: [EpochGauge; 8] = [
    ("search.epoch", |s| s.epoch as f64),
    ("search.best_fitness", |s| s.best_fitness),
    ("search.hypervolume", |s| s.hypervolume),
    ("search.archive_size", |s| s.archive_size as f64),
    ("search.gene_entropy_bits", |s| s.gene_entropy_bits),
    ("search.mean_distance", |s| s.mean_distance),
    ("search.cache_hit_rate", |s| s.cache_hit_rate),
    ("search.fitness_p50", |s| s.fitness.p50),
];

fn operator_gauge(obs: &Obs, op: OperatorKind) -> rt::obs::Gauge {
    obs.gauge(&format!("search.op_{}_rate", op.name()))
}

/// Registers the epoch gauges and the per-epoch hypervolume histogram
/// when a run starts, so `/metrics` lists them from the first scrape.
pub(crate) fn register_epoch_metrics(obs: &Obs) {
    for (name, _) in EPOCH_GAUGES {
        obs.gauge(name);
    }
    for op in OperatorKind::ALL {
        operator_gauge(obs, op);
    }
    obs.histogram("search.epoch_hypervolume");
}

impl PopulationSnapshot {
    /// Refreshes the epoch metrics from this snapshot. Also mirrors
    /// per-phase profile seconds (top-level spans of the attached
    /// profiler) into gauges, so the `/metrics` exposition carries the
    /// time breakdown of a live search.
    pub(crate) fn publish(&self, obs: &Obs) {
        for (name, field) in EPOCH_GAUGES {
            obs.gauge(name).set(field(self));
        }
        for op in OperatorKind::ALL {
            operator_gauge(obs, op).set(self.operators.rate(op));
        }
        obs.histogram("search.epoch_hypervolume").record(self.hypervolume);
        if let Some(profiler) = obs.profiler() {
            for (phase, secs) in profiler.phase_seconds() {
                obs.gauge(&format!("profile.phase.{phase}_s")).set(secs);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Live status
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct StatusInner {
    started: Option<Instant>,
    done: bool,
    snapshot: Option<PopulationSnapshot>,
    models_evaluated: usize,
    counters: RunCounters,
    last_checkpoint: Option<Instant>,
}

/// Shared mutable cell the engine writes and the HTTP `/status` route
/// reads: the latest epoch snapshot, engine counters, uptime, and
/// checkpoint age. Cloning shares the cell. The engine only *writes*
/// under a short lock; readers never touch engine state, so serving
/// does not perturb the search.
#[derive(Debug, Clone, Default)]
pub struct StatusCell {
    inner: Arc<Mutex<StatusInner>>,
}

impl StatusCell {
    /// A fresh, empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the run as started (uptime measures from here).
    pub fn note_started(&self) {
        let mut s = self.inner.lock().expect("status cell");
        s.started = Some(Instant::now());
        s.done = false;
    }

    /// Publishes the latest epoch snapshot.
    pub fn note_snapshot(&self, snapshot: PopulationSnapshot) {
        self.inner.lock().expect("status cell").snapshot = Some(snapshot);
    }

    /// Publishes the engine's running counters and trace length.
    pub fn note_counters(&self, models_evaluated: usize, counters: RunCounters) {
        let mut s = self.inner.lock().expect("status cell");
        s.models_evaluated = models_evaluated;
        s.counters = counters;
    }

    /// Records that a checkpoint was just written.
    pub fn note_checkpoint(&self) {
        self.inner.lock().expect("status cell").last_checkpoint = Some(Instant::now());
    }

    /// Marks the run as finished.
    pub fn note_done(&self) {
        self.inner.lock().expect("status cell").done = true;
    }

    /// The `/status` JSON document.
    pub fn to_json(&self) -> Json {
        let s = self.inner.lock().expect("status cell");
        let now = Instant::now();
        let age =
            |t: Option<Instant>| t.map_or(Json::Null, |t| Json::Number((now - t).as_secs_f64()));
        Json::object()
            .insert("running", s.started.is_some() && !s.done)
            .insert("done", s.done)
            .insert("uptime_s", age(s.started))
            .insert("checkpoint_age_s", age(s.last_checkpoint))
            .insert("models_evaluated", s.models_evaluated)
            .insert("cache_hits", s.counters.cache_hits)
            .insert("infeasible", s.counters.infeasible_count)
            .insert("retries", s.counters.retry_count)
            .insert("timeouts", s.counters.timeout_count)
            .insert("respawns", s.counters.respawn_count)
            .insert("epoch", s.snapshot.as_ref().map_or(Json::Null, ToJson::to_json))
    }
}

/// Builds the observatory route table over an [`Obs`] handle and a
/// [`StatusCell`]: `GET /metrics` (Prometheus text exposition of the
/// metrics registry), `GET /status` (JSON), `GET /healthz`. Bind the
/// returned server with [`rt::http::Server::bind`].
pub fn observatory(obs: &Obs, status: &StatusCell) -> rt::http::Server {
    let metrics_obs = obs.clone();
    let status_cell = status.clone();
    rt::http::Server::new()
        .route("/metrics", move || {
            rt::http::Response::ok(
                "text/plain; version=0.0.4",
                rt::http::prometheus_text(&metrics_obs.snapshot()),
            )
        })
        .route("/status", move || {
            rt::http::Response::ok("application/json", status_cell.to_json().to_string())
        })
        .route("/healthz", || rt::http::Response::ok("text/plain", "ok\n".to_string()))
}

/// The `/workers` JSON document: one entry per remote worker with its
/// lifecycle state and freshness (health cells), the tallies of its
/// accepted `evaluated` replies (its labeled gauges), and the
/// coordinator-side exchange-latency quantiles from its labeled
/// histogram. Reads only side-channel registries (health cells,
/// metrics), so scraping never perturbs a seeded run.
pub fn workers_json(obs: &Obs, health: &crate::cluster::ClusterHealth) -> Json {
    let workers: Vec<Json> = health
        .snapshot()
        .into_iter()
        .map(|w| {
            let lat = obs.histogram_with("cluster.worker_eval_s", &[("worker", w.addr.as_str())]);
            let mut entry = Json::object()
                .insert("addr", w.addr.as_str())
                .insert("state", w.state.as_str())
                .insert(
                    "last_seen_s",
                    w.last_seen_s.map_or(Json::Null, Json::Number),
                );
            let tallies = crate::cluster::tally_gauges(obs, &w.addr);
            for (tally, gauge) in crate::cluster::WORKER_TALLIES.into_iter().zip(tallies) {
                entry = entry.insert(tally, gauge.get());
            }
            entry
                .insert("eval_count", lat.count())
                .insert("eval_p50_s", lat.quantile(0.5))
                .insert("eval_p95_s", lat.quantile(0.95))
        })
        .collect();
    Json::object()
        .insert("degraded", health.degraded())
        .insert("workers", workers)
}

/// [`observatory`] plus the cluster route table: `GET /workers` serves
/// per-worker lifecycle state and telemetry alongside the standard
/// `/metrics`, `/status`, and `/healthz`.
pub fn cluster_observatory(
    obs: &Obs,
    status: &StatusCell,
    health: Arc<crate::cluster::ClusterHealth>,
) -> rt::http::Server {
    let workers_obs = obs.clone();
    observatory(obs, status).route("/workers", move || {
        rt::http::Response::ok(
            "application/json",
            workers_json(&workers_obs, &health).to_string(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{LayerGene, NnaGenome};
    use crate::measurement::{HwMetrics, Measurement};
    use ecad_mlp::Activation;

    fn genome(neurons: usize, batch: u32) -> CandidateGenome {
        CandidateGenome {
            nna: NnaGenome {
                layers: vec![LayerGene {
                    neurons,
                    activation: Activation::Relu,
                    bias: true,
                }],
            },
            hw: HwGenome::GpuBatch { batch },
        }
    }

    fn evaluated(neurons: usize, fitness: f64) -> Evaluated {
        Evaluated {
            genome: genome(neurons, 64),
            measurement: Measurement {
                accuracy: fitness as f32,
                train_accuracy: fitness as f32,
                params: neurons * 10,
                neurons,
                hw: HwMetrics::Gpu {
                    outputs_per_s: 1e5,
                    efficiency: 0.1,
                    latency_s: 1e-4,
                    effective_gflops: 1.0,
                    power_w: 50.0,
                },
                eval_time_s: 1e-6,
                train_time_s: 5e-7,
                hw_time_s: 5e-7,
            },
            fitness,
        }
    }

    #[test]
    fn squash_is_monotone_and_bounded() {
        let samples = [
            f64::NEG_INFINITY,
            -1e12,
            -3.0,
            0.0,
            1e-9,
            2.5,
            1e12,
            f64::INFINITY,
        ];
        for w in samples.windows(2) {
            assert!(squash(w[0]) < squash(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &v in &samples {
            let s = squash(v);
            assert!((0.0..=1.0).contains(&s));
        }
        assert_eq!(squash(f64::NAN), 0.0);
        assert!((squash(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn archive_keeps_only_non_dominated_points() {
        let mut a = ParetoArchive::new();
        assert!(a.insert(&[1.0, 1.0]));
        assert!(!a.insert(&[1.0, 1.0]), "duplicates rejected");
        assert!(!a.insert(&[0.5, 0.5]), "dominated rejected");
        assert!(a.insert(&[2.0, 0.0]), "trade-off accepted");
        assert_eq!(a.len(), 2);
        assert!(a.insert(&[3.0, 3.0]), "dominator accepted");
        assert_eq!(a.len(), 1, "dominated members evicted");
    }

    #[test]
    fn hypervolume_of_known_boxes() {
        // One point at the top corner of the unit box covers it all.
        let mut a = ParetoArchive::new();
        a.insert(&[f64::INFINITY, f64::INFINITY]);
        assert!((a.hypervolume() - 1.0).abs() < 1e-12);

        // Two staircase points: union of two rectangles.
        let p = |v: f64| (v.tan() * std::f64::consts::PI).atan(); // identity helper unused; keep direct values
        let _ = p;
        let mut b = ParetoArchive::new();
        // squash(0) = 0.5 exactly, so use 0-valued coordinates for a
        // closed-form expectation.
        b.insert(&[0.0, f64::INFINITY]); // (0.5, 1.0)
        b.insert(&[f64::INFINITY, 0.0]); // (1.0, 0.5)
        // Union area = 0.5*1.0 + 1.0*0.5 - 0.5*0.5 = 0.75.
        assert!((b.hypervolume() - 0.75).abs() < 1e-12, "{}", b.hypervolume());
    }

    #[test]
    fn hypervolume_one_and_three_dimensions() {
        let mut a = ParetoArchive::new();
        a.insert(&[0.0]);
        assert!((a.hypervolume() - 0.5).abs() < 1e-12);
        a.insert(&[1e18]); // ~1.0 after squash
        assert!(a.hypervolume() > 0.99);

        let mut b = ParetoArchive::new();
        b.insert(&[0.0, 0.0, 0.0]);
        assert!((b.hypervolume() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_is_monotone_under_insertion() {
        // Deterministic pseudo-random walk over insertions; the archive
        // property (grow-only dominated region) must hold throughout.
        let mut a = ParetoArchive::new();
        let mut prev = 0.0;
        let mut x: u64 = 0x1234_5678_9abc_def0;
        for _ in 0..200 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v1 = ((x & 0xffff) as f64 / 655.36) - 50.0;
            let v2 = (((x >> 16) & 0xffff) as f64 / 655.36) - 50.0;
            a.insert(&[v1, v2]);
            let hv = a.hypervolume();
            assert!(
                hv >= prev - 1e-12,
                "hypervolume decreased: {prev} -> {hv}"
            );
            prev = prev.max(hv);
        }
        assert!(prev > 0.0);
    }

    #[test]
    fn diversity_of_identical_population_is_zero() {
        let g = genome(64, 32);
        let pop = vec![&g, &g, &g];
        let d = population_diversity(&pop);
        assert_eq!(d.gene_entropy_bits, 0.0);
        assert_eq!(d.mean_distance, 0.0);
    }

    #[test]
    fn diversity_grows_with_variation() {
        let a = genome(64, 32);
        let b = genome(128, 32);
        let c = genome(256, 64);
        let uniform = population_diversity(&[&a, &a, &a, &a]);
        let varied = population_diversity(&[&a, &b, &c, &a]);
        assert!(varied.gene_entropy_bits > uniform.gene_entropy_bits);
        assert!(varied.mean_distance > uniform.mean_distance);
        assert!(varied.mean_distance <= 1.0);
    }

    #[test]
    fn diversity_handles_ragged_layer_counts() {
        let a = genome(64, 32);
        let mut b = genome(64, 32);
        b.nna.layers.push(LayerGene {
            neurons: 16,
            activation: Activation::Tanh,
            bias: false,
        });
        let d = population_diversity(&[&a, &b]);
        assert!(d.mean_distance > 0.0);
        assert!(d.gene_entropy_bits > 0.0);
    }

    #[test]
    fn fitness_summary_quantiles() {
        let s = fitness_summary(&[4.0, 1.0, f64::NEG_INFINITY, 2.0, 3.0]);
        assert_eq!(s.finite, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.p50 - 2.5).abs() < 1e-12);
        assert!((s.p25 - 1.75).abs() < 1e-12);
        assert!((s.p75 - 3.25).abs() < 1e-12);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(fitness_summary(&[f64::NEG_INFINITY]), FitnessSummary::default());
    }

    #[test]
    fn operator_stats_rates() {
        let mut ops = OperatorStats::default();
        ops.record(OperatorKind::Mutate, true);
        ops.record(OperatorKind::Mutate, false);
        ops.record(OperatorKind::Crossover, true);
        assert_eq!(ops.total(OperatorKind::Mutate), 2);
        assert_eq!(ops.entered(OperatorKind::Mutate), 1);
        assert!((ops.rate(OperatorKind::Mutate) - 0.5).abs() < 1e-12);
        assert_eq!(ops.rate(OperatorKind::Seed), 0.0);
    }

    #[test]
    fn tracker_snapshots_at_epoch_boundaries() {
        let mut t = EpochTracker::new(AnalyticsConfig::default(), 4);
        assert_eq!(t.epoch_size(), 4);
        assert!(!t.should_snapshot(0));
        assert!(!t.should_snapshot(3));
        assert!(t.should_snapshot(4));
        assert!(t.should_snapshot(8));

        let pop: Vec<Evaluated> = (0..4).map(|i| evaluated(32 + i, 0.5 + i as f64 * 0.1)).collect();
        for e in &pop {
            t.observe(&[e.fitness], e.fitness);
        }
        let (snap, fired) = t.snapshot(4, &pop, 2);
        assert!(!fired);
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.evaluations, 4);
        assert!(snap.has_best);
        assert!((snap.best_fitness - 0.8).abs() < 1e-12);
        assert!(snap.hypervolume > 0.0);
        assert!((snap.cache_hit_rate - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(snap.fitness.finite, 4);
    }

    #[test]
    fn stall_detector_fires_on_rising_edge_only() {
        let cfg = AnalyticsConfig {
            epoch_size: 1,
            stall_window: 2,
            stall_epsilon: 1e-9,
        };
        let mut t = EpochTracker::new(cfg, 4);
        let pop = vec![evaluated(64, 0.5)];
        t.observe(&[0.5], 0.5);
        let mut fired_epochs = Vec::new();
        for n in 1..=6 {
            let (snap, fired) = t.snapshot(n, &pop, 0);
            if fired {
                fired_epochs.push(snap.epoch);
            }
        }
        // Epochs: hv/best constant throughout. History needs window+1
        // entries, so the first stalled epoch is #3 — and only #3 fires.
        assert_eq!(fired_epochs, vec![3]);

        // Improvement clears the stall; a fresh flat stretch re-fires.
        t.observe(&[5.0], 5.0);
        let (snap, fired) = t.snapshot(7, &pop, 0);
        assert!(!snap.stalled && !fired);
        let mut refired = Vec::new();
        for n in 8..=10 {
            let (snap, fired) = t.snapshot(n, &pop, 0);
            if fired {
                refired.push(snap.epoch);
            }
        }
        assert_eq!(refired, vec![9]);
    }

    #[test]
    fn stall_detector_ignores_all_infeasible_prefix() {
        let cfg = AnalyticsConfig {
            epoch_size: 1,
            stall_window: 1,
            stall_epsilon: 1e-9,
        };
        let mut t = EpochTracker::new(cfg, 4);
        let pop: Vec<Evaluated> = Vec::new();
        for n in 1..=4 {
            let (snap, fired) = t.snapshot(n, &pop, 0);
            assert!(!snap.stalled, "epoch {n} stalled with no feasible best");
            assert!(!fired);
            assert!(!snap.has_best);
            assert_eq!(snap.best_fitness, 0.0);
        }
    }

    #[test]
    fn status_cell_json_shape() {
        let cell = StatusCell::new();
        let idle = cell.to_json();
        assert_eq!(idle.get("running"), Some(&Json::Bool(false)));
        assert_eq!(idle.get("uptime_s"), Some(&Json::Null));
        assert_eq!(idle.get("epoch"), Some(&Json::Null));

        cell.note_started();
        let counters = RunCounters {
            cache_hits: 2,
            infeasible_count: 1,
            ..RunCounters::default()
        };
        cell.note_counters(10, counters);
        cell.note_checkpoint();
        let mut t = EpochTracker::new(AnalyticsConfig::default(), 2);
        let pop = vec![evaluated(64, 0.5), evaluated(128, 0.7)];
        for e in &pop {
            t.observe(&[e.fitness], e.fitness);
        }
        cell.note_snapshot(t.snapshot(2, &pop, 2).0);
        let live = cell.to_json();
        assert_eq!(live.get("running"), Some(&Json::Bool(true)));
        assert_eq!(live.get("models_evaluated").and_then(Json::as_f64), Some(10.0));
        assert!(live.get("uptime_s").and_then(Json::as_f64).is_some());
        assert!(live.get("checkpoint_age_s").and_then(Json::as_f64).is_some());
        let epoch = live.get("epoch").expect("epoch present");
        assert_eq!(epoch.get("evaluations").and_then(Json::as_f64), Some(2.0));
        // The document round-trips through the serializer.
        let text = live.to_string();
        assert!(Json::parse(&text).is_ok());

        cell.note_done();
        assert_eq!(cell.to_json().get("running"), Some(&Json::Bool(false)));
    }

    #[test]
    fn observatory_serves_metrics_status_and_health() {
        use std::io::{Read as _, Write as _};

        let obs = Obs::builder().build();
        obs.counter("engine.models_evaluated").add(5);
        obs.gauge("search.hypervolume").set(0.25);
        let cell = StatusCell::new();
        cell.note_started();
        cell.note_counters(5, RunCounters::default());

        let handle = observatory(&obs, &cell)
            .bind("127.0.0.1:0")
            .expect("bind observatory");
        let get = |target: &str| -> (u16, String) {
            let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
            write!(s, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut text = String::new();
            s.read_to_string(&mut text).unwrap();
            let status = text.split_whitespace().nth(1).unwrap().parse().unwrap();
            let body = text.split_once("\r\n\r\n").map(|x| x.1.to_string()).unwrap();
            (status, body)
        };

        let (code, body) = get("/metrics");
        assert_eq!(code, 200);
        let samples = rt::http::parse_exposition(&body).expect("exposition parses");
        assert!(samples
            .iter()
            .any(|s| s.name == "engine_models_evaluated" && s.value == 5.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "search_hypervolume" && s.value == 0.25));

        let (code, body) = get("/status");
        assert_eq!(code, 200);
        let json = Json::parse(&body).expect("status is json");
        assert_eq!(json.get("models_evaluated").and_then(Json::as_f64), Some(5.0));
        assert_eq!(json.get("running"), Some(&Json::Bool(true)));

        assert_eq!(get("/healthz"), (200, "ok\n".to_string()));
        handle.stop();
    }

    #[test]
    fn cluster_observatory_serves_worker_health() {
        use std::io::{Read as _, Write as _};

        use crate::cluster::{ClusterHealth, WorkerState};

        let obs = Obs::builder().build();
        let health = Arc::new(ClusterHealth::new(&[
            "10.0.0.1:7000".to_string(),
            "10.0.0.2:7000".to_string(),
        ]));
        health.set_state(0, WorkerState::Connected);
        health.mark_seen(0);
        let tallies = crate::cluster::tally_gauges(&obs, "10.0.0.1:7000");
        for (gauge, value) in tallies.iter().zip([7.0, 1.5, 0.5, 1.0, 2.0]) {
            gauge.add(value);
        }
        health.set_state(1, WorkerState::Lost);
        health.set_degraded();
        obs.histogram_with("cluster.worker_eval_s", &[("worker", "10.0.0.1:7000")])
            .record(0.25);

        let handle = cluster_observatory(&obs, &StatusCell::new(), Arc::clone(&health))
            .bind("127.0.0.1:0")
            .expect("bind cluster observatory");
        let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
        write!(s, "GET /workers HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        let body = text.split_once("\r\n\r\n").map(|x| x.1.to_string()).unwrap();
        let json = Json::parse(&body).expect("/workers is json");
        assert_eq!(json.get("degraded"), Some(&Json::Bool(true)));
        let workers = json.get("workers").and_then(Json::as_array).unwrap();
        assert_eq!(workers.len(), 2);
        let w0 = &workers[0];
        assert_eq!(w0.get("addr").and_then(Json::as_str), Some("10.0.0.1:7000"));
        assert_eq!(w0.get("state").and_then(Json::as_str), Some("connected"));
        assert!(w0.get("last_seen_s").and_then(Json::as_f64).is_some());
        assert_eq!(w0.get("jobs").and_then(Json::as_f64), Some(7.0));
        assert_eq!(w0.get("panics").and_then(Json::as_f64), Some(1.0));
        assert_eq!(w0.get("migrants").and_then(Json::as_f64), Some(2.0));
        assert_eq!(w0.get("eval_count").and_then(Json::as_f64), Some(1.0));
        let p50 = w0.get("eval_p50_s").and_then(Json::as_f64).unwrap();
        assert!((p50 - 0.25).abs() < 0.05, "bucketed p50 near 0.25, got {p50}");
        let w1 = &workers[1];
        assert_eq!(w1.get("state").and_then(Json::as_str), Some("lost"));
        assert_eq!(w1.get("last_seen_s"), Some(&Json::Null));
        assert_eq!(w1.get("eval_count").and_then(Json::as_f64), Some(0.0));
        handle.stop();
    }
}
