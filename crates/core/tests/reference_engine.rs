//! Reference-GA oracle for the production engine.
//!
//! `reference_run` is the paper's master loop (§III-A) written as a
//! plain single-thread steady-state GA: no channels, ledger,
//! supervisor, telemetry, checkpoint or cluster. Seed genomes first,
//! then children bred by tournament selection, crossover and mutation;
//! duplicates are served from a dedup cache without spending budget;
//! each unique evaluation is admitted by worst-of-tournament
//! replacement (weighted fitness) or rank/crowding eviction (NSGA-II).
//! It draws from the master RNG in the same order the engine does, so
//! `Engine` at `threads = 1` must reproduce its trace, final population
//! and counters exactly — fault-free, under budget-neutral fault
//! schedules, and across a halt/checkpoint/resume at every cut.
//!
//! A mutant reference whose weighted admission also replaces on ties
//! must be told apart from the engine, which shows the comparison is
//! sharp enough to catch a one-character change to the loop.

use std::collections::HashMap;
use std::sync::{Arc, Once};
use std::time::Duration;

use ecad_core::checkpoint::{CheckpointPolicy, CheckpointState};
use ecad_core::engine::{Engine, EngineOutcome, Evaluated, EvolutionConfig, SelectionMode};
use ecad_core::faults::{FaultKind, FaultSchedule, FaultyEvaluator};
use ecad_core::fitness::{Objective, ObjectiveSet};
use ecad_core::genome::CandidateGenome;
use ecad_core::measurement::{FailureKind, HwMetrics, InfeasibleReason, Measurement};
use ecad_core::pareto::{crowding_distance, non_dominated_sort};
use ecad_core::space::SearchSpace;
use ecad_core::workers::Evaluator;
use ecad_mlp::Activation;
use rt::rand::rngs::StdRng;
use rt::rand::{Rng, SeedableRng};

/// The engine's duplicate-breeding safety valve: stop after this many
/// multiples of the budget in candidate attempts.
const ATTEMPT_FACTOR: usize = 50;

/// A coarse, deterministic landscape: accuracy and throughput take few
/// distinct values, so fitness ties are common, and about one genome in
/// five does not fit the device.
struct TieEvaluator;

impl Evaluator for TieEvaluator {
    fn evaluate(&self, genome: &CandidateGenome) -> Measurement {
        let neurons = genome.nna.total_neurons();
        let batch = genome.hw.batch() as usize;
        if (neurons + batch / 32).is_multiple_of(5) {
            return Measurement::infeasible(InfeasibleReason::DeviceFit);
        }
        let accuracy = (neurons % 7) as f32 / 8.0;
        Measurement {
            accuracy,
            train_accuracy: accuracy,
            params: neurons * 10,
            neurons,
            hw: HwMetrics::Gpu {
                outputs_per_s: 1000.0 * batch as f64,
                efficiency: 0.5,
                latency_s: 1e-3,
                effective_gflops: 1.0,
                power_w: 50.0,
            },
            eval_time_s: 1e-6,
            train_time_s: 6e-7,
            hw_time_s: 4e-7,
        }
    }

    fn target_name(&self) -> String {
        "tie".to_string()
    }
}

fn objectives() -> ObjectiveSet {
    ObjectiveSet::new(vec![
        Objective::maximize("accuracy"),
        Objective::maximize("log_throughput").with_weight(0.02),
    ])
}

/// One sweep case: a name for failure messages, the GA settings, and
/// the search space.
#[derive(Clone)]
struct Case {
    name: &'static str,
    population: usize,
    evaluations: usize,
    tournament: usize,
    crossover_rate: f64,
    space: SearchSpace,
}

fn cases() -> Vec<Case> {
    let normal = Case {
        name: "normal",
        population: 8,
        evaluations: 40,
        tournament: 3,
        crossover_rate: 0.5,
        space: SearchSpace::gpu_default().with_neurons(4, 64),
    };
    // Four distinct genomes against a budget of ten: breeding runs dry
    // and the attempt valve ends the run.
    let exhausted = SearchSpace {
        activations: vec![Activation::Relu],
        batches: vec![32],
        ..SearchSpace::gpu_default()
            .with_layers(1, 1)
            .with_neurons(4, 5)
    };
    vec![
        Case {
            name: "budget-below-population",
            evaluations: 5,
            ..normal.clone()
        },
        Case {
            name: "crossover-0",
            crossover_rate: 0.0,
            ..normal.clone()
        },
        Case {
            name: "crossover-1",
            crossover_rate: 1.0,
            tournament: 2,
            ..normal.clone()
        },
        Case {
            name: "tiny-space",
            space: SearchSpace::gpu_default()
                .with_layers(1, 1)
                .with_neurons(4, 6),
            ..normal.clone()
        },
        Case {
            name: "attempt-valve",
            evaluations: 10,
            space: exhausted,
            ..normal.clone()
        },
        normal,
    ]
}

fn config(case: &Case, seed: u64, selection: SelectionMode) -> EvolutionConfig {
    EvolutionConfig {
        population: case.population,
        evaluations: case.evaluations,
        tournament: case.tournament,
        crossover_rate: case.crossover_rate,
        seed,
        threads: 1,
        selection,
        ..EvolutionConfig::small()
    }
}

/// What the reference produces, in the shape the engine is compared on.
struct RefOutcome {
    trace: Vec<Evaluated>,
    population: Vec<Evaluated>,
    models_evaluated: usize,
    cache_hits: usize,
    infeasible_count: usize,
}

/// The steady-state GA. `replace_on_ties` is the mutant switch: the
/// weighted admission then also replaces a victim of equal fitness.
struct Reference<'a> {
    cfg: EvolutionConfig,
    space: &'a SearchSpace,
    objectives: ObjectiveSet,
    replace_on_ties: bool,
}

impl Reference<'_> {
    fn run(&self, evaluator: &dyn Evaluator) -> RefOutcome {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut seeds: Vec<CandidateGenome> = (0..cfg.population.min(cfg.evaluations))
            .map(|_| self.space.sample(&mut rng))
            .collect();
        seeds.reverse();
        let mut population = Vec::new();
        let mut trace = Vec::new();
        let mut cache: HashMap<u64, Measurement> = HashMap::new();
        let (mut submitted, mut attempts, mut cache_hits, mut infeasible) = (0, 0, 0, 0);
        while submitted < cfg.evaluations && attempts < cfg.evaluations * ATTEMPT_FACTOR {
            let genome = match seeds.pop() {
                Some(g) => g,
                None => self.breed(&population, &mut rng),
            };
            attempts += 1;
            if let Some(m) = cache.get(&genome.cache_key()) {
                cache_hits += 1;
                let m = m.clone();
                self.admit(self.score(genome, m), &mut population, &mut rng);
                continue;
            }
            submitted += 1;
            let m = evaluator.evaluate(&genome);
            infeasible += usize::from(!m.hw.is_feasible());
            if m.failure_kind() != Some(FailureKind::Transient) {
                cache.insert(genome.cache_key(), m.clone());
            }
            let eval = self.score(genome, m);
            self.admit(eval.clone(), &mut population, &mut rng);
            trace.push(eval);
        }
        RefOutcome {
            models_evaluated: trace.len(),
            trace,
            population,
            cache_hits,
            infeasible_count: infeasible,
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

    fn breed(&self, population: &[Evaluated], rng: &mut StdRng) -> CandidateGenome {
        if population.len() < 2 {
            return self.space.sample(rng);
        }
        let a = self.tournament(population, rng).genome.clone();
        let child = if rng.gen_bool(self.cfg.crossover_rate) {
            let b = self.tournament(population, rng).genome.clone();
            self.space.crossover(&a, &b, rng)
        } else {
            a
        };
        self.space.mutate(&child, rng)
    }

    /// Parent selection. Weighted: the fittest of `tournament` uniform
    /// picks, the later pick winning a tie. NSGA-II: the first pick on
    /// the picks' own first non-dominated front.
    fn tournament<'p>(&self, population: &'p [Evaluated], rng: &mut StdRng) -> &'p Evaluated {
        let picks: Vec<&Evaluated> = (0..self.cfg.tournament)
            .map(|_| &population[rng.gen_range(0..population.len())])
            .collect();
        match self.cfg.selection {
            SelectionMode::WeightedScalar => {
                let mut best = picks[0];
                for &p in &picks[1..] {
                    if p.fitness >= best.fitness {
                        best = p;
                    }
                }
                best
            }
            SelectionMode::Nsga2 => {
                let keys: Vec<Vec<f64>> = picks.iter().map(|e| self.rank_key(e)).collect();
                picks[non_dominated_sort(&keys)[0][0]]
            }
        }
    }

    /// Survivor selection once the population is full. Weighted: the
    /// child replaces the least fit of `tournament` uniform picks (the
    /// earlier pick losing a tie) if it is strictly fitter. NSGA-II: the
    /// child joins, then the least crowded member of the last front
    /// leaves by swap-remove.
    fn admit(&self, eval: Evaluated, population: &mut Vec<Evaluated>, rng: &mut StdRng) {
        if population.len() < self.cfg.population {
            population.push(eval);
            return;
        }
        match self.cfg.selection {
            SelectionMode::WeightedScalar => {
                let picks: Vec<usize> = (0..self.cfg.tournament)
                    .map(|_| rng.gen_range(0..population.len()))
                    .collect();
                let mut worst = picks[0];
                for &i in &picks[1..] {
                    if population[i].fitness < population[worst].fitness {
                        worst = i;
                    }
                }
                let victim = population[worst].fitness;
                if eval.fitness > victim || (self.replace_on_ties && eval.fitness == victim) {
                    population[worst] = eval;
                }
            }
            SelectionMode::Nsga2 => {
                population.push(eval);
                let keys: Vec<Vec<f64>> = population.iter().map(|e| self.rank_key(e)).collect();
                let fronts = non_dominated_sort(&keys);
                let last = fronts.last().expect("nonempty population");
                let members: Vec<Vec<f64>> = last.iter().map(|&i| keys[i].clone()).collect();
                let crowding = crowding_distance(&members);
                let mut evict = 0;
                for k in 1..last.len() {
                    if crowding[k] < crowding[evict] {
                        evict = k;
                    }
                }
                population.swap_remove(last[evict]);
            }
        }
    }

    /// Oriented objectives for ranking; infeasible members sit below
    /// every feasible one on every axis.
    fn rank_key(&self, e: &Evaluated) -> Vec<f64> {
        if e.measurement.hw.is_feasible() {
            self.objectives.oriented_values(&e.measurement)
        } else {
            vec![f64::NEG_INFINITY; self.objectives.objectives().len()]
        }
    }
}

fn reference(
    case: &Case,
    seed: u64,
    selection: SelectionMode,
    replace_on_ties: bool,
) -> RefOutcome {
    Reference {
        cfg: config(case, seed, selection),
        space: &case.space,
        objectives: objectives(),
        replace_on_ties,
    }
    .run(&TieEvaluator)
}

fn engine(
    case: &Case,
    seed: u64,
    selection: SelectionMode,
    evaluator: Arc<dyn Evaluator>,
) -> Engine {
    Engine::new(
        evaluator,
        case.space.clone(),
        objectives(),
        config(case, seed, selection),
    )
}

/// The first difference between the engine's outcome and the
/// reference's, as a message naming the seed, mode, case, index and
/// both genomes; `None` when they agree exactly.
fn diff(label: &str, got: &EngineOutcome, want: &RefOutcome) -> Option<String> {
    let same = |a: &Evaluated, b: &Evaluated| {
        a.genome == b.genome
            && a.fitness.to_bits() == b.fitness.to_bits()
            && a.measurement == b.measurement
    };
    for (what, g, w) in [
        ("trace", &got.trace, &want.trace),
        ("population", &got.population, &want.population),
    ] {
        let n = g.len().max(w.len());
        if let Some(i) = (0..n).find(|&i| match (g.get(i), w.get(i)) {
            (Some(a), Some(b)) => !same(a, b),
            _ => true,
        }) {
            let show = |e: Option<&Evaluated>| {
                e.map_or("<none>".to_string(), |e| {
                    format!("{} (fitness {})", e.genome.describe(), e.fitness)
                })
            };
            return Some(format!(
                "{label}: {what} differs first at index {i}: engine {} vs reference {}",
                show(g.get(i)),
                show(w.get(i)),
            ));
        }
    }
    let stats = (
        got.stats.models_evaluated,
        got.stats.cache_hits,
        got.stats.infeasible_count,
    );
    let want_stats = (
        want.models_evaluated,
        want.cache_hits,
        want.infeasible_count,
    );
    (stats != want_stats).then(|| {
        format!(
            "{label}: (models_evaluated, cache_hits, infeasible_count) engine {stats:?} vs reference {want_stats:?}"
        )
    })
}

const SEEDS: u64 = 32;
const MODES: [SelectionMode; 2] = [SelectionMode::WeightedScalar, SelectionMode::Nsga2];

fn label(case: &Case, seed: u64, mode: SelectionMode) -> String {
    format!("seed {seed}, mode {mode:?}, case {}", case.name)
}

#[test]
fn engine_matches_reference_ga_across_seed_sweep() {
    let mut saw = (0, 0, false); // cache hits, infeasibles, a short run
    for case in cases() {
        for mode in MODES {
            for seed in 0..SEEDS {
                let want = reference(&case, seed, mode, false);
                let got = engine(&case, seed, mode, Arc::new(TieEvaluator)).run();
                if let Some(msg) = diff(&label(&case, seed, mode), &got, &want) {
                    panic!("{msg}");
                }
                saw.0 += want.cache_hits;
                saw.1 += want.infeasible_count;
                saw.2 |= want.models_evaluated < case.evaluations;
            }
        }
    }
    // The sweep must actually exercise the paths it claims to cover.
    assert!(
        saw.0 > 0 && saw.1 > 0 && saw.2,
        "sweep coverage (hits, infeasible, short): {saw:?}"
    );
}

#[test]
fn tie_replacing_mutant_is_flagged() {
    let case = &cases()[5];
    let flagged: Vec<String> = (0..SEEDS)
        .filter_map(|seed| {
            let want = reference(case, seed, SelectionMode::WeightedScalar, true);
            let got = engine(
                case,
                seed,
                SelectionMode::WeightedScalar,
                Arc::new(TieEvaluator),
            )
            .run();
            diff(
                &label(case, seed, SelectionMode::WeightedScalar),
                &got,
                &want,
            )
        })
        .collect();
    assert!(
        !flagged.is_empty(),
        "the >= admission mutant went unnoticed"
    );
    assert!(
        flagged[0].contains("differs first at index"),
        "{}",
        flagged[0]
    );
}

/// Keeps the injected panics' messages off stderr; every other panic
/// still reaches the default hook.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

#[test]
fn engine_matches_reference_under_budget_neutral_faults() {
    quiet_injected_panics();
    for case in [&cases()[5], &cases()[3]] {
        for mode in MODES {
            for seed in 0..SEEDS {
                // Transients and panics only, retried at once and never
                // exhausting the retry budget: the run must be
                // indistinguishable from a fault-free one.
                let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17);
                let mut schedule = FaultSchedule::new();
                for call in 0..case.evaluations * 2 {
                    if rng.gen_bool(0.2) {
                        let kind = if rng.gen_bool(0.5) {
                            FaultKind::Panic
                        } else {
                            FaultKind::Transient
                        };
                        schedule = schedule.at(call, kind);
                    }
                }
                let faulty = FaultyEvaluator::new(Arc::new(TieEvaluator), schedule);
                let cfg = EvolutionConfig {
                    max_retries: case.evaluations * 2,
                    retry_backoff: Duration::ZERO,
                    ..config(case, seed, mode)
                };
                let got =
                    Engine::new(Arc::new(faulty), case.space.clone(), objectives(), cfg).run();
                let want = reference(case, seed, mode, false);
                if let Some(msg) = diff(
                    &format!("{} (faults)", label(case, seed, mode)),
                    &got,
                    &want,
                ) {
                    panic!("{msg}");
                }
            }
        }
    }
}

#[test]
fn engine_matches_reference_after_resume_at_every_cut() {
    let dir = std::env::temp_dir().join(format!("ecad-reference-engine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let case = &cases()[3];
    for mode in MODES {
        for seed in 0..4 {
            let want = reference(case, seed, mode, false);
            for cut in 1..want.models_evaluated {
                let path = dir.join(format!("{mode:?}-{seed}-{cut}.json"));
                let halted = engine(case, seed, mode, Arc::new(TieEvaluator))
                    .with_checkpoint(CheckpointPolicy::new(&path, usize::MAX))
                    .with_halt_after(cut)
                    .run();
                assert!(halted.halted, "{} halts at {cut}", label(case, seed, mode));
                let state = CheckpointState::load(&path).expect("halt writes a checkpoint");
                let got = engine(case, seed, mode, Arc::new(TieEvaluator))
                    .resume(state)
                    .expect("checkpoint matches config");
                let what = format!("{} (resumed at {cut})", label(case, seed, mode));
                if let Some(msg) = diff(&what, &got, &want) {
                    panic!("{msg}");
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
