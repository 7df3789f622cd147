//! Property tests for checkpoint/resume determinism: a seeded
//! single-thread search halted at *any* cut point and resumed from its
//! checkpoint must reproduce the uninterrupted run's trace, fitness
//! sequence, and final population exactly — including across chained
//! interruptions (halt → resume → halt → resume). Then the journal's
//! own contracts: it only grows, replaying it rebuilds the halted run
//! exactly (under faults and out-of-order results too), a journal from
//! another configuration is refused at its first diverging line, and a
//! torn last line costs only its own event.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ecad_core::analytics::StatusCell;
use ecad_core::checkpoint::{CheckpointError, CheckpointPolicy, CheckpointState};
use ecad_core::engine::{Engine, EngineOutcome, EvolutionConfig, SelectionMode};
use ecad_core::faults::{FaultKind, FaultSchedule, FaultyEvaluator};
use ecad_core::fitness::ObjectiveSet;
use ecad_core::genome::CandidateGenome;
use ecad_core::measurement::{HwMetrics, Measurement};
use ecad_core::space::SearchSpace;
use ecad_core::workers::Evaluator;
use rt::prop_assert;

/// Fast deterministic evaluator: "accuracy" peaks as total neurons
/// approach 256, all timing fields constant so full measurements can be
/// compared across runs.
struct ToyEvaluator;

impl Evaluator for ToyEvaluator {
    fn evaluate(&self, genome: &CandidateGenome) -> Measurement {
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

const EVALS: usize = 16;

fn config(seed: u64) -> EvolutionConfig {
    EvolutionConfig {
        population: 6,
        evaluations: EVALS,
        tournament: 2,
        crossover_rate: 0.5,
        seed,
        threads: 1,
        selection: SelectionMode::WeightedScalar,
        ..EvolutionConfig::small()
    }
}

fn engine_with(evaluator: Arc<dyn Evaluator>, cfg: EvolutionConfig) -> Engine {
    Engine::new(
        evaluator,
        SearchSpace::gpu_default(),
        ObjectiveSet::accuracy_only(),
        cfg,
    )
}

fn engine(seed: u64) -> Engine {
    engine_with(Arc::new(ToyEvaluator), config(seed))
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ecad-checkpoint-prop");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

fn fingerprint(o: &EngineOutcome) -> (Vec<String>, Vec<f64>, Vec<String>) {
    (
        o.trace.iter().map(|e| e.genome.describe()).collect(),
        o.trace.iter().map(|e| e.fitness).collect(),
        o.population.iter().map(|e| e.genome.describe()).collect(),
    )
}

rt::prop! {
    #![cases(24)]

    /// Halting at any cut point in the budget and resuming from the
    /// checkpoint written there converges to the same final state as
    /// never having been interrupted.
    fn resume_at_any_cut_matches_uninterrupted(cut in 1usize..EVALS, seed in 0u64..1_000) {
        let uninterrupted = engine(seed).run();

        let path = tmp_path(&format!("cut{cut}-seed{seed}.json"));
        let halted = engine(seed)
            .with_checkpoint(CheckpointPolicy::new(&path, 1))
            .with_halt_after(cut)
            .run();
        prop_assert!(halted.halted);
        prop_assert!(halted.stats.models_evaluated == cut);

        let state = CheckpointState::load(&path).expect("checkpoint loads");
        let resumed = engine(seed).resume(state).expect("checkpoint matches config");
        prop_assert!(!resumed.halted);
        prop_assert!(resumed.stats.models_evaluated == EVALS);
        prop_assert!(fingerprint(&resumed) == fingerprint(&uninterrupted));
        std::fs::remove_file(&path).ok();
    }

    /// Chained interruptions: halt, resume into a second halt, resume
    /// again. Two cuts deep, the final state still matches the
    /// uninterrupted run, and the intermediate checkpoint's trace
    /// prefix agrees with it.
    fn double_interruption_still_converges(
        first in 1usize..(EVALS - 1),
        extra in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let second = (first + extra).min(EVALS - 1);
        let uninterrupted = engine(seed).run();

        let path = tmp_path(&format!("double-{first}-{second}-{seed}.json"));
        let a = engine(seed)
            .with_checkpoint(CheckpointPolicy::new(&path, 1))
            .with_halt_after(first)
            .run();
        prop_assert!(a.halted);

        let state = CheckpointState::load(&path).expect("first checkpoint loads");
        let b = engine(seed)
            .with_checkpoint(CheckpointPolicy::new(&path, 1))
            .with_halt_after(second)
            .resume(state)
            .expect("first checkpoint matches config");
        prop_assert!(b.halted);
        prop_assert!(b.stats.models_evaluated == second);
        let (names, _, _) = fingerprint(&b);
        let (full_names, _, _) = fingerprint(&uninterrupted);
        prop_assert!(names[..] == full_names[..second]);

        let state = CheckpointState::load(&path).expect("second checkpoint loads");
        let c = engine(seed).resume(state).expect("second checkpoint matches config");
        prop_assert!(!c.halted);
        prop_assert!(fingerprint(&c) == fingerprint(&uninterrupted));
        std::fs::remove_file(&path).ok();
    }
}

/// Scores like [`ToyEvaluator`], and first records the checkpoint
/// file's bytes. The master makes its periodic write after dispatching
/// the next candidate, so a read can overlap an append and see part of
/// it; since the file only grows, each read is still a byte prefix of
/// every later one.
struct Snooping {
    path: PathBuf,
    seen: Mutex<Vec<Vec<u8>>>,
}

impl Evaluator for Snooping {
    fn evaluate(&self, genome: &CandidateGenome) -> Measurement {
        if let Ok(bytes) = std::fs::read(&self.path) {
            self.seen.lock().unwrap().push(bytes);
        }
        ToyEvaluator.evaluate(genome)
    }

    fn target_name(&self) -> String {
        "snooping".to_string()
    }
}

/// While a run writes its checkpoint after every evaluation, each state
/// of the file is a byte prefix of the next — across a halt and the
/// resume that continues into the same file.
#[test]
fn checkpoint_file_only_ever_grows() {
    let path = tmp_path("append-only.json");
    let snoop = Arc::new(Snooping {
        path: path.clone(),
        seen: Mutex::new(Vec::new()),
    });
    let halted = engine_with(snoop.clone(), config(11))
        .with_checkpoint(CheckpointPolicy::new(&path, 1))
        .with_halt_after(EVALS / 2)
        .run();
    assert!(halted.halted);
    let state = CheckpointState::load(&path).unwrap();
    engine_with(snoop.clone(), config(11))
        .with_checkpoint(CheckpointPolicy::new(&path, 1))
        .resume(state)
        .unwrap();
    let mut seen = snoop.seen.lock().unwrap().clone();
    seen.push(std::fs::read(&path).unwrap());
    assert!(seen.len() > EVALS, "{} states seen", seen.len());
    for (i, pair) in seen.windows(2).enumerate() {
        assert!(
            pair[1].starts_with(&pair[0]),
            "state {} ({} bytes) is not a prefix of state {} ({} bytes)",
            i,
            pair[0].len(),
            i + 1,
            pair[1].len()
        );
    }
    assert!(seen[0].len() < seen[seen.len() - 1].len());
    std::fs::remove_file(&path).ok();
}

/// The periodic write waits for the next dispatch, so its fsync
/// overlaps that evaluation: at `threads = 1` the write after verdict
/// `k` (`0 < k < EVALS`) follows the `submit` of candidate `k + 1`. The
/// header write precedes the first `submit`, and the last write follows
/// the last verdict.
#[test]
fn periodic_checkpoint_follows_the_next_submit() {
    let path = tmp_path("after-submit.json");
    let capture = rt::obs::CaptureSink::new(rt::obs::Level::Trace);
    let obs = rt::obs::Obs::builder().sink(Arc::clone(&capture)).build();
    let outcome = engine(51)
        .with_obs(obs)
        .with_checkpoint(CheckpointPolicy::new(&path, 1))
        .run();
    assert_eq!(outcome.stats.models_evaluated, EVALS);
    let mut submits = 0;
    let mut writes = Vec::new();
    for event in capture.take() {
        match event.name {
            "submit" => submits += 1,
            "checkpoint" => {
                let done = event
                    .fields
                    .iter()
                    .find_map(|(k, v)| match v {
                        rt::obs::Value::U64(n) if *k == "evaluations_done" => Some(*n as usize),
                        _ => None,
                    })
                    .expect("checkpoint event names its evaluations");
                writes.push((done, submits));
            }
            _ => {}
        }
    }
    let want: Vec<(usize, usize)> = (0..=EVALS)
        .map(|done| (done, if done == 0 || done == EVALS { done } else { done + 1 }))
        .collect();
    assert_eq!(writes, want, "(evaluations done, submits before the write)");
    std::fs::remove_file(&path).ok();
}

/// Scores like [`ToyEvaluator`] after a delay that depends on the
/// genome, so results come back out of dispatch order.
struct Uneven;

impl Evaluator for Uneven {
    fn evaluate(&self, genome: &CandidateGenome) -> Measurement {
        let delay = genome.nna.total_neurons() % 4;
        std::thread::sleep(Duration::from_micros(300 * delay as u64));
        ToyEvaluator.evaluate(genome)
    }

    fn target_name(&self) -> String {
        "uneven".to_string()
    }
}

/// Everything a halted run returns, bit for bit, except its wall clock
/// and the per-worker latencies (which a local run leaves empty).
fn halted_state(o: &EngineOutcome) -> String {
    let mut stats = o.stats.clone();
    stats.wall_time_s = 0.0;
    stats.worker_latency.clear();
    format!("{:?}\n{:?}\n{stats:?}\n{}", o.population, o.trace, o.halted)
}

/// Halts a run at every cut, then resumes its journal with the same
/// halt: the replay alone must return the halted run's population (in
/// order), trace and stats.
fn replay_rebuilds_every_cut(
    name: &str,
    make: &dyn Fn() -> Arc<dyn Evaluator>,
    cfg: EvolutionConfig,
) {
    for cut in 1..=cfg.evaluations {
        let path = tmp_path(&format!("{name}-{cut}.json"));
        let halted = engine_with(make(), cfg)
            .with_checkpoint(CheckpointPolicy::new(&path, 1))
            .with_halt_after(cut)
            .run();
        let state = CheckpointState::load(&path).unwrap();
        let replayed = engine_with(make(), cfg)
            .with_halt_after(cut)
            .resume(state)
            .unwrap();
        assert_eq!(
            halted_state(&replayed),
            halted_state(&halted),
            "{name}: replay at cut {cut} differs from the halted run"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn replay_rebuilds_the_halted_run_under_faults_and_backoff() {
    let faulty = || -> Arc<dyn Evaluator> {
        let schedule = FaultSchedule::new()
            .at(1, FaultKind::Transient)
            .at(4, FaultKind::Panic)
            .at(5, FaultKind::Transient)
            .at(9, FaultKind::Stall(Duration::from_millis(150)));
        Arc::new(FaultyEvaluator::new(Arc::new(ToyEvaluator), schedule))
    };
    let cfg = EvolutionConfig {
        retry_backoff: Duration::from_millis(3),
        eval_timeout: Some(Duration::from_millis(40)),
        ..config(21)
    };
    replay_rebuilds_every_cut("faults", &faulty, cfg);
}

#[test]
fn replay_rebuilds_the_halted_run_with_results_out_of_order() {
    let cfg = EvolutionConfig {
        threads: 2,
        ..config(22)
    };
    replay_rebuilds_every_cut("uneven", &|| Arc::new(Uneven), cfg);
}

/// A journal resumed under another tournament size is refused at its
/// first line that the new configuration would not have written: the
/// first verdict on a bred child (the seeds before it do not depend on
/// the tournament). Replay runs before the run counts as started, so
/// the refusal leaves no running status behind.
#[test]
fn journal_from_another_tournament_is_refused_at_its_first_diverging_line() {
    let path = tmp_path("tournament.json");
    let _ = engine(31)
        .with_checkpoint(CheckpointPolicy::new(&path, 1))
        .with_halt_after(EVALS - 2)
        .run();
    let state = CheckpointState::load(&path).unwrap();
    let population = config(31).population;
    let first_bred = state
        .journal
        .iter()
        .position(|l| l.index >= population)
        .expect("a bred child was judged");
    let cfg = EvolutionConfig {
        tournament: 3,
        ..config(31)
    };
    let status = StatusCell::new();
    let err = engine_with(Arc::new(ToyEvaluator), cfg)
        .with_status(status.clone())
        .resume(state)
        .expect_err("another tournament must not resume");
    assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    let want = format!("journal line {}:", first_bred + 2);
    assert!(err.to_string().contains(&want), "{err} (wanted {want})");
    let running = status.to_json().get("running").and_then(|j| j.as_bool());
    assert_eq!(running, Some(false));
    std::fs::remove_file(&path).ok();
}

fn cut_last_line(path: &Path) -> usize {
    let text = std::fs::read_to_string(path).unwrap();
    let lines = text.lines().count();
    let last = text.trim_end().rfind('\n').unwrap() + 1;
    std::fs::write(path, &text[..last + (text.len() - last) / 2]).unwrap();
    lines
}

/// A crash mid-append leaves half a line: it is dropped with its line
/// number, and the resumed run redoes that evaluation, converges to the
/// uninterrupted result and rewrites the journal without the torn line.
#[test]
fn torn_last_line_costs_only_its_own_evaluation() {
    let uninterrupted = engine(41).run();
    let path = tmp_path("torn.json");
    let _ = engine(41)
        .with_checkpoint(CheckpointPolicy::new(&path, 1))
        .with_halt_after(9)
        .run();
    let lines = cut_last_line(&path);
    let state = CheckpointState::load(&path).unwrap();
    assert_eq!(state.torn_line, Some(lines));
    assert_eq!(state.trace.len(), 8);
    let resumed = engine(41)
        .with_checkpoint(CheckpointPolicy::new(&path, 1))
        .resume(state)
        .unwrap();
    assert_eq!(fingerprint(&resumed), fingerprint(&uninterrupted));
    // The resumed run rewrote the journal without the torn line.
    let rewritten = CheckpointState::load(&path).unwrap();
    assert_eq!(rewritten.torn_line, None);
    assert_eq!(rewritten.trace.len(), EVALS);
    std::fs::remove_file(&path).ok();
}
