//! Quickstart: evolve an MLP + FPGA grid for a tabular dataset.
//!
//! ```sh
//! cargo run --release --example quickstart [-- --seed N] [--trace-out OUT.jsonl]
//! ```
//!
//! This is the smallest end-to-end tour of the flow: generate (or load)
//! a dataset, run a joint accuracy × throughput search against an
//! Arria 10 model, and inspect the winner and the Pareto frontier.
//! Two runs with the same `--seed` print the same best genome and
//! frontier — every random draw goes through the in-repo `rt::rand`.
//! With `--trace-out` the engine also streams its structured events
//! (submissions, evaluations, cache hits, infeasibilities) to a JSONL
//! file that `ecad trace --file OUT.jsonl` can validate. With
//! `--profile-out` a tick-clock profiler is attached: the run writes a
//! schema-pinned profile JSON (`ecad profile --file OUT.json` renders
//! it) that is byte-identical across runs with the same seed; the
//! `--trace-out` file stays byte-identical to an unprofiled run's. With
//! `--faults` the evaluator is wrapped in a deterministic
//! fault-injection harness (worker panic, stalled evaluation, transient
//! failure) to demonstrate the engine's retry/deadline/respawn
//! machinery; the run still completes its full budget.

use std::sync::Arc;
use std::time::Duration;

use ecad_repro::core::engine::{Engine, EvolutionConfig, SelectionMode};
use ecad_repro::core::prelude::*;
use ecad_repro::dataset::benchmarks::{self, Benchmark};
use ecad_repro::hw::fpga::FpgaDevice;
use ecad_repro::rt::obs::{JsonlSink, Level, Obs};
use ecad_repro::rt::prof::{profile_to_json, ClockKind, Profiler};
use ecad_repro::rt::rand::rngs::StdRng;
use ecad_repro::rt::rand::SeedableRng;

/// Parses `--seed N` (default 7), `--trace-out FILE`,
/// `--profile-out FILE`, and the `--faults` switch from the argument
/// list.
fn args() -> (u64, Option<String>, Option<String>, bool) {
    let mut seed = 7;
    let mut trace_out = None;
    let mut profile_out = None;
    let mut faults = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                let v = args.next().expect("--seed takes a value");
                seed = v.parse().expect("--seed takes an unsigned integer");
            }
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out takes a path"));
            }
            "--profile-out" => {
                profile_out = Some(args.next().expect("--profile-out takes a path"));
            }
            "--faults" => faults = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    (seed, trace_out, profile_out, faults)
}

/// The `--faults` tour: the same co-design evaluator, wrapped so that
/// one call panics, one stalls past the deadline, and one fails
/// transiently. The engine retries each to success and finishes the
/// whole budget anyway.
fn run_faulted(dataset: &ecad_repro::dataset::Dataset, seed: u64, obs: Obs) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0011);
    let (train, test) = dataset.split(0.25, &mut rng);
    let inner = CodesignEvaluator::new(
        train,
        test,
        ecad_repro::mlp::TrainConfig::fast(),
        HwTarget::Fpga(FpgaDevice::arria10_gx1150(1)),
        seed,
    )
    .with_obs(obs.clone());
    let schedule = FaultSchedule::new()
        .at(2, FaultKind::Panic)
        .at(5, FaultKind::Transient)
        .at(8, FaultKind::Stall(Duration::from_secs(6)));
    let (panics, stalls, transients) = schedule.counts();
    println!(
        "injecting {panics} panic(s), {stalls} stall(s), {transients} transient failure(s)"
    );

    let cfg = EvolutionConfig {
        population: 8,
        evaluations: 20,
        tournament: 2,
        crossover_rate: 0.5,
        seed,
        threads: 1,
        selection: SelectionMode::WeightedScalar,
        eval_timeout: Some(Duration::from_secs(2)),
        max_retries: 2,
        retry_backoff: Duration::ZERO,
        ..EvolutionConfig::small()
    };
    let out = Engine::new(
        Arc::new(FaultyEvaluator::new(Arc::new(inner), schedule)),
        SearchSpace::fpga_default().with_neurons(4, 32).with_layers(1, 2),
        ObjectiveSet::accuracy_and_throughput(),
        cfg,
    )
    .with_obs(obs)
    .run();

    println!(
        "\nfaulted run: {} models evaluated, {} retries, {} timeouts, {} worker respawns",
        out.stats.models_evaluated,
        out.stats.retry_count,
        out.stats.timeout_count,
        out.stats.respawn_count
    );
    assert_eq!(out.stats.models_evaluated, 20, "full budget despite faults");
    assert_eq!(out.stats.timeout_count, stalls);
    assert_eq!(out.stats.respawn_count, stalls);
    assert_eq!(out.stats.retry_count, panics + stalls + transients);
    let best = out.best().expect("faulted search still finds a winner");
    println!("best candidate: {}", best.genome);
}

fn main() {
    let (seed, trace_out, profile_out, faults) = args();
    // The tick clock (one fixed step per read) makes the profile JSON
    // byte-identical for two seeded single-thread runs; pass the
    // profiler to the engine through the observability handle.
    let profiler = profile_out
        .as_ref()
        .map(|_| Profiler::new(ClockKind::Ticks));
    let obs = if trace_out.is_some() || profiler.is_some() {
        let mut builder = Obs::builder();
        if let Some(path) = &trace_out {
            builder = builder.sink(
                JsonlSink::create(Level::Debug, std::path::Path::new(path))
                    .expect("create trace file"),
            );
        }
        if let Some(p) = &profiler {
            builder = builder.profiler(p.clone());
        }
        builder.build()
    } else {
        Obs::disabled()
    };
    // 1. A dataset. The flow's real entry point is a CSV export
    //    (`ecad_dataset::csv::read_dataset_file`); here we use the
    //    synthetic credit-g stand-in so the example is self-contained.
    let dataset = benchmarks::load(Benchmark::CreditG)
        .with_samples(600)
        .with_seed(42)
        .generate();
    println!(
        "dataset: {} ({} samples x {} features, {} classes)",
        dataset.name(),
        dataset.len(),
        dataset.n_features(),
        dataset.n_classes()
    );

    if faults {
        run_faulted(&dataset, seed, obs.clone());
        if let Some(path) = trace_out {
            obs.flush();
            println!("event trace written to {path}");
        }
        if let (Some(path), Some(profiler)) = (profile_out, profiler) {
            let doc = profile_to_json(profiler.clock(), &profiler.report());
            std::fs::write(&path, doc.pretty() + "\n").expect("write profile");
            println!("profile written to {path}");
        }
        return;
    }

    // 2. A co-design search: candidates carry both network genes
    //    (layers / neurons / activation / bias) and hardware genes
    //    (systolic grid rows x cols x vector width, interleaving,
    //    batch). Fitness rewards accuracy first and throughput second.
    let result = Search::on_dataset(&dataset)
        .target(HwTarget::Fpga(FpgaDevice::arria10_gx1150(1)))
        .objectives(ObjectiveSet::accuracy_and_throughput())
        .evaluations(60)
        .population(12)
        .seed(seed)
        .threads(1) // single worker => the event stream is deterministic
        .obs(obs.clone())
        .run();

    // 3. The winner.
    let best = result.best().expect("search evaluated candidates");
    println!("\nbest candidate: {}", best.genome);
    println!("  accuracy    : {:.4}", best.measurement.accuracy);
    println!(
        "  outputs/s   : {:.3e}",
        best.measurement.hw.outputs_per_s()
    );
    println!(
        "  efficiency  : {:.1}%",
        100.0 * best.measurement.hw.efficiency()
    );

    // 4. The accuracy-vs-throughput Pareto frontier (the paper's
    //    Table IV view): every row is an optimal trade-off.
    println!("\nPareto frontier (accuracy vs outputs/s):");
    for e in result.pareto_accuracy_throughput() {
        println!(
            "  {:.4}  {:>12.3e}  {}",
            e.measurement.accuracy,
            e.measurement.hw.outputs_per_s(),
            e.genome
        );
    }

    // 5. Run statistics (the paper's Table III shape).
    let stats = result.stats();
    println!(
        "\nevaluated {} unique models ({} cache hits, {} infeasible) in {:.1}s wall, {:.3}s avg/model",
        stats.models_evaluated,
        stats.cache_hits,
        stats.infeasible_count,
        stats.wall_time_s,
        stats.avg_eval_time_s
    );
    if let Some(path) = trace_out {
        obs.flush();
        println!("event trace written to {path}");
    }
    if let (Some(path), Some(profiler)) = (profile_out, profiler) {
        let doc = profile_to_json(profiler.clock(), &profiler.report());
        std::fs::write(&path, doc.pretty() + "\n").expect("write profile");
        println!("profile written to {path}");
    }
}
