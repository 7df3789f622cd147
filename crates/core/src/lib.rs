//! # ecad-core
//!
//! The ECAD (Evolutionary Cell Aided Design) engine: a steady-state
//! evolutionary search over the *joint* space of MLP network
//! architectures and accelerator hardware configurations, as described
//! in "AutoML for Multilayer Perceptron and FPGA Co-design" (SOCC 2020).
//!
//! The moving parts map one-to-one onto the paper's §III:
//!
//! * [`genome`] — a co-design candidate: NNA genes (layers, neurons,
//!   activation, bias) plus hardware genes (FPGA grid or GPU batch).
//! * [`space`] — the bounded search space and its mutation/crossover
//!   operators.
//! * [`measurement`] — the raw metrics a worker reports for a candidate.
//! * [`workers`] — the three worker types: *simulation* (trains the MLP,
//!   times GPU targets), *hardware database* (analytical FPGA model),
//!   and *physical* (synthesis estimates: resources, Fmax, power).
//! * [`fitness`] — user-registrable fitness functions composed into a
//!   scalar or multi-objective score.
//! * [`engine`] — the master process: steady-state population,
//!   tournament selection, a worker pool over `rt::sync` channels, and
//!   the dedup cache ("potential NNA/HW candidates are first analyzed
//!   for similarities to previous evaluations and duplicates are not
//!   evaluated twice").
//! * [`pareto`] — non-dominated sorting and Pareto-front extraction for
//!   accuracy-vs-throughput analyses (Table IV, Figs 2–4).
//! * [`protocol`] — the master loop's dispatch/deadline/retry/stale
//!   bookkeeping as a pure, clock-generic state machine, shared between
//!   the engine (wall clock) and the `rt::sched` model checks (virtual
//!   time).
//! * [`checkpoint`] — an append-only journal of the master's inputs,
//!   replayed so an interrupted search resumes byte-identically.
//! * [`cluster`] — distributed coordinator/worker evaluation over TCP
//!   (`rt::net` framed messages): a worker server that evaluates
//!   genomes shipped with a full setup payload, stale-result fencing by
//!   session stamp, and optional per-worker island subpopulations.
//! * [`faults`] — a deterministic fault-injecting evaluator wrapper for
//!   exercising the engine's retry/timeout/respawn machinery in tests.
//! * [`analytics`] — the search observatory: per-epoch population
//!   snapshots (fitness quantiles, Pareto-archive hypervolume, genome
//!   diversity, operator success rates), a stall detector, and the
//!   live `/metrics` + `/status` HTTP endpoints.
//! * [`config`] — the flow's configuration-file entry point (§III).
//! * [`search`] — high-level drivers tying it all together.
//!
//! ## Example
//!
//! ```no_run
//! use ecad_core::prelude::*;
//! use ecad_dataset::benchmarks::{self, Benchmark};
//!
//! let ds = benchmarks::load(Benchmark::CreditG).with_samples(300).generate();
//! let result = Search::on_dataset(&ds)
//!     .objectives(ObjectiveSet::accuracy_and_throughput())
//!     .evaluations(200)
//!     .seed(7)
//!     .run();
//! println!("best accuracy: {:.4}", result.best_by_accuracy().unwrap().measurement.accuracy);
//! ```

#![warn(missing_docs)]

pub mod analytics;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod engine;
pub mod faults;
pub mod fitness;
pub mod genome;
pub mod measurement;
pub mod pareto;
pub mod protocol;
pub mod search;
pub mod space;
pub mod workers;

/// Convenience re-exports for the common search workflow.
pub mod prelude {
    pub use crate::analytics::{
        cluster_observatory, observatory, workers_json, AnalyticsConfig, EpochTracker,
        OperatorKind, OperatorStats, ParetoArchive, PopulationSnapshot, StatusCell,
    };
    pub use crate::cluster::{ClusterHealth, WorkerHealthSnapshot, WorkerState};
    pub use crate::checkpoint::{CheckpointPolicy, CheckpointState};
    pub use crate::engine::{EngineStats, EvolutionConfig, SelectionMode};
    pub use crate::faults::{FaultKind, FaultSchedule, FaultyEvaluator};
    pub use crate::measurement::FailureKind;
    pub use crate::fitness::{FitnessRegistry, Objective, ObjectiveSet};
    pub use crate::genome::{CandidateGenome, HwGenome, NnaGenome};
    pub use crate::measurement::{HwMetrics, InfeasibleReason, Measurement};
    pub use crate::pareto::pareto_front;
    pub use crate::search::{Search, SearchResult, TracePoint};
    pub use crate::space::SearchSpace;
    pub use crate::workers::{CodesignEvaluator, Evaluator, HwTarget};
}
