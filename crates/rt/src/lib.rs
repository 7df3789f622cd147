//! # ecad-rt
//!
//! The workspace's self-contained runtime substrate. Every other crate
//! builds on the modules here instead of crates.io packages, so the
//! whole reproduction compiles with `cargo build --offline` against an
//! empty registry — the same spirit in which `ecad_core::config` hand-
//! rolls its INI parser.
//!
//! * [`rand`] — a deterministic PCG64 generator behind the familiar
//!   `Rng` / `SeedableRng` / `SliceRandom` surface, so genome mutation,
//!   tournament selection, and dataset synthesis stay seed-reproducible.
//! * [`sync`] — unbounded MPMC channels for the engine's master/worker
//!   pool and a scheduler-aware `Mutex`, both blocking through a
//!   backend the model checker can drive.
//! * [`json`] — a JSON value type with parser, compact and pretty
//!   serializers, and the [`json::ToJson`] / [`json::FromJson`] codec
//!   traits every document type implements.
//! * [`check`] — a property-testing harness: the [`prop!`] macro runs a
//!   body over generated inputs, shrinks failures, and prints the seed
//!   so any failure replays exactly.
//! * [`bench`](mod@bench) — a minimal wall-clock benchmark runner with the
//!   criterion surface the benchmark suites register against; it
//!   measures and summarizes, and writes no report.
//! * [`prof`] — a hierarchical profiler: spans open under the profiler
//!   installed on their thread, and thread-local span stacks
//!   accumulate a call tree with total/self time and call counts, merge
//!   across threads, and export schema-pinned JSON, collapsed-stack
//!   flamegraph text, and an attribution table.
//! * [`obs`] — structured tracing and metrics: leveled events with
//!   key=value fields routed to pluggable sinks (stderr, JSONL,
//!   in-memory capture), spans with monotonic timing that also enter
//!   the thread's installed profiler when their handle carries one,
//!   and an atomic registry of counters/gauges/histograms for the
//!   engine's worker pool.
//! * [`supervise`] — restartable worker slots (restart in place after a
//!   panic, respawn past a stall) and a cooperative shutdown flag, so a
//!   hung or crashed evaluation cannot take down the search.
//! * [`http`] — a minimal GET-only HTTP/1.1 server plus a Prometheus
//!   text-exposition writer/parser, so a live search can expose
//!   `/metrics`, `/status`, and `/healthz` without a web framework.
//! * [`sched`] — a deterministic cooperative scheduler and bounded
//!   interleaving explorer (a loom-lite model checker): virtual
//!   threads, virtual time, and replayable failure schedules for the
//!   engine's concurrency protocols.
//! * [`pool`] — a scoped worker pool for data-parallel kernels: a
//!   fixed lane count, deterministic task→lane assignment, a
//!   model-checkable latch join, and panic propagation that never
//!   returns before every lane is quiescent. The GEMM row-panel
//!   parallelism in `ecad-tensor` runs on it.
//! * [`net`] — length-prefixed framed [`json`] messaging over TCP with
//!   bounded frame sizes, read/write deadlines, a versioned hello
//!   handshake, and transient-vs-permanent error classification: the
//!   wire layer for the distributed coordinator/worker cluster mode.
//!
//! The crate has **no dependencies** (not even workspace-internal ones)
//! and must stay that way: CI builds the workspace `--offline` exactly
//! to keep it honest.

#![warn(missing_docs)]

pub mod bench;
pub mod check;
pub mod http;
pub mod json;
pub mod net;
pub mod obs;
pub mod pool;
pub mod prof;
pub mod rand;
pub mod sched;
pub mod supervise;
pub mod sync;
