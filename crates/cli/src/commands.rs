//! Subcommand implementations.

use std::error::Error;
use std::fmt;

use ecad_core::config::FlowConfig;
use ecad_core::prelude::*;
use ecad_dataset::benchmarks::{self, Benchmark};
use ecad_dataset::csv;
use ecad_hw::cpu::{CpuDevice, CpuModel};
use ecad_hw::fpga::{FpgaDevice, FpgaModel, GridConfig, PhysicalModel};
use ecad_hw::gpu::{GpuDevice, GpuModel};

use crate::args::{parse_grid, parse_usize_list, ArgError, Parsed};

/// Error produced by a CLI run.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing failed.
    Args(ArgError),
    /// A file could not be read or written.
    Io(String),
    /// A domain error (bad config, bad CSV, infeasible grid, ...).
    Domain(String),
    /// The benchmark regression gate failed; the payload is the full
    /// rendered verdict. A distinct variant so the binary exits
    /// non-zero on a gate failure while still printing the report.
    Gate(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}\n\n{USAGE}"),
            CliError::Io(msg) => write!(f, "io error: {msg}"),
            CliError::Domain(msg) => write!(f, "{msg}"),
            CliError::Gate(report) => write!(f, "{report}"),
        }
    }
}

impl Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

const USAGE: &str = "usage:
  ecad search   --data TABLE.csv [--config ECAD.ini] [--trace OUT.csv]
                [--seed N] [--threads N] [--gemm-threads N] [--evaluations N]
                [--log-level trace|debug|info|warn|off]
                [--trace-out OUT.jsonl] [--metrics] [--serve ADDR]
                [--checkpoint STATE.json [--checkpoint-every N] [--resume]]
                [--halt-after N] [--eval-timeout SECS] [--max-retries N]
                [--profile-out OUT.json [--profile-clock wall|ticks]]
  ecad analyze  --file TRACE.jsonl [--format text|json|csv]
  ecad trace    --file TRACE.jsonl [--require EVENT1,EVENT2,...] [--summary]
  ecad profile  --file PROFILE.json [--format text|json|collapsed]
  ecad datasets [--generate NAME --out FILE [--samples N] [--seed N]]
  ecad devices
  ecad estimate --layers 784,256,10 [--device NAME] [--batch N]
                [--grid RxCxV[,IMxIN]] [--banks N]
  ecad bench run   --suite NAME|all [--filter SUBSTR] [--quick] [--profile]
                   [--iters N] [--sample-size N] [--out FILE] [--dir DIR]
  ecad bench list  [--limit N] [--dir DIR] [--format text|json]
  ecad bench trend [--suite NAME] [--filter SUBSTR] [--window N]
                   [--dir DIR] [--format text|json]
  ecad bench gate  [--suite NAME] [--filter SUBSTR]
                   [--threshold-p95-ms MS] [--max-p95-regression-pct PCT]
                   [--window-size N] [--required-passes N]
                   [--dir DIR] [--format text|json]
  ecad cluster worker --listen HOST:PORT [--log-level L] [--serve ADDR]
                   [--max-frame BYTES] [--io-timeout SECS] [--idle-timeout SECS]
  ecad cluster search --workers HOST:PORT,... [all `ecad search` flags]
                   [--net-timeout SECS] [--connect-retries N]
                   [--reconnect-backoff-ms MS] [--island-every N] [--island-k N]
                   (--serve ADDR also exposes per-worker /workers JSON)";

/// Runs the CLI against `argv` (program name excluded), returning the
/// text to print.
///
/// # Errors
///
/// Returns [`CliError`] on bad arguments, I/O failures, or domain
/// errors; the binary prints it and exits non-zero.
pub fn run<I: IntoIterator<Item = String>>(argv: I) -> Result<String, CliError> {
    let mut it = argv.into_iter().peekable();
    if it.peek().map(String::as_str) == Some("bench") {
        // `bench` has its own action verb (run/list/trend/gate):
        // strip the `bench` token and let the action land in the
        // ordinary parser's command position.
        it.next();
        return crate::bench_cmd::cmd_bench(it);
    }
    if it.peek().map(String::as_str) == Some("cluster") {
        // Same trick for `cluster worker` / `cluster search`.
        it.next();
        let parsed = Parsed::parse(it)?;
        return match parsed.command.as_str() {
            "worker" => cmd_cluster_worker(&parsed),
            // The coordinator is an ordinary search with remote slots:
            // `cmd_search` grows the cluster flags.
            "search" => cmd_search(&parsed),
            other => Err(ArgError::UnknownCommand(format!("cluster {other}")).into()),
        };
    }
    let parsed = Parsed::parse(it)?;
    match parsed.command.as_str() {
        "search" => cmd_search(&parsed),
        "analyze" => crate::analyze::cmd_analyze(&parsed),
        "trace" => cmd_trace(&parsed),
        "profile" => crate::profile::cmd_profile(&parsed),
        "datasets" => cmd_datasets(&parsed),
        "devices" => Ok(cmd_devices()),
        "estimate" => cmd_estimate(&parsed),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(ArgError::UnknownCommand(other.to_string()).into()),
    }
}

/// Builds the observability handle from the search telemetry flags:
/// `--log-level` attaches a stderr pretty-printer, `--trace-out` a
/// deterministic JSONL file sink recording debug and above, and
/// `--metrics` enables the registry even with no sink. With none of
/// the three, observability is disabled outright (zero overhead) —
/// unless `force_metrics` is set (`--serve` needs a live registry for
/// the `/metrics` endpoint even when nothing else asked for one).
/// Under `--resume` the JSONL sink appends, continuing the sequence
/// numbers of the interrupted run's file so the resumed trace is
/// byte-identical to an uninterrupted one. A `--profile-out` profiler
/// rides along on the handle so the engine and its workers install it
/// and span closes feed the attribution tree.
fn build_obs(
    p: &Parsed,
    force_metrics: bool,
    profiler: Option<rt::prof::Profiler>,
) -> Result<rt::obs::Obs, CliError> {
    use rt::obs::{JsonlSink, Level, Obs, StderrSink};
    let level_text = p.get("log-level");
    let trace_out = p.get("trace-out");
    if level_text.is_none()
        && trace_out.is_none()
        && !p.is_set("metrics")
        && !force_metrics
        && profiler.is_none()
    {
        return Ok(Obs::disabled());
    }
    let mut builder = Obs::builder();
    if let Some(prof) = profiler {
        builder = builder.profiler(prof);
    }
    match level_text {
        None | Some("off") => {}
        Some(text) => {
            let level = Level::parse(text).ok_or_else(|| {
                CliError::Args(ArgError::BadValue {
                    flag: "--log-level".to_string(),
                    value: text.to_string(),
                })
            })?;
            builder = builder.sink(StderrSink::new(level));
        }
    }
    if let Some(path) = trace_out {
        let path_ref = std::path::Path::new(path);
        let sink = if p.is_set("resume") {
            JsonlSink::append(Level::Debug, path_ref)
        } else {
            JsonlSink::create(Level::Debug, path_ref)
        }
        .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        builder = builder.sink(sink);
    }
    Ok(builder.build())
}

/// `--name N` as a positive count, or `default` when absent.
fn positive_flag(p: &Parsed, name: &str, default: usize) -> Result<usize, CliError> {
    match p.get_parse(name, default)? {
        0 => Err(CliError::Args(ArgError::BadValue {
            flag: format!("--{name}"),
            value: "0".to_string(),
        })),
        n => Ok(n),
    }
}

fn cmd_search(p: &Parsed) -> Result<String, CliError> {
    p.check_allowed(&[
        "data",
        "config",
        "trace",
        "seed",
        "threads",
        "gemm-threads",
        "evaluations",
        "log-level",
        "trace-out",
        "metrics",
        "checkpoint",
        "checkpoint-every",
        "resume",
        "halt-after",
        "eval-timeout",
        "max-retries",
        "serve",
        "profile-out",
        "profile-clock",
        "workers",
        "net-timeout",
        "connect-retries",
        "reconnect-backoff-ms",
        "island-every",
        "island-k",
    ])?;
    if p.is_set("resume") && p.get("checkpoint").is_none() {
        return Err(CliError::Domain(
            "--resume requires --checkpoint <path>".to_string(),
        ));
    }
    let profile_out = p.get("profile-out");
    if p.get("profile-clock").is_some() && profile_out.is_none() {
        return Err(CliError::Domain(
            "--profile-clock requires --profile-out <path>".to_string(),
        ));
    }
    let profiler = match profile_out {
        Some(_) => {
            let clock_text = p.get("profile-clock").unwrap_or("wall");
            let clock = rt::prof::ClockKind::parse(clock_text).ok_or_else(|| {
                CliError::Args(ArgError::BadValue {
                    flag: "--profile-clock".to_string(),
                    value: clock_text.to_string(),
                })
            })?;
            Some(rt::prof::Profiler::new(clock))
        }
        None => None,
    };
    let cluster_options = match p.get("workers") {
        Some(list) => {
            let workers: Vec<String> = list
                .split(',')
                .map(str::trim)
                .filter(|w| !w.is_empty())
                .map(str::to_string)
                .collect();
            if workers.is_empty() {
                return Err(CliError::Args(ArgError::BadValue {
                    flag: "--workers".to_string(),
                    value: list.to_string(),
                }));
            }
            let mut options = ecad_core::cluster::ClusterOptions {
                workers,
                ..ecad_core::cluster::ClusterOptions::default()
            };
            if let Some(secs) = parse_seconds(p, "net-timeout")? {
                options.net_timeout = secs;
            }
            options.connect_retries = p.get_parse("connect-retries", options.connect_retries)?;
            options.reconnect_backoff = std::time::Duration::from_millis(p.get_parse(
                "reconnect-backoff-ms",
                options.reconnect_backoff.as_millis() as u64,
            )?);
            options.island_every = p.get_parse("island-every", options.island_every)?;
            options.island_k = p.get_parse("island-k", options.island_k)?;
            Some(options)
        }
        None => {
            for flag in [
                "net-timeout",
                "connect-retries",
                "reconnect-backoff-ms",
                "island-every",
                "island-k",
            ] {
                if p.get(flag).is_some() {
                    return Err(CliError::Domain(format!(
                        "--{flag} requires --workers <host:port,...>"
                    )));
                }
            }
            None
        }
    };
    let serve_addr = p.get("serve");
    let obs = build_obs(p, serve_addr.is_some(), profiler.clone())?;
    let data_path = p.require("data")?;
    let dataset = csv::read_dataset_file(data_path).map_err(|e| CliError::Domain(e.to_string()))?;
    let mut config = match p.get("config") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(e.to_string()))?;
            FlowConfig::from_ini(&text).map_err(|e| CliError::Domain(e.to_string()))?
        }
        None => FlowConfig::default(),
    };
    config.evolution.seed = p.get_parse("seed", config.evolution.seed)?;
    config.evolution.threads = positive_flag(p, "threads", config.evolution.threads)?;
    // GEMM lanes inside each candidate's training; bit-identical
    // results at any value per the tensor kernels' determinism
    // contract, so this only affects wall clock.
    config.trainer.gemm_threads = p.get_parse("gemm-threads", config.trainer.gemm_threads)?;
    config.evolution.evaluations =
        positive_flag(p, "evaluations", config.evolution.evaluations)?;
    if let Some(secs) = p.get("eval-timeout") {
        let secs = secs.parse::<f64>().ok().filter(|s| s.is_finite() && *s >= 0.0).ok_or_else(|| {
            CliError::Args(ArgError::BadValue {
                flag: "--eval-timeout".to_string(),
                value: secs.to_string(),
            })
        })?;
        config.evolution.eval_timeout = if secs > 0.0 {
            Some(std::time::Duration::from_secs_f64(secs))
        } else {
            None
        };
    }
    config.evolution.max_retries = p.get_parse("max-retries", config.evolution.max_retries)?;

    let mut search = Search::from_config(&config, &dataset).obs(obs.clone());
    let mut cluster_health = None;
    if let Some(options) = cluster_options {
        let health = std::sync::Arc::new(ClusterHealth::new(&options.workers));
        cluster_health = Some(std::sync::Arc::clone(&health));
        search = search.cluster(options).cluster_health(health);
    }
    let checkpoint_path = p.get("checkpoint").map(std::path::PathBuf::from);
    if let Some(path) = &checkpoint_path {
        let every = positive_flag(p, "checkpoint-every", 25)?;
        search = search.checkpoint(CheckpointPolicy::new(path.clone(), every));
    }
    if p.is_set("resume") {
        let path = checkpoint_path.as_ref().ok_or_else(|| {
            CliError::Domain("--resume requires --checkpoint <path>".to_string())
        })?;
        let state = CheckpointState::load(path)
            .map_err(|e| CliError::Domain(format!("{}: {e}", path.display())))?;
        if let Some(line) = state.torn_line {
            eprintln!(
                "warning: {}:{line}: dropped a torn last line (an interrupted write); \
                 its work runs again",
                path.display()
            );
        }
        search = search.resume_from(state);
    }
    if let Some(n) = p.get("halt-after") {
        let n: usize = n.parse().map_err(|_| {
            CliError::Args(ArgError::BadValue {
                flag: "--halt-after".to_string(),
                value: n.to_string(),
            })
        })?;
        search = search.halt_after(n);
    }
    // SIGINT/SIGTERM wind the run down at the next safe boundary (and
    // write a final checkpoint when a policy is attached).
    let shutdown = rt::supervise::ShutdownFlag::new();
    shutdown.install_termination_handler();
    search = search.shutdown_flag(shutdown);

    // The observatory serves /metrics, /status, and /healthz for the
    // duration of the run (plus /workers in cluster mode). It only
    // *reads* engine state (the metrics registry, the shared status
    // cell, and the cluster health registry), so a served run's event
    // trace stays byte-identical to an unserved one.
    let server = match serve_addr {
        Some(addr) => {
            let status = StatusCell::new();
            search = search.status(status.clone());
            let routes = match &cluster_health {
                Some(health) => {
                    cluster_observatory(&obs, &status, std::sync::Arc::clone(health))
                }
                None => observatory(&obs, &status),
            };
            let handle = routes
                .bind(addr)
                .map_err(|e| CliError::Io(format!("--serve {addr}: {e}")))?;
            eprintln!("observatory listening on http://{}/", handle.addr());
            Some(handle)
        }
        None => None,
    };

    let result = search
        .try_run()
        .map_err(|e| CliError::Domain(format!("checkpoint: {e}")))?;

    let mut out = String::new();
    out.push_str(&format!(
        "dataset {} ({} samples x {} features, {} classes) on {}\n\n",
        dataset.name(),
        dataset.len(),
        dataset.n_features(),
        dataset.n_classes(),
        result.target_name()
    ));
    if let Some(best) = result.best() {
        out.push_str(&format!(
            "best candidate : {}\n  accuracy  {:.4}\n  outputs/s {:.3e}\n  latency   {:.2e} s\n  efficiency {:.1}%\n\n",
            best.genome,
            best.measurement.accuracy,
            best.measurement.hw.outputs_per_s(),
            best.measurement.hw.latency_s(),
            100.0 * best.measurement.hw.efficiency(),
        ));
    }
    out.push_str("pareto frontier (accuracy, outputs/s, genome):\n");
    for e in result.pareto_accuracy_throughput() {
        out.push_str(&format!(
            "  {:.4}  {:>12.3e}  {}\n",
            e.measurement.accuracy,
            e.measurement.hw.outputs_per_s(),
            e.genome
        ));
    }
    let stats = result.stats();
    out.push_str(&format!(
        "\n{} models evaluated ({} cache hits, {} infeasible), avg {:.3}s/model, wall {:.1}s\n",
        stats.models_evaluated,
        stats.cache_hits,
        stats.infeasible_count,
        stats.avg_eval_time_s,
        stats.wall_time_s
    ));
    if stats.retry_count + stats.timeout_count + stats.respawn_count > 0 {
        out.push_str(&format!(
            "fault tolerance: {} retries, {} timeouts, {} worker respawns\n",
            stats.retry_count, stats.timeout_count, stats.respawn_count
        ));
    }
    if result.halted() {
        match &checkpoint_path {
            Some(path) => out.push_str(&format!(
                "halted early; resume with --checkpoint {} --resume\n",
                path.display()
            )),
            None => out.push_str("halted early (no checkpoint attached)\n"),
        }
    } else if let Some(path) = &checkpoint_path {
        out.push_str(&format!("checkpoint written to {}\n", path.display()));
    }
    if let Some(path) = p.get("trace") {
        std::fs::write(path, result.trace_csv()).map_err(|e| CliError::Io(e.to_string()))?;
        out.push_str(&format!("trace written to {path}\n"));
    }
    if p.is_set("metrics") {
        out.push_str("\nrun metrics (per-stage timing from the span histograms):\n");
        out.push_str(&rt::obs::summary_table(&obs.snapshot()));
    }
    if let Some(path) = p.get("trace-out") {
        obs.flush();
        out.push_str(&format!("event trace written to {path}\n"));
    }
    if let (Some(path), Some(profiler)) = (profile_out, &profiler) {
        let report = profiler.report();
        let doc = rt::prof::profile_to_json(profiler.clock(), &report);
        std::fs::write(path, doc.pretty() + "\n")
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        out.push_str(&format!(
            "\nprofile ({} clock) written to {path}\n\n{}",
            profiler.clock().name(),
            report.render_table()
        ));
    }
    if let Some(handle) = server {
        out.push_str(&format!(
            "observatory served on http://{}/ (stopped)\n",
            handle.addr()
        ));
        handle.stop();
    }
    Ok(out)
}

/// Parses a `--flag SECS` duration given as (possibly fractional)
/// seconds; `None` when the flag is absent.
fn parse_seconds(p: &Parsed, flag: &str) -> Result<Option<std::time::Duration>, CliError> {
    match p.get(flag) {
        None => Ok(None),
        Some(text) => text
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .map(std::time::Duration::from_secs_f64)
            .map(Some)
            .ok_or_else(|| {
                CliError::Args(ArgError::BadValue {
                    flag: format!("--{flag}"),
                    value: text.to_string(),
                })
            }),
    }
}

/// `ecad cluster worker`: serves genome-evaluation jobs to a remote
/// coordinator until a `kill_all` arrives or the process receives
/// SIGINT/SIGTERM. One session at a time, matching the coordinator's
/// one-job-per-connection dispatch.
fn cmd_cluster_worker(p: &Parsed) -> Result<String, CliError> {
    p.check_allowed(&[
        "listen",
        "log-level",
        "max-frame",
        "io-timeout",
        "idle-timeout",
        "serve",
    ])?;
    let addr = p.require("listen")?;
    let mut options = ecad_core::cluster::WorkerOptions::default();
    options.max_frame = p.get_parse("max-frame", options.max_frame)?;
    if let Some(secs) = parse_seconds(p, "io-timeout")? {
        options.io_timeout = secs;
    }
    if let Some(secs) = parse_seconds(p, "idle-timeout")? {
        options.idle_timeout = secs;
    }
    let serve_addr = p.get("serve");
    let obs = build_obs(p, serve_addr.is_some(), None)?;
    // The worker-side observatory: /healthz for liveness probes and
    // /metrics for the worker's own registry (`worker.*` families).
    let observer = match serve_addr {
        Some(serve) => {
            let handle = observatory(&obs, &StatusCell::new())
                .bind(serve)
                .map_err(|e| CliError::Io(format!("--serve {serve}: {e}")))?;
            eprintln!("worker observatory listening on http://{}/", handle.addr());
            Some(handle)
        }
        None => None,
    };
    let server = ecad_core::cluster::WorkerServer::bind(addr, options, obs)
        .map_err(|e| CliError::Io(format!("--listen {addr}: {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| CliError::Io(e.to_string()))?;
    eprintln!("cluster worker listening on {local}");

    // SIGINT/SIGTERM trip the server's stop flag so the accept loop
    // winds down at its next poll instead of dying mid-session.
    let shutdown = rt::supervise::ShutdownFlag::new();
    shutdown.install_termination_handler();
    let stop = server.stop_handle();
    std::thread::spawn(move || {
        while !shutdown.is_requested() {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
    });

    server.run().map_err(|e| CliError::Io(e.to_string()))?;
    if let Some(handle) = observer {
        handle.stop();
    }
    Ok(format!("cluster worker on {local} stopped\n"))
}

/// `ecad trace`: validates a JSONL event trace written by
/// `--trace-out`. Every line must decode as a
/// [`crate::analyze::TraceEvent`] (the `ecad analyze` reader) and the
/// sequence numbers must be consecutive; prints a per-event-kind
/// census. With `--summary`, appends the per-kind sequence-span table
/// from the analyze machinery.
fn cmd_trace(p: &Parsed) -> Result<String, CliError> {
    p.check_allowed(&["file", "require", "summary"])?;
    let path = p.require("file")?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;

    let events = crate::analyze::parse_events(path, &text)?;
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.seq != i as u64 {
            return Err(CliError::Domain(format!(
                "{path}:{}: seq: {} out of order (expected {i})",
                i + 1,
                e.seq
            )));
        }
        match counts.iter_mut().find(|(name, _)| *name == e.event) {
            Some((_, n)) => *n += 1,
            None => counts.push((e.event, 1)),
        }
    }

    if let Some(required) = p.get("require") {
        for want in required.split(',').map(str::trim).filter(|w| !w.is_empty()) {
            if !counts.iter().any(|(name, _)| *name == want) {
                return Err(CliError::Domain(format!(
                    "{path}: required event kind {want:?} never occurs"
                )));
            }
        }
    }

    let mut out = format!("{path}: {} events, all lines parse\n\n", events.len());
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (name, n) in &counts {
        out.push_str(&format!("  {n:>6}  {name}\n"));
    }
    if p.is_set("summary") {
        out.push('\n');
        out.push_str(&crate::analyze::kind_summary(&events));
        // Traces recorded with a tick-clock profiler attached carry
        // path/span_us on span closes; rebuild the attribution tree.
        if let Some(tree) = crate::profile::tree_from_events(path, &events)? {
            out.push_str("\nspan attribution (rebuilt from profiled span closes):\n");
            out.push_str(&tree.render_table());
        }
    }
    Ok(out)
}

fn cmd_datasets(p: &Parsed) -> Result<String, CliError> {
    p.check_allowed(&["generate", "out", "samples", "seed"])?;
    match p.get("generate") {
        None => {
            let mut out = String::from(
                "built-in benchmark stand-ins (generate with: ecad datasets --generate NAME --out FILE):\n\n",
            );
            out.push_str(&format!(
                "{:<15} {:>9} {:>9} {:>8}   paper ECAD acc\n",
                "name", "features", "classes", "default"
            ));
            for b in Benchmark::ALL {
                out.push_str(&format!(
                    "{:<15} {:>9} {:>9} {:>8}   {:.4}\n",
                    b.name(),
                    b.n_features(),
                    b.n_classes(),
                    benchmarks::default_samples(b),
                    b.paper_ecad_accuracy()
                ));
            }
            Ok(out)
        }
        Some(name) => {
            let b = Benchmark::from_name(name).ok_or_else(|| {
                CliError::Domain(format!(
                    "unknown benchmark {name:?}; run `ecad datasets` for the list"
                ))
            })?;
            let out_path = p.require("out")?;
            let samples = p.get_parse("samples", benchmarks::default_samples(b))?;
            let seed = p.get_parse("seed", 0u64)?;
            let ds = benchmarks::load(b)
                .with_samples(samples)
                .with_seed(seed)
                .generate();
            csv::write_dataset_file(&ds, out_path).map_err(|e| CliError::Io(e.to_string()))?;
            Ok(format!(
                "wrote {} ({} samples x {} features) to {}\n",
                b.name(),
                ds.len(),
                ds.n_features(),
                out_path
            ))
        }
    }
}

fn cmd_devices() -> String {
    let mut out = String::from("device catalog:\n\nFPGA (hardware-database + physical workers):\n");
    for (d, banks) in [
        (FpgaDevice::arria10_gx1150(1), 1u32),
        (FpgaDevice::stratix10_2800(4), 4),
    ] {
        out.push_str(&format!(
            "  {:<18} {:>5} DSPs  {:>6.0} MHz  {:>7.2} TFLOP/s peak  {} DDR bank(s), {:.1} GB/s\n",
            d.name,
            d.dsp_blocks,
            d.clock_mhz,
            d.peak_flops() / 1e12,
            banks,
            d.ddr.bytes_per_s() / 1e9,
        ));
    }
    out.push_str("\nGPU (simulation worker):\n");
    for d in [
        GpuDevice::quadro_m5000(),
        GpuDevice::titan_x(),
        GpuDevice::radeon_vii(),
    ] {
        out.push_str(&format!(
            "  {:<18} {:>7.2} TFLOP/s  {:>6.0} GB/s  {:>4.0} W board\n",
            d.name, d.peak_tflops, d.mem_gb_per_s, d.board_power_w
        ));
    }
    out.push_str("\nCPU (simulation worker):\n");
    for d in [CpuDevice::xeon_22c(), CpuDevice::desktop_8c()] {
        out.push_str(&format!(
            "  {:<18} {:>7.2} TFLOP/s  {:>6.0} GB/s  {:>4.0} W TDP\n",
            d.name,
            d.peak_flops() / 1e12,
            d.mem_gb_per_s,
            d.tdp_w
        ));
    }
    out
}

fn cmd_estimate(p: &Parsed) -> Result<String, CliError> {
    p.check_allowed(&["layers", "device", "batch", "grid", "banks"])?;
    let widths = parse_usize_list("--layers", p.require("layers")?)?;
    if widths.len() < 2 {
        return Err(CliError::Domain(
            "--layers needs at least input and output widths (e.g. 784,256,10)".to_string(),
        ));
    }
    let batch: usize = p.get_parse("batch", 16usize)?;
    let shapes: Vec<(usize, usize, usize)> =
        widths.windows(2).map(|w| (batch, w[0], w[1])).collect();
    let biases = vec![true; shapes.len()];
    let device = p.get("device").unwrap_or("arria10");
    let banks: u32 = p.get_parse("banks", 1u32)?;

    let mut out = format!(
        "MLP {} @ batch {batch}: {} GEMM layer(s), {:.3} MFLOP/run\n\n",
        widths
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("-"),
        shapes.len(),
        ecad_hw::total_flops(&shapes) / 1e6
    );
    let target = HwTarget::catalog(device, banks).ok_or_else(|| {
        CliError::Domain(format!(
            "unknown device {device:?}; run `ecad devices` for the catalog"
        ))
    })?;
    match target {
        HwTarget::Fpga(dev) => {
            let (r, c, v, im, inn) = parse_grid(p.get("grid").unwrap_or("8x8x4"))?;
            let grid =
                GridConfig::new(r, c, im, inn, v).map_err(|e| CliError::Domain(e.to_string()))?;
            let perf = FpgaModel::new(dev.clone())
                .evaluate(&grid, &shapes)
                .map_err(|e| CliError::Domain(e.to_string()))?;
            let phys = PhysicalModel::new(dev.clone())
                .report(&grid)
                .map_err(|e| CliError::Domain(e.to_string()))?;
            out.push_str(&format!(
                "{} grid {} ({} DSPs)\n  outputs/s   {:.3e}\n  latency     {:.2e} s\n  effective   {:.1} GFLOP/s (potential {:.1}, efficiency {:.1}%)\n  bandwidth   {}\n  physical    {:.0} MHz Fmax, {:.1} W, DSP {:.1}% / M20K {:.1}% / ALM {:.1}%\n",
                dev.name,
                grid.describe(),
                grid.dsps_used(),
                perf.outputs_per_s,
                perf.latency_s,
                perf.effective_gflops,
                perf.potential_gflops,
                100.0 * perf.efficiency,
                if perf.bandwidth_bound { "BOUND (add banks or interleave)" } else { "ok" },
                phys.fmax_mhz,
                phys.power_w,
                100.0 * phys.resources.dsp_util,
                100.0 * phys.resources.m20k_util,
                100.0 * phys.resources.alm_util,
            ));
        }
        HwTarget::Gpu(dev) => {
            let perf = GpuModel::new(dev.clone()).evaluate(&shapes, &biases);
            out.push_str(&format!(
                "{}\n  outputs/s   {:.3e}\n  latency     {:.2e} s\n  effective   {:.1} GFLOP/s (efficiency {:.2}%)\n  kernels     {}\n",
                dev.name,
                perf.outputs_per_s,
                perf.latency_s,
                perf.effective_gflops,
                100.0 * perf.efficiency,
                perf.kernels,
            ));
        }
        HwTarget::Cpu(dev) => {
            let perf = CpuModel::new(dev.clone()).evaluate(&shapes, &biases);
            out.push_str(&format!(
                "{}\n  outputs/s   {:.3e}\n  latency     {:.2e} s\n  effective   {:.1} GFLOP/s (efficiency {:.2}%)\n  BLAS calls  {}\n",
                dev.name,
                perf.outputs_per_s,
                perf.latency_s,
                perf.effective_gflops,
                100.0 * perf.efficiency,
                perf.calls,
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(argv("help")).unwrap();
        assert!(out.contains("ecad search"));
    }

    #[test]
    fn unknown_command_is_error() {
        assert!(matches!(
            run(argv("frobnicate")),
            Err(CliError::Args(ArgError::UnknownCommand(_)))
        ));
    }

    #[test]
    fn devices_lists_catalog() {
        let out = cmd_devices();
        assert!(out.contains("Arria 10 GX 1150"));
        assert!(out.contains("Stratix 10 2800"));
        assert!(out.contains("Titan X"));
        assert!(out.contains("Xeon 22-core"));
    }

    #[test]
    fn datasets_lists_benchmarks() {
        let out = run(argv("datasets")).unwrap();
        for b in Benchmark::ALL {
            assert!(out.contains(b.name()), "missing {b}");
        }
    }

    #[test]
    fn datasets_generates_csv() {
        let dir = std::env::temp_dir().join("ecad_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("credit.csv");
        let out = run(argv(&format!(
            "datasets --generate credit-g --out {} --samples 50 --seed 3",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("wrote credit-g"));
        let ds = csv::read_dataset_file(&path).unwrap();
        assert_eq!(ds.len(), 50);
        assert_eq!(ds.n_features(), 20);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn estimate_fpga_reports_roofline() {
        let out = run(argv("estimate --layers 784,256,10 --grid 8x8x4 --batch 32")).unwrap();
        assert!(out.contains("Arria 10"));
        assert!(out.contains("outputs/s"));
        assert!(out.contains("Fmax"));
    }

    #[test]
    fn estimate_gpu_and_cpu() {
        let gpu = run(argv(
            "estimate --layers 561,128,6 --device titanx --batch 256",
        ))
        .unwrap();
        assert!(gpu.contains("Titan X"));
        let cpu = run(argv(
            "estimate --layers 561,128,6 --device xeon --batch 256",
        ))
        .unwrap();
        assert!(cpu.contains("Xeon"));
        assert!(cpu.contains("BLAS calls"));
    }

    #[test]
    fn estimate_rejects_single_width() {
        assert!(matches!(
            run(argv("estimate --layers 784")),
            Err(CliError::Domain(_))
        ));
    }

    #[test]
    fn estimate_rejects_oversized_grid() {
        let err = run(argv("estimate --layers 8,4 --grid 32x32x16")).unwrap_err();
        assert!(matches!(err, CliError::Domain(_)));
        assert!(err.to_string().contains("DSP"));
    }

    #[test]
    fn search_end_to_end_from_files() {
        let dir = std::env::temp_dir().join("ecad_cli_search_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("toy.csv");
        let cfg = dir.join("toy.ini");
        let ds = ecad_dataset::synth::SyntheticSpec::new("toy", 120, 6, 2)
            .with_seed(1)
            .generate();
        csv::write_dataset_file(&ds, &data).unwrap();
        std::fs::write(
            &cfg,
            "[nna]\nmax_layers = 1\nmax_neurons = 12\n[optimization]\nevaluations = 6\npopulation = 4\nepochs = 3\n",
        )
        .unwrap();
        let trace = dir.join("trace.csv");
        let out = run(argv(&format!(
            "search --data {} --config {} --trace {} --seed 5",
            data.display(),
            cfg.display(),
            trace.display()
        )))
        .unwrap();
        assert!(out.contains("best candidate"));
        assert!(out.contains("6 models evaluated"));
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.starts_with("index,accuracy"));
        assert_eq!(trace_text.lines().count(), 7); // header + 6 evals
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn search_requires_data_flag() {
        assert!(matches!(
            run(argv("search")),
            Err(CliError::Args(ArgError::MissingFlag("data")))
        ));
    }

    /// End-to-end observability path: a seeded search with
    /// `--trace-out` and `--metrics` writes a JSONL event stream the
    /// `trace` subcommand accepts, and prints the metrics table.
    #[test]
    fn search_emits_jsonl_trace_and_metrics() {
        let dir = std::env::temp_dir().join("ecad_cli_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("toy.csv");
        let cfg = dir.join("toy.ini");
        let ds = ecad_dataset::synth::SyntheticSpec::new("toy", 120, 6, 2)
            .with_seed(1)
            .generate();
        csv::write_dataset_file(&ds, &data).unwrap();
        std::fs::write(
            &cfg,
            "[nna]\nmax_layers = 1\nmax_neurons = 12\n[optimization]\nevaluations = 6\npopulation = 4\nepochs = 3\n",
        )
        .unwrap();
        let jsonl = dir.join("events.jsonl");
        let out = run(argv(&format!(
            "search --data {} --config {} --seed 5 --threads 1 --trace-out {} --metrics",
            data.display(),
            cfg.display(),
            jsonl.display()
        )))
        .unwrap();
        assert!(out.contains("run metrics"));
        assert!(out.contains("span.train_s"));
        assert!(out.contains("engine.models_evaluated"));
        assert!(out.contains("event trace written"));

        // The emitted stream satisfies the validator, including the
        // lifecycle kinds the engine promises.
        let report = run(argv(&format!(
            "trace --file {} --require search_start,submit,evaluated,search_end",
            jsonl.display()
        )))
        .unwrap();
        assert!(report.contains("all lines parse"));
        assert!(report.contains("search_start"));

        // A kind that never occurs is an error.
        let err = run(argv(&format!(
            "trace --file {} --require no_such_event",
            jsonl.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("no_such_event"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Picks a loopback port by binding an ephemeral listener and
    /// releasing it for the CLI worker to claim.
    fn free_port() -> u16 {
        std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port()
    }

    /// Starts `ecad cluster worker` on a free port and returns once it
    /// accepts connections. A coordinator that dials earlier is refused:
    /// its connect-retry budget absorbs the refusal, but the
    /// `worker_connect_failed` warning lands in the trace, which a
    /// byte-identity comparison then fails on.
    fn spawn_cli_worker() -> (u16, std::thread::JoinHandle<Result<String, CliError>>) {
        let port = free_port();
        let worker = std::thread::spawn(move || {
            run(argv(&format!("cluster worker --listen 127.0.0.1:{port}")))
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while std::net::TcpStream::connect(("127.0.0.1", port)).is_err() {
            assert!(
                std::time::Instant::now() < deadline,
                "cluster worker never accepted connections on port {port}"
            );
            std::thread::yield_now();
        }
        (port, worker)
    }

    /// End-to-end cluster path through the CLI: `ecad cluster worker`
    /// serves a seeded `ecad cluster search`, the coordinator's JSONL
    /// trace is byte-identical to the plain local run's, and the
    /// `trace` validator pins the lifecycle kinds. A second run with
    /// islands enabled pins the `migration` event kind.
    #[test]
    fn cluster_search_loopback_matches_local_and_pins_trace_kinds() {
        let dir = std::env::temp_dir().join("ecad_cli_cluster_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("toy.csv");
        let cfg = dir.join("toy.ini");
        let ds = ecad_dataset::synth::SyntheticSpec::new("toy", 120, 6, 2)
            .with_seed(1)
            .generate();
        csv::write_dataset_file(&ds, &data).unwrap();
        std::fs::write(
            &cfg,
            "[nna]\nmax_layers = 1\nmax_neurons = 12\n[optimization]\nevaluations = 8\npopulation = 4\nepochs = 3\n",
        )
        .unwrap();
        let base = format!(
            "--data {} --config {} --seed 5 --threads 1",
            data.display(),
            cfg.display()
        );

        let local_jsonl = dir.join("local.jsonl");
        run(argv(&format!(
            "search {base} --trace-out {}",
            local_jsonl.display()
        )))
        .unwrap();

        let (port, worker) = spawn_cli_worker();
        let cluster_jsonl = dir.join("cluster.jsonl");
        let out = run(argv(&format!(
            "cluster search {base} --workers 127.0.0.1:{port} --connect-retries 6 --trace-out {}",
            cluster_jsonl.display()
        )))
        .unwrap();
        assert!(out.contains("models evaluated"));
        // The coordinator's kill_all stops the worker's serve loop.
        let worker_out = worker.join().unwrap().unwrap();
        assert!(worker_out.contains("stopped"));

        assert_eq!(
            std::fs::read_to_string(&local_jsonl).unwrap(),
            std::fs::read_to_string(&cluster_jsonl).unwrap(),
            "single-worker cluster trace must match the local run byte-for-byte"
        );
        let report = run(argv(&format!(
            "trace --file {} --require search_start,submit,evaluated,search_end",
            cluster_jsonl.display()
        )))
        .unwrap();
        assert!(report.contains("all lines parse"));

        // Islands on: elite migrants fold into the coordinator and the
        // validator sees the `migration` kind.
        let (port, worker) = spawn_cli_worker();
        let island_jsonl = dir.join("island.jsonl");
        run(argv(&format!(
            "cluster search {base} --workers 127.0.0.1:{port} --connect-retries 6 \
             --island-every 2 --island-k 1 --trace-out {}",
            island_jsonl.display()
        )))
        .unwrap();
        worker.join().unwrap().unwrap();
        let report = run(argv(&format!(
            "trace --file {} --require migration",
            island_jsonl.display()
        )))
        .unwrap();
        assert!(report.contains("migration"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_args_are_validated() {
        assert!(matches!(
            run(argv("cluster worker")),
            Err(CliError::Args(ArgError::MissingFlag("listen")))
        ));
        assert!(matches!(
            run(argv("cluster purge")),
            Err(CliError::Args(ArgError::UnknownCommand(_)))
        ));
        // Cluster tuning flags are meaningless without workers.
        let err = run(argv("search --data nowhere.csv --island-every 2")).unwrap_err();
        assert!(err.to_string().contains("requires --workers"));
        // An empty worker list is rejected before any search work.
        let err = run(argv("cluster search --data nowhere.csv --workers ,")).unwrap_err();
        assert!(matches!(err, CliError::Args(ArgError::BadValue { .. })));
    }

    #[test]
    fn trace_rejects_malformed_lines() {
        let dir = std::env::temp_dir().join("ecad_cli_trace_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"seq\":0,\"level\":\"info\",\"target\":\"t\",\"event\":\"a\",\"fields\":{}}\nnot json\n").unwrap();
        let err = run(argv(&format!("trace --file {}", bad.display()))).unwrap_err();
        assert!(err.to_string().contains(":2"));

        let gap = dir.join("gap.jsonl");
        std::fs::write(
            &gap,
            "{\"seq\":1,\"level\":\"info\",\"target\":\"t\",\"event\":\"a\",\"fields\":{}}\n",
        )
        .unwrap();
        let err = run(argv(&format!("trace --file {}", gap.display()))).unwrap_err();
        assert!(err.to_string().contains("out of order"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `ecad analyze` and `ecad trace` read trace lines with one strict
    /// decoder: a non-integer `seq` or a non-string `event` is refused
    /// with its line and field, even after a valid epoch line.
    #[test]
    fn analyze_refuses_lines_trace_refuses() {
        let dir = std::env::temp_dir().join("ecad_cli_analyze_strict");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        let epoch = "{\"seq\":0,\"level\":\"info\",\"target\":\"t\",\"event\":\"epoch\",\
                     \"fields\":{\"epoch\":1,\"hypervolume\":0.5}}";
        let line = "{\"seq\":\"x\",\"level\":\"info\",\"target\":\"t\",\"event\":7,\"fields\":{}}";
        std::fs::write(&bad, format!("{epoch}\n{line}\n")).unwrap();
        let want = format!(
            "{}:2: seq: expected an integer in 0..=9007199254740992, got a string",
            bad.display()
        );
        for cmd in ["analyze", "trace"] {
            let err = run(argv(&format!("{cmd} --file {}", bad.display()))).unwrap_err();
            assert_eq!(err.to_string(), want, "{cmd}");
        }
        let event = line.replace("\"x\"", "1");
        std::fs::write(&bad, format!("{epoch}\n{event}\n")).unwrap();
        let err = run(argv(&format!("analyze --file {}", bad.display()))).unwrap_err();
        assert!(
            err.to_string()
                .ends_with(":2: event: expected a string, got 7"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Event fields are read strictly too: a mistyped epoch field fails
    /// `ecad analyze` instead of printing a row of NaNs, and a mistyped
    /// `span_us` fails `ecad trace --summary` instead of dropping the
    /// span from its profile table; both name the line and the field.
    #[test]
    fn analyze_and_trace_summary_refuse_mistyped_fields() {
        let dir = std::env::temp_dir().join("ecad_cli_fields_strict");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        let epoch = "{\"seq\":0,\"level\":\"info\",\"target\":\"x\",\"event\":\"epoch\",\
                     \"fields\":{\"epoch\":\"one\",\"hypervolume\":0.1}}";
        std::fs::write(&bad, format!("{epoch}\n")).unwrap();
        let integer = "expected an integer in 0..=9007199254740992, got a string";
        for format in ["text", "json"] {
            let cmd = format!("analyze --file {} --format {format}", bad.display());
            let err = run(argv(&cmd)).unwrap_err();
            let want = format!("{}:1: fields.epoch: {integer}", bad.display());
            assert_eq!(err.to_string(), want, "{format}");
        }
        let close = "{\"seq\":0,\"level\":\"debug\",\"target\":\"t\",\"event\":\"train\",\
                     \"fields\":{\"path\":\"engine;train\",\"span_us\":12}}";
        let mistyped = close
            .replace("\"seq\":0", "\"seq\":1")
            .replace(":12}", ":\"12\"}");
        std::fs::write(&bad, format!("{close}\n{mistyped}\n")).unwrap();
        let err = run(argv(&format!("trace --file {} --summary", bad.display()))).unwrap_err();
        let want = format!("{}:2: fields.span_us: {integer}", bad.display());
        assert_eq!(err.to_string(), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Interrupted-run → `--resume` round trip: a run halted mid-budget
    /// with a checkpoint, then resumed, must produce the same final
    /// trace CSV and a byte-identical JSONL event stream as one
    /// uninterrupted run with the same seed.
    #[test]
    fn search_checkpoint_resume_round_trip() {
        let dir = std::env::temp_dir().join("ecad_cli_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("toy.csv");
        let cfg = dir.join("toy.ini");
        let ds = ecad_dataset::synth::SyntheticSpec::new("toy", 120, 6, 2)
            .with_seed(1)
            .generate();
        csv::write_dataset_file(&ds, &data).unwrap();
        std::fs::write(
            &cfg,
            "[nna]\nmax_layers = 1\nmax_neurons = 12\n[optimization]\nevaluations = 12\npopulation = 4\nepochs = 3\n",
        )
        .unwrap();

        let full_jsonl = dir.join("full.jsonl");
        let full_csv = dir.join("full.csv");
        let base = |jsonl: &std::path::Path, csv_out: &std::path::Path| {
            format!(
                "search --data {} --config {} --seed 5 --threads 1 --trace-out {} --trace {}",
                data.display(),
                cfg.display(),
                jsonl.display(),
                csv_out.display()
            )
        };
        run(argv(&base(&full_jsonl, &full_csv))).unwrap();

        let part_jsonl = dir.join("part.jsonl");
        let part_csv = dir.join("part.csv");
        let ck = dir.join("state.json");
        let halted = run(argv(&format!(
            "{} --checkpoint {} --checkpoint-every 3 --halt-after 6",
            base(&part_jsonl, &part_csv),
            ck.display()
        )))
        .unwrap();
        assert!(halted.contains("halted early"), "got: {halted}");
        assert!(ck.exists());

        let resumed = run(argv(&format!(
            "{} --checkpoint {} --resume",
            base(&part_jsonl, &part_csv),
            ck.display()
        )))
        .unwrap();
        assert!(resumed.contains("12 models evaluated"), "got: {resumed}");

        let full = std::fs::read_to_string(&full_jsonl).unwrap();
        let part = std::fs::read_to_string(&part_jsonl).unwrap();
        assert_eq!(
            full, part,
            "resumed JSONL trace must be byte-identical to the uninterrupted run"
        );
        assert_eq!(
            std::fs::read_to_string(&full_csv).unwrap(),
            std::fs::read_to_string(&part_csv).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `ecad analyze` turns a search's JSONL trace into a convergence
    /// report in all three formats, with a monotone hypervolume column,
    /// and errors on traces with no epoch events.
    #[test]
    fn analyze_reports_epochs_from_search_trace() {
        let dir = std::env::temp_dir().join("ecad_cli_analyze_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("toy.csv");
        let cfg = dir.join("toy.ini");
        let ds = ecad_dataset::synth::SyntheticSpec::new("toy", 120, 6, 2)
            .with_seed(1)
            .generate();
        csv::write_dataset_file(&ds, &data).unwrap();
        std::fs::write(
            &cfg,
            "[nna]\nmax_layers = 1\nmax_neurons = 12\n[optimization]\nevaluations = 8\npopulation = 4\nepochs = 3\nobjectives = accuracy, log_throughput\nweights = 1.0, 0.08\n",
        )
        .unwrap();
        let jsonl = dir.join("events.jsonl");
        run(argv(&format!(
            "search --data {} --config {} --seed 5 --threads 1 --trace-out {}",
            data.display(),
            cfg.display(),
            jsonl.display()
        )))
        .unwrap();

        let text = run(argv(&format!("analyze --file {}", jsonl.display()))).unwrap();
        assert!(text.contains("2 epoch(s)"), "got: {text}");
        assert!(text.contains("hypervolume curve"));
        assert!(!text.contains("WARNING"));

        let json = run(argv(&format!(
            "analyze --file {} --format json",
            jsonl.display()
        )))
        .unwrap();
        let parsed = rt::json::Json::parse(&json).unwrap();
        let epochs = parsed
            .get("epochs")
            .and_then(rt::json::Json::as_array)
            .unwrap();
        assert_eq!(epochs.len(), 2);
        let hv: Vec<f64> = epochs
            .iter()
            .map(|e| e.get("hypervolume").and_then(rt::json::Json::as_f64).unwrap())
            .collect();
        assert!(hv.windows(2).all(|w| w[1] >= w[0]), "hv not monotone: {hv:?}");

        let csv_text = run(argv(&format!(
            "analyze --file {} --format csv",
            jsonl.display()
        )))
        .unwrap();
        assert_eq!(csv_text.lines().count(), 3);

        // A trace with no epoch events (run shorter than one
        // population) is a domain error, so scripts can gate on it.
        let short = dir.join("short.jsonl");
        run(argv(&format!(
            "search --data {} --config {} --seed 5 --threads 1 --evaluations 3 --trace-out {}",
            data.display(),
            cfg.display(),
            short.display()
        )))
        .unwrap();
        let err = run(argv(&format!("analyze --file {}", short.display()))).unwrap_err();
        assert!(err.to_string().contains("no epoch events"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_summary_reports_kind_spans() {
        let dir = std::env::temp_dir().join("ecad_cli_trace_summary");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        std::fs::write(
            &path,
            "{\"seq\":0,\"level\":\"info\",\"target\":\"t\",\"event\":\"a\",\"fields\":{}}\n\
             {\"seq\":1,\"level\":\"info\",\"target\":\"t\",\"event\":\"b\",\"fields\":{}}\n\
             {\"seq\":2,\"level\":\"info\",\"target\":\"t\",\"event\":\"a\",\"fields\":{}}\n",
        )
        .unwrap();
        let out = run(argv(&format!("trace --file {} --summary", path.display()))).unwrap();
        assert!(out.contains("all lines parse"));
        assert!(out.contains("3 events spanning seq 0..2"), "got: {out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The observatory is read-only: a served run's JSONL trace is
    /// byte-identical to the same seeded run without `--serve`.
    #[test]
    fn serve_does_not_perturb_trace() {
        let dir = std::env::temp_dir().join("ecad_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("toy.csv");
        let cfg = dir.join("toy.ini");
        let ds = ecad_dataset::synth::SyntheticSpec::new("toy", 120, 6, 2)
            .with_seed(1)
            .generate();
        csv::write_dataset_file(&ds, &data).unwrap();
        std::fs::write(
            &cfg,
            "[nna]\nmax_layers = 1\nmax_neurons = 12\n[optimization]\nevaluations = 6\npopulation = 4\nepochs = 3\n",
        )
        .unwrap();
        let plain = dir.join("plain.jsonl");
        let served = dir.join("served.jsonl");
        let base = format!(
            "search --data {} --config {} --seed 5 --threads 1",
            data.display(),
            cfg.display()
        );
        run(argv(&format!("{base} --trace-out {}", plain.display()))).unwrap();
        let out = run(argv(&format!(
            "{base} --trace-out {} --serve 127.0.0.1:0",
            served.display()
        )))
        .unwrap();
        assert!(out.contains("observatory served"), "got: {out}");
        assert_eq!(
            std::fs::read_to_string(&plain).unwrap(),
            std::fs::read_to_string(&served).unwrap(),
            "serving must not perturb the event stream"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The profiling acceptance path end-to-end: a seeded single-thread
    /// search with `--profile-out --profile-clock ticks` writes a
    /// byte-identical profile across two runs, the attribution table
    /// puts `gemm` under `train`, `ecad profile` renders the file in
    /// all three formats, and `ecad trace --summary` rebuilds the tree
    /// from the profiled trace.
    #[test]
    fn search_profile_out_deterministic_with_gemm_under_train() {
        let dir = std::env::temp_dir().join("ecad_cli_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("toy.csv");
        let cfg = dir.join("toy.ini");
        let ds = ecad_dataset::synth::SyntheticSpec::new("toy", 120, 6, 2)
            .with_seed(1)
            .generate();
        csv::write_dataset_file(&ds, &data).unwrap();
        std::fs::write(
            &cfg,
            "[nna]\nmax_layers = 1\nmax_neurons = 12\n[optimization]\nevaluations = 6\npopulation = 4\nepochs = 3\n",
        )
        .unwrap();
        let p1 = dir.join("p1.json");
        let p2 = dir.join("p2.json");
        let base = |out: &std::path::Path| {
            format!(
                "search --data {} --config {} --seed 5 --threads 1 \
                 --profile-out {} --profile-clock ticks",
                data.display(),
                cfg.display(),
                out.display()
            )
        };
        let out = run(argv(&base(&p1))).unwrap();
        assert!(out.contains("profile (ticks clock) written"), "got: {out}");
        assert!(out.contains("gemm"), "got: {out}");
        run(argv(&base(&p2))).unwrap();
        assert_eq!(
            std::fs::read_to_string(&p1).unwrap(),
            std::fs::read_to_string(&p2).unwrap(),
            "seeded single-thread tick-clock profiles must be byte-identical"
        );

        // gemm attributes under train in the recorded tree. Biased
        // layers emit the fused `gemm_bias` span on the forward pass;
        // accept either name so the pin survives genome variation.
        let doc = rt::json::Json::parse(&std::fs::read_to_string(&p1).unwrap()).unwrap();
        let (clock, root) = rt::prof::profile_from_json(&doc).unwrap();
        assert_eq!(clock, "ticks");
        let train = root.find("train").expect("train span recorded");
        let gemm = train
            .find("gemm_bias")
            .or_else(|| train.find("gemm"))
            .expect("a gemm kernel span nests under train");
        assert!(gemm.calls > 0 && gemm.total_ns > 0);

        // The renderer consumes the file in all three formats.
        let table = run(argv(&format!("profile --file {}", p1.display()))).unwrap();
        assert!(table.contains("gemm") && table.contains("total"), "got: {table}");
        let collapsed = run(argv(&format!(
            "profile --file {} --format collapsed",
            p1.display()
        )))
        .unwrap();
        assert!(
            collapsed.lines().any(|l| l.contains(";gemm")),
            "got: {collapsed}"
        );
        run(argv(&format!("profile --file {} --format json", p1.display()))).unwrap();

        // A profiled trace feeds the same table via `trace --summary`.
        let jsonl = dir.join("events.jsonl");
        run(argv(&format!(
            "{} --trace-out {}",
            base(&p1),
            jsonl.display()
        )))
        .unwrap();
        let summary = run(argv(&format!(
            "trace --file {} --summary",
            jsonl.display()
        )))
        .unwrap();
        assert!(summary.contains("span attribution"), "got: {summary}");
        assert!(summary.contains("train"), "got: {summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn search_profile_clock_requires_profile_out() {
        let err = run(argv("search --data x.csv --profile-clock ticks")).unwrap_err();
        assert!(err.to_string().contains("--profile-clock requires"));
        let err = run(argv("search --data x.csv --profile-out p.json --profile-clock sundial"))
            .unwrap_err();
        assert!(matches!(err, CliError::Args(ArgError::BadValue { .. })));
    }

    #[test]
    fn search_resume_without_checkpoint_is_error() {
        let err = run(argv("search --data x.csv --resume")).unwrap_err();
        assert!(err.to_string().contains("--resume requires --checkpoint"));
    }

    /// Zero worker threads or a zero budget is a usage error naming
    /// the flag, not an engine assertion.
    #[test]
    fn search_rejects_zero_threads_and_evaluations() {
        let dir = std::env::temp_dir().join("ecad_cli_zero_flags");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("toy.csv");
        let ds = ecad_dataset::synth::SyntheticSpec::new("toy", 40, 4, 2)
            .with_seed(1)
            .generate();
        csv::write_dataset_file(&ds, &data).unwrap();
        for flag in ["--threads", "--evaluations"] {
            let err = run(argv(&format!("search --data {} {flag} 0", data.display())))
                .unwrap_err();
            assert!(
                matches!(&err, CliError::Args(ArgError::BadValue { flag: f, .. }) if f == flag),
                "{flag}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn search_rejects_bad_log_level() {
        let err = run(argv("search --data x.csv --log-level loud")).unwrap_err();
        assert!(matches!(err, CliError::Args(ArgError::BadValue { .. })));
    }
}
