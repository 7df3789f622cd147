//! End-to-end cluster tests over loopback TCP: a seeded single-worker
//! cluster run must be byte-identical to the local engine (the event
//! capture/replay contract), a coordinator that loses every worker must
//! degrade to local evaluation and still finish, and a worker killed
//! mid-search must cost only retries — never the result.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ecad_core::cluster::{ClusterOptions, WorkerOptions, WorkerServer};
use ecad_core::prelude::*;
use ecad_core::search::SearchResult;
use ecad_core::space::SearchSpace;
use ecad_dataset::synth::SyntheticSpec;
use ecad_dataset::Dataset;
use ecad_mlp::TrainConfig;
use rt::obs::{Event, JsonlSink, Level, MetricValue, Obs, Sink, Value};
use rt::prof::{ClockKind, Profiler};

/// A `Write` target shared with the test so the sink's output can be
/// inspected after the search drops it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Equality modulo wall-clock timing: `eval_time_s`/`train_time_s`/
/// `hw_time_s` are measured durations and legitimately differ between
/// any two runs, local or remote. Everything else is deterministic.
fn assert_same_measurement(a: &ecad_core::measurement::Measurement, b: &ecad_core::measurement::Measurement) {
    let mut a = a.clone();
    let mut b = b.clone();
    a.eval_time_s = 0.0;
    a.train_time_s = 0.0;
    a.hw_time_s = 0.0;
    b.eval_time_s = 0.0;
    b.train_time_s = 0.0;
    b.hw_time_s = 0.0;
    assert_eq!(a, b);
}

fn dataset() -> Dataset {
    SyntheticSpec::new("cluster-test", 120, 6, 2)
        .with_class_sep(3.0)
        .with_seed(0)
        .generate()
}

fn base_search(ds: &Dataset, obs: Obs) -> Search {
    let mut trainer = TrainConfig::fast();
    trainer.epochs = 6;
    Search::on_dataset(ds)
        .space(
            SearchSpace::fpga_default()
                .with_neurons(4, 24)
                .with_layers(1, 2),
        )
        .evaluations(14)
        .population(6)
        .seed(11)
        .threads(1)
        .trainer(trainer)
        // Zero backoff keeps the dispatch stream identical under
        // faults: a transient failure re-dispatches immediately, before
        // the master can breed (and therefore reorder) new candidates.
        .retry_backoff(Duration::ZERO)
        .obs(obs)
}

fn spawn_worker() -> (String, std::thread::JoinHandle<()>, Arc<AtomicBool>) {
    spawn_worker_with(WorkerOptions::default(), Obs::disabled())
}

/// [`spawn_worker`] with the given options and observer.
fn spawn_worker_with(
    options: WorkerOptions,
    obs: Obs,
) -> (String, std::thread::JoinHandle<()>, Arc<AtomicBool>) {
    let server = WorkerServer::bind("127.0.0.1:0", options, obs).expect("bind loopback worker");
    let addr = server.local_addr().expect("bound addr").to_string();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run().expect("worker serve loop"));
    (addr, handle, stop)
}

fn traced(run: impl FnOnce(Obs) -> SearchResult) -> (String, SearchResult) {
    traced_with(None, run)
}

/// [`traced`], with a fresh profiler on `clock` attached when given.
fn traced_with(
    clock: Option<ClockKind>,
    run: impl FnOnce(Obs) -> SearchResult,
) -> (String, SearchResult) {
    let buf = SharedBuf::default();
    let mut builder =
        Obs::builder().sink(JsonlSink::to_writer(Level::Debug, Box::new(buf.clone())));
    if let Some(clock) = clock {
        builder = builder.profiler(Profiler::new(clock));
    }
    let obs = builder.build();
    let result = run(obs.clone());
    obs.flush();
    (buf.contents(), result)
}

/// Also with a tick-clock profiler on both runs: the local run profiles
/// its `evaluate` spans and the coordinator's proxy thread does not,
/// but neither frame reaches the trace.
#[test]
fn single_worker_cluster_trace_is_byte_identical_to_local() {
    let ds = dataset();
    for clock in [None, Some(ClockKind::Ticks)] {
        let (local_trace, local) = traced_with(clock, |obs| base_search(&ds, obs).run());

        let (addr, worker, _stop) = spawn_worker();
        let (cluster_trace, cluster) = traced_with(clock, |obs| {
            base_search(&ds, obs)
                .cluster(ClusterOptions {
                    workers: vec![addr.clone()],
                    net_timeout: Duration::from_secs(30),
                    ..ClusterOptions::default()
                })
                .run()
        });
        worker.join().expect("worker exits after kill_all");

        assert!(!local_trace.is_empty());
        for (i, (l, c)) in local_trace.lines().zip(cluster_trace.lines()).enumerate() {
            if l != c {
                eprintln!("{clock:?} line {i}:\n  local:   {l}\n  cluster: {c}");
                break;
            }
        }
        assert_eq!(
            local_trace, cluster_trace,
            "{clock:?}: single-worker cluster JSONL must match the local engine byte-for-byte"
        );
        let (lb, cb) = (local.best().unwrap(), cluster.best().unwrap());
        assert_eq!(lb.genome.cache_key(), cb.genome.cache_key());
        assert_same_measurement(&lb.measurement, &cb.measurement);
        assert_eq!(
            local.stats().models_evaluated,
            cluster.stats().models_evaluated
        );
        assert_eq!(local.stats().cache_hits, cluster.stats().cache_hits);
        assert_eq!(
            cluster.stats().retry_count,
            0,
            "healthy run needs no retries"
        );
    }
}

#[test]
fn served_cluster_run_exposes_worker_telemetry_and_keeps_trace_bytes() {
    let ds = dataset();
    let (local_trace, _) = traced(|obs| base_search(&ds, obs).run());

    let (addr, worker, _stop) = spawn_worker();
    let health = Arc::new(ecad_core::cluster::ClusterHealth::new(std::slice::from_ref(
        &addr,
    )));
    let buf = SharedBuf::default();
    let obs = Obs::builder()
        .sink(rt::obs::JsonlSink::to_writer(
            Level::Debug,
            Box::new(buf.clone()),
        ))
        .build();
    let handle = ecad_core::analytics::cluster_observatory(
        &obs,
        &ecad_core::analytics::StatusCell::new(),
        Arc::clone(&health),
    )
    .bind("127.0.0.1:0")
    .expect("bind cluster observatory");
    let http_addr = handle.addr();
    fn http_get(addr: std::net::SocketAddr, target: &str) -> String {
        use std::io::{Read as _, Write as _};
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        write!(s, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        text.split_once("\r\n\r\n").map(|x| x.1.to_string()).unwrap()
    }

    // Scrape mid-run: once a few models are in, the labeled families
    // and the live worker entry must already be visible.
    let models = obs.counter("engine.models_evaluated");
    let scraper = std::thread::spawn(move || {
        while models.get() < 4 {
            std::thread::sleep(Duration::from_millis(5));
        }
        (
            http_get(http_addr, "/metrics"),
            http_get(http_addr, "/workers"),
        )
    });

    let result = base_search(&ds, obs.clone())
        .cluster(ClusterOptions {
            workers: vec![addr.clone()],
            net_timeout: Duration::from_secs(30),
            ..ClusterOptions::default()
        })
        .cluster_health(Arc::clone(&health))
        .run();
    obs.flush();
    worker.join().expect("worker exits after kill_all");

    let (mid_metrics, mid_workers) = scraper.join().expect("mid-run scrape");
    let label = format!("worker=\"{addr}\"");
    assert!(
        mid_metrics.contains("cluster_worker_jobs{") && mid_metrics.contains(&label),
        "mid-run /metrics must carry worker-labeled families:\n{mid_metrics}"
    );
    let mid = rt::json::Json::parse(&mid_workers).expect("/workers is json");
    assert_eq!(
        mid.get("workers")
            .and_then(rt::json::Json::as_array)
            .map(<[rt::json::Json]>::len),
        Some(1)
    );

    // Post-run the picture is deterministic: the coordinator tallied
    // every accepted reply.
    let final_workers =
        rt::json::Json::parse(&http_get(http_addr, "/workers")).expect("/workers is json");
    let w = &final_workers
        .get("workers")
        .and_then(rt::json::Json::as_array)
        .unwrap()[0];
    assert_eq!(
        w.get("state").and_then(rt::json::Json::as_str),
        Some("connected")
    );
    assert_eq!(w.get("jobs").and_then(rt::json::Json::as_f64), Some(14.0));
    assert!(w.get("eval_p50_s").and_then(rt::json::Json::as_f64).unwrap() > 0.0);
    assert_eq!(final_workers.get("degraded"), Some(&rt::json::Json::Bool(false)));
    let final_metrics = http_get(http_addr, "/metrics");
    assert!(
        final_metrics.contains(&format!("cluster_worker_jobs{{{label}}} 14")),
        "worker-labeled jobs gauge must reach the budget:\n{final_metrics}"
    );
    handle.stop();

    // Per-worker latency lands in the run's stats, and serving +
    // scraping never perturbs the seeded trace.
    let stats = result.stats();
    assert_eq!(stats.worker_latency.len(), 1);
    assert_eq!(stats.worker_latency[0].addr, addr);
    assert_eq!(stats.worker_latency[0].jobs, 14);
    assert!(stats.worker_latency[0].p50_s > 0.0);
    assert_eq!(
        local_trace,
        buf.contents(),
        "served cluster JSONL must match the local engine byte-for-byte"
    );
}

#[test]
fn two_worker_profiles_graft_deterministically_under_ticks() {
    let ds = dataset();

    // Fixed addresses across both runs so the grafted subtree names
    // (`worker:<addr>`) are byte-stable; seeds-only budget so the
    // `id % workers` routing gives each worker the same job stream in
    // both runs.
    let run = |addrs: &[String]| -> String {
        let profiler = rt::prof::Profiler::with_root(rt::prof::ClockKind::Ticks, "search");
        let obs = Obs::builder().profiler(profiler.clone()).build();
        let mut trainer = TrainConfig::fast();
        trainer.epochs = 4;
        let result = Search::on_dataset(&ds)
            .space(
                SearchSpace::fpga_default()
                    .with_neurons(4, 24)
                    .with_layers(1, 2),
            )
            .evaluations(6)
            .population(6)
            .seed(11)
            .threads(1)
            .trainer(trainer)
            .obs(obs)
            .cluster(ClusterOptions {
                workers: addrs.to_vec(),
                net_timeout: Duration::from_secs(30),
                ..ClusterOptions::default()
            })
            .run();
        assert_eq!(result.stats().models_evaluated, 6);
        rt::prof::profile_to_json(profiler.clock(), &profiler.report()).pretty()
    };

    let (addr_a, worker_a, _stop_a) = spawn_worker();
    let (addr_b, worker_b, _stop_b) = spawn_worker();
    let addrs = vec![addr_a.clone(), addr_b.clone()];
    let first = run(&addrs);
    worker_a.join().expect("worker a exits");
    worker_b.join().expect("worker b exits");

    // Re-bind the *same* ports for the second run (free again after
    // the kill_all drained the first pair).
    let rebind = |addr: &str| {
        let server =
            WorkerServer::bind(addr, WorkerOptions::default(), Obs::disabled()).expect("rebind");
        std::thread::spawn(move || server.run().expect("worker serve loop"))
    };
    let worker_a = rebind(&addr_a);
    let worker_b = rebind(&addr_b);
    let second = run(&addrs);
    worker_a.join().expect("worker a exits");
    worker_b.join().expect("worker b exits");

    assert!(
        first.contains("worker:"),
        "master profile must graft worker subtrees:\n{first}"
    );
    for addr in &addrs {
        assert!(
            first.contains(&format!("worker:{addr}")),
            "each worker's subtree must appear under its own root:\n{first}"
        );
    }
    assert!(
        first.contains("\"evaluate\""),
        "worker subtrees carry the worker-side evaluate span:\n{first}"
    );
    assert_eq!(
        first, second,
        "two seeded ticks-clock cluster runs must export byte-identical master profiles"
    );
}

/// A span is profiled only on a thread that installed the profiler. The
/// remote slot's proxy thread never does, so in a ticks-profiled
/// single-worker search the coordinator's tree holds `evaluate` only
/// inside the grafted `worker:<addr>` subtree.
#[test]
fn profiled_cluster_run_keeps_evaluate_frames_under_the_worker_graft() {
    fn evaluate_paths(node: &rt::prof::ProfileNode, prefix: &str, out: &mut Vec<String>) {
        let path = format!("{prefix}{}", node.name);
        if node.name == "evaluate" {
            out.push(path.clone());
        }
        for child in &node.children {
            evaluate_paths(child, &format!("{path};"), out);
        }
    }

    let ds = dataset();
    let (addr, worker, _stop) = spawn_worker();
    let profiler = Profiler::new(ClockKind::Ticks);
    let obs = Obs::builder().profiler(profiler.clone()).build();
    let result = base_search(&ds, obs)
        .cluster(ClusterOptions {
            workers: vec![addr.clone()],
            net_timeout: Duration::from_secs(30),
            ..ClusterOptions::default()
        })
        .run();
    worker.join().expect("worker exits after kill_all");
    assert_eq!(result.stats().models_evaluated, 14);

    let mut paths = Vec::new();
    evaluate_paths(&profiler.report(), "", &mut paths);
    assert_eq!(paths, vec![format!("engine;worker:{addr};evaluate")]);
}

#[test]
fn coordinator_degrades_to_local_when_no_worker_is_reachable() {
    let ds = dataset();
    // Nothing listens here: every connect refuses, the reconnect budget
    // exhausts, the slot retires, and the engine must fall back to
    // local evaluation instead of dying.
    let (trace, result) = traced(|obs| {
        base_search(&ds, obs)
            .cluster(ClusterOptions {
                workers: vec!["127.0.0.1:9".to_string()],
                connect_retries: 2,
                reconnect_backoff: Duration::from_millis(5),
                ..ClusterOptions::default()
            })
            .run()
    });

    assert_eq!(
        result.stats().models_evaluated,
        14,
        "degraded run must still exhaust its budget"
    );
    assert!(result.stats().retry_count >= 1, "the lost dispatch retries");
    assert!(
        trace.contains("\"event\":\"cluster_degraded\""),
        "degradation must be announced"
    );
    assert!(trace.contains("\"event\":\"worker_lost\""));
    assert!(trace.contains("\"event\":\"search_end\""));
}

/// A worker whose frame ceiling is below the setup frame is never sent
/// it: its hello announces the ceiling, the coordinator's send fails
/// once, permanently, naming both sizes, and the run finishes its
/// budget locally with the local result. The worker sees one session
/// that ends in a disconnect, never an oversized frame.
#[test]
fn setup_frame_above_the_workers_ceiling_is_never_sent() {
    let ds = dataset();
    let (_, local) = traced(|obs| base_search(&ds, obs).run());

    let worker_log = rt::obs::CaptureSink::new(Level::Info);
    let (addr, worker, stop) = spawn_worker_with(
        WorkerOptions {
            max_frame: 1024,
            ..WorkerOptions::default()
        },
        Obs::builder().sink(Arc::clone(&worker_log)).build(),
    );
    let (trace, result) = traced(|obs| {
        base_search(&ds, obs)
            .cluster(ClusterOptions {
                workers: vec![addr.clone()],
                connect_retries: 3,
                reconnect_backoff: Duration::from_millis(5),
                ..ClusterOptions::default()
            })
            .run()
    });
    // No session ever sends this worker `kill_all`.
    stop.store(true, Ordering::Release);
    worker.join().expect("stopped worker exits");

    assert_eq!(result.stats().models_evaluated, 14);
    let lost: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("\"event\":\"worker_lost\""))
        .collect();
    assert_eq!(lost.len(), 1, "{trace}");
    assert!(
        lost[0].contains("bytes exceeds the 1024-byte ceiling"),
        "{}",
        lost[0]
    );
    assert_eq!(
        trace.matches("\"event\":\"worker_connect_failed\"").count(),
        1,
        "a refused frame is not retried"
    );
    assert!(trace.contains("\"event\":\"cluster_degraded\""));
    let (want, got) = (local.best().unwrap(), result.best().unwrap());
    assert_eq!(want.genome.cache_key(), got.genome.cache_key());
    assert_same_measurement(&want.measurement, &got.measurement);

    let events = worker_log.take();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!(count("session_error"), 0, "{events:?}");
    assert_eq!(count("session_accept"), 1);
}

/// Trips a worker's stop flag when the coordinator records its
/// `after`-th `evaluated` event. The sink runs on the master thread
/// before it breeds the next candidate, so the stop lands mid-search
/// however fast the candidates train, where a thread polling a counter
/// can be outrun by the whole search.
struct StopAfterEvaluated {
    after: usize,
    seen: AtomicUsize,
    stop: Arc<AtomicBool>,
}

impl Sink for StopAfterEvaluated {
    fn min_level(&self) -> Level {
        Level::Info
    }

    fn record(&self, event: &Event) {
        if event.name == "evaluated" && self.seen.fetch_add(1, Ordering::AcqRel) + 1 == self.after {
            self.stop.store(true, Ordering::Release);
        }
    }
}

#[test]
fn worker_killed_mid_search_costs_retries_but_not_the_result() {
    let ds = dataset();
    let (_, fault_free) = traced(|obs| base_search(&ds, obs).run());

    let (addr, worker, stop) = spawn_worker();
    let options = ClusterOptions {
        workers: vec![addr],
        connect_retries: 2,
        reconnect_backoff: Duration::from_millis(5),
        ..ClusterOptions::default()
    };
    // Kill the worker once the search is demonstrably mid-flight: the
    // worker serves at most one more job, and the one after it fails.
    let obs = Obs::builder()
        .sink(StopAfterEvaluated {
            after: 4,
            seen: AtomicUsize::new(0),
            stop,
        })
        .build();
    let result = base_search(&ds, obs.clone()).cluster(options).obs(obs.clone()).run();
    worker.join().expect("stopped worker exits");

    assert_eq!(result.stats().models_evaluated, 14);
    assert!(
        result.stats().retry_count >= 1,
        "the in-flight job on the killed worker must have been retried"
    );
    let retries = obs
        .snapshot()
        .into_iter()
        .find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == "engine.retries" => Some(c),
            _ => None,
        })
        .unwrap_or(0);
    assert!(retries >= 1, "retry counter must record the recovery");
    // Deterministic pipeline of depth 1: the genome stream is the same
    // as the uninterrupted run's, so the winner must be too.
    let (ff, got) = (fault_free.best().unwrap(), result.best().unwrap());
    assert_eq!(ff.genome.cache_key(), got.genome.cache_key());
    assert_same_measurement(&ff.measurement, &got.measurement);
}

/// A readiness probe, a connection closed before its hello, ends as an
/// info-level `session_end`, not as a failed session, and costs the
/// search that follows nothing: its trace equals the local one.
#[test]
fn readiness_probe_ends_its_session_without_an_error() {
    let ds = dataset();
    let (local_trace, local) = traced(|obs| base_search(&ds, obs).run());

    let worker_log = rt::obs::CaptureSink::new(Level::Info);
    let (addr, worker, _stop) = spawn_worker_with(
        WorkerOptions::default(),
        Obs::builder().sink(Arc::clone(&worker_log)).build(),
    );
    drop(std::net::TcpStream::connect(&addr).expect("probe connects"));
    let (cluster_trace, cluster) = traced(|obs| {
        base_search(&ds, obs)
            .cluster(ClusterOptions {
                workers: vec![addr.clone()],
                ..ClusterOptions::default()
            })
            .run()
    });
    worker.join().expect("worker exits after kill_all");

    assert_eq!(local_trace, cluster_trace);
    let (want, got) = (local.best().unwrap(), cluster.best().unwrap());
    assert_eq!(want.genome.cache_key(), got.genome.cache_key());
    assert_same_measurement(&want.measurement, &got.measurement);
    assert_eq!(cluster.stats().retry_count, 0);

    let events = worker_log.take();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!(count("session_error"), 0, "{events:?}");
    assert_eq!(count("session_accept"), 2, "{events:?}");
    let ends: Vec<&Event> = events.iter().filter(|e| e.name == "session_end").collect();
    assert_eq!(ends.len(), 1, "{events:?}");
    assert_eq!(ends[0].level, Level::Info);
    assert!(
        ends[0]
            .fields
            .iter()
            .any(|(k, v)| *k == "reason" && *v == Value::Str("closed_before_hello".into())),
        "{:?}",
        ends[0]
    );
}

/// A worker restarted mid-search is still one worker to the
/// coordinator: it tallies the replies it accepts from both sessions,
/// so `/workers` `jobs` ends equal to the budget and to `eval_count`,
/// and `cluster_worker_jobs` reads the budget.
#[test]
fn restarted_worker_tallies_add_up_across_sessions() {
    let ds = dataset();
    let (addr, worker, stop) = spawn_worker();
    let health = Arc::new(ecad_core::cluster::ClusterHealth::new(std::slice::from_ref(
        &addr,
    )));
    let obs = Obs::builder().build(); // metrics registry only
    let models = obs.counter("engine.models_evaluated");
    // Stop the first server after a few jobs, then serve the rest from
    // a fresh one on the same port.
    let restarter = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            while models.get() < 4 {
                std::thread::sleep(Duration::from_millis(5));
            }
            stop.store(true, Ordering::Release);
            worker.join().expect("stopped worker exits");
            let server = WorkerServer::bind(&addr, WorkerOptions::default(), Obs::disabled())
                .expect("rebind the same port");
            std::thread::spawn(move || server.run().expect("worker serve loop"))
        })
    };
    let result = base_search(&ds, obs.clone())
        .cluster(ClusterOptions {
            workers: vec![addr.clone()],
            connect_retries: 50,
            reconnect_backoff: Duration::from_millis(10),
            ..ClusterOptions::default()
        })
        .cluster_health(Arc::clone(&health))
        .run();
    restarter
        .join()
        .expect("restarter")
        .join()
        .expect("restarted worker exits after kill_all");

    assert_eq!(result.stats().models_evaluated, 14);
    assert!(result.stats().retry_count >= 1, "the restart cost a retry");
    let workers = ecad_core::analytics::workers_json(&obs, &health);
    let w = &workers
        .get("workers")
        .and_then(rt::json::Json::as_array)
        .unwrap()[0];
    assert_eq!(w.get("jobs").and_then(rt::json::Json::as_f64), Some(14.0));
    assert_eq!(
        w.get("eval_count").and_then(rt::json::Json::as_f64),
        Some(14.0)
    );
    let metrics = rt::http::prometheus_text(&obs.snapshot());
    assert!(
        metrics.contains(&format!("cluster_worker_jobs{{worker=\"{addr}\"}} 14\n")),
        "the jobs gauge must read the budget:\n{metrics}"
    );
}

#[test]
fn checkpointed_cluster_run_resumes_to_the_uninterrupted_result() {
    let ds = dataset();
    let dir = std::env::temp_dir().join("ecad_cluster_ckpt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("state.json");
    let single = |addr: String| ClusterOptions {
        workers: vec![addr],
        ..ClusterOptions::default()
    };

    let (addr, worker, _stop) = spawn_worker();
    let full = base_search(&ds, Obs::disabled()).cluster(single(addr)).run();
    worker.join().expect("worker exits after kill_all");

    // Halt mid-budget with a checkpoint attached: the snapshot must
    // cover the jobs still pending on the remote slot. Each leg gets a
    // fresh worker — the previous one exited on the drain's kill_all.
    let (addr, worker, _stop) = spawn_worker();
    let halted = base_search(&ds, Obs::disabled())
        .cluster(single(addr))
        .checkpoint(CheckpointPolicy::new(ck.clone(), 3))
        .halt_after(7)
        .run();
    worker.join().expect("worker exits after halt drain");
    assert!(halted.halted(), "halt_after must stop the run mid-budget");

    let state = CheckpointState::load(&ck).expect("checkpoint written on halt");
    let (addr, worker, _stop) = spawn_worker();
    let resumed = base_search(&ds, Obs::disabled())
        .cluster(single(addr))
        .checkpoint(CheckpointPolicy::new(ck.clone(), 3))
        .resume_from(state)
        .run();
    worker.join().expect("worker exits after kill_all");

    assert_eq!(
        resumed.stats().models_evaluated,
        full.stats().models_evaluated,
        "resume must finish exactly the interrupted budget"
    );
    let (fb, rb) = (full.best().unwrap(), resumed.best().unwrap());
    assert_eq!(fb.genome.cache_key(), rb.genome.cache_key());
    assert_same_measurement(&fb.measurement, &rb.measurement);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn island_migration_folds_elites_without_spending_budget() {
    let ds = dataset();
    let (addr, worker, _stop) = spawn_worker();
    let (trace, result) = traced(|obs| {
        base_search(&ds, obs)
            .cluster(ClusterOptions {
                workers: vec![addr.clone()],
                island_every: 3,
                island_k: 1,
                ..ClusterOptions::default()
            })
            .run()
    });
    worker.join().expect("worker exits after kill_all");

    assert_eq!(
        result.stats().models_evaluated,
        14,
        "migrants never consume coordinator budget"
    );
    assert!(
        trace.contains("\"event\":\"migration\""),
        "island elites must migrate into the coordinator trace"
    );
}
