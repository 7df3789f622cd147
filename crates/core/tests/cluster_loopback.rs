//! End-to-end cluster tests over loopback TCP: a seeded single-worker
//! cluster run must be byte-identical to the local engine (the event
//! capture/replay contract), a coordinator that loses every worker must
//! degrade to local evaluation and still finish, and a worker killed
//! mid-search must cost only retries — never the result.

use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ecad_core::cluster::{ClusterOptions, WorkerOptions, WorkerServer};
use ecad_core::prelude::*;
use ecad_core::search::SearchResult;
use ecad_core::space::SearchSpace;
use ecad_dataset::synth::SyntheticSpec;
use ecad_dataset::Dataset;
use ecad_mlp::TrainConfig;
use rt::obs::{JsonlSink, Level, MetricValue, Obs};

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

fn spawn_worker() -> (String, std::thread::JoinHandle<()>, Arc<std::sync::atomic::AtomicBool>) {
    let server = WorkerServer::bind("127.0.0.1:0", WorkerOptions::default(), Obs::disabled())
        .expect("bind loopback worker");
    let addr = server.local_addr().expect("bound addr").to_string();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run().expect("worker serve loop"));
    (addr, handle, stop)
}

fn traced(run: impl FnOnce(Obs) -> SearchResult) -> (String, SearchResult) {
    let buf = SharedBuf::default();
    let obs = Obs::builder()
        .sink(JsonlSink::to_writer(Level::Debug, Box::new(buf.clone())))
        .build();
    let result = run(obs.clone());
    obs.flush();
    (buf.contents(), result)
}

#[test]
fn single_worker_cluster_trace_is_byte_identical_to_local() {
    let ds = dataset();
    let (local_trace, local) = traced(|obs| base_search(&ds, obs).run());

    let (addr, worker, _stop) = spawn_worker();
    let (cluster_trace, cluster) = traced(|obs| {
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
            eprintln!("line {i}:\n  local:   {l}\n  cluster: {c}");
            break;
        }
    }
    eprintln!(
        "local {} lines, cluster {} lines",
        local_trace.lines().count(),
        cluster_trace.lines().count()
    );
    assert_eq!(
        local_trace, cluster_trace,
        "single-worker cluster JSONL must match the local engine byte-for-byte"
    );
    let (lb, cb) = (local.best().unwrap(), cluster.best().unwrap());
    assert_eq!(lb.genome.cache_key(), cb.genome.cache_key());
    assert_same_measurement(&lb.measurement, &cb.measurement);
    assert_eq!(local.stats().models_evaluated, cluster.stats().models_evaluated);
    assert_eq!(local.stats().cache_hits, cluster.stats().cache_hits);
    assert_eq!(cluster.stats().retry_count, 0, "healthy run needs no retries");
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
            stats_every: 2,
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

    // Post-run the picture is deterministic: the final pre-Bye Stats
    // frame carries the worker's complete counters.
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
                stats_every: 2,
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
/// inside the grafted `worker:<addr>` subtree, and no trace line
/// carries a `path` field.
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
    let profiler = rt::prof::Profiler::new(rt::prof::ClockKind::Ticks);
    let buf = SharedBuf::default();
    let obs = Obs::builder()
        .sink(JsonlSink::to_writer(Level::Debug, Box::new(buf.clone())))
        .profiler(profiler.clone())
        .build();
    let result = base_search(&ds, obs.clone())
        .cluster(ClusterOptions {
            workers: vec![addr.clone()],
            net_timeout: Duration::from_secs(30),
            ..ClusterOptions::default()
        })
        .run();
    obs.flush();
    worker.join().expect("worker exits after kill_all");
    assert_eq!(result.stats().models_evaluated, 14);

    let mut paths = Vec::new();
    evaluate_paths(&profiler.report(), "", &mut paths);
    assert_eq!(paths, vec![format!("engine;worker:{addr};evaluate")]);
    let trace = buf.contents();
    assert!(trace.contains("\"event\":\"evaluate\""));
    for line in trace.lines() {
        let json = rt::json::Json::parse(line).expect("trace line parses");
        assert!(
            json.get("fields").and_then(|f| f.get("path")).is_none(),
            "no trace line may carry a path field: {line}"
        );
    }
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
    let obs = Obs::builder().build(); // metrics registry only
    let models = obs.counter("engine.models_evaluated");
    // Kill the worker once the search is demonstrably mid-flight.
    let killer = std::thread::spawn(move || {
        while models.get() < 4 {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Release);
    });
    let result = base_search(&ds, obs.clone()).cluster(options).obs(obs.clone()).run();
    killer.join().unwrap();
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
