//! Integration tests for `rt::obs`: level filtering, sink routing,
//! histogram quantiles, JSONL round-trips, and hot-path thread safety.

use std::io::Write;
use std::sync::{Arc, Mutex};

use rt::json::Json;
use rt::obs::{CaptureSink, Event, JsonlSink, Level, Obs, Sink, StderrSink, Value};

/// An `impl Write` handle over a shared byte buffer, so a test can
/// hand the writer to a `JsonlSink` and still read the bytes back.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn new() -> Self {
        SharedBuf(Arc::new(Mutex::new(Vec::new())))
    }

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

fn capture_obs(min: Level) -> (Obs, Arc<CaptureSink>) {
    let sink = CaptureSink::new(min);
    let obs = Obs::builder().sink(Arc::clone(&sink)).build();
    (obs, sink)
}

#[test]
fn events_below_sink_level_are_filtered() {
    let (obs, sink) = capture_obs(Level::Info);
    assert!(!obs.is_enabled(Level::Trace));
    assert!(!obs.is_enabled(Level::Debug));
    assert!(obs.is_enabled(Level::Info));
    assert!(obs.is_enabled(Level::Warn));

    rt::trace!(obs, "too_quiet");
    rt::debug!(obs, "still_too_quiet");
    rt::info!(obs, "heard", n = 1u64);
    rt::warn!(obs, "also_heard");

    let events = sink.take();
    let names: Vec<&str> = events.iter().map(|e| e.name).collect();
    assert_eq!(names, vec!["heard", "also_heard"]);
    assert_eq!(events[0].fields, vec![("n", Value::U64(1))]);
    assert_eq!(events[0].target, module_path!());
}

#[test]
fn multiple_sinks_each_apply_their_own_level() {
    let fine = CaptureSink::new(Level::Trace);
    let coarse = CaptureSink::new(Level::Warn);
    let obs = Obs::builder()
        .sink(Arc::clone(&fine))
        .sink(Arc::clone(&coarse))
        .build();

    rt::debug!(obs, "detail");
    rt::warn!(obs, "problem");

    assert_eq!(fine.take().len(), 2);
    let coarse_names: Vec<&str> = coarse.take().iter().map(|e| e.name).collect();
    assert_eq!(coarse_names, vec!["problem"]);
}

#[test]
fn jsonl_lines_round_trip_through_rt_json() {
    let buf = SharedBuf::new();
    let obs = Obs::builder()
        .sink(JsonlSink::to_writer(Level::Debug, Box::new(buf.clone())))
        .build();

    rt::info!(obs, "search_start", seed = 7u64, threads = 1usize);
    rt::debug!(obs, "cache_hit", key = "ff00", hit = true);
    rt::warn!(obs, "infeasible", reason = "device-fit", penalty = 0.25);
    obs.flush();

    let text = buf.contents();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);

    for (i, line) in lines.iter().enumerate() {
        let json = Json::parse(line).expect("every trace line parses");
        // Stable schema: seq/level/target/event/fields, in that order.
        let Json::Object(pairs) = &json else {
            panic!("line is not an object: {line}");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["seq", "level", "target", "event", "fields"]);
        assert_eq!(json.get("seq").and_then(Json::as_f64), Some(i as f64));
        // Round-trip: parse → serialize is the identity on sink output.
        assert_eq!(json.to_string(), *line);
    }

    let first = Json::parse(lines[0]).unwrap();
    assert_eq!(first.get("event").and_then(Json::as_str), Some("search_start"));
    let fields = first.get("fields").unwrap();
    assert_eq!(fields.get("seed").and_then(Json::as_f64), Some(7.0));
    assert_eq!(fields.get("threads").and_then(Json::as_f64), Some(1.0));

    let third = Json::parse(lines[2]).unwrap();
    assert_eq!(
        third.get("fields").and_then(|f| f.get("reason")).and_then(Json::as_str),
        Some("device-fit")
    );
}

#[test]
fn jsonl_excludes_timing_unless_asked() {
    let plain = SharedBuf::new();
    let timed = SharedBuf::new();
    let obs = Obs::builder()
        .sink(JsonlSink::to_writer(Level::Trace, Box::new(plain.clone())))
        .sink(
            JsonlSink::to_writer(Level::Trace, Box::new(timed.clone())).with_timing(true),
        )
        .build();

    {
        let _span = rt::span!(obs, "evaluate", worker = 0usize);
        std::hint::black_box(0);
    }
    obs.flush();

    let plain_line = plain.contents();
    let timed_line = timed.contents();
    assert!(!plain_line.contains("elapsed_us"));
    assert!(timed_line.contains("elapsed_us"));
    let json = Json::parse(timed_line.lines().next().unwrap()).unwrap();
    assert!(json.get("elapsed_us").and_then(Json::as_f64).unwrap() >= 0.0);
}

#[test]
fn spans_record_duration_histograms() {
    let obs = Obs::builder().build();
    for _ in 0..8 {
        let _span = rt::span!(obs, "train");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let snapshot = obs.snapshot();
    assert_eq!(snapshot.len(), 1);
    let (name, value) = &snapshot[0];
    assert_eq!(name, "span.train_s");
    let rt::obs::MetricValue::Histogram(h) = value else {
        panic!("span metric is not a histogram");
    };
    assert_eq!(h.count, 8);
    assert!(h.sum >= 8.0 * 0.002, "sum {} too small", h.sum);
    assert!(h.p50 >= 0.001, "p50 {} below sleep floor", h.p50);
    assert!(h.p99 >= h.p50);
}

#[test]
fn histogram_quantiles_track_known_distribution() {
    let obs = Obs::builder().build();
    let h = obs.histogram("latency_s");
    // 100 observations: 1ms .. 100ms. True p50 = 50ms, p90 = 90ms,
    // p99 = 99ms; log-scale buckets are exact to within one 2^(1/4)
    // bucket, i.e. a factor of at most 2^(1/8) ≈ 1.09 either way.
    for i in 1..=100 {
        h.record(i as f64 * 1e-3);
    }
    let s = h.summary();
    assert_eq!(s.count, 100);
    assert!((s.sum - 5.050).abs() < 1e-9);
    let within = |got: f64, want: f64| (got / want).log2().abs() <= 0.125 + 1e-9;
    assert!(within(s.p50, 0.050), "p50 {} vs 50ms", s.p50);
    assert!(within(s.p90, 0.090), "p90 {} vs 90ms", s.p90);
    assert!(within(s.p99, 0.099), "p99 {} vs 99ms", s.p99);
    assert!((s.mean() - 0.0505).abs() < 1e-9);
}

#[test]
fn counters_are_race_free_across_scoped_threads() {
    let obs = Obs::builder().build();
    let counter = obs.counter("engine.models_evaluated");
    let hist = obs.histogram("eval_time_s");
    const THREADS: usize = 8;
    const PER_THREAD: usize = 10_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let counter = counter.clone();
            let hist = hist.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record(((t * PER_THREAD + i) % 97 + 1) as f64 * 1e-6);
                }
            });
        }
    });
    assert_eq!(counter.get(), (THREADS * PER_THREAD) as u64);
    assert_eq!(hist.summary().count, (THREADS * PER_THREAD) as u64);
}

#[test]
fn capture_sink_is_race_free_across_scoped_threads() {
    let (obs, sink) = capture_obs(Level::Trace);
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let obs = obs.clone();
            scope.spawn(move || {
                for i in 0..1000usize {
                    rt::trace!(obs, "tick", worker = worker, i = i);
                }
            });
        }
    });
    // All 4000 events arrive, each intact, each thread's in order.
    let events = sink.take();
    assert_eq!(events.len(), 4000);
    let mut next = [0u64; 4];
    for e in events {
        assert_eq!(e.name, "tick");
        let [("worker", Value::U64(w)), ("i", Value::U64(i))] = e.fields[..] else {
            panic!("mangled fields {:?}", e.fields);
        };
        assert_eq!(i, next[w as usize]);
        next[w as usize] += 1;
    }
    assert_eq!(next, [1000; 4]);
}

#[test]
fn stderr_sink_pretty_format_is_single_line() {
    let sink = StderrSink::new(Level::Info);
    assert_eq!(sink.min_level(), Level::Info);
    let event = Event {
        level: Level::Warn,
        target: "ecad_core::engine",
        name: "infeasible",
        fields: vec![
            ("reason", Value::Str("device-fit".into())),
            ("id", Value::U64(3)),
        ],
        elapsed_s: None,
    };
    let pretty = event.pretty();
    assert!(!pretty.contains('\n'));
    assert!(pretty.contains("warn"));
    assert!(pretty.contains("ecad_core::engine"));
    assert!(pretty.contains("reason=device-fit"));
    assert!(pretty.contains("id=3"));
}

#[test]
fn jsonl_append_continues_sequence_numbers() {
    let dir = std::env::temp_dir().join("ecad-rt-obs-append");
    std::fs::create_dir_all(&dir).unwrap();
    let interrupted = dir.join(format!("interrupted-{}.jsonl", std::process::id()));
    let uninterrupted = dir.join(format!("uninterrupted-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&interrupted);
    let _ = std::fs::remove_file(&uninterrupted);

    // One sink writes all six events; the other is torn down after
    // three and replaced by an append-mode sink on the same path.
    let events: Vec<(u64, &str)> = (0..6u64).map(|i| (i, "tick")).collect();

    {
        let obs = Obs::builder()
            .sink(JsonlSink::create(Level::Debug, &uninterrupted).unwrap())
            .build();
        for (i, name) in &events {
            rt::info!(obs, name, i = *i);
        }
        obs.flush();
    }
    {
        let obs = Obs::builder()
            .sink(JsonlSink::create(Level::Debug, &interrupted).unwrap())
            .build();
        for (i, name) in &events[..3] {
            rt::info!(obs, name, i = *i);
        }
        obs.flush();
    }
    {
        let obs = Obs::builder()
            .sink(JsonlSink::append(Level::Debug, &interrupted).unwrap())
            .build();
        for (i, name) in &events[3..] {
            rt::info!(obs, name, i = *i);
        }
        obs.flush();
    }

    let a = std::fs::read_to_string(&interrupted).unwrap();
    let b = std::fs::read_to_string(&uninterrupted).unwrap();
    assert_eq!(a, b, "append-mode sink must continue seq numbers exactly");
    for (line_no, line) in a.lines().enumerate() {
        let json = Json::parse(line).unwrap();
        assert_eq!(json.get("seq").and_then(Json::as_f64), Some(line_no as f64));
    }

    // Appending to a missing file starts from seq 0.
    let fresh = dir.join(format!("fresh-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&fresh);
    {
        let obs = Obs::builder()
            .sink(JsonlSink::append(Level::Debug, &fresh).unwrap())
            .build();
        rt::info!(obs, "first");
        obs.flush();
    }
    let text = std::fs::read_to_string(&fresh).unwrap();
    let json = Json::parse(text.lines().next().unwrap()).unwrap();
    assert_eq!(json.get("seq").and_then(Json::as_f64), Some(0.0));

    let _ = std::fs::remove_file(&interrupted);
    let _ = std::fs::remove_file(&uninterrupted);
    let _ = std::fs::remove_file(&fresh);
}
