//! Codec round-trip and mutation fuzz over every checkpoint and wire
//! codec (DESIGN.md §22).
//!
//! * **Round trip.** For each generated value `x`,
//!   `decode(parse(encode(x)))` equals `x`.
//! * **Mutation.** Each valid document has one node replaced by a
//!   hostile value (or one key deleted). Decoding must return `Ok` or
//!   `Err`, never panic; and an `Ok` must re-encode to exactly the
//!   mutated document — `f32` fields compared after `f32` rounding, and
//!   a deleted optional key allowed to come back at its default. So a
//!   decoder can neither wrap, saturate nor silently default its way
//!   past bad input.
//!
//! Failures replay through the printed `RT_CHECK_SEED`.

use ecad_core::checkpoint::{CheckpointError, CheckpointState, JournalLine, Outcome};
use ecad_core::cluster::{CoordinatorRequest, SetupPayload, WorkerResponse};
use ecad_core::engine::EvolutionConfig;
use ecad_core::genome::CandidateGenome;
use ecad_core::measurement::{HwMetrics, InfeasibleReason, Measurement};
use ecad_core::space::SearchSpace;
use ecad_core::workers::{HwTarget, CATALOG};
use ecad_dataset::synth::SyntheticSpec;
use ecad_dataset::Dataset;
use ecad_mlp::{OptimizerKind, TrainConfig};
use rt::json::{FromJson, Json, ToJson};
use rt::obs::{Event, Level, Value};
use rt::prof::ProfileNode;
use rt::rand::rngs::StdRng;
use rt::rand::{Rng, SeedableRng};

/// Replacement values for one node: wrong types, negative, fractional,
/// beyond `f32`, beyond `u32`, beyond 2^53 (it parses to 2^53), empty
/// and unknown strings, empty containers.
fn hostile_values() -> Vec<Json> {
    let mut values = vec![Json::Null, Json::Bool(true)];
    for text in ["-1", "0.5", "1e300", "4294967297", "9007199254740993"] {
        values.push(Json::parse(text).unwrap());
    }
    values.extend([
        Json::String(String::new()),
        Json::String("zz".to_string()),
        Json::Array(Vec::new()),
        Json::object(),
    ]);
    values
}

/// Keys a decoder may default when absent.
const OPTIONAL: &[&str] = &["gemm_threads", "profile_clock", "text"];

/// Keys holding `f32` values (or arrays of them).
const F32_FIELDS: &[&str] = &[
    "accuracy",
    "train_accuracy",
    "features",
    "lr",
    "momentum",
    "min_delta",
    "weight_decay",
];

#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every node's path, root first, in document order.
fn paths(doc: &Json, prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    out.push(prefix.clone());
    let children: Vec<(Step, &Json)> = match doc {
        Json::Array(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| (Step::Index(i), v))
            .collect(),
        Json::Object(pairs) => pairs
            .iter()
            .map(|(k, v)| (Step::Key(k.clone()), v))
            .collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        prefix.push(step);
        paths(child, prefix, out);
        prefix.pop();
    }
}

/// The node at `path`, if any.
fn path_value<'a>(doc: &'a Json, path: &[Step]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |at, step| match (at, step) {
        (Json::Object(_), Step::Key(k)) => at.get(k),
        (Json::Array(items), Step::Index(i)) => items.get(*i),
        _ => None,
    })
}

/// Replaces the node at `path` with `value`, or deletes it (an object
/// key) when `value` is `None`.
fn edit(doc: &mut Json, path: &[Step], value: Option<Json>) {
    let Some((last, parents)) = path.split_last() else {
        *doc = value.expect("the root cannot be deleted");
        return;
    };
    let mut at = doc;
    for step in parents {
        at = match (at, step) {
            (Json::Object(pairs), Step::Key(k)) => {
                &mut pairs.iter_mut().find(|(key, _)| key == k).unwrap().1
            }
            (Json::Array(items), Step::Index(i)) => &mut items[*i],
            _ => unreachable!("paths come from the document"),
        };
    }
    match (at, last, value) {
        (Json::Object(pairs), Step::Key(k), None) => pairs.retain(|(key, _)| key != k),
        (Json::Object(pairs), Step::Key(k), Some(v)) => {
            pairs.iter_mut().find(|(key, _)| key == k).unwrap().1 = v;
        }
        (Json::Array(items), Step::Index(i), Some(v)) => items[*i] = v,
        _ => unreachable!("only object keys are deleted"),
    }
}

/// `back` (a re-encoding) equals `want`, reading numbers under `f32`
/// keys after `f32` rounding.
fn same(back: &Json, want: &Json, f32_field: bool) -> bool {
    match (back, want) {
        (Json::Number(x), Json::Number(y)) => x == y || (f32_field && *x == (*y as f32) as f64),
        (Json::Array(xs), Json::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y, f32_field))
        }
        (Json::Object(xs), Json::Object(ys)) => {
            xs.len() == ys.len()
                && xs.iter().zip(ys).all(|((kx, x), (ky, y))| {
                    kx == ky && same(x, y, F32_FIELDS.contains(&kx.as_str()))
                })
        }
        _ => back == want,
    }
}

fn reparse(doc: &Json) -> Json {
    Json::parse(&doc.to_string()).expect("encoders write valid JSON")
}

/// Decodes a document and re-encodes the result; `None` when decoding
/// fails.
type Recode = dyn Fn(&Json) -> Option<Json>;

fn recode<T: FromJson + ToJson>(doc: &Json) -> Option<Json> {
    T::from_json(doc).ok().map(|x| x.to_json())
}

/// The mutation property over one valid document.
fn fuzz(doc: &Json, recode: &Recode) {
    let doc = reparse(doc);
    assert_eq!(
        recode(&doc).as_ref(),
        Some(&doc),
        "valid document must round-trip"
    );
    let mut all = Vec::new();
    paths(&doc, &mut Vec::new(), &mut all);
    for path in &all {
        let deletion = matches!(path.last(), Some(Step::Key(_))).then_some(None);
        for value in hostile_values().into_iter().map(Some).chain(deletion) {
            let label = value
                .as_ref()
                .map_or("deleted".to_string(), |v| format!("set to {v}"));
            let mut mutated = doc.clone();
            edit(&mut mutated, path, value);
            let Some(mut back) = recode(&mutated) else {
                continue;
            };
            if let (None, Some(Step::Key(key))) = (path_value(&mutated, path), path.last()) {
                if OPTIONAL.contains(&key.as_str()) {
                    edit(&mut back, path, None);
                }
            }
            assert!(
                same(&back, &mutated, false),
                "{path:?} {label} was accepted but re-encodes as {}",
                path_value(&back, path).map_or("nothing".to_string(), Json::to_string)
            );
        }
    }
}

fn genome(rng: &mut StdRng) -> CandidateGenome {
    if rng.gen_range(0..2) == 0 {
        SearchSpace::fpga_default().sample(rng)
    } else {
        SearchSpace::gpu_default().sample(rng)
    }
}

/// The `kind`-th [`InfeasibleReason`] variant (of 7).
fn reason(rng: &mut StdRng, kind: usize) -> InfeasibleReason {
    let text = ["", "io", "net: \"reset\"\n"][rng.gen_range(0..3usize)].to_string();
    match kind {
        0 => InfeasibleReason::DeviceFit,
        1 => InfeasibleReason::TrainingFailure,
        2 => InfeasibleReason::TargetMismatch,
        3 => InfeasibleReason::WorkerPanic,
        4 => InfeasibleReason::EvalTimeout,
        5 => InfeasibleReason::Transient(text),
        _ => InfeasibleReason::Other(text),
    }
}

/// A measurement with the `kind`-th [`HwMetrics`] variant (of 4; the
/// infeasible one with a random reason).
fn measurement_of(rng: &mut StdRng, kind: usize) -> Measurement {
    let mut x = || rng.gen_range(0.0..1e4);
    let (outputs_per_s, efficiency, latency_s, effective_gflops, power_w) =
        (x(), x(), x(), x(), x());
    let hw = match kind {
        0 => HwMetrics::Fpga {
            outputs_per_s,
            efficiency,
            latency_s,
            potential_gflops: rng.gen_range(0.0..1e4),
            effective_gflops,
            bandwidth_bound: rng.gen_range(0..2) == 1,
            power_w,
            fmax_mhz: rng.gen_range(0.0..500.0),
            dsp_util: rng.gen_range(0.0..1.0),
        },
        1 => HwMetrics::Gpu {
            outputs_per_s,
            efficiency,
            latency_s,
            effective_gflops,
            power_w,
        },
        2 => HwMetrics::Cpu {
            outputs_per_s,
            efficiency,
            latency_s,
            effective_gflops,
            power_w,
        },
        _ => {
            let kind = rng.gen_range(0..7usize);
            HwMetrics::Infeasible {
                reason: reason(rng, kind),
            }
        }
    };
    Measurement {
        accuracy: rng.gen_range(0.0f32..1.0),
        train_accuracy: rng.gen_range(0.0f32..1.0),
        params: rng.gen_range(0..1_000_000),
        neurons: rng.gen_range(0..2048),
        hw,
        eval_time_s: rng.gen_range(0.0..100.0),
        train_time_s: rng.gen_range(0.0..100.0),
        hw_time_s: rng.gen_range(0.0..1.0),
    }
}

fn measurement(rng: &mut StdRng) -> Measurement {
    let kind = rng.gen_range(0..4usize);
    measurement_of(rng, kind)
}

fn trainer(rng: &mut StdRng) -> TrainConfig {
    TrainConfig {
        epochs: rng.gen_range(1..100),
        batch_size: rng.gen_range(1..512),
        optimizer: OptimizerKind::Adam {
            lr: rng.gen_range(1e-5f32..1e-1),
        },
        patience: rng.gen_range(0..10),
        min_delta: rng.gen_range(0.0f32..1e-2),
        weight_decay: rng.gen_range(0.0f32..1e-2),
        gemm_threads: rng.gen_range(0..8),
    }
}

fn target(rng: &mut StdRng) -> HwTarget {
    let (name, _) = CATALOG[rng.gen_range(0..CATALOG.len())];
    HwTarget::catalog(name, rng.gen_range(1..8)).unwrap()
}

fn dataset(rng: &mut StdRng) -> Dataset {
    let rows = rng.gen_range(2..6);
    SyntheticSpec::new("d", rows, rng.gen_range(1..4), 2)
        .with_seed(rng.gen_range(0..u64::MAX))
        .generate()
}

fn setup(rng: &mut StdRng) -> SetupPayload {
    SetupPayload {
        seed: rng.gen_range(0..u64::MAX),
        train: dataset(rng),
        test: dataset(rng),
        trainer: trainer(rng),
        target: target(rng),
        profile_clock: [None, Some("ticks"), Some("wall")][rng.gen_range(0..3usize)]
            .map(str::to_string),
    }
}

fn event(rng: &mut StdRng) -> Event {
    let elapsed_us = rng.gen_range(0..1u64 << 40);
    Event {
        level: [Level::Trace, Level::Debug, Level::Info, Level::Warn][rng.gen_range(0..4usize)],
        target: "ecad_core::workers",
        name: "train",
        // Canonical variants only: JSON keeps the number, not the
        // variant, and `null` comes back as NaN (see `Event`'s decoder).
        // Field order and the duplicate `stage` key must survive.
        fields: vec![
            ("stage", Value::Str("train".to_string())),
            ("epochs", Value::U64(rng.gen_range(0..100))),
            ("delta", Value::I64(-rng.gen_range(1..100i64))),
            ("loss", Value::F64(rng.gen_range(0.0..1.0) + 0.5)),
            ("fitness", Value::F64(f64::NAN)),
            ("ok", Value::Bool(rng.gen_range(0..2) == 1)),
            ("stage", Value::Str("hw".to_string())),
        ],
        elapsed_s: [None, Some(elapsed_us as f64 / 1e6)][rng.gen_range(0..2usize)],
    }
}

/// A journal with every line kind: transient and final verdicts, each
/// with a measurement and with a deadline.
fn checkpoint(rng: &mut StdRng) -> CheckpointState {
    let config = EvolutionConfig {
        seed: rng.gen_range(0..u64::MAX),
        evaluations: rng.gen_range(1..1000),
        population: rng.gen_range(1..64),
        ..EvolutionConfig::small()
    };
    let mut s = CheckpointState::new(&config, rng.gen_range(1..100));
    let mut attempts = 0;
    for (last, deadline) in [(false, false), (false, true), (true, false), (true, true)] {
        attempts += rng.gen_range(0..3usize);
        let outcome = if deadline {
            Outcome::Deadline {
                after_s: rng.gen_range(0.0..10.0),
                respawned: rng.gen_range(0..2) == 1,
            }
        } else {
            Outcome::Measured(measurement(rng))
        };
        s.push(JournalLine {
            attempts,
            wall_s: rng.gen_range(0.0..1e4),
            index: rng.gen_range(0..1000),
            genome: genome(rng),
            outcome,
            last,
        });
    }
    s
}

fn requests(rng: &mut StdRng) -> Vec<CoordinatorRequest> {
    vec![
        CoordinatorRequest::Setup(Box::new(setup(rng)), rng.gen_range(0..u64::MAX)),
        CoordinatorRequest::Evaluate {
            id: rng.gen_range(0..1u64 << 53),
            stamp: rng.gen_range(0..u64::MAX),
            genome: genome(rng),
        },
        CoordinatorRequest::KillAll,
    ]
}

fn responses(rng: &mut StdRng) -> Vec<WorkerResponse> {
    let profile = ProfileNode {
        name: "worker".to_string(),
        total_ns: 3000,
        self_ns: 1000,
        calls: 2,
        children: Vec::new(),
    };
    vec![
        WorkerResponse::Ready {
            stamp: rng.gen_range(0..u64::MAX),
        },
        WorkerResponse::Evaluated {
            id: rng.gen_range(0..1u64 << 53),
            stamp: rng.gen_range(0..u64::MAX),
            measurement: measurement(rng),
            panicked: rng.gen_range(0..2) == 1,
            events: vec![event(rng), event(rng)],
        },
        WorkerResponse::Profile(profile),
        WorkerResponse::Bye,
    ]
}

fn decode<T: FromJson>(doc: &Json) -> T {
    T::from_json(&reparse(doc)).expect("a valid document decodes")
}

rt::prop! {
    #![cases(24)]

    fn genomes_round_trip(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        for space in [SearchSpace::fpga_default(), SearchSpace::gpu_default()] {
            let g = space.sample(rng);
            rt::prop_assert_eq!(decode::<CandidateGenome>(&g.to_json()), g.clone());
            fuzz(&g.to_json(), &recode::<CandidateGenome>);
        }
    }

    /// Every hardware-metrics variant, and every infeasible reason.
    fn measurements_round_trip(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut all: Vec<Measurement> = (0..4).map(|kind| measurement_of(rng, kind)).collect();
        for kind in 0..7 {
            all.push(Measurement::infeasible(reason(rng, kind)));
        }
        for m in all {
            rt::prop_assert_eq!(decode::<Measurement>(&m.to_json()), m.clone());
            fuzz(&m.to_json(), &recode::<Measurement>);
        }
    }

    /// `TrainConfig` with each optimizer.
    fn trainers_round_trip(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        // One with SGD, one with Adam.
        let mut sgd = trainer(rng);
        sgd.optimizer = OptimizerKind::Sgd {
            lr: rng.gen_range(1e-4f32..1.0),
            momentum: rng.gen_range(0.0f32..1.0),
        };
        for t in [trainer(rng), sgd] {
            rt::prop_assert_eq!(decode::<TrainConfig>(&t.to_json()), t);
            fuzz(&t.to_json(), &recode::<TrainConfig>);
        }
    }

    fn targets_and_datasets_round_trip(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        for (name, _) in CATALOG {
            let t = HwTarget::catalog(name, rng.gen_range(1..8)).unwrap();
            let wire = t.to_json().expect("catalog devices encode");
            let back = decode::<HwTarget>(&wire);
            rt::prop_assert_eq!(format!("{back:?}"), format!("{t:?}"));
            fuzz(&wire, &|doc| HwTarget::from_json(doc).ok().and_then(|t| t.to_json().ok()));
        }
        let d = dataset(rng);
        let back = decode::<Dataset>(&d.to_json());
        let bits = |d: &Dataset| d.features().as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        rt::prop_assert_eq!(bits(&back), bits(&d));
        rt::prop_assert_eq!(back, d.clone());
        fuzz(&d.to_json(), &recode::<Dataset>);
    }

    /// The journal's text round-trips. Each of its lines — the header
    /// and every line kind — is mutation-fuzzed in place: the file as a
    /// whole decodes to the mutated line, or is refused with an error
    /// at that line.
    fn checkpoints_round_trip(seed in 0u64..u64::MAX) {
        let s = checkpoint(&mut StdRng::seed_from_u64(seed));
        let text = s.to_text();
        rt::prop_assert_eq!(CheckpointState::parse(&text).expect("valid checkpoint"), s.clone());
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        for (i, line) in lines.iter().enumerate() {
            let lines = lines.clone();
            fuzz(&Json::parse(line).unwrap(), &move |doc| {
                let mut edited = lines.clone();
                edited[i] = doc.to_string();
                match CheckpointState::parse(&(edited.join("\n") + "\n")) {
                    Ok(back) => back.to_text().lines().nth(i).map(|l| Json::parse(l).unwrap()),
                    Err(CheckpointError::Schema(line, _)) if line == i + 1 => None,
                    Err(e) => panic!("line {} mutated, but the error is {e}", i + 1),
                }
            });
        }
    }

    /// An event's one JSON form: the trace line (`seq` first, timing
    /// optional) and the wire form (no `seq`, always timed) decode with
    /// the one decoder; the wire form is mutation-fuzzed.
    fn events_round_trip(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let e = event(rng);
        for (seq, timing) in [(None, true), (Some(rng.gen_range(0..1u64 << 53)), false), (Some(7), true)] {
            let line = e.to_json(seq, timing);
            let back = decode::<Event>(&line);
            let want = Event { elapsed_s: e.elapsed_s.filter(|_| timing), ..e.clone() };
            rt::prop_assert_eq!(format!("{back:?}"), format!("{want:?}"));
            rt::prop_assert_eq!(back.to_json(seq, timing).to_string(), line.to_string());
        }
        fuzz(&e.to_json(None, true), &|doc| Event::from_json(doc).ok().map(|e| e.to_json(None, true)));
    }

    fn frames_round_trip(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        for request in requests(rng) {
            let wire = request.to_json().expect("catalog target");
            let back = CoordinatorRequest::from_json(&reparse(&wire)).expect("valid request");
            rt::prop_assert_eq!(format!("{back:?}"), format!("{request:?}"));
            fuzz(&wire, &|doc| {
                CoordinatorRequest::from_json(doc).ok().map(|r| r.to_json().expect("decoded target"))
            });
        }
        for response in responses(rng) {
            let wire = response.to_json();
            let back = WorkerResponse::from_json(&reparse(&wire)).expect("valid response");
            rt::prop_assert_eq!(format!("{back:?}"), format!("{response:?}"));
            fuzz(&wire, &|doc| WorkerResponse::from_json(doc).ok().map(|r| r.to_json()));
        }
    }
}
