//! Distributed coordinator/worker evaluation over TCP.
//!
//! The paper's master/worker split (§III-A) crosses machine boundaries
//! here: `ecad cluster worker --listen ADDR` turns a host into a
//! genome-evaluation server, and a coordinator search routes its
//! [`crate::protocol::DispatchLedger`] dispatches to those workers as
//! *remote supervised slots* — the fault-tolerance substrate from the
//! local engine (deadlines, retries, stale fencing, respawn) applies
//! unchanged, because a remote worker is just a slot whose evaluation
//! happens to traverse a socket.
//!
//! ## Wire protocol
//!
//! Messages are length-prefixed [`rt::json`] frames ([`rt::net`]) with
//! a versioned hello handshake. One connection is one *session*:
//!
//! ```text
//! coordinator                         worker
//!   ── hello {version,role,max_frame} ─▶
//!   ◀─ hello {version,role,max_frame} ──
//!   ── Setup {datasets, trainer, …} ───▶
//!   ◀───────────────── Ready {stamp} ──
//!   ── Evaluate {id, stamp, genome} ───▶
//!   ◀── Evaluated {id, stamp, m, ev} ──     (repeated)
//!   ◀──────────── Profile {tree} ──────     (profiled sessions only)
//!   ── KillAll ────────────────────────▶
//!   ◀──────────────────────────── Bye ──
//! ```
//!
//! [`SetupPayload`] ships everything an evaluation needs — the
//! standardized train/test split, trainer hyperparameters, the catalog
//! device, the search space, and the objective set — so the worker
//! process needs no filesystem or configuration of its own. The
//! `stamp` is a per-session generation nonce: every `Evaluated` echoes
//! it, and the coordinator drops responses whose stamp (or job id)
//! does not match the current session — stale-result fencing one layer
//! below the ledger's own id fencing.
//!
//! Each fact crosses the wire once. The coordinator tallies a worker's
//! jobs, train and hardware-model seconds, panics and migrants from the
//! `Evaluated` replies it accepts; a `Profile` frame carries only the
//! worker's profile subtree, and only when the setup names a profile
//! clock: after every fourth job and before `Bye`.
//!
//! ## Determinism
//!
//! The worker runs each evaluation under an [`Obs`] whose only sink is
//! a [`CaptureSink`]; the captured events (training/hardware-model
//! spans, infeasibility warnings) ride back in the `Evaluated`
//! response and are replayed verbatim on the coordinator inside its
//! own `evaluate` span. A seeded single-worker cluster run therefore
//! produces a Debug-level JSONL trace byte-identical to the local
//! engine's, with or without an attached profiler (islands off).
//!
//! ## Islands
//!
//! With `island_every = N > 0`, each worker hosts an island: an elite
//! pool fed by the jobs it evaluates plus its own seeded local
//! evolution. Every N jobs it breeds and evaluates `island_k` children
//! and migrates the feasible ones to the coordinator, which folds them
//! into the population (never spending coordinator budget) and emits
//! `migration` trace events.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecad_dataset::Dataset;
use ecad_mlp::TrainConfig;
use rt::json::{Cursor, DecodeError, FromJson, Json};
use rt::net::{Conn, Listener, NetError};
use rt::obs::{CaptureSink, Event, Level, Obs};
use rt::rand::rngs::StdRng;
use rt::rand::{Rng, SeedableRng};
use rt::sync::channel::Sender;

use crate::engine::WorkerLatency;
use crate::fitness::ObjectiveSet;
use crate::genome::{pair_from_json, pair_to_json, CandidateGenome};
use crate::measurement::{InfeasibleReason, Measurement};
use crate::space::SearchSpace;
use crate::workers::{evaluate_caught, CodesignEvaluator, HwTarget};

/// Role string the coordinator announces in its hello.
pub const COORDINATOR_ROLE: &str = "coordinator";
/// Role string a worker announces in its hello.
pub const WORKER_ROLE: &str = "worker";

/// Coordinator-side knobs for a cluster search.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Worker addresses (`host:port`), one remote slot each.
    pub workers: Vec<String>,
    /// Per-job network deadline: connect timeout, socket read/write
    /// deadline, and the longest the coordinator waits for an
    /// `Evaluated` response before classifying the exchange transient.
    pub net_timeout: Duration,
    /// Consecutive failed (re)connect attempts before a worker is
    /// declared lost and its slot retires.
    pub connect_retries: usize,
    /// Base reconnect backoff; doubles per attempt with seeded jitter.
    pub reconnect_backoff: Duration,
    /// Migrate worker-island elites every N jobs (`0` disables islands
    /// and preserves byte-identical traces).
    pub island_every: usize,
    /// Children each island breeds and evaluates per migration.
    pub island_k: usize,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            workers: Vec::new(),
            net_timeout: Duration::from_secs(30),
            connect_retries: 3,
            reconnect_backoff: Duration::from_millis(50),
            island_every: 0,
            island_k: 2,
        }
    }
}

/// Everything the engine needs to run its slots remotely: the options
/// plus the prebuilt setup payload each session opens with.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    /// Coordinator-side knobs.
    pub options: ClusterOptions,
    /// The session-opening payload (datasets, trainer, device, space,
    /// objectives, seed, island config).
    pub setup: SetupPayload,
}

impl ClusterPlan {
    /// Coordinator-observed latency per worker, read from the labeled
    /// histograms its remote slots record into.
    pub(crate) fn worker_latency(&self, obs: &Obs) -> Vec<WorkerLatency> {
        self.options
            .workers
            .iter()
            .map(|addr| {
                let h = obs.histogram_with("cluster.worker_eval_s", &[("worker", addr.as_str())]);
                WorkerLatency {
                    addr: addr.clone(),
                    jobs: h.count(),
                    p50_s: h.quantile(0.5),
                    p95_s: h.quantile(0.95),
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Cluster health
// ---------------------------------------------------------------------------

/// Lifecycle state of one remote worker slot, as the coordinator sees
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Slot spawned, first connection not yet established.
    Connecting,
    /// Session live; jobs flow.
    Connected,
    /// Connection dropped; the slot is retrying with backoff.
    Reconnecting,
    /// Retries exhausted; the slot retired.
    Lost,
}

impl WorkerState {
    /// The lowercase label `/workers` serves.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkerState::Connecting => "connecting",
            WorkerState::Connected => "connected",
            WorkerState::Reconnecting => "reconnecting",
            WorkerState::Lost => "lost",
        }
    }
}

/// A point-in-time view of one worker's lifecycle, as served by
/// `/workers` (which reads the worker's tallies from the labeled
/// `cluster.worker_*` gauges).
#[derive(Debug, Clone)]
pub struct WorkerHealthSnapshot {
    /// Worker address (`host:port`).
    pub addr: String,
    /// Lifecycle state.
    pub state: WorkerState,
    /// Seconds since the last frame arrived from this worker (`None`
    /// before the first).
    pub last_seen_s: Option<f64>,
}

/// One worker's live view: its snapshot fields, plus the instant its
/// last frame arrived (the snapshot reports that as an age).
#[derive(Debug)]
struct WorkerHealthCell {
    view: WorkerHealthSnapshot,
    last_seen: Option<Instant>,
}

/// Shared per-worker health registry: the engine's remote slots write
/// state transitions and frame arrivals; the `/workers` endpoint reads
/// snapshots. Read-only on the serving side, so `--serve`
/// keeps the byte-identity trace contract.
#[derive(Debug)]
pub struct ClusterHealth {
    cells: std::sync::Mutex<Vec<WorkerHealthCell>>,
    degraded: AtomicBool,
}

impl ClusterHealth {
    /// A registry with one `Connecting` cell per worker address.
    pub fn new(addrs: &[String]) -> Self {
        Self {
            cells: std::sync::Mutex::new(
                addrs
                    .iter()
                    .map(|addr| WorkerHealthCell {
                        view: WorkerHealthSnapshot {
                            addr: addr.clone(),
                            state: WorkerState::Connecting,
                            last_seen_s: None,
                        },
                        last_seen: None,
                    })
                    .collect(),
            ),
            degraded: AtomicBool::new(false),
        }
    }

    fn cells(&self) -> std::sync::MutexGuard<'_, Vec<WorkerHealthCell>> {
        self.cells.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn with_cell(&self, slot: usize, f: impl FnOnce(&mut WorkerHealthCell)) {
        if let Some(cell) = self.cells().get_mut(slot) {
            f(cell);
        }
    }

    /// Records a state transition for `slot`.
    pub fn set_state(&self, slot: usize, state: WorkerState) {
        self.with_cell(slot, |c| c.view.state = state);
    }

    /// Marks a frame received from `slot` now.
    pub fn mark_seen(&self, slot: usize) {
        self.with_cell(slot, |c| c.last_seen = Some(Instant::now()));
    }

    /// Flags that every remote is gone and the engine fell back to
    /// local evaluation slots.
    pub fn set_degraded(&self) {
        self.degraded.store(true, Ordering::Release);
    }

    /// Whether the cluster degraded to local slots.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Snapshots every worker cell.
    pub fn snapshot(&self) -> Vec<WorkerHealthSnapshot> {
        self.cells()
            .iter()
            .map(|c| WorkerHealthSnapshot {
                last_seen_s: c.last_seen.map(|t| t.elapsed().as_secs_f64()),
                ..c.view.clone()
            })
            .collect()
    }
}

/// A migrant an island shipped to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct Migrant {
    /// Remote slot index that produced the migrant.
    pub slot: usize,
    /// The migrant's genes.
    pub genome: CandidateGenome,
    /// Its worker-side measurement.
    pub measurement: Measurement,
}

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

/// The session-opening payload: everything a worker needs to evaluate
/// genomes for this search, shipped so the worker process carries no
/// configuration of its own.
#[derive(Debug, Clone)]
pub struct SetupPayload {
    /// Search seed; candidate training seeds derive from it exactly as
    /// in the local engine, so remote measurements match local ones.
    pub seed: u64,
    /// Standardized training split.
    pub train: Dataset,
    /// Standardized test split.
    pub test: Dataset,
    /// Per-candidate training hyperparameters.
    pub trainer: TrainConfig,
    /// The catalog hardware target.
    pub target: HwTarget,
    /// The search space (used by worker islands to breed).
    pub space: SearchSpace,
    /// The objective set (used by worker islands to rank elites).
    pub objectives: ObjectiveSet,
    /// Island cadence (`0` = islands off).
    pub island_every: usize,
    /// Island brood size per migration.
    pub island_k: usize,
    /// When set (`"wall"` / `"ticks"`), the worker profiles each
    /// evaluation under a session-local `rt::prof` profiler with this
    /// clock and ships its subtree in `Profile` frames. The ticks clock
    /// makes the subtree deterministic for a fixed job stream.
    pub profile_clock: Option<String>,
}

impl SetupPayload {
    fn to_json(&self, stamp: u64) -> Result<Json, NetError> {
        let j = Json::object()
            .insert("seed", format!("{:016x}", self.seed))
            .insert("stamp", format!("{stamp:016x}"))
            .insert("train", &self.train)
            .insert("test", &self.test)
            .insert("trainer", self.trainer)
            .insert("target", self.target.to_json().map_err(NetError::Protocol)?)
            .insert("space", &self.space)
            .insert("objectives", &self.objectives)
            .insert("island_every", self.island_every)
            .insert("island_k", self.island_k);
        Ok(match &self.profile_clock {
            Some(clock) => j.insert("profile_clock", clock.as_str()),
            None => j,
        })
    }

    /// The payload and the session stamp of a `setup` frame.
    fn decode(j: Cursor<'_>) -> Result<(Self, u64), DecodeError> {
        let payload = Self {
            seed: j.hex("seed")?,
            train: j.get("train")?,
            test: j.get("test")?,
            trainer: j.get("trainer")?,
            target: j.get("target")?,
            space: j.get("space")?,
            objectives: j.get("objectives")?,
            island_every: j.get("island_every")?,
            island_k: j.get("island_k")?,
            // Absent when the coordinator does not profile.
            profile_clock: j.opt("profile_clock")?,
        };
        Ok((payload, j.hex("stamp")?))
    }
}

/// Every message a coordinator sends on an established session.
#[derive(Debug, Clone)]
pub enum CoordinatorRequest {
    /// Opens the session: evaluation context plus the session stamp.
    Setup(Box<SetupPayload>, u64),
    /// Evaluate one genome. `id` is the ledger dispatch id; `stamp`
    /// must echo the session stamp.
    Evaluate {
        /// Ledger dispatch id.
        id: u64,
        /// Session generation stamp.
        stamp: u64,
        /// The candidate to score.
        genome: CandidateGenome,
    },
    /// Stop serving entirely: the worker replies `Bye` and its process
    /// exits the listen loop.
    KillAll,
}

impl CoordinatorRequest {
    /// Serializes for the wire.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when a setup payload holds a non-catalog
    /// device.
    pub fn to_json(&self) -> Result<Json, NetError> {
        Ok(match self {
            CoordinatorRequest::Setup(payload, stamp) => payload
                .to_json(*stamp)?
                .insert("req", "setup"),
            CoordinatorRequest::Evaluate { id, stamp, genome } => Json::object()
                .insert("req", "evaluate")
                .insert("id", *id)
                .insert("stamp", format!("{stamp:016x}"))
                .insert("genome", genome),
            CoordinatorRequest::KillAll => Json::object().insert("req", "kill_all"),
        })
    }
}

impl FromJson for CoordinatorRequest {
    fn decode(j: Cursor<'_>) -> Result<Self, DecodeError> {
        let req = j.field("req")?;
        Ok(match req.str()? {
            "setup" => {
                let (payload, stamp) = SetupPayload::decode(j)?;
                CoordinatorRequest::Setup(Box::new(payload), stamp)
            }
            "evaluate" => CoordinatorRequest::Evaluate {
                id: j.get("id")?,
                stamp: j.hex("stamp")?,
                genome: j.get("genome")?,
            },
            "kill_all" => CoordinatorRequest::KillAll,
            other => return Err(req.error(format!("unknown request {other:?}"))),
        })
    }
}

/// Every message a worker sends back.
#[derive(Debug, Clone)]
pub enum WorkerResponse {
    /// Setup accepted; echoes the session stamp.
    Ready {
        /// The session stamp being acknowledged.
        stamp: u64,
    },
    /// One evaluation finished.
    Evaluated {
        /// The dispatch id being answered.
        id: u64,
        /// The session stamp the job carried.
        stamp: u64,
        /// The measurement (worker panics arrive as worker-panic
        /// infeasible measurements, never as dropped connections).
        measurement: Measurement,
        /// Whether the evaluation panicked worker-side (the
        /// coordinator re-emits the local engine's panic warning).
        panicked: bool,
        /// Evaluation-time events captured worker-side, for replay.
        events: Vec<Event>,
        /// Island elites migrating to the coordinator (empty unless
        /// islands are on and this job crossed a migration boundary).
        migrants: Vec<(CandidateGenome, Measurement)>,
    },
    /// The session's cumulative `rt::prof` subtree, sent only when the
    /// setup named a profile clock: after every fourth `Evaluated` and
    /// once more immediately before `Bye`. Each frame supersedes the
    /// last, so the coordinator keeps only the latest per worker.
    Profile(rt::prof::ProfileNode),
    /// Acknowledges `KillAll`; the worker is exiting.
    Bye,
}

impl WorkerResponse {
    /// Serializes for the wire.
    pub fn to_json(&self) -> Json {
        match self {
            WorkerResponse::Ready { stamp } => Json::object()
                .insert("resp", "ready")
                .insert("stamp", format!("{stamp:016x}")),
            WorkerResponse::Evaluated {
                id,
                stamp,
                measurement,
                panicked,
                events,
                migrants,
            } => Json::object()
                .insert("resp", "evaluated")
                .insert("id", *id)
                .insert("stamp", format!("{stamp:016x}"))
                .insert("measurement", measurement)
                .insert("panicked", *panicked)
                .insert(
                    "events",
                    Json::Array(events.iter().map(|e| e.to_json(None, true)).collect()),
                )
                .insert(
                    "migrants",
                    Json::Array(migrants.iter().map(pair_to_json).collect()),
                ),
            WorkerResponse::Profile(tree) => Json::object()
                .insert("resp", "profile")
                .insert("profile", tree.to_json()),
            WorkerResponse::Bye => Json::object().insert("resp", "bye"),
        }
    }
}

impl FromJson for WorkerResponse {
    fn decode(j: Cursor<'_>) -> Result<Self, DecodeError> {
        let resp = j.field("resp")?;
        Ok(match resp.str()? {
            "ready" => WorkerResponse::Ready {
                stamp: j.hex("stamp")?,
            },
            "evaluated" => WorkerResponse::Evaluated {
                id: j.get("id")?,
                stamp: j.hex("stamp")?,
                measurement: j.get("measurement")?,
                panicked: j.get("panicked")?,
                events: j.get("events")?,
                migrants: j.field("migrants")?.list(pair_from_json)?,
            },
            "profile" => WorkerResponse::Profile(j.get("profile")?),
            "bye" => WorkerResponse::Bye,
            other => return Err(resp.error(format!("unknown response {other:?}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// An established coordinator-side session with one remote worker.
struct RemoteSession {
    conn: Conn,
    stamp: u64,
}

/// Out-of-band telemetry context for one remote slot: labeled metric
/// handles, the shared health registry, and the coordinator profiler
/// that worker subtrees graft into. Everything recorded here lands in
/// read-only side channels (metrics registry, health cells, profile
/// grafts) — never the trace, the RNG streams, or the ledger — so the
/// byte-identity contracts are untouched.
struct SlotTelemetry {
    addr: String,
    index: usize,
    health: Option<Arc<ClusterHealth>>,
    profiler: Option<rt::prof::Profiler>,
    /// [`tally_gauges`], in [`WORKER_TALLIES`] order.
    tallies: [rt::obs::Gauge; 5],
    latency: rt::obs::HistogramHandle,
}

/// What the coordinator tallies per worker from the `Evaluated` replies
/// it accepts.
pub(crate) const WORKER_TALLIES: [&str; 5] = ["jobs", "train_s", "hw_s", "panics", "migrants"];

/// The labeled gauges `cluster.worker_<tally>{worker="<addr>"}` — the
/// one store of a worker's [`WORKER_TALLIES`], which the coordinator's
/// slots add to and `/workers` reads. They add up across sessions.
pub(crate) fn tally_gauges(obs: &Obs, addr: &str) -> [rt::obs::Gauge; 5] {
    WORKER_TALLIES
        .map(|tally| obs.gauge_with(&format!("cluster.worker_{tally}"), &[("worker", addr)]))
}

impl SlotTelemetry {
    fn new(addr: String, index: usize, health: Option<Arc<ClusterHealth>>, obs: &Obs) -> Self {
        Self {
            tallies: tally_gauges(obs, &addr),
            latency: obs.histogram_with("cluster.worker_eval_s", &[("worker", addr.as_str())]),
            profiler: obs.profiler(),
            addr,
            index,
            health,
        }
    }

    fn set_state(&self, state: WorkerState) {
        if let Some(h) = &self.health {
            h.set_state(self.index, state);
        }
    }

    fn mark_seen(&self) {
        if let Some(h) = &self.health {
            h.mark_seen(self.index);
        }
    }

    /// Adds one accepted `Evaluated` reply to the worker's tallies. The
    /// adds are atomic: an abandoned slot thread and its replacement
    /// can both report for one worker.
    fn tally(&self, m: &Measurement, panicked: bool, migrants: usize) {
        let panics = f64::from(u8::from(panicked));
        let values = [1.0, m.train_time_s, m.hw_time_s, panics, migrants as f64];
        for (gauge, value) in self.tallies.iter().zip(values) {
            gauge.add(value);
        }
    }

    /// Grafts a worker's profile subtree under `worker:<addr>` in the
    /// master tree (replace-by-name) when the coordinator profiles.
    fn graft(&self, tree: rt::prof::ProfileNode) {
        self.mark_seen();
        if let Some(profiler) = &self.profiler {
            profiler.attach_subtree(&format!("worker:{}", self.addr), tree);
        }
    }
}

/// How a remote exchange failed, after classification.
enum RemoteFailure {
    /// Environment trouble (disconnect, deadline, stale response): the
    /// job retries through the ledger, the slot reconnects.
    Transient(String),
    /// Protocol/version trouble: the worker is unusable; its slot
    /// retires after reporting the current job transient.
    Permanent(String),
}

impl From<NetError> for RemoteFailure {
    fn from(e: NetError) -> Self {
        if e.is_transient() {
            RemoteFailure::Transient(e.to_string())
        } else {
            RemoteFailure::Permanent(e.to_string())
        }
    }
}

/// Connects, handshakes, and opens a session with a `setup` frame.
fn connect_session(
    addr: &str,
    plan: &ClusterPlan,
    stamp: u64,
) -> Result<RemoteSession, NetError> {
    let opts = &plan.options;
    // The ceiling bounds the worker's replies. The worker announces its
    // own in its hello, and a setup frame above it fails `send`
    // permanently, before a byte is written, instead of being dropped
    // by the worker and resent on every reconnect.
    let mut conn = Conn::connect(addr, opts.net_timeout, rt::net::DEFAULT_MAX_FRAME)?;
    conn.set_io_timeout(Some(opts.net_timeout))?;
    conn.handshake_client(COORDINATOR_ROLE, Some(WORKER_ROLE))?;
    conn.send(&CoordinatorRequest::Setup(Box::new(plan.setup.clone()), stamp).to_json()?)?;
    match WorkerResponse::from_json(&conn.recv()?)? {
        WorkerResponse::Ready { stamp: s } if s == stamp => Ok(RemoteSession { conn, stamp }),
        other => Err(NetError::Protocol(format!(
            "expected ready({stamp:016x}), got {other:?}"
        ))),
    }
}

/// The coordinator's end of one remote evaluation slot: a session with
/// one worker, (re)connected on demand with seeded backoff, and the
/// evaluate step the engine's slot loop runs. The evaluation crosses a
/// framed TCP session, the worker's captured evaluation events are
/// replayed on the coordinator, and network failures come back as
/// transient verdicts for the ledger's retry machinery.
pub(crate) struct RemoteSlot<'a> {
    plan: &'a ClusterPlan,
    obs: &'a Obs,
    migrants: &'a Sender<Migrant>,
    telemetry: SlotTelemetry,
    session: Option<RemoteSession>,
    connects: u64,
    jitter: StdRng,
}

impl<'a> RemoteSlot<'a> {
    /// A disconnected slot for worker `index` of `plan`.
    pub(crate) fn new(
        plan: &'a ClusterPlan,
        index: usize,
        seed: u64,
        health: Option<Arc<ClusterHealth>>,
        migrants: &'a Sender<Migrant>,
        obs: &'a Obs,
    ) -> Self {
        let addr = plan.options.workers[index].clone();
        Self {
            // Seeded jitter so a cluster's reconnect storms de-correlate
            // deterministically, per worker (same scheme as the engine's
            // retry backoff).
            jitter: StdRng::seed_from_u64(seed ^ addr_salt(&addr) ^ 0xBAC_0FF),
            telemetry: SlotTelemetry::new(addr, index, health, obs),
            plan,
            obs,
            migrants,
            session: None,
            connects: 0,
        }
    }

    /// (Re)connects with seeded backoff, bounded by the reconnect
    /// budget.
    fn connect(&mut self, slot: usize) -> Result<(), RemoteFailure> {
        let opts = &self.plan.options;
        let addr = self.telemetry.addr.as_str();
        let mut attempt = 0usize;
        while self.session.is_none() {
            let stamp = ((slot as u64) << 32) | self.connects;
            match connect_session(addr, self.plan, stamp) {
                Ok(s) => {
                    self.connects += 1;
                    rt::trace!(
                        self.obs,
                        "worker_connected",
                        addr = addr,
                        slot = slot,
                        stamp = format!("{stamp:016x}"),
                    );
                    self.telemetry.set_state(WorkerState::Connected);
                    self.telemetry.mark_seen();
                    self.session = Some(s);
                }
                Err(e) => {
                    attempt += 1;
                    rt::warn!(
                        self.obs,
                        "worker_connect_failed",
                        addr = addr,
                        attempt = attempt,
                        error = e.to_string(),
                    );
                    self.telemetry.set_state(WorkerState::Reconnecting);
                    if !e.is_transient() || attempt >= opts.connect_retries.max(1) {
                        return Err(RemoteFailure::Permanent(e.to_string()));
                    }
                    let base = opts.reconnect_backoff.as_millis() as u64;
                    let ceiling = (base << attempt.min(6)).max(1);
                    std::thread::sleep(Duration::from_millis(
                        self.jitter.gen_range(base..=base + ceiling),
                    ));
                }
            }
        }
        Ok(())
    }

    /// One evaluate/evaluated exchange, (re)connecting first if needed;
    /// returns the verdict and whether it panicked worker-side.
    /// Responses whose id or stamp does not match the outstanding job
    /// are *stale* — fenced here (below the ledger's own id fencing) and
    /// classified transient so the connection resyncs.
    fn exchange(
        &mut self,
        slot: usize,
        id: usize,
        genome: &CandidateGenome,
    ) -> Result<(Measurement, bool), RemoteFailure> {
        self.connect(slot)?;
        let session = self.session.as_mut().expect("connected");
        let request = CoordinatorRequest::Evaluate {
            id: id as u64,
            stamp: session.stamp,
            genome: genome.clone(),
        };
        session.conn.send(&request.to_json()?)?;
        // A profiled worker's `Profile` frames ride the session; graft
        // any that precede the answer (out-of-band, so this never
        // changes what the ledger sees).
        let response = loop {
            match WorkerResponse::from_json(&session.conn.recv()?).map_err(NetError::from)? {
                WorkerResponse::Profile(tree) => self.telemetry.graft(tree),
                other => break other,
            }
        };
        match response {
            WorkerResponse::Evaluated {
                id: rid,
                stamp,
                measurement,
                panicked,
                events,
                migrants,
            } => {
                if rid != id as u64 || stamp != session.stamp {
                    rt::warn!(
                        self.obs,
                        "stale_remote_result",
                        id = rid as usize,
                        expected = id,
                        stamp = format!("{stamp:016x}"),
                    );
                    return Err(RemoteFailure::Transient(format!(
                        "stale response for job {rid} (wanted {id})"
                    )));
                }
                self.telemetry.mark_seen();
                self.telemetry.tally(&measurement, panicked, migrants.len());
                // Replay the worker's captured evaluation events inside
                // the slot's span, so the coordinator's JSONL is
                // byte-identical to a local run's.
                for event in events {
                    self.obs.emit_event(event);
                }
                for (genome, measurement) in migrants {
                    let _ = self.migrants.send(Migrant {
                        slot,
                        genome,
                        measurement,
                    });
                }
                Ok((measurement, panicked))
            }
            other => Err(RemoteFailure::Transient(format!(
                "expected evaluated, got {other:?}"
            ))),
        }
    }

    /// Evaluates job `id` on the worker from supervisor slot `slot`.
    /// Returns the verdict, whether it panicked worker-side, and whether
    /// the worker is gone for good: its reconnect budget ran out, or it
    /// spoke a protocol this coordinator cannot.
    pub(crate) fn evaluate(
        &mut self,
        slot: usize,
        id: usize,
        genome: &CandidateGenome,
    ) -> (Measurement, bool, bool) {
        let started = Instant::now();
        let outcome = self.exchange(slot, id, genome);
        let addr = self.telemetry.addr.as_str();
        let (reason, lost) = match outcome {
            Ok((m, panicked)) => {
                self.telemetry.latency.record(started.elapsed().as_secs_f64());
                return (m, panicked, false);
            }
            Err(RemoteFailure::Transient(reason)) => {
                rt::trace!(
                    self.obs,
                    "worker_disconnected",
                    addr = addr,
                    error = reason.as_str(),
                );
                self.telemetry.set_state(WorkerState::Reconnecting);
                (format!("net: {reason}"), false)
            }
            Err(RemoteFailure::Permanent(reason)) => {
                rt::warn!(self.obs, "worker_lost", addr = addr, error = reason.as_str());
                self.telemetry.set_state(WorkerState::Lost);
                (format!("worker lost: {reason}"), true)
            }
        };
        self.session = None;
        let mut m = Measurement::infeasible(InfeasibleReason::Transient(reason));
        m.eval_time_s = started.elapsed().as_secs_f64();
        (m, false, lost)
    }

    /// Best-effort `kill_all` on the open session, if any: the worker's
    /// listen loop exits once the coordinator is done with it. A
    /// profiled worker sends a final `Profile` frame (its complete
    /// subtree) before `Bye`; graft it so short runs still graft every
    /// worker's tree into the master profile.
    pub(crate) fn close(&mut self) {
        let Some(mut session) = self.session.take() else {
            return;
        };
        let Ok(request) = CoordinatorRequest::KillAll.to_json() else {
            return;
        };
        if session.conn.send(&request).is_err() {
            return;
        }
        // Bounded drain: Bye, or a dead peer — either way done.
        for _ in 0..8 {
            let Ok(frame) = session.conn.recv() else { break };
            match WorkerResponse::from_json(&frame) {
                Ok(WorkerResponse::Profile(tree)) => self.telemetry.graft(tree),
                Ok(WorkerResponse::Bye) | Err(_) => break,
                Ok(_) => {} // stale frame; keep draining
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker server
// ---------------------------------------------------------------------------

/// Worker-side knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Ceiling on received frames, announced in the worker's hello. A
    /// coordinator whose setup frame is above it does not send it and
    /// counts the worker lost.
    pub max_frame: usize,
    /// Socket write deadline and connect-phase read deadline.
    pub io_timeout: Duration,
    /// How long an established session may sit idle between requests
    /// before the worker drops it back to accepting (a coordinator
    /// reconnects transparently on its next job).
    pub idle_timeout: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            max_frame: rt::net::DEFAULT_MAX_FRAME,
            io_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(600),
        }
    }
}

/// How a worker session ended.
enum SessionEnd {
    /// The peer closed the connection before its hello, as a readiness
    /// probe does; go back to accepting.
    ClosedBeforeHello,
    /// Connection dropped or errored; go back to accepting.
    Disconnected,
    /// The coordinator sent `kill_all`; stop serving entirely.
    Killed,
}

/// Worker-island state: an elite pool plus seeded local evolution.
struct Island {
    space: SearchSpace,
    objectives: ObjectiveSet,
    rng: StdRng,
    /// `(genome, measurement, fitness)` sorted best-first; keys
    /// deduplicated.
    elites: Vec<(CandidateGenome, Measurement, f64)>,
    every: usize,
    k: usize,
    pool: usize,
    jobs_since: usize,
}

impl Island {
    fn new(setup: &SetupPayload, stamp: u64) -> Option<Self> {
        if setup.island_every == 0 || setup.island_k == 0 {
            return None;
        }
        Some(Self {
            space: setup.space.clone(),
            objectives: setup.objectives.clone(),
            // Stamp-salted: a re-established session explores a fresh
            // island trajectory instead of replaying the lost one.
            rng: StdRng::seed_from_u64(setup.seed ^ stamp ^ 0x15_1A_4D),
            elites: Vec::new(),
            every: setup.island_every,
            k: setup.island_k,
            pool: (2 * setup.island_k).max(8),
            jobs_since: 0,
        })
    }

    fn observe(&mut self, genome: &CandidateGenome, m: &Measurement) {
        let fitness = self.objectives.scalar(m);
        if !fitness.is_finite() {
            return;
        }
        let key = genome.cache_key();
        if self.elites.iter().any(|(g, _, _)| g.cache_key() == key) {
            return;
        }
        let at = self
            .elites
            .partition_point(|(_, _, f)| *f >= fitness);
        self.elites.insert(at, (genome.clone(), m.clone(), fitness));
        self.elites.truncate(self.pool);
    }

    /// Advances the island by one coordinator job; on a migration
    /// boundary, breeds and evaluates `k` children and returns the
    /// feasible ones.
    fn step(&mut self, evaluator: &CodesignEvaluator) -> Vec<(CandidateGenome, Measurement)> {
        self.jobs_since += 1;
        if self.jobs_since < self.every || self.elites.is_empty() {
            return Vec::new();
        }
        self.jobs_since = 0;
        let mut migrants = Vec::new();
        for _ in 0..self.k {
            let child = self.breed();
            let (m, _) = evaluate_caught(evaluator, &child);
            self.observe(&child, &m);
            if m.hw.is_feasible() {
                migrants.push((child, m));
            }
        }
        migrants
    }

    fn breed(&mut self) -> CandidateGenome {
        let a = &self.elites[self.rng.gen_range(0..self.elites.len())].0.clone();
        let child = if self.elites.len() >= 2 && self.rng.gen_range(0.0..1.0) < 0.5 {
            let b = &self.elites[self.rng.gen_range(0..self.elites.len())].0.clone();
            self.space.crossover(a, b, &mut self.rng)
        } else {
            a.clone()
        };
        self.space.mutate(&child, &mut self.rng)
    }
}

/// Jobs between two `Profile` frames of a profiled session.
const PROFILE_EVERY: usize = 4;

/// One established session's evaluation context.
struct WorkerSession {
    evaluator: CodesignEvaluator,
    capture: Arc<CaptureSink>,
    stamp: u64,
    island: Option<Island>,
    /// Session-local profiler (own tick domain, never attached to the
    /// capture `Obs`, so replayed events are unaffected); its subtree
    /// ships in `Profile` frames.
    profiler: Option<rt::prof::Profiler>,
    jobs_since_profile: usize,
}

impl WorkerSession {
    fn from_setup(setup: &SetupPayload, stamp: u64) -> Self {
        let capture = CaptureSink::new(Level::Trace);
        let capture_obs = Obs::builder().sink(Arc::clone(&capture)).build();
        let evaluator = CodesignEvaluator::new(
            setup.train.clone(),
            setup.test.clone(),
            setup.trainer,
            setup.target.clone(),
            setup.seed,
        )
        .with_obs(capture_obs);
        let island = Island::new(setup, stamp);
        let profiler = setup
            .profile_clock
            .as_deref()
            .and_then(rt::prof::ClockKind::parse)
            .map(|clock| rt::prof::Profiler::with_root(clock, "worker"));
        Self {
            evaluator,
            capture,
            stamp,
            island,
            profiler,
            jobs_since_profile: 0,
        }
    }

    fn evaluate(&mut self, id: u64, stamp: u64, genome: &CandidateGenome) -> WorkerResponse {
        // Ambient install: kernel/model `prof_span!`s inside the
        // evaluator nest under an `evaluate` phase of the session tree.
        let install = self.profiler.as_ref().map(rt::prof::Profiler::install);
        let eval_span = rt::prof_span!("evaluate");
        let (measurement, panicked) = evaluate_caught(&self.evaluator, genome);
        drop(eval_span);
        // The job's own events, drained before any island work so
        // island-local evaluations never leak into the replay stream.
        let events = self.capture.take();
        let migrants = match &mut self.island {
            Some(island) => {
                let island_span = rt::prof_span!("island");
                island.observe(genome, &measurement);
                let migrants = island.step(&self.evaluator);
                drop(island_span);
                self.capture.take(); // discard island-local events
                migrants
            }
            None => Vec::new(),
        };
        drop(install);
        self.jobs_since_profile += 1;
        WorkerResponse::Evaluated {
            id,
            stamp,
            measurement,
            panicked,
            events,
            migrants,
        }
    }

    /// The session's `Profile` frame, when it profiles.
    fn profile(&self) -> Option<WorkerResponse> {
        self.profiler
            .as_ref()
            .map(|p| WorkerResponse::Profile(p.report()))
    }

    /// A `Profile` frame when the cadence is due (resets the cadence).
    fn periodic_profile(&mut self) -> Option<WorkerResponse> {
        if self.jobs_since_profile < PROFILE_EVERY {
            return None;
        }
        self.jobs_since_profile = 0;
        self.profile()
    }
}

/// A bound cluster worker: accepts one coordinator session at a time
/// and serves evaluation jobs until killed.
pub struct WorkerServer {
    listener: Listener,
    options: WorkerOptions,
    obs: Obs,
    stop: Arc<AtomicBool>,
}

impl WorkerServer {
    /// Binds `addr` (`host:port`; port `0` picks an ephemeral port —
    /// read it back with [`WorkerServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn bind(addr: &str, options: WorkerOptions, obs: Obs) -> io::Result<Self> {
        Ok(Self {
            listener: Listener::bind(addr)?,
            options,
            obs,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Any socket failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that stops [`WorkerServer::run`] at the next accept poll
    /// (for embedding a worker in tests or alongside other work).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serves sessions until a coordinator sends `kill_all` or the
    /// stop handle trips. Connection-level failures (disconnects,
    /// malformed frames, version skew) drop the session and return to
    /// accepting — a worker outlives its coordinators. A connection
    /// closed before its hello, as by a readiness probe, ends as a
    /// `session_end` with reason `closed_before_hello`, not as an
    /// error.
    ///
    /// # Errors
    ///
    /// Only accept-loop failures; per-session errors are survived.
    pub fn run(&self) -> io::Result<()> {
        rt::info!(
            self.obs,
            "worker_listen",
            addr = self
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_default(),
        );
        loop {
            if self.stop.load(Ordering::Acquire) {
                return Ok(());
            }
            let Some((stream, peer)) = self.listener.accept_timeout(Duration::from_millis(200))?
            else {
                continue;
            };
            rt::info!(self.obs, "session_accept", peer = peer.to_string());
            let end = Conn::from_stream(stream, self.options.max_frame, Some(self.options.io_timeout))
                .and_then(|mut conn| self.serve_session(&mut conn));
            match end {
                Ok(SessionEnd::Killed) => {
                    rt::info!(self.obs, "worker_killed");
                    return Ok(());
                }
                Ok(SessionEnd::ClosedBeforeHello) => {
                    rt::info!(self.obs, "session_end", reason = "closed_before_hello");
                }
                Ok(SessionEnd::Disconnected) => {
                    rt::info!(self.obs, "session_end", reason = "disconnect");
                }
                Err(e) => {
                    rt::warn!(
                        self.obs,
                        "session_error",
                        error = e.to_string(),
                        transient = e.is_transient(),
                    );
                }
            }
        }
    }

    fn serve_session(&self, conn: &mut Conn) -> Result<SessionEnd, NetError> {
        match conn.handshake_server(WORKER_ROLE, Some(COORDINATOR_ROLE)) {
            Err(NetError::Closed) => return Ok(SessionEnd::ClosedBeforeHello),
            hello => hello?,
        };
        let mut session: Option<WorkerSession> = None;
        loop {
            if self.stop.load(Ordering::Acquire) {
                return Ok(SessionEnd::Disconnected);
            }
            // Idle sessions time out back to the accept loop; the
            // coordinator reconnects on its next dispatch.
            conn.set_io_timeout(Some(self.options.idle_timeout))?;
            let frame = match conn.recv() {
                Ok(f) => f,
                Err(NetError::Closed) => return Ok(SessionEnd::Disconnected),
                Err(e) => return Err(e),
            };
            conn.set_io_timeout(Some(self.options.io_timeout))?;
            match CoordinatorRequest::from_json(&frame)? {
                CoordinatorRequest::Setup(payload, stamp) => {
                    rt::info!(
                        self.obs,
                        "session_setup",
                        stamp = format!("{stamp:016x}"),
                        train_rows = payload.train.len(),
                        test_rows = payload.test.len(),
                        device = payload.target.device_name(),
                        island_every = payload.island_every,
                    );
                    session = Some(WorkerSession::from_setup(&payload, stamp));
                    conn.send(&WorkerResponse::Ready { stamp }.to_json())?;
                }
                CoordinatorRequest::Evaluate { id, stamp, genome } => {
                    let s = session
                        .as_mut()
                        .ok_or_else(|| NetError::Protocol("evaluate before setup".into()))?;
                    if stamp != s.stamp {
                        return Err(NetError::Protocol(format!(
                            "job stamp {stamp:016x} does not match session {:016x}",
                            s.stamp
                        )));
                    }
                    rt::debug!(self.obs, "job", id = id as usize);
                    let response = s.evaluate(id, stamp, &genome);
                    if let WorkerResponse::Evaluated {
                        measurement,
                        panicked,
                        migrants,
                        ..
                    } = &response
                    {
                        self.obs.counter("worker.jobs").inc();
                        self.obs.histogram("worker.eval_s").record(measurement.eval_time_s);
                        self.obs.gauge("worker.train_wall_s").add(measurement.train_time_s);
                        self.obs.gauge("worker.hw_wall_s").add(measurement.hw_time_s);
                        if *panicked {
                            self.obs.counter("worker.panics").inc();
                        }
                        if !migrants.is_empty() {
                            self.obs.counter("worker.migrants").add(migrants.len() as u64);
                        }
                    }
                    conn.send(&response.to_json())?;
                    // A profiled session's subtree rides along every few
                    // jobs; the coordinator grafts it while draining
                    // replies.
                    if let Some(profile) = s.periodic_profile() {
                        conn.send(&profile.to_json())?;
                    }
                }
                CoordinatorRequest::KillAll => {
                    // A final profile precedes the goodbye so the
                    // coordinator's master profile always includes this
                    // worker's full subtree, even on short runs.
                    if let Some(profile) = session.as_ref().and_then(WorkerSession::profile) {
                        conn.send(&profile.to_json())?;
                    }
                    conn.send(&WorkerResponse::Bye.to_json())?;
                    return Ok(SessionEnd::Killed);
                }
            }
        }
    }
}

/// FNV-1a over an address string — the per-worker salt for seeded
/// reconnect backoff jitter.
fn addr_salt(addr: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in addr.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;
    use crate::workers::Evaluator;
    use ecad_dataset::synth::SyntheticSpec;
    use ecad_hw::cpu::CpuDevice;
    use ecad_hw::fpga::FpgaDevice;
    use ecad_hw::gpu::GpuDevice;
    use rt::json::ToJson;

    fn tiny_dataset(seed: u64) -> Dataset {
        SyntheticSpec::new("tiny", 24, 4, 3).with_seed(seed).generate()
    }

    fn setup_payload(island_every: usize) -> SetupPayload {
        SetupPayload {
            seed: 7,
            train: tiny_dataset(1),
            test: tiny_dataset(2),
            trainer: TrainConfig::fast(),
            target: HwTarget::Fpga(FpgaDevice::arria10_gx1150(1)),
            space: SearchSpace::fpga_default(),
            objectives: ObjectiveSet::accuracy_only(),
            island_every,
            island_k: 2,
            profile_clock: None,
        }
    }

    #[test]
    fn dataset_round_trips_bit_exactly() {
        let d = tiny_dataset(42);
        let wire = d.to_json();
        let reparsed = Json::parse(&wire.to_string()).unwrap();
        let back = Dataset::from_json(&reparsed).unwrap();
        assert_eq!(back.name(), d.name());
        assert_eq!(back.n_classes(), d.n_classes());
        assert_eq!(back.labels(), d.labels());
        assert_eq!(back.features().as_slice(), d.features().as_slice());
    }

    #[test]
    fn setup_round_trips() {
        let mut setup = setup_payload(3);
        setup.profile_clock = Some("ticks".to_string());
        let wire = setup.to_json(0xDEAD_BEEF).unwrap();
        let reparsed = Json::parse(&wire.to_string()).unwrap();
        let (back, stamp) = SetupPayload::decode(Cursor::root(&reparsed)).unwrap();
        assert_eq!(stamp, 0xDEAD_BEEF);
        assert_eq!(back.seed, setup.seed);
        assert_eq!(back.trainer, setup.trainer);
        assert_eq!(back.space, setup.space);
        assert_eq!(back.island_every, 3);
        assert_eq!(back.profile_clock.as_deref(), Some("ticks"));
        assert_eq!(back.target.device_name(), setup.target.device_name());
        assert_eq!(
            back.objectives.objectives().len(),
            setup.objectives.objectives().len()
        );

        // A coordinator that does not profile sends no clock, and the
        // frame parses with profiling off.
        let text = setup_payload(0).to_json(0x1).unwrap().to_string();
        assert!(!text.contains("profile_clock"), "{text}");
        let unprofiled = Json::parse(&text).unwrap();
        let (unprofiled, _) = SetupPayload::decode(Cursor::root(&unprofiled)).unwrap();
        assert_eq!(unprofiled.profile_clock, None);
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let genome = SearchSpace::fpga_default().sample(&mut StdRng::seed_from_u64(3));
        let req = CoordinatorRequest::Evaluate {
            id: 12,
            stamp: 0xABC,
            genome: genome.clone(),
        };
        let wire = Json::parse(&req.to_json().unwrap().to_string()).unwrap();
        match CoordinatorRequest::from_json(&wire).unwrap() {
            CoordinatorRequest::Evaluate { id, stamp, genome: g } => {
                assert_eq!(id, 12);
                assert_eq!(stamp, 0xABC);
                assert_eq!(g.cache_key(), genome.cache_key());
            }
            other => panic!("wrong variant {other:?}"),
        }
        let wire = CoordinatorRequest::KillAll.to_json().unwrap();
        assert_eq!(wire.get("req").and_then(Json::as_str), Some("kill_all"));
        assert!(matches!(
            CoordinatorRequest::from_json(&wire),
            Ok(CoordinatorRequest::KillAll)
        ));

        let m = Measurement::infeasible(InfeasibleReason::Transient("net".into()));
        let resp = WorkerResponse::Evaluated {
            id: 9,
            stamp: 0x1,
            measurement: m,
            panicked: true,
            events: vec![Event {
                level: Level::Warn,
                target: "ecad_core::workers",
                name: "infeasible",
                fields: vec![("stage", rt::obs::Value::Str("train".into()))],
                elapsed_s: None,
            }],
            migrants: vec![(genome, Measurement::infeasible(InfeasibleReason::DeviceFit))],
        };
        let wire = Json::parse(&resp.to_json().to_string()).unwrap();
        match WorkerResponse::from_json(&wire).unwrap() {
            WorkerResponse::Evaluated {
                id,
                stamp,
                panicked,
                events,
                migrants,
                measurement,
            } => {
                assert_eq!((id, stamp, panicked), (9, 1, true));
                assert_eq!(events.len(), 1);
                assert_eq!(events[0].name, "infeasible");
                assert_eq!(migrants.len(), 1);
                assert!(matches!(
                    measurement.failure_kind(),
                    Some(crate::measurement::FailureKind::Transient)
                ));
            }
            other => panic!("wrong variant {other:?}"),
        }

        let profile = rt::prof::ProfileNode {
            name: "worker".to_string(),
            total_ns: 3000,
            self_ns: 1000,
            calls: 2,
            children: Vec::new(),
        };
        let wire = WorkerResponse::Profile(profile.clone()).to_json();
        assert_eq!(wire.get("resp").and_then(Json::as_str), Some("profile"));
        match WorkerResponse::from_json(&Json::parse(&wire.to_string()).unwrap()).unwrap() {
            WorkerResponse::Profile(tree) => assert_eq!(tree, profile),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_protocol_errors() {
        for bad in [
            Json::object(),
            Json::object().insert("req", "explode"),
            Json::object().insert("req", "evaluate").insert("id", 1),
            Json::object().insert("resp", "nope"),
            Json::object().insert("resp", "evaluated").insert("id", 1),
        ] {
            let req_err = CoordinatorRequest::from_json(&bad).is_err();
            let resp_err = WorkerResponse::from_json(&bad).is_err();
            assert!(req_err && resp_err, "accepted {bad}");
        }
    }

    /// Decodes `request`'s compact frame with the first `from`
    /// replaced by `to`, returning the error text.
    fn request_error(request: CoordinatorRequest, from: &str, to: &str) -> String {
        let text = request.to_json().unwrap().to_string();
        assert!(text.contains(from), "{from} not in {text}");
        let frame = Json::parse(&text.replacen(from, to, 1)).unwrap();
        CoordinatorRequest::from_json(&frame)
            .unwrap_err()
            .to_string()
    }

    fn evaluate_request() -> CoordinatorRequest {
        let mut genome = SearchSpace::fpga_default().sample(&mut StdRng::seed_from_u64(3));
        genome.hw = crate::genome::HwGenome::FpgaGrid {
            rows: 8,
            cols: 16,
            interleave_m: 4,
            interleave_n: 2,
            vec: 8,
            batch: 16,
        };
        CoordinatorRequest::Evaluate {
            id: 12,
            stamp: 0xABC,
            genome,
        }
    }

    #[test]
    fn setup_frame_with_huge_row_count_is_rejected_at_its_path() {
        let setup = CoordinatorRequest::Setup(Box::new(setup_payload(0)), 1);
        let err = request_error(setup, "\"rows\":24,", "\"rows\":1e300,");
        assert!(err.contains("train.rows: expected an integer"), "{err}");
        assert!(!err.contains("checkpoint"), "{err}");
    }

    #[test]
    fn setup_frame_whose_shape_overflows_is_rejected_at_its_path() {
        let setup = CoordinatorRequest::Setup(Box::new(setup_payload(0)), 1);
        let shape = "\"rows\":8589934592,\"cols\":8589934592,";
        let err = request_error(setup, "\"rows\":24,\"cols\":4,", shape);
        assert!(err.contains("train.features: holds 96 values"), "{err}");
    }

    #[test]
    fn evaluate_frame_with_out_of_range_gene_is_rejected_at_its_path() {
        let err = request_error(evaluate_request(), "\"rows\":8,", "\"rows\":4294967297,");
        assert!(
            err.contains("genome.hw.rows: expected an integer in 0..=4294967295"),
            "{err}"
        );
        assert!(!err.contains("checkpoint"), "{err}");
    }

    #[test]
    fn evaluate_frame_with_huge_id_is_rejected_at_its_path() {
        let err = request_error(evaluate_request(), "\"id\":12,", "\"id\":1e300,");
        assert!(err.contains("id: expected an integer"), "{err}");
    }

    #[test]
    fn mistyped_optional_fields_are_rejected_at_their_path() {
        let mut setup = setup_payload(0);
        setup.profile_clock = Some("ticks".to_string());
        let setup = CoordinatorRequest::Setup(Box::new(setup), 1);
        let err = request_error(setup, "\"profile_clock\":\"ticks\"", "\"profile_clock\":7");
        assert!(err.contains("profile_clock: expected a string"), "{err}");

        let evaluated = WorkerResponse::Evaluated {
            id: 1,
            stamp: 2,
            measurement: Measurement::infeasible(InfeasibleReason::DeviceFit),
            panicked: true,
            events: Vec::new(),
            migrants: Vec::new(),
        };
        let text = evaluated
            .to_json()
            .to_string()
            .replace("\"panicked\":true", "\"panicked\":1");
        let err = WorkerResponse::from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("panicked: expected a boolean"),
            "{err}"
        );
    }

    #[test]
    fn target_codec_covers_the_catalog() {
        for t in [
            HwTarget::Fpga(FpgaDevice::arria10_gx1150(4)),
            HwTarget::Fpga(FpgaDevice::stratix10_2800(2)),
            HwTarget::Gpu(GpuDevice::quadro_m5000()),
            HwTarget::Gpu(GpuDevice::titan_x()),
            HwTarget::Gpu(GpuDevice::radeon_vii()),
            HwTarget::Cpu(CpuDevice::xeon_22c()),
            HwTarget::Cpu(CpuDevice::desktop_8c()),
        ] {
            let wire = t.to_json().unwrap();
            let back = HwTarget::from_json(&wire).unwrap();
            assert_eq!(back.device_name(), t.device_name());
            if let (HwTarget::Fpga(a), HwTarget::Fpga(b)) = (&t, &back) {
                assert_eq!(a.ddr.banks, b.ddr.banks);
            }
        }
        let custom = HwTarget::Fpga(FpgaDevice {
            name: "Bespoke".to_string(),
            ..FpgaDevice::arria10_gx1150(1)
        });
        assert!(custom.to_json().is_err());
    }

    #[test]
    fn island_migrates_on_cadence_and_dedups_elites() {
        let setup = setup_payload(2);
        let mut island = Island::new(&setup, 0x5).expect("islands on");
        let evaluator = CodesignEvaluator::new(
            setup.train.clone(),
            setup.test.clone(),
            setup.trainer,
            setup.target.clone(),
            setup.seed,
        );
        let mut rng = StdRng::seed_from_u64(9);
        let g1 = setup.space.sample(&mut rng);
        let m1 = evaluator.evaluate(&g1);
        island.observe(&g1, &m1);
        island.observe(&g1, &m1); // duplicate key must not double up
        let observed = island.elites.len();
        assert!(observed <= 1);

        assert!(island.step(&evaluator).is_empty(), "below cadence");
        let migrants = island.step(&evaluator);
        if !island.elites.is_empty() {
            assert!(migrants.len() <= setup.island_k);
            for (_, m) in &migrants {
                assert!(m.hw.is_feasible(), "only feasible migrants ship");
            }
        }
        assert_eq!(island.jobs_since, 0, "cadence counter reset");
    }

    #[test]
    fn islands_off_when_cadence_zero() {
        assert!(Island::new(&setup_payload(0), 0x5).is_none());
    }

    #[test]
    fn worker_session_serves_evaluate_loopback() {
        let server = WorkerServer::bind(
            "127.0.0.1:0",
            WorkerOptions::default(),
            Obs::disabled(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let mut conn = Conn::connect(&addr, Duration::from_secs(10), rt::net::DEFAULT_MAX_FRAME)
            .unwrap();
        conn.handshake_client(COORDINATOR_ROLE, Some(WORKER_ROLE)).unwrap();
        let setup = setup_payload(0);
        let stamp = 0x77;
        conn.send(
            &CoordinatorRequest::Setup(Box::new(setup.clone()), stamp)
                .to_json()
                .unwrap(),
        )
        .unwrap();
        match WorkerResponse::from_json(&conn.recv().unwrap()).unwrap() {
            WorkerResponse::Ready { stamp: s } => assert_eq!(s, stamp),
            other => panic!("expected ready, got {other:?}"),
        }

        let genome = setup.space.sample(&mut StdRng::seed_from_u64(1));
        conn.send(
            &CoordinatorRequest::Evaluate {
                id: 0,
                stamp,
                genome: genome.clone(),
            }
            .to_json()
            .unwrap(),
        )
        .unwrap();
        let (remote_m, events) =
            match WorkerResponse::from_json(&conn.recv().unwrap()).unwrap() {
                WorkerResponse::Evaluated {
                    id,
                    stamp: s,
                    measurement,
                    events,
                    ..
                } => {
                    assert_eq!((id, s), (0, stamp));
                    (measurement, events)
                }
                other => panic!("expected evaluated, got {other:?}"),
            };

        // The remote measurement matches a local evaluation exactly —
        // the property the dedup cache and byte-identity both rest on.
        let local = CodesignEvaluator::new(
            setup.train.clone(),
            setup.test.clone(),
            setup.trainer,
            setup.target.clone(),
            setup.seed,
        )
        .evaluate(&genome);
        assert_eq!(remote_m.accuracy, local.accuracy);
        assert_eq!(remote_m.params, local.params);
        // Evaluation-time span closes (train, hw_model) were captured
        // for replay.
        assert!(
            events.iter().any(|e| e.name == "train"),
            "expected a captured train span close, got {:?}",
            events.iter().map(|e| e.name).collect::<Vec<_>>()
        );

        // A mismatched stamp is fenced with a protocol error (the
        // session drops; the worker keeps serving).
        conn.send(
            &CoordinatorRequest::Evaluate {
                id: 1,
                stamp: stamp + 1,
                genome: genome.clone(),
            }
            .to_json()
            .unwrap(),
        )
        .unwrap();
        assert!(conn.recv().is_err(), "stale-stamp job must not be answered");

        // Reconnect and kill: the worker exits its accept loop.
        let mut conn2 =
            Conn::connect(&addr, Duration::from_secs(10), rt::net::DEFAULT_MAX_FRAME).unwrap();
        conn2.handshake_client(COORDINATOR_ROLE, Some(WORKER_ROLE)).unwrap();
        conn2.send(&CoordinatorRequest::KillAll.to_json().unwrap()).unwrap();
        match WorkerResponse::from_json(&conn2.recv().unwrap()).unwrap() {
            WorkerResponse::Bye => {}
            other => panic!("expected bye, got {other:?}"),
        }
        handle.join().unwrap();
    }

    /// The frames one worker session sends, in order: without a
    /// profile clock only `ready`, `evaluated` and `bye`; with one, also
    /// a `profile` frame after every fourth job and before `bye`.
    #[test]
    fn worker_sends_profile_frames_only_when_the_setup_names_a_clock() {
        let frames = |clock: Option<&str>| -> Vec<String> {
            let server =
                WorkerServer::bind("127.0.0.1:0", WorkerOptions::default(), Obs::disabled())
                    .unwrap();
            let addr = server.local_addr().unwrap().to_string();
            let handle = std::thread::spawn(move || server.run().unwrap());
            let mut conn =
                Conn::connect(&addr, Duration::from_secs(10), rt::net::DEFAULT_MAX_FRAME).unwrap();
            conn.handshake_client(COORDINATOR_ROLE, Some(WORKER_ROLE)).unwrap();
            let mut setup = setup_payload(0);
            setup.profile_clock = clock.map(str::to_string);
            setup.space = SearchSpace::fpga_default()
                .with_neurons(4, 12)
                .with_layers(1, 1);
            let (stamp, rng) = (0x5, &mut StdRng::seed_from_u64(4));
            let mut requests = vec![CoordinatorRequest::Setup(Box::new(setup.clone()), stamp)];
            for id in 0..5 {
                let genome = setup.space.sample(rng);
                requests.push(CoordinatorRequest::Evaluate { id, stamp, genome });
            }
            requests.push(CoordinatorRequest::KillAll);
            for request in &requests {
                conn.send(&request.to_json().unwrap()).unwrap();
            }
            let mut kinds = Vec::new();
            while kinds.last().is_none_or(|k| k != "bye") {
                let frame = conn.recv().unwrap();
                kinds.push(
                    frame
                        .get("resp")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string(),
                );
            }
            handle.join().unwrap();
            kinds
        };
        let e = "evaluated";
        assert_eq!(frames(None), ["ready", e, e, e, e, e, "bye"]);
        assert_eq!(
            frames(Some("ticks")),
            ["ready", e, e, e, e, "profile", e, "profile", "bye"]
        );
    }

    #[test]
    fn addr_salt_distinguishes_addresses() {
        assert_ne!(addr_salt("127.0.0.1:7001"), addr_salt("127.0.0.1:7002"));
        assert_eq!(addr_salt("a:1"), addr_salt("a:1"));
    }
}
