//! Deterministic cooperative scheduler and interleaving explorer — a
//! loom-lite model checker for the engine's concurrency protocols.
//!
//! A *model* is a closure run under [`check`]. Inside it, concurrency is
//! expressed with [`spawn`]ed **virtual threads**: real OS threads that
//! hand a single execution baton between each other, so exactly one
//! runs at any instant and every context switch happens at an explicit
//! *scheduling point* ([`yield_now`], blocking operations, spawns).
//! Each switch consumes one entry from a **choice stream**; so does
//! every call to [`choice`], the model-level nondeterminism hook.
//!
//! [`check`] explores the space of choice streams two ways:
//!
//! 1. **Bounded exhaustive DFS** — replay the recorded stream of the
//!    previous execution, backtracking on the last decision that still
//!    has unexplored alternatives. Small models are covered completely
//!    (the report says so via [`CheckReport::exhausted`]).
//! 2. **Seeded random sampling** — for models too big to exhaust, a
//!    PCG64-driven tail picks uniformly at every decision.
//!
//! Either way, a failing execution (model panic, deadlock, or step
//! budget) is reported as a [`Failure`] carrying the full choice stream
//! as a [`Schedule`] token such as `v1:1/3,0/2,2/4`. Feeding that token
//! to [`replay`] re-runs the *exact* interleaving — byte-identical
//! message, no search.
//!
//! Time inside a model is **virtual**: a monotonic tick counter
//! (1 tick = 1 nanosecond) that only advances when every virtual
//! thread is blocked, jumping straight to the earliest pending
//! deadline. A `recv_timeout` in a model therefore costs zero
//! wall-clock time, and timeout/no-timeout races become explicit
//! scheduling decisions the explorer can drive both ways.
//!
//! The blocking primitives in [`crate::sync`] (channels, `Mutex`,
//! [`crate::sync::backend::Signal`]) detect an active
//! scheduler via [`active`] and route their waits through it, so model
//! code uses the very same types the production engine uses.
//!
//! # Panics and failures
//!
//! A panic on any virtual thread fails the whole execution: the
//! scheduler records the message, poisons the execution, and unwinds
//! every other virtual thread with a private abort payload. Deadlock
//! (all threads blocked, no pending timeout) and step-budget exhaustion
//! (a livelock proxy) are failures too.
//!
//! ```
//! use rt::sched::{self, CheckOptions};
//!
//! let report = sched::check(CheckOptions::default(), || {
//!     let h = sched::spawn(|| 21 * 2);
//!     assert_eq!(h.join(), 42);
//! });
//! assert!(report.failure.is_none());
//! assert!(report.exhausted);
//! ```

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::{Arc, Condvar, Mutex};

use crate::rand::{Pcg64, Rng, SeedableRng};

/// Virtual-thread id within one execution. The root model closure is
/// always tid 0; spawns allocate sequentially.
pub type Tid = usize;

/// One recorded scheduling decision: `(chosen, out_of)`.
type Choice = (usize, usize);

/// Panic payload used to unwind virtual threads when an execution is
/// being torn down. Never escapes the scheduler.
struct Abort;

const ADDR_TAG: u8 = 0;
const JOIN_TAG: u8 = 1;
const SLEEP_TAG: u8 = 2;

/// What a blocked thread is waiting on. `(tag, key)` — tag 0 is an
/// address-keyed wait queue (sync primitives), tag 1 a join on a tid,
/// tag 2 a pure sleep.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct WaitKey(u8, usize);

struct BlockInfo {
    deadline: Option<u64>,
    key: WaitKey,
}

struct ExecState {
    /// The one virtual thread allowed to run right now.
    current: Option<Tid>,
    /// Ready threads in deterministic (push) order.
    runnable: Vec<Tid>,
    /// Blocked threads; `BTreeMap` so iteration order is deterministic.
    blocked: BTreeMap<Tid, BlockInfo>,
    /// Wait queues, keyed by what the blocked threads wait on.
    queues: HashMap<WaitKey, Vec<Tid>>,
    /// Threads woken by a deadline rather than a notify.
    timed_out: HashSet<Tid>,
    finished: HashSet<Tid>,
    /// Real threads that have not yet exited their wrapper.
    live: usize,
    /// Virtual clock in ticks (1 tick = 1ns).
    now: u64,
    steps: u64,
    max_steps: u64,
    /// Replay prefix: decisions forced from a prior recording.
    prefix: Vec<Choice>,
    pos: usize,
    /// Random tail for decisions beyond the prefix; `None` picks 0.
    rng: Option<Pcg64>,
    recorded: Vec<Choice>,
    failure: Option<String>,
    /// Set on failure: every parked thread unwinds with [`Abort`].
    aborting: bool,
    next_tid: Tid,
}

struct Exec {
    state: Mutex<ExecState>,
    cv: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

#[derive(Clone)]
struct Ctx {
    exec: Arc<Exec>,
    tid: Tid,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Whether the calling thread is a virtual thread inside a [`check`] /
/// [`replay`] execution. The `rt::sync` primitives branch on this to
/// route blocking through the scheduler.
pub fn active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

fn ctx() -> Ctx {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("rt::sched primitive used outside a model execution")
    })
}

fn fail(st: &mut ExecState, msg: String) {
    if st.failure.is_none() {
        st.failure = Some(msg);
    }
    st.aborting = true;
}

fn bump_step(st: &mut ExecState) {
    st.steps += 1;
    if st.steps > st.max_steps {
        let max = st.max_steps;
        fail(
            st,
            format!("step budget exceeded ({max} scheduling steps): possible livelock"),
        );
    }
}

/// Consumes one decision from the choice stream: forced by the replay
/// prefix, drawn from the random tail, or 0. Decisions with a single
/// alternative are not recorded — they cannot be explored differently.
fn decide(st: &mut ExecState, n: usize) -> usize {
    debug_assert!(n >= 1);
    if n <= 1 {
        return 0;
    }
    let c = if st.pos < st.prefix.len() {
        st.prefix[st.pos].0.min(n - 1)
    } else if let Some(rng) = st.rng.as_mut() {
        rng.gen_range(0..n)
    } else {
        0
    };
    st.pos += 1;
    st.recorded.push((c, n));
    c
}

/// Removes `tid` from whatever wait queue it is registered on.
fn unregister(st: &mut ExecState, tid: Tid, key: WaitKey) {
    if let Some(q) = st.queues.get_mut(&key) {
        q.retain(|&t| t != tid);
        if q.is_empty() {
            st.queues.remove(&key);
        }
    }
}

fn wake_key_locked(st: &mut ExecState, key: WaitKey) {
    if let Some(q) = st.queues.remove(&key) {
        for tid in q {
            if st.blocked.remove(&tid).is_some() {
                st.runnable.push(tid);
            }
        }
    }
}

/// Picks the next `current` thread, advancing virtual time past blocked
/// deadlines when nothing is runnable and declaring deadlock when there
/// is no deadline to advance to.
fn schedule_next(st: &mut ExecState) {
    bump_step(st);
    loop {
        if st.aborting {
            st.current = None;
            return;
        }
        if !st.runnable.is_empty() {
            let c = decide(st, st.runnable.len());
            if st.aborting {
                st.current = None;
                return;
            }
            let tid = st.runnable.remove(c);
            st.current = Some(tid);
            return;
        }
        if st.blocked.is_empty() {
            // Execution drained: nothing runnable, nothing blocked.
            st.current = None;
            return;
        }
        // All live threads are blocked. Jump virtual time to the
        // earliest deadline; with no deadline pending this is deadlock.
        let next = st
            .blocked
            .iter()
            .filter_map(|(tid, b)| b.deadline.map(|d| (d, *tid)))
            .min();
        match next {
            None => {
                let tids: Vec<Tid> = st.blocked.keys().copied().collect();
                let now = st.now;
                fail(
                    st,
                    format!("deadlock: vthreads {tids:?} blocked with no pending timeout at t={now}ns"),
                );
                st.current = None;
                return;
            }
            Some((deadline, _)) => {
                st.now = st.now.max(deadline);
                let due: Vec<(Tid, WaitKey)> = st
                    .blocked
                    .iter()
                    .filter(|(_, b)| b.deadline.is_some_and(|d| d <= st.now))
                    .map(|(tid, b)| (*tid, b.key))
                    .collect();
                for (tid, key) in due {
                    st.blocked.remove(&tid);
                    unregister(st, tid, key);
                    st.timed_out.insert(tid);
                    st.runnable.push(tid);
                }
            }
        }
    }
}

enum Disp {
    Yield,
    Block { deadline: Option<u64>, key: WaitKey },
}

/// Gives up the baton with disposition `disp` and parks until this
/// thread is scheduled again. Returns `true` if the wake was a timeout.
fn transition(c: &Ctx, disp: Disp) -> bool {
    let me = c.tid;
    let mut st = c.exec.state.lock().expect("sched state");
    debug_assert_eq!(st.current, Some(me));
    match disp {
        Disp::Yield => st.runnable.push(me),
        Disp::Block { deadline, key } => {
            st.blocked.insert(me, BlockInfo { deadline, key });
            st.queues.entry(key).or_default().push(me);
        }
    }
    schedule_next(&mut st);
    c.exec.cv.notify_all();
    loop {
        if st.current == Some(me) {
            return st.timed_out.remove(&me);
        }
        if st.aborting {
            drop(st);
            std::panic::panic_any(Abort);
        }
        st = c.exec.cv.wait(st).expect("sched state");
    }
}

/// A scheduling point: the explorer may switch to any runnable thread
/// (including staying on this one).
pub fn yield_now() {
    let c = ctx();
    let _ = transition(&c, Disp::Yield);
}

/// [`yield_now`] when a model execution is active, no-op otherwise.
/// Production code sprinkles this at protocol-relevant boundaries so
/// the same code paths become explorable under [`check`].
pub fn maybe_yield() {
    if active() {
        yield_now();
    }
}

/// Model-level nondeterminism: returns a value in `0..n`, recorded in
/// the schedule and explored like any scheduling decision. Not itself
/// a scheduling point (the thread keeps running).
///
/// # Panics
///
/// Panics if `n == 0` or when called outside a model execution.
pub fn choice(n: usize) -> usize {
    assert!(n > 0, "sched::choice requires at least one alternative");
    let c = ctx();
    let mut st = c.exec.state.lock().expect("sched state");
    bump_step(&mut st);
    let v = decide(&mut st, n);
    if st.aborting {
        drop(st);
        c.exec.cv.notify_all();
        std::panic::panic_any(Abort);
    }
    v
}

/// The virtual clock, in ticks (1 tick = 1ns).
pub fn now() -> u64 {
    let c = ctx();
    let st = c.exec.state.lock().expect("sched state");
    st.now
}

/// Blocks this virtual thread for `ticks` of virtual time. Other
/// threads run; the clock advances only when everyone is blocked.
pub fn sleep(ticks: u64) {
    let c = ctx();
    let deadline = {
        let st = c.exec.state.lock().expect("sched state");
        st.now.saturating_add(ticks)
    };
    let key = WaitKey(SLEEP_TAG, c.tid);
    let _ = transition(&c, Disp::Block { deadline: Some(deadline), key });
}

/// Blocks the calling virtual thread on the wait queue for `addr`,
/// optionally with an absolute virtual-time deadline. Returns `false`
/// if the wake was a timeout rather than a [`wake_addr`]. Used by the
/// `rt::sync` backend.
pub fn block_on_addr(addr: usize, deadline: Option<u64>) -> bool {
    let c = ctx();
    let key = WaitKey(ADDR_TAG, addr);
    !transition(&c, Disp::Block { deadline, key })
}

/// Wakes every virtual thread blocked on `addr`. Not a scheduling
/// point: the caller keeps running.
pub fn wake_addr(addr: usize) {
    let c = ctx();
    let mut st = c.exec.state.lock().expect("sched state");
    wake_key_locked(&mut st, WaitKey(ADDR_TAG, addr));
}

/// Owned handle to a spawned virtual thread; see [`spawn`].
pub struct JoinHandle<T> {
    tid: Tid,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// The spawned thread's tid (tids start at 0 for the model root).
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// Blocks until the thread finishes and returns its value. A panic
    /// on the joined thread fails the whole execution, so unlike
    /// `std::thread`, `join` never returns an error.
    pub fn join(self) -> T {
        let c = ctx();
        loop {
            let done = {
                let st = c.exec.state.lock().expect("sched state");
                st.finished.contains(&self.tid)
            };
            if done {
                break;
            }
            // No other vthread can run between the check above and the
            // block below — we hold the baton until `transition` parks.
            let key = WaitKey(JOIN_TAG, self.tid);
            let _ = transition(&c, Disp::Block { deadline: None, key });
        }
        self.result
            .lock()
            .expect("join result")
            .take()
            .expect("vthread finished without storing a result")
    }
}

fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Body shared by the model root and every spawned virtual thread:
/// park until scheduled, run, then hand the baton on and account for
/// this thread's exit.
fn vthread_main(exec: Arc<Exec>, tid: Tid, f: impl FnOnce()) {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            exec: Arc::clone(&exec),
            tid,
        })
    });
    let run = {
        let mut st = exec.state.lock().expect("sched state");
        loop {
            if st.current == Some(tid) {
                break true;
            }
            if st.aborting {
                break false;
            }
            st = exec.cv.wait(st).expect("sched state");
        }
    };
    let outcome = if run {
        Some(catch_unwind(AssertUnwindSafe(f)))
    } else {
        None
    };
    {
        let mut st = exec.state.lock().expect("sched state");
        if let Some(Err(p)) = &outcome {
            if !p.is::<Abort>() {
                let msg = panic_message(p.as_ref());
                fail(&mut st, format!("vthread {tid} panicked: {msg}"));
            }
        }
        st.finished.insert(tid);
        wake_key_locked(&mut st, WaitKey(JOIN_TAG, tid));
        if st.current == Some(tid) {
            schedule_next(&mut st);
        }
        st.live -= 1;
    }
    exec.cv.notify_all();
    CTX.with(|c| *c.borrow_mut() = None);
}

/// Spawns a new virtual thread running `f`. A scheduling point: the
/// explorer may run the child before the parent continues.
///
/// # Panics
///
/// Panics when called outside a model execution.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let c = ctx();
    let exec = Arc::clone(&c.exec);
    let result = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    let tid = {
        let mut st = exec.state.lock().expect("sched state");
        if st.aborting {
            drop(st);
            std::panic::panic_any(Abort);
        }
        let tid = st.next_tid;
        st.next_tid += 1;
        st.live += 1;
        st.runnable.push(tid);
        tid
    };
    let exec2 = Arc::clone(&exec);
    let handle = std::thread::Builder::new()
        .name(format!("vthread-{tid}"))
        .spawn(move || {
            vthread_main(exec2, tid, move || {
                *slot.lock().expect("result slot") = Some(f());
            });
        })
        .expect("spawn vthread");
    exec.handles.lock().expect("handles").push(handle);
    yield_now();
    JoinHandle { tid, result }
}

// ---------------------------------------------------------------------
// Schedules, failures, exploration
// ---------------------------------------------------------------------

/// A fully recorded choice stream — enough to replay one execution
/// byte-identically. Serializes as `v1:chosen/total,chosen/total,...`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Schedule {
    choices: Vec<Choice>,
}

impl Schedule {
    /// Number of recorded (multi-alternative) decisions.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether the execution hit no multi-alternative decision at all.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("v1:")?;
        for (i, (c, t)) in self.choices.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{c}/{t}")?;
        }
        Ok(())
    }
}

/// Error from parsing a [`Schedule`] token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScheduleError(String);

impl fmt::Display for ParseScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid schedule token: {}", self.0)
    }
}

impl std::error::Error for ParseScheduleError {}

impl FromStr for Schedule {
    type Err = ParseScheduleError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let body = s
            .strip_prefix("v1:")
            .ok_or_else(|| ParseScheduleError(format!("missing v1: prefix in {s:?}")))?;
        let mut choices = Vec::new();
        if body.is_empty() {
            return Ok(Schedule { choices });
        }
        for part in body.split(',') {
            let (c, t) = part
                .split_once('/')
                .ok_or_else(|| ParseScheduleError(format!("bad entry {part:?}")))?;
            let c: usize = c
                .parse()
                .map_err(|_| ParseScheduleError(format!("bad chosen in {part:?}")))?;
            let t: usize = t
                .parse()
                .map_err(|_| ParseScheduleError(format!("bad total in {part:?}")))?;
            if t < 2 || c >= t {
                return Err(ParseScheduleError(format!("out-of-range entry {part:?}")));
            }
            choices.push((c, t));
        }
        Ok(Schedule { choices })
    }
}

/// A failing execution: what went wrong and the schedule to replay it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// Human-readable failure: the panic message, deadlock report, or
    /// step-budget diagnosis.
    pub message: String,
    /// The complete choice stream of the failing execution; feed it to
    /// [`replay`] to reproduce the failure byte-identically.
    pub schedule: Schedule,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\nschedule: {}", self.message, self.schedule)
    }
}

/// Exploration budgets and seeds for [`check`].
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Maximum executions for the exhaustive DFS phase.
    pub max_schedules_exhaustive: usize,
    /// Random executions after the DFS budget runs out (skipped when
    /// DFS covered the whole space).
    pub random_schedules: usize,
    /// Seed for the random phase. `RT_CHECK_SEED` in the environment
    /// overrides it, mirroring `rt::check`.
    pub seed: u64,
    /// Per-execution scheduling-step budget; exceeding it fails the
    /// execution (livelock proxy).
    pub max_steps: u64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        let seed = std::env::var("RT_CHECK_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_CAB1E_u64);
        CheckOptions {
            max_schedules_exhaustive: 2_000,
            random_schedules: 256,
            seed,
            max_steps: 20_000,
        }
    }
}

/// The result of a [`check`] run.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Executions actually run across both phases.
    pub executions: u64,
    /// `true` when the DFS phase covered the entire schedule space
    /// within budget (the random phase is then skipped).
    pub exhausted: bool,
    /// The first failing execution found, if any.
    pub failure: Option<Failure>,
}

impl CheckReport {
    /// Panics with the failure (message + schedule token) if the check
    /// found one.
    pub fn assert_pass(&self) {
        if let Some(f) = &self.failure {
            panic!("model check failed after {} executions:\n{f}", self.executions);
        }
    }
}

/// RAII panic-hook silencer: model exploration panics on purpose
/// (assertion failures under exploration, abort unwinds), so the
/// default hook's backtrace spew is suppressed for the duration.
struct HookGuard;

static HOOK_DEPTH: Mutex<u64> = Mutex::new(0);

impl HookGuard {
    fn install() -> Self {
        let mut depth = HOOK_DEPTH.lock().expect("hook depth");
        if *depth == 0 {
            std::panic::set_hook(Box::new(|_| {}));
        }
        *depth += 1;
        HookGuard
    }
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        let mut depth = HOOK_DEPTH.lock().expect("hook depth");
        *depth -= 1;
        if *depth == 0 {
            let _ = std::panic::take_hook();
        }
    }
}

/// Runs the model once under a forced prefix (+ optional random tail)
/// and returns the recorded choice stream and any failure message.
fn run_once(
    model: &Arc<dyn Fn() + Send + Sync>,
    prefix: Vec<Choice>,
    rng: Option<Pcg64>,
    max_steps: u64,
) -> (Vec<Choice>, Option<String>) {
    let exec = Arc::new(Exec {
        state: Mutex::new(ExecState {
            current: None,
            runnable: vec![0],
            blocked: BTreeMap::new(),
            queues: HashMap::new(),
            timed_out: HashSet::new(),
            finished: HashSet::new(),
            live: 1,
            now: 0,
            steps: 0,
            max_steps,
            prefix,
            pos: 0,
            rng,
            recorded: Vec::new(),
            failure: None,
            aborting: false,
            next_tid: 1,
        }),
        cv: Condvar::new(),
        handles: Mutex::new(Vec::new()),
    });
    let model = Arc::clone(model);
    let exec2 = Arc::clone(&exec);
    let root = std::thread::Builder::new()
        .name("vthread-0".to_string())
        .spawn(move || vthread_main(exec2, 0, move || (model)()))
        .expect("spawn model root");
    exec.handles.lock().expect("handles").push(root);

    // Kick the first scheduling decision, then wait for quiescence.
    {
        let mut st = exec.state.lock().expect("sched state");
        schedule_next(&mut st);
        exec.cv.notify_all();
        while st.live > 0 {
            st = exec.cv.wait(st).expect("sched state");
        }
    }
    // Every wrapper has run its epilogue; joins are instantaneous.
    for h in exec.handles.lock().expect("handles").drain(..) {
        let _ = h.join();
    }
    let mut st = exec.state.lock().expect("sched state");
    (std::mem::take(&mut st.recorded), st.failure.take())
}

/// Computes the DFS successor of a recorded choice stream: backtrack
/// past exhausted trailing decisions, bump the last one that still has
/// alternatives. `None` means the space is exhausted.
fn next_prefix(mut rec: Vec<Choice>) -> Option<Vec<Choice>> {
    loop {
        match rec.last().copied() {
            None => return None,
            Some((c, t)) if c + 1 >= t => {
                rec.pop();
            }
            Some((c, t)) => {
                let last = rec.len() - 1;
                rec[last] = (c + 1, t);
                return Some(rec);
            }
        }
    }
}

/// Explores interleavings of `model`: bounded exhaustive DFS first,
/// then seeded random sampling. Returns on the first failure (with its
/// replayable [`Schedule`]) or when both budgets are spent.
pub fn check<F>(opts: CheckOptions, model: F) -> CheckReport
where
    F: Fn() + Send + Sync + 'static,
{
    let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
    let _hook = HookGuard::install();
    let mut executions = 0u64;
    let mut exhausted = false;

    let mut prefix: Vec<Choice> = Vec::new();
    while (executions as usize) < opts.max_schedules_exhaustive {
        let (recorded, failure) = run_once(&model, prefix.clone(), None, opts.max_steps);
        executions += 1;
        if let Some(message) = failure {
            return CheckReport {
                executions,
                exhausted: false,
                failure: Some(Failure {
                    message,
                    schedule: Schedule { choices: recorded },
                }),
            };
        }
        match next_prefix(recorded) {
            None => {
                exhausted = true;
                break;
            }
            Some(next) => prefix = next,
        }
    }

    if !exhausted {
        for i in 0..opts.random_schedules {
            let rng = Pcg64::seed_from_u64(opts.seed.wrapping_add(i as u64));
            let (recorded, failure) = run_once(&model, Vec::new(), Some(rng), opts.max_steps);
            executions += 1;
            if let Some(message) = failure {
                return CheckReport {
                    executions,
                    exhausted: false,
                    failure: Some(Failure {
                        message,
                        schedule: Schedule { choices: recorded },
                    }),
                };
            }
        }
    }

    CheckReport {
        executions,
        exhausted,
        failure: None,
    }
}

/// Re-runs `model` under the exact choice stream of `schedule` (as
/// printed in a [`Failure`]). Returns the reproduced failure, or
/// `None` if the execution passes — which, for a schedule taken from a
/// failing [`check`] on the same model, indicates nondeterminism in
/// the model itself.
pub fn replay<F>(schedule: &Schedule, model: F) -> Option<Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
    let _hook = HookGuard::install();
    let (recorded, failure) = run_once(
        &model,
        schedule.choices.clone(),
        None,
        CheckOptions::default().max_steps,
    );
    failure.map(|message| Failure {
        message,
        schedule: Schedule { choices: recorded },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn trivial_model_passes_and_exhausts() {
        let report = check(CheckOptions::default(), || {
            let h = spawn(|| 7);
            assert_eq!(h.join(), 7);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhausted);
        assert!(report.executions >= 1);
    }

    #[test]
    fn exhaustive_exploration_finds_rare_interleaving() {
        // A bug that manifests only when the child runs before the
        // parent's second step — one specific scheduling decision.
        let report = check(CheckOptions::default(), || {
            let hit = Arc::new(AtomicUsize::new(0));
            let h2 = Arc::clone(&hit);
            let h = spawn(move || {
                h2.store(1, Ordering::SeqCst);
            });
            yield_now();
            let seen = hit.load(Ordering::SeqCst);
            h.join();
            assert_eq!(seen, 0, "child ran before parent resumed");
        });
        let failure = report.failure.expect("explorer must find the interleaving");
        assert!(failure.message.contains("child ran before parent resumed"));
        assert!(!failure.schedule.is_empty());
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        let report = check(CheckOptions::default(), || {
            // Block forever on an address nobody wakes.
            block_on_addr(0xdead, None);
        });
        let failure = report.failure.expect("deadlock must be reported");
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
    }

    #[test]
    fn virtual_time_advances_to_deadline() {
        let report = check(CheckOptions::default(), || {
            assert_eq!(now(), 0);
            sleep(1_000_000);
            assert_eq!(now(), 1_000_000);
            // A timed wait on a never-woken address times out at its
            // virtual deadline without wall-clock delay.
            let woken = block_on_addr(0xbeef, Some(now() + 500));
            assert!(!woken);
            assert_eq!(now(), 1_000_500);
        });
        report.assert_pass();
    }

    #[test]
    fn choice_is_explored_exhaustively() {
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let s = Arc::clone(&seen);
        let report = check(CheckOptions::default(), move || {
            let v = choice(3);
            s.lock().unwrap().insert(v);
        });
        report.assert_pass();
        assert!(report.exhausted);
        assert_eq!(*seen.lock().unwrap(), HashSet::from([0, 1, 2]));
    }

    #[test]
    fn failing_schedule_replays_byte_identically() {
        let model = || {
            let v = choice(4);
            let w = choice(3);
            assert!(!(v == 2 && w == 1), "boom v={v} w={w}");
        };
        let report = check(CheckOptions::default(), model);
        let failure = report.failure.expect("must find v=2,w=1");
        let token = failure.schedule.to_string();
        let parsed: Schedule = token.parse().expect("token parses");
        assert_eq!(parsed, failure.schedule);
        let replayed = replay(&parsed, model).expect("replay reproduces the failure");
        assert_eq!(format!("{failure}"), format!("{replayed}"));
    }

    #[test]
    fn step_budget_flags_livelock() {
        let opts = CheckOptions {
            max_schedules_exhaustive: 1,
            random_schedules: 0,
            max_steps: 200,
            ..CheckOptions::default()
        };
        let report = check(opts, || loop {
            yield_now();
        });
        let failure = report.failure.expect("livelock must trip the budget");
        assert!(failure.message.contains("step budget"), "{}", failure.message);
    }

    #[test]
    fn schedule_token_round_trips() {
        let sched = Schedule {
            choices: vec![(1, 3), (0, 2), (3, 4)],
        };
        let token = sched.to_string();
        assert_eq!(token, "v1:1/3,0/2,3/4");
        assert_eq!(token.parse::<Schedule>().unwrap(), sched);
        assert_eq!("v1:".parse::<Schedule>().unwrap(), Schedule::default());
        assert!("v0:1/2".parse::<Schedule>().is_err());
        assert!("v1:2/2".parse::<Schedule>().is_err());
        assert!("v1:x/2".parse::<Schedule>().is_err());
    }

    #[test]
    fn wake_addr_unblocks_waiter() {
        // Pin the default schedule only: the child parks at the spawn
        // point before the parent wakes it. (Exploring all schedules
        // would legitimately find the wake-before-park deadlock — this
        // test is about the wake primitive, not the protocol.)
        let opts = CheckOptions {
            max_schedules_exhaustive: 1,
            random_schedules: 0,
            ..CheckOptions::default()
        };
        let report = check(opts, || {
            let addr = 0x51;
            let h = spawn(move || {
                let woken = block_on_addr(addr, None);
                assert!(woken, "must be woken by notify, not timeout");
            });
            wake_addr(addr);
            h.join();
        });
        report.assert_pass();
    }

    #[test]
    fn panic_on_spawned_thread_fails_execution() {
        let report = check(CheckOptions::default(), || {
            let h = spawn(|| panic!("worker exploded"));
            h.join();
        });
        let failure = report.failure.expect("panic must surface");
        assert!(failure.message.contains("worker exploded"), "{}", failure.message);
    }
}
