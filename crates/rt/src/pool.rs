//! A scoped worker pool for data-parallel kernels.
//!
//! [`Pool::run`] executes a borrowed closure over a set of task indices
//! across a fixed set of lanes: lane `L` of `lanes` runs tasks
//! `L, L + lanes, L + 2·lanes, …` in ascending order, the caller is
//! always lane 0, and `run` does not return until **every** lane has
//! finished — including on panic paths. That barrier is what makes the
//! borrow sound (tasks may capture references to the caller's stack)
//! and what the GEMM kernels in `ecad-tensor` lean on for row-panel
//! parallelism: task assignment is a pure function of the task index,
//! so *which OS thread runs a task never affects what the task
//! computes*.
//!
//! Like the rest of the workspace's concurrency layer, the pool is
//! built on [`crate::sync`] primitives only (channels for dispatch, a
//! [`Latch`] on a [`backend::Signal`](crate::sync::backend::Signal)
//! for the join barrier), so the same join logic runs under the
//! [`crate::sched`] model checker. Inside a model execution, `run`
//! spawns *virtual* threads per lane instead of using the OS workers,
//! and the latch parks virtual threads in virtual time — the join
//! protocol is explorable exactly as shipped (see
//! `crates/rt/tests/pool_model.rs`).
//!
//! Panic semantics:
//!
//! * a panic in a **worker** lane is caught on the worker (the worker
//!   thread and the pool survive), recorded in the latch, and re-raised
//!   from `run` on the caller after all lanes have finished;
//! * a panic in the **caller's** lane 0 still waits for the other
//!   lanes before resuming the unwind, so borrowed data stays alive
//!   until every lane is done;
//! * under a model execution, a panicking lane fails the whole model
//!   execution (that is [`crate::sched`]'s contract for any vthread).
//!
//! Nested use is safe: `run` called from inside a pool task executes
//! serially inline rather than re-entering the queue, so worker lanes
//! can never deadlock waiting on work queued behind themselves.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use crate::sched;
use crate::sync::backend::Signal;
use crate::sync::{channel, Mutex};

/// A countdown barrier: `parties` lanes each [`Latch::arrive`] exactly
/// once (optionally carrying a panic message), and [`Latch::wait`]
/// blocks until all of them have. This is the pool's join primitive,
/// public so the model-check suite can drive it directly.
pub struct Latch {
    state: Mutex<LatchState>,
    signal: Signal,
}

struct LatchState {
    remaining: usize,
    panic: Option<String>,
}

impl Latch {
    /// A latch expecting `parties` arrivals.
    pub fn new(parties: usize) -> Latch {
        Latch {
            state: Mutex::new(LatchState {
                remaining: parties,
                panic: None,
            }),
            signal: Signal::new(),
        }
    }

    /// Records one lane's completion. `panic` carries the panic message
    /// when the lane's task panicked (first message wins).
    ///
    /// # Panics
    ///
    /// Panics if called more times than the latch has parties.
    pub fn arrive(&self, panic: Option<String>) {
        {
            let mut st = self.state.lock().expect("latch state");
            assert!(st.remaining > 0, "latch arrive past zero");
            st.remaining -= 1;
            if st.panic.is_none() {
                st.panic = panic;
            }
        }
        self.signal.notify_all();
    }

    /// Blocks until every party has arrived. Returns the first recorded
    /// panic message, if any lane panicked.
    ///
    /// The quiescence guarantee is the load-bearing part: `wait`
    /// returns only when `remaining == 0`, *even if* a panic was
    /// recorded earlier — a caller that freed borrowed task data on the
    /// first panic report, while other lanes were still running, would
    /// be unsound.
    pub fn wait(&self) -> Option<String> {
        loop {
            let epoch = self.signal.prepare();
            {
                let st = self.state.lock().expect("latch state");
                if st.remaining == 0 {
                    return st.panic.clone();
                }
            }
            self.signal.wait(epoch, None);
        }
    }
}

/// A borrowed task closure whose lifetime has been erased so it can
/// cross to a worker thread. Soundness: `Pool::run` never returns (or
/// unwinds) before every lane holding one of these has arrived at the
/// latch.
#[derive(Clone, Copy)]
struct JobRef(&'static (dyn Fn(usize) + Sync));

struct Msg {
    job: JobRef,
    lane: usize,
    lanes: usize,
    tasks: usize,
    latch: Arc<Latch>,
}

/// Lane `lane` of `lanes` runs tasks `lane, lane + lanes, …` in
/// ascending order. Assignment depends only on the indices, never on
/// thread identity or timing.
fn run_lane(job: &(dyn Fn(usize) + Sync), lane: usize, lanes: usize, tasks: usize) {
    let mut t = lane;
    while t < tasks {
        job(t);
        t += lanes;
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// True on pool worker threads (and inside inline nested runs):
    /// `run` from such a context executes serially instead of
    /// re-entering the queue.
    static IN_POOL_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn worker_main(rx: channel::Receiver<Msg>) {
    IN_POOL_TASK.with(|f| f.set(true));
    for msg in rx.iter() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_lane(msg.job.0, msg.lane, msg.lanes, msg.tasks);
        }));
        msg.latch.arrive(outcome.err().map(|p| panic_message(p.as_ref())));
    }
}

/// A fixed-size scoped worker pool; see the module docs for the
/// execution and panic model.
pub struct Pool {
    txs: Vec<channel::Sender<Msg>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Creates a pool with `threads` parallel lanes: the caller's lane
    /// plus `threads - 1` OS worker threads (`threads` is clamped to at
    /// least 1; a 1-lane pool runs everything inline).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let mut txs = Vec::with_capacity(threads - 1);
        let mut handles = Vec::with_capacity(threads - 1);
        for w in 1..threads {
            let (tx, rx) = channel::unbounded::<Msg>();
            let handle = std::thread::Builder::new()
                .name(format!("rt-pool-{w}"))
                .spawn(move || worker_main(rx))
                .expect("spawn pool worker");
            txs.push(tx);
            handles.push(handle);
        }
        Pool {
            txs,
            handles,
            threads,
        }
    }

    /// Number of parallel lanes (caller included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(t)` for every `t in 0..tasks` across
    /// `min(self.threads(), tasks)` lanes and returns once **all** of
    /// them have completed. See the module docs for lane assignment,
    /// panic semantics, and model-checker behavior.
    pub fn run<F: Fn(usize) + Sync>(&self, tasks: usize, job: F) {
        self.run_dyn(tasks, &job);
    }

    fn run_dyn(&self, tasks: usize, job: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        let lanes = self.threads.min(tasks);
        if lanes <= 1 || IN_POOL_TASK.with(|f| f.get()) {
            run_lane(job, 0, 1, tasks);
            return;
        }
        // SAFETY: the erased reference escapes only into lanes that
        // arrive at a latch (or a joined vthread), and both paths below
        // wait for all of them before returning or unwinding.
        let job_static = JobRef(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        });
        if sched::active() {
            run_under_model(job_static, lanes, tasks);
            return;
        }
        let latch = Arc::new(Latch::new(lanes - 1));
        for lane in 1..lanes {
            self.txs[lane - 1]
                .send(Msg {
                    job: job_static,
                    lane,
                    lanes,
                    tasks,
                    latch: Arc::clone(&latch),
                })
                .expect("pool worker alive");
        }
        let mine = catch_unwind(AssertUnwindSafe(|| run_lane(job, 0, lanes, tasks)));
        let worker_panic = latch.wait();
        if let Err(p) = mine {
            resume_unwind(p);
        }
        if let Some(msg) = worker_panic {
            panic!("pool task panicked: {msg}");
        }
    }
}

/// Model-execution path: one virtual thread per worker lane, the same
/// latch barrier, then an explicit join so the vthreads finish inside
/// the execution. Lane panics fail the model execution (sched's
/// vthread contract), so only the join path is explorable here; the
/// panic bookkeeping is model-checked through [`Latch`] directly.
fn run_under_model(job: JobRef, lanes: usize, tasks: usize) {
    let latch = Arc::new(Latch::new(lanes - 1));
    let mut handles = Vec::with_capacity(lanes - 1);
    for lane in 1..lanes {
        let latch = Arc::clone(&latch);
        handles.push(sched::spawn(move || {
            run_lane(job.0, lane, lanes, tasks);
            latch.arrive(None);
        }));
    }
    run_lane(job.0, 0, lanes, tasks);
    let panic = latch.wait();
    for h in handles {
        h.join();
    }
    debug_assert!(panic.is_none(), "vthread panics abort the execution");
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Dropping the senders disconnects the workers' queues; each
        // worker drains what it already received, then exits.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.threads).finish()
    }
}

/// The process-wide shared pool, created on first use. Sized by the
/// `ECAD_POOL_THREADS` environment variable when set, otherwise
/// `max(available_parallelism, 8)` — the floor lets tests exercise
/// lane counts above the host's core count (oversubscribed lanes are
/// harmless: callers cap how many they actually use).
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("ECAD_POOL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(256);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(8, 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, |t| {
            hits[t].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn lane_assignment_is_a_pure_function_of_index() {
        // Task t runs on lane t % lanes and lanes scan ascending; with
        // per-lane logs the observed order per lane must be exactly
        // t, t+lanes, t+2*lanes, ...
        let pool = Pool::new(3);
        let logs: Vec<Mutex<Vec<usize>>> = (0..3).map(|_| Mutex::new(Vec::new())).collect();
        pool.run(11, |t| {
            logs[t % 3].lock().unwrap().push(t);
        });
        for (lane, log) in logs.iter().enumerate() {
            let got = log.lock().unwrap().clone();
            let expect: Vec<usize> = (0..11).filter(|t| t % 3 == lane).collect();
            assert_eq!(got, expect, "lane {lane}");
        }
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let pool = Pool::new(1);
        let tid = std::thread::current().id();
        pool.run(5, |_| assert_eq!(std::thread::current().id(), tid));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = Pool::new(3);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |t| {
                if t == 5 {
                    panic!("boom on {t}");
                }
            });
        }))
        .unwrap_err();
        assert!(panic_message(err.as_ref()).contains("boom on 5"));
        // The pool is still functional after a task panic.
        let count = AtomicUsize::new(0);
        pool.run(16, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn caller_lane_panic_still_waits_for_workers() {
        let pool = Pool::new(2);
        let done = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, |t| {
                if t == 0 {
                    // Caller's lane panics while the worker lane is
                    // (possibly) still running.
                    panic!("caller lane");
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    done.fetch_add(1, Ordering::SeqCst);
                }
            });
        }))
        .unwrap_err();
        assert!(panic_message(err.as_ref()).contains("caller lane"));
        // run() must not have unwound before the worker lane finished.
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_run_from_a_worker_lane_degrades_to_serial() {
        let pool = Pool::new(3);
        let count = AtomicUsize::new(0);
        pool.run(6, |_| {
            // Re-entering the pool from inside a task must not deadlock.
            global().run(4, |_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 24);
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let pool = Pool::new(4);
        pool.run(0, |_| panic!("must not run"));
    }

    #[test]
    fn global_pool_has_at_least_the_test_floor() {
        assert!(global().threads() >= 8 || std::env::var("ECAD_POOL_THREADS").is_ok());
    }
}
