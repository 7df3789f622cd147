//! Worker supervision: restartable worker slots, plus a cooperative
//! [`ShutdownFlag`].
//!
//! The engine's master/worker pool needs three guarantees a plain
//! `thread::scope` cannot give:
//!
//! 1. a worker whose body **panics** outside the per-job catch is
//!    restarted in place instead of silently shrinking the pool;
//! 2. a worker **stalled** inside a non-cooperative evaluation can be
//!    *abandoned*: the supervisor bumps the slot's generation counter
//!    and spawns a replacement thread, while the stuck thread notices
//!    its stale generation at the next loop boundary and exits;
//! 3. the master can map a timed-out job id back to the slot holding it
//!    via the **claim table** ([`SlotCtx::claim`] / [`SlotCtx::release`]).
//!
//! Abandonment requires *detached* threads: joining a truly hung thread
//! would block forever, so the supervisor never joins. Worker bodies
//! must therefore terminate on their own when their input channel
//! disconnects — exactly how the engine's workers already behave.
//!
//! The supervisor keeps no counters: the driver that decides on a
//! respawn counts it (the engine's `RunCounters` count timeouts and
//! respawns).
//!
//! ```
//! use rt::supervise::Supervisor;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let ran = Arc::new(AtomicU64::new(0));
//! let mut sup = Supervisor::new();
//! let flag = ran.clone();
//! sup.spawn(move |_ctx| {
//!     flag.fetch_add(1, Ordering::SeqCst);
//! });
//! while ran.load(Ordering::SeqCst) == 0 {
//!     std::thread::yield_now();
//! }
//! assert_eq!(sup.slots(), 1);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// A cooperative shutdown request shared between the driver (CLI /
/// signal handler) and long-running loops that should wind down at the
/// next safe boundary.
#[derive(Clone, Debug, Default)]
pub struct ShutdownFlag {
    requested: Arc<AtomicBool>,
}

impl ShutdownFlag {
    /// A fresh flag with no shutdown requested.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests shutdown. Loops holding a clone observe it via
    /// [`ShutdownFlag::is_requested`] at their next check.
    pub fn request(&self) {
        crate::sched::maybe_yield();
        self.requested.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested on any clone of this flag
    /// (or by an installed signal handler).
    pub fn is_requested(&self) -> bool {
        crate::sched::maybe_yield();
        self.requested.load(Ordering::Acquire) || signal::tripped()
    }

    /// Installs SIGINT/SIGTERM handlers that trip a process-global
    /// latch observed by **every** `ShutdownFlag`. No-op on non-unix
    /// platforms. Idempotent.
    pub fn install_termination_handler(&self) {
        signal::install();
    }
}

#[cfg(unix)]
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set from the signal handler; a store into an atomic is
    /// async-signal-safe.
    static TRIPPED: AtomicBool = AtomicBool::new(false);
    static INSTALLED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// libc's `signal(2)`; std already links libc on unix, so the
        /// symbol resolves without a crates.io dependency.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_terminate(_signum: i32) {
        TRIPPED.store(true, Ordering::Release);
    }

    pub fn tripped() -> bool {
        TRIPPED.load(Ordering::Acquire)
    }

    pub fn install() {
        if INSTALLED.swap(true, Ordering::AcqRel) {
            return;
        }
        // SAFETY: the handler only stores to an atomic, which is
        // async-signal-safe; `on_terminate` has the handler ABI.
        unsafe {
            signal(SIGINT, on_terminate as *const () as usize);
            signal(SIGTERM, on_terminate as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod signal {
    pub fn tripped() -> bool {
        false
    }

    pub fn install() {}
}

/// Per-slot state shared between the supervisor and the slot's threads
/// (current plus any abandoned predecessors): the generation fence and
/// the claim table for one worker slot.
///
/// Public so the generation-fencing protocol can be model-checked under
/// [`crate::sched`] without spawning detached OS threads: a model
/// builds `SlotState`s directly and drives claim/release/respawn from
/// virtual threads. Every operation is a scheduling point under an
/// active model execution ([`crate::sched::maybe_yield`]), so the
/// explorer can interleave a stale worker's release with a respawn's
/// claim-clear — exactly the races the fence exists for.
#[derive(Debug, Default)]
pub struct SlotState {
    /// Bumped on every respawn; threads from older generations exit at
    /// their next [`SlotCtx::is_current`] check.
    generation: AtomicU64,
    /// Job id + 1 currently claimed by the slot's thread; 0 when idle.
    claim: AtomicU64,
}

impl SlotState {
    /// A fresh slot at generation 0 with no claim.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot's current generation.
    pub fn generation(&self) -> u64 {
        crate::sched::maybe_yield();
        self.generation.load(Ordering::Acquire)
    }

    /// Whether a thread launched at `generation` is still the slot's
    /// active generation.
    pub fn is_current(&self, generation: u64) -> bool {
        crate::sched::maybe_yield();
        self.generation.load(Ordering::Acquire) == generation
    }

    /// Abandons the current generation (a respawn): bumps the fence
    /// and returns the new generation. The caller separately clears
    /// the claim via [`SlotState::clear_claim`] — the window between
    /// the two is a real protocol state the model checker explores.
    pub fn bump_generation(&self) -> u64 {
        crate::sched::maybe_yield();
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Clears the claim unconditionally (respawn path: the replacement
    /// must start from an idle slot).
    pub fn clear_claim(&self) {
        crate::sched::maybe_yield();
        self.claim.store(0, Ordering::Release);
    }

    /// Records that the slot is processing `job` (stored as `job + 1`;
    /// 0 means idle).
    pub fn claim(&self, job: u64) {
        crate::sched::maybe_yield();
        self.claim.store(job + 1, Ordering::Release);
    }

    /// Clears the claim on `job` if it is still held. A stale thread
    /// whose slot was respawned (and re-claimed) in the meantime
    /// leaves the newer claim untouched.
    pub fn release(&self, job: u64) {
        crate::sched::maybe_yield();
        let _ = self
            .claim
            .compare_exchange(job + 1, 0, Ordering::AcqRel, Ordering::Relaxed);
    }

    /// The job currently claimed by the slot, if any.
    pub fn claimed_job(&self) -> Option<u64> {
        crate::sched::maybe_yield();
        match self.claim.load(Ordering::Acquire) {
            0 => None,
            v => Some(v - 1),
        }
    }
}

type SlotBody = Arc<dyn Fn(&SlotCtx) + Send + Sync + 'static>;

struct SlotEntry {
    shared: Arc<SlotState>,
    body: SlotBody,
}

/// A pool of restartable worker slots. Each [`Supervisor::spawn`] call
/// creates one slot running one detached thread; [`Supervisor::respawn`]
/// abandons a slot's current thread and starts a fresh one.
#[derive(Default)]
pub struct Supervisor {
    slots: Vec<SlotEntry>,
}

/// Handle a slot body receives: identifies the slot and generation the
/// body is running under, and exposes the claim table.
pub struct SlotCtx {
    slot: usize,
    generation: u64,
    shared: Arc<SlotState>,
}

impl SlotCtx {
    /// The slot index this body runs in.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The generation this body was launched as.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether this thread is still the slot's active generation. A
    /// body should check this at every loop boundary and return when it
    /// turns false — that is how an abandoned (respawned-over) thread
    /// winds down.
    pub fn is_current(&self) -> bool {
        self.shared.is_current(self.generation)
    }

    /// Records that this slot is now processing `job`, so the driver
    /// can map a timed-out job back to the slot holding it.
    pub fn claim(&self, job: u64) {
        self.shared.claim(job);
    }

    /// Clears this slot's claim on `job`. A stale thread whose slot was
    /// respawned (and re-claimed) in the meantime leaves the newer
    /// claim untouched.
    pub fn release(&self, job: u64) {
        self.shared.release(job);
    }
}

impl Supervisor {
    /// An empty supervisor; add slots with [`Supervisor::spawn`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots (not threads: an abandoned thread and its
    /// replacement share one slot).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Creates a new slot running `body` on a detached thread and
    /// returns its index. The body is retained so the slot can be
    /// respawned; if it panics it is restarted in the same thread, and
    /// when it returns normally the thread ends.
    pub fn spawn<F>(&mut self, body: F) -> usize
    where
        F: Fn(&SlotCtx) + Send + Sync + 'static,
    {
        let idx = self.slots.len();
        self.slots.push(SlotEntry {
            shared: Arc::new(SlotState::new()),
            body: Arc::new(body),
        });
        self.launch(idx);
        idx
    }

    /// Abandons `slot`'s current thread and launches a replacement.
    /// The old thread is *not* interrupted — a stall means it cannot be
    /// — but its stale generation makes it exit at its next
    /// [`SlotCtx::is_current`] check, and any claim it still holds is
    /// cleared here so the fresh thread starts from an idle slot.
    pub fn respawn(&self, slot: usize) {
        let entry = &self.slots[slot];
        entry.shared.bump_generation();
        entry.shared.clear_claim();
        self.launch(slot);
    }

    /// The slot currently claiming `job`, if any. `None` means the job
    /// is still queued (no worker picked it up yet) or already released.
    pub fn claimed_slot(&self, job: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.shared.claimed_job() == Some(job))
    }

    fn launch(&self, idx: usize) {
        let shared = Arc::clone(&self.slots[idx].shared);
        let body = Arc::clone(&self.slots[idx].body);
        let generation = shared.generation();
        let builder = thread::Builder::new().name(format!("rt-worker-{idx}"));
        let handle = builder.spawn(move || {
            let ctx = SlotCtx {
                slot: idx,
                generation,
                shared,
            };
            loop {
                match catch_unwind(AssertUnwindSafe(|| (body)(&ctx))) {
                    // Normal return: the body drained its input; done.
                    Ok(()) => break,
                    Err(_) => {
                        // Restart in place — unless this thread was
                        // already abandoned by a respawn.
                        if !ctx.is_current() {
                            break;
                        }
                    }
                }
            }
        });
        // Detached on purpose: joining a hung thread would block
        // forever, and abandoned threads exit on their own.
        drop(handle.expect("spawn supervised worker"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::channel;
    use std::time::Duration;

    fn wait_until(mut cond: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(
                std::time::Instant::now() < deadline,
                "condition not reached within 10s"
            );
            thread::yield_now();
        }
    }

    #[test]
    fn body_runs_and_returns() {
        let (tx, rx) = channel::unbounded::<u32>();
        let (out_tx, out_rx) = channel::unbounded::<u32>();
        let mut sup = Supervisor::new();
        sup.spawn(move |_ctx| {
            for v in rx.iter() {
                let _ = out_tx.send(v * 10);
            }
        });
        tx.send(4).unwrap();
        drop(tx);
        assert_eq!(out_rx.recv(), Ok(40));
        // The supervisor retains the body (and its captured sender) for
        // respawns; dropping it lets the disconnect become observable.
        drop(sup);
        assert!(out_rx.recv().is_err(), "body exits when input disconnects");
    }

    #[test]
    fn panicking_body_restarts_in_place() {
        let (tx, rx) = channel::unbounded::<u32>();
        let (out_tx, out_rx) = channel::unbounded::<u32>();
        let mut sup = Supervisor::new();
        sup.spawn(move |_ctx| {
            for v in rx.iter() {
                if v == 13 {
                    panic!("injected");
                }
                let _ = out_tx.send(v);
            }
        });
        tx.send(1).unwrap();
        tx.send(13).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let mut got = vec![out_rx.recv().unwrap(), out_rx.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "messages around the panic survive");
    }

    #[test]
    fn respawn_replaces_a_stalled_thread() {
        let (tx, rx) = channel::unbounded::<u64>();
        let (out_tx, out_rx) = channel::unbounded::<u64>();
        let (stall_tx, stall_rx) = channel::unbounded::<()>();
        let mut sup = Supervisor::new();
        sup.spawn(move |ctx| {
            for job in rx.iter() {
                ctx.claim(job);
                if job == 7 && ctx.generation() == 0 {
                    // Simulate a stall: block until the test releases
                    // us, then observe we were abandoned.
                    let _ = stall_rx.recv();
                }
                ctx.release(job);
                if !ctx.is_current() {
                    return;
                }
                let _ = out_tx.send(job);
            }
        });
        tx.send(7).unwrap();
        wait_until(|| sup.claimed_slot(7).is_some());
        assert_eq!(sup.claimed_slot(7), Some(0));

        // Master notices the stall and respawns the slot.
        sup.respawn(0);
        assert_eq!(sup.claimed_slot(7), None, "respawn clears the claim");

        // The replacement thread processes new work.
        tx.send(8).unwrap();
        assert_eq!(out_rx.recv(), Ok(8));

        // Release the stalled thread; it exits without emitting its job.
        stall_tx.send(()).unwrap();
        drop(tx);
        drop(sup);
        assert_eq!(out_rx.recv().ok(), None, "stale thread exits silently");
    }

    #[test]
    fn shutdown_flag_propagates_to_clones() {
        let flag = ShutdownFlag::new();
        let clone = flag.clone();
        assert!(!clone.is_requested());
        flag.request();
        assert!(clone.is_requested());
    }
}
