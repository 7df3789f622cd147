//! Thread-communication primitives: MPMC channels, a scheduler-aware
//! lock, and the pluggable blocking [`backend`].
//!
//! [`channel::unbounded`] replaces the one `crossbeam::channel` use in
//! the engine's master/worker pool. Both sides are cloneable
//! (multi-producer **and** multi-consumer — plain `std::sync::mpsc`
//! receivers cannot be shared across a worker pool), and disconnection
//! semantics match crossbeam's:
//!
//! * `send` fails only when every receiver is gone;
//! * `recv` drains remaining messages, then fails once every sender is
//!   gone;
//! * `Receiver::iter` yields until the channel is empty *and*
//!   disconnected.
//!
//! Every blocking operation in this module routes through the
//! [`backend`]: an eventcount-style [`backend::Signal`] plus a
//! [`backend::Backend`] trait with two implementations. Outside a
//! model execution the std backend blocks on a real
//! `Mutex`/`Condvar` pair and measures time with `Instant`; inside
//! [`crate::sched::check`] the sched backend parks the calling
//! *virtual* thread, waits in **virtual time**, and turns every
//! operation entry into an explorable scheduling point. Production
//! code and model code therefore share these exact types.
//!
//! [`Mutex`] mirrors the `std::sync` surface (including poisoning)
//! but cooperates with the scheduler the same way, so a guard held
//! across a yield point still excludes — and deadlocks still get
//! *detected* rather than hanging the test.

use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

use crate::sched;

/// The pluggable blocking layer: an eventcount [`backend::Signal`] and
/// the [`backend::Backend`] trait that gives it semantics.
pub mod backend {
    use super::sched;
    use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, OnceLock};
    use std::time::{Duration, Instant};

    /// An eventcount: a monotonically increasing epoch plus a wait
    /// queue. The lost-wakeup-free pattern is
    ///
    /// ```text
    /// loop {
    ///     let e = signal.prepare();
    ///     { check predicate under your own lock; return if satisfied }
    ///     signal.wait(e, deadline);   // no-op if notified since prepare
    /// }
    /// ```
    ///
    /// because a notify that lands between the predicate check and the
    /// wait bumps the epoch and makes the wait return immediately.
    pub struct Signal {
        epoch: StdMutex<u64>,
        cv: StdCondvar,
    }

    impl Signal {
        /// A fresh signal at epoch 0.
        pub const fn new() -> Self {
            Signal {
                epoch: StdMutex::new(0),
                cv: StdCondvar::new(),
            }
        }

        /// Reads the current epoch; pass it to [`Signal::wait`].
        pub fn prepare(&self) -> u64 {
            current().prepare(self)
        }

        /// Blocks until the epoch moves past `epoch` or the absolute
        /// `deadline` (in backend ticks) passes. Returns `false` only
        /// on timeout. Returns immediately if the epoch already moved.
        pub fn wait(&self, epoch: u64, deadline: Option<u64>) -> bool {
            current().wait(self, epoch, deadline)
        }

        /// Bumps the epoch and wakes every waiter.
        pub fn notify_all(&self) {
            current().notify_all(self)
        }

        fn addr(&self) -> usize {
            self as *const Signal as usize
        }
    }

    impl Default for Signal {
        fn default() -> Self {
            Signal::new()
        }
    }

    /// Blocking/time semantics behind [`Signal`] and the lock types.
    /// One tick is one nanosecond; under the std backend ticks count
    /// from process start, under the sched backend they are the model
    /// execution's virtual clock.
    pub trait Backend: Send + Sync {
        /// Current epoch of `s`.
        fn prepare(&self, s: &Signal) -> u64;
        /// Waits for `s` to move past `epoch`; `false` means the
        /// deadline (absolute ticks) expired first.
        fn wait(&self, s: &Signal, epoch: u64, deadline: Option<u64>) -> bool;
        /// Bumps the epoch of `s` and wakes all waiters.
        fn notify_all(&self, s: &Signal);
        /// The clock, in ticks (1 tick = 1ns).
        fn now_ticks(&self) -> u64;
        /// A possible context switch. No-op under std; a scheduling
        /// point under the model checker.
        fn preempt(&self);
    }

    /// Real blocking on OS primitives and wall-clock time.
    pub struct StdBackend;

    /// Virtual blocking through [`crate::sched`]: parks the calling
    /// virtual thread and waits in virtual time.
    pub struct SchedBackend;

    static STD: StdBackend = StdBackend;
    static SCHED: SchedBackend = SchedBackend;

    /// The backend for the calling thread: the sched backend inside a
    /// model execution, the std backend everywhere else.
    pub fn current() -> &'static dyn Backend {
        if sched::active() {
            &SCHED
        } else {
            &STD
        }
    }

    fn origin() -> Instant {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        *ORIGIN.get_or_init(Instant::now)
    }

    impl Backend for StdBackend {
        fn prepare(&self, s: &Signal) -> u64 {
            *s.epoch.lock().expect("signal epoch")
        }

        fn wait(&self, s: &Signal, epoch: u64, deadline: Option<u64>) -> bool {
            let mut guard = s.epoch.lock().expect("signal epoch");
            while *guard == epoch {
                match deadline {
                    None => guard = s.cv.wait(guard).expect("signal epoch"),
                    Some(dl) => {
                        let now = self.now_ticks();
                        if now >= dl {
                            return false;
                        }
                        let (g, _) = s
                            .cv
                            .wait_timeout(guard, Duration::from_nanos(dl - now))
                            .expect("signal epoch");
                        guard = g;
                    }
                }
            }
            true
        }

        fn notify_all(&self, s: &Signal) {
            *s.epoch.lock().expect("signal epoch") += 1;
            s.cv.notify_all();
        }

        fn now_ticks(&self) -> u64 {
            u64::try_from(origin().elapsed().as_nanos()).unwrap_or(u64::MAX)
        }

        fn preempt(&self) {}
    }

    impl Backend for SchedBackend {
        fn prepare(&self, s: &Signal) -> u64 {
            *s.epoch.lock().expect("signal epoch")
        }

        fn wait(&self, s: &Signal, epoch: u64, deadline: Option<u64>) -> bool {
            loop {
                if *s.epoch.lock().expect("signal epoch") != epoch {
                    return true;
                }
                // No other virtual thread can run between the epoch
                // check above and the park below, so the re-check on a
                // timed-out wake is the only subtlety.
                let woken = sched::block_on_addr(s.addr(), deadline);
                if !woken {
                    return *s.epoch.lock().expect("signal epoch") != epoch;
                }
            }
        }

        fn notify_all(&self, s: &Signal) {
            *s.epoch.lock().expect("signal epoch") += 1;
            s.cv.notify_all();
            sched::wake_addr(s.addr());
        }

        fn now_ticks(&self) -> u64 {
            sched::now()
        }

        fn preempt(&self) {
            sched::yield_now();
        }
    }

    /// Converts a relative `Duration` into an absolute tick deadline on
    /// the current backend, saturating far-future values.
    pub fn deadline_after(timeout: Duration) -> u64 {
        let ticks = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        current().now_ticks().saturating_add(ticks)
    }
}

/// A mutual-exclusion lock with the `std::sync::Mutex` surface
/// (poisoning included) that cooperates with [`crate::sched`]: inside
/// a model execution, `lock` is a scheduling point and contention
/// parks the virtual thread instead of the OS thread, so a deadlock
/// becomes a reported model failure rather than a hung test.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]; unlocking wakes parked virtual threads
/// when a model execution is active.
pub struct MutexGuard<'a, T: ?Sized> {
    mx: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates the lock.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        self as *const Mutex<T> as *const () as usize
    }

    fn wrap<'a>(&'a self, g: std::sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        MutexGuard {
            mx: self,
            inner: Some(g),
        }
    }

    /// Acquires the lock, blocking (cooperatively, under a model
    /// execution) until it is free.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if sched::active() {
            backend::current().preempt();
            loop {
                match self.inner.try_lock() {
                    Ok(g) => return Ok(self.wrap(g)),
                    Err(TryLockError::Poisoned(e)) => {
                        return Err(PoisonError::new(self.wrap(e.into_inner())))
                    }
                    Err(TryLockError::WouldBlock) => {
                        sched::block_on_addr(self.addr(), None);
                    }
                }
            }
        } else {
            match self.inner.lock() {
                Ok(g) => Ok(self.wrap(g)),
                Err(e) => Err(PoisonError::new(self.wrap(e.into_inner()))),
            }
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Ok(self.wrap(g)),
            Err(TryLockError::Poisoned(e)) => Err(TryLockError::Poisoned(PoisonError::new(
                self.wrap(e.into_inner()),
            ))),
            Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() && sched::active() {
            sched::wake_addr(self.mx.addr());
        }
    }
}

/// Multi-producer multi-consumer FIFO channels.
pub mod channel {
    use super::backend::{self, Signal};
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Signal,
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// `send` failed because every receiver was dropped; carries the
    /// unsent message back.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// `recv` failed: the channel is empty and every sender was dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why a `try_recv` returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message queued right now, but senders are still alive.
        Empty,
        /// No message queued and no sender left to produce one.
        Disconnected,
    }

    /// Why a `recv_timeout` / `recv_deadline` returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait expired before a message arrived; senders may still
        /// deliver one later.
        Timeout,
        /// No message queued and no sender left to produce one.
        Disconnected,
    }

    /// Creates a channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Signal::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues a message; never blocks. Fails (returning the
        /// message) once every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            backend::current().preempt();
            let mut state = self.shared.state.lock().expect("channel lock");
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.queue.push_back(value);
            drop(state);
            self.shared.not_empty.notify_all();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().expect("channel lock").senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().expect("channel lock");
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                // Wake receivers blocked on an empty queue so they can
                // observe the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues the next message, blocking while the channel is
        /// empty. Fails once the channel is empty with no senders left.
        pub fn recv(&self) -> Result<T, RecvError> {
            backend::current().preempt();
            loop {
                let epoch = self.shared.not_empty.prepare();
                {
                    let mut state = self.shared.state.lock().expect("channel lock");
                    if let Some(value) = state.queue.pop_front() {
                        return Ok(value);
                    }
                    if state.senders == 0 {
                        return Err(RecvError);
                    }
                }
                self.shared.not_empty.wait(epoch, None);
            }
        }

        /// Dequeues the next message, giving up after `timeout`. Like
        /// [`Receiver::recv`] it drains queued messages before reporting
        /// a disconnect, so a message racing the deadline is preferred
        /// over the timeout whenever the lock observes it in time.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            backend::current().preempt();
            let deadline = backend::deadline_after(timeout);
            self.recv_until(deadline)
        }

        /// Dequeues the next message, giving up once `deadline` passes.
        /// A deadline already in the past still drains an immediately
        /// available message (one lock acquisition, no waiting).
        pub fn recv_deadline(
            &self,
            deadline: std::time::Instant,
        ) -> Result<T, RecvTimeoutError> {
            backend::current().preempt();
            // Re-expressed as a relative wait on the backend clock, so
            // a model execution measures it in virtual time.
            let timeout = deadline.saturating_duration_since(std::time::Instant::now());
            let deadline = backend::deadline_after(timeout);
            self.recv_until(deadline)
        }

        /// The shared wait loop behind the timed receives: `deadline`
        /// is absolute backend ticks.
        fn recv_until(&self, deadline: u64) -> Result<T, RecvTimeoutError> {
            loop {
                let epoch = self.shared.not_empty.prepare();
                {
                    let mut state = self.shared.state.lock().expect("channel lock");
                    if let Some(value) = state.queue.pop_front() {
                        return Ok(value);
                    }
                    if state.senders == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                }
                if backend::current().now_ticks() >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                // A timed-out wait still loops once more: the queue is
                // re-checked before the deadline verdict, so a message
                // landing exactly at the deadline is delivered.
                self.shared.not_empty.wait(epoch, Some(deadline));
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            backend::current().preempt();
            let mut state = self.shared.state.lock().expect("channel lock");
            if let Some(value) = state.queue.pop_front() {
                return Ok(value);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Number of currently queued messages.
        pub fn len(&self) -> usize {
            self.shared.state.lock().expect("channel lock").queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// A blocking iterator: yields messages until the channel is
        /// empty and disconnected.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().expect("channel lock").receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.state.lock().expect("channel lock").receivers -= 1;
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Blocking iterator over received messages; see [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{self, RecvTimeoutError, TryRecvError};
    use super::Mutex;
    use crate::sched::{self, CheckOptions};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = channel::unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recv_fails_after_all_senders_drop() {
        let (tx, rx) = channel::unbounded::<u8>();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        tx2.send(2).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = channel::unbounded();
        drop(rx);
        let err = tx.send(7u32).unwrap_err();
        assert_eq!(err.0, 7);
    }

    #[test]
    fn try_recv_distinguishes_empty_and_disconnected() {
        let (tx, rx) = channel::unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv(), Ok(9));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn multi_consumer_workers_drain_everything() {
        // The engine's exact topology: one master feeding N workers that
        // share a cloned receiver, results flowing back on a second
        // channel.
        let (req_tx, req_rx) = channel::unbounded::<usize>();
        let (res_tx, res_rx) = channel::unbounded::<usize>();
        let workers = 4;
        let jobs = 200;
        thread::scope(|scope| {
            for _ in 0..workers {
                let req_rx = req_rx.clone();
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    for job in req_rx.iter() {
                        if res_tx.send(job * 2).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(res_tx);
            for i in 0..jobs {
                req_tx.send(i).unwrap();
            }
            drop(req_tx);
            let mut got: Vec<usize> = res_rx.iter().collect();
            got.sort_unstable();
            assert_eq!(got, (0..jobs).map(|i| i * 2).collect::<Vec<_>>());
        });
    }

    #[test]
    fn recv_timeout_returns_queued_message_immediately() {
        let (tx, rx) = channel::unbounded();
        tx.send(5u8).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Ok(5));
    }

    #[test]
    fn recv_timeout_times_out_on_empty_channel() {
        let (tx, rx) = channel::unbounded::<u8>();
        let start = std::time::Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        drop(tx);
    }

    #[test]
    fn recv_timeout_reports_disconnect_over_timeout() {
        let (tx, rx) = channel::unbounded::<u8>();
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(3600)),
            Err(channel::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_deadline_in_the_past_still_drains_queue() {
        let (tx, rx) = channel::unbounded();
        tx.send(1u8).unwrap();
        let past = std::time::Instant::now() - Duration::from_secs(1);
        assert_eq!(rx.recv_deadline(past), Ok(1));
        assert_eq!(
            rx.recv_deadline(past),
            Err(channel::RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn recv_timeout_wakes_on_late_send() {
        let (tx, rx) = channel::unbounded();
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.send(42u8).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(42));
        handle.join().unwrap();
    }

    #[test]
    fn len_tracks_queue_depth() {
        let (tx, rx) = channel::unbounded();
        assert!(rx.is_empty());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        let _ = rx.recv();
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn mutex_works_under_std_backend() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let handle = thread::spawn(move || *m2.lock().unwrap() += 1);
        *m.lock().unwrap() += 1;
        handle.join().unwrap();
        assert_eq!(*m.lock().unwrap(), 2);
    }

    #[test]
    fn channel_disconnect_vs_delivery_under_model() {
        // Every interleaving of "send 9" vs "drop the sender" resolves
        // to exactly one of two outcomes — never a timeout, because the
        // parent only blocks at join, letting virtual time advance only
        // after the outcome is sealed.
        let report = sched::check(CheckOptions::default(), || {
            let (tx, rx) = channel::unbounded::<u8>();
            let h = sched::spawn(move || rx.recv_timeout(Duration::from_millis(5)));
            if sched::choice(2) == 0 {
                tx.send(9).unwrap();
                assert_eq!(h.join(), Ok(9));
            } else {
                drop(tx);
                assert_eq!(h.join(), Err(RecvTimeoutError::Disconnected));
            }
        });
        report.assert_pass();
        assert!(report.executions > 1);
    }

    #[test]
    fn channel_timeout_elapses_in_virtual_time() {
        let report = sched::check(CheckOptions::default(), || {
            let (tx, rx) = channel::unbounded::<u8>();
            let h = sched::spawn(move || rx.recv_timeout(Duration::from_millis(5)));
            // Sender stays alive but silent: the receiver must time
            // out — after 5ms of *virtual* time, not wall clock.
            assert_eq!(h.join(), Err(RecvTimeoutError::Timeout));
            assert!(sched::now() >= 5_000_000);
            drop(tx);
        });
        report.assert_pass();
    }

    #[test]
    fn mutex_excludes_across_yield_points_under_model() {
        let report = sched::check(CheckOptions::default(), || {
            let m = Arc::new(Mutex::new(0u32));
            let m2 = Arc::clone(&m);
            let h = sched::spawn(move || {
                let mut g = m2.lock().unwrap();
                let v = *g;
                sched::yield_now();
                *g = v + 1;
            });
            {
                let mut g = m.lock().unwrap();
                let v = *g;
                sched::yield_now();
                *g = v + 1;
            }
            h.join();
            assert_eq!(*m.lock().unwrap(), 2);
        });
        report.assert_pass();
    }

    #[test]
    fn explorer_finds_lost_update_without_a_lock() {
        // The same read-modify-write as above but unsynchronized: the
        // checker must find the interleaving where one increment is
        // lost. This is the checker's teeth at the primitive level.
        let report = sched::check(CheckOptions::default(), || {
            let c = Arc::new(AtomicU32::new(0));
            let c2 = Arc::clone(&c);
            let h = sched::spawn(move || {
                let v = c2.load(Ordering::SeqCst);
                sched::yield_now();
                c2.store(v + 1, Ordering::SeqCst);
            });
            let v = c.load(Ordering::SeqCst);
            sched::yield_now();
            c.store(v + 1, Ordering::SeqCst);
            h.join();
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
        });
        let failure = report.failure.expect("lost update must be found");
        assert!(failure.message.contains("lost update"), "{}", failure.message);
        // The failing schedule replays to the identical failure.
        let token: sched::Schedule = failure.schedule.to_string().parse().unwrap();
        let replayed = sched::replay(&token, || {
            let c = Arc::new(AtomicU32::new(0));
            let c2 = Arc::clone(&c);
            let h = sched::spawn(move || {
                let v = c2.load(Ordering::SeqCst);
                sched::yield_now();
                c2.store(v + 1, Ordering::SeqCst);
            });
            let v = c.load(Ordering::SeqCst);
            sched::yield_now();
            c.store(v + 1, Ordering::SeqCst);
            h.join();
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
        })
        .expect("replay reproduces");
        assert_eq!(format!("{failure}"), format!("{replayed}"));
    }
}
