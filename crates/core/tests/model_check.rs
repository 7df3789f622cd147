//! Model checks for the engine's concurrency protocols.
//!
//! Each suite builds a small model of one master-loop protocol — the
//! same `DispatchLedger` / `SlotState` / `ShutdownFlag` code the
//! engine runs, driven over `rt::sync` channels under the `rt::sched`
//! deterministic scheduler — and explores its interleavings with
//! [`rt::sched::check`]. Virtual time stands in for wall-clock
//! deadlines and backoffs, so a "2-second stall" costs nothing.
//!
//! Every suite comes in two flavors:
//!
//! * the **shipped** protocol, which must pass across the whole
//!   explored schedule space, and
//! * a **deliberately broken** variant (a seeded mutation: a dropped
//!   stale-check, a skipped generation fence, a lossy journal recovery),
//!   which the checker must *catch* within the same budget — proof
//!   that a pass over the shipped protocol means something. Each
//!   mutant is a flag of its model, applied where the model calls the
//!   shipped code, so the shipped code carries no test-only switches.
//!
//! A found failure prints a schedule token; feeding that token back
//! through [`rt::sched::replay`] reproduces the identical failure,
//! which the replay test asserts byte-for-byte.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ecad_core::protocol::{DispatchLedger, ResultClass};
use rt::sched::{self, CheckOptions};
use rt::supervise::{ShutdownFlag, SlotState};
use rt::sync::channel::{self, RecvTimeoutError};

/// Bounded budgets sized for CI: the shipped models explore to
/// exhaustion well inside these numbers, and every seeded mutant is
/// caught inside them too (asserted below).
fn budget() -> CheckOptions {
    CheckOptions {
        max_schedules_exhaustive: 4_000,
        random_schedules: 256,
        max_steps: 50_000,
        ..CheckOptions::default()
    }
}

// ---------------------------------------------------------------------------
// Suite 1: dispatch → deadline → retry → stale-result-drop.
// ---------------------------------------------------------------------------

/// One job through the engine's dispatch protocol against a worker
/// that nondeterministically stalls past the deadline. The master
/// mirrors `Engine::run_inner`: fill the pipeline (ready retries
/// first), sleep until a result or the next deadline, classify
/// arrivals through the ledger, expire overdue dispatches into
/// retries or final timeout verdicts.
///
/// Invariants: a worker result is never [`ResultClass::Unknown`], and
/// the job receives exactly one final verdict no matter how dispatch,
/// stall, timeout, retry, and late delivery interleave. The
/// `lose_stale` mutant reads a [`ResultClass::Stale`] as `Unknown`,
/// modeling an engine that lost track of abandoned work.
fn dispatch_protocol_model(lose_stale: bool) {
    const DEADLINE_TICKS: u64 = 1_000;
    const BACKOFF_TICKS: u64 = 100;
    const MAX_RETRIES: usize = 1;

    let (req_tx, req_rx) = channel::unbounded::<(u64, u32)>();
    let (res_tx, res_rx) = channel::unbounded::<(u64, u32)>();

    let worker = sched::spawn(move || {
        while let Ok((id, job)) = req_rx.recv() {
            if sched::choice(2) == 1 {
                // Stall past the master's deadline; the result below
                // arrives late and must drop as stale.
                sched::sleep(DEADLINE_TICKS + 10);
            }
            if res_tx.send((id, job)).is_err() {
                return;
            }
        }
    });

    let mut ledger: DispatchLedger<u32, u64> = DispatchLedger::new();
    let take_result = |ledger: &mut DispatchLedger<u32, u64>, id| match ledger.take_result(id) {
        ResultClass::Stale if lose_stale => ResultClass::Unknown,
        class => class,
    };
    let mut to_submit = vec![7u32];
    let mut next_id = 0u64;
    let mut verdicts: Vec<(u32, &str)> = Vec::new();

    loop {
        while ledger.in_flight_len() < 1 {
            let (job, attempt) = if let Some((attempt, job)) = ledger.pop_ready_retry(sched::now())
            {
                (job, attempt)
            } else if let Some(job) = to_submit.pop() {
                (job, 0)
            } else {
                break;
            };
            let id = next_id;
            next_id += 1;
            ledger.dispatch(id, job, attempt, Some(sched::now() + DEADLINE_TICKS));
            req_tx.send((id, job)).expect("worker alive");
        }
        if ledger.quiescent() && to_submit.is_empty() {
            break;
        }

        let received = match ledger.next_wake() {
            None => Some(res_rx.recv().expect("worker alive")),
            Some(wake) => {
                let timeout = Duration::from_nanos(wake.saturating_sub(sched::now()));
                match res_rx.recv_timeout(timeout) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => unreachable!("worker holds sender"),
                }
            }
        };
        match received {
            Some((id, job)) => match take_result(&mut ledger, id) {
                ResultClass::Fresh(done) => {
                    assert_eq!(done.payload, job, "result paired with wrong job");
                    verdicts.push((job, "ok"));
                }
                ResultClass::Stale => {}
                ResultClass::Unknown => {
                    panic!("result for id {id} is neither fresh nor stale")
                }
            },
            None => {
                for (_id, late) in ledger.expire(sched::now()) {
                    if late.attempt < MAX_RETRIES {
                        ledger.schedule_retry(
                            sched::now() + BACKOFF_TICKS,
                            late.attempt + 1,
                            late.payload,
                        );
                    } else {
                        verdicts.push((late.payload, "timeout"));
                    }
                }
            }
        }
    }

    drop(req_tx);
    worker.join();
    // Any result still buffered belongs to an abandoned dispatch and
    // must classify as stale — never unknown, never a second verdict.
    while let Ok((id, _job)) = res_rx.try_recv() {
        match take_result(&mut ledger, id) {
            ResultClass::Stale => {}
            other => panic!("late result for id {id} misclassified as {other:?}"),
        }
    }
    assert_eq!(
        verdicts.len(),
        1,
        "job must get exactly one final verdict, got {verdicts:?}"
    );
}

#[test]
fn dispatch_protocol_holds_across_interleavings() {
    let report = sched::check(budget(), || dispatch_protocol_model(false));
    report.assert_pass();
    assert!(report.exhausted, "model grew past the exhaustive budget");
}

#[test]
fn checker_catches_dropped_stale_tracking() {
    let report = sched::check(budget(), || dispatch_protocol_model(true));
    let failure = report
        .failure
        .expect("mutant that loses stale ids must be caught");
    assert!(
        failure.message.contains("neither fresh nor stale")
            || failure.message.contains("misclassified"),
        "caught the wrong bug: {}",
        failure.message
    );
}

#[test]
fn failing_schedule_replays_byte_identically() {
    let report = sched::check(budget(), || dispatch_protocol_model(true));
    let failure = report.failure.expect("mutant must be caught");

    // Round-trip the schedule through its printed token, as a user
    // pasting it from a CI log would.
    let token = failure.schedule.to_string();
    let parsed: sched::Schedule = token.parse().expect("token parses");
    let replayed =
        sched::replay(&parsed, || dispatch_protocol_model(true)).expect("failure replays");
    assert_eq!(replayed.message, failure.message);
    assert_eq!(replayed.schedule, failure.schedule);
}

// ---------------------------------------------------------------------------
// Suite 2: worker panic/stall → respawn → generation fencing.
// ---------------------------------------------------------------------------

/// A supervised slot through a respawn: worker 0 holds the slot at
/// generation `g0`, the master declares it stalled and respawns
/// (bump + clear claim), worker 1 takes over at `g1`, and both race
/// for the remaining jobs. The `fence` knob is the protocol under
/// test: the shipped worker loop re-checks `SlotState::is_current`
/// after every job and winds down when stale; the mutant skips the
/// check and keeps consuming work.
///
/// Invariant: after the respawn, the stale worker completes at most
/// the one job it already held — it never claims a second.
fn respawn_fencing_model(fence: bool) {
    let (req_tx, req_rx) = channel::unbounded::<u64>();
    let slot = Arc::new(SlotState::new());
    let bumped = Arc::new(AtomicBool::new(false));
    let stale_jobs = Arc::new(AtomicU64::new(0));

    let g0 = slot.generation();
    let w0 = sched::spawn({
        let req_rx = req_rx.clone();
        let slot = Arc::clone(&slot);
        let bumped = Arc::clone(&bumped);
        let stale_jobs = Arc::clone(&stale_jobs);
        move || {
            while let Ok(job) = req_rx.recv() {
                slot.claim(job);
                sched::yield_now(); // the evaluation
                slot.release(job);
                if bumped.load(Ordering::SeqCst) {
                    stale_jobs.fetch_add(1, Ordering::SeqCst);
                }
                if fence && !slot.is_current(g0) {
                    return;
                }
            }
        }
    });

    req_tx.send(1).expect("worker alive");
    sched::yield_now();

    // The master declares w0 stalled and respawns the slot. `bumped`
    // is set only after the bump, so a job counted as stale below is
    // guaranteed to have finished after the generation moved on.
    let g1 = slot.bump_generation();
    slot.clear_claim();
    bumped.store(true, Ordering::SeqCst);

    let w1 = sched::spawn({
        let req_rx = req_rx.clone();
        let slot = Arc::clone(&slot);
        move || {
            while let Ok(job) = req_rx.recv() {
                slot.claim(job);
                sched::yield_now();
                slot.release(job);
                if !slot.is_current(g1) {
                    return;
                }
            }
        }
    });

    req_tx.send(2).expect("worker alive");
    req_tx.send(3).expect("worker alive");
    drop(req_tx);
    w0.join();
    w1.join();

    assert!(
        stale_jobs.load(Ordering::SeqCst) <= 1,
        "stale worker kept claiming jobs after its slot was respawned"
    );
}

#[test]
fn generation_fencing_holds_across_interleavings() {
    sched::check(budget(), || respawn_fencing_model(true)).assert_pass();
}

#[test]
fn checker_catches_missing_generation_fence() {
    let report = sched::check(budget(), || respawn_fencing_model(false));
    let failure = report.failure.expect("unfenced mutant must be caught");
    assert!(
        failure.message.contains("stale worker kept claiming"),
        "caught the wrong bug: {}",
        failure.message
    );
}

// ---------------------------------------------------------------------------
// Suite 3: shutdown request → halt → journal recovery.
// ---------------------------------------------------------------------------

/// A shutdown racing a two-job search with transient failures. A
/// killer thread flips the [`ShutdownFlag`] at an arbitrary point;
/// the master checks it each iteration (like `Engine::run_inner`) and
/// journals every verdict it applies, as the engine's checkpoint does:
/// a transient one it sends back for another attempt, or a final one.
/// On halt it recovers from the journal the way resume does: the jobs
/// with a final line are done, and every other submitted job is
/// re-dispatched at the attempt its transient lines reached.
///
/// Invariant: wherever the shutdown lands — before submission, mid
/// flight, or during a retry backoff — recovery covers every job
/// exactly once, and a job comes back at the attempt it had reached.
/// The `lose_retries` mutant treats a job with any line as settled,
/// losing jobs that are waiting out a backoff.
fn shutdown_recovery_model(lose_retries: bool) {
    const BACKOFF_TICKS: u64 = 500;
    const MAX_RETRIES: usize = 1;

    let (req_tx, req_rx) = channel::unbounded::<(u64, u32)>();
    let (res_tx, res_rx) = channel::unbounded::<(u64, u32, bool)>();

    let worker = sched::spawn(move || {
        while let Ok((id, job)) = req_rx.recv() {
            let ok = sched::choice(2) == 0; // success or transient failure
            if res_tx.send((id, job, ok)).is_err() {
                return;
            }
        }
    });
    let shutdown = ShutdownFlag::new();
    let killer = sched::spawn({
        let shutdown = shutdown.clone();
        move || shutdown.request()
    });

    let mut ledger: DispatchLedger<u32, u64> = DispatchLedger::new();
    let mut to_submit = vec![8u32, 7u32];
    let mut submitted: Vec<u32> = Vec::new();
    let mut next_id = 0u64;
    // The attempt each unfinished job would be dispatched at next.
    let mut next_attempt: Vec<(u32, usize)> = Vec::new();
    // (job, final) per applied verdict, in order.
    let mut journal: Vec<(u32, bool)> = Vec::new();

    loop {
        let halt = shutdown.is_requested();
        if !halt {
            while ledger.in_flight_len() < 1 {
                let (job, attempt) =
                    if let Some((attempt, job)) = ledger.pop_ready_retry(sched::now()) {
                        (job, attempt)
                    } else if let Some(job) = to_submit.pop() {
                        submitted.push(job);
                        next_attempt.push((job, 0));
                        (job, 0)
                    } else {
                        break;
                    };
                let id = next_id;
                next_id += 1;
                ledger.dispatch(id, job, attempt, None);
                req_tx.send((id, job)).expect("worker alive");
            }
        }
        if halt || (ledger.quiescent() && to_submit.is_empty()) {
            break;
        }

        let received = match ledger.next_wake() {
            None => Some(res_rx.recv().expect("worker alive")),
            Some(wake) => {
                let timeout = Duration::from_nanos(wake.saturating_sub(sched::now()));
                match res_rx.recv_timeout(timeout) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => unreachable!("worker holds sender"),
                }
            }
        };
        if let Some((id, job, ok)) = received {
            match ledger.take_result(id) {
                ResultClass::Fresh(done) => {
                    let last = ok || done.attempt >= MAX_RETRIES;
                    journal.push((job, last));
                    next_attempt.retain(|&(j, _)| j != job);
                    if !last {
                        next_attempt.push((job, done.attempt + 1));
                        ledger.schedule_retry(
                            sched::now() + BACKOFF_TICKS,
                            done.attempt + 1,
                            done.payload,
                        );
                    }
                }
                ResultClass::Stale => {}
                ResultClass::Unknown => panic!("result for id {id} unknown to the ledger"),
            }
        }
    }

    // Recovery from the journal alone. No job may be lost or
    // duplicated, and each comes back at the attempt it reached.
    let settled = |job: u32| journal.iter().any(|&(j, last)| j == job && (last || lose_retries));
    let mut recovered: Vec<(u32, usize)> = submitted
        .iter()
        .filter(|&&job| !settled(job))
        .map(|&job| (job, journal.iter().filter(|&&(j, _)| j == job).count()))
        .collect();
    let mut covered: Vec<u32> = journal.iter().filter(|(_, last)| *last).map(|&(j, _)| j).collect();
    covered.extend(recovered.iter().map(|&(job, _)| job));
    covered.extend(to_submit.iter().copied());
    covered.sort_unstable();
    assert_eq!(covered, vec![7, 8], "journal recovery lost or duplicated work");
    recovered.sort_unstable();
    next_attempt.sort_unstable();
    assert_eq!(recovered, next_attempt, "journal recovery resumed a job at the wrong attempt");

    drop(req_tx);
    worker.join();
    killer.join();
}

#[test]
fn shutdown_recovery_holds_across_interleavings() {
    sched::check(budget(), || shutdown_recovery_model(false)).assert_pass();
}

#[test]
fn checker_catches_recovery_that_loses_retries() {
    let report = sched::check(budget(), || shutdown_recovery_model(true));
    let failure = report
        .failure
        .expect("recovery-losing mutant must be caught");
    assert!(
        failure.message.contains("journal recovery lost or duplicated"),
        "caught the wrong bug: {}",
        failure.message
    );
}

// ---------------------------------------------------------------------------
// Suite 4: remote dispatch → worker dies mid-job → retry on another
// slot → late stale reply fenced by session stamp.
// ---------------------------------------------------------------------------

/// The cluster coordinator's remote-exchange protocol: per-slot request
/// channels, one shared result channel (exactly the engine's remote
/// slot plumbing), and a session wire to each worker that *persists
/// across reconnects* — an adversarial transport where a reply from a
/// fenced session stays readable. A worker nondeterministically "dies
/// mid-job" by stalling past the exchange deadline; the slot classifies
/// the exchange transient, the master retries the job on another slot,
/// and the late reply eventually surfaces on the old wire.
///
/// The `fence` knob is the protocol under test, mirroring
/// `RemoteSlot::exchange` in `cluster.rs`: the shipped slot drops any reply
/// whose `(id, stamp)` does not match the request it just sent and
/// reports the exchange transient; the mutant forwards whatever reply
/// arrives first.
///
/// Invariants: every success pairs the right payload with its job, and
/// each job receives exactly one final verdict no matter how stalls,
/// deadlines, retries, and late deliveries interleave.
fn remote_dispatch_model(fence: bool) {
    const EXCHANGE_TICKS: u64 = 1_000;
    const BACKOFF_TICKS: u64 = 100;
    const MAX_RETRIES: usize = 1;
    const SLOTS: usize = 2;

    let (res_tx, res_rx) = channel::unbounded::<(usize, u64, Option<u32>)>();

    let mut req_txs = Vec::new();
    let mut slot_handles = Vec::new();
    let mut worker_handles = Vec::new();
    for slot in 0..SLOTS {
        let (req_tx, req_rx) = channel::unbounded::<(u64, u32)>();
        let (wire_tx, wire_rx) = channel::unbounded::<(u64, u64, u32)>();
        let (reply_tx, reply_rx) = channel::unbounded::<(u64, u64, u32)>();
        worker_handles.push(sched::spawn(move || {
            while let Ok((id, stamp, job)) = wire_rx.recv() {
                if sched::choice(2) == 1 {
                    // Dies mid-job: the reply surfaces only after the
                    // slot has declared the session dead.
                    sched::sleep(EXCHANGE_TICKS + 10);
                }
                if reply_tx.send((id, stamp, job + 1_000)).is_err() {
                    return;
                }
            }
        }));
        let res_tx = res_tx.clone();
        slot_handles.push(sched::spawn(move || {
            let mut connects: u64 = 0;
            while let Ok((id, job)) = req_rx.recv() {
                let stamp = ((slot as u64) << 32) | connects;
                wire_tx.send((id, stamp, job)).expect("worker outlives slot");
                let outcome = match reply_rx.recv_timeout(Duration::from_nanos(EXCHANGE_TICKS)) {
                    Ok((rid, rstamp, payload)) => {
                        if fence && (rid != id || rstamp != stamp) {
                            None // stale reply from a fenced session
                        } else {
                            Some(payload)
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => unreachable!("worker outlives slot"),
                };
                if outcome.is_none() {
                    // Any failed exchange drops the session; the next
                    // one reconnects under a fresh stamp.
                    connects += 1;
                }
                if res_tx.send((slot, id, outcome)).is_err() {
                    return;
                }
            }
        }));
        req_txs.push(req_tx);
    }
    drop(res_tx);

    let mut ledger: DispatchLedger<u32, u64> = DispatchLedger::new();
    let mut to_submit = vec![8u32, 7u32];
    let mut next_id = 0u64;
    let mut busy = [false; SLOTS];
    let mut last_slot: Vec<(u32, usize)> = Vec::new();
    let mut verdicts: Vec<(u32, &str)> = Vec::new();

    loop {
        loop {
            let free: Vec<usize> = (0..SLOTS).filter(|&s| !busy[s]).collect();
            if free.is_empty() {
                break;
            }
            let (job, attempt) = if let Some((attempt, job)) = ledger.pop_ready_retry(sched::now())
            {
                (job, attempt)
            } else if let Some(job) = to_submit.pop() {
                (job, 0)
            } else {
                break;
            };
            // Retry on *another* slot when one is free: the slot that
            // just lost this job is the least likely to hold a live
            // session.
            let avoid = last_slot.iter().find(|&&(j, _)| j == job).map(|&(_, s)| s);
            let slot = free
                .iter()
                .copied()
                .find(|&s| Some(s) != avoid)
                .unwrap_or(free[0]);
            let id = next_id;
            next_id += 1;
            ledger.dispatch(id, job, attempt, None);
            busy[slot] = true;
            match last_slot.iter_mut().find(|(j, _)| *j == job) {
                Some(entry) => entry.1 = slot,
                None => last_slot.push((job, slot)),
            }
            req_txs[slot].send((id, job)).expect("slot alive");
        }
        if ledger.quiescent() && to_submit.is_empty() {
            break;
        }

        // A retry that is already ripe is only waiting for a free slot,
        // so block on the next result instead of spinning on a wake in
        // the past.
        let wake = ledger.next_wake().filter(|&w| w > sched::now());
        let received = match wake {
            None => Some(res_rx.recv().expect("slots alive")),
            Some(wake) => {
                let timeout = Duration::from_nanos(wake - sched::now());
                match res_rx.recv_timeout(timeout) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => unreachable!("slots hold senders"),
                }
            }
        };
        if let Some((slot, id, outcome)) = received {
            busy[slot] = false;
            match ledger.take_result(id) {
                ResultClass::Fresh(done) => match outcome {
                    Some(payload) => {
                        assert_eq!(payload, done.payload + 1_000, "result paired with wrong job");
                        verdicts.push((done.payload, "ok"));
                    }
                    None => {
                        if done.attempt < MAX_RETRIES {
                            ledger.schedule_retry(
                                sched::now() + BACKOFF_TICKS,
                                done.attempt + 1,
                                done.payload,
                            );
                        } else {
                            verdicts.push((done.payload, "timeout"));
                        }
                    }
                },
                other => panic!("slot result for id {id} misclassified as {other:?}"),
            }
        }
    }

    drop(req_txs);
    for handle in slot_handles {
        handle.join();
    }
    for handle in worker_handles {
        handle.join();
    }
    let mut jobs: Vec<u32> = verdicts.iter().map(|&(job, _)| job).collect();
    jobs.sort_unstable();
    assert_eq!(
        jobs,
        vec![7, 8],
        "each job gets exactly one final verdict, got {verdicts:?}"
    );
}

#[test]
fn remote_dispatch_fencing_holds_across_interleavings() {
    sched::check(budget(), || remote_dispatch_model(true)).assert_pass();
}

#[test]
fn checker_catches_unfenced_stale_replies() {
    let report = sched::check(budget(), || remote_dispatch_model(false));
    let failure = report
        .failure
        .expect("mutant that trusts stale replies must be caught");
    assert!(
        failure.message.contains("result paired with wrong job"),
        "caught the wrong bug: {}",
        failure.message
    );
}
