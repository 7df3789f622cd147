//! The master loop's dispatch bookkeeping, extracted into a pure state
//! machine.
//!
//! [`DispatchLedger`] owns the three structures the engine's master
//! loop threads through every scheduling decision: the in-flight map
//! (id → job + optional deadline), the stale-id set (timed-out
//! dispatches whose late results must be dropped), and the retry queue
//! (jobs waiting out a backoff). Extracting them serves two purposes:
//!
//! * the engine's hot loop reads as protocol operations (`dispatch`,
//!   `take_result`, `expire`, `next_wake`) instead of raw map/set/queue
//!   manipulation, and
//! * the protocol becomes checkable in isolation: the ledger is generic
//!   over its clock type `T: Ord + Copy`, so `rt::sched` model checks
//!   drive it under virtual-time ticks (`u64`) while the engine uses
//!   [`std::time::Instant`] — the exact same transition code in both.
//!
//! The model checks' deliberately broken variants (a stale result read
//! as unknown, a journal recovery that loses retried jobs) live in the
//! tests, applied at the call site: the ledger itself has one behavior.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A dispatched unit of work: the caller's payload plus the attempt
/// number (0 = first try) the protocol tracks for retry budgeting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job<P> {
    /// Caller-owned data carried through the ledger untouched.
    pub payload: P,
    /// 0 for a first dispatch, incremented per retry.
    pub attempt: usize,
}

/// How [`DispatchLedger::take_result`] classified an arriving result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResultClass<P> {
    /// The id is in flight: here is its job, now removed from the
    /// ledger. The caller decides retry vs. finalize.
    Fresh(Job<P>),
    /// The id timed out earlier; its verdict was already decided and
    /// this late report must be dropped.
    Stale,
    /// The id was never dispatched or was already resolved — a
    /// protocol violation on the caller's side.
    Unknown,
}

struct Entry<P, T> {
    payload: P,
    attempt: usize,
    deadline: Option<T>,
}

/// Dispatch/deadline/retry/stale bookkeeping for a master loop.
///
/// `P` is the caller's per-job payload (the engine uses
/// `(CandidateGenome, OperatorKind)`); `T` is the clock — any totally
/// ordered `Copy` type, so both `Instant` and virtual-time ticks work.
///
/// Iteration order everywhere is deterministic: the in-flight map and
/// stale set are B-trees keyed by id, and the retry queue preserves
/// insertion order (FIFO gated on readiness, matching the engine's
/// historical `VecDeque` semantics).
pub struct DispatchLedger<P, T> {
    in_flight: BTreeMap<u64, Entry<P, T>>,
    stale: BTreeSet<u64>,
    retry_q: VecDeque<(T, usize, P)>,
}

impl<P, T: Ord + Copy> DispatchLedger<P, T> {
    /// An empty ledger.
    pub fn new() -> Self {
        DispatchLedger {
            in_flight: BTreeMap::new(),
            stale: BTreeSet::new(),
            retry_q: VecDeque::new(),
        }
    }

    /// Records `id` as in flight. `deadline` is the instant after
    /// which [`DispatchLedger::expire`] may abandon it; `None` means
    /// the dispatch can wait forever.
    ///
    /// # Panics
    ///
    /// If `id` is already in flight — ids must be unique for the
    /// stale-drop protocol to be sound.
    pub fn dispatch(&mut self, id: u64, payload: P, attempt: usize, deadline: Option<T>) {
        let prior = self.in_flight.insert(
            id,
            Entry {
                payload,
                attempt,
                deadline,
            },
        );
        assert!(prior.is_none(), "dispatch id {id} reused while in flight");
    }

    /// Classifies an arriving result for `id` and removes the
    /// corresponding bookkeeping.
    pub fn take_result(&mut self, id: u64) -> ResultClass<P> {
        if self.stale.remove(&id) {
            return ResultClass::Stale;
        }
        match self.in_flight.remove(&id) {
            Some(e) => ResultClass::Fresh(Job {
                payload: e.payload,
                attempt: e.attempt,
            }),
            None => ResultClass::Unknown,
        }
    }

    /// Queues a job to be re-dispatched once the clock reaches
    /// `ready`. FIFO across entries: an earlier-queued retry is always
    /// offered first, even if a later one became ready sooner.
    pub fn schedule_retry(&mut self, ready: T, attempt: usize, payload: P) {
        self.retry_q.push_back((ready, attempt, payload));
    }

    /// Pops the front retry if its backoff has elapsed at `now`.
    pub fn pop_ready_retry(&mut self, now: T) -> Option<(usize, P)> {
        if self.retry_q.front().is_some_and(|&(ready, _, _)| ready <= now) {
            let (_, attempt, payload) = self.retry_q.pop_front().expect("front checked");
            Some((attempt, payload))
        } else {
            None
        }
    }

    /// Abandons every in-flight dispatch whose deadline has passed at
    /// `now`, marking each id stale so its late result (if one ever
    /// arrives) is dropped. Returns the abandoned jobs in ascending id
    /// order; the caller decides retry vs. final verdict per job.
    pub fn expire(&mut self, now: T) -> Vec<(u64, Job<P>)> {
        let overdue: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, e)| e.deadline.is_some_and(|d| d <= now))
            .map(|(&id, _)| id)
            .collect();
        overdue
            .into_iter()
            .map(|id| {
                let e = self.in_flight.remove(&id).expect("overdue id in flight");
                self.stale.insert(id);
                (
                    id,
                    Job {
                        payload: e.payload,
                        attempt: e.attempt,
                    },
                )
            })
            .collect()
    }

    /// The earliest instant anything needs attention: the soonest
    /// in-flight deadline or retry-ready time. `None` when the caller
    /// can block indefinitely on the result channel.
    pub fn next_wake(&self) -> Option<T> {
        self.in_flight
            .values()
            .filter_map(|e| e.deadline)
            .chain(self.retry_q.iter().map(|&(ready, _, _)| ready))
            .min()
    }

    /// Number of dispatches awaiting results.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// True when no work is in flight and no retry is queued — stale
    /// ids don't count, since their verdicts are already decided.
    pub fn quiescent(&self) -> bool {
        self.in_flight.is_empty() && self.retry_q.is_empty()
    }
}

impl<P, T: Ord + Copy> Default for DispatchLedger<P, T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_result_round_trip() {
        let mut ledger: DispatchLedger<&str, u64> = DispatchLedger::new();
        ledger.dispatch(7, "job", 0, Some(100));
        assert_eq!(ledger.in_flight_len(), 1);
        assert!(!ledger.quiescent());
        match ledger.take_result(7) {
            ResultClass::Fresh(job) => {
                assert_eq!(job.payload, "job");
                assert_eq!(job.attempt, 0);
            }
            other => panic!("expected fresh, got {other:?}"),
        }
        assert!(ledger.quiescent());
    }

    #[test]
    fn expired_dispatch_goes_stale_exactly_once() {
        let mut ledger: DispatchLedger<&str, u64> = DispatchLedger::new();
        ledger.dispatch(1, "slow", 0, Some(50));
        ledger.dispatch(2, "fast", 0, Some(500));
        assert!(ledger.expire(10).is_empty());
        let expired = ledger.expire(50);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, 1);
        // The late result for the abandoned id drops as stale — once.
        assert_eq!(ledger.take_result(1), ResultClass::Stale);
        assert_eq!(ledger.take_result(1), ResultClass::Unknown);
        // The other dispatch is unaffected.
        assert!(matches!(ledger.take_result(2), ResultClass::Fresh(_)));
    }

    #[test]
    fn retry_queue_is_fifo_gated_on_readiness() {
        let mut ledger: DispatchLedger<&str, u64> = DispatchLedger::new();
        ledger.schedule_retry(100, 1, "first");
        ledger.schedule_retry(10, 2, "second");
        // "second" is ready at t=10, but "first" heads the queue.
        assert_eq!(ledger.pop_ready_retry(99), None);
        assert_eq!(ledger.pop_ready_retry(100), Some((1, "first")));
        assert_eq!(ledger.pop_ready_retry(100), Some((2, "second")));
        assert_eq!(ledger.pop_ready_retry(100), None);
    }

    #[test]
    fn next_wake_spans_deadlines_and_retries() {
        let mut ledger: DispatchLedger<&str, u64> = DispatchLedger::new();
        assert_eq!(ledger.next_wake(), None);
        ledger.dispatch(1, "a", 0, Some(300));
        ledger.dispatch(2, "b", 0, None);
        assert_eq!(ledger.next_wake(), Some(300));
        ledger.schedule_retry(120, 1, "r");
        assert_eq!(ledger.next_wake(), Some(120));
    }

    #[test]
    #[should_panic(expected = "reused while in flight")]
    fn duplicate_dispatch_id_panics() {
        let mut ledger: DispatchLedger<&str, u64> = DispatchLedger::new();
        ledger.dispatch(1, "a", 0, None);
        ledger.dispatch(1, "b", 0, None);
    }
}
