//! The bounded ingest queue: admission control and backpressure for the
//! claim service.
//!
//! A plain two-condvar MPMC queue over a mutexed ring. The capacity bound
//! is the service's **admission-control invariant**: the queue never holds
//! more than `capacity` requests, so a producer always learns about
//! overload *at submit time* — either by blocking ([`IngestQueue::push`])
//! or by an immediate [`SubmitError::Full`] ([`IngestQueue::try_push`]) —
//! instead of the service buffering unboundedly and collapsing later.
//!
//! A condvar is **notified only when a thread is parked on it**. The state
//! counts, under the mutex, the consumers parked in `pop` and the producers
//! parked in `push`; each parked thread raises its count before it waits
//! and lowers it after it wakes, so the count never reads below the number
//! of threads actually waiting, and a push or pop that sees zero has no one
//! to wake. The check is what saves the claim path its cost: std's condvar
//! makes a wake-up system call on every `notify_one`, whether or not a
//! thread is parked, and a busy service pushes and pops with nobody
//! waiting. [`close`](IngestQueue::close) still wakes everyone.
//!
//! The queue is **poison-tolerant**: a worker that panics while holding
//! the lock (a chaos kill, a process bug) leaves the mutex poisoned but
//! the state itself consistent — it is a plain deque plus counters, with
//! no invariant ever spanning a panic point (a parked thread alone changes
//! its waiter count, under the lock, with no panic point between raising
//! and lowering it) — so every operation recovers the guard from
//! [`PoisonError`](std::sync::PoisonError) instead of cascading the panic
//! into blocked producers as a deadlock-by-unwind.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Recovers the guard from a poisoned lock or condvar wait: the queue's
/// state holds no invariant across a panic point, so the poison flag is
/// noise here, not evidence of corruption (see the module docs).
fn recover<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Why a submission did not enter the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity (backpressure): retry, back off, or use
    /// the blocking [`IngestQueue::push`].
    Full,
    /// The queue was closed; no further submissions are accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "queue full (backpressure)"),
            SubmitError::Closed => write!(f, "queue closed"),
        }
    }
}

/// A rejected submission: the item back, plus why.
#[derive(Debug)]
pub struct Rejected<T> {
    /// The item that did not enter the queue.
    pub item: T,
    /// The rejection reason.
    pub reason: SubmitError,
}

/// Counters describing what the queue saw over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Items that entered the queue.
    pub accepted: u64,
    /// `try_push` attempts bounced with [`SubmitError::Full`].
    pub rejected_full: u64,
    /// Deepest the queue ever got (`≤ capacity` by construction).
    pub peak_depth: usize,
}

struct State<T> {
    buf: VecDeque<T>,
    closed: bool,
    stats: QueueStats,
    /// Consumers waiting on `not_empty` in [`IngestQueue::pop`].
    parked_consumers: usize,
    /// Producers waiting on `not_full` in [`IngestQueue::push`].
    parked_producers: usize,
}

/// A bounded blocking MPMC queue (see the module docs).
pub struct IngestQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> IngestQueue<T> {
    /// Creates a queue admitting at most `capacity` in-flight items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(State {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
                stats: QueueStats::default(),
                parked_consumers: 0,
                parked_producers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Non-blocking submit: enqueues `item`, or returns it with
    /// [`SubmitError::Full`] when the bound is hit (the backpressure
    /// signal) / [`SubmitError::Closed`] after [`close`](Self::close).
    pub fn try_push(&self, item: T) -> Result<(), Rejected<T>> {
        let mut st = recover(self.state.lock());
        if st.closed {
            return Err(Rejected {
                item,
                reason: SubmitError::Closed,
            });
        }
        if st.buf.len() >= self.capacity {
            st.stats.rejected_full += 1;
            return Err(Rejected {
                item,
                reason: SubmitError::Full,
            });
        }
        st.buf.push_back(item);
        st.stats.accepted += 1;
        st.stats.peak_depth = st.stats.peak_depth.max(st.buf.len());
        if st.parked_consumers > 0 {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Blocking submit: waits while the queue is at capacity. Fails only
    /// when the queue is (or becomes, while waiting) closed.
    pub fn push(&self, item: T) -> Result<(), Rejected<T>> {
        let mut st = recover(self.state.lock());
        loop {
            if st.closed {
                return Err(Rejected {
                    item,
                    reason: SubmitError::Closed,
                });
            }
            if st.buf.len() < self.capacity {
                st.buf.push_back(item);
                st.stats.accepted += 1;
                st.stats.peak_depth = st.stats.peak_depth.max(st.buf.len());
                if st.parked_consumers > 0 {
                    self.not_empty.notify_one();
                }
                return Ok(());
            }
            st.parked_producers += 1;
            st = recover(self.not_full.wait(st));
            st.parked_producers -= 1;
        }
    }

    /// Blocking consume: waits for an item. Returns `None` exactly when
    /// the queue is closed **and** drained — every accepted item is
    /// delivered to some consumer before the `None`s begin.
    pub fn pop(&self) -> Option<T> {
        let mut st = recover(self.state.lock());
        loop {
            if let Some(item) = st.buf.pop_front() {
                if st.parked_producers > 0 {
                    self.not_full.notify_one();
                }
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st.parked_consumers += 1;
            st = recover(self.not_empty.wait(st));
            st.parked_consumers -= 1;
        }
    }

    /// Closes the queue: rejects future submissions, wakes every blocked
    /// producer and consumer. Already-accepted items remain poppable (the
    /// drain guarantee).
    pub fn close(&self) {
        let mut st = recover(self.state.lock());
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Lifetime counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        recover(self.state.lock()).stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Arc;
    use std::time::Duration;

    /// Runs `body` on its own thread and waits at most 10 s for it, so a
    /// lost wake-up fails the test loudly instead of hanging it.
    fn within_watchdog<R: Send + 'static>(body: impl FnOnce() -> R + Send + 'static) -> R {
        let (done_tx, done_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let result = body();
            let _ = done_tx.send(());
            result
        });
        if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(10)) {
            panic!("lost wake-up: a queue thread is still parked after 10 s");
        }
        handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    #[test]
    fn bounded_try_push_signals_backpressure() {
        let q = IngestQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        let rej = q.try_push(3).unwrap_err();
        assert_eq!(rej.reason, SubmitError::Full);
        assert_eq!(rej.item, 3);
        let stats = q.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected_full, 1);
        assert_eq!(stats.peak_depth, 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = IngestQueue::new(4);
        q.try_push(10).unwrap();
        q.try_push(11).unwrap();
        q.close();
        assert_eq!(
            q.try_push(12).unwrap_err().reason,
            SubmitError::Closed,
            "closed queue admits nothing"
        );
        assert_eq!(q.pop(), Some(10), "accepted items survive the close");
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_push_waits_for_room() {
        let q = Arc::new(IngestQueue::new(1));
        q.try_push(1u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2).is_ok())
        };
        // The producer is blocked on the full queue until we pop.
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(IngestQueue::<u32>::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = IngestQueue::<u32>::new(0);
    }

    /// Regression for the panic-safety audit: a worker dying mid-drain
    /// while holding the queue lock poisons the mutex, but the state is
    /// still consistent — every operation (including the drain guarantee)
    /// must keep working instead of deadlocking blocked pushers with a
    /// cascading poison panic.
    #[test]
    fn poisoned_lock_does_not_deadlock_the_queue() {
        let q = Arc::new(IngestQueue::new(4));
        q.try_push(1u32).unwrap();
        let dying_worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.state.lock().unwrap();
                panic!("worker killed mid-drain");
            })
        };
        assert!(dying_worker.join().is_err(), "the worker really died");
        // The mutex is now poisoned; everything must still work.
        assert_eq!(q.pop(), Some(1));
        q.push(2).unwrap();
        q.try_push(3).unwrap();
        assert_eq!(q.stats().accepted, 3);
        q.close();
        assert_eq!(q.pop(), Some(2), "drain guarantee survives the poison");
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    /// Two pushes must wake both parked consumers, not one: each push
    /// finds a consumer still counted as parked and notifies.
    #[test]
    fn every_parked_consumer_is_woken() {
        within_watchdog(|| {
            let q = Arc::new(IngestQueue::new(4));
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || q.pop())
                })
                .collect();
            while recover(q.state.lock()).parked_consumers < 2 {
                std::thread::yield_now();
            }
            q.try_push(1u32).unwrap();
            q.try_push(2).unwrap();
            let mut got: Vec<_> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, [Some(1), Some(2)]);
        });
    }

    /// Blocking producers and consumers on a one-slot queue, so nearly
    /// every operation parks or wakes someone: every item must come out
    /// exactly once, and nobody may stay parked.
    #[test]
    fn parked_producers_and_consumers_never_lose_a_wake_up() {
        const ITEMS: u32 = 20_000;
        const PRODUCERS: u32 = 3;
        within_watchdog(|| {
            let q = Arc::new(IngestQueue::new(1));
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        for item in (p..ITEMS).step_by(PRODUCERS as usize) {
                            q.push(item).unwrap();
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || std::iter::from_fn(|| q.pop()).collect::<Vec<_>>())
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            let mut got: Vec<u32> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            got.sort_unstable();
            assert!(got.iter().copied().eq(0..ITEMS), "every item exactly once");
            assert_eq!(q.stats().peak_depth, 1);
        });
    }
}
